"""Gas state representations, ideal-gas EOS and the unsplit Euler flux.

All quantities are in consistent (user-chosen) units; only the specific
heat ratio gamma enters the thermodynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class NonPhysicalStateError(ValueError):
    """Raised when a state with rho <= 0 or p <= 0 is encountered.

    Carries the fault, its values and its cell, never the step (see
    SolverBlowUp); no clipping or positivity floor is ever applied silently.
    """

    def __init__(self, message, *, rho=None, p=None, cell=None):
        parts = [message]
        if rho is not None:
            parts.append(f"rho={rho!r}")
        if p is not None:
            parts.append(f"p={p!r}")
        if cell is not None:
            parts.append(f"cell={cell}")
        super().__init__(", ".join(parts))
        self.rho = rho
        self.p = p
        self.cell = cell


@dataclass(frozen=True)
class GasModel:
    """Ideal gas with constant specific-heat ratio."""

    gamma: float = 1.4

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")


class _PrimitiveFields:
    """Shared by the primitive states: the fields (rho, velocity
    components..., p), iterated in that order.  A state is physical by
    construction: building one with a field that is not finite, or a rho
    or p that is not positive, raises NonPhysicalStateError."""

    def __iter__(self):
        return (getattr(self, f.name) for f in fields(self))

    def __post_init__(self):
        if not (self.rho > 0.0 and self.p > 0.0
                and all(math.isfinite(q) for q in self)):
            raise NonPhysicalStateError("non-physical primitive state",
                                        rho=self.rho, p=self.p)


@dataclass(frozen=True)
class PrimitiveState(_PrimitiveFields):
    """1D gas state in (density, velocity, pressure) variables."""

    rho: float
    u: float
    p: float


@dataclass(frozen=True)
class Prim2D(_PrimitiveFields):
    """2D gas state in (density, velocity components, pressure) variables."""

    rho: float
    u: float
    v: float
    p: float


def total_energy(w: PrimitiveState, gas: GasModel) -> float:
    """Specific total energy E = p / (rho (gamma - 1)) + u^2 / 2."""
    return w.p / (w.rho * (gas.gamma - 1.0)) + 0.5 * w.u * w.u


def sound_speed(w: PrimitiveState, gas: GasModel) -> float:
    """a = sqrt(gamma p / rho)."""
    return math.sqrt(gas.gamma * w.p / w.rho)


def physical_flux(w: PrimitiveState, gas: GasModel) -> np.ndarray:
    """Unsplit Euler flux (rho u, p + rho u^2, p u + rho u E)."""
    E = total_energy(w, gas)
    return np.array([
        w.rho * w.u,
        w.p + w.rho * w.u * w.u,
        w.p * w.u + w.rho * w.u * E,
    ])


# --- conserved <-> primitive, for single states and cell arrays ---

def prim_to_cons_arrays(W, gamma):
    """Primitive rows (rho, velocities..., p), a sequence or a stack of
    equal shapes -> the stacked conserved rows (rho, momenta..., rho E),
    with rho E = p / (gamma - 1) + rho |u|^2 / 2."""
    rho, *vel, p = W
    ke = sum(q * q for q in vel)
    return np.stack([rho, *(rho * q for q in vel),
                     p / (gamma - 1.0) + 0.5 * rho * ke])


def _raise_first_bad(rho, p):
    """Raise NonPhysicalStateError for the first cell whose rho, or else
    whose p, is not finite and positive."""
    for name, q in (("density", rho), ("pressure", p)):
        bad = ~(q > 0.0) | ~np.isfinite(q)
        if bad.any():
            cell = first_index(bad)
            raise NonPhysicalStateError(
                f"non-physical {name} in solution", rho=float(rho[cell]),
                p=None if q is rho else float(q[cell]), cell=cell)


def cons_to_prim_arrays(U, gamma):
    """Conserved rows (rho, momenta..., rho E) of a (3, ...) or (4, ...)
    array -> the primitive rows (rho, velocities..., p), stacked in an
    array of the same shape.  One state is a (3,) or (4,) array.

    Raises NonPhysicalStateError unless every rho, then every p, is finite
    and positive; the error names the first bad cell in C order (see
    first_index).  The pressure is (gamma - 1) (rho E - |m|^2 / (2 rho)).
    """
    U = np.asarray(U, dtype=float)
    W = np.empty(U.shape)
    rho, p = U[0, ...], W[-1, ...]       # 0-d views for one state
    if not rho.min() > 0.0:
        # rho is at fault, so p, not yet written, is never read
        _raise_first_bad(rho, p)
    W[0] = rho
    # p = |m|^2, with the velocity rows after the first as scratch
    np.square(U[1], out=p)
    for k in range(2, len(U) - 1):
        np.square(U[k], out=W[k, ...])
        p += W[k]
    p *= 0.5
    p /= rho
    np.subtract(U[-1], p, out=p)
    p *= gamma - 1.0
    np.divide(U[1:-1], rho, out=W[1:-1])
    # rho and p are the first and the last row
    if not (p.min() > 0.0 and W[::len(W) - 1].max() < np.inf):
        _raise_first_bad(rho, p)
    return W


def first_index(bad):
    """Index of the first True entry of bad in C order, in Python ints: an
    int for a 1D array, else a tuple (empty for a single state)."""
    k = int(np.argmax(bad))
    if bad.ndim == 1:
        return k
    return tuple(int(i) for i in np.unravel_index(k, bad.shape))


def check_faces(faces):
    """Raise NonPhysicalStateError unless every reconstructed face value is
    finite, with rho and p positive.

    faces is one (2, fields, ...) array of the left and the right face
    states, each the fields (rho, u, p) or (rho, u, v, p).  Left comes
    before right; within a side, a non-finite value, in field order,
    before a non-positive rho, then p.  The error names the field and the
    first face where the fault occurs, by its index in the field arrays.
    """
    # rho and p are the first and the last field
    if (faces[:, ::faces.shape[1] - 1].min() > 0.0
            and np.isfinite(faces).all()):
        return
    for side in faces:
        names = ("rho", "u", "v", "p") if len(side) == 4 else ("rho", "u", "p")
        for name, q in zip(names, side):
            bad = ~np.isfinite(q)
            if bad.any():
                raise NonPhysicalStateError(
                    f"reconstructed {name} non-finite",
                    cell=first_index(bad))
        for name, q in ((names[0], side[0]), (names[-1], side[-1])):
            bad = ~(q > 0.0)
            if bad.any():
                raise NonPhysicalStateError(
                    f"reconstructed {name} not positive",
                    cell=first_index(bad))
