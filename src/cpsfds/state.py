"""Gas state representations, ideal-gas EOS and the unsplit Euler flux.

All quantities are in consistent (user-chosen) units; only the specific
heat ratio gamma enters the thermodynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonPhysicalStateError(ValueError):
    """Raised when a state with rho <= 0 or p <= 0 is encountered.

    Carries the offending values; no clipping or positivity floor is ever
    applied silently.
    """

    def __init__(self, message, *, rho=None, p=None, cell=None, step=None):
        parts = [message]
        if rho is not None:
            parts.append(f"rho={rho!r}")
        if p is not None:
            parts.append(f"p={p!r}")
        if cell is not None:
            parts.append(f"cell={cell}")
        if step is not None:
            parts.append(f"step={step}")
        super().__init__(", ".join(parts))
        self.rho = rho
        self.p = p
        self.cell = cell
        self.step = step


@dataclass(frozen=True)
class GasModel:
    """Ideal gas with constant specific-heat ratio."""

    gamma: float = 1.4

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")


@dataclass(frozen=True)
class PrimitiveState:
    """1D gas state in (density, velocity, pressure) variables."""

    rho: float
    u: float
    p: float

    def require_physical(self):
        if not (self.rho > 0.0 and self.p > 0.0 and
                math.isfinite(self.rho) and math.isfinite(self.u) and
                math.isfinite(self.p)):
            raise NonPhysicalStateError("non-physical primitive state",
                                        rho=self.rho, p=self.p)


@dataclass(frozen=True)
class Prim2D:
    """2D gas state in (density, velocity components, pressure) variables."""

    rho: float
    u: float
    v: float
    p: float

    def require_physical(self):
        if not (self.rho > 0.0 and self.p > 0.0
                and all(math.isfinite(q)
                        for q in (self.rho, self.u, self.v, self.p))):
            raise NonPhysicalStateError("non-physical 2D state",
                                        rho=self.rho, p=self.p)


@dataclass(frozen=True)
class ConservedState:
    """1D gas state in (rho, rho*u, rho*E) variables."""

    u1: float
    u2: float
    u3: float

    def as_array(self):
        return np.array([self.u1, self.u2, self.u3])


def total_energy(w: PrimitiveState, gas: GasModel) -> float:
    """Specific total energy E = p / (rho (gamma - 1)) + u^2 / 2."""
    return w.p / (w.rho * (gas.gamma - 1.0)) + 0.5 * w.u * w.u


def prim_to_cons(w: PrimitiveState, gas: GasModel) -> ConservedState:
    w.require_physical()
    E = total_energy(w, gas)
    return ConservedState(w.rho, w.rho * w.u, w.rho * E)


def prim_to_cons_2d(w: Prim2D, gas: GasModel) -> np.ndarray:
    """(rho, rho u, rho v, rho E) of one state."""
    w.require_physical()
    E = w.p / (w.rho * (gas.gamma - 1.0)) + 0.5 * (w.u ** 2 + w.v ** 2)
    return np.array([w.rho, w.rho * w.u, w.rho * w.v, w.rho * E])


def cons_to_prim(U: ConservedState, gas: GasModel, *, cell=None,
                 step=None) -> PrimitiveState:
    """Invert prim_to_cons.  Fails loudly on breakdown (rho or p <= 0)."""
    if not (U.u1 > 0.0 and math.isfinite(U.u1)):
        raise NonPhysicalStateError("non-physical conserved state",
                                    rho=U.u1, cell=cell, step=step)
    u = U.u2 / U.u1
    p = (gas.gamma - 1.0) * (U.u3 - 0.5 * U.u2 * U.u2 / U.u1)
    if not (p > 0.0 and math.isfinite(p)):
        raise NonPhysicalStateError("pressure recovery failed",
                                    rho=U.u1, p=p, cell=cell, step=step)
    return PrimitiveState(U.u1, u, p)


def sound_speed(w: PrimitiveState, gas: GasModel) -> float:
    """a = sqrt(gamma p / rho)."""
    w.require_physical()
    return math.sqrt(gas.gamma * w.p / w.rho)


def physical_flux(w: PrimitiveState, gas: GasModel) -> np.ndarray:
    """Unsplit Euler flux (rho u, p + rho u^2, p u + rho u E)."""
    w.require_physical()
    E = total_energy(w, gas)
    return np.array([
        w.rho * w.u,
        w.p + w.rho * w.u * w.u,
        w.p * w.u + w.rho * w.u * E,
    ])


# --- array kernels used by the solvers (vectorized over cells) ---

def prim_to_cons_arrays(rho, u, p, gamma):
    """(rho, u, p) arrays -> (3, n) conserved array."""
    E = p / (rho * (gamma - 1.0)) + 0.5 * u * u
    return np.stack([rho, rho * u, rho * E])


def cons_to_prim_arrays(U, gamma, *, step=None):
    """(3, n) conserved array -> (rho, u, p) arrays; raises on breakdown."""
    rho = U[0]
    bad = ~(rho > 0.0) | ~np.isfinite(rho)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonPhysicalStateError("non-physical density in solution",
                                    rho=float(rho[i]), cell=i, step=step)
    u = U[1] / rho
    p = (gamma - 1.0) * (U[2] - 0.5 * U[1] * U[1] / rho)
    bad = ~(p > 0.0) | ~np.isfinite(p)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonPhysicalStateError("non-physical pressure in solution",
                                    rho=float(rho[i]), p=float(p[i]),
                                    cell=i, step=step)
    return rho, u, p


def first_index(bad):
    """Index of the first True entry of bad in C order, in Python ints: an
    int for a 1D array, else a tuple."""
    k = int(np.argmax(bad))
    if bad.ndim == 1:
        return k
    return tuple(int(i) for i in np.unravel_index(k, bad.shape))


def check_faces(faces, step):
    """Raise NonPhysicalStateError unless every reconstructed face value is
    finite, with rho and p positive.

    faces holds the left and the right face states, each the fields
    (rho, u, p) or (rho, u, v, p): one (2, fields, n) array, tested whole,
    or two sequences of arrays, tested field by field.  Left comes before
    right; within a side, a non-finite value, in field order, before a
    non-positive rho, then p.  The error names the field and the first
    face where the fault occurs, by its index in the field arrays.
    """
    if isinstance(faces, np.ndarray):
        # rho and p are the first and the last field
        ok = (faces[:, ::faces.shape[1] - 1].min() > 0.0
              and np.isfinite(faces).all())
    else:
        ok = (all(side[k].min() > 0.0 for side in faces for k in (0, -1))
              and all(np.isfinite(q).all() for side in faces for q in side))
    if ok:
        return
    for side in faces:
        names = ("rho", "u", "v", "p") if len(side) == 4 else ("rho", "u", "p")
        for name, q in zip(names, side):
            bad = ~np.isfinite(q)
            if bad.any():
                raise NonPhysicalStateError(
                    f"reconstructed {name} non-finite",
                    cell=first_index(bad), step=step)
        for name, q in ((names[0], side[0]), (names[-1], side[-1])):
            bad = ~(q > 0.0)
            if bad.any():
                raise NonPhysicalStateError(
                    f"reconstructed {name} not positive",
                    cell=first_index(bad), step=step)
