"""1D finite-volume driver: uniform grid, ghost-cell boundary conditions,
CFL time stepping, first order or limited second order in space.

Second order uses Venkatakrishnan-limited linear reconstruction of the
primitive variables and a two-stage SSP time integration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fds1d import SchemeKind, interface_flux_batch
from .state import GasModel, NonPhysicalStateError, check_faces, \
    cons_to_prim_arrays, prim_to_cons_arrays


class BoundaryCondition(enum.Enum):
    TRANSMISSIVE = "transmissive"
    REFLECTIVE = "reflective"
    PERIODIC = "periodic"


# Fewest cells of a 1D grid.
MIN_CELLS = 4


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < MIN_CELLS:
            raise ValueError(f"need at least {MIN_CELLS} cells")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("domain bounds must be finite, got "
                             f"[{self.x_min}, {self.x_max}]")
        if not self.x_max > self.x_min:
            raise ValueError("empty domain")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self):
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


# Most steps of one march.
MAX_STEPS = 10_000_000


def check_t_final(t_final):
    """Raise ValueError unless t_final is positive.  +inf is allowed: such
    a march ends on MAX_STEPS or its steady-state test."""
    if not t_final > 0.0:
        raise ValueError(f"t-final must be positive, got {t_final}")


def check_cfl(cfl):
    """Raise ValueError unless cfl is in (0, 1]."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must be in (0, 1], got {cfl}")


def check_steady_drop(steady_drop):
    """Raise ValueError unless steady_drop is None or a finite factor
    above 1: a residual can fall by no smaller factor, and an infinite one
    is never reached."""
    if steady_drop is not None and not 1.0 < steady_drop < np.inf:
        raise ValueError(
            f"steady-drop must be a finite factor above 1, got {steady_drop}")


@dataclass(frozen=True)
class TimeControls:
    """The settings of one run.  order picks both the space and the time
    discretisation: 1 is first-order faces and a forward Euler step, 2 is
    limited MUSCL faces and the two-stage SSP step.  It lives here with the
    march's other settings because the march and the reconstruction read it
    together, and no run can pick them apart."""
    t_final: float
    cfl: float = 0.8
    steady_drop: Optional[float] = None   # stop when the density residual
    # falls by this factor from its value at the first step
    order: int = 1

    def __post_init__(self):
        check_t_final(self.t_final)
        check_cfl(self.cfl)
        check_steady_drop(self.steady_drop)
        # an integer: a float 2.0 would equal 2 here and fail in 2D later
        if not (isinstance(self.order, (int, np.integer))
                and self.order in (1, 2)):
            raise ValueError("order must be 1 or 2")


@dataclass
class StepLog:
    steps: int = 0
    t: float = 0.0


class SolverBlowUp(RuntimeError):
    """The run produced a non-physical state: a non-positive or non-finite
    density or pressure in a cell, or a reconstructed face value that is
    non-finite or has a non-positive density or pressure.  Every
    registered 1D case completes at first order with both schemes; the blast
    case at second order raises this for both, at the same step and cell,
    on a non-positive reconstructed pressure."""

    def __init__(self, scheme, step, cell, cause):
        super().__init__(
            f"{scheme} blew up at step {step}, cell {cell}: {cause}")
        self.scheme = scheme
        self.step = step
        self.cell = cell


def compute_dt(rho, u, p, gas: GasModel, dx: float, cfl: float) -> float:
    a = np.multiply(gas.gamma, p)        # a = sqrt(gamma p / rho), in place
    a /= rho
    np.sqrt(a, out=a)
    a += np.abs(u)
    return cfl * dx / float(a.max())


# Venkatakrishnan's limiter constant K (J. Comput. Phys. 118, 1995).
LIMITER_K = 0.1


def muscl_reconstruct(q: np.ndarray, dx: float, out=None):
    """Limited face values for one variable.

    q includes one ghost value on each end; for each of the m-2 interior
    cells the pair (left-face value q_i - psi/2, right-face value
    q_i + psi/2) is returned, written into the pair of arrays out if it
    is given.  The limiter is Venkatakrishnan's (1995) with
    eps^2 = (K dx)^3, K = LIMITER_K.  2D passes grid.h, the square root of
    the mean cell area, as dx.
    """
    c = q[1:-1]
    dplus = q[2:] - c
    dminus = c - q[:-2]
    eps2 = (LIMITER_K * dx) ** 3
    # psi = ((dplus^2 + eps2) dminus + (dminus^2 + eps2) dplus)
    #       / (dplus^2 + dminus^2 + 2 eps2), in place in that order
    den = dplus ** 2
    half = den + eps2
    half *= dminus
    sq = dminus ** 2
    den += sq
    den += 2.0 * eps2
    sq += eps2
    sq *= dplus
    half += sq
    half /= den
    half *= 0.5                          # psi / 2
    if out is None:
        return c - half, c + half
    np.subtract(c, half, out=out[0])
    np.add(c, half, out=out[1])
    return out


# per-row ghost factor at a reflective wall: rho and p mirror, u flips sign
_WALL_SIGN = np.array([[1.0], [-1.0], [1.0]])


def _extend(W, ng, bc):
    """Pad the (3, n) primitive rows (rho, u, p) with ng ghost columns at
    each end per the boundary conditions."""
    bc_l, bc_r = bc
    out = np.empty((3, W.shape[1] + 2 * ng))
    out[:, ng:-ng] = W
    if bc_l is BoundaryCondition.PERIODIC:
        out[:, :ng] = W[:, -ng:]
    elif bc_l is BoundaryCondition.REFLECTIVE:
        out[:, :ng] = _WALL_SIGN * W[:, ng - 1::-1]
    else:
        out[:, :ng] = W[:, :1]
    if bc_r is BoundaryCondition.PERIODIC:
        out[:, -ng:] = W[:, :ng]
    elif bc_r is BoundaryCondition.REFLECTIVE:
        out[:, -ng:] = _WALL_SIGN * W[:, :-ng - 1:-1]
    else:
        out[:, -ng:] = W[:, -1:]
    return out


def _residual(W, scheme, bc, order, dx, gas):
    """-dF/dx for the (3, n) primitive cell array W."""
    if order == 1:
        We = _extend(W, 1, bc)
        L, R = We[:, :-1], We[:, 1:]
    else:
        # muscl_reconstruct slices axis 0, so it takes the cells as rows
        lo, hi = muscl_reconstruct(_extend(W, 2, bc).T, dx)
        # face j sits between extended cells j+1 and j+2
        L, R = hi[:-1].T, lo[1:].T
        # limited face states can lose positivity; reject them as cells are.
        # The scan tests one stacked copy; the flux reads the views faster.
        check_faces(np.concatenate((L, R)).reshape(2, 3, -1))
    F = interface_flux_batch(scheme, L[0], L[1], L[2], R[0], R[1], R[2],
                             gas.gamma)
    return (F[:, :-1] - F[:, 1:]) / dx


def march(U, to_prim, dt_fn, residual_fn, controls, label):
    """Time-step policy shared by the 1D and 2D solvers.  Returns (U, StepLog).

    to_prim(U) recovers the primitives once per stage; the first stage's
    serve both dt_fn(W) and residual_fn(W).  At controls.order 1 it takes
    a forward Euler step, at 2 the two-stage SSP Runge-Kutta step.  dt is
    clamped to land on controls.t_final, and at most MAX_STEPS are taken.
    With controls.steady_drop set, the march stops once the L2 norm of the
    first-stage density residual has fallen by that factor from its value
    at the first step.  No callback takes the step: the march alone wraps
    a NonPhysicalStateError in SolverBlowUp(label, step, cell).

    residual_fn(W) may return W itself, refilled with the residual, or a
    new array; the step overwrites it either way, so to_prim may hand
    every stage one buffer.  The march takes its own copy of U, and at
    order 2 one buffer for U1, and updates both in place: order 1 as
    U += dt R, order 2 in the order of U1 = U + dt R and
    U = 0.5 U + 0.5 (U1 + dt R1).  IEEE addition commutes, so U += dt R
    rounds as U1 = U + dt R does.
    """
    order = controls.order
    U = np.array(U, dtype=float)
    U1 = None if order == 1 else np.empty_like(U)
    log = StepLog()
    steady_drop = controls.steady_drop
    res0 = None
    while log.t < controls.t_final and log.steps < MAX_STEPS:
        try:
            W = to_prim(U)
            dt = min(dt_fn(W), controls.t_final - log.t)
            R = residual_fn(W)
            if steady_drop is not None:
                res = float(np.sqrt(np.sum(R[0] ** 2)))
            if order == 1:
                R *= dt
                U += R
            else:
                np.multiply(R, dt, out=U1)   # U1 = U + dt R
                U1 += U
                R1 = residual_fn(to_prim(U1))
                R1 *= dt                 # U = 0.5 U + 0.5 (U1 + dt R1)
                R1 += U1
                R1 *= 0.5
                U *= 0.5
                U += R1
        except NonPhysicalStateError as err:
            raise SolverBlowUp(label, log.steps, err.cell, err) from err
        log.steps += 1
        log.t += dt
        if steady_drop is not None:
            if res0 is None:
                res0 = res
            elif res <= res0 / steady_drop:
                break
    return U, log


def advance(U: np.ndarray, grid: Grid1D, scheme: SchemeKind, bc,
            controls: TimeControls, gas: GasModel):
    """March U (3, n_cells) to controls.t_final.  Returns (U, StepLog).

    Raises SolverBlowUp when a non-physical state appears anywhere.
    """
    dx = grid.dx
    return march(
        U,
        lambda U: cons_to_prim_arrays(U, gas.gamma),
        lambda W: compute_dt(*W, gas, dx, controls.cfl),
        lambda W: _residual(W, scheme, bc, controls.order, dx, gas),
        controls, scheme.value)


def initialize(grid: Grid1D, init_fn, gas: GasModel):
    """Cell-centered conserved array from a (rho, u, p) = init_fn(x) field."""
    return prim_to_cons_arrays(
        [np.broadcast_to(np.asarray(q, dtype=float), (grid.n_cells,))
         for q in init_fn(grid.centers())], gas.gamma)
