"""1D finite-volume driver: uniform grid, ghost-cell boundary conditions,
CFL time stepping, first order or limited second order in space.

Second order uses Venkatakrishnan-limited linear reconstruction of the
primitive variables and a two-stage SSP time integration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .fds1d import SchemeKind, interface_flux_batch
from .state import GasModel, NonPhysicalStateError, cons_to_prim_arrays, \
    prim_to_cons_arrays


class BoundaryCondition(enum.Enum):
    TRANSMISSIVE = "transmissive"
    REFLECTIVE = "reflective"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("need at least 4 cells")
        if not self.x_max > self.x_min:
            raise ValueError("empty domain")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self):
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class TimeControls:
    t_final: float
    cfl: float = 0.8
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")


@dataclass(frozen=True)
class ReconstructionConfig:
    order: int = 1
    limiter_k: float = 0.1

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.order == 2 and not self.limiter_k > 0.0:
            raise ValueError("limiter constant must be positive")


@dataclass
class StepLog:
    steps: int = 0
    t: float = 0.0
    dt_min: float = field(default=np.inf)


class SolverBlowUp(RuntimeError):
    """The run produced a non-physical state (a non-positive or non-finite
    density or pressure, in a cell or a reconstructed face value).  Every
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
    a = np.sqrt(gas.gamma * p / rho)
    return cfl * dx / float(np.max(np.abs(u) + a))


def muscl_reconstruct(q: np.ndarray, dx: float, k: float):
    """Limited face values for one variable.

    q includes one ghost value on each end; for each of the m-2 interior
    cells the pair (left-face value q_i - psi/2, right-face value
    q_i + psi/2) is returned.
    """
    dplus = q[2:] - q[1:-1]
    dminus = q[1:-1] - q[:-2]
    eps2 = (k * dx) ** 3
    psi = ((dplus ** 2 + eps2) * dminus + (dminus ** 2 + eps2) * dplus) \
        / (dplus ** 2 + dminus ** 2 + 2.0 * eps2)
    return q[1:-1] - 0.5 * psi, q[1:-1] + 0.5 * psi


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


def _residual(W, scheme, bc, recon, dx, gas, step):
    """-dF/dx for the (3, n) primitive cell array W."""
    if recon.order == 1:
        We = _extend(W, 1, bc)
        L, R = We[:, :-1], We[:, 1:]
    else:
        # muscl_reconstruct slices axis 0, so it takes the cells as rows
        lo, hi = muscl_reconstruct(_extend(W, 2, bc).T, dx,
                                   recon.limiter_k)
        # face j sits between extended cells j+1 and j+2
        L, R = hi[:-1].T, lo[1:].T
        # limited face states can momentarily lose positivity only if the
        # underlying cells already did; reject them the same way.  The rows
        # are scanned in the order rho_L, p_L, rho_R, p_R.
        Q = np.concatenate((L[::2], R[::2]))
        ok = (Q > 0.0) & (Q < np.inf)
        if not ok.all():
            row, i = divmod(int(np.argmin(ok)), Q.shape[1])
            name = ("rho", "p")[row % 2]
            raise NonPhysicalStateError(
                f"reconstructed {name} not positive", cell=i, step=step)
    F = interface_flux_batch(scheme, L[0], L[1], L[2], R[0], R[1], R[2],
                             gas.gamma)
    return (F[:, :-1] - F[:, 1:]) / dx


def march(U, to_prim, dt_fn, residual_fn, controls, order, label,
          steady_drop=None):
    """Time-step policy shared by the 1D and 2D solvers.  Returns (U, StepLog).

    to_prim(U, step) recovers the primitives once per stage; the first
    stage's serve both dt_fn(W) and residual_fn(W, step).  Order 1 takes a
    forward Euler step, order 2 the two-stage SSP Runge-Kutta step.  dt is
    clamped to land on controls.t_final.  With steady_drop set, the march
    stops once the L2 norm of the first-stage density residual has fallen
    by that factor from its value at the first step.  A NonPhysicalStateError
    anywhere becomes SolverBlowUp(label, step, cell).
    """
    U = np.array(U, dtype=float)
    log = StepLog()
    res0 = None
    while log.t < controls.t_final and log.steps < controls.max_steps:
        step = log.steps
        try:
            W = to_prim(U, step)
            dt = min(dt_fn(W), controls.t_final - log.t)
            R = residual_fn(W, step)
            U1 = U + dt * R
            if order == 1:
                U = U1
            else:
                U = 0.5 * U + 0.5 * (
                    U1 + dt * residual_fn(to_prim(U1, step), step))
        except NonPhysicalStateError as err:
            raise SolverBlowUp(label, step, err.cell, err) from err
        log.steps += 1
        log.t += dt
        log.dt_min = min(log.dt_min, dt)
        if steady_drop is not None:
            res = float(np.sqrt(np.sum(R[0] ** 2)))
            if res0 is None:
                res0 = res
            elif res <= res0 / steady_drop:
                break
    return U, log


def advance(U: np.ndarray, grid: Grid1D, scheme: SchemeKind,
            recon: ReconstructionConfig, bc, controls: TimeControls,
            gas: GasModel):
    """March U (3, n_cells) to controls.t_final.  Returns (U, StepLog).

    Raises SolverBlowUp when a non-physical state appears anywhere.
    """
    dx = grid.dx
    return march(
        U,
        lambda U, step: np.array(cons_to_prim_arrays(U, gas.gamma,
                                                     step=step)),
        lambda W: compute_dt(*W, gas, dx, controls.cfl),
        lambda W, step: _residual(W, scheme, bc, recon, dx, gas, step),
        controls, recon.order, scheme.value)


def initialize(grid: Grid1D, init_fn, gas: GasModel):
    """Cell-centered conserved array from a (rho, u, p) = init_fn(x) field."""
    rho, u, p = init_fn(grid.centers())
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (grid.n_cells,))
    u = np.broadcast_to(np.asarray(u, dtype=float), (grid.n_cells,))
    p = np.broadcast_to(np.asarray(p, dtype=float), (grid.n_cells,))
    return prim_to_cons_arrays(rho, u, p, gas.gamma)
