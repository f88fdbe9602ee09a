"""1D benchmark cases, error norms, convergence orders and the steady-shock
jump diagnostic.

Every case is registered with the exact parameters used for the reference
results; references are either the exact Riemann solution, the translated
initial profile (smooth advection), or absent (blast wave, shock-entropy).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import exact_riemann
from .fds1d import SchemeKind
from .solver1d import BoundaryCondition, Grid1D, ReconstructionConfig, \
    TimeControls, advance, check_t_final, initialize
from .splittings import face_average
from .state import GasModel, PrimitiveState, cons_to_prim_arrays, \
    prim_to_cons_arrays


class ReferenceKind(enum.Enum):
    EXACT_RIEMANN = "exact-riemann"
    TRANSLATED_SMOOTH = "translated-smooth"
    NONE = "none"


@dataclass(frozen=True)
class CaseSpec:
    name: str
    x_min: float
    x_max: float
    t_final: float
    n_cells: int
    bc: tuple
    reference: ReferenceKind
    left: Optional[PrimitiveState] = None
    right: Optional[PrimitiveState] = None
    x0: Optional[float] = None
    init_fn: Optional[Callable] = None    # overrides the two-state setup
    cfl: float = 0.8

    def __post_init__(self):
        check_t_final(self.t_final)

    def initial_profile(self, x):
        if self.init_fn is not None:
            return self.init_fn(x)
        return tuple(np.where(x < self.x0, a, b)
                     for a, b in zip(self.left, self.right))


@dataclass(frozen=True)
class ErrorReport:
    l1: float
    l2: float
    linf: float


def _smooth_profile(x, t=0.0):
    rho = 1.0 + 0.2 * np.sin(math.pi * (x - 0.1 * t))
    return rho, np.full_like(x, 0.1), np.full_like(x, 0.5)


def _shock_entropy_profile(x):
    wavy = 1.0 + 0.2 * np.sin(5.0 * math.pi * x)
    behind = x < -0.8
    return (np.where(behind, 3.857143, wavy),
            np.where(behind, 2.629369, 0.0),
            np.where(behind, 10.3333, 1.0))


def _blast_profile(x):
    p = np.where(x < 0.1, 1000.0, np.where(x > 0.9, 100.0, 0.01))
    return np.ones_like(x), np.zeros_like(x), p


def case_registry():
    t = (BoundaryCondition.TRANSMISSIVE,) * 2
    return [
        CaseSpec("smooth", 0.0, 2.0, 0.5, 40,
                 (BoundaryCondition.PERIODIC,) * 2,
                 ReferenceKind.TRANSLATED_SMOOTH, init_fn=_smooth_profile),
        CaseSpec("sod", -10.0, 10.0, 0.01, 100, t,
                 ReferenceKind.EXACT_RIEMANN,
                 PrimitiveState(1.0, 0.0, 1e5),
                 PrimitiveState(0.125, 0.0, 1e4), 0.0),
        CaseSpec("lax", 0.0, 1.0, 0.15, 100, t, ReferenceKind.EXACT_RIEMANN,
                 PrimitiveState(0.445, 0.698, 3.528),
                 PrimitiveState(0.5, 0.0, 0.571), 0.5),
        CaseSpec("sonic", 0.0, 1.0, 0.2, 100, t, ReferenceKind.EXACT_RIEMANN,
                 PrimitiveState(1.0, 0.75, 1.0),
                 PrimitiveState(0.125, 0.0, 0.1), 0.3),
        CaseSpec("strong-shock", 0.0, 1.0, 0.012, 100, t,
                 ReferenceKind.EXACT_RIEMANN,
                 PrimitiveState(1.0, 0.0, 1000.0),
                 PrimitiveState(1.0, 0.0, 0.01), 0.5),
        CaseSpec("contact", 0.0, 1.0, 1.0, 100, t,
                 ReferenceKind.EXACT_RIEMANN,
                 PrimitiveState(1.4, 0.0, 1.0),
                 PrimitiveState(1.0, 0.0, 1.0), 0.5),
        CaseSpec("slow-contact", 0.0, 1.0, 0.012, 100, t,
                 ReferenceKind.EXACT_RIEMANN,
                 PrimitiveState(1.0, -19.59745, 1000.0),
                 PrimitiveState(1.0, -19.59745, 0.01), 0.8),
        CaseSpec("slow-shock", 0.0, 1.0, 4.0, 100, t,
                 ReferenceKind.EXACT_RIEMANN,
                 PrimitiveState(*cons_to_prim_arrays(
                     (3.86, -3.1266, 27.0913), GasModel().gamma).tolist()),
                 PrimitiveState(*cons_to_prim_arrays(
                     (1.0, -3.44, 8.4168), GasModel().gamma).tolist()), 0.5),
        CaseSpec("mach3", 0.0, 1.0, 0.1, 100, t,
                 ReferenceKind.EXACT_RIEMANN,
                 PrimitiveState(3.857, 0.92, 10.333),
                 PrimitiveState(1.0, 3.55, 1.0), 0.4),
        CaseSpec("blast", 0.0, 1.0, 0.038, 3000,
                 (BoundaryCondition.REFLECTIVE,) * 2,
                 ReferenceKind.NONE, init_fn=_blast_profile, cfl=0.5),
        CaseSpec("shock-entropy", -1.0, 1.0, 0.47, 800, t,
                 ReferenceKind.NONE, init_fn=_shock_entropy_profile),
    ]


def get_case(name: str) -> CaseSpec:
    for case in case_registry():
        if case.name == name:
            return case
    raise KeyError(f"unknown 1D case {name!r}")


def reference_profile(case: CaseSpec, x, t, gas: GasModel):
    if case.reference is ReferenceKind.TRANSLATED_SMOOTH:
        return _smooth_profile(np.asarray(x), t)
    if case.reference is ReferenceKind.EXACT_RIEMANN:
        return exact_riemann.sample_profile(case.left, case.right, gas,
                                            np.asarray(x), t, x0=case.x0)
    raise ValueError(f"case {case.name!r} has no reference solution")


def error_norms(numerical, reference, dx: float) -> ErrorReport:
    """L1 = sum|e| dx, L2 = sqrt(sum e^2 dx), Linf = max|e|."""
    e = np.abs(np.asarray(numerical) - np.asarray(reference))
    return ErrorReport(float(np.sum(e) * dx),
                       float(np.sqrt(np.sum(e ** 2) * dx)),
                       float(np.max(e)))


def eoc(e1: float, e2: float, h1: float, h2: float) -> float:
    """Observed order from errors e1, e2 at spacings h1 > h2."""
    if e1 <= 0.0 or e2 <= 0.0:
        raise ValueError("errors must be positive to estimate an order")
    return (math.log(e1) - math.log(e2)) / (math.log(h1) - math.log(h2))


@dataclass
class CaseResult:
    case: CaseSpec
    x: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    p: np.ndarray
    steps: int
    errors: Optional[ErrorReport] = None


def run_case(case: CaseSpec, scheme: SchemeKind, order: int = 1,
             n_cells: Optional[int] = None, cfl: Optional[float] = None,
             t_final: Optional[float] = None,
             gas: GasModel = GasModel(1.4)) -> CaseResult:
    grid = Grid1D(case.x_min, case.x_max,
                  case.n_cells if n_cells is None else n_cells)
    U = initialize(grid, case.initial_profile, gas)
    controls = TimeControls(t_final if t_final is not None else case.t_final,
                            cfl if cfl is not None else case.cfl)
    recon = ReconstructionConfig(order=order)
    U, log = advance(U, grid, scheme, recon, case.bc, controls, gas)
    rho, u, p = cons_to_prim_arrays(U, gas.gamma)
    x = grid.centers()
    errors = None
    if case.reference is not ReferenceKind.NONE:
        ref_rho, _, _ = reference_profile(case, x, controls.t_final, gas)
        errors = error_norms(rho, ref_rho, grid.dx)
    return CaseResult(case, x, rho, u, p, log.steps, errors)


def convergence_table(case: CaseSpec, scheme: SchemeKind, cell_counts,
                      order: int = 1, gas: GasModel = GasModel(1.4)):
    """Rows of (n_cells, ErrorReport, eoc vs previous row or None).  Each
    eoc is that of the L1, L2 and Linf error, or None where the two errors
    are not both positive (a case that every grid solves exactly)."""
    rows = []
    prev = None
    for n in cell_counts:
        res = run_case(case, scheme, order=order, n_cells=n, gas=gas)
        h = (case.x_max - case.x_min) / n
        orders = None
        if prev is not None:
            (pn, pe, _) = prev
            ph = (case.x_max - case.x_min) / pn
            orders = tuple(
                eoc(e1, e2, ph, h) if e1 > 0.0 and e2 > 0.0 else None
                for e1, e2 in ((pe.l1, res.errors.l1),
                               (pe.l2, res.errors.l2),
                               (pe.linf, res.errors.linf)))
        prev = (n, res.errors, orders)
        rows.append(prev)
    return rows


# --------------------------------------------------------------------------
# steady-shock diagnostic

def steady_shock_states(mach: float, gas: GasModel = GasModel(1.4)):
    """Pre/post states of a stationary normal shock with unit upstream
    density and speed; upstream pressure 1/(gamma M^2) makes a = u/M."""
    if not mach > 1.0:
        raise ValueError("shock Mach number must exceed 1")
    g = gas.gamma
    m2 = mach * mach
    pl = 1.0 / (g * m2)
    wl = PrimitiveState(1.0, 1.0, pl)
    pr = pl * (2.0 * g * m2 - (g - 1.0)) / (g + 1.0)
    gr = (g + 1.0) / (g - 1.0)
    rr = (gr * pr / pl + 1.0) / (gr + pr / pl)
    ur = math.sqrt(g * (2.0 + (g - 1.0) * m2) * pr
                   / ((2.0 * g * m2 + 1.0 - g) * rr))
    return wl, PrimitiveState(rr, ur, pr)


def error3(wL: PrimitiveState, wR: PrimitiveState,
           gas: GasModel = GasModel(1.4)) -> float:
    """Residual of the averaged-jump identity for the energy component:
    d(rho E) - dp/(gamma-1) - (u_bar^2 d rho + 2 rho_bar u_bar du)/2."""
    wb = face_average(wL, wR)
    dU = (prim_to_cons_arrays(wR, gas.gamma)
          - prim_to_cons_arrays(wL, gas.gamma))
    return float(dU[2] - (wR.p - wL.p) / (gas.gamma - 1.0)
                 - 0.5 * (wb.u * wb.u * dU[0]
                          + 2.0 * wb.rho * wb.u * (wR.u - wL.u)))


def error3_sweep(machs, gas: GasModel = GasModel(1.4)):
    """Per Mach number: (M, error3 residual, density ratio across shock)."""
    out = []
    for m in machs:
        wl, wr = steady_shock_states(m, gas)
        out.append((m, error3(wl, wr, gas), wr.rho / wl.rho))
    return out


# --------------------------------------------------------------------------
# entropy-satisfaction proxy for the sonic-point case

def fan_jump_ratio(rho, x, fan_lo, fan_hi) -> float:
    """Largest ratio of a cell-to-cell density jump to the average of its
    neighboring jumps, over cells inside (fan_lo, fan_hi).

    An expansion shock parked at the sonic point shows up as one jump much
    larger than its neighbors; smooth fans keep this ratio small.
    """
    idx = np.where((x > fan_lo) & (x < fan_hi))[0]
    if idx.size < 4:
        raise ValueError("fan window too narrow for the jump diagnostic")
    jumps = np.abs(np.diff(rho[idx[0]:idx[-1] + 1]))
    worst = 0.0
    for k in range(1, jumps.size - 1):
        neighbors = 0.5 * (jumps[k - 1] + jumps[k + 1])
        if neighbors > 0.0:
            worst = max(worst, jumps[k] / neighbors)
    return worst
