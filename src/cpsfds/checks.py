"""Property checks of the splitting algebra, the exact Riemann oracle and
1D conservation, each returned as a named record.

Each suite of SUITES is a function of a seed that returns `Check` records.
`cpsfds verify` prints them, and acceptance criteria 1 and 2 assert on
those of `algebra`.  The properties are those of Liou & Steffen (JCP 107,
1993), Zha & Bilgen (IJNMF 17, 1993) and Toro & Vazquez-Cendon (Computers &
Fluids 70, 2012). The three split fluxes add up to the Euler flux, and
every convection Jacobian has the stated Jordan form, whatever the free
constants of its generalized eigenvector. Those constants leave no trace
in the ZBS or TVS flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bench1d, exact_riemann, fds1d, splittings
from .fds1d import SchemeKind
from .solver1d import BoundaryCondition, Grid1D, ReconstructionConfig, \
    TimeControls, advance
from .splittings import SplittingKind
from .state import GasModel, PrimitiveState, cons_to_prim_arrays, \
    physical_flux, prim_to_cons_arrays

GAS = GasModel(1.4)
# random states (algebra) or state pairs (oracle) per suite; the
# finite-difference Jacobians are taken at the first FD_SAMPLES states
SAMPLES = 1000
FD_SAMPLES = 100
# x1 of the generalized eigenvectors, with x3 = 2 x1
FREE_PARAMETERS = (-3.0, 0.7)
SHOCK_MACHS = (1.5, 2.0, 5.0, 10.0, 100.0, 1000.0)
# the scheme built on each splitting; none is built on Liou-Steffen
_SCHEMES = {SplittingKind.ZHA_BILGEN: SchemeKind.ZBS_FDS,
            SplittingKind.TORO_VAZQUEZ: SchemeKind.TVS_FDS}


@dataclass(frozen=True)
class Check:
    """The worst value of one check over its samples, and the bound that
    value must not exceed."""

    name: str
    worst: float
    bound: float
    samples: int

    @property
    def ok(self) -> bool:
        """At least one sample, and a worst value (not NaN) within the
        bound."""
        return self.samples > 0 and self.worst <= self.bound


def _check(name, values, bound, samples):
    # NaN propagates through np.max, so a NaN value fails the record
    return Check(name, float(np.max(values, initial=0.0)), bound, samples)


def _dev(a, b):
    return float(np.max(np.abs(a - b)))


def _size(a):
    return max(float(np.max(np.abs(a))), 1.0)


def random_primitive(rng) -> PrimitiveState:
    """A physical state with wide dynamic range in rho, u, p."""
    rho = 10.0 ** rng.uniform(-2.0, 2.0)
    u = rng.uniform(-50.0, 50.0)
    p = 10.0 ** rng.uniform(-2.0, 4.0)
    return PrimitiveState(rho, u, p)


def wave_scale(es, dU, speed):
    """Largest entry of |R| |speed R^-1 dU| for the basis R of es: the size
    of the wave terms of R |Lambda| R^-1 dU, which its rounding is relative
    to, with |Lambda| bounded by speed."""
    alpha = np.linalg.solve(es.vectors, dU)
    return float(np.max(np.abs(es.vectors) @ np.abs(speed * alpha)))


def _fd_jacobians(kind, w):
    """Central-difference Jacobians, in conserved variables, of the
    convection and pressure parts of the split flux of kind at w."""
    g = GAS.gamma
    U0 = prim_to_cons_arrays(w, g)
    # the pressure response to a U_j perturbation is (gamma-1) c_j h;
    # cap h so strongly supersonic low-pressure states stay physical
    sens = np.array([0.5 * w.u ** 2, abs(w.u), 1.0]) + 1e-30
    conv, press = np.empty((3, 3)), np.empty((3, 3))
    for j in range(3):
        h = min(1e-6 * max(abs(U0[j]), 1.0),
                0.2 * w.p / ((g - 1.0) * sens[j]))
        plus, minus = (
            splittings.split_flux(kind, PrimitiveState(
                *cons_to_prim_arrays(U0 + s * h * np.eye(3)[j], g)), GAS)
            for s in (1.0, -1.0))
        conv[:, j] = (plus.convection - minus.convection) / (2.0 * h)
        press[:, j] = (plus.pressure - minus.pressure) / (2.0 * h)
    return conv, press


def algebra(seed: int) -> list[Check]:
    """The splitting algebra on SAMPLES random states wL, each with a
    random partner wR.  Residuals are relative to max(|F|, 1) or to the
    wave terms of wave_scale, so that states of any scale compare."""
    rng = np.random.default_rng(seed)
    g = GAS.gamma
    err = {k: [] for k in ("split", "fd", "jordan", "free", "flux",
                           "strengths", "uprop")}
    for i in range(SAMPLES):
        wL, wR = random_primitive(rng), random_primitive(rng)
        FL, FR = physical_flux(wL, GAS), physical_flux(wR, GAS)
        wb = splittings.face_average(wL, wR)
        drho, du, dp = wR.rho - wL.rho, wR.u - wL.u, wR.p - wL.p
        # the jump written through the face averages
        dU_avg = np.array([drho, wb.rho * du + wb.u * drho,
                           dp / (g - 1.0) + 0.5 * wb.u ** 2 * drho
                           + wb.rho * wb.u * du])
        dU = prim_to_cons_arrays(wR, g) - prim_to_cons_arrays(wL, g)
        speed = abs(wb.u) + math.sqrt(wb.u ** 2 + 4.0 * g * wb.p / wb.rho)
        for kind in SplittingKind:
            err["split"].append(_dev(splittings.split_flux(kind, wL, GAS)
                                     .total, FL) / _size(FL))
            A = splittings.convection_jacobian(kind, wL, GAS)
            if i < FD_SAMPLES:
                exact = (A, splittings.pressure_jacobian(kind, wL, GAS))
                for J, num in zip(exact, _fd_jacobians(kind, wL)):
                    err["fd"].append(_dev(J, num) / _size(J))
            # x1 = 0 is the default basis; the others are its free variants
            for x1 in (0.0, *FREE_PARAMETERS):
                es = splittings.convection_eigensystem(kind, wL, GAS, x1=x1,
                                                       x3=2.0 * x1)
                err["free" if x1 else "jordan"].append(
                    splittings.verify_jordan(A, es) / _size(A))
            scheme = _SCHEMES.get(kind)
            if scheme is None:
                continue
            press = splittings.pressure_eigensystem(kind, wb, GAS)
            d_press = splittings.upwind_dissipation(press, dU)
            flux = fds1d.interface_flux(scheme, wL, wR, GAS)
            for x1 in FREE_PARAMETERS:
                # the paper's claim: the generalized eigenvectors do not
                # reach the flux, which is the dissipation assembled from
                # the eigensystems at the face state
                conv = splittings.convection_eigensystem(
                    kind, wb, GAS, x1=x1, x3=2.0 * x1)
                want = 0.5 * (FL + FR - splittings.upwind_dissipation(
                    conv, dU) - d_press)
                err["flux"].append(_dev(flux, want) / max(
                    np.max(np.abs(FL)), np.max(np.abs(FR)),
                    wave_scale(conv, dU, abs(wb.u)),
                    wave_scale(press, dU, speed)))
            # the strengths alpha = R^-1 dU rebuild the averaged jump, and
            # the pressure parts have Roe's U property: their flux jump is
            # R Lambda alpha
            R = press.vectors
            alpha = np.linalg.solve(R, dU)
            err["strengths"].append(_dev(R @ alpha, dU_avg) / max(
                wave_scale(press, dU, 1.0), _size(dU_avg)))
            jump = splittings.split_flux(kind, wR, GAS).pressure \
                - splittings.split_flux(kind, wL, GAS).pressure
            err["uprop"].append(_dev(R @ (press.eigenvalues * alpha), jump)
                                / wave_scale(press, dU, speed))

    shock = []
    for m in SHOCK_MACHS:
        wl, wr = bench1d.steady_shock_states(m, GAS)
        rho_E = max(prim_to_cons_arrays(w, g)[2] for w in (wl, wr))
        shock.append(abs(bench1d.error3(wl, wr, GAS)) / rho_E)
    return [
        _check("splitting consistency", err["split"], 1e-12, SAMPLES),
        _check("finite-difference Jacobians", err["fd"], 1e-4, FD_SAMPLES),
        _check("Jordan residuals", err["jordan"], 1e-10, SAMPLES),
        _check("free-parameter invariance", err["free"], 1e-11, SAMPLES),
        _check("flux equals its eigenstructure", err["flux"], 1e-12,
               SAMPLES),
        _check("wave strengths", err["strengths"], 1e-12, SAMPLES),
        _check("pressure-part U property", err["uprop"], 1e-12, SAMPLES),
        _check("steady-shock jump identity", shock, 1e-12, len(SHOCK_MACHS)),
    ]


def oracle(seed: int) -> list[Check]:
    """The exact star pressure zeroes the pressure function, relative to
    the larger initial pressure, on SAMPLES random state pairs.  A pair
    that opens a vacuum has no star state and is not a sample; one whose
    iteration does not converge fails the record."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(SAMPLES):
        wL, wR = random_primitive(rng), random_primitive(rng)
        try:
            star = exact_riemann.solve_star(wL, wR, GAS)
        except exact_riemann.VacuumError:
            continue
        except exact_riemann.ConvergenceError:
            residuals.append(math.inf)
            continue
        residuals.append(abs(exact_riemann.pressure_function(
            star.p_star, wL, wR, GAS)) / max(wL.p, wR.p))
    return [_check("star-state residuals", residuals, 1e-10, len(residuals))]


def conservation(seed: int) -> list[Check]:
    """A first-order run of each scheme on a periodic grid, from a smooth
    state whose density level follows the seed, keeps the totals of U
    relative to those of |U| (the momentum total is about 0).  A
    second-order TVS run keeps a uniform state."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(0.0, 1.0, 64)
    x = grid.centers()
    periodic = (BoundaryCondition.PERIODIC,) * 2
    U0 = prim_to_cons_arrays(
        (1.0 + 0.3 * np.sin(2.0 * math.pi * x) + 0.1 * rng.uniform(0, 1),
         0.5 * np.cos(2.0 * math.pi * x),
         1.0 + 0.2 * np.sin(4.0 * math.pi * x)), GAS.gamma)
    drift = []
    for scheme in SchemeKind:
        U, _ = advance(U0, grid, scheme, ReconstructionConfig(order=1),
                       periodic, TimeControls(0.1), GAS)
        drift.append(np.abs(U.sum(axis=1) - U0.sum(axis=1))
                     / np.abs(U0).sum(axis=1))
    uniform = prim_to_cons_arrays((np.full(64, 1.3), np.full(64, 0.7),
                                   np.full(64, 2.1)), GAS.gamma)
    U, _ = advance(uniform, grid, SchemeKind.TVS_FDS,
                   ReconstructionConfig(order=2), periodic,
                   TimeControls(0.1), GAS)
    return [_check("periodic conservation", drift, 1e-12, len(drift)),
            _check("uniform-state preservation", np.abs(U - uniform),
                   1e-13, 1)]


SUITES = {"algebra": algebra, "oracle": oracle, "conservation": conservation}
