"""Property checks of the splitting algebra, the exact Riemann oracle and
1D conservation, each returned as a named record.

Each suite of SUITES is a function of a seed that returns `Check` records.
`cpsfds verify` prints them, and acceptance criteria 1 and 2 assert on
those of `algebra`.  The properties are those of Liou & Steffen (JCP 107,
1993), Zha & Bilgen (IJNMF 17, 1993) and Toro & Vazquez-Cendon (Computers &
Fluids 70, 2012). The three split fluxes add up to the Euler flux, and
every convection Jacobian has the stated Jordan form, whatever the free
constants of its generalized eigenvector. Those constants leave no trace
in the ZBS or TVS flux, in 1D or through a 2D face.  `algebra` evaluates
each record on stacks of states, with no loop over its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bench1d, euler2d, exact_riemann, fds1d, splittings
from .fds1d import SchemeKind
from .solver1d import BoundaryCondition, Grid1D, TimeControls, advance
from .splittings import FaceGeometry, SplittingKind
from .state import GasModel, Prim2D, PrimitiveState, cons_to_prim_arrays, \
    physical_flux, prim_to_cons_arrays

GAS = GasModel(1.4)
# random states (algebra) or state pairs (oracle) per suite; the
# finite-difference Jacobians are taken at the first FD_SAMPLES states
SAMPLES = 1000
FD_SAMPLES = 100
# x1 of the generalized eigenvectors, with x3 = 2 x1; (x1, xt, x4) in 2D
FREE_PARAMETERS = (-3.0, 0.7)
FREE_PARAMETERS_2D = ((-3.0, 0.5, 2.0), (0.7, -1.3, -0.4))
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


def _dev(a, b, axes=-1):
    """Max-abs difference of each member of two stacks of vectors, or of
    matrices with axes=(-2, -1)."""
    return np.max(np.abs(a - b), axis=axes)


def _size(a, axes=-1):
    return np.maximum(np.max(np.abs(a), axis=axes), 1.0)


def _apply(M, x):
    """M x for each member of a stack of matrices and vectors."""
    return (M @ x[..., None])[..., 0]


def _draw(rng, state, low, high, shape):
    """A state of type state, or a stack of them of the given shape, drawn
    in the order of single draws; rho and p, the first and the last field,
    are 10 to a uniform power."""
    q = np.moveaxis(rng.uniform(low, high, (*(shape or ()), len(low))),
                    -1, 0)
    # float_power rounds like Python's 10.0 ** x, which np.power need not
    q[0], q[-1] = np.float_power(10.0, q[0]), np.float_power(10.0, q[-1])
    return state(*(map(float, q) if shape is None else q))


def random_primitive(rng, shape=None) -> PrimitiveState:
    """A physical state with wide dynamic range: rho in 10^[-2, 2],
    u in [-50, 50], p in 10^[-2, 4]."""
    return _draw(rng, PrimitiveState, (-2.0, -50.0, -2.0), (2.0, 50.0, 4.0),
                 shape)


def random_state_2d(rng, shape=None) -> Prim2D:
    """rho in 10^[-1.5, 1.5], u, v in [-20, 20], p in 10^[-1.5, 3]."""
    return _draw(rng, Prim2D, (-1.5, -20.0, -20.0, -1.5),
                 (1.5, 20.0, 20.0, 3.0), shape)


def random_normal(rng, shape=None) -> FaceGeometry:
    """A unit face normal at a uniform angle, with ds = 1."""
    phi = rng.uniform(0.0, 2.0 * math.pi, shape)
    return FaceGeometry(np.cos(phi), np.sin(phi), 1.0)


def _pairs(draw, rng):
    """SAMPLES state pairs (wL, wR) as two stacks, drawn pair by pair."""
    w = draw(rng, (SAMPLES, 2))
    return [type(w)(*(q[:, k] for q in w)) for k in (0, 1)]


def wave_scale(es, dU, speed):
    """Largest entry of |R| |speed R^-1 dU| for the basis R of es: the size
    of the wave terms of R |Lambda| R^-1 dU, which its rounding is relative
    to, with |Lambda| bounded by speed.  One value per member of a stack."""
    alpha = np.linalg.solve(es.vectors, dU[..., None])[..., 0]
    return np.max(_apply(np.abs(es.vectors), np.abs(
        np.asarray(speed)[..., None] * alpha)), axis=-1)


def _flux_error(flux, FL, FR, conv, press, dU, speeds):
    """Deviation of flux from 0.5 (F_L + F_R - D_c - D_p), the upwind
    dissipations D of the eigensystems conv and press at the face state:
    the paper's claim that the generalized eigenvectors do not reach the
    flux.  Relative to the largest of |F_L|, |F_R| and the wave terms of
    each D, whose |Lambda| is bounded by the speeds of conv and press."""
    want = 0.5 * (FL + FR - splittings.upwind_dissipation(conv, dU)
                  - splittings.upwind_dissipation(press, dU))
    return _dev(flux, want) / np.max([
        np.max(np.abs(FL), axis=-1), np.max(np.abs(FR), axis=-1),
        *(wave_scale(es, dU, v) for es, v in zip((conv, press), speeds))],
        axis=0)


def _fd_jacobians(split, w):
    """Central-difference Jacobians, in conserved variables, of the
    convection and pressure parts of split(w), at each state of the stack
    w (k,).  split takes a stack (k, n), where member (i, j) is state i
    with its U_j perturbed."""
    g = GAS.gamma
    U0 = prim_to_cons_arrays(w, g).T
    n = U0.shape[-1]
    _, *vel, p = w
    # the pressure response to a U_j perturbation is (gamma-1) c_j h;
    # cap h so strongly supersonic low-pressure states stay physical
    sens = np.stack([0.5 * sum(q * q for q in vel), *map(np.abs, vel),
                     np.ones_like(p)], axis=-1) + 1e-30
    h = np.minimum(1e-6 * np.maximum(np.abs(U0), 1.0),
                   0.2 * p[:, None] / ((g - 1.0) * sens))
    plus, minus = (split(type(w)(*cons_to_prim_arrays(np.moveaxis(
        U0[:, None, :] + s * h[..., None] * np.eye(n), -1, 0), g)))
        for s in (1.0, -1.0))
    return [np.swapaxes(a - b, -1, -2) / (2.0 * h[:, None, :])
            for a, b in ((plus.convection, minus.convection),
                         (plus.pressure, minus.pressure))]


def algebra(seed: int) -> list[Check]:
    """The splitting algebra on SAMPLES random states wL, each with a
    random partner wR, in 1D and then at 2D faces of random normal.
    Residuals are relative to max(|F|, 1) or to the wave terms of
    wave_scale, so that states of any scale compare."""
    rng = np.random.default_rng(seed)
    g = GAS.gamma
    wL, wR = _pairs(random_primitive, rng)
    FL, FR = physical_flux(wL, GAS).T, physical_flux(wR, GAS).T
    wb = splittings.face_average(wL, wR)
    drho, du, dp = wR.rho - wL.rho, wR.u - wL.u, wR.p - wL.p
    # the jump written through the face averages
    dU_avg = np.stack([drho, wb.rho * du + wb.u * drho,
                       dp / (g - 1.0) + 0.5 * wb.u ** 2 * drho
                       + wb.rho * wb.u * du], axis=-1)
    dU = (prim_to_cons_arrays(wR, g) - prim_to_cons_arrays(wL, g)).T
    speed = np.abs(wb.u) + np.sqrt(wb.u ** 2 + 4.0 * g * wb.p / wb.rho)
    w_fd = PrimitiveState(*(q[:FD_SAMPLES] for q in wL))
    err = {k: [] for k in ("split", "fd", "jordan", "free", "flux",
                           "strengths", "uprop")}
    for kind in SplittingKind:
        err["split"].append(_dev(splittings.split_flux(kind, wL, GAS).total,
                                 FL) / _size(FL))
        A = splittings.convection_jacobian(kind, wL, GAS)
        exact = (A[:FD_SAMPLES], splittings.pressure_jacobian(kind, w_fd,
                                                              GAS))
        num = _fd_jacobians(lambda w: splittings.split_flux(kind, w, GAS),
                            w_fd)
        err["fd"] += [_dev(J, d, (-2, -1)) / _size(J, (-2, -1))
                      for J, d in zip(exact, num)]
        # x1 = 0 is the default basis; the others are its free variants
        for x1 in (0.0, *FREE_PARAMETERS):
            es = splittings.convection_eigensystem(kind, wL, GAS, x1=x1,
                                                   x3=2.0 * x1)
            err["free" if x1 else "jordan"].append(
                splittings.verify_jordan(A, es) / _size(A, (-2, -1)))
        scheme = _SCHEMES.get(kind)
        if scheme is None:
            continue
        press = splittings.pressure_eigensystem(kind, wb, GAS)
        flux = fds1d.interface_flux_batch(scheme, *wL, *wR, g).T
        err["flux"] += [_flux_error(
            flux, FL, FR, splittings.convection_eigensystem(
                kind, wb, GAS, x1=x1, x3=2.0 * x1), press, dU,
            (np.abs(wb.u), speed)) for x1 in FREE_PARAMETERS]
        # the strengths alpha = R^-1 dU rebuild the averaged jump, and
        # the pressure parts have Roe's U property: their flux jump is
        # R Lambda alpha
        R = press.vectors
        alpha = np.linalg.solve(R, dU[..., None])[..., 0]
        err["strengths"].append(_dev(_apply(R, alpha), dU_avg) / np.maximum(
            wave_scale(press, dU, 1.0), _size(dU_avg)))
        jump = splittings.split_flux(kind, wR, GAS).pressure \
            - splittings.split_flux(kind, wL, GAS).pressure
        err["uprop"].append(_dev(_apply(R, press.eigenvalues * alpha), jump)
                            / wave_scale(press, dU, speed))

    wl, wr = bench1d.steady_shock_states(SHOCK_MACHS, GAS)
    shock = np.abs(bench1d.error3(wl, wr, GAS)) / np.maximum(
        prim_to_cons_arrays(wl, g)[2], prim_to_cons_arrays(wr, g)[2])
    return [
        _check("splitting consistency", err["split"], 1e-12, SAMPLES),
        _check("finite-difference Jacobians", err["fd"], 2e-5,
               w_fd.rho.size),
        _check("Jordan residuals", err["jordan"], 1e-10, SAMPLES),
        _check("free-parameter invariance", err["free"], 1e-11, SAMPLES),
        _check("flux equals its eigenstructure", err["flux"], 1e-12,
               SAMPLES),
        _check("wave strengths", err["strengths"], 1e-12, SAMPLES),
        _check("pressure-part U property", err["uprop"], 1e-12, SAMPLES),
        _check("steady-shock jump identity", shock, 1e-12, len(SHOCK_MACHS)),
        *_algebra_2d(rng),
    ]


def _algebra_2d(rng) -> list[Check]:
    """The face split of Zha-Bilgen in 2D, on SAMPLES random state pairs,
    each at a face of random normal and length."""
    g = GAS.gamma
    wL, wR = _pairs(random_state_2d, rng)
    geom = random_normal(rng, SAMPLES)
    nx, ny, ds = geom.n_x, geom.n_y, rng.uniform(0.1, 10.0, SAMPLES)
    up = wL.u * nx + wL.v * ny
    rE = wL.p / (g - 1.0) + 0.5 * wL.rho * (wL.u ** 2 + wL.v ** 2)
    F = np.stack([wL.rho * up, wL.rho * wL.u * up + wL.p * nx,
                  wL.rho * wL.v * up + wL.p * ny, (rE + wL.p) * up], axis=-1)
    split = splittings.split_flux_2d(wL, geom, GAS)
    A = splittings.convection_jacobian_2d(wL, geom, GAS)
    B = splittings.pressure_jacobian_2d(wL, geom, GAS)
    w_fd = Prim2D(*(q[:FD_SAMPLES] for q in wL))
    fd_geom = FaceGeometry(nx[:FD_SAMPLES, None], ny[:FD_SAMPLES, None], 1.0)
    num = _fd_jacobians(
        lambda w: splittings.split_flux_2d(w, fd_geom, GAS), w_fd)
    fd = [_dev(J[:FD_SAMPLES], d, (-2, -1)) / _size(J[:FD_SAMPLES], (-2, -1))
          for J, d in zip((A, B), num)]
    # () is the default basis; the others are its free variants
    jordan, *free = (
        splittings.verify_jordan(A, splittings.convection_eigensystem_2d(
            wL, geom, GAS, *x)) / _size(A, (-2, -1))
        for x in ((), *FREE_PARAMETERS_2D))
    try:
        signature = np.any(splittings.jordan_block_signature(A, up)
                           != [2, 1, 1, 0], axis=-1)
    except splittings.RankTestError:
        signature = [math.inf]      # a rank too close to call fails it
    press = splittings.pressure_eigensystem_2d(wL, geom, GAS)
    eigen = _dev(B @ press.vectors,
                 press.vectors * press.eigenvalues[..., None, :], (-2, -1))

    # the kernel, per unit face length, at the face state
    wb = splittings.face_average(wL, wR)
    dU = (prim_to_cons_arrays(wR, g) - prim_to_cons_arrays(wL, g)).T
    kernel = euler2d.interface_flux_2d(wL, wR, FaceGeometry(nx, ny, ds),
                                       GAS).T / ds[:, None]
    press_b = splittings.pressure_eigensystem_2d(wb, geom, GAS)
    up_b = np.abs(wb.u * nx + wb.v * ny)
    flux = [_flux_error(
        kernel, split.total, splittings.split_flux_2d(wR, geom, GAS).total,
        splittings.convection_eigensystem_2d(wb, geom, GAS, *x), press_b, dU,
        (up_b, up_b + np.sqrt(g * wb.p / wb.rho))) for x in FREE_PARAMETERS_2D]
    return [
        _check("2D splitting consistency", _dev(split.total, F)
               / np.max(np.abs(F), axis=-1), 1e-12, SAMPLES),
        _check("2D finite-difference Jacobians", fd, 2e-5, w_fd.rho.size),
        _check("2D Jordan residuals", jordan, 1e-10, SAMPLES),
        _check("2D free-parameter invariance", free, 1e-11, SAMPLES),
        _check("2D Jordan signature [2, 1, 1]", signature, 0.0, SAMPLES),
        _check("2D pressure eigen relations", eigen / _size(B, (-2, -1)),
               1e-10, SAMPLES),
        _check("2D flux equals its eigenstructure", flux, 1e-12, SAMPLES),
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
        U, _ = advance(U0, grid, scheme, periodic, TimeControls(0.1), GAS)
        drift.append(np.abs(U.sum(axis=1) - U0.sum(axis=1))
                     / np.abs(U0).sum(axis=1))
    uniform = prim_to_cons_arrays((np.full(64, 1.3), np.full(64, 0.7),
                                   np.full(64, 2.1)), GAS.gamma)
    U, _ = advance(uniform, grid, SchemeKind.TVS_FDS, periodic,
                   TimeControls(0.1, order=2), GAS)
    return [_check("periodic conservation", drift, 1e-12, len(drift)),
            _check("uniform-state preservation", np.abs(U - uniform),
                   1e-13, 1)]


SUITES = {"algebra": algebra, "oracle": oracle, "conservation": conservation}
