"""ZBS-FDS and TVS-FDS interface fluxes.

Both schemes share the structure

    F_I = (F_L + F_R)/2 - (D_c + D_p)/2

where D_c is the convection upwind dissipation |u_bar| * dU (with dU written
through the Roe-type averages) and D_p is the characteristic pressure
dissipation sum alpha_i |lambda_i| R_i evaluated at the averaged state.  No
entropy fix is applied anywhere.

`interface_flux_batch` is the one implementation of the flux; the 1D
solver calls it on whole-grid sweeps and `interface_flux` on one-element
arrays for a single face.  `interface_averages` and the `*_pressure_strengths`
functions spell out the averaged state and the wave strengths alpha_i of a
single face; they serve as the reference that the kernel's closed form is
checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .state import GasModel, PrimitiveState


class SchemeKind(enum.Enum):
    ZBS_FDS = "zbs"
    TVS_FDS = "tvs"


@dataclass(frozen=True)
class InterfaceAverages:
    """Roe-type averages at a cell face."""

    rho_bar: float
    u_bar: float
    a2_bar: float

    @property
    def a_bar(self):
        return np.sqrt(self.a2_bar)

    @property
    def beta_bar(self):
        return np.sqrt(self.u_bar ** 2 + 4.0 * self.a2_bar)


@dataclass(frozen=True)
class WaveStrengths:
    alpha: np.ndarray


def interface_averages(wL: PrimitiveState, wR: PrimitiveState,
                       gas: GasModel) -> InterfaceAverages:
    wL.require_physical()
    wR.require_physical()
    sL, sR = np.sqrt(wL.rho), np.sqrt(wR.rho)
    u_bar = (sL * wL.u + sR * wR.u) / (sL + sR)
    rho_bar = sL * sR
    g = gas.gamma
    a2_bar = (sL * g * wL.p / wL.rho + sR * g * wR.p / wR.rho) / (sL + sR)
    return InterfaceAverages(rho_bar, u_bar, a2_bar)


def zbs_pressure_strengths(avg: InterfaceAverages, drho: float, du: float,
                           dp: float, gas: GasModel) -> WaveStrengths:
    g = gas.gamma
    acoustic = np.sqrt(g / (g - 1.0)) * dp / (2.0 * avg.a_bar)
    shear = 0.5 * avg.rho_bar * du
    return WaveStrengths(np.array([shear - acoustic, drho, shear + acoustic]))


def tvs_pressure_strengths(avg: InterfaceAverages, drho: float, du: float,
                           dp: float, gas: GasModel) -> WaveStrengths:
    beta = avg.beta_bar
    half = 0.5 * avg.rho_bar * du
    skew = avg.rho_bar * avg.u_bar * du / (2.0 * beta)
    return WaveStrengths(np.array([half + skew - dp / beta,
                                   drho,
                                   half - skew + dp / beta]))


def interface_flux(scheme: SchemeKind, wL: PrimitiveState, wR: PrimitiveState,
                   gas: GasModel) -> np.ndarray:
    """Flux across one face: `interface_flux_batch` on one-element arrays."""
    wL.require_physical()
    wR.require_physical()
    return interface_flux_batch(
        scheme, *(np.array([q]) for q in (wL.rho, wL.u, wL.p,
                                          wR.rho, wR.u, wR.p)),
        gas.gamma)[:, 0]


def interface_flux_batch(scheme: SchemeKind, rhoL, uL, pL, rhoR, uR, pR,
                         gamma: float) -> np.ndarray:
    """Vectorized interface flux over many faces; returns (3, n).

    The dissipation |u_bar| dU + sum_i alpha_i |lambda_i| R_i at the
    averaged state, folded.  With d0 = |u_bar| drho both schemes write it as

        D = (d0, t + u_bar d0, u_bar (t + u_bar d0 / 2) + e),

    where t holds the remaining momentum-row terms and e the remaining
    energy-row terms.  ZBS: lam (a1 + a3) = lam rho_bar du, and
    lam (a1 (u_bar - s) + a3 (u_bar + s))
    = u_bar lam rho_bar du + a_bar dp / sqrt(g (g - 1)).  TVS: beta > |u_bar|,
    so |lambda_1,3| = (beta -+ u_bar)/2 = l1, l3, and the energy entries of
    R_1,3 are u_bar -+ l1,3 / (g - 1).  The central flux is built from the
    mass fluxes m = rho u.
    """
    gm1 = gamma - 1.0
    sL, sR = np.sqrt(rhoL), np.sqrt(rhoR)
    wsum = sL + sR
    ub = (sL * uL + sR * uR) / wsum
    rb = sL * sR
    a2b = gamma * (pL / sL + pR / sR) / wsum
    absu = np.abs(ub)
    dp = pR - pL
    rbdu = rb * (uR - uL)
    d0 = absu * (rhoR - rhoL)

    if scheme is SchemeKind.ZBS_FDS:
        ab = np.sqrt(a2b)
        t = (absu + np.sqrt(gm1 / gamma) * ab) * rbdu
        e = (absu / gm1 + ab / np.sqrt(gamma * gm1)) * dp
    else:
        beta = np.sqrt(ub * ub + 4.0 * a2b)
        l1 = 0.5 * (beta - ub)
        l3 = 0.5 * (beta + ub)
        half = 0.5 * rbdu
        odd = (half * ub - dp) / beta           # alpha_1,3 = half +- odd
        e1 = (half + odd) * l1                  # alpha_1 |lambda_1|
        e3 = (half - odd) * l3                  # alpha_3 |lambda_3|
        t = absu * rbdu + e1 + e3
        e = (e3 * l3 - e1 * l1) / gm1

    mL, mR = rhoL * uL, rhoR * uR
    muL, muR = mL * uL, mR * uR
    h = gamma / gm1
    v = ub * d0
    F = np.empty((3,) + ub.shape)
    F[0] = 0.5 * (mL + mR - d0)
    F[1] = 0.5 * (pL + muL + pR + muR - t - v)
    F[2] = 0.5 * ((h * pL + 0.5 * muL) * uL + (h * pR + 0.5 * muR) * uR
                  - ub * (t + 0.5 * v) - e)
    return F
