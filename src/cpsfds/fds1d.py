"""ZBS-FDS and TVS-FDS interface fluxes.

Both schemes share the structure

    F_I = (F_L + F_R)/2 - (D_c + D_p)/2

where D_c and D_p are the convection and pressure upwind dissipations
R |Lambda| R^-1 dU, each from its splitting's eigensystem at the
sqrt(rho)-weighted face state.  No entropy fix is applied anywhere.

`interface_flux_batch` is the one implementation of the flux, in closed form;
the 1D solver calls it on whole-grid sweeps and `interface_flux` on
one-element arrays for a single face.  Its reference is
`splittings.upwind_dissipation` at `splittings.face_average`, the same oracle
that the 2D kernel is checked against.
"""

from __future__ import annotations

import enum

import numpy as np

from .state import GasModel, PrimitiveState


class SchemeKind(enum.Enum):
    ZBS_FDS = "zbs"
    TVS_FDS = "tvs"


def interface_flux(scheme: SchemeKind, wL: PrimitiveState, wR: PrimitiveState,
                   gas: GasModel) -> np.ndarray:
    """Flux across one face: `interface_flux_batch` on one-element arrays."""
    return interface_flux_batch(
        scheme, *(np.array([q]) for w in (wL, wR) for q in w),
        gas.gamma)[:, 0]


def interface_flux_batch(scheme: SchemeKind, rhoL, uL, pL, rhoR, uR, pR,
                         gamma: float) -> np.ndarray:
    """Vectorized interface flux over many faces; returns (3, n).

    The dissipation R_c |L_c| R_c^-1 dU + R_p |L_p| R_p^-1 dU at the face
    state (rho_bar, u_bar, a_bar) of `splittings.face_average`, folded.  At
    that state the jump is exactly

        dU = (drho, rho_bar du + u_bar drho,
              dp / (g - 1) + u_bar^2 drho / 2 + rho_bar u_bar du),

    so the convection term is |u_bar| dU, less |u_bar| dp / (g - 1) in the
    energy row for TVS, whose zero eigenvalue carries that part.  The
    pressure strengths alpha = R_p^-1 dU, with h = rho_bar du / 2, are

        ZBS: alpha = (h - q, drho, h + q),  q = sqrt(g/(g - 1)) dp / (2 a_bar),
             lambda = (-lam, 0, lam),  lam = sqrt((g - 1)/g) a_bar;
        TVS: alpha = (h + o, drho, h - o),  o = (h u_bar - dp) / beta,
             lambda = ((u_bar - beta) / 2, 0, (u_bar + beta) / 2),
             beta = sqrt(u_bar^2 + 4 a_bar^2).

    With d0 = |u_bar| drho both schemes write the dissipation as

        D = (d0, t + u_bar d0, u_bar (t + u_bar d0 / 2) + e),

    where t holds the remaining momentum-row terms and e the remaining
    energy-row terms.  ZBS: lam (a1 + a3) = lam rho_bar du, and
    lam (a1 (u_bar - s) + a3 (u_bar + s))
    = u_bar lam rho_bar du + a_bar dp / sqrt(g (g - 1)), with
    s = a_bar / sqrt(g (g - 1)).  TVS: beta > |u_bar|, so
    |lambda_1,3| = (beta -+ u_bar)/2 = l1, l3, and the energy entries of
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
