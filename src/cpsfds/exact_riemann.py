"""Exact Riemann solver for the 1D Euler equations.

Newton iteration on the pressure function with a two-rarefaction initial
guess, then closed-form sampling of the self-similar solution.  Serves as the
reference oracle for all 1D error norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import GasModel, PrimitiveState, sound_speed


class VacuumError(RuntimeError):
    """The two initial states would open a vacuum region."""


class ConvergenceError(RuntimeError):
    def __init__(self, p_last, residual, iterations):
        super().__init__(
            f"pressure iteration stalled at p={p_last:.6e} "
            f"(residual {residual:.3e} after {iterations} iterations)")
        self.p_last = p_last
        self.residual = residual


@dataclass(frozen=True)
class StarState:
    p_star: float
    u_star: float
    rho_star_L: float
    rho_star_R: float


def _side_function(p, wk: PrimitiveState, gas: GasModel):
    """f_K(p) and its derivative for one side of the star region."""
    g = gas.gamma
    ak = sound_speed(wk, gas)
    if p > wk.p:  # shock branch
        A = 2.0 / ((g + 1.0) * wk.rho)
        B = (g - 1.0) / (g + 1.0) * wk.p
        q = math.sqrt(A / (p + B))
        f = (p - wk.p) * q
        df = q * (1.0 - 0.5 * (p - wk.p) / (p + B))
    else:  # rarefaction branch
        f = 2.0 * ak / (g - 1.0) * ((p / wk.p) ** ((g - 1.0) / (2.0 * g))
                                    - 1.0)
        df = (p / wk.p) ** (-(g + 1.0) / (2.0 * g)) / (wk.rho * ak)
    return f, df


def pressure_function(p, wL, wR, gas):
    """f(p) = f_L + f_R + du; monotone increasing in p."""
    fL, _ = _side_function(p, wL, gas)
    fR, _ = _side_function(p, wR, gas)
    return fL + fR + (wR.u - wL.u)


def _star_density(p_star, wk: PrimitiveState, gas: GasModel):
    g = gas.gamma
    r = p_star / wk.p
    if p_star > wk.p:
        gr = (g - 1.0) / (g + 1.0)
        return wk.rho * (r + gr) / (gr * r + 1.0)
    return wk.rho * r ** (1.0 / g)


def solve_star(wL: PrimitiveState, wR: PrimitiveState, gas: GasModel,
               tol: float = 1e-12, max_iter: int = 100) -> StarState:
    g = gas.gamma
    aL, aR = sound_speed(wL, gas), sound_speed(wR, gas)
    if 2.0 * (aL + aR) / (g - 1.0) <= wR.u - wL.u:
        raise VacuumError("initial states open a vacuum")

    # two-rarefaction initial guess, clamped into the positive domain
    pmax = max(wL.p, wR.p)
    z = (g - 1.0) / (2.0 * g)
    num = aL + aR - 0.5 * (g - 1.0) * (wR.u - wL.u)
    den = aL / wL.p ** z + aR / wR.p ** z
    p = max((num / den) ** (1.0 / z), 1e-8 * pmax)

    residual = math.inf
    for _ in range(max_iter):
        fL, dfL = _side_function(p, wL, gas)
        fR, dfR = _side_function(p, wR, gas)
        f = fL + fR + (wR.u - wL.u)
        residual = abs(f)
        dp = f / (dfL + dfR)
        p_new = p - dp
        if p_new <= 0.0:
            p_new = 0.5 * p
        if abs(p_new - p) <= tol * p_new and residual <= 1e-10 * pmax:
            p = p_new
            break
        p = p_new
    else:
        if residual > 1e-10 * pmax:
            raise ConvergenceError(p, residual, max_iter)

    fL, _ = _side_function(p, wL, gas)
    fR, _ = _side_function(p, wR, gas)
    u = 0.5 * (wL.u + wR.u) + 0.5 * (fR - fL)
    return StarState(p, u, _star_density(p, wL, gas),
                     _star_density(p, wR, gas))


def sample(star: StarState, wL: PrimitiveState, wR: PrimitiveState,
           gas: GasModel, xi: float) -> PrimitiveState:
    """Solution state at similarity coordinate xi = x/t."""
    g = gas.gamma
    if xi <= star.u_star:
        wk, rho_star, sgn = wL, star.rho_star_L, 1.0
    else:
        wk, rho_star, sgn = wR, star.rho_star_R, -1.0
    ak = sound_speed(wk, gas)
    ps = star.p_star

    if ps > wk.p:  # shock on this side
        ms = ak * math.sqrt((g + 1.0) / (2.0 * g) * ps / wk.p
                            + (g - 1.0) / (2.0 * g))
        s_shock = wk.u - sgn * ms
        if sgn * (xi - s_shock) < 0.0:
            return wk
        return PrimitiveState(rho_star, star.u_star, ps)

    # rarefaction on this side
    a_star = ak * (ps / wk.p) ** ((g - 1.0) / (2.0 * g))
    head = wk.u - sgn * ak
    tail = star.u_star - sgn * a_star
    if sgn * (xi - head) < 0.0:
        return wk
    if sgn * (xi - tail) > 0.0:
        return PrimitiveState(rho_star, star.u_star, ps)
    # inside the fan
    a = (2.0 / (g + 1.0)) * (ak + sgn * 0.5 * (g - 1.0) * (wk.u - xi))
    u = (2.0 / (g + 1.0)) * (sgn * ak + 0.5 * (g - 1.0) * wk.u + xi)
    rho = wk.rho * (a / ak) ** (2.0 / (g - 1.0))
    p = wk.p * (a / ak) ** (2.0 * g / (g - 1.0))
    return PrimitiveState(rho, u, p)


def sample_profile(wL, wR, gas, x, t, x0=0.0):
    """Vector of primitive states at positions x and time t > 0."""
    star = solve_star(wL, wR, gas)
    xi = (np.asarray(x) - x0) / t
    rho, u, p = np.array([tuple(sample(star, wL, wR, gas, float(v)))
                          for v in xi]).T
    return rho, u, p
