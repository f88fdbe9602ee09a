"""Reference computations made apart from cpsfds.

Nothing here imports the library: every function restates the physics or
the discretization it checks, so a fault in the program cannot also hide
in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

GAMMA = 1.4


# --------------------------------------------------------------------------
# ideal gas

def pressure_1d(U, gamma=GAMMA):
    """Pressure of a (3, n) conserved array."""
    return (gamma - 1.0) * (U[2] - 0.5 * U[1] * U[1] / U[0])


def pressure_2d(U, gamma=GAMMA):
    """Pressure of a (4, ni, nj) conserved field."""
    return (gamma - 1.0) * (U[3] - 0.5 * (U[1] ** 2 + U[2] ** 2) / U[0])


def conserved_1d(rho, u, p, gamma=GAMMA):
    rho, u, p = np.broadcast_arrays(*(np.asarray(q, dtype=float)
                                      for q in (rho, u, p)))
    return np.stack([rho, rho * u, p / (gamma - 1.0) + 0.5 * rho * u * u])


# --------------------------------------------------------------------------
# exact Riemann solution (bisection on the pressure function; Toro ch. 4)

def _side(p, rho, pk, gamma):
    """f_K(p) of one side of the star region."""
    a = math.sqrt(gamma * pk / rho)
    if p > pk:
        A = 2.0 / ((gamma + 1.0) * rho)
        B = (gamma - 1.0) / (gamma + 1.0) * pk
        return (p - pk) * math.sqrt(A / (p + B))
    return 2.0 * a / (gamma - 1.0) * ((p / pk) ** ((gamma - 1.0)
                                                  / (2.0 * gamma)) - 1.0)


class RiemannSolution:
    """Self-similar solution of a 1D Riemann problem, states (rho, u, p)."""

    def __init__(self, left, right, gamma=GAMMA):
        self.left, self.right, self.gamma = left, right, gamma
        (rl, ul, pl), (rr, ur, pr) = left, right
        g = gamma
        al, ar = math.sqrt(g * pl / rl), math.sqrt(g * pr / rr)
        if 2.0 * (al + ar) / (g - 1.0) <= ur - ul:
            raise ValueError("initial states open a vacuum")

        def f(p):
            return _side(p, rl, pl, g) + _side(p, rr, pr, g) + ur - ul

        lo, hi = 0.0, max(pl, pr)
        while f(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        ps = 0.5 * (lo + hi)
        self.p_star = ps
        self.u_star = 0.5 * (ul + ur) + 0.5 * (_side(ps, rr, pr, g)
                                               - _side(ps, rl, pl, g))
        self.rho_star = tuple(self._star_density(rk, pk)
                              for rk, pk in ((rl, pl), (rr, pr)))

    def _star_density(self, rho, pk):
        g, r = self.gamma, self.p_star / pk
        if r > 1.0:
            q = (g - 1.0) / (g + 1.0)
            return rho * (r + q) / (q * r + 1.0)
        return rho * r ** (1.0 / g)

    def max_signal_speed(self):
        """Largest |u| + a over the four constant states; fans lie between
        their end states, so this bounds every wave speed."""
        g = self.gamma
        states = [self.left, self.right,
                  (self.rho_star[0], self.u_star, self.p_star),
                  (self.rho_star[1], self.u_star, self.p_star)]
        return max(abs(u) + math.sqrt(g * p / r) for r, u, p in states)

    def sample(self, xi):
        """(rho, u, p) arrays at similarity coordinates xi = (x - x0) / t."""
        xi = np.asarray(xi, dtype=float)
        g = self.gamma
        rho, u, p = (np.empty_like(xi) for _ in range(3))
        for side, sgn in ((0, 1.0), (1, -1.0)):
            rk, uk, pk = (self.left, self.right)[side]
            ak = math.sqrt(g * pk / rk)
            sel = xi <= self.u_star if side == 0 else xi > self.u_star
            x = xi[sel]
            r_out = np.full_like(x, self.rho_star[side])
            u_out = np.full_like(x, self.u_star)
            p_out = np.full_like(x, self.p_star)
            if self.p_star > pk:
                speed = uk - sgn * ak * math.sqrt(
                    (g + 1.0) / (2.0 * g) * self.p_star / pk
                    + (g - 1.0) / (2.0 * g))
                outside = sgn * (x - speed) < 0.0
            else:
                a_star = ak * (self.p_star / pk) ** ((g - 1.0) / (2.0 * g))
                head, tail = uk - sgn * ak, self.u_star - sgn * a_star
                outside = sgn * (x - head) < 0.0
                fan = ~outside & (sgn * (x - tail) <= 0.0)
                c = 2.0 / (g + 1.0) + sgn * (g - 1.0) / ((g + 1.0) * ak) \
                    * (uk - x[fan])
                r_out[fan] = rk * c ** (2.0 / (g - 1.0))
                u_out[fan] = 2.0 / (g + 1.0) * (sgn * ak
                                                + 0.5 * (g - 1.0) * uk
                                                + x[fan])
                p_out[fan] = pk * c ** (2.0 * g / (g - 1.0))
            r_out[outside], u_out[outside], p_out[outside] = rk, uk, pk
            rho[sel], u[sel], p[sel] = r_out, u_out, p_out
        return rho, u, p


# --------------------------------------------------------------------------
# smooth advection: scalar first-order upwinding

def smooth_profile(x):
    """Initial density of the registered smooth case: 1 + 0.2 sin(pi x),
    with u = 0.1 and p = 0.5 everywhere."""
    return 1.0 + 0.2 * np.sin(math.pi * x)


SMOOTH = {"x_min": 0.0, "x_max": 2.0, "t_final": 0.5, "cfl": 0.8,
          "u": 0.1, "p": 0.5}


def smooth_upwind_density(n_cells, gamma=GAMMA):
    """Density after scalar first-order upwinding of the smooth case.

    With u and p uniform, both schemes' pressure strengths vanish and their
    convection dissipation is |u| dU, so the mass update is exactly
    rho_j <- rho_j - nu (rho_j - rho_{j-1}).  The time step follows the
    solver's CFL rule on the current density, the last step clamped to
    t_final.
    """
    s = SMOOTH
    dx = (s["x_max"] - s["x_min"]) / n_cells
    rho = smooth_profile(s["x_min"] + (np.arange(n_cells) + 0.5) * dx)
    t = 0.0
    while t < s["t_final"]:
        dt = s["cfl"] * dx / float(np.max(s["u"] + np.sqrt(gamma * s["p"]
                                                          / rho)))
        dt = min(dt, s["t_final"] - t)
        rho = rho - s["u"] * dt / dx * (rho - np.roll(rho, 1))
        t += dt
    return rho


# --------------------------------------------------------------------------
# shock relations

def normal_shock_post(mach, rho1, p1, gamma=GAMMA):
    """(rho2, u2, p2) behind a shock moving at Mach `mach` into gas at rest."""
    g, m2 = gamma, mach * mach
    a1 = math.sqrt(g * p1 / rho1)
    rho2 = rho1 * (g + 1.0) * m2 / ((g - 1.0) * m2 + 2.0)
    p2 = p1 * (2.0 * g * m2 - (g - 1.0)) / (g + 1.0)
    return rho2, mach * a1 * (1.0 - rho1 / rho2), p2


def oblique_shock(mach, beta, gamma=GAMMA):
    """(pressure ratio, deflection angle, downstream Mach) for a shock at
    angle beta (radians) to an upstream flow of Mach `mach`."""
    g = gamma
    mn2 = (mach * math.sin(beta)) ** 2
    ratio = 1.0 + 2.0 * g / (g + 1.0) * (mn2 - 1.0)
    theta = math.atan(2.0 / math.tan(beta) * (mn2 - 1.0)
                      / (mach * mach * (g + math.cos(2.0 * beta)) + 2.0))
    mn_down = math.sqrt((1.0 + 0.5 * (g - 1.0) * mn2)
                        / (g * mn2 - 0.5 * (g - 1.0)))
    return ratio, theta, mn_down / math.sin(beta - theta)


def weak_shock_angle(mach, theta, gamma=GAMMA):
    """Weak-branch shock angle that turns a Mach `mach` flow by theta."""
    lo = math.asin(1.0 / mach)
    # the deflection rises from 0 at the Mach angle to its maximum;
    # bracket the weak root below that maximum
    grid = np.linspace(lo, 0.5 * math.pi, 2001)[1:-1]
    defl = [oblique_shock(mach, b, gamma)[1] for b in grid]
    top = int(np.argmax(defl))
    if defl[top] < theta:
        raise ValueError("deflection exceeds the attached-shock maximum")
    a, b = lo, float(grid[top])
    for _ in range(200):
        m = 0.5 * (a + b)
        if oblique_shock(mach, m, gamma)[1] < theta:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def regular_reflection_pressures(mach, beta_deg, p1, gamma=GAMMA):
    """Pressures behind the incident and the reflected shock of a regular
    reflection off a straight wall."""
    r1, theta, m2 = oblique_shock(mach, math.radians(beta_deg), gamma)
    r2, _, _ = oblique_shock(m2, weak_shock_angle(m2, theta, gamma), gamma)
    return p1 * r1, p1 * r1 * r2


def rayleigh_pitot(mach, p1, gamma=GAMMA):
    """Stagnation pressure behind a normal shock (Rayleigh pitot formula)."""
    g, m2 = gamma, mach * mach
    return p1 * ((g + 1.0) * m2 / 2.0) ** (g / (g - 1.0)) \
        * ((g + 1.0) / (2.0 * g * m2 - (g - 1.0))) ** (1.0 / (g - 1.0))


# --------------------------------------------------------------------------
# wedge geometry

def ramp_vertices(x_min, x_max, height, ni, nj, ramp_start, angle_deg):
    """Vertices of a column-wise stretched grid over a straight ramp."""
    x = np.linspace(x_min, x_max, ni + 1)
    yb = np.maximum(0.0, (x - ramp_start) * math.tan(math.radians(angle_deg)))
    s = np.linspace(0.0, 1.0, nj + 1)
    xv = np.repeat(x[:, None], nj + 1, axis=1)
    yv = yb[:, None] + s[None, :] * (height - yb[:, None])
    return xv, yv


def cell_areas_and_centres(xv, yv):
    """Shoelace areas and vertex-mean centres of quadrilateral cells."""
    corners = [(xv[:-1, :-1], yv[:-1, :-1]), (xv[1:, :-1], yv[1:, :-1]),
               (xv[1:, 1:], yv[1:, 1:]), (xv[:-1, 1:], yv[:-1, 1:])]
    area = np.zeros_like(corners[0][0])
    for (xa, ya), (xb, yb) in zip(corners, corners[1:] + corners[:1]):
        area += 0.5 * (xa * yb - xb * ya)
    xc = sum(c[0] for c in corners) / 4.0
    yc = sum(c[1] for c in corners) / 4.0
    return area, xc, yc


def read_csv_2d(path):
    """(ni, nj, (n, 6) array of x, y, rho, u, v, p) from a cpsfds 2D CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("ni,nj="):
        raise ValueError("missing ni,nj header")
    ni, nj = (int(v) for v in lines[0][len("ni,nj="):].split(","))
    k = lines.index("x,y,rho,u,v,p")
    rows = lines[k + 1:]
    data = np.array(",".join(rows).split(","), dtype=float) if rows \
        else np.empty(0)
    if data.size != 6 * len(rows):
        raise ValueError("a CSV row does not hold six values")
    return ni, nj, data.reshape(len(rows), 6)
