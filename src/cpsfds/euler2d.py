"""2D structured-grid finite-volume Euler solver.

Faces of quadrilateral cells carry the convection-pressure split interface
flux in the face-normal direction; the convection part has all four
eigenvalues equal to the normal velocity (one Jordan block of order two),
the pressure part contributes two acoustic waves.  Only the Zha-Bilgen form
of the split is used in 2D.

Includes the four benchmark cases (regular shock reflection, compression
ramp, planar-shock/wedge interaction, half cylinder) with body-fitted grid
generators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .splittings import EigenSystem, SplitFlux
from .solver1d import march
from .state import GasModel, NonPhysicalStateError


# --------------------------------------------------------------------------
# states and geometry

@dataclass(frozen=True)
class Prim2D:
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


def prim_to_cons_2d(w: Prim2D, gas: GasModel) -> np.ndarray:
    """(rho, rho u, rho v, rho E) of one state."""
    w.require_physical()
    E = w.p / (w.rho * (gas.gamma - 1.0)) + 0.5 * (w.u ** 2 + w.v ** 2)
    return np.array([w.rho, w.rho * w.u, w.rho * w.v, w.rho * E])


@dataclass(frozen=True)
class FaceGeometry:
    n_x: float
    n_y: float
    ds: float


def face_geometry(a, b) -> FaceGeometry:
    """Unit normal and length of the face from vertex a to vertex b.

    The normal (dy/ds, -dx/ds) points to the right of the traversal
    direction.
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    ds = math.hypot(dx, dy)
    if ds == 0.0:
        raise ValueError("degenerate zero-length face")
    return FaceGeometry(dy / ds, -dx / ds, ds)


class StructuredGrid2D:
    """Quadrilateral cells from an (ni+1) x (nj+1) vertex array.

    Cell (i, j) has vertices (i,j), (i+1,j), (i+1,j+1), (i,j+1), traversed
    counterclockwise (positive area required).  The i-face (i, j) runs from
    vertex (i, j) to (i, j+1) and its normal points in the +i direction;
    the j-face (i, j) runs from (i+1, j) to (i, j) with normal in +j.
    """

    def __init__(self, xv: np.ndarray, yv: np.ndarray):
        xv = np.asarray(xv, dtype=float)
        yv = np.asarray(yv, dtype=float)
        if xv.shape != yv.shape or xv.ndim != 2:
            raise ValueError("vertex arrays must share a 2D shape")
        self.xv, self.yv = xv, yv
        self.ni = xv.shape[0] - 1
        self.nj = xv.shape[1] - 1

        xa, ya = xv[:-1, :-1], yv[:-1, :-1]
        xb, yb = xv[1:, :-1], yv[1:, :-1]
        xc, yc = xv[1:, 1:], yv[1:, 1:]
        xd, yd = xv[:-1, 1:], yv[:-1, 1:]
        self.area = 0.5 * ((xc - xa) * (yd - yb) - (xd - xb) * (yc - ya))
        if not (self.area > 0.0).all():
            raise ValueError("grid contains non-positively-oriented cells")
        self.xc = 0.25 * (xa + xb + xc + xd)
        self.yc = 0.25 * (ya + yb + yc + yd)

        dxi = xv[:, 1:] - xv[:, :-1]          # (ni+1, nj)
        dyi = yv[:, 1:] - yv[:, :-1]
        self.iface_ds = np.hypot(dxi, dyi)
        self.iface_nx = dyi / self.iface_ds
        self.iface_ny = -dxi / self.iface_ds

        dxj = xv[:-1, :] - xv[1:, :]          # (ni, nj+1)
        dyj = yv[:-1, :] - yv[1:, :]
        self.jface_ds = np.hypot(dxj, dyj)
        self.jface_nx = dyj / self.jface_ds
        self.jface_ny = -dxj / self.jface_ds
        # (nx, ny, ds) of the j faces with j on axis 0, contiguous, so the
        # j sweep of residual_2d reads its row blocks from contiguous memory
        self.jface_sweep = tuple(np.ascontiguousarray(q.T) for q in (
            self.jface_nx, self.jface_ny, self.jface_ds))

        # representative spacing for the limiter threshold
        self.h = float(np.sqrt(np.mean(self.area)))


def cartesian_grid(x_min, x_max, y_min, y_max, ni, nj) -> StructuredGrid2D:
    x = np.linspace(x_min, x_max, ni + 1)
    y = np.linspace(y_min, y_max, nj + 1)
    return StructuredGrid2D(*np.meshgrid(x, y, indexing="ij"))


def ramp_grid(x_min, x_max, height, ni, nj, ramp_start,
              angle_deg) -> StructuredGrid2D:
    """Sheared Cartesian grid over a wedge: the bottom boundary follows
    y = (x - ramp_start) tan(angle) for x beyond the ramp start."""
    x = np.linspace(x_min, x_max, ni + 1)
    yb = np.maximum(0.0, (x - ramp_start) * math.tan(math.radians(angle_deg)))
    if (yb >= height).any():
        raise ValueError("ramp reaches the top boundary")
    s = np.linspace(0.0, 1.0, nj + 1)
    xv = np.repeat(x[:, None], nj + 1, axis=1)
    yv = yb[:, None] + s[None, :] * (height - yb[:, None])
    return StructuredGrid2D(xv, yv)


def half_cylinder_grid(ni, nj, r_body=1.0, a_out=3.0,
                       b_out=4.0) -> StructuredGrid2D:
    """Polar-type grid around the front half of a cylinder at the origin.

    The i index runs radially from a far-field ellipse (i=0, inflow side)
    to the body (i=ni); j runs circumferentially from bottom to top.
    """
    phi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, nj + 1)
    s = np.linspace(0.0, 1.0, ni + 1)[:, None]
    x_out, y_out = -a_out * np.cos(phi), b_out * np.sin(phi)
    x_body, y_body = -r_body * np.cos(phi), r_body * np.sin(phi)
    xv = (1.0 - s) * x_out[None, :] + s * x_body[None, :]
    yv = (1.0 - s) * y_out[None, :] + s * y_body[None, :]
    return StructuredGrid2D(xv, yv)


# --------------------------------------------------------------------------
# split flux and eigenstructure at a face

def split_flux_2d(w: Prim2D, geom: FaceGeometry, gas: GasModel) -> SplitFlux:
    """Normal-flux split F = u_perp U + (0, p n_x, p n_y, p u_perp)."""
    w.require_physical()
    up = w.u * geom.n_x + w.v * geom.n_y
    E = w.p / (w.rho * (gas.gamma - 1.0)) + 0.5 * (w.u ** 2 + w.v ** 2)
    fc = up * np.array([w.rho, w.rho * w.u, w.rho * w.v, w.rho * E])
    fp = np.array([0.0, w.p * geom.n_x, w.p * geom.n_y, w.p * up])
    return SplitFlux(fc, fp)


def convection_jacobian_2d(w: Prim2D, geom: FaceGeometry,
                           gas: GasModel) -> np.ndarray:
    """d(u_perp U)/dU = u_perp I + U (grad u_perp)^T."""
    w.require_physical()
    nx, ny = geom.n_x, geom.n_y
    up = w.u * nx + w.v * ny
    E = w.p / (w.rho * (gas.gamma - 1.0)) + 0.5 * (w.u ** 2 + w.v ** 2)
    U = np.array([1.0, w.u, w.v, E]) * w.rho
    grad = np.array([-up, nx, ny, 0.0]) / w.rho
    return up * np.eye(4) + np.outer(U, grad)


def pressure_jacobian_2d(w: Prim2D, geom: FaceGeometry,
                         gas: GasModel) -> np.ndarray:
    w.require_physical()
    g = gas.gamma
    nx, ny = geom.n_x, geom.n_y
    u, v = w.u, w.v
    up = u * nx + v * ny
    theta2 = 0.5 * (u * u + v * v)
    a2 = g * w.p / w.rho
    phi2 = a2 / (g * (g - 1.0))
    return (g - 1.0) * np.array([
        [0.0, 0.0, 0.0, 0.0],
        [theta2 * nx, -nx * u, -nx * v, nx],
        [theta2 * ny, -ny * u, -ny * v, ny],
        [(theta2 - phi2) * up, phi2 * nx - up * u, phi2 * ny - up * v, up],
    ])


def convection_eigensystem_2d(w: Prim2D, geom: FaceGeometry, gas: GasModel,
                              x1: float = 0.0, xt: float = 0.0,
                              x4: float = 0.0) -> EigenSystem:
    """All four eigenvalues equal u_perp; one order-two Jordan chain.

    The generalized eigenvector is fixed only up to the constraint
    n_x x2 + n_y x3 = 1 + u_perp x1; the free parameters (x1, tangential
    component xt, x4) never reach the scheme.
    """
    w.require_physical()
    nx, ny = geom.n_x, geom.n_y
    up = w.u * nx + w.v * ny
    E = w.p / (w.rho * (gas.gamma - 1.0)) + 0.5 * (w.u ** 2 + w.v ** 2)
    head = np.array([1.0, w.u, w.v, E])
    c = 1.0 + up * x1
    gen = np.array([x1, c * nx - xt * ny, c * ny + xt * nx, x4])
    vecs = np.column_stack([
        head,
        gen,
        [0.0, -ny, nx, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return EigenSystem(np.array([up, up, up, up]), vecs,
                       chain_links={1: 0},
                       free_params={"x1": x1, "xt": xt, "x4": x4})


def pressure_eigensystem_2d(w: Prim2D, geom: FaceGeometry,
                            gas: GasModel) -> EigenSystem:
    """Two acoustic waves at +-a sqrt((gamma-1)/gamma), two zero speeds.

    The second vector degenerates to zero at a stagnant state (u = v = 0);
    the flux never uses it there (zero eigenvalue), and the wave-strength
    computation regularizes that limit.
    """
    w.require_physical()
    g = gas.gamma
    nx, ny = geom.n_x, geom.n_y
    u, v = w.u, w.v
    up = u * nx + v * ny
    upar = -u * ny + v * nx
    theta2 = 0.5 * (u * u + v * v)
    a = math.sqrt(g * w.p / w.rho)
    s = a / math.sqrt(g * (g - 1.0))
    c = math.sqrt((g - 1.0) / g) * a
    vecs = np.column_stack([
        [0.0, nx, ny, up - s],
        [upar, u * upar + theta2 * ny, v * upar - theta2 * nx, 0.0],
        [1.0, nx * up, ny * up, up * up - theta2],
        [0.0, nx, ny, up + s],
    ])
    return EigenSystem(np.array([-c, 0.0, 0.0, c]), vecs)


# --------------------------------------------------------------------------
# interface flux

@dataclass(frozen=True)
class Averages2D:
    """sqrt(rho)-weighted face averages."""

    rho_bar: float
    u_bar: float
    v_bar: float
    a2_bar: float
    n_x: float
    n_y: float

    @property
    def a_bar(self):
        return math.sqrt(self.a2_bar)

    @property
    def u_perp(self):
        return self.u_bar * self.n_x + self.v_bar * self.n_y

    @property
    def u_par(self):
        return -self.u_bar * self.n_y + self.v_bar * self.n_x

    @property
    def theta2(self):
        return 0.5 * (self.u_bar ** 2 + self.v_bar ** 2)


def averages_2d(wL: Prim2D, wR: Prim2D, geom: FaceGeometry,
                gas: GasModel) -> Averages2D:
    wL.require_physical()
    wR.require_physical()
    sL, sR = math.sqrt(wL.rho), math.sqrt(wR.rho)
    w = sL + sR
    g = gas.gamma
    return Averages2D(
        sL * sR,
        (sL * wL.u + sR * wR.u) / w,
        (sL * wL.v + sR * wR.v) / w,
        (sL * g * wL.p / wL.rho + sR * g * wR.p / wR.rho) / w,
        geom.n_x, geom.n_y)


class DegenerateWaveBasisError(RuntimeError):
    """The alpha_2/alpha_3 denominator is too close to zero to invert."""

    def __init__(self, denominator, scale):
        super().__init__(
            f"theta2 - u_perp^2 = {denominator:.3e} below the "
            f"regularization threshold (scale {scale:.3e})")
        self.denominator = denominator


REGULARIZATION_RTOL = 1e-8


def wave_strengths_2d(avg: Averages2D, drho, du_perp, du_par, dp,
                      gas: GasModel, regularize: bool = True) -> np.ndarray:
    """Expansion coefficients of the conserved jump over the pressure
    eigenvectors at the averaged state."""
    g = gas.gamma
    acoustic = math.sqrt(g / (g - 1.0)) * dp / (2.0 * avg.a_bar)
    a1 = 0.5 * avg.rho_bar * du_perp - acoustic
    a4 = 0.5 * avg.rho_bar * du_perp + acoustic
    denom = avg.theta2 - avg.u_perp ** 2
    scale = REGULARIZATION_RTOL * max(avg.theta2, avg.a2_bar)
    if abs(denom) < scale:
        if not regularize:
            raise DegenerateWaveBasisError(denom, scale)
        a2, a3 = 0.0, drho
    else:
        a2 = (avg.u_par * drho + avg.rho_bar * du_par) / denom
        a3 = drho - (avg.u_par ** 2 * drho
                     + avg.rho_bar * avg.u_par * du_par) / denom
    return np.array([a1, a2, a3, a4])


def _flux_2d_kernel(rL, uL, vL, pL, rR, uR, vR, pR, nx, ny, gamma,
                    ds=1.0, out=None):
    """Vectorized face flux times the face length ds, written into out.

    All arguments broadcast; out has shape (4, *broadcast shape) and is
    allocated if not given.  The flux is the average of the two normal
    fluxes minus half the dissipation |u_perp| dU + sum_i alpha_i
    |lambda_i| R_i at the sqrt(rho)-weighted state (a, rb, u_perp).  The
    strengths a1, a4 of the two acoustic waves, of speed
    lam = sqrt((gamma - 1) / gamma) a, enter only as
    lam (a1 + a4) = lam rb du_perp and
    lam s (a4 - a1) = a dp / sqrt(gamma (gamma - 1)) = lam dp / (gamma - 1),
    with s = a / sqrt(gamma (gamma - 1)).
    """
    if out is None:
        out = np.empty((4,) + np.broadcast(rL, uL, vL, pL, rR, uR, vR, pR,
                                           nx, ny, ds).shape)
    g1 = gamma - 1.0
    sL, sR = np.sqrt(rL), np.sqrt(rR)
    w = sL + sR
    fL, fR = sL / w, sR / w
    rb = sL * sR
    ub = fL * uL + fR * uR
    vb = fL * vL + fR * vR
    upL = uL * nx + vL * ny
    upR = uR * nx + vR * ny
    upb = fL * upL + fR * upR
    absu = np.abs(upb)
    lam = np.sqrt(g1 * (pL / sL + pR / sR) / w)
    drho, du, dv, dp = rR - rL, uR - uL, vR - vL, pR - pL

    mL, mR = rL * upL, rR * upR
    q = lam * rb * (upR - upL)
    pn = pL + pR - q
    half_ds = 0.5 * ds

    np.multiply(mL + mR - absu * drho, half_ds, out=out[0])
    np.multiply(mL * uL + mR * uR + pn * nx
                - absu * (rb * du + ub * drho), half_ds, out=out[1])
    np.multiply(mL * vL + mR * vR + pn * ny
                - absu * (rb * dv + vb * drho), half_ds, out=out[2])
    central = (gamma / g1 * (pL * upL + pR * upR)
               + 0.5 * (mL * (uL * uL + vL * vL) + mR * (uR * uR + vR * vR)))
    dissipation = (absu * (0.5 * (ub * ub + vb * vb) * drho
                           + rb * (ub * du + vb * dv))
                   + (absu + lam) * dp / g1 + q * upb)
    np.multiply(central - dissipation, half_ds, out=out[3])
    return out


def interface_flux_2d(wL: Prim2D, wR: Prim2D, geom: FaceGeometry,
                      gas: GasModel) -> np.ndarray:
    wL.require_physical()
    wR.require_physical()
    return _flux_2d_kernel(
        *(np.array([q]) for q in (wL.rho, wL.u, wL.v, wL.p,
                                  wR.rho, wR.u, wR.v, wR.p)),
        geom.n_x, geom.n_y, gas.gamma)[:, 0]


# --------------------------------------------------------------------------
# conserved <-> primitive field kernels

def _first_cell(bad):
    """Index tuple of the first True entry of bad, as Python ints."""
    return tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)),
                                                  bad.shape))


def cons_to_prim_fields(U, gamma, *, step=None):
    """(4, ni, nj) conserved field -> (rho, u, v, p); raises on breakdown."""
    rho = U[0]
    bad = ~(rho > 0.0) | ~np.isfinite(rho)
    if bad.any():
        i, j = _first_cell(bad)
        raise NonPhysicalStateError("non-physical density in 2D solution",
                                    rho=float(rho[i, j]), cell=(i, j),
                                    step=step)
    u = U[1] / rho
    v = U[2] / rho
    p = (gamma - 1.0) * (U[3] - 0.5 * (U[1] ** 2 + U[2] ** 2) / rho)
    bad = ~(p > 0.0) | ~np.isfinite(p)
    if bad.any():
        i, j = _first_cell(bad)
        raise NonPhysicalStateError("non-physical pressure in 2D solution",
                                    rho=float(rho[i, j]), p=float(p[i, j]),
                                    cell=(i, j), step=step)
    return rho, u, v, p


def prim_to_cons_fields(rho, u, v, p, gamma):
    rE = p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    return np.stack([rho, rho * u, rho * v, rE])


# --------------------------------------------------------------------------
# boundary conditions

class Bc2DKind(enum.Enum):
    SUPERSONIC_INFLOW = "supersonic-inflow"
    SUPERSONIC_OUTFLOW = "supersonic-outflow"
    SLIP_WALL = "slip-wall"
    POST_SHOCK_DIRICHLET = "post-shock-dirichlet"


@dataclass(frozen=True)
class BoundarySpec:
    kind: Bc2DKind
    state: Optional[Prim2D] = None

    def __post_init__(self):
        fixed = (Bc2DKind.SUPERSONIC_INFLOW, Bc2DKind.POST_SHOCK_DIRICHLET)
        if self.kind in fixed and self.state is None:
            raise ValueError(f"{self.kind.value} needs a fixed state")


def _ghost_layers(rho, u, v, p, spec: BoundarySpec, ng, low, nxb, nyb):
    """ng ghost layers for one boundary of an i-oriented sweep.

    rho, u, v, p have the sweep direction on axis 0; low selects which end.
    nxb, nyb are the boundary face normals (one per transverse index).
    Layers are returned ordered ready to stack against the interior:
    for the low side, row ng-1 is adjacent to the interior.
    """
    m = rho.shape[1]
    out = [np.empty((ng, m)) for _ in range(4)]
    for k in range(ng):          # k = 0 is the layer nearest the wall
        row = (ng - 1 - k) if low else k
        if spec.kind in (Bc2DKind.SUPERSONIC_INFLOW,
                         Bc2DKind.POST_SHOCK_DIRICHLET):
            w = spec.state
            vals = (w.rho, w.u, w.v, w.p)
            for a, q in zip(out, vals):
                a[row] = q
        elif spec.kind is Bc2DKind.SUPERSONIC_OUTFLOW:
            src = 0 if low else -1
            for a, q in zip(out, (rho, u, v, p)):
                a[row] = q[src]
        else:  # slip wall: mirror interior layer k across the wall face
            src = k if low else -1 - k
            un = u[src] * nxb + v[src] * nyb
            out[0][row] = rho[src]
            out[1][row] = u[src] - 2.0 * un * nxb
            out[2][row] = v[src] - 2.0 * un * nyb
            out[3][row] = p[src]
    return out


def _extend_sweep(rho, u, v, p, ng, bc_lo, bc_hi, normals_lo, normals_hi):
    """Interior field plus ghost layers on both ends of axis 0, as
    C-contiguous arrays (also for transposed inputs)."""
    lo = _ghost_layers(rho, u, v, p, bc_lo, ng, True, *normals_lo)
    hi = _ghost_layers(rho, u, v, p, bc_hi, ng, False, *normals_hi)
    out = []
    for g_lo, q, g_hi in zip(lo, (rho, u, v, p), hi):
        e = np.empty((q.shape[0] + 2 * ng, q.shape[1]))
        e[:ng], e[ng:-ng], e[-ng:] = g_lo, q, g_hi
        out.append(e)
    return out


def _sweep_face_states(fields, ng, order, h, limiter_k):
    """Left/right face states along axis 0 from extended fields."""
    if order == 1:
        return ([q[:-1] for q in fields], [q[1:] for q in fields])
    from .solver1d import muscl_reconstruct
    left, right = [], []
    for q in fields:
        lo, hi = muscl_reconstruct(q, h, limiter_k)
        left.append(hi[:-1])
        right.append(lo[1:])
    return left, right


# --------------------------------------------------------------------------
# time marching

@dataclass(frozen=True)
class Controls2D:
    t_final: float
    cfl: float = 0.5
    max_steps: int = 10_000_000
    order: int = 1
    limiter_k: float = 0.1
    steady_drop: Optional[float] = None   # stop when the density residual
    # falls by this factor from its initial value

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl out of range")


def compute_dt_2d(rho, u, v, p, grid: StructuredGrid2D, gas: GasModel,
                  cfl: float) -> float:
    a = np.sqrt(gas.gamma * p / rho)
    # per-cell sum of face signal speeds, using the cell's own state
    tot = np.zeros_like(rho)
    for nx, ny, ds in (
            (grid.iface_nx[:-1, :], grid.iface_ny[:-1, :],
             grid.iface_ds[:-1, :]),
            (grid.iface_nx[1:, :], grid.iface_ny[1:, :],
             grid.iface_ds[1:, :]),
            (grid.jface_nx[:, :-1], grid.jface_ny[:, :-1],
             grid.jface_ds[:, :-1]),
            (grid.jface_nx[:, 1:], grid.jface_ny[:, 1:],
             grid.jface_ds[:, 1:])):
        tot += (np.abs(u * nx + v * ny) + a) * ds
    return cfl * float(np.min(grid.area / tot))


def _check_faces(arrays, step):
    for q in arrays:
        bad = ~np.isfinite(q)
        if bad.any():
            raise NonPhysicalStateError("non-finite reconstructed face state",
                                        cell=_first_cell(bad), step=step)
    for q in (arrays[0], arrays[3]):        # rho and p must stay positive
        bad = ~(q > 0.0)
        if bad.any():
            raise NonPhysicalStateError("reconstructed face state not "
                                        "positive", cell=_first_cell(bad),
                                        step=step)


# Faces per flux block: the kernel's temporaries for one block fit the
# 2 MiB L2 cache.  A block is a whole number of face rows (at least one).
_BLOCK_FACES = 8192


def _sweep_net_flux(net, L, R, nx, ny, ds, gamma):
    """Write into net each cell's flux times face length through its high
    face minus that through its low face, for one sweep.

    Axis 0 of the face arrays runs along the sweep (n + 1 face rows for n
    cells) and matches axis 1 of net.  The faces are evaluated in row
    blocks; the last face row of a block is carried into the next, so every
    cell takes the same single subtraction whatever the block size.
    """
    n_faces, m = ds.shape
    rows = min(n_faces, max(1, _BLOCK_FACES // m))
    buf = np.empty((4, rows + 1, m))     # row 0: last face of the block before
    for k0 in range(0, n_faces, rows):
        k1 = min(k0 + rows, n_faces)
        n = k1 - k0
        blk = slice(k0, k1)
        _flux_2d_kernel(*(q[blk] for q in L), *(q[blk] for q in R),
                        nx[blk], ny[blk], gamma, ds[blk], out=buf[:, 1:n + 1])
        first = 1 if k0 == 0 else 0      # face row 0 has no cell below it
        np.subtract(buf[:, first + 1:n + 1], buf[:, first:n],
                    out=net[:, k0 - 1 + first:k1 - 1])
        buf[:, 0] = buf[:, n]


def residual_2d(W, grid: StructuredGrid2D, bc: dict, controls: Controls2D,
                gas: GasModel, step=None):
    """-(1/A) sum of face fluxes times face lengths; shape (4, ni, nj).

    W holds the primitive cell fields (rho, u, v, p)."""
    g = gas.gamma
    rho, u, v, p = W
    ng = 1 if controls.order == 1 else 2

    # i-direction sweep
    fields = _extend_sweep(
        rho, u, v, p, ng, bc["imin"], bc["imax"],
        (grid.iface_nx[0], grid.iface_ny[0]),
        (grid.iface_nx[-1], grid.iface_ny[-1]))
    L, R = _sweep_face_states(fields, ng, controls.order, grid.h,
                              controls.limiter_k)
    if controls.order == 2:
        _check_faces(L, step)
        _check_faces(R, step)
    net = np.empty((4, grid.ni, grid.nj))
    _sweep_net_flux(net, L, R, grid.iface_nx, grid.iface_ny, grid.iface_ds,
                    g)

    # j-direction sweep (transpose so the sweep axis is axis 0)
    fields = _extend_sweep(
        rho.T, u.T, v.T, p.T, ng, bc["jmin"], bc["jmax"],
        (grid.jface_nx[:, 0], grid.jface_ny[:, 0]),
        (grid.jface_nx[:, -1], grid.jface_ny[:, -1]))
    L, R = _sweep_face_states(fields, ng, controls.order, grid.h,
                              controls.limiter_k)
    if controls.order == 2:
        _check_faces(L, step)
        _check_faces(R, step)
    net_j = np.empty((4, grid.nj, grid.ni))
    _sweep_net_flux(net_j, L, R, *grid.jface_sweep, g)

    net += net_j.transpose(0, 2, 1)
    net /= -grid.area
    return net


def advance_2d(U, grid: StructuredGrid2D, bc: dict, controls: Controls2D,
               gas: GasModel):
    """March a (4, ni, nj) conserved field to t_final (or steady state)."""
    return march(
        U,
        lambda U, step: cons_to_prim_fields(U, gas.gamma, step=step),
        lambda W: compute_dt_2d(*W, grid, gas, controls.cfl),
        lambda W, step: residual_2d(W, grid, bc, controls, gas, step=step),
        controls, controls.order, "zbs-2d", controls.steady_drop)


# --------------------------------------------------------------------------
# benchmark cases

def post_shock_state(ms: float, pre: Prim2D, gas: GasModel,
                     direction=(1.0, 0.0)) -> Prim2D:
    """State behind a planar shock moving at Mach ms into a quiescent gas."""
    if not ms > 1.0:
        raise ValueError("shock Mach number must exceed 1")
    g = gas.gamma
    a1 = math.sqrt(g * pre.p / pre.rho)
    p2 = pre.p * (1.0 + 2.0 * g / (g + 1.0) * (ms * ms - 1.0))
    r2 = pre.rho * (g + 1.0) * ms * ms / ((g - 1.0) * ms * ms + 2.0)
    speed = ms * a1 * (1.0 - pre.rho / r2)
    return Prim2D(r2, pre.u + speed * direction[0],
                  pre.v + speed * direction[1], p2)


@dataclass
class CaseSpec2D:
    name: str
    grid_factory: Callable[[int, int], StructuredGrid2D]
    default_grid: tuple
    bc: dict
    init: Callable  # (xc, yc) -> (rho, u, v, p) broadcastable
    t_final: float
    cfl: float = 0.5
    steady_drop: Optional[float] = None
    contour_levels: Optional[str] = None
    alt_grids: tuple = ()
    notes: str = ""


def _uniform(w: Prim2D):
    def init(x, y):
        one = np.ones_like(x)
        return w.rho * one, w.u * one, w.v * one, w.p * one
    return init


def shock_reflection_case() -> CaseSpec2D:
    inflow = Prim2D(1.0, 2.9, 0.0, 1.0 / 1.4)
    top = Prim2D(1.69997, 2.61934, -0.50633, 1.52819)
    return CaseSpec2D(
        name="shock-reflection",
        grid_factory=lambda ni, nj: cartesian_grid(0.0, 3.0, 0.0, 1.0,
                                                   ni, nj),
        default_grid=(120, 40),
        alt_grids=((240, 80),),
        bc={"imin": BoundarySpec(Bc2DKind.SUPERSONIC_INFLOW, inflow),
            "imax": BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW),
            "jmin": BoundarySpec(Bc2DKind.SLIP_WALL),
            "jmax": BoundarySpec(Bc2DKind.POST_SHOCK_DIRICHLET, top)},
        init=_uniform(inflow),
        t_final=20.0,
        steady_drop=1e4,
        contour_levels="0.7:0.1:2.9",
        notes="oblique shock at 29 deg enters from the top-left corner; "
              "run to steady state")


def ramp_case() -> CaseSpec2D:
    inflow = Prim2D(1.4, 2.0, 0.0, 1.0)
    return CaseSpec2D(
        name="ramp",
        grid_factory=lambda ni, nj: ramp_grid(0.0, 3.0, 1.0, ni, nj,
                                              0.5, 15.0),
        default_grid=(120, 40),
        bc={"imin": BoundarySpec(Bc2DKind.SUPERSONIC_INFLOW, inflow),
            "imax": BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW),
            "jmin": BoundarySpec(Bc2DKind.SLIP_WALL),
            "jmax": BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW)},
        init=_uniform(inflow),
        t_final=20.0,
        steady_drop=1e4,
        contour_levels="1.1:0.05:3.8",
        notes="Mach 2 flow over a 15 degree compression corner")


def wedge_case() -> CaseSpec2D:
    pre = Prim2D(1.4, 0.0, 0.0, 1.0)
    post = post_shock_state(5.5, pre, GasModel(1.4))
    x0 = 0.25

    def init(x, y):
        behind = x < x0
        one = np.ones_like(x)
        return (np.where(behind, post.rho, pre.rho),
                np.where(behind, post.u, pre.u) * one,
                np.where(behind, post.v, pre.v) * one,
                np.where(behind, post.p, pre.p))

    return CaseSpec2D(
        name="wedge",
        grid_factory=lambda ni, nj: ramp_grid(0.0, 2.0, 1.5, ni, nj,
                                              0.5, 30.0),
        default_grid=(400, 400),
        bc={"imin": BoundarySpec(Bc2DKind.SUPERSONIC_INFLOW, post),
            "imax": BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW),
            "jmin": BoundarySpec(Bc2DKind.SLIP_WALL),
            "jmax": BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW)},
        init=init,
        t_final=0.25,
        notes="Mach 5.5 planar shock meeting a 30 degree wedge")


def half_cylinder_case(mach: float = 6.0, ni: int = 45,
                       nj: int = 45) -> CaseSpec2D:
    free = Prim2D(1.4, mach, 0.0, 1.0)   # sound speed 1, so u = mach
    return CaseSpec2D(
        name="half-cylinder",
        grid_factory=half_cylinder_grid,
        default_grid=(ni, nj),
        bc={"imin": BoundarySpec(Bc2DKind.SUPERSONIC_INFLOW, free),
            "imax": BoundarySpec(Bc2DKind.SLIP_WALL),
            "jmin": BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW),
            "jmax": BoundarySpec(Bc2DKind.SUPERSONIC_OUTFLOW)},
        init=_uniform(free),
        t_final=2.0 if mach < 10 else 0.6,
        contour_levels="2.0:0.2:5.0",
        notes=f"Mach {mach:g} flow past the front half of a cylinder")


def case_registry_2d():
    return [shock_reflection_case(), ramp_case(), wedge_case(),
            half_cylinder_case()]


def run_case_2d(case: CaseSpec2D, gas: GasModel = GasModel(1.4),
                grid_shape=None, order: int = 1, cfl=None, t_final=None):
    """Build the grid, initialize, and march; returns (grid, U, log)."""
    ni, nj = grid_shape or case.default_grid
    grid = case.grid_factory(ni, nj)
    rho, u, v, p = case.init(grid.xc, grid.yc)
    shape = grid.xc.shape
    U = prim_to_cons_fields(*(np.broadcast_to(np.asarray(q, dtype=float),
                                              shape)
                              for q in (rho, u, v, p)), gas.gamma)
    controls = Controls2D(
        t_final=t_final if t_final is not None else case.t_final,
        cfl=cfl if cfl is not None else case.cfl,
        order=order,
        steady_drop=case.steady_drop)
    U, log = advance_2d(U, grid, case.bc, controls, gas)
    return grid, U, log


def stagnation_line_pressure(grid: StructuredGrid2D, U, gas: GasModel):
    """Pressure along the symmetry row of a half-cylinder grid, ordered
    from the far field toward the body."""
    _, _, _, p = cons_to_prim_fields(U, gas.gamma)
    j = int(np.argmin(np.abs(grid.yc[0, :])))
    return p[:, j]
