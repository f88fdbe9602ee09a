"""2D structured-grid finite-volume Euler solver.

Faces of quadrilateral cells carry the convection-pressure split interface
flux in the face-normal direction; the convection part has all four
eigenvalues equal to the normal velocity (one Jordan block of order two),
the pressure part contributes two acoustic waves.  Only the Zha-Bilgen form
of the split is used in 2D; its face eigenstructure is in `splittings`.

Includes the four benchmark cases (regular shock reflection, compression
ramp, planar-shock/wedge interaction, half cylinder) with body-fitted grid
generators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .splittings import FaceGeometry
from .solver1d import ReconstructionConfig, TimeControls, march, \
    muscl_reconstruct
from .state import GasModel, Prim2D, check_faces, cons_to_prim_arrays, \
    first_index, prim_to_cons_arrays


# --------------------------------------------------------------------------
# geometry

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
        if min(xv.shape) < 2:
            raise ValueError("vertex arrays must span at least one cell, "
                             f"got shape {xv.shape}")
        if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
            raise ValueError("grid vertices must be finite")
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
        dxj = xv[:-1, :] - xv[1:, :]          # (ni, nj+1)
        dyj = yv[:-1, :] - yv[1:, :]
        for name, dx, dy in (("i", dxi, dyi), ("j", dxj, dyj)):
            short = (dx == 0.0) & (dy == 0.0)
            if short.any():
                raise ValueError(f"grid has a zero-length {name} face "
                                 f"{first_index(short)}")
        # nx, ny and half the length ds of the faces of each direction, in
        # rows of nj + 2 padded with ones, a dummy face at both ends of an
        # i row and at the end of a j row: the residual reads the faces of
        # a block of cell rows as one flat run (see _workspace).  Three
        # arrays, not one block of three: on the 400 x 400 wedge one 3.9 MB
        # block shifts the heap layout and raises the run's peak RSS by
        # 4.5 MB.
        self.iface_rows, self.jface_rows = (
            tuple(np.ones((n, self.nj + 2)) for _ in range(3))
            for n in (self.ni + 1, self.ni))
        geom_i = tuple(q[:, 1:-1] for q in self.iface_rows)
        geom_j = tuple(q[:, :-1] for q in self.jface_rows)
        for (nx, ny, half_ds), dx, dy in ((geom_i, dxi, dyi),
                                          (geom_j, dxj, dyj)):
            np.hypot(dx, dy, out=half_ds)
            np.divide(dy, half_ds, out=nx)
            np.divide(-dx, half_ds, out=ny)
            half_ds *= 0.5
        self.iface_nx, self.iface_ny, self.iface_half_ds = geom_i
        self.jface_nx, self.jface_ny, self.jface_half_ds = geom_j
        # each cell's averaged face vectors, half the sum of n ds = (dy, -dx)
        # over its two faces of a direction, and the sum of their lengths,
        # for the time step (compute_dt_2d)
        self.si_x = 0.5 * (dyi[:-1] + dyi[1:])
        self.si_y = -0.5 * (dxi[:-1] + dxi[1:])
        self.sj_x = 0.5 * (dyj[:, :-1] + dyj[:, 1:])
        self.sj_y = -0.5 * (dxj[:, :-1] + dxj[:, 1:])
        self.s_len = (np.hypot(self.si_x, self.si_y)
                      + np.hypot(self.sj_x, self.sj_y))

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
# interface flux

def _face_sides(rho, u, v, p, gamma, out):
    """What the face flux reads from the states on one side of its faces:
    (rho, u, v, p, sqrt(rho), (gamma - 1) p / sqrt(rho), rho u, rho v,
    rho H), the last five written into the five arrays of out.  At order 1
    the face states are the cells, so the residual computes these once per
    cell, not once per face and side."""
    s, ps, ru, rv, rH = out
    np.sqrt(rho, out=s)
    np.multiply(rho, u, out=ru)
    np.multiply(rho, v, out=rv)
    np.multiply(ru, u, out=rH)           # rH = 0.5 (ru u + rv v)
    np.multiply(rv, v, out=ps)
    rH += ps
    rH *= 0.5
    np.multiply(gamma / (gamma - 1.0), p, out=ps)   # + gamma p / (gamma - 1)
    rH += ps
    np.multiply(gamma - 1.0, p, out=ps)
    ps /= s
    return rho, u, v, p, s, ps, ru, rv, rH


def _sides_flux(left, right, nx, ny, gamma, half_ds, out, tmp):
    """Vectorized face flux times the face length, written into out, from
    the side tuples of _face_sides and half_ds, half the face length.

    out holds the four flux components, tmp nine arrays of the same shape
    for the temporaries; the other arguments broadcast to that shape.  The
    flux is the average of the two normal fluxes
    u_perp (rho, rho u, rho v, rho H) + p (0, n_x, n_y, 0) minus half the
    dissipation |u_perp| dU + sum_i alpha_i |lambda_i| R_i at the
    sqrt(rho)-weighted state (a, rb = sqrt(rho_L rho_R), u_perp).

    The convection part has the single eigenvalue u_perp with an order-two
    Jordan chain, so R_c |L_c| R_c^-1 dU is |u_perp| dU whatever the
    generalized eigenvector: with the weighted averages the Roe identities
    d(rho u) = rb du + u d(rho) and d(rho |u|^2 / 2) = |u|^2 d(rho) / 2
    + rb u . du hold exactly, so the conserved jump dU is used as it is.
    Central part and |u_perp| dU combine into U_L (u_perp,L + |u_perp|)
    + U_R (u_perp,R - |u_perp|); in the energy row
    d(rho E) = d(rho H) - dp.

    The strengths a1, a4 of the two acoustic waves, of speed
    lam = sqrt((gamma - 1) / gamma) a, enter only as
    lam (a1 + a4) = lam rb du_perp and
    lam s (a4 - a1) = a dp / sqrt(gamma (gamma - 1)) = lam dp / (gamma - 1),
    with s = a / sqrt(gamma (gamma - 1)).

    Every temporary is written in place, one operation at a time in the
    order of evaluation of the plain expressions, so the result does not
    depend on the buffers it is given.
    """
    rL, uL, vL, pL, sL, psL, ruL, rvL, rHL = left
    rR, uR, vR, pR, sR, psR, ruR, rvR, rHR = right
    a, iw, upL, upR, upb, absu, lam, q, pn = tmp
    np.add(sL, sR, out=iw)               # iw = 1 / (sL + sR)
    np.divide(1.0, iw, out=iw)
    np.multiply(uL, nx, out=upL)         # upL = uL nx + vL ny
    np.multiply(vL, ny, out=a)
    upL += a
    np.multiply(uR, nx, out=upR)
    np.multiply(vR, ny, out=a)
    upR += a
    np.multiply(sL, upL, out=upb)        # upb = (sL upL + sR upR) iw
    np.multiply(sR, upR, out=a)
    upb += a
    upb *= iw
    np.abs(upb, out=absu)
    np.add(psL, psR, out=lam)            # lam = sqrt((psL + psR) iw)
    lam *= iw
    np.sqrt(lam, out=lam)
    b = iw                               # iw is free from here on
    np.multiply(sL, sR, out=q)           # q = lam (sL sR) (upR - upL)
    np.multiply(lam, q, out=q)
    np.subtract(upR, upL, out=a)
    q *= a
    np.add(pL, pR, out=pn)               # pn = pL + pR - q
    pn -= q
    cL, cR = upL, upR                    # cL = upL + absu, cR = upR - absu
    cL += absu
    cR -= absu

    np.multiply(rL, cL, out=a)           # (rL cL + rR cR) half_ds
    np.multiply(rR, cR, out=b)
    a += b
    np.multiply(a, half_ds, out=out[0])
    for k, rqL, rqR, n in ((1, ruL, ruR, nx), (2, rvL, rvR, ny)):
        np.multiply(rqL, cL, out=a)      # (rqL cL + rqR cR + pn n) half_ds
        np.multiply(rqR, cR, out=b)
        a += b
        np.multiply(pn, n, out=b)
        a += b
        np.multiply(a, half_ds, out=out[k])
    np.multiply(rHL, cL, out=a)          # (rHL cL + rHR cR
    np.multiply(rHR, cR, out=b)
    a += b
    lam /= gamma - 1.0                   # + (pR - pL) (absu - lam / (g - 1))
    np.subtract(absu, lam, out=lam)
    np.subtract(pR, pL, out=b)
    b *= lam
    a += b
    np.multiply(q, upb, out=b)           # - q upb) half_ds
    a -= b
    np.multiply(a, half_ds, out=out[3])
    return out


def _flux_2d_kernel(rL, uL, vL, pL, rR, uR, vR, pR, nx, ny, gamma,
                    ds=1.0, out=None):
    """_sides_flux of the primitive face states (rL, uL, vL, pL) and
    (rR, uR, vR, pR), which broadcast together with nx, ny and ds; out is
    allocated if not given.  The call makes its own workspace."""
    shape = np.broadcast(rL, uL, vL, pL, rR, uR, vR, pR, nx, ny, ds).shape
    if out is None:
        out = np.empty((4,) + shape)
    ws = np.empty((19,) + shape)
    return _sides_flux(_face_sides(rL, uL, vL, pL, gamma, ws[9:14]),
                       _face_sides(rR, uR, vR, pR, gamma, ws[14:]), nx, ny,
                       gamma, 0.5 * ds, out, ws[:9])


def interface_flux_2d(wL: Prim2D, wR: Prim2D, geom: FaceGeometry,
                      gas: GasModel) -> np.ndarray:
    """Flux of (rho, rho u, rho v, rho E) across one face, per unit face
    length: `_flux_2d_kernel` on one-element arrays, at the unit normal of
    geom.  geom.ds is not applied; a caller wanting the flux through the
    face multiplies by it."""
    return _flux_2d_kernel(
        *(np.array([q]) for w in (wL, wR) for q in w),
        geom.n_x, geom.n_y, gas.gamma)[:, 0]


# --------------------------------------------------------------------------
# conserved <-> primitive fields: `state`'s pair, under the names that
# perfbench (its 2D set-up and layer trace) and a test counting calls per
# stage reach; advance_2d looks cons_to_prim_fields up here at each stage.

def cons_to_prim_fields(U, gamma, out=None):
    """(4, ni, nj) conserved field -> (4, ni, nj) primitive fields, written
    into out if it is given (see cons_to_prim_arrays)."""
    return cons_to_prim_arrays(U, gamma, out)


def prim_to_cons_fields(rho, u, v, p, gamma):
    return prim_to_cons_arrays((rho, u, v, p), gamma)


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
        fixed = self.kind in (Bc2DKind.SUPERSONIC_INFLOW,
                              Bc2DKind.POST_SHOCK_DIRICHLET)
        if fixed and self.state is None:
            raise ValueError(f"{self.kind.value} needs a fixed state")
        if fixed and not isinstance(self.state, Prim2D):
            raise TypeError(f"{self.kind.value} needs a Prim2D state, got "
                            f"{type(self.state).__name__}")
        if not fixed and self.state is not None:
            raise ValueError(f"{self.kind.value} reads no state")

    @cached_property
    def ghost(self):
        """The fixed state as a read-only (4, 1, 1) column, the value of
        every ghost cell beyond this boundary; built on first use."""
        col = np.array([*self.state])[:, None, None]
        col.flags.writeable = False
        return col


def _ghost_layers(cells, spec: BoundarySpec, ng, low, nxb, nyb, out):
    """Write ng ghost layers beyond one end of axis 1 of the (4, n, m)
    primitive cell fields into the (4, ng, m) array out, in one assignment
    per boundary.

    low selects which end; nxb, nyb are the boundary face normals (one per
    transverse index).  Layers are ordered ready to stack against the
    interior: for the low side, row ng-1 is adjacent to the interior.
    """
    if spec.kind is Bc2DKind.SUPERSONIC_OUTFLOW:
        out[...] = cells[:, :1] if low else cells[:, -1:]
    elif spec.kind is Bc2DKind.SLIP_WALL:
        # mirror interior layer k, nearest the wall first, across the face
        out[...] = cells[:, ng - 1::-1] if low else cells[:, :-ng - 1:-1]
        un = out[1] * nxb + out[2] * nyb
        un *= 2.0
        out[1] -= un * nxb
        out[2] -= un * nyb
    else:   # a fixed state
        out[...] = spec.ghost


def _extend(W, grid: StructuredGrid2D, bc: dict, ng, out):
    """Write the primitive cell fields W (an array or a sequence of four
    fields) and ng ghost layers beyond each of the four boundaries into
    out, of shape (4, ni + 2 ng, nj + 2 ng); returns out.  The ng x ng
    corners are not written.

    The j ghosts are the i ghosts of the transposed fields, written through
    the transposed view of out."""
    cells = out[:, ng:-ng, ng:-ng]
    cells[...] = W
    for fields, ext, nx, ny, lo, hi in (
            (cells, out[:, :, ng:-ng], grid.iface_nx, grid.iface_ny,
             "imin", "imax"),
            (cells.transpose(0, 2, 1), out[:, ng:-ng].transpose(0, 2, 1),
             grid.jface_nx.T, grid.jface_ny.T, "jmin", "jmax")):
        _ghost_layers(fields, bc[lo], ng, True, nx[0], ny[0], ext[:, :ng])
        _ghost_layers(fields, bc[hi], ng, False, nx[-1], ny[-1],
                      ext[:, -ng:])
    return out


# --------------------------------------------------------------------------
# time marching

# Fewest cells of a 2D grid along each direction.
MIN_CELLS_2D = 2


def check_grid_shape(ni, nj):
    """Raise ValueError unless an ni x nj grid has at least MIN_CELLS_2D
    cells along each direction."""
    if min(ni, nj) < MIN_CELLS_2D:
        raise ValueError(f"grid must be at least {MIN_CELLS_2D}x"
                         f"{MIN_CELLS_2D}, got {ni}x{nj}")


def compute_dt_2d(rho, u, v, p, grid: StructuredGrid2D, gas: GasModel,
                  cfl: float) -> float:
    """The standard unsplit time step in the form of Blazek (Computational
    Fluid Dynamics: Principles and Applications, ch. 6): cfl times the
    smallest area / (L_i + L_j), with the cell's own state and
    L = |u . S| + a |S| the spectral radius of a direction, S its averaged
    face vector, half the sum of n ds over the cell's two faces of that
    direction (grid.si_x, ..., and grid.s_len = |S_i| + |S_j|).

    On a parallelogram the opposite faces share n ds, so L_i + L_j is half
    the sum over the four faces of (|u . n| + a) ds; elsewhere the triangle
    inequality makes it no larger, so dt is never smaller than that
    face-by-face bound.  On a Cartesian cell this is
    cfl / ((|u| + a)/dx + (|v| + a)/dy), the 2D analogue of 1D compute_dt;
    cfl = 0.5 is linearly stable for first-order ZBS (its limit at rest is
    0.80).

    The temporaries span one flux block of cell rows (_block_rows), not
    the field; the smallest of the block minima is the field's minimum,
    so the result does not depend on the block size."""
    rows = _block_rows(grid)
    least = np.inf                       # np.minimum keeps a nan, as np.min
    for r0 in range(0, grid.ni, rows):
        b = slice(r0, r0 + rows)
        ub, vb = u[b], v[b]
        tot = np.multiply(gas.gamma, p[b])   # a = sqrt(gamma p / rho)
        tot /= rho[b]
        np.sqrt(tot, out=tot)
        tot *= grid.s_len[b]
        un, t = np.empty_like(tot), np.empty_like(tot)
        for sx, sy in ((grid.si_x, grid.si_y), (grid.sj_x, grid.sj_y)):
            np.multiply(ub, sx[b], out=un)      # |u . S|, in place
            np.multiply(vb, sy[b], out=t)
            un += t
            np.abs(un, out=un)
            tot += un
        np.divide(grid.area[b], tot, out=tot)
        least = np.minimum(least, tot.min())
        del tot, un, t                   # before the next block makes its own
    return cfl * float(least)


# Faces of one direction per flux block: the kernel's temporaries for one
# block fit the 2 MiB L2 cache.  A block is a whole number of cell rows (at
# least one), each with nj + 1 j faces.  The value is read when a
# workspace is made, and sizes its buffers and its blocks, and at each
# compute_dt_2d call, which forms its temporaries one block at a time.
_BLOCK_FACES = 8192


def _block_rows(grid: StructuredGrid2D):
    """Cell rows in one flux block."""
    return min(grid.ni, max(1, _BLOCK_FACES // (grid.nj + 1)))


class _Faces(NamedTuple):
    """The faces of one direction in one flux block, as one flat run.

    sides are the _face_sides calls, as (args, out) pairs, that the flux
    needs first: at order 1 the i faces hold the block's one call on its
    cells and the j faces none, at order 2 each direction holds one call
    per side on the faces' reconstructed states.  left and right are the
    _face_sides tuples of the faces' two sides, views of those calls'
    arguments and outputs.  nx, ny, half_ds are the face geometry, flux
    and tmp the kernel's output and temporaries, and low - high, two views
    of flux, is minus the net flux out of each cell of the block through
    its two faces of this direction.
    """
    sides: tuple
    left: tuple
    right: tuple
    nx: np.ndarray
    ny: np.ndarray
    half_ds: np.ndarray
    flux: np.ndarray
    tmp: np.ndarray
    high: np.ndarray
    low: np.ndarray


class _Plan(NamedTuple):
    """One flux block of cell rows: the rows of the residual it writes, its
    i and j faces, and diff, a buffer for the j faces' net flux."""
    rows: slice
    i: _Faces
    j: _Faces
    diff: np.ndarray


class _Workspace(NamedTuple):
    """What residual_2d reuses, built once per march.

    fields holds the four primitive fields with ng ghost layers beyond each
    boundary, shape (4, ni + 2 ng, nj + 2 ng).  Nothing writes its ng x ng
    corners; fields is allocated with ones, so they hold a physical state.
    states holds the face states of the i and the j faces at order 2, as
    _face_states lays them out, and is None at order 1.  plans holds the
    flux blocks, which share one set of buffers.
    """
    fields: np.ndarray
    states: Optional[tuple]
    plans: tuple


def _workspace(grid: StructuredGrid2D, order: int) -> _Workspace:
    """The workspace of residual_2d for grid at the given order.

    A face row of either direction runs over m = nj + 2 columns: an i face
    row the faces between two extended rows, a j face row the faces
    between the extended columns of one cell row and the one that wraps to
    the next row.  So a block's faces of a direction are one flat run of
    the grid's face rows (grid.iface_rows, grid.jface_rows) and of their
    sides: at order 1 the cells of the block and its ghosts, at order 2
    the face states, where both sides of a face share one offset.  The
    faces that ghost columns and wraps add read physical ghost, corner or
    dummy states and the grid's dummy geometry, and are dropped.
    """
    ni, nj, rows = grid.ni, grid.nj, _block_rows(grid)
    m = nj + 2
    size = (rows + 2) * m
    fields = np.ones((4, ni + 2 * order, nj + 2 * order))   # ng = order
    tmp, flux = np.empty((9, size)), np.empty((4, size))
    sides = np.empty((5 * order, size))
    states = None if order == 1 else (np.ones((2, 4, (ni + 3) * m)),
                                      np.ones((2, 4, ni * m + 1)))
    plans = []
    for r0 in range(0, ni, rows):
        r1 = min(r0 + rows, ni)
        n = r1 - r0
        n_i, n_j = (n + 1) * m, n * m - 1
        geom_i = [g[r0:r1 + 1].reshape(-1) for g in grid.iface_rows]
        geom_j = [g[r0:r1].reshape(-1)[:n_j] for g in grid.jface_rows]
        if order == 1:
            cells = tuple(fields[:, r0:r1 + 2].reshape(4, -1))
            out = tuple(sides[:, :(n + 2) * m])
            calls_i, calls_j, run = ((cells, out),), (), cells + out
            left_i, right_i = (tuple(q[k:k + n_i] for q in run)
                               for k in (0, m))
            left_j, right_j = (tuple(q[k:k + n_j] for q in run)
                               for k in (m, m + 1))
        else:
            calls_i, calls_j = (
                tuple((tuple(st[s, :, k:k + n_f]),
                       tuple(sides[5 * s:5 * s + 5, :n_f])) for s in (0, 1))
                for st, k, n_f in ((states[0], (r0 + 1) * m, n_i),
                                   (states[1], 1 + r0 * m, n_j)))
            (left_i, right_i), (left_j, right_j) = (
                (args + out for args, out in calls)
                for calls in (calls_i, calls_j))
        f_i = flux[:, :n_i].reshape(4, n + 1, m)[:, :, 1:-1]
        f_j = flux[:, :n * m].reshape(4, n, m)
        plans.append(_Plan(
            slice(r0, r1),
            _Faces(calls_i, left_i, right_i, *geom_i, flux[:, :n_i],
                   tmp[:, :n_i], f_i[:, 1:], f_i[:, :-1]),
            _Faces(calls_j, left_j, right_j, *geom_j, flux[:, :n_j],
                   tmp[:, :n_j], f_j[:, :, 1:-1], f_j[:, :, :-2]),
            tmp[:4, :n * nj].reshape(4, n, nj)))
    return _Workspace(fields, states, tuple(plans))


def _face_states(fields, states, recon: ReconstructionConfig, h):
    """Write the MUSCL face states of the extended fields into states, the
    (2, 4, (ni + 3) m) i states and the (2, 4, ni m + 1) j states, m =
    nj + 2, and check them.

    The left and the right state of a face share one flat offset of the
    fields of sides 0 and 1, and both directions lay their states in rows
    of m.  The states of i face (r, c), the high face value of extended
    row r + 1 and the low one of row r + 2 in grid column c, are at
    (r + 1) m + c + 1; the two slots of each row at c = -1 and c = nj are
    never written and stay ones.  The j states are rows of m, one per cell
    row, and those of j face (r, c) are at 1 + r m + c; the face at the
    end of a row wraps to the next and is dropped.  The row ends that only
    it reads are set to ones before the check.  So both scans run over
    whole rows of m and find no fault in the dummy columns.  Every face is
    checked, the i faces first, before any flux is formed; a failed check
    names the face by its grid index (i, j).
    """
    ni, nj = fields.shape[1] - 4, fields.shape[2] - 4
    m = nj + 2
    st_i, st_j = states
    for q, lo, hi in zip(fields[:, :, 2:-2], st_i[1, :, :(ni + 2) * m],
                         st_i[0, :, m:]):
        muscl_reconstruct(q, h, recon.limiter_k,
                          out=(lo.reshape(ni + 2, m)[:, 1:-1],
                               hi.reshape(ni + 2, m)[:, 1:-1]))
    for q, lo, hi in zip(fields[:, 2:-2].transpose(0, 2, 1),
                         st_j[1, :, :ni * m], st_j[0, :, 1:]):
        muscl_reconstruct(q, h, recon.limiter_k,
                          out=(lo.reshape(ni, m).T, hi.reshape(ni, m).T))
    st_j[0, :, m::m] = 1.0               # high values of extended column m - 1
    st_j[1, :, :ni * m:m] = 1.0          # low values of extended column 0
    check_faces(st_i[:, :, m + 1:(ni + 2) * m + 1].reshape(2, 4, ni + 1, m))
    check_faces(st_j[:, :, 1:1 + ni * m].reshape(2, 4, ni, m))


def residual_2d(W, grid: StructuredGrid2D, bc: dict,
                recon: ReconstructionConfig, gas: GasModel, ws=None,
                out=None):
    """-(1/A) sum of face fluxes times face lengths; shape (4, ni, nj).

    W holds the primitive cell fields (rho, u, v, p).  ws is the workspace
    that a march made for this grid and order; a call without one makes
    its own.  The residual is written into out, a (4, ni, nj) float array,
    if it is given, else into a new array.  out may be W itself: W is read
    only once, when it is copied into the workspace's ghosted fields.

    The faces are evaluated in blocks of cell rows: first the i faces that
    bound the block's cells, then the j faces of those cells.  An i face
    row shared by two blocks is evaluated in both, from the same inputs,
    so every cell takes the same operations whatever the block size.  At
    order 1 the face sides are the cells on either side of the faces,
    evaluated once per cell of the block and its ghosts.
    """
    g = gas.gamma
    if ws is None:
        ws = _workspace(grid, recon.order)
    fields = _extend(W, grid, bc, recon.order, ws.fields)   # ng = order
    if recon.order == 2:
        _face_states(fields, ws.states, recon, grid.h)
    net = np.empty((4, grid.ni, grid.nj)) if out is None else out
    for plan in ws.plans:
        cells = net[:, plan.rows]
        for faces, diff in ((plan.i, cells), (plan.j, plan.diff)):
            for args, out in faces.sides:
                _face_sides(*args, g, out)
            _sides_flux(faces.left, faces.right, faces.nx, faces.ny, g,
                        faces.half_ds, faces.flux, faces.tmp)
            np.subtract(faces.low, faces.high, out=diff)
        cells += plan.diff
    net /= grid.area
    return net


def advance_2d(U, grid: StructuredGrid2D, bc: dict,
               recon: ReconstructionConfig, controls: TimeControls,
               gas: GasModel):
    """March a (4, ni, nj) conserved field to controls.t_final (or steady
    state).

    Raises ValueError, before any step, for a grid with fewer than
    MIN_CELLS_2D cells along a direction.  All residuals of the march
    share one workspace, and every stage one (4, ni, nj) buffer: its
    primitives are written into it, then its residual over them.  The
    buffer is an array of its own, not the interior of the workspace's
    ghosted fields: the primitive recovery and the time step run faster
    on a contiguous array."""
    check_grid_shape(grid.ni, grid.nj)
    ws = _workspace(grid, recon.order)
    stage = np.empty((4, grid.ni, grid.nj))
    return march(
        U,
        lambda U: cons_to_prim_fields(U, gas.gamma, out=stage),
        lambda W: compute_dt_2d(*W, grid, gas, controls.cfl),
        lambda W: residual_2d(W, grid, bc, recon, gas, ws=ws, out=W),
        controls, recon.order, "zbs-2d")


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
    notes: str = ""


def _uniform(w: Prim2D):
    return lambda x, y: tuple(np.full_like(x, q) for q in w)


def shock_reflection_case() -> CaseSpec2D:
    inflow = Prim2D(1.0, 2.9, 0.0, 1.0 / 1.4)
    top = Prim2D(1.69997, 2.61934, -0.50633, 1.52819)
    return CaseSpec2D(
        name="shock-reflection",
        grid_factory=lambda ni, nj: cartesian_grid(0.0, 3.0, 0.0, 1.0,
                                                   ni, nj),
        default_grid=(120, 40),
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
        return tuple(np.where(x < x0, a, b) for a, b in zip(post, pre))

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


def half_cylinder_case(mach: float = 6.0) -> CaseSpec2D:
    free = Prim2D(1.4, mach, 0.0, 1.0)   # sound speed 1, so u = mach
    return CaseSpec2D(
        name="half-cylinder",
        grid_factory=half_cylinder_grid,
        default_grid=(45, 45),
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
    ni, nj = case.default_grid if grid_shape is None else grid_shape
    grid = case.grid_factory(ni, nj)
    U = prim_to_cons_arrays(
        [np.broadcast_to(np.asarray(q, dtype=float), grid.xc.shape)
         for q in case.init(grid.xc, grid.yc)], gas.gamma)
    controls = TimeControls(t_final if t_final is not None else case.t_final,
                            cfl if cfl is not None else case.cfl,
                            steady_drop=case.steady_drop)
    recon = ReconstructionConfig(order)
    U, log = advance_2d(U, grid, case.bc, recon, controls, gas)
    return grid, U, log


def stagnation_line_pressure(grid: StructuredGrid2D, U, gas: GasModel):
    """Pressure along the symmetry row of a half-cylinder grid, ordered
    from the far field toward the body."""
    p = cons_to_prim_arrays(U, gas.gamma)[3]
    j = int(np.argmin(np.abs(grid.yc[0, :])))
    return p[:, j]
