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
from typing import Callable, Optional

import numpy as np

from .splittings import FaceGeometry
from .solver1d import ReconstructionConfig, TimeControls, march, \
    muscl_reconstruct
from .state import GasModel, Prim2D, check_faces, cons_to_prim_arrays, \
    prim_to_cons_arrays


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
        # length of each cell's boundary, for the time-step scan
        self.perimeter = (self.iface_ds[:-1] + self.iface_ds[1:]
                          + self.jface_ds[:, :-1] + self.jface_ds[:, 1:])

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


def _sides_flux(left, right, nx, ny, gamma, ds, out, tmp):
    """Vectorized face flux times the face length ds, written into out,
    from the side tuples of _face_sides.

    out holds the four flux components, tmp ten arrays of the same shape
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
    a, iw, upL, upR, upb, absu, lam, q, pn, half_ds = tmp
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
    np.multiply(0.5, ds, out=half_ds)

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
    ws = np.empty((20,) + shape)
    return _sides_flux(_face_sides(rL, uL, vL, pL, gamma, ws[10:15]),
                       _face_sides(rR, uR, vR, pR, gamma, ws[15:]), nx, ny,
                       gamma, ds, out, ws[:10])


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

def cons_to_prim_fields(U, gamma, *, step=None):
    """(4, ni, nj) conserved field -> (4, ni, nj) primitive fields."""
    return cons_to_prim_arrays(U, gamma, step=step)


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


def _ghost_layers(rho, u, v, p, spec: BoundarySpec, ng, low, nxb, nyb, out):
    """Write ng ghost layers beyond one end of axis 0 of the fields into
    the four (ng, m) arrays of out.

    rho, u, v, p have the face-normal direction on axis 0; low selects
    which end.
    nxb, nyb are the boundary face normals (one per transverse index).
    Layers are ordered ready to stack against the interior: for the low
    side, row ng-1 is adjacent to the interior.
    """
    for k in range(ng):          # k = 0 is the layer nearest the wall
        row = (ng - 1 - k) if low else k
        if spec.kind in (Bc2DKind.SUPERSONIC_INFLOW,
                         Bc2DKind.POST_SHOCK_DIRICHLET):
            for a, q in zip(out, spec.state):
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


def _extend(W, grid: StructuredGrid2D, bc: dict, ng, out):
    """Write the primitive cell fields W and ng ghost layers beyond each of
    the four boundaries into out, of shape (4, ni + 2 ng, nj + 2 ng);
    returns out.  The ng x ng corners are not written.

    The j ghosts are the i ghosts of the transposed fields, written through
    the transposed view of out."""
    for e, q in zip(out[:, ng:-ng], W):
        e[:, ng:-ng] = q
    for cells, ext, nx, ny, lo, hi in (
            (W, out[:, :, ng:-ng], grid.iface_nx, grid.iface_ny,
             "imin", "imax"),
            ([q.T for q in W], out[:, ng:-ng].transpose(0, 2, 1),
             grid.jface_nx.T, grid.jface_ny.T, "jmin", "jmax")):
        _ghost_layers(*cells, bc[lo], ng, True, nx[0], ny[0], ext[:, :ng])
        _ghost_layers(*cells, bc[hi], ng, False, nx[-1], ny[-1],
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
    """The standard unsplit time step: cfl times the smallest area / (L_i
    + L_j), with the cell's own state and L_i, L_j the spectral radii of
    the i and j directions, each (|u . n| + a) ds averaged over that
    direction's two faces.  L_i + L_j is half the sum over the cell's four
    faces, 0.5 (a P + sum |u . n| ds).  On a Cartesian cell this is
    cfl / ((|u| + a)/dx + (|v| + a)/dy), the 2D analogue of 1D compute_dt;
    cfl = 0.5 is linearly stable for first-order ZBS (its limit at rest is
    0.80)."""
    tot = np.multiply(gas.gamma, p)      # a = sqrt(gamma p / rho), in place
    tot /= rho
    np.sqrt(tot, out=tot)
    tot *= grid.perimeter
    un, t = np.empty_like(tot), np.empty_like(tot)
    for nx, ny, ds in (
            (grid.iface_nx[:-1, :], grid.iface_ny[:-1, :],
             grid.iface_ds[:-1, :]),
            (grid.iface_nx[1:, :], grid.iface_ny[1:, :],
             grid.iface_ds[1:, :]),
            (grid.jface_nx[:, :-1], grid.jface_ny[:, :-1],
             grid.jface_ds[:, :-1]),
            (grid.jface_nx[:, 1:], grid.jface_ny[:, 1:],
             grid.jface_ds[:, 1:])):
        np.multiply(u, nx, out=un)       # |u . n| ds, in place
        np.multiply(v, ny, out=t)
        un += t
        np.abs(un, out=un)
        un *= ds
        tot += un
    tot *= 0.5          # L_i + L_j; a power of two, so exact
    np.divide(grid.area, tot, out=tot)
    return cfl * float(np.min(tot))


# Faces of one direction per flux block: the kernel's temporaries for one
# block fit the 2 MiB L2 cache.  A block is a whole number of cell rows (at
# least one), each with nj + 1 j faces.  The value also sizes the buffers
# of a _Workspace, so it is read both when a workspace is made and when a
# residual is cut into blocks.
_BLOCK_FACES = 8192


def _block_rows(grid: StructuredGrid2D):
    """Cell rows in one flux block."""
    return min(grid.ni, max(1, _BLOCK_FACES // (grid.nj + 1)))


# Buffers of _Workspace.blocks: ten flux temporaries, the four components
# of the block flux, then the face sides, five per set: one set of cells
# at order 1, the left and the right face states at order 2.
_TMP, _FLUX, _SIDES = 0, 10, 14


@dataclass(frozen=True)
class _Workspace:
    """Buffers that residual_2d reuses in every flux block.

    fields holds the four primitive fields with ng ghost layers beyond each
    boundary, shape (4, ni + 2 ng, nj + 2 ng).  Nothing writes its ng x ng
    corners; fields is allocated with ones, so they hold a physical state,
    whose face sides order 1 computes and no flux reads.  Each row of
    blocks holds the cells of one flux block: at order 1 the block's cells
    with the extended rows and columns around them, at order 2 the faces
    of either direction, at most (rows + 1) (nj + 1).
    """
    fields: np.ndarray
    blocks: np.ndarray


def _workspace(grid: StructuredGrid2D, order: int) -> _Workspace:
    """The workspace of residual_2d for grid at the given order."""
    ni, nj, rows = grid.ni, grid.nj, _block_rows(grid)
    if order == 1:
        ng, block = 1, (rows + 2) * (nj + 2)
    else:
        ng, block = 2, (rows + 1) * (nj + 1)
    return _Workspace(np.ones((4, ni + 2 * ng, nj + 2 * ng)),
                      np.empty((_SIDES + 5 * order, block)))


def _take(buffers, shape):
    """The leading cells of each row of buffers, as one C-ordered
    (len(buffers), *shape) array of views.  It only splits the contiguous
    last axis, which never copies, so writes reach the buffers."""
    return buffers[:, :shape[0] * shape[1]].reshape((len(buffers),) + shape)


def _block_sides(fields, recon: ReconstructionConfig, h, gamma, step,
                 blocks):
    """Face sides of the residual from its extended fields, by block.

    Returns sides(r0, r1), which yields the left and right _face_sides
    tuples of the i faces r0 .. r1, then those of the j faces of the cell
    rows r0 .. r1 - 1, computed into the side buffers of blocks; draw the
    j sides only when the i sides are used up.  At order 1 the sides are
    the cells on either side of the faces, evaluated once per cell of the
    block and its ghosts.  At order 2 the MUSCL face states are
    reconstructed and checked here, the i faces first, before any flux is
    formed; a failed check names the face by its grid index (i, j).
    """
    if recon.order == 1:
        def sides(r0, r1):
            rect = fields[:, r0:r1 + 2]
            cells = _face_sides(*rect, gamma,
                                _take(blocks[_SIDES:], rect.shape[1:]))
            yield (tuple(q[:-1, 1:-1] for q in cells),
                   tuple(q[1:, 1:-1] for q in cells))
            yield (tuple(q[1:-1, :-1] for q in cells),
                   tuple(q[1:-1, 1:] for q in cells))
        return sides
    faces = []          # left and right states of the i faces, the j faces
    for ext in (fields[:, :, 2:-2], fields[:, 2:-2].transpose(0, 2, 1)):
        lo, hi = zip(*(muscl_reconstruct(q, h, recon.limiter_k)
                       for q in ext))
        faces.append(([q[:-1] for q in hi], [q[1:] for q in lo]))
    faces[1] = tuple([q.T for q in side] for side in faces[1])
    for states in faces:
        check_faces(states, step)

    def sides(r0, r1):
        for (left, right), rows in zip(faces, (slice(r0, r1 + 1),
                                               slice(r0, r1))):
            shape = left[0][rows].shape
            yield tuple(
                _face_sides(*(q[rows] for q in states), gamma,
                            _take(blocks[k:k + 5], shape))
                for states, k in ((left, _SIDES), (right, _SIDES + 5)))
    return sides


def _block_flux(left, right, nx, ny, gamma, ds, blocks):
    """_sides_flux of one block of faces, into the flux buffers of
    blocks."""
    return _sides_flux(left, right, nx, ny, gamma, ds,
                       _take(blocks[_FLUX:_SIDES], ds.shape),
                       _take(blocks[_TMP:_FLUX], ds.shape))


def residual_2d(W, grid: StructuredGrid2D, bc: dict,
                recon: ReconstructionConfig, gas: GasModel, step=None,
                ws: Optional[_Workspace] = None):
    """-(1/A) sum of face fluxes times face lengths; shape (4, ni, nj).

    W holds the primitive cell fields (rho, u, v, p).  ws is the workspace
    that a march made for this grid and order; a call without one makes
    its own.

    The faces are evaluated in blocks of cell rows: first the i faces that
    bound the block's cells, then the j faces of those cells.  An i face
    row shared by two blocks is evaluated in both, from the same inputs,
    so every cell takes the same operations whatever the block size.
    """
    g = gas.gamma
    ng = 1 if recon.order == 1 else 2
    if ws is None:
        ws = _workspace(grid, recon.order)
    fields = _extend(W, grid, bc, ng, ws.fields)
    sides = _block_sides(fields, recon, grid.h, g, step, ws.blocks)
    net = np.empty((4, grid.ni, grid.nj))
    rows = _block_rows(grid)
    for r0 in range(0, grid.ni, rows):
        r1 = min(r0 + rows, grid.ni)
        cells = net[:, r0:r1]
        block = sides(r0, r1)
        f = slice(r0, r1 + 1)            # the i faces of the cells
        flux = _block_flux(*next(block), grid.iface_nx[f], grid.iface_ny[f],
                           g, grid.iface_ds[f], ws.blocks)
        np.subtract(flux[:, 1:], flux[:, :-1], out=cells)
        f = slice(r0, r1)                # and their j faces
        flux = _block_flux(*next(block), grid.jface_nx[f], grid.jface_ny[f],
                           g, grid.jface_ds[f], ws.blocks)
        cells += np.subtract(flux[:, :, 1:], flux[:, :, :-1],
                             out=_take(ws.blocks[_TMP:_TMP + 4],
                                       cells.shape[1:]))
    net /= -grid.area
    return net


def advance_2d(U, grid: StructuredGrid2D, bc: dict,
               recon: ReconstructionConfig, controls: TimeControls,
               gas: GasModel):
    """March a (4, ni, nj) conserved field to controls.t_final (or steady
    state).

    Raises ValueError, before any step, for a grid with fewer than
    MIN_CELLS_2D cells along a direction.  All residuals of the march
    share one workspace."""
    check_grid_shape(grid.ni, grid.nj)
    ws = _workspace(grid, recon.order)
    return march(
        U,
        lambda U, step: cons_to_prim_fields(U, gas.gamma, step=step),
        lambda W: compute_dt_2d(*W, grid, gas, controls.cfl),
        lambda W, step: residual_2d(W, grid, bc, recon, gas, step, ws),
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
    ni, nj = grid_shape or case.default_grid
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
