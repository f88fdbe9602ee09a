"""Convection-pressure splittings of the Euler flux and their eigenstructure.

Three splittings are supported.  Each writes F = F_c + F_p, differing in how
much of the pressure work ends up on the pressure side:

  * Liou-Steffen:  F_p = (0, p, 0)
  * Zha-Bilgen:    F_p = (0, p, p u)
  * Toro-Vazquez:  F_p = (0, p, gamma p u / (gamma - 1))

Every convection Jacobian is weakly hyperbolic (real eigenvalues, defective
eigenvector set).  Each basis is completed with a generalized eigenvector
forming a Jordan chain of order two (Toro & Vazquez-Cendon, Computers &
Fluids 70, 2012).  No scheme is built on the Liou-Steffen split (Liou &
Steffen, JCP 107, 1993): its convection and pressure dissipations both jump
at u = 0 (see `pressure_eigensystem`).

The 2D face-normal Zha-Bilgen split follows the same pattern.
`EigenSystem` is the one decomposition type: `verify_jordan` checks it against
a Jacobian, and `upwind_dissipation` assembles R |Lambda| R^-1 dU from it.
Evaluated at `face_average(wL, wR)`, the convection and pressure terms
together are the reference that both flux kernels are checked against.
Each function also takes a stack of states (fields that are arrays of one
shape), and returns vectors (..., n) and matrices (..., n, n).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .state import GasModel, Prim2D, PrimitiveState, prim_to_cons_arrays, \
    total_energy


class SplittingKind(enum.Enum):
    LIOU_STEFFEN = "liou-steffen"
    ZHA_BILGEN = "zha-bilgen"
    TORO_VAZQUEZ = "toro-vazquez"


@dataclass(frozen=True)
class SplitFlux:
    convection: np.ndarray
    pressure: np.ndarray

    @property
    def total(self):
        return self.convection + self.pressure


@dataclass
class EigenSystem:
    """Eigenvalues with a square, complete basis of (generalized)
    eigenvectors.

    ``chain_links[k] = j`` declares column k generalized with chain head j:
    A R_k = lambda_k R_k + R_j.
    """

    eigenvalues: np.ndarray        # shape (..., n)
    vectors: np.ndarray            # basis columns, shape (..., n, n)
    chain_links: dict = field(default_factory=dict)


def _vector(*q):
    """Components that broadcast together, stacked on a new last axis."""
    return np.stack(np.broadcast_arrays(*q), axis=-1)


def _matrix(rows, columns=False):
    """An (..., n, n) matrix from its n rows, or else its n columns."""
    flat = _vector(*(q for row in rows for q in row))
    M = flat.reshape(flat.shape[:-1] + (len(rows), len(rows)))
    return np.swapaxes(M, -1, -2) if columns else M


def split_flux(kind: SplittingKind, w: PrimitiveState,
               gas: GasModel) -> SplitFlux:
    g = gas.gamma
    rho, u, p = w.rho, w.u, w.p
    E = total_energy(w, gas)
    if kind is SplittingKind.LIOU_STEFFEN:
        fc = _vector(rho * u, rho * u * u, rho * u * E + p * u)
        fp = _vector(0.0, p, 0.0)
    elif kind is SplittingKind.ZHA_BILGEN:
        fc = _vector(rho * u, rho * u * u, rho * u * E)
        fp = _vector(0.0, p, p * u)
    else:
        fc = _vector(rho * u, rho * u * u, 0.5 * rho * u ** 3)
        fp = _vector(0.0, p, g * p * u / (g - 1.0))
    return SplitFlux(fc, fp)


def convection_jacobian(kind: SplittingKind, w: PrimitiveState,
                        gas: GasModel) -> np.ndarray:
    g = gas.gamma
    u = w.u
    E = total_energy(w, gas)
    if kind is SplittingKind.LIOU_STEFFEN:
        return _matrix([
            [0.0, 1.0, 0.0],
            [-u * u, 2.0 * u, 0.0],
            [-g * u * E + (g - 1.0) * u ** 3,
             g * E - 1.5 * (g - 1.0) * u * u, g * u],
        ])
    if kind is SplittingKind.ZHA_BILGEN:
        return _matrix([
            [0.0, 1.0, 0.0],
            [-u * u, 2.0 * u, 0.0],
            [-u * E, E, u],
        ])
    return _matrix([
        [0.0, 1.0, 0.0],
        [-u * u, 2.0 * u, 0.0],
        [-u ** 3, 1.5 * u * u, 0.0],
    ])


def pressure_jacobian(kind: SplittingKind, w: PrimitiveState,
                      gas: GasModel) -> np.ndarray:
    g = gas.gamma
    u = w.u
    a2 = g * w.p / w.rho
    row2 = [0.5 * (g - 1.0) * u * u, -(g - 1.0) * u, g - 1.0]
    if kind is SplittingKind.LIOU_STEFFEN:
        return _matrix([[0.0, 0.0, 0.0], row2, [0.0, 0.0, 0.0]])
    if kind is SplittingKind.ZHA_BILGEN:
        return _matrix([
            [0.0, 0.0, 0.0],
            row2,
            [-a2 * u / g + 0.5 * (g - 1.0) * u ** 3,
             a2 / g - (g - 1.0) * u * u, (g - 1.0) * u],
        ])
    return _matrix([
        [0.0, 0.0, 0.0],
        row2,
        [-u * a2 / (g - 1.0) + 0.5 * g * u ** 3,
         a2 / (g - 1.0) - g * u * u, g * u],
    ])


def convection_eigensystem(kind: SplittingKind, w: PrimitiveState,
                           gas: GasModel, x1: float = 0.0,
                           x3: float = 0.0) -> EigenSystem:
    """Eigenvalues and (generalized) eigenvector basis of the convection part.

    x1, x3 are the arbitrary constants in the generalized eigenvectors (x3
    in the Zha-Bilgen one only); every scheme output downstream is
    independent of them.  The Liou-Steffen generalized eigenvector grows
    like 1/((gamma - 1) u).  At rest all three Liou-Steffen eigenvalues are
    0, with Jordan blocks [2, 1], and the chain head is (1, 0, gamma E).
    """
    g = gas.gamma
    u = w.u
    E = total_energy(w, gas)
    if kind is SplittingKind.ZHA_BILGEN:
        vecs = _matrix([
            [1.0, u, E],                    # chain head
            [x1, 1.0 + u * x1, x3],         # generalized
            [0.0, 0.0, 1.0],
        ], columns=True)
        return EigenSystem(_vector(u, u, u), vecs, chain_links={1: 0})
    # Toro-Vazquez and Liou-Steffen: e3 for lam, and one chain for u
    lam, head, c = 0.0, [1.0, u, 0.5 * u * u], u
    if kind is SplittingKind.LIOU_STEFFEN:
        lam, d = g * u, (g - 1.0) * u
        rest = d == 0.0         # lam = u = 0, with blocks [2, 1]
        head[2] = np.where(rest, g * E, head[2])
        c = np.where(rest, 0.0, (0.5 * u * u + 1.5 * d * u - g * E)
                     / np.where(rest, 1.0, d))
    vecs = _matrix([
        [0.0, 0.0, 1.0],                            # for eigenvalue lam
        head,                                       # chain head, eigenvalue u
        [x1, 1.0 + u * x1, c + 0.5 * u * u * x1],   # generalized
    ], columns=True)
    return EigenSystem(_vector(lam, u, u), vecs, chain_links={2: 1})


def pressure_eigensystem(kind: SplittingKind, w: PrimitiveState,
                         gas: GasModel) -> EigenSystem:
    """Eigenvalues and eigenvector basis of the pressure part.

    The Liou-Steffen basis has det R = -u, so at rest (u = 0) it is singular
    and upwind_dissipation raises LinAlgError, as for
    pressure_eigensystem_2d at rest.  Its dissipation R |Lambda| R^-1 jumps
    there: as u -> 0+- it tends to -+(gamma - 1) in the momentum-from-energy
    entry.  That of the Liou-Steffen convection part tends to +-gamma E in
    the energy-from-momentum entry, and is 0 at u = 0.
    """
    g = gas.gamma
    u = w.u
    a = np.sqrt(g * w.p / w.rho)
    if kind is SplittingKind.LIOU_STEFFEN:
        vecs = _matrix([
            [0.0, 1.0, 0.0],
            [1.0, 0.0, -0.5 * u * u],
            [0.0, 1.0, u],
        ], columns=True)
        return EigenSystem(_vector(-(g - 1.0) * u, 0.0, 0.0), vecs)
    if kind is SplittingKind.ZHA_BILGEN:
        c = np.sqrt((g - 1.0) / g) * a
        s = a / np.sqrt(g * (g - 1.0))
        vecs = _matrix([
            [0.0, 1.0, u - s],
            [1.0, u, 0.5 * u * u],
            [0.0, 1.0, u + s],
        ], columns=True)
        return EigenSystem(_vector(-c, 0.0, c), vecs)
    beta = np.sqrt(u * u + 4.0 * a * a)
    vecs = _matrix([
        [0.0, 1.0, u + 0.5 * (u - beta) / (g - 1.0)],
        [1.0, u, 0.5 * u * u],
        [0.0, 1.0, u + 0.5 * (u + beta) / (g - 1.0)],
    ], columns=True)
    return EigenSystem(_vector(0.5 * (u - beta), 0.0, 0.5 * (u + beta)), vecs)


# --- the split normal flux at a face of a 2D grid ---

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


def split_flux_2d(w: Prim2D, geom: FaceGeometry, gas: GasModel) -> SplitFlux:
    """Normal-flux split F = u_perp U + (0, p n_x, p n_y, p u_perp)."""
    up = w.u * geom.n_x + w.v * geom.n_y
    fc = _vector(*(up * q for q in prim_to_cons_arrays(w, gas.gamma)))
    fp = _vector(0.0, w.p * geom.n_x, w.p * geom.n_y, w.p * up)
    return SplitFlux(fc, fp)


def convection_jacobian_2d(w: Prim2D, geom: FaceGeometry,
                           gas: GasModel) -> np.ndarray:
    """d(u_perp U)/dU = u_perp I + U (grad u_perp)^T."""
    nx, ny = geom.n_x, geom.n_y
    up = w.u * nx + w.v * ny
    U = prim_to_cons_arrays(w, gas.gamma)
    grad = (-up / w.rho, nx / w.rho, ny / w.rho, 0.0)
    return _matrix([[up * (i == j) + U[i] * grad[j] for j in range(4)]
                    for i in range(4)])


def pressure_jacobian_2d(w: Prim2D, geom: FaceGeometry,
                         gas: GasModel) -> np.ndarray:
    g = gas.gamma
    nx, ny = geom.n_x, geom.n_y
    u, v = w.u, w.v
    up = u * nx + v * ny
    theta2 = 0.5 * (u * u + v * v)
    a2 = g * w.p / w.rho
    phi2 = a2 / (g * (g - 1.0))
    return (g - 1.0) * _matrix([
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
    nx, ny = geom.n_x, geom.n_y
    up = w.u * nx + w.v * ny
    c = 1.0 + up * x1
    vecs = _matrix([
        prim_to_cons_arrays(w, gas.gamma) / w.rho,   # (1, u, v, E)
        [x1, c * nx - xt * ny, c * ny + xt * nx, x4],
        [0.0, -ny, nx, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ], columns=True)
    return EigenSystem(_vector(up, up, up, up), vecs, chain_links={1: 0})


def pressure_eigensystem_2d(w: Prim2D, geom: FaceGeometry,
                            gas: GasModel) -> EigenSystem:
    """Two acoustic waves at +-a sqrt((gamma-1)/gamma), two zero speeds.

    The second vector degenerates to zero at a stagnant state (u = v = 0),
    where the basis is singular and upwind_dissipation cannot invert it;
    the flux never uses that vector (zero eigenvalue).
    """
    g = gas.gamma
    nx, ny = geom.n_x, geom.n_y
    u, v = w.u, w.v
    up = u * nx + v * ny
    upar = -u * ny + v * nx
    theta2 = 0.5 * (u * u + v * v)
    a = np.sqrt(g * w.p / w.rho)
    s = a / math.sqrt(g * (g - 1.0))
    c = math.sqrt((g - 1.0) / g) * a
    vecs = _matrix([
        [0.0, nx, ny, up - s],
        [upar, u * upar + theta2 * ny, v * upar - theta2 * nx, 0.0],
        [1.0, nx * up, ny * up, up * up - theta2],
        [0.0, nx, ny, up + s],
    ], columns=True)
    return EigenSystem(_vector(-c, 0.0, 0.0, c), vecs)


def face_average(wL, wR):
    """The sqrt(rho)-weighted state at a face, of the type of wL.

    rho_bar = sqrt(rho_L rho_R); each velocity and p/rho are weighted by
    sqrt(rho), and p_bar = rho_bar mean(p/rho).  a^2 = gamma p/rho is thus
    weighted like p/rho, and gamma cancels.
    """
    sL, sR = np.sqrt(wL.rho), np.sqrt(wR.rho)

    def mean(qL, qR):
        return (sL * qL + sR * qR) / (sL + sR)

    _, *velL, pL = wL
    _, *velR, pR = wR
    rho = sL * sR
    return type(wL)(rho, *map(mean, velL, velR),
                    rho * mean(pL / wL.rho, pR / wR.rho))


def upwind_dissipation(es: EigenSystem, dU) -> np.ndarray:
    """R |Lambda| R^-1 dU for the basis R and eigenvalues Lambda of es.

    dU is a jump (..., n) that broadcasts with the basis.  The Jordan
    coupling is dropped, so where all eigenvalues are equal the result is
    |lambda| dU, whatever the generalized eigenvectors.
    """
    R = es.vectors
    alpha = np.linalg.solve(R, np.asarray(dU)[..., None])
    return (R @ (np.abs(es.eigenvalues)[..., None] * alpha))[..., 0]


class RankTestError(RuntimeError):
    """Rank decision too close to call for the requested tolerance."""


# a singular value within this factor of the rank cutoff is too close to call
_GAP_GUARD = 10.0


def jordan_block_signature(A: np.ndarray, lam, tol_rel: float = 1e-9):
    """Jordan block sizes for eigenvalue lam, largest first, padded with
    zeros: an int array (..., n) for A (..., n, n) and lam (...).  r_{k-1}
    - r_k blocks have size >= k, r_k the rank of B^k, B = A - lam I:
    singular values below tol_rel |B|^k count as zero (a nilpotent power is
    all round-off), and one within a factor _GAP_GUARD of that cutoff
    raises RankTestError."""
    n = A.shape[-1]
    B = A - np.asarray(lam)[..., None, None] * np.eye(n)
    norm_b = np.maximum(np.linalg.norm(B, 2, axis=(-2, -1)), 1.0)[..., None]
    ranks, M = [np.full(B.shape[:-2], n)], np.eye(n)
    for k in range(1, n + 1):
        M = M @ B
        sv = np.linalg.svd(M, compute_uv=False)
        cut = np.broadcast_to(tol_rel * norm_b ** k, sv.shape)
        near = (sv > cut / _GAP_GUARD) & (sv < cut * _GAP_GUARD)
        if near.any():
            raise RankTestError(
                f"singular value {sv[near][0]:.3e} within a factor "
                f"{_GAP_GUARD} of the rank cutoff {cut[near][0]:.3e}")
        ranks.append(np.sum(sv > cut, axis=-1))
        if np.array_equal(ranks[-1], ranks[-2]):
            break
    # at_least[..., k] blocks have size > k; the j-th largest, the count
    # of such k with at_least[..., k] > j
    at_least = -np.diff(np.stack(ranks, axis=-1))
    return np.sum(at_least[..., None, :] > np.arange(n)[:, None], axis=-1)


def jordan_matrix(eigenvalues, chain_links):
    """Assemble J (..., n, n) from an EigenSystem's eigenvalue order and
    chain links."""
    lam = np.asarray(eigenvalues, dtype=float)
    J = lam[..., None] * np.eye(lam.shape[-1])
    for k, j in chain_links.items():
        J[..., j, k] = 1.0
    return J


def verify_jordan(A: np.ndarray, es: EigenSystem):
    """Max-abs residual of R^-1 A R - J for the basis R of es, with J
    assembled from its eigenvalues and chain links, per member of a stack.
    Raises LinAlgError if a basis is singular."""
    R = es.vectors
    if (np.abs(np.linalg.det(R)) < 1e-300).any():
        raise np.linalg.LinAlgError("singular basis matrix")
    J = jordan_matrix(es.eigenvalues, es.chain_links)
    return np.max(np.abs(np.linalg.solve(R, A @ R) - J), axis=(-2, -1))
