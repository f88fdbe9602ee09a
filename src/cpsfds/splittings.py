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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .state import GasModel, Prim2D, PrimitiveState, prim_to_cons_arrays, \
    sound_speed, total_energy


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

    eigenvalues: np.ndarray
    vectors: np.ndarray            # basis columns, shape (n, n)
    chain_links: dict = field(default_factory=dict)


def split_flux(kind: SplittingKind, w: PrimitiveState,
               gas: GasModel) -> SplitFlux:
    g = gas.gamma
    rho, u, p = w.rho, w.u, w.p
    E = total_energy(w, gas)
    if kind is SplittingKind.LIOU_STEFFEN:
        fc = np.array([rho * u, rho * u * u, rho * u * E + p * u])
        fp = np.array([0.0, p, 0.0])
    elif kind is SplittingKind.ZHA_BILGEN:
        fc = np.array([rho * u, rho * u * u, rho * u * E])
        fp = np.array([0.0, p, p * u])
    else:
        fc = np.array([rho * u, rho * u * u, 0.5 * rho * u ** 3])
        fp = np.array([0.0, p, g * p * u / (g - 1.0)])
    return SplitFlux(fc, fp)


def convection_jacobian(kind: SplittingKind, w: PrimitiveState,
                        gas: GasModel) -> np.ndarray:
    g = gas.gamma
    u = w.u
    E = total_energy(w, gas)
    if kind is SplittingKind.LIOU_STEFFEN:
        return np.array([
            [0.0, 1.0, 0.0],
            [-u * u, 2.0 * u, 0.0],
            [-g * u * E + (g - 1.0) * u ** 3,
             g * E - 1.5 * (g - 1.0) * u * u, g * u],
        ])
    if kind is SplittingKind.ZHA_BILGEN:
        return np.array([
            [0.0, 1.0, 0.0],
            [-u * u, 2.0 * u, 0.0],
            [-u * E, E, u],
        ])
    return np.array([
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
        return np.array([[0.0, 0.0, 0.0], row2, [0.0, 0.0, 0.0]])
    if kind is SplittingKind.ZHA_BILGEN:
        return np.array([
            [0.0, 0.0, 0.0],
            row2,
            [-a2 * u / g + 0.5 * (g - 1.0) * u ** 3,
             a2 / g - (g - 1.0) * u * u, (g - 1.0) * u],
        ])
    return np.array([
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
        vecs = np.column_stack([
            [1.0, u, E],                    # chain head
            [x1, 1.0 + u * x1, x3],         # generalized
            [0.0, 0.0, 1.0],
        ])
        return EigenSystem(np.array([u, u, u]), vecs, chain_links={1: 0})
    # Toro-Vazquez and Liou-Steffen: e3 for lam, and one chain for u
    lam, head, c = 0.0, [1.0, u, 0.5 * u * u], u
    if kind is SplittingKind.LIOU_STEFFEN:
        lam, d = g * u, (g - 1.0) * u
        if d == 0.0:
            # at rest lam = u = 0, with blocks [2, 1]
            head, c = [1.0, 0.0, g * E], 0.0
        else:
            c = (0.5 * u * u + 1.5 * d * u - g * E) / d
    vecs = np.column_stack([
        [0.0, 0.0, 1.0],                            # for eigenvalue lam
        head,                                       # chain head, eigenvalue u
        [x1, 1.0 + u * x1, c + 0.5 * u * u * x1],   # generalized
    ])
    return EigenSystem(np.array([lam, u, u]), vecs, chain_links={2: 1})


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
    a = sound_speed(w, gas)
    if kind is SplittingKind.LIOU_STEFFEN:
        vecs = np.column_stack([
            [0.0, 1.0, 0.0],
            [1.0, 0.0, -0.5 * u * u],
            [0.0, 1.0, u],
        ])
        return EigenSystem(np.array([-(g - 1.0) * u, 0.0, 0.0]), vecs)
    if kind is SplittingKind.ZHA_BILGEN:
        c = np.sqrt((g - 1.0) / g) * a
        s = a / np.sqrt(g * (g - 1.0))
        vecs = np.column_stack([
            [0.0, 1.0, u - s],
            [1.0, u, 0.5 * u * u],
            [0.0, 1.0, u + s],
        ])
        return EigenSystem(np.array([-c, 0.0, c]), vecs)
    beta = np.sqrt(u * u + 4.0 * a * a)
    vecs = np.column_stack([
        [0.0, 1.0, u + 0.5 * (u - beta) / (g - 1.0)],
        [1.0, u, 0.5 * u * u],
        [0.0, 1.0, u + 0.5 * (u + beta) / (g - 1.0)],
    ])
    return EigenSystem(
        np.array([0.5 * (u - beta), 0.0, 0.5 * (u + beta)]), vecs)


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
    fc = up * prim_to_cons_arrays(w, gas.gamma)
    fp = np.array([0.0, w.p * geom.n_x, w.p * geom.n_y, w.p * up])
    return SplitFlux(fc, fp)


def convection_jacobian_2d(w: Prim2D, geom: FaceGeometry,
                           gas: GasModel) -> np.ndarray:
    """d(u_perp U)/dU = u_perp I + U (grad u_perp)^T."""
    nx, ny = geom.n_x, geom.n_y
    up = w.u * nx + w.v * ny
    U = prim_to_cons_arrays(w, gas.gamma)
    grad = np.array([-up, nx, ny, 0.0]) / w.rho
    return up * np.eye(4) + np.outer(U, grad)


def pressure_jacobian_2d(w: Prim2D, geom: FaceGeometry,
                         gas: GasModel) -> np.ndarray:
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
    nx, ny = geom.n_x, geom.n_y
    up = w.u * nx + w.v * ny
    head = prim_to_cons_arrays(w, gas.gamma) / w.rho   # (1, u, v, E)
    c = 1.0 + up * x1
    gen = np.array([x1, c * nx - xt * ny, c * ny + xt * nx, x4])
    vecs = np.column_stack([
        head,
        gen,
        [0.0, -ny, nx, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    return EigenSystem(np.array([up, up, up, up]), vecs, chain_links={1: 0})


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


def face_average(wL, wR):
    """The sqrt(rho)-weighted state at a face, of the type of wL.

    rho_bar = sqrt(rho_L rho_R); each velocity and p/rho are weighted by
    sqrt(rho), and p_bar = rho_bar mean(p/rho).  a^2 = gamma p/rho is thus
    weighted like p/rho, and gamma cancels.
    """
    sL, sR = math.sqrt(wL.rho), math.sqrt(wR.rho)

    def mean(qL, qR):
        return (sL * qL + sR * qR) / (sL + sR)

    _, *velL, pL = wL
    _, *velR, pR = wR
    rho = sL * sR
    return type(wL)(rho, *map(mean, velL, velR),
                    rho * mean(pL / wL.rho, pR / wR.rho))


def upwind_dissipation(es: EigenSystem, dU) -> np.ndarray:
    """R |Lambda| R^-1 dU for the basis R and eigenvalues Lambda of es.

    The Jordan coupling is dropped, so where all eigenvalues are equal the
    result is |lambda| dU, whatever the generalized eigenvectors.
    """
    R = es.vectors
    return R @ (np.abs(es.eigenvalues) * np.linalg.solve(R, dU))


class RankTestError(RuntimeError):
    """Rank decision too close to call for the requested tolerance."""


def _numerical_rank(M, tol_rel=1e-9, gap_guard=10.0, scale=None):
    """Rank of M with singular values below tol_rel * scale counted as zero.

    The scale defaults to the largest singular value of M itself; callers
    working with powers of a matrix must pass the power of the base norm
    instead, since a numerically nilpotent power is all round-off and its
    own largest singular value is meaningless as a reference.
    """
    sv = np.linalg.svd(M, compute_uv=False)
    smax = sv[0] if sv.size else 0.0
    if smax == 0.0:
        return 0
    cut = tol_rel * (smax if scale is None else scale)
    rank = int(np.sum(sv > cut))
    # A singular value hugging the threshold makes the rank call unreliable.
    near = (sv > cut / gap_guard) & (sv < cut * gap_guard)
    if near.any():
        raise RankTestError(
            f"singular value {sv[near][0]:.3e} within a factor {gap_guard} "
            f"of the rank cutoff {cut:.3e}")
    return rank


def jordan_block_signature(A: np.ndarray, lam: float,
                           tol_rel: float = 1e-9) -> list[int]:
    """Jordan block sizes for eigenvalue lam, from the rank sequence of
    (A - lam I)^k.  Number of blocks of size >= k is r_{k-1} - r_k."""
    n = A.shape[0]
    B = A - lam * np.eye(n)
    norm_b = max(float(np.linalg.norm(B, 2)), 1.0)
    ranks = [n]
    M = np.eye(n)
    for k in range(1, n + 1):
        M = M @ B
        ranks.append(_numerical_rank(M, tol_rel, scale=norm_b ** k))
        if ranks[-1] == ranks[-2]:
            break
    # blocks_ge[k] = number of blocks of size >= k+1
    blocks_ge = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
    sizes = []
    for k in range(len(blocks_ge) - 1, -1, -1):
        exactly = blocks_ge[k] - (blocks_ge[k + 1] if k + 1 < len(blocks_ge)
                                  else 0)
        sizes.extend([k + 1] * exactly)
    return sorted(sizes, reverse=True)


def jordan_matrix(eigenvalues, chain_links):
    """Assemble J from an EigenSystem's eigenvalue order and chain links."""
    J = np.diag(np.asarray(eigenvalues, dtype=float))
    for k, j in chain_links.items():
        J[j, k] = 1.0
    return J


def verify_jordan(A: np.ndarray, es: EigenSystem) -> float:
    """Max-abs residual of R^-1 A R - J for the basis R of es, with J
    assembled from its eigenvalues and chain links.  Raises LinAlgError on a
    singular basis."""
    R = es.vectors
    if abs(np.linalg.det(R)) < 1e-300:
        raise np.linalg.LinAlgError("singular basis matrix")
    J = jordan_matrix(es.eigenvalues, es.chain_links)
    return float(np.max(np.abs(np.linalg.solve(R, A @ R) - J)))
