"""Uniform Cartesian velocity lattice, quadrature moments, discrete
Maxwellians and anisotropic Gaussians, SPD factorization, entropy.

Quadrature is the midpoint rule with weight dv^d per node; for resolved
Gaussians this is spectrally accurate and symmetry cancellations of odd
moments are exact.  All reductions run in a fixed (numpy) order so
results are reproducible run to run.

Temperature uses the d-dimensional normalization
T = (m / (d n)) * sum w |v-u|^2 f; in three dimensions this is the usual
factor 3 convention, and lower grid dimensions scale the factor with d.

The lattice is the tensor product of its per-axis node vectors
`grid.axes`, flattened in `meshgrid(indexing="ij")` order (the last axis
varies fastest).  A drifting Maxwellian is sampled as the outer product
of d one-dimensional Gaussians, an anisotropic Gaussian by a triangular
substitution run axis by axis.  No moment of a distribution involves
more than two axes, so `moments` reduces f to its pairwise and per-axis
lattice marginals, with no node-length temporaries.

Moment matching is one Newton system for the Maxwellian (scalar T; raw
moments 1, v, |v|^2) and the Gaussian (full T tensor; 1, v, v(x)v):
every entry of the moments and of their Jacobian is a centred moment of
degree <= 4 (Mieussens, M3AS 2000), read from one tensor of per-axis
powers: the outer product of per-axis sums for the Maxwellian, the
lattice sample contracted axis by axis for the Gaussian.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensityError, NoConvergenceError, NotSpdError

N_FLOOR = 1e-30  # separates "empty cell" from "division blow-up"


def _per_axis(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValueError(f"{name} must be scalar or length {dim}")
    return arr


class VelocityGrid:
    """Midpoint-rule lattice over [vmin, vmax]^d.

    Nodes sit at cell centers, so a grid symmetric about the origin has
    exactly paired +/-v nodes and odd moments of even functions cancel
    to round-off.
    """

    def __init__(self, dim: int = 3, vmin=-8.0, vmax=8.0, points=32):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3 (got {dim})")
        self.dim = dim
        lo = _per_axis(vmin, dim, "vmin")
        hi = _per_axis(vmax, dim, "vmax")
        pts = np.asarray(points)
        if pts.ndim == 0:
            pts = np.full(dim, int(pts))
        pts = pts.astype(int)
        if pts.shape != (dim,):
            raise ValueError(f"points must be scalar or length {dim}")
        if np.any(pts < 8):
            raise ValueError(f"need at least 8 points per axis (got {pts})")
        if np.any(lo >= hi):
            raise ValueError(f"vmin must be below vmax per axis: {lo}, {hi}")
        self.vmin = lo
        self.vmax = hi
        self.points = pts
        self.dv = (hi - lo) / pts
        self.weight = float(np.prod(self.dv))
        self.axes = [lo[i] + (np.arange(pts[i]) + 0.5) * self.dv[i]
                     for i in range(dim)]
        mesh = np.meshgrid(*self.axes, indexing="ij")
        self.nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)
        self.nnodes = self.nodes.shape[0]

    @classmethod
    def reference(cls) -> "VelocityGrid":
        """32 points per axis on [-8, 8]^3."""
        return cls(dim=3, vmin=-8.0, vmax=8.0, points=32)

    def density(self, f: np.ndarray) -> float:
        """Quadrature number density of one distribution array."""
        return self.weight * float(np.sum(f))


@dataclass
class MomentSet:
    """Quadrature moments of one species.

    n       number density
    u       mean velocity (d,)
    T       temperature, trace(P) / (d n)
    P       pressure tensor m * int (v-u)(x)(v-u) f dv, symmetric (d, d)
    Q       raw energy flux (1/2) int |v|^2 v f dv (d,)
    Qtilde  peculiar heat flux m * int (v-u) |v-u|^2 f dv (d,)
    """

    n: float
    u: np.ndarray
    T: float
    P: np.ndarray | None = None
    Q: np.ndarray | None = None
    Qtilde: np.ndarray | None = None


@dataclass
class SpdTensor:
    """Symmetric positive-definite matrix with its Cholesky factor."""

    matrix: np.ndarray
    chol: np.ndarray


def moments(f: np.ndarray, mass: float, grid: VelocityGrid,
            n_floor: float = N_FLOOR) -> MomentSet:
    """Full moment set of a distribution array.

    No moment involves more than two velocity axes, so all of them are
    reduced from lattice marginals of f viewed on the (P_1, ..., P_d)
    lattice: the pairwise marginals M_ij (one sum over f per pair) and
    the per-axis marginals m_i summed from them.  n and u come from the
    m_i.  With the per-axis offsets c_i = v_i - u_i (exact centring: a
    marginal does not depend on the shift), the centred sums
    S = sum f c(x)c and S3 = sum f c |c|^2 take c_i^k (k = 2, 3) against
    m_i and [c_i, c_i^2]^T M_ij [c_j, c_j^2] against each pair.  Then
    P = m w S, Qtilde = m w S3, and with s0 = sum f the raw flux is
    Q = w (S3 + 2 S u + u tr S + s0 |u|^2 u) / 2.

    Raises DegenerateDensityError when the quadrature density is below
    n_floor; mean velocity and temperature are undefined there.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.nnodes,):
        raise ValueError(f"distribution shape {f.shape} does not match grid "
                         f"({grid.nnodes} nodes)")
    d, w = grid.dim, grid.weight
    lattice, labels = f.reshape(grid.points), list(range(d))
    pairs = {(i, j): np.einsum(lattice, labels, [i, j])
             for i, j in itertools.combinations(labels, 2)}
    if d == 1:
        marginals = [lattice]
    else:
        marginals = ([pairs[0, 1].sum(axis=1)]
                     + [pairs[0, i].sum(axis=0) for i in range(1, d)])
    s0 = float(marginals[0].sum())
    n = w * s0
    if n < n_floor:
        raise DegenerateDensityError(n, n_floor)
    u = np.array([x @ m for x, m in zip(grid.axes, marginals)]) / s0
    S, S3 = np.empty((d, d)), np.empty(d)
    rows = []  # per axis: the rows c_i and c_i^2
    for i, (x, m) in enumerate(zip(grid.axes, marginals)):
        c = x - u[i]
        rows.append(np.array((c, c * c)))
        S[i, i], S3[i] = rows[i] @ (m * c)
    for (i, j), M in pairs.items():
        B = rows[i] @ M @ rows[j].T
        S[i, j] = S[j, i] = B[0, 0]  # one value, so P is bitwise symmetric
        S3[i] += B[0, 1]
        S3[j] += B[1, 0]
    P = mass * w * S
    T = float(P.trace()) / (d * n)
    Q = 0.5 * w * (S3 + 2.0 * (S @ u) + S.trace() * u
                   + s0 * float(u @ u) * u)
    return MomentSet(n=n, u=u, T=T, P=P, Q=Q, Qtilde=mass * w * S3)


def _velocity(u, grid: VelocityGrid) -> np.ndarray:
    """u as a float vector with one entry per grid axis."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.dim,):
        raise ValueError(f"u must have length {grid.dim} (got {u.shape})")
    return u


def _axis_factors(u, theta: float, grid: VelocityGrid) -> list:
    """Per axis: the offsets c = v_i - u_i at its nodes and the factor
    exp(-c^2 / (2 theta))."""
    offsets = [x - ui for x, ui in zip(grid.axes, u)]
    return [(c, np.exp(c * c / (-2.0 * theta))) for c in offsets]


def maxwellian_on_grid(n: float, u, T: float, mass: float,
                       grid: VelocityGrid) -> np.ndarray:
    """Drifting Maxwellian sampled at the grid nodes.

    Nodewise n / (2 pi T/m)^(d/2) * exp(-|v-u|^2 / (2 T/m)), built as
    the outer product of the per-axis factors in the nodes' ij order.
    """
    if T <= 0.0:
        raise ValueError(f"temperature must be positive (got {T})")
    if n < 0.0:
        raise ValueError(f"density must be nonnegative (got {n})")
    u = _velocity(u, grid)
    theta = T / mass
    f = n / (2.0 * math.pi * theta) ** (grid.dim / 2.0)
    for _, g in _axis_factors(u, theta, grid):
        f = np.outer(f, g).ravel()
    return f


def spd_factor(matrix) -> SpdTensor:
    """Cholesky-factor a symmetric matrix; fail identifies the pivot.

    The matrix must be symmetric to 1e-12 (relative).  Factorization
    succeeds exactly when all eigenvalues are positive.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))))
    if float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12")
    d = M.shape[0]
    L = np.zeros_like(M)
    for j in range(d):
        s = M[j, j] - float(np.dot(L[j, :j], L[j, :j]))
        if s <= 0.0:
            raise NotSpdError(pivot=j, value=s, matrix=M)
        L[j, j] = math.sqrt(s)
        for i in range(j + 1, d):
            L[i, j] = (M[i, j] - float(np.dot(L[i, :j], L[j, :j]))) / L[j, j]
    return SpdTensor(matrix=M.copy(), chol=L)


def gaussian_on_grid(n: float, u, tensor, mass: float,
                     grid: VelocityGrid) -> np.ndarray:
    """Anisotropic Gaussian with temperature tensor `tensor`.

    Nodewise n / sqrt(det(2 pi T/m)) * exp(-(v-u) . (T/m)^-1 . (v-u) / 2),
    evaluated through the triangular factor (never an explicit inverse),
    which stays stable near the positive-definiteness boundary: L w = v - u
    is solved axis by axis, w_i living on the leading i axes.  A plain
    matrix is factored first; factorization failure propagates.
    """
    if n < 0.0:
        raise ValueError(f"density must be nonnegative (got {n})")
    u = _velocity(u, grid)
    spd = tensor if isinstance(tensor, SpdTensor) else spd_factor(tensor)
    L, d, ws = spd.chol / math.sqrt(mass), grid.dim, []
    for i, x in enumerate(grid.axes):
        acc = (x - u[i]).reshape((-1,) + (1,) * (d - 1 - i))
        for k in range(i):
            acc = acc - L[i, k] * ws[k]
        ws.append(acc / L[i, i])
    norm = n / ((2.0 * math.pi) ** (d / 2.0) * float(np.prod(np.diag(L))))
    return (norm * np.exp(-0.5 * sum(w * w for w in ws))).ravel()


def _tri_index(dim: int) -> list[tuple[int, int]]:
    """Upper-triangle index order: diagonal first, then off-diagonal."""
    return ([(i, i) for i in range(dim)]
            + list(itertools.combinations(range(dim), 2)))


@functools.lru_cache(maxsize=None)
def _monomials(dim: int):
    """Read-only tables for the centred monomials m = (1, c_i, c_i c_j),
    i <= j in `_tri_index` order: the axes (ti, tj) of each product, the
    flat index of each Gram entry w sum f m_a m_b into the (5,) * dim
    moment tensor, and the rows picking (1, v, |v|^2) from (1, v_i, v_i v_j).
    """
    ti, tj = np.array(_tri_index(dim)).T
    eye = np.eye(dim, dtype=int)
    expo = np.concatenate([np.zeros_like(eye[:1]), eye, eye[ti] + eye[tj]])
    gram = np.ravel_multi_index(tuple((expo[:, None] + expo).T), (5,) * dim)
    energy = np.eye(dim + 2, len(expo))
    energy[-1, 1 + dim:1 + 2 * dim] = 1.0
    for table in (ti, tj, gram, energy):
        table.flags.writeable = False
    return ti, tj, gram, energy


def _symmetric(upper, dim: int) -> np.ndarray:
    """Symmetric matrix from its upper triangle in `_tri_index` order."""
    ti, tj = _monomials(dim)[:2]
    out = np.empty((dim, dim))
    out[ti, tj] = out[tj, ti] = upper
    return out


def _newton_system(u: np.ndarray, select: np.ndarray, M: np.ndarray,
                   B: np.ndarray):
    """Raw moments q and Jacobian dq/dp of a target centred at u.

    M[a] = w sum f prod_i c_i^a_i (c = v - u, a_i <= 4) is the target's
    centred moment tensor and df/dp = f B m.  With the Gram matrix
    G = w sum f m m^T read from M and A writing the raw monomials
    (1, v_i, v_i v_j) over m: q = select A G e_0, dq/dp = select A G B^T.
    """
    d = len(u)
    ti, tj, gram, _ = _monomials(d)
    rows = np.arange(1 + d, len(gram))
    A = np.eye(len(gram))
    A[1:1 + d, 0] = u
    A[rows, 0] = u[ti] * u[tj]
    A[rows, 1 + tj] = u[ti]
    A[rows, 1 + ti] += u[tj]
    SAG = select @ A @ M.ravel()[gram]
    return SAG[:, 0], SAG @ B.T


def _maxwellian_sample(p, mass: float, grid: VelocityGrid):
    """(M, B, thunk for f) of the Maxwellian with p = (n, u, T).

    M is the prefactor times the outer product of the per-axis sums
    sum g_i c_i^k of its factors g_i; no lattice-sized array is formed.
    df/dp = f (1/n, c_i / theta, |c|^2 / (2 theta T) - d / (2T)).
    """
    d = grid.dim
    pn, pu, pT = float(p[0]), p[1:1 + d], float(p[1 + d])
    theta = pT / mass
    M = grid.weight * pn / (2.0 * math.pi * theta) ** (d / 2.0)
    for c, g in _axis_factors(pu, theta, grid):
        M = np.multiply.outer(M, g @ np.vander(c, 5, increasing=True))
    B = np.zeros((d + 2, len(_monomials(d)[2])))
    B[0, 0], B[-1, 0] = 1.0 / pn, -d / (2.0 * pT)
    B[range(1, 1 + d), range(1, 1 + d)] = 1.0 / theta
    B[-1, 1 + d:1 + 2 * d] = 1.0 / (2.0 * theta * pT)
    return M, B, lambda: maxwellian_on_grid(pn, pu, pT, mass, grid)


def _gaussian_sample(p, mass: float, grid: VelocityGrid):
    """(M, B, thunk for f) of the Gaussian with p = (n, u, upper triangle
    of the covariance S = T/m).

    M contracts the lattice sample axis by axis with the powers c_i^k.
    With z = S^-1 c and h = 1/2 for i = j, else 1, df/dp = f (1/n, z_i,
    h (z_i z_j - S^-1_ij)); z_i z_j puts S^-1_ik S^-1_jl + S^-1_il S^-1_jk
    on c_k c_l (k <= l), twice the one product when k = l: h again.
    """
    d = grid.dim
    ti, tj = _monomials(d)[:2]
    pn, pu, cov = float(p[0]), p[1:1 + d], _symmetric(p[1 + d:], d)
    try:
        Lcov = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(
            "covariance left the positive-definite cone") from exc
    f = gaussian_on_grid(pn, pu, SpdTensor(cov, Lcov), 1.0, grid)
    M = grid.weight * f.reshape(grid.points)
    for x, ui in zip(grid.axes, pu):
        M = np.tensordot(M, np.vander(x - ui, 5, increasing=True),
                         axes=(0, 0))
    inv = np.linalg.inv(cov)
    h = np.where(ti == tj, 0.5, 1.0)
    B = np.zeros((len(p), len(p)))
    B[0, 0], B[1:1 + d, 1:1 + d] = 1.0 / pn, inv
    B[1 + d:, 0] = -h * inv[ti, tj]
    B[1 + d:, 1 + d:] = h[:, None] * h * (inv[ti][:, ti] * inv[tj][:, tj]
                                          + inv[ti][:, tj] * inv[tj][:, ti])
    return M, B, lambda: f


def _newton_match(p, spread_target, select, sample, admissible, spread_ok,
                  vscale: float, tol: float, dim: int, max_iter: int,
                  what: str):
    """Newton-correct parameters p = (n, u, spread...), starting at the
    targets, until the raw moments q of the sampled target hit them.

    q pairs f with (1, v, spread moments), weighted by the quadrature;
    `select` picks them from (1, v_i, v_i v_j).  sample(p) gives the
    centred moment tensor, the derivative matrix B and a thunk for f,
    and `_newton_system` turns them into q and dq/dp for either family.
    Converged when n and u match to tol (u relative to vscale) and
    spread_ok(q, qu) holds; steps are halved until admissible(p).
    Returns (f, iterations).
    """
    n, u = p[0], p[1:1 + dim]
    target = np.concatenate([[n], n * u, spread_target])
    for it in range(max_iter + 1):
        M, B, build = sample(p)
        q, dqdp = _newton_system(p[1:1 + dim], select, M, B)
        if abs(q[0] - n) <= tol * n:
            qu = q[1:1 + dim] / q[0]
            if (float(np.linalg.norm(qu - u)) <= tol * vscale
                    and spread_ok(q, qu)):
                return build(), it
        if it == max_iter:
            break
        try:
            step = np.linalg.solve(dqdp, q - target)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(
                f"singular Jacobian while matching {what}") from exc
        shrink = 1.0
        while shrink >= 2.0 ** -20:
            cand = p - shrink * step
            if np.all(np.isfinite(cand)) and admissible(cand):
                break
            shrink *= 0.5
        else:
            raise NoConvergenceError(
                f"no admissible Newton step while matching {what}")
        p = cand
    raise NoConvergenceError(
        f"moment matching did not converge in {max_iter} iterations "
        f"({what}; grid too coarse or support clipped)")


def match_moments(n: float, u, T: float, mass: float, grid: VelocityGrid,
                  tol: float = 1e-13, max_iter: int = 50,
                  return_info: bool = False) -> np.ndarray:
    """Discrete Maxwellian whose quadrature (n, u, T) hit the targets.

    Newton-corrects the Maxwellian parameters so the discrete moments
    (1, v, |v|^2) match to `tol` (relative).  The Newton system comes
    from per-axis sums; f is sampled once, at the converged parameters,
    and is the plain sampled Maxwellian if it matches at once.

    Raises NoConvergenceError when the grid cannot represent the target
    (too coarse, or support clipped by the domain).
    """
    if n <= 0.0 or T <= 0.0:
        raise ValueError(f"targets require n > 0 and T > 0 (got {n}, {T})")
    u = _velocity(u, grid)
    d = grid.dim
    unorm = float(np.linalg.norm(u))

    def temperature_ok(q, qu):
        qT = mass * (q[1 + d] - q[0] * float(qu @ qu)) / (d * q[0])
        return abs(qT - T) <= tol * T

    f, it = _newton_match(
        np.concatenate([[n], u, [T]]), [n * (unorm * unorm + d * T / mass)],
        _monomials(d)[3], lambda p: _maxwellian_sample(p, mass, grid),
        lambda p: p[0] > 0.0 and p[1 + d] > 0.0, temperature_ok,
        math.sqrt(T / mass) + unorm, tol, d, max_iter,
        f"Maxwellian n={n}, T={T}")
    return (f, it) if return_info else f


def match_gaussian(n: float, u, tensor, mass: float, grid: VelocityGrid,
                   tol: float = 1e-13, max_iter: int = 50,
                   return_info: bool = False) -> np.ndarray:
    """Discrete Gaussian whose quadrature (n, u, T-tensor) hit the targets.

    Analogue of match_moments for anisotropic targets: Newton on
    (n, u, covariance) against all raw moments (1, v, v(x)v), with the
    Newton system from the lattice sample of each iterate.
    """
    if n <= 0.0:
        raise ValueError(f"targets require n > 0 (got {n})")
    u = _velocity(u, grid)
    spd = tensor if isinstance(tensor, SpdTensor) else spd_factor(tensor)
    d = grid.dim
    ti, tj, gram, _ = _monomials(d)
    sigma_t = spd.matrix / mass
    tscale = float(np.trace(spd.matrix)) / d

    def admissible(p):
        cov = _symmetric(p[1 + d:], d)
        return p[0] > 0.0 and float(np.linalg.eigvalsh(cov)[0]) > 0.0

    def tensor_ok(q, qu):
        qsig = _symmetric(q[1 + d:], d) / q[0] - np.outer(qu, qu)
        return float(np.max(np.abs(mass * qsig - spd.matrix))) <= tol * tscale

    f, it = _newton_match(
        np.concatenate([[n], u, sigma_t[ti, tj]]),
        n * (u[ti] * u[tj] + sigma_t[ti, tj]), np.eye(len(gram)),
        lambda p: _gaussian_sample(p, mass, grid), admissible, tensor_ok,
        math.sqrt(tscale / mass) + float(np.linalg.norm(u)), tol, d,
        max_iter, f"Gaussian n={n}")
    return (f, it) if return_info else f


def _xlogx_sum(f: np.ndarray) -> float:
    """Sum of f log f with the 0 log 0 = 0 convention.

    Nonpositive values contribute exactly zero; negative excursions of a
    non-positivity-preserving integrator are clamped here only, never in
    the state itself.
    """
    out = 0.0
    pos = f > 0.0
    if np.any(pos):
        vals = f[pos]
        out = float(np.sum(vals * np.log(vals)))
    return out


def h_functional(f1: np.ndarray, f2: np.ndarray, grid: VelocityGrid) -> float:
    """Entropy functional sum_k sum_nodes w f_k log f_k."""
    return grid.weight * (_xlogx_sum(np.asarray(f1, dtype=float))
                          + _xlogx_sum(np.asarray(f2, dtype=float)))
