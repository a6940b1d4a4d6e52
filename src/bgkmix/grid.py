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
varies fastest).  A drifting Maxwellian on it factorizes into d
one-dimensional Gaussians exp(-(v_i-u_i)^2 / 2 theta): it is sampled as
their outer product, and its raw moments (1, v, |v|^2) are multilinear
in the per-axis sums of (1, v_i, v_i^2) times each factor.  No moment
of a distribution involves more than two axes, so `moments` reduces f
to its pairwise and per-axis lattice marginals and forms every moment
from those, with no node-length temporaries.

Moment matching is one Newton loop serving two target families: the
Maxwellian (scalar T), matched on the per-axis sums, and the Gaussian
(full T tensor; raw moments 1, v, v(x)v), matched on the whole lattice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensityError, NoConvergenceError, NotSpdError

N_FLOOR = 1e-30  # separates "empty cell" from "division blow-up"
_POWERS = np.arange(5)


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


def _axis_factors(u, theta: float, grid: VelocityGrid) -> list:
    """Per axis: the offsets c = v_i - u_i at its nodes and the factor
    exp(-c^2 / (2 theta))."""
    out = []
    for x, ui in zip(grid.axes, u):
        c = x - ui
        out.append((c, np.exp(c * c / (-2.0 * theta))))
    return out


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
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.dim,):
        raise ValueError(f"u must have length {grid.dim} (got {u.shape})")
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


def _forward_sub(L: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve L w = c rowwise for c of shape (N, d)."""
    d = L.shape[0]
    w = np.empty_like(c)
    for i in range(d):
        acc = c[:, i].copy()
        for k in range(i):
            acc -= L[i, k] * w[:, k]
        w[:, i] = acc / L[i, i]
    return w


def _gaussian_from_chol(n: float, u: np.ndarray, Lcov: np.ndarray,
                        grid: VelocityGrid) -> np.ndarray:
    """Gaussian with covariance Lcov Lcov^T, evaluated via the factor."""
    c = grid.nodes - u
    w = _forward_sub(Lcov, c)
    expo = 0.5 * np.einsum("ni,ni->n", w, w)
    norm = n / ((2.0 * math.pi) ** (grid.dim / 2.0)
                * float(np.prod(np.diag(Lcov))))
    return norm * np.exp(-expo)


def gaussian_on_grid(n: float, u, tensor, mass: float,
                     grid: VelocityGrid) -> np.ndarray:
    """Anisotropic Gaussian with temperature tensor `tensor`.

    Nodewise n / sqrt(det(2 pi T/m)) * exp(-(v-u) . (T/m)^-1 . (v-u) / 2),
    evaluated through the triangular factor (never an explicit inverse),
    which stays stable near the positive-definiteness boundary.  A plain
    matrix is factored first; factorization failure propagates.
    """
    if n < 0.0:
        raise ValueError(f"density must be nonnegative (got {n})")
    spd = tensor if isinstance(tensor, SpdTensor) else spd_factor(tensor)
    u = np.asarray(u, dtype=float)
    Lcov = spd.chol / math.sqrt(mass)
    return _gaussian_from_chol(n, u, Lcov, grid)


def _tri_index(dim: int) -> list[tuple[int, int]]:
    """Upper-triangle index order: diagonal first, then off-diagonal."""
    idx = [(i, i) for i in range(dim)]
    idx += [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    return idx


def _newton_match(p, spread_target, sample, admissible, spread_ok,
                  vscale: float, tol: float, dim: int, max_iter: int,
                  what: str):
    """Newton-correct parameters p = (n, u, spread...), starting at the
    targets, until the raw moments q of the sampled target hit them.

    q pairs f with (1, v, spread moments), weighted by the quadrature.
    sample(p) gives q, a thunk for the Jacobian dq/dp and a thunk for f.
    Converged when n and u match to tol (u relative to vscale) and
    spread_ok(q, qu) holds; steps are halved until admissible(p).
    Returns (f, iterations).
    """
    n, u = p[0], p[1:1 + dim]
    target = np.concatenate([[n], n * u, spread_target])
    for it in range(max_iter + 1):
        q, jacobian, build = sample(p)
        if abs(q[0] - n) <= tol * n:
            qu = q[1:1 + dim] / q[0]
            if (float(np.linalg.norm(qu - u)) <= tol * vscale
                    and spread_ok(q, qu)):
                return build(), it
        if it == max_iter:
            break
        try:
            step = np.linalg.solve(jacobian(), q - target)
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


def _maxwellian_raw_moments(p, mass: float, grid: VelocityGrid):
    """Raw moments w * sum f (1, v, |v|^2) of the Maxwellian with
    parameters p = (n, u, T), and a thunk for their Jacobian d/dp.

    Only per-axis sums are taken.  With factor g_i and c = v_i - u_i,
    the sums of c^k g_i (k = 0..4) give, through v_i = c + u_i, the
    sums of (1, v_i, v_i^2) times g_i (k = 0), times its u_i-derivative
    g_i c / theta (k = 1) and times its T-derivative g_i c^2 / (2 theta
    T) (k = 2).  q is multilinear in the per-axis value sums; the u_i
    column replaces axis i's sums by their u_i-derivatives, and the T
    column sums that replacement over the axes and adds the
    prefactor's -d/(2T) q.  The d-fold algebra runs on Python floats.
    """
    d = grid.dim
    pn, pT = float(p[0]), float(p[1 + d])
    theta = pT / mass
    scale = grid.weight * pn / (2.0 * math.pi * theta) ** (d / 2.0)
    pu = p[1:1 + d]
    value, du, dT = [], [], []
    for u, (c, g) in zip(pu.tolist(), _axis_factors(pu, theta, grid)):
        s = (g @ (c[:, None] ** _POWERS)).tolist()
        shifted = [(s[k], s[k + 1] + u * s[k],
                    s[k + 2] + u * (2.0 * s[k + 1] + u * s[k]))
                   for k in range(3)]
        value.append(shifted[0])
        du.append([x / theta for x in shifted[1]])
        dT.append([x / (2.0 * theta * pT) for x in shifted[2]])

    def raw(rows):
        """q / scale from per-axis sums (sum g, sum v g, sum v^2 g)."""
        a = [r[0] for r in rows]
        rest = [math.prod(a[:i] + a[i + 1:]) for i in range(d)]
        return ([math.prod(a)] + [r[1] * x for r, x in zip(rows, rest)]
                + [sum(r[2] * x for r, x in zip(rows, rest))])

    q = scale * np.array(raw(value))

    def jacobian():
        dq = scale * np.array([raw(value[:i] + [row] + value[i + 1:])
                               for kind in (du, dT)
                               for i, row in enumerate(kind)]).T
        return np.column_stack([q / pn, dq[:, :d],
                                dq[:, d:].sum(axis=1) - d / (2.0 * pT) * q])

    return q, jacobian


def match_moments(n: float, u, T: float, mass: float, grid: VelocityGrid,
                  tol: float = 1e-13, max_iter: int = 50,
                  return_info: bool = False) -> np.ndarray:
    """Discrete Maxwellian whose quadrature (n, u, T) hit the targets.

    Newton-corrects the Maxwellian parameters so the discrete moments
    match to `tol` (relative).  The iteration runs on per-axis sums;
    f is sampled once, at the converged parameters.  If the analytic
    parameters already match, the sampled Maxwellian is returned
    unchanged after zero iterations.

    Raises NoConvergenceError when the grid cannot represent the target
    (too coarse, or support clipped by the domain).
    """
    if n <= 0.0 or T <= 0.0:
        raise ValueError(f"targets require n > 0 and T > 0 (got {n}, {T})")
    u = np.asarray(u, dtype=float)
    d = grid.dim
    unorm = float(np.linalg.norm(u))

    def sample(p):
        q, jacobian = _maxwellian_raw_moments(p, mass, grid)
        return q, jacobian, lambda: maxwellian_on_grid(
            p[0], p[1:1 + d], p[1 + d], mass, grid)

    def temperature_ok(q, qu):
        qT = mass * (q[1 + d] - q[0] * float(qu @ qu)) / (d * q[0])
        return abs(qT - T) <= tol * T

    f, it = _newton_match(
        np.concatenate([[n], u, [T]]), [n * (unorm * unorm + d * T / mass)],
        sample, lambda p: p[0] > 0.0 and p[1 + d] > 0.0, temperature_ok,
        math.sqrt(T / mass) + unorm, tol, d, max_iter,
        f"Maxwellian n={n}, T={T}")
    return (f, it) if return_info else f


def match_gaussian(n: float, u, tensor, mass: float, grid: VelocityGrid,
                   tol: float = 1e-13, max_iter: int = 50,
                   return_info: bool = False) -> np.ndarray:
    """Discrete Gaussian whose quadrature (n, u, T-tensor) hit the targets.

    Analogue of match_moments for anisotropic targets: Newton on
    (n, u, covariance) against the raw moments (1, v, v(x)v), reduced
    over the whole lattice.
    """
    if n <= 0.0:
        raise ValueError(f"targets require n > 0 (got {n})")
    spd = tensor if isinstance(tensor, SpdTensor) else spd_factor(tensor)
    u = np.asarray(u, dtype=float)
    d, w = grid.dim, grid.weight
    tri = _tri_index(d)
    sigma_t = spd.matrix / mass
    tscale = float(np.trace(spd.matrix)) / d
    basis = np.concatenate(
        [np.ones((grid.nnodes, 1)), grid.nodes,
         np.stack([grid.nodes[:, i] * grid.nodes[:, j] for i, j in tri],
                  axis=1)], axis=1)

    def symmetric(upper):
        out = np.empty((d, d))
        for k, (i, j) in enumerate(tri):
            out[i, j] = out[j, i] = upper[k]
        return out

    def sample(p):
        pn, pu, sig = p[0], p[1:1 + d], symmetric(p[1 + d:])
        try:
            Lcov = np.linalg.cholesky(sig)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(
                "covariance left the positive-definite cone") from exc
        f = _gaussian_from_chol(pn, pu, Lcov, grid)
        q = w * (f @ basis)
        q[0] = grid.density(f)

        def jacobian():
            sig_inv = np.linalg.inv(sig)
            z = (grid.nodes - pu) @ sig_inv
            deriv = np.empty((grid.nnodes, 1 + d + len(tri)))
            deriv[:, 0] = f / pn
            deriv[:, 1:1 + d] = f[:, None] * z
            for k, (i, j) in enumerate(tri):
                half = 0.5 if i == j else 1.0
                deriv[:, 1 + d + k] = half * f * (z[:, i] * z[:, j]
                                                  - sig_inv[i, j])
            return w * (basis.T @ deriv)

        return q, jacobian, lambda: f

    def admissible(p):
        try:
            np.linalg.cholesky(symmetric(p[1 + d:]))
        except np.linalg.LinAlgError:
            return False
        return p[0] > 0.0

    def tensor_ok(q, qu):
        qsig = symmetric(q[1 + d:]) / q[0] - np.outer(qu, qu)
        return float(np.max(np.abs(mass * qsig - spd.matrix))) <= tol * tscale

    f, it = _newton_match(
        np.concatenate([[n], u, [sigma_t[i, j] for i, j in tri]]),
        [n * (u[i] * u[j] + sigma_t[i, j]) for i, j in tri], sample,
        admissible, tensor_ok,
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
