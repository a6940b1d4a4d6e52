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

Moment matching is one Newton problem for both target families.  A
Maxwellian is the Gaussian whose covariance S = T/m is theta I, so each
family gives spread parameters s in theta units and a constant 0/1
matrix J taking them to the upper triangle of S (theta onto the
diagonal, or the identity); the raw moments matched, the convergence
and admissibility tests and the velocity scale all follow from
(n, u, J s).  Every entry of the moments and of their Jacobian is a
centred moment of degree <= 4 (Mieussens, M3AS 2000), read from one
tensor of per-axis powers: the outer product of per-axis sums for the
Maxwellian, the lattice sample contracted axis by axis for the
Gaussian.  The matchers and samplers take a stack of K targets (n, T,
mass as (K,), u as (K, d), tensors as a (K, d, d) stack) and run one
Newton loop for all of them: each iteration samples the members not yet
converged and solves their systems in one stacked solve, and a
converged member is frozen, so every member follows exactly the
iterates it would follow alone.  An unstacked call is a stack of one.
`moments` likewise reduces every cell of a (cells, nodes) array at once.
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
        # every axis' nodes end to end, for reductions over all axes at once
        self.axis_nodes = np.concatenate(self.axes)
        self.axis_of = np.repeat(np.arange(dim), pts)
        self.axis_start = np.cumsum(pts) - pts
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
    """Quadrature moments of one species, one set per cell when the
    distribution has a leading cell axis (then every field gains it).

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
    """Symmetric positive-definite matrix with its Cholesky factor; both
    may carry leading stack axes."""

    matrix: np.ndarray
    chol: np.ndarray


def moments(f: np.ndarray, mass: float, grid: VelocityGrid,
            n_floor: float = N_FLOOR) -> MomentSet:
    """Full moment set of a distribution array, (nodes,) or (cells, nodes).

    No moment involves more than two velocity axes, so all of them are
    reduced from lattice marginals of each cell's f viewed on the
    (P_1, ..., P_d) lattice: the pairwise marginals M_ij (one sum over f
    per pair) and the per-axis marginals m_i summed from them.  n and u
    come from the m_i.  With the per-axis offsets c_i = v_i - u_i (exact
    centring: a marginal does not depend on the shift), the centred sums
    S = sum f c(x)c and S3 = sum f c |c|^2 are read from one quadratic
    form R W R^T over all axes' nodes end to end: W holds diag(m_i) in
    its diagonal blocks and M_ij off them, R the rows c_i and then the
    rows c_i^2, each zero off axis i's nodes.  So S_ij is entry [i, j]
    and sum f c_i c_j^2 entry [i, d + j].  Then P = m w S,
    Qtilde = m w S3, and with s0 = sum f the raw flux is
    Q = w (S3 + 2 S u + u tr S + s0 |u|^2 u) / 2.  All cells reduce
    together; a (nodes,) input gives scalar n and T.

    Raises DegenerateDensityError, listing the cells, when a quadrature
    density is below n_floor; mean velocity and temperature are
    undefined there.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != grid.nnodes:
        raise ValueError(f"distribution shape {f.shape} does not match grid "
                         f"({grid.nnodes} nodes)")
    d, w, nodes = grid.dim, grid.weight, grid.axis_nodes
    lattice = f.reshape((-1, *grid.points))
    labels = list(range(1, d + 1))
    pairs = {(i, j): np.einsum(lattice, [0] + labels, [0, i + 1, j + 1])
             for i, j in itertools.combinations(range(d), 2)}
    if d == 1:
        marginals = [lattice]
    else:
        marginals = ([pairs[0, 1].sum(axis=2)]
                     + [pairs[0, i].sum(axis=1) for i in range(1, d)])
    s0 = marginals[0].sum(axis=1)
    n = w * s0
    if np.any(n < n_floor):
        bad = np.flatnonzero(n < n_floor)
        raise DegenerateDensityError(float(n[bad[0]]), n_floor,
                                     bad if f.ndim == 2 else None)
    C, axis = len(s0), [slice(a, a + p) for a, p in zip(grid.axis_start,
                                                         grid.points)]
    m = np.concatenate(marginals, axis=1)
    u = np.add.reduceat(m * nodes, grid.axis_start, axis=1) / s0[:, None]
    c = nodes - u[:, grid.axis_of]
    W = np.zeros((C, len(nodes), len(nodes)))
    W.reshape(C, -1)[:, ::len(nodes) + 1] = m
    for (i, j), M in pairs.items():
        W[:, axis[i], axis[j]] = M
        W[:, axis[j], axis[i]] = M.transpose(0, 2, 1)
    R = (grid.axis_of == np.arange(d)[:, None]) * c[:, None, :]
    R = np.concatenate([R, R * c[:, None, :]], axis=1)
    K = R @ W @ R.transpose(0, 2, 1)
    S = K[:, :d, :d]
    S = 0.5 * (S + S.transpose(0, 2, 1))  # so P is bitwise symmetric
    S3 = K[:, :d, d:].sum(axis=2)
    trS = np.einsum("cii->c", S)
    P = mass * w * S
    T = mass * w * trS / (d * n)
    Q = 0.5 * w * (S3 + 2.0 * (S @ u[:, :, None])[:, :, 0] + trS[:, None] * u
                   + (s0 * np.sum(u * u, axis=1))[:, None] * u)
    if f.ndim == 1:
        return MomentSet(n=float(n[0]), u=u[0], T=float(T[0]), P=P[0],
                         Q=Q[0], Qtilde=mass * w * S3[0])
    return MomentSet(n=n, u=u, T=T, P=P, Q=Q, Qtilde=mass * w * S3)


def _members(grid: VelocityGrid, u, *scalars, shape=()):
    """The arguments of a sampler or matcher as a stack of K members:
    u as (K, d) and each scalar argument (n, T, mass) as (K,).

    Any argument may carry the member axis (`shape` is that of a
    tensor stack); the others broadcast over it.  A call without one is
    a stack of one, and the first value returned says which it was.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != grid.dim:
        raise ValueError(f"u must have length {grid.dim} (got {u.shape})")
    cols = [np.asarray(x, dtype=float) for x in scalars]
    if any(c.ndim > 1 for c in cols) or len(shape) > 1:
        raise ValueError("stacked arguments take one member axis")
    stacked = u.ndim == 2 or bool(shape) or any(c.ndim for c in cols)
    size = max(*shape, len(u) if u.ndim == 2 else 1, *(c.size for c in cols))
    out = [np.empty((size, grid.dim))] + [np.empty(size) for _ in cols]
    for dst, src in zip(out, [u, *cols]):
        dst[...] = src  # broadcasts, or raises for stacks of unequal size
    return (stacked, *out)


def _require(ok: np.ndarray, values: np.ndarray, what: str) -> None:
    """ValueError naming the first member where `ok` fails (NaN fails)."""
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise ValueError(f"{what} (member {k}: got {values[k]})")


def _block(out, members: int, grid: VelocityGrid) -> np.ndarray:
    """`out`, checked to be a C-contiguous (members, nodes) array, or a
    new one."""
    if out is None:
        return np.empty((members, grid.nnodes))
    if out.shape != (members, grid.nnodes) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous ({members}, "
                         f"{grid.nnodes}) array (got {out.shape})")
    return out


def _axis_factors(u: np.ndarray, theta: np.ndarray,
                  grid: VelocityGrid) -> tuple[np.ndarray, np.ndarray]:
    """The offsets c = v_i - u_i at every axis' nodes (end to end, one
    row per member) and the factors exp(-c^2 / (2 theta))."""
    c = grid.axis_nodes - u[:, grid.axis_of]
    return c, np.exp(c * c / (-2.0 * theta[:, None]))


def _maxwellian_fill(n, u, theta, grid: VelocityGrid, out) -> None:
    """Write the Maxwellians n / (2 pi theta)^(d/2) exp(-|v-u|^2 / (2
    theta)) of a stack into the rows of out, each the outer product of
    its per-axis factors in the nodes' ij order."""
    f = (n / (2.0 * math.pi * theta) ** (grid.dim / 2.0))[:, None]
    g = _axis_factors(u, theta, grid)[1]
    factors = [g[:, a:a + p] for a, p in zip(grid.axis_start, grid.points)]
    for g in factors[:-1]:
        f = (f[:, :, None] * g[:, None, :]).reshape(len(f), -1)
    np.multiply(f[:, :, None], factors[-1][:, None, :],
                out=out.reshape(len(f), f.shape[1], -1))


def maxwellian_on_grid(n, u, T, mass, grid: VelocityGrid,
                       out=None) -> np.ndarray:
    """Drifting Maxwellian sampled at the grid nodes.

    Nodewise n / (2 pi T/m)^(d/2) * exp(-|v-u|^2 / (2 T/m)), built as
    the outer product of the per-axis factors in the nodes' ij order.
    Stacked arguments give one row per member (written into `out` if
    given).
    """
    stacked, u, n, T, mass = _members(grid, u, n, T, mass)
    _require(T > 0.0, T, "temperature must be positive")
    _require(n >= 0.0, n, "density must be nonnegative")
    out = _block(out, len(n), grid)
    _maxwellian_fill(n, u, T / mass, grid, out)
    return out if stacked else out[0]


def spd_factor(matrix) -> SpdTensor:
    """Cholesky-factor a symmetric matrix, or a stack of them (..., d, d);
    a failure identifies the pivot, and the member of a stack.

    The matrix must be symmetric to 1e-12 (relative).  Factorization
    succeeds exactly when all eigenvalues are positive and finite; a
    NaN or infinite entry fails at a pivot.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    d = M.shape[-1]
    L = np.zeros_like(M)
    with np.errstate(invalid="ignore"):  # non-finite entries fail a pivot
        scale = max(1.0, float(np.max(np.abs(M))))
        if float(np.max(np.abs(M - np.swapaxes(M, -1, -2)))) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric within 1e-12")
        for j in range(d):
            s = M[..., j, j] - np.sum(L[..., j, :j] ** 2, axis=-1)
            bad = np.ravel(~(np.isfinite(s) & (s > 0.0)))
            if bad.any():
                k = int(np.argmax(bad))
                raise NotSpdError(pivot=j, value=float(np.ravel(s)[k]),
                                  matrix=M.reshape(-1, d, d)[k],
                                  member=k if M.ndim > 2 else None)
            L[..., j, j] = np.sqrt(s)
            for i in range(j + 1, d):
                L[..., i, j] = (M[..., i, j] - np.sum(
                    L[..., i, :j] * L[..., j, :j], axis=-1)) / L[..., j, j]
    return SpdTensor(matrix=M.copy(), chol=L)


def _gaussian_fill(n: float, u: np.ndarray, L: np.ndarray,
                   grid: VelocityGrid, out: np.ndarray) -> None:
    """Write n / ((2 pi)^(d/2) det L) exp(-|w|^2 / 2), L w = v - u, into
    the (nodes,) row out: the substitution runs axis by axis, w_i living
    on the leading i axes."""
    d, ws = grid.dim, []
    for i, x in enumerate(grid.axes):
        acc = (x - u[i]).reshape((-1,) + (1,) * (d - 1 - i))
        for k in range(i):
            acc = acc - L[i, k] * ws[k]
        ws.append(acc / L[i, i])
    lattice = out.reshape(grid.points)
    np.exp(-0.5 * sum(w * w for w in ws), out=lattice)
    lattice *= n / ((2.0 * math.pi) ** (d / 2.0) * float(np.prod(np.diag(L))))


def gaussian_on_grid(n, u, tensor, mass, grid: VelocityGrid,
                     out=None) -> np.ndarray:
    """Anisotropic Gaussian with temperature tensor `tensor`.

    Nodewise n / sqrt(det(2 pi T/m)) * exp(-(v-u) . (T/m)^-1 . (v-u) / 2),
    evaluated through the triangular factor (never an explicit inverse),
    which stays stable near the positive-definiteness boundary.  A plain
    matrix is factored first; factorization failure propagates.  Stacked
    arguments give one row per member, sampled member by member.
    """
    spd = tensor if isinstance(tensor, SpdTensor) else spd_factor(tensor)
    stacked, u, n, mass = _members(grid, u, n, mass,
                                   shape=np.shape(spd.chol)[:-2])
    _require(n >= 0.0, n, "density must be nonnegative")
    chol = np.broadcast_to(spd.chol, (len(n), grid.dim, grid.dim))
    out = _block(out, len(n), grid)
    for k, row in enumerate(out):
        _gaussian_fill(n[k], u[k], chol[k] / math.sqrt(mass[k]), grid, row)
    return out if stacked else out[0]


def _tri_index(dim: int) -> list[tuple[int, int]]:
    """Upper-triangle index order: diagonal first, then off-diagonal."""
    return ([(i, i) for i in range(dim)]
            + list(itertools.combinations(range(dim), 2)))


@functools.lru_cache(maxsize=None)
def _monomials(dim: int):
    """Read-only tables for the centred monomials m = (1, c_i, c_i c_j),
    i <= j in `_tri_index` order: the axes (ti, tj) of each product, the
    flat index of each Gram entry w sum f m_a m_b into the (5,) * dim
    moment tensor, the linear map from (u_i, u_i u_j) to the matrix A
    of `_newton_system`, and the 0/1 map from upper triangles to
    flattened symmetric matrices.
    """
    ti, tj = np.array(_tri_index(dim)).T
    eye = np.eye(dim, dtype=int)
    expo = np.concatenate([np.zeros_like(eye[:1]), eye, eye[ti] + eye[tj]])
    gram = np.ravel_multi_index(tuple((expo[:, None] + expo).T), (5,) * dim)
    # A(u) = I + (u, u_ti u_tj) @ shift, flattened: A writes the raw
    # monomials over the centred ones, 1 -> 1, v_i -> c_i + u_i and
    # v_i v_j -> c_i c_j + u_j c_i + u_i c_j + u_i u_j
    rows, size = np.arange(1 + dim, len(expo)), len(expo)
    shift = np.zeros((dim + len(ti), size, size))
    shift[range(dim), range(1, 1 + dim), 0] = 1.0
    shift[range(dim, dim + len(ti)), rows, 0] = 1.0
    np.add.at(shift, (ti, rows, 1 + tj), 1.0)
    np.add.at(shift, (tj, rows, 1 + ti), 1.0)
    shift = shift.reshape(len(shift), -1)
    sym = np.zeros((len(ti), dim, dim))
    sym[range(len(ti)), ti, tj] = sym[range(len(ti)), tj, ti] = 1.0
    sym = sym.reshape(len(ti), -1)
    for table in (ti, tj, gram, shift, sym):
        table.flags.writeable = False
    return ti, tj, gram, shift, sym


@functools.lru_cache(maxsize=None)
def _spread_map(dim: int, isotropic: bool) -> np.ndarray:
    """Read-only 0/1 matrix J taking a target family's spread parameters
    s (in theta = T/m units) to the upper triangle of its covariance S
    in `_tri_index` order: for the Maxwellian (S = theta I) J puts theta
    on the diagonal, for the Gaussian J is the identity."""
    J = np.eye(dim * (dim + 1) // 2)
    J = J[:, :dim].sum(axis=1, keepdims=True) if isotropic else J
    J.flags.writeable = False
    return J


def _symmetric(upper, dim: int) -> np.ndarray:
    """Symmetric matrices from their upper triangles in `_tri_index`
    order (leading axes are kept); each entry is copied exactly from a
    finite upper triangle."""
    return (upper @ _monomials(dim)[4]).reshape(np.shape(upper)[:-1]
                                                + (dim, dim))


def _newton_system(u: np.ndarray, select: np.ndarray,
                   M: np.ndarray) -> np.ndarray:
    """select A G for a stack of targets centred at u (K, d).

    M[k, a] = w sum f_k prod_i c_i^a_i (c = v - u_k, a_i <= 4) is member
    k's centred moment tensor and df/dp = f B m.  With the Gram matrix
    G = w sum f m m^T read from M and A writing the raw monomials
    (1, v_i, v_i v_j) over m, the raw moments are q = select A G e_0
    (column 0 of the result) and dq/dp = select A G B^T.
    """
    K, d = u.shape
    ti, tj, gram, shift = _monomials(d)[:4]
    A = np.concatenate([u, u[:, ti] * u[:, tj]], axis=1) @ shift
    A[:, ::len(gram) + 1] += 1.0
    return select @ A.reshape(K, len(gram), -1) @ M.reshape(K, -1)[:, gram]


def _maxwellian_sample(p: np.ndarray, grid: VelocityGrid) -> np.ndarray:
    """Centred moment tensors (K, 5, ..., 5) of the Maxwellians with
    p = (n, u, theta) per row: the prefactor times the outer product of
    the per-axis power sums sum g_i c_i^k (K, 5, d) of their factors
    g_i, the powers built by a running product.  No lattice-sized array
    is formed.
    """
    K, d = len(p), grid.dim
    theta = p[:, 1 + d]
    c, g = _axis_factors(p[:, 1:1 + d], theta, grid)
    power = np.empty((K, 5, c.shape[1]))
    power[:, 0] = g
    for k in range(1, 5):
        np.multiply(power[:, k - 1], c, out=power[:, k])
    sums = np.add.reduceat(power, grid.axis_start, axis=2)
    M = grid.weight * p[:, 0] / (2.0 * math.pi * theta) ** (d / 2.0)
    for i in range(d):
        M = M[..., None] * sums[:, :, i].reshape((K,) + (1,) * i + (5,))
    return M


def _maxwellian_derivs(p: np.ndarray, d: int) -> np.ndarray:
    """B (K, d + 2, monomials) with df/dp = f B m for the Maxwellians
    p = (n, u, theta): f (1/n, c_i / theta, |c|^2 / (2 theta^2)
    - d / (2 theta))."""
    n, theta = p[:, 0], p[:, 1 + d]
    axes = np.arange(1, 1 + d)
    B = np.zeros((len(p), d + 2, len(_monomials(d)[2])))
    B[:, 0, 0], B[:, -1, 0] = 1.0 / n, -d / (2.0 * theta)
    B[:, axes, axes] = (1.0 / theta)[:, None]
    B[:, -1, 1 + d:1 + 2 * d] = (0.5 / (theta * theta))[:, None]
    return B


def _gaussian_sample(p: np.ndarray, grid: VelocityGrid, out: np.ndarray,
                     rows) -> np.ndarray:
    """Centred moment tensors (K, 5, ..., 5) of the Gaussians with
    p = (n, u, upper triangle of the covariance S = T/m) per row.

    Member by member: the lattice sample is written into its row of
    `out` (rows[k] for p[k]) and contracted axis by axis with the
    powers c_i^k.
    """
    d = grid.dim
    cov = _symmetric(p[:, 1 + d:], d)
    M = np.empty((len(p),) + (5,) * d)
    for k, row in enumerate(rows):
        try:
            L = np.linalg.cholesky(cov[k])
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(
                f"covariance left the positive-definite cone (member {row})",
                member=row) from exc
        _gaussian_fill(p[k, 0], p[k, 1:1 + d], L, grid, out[row])
        moment = grid.weight * out[row].reshape(grid.points)
        for x, ui in zip(grid.axes, p[k, 1:1 + d]):
            powers = np.vander(x - ui, 5, increasing=True)
            moment = np.tensordot(moment, powers, axes=(0, 0))
        M[k] = moment
    return M


def _gaussian_derivs(p: np.ndarray, d: int) -> np.ndarray:
    """B (K, P, P) with df/dp = f B m for the Gaussians p = (n, u, S).

    With z = S^-1 c and h = 1/2 for i = j, else 1, df/dp = f (1/n, z_i,
    h (z_i z_j - S^-1_ij)); z_i z_j puts S^-1_ik S^-1_jl + S^-1_il S^-1_jk
    on c_k c_l (k <= l), twice the one product when k = l: h again.
    """
    ti, tj = _monomials(d)[:2]
    inv = np.linalg.inv(_symmetric(p[:, 1 + d:], d))
    h = np.where(ti == tj, 0.5, 1.0)
    B = np.zeros((len(p), p.shape[1], p.shape[1]))
    B[:, 0, 0], B[:, 1:1 + d, 1:1 + d] = 1.0 / p[:, 0], inv
    B[:, 1 + d:, 0] = -h * inv[:, ti, tj]
    Ii, Ij = inv[:, ti], inv[:, tj]
    B[:, 1 + d:, 1 + d:] = h[:, None] * h * (Ii[:, :, ti] * Ij[:, :, tj]
                                             + Ii[:, :, tj] * Ij[:, :, ti])
    return B


def _newton_match(n, u, s, J, sample, derivs, tol: float, max_iter: int,
                  what):
    """Newton-correct a stack of K targets of either family until the
    raw moments q of each member's sampled target hit the exact ones.

    Member k has density n[k], mean velocity u[k] and covariance S = T/m
    with upper triangle J s[k]; all else follows from (n, u, J s).
    Newton runs on p = (n, u, s) from the targets, and q pairs f with
    (1, v, J^T (v_i v_j)), picked from (1, v_i, v_i v_j) by select =
    diag(1, I_d, J^T).  sample(p, rows) gives the centred moment tensors
    of the members `rows` and derivs(p, d) their derivative matrices B;
    `_newton_system` turns them into q and dq/dp.  A member has
    converged when n matches to tol relative, u to tol times the
    velocity scale sqrt(tr S / d) + |u|, and s, read back from q through
    J, to tol times tr S / d.  Each iteration samples only the members
    not yet converged, forms dq/dp only for those that step, and solves
    them in one stacked solve; a converged member is frozen, so it
    follows exactly the iterates it would follow alone.  Each step is
    halved until n > 0 and S is positive definite, down to 2^-20.
    Failures name the member through what(k).  Returns (p, per-member
    iteration counts).
    """
    d = u.shape[1]
    ti, tj = _monomials(d)[:2]
    select = np.eye(1 + d + J.shape[1], 1 + d + len(J))
    select[1 + d:, 1 + d:] = J.T
    cov = s @ J.T
    target = np.column_stack([n, n[:, None] * u, n[:, None]
                              * (u[:, ti] * u[:, tj] + cov)]) @ select.T
    tscale = cov[:, :d].sum(axis=1) / d
    vscale = np.sqrt(tscale) + np.sqrt((u * u).sum(axis=1))
    count = J.sum(axis=0)  # the entries of S that each s sets
    p = np.column_stack([n, u, s])
    iters = np.zeros(len(p), dtype=int)
    active = np.arange(len(p))
    for it in range(max_iter + 1):
        pa = p[active]
        SAG = _newton_system(pa[:, 1:1 + d], select, sample(pa, active))
        q = SAG[:, :, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            # q0 = 0 gives NaN, which fails the tests as n already does
            raw = q[:, 1:] / q[:, :1]
            qu = raw[:, :d]
            du = qu - u[active]
            ds = (raw[:, d:] - (qu[:, ti] * qu[:, tj]) @ J) / count - s[active]
            done = ((np.abs(q[:, 0] - n[active]) <= tol * n[active])
                    & (np.sqrt((du * du).sum(axis=1)) <= tol * vscale[active])
                    & (np.abs(ds).max(axis=1) <= tol * tscale[active]))
        iters[active] = it
        stepping = ~done
        active, pa, q, SAG = (active[stepping], pa[stepping], q[stepping],
                              SAG[stepping])
        if not active.size:
            return p, iters
        if it == max_iter:
            break
        dqdp = SAG @ np.swapaxes(derivs(pa, d), 1, 2)
        try:
            step = np.linalg.solve(dqdp, (q - target[active])[:, :, None])
        except np.linalg.LinAlgError as exc:
            k = int(active[np.argmax(np.linalg.cond(dqdp))])
            raise NoConvergenceError(
                f"singular Jacobian while matching {what(k)}",
                member=k) from exc
        shrink = np.ones(len(active))
        while True:
            cand = pa - shrink[:, None] * step[:, :, 0]
            ok = np.isfinite(cand).all(axis=1)
            S = _symmetric(cand[ok, 1 + d:] @ J.T, d)
            ok[ok] = (cand[ok, 0] > 0.0) & (np.linalg.eigvalsh(S)[:, 0] > 0.0)
            if ok.all():
                break
            shrink[~ok] *= 0.5
            if shrink.min() < 2.0 ** -20:
                k = int(active[np.argmin(shrink)])
                raise NoConvergenceError(
                    f"no admissible Newton step while matching {what(k)}",
                    member=k)
        p[active] = cand
    k = int(active[0])
    raise NoConvergenceError(
        f"moment matching did not converge in {max_iter} iterations "
        f"({what(k)}; grid too coarse or support clipped)", member=k)


def match_moments(n, u, T, mass, grid: VelocityGrid, tol: float = 1e-13,
                  max_iter: int = 50, return_info: bool = False,
                  out=None) -> np.ndarray:
    """Discrete Maxwellian whose quadrature (n, u, T) hit the targets.

    The Gaussian problem of `_newton_match` with covariance theta I,
    theta = T/m: Newton on (n, u, theta) so that the discrete moments
    (1, v, |v|^2) match to `tol` (relative).  The Newton system comes
    from per-axis sums; f is sampled once, at the converged parameters,
    and is the plain sampled Maxwellian if it matches at once.  Stacked
    arguments (n, T, mass as (K,), u as (K, d)) match K targets in one
    Newton loop and give one row per member (written into `out` if
    given); `return_info` then reports the largest iteration count.

    Raises NoConvergenceError, naming the member, when the grid cannot
    represent a target (too coarse, or support clipped by the domain).
    """
    stacked, u, n, T, mass = _members(grid, u, n, T, mass)
    _require(n > 0.0, n, "targets require n > 0")
    _require(T > 0.0, T, "targets require T > 0")
    d = grid.dim
    p, iters = _newton_match(
        n, u, (T / mass)[:, None], _spread_map(d, True),
        lambda p, rows: _maxwellian_sample(p, grid), _maxwellian_derivs,
        tol, max_iter, lambda k: f"member {k}: Maxwellian n={n[k]}, T={T[k]}")
    out = _block(out, len(n), grid)
    _maxwellian_fill(p[:, 0], p[:, 1:1 + d], p[:, 1 + d], grid, out)
    f = out if stacked else out[0]
    return (f, int(iters.max())) if return_info else f


def match_gaussian(n, u, tensor, mass, grid: VelocityGrid, tol: float = 1e-13,
                   max_iter: int = 50, return_info: bool = False,
                   out=None) -> np.ndarray:
    """Discrete Gaussian whose quadrature (n, u, T-tensor) hit the targets.

    The problem of `_newton_match` with the full covariance S = T/m as
    its spread: Newton on (n, u, S) against all raw moments
    (1, v, v(x)v), with the Newton system from the lattice sample of
    each iterate, which is written straight into the member's row of
    the result.  Stacks as match_moments does; a stacked `tensor` is a
    (K, d, d) SpdTensor or matrix.
    """
    spd = tensor if isinstance(tensor, SpdTensor) else spd_factor(tensor)
    stacked, u, n, mass = _members(grid, u, n, mass,
                                   shape=np.shape(spd.matrix)[:-2])
    _require(n > 0.0, n, "targets require n > 0")
    K, d = len(n), grid.dim
    ti, tj = _monomials(d)[:2]
    cov = np.broadcast_to(spd.matrix, (K, d, d)) / mass[:, None, None]
    out = _block(out, K, grid)
    _, iters = _newton_match(
        n, u, cov[:, ti, tj], _spread_map(d, False),
        lambda p, rows: _gaussian_sample(p, grid, out, rows), _gaussian_derivs,
        tol, max_iter, lambda k: f"member {k}: Gaussian n={n[k]}")
    f = out if stacked else out[0]
    return (f, int(iters.max())) if return_info else f


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
