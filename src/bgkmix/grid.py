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
varies fastest); only those vectors are stored, never a (nodes, d)
array of node coordinates.  A drifting Maxwellian is sampled as the
outer product of d one-dimensional Gaussians (a row may sum several
Maxwellians, one matrix product of their factors), an anisotropic
Gaussian in place as a one-dimensional Gaussian along the last axis,
its log-height and centre conditioned on the leading axes; a stack of
Gaussians is factored by one LAPACK Cholesky call and written by one
fill, or by one per run of rows at a constant stride when only some of
its members are sampled.  Every lattice moment, of a distribution or of
a Gaussian sample, is read from its tensor sum f prod_i c_i^a_i of
per-axis offset powers (`_lattice_tensor`).

Moment matching is one Newton problem for both target families.  A
Maxwellian is the Gaussian whose covariance S = T/m is theta I, so each
family gives spread parameters s in theta units and a constant 0/1
matrix J taking them to the upper triangle of S (theta onto the
diagonal, or the identity); the raw moments matched, the convergence
and admissibility tests and the velocity scale all follow from
(n, u, J s).  Every entry of the moments and of their Jacobian is a
centred moment of degree <= 4 (Mieussens, M3AS 2000), read from one
tensor of per-axis powers: the outer product of per-axis sums for the
Maxwellian, the lattice sample's tensor for the Gaussian.  The matchers
and samplers take a stack of K targets (n, T, mass as (K,), u as
(K, d), tensors as a (K, d, d) stack) and run one Newton loop for all
of them: it steps the whole stack until a member converges, then only
the members not yet converged, in one stacked solve, so every member
follows exactly the iterates it would follow alone.  An unstacked call
is a stack of one.  `moments` likewise reduces every cell of a
(cells, nodes) array at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensityError, NoConvergenceError, NotSpdError

N_FLOOR = 1e-30  # separates "empty cell" from "division blow-up"
MAX_ITER = 50  # Newton iterations a moment match may take
MATCH_TOL = 1e-13  # relative tolerance to which a moment match converges


def _per_axis(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValueError(f"{name} must be scalar or length {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (got {value})")
    return arr


class VelocityGrid:
    """Midpoint-rule lattice over [vmin, vmax]^d.

    Nodes sit at cell centers, so a grid symmetric about the origin has
    exactly paired +/-v nodes and odd moments of even functions cancel
    to round-off.  The grid holds its per-axis node vectors `axes` (and
    `axis_nodes`, the same end to end), O(sum of points) floats; the
    nnodes = prod(points) nodes are their tensor product in `ij` order.
    """

    def __init__(self, dim: int = 3, vmin=-8.0, vmax=8.0, points=32):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3 (got {dim})")
        self.dim = dim
        lo = _per_axis(vmin, dim, "vmin")
        hi = _per_axis(vmax, dim, "vmax")
        pts = _per_axis(points, dim, "points")
        if np.any(pts % 1.0) or np.any(pts < 8):
            raise ValueError(f"points must be whole numbers, at least 8 per "
                             f"axis (got {points})")
        # checked before the integer cast, which wraps past int64
        most, self.nnodes = np.iinfo(np.intp).max, math.prod(map(int, pts))
        if self.nnodes > most:
            raise ValueError(f"points must give at most {most} lattice nodes "
                             f"(got {points})")
        pts = pts.astype(int)
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

    @classmethod
    def reference(cls) -> "VelocityGrid":
        """32 points per axis on [-8, 8]^3."""
        return cls()

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
    Qtilde  peculiar heat flux m * int (v-u) |v-u|^2 f dv (d,)
    """

    n: float
    u: np.ndarray
    T: float
    P: np.ndarray | None = None
    Qtilde: np.ndarray | None = None

    def rows(self, index) -> "MomentSet":
        """The sets of rows `index` of a full set with a leading row axis:
        a slice keeps the axis, an integer gives one row's set with
        scalar n and T."""
        n, T = self.n[index], self.T[index]
        if np.ndim(n) == 0:
            n, T = float(n), float(T)
        return MomentSet(n=n, u=self.u[index], T=T, P=self.P[index],
                         Qtilde=self.Qtilde[index])


@dataclass
class SpdTensor:
    """Symmetric positive-definite matrix with its Cholesky factor; both
    may carry leading stack axes."""

    matrix: np.ndarray
    chol: np.ndarray


def moments(f: np.ndarray, mass, grid: VelocityGrid) -> MomentSet:
    """Full moment set of a distribution array, (nodes,) or (rows, nodes),
    with `mass` a scalar or one value per row.

    Every moment is read from a lattice tensor sum f prod_i c_i^a_i of
    per-axis offsets c_i (`_lattice_tensor`).  With c_i = v_i, the
    degree-1 tensor gives s0 = sum f and sum f v_i, so n = w s0 and u.
    With c_i = v_i - u_i, the degree-4 tensor holds the centred Gram
    entries that `_newton_system` reads (`_monomials`): the centred sums
    S = sum f c(x)c and S3 = sum f c |c|^2.  Then P = m w S and
    Qtilde = m w S3.  All rows (the cells of a species, or the cells of
    both species stacked, each row with its own mass) reduce together,
    and each row's set equals its solo reduction bitwise; a (nodes,)
    input gives scalar n and T.  A row holding a non-finite value gives
    NaN moments, with no warning.

    Raises DegenerateDensityError, listing the rows, when a quadrature
    density is below N_FLOOR; mean velocity and temperature are
    undefined there.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != grid.nnodes:
        raise ValueError(f"distribution shape {f.shape} does not match grid "
                         f"({grid.nnodes} nodes)")
    C = len(f) if f.ndim == 2 else 1
    mw = np.asarray(mass, dtype=float) * grid.weight
    if mw.ndim and mw.shape != (C,):
        raise ValueError(f"mass must be a scalar or one value per row "
                         f"({C}), got shape {mw.shape}")
    mw = mw if mw.ndim else mw.repeat(C)
    d, rows = grid.dim, f.reshape(C, -1)
    with np.errstate(invalid="ignore"):  # inf - inf and 0 inf give NaN
        origin = _lattice_tensor(rows, grid.axis_nodes[None], grid, 1)
        s0 = origin.reshape(C, -1)[:, 0]
        n = grid.weight * s0
        if (n < N_FLOOR).any():
            bad = np.flatnonzero(n < N_FLOOR)
            raise DegenerateDensityError(float(n[bad[0]]), N_FLOOR,
                                         bad if f.ndim == 2 else None)
        # entry e_i of the degree-1 tensor holds sum f v_i
        u = origin.reshape(C, -1)[:, 2 ** np.arange(d)[::-1]] / s0[:, None]
        c = grid.axis_nodes - u.take(grid.axis_of, 1)
        centred = _lattice_tensor(rows, c, grid, 4).reshape(C, -1)
    # S_ij and S_ji are one entry, so S is bitwise symmetric; take gives
    # C-contiguous blocks, whose products reduce row by row alike
    gram = _monomials(d)[2]
    S = centred.take(gram[1:1 + d, 1:1 + d], axis=1)
    S3 = centred.take(gram[1:1 + d, 1 + d:1 + 2 * d], axis=1).sum(axis=2)
    mom = MomentSet(n=n, u=u, T=mw * np.einsum("cii->c", S) / (d * n),
                    P=mw[:, None, None] * S, Qtilde=mw[:, None] * S3)
    return mom.rows(0) if f.ndim == 1 else mom


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
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"{what} (member {k}: got {values[k]})")


def _require_mass(mass: np.ndarray) -> None:
    """ValueError naming the first member whose mass is not finite and
    positive."""
    _require(np.isfinite(mass) & (mass > 0.0), mass,
             "mass must be finite and positive")


def _block(out, shape: tuple) -> np.ndarray:
    """`out`, checked to be a C-contiguous float64 array of `shape`, or
    a new one when it is None."""
    if out is None:
        return np.empty(shape)
    if (out.shape != shape or out.dtype != np.float64
            or not out.flags.c_contiguous):
        layout = "" if out.flags.c_contiguous else ", not C-contiguous"
        raise ValueError(f"out must be a C-contiguous {shape} array "
                         f"(got {out.dtype} {out.shape}{layout})")
    return out


def _axis_factors(u: np.ndarray, theta: np.ndarray,
                  grid: VelocityGrid) -> tuple[np.ndarray, np.ndarray]:
    """The offsets c = v_i - u_i at every axis' nodes (end to end, one
    row per member) and the factors exp(-c^2 / (2 theta))."""
    c = grid.axis_nodes - u.take(grid.axis_of, 1)
    return c, np.exp(c * c / (-2.0 * theta[:, None]))


def _powers(c: np.ndarray, degree: int, first=1.0) -> np.ndarray:
    """The table first c^k, k = 0..degree, as (K, degree + 1, n) for the
    offsets c (K, n), built power-major by a contiguous running product."""
    power = np.empty((degree + 1,) + c.shape)
    power[0] = first
    for k in range(1, degree + 1):
        np.multiply(power[k - 1], c, out=power[k])
    return power.transpose(1, 0, 2)


def _lattice_tensor(rows: np.ndarray, c: np.ndarray, grid: VelocityGrid,
                    degree: int) -> np.ndarray:
    """The tensors sum f prod_i c_i^a_i, a_i <= degree, of lattice rows
    f (K, nodes), unweighted, as (K, P, ..., P) with P = degree + 1.

    c holds the per-axis offsets (one row per member, or one for all).
    One batched matrix product per axis contracts its power table with
    the (P^i, P_i, rest) view of the last result, member by member, so
    each row's tensor is its solo tensor bitwise.
    """
    K, P = len(rows), degree + 1
    powers = _powers(c, degree)[:, None]
    moment = rows
    for i, (a, size) in enumerate(zip(grid.axis_start, grid.points)):
        moment = powers[..., a:a + size] @ moment.reshape(K, P ** i, size, -1)
    return moment.reshape((K,) + (P,) * grid.dim)


def _maxwellian_fill(n, theta, g, grid: VelocityGrid, out) -> None:
    """Write into each row of out the sum of its T Maxwellians n / (2 pi
    theta)^(d/2) exp(-|v-u|^2 / (2 theta)), for n and theta (R, T) and
    the per-axis factors g (R, T, axis nodes) of each term
    (`_axis_factors`; the matchers pass the ones their last Newton
    evaluation formed).  Each term's leading axes are its prefactor
    times the outer product of their factors, in the nodes' ij order;
    the row is then the product of those (R, L, T) with the last axis'
    factors (R, T, P_last), written straight into out.  One term is an
    einsum outer product, each entry the one rounded product of a
    leading and a last-axis value (a broadcast multiply runs one short
    inner loop per lattice row, and a matmul with an inner size of one
    is slower still); more terms are one stacked matrix product.  A term
    with n = 0 and zero factors adds exactly zero."""
    R, T = np.shape(n)
    lead = (n / (2.0 * math.pi * theta) ** (grid.dim / 2.0)).reshape(-1, 1)
    g = np.reshape(g, (R * T, -1))
    factors = [g[:, a:a + p] for a, p in zip(grid.axis_start, grid.points)]
    for h in factors[:-1]:
        lead = (lead[:, :, None] * h[:, None, :]).reshape(R * T, -1)
    rows = out.reshape(R, lead.shape[1], -1)
    if T == 1:
        np.einsum("ka,kb->kab", lead, factors[-1], out=rows)
    else:
        np.matmul(lead.reshape(R, T, -1).transpose(0, 2, 1),
                  factors[-1].reshape(R, T, -1), out=rows)


def maxwellian_on_grid(n, u, T, mass, grid: VelocityGrid,
                       out=None) -> np.ndarray:
    """Drifting Maxwellian sampled at the grid nodes.

    Nodewise n / (2 pi T/m)^(d/2) * exp(-|v-u|^2 / (2 T/m)), built as
    the outer product of the per-axis factors in the nodes' ij order.
    Stacked arguments give one row per member (written into `out` if
    given).
    """
    stacked, n, theta, factors, _ = _maxwellian_factors(n, u, T, mass, grid,
                                                        match=False)
    return _maxwellian_rows(stacked, n, theta, factors, grid, out)


def spd_factor(matrix) -> SpdTensor:
    """Cholesky-factor a symmetric matrix, or a stack of them (..., d, d);
    a failure identifies the pivot, and the member of a stack.

    Each member must be symmetric to 1e-12 max(1, its largest |entry|).
    Factorization succeeds exactly when all eigenvalues are positive and
    finite; a NaN or infinite entry (i, j), above the diagonal too, fails
    pivot max(i, j) at the latest.  The whole stack is factored by one
    LAPACK call; LAPACK cannot name the pivot that fails, so only when it
    fails, or returns a non-finite factor, does the column recurrence run
    to find it.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    d, Mt = M.shape[-1], np.swapaxes(M, -1, -2)
    # a non-finite entry above the diagonal fails via its mirror below
    low = np.where(np.isfinite(Mt), M, Mt)
    with np.errstate(invalid="ignore"):  # non-finite entries fail a pivot
        scale = np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1)))
        bad = np.ravel(np.max(np.abs(M - Mt), axis=(-2, -1)) > 1e-12 * scale)
        if bad.any():
            at = f" (member {np.argmax(bad)})" if M.ndim > 2 else ""
            raise ValueError(f"matrix is not symmetric within 1e-12{at}")
        try:
            L = np.linalg.cholesky(low)  # reads the lower triangle only
            if np.isfinite(L).all():  # a NaN entry comes back as NaN
                return SpdTensor(matrix=M.copy(), chol=L)
        except np.linalg.LinAlgError:
            pass
        L = np.zeros_like(M)
        for j in range(d):
            s = low[..., j, j] - np.sum(L[..., j, :j] ** 2, axis=-1)
            bad = np.ravel(~(np.isfinite(s) & (s > 0.0)))
            if bad.any():
                k = int(np.argmax(bad))
                raise NotSpdError(pivot=j, value=float(np.ravel(s)[k]),
                                  matrix=M.reshape(-1, d, d)[k],
                                  member=k if M.ndim > 2 else None)
            L[..., j, j] = np.sqrt(s)
            for i in range(j + 1, d):
                L[..., i, j] = (low[..., i, j] - np.sum(
                    L[..., i, :j] * L[..., j, :j], axis=-1)) / L[..., j, j]
    return SpdTensor(matrix=M.copy(), chol=L)


def _gaussian_fill(n: np.ndarray, u: np.ndarray, L: np.ndarray,
                   grid: VelocityGrid, out: np.ndarray) -> None:
    """Write n_k / ((2 pi)^(d/2) det L_k) exp(-|w|^2 / 2), L_k w = v - u_k,
    into row k of the (K, nodes) array out, for the stack n (K,),
    u (K, d), L (K, d, d).  Each row of out is contiguous; the rows may
    be a strided view of a larger block's (`out[0:3:2]`).

    The Gaussian factors as p(v_<d) p(v_d | v_<d): the exponent is
    head - (v_d - centre)^2 / (2 L_dd^2) with head = log(n / ((2 pi)^(d/2)
    det L)) - sum_k<d w_k^2 / 2 and centre = u_d + sum_k<d L_dk w_k, both
    on the leading d - 1 axes only (w_k lives on the leading k + 1), built
    once for the whole stack: the w_k, their squares and the L_dk w_k
    terms in one loop over the leading axes, and the determinants as one
    product of the stack's diagonals.  So the block is written in place
    in four passes over the stack, with no lattice-sized temporary: the
    scaled difference v_d - centre, a square, head minus that, and exp.
    Each entry is the one its member's solo fill gives.  n = 0 gives
    head = -inf and so an exactly zero row.
    """
    K, d = len(n), grid.dim
    col = (K,) + (1,) * (d - 1)  # one value per member, on the lattice axes
    ws, square, shift = [], 0.0, 0.0
    for i, x in enumerate(grid.axes[:-1]):
        acc = (x - u[:, i, None]).reshape(col[:i + 1] + (-1,) + col[i + 2:])
        for k in range(i):
            acc = acc - L[:, i, k].reshape(col) * ws[k]
        ws.append(acc / L[:, i, i].reshape(col))
        square = square + ws[i] * ws[i]
        shift = shift + L[:, -1, i].reshape(col) * ws[i]
    # the log-heights member by member, as Python floats: np.log may
    # round differently from math.log (exp(-inf) = 0)
    norm = n / ((2.0 * math.pi) ** (d / 2.0)
                * np.prod(np.diagonal(L, 0, 1, 2), axis=1))
    head = np.array([math.log(x) if x > 0.0 else -math.inf
                     for x in norm.tolist()])
    head = head.reshape(col) - 0.5 * square
    centre = u[:, -1].reshape(col) + shift
    scale = 1.0 / (math.sqrt(2.0) * L[:, -1, -1])
    # (v_d - centre) scale as the rank-2 product (-centre, 1) (1, v_d)^T:
    # each entry is the one exactly rounded difference a broadcast
    # subtract gives, but in one GEMM pass per member (the broadcast runs
    # one short inner loop per lattice row, several times slower)
    lead = np.ones((K, head[0].size, 2))
    lead[:, :, 0] = -scale[:, None] * centre.reshape(K, -1)
    last = np.ones((K, 2, len(grid.axes[-1])))
    last[:, 1] = scale[:, None] * grid.axes[-1]
    lattice = out.reshape(K, head[0].size, -1)  # a view: rows contiguous
    np.matmul(lead, last, out=lattice)
    np.square(lattice, out=lattice)
    np.subtract(head.reshape(K, -1, 1), lattice, out=lattice)
    np.exp(lattice, out=lattice)


def gaussian_on_grid(n, u, tensor, mass, grid: VelocityGrid,
                     out=None) -> np.ndarray:
    """Anisotropic Gaussian with temperature tensor `tensor`.

    Nodewise n / sqrt(det(2 pi T/m)) * exp(-(v-u) . (T/m)^-1 . (v-u) / 2),
    evaluated through the triangular factor (never an explicit inverse),
    which stays stable near the positive-definiteness boundary: each row
    is written in place as a 1-D Gaussian along the last axis whose
    log-height and centre depend on the leading axes (`_gaussian_fill`).
    n = 0 gives an exactly zero row.  A plain matrix is factored first;
    factorization failure propagates.  Stacked arguments give one row
    per member, all sampled by one stacked fill.
    """
    spd = tensor if isinstance(tensor, SpdTensor) else spd_factor(tensor)
    stacked, u, n, mass = _members(grid, u, n, mass,
                                   shape=np.shape(spd.chol)[:-2])
    _require(n >= 0.0, n, "density must be nonnegative")
    _require_mass(mass)
    chol = np.broadcast_to(spd.chol, (len(n), grid.dim, grid.dim))
    out = _block(out, (len(n), grid.nnodes))
    _gaussian_fill(n, u, chol / np.sqrt(mass)[:, None, None], grid, out)
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
def _family(dim: int, isotropic: bool):
    """Read-only tables of a target family: the 0/1 matrix J taking its
    spread parameters s (in theta = T/m units) to the upper triangle of
    its covariance S in `_tri_index` order (theta onto the diagonal for
    the Maxwellian, S = theta I; the identity for the Gaussian), the
    selection diag(1, I_d, J^T) and the count of entries each s sets."""
    J = np.eye(dim * (dim + 1) // 2)
    J = J[:, :dim].sum(axis=1, keepdims=True) if isotropic else J
    select = np.eye(1 + dim + J.shape[1], 1 + dim + len(J))
    select[1 + dim:, 1 + dim:] = J.T
    count = J.sum(axis=0)
    for table in (J, select, count):
        table.flags.writeable = False
    return J, select, count


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
    A = np.concatenate([u, u.take(ti, 1) * u.take(tj, 1)], axis=1) @ shift
    A[:, ::len(gram) + 1] += 1.0
    G = M.reshape(K, -1).take(gram, 1)
    return select @ A.reshape(K, len(gram), -1) @ G


def _maxwellian_sample(p: np.ndarray, grid: VelocityGrid, factors: np.ndarray,
                       rows) -> np.ndarray:
    """Centred moment tensors (K, 5, ..., 5) of the Maxwellians with
    p = (n, u, theta) per row: the prefactor times the outer product of
    the per-axis power sums sum g_i c_i^k (K, 5, d) of their factors
    g_i, the powers built by a running product.  No lattice-sized array
    is formed.  The factors of p[k] are kept in row rows[k] of
    `factors`, for `_maxwellian_fill` to sample the lattice from.
    """
    K, d = len(p), grid.dim
    theta = p[:, 1 + d]
    c, g = _axis_factors(p[:, 1:1 + d], theta, grid)
    factors[rows] = g
    sums = np.add.reduceat(_powers(c, 4, g), grid.axis_start, axis=2)
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


def _failures(solve, *stacks) -> np.ndarray:
    """Per member k, whether solve(*(s[k] for s in stacks)) raises
    LinAlgError: one stacked call, and one per member only when that
    fails, as a stacked LAPACK call that fails names no member."""
    fails = np.zeros(len(stacks[0]), dtype=bool)
    try:
        solve(*stacks)
    except np.linalg.LinAlgError:
        for k, member in enumerate(zip(*stacks)):
            try:
                solve(*member)
            except np.linalg.LinAlgError:
                fails[k] = True
    return fails


def _stride_runs(rows) -> list[tuple[int, int, int]]:
    """Cut the increasing `rows` into runs at a constant stride, each as
    long as it can be from its first row, as (start, stop, stride) with
    start:stop indexing `rows`: [0, 2, 4, 5, 9] gives (0, 3, 2) and
    (3, 5, 4), and a run of one row has stride 1."""
    runs, a = [], 0
    while a < len(rows):
        b = min(a + 2, len(rows))
        stride = int(rows[b - 1] - rows[a]) or 1
        while b < len(rows) and rows[b] - rows[b - 1] == stride:
            b += 1
        runs.append((a, b, stride))
        a = b
    return runs


def _gaussian_sample(p: np.ndarray, grid: VelocityGrid, out: np.ndarray,
                     rows) -> np.ndarray:
    """Centred moment tensors (K, 5, ..., 5) of the Gaussians with
    p = (n, u, upper triangle of the covariance S = T/m) per row: the
    covariances are factored by one stacked Cholesky call, and the
    sample of p[k], written straight into row rows[k] of `out`, is
    reduced about its own u by `_lattice_tensor`.  The rows are sampled
    one run at a constant stride at a time (`_stride_runs`), each run
    by one stacked fill into its strided view of `out` (rows 0 and 2
    are `out[0:3:2]`) and one reduction of that view: all rows are one
    run, and no block is formed beside `out`.  Each member's row and
    tensor are the ones its solo call gives."""
    d = grid.dim
    cov = _symmetric(p[:, 1 + d:], d)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        failing = np.flatnonzero(_failures(np.linalg.cholesky, cov))
        if not failing.size:
            raise
        k = rows[failing[0]]
        raise NoConvergenceError(f"covariance left the positive-definite "
                                 f"cone (member {k})", member=k) from exc
    M = []
    for a, b, stride in _stride_runs(rows):
        block = out[rows[a]:rows[b - 1] + 1:stride]
        _gaussian_fill(p[a:b, 0], p[a:b, 1:1 + d], L[a:b], grid, block)
        c = grid.axis_nodes - p[a:b].take(1 + grid.axis_of, 1)
        M.append(_lattice_tensor(block, c, grid, 4))
    return grid.weight * np.concatenate(M)


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


def _newton_match(n, u, s, isotropic: bool, sample, derivs, what):
    """Newton-correct a stack of K targets of either family until the
    raw moments q of each member's sampled target hit the exact ones.

    Member k has density n[k], mean velocity u[k] and covariance S = T/m
    with upper triangle J s[k] (`_family`).  Newton runs on p = (n, u, s)
    from the targets, and q pairs f with (1, v, J^T (v_i v_j)), picked
    from (1, v_i, v_i v_j) by select.  sample(p, rows) gives the centred
    moment tensors of the members `rows` and derivs(p, d) their
    derivative matrices B; `_newton_system` turns them into q and dq/dp.
    A member has converged when n matches to MATCH_TOL relative, u to
    MATCH_TOL times the velocity scale sqrt(tr S / d) + |u|, and each s,
    read back from q through J, to MATCH_TOL times tr S / d: one residual
    array against one of limits.  The whole stack steps until a member
    converges, which is then frozen; from there on only the members not
    yet converged are sampled and solved (one stacked solve), so each
    member follows exactly its solo iterates.  Each step is halved until
    n > 0 and LAPACK's Cholesky factors S, so a step is admitted exactly
    when the sample can factor it (`_failures`; theta > 0 for the
    Maxwellian), down to 2^-20; only the members a test refuses are
    halved and tested again.  A member not converged after MAX_ITER
    steps fails.
    Failures name the member through what(k).  Returns (p, per-member
    iteration counts).
    """
    K, d = u.shape
    ti, tj = _monomials(d)[:2]
    J, select, count = _family(d, isotropic)
    pa = ref = np.concatenate([n[:, None], u, s], axis=1)
    p, iters, active = np.empty_like(pa), np.zeros(K, dtype=int), np.arange(K)
    # q0 = 0 gives NaN, which fails the tests as n already does; a
    # diverging iterate, or a target far off the lattice, overflows to
    # inf, which fails them too
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cov, nk = s @ J.T, n[:, None]
        # per member: a 2-D GEMM's summation order depends on the stack size
        exact = np.concatenate([nk, nk * u, nk * (
            u.take(ti, 1) * u.take(tj, 1) + cov)], axis=1)
        target = (select @ exact[:, :, None])[:, :, 0]
        tscale = cov[:, :d].sum(axis=1) / d
        vscale = np.sqrt(tscale) + np.sqrt((u * u).sum(axis=1))
        limit = MATCH_TOL * np.array([n, vscale] + [tscale] * s.shape[1]).T
        for it in range(MAX_ITER + 1):
            SAG = _newton_system(pa[:, 1:1 + d], select, sample(pa, active))
            q = SAG[:, :, 0]
            raw = q[:, 1:] / q[:, :1]
            qu, res = raw[:, :d], np.empty(limit.shape)
            np.subtract(q[:, 0], ref[:, 0], res[:, 0])
            du = qu - ref[:, 1:1 + d]
            np.sqrt((du * du).sum(1), res[:, 1])
            spread = J.T @ (qu.take(ti, 1) * qu.take(tj, 1))[:, :, None]
            np.subtract((raw[:, d:] - spread[:, :, 0]) / count,
                        ref[:, 1 + d:], res[:, 2:])
            done = (np.abs(res, res) <= limit).all(1)
            if done.any():
                iters[active[done]], p[active[done]] = it, pa[done]
                if done.all():
                    return p, iters
                active, pa, ref, q, SAG, target, limit = (x[~done] for x in (
                    active, pa, ref, q, SAG, target, limit))
            if it == MAX_ITER:
                break
            dqdp = SAG @ derivs(pa, d).transpose(0, 2, 1)
            rhs = (q - target)[:, :, None]
            try:
                step = np.linalg.solve(dqdp, rhs)[:, :, 0]
            except np.linalg.LinAlgError as exc:
                failing = np.flatnonzero(_failures(np.linalg.solve, dqdp, rhs))
                if not failing.size:
                    raise
                k = int(active[failing[0]])
                raise NoConvergenceError(
                    f"singular Jacobian while matching {what(k)}",
                    member=k) from exc
            cand, shrink, todo = pa - step, np.ones(len(pa)), slice(None)
            while True:
                # only the members refused so far are shrunk and retested
                c = cand[todo]
                ok = np.isfinite(c).all(axis=1) & (c[:, 0] > 0.0)
                s_ok = c[ok, 1 + d:]  # theta, or S's upper triangle
                ok[ok] = (s_ok[:, 0] > 0.0 if isotropic else ~_failures(
                    np.linalg.cholesky, _symmetric(s_ok, d)))
                if ok.all():
                    break
                todo = np.arange(len(pa))[todo][~ok]
                shrink[todo] *= 0.5
                if shrink.min() < 2.0 ** -20:
                    k = int(active[np.argmin(shrink)])
                    raise NoConvergenceError(
                        f"no admissible Newton step while matching {what(k)}",
                        member=k)
                cand[todo] = pa[todo] - shrink[todo, None] * step[todo]
            pa = cand
    k = int(active[0])
    raise NoConvergenceError(
        f"moment matching did not converge in {MAX_ITER} iterations "
        f"({what(k)}; grid too coarse or support clipped)", member=k)


def _maxwellian_factors(n, u, T, mass, grid: VelocityGrid, match: bool):
    """A stack of Maxwellians in factored form, checked: (stacked, n,
    theta, per-axis factors (K, axis nodes), Newton iterations (K,)).

    Without `match` they are the plain factors of (n, u, T/m)
    (`_axis_factors`), with no iterations (None).  With it, the Newton
    problem of `_newton_match` with covariance theta I, theta = T/m:
    Newton on (n, u, theta) so that the discrete moments (1, v, |v|^2)
    match to MATCH_TOL (relative) within MAX_ITER steps, the system from
    per-axis sums; the factors are those of each member's last Newton
    evaluation, so its row is the plain Maxwellian of the converged
    parameters, or of the targets if they match at once.  Raises
    NoConvergenceError, naming the member, when the grid cannot
    represent a target (too coarse, or support clipped by the domain).
    """
    stacked, u, n, T, mass = _members(grid, u, n, T, mass)
    if match:
        _require(n > 0.0, n, "targets require n > 0")
        _require(T > 0.0, T, "targets require T > 0")
    else:
        _require(T > 0.0, T, "temperature must be positive")
        _require(n >= 0.0, n, "density must be nonnegative")
    _require_mass(mass)
    theta = T / mass
    if not match:
        return stacked, n, theta, _axis_factors(u, theta, grid)[1], None
    factors = np.empty((len(n), len(grid.axis_nodes)))
    p, iters = _newton_match(
        n, u, theta[:, None], True,
        lambda p, rows: _maxwellian_sample(p, grid, factors, rows),
        _maxwellian_derivs,
        lambda k: f"member {k}: Maxwellian n={n[k]}, T={T[k]}")
    return stacked, p[:, 0], p[:, -1], factors, iters


def _maxwellian_rows(stacked: bool, n, theta, factors, grid: VelocityGrid,
                     out) -> np.ndarray:
    """One row per member of a factored stack, written into `out` if
    given; the stack's one row when it was not stacked."""
    out = _block(out, (len(n), grid.nnodes))
    _maxwellian_fill(n[:, None], theta[:, None], factors[:, None], grid, out)
    return out if stacked else out[0]


def match_moments(n, u, T, mass, grid: VelocityGrid,
                  return_info: bool = False, out=None) -> np.ndarray:
    """Discrete Maxwellian whose quadrature (n, u, T) hit the targets.

    The factored match (`_maxwellian_factors`) and the one Maxwellian
    writer, `_maxwellian_fill`: f is sampled once, at the converged
    parameters, from the per-axis factors of each member's last Newton
    evaluation.  So f is the plain sampled Maxwellian
    (`maxwellian_on_grid`) of the converged parameters, or of the
    targets if they match at once.  Stacked arguments (n, T, mass as
    (K,), u as (K, d)) match K targets in one Newton loop and give one
    row per member (written into `out` if given); `return_info` then
    reports the largest iteration count.

    Raises NoConvergenceError, naming the member, when the grid cannot
    represent a target (too coarse, or support clipped by the domain).
    """
    stacked, n, theta, factors, iters = _maxwellian_factors(n, u, T, mass,
                                                            grid, match=True)
    f = _maxwellian_rows(stacked, n, theta, factors, grid, out)
    return (f, int(iters.max())) if return_info else f


def match_gaussian(n, u, tensor, mass, grid: VelocityGrid,
                   return_info: bool = False, out=None) -> np.ndarray:
    """Discrete Gaussian whose quadrature (n, u, T-tensor) hit the targets.

    The problem of `_newton_match` with the full covariance S = T/m as
    its spread: Newton on (n, u, S) against all raw moments
    (1, v, v(x)v), with the Newton system from the lattice sample of
    each iterate, which is written straight into the member's row of
    the result, to MATCH_TOL within MAX_ITER steps.  Stacks as match_moments
    does; a stacked `tensor` is a (K, d, d) SpdTensor or matrix.
    """
    spd = tensor if isinstance(tensor, SpdTensor) else spd_factor(tensor)
    stacked, u, n, mass = _members(grid, u, n, mass,
                                   shape=np.shape(spd.matrix)[:-2])
    _require(n > 0.0, n, "targets require n > 0")
    _require_mass(mass)
    K, d = len(n), grid.dim
    ti, tj = _monomials(d)[:2]
    cov = np.broadcast_to(spd.matrix, (K, d, d)) / mass[:, None, None]
    out = _block(out, (K, grid.nnodes))
    _, iters = _newton_match(
        n, u, cov[:, ti, tj], False,
        lambda p, rows: _gaussian_sample(p, grid, out, rows), _gaussian_derivs,
        lambda k: f"member {k}: Gaussian n={n[k]}")
    f = out if stacked else out[0]
    return (f, int(iters.max())) if return_info else f


def _xlogx_sum(f: np.ndarray) -> float:
    """Sum of f log f with the 0 log 0 = 0 convention.

    A strictly positive f takes log and product unmasked.  Otherwise
    nonpositive (and NaN) values contribute exactly zero: log and product
    are taken only where f > 0, in one zeroed array, giving the same
    terms and sum.  Negative excursions of a non-positivity-preserving
    integrator are clamped here only, never in the state itself.
    """
    if f.min() > 0.0:  # NaN fails this test
        terms = np.log(f)
        terms *= f
        return float(np.sum(terms))
    pos = f > 0.0
    terms = np.log(f, out=np.zeros_like(f), where=pos)
    np.multiply(terms, f, out=terms, where=pos)
    return float(np.sum(terms))


def h_functional(f: np.ndarray, grid: VelocityGrid) -> float:
    """Entropy functional sum_k sum_nodes w f_k log f_k of distributions
    with a leading species axis, summed species by species in order."""
    return grid.weight * sum(map(_xlogx_sum, np.asarray(f, dtype=float)))
