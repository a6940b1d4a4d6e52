"""Interspecies interpolation quantities and relaxation-target assembly.

The cross targets interpolate the two species' moments so that the
relaxation operator conserves total momentum and energy exactly:

    u12 = delta u1 + (1 - delta) u2
    u21 = u2 - (m1/m2) eps (1 - delta) (u2 - u1)
    T12 = alpha T1 + (1 - alpha) T2 + gamma |u1 - u2|^2
    T21 = ea T1 + (1 - ea) T2 + eps (3/d g - gamma) |u1 - u2|^2

with ea = eps (1 - alpha), d the grid dimension (the lattice normalises
T by d) and g = `params.gamma_bound_expression`: the T21 drift
coefficient is nonnegative up to the gamma bound, zero on it in 3-D.
Each ES tensor is its BGK temperature times I plus weighted traceless
deviators D_k = P_k / n_k - T_k I, so its trace is d times that T:

    self        T_k I + mu_k D_k
    es-full-a   T12 I + mu12 (alpha D1 + (1 - alpha) D2),
                T21 I + mu21 (ea D1 + (1 - ea) D2)
    es-full-b   T12 I + alpha D1,   T21 I + (1 - ea) D2

Every function is pure and works on one cell's moments or, elementwise,
on moments with a leading cell axis: `target_moments` maps them to each
target's (n, u, T or tensor), and one walk stacks each family over all
cells (`_families`) for `build_targets`, which fills the lattice, and
`weighted_targets`, which adds the weighted targets into a state block.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .errors import (DegenerateDensityError, InadmissibleTargetError,
                     MemberError)
from .grid import (MomentSet, VelocityGrid, gaussian_on_grid, match_gaussian,
                   match_moments, maxwellian_on_grid, spd_factor)
from .params import ModelParams, Variant, gamma_bound_expression


@dataclass
class MixtureState:
    """Per-species moments plus masses; a degenerate species is None.
    The moment sets carry a leading cell axis when the distributions
    do."""

    m1: float
    m2: float
    mom1: MomentSet | None
    mom2: MomentSet | None

    @classmethod
    def from_distributions(cls, f, m1: float, m2: float,
                           grid: VelocityGrid) -> "MixtureState":
        """Moments of a (2, cells, nodes) block, or of (2, nodes) for
        scalar sets, reduced in one `moments` call on a (2 cells, nodes)
        view (species 1 first), each row with its species' mass.  A
        species below the density floor in every cell is None; one below
        it in only some cells raises DegenerateDensityError naming the
        species and the cell."""
        f = np.asarray(f, dtype=float)
        if f.ndim not in (2, 3) or len(f) != 2:
            raise ValueError(f"need a leading species axis of 2 ({f.shape})")
        cells, species = (f.shape[1] if f.ndim == 3 else 1), [0, 1]
        while species:
            try:
                mom = gridmod.moments(
                    f[species[0]:species[-1] + 1].reshape(-1, f.shape[-1]),
                    np.array((m1, m2))[species].repeat(cells), grid)
                break
            except DegenerateDensityError as exc:
                bad = [exc.cells[exc.cells // cells == i] - i * cells
                       for i in range(len(species))]
                if all(len(b) < cells for b in bad):
                    # the first species with a bad cell holds the first bad row
                    i = next(i for i, b in enumerate(bad) if len(b))
                    raise DegenerateDensityError(exc.density, exc.floor, bad[i],
                                                 species[i] + 1) from None
                # reduce again without the species that are wholly empty
                species = [k for k, b in zip(species, bad) if len(b) < cells]
        sets = [None, None]
        for i, k in enumerate(species):
            sets[k] = mom.rows(i if f.ndim == 2
                               else slice(i * cells, (i + 1) * cells))
        return cls(m1=m1, m2=m2, mom1=sets[0], mom2=sets[1])

    def densities(self) -> np.ndarray:
        """Both species' densities, zero for a degenerate species."""
        return np.array(np.broadcast_arrays(*(
            0.0 if mom is None else mom.n for mom in (self.mom1, self.mom2))))


def mixture_velocities(state: MixtureState, delta: float,
                       epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Cross-target velocities (u12, u21)."""
    u1, u2 = state.mom1.u, state.mom2.u
    u12 = delta * u1 + (1.0 - delta) * u2
    u21 = u2 - (state.m1 / state.m2) * epsilon * (1.0 - delta) * (u2 - u1)
    return u12, u21


def _t21_drift_coeff(m1: float, m2: float, epsilon: float, delta: float,
                     gamma: float, d: int) -> float:
    return epsilon * (3.0 / d * gamma_bound_expression(delta, m1, m2, epsilon)
                      - gamma)


def _cross_weights(alpha: float, epsilon: float) -> tuple[float, float]:
    """Species-1 weights (alpha, ea) of the 12 and 21 temperature mixes."""
    return alpha, epsilon * (1.0 - alpha)


def mixture_temperatures(state: MixtureState, alpha: float, gamma: float,
                         delta: float, epsilon: float) -> tuple[float, float]:
    """Cross-target temperatures (T12, T21), one per cell for stacked
    moments.

    Admissible (delta, gamma) make the drift coefficient of T21
    nonnegative, so T21 >= 0 whenever T1, T2 >= 0.
    """
    T1, T2 = state.mom1.T, state.mom2.T
    du2 = ((state.mom1.u - state.mom2.u) ** 2).sum(axis=-1)
    w12, w21 = _cross_weights(alpha, epsilon)
    T12 = w12 * T1 + (1.0 - w12) * T2 + gamma * du2
    d = np.shape(state.mom1.u)[-1]
    T21 = (_t21_drift_coeff(state.m1, state.m2, epsilon, delta, gamma, d)
           * du2 + w21 * T1 + (1.0 - w21) * T2)
    return T12, T21


def _matrices(x) -> np.ndarray:
    """A per-cell scalar (or a plain scalar) broadcastable over (d, d)."""
    return np.asarray(x)[..., None, None]


def _deviator(T, P: np.ndarray, n) -> np.ndarray:
    """Traceless part P / n - T I of a species' pressure tensor."""
    return P / _matrices(n) - _matrices(T) * np.eye(P.shape[-1])


def es_tensor_self(T, P: np.ndarray, n, mu: float) -> np.ndarray:
    """Self-relaxation tensor T I + mu (P / n - T I), one per cell for
    stacked moments.

    Positive definite for any distribution with positive density and
    mu in [-1/2, 1]; trace equals d T for every mu.  Returned unfactored,
    as are the cross tensors: `build_targets` factors each family.
    """
    return _matrices(T) * np.eye(P.shape[-1]) + mu * _deviator(T, P, n)


def es_tensor_cross(state: MixtureState,
                    params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Cross-relaxation tensors (12, 21) for the two full ES variants.

    Each is the scalar cross temperature times I plus the deviators,
    mixed with the scalar mix's species-1 weights (alpha, ea): variant A
    scales that mix by mu12 / mu21, variant B keeps only the deviator of
    the species the target relaxes.  The traces are d T12 and d T21 for
    any densities, so the scalar exchange identities still hold.
    """
    mix, es, eps = params.mixing, params.es, params.interaction.epsilon
    T12, T21 = mixture_temperatures(state, mix.alpha, mix.gamma, mix.delta,
                                    eps)
    w12, w21 = _cross_weights(mix.alpha, eps)
    D1, D2 = (_deviator(m.T, m.P, m.n) for m in (state.mom1, state.mom2))
    if es.variant == Variant.ES_FULL_A:
        dev12 = es.mu12 * (w12 * D1 + (1.0 - w12) * D2)
        dev21 = es.mu21 * (w21 * D1 + (1.0 - w21) * D2)
    elif es.variant == Variant.ES_FULL_B:
        dev12, dev21 = w12 * D1, (1.0 - w21) * D2
    else:
        raise ValueError(f"cross tensors are defined for the full ES "
                         f"variants only (got {es.variant})")
    eye = np.eye(D1.shape[-1])
    return _matrices(T12) * eye + dev12, _matrices(T21) * eye + dev21


def target_moments(state: MixtureState, params: ModelParams) -> dict:
    """{row of the `build_targets` block: (n, u, temperature)} of every
    target of the configured variant, a scalar temperature for a
    Maxwellian and a (d, d) tensor for a Gaussian.  A degenerate species
    has no rows, and the cross rows (owning species' densities) need
    both species."""
    es, moms, rows = params.es, (state.mom1, state.mom2), {}
    for k, mom in enumerate(moms):
        if mom is not None:
            rows[k] = (mom.n, mom.u, mom.T if es.variant == Variant.BGK
                       else es_tensor_self(mom.T, mom.P, mom.n,
                                           (es.mu1, es.mu2)[k]))
    if len(rows) == 2:
        mix, eps = params.mixing, params.interaction.epsilon
        u12, u21 = mixture_velocities(state, mix.delta, eps)
        if es.variant in (Variant.ES_FULL_A, Variant.ES_FULL_B):
            t12, t21 = es_tensor_cross(state, params)
        else:
            t12, t21 = mixture_temperatures(state, mix.alpha, mix.gamma,
                                            mix.delta, eps)
        rows[2], rows[3] = (moms[0].n, u12, t12), (moms[1].n, u21, t21)
    return rows


_NAMES = ("g1", "g2", "g12", "g21")

# the most bytes of lattice rows a step forms at a time beside the
# state: a run of weighted Maxwellian terms here, a chunk of upwind
# differences in `solver.transport_step`
_CHUNK_BYTES = 128 * 1024


def _admissible(values: np.ndarray, what: str) -> np.ndarray:
    """`values`, or InadmissibleTargetError naming the first member
    whose target `what` is not finite and positive (NaN fails)."""
    # plain floats: cheaper than numpy calls on the small stacks of a
    # homogeneous run
    for k, value in enumerate(values.tolist()):
        if not 0.0 < value < math.inf:
            raise InadmissibleTargetError(
                f"target {what} must be finite and positive (member {k}: "
                f"got {value})", member=k)
    return values


@contextlib.contextmanager
def _located(names, cells: int):
    """Name the target and cell of a failing member of a stack that runs
    target-major over `cells` cells."""
    try:
        yield
    except MemberError as exc:
        k = exc.member or 0
        exc.where = f"target {names[k // cells]}, cell {k % cells}"
        raise


def _stack(rows: dict, run, masses, cells: int, d: int):
    """The targets `run` of `rows` (`target_moments`), one family, as one
    stack over their cells, target-major: n (K,), u (K, d), the
    temperatures (K,) or (K, d, d) and the masses (K,).  A density, or a
    Maxwellian's temperature, that is not finite and positive raises
    InadmissibleTargetError."""
    n, u, temperature = zip(*[rows[r] for r in run])
    tensor = np.ndim(temperature[0]) > 1
    n = _admissible(np.array(n, dtype=float).reshape(-1), "density")
    temperature = np.array(temperature, dtype=float).reshape(
        (-1,) + ((d, d) if tensor else ()))
    if not tensor:
        _admissible(temperature, "temperature")
    mass = np.array([masses[r % 2] for r in run]).repeat(cells)
    return n, np.array(u, dtype=float).reshape(-1, d), temperature, mass


def _families(state: MixtureState, params: ModelParams, grid: VelocityGrid,
              cells: int, visit) -> None:
    """The one walk over the targets of `target_moments`: for each run
    lo:hi of rows of one family, in row order, visit(lo, hi, tensor,
    members) with the run's stack over `cells` cells (`_stack`), a
    Gaussian's tensors Cholesky-factored as one stack.  A failure of the
    stack or of the visit names its target and cell."""
    rows = target_moments(state, params)
    # present rows are contiguous, so each run of one family is a slice;
    # a Gaussian's temperature is (..., d, d), a Maxwellian's at most (C,)
    for tensor, run in itertools.groupby(
            sorted(rows), key=lambda r: np.ndim(rows[r][2]) > 1):
        run = list(run)
        lo, hi = run[0], run[-1] + 1
        with _located(_NAMES[lo:hi], cells):
            n, u, temperature, mass = _stack(rows, run, (state.m1, state.m2),
                                             cells, grid.dim)
            if tensor:
                temperature = spd_factor(temperature)
            visit(lo, hi, tensor, (n, u, temperature, mass))


def _sampler(tensor: bool, match: bool):
    """The stacked matcher, or sampler, of a family."""
    if tensor:
        return match_gaussian if match else gaussian_on_grid
    return match_moments if match else maxwellian_on_grid


def build_targets(state: MixtureState, params: ModelParams,
                  grid: VelocityGrid, match: bool = True,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Sample the four targets of every cell, as `target_moments`
    prescribes them, on the lattice: the (4, cells, nodes) block
    [g1, g2, g12, g21] of the self and cross targets of species 1 / 2,
    whose rows 0:2 and 2:4 align with the species axis of a state
    ((4, nodes) for moments without a cell axis).

    A tensor temperature gives a Gaussian target, a scalar one a
    Maxwellian.  With `match` the discrete targets are Newton-corrected
    so their quadrature moments equal the prescribed values, which makes
    the discrete conservation identities machine-tight.  Each family is
    sampled or matched in one stacked call over its targets and all
    cells (`_families`), written into one (4, cells, nodes) block.
    `out`, a C-contiguous (4, cells, nodes) array, is refilled in place
    of a new block.  A degenerate species' targets are zero (one cell of
    them when both are, or the cells of `out`).  A failure, as after an
    unstable step, names the target and cell (`_families`).
    """
    present = [m for m in (state.mom1, state.mom2) if m is not None]
    cells = (np.shape(present[0].n) if present
             else (1,) if out is None else out.shape[1:-1])
    C, N = math.prod(cells), grid.nnodes
    if out is None:
        out = (np.empty if len(present) == 2 else np.zeros)((4, C, N))
    elif out.shape != (4,) + cells + (N,) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {(4,) + cells + (N,)} "
                         f"array (got {out.shape})")
    elif len(present) < 2:
        out.fill(0.0)
    _families(state, params, grid, C, lambda lo, hi, tensor, members: (
        _sampler(tensor, match)(*members, grid,
                                out=out[lo:hi].reshape(-1, N))))
    return out.reshape((4,) + cells + (N,))


def weighted_targets(state: MixtureState, params: ModelParams,
                     grid: VelocityGrid, weights: np.ndarray,
                     out: np.ndarray, match: bool = True) -> np.ndarray:
    """Add w_s g_s + w_c g_c, each species' self and cross target
    weighted, of every cell into the C-contiguous (2, cells, nodes)
    block `out` and return it, for every variant; `weights` (4, cells, 1)
    gives w_s and w_c in the rows of the `build_targets` block,
    [w_s1, w_s2, w_c1, w_c2].

    Each family is matched, or sampled, as `build_targets` matches it
    (`_families`: the same members, checks and failures).  A Gaussian
    family is written into a step-local block of its rows only, which
    are added weighted in row order, self rows first.  A Maxwellian
    family stays in factored form: the weighted terms of each (species,
    cell) row, the self and cross pair for BGK or the cross term alone
    for es-self, are formed as one rank-2 (rank-1) product of their
    per-axis factors (`grid._maxwellian_fill`), a run of rows of at most
    _CHUNK_BYTES at a time, and added into the row.  A degenerate
    species adds nothing to its row, nor to the other's cross term.
    """
    C, N = weights.shape[1], grid.nnodes

    def add(lo, hi, tensor, members):
        if tensor:
            block = np.empty((hi - lo, C, N))
            _sampler(tensor, match)(*members, grid, out=block.reshape(-1, N))
            for r, rows in enumerate(block, lo):
                out[r % 2] += np.multiply(rows, weights[r], out=rows)
            return
        # the rows lo:hi are T terms (self, cross) of one or both species:
        # each (species, cell) row's terms side by side
        T = (hi + 1) // 2 - lo // 2
        n, theta, g = gridmod._maxwellian_factors(*members, grid, match)[1:4]
        terms = [x.reshape((T, -1) + x.shape[1:]).swapaxes(0, 1)
                 for x in (weights[lo:hi].reshape(-1) * n, theta, g)]
        lines = out[lo % 2:].reshape(-1, N)[:len(terms[0])]
        step = max(1, _CHUNK_BYTES // lines[0].nbytes)
        pair = np.empty((min(step, len(lines)), N))
        for a in range(0, len(lines), step):
            into = pair[:min(step, len(lines) - a)]
            gridmod._maxwellian_fill(*(x[a:a + step] for x in terms), grid,
                                     into)
            lines[a:a + step] += into

    _families(state, params, grid, C, add)
    return out
