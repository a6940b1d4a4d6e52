"""Time integration of the two-species relaxation system.

A state is one (2, cells, nodes) block, species 1 in row 0; a space-
homogeneous run is one cell and integrates the pure relaxation
equations, while 1-D runs add first-order upwind transport on a
periodic domain via Lie or Strang splitting (Strang transports in two
half steps, and the CFL bound applies to each).  A transport step
(`transport_step`) adds the upwind difference of f, scaled by
-v_x dt/dx per node, a chunk of cells of at most _CHUNK_BYTES at a
time, so each node's mass is conserved to round-off.  Two integrators
are available:

RK4   classical four-stage update with targets rebuilt at every stage;
      accurate but not positivity preserving (negative excursions are
      flagged in the diagnostics, never clamped in the state).  A step
      evaluates its stages in place in one scratch block, allocated once
      (the target block and the stage-input block): each stage
      derivative k is formed in the self rows of the target block and
      read from there, and the stages are summed in the order of
      f + dt/6 (k1 + 2 k2 + 2 k3 + k4).

EXP   freeze the moments at the step start, match the targets once and
      update f <- g* + (f - g*) exp(-nu_tot dt), where nu_tot is the
      total collision frequency of the species and g* the
      frequency-weighted average of its two targets, as one weighted
      sum w_f f + w_s g_s + w_c g_c with weights formed once per cell:
      w_f = exp(-nu_tot dt) and w_s,c = nu_s,c (1 - w_f) / nu_tot, 1 - w_f
      from expm1.  The step writes w_f f first, after which it reads
      the state only through its moments, and then adds w_s g_s +
      w_c g_c in one `targets.weighted_targets` call for every variant:
      Maxwellians in factored form a bounded run of rows at a time,
      Gaussians from a block of their rows only.  First-order, and
      positivity preserving at any dt.

A step writes the next state into a block it is given (`out`), which
may be the state's own block, or a new one; the bits are the same.  An
EXP run holds one state block, and an RK4 run one more (`run_scenario`).

Both integrators work on whole blocks.  A collision evaluation of all
cells gives the self rates [nu11 n1, nu22 n2] and the cross rates
[nu12 n2, nu21 n1] as (2, cells, 1) columns, and the targets in the
rows of the block [g1, g2, g12, g21], whose rows 0:2 (self) and 2:4
(cross) align with the species axis.  Each evaluation, and each
diagnostics record, reduces a view of the block in one `moments` call.
The initial block is each species' target, sampled once, times the
cells' density profile.  `diagnose` reduces the cell averages to
moment sets and H, and `diagnostics.DiagRow.pack` forms the totals from
those sets in the record's table row.  A homogeneous state is its own
cell average, so `run_scenario` reduces each recorded one-cell state
once and passes the result to `diagnose` and to the next `relax_step`;
its records are the rows of one table (`diagnostics.Diagnostics`),
sized once for the scenario's record count.  Every reduction has
a fixed summation order, so runs are reproducible.  A run is a frozen
`Scenario`, whose construction is the one place a run's rules are
checked.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagRow, Diagnostics
from .errors import CflError, DegenerateDensityError, NotSpdError
from .grid import N_FLOOR, VelocityGrid, h_functional, match_gaussian, \
    match_moments, gaussian_on_grid, maxwellian_on_grid, spd_factor
from .params import ModelParams, _positive, derive_frequencies, \
    validate
from .targets import _CHUNK_BYTES, MixtureState, build_targets, \
    weighted_targets


@dataclass
class KineticState:
    """Both species' distributions at one time as one C-contiguous
    (2, cells, nodes) block `f`, species 1 in row 0; a space-homogeneous
    state is one cell.  `f1` and `f2` are views of the block's rows."""

    f: np.ndarray
    t: float
    grid: VelocityGrid
    dx: float | None = None

    f1 = property(lambda self: self.f[0])
    f2 = property(lambda self: self.f[1])

    def __post_init__(self):
        self.f = f = np.ascontiguousarray(self.f, dtype=float)
        if f.ndim != 3 or f.shape[::2] != (2, self.grid.nnodes) or not f.size:
            raise ValueError(f"a state is a (2, cells, {self.grid.nnodes}) "
                             f"block (got shape {f.shape})")


def _same_block(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b are one block: the same data pointer, shape and
    strides."""
    # `ctypes.data`: each `__array_interface__` call keeps a few bytes
    # (numpy 2.4)
    return (a.ctypes.data == b.ctypes.data and a.shape == b.shape
            and a.strides == b.strides)


def _block_out(f: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """`out`, checked to be f's own block or a C-contiguous float block
    of f's shape that shares no memory with f, or a new block."""
    if out is None:
        return np.empty_like(f)
    if (out.shape != f.shape or out.dtype != f.dtype
            or not out.flags.c_contiguous
            or np.may_share_memory(out, f) and not _same_block(out, f)):
        raise ValueError(f"out must be a C-contiguous float {f.shape} block "
                         f"apart from the state (got {out.shape})")
    return out


def relax_step(state: KineticState, dt: float, params: ModelParams,
               integrator: str = "exp", match: bool = True, *,
               mixture: MixtureState | None = None,
               out: np.ndarray | None = None) -> KineticState:
    """One relaxation step of all cells at once, on the whole
    (2, cells, nodes) block, written into `out` (the state's own block,
    or a C-contiguous block of its shape apart from it) or a new block;
    the result is the same bit for bit.  The EXP step reads the state
    only through its moments once it has written w_f f, so in place it
    forms no target block.  RK4 reads the state until its last stage,
    so in place it sums its stages in a block of its own.  `mixture`,
    when given, is the `MixtureState` of the state's own block and
    serves the first collision evaluation in place of reducing the
    state again."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive (got {dt})")
    if integrator not in ("rk4", "exp"):
        raise ValueError(f"unknown integrator {integrator!r}")
    grid, freq, f = state.grid, derive_frequencies(params.interaction), state.f
    new = _block_out(f, out)
    nu_self = np.array([freq.nu11, freq.nu22])[:, None, None]
    nu_cross = np.array([freq.nu12, freq.nu21])[:, None, None]

    def rates(g, st=None):
        """The moments of g, the self rate and the cross rate."""
        if st is None:
            st = MixtureState.from_distributions(
                g, params.species1.m, params.species2.m, grid)
        n = st.densities().reshape(2, -1, 1)
        return st, nu_self * n, nu_cross * n[::-1]

    if integrator == "rk4":
        # one block: freed and allocated again at the next step as one
        # piece, which the allocator reuses rather than returns to the
        # system and faults in again
        scratch = np.empty((6,) + f.shape[1:])
        targets, stage = scratch[:4], scratch[4:]

        def rhs(g, into=None, st=None):
            """k = nu_s (g_s - g) + nu_c (g_c - g), formed in place in the
            target block and summed into `into`, or into the block's self
            rows, which then hold k until the next evaluation."""
            st, nu_s, nu_c = rates(g, st)
            block = build_targets(st, params, grid, match, out=targets)
            g_s, g_c = block[:2], block[2:]
            np.multiply(np.subtract(g_s, g, out=g_s), nu_s, out=g_s)
            np.multiply(np.subtract(g_c, g, out=g_c), nu_c, out=g_c)
            return np.add(g_s, g_c, out=g_s if into is None else into)

        # k1 + 2 k2 + 2 k3 + k4, summed in order, apart from f (new is
        # f's own block or shares no memory with it)
        total = np.empty_like(f) if np.may_share_memory(new, f) else new
        rhs(f, total, mixture)
        np.multiply(total, 0.5 * dt, out=stage)
        for scale in (0.5 * dt, dt):
            k = rhs(np.add(stage, f, out=stage))
            np.multiply(k, scale, out=stage)  # next input: f + scale k
            total += np.multiply(k, 2.0, out=k)
        total += rhs(np.add(stage, f, out=stage))
        total *= dt / 6.0
        np.add(total, f, out=new)
    else:
        st, nu_s, nu_c = rates(f, mixture)
        nu_tot = nu_s + nu_c
        if not np.all(nu_tot > 0.0):  # both species empty
            np.copyto(new, f)
        else:
            decay = np.exp(-nu_tot * dt)
            gain = -np.expm1(-nu_tot * dt) / nu_tot  # (1 - e^(-nu dt)) / nu
            w_s, w_c = nu_s * gain, nu_c * gain
            # w_f f first: from here on the step reads f only through st
            np.multiply(f, decay, out=new)
            weighted_targets(st, params, grid, np.concatenate([w_s, w_c]),
                             new, match)
    return KineticState(f=new, t=state.t + dt, grid=grid, dx=state.dx)


def _check_cfl(grid: VelocityGrid, dt: float, dx: float) -> None:
    """Raise CflError when max|v_x| dt / dx exceeds one."""
    cfl = float(np.max(np.abs(grid.axes[0]))) * dt / dx
    if cfl > 1.0 + 1e-12:
        raise CflError(f"CFL {cfl:.3f} exceeds 1 "
                       f"(max|v| dt/dx with dt={dt}, dx={dx:.6g})")


def _upwind(f: np.ndarray, out: np.ndarray, scale: np.ndarray,
            h: int) -> None:
    """The donor-cell update of the (2, cells, nodes) view f into out,
    which is f itself or apart from it: D_i scale + f_i, where D_i is
    f_(i+1) - f_i on the first h nodes (v_x <= 0) and f_i - f_(i-1) on
    the rest.  Chunks of cells of at most _CHUNK_BYTES run ascending:
    f_(i+1) is read before its chunk is written, and f_(i-1) of a
    chunk's first cell from the old row of the previous chunk's last,
    copied before that chunk was written; both wrap rows, cell 0's
    first h nodes and the last cell's rest, are copied first."""
    S, C, N = f.shape
    step = max(1, _CHUNK_BYTES // (S * N * f.itemsize))
    diff = np.empty((S, min(step, C), N))
    first, prev = f[:, :1, :h].copy(), f[:, -1:, h:].copy()
    for a in range(0, C, step):
        b = min(a + step, C)
        # the first m cells of the chunk have their next cell in the view
        d, m = diff[:, :b - a], min(b, C - 1) - a
        np.subtract(f[:, a + 1:a + m + 1, :h], f[:, a:a + m, :h],
                    out=d[:, :m, :h])
        if b == C:
            np.subtract(first, f[:, -1:, :h], out=d[:, m:, :h])
        np.subtract(f[:, a:a + 1, h:], prev, out=d[:, :1, h:])
        np.subtract(f[:, a + 1:b, h:], f[:, a:b - 1, h:], out=d[:, 1:, h:])
        np.copyto(prev, f[:, b - 1:b, h:])
        d *= scale
        np.add(d, f[:, a:b], out=out[:, a:b])


def transport_step(state: KineticState, dt: float, *,
                   out: np.ndarray | None = None) -> KineticState:
    """First-order upwind advection step on the periodic 1-D domain,
    written into `out` (the state's own block, or a C-contiguous block
    of its shape apart from it) or a new block.

    Advects the whole block along its cell axis, every velocity node
    independently, with the donor-cell update f_i - v_x dt/dx D_i, where
    D_i is the upwind difference of f: f_(i+1) - f_i where v_x <= 0 and
    f_i - f_(i-1) where v_x > 0.  The nodes are in `ij` order with v_x
    slowest, so those with v_x <= 0 are a prefix of the node order and
    the split is two slices.  The block is updated a chunk of cells at
    a time, ascending (`_upwind`; a lattice whose one cell exceeds the
    chunk is taken a run of nodes at a time): D is formed in a
    temporary of at most _CHUNK_BYTES, scaled there by -v_x dt/dx per
    node (from `grid.axes[0]`), and added to f into `out`.  A chunk
    reads f_(i+1) before the next chunk writes it, f_(i-1) of its first
    cell from a copy of that cell's old row, and the wrap cells' old
    rows are copied first, so the update is the same in place and into
    another block, bit for bit: each entry is the difference, the scale
    and the sum.  The differences telescope around the periodic
    domain, so each node's total mass is conserved to round-off, and a
    non-finite entry reaches only its own node's donor stencil: the
    cell it sits in and the neighbour it is the donor of.  A CFL number
    above one is a hard error.
    """
    if state.dx is None:
        raise ValueError("transport requires a 1-D state with cell width")
    _check_cfl(state.grid, dt, state.dx)
    f, grid, out = state.f, state.grid, _block_out(state.f, out)
    rest = f.shape[-1] // grid.points[0]
    h = int(np.searchsorted(grid.axes[0], 0.0, "right")) * rest  # v_x <= 0
    scale = np.repeat(grid.axes[0] * (-dt / state.dx), rest)  # per node
    width = max(1, _CHUNK_BYTES // (len(f) * f.itemsize))  # nodes a chunk
    for lo in range(0, f.shape[-1], width):
        nodes = slice(lo, lo + width)
        _upwind(f[..., nodes], out[..., nodes], scale[nodes],
                min(max(h - lo, 0), width))
    return KineticState(f=out, t=state.t + dt, grid=state.grid, dx=state.dx)


@dataclass
class SpeciesInit:
    """Initial condition of one species.

    Either a Maxwellian (n, u, T) or, when `tensor` is set, an
    anisotropic Gaussian with that temperature tensor.  A species with
    n = 0 is absent, as None is (`Scenario` stores it as None).
    """

    n: float = 1.0
    u: tuple = (0.0, 0.0, 0.0)
    T: float = 1.0
    tensor: np.ndarray | None = None


def _spd(tensor, dim: int) -> bool:
    """`tensor` is a finite, symmetric positive-definite dim x dim
    matrix."""
    matrix = np.asarray(tensor, dtype=float)
    if matrix.shape != (dim, dim) or not np.all(np.isfinite(matrix)):
        return False
    try:
        spd_factor(matrix)
    except (NotSpdError, ValueError):
        return False
    return True


def physical_memory() -> float:
    """The host's physical memory in bytes, inf where it is unreported."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf


# the most (2, cells, nodes) blocks a run holds at once: the state
# (transport and EXP steps update it in place; an RK4 run holds a
# second block for the next state), RK4's (4, cells, nodes) target
# block and its stage-input block, an EXP step's Gaussian rows (one
# block for es-self, two for the full ES variants), and up to two
# blocks for the transients of sampling and reduction (transport and
# Maxwellian terms form chunks of at most _CHUNK_BYTES).  Traced
# two-step runs, homogeneous on the 32^3 lattice / 1-D with 32 cells of
# a 16^3 lattice, peak at 2.0 / 1.5 (BGK EXP; the homogeneous peak is
# the initial samples beside the state), 2.4 / 2.7 (es-self EXP),
# 3.7 / 4.4 (es-full-a EXP), 5.2 / 5.5 (BGK RK4) and 5.7 / 6.4 (ES RK4)
_PEAK_BLOCKS = {"exp": 5, "rk4": 7}

# doubles beside the blocks per target member (4 a cell), a + b sum of
# points: the matchers' and the moment reduction's per-member tables
# (powers to degree 4 over every axis' nodes, the offsets and factors,
# the Newton matrices) grow with the members, not with the nodes, and
# outweigh the blocks on coarse lattices.  Traced two-step runs with
# cells, on [-6, 6]^d, hold at most 80 + 7.2 sum(points) doubles a
# member beyond the blocks in 1-D (8 to 128 points), 291 in 2-D (8^2 to
# 16^2) and 593 in 3-D (8^3 to 14^3), and peak at 0.96 of the blocks
# and tables at most (es-full-a RK4, 8^3 with 16 cells)
_MEMBER_DOUBLES = (512, 8)

# a run's fixed bytes beyond its blocks and tables: traced two-step
# one-cell runs on [-6, 6]^d (8 to 24 points, 8 to 16 in 3-D) hold up to
# 52 kB more (es-full-a, 12^3), 1.46 times those alone on 8^3
_RUN_BYTES = 64 * 1024

# bytes per diagnostics record: a record is a row of the diagnostics
# table, 19, 28 and 39 doubles in dims 1, 2 and 3, which `run_scenario`
# sizes once, and a `relax` command, which writes its rows as CSV line
# by line, peaks at 0.32, 0.22 and 0.32 kB a record in dims 1, 2 and 3
# (traced, as the growth from 100 to 500 records)
_RECORD_BYTES = 768


@dataclass(frozen=True)
class Scenario:
    """Complete description of one run.  Construction, and so
    `dataclasses.replace`, checks every run rule (ValueError, CflError)
    and stores a species of zero density as absent (None)."""

    params: ModelParams
    grid: VelocityGrid
    species1: SpeciesInit | None
    species2: SpeciesInit | None
    dt: float = 0.05
    t_end: float = 1.0
    output_every: int = 1
    integrator: str = "exp"
    moment_matching: bool = True
    cells: int = 0            # > 0 switches on 1-D transport
    length: float = 1.0
    splitting: str = "lie"    # "lie" or "strang"
    wave_amplitude: float = 0.0
    wave_mode: int = 1

    def __post_init__(self):
        for name in ("dt", "t_end", "length"):
            value = getattr(self, name)
            if not _positive(value):
                raise ValueError(f"{name} must be finite and positive "
                                 f"(got {value})")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ValueError(f"t_end / dt must be a finite number of steps "
                             f"(got {steps})")
        for name in ("cells", "output_every", "wave_mode"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be an integer (got {value})")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")
        if self.integrator not in ("exp", "rk4"):
            raise ValueError(f"integrator must be 'exp' or 'rk4' "
                             f"(got {self.integrator!r})")
        if self.splitting not in ("lie", "strang"):
            raise ValueError(f"unknown splitting {self.splitting!r}")
        if self.cells < 0:
            raise ValueError(f"cells must be >= 0 (got {self.cells})")
        # the run's peak, in (2, cells, nodes) float64 state blocks and
        # per-member tables, from the counts alone and before any
        # allocation
        memory = physical_memory()
        block = 2 * max(1, int(self.cells)) * self.grid.nnodes * 8
        a, b = _MEMBER_DOUBLES
        members = 4 * max(1, int(self.cells))
        peak = (_PEAK_BLOCKS[self.integrator] * block + _RUN_BYTES
                + members * (a + b * int(sum(self.grid.points))) * 8)
        if peak > memory:
            raise ValueError(f"points {self.grid.points.tolist()} with cells "
                             f"{self.cells} give a state block of {block} "
                             f"bytes, and an {self.integrator} run holds "
                             f"{peak} bytes at its peak, beyond the {memory} "
                             f"bytes of physical memory")
        records = self.records
        if records * _RECORD_BYTES > memory:
            raise ValueError(f"dt {self.dt}, t_end {self.t_end} and "
                             f"output_every {self.output_every} give "
                             f"{records:.3g} diagnostics records of "
                             f"{_RECORD_BYTES} bytes, beyond the {memory} "
                             f"bytes of physical memory")
        for k, init in enumerate((self.species1, self.species2), start=1):
            if init is None:
                continue
            if not (math.isfinite(init.n) and init.n >= 0.0):
                raise ValueError(f"species{k}.n must be finite and >= 0 "
                                 f"(got {init.n})")
            if init.n == 0.0:
                object.__setattr__(self, f"species{k}", None)
                continue
            if init.tensor is None and not _positive(init.T):
                raise ValueError(f"species{k}.T must be finite and positive "
                                 f"(got {init.T})")
            d = self.grid.dim
            if init.tensor is not None and not _spd(init.tensor, d):
                raise ValueError(
                    f"species{k}.tensor must be a finite symmetric positive-"
                    f"definite {d}x{d} matrix (got "
                    f"{np.asarray(init.tensor).tolist()})")
            if len(init.u) < d:
                raise ValueError(f"species{k}.u must have at least {d} "
                                 f"components (got {tuple(init.u)})")
            if not np.all(np.isfinite(init.u)):
                raise ValueError(f"species{k}.u must be finite "
                                 f"(got {tuple(init.u)})")
            if any(init.u[self.grid.dim:]):
                raise ValueError(f"u={tuple(init.u)} has nonzero components "
                                 f"beyond the {self.grid.dim}-D lattice")
        violations = validate(self.params)
        if violations:
            raise ValueError("inadmissible parameters: "
                             + "; ".join(violations))
        if self.cells == 0 and not math.isfinite(self.wave_amplitude):
            raise ValueError(f"wave_amplitude must be finite "
                             f"(got {self.wave_amplitude})")
        if self.cells > 0:
            _check_cfl(self.grid, self.dt_transport, self.length / self.cells)
            if not min(self.density_profile()) > 0.0:  # NaN fails too
                raise ValueError(f"wave_amplitude {self.wave_amplitude} "
                                 f"gives a cell density <= 0")

    @property
    def records(self) -> int:
        """The diagnostics records a run keeps, at most: step 0, every
        `output_every`-th step and the last."""
        return round(self.t_end / self.dt) // self.output_every + 2

    @property
    def dt_transport(self) -> float:
        """The step of each transport call: dt/2 under Strang splitting,
        which transports twice per step, and dt under Lie."""
        return 0.5 * self.dt if self.splitting == "strang" else self.dt

    def density_profile(self) -> np.ndarray:
        """Each cell's density factor 1 + a sin(2 pi k x / L) at its
        centre x; [1] for a homogeneous run."""
        if self.cells == 0:
            return np.ones(1)
        dx = self.length / self.cells
        return np.array([1.0 + self.wave_amplitude * math.sin(
            2.0 * math.pi * self.wave_mode * x / self.length)
            for x in (np.arange(self.cells) + 0.5) * dx])


def diagnose(state: KineticState, params: ModelParams, *,
             mixture: MixtureState | None = None) -> DiagRow:
    """Moments, conserved totals, entropy and anisotropy of one state,
    as one diagnostics row (`DiagRow.pack`).

    The moments are those of the cell averages, reduced as one row per
    species.  A one-cell state is its own cell average, so `mixture`,
    the `MixtureState` of its (2, 1, nodes) block, may be given in place
    of that reduction.
    """
    grid, f, cells = state.grid, state.f, state.f.shape[1]
    if mixture is None:
        mixture = MixtureState.from_distributions(
            f.mean(axis=1, keepdims=True), params.species1.m,
            params.species2.m, grid)
    elif cells != 1:
        raise ValueError(f"a given mixture state needs a one-cell state "
                         f"(got {cells} cells)")
    species = [(m, None if mom is None else mom.rows(0)) for m, mom in (
        (mixture.m1, mixture.mom1), (mixture.m2, mixture.mom2))]
    # NaN fails the first test and +inf the second
    negative = not (f.min() >= 0.0 and f.max() < math.inf)
    return DiagRow.pack(grid.dim, state.t, species,
                        h_functional(f, grid) / cells, negative)


def _initial_sample(init: SpeciesInit | None, mass: float,
                    grid: VelocityGrid, match: bool) -> np.ndarray:
    """The species' target at density init.n on the nodes; zero for an
    absent species."""
    if init is None:
        return np.zeros(grid.nnodes)
    u = init.u[:grid.dim]
    if init.tensor is not None:
        sample = match_gaussian if match else gaussian_on_grid
        return sample(init.n, u, init.tensor, mass, grid)
    sample = match_moments if match else maxwellian_on_grid
    return sample(init.n, u, init.T, mass, grid)


def run_scenario(scenario: Scenario) -> Diagnostics:
    """Integrate a scenario and collect diagnostics at the set cadence.

    1-D runs use Lie splitting (transport then relaxation) by default;
    Strang splitting wraps the relaxation in two half transport steps.
    Diagnostics are recorded at step 0, every `output_every` steps and
    at the final step.  A homogeneous run reduces each recorded state
    once: its `MixtureState` goes to `diagnose` and to the next
    `relax_step`.  A 1-D run shares nothing, as transport runs between
    the two.  Every transport step and every EXP step updates the
    state's block in place, so an EXP run holds one state block.  An
    RK4 run allocates one block beside the state: each RK4 step writes
    the next state into it, and the block the step read is the one the
    next RK4 step writes.
    """
    grid, dt, cells = scenario.grid, scenario.dt, scenario.cells
    dx = scenario.length / cells if cells > 0 else None
    params, match = scenario.params, scenario.moment_matching
    samples = np.array([_initial_sample(sp, spec.m, grid, match) for sp, spec
                        in ((scenario.species1, params.species1),
                            (scenario.species2, params.species2))])
    # moments would take a configured species sampled below the floor,
    # as a drift far off the lattice gives, to be absent
    densities = grid.weight * samples.sum(axis=1)
    for k, init in enumerate((scenario.species1, scenario.species2)):
        if init is not None and init.n > 0.0 and densities[k] < N_FLOOR:
            raise DegenerateDensityError(densities[k], N_FLOOR, species=k + 1)
    profile = scenario.density_profile()[:, None]
    state = KineticState(f=samples[:, None, :] * profile, t=0.0, grid=grid,
                         dx=dx)
    del samples  # a run holds only the blocks it steps
    # the block an RK4 step writes, as it reads the state until its last
    # stage; every other step writes into the state's own block
    free = np.empty_like(state.f) if scenario.integrator == "rk4" else None
    diag = Diagnostics(grid.dim, scenario.records)

    def record(state):
        """Append the state's diagnostics; return its MixtureState when
        the next step can reuse it (one cell, no transport between)."""
        mixture = None
        if dx is None:
            mixture = MixtureState.from_distributions(
                state.f, params.species1.m, params.species2.m, grid)
        diag.append(diagnose(state, params, mixture=mixture))
        return mixture

    mixture = record(state)
    strang = scenario.splitting == "strang"
    dt_transport = scenario.dt_transport
    nsteps = int(round(scenario.t_end / dt))
    for step in range(1, nsteps + 1):
        if dx is not None:
            state = transport_step(state, dt_transport, out=state.f)
        new = relax_step(state, dt, params, scenario.integrator,
                         scenario.moment_matching, mixture=mixture,
                         out=state.f if free is None else free)
        if free is not None:  # the block the RK4 step read is free after it
            free = state.f
        state, mixture = new, None
        if dx is not None and strang:
            state = transport_step(state, dt_transport, out=state.f)
        state.t = step * dt
        if step % scenario.output_every == 0 or step == nsteps:
            mixture = record(state)
    return diag
