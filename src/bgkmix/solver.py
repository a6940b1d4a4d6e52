"""Time integration of the two-species relaxation system.

A state is one (2, cells, nodes) block, species 1 in row 0; a space-
homogeneous run is one cell and integrates the pure relaxation
equations, while 1-D runs add first-order upwind transport on a
periodic domain via Lie or Strang splitting.  Two integrators are
available:

RK4   classical four-stage update with targets rebuilt at every stage;
      accurate but not positivity preserving (negative excursions are
      flagged in the diagnostics, never clamped in the state).  A step
      evaluates its stages in place in one scratch set, allocated once
      (target, stage-derivative and stage-input blocks), and sums them
      in the order of f + dt/6 (k1 + 2 k2 + 2 k3 + k4).

EXP   freeze the moments at the step start, build the targets once and
      update f <- g* + (f - g*) exp(-nu_tot dt), where nu_tot is the
      total collision frequency of the species and g* the
      frequency-weighted average of its two targets.  First-order
      accurate and unconditionally positivity preserving.

Both integrators work on whole blocks.  A collision evaluation of all
cells gives the self rates [nu11 n1, nu22 n2] and the cross rates
[nu12 n2, nu21 n1] as (2, cells, 1) columns, and the target block
[g1, g2, g12, g21], whose rows 0:2 (self) and 2:4 (cross) align with
the species axis.  Each evaluation, and each diagnostics record, reduces
a view of the block in one `moments` call.  The initial block is each
species' target, sampled once, times the cells' density profile.
Diagnostics take the totals from the moment sets of the cell averages
(momentum m n u, energy m n |u|^2 / 2 + tr(P) / 2 per species).  A
homogeneous state is its own cell average, so `run_scenario` reduces
each recorded one-cell state once and passes the result to `diagnose`
and to the next `relax_step`.  Every reduction has a fixed summation
order, so runs are reproducible.  A run is a frozen `Scenario`, whose
construction is the one place a run's rules are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflError, NotSpdError
from .grid import MomentSet, VelocityGrid, h_functional, match_gaussian, \
    match_moments, gaussian_on_grid, maxwellian_on_grid, spd_factor
from .params import ModelParams, _positive, derive_frequencies, validate
from .targets import MixtureState, build_targets


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


def relax_step(state: KineticState, dt: float, params: ModelParams,
               integrator: str = "exp", match: bool = True, *,
               mixture: MixtureState | None = None) -> KineticState:
    """One relaxation step of all cells at once, on the whole
    (2, cells, nodes) block.  `mixture`, when given, is the
    `MixtureState` of the state's own block and serves the first
    collision evaluation in place of reducing the state again."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive (got {dt})")
    if integrator not in ("rk4", "exp"):
        raise ValueError(f"unknown integrator {integrator!r}")
    grid, freq, f = state.grid, derive_frequencies(params.interaction), state.f
    nu_self = np.array([freq.nu11, freq.nu22])[:, None, None]
    nu_cross = np.array([freq.nu12, freq.nu21])[:, None, None]

    def collision(g, st=None, out=None):
        """Self rate, self targets, cross rate, cross targets."""
        if st is None:
            st = MixtureState.from_distributions(
                g, params.species1.m, params.species2.m, grid)
        n = st.densities().reshape(2, -1, 1)
        block = build_targets(st, params, grid, match, out=out).block
        return nu_self * n, block[:2], nu_cross * n[::-1], block[2:]

    if integrator == "rk4":
        targets = np.empty((4,) + f.shape[1:])
        k, stage, new = np.empty_like(f), np.empty_like(f), np.empty_like(f)

        def rhs(g, out, st=None):
            """nu_s (g_s - g) + nu_c (g_c - g) into `out`, formed in place
            in the target block."""
            nu_s, g_s, nu_c, g_c = collision(g, st, targets)
            np.multiply(np.subtract(g_s, g, out=g_s), nu_s, out=g_s)
            np.multiply(np.subtract(g_c, g, out=g_c), nu_c, out=g_c)
            np.add(g_s, g_c, out=out)

        rhs(f, new, mixture)  # new sums k1 + 2 k2 + 2 k3 + k4 in order
        np.multiply(new, 0.5 * dt, out=stage)
        for scale in (0.5 * dt, dt):
            rhs(np.add(stage, f, out=stage), k)
            np.multiply(k, scale, out=stage)  # next input: f + scale k
            new += np.multiply(k, 2.0, out=k)
        rhs(np.add(stage, f, out=stage), k)
        new += k
        new *= dt / 6.0
        new += f
    else:
        nu_s, g_s, nu_c, g_c = collision(f, mixture)
        nu_tot = nu_s + nu_c
        if np.all(nu_tot > 0.0):
            gstar = np.multiply(g_s, nu_s, out=g_s)  # step-local rows
            gstar += np.multiply(g_c, nu_c, out=g_c)
            gstar /= nu_tot
            new = f - gstar
            new *= np.exp(-nu_tot * dt)
            new += gstar
        else:  # both species empty
            new = f.copy()
    return KineticState(f=new, t=state.t + dt, grid=grid, dx=state.dx)


def _check_cfl(grid: VelocityGrid, dt: float, dx: float) -> None:
    """Raise CflError when max|v_x| dt / dx exceeds one."""
    cfl = float(np.max(np.abs(grid.nodes[:, 0]))) * dt / dx
    if cfl > 1.0 + 1e-12:
        raise CflError(f"CFL {cfl:.3f} exceeds 1 "
                       f"(max|v| dt/dx with dt={dt}, dx={dx:.6g})")


def transport_step(state: KineticState, dt: float) -> KineticState:
    """First-order upwind advection step on the periodic 1-D domain.

    Advects the whole block along its cell axis, every velocity node
    independently, in flux form: the
    donor-cell flux through the right face of cell i is
    F_i = v+ f_i + v- f_(i+1), and f_i - dt/dx (F_i - F_(i-1)) is the
    new value.  The flux sum telescopes, so total mass per node is
    conserved to round-off.  A CFL number above one is a hard error.
    """
    if state.dx is None:
        raise ValueError("transport requires a 1-D state with cell width")
    _check_cfl(state.grid, dt, state.dx)
    f, vx = state.f, state.grid.nodes[:, 0]
    flux = np.roll(f, -1, axis=1)
    flux *= np.minimum(vx, 0.0)
    out = np.multiply(f, np.maximum(vx, 0.0))
    flux += out
    np.subtract(flux[:, 1:], flux[:, :-1], out=out[:, 1:])
    np.subtract(flux[:, :1], flux[:, -1:], out=out[:, :1])
    out *= -dt / state.dx
    out += f
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
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")
        if self.integrator not in ("exp", "rk4"):
            raise ValueError(f"integrator must be 'exp' or 'rk4' "
                             f"(got {self.integrator!r})")
        if self.splitting not in ("lie", "strang"):
            raise ValueError(f"unknown splitting {self.splitting!r}")
        if self.cells < 0:
            raise ValueError(f"cells must be >= 0 (got {self.cells})")
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
        if self.cells > 0:
            _check_cfl(self.grid, self.dt, self.length / self.cells)
            if not min(self.density_profile()) > 0.0:  # NaN fails too
                raise ValueError(f"wave_amplitude {self.wave_amplitude} "
                                 f"gives a cell density <= 0")

    def density_profile(self) -> np.ndarray:
        """Each cell's density factor 1 + a sin(2 pi k x / L) at its
        centre x; [1] for a homogeneous run."""
        if self.cells == 0:
            return np.ones(1)
        dx = self.length / self.cells
        return np.array([1.0 + self.wave_amplitude * math.sin(
            2.0 * math.pi * self.wave_mode * x / self.length)
            for x in (np.arange(self.cells) + 0.5) * dx])


@dataclass
class DiagRecord:
    """One diagnostics sample.

    The moment sets describe the cell-averaged distributions, whose
    linear moments are exactly the domain totals per unit length; H is
    likewise the per-unit-length entropy.  `negative` flags any negative
    or non-finite value in the state.
    """

    t: float
    mom1: MomentSet | None
    mom2: MomentSet | None
    mass1: float
    mass2: float
    momentum: np.ndarray
    energy: float
    h: float
    aniso1: float
    aniso2: float
    negative: bool


class Diagnostics:
    """Time series of diagnostics records."""

    def __init__(self, dim: int):
        self.dim = dim
        self.records: list[DiagRecord] = []

    def append(self, rec: DiagRecord):
        self.records.append(rec)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def _gap(self, between) -> np.ndarray:
        return np.array([between(r.mom1, r.mom2)
                         if r.mom1 is not None and r.mom2 is not None
                         else np.nan for r in self.records])

    def velocity_gap(self) -> np.ndarray:
        """|u1 - u2| per record (nan where a species is degenerate)."""
        return self._gap(lambda a, b: float(np.linalg.norm(a.u - b.u)))

    def temperature_gap(self) -> np.ndarray:
        """|T1 - T2| per record (nan where a species is degenerate)."""
        return self._gap(lambda a, b: abs(a.T - b.T))

    def anisotropy(self, species: int = 1) -> np.ndarray:
        return np.array([r.aniso1 if species == 1 else r.aniso2
                         for r in self.records])


def _anisotropy(mom: MomentSet | None) -> float:
    if mom is None or mom.P is None:
        return 0.0
    dev = mom.P - mom.n * mom.T * np.eye(mom.P.shape[0])
    return float(np.linalg.norm(dev))


def diagnose(state: KineticState, params: ModelParams, *,
             mixture: MixtureState | None = None) -> DiagRecord:
    """Moments, conserved totals, entropy and anisotropy of one state.

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
    mom1, mom2 = (None if mom is None else mom.rows(0)
                  for mom in (mixture.mom1, mixture.mom2))
    species = [(m, mom) for m, mom in ((mixture.m1, mom1), (mixture.m2, mom2))
               if mom is not None]
    momentum = sum((m * mom.n * mom.u for m, mom in species),
                   np.zeros(grid.dim))
    energy = sum(0.5 * m * mom.n * float(mom.u @ mom.u)
                 + 0.5 * float(np.trace(mom.P)) for m, mom in species)
    # NaN fails the first test and +inf the second
    negative = not (f.min() >= 0.0 and f.max() < math.inf)
    return DiagRecord(
        t=state.t,
        mom1=mom1, mom2=mom2,
        mass1=mom1.n if mom1 is not None else 0.0,
        mass2=mom2.n if mom2 is not None else 0.0,
        momentum=momentum, energy=float(energy),
        h=h_functional(f, grid) / cells,
        aniso1=_anisotropy(mom1), aniso2=_anisotropy(mom2),
        negative=negative)


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
    the two.
    """
    grid, dt, cells = scenario.grid, scenario.dt, scenario.cells
    dx = scenario.length / cells if cells > 0 else None
    params, match = scenario.params, scenario.moment_matching
    samples = np.array([_initial_sample(sp, spec.m, grid, match) for sp, spec
                        in ((scenario.species1, params.species1),
                            (scenario.species2, params.species2))])
    profile = scenario.density_profile()[:, None]
    state = KineticState(f=samples[:, None, :] * profile, t=0.0, grid=grid,
                         dx=dx)
    diag = Diagnostics(dim=grid.dim)

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
    dt_transport = 0.5 * dt if strang else dt
    nsteps = int(round(scenario.t_end / dt))
    for step in range(1, nsteps + 1):
        if dx is not None:
            state = transport_step(state, dt_transport)
        state = relax_step(state, dt, params, scenario.integrator,
                           scenario.moment_matching, mixture=mixture)
        mixture = None
        if dx is not None and strang:
            state = transport_step(state, dt_transport)
        state.t = step * dt
        if step % scenario.output_every == 0 or step == nsteps:
            mixture = record(state)
    return diag
