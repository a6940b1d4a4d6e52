"""Time integration of the two-species relaxation system.

Every state is a (cells, nodes) array per species; a space-homogeneous
run is one cell and integrates the pure relaxation equations, while 1-D
runs add first-order upwind transport on a periodic domain via Lie or
Strang splitting.  Two integrators are available:

RK4   classical four-stage update with targets rebuilt at every stage;
      accurate but not positivity preserving (negative excursions are
      flagged in the diagnostics, never clamped in the state).

EXP   freeze the moments at the step start, build the targets once and
      update f <- g* + (f - g*) exp(-nu_tot dt), where nu_tot is the
      total collision frequency of the species and g* the
      frequency-weighted average of its two targets.  First-order
      accurate and unconditionally positivity preserving.

Both integrators consume one collision evaluation of all cells at once:
per species, (self rate, self target, cross rate, cross target), the
targets matched in one stacked call per family.  The initial state
samples each species' target once and scales it by the cells' density
profile.
Diagnostics take the totals from the moment sets of the cell averages
(momentum m n u, energy m n |u|^2 / 2 + tr(P) / 2 per species).  Every
reduction has a fixed summation order, so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CflError
from .grid import MomentSet, VelocityGrid, h_functional, match_gaussian, \
    match_moments, gaussian_on_grid, maxwellian_on_grid
from .params import ModelParams, derive_frequencies, validate
from .targets import MixtureState, build_targets


@dataclass
class KineticState:
    """Distribution pair at one time as (cells, nodes) arrays; a space-
    homogeneous state is one cell, also accepted as a (nodes,) array."""

    f1: np.ndarray
    f2: np.ndarray
    t: float
    grid: VelocityGrid
    dx: float | None = None


def relax_step(state: KineticState, dt: float, params: ModelParams,
               integrator: str = "exp", match: bool = True) -> KineticState:
    """One relaxation step of all cells at once; the result keeps the
    state shape.  Species are (cells, nodes) arrays, rates (cells, 1)
    columns."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive (got {dt})")
    if integrator not in ("rk4", "exp"):
        raise ValueError(f"unknown integrator {integrator!r}")
    grid, freq = state.grid, derive_frequencies(params.interaction)
    f1, f2 = (f.reshape(-1, grid.nnodes) for f in (state.f1, state.f2))

    def collision(g1, g2):
        """Per species: (self rate, self target, cross rate, cross target)."""
        st = MixtureState.from_distributions(g1, g2, params.species1.m,
                                             params.species2.m, grid)
        ts = build_targets(st, params, grid, match)
        n1, n2 = (0.0 if mom is None else mom.n[:, None]
                  for mom in (st.mom1, st.mom2))
        return ((freq.nu11 * n1, ts.g1, freq.nu12 * n2, ts.g12),
                (freq.nu22 * n2, ts.g2, freq.nu21 * n1, ts.g21))

    def rhs(g1, g2):
        return tuple(nu_s * (g_s - g) + nu_c * (g_c - g)
                     for g, (nu_s, g_s, nu_c, g_c)
                     in zip((g1, g2), collision(g1, g2)))

    def exp_update(f, nu_self, g_self, nu_cross, g_cross):
        nu_tot = nu_self + nu_cross
        if not np.all(nu_tot > 0.0):  # both species empty
            return f.copy()
        gstar = np.multiply(g_self, nu_self, out=g_self)  # step-local rows
        gstar += np.multiply(g_cross, nu_cross, out=g_cross)
        gstar /= nu_tot
        out = f - gstar
        out *= np.exp(-nu_tot * dt)
        return np.add(out, gstar, out=out)

    if integrator == "rk4":
        k1 = rhs(f1, f2)
        k2 = rhs(f1 + 0.5 * dt * k1[0], f2 + 0.5 * dt * k1[1])
        k3 = rhs(f1 + 0.5 * dt * k2[0], f2 + 0.5 * dt * k2[1])
        k4 = rhs(f1 + dt * k3[0], f2 + dt * k3[1])
        new = [f + dt / 6.0 * (a + 2.0 * b + 2.0 * c + e)
               for f, a, b, c, e in zip((f1, f2), k1, k2, k3, k4)]
    else:
        new = [exp_update(f, *terms)
               for f, terms in zip((f1, f2), collision(f1, f2))]
    return KineticState(f1=new[0].reshape(state.f1.shape),
                        f2=new[1].reshape(state.f2.shape), t=state.t + dt,
                        grid=grid, dx=state.dx)


def _check_cfl(grid: VelocityGrid, dt: float, dx: float) -> None:
    """Raise CflError when max|v_x| dt / dx exceeds one."""
    cfl = float(np.max(np.abs(grid.nodes[:, 0]))) * dt / dx
    if cfl > 1.0 + 1e-12:
        raise CflError(f"CFL {cfl:.3f} exceeds 1 "
                       f"(max|v| dt/dx with dt={dt}, dx={dx:.6g})")


def transport_step(state: KineticState, dt: float) -> KineticState:
    """First-order upwind advection step on the periodic 1-D domain.

    Updates every velocity node independently in flux form: the
    donor-cell flux through the right face of cell i is
    F_i = v+ f_i + v- f_(i+1), and f_i - dt/dx (F_i - F_(i-1)) is the
    new value.  The flux sum telescopes, so total mass per node is
    conserved to round-off.  A CFL number above one is a hard error.
    """
    if state.f1.ndim != 2 or state.dx is None:
        raise ValueError("transport requires a 1-D state with cell width")
    _check_cfl(state.grid, dt, state.dx)
    vx = state.grid.nodes[:, 0]
    vp = np.maximum(vx, 0.0)
    vm = np.minimum(vx, 0.0)
    lam = dt / state.dx

    def advect(f):
        flux = np.roll(f, -1, axis=0)
        flux *= vm
        out = np.multiply(f, vp)
        flux += out
        np.subtract(flux[1:], flux[:-1], out=out[1:])
        np.subtract(flux[:1], flux[-1:], out=out[:1])
        out *= -lam
        out += f
        return out

    return KineticState(f1=advect(state.f1), f2=advect(state.f2),
                        t=state.t + dt, grid=state.grid, dx=state.dx)


@dataclass
class SpeciesInit:
    """Initial condition of one species.

    Either a Maxwellian (n, u, T) or, when `tensor` is set, an
    anisotropic Gaussian with that temperature tensor.
    """

    n: float = 1.0
    u: tuple = (0.0, 0.0, 0.0)
    T: float = 1.0
    tensor: np.ndarray | None = None


@dataclass
class Scenario:
    """Complete description of one run."""

    params: ModelParams
    grid: VelocityGrid
    species1: SpeciesInit | None
    species2: SpeciesInit | None
    dt: float
    t_end: float
    output_every: int = 1
    integrator: str = "exp"
    moment_matching: bool = True
    cells: int = 0            # > 0 switches on 1-D transport
    length: float = 1.0
    splitting: str = "lie"    # "lie" or "strang"
    wave_amplitude: float = 0.0
    wave_mode: int = 1


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


def diagnose(state: KineticState, params: ModelParams) -> DiagRecord:
    """Moments, conserved totals, entropy and anisotropy of one state."""
    grid = state.grid
    f1 = state.f1.reshape(-1, grid.nnodes)
    f2 = state.f2.reshape(-1, grid.nnodes)
    st = MixtureState.from_distributions(
        f1.mean(axis=0), f2.mean(axis=0), params.species1.m,
        params.species2.m, grid)
    species = [(m, mom) for m, mom in ((st.m1, st.mom1), (st.m2, st.mom2))
               if mom is not None]
    momentum = sum((m * mom.n * mom.u for m, mom in species),
                   np.zeros(grid.dim))
    energy = sum(0.5 * m * mom.n * float(mom.u @ mom.u)
                 + 0.5 * float(np.trace(mom.P)) for m, mom in species)
    negative = not all(np.all(np.isfinite(f)) and f.min() >= 0.0
                       for f in (f1, f2))
    return DiagRecord(
        t=state.t,
        mom1=st.mom1, mom2=st.mom2,
        mass1=st.mom1.n if st.mom1 is not None else 0.0,
        mass2=st.mom2.n if st.mom2 is not None else 0.0,
        momentum=momentum, energy=float(energy),
        h=h_functional(f1, f2, grid) / f1.shape[0],
        aniso1=_anisotropy(st.mom1), aniso2=_anisotropy(st.mom2),
        negative=negative)


def _initial_distribution(init: SpeciesInit | None, mass: float,
                          grid: VelocityGrid, match: bool,
                          profile: list[float]) -> np.ndarray:
    """One row per cell: the species' target, sampled once at density
    init.n, times the cell's (positive) profile."""
    if init is None or init.n <= 0.0:
        return np.zeros((len(profile), grid.nnodes))
    if any(init.u[grid.dim:]):
        raise ValueError(f"u={tuple(init.u)} has nonzero components beyond "
                         f"the {grid.dim}-D lattice")
    u = init.u[:grid.dim]
    if init.tensor is not None:
        sample = match_gaussian if match else gaussian_on_grid
        f = sample(init.n, u, init.tensor, mass, grid)
    else:
        sample = match_moments if match else maxwellian_on_grid
        f = sample(init.n, u, init.T, mass, grid)
    return np.outer(profile, f)


def run_scenario(scenario: Scenario) -> Diagnostics:
    """Integrate a scenario and collect diagnostics at the set cadence.

    1-D runs use Lie splitting (transport then relaxation) by default;
    Strang splitting wraps the relaxation in two half transport steps.
    Diagnostics are recorded at step 0, every `output_every` steps and
    at the final step.
    """
    if scenario.dt <= 0.0:
        raise ValueError(f"dt must be positive (got {scenario.dt})")
    if scenario.t_end < scenario.dt:
        raise ValueError("t_end must be at least one step")
    if scenario.output_every < 1:
        raise ValueError("output_every must be >= 1")
    if scenario.splitting not in ("lie", "strang"):
        raise ValueError(f"unknown splitting {scenario.splitting!r}")
    violations = validate(scenario.params)
    if violations:
        raise ValueError("inadmissible parameters: " + "; ".join(violations))

    grid = scenario.grid
    dt, length, cells = scenario.dt, scenario.length, scenario.cells
    dx = length / cells if cells > 0 else None
    profile = [1.0]
    if cells > 0:
        _check_cfl(grid, dt, dx)
        profile = [1.0 + scenario.wave_amplitude * math.sin(
            2.0 * math.pi * scenario.wave_mode * x / length)
            for x in (np.arange(cells) + 0.5) * dx]
        if min(profile) <= 0.0:
            raise ValueError(
                f"wave_amplitude {scenario.wave_amplitude} gives a cell "
                f"density <= 0")

    f1 = _initial_distribution(scenario.species1, scenario.params.species1.m,
                               grid, scenario.moment_matching, profile)
    f2 = _initial_distribution(scenario.species2, scenario.params.species2.m,
                               grid, scenario.moment_matching, profile)
    state = KineticState(f1=f1, f2=f2, t=0.0, grid=grid, dx=dx)

    diag = Diagnostics(dim=grid.dim)
    diag.append(diagnose(state, scenario.params))
    strang = scenario.splitting == "strang"
    dt_transport = 0.5 * dt if strang else dt
    nsteps = int(round(scenario.t_end / dt))
    for step in range(1, nsteps + 1):
        if dx is not None:
            state = transport_step(state, dt_transport)
        state = relax_step(state, dt, scenario.params, scenario.integrator,
                           scenario.moment_matching)
        if dx is not None and strang:
            state = transport_step(state, dt_transport)
        state.t = step * dt
        if step % scenario.output_every == 0 or step == nsteps:
            diag.append(diagnose(state, scenario.params))
    return diag
