import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bgkmix import chapman
from bgkmix import grid as gridmod
from bgkmix import solver
from bgkmix.cli import write_diagnostics_csv
from bgkmix.errors import CflError
from bgkmix.grid import (VelocityGrid, gaussian_on_grid, h_functional,
                         match_moments, maxwellian_on_grid)
from bgkmix.params import (EsParams, InteractionSpec, MixingParams,
                           ModelParams, SpeciesSpec, Variant,
                           derive_frequencies)
from bgkmix.diagnostics import diagnostics_header
from bgkmix.solver import (Diagnostics, KineticState, Scenario, SpeciesInit,
                           diagnose, relax_step, run_scenario, transport_step)
from bgkmix.targets import MixtureState, build_targets

from conftest import node_coordinates


def make_params(m1=1.0, m2=2.0, nu12=1.0, epsilon=1.0, beta1=1.0, beta2=1.0,
                delta=0.3, alpha=0.4, gamma=0.05, variant=Variant.BGK, **mus):
    return ModelParams(
        species1=SpeciesSpec(m=m1), species2=SpeciesSpec(m=m2),
        interaction=InteractionSpec(nu12, epsilon, beta1, beta2),
        mixing=MixingParams(delta=delta, alpha=alpha, gamma=gamma),
        es=EsParams(variant=variant, **mus))


def one_cell(f1, f2, grid):
    """A homogeneous state: both species' (nodes,) rows as one cell."""
    return KineticState(f=np.array([f1, f2])[:, None], t=0.0, grid=grid)


def nonequilibrium_state(grid, m1=1.0, m2=2.0):
    f1 = match_moments(1.0, (0.3, 0, 0), 1.0, m1, grid)
    f2 = match_moments(0.8, (-0.2, 0.1, 0), 1.3, m2, grid)
    return one_cell(f1, f2, grid)


class TestRelaxStep:
    def test_global_equilibrium_is_fixed_point(self, mid_grid):
        params = make_params()
        f1 = match_moments(1.0, (0.15, 0, 0), 1.1, 1.0, mid_grid)
        f2 = match_moments(0.6, (0.15, 0, 0), 1.1, 2.0, mid_grid)
        state = one_cell(f1, f2, mid_grid)
        for integrator in ("exp", "rk4"):
            new = relax_step(state, 0.1, params, integrator)
            assert np.max(np.abs(new.f1 - f1)) < 1e-12
            assert np.max(np.abs(new.f2 - f2)) < 1e-12

    def test_exp_large_dt_lands_on_weighted_target(self, mid_grid):
        params = make_params()
        state = nonequilibrium_state(mid_grid)
        st = MixtureState.from_distributions(state.f[:, 0], 1.0, 2.0,
                                             mid_grid)
        ts = build_targets(st, params, mid_grid)
        freq = derive_frequencies(params.interaction)
        n1, n2 = st.mom1.n, st.mom2.n
        nu1 = freq.nu11 * n1 + freq.nu12 * n2
        gstar1 = (freq.nu11 * n1 * ts[0] + freq.nu12 * n2 * ts[2]) / nu1
        dt = 50.0 / nu1
        new = relax_step(state, dt, params, "exp")
        assert np.max(np.abs(new.f1 - gstar1)) < 1e-12

    def test_density_drift_per_step(self, mid_grid):
        params = make_params()
        state = nonequilibrium_state(mid_grid)
        n1 = mid_grid.density(state.f1)
        n2 = mid_grid.density(state.f2)
        new = relax_step(state, 0.05, params, "exp")
        assert abs(mid_grid.density(new.f1) - n1) < 1e-12
        assert abs(mid_grid.density(new.f2) - n2) < 1e-12

    def test_exp_preserves_positivity_any_dt(self, small_grid):
        # equal masses keep both thermal widths resolvable on the coarse grid
        params = make_params(m2=1.0)
        state = nonequilibrium_state(small_grid, m2=1.0)
        for dt in (1e-3, 0.1, 1.0, 10.0, 100.0):
            new = relax_step(state, dt, params, "exp")
            assert new.f1.min() >= 0.0
            assert new.f2.min() >= 0.0

    def test_one_step_agreement_order(self):
        # RK4 and EXP differ at O(dt^2) over a single step
        grid = VelocityGrid(3, -8, 8, 12)
        params = make_params(m1=1.0, m2=2.0, epsilon=0.5, beta1=2.0,
                             beta2=1.5, delta=0.4, alpha=0.3, gamma=0.02)
        state = nonequilibrium_state(grid)

        def gap(dt):
            a = relax_step(state, dt, params, "exp")
            b = relax_step(state, dt, params, "rk4")
            return max(np.max(np.abs(a.f1 - b.f1)),
                       np.max(np.abs(a.f2 - b.f2)))

        d_coarse, d_fine = gap(0.04), gap(0.02)
        assert d_coarse / d_fine >= 3.5
        assert math.log2(d_coarse / d_fine) >= 1.8


    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
    def test_rejects_bad_dt(self, mid_grid, dt):
        state = nonequilibrium_state(mid_grid)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            relax_step(state, dt, make_params())

    def test_rejects_unknown_integrator(self, mid_grid):
        state = nonequilibrium_state(mid_grid)
        with pytest.raises(ValueError, match="^unknown integrator 'euler'$"):
            relax_step(state, 0.1, make_params(), integrator="euler")

    def test_moments_reduce_a_view_of_the_block(self, monkeypatch,
                                                mid_grid):
        state = nonequilibrium_state(mid_grid)
        views = []
        real = gridmod.moments

        def spy(*args, **kwargs):
            views.append(np.shares_memory(args[0], state.f))
            return real(*args, **kwargs)

        monkeypatch.setattr(gridmod, "moments", spy)
        relax_step(state, 0.05, make_params(), "exp")
        assert views == [True]


class TestKineticState:
    def test_rows_are_views_of_the_block(self, small_grid):
        state = KineticState(f=np.zeros((2, 3, small_grid.nnodes)), t=0.0,
                             grid=small_grid)
        state.f2[1] = 1.0
        assert state.f.flags.c_contiguous
        assert np.shares_memory(state.f1, state.f)
        assert np.array_equal(state.f[1, 1], np.ones(small_grid.nnodes))

    @pytest.mark.parametrize("shape", [
        lambda N: (3, N), lambda N: (2, 3, N - 1), lambda N: (N,),
        lambda N: (2, N), lambda N: (1, 3, N), lambda N: (2, 0, N)],
        ids=["cells-nodes", "node-count", "flat", "species-nodes",
             "one-species", "no-cells"])
    def test_rejects_other_shapes(self, small_grid, shape):
        shape = shape(small_grid.nnodes)
        with pytest.raises(ValueError, match=r"\(2, cells, 512\) block"):
            KineticState(f=np.zeros(shape), t=0.0, grid=small_grid)


class TestStackedRelaxation:
    """relax_step matches every cell in one stacked call per target
    family; on a (cells, nodes) state it equals one-cell calls row by
    row."""

    GRIDS = {1: VelocityGrid(dim=1, vmin=-6.0, vmax=6.0, points=24),
             2: VelocityGrid(dim=2, vmin=-6.0, vmax=6.0, points=16),
             3: VelocityGrid(dim=3, vmin=-6.0, vmax=6.0, points=12)}
    MUS = {"mu1": 0.5, "mu2": -0.3, "mu12": 0.4, "mu21": 0.2}

    @staticmethod
    def cells(grid, mass, sign):
        """Three sheared Gaussians with different n, u and T per cell."""
        d, rows = grid.dim, []
        for k, (n, drift, scale) in enumerate(((1.0, 0.3, 1.0),
                                               (0.6, -0.2, 1.4),
                                               (1.3, 0.1, 0.7))):
            u = sign * drift * np.array([1.0, -0.5, 0.25])[:d]
            tensor = scale * (np.eye(d) + 0.15 * (np.ones((d, d)) - np.eye(d)))
            rows.append(gaussian_on_grid(n, u, tensor, mass, grid))
        return np.array(rows)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("integrator", ["exp", "rk4"])
    @pytest.mark.parametrize("match", [True, False],
                             ids=["matched", "sampled"])
    def test_cells_equal_one_cell_calls(self, match, integrator, variant,
                                        dim):
        grid = self.GRIDS[dim]
        mus = {} if variant == Variant.BGK else self.MUS
        params = make_params(epsilon=0.5, variant=variant, **mus)
        f = np.array([self.cells(grid, 1.0, 1.0), self.cells(grid, 2.0, -1.0)])
        state = KineticState(f=f, t=0.0, grid=grid)
        new = relax_step(state, 0.05, params, integrator, match)
        for c in range(f.shape[1]):
            one = relax_step(KineticState(f=f[:, c:c + 1], t=0.0, grid=grid),
                             0.05, params, integrator, match)
            for got, ref in ((new.f1[c], one.f1[0]), (new.f2[c], one.f2[0])):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(ref)


def reference_rk4(state, dt, params, match):
    """The classical RK4 step written out: fresh targets and fresh
    arrays at every stage."""
    grid, f = state.grid, state.f
    freq = derive_frequencies(params.interaction)
    nu_self = np.array([freq.nu11, freq.nu22])[:, None, None]
    nu_cross = np.array([freq.nu12, freq.nu21])[:, None, None]

    def rhs(g):
        st = MixtureState.from_distributions(g, params.species1.m,
                                             params.species2.m, grid)
        n = st.densities().reshape(2, -1, 1)
        block = build_targets(st, params, grid, match)
        nu_s, nu_c = nu_self * n, nu_cross * n[::-1]
        return nu_s * (block[:2] - g) + nu_c * (block[2:] - g)

    k1 = rhs(f)
    k2 = rhs(f + 0.5 * dt * k1)
    k3 = rhs(f + 0.5 * dt * k2)
    k4 = rhs(f + dt * k3)
    return f + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_exp(state, dt, params, match):
    """The frozen-target EXP step written out on fresh arrays,
    g* + (f - g*) exp(-nu_tot dt), and its weighted target g*; at least
    one species must be present."""
    grid, f = state.grid, state.f
    freq = derive_frequencies(params.interaction)
    st = MixtureState.from_distributions(f, params.species1.m,
                                         params.species2.m, grid)
    n = st.densities().reshape(2, -1, 1)
    block = build_targets(st, params, grid, match)
    nu_s = np.array([freq.nu11, freq.nu22])[:, None, None] * n
    nu_c = np.array([freq.nu12, freq.nu21])[:, None, None] * n[::-1]
    nu_tot = nu_s + nu_c
    gstar = (nu_s * block[:2] + nu_c * block[2:]) / nu_tot
    return gstar + (f - gstar) * np.exp(-nu_tot * dt), gstar


class TestWeightedSumExp:
    """relax_step's EXP update, one weighted sum of f and the two
    targets, is the written-out frozen-target step to round-off."""

    @pytest.mark.parametrize("absent", [(), (0,), (1,), (0, 1)],
                             ids=["present", "no-1", "no-2", "empty"])
    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("match", [True, False],
                             ids=["matched", "sampled"])
    @pytest.mark.parametrize("dt", [0.05, 5.0])
    def test_equals_reference_step(self, dt, match, variant, dim, cells,
                                   absent):
        grid = TestStackedRelaxation.GRIDS[dim]
        mus = {} if variant == Variant.BGK else TestStackedRelaxation.MUS
        params = make_params(epsilon=0.5, variant=variant, **mus)
        f = np.array([TestStackedRelaxation.cells(grid, 1.0, 1.0),
                      TestStackedRelaxation.cells(grid, 2.0, -1.0)])[:, :cells]
        f[list(absent)] = 0.0
        state = KineticState(f=f, t=0.0, grid=grid)
        new = relax_step(state, dt, params, "exp", match)
        if len(absent) == 2:
            assert np.array_equal(new.f, f)
            return
        ref, gstar = reference_exp(state, dt, params, match)
        scale = np.maximum(np.abs(f).max(axis=2), np.abs(gstar).max(axis=2))
        assert np.all(np.abs(new.f - ref).max(axis=2) <= 1e-14 * scale)


class TestInPlaceRk4:
    """relax_step's RK4 reuses one scratch set for its four stages and
    equals the written-out step bit for bit."""

    @pytest.mark.parametrize("absent", [(), (0,), (1,), (0, 1)],
                             ids=["present", "no-1", "no-2", "empty"])
    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("match", [True, False],
                             ids=["matched", "sampled"])
    def test_equals_reference_step(self, match, variant, dim, cells, absent):
        grid = TestStackedRelaxation.GRIDS[dim]
        mus = {} if variant == Variant.BGK else TestStackedRelaxation.MUS
        params = make_params(epsilon=0.5, variant=variant, **mus)
        f = np.array([TestStackedRelaxation.cells(grid, 1.0, 1.0),
                      TestStackedRelaxation.cells(grid, 2.0, -1.0)])[:, :cells]
        f[list(absent)] = 0.0
        state = KineticState(f=f, t=0.0, grid=grid)
        new = relax_step(state, 0.05, params, "rk4", match)
        assert np.array_equal(new.f, reference_rk4(state, 0.05, params,
                                                   match))

    @pytest.mark.parametrize("integrator, variant, builds", [
        ("rk4", Variant.BGK, 4), ("exp", Variant.ES_FULL_A, 0),
        ("exp", Variant.BGK, 0)], ids=["rk4-4", "exp-es-0", "exp-0"])
    def test_stages_share_one_target_block(self, monkeypatch, mid_grid,
                                           integrator, variant, builds):
        """RK4's stages refill one target block; an EXP step, BGK or ES,
        builds none (it adds the weighted targets straight into the next
        state)."""
        outs = []
        real = solver.build_targets

        def spy(*args, out=None, **kwargs):
            outs.append(out)
            return real(*args, out=out, **kwargs)

        monkeypatch.setattr(solver, "build_targets", spy)
        relax_step(nonequilibrium_state(mid_grid), 0.05,
                   make_params(variant=variant), integrator)
        assert len(outs) == builds
        if integrator == "rk4":
            assert outs[0] is not None
            assert all(out is outs[0] for out in outs)
        else:
            assert outs == [None] * builds


def reference_transport(state, dt, out=None):
    """The donor-cell step written out on the whole block: the upwind
    difference of f from rolled copies, f_(i+1) - f_i where v_x <= 0 and
    f_i - f_(i-1) where v_x > 0, times -v_x dt/dx per node, plus f.
    `out`, a run's block for the step, is ignored: the step returns a
    new block."""
    f, vx = state.f, node_coordinates(state.grid)[:, 0]
    diff = np.where(vx > 0.0, f - np.roll(f, 1, axis=1),
                    np.roll(f, -1, axis=1) - f)
    out = diff * (vx * (-dt / state.dx))
    out += f
    return KineticState(f=out, t=state.t + dt, grid=state.grid, dx=state.dx)


class TestSplitTransport:
    """transport_step splits the upwind difference of f at v_x = 0 and
    equals the written-out donor-cell step bit for bit, sign of zero
    included."""

    @pytest.mark.parametrize("cells", [1, 2, 7])
    @pytest.mark.parametrize("lattice", [
        (-4.0, 4.0, 8), (-4.5, 4.5, 9), (-4.0, 3.0, 9), (0.5, 4.0, 8),
        (-4.0, -0.5, 8),
        ((-7.0, -6.0, -8.0), (6.5, 7.5, 8.0), (12, 16, 20))],
        ids=["even", "zero-node", "off-centre", "positive", "negative",
             "uneven"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_reference_step(self, dim, lattice, cells):
        # per-axis entries are cut to the grid's dimension
        grid = VelocityGrid(dim, *(x[:dim] if isinstance(x, tuple) else x
                                   for x in lattice))
        rng = np.random.default_rng(41)
        f = rng.uniform(0.0, 1.0, (2, cells, grid.nnodes))
        f *= rng.choice([-1.0, 0.0, 1.0], f.shape)
        assert {-1, 0, 1} <= set(np.sign(f).ravel())
        state = KineticState(f=f, t=0.0, grid=grid, dx=0.25)
        dt = 0.9 * 0.25 / np.max(np.abs(node_coordinates(grid)[:, 0]))
        new, want = transport_step(state, dt).f, reference_transport(
            state, dt).f
        assert np.array_equal(new, want)
        assert np.array_equal(np.signbit(new), np.signbit(want))

    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    @pytest.mark.parametrize("integrator", ["exp", "rk4"])
    def test_run_equals_reference_transport(self, monkeypatch, tmp_path,
                                            integrator, splitting):
        scen = Scenario(
            params=make_params(epsilon=0.5),
            grid=VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=16),
            species1=SpeciesInit(n=1.0, u=(0.3,), T=1.0),
            species2=SpeciesInit(n=0.8, u=(-0.2,), T=1.5),
            dt=0.02, t_end=0.1, integrator=integrator, cells=8,
            splitting=splitting, wave_amplitude=0.2)
        split, written = tmp_path / "split.csv", tmp_path / "written.csv"
        write_diagnostics_csv(run_scenario(scen), str(split))
        monkeypatch.setattr(solver, "transport_step", reference_transport)
        write_diagnostics_csv(run_scenario(scen), str(written))
        assert len(split.read_text().splitlines()) == 7
        assert split.read_bytes() == written.read_bytes()

    @pytest.mark.parametrize("node", [0, 4, 8], ids=["v<0", "v=0", "v>0"])
    def test_nonfinite_entry_stays_in_its_stencil(self, node):
        grid = VelocityGrid(dim=1, vmin=-4.5, vmax=4.5, points=9)
        f = np.ones((2, 7, grid.nnodes))
        f[1, 3, node] = np.nan
        state = KineticState(f=f, t=0.0, grid=grid, dx=0.25)
        new = transport_step(state, 0.05)
        # the donor cell of cell i is i - 1 for v_x > 0, else i + 1
        want = np.zeros(f.shape, dtype=bool)
        rightward = node_coordinates(grid)[node, 0] > 0.0
        want[1, [3, 4] if rightward else [2, 3], node] = True
        assert np.array_equal(np.isnan(new.f), want)
        assert np.isfinite(new.f[~want]).all()
        assert diagnose(new, make_params()).negative


class TestStepOut:
    """A step given a block writes the next state into it, bit for bit
    the state a step that allocates gives, and the state's own block is
    such a block; a block that is not a C-contiguous float block of the
    state's shape, and shares memory with the state otherwise, is
    refused."""

    # 16^3 lattices of 1 and 2 cells, 13 (a transport chunk holds 2 of
    # its cells, so the last chunk is partial) and 32; 4096 cells of a
    # 16-point 1-D lattice, many cells to one chunk
    LATTICES = {cells: VelocityGrid(dim=3, vmin=-8.0, vmax=8.0, points=16)
                for cells in (1, 2, 13, 32)}
    LATTICES[4096] = VelocityGrid(dim=1, vmin=-6.0, vmax=6.0, points=16)
    STEPS = {"exp-bgk": ("exp", Variant.BGK),
             "exp-es": ("exp", Variant.ES_FULL_A),
             "rk4-bgk": ("rk4", Variant.BGK)}

    @staticmethod
    def wave_state(cells):
        """A sheared Gaussian and a drifting Maxwellian, each times a
        density wave over the cells of a unit periodic domain."""
        grid = TestStepOut.LATTICES[cells]
        d = grid.dim
        tensor = np.eye(d) + 0.15 * (np.ones((d, d)) - np.eye(d))
        rows = np.array([
            gaussian_on_grid(1.0, 0.3 * np.eye(d)[0], tensor, 1.0, grid),
            maxwellian_on_grid(0.8, -0.2 * np.eye(d)[0], 1.3, 2.0, grid)])
        x = (np.arange(cells) + 0.5) / cells
        profile = 1.0 + 0.2 * np.sin(2.0 * np.pi * x)[:, None]
        return KineticState(f=rows[:, None] * profile, t=0.0, grid=grid,
                            dx=1.0 / cells)

    @staticmethod
    def transport_dt(state):
        """A step at CFL number 0.9."""
        return 0.9 * state.dx / np.max(np.abs(state.grid.axes[0]))

    @pytest.mark.parametrize("integrator, variant", [
        ("exp", Variant.BGK), ("exp", Variant.ES_FULL_A), ("rk4", Variant.BGK)],
        ids=["exp-bgk", "exp-es", "rk4-bgk"])
    def test_relax_step_writes_into_out(self, mid_grid, integrator, variant):
        mus = {} if variant == Variant.BGK else TestStackedRelaxation.MUS
        params = make_params(epsilon=0.5, variant=variant, **mus)
        state = nonequilibrium_state(mid_grid)
        out = np.full_like(state.f, np.nan)
        new = relax_step(state, 0.05, params, integrator, out=out)
        assert new.f is out
        assert np.array_equal(out, relax_step(state, 0.05, params,
                                              integrator).f)

    @pytest.mark.parametrize("cells", sorted(LATTICES))
    @pytest.mark.parametrize("step", sorted(STEPS))
    def test_relax_step_in_place(self, step, cells):
        integrator, variant = self.STEPS[step]
        mus = {} if variant == Variant.BGK else TestStackedRelaxation.MUS
        params = make_params(epsilon=0.5, variant=variant, **mus)
        state = self.wave_state(cells)
        want = relax_step(state, 0.05, params, integrator).f
        block = state.f
        new = relax_step(state, 0.05, params, integrator, out=state.f)
        assert new.f is block
        assert np.array_equal(block, want)

    def test_transport_step_writes_into_out(self):
        grid = VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=8)
        f = np.random.default_rng(7).uniform(0.0, 1.0, (2, 5, grid.nnodes))
        state = KineticState(f=f, t=0.0, grid=grid, dx=0.25)
        out = np.full_like(f, np.nan)
        new = transport_step(state, 0.05, out=out)
        assert new.f is out
        assert np.array_equal(out, transport_step(state, 0.05).f)

    @pytest.mark.parametrize("cells", sorted(LATTICES))
    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    def test_transport_step_in_place(self, splitting, cells):
        """Lie transports once by dt per step, Strang twice by dt/2; in
        place, each call equals the allocating one, signs of zero
        included."""
        state = self.wave_state(cells)
        state.f[:, ::3] *= -1.0  # negative entries, and zero differences
        state.f[0, cells // 2] = 0.0
        dt = self.transport_dt(state)
        calls = 1 if splitting == "lie" else 2
        for _ in range(calls):
            want = transport_step(state, dt / calls).f
            block = state.f
            state = transport_step(state, dt / calls, out=state.f)
            assert state.f is block
            assert np.array_equal(block, want)
            assert np.array_equal(np.signbit(block), np.signbit(want))

    @pytest.mark.parametrize("chunk", [16, 1600, 16 * 4096],
                             ids=["node", "100-nodes", "cell"])
    def test_transport_step_in_place_in_runs_of_nodes(self, monkeypatch,
                                                      chunk):
        """A chunk smaller than one cell updates a run of nodes of every
        cell at a time: one node, 100 nodes (the v_x = 0 split falls
        inside a run), or a cell's 4096 nodes; in place, the step is the
        written-out donor-cell step bit for bit."""
        monkeypatch.setattr(solver, "_CHUNK_BYTES", chunk)
        state = self.wave_state(13)
        state.f[:, ::3] *= -1.0
        dt = self.transport_dt(state)
        want = reference_transport(state, dt).f
        new = transport_step(state, dt, out=state.f)
        assert np.array_equal(new.f, want)
        assert np.array_equal(np.signbit(new.f), np.signbit(want))

    @pytest.mark.parametrize("node", [0, 4, 8], ids=["v<0", "v=0", "v>0"])
    def test_nonfinite_entry_stays_in_its_stencil_in_place(self, node):
        """The stencil of TestSplitTransport's NaN, in place."""
        grid = VelocityGrid(dim=1, vmin=-4.5, vmax=4.5, points=9)
        f = np.ones((2, 7, grid.nnodes))
        f[1, 3, node] = np.nan
        state = KineticState(f=f, t=0.0, grid=grid, dx=0.25)
        new = transport_step(state, 0.05, out=state.f)
        assert new.f is state.f
        want = np.zeros(f.shape, dtype=bool)
        rightward = grid.axes[0][node] > 0.0
        want[1, [3, 4] if rightward else [2, 3], node] = True
        assert np.array_equal(np.isnan(new.f), want)
        assert np.isfinite(new.f[~want]).all()

    def test_a_view_of_the_state_block_is_its_block(self):
        """A new view of the block, with its data pointer, shape and
        strides, is the block: RK4 sums its stages apart from it."""
        params = make_params(epsilon=0.5)
        state = self.wave_state(2)
        want = relax_step(state, 0.05, params, "rk4").f
        new = relax_step(state, 0.05, params, "rk4", out=state.f[...])
        assert np.shares_memory(new.f, state.f)
        assert np.array_equal(state.f, want)

    def test_in_place_steps_form_no_block_sized_temporary(self):
        """On a (2, 32, 16^3) block, an in-place transport step and an
        in-place BGK EXP step each grow traced memory by less than a
        quarter of the block at their peak (0.20 and 0.15 here).  The
        EXP step is given its moments and samples its targets, so the
        moment reduction and the Newton matcher, whose transients do not
        depend on the step, stay out of the count."""
        state = self.wave_state(32)
        params = make_params(epsilon=0.5)
        mixture = MixtureState.from_distributions(state.f, 1.0, 2.0,
                                                  state.grid)
        for step in (lambda: transport_step(state, 0.002, out=state.f),
                     lambda: relax_step(state, 0.05, params, match=False,
                                        mixture=mixture, out=state.f)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - base < 0.25 * state.f.nbytes

    @pytest.mark.parametrize("bad", ["overlap", "shape", "strided", "float32"])
    def test_out_is_checked(self, bad):
        grid = VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=8)
        buffer = np.ones(2 * 3 * 8 + 8)  # the state and an overlapping block
        state = KineticState(f=buffer[:48].reshape(2, 3, 8), t=0.0, grid=grid,
                             dx=0.25)
        assert np.shares_memory(state.f, buffer)
        out = {"overlap": buffer[8:].reshape(2, 3, 8),
               "shape": np.empty((2, 2, 8)),
               "strided": np.empty((2, 3, 16))[..., ::2],
               "float32": np.empty(state.f.shape, dtype=np.float32)}[bad]
        for step in (lambda: relax_step(state, 0.05, make_params(), out=out),
                     lambda: transport_step(state, 0.05, out=out)):
            with pytest.raises(ValueError, match=r"^out must be a "
                               r"C-contiguous float \(2, 3, 8\) block apart "
                               r"from the state \(got "):
                step()
        assert np.all(buffer == 1.0)


class TestTransportStep:
    def grid1d(self):
        return VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=8)

    def state(self, grid, nx=16, dx=0.5):
        return KineticState(f=np.zeros((2, nx, grid.nnodes)), t=0.0,
                            grid=grid, dx=dx)

    def test_uniform_state_unchanged(self):
        grid = self.grid1d()
        state = self.state(grid)
        state.f1[:] = 0.7
        state.f2[:] = 0.3
        new = transport_step(state, 0.05)
        assert np.array_equal(new.f1, state.f1)
        assert np.array_equal(new.f2, state.f2)

    def test_single_node_bump_upwind_update(self):
        grid = self.grid1d()
        vx = node_coordinates(grid)[:, 0]
        node = int(np.argmax(vx))  # fastest rightward node
        v = vx[node]
        dx = 0.5
        dt = 0.5 * dx / v  # CFL exactly 0.5
        state = self.state(grid, nx=16, dx=dx)
        state.f1[8, node] = 1.0
        new = transport_step(state, dt)
        expected = np.zeros(16)
        expected[8] = 0.5
        expected[9] = 0.5
        assert np.array_equal(new.f1[:, node], expected)
        # center of mass advects by v dt / dx cells per step, mass exact
        cells = np.arange(16.0)
        assert np.sum(new.f1[:, node] * cells) - 8.0 == pytest.approx(
            v * dt / dx, abs=1e-14)
        assert np.sum(new.f1) == pytest.approx(1.0, abs=1e-15)

    def test_mass_conserved_per_step(self):
        grid = self.grid1d()
        rng = np.random.default_rng(31)
        state = self.state(grid, nx=32, dx=0.25)
        state.f1[:] = rng.uniform(0, 1, state.f1.shape)
        state.f2[:] = rng.uniform(0, 1, state.f2.shape)
        dt = 0.9 * 0.25 / 4.0
        mass1 = state.f1.sum()
        for _ in range(10):
            state = transport_step(state, dt)
        assert abs(state.f1.sum() - mass1) <= 1e-13 * mass1

    def test_matches_written_out_donor_cell_formula(self):
        grid = VelocityGrid(dim=2, vmin=-4.0, vmax=3.0, points=(9, 8))
        rng = np.random.default_rng(32)
        state = self.state(grid, nx=12, dx=0.25)
        state.f1[:] = rng.uniform(0, 1, state.f1.shape)
        state.f2[:] = rng.uniform(0, 2, state.f2.shape)
        dt = 0.9 * 0.25 / np.max(np.abs(node_coordinates(grid)[:, 0]))
        new = transport_step(state, dt)
        lam = dt / 0.25
        for f, got in ((state.f1, new.f1), (state.f2, new.f2)):
            want = np.empty_like(f)
            for i in range(12):
                for k, v in enumerate(node_coordinates(grid)[:, 0]):
                    left, right = f[i - 1, k], f[(i + 1) % 12, k]
                    want[i, k] = f[i, k] - lam * (max(v, 0.0) * (f[i, k] - left)
                                                  + min(v, 0.0)
                                                  * (right - f[i, k]))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_forms_no_block_sized_temporary(self):
        """The upwind difference is written into `out` and scaled there:
        a step on a (2, 32, 16^3) block grows traced memory by less than
        a quarter of the block at its peak."""
        grid = VelocityGrid(dim=3, vmin=-8.0, vmax=8.0, points=16)
        f = np.random.default_rng(33).uniform(0, 1, (2, 32, grid.nnodes))
        state = KineticState(f=f, t=0.0, grid=grid, dx=1.0 / 32)
        out = np.empty_like(f)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            transport_step(state, 0.002, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.25 * f.nbytes

    def test_cfl_violation_is_hard_error(self):
        grid = self.grid1d()
        state = self.state(grid, dx=0.1)
        with pytest.raises(CflError):
            transport_step(state, 1.0)

    def test_needs_a_cell_width(self):
        state = self.state(self.grid1d(), dx=None)
        with pytest.raises(ValueError, match="^transport requires a 1-D "
                           "state with cell width$"):
            transport_step(state, 0.05)


class TestRunScenario:
    def balanced_params(self, **kw):
        # nu_tot is species independent here, so the frozen-target update
        # cancels the exchange terms exactly
        return make_params(m1=1.0, m2=2.0, epsilon=1.0, beta1=1.0, beta2=1.0,
                           **kw)

    def scenario(self, grid, params, **kw):
        defaults = dict(
            params=params, grid=grid,
            species1=SpeciesInit(n=1.0, u=(0.2, 0.0, 0.0), T=1.0),
            species2=SpeciesInit(n=1.0, u=(-0.1, 0.05, 0.0), T=1.2),
            dt=0.05, t_end=2.0, output_every=1)
        defaults.update(kw)
        return Scenario(**defaults)

    def test_exp_run_holds_only_the_blocks_it_steps(self, ref_grid):
        """Once its scenario is built, a two-step homogeneous BGK EXP run
        on the 32^3 lattice grows traced memory by at most 6 doubles per
        node: the state is 2, its steps update it in place, no target
        block is formed, and the initial samples are not kept beside
        it."""
        scen = self.scenario(ref_grid, make_params(epsilon=0.5), t_end=0.1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_scenario(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 6 * ref_grid.nnodes * np.dtype(float).itemsize

    def test_1d_exp_run_peak(self):
        """A two-step 1-D BGK EXP run, 32 cells of a 16^3 lattice, its
        scenario built, grows traced memory by at most 2.75 state blocks
        at its peak: the state and the run's block for the next one are
        2, and transport forms no block-sized temporary."""
        grid = VelocityGrid(dim=3, vmin=-8.0, vmax=8.0, points=16)
        scen = self.scenario(grid, make_params(epsilon=0.5), dt=0.002,
                             t_end=0.004, cells=32, wave_amplitude=0.1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_scenario(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 2 * 32 * grid.nnodes * np.dtype(float).itemsize
        assert peak - base <= 2.75 * block

    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    def test_1d_exp_run_holds_one_state_block(self, mid_grid, splitting):
        """Transport and BGK EXP steps update the state in place: a
        two-step 1-D BGK EXP run, 32 cells of a 16^3 lattice, its
        scenario built, grows traced memory by at most 1.75 state
        blocks at its peak (1.51 here: the state, and one species'
        logarithm in the entropy; 2.54 with a second block for the next
        state)."""
        scen = self.scenario(mid_grid, make_params(epsilon=0.5), dt=0.002,
                             t_end=0.004, cells=32, wave_amplitude=0.1,
                             splitting=splitting)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_scenario(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 2 * 32 * mid_grid.nnodes * np.dtype(float).itemsize
        assert peak - base <= 1.75 * block

    def test_es_exp_run_updates_the_state_in_place(self, ref_grid):
        """A two-step homogeneous es-full-a EXP run on the 32^3 lattice,
        its scenario built, grows traced memory by at most 4 state
        blocks at its peak (3.68 here: the state, the block of its four
        Gaussian rows and the transients of sampling; 4.69 with a second
        block for the next state)."""
        scen = self.scenario(ref_grid, make_params(
            epsilon=0.5, variant=Variant.ES_FULL_A), t_end=0.1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_scenario(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 2 * ref_grid.nnodes * np.dtype(float).itemsize
        assert peak - base <= 4 * block

    @pytest.mark.parametrize("cells", [0, 32], ids=["homogeneous", "1d"])
    def test_es_self_exp_run_holds_only_its_gaussian_rows(
            self, ref_grid, mid_grid, cells):
        """An es-self EXP step samples its two Gaussian self rows into a
        block of their own and adds its Maxwellian cross terms a bounded
        run of rows at a time: a two-step run, homogeneous on the 32^3
        lattice or 1-D with 32 cells of a 16^3 lattice, its scenario
        built, grows traced memory by at most 3 state blocks at its peak
        (about 2.4 and 2.7; 3.4 and 3.7 with a four-row target block)."""
        grid = mid_grid if cells else ref_grid
        dt = 0.002 if cells else 0.05
        scen = self.scenario(grid, make_params(
            epsilon=0.5, variant=Variant.ES_SELF_ONLY, mu1=0.5, mu2=-0.3),
            dt=dt, t_end=2 * dt, cells=cells,
            wave_amplitude=0.1 if cells else 0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_scenario(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 2 * max(1, cells) * grid.nnodes * np.dtype(float).itemsize
        assert peak - base <= 3 * block

    # (dim, points per axis, vmax, cells, dt) by id suffix: the reference
    # lattices, coarse ones whose per-member tables outweigh their
    # blocks (each above its integrator's block count alone), and
    # one-cell ones whose fixed overhead outweighs both
    LATTICES = {"": (3, 32, 8.0, 0, 0.05), "-1d": (3, 16, 8.0, 32, 0.002),
                "-1d-24x256": (1, 24, 6.0, 256, 0.0005),
                "-1d-8x256": (1, 8, 6.0, 256, 0.0005),
                "-2d-8x64": (2, 8, 6.0, 64, 0.002),
                "-2d-16x64": (2, 16, 6.0, 64, 0.002),
                "-3d-8x16": (3, 8, 6.0, 16, 0.002),
                **{f"-{dim}d-{points}x1": (dim, points, 6.0, 0, 0.05)
                   for dim in (1, 2, 3) for points in (8, 12)}}

    @pytest.mark.parametrize("integrator, variant, lattice", [
        pytest.param(integrator, variant, lattice, id=f"{integrator}-"
                     f"{variant.value}{lattice}")
        for lattice in LATTICES for integrator in ("exp", "rk4")
        for variant in (Variant.BGK, Variant.ES_FULL_A)])
    def test_run_peak_is_within_the_admitted_blocks(self, integrator,
                                                    variant, lattice):
        """The physical-memory admission counts 5 state blocks for an EXP
        run and 7 for RK4, a + b sum(points) doubles for each of the 4
        target members of a cell (`solver._MEMBER_DOUBLES`) and a run's
        fixed bytes (`solver._RUN_BYTES`): a two-step run, its scenario
        built, grows traced memory by no more at its peak, homogeneous
        on the 32^3 lattice, 1-D with 32 cells of a 16^3 lattice, 1-D on
        coarse 1-, 2- and 3-D lattices, and homogeneous on 8- and
        12-point 1-, 2- and 3-D lattices."""
        dim, points, vmax, cells, dt = self.LATTICES[lattice]
        grid = VelocityGrid(dim, -vmax, vmax, points)
        steps = dict(dt=dt, t_end=2 * dt, cells=cells,
                     wave_amplitude=0.1 if cells else 0.0)
        if dim < 3:
            steps.update(species1=SpeciesInit(n=1.0, u=(0.2, 0.0, 0.0),
                                              T=1.0),
                         species2=SpeciesInit(n=1.0, u=(-0.1, 0.05, 0.0)[
                             :dim] + (0.0,) * (3 - dim), T=1.2))
        scen = self.scenario(grid, make_params(epsilon=0.5, variant=variant),
                             integrator=integrator, **steps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_scenario(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        members = 4 * max(1, cells)
        block = 2 * max(1, cells) * grid.nnodes * np.dtype(float).itemsize
        a, b = solver._MEMBER_DOUBLES
        tables = members * (a + b * sum(grid.points)) * 8
        assert peak - base <= (solver._PEAK_BLOCKS[integrator] * block
                               + tables + solver._RUN_BYTES)

    @pytest.mark.parametrize("variant", [Variant.BGK, Variant.ES_FULL_A],
                             ids=lambda v: v.value)
    def test_rk4_run_holds_the_stage_derivative_in_the_target_block(
            self, ref_grid, variant):
        """Each stage derivative is formed in the target block's self
        rows, so the scratch is the target and stage-input blocks: a
        two-step homogeneous RK4 run on the 32^3 lattice, its scenario
        built, grows traced memory by at most 6 state blocks (about 5.2
        for BGK and 5.7 for es-full-a; a separate derivative block
        makes them 6.2 and 6.6)."""
        scen = self.scenario(ref_grid, make_params(epsilon=0.5,
                                                   variant=variant),
                             t_end=0.1, integrator="rk4")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_scenario(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 2 * ref_grid.nnodes * np.dtype(float).itemsize
        assert peak - base <= 6 * block

    def test_record_count(self, mid_grid):
        scen = self.scenario(mid_grid, self.balanced_params(),
                             dt=0.1, t_end=1.0)
        diag = run_scenario(scen)
        assert len(diag.records) == 11

    def test_conservation_with_matching(self, mid_grid):
        scen = self.scenario(mid_grid, self.balanced_params(), t_end=3.0)
        diag = run_scenario(scen)
        r0 = diag.records[0]
        pscale = np.linalg.norm(r0.momentum)
        for r in diag.records[1:]:
            assert abs(r.mass1 - r0.mass1) <= 1e-10 * r0.mass1
            assert abs(r.mass2 - r0.mass2) <= 1e-10 * r0.mass2
            assert np.max(np.abs(r.momentum - r0.momentum)) <= 1e-10 * pscale
            assert abs(r.energy - r0.energy) <= 1e-10 * r0.energy

    def test_conservation_without_matching(self, ref_grid):
        # quadrature-level conservation needs the reference resolution;
        # coarser grids alias the heavy species' narrow thermal width
        scen = self.scenario(ref_grid, self.balanced_params(), t_end=1.0,
                             moment_matching=False)
        diag = run_scenario(scen)
        r0 = diag.records[0]
        rN = diag.records[-1]
        assert abs(rN.mass1 - r0.mass1) <= 1e-6 * r0.mass1
        assert np.max(np.abs(rN.momentum - r0.momentum)) <= \
            1e-6 * np.linalg.norm(r0.momentum)
        assert abs(rN.energy - r0.energy) <= 1e-6 * r0.energy

    def test_h_nonincreasing(self, mid_grid):
        scen = self.scenario(mid_grid, self.balanced_params(), t_end=2.0)
        diag = run_scenario(scen)
        h = np.array([r.h for r in diag.records])
        assert np.all(np.diff(h) <= 1e-9)

    def test_velocity_and_temperature_equilibrate(self, mid_grid):
        params = self.balanced_params(nu12=2.0)
        rates = chapman.analytic_rates(2.0, params.mixing.delta,
                                       params.mixing.alpha, 1.0, 1.0,
                                       1.0, 2.0)
        t_end = 20.0 / min(rates.lambda_u, rates.lambda_T)
        scen = self.scenario(mid_grid, params, dt=0.05, t_end=t_end,
                             output_every=20)
        diag = run_scenario(scen)
        assert diag.velocity_gap()[-1] < 1e-8
        assert diag.temperature_gap()[-1] < 1e-8

    def test_es_full_b_conserves_and_decays_h(self, mid_grid):
        params = self.balanced_params(variant=Variant.ES_FULL_B,
                                      mu1=0.4, mu2=-0.2)
        scen = self.scenario(mid_grid, params, t_end=1.5)
        diag = run_scenario(scen)
        r0, rN = diag.records[0], diag.records[-1]
        assert abs(rN.energy - r0.energy) <= 1e-10 * r0.energy
        h = np.array([r.h for r in diag.records])
        assert np.all(np.diff(h) <= 1e-9)

    def test_es_full_a_conserves_at_equal_densities(self, mid_grid):
        # variant A's cross tensors trace to the scalar cross
        # temperatures at any densities (each pressure tensor is divided
        # by its own density); TestUnbalancedConservation covers n1 != n2
        params = self.balanced_params(variant=Variant.ES_FULL_A,
                                      mu1=0.3, mu2=0.3, mu12=0.2, mu21=0.2)
        scen = self.scenario(mid_grid, params, t_end=1.5)
        diag = run_scenario(scen)
        r0, rN = diag.records[0], diag.records[-1]
        assert abs(rN.energy - r0.energy) <= 1e-10 * r0.energy
        assert np.max(np.abs(rN.momentum - r0.momentum)) <= \
            1e-10 * np.linalg.norm(r0.momentum)

    def test_single_species_shear_decay(self):
        grid = VelocityGrid(3, -8, 8, 12)
        params = make_params(variant=Variant.ES_SELF_ONLY, mu1=-0.5,
                             delta=0.5, alpha=0.5, gamma=0.0)
        scen = Scenario(
            params=params, grid=grid,
            species1=SpeciesInit(n=1.0, u=(0, 0, 0), T=1.0,
                                 tensor=np.diag([1.2, 1.0, 0.8])),
            species2=None, dt=0.05, t_end=12.0, output_every=1,
            integrator="rk4")
        diag = run_scenario(scen)
        rate = chapman.fit_decay_rate(diag.times, diag.anisotropy(1))
        assert rate == pytest.approx(1.5, rel=2e-3)
        # species 2 stays empty
        assert all(r.mass2 == 0.0 for r in diag.records)

    def test_wave_run_conserves_mass(self):
        grid = VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=16)
        params = self.balanced_params()
        scen = Scenario(
            params=params, grid=grid,
            species1=SpeciesInit(n=1.0, u=(0.0,), T=1.0),
            species2=SpeciesInit(n=1.0, u=(0.0,), T=1.2),
            dt=0.01, t_end=0.2, output_every=4,
            cells=16, length=1.0, wave_amplitude=0.2)
        diag = run_scenario(scen)
        r0, rN = diag.records[0], diag.records[-1]
        assert abs(rN.mass1 - r0.mass1) <= 1e-12 * r0.mass1
        assert abs(rN.mass2 - r0.mass2) <= 1e-12 * r0.mass2

    @pytest.mark.parametrize("cells", [0, 4], ids=["homogeneous", "1d"])
    @pytest.mark.parametrize("integrator", ["exp", "rk4"])
    def test_both_species_empty_gives_zero_records(self, tmp_path,
                                                   integrator, cells):
        grid = VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=16)
        scen = Scenario(
            params=self.balanced_params(), grid=grid, species1=None,
            species2=None, dt=0.01, t_end=0.05, integrator=integrator,
            cells=cells, wave_amplitude=0.2 if cells else 0.0)
        path = tmp_path / "empty.csv"
        write_diagnostics_csv(run_scenario(scen), str(path))
        rows = [line.split(",")[1:]
                for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 6
        assert all(float(x) == 0.0 for row in rows for x in row)

    def test_strang_splitting_runs(self):
        grid = VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=16)
        scen = Scenario(
            params=self.balanced_params(), grid=grid,
            species1=SpeciesInit(n=1.0, u=(0.0,), T=1.0),
            species2=SpeciesInit(n=1.0, u=(0.0,), T=1.2),
            dt=0.01, t_end=0.05, output_every=1,
            cells=8, length=1.0, splitting="strang", wave_amplitude=0.1)
        diag = run_scenario(scen)
        assert len(diag.records) == 6
        assert abs(diag.records[-1].mass1 - diag.records[0].mass1) <= 1e-12

    def wave_at_cfl(self, splitting, dt):
        """A Strang or Lie wave run at dt, on a lattice whose full-step CFL
        number is 30 dt."""
        grid = VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=16)
        return Scenario(
            params=self.balanced_params(), grid=grid,
            species1=SpeciesInit(n=1.0, u=(0.0,), T=1.0),
            species2=SpeciesInit(n=1.0, u=(0.0,), T=1.2),
            dt=dt, t_end=0.16, cells=8, length=1.0, splitting=splitting,
            wave_amplitude=0.1)

    def test_strang_cfl_checked_per_half_step(self):
        # full-step CFL 1.2, so each half-step transport is at 0.6
        diag = run_scenario(self.wave_at_cfl("strang", 0.04))
        r0, rN = diag.records[0], diag.records[-1]
        assert len(diag.records) == 5
        assert abs(rN.mass1 - r0.mass1) <= 1e-13 * r0.mass1
        assert abs(rN.mass2 - r0.mass2) <= 1e-13 * r0.mass2

    @pytest.mark.parametrize("splitting, dt", [("lie", 0.04),
                                               ("strang", 0.08)])
    def test_transport_cfl_above_one_rejected(self, splitting, dt):
        with pytest.raises(CflError, match="CFL 1.200 exceeds 1"):
            self.wave_at_cfl(splitting, dt)

    def test_h_nonincreasing_at_large_steps(self, mid_grid):
        # the frozen-target update is a convex combination for any dt
        scen = self.scenario(mid_grid, self.balanced_params(),
                             species1=SpeciesInit(n=1.0, u=(0.4, 0, 0),
                                                  T=1.0),
                             species2=SpeciesInit(n=1.0, u=(-0.4, 0.1, 0),
                                                  T=1.3),
                             dt=2.5, t_end=25.0)
        diag = run_scenario(scen)
        h = np.array([r.h for r in diag.records])
        assert np.all(np.diff(h) <= 1e-9)

    def test_rk4_negativity_flagged_not_fatal(self, mid_grid):
        scen = self.scenario(mid_grid, self.balanced_params(),
                             species1=SpeciesInit(n=1.0, u=(1.5, 0, 0),
                                                  T=0.5),
                             species2=SpeciesInit(n=1.0, u=(-1.5, 0, 0),
                                                  T=0.5),
                             dt=0.9, t_end=4.5, integrator="rk4")
        diag = run_scenario(scen)
        assert any(r.negative for r in diag.records)

    def test_unknown_integrator_rejected(self, small_grid):
        with pytest.raises(ValueError, match=r"^integrator must be 'exp' or "
                           r"'rk4' \(got 'euler'\)$"):
            self.scenario(small_grid, self.balanced_params(),
                          integrator="euler")

    def test_cfl_checked_up_front(self):
        grid = VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=16)
        with pytest.raises(CflError):
            Scenario(
                params=self.balanced_params(), grid=grid,
                species1=SpeciesInit(n=1.0, u=(0.0,), T=1.0),
                species2=SpeciesInit(n=1.0, u=(0.0,), T=1.0),
                dt=0.5, t_end=1.0, cells=64, length=1.0)

    def test_nonpositive_wave_density_rejected(self):
        grid = VelocityGrid(dim=1, vmin=-4.0, vmax=4.0, points=16)
        with pytest.raises(ValueError, match="wave_amplitude"):
            Scenario(
                params=self.balanced_params(), grid=grid,
                species1=SpeciesInit(n=1.0, u=(0.0,), T=1.0),
                species2=SpeciesInit(n=1.0, u=(0.0,), T=1.0),
                dt=0.01, t_end=0.05, cells=8, length=1.0,
                wave_amplitude=1.5)

    def test_velocity_beyond_lattice_rejected(self):
        grid = VelocityGrid(1, -8.0, 8.0, 16)
        with pytest.raises(ValueError, match="beyond the 1-D lattice"):
            self.scenario(grid, self.balanced_params(), t_end=0.1,
                          species2=SpeciesInit(n=1.0, u=(0.0, 0.5, 0.0)))
        # zero trailing components are accepted
        scen = self.scenario(grid, self.balanced_params(), t_end=0.1,
                             species2=SpeciesInit(n=1.0, u=(-0.1, 0.0, 0.0)))
        assert len(run_scenario(scen).records) == 3

    def test_zero_density_species_is_absent(self, small_grid):
        scen = self.scenario(small_grid, self.balanced_params(),
                             species2=SpeciesInit(n=0.0, T=-1.0))
        assert scen.species2 is None
        assert replace(scen, dt=0.1).species2 is None

    def test_inadmissible_parameters_rejected(self, small_grid):
        with pytest.raises(ValueError, match="inadmissible"):
            self.scenario(small_grid, make_params(gamma=10.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("field", ["dt", "t_end"])
    def test_time_fields_must_be_finite_and_positive(self, small_grid,
                                                     field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be finite and positive"):
            self.scenario(small_grid, self.balanced_params(),
                          **{field: value})

    def test_step_count_must_be_finite(self, small_grid):
        # int(round(t_end / dt)) would overflow at the start of the run
        with pytest.raises(ValueError, match=r"^t_end / dt must be a finite "
                           r"number of steps \(got inf\)$"):
            self.scenario(small_grid, self.balanced_params(), dt=1e-10,
                          t_end=1e300)

    @pytest.mark.parametrize("field", ["cells", "output_every", "wave_mode"])
    def test_count_fields_must_be_integers(self, small_grid, field):
        with pytest.raises(ValueError,
                           match=rf"^{field} must be an integer \(got 1.5\)$"):
            self.scenario(small_grid, self.balanced_params(),
                          **{field: 1.5})
        # an integral float is a count
        assert getattr(self.scenario(small_grid, self.balanced_params(),
                                     **{field: 2.0}), field) == 2

    def test_velocity_shorter_than_lattice_rejected(self, small_grid):
        with pytest.raises(ValueError, match=r"^species1.u must have at "
                           r"least 3 components \(got \(0.1,\)\)$"):
            self.scenario(small_grid, self.balanced_params(),
                          species1=SpeciesInit(n=1.0, u=(0.1,)))


class TestSharedReduction:
    """A homogeneous run reduces each recorded state once and hands the
    result to `diagnose` and to the next `relax_step`; the diagnostics
    equal those of a loop that shares nothing, byte for byte."""

    GRID = VelocityGrid(dim=2, vmin=-7.0, vmax=7.0, points=20)

    def scenario(self, integrator, every, cells, splitting="lie"):
        return Scenario(
            params=make_params(epsilon=0.5), grid=self.GRID,
            species1=SpeciesInit(n=1.0, u=(0.4, 0.1, 0.0), T=1.0),
            species2=SpeciesInit(n=0.7, u=(-0.3, 0.0, 0.0), T=1.3),
            dt=0.02, t_end=0.14, output_every=every, integrator=integrator,
            cells=cells, splitting=splitting,
            wave_amplitude=0.2 if cells else 0.0)

    @staticmethod
    def unshared_run(scen):
        """run_scenario written out, every call reducing its own state."""
        grid, params, dt = scen.grid, scen.params, scen.dt
        dx = scen.length / scen.cells if scen.cells else None
        profile = [1.0]
        if dx is not None:
            profile = [1.0 + scen.wave_amplitude * math.sin(
                2.0 * math.pi * scen.wave_mode * x / scen.length)
                for x in (np.arange(scen.cells) + 0.5) * dx]
        species = ((scen.species1, params.species1),
                   (scen.species2, params.species2))
        samples = np.array([solver._initial_sample(sp, spec.m, grid, True)
                            for sp, spec in species])
        state = KineticState(f=samples[:, None] * np.array(profile)[:, None],
                             t=0.0, grid=grid, dx=dx)
        diag = Diagnostics(grid.dim, scen.records)
        diag.append(diagnose(state, params))
        nsteps = int(round(scen.t_end / dt))
        strang = scen.splitting == "strang"
        for step in range(1, nsteps + 1):
            if dx is not None:
                state = transport_step(state, dt / 2 if strang else dt)
            state = relax_step(state, dt, params, scen.integrator)
            if dx is not None and strang:
                state = transport_step(state, dt / 2)
            state.t = step * dt
            if step % scen.output_every == 0 or step == nsteps:
                diag.append(diagnose(state, params))
        return diag

    @pytest.mark.parametrize("cells, splitting", [
        (0, "lie"), (4, "lie"), (4, "strang")],
        ids=["homogeneous", "wave", "wave-strang"])
    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("integrator", ["rk4", "exp"])
    def test_diagnostics_equal_unshared_loop(self, tmp_path, integrator,
                                             every, cells, splitting):
        scen = self.scenario(integrator, every, cells, splitting)
        shared, unshared = tmp_path / "shared.csv", tmp_path / "unshared.csv"
        write_diagnostics_csv(run_scenario(scen), str(shared))
        write_diagnostics_csv(self.unshared_run(scen), str(unshared))
        assert len(shared.read_text().splitlines()) == 2 + 7 // every + (
            7 % every > 0)
        assert shared.read_bytes() == unshared.read_bytes()

    def test_homogeneous_exp_run_reduces_each_state_once(self, monkeypatch):
        calls = []
        real = gridmod.moments

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(gridmod, "moments", spy)
        diag = run_scenario(self.scenario("exp", 1, 0))
        steps = len(diag.records) - 1
        assert steps == 7
        assert len(calls) == steps + 1
        assert all(shape == (2, self.GRID.nnodes) for shape in calls)

    def test_given_mixture_needs_one_cell(self):
        f = maxwellian_on_grid(1.0, (0.0, 0.0), 1.0, 1.0, self.GRID)
        state = KineticState(f=np.array([[f, f], [f, f]]), t=0.0,
                             grid=self.GRID)
        st = MixtureState.from_distributions(state.f, 1.0, 2.0, self.GRID)
        with pytest.raises(ValueError, match="one-cell state"):
            diagnose(state, make_params(), mixture=st)


class TestUnbalancedConservation:
    """Total momentum and energy over an unbalanced bundle (eps < 1,
    n1 != n2, opposed drifts) on 1-, 2- and 3-D lattices."""

    GRIDS = {1: 32, 2: 24, 3: 16}  # points per axis on [-8, 8]^d
    # sheared, anisotropic starting tensor of species 1 (trace 3)
    SHEAR = np.array([[1.2, 0.2, 0.1], [0.2, 0.9, -0.15], [0.1, -0.15, 0.9]])

    def max_drifts(self, dim, integrator, sheared=False, **params):
        grid = VelocityGrid(dim, -8.0, 8.0, self.GRIDS[dim])
        u1 = (0.8,) + (0.0,) * (dim - 1)
        u2 = (-0.4,) + (0.0,) * (dim - 1)
        tensor = self.SHEAR[:dim, :dim] if sheared else None
        scen = Scenario(
            params=make_params(epsilon=0.5, **params), grid=grid,
            species1=SpeciesInit(n=1.0, u=u1, T=1.0, tensor=tensor),
            species2=SpeciesInit(n=0.7, u=u2, T=1.2),
            dt=0.05, t_end=0.5, integrator=integrator)
        recs = run_scenario(scen).records
        assert len(recs) == 11
        r0 = recs[0]
        # sum_k m_k n_k (|u_k| + thermal speed): the total momentum
        # itself nearly cancels for opposed drifts
        pscale = 1.0 * 1.0 * (0.8 + 1.0) + 2.0 * 0.7 * (0.4 + math.sqrt(0.6))
        momentum = max(np.linalg.norm(r.momentum - r0.momentum)
                       for r in recs) / pscale
        energy = max(abs(r.energy - r0.energy) for r in recs) / r0.energy
        return momentum, energy

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rk4_conserves(self, dim):
        momentum, energy = self.max_drifts(dim, "rk4")
        assert momentum <= 1e-12
        assert energy <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("sheared, params", [
        (False, dict(beta1=0.6, beta2=1.7)),
        (True, dict(variant=Variant.ES_SELF_ONLY, mu1=-0.4, mu2=0.6)),
        (True, dict(variant=Variant.ES_FULL_A, mu1=-0.4, mu2=0.6, mu12=0.5,
                    mu21=-0.3)),
        (True, dict(variant=Variant.ES_FULL_B, mu1=-0.4, mu2=0.6))],
        ids=["beta", "es-self", "es-full-a", "es-full-b"])
    def test_rk4_conserves_other_bundles(self, sheared, params, dim):
        momentum, energy = self.max_drifts(dim, "rk4", sheared, **params)
        assert momentum <= 1e-12
        assert energy <= 1e-12

    @pytest.mark.xfail(strict=True, reason="frozen-target EXP drifts "
                       "momentum when the species' total frequencies differ")
    def test_exp_conserves(self):
        for dim in (1, 2, 3):
            momentum, energy = self.max_drifts(dim, "exp")
            assert momentum <= 1e-12
            assert energy <= 1e-12


class TestDiagnostics:
    def test_negativity_flag(self, small_grid):
        f1 = maxwellian_on_grid(1.0, (0, 0, 0), 1.0, 1.0, small_grid)
        f2 = f1.copy()
        f2[0] = -1e-6
        rec = diagnose(one_cell(f1, f2, small_grid), make_params())
        assert rec.negative

    def test_nonfinite_values_flagged(self, small_grid):
        f1 = maxwellian_on_grid(1.0, (0, 0, 0), 1.0, 1.0, small_grid)
        for value in (np.nan, np.inf, -np.inf):
            f2 = f1.copy()
            f2[0] = value
            rec = diagnose(one_cell(f1, f2, small_grid), make_params())
            assert rec.negative, value

    def test_exact_zeros_not_flagged(self, small_grid):
        f1 = maxwellian_on_grid(1.0, (0, 0, 0), 1.0, 1.0, small_grid)
        f2 = f1.copy()
        f2[::2] = 0.0
        rec = diagnose(one_cell(f1, f2, small_grid), make_params())
        assert f2.min() == 0.0 and not rec.negative

    def test_anisotropy_of_isotropic_state_is_small(self, ref_grid):
        f1 = maxwellian_on_grid(1.0, (0.2, 0, 0), 1.0, 1.0, ref_grid)
        rec = diagnose(one_cell(f1, f1, ref_grid), make_params(m2=1.0))
        assert rec.aniso1 < 1e-10

    @pytest.mark.parametrize("species", [0, 3])
    def test_anisotropy_of_unknown_species_rejected(self, small_grid,
                                                    species):
        f1 = maxwellian_on_grid(1.0, (0, 0, 0), 1.0, 1.0, small_grid)
        diag = Diagnostics(3, 1)
        diag.append(diagnose(one_cell(f1, f1, small_grid), make_params()))
        assert diag.anisotropy(2).shape == (1,)
        with pytest.raises(ValueError, match=(
                rf"^species must be 1 or 2 \(got {species}\)$")):
            diag.anisotropy(species)


def bits(value):
    """The shape and float64 bytes of a scalar or array: equal exactly
    when every entry is the same bit for bit, NaNs included."""
    array = np.asarray(value, dtype=float)
    return array.shape, array.tobytes()


class TestDiagnosticsTable:
    """Records as rows of one float64 table: each field of `diagnose`'s
    row, and of the rows read back through `records` and the series,
    bit for bit the reduction's own expression."""

    TENSOR = np.array([[1.1, 0.2, -0.1], [0.2, 0.9, 0.15],
                       [-0.1, 0.15, 1.3]])

    def states(self, dim):
        """States on a dim-D lattice, t = 0.1 apart: both species
        (species 2 sheared), each species absent, a negative entry, a
        negative and an infinite entry, a NaN entry, a two-cell state
        and both species absent."""
        grid = VelocityGrid(dim, -6.0, 6.0, {1: 32, 2: 16, 3: 10}[dim])
        u = np.array([0.3, -0.1, 0.2][:dim])
        f1 = maxwellian_on_grid(1.0, u, 1.1, 1.0, grid)
        f2 = gaussian_on_grid(0.7, -u, self.TENSOR[:dim, :dim], 2.0, grid)
        zero = np.zeros_like(f1)
        negative, infinite, nan = f2.copy(), f2.copy(), f2.copy()
        negative[3] = infinite[3] = -1e-3
        infinite[5], nan[5] = np.inf, np.nan
        blocks = [np.array([a, b])[:, None] for a, b in (
            (f1, f2), (f1, zero), (zero, f2), (f1, negative),
            (f1, infinite), (nan, f2))]
        blocks.append(np.array([[f1, 0.5 * f1], [f2, 1.5 * f2]]))
        blocks.append(np.array([zero, zero])[:, None])
        return [KineticState(f=f, t=0.1 * i, grid=grid)
                for i, f in enumerate(blocks)]

    def records(self, dim):
        return [diagnose(state, make_params()) for state in self.states(dim)]

    @staticmethod
    def reduced(state, params):
        """Each species' (mass, moment set of its cell average or None)."""
        mix = MixtureState.from_distributions(
            state.f.mean(axis=1, keepdims=True), params.species1.m,
            params.species2.m, state.grid)
        return [(m, None if mom is None else mom.rows(0))
                for m, mom in ((mix.m1, mix.mom1), (mix.m2, mix.mom2))]

    def diagnostics(self, dim, recs):
        diag = Diagnostics(dim, len(recs))
        for rec in recs:
            diag.append(rec)
        return diag

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_records_read_back_bitwise(self, dim):
        params, states = make_params(), self.states(dim)
        recs = [diagnose(state, params) for state in states]
        diag = self.diagnostics(dim, recs)
        rows = diag.records
        assert len(rows) == len(recs)
        for state, rec, row in zip(states, recs, rows):
            species = self.reduced(state, params)
            present = [(m, mom) for m, mom in species if mom is not None]
            want = dict(
                t=state.t,
                mass1=0.0 if species[0][1] is None else species[0][1].n,
                mass2=0.0 if species[1][1] is None else species[1][1].n,
                momentum=sum((m * mom.n * mom.u for m, mom in present),
                             np.zeros(dim)),
                energy=float(sum(0.5 * m * mom.n * float(mom.u @ mom.u)
                                 + 0.5 * float(np.trace(mom.P))
                                 for m, mom in present)),
                h=h_functional(state.f, state.grid) / state.f.shape[1])
            for k, (m, mom) in enumerate(species, start=1):
                want[f"aniso{k}"] = 0.0 if mom is None else float(
                    np.linalg.norm(mom.P - mom.n * mom.T * np.eye(dim)))
            for got in (rec, row):
                for field, value in want.items():
                    assert bits(getattr(got, field)) == bits(value), field
                assert isinstance(got.t, float)
                for k, (m, mom) in enumerate(species, start=1):
                    read = getattr(got, f"mom{k}")
                    assert (read is None) == (mom is None)
                    if mom is None:
                        continue
                    for name in ("n", "u", "T", "P", "Qtilde"):
                        assert bits(getattr(read, name)) == bits(
                            getattr(mom, name)), (k, name)
                    assert bits(read.P.T) == bits(read.P)
        assert [r.mom2 is None for r in recs[:3]] == [False, True, False]
        assert recs[2].mom1 is None and recs[-1].mom1 is recs[-1].mom2 is None
        for got in (recs, rows):
            assert [r.negative for r in got] == [False] * 3 + [True] * 3 + [
                False] * 2
        # both species absent: every column but t is +0.0
        assert diagnostics_header(dim)[0] == "t"
        width = diag.table.shape[1]
        assert bits(diag.table[-1, 1:]) == bits(np.zeros(width - 1))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_series_equal_the_per_record_expressions(self, dim):
        recs = self.records(dim)
        diag = self.diagnostics(dim, recs)
        both = [r.mom1 is not None and r.mom2 is not None for r in recs]
        assert bits(diag.times) == bits([r.t for r in recs])
        assert bits(diag.velocity_gap()) == bits([
            float(np.linalg.norm(r.mom1.u - r.mom2.u)) if ok else np.nan
            for r, ok in zip(recs, both)])
        assert bits(diag.temperature_gap()) == bits([
            abs(r.mom1.T - r.mom2.T) if ok else np.nan
            for r, ok in zip(recs, both)])
        for k in (1, 2):
            assert bits(diag.anisotropy(k)) == bits([
                getattr(r, f"aniso{k}") for r in recs])

    def test_table_is_the_csv_layout_and_keeps_its_rows(self):
        states = self.states(2)
        recs = [diagnose(state, make_params()) for state in states]
        once, often = (self.diagnostics(2, recs * n) for n in (1, 5))
        header = diagnostics_header(2)
        assert once.table.shape == (len(recs), len(header))
        assert not once.table.flags.writeable
        P2 = self.reduced(states[0], make_params())[1][1].P
        assert once.table[0, header.index("P2xy")] == P2[0, 1]
        assert once.table[1, header.index("P2xy")] == 0.0  # absent
        assert bits(often.table) == bits(np.tile(once.table, (5, 1)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_finished_run_holds_under_a_kilobyte_a_record(self, dim,
                                                          monkeypatch):
        """From 100 to 500 records, the Diagnostics a finished homogeneous
        run returns grows traced memory by at most 0.75 kB a record (its
        table's rows: 152, 224 and 312 bytes in dims 1, 2 and 3).  The
        steps leave the state as it is, as only the records count."""
        monkeypatch.setattr(solver, "relax_step",
                            lambda state, *args, **kwargs: state)
        grid = VelocityGrid(dim, -6.0, 6.0, 12)
        u2 = (-0.1, 0.05, 0.0)[:dim] + (0.0,) * (3 - dim)

        def held(records):
            scen = Scenario(
                params=make_params(), grid=grid,
                species1=SpeciesInit(n=1.0, u=(0.2, 0.0, 0.0), T=1.0),
                species2=SpeciesInit(n=1.0, u=u2, T=1.2), dt=0.001,
                t_end=0.001 * (records - 1))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                diag = run_scenario(scen)
                size = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert len(diag.records) == records
            return size

        held(10)  # the lattice's caches
        assert (held(500) - held(100)) / 400 <= 750
