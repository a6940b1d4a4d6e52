import math
from dataclasses import replace

import numpy as np
import pytest

from bgkmix import chapman
from bgkmix import grid as gridmod
from bgkmix import solver
from bgkmix.cli import write_diagnostics_csv
from bgkmix.errors import CflError
from bgkmix.grid import (VelocityGrid, gaussian_on_grid, match_moments,
                         maxwellian_on_grid)
from bgkmix.params import (EsParams, InteractionSpec, MixingParams,
                           ModelParams, SpeciesSpec, Variant,
                           derive_frequencies)
from bgkmix.solver import (Diagnostics, KineticState, Scenario, SpeciesInit,
                           diagnose, relax_step, run_scenario, transport_step)
from bgkmix.targets import MixtureState, build_targets


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
        gstar1 = (freq.nu11 * n1 * ts.g1 + freq.nu12 * n2 * ts.g12) / nu1
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
        block = build_targets(st, params, grid, match).block
        nu_s, nu_c = nu_self * n, nu_cross * n[::-1]
        return nu_s * (block[:2] - g) + nu_c * (block[2:] - g)

    k1 = rhs(f)
    k2 = rhs(f + 0.5 * dt * k1)
    k3 = rhs(f + 0.5 * dt * k2)
    k4 = rhs(f + dt * k3)
    return f + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    @pytest.mark.parametrize("integrator, builds", [("rk4", 4), ("exp", 1)])
    def test_stages_share_one_target_block(self, monkeypatch, mid_grid,
                                           integrator, builds):
        outs = []
        real = solver.build_targets

        def spy(*args, out=None, **kwargs):
            outs.append(out)
            return real(*args, out=out, **kwargs)

        monkeypatch.setattr(solver, "build_targets", spy)
        relax_step(nonequilibrium_state(mid_grid), 0.05, make_params(),
                   integrator)
        assert len(outs) == builds
        if integrator == "rk4":
            assert outs[0] is not None
            assert all(out is outs[0] for out in outs)
        else:
            assert outs == [None]


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
        node = int(np.argmax(grid.nodes[:, 0]))  # fastest rightward node
        v = grid.nodes[node, 0]
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
        dt = 0.9 * 0.25 / np.max(np.abs(grid.nodes[:, 0]))
        new = transport_step(state, dt)
        lam = dt / 0.25
        for f, got in ((state.f1, new.f1), (state.f2, new.f2)):
            want = np.empty_like(f)
            for i in range(12):
                for k, v in enumerate(grid.nodes[:, 0]):
                    left, right = f[i - 1, k], f[(i + 1) % 12, k]
                    want[i, k] = f[i, k] - lam * (max(v, 0.0) * (f[i, k] - left)
                                                  + min(v, 0.0)
                                                  * (right - f[i, k]))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_cfl_violation_is_hard_error(self):
        grid = self.grid1d()
        state = self.state(grid, dx=0.1)
        with pytest.raises(CflError):
            transport_step(state, 1.0)


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


class TestSharedReduction:
    """A homogeneous run reduces each recorded state once and hands the
    result to `diagnose` and to the next `relax_step`; the diagnostics
    equal those of a loop that shares nothing, byte for byte."""

    GRID = VelocityGrid(dim=2, vmin=-7.0, vmax=7.0, points=20)

    def scenario(self, integrator, every, cells):
        return Scenario(
            params=make_params(epsilon=0.5), grid=self.GRID,
            species1=SpeciesInit(n=1.0, u=(0.4, 0.1, 0.0), T=1.0),
            species2=SpeciesInit(n=0.7, u=(-0.3, 0.0, 0.0), T=1.3),
            dt=0.02, t_end=0.14, output_every=every, integrator=integrator,
            cells=cells, wave_amplitude=0.2 if cells else 0.0)

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
        diag = Diagnostics(dim=grid.dim)
        diag.append(diagnose(state, params))
        nsteps = int(round(scen.t_end / dt))
        for step in range(1, nsteps + 1):
            if dx is not None:
                state = transport_step(state, dt)
            state = relax_step(state, dt, params, scen.integrator)
            state.t = step * dt
            if step % scen.output_every == 0 or step == nsteps:
                diag.append(diagnose(state, params))
        return diag

    @pytest.mark.parametrize("cells", [0, 4], ids=["homogeneous", "wave"])
    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("integrator", ["rk4", "exp"])
    def test_diagnostics_equal_unshared_loop(self, tmp_path, integrator,
                                             every, cells):
        scen = self.scenario(integrator, every, cells)
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
