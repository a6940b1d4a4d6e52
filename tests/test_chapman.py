import itertools

import numpy as np
import pytest

from bgkmix import chapman
from bgkmix.errors import InsufficientWindowError, SingularPrefactorError
from bgkmix.grid import (MomentSet, VelocityGrid, match_moments,
                         maxwellian_on_grid, moments, spd_factor)
from bgkmix.params import (EsParams, InteractionSpec, MixingParams,
                           ModelParams, SpeciesSpec, derive_frequencies)
from bgkmix.solver import Scenario, SpeciesInit, run_scenario
from bgkmix.targets import (MixtureState, es_tensor_self,
                            mixture_temperatures, mixture_velocities)

from conftest import node_coordinates


def make_state(n1, u1, T1, n2, u2, T2, m1=1.0, m2=1.0):
    return MixtureState(
        m1=m1, m2=m2,
        mom1=MomentSet(n=n1, u=np.asarray(u1, float), T=T1),
        mom2=MomentSet(n=n2, u=np.asarray(u2, float), T=T2))


class TestCombinationWeight:
    def test_fully_symmetric(self):
        assert chapman.combination_weight(1, 1, 1, 1, 1, 1, 1) == \
            pytest.approx(1.0)

    def test_vanishes_with_epsilon(self):
        assert chapman.combination_weight(1, 1, 1e-12, 1, 1, 1, 1) == \
            pytest.approx(0.0, abs=1e-11)

    def test_mass_ratio(self):
        assert chapman.combination_weight(2, 1, 1, 1, 1, 1, 1) == \
            pytest.approx(2.0)


class TestMixingCoefficients:
    def test_symmetric_delta_endpoints(self):
        c = chapman.mixing_coefficients(1.0, 1.0, 1.0, 1.0, 1.0, beta1=1.0,
                                        delta=1.0, alpha=0.5)
        assert c.c1 == pytest.approx(0.5)
        c = chapman.mixing_coefficients(1.0, 1.0, 1.0, 1.0, 1.0, beta1=1.0,
                                        delta=0.0, alpha=0.5)
        assert c.c1 == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_c1_is_half_delta(self):
        for delta in np.linspace(-0.5, 1.0, 7):
            c = chapman.mixing_coefficients(1.0, 1.0, 1.0, 1.0, 1.0,
                                            beta1=1.0, delta=delta, alpha=0.3)
            assert c.c1 == pytest.approx(delta / 2, abs=1e-15)

    def test_symmetric_c2(self):
        c = chapman.mixing_coefficients(1.0, 1.0, 1.0, 1.0, 1.0, beta1=1.0,
                                        delta=0.5, alpha=1.0)
        assert c.c2 == pytest.approx(0.5)


class TestZerothMoments:
    def test_shared_state(self):
        st = make_state(1.0, (0.3, 0, 0), 0.9, 1.0, (0.3, 0, 0), 0.9)
        zm = chapman.zeroth_moments(1.0, st)
        assert zm.n0 == pytest.approx(2.0)
        assert np.allclose(zm.u0, [0.3, 0, 0])
        assert zm.T0_over_m0 == pytest.approx(0.9)

    def test_drift_contribution(self):
        u1, u2 = np.array([0.4, 0, 0]), np.array([-0.2, 0.1, 0])
        st = make_state(1.0, u1, 0.9, 1.0, u2, 0.9)
        zm = chapman.zeroth_moments(1.0, st)
        du2 = float(np.sum((u1 - u2) ** 2))
        assert zm.T0_over_m0 == pytest.approx(0.9 + du2 / 12.0)

    def test_single_species_limit(self):
        st = make_state(1.3, (0.5, -0.2, 0), 1.1, 0.0, (0, 0, 0), 1.0)
        zm = chapman.zeroth_moments(0.7, st)
        assert np.allclose(zm.u0, [0.5, -0.2, 0])

    def test_quadrature_agreement(self, ref_grid):
        # A f1 + f2 has exactly the closed-form leading-order moments,
        # with T normalised by the lattice dimension d
        rng = np.random.default_rng(41)
        for d, _ in itertools.product((1, 2, 3), range(20)):
            grid = ref_grid if d == 3 else VelocityGrid(d, -8.0, 8.0, 32)
            m1, m2 = rng.uniform(0.8, 1.25, 2)
            T1h, T2h = rng.uniform(0.7, 1.3, 2)
            n1, n2 = rng.uniform(0.3, 2.0, 2)
            u1 = rng.uniform(-0.3, 0.3, d)
            u2 = rng.uniform(-0.3, 0.3, d)
            f1 = maxwellian_on_grid(n1, u1, T1h, m1, grid)
            f2 = maxwellian_on_grid(n2, u2, T2h, m2, grid)
            mom1 = moments(f1, m1, grid)
            mom2 = moments(f2, m2, grid)
            st = MixtureState(m1=m1, m2=m2, mom1=mom1, mom2=mom2)
            eps = rng.uniform(0.2, 1.0)
            b1, b2 = rng.uniform(0.5, 2.0, 2)
            A = chapman.combination_weight(m1, m2, eps, b1, b2,
                                           mom1.n, mom2.n)
            zm = chapman.zeroth_moments(A, st)
            comb = A * f1 + f2
            w = grid.weight
            n0q = w * comb.sum()
            u0q = w * (comb @ node_coordinates(grid)) / n0q
            c = node_coordinates(grid) - u0q
            T0q = w * float(np.sum(np.einsum("ni,ni->n", c, c) * comb)) \
                / (d * n0q)
            assert abs(n0q - zm.n0) < 1e-8 * zm.n0
            assert np.max(np.abs(u0q - zm.u0)) < 1e-8
            assert abs(T0q - zm.T0_over_m0) < 1e-8


class TestCommonEquilibrium:
    def test_counterpropagating_symmetric(self):
        st = make_state(1.0, (1, 0, 0), 1.0, 1.0, (-1, 0, 0), 1.0)
        eq = chapman.common_equilibrium(1.0, st)
        assert np.allclose(eq.u, 0.0)

    def test_equal_temperatures_recovered(self):
        st = make_state(1.0, (0.2, 0, 0), 1.4, 0.7, (0.2, 0, 0), 1.4)
        eq = chapman.common_equilibrium(0.8, st)
        assert eq.T == pytest.approx(1.4)

    def test_degenerate_interpolation(self):
        st = make_state(1.0, (0.1, 0, 0), 1.2, 1.5, (0.1, 0, 0), 1.2,
                        m1=2.0, m2=2.0)
        for A in (0.3, 1.0, 2.4):
            eq = chapman.common_equilibrium(A, st)
            assert np.allclose(eq.u, [0.1, 0, 0])
            assert eq.T == pytest.approx(1.2)

    def test_zero_moment_combinations_at_equilibrium(self, mid_grid):
        # (n2/n1) f1 - f2 has zero mean-velocity numerator, and
        # (n2/n1)(m1/m2) f1 - f2 zero temperature numerator
        m1, m2 = 1.0, 2.0
        n1, n2, u, T = 1.2, 0.7, np.array([0.2, -0.1, 0.0]), 1.1
        f1 = match_moments(n1, u, T, m1, mid_grid)
        f2 = match_moments(n2, u, T, m2, mid_grid)
        w = mid_grid.weight
        comb_u = (n2 / n1) * f1 - f2
        vel_num = w * (comb_u @ node_coordinates(mid_grid))
        assert np.max(np.abs(vel_num)) < 1e-10
        comb_T = (n2 / n1) * (m1 / m2) * f1 - f2
        c = node_coordinates(mid_grid) - u
        temp_num = w * float(np.sum(np.einsum("ni,ni->n", c, c) * comb_T))
        assert abs(temp_num) < 1e-10

    def test_matches_simulated_equilibrium(self, mid_grid):
        # balanced frequencies with equal densities make the combination
        # weight equal to the mass ratio, so the leading-order common
        # values coincide with the conserved-quantity fixed point
        m1, m2 = 1.0, 2.0
        params = ModelParams(
            species1=SpeciesSpec(m=m1), species2=SpeciesSpec(m=m2),
            interaction=InteractionSpec(2.0, 1.0, 1.0, 1.0),
            mixing=MixingParams(delta=0.3, alpha=0.4, gamma=0.05),
            es=EsParams())
        scen = Scenario(
            params=params, grid=mid_grid,
            species1=SpeciesInit(n=1.0, u=(0.2, 0, 0), T=1.0),
            species2=SpeciesInit(n=1.0, u=(-0.1, 0.05, 0), T=1.2),
            dt=0.05, t_end=10.0, output_every=100)
        diag = run_scenario(scen)
        r0, rN = diag.records[0], diag.records[-1]
        st0 = MixtureState(m1=m1, m2=m2, mom1=r0.mom1, mom2=r0.mom2)
        A = chapman.combination_weight(m1, m2, 1.0, 1.0, 1.0,
                                       r0.mom1.n, r0.mom2.n)
        assert A == pytest.approx(m1 / m2, rel=1e-10)
        eq = chapman.common_equilibrium(A, st0)
        assert np.max(np.abs(rN.mom1.u - eq.u)) < 1e-6
        assert np.max(np.abs(rN.mom2.u - eq.u)) < 1e-6
        assert abs(rN.mom1.T - eq.T) < 1e-6
        assert abs(rN.mom2.T - eq.T) < 1e-6

    @pytest.mark.parametrize("dim, points", [(1, 32), (2, 24), (3, 16)])
    def test_rk4_relaxes_to_common_temperature(self, dim, points):
        # eps = 1, beta1 = beta2 and n1 = n2 make A = m1/m2, so the
        # common temperature is the conserved-energy fixed point on a
        # lattice of any dimension
        m1, m2 = 1.0, 2.0
        params = ModelParams(
            species1=SpeciesSpec(m=m1), species2=SpeciesSpec(m=m2),
            interaction=InteractionSpec(2.0, 1.0, 1.0, 1.0),
            mixing=MixingParams(delta=0.3, alpha=0.4, gamma=0.05),
            es=EsParams())
        u1 = (0.6,) + (0.0,) * (dim - 1)
        u2 = (-0.4,) + (0.3,) * (dim - 1)
        scen = Scenario(
            params=params, grid=VelocityGrid(dim, -8.0, 8.0, points),
            species1=SpeciesInit(n=1.0, u=u1, T=1.0),
            species2=SpeciesInit(n=1.0, u=u2, T=1.2),
            dt=0.1, t_end=10.0, output_every=1000, integrator="rk4")
        records = run_scenario(scen).records
        r0, rN = records[0], records[-1]
        st0 = MixtureState(m1=m1, m2=m2, mom1=r0.mom1, mom2=r0.mom2)
        eq = chapman.common_equilibrium(m1 / m2, st0)
        assert abs(rN.mom1.T - eq.T) < 1e-8
        assert abs(rN.mom2.T - eq.T) < 1e-8


class TestExpansionPrefactors:
    def consts(self, delta=0.0, alpha=0.0, n1=1.0, n2=1.0, m1=1.0, m2=1.0):
        return chapman.ce_constants(m1, m2, 1.0, 1.0, 1.0, n1, n2,
                                    delta, alpha)

    def test_decoupled_velocity_rows(self):
        consts = self.consts(delta=0.0)  # symmetric bundle, c1 = 0
        assert consts.c1 == pytest.approx(0.0, abs=1e-15)
        pref = chapman.expansion_prefactors(consts, 1.0, 1.0, 1.0, 1.0)
        s1 = 1.0 / (1.0 / consts.scales.eps1 + 1.0 / consts.scales.eps_tilde1)
        assert pref.Ku[0, 0] == pytest.approx(-s1)
        assert pref.Ku[0, 1] == 0.0
        assert pref.Ku[1, 0] == 0.0

    def test_decoupled_temperature_rows(self):
        consts = self.consts(alpha=0.0)  # symmetric bundle, c2 = 0
        assert consts.c2 == pytest.approx(0.0, abs=1e-15)
        pref = chapman.expansion_prefactors(consts, 1.0, 1.0, 1.0, 1.0)
        assert pref.KT[0, 1] == 0.0
        assert pref.KT[1, 0] == 0.0

    def test_singular_combination(self):
        consts = self.consts(delta=1.0)  # c1 = 1/2 and A n1/n2 = 1
        with pytest.raises(SingularPrefactorError):
            chapman.expansion_prefactors(consts, 1.0, 1.0, 1.0, 1.0)

    def test_singular_temperature_combination(self):
        consts = self.consts(alpha=1.0)  # c1 = 0, but c2 = 1/2
        with pytest.raises(SingularPrefactorError, match="^temperature "
                           "prefactor denominator vanished: "):
            chapman.expansion_prefactors(consts, 1.0, 1.0, 1.0, 1.0)

    def test_prefactors_vary_with_the_free_parameters(self):
        ku = [chapman.expansion_prefactors(self.consts(delta=d), 1, 1, 1, 1)
              .Ku[0, 0] for d in (0.0, 0.3, 0.6)]
        assert len(set(np.round(ku, 12))) == 3
        kt = [chapman.expansion_prefactors(self.consts(alpha=a), 1, 1, 1, 1)
              .KT[0, 0] for a in (0.0, 0.4, 0.8)]
        assert len(set(np.round(kt, 12))) == 3


def integrate_ode(rhs, y0, dt, steps, sample_every=1):
    """Plain RK4 integrator used as an independent oracle."""
    y = np.asarray(y0, dtype=float)
    ts, ys = [0.0], [y.copy()]
    for k in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if k % sample_every == 0:
            ts.append(k * dt)
            ys.append(y.copy())
    return np.array(ts), np.array(ys)


class TestAnalyticRates:
    def test_tabulated_values(self):
        r = chapman.analytic_rates(1.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0)
        assert r.lambda_u == pytest.approx(2.0)
        assert r.lambda_T == pytest.approx(1.0)
        r = chapman.analytic_rates(1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0,
                                   nu=1.0, n=1.0, mu=-0.5)
        assert r.lambda_shear == pytest.approx(1.5)

    def ode_rhs(self, params, n1, n2):
        freq = derive_frequencies(params.interaction)
        m1, m2 = params.species1.m, params.species2.m
        mix = params.mixing
        eps = params.interaction.epsilon

        def rhs(y):
            u1, u2, T1, T2 = y[:3], y[3:6], y[6], y[7]
            st = make_state(n1, u1, T1, n2, u2, T2, m1, m2)
            u12, u21 = mixture_velocities(st, mix.delta, eps)
            T12, T21 = mixture_temperatures(st, mix.alpha, mix.gamma,
                                            mix.delta, eps)
            du1 = freq.nu12 * n2 * (u12 - u1)
            du2 = freq.nu21 * n1 * (u21 - u2)
            dT1 = freq.nu12 * n2 * ((T12 - T1)
                                    + m1 / 3.0 * float(np.sum((u12 - u1) ** 2)))
            dT2 = freq.nu21 * n1 * ((T21 - T2)
                                    + m2 / 3.0 * float(np.sum((u21 - u2) ** 2)))
            return np.concatenate([du1, du2, [dT1, dT2]])

        return rhs

    def test_velocity_rate_against_moment_ode(self):
        n1, n2 = 1.2, 0.8
        params = ModelParams(
            species1=SpeciesSpec(m=1.0), species2=SpeciesSpec(m=2.5),
            interaction=InteractionSpec(1.3, 0.6, 1.5, 0.9),
            mixing=MixingParams(delta=0.35, alpha=0.4, gamma=0.0),
            es=EsParams())
        rhs = self.ode_rhs(params, n1, n2)
        y0 = np.array([1e-3, 0, 0, -1e-3, 0, 0, 1.0, 1.0])
        lam = chapman.analytic_rates(1.3, 0.35, 0.4, n1, n2, 1.0, 2.5).lambda_u
        ts, ys = integrate_ode(rhs, y0, dt=0.01 / lam,
                               steps=int(16 / 0.01), sample_every=10)
        gap = np.linalg.norm(ys[:, :3] - ys[:, 3:6], axis=1)
        fitted = chapman.fit_decay_rate(ts, gap)
        assert fitted == pytest.approx(lam, rel=1e-5)

    def test_temperature_rate_against_moment_ode(self):
        n1, n2 = 0.9, 1.4
        params = ModelParams(
            species1=SpeciesSpec(m=1.0), species2=SpeciesSpec(m=2.0),
            interaction=InteractionSpec(0.8, 0.5, 1.0, 1.2),
            mixing=MixingParams(delta=0.5, alpha=0.65, gamma=0.01),
            es=EsParams())
        rhs = self.ode_rhs(params, n1, n2)
        u = np.array([0.15, 0.0, 0.0])
        y0 = np.concatenate([u, u, [1.0 + 5e-4, 1.0 - 5e-4]])
        lam = chapman.analytic_rates(0.8, 0.5, 0.65, n1, n2, 1.0, 2.0).lambda_T
        ts, ys = integrate_ode(rhs, y0, dt=0.01 / lam,
                               steps=int(16 / 0.01), sample_every=10)
        gap = np.abs(ys[:, 6] - ys[:, 7])
        fitted = chapman.fit_decay_rate(ts, gap)
        assert fitted == pytest.approx(lam, rel=1e-5)

    def test_shear_rate_against_pressure_ode(self):
        nu, n, T, mu = 0.7, 1.3, 1.0, -0.3
        lam = chapman.analytic_rates(1, 0, 0, 1, 1, 1, 1,
                                     nu=nu, n=n, mu=mu).lambda_shear

        def rhs(y):
            P = y.reshape(3, 3)
            tens = spd_factor(es_tensor_self(np.trace(P) / (3 * n), P, n,
                                             mu))
            return (nu * n * (n * tens.matrix - P)).reshape(-1)

        P0 = n * np.diag([1.2 * T, T, 0.8 * T])
        ts, ys = integrate_ode(rhs, P0.reshape(-1), dt=0.01 / lam,
                               steps=int(16 / 0.01), sample_every=10)
        dev = np.array([np.linalg.norm(y.reshape(3, 3) - n * T * np.eye(3))
                        for y in ys])
        fitted = chapman.fit_decay_rate(ts, dev)
        assert fitted == pytest.approx(lam, rel=1e-5)

    def test_velocity_rate_ignores_gamma(self):
        # the velocity gap dynamics are independent of the drift heating
        n1 = n2 = 1.0
        base = dict(species1=SpeciesSpec(m=1.0), species2=SpeciesSpec(m=1.5),
                    interaction=InteractionSpec(1.0, 1.0, 1.0, 1.0),
                    es=EsParams())
        rates = []
        for gamma in (0.0, 0.05):
            params = ModelParams(
                mixing=MixingParams(delta=0.4, alpha=0.5, gamma=gamma),
                **base)
            rhs = self.ode_rhs(params, n1, n2)
            y0 = np.array([5e-4, 0, 0, -5e-4, 0, 0, 1.0, 1.0])
            ts, ys = integrate_ode(rhs, y0, dt=0.01, steps=1600,
                                   sample_every=10)
            gap = np.linalg.norm(ys[:, :3] - ys[:, 3:6], axis=1)
            rates.append(chapman.fit_decay_rate(ts, gap))
        assert rates[0] == pytest.approx(rates[1], rel=1e-6)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 8, 200)
        assert chapman.fit_decay_rate(t, 3.0 * np.exp(-2.0 * t)) == \
            pytest.approx(2.0, abs=1e-6)

    def test_noisy_exponential(self):
        rng = np.random.default_rng(42)
        t = np.linspace(0, 8, 400)
        a = np.exp(-2.0 * t) * (1.0 + 1e-3 * rng.standard_normal(t.size))
        assert chapman.fit_decay_rate(t, a) == pytest.approx(2.0, abs=1e-2)

    def test_constant_series(self):
        t = np.linspace(0, 5, 50)
        assert chapman.fit_decay_rate(t, np.full(50, 0.7)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_insufficient_window(self):
        t = np.linspace(0, 1, 20)
        with pytest.raises(InsufficientWindowError):
            chapman.fit_decay_rate(t, np.exp(-0.1 * t))  # never decays enough

    @pytest.mark.parametrize("times, amplitudes", [
        (np.linspace(0, 1, 5), np.ones(4)), (np.ones((2, 3)), np.ones((2, 3))),
        ([], [])], ids=["unequal", "two-dimensional", "empty"])
    def test_rejects_series_not_equal_length_1d(self, times, amplitudes):
        with pytest.raises(ValueError, match="^times and amplitudes must be "
                           "equal-length 1-D$"):
            chapman.fit_decay_rate(times, amplitudes)

    @pytest.mark.parametrize("a0", [0.0, -1.0, np.nan])
    def test_rejects_initial_amplitude_not_positive(self, a0):
        t = np.linspace(0, 8, 200)
        a = np.exp(-2.0 * t)
        a[0] = a0
        with pytest.raises(ValueError, match=rf"^initial amplitude must be "
                           rf"positive \(got {a0}\)$"):
            chapman.fit_decay_rate(t, a)

    @pytest.mark.parametrize("shift", [0.0, 1e3], ids=["t0", "t1e3"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_slope(self, seed, shift):
        """The rate is minus the centred least-squares slope over the
        window, to 1e-15, and np.polyfit's slope to 1e-13 relative, on
        noisy exponentials, also with the times shifted far from 0."""
        rng = np.random.default_rng(seed)
        t = shift + np.sort(rng.uniform(0.0, 8.0, 300))
        rate = rng.uniform(0.5, 3.0)
        a = np.exp(-rate * (t - shift)) * (1.0 + 1e-3 * rng.standard_normal(
            t.size))
        a[0] = 1.0
        window = (a >= 1e-6) & (a <= 0.1)
        tw, y = t[window], np.log(a[window])
        tc = tw - tw.mean()
        centred = -np.sum(tc * (y - y.mean())) / np.sum(tc * tc)
        got = chapman.fit_decay_rate(t, a)
        assert abs(got - centred) <= 1e-15 * abs(centred)
        assert abs(got + np.polyfit(tw, y, 1)[0]) <= 1e-13 * abs(centred)

    def test_equal_times_in_the_window_are_refused(self):
        t = np.concatenate([[0.0], np.full(20, 2.0)])
        a = np.concatenate([[1.0], np.geomspace(0.05, 1e-5, 20)])
        with pytest.raises(ValueError, match="^the fit window's times must "
                           "be finite and not all equal$"):
            chapman.fit_decay_rate(t, a)


class TestHeatFluxCheck:
    def test_zero_drift(self, ref_grid):
        f = maxwellian_on_grid(1.0, (0, 0, 0), 1.0, 1.0, ref_grid)
        chk = chapman.heat_flux_check(f, 1.0, ref_grid)
        assert np.max(np.abs(chk.quadrature)) < 1e-10
        assert np.max(np.abs(chk.formula)) < 1e-10

    def test_drifting_maxwellian(self, ref_grid):
        n, T, m = 1.0, 1.0, 1.0
        u = np.array([0.2, 0.0, 0.0])
        f = maxwellian_on_grid(n, u, T, m, ref_grid)
        chk = chapman.heat_flux_check(f, m, ref_grid)
        expected = 2.5 * n * (T / m) * u + 0.5 * n * float(u @ u) * u
        assert np.max(np.abs(chk.quadrature - expected)) < 1e-8

    def test_discrepancy_is_twice_cubed_drift(self, ref_grid):
        n, T, m = 1.0, 1.0, 1.0
        u = np.array([0.2, 0.0, 0.0])
        f = maxwellian_on_grid(n, u, T, m, ref_grid)
        chk = chapman.heat_flux_check(f, m, ref_grid)
        assert np.max(np.abs(chk.discrepancy - 2.0 * n * float(u @ u) * u)) \
            < 1e-8
