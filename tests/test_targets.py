import itertools

import numpy as np
import pytest

from bgkmix import grid as gridmod
from bgkmix.errors import (DegenerateDensityError, NoConvergenceError,
                           NotSpdError)
from bgkmix.grid import (MomentSet, VelocityGrid, match_moments,
                         maxwellian_on_grid, moments, spd_factor)
from bgkmix.params import (EsParams, InteractionSpec, MixingParams,
                           ModelParams, SpeciesSpec, Variant, delta_interval,
                           derive_frequencies, gamma_bound_expression)
from bgkmix.targets import (MixtureState, build_targets, es_tensor_cross,
                            es_tensor_self, mixture_temperatures,
                            mixture_velocities)


def make_state(n1=1.0, u1=(0.3, 0, 0), T1=1.0, n2=0.8, u2=(-0.2, 0.1, 0),
               T2=1.3, m1=1.0, m2=2.0):
    return MixtureState(
        m1=m1, m2=m2,
        mom1=MomentSet(n=n1, u=np.asarray(u1, float), T=T1),
        mom2=MomentSet(n=n2, u=np.asarray(u2, float), T=T2))


def make_params(m1=1.0, m2=2.0, nu12=1.0, epsilon=1.0, beta1=1.0, beta2=1.0,
                delta=0.5, alpha=0.5, gamma=0.0, variant=Variant.BGK, **mus):
    return ModelParams(
        species1=SpeciesSpec(m=m1), species2=SpeciesSpec(m=m2),
        interaction=InteractionSpec(nu12, epsilon, beta1, beta2),
        mixing=MixingParams(delta=delta, alpha=alpha, gamma=gamma),
        es=EsParams(variant=variant, **mus))


def random_admissible(rng):
    m1, m2 = rng.uniform(0.2, 5.0, 2)
    eps = rng.uniform(0.05, 1.0)
    lo, _ = delta_interval(m1, m2, eps)
    delta = rng.uniform(lo, 1.0)
    bound = gamma_bound_expression(delta, m1, m2, eps)
    gamma = rng.uniform(0.0, bound) if bound > 0 else 0.0
    alpha = rng.uniform(0.0, 1.0)
    return m1, m2, eps, delta, alpha, gamma


def random_es_state(rng, d, m1, m2):
    """Two species with unequal densities and sheared d x d pressure
    tensors; each T is trace(P) / (d n), as the lattice moments give."""
    n1, n2 = rng.uniform(0.2, 2.0, 2)
    st = make_state(n1=n1, n2=n2, m1=m1, m2=m2, u1=rng.normal(0, 0.5, d),
                    u2=rng.normal(0, 0.5, d), T1=rng.uniform(0.5, 2),
                    T2=rng.uniform(0.5, 2))
    for mom in (st.mom1, st.mom2):
        a = rng.normal(size=(d, d)) * 0.1
        dev = a + a.T - 2 * np.trace(a) / d * np.eye(d)
        mom.P = mom.n * (mom.T * np.eye(d) + dev)
        mom.T = np.trace(mom.P) / (d * mom.n)
    return st


class TestMixtureVelocities:
    def test_delta_one_endpoint(self):
        st = make_state()
        u12, u21 = mixture_velocities(st, delta=1.0, epsilon=0.7)
        assert np.allclose(u12, st.mom1.u)
        assert np.allclose(u21, st.mom2.u)

    def test_full_exchange(self):
        st = make_state(m1=1.0, m2=1.0)
        u12, u21 = mixture_velocities(st, delta=0.0, epsilon=1.0)
        assert np.allclose(u12, st.mom2.u)
        assert np.allclose(u21, st.mom1.u)

    def test_counterpropagating_cancel(self):
        # (m1/m2) eps = 1 and delta = 1/2 sends both targets to zero
        st = make_state(u1=(1, 0, 0), u2=(-1, 0, 0), m1=2.0, m2=1.0)
        u12, u21 = mixture_velocities(st, delta=0.5, epsilon=0.5)
        assert np.allclose(u12, 0.0)
        assert np.allclose(u21, 0.0)


class TestMixtureTemperatures:
    def test_endpoints(self):
        st = make_state()
        T12, T21 = mixture_temperatures(st, alpha=1.0, gamma=0.0, delta=1.0,
                                        epsilon=0.6)
        assert T12 == pytest.approx(st.mom1.T)
        assert T21 == pytest.approx(st.mom2.T)

    def test_temperature_average(self):
        st = make_state(T1=2.0, T2=4.0)
        T12, _ = mixture_temperatures(st, alpha=0.5, gamma=0.0, delta=0.5,
                                      epsilon=1.0)
        assert T12 == pytest.approx(3.0)

    def test_full_exchange_pairs_with_velocity(self):
        st = make_state(m1=1.0, m2=1.0, T1=1.7, T2=0.9)
        T12, T21 = mixture_temperatures(st, alpha=0.0, gamma=0.0, delta=0.0,
                                        epsilon=1.0)
        assert T21 == pytest.approx(st.mom1.T)
        assert T12 == pytest.approx(st.mom2.T)

    def test_t21_nonnegative_on_admissible_region(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            m1, m2, eps, delta, alpha, gamma = random_admissible(rng)
            st = make_state(n1=rng.uniform(0.1, 2), n2=rng.uniform(0.1, 2),
                            u1=rng.normal(0, 2, 3), u2=rng.normal(0, 2, 3),
                            T1=rng.uniform(0, 3), T2=rng.uniform(0, 3),
                            m1=m1, m2=m2)
            _, T21 = mixture_temperatures(st, alpha, gamma, delta, eps)
            assert T21 >= -1e-13


class TestExchangeIdentities:
    def test_momentum_and_energy_cancel(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            m1, m2, eps, delta, alpha, gamma = random_admissible(rng)
            n1, n2 = rng.uniform(0.1, 3.0, 2)
            st = make_state(n1=n1, n2=n2, u1=rng.normal(0, 1, 3),
                            u2=rng.normal(0, 1, 3), T1=rng.uniform(0.1, 4),
                            T2=rng.uniform(0.1, 4), m1=m1, m2=m2)
            nu12 = rng.uniform(0.1, 3.0)
            nu21 = nu12 / eps
            u1, u2 = st.mom1.u, st.mom2.u
            T1, T2 = st.mom1.T, st.mom2.T
            u12, u21 = mixture_velocities(st, delta, eps)
            T12, T21 = mixture_temperatures(st, alpha, gamma, delta, eps)
            mom_ex = nu12 * n2 * n1 * m1 * (u12 - u1) \
                + nu21 * n1 * n2 * m2 * (u21 - u2)
            mom_scale = nu12 * n2 * n1 * m1 * (
                1.0 + np.linalg.norm(u1) + np.linalg.norm(u2))
            assert np.max(np.abs(mom_ex)) <= 1e-10 * mom_scale
            en_ex = nu12 * n2 * (3 * n1 * (T12 - T1)
                                 + n1 * m1 * (u12 @ u12 - u1 @ u1)) \
                + nu21 * n1 * (3 * n2 * (T21 - T2)
                               + n2 * m2 * (u21 @ u21 - u2 @ u2))
            en_scale = nu12 * n2 * n1 * (
                3 * (T1 + T2) + m1 * (u1 @ u1 + u2 @ u2) + 1.0)
            assert abs(en_ex) <= 1e-10 * en_scale


class TestEsTensorSelf:
    def test_mu_zero_is_isotropic(self):
        P = np.diag([1.2, 1.0, 0.8])
        spd = spd_factor(es_tensor_self(1.0, P, 1.0, 0.0))
        assert np.allclose(spd.matrix, np.eye(3))

    def test_mu_one_is_pressure_over_density(self):
        P = np.diag([1.2, 1.0, 0.8])
        spd = spd_factor(es_tensor_self(1.0, P, 2.0, 1.0))
        assert np.allclose(spd.matrix, P / 2.0)

    def test_trace_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            P = a @ a.T + 0.05 * np.eye(3)
            n = rng.uniform(0.2, 2.0)
            T = np.trace(P) / (3 * n)
            mu = rng.uniform(-0.5, 1.0)
            spd = spd_factor(es_tensor_self(T, P, n, mu))
            assert np.trace(spd.matrix) == pytest.approx(3 * T, rel=1e-12)


class TestEsTensorCross:
    def test_variant_a_scalar_limit(self):
        st = make_state(u1=(0.2, 0, 0), u2=(0.2, 0, 0))
        st.mom1.P = st.mom1.n * st.mom1.T * np.eye(3)
        st.mom2.P = st.mom2.n * st.mom2.T * np.eye(3)
        params = make_params(variant=Variant.ES_FULL_A, alpha=0.3,
                             mu12=0.0, mu21=0.0)
        t12, _ = map(spd_factor, es_tensor_cross(st, params))
        expected = (0.3 * st.mom1.T + 0.7 * st.mom2.T) * np.eye(3)
        assert np.allclose(t12.matrix, expected)

    def test_variant_b_alpha_zero(self):
        st = make_state(u1=(0.1, 0, 0), u2=(0.1, 0, 0))
        st.mom1.P = st.mom1.n * st.mom1.T * np.eye(3)
        st.mom2.P = st.mom2.n * st.mom2.T * np.eye(3)
        params = make_params(variant=Variant.ES_FULL_B, alpha=0.0, gamma=0.0)
        t12, _ = map(spd_factor, es_tensor_cross(st, params))
        assert np.allclose(t12.matrix, st.mom2.T * np.eye(3))

    def test_traces_recover_scalar_temperatures(self):
        rng = np.random.default_rng(14)
        for d, variant in itertools.product(
                (1, 2, 3), (Variant.ES_FULL_A, Variant.ES_FULL_B)):
            for _ in range(50):
                m1, m2, eps, delta, alpha, gamma = random_admissible(rng)
                st = random_es_state(rng, d, m1, m2)
                params = make_params(m1=m1, m2=m2, epsilon=eps, delta=delta,
                                     alpha=alpha, gamma=gamma,
                                     variant=variant,
                                     mu12=rng.uniform(-0.5, 1),
                                     mu21=rng.uniform(-0.5, 1))
                T12, T21 = mixture_temperatures(st, alpha, gamma, delta, eps)
                t12, t21 = map(spd_factor, es_tensor_cross(st, params))
                assert np.trace(t12.matrix) / d == pytest.approx(T12,
                                                                 rel=1e-12)
                assert np.trace(t21.matrix) / d == pytest.approx(T21,
                                                                 rel=1e-12)


def written_out_tensors(st, params):
    """The ES tensors as scalar / tensor mixtures, term by term:
    (1 - mu) T I + mu P / n for the self tensors, and the cross tensors
    with their scalar mixes, tensor mixes and drift heating spelled out.
    """
    mix, es, eps = params.mixing, params.es, params.interaction.epsilon
    alpha, gamma, delta = mix.alpha, mix.gamma, mix.delta
    mom1, mom2 = st.mom1, st.mom2
    d = len(mom1.u)
    eye = np.eye(d)
    du2 = float(np.sum((mom1.u - mom2.u) ** 2))
    q = (st.m1 / st.m2) * eps
    drift12 = gamma * du2
    drift21 = (eps * st.m1 * (1 - delta) * (q * (delta - 1) + delta + 1) / d
               - eps * gamma) * du2
    ea = eps * (1 - alpha)
    selfs = [(1 - mu) * mom.T * eye + mu * mom.P / mom.n
             for mom, mu in ((mom1, es.mu1), (mom2, es.mu2))]
    if es.variant == Variant.ES_FULL_A:
        scal12 = alpha * mom1.T + (1 - alpha) * mom2.T
        tens12 = alpha * mom1.P / mom1.n + (1 - alpha) * mom2.P / mom2.n
        t12 = (1 - es.mu12) * scal12 * eye + es.mu12 * tens12 + drift12 * eye
        scal21 = (1 - ea) * mom2.T + ea * mom1.T
        tens21 = (1 - ea) * mom2.P / mom2.n + ea * mom1.P / mom1.n
        t21 = (1 - es.mu21) * scal21 * eye + es.mu21 * tens21 + drift21 * eye
    else:
        t12 = alpha * mom1.P / mom1.n + (1 - alpha) * mom2.T * eye \
            + drift12 * eye
        t21 = (1 - ea) * mom2.P / mom2.n + ea * mom1.T * eye + drift21 * eye
    return selfs + [t12, t21]


class TestDeviatorForm:
    """T I + weighted traceless deviators against the written-out
    mixtures, on sheared states with n1 != n2."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("variant", [Variant.ES_FULL_A, Variant.ES_FULL_B],
                             ids=["es-full-a", "es-full-b"])
    def test_matches_written_out_tensors(self, variant, d):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m1, m2, eps, delta, alpha, gamma = random_admissible(rng)
            st = random_es_state(rng, d, m1, m2)
            params = make_params(m1=m1, m2=m2, epsilon=eps, delta=delta,
                                 alpha=alpha, gamma=gamma, variant=variant,
                                 mu1=rng.uniform(-0.5, 1),
                                 mu2=rng.uniform(-0.5, 1),
                                 mu12=rng.uniform(-0.5, 1),
                                 mu21=rng.uniform(-0.5, 1))
            es = params.es
            got = [es_tensor_self(st.mom1.T, st.mom1.P, st.mom1.n, es.mu1),
                   es_tensor_self(st.mom2.T, st.mom2.P, st.mom2.n, es.mu2),
                   *es_tensor_cross(st, params)]
            for spd, ref in zip(map(spd_factor, got),
                                written_out_tensors(st, params)):
                err = np.max(np.abs(spd.matrix - ref))
                assert err <= 1e-14 * np.max(np.abs(ref))


class TestBuildTargets:
    def test_equilibrium_fixed_point(self, mid_grid):
        params = make_params(delta=0.4, alpha=0.3, gamma=0.01)
        f1 = match_moments(1.0, (0.1, 0, 0), 1.1, 1.0, mid_grid)
        f2 = match_moments(0.7, (0.1, 0, 0), 1.1, 2.0, mid_grid)
        st = MixtureState.from_distributions(np.array([f1, f2]), 1.0,
                                             2.0, mid_grid)
        ts = build_targets(st, params, mid_grid)
        assert np.max(np.abs(ts.g1 - f1)) < 1e-12
        assert np.max(np.abs(ts.g2 - f2)) < 1e-12
        assert np.max(np.abs(ts.g12 - f1)) < 1e-12
        assert np.max(np.abs(ts.g21 - f2)) < 1e-12

    def test_momentum_exchange_identity_by_quadrature(self, mid_grid):
        rng = np.random.default_rng(15)
        params = make_params(m1=1.0, m2=1.6, epsilon=0.5, beta1=2.0,
                             beta2=1.0, delta=0.35, alpha=0.6, gamma=0.02)
        freq = derive_frequencies(params.interaction)
        f1 = match_moments(1.1, (0.25, -0.1, 0), 0.9, 1.0, mid_grid)
        f2 = match_moments(0.6, (-0.15, 0.2, 0.05), 1.2, 1.6, mid_grid)
        st = MixtureState.from_distributions(np.array([f1, f2]), 1.0,
                                             1.6, mid_grid)
        ts = build_targets(st, params, mid_grid)
        q12 = moments(ts.g12, 1.0, mid_grid)
        q21 = moments(ts.g21, 1.6, mid_grid)
        n1, n2 = st.mom1.n, st.mom2.n
        ex = freq.nu12 * n2 * n1 * 1.0 * (q12.u - st.mom1.u) \
            + freq.nu21 * n1 * n2 * 1.6 * (q21.u - st.mom2.u)
        scale = freq.nu12 * n2 * n1 * (1.0 + np.linalg.norm(st.mom1.u))
        assert np.max(np.abs(ex)) <= 1e-10 * scale

    def test_cross_target_densities(self, mid_grid):
        params = make_params(variant=Variant.ES_FULL_B, delta=0.5, alpha=0.4,
                             gamma=0.0)
        f1 = match_moments(1.2, (0.2, 0, 0), 1.0, 1.0, mid_grid)
        f2 = match_moments(0.5, (-0.1, 0, 0), 1.4, 2.0, mid_grid)
        st = MixtureState.from_distributions(np.array([f1, f2]), 1.0,
                                             2.0, mid_grid)
        ts = build_targets(st, params, mid_grid)
        assert mid_grid.density(ts.g12) == pytest.approx(st.mom1.n,
                                                         rel=1e-12)
        assert mid_grid.density(ts.g21) == pytest.approx(st.mom2.n,
                                                         rel=1e-12)

    def test_es_self_with_zero_mu_reduces_to_bgk(self, ref_grid):
        mid_grid = ref_grid  # resolution-limited comparison, see test_grid
        f1 = match_moments(1.0, (0.3, 0, 0), 1.0, 1.0, mid_grid)
        f2 = match_moments(0.8, (-0.2, 0.1, 0), 1.3, 2.0, mid_grid)
        st = MixtureState.from_distributions(np.array([f1, f2]), 1.0,
                                             2.0, mid_grid)
        bgk = build_targets(st, make_params(variant=Variant.BGK), mid_grid)
        es = build_targets(st, make_params(variant=Variant.ES_SELF_ONLY,
                                           mu1=0.0, mu2=0.0), mid_grid)
        for a, b in zip((bgk.g1, bgk.g2, bgk.g12, bgk.g21),
                        (es.g1, es.g2, es.g12, es.g21)):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_self_targets_conserve_species_moments(self, mid_grid):
        rng = np.random.default_rng(16)
        params = make_params(variant=Variant.ES_SELF_ONLY, mu1=-0.4, mu2=0.7)
        f1 = np.abs(rng.normal(0.5, 0.2, mid_grid.nnodes)) \
            * maxwellian_like(mid_grid, (0.2, 0, 0), 1.0)
        f2 = np.abs(rng.normal(0.5, 0.2, mid_grid.nnodes)) \
            * maxwellian_like(mid_grid, (-0.1, 0, 0), 1.4)
        st = MixtureState.from_distributions(np.array([f1, f2]), 1.0,
                                             2.0, mid_grid)
        ts = build_targets(st, params, mid_grid)
        for g, mom, mass in ((ts.g1, st.mom1, 1.0), (ts.g2, st.mom2, 2.0)):
            q = moments(g, mass, mid_grid)
            assert q.n == pytest.approx(mom.n, rel=1e-12)
            assert np.linalg.norm(q.u - mom.u) < 1e-12
            assert q.T == pytest.approx(mom.T, rel=1e-12)

    def test_degenerate_partner_gives_inert_cross_targets(self, mid_grid):
        params = make_params()
        f1 = match_moments(1.0, (0.0, 0, 0), 1.0, 1.0, mid_grid)
        st = MixtureState.from_distributions(
            np.array([f1, np.zeros(mid_grid.nnodes)]), 1.0, 2.0, mid_grid)
        ts = build_targets(st, params, mid_grid)
        assert np.all(ts.g2 == 0.0)
        assert np.all(ts.g21 == 0.0)


    def test_cells_are_stacked(self, mid_grid):
        params = make_params(variant=Variant.ES_SELF_ONLY, mu1=0.4, mu2=-0.2)
        f1 = np.array([match_moments(1.0, (u, 0, 0), 1.0, 1.0, mid_grid)
                       for u in (0.1, -0.2)])
        f2 = np.array([match_moments(0.7, (0, u, 0), 1.2, 2.0, mid_grid)
                       for u in (0.2, 0.0)])
        ts = build_targets(
            MixtureState.from_distributions(np.array([f1, f2]), 1.0, 2.0,
                                            mid_grid),
            params, mid_grid)
        block = ts.g1.base
        assert block is not None and block.shape == (4, 2, mid_grid.nnodes)
        for c in range(2):
            one = build_targets(MixtureState.from_distributions(
                np.array([f1[c], f2[c]]), 1.0, 2.0, mid_grid), params,
                mid_grid)
            for name in ("g1", "g2", "g12", "g21"):
                got = getattr(ts, name)
                assert got.base is block
                assert np.max(np.abs(got[c] - getattr(one, name))) <= 1e-15

    def test_failure_names_target_and_cell(self):
        grid = VelocityGrid(dim=1, vmin=-2.0, vmax=2.0, points=8)
        cold, hot = np.array([0.3, 0.3]), np.array([0.3, 4.0])
        st = MixtureState(
            m1=1.0, m2=1.0,
            mom1=MomentSet(n=np.ones(2), u=np.zeros((2, 1)), T=hot),
            mom2=MomentSet(n=np.ones(2), u=np.zeros((2, 1)), T=cold))
        with pytest.raises(NoConvergenceError,
                           match=r"\(target g1, cell 1\)") as err:
            build_targets(st, make_params(m2=1.0), grid)
        assert err.value.member == 1

    def test_non_spd_tensor_names_target_and_cell(self):
        """A cell of species 2 with negative temperature fails the one
        Cholesky stack of the es-self family as target g2, cell 1."""
        grid = VelocityGrid(dim=1, vmin=-8.0, vmax=8.0, points=64)
        f = np.empty((2, 2, grid.nnodes))
        f[0] = maxwellian_on_grid(1.0, [0.0], 1.0, 1.0, grid)
        f[1, 0] = maxwellian_on_grid(1.0, [0.0], 1.0, 2.0, grid)
        f[1, 1] = (maxwellian_on_grid(1.0, [0.1], 1.0, 2.0, grid)
                   - maxwellian_on_grid(0.9, [0.0], 3.0, 2.0, grid))
        st = MixtureState.from_distributions(f, 1.0, 2.0, grid)
        assert st.mom2.T[1] < 0.0
        params = make_params(variant=Variant.ES_SELF_ONLY, mu1=0.5, mu2=0.5)
        for match in (True, False):
            with pytest.raises(NotSpdError) as err:
                build_targets(st, params, grid, match)
            first = str(err.value).splitlines()[0]
            assert first.endswith("(target g2, cell 1)")

    def test_partly_degenerate_species_names_species_and_cell(self,
                                                              mid_grid):
        f = match_moments(1.0, (0.0, 0, 0), 1.0, 1.0, mid_grid)
        f2 = np.array([f, np.zeros_like(f)])
        with pytest.raises(DegenerateDensityError,
                           match="in cell 1 of species 2") as err:
            MixtureState.from_distributions(np.array([[f, f], f2]), 1.0,
                                            2.0, mid_grid)
        assert list(err.value.cells) == [1] and err.value.species == 2

    def test_partly_degenerate_species_after_an_empty_one(self, mid_grid):
        """Species 1 empty everywhere, species 2 in one cell: the error
        names species 2 and carries that cell's density."""
        f = match_moments(1.0, (0.0, 0, 0), 1.0, 2.0, mid_grid)
        with pytest.raises(DegenerateDensityError,
                           match="in cell 0 of species 2") as err:
            MixtureState.from_distributions(
                np.array([np.zeros((2, mid_grid.nnodes)), [1e-35 * f, f]]),
                1.0, 2.0, mid_grid)
        assert list(err.value.cells) == [0] and err.value.species == 2
        assert err.value.density == pytest.approx(1e-35, rel=1e-9, abs=0.0)

    def test_species_reduced_in_one_call(self, monkeypatch, mid_grid):
        calls = []
        real = gridmod.moments

        def spy(f, mass, grid, *args):
            calls.append((np.shape(f), np.shape(mass)))
            return real(f, mass, grid, *args)

        monkeypatch.setattr(gridmod, "moments", spy)
        f = match_moments(1.0, (0.1, 0, 0), 1.0, 1.0, mid_grid)
        st = MixtureState.from_distributions(np.array([[f, f, f]] * 2),
                                             1.0, 2.0, mid_grid)
        assert calls == [((6, mid_grid.nnodes), (6,))]
        assert st.mom1.n.shape == st.mom2.n.shape == (3,)
        assert np.array_equal(st.mom2.T, 2.0 * st.mom1.T)

    @pytest.mark.parametrize("shape", [(3, 8), (8,), (2, 1, 1, 8)])
    def test_needs_a_leading_species_axis(self, small_grid, shape):
        shape = shape[:-1] + (small_grid.nnodes,)
        with pytest.raises(ValueError, match="leading species axis of 2"):
            MixtureState.from_distributions(np.ones(shape), 1.0, 2.0,
                                            small_grid)

    def test_wholly_degenerate_species_is_none_in_every_cell(self, mid_grid):
        f = match_moments(1.0, (0.0, 0, 0), 1.0, 1.0, mid_grid)
        st = MixtureState.from_distributions(
            np.array([[f, f], np.zeros((2, mid_grid.nnodes))]), 1.0, 2.0,
            mid_grid)
        assert st.mom2 is None and st.mom1.n.shape == (2,)
        ts = build_targets(st, make_params(), mid_grid)
        assert ts.g1.shape == (2, mid_grid.nnodes)
        assert np.all(ts.g2 == 0.0) and np.all(ts.g21 == 0.0)
        assert np.max(np.abs(ts.g1 - f)) < 1e-12

    def test_out_must_fit_the_block(self, small_grid):
        f = match_moments(1.0, (0.1, 0, 0), 1.0, 1.0, small_grid)
        st = MixtureState.from_distributions(np.array([[f, f, f]] * 2),
                                             1.0, 2.0, small_grid)
        N = small_grid.nnodes
        for out in (np.empty((4, 2, N)), np.empty((3, 3, N)),
                    np.empty((4, 3, N + 1)), np.empty((4, 3 * N)),
                    np.empty((4, 3, 2 * N))[..., ::2],
                    np.empty((4, 3, N), order="F")):
            with pytest.raises(ValueError, match="out must be a C-contig"):
                build_targets(st, make_params(), small_grid, out=out)

    @pytest.mark.parametrize("variant", [Variant.BGK, Variant.ES_FULL_A],
                             ids=lambda v: v.value)
    def test_out_zeroes_an_absent_species(self, mid_grid, variant):
        f = match_moments(1.0, (0.1, 0, 0), 1.0, 1.0, mid_grid)
        st = MixtureState.from_distributions(
            np.array([[f, 0.9 * f], np.zeros((2, mid_grid.nnodes))]), 1.0,
            2.0, mid_grid)
        params = make_params(variant=variant, mu1=0.3, mu2=0.2, mu12=0.4,
                             mu21=0.1)
        out = np.full((4, 2, mid_grid.nnodes), np.nan)
        ts = build_targets(st, params, mid_grid, out=out)
        assert np.shares_memory(ts.block, out)
        assert np.all(out[1:] == 0.0)
        assert np.array_equal(out, build_targets(st, params, mid_grid).block)


def maxwellian_like(grid, u, T):
    from bgkmix.grid import maxwellian_on_grid
    return maxwellian_on_grid(1.0, u, T, 1.0, grid)
