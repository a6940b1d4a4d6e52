import numpy as np
import pytest

from bgkmix.params import (EsParams, InteractionSpec, MixingParams,
                           ModelParams, SpeciesSpec, delta_interval,
                           derive_frequencies, dimensionless_scales,
                           gamma_bound_expression, gamma_upper_bound,
                           validate)


def bundle(m1=1.0, m2=1.0, nu12=1.0, epsilon=1.0, beta1=1.0, beta2=1.0,
           delta=0.5, alpha=0.5, gamma=0.0, **es):
    return ModelParams(
        species1=SpeciesSpec(m=m1), species2=SpeciesSpec(m=m2),
        interaction=InteractionSpec(nu12=nu12, epsilon=epsilon,
                                    beta1=beta1, beta2=beta2),
        mixing=MixingParams(delta=delta, alpha=alpha, gamma=gamma),
        es=EsParams(**es))


class TestDeriveFrequencies:
    def test_direct_substitution(self):
        freq = derive_frequencies(InteractionSpec(2.0, 0.5, 3.0, 4.0))
        assert freq == pytest.approx((6.0, 2.0, 4.0, 16.0))

    def test_identity_ratios(self):
        freq = derive_frequencies(InteractionSpec(1.0, 1.0, 1.0, 1.0))
        assert freq == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError, match="epsilon out of range"):
            derive_frequencies(InteractionSpec(1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="epsilon out of range"):
            derive_frequencies(InteractionSpec(1.0, 1.5, 1.0, 1.0))

    @pytest.mark.parametrize("field", ["nu12", "beta1", "beta2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        ratios = {"nu12": 1.0, "epsilon": 1.0, "beta1": 1.0, "beta2": 1.0}
        ratios[field] = value
        with pytest.raises(ValueError, match="finite and positive"):
            derive_frequencies(InteractionSpec(**ratios))

    def test_reciprocity_to_machine_precision(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            nu12, b1, b2 = rng.uniform(0.01, 10.0, 3)
            eps = rng.uniform(1e-3, 1.0)
            freq = derive_frequencies(InteractionSpec(nu12, eps, b1, b2))
            assert freq.nu12 == pytest.approx(eps * freq.nu21, rel=1e-15)


class TestDeltaInterval:
    @pytest.mark.parametrize("m1,m2,eps,lo", [
        (1.0, 1.0, 1.0, 0.0),
        (2.0, 1.0, 1.0, 1.0 / 3.0),
        (1.0, 4.0, 1.0, -0.6),
    ])
    def test_bounds(self, m1, m2, eps, lo):
        got = delta_interval(m1, m2, eps)
        assert got[0] == pytest.approx(lo, abs=1e-15)
        assert got[1] == 1.0


class TestGammaUpperBound:
    def test_vanishes_at_delta_one(self):
        assert gamma_upper_bound(1.0, 1.3, 0.7, 0.5) == 0.0

    def test_midpoint_value(self):
        assert gamma_upper_bound(0.5, 1.0, 1.0, 1.0) == pytest.approx(1 / 6)

    def test_vanishing_bracket(self):
        assert gamma_upper_bound(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.0)

    def test_rejects_outside_interval(self):
        with pytest.raises(ValueError, match="outside admissible interval"):
            gamma_upper_bound(1.5, 1.0, 1.0, 1.0)

    def test_sign_on_and_off_the_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m1, m2 = rng.uniform(0.2, 5.0, 2)
            eps = rng.uniform(0.05, 1.0)
            lo, hi = delta_interval(m1, m2, eps)
            for delta in np.linspace(lo, hi, 9):
                assert gamma_bound_expression(delta, m1, m2, eps) >= -1e-15
            assert gamma_bound_expression(lo - 1e-6, m1, m2, eps) < 0.0
            assert gamma_bound_expression(hi + 1e-6, m1, m2, eps) < 0.0


class TestValidate:
    def test_admissible_bundle(self):
        assert validate(bundle(delta=0.3, alpha=0.2, gamma=0.05)) == []

    def test_gamma_above_bound(self):
        top = gamma_upper_bound(0.5, 1.0, 1.0, 1.0)
        violations = validate(bundle(gamma=top + 1e-3))
        assert len(violations) == 1
        assert "gamma" in violations[0]

    def test_mu_out_of_range(self):
        violations = validate(bundle(mu1=1.2))
        assert any("mu1" in v and "outside" in v for v in violations)

    def test_collects_all_violations(self):
        violations = validate(bundle(delta=2.0, alpha=-0.5, mu2=-0.8))
        assert len(violations) == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field",
                             ["m1", "m2", "nu12", "beta1", "beta2", "gamma"])
    def test_non_finite_fails(self, field, value):
        violations = validate(bundle(**{field: value}))
        assert any(v.startswith(f"{field} must be finite") for v in violations)


class TestDimensionlessScales:
    def test_beta_scaling(self):
        sc = dimensionless_scales(1.0, 1.0, 1.0, 1.0, beta1=2.0, beta2=1.0,
                                  epsilon=1.0, n1=1.0, n2=1.0)
        assert sc.eps1 == pytest.approx(0.5)
        assert sc.eps_tilde1 == pytest.approx(1.0)

    def test_epsilon_scaling(self):
        sc = dimensionless_scales(1.0, 1.0, 1.0, 1.0, beta1=2.0, beta2=1.0,
                                  epsilon=0.5, n1=1.0, n2=1.0)
        assert 1.0 / sc.eps_tilde2 == pytest.approx(2.0)

    def test_symmetric_inputs_equalize(self):
        sc = dimensionless_scales(3.0, 1.0, 1.0, 1.0, beta1=1.0, beta2=1.0,
                                  epsilon=1.0, n1=0.7, n2=0.7)
        assert sc.eps1 == pytest.approx(sc.eps2)
        assert sc.eps1 == pytest.approx(sc.eps_tilde1)
        assert sc.eps1 == pytest.approx(sc.eps_tilde2)

    def test_exact_relations(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            nu, tb, xb, N, b1, b2 = rng.uniform(0.1, 5.0, 6)
            eps = rng.uniform(0.05, 1.0)
            n1, n2 = rng.uniform(0.1, 3.0, 2)
            sc = dimensionless_scales(nu, tb, xb, N, b1, b2, eps, n1, n2)
            inv1 = 1.0 / sc.eps1
            assert inv1 == pytest.approx(b1 * nu * tb * N / xb, rel=1e-14)
            assert 1.0 / sc.eps_tilde1 == pytest.approx(
                inv1 / b1 * n2 / n1, rel=1e-14)
            assert 1.0 / sc.eps_tilde2 == pytest.approx(
                inv1 / b1 / eps, rel=1e-14)
            assert 1.0 / sc.eps2 == pytest.approx(
                inv1 * b2 / (b1 * eps) * n2 / n1, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dimensionless_scales(0.0, 1, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="finite and positive"):
            dimensionless_scales(np.nan, 1, 1, 1, 1, 1, 1, 1, 1)
