import numpy as np
import pytest

from bgkmix.persistence import (persistence_equal_mass,
                                persistence_lower_bound,
                                persistence_unequal_mass)

# NaN fails `m > 0` as zero and negative masses do
BAD_MASSES = [(0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan)]


class TestEqualMass:
    def test_both_branches_agree_at_one(self):
        kappa = 1.0
        above = (15 * kappa ** 4 + 1) / (10 * kappa ** 2 * (3 * kappa ** 2 + 1))
        below = (3 * kappa ** 2 + 5) / (5 * (kappa ** 2 + 3))
        assert above == pytest.approx(2 / 5, abs=1e-15)
        assert below == pytest.approx(2 / 5, abs=1e-15)
        assert persistence_equal_mass(1.0) == pytest.approx(2 / 5, abs=1e-15)

    def test_large_kappa_limit(self):
        assert persistence_equal_mass(1e3) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("kappa", [1e100, 1e300])
    def test_huge_kappa_is_one_half(self, kappa):
        # k^4 overflows here; the ratio's limit is 1/2, not inf/inf
        assert abs(persistence_equal_mass(kappa) - 0.5) <= 1e-15
        assert abs(persistence_unequal_mass(kappa, 1.3, 1.3) - 0.5) <= 1e-15
        assert abs(persistence_unequal_mass(kappa, 1.0, 2.0) - 1 / 3) <= 1e-15

    def test_bounds_on_log_grid(self):
        for kappa in np.logspace(-3, 3, 200):
            ratio = persistence_equal_mass(float(kappa))
            assert 0.25 <= ratio <= 1.0

    def test_branch_continuity(self):
        eps = 1e-9
        left = persistence_equal_mass(1.0 - eps)
        right = persistence_equal_mass(1.0 + eps)
        assert abs(left - right) < 1e-8
        assert abs(persistence_equal_mass(1.0) - 0.4) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            persistence_equal_mass(0.0)
        with pytest.raises(ValueError):
            persistence_equal_mass(-1.0)
        with pytest.raises(ValueError,
                           match=r"^kappa must be positive \(got nan\)$"):
            persistence_equal_mass(np.nan)


class TestUnequalMass:
    def test_equal_masses_reduce(self):
        for kappa in (0.3, 1.0, 2.5):
            assert persistence_unequal_mass(kappa, 1.3, 1.3) == pytest.approx(
                persistence_equal_mass(kappa), rel=1e-15)

    @pytest.mark.parametrize("m1, m2", BAD_MASSES)
    def test_rejects_masses_not_positive(self, m1, m2):
        with pytest.raises(ValueError, match=rf"^masses must be positive "
                           rf"\(got {m1}, {m2}\)$"):
            persistence_unequal_mass(2.0, m1, m2)

    def test_light_partner_limit(self):
        ratio = persistence_unequal_mass(0.7, 1.0, 1e-6)
        assert ratio == pytest.approx(1.0, abs=1e-5)

    def test_floor_holds_pointwise(self):
        rng = np.random.default_rng(21)
        kappas = np.logspace(-3, 3, 60)
        for _ in range(100):
            m1, m2 = rng.uniform(0.05, 10.0, 2)
            floor = persistence_lower_bound(m1, m2)
            for kappa in kappas:
                assert persistence_unequal_mass(float(kappa), m1, m2) >= \
                    floor - 1e-14


class TestLowerBound:
    @pytest.mark.parametrize("m1,m2,expected", [
        (1.0, 1.0, 0.25),
        (2.0, 1.0, 0.5),
        (1.0, 2.0, 0.0),
    ])
    def test_values(self, m1, m2, expected):
        assert persistence_lower_bound(m1, m2) == pytest.approx(expected,
                                                                abs=1e-15)

    @pytest.mark.parametrize("m1, m2", BAD_MASSES)
    def test_rejects_masses_not_positive(self, m1, m2):
        with pytest.raises(ValueError, match=rf"^masses must be positive "
                           rf"\(got {m1}, {m2}\)$"):
            persistence_lower_bound(m1, m2)
