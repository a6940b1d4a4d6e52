"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import time
from contextlib import contextmanager

import numpy as np

from bgkmix import chapman
from bgkmix.grid import (VelocityGrid, match_moments, maxwellian_on_grid,
                         moments, spd_factor)
from bgkmix.params import (EsParams, InteractionSpec, MixingParams,
                           ModelParams, SpeciesSpec, Variant, delta_interval,
                           derive_frequencies, gamma_bound_expression,
                           validate)
from bgkmix.persistence import (persistence_equal_mass,
                                persistence_lower_bound,
                                persistence_unequal_mass)
from bgkmix.solver import Scenario, SpeciesInit, run_scenario
from bgkmix.targets import (MixtureState, build_targets, es_tensor_self,
                            mixture_temperatures)
from bgkmix.grid import MomentSet

from conftest import node_coordinates


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[{num:2d}] {name}: FAIL")
        raise
    print(f"[{num:2d}] {name}: PASS")


def model(m1=1.0, m2=1.0, nu12=1.0, epsilon=1.0, beta1=1.0, beta2=1.0,
          delta=0.5, alpha=0.5, gamma=0.0, variant=Variant.BGK, **mus):
    return ModelParams(
        species1=SpeciesSpec(m=m1), species2=SpeciesSpec(m=m2),
        interaction=InteractionSpec(nu12, epsilon, beta1, beta2),
        mixing=MixingParams(delta=delta, alpha=alpha, gamma=gamma),
        es=EsParams(variant=variant, **mus))


# Balanced interaction frequencies (nu_tot identical for both species) and
# equal densities: the frozen-target update then cancels the exchange
# terms exactly and the combination weight equals the mass ratio.
BALANCED = dict(m1=1.0, m2=2.0, nu12=1.0, epsilon=1.0, beta1=1.0, beta2=1.0,
                delta=0.3, alpha=0.4, gamma=0.05)


def test_01_conservation_suite(ref_grid):
    with criterion(1, "conservation (homogeneous BGK, 200 EXP steps)"):
        start = time.time()
        scen = Scenario(
            params=model(**BALANCED), grid=ref_grid,
            species1=SpeciesInit(n=1.0, u=(0.2, 0.0, 0.0), T=1.0),
            species2=SpeciesInit(n=1.0, u=(-0.1, 0.05, 0.0), T=1.2),
            dt=0.05, t_end=10.0, output_every=10, integrator="exp",
            moment_matching=True)
        diag = run_scenario(scen)
        r0 = diag.records[0]
        pscale = float(np.linalg.norm(r0.momentum))
        for r in diag.records[1:]:
            assert abs(r.mass1 - r0.mass1) < 1e-10 * r0.mass1
            assert abs(r.mass2 - r0.mass2) < 1e-10 * r0.mass2
            assert np.max(np.abs(r.momentum - r0.momentum)) < 1e-10 * pscale
            assert abs(r.energy - r0.energy) < 1e-10 * r0.energy
        assert time.time() - start < 60.0


def test_02_h_theorem():
    with criterion(2, "H nonincreasing for 5 random admissible BGK runs"):
        rng = np.random.default_rng(2024)
        grid = VelocityGrid(dim=3, vmin=-8.0, vmax=8.0, points=24)
        for _ in range(5):
            m1, m2 = rng.uniform(0.5, 2.5, 2)
            eps = rng.uniform(0.3, 1.0)
            beta1, beta2 = rng.uniform(0.5, 2.0, 2)
            lo, _ = delta_interval(m1, m2, eps)
            delta = rng.uniform(lo, 1.0)
            bound = gamma_bound_expression(delta, m1, m2, eps)
            gamma = rng.uniform(0.0, 0.8 * bound) if bound > 0 else 0.0
            params = model(m1=m1, m2=m2, epsilon=eps, beta1=beta1,
                           beta2=beta2, delta=delta,
                           alpha=rng.uniform(0, 1), gamma=gamma)
            assert validate(params) == []
            scen = Scenario(
                params=params, grid=grid,
                species1=SpeciesInit(n=rng.uniform(0.5, 1.5),
                                     u=tuple(rng.uniform(-0.3, 0.3, 3)),
                                     T=rng.uniform(0.9, 1.3)),
                species2=SpeciesInit(n=rng.uniform(0.5, 1.5),
                                     u=tuple(rng.uniform(-0.3, 0.3, 3)),
                                     T=rng.uniform(0.9, 1.3)),
                dt=0.05, t_end=3.0, output_every=1, integrator="exp")
            diag = run_scenario(scen)
            h = np.array([r.h for r in diag.records])
            assert np.all(np.diff(h) <= 1e-9)


def test_03_equilibrium_characterization(mid_grid):
    with criterion(3, "equilibrium matches conservation prediction"):
        params = model(**BALANCED)
        rates = chapman.analytic_rates(1.0, BALANCED["delta"],
                                       BALANCED["alpha"], 1.0, 1.0, 1.0, 2.0)
        t_end = 20.0 / min(rates.lambda_u, rates.lambda_T)
        scen = Scenario(
            params=params, grid=mid_grid,
            species1=SpeciesInit(n=1.0, u=(0.2, 0.0, 0.0), T=1.0),
            species2=SpeciesInit(n=1.0, u=(-0.1, 0.05, 0.0), T=1.2),
            dt=0.05, t_end=t_end, output_every=50, integrator="exp")
        diag = run_scenario(scen)
        assert diag.velocity_gap()[-1] < 1e-8
        assert diag.temperature_gap()[-1] < 1e-8
        r0, rN = diag.records[0], diag.records[-1]
        m1, m2 = 1.0, 2.0
        mtot = m1 * r0.mass1 + m2 * r0.mass2
        u_pred = r0.momentum / mtot
        T_pred = (r0.energy - 0.5 * mtot * float(u_pred @ u_pred)) \
            / (1.5 * (r0.mass1 + r0.mass2))
        for mom in (rN.mom1, rN.mom2):
            assert np.max(np.abs(mom.u - u_pred)) < 1e-6
            assert abs(mom.T - T_pred) < 1e-6
        # the leading-order common values agree for this balanced bundle
        A = chapman.combination_weight(m1, m2, 1.0, 1.0, 1.0,
                                       r0.mom1.n, r0.mom2.n)
        eq = chapman.common_equilibrium(
            A, MixtureState(m1=m1, m2=m2, mom1=r0.mom1, mom2=r0.mom2))
        assert np.max(np.abs(eq.u - u_pred)) < 1e-6
        assert abs(eq.T - T_pred) < 1e-6


RATE_GRID = dict(dim=3, vmin=-8.0, vmax=8.0, points=12)

VELOCITY_BUNDLES = [
    dict(m1=1.0, m2=1.0, nu12=1.0, epsilon=1.0, beta1=1.0, beta2=1.0,
         delta=0.0, alpha=0.5, n1=1.0, n2=1.0),
    dict(m1=1.0, m2=2.0, nu12=1.0, epsilon=0.5, beta1=2.0, beta2=1.0,
         delta=0.4, alpha=0.5, n1=1.0, n2=1.0),
    dict(m1=2.0, m2=1.0, nu12=1.0, epsilon=0.8, beta1=1.0, beta2=3.0,
         delta=0.5, alpha=0.5, n1=1.2, n2=0.8),
]


def _rate_scenario(bundle, mode, alpha=None):
    params = model(m1=bundle["m1"], m2=bundle["m2"], nu12=bundle["nu12"],
                   epsilon=bundle["epsilon"], beta1=bundle["beta1"],
                   beta2=bundle["beta2"], delta=bundle["delta"],
                   alpha=bundle["alpha"] if alpha is None else alpha,
                   gamma=0.0)
    n1, n2 = bundle["n1"], bundle["n2"]
    rates = chapman.analytic_rates(bundle["nu12"], params.mixing.delta,
                                   params.mixing.alpha, n1, n2,
                                   bundle["m1"], bundle["m2"])
    lam = rates.lambda_u if mode == "velocity" else rates.lambda_T
    if mode == "velocity":
        gap = 1e-3 * min((1.0 / bundle["m1"]) ** 0.5,
                         (1.0 / bundle["m2"]) ** 0.5)
        sp1 = SpeciesInit(n=n1, u=(0.5 * gap, 0, 0), T=1.0)
        sp2 = SpeciesInit(n=n2, u=(-0.5 * gap, 0, 0), T=1.0)
    else:
        sp1 = SpeciesInit(n=n1, u=(0.1, 0, 0), T=1.0 + 5e-4)
        sp2 = SpeciesInit(n=n2, u=(0.1, 0, 0), T=1.0 - 5e-4)
    freq = derive_frequencies(params.interaction)
    nu_max = max(freq.nu11 * n1 + freq.nu12 * n2,
                 freq.nu22 * n2 + freq.nu21 * n1)
    # RK4's rate bias is O((lam dt)^4), far below the 1% tolerance here
    dt = min(0.4 / nu_max, 0.25 / lam)
    scen = Scenario(params=params, grid=VelocityGrid(**RATE_GRID),
                    species1=sp1, species2=sp2, dt=dt, t_end=14.0 / lam,
                    output_every=1, integrator="rk4")
    return scen, lam


def test_04_velocity_rate_oracle():
    with criterion(4, "fitted |u1-u2| decay matches nu12(1-delta)(n2+m1/m2 n1)"):
        for bundle in VELOCITY_BUNDLES:
            scen, lam = _rate_scenario(bundle, "velocity")
            diag = run_scenario(scen)
            fitted = chapman.fit_decay_rate(diag.times, diag.velocity_gap())
            assert abs(fitted - lam) < 0.01 * lam


def test_05_temperature_rate_oracle():
    with criterion(5, "fitted |T1-T2| decay matches nu12(1-alpha)(n1+n2)"):
        for bundle, alpha in zip(VELOCITY_BUNDLES, (0.5, 0.2, 0.7)):
            scen, lam = _rate_scenario(bundle, "temperature", alpha=alpha)
            diag = run_scenario(scen)
            fitted = chapman.fit_decay_rate(diag.times,
                                            diag.temperature_gap())
            assert abs(fitted - lam) < 0.01 * lam


def test_06_es_shear_rate():
    with criterion(6, "single-species ES shear decay matches nu n (1-mu)"):
        grid = VelocityGrid(**RATE_GRID)
        for mu in (-0.5, 0.0, 0.5):
            params = model(variant=Variant.ES_SELF_ONLY, mu1=mu)
            lam = chapman.analytic_rates(1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0,
                                         nu=1.0, n=1.0, mu=mu).lambda_shear
            scen = Scenario(
                params=params, grid=grid,
                species1=SpeciesInit(n=1.0, u=(0, 0, 0), T=1.0,
                                     tensor=np.diag([1.2, 1.0, 0.8])),
                species2=None,
                dt=min(0.4, 0.25 / lam), t_end=14.0 / lam, output_every=1,
                integrator="rk4")
            diag = run_scenario(scen)
            fitted = chapman.fit_decay_rate(diag.times, diag.anisotropy(1))
            assert abs(fitted - lam) < 0.02 * lam


def test_07_bgk_reduction(ref_grid):
    with criterion(7, "ES self targets with mu=0 equal BGK targets"):
        f1 = match_moments(1.0, (0.3, 0, 0), 1.0, 1.0, ref_grid)
        f2 = match_moments(0.8, (-0.2, 0.1, 0), 1.3, 2.0, ref_grid)
        st = MixtureState.from_distributions(np.array([f1, f2]), 1.0, 2.0,
                                             ref_grid)
        bgk = build_targets(st, model(m2=2.0, variant=Variant.BGK), ref_grid)
        es = build_targets(st, model(m2=2.0, variant=Variant.ES_SELF_ONLY,
                                     mu1=0.0, mu2=0.0), ref_grid)
        for a, b in zip(bgk, es):
            assert np.max(np.abs(a - b)) < 1e-12


def test_08_positivity_region():
    with criterion(8, "cross temperature positive inside the (delta,gamma) region"):
        rng = np.random.default_rng(88)
        for _ in range(10_000):
            m1, m2 = rng.uniform(0.1, 10.0, 2)
            eps = rng.uniform(0.02, 1.0)
            lo, _ = delta_interval(m1, m2, eps)
            delta = rng.uniform(lo, 1.0)
            bound = gamma_bound_expression(delta, m1, m2, eps)
            gamma = rng.uniform(0.0, bound) if bound > 0 else 0.0
            alpha = rng.uniform(0.0, 1.0)
            st = MixtureState(
                m1=m1, m2=m2,
                mom1=MomentSet(n=1.0, u=rng.normal(0, 2, 3),
                               T=rng.uniform(0.0, 3.0)),
                mom2=MomentSet(n=1.0, u=rng.normal(0, 2, 3),
                               T=rng.uniform(0.0, 3.0)))
            _, T21 = mixture_temperatures(st, alpha, gamma, delta, eps)
            assert T21 >= -1e-13
        # just outside: gamma over the bound by a 1e-3 m1 margin is
        # rejected, and would push T21 negative in the cold-drift limit
        for _ in range(1_000):
            m1, m2 = rng.uniform(0.1, 10.0, 2)
            eps = rng.uniform(0.02, 1.0)
            lo, _ = delta_interval(m1, m2, eps)
            delta = rng.uniform(lo, 1.0)
            bound = gamma_bound_expression(delta, m1, m2, eps)
            gamma = bound + 1e-3 * m1
            params = model(m1=m1, m2=m2, epsilon=eps, delta=delta,
                           alpha=0.5, gamma=gamma)
            violations = validate(params)
            assert any("gamma" in v for v in violations)
            cold = MixtureState(
                m1=m1, m2=m2,
                mom1=MomentSet(n=1.0, u=np.array([1.0, 0, 0]), T=0.0),
                mom2=MomentSet(n=1.0, u=np.array([-1.0, 0, 0]), T=0.0))
            _, T21 = mixture_temperatures(cold, 0.5, gamma, delta, eps)
            assert T21 < 0.0


def test_09_spd_family(small_grid):
    with criterion(9, "self tensors positive definite for positive states"):
        rng = np.random.default_rng(99)
        mus = np.linspace(-0.5, 1.0, 7)
        for _ in range(1_000):
            f = rng.uniform(1e-4, 1.0, small_grid.nnodes)
            mom = moments(f, rng.uniform(0.3, 3.0), small_grid)
            for mu in mus:
                spd = spd_factor(es_tensor_self(mom.T, mom.P, mom.n, mu))
                assert np.all(np.diag(spd.chol) > 0.0)


def test_10_combination_moments(mid_grid):
    with criterion(10, "moments of A f1 + f2 match the closed forms"):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            m1, m2 = rng.uniform(0.8, 1.25, 2)
            f1 = maxwellian_on_grid(rng.uniform(0.3, 2.0),
                                    rng.uniform(-0.3, 0.3, 3),
                                    rng.uniform(0.7, 1.3), m1, mid_grid)
            f2 = maxwellian_on_grid(rng.uniform(0.3, 2.0),
                                    rng.uniform(-0.3, 0.3, 3),
                                    rng.uniform(0.7, 1.3), m2, mid_grid)
            mom1 = moments(f1, m1, mid_grid)
            mom2 = moments(f2, m2, mid_grid)
            A = chapman.combination_weight(m1, m2, rng.uniform(0.2, 1.0),
                                           rng.uniform(0.5, 2.0),
                                           rng.uniform(0.5, 2.0),
                                           mom1.n, mom2.n)
            zm = chapman.zeroth_moments(
                A, MixtureState(m1=m1, m2=m2, mom1=mom1, mom2=mom2))
            comb = A * f1 + f2
            w = mid_grid.weight
            n0 = w * comb.sum()
            u0 = w * (comb @ node_coordinates(mid_grid)) / n0
            c = node_coordinates(mid_grid) - u0
            T0 = w * float(np.sum(np.einsum("ni,ni->n", c, c) * comb)) \
                / (3.0 * n0)
            assert abs(n0 - zm.n0) < 1e-8 * zm.n0
            assert np.max(np.abs(u0 - zm.u0)) < 1e-8
            assert abs(T0 - zm.T0_over_m0) < 1e-8


def test_11_persistence():
    with criterion(11, "persistence ratio bounds and the kappa=1 value"):
        kappas = np.logspace(-3.0, 3.0, 200)
        for kappa in kappas:
            ratio = persistence_equal_mass(float(kappa))
            assert 0.25 <= ratio <= 1.0
        assert abs(persistence_equal_mass(1.0) - 0.4) < 1e-12
        rng = np.random.default_rng(1111)
        for _ in range(100):
            m1, m2 = rng.uniform(0.05, 10.0, 2)
            floor = persistence_lower_bound(m1, m2)
            for kappa in kappas:
                assert persistence_unequal_mass(float(kappa), m1, m2) >= \
                    floor - 1e-14


def test_12_heat_flux_zeroth_order(ref_grid):
    with criterion(12, "drifting-Maxwellian energy flux and its discrepancy"):
        n, T, m = 1.0, 1.0, 1.0
        u = np.array([0.2, 0.0, 0.0])
        f = maxwellian_on_grid(n, u, T, m, ref_grid)
        chk = chapman.heat_flux_check(f, m, ref_grid)
        expected = 2.5 * n * (T / m) * u + 0.5 * n * float(u @ u) * u
        assert np.max(np.abs(chk.quadrature - expected)) < 1e-8
        assert np.max(np.abs(chk.discrepancy - 2.0 * n * float(u @ u) * u)) \
            < 1e-8
