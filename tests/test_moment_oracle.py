"""Moment-space oracle for the homogeneous relaxation runs.

Each relaxation target is a function of the species' moments alone
(`target_moments`), and the relaxation operator is linear in f for
given targets.  So a homogeneous run's moments obey a closed system:
per species, with n, E1 = n u and E2 = P + m n u u^T, a target row
(n_t, u_t, Theta) adds rate (n_t u_t - E1) and
rate (n_t Theta + m n_t u_t u_t^T - E2), Theta = T I for a scalar
temperature.  Integrated with the kinetic integrator's own stages, that
system must reproduce `run_scenario`'s moments to round-off, since
moment matching makes every target's lattice moments the prescribed
ones.  A matched Maxwellian fixes only the trace of its lattice
pressure tensor, so P is compared only for the variants whose targets
are all Gaussians.
"""

import numpy as np
import pytest

from bgkmix.grid import MomentSet, VelocityGrid
from bgkmix.params import (EsParams, InteractionSpec, MixingParams,
                           ModelParams, SpeciesSpec, Variant,
                           derive_frequencies)
from bgkmix.solver import Scenario, SpeciesInit, run_scenario
from bgkmix.targets import MixtureState, target_moments

MASSES = (1.0, 2.0)
DT, STEPS = 0.05, 40
POINTS = {1: 48, 2: 36, 3: 24}
SHEAR = np.array([[1.4, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 0.7]])


def model(variant: Variant) -> ModelParams:
    return ModelParams(
        species1=SpeciesSpec(m=MASSES[0]), species2=SpeciesSpec(m=MASSES[1]),
        interaction=InteractionSpec(1.0, 0.5, 1.3, 0.7),
        mixing=MixingParams(delta=0.3, alpha=0.4, gamma=0.05),
        es=EsParams(variant, mu1=0.5, mu2=-0.3, mu12=0.4, mu21=0.2))


def to_moments(x, m, d) -> MomentSet:
    """The moment set of a species' moment vector x = (n, E1, E2)."""
    n, u = x[0], x[1:d + 1] / x[0]
    P = x[d + 1:].reshape(d, d) - m * n * np.outer(u, u)
    return MomentSet(n=n, u=u, T=np.trace(P) / (d * n), P=P)


def to_vector(n, u, temperature, m) -> np.ndarray:
    """(n, E1, E2) of moments (n, u, Theta), flattened."""
    theta = temperature * np.eye(len(u)) if np.ndim(temperature) == 0 \
        else temperature
    return np.concatenate(
        [[n], n * u, (n * theta + m * n * np.outer(u, u)).ravel()])


def rates_and_targets(M, params, d):
    """Per species (rows of M): the total rate, and the rate-weighted
    sum of its targets' moment vectors."""
    state = MixtureState(*MASSES, *(to_moments(x, m, d)
                                    for x, m in zip(M, MASSES)))
    freq, (n1, n2) = derive_frequencies(params.interaction), M[:, 0]
    rate = [freq.nu11 * n1, freq.nu22 * n2, freq.nu12 * n2, freq.nu21 * n1]
    nu_tot, weighted = np.zeros(2), np.zeros_like(M)
    for row, target in target_moments(state, params).items():
        nu_tot[row % 2] += rate[row]
        weighted[row % 2] += rate[row] * to_vector(*target, MASSES[row % 2])
    return nu_tot[:, None], weighted


def rk4_step(M, params, d):
    def rhs(M):
        nu_tot, weighted = rates_and_targets(M, params, d)
        return weighted - nu_tot * M

    k1 = rhs(M)
    k2 = rhs(M + 0.5 * DT * k1)
    k3 = rhs(M + 0.5 * DT * k2)
    k4 = rhs(M + DT * k3)
    return M + DT / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def exp_step(M, params, d):
    """M+ = M* + (M - M*) exp(-nu_tot dt), M* the rate-weighted target."""
    nu_tot, weighted = rates_and_targets(M, params, d)
    star = weighted / nu_tot
    return star + (M - star) * np.exp(-nu_tot * DT)


def kinetic_run(variant, d, integrator):
    grid = VelocityGrid(dim=d, vmin=-7.0, vmax=7.0, points=POINTS[d])
    scen = Scenario(
        params=model(variant), grid=grid,
        species1=SpeciesInit(n=1.0, u=(0.3, 0.1, -0.1)[:d],
                             tensor=SHEAR[:d, :d]),
        species2=SpeciesInit(n=0.7, u=(-0.2, 0.05, 0.0)[:d], T=1.2),
        dt=DT, t_end=DT * STEPS, integrator=integrator)
    return run_scenario(scen).records


def relative(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - want))
                 / np.max(np.abs(want)))


CASES = [(v, "rk4") for v in Variant] + [(Variant.BGK, "exp"),
                                         (Variant.ES_FULL_A, "exp")]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("variant,integrator", CASES,
                         ids=[f"{v.value}-{i}" for v, i in CASES])
def test_kinetic_moments_follow_the_moment_system(variant, integrator, d):
    records = kinetic_run(variant, d, integrator)
    assert len(records) == STEPS + 1
    params = model(variant)
    step = rk4_step if integrator == "rk4" else exp_step
    M = np.array([to_vector(mom.n, mom.u, mom.P / mom.n, m) for mom, m
                  in ((records[0].mom1, MASSES[0]),
                      (records[0].mom2, MASSES[1]))])
    full_es = variant in (Variant.ES_FULL_A, Variant.ES_FULL_B)
    for rec in records[1:]:
        M = step(M, params, d)
        for kin, x, m in zip((rec.mom1, rec.mom2), M, MASSES):
            ode = to_moments(x, m, d)
            assert relative(kin.n, ode.n) <= 1e-13
            assert relative(kin.u, ode.u) <= 1e-13
            assert relative(kin.T, ode.T) <= 1e-13
            if full_es:
                assert relative(kin.P, ode.P) <= 1e-13
