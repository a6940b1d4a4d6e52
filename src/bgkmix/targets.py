"""Interspecies interpolation quantities and relaxation-target assembly.

The cross targets interpolate the two species' moments so that the
relaxation operator conserves total momentum and energy exactly:

    u12 = delta u1 + (1 - delta) u2
    u21 = u2 - (m1/m2) eps (1 - delta) (u2 - u1)
    T12 = alpha T1 + (1 - alpha) T2 + gamma |u1 - u2|^2
    T21 = ea T1 + (1 - ea) T2 + eps (3/d g - gamma) |u1 - u2|^2

with ea = eps (1 - alpha), d the grid dimension (the lattice normalises
T by d) and g = `params.gamma_bound_expression`: the T21 drift
coefficient is nonnegative up to the gamma bound, zero on it in 3-D.
Each ES tensor is its BGK temperature times I plus weighted traceless
deviators D_k = P_k / n_k - T_k I, so its trace is d times that T:

    self        T_k I + mu_k D_k
    es-full-a   T12 I + mu12 (alpha D1 + (1 - alpha) D2),
                T21 I + mu21 (ea D1 + (1 - ea) D2)
    es-full-b   T12 I + alpha D1,   T21 I + (1 - ea) D2

Every function is pure; target evaluation over grid nodes is data
parallel if a caller wants it to be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .errors import DegenerateDensityError
from .grid import (MomentSet, SpdTensor, VelocityGrid, gaussian_on_grid,
                   match_gaussian, match_moments, maxwellian_on_grid,
                   spd_factor)
from .params import ModelParams, Variant, gamma_bound_expression


@dataclass
class MixtureState:
    """Per-species moments plus masses; a degenerate species is None."""

    m1: float
    m2: float
    mom1: MomentSet | None
    mom2: MomentSet | None

    @classmethod
    def from_distributions(cls, f1, f2, m1: float, m2: float,
                           grid: VelocityGrid) -> "MixtureState":
        def mom(f, mass):
            try:
                return gridmod.moments(f, mass, grid)
            except DegenerateDensityError:
                return None

        return cls(m1=m1, m2=m2, mom1=mom(f1, m1), mom2=mom(f2, m2))


def mixture_velocities(state: MixtureState, delta: float,
                       epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Cross-target velocities (u12, u21)."""
    u1, u2 = state.mom1.u, state.mom2.u
    u12 = delta * u1 + (1.0 - delta) * u2
    u21 = u2 - (state.m1 / state.m2) * epsilon * (1.0 - delta) * (u2 - u1)
    return u12, u21


def _t21_drift_coeff(m1: float, m2: float, epsilon: float, delta: float,
                     gamma: float, d: int) -> float:
    return epsilon * (3.0 / d * gamma_bound_expression(delta, m1, m2, epsilon)
                      - gamma)


def _cross_weights(alpha: float, epsilon: float) -> tuple[float, float]:
    """Species-1 weights (alpha, ea) of the 12 and 21 temperature mixes."""
    return alpha, epsilon * (1.0 - alpha)


def mixture_temperatures(state: MixtureState, alpha: float, gamma: float,
                         delta: float, epsilon: float) -> tuple[float, float]:
    """Cross-target temperatures (T12, T21).

    Admissible (delta, gamma) make the drift coefficient of T21
    nonnegative, so T21 >= 0 whenever T1, T2 >= 0.
    """
    T1, T2 = state.mom1.T, state.mom2.T
    du2 = float(np.sum((state.mom1.u - state.mom2.u) ** 2))
    w12, w21 = _cross_weights(alpha, epsilon)
    T12 = w12 * T1 + (1.0 - w12) * T2 + gamma * du2
    d = len(state.mom1.u)
    T21 = (_t21_drift_coeff(state.m1, state.m2, epsilon, delta, gamma, d)
           * du2 + w21 * T1 + (1.0 - w21) * T2)
    return T12, T21


def _deviator(T: float, P: np.ndarray, n: float) -> np.ndarray:
    """Traceless part P / n - T I of a species' pressure tensor."""
    return P / n - T * np.eye(len(P))


def es_tensor_self(T: float, P: np.ndarray, n: float, mu: float) -> SpdTensor:
    """Self-relaxation tensor T I + mu (P / n - T I).

    Positive definite for any distribution with positive density and
    mu in [-1/2, 1]; trace equals d T for every mu.
    """
    return spd_factor(T * np.eye(len(P)) + mu * _deviator(T, P, n))


def es_tensor_cross(state: MixtureState,
                    params: ModelParams) -> tuple[SpdTensor, SpdTensor]:
    """Cross-relaxation tensors for the two full ES variants.

    Each is the scalar cross temperature times I plus the deviators,
    mixed with the scalar mix's species-1 weights (alpha, ea): variant A
    scales that mix by mu12 / mu21, variant B keeps only the deviator of
    the species the target relaxes.  The traces are d T12 and d T21 for
    any densities, so the scalar exchange identities still hold.
    """
    mix, es, eps = params.mixing, params.es, params.interaction.epsilon
    T12, T21 = mixture_temperatures(state, mix.alpha, mix.gamma, mix.delta,
                                    eps)
    w12, w21 = _cross_weights(mix.alpha, eps)
    D1, D2 = (_deviator(m.T, m.P, m.n) for m in (state.mom1, state.mom2))
    if es.variant == Variant.ES_FULL_A:
        dev12 = es.mu12 * (w12 * D1 + (1.0 - w12) * D2)
        dev21 = es.mu21 * (w21 * D1 + (1.0 - w21) * D2)
    elif es.variant == Variant.ES_FULL_B:
        dev12, dev21 = w12 * D1, (1.0 - w21) * D2
    else:
        raise ValueError(f"cross tensors are defined for the full ES "
                         f"variants only (got {es.variant})")
    eye = np.eye(len(D1))
    return spd_factor(T12 * eye + dev12), spd_factor(T21 * eye + dev21)


@dataclass
class TargetSet:
    """Self targets g1 / g2 and the cross targets g12 / g21 that enter
    the species 1 / species 2 equations."""

    g1: np.ndarray
    g2: np.ndarray
    g12: np.ndarray
    g21: np.ndarray


def build_targets(state: MixtureState, params: ModelParams,
                  grid: VelocityGrid, match: bool = True) -> TargetSet:
    """Assemble the four targets for the configured model variant.

    A scalar temperature gives a Maxwellian target and an `SpdTensor` a
    Gaussian.  With `match` the discrete targets are Newton-corrected so
    their quadrature moments equal the prescribed values, which makes
    the discrete conservation identities machine-tight.  Cross-target
    densities are the owning species' densities by construction.
    """
    es = params.es
    zeros = np.zeros(grid.nnodes)

    def sample(n, u, temperature, mass):
        if isinstance(temperature, SpdTensor):
            fn = match_gaussian if match else gaussian_on_grid
        else:
            fn = match_moments if match else maxwellian_on_grid
        return fn(n, u, temperature, mass, grid)

    def self_target(mom, mass, mu):
        if mom is None:
            return zeros
        temperature = (mom.T if es.variant == Variant.BGK
                       else es_tensor_self(mom.T, mom.P, mom.n, mu))
        return sample(mom.n, mom.u, temperature, mass)

    g1 = self_target(state.mom1, state.m1, es.mu1)
    g2 = self_target(state.mom2, state.m2, es.mu2)

    if state.mom1 is not None and state.mom2 is not None:
        mix, eps = params.mixing, params.interaction.epsilon
        u12, u21 = mixture_velocities(state, mix.delta, eps)
        if es.variant in (Variant.ES_FULL_A, Variant.ES_FULL_B):
            t12, t21 = es_tensor_cross(state, params)
        else:
            t12, t21 = mixture_temperatures(state, mix.alpha, mix.gamma,
                                            mix.delta, eps)
        g12 = sample(state.mom1.n, u12, t12, state.m1)
        g21 = sample(state.mom2.n, u21, t21, state.m2)
    else:
        # Coupling terms carry a factor of the partner density, which is
        # zero here, so inert placeholder targets are never used.
        g12, g21 = zeros, zeros

    return TargetSet(g1=g1, g2=g2, g12=g12, g21=g21)
