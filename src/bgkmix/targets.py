"""Interspecies interpolation quantities and relaxation-target assembly.

The cross-target velocity and temperature are interpolations of the two
species' moments, tuned so that the relaxation operator conserves total
momentum and total energy exactly:

    u12 = delta u1 + (1 - delta) u2
    u21 = u2 - (m1/m2) eps (1 - delta) (u2 - u1)
    T12 = alpha T1 + (1 - alpha) T2 + gamma |u1 - u2|^2
    T21 = [eps m1 (1-delta)((m1/m2) eps (delta-1) + delta + 1)/d - eps gamma]
          |u1 - u2|^2 + eps (1-alpha) T1 + (1 - eps (1-alpha)) T2

with d the grid dimension, since the lattice normalises T by d.

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
from .params import ModelParams, Variant


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
    q = (m1 / m2) * epsilon
    return (epsilon * m1 * (1.0 - delta)
            * (q * (delta - 1.0) + delta + 1.0) / d) - epsilon * gamma


def mixture_temperatures(state: MixtureState, alpha: float, gamma: float,
                         delta: float, epsilon: float) -> tuple[float, float]:
    """Cross-target temperatures (T12, T21).

    Admissible (delta, gamma) make the drift coefficient of T21
    nonnegative, so T21 >= 0 whenever T1, T2 >= 0.
    """
    T1, T2 = state.mom1.T, state.mom2.T
    du2 = float(np.sum((state.mom1.u - state.mom2.u) ** 2))
    T12 = alpha * T1 + (1.0 - alpha) * T2 + gamma * du2
    ea = epsilon * (1.0 - alpha)
    d = len(state.mom1.u)
    T21 = (_t21_drift_coeff(state.m1, state.m2, epsilon, delta, gamma, d)
           * du2 + ea * T1 + (1.0 - ea) * T2)
    return T12, T21


def es_tensor_self(T: float, P: np.ndarray, n: float, mu: float) -> SpdTensor:
    """Self-relaxation tensor (1 - mu) T I + mu P / n.

    Positive definite for any distribution with positive density and
    mu in [-1/2, 1]; trace equals d T for every mu.
    """
    d = P.shape[0]
    return spd_factor((1.0 - mu) * T * np.eye(d) + mu * P / n)


def es_tensor_cross(state: MixtureState, params: ModelParams,
                    variant: Variant | None = None
                    ) -> tuple[SpdTensor, SpdTensor]:
    """Cross-relaxation tensors for the two full ES variants.

    Variant A mixes scalar and tensor parts with independent weights
    mu12 / mu21; variant B replaces only the partner species' scalar
    temperature by its pressure tensor.  Each pressure tensor is divided
    by its own species' density, so both trace back to the scalar cross
    temperatures for any densities and the scalar exchange identities
    still hold.  The drift heating enters as a multiple of the identity
    in all cases.
    """
    variant = variant or params.es.variant
    mix, es, inter = params.mixing, params.es, params.interaction
    alpha, gamma, delta, eps = mix.alpha, mix.gamma, mix.delta, inter.epsilon
    mom1, mom2 = state.mom1, state.mom2
    d = mom1.P.shape[0]
    eye = np.eye(d)
    du2 = float(np.sum((mom1.u - mom2.u) ** 2))
    drift12 = gamma * du2
    drift21 = _t21_drift_coeff(state.m1, state.m2, eps, delta, gamma,
                               d) * du2
    ea = eps * (1.0 - alpha)
    if variant == Variant.ES_FULL_A:
        scal12 = alpha * mom1.T + (1.0 - alpha) * mom2.T
        tens12 = alpha * mom1.P / mom1.n + (1.0 - alpha) * mom2.P / mom2.n
        t12 = ((1.0 - es.mu12) * scal12 * eye + es.mu12 * tens12
               + drift12 * eye)
        scal21 = (1.0 - ea) * mom2.T + ea * mom1.T
        tens21 = (1.0 - ea) * mom2.P / mom2.n + ea * mom1.P / mom1.n
        t21 = ((1.0 - es.mu21) * scal21 * eye + es.mu21 * tens21
               + drift21 * eye)
    elif variant == Variant.ES_FULL_B:
        t12 = alpha * mom1.P / mom1.n + (1.0 - alpha) * mom2.T * eye \
            + drift12 * eye
        t21 = (1.0 - ea) * mom2.P / mom2.n + ea * mom1.T * eye \
            + drift21 * eye
    else:
        raise ValueError(f"cross tensors are defined for the full ES "
                         f"variants only (got {variant})")
    return spd_factor(t12), spd_factor(t21)


@dataclass
class TargetSet:
    """The four relaxation targets plus the parameters they encode.

    g1 / g2 are the self targets, g12 / g21 the cross targets entering
    the species 1 / species 2 equations.  Cross quantities are None when
    a species is degenerate (its coupling coefficient vanishes then).
    """

    g1: np.ndarray
    g2: np.ndarray
    g12: np.ndarray
    g21: np.ndarray
    u12: np.ndarray | None = None
    u21: np.ndarray | None = None
    T12: float | None = None
    T21: float | None = None


def build_targets(state: MixtureState, params: ModelParams,
                  grid: VelocityGrid, match: bool = True) -> TargetSet:
    """Assemble the four targets for the configured model variant.

    With `match` the discrete targets are Newton-corrected so their
    quadrature moments equal the prescribed values, which makes the
    discrete conservation identities machine-tight.  Cross-target
    densities are the owning species' densities by construction.
    """
    es = params.es
    mix, inter = params.mixing, params.interaction
    zeros = np.zeros(grid.nnodes)

    def maxw(n, u, T, mass):
        if match:
            return match_moments(n, u, T, mass, grid)
        return maxwellian_on_grid(n, u, T, mass, grid)

    def gauss(n, u, tensor, mass):
        if match:
            return match_gaussian(n, u, tensor, mass, grid)
        return gaussian_on_grid(n, u, tensor, mass, grid)

    out_kwargs: dict = {}

    def self_target(mom, mass, mu):
        if mom is None:
            return zeros
        if es.variant == Variant.BGK:
            return maxw(mom.n, mom.u, mom.T, mass)
        return gauss(mom.n, mom.u, es_tensor_self(mom.T, mom.P, mom.n, mu),
                     mass)

    g1 = self_target(state.mom1, state.m1, es.mu1)
    g2 = self_target(state.mom2, state.m2, es.mu2)

    if state.mom1 is not None and state.mom2 is not None:
        u12, u21 = mixture_velocities(state, mix.delta, inter.epsilon)
        T12, T21 = mixture_temperatures(state, mix.alpha, mix.gamma,
                                        mix.delta, inter.epsilon)
        out_kwargs = dict(u12=u12, u21=u21, T12=T12, T21=T21)
        if es.variant in (Variant.ES_FULL_A, Variant.ES_FULL_B):
            t12, t21 = es_tensor_cross(state, params)
            g12 = gauss(state.mom1.n, u12, t12, state.m1)
            g21 = gauss(state.mom2.n, u21, t21, state.m2)
        else:
            g12 = maxw(state.mom1.n, u12, T12, state.m1)
            g21 = maxw(state.mom2.n, u21, T21, state.m2)
    else:
        # Coupling terms carry a factor of the partner density, which is
        # zero here, so inert placeholder targets are never used.
        g12, g21 = zeros, zeros

    return TargetSet(g1=g1, g2=g2, g12=g12, g21=g21, **out_kwargs)
