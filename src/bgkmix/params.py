"""Model parameters, derived collision frequencies and admissibility bounds.

All records are immutable; every function here is pure, so the module is
safe to use from any number of concurrent tasks.  Temperatures absorb the
Boltzmann constant throughout the package (energy units).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum


class Variant(str, Enum):
    """Relaxation-target family.

    BGK          : all four targets are Maxwellians.
    ES_SELF_ONLY : self targets are anisotropic Gaussians, cross targets
                   stay Maxwellian.
    ES_FULL_A    : all targets Gaussian; cross tensors mix scalar and
                   tensor parts with their own weights mu12 / mu21.
    ES_FULL_B    : all targets Gaussian; cross tensors keep one species'
                   pressure tensor and the other species' scalar
                   temperature (persistence-of-velocity motivated).
    """

    BGK = "bgk"
    ES_SELF_ONLY = "es-self"
    ES_FULL_A = "es-full-a"
    ES_FULL_B = "es-full-b"


@dataclass(frozen=True)
class SpeciesSpec:
    """One species: particle mass (model units)."""

    m: float


@dataclass(frozen=True)
class InteractionSpec:
    """Collision-frequency coefficients.

    nu12 couples species 1 to species 2 (per unit partner density);
    epsilon = nu12/nu21 in (0, 1]; beta1, beta2 scale the intraspecies
    frequencies, nu11 = beta1*nu12 and nu22 = beta2*nu21.
    """

    nu12: float
    epsilon: float
    beta1: float
    beta2: float


@dataclass(frozen=True)
class MixingParams:
    """Free interpolation parameters of the interspecies targets.

    delta weights the cross-target velocity, alpha in [0, 1] weights the
    cross-target temperature, gamma >= 0 (mass units) converts relative
    drift into cross-target heating.
    """

    delta: float
    alpha: float
    gamma: float


@dataclass(frozen=True)
class EsParams:
    """Ellipsoidal-statistical weights, each constrained to [-1/2, 1].

    mu12 / mu21 are consumed only by the ES_FULL_A variant.
    """

    variant: Variant = Variant.BGK
    mu1: float = 0.0
    mu2: float = 0.0
    mu12: float = 0.0
    mu21: float = 0.0


@dataclass(frozen=True)
class ModelParams:
    """Complete parameter bundle for a two-species run."""

    species1: SpeciesSpec
    species2: SpeciesSpec
    interaction: InteractionSpec
    mixing: MixingParams
    es: EsParams = field(default_factory=EsParams)


Frequencies = namedtuple("Frequencies", "nu11 nu12 nu21 nu22")

MU_LO, MU_HI = -0.5, 1.0


def _positive(x: float) -> bool:
    """x is finite and positive; NaN and inf are not."""
    return math.isfinite(x) and x > 0.0


def derive_frequencies(inter: InteractionSpec) -> Frequencies:
    """All four collision-frequency coefficients from the three ratios.

    nu21 = nu12/epsilon, nu11 = beta1*nu12, nu22 = beta2*nu21.
    """
    if not 0.0 < inter.epsilon <= 1.0:
        raise ValueError(f"epsilon out of range (0, 1]: {inter.epsilon}")
    if not _positive(inter.nu12):
        raise ValueError(f"nu12 must be finite and positive: {inter.nu12}")
    if not (_positive(inter.beta1) and _positive(inter.beta2)):
        raise ValueError(f"beta1, beta2 must be finite and positive: "
                         f"{inter.beta1}, {inter.beta2}")
    nu21 = inter.nu12 / inter.epsilon
    return Frequencies(nu11=inter.beta1 * inter.nu12,
                       nu12=inter.nu12,
                       nu21=nu21,
                       nu22=inter.beta2 * nu21)


def delta_interval(m1: float, m2: float, epsilon: float) -> tuple[float, float]:
    """Closed admissible interval for delta.

    Positivity of the cross-target temperatures requires
    (epsilon*m1/m2 - 1)/(1 + epsilon*m1/m2) <= delta <= 1.
    """
    if not (_positive(m1) and _positive(m2)):
        raise ValueError(f"masses must be finite and positive: {m1}, {m2}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon out of range (0, 1]: {epsilon}")
    q = epsilon * m1 / m2
    return (q - 1.0) / (1.0 + q), 1.0


def gamma_bound_expression(delta: float, m1: float, m2: float,
                           epsilon: float) -> float:
    """Raw upper-bound expression for gamma, valid for any delta.

    (m1/3)(1-delta)[(1 + epsilon*m1/m2)delta + 1 - epsilon*m1/m2].
    Nonnegative exactly on the admissible delta interval, negative
    immediately outside it.  This is the 3-D bound: on a d-dimensional
    lattice the T21 drift coefficient divides by d instead of 3, so for
    d < 3 the bound is stricter than needed and T21 >= 0 still holds.
    """
    q = epsilon * m1 / m2
    return (m1 / 3.0) * (1.0 - delta) * ((1.0 + q) * delta + 1.0 - q)


def gamma_upper_bound(delta: float, m1: float, m2: float,
                      epsilon: float) -> float:
    """Largest admissible gamma for the given delta.

    Rejects delta outside the admissible interval.
    """
    lo, hi = delta_interval(m1, m2, epsilon)
    if not lo <= delta <= hi:
        raise ValueError(
            f"delta={delta} outside admissible interval [{lo}, {hi}]")
    return gamma_bound_expression(delta, m1, m2, epsilon)


def validate(params: ModelParams) -> list[str]:
    """Check every admissibility constraint; return all violations.

    An empty list means the bundle is admissible.  Violations are data,
    not exceptions, so parameter sweeps can collect them.
    """
    v: list[str] = []
    m1, m2 = params.species1.m, params.species2.m
    if not _positive(m1):
        v.append(f"m1 must be finite and positive (got {m1})")
    if not _positive(m2):
        v.append(f"m2 must be finite and positive (got {m2})")

    inter = params.interaction
    interaction_ok = True
    if not _positive(inter.nu12):
        v.append(f"nu12 must be finite and positive (got {inter.nu12})")
        interaction_ok = False
    if not 0.0 < inter.epsilon <= 1.0:
        v.append(f"epsilon out of range (0, 1] (got {inter.epsilon})")
        interaction_ok = False
    if not _positive(inter.beta1):
        v.append(f"beta1 must be finite and positive (got {inter.beta1})")
        interaction_ok = False
    if not _positive(inter.beta2):
        v.append(f"beta2 must be finite and positive (got {inter.beta2})")
        interaction_ok = False

    mix = params.mixing
    if not 0.0 <= mix.alpha <= 1.0:
        v.append(f"alpha outside [0, 1] (got {mix.alpha})")
    gamma_ok = math.isfinite(mix.gamma) and mix.gamma >= 0.0
    if not gamma_ok:
        v.append(f"gamma must be finite and nonnegative (got {mix.gamma})")
    if interaction_ok and _positive(m1) and _positive(m2):
        lo, hi = delta_interval(m1, m2, inter.epsilon)
        if not lo <= mix.delta <= hi:
            v.append(f"delta={mix.delta} outside admissible interval "
                     f"[{lo:.12g}, {hi:.12g}]")
        elif gamma_ok:
            bound = gamma_bound_expression(mix.delta, m1, m2, inter.epsilon)
            if mix.gamma > bound:
                v.append(f"gamma={mix.gamma} exceeds temperature-positivity "
                         f"upper bound {bound:.12g}")

    es = params.es
    for name, mu in (("mu1", es.mu1), ("mu2", es.mu2),
                     ("mu12", es.mu12), ("mu21", es.mu21)):
        if not MU_LO <= mu <= MU_HI:
            v.append(f"{name}={mu} outside [-1/2, 1]")
    return v


@dataclass(frozen=True)
class DimensionlessScales:
    """Knudsen-like relaxation scales of the dimensionless equations.

    eps1 / eps2 scale the intraspecies terms, eps_tilde1 / eps_tilde2
    the interspecies terms.
    """

    eps1: float
    eps_tilde1: float
    eps2: float
    eps_tilde2: float


def dimensionless_scales(nu_bar12: float, t_bar: float, x_bar: float,
                         n_typical: float, beta1: float, beta2: float,
                         epsilon: float, n1: float, n2: float
                         ) -> DimensionlessScales:
    """Derive the four relaxation scales from reference quantities.

    1/eps1        = beta1 * nu_bar12 * t_bar * n_typical / x_bar
    1/eps_tilde1  = (1/eps1) (1/beta1) (n2/n1)
    1/eps_tilde2  = (1/eps1) (1/beta1) (1/epsilon)
    1/eps2        = (1/eps1) (beta2/(beta1*epsilon)) (n2/n1)
    """
    for name, val in (("nu_bar12", nu_bar12), ("t_bar", t_bar),
                      ("x_bar", x_bar), ("n_typical", n_typical),
                      ("beta1", beta1), ("beta2", beta2),
                      ("epsilon", epsilon), ("n1", n1), ("n2", n2)):
        if not _positive(val):
            raise ValueError(f"{name} must be finite and positive "
                             f"(got {val})")
    inv1 = beta1 * nu_bar12 * t_bar * n_typical / x_bar
    inv_t1 = inv1 / beta1 * (n2 / n1)
    inv_t2 = inv1 / beta1 / epsilon
    inv2 = inv1 * beta2 / (beta1 * epsilon) * (n2 / n1)
    return DimensionlessScales(eps1=1.0 / inv1, eps_tilde1=1.0 / inv_t1,
                               eps2=1.0 / inv2, eps_tilde2=1.0 / inv_t2)
