"""Closed-form hydrodynamic-expansion quantities and relaxation rates.

The expansion works with species temperatures normalized by the species-1
mass (T_k / m1, velocity-squared units); conversions from dimensional
moment sets happen inside the functions that need them.

Sign conventions for the first-order closures:

    u_k = u_bar + sum_j Ku[k, j] * I_j,   I_j = int v  (d_t + v . grad) f_j dv
    T_k = T_bar + sum_j KT[k, j] * J_j,   J_j = int |v - u_bar|^2 (...) f_j dv

with all scalar front factors, including 1/(1/eps_k + 1/eps_tilde_k),
folded into the matrix entries.

Relaxation rates, from the moment equations of the homogeneous system:

    d(u1 - u2)/dt = -lambda_u (u1 - u2),  lambda_u = nu12 (1-delta)(n2 + (m1/m2) n1)
    d(T1 - T2)/dt = -lambda_T (T1 - T2),  lambda_T = nu12 (1-alpha)(n1 + n2)
                                          (equal velocities)
    traceless pressure of a single ES species decays at nu n (1 - mu).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientWindowError, SingularPrefactorError
from .grid import VelocityGrid, moments
from .params import DimensionlessScales, dimensionless_scales
from .targets import MixtureState


def combination_weight(m1: float, m2: float, epsilon: float, beta1: float,
                       beta2: float, n1: float, n2: float) -> float:
    """Weight A of species 1 in the combination A f1 + f2 whose mean
    velocity and temperature stay at their leading-order values.

    A = (m1/m2) epsilon (beta1 n1/n2 + 1) / (beta2 n2/n1 + 1).
    """
    return (m1 / m2) * epsilon * (beta1 * n1 / n2 + 1.0) \
        / (beta2 * n2 / n1 + 1.0)


MixingCoefficients = namedtuple("MixingCoefficients", "c1 c2")


def mixing_coefficients(A: float, n1: float, n2: float, m1: float, m2: float,
                        beta1: float, delta: float,
                        alpha: float) -> MixingCoefficients:
    """Velocity (c1) and temperature (c2) coupling coefficients.

    c1 = (-A n1 (1-delta) + n2 (beta1+delta)) / ((beta1+1)(A n1 + n2))
    c2 = (-A n1 (1-alpha) + (m1/m2) n2 (beta1+alpha))
         / ((beta1+1)(A n1 + (m1/m2) n2))
    """
    r = m1 / m2
    c1 = (-A * n1 * (1.0 - delta) + n2 * (beta1 + delta)) \
        / ((beta1 + 1.0) * (A * n1 + n2))
    c2 = (-A * n1 * (1.0 - alpha) + r * n2 * (beta1 + alpha)) \
        / ((beta1 + 1.0) * (A * n1 + r * n2))
    return MixingCoefficients(c1=c1, c2=c2)


@dataclass(frozen=True)
class CeConstants:
    """Combination weight, coupling coefficients and relaxation scales."""

    A: float
    c1: float
    c2: float
    scales: DimensionlessScales


def ce_constants(m1: float, m2: float, epsilon: float, beta1: float,
                 beta2: float, n1: float, n2: float, delta: float,
                 alpha: float) -> CeConstants:
    """Bundle A, (c1, c2) and the relaxation scales for one state.

    The scales take every reference quantity entering 1/eps1 (collision
    frequency, time, particle count, inverse length) as 1, so they
    carry the ratios only.
    """
    A = combination_weight(m1, m2, epsilon, beta1, beta2, n1, n2)
    coeffs = mixing_coefficients(A, n1, n2, m1, m2, beta1, delta, alpha)
    scales = dimensionless_scales(1.0, 1.0, 1.0, 1.0, beta1, beta2,
                                  epsilon, n1, n2)
    return CeConstants(A=A, c1=coeffs.c1, c2=coeffs.c2, scales=scales)


@dataclass(frozen=True)
class ZerothMoments:
    """Leading-order moments of the combination A f1 + f2.

    T0_over_m0 is the second-moment scale (1/d) <|v - u0|^2> of the
    combination on a d-dimensional lattice; species temperatures enter
    it normalized by m1.
    """

    n0: float
    u0: np.ndarray
    T0_over_m0: float


def zeroth_moments(A: float, state: MixtureState) -> ZerothMoments:
    """Closed-form moments of A f1 + f2.

    n0 = A n1 + n2 exactly;
    u0 = (A n1 u1 + n2 u2) / n0;
    T0/m0 = (1/d) A n1 n2 |u1-u2|^2 / n0^2
            + (A n1 T1 + n2 (m1/m2) T2) / n0,   T_k := T_k / m1, d = len(u1).
    """
    mom1, mom2 = state.mom1, state.mom2
    m1, m2 = state.m1, state.m2
    n1, n2 = mom1.n, mom2.n
    T1s, T2s = mom1.T / m1, mom2.T / m1
    n0 = A * n1 + n2
    u0 = (A * n1 * mom1.u + n2 * mom2.u) / n0
    du2 = float(np.sum((mom1.u - mom2.u) ** 2))
    T0m0 = (A * n1 * n2 / (len(mom1.u) * n0 * n0)) * du2 \
        + (A * n1 * T1s + n2 * (m1 / m2) * T2s) / n0
    return ZerothMoments(n0=n0, u0=u0, T0_over_m0=T0m0)


@dataclass(frozen=True)
class EquilibriumValues:
    """Common velocity and (dimensional) common temperature."""

    u: np.ndarray
    T: float


def common_equilibrium(A: float, state: MixtureState) -> EquilibriumValues:
    """Common velocity and temperature of the weighted leading order.

    u_bar = (A n1 u1 + n2 u2) / (A n1 + n2);
    T_bar = m1 * (A n1 + n2) / (A n1 + n2 m1/m2) * T0/m0.

    For A = m1/m2 (balanced interaction frequencies with equal
    densities) these coincide with the fixed point of the homogeneous
    relaxation dynamics, which conserves the mass-weighted momentum and
    total energy.
    """
    zm = zeroth_moments(A, state)
    n1, n2 = state.mom1.n, state.mom2.n
    r = state.m1 / state.m2
    T_scaled = (A * n1 + n2) / (A * n1 + n2 * r) * zm.T0_over_m0
    return EquilibriumValues(u=zm.u0, T=state.m1 * T_scaled)


@dataclass(frozen=True)
class ExpansionPrefactors:
    """2x2 coefficient matrices of the first-order closures.

    Row k gives the coefficients of the two species' transport integrals
    in the expansion of u_k (Ku) and T_k (KT); see the module docstring
    for the sign convention.
    """

    Ku: np.ndarray
    KT: np.ndarray


def expansion_prefactors(constants: CeConstants, n1: float, n2: float,
                         m1: float, m2: float) -> ExpansionPrefactors:
    """Assemble Ku and KT, refusing singular parameter combinations.

    The velocity system has determinant D1 = 1 - A (n1/n2) c1 - c1 and
    the temperature system D2 = 1 - A (n1/n2)(m2/m1) c2 - c2; either
    vanishing means the two species' first-order closures cannot be
    separated for these parameters.
    """
    A, c1, c2, sc = constants.A, constants.c1, constants.c2, constants.scales
    s1 = 1.0 / (1.0 / sc.eps1 + 1.0 / sc.eps_tilde1)
    s2 = 1.0 / (1.0 / sc.eps2 + 1.0 / sc.eps_tilde2)

    b1 = A * (n1 / n2) * c1
    D1 = 1.0 - b1 - c1
    if abs(D1) <= 1e-12 * (1.0 + abs(b1) + abs(c1)):
        raise SingularPrefactorError(
            f"velocity prefactor denominator vanished: "
            f"1 - A(n1/n2)c1 - c1 = {D1:.3e} (A={A}, c1={c1})")
    Ku = np.array([
        [-(1.0 - b1) / D1 * s1 / n1, c1 / D1 * s2 / n2],
        [b1 / D1 * s1 / n1, -(1.0 - c1) / D1 * s2 / n2],
    ])

    r = m2 / m1
    b2 = A * (n1 / n2) * r * c2
    D2 = 1.0 - b2 - c2
    if abs(D2) <= 1e-12 * (1.0 + abs(b2) + abs(c2)):
        raise SingularPrefactorError(
            f"temperature prefactor denominator vanished: "
            f"1 - A(n1/n2)(m2/m1)c2 - c2 = {D2:.3e} (A={A}, c2={c2})")
    KT = np.array([
        [-(1.0 - b2) / D2 * s1 / (3.0 * n1),
         c2 / D2 * s2 * r / (3.0 * n2)],
        [b2 / D2 * s1 / (3.0 * n1),
         -(1.0 - c2) / D2 * s2 * r / (3.0 * n2)],
    ])
    return ExpansionPrefactors(Ku=Ku, KT=KT)


Rates = namedtuple("Rates", "lambda_u lambda_T lambda_shear")


def analytic_rates(nu12: float, delta: float, alpha: float, n1: float,
                   n2: float, m1: float, m2: float, nu: float | None = None,
                   n: float | None = None, mu: float | None = None) -> Rates:
    """Exponential relaxation rates of the homogeneous moment equations.

    lambda_u governs the velocity difference (gamma plays no role there),
    lambda_T the temperature difference at equal velocities, and
    lambda_shear the traceless pressure tensor of a single ES species,
    available when (nu, n, mu) are supplied.
    """
    lam_u = nu12 * (1.0 - delta) * (n2 + (m1 / m2) * n1)
    lam_T = nu12 * (1.0 - alpha) * (n1 + n2)
    lam_s = None
    if nu is not None and n is not None and mu is not None:
        lam_s = nu * n * (1.0 - mu)
    return Rates(lambda_u=lam_u, lambda_T=lam_T, lambda_shear=lam_s)


def fit_decay_rate(times, amplitudes) -> float:
    """Decay rate from the log-linear part of an amplitude series.

    Fits ln(amplitude) against time by least squares over the samples
    with amplitude in [1e-6, 0.1] times the initial amplitude, which
    skips both the early transient and the round-off floor, and returns
    the sign-flipped slope; fewer than 10 samples there raise
    InsufficientWindowError.  A series that never moves off its initial
    amplitude has nothing to fit and reports rate zero.
    """
    t = np.asarray(times, dtype=float)
    a = np.asarray(amplitudes, dtype=float)
    if t.shape != a.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("times and amplitudes must be equal-length 1-D")
    a0 = a[0]
    if not a0 > 0.0:
        raise ValueError(f"initial amplitude must be positive (got {a0})")
    if float(np.max(np.abs(a - a0))) <= 1e-13 * a0:
        return 0.0
    mask = (a >= 1e-6 * a0) & (a <= 0.1 * a0) & (a > 0.0)
    count = int(np.count_nonzero(mask))
    if count < 10:
        raise InsufficientWindowError(
            f"only {count} samples inside the fit window "
            "[1e-06, 0.1] x initial; need 10")
    slope = np.polyfit(t[mask], np.log(a[mask]), 1)[0]
    return -float(slope)


HeatFluxCheck = namedtuple("HeatFluxCheck", "quadrature formula discrepancy")


def heat_flux_check(f, mass: float, grid: VelocityGrid) -> HeatFluxCheck:
    """Raw energy flux of a drifting Maxwellian, two ways.

    quadrature  = (1/2) sum w |v|^2 v f
    formula     = (5/2) n ((T/m) u + |u|^2 u)
    discrepancy = formula - quadrature

    The quadrature is read from the distribution's moment set: with
    v = u + c the sum is (1/2) [(Qtilde + 2 P u + tr(P) u) / m + n |u|^2 u].

    For an exact Maxwellian the quadrature equals
    (5/2) n (T/m) u + (1/2) n |u|^2 u, so the discrepancy against the
    stated closed form is 2 n |u|^2 u: the |u|^2 u prefactors disagree.
    Both values are reported rather than silently picking one.
    """
    mom = moments(f, mass, grid)
    theta = mom.T / mass
    u2 = float(mom.u @ mom.u)
    formula = 2.5 * mom.n * (theta * mom.u + u2 * mom.u)
    quadrature = 0.5 * ((mom.Qtilde + 2.0 * mom.P @ mom.u + np.trace(mom.P)
                         * mom.u) / mass + mom.n * u2 * mom.u)
    return HeatFluxCheck(quadrature=quadrature, formula=formula,
                         discrepancy=formula - quadrature)
