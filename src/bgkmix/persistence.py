"""Persistence of velocity after a hard-sphere collision.

After colliding, a particle on average keeps a positive velocity
component along its incoming direction.  For hard spheres and equal
masses the mean ratio of post- to pre-collision speed depends only on
kappa, the ratio of the two incoming speeds, through a closed-form
piecewise expression; unequal masses enter through a simple affine
correction.  These ratios motivate tensor-valued relaxation targets:
the off-equilibrium part of the pressure tensor carries the memory.

Everything here is analytic and thread-safe.
"""

from __future__ import annotations


def persistence_equal_mass(kappa: float) -> float:
    """Mean persistence ratio for equal masses.

    (15 k^4 + 1) / (10 k^2 (3 k^2 + 1)) for k > 1, evaluated as
    (15 + r^2) / (10 (3 + r)) with r = 1/k^2 so that no power overflows,
    and (3 k^2 + 5) / (5 (k^2 + 3)) for k < 1.  The branches meet at 2/5
    for k = 1 (the k < 1 branch is evaluated) and lie in [1/4, 1].
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive (got {kappa})")
    k2 = kappa * kappa
    if kappa > 1.0:
        r = 1.0 / k2
        return (15.0 + r * r) / (10.0 * (3.0 + r))
    return (3.0 * k2 + 5.0) / (5.0 * (k2 + 3.0))


def persistence_unequal_mass(kappa: float, m1: float, m2: float) -> float:
    """Mean persistence ratio when the masses differ.

    (m1 - m2)/(m1 + m2) + (2 m2/(m1 + m2)) * equal-mass ratio.  Reduces
    to the equal-mass value for m1 = m2 and tends to 1 as m2 -> 0.
    """
    if not (m1 > 0.0 and m2 > 0.0):
        raise ValueError(f"masses must be positive (got {m1}, {m2})")
    msum = m1 + m2
    return (m1 - m2) / msum + (2.0 * m2 / msum) * persistence_equal_mass(kappa)


def persistence_lower_bound(m1: float, m2: float) -> float:
    """Kappa-independent floor (m1 - m2/2) / (m1 + m2).

    Whether any persistence survives at all therefore depends on the
    mass ratio: the floor crosses zero at m2 = 2 m1.
    """
    if not (m1 > 0.0 and m2 > 0.0):
        raise ValueError(f"masses must be positive (got {m1}, {m2})")
    return (m1 - 0.5 * m2) / (m1 + m2)
