"""The benchmark's workloads and the config documents they hand to
`bgkmix.cli.main`.

Every workload uses the same unbalanced parameter bundle: masses (1, 2),
nu12 = 1, epsilon = 0.5, beta1 = beta2 = 1, delta = 0.3, alpha = 0.4,
gamma = 0.05.  With epsilon < 1 the two species' total collision
frequencies differ, which is what exposes the frozen-target EXP
integrator's momentum/energy drift; a balanced bundle would hide it.

The seed perturbs the initial velocities, temperatures and tensor
entries inside the ranges stated below, and the program sees only the
generated document.  The default seed gives the nominal values, which
are the ones `digest.json` records.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

BUNDLE = {
    "schema_version": 1,
    "masses": [1.0, 2.0],
    "interaction": {"nu12": 1.0, "epsilon": 0.5, "beta1": 1.0, "beta2": 1.0},
    "mixing": {"delta": 0.3, "alpha": 0.4, "gamma": 0.05},
}

# Admissible perturbation ranges (half widths).  Velocities move by at
# most a tenth of the slower species' thermal speed, temperatures by 5 %,
# tensor diagonals by 5 % and off-diagonals by 0.05, which keeps the
# sheared tensor strictly diagonally dominant (hence SPD) and every
# distribution resolved by its lattice.
DU = 0.05
DT_REL = 0.05
DTENSOR_DIAG_REL = 0.05
DTENSOR_OFF = 0.05
# The scan builds its own initial state; only alpha and gamma are free,
# and neither enters the delta scan's rates or step counts.
DALPHA = 0.05
DGAMMA = 0.01

# Step counts sized so one run lasts 0.5-1 s on a 2-core x86 box: many
# short runs give a steadier median than a few long ones on a shared
# machine.  The scan's step counts are set by the CLI (14 decay times
# per value); three values take about 8 s.
RELAX_BGK_STEPS = 20
RELAX_ESA_STEPS = 4
WAVE_STEPS = 6
SCAN_COUNT = 3


class _Jitter:
    """Uniform deviations from the seed; all zero at the default seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._nominal = seed == DEFAULT_SEED

    def __call__(self, half_width: float) -> float:
        value = self._rng.uniform(-half_width, half_width)
        return 0.0 if self._nominal else value


def _species(jit: _Jitter, ux: float, T: float) -> dict:
    return {"n": 1.0, "u": [ux + jit(DU), jit(DU), 0.0],
            "T": T * (1.0 + jit(DT_REL))}


def _relax_bgk_exp(jit: _Jitter) -> dict:
    doc = copy.deepcopy(BUNDLE)
    doc["scenario"] = {
        "dt": 0.05, "t_end": 0.05 * RELAX_BGK_STEPS, "integrator": "exp",
        "species1": _species(jit, 0.8, 1.0),
        "species2": _species(jit, -0.4, 1.2),
    }
    return doc


def _relax_esa_rk4(jit: _Jitter) -> dict:
    doc = copy.deepcopy(BUNDLE)
    doc["es"] = {"variant": "es-full-a",
                 "mu1": 0.5, "mu2": 0.3, "mu12": 0.4, "mu21": 0.2}
    tensor = [[1.4, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 0.7]]
    for i in range(3):
        tensor[i][i] *= 1.0 + jit(DTENSOR_DIAG_REL)
        for j in range(i + 1, 3):
            tensor[i][j] = tensor[j][i] = tensor[i][j] + jit(DTENSOR_OFF)
    species1 = {"n": 1.0, "u": [0.3 + jit(DU), jit(DU), 0.0],
                "tensor": tensor}
    doc["scenario"] = {
        "dt": 0.05, "t_end": 0.05 * RELAX_ESA_STEPS, "integrator": "rk4",
        "species1": species1,
        "species2": _species(jit, -0.4, 1.2),
    }
    return doc


def _wave_bgk_exp(jit: _Jitter) -> dict:
    doc = copy.deepcopy(BUNDLE)
    # 16 points on [-8, 8]: max|v| = 7.5, so dt = 0.002 on 32 cells of a
    # unit domain gives CFL 0.48.
    doc["grid"] = {"dim": 3, "vmin": -8.0, "vmax": 8.0, "points": 16}
    doc["scenario"] = {
        "dt": 0.002, "t_end": 0.002 * WAVE_STEPS, "integrator": "exp",
        "cells": 32, "length": 1.0, "splitting": "lie",
        "wave_amplitude": 0.1, "wave_mode": 1,
        "species1": _species(jit, 0.8, 1.0),
        "species2": _species(jit, -0.4, 1.2),
    }
    return doc


def _scan_delta(jit: _Jitter) -> dict:
    doc = copy.deepcopy(BUNDLE)
    doc["mixing"]["alpha"] += jit(DALPHA)
    doc["mixing"]["gamma"] += jit(DGAMMA)
    # The scan sizes its own lattice (17^3 on [-6, 6] for these masses);
    # the config grid matches it so set-up builds the grid the run uses.
    doc["grid"] = {"dim": 3, "vmin": -6.0, "vmax": 6.0, "points": 17}
    doc["scan"] = {"parameter": "delta", "start": 0.0, "stop": 0.6,
                   "count": SCAN_COUNT}
    return doc


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    csv_name: str
    rk4: bool               # RK4 conserves momentum and energy: gate them
    why: str
    _build: Callable[[_Jitter], dict]

    def config(self, seed: int) -> dict:
        return self._build(_Jitter(seed))


WORKLOADS = {w.name: w for w in (
    Workload("relax-bgk-exp", "relax", "relax.csv", False,
             "homogeneous BGK, EXP, 32^3 grid: large-array Maxwellian "
             "matching and GEMM-able moments with no cell loop; exposes the "
             "EXP momentum drift", _relax_bgk_exp),
    Workload("relax-esa-rk4", "relax", "relax.csv", True,
             "homogeneous es-full-a, RK4, 32^3 grid: full-tensor Gaussian "
             "matching that cannot be split into 1-D factors; the bypass "
             "case for separable matching", _relax_esa_rk4),
    Workload("wave-bgk-exp", "wave", "wave.csv", False,
             "1-D wave, 32 cells x 16^3, EXP, Lie splitting: the Python cell "
             "loop, upwind transport and per-cell entropy", _wave_bgk_exp),
    Workload("scan-delta", "scan", "scan.csv", True,
             "delta scan over 0..0.6, 3 values, 17^3, RK4: small arrays where "
             "per-call overhead dominates, grid set-up inside the run, rate "
             "fits", _scan_delta),
)}
