"""JSON run configuration: schema, defaults, validation.

The document is plain JSON with a versioned schema field.  Required keys
are `masses` and the four entries of `interaction`; everything else has
documented defaults (EXP integrator, moment matching on, 3-D grid with
32 points per axis on [-8, 8]).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (ConfigError, MissingKeyError, UnknownVariantError,
                     ValidationFailureError)
from .grid import VelocityGrid
from .params import (EsParams, InteractionSpec, MixingParams, ModelParams,
                     SpeciesSpec, Variant, validate)
from .solver import Scenario, SpeciesInit

SCHEMA_VERSION = 1

GRID_DEFAULTS = {"dim": 3, "vmin": -8.0, "vmax": 8.0, "points": 32}
SCENARIO_DEFAULTS = {
    "dt": 0.05, "t_end": 1.0, "output_every": 1,
    "integrator": "exp", "moment_matching": True,
    "cells": 0, "length": 1.0, "splitting": "lie",
    "wave_amplitude": 0.0, "wave_mode": 1,
}
PERSISTENCE_DEFAULTS = {"kappa_min": 1e-3, "kappa_max": 1e3, "count": 200}


@dataclass
class RunConfig:
    """Parsed and validated configuration."""

    params: ModelParams
    grid_spec: dict
    scenario_spec: dict
    scan_spec: dict | None
    persistence_spec: dict

    def make_grid(self) -> VelocityGrid:
        g = self.grid_spec
        return VelocityGrid(dim=g["dim"], vmin=g["vmin"], vmax=g["vmax"],
                            points=g["points"])

    def make_scenario(self) -> Scenario:
        # scenario_spec keys are the Scenario field names
        return Scenario(params=self.params, grid=self.make_grid(),
                        **self.scenario_spec)


def _require(doc: dict, key: str, parent: str = "") -> Any:
    if key not in doc:
        raise MissingKeyError(parent + key if not parent else f"{parent}.{key}")
    return doc[key]


def _species_init(entry, dim: int) -> SpeciesInit | None:
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ConfigError(f"species entry must be an object or null: {entry!r}")
    n = float(entry.get("n", 1.0))
    u = entry.get("u", [0.0] * dim)
    if np.ndim(u) == 0:
        u = [float(u)] + [0.0] * (dim - 1)
    u = tuple(float(x) for x in u)
    if len(u) < dim:
        u = u + (0.0,) * (dim - len(u))
    tensor = entry.get("tensor")
    if tensor is not None:
        tensor = np.asarray(tensor, dtype=float)
        if tensor.shape != (dim, dim):
            raise ConfigError(f"species tensor must be {dim}x{dim}")
    return SpeciesInit(n=n, u=u, T=float(entry.get("T", 1.0)), tensor=tensor)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document into a validated RunConfig.

    Raises MissingKeyError, UnknownVariantError or, when the parameter
    bundle breaks an admissibility bound, ValidationFailureError with
    the full violation list.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; "
                          f"this build reads version {SCHEMA_VERSION}")

    masses = _require(doc, "masses")
    if not isinstance(masses, (list, tuple)) or len(masses) != 2:
        raise ConfigError("masses must be a two-element list")
    labels = doc.get("labels", ["1", "2"])

    inter_doc = _require(doc, "interaction")
    inter = InteractionSpec(
        nu12=float(_require(inter_doc, "nu12", "interaction")),
        epsilon=float(_require(inter_doc, "epsilon", "interaction")),
        beta1=float(_require(inter_doc, "beta1", "interaction")),
        beta2=float(_require(inter_doc, "beta2", "interaction")))

    mix_doc = doc.get("mixing", {})
    mixing = MixingParams(delta=float(mix_doc.get("delta", 1.0)),
                          alpha=float(mix_doc.get("alpha", 1.0)),
                          gamma=float(mix_doc.get("gamma", 0.0)))

    es_doc = doc.get("es", {})
    variant_name = es_doc.get("variant", "bgk")
    try:
        variant = Variant(variant_name)
    except ValueError:
        raise UnknownVariantError(variant_name) from None
    es = EsParams(variant=variant,
                  mu1=float(es_doc.get("mu1", 0.0)),
                  mu2=float(es_doc.get("mu2", 0.0)),
                  mu12=float(es_doc.get("mu12", 0.0)),
                  mu21=float(es_doc.get("mu21", 0.0)))

    params = ModelParams(
        species1=SpeciesSpec(m=float(masses[0]), label=str(labels[0])),
        species2=SpeciesSpec(m=float(masses[1]), label=str(labels[1])),
        interaction=inter, mixing=mixing, es=es)

    grid_spec = dict(GRID_DEFAULTS)
    grid_spec.update(doc.get("grid", {}))
    grid_spec["dim"] = int(grid_spec["dim"])

    scen_doc = doc.get("scenario", {})
    scenario_spec = dict(SCENARIO_DEFAULTS)
    for key in SCENARIO_DEFAULTS:
        if key in scen_doc:
            scenario_spec[key] = scen_doc[key]
    dim = grid_spec["dim"]
    scenario_spec["species1"] = _species_init(
        scen_doc.get("species1", {"n": 1.0, "T": 1.0}), dim)
    scenario_spec["species2"] = _species_init(
        scen_doc.get("species2", {"n": 1.0, "T": 1.0}), dim)
    scenario_spec["cells"] = int(scenario_spec["cells"])
    scenario_spec["output_every"] = int(scenario_spec["output_every"])
    scenario_spec["wave_mode"] = int(scenario_spec["wave_mode"])
    if scenario_spec["integrator"] not in ("exp", "rk4"):
        raise ConfigError(
            f"integrator must be 'exp' or 'rk4' "
            f"(got {scenario_spec['integrator']!r})")

    scan_spec = None
    if "scan" in doc:
        sdoc = doc["scan"]
        parameter = _require(sdoc, "parameter", "scan")
        if parameter not in ("delta", "alpha"):
            raise ConfigError(f"scan parameter must be 'delta' or 'alpha' "
                              f"(got {parameter!r})")
        scan_spec = {
            "parameter": parameter,
            "start": float(_require(sdoc, "start", "scan")),
            "stop": float(_require(sdoc, "stop", "scan")),
            "count": int(_require(sdoc, "count", "scan")),
        }
        if scan_spec["count"] < 2:
            raise ConfigError("scan count must be at least 2")

    persistence_spec = dict(PERSISTENCE_DEFAULTS)
    persistence_spec.update(doc.get("persistence", {}))
    persistence_spec["count"] = int(persistence_spec["count"])

    violations = validate(params)
    if violations:
        raise ValidationFailureError(violations)

    return RunConfig(params=params, grid_spec=grid_spec,
                     scenario_spec=scenario_spec, scan_spec=scan_spec,
                     persistence_spec=persistence_spec)
