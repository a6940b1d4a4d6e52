"""JSON run configuration: schema, defaults, validation.

The document is plain JSON with a versioned schema field.  Required keys
are `masses` and the four entries of `interaction`; everything else has
documented defaults (EXP integrator, moment matching on, 3-D grid with
32 points per axis on [-8, 8]); the scenario keys are the fields of
`solver.Scenario`, typed as their defaults.  A key the schema does not
know, at any depth, is an error naming its full path.  `parse_config`
builds the configured Scenario, which checks the run rules, once.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Any

import numpy as np

from .errors import (ConfigError, MissingKeyError, UnknownVariantError,
                     ValidationFailureError)
from .grid import VelocityGrid
from .params import (EsParams, InteractionSpec, MixingParams, ModelParams,
                     SpeciesSpec, Variant, _positive, validate)
from .solver import Scenario, SpeciesInit

SCHEMA_VERSION = 1

GRID_DEFAULTS = {"dim": 3, "vmin": -8.0, "vmax": 8.0, "points": 32}
PERSISTENCE_DEFAULTS = {"kappa_min": 1e-3, "kappa_max": 1e3, "count": 200}
MIXING_DEFAULTS = {"delta": 1.0, "alpha": 1.0, "gamma": 0.0}
ES_DEFAULTS = {"variant": "bgk", "mu1": 0.0, "mu2": 0.0, "mu12": 0.0,
               "mu21": 0.0}
_SCENARIO_DEFAULTS = {f.name: f.default for f in fields(Scenario)
                      if f.default is not MISSING}

# every key a document may hold, each mapped to the keys of its object
# value (None for a leaf); "species1" and "species2" share theirs
_SPECIES_KEYS = dict.fromkeys(("n", "u", "T", "tensor"))
_SCHEMA = {
    "schema_version": None, "masses": None,
    "interaction": dict.fromkeys(("nu12", "epsilon", "beta1", "beta2")),
    "mixing": dict.fromkeys(MIXING_DEFAULTS),
    "es": dict.fromkeys(ES_DEFAULTS),
    "grid": dict.fromkeys(GRID_DEFAULTS),
    "scenario": {**dict.fromkeys(_SCENARIO_DEFAULTS),
                 "species1": _SPECIES_KEYS, "species2": _SPECIES_KEYS},
    "scan": dict.fromkeys(("parameter", "start", "stop", "count")),
    "persistence": dict.fromkeys(PERSISTENCE_DEFAULTS),
}


@dataclass
class RunConfig:
    """Parsed and validated configuration, its run already built."""

    scenario: Scenario
    scan_spec: dict | None
    persistence_spec: dict

    @property
    def params(self) -> ModelParams:
        return self.scenario.params

    def make_scenario(self) -> Scenario:
        return self.scenario


def _require(doc: dict, key: str, parent: str = "") -> Any:
    if not isinstance(doc, dict):
        raise ConfigError(f"{parent} must be an object (got {doc!r})")
    if key not in doc:
        raise MissingKeyError(parent + key if not parent else f"{parent}.{key}")
    return doc[key]


_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string"}


def _reject_unknown(doc, schema: dict, parent: str = "") -> None:
    """ConfigError naming the full path of the first key, at any depth,
    that `schema` does not hold.  A value that is not an object is left
    to the reader of its key, which names the wrong type."""
    if not isinstance(doc, dict):
        return
    for key, value in doc.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {parent}{key}")
        if schema[key] is not None:
            _reject_unknown(value, schema[key], f"{parent}{key}.")


def _typed(value, kind: type, key: str, depth: int = 0):
    """`value` as a float, an int, a bool or a str, else ConfigError
    naming `key`.  Only JSON true/false are booleans, and they are not
    numbers; an integer may be written as an integral number (4.0).  Up
    to `depth` levels of lists are typed element by element: 1 for
    per-axis grid fields and velocities, 2 for a tensor."""
    if depth and isinstance(value, list):
        return [_typed(x, kind, key, depth - 1) for x in value]
    if kind in (bool, str):
        ok = isinstance(value, kind)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
            and (kind is float or isinstance(value, int)
                 or value.is_integer())
    if not ok:
        raise ConfigError(f"{key} must be {_KINDS[kind]} (got {value!r})")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key} is out of range") from None


def _fields(doc, defaults: dict, parent: str, depth: int = 0) -> dict:
    """The keys of `defaults` read from the object `doc`, each typed as
    its default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{parent} must be an object (got {doc!r})")
    return {key: _typed(doc.get(key, default), type(default),
                        f"{parent}.{key}", depth)
            for key, default in defaults.items()}


def _species_init(entry, key: str, dim: int) -> SpeciesInit | None:
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ConfigError(f"{key} must be an object or null (got {entry!r})")
    u = _typed(entry.get("u", [0.0] * dim), float, f"{key}.u", 1)
    if np.ndim(u) == 0:
        u = [u] + [0.0] * (dim - 1)
    u = tuple(u) + (0.0,) * (dim - len(u))
    tensor = entry.get("tensor")
    if tensor is not None:
        tensor = _typed(tensor, float, f"{key}.tensor", 2)
        if not (isinstance(tensor, list) and len(tensor) == dim
                and all(np.shape(row) == (dim,) for row in tensor)):
            raise ConfigError(f"{key}.tensor must be {dim}x{dim}")
        tensor = np.array(tensor)
    return SpeciesInit(n=_typed(entry.get("n", 1.0), float, f"{key}.n"), u=u,
                       T=_typed(entry.get("T", 1.0), float, f"{key}.T"),
                       tensor=tensor)


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document into a validated RunConfig.

    Raises ConfigError (MissingKeyError, UnknownVariantError) for a bad
    or unknown key; ValidationFailureError with the full violation list
    for an inadmissible bundle; ValueError or CflError for a broken run
    rule.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; "
                          f"this build reads version {SCHEMA_VERSION}")
    _reject_unknown(doc, _SCHEMA)

    masses = _require(doc, "masses")
    if not isinstance(masses, list) or len(masses) != 2:
        raise ConfigError("masses must be a two-element list")
    masses = [_typed(x, float, f"masses[{k}]") for k, x in enumerate(masses)]

    inter_doc = _require(doc, "interaction")
    inter = InteractionSpec(**{
        key: _typed(_require(inter_doc, key, "interaction"), float,
                    f"interaction.{key}")
        for key in _SCHEMA["interaction"]})

    mixing = MixingParams(**_fields(doc.get("mixing", {}), MIXING_DEFAULTS,
                                    "mixing"))
    es_spec = _fields(doc.get("es", {}), ES_DEFAULTS, "es")
    try:
        es_spec["variant"] = Variant(es_spec["variant"])
    except ValueError:
        raise UnknownVariantError(es_spec["variant"]) from None
    es = EsParams(**es_spec)

    params = ModelParams(
        species1=SpeciesSpec(m=masses[0]), species2=SpeciesSpec(m=masses[1]),
        interaction=inter, mixing=mixing, es=es)

    # vmin, vmax and points may be per axis; dim is one integer
    grid_spec = _fields(doc.get("grid", {}), GRID_DEFAULTS, "grid", 1)
    grid_spec["dim"] = _typed(grid_spec["dim"], int, "grid.dim")

    scen_doc = doc.get("scenario", {})
    scenario_spec = _fields(scen_doc, _SCENARIO_DEFAULTS, "scenario")
    for key in ("species1", "species2"):
        scenario_spec[key] = _species_init(
            scen_doc.get(key, {"n": 1.0, "T": 1.0}), f"scenario.{key}",
            grid_spec["dim"])

    scan_spec = None
    if "scan" in doc:
        sdoc = doc["scan"]
        parameter = _require(sdoc, "parameter", "scan")
        if parameter not in ("delta", "alpha"):
            raise ConfigError(f"scan parameter must be 'delta' or 'alpha' "
                              f"(got {parameter!r})")
        scan_spec = {"parameter": parameter, **{
            key: _typed(_require(sdoc, key, "scan"), kind, f"scan.{key}")
            for key, kind in (("start", float), ("stop", float),
                              ("count", int))}}
        for key in ("start", "stop"):
            if not np.isfinite(scan_spec[key]):
                raise ConfigError(f"scan.{key} must be finite "
                                  f"(got {scan_spec[key]})")
        if scan_spec["count"] < 2:
            raise ConfigError("scan count must be at least 2")

    persistence_spec = _fields(doc.get("persistence", {}),
                               PERSISTENCE_DEFAULTS, "persistence")
    for key in ("kappa_min", "kappa_max"):  # either may be the larger
        if not _positive(persistence_spec[key]):
            raise ConfigError(f"persistence.{key} must be finite and "
                              f"positive (got {persistence_spec[key]})")
    if persistence_spec["count"] < 1:
        raise ConfigError(f"persistence.count must be at least 1 "
                          f"(got {persistence_spec['count']})")

    violations = validate(params)
    if violations:
        raise ValidationFailureError(violations)

    return RunConfig(
        scenario=Scenario(params=params, grid=VelocityGrid(**grid_spec),
                          **scenario_spec),
        scan_spec=scan_spec, persistence_spec=persistence_spec)
