"""JSON run configuration: one schema, one walk.

The document is plain JSON with a versioned schema field.  `_SCHEMA`
states it once, each leaf mapped to its default (those of `VelocityGrid`,
`EsParams`, `SpeciesInit` and `solver.Scenario` are read from the
records) or, where the key is required, to its kind.  One walk rejects a
key the schema does not know, naming its full path, fills the defaults,
raises MissingKeyError for an absent required leaf and types every leaf;
the special cases follow.  `parse_config` builds the lattice, then the
configured Scenario, which checks the run rules, once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from inspect import signature

import numpy as np

from .errors import (ConfigError, MissingKeyError, UnknownVariantError,
                     ValidationFailureError)
from .grid import VelocityGrid
from .params import (EsParams, InteractionSpec, MixingParams, ModelParams,
                     SpeciesSpec, Variant, _positive, validate)
from .solver import Scenario, SpeciesInit, physical_memory

SCHEMA_VERSION = 1


def _defaults(record) -> dict:
    """Each keyword argument of `record` that has a default, with it."""
    return {name: p.default for name, p in signature(record).parameters.items()
            if p.default is not p.empty}


# each leaf maps to its default, or to its kind where it is required;
# `object` (required) and None (optional) leave a leaf as given, for its
# special case; a species' `u` defaults to a scalar, its x component
_SPECIES = {**_defaults(SpeciesInit), "u": 0.0}
_SCHEMA = {
    "schema_version": SCHEMA_VERSION, "masses": object,
    "interaction": dict.fromkeys(("nu12", "epsilon", "beta1", "beta2"), float),
    "mixing": {"delta": 1.0, "alpha": 1.0, "gamma": 0.0},
    "es": {**_defaults(EsParams), "variant": EsParams.variant.value},
    "grid": _defaults(VelocityGrid),
    "scenario": {**_defaults(Scenario), "species1": _SPECIES,
                 "species2": _SPECIES},
    "scan": {"parameter": object, "start": float, "stop": float, "count": int},
    "persistence": {"kappa_min": 1e-3, "kappa_max": 1e3, "count": 200},
}
# the levels of lists a leaf may take: per-axis grid fields, velocities
_DEPTH = {"vmin": 1, "vmax": 1, "points": 1, "u": 1}


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


_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string"}


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
        if kind is int:  # counts are used as floats downstream
            float(value)
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key} is out of range") from None


def _read(doc, schema: dict, path: str = "") -> dict:
    """The walk: the object `doc` read against `schema`, each leaf typed
    as its default or kind, its default filling in where it is absent.
    An unknown key is a ConfigError naming its full path, an absent
    required leaf a MissingKeyError; an absent section of them is None."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path[:-1]} must be an object (got {doc!r})")
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown config key {path}{key}")
    read = {}
    for key, spec in schema.items():
        value, name = doc.get(key, spec), path + key
        if spec is _SPECIES and not isinstance(value, dict):
            if value is not None:
                raise ConfigError(f"{name} must be an object or null "
                                  f"(got {value!r})")
            read[key] = None
        elif isinstance(spec, dict):
            required = all(isinstance(s, type) for s in spec.values())
            read[key] = None if key not in doc and required else \
                _read(doc.get(key, {}), spec, name + ".")
        elif key not in doc and isinstance(spec, type):
            raise MissingKeyError(name)
        elif spec is None or spec is object:
            read[key] = value
        else:
            read[key] = _typed(value, spec if isinstance(spec, type)
                               else type(spec), name, _DEPTH.get(key, 0))
    return read


def _species_init(entry, key: str, dim: int) -> SpeciesInit | None:
    """The species `entry` as the walk read it (None for null), on a
    dim-D lattice: a short `u` padded with zeros, a tensor typed and
    checked d x d."""
    if entry is None:
        return None
    u = entry["u"] if isinstance(entry["u"], list) else [entry["u"]]
    tensor = entry["tensor"]
    if tensor is not None:
        tensor = _typed(tensor, float, f"{key}.tensor", 2)
        if not (isinstance(tensor, list) and len(tensor) == dim
                and all(np.shape(row) == (dim,) for row in tensor)):
            raise ConfigError(f"{key}.tensor must be {dim}x{dim}")
        tensor = np.array(tensor)
    return SpeciesInit(n=entry["n"], u=tuple(u) + (0.0,) * (dim - len(u)),
                       T=entry["T"], tensor=tensor)


def _check_table(key: str, count: int) -> None:
    """ConfigError naming `key` when a table of `count` rows of three
    float64 columns (the scan's and the persistence table's) would not
    fit in physical memory."""
    table, memory = 3 * 8 * count, physical_memory()
    if table > memory:
        raise ConfigError(f"{key} {count:.3g} gives a table of {table:.3g} "
                          f"bytes, beyond the {memory} bytes of physical "
                          f"memory")


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
    cfg = _read(doc, _SCHEMA)
    if cfg["interaction"] is None:
        raise MissingKeyError("interaction")

    masses = cfg["masses"]
    if not isinstance(masses, list) or len(masses) != 2:
        raise ConfigError("masses must be a two-element list")
    masses = [_typed(x, float, f"masses[{k}]") for k, x in enumerate(masses)]
    es = cfg["es"]
    try:
        es["variant"] = Variant(es["variant"])
    except ValueError:
        raise UnknownVariantError(es["variant"]) from None

    scan = cfg["scan"]
    if scan is not None:
        if scan["parameter"] not in ("delta", "alpha"):
            raise ConfigError(f"scan parameter must be 'delta' or 'alpha' "
                              f"(got {scan['parameter']!r})")
        for key in ("start", "stop"):
            if not np.isfinite(scan[key]):
                raise ConfigError(f"scan.{key} must be finite "
                                  f"(got {scan[key]})")
        if scan["count"] < 2:
            raise ConfigError("scan count must be at least 2")
        _check_table("scan.count", scan["count"])

    persistence = cfg["persistence"]
    for key in ("kappa_min", "kappa_max"):  # either may be the larger
        if not _positive(persistence[key]):
            raise ConfigError(f"persistence.{key} must be finite and "
                              f"positive (got {persistence[key]})")
    if persistence["count"] < 1:
        raise ConfigError(f"persistence.count must be at least 1 "
                          f"(got {persistence['count']})")
    _check_table("persistence.count", persistence["count"])

    params = ModelParams(
        species1=SpeciesSpec(m=masses[0]), species2=SpeciesSpec(m=masses[1]),
        interaction=InteractionSpec(**cfg["interaction"]),
        mixing=MixingParams(**cfg["mixing"]), es=EsParams(**es))
    violations = validate(params)
    if violations:
        raise ValidationFailureError(violations)

    # first: the lattice refuses a dim outside {1, 2, 3} that would size u
    grid = VelocityGrid(**cfg["grid"])
    scenario = cfg["scenario"]
    for key in ("species1", "species2"):
        scenario[key] = _species_init(scenario[key], f"scenario.{key}",
                                      grid.dim)
    return RunConfig(scenario=Scenario(params=params, grid=grid, **scenario),
                     scan_spec=scan, persistence_spec=persistence)
