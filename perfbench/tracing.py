"""Spans around calls into bgkmix's modules, recorded from outside.

`Tracer.installed()` rebinds each public function under the name its
caller looks it up by (a `from .grid import match_moments` binds the
name inside `bgkmix.targets` and `bgkmix.solver`, so that is where it is
wrapped) and restores the originals on exit.  The matchers are called
with `return_info=True` so Newton iteration counts are read without
changing what the caller receives.

Spans stay in memory as (name, start, end, parent, newton_iters); a
span's self time is its duration minus the durations of its children,
which nest because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, layer.function) for each call site the CLI uses.
SITES = [
    ("bgkmix.targets", "match_moments", "grid.match_moments"),
    ("bgkmix.solver", "match_moments", "grid.match_moments"),
    ("bgkmix.targets", "match_gaussian", "grid.match_gaussian"),
    ("bgkmix.solver", "match_gaussian", "grid.match_gaussian"),
    ("bgkmix.grid", "moments", "grid.moments"),
    ("bgkmix.grid", "spd_factor", "grid.spd_factor"),
    ("bgkmix.targets", "spd_factor", "grid.spd_factor"),
    ("bgkmix.solver", "h_functional", "grid.h_functional"),
    ("bgkmix.config", "VelocityGrid", "grid.velocity_grid"),
    ("bgkmix.cli", "VelocityGrid", "grid.velocity_grid"),
    ("bgkmix.solver", "build_targets", "targets.build_targets"),
    ("bgkmix.targets.MixtureState", "from_distributions",
     "targets.mixture_state"),
    ("bgkmix.solver", "relax_step", "solver.relax_step"),
    ("bgkmix.solver", "transport_step", "solver.transport_step"),
    ("bgkmix.solver", "diagnose", "solver.diagnose"),
    ("bgkmix.cli", "run_scenario", "solver.run_scenario"),
    ("bgkmix.config", "validate", "params.validate"),
    ("bgkmix.solver", "validate", "params.validate"),
    ("bgkmix.cli", "validate", "params.validate"),
    ("bgkmix.cli", "parse_config", "config.parse_config"),
    ("bgkmix.chapman", "fit_decay_rate", "chapman.fit_decay_rate"),
    ("bgkmix.cli", "write_diagnostics_csv", "cli.write_diagnostics_csv"),
]
MATCHERS = {"grid.match_moments", "grid.match_gaussian"}


def _owner(path: str):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans and node-evaluation counts for one traced run."""

    def __init__(self):
        self.spans: list = []
        self.node_evals = 0
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.node_evals = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        matcher = name in MATCHERS
        moments = name == "grid.moments"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            iters = 0
            start = clock()
            try:
                if matcher and not kwargs.get("return_info"):
                    result, iters = fn(*args, return_info=True, **kwargs)
                    self.node_evals += (iters + 1) * result.shape[-1]
                else:
                    result = fn(*args, **kwargs)
                    if moments:
                        self.node_evals += args[0].shape[-1]
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, iters)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for path, attr, name in SITES:
                owner = _owner(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, newton_iters."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "newton_iters": 0})
        for idx, (name, start, end, _, iters) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[idx]
            entry["newton_iters"] += iters
        return dict(out)

    def write(self, path: str, rep: int, origin: float) -> None:
        """Write the recorded spans as JSON lines, times from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                name, start, end, parent, iters = span
                fh.write(json.dumps({
                    "rep": rep, "span": idx, "parent": parent, "name": name,
                    "start_s": start - origin, "end_s": end - origin,
                    "newton_iters": iters}) + "\n")
