"""Every call site the benchmark's tracer rebinds (`SITES` in
perfbench/tracing.py) is bound where the tracer looks for it, so a
refactor that unbinds one fails here with the site named."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_sites():
    """The SITES literal, read from the source without running it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SITES"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SITES list in {TRACING}")


def owner(path):
    """The module, or the class inside one, that a site names."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_traced_sites_are_bound():
    sites = traced_sites()
    assert sites
    unbound = [f"{path}.{attr}" for path, attr, _ in sites
               if attr not in vars(owner(path))]
    assert not unbound, unbound
