"""The package's only runtime dependency is numpy: every absolute import
in src/bgkmix is numpy or a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1]
                  / "src" / "bgkmix").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_imports_only_numpy_and_stdlib():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not foreign, foreign
