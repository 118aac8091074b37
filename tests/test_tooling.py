"""The traced benchmark runs wrap the dmx names that perfbench/tracer.py
lists.  A name deleted or renamed in src/ must fail here, not silently drop
out of a traced run.  The tracer is read, never imported as a package, so
nothing is written under perfbench/."""

import ast
import importlib
import runpy
import sys
from pathlib import Path

import pytest

from dmx import verify

ROOT = Path(__file__).resolve().parents[1]
TRACER = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))


@pytest.mark.parametrize("layer", sorted(TRACER["LAYERS"]))
def test_tracer_layer_targets_resolve(layer):
    for target in TRACER["LAYERS"][layer]:
        mod = importlib.import_module("dmx." + target[0])
        if len(target) == 2:
            assert callable(getattr(mod, target[1], None)), target
        else:
            assert target[2] in vars(getattr(mod, target[1])), target


def test_tracer_checks_are_suite_checks():
    assert [c for c in TRACER["CHECKS"] if c not in verify.SUITE] == []


def test_library_imports_only_the_standard_library():
    """dmx has zero runtime dependencies: every absolute import in src/dmx
    names a standard-library module or dmx itself."""
    foreign = []
    for path in sorted((ROOT / "src" / "dmx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "dmx" and top not in sys.stdlib_module_names:
                    foreign.append((path.name, name))
    assert foreign == []
