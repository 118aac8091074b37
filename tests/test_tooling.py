"""The traced benchmark runs wrap the dmx names that perfbench/tracer.py
lists.  A name deleted or renamed in src/ must fail here, not silently drop
out of a traced run; the same holds for the names README.md cites.  The
tracer and the input generator are read, never imported as a package, so
nothing is written under perfbench/."""

import ast
import hashlib
import importlib
import io
import re
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dmx import verify
from dmx.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
GEN = runpy.run_path(str(ROOT / "perfbench" / "gen.py"))


@pytest.mark.parametrize("layer", sorted(TRACER["LAYERS"]))
def test_tracer_layer_targets_resolve(layer):
    for target in TRACER["LAYERS"][layer]:
        mod = importlib.import_module("dmx." + target[0])
        if len(target) == 2:
            assert callable(getattr(mod, target[1], None)), target
        else:
            assert target[2] in vars(getattr(mod, target[1])), target


def test_corpora_read_the_generators_the_tracer_wraps(monkeypatch):
    """The tracer swaps module attributes, so a corpus must look each
    verify.gen.* generator up by name when it is built: one that captured a
    function object would hide its calls from a traced run."""
    names = [t[1] for layer, targets in TRACER["LAYERS"].items()
             if layer.startswith("verify.gen.") for t in targets]
    assert len(names) == 4
    called = set()
    for name in names:
        original = getattr(verify, name)

        def counted(*args, _name=name, _original=original):
            called.add(_name)
            return _original(*args)

        monkeypatch.setattr(verify, name, counted)
    for check in verify.SUITE.values():
        check.corpus(5, 1)
    assert called == set(names)


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


def test_library_has_no_unused_imports():
    """Every name a `from ... import` binds in src/dmx is read in its module;
    __init__.py is skipped, since it imports to re-export."""
    unused = []
    for path in sorted((ROOT / "src" / "dmx").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in read:
                        unused.append((path.name, name))
    assert unused == []


def test_readme_library_names_resolve():
    """Every backticked `module.name` that README.md cites for a dmx module
    names an attribute of that module."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`((?:core|matroid|gf2|ribbon|formats|verify|cli)(?:\.\w+)+)", text))
    assert len(cited) >= 17
    missing = []
    for name in sorted(cited):
        module, *attrs = name.split(".")
        obj = importlib.import_module("dmx." + module)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


# sha256 of every request's exit code, stdout and stderr on the seed-1 files,
# with the directory replaced by "DIR"; a refactor must not change one byte
CLI_OUTPUT_DIGEST = "c7bda84c0e092cc91b7cb2412214126fb8c07c4048330ce3ed7cf5dc51395fcd"


def test_cli_output_on_generated_files_is_unchanged(tmp_path):
    """check, classify, ribbon to-dm and ribbon classify on each of the 100
    seed-1 classify-files inputs, in process: valid runs, verdicts and the
    exit-2 diagnostics of the commands that do not apply to a file."""
    specs = GEN["generate"](1)
    GEN["write"](specs, str(tmp_path))
    h = hashlib.sha256()
    for spec in specs:
        for command in (["check"], ["classify"], ["ribbon", "to-dm"], ["ribbon", "classify"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(command + [str(tmp_path / spec.name)])
            record = "%s\0%s\0%s\0" % (code, out.getvalue(), err.getvalue())
            h.update(record.replace(str(tmp_path), "DIR").encode("utf-8"))
    assert h.hexdigest() == CLI_OUTPUT_DIGEST
