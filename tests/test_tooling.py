"""The traced benchmark runs wrap the dmx names that perfbench/tracer.py
lists.  A name deleted or renamed in src/ must fail here, not silently drop
out of a traced run.  The tracer is read, never imported as a package, so
nothing is written under perfbench/."""

import importlib
import runpy
from pathlib import Path

import pytest

from dmx import verify

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))


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
