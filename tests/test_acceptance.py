"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import os
import subprocess
import sys
import time

import pytest

import dmx
from dmx.core import DeltaMatroid, SetSystem
from dmx.gf2 import is_binary
from dmx.matroid import (
    Matroid,
    is_bipartite_delta,
    is_eulerian_delta,
    lower_matroid,
)
from dmx.verify import SUITE, corpus, render_text, ribbon_corpus

from test_core import systems_of
from test_gf2 import _exhaustive_search


def _report(number: int, body) -> None:
    try:
        body()
    except BaseException:
        print("criterion %d: FAIL" % number)
        raise
    print("criterion %d: PASS" % number)


def _assert_fast(start: float, limit: float) -> None:
    assert time.perf_counter() - start < limit


def test_criterion_1_explicit_witnesses():
    def body():
        start = time.perf_counter()
        # (a) contraction does not commute with the lower matroid
        d = DeltaMatroid.from_sets("12", [(), "12"])
        left = lower_matroid(d.contract(0))
        right = lower_matroid(d).contract(0)
        assert left.ground.labels == ("2",) and left.family == (0b1,)
        assert right.ground.labels == ("2",) and right.family == (0b0,)
        assert left != right

        # (b) the odd non-binary three-element instance
        d3 = DeltaMatroid.from_sets("123", [(), "12", "23", "13", "123"])
        assert d3.parity() == "odd"
        assert not is_binary(d3).verdict and _exhaustive_search(d3) is None
        assert lower_matroid(d3).circuits == (0b001, 0b010, 0b100)
        for e in range(3):
            assert d3.restrict(1 << e).family == (0,)

        # (c) D = M*1 has D* = D Eulerian while D is not bipartite
        m = Matroid.from_bases(SetSystem.from_sets("12", ["1", "2"]))
        dd = m.twist(0b01)
        assert dd.family == (0b00, 0b11)
        assert dd.dual() == dd
        assert is_eulerian_delta(dd.dual())
        assert not is_bipartite_delta(dd)
        _assert_fast(start, 1.0)

    _report(1, body)


def test_criterion_2_bipartite_loop_complement_corpus():
    def body():
        start = time.perf_counter()
        evens = [d for d in systems_of(corpus("binary_delta", 4)) if d.parity() == "even"]
        assert len(evens) > 100
        for d in evens:
            bip = is_bipartite_delta(d)
            even = d.loop_complement(d.ground.full_mask).parity() == "even"
            assert bip == even, d
        _assert_fast(start, 60.0)

    _report(2, body)


def test_criterion_3_twist_of_binary_matroid_theorems():
    def body():
        start = time.perf_counter()
        forward = SUITE["bipartite_dual_eulerian"](max_n=5)
        assert not forward.counterexamples, render_text(forward)
        assert forward.witness is True  # converse hunt finds the recorded witness
        both = SUITE["characterization"](max_n=5)
        assert both.verdict, render_text(both)
        assert forward.tested == both.tested > 10000
        _assert_fast(start, 300.0)

    _report(3, body)


def test_criterion_4_odd_circuit_lemma():
    def body():
        start = time.perf_counter()
        report = SUITE["odd_circuit"](max_n=4)
        assert report.verdict, render_text(report)
        assert report.witness is True  # non-binary witness fails the forward direction
        assert report.tested == len(corpus("binary_delta", 4))
        _assert_fast(start, 60.0)

    _report(4, body)


def test_criterion_5_three_way_eulerian_equivalence():
    def body():
        start = time.perf_counter()
        report = SUITE["welsh_duality"](max_n=5)
        assert report.verdict, render_text(report)
        assert report.tested > 400
        _assert_fast(start, 60.0)

    _report(5, body)


def test_criterion_6_operation_calculus_identities():
    def body():
        start = time.perf_counter()
        report = SUITE["operation_calculus"](max_n=3, seed=7, random_count=10000)
        assert report.verdict, render_text(report)
        assert report.tested >= 10000 + 174  # random n=6 corpus plus exhaustive n<=3
        _assert_fast(start, 300.0)

    _report(6, body)


def test_criterion_7_ribbon_corpus():
    def body():
        start = time.perf_counter()
        corpus = ribbon_corpus()
        assert len(corpus) >= 10
        assert all(len(g.edges) <= 5 for _, g in corpus)
        # plane, positive-genus orientable and non-orientable cases all present
        assert any(not g.is_orientable() for _, g in corpus)
        euler = lambda g: len(g.vertices) - len(g.edges) + g.boundary_components()
        assert any(g.is_orientable() and euler(g) == 2 for _, g in corpus)
        assert any(g.is_orientable() and euler(g) != 2 for _, g in corpus)
        report = SUITE["ribbon_correspondence"]()
        assert report.verdict, render_text(report)
        assert report.witness is True  # non-bipartite graph with Eulerian dual
        _assert_fast(start, 10.0)

    _report(7, body)


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    # the child imports the same dmx package as this process
    src = os.path.dirname(os.path.dirname(dmx.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "dmx", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_criterion_8_determinism():
    def body():
        args = ("verify", "--suite", "all", "--max-n", "3", "--seed", "7")
        first = _run_cli(*args)
        second = _run_cli(*args)
        assert first.returncode == 0, first.stdout + first.stderr
        assert first.stdout == second.stdout
        sharded = _run_cli(*args, "--shards", "4")
        assert sharded.returncode == 0
        assert sharded.stdout == first.stdout

    _report(8, body)
