"""Property tests of the minor and twist identities and of their mask
kernels on seeded random delta-matroids, of the file-format round trips,
and of the CLI's exit codes on arbitrary files."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmx.cli import main

from dmx.core import (
    exchange_violation_masks,
    family_sort_key,
    indices_of,
    minor_masks,
    twist_masks,
)
from dmx.formats import dump_dm, dump_gf2, parse_dm, parse_gf2
from dmx.gf2 import Gf2SymmetricMatrix
from dmx.matroid import lower_bases, lower_matroid
from dmx.verify import random_delta_matroids

# The same examples on every run keep the suite deterministic; no example
# database is kept.
deterministic = settings(derandomize=True, database=None, deadline=None)


@st.composite
def delta_matroids(draw, min_n=0):
    n = draw(st.integers(min_n, 8))
    return random_delta_matroids(n, draw(st.integers(0, 10**6)), 1)[0]


@st.composite
def symmetric_matrices(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Gf2SymmetricMatrix(tuple(rows))


@st.composite
def minors(draw):
    """A delta-matroid with disjoint delete and contract sets."""
    d = draw(delta_matroids())
    full = d.ground.full_mask
    delete = draw(st.integers(0, full))
    return d, delete, draw(st.integers(0, full)) & ~delete


@deterministic
@given(delta_matroids(min_n=1), st.data())
def test_contraction_is_deletion_of_the_twist(d, data):
    e = data.draw(st.integers(0, d.ground.size - 1))
    assert d.contract(e) == d.twist(1 << e).delete(e)


@deterministic
@given(delta_matroids(), st.data())
def test_deletion_is_dual_of_contracted_dual(d, data):
    x = data.draw(st.integers(0, d.ground.full_mask))
    assert d.minor(delete=x) == d.dual().minor(contract=x).dual()


@deterministic
@given(minors(), st.data())
def test_elementwise_minors_in_any_order(case, data):
    d, delete, contract = case
    order = data.draw(st.permutations(indices_of(delete | contract)))
    cur = d
    for e in order:
        i = cur.ground.index(d.ground.labels[e])
        cur = cur.contract(i) if contract >> e & 1 else cur.delete(i)
    want = d.minor(delete=delete, contract=contract)
    assert type(cur) is type(want)
    assert cur == want


@deterministic
@given(delta_matroids(min_n=1), st.data())
def test_split_at_an_element_is_deletion_and_contraction(d, data):
    # the lemma the exhaustive corpus is built on: both sides of a split are
    # empty or delta-matroids on one element fewer
    e = data.draw(st.integers(0, d.ground.size - 1))
    bit = 1 << e
    low = bit - 1

    def drop(m):
        return (m & low) | (m >> 1 & ~low)

    without = {drop(m) for m in d.family if not m & bit}
    with_e = {drop(m) for m in d.family if m & bit}
    for part, minor in ((without, d.delete(e)), (with_e, d.contract(e))):
        if part:
            assert part == set(minor.family)
            assert exchange_violation_masks(tuple(part)) is None


@deterministic
@given(delta_matroids(), st.data())
def test_lower_bases_of_twist_masks(d, data):
    n = d.ground.size
    a = data.draw(st.integers(0, d.ground.full_mask))
    got = lower_bases(twist_masks(d.family, a, n))
    assert got == lower_matroid(d.twist(a)).family
    # reference: the smallest twisted sets, sorted by the reference key
    twisted = [m ^ a for m in d.family]
    low = min(m.bit_count() for m in twisted)
    assert got == tuple(sorted((m for m in twisted if m.bit_count() == low), key=family_sort_key))


@deterministic
@given(minors())
def test_minor_masks_is_the_minor_family(case):
    d, delete, contract = case
    got = minor_masks(d.family, delete, contract)
    assert got == d.minor(delete=delete, contract=contract).family
    # reference: one element at a time, any order on a delta-matroid, sorted
    # by the reference key at the end
    fam = set(d.family)
    for e in sorted(indices_of(delete | contract)):
        bit = 1 << e
        kept = {m for m in fam if bool(m & bit) == bool(contract & bit)} or fam
        fam = {m & ~bit for m in kept}
    pos = [e for e in range(d.ground.size) if not (delete | contract) >> e & 1]
    squeezed = {sum(1 << j for j, e in enumerate(pos) if m >> e & 1) for m in fam}
    assert got == tuple(sorted(squeezed, key=family_sort_key))


@deterministic
@given(delta_matroids())
def test_dm_file_round_trip(d):
    assert parse_dm(dump_dm(d)).system == d


@deterministic
@given(symmetric_matrices())
def test_gf2_file_round_trip(a):
    assert parse_gf2(dump_gf2(a)) == a


_CLI_ACTIONS = [
    ("check",), ("classify",), ("op", "dual"),
    ("ribbon", "classify"), ("ribbon", "to-dm"), ("ribbon", "petrial"),
]


@st.composite
def _dm_lines(draw):
    n = draw(st.integers(0, 4))
    labels = [str(i + 1) for i in range(n)]
    head = draw(st.sampled_from([[], ["kind: matroid"], ["kind: delta-matroid"]]))
    sets = draw(st.lists(st.lists(st.sampled_from(labels + ["x"]), max_size=3), max_size=8))
    feasible = ["feasible: {%s}" % ",".join(s) for s in sets]
    return head + ["ground: " + " ".join(labels)] + feasible


@st.composite
def _gf2_lines(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    head = draw(st.sampled_from(["gf2sym %d" % rows, "gf2 %d %d" % (rows, cols)]))
    width = rows if head.startswith("gf2sym") else cols
    return [head] + ["".join(draw(st.lists(st.sampled_from("01"), min_size=width, max_size=width)))
                     for _ in range(rows)]


@st.composite
def _rg_lines(draw):
    m = draw(st.integers(0, 4))
    halves = draw(st.permutations([h for i in range(m) for h in ("%da" % i, "%db" % i)]))
    cuts = sorted(draw(st.lists(st.integers(0, len(halves)), max_size=3)))
    bounds = [0] + cuts + [len(halves)]
    vertices = ["vertex: " + " ".join(halves[a:b]) for a, b in zip(bounds, bounds[1:])]
    # edge labels become ground labels under to-dm; "{", "}" and "," are reserved
    labels = [draw(st.sampled_from(["%d", "%d", "e%d", "é%d", "a,%d", "{%d", "%d}"])) % i
              for i in range(m)]
    edges = ["edge: %s %da %db %s" % (labels[i], i, i, draw(st.sampled_from("+-")))
             for i in range(m)]
    return vertices + edges


_FILE_LINES = {".dm": _dm_lines(), ".gf2": _gf2_lines(), ".rg": _rg_lines()}


@st.composite
def cli_files(draw):
    """A file suffix, the bytes of mostly well-formed text in some format,
    and whether they are not UTF-8.  Three files in five lose a line, get a
    line of arbitrary text or get a byte that no UTF-8 text holds."""
    suffix = draw(st.sampled_from(sorted(_FILE_LINES)))
    lines = draw(_FILE_LINES[draw(st.sampled_from([suffix, suffix, ".dm", ".gf2", ".rg"]))])
    damage = draw(st.sampled_from(["none", "none", "drop", "insert", "byte"]))
    if damage == "drop" and lines:
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif damage == "insert":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if damage == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3("])) + data[at:]
    return suffix, data, damage == "byte"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(deterministic, max_examples=100)
@given(cli_files())
def test_cli_exit_codes_on_arbitrary_files(fuzz_dir, case):
    """Every action on any file exits 0, 1 or 2, and never with a traceback:
    a bad file, one that is not UTF-8 among them, is one error line on
    stderr.  What ribbon to-dm prints, dmx check reads back as valid."""
    suffix, data, not_utf8 = case
    path = fuzz_dir / ("input" + suffix)
    path.write_bytes(data)
    for action in _CLI_ACTIONS:
        code, out, err = _run_cli(*action, str(path))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
        if not_utf8:
            assert code == 2 and err.startswith("error: %s: " % path)
        if action == ("ribbon", "to-dm") and code == 0:
            dm = fuzz_dir / "to-dm.dm"
            dm.write_text(out, encoding="utf-8")
            code, report, _ = _run_cli("check", str(dm))
            assert code == 0 and report.endswith("valid: yes\n")


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()
