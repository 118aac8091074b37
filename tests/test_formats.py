import random

import pytest

from dmx.core import DeltaMatroid, SetSystem, numbered_ground
from dmx.formats import (
    DELTA_KIND,
    MATROID_KIND,
    ParseError,
    dump_dm,
    dump_gf2,
    dump_rg,
    parse_dm,
    parse_gf2,
    parse_rg,
)
from dmx.gf2 import Gf2Matrix, Gf2SymmetricMatrix
from dmx.ribbon import RibbonEdge, RibbonGraph
from test_ribbon import random_rotation_system

DM_TEXT = """\
# a comment
ground: 1 2
feasible: {}
feasible: {1,2}
"""


def test_parse_dm():
    dm = parse_dm(DM_TEXT)
    assert dm.kind == DELTA_KIND
    assert dm.system.ground.labels == ("1", "2")
    assert dm.system.family == (0b00, 0b11)


def test_parse_dm_matroid_kind():
    dm = parse_dm("kind: matroid\nground: a b\nfeasible: {a}\n")
    assert dm.kind == MATROID_KIND


def test_dm_roundtrip():
    d = DeltaMatroid.from_sets("abc", [(), "ab", "ac", "bc"])
    assert parse_dm(dump_dm(d)).system == d
    assert dump_dm(parse_dm(dump_dm(d)).system) == dump_dm(d)


def test_dm_parse_errors_carry_location():
    with pytest.raises(ParseError) as e:
        parse_dm("ground: 1 1\n")
    assert e.value.line == 1 and "duplicate" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_dm("ground: 1\nfeasible: {2}\n")
    assert e.value.line == 2 and e.value.column == 12
    with pytest.raises(ParseError):
        parse_dm("feasible: {1}\n")  # feasible before ground
    with pytest.raises(ParseError):
        parse_dm("ground: a{b\n")  # reserved character
    with pytest.raises(ParseError):
        parse_dm("ground: 1\nfeasible: 1\n")  # missing braces
    with pytest.raises(ParseError):
        parse_dm("")  # missing ground
    with pytest.raises(ParseError):
        parse_dm("color: red\n")


def test_dm_label_columns_point_into_the_set():
    # "e" also occurs in the key "feasible"; the column is the one in braces
    with pytest.raises(ParseError) as e:
        parse_dm("ground: a b\nfeasible: {e}\n")
    assert (e.value.line, e.value.column) == (2, 12)
    # an unknown label that is a prefix of an earlier, known one
    with pytest.raises(ParseError) as e:
        parse_dm("ground: 12 2\nfeasible: {12, 1}\n")
    assert e.value.column == 16
    # a repeat is reported where it repeats
    with pytest.raises(ParseError) as e:
        parse_dm("ground: 1 2\nfeasible: {1, 1}\n")
    assert "repeated" in str(e.value) and e.value.column == 15


def test_dm_repeated_feasible_set_is_an_error():
    # the same set however it is spaced or ordered, named by both its lines
    with pytest.raises(ParseError) as e:
        parse_dm("ground: a b\nfeasible: {a}\nfeasible: { a }\n")
    assert (e.value.line, e.value.column) == (3, 1)
    assert str(e.value) == "line 3, col 1: repeated feasible set (first on line 2)"
    with pytest.raises(ParseError) as e:
        parse_dm("ground: a b\nfeasible: {a,b}\n# {b,a}\nfeasible: {}\nfeasible: {b, a}\n")
    assert e.value.line == 5 and "(first on line 2)" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_dm("ground: a\nfeasible: {}\nfeasible: { }\n")
    assert e.value.line == 3


def test_parse_gf2_symmetric():
    m = parse_gf2("gf2sym 2\n01\n10\n")
    assert isinstance(m, Gf2SymmetricMatrix)
    assert m.rows == (0b10, 0b01)


def test_parse_gf2_rectangular():
    m = parse_gf2("gf2 2 3\n101\n110\n")
    assert isinstance(m, Gf2Matrix)
    assert m.rows == (0b101, 0b011)
    assert m.cols == 3


def test_gf2_roundtrip():
    for m in (Gf2SymmetricMatrix((0b11, 0b11)), Gf2Matrix((0b10, 0b01), 2)):
        assert parse_gf2(dump_gf2(m)) == m


def test_gf2_parse_errors():
    with pytest.raises(ParseError):
        parse_gf2("gf2sym 2\n01\n")  # too few rows
    with pytest.raises(ParseError):
        parse_gf2("gf2sym 1\n11\n")  # row too long
    with pytest.raises(ParseError):
        parse_gf2("gf2sym 2\n01\n10\n00\n")  # too many rows
    with pytest.raises(ParseError):
        parse_gf2("gf2sym 2\n0x\n10\n")  # bad entry
    with pytest.raises(ParseError):
        parse_gf2("gf2sym 2\n11\n01\n")  # asymmetric
    with pytest.raises(ParseError):
        parse_gf2("matrix 2\n")  # bad header
    with pytest.raises(ParseError):
        parse_gf2("")


RG_TEXT = """\
vertex: 1a 2a
vertex: 2b 1b
edge: 1 1a 1b +
edge: 2 2a 2b -
"""


def test_parse_rg():
    g = parse_rg(RG_TEXT)
    assert g.vertices == (("1a", "2a"), ("2b", "1b"))
    assert g.edges[0] == RibbonEdge("1", ("1a", "1b"), False)
    assert g.edges[1].twisted


def test_rg_roundtrip():
    g = parse_rg(RG_TEXT)
    assert parse_rg(dump_rg(g)) == g
    rng = random.Random("dmx-ribbon-differential")
    for _ in range(2000):
        g = random_rotation_system(rng)
        assert parse_rg(dump_rg(g)) == g, g


def test_rg_parse_errors():
    with pytest.raises(ParseError):
        parse_rg("edge: 1 1a 1b\n")  # missing sign
    with pytest.raises(ParseError):
        parse_rg("edge: 1 1a 1b *\n")  # bad sign
    with pytest.raises(ParseError):
        parse_rg("vertex: 1a\nedge: 1 1a 1b +\n")  # 1b not at a vertex
    with pytest.raises(ParseError):
        parse_rg("face: 1a\n")


@pytest.mark.parametrize("label", ["a,b", "{a", "a}", "{}", ","])
def test_dm_ground_and_rg_edge_labels_share_the_reserved_rule(label):
    want = "line 2: label %r contains a reserved character" % label
    with pytest.raises(ParseError) as e:
        parse_dm("# ground\nground: x %s\nfeasible: {}\n" % label)
    assert str(e.value) == want
    with pytest.raises(ParseError) as e:
        parse_rg("vertex: 1a 1b\nedge: %s 1a 1b +\n" % label)
    assert str(e.value) == want


def test_canonical_output_is_sorted():
    s = SetSystem(numbered_ground(2), (0b11, 0b00, 0b10))
    assert dump_dm(s) == "ground: 1 2\nfeasible: {}\nfeasible: {2}\nfeasible: {1,2}\n"
