import dataclasses
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dmx import cli, core, verify
from dmx.cli import main
from dmx.core import SetSystem, numbered_ground
from dmx.formats import dump_dm, dump_rg, parse_rg
from dmx.gf2 import Gf2SymmetricMatrix, delta_matroid_from_symmetric
from dmx.ribbon import RibbonGraph
from test_core import _loop_complement_reference, _random_symmetric

DM = "ground: 1 2\nfeasible: {}\nfeasible: {1,2}\n"
BAD_AXIOM = "ground: 1 2 3\nfeasible: {}\nfeasible: {1,2,3}\n"
MATROID = "kind: matroid\nground: 1 2\nfeasible: {1}\nfeasible: {2}\n"
GF2SYM = "gf2sym 2\n01\n10\n"
RG = "vertex: 1a 2a 1b 2b\nedge: 1 1a 1b +\nedge: 2 2a 2b +\n"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("d.dm", DM),
        ("bad.dm", BAD_AXIOM),
        ("m.dm", MATROID),
        ("a.gf2", GF2SYM),
        ("g.rg", RG),
    ):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_check_valid(files):
    code, out, _ = run("check", files["d.dm"])
    assert code == 0
    assert "kind: delta-matroid" in out
    assert "valid: yes" in out


def test_check_axiom_failure_reports_witness_with_exit_zero(files):
    code, out, _ = run("check", files["bad.dm"])
    assert code == 0
    assert "valid: no" in out
    assert "X={}, Y={1,2,3}, u=1" in out


def test_check_matroid_kind(files):
    code, out, _ = run("check", files["m.dm"])
    assert code == 0 and "kind: matroid" in out and "valid: yes" in out


def test_check_large_binary_delta_matroid(tmp_path):
    # thousands of feasible sets on 14 elements: the exchange check scales
    a = _random_symmetric(14, random.Random("dmx-large-check"))
    d = delta_matroid_from_symmetric(a, numbered_ground(14))
    assert len(d.family) > 4000
    p = tmp_path / "big.dm"
    p.write_text(dump_dm(d))
    code, out, _ = run("check", str(p))
    assert code == 0
    assert "feasible-sets: %d" % len(d.family) in out.splitlines()
    assert "valid: yes" in out.splitlines()


def test_check_matroid_base_exchange_failure(tmp_path):
    p = tmp_path / "m.dm"
    p.write_text(
        "kind: matroid\nground: 1 2 3 4\n"
        "feasible: {2,3}\nfeasible: {1,4}\nfeasible: {1,2}\n"
    )
    code, out, _ = run("check", str(p))
    assert code == 0
    assert out.splitlines()[-2:] == [
        "valid: no",
        "reason: base exchange fails at B1={1,4}, B2={2,3}, u=1",
    ]


UNEQUAL_MATROID = "kind: matroid\nground: 1 2\nfeasible: {}\nfeasible: {1,2}\n"


@pytest.mark.parametrize(
    "argv",
    [("classify",), ("op", "dual"), ("op", "twist", "--set", "1"), ("op", "delete", "--set", "1")],
)
def test_matroid_kind_with_unequal_bases_is_refused(tmp_path, argv):
    """check reports the bases that differ in size; classify and op refuse
    the file with the same reason, although it is a valid delta-matroid."""
    p = tmp_path / "m.dm"
    p.write_text(UNEQUAL_MATROID)
    code, out, _ = run("check", str(p))
    assert code == 0
    assert out.splitlines()[-2:] == ["valid: no", "reason: bases {} and {1,2} differ in cardinality"]
    assert run(*argv, str(p)) == (2, "", "error: %s: bases {} and {1,2} differ in cardinality\n" % p)
    # as a delta-matroid the same family is accepted
    p.write_text(UNEQUAL_MATROID.replace("kind: matroid\n", ""))
    assert run(*argv, str(p))[0] == 0


def test_classify_and_op_accept_a_matroid_kind(files):
    code, out, _ = run("classify", files["m.dm"])
    assert code == 0 and "bipartite: yes" in out.splitlines()
    assert run("op", "dual", files["m.dm"]) == (0, "ground: 1 2\nfeasible: {1}\nfeasible: {2}\n", "")


def test_check_gf2_and_rg(files):
    code, out, _ = run("check", files["a.gf2"])
    assert code == 0 and "kind: gf2sym" in out
    code, out, _ = run("check", files["g.rg"])
    assert code == 0 and "kind: ribbon" in out and "edges: 2" in out


def test_parse_error_diagnostic(tmp_path):
    p = tmp_path / "broken.dm"
    p.write_text("ground: 1\nfeasible: {9}\n")
    code, _, err = run("check", str(p))
    assert code == 2
    assert str(p) in err and "line 2" in err


def test_missing_file(tmp_path):
    code, _, err = run("check", str(tmp_path / "nope.dm"))
    assert code == 2 and "cannot read" in err


def test_unknown_extension(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("hi")
    code, _, err = run("check", str(p))
    assert code == 2


@pytest.mark.parametrize(
    "command, suffix, expected",
    [
        ("check", ".txt", ".dm, .gf2 or .rg"),
        ("classify", ".rg", ".dm or .gf2"),
        ("classify", ".txt", ".dm or .gf2"),
        ("op dual", ".rg", ".dm"),
        ("op twist --set 1", ".gf2", ".dm"),
        ("op dual", ".txt", ".dm"),
        ("ribbon classify", ".dm", ".rg"),
        ("ribbon to-dm", ".gf2", ".rg"),
        ("ribbon petrial", ".txt", ".rg"),
    ],
)
def test_command_rejects_a_suffix_it_does_not_read(tmp_path, command, suffix, expected):
    """Every command names the suffixes it reads and refuses any other file
    before reading it, with the one message check gives: contents that would
    parse under the command's own suffix do not change that."""
    argv = command.split()
    p = tmp_path / ("x" + suffix)
    p.write_text(RG if argv[0] == "ribbon" else DM)
    assert run(*argv, str(p)) == (
        2,
        "",
        "error: %s: unknown file extension %r (expected %s)\n" % (p, suffix, expected),
    )


def test_op_twist(files):
    code, out, _ = run("op", "twist", "--set", "1", files["d.dm"])
    assert code == 0
    assert out == "ground: 1 2\nfeasible: {1}\nfeasible: {2}\n"
    # without --set the twist is by the empty set
    assert run("op", "twist", files["d.dm"]) == (0, DM, "")


def test_op_output_roundtrips(files, tmp_path):
    code, out, _ = run("op", "dual", files["d.dm"])
    assert code == 0
    p = tmp_path / "r.dm"
    p.write_text(out)
    code2, out2, _ = run("op", "dual", str(p))
    assert code2 == 0
    # dual twice returns to the original canonical form
    assert out2 == DM


def test_op_delete_contract(files):
    code, out, _ = run("op", "delete", "--set", "1", files["d.dm"])
    assert code == 0 and out == "ground: 2\nfeasible: {}\n"
    code, out, _ = run("op", "contract", "--set", "1", files["d.dm"])
    assert code == 0 and out == "ground: 2\nfeasible: {2}\n"


def test_op_lc(files):
    code, out, _ = run("op", "lc", "--set", "1", files["d.dm"])
    assert code == 0
    assert out == "ground: 1 2\nfeasible: {}\nfeasible: {1}\nfeasible: {1,2}\n"


@pytest.mark.parametrize("spec", [None, "", "3", "2,5", "1,2,3,4,5,6"])
def test_op_lc_matches_the_set_definition(tmp_path, spec):
    rng = random.Random("dmx-cli-lc")
    g = numbered_ground(6)
    d = delta_matroid_from_symmetric(_random_symmetric(6, rng), g).twist(rng.randrange(64))
    p = tmp_path / "d.dm"
    p.write_text(dump_dm(d))
    a = g.mask(spec.split(",")) if spec else 0
    want = dump_dm(SetSystem(g, tuple(_loop_complement_reference(d.family, a))))
    set_args = () if spec is None else ("--set", spec)
    assert run("op", "lc", *set_args, str(p)) == (0, want, "")


def _empty_family_file(tmp_path, n, sets=("{}",)):
    p = tmp_path / "lc.dm"
    lines = ["ground: " + " ".join(str(i) for i in range(1, n + 1))]
    p.write_text("\n".join(lines + ["feasible: " + x for x in sets]) + "\n")
    return str(p)


# (ground size, feasible sets, |A|): min(|F|*2^|A|, 2^n) is exactly 2^16,
# once through each side of the minimum
@pytest.mark.parametrize("n, sets, k", [(17, ("{}",), 16), (16, ("{}", "{16}"), 16)])
def test_op_lc_at_the_size_bound(tmp_path, n, sets, k):
    path = _empty_family_file(tmp_path, n, sets)
    code, out, err = run("op", "lc", "--set", ",".join(str(i) for i in range(1, k + 1)), path)
    assert (code, err) == (0, "")
    assert 1 < out.count("\n") <= 1 + (1 << 16)


@pytest.mark.parametrize(
    "n, sets, k, bound",
    [(17, ("{}",), 17, 1 << 17), (17, ("{}", "{17}"), 16, 1 << 17), (30, ("{}",), 30, 1 << 30)],
)
def test_op_lc_beyond_the_size_bound_is_refused_before_toggling(
    tmp_path, monkeypatch, n, sets, k, bound
):
    def toggle(family, a, n):
        raise AssertionError("loop complementation started")

    monkeypatch.setattr(core, "loop_complement_masks", toggle)
    path = _empty_family_file(tmp_path, n, sets)
    code, out, err = run("op", "lc", "--set", ",".join(str(i) for i in range(1, k + 1)), path)
    assert (code, out) == (2, "")
    assert err == (
        "error: %s: loop complementation is limited to min(|F|*2^|A|, 2^n) <= 65536 sets, "
        "got %d\n" % (path, bound)
    )


def test_op_rejects_invalid_input(files):
    code, _, err = run("op", "dual", files["bad.dm"])
    assert code == 2 and "symmetric exchange" in err


def test_op_rejects_unknown_label(files):
    code, _, err = run("op", "twist", "--set", "9", files["d.dm"])
    assert code == 2 and "unknown ground label" in err


def test_op_dual_rejects_set(files):
    code, _, err = run("op", "dual", "--set", "1", files["d.dm"])
    assert code == 2
    # any --set on dual is an error, even the empty set, as for ribbon
    # classify/to-dm
    code, out, err = run("op", "dual", "--set", "", files["d.dm"])
    assert (code, out) == (2, "")
    assert "dual takes no --set argument" in err


def test_classify_dm(files):
    code, out, _ = run("classify", files["d.dm"])
    assert code == 0
    lines = out.splitlines()
    assert "even: yes" in lines
    assert "binary: yes" in lines
    assert "binary-matrix: 01|10" in lines
    assert "bipartite: no" in lines
    assert "odd-circuit: {1}" in lines
    assert "eulerian: yes" in lines
    assert "eulerian-partition: {1} {2}" in lines


def _path_d_of_a(n, twist):
    """D(A) of the path on n vertices with a zero diagonal, twisted."""
    rows = [0] * n
    for i in range(n - 1):
        rows[i] |= 1 << (i + 1)
        rows[i + 1] |= 1 << i
    return dump_dm(delta_matroid_from_symmetric(Gf2SymmetricMatrix(tuple(rows))).twist(twist))


# name -> (file, check stdout, classify exit code, classify stdout, classify
# stderr with the path as {}); both verbs exit 0 on check and print nothing
# on stderr.  Binary files are proved valid by their D(A) certificate, the
# others are scanned, and every witness comes from the scan.
GOLDEN = {
    "binary-matroid.dm": (
        "kind: matroid\nground: a b c d\nfeasible: {a,b}\nfeasible: {a,c}\nfeasible: {b,c}\n"
        "feasible: {b,d}\nfeasible: {c,d}\n",
        "kind: matroid\nground: a b c d\nfeasible-sets: 5\nvalid: yes\n",
        0,
        "even: yes\nbinary: yes\nbinary-twist: {a,b}\nbinary-matrix: 0011|0010|1100|1000\n"
        "bipartite: no\nodd-circuit: {a,b,c}\neulerian: no\n",
        "",
    ),
    "binary-plus-one.dm": (
        "ground: a b c d\nfeasible: {}\nfeasible: {a,b}\nfeasible: {b,c}\nfeasible: {c,d}\n"
        "feasible: {a,b,c,d}\nfeasible: {a,b,d}\n",
        "kind: delta-matroid\nground: a b c d\nfeasible-sets: 6\nvalid: no\n"
        "reason: symmetric exchange fails at X={}, Y={a,b,d}, u=d\n",
        2,
        "",
        "error: {}: symmetric exchange fails at X={}, Y={a,b,d}, u=d\n",
    ),
    "binary-13.dm": (
        _path_d_of_a(13, 0b1010010100101),
        "kind: delta-matroid\nground: 1 2 3 4 5 6 7 8 9 10 11 12 13\nfeasible-sets: 377\n"
        "valid: yes\n",
        2,
        "",
        "error: {}: classification is limited to ground size 12, got 13\n",
    ),
    "empty-ground.dm": (
        "ground:\nfeasible: {}\n",
        "kind: delta-matroid\nground: \nfeasible-sets: 1\nvalid: yes\n",
        0,
        "even: yes\nbinary: yes\nbinary-twist: {}\nbinary-matrix: \nbipartite: yes\n"
        "eulerian: yes\neulerian-partition: -\n",
        "",
    ),
    "no-feasible.dm": (
        "ground: a b\n",
        "kind: delta-matroid\nground: a b\nfeasible-sets: 0\nvalid: no\n"
        "reason: a delta-matroid needs a nonempty feasible family\n",
        2,
        "",
        "error: {}: a delta-matroid needs a nonempty feasible family\n",
    ),
    "u24.dm": (
        "kind: matroid\nground: a b c d\nfeasible: {a,b}\nfeasible: {a,c}\nfeasible: {a,d}\n"
        "feasible: {b,c}\nfeasible: {b,d}\nfeasible: {c,d}\n",
        "kind: matroid\nground: a b c d\nfeasible-sets: 6\nvalid: yes\n",
        0,
        "even: yes\nbinary: no\nbipartite: no\nodd-circuit: {a,b,c}\neulerian: no\n",
        "",
    ),
    "bad-matroid.dm": (
        "kind: matroid\nground: a b c d\nfeasible: {a,b}\nfeasible: {c,d}\n",
        "kind: matroid\nground: a b c d\nfeasible-sets: 2\nvalid: no\n"
        "reason: base exchange fails at B1={a,b}, B2={c,d}, u=a\n",
        2,
        "",
        "error: {}: base exchange fails at B1={a,b}, B2={c,d}, u=a\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_and_classify_goldens(tmp_path, name):
    text, check_out, code, classify_out, classify_err = GOLDEN[name]
    p = tmp_path / name
    p.write_text(text)
    assert run("check", str(p)) == (0, check_out, "")
    assert run("classify", str(p)) == (code, classify_out, classify_err.replace("{}", str(p), 1))


def test_classify_gf2(files):
    code, out, _ = run("classify", files["a.gf2"])
    assert code == 0 and "even: yes" in out


def test_classify_rejects_ground_beyond_limit(tmp_path):
    big_dm = tmp_path / "big.dm"
    big_dm.write_text("ground: %s\nfeasible: {}\n" % " ".join(str(i) for i in range(1, 14)))
    big_gf2 = tmp_path / "big.gf2"
    big_gf2.write_text("gf2sym 13\n" + ("0" * 13 + "\n") * 13)
    for path in (big_dm, big_gf2):
        code, out, err = run("classify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "limited to ground size 12" in err
        assert "Traceback" not in err


def test_enumerate(files):
    code, out, _ = run("enumerate", "--n", "2")
    assert code == 0
    assert "total: 15" in out and "mode: exhaustive" in out
    assert "distinct" not in out
    code, out, _ = run("enumerate", "--n", "5", "--seed", "0")
    assert code == 0
    assert "mode: sample\ntotal: 2000\ndistinct: 898\n" in out


def test_enumerate_out_of_range():
    for n in ("9", "-1"):
        code, _, err = run("enumerate", "--n", n)
        assert code == 2
        assert err.startswith("error: ") and "0 <= n <= 6" in err


def test_verify_single_suite():
    code, out, _ = run("verify", "--suite", "welsh_duality", "--max-n", "2")
    assert code == 0
    assert "check: welsh_duality" in out and "verdict: pass" in out


def test_verify_records_format():
    code, out, _ = run(
        "verify", "--suite", "welsh_duality", "--max-n", "2", "--format", "records"
    )
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "welsh_duality" and fields[3] == "pass"


@pytest.mark.parametrize("max_n", ["0", "1"])
def test_verify_passes_below_witness_size(max_n):
    # every recorded witness is checked whatever the corpus size
    code, out, _ = run("verify", "--max-n", max_n)
    verdicts = [line for line in out.splitlines() if line.startswith("verdict: ")]
    assert code == 0
    assert len(verdicts) == 13 and set(verdicts) == {"verdict: pass"}
    assert "witness: missing" not in out


def test_verify_shards_beyond_instance_count(monkeypatch):
    """Shards beyond the instance count cost nothing: each of the 13 ribbon
    graphs is tested once, and the report is that of one shard."""
    check = verify.SUITE["ribbon_correspondence"]
    calls = []

    def counting(item):
        calls.append(item)
        return check.test(item)

    monkeypatch.setitem(verify.SUITE, check.name, dataclasses.replace(check, test=counting))
    suite = ("verify", "--suite", "ribbon_correspondence", "--max-n", "2")
    code, many, _ = run(*suite, "--shards", "300000")
    assert code == 0 and len(calls) == len(verify.ribbon_corpus()) == 13
    code1, one, _ = run(*suite, "--shards", "1")
    assert code1 == 0 and many == one


def test_verify_unknown_suite():
    code, _, err = run("verify", "--suite", "bogus")
    assert code == 2 and "unknown suite" in err


def test_verify_rejects_nonpositive_shards():
    code, out, err = run("verify", "--suite", "lower_bound", "--shards", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--shards" in err


def test_verify_rejects_negative_max_n():
    code, out, err = run("verify", "--suite", "lower_bound", "--max-n", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--max-n" in err


def test_verify_seed_env(monkeypatch):
    monkeypatch.setenv("DMX_SEED", "5")
    code, out_env, _ = run("verify", "--suite", "min_deletion", "--max-n", "2")
    code2, out_flag, _ = run(
        "verify", "--suite", "min_deletion", "--max-n", "2", "--seed", "5"
    )
    assert code == 0 and code2 == 0 and out_env == out_flag
    monkeypatch.setenv("DMX_SEED", "oops")
    code3, _, err = run("verify", "--suite", "min_deletion", "--max-n", "2")
    assert code3 == 2 and "DMX_SEED" in err


def test_ribbon_classify(files):
    code, out, _ = run("ribbon", "classify", files["g.rg"])
    assert code == 0
    assert "orientable: yes" in out
    assert "bipartite: no" in out
    assert "boundary-components: 1" in out


def test_ribbon_petrial(files):
    code, out, _ = run("ribbon", "petrial", "--set", "1", files["g.rg"])
    assert code == 0
    assert "edge: 1 1a 1b -" in out
    assert "edge: 2 2a 2b +" in out
    code, _, err = run("ribbon", "petrial", "--set", "9", files["g.rg"])
    assert code == 2 and "unknown edge label '9'" in err


def test_ribbon_petrial_empty_set_is_identity(files):
    # an empty --set twists no edge, as "op twist --set ''" twists by the empty set
    code, out, _ = run("ribbon", "petrial", "--set", "", files["g.rg"])
    assert code == 0
    assert out == dump_rg(parse_rg(RG))
    code, out, _ = run("ribbon", "petrial", files["g.rg"])
    assert "edge: 1 1a 1b -" in out and "edge: 2 2a 2b -" in out


@pytest.mark.parametrize("action", ["classify", "to-dm"])
def test_ribbon_set_only_for_petrial(files, action):
    for spec in ("zz", "1", ""):
        code, out, err = run("ribbon", action, "--set", spec, files["g.rg"])
        assert code == 2 and out == ""
        assert err == "error: ribbon %s takes no --set argument\n" % action


def test_ribbon_to_dm(files):
    code, out, _ = run("ribbon", "to-dm", files["g.rg"])
    assert code == 0
    assert out == "ground: 1 2\nfeasible: {}\nfeasible: {1,2}\n"


def test_ribbon_to_dm_disconnected(tmp_path):
    p = tmp_path / "x.rg"
    p.write_text("vertex: 1a 1b\nvertex:\nedge: 1 1a 1b +\n")
    code, _, err = run("ribbon", "to-dm", str(p))
    assert code == 2


def test_ribbon_to_dm_without_edges(tmp_path):
    """One bare vertex disc has the one quasi-tree {}; with no vertex no
    subgraph has a boundary, and the empty family is an error."""
    p = tmp_path / "disc.rg"
    p.write_text("vertex:\n")
    assert run("ribbon", "to-dm", str(p)) == (0, "ground: \nfeasible: {}\n", "")
    p = tmp_path / "none.rg"
    p.write_text("# no vertex line\n")
    assert run("ribbon", "to-dm", str(p)) == (
        2,
        "",
        "error: %s: %s\n" % (p, cli.NO_VERTEX_REASON),
    )


@pytest.mark.parametrize("argv", [("classify",), ("petrial",), ("petrial", "--set", "")])
def test_ribbon_without_vertex_is_rejected(tmp_path, argv):
    """A file with no vertex line is rejected by every ribbon action, with
    the error to-dm gives: no spanning subgraph has a boundary."""
    p = tmp_path / "none.rg"
    p.write_text("# no vertex line\n")
    assert run("ribbon", *argv, str(p)) == (
        2,
        "",
        "error: %s: %s\n" % (p, cli.NO_VERTEX_REASON),
    )
    # one bare vertex disc is a ribbon graph
    p.write_text("vertex:\n")
    code, out, err = run("ribbon", *argv, str(p))
    assert code == 0 and out and err == ""


def test_check_ribbon_without_vertex_is_invalid(tmp_path):
    """check reads the ribbon actions' vertex test: a file with no vertex
    line is reported invalid, with exit 0 as for any parsed file."""
    p = tmp_path / "none.rg"
    p.write_text("# no vertex line\n")
    assert run("check", str(p)) == (
        0,
        "kind: ribbon\nvertices: 0\nedges: 0\nvalid: no\nreason: %s\n" % cli.NO_VERTEX_REASON,
        "",
    )
    assert "vertex disc" in cli.NO_VERTEX_REASON
    p.write_text("vertex:\n")
    assert run("check", str(p)) == (0, "kind: ribbon\nvertices: 1\nedges: 0\nvalid: yes\n", "")


# invalid files, one per reason: check reports each as valid: no, and every
# other command that reads the file exits 2 with the same reason
INVALID = {
    "bad-exchange-matroid.dm": "kind: matroid\nground: a b c d\nfeasible: {a,b}\n"
    "feasible: {c,d}\n",
    "no-base-matroid.dm": "kind: matroid\nground: a b\n",
    "unequal-matroid.dm": "kind: matroid\nground: 1 2\nfeasible: {}\nfeasible: {1,2}\n",
    "no-feasible.dm": "ground: a b\n",
    "bad-exchange.dm": BAD_AXIOM,
    "no-vertex.rg": "# no vertex line\n",
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_check_reason_is_every_commands_error(tmp_path, name):
    p = tmp_path / name
    p.write_text(INVALID[name])
    code, out, err = run("check", str(p))
    assert code == 0 and err == "" and "\nvalid: no\n" in out
    reason = out.split("\nreason: ", 1)[1]
    if name.endswith(".rg"):
        commands = [("ribbon", "classify"), ("ribbon", "petrial"), ("ribbon", "to-dm")]
    else:
        first = INVALID[name].split("ground: ", 1)[1].split()[0]
        commands = [("classify",), ("op", "dual"), ("op", "twist", "--set", first)]
    for argv in commands:
        assert run(*argv, str(p)) == (2, "", "error: %s: %s" % (p, reason)), argv


def test_bad_arguments_exit_2():
    code, _, _ = run("op", "explode", "x.dm")
    assert code == 2
    code, _, _ = run()
    assert code == 2


def test_parser_reuse_matches_fresh_parsers(files, monkeypatch):
    """main builds its parser once per process: a bad argv, a good one and the
    bad one again print what fresh parsers print, and so does --help."""
    argvs = [
        ("op", "explode", files["d.dm"]),
        ("op", "twist", "--set", "1", files["d.dm"]),
        ("op", "explode", files["d.dm"]),
        ("verify", "--max-n"),
        ("classify", files["a.gf2"]),
        ("verify", "--max-n"),
        ("--help",),
        ("op", "--help"),
    ]
    shared = [run(*argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(*argv) for argv in argvs]
    assert shared == fresh
    assert shared[0][0] == 2 and shared[0] == shared[2]
    assert shared[1][0] == 0 and shared[4][0] == 0
    assert "invalid choice: 'explode'" in shared[0][2]


def test_ribbon_to_dm_rejects_more_than_16_edges(tmp_path, monkeypatch):
    def walk(self, a):
        raise AssertionError("a boundary walk started")

    monkeypatch.setattr(RibbonGraph, "_walk_ends", walk)
    p = tmp_path / "big.rg"
    labels = [str(i) for i in range(1, 18)]
    rotation = " ".join(h for lab in labels for h in (lab + "a", lab + "b"))
    edges = "".join("edge: %s %sa %sb +\n" % (lab, lab, lab) for lab in labels)
    p.write_text("vertex: %s\n%s" % (rotation, edges))
    code, out, err = run("ribbon", "to-dm", str(p))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "limited to 16 edges" in err and "Traceback" not in err


def test_readme_command_line_example(tmp_path):
    """The Command line example of README.md, run as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("$ printf '", 1)[1].splitlines()
    text, name = lines[0].rsplit("' > ", 1)
    assert lines[1] == "$ dmx classify %s" % name
    expected = lines[2 : lines.index("```")]
    p = tmp_path / name
    p.write_text(text.encode().decode("unicode_escape"))
    assert run("classify", str(p)) == (0, "".join(line + "\n" for line in expected), "")
