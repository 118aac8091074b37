"""Correctness oracles for the three workloads.

Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.  The oracles use their own GF(2) and signed-graph code
(``gen``), never ``dmx``.
"""

from __future__ import annotations

import re

import gen

# exhaustive instance counts of `dmx verify --suite all --max-n 5`
VERIFY_TESTED = {
    "min_deletion": 6133,
    "odd_circuit": 2449,
    "bipartite_loop_complement": 309,
    "welsh_duality": 465,
    "twist_decomposition": 1225,
    "circuit_contraction": 465,
    "bipartite_dual_eulerian": 13193,
    "characterization": 13193,
    "deletion_bipartite": 6133,
    "contraction_bipartite": 6133,
    "lower_bound": 6133,
    "operation_calculus": 374,
    "ribbon_correspondence": 13,
}
# checks that must also find a converse witness
VERIFY_WITNESS = {"min_deletion", "odd_circuit", "bipartite_dual_eulerian", "ribbon_correspondence"}

OPCALC_EXHAUSTIVE = 174  # delta-matroids on at most 3 elements


def parse_verify_text(text: str) -> list[dict]:
    """Split a text report into one dict per check, keys as printed."""
    blocks = []
    for chunk in text.split("\n\n"):
        fields: dict = {}
        for line in chunk.strip("\n").splitlines():
            key, _, value = line.partition(": ")
            fields.setdefault(key, value)
        if fields:
            blocks.append(fields)
    return blocks


def expected_verify_text() -> str:
    blocks = []
    for name, tested in VERIFY_TESTED.items():
        lines = ["check: %s" % name, "tested: %d" % tested, "failed: 0"]
        if name in VERIFY_WITNESS:
            lines.append("witness: found")
        lines.append("verdict: pass")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def check_verify(text: str, returncode: int) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append("verify exited %d, expected 0" % returncode)
    blocks = parse_verify_text(text)
    names = [b.get("check") for b in blocks]
    if names != list(VERIFY_TESTED):
        problems.append("checks reported %s, expected the 13 named checks in order" % names)
    for b in blocks:
        name = b.get("check")
        tested = b.get("tested")
        if tested == "0":
            problems.append("%s tested 0 instances" % name)
        elif name in VERIFY_TESTED and tested != str(VERIFY_TESTED[name]):
            problems.append("%s tested %s, expected %d" % (name, tested, VERIFY_TESTED[name]))
        if b.get("verdict") != "pass":
            problems.append("%s verdict %s" % (name, b.get("verdict")))
        if b.get("failed") != "0":
            problems.append("%s failed %s" % (name, b.get("failed")))
    if not problems and text != expected_verify_text():
        problems.append("report text differs from the expected report")
    return problems


def check_opcalc(result: dict, random_count: int) -> list[str]:
    problems = []
    want = OPCALC_EXHAUSTIVE + random_count
    if result.get("name") != "operation_calculus":
        problems.append("report names %r" % result.get("name"))
    if result.get("tested") != want:
        problems.append("tested %s, expected %d" % (result.get("tested"), want))
    if result.get("failed") != 0 or not result.get("verdict"):
        problems.append(
            "verdict %s with %s counterexamples" % (result.get("verdict"), result.get("failed"))
        )
    return problems


# -- classify-files ---------------------------------------------------------------


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        out.setdefault(key, value)
    return out


def _set_mask(text: str, n: int) -> int:
    """'{1,3}' over labels 1..n to a mask."""
    inner = text.strip()[1:-1]
    mask = 0
    for lab in filter(None, inner.split(",")):
        i = int(lab) - 1
        if not 0 <= i < n:
            raise ValueError("label %s out of range" % lab)
        mask |= 1 << i
    return mask


def _matrix_rows(text: str, n: int) -> list[int]:
    rows = text.split("|")
    if len(rows) != n or any(len(r) != n or set(r) - {"0", "1"} for r in rows):
        raise ValueError("malformed binary-matrix %r" % text)
    return [sum(int(c) << j for j, c in enumerate(r)) for r in rows]


def _exchange_witness_holds(family: set, n: int, reason: str) -> bool:
    """The printed (X, Y, u) is a genuine symmetric-exchange violation."""
    m = re.fullmatch(r"symmetric exchange fails at X=(\{[^}]*\}), Y=(\{[^}]*\}), u=(\d+)", reason)
    if not m:
        return False
    x, y, u = _set_mask(m.group(1), n), _set_mask(m.group(2), n), int(m.group(3)) - 1
    d = x ^ y
    if x not in family or y not in family or not (d >> u) & 1:
        return False
    xu = x ^ (1 << u)
    return xu not in family and all(xu ^ (1 << v) not in family for v in gen.bits(d) if v != u)


def _parity_even(family) -> bool:
    return len({bin(m).count("1") & 1 for m in family}) == 1


def check_classify(spec: "gen.FileSpec", returncode: int, stdout: str, stderr: str) -> list[str]:
    """Exit code and key lines of one CLI call against the file's construction."""
    e = spec.expect
    n = e["n"]
    verb = spec.argv[-1]
    if "Traceback" in stderr or "Traceback" in stdout:
        return ["traceback in output"]
    f = _fields(stdout)
    try:
        if spec.kind == "ribbon":
            return _check_to_dm(e, returncode, stdout)
        if spec.kind == "invalid":
            if verb == "check":
                family = set(e["family"])
                if returncode != 0 or f.get("valid") != "no":
                    return ["invalid file: expected exit 0 and 'valid: no'"]
                if not _exchange_witness_holds(family, n, f.get("reason", "")):
                    return ["reported exchange witness is not a violation: %r" % f.get("reason")]
                return []
            if returncode != 2 or not stderr.startswith("error: ") or stdout:
                return ["invalid file: classify must exit 2 with a one-line diagnostic"]
            return []
        if returncode != 0:
            return ["exit %d, expected 0" % returncode]
        if verb == "check":
            want = {
                "kind": "matroid" if e.get("matroid") else "delta-matroid",
                "ground": " ".join(gen.labels(n)),
                "feasible-sets": str(len(e["family"])),
                "valid": "yes",
            }
            bad = {k: f.get(k) for k, v in want.items() if f.get(k) != v}
            return ["check lines differ: %s" % bad] if bad else []
        return _check_classify_lines(spec, f)
    except (ValueError, KeyError) as exc:
        return ["unreadable output: %s" % exc]


def _check_classify_lines(spec, f: dict) -> list[str]:
    e = spec.expect
    n = e["n"]
    problems = []
    if spec.kind == "gf2sym":
        family = gen.d_of_a(e["rows"])
    else:
        family = e["family"]
    if f.get("even") != ("yes" if _parity_even(family) else "no"):
        problems.append("even: %s disagrees with the family" % f.get("even"))
    want_binary = "yes" if e["binary"] else "no"
    if f.get("binary") != want_binary:
        problems.append("binary: %s, expected %s" % (f.get("binary"), want_binary))
    elif e["binary"]:
        t = _set_mask(f["binary-twist"], n)
        rows = _matrix_rows(f["binary-matrix"], n)
        if spec.kind == "gf2sym":
            ok = t == 0 and rows == e["rows"]
        else:
            ok = sorted(x ^ t for x in gen.d_of_a(rows)) == sorted(family)
        if not ok:
            problems.append("printed matrix does not reproduce the file")
    if f.get("bipartite") not in ("yes", "no") or f.get("eulerian") not in ("yes", "no"):
        problems.append("missing bipartite/eulerian lines")
    elif f["bipartite"] == "no" and not bin(_set_mask(f["odd-circuit"], n)).count("1") & 1:
        problems.append("odd-circuit witness has even size")
    return problems


def _check_to_dm(e: dict, returncode: int, stdout: str) -> list[str]:
    if returncode != 0:
        return ["ribbon to-dm exited %d" % returncode]
    n = e["n"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "ground: " + " ".join(gen.labels(n)):
        return ["ribbon to-dm printed no ground line"]
    family = [_set_mask(line[len("feasible: "):], n) for line in lines[1:]]
    if not family or any(not line.startswith("feasible: ") for line in lines[1:]):
        return ["ribbon to-dm printed no feasible sets"]
    problems = []
    if _parity_even(family) != e["orientable"]:
        problems.append("family evenness disagrees with the signed BFS orientability")
    if (0 in family) != (e["vertices"] == 1):
        problems.append("empty set feasible iff one vertex disc fails")
    return problems
