"""Seeded input files for the classify-files workload.

Stdlib only and independent of ``dmx``: the parent commit and a change both
receive byte-identical files for the same seed.  Every file carries the
facts its construction guarantees (``expect``), which the oracle compares
with what the CLI prints.

The mix is stratified: each seed yields the same number of files of each
kind and ground size, and only the random contents differ.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

# (kind, commands and ground sizes cycled over its files, number of files)
MIX = (
    ("twist_da", ("check", "classify"), (8, 9, 10), 30),
    ("nonbinary", ("check", "classify"), (8, 9, 10), 14),
    ("invalid", ("check", "classify"), (8, 9, 10), 12),
    ("matroid", ("check", "classify"), (8, 9, 10), 14),
    ("gf2sym", ("classify",), (10, 11, 12), 15),
    ("ribbon", ("ribbon to-dm",), (9, 10, 11, 12), 15),
)

# the smallest odd non-binary delta-matroid: {}, {a,b}, {a,c}, {b,c}, {a,b,c}
NONBINARY_3 = (0b000, 0b011, 0b101, 0b110, 0b111)
# {}, {a,b,c}: violates symmetric exchange at X={}, Y={a,b,c}
INVALID_3 = (0b000, 0b111)


@dataclass(frozen=True)
class FileSpec:
    name: str
    kind: str
    argv: tuple[str, ...]
    text: str
    expect: dict


# -- GF(2) helpers ------------------------------------------------------------


def gf2_rank(vectors) -> int:
    """Rank over GF(2), pivoting on the lowest set bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            low = v & -v
            if low in basis:
                v ^= basis[low]
            else:
                basis[low] = v
                break
    return len(basis)


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def principal_nonsingular(rows, x: int) -> bool:
    idx = bits(x)
    sub = [sum(((rows[i] >> j) & 1) << k for k, j in enumerate(idx)) for i in idx]
    return gf2_rank(sub) == len(idx)


def d_of_a(rows) -> list[int]:
    """Feasible sets of D(A): the X with A[X] nonsingular (the empty set included)."""
    return [x for x in range(1 << len(rows)) if principal_nonsingular(rows, x)]


def column_bases(rows, n: int) -> list[int]:
    cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n)]
    r = gf2_rank(cols)
    return [
        x
        for x in range(1 << n)
        if bin(x).count("1") == r and gf2_rank(cols[j] for j in bits(x)) == r
    ]


def random_symmetric(rng: random.Random, n: int, odd_diag: bool) -> list[int]:
    """A random symmetric matrix; with a zero diagonal D(A) is even."""
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            bit = rng.random() < 0.5 if (i != j or odd_diag) else False
            if bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


# median |D(A)| of random symmetric matrices by order: (nonzero diagonal, zero diagonal)
MEDIAN_SIZE = {5: (16, 8), 6: (31, 16), 7: (58, 32), 8: (116, 60), 9: (230, 116), 10: (453, 228)}


def banded_symmetric(rng: random.Random, n: int, odd_diag: bool) -> tuple[list[int], list[int]]:
    """A random symmetric matrix with |D(A)| within 4% of the median for its
    order and diagonal, so that every seed's files cost about the same to
    check; returns the rows and D(A)."""
    target = MEDIAN_SIZE[n][0 if odd_diag else 1]
    while True:
        rows = random_symmetric(rng, n, odd_diag)
        fam = d_of_a(rows)
        if abs(len(fam) - target) <= 0.04 * target:
            return rows, fam


def direct_sum(fam_a, fam_b, shift: int) -> list[int]:
    return [a | (b << shift) for a in fam_a for b in fam_b]


# -- rendering ------------------------------------------------------------------


def labels(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def render_dm(n: int, family, rng: random.Random, kind: str = "") -> str:
    fam = list(family)
    rng.shuffle(fam)
    lab = labels(n)
    lines = ["# generated by perfbench/gen.py"]
    if kind:
        lines.append("kind: %s" % kind)
    lines.append("ground: " + " ".join(lab))
    for m in fam:
        lines.append("feasible: {%s}" % ",".join(lab[i] for i in bits(m)))
    return "\n".join(lines) + "\n"


def render_gf2sym(rows) -> str:
    n = len(rows)
    lines = ["gf2sym %d" % n]
    lines += ["".join(str((r >> j) & 1) for j in range(n)) for r in rows]
    return "\n".join(lines) + "\n"


def random_rotation_system(rng: random.Random, edges: int, orientable: bool):
    """A connected signed rotation system: a random spanning tree on up to four
    vertex discs plus random extra edges (loops allowed).  With ``orientable``,
    signs come from a random vertex switching, so the graph is orientable but
    not trivially signed."""
    nv = rng.randint(1, min(4, edges))
    ends = [(i, rng.randrange(i)) for i in range(1, nv)]
    ends += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(edges - len(ends))]
    rng.shuffle(ends)
    switch = [rng.random() < 0.5 for _ in range(nv)]
    rotations: list[list[str]] = [[] for _ in range(nv)]
    edge_lines = []
    signed = []
    for k, (u, v) in enumerate(ends):
        lab = str(k + 1)
        rotations[u].append(lab + "a")
        rotations[v].append(lab + "b")
        if orientable:
            twisted = switch[u] != switch[v]
        else:
            twisted = rng.random() < 0.5
        edge_lines.append("edge: %s %sa %sb %s" % (lab, lab, lab, "-" if twisted else "+"))
        signed.append((u, v, twisted))
    for rot in rotations:
        rng.shuffle(rot)
    text = "".join("vertex: %s\n" % " ".join(rot) for rot in rotations)
    text += "\n".join(edge_lines) + "\n"
    return text, nv, signed


def signed_orientable(nv: int, signed) -> bool:
    """Signed BFS: orientable iff vertex flips make every edge untwisted."""
    adj: list[list[tuple[int, bool]]] = [[] for _ in range(nv)]
    for u, v, twisted in signed:
        if u == v:
            if twisted:
                return False
            continue
        adj[u].append((v, twisted))
        adj[v].append((u, twisted))
    flip: dict[int, bool] = {}
    for root in range(nv):
        if root in flip:
            continue
        flip[root] = False
        queue = [root]
        while queue:
            u = queue.pop()
            for v, twisted in adj[u]:
                want = flip[u] ^ twisted
                if v not in flip:
                    flip[v] = want
                    queue.append(v)
                elif flip[v] != want:
                    return False
    return True


# -- the mix ----------------------------------------------------------------------


def _make(kind: str, n: int, odd: bool, rng: random.Random) -> tuple[str, str, dict]:
    """One file of the given kind; returns (suffix, text, expect).

    ``odd`` picks a nonzero diagonal for matrices and a random (rather than
    switching) signature for rotation systems, so each seed has the same
    share of both."""
    if kind == "twist_da":
        _, base = banded_symmetric(rng, n, odd)
        t = rng.randrange(1 << n)
        fam = [x ^ t for x in base]
        return ".dm", render_dm(n, fam, rng), {"n": n, "family": sorted(fam), "valid": True, "binary": True}
    if kind == "nonbinary":
        fam = direct_sum(banded_symmetric(rng, n - 3, odd)[1], NONBINARY_3, n - 3)
        return ".dm", render_dm(n, fam, rng), {"n": n, "family": sorted(fam), "valid": True, "binary": False}
    if kind == "invalid":
        fam = direct_sum(banded_symmetric(rng, n - 3, odd)[1], INVALID_3, n - 3)
        return ".dm", render_dm(n, fam, rng), {"n": n, "family": sorted(fam), "valid": False}
    if kind == "matroid":
        r = rng.randint(n // 2 - 1, n // 2 + 1)
        while True:
            rows = [rng.randrange(1 << n) for _ in range(r)]
            fam = column_bases(rows, n)
            if fam and fam != [0]:
                break
        text = render_dm(n, fam, rng, kind="matroid")
        return ".dm", text, {"n": n, "family": sorted(fam), "valid": True, "binary": True, "matroid": True}
    if kind == "gf2sym":
        rows = random_symmetric(rng, n, odd)
        return ".gf2", render_gf2sym(rows), {"n": n, "rows": rows, "binary": True}
    if kind == "ribbon":
        text, nv, signed = random_rotation_system(rng, n, not odd)
        truth = signed_orientable(nv, signed)
        if not odd and not truth:
            raise AssertionError("switching-signed rotation system must be orientable")
        return ".rg", text, {"n": n, "vertices": nv, "orientable": truth}
    raise ValueError("unknown kind %r" % kind)


def generate(seed: int) -> list[FileSpec]:
    """The classify-files inputs for one seed, in request order."""
    rng = random.Random("perfbench-classify-%d" % seed)
    specs = []
    for kind, commands, sizes, count in MIX:
        for k in range(count):
            n = sizes[k % len(sizes)]
            command = commands[k % len(commands)]
            odd = (k // len(sizes)) % 2 == 0
            suffix, text, expect = _make(kind, n, odd, rng)
            name = "%s-%02d-n%d%s" % (kind, k, n, suffix)
            specs.append(FileSpec(name, kind, tuple(command.split()), text, expect))
    return specs


def digest(specs) -> str:
    h = hashlib.sha256()
    for s in specs:
        for part in (s.name, " ".join(s.argv), s.text):
            h.update(part.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()[:16]


def write(specs, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for s in specs:
        with open(os.path.join(directory, s.name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(s.text)
