"""Verification harness: instance generators, one check per classification
result, and reproducible counterexample reports.

Every generator is deterministic given its arguments; every check is
deterministic given (max_n, seed), and sharded runs merge to the same report
as a single-shard run.
"""

from __future__ import annotations

import itertools
import logging
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    EVEN,
    ODD,
    DeltaMatroid,
    Mask,
    SetSystem,
    exchange_violation,
    exchange_violation_masks,
    numbered_ground,
)
from .gf2 import (
    Gf2Matrix,
    Gf2SymmetricMatrix,
    column_matroid,
    delta_matroid_from_symmetric,
    is_binary,
)
from .matroid import Matroid, is_bipartite_delta, is_eulerian_delta, lower_matroid, upper_matroid
from .ribbon import RibbonEdge, RibbonGraph

logger = logging.getLogger(__name__)

# recorded witnesses: contraction does not commute with the lower matroid,
# the smallest odd non-binary instance, and the matroid whose twist by {1}
# has an Eulerian dual without being bipartite
CONTRACTION_WITNESS = DeltaMatroid(numbered_ground(2), (0b00, 0b11))
NONBINARY_WITNESS = DeltaMatroid(numbered_ground(3), (0b000, 0b011, 0b101, 0b110, 0b111))
CONVERSE_WITNESS_MATROID = Matroid(numbered_ground(2), (0b01, 0b10))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    index: int
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    name: str
    tested: int
    counterexamples: tuple[Counterexample, ...]
    requires_witness: bool
    witness_found: bool
    elapsed: float

    @property
    def verdict(self) -> bool:
        """Pass needs at least one tested instance: a vacuous check fails."""
        if self.counterexamples or not self.tested:
            return False
        return not self.requires_witness or self.witness_found


def merge_reports(reports: Sequence[VerificationReport]) -> VerificationReport:
    """Associative, commutative shard merge; counterexamples come out in
    canonical (global instance index) order."""
    names = {r.name for r in reports}
    if len(names) != 1:
        raise ValueError("cannot merge reports of different checks: %s" % sorted(names))
    ces = sorted(
        (c for r in reports for c in r.counterexamples), key=lambda c: (c.index, c.detail)
    )
    return VerificationReport(
        reports[0].name,
        sum(r.tested for r in reports),
        tuple(ces),
        any(r.requires_witness for r in reports),
        any(r.witness_found for r in reports),
        sum(r.elapsed for r in reports),
    )


def render_text(report: VerificationReport) -> str:
    lines = [
        "check: %s" % report.name,
        "tested: %d" % report.tested,
        "failed: %d" % len(report.counterexamples),
    ]
    for c in report.counterexamples:
        lines.append("counterexample: %s" % c.detail)
    if report.requires_witness:
        lines.append("witness: %s" % ("found" if report.witness_found else "missing"))
    lines.append("verdict: %s" % ("pass" if report.verdict else "fail"))
    return "\n".join(lines) + "\n"


def render_record(report: VerificationReport) -> str:
    return "%s\t%d\t%d\t%s\t%.3f" % (
        report.name,
        report.tested,
        len(report.counterexamples),
        "pass" if report.verdict else "fail",
        report.elapsed,
    )


def _execute(
    name: str,
    items: Sequence,
    test_one: Callable,
    shards: int = 1,
    requires_witness: bool = False,
    extra_witness: bool = False,
) -> VerificationReport:
    start = time.perf_counter()
    indexed = list(enumerate(items))
    parts = []
    for t in range(shards):
        ces: list[Counterexample] = []
        hit = False
        tested = 0
        for idx, inst in indexed[t::shards]:
            violations, witness = test_one(idx, inst)
            tested += 1
            ces.extend(Counterexample(idx, v) for v in violations)
            hit = hit or witness
        parts.append(
            VerificationReport(name, tested, tuple(ces), requires_witness, hit, 0.0)
        )
    merged = merge_reports(parts)
    return VerificationReport(
        name,
        merged.tested,
        merged.counterexamples,
        requires_witness,
        merged.witness_found or extra_witness,
        time.perf_counter() - start,
    )


def fmt_system(s: SetSystem) -> str:
    ground = " ".join(s.ground.labels) or "-"
    return "(%s; %s)" % (ground, " ".join(s.render_set(m) for m in s.family))


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def delta_matroids_exact(n: int) -> tuple[DeltaMatroid, ...]:
    """All delta-matroids on a ground set of size n, by brute force over
    every proper family with the full axiom check."""
    if not 0 <= n <= 4:
        raise ValueError("exhaustive delta-matroid enumeration is limited to n <= 4")
    g = numbered_ground(n)
    out = []
    for code in range(1, 1 << (1 << n)):
        fam = tuple(m for m in range(1 << n) if (code >> m) & 1)
        if exchange_violation_masks(fam) is None:
            out.append(DeltaMatroid(g, fam))
    return tuple(out)


def delta_matroids_up_to(n: int) -> tuple[DeltaMatroid, ...]:
    return tuple(d for k in range(n + 1) for d in delta_matroids_exact(k))


@lru_cache(maxsize=None)
def all_symmetric_matrices(n: int) -> tuple[Gf2SymmetricMatrix, ...]:
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    out = []
    for code in range(1 << len(positions)):
        rows = [0] * n
        for k, (i, j) in enumerate(positions):
            if (code >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        out.append(Gf2SymmetricMatrix(tuple(rows)))
    return tuple(out)


@lru_cache(maxsize=None)
def binary_delta_corpus_exact(n: int) -> tuple[DeltaMatroid, ...]:
    """All twists of D(A) over all symmetric matrices of order n, deduplicated."""
    if not 0 <= n <= 4:
        raise ValueError("binary corpus generation is limited to n <= 4")
    g = numbered_ground(n)
    seen: set[tuple[Mask, ...]] = set()
    out = []
    for a in all_symmetric_matrices(n):
        base = delta_matroid_from_symmetric(a, g)
        for s in range(1 << n):
            d = base.twist(s)
            if d.family not in seen:
                seen.add(d.family)
                out.append(d)
    out.sort(key=lambda d: (len(d.family), d.family))
    return tuple(out)


def binary_delta_corpus_up_to(n: int) -> tuple[DeltaMatroid, ...]:
    return tuple(d for k in range(n + 1) for d in binary_delta_corpus_exact(k))


def _rref_matrices(n: int) -> list[Gf2Matrix]:
    """One matrix per row space of GF(2)^n, via reduced row echelon forms.

    The column matroid depends only on the row space, so this covers every
    binary matroid on n labelled elements.
    """
    out = []
    for r in range(n + 1):
        for pivots in itertools.combinations(range(n), r):
            free = [
                (i, j)
                for i in range(r)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            for code in range(1 << len(free)):
                rows = [1 << pivots[i] for i in range(r)]
                for k, (i, j) in enumerate(free):
                    if (code >> k) & 1:
                        rows[i] |= 1 << j
                out.append(Gf2Matrix(tuple(rows), n))
    return out


@lru_cache(maxsize=None)
def binary_matroids_exact(n: int) -> tuple[Matroid, ...]:
    if not 0 <= n <= 6:
        raise ValueError("binary matroid generation is limited to n <= 6")
    g = numbered_ground(n)
    seen: set[tuple[Mask, ...]] = set()
    out = []
    for mat in _rref_matrices(n):
        m = column_matroid(mat, g)
        if m.family not in seen:
            seen.add(m.family)
            out.append(m)
    out.sort(key=lambda m: (len(m.family), m.family))
    return tuple(out)


def binary_matroids_up_to(n: int) -> tuple[Matroid, ...]:
    return tuple(m for k in range(n + 1) for m in binary_matroids_exact(k))


def matroid_twist_pairs(n: int) -> tuple[tuple[Matroid, Mask], ...]:
    return tuple(
        (m, a)
        for k in range(n + 1)
        for m in binary_matroids_exact(k)
        for a in range(1 << k)
    )


def _extends_delta(fam: set[Mask], z: Mask) -> bool:
    """Whether fam + {z} still satisfies symmetric exchange, given fam does.

    Adding a set can only help existing triples, so only triples involving
    the new set need checking.
    """
    mem = fam | {z}
    for y in fam:
        d = z ^ y
        rest = d
        while rest:
            ub = rest & -rest
            rest ^= ub
            for x in (z, y):
                xu = x ^ ub
                if xu in mem:
                    continue
                ok = False
                others = d ^ ub
                while others:
                    vb = others & -others
                    others ^= vb
                    if xu ^ vb in mem:
                        ok = True
                        break
                if not ok:
                    return False
    return True


def random_delta_matroids(n: int, seed: int, count: int) -> tuple[DeltaMatroid, ...]:
    """Seeded random delta-matroids: grow a family from a random feasible set,
    rejecting any candidate addition that breaks the exchange axiom."""
    if not 0 <= n <= 8:
        raise ValueError("random delta-matroid sampling is limited to n <= 8")
    rng = random.Random("dmx-random-%d-%d" % (n, seed))
    cap = 1 << n
    g = numbered_ground(n)
    out = []
    rejected = 0
    for _ in range(count):
        fam = {rng.randrange(cap)}
        for _ in range(rng.randint(0, 2 * n)):
            cand = rng.randrange(cap)
            if cand in fam:
                continue
            if _extends_delta(fam, cand):
                fam.add(cand)
            else:
                rejected += 1
        out.append(DeltaMatroid(g, tuple(fam)))
    logger.info(
        "random delta-matroid corpus: n=%d seed=%d count=%d rejected=%d",
        n, seed, count, rejected,
    )
    return tuple(out)


def _edge(label: str, twisted: bool = False) -> RibbonEdge:
    return RibbonEdge(label, (label + "a", label + "b"), twisted)


@lru_cache(maxsize=None)
def ribbon_corpus() -> tuple[tuple[str, RibbonGraph], ...]:
    """Named corpus covering plane, toroidal and non-orientable graphs."""
    graphs = [
        ("plane_loop", RibbonGraph((("1a", "1b"),), (_edge("1"),))),
        ("mobius_loop", RibbonGraph((("1a", "1b"),), (_edge("1", True),))),
        ("torus_bouquet", RibbonGraph((("1a", "2a", "1b", "2b"),), (_edge("1"), _edge("2")))),
        ("plane_bouquet", RibbonGraph((("1a", "1b", "2a", "2b"),), (_edge("1"), _edge("2")))),
        (
            "nonorientable_bouquet",
            RibbonGraph((("1a", "2a", "1b", "2b"),), (_edge("1", True), _edge("2"))),
        ),
        (
            "plane_theta",
            RibbonGraph(
                (("1a", "2a", "3a"), ("3b", "2b", "1b")),
                (_edge("1"), _edge("2"), _edge("3")),
            ),
        ),
        (
            "plane_digon",
            RibbonGraph((("1a", "2a"), ("2b", "1b")), (_edge("1"), _edge("2"))),
        ),
        (
            "twisted_digon",
            RibbonGraph((("1a", "2a"), ("2b", "1b")), (_edge("1"), _edge("2", True))),
        ),
        ("single_edge", RibbonGraph((("1a",), ("1b",)), (_edge("1"),))),
        (
            "two_edge_path",
            RibbonGraph((("1a",), ("1b", "2a"), ("2b",)), (_edge("1"), _edge("2"))),
        ),
        (
            "plane_triangle",
            RibbonGraph(
                (("1a", "3b"), ("2a", "1b"), ("3a", "2b")),
                (_edge("1"), _edge("2"), _edge("3")),
            ),
        ),
        (
            "plane_square",
            RibbonGraph(
                (("1a", "4b"), ("2a", "1b"), ("3a", "2b"), ("4a", "3b")),
                (_edge("1"), _edge("2"), _edge("3"), _edge("4")),
            ),
        ),
        (
            "mobius_with_pendant",
            RibbonGraph(
                (("1a", "1b", "2a"), ("2b",)),
                (_edge("1", True), _edge("2")),
            ),
        ),
    ]
    return tuple(graphs)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_min_deletion(max_n: int = 3, seed: int = 0, shards: int = 1) -> VerificationReport:
    """Deletion commutes with taking the lower matroid; the contraction analog
    must fail on the recorded witness."""
    items = delta_matroids_up_to(min(max_n, 4))

    def test(idx, d):
        v = []
        for e in range(d.ground.size):
            if d.is_coloop(e):
                continue
            if lower_matroid(d.delete(e)) != lower_matroid(d).delete(e):
                v.append(
                    "%s :: deletion/minimum identity fails at %s"
                    % (fmt_system(d), d.ground.labels[e])
                )
        hit = False
        if d == CONTRACTION_WITNESS:
            hit = lower_matroid(d.contract(0)) != lower_matroid(d).contract(0)
        return v, hit

    return _execute("min_deletion", items, test, shards, requires_witness=True)


def _qualifying_circuit(d: DeltaMatroid) -> bool:
    dmin = lower_matroid(d)
    for c in dmin.circuits:
        if frozenset(d.ground.labels_of(c)) in d.restrict(c).labeled_family():
            return True
    return False


def check_odd_circuit(max_n: int = 3, seed: int = 0, shards: int = 1) -> VerificationReport:
    """Binary delta-matroid is odd iff some circuit C of the lower matroid is
    feasible in the restriction to C; the non-binary witness breaks the
    forward direction."""
    items = binary_delta_corpus_up_to(min(max_n, 4))

    def test(idx, d):
        if (d.parity() == ODD) != _qualifying_circuit(d):
            return ["%s :: odd-circuit equivalence fails" % fmt_system(d)], False
        return [], False

    w = NONBINARY_WITNESS
    extra = (
        w.parity() == ODD
        and not _qualifying_circuit(w)
        and not is_binary(w).verdict
    )
    return _execute(
        "odd_circuit", items, test, shards, requires_witness=True, extra_witness=extra
    )


def check_bipartite_loop_complement(
    max_n: int = 3, seed: int = 0, shards: int = 1
) -> VerificationReport:
    """Binary even delta-matroid is bipartite iff its loop complementation on
    the whole ground set is even."""
    items = [d for d in binary_delta_corpus_up_to(min(max_n, 4)) if d.parity() == EVEN]

    def test(idx, d):
        bip = is_bipartite_delta(d)
        even = d.loop_complement(d.ground.full_mask).parity() == EVEN
        if bip != even:
            return ["%s :: bipartite/loop-complement parity mismatch" % fmt_system(d)], False
        return [], False

    return _execute("bipartite_loop_complement", items, test, shards)


def check_welsh_duality(max_n: int = 3, seed: int = 0, shards: int = 1) -> VerificationReport:
    """Binary matroid is Eulerian iff its dual is bipartite iff its
    independent-set count is odd."""
    items = binary_matroids_up_to(min(max_n, 5))

    def test(idx, m):
        v = []
        eul = m.is_eulerian()
        if eul != m.dual().is_bipartite():
            v.append("%s :: eulerian/dual-bipartite mismatch" % fmt_system(m))
        if eul != bool(m.count_independent_sets() & 1):
            v.append("%s :: eulerian/independent-count parity mismatch" % fmt_system(m))
        return v, False

    return _execute("welsh_duality", items, test, shards)


def _same_up_to_ground_order(a: SetSystem, b: SetSystem) -> bool:
    return set(a.ground.labels) == set(b.ground.labels) and a.labeled_family() == b.labeled_family()


def check_twist_decomposition(
    max_n: int = 3, seed: int = 0, shards: int = 1
) -> VerificationReport:
    """Lower and upper matroids of a twisted matroid decompose as direct sums
    of minors of the matroid and its dual."""
    items = matroid_twist_pairs(min(max_n, 4))

    def test(idx, pair):
        m, a = pair
        ac = m.ground.full_mask ^ a
        d = m.twist(a)
        v = []
        low = m.minor(contract=a).direct_sum(m.minor(delete=ac).dual())
        if not _same_up_to_ground_order(lower_matroid(d), low):
            v.append("%s * %s :: lower decomposition fails" % (fmt_system(m), m.render_set(a)))
        high = m.minor(delete=a).direct_sum(m.minor(contract=ac).dual())
        if not _same_up_to_ground_order(upper_matroid(d), high):
            v.append("%s * %s :: upper decomposition fails" % (fmt_system(m), m.render_set(a)))
        return v, False

    return _execute("twist_decomposition", items, test, shards)


def check_circuit_contraction(
    max_n: int = 3, seed: int = 0, shards: int = 1
) -> VerificationReport:
    """Contracting an element outside a circuit of a binary matroid leaves the
    circuit a circuit or a disjoint union of exactly two circuits."""
    items = binary_matroids_up_to(min(max_n, 5))

    def test(idx, m):
        v = []
        for c in m.circuits:
            labels_c = frozenset(m.ground.labels_of(c))
            for e in range(m.ground.size):
                if (c >> e) & 1:
                    continue
                mc = m.contract(e)
                circ = [frozenset(mc.ground.labels_of(x)) for x in mc.circuits]
                if labels_c in circ:
                    continue
                parts = [x for x in circ if x <= labels_c]
                if any(
                    not x & y and (x | y) == labels_c
                    for i, x in enumerate(parts)
                    for y in parts[i + 1 :]
                ):
                    continue
                v.append(
                    "%s :: circuit %s breaks under contraction of %s"
                    % (fmt_system(m), m.render_set(c), m.ground.labels[e])
                )
        return v, False

    return _execute("circuit_contraction", items, test, shards)


def check_bipartite_dual_eulerian(
    max_n: int = 3, seed: int = 0, shards: int = 1
) -> VerificationReport:
    """Bipartite twists of binary matroids have Eulerian duals; the converse
    fails and the recorded witness must be detected by the converse hunt."""
    n_cap = min(max_n, 5)
    items = matroid_twist_pairs(n_cap)

    def test(idx, pair):
        m, a = pair
        d = m.twist(a)
        bip = is_bipartite_delta(d)
        eul = is_eulerian_delta(d.dual())
        v = []
        if bip and not eul:
            v.append("%s * %s :: bipartite twist with non-Eulerian dual" % (fmt_system(m), m.render_set(a)))
        hit = eul and not bip and m == CONVERSE_WITNESS_MATROID and a == 0b01
        return v, hit

    return _execute(
        "bipartite_dual_eulerian",
        items,
        test,
        shards,
        requires_witness=n_cap >= 2,
    )


def check_characterization(
    max_n: int = 3, seed: int = 0, shards: int = 1
) -> VerificationReport:
    """A twist of a binary matroid is bipartite (Eulerian) iff both deletion
    factors of the matroid and its dual are Eulerian (bipartite)."""
    items = matroid_twist_pairs(min(max_n, 5))

    def test(idx, pair):
        m, a = pair
        ac = m.ground.full_mask ^ a
        d = m.twist(a)
        mdac = m.minor(delete=ac)
        mda = m.dual().minor(delete=a)
        v = []
        if is_bipartite_delta(d) != (mdac.is_eulerian() and mda.is_eulerian()):
            v.append("%s * %s :: bipartite clause fails" % (fmt_system(m), m.render_set(a)))
        if is_eulerian_delta(d) != (mdac.is_bipartite() and mda.is_bipartite()):
            v.append("%s * %s :: eulerian clause fails" % (fmt_system(m), m.render_set(a)))
        return v, False

    return _execute("characterization", items, test, shards)


def check_deletion_bipartite(
    max_n: int = 3, seed: int = 0, shards: int = 1
) -> VerificationReport:
    """Deletion preserves bipartiteness of arbitrary delta-matroids."""
    items = delta_matroids_up_to(min(max_n, 4))

    def test(idx, d):
        if not is_bipartite_delta(d):
            return [], False
        v = []
        for a in range(1 << d.ground.size):
            if not is_bipartite_delta(d.minor(delete=a)):
                v.append("%s :: deleting %s loses bipartiteness" % (fmt_system(d), d.render_set(a)))
        return v, False

    return _execute("deletion_bipartite", items, test, shards)


def check_contraction_bipartite(
    max_n: int = 3, seed: int = 0, shards: int = 1
) -> VerificationReport:
    """If a twist D*A is bipartite then D*/A^c and D/A are bipartite."""
    items = delta_matroids_up_to(min(max_n, 4))

    def test(idx, d):
        full = d.ground.full_mask
        v = []
        for a in range(1 << d.ground.size):
            if not is_bipartite_delta(d.twist(a)):
                continue
            if not is_bipartite_delta(d.dual().minor(contract=full ^ a)):
                v.append("%s :: D*/A^c not bipartite for A=%s" % (fmt_system(d), d.render_set(a)))
            if not is_bipartite_delta(d.minor(contract=a)):
                v.append("%s :: D/A not bipartite for A=%s" % (fmt_system(d), d.render_set(a)))
        return v, False

    return _execute("contraction_bipartite", items, test, shards)


def check_lower_bound(max_n: int = 3, seed: int = 0, shards: int = 1) -> VerificationReport:
    """Every feasible set meets any A in at least as many elements as some
    lower-matroid base does."""
    items = delta_matroids_up_to(min(max_n, 4))

    def test(idx, d):
        dmin = lower_matroid(d)
        v = []
        for a in range(1 << d.ground.size):
            s0 = min((b & a).bit_count() for b in dmin.family)
            if any((f & a).bit_count() < s0 for f in d.family):
                v.append("%s :: intersection lower bound fails for A=%s" % (fmt_system(d), d.render_set(a)))
        return v, False

    return _execute("lower_bound", items, test, shards)


def _apply_ops(d: SetSystem, ops: Iterable[tuple[str, str]]) -> SetSystem:
    cur = d
    for kind, label in ops:
        e = cur.ground.index(label)
        cur = cur.delete(e) if kind == "d" else cur.contract(e)
    return cur


def check_operation_calculus(
    max_n: int = 3,
    seed: int = 0,
    shards: int = 1,
    random_count: int = 200,
) -> VerificationReport:
    """Operation-calculus identities: twist group law, dual involution, the
    twist/minor exchange identities, loop-complement involution and the
    odd-interval membership rule, minor order-independence, parity invariance
    under twist, the lower-matroid deletion identity and the intersection
    lower bound.  Exhaustive on small ground sets, sampled on seeded random
    instances."""
    exhaustive = delta_matroids_up_to(min(max_n, 3))
    random_n = min(max_n + 3, 8)
    items = list(exhaustive) + list(random_delta_matroids(random_n, seed, random_count))
    n_exhaustive = len(exhaustive)

    def test(idx, d):
        n = d.ground.size
        cap = 1 << n
        v = []

        def flag(msg):
            v.append("%s :: %s" % (fmt_system(d), msg))

        if idx < n_exhaustive:
            subsets = list(range(cap))
            pairs = [(a, b) for a in range(cap) for b in range(cap)]
            minor_pairs = [
                (dl, co) for dl in range(cap) for co in range(cap) if not dl & co
            ]
        else:
            rng = random.Random("dmx-opcalc-%d-%d" % (seed, idx))
            subsets = [rng.randrange(cap) for _ in range(3)]
            pairs = [(rng.randrange(cap), rng.randrange(cap)) for _ in range(3)]
            minor_pairs = []
            for _ in range(2):
                dl = rng.randrange(cap)
                minor_pairs.append((dl, rng.randrange(cap) & ~dl))

        for a, b in pairs:
            if d.twist(a).twist(b) != d.twist(a ^ b):
                flag("twist group law fails")
                break
        if d.dual().dual() != d:
            flag("dual is not an involution")
        for e in range(n):
            bit = 1 << e
            lab = d.ground.labels[e]
            if d.contract(e) != d.twist(bit).delete(e):
                flag("D/e != (D*e)\\e at %s" % lab)
                break
            if d.delete(e) != d.twist(bit).contract(e):
                flag("D\\e != (D*e)/e at %s" % lab)
                break
        for x in subsets:
            if d.minor(delete=x) != d.dual().minor(contract=x).dual():
                flag("deletion-via-dual identity fails")
                break
        for x in subsets:
            if d.loop_complement(x).loop_complement(x) != d:
                flag("loop complement is not an involution")
                break
        # odd-interval membership rule against the iterated definition
        x = subsets[0]
        expected = set()
        for y in range(cap):
            need = y & ~x
            count = sum(1 for z in d.family if not z & ~y and not need & ~z)
            if count & 1:
                expected.add(y)
        if expected != set(d.loop_complement(x).family):
            flag("odd-interval membership rule disagrees")
        for dl, co in minor_pairs:
            base = d.minor(delete=dl, contract=co)
            ops_fwd = [("d", lab) for lab in d.ground.labels_of(dl)]
            ops_fwd += [("c", lab) for lab in d.ground.labels_of(co)]
            ops_rev = list(reversed(ops_fwd))
            if _apply_ops(d, ops_fwd) != base or _apply_ops(d, ops_rev) != base:
                flag("minor order dependence")
                break
        for a in subsets:
            if d.twist(a).parity() != d.parity():
                flag("parity not twist-invariant")
                break
        for e in range(n):
            if d.is_coloop(e):
                continue
            if lower_matroid(d.delete(e)) != lower_matroid(d).delete(e):
                flag("deletion/minimum identity fails")
                break
        dmin = lower_matroid(d)
        for a in subsets:
            s0 = min((b & a).bit_count() for b in dmin.family)
            if any((f & a).bit_count() < s0 for f in d.family):
                flag("intersection lower bound fails")
                break
        return v, False

    return _execute("operation_calculus", items, test, shards)


def check_ribbon_correspondence(
    max_n: int = 3, seed: int = 0, shards: int = 1
) -> VerificationReport:
    """Quasi-tree delta-matroids of the ribbon corpus: evenness matches
    orientability, the petrial criterion for bipartiteness, and the dual of a
    bipartite graph is Eulerian (one direction only; a converse witness is
    required)."""
    items = ribbon_corpus()

    def test(idx, item):
        name, g = item
        v = []
        d = g.delta_matroid()
        if exchange_violation(d) is not None:
            v.append("%s :: quasi-tree family violates symmetric exchange" % name)
        orientable = g.is_orientable()
        if (d.parity() == EVEN) != orientable:
            v.append("%s :: evenness/orientability mismatch" % name)
        bipartite = g.underlying_bipartite()
        if orientable and bipartite != g.petrial().is_orientable():
            v.append("%s :: petrial orientability criterion fails" % name)
        dual_eulerian = is_eulerian_delta(d.dual())
        if bipartite and not dual_eulerian:
            v.append("%s :: bipartite graph with non-Eulerian dual" % name)
        return v, (dual_eulerian and not bipartite)

    return _execute("ribbon_correspondence", items, test, shards, requires_witness=True)


SUITE: dict[str, Callable[..., VerificationReport]] = {
    "min_deletion": check_min_deletion,
    "odd_circuit": check_odd_circuit,
    "bipartite_loop_complement": check_bipartite_loop_complement,
    "welsh_duality": check_welsh_duality,
    "twist_decomposition": check_twist_decomposition,
    "circuit_contraction": check_circuit_contraction,
    "bipartite_dual_eulerian": check_bipartite_dual_eulerian,
    "characterization": check_characterization,
    "deletion_bipartite": check_deletion_bipartite,
    "contraction_bipartite": check_contraction_bipartite,
    "lower_bound": check_lower_bound,
    "operation_calculus": check_operation_calculus,
    "ribbon_correspondence": check_ribbon_correspondence,
}


def run_suite(
    names: Optional[Sequence[str]] = None,
    max_n: int = 3,
    seed: int = 0,
    shards: int = 1,
) -> list[VerificationReport]:
    if shards < 1:
        raise ValueError("shards must be at least 1, got %d" % shards)
    chosen = list(SUITE) if not names or list(names) == ["all"] else list(names)
    for name in chosen:
        if name not in SUITE:
            raise KeyError("unknown check %r" % name)
    return [SUITE[name](max_n=max_n, seed=seed, shards=shards) for name in chosen]


def enumerate_delta_matroids(n: int, seed: int = 0, sample_count: int = 2000) -> dict:
    """Catalogue of delta-matroids on n elements with property counts.

    Exhaustive for n <= 4; seeded sampling for n = 5, 6.
    """
    if n <= 4:
        dms: Sequence[DeltaMatroid] = delta_matroids_exact(n)
        mode = "exhaustive"
    elif n <= 6:
        dms = random_delta_matroids(n, seed, sample_count)
        mode = "sample"
    else:
        raise ValueError("enumeration is limited to n <= 6")
    counts = {"even": 0, "binary": 0, "bipartite": 0, "eulerian": 0}
    for d in dms:
        if d.parity() == EVEN:
            counts["even"] += 1
        if is_binary(d).verdict:
            counts["binary"] += 1
        if is_bipartite_delta(d):
            counts["bipartite"] += 1
        if is_eulerian_delta(d):
            counts["eulerian"] += 1
    return {"n": n, "mode": mode, "total": len(dms), **counts}
