"""Verification harness: instance generators, one check per classification
result, and reproducible counterexample reports.

Every check is a `Check` record in the `SUITE` table: a corpus, a test that
returns the violations of one instance, and for a one-directional result a
recorded witness on which the converse fails.  One executor runs them all.
An instance of an exhaustive corpus is a tuple (n, code) on the ground
labelled 1..n, where the code has bit x set for each feasible set or base x,
or (n, code, a) for a twist pair.  A test reads the code with the code
kernels, which remove elements by one rule, core.cut_code; only lower_bound
decodes a code into masks, and fmt_system renders an instance only when it
fails.  Each exhaustive corpus is one named CORPORA row, and a check's SUITE
row states its horizon: the instances on at most min(max_n, horizon)
elements.  Every generator is deterministic given its arguments, every check
given (max_n, seed).  With T shards, shard t tests the instances whose index
is t modulo T, the shards run in turn, and the counterexamples are reported
in (instance index, detail) order, so the report is the same for every T.
"""

from __future__ import annotations

import itertools
import logging
import random
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import (
    EVEN,
    ODD,
    DeltaMatroid,
    GroundSet,
    Mask,
    bit_clear_codes,
    canonical_masks,
    closure_code,
    code_masks,
    cut_code,
    dual_code,
    exchange_violation_masks,
    indices_of,
    iter_bits,
    layer_codes,
    loop_complement_code,
    mask_of,
    minor_code,
    numbered_ground,
    twist_code,
    twist_codes,
)
from .gf2 import column_base_code, is_binary, nonsingular_code
from .matroid import (
    Matroid,
    classify_code,
    classify_twists,
    is_bipartite_delta,
    is_eulerian_delta,
    lower_code,
    lower_matroid,
    upper_code,
)
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
class VerificationReport:
    """What a check prints: its counterexample details in (instance index,
    detail) order, and witness None when the check records no witness."""

    name: str
    tested: int
    counterexamples: tuple[str, ...]
    witness: Optional[bool]
    elapsed: float

    @property
    def verdict(self) -> bool:
        """Pass needs no counterexample, a witness that holds if one is
        recorded, and at least one tested instance: a vacuous check fails."""
        return bool(self.tested) and not self.counterexamples and self.witness is not False


def render_text(report: VerificationReport) -> str:
    lines = [
        "check: %s" % report.name,
        "tested: %d" % report.tested,
        "failed: %d" % len(report.counterexamples),
    ]
    lines += ["counterexample: %s" % c for c in report.counterexamples]
    if report.witness is not None:
        lines.append("witness: %s" % ("found" if report.witness else "missing"))
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


class Witness(NamedTuple):
    """A recorded instance showing a one-directional result is sharp:
    ``converse_fails(instance)`` must hold."""

    instance: object
    converse_fails: Callable[[object], bool]


@dataclass(frozen=True)
class Check:
    """One identity: ``corpus(max_n, seed, **corpus_args)`` lists the
    instances, ``_exhaustive(name, horizon)`` for an exhaustive corpus,
    ``test(instance)`` returns the violation details of one of them, and a
    check with a witness passes only when the witness holds.  The witness is
    evaluated once per run, whatever the corpus."""

    name: str
    corpus: Callable[..., Sequence]
    test: Callable[[object], list[str]]
    witness: Optional[Witness] = None

    def __call__(
        self, max_n: int = 3, seed: int = 0, shards: int = 1, **corpus_args
    ) -> VerificationReport:
        if shards < 1:
            raise ValueError("shards must be at least 1, got %d" % shards)
        items = self.corpus(max_n, seed, **corpus_args)
        start = time.perf_counter()
        n = len(items)
        # shard t holds the indices i = t (mod shards); the shards run in turn
        order = [i for t in range(min(shards, n)) for i in range(t, n, shards)]
        found = sorted((i, v) for i in order for v in self.test(items[i]))
        w = self.witness
        return VerificationReport(
            self.name,
            len(order),
            tuple(v for _, v in found),
            None if w is None else w.converse_fails(w.instance),
            time.perf_counter() - start,
        )


def fmt_set(x: Mask) -> str:
    """A set on numbered_ground(n), as SetSystem.render_set prints it."""
    return "{%s}" % ",".join(str(i + 1) for i in indices_of(x))


def fmt_system(n: int, code: int) -> str:
    """The family with this code on numbered_ground(n), as "(1 2; {} {1,2})"."""
    ground = " ".join(str(i + 1) for i in range(n)) or "-"
    return "(%s; %s)" % (ground, " ".join(map(fmt_set, code_masks(code, n))))


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _split_table(k: int, e: int) -> list[tuple[int, int]]:
    """Entry h, for every indicator code h of a family on k elements: the codes
    of its sets without e and of its sets with e, e removed from both."""
    low = (1 << e) - 1
    table = [(0, 0)]
    # by doubling: entry h + 2^m is entry h with mask m's bit added, in its
    # part on its side of e
    for m in range(1 << k):
        bit = 1 << ((m & low) | (m >> 1 & ~low))
        table += [(c0, c1 | bit) if m >> e & 1 else (c0 | bit, c1) for c0, c1 in table]
    return table


def complementary_exchange_holds(code: int, n: int) -> bool:
    """Whether the symmetric exchange axiom holds for every pair X, E - X of
    feasible sets of the family with this code on n elements.

    Hypothesis: the split of the family at each element e, its sets without
    e and its sets with e, is empty or a delta-matroid on each side.  Two
    feasible sets that agree at some e lie in one side, so the axiom holds
    for them, and only complementary pairs can violate it.  This is not a
    general exchange test: {{3}, {1,2}} on four elements passes it.

    Every u lies in X XOR (E - X), so X XOR {u} must be feasible or lie in
    the twist of the family by some {v}, v != u."""
    singles = [twist_code(code, e, n) for e in range(n)]
    # the X whose complement is feasible too
    pairs = code & dual_code(code, n)
    return not any(
        twist_code(pairs, u, n) & ~reduce(or_, singles[:u] + singles[u + 1 :], code)
        for u in range(n)
    )


@lru_cache(maxsize=None)
def delta_matroids_exact(n: int) -> tuple[int, ...]:
    """The codes of all delta-matroids on a ground set of size n, ascending
    (bit m set when the family contains mask m).

    Built by one-element extension.  The sets without an element e and the
    sets with e, e removed, are the deletion and the contraction by e, so each
    part is empty or a delta-matroid on n - 1 elements (Bouchet, "Greedoids
    and delta-matroids", 1987).  A candidate is a pair (c0, c1) of codes from
    DM(n - 1) and the empty code, split at the last element: its code is
    c0 | c1 << 2^(n-1).  It is dropped unless its split at every other
    element also lands there.  A survivor can then break the exchange axiom
    only on a pair of complementary sets, so complementary_exchange_holds
    decides it.  At n = 4 that is 24,335 candidates, 6,239 survivors and
    5,959 delta-matroids.
    """
    if not 0 <= n <= 4:
        raise ValueError("exhaustive delta-matroid enumeration is limited to 0 <= n <= 4")
    if n == 0:
        # the one nonempty family on the empty ground set, {{}}
        out, candidates, split_rejected, exchange_rejected = [1], 1, 0, 0
    else:
        half = 1 << (n - 1)
        quarter = half >> 1
        parts = (0,) + delta_matroids_exact(n - 1)
        allowed = set(parts)
        splits = [_split_table(n - 1, e) for e in range(n - 1)]
        out = []
        candidates = len(parts) ** 2 - 1
        split_rejected = exchange_rejected = 0
        # c1 outer and c0 inner, both ascending: ascending code
        for c1 in parts:
            highs = [(t[c1][0] << quarter, t[c1][1] << quarter) for t in splits]
            for c0 in parts:
                if not c0 | c1:
                    continue
                for t, (h0, h1) in zip(splits, highs):
                    l0, l1 = t[c0]
                    if (l0 | h0) not in allowed or (l1 | h1) not in allowed:
                        split_rejected += 1
                        break
                else:
                    code = c0 | c1 << half
                    if complementary_exchange_holds(code, n):
                        out.append(code)
                    else:
                        exchange_rejected += 1
    logger.info(
        "exhaustive delta-matroid corpus: n=%d candidates=%d split_rejected=%d "
        "exchange_rejected=%d kept=%d",
        n, candidates, split_rejected, exchange_rejected, len(out),
    )
    return tuple(out)


@lru_cache(maxsize=None)
def all_symmetric_matrices(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of every symmetric GF(2) matrix of order n."""
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    out = []
    for code in range(1 << len(positions)):
        rows = [0] * n
        for k, (i, j) in enumerate(positions):
            if (code >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        out.append(tuple(rows))
    return tuple(out)


@lru_cache(maxsize=None)
def binary_delta_corpus_exact(n: int) -> tuple[int, ...]:
    """The codes of all twists D(A)*s over all symmetric matrices A of order
    n, each once: a twist is kept only when s is its canonical minimum, as
    the normal form D(A) then forces A (Bouchet, "Representability of
    delta-matroids", 1988).

    The twists are codes from twist_codes.  The empty set is in D(A), so s is
    in D(A)*s, and s is its minimum iff no mask ranked before s is."""
    if not 0 <= n <= 4:
        raise ValueError("binary corpus generation is limited to 0 <= n <= 4")
    # entry s: the code of the masks ranked before s
    before = [0] * (1 << n)
    seen = 0
    for m in canonical_masks(n):
        before[m] = seen
        seen |= 1 << m
    matrices = all_symmetric_matrices(n)
    out = [
        code
        for rows in matrices
        for s, code in enumerate(twist_codes(nonsingular_code(rows), n))
        if not code & before[s]
    ]
    logger.info(
        "binary delta-matroid corpus: n=%d matrices=%d twists=%d kept=%d",
        n, len(matrices), len(matrices) << n, len(out),
    )
    return tuple(sorted(out, key=lambda c: (c.bit_count(), code_masks(c, n))))


def _rref_matrices(n: int) -> list[list[int]]:
    """The columns of one matrix per row space of GF(2)^n, via reduced row
    echelon forms.

    The column matroid depends only on the row space, and a binary matroid
    is uniquely representable over GF(2), so it determines its row space:
    this yields every binary matroid on n labelled elements exactly once.
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
                cols = [1 << pivots.index(j) if j in pivots else 0 for j in range(n)]
                for k, (i, j) in enumerate(free):
                    if (code >> k) & 1:
                        cols[j] |= 1 << i
                out.append(cols)
    return out


@lru_cache(maxsize=None)
def binary_matroids_exact(n: int) -> tuple[int, ...]:
    """The base codes of all binary matroids on n elements."""
    if not 0 <= n <= 6:
        raise ValueError("binary matroid generation is limited to 0 <= n <= 6")
    out = [column_base_code(cols) for cols in _rref_matrices(n)]
    return tuple(sorted(out, key=lambda c: (c.bit_count(), code_masks(c, n))))


def _exchange_holds_with(fam: set[Mask], c: Mask) -> bool:
    """Whether the delta-matroid family fam with c added still satisfies the
    symmetric exchange axiom.  A triple (X, Y, u) with X and Y in fam had its
    v in fam already, so only X = c or Y = c can fail: O(|fam| n^2) rather
    than a full exchange_violation_masks scan."""
    members = fam | {c}
    for y in fam:
        d = c ^ y
        for x in (c, y):
            rest = d
            while rest:
                ub = rest & -rest
                rest ^= ub
                xu = x ^ ub
                if xu in members:
                    continue
                others = d ^ ub
                while others:
                    vb = others & -others
                    if xu ^ vb in members:
                        break
                    others ^= vb
                else:
                    return False
    return True


def random_delta_matroids(n: int, seed: int, count: int) -> tuple[DeltaMatroid, ...]:
    """Seeded random delta-matroids: grow a family from a random feasible set,
    rejecting any candidate addition that breaks the exchange axiom."""
    if not 0 <= n <= 8:
        raise ValueError("random delta-matroid sampling is limited to 0 <= n <= 8")
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
            if _exchange_holds_with(fam, cand):
                fam.add(cand)
            else:
                rejected += 1
        out.append(DeltaMatroid(g, tuple(fam)))
    sizes = [len(d.family) for d in out]
    logger.info(
        "random delta-matroid corpus: n=%d seed=%d count=%d rejected=%d "
        "family_size_min=%d family_size_mean=%.2f family_size_max=%d",
        n, seed, count, rejected,
        min(sizes, default=0), sum(sizes) / max(count, 1), max(sizes, default=0),
    )
    return tuple(out)


def _edge(label: str, twisted: bool = False) -> RibbonEdge:
    return RibbonEdge(label, (label + "a", label + "b"), twisted)


# a twisted loop: its dual is Eulerian, yet the graph is not bipartite
MOBIUS_LOOP = RibbonGraph((("1a", "1b"),), (_edge("1", True),))


@lru_cache(maxsize=None)
def ribbon_corpus() -> tuple[tuple[str, RibbonGraph], ...]:
    """Named corpus covering plane, toroidal and non-orientable graphs."""
    graphs = [
        ("plane_loop", RibbonGraph((("1a", "1b"),), (_edge("1"),))),
        ("mobius_loop", MOBIUS_LOOP),
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
# identities: each test returns the violation details of one instance
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _odd_sets_code(n: int) -> int:
    """The code of the masks x < 2^n with an odd number of elements."""
    return reduce(or_, layer_codes(n)[1::2], 0)


def _is_even(code: int, n: int) -> bool:
    """Whether the sets of the nonempty family with this code share a parity."""
    odd = _odd_sets_code(n)
    return not code & odd or not code & ~odd


def _deletion_minimum_failures(code: int, n: int) -> list[int]:
    """The non-coloop elements e with lower(D \\ e) != lower(D) \\ e.

    Both sides are compared as codes on the ground of D, e kept in place:
    the sets of D \\ e are the code's sets without e."""
    cmin = lower_code(code, n)
    return [
        e
        for e, keep in enumerate(bit_clear_codes(n))
        if code & keep and lower_code(code & keep, n) != cut_code(cmin, n, 1 << e, 0)
    ]


def _lower_bound_failures(code: int, n: int, subsets: Iterable[Mask]) -> list[Mask]:
    """The A in subsets that some feasible set meets in fewer elements than
    every lower-matroid base does.

    A feasible set F that holds a base B meets every A in at least |B & A|
    elements, so no A fails when every F lies in the up-closure of the bases;
    when some F holds none, A = E - F fails.  Only then are the A compared."""
    if not code & ~closure_code(lower_code(code, n), n, up=True):
        return []
    fam = code_masks(code, n)
    bases = code_masks(lower_code(code, n), n)
    return [
        a
        for a in subsets
        if min((f & a).bit_count() for f in fam) < min((b & a).bit_count() for b in bases)
    ]


def _min_deletion(item: tuple[int, int]) -> list[str]:
    """Deletion commutes with taking the lower matroid; the contraction
    analog fails on the recorded witness."""
    n, code = item
    return [
        "%s :: deletion/minimum identity fails at %d" % (fmt_system(n, code), e + 1)
        for e in _deletion_minimum_failures(code, n)
    ]


def _qualifying_circuit(n: int, code: int) -> bool:
    """Some circuit C of the lower matroid is feasible in D restricted to C,
    i.e. the restriction's code, cut in place, has bit C."""
    full = (1 << n) - 1
    return any(cut_code(code, n, full ^ c, 0) >> c & 1 for c in classify_code(n, code).circuits)


def _odd_circuit(item: tuple[int, int]) -> list[str]:
    """Binary delta-matroid is odd iff some circuit C of the lower matroid is
    feasible in the restriction to C; the non-binary witness breaks the
    forward direction."""
    n, code = item
    if _is_even(code, n) == _qualifying_circuit(n, code):
        return ["%s :: odd-circuit equivalence fails" % fmt_system(n, code)]
    return []


def _bipartite_loop_complement(item: tuple[int, int]) -> list[str]:
    """Binary even delta-matroid is bipartite iff its loop complementation on
    the whole ground set is even."""
    n, code = item
    even = _is_even(loop_complement_code(code, (1 << n) - 1, n), n)
    if classify_code(n, code).bipartite != even:
        return ["%s :: bipartite/loop-complement parity mismatch" % fmt_system(n, code)]
    return []


def _welsh_duality(item: tuple[int, int]) -> list[str]:
    """Binary matroid is Eulerian iff its dual is bipartite iff its
    independent-set count, the down-closure of its bases, is odd."""
    n, code = item
    v = []
    eul = classify_code(n, code).eulerian
    if eul != classify_code(n, dual_code(code, n)).bipartite:
        v.append("%s :: eulerian/dual-bipartite mismatch" % fmt_system(n, code))
    if eul != bool(closure_code(code, n, up=False).bit_count() & 1):
        v.append("%s :: eulerian/independent-count parity mismatch" % fmt_system(n, code))
    return v


def _twist_decomposition(item: tuple[int, int, Mask]) -> list[str]:
    """Lower and upper matroids of a twisted matroid decompose as direct sums
    of minors of the matroid and its dual: lower(M*A) = (M/A) + (M|A)* and
    upper(M*A) = (M\\A) + (M/A^c)*.  The minors are cut in place on the
    ground of M, so each sum has one part with sets p outside A and one with
    sets x inside A.  The dual of the latter is its twist by A, with the sets
    A - x, and the sum has the sets p | (A - x), each bit p of the first
    code shifted by A - x."""
    n, code, a = item
    rest = ((1 << n) - 1) ^ a
    twisted = code
    for e in indices_of(a):
        twisted = twist_code(twisted, e, n)
    v = []
    for side, layer, outside, inside in (
        ("lower", lower_code, cut_code(code, n, 0, a), cut_code(code, n, rest, 0)),
        ("upper", upper_code, cut_code(code, n, a, 0), cut_code(code, n, 0, rest)),
    ):
        if reduce(or_, (outside << (a ^ x) for x in indices_of(inside)), 0) != layer(twisted, n):
            v.append("%s * %s :: %s decomposition fails" % (fmt_system(n, code), fmt_set(a), side))
    return v


def _circuit_contraction(item: tuple[int, int]) -> list[str]:
    """Contracting an element outside a circuit of a binary matroid leaves the
    circuit a circuit or a disjoint union of exactly two circuits."""
    n, code = item
    v = []
    contracted = [classify_code(n - 1, minor_code(code, n, 0, 1 << e)).circuits for e in range(n)]
    for c in classify_code(n, code).circuits:
        for e, circuits in enumerate(contracted):
            if (c >> e) & 1:
                continue
            # c on the ground of m / e: the bits above e move down by one
            low = (1 << e) - 1
            sc = c & low | (c >> 1) & ~low
            if sc in circuits:
                continue
            parts = [x for x in circuits if not x & ~sc]
            if any(
                not x & y and (x | y) == sc
                for i, x in enumerate(parts)
                for y in parts[i + 1 :]
            ):
                continue
            v.append(
                "%s :: circuit %s breaks under contraction of %d"
                % (fmt_system(n, code), fmt_set(c), e + 1)
            )
    return v


def _bipartite_dual_eulerian(item: tuple[int, int, Mask]) -> list[str]:
    """Bipartite twists of binary matroids have Eulerian duals; the converse
    fails on the recorded witness.  The dual of M*A is M*(E - A)."""
    n, code, a = item
    twists = classify_twists(n, code)
    if twists[a].bipartite and not twists[((1 << n) - 1) ^ a].eulerian:
        return ["%s * %s :: bipartite twist with non-Eulerian dual" % (fmt_system(n, code), fmt_set(a))]
    return []


def _characterization(item: tuple[int, int, Mask]) -> list[str]:
    """A twist of a binary matroid is bipartite (Eulerian) iff both deletion
    factors of the matroid and its dual are Eulerian (bipartite).

    M \\ A^c is M|A and M* \\ A is M*|A^c, so both are read off the
    restriction codes of M and of M*, the twists of M by {} and by E."""
    n, code, a = item
    full = (1 << n) - 1
    twists = classify_twists(n, code)
    rec, dual = twists[0], twists[full]
    factors_eulerian = bool(rec.circuit_unions >> a & dual.circuit_unions >> (full ^ a) & 1)
    factors_bipartite = not (rec.odd_holders >> a | dual.odd_holders >> (full ^ a)) & 1
    v = []
    if twists[a].bipartite != factors_eulerian:
        v.append("%s * %s :: bipartite clause fails" % (fmt_system(n, code), fmt_set(a)))
    if twists[a].eulerian != factors_bipartite:
        v.append("%s * %s :: eulerian clause fails" % (fmt_system(n, code), fmt_set(a)))
    return v


def _deletion_bipartite(item: tuple[int, int]) -> list[str]:
    """Deletion preserves bipartiteness of arbitrary delta-matroids."""
    n, code = item
    if not classify_code(n, code).bipartite:
        return []
    return [
        "%s :: deleting %s loses bipartiteness" % (fmt_system(n, code), fmt_set(a))
        for a in range(1 << n)
        if not classify_code(n - a.bit_count(), minor_code(code, n, a, 0)).bipartite
    ]


def _contraction_is_bipartite(code: int, a: Mask, n: int) -> bool:
    """Whether D / A is bipartite, for the delta-matroid D with this code on
    n elements.  A is cut from the code, then joins every set: its elements
    become coloops of the lower matroid, in no circuit, so the bipartite
    class is that of D / A."""
    return classify_code(n, cut_code(code, n, 0, a) << a).bipartite


def _contraction_bipartite(item: tuple[int, int]) -> list[str]:
    """If a twist D*A is bipartite then D*/A^c and D/A are bipartite.  The
    twists are read from the table of the least code D*b of the twist
    orbit, at A XOR b, and the contractions off the codes of D and D*."""
    n, code = item
    full = (1 << n) - 1
    codes = twist_codes(code, n)
    b = codes.index(min(codes))
    twists = classify_twists(n, codes[b])
    v = []
    for a in range(1 << n):
        if not twists[a ^ b].bipartite:
            continue
        if not _contraction_is_bipartite(codes[full], full ^ a, n):
            v.append("%s :: D*/A^c not bipartite for A=%s" % (fmt_system(n, code), fmt_set(a)))
        if not _contraction_is_bipartite(codes[0], a, n):
            v.append("%s :: D/A not bipartite for A=%s" % (fmt_system(n, code), fmt_set(a)))
    return v


def _lower_bound(item: tuple[int, int]) -> list[str]:
    """Every feasible set meets any A in at least as many elements as some
    lower-matroid base does."""
    n, code = item
    return [
        "%s :: intersection lower bound fails for A=%s" % (fmt_system(n, code), fmt_set(a))
        for a in _lower_bound_failures(code, n, range(1 << n))
    ]


def _operation_calculus_corpus(
    max_n: int, seed: int, random_count: int = 200
) -> list[tuple[int, int, Optional[str]]]:
    """Every delta-matroid on at most min(max_n, 3) elements, tested on all
    subsets (key None), then seeded random ones on min(max_n + 3, 8)
    elements, each tested on a sample drawn from its own key."""
    items = [(n, code, None) for n, code in corpus("delta", min(max_n, 3))]
    sampled = random_delta_matroids(min(max_n + 3, 8), seed, random_count)
    return items + [
        (d.ground.size, mask_of(d.family), "dmx-opcalc-%d-%d" % (seed, len(items) + i))
        for i, d in enumerate(sampled)
    ]


@lru_cache(maxsize=None)
def _subsets_code(s: Mask) -> int:
    """The code of the subsets of s: one doubling per element of s."""
    code = 1
    for bit in iter_bits(s):
        code |= code << bit
    return code


def _odd_interval_code(code: int, x: Mask) -> int:
    """The code of the sets y covering an odd number of intervals [z, z | x]
    with z feasible: the loop complement by x by its definition, read from
    the feasible side.  Each z toggles z | s for every subset s of x - z,
    the code of those subsets shifted up by z."""
    odd = 0
    for zb in iter_bits(code):
        z = zb.bit_length() - 1
        odd ^= _subsets_code(x & ~z) << z
    return odd


def _one_at_a_time(code: int, n: int, ops: Iterable[tuple[bool, Mask]]) -> int:
    """The minor by one-element steps, each (contract?, element bit) in the
    original ground; a step re-indexes its element past the removed ones."""
    removed = 0
    for contract, bit in ops:
        step = 1 << (bit.bit_length() - 1 - (removed & (bit - 1)).bit_count())
        code = minor_code(code, n, 0, step) if contract else minor_code(code, n, step, 0)
        n -= 1
        removed |= bit
    return code


def _operation_calculus(item: tuple[int, int, Optional[str]]) -> list[str]:
    """Operation-calculus identities: twist group law, dual involution, the
    twist/minor exchange identities, loop-complement involution and the
    odd-interval membership rule, minor order-independence, parity invariance
    under twist, the lower-matroid deletion identity and the intersection
    lower bound.

    Every identity is checked on 2^n-bit codes, through the code kernels
    twist_codes, twist_code, dual_code, cut_code, minor_code and
    loop_complement_code; a minor shares its ground labels whatever the order
    of its steps, so equal codes, or equal cuts by one removal, mean equal
    set systems.  The twists come from one table,
    built by doubling lowest element first; the group law applies b to a
    twist one butterfly per element, highest first, and the dual involution
    reads the table's dual backwards.  Parity is _is_even of the codes, and
    the odd-interval rule is built without loop_complement_code."""
    n, code, key = item
    cap = 1 << n
    full = cap - 1
    twists = twist_codes(code, n)
    dual = twists[full]
    v = []

    def flag(msg):
        v.append("%s :: %s" % (fmt_system(n, code), msg))

    if key is None:
        subsets: Sequence[Mask] = range(cap)
        pairs: Iterable[tuple[Mask, Mask]] = itertools.product(subsets, repeat=2)
        minor_pairs = [(dl, co) for dl in range(cap) for co in range(cap) if not dl & co]
    else:
        rng = random.Random(key)
        subsets = [rng.randrange(cap) for _ in range(3)]
        pairs = [(rng.randrange(cap), rng.randrange(cap)) for _ in range(3)]
        minor_pairs = []
        for _ in range(2):
            dl = rng.randrange(cap)
            minor_pairs.append((dl, rng.randrange(cap) & ~dl))

    for a, b in pairs:
        t, rest = twists[a], b
        # highest element first, against the table's lowest-first doubling
        while rest:
            e = rest.bit_length() - 1
            rest ^= 1 << e
            t = twist_code(t, e, n)
        if t != twists[a ^ b]:
            flag("twist group law fails")
            break
    if dual_code(dual, n) != code:
        flag("dual is not an involution")
    for e in range(n):
        bit = 1 << e
        if cut_code(code, n, 0, bit) != cut_code(twists[bit], n, bit, 0):
            flag("D/e != (D*e)\\e at %d" % (e + 1))
            break
        if cut_code(code, n, bit, 0) != cut_code(twists[bit], n, 0, bit):
            flag("D\\e != (D*e)/e at %d" % (e + 1))
            break
    for x in subsets:
        if minor_code(code, n, x, 0) != dual_code(minor_code(dual, n, 0, x), n - x.bit_count()):
            flag("deletion-via-dual identity fails")
            break
    for x in subsets:
        if loop_complement_code(loop_complement_code(code, x, n), x, n) != code:
            flag("loop complement is not an involution")
            break
    # the odd-interval membership rule, read without the kernel
    x = subsets[0]
    if _odd_interval_code(code, x) != loop_complement_code(code, x, n):
        flag("odd-interval membership rule disagrees")
    for dl, co in minor_pairs:
        base = minor_code(code, n, dl, co)
        ops_fwd = [(False, b) for b in iter_bits(dl)] + [(True, b) for b in iter_bits(co)]
        ops_rev = ops_fwd[::-1]
        if _one_at_a_time(code, n, ops_fwd) != base or _one_at_a_time(code, n, ops_rev) != base:
            flag("minor order dependence")
            break
    even = _is_even(code, n)
    for a in subsets:
        if _is_even(twists[a], n) != even:
            flag("parity not twist-invariant")
            break
    if _deletion_minimum_failures(code, n):
        flag("deletion/minimum identity fails")
    if _lower_bound_failures(code, n, subsets):
        flag("intersection lower bound fails")
    return v


def _ribbon_correspondence(item: tuple[str, RibbonGraph]) -> list[str]:
    """Quasi-tree delta-matroids of the ribbon corpus: evenness matches
    orientability, the petrial criterion for bipartiteness, and the dual of a
    bipartite graph is Eulerian (one direction only).

    The family comes from the definition, one boundary walk per edge subset,
    so the check does not rest on the binarity RibbonGraph.delta_matroid
    relies on; that method must return the same family."""
    name, g = item
    n = len(g.edges)
    v = []
    d = DeltaMatroid(
        GroundSet(g.edge_labels),
        tuple(a for a in range(1 << n) if g.boundary_components(a) == 1),
    )
    if exchange_violation_masks(d.family) is not None:
        v.append("%s :: quasi-tree family violates symmetric exchange" % name)
    if g.delta_matroid() != d:
        v.append("%s :: delta_matroid differs from the quasi-tree family" % name)
    orientable = g.is_orientable()
    if (d.parity() == EVEN) != orientable:
        v.append("%s :: evenness/orientability mismatch" % name)
    bipartite = g.underlying_bipartite()
    if orientable and bipartite != g.petrial().is_orientable():
        v.append("%s :: petrial orientability criterion fails" % name)
    if bipartite and not is_eulerian_delta(d.dual()):
        v.append("%s :: bipartite graph with non-Eulerian dual" % name)
    return v


# ---------------------------------------------------------------------------
# the suite: the one place where a check is declared
# ---------------------------------------------------------------------------


# each row lists the instances on exactly k elements, (k, code) or
# (k, code, a) for a twist pair; a row looks its generator up by name when it
# is read, so a wrapper set on this module sees every call
CORPORA: dict[str, Callable[[int], Sequence]] = {
    "delta": lambda k: [(k, c) for c in delta_matroids_exact(k)],
    "binary_delta": lambda k: [(k, c) for c in binary_delta_corpus_exact(k)],
    "even_binary_delta": lambda k: [(k, c) for c in binary_delta_corpus_exact(k) if _is_even(c, k)],
    "binary_matroids": lambda k: [(k, c) for c in binary_matroids_exact(k)],
    "twist_pairs": lambda k: [(k, c, a) for c in binary_matroids_exact(k) for a in range(1 << k)],
}


def corpus(name: str, max_n: int) -> tuple:
    """The instances of CORPORA[name] on 0, 1, ..., max_n elements, in turn."""
    return tuple(item for k in range(max_n + 1) for item in CORPORA[name](k))


def _exhaustive(name: str, horizon: int) -> Callable[[int, int], tuple]:
    """corpus(name, min(max_n, horizon)), whatever the seed."""
    return lambda max_n, seed: corpus(name, min(max_n, horizon))


SUITE: dict[str, Check] = {
    c.name: c
    for c in (
        Check(
            "min_deletion",
            _exhaustive("delta", 4),
            _min_deletion,
            Witness(
                CONTRACTION_WITNESS,
                lambda d: lower_matroid(d.contract(0)) != lower_matroid(d).contract(0),
            ),
        ),
        Check(
            "odd_circuit",
            _exhaustive("binary_delta", 4),
            _odd_circuit,
            Witness(
                NONBINARY_WITNESS,
                lambda d: d.parity() == ODD
                and not _qualifying_circuit(d.ground.size, mask_of(d.family))
                and not is_binary(d).verdict,
            ),
        ),
        Check(
            "bipartite_loop_complement",
            _exhaustive("even_binary_delta", 4),
            _bipartite_loop_complement,
        ),
        Check("welsh_duality", _exhaustive("binary_matroids", 5), _welsh_duality),
        Check("twist_decomposition", _exhaustive("twist_pairs", 4), _twist_decomposition),
        Check("circuit_contraction", _exhaustive("binary_matroids", 5), _circuit_contraction),
        Check(
            "bipartite_dual_eulerian",
            _exhaustive("twist_pairs", 5),
            _bipartite_dual_eulerian,
            Witness(
                CONVERSE_WITNESS_MATROID.twist(0b01),
                lambda d: is_eulerian_delta(d.dual()) and not is_bipartite_delta(d),
            ),
        ),
        Check("characterization", _exhaustive("twist_pairs", 5), _characterization),
        Check("deletion_bipartite", _exhaustive("delta", 4), _deletion_bipartite),
        Check("contraction_bipartite", _exhaustive("delta", 4), _contraction_bipartite),
        Check("lower_bound", _exhaustive("delta", 4), _lower_bound),
        Check("operation_calculus", _operation_calculus_corpus, _operation_calculus),
        Check(
            "ribbon_correspondence",
            lambda max_n, seed: ribbon_corpus(),
            _ribbon_correspondence,
            Witness(
                MOBIUS_LOOP,
                lambda g: is_eulerian_delta(g.delta_matroid().dual())
                and not g.underlying_bipartite(),
            ),
        ),
    )
}

# perfbench/worker.py times this check on its own
check_operation_calculus = SUITE["operation_calculus"]


def run_suite(
    names: Optional[Sequence[str]] = None,
    max_n: int = 3,
    seed: int = 0,
    shards: int = 1,
) -> list[VerificationReport]:
    chosen = list(SUITE) if not names or list(names) == ["all"] else list(names)
    for name in chosen:
        if name not in SUITE:
            raise KeyError("unknown check %r" % name)
    return [SUITE[name](max_n=max_n, seed=seed, shards=shards) for name in chosen]


def enumerate_delta_matroids(n: int, seed: int = 0, sample_count: int = 2000) -> dict:
    """Catalogue of delta-matroids on n elements with property counts.

    Exhaustive for n <= 4; seeded sampling for n = 5, 6.  A sample draws with
    repetition, so its counts are over draws, and it also reports how many
    distinct delta-matroids it holds.
    """
    if not 0 <= n <= 6:
        raise ValueError("enumeration is limited to 0 <= n <= 6")
    if n <= 4:
        g = numbered_ground(n)
        dms = [DeltaMatroid._from_canonical(g, code_masks(c, n)) for c in delta_matroids_exact(n)]
        head: dict = {"n": n, "mode": "exhaustive", "total": len(dms)}
    else:
        dms = random_delta_matroids(n, seed, sample_count)
        head = {"n": n, "mode": "sample", "total": len(dms), "distinct": len(set(dms))}
    counts = {
        "even": sum(d.parity() == EVEN for d in dms),
        "binary": sum(is_binary(d).verdict for d in dms),
        "bipartite": sum(is_bipartite_delta(d) for d in dms),
        "eulerian": sum(is_eulerian_delta(d) for d in dms),
    }
    return {**head, **counts}
