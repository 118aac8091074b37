"""Verification harness: instance generators, one check per classification
result, and reproducible counterexample reports.

Every check is a `Check` record in the `SUITE` table: a corpus, a test that
returns the violations of one instance, and for a one-directional result a
recorded witness on which the converse fails.  One executor runs them all.
Every generator is deterministic given its arguments; every check is
deterministic given (max_n, seed).  With T shards, shard t tests the
instances whose index is t modulo T, the shards run one after another, and
the counterexamples are reported in (instance index, detail) order, so the
report is the same for every T.
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
    SetSystem,
    bit_clear_codes,
    canonical_masks,
    closure_code,
    code_masks,
    exchange_violation_masks,
    iter_bits,
    loop_complement_masks,
    mask_of,
    minor_masks,
    numbered_ground,
    parity_masks,
    twist_code,
    twist_codes,
    twist_masks,
)
from .gf2 import (
    Gf2Matrix,
    Gf2SymmetricMatrix,
    column_matroid,
    is_binary,
    nonsingular_code,
)
from .matroid import (
    Matroid,
    classify_code,
    classify_family,
    classify_twists,
    is_bipartite_delta,
    is_eulerian_delta,
    lower_bases,
    lower_code,
    lower_matroid,
    upper_bases,
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
    instances, ``test(instance)`` returns the violation details of one of
    them, and a check with a witness passes only when the witness holds.
    The witness is evaluated once per run, whatever the corpus."""

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


def fmt_system(s: SetSystem) -> str:
    ground = " ".join(s.ground.labels) or "-"
    return "(%s; %s)" % (ground, " ".join(s.render_set(m) for m in s.family))


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _split_table(k: int, e: int) -> list[tuple[int, int]]:
    """Entry h, for every indicator code h of a family on k elements: the codes
    of its sets without e and of its sets with e, e removed from both."""
    low = (1 << e) - 1
    # per mask on k elements: which side of e it lies on, its bit in that part
    moves = [(m >> e & 1, 1 << ((m & low) | (m >> 1 & ~low))) for m in range(1 << k)]
    table = []
    for h in range(1 << (1 << k)):
        out = [0, 0]
        for m, (side, bit) in enumerate(moves):
            if h >> m & 1:
                out[side] |= bit
        table.append((out[0], out[1]))
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
    # the X whose complement is feasible too: the code read backwards
    pairs = code & int(format(code, "0%db" % (1 << n))[::-1], 2)
    return not any(
        twist_code(pairs, u, n) & ~reduce(or_, singles[:u] + singles[u + 1 :], code)
        for u in range(n)
    )


@lru_cache(maxsize=None)
def delta_matroids_exact(n: int) -> tuple[DeltaMatroid, ...]:
    """All delta-matroids on a ground set of size n, in ascending order of
    their indicator code (bit m set when the family contains mask m).

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
    g = numbered_ground(n)
    if n == 0:
        # the one nonempty family on the empty ground set, {{}}
        out = [DeltaMatroid(g, (0,))]
        candidates, split_rejected, exchange_rejected = 1, 0, 0
    else:
        half = 1 << (n - 1)
        quarter = half >> 1
        parts = [0] + [mask_of(d.family) for d in delta_matroids_exact(n - 1)]
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
                        out.append(DeltaMatroid._from_canonical(g, code_masks(code, n)))
                    else:
                        exchange_rejected += 1
    logger.info(
        "exhaustive delta-matroid corpus: n=%d candidates=%d split_rejected=%d "
        "exchange_rejected=%d kept=%d",
        n, candidates, split_rejected, exchange_rejected, len(out),
    )
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
    """All twists D(A)*s over all symmetric matrices A of order n, each once:
    a twist is kept only when s is its canonical minimum, as the normal form
    D(A) then forces A (Bouchet, "Representability of delta-matroids", 1988).

    The twists are codes from twist_codes.  The empty set is in D(A), so s is
    in D(A)*s, and s is its minimum iff no mask ranked before s is."""
    if not 0 <= n <= 4:
        raise ValueError("binary corpus generation is limited to 0 <= n <= 4")
    g = numbered_ground(n)
    # entry s: the code of the masks ranked before s
    before = [0] * (1 << n)
    seen = 0
    for m in canonical_masks(n):
        before[m] = seen
        seen |= 1 << m
    matrices = all_symmetric_matrices(n)
    out = [
        DeltaMatroid._from_canonical(g, code_masks(code, n))
        for a in matrices
        for s, code in enumerate(twist_codes(nonsingular_code(a.rows), n))
        if not code & before[s]
    ]
    logger.info(
        "binary delta-matroid corpus: n=%d matrices=%d twists=%d kept=%d",
        n, len(matrices), len(matrices) << n, len(out),
    )
    out.sort(key=lambda d: (len(d.family), d.family))
    return tuple(out)


def binary_delta_corpus_up_to(n: int) -> tuple[DeltaMatroid, ...]:
    return tuple(d for k in range(n + 1) for d in binary_delta_corpus_exact(k))


def _rref_matrices(n: int) -> list[Gf2Matrix]:
    """One matrix per row space of GF(2)^n, via reduced row echelon forms.

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
                rows = [1 << pivots[i] for i in range(r)]
                for k, (i, j) in enumerate(free):
                    if (code >> k) & 1:
                        rows[i] |= 1 << j
                out.append(Gf2Matrix(tuple(rows), n))
    return out


@lru_cache(maxsize=None)
def binary_matroids_exact(n: int) -> tuple[Matroid, ...]:
    if not 0 <= n <= 6:
        raise ValueError("binary matroid generation is limited to 0 <= n <= 6")
    g = numbered_ground(n)
    out = [column_matroid(mat, g) for mat in _rref_matrices(n)]
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
            if exchange_violation_masks(tuple(fam | {cand})) is None:
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


def _capped(generate: Callable[[int], Sequence], cap: int) -> Callable[[int, int], Sequence]:
    """The corpus generate(min(max_n, cap)); it does not depend on the seed."""
    return lambda max_n, seed: generate(min(max_n, cap))


def _deletion_minimum_failures(d: DeltaMatroid) -> list[int]:
    """The non-coloop elements e with lower(D \\ e) != lower(D) \\ e.

    Both sides are compared as codes on the ground of D, e kept in place:
    the sets of D \\ e are the code's sets without e.  A coloop e of the
    lower matroid is contracted instead, so its bases lose e, which moves
    them 2^e bit positions down."""
    n = d.ground.size
    code = mask_of(d.family)
    cmin = lower_code(code, n)
    return [
        e
        for e, keep in enumerate(bit_clear_codes(n))
        if code & keep
        and lower_code(code & keep, n) != (cmin & keep or (cmin >> (1 << e)) & keep)
    ]


def _lower_bound_failures(d: DeltaMatroid, subsets: Iterable[Mask]) -> list[Mask]:
    """The A in subsets that some feasible set meets in fewer elements than
    every lower-matroid base does.

    A feasible set F that holds a base B meets every A in at least |B & A|
    elements, so no A fails when every F lies in the up-closure of the bases;
    when some F holds none, A = E - F fails.  Only then are the A compared."""
    fam = d.family
    bases = lower_bases(fam)
    if not mask_of(fam) & ~closure_code(mask_of(bases), d.ground.size, up=True):
        return []
    return [
        a
        for a in subsets
        if min((f & a).bit_count() for f in fam) < min((b & a).bit_count() for b in bases)
    ]


def _min_deletion(d: DeltaMatroid) -> list[str]:
    """Deletion commutes with taking the lower matroid; the contraction
    analog fails on the recorded witness."""
    return [
        "%s :: deletion/minimum identity fails at %s" % (fmt_system(d), d.ground.labels[e])
        for e in _deletion_minimum_failures(d)
    ]


def _qualifying_circuit(d: DeltaMatroid) -> bool:
    """Some circuit C of the lower matroid is feasible in D restricted to C,
    i.e. the restriction's canonical family ends with its full ground set."""
    n = d.ground.size
    fam = d.family
    full = (1 << n) - 1
    return any(
        minor_masks(fam, full ^ c, 0)[-1] == (1 << c.bit_count()) - 1
        for c in classify_family(n, fam).circuits
    )


def _odd_circuit(d: DeltaMatroid) -> list[str]:
    """Binary delta-matroid is odd iff some circuit C of the lower matroid is
    feasible in the restriction to C; the non-binary witness breaks the
    forward direction."""
    if (d.parity() == ODD) != _qualifying_circuit(d):
        return ["%s :: odd-circuit equivalence fails" % fmt_system(d)]
    return []


def _bipartite_loop_complement(d: DeltaMatroid) -> list[str]:
    """Binary even delta-matroid is bipartite iff its loop complementation on
    the whole ground set is even."""
    n = d.ground.size
    lc = loop_complement_masks(d.family, (1 << n) - 1, n)
    if classify_family(n, d.family).bipartite != (parity_masks(lc) == EVEN):
        return ["%s :: bipartite/loop-complement parity mismatch" % fmt_system(d)]
    return []


def _welsh_duality(m: Matroid) -> list[str]:
    """Binary matroid is Eulerian iff its dual is bipartite iff its
    independent-set count is odd."""
    n = m.ground.size
    v = []
    eul = classify_family(n, m.family).eulerian
    if eul != classify_family(n, twist_masks(m.family, (1 << n) - 1, n)).bipartite:
        v.append("%s :: eulerian/dual-bipartite mismatch" % fmt_system(m))
    if eul != bool(m.count_independent_sets() & 1):
        v.append("%s :: eulerian/independent-count parity mismatch" % fmt_system(m))
    return v


def _twist_decomposition(pair: tuple[Matroid, Mask]) -> list[str]:
    """Lower and upper matroids of a twisted matroid decompose as direct sums
    of minors of the matroid and its dual: lower(M*A) = (M/A) + (M|A)* and
    upper(M*A) = (M\\A) + (M/A^c)*.  Let S be the bases B meeting A most.
    The bases of M/A are B - A and those of M|A are B & A for B in S, so the
    lower sum has the bases (B1 - A) | (A - B2) for B1, B2 in S, in M's own
    bit positions; the upper sum is read the same way off the bases meeting
    A least."""
    m, a = pair
    twisted = twist_masks(m.family, a, m.ground.size)
    meets = [(b & a).bit_count() for b in m.family]
    v = []
    for side, bases, extreme in (("lower", lower_bases, max), ("upper", upper_bases, min)):
        top = extreme(meets)
        s = [b for b, k in zip(m.family, meets) if k == top]
        if {b1 & ~a | a & ~b2 for b1 in s for b2 in s} != set(bases(twisted)):
            v.append("%s * %s :: %s decomposition fails" % (fmt_system(m), m.render_set(a), side))
    return v


def _circuit_contraction(m: Matroid) -> list[str]:
    """Contracting an element outside a circuit of a binary matroid leaves the
    circuit a circuit or a disjoint union of exactly two circuits."""
    n = m.ground.size
    fam = m.family
    v = []
    contracted = [classify_family(n - 1, minor_masks(fam, 0, 1 << e)).circuits for e in range(n)]
    for c in classify_family(n, fam).circuits:
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
                "%s :: circuit %s breaks under contraction of %s"
                % (fmt_system(m), m.render_set(c), m.ground.labels[e])
            )
    return v


def _bipartite_dual_eulerian(pair: tuple[Matroid, Mask]) -> list[str]:
    """Bipartite twists of binary matroids have Eulerian duals; the converse
    fails on the recorded witness.  The dual of M*A is M*(E - A)."""
    m, a = pair
    n = m.ground.size
    twists = classify_twists(n, mask_of(m.family))
    if twists[a].bipartite and not twists[((1 << n) - 1) ^ a].eulerian:
        return ["%s * %s :: bipartite twist with non-Eulerian dual" % (fmt_system(m), m.render_set(a))]
    return []


def _characterization(pair: tuple[Matroid, Mask]) -> list[str]:
    """A twist of a binary matroid is bipartite (Eulerian) iff both deletion
    factors of the matroid and its dual are Eulerian (bipartite).

    M \\ A^c is M|A and M* \\ A is M*|A^c, so both are read off the
    restriction codes of M and of M*, the twists of M by {} and by E."""
    m, a = pair
    n = m.ground.size
    full = (1 << n) - 1
    twists = classify_twists(n, mask_of(m.family))
    rec, dual = twists[0], twists[full]
    factors_eulerian = bool(rec.circuit_unions >> a & dual.circuit_unions >> (full ^ a) & 1)
    factors_bipartite = not (rec.odd_holders >> a | dual.odd_holders >> (full ^ a)) & 1
    v = []
    if twists[a].bipartite != factors_eulerian:
        v.append("%s * %s :: bipartite clause fails" % (fmt_system(m), m.render_set(a)))
    if twists[a].eulerian != factors_bipartite:
        v.append("%s * %s :: eulerian clause fails" % (fmt_system(m), m.render_set(a)))
    return v


def _deletion_bipartite(d: DeltaMatroid) -> list[str]:
    """Deletion preserves bipartiteness of arbitrary delta-matroids."""
    n = d.ground.size
    fam = d.family
    if not classify_family(n, fam).bipartite:
        return []
    return [
        "%s :: deleting %s loses bipartiteness" % (fmt_system(d), d.render_set(a))
        for a in range(1 << n)
        if not classify_family(n - a.bit_count(), minor_masks(fam, a, 0)).bipartite
    ]


def _contraction_is_bipartite(code: int, a: Mask, n: int) -> bool:
    """Whether D / A is bipartite, for the delta-matroid D with this code on
    n elements.  A is contracted on the code, an element no set holds is
    deleted, and A joins every set: its elements become coloops of the lower
    matroid, in no circuit, so the bipartite class is that of D / A."""
    for e, keep in enumerate(bit_clear_codes(n)):
        if a >> e & 1 and code & ~keep:
            code = (code & ~keep) >> (1 << e)
    return classify_code(n, code << a).bipartite


def _contraction_bipartite(d: DeltaMatroid) -> list[str]:
    """If a twist D*A is bipartite then D*/A^c and D/A are bipartite.  The
    twists are read from the table of the least code D*b of the twist
    orbit, at A XOR b, and the contractions off the codes of D and D*."""
    n = d.ground.size
    full = (1 << n) - 1
    codes = twist_codes(mask_of(d.family), n)
    b = codes.index(min(codes))
    twists = classify_twists(n, codes[b])
    v = []
    for a in range(1 << n):
        if not twists[a ^ b].bipartite:
            continue
        if not _contraction_is_bipartite(codes[full], full ^ a, n):
            v.append("%s :: D*/A^c not bipartite for A=%s" % (fmt_system(d), d.render_set(a)))
        if not _contraction_is_bipartite(codes[0], a, n):
            v.append("%s :: D/A not bipartite for A=%s" % (fmt_system(d), d.render_set(a)))
    return v


def _lower_bound(d: DeltaMatroid) -> list[str]:
    """Every feasible set meets any A in at least as many elements as some
    lower-matroid base does."""
    return [
        "%s :: intersection lower bound fails for A=%s" % (fmt_system(d), d.render_set(a))
        for a in _lower_bound_failures(d, range(1 << d.ground.size))
    ]


def _operation_calculus_corpus(
    max_n: int, seed: int, random_count: int = 200
) -> list[tuple[DeltaMatroid, Optional[str]]]:
    """Every delta-matroid on at most min(max_n, 3) elements, tested on all
    subsets (key None), then seeded random ones on min(max_n + 3, 8)
    elements, each tested on a sample drawn from its own key."""
    items: list[tuple[DeltaMatroid, Optional[str]]] = [
        (d, None) for d in delta_matroids_up_to(min(max_n, 3))
    ]
    first = len(items)
    sampled = random_delta_matroids(min(max_n + 3, 8), seed, random_count)
    items += [(d, "dmx-opcalc-%d-%d" % (seed, first + i)) for i, d in enumerate(sampled)]
    return items


def _odd_interval_family(fam: Iterable[Mask], x: Mask) -> set[Mask]:
    """The sets y covering an odd number of intervals [z, z | x] with z
    feasible: the loop complement by x by its definition, read from the
    feasible side.  Each z toggles z | s for every subset s of x - z."""
    odd: set[Mask] = set()
    for z in fam:
        free = x & ~z
        s = free
        while True:
            y = z | s
            if y in odd:
                odd.remove(y)
            else:
                odd.add(y)
            if not s:
                break
            s = (s - 1) & free
    return odd


def _one_at_a_time(fam: Sequence[Mask], ops: Iterable[tuple[bool, Mask]]) -> Sequence[Mask]:
    """The minor by one-element steps, each (contract?, element bit) in the
    original ground; a step re-indexes its element past the removed ones."""
    removed = 0
    for contract, bit in ops:
        step = 1 << (bit.bit_length() - 1 - (removed & (bit - 1)).bit_count())
        fam = minor_masks(fam, 0, step) if contract else minor_masks(fam, step, 0)
        removed |= bit
    return fam


def _operation_calculus(item: tuple[DeltaMatroid, Optional[str]]) -> list[str]:
    """Operation-calculus identities: twist group law, dual involution, the
    twist/minor exchange identities, loop-complement involution and the
    odd-interval membership rule, minor order-independence, parity invariance
    under twist, the lower-matroid deletion identity and the intersection
    lower bound.

    Every identity is checked on canonical families through the kernels the
    SetSystem methods wrap: a minor shares its ground labels whatever the
    order of its steps, so equal families mean equal set systems."""
    d, key = item
    n = d.ground.size
    cap = 1 << n
    full = cap - 1
    fam = d.family
    # each twist of d, the dual among them, is computed once
    twist = lru_cache(maxsize=None)(lambda a: twist_masks(fam, a, n))
    dual = twist(full)
    v = []

    def flag(msg):
        v.append("%s :: %s" % (fmt_system(d), msg))

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
        if twist_masks(twist(a), b, n) != twist(a ^ b):
            flag("twist group law fails")
            break
    if twist_masks(dual, full, n) != fam:
        flag("dual is not an involution")
    for e in range(n):
        bit = 1 << e
        lab = d.ground.labels[e]
        if minor_masks(fam, 0, bit) != minor_masks(twist(bit), bit, 0):
            flag("D/e != (D*e)\\e at %s" % lab)
            break
        if minor_masks(fam, bit, 0) != minor_masks(twist(bit), 0, bit):
            flag("D\\e != (D*e)/e at %s" % lab)
            break
    for x in subsets:
        m = n - x.bit_count()
        if minor_masks(fam, x, 0) != twist_masks(minor_masks(dual, 0, x), (1 << m) - 1, m):
            flag("deletion-via-dual identity fails")
            break
    for x in subsets:
        if loop_complement_masks(loop_complement_masks(fam, x, n), x, n) != fam:
            flag("loop complement is not an involution")
            break
    # the odd-interval membership rule, read without the kernel
    x = subsets[0]
    if _odd_interval_family(fam, x) != set(loop_complement_masks(fam, x, n)):
        flag("odd-interval membership rule disagrees")
    for dl, co in minor_pairs:
        base = minor_masks(fam, dl, co)
        ops_fwd = [(False, b) for b in iter_bits(dl)] + [(True, b) for b in iter_bits(co)]
        ops_rev = ops_fwd[::-1]
        if _one_at_a_time(fam, ops_fwd) != base or _one_at_a_time(fam, ops_rev) != base:
            flag("minor order dependence")
            break
    parity = parity_masks(fam)
    for a in subsets:
        if parity_masks(twist(a)) != parity:
            flag("parity not twist-invariant")
            break
    if _deletion_minimum_failures(d):
        flag("deletion/minimum identity fails")
    if _lower_bound_failures(d, subsets):
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
    if bipartite and not classify_family(n, twist_masks(d.family, (1 << n) - 1, n)).eulerian:
        v.append("%s :: bipartite graph with non-Eulerian dual" % name)
    return v


# ---------------------------------------------------------------------------
# the suite: the one place where a check is declared
# ---------------------------------------------------------------------------


_delta_corpus = _capped(delta_matroids_up_to, 4)

SUITE: dict[str, Check] = {
    c.name: c
    for c in (
        Check(
            "min_deletion",
            _delta_corpus,
            _min_deletion,
            Witness(
                CONTRACTION_WITNESS,
                lambda d: lower_matroid(d.contract(0)) != lower_matroid(d).contract(0),
            ),
        ),
        Check(
            "odd_circuit",
            _capped(binary_delta_corpus_up_to, 4),
            _odd_circuit,
            Witness(
                NONBINARY_WITNESS,
                lambda d: d.parity() == ODD
                and not _qualifying_circuit(d)
                and not is_binary(d).verdict,
            ),
        ),
        Check(
            "bipartite_loop_complement",
            lambda max_n, seed: [
                d for d in binary_delta_corpus_up_to(min(max_n, 4)) if d.parity() == EVEN
            ],
            _bipartite_loop_complement,
        ),
        Check("welsh_duality", _capped(binary_matroids_up_to, 5), _welsh_duality),
        Check("twist_decomposition", _capped(matroid_twist_pairs, 4), _twist_decomposition),
        Check("circuit_contraction", _capped(binary_matroids_up_to, 5), _circuit_contraction),
        Check(
            "bipartite_dual_eulerian",
            _capped(matroid_twist_pairs, 5),
            _bipartite_dual_eulerian,
            Witness(
                CONVERSE_WITNESS_MATROID.twist(0b01),
                lambda d: is_eulerian_delta(d.dual()) and not is_bipartite_delta(d),
            ),
        ),
        Check("characterization", _capped(matroid_twist_pairs, 5), _characterization),
        Check("deletion_bipartite", _delta_corpus, _deletion_bipartite),
        Check("contraction_bipartite", _delta_corpus, _contraction_bipartite),
        Check("lower_bound", _delta_corpus, _lower_bound),
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
        dms: Sequence[DeltaMatroid] = delta_matroids_exact(n)
        head: dict = {"n": n, "mode": "exhaustive", "total": len(dms)}
    else:
        dms = random_delta_matroids(n, seed, sample_count)
        head = {"n": n, "mode": "sample", "total": len(dms), "distinct": len(set(dms))}
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
    return {**head, **counts}
