"""Matroids as equicardinal delta-matroids: circuits, duals, rank, and the
Eulerian/bipartite classification (lifted to delta-matroids through the lower
matroid).

Circuits, the first odd circuit and the Eulerian partition depend only on the
ground size and the bases, so they are computed once per (n, base code) key,
the code with bit B set for each base B, in a bounded module-level cache,
whatever the labels.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import and_
from typing import TYPE_CHECKING, Optional

from .core import (
    DeltaMatroid,
    ImproperSystemError,
    Mask,
    SetSystem,
    SymmetricExchangeError,
    bit_clear_codes,
    canonical_masks,
    certify_delta_matroid,
    code_masks,
    layer_codes,
    mask_of,
    twist_codes,
)

if TYPE_CHECKING:
    from .gf2 import BinaryCertificate

# Entries kept by each cache below; a verify run at --max-n 5 meets under
# 500 matroids and restriction codes, and under 1,000 twist tables.
CLASSIFICATION_CACHE_SIZE = 2048


class MatroidError(ValueError):
    """The given family is not the base family of a matroid."""


@dataclass(frozen=True, eq=False, repr=False)
class Matroid(DeltaMatroid):
    """The feasible sets are the bases; all bases share one cardinality.

    As with DeltaMatroid, direct construction trusts the caller; use
    Matroid.from_bases to validate the exchange property on raw input.
    """

    def _check_class(self) -> None:
        super()._check_class()
        # the canonical order sorts by cardinality first
        first = self.family[0]
        if first.bit_count() != self.family[-1].bit_count():
            other = next(m for m in self.family if m.bit_count() != first.bit_count())
            raise MatroidError(
                "bases %s and %s differ in cardinality"
                % (self.render_set(first), self.render_set(other))
            )

    @property
    def bases(self) -> tuple[Mask, ...]:
        return self.family

    @property
    def rank(self) -> int:
        return self.family[0].bit_count()

    @classmethod
    def from_bases(cls, system: SetSystem) -> "Matroid":
        return certify_matroid(system)[0]

    # -- independence ----------------------------------------------------------

    @cached_property
    def independent_sets(self) -> frozenset[Mask]:
        """All subsets of bases."""
        return frozenset(_independent_sets(self.family))

    def count_independent_sets(self) -> int:
        return len(self.independent_sets)

    @cached_property
    def circuits(self) -> tuple[Mask, ...]:
        """Inclusion-minimal dependent sets, in canonical order."""
        return classify_matroid(self).circuits

    def dual(self) -> "Matroid":
        """Bases are the complements of bases; coincides with the twist by E."""
        return Matroid._from_canonical(self.ground, self.twist(self.ground.full_mask).family)

    # -- Eulerian / bipartite --------------------------------------------------

    def odd_circuit(self) -> Optional[Mask]:
        """The first circuit of odd cardinality in canonical order, or None."""
        return classify_matroid(self).odd_circuit_witness

    def is_bipartite(self) -> bool:
        """Every circuit has even cardinality (vacuously true without circuits)."""
        return self.odd_circuit() is None

    def eulerian_partition(self) -> Optional[tuple[Mask, ...]]:
        """A partition of the ground set into disjoint circuits, or None.

        The empty ground set is covered by the empty partition.
        """
        return classify_matroid(self).eulerian_partition

    def is_eulerian(self) -> bool:
        return self.eulerian_partition() is not None


def certify_matroid(system: SetSystem) -> tuple[Matroid, Optional[BinaryCertificate]]:
    """Matroid.from_bases, also returning the binarity certificate of
    certify_delta_matroid.  Checks at least one base, then bases of one
    size, then the certificate or the exchange scan."""
    if not system.family:
        raise ImproperSystemError("a matroid needs at least one base")
    # construction checks that the bases are equicardinal
    m = Matroid._from_canonical(system.ground, system.family)
    try:
        cert = certify_delta_matroid(system)[1]
    except SymmetricExchangeError as exc:
        x, y, u = exc.witness
        raise MatroidError(
            "base exchange fails at B1=%s, B2=%s, u=%s"
            % (system.render_set(x), system.render_set(y), system.ground.labels[u])
        ) from None
    return m, cert


def _independent_sets(bases: tuple[Mask, ...]) -> set[Mask]:
    ind: set[Mask] = set()
    for b in bases:
        s = b
        while True:
            ind.add(s)
            if s == 0:
                break
            s = (s - 1) & b
    return ind


def _exact_cover(full: Mask, circuits: tuple[Mask, ...]) -> Optional[tuple[Mask, ...]]:
    """Backtracking on the lowest uncovered element; circuits are tried in
    canonical order, so the first partition found is deterministic."""

    def bt(uncovered: Mask, acc: list[Mask]) -> Optional[tuple[Mask, ...]]:
        if not uncovered:
            return tuple(acc)
        low = uncovered & -uncovered
        for c in circuits:
            if c & low and not c & ~uncovered:
                acc.append(c)
                got = bt(uncovered ^ c, acc)
                if got is not None:
                    return got
                acc.pop()
        return None

    return bt(full, [])


@dataclass(frozen=True)
class ClassificationReport:
    circuits: tuple[Mask, ...]
    bipartite: bool
    eulerian: bool
    eulerian_partition: Optional[tuple[Mask, ...]]
    odd_circuit_witness: Optional[Mask]


@lru_cache(maxsize=CLASSIFICATION_CACHE_SIZE)
def _classification(n: int, bases: int) -> ClassificationReport:
    """Circuits, first odd circuit and Eulerian partition of the matroid on
    n elements whose bases have the indicator code `bases`.

    A dependent set is a circuit iff removing any one element leaves it
    independent, so one scan of the subsets in canonical order finds the
    circuits in canonical order.
    """
    ind = _independent_sets(code_masks(bases, n))
    circuits = []
    for m in canonical_masks(n):
        if m in ind:
            continue
        rest = m
        while rest:
            low = rest & -rest
            if m ^ low not in ind:
                break
            rest ^= low
        else:
            circuits.append(m)
    circ = tuple(circuits)
    odd = next((c for c in circ if c.bit_count() & 1), None)
    partition = _exact_cover((1 << n) - 1, circ)
    return ClassificationReport(circ, odd is None, partition is not None, partition, odd)


def classify_matroid(m: Matroid) -> ClassificationReport:
    if not m.family:
        raise ImproperSystemError("the circuits of an empty family are undefined")
    return _classification(m.ground.size, mask_of(m.family))


def lower_bases(family: tuple[Mask, ...]) -> tuple[Mask, ...]:
    """The minimum-cardinality prefix of a nonempty canonical family: the
    bases of its lower matroid."""
    return family[: bisect_right(family, family[0].bit_count(), key=int.bit_count)]


def upper_bases(family: tuple[Mask, ...]) -> tuple[Mask, ...]:
    """The maximum-cardinality suffix of a nonempty canonical family: the
    bases of its upper matroid."""
    return family[bisect_left(family, family[-1].bit_count(), key=int.bit_count) :]


def lower_code(code: int, n: int) -> int:
    """The bases of the lower matroid of a nonempty family on n elements, as
    a code: the first nonzero layer of the family's code."""
    for layer in layer_codes(n):
        low = code & layer
        if low:
            return low
    raise ImproperSystemError("the lower matroid of an empty family is undefined")


def classify_family(n: int, family: tuple[Mask, ...]) -> ClassificationReport:
    """classify_delta of a nonempty canonical family on n elements."""
    return _classification(n, mask_of(lower_bases(family)))


def classify_code(n: int, code: int) -> ClassificationReport:
    """classify_family of the family with this code."""
    return _classification(n, lower_code(code, n))


@lru_cache(maxsize=CLASSIFICATION_CACHE_SIZE)
def classify_twists(n: int, code: int) -> tuple[ClassificationReport, ...]:
    """classify_code of the family with this code twisted by every a < 2^n,
    indexed by a.  A twist D*b has the same table read at a XOR b, so the
    twists of one family can share the table of their least code."""
    return tuple(classify_code(n, c) for c in twist_codes(code, n))


@lru_cache(maxsize=CLASSIFICATION_CACHE_SIZE)
def restriction_codes(n: int, circuits: tuple[Mask, ...]) -> tuple[int, int]:
    """Two 2^n-bit codes over the subsets A of the ground of a matroid M on
    n elements with these circuits: the A that hold an odd circuit, and the
    A that are disjoint unions of circuits.  The circuits of M|A are those
    of M inside A (Oxley, Matroid Theory, 3.1), so M|A is bipartite iff bit
    A of the first code is clear, and Eulerian iff bit A of the second is set."""
    keeps = bit_clear_codes(n)
    odd = mask_of(c for c in circuits if c.bit_count() & 1)
    for e, keep in enumerate(keeps):
        odd |= (odd & keep) << (1 << e)
    # a circuit c joins the sets s disjoint from it: bit s moves to s + c
    joins = [(c, reduce(and_, [k for e, k in enumerate(keeps) if c >> e & 1])) for c in circuits]
    # the unions of k + 1 circuits grow from those of k, starting at {}
    unions = last = 1
    while last:
        grown = 0
        for c, free in joins:
            grown |= (last & free) << c
        last = grown & ~unions
        unions |= last
    return odd, unions


def lower_matroid(d: DeltaMatroid) -> Matroid:
    """Bases are the minimum-cardinality feasible sets."""
    if not d.family:
        raise ImproperSystemError("the lower matroid of an empty family is undefined")
    return Matroid._from_canonical(d.ground, lower_bases(d.family))


def upper_matroid(d: DeltaMatroid) -> Matroid:
    """Bases are the maximum-cardinality feasible sets."""
    if not d.family:
        raise ImproperSystemError("the upper matroid of an empty family is undefined")
    return Matroid._from_canonical(d.ground, upper_bases(d.family))


def classify_delta(d: DeltaMatroid) -> ClassificationReport:
    """A delta-matroid is bipartite/Eulerian when its lower matroid is."""
    if not d.family:
        raise ImproperSystemError("the classification of an empty family is undefined")
    return classify_family(d.ground.size, d.family)


def is_bipartite_delta(d: DeltaMatroid) -> bool:
    return classify_delta(d).bipartite


def is_eulerian_delta(d: DeltaMatroid) -> bool:
    return classify_delta(d).eulerian
