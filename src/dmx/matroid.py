"""Matroids as equicardinal delta-matroids: circuits, duals, rank, and the
Eulerian/bipartite classification (lifted to delta-matroids through the lower
matroid).

Circuits, the first odd circuit, the Eulerian partition and the restriction
codes depend only on the ground size and the bases, so they are computed
once per (n, base code) key, the code with bit B set for each base B, in a
bounded module-level cache, whatever the labels.
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
    certify_delta_matroid,
    closure_code,
    code_masks,
    layer_codes,
    mask_of,
    twist_codes,
)

if TYPE_CHECKING:
    from .gf2 import BinaryCertificate

# Entries kept by each cache below.  `dmx verify --suite all --max-n 5
# --seed 3` classifies 466 matroids and builds 980 twist tables, so nothing
# is evicted; the 2,825 binary matroids on 6 elements that --max-n 6 would
# reach overflow this bound.
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


@dataclass(frozen=True)
class ClassificationReport:
    """The circuits of a matroid M on n elements in canonical order, its
    classes, and two 2^n-bit codes over the subsets A of the ground: A holds
    an odd circuit (odd_holders), and A is a disjoint union of circuits
    (circuit_unions).  The circuits of M|A are those of M inside A (Oxley,
    Matroid Theory, 3.1), so the codes' bit A says whether M|A is bipartite
    (clear) and Eulerian (set)."""

    circuits: tuple[Mask, ...]
    bipartite: bool
    eulerian: bool
    eulerian_partition: Optional[tuple[Mask, ...]]
    odd_circuit_witness: Optional[Mask]
    odd_holders: int
    circuit_unions: int


@lru_cache(maxsize=CLASSIFICATION_CACHE_SIZE)
def _classification(n: int, bases: int) -> ClassificationReport:
    """The record of the matroid on n elements with this base code, on codes.

    The independent sets are the down-closure of the bases, and a dependent
    set is a circuit iff each one-element deletion is independent.  The
    Eulerian partition takes, at the lowest uncovered element, the first
    circuit in canonical order whose removal leaves a member of
    circuit_unions.  Backtracking over the circuits in that order succeeds
    on a branch iff what it leaves is such a member, so it finds this same
    partition first.
    """
    keeps = bit_clear_codes(n)
    ind = closure_code(bases, n, up=False)
    circ = ((1 << (1 << n)) - 1) ^ ind
    for e, keep in enumerate(keeps):
        circ &= keep | (ind & keep) << (1 << e)
    circuits = code_masks(circ, n)
    odd = [c for c in circuits if c.bit_count() & 1]
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
    parts, rest = [], (1 << n) - 1
    eulerian = bool(unions >> rest & 1)
    while eulerian and rest:
        low = rest & -rest
        c = next(c for c in circuits if c & low and not c & ~rest and unions >> (rest ^ c) & 1)
        parts.append(c)
        rest ^= c
    return ClassificationReport(
        circuits,
        not odd,
        eulerian,
        tuple(parts) if eulerian else None,
        odd[0] if odd else None,
        closure_code(mask_of(odd), n, up=True),
        unions,
    )


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


def upper_code(code: int, n: int) -> int:
    """The bases of the upper matroid of a nonempty family on n elements, as
    a code: the last nonzero layer of the family's code."""
    for layer in reversed(layer_codes(n)):
        high = code & layer
        if high:
            return high
    raise ImproperSystemError("the upper matroid of an empty family is undefined")


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
