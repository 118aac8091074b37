"""Set systems over a labelled ground set and the delta-matroid operation calculus.

Ground elements are dense indices 0..n-1 carrying a user-facing label;
subsets are plain int bitmasks, so symmetric difference, union and
intersection are single XOR/OR/AND operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .gf2 import BinaryCertificate

Mask = int

EVEN = "even"
ODD = "odd"


class ImproperSystemError(ValueError):
    """An empty feasible family where a proper set system is required."""


class SymmetricExchangeError(ValueError):
    """Symmetric exchange axiom failure, carrying the offending (X, Y, u) triple."""

    def __init__(self, system: "SetSystem", x: Mask, y: Mask, u: int):
        self.system = system
        self.witness = (x, y, u)
        super().__init__(
            "symmetric exchange fails at X=%s, Y=%s, u=%s"
            % (system.render_set(x), system.render_set(y), system.ground.labels[u])
        )


def iter_bits(mask: Mask) -> Iterator[Mask]:
    """Yield the set bits of a mask as single-bit masks, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def indices_of(mask: Mask) -> tuple[int, ...]:
    return tuple(b.bit_length() - 1 for b in iter_bits(mask))


def mask_of(indices: Iterable[int]) -> Mask:
    """The mask of a set of indices; of a family's masks, its indicator code."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def family_sort_key(mask: Mask) -> tuple[int, tuple[int, ...]]:
    """Canonical order of subsets: cardinality, then lexicographic on indices."""
    return (mask.bit_count(), indices_of(mask))


# Ground sizes up to this bound get a rank table; gf2.BINARY_MAX_N, the
# binarity test's limit, is defined as this value.  At n = 12 the table is
# 4096 entries, so all of them stay a few hundred KB.
RANK_TABLE_MAX_N = 12


@lru_cache(maxsize=None)
def canonical_table(n: int) -> tuple[tuple[Mask, ...], tuple[int, ...]]:
    """All 2^n masks in canonical order, and the position of each mask in it.

    Built on first use for each n <= RANK_TABLE_MAX_N; family_sort_key stays
    the reference order and the key used above that bound.
    """
    if not 0 <= n <= RANK_TABLE_MAX_N:
        raise ValueError("rank tables are limited to ground size %d" % RANK_TABLE_MAX_N)
    # both tables hold the same int objects, which halves their memory
    ints = list(range(1 << n))
    order = sorted(ints, key=family_sort_key)
    rank = [0] * len(ints)
    for pos, m in enumerate(order):
        rank[m] = ints[pos]
    return tuple(order), tuple(rank)


def canonical_masks(n: int) -> Iterable[Mask]:
    """Every subset of an n-element ground set, in canonical order."""
    if n <= RANK_TABLE_MAX_N:
        return canonical_table(n)[0]
    return (
        mask_of(combo)
        for k in range(n + 1)
        for combo in itertools.combinations(range(n), k)
    )


def code_masks(code: int, n: int) -> tuple[Mask, ...]:
    """The masks x with bit x set in a 2^n-bit indicator code, in canonical
    order.  The code is read once, as a string, so a 2^16-bit code costs one
    pass rather than a shift per mask."""
    bits = format(code, "0%db" % (1 << n))[::-1]
    return tuple(x for x in canonical_masks(n) if bits[x] == "1")


@lru_cache(maxsize=None)
def bit_clear_codes(n: int) -> tuple[int, ...]:
    """Entry e: the 2^n-bit code of the masks x < 2^n whose bit e is clear."""
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << e)) - 1) * ((1 << (1 << e)) - 1) for e in range(n))


@lru_cache(maxsize=None)
def layer_codes(n: int) -> tuple[int, ...]:
    """Entry k: the 2^n-bit code of the masks x < 2^n with k elements."""
    layers = [0] * (n + 1)
    for x in range(1 << n):
        layers[x.bit_count()] |= 1 << x
    return tuple(layers)


def twist_code(code: int, e: int, n: int) -> int:
    """The code of a family on n elements twisted by {e}: the butterfly that
    swaps the sets without e and the sets with e, 2^e bit positions apart."""
    keep = bit_clear_codes(n)[e]
    shift = 1 << e
    return (code & keep) << shift | (code >> shift) & keep


def closure_code(code: int, n: int, up: bool) -> int:
    """The code of the sets above (up) or below some set of a code on n
    elements: per element e, one butterfly of twist_code that adds x + e
    for every set x without e (or x - e for every set x with e)."""
    for e, keep in enumerate(bit_clear_codes(n)):
        shift = 1 << e
        code |= (code & keep) << shift if up else (code >> shift) & keep
    return code


def dual_code(code: int, n: int) -> int:
    """The code of a family on n elements twisted by the whole ground: x
    goes to E - x = 2^n - 1 - x, so the 2^n-bit code is read backwards."""
    return int(format(code, "0%db" % (1 << n))[::-1], 2)


def loop_complement_code(code: int, a: Mask, n: int) -> int:
    """loop_complement_masks on the code of a family on n elements: per
    element e of a, the sets x without e toggle x + e, 2^e bit positions up."""
    keeps = bit_clear_codes(n)
    for bit in iter_bits(a):
        e = bit.bit_length() - 1
        code ^= (code & keeps[e]) << bit
    return code


def minor_code(code: int, n: int, delete: Mask, contract: Mask) -> int:
    """minor_masks on the code of a family on n elements: the code of the
    minor on the n - |delete | contract| remaining elements.

    Highest element first, the wanted side of e is kept with e cleared from
    its sets: the sets without e are code & M_e and those with e are
    (code >> 2^e) & M_e, M_e the code of the sets without e.  An empty side
    keeps the other one, the loop/coloop rule.  The kept index bits are then
    packed down once: the kept elements above the lowest removed one move,
    lowest first, to consecutive positions from that one's, each with one
    masked shift; the positions a move passes are clear in every set."""
    keeps = bit_clear_codes(n)
    removed = delete | contract
    rest = removed
    while rest:
        e = rest.bit_length() - 1
        bit = 1 << e
        rest ^= bit
        keep = keeps[e]
        if contract & bit:
            code = (code >> bit) & keep or code & keep
        else:
            code = code & keep or (code >> bit) & keep
    low = removed & -removed
    to = low.bit_length() - 1
    kept = ~removed & ((1 << n) - 1) & -low
    while kept:
        kb = kept & -kept
        kept ^= kb
        stay = code & keeps[kb.bit_length() - 1]
        code = stay | (code ^ stay) >> (kb - (1 << to))
        to += 1
    return code


def twist_codes(code: int, n: int) -> list[int]:
    """The codes of the family twisted by every a < 2^n, indexed by a.

    By doubling: the twists by the subsets of {0..e-1} are twisted by {e}
    once each, so each of the 2^n - 1 twists costs one butterfly of
    twist_code, written out here to save a call per twist."""
    codes = [code]
    for e, keep in enumerate(bit_clear_codes(n)):
        shift = 1 << e
        codes += [(c & keep) << shift | (c >> shift) & keep for c in codes]
    return codes


def canonical_sorted(masks: Iterable[Mask], n: int) -> list[Mask]:
    """Masks of subsets of an n-element ground set, sorted canonically."""
    if n <= RANK_TABLE_MAX_N:
        return sorted(masks, key=canonical_table(n)[1].__getitem__)
    return sorted(masks, key=family_sort_key)


def twist_masks(family: Iterable[Mask], a: Mask, n: int) -> tuple[Mask, ...]:
    """The canonical family {F XOR a : F in family} on an n-element ground.

    XOR by an in-range a permutes the subsets, so only the order changes.
    """
    return tuple(canonical_sorted([m ^ a for m in family], n))


def loop_complement_masks(family: Iterable[Mask], a: Mask, n: int) -> tuple[Mask, ...]:
    """The canonical loop complement of a family on an n-element ground by a:
    element by element over a, toggle F+e for every member F without e.

    The toggles by different elements commute, so the order does not matter.
    """
    fam = set(family)
    for bit in iter_bits(a):
        fam ^= {m | bit for m in fam if not m & bit}
    return tuple(canonical_sorted(fam, n))


def minor_masks(family: Sequence[Mask], delete: Mask, contract: Mask) -> tuple[Mask, ...]:
    """Delete and contract disjoint element sets of a canonical family,
    highest index first; the result is canonical on the remaining elements.

    Deleting a coloop contracts it and contracting a loop deletes it, so on
    a plain set system (not on a delta-matroid) the result can depend on
    the order in which the elements go.
    """
    # Highest first, so shifting higher bits down never moves a pending
    # element.  Filtering keeps the canonical order, and the kept sets all
    # agree on the element (all stay if none is on the wanted side).  Sets
    # of equal size compare by whether the least element of their difference
    # lies in the first; that is never the dropped one, so the order holds.
    # Each step filters and shifts in one pass.
    fam = family
    rest = delete | contract
    while rest:
        bit = 1 << (rest.bit_length() - 1)
        rest ^= bit
        side, low = contract & bit, bit - 1
        high = ~low
        fam = [m & low | m >> 1 & high for m in fam if m & bit == side] or [
            m & low | m >> 1 & high for m in fam
        ]
    return tuple(fam)


@dataclass(frozen=True)
class GroundSet:
    """An ordered ground set; element i carries labels[i]."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("ground labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> Mask:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError("unknown ground label %r" % (label,)) from None

    def mask(self, labels: Iterable[str]) -> Mask:
        return mask_of(self.index(lab) for lab in labels)

    def labels_of(self, mask: Mask) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in indices_of(mask))


def numbered_ground(n: int) -> GroundSet:
    """Ground set with labels "1".."n"."""
    return GroundSet(tuple(str(i + 1) for i in range(n)))


@dataclass(frozen=True, eq=False, repr=False)
class SetSystem:
    """A ground set plus a duplicate-free family of subsets in canonical order.

    Instances are immutable; every operation returns a new value.  Equality
    compares ground labels and the canonical family, irrespective of the
    concrete class, so a Matroid compares equal to the DeltaMatroid with the
    same content.
    """

    ground: GroundSet
    family: tuple[Mask, ...]

    def __post_init__(self):
        n = self.ground.size
        fam = set(self.family)
        if fam:
            # range check first: the rank table is indexed by mask
            lo, hi = min(fam), max(fam)
            if lo < 0 or hi >> n:
                raise ValueError(
                    "subset mask %#x out of range for ground size %d" % (lo if lo < 0 else hi, n)
                )
        object.__setattr__(self, "family", tuple(canonical_sorted(fam, n)))
        self._check_class()

    @classmethod
    def _from_canonical(cls, ground: GroundSet, family: tuple[Mask, ...]) -> "SetSystem":
        """Build from a duplicate-free, in-range family in canonical order."""
        self = object.__new__(cls)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "family", family)
        self._check_class()
        return self

    def _check_class(self) -> None:
        """Invariants of the concrete class beyond a canonical family."""

    @classmethod
    def from_sets(cls, labels: Iterable[str], sets: Iterable[Iterable[str]]) -> "SetSystem":
        ground = GroundSet(tuple(labels))
        return cls(ground, tuple(ground.mask(s) for s in sets))

    @cached_property
    def members(self) -> frozenset[Mask]:
        return frozenset(self.family)

    def __eq__(self, other):
        if not isinstance(other, SetSystem):
            return NotImplemented
        return self.ground.labels == other.ground.labels and self.family == other.family

    def __hash__(self):
        return hash((self.ground.labels, self.family))

    def __repr__(self):
        sets = " ".join(self.render_set(m) for m in self.family)
        return "<%s %s; %s>" % (type(self).__name__, " ".join(self.ground.labels) or "-", sets)

    def render_set(self, mask: Mask) -> str:
        return "{%s}" % ",".join(self.ground.labels_of(mask))

    # -- element predicates ------------------------------------------------

    def _element_bit(self, e: int) -> Mask:
        if not 0 <= e < self.ground.size:
            raise IndexError("element index %d out of range" % e)
        return 1 << e

    def _check_mask(self, mask: Mask) -> None:
        if mask >> len(self.ground.labels):
            raise ValueError("mask has bits outside the ground set")

    def is_loop(self, e: int) -> bool:
        bit = self._element_bit(e)
        return all(not m & bit for m in self.family)

    def is_coloop(self, e: int) -> bool:
        bit = self._element_bit(e)
        return all(m & bit for m in self.family)

    def parity(self) -> str:
        if not self.family:
            raise ImproperSystemError("parity of an improper system is undefined")
        p = self.family[0].bit_count() & 1
        return EVEN if all(m.bit_count() & 1 == p for m in self.family) else ODD

    # -- twist / dual / loop complementation --------------------------------

    def twist(self, a: Mask) -> "SetSystem":
        """Replace every member F by F XOR a.  Preserves the exchange axiom."""
        self._check_mask(a)
        cls = DeltaMatroid if isinstance(self, DeltaMatroid) else SetSystem
        fam = twist_masks(self.family, a, len(self.ground.labels))
        return cls._from_canonical(self.ground, fam)

    def dual(self) -> "SetSystem":
        return self.twist(self.ground.full_mask)

    def loop_complement(self, a: Mask) -> "SetSystem":
        """Toggle F+e membership element by element over a (see
        loop_complement_masks).

        The result need not satisfy the exchange axiom, so it is returned as a
        plain SetSystem; validate_delta_matroid checks the axiom.
        """
        self._check_mask(a)
        fam = loop_complement_masks(self.family, a, len(self.ground.labels))
        return SetSystem._from_canonical(self.ground, fam)

    # -- minors --------------------------------------------------------------

    def delete(self, e: int) -> "SetSystem":
        return self.minor(delete=self._element_bit(e))

    def contract(self, e: int) -> "SetSystem":
        return self.minor(contract=self._element_bit(e))

    def minor(self, delete: Mask = 0, contract: Mask = 0) -> "SetSystem":
        """Delete and contract the given element sets, highest index first
        (see minor_masks)."""
        self._check_mask(delete)
        self._check_mask(contract)
        if delete & contract:
            raise ValueError("delete and contract sets overlap")
        removed = delete | contract
        labels = tuple(lab for i, lab in enumerate(self.ground.labels) if not removed >> i & 1)
        return type(self)._from_canonical(
            GroundSet(labels), minor_masks(self.family, delete, contract)
        )

    def restrict(self, a: Mask) -> "SetSystem":
        return self.minor(delete=self.ground.full_mask & ~a)


def exchange_violation_masks(family: Sequence[Mask]) -> Optional[tuple[Mask, Mask, int]]:
    """First (X, Y, u) with no admissible v, in the given order, or None.

    u = v is allowed, i.e. X XOR {u} alone already satisfies the triple.
    "First" means the earliest X, then the earliest Y, then the smallest u,
    each in the order of ``family``.

    Column kernel: bit j of ``has[i]`` is set when family[j] contains i.  For
    each X and each u with X XOR {u} not in F, a Y violates the triple iff it
    differs from X at u and agrees with X at every partner v (X XOR {u, v} in
    F), so the violating Ys are one AND of columns or their complements.
    """
    members = set(family)
    full = (1 << len(family)) - 1
    # the largest mask has the highest element
    has = [0] * max(family, default=0).bit_length()
    bit = 1
    for m in family:
        while m:
            low = m & -m
            has[low.bit_length() - 1] |= bit
            m ^= low
        bit <<= 1
    # (element, its bit, members containing it, members lacking it)
    columns = [(i, 1 << i, c, full ^ c) for i, c in enumerate(has) if c]
    for x in family:
        best = 0
        best_u = -1
        for u, ub, has_u, lacks_u in columns:
            xu = x ^ ub
            if xu in members:
                continue
            ys = lacks_u if x & ub else has_u
            for _, vb, has_v, lacks_v in columns:
                if vb != ub and xu ^ vb in members:
                    ys &= has_v if x & vb else lacks_v
                    if not ys:
                        break
            if ys:
                low = ys & -ys
                if best_u < 0 or low < best:
                    best, best_u = low, u
        if best_u >= 0:
            return (x, family[best.bit_length() - 1], best_u)
    return None


@dataclass(frozen=True, eq=False, repr=False)
class DeltaMatroid(SetSystem):
    """A proper set system satisfying the symmetric exchange axiom.

    Construction does not re-run the axiom check; use validate_delta_matroid
    (or DeltaMatroid.from_sets) on untrusted input.
    """

    def _check_class(self) -> None:
        if not self.family:
            raise ImproperSystemError("delta-matroid family may not be empty")

    @classmethod
    def from_sets(cls, labels: Iterable[str], sets: Iterable[Iterable[str]]) -> "DeltaMatroid":
        return validate_delta_matroid(SetSystem.from_sets(labels, sets))


def validate_delta_matroid(system: SetSystem) -> DeltaMatroid:
    """Check the symmetric exchange axiom and return the family as a DeltaMatroid.

    Raises SymmetricExchangeError with the first failing (X, Y, u) triple.
    """
    return certify_delta_matroid(system)[0]


def certify_delta_matroid(
    system: SetSystem,
) -> tuple[DeltaMatroid, Optional[BinaryCertificate]]:
    """validate_delta_matroid, also returning the binarity certificate it
    computed (None above BINARY_MAX_N elements).

    A family whose certificate holds is a twist of some D(A), and every such
    twist is a delta-matroid (Bouchet, "Representability of Δ-matroids",
    1988), so it is not scanned.  Every other family goes through
    exchange_violation_masks, the one source of witnesses.
    """
    # gf2 builds D(A) on this module, so it is looked up at call time
    from .gf2 import BINARY_MAX_N, is_binary

    if not system.family:
        raise ImproperSystemError("a delta-matroid needs a nonempty feasible family")
    cert = is_binary(system) if len(system.ground.labels) <= BINARY_MAX_N else None
    if cert is None or not cert.verdict:
        witness = exchange_violation_masks(system.family)
        if witness is not None:
            raise SymmetricExchangeError(system, *witness)
    return DeltaMatroid._from_canonical(system.ground, system.family), cert
