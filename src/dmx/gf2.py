"""GF(2) linear algebra: delta-matroids of symmetric binary matrices, binary
vector matroids, and the binary-representability decision."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    DeltaMatroid,
    GroundSet,
    Mask,
    canonical_masks,
    indices_of,
    numbered_ground,
)
from .matroid import Matroid

# Largest ground size the binary-representability decision accepts.
BINARY_MAX_N = 12


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank of bit-vectors over GF(2); elimination pivots on the highest bit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h in pivots:
                v ^= pivots[h]
            else:
                pivots[h] = v
                break
    return len(pivots)


@dataclass(frozen=True)
class Gf2SymmetricMatrix:
    """Square symmetric matrix over GF(2); row i stored as a column bitmask."""

    rows: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if row >> n:
                raise ValueError("row has bits beyond the matrix order")
        for i in range(n):
            for j in range(i):
                if (self.rows[i] >> j) & 1 != (self.rows[j] >> i) & 1:
                    raise ValueError("matrix is not symmetric at (%d, %d)" % (i, j))

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def principal_nonsingular(self, x: Mask) -> bool:
        """Full rank of the principal submatrix A[x]; A[empty] counts as nonsingular.

        Masking row i by x keeps exactly the entries of A[x] in that row.  The
        masked rows are reduced one at a time against the pivots found so
        far (highest bit first), and A[x] is singular as soon as one of them
        reduces to zero.
        """
        rows = self.rows
        pivots: dict[int, int] = {}
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            v = rows[low.bit_length() - 1] & x
            while v:
                h = v.bit_length() - 1
                p = pivots.get(h)
                if p is None:
                    pivots[h] = v
                    break
                v ^= p
            else:
                return False
        return True


def delta_matroid_from_symmetric(
    a: Gf2SymmetricMatrix, ground: Optional[GroundSet] = None
) -> DeltaMatroid:
    """D(A): feasible sets are the X with A[X] nonsingular; always contains the empty set."""
    n = a.order
    if n > 16:
        raise ValueError("D(A) construction is limited to order 16")
    g = ground if ground is not None else numbered_ground(n)
    if g.size != n:
        raise ValueError("ground size does not match matrix order")
    fam = tuple(x for x in range(1 << n) if a.principal_nonsingular(x))
    return DeltaMatroid(g, fam)


@dataclass(frozen=True)
class Gf2Matrix:
    """Rectangular matrix over GF(2); row i stored as a column bitmask."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        for row in self.rows:
            if row >> self.cols:
                raise ValueError("row has bits beyond the column count")

    def column(self, j: int) -> int:
        return sum(((row >> j) & 1) << i for i, row in enumerate(self.rows))


def column_matroid(b: Gf2Matrix, ground: Optional[GroundSet] = None) -> Matroid:
    """Vector matroid of the columns: independence is linear independence."""
    n = b.cols
    if n > 16:
        raise ValueError("column matroid construction is limited to 16 columns")
    g = ground if ground is not None else numbered_ground(n)
    if g.size != n:
        raise ValueError("ground size does not match column count")
    cols = [b.column(j) for j in range(n)]
    r = gf2_rank(cols)
    bases = tuple(
        x
        for x in range(1 << n)
        if x.bit_count() == r and gf2_rank([cols[j] for j in indices_of(x)]) == r
    )
    return Matroid(g, bases)


def reconstruct_candidate(normal: DeltaMatroid) -> Gf2SymmetricMatrix:
    """The unique symmetric matrix consistent with a normal delta-matroid on
    all subsets of size <= 2: the diagonal is forced by the singletons, the
    off-diagonal by the pairs (A_vw = [{v,w} feasible] XOR A_vv*A_ww)."""
    mem = normal.members
    if 0 not in mem:
        raise ValueError("reconstruction needs the empty set feasible")
    n = normal.ground.size
    diag = [1 if (1 << i) in mem else 0 for i in range(n)]
    rows = []
    for i in range(n):
        row = diag[i] << i
        for j in range(n):
            if j == i:
                continue
            pair = (1 << i) | (1 << j)
            bit = (1 if pair in mem else 0) ^ (diag[i] & diag[j])
            row |= bit << j
        rows.append(row)
    return Gf2SymmetricMatrix(tuple(rows))


@dataclass(frozen=True)
class BinaryCertificate:
    """Outcome of the binary-representability decision.

    When the verdict is true, matrix is present and D(matrix) equals the
    twist of the input by twist_set on every subset; otherwise
    failure_witness is a subset where the candidate and the normalized
    delta-matroid disagree.
    """

    verdict: bool
    twist_set: Mask
    matrix: Optional[Gf2SymmetricMatrix]
    failure_witness: Optional[Mask]


def _representation_mismatch(
    normal: DeltaMatroid,
) -> tuple[Gf2SymmetricMatrix, Optional[Mask]]:
    cand = reconstruct_candidate(normal)
    mem = normal.members
    n = normal.ground.size
    for x in canonical_masks(n):
        if cand.principal_nonsingular(x) != (x in mem):
            return cand, x
    return cand, None


def is_binary(d: DeltaMatroid) -> BinaryCertificate:
    """Decide whether some twist of d is isomorphic to D(A) for symmetric A.

    Twisting by the canonical minimum feasible set suffices: if any twist of
    d is isomorphic to some D(A), then every normal twist of d carries a
    strong representation (representability transfers between normal twists),
    and the representing matrix of a normal delta-matroid is forced by its
    size-<=2 feasible sets.  The tests cross-validate this shortcut against
    a reference search over all feasible twists and all ground relabelings.
    """
    if d.ground.size > BINARY_MAX_N:
        raise ValueError("binarity test is limited to ground size %d" % BINARY_MAX_N)
    f0 = d.family[0]
    normal = d.twist(f0)
    cand, bad = _representation_mismatch(normal)
    if bad is None:
        return BinaryCertificate(True, f0, cand, None)
    return BinaryCertificate(False, f0, None, bad)
