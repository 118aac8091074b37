"""GF(2) linear algebra: delta-matroids of symmetric binary matrices, binary
vector matroids, and the binary-representability decision."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .core import (
    RANK_TABLE_MAX_N,
    DeltaMatroid,
    GroundSet,
    ImproperSystemError,
    Mask,
    SetSystem,
    code_masks,
    indices_of,
    mask_of,
    numbered_ground,
    twist_code,
)
from .matroid import Matroid

# Largest ground size the binary-representability decision accepts.  It is
# core's rank-table bound, so that one value sets both.
BINARY_MAX_N = RANK_TABLE_MAX_N

# Largest order D(A) is built for: its code has 2^16 bits.  A ribbon graph's
# delta-matroid is such a D(A) twisted, so this is its edge limit too.
D_OF_A_MAX_ORDER = 16


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


# Orders whose codes nonsingular_code keeps once computed: there are 1,099
# symmetric matrices of order <= 4, and every recursion ends in one of them.
_MEMO_ORDER = 4
_small_codes: dict[tuple[int, ...], int] = {}


def nonsingular_code(rows: tuple[int, ...]) -> int:
    """The 2^n-bit indicator of D(A): bit x is set iff A[x] is nonsingular,
    for the symmetric matrix A with these rows (A[empty] is nonsingular).

    One recursion on the highest element h, with b its column below h.  The
    sets without h are D(A[V-h]).  If a_hh = 1, A[x+h] is nonsingular iff the
    Schur complement (A + b b^T)[x] is.  If a_hh = 0 and b has a lowest
    element k, the principal pivot on {h, k} gives D(A*{h,k}) = D(A) XOR
    {h, k} (Tucker 1960; Bouchet, "Representability of delta-matroids",
    1988), so x+h is feasible iff x XOR {k} is in D((A*{h,k})[V-h]).  If
    a_hh = 0 and b = 0, no feasible set holds h.
    """
    n = len(rows)
    if n <= _MEMO_ORDER:
        code = _small_codes.get(rows)
        if code is not None:
            return code
    if not n:
        return 1
    h = n - 1
    low = (1 << h) - 1
    top = rows[h]
    b = top & low
    sub = tuple(r & low for r in rows[:h])
    code = nonsingular_code(sub)
    if top >> h & 1:
        with_h = nonsingular_code(tuple(r ^ b if b >> i & 1 else r for i, r in enumerate(sub)))
    elif b:
        # A*{h,k} on V-h, with R = V-{h,k}, u = row k on R, w = b on R: row
        # i of R is r_i + u_i w + w_i u + a_kk w_i w with w_i in column k,
        # and row k is w with a zero diagonal
        kb = b & -b
        k = kb.bit_length() - 1
        w = b ^ kb
        u = sub[k] & ~kb
        uw = (u ^ w if sub[k] & kb else u) | kb
        pivoted = []
        for i, r in enumerate(sub):
            if i == k:
                pivoted.append(w)
                continue
            r &= ~kb
            if u >> i & 1:
                r ^= w
            if w >> i & 1:
                r ^= uw
            pivoted.append(r)
        c = nonsingular_code(tuple(pivoted))
        # the sets with h are the sets y XOR {k} for y in that code
        with_h = twist_code(c, k, h)
    else:
        with_h = 0
    code |= with_h << (1 << h)
    if n <= _MEMO_ORDER:
        _small_codes[rows] = code
    return code


def delta_matroid_from_symmetric(
    a: Gf2SymmetricMatrix, ground: Optional[GroundSet] = None
) -> DeltaMatroid:
    """D(A): feasible sets are the X with A[X] nonsingular; always contains the
    empty set.  The family is read off nonsingular_code in canonical order."""
    n = a.order
    if n > D_OF_A_MAX_ORDER:
        raise ValueError("D(A) construction is limited to order %d" % D_OF_A_MAX_ORDER)
    g = ground if ground is not None else numbered_ground(n)
    if g.size != n:
        raise ValueError("ground size does not match matrix order")
    return DeltaMatroid._from_canonical(g, code_masks(nonsingular_code(tuple(a.rows)), n))


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


def forced_matrix(n: int, feasible: Callable[[Mask], bool]) -> Gf2SymmetricMatrix:
    """The unique symmetric matrix A of order n with D(A) agreeing with the
    membership test `feasible` on every subset of size <= 2: the diagonal is
    forced by the singletons, the off-diagonal by the pairs (A_vw =
    [{v,w} feasible] XOR A_vv*A_ww).  Each set is tested once."""
    if not feasible(0):
        raise ValueError("reconstruction needs the empty set feasible")
    diag = [feasible(1 << i) for i in range(n)]
    rows = [d << i for i, d in enumerate(diag)]
    for i in range(n):
        for j in range(i):
            if feasible((1 << i) | (1 << j)) != (diag[i] and diag[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
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


def is_binary(d: SetSystem) -> BinaryCertificate:
    """Decide whether some twist of the nonempty family d is isomorphic to
    D(A) for symmetric A; when it is, d is a delta-matroid.

    Twisting by the canonical minimum feasible set f0 suffices: if any twist
    of d is isomorphic to some D(A), then every normal twist of d carries a
    strong representation (representability transfers between normal
    twists), and the representing matrix of a normal delta-matroid is forced
    by its size-<=2 feasible sets.  The tests cross-validate this shortcut
    against a reference search over all feasible twists and all ground
    relabelings.

    Everything is read off the family's indicator code: it is twisted by f0
    one element at a time, A is forced by its bits, and d is binary iff the
    code of D(A) equals the twisted code.
    """
    if not d.family:
        raise ImproperSystemError("binarity of an empty family is undefined")
    n = d.ground.size
    if n > BINARY_MAX_N:
        raise ValueError("binarity test is limited to ground size %d" % BINARY_MAX_N)
    f0 = d.family[0]
    code = mask_of(d.family)
    for e in indices_of(f0):
        code = twist_code(code, e, n)
    cand = forced_matrix(n, lambda x: code >> x & 1)
    diff = nonsingular_code(cand.rows) ^ code
    if not diff:
        return BinaryCertificate(True, f0, cand, None)
    # the first differing subset in canonical order
    return BinaryCertificate(False, f0, None, code_masks(diff, n)[0])
