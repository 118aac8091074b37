import itertools
import random
from typing import Optional

import pytest
from hypothesis import given

from dmx.core import (
    DeltaMatroid,
    Mask,
    family_sort_key,
    indices_of,
    numbered_ground,
)
from dmx.gf2 import (
    BinaryCertificate,
    Gf2Matrix,
    Gf2SymmetricMatrix,
    column_matroid,
    delta_matroid_from_symmetric,
    forced_matrix,
    gf2_rank,
    is_binary,
    nonsingular_code,
)
from dmx.verify import NONBINARY_WITNESS, all_symmetric_matrices, delta_matroids_up_to
from test_core import _random_symmetric, systems_of
from test_properties import deterministic, symmetric_matrices


def _matrices(n):
    """Every symmetric matrix of order n, in the corpus's order."""
    return [Gf2SymmetricMatrix(rows) for rows in all_symmetric_matrices(n)]


def principal_nonsingular(a: Gf2SymmetricMatrix, x: Mask) -> bool:
    """Reference: full rank of the principal submatrix A[x], one elimination
    per subset; A[empty] counts as nonsingular.

    Masking row i by x keeps exactly the entries of A[x] in that row.  The
    masked rows are reduced one at a time against the pivots found so far
    (highest bit first), and A[x] is singular as soon as one of them reduces
    to zero.
    """
    pivots: dict[int, int] = {}
    rest = x
    while rest:
        low = rest & -rest
        rest ^= low
        v = a.rows[low.bit_length() - 1] & x
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


def _reference_code(a: Gf2SymmetricMatrix) -> int:
    return sum(1 << x for x in range(1 << a.order) if principal_nonsingular(a, x))


def _reference_witness(d: DeltaMatroid, twist_set: Mask) -> Optional[Mask]:
    """The first subset in canonical order where D of the reconstructed
    candidate and the normal twist disagree, found one subset at a time."""
    normal = d.twist(twist_set)
    cand = forced_matrix(normal.ground.size, normal.members.__contains__)
    return next(
        (
            x
            for x in sorted(range(1 << d.ground.size), key=family_sort_key)
            if principal_nonsingular(cand, x) != (x in normal.members)
        ),
        None,
    )


def _permute(mask: Mask, perm) -> Mask:
    """Relabel a mask: bit i of the input becomes bit perm[i] of the output."""
    return sum(1 << perm[i] for i in indices_of(mask))


def _zero_diagonal(a: Gf2SymmetricMatrix) -> Gf2SymmetricMatrix:
    return Gf2SymmetricMatrix(tuple(row & ~(1 << i) for i, row in enumerate(a.rows)))


def _exhaustive_search(d: DeltaMatroid) -> Optional[BinaryCertificate]:
    """Reference binarity decision: try every feasible twist and every ground
    relabeling for a strong representation."""
    n = d.ground.size
    if n > 6:
        raise ValueError("exhaustive binarity search is limited to ground size 6")
    for f in d.family:
        normal = d.twist(f)
        for perm in itertools.permutations(range(n)):
            permuted = DeltaMatroid(
                normal.ground, tuple(_permute(m, perm) for m in normal.family)
            )
            # the normal twist holds the empty set, so is_binary twists by {}
            cert = is_binary(permuted)
            if cert.verdict:
                # pull the matrix back through the permutation so that
                # D(matrix) equals the unpermuted normal twist
                rows = tuple(
                    sum(cert.matrix.entry(perm[i], perm[j]) << j for j in range(n))
                    for i in range(n)
                )
                return BinaryCertificate(True, f, Gf2SymmetricMatrix(rows), None)
    return None


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b1, 0b10, 0b11]) == 2
    assert gf2_rank([0b101, 0b110, 0b011]) == 2  # three vectors summing to zero
    assert gf2_rank([0b001, 0b010, 0b100]) == 3


def test_gf2_rank_random_against_definition():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        vecs = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
        # rank = log2 of the span size
        span = {0}
        for v in vecs:
            span |= {s ^ v for s in span}
        assert (1 << gf2_rank(vecs)) == len(span)


def test_symmetric_matrix_validation():
    Gf2SymmetricMatrix((0b01, 0b10))  # identity is fine
    with pytest.raises(ValueError):
        Gf2SymmetricMatrix((0b10, 0b00))  # A[0][1]=1 but A[1][0]=0
    with pytest.raises(ValueError):
        Gf2SymmetricMatrix((0b100,))  # bit beyond order


def test_principal_nonsingular():
    a = Gf2SymmetricMatrix((0b10, 0b01))  # [[0,1],[1,0]]
    assert principal_nonsingular(a, 0)  # empty submatrix
    assert not principal_nonsingular(a, 0b01)  # [0] singular
    assert principal_nonsingular(a, 0b11)


def test_principal_nonsingular_matches_compacted_submatrix():
    """Every subset of all 4x4 matrices and of seeded random ones with
    6 <= n <= 12, half of those with a zero diagonal."""
    rng = random.Random("dmx-principal-nonsingular")
    matrices = _matrices(4)
    for n in range(6, 13):
        for zero_diagonal in (False, True):
            a = _random_symmetric(n, rng)
            matrices.append(_zero_diagonal(a) if zero_diagonal else a)
    singular = 0
    for a in matrices:
        for x in range(1 << a.order):
            idx = indices_of(x)
            sub = [sum(a.entry(i, j) << pos for pos, j in enumerate(idx)) for i in idx]
            want = gf2_rank(sub) == len(idx)
            assert principal_nonsingular(a, x) == want, (a, x)
            singular += not want
    assert singular > 10000


def test_nonsingular_code_matches_reference_on_small_orders():
    """Every matrix of order <= 5; order 5 is the first the memo does not
    hold, so the top step runs for every a_hh and b."""
    for k in range(6):
        for a in _matrices(k):
            assert nonsingular_code(a.rows) == _reference_code(a), a


def test_nonsingular_code_matches_reference_on_random_matrices():
    """Seeded matrices of orders 5..12, with a zero and with a random diagonal:
    a zero diagonal reads every set with the top element off the cofactor
    identity, as the Schur-complement code XOR the code without it."""
    rng = random.Random("dmx-nonsingular-code")
    for n in range(5, 13):
        for _ in range(6):
            a = _random_symmetric(n, rng)
            for b in (a, _zero_diagonal(a)):
                assert nonsingular_code(b.rows) == _reference_code(b), b


@deterministic
@given(symmetric_matrices(max_n=10))
def test_nonsingular_code_property(a):
    assert nonsingular_code(a.rows) == _reference_code(a)


def test_delta_matroid_from_symmetric_at_order_limit():
    a = _random_symmetric(16, random.Random("dmx-order-16"))
    want = sorted(
        (x for x in range(1 << 16) if principal_nonsingular(a, x)), key=family_sort_key
    )
    assert delta_matroid_from_symmetric(a).family == tuple(want)
    with pytest.raises(ValueError):
        delta_matroid_from_symmetric(Gf2SymmetricMatrix((0,) * 17))


def test_delta_matroid_from_symmetric():
    a = Gf2SymmetricMatrix((0b10, 0b01))
    d = delta_matroid_from_symmetric(a)
    assert d.family == (0b00, 0b11)
    ident = Gf2SymmetricMatrix((0b01, 0b10))  # [[1,0],[0,1]]
    assert delta_matroid_from_symmetric(ident).family == (0b00, 0b01, 0b10, 0b11)


def test_column_matroid():
    # columns: e1, e2, e1+e2
    b = Gf2Matrix((0b101, 0b110), 3)
    m = column_matroid(b)
    assert m.rank == 2
    assert m.bases == (0b011, 0b101, 0b110)
    # zero matrix gives the rank-0 matroid
    z = column_matroid(Gf2Matrix((0,), 2))
    assert z.bases == (0,)


def test_forced_matrix_reads_a_off_the_small_sets():
    """forced_matrix recovers every A of order <= 3 from D(A), testing each
    set of size <= 2 once, and refuses a test with the empty set infeasible."""
    for n in range(4):
        for a in _matrices(n):
            members = delta_matroid_from_symmetric(a).members
            asked = []

            def feasible(x):
                asked.append(x)
                return x in members

            assert forced_matrix(n, feasible) == a
            assert sorted(asked) == [x for x in range(1 << n) if x.bit_count() <= 2]
    with pytest.raises(ValueError, match="empty set feasible"):
        forced_matrix(1, DeltaMatroid(numbered_ground(1), (0b1,)).members.__contains__)


def test_is_binary_positive_with_certificate():
    d = DeltaMatroid.from_sets("12", [(), "12"])
    cert = is_binary(d)
    assert cert.verdict
    assert cert.matrix == Gf2SymmetricMatrix((0b10, 0b01))
    assert cert.twist_set == 0
    # certificate soundness: D(matrix) twisted by twist_set equals d
    rep = delta_matroid_from_symmetric(cert.matrix, d.ground).twist(cert.twist_set)
    assert rep == d


def test_d_of_a_is_its_own_certificate():
    """D(A) holds the empty set, so is_binary twists by nothing and forces A
    back: the certificate dmx classify builds for a .gf2 file without the
    search, on every matrix of order <= 4 and on seeded ones of order 5..12."""
    rng = random.Random("dmx-own-certificate")
    small = [a for k in range(5) for a in _matrices(k)]
    assert len(small) == 1099
    seeded = [_random_symmetric(rng.randint(5, 12), rng) for _ in range(200)]
    for a in small + seeded:
        assert is_binary(delta_matroid_from_symmetric(a)) == BinaryCertificate(True, 0, a, None)


def test_is_binary_negative_witness():
    d = DeltaMatroid.from_sets("123", [(), "12", "23", "13", "123"])
    cert = is_binary(d)
    assert not cert.verdict
    assert cert.matrix is None
    assert cert.failure_witness is not None
    assert _exhaustive_search(d) is None


def test_is_binary_nonnormal_twist():
    # a binary instance whose family lacks the empty set
    base = delta_matroid_from_symmetric(Gf2SymmetricMatrix((0b01, 0b10)))
    d = base.twist(0b10)
    cert = is_binary(d)
    assert cert.verdict
    rep = delta_matroid_from_symmetric(cert.matrix, d.ground).twist(cert.twist_set)
    assert rep == d


def test_every_symmetric_matrix_yields_delta_matroid():
    from dmx.core import exchange_violation_masks

    for a in _matrices(3):
        d = delta_matroid_from_symmetric(a)
        assert exchange_violation_masks(d.family) is None
        assert 0 in d.members


def test_shortcut_matches_exhaustive_search():
    for d in systems_of(delta_matroids_up_to(3)):
        assert is_binary(d).verdict == (_exhaustive_search(d) is not None)


def test_failure_witness_is_first_mismatch_in_reference_order():
    for d in systems_of(delta_matroids_up_to(4)):
        cert = is_binary(d)
        expected = _reference_witness(d, cert.twist_set)
        assert cert.failure_witness == expected, d
        assert cert.verdict == (expected is None)


def test_failure_witness_on_large_nonbinary_sums():
    """D(A) plus one or two copies of the 3-element non-binary witness on
    n = 8..11 elements, spread over the ground by a permutation and twisted.
    With two copies the mismatches have two minimal sets, and the first in
    canonical order is not always the smaller mask."""
    rng = random.Random("dmx-nonbinary-sums")
    not_smallest = 0
    for n in range(8, 12):
        for copies in (1, 2, 2, 2):
            m = n - 3 * copies
            fam = delta_matroid_from_symmetric(_random_symmetric(m, rng)).family
            for c in range(copies):
                shift = m + 3 * c
                fam = tuple(f | w << shift for f in fam for w in NONBINARY_WITNESS.family)
            perm = list(range(n))
            rng.shuffle(perm)
            fam = tuple(_permute(f, perm) for f in fam)
            d = DeltaMatroid(numbered_ground(n), fam).twist(rng.randrange(1 << n))
            cert = is_binary(d)
            assert not cert.verdict
            assert cert.failure_witness == _reference_witness(d, cert.twist_set)
            normal = d.twist(cert.twist_set)
            cand = forced_matrix(normal.ground.size, normal.members.__contains__)
            smallest = next(
                x
                for x in range(1 << n)
                if principal_nonsingular(cand, x) != (x in normal.members)
            )
            not_smallest += cert.failure_witness != smallest
    assert not_smallest >= 3
