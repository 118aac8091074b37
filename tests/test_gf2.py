import itertools
import random
from typing import Optional

import pytest

from dmx.core import DeltaMatroid, apply_permutation, family_sort_key, numbered_ground
from dmx.gf2 import (
    BinaryCertificate,
    Gf2Matrix,
    Gf2SymmetricMatrix,
    _representation_mismatch,
    column_matroid,
    delta_matroid_from_symmetric,
    gf2_rank,
    is_binary,
    reconstruct_candidate,
)


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
                normal.ground, tuple(apply_permutation(m, perm) for m in normal.family)
            )
            cand, bad = _representation_mismatch(permuted)
            if bad is None:
                # pull the matrix back through the permutation so that
                # D(matrix) equals the unpermuted normal twist
                rows = tuple(
                    sum(cand.entry(perm[i], perm[j]) << j for j in range(n))
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
    assert a.principal_nonsingular(0)  # empty submatrix
    assert not a.principal_nonsingular(0b01)  # [0] singular
    assert a.principal_nonsingular(0b11)


def test_principal_nonsingular_matches_compacted_submatrix():
    """Every subset of all 4x4 matrices and of seeded random ones with
    6 <= n <= 12, half of those with a zero diagonal."""
    from dmx.core import indices_of
    from dmx.verify import all_symmetric_matrices
    from test_core import _random_symmetric

    rng = random.Random("dmx-principal-nonsingular")
    matrices = list(all_symmetric_matrices(4))
    for n in range(6, 13):
        for zero_diagonal in (False, True):
            a = _random_symmetric(n, rng)
            if zero_diagonal:
                a = Gf2SymmetricMatrix(tuple(row & ~(1 << i) for i, row in enumerate(a.rows)))
            matrices.append(a)
    singular = 0
    for a in matrices:
        for x in range(1 << a.order):
            idx = indices_of(x)
            sub = [sum(a.entry(i, j) << pos for pos, j in enumerate(idx)) for i in idx]
            want = gf2_rank(sub) == len(idx)
            assert a.principal_nonsingular(x) == want, (a, x)
            singular += not want
    assert singular > 10000


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


def test_reconstruct_candidate_is_forced():
    a = Gf2SymmetricMatrix((0b11, 0b11))
    d = delta_matroid_from_symmetric(a)
    assert reconstruct_candidate(d) == a
    with pytest.raises(ValueError):
        reconstruct_candidate(DeltaMatroid(numbered_ground(1), (0b1,)))


def test_is_binary_positive_with_certificate():
    d = DeltaMatroid.from_sets("12", [(), "12"])
    cert = is_binary(d)
    assert cert.verdict
    assert cert.matrix == Gf2SymmetricMatrix((0b10, 0b01))
    assert cert.twist_set == 0
    # certificate soundness: D(matrix) twisted by twist_set equals d
    rep = delta_matroid_from_symmetric(cert.matrix, d.ground).twist(cert.twist_set)
    assert rep == d


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
    from dmx.verify import all_symmetric_matrices

    for a in all_symmetric_matrices(3):
        d = delta_matroid_from_symmetric(a)
        assert exchange_violation_masks(d.family) is None
        assert 0 in d.members


def test_shortcut_matches_exhaustive_search():
    from dmx.verify import delta_matroids_up_to

    for d in delta_matroids_up_to(3):
        assert is_binary(d).verdict == (_exhaustive_search(d) is not None)


def test_failure_witness_is_first_mismatch_in_reference_order():
    from dmx.verify import delta_matroids_up_to

    for d in delta_matroids_up_to(4):
        cert = is_binary(d)
        normal = d.twist(cert.twist_set)
        cand = reconstruct_candidate(normal)
        n = d.ground.size
        expected = next(
            (
                x
                for x in sorted(range(1 << n), key=family_sort_key)
                if cand.principal_nonsingular(x) != (x in normal.members)
            ),
            None,
        )
        assert cert.failure_witness == expected, d
        assert cert.verdict == (expected is None)
