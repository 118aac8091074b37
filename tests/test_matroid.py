import itertools
import random

import pytest

from dmx.core import (
    DeltaMatroid,
    ImproperSystemError,
    SetSystem,
    canonical_masks,
    certify_delta_matroid,
    closure_code,
    code_masks,
    iter_bits,
    mask_of,
    numbered_ground,
    twist_code,
    twist_codes,
    twist_masks,
)
from dmx.gf2 import Gf2Matrix, column_matroid, is_binary
from dmx.matroid import (
    ClassificationReport,
    Matroid,
    MatroidError,
    _classification,
    certify_matroid,
    classify_code,
    classify_delta,
    classify_family,
    classify_matroid,
    classify_twists,
    is_bipartite_delta,
    is_eulerian_delta,
    lower_bases,
    lower_code,
    lower_matroid,
    upper_bases,
    upper_code,
    upper_matroid,
)
from dmx.verify import corpus, random_delta_matroids
from test_core import systems_of


def matroid(labels, bases):
    return Matroid.from_bases(SetSystem.from_sets(labels, bases))


def uniform(n, r):
    g = numbered_ground(n)
    bases = tuple(
        sum(1 << i for i in combo) for combo in itertools.combinations(range(n), r)
    )
    return Matroid(g, bases)


def test_from_bases_validation():
    m = matroid("123", ["12", "13"])
    assert m.rank == 2
    assert m.bases == (0b011, 0b101)
    with pytest.raises(MatroidError, match=r"bases \{1\} and \{1,2\} differ in cardinality"):
        matroid("12", ["1", "12"])
    # direct construction checks the cardinalities too, with the same message
    with pytest.raises(MatroidError, match=r"bases \{1\} and \{1,2\} differ in cardinality"):
        Matroid(numbered_ground(2), (0b01, 0b11))
    with pytest.raises(MatroidError):
        # {1,2} and {3,4} fail base exchange
        matroid("1234", ["12", "34"])


def test_independent_sets_and_count():
    m = uniform(3, 2)
    independent = closure_code(mask_of(m.bases), 3, up=False)
    assert independent.bit_count() == 7  # everything except {1,2,3}
    assert independent & 1
    assert not independent >> 0b111 & 1


def test_circuits_canonical_order():
    m = uniform(4, 2)
    assert m.circuits == (0b0111, 0b1011, 0b1101, 0b1110)
    # rank-0 matroid: every singleton is a circuit
    z = Matroid(numbered_ground(2), (0,))
    assert z.circuits == (0b01, 0b10)
    # free matroid has no circuits
    assert uniform(3, 3).circuits == ()


def test_dual_and_cocircuits():
    m = uniform(4, 1)
    d = m.dual()
    assert d.rank == 3
    assert d.dual() == m
    # the cocircuits of U(1,4) are the circuits of its dual U(3,4)
    assert m.dual().circuits == (0b1111,)
    # matroid dual agrees with the twist by the full ground set
    assert set(d.family) == {0b1111 ^ b for b in m.bases}


def test_bipartite():
    assert uniform(4, 2).is_bipartite() is False  # 3-element circuits
    even = matroid("1234", ["12", "13", "14", "23", "24", "34"])
    assert even.circuits == (0b0111, 0b1011, 0b1101, 0b1110)
    assert not even.is_bipartite()
    cycle4 = matroid("1234", ["123", "124", "134", "234"])
    assert cycle4.circuits == (0b1111,)
    assert cycle4.is_bipartite()
    assert uniform(3, 3).is_bipartite()  # vacuous


def test_eulerian_partition():
    # U(2,0): {1},{2} partitions the ground set
    z = Matroid(numbered_ground(2), (0,))
    assert z.eulerian_partition() == (0b01, 0b10)
    assert z.is_eulerian()
    # free matroid on nonempty ground: no circuits, not Eulerian
    assert uniform(2, 2).eulerian_partition() is None
    # empty ground set: empty partition counts
    e = Matroid(numbered_ground(0), (0,))
    assert e.eulerian_partition() == ()
    assert e.is_eulerian()
    # U(4,2): circuits are the four triples, none partition {1,2,3,4}
    assert not uniform(4, 2).is_eulerian()
    # one 4-cycle: the single circuit covers everything
    cycle4 = matroid("1234", ["123", "124", "134", "234"])
    assert cycle4.eulerian_partition() == (0b1111,)


def test_classify_matroid():
    rep = classify_matroid(uniform(3, 2))  # single circuit {1,2,3}, odd
    assert not rep.bipartite and rep.odd_circuit_witness == 0b111
    rep2 = classify_matroid(matroid("1234", ["123", "124", "134", "234"]))
    assert rep2.bipartite and rep2.eulerian
    assert rep2.eulerian_partition == (0b1111,)
    assert rep2.odd_circuit_witness is None


def test_lower_upper_matroid():
    d = DeltaMatroid.from_sets("123", [(), "12", "23", "13", "123"])
    low = lower_matroid(d)
    assert low.bases == (0,)
    high = upper_matroid(d)
    assert high.bases == (0b111,)
    assert isinstance(low, Matroid) and isinstance(high, Matroid)


def test_lower_upper_matroid_match_full_constructor():
    """Both slices are built as already canonical; the full constructor
    re-sorts and re-checks them."""
    from dmx.verify import delta_matroids_exact

    for n in range(5):
        for d in systems_of((n, code) for code in delta_matroids_exact(n)):
            sizes = [m.bit_count() for m in d.family]
            for got, size in ((lower_matroid(d), min(sizes)), (upper_matroid(d), max(sizes))):
                want = Matroid(d.ground, tuple(m for m in d.family if m.bit_count() == size))
                assert got == want and type(got) is type(want), d
                assert got.family == want.family, d


def test_delta_classification_uses_lower_matroid():
    d = DeltaMatroid.from_sets("12", [(), "12"])
    rep = classify_delta(d)
    assert not rep.bipartite
    assert rep.odd_circuit_witness == 0b01
    assert rep.eulerian
    assert rep.eulerian_partition == (0b01, 0b10)
    assert is_eulerian_delta(d) and not is_bipartite_delta(d)


def test_matroid_minors_stay_matroids():
    m = uniform(4, 2)
    assert isinstance(m.delete(0), Matroid)
    assert isinstance(m.contract(3), Matroid)
    assert m.minor(delete=0b0011).rank == 2
    assert m.minor(contract=0b0011).rank == 0


# -- differential tests: the classification cache against a brute-force
# powerset-scan reference ----------------------------------------------------


def reference_circuits(n, bases):
    """Subsets in increasing cardinality, skipping independent sets and
    supersets of circuits already found."""
    ind = {s for b in bases for s in range(1 << n) if not s & ~b}
    found = []
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            m = sum(1 << i for i in combo)
            if m in ind or any(c & m == c for c in found):
                continue
            found.append(m)
    return tuple(found)


def reference_odd_circuit(circuits):
    return next((c for c in circuits if c.bit_count() & 1), None)


def reference_exact_cover(target, circuits):
    """Exact cover of the target set by disjoint circuits, backtracking on the
    lowest uncovered element with the circuits in the given order."""

    def bt(uncovered, acc):
        if not uncovered:
            return tuple(acc)
        low = uncovered & -uncovered
        for c in circuits:
            if c & low and not c & ~uncovered:
                got = bt(uncovered ^ c, acc + [c])
                if got is not None:
                    return got
        return None

    return bt(target, [])


def reference_eulerian_partition(n, circuits):
    return reference_exact_cover((1 << n) - 1, circuits)


def classification_corpus():
    yield from systems_of(corpus("binary_matroids", 5), Matroid)
    for d in systems_of(corpus("delta", 4)):
        yield lower_matroid(d)


def test_cached_classification_matches_reference():
    for m in classification_corpus():
        n = m.ground.size
        circ = reference_circuits(n, m.bases)
        odd = reference_odd_circuit(circ)
        partition = reference_eulerian_partition(n, circ)
        assert m.circuits == circ, m
        assert m.odd_circuit() == odd, m
        assert m.eulerian_partition() == partition, m
        assert m.is_bipartite() == (odd is None)
        assert m.is_eulerian() == (partition is not None)
        rep = classify_matroid(m)
        assert (rep.odd_circuit_witness, rep.eulerian_partition) == (odd, partition)


def reference_scan_circuits(n, bases):
    """One scan of the subsets in canonical order: a dependent set is a
    circuit iff removing any one element leaves it independent."""
    ind = {s for b in code_masks(bases, n) for s in range(1 << n) if not s & ~b}
    return tuple(
        m
        for m in canonical_masks(n)
        if m not in ind and all(m ^ low in ind for low in iter_bits(m))
    )


def reference_record(n, bases):
    """The whole ClassificationReport by definition: the restriction codes
    hold the A that contain an odd circuit and the A that are an exact
    cover by circuits."""
    circ = reference_scan_circuits(n, bases)
    odd = reference_odd_circuit(circ)
    partition = reference_eulerian_partition(n, circ)
    odd_circuits = [c for c in circ if c.bit_count() & 1]
    return ClassificationReport(
        circ,
        odd is None,
        partition is not None,
        partition,
        odd,
        mask_of(a for a in range(1 << n) if any(not c & ~a for c in odd_circuits)),
        mask_of(a for a in range(1 << n) if reference_exact_cover(a, circ) is not None),
    )


def one_line(n):
    """The rank-3 paving matroid on n elements whose only 3-element circuit
    is the line {1,2,3}; its other circuits are the 4-sets without it."""
    m = uniform(n, 3)
    return Matroid(m.ground, tuple(b for b in m.bases if b != 0b111))


def _record_keys():
    """(n, base code) of every matroid on <= 3 elements, of every key the
    corpora reach (binary matroids on <= 6 elements, lower matroids of
    DM(<= 4)), and of seeded column and uniform matroids on 7-12 elements."""
    small = [
        d for d in systems_of(corpus("delta", 3)) if len({m.bit_count() for m in d.family}) == 1
    ]
    corpora = systems_of(corpus("binary_matroids", 6), Matroid) + [
        lower_matroid(d) for d in systems_of(corpus("delta", 4))
    ]
    rng = random.Random("dmx-classification-record")
    large = []
    for n in range(7, 13):
        for _ in range(3):
            rows = tuple(rng.randrange(1 << n) for _ in range(rng.randint(2, n // 2 + 1)))
            large.append(column_matroid(Gf2Matrix(rows, n)))
        # non-binary; the rank keeps the circuits to at most 66
        large.append(uniform(n, 2 if n <= 8 else n - 3))
    large += [one_line(7), one_line(8)]
    keys = dict.fromkeys((m.ground.size, mask_of(m.family)) for m in small + corpora + large)
    return list(keys), len(small)


def test_classification_record_matches_reference_on_every_field():
    keys, small = _record_keys()
    # labelled matroids on 0, 1, 2 and 3 elements: 1 + 2 + 5 + 16
    assert small == 24
    records = []
    for n, bases in keys:
        rec = _classification(n, bases)
        assert rec == reference_record(n, bases), (n, bin(bases))
        records.append(rec)
    assert any(r.eulerian_partition for r in records)
    # the lookahead matters: on one_line(8) the first circuit through the
    # first element, the line, leaves five elements that no circuits cover
    assert any(
        r.eulerian_partition and r.eulerian_partition[0] != next(c for c in r.circuits if c & 1)
        for r in records
    )
    assert not all(r.eulerian for r in records)
    assert not all(r.bipartite for r in records)
    large = [r for (n, _), r in zip(keys, records) if n > 6]
    assert any(r.eulerian_partition for r in large)
    assert not all(r.bipartite for r in large)


def test_delta_classification_matches_lower_matroid():
    for d in systems_of(corpus("delta", 4)):
        low = lower_matroid(d)
        assert is_bipartite_delta(d) == low.is_bipartite(), d
        assert is_eulerian_delta(d) == low.is_eulerian(), d
        assert classify_delta(d) == classify_matroid(low), d


def test_classification_ignores_labels():
    a = matroid("123", ["12", "13"])
    b = matroid("xyz", ["xy", "xz"])
    assert a.circuits == b.circuits == (0b110,)
    assert classify_matroid(a) == classify_matroid(b)


def _assert_code_kernels_match_masks(n, family, classify=False):
    """twist_codes and the layer reads of the lower and upper matroids
    against twist_masks, lower_bases and upper_bases, for every twist of a
    canonical family."""
    codes = twist_codes(mask_of(family), n)
    assert len(codes) == 1 << n
    for e in range(n):
        assert twist_code(codes[0], e, n) == codes[1 << e]
    for a, code in enumerate(codes):
        twisted = twist_masks(family, a, n)
        assert code_masks(code, n) == twisted
        assert code_masks(lower_code(code, n), n) == lower_bases(twisted)
        assert code_masks(upper_code(code, n), n) == upper_bases(twisted)
        if classify:
            assert classify_code(n, code) == classify_family(n, twisted)


@pytest.mark.parametrize("n", range(4))
def test_code_kernels_match_masks_on_every_small_family(n):
    for code in range(1, 1 << (1 << n)):
        _assert_code_kernels_match_masks(n, code_masks(code, n))


def test_code_kernels_match_masks_on_exhaustive_delta_matroids():
    for n, code in corpus("delta", 4):
        _assert_code_kernels_match_masks(n, code_masks(code, n), classify=True)


def test_code_kernels_match_masks_on_random_delta_matroids():
    for d in random_delta_matroids(8, 17, 30):
        _assert_code_kernels_match_masks(8, d.family)


def test_twist_tables_match_classified_twists():
    """classify_twists(n, code)[a] against the classification of the twisted
    family, for every a, on DM(<= 3) and every binary matroid on <= 5
    elements."""
    for n, code in corpus("delta", 3) + corpus("binary_matroids", 5):
        family = code_masks(code, n)
        table = classify_twists(n, code)
        assert table == tuple(classify_family(n, twist_masks(family, a, n)) for a in range(1 << n))


def test_lower_code_of_empty_code_is_an_error():
    with pytest.raises(ValueError, match="empty family"):
        lower_code(0, 3)


def test_upper_code_of_empty_code_is_an_error():
    with pytest.raises(ImproperSystemError, match="empty family"):
        upper_code(0, 3)


@pytest.mark.parametrize(
    "fn",
    [
        is_binary,
        lower_matroid,
        upper_matroid,
        classify_delta,
        classify_matroid,
        is_bipartite_delta,
        is_eulerian_delta,
    ],
)
def test_object_level_functions_reject_an_empty_family(fn):
    with pytest.raises(ImproperSystemError, match="empty family"):
        fn(SetSystem(numbered_ground(2), ()))


def test_certify_matroid_returns_the_delta_matroid_certificate():
    for m in systems_of(corpus("binary_matroids", 3), Matroid):
        got, cert = certify_matroid(m)
        assert type(got) is Matroid and got == m
        assert cert == certify_delta_matroid(m)[1]
    # a rank-1 matroid on 13 elements is past the certificate's limit
    m, cert = certify_matroid(SetSystem(numbered_ground(13), tuple(1 << i for i in range(13))))
    assert m.rank == 1 and cert is None
