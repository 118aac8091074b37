import logging
import random

import pytest

from dmx import core, gf2, verify
from dmx.core import (
    RANK_TABLE_MAX_N,
    DeltaMatroid,
    GroundSet,
    ImproperSystemError,
    SetSystem,
    SymmetricExchangeError,
    canonical_masks,
    canonical_table,
    code_masks,
    exchange_violation_masks,
    family_sort_key,
    indices_of,
    layer_codes,
    loop_complement_masks,
    mask_of,
    minor_masks,
    numbered_ground,
    validate_delta_matroid,
)
from dmx.gf2 import (
    BinaryCertificate,
    Gf2SymmetricMatrix,
    delta_matroid_from_symmetric,
    forced_matrix,
    nonsingular_code,
)
from dmx.matroid import Matroid, lower_matroid


def dm(labels, sets):
    return DeltaMatroid.from_sets(labels, sets)


def system_of(n, code, cls=DeltaMatroid):
    """The object of a corpus instance (n, code): the family with this code
    on numbered_ground(n)."""
    return cls._from_canonical(numbered_ground(n), code_masks(code, n))


def systems_of(instances, cls=DeltaMatroid):
    return [system_of(n, code, cls) for n, code in instances]


def test_ground_set_basics():
    g = numbered_ground(3)
    assert g.labels == ("1", "2", "3")
    assert g.size == 3
    assert g.full_mask == 0b111
    assert g.index("2") == 1
    assert g.mask(["1", "3"]) == 0b101
    assert g.labels_of(0b110) == ("2", "3")
    with pytest.raises(KeyError):
        g.index("x")
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))


def test_family_canonicalization():
    s = SetSystem(numbered_ground(2), (0b11, 0b01, 0b11, 0b00))
    assert s.family == (0b00, 0b01, 0b11)
    assert family_sort_key(0b10) < family_sort_key(0b11)
    # cardinality dominates, then index order
    assert sorted([0b11, 0b100, 0b1], key=family_sort_key) == [0b1, 0b100, 0b11]


def test_out_of_range_mask_rejected():
    with pytest.raises(ValueError):
        SetSystem(numbered_ground(1), (0b10,))
    with pytest.raises(ValueError):
        SetSystem(numbered_ground(2), (0b01, -1))


def test_rank_table_matches_reference_key():
    for n in range(RANK_TABLE_MAX_N + 1):
        order, rank = canonical_table(n)
        assert list(order) == sorted(range(1 << n), key=family_sort_key)
        assert [rank[m] for m in order] == list(range(1 << n))
        assert canonical_masks(n) is order
    with pytest.raises(ValueError):
        canonical_table(RANK_TABLE_MAX_N + 1)


def test_canonical_order_beyond_rank_table():
    for n in (RANK_TABLE_MAX_N + 1, RANK_TABLE_MAX_N + 2):
        assert list(canonical_masks(n)) == sorted(range(1 << n), key=family_sort_key)
    rng = random.Random("dmx-canonical-order")
    for n in range(RANK_TABLE_MAX_N + 1, 21):
        for _ in range(5):
            fam = [rng.randrange(1 << n) for _ in range(rng.randint(1, 300))]
            s = SetSystem(numbered_ground(n), tuple(fam))
            assert list(s.family) == sorted(set(fam), key=family_sort_key)


def test_seeded_families_sort_like_reference_key():
    rng = random.Random("dmx-canonical-table")
    for n in range(RANK_TABLE_MAX_N + 1):
        for _ in range(20):
            fam = [rng.randrange(1 << n) for _ in range(rng.randint(1, 64))]
            s = SetSystem(numbered_ground(n), tuple(fam))
            assert list(s.family) == sorted(set(fam), key=family_sort_key)


def _closure_reference(code, n, up):
    """The sets y above (or below) some set x of the code, by the subset test."""
    sets = [x for x in range(1 << n) if code >> x & 1]
    if up:
        return mask_of(y for y in range(1 << n) if any(not x & ~y for x in sets))
    return mask_of(y for y in range(1 << n) if any(not y & ~x for x in sets))


def _assert_closure_matches_reference(code, n):
    for up in (True, False):
        assert core.closure_code(code, n, up) == _closure_reference(code, n, up), (code, n, up)


@pytest.mark.parametrize("n", range(4))
def test_closure_code_matches_subset_definition_on_every_small_code(n):
    for code in range(1 << (1 << n)):
        _assert_closure_matches_reference(code, n)


def test_closure_code_matches_subset_definition_on_seeded_codes():
    rng = random.Random("dmx-closure-code")
    for n in range(4, 9):
        for _ in range(20):
            code = mask_of(rng.randrange(1 << n) for _ in range(rng.randint(1, 12)))
            _assert_closure_matches_reference(code, n)


def test_equality_ignores_concrete_class():
    s = SetSystem(numbered_ground(2), (0b01, 0b10))
    d = DeltaMatroid(numbered_ground(2), (0b01, 0b10))
    assert s == d
    assert hash(s) == hash(d)
    assert s != SetSystem(GroundSet(("a", "b")), (0b01, 0b10))


def test_render_and_labeled_family():
    d = dm("abc", ["ab", "ac"])
    assert d.render_set(0b011) == "{a,b}"
    assert d.render_set(0) == "{}"
    assert d.ground.labels == ("a", "b", "c")
    assert d.family == (0b011, 0b101)


def test_exchange_axiom_validation():
    good = SetSystem.from_sets("12", [(), "12"])
    assert exchange_violation_masks(good.family) is None
    assert isinstance(validate_delta_matroid(good), DeltaMatroid)

    bad = SetSystem.from_sets("123", [(), "123"])
    witness = exchange_violation_masks(bad.family)
    assert witness == (0b000, 0b111, 0)
    with pytest.raises(SymmetricExchangeError) as exc_info:
        validate_delta_matroid(bad)
    assert exc_info.value.witness == (0b000, 0b111, 0)
    assert "u=1" in str(exc_info.value)


def test_exchange_allows_u_equals_v():
    # {}, {1}: u = v = 1 satisfies the triple
    assert exchange_violation_masks((0b0, 0b1)) is None


def _exchange_reference(family):
    """Brute-force oracle for exchange_violation_masks: the scan over all
    (X, Y) pairs with an inner loop over v, in the given order."""
    members = set(family)
    for x in family:
        for y in family:
            d = x ^ y
            rest = d
            while rest:
                ub = rest & -rest
                rest ^= ub
                xu = x ^ ub
                if xu in members:
                    continue
                ok = False
                others = d ^ ub
                while others:
                    vb = others & -others
                    others ^= vb
                    if xu ^ vb in members:
                        ok = True
                        break
                if not ok:
                    return (x, y, ub.bit_length() - 1)
    return None


def test_exchange_kernel_matches_reference_on_every_small_family():
    for n in range(5):
        for code in range(1 << (1 << n)):
            fam = tuple(m for m in range(1 << n) if (code >> m) & 1)
            assert exchange_violation_masks(fam) == _exchange_reference(fam), fam


def test_exchange_kernel_matches_reference_in_shuffled_orders():
    # the witness is the first triple in the given order, not the canonical one
    for n in range(4):
        for code in range(1, 1 << (1 << n)):
            fam = [m for m in range(1 << n) if (code >> m) & 1]
            for seed in range(4):
                random.Random("dmx-exchange-order-%d-%d" % (code, seed)).shuffle(fam)
                order = tuple(fam)
                assert exchange_violation_masks(order) == _exchange_reference(order), order


def _random_symmetric(n, rng):
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Gf2SymmetricMatrix(tuple(rows))


def test_exchange_kernel_matches_reference_on_binary_twists():
    rng = random.Random("dmx-exchange-binary")
    broken = 0
    for n in range(6, 11):
        g = numbered_ground(n)
        for _ in range(3):
            d = delta_matroid_from_symmetric(_random_symmetric(n, rng), g)
            d = d.twist(rng.randrange(1 << n))
            assert exchange_violation_masks(d.family) is None
            assert _exchange_reference(d.family) is None
            extra = rng.choice([m for m in range(1 << n) if m not in d.members])
            fam = SetSystem(g, d.family + (extra,)).family
            witness = exchange_violation_masks(fam)
            assert witness == _exchange_reference(fam)
            broken += witness is not None
    assert broken >= 10


@pytest.mark.parametrize("n, count", [(6, 1000), (8, 200)])
def test_random_corpus_unchanged_under_reference_check(monkeypatch, caplog, n, count):
    """The generator's incremental test against the full reference scan of
    F + {c}: the same members and the same rejection record."""
    caplog.set_level(logging.INFO, logger=verify.logger.name)
    fast = verify.random_delta_matroids(n, 1, count)
    monkeypatch.setattr(
        verify, "_exchange_holds_with", lambda fam, c: _exchange_reference(tuple(fam | {c})) is None
    )
    slow = verify.random_delta_matroids(n, 1, count)
    assert [d.family for d in fast] == [d.family for d in slow]
    logs = [r.getMessage() for r in caplog.records if "random delta-matroid" in r.getMessage()]
    assert len(logs) == 2 and logs[0] == logs[1]
    assert "rejected=0" not in logs[0]


def test_incremental_exchange_test_matches_the_scan_on_every_extension():
    """Adding any c to a delta-matroid on at most four elements: accepted
    exactly when the full scan of F + {c} finds no violation."""
    accepted = rejected = 0
    for n in range(5):
        for code in verify.delta_matroids_exact(n):
            fam = code_masks(code, n)
            for c in range(1 << n):
                if code >> c & 1:
                    continue
                holds = verify._exchange_holds_with(set(fam), c)
                assert holds == (exchange_violation_masks(fam + (c,)) is None), (fam, c)
                accepted += holds
                rejected += not holds
    assert accepted and rejected


def _outcome(build, system):
    """(exception class name, message) of a failed build, or None."""
    try:
        build(system)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return None


def _validation_mismatches(systems, scan):
    """The nonempty systems on which validate_delta_matroid, or
    Matroid.from_bases on an equicardinal family, disagrees with the scan
    alone: in the verdict or in the text of the error."""
    bad = []
    for s in systems:
        witness = scan(s.family)
        delta = matroid = None
        if witness is not None:
            x, y, u = witness
            delta = ("SymmetricExchangeError", str(SymmetricExchangeError(s, *witness)))
            matroid = (
                "MatroidError",
                "base exchange fails at B1=%s, B2=%s, u=%s"
                % (s.render_set(x), s.render_set(y), s.ground.labels[u]),
            )
        sizes = {m.bit_count() for m in s.family}
        if _outcome(validate_delta_matroid, s) != delta or (
            len(sizes) == 1 and _outcome(Matroid.from_bases, s) != matroid
        ):
            bad.append(s)
    return bad


def _every_small_nonempty_system():
    return [
        SetSystem(numbered_ground(n), tuple(m for m in range(1 << n) if code >> m & 1))
        for n in range(4)
        for code in range(1, 1 << (1 << n))
    ]


def _extension_survivors():
    """The 6,239 candidates that delta_matroids_exact(4) hands to its
    complementary-pair test, recorded by running it uncached with a
    recording test."""
    verify.delta_matroids_exact(3)  # cached, so only n = 4 is recorded
    test = verify.complementary_exchange_holds
    seen = []

    def record(code, n):
        seen.append(code)
        return test(code, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "complementary_exchange_holds", record)
        kept = verify.delta_matroids_exact.__wrapped__(4)
    # the survivors the test accepts are DM(4)
    assert kept == verify.delta_matroids_exact(4)
    return [SetSystem(numbered_ground(4), code_masks(code, 4)) for code in seen]


def _seeded_binary_twists():
    """D(A)*X for n = 5..12, each also with one set toggled."""
    rng = random.Random("dmx-certificate-first")
    twists, toggled = [], []
    for n in range(5, 13):
        g = numbered_ground(n)
        for _ in range(4):
            d = delta_matroid_from_symmetric(_random_symmetric(n, rng), g)
            d = d.twist(rng.randrange(1 << n))
            twists.append(SetSystem(g, d.family))
            m = rng.randrange(1 << n)
            fam = tuple(f for f in d.family if f != m)
            toggled.append(SetSystem(g, fam if m in d.members else fam + (m,)))
    return twists, toggled


def _size_two_certificate(d):
    """A broken certificate: D(A) compared with the normal twist only on the
    sets of size <= 2, where the forced A always agrees."""
    n = d.ground.size
    f0 = d.family[0]
    code = mask_of(m ^ f0 for m in d.family)
    cand = forced_matrix(n, lambda x: code >> x & 1)
    small = sum(layer_codes(n)[:3])
    if (nonsingular_code(cand.rows) ^ code) & small:
        return BinaryCertificate(False, f0, None, 0)
    return BinaryCertificate(True, f0, cand, None)


def test_certificate_first_validation_matches_reference_on_small_families():
    systems = _every_small_nonempty_system()
    assert _validation_mismatches(systems, _exchange_reference) == []


def test_certificate_first_validation_matches_scan_on_exhaustive_corpora():
    survivors = _extension_survivors()
    invalid = [s for s in survivors if exchange_violation_masks(s.family) is not None]
    assert (len(survivors), len(invalid)) == (6239, 280)
    binary = [system_of(n, c, SetSystem) for n, c in verify.corpus("binary_delta", 4)]
    assert _validation_mismatches(survivors + binary, exchange_violation_masks) == []


def test_complementary_pair_test_matches_the_scan_on_split_survivors():
    survivors = _extension_survivors()
    verdicts = [
        verify.complementary_exchange_holds(mask_of(s.family), 4) for s in survivors
    ]
    assert verdicts == [exchange_violation_masks(s.family) is None for s in survivors]
    assert (len(verdicts), verdicts.count(False)) == (6239, 280)
    # every nonempty family on at most two elements is a delta-matroid, so
    # for n <= 3 every nonempty family survives its splits
    assert len(verify.delta_matroids_exact(2)) == 15
    for n in range(1, 4):
        codes = range(1, 1 << (1 << n))
        assert [verify.complementary_exchange_holds(c, n) for c in codes] == [
            exchange_violation_masks(code_masks(c, n)) is None for c in codes
        ]


def test_complementary_pair_test_is_not_a_general_exchange_test():
    # {{3}, {1,2}} on four elements holds no complementary pair, yet X = {3},
    # Y = {1,2} violates the axiom at u = 1; its sets without 4 are the same
    # family on three elements, which is no delta-matroid
    fam = (0b0100, 0b0011)
    assert verify.complementary_exchange_holds(mask_of(fam), 4)
    assert exchange_violation_masks(fam) == (0b0100, 0b0011, 0)


def test_certificate_first_validation_matches_scan_on_seeded_twists(monkeypatch):
    twists, toggled = _seeded_binary_twists()
    assert _validation_mismatches(twists + toggled, exchange_violation_masks) == []
    broken = [s for s in toggled if exchange_violation_masks(s.family) is not None]
    assert len(broken) == len(toggled) == 32
    # a binary family is proved valid by its certificate alone
    calls = []
    monkeypatch.setattr(core, "exchange_violation_masks", lambda fam: calls.append(fam))
    for s in twists:
        assert validate_delta_matroid(s).family == s.family
    assert calls == []


def test_certificate_first_validation_catches_a_size_two_certificate(monkeypatch):
    monkeypatch.setattr(gf2, "is_binary", _size_two_certificate)
    small = _every_small_nonempty_system()
    # it accepts every family, so each of the 100 invalid ones is caught
    assert len(_validation_mismatches(small, _exchange_reference)) == 100
    survivors = _extension_survivors()
    assert len(_validation_mismatches(survivors, exchange_violation_masks)) == 280
    _, toggled = _seeded_binary_twists()
    broken = [s for s in toggled if exchange_violation_masks(s.family) is not None]
    assert _validation_mismatches(toggled, exchange_violation_masks) == broken


def test_empty_family_rejected():
    with pytest.raises(ImproperSystemError):
        validate_delta_matroid(SetSystem(numbered_ground(1), ()))
    with pytest.raises(ImproperSystemError):
        DeltaMatroid(numbered_ground(1), ())


def test_parity():
    assert dm("12", [(), "12"]).parity() == "even"
    assert dm("12", [(), "1"]).parity() == "odd"
    with pytest.raises(ImproperSystemError):
        SetSystem(numbered_ground(1), ()).parity()


def test_loop_and_coloop():
    d = dm("12", ["1", "12"])
    assert d.is_coloop(0)
    assert not d.is_loop(0)
    assert not d.is_coloop(1)
    d2 = dm("12", [(), "2"])
    assert d2.is_loop(0)


def test_twist_and_dual():
    d = dm("12", ["1", "2"])
    t = d.twist(0b01)
    assert t.family == (0b00, 0b11)
    assert isinstance(t, DeltaMatroid)
    assert d.dual() == d.twist(0b11)
    assert d.dual().dual() == d
    with pytest.raises(ValueError):
        d.twist(0b100)


def test_twist_group_law_exhaustive_n3():
    d = dm("123", [(), "12", "23", "13", "123"])
    for a in range(8):
        for b in range(8):
            assert d.twist(a).twist(b) == d.twist(a ^ b)


def test_loop_complement_definition():
    # D + e toggles F u {e} for each F without e
    d = dm("1", [()])
    assert d.loop_complement(0b1).family == (0b0, 0b1)
    d2 = dm("1", [(), "1"])
    assert d2.loop_complement(0b1).family == (0b0,)
    # single-element loop complement is an involution
    assert d2.loop_complement(0b1).loop_complement(0b1) == d2


def test_loop_complement_can_break_exchange():
    d = dm("123", [(), "1", "2", "3", "12", "13", "23"])
    out = d.loop_complement(0b001)
    assert type(out) is SetSystem
    assert out == SetSystem.from_sets("123", [(), "2", "3", "23", "123"])
    assert exchange_violation_masks(out.family) is not None
    with pytest.raises(SymmetricExchangeError):
        validate_delta_matroid(out)


def _loop_complement_reference(family, a):
    """D + a by its set definition on index sets, highest element of a first:
    toggle F u {e} for every member F without e."""
    fam = {frozenset(indices_of(m)) for m in family}
    for e in reversed(indices_of(a)):
        fam ^= {f | {e} for f in fam if e not in f}
    return {mask_of(f) for f in fam}


def _assert_loop_complement_matches_reference(g, family, a):
    got = loop_complement_masks(family, a, g.size)
    # toggling by e keeps every set without e, and changes nothing when no
    # set lacks e, so a nonempty family never becomes empty
    assert got
    assert set(got) == _loop_complement_reference(family, a)
    assert list(got) == sorted(set(got), key=family_sort_key)
    assert SetSystem(g, family).loop_complement(a).family == got


def test_loop_complement_kernel_on_every_small_family():
    for n in range(4):
        g = numbered_ground(n)
        for code in range(1, 1 << (1 << n)):
            fam = tuple(m for m in range(1 << n) if (code >> m) & 1)
            for a in range(1 << n):
                _assert_loop_complement_matches_reference(g, fam, a)


@pytest.mark.parametrize("n", range(6, 11))
def test_loop_complement_kernel_on_seeded_families(n):
    rng = random.Random("dmx-loop-complement-%d" % n)
    g = numbered_ground(n)
    for _ in range(40):
        fam = tuple({rng.randrange(1 << n) for _ in range(rng.randint(1, 40))})
        for a in (rng.randrange(1 << n), rng.randrange(1 << n), g.full_mask):
            _assert_loop_complement_matches_reference(g, fam, a)


def _spread(mask, kept):
    """A mask on the elements a minor keeps, moved back to their positions
    kept[0] < kept[1] < ... on the ground they were cut from."""
    return mask_of(kept[i] for i in indices_of(mask))


def _pack(mask, kept):
    """The inverse of _spread: a mask on the positions kept, renumbered."""
    return mask_of(i for i, k in enumerate(kept) if mask >> k & 1)


def _assert_code_kernels_match_mask_kernels(code, n, minors, subsets):
    fam = code_masks(code, n)
    for delete, contract in minors:
        want = minor_masks(fam, delete, contract)
        kept = [k for k in range(n) if not (delete | contract) >> k & 1]
        cut = core.cut_code(code, n, delete, contract)
        assert cut == mask_of(_spread(m, kept) for m in want), (code, n, delete, contract)
        got = core.minor_code(code, n, delete, contract)
        assert got == mask_of(want) == mask_of(_pack(x, kept) for x in indices_of(cut))
    for a in subsets:
        got = core.loop_complement_code(code, a, n)
        assert got == mask_of(loop_complement_masks(fam, a, n)), (code, n, a)
    assert core.dual_code(code, n) == mask_of(core.twist_masks(fam, (1 << n) - 1, n))


def test_code_kernels_match_mask_kernels_on_every_small_code():
    # every code, the empty one and non-delta-matroids included, so a minor
    # meets empty sides and the loop/coloop rule on every element
    for n in range(4):
        minors = list(_disjoint_pairs(n))
        for code in range(1 << (1 << n)):
            _assert_code_kernels_match_mask_kernels(code, n, minors, range(1 << n))


def test_code_kernels_match_mask_kernels_on_exhaustive_delta_matroids():
    rng = random.Random("dmx-code-kernels-exact")
    for n, code in verify.corpus("delta", 4):
        steps = [(1 << e, 0) for e in range(n)] + [(0, 1 << e) for e in range(n)]
        pairs = []
        for _ in range(3):
            delete = rng.randrange(1 << n)
            pairs.append((delete, rng.randrange(1 << n) & ~delete))
        _assert_code_kernels_match_mask_kernels(code, n, steps + pairs, range(1 << n))


@pytest.mark.parametrize("n", range(5, 9))
def test_code_kernels_match_mask_kernels_on_seeded_codes(n):
    rng = random.Random("dmx-code-kernels-%d" % n)
    for _ in range(60):
        # sparse and dense codes
        code = mask_of(rng.randrange(1 << n) for _ in range(rng.choice((2, 8, 1 << n))))
        minors = []
        for _ in range(6):
            delete = rng.randrange(1 << n)
            minors.append((delete, rng.randrange(1 << n) & ~delete))
        subsets = [rng.randrange(1 << n) for _ in range(4)] + [(1 << n) - 1]
        _assert_code_kernels_match_mask_kernels(code, n, minors, subsets)


def test_delete_contract_conventions():
    d = dm("12", [(), "12"])
    # element 1 is neither loop nor coloop
    assert d.delete(0).family == (0b0,)
    assert d.contract(0).family == (0b1,)
    # coloop: delete routes to contract
    c = dm("12", ["1", "12"])
    assert c.delete(0) == c.contract(0)
    # loop: contract routes to delete
    l = dm("12", [(), "2"])
    assert l.contract(0) == l.delete(0)
    with pytest.raises(IndexError, match="element index 5 out of range"):
        d.delete(5)


def test_minor_order_independent():
    d = dm("1234", [(), "12", "34", "1234"])
    m1 = d.minor(delete=0b0011, contract=0b1100)
    m2 = d.minor(contract=0b1100).minor(delete=0b0011)
    assert m1.ground.labels == ()
    assert m1 == m2
    with pytest.raises(ValueError):
        d.minor(delete=0b1, contract=0b1)


def test_twist_minor_exchange_identities():
    d = dm("123", [(), "12", "23", "13", "123"])
    for e in range(3):
        bit = 1 << e
        assert d.contract(e) == d.twist(bit).delete(e)
        assert d.delete(e) == d.twist(bit).contract(e)
    for x in range(8):
        assert d.minor(delete=x) == d.dual().minor(contract=x).dual()


def test_minor_on_set_system_goes_highest_index_first():
    # contracting 1 first would keep {1,2}; contracting 3 first keeps {3}
    s = SetSystem.from_sets("123", ["3", "12"])
    m = s.minor(contract=0b101)
    assert (m.ground.labels, m.family) == (("2",), (0b0,))
    low_first = s.contract(0).contract(1)
    assert (low_first.ground.labels, low_first.family) == (("2",), (0b1,))


def _remove_reference(s, e, contract):
    """One element removed the way minors were first written: the loop/coloop
    rule, a filter, a bit dropped from each mask and the full constructor."""
    bit = 1 << e
    if s.family and (s.is_loop(e) if contract else s.is_coloop(e)):
        contract = not contract
    low = bit - 1
    masks = tuple(m & low | (m >> (e + 1)) << e for m in s.family if bool(m & bit) == contract)
    return type(s)(GroundSet(s.ground.labels[:e] + s.ground.labels[e + 1 :]), masks)


def _minor_reference(s, delete=0, contract=0):
    """Element-by-element oracle for SetSystem.minor, highest index first."""
    for e in sorted(indices_of(delete | contract), reverse=True):
        s = _remove_reference(s, e, bool(contract >> e & 1))
    return s


def _assert_same(got, want):
    assert type(got) is type(want)
    assert got.ground.labels == want.ground.labels
    assert got.family == want.family


def _assert_minors_match(s, delete, contract):
    _assert_same(s.minor(delete=delete, contract=contract), _minor_reference(s, delete, contract))


def _disjoint_pairs(n):
    """Every (delete, contract) pair of disjoint subsets of n elements."""
    full = (1 << n) - 1
    for delete in range(full + 1):
        for contract in range(full + 1):
            if not delete & contract:
                yield delete, contract


def _every_small_system():
    """Every family for n <= 3 as a SetSystem, as a DeltaMatroid when it is
    nonempty and as a Matroid when it is also equicardinal.  The constructors
    check only these class invariants, not the exchange axiom."""
    for n in range(4):
        g = numbered_ground(n)
        for code in range(1 << (1 << n)):
            fam = tuple(m for m in range(1 << n) if (code >> m) & 1)
            yield SetSystem(g, fam)
            if fam:
                yield DeltaMatroid(g, fam)
                if len({m.bit_count() for m in fam}) == 1:
                    yield Matroid(g, fam)


def test_minor_matches_reference_on_every_small_system():
    for s in _every_small_system():
        n = s.ground.size
        for delete, contract in _disjoint_pairs(n):
            _assert_minors_match(s, delete, contract)
        for e in range(n):
            _assert_same(s.delete(e), _remove_reference(s, e, False))
            _assert_same(s.contract(e), _remove_reference(s, e, True))


def test_minor_of_empty_set_system_is_empty():
    m = SetSystem(numbered_ground(3), ()).minor(delete=0b001, contract=0b100)
    assert (type(m), m.ground.labels, m.family) == (SetSystem, ("2",), ())
    assert SetSystem(numbered_ground(1), ()).delete(0).family == ()


def test_minor_matches_reference_on_exhaustive_delta_matroids():
    rng = random.Random("dmx-minor-exact-4")
    for d in (system_of(4, code) for code in verify.delta_matroids_exact(4)):
        for e in range(4):
            _assert_same(d.delete(e), _remove_reference(d, e, False))
            _assert_same(d.contract(e), _remove_reference(d, e, True))
        delete = rng.randrange(16)
        contract = rng.randrange(16) & ~delete
        _assert_minors_match(d, delete, contract)
        _assert_minors_match(lower_matroid(d), delete, contract)


@pytest.mark.parametrize("n, count", [(6, 300), (8, 100)])
def test_minor_matches_reference_on_random_delta_matroids(n, count):
    rng = random.Random("dmx-minor-random-%d" % n)
    for d in verify.random_delta_matroids(n, 5, count):
        for _ in range(4):
            delete = rng.randrange(1 << n)
            contract = rng.randrange(1 << n) & ~delete
            _assert_minors_match(d, delete, contract)
            _assert_minors_match(lower_matroid(d), delete, contract)


def _assert_twist_matches_constructor(s, a):
    # a twist of a Matroid is a DeltaMatroid: it need not be equicardinal
    cls = DeltaMatroid if isinstance(s, DeltaMatroid) else SetSystem
    _assert_same(s.twist(a), cls(s.ground, tuple(m ^ a for m in s.family)))


def test_twist_and_dual_match_constructor_on_every_small_system():
    for s in _every_small_system():
        full = s.ground.full_mask
        for a in range(full + 1):
            _assert_twist_matches_constructor(s, a)
        _assert_same(s.dual(), type(s)(s.ground, tuple(m ^ full for m in s.family)))


def test_twist_and_dual_match_constructor_beyond_rank_table():
    # above RANK_TABLE_MAX_N the order comes from family_sort_key
    rng = random.Random("dmx-twist-large")
    for n in (RANK_TABLE_MAX_N + 1, RANK_TABLE_MAX_N + 2):
        g = numbered_ground(n)
        full = g.full_mask
        for _ in range(5):
            fam = tuple(rng.randrange(1 << n) for _ in range(rng.randint(1, 300)))
            for s in (SetSystem(g, fam), DeltaMatroid(g, fam)):
                for a in (rng.randrange(1 << n), full):
                    _assert_twist_matches_constructor(s, a)
            bases = tuple(m for m in fam if m.bit_count() == fam[0].bit_count())
            m = Matroid(g, bases)
            _assert_same(m.dual(), Matroid(g, tuple(b ^ full for b in bases)))


def test_restrict():
    d = dm("123", [(), "12", "23", "13", "123"])
    r = d.restrict(0b011)
    assert r.ground.labels == ("1", "2")
    assert r.family == (0b00, 0b11)


def test_mask_of_roundtrip():
    assert mask_of([0, 2]) == 0b101
