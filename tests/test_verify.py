import functools
import hashlib
import itertools
import logging
import random

import pytest

from dmx import core, matroid, verify
from dmx.core import (
    EVEN,
    ODD,
    DeltaMatroid,
    GroundSet,
    SetSystem,
    bit_clear_codes,
    code_masks,
    cut_code,
    exchange_violation_masks,
    indices_of,
    loop_complement_code,
    mask_of,
    minor_code,
    minor_masks,
    numbered_ground,
    twist_code,
    twist_masks,
)
from dmx.gf2 import Gf2SymmetricMatrix, delta_matroid_from_symmetric
from dmx.matroid import (
    Matroid,
    classify_family,
    is_bipartite_delta,
    is_eulerian_delta,
    lower_code,
    lower_matroid,
    upper_code,
    upper_matroid,
)
from dmx.ribbon import RibbonGraph
from dmx.verify import (
    VerificationReport,
    SUITE,
    all_symmetric_matrices,
    binary_delta_corpus_exact,
    binary_matroids_exact,
    corpus,
    delta_matroids_exact,
    enumerate_delta_matroids,
    random_delta_matroids,
    render_record,
    render_text,
    ribbon_corpus,
    run_suite,
)
from test_core import system_of


def _render(s):
    """The object rendering fmt_system reproduces from (n, code)."""
    return "(%s; %s)" % (" ".join(s.ground.labels) or "-", " ".join(map(s.render_set, s.family)))


def _delta(item):
    """The DeltaMatroid of a corpus instance (n, code, ...)."""
    return system_of(item[0], item[1])


def _matroid(item):
    """The Matroid of a corpus instance (n, code, ...)."""
    return system_of(item[0], item[1], Matroid)


def _delta_matroids_reference(n):
    """The code of every delta-matroid on n elements by brute force: the full
    axiom check on every nonempty family, in ascending order of its code."""
    return tuple(
        code
        for code in range(1, 1 << (1 << n))
        if exchange_violation_masks(tuple(m for m in range(1 << n) if (code >> m) & 1)) is None
    )


def test_exhaustive_counts():
    # the numbers of delta-matroids on 0..3 labelled elements; the corpora
    # themselves are compared with the brute-force reference below
    assert [len(delta_matroids_exact(n)) for n in range(4)] == [1, 3, 15, 155]
    assert len(corpus("delta", 2)) == 1 + 3 + 15


def _corpus_digest(corpus):
    """sha256 over one line "<ground size> <family code in hex>" per
    instance (n, code), in corpus order: it pins the members and their
    order, not only their number."""
    h = hashlib.sha256()
    for n, code in corpus:
        h.update(b"%d %x\n" % (n, code))
    return h.hexdigest()


@pytest.mark.parametrize(
    "corpus, count, digest",
    [
        (
            lambda: corpus("delta", 4),
            6133,
            "16d53bbcd05406b3811cf92552553c8e7d41867944cb287135d6ceddcf93d592",
        ),
        (
            lambda: corpus("binary_delta", 4),
            2449,
            "6c6f1bda02046dcb38b2114b10fd85eb3f688517b907ffa61c2b5cd65ce65d48",
        ),
        (
            lambda: corpus("binary_matroids", 5),
            465,
            "ff1c88a5a7d2ed5f814579b06aefc385242be14ae4782700f526948b02c96870",
        ),
        (
            lambda: corpus("binary_matroids", 6),
            3290,
            "2e4935619e4d69e322564e495833f5c4d6c1f120c4b9eb75f243f7282630e807",
        ),
        (
            lambda: [(n, c) for n, c, _ in verify._operation_calculus_corpus(3, 1, 1000)],
            174 + 1000,
            "f52238353cf20b9603a969dd745d01b1f8b6ab0d2672120a7a49f7694a468215",
        ),
        (
            lambda: [(n, c) for n, c, _ in verify._operation_calculus_corpus(5, 1, 200)],
            174 + 200,
            "23a747f777673edb2536c97aa99e40ba090cc5f763cc87da505732c73640f45f",
        ),
    ],
    ids=[
        "delta_matroids_up_to_4",
        "binary_delta_corpus_up_to_4",
        "binary_matroids_up_to_5",
        "binary_matroids_up_to_6",
        "operation_calculus_3_1_1000",
        "operation_calculus_5_1_200",
    ],
)
def test_corpus_members_are_pinned(corpus, count, digest):
    instances = corpus()
    assert len(instances) == count
    assert _corpus_digest(instances) == digest


def test_extension_corpus_matches_brute_force():
    for n, count in enumerate((1, 3, 15, 155, 5959)):
        got = delta_matroids_exact(n)
        assert len(got) == count
        assert got == _delta_matroids_reference(n)
    with pytest.raises(ValueError, match="0 <= n <= 4"):
        delta_matroids_exact(5)


def test_extension_corpus_logs_its_rejections(caplog):
    # the uncached function, so the record is emitted whatever ran before;
    # it may also build and log the smaller corpora
    with caplog.at_level(logging.INFO, logger="dmx.verify"):
        delta_matroids_exact.__wrapped__(4)
    assert [r.getMessage() for r in caplog.records if " n=4 " in r.getMessage()] == [
        "exhaustive delta-matroid corpus: n=4 candidates=24335 split_rejected=18096 "
        "exchange_rejected=280 kept=5959"
    ]


def test_exhaustive_families_are_valid_and_distinct():
    codes = delta_matroids_exact(3)
    assert len(set(codes)) == len(codes)
    for code in codes:
        assert exchange_violation_masks(code_masks(code, 3)) is None


def test_symmetric_matrix_corpus():
    assert len(all_symmetric_matrices(2)) == 8  # 2^(n(n+1)/2)
    assert len(all_symmetric_matrices(3)) == 64


def _binary_delta_corpus_reference(n):
    """The code of every twist of every D(A) of order n, deduplicated by
    family and sorted by (family size, family)."""
    found = set()
    for rows in all_symmetric_matrices(n):
        base = delta_matroid_from_symmetric(Gf2SymmetricMatrix(rows), numbered_ground(n))
        found.update(base.twist(s).family for s in range(1 << n))
    return [mask_of(fam) for fam in sorted(found, key=lambda fam: (len(fam), fam))]


def test_binary_corpus_is_deduplicated_and_valid():
    for n, count in enumerate((1, 3, 15, 135, 2295)):
        corpus = binary_delta_corpus_exact(n)
        assert len(corpus) == count
        assert list(corpus) == _binary_delta_corpus_reference(n)
    for code in binary_delta_corpus_exact(2):
        assert exchange_violation_masks(code_masks(code, 2)) is None


def test_binary_corpus_logs_its_counts(caplog):
    # the uncached function, so the record is emitted whatever ran before
    with caplog.at_level(logging.INFO, logger="dmx.verify"):
        binary_delta_corpus_exact.__wrapped__(3)
    assert [r.getMessage() for r in caplog.records] == [
        "binary delta-matroid corpus: n=3 matrices=64 twists=512 kept=135"
    ]


def test_binary_matroid_corpus():
    fams = [code_masks(code, 3) for code in binary_matroids_exact(3)]
    assert len(fams) == len(set(fams))
    # every matroid on <= 3 elements is binary: compare against brute force
    from dmx.core import exchange_violation_masks

    brute = set()
    for code in range(1, 1 << 8):
        fam = tuple(m for m in range(8) if (code >> m) & 1)
        cards = {m.bit_count() for m in fam}
        if len(cards) == 1 and exchange_violation_masks(fam) is None:
            brute.add(fam)
    assert set(fams) == brute


def test_binary_matroids_one_per_row_space():
    """A binary matroid is uniquely representable over GF(2), so each reduced
    row echelon form gives a distinct family and the generator needs no
    deduplication."""
    for n, count in enumerate((1, 2, 5, 16, 67, 374, 2825)):
        assert len(verify._rref_matrices(n)) == count
        assert len(set(binary_matroids_exact(n))) == len(binary_matroids_exact(n)) == count


def test_matroid_twist_pairs_shape():
    pairs = corpus("twist_pairs", 2)
    assert pairs == tuple((n, c, a) for n, c in corpus("binary_matroids", 2) for a in range(1 << n))


def test_random_generator_is_seeded_and_valid():
    a = random_delta_matroids(5, 3, 50)
    b = random_delta_matroids(5, 3, 50)
    assert a == b
    assert a != random_delta_matroids(5, 4, 50)
    for d in a:
        assert exchange_violation_masks(d.family) is None


def test_random_corpus_logs_its_family_sizes(caplog):
    """The record keeps its prefix and rejected= field and adds the minimum,
    mean and maximum number of feasible sets."""
    with caplog.at_level(logging.INFO, logger="dmx.verify"):
        six = random_delta_matroids(6, 1, 1000)
        eight = random_delta_matroids(8, 1, 200)
    assert [r.getMessage() for r in caplog.records] == [
        "random delta-matroid corpus: n=6 seed=1 count=1000 rejected=4494 "
        "family_size_min=1 family_size_mean=2.23 family_size_max=6",
        "random delta-matroid corpus: n=8 seed=1 count=200 rejected=1312 "
        "family_size_min=1 family_size_mean=1.72 family_size_max=4",
    ]
    # the generator often keeps a single feasible set
    assert sum(len(d.family) == 1 for d in six) == 238
    assert sum(len(d.family) == 1 for d in eight) == 92


def test_ribbon_corpus_coverage():
    corpus = dict(ribbon_corpus())
    assert len(corpus) >= 10
    assert all(len(g.edges) <= 5 for g in corpus.values())
    assert any(not g.is_orientable() for g in corpus.values())
    orientable_positive_genus = [
        g
        for g in corpus.values()
        if g.is_orientable()
        and len(g.vertices) - len(g.edges) + g.boundary_components() != 2
    ]
    assert orientable_positive_genus  # e.g. the torus bouquet
    assert any(
        g.is_orientable()
        and len(g.vertices) - len(g.edges) + g.boundary_components() == 2
        for g in corpus.values()
    )


def test_ribbon_correspondence_catches_a_dropped_quasi_tree(monkeypatch):
    """delta_matroid losing its last feasible set, where it has another,
    fails the check with the clause that compares it with the definition."""
    exact = RibbonGraph.delta_matroid

    def dropped(self):
        d = exact(self)
        return DeltaMatroid._from_canonical(d.ground, d.family[:-1] or d.family)

    monkeypatch.setattr(RibbonGraph, "delta_matroid", dropped)
    corpus = ribbon_corpus()
    mutated = [name for name, g in corpus if len(exact(g).family) > 1]
    assert len(mutated) > len(corpus) // 2
    report = verify.SUITE["ribbon_correspondence"]()
    assert not report.verdict and report.tested == len(corpus)
    assert list(report.counterexamples) == [
        "%s :: delta_matroid differs from the quasi-tree family" % name for name in mutated
    ]


def test_verdict_logic():
    ok = VerificationReport("x", 1, (), None, 0.0)
    assert ok.verdict
    missing = VerificationReport("x", 1, (), False, 0.0)
    assert not missing.verdict
    found = VerificationReport("x", 1, (), True, 0.0)
    assert found.verdict
    failed = VerificationReport("x", 1, ("z",), None, 0.0)
    assert not failed.verdict
    assert not VerificationReport("x", 1, ("z",), True, 0.0).verdict
    vacuous = VerificationReport("x", 0, (), None, 0.0)
    assert not vacuous.verdict
    assert not VerificationReport("x", 0, (), True, 0.0).verdict


def test_render_formats():
    for witness, line, verdict in (
        (None, None, "pass"),
        (True, "witness: found", "pass"),
        (False, "witness: missing", "fail"),
    ):
        r = VerificationReport("x", 7, (), witness, 1.25)
        text = render_text(r)
        expected = ["check: x", "tested: 7", "failed: 0", line, "verdict: " + verdict]
        assert text.splitlines() == [x for x in expected if x is not None]
        assert "1.25" not in text  # timing never enters the text report
        assert render_record(r).split("\t") == ["x", "7", "0", verdict, "1.250"]


def test_counterexamples_come_in_instance_then_detail_order():
    """Each instance yields its details out of alphabetical order, and the
    details' alphabetical order runs against the instance order: the report
    lists them by (instance index, detail) whatever the shard count."""
    seen = []

    def details(i):
        seen.append(i)
        return ["%d %s" % (9 - i, word) for word in ("pear", "fig", "plum")]

    check = verify.Check("order", lambda max_n, seed: list(range(5)), details)
    expected = tuple("%d %s" % (9 - i, w) for i in range(5) for w in ("fig", "pear", "plum"))
    for shards, order in ((1, [0, 1, 2, 3, 4]), (2, [0, 2, 4, 1, 3]), (300_000, [0, 1, 2, 3, 4])):
        seen.clear()
        report = check(shards=shards)
        assert seen == order
        assert (report.tested, report.counterexamples, report.witness) == (5, expected, None)
        assert render_text(report).splitlines()[3:-1] == ["counterexample: " + c for c in expected]


def test_every_check_passes_at_small_size():
    reports = run_suite(max_n=2, seed=0)
    assert [r.name for r in reports] == list(SUITE)
    for r in reports:
        assert r.verdict, render_text(r)


_DELTA_TESTED = (1, 4, 19, 174, 6133, 6133, 6133)
_MATROID_TESTED = (1, 3, 8, 24, 91, 465, 465)
_TWIST_TESTED = (1, 5, 25, 153, 1225, 13193, 13193)
HORIZON_TESTED = {
    "min_deletion": _DELTA_TESTED,
    "odd_circuit": (1, 4, 19, 154, 2449, 2449, 2449),
    "bipartite_loop_complement": (1, 3, 9, 39, 309, 309, 309),
    "welsh_duality": _MATROID_TESTED,
    "twist_decomposition": (1, 5, 25, 153, 1225, 1225, 1225),
    "circuit_contraction": _MATROID_TESTED,
    "bipartite_dual_eulerian": _TWIST_TESTED,
    "characterization": _TWIST_TESTED,
    "deletion_bipartite": _DELTA_TESTED,
    "contraction_bipartite": _DELTA_TESTED,
    "lower_bound": _DELTA_TESTED,
    "operation_calculus": (201, 204, 219, 374, 374, 374, 374),
    "ribbon_correspondence": (13,) * 7,
}


def test_check_horizons_are_pinned():
    """The instances each check tests at --max-n 0..6: a count that stops
    growing marks the check's horizon, and none grows past 5."""
    assert list(HORIZON_TESTED) == list(SUITE)
    for name, tested in HORIZON_TESTED.items():
        assert tuple(SUITE[name](max_n=m, seed=3).tested for m in range(7)) == tested, name


def test_corpora_rows_count_their_instances():
    """The instances on exactly k elements of the two rows no other test
    counts, for every k up to the horizon of the checks reading them."""
    even = [len(verify.CORPORA["even_binary_delta"](k)) for k in range(5)]
    assert even == [1, 2, 6, 30, 270]
    pairs = [len(verify.CORPORA["twist_pairs"](k)) for k in range(6)]
    assert pairs == [1, 4, 20, 128, 1072, 11968]


def test_suite_is_the_only_check_declaration():
    # a check is reached as SUITE[name]; one named entry point is kept
    assert verify.check_operation_calculus is SUITE["operation_calculus"]
    assert [name for name in vars(verify) if name.startswith("check_")] == [
        "check_operation_calculus"
    ]


def test_sharded_run_matches_unsharded():
    one = run_suite(["min_deletion", "operation_calculus"], max_n=2, seed=1, shards=1)
    four = run_suite(["min_deletion", "operation_calculus"], max_n=2, seed=1, shards=4)
    for a, b in zip(one, four):
        assert (a.name, a.tested, a.counterexamples, a.witness) == (
            b.name,
            b.tested,
            b.counterexamples,
            b.witness,
        )


def test_shard_count_does_not_change_text_report():
    for max_n, tested in (
        (3, [174, 154, 39, 24, 153, 24, 153, 153, 174, 174, 174, 374, 13]),
        (4, [6133, 2449, 309, 91, 1225, 91, 1225, 1225, 6133, 6133, 6133, 374, 13]),
    ):
        one = run_suite(max_n=max_n, seed=0, shards=1)
        three = run_suite(max_n=max_n, seed=0, shards=3)
        assert [r.tested for r in one] == tested
        assert [render_text(r) for r in one] == [render_text(r) for r in three]


def test_max_n_5_run_evicts_no_classification():
    """A cold --max-n 5 run fills each classification cache without
    evicting: every miss stays cached, below the bound."""
    matroid._classification.cache_clear()
    matroid.classify_twists.cache_clear()
    run_suite(max_n=5, seed=3)
    for cache, count in ((matroid._classification, 466), (matroid.classify_twists, 980)):
        info = cache.cache_info()
        assert info.misses == info.currsize == count < matroid.CLASSIFICATION_CACHE_SIZE


def _patch_upper_mutant(monkeypatch, *modules):
    """Swap lower bases for upper ones in both reads: lower_code becomes
    upper_code in each module, and lower_bases becomes upper_bases in
    dmx.matroid, where the object API reads masks.  The twist tables are
    cached above lower_code, so the test gets a fresh cache: no table built
    under one rule is read under the other."""
    for module in modules:
        monkeypatch.setattr(module, "lower_code", matroid.upper_code)
    if matroid in modules:
        monkeypatch.setattr(matroid, "lower_bases", matroid.upper_bases)
    fresh = functools.lru_cache(maxsize=matroid.CLASSIFICATION_CACHE_SIZE)(
        matroid.classify_twists.__wrapped__
    )
    for module in (matroid, verify):
        monkeypatch.setattr(module, "classify_twists", fresh)


def test_broken_lower_matroid_fails_identically_across_shards(monkeypatch):
    # both checks built on the deletion/minimum identity must catch it
    _patch_upper_mutant(monkeypatch, verify)
    names = ["min_deletion", "operation_calculus"]
    one = run_suite(names, max_n=3, seed=2, shards=1)
    three = run_suite(names, max_n=3, seed=2, shards=3)
    for a, b in zip(one, three):
        assert a.counterexamples and not a.verdict
        assert a.counterexamples == b.counterexamples


# The label-set versions of two checks, kept as references for the code
# versions in dmx.verify.  Their lower matroids and circuits go through
# dmx.matroid, so an upper mutant patched there and into dmx.verify reaches
# both; their restrictions and contractions are SetSystem methods on the
# mask kernels, so a mutant of cut_code or minor_code reaches only the code
# version.


def _labeled_family(s):
    return frozenset(frozenset(s.ground.labels_of(m)) for m in s.family)


def _qualifying_circuit_reference(d):
    dmin = lower_matroid(d)
    for c in dmin.circuits:
        if frozenset(d.ground.labels_of(c)) in _labeled_family(d.restrict(c)):
            return True
    return False


def _odd_circuit_reference(item):
    d = _delta(item)
    if (d.parity() == ODD) != _qualifying_circuit_reference(d):
        return ["%s :: odd-circuit equivalence fails" % _render(d)]
    return []


def _circuit_contraction_reference(item):
    m = _matroid(item)
    v = []
    for c in m.circuits:
        labels_c = frozenset(m.ground.labels_of(c))
        for e in range(m.ground.size):
            if (c >> e) & 1:
                continue
            mc = m.contract(e)
            circ = [frozenset(mc.ground.labels_of(x)) for x in mc.circuits]
            if labels_c in circ:
                continue
            parts = [x for x in circ if x <= labels_c]
            if any(
                not x & y and (x | y) == labels_c
                for i, x in enumerate(parts)
                for y in parts[i + 1 :]
            ):
                continue
            v.append(
                "%s :: circuit %s breaks under contraction of %s"
                % (_render(m), m.render_set(c), m.ground.labels[e])
            )
    return v


def _violations(test, corpus):
    return [(i, v) for i, x in enumerate(corpus) for v in test(x)]


def test_mask_checks_match_label_references():
    deltas = corpus("binary_delta", 4) + corpus("delta", 4)
    assert len(deltas) == 2449 + 6133
    got = [verify._qualifying_circuit(n, code) for n, code in deltas]
    assert got == [_qualifying_circuit_reference(_delta(item)) for item in deltas]
    assert 0 < sum(got) < len(got)
    matroids = corpus("binary_matroids", 5)
    assert _violations(verify._circuit_contraction, matroids) == []
    assert _violations(_circuit_contraction_reference, matroids) == []


@pytest.mark.parametrize(
    "patch, check, reference, corpus, failing",
    [
        (lambda mp: _patch_upper_mutant(mp, matroid, verify), "_odd_circuit",
         _odd_circuit_reference, lambda: corpus("binary_delta", 4), 2140),
    ],
    ids=["odd_circuit"],
)
def test_mask_checks_match_label_references_under_mutants(
    monkeypatch, patch, check, reference, corpus, failing
):
    """Equal reports where the checks do fail, so the differential above
    cannot hold merely because nothing ever fails."""
    items = corpus()
    patch(monkeypatch)
    got = _violations(getattr(verify, check), items)
    assert got == _violations(reference, items)
    assert len(got) == failing


# The object-level versions of the checks that run on codes in dmx.verify,
# kept as references.  They classify through dmx.matroid, whose
# lower_bases and lower_code are the names a lower/upper mutant patches for
# both versions.


def _min_deletion_reference(item):
    d = _delta(item)
    dmin = lower_matroid(d)
    return [
        "%s :: deletion/minimum identity fails at %s" % (_render(d), d.ground.labels[e])
        for e in range(d.ground.size)
        if not d.is_coloop(e) and lower_matroid(d.delete(e)) != dmin.delete(e)
    ]


def _deletion_bipartite_reference(item):
    d = _delta(item)
    if not is_bipartite_delta(d):
        return []
    return [
        "%s :: deleting %s loses bipartiteness" % (_render(d), d.render_set(a))
        for a in range(1 << d.ground.size)
        if not is_bipartite_delta(d.minor(delete=a))
    ]


def _contraction_bipartite_reference(item):
    d = _delta(item)
    full = d.ground.full_mask
    v = []
    for a in range(1 << d.ground.size):
        if not is_bipartite_delta(d.twist(a)):
            continue
        if not is_bipartite_delta(d.dual().minor(contract=full ^ a)):
            v.append("%s :: D*/A^c not bipartite for A=%s" % (_render(d), d.render_set(a)))
        if not is_bipartite_delta(d.minor(contract=a)):
            v.append("%s :: D/A not bipartite for A=%s" % (_render(d), d.render_set(a)))
    return v


def _lower_bound_reference(item):
    d = _delta(item)
    dmin = lower_matroid(d)
    return [
        "%s :: intersection lower bound fails for A=%s" % (_render(d), d.render_set(a))
        for a in range(1 << d.ground.size)
        if min((f & a).bit_count() for f in d.family)
        < min((b & a).bit_count() for b in dmin.family)
    ]


def _characterization_reference(item):
    m, a = _matroid(item), item[2]
    ac = m.ground.full_mask ^ a
    d = m.twist(a)
    mdac = m.minor(delete=ac)
    mda = m.dual().minor(delete=a)
    v = []
    if is_bipartite_delta(d) != (mdac.is_eulerian() and mda.is_eulerian()):
        v.append("%s * %s :: bipartite clause fails" % (_render(m), m.render_set(a)))
    if is_eulerian_delta(d) != (mdac.is_bipartite() and mda.is_bipartite()):
        v.append("%s * %s :: eulerian clause fails" % (_render(m), m.render_set(a)))
    return v


def _bipartite_dual_eulerian_reference(item):
    m, a = _matroid(item), item[2]
    d = m.twist(a)
    if is_bipartite_delta(d) and not is_eulerian_delta(d.dual()):
        return [
            "%s * %s :: bipartite twist with non-Eulerian dual" % (_render(m), m.render_set(a))
        ]
    return []


def _direct_sum(a, b):
    """The direct sum of two set systems on disjoint labels: a's elements
    first, then b's."""
    shift = a.ground.size
    return SetSystem(
        GroundSet(a.ground.labels + b.ground.labels),
        tuple(x | y << shift for x in a.family for y in b.family),
    )


def _same_up_to_ground_order(a, b):
    return set(a.ground.labels) == set(b.ground.labels) and _labeled_family(a) == _labeled_family(b)


def _twist_decomposition_reference(item):
    m, a = _matroid(item), item[2]
    ac = m.ground.full_mask ^ a
    d = m.twist(a)
    v = []
    low = _direct_sum(m.minor(contract=a), m.minor(delete=ac).dual())
    if not _same_up_to_ground_order(lower_matroid(d), low):
        v.append("%s * %s :: lower decomposition fails" % (_render(m), m.render_set(a)))
    high = _direct_sum(m.minor(delete=a), m.minor(contract=ac).dual())
    if not _same_up_to_ground_order(upper_matroid(d), high):
        v.append("%s * %s :: upper decomposition fails" % (_render(m), m.render_set(a)))
    return v


def _twist_decomposition_s_sum_reference(item):
    """The decomposition read off the decoded bases of M.  Let S be the
    bases B meeting A most.  The bases of M/A are B - A and those of M|A are
    B & A for B in S, so the lower sum has the bases (B1 - A) | (A - B2) for
    B1, B2 in S, in M's own bit positions: the first nonzero layer of the
    code of M*A.  The upper sum is read the same way off the bases meeting A
    least: the last layer."""
    n, code, a = item
    fam = code_masks(code, n)
    twisted = code
    for e in indices_of(a):
        twisted = twist_code(twisted, e, n)
    meets = [(b & a).bit_count() for b in fam]
    v = []
    for side, layer, extreme in (("lower", lower_code, max), ("upper", upper_code, min)):
        top = extreme(meets)
        s = [b for b, k in zip(fam, meets) if k == top]
        if mask_of(b1 & ~a | a & ~b2 for b1 in s for b2 in s) != layer(twisted, n):
            v.append(
                "%s * %s :: %s decomposition fails"
                % (verify.fmt_system(n, code), verify.fmt_set(a), side)
            )
    return v


@pytest.mark.parametrize("mutant", [False, True], ids=["lower", "upper_mutant"])
@pytest.mark.parametrize("n, count", [(5, 200), (6, 150), (8, 60)])
def test_operation_calculus_helpers_match_object_references(monkeypatch, n, count, mutant):
    """The deletion identity and the intersection bound that
    operation_calculus samples beyond the exhaustive corpus, on every
    element and every A of seeded random instances; under the upper mutant
    both versions must fail, and on the same elements and sets."""
    if mutant:
        _patch_upper_mutant(monkeypatch, matroid, verify)
    failing = 0
    for d in random_delta_matroids(n, 23, count):
        dmin = lower_matroid(d)
        code = mask_of(d.family)
        deletion = verify._deletion_minimum_failures(code, n)
        assert deletion == [
            e
            for e in range(n)
            if not d.is_coloop(e) and lower_matroid(d.delete(e)) != dmin.delete(e)
        ]
        bound = verify._lower_bound_failures(code, n, range(1 << n))
        assert bound == [
            a
            for a in range(1 << n)
            if min((f & a).bit_count() for f in d.family)
            < min((b & a).bit_count() for b in dmin.family)
        ]
        failing += bool(deletion) + bool(bound)
    assert bool(failing) == mutant


_OBJECT_CASES = [
    ("_min_deletion", _min_deletion_reference, lambda: corpus("delta", 4), 1000, 1025),
    ("_deletion_bipartite", _deletion_bipartite_reference,
     lambda: corpus("delta", 4), 1000, 1967),
    ("_contraction_bipartite", _contraction_bipartite_reference,
     lambda: corpus("delta", 4), 1000, 4149),
    ("_lower_bound", _lower_bound_reference, lambda: corpus("delta", 4), 1000, 12796),
    ("_characterization", _characterization_reference,
     lambda: corpus("twist_pairs", 5), 2000, 1099),
    ("_bipartite_dual_eulerian", _bipartite_dual_eulerian_reference,
     lambda: corpus("twist_pairs", 5), 2000, 561),
    ("_twist_decomposition", _twist_decomposition_reference,
     lambda: corpus("twist_pairs", 5), 2000, 1327),
]
OBJECT_REFERENCES = pytest.mark.parametrize(
    "check, reference, corpus, sample, failing",
    _OBJECT_CASES,
    ids=[case[0].lstrip("_") for case in _OBJECT_CASES],
)


@OBJECT_REFERENCES
def test_mask_checks_match_object_references(check, reference, corpus, sample, failing):
    items = corpus()
    assert _violations(getattr(verify, check), items) == _violations(reference, items) == []


def _six_element_twist_pairs():
    """A seeded sample of the 2,825 * 2^6 twist pairs of binary matroids on
    6 elements, beyond the corpus the suite checks."""
    ms = binary_matroids_exact(6)
    assert len(ms) == 2825
    picks = sorted(random.Random(6).sample(range(len(ms) << 6), 2000))
    return [(6, ms[i >> 6], i & 63) for i in picks]


def test_twist_decomposition_matches_object_reference_on_six_elements():
    pairs = _six_element_twist_pairs()
    got = _violations(verify._twist_decomposition, pairs)
    assert got == _violations(_twist_decomposition_reference, pairs) == []
    assert _violations(_twist_decomposition_s_sum_reference, pairs) == []


def test_twist_decomposition_matches_s_sum_reference():
    """The cut-kernel check against the sums over decoded bases, on all
    13,193 twist pairs with n <= 5 (the object reference is compared on
    them above)."""
    pairs = corpus("twist_pairs", 5)
    got = _violations(verify._twist_decomposition, pairs)
    assert got == _violations(_twist_decomposition_s_sum_reference, pairs) == []


def test_twist_decomposition_catches_swapped_sides(monkeypatch):
    """lower_code and upper_code swapped in dmx.verify: the check flags every
    pair whose twist has distinct lower and upper matroids, at pinned
    counts, and neither reference, which reads them from dmx.matroid, finds
    anything on the flagged pairs."""
    monkeypatch.setattr(verify, "lower_code", matroid.upper_code)
    monkeypatch.setattr(verify, "upper_code", matroid.lower_code)
    counts = []
    for max_n in (4, 5):
        pairs = corpus("twist_pairs", max_n)
        got = _violations(verify._twist_decomposition, pairs)
        flagged = [pairs[i] for i in sorted({i for i, _ in got})]
        assert _violations(_twist_decomposition_s_sum_reference, flagged) == []
        assert _violations(_twist_decomposition_reference, flagged) == []
        counts.append(len(flagged))
    assert counts == [570, 8850]


@pytest.mark.parametrize(
    "check, reference",
    [
        ("_characterization", _characterization_reference),
        ("_bipartite_dual_eulerian", _bipartite_dual_eulerian_reference),
    ],
    ids=["characterization", "bipartite_dual_eulerian"],
)
def test_twist_table_checks_match_object_references_on_six_elements(check, reference):
    pairs = _six_element_twist_pairs()
    assert _violations(getattr(verify, check), pairs) == _violations(reference, pairs) == []


def test_contraction_codes_match_minor_classification():
    """The bipartite class of D / A read off the code against the
    classification of minor_masks(F, {}, A), for every A, on DM(<= 4) and on
    seeded random delta-matroids on 8 elements."""
    sampled = [(8, mask_of(d.family)) for d in random_delta_matroids(8, 29, 20)]
    for n, code in corpus("delta", 4) + tuple(sampled):
        family = code_masks(code, n)
        for a in range(1 << n):
            contracted = classify_family(n - a.bit_count(), minor_masks(family, 0, a))
            assert verify._contraction_is_bipartite(code, a, n) == contracted.bipartite


def test_restriction_codes_match_minor_classification():
    """Bit A of the restriction codes of M and of M* (the records' odd_holders
    and circuit_unions) against the classes of M \\ A^c and M* \\ A, built
    as minors, on all 13,193 twist pairs."""
    pairs = corpus("twist_pairs", 5)
    assert len(pairs) == 13193
    for n, code, a in pairs:
        full = (1 << n) - 1
        family = code_masks(code, n)
        dual = twist_masks(family, full, n)
        for fam, deleted, kept in ((family, full ^ a, a), (dual, a, full ^ a)):
            rec = classify_family(n, fam)
            odd, unions = rec.odd_holders, rec.circuit_unions
            restricted = classify_family(kept.bit_count(), minor_masks(fam, deleted, 0))
            assert restricted.bipartite == (not odd >> kept & 1)
            assert restricted.eulerian == bool(unions >> kept & 1)


@OBJECT_REFERENCES
def test_mask_checks_match_object_references_under_upper_mutant(
    monkeypatch, check, reference, corpus, sample, failing
):
    """Lower bases swapped for upper ones in both versions: equal reports
    where the checks do fail.  Failing instances make long reports, so a
    seeded sample of the corpus keeps this to about a second."""
    _patch_upper_mutant(monkeypatch, matroid, verify)
    items = corpus()
    items = [items[i] for i in sorted(random.Random(9).sample(range(len(items)), sample))]
    got = _violations(getattr(verify, check), items)
    assert got == _violations(reference, items)
    assert len(got) == failing


# The object-level operation_calculus, kept as the reference for the code
# version in dmx.verify.  Its twists, minors and loop complements are
# SetSystem methods on the mask kernels, so a mutant of a code kernel
# reaches only the code version.


def _apply_ops_reference(d, ops):
    cur = d
    for kind, label in ops:
        e = cur.ground.index(label)
        cur = cur.delete(e) if kind == "d" else cur.contract(e)
    return cur


def _operation_calculus_reference(item):
    n, code, key = item
    d = system_of(n, code)
    cap = 1 << n
    twist = functools.lru_cache(maxsize=None)(d.twist)
    dual = d.dual()
    v = []

    def flag(msg):
        v.append("%s :: %s" % (_render(d), msg))

    if key is None:
        subsets = range(cap)
        pairs = itertools.product(subsets, repeat=2)
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
        if twist(a).twist(b) != twist(a ^ b):
            flag("twist group law fails")
            break
    if dual.dual() != d:
        flag("dual is not an involution")
    for e in range(n):
        bit = 1 << e
        lab = d.ground.labels[e]
        if d.contract(e) != twist(bit).delete(e):
            flag("D/e != (D*e)\\e at %s" % lab)
            break
        if d.delete(e) != twist(bit).contract(e):
            flag("D\\e != (D*e)/e at %s" % lab)
            break
    for x in subsets:
        if d.minor(delete=x) != dual.minor(contract=x).dual():
            flag("deletion-via-dual identity fails")
            break
    for x in subsets:
        if d.loop_complement(x).loop_complement(x) != d:
            flag("loop complement is not an involution")
            break
    # odd-interval membership rule against the iterated definition
    x = subsets[0]
    expected = set()
    for y in range(cap):
        need = y & ~x
        count = sum(1 for z in d.family if not z & ~y and not need & ~z)
        if count & 1:
            expected.add(y)
    if expected != set(d.loop_complement(x).family):
        flag("odd-interval membership rule disagrees")
    for dl, co in minor_pairs:
        base = d.minor(delete=dl, contract=co)
        ops_fwd = [("d", lab) for lab in d.ground.labels_of(dl)]
        ops_fwd += [("c", lab) for lab in d.ground.labels_of(co)]
        ops_rev = list(reversed(ops_fwd))
        if _apply_ops_reference(d, ops_fwd) != base or _apply_ops_reference(d, ops_rev) != base:
            flag("minor order dependence")
            break
    for a in subsets:
        if twist(a).parity() != d.parity():
            flag("parity not twist-invariant")
            break
    dmin = lower_matroid(d)
    if any(not d.is_coloop(e) and lower_matroid(d.delete(e)) != dmin.delete(e) for e in range(n)):
        flag("deletion/minimum identity fails")
    if verify._lower_bound_failures(code, n, subsets):
        flag("intersection lower bound fails")
    return v


@pytest.mark.parametrize("max_n, count", [(3, 1000), (5, 200)], ids=["n6", "n8"])
@pytest.mark.parametrize("seed", [1, 2])
def test_operation_calculus_matches_object_reference(max_n, count, seed):
    """Every identity on the exhaustive n <= 3 items and a seeded sample at
    n = 6 or 8, against the object-level version."""
    items = verify._operation_calculus_corpus(max_n, seed, count)
    assert len(items) == 174 + count
    got = _violations(verify._operation_calculus, items)
    assert got == _violations(_operation_calculus_reference, items) == []


def _one_side_minor(code, n, delete, contract):
    """Mutant of minor_code: decides delete or contract once, for the
    highest element, and removes every element that way."""
    rest = delete | contract
    if contract & (1 << rest.bit_length() >> 1):
        return minor_code(code, n, 0, rest)
    return minor_code(code, n, rest, 0)


def _lowest_only_loop_complement_code(code, a, n):
    """Mutant of loop_complement_code: toggles only the lowest element of a."""
    return loop_complement_code(code, a & -a, n)


def _short_pack_minor(code, n, delete, contract):
    """Mutant of minor_code: removes the elements as minor_code does, but
    packs each kept element above a removed one down by one position only,
    however many removed elements lie below it."""
    keeps = bit_clear_codes(n)
    removed = delete | contract
    for e in reversed(core.indices_of(removed)):
        keep = keeps[e]
        without, with_e = code & keep, code >> (1 << e) & keep
        code = (with_e or without) if contract >> e & 1 else (without or with_e)
    for k in range(n):
        if not removed >> k & 1 and removed & ((1 << k) - 1):
            stay = code & keeps[k]
            code = stay | (code ^ stay) >> (1 << (k - 1))
    return code


@pytest.mark.parametrize(
    "name, mutant, failing",
    [
        ("minor_code", _one_side_minor, (154, 119)),
        ("loop_complement_code", _lowest_only_loop_complement_code, (221, 86)),
        ("minor_code", _short_pack_minor, (632, 362)),
    ],
    ids=["one_side_minor", "lowest_only_loop_complement", "short_pack_minor"],
)
def test_operation_calculus_matches_object_reference_under_mutants(
    monkeypatch, name, mutant, failing
):
    """A broken code kernel: the check reports it at a pinned count, and the
    object reference, on the mask kernels, finds nothing on the instances it
    flags, so the differential above is not vacuous."""
    monkeypatch.setattr(core, name, mutant)
    monkeypatch.setattr(verify, name, mutant)
    counts = []
    for max_n, count in ((3, 300), (5, 100)):
        items = verify._operation_calculus_corpus(max_n, 4, count)
        got = _violations(verify._operation_calculus, items)
        flagged = [items[i] for i in sorted({i for i, _ in got})]
        assert _violations(_operation_calculus_reference, flagged) == []
        counts.append(len(got))
    assert tuple(counts) == failing


# The object-level welsh_duality and bipartite_loop_complement, kept as
# references for the code versions in dmx.verify.  The dual and the loop
# complement are SetSystem methods on the mask kernels, so a mutant of a
# code kernel reaches only the code version.


def _welsh_duality_reference(item):
    m = _matroid(item)
    v = []
    eul = m.is_eulerian()
    if eul != m.dual().is_bipartite():
        v.append("%s :: eulerian/dual-bipartite mismatch" % _render(m))
    independent = [s for s in range(1 << m.ground.size) if any(not s & ~b for b in m.bases)]
    if eul != bool(len(independent) & 1):
        v.append("%s :: eulerian/independent-count parity mismatch" % _render(m))
    return v


def _bipartite_loop_complement_reference(item):
    d = _delta(item)
    if is_bipartite_delta(d) != (d.loop_complement(d.ground.full_mask).parity() == EVEN):
        return ["%s :: bipartite/loop-complement parity mismatch" % _render(d)]
    return []


@pytest.mark.parametrize(
    "check, reference, corpus",
    [
        ("_welsh_duality", _welsh_duality_reference, lambda: corpus("binary_matroids", 5)),
        ("_bipartite_loop_complement", _bipartite_loop_complement_reference,
         lambda: corpus("even_binary_delta", 4)),
    ],
    ids=["welsh_duality", "bipartite_loop_complement"],
)
def test_dual_and_loop_complement_checks_match_object_references(check, reference, corpus):
    items = corpus()
    assert _violations(getattr(verify, check), items) == _violations(reference, items) == []


def _off_by_one_contraction_code(code, n, delete, contract):
    """Mutant of minor_code: an off-by-one that contracts the element below
    the one asked for (element 0 is contracted as asked)."""
    return minor_code(code, n, delete, contract >> 1 or contract)


def _swapped_cut_code(code, n, delete, contract):
    """Mutant of cut_code: deletes what it is asked to contract and
    contracts what it is asked to delete.  minor_code calls it in dmx.core,
    so every code-level minor swaps its sides."""
    return cut_code(code, n, contract, delete)


def _undualized_code(code, n):
    """Mutant of dual_code: returns its input, so the dual of a matroid is
    the matroid itself."""
    return code


@pytest.mark.parametrize(
    "check, reference, corpus, name, mutant, failing",
    [
        ("_circuit_contraction", _circuit_contraction_reference,
         lambda: corpus("binary_matroids", 5), "minor_code", _off_by_one_contraction_code, 889),
        ("_welsh_duality", _welsh_duality_reference, lambda: corpus("binary_matroids", 5),
         "dual_code", _undualized_code, 170),
        ("_bipartite_loop_complement", _bipartite_loop_complement_reference,
         lambda: corpus("even_binary_delta", 4), "loop_complement_code",
         _lowest_only_loop_complement_code, 58),
        ("_min_deletion", _min_deletion_reference, lambda: corpus("delta", 4),
         "cut_code", _swapped_cut_code, 6441),
        ("_odd_circuit", _odd_circuit_reference, lambda: corpus("binary_delta", 4),
         "cut_code", _swapped_cut_code, 471),
        ("_twist_decomposition", _twist_decomposition_reference,
         lambda: corpus("twist_pairs", 4), "cut_code", _swapped_cut_code, 1140),
        ("_contraction_bipartite", _contraction_bipartite_reference,
         lambda: corpus("delta", 4), "cut_code", _swapped_cut_code, 14120),
        ("_operation_calculus", _operation_calculus_reference,
         lambda: verify._operation_calculus_corpus(5, 3), "cut_code", _swapped_cut_code, 102),
    ],
    ids=[
        "circuit_contraction",
        "welsh_duality",
        "bipartite_loop_complement",
        "swapped_cut_min_deletion",
        "swapped_cut_odd_circuit",
        "swapped_cut_twist_decomposition",
        "swapped_cut_contraction_bipartite",
        "swapped_cut_operation_calculus",
    ],
)
def test_checks_match_object_references_under_code_mutants(
    monkeypatch, check, reference, corpus, name, mutant, failing
):
    """A broken code kernel: the check reports it at a pinned count, and the
    object reference, on the mask kernels, finds nothing on the instances it
    flags, so the differentials above are not vacuous.  The corpus is built
    first: its generators call the code kernels too."""
    items = corpus()
    monkeypatch.setattr(core, name, mutant)
    monkeypatch.setattr(verify, name, mutant)
    got = _violations(getattr(verify, check), items)
    flagged = [items[i] for i in sorted({i for i, _ in got})]
    assert _violations(reference, flagged) == []
    assert len(got) == failing


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite(["no_such_check"])


def test_run_suite_rejects_nonpositive_shards():
    with pytest.raises(ValueError, match="shards must be at least 1"):
        run_suite(["lower_bound"], shards=0)
    # a check called on its own refuses them too, rather than test nothing
    for shards in (0, -1):
        with pytest.raises(ValueError, match="shards must be at least 1"):
            SUITE["lower_bound"](shards=shards)


def test_vacuous_check_does_not_pass():
    (report,) = run_suite(["lower_bound"], max_n=-1)
    assert report.tested == 0
    assert not report.verdict
    assert "verdict: fail" in render_text(report)


def test_enumerate_exhaustive():
    info = enumerate_delta_matroids(2)
    assert info == {
        "n": 2,
        "mode": "exhaustive",
        "total": 15,
        "even": info["even"],
        "binary": info["binary"],
        "bipartite": info["bipartite"],
        "eulerian": info["eulerian"],
    }
    # n = 2: every delta-matroid is binary
    assert info["binary"] == 15
    assert 0 < info["even"] < 15


def test_enumerate_sampled_and_bounds():
    info = enumerate_delta_matroids(5, seed=1, sample_count=30)
    assert info["mode"] == "sample"
    # counts are over draws, which can repeat
    assert info["total"] == 30
    assert info["distinct"] == 29
    with pytest.raises(ValueError):
        enumerate_delta_matroids(7)


@pytest.mark.parametrize(
    "n, counts",
    [
        (0, (1, 1, 1, 1, 1)),
        (1, (3, 2, 3, 1, 2)),
        (2, (15, 6, 15, 3, 10)),
        (3, (155, 30, 135, 20, 105)),
        (4, (5959, 294, 2295, 615, 4554)),
    ],
)
def test_enumerate_exhaustive_counts_are_pinned(n, counts):
    """total, even, binary, bipartite and eulerian over DM(n); the binary
    count agrees with the binary corpus, which a second generator builds."""
    info = enumerate_delta_matroids(n)
    keys = ("total", "even", "binary", "bipartite", "eulerian")
    assert tuple(info[k] for k in keys) == counts
    assert info["binary"] == len(binary_delta_corpus_exact(n))


def test_fmt_system_matches_object_rendering():
    """fmt_system and fmt_set print the bytes of the object rendering on
    every member of DM(<= 3), the empty ground included."""
    instances = corpus("delta", 3)
    assert len(instances) == 174
    for n, code in instances:
        d = system_of(n, code)
        assert verify.fmt_system(n, code) == _render(d)
        assert [verify.fmt_set(x) for x in range(1 << n)] == list(map(d.render_set, range(1 << n)))
    assert verify.fmt_system(0, 1) == _render(system_of(0, 1)) == "(-; {})"


def _count_constructions(monkeypatch):
    """A counter of SetSystem constructions.  Each dataclass subclass has its
    own __init__, and every one of them calls the inherited __post_init__,
    so that is counted, with every _from_canonical."""
    count = [0]
    post_init = SetSystem.__post_init__
    from_canonical = SetSystem._from_canonical.__func__

    def counted_post_init(self):
        count[0] += 1
        post_init(self)

    def counted_from_canonical(cls, ground, family):
        count[0] += 1
        return from_canonical(cls, ground, family)

    monkeypatch.setattr(SetSystem, "__post_init__", counted_post_init)
    monkeypatch.setattr(SetSystem, "_from_canonical", classmethod(counted_from_canonical))
    return count


def test_exhaustive_checks_build_set_systems_only_for_witnesses(monkeypatch):
    """A cold --max-n 5 run of every check on the exhaustive corpora builds
    no more set systems than their recorded witnesses do: the generators
    and the tests work on (n, code) instances."""
    names = [name for name in SUITE if name not in ("operation_calculus", "ribbon_correspondence")]
    for cached in (
        delta_matroids_exact,
        binary_delta_corpus_exact,
        binary_matroids_exact,
        all_symmetric_matrices,
        matroid._classification,
        matroid.classify_twists,
    ):
        cached.cache_clear()
    count = _count_constructions(monkeypatch)
    run_suite(names, max_n=5, seed=3)
    built = count[0]
    count[0] = 0
    for name in names:
        w = SUITE[name].witness
        if w is not None:
            w.converse_fails(w.instance)
    assert 0 < built <= count[0]
