"""Census of small alphabets: counts, classes, and the integer core.

The integer core (exponent masks, batched Hadamard re-check, batched
canonical forms) is compared with the straightforward ``UnitValue``
versions it replaced, kept here as references.
"""

import fractions
import itertools
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest

from chmkit.census import (
    H1_CLASS,
    OTHER_CLASS,
    S6_0_CLASS,
    Alphabet,
    CensusReport,
    _orthogonality_masks,
    bitmasks,
    classify_census,
    cliques,
    enumerate_chms,
)
from chmkit.equivalence import (
    canonical_exponents,
    complex_equivalent,
    dephase,
    dephased_exponents,
    sorted_canonical_form,
)
from chmkit.exactnum import (
    UnitValue,
    _reduction_words,
    _vanishing,
    root_of_unity,
    unit_sum,
)
from chmkit.matrices import Matrix6, _hadamard, apply_monomial, catalog, is_chm


def alphabet(order, exps):
    return Alphabet.of([root_of_unity(e, order) for e in exps])


CUBE = alphabet(3, (0, 1, 2))  # {1, w, w2}
ONE_MINUS_ONE_I = alphabet(4, (0, 2, 1))  # {1, -1, i}
CUBE_AND_MINUS_ONE = alphabet(6, (0, 2, 4, 3))  # {1, w, w2, -1}
SIXTH_W_MINUS_ONE = alphabet(6, (0, 1, 2, 3))  # {1, e(1/6), w, -1}


@pytest.fixture(scope="module")
def cube_report():
    return classify_census(enumerate_chms(CUBE))


@pytest.fixture(scope="module")
def h1_report():
    return classify_census(enumerate_chms(ONE_MINUS_ONE_I))


def exponents(order, matrices):
    return np.array(
        [[[int(v.turn * order) for v in row] for row in m.rows] for m in matrices],
        dtype=np.int64,
    )


# --- references -----------------------------------------------------------


def reference_masks(values):
    """Per-row np.isin over base-7 keys of quotient multisets."""
    k = len(values)
    rows = np.array(list(itertools.product(range(k), repeat=6)), dtype=np.int64)
    products = []
    prod_ids = np.zeros((k, k), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            p = values[a] * values[b].conj()
            if p not in products:
                products.append(p)
            prod_ids[a, b] = products.index(p)
    zero_keys = [
        sum(7**p for p in multiset)
        for multiset in itertools.combinations_with_replacement(range(len(products)), 6)
        if unit_sum([products[p] for p in multiset]).is_zero()
    ]
    weights = 7 ** np.arange(len(products), dtype=np.int64)
    masks = []
    for r in range(len(rows)):
        hits = np.isin(weights[prod_ids[rows[r][None, :], rows]].sum(axis=1), zero_keys)
        hits[r] = False
        packed = np.packbits(hits, bitorder="little").tobytes()
        masks.append(int.from_bytes(packed, "little"))
    return masks


def reference_form(m):
    """Dephase, then sort columns and rows by turn tuples until stable."""
    cur = dephase(m)

    def row_sorted(x):
        return Matrix6(sorted(x.rows, key=lambda r: [v.turn for v in r]))

    for _ in range(12):
        nxt = row_sorted(row_sorted(cur.transpose()).transpose())
        if nxt == cur:
            break
        cur = nxt
    return cur


# --- census results -------------------------------------------------------


def test_cube_alphabet_is_one_s6_0_class(cube_report):
    assert cube_report.raw_count == 5422
    assert not cube_report.incomplete
    assert cube_report.class_labels == (S6_0_CLASS,)
    assert set(cube_report.class_membership) == {0}


def test_one_minus_one_i_is_one_h1_class(h1_report):
    assert h1_report.raw_count == 27
    assert h1_report.node_count == 2816
    assert h1_report.class_labels == (H1_CLASS,)


def test_cube_and_minus_one_is_one_s6_0_class(cube_report):
    report = classify_census(enumerate_chms(CUBE_AND_MINUS_ONE))
    assert report.raw_count == 5509
    assert report.class_labels == (S6_0_CLASS,)
    # -1 adds 87 matrices; the cube alphabet's 5422 are all among them.
    assert set(cube_report.matrices) <= set(report.matrices)


def test_four_letter_census_runs_end_to_end():
    report = enumerate_chms(alphabet(4, (0, 1, 2, 3)))  # {1, -1, i, -i}
    assert report.raw_count == 535544
    assert report.node_count == 1591634
    assert not report.incomplete
    assert classify_census(report).class_labels == (H1_CLASS,)


def test_exact_paths_construct_no_fraction(monkeypatch):
    # A certificate's UnitValue phases are built once per exponent and
    # order and then shared, so one warm-up pass of each check fills
    # what the counted pass may reuse.
    cube = alphabet(3, (0, 1, 2))
    s60 = catalog("S6_0")
    image = apply_monomial(
        s60, (3, 0, 5, 1, 4, 2), [root_of_unity(k, 12) for k in (1, 5, 0, 7, 3, 11)],
        (2, 4, 0, 1, 5, 3), [root_of_unity(k, 12) for k in (6, 2, 9, 4, 0, 8)],
    )
    checks = (
        lambda: classify_census(enumerate_chms(cube)).class_labels == (S6_0_CLASS,),
        lambda: complex_equivalent(image, s60) is not None,
    )
    made = []
    original = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    for check in checks:
        assert check()
        monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
        assert check()
        monkeypatch.undo()
        assert made == []
    # the counter does see the Fraction route
    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    assert (s60[1][2] * s60[2][1]).turn == fractions.Fraction(2, 3)
    monkeypatch.undo()
    assert made


def test_every_emitted_matrix_is_hadamard(h1_report):
    assert all(is_chm(m) for m in h1_report.matrices)


def test_column_reduction_oracle(h1_report):
    full = classify_census(enumerate_chms(ONE_MINUS_ONE_I, column_reduction=False))
    assert full.raw_count == 912
    assert set(h1_report.matrices) <= set(full.matrices)
    assert full.class_labels == (H1_CLASS,)


def test_budget_marks_report_incomplete():
    report = enumerate_chms(ONE_MINUS_ONE_I, budget=100)
    assert report.incomplete
    assert report.node_count == 101
    with pytest.raises(ValueError, match="incomplete"):
        classify_census(report)
    assert not enumerate_chms(ONE_MINUS_ONE_I, budget=2816).incomplete


@pytest.mark.parametrize("seed", range(4))
def test_cliques_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    n = rng.randint(12, 20)
    graph = nx.gnp_random_graph(n, rng.uniform(0.4, 0.7), seed=seed)
    masks = [sum(1 << j for j in graph[i]) for i in range(n)]
    free = (0,) * n
    every = [tuple(sorted(c)) for c in nx.enumerate_all_cliques(graph)]
    for size in range(2, 6):
        want = sorted(c for c in every if len(c) == size)

        def search(**options):
            return cliques(masks, size, range(n), free, free, **options)

        found, nodes, cut = search()
        assert (found, cut) == (want, False)
        assert search(first=True)[0] == want[:1]
        assert search(limit=nodes) == (want, nodes, False)
        for limit in (0, nodes // 2, nodes - 1):
            part, used, cut = search(limit=limit)
            assert (used, cut) == (limit + 1, True)
            assert part == want[:len(part)]


def test_representative_outside_known_classes_is_logged(caplog):
    f6 = catalog("F6")
    report = CensusReport(
        alphabet=SIXTH_W_MINUS_ONE,
        matrices=(f6,),
        raw_count=1,
        class_representatives=(f6,),
        class_membership=(0,),
        class_labels=None,
        node_count=0,
        wall_time_ms=0.0,
        incomplete=False,
        budget=None,
    )
    with caplog.at_level(logging.WARNING, logger="chmkit.census"):
        labeled = classify_census(report)
    assert labeled.class_labels == (OTHER_CLASS,)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "outside the known classes" in caplog.records[0].getMessage()


@pytest.mark.parametrize(
    "values",
    [
        [UnitValue.from_float(1.0, 0.0), root_of_unity(1, 3), root_of_unity(2, 3)],
        [1.0, root_of_unity(1, 3), root_of_unity(2, 3)],
    ],
    ids=["float-mode-unit-value", "bare-float"],
)
def test_alphabet_rejects_inexact_values(values):
    with pytest.raises(ValueError, match="exact unit values"):
        Alphabet.of(values)


# --- integer core against the references ----------------------------------


def mask_case(alpha, nonzero):
    return pytest.param(alpha, nonzero, id=str(alpha))


@pytest.mark.parametrize(
    "alpha, nonzero",
    [
        mask_case(CUBE, 729),
        mask_case(ONE_MINUS_ONE_I, 729),
        mask_case(SIXTH_W_MINUS_ONE, 4096),
        mask_case(alphabet(2, (0, 1)), 64),  # {1, -1}
        # no half-sum meets a negated one: the all-zero early return
        mask_case(alphabet(10, (0, 1, 2)), 0),
        # {1, e(1/105), w}: order 105 packs into four words, whose codes
        # are combined
        mask_case(alphabet(105, (0, 1, 35)), 260),
    ],
)
def test_masks_match_reference(alpha, nonzero):
    order = math.lcm(*(v.turn.denominator for v in alpha.values))
    exps = np.array([int(v.turn * order) for v in alpha.values], dtype=np.int64)
    masks = _orthogonality_masks(exps, _reduction_words(order))
    assert masks == reference_masks(alpha.values)
    assert sum(1 for m in masks if m) == nonzero


def test_four_letter_masks_are_gathered_in_blocks():
    # The 4096 x 4096 boolean matrix alone would take 16 MB; the masks
    # themselves take about 2 MB. The warm call fills the caches.
    exps = np.array([0, 1, 2, 3], dtype=np.int16)  # {1, i, -1, -i}
    words = _reduction_words(4)
    _orthogonality_masks(exps, words)
    tracemalloc.start()
    try:
        _orthogonality_masks(exps, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


@pytest.mark.parametrize(
    "seed, shape", enumerate([(1, 1), (5, 13), (64, 64), (40, 729), (9, 4096)])
)
def test_bitmasks_match_per_row_packbits(seed, shape):
    rng = np.random.default_rng(seed)
    hits = rng.random(shape) < 0.2
    hits[::3] = False
    want = [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in hits
    ]
    assert bitmasks(hits) == want


@pytest.mark.parametrize("order", [2, 3, 4, 6, 8, 10, 12])
def test_vanishing_matches_unit_sum(order):
    multisets = np.array(
        list(itertools.combinations_with_replacement(range(order), 6)), dtype=np.int64
    )
    want = [
        unit_sum([root_of_unity(int(e), order) for e in m]).is_zero() for m in multisets
    ]
    words = _reduction_words(order)
    assert _vanishing(words, multisets).tolist() == want
    # exponents below zero wrap mod order
    assert _vanishing(words, multisets - order).tolist() == want


def test_batched_hadamard_matches_is_chm(cube_report):
    rng = random.Random(7)
    sample = rng.sample(cube_report.matrices, 50)
    broken = []
    for m in sample:
        rows = [list(r) for r in m.rows]
        i, j = rng.randrange(6), rng.randrange(6)
        rows[i][j] = rows[i][j] * root_of_unity(1, 3)
        broken.append(Matrix6(rows))
    matrices = sample + broken
    got = _hadamard(_reduction_words(3), exponents(3, matrices))
    assert got.tolist() == [is_chm(m) for m in matrices]
    assert got.tolist() == [True] * 50 + [False] * 50


def test_canonical_forms_match_reference(cube_report, h1_report):
    sample = random.Random(11).sample(cube_report.matrices, 100)
    for order, matrices in ((3, sample), (4, h1_report.matrices)):
        want = [reference_form(m) for m in matrices]
        assert [sorted_canonical_form(m) for m in matrices] == want
        batch = dephased_exponents(order, exponents(order, matrices))
        assert exponents(order, want).tolist() == canonical_exponents(batch).tolist()
