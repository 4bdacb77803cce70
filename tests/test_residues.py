"""Unit tests for the residue-shadow machinery and combinatorial closers."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chmkit.arrays import CountArray, STRUCTURES, enumerate_count_arrays
from chmkit.residues import (
    MOD5,
    MOD7,
    CompletionReport,
    Contradiction,
    EdgeColoring,
    GroupMap,
    PigeonholeWitness,
    Undefined,
    _admissibility_masks,
    _canonical,
    _family_closure,
    _stabilizer_blocks,
    array_residue_sum,
    complete_rows,
    completion_depth,
    edge_coloring_from_rows,
    f_image,
    pairwise_admissible,
    pigeonhole_pair_check,
    ramsey_check,
    residue_inner_product,
    residue_map,
    z7_sum_filter,
)

CONJ = STRUCTURES["CONJ"]
GENERIC = STRUCTURES["GENERIC"]


# --- the two residue tables -------------------------------------------------


def test_mod5_table():
    assert MOD5.modulus == 5
    assert MOD5.names == ("1", "a", "a~", "a2", "a~2")
    assert MOD5.residues == (0, 1, 4, 2, 3)
    assert [MOD5.value(s) for s in MOD5.names] == [0, 1, 4, 2, 3]
    assert MOD5.value((2,)) == 2


def test_mod7_table():
    assert MOD7.modulus == 7
    assert MOD7.residues == (0, 1, 6, 5, 2, 3, 4)
    assert MOD7.value("ab~") == 3
    assert MOD7.value((-1, 1)) == 4


def test_inverse_symbol_convention():
    assert [MOD5.inverse_symbol(r) for r in range(5)] == [
        "1", "a", "a2", "a~2", "a~",
    ]
    with pytest.raises(Undefined):
        GroupMap(5, "CONJ", ("1",), ((0,),), (0,)).inverse_symbol(3)


def test_conjugation_negates_residues():
    for gmap in (MOD5, MOD7):
        for name, res in zip(gmap.names, gmap.residues):
            assert gmap.conjugate_residue(res) == (-res) % gmap.modulus


def test_undefined_product():
    with pytest.raises(Undefined):
        MOD5.product_value("a2", "a2")   # a^4 has no symbol
    with pytest.raises(Undefined):
        MOD7.product_value("a", "ab~")   # a^2 conj(b) has no symbol


def test_mod5_defined_products_are_additive():
    pairs = list(MOD5.defined_products())
    assert len(pairs) == 19
    for x, y in pairs:
        got = MOD5.product_value(x, y)
        assert got == (MOD5.value(x) + MOD5.value(y)) % 5


def test_mod7_defined_products_are_additive():
    for x, y in MOD7.defined_products():
        assert MOD7.product_value(x, y) == (MOD7.value(x) + MOD7.value(y)) % 7


def test_residue_map_over_symbols():
    assert residue_map(MOD5, ["1", "a", "a~", "a2"]) == (0, 1, 4, 2)
    with pytest.raises(Undefined):
        residue_map(MOD5, ["b"])


# --- inner products -----------------------------------------------------------


def test_inner_product_componentwise_difference():
    ip = residue_inner_product(MOD5, (0, 1, 2, 3, 4, 0), (1, 1, 0, 4, 4, 2))
    assert ip.residues == (4, 0, 2, 4, 0, 3)
    assert ip.symbols == ("a~", "1", "a2", "a~", "1", "a~2")
    assert ip.total == 13
    assert ip.total_mod == 3
    assert ip.multiset == (0, 0, 2, 3, 4, 4)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        residue_inner_product(MOD5, (0, 1), (0, 1, 2))


@given(
    st.lists(st.integers(0, 4), min_size=6, max_size=6),
    st.lists(st.integers(0, 4), min_size=6, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_inner_product_antisymmetry(x, y):
    ij = residue_inner_product(MOD5, x, y)
    ji = residue_inner_product(MOD5, y, x)
    assert ij.multiset == tuple(sorted((-v) % 5 for v in ji.residues))
    assert (ij.total + ji.total) % 5 == 0


# --- weights of count arrays ----------------------------------------------------


_CONJ_SUMS = {
    (0, 1, 1, 2, 2): 15,
    (0, 2, 2, 1, 1): 15,
    (1, 2, 1, 2, 0): 10,
    (1, 1, 2, 0, 2): 15,
    (1, 2, 1, 0, 2): 12,
    (1, 1, 2, 2, 0): 13,
}

_CONJ_IMAGES = {
    (0, 1, 1, 2, 2): (1, 2, 2, 3, 3, 4),
    (0, 2, 2, 1, 1): (1, 1, 2, 3, 4, 4),
    (1, 2, 1, 2, 0): (0, 1, 1, 2, 2, 4),
    (1, 1, 2, 0, 2): (0, 1, 3, 3, 4, 4),
    (1, 2, 1, 0, 2): (0, 1, 1, 3, 3, 4),
    (1, 1, 2, 2, 0): (0, 1, 2, 2, 4, 4),
}


def test_array_residue_sums():
    for counts, want in _CONJ_SUMS.items():
        assert array_residue_sum(MOD5, CountArray(CONJ, counts)) == want


def test_array_residue_sum_structure_guard():
    with pytest.raises(ValueError):
        array_residue_sum(MOD5, CountArray(GENERIC, (0, 1, 1, 1, 1, 1, 1)))
    with pytest.raises(ValueError):
        f_image(MOD7, CountArray(CONJ, (0, 1, 1, 2, 2)))


def test_f_images():
    for counts, want in _CONJ_IMAGES.items():
        assert f_image(MOD5, CountArray(CONJ, counts)) == want


def test_f_image_sum_consistency():
    for counts in _CONJ_SUMS:
        arr = CountArray(CONJ, counts)
        assert sum(f_image(MOD5, arr)) == array_residue_sum(MOD5, arr)


def test_z7_filter_over_catalogue():
    from chmkit.arrays import _GENERIC_PRINTED_LISTS

    all31 = [
        CountArray(GENERIC, c)
        for rows in _GENERIC_PRINTED_LISTS.values()
        for c in rows
    ]
    kept = z7_sum_filter(all31)
    assert len(kept) == 10
    tail = [
        CountArray(GENERIC, c)
        for fam in ("N.2", "N.3", "N.4", "N.5")
        for c in _GENERIC_PRINTED_LISTS[fam]
    ]
    survivors = sorted(a.counts for a in z7_sum_filter(tail))
    assert survivors == [
        (0, 1, 1, 1, 1, 1, 1),
        (1, 1, 0, 1, 1, 2, 0),
        (1, 1, 1, 0, 2, 1, 0),
        (1, 2, 0, 1, 0, 1, 1),
    ]


# --- completions ------------------------------------------------------------------


_ZERO6 = (0,) * 6
_M1 = (1, 2, 2, 3, 3, 4)
_M2 = (1, 1, 2, 3, 4, 4)


def test_third_row_completion_m1():
    report = complete_rows(MOD5, [_ZERO6, _M1], [_M1])
    assert report.rows == ((3, 3, 4, 1, 2, 2),)
    assert len(report.raw) == 4
    assert report.blocks == ((1, 2), (3, 4))
    assert not report.is_contradiction()


def test_fourth_row_contradiction_m1():
    third = complete_rows(MOD5, [_ZERO6, _M1], [_M1]).rows[0]
    report = complete_rows(MOD5, [_ZERO6, _M1, third], [_M1])
    assert report.is_contradiction()
    cert = report.certificate
    assert isinstance(cert, Contradiction)
    assert cert.candidates == 180
    assert cert.sample == (1, 2, 2, 3, 3, 4)
    assert cert.against == (1, 2, 2, 3, 3, 4)
    assert cert.image == (0, 0, 0, 0, 0, 0)


def test_third_row_completion_m2():
    report = complete_rows(MOD5, [_ZERO6, _M2], [_M2])
    assert report.rows == ((2, 4, 1, 4, 1, 3),)
    assert len(report.raw) == 4


def test_completion_requires_fixed_rows():
    with pytest.raises(ValueError):
        complete_rows(MOD5, [], [_M1])


def test_admissibility_keys_must_fit_int64():
    """Width-6 count keys mod m are base-7 numbers of m digits: 7**22 fits
    in int64 and 7**23 does not."""
    fits = GroupMap(22, "CONJ", ("1",), ((0,),), (0,))
    assert _admissibility_masks(fits, [_ZERO6], [_ZERO6], {_ZERO6}) == [1]
    wide = GroupMap(23, "CONJ", ("1",), ((0,),), (0,))
    with pytest.raises(ValueError):
        _admissibility_masks(wide, [_ZERO6], [_ZERO6], {_ZERO6})


_MOD7_CASES = {
    (0, 1, 2, 2, 3, 6): (
        (1, 6, 0, 2, 2, 3),
        (2, 0, 2, 3, 6, 1),
        (2, 3, 1, 2, 6, 0),
        (6, 2, 0, 2, 1, 3),
    ),
    (0, 1, 2, 3, 3, 5): (
        (2, 5, 1, 0, 3, 3),
        (3, 2, 0, 3, 5, 1),
        (3, 2, 5, 1, 3, 0),
        (5, 3, 1, 0, 3, 2),
    ),
    (0, 1, 1, 3, 4, 5): (
        (1, 1, 4, 0, 5, 3),
        (1, 1, 5, 4, 0, 3),
        (3, 0, 1, 5, 1, 4),
        (4, 0, 1, 5, 3, 1),
    ),
}


def test_mod7_third_row_orbits():
    for fixed_row, reps in _MOD7_CASES.items():
        report = complete_rows(MOD7, [_ZERO6, fixed_row], [fixed_row])
        assert report.rows == reps, fixed_row
        assert len(report.raw) == 8


def test_mod7_candidates_never_pair_up():
    """No two completions tolerate each other, killing row 4 onward."""
    for fixed_row in _MOD7_CASES:
        raw = complete_rows(MOD7, [_ZERO6, fixed_row], [fixed_row]).raw
        admissible = [
            (x, y)
            for x, y in itertools.combinations(raw, 2)
            if pairwise_admissible(MOD7, x, y, [fixed_row])
        ]
        assert admissible == []


def test_completion_depth_values():
    assert completion_depth(
        MOD5, [(0, 1, 1, 2, 2, 4), (0, 1, 3, 3, 4, 4)]
    ) == 4
    assert completion_depth(MOD5, [_M1]) == 3


def test_completion_depth_cap():
    # the zero row alone can always be repeated under target (0,...,0)
    assert completion_depth(MOD5, [_ZERO6], max_rows=4) == 4


@pytest.mark.parametrize("call", [
    lambda: completion_depth(MOD5, []),
    lambda: completion_depth(MOD5, [_M1, (1, 2, 3)]),
    lambda: complete_rows(MOD5, [_ZERO6, _M1], []),
    lambda: complete_rows(MOD5, [_ZERO6, _M1], [_M1, (1, 2, 3)]),
    lambda: complete_rows(MOD5, [_ZERO6, (1, 2, 3)], [_M1]),
], ids=["depth-empty", "depth-ragged", "rows-empty", "rows-ragged",
        "rows-short-fixed"])
def test_completion_rejects_empty_or_ragged_input(call):
    with pytest.raises(ValueError):
        call()


# --- the bitmask kernel against the searches it replaced ----------------------


def _k_factorial_depth(gmap, target, max_rows=6):
    """The depth-first search that tries every ordering of the rows."""
    m = gmap.modulus
    fam = _family_closure(gmap, target)
    candidates = set()
    for ms in target:
        candidates.update(itertools.permutations(tuple(v % m for v in ms)))
    candidates = sorted(candidates)
    zero = (0,) * len(candidates[0])
    best = 1

    def extend(rows):
        nonlocal best
        best = max(best, len(rows))
        if best >= max_rows:
            return True
        for y in candidates:
            if all(
                tuple(sorted((xi - yi) % m for xi, yi in zip(x, y))) in fam
                for x in rows
            ):
                if extend(rows + [y]):
                    return True
        return False

    extend([zero])
    return best


def _scalar_complete_rows(gmap, fixed, target):
    """The per-candidate loop over scalar inner products."""
    fixed = [tuple(int(v) % gmap.modulus for v in row) for row in fixed]
    fam = _family_closure(gmap, target)
    candidates = set()
    for ms in target:
        candidates.update(
            itertools.permutations(tuple(v % gmap.modulus for v in ms))
        )
    found = []
    first_violation = None
    for y in sorted(candidates):
        verdict = None
        for x in fixed:
            image = residue_inner_product(gmap, x, y).multiset
            if image not in fam:
                verdict = (x, image)
                break
        if verdict is None:
            found.append(y)
        elif first_violation is None:
            first_violation = (y, *verdict)
    blocks = _stabilizer_blocks(fixed)
    reps = sorted({_canonical(y, blocks) for y in found})
    certificate = None
    if not found and first_violation is not None:
        sample, against, image = first_violation
        certificate = Contradiction(len(candidates), sample, against, image)
    return CompletionReport(tuple(reps), tuple(found), blocks, certificate)


# The f-images of the NonSimple arrays whose depth the closers run, less
# the two MOD7 images on which the k! search takes over 5 s:
# (0,1,2,3,3,5) and (0,1,1,3,4,5).
_DEPTH_IMAGES = (
    (MOD5, (1, 2, 2, 3, 3, 4)),
    (MOD5, (1, 1, 2, 3, 4, 4)),
    (MOD5, (0, 1, 1, 3, 3, 4)),
    (MOD5, (0, 1, 2, 2, 4, 4)),
    (MOD7, (2, 3, 3, 4, 4, 5)),
    (MOD7, (2, 2, 3, 4, 5, 5)),
    (MOD7, (1, 3, 3, 4, 4, 6)),
    (MOD7, (1, 2, 3, 4, 5, 6)),
    (MOD7, (1, 2, 2, 5, 5, 6)),
    (MOD7, (1, 1, 3, 4, 6, 6)),
    (MOD7, (1, 1, 2, 5, 6, 6)),
)


@pytest.mark.parametrize("gmap, image", _DEPTH_IMAGES,
                         ids=[f"mod{g.modulus}-{i}" for g, i in _DEPTH_IMAGES])
def test_clique_depth_matches_k_factorial_search(gmap, image):
    # The old search returns min(its depth, max_rows) for every cap up
    # to the one it ran with, so one run at 6 covers the caps 2..6.
    full = _k_factorial_depth(gmap, [image])
    for max_rows in range(2, 7):
        assert completion_depth(gmap, [image], max_rows) == min(full, max_rows)


@pytest.mark.parametrize("target", [[_ZERO6], [_M1, _ZERO6]])
def test_clique_depth_zero_target_matches_k_factorial_search(target):
    for max_rows in range(0, 7):
        want = _k_factorial_depth(MOD5, target, max_rows)
        assert completion_depth(MOD5, target, max_rows) == want


def _networkx_depth(gmap, image):
    """1 + the clique number of the zero row's admissible neighbours.

    Independent of the kernel: admissibility compares residue counts
    instead of sorted keys, and networkx finds the cliques.
    """
    nx = pytest.importorskip("networkx")
    m = gmap.modulus
    family = {
        tuple(np.bincount([s * v % m for v in image], minlength=m))
        for s in (1, -1)
    }

    def admitted(diff):
        counts = (diff[..., None] == np.arange(m)).sum(axis=-2)
        return np.logical_or.reduce([(counts == f).all(axis=-1) for f in family])

    rows = np.array(sorted(set(itertools.permutations(image))), dtype=np.int8)
    rows = rows[admitted(-rows % m)]
    graph = nx.from_numpy_array(admitted((rows[:, None] - rows[None, :]) % m))
    return 1 + max((len(c) for c in nx.find_cliques(graph)), default=0)


# The 13 NonSimple GENERIC arrays that survive z7_sum_filter.
_Z7_SURVIVORS = (
    (0, 0, 0, 1, 1, 2, 2), (0, 0, 0, 2, 2, 1, 1), (0, 1, 1, 0, 0, 2, 2),
    (0, 1, 1, 1, 1, 1, 1), (0, 1, 1, 2, 2, 0, 0), (0, 2, 2, 0, 0, 1, 1),
    (0, 2, 2, 1, 1, 0, 0), (1, 0, 1, 1, 1, 0, 2), (1, 0, 2, 0, 1, 1, 1),
    (1, 1, 0, 1, 1, 2, 0), (1, 1, 1, 0, 2, 1, 0), (1, 1, 1, 2, 0, 0, 1),
    (1, 2, 0, 1, 0, 1, 1),
)


def test_clique_depth_matches_networkx_oracle():
    sample = random.Random(6).sample(enumerate_count_arrays(GENERIC), 24)
    sample += [CountArray(GENERIC, c) for c in _Z7_SURVIVORS]
    cases = [(MOD5, a) for a in enumerate_count_arrays(CONJ)]
    cases += [(MOD7, a) for a in sample]
    assert len(cases) == 45 + 37
    for gmap, array in cases:
        image = f_image(gmap, array)
        want = _networkx_depth(gmap, image)
        assert completion_depth(gmap, [image], max_rows=10**6) == want, image
        assert completion_depth(gmap, [image]) == min(want, 6), image


def _random_completion_cases(rng, gmap, width):
    """Seeded complete_rows cases of one width: one to three target
    multisets, the zero multiset in some, and one to three fixed rows,
    each a permutation of a target multiset or a row from nowhere."""
    m = gmap.modulus
    cases = []
    for _ in range(4):
        target = [
            tuple(sorted(rng.randrange(m) for _ in range(width)))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.3:
            target.append((0,) * width)
        fixed = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                fixed.append(tuple(rng.sample(rng.choice(target), width)))
            else:
                fixed.append(tuple(rng.randrange(m) for _ in range(width)))
        cases.append((gmap, fixed, target))
    return cases


def test_complete_rows_matches_scalar_loop():
    cases = [
        (MOD5, [_ZERO6, _M1], [_M1]),
        (MOD5, [_ZERO6, _M1, (3, 3, 4, 1, 2, 2)], [_M1]),
        (MOD5, [_ZERO6, _M2], [_M2]),
        # differences (1, 1, 1) against the target (0, 0, 2): their counts
        # agree as base-2 numbers, so a key base below width + 1 admits them
        (MOD5, [(1, 1, 3)], [(0, 0, 2)]),
        (MOD7, [(1, 1, 3), (0, 2, 0)], [(0, 0, 2), (1, 1, 1)]),
    ]
    for fixed_row, reps in _MOD7_CASES.items():
        cases.append((MOD7, [_ZERO6, fixed_row], [fixed_row]))
        cases += [(MOD7, [_ZERO6, fixed_row, r], [fixed_row]) for r in reps]
    rng = random.Random(16)
    for gmap in (MOD5, MOD7):
        for width in range(1, 7):
            cases += _random_completion_cases(rng, gmap, width)
    assert any(len(fixed) == 1 for _, fixed, _ in cases)
    assert any((0,) * len(t[0]) in t for _, _, t in cases)
    for gmap, fixed, target in cases:
        assert complete_rows(gmap, fixed, target) == _scalar_complete_rows(
            gmap, fixed, target
        )


# --- edge colorings and the triangle argument ---------------------------------


def test_edge_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(4, (0, 1, 0))
    with pytest.raises(ValueError):
        EdgeColoring(3, (0, 2, 1))


def test_edge_indexing_round_trip():
    col = EdgeColoring.from_integer(5, 0b1010101010)
    seen = set()
    for i in range(5):
        for j in range(i + 1, 5):
            seen.add(col.edge_index(i, j))
    assert seen == set(range(10))
    with pytest.raises(ValueError):
        col.edge_index(3, 3)


def test_monochromatic_triangle_detection():
    all_same = EdgeColoring(3, (1, 1, 1))
    assert all_same.monochromatic_triangle() == (0, 1, 2, 1)
    mixed = EdgeColoring(3, (0, 1, 1))
    assert mixed.monochromatic_triangle() is None


def test_ramsey_holds_at_six():
    report = ramsey_check(6)
    assert report.holds
    assert report.checked == 2 ** 15
    assert report.counterexample is None


def test_ramsey_fails_at_five():
    report = ramsey_check(5)
    assert not report.holds
    assert report.counterexample.colors == (0, 0, 1, 1, 1, 0, 1, 1, 0, 0)
    assert report.counterexample.monochromatic_triangle() is None


def test_ramsey_bounds_guarded():
    with pytest.raises(ValueError):
        ramsey_check(2)
    with pytest.raises(ValueError):
        ramsey_check(9)


def test_pigeonhole_pair_check():
    wit = pigeonhole_pair_check(
        [("a", "b"), ("a", "b"), ("b", "a"), ("a", "b"), ("b", "a")]
    )
    assert isinstance(wit, PigeonholeWitness)
    assert wit.pair == ("a", "b")
    assert wit.count == 3
    assert wit.indices == (0, 1, 3)
    assert wit.submatrix == (("a", "b"),) * 3


def test_pigeonhole_input_validation():
    with pytest.raises(ValueError):
        pigeonhole_pair_check([("a", "b")] * 4)
    with pytest.raises(ValueError):
        pigeonhole_pair_check([("a", "c")] * 5)


def test_edge_coloring_from_rows():
    ref = CountArray(GENERIC, (0, 1, 1, 1, 1, 1, 1))
    rows = [
        ["1", "1", "a", "a", "b", "b"],
        ["a", "b", "1", "b", "1", "a"],
    ]
    col = edge_coloring_from_rows(rows, ref)
    assert col.n == 2
    assert col.colors == (0,)


def test_edge_coloring_from_rows_rejects_other_profiles():
    ref = CountArray(GENERIC, (0, 1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="product profile"):
        edge_coloring_from_rows(
            [["1", "1", "1", "1", "1", "1"], ["1", "1", "1", "1", "1", "1"]],
            ref,
        )
    with pytest.raises(ValueError, match="not over"):
        edge_coloring_from_rows(
            [["1", "1", "c", "a", "b", "b"], ["a", "b", "1", "b", "1", "a"]],
            ref,
        )
