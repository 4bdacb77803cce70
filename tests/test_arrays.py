"""Unit tests for count-array enumeration, screening, and classification."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from chmkit.arrays import (
    STRUCTURES,
    CountArray,
    PendingTerms,
    Relation,
    UnsupportedPendingShape,
    _descend,
    classify_array,
    conjugate_canonical,
    enumerate_count_arrays,
    is_simple,
    nonsimple_witness_search,
    original_equation,
    pending_terms,
    realness_cases,
    structure,
)
from chmkit.exactnum import OMEGA, root_of_unity
from chmkit.solve import LaurentPoly, solve_torus


CONJ = STRUCTURES["CONJ"]
NEGCONJ = STRUCTURES["NEGCONJ"]
GENERIC = STRUCTURES["GENERIC"]
REAL1 = STRUCTURES["REAL1"]


# --- structures and enumeration -------------------------------------------


def test_structure_lookup():
    assert structure("CONJ") is CONJ
    with pytest.raises(ValueError):
        structure("OCTONION")


def test_conjugation_permutations_are_involutions():
    for struct in STRUCTURES.values():
        perm = struct.conj_perm
        assert sorted(perm) == list(range(struct.k))
        assert all(perm[perm[i]] == i for i in range(struct.k))


def test_term_strings():
    assert CONJ.term_str(0) == "1"
    assert CONJ.term_str(1) == "a^1"
    assert CONJ.term_str(2) == "a^-1"
    assert NEGCONJ.term_str(2) == "-a^1"
    assert GENERIC.term_str(5) == "a^1*b^-1"
    assert REAL1.term_str(1) == "-1"


def test_enumeration_counts():
    assert len(enumerate_count_arrays(CONJ)) == 45
    assert len(enumerate_count_arrays(NEGCONJ)) == 357
    assert len(enumerate_count_arrays(GENERIC)) == 357
    assert len(enumerate_count_arrays(REAL1)) == 141


def test_enumeration_matches_direct_count():
    # stars-and-bars restricted to entries <= 2, computed independently
    for struct in STRUCTURES.values():
        direct = sum(
            1
            for c in itertools.product((0, 1, 2), repeat=struct.k)
            if sum(c) == 6
        )
        assert len(enumerate_count_arrays(struct)) == direct


def test_enumeration_with_excluded_appends_flagged():
    full = enumerate_count_arrays(CONJ, include_excluded=True)
    main = enumerate_count_arrays(CONJ)
    assert full[: len(main)] == main
    assert all(a.rank1_excluded for a in full[len(main):])
    assert all(sum(a.counts) == 6 for a in full)


def test_count_array_validation():
    with pytest.raises(ValueError):
        CountArray(CONJ, (1, 1, 1, 1))        # wrong arity
    with pytest.raises(ValueError):
        CountArray(CONJ, (1, 1, 1, 1, 1))     # sums to 5
    with pytest.raises(ValueError):
        CountArray(CONJ, (-1, 2, 2, 2, 1))    # negative


def test_structure_specific_properties_guarded():
    neg = CountArray(NEGCONJ, (0, 2, 0, 0, 2, 1, 1))
    assert neg.borrowed_pairs == 2
    with pytest.raises(ValueError):
        CountArray(CONJ, (2, 1, 1, 1, 1)).borrowed_pairs
    real = CountArray(REAL1, (1, 1, 2, 0, 1, 1))
    assert real.cos_pair_coefficient == 2
    with pytest.raises(ValueError):
        neg.cos_pair_coefficient


def test_conjugate_and_canonical():
    a = CountArray(GENERIC, (1, 1, 2, 0, 0, 0, 2))
    assert a.conjugate().counts == (1, 2, 1, 0, 0, 2, 0)
    assert a.conjugate().conjugate() == a
    canon = conjugate_canonical(a)
    assert canon.counts == min(a.counts, a.conjugate().counts)
    assert conjugate_canonical(canon) == canon


def test_original_equation_examples():
    p = original_equation(CountArray(CONJ, (0, 1, 1, 2, 2)))
    assert p == LaurentPoly(("a",), {1: 1, -1: 1, 2: 2, -2: 2})
    q = original_equation(CountArray(NEGCONJ, (1, 0, 2, 0, 0, 2, 1)))
    assert q == LaurentPoly(("a",), {0: 1, 1: -2, 2: -2, -2: -1})
    r = original_equation(CountArray(GENERIC, (1, 1, 2, 0, 0, 0, 2)))
    assert r == LaurentPoly(("a", "b"), {(0, 0): 1, (1, 0): 1, (-1, 0): 2, (-1, 1): 2})


# --- pending terms ----------------------------------------------------------


def test_pending_terms_conj():
    pend = pending_terms(CountArray(CONJ, (1, 1, 1, 1, 2)))
    assert pend == PendingTerms(LaurentPoly(("a",), {-2: 1}), 1)
    assert pending_terms(CountArray(CONJ, (2, 2, 2, 0, 0))).amount == 0
    assert pending_terms(CountArray(CONJ, (0, 1, 1, 2, 2))).amount == 0


def test_pending_terms_negconj_borrowing():
    pend = pending_terms(CountArray(NEGCONJ, (0, 2, 0, 0, 2, 1, 1)))
    assert pend.amount == 4
    assert pend.poly == LaurentPoly(("a",), {1: 4})
    zero = pending_terms(CountArray(NEGCONJ, (2, 1, 0, 1, 0, 1, 1)))
    assert zero.amount == 0


def test_pending_terms_real1_cancellation():
    pend = pending_terms(CountArray(REAL1, (0, 2, 2, 0, 1, 1)))
    assert pend == PendingTerms(LaurentPoly(("a",), {1: 2}), 2)
    # a + conj(a) is real, so a matched pair cancels completely
    assert pending_terms(CountArray(REAL1, (1, 1, 2, 1, 1, 0))).amount == 0
    assert pending_terms(CountArray(REAL1, (2, 2, 1, 1, 0, 0))).amount == 0


def test_pending_terms_generic_counts_all_unmatched():
    pend = pending_terms(CountArray(GENERIC, (1, 1, 2, 0, 0, 0, 2)))
    assert pend.amount == 3
    assert pend.poly == LaurentPoly(
        ("a", "b"), {(-1, 0): 1, (-1, 1): 2}
    )


@given(st.sampled_from(enumerate_count_arrays(NEGCONJ)))
@settings(max_examples=100, deadline=None)
def test_pending_imaginary_part_matches_original(array):
    """The sign rewrite must preserve the imaginary part exactly."""
    p = original_equation(array)
    pend = pending_terms(array).poly
    for k in range(1, 12):
        z = cmath.exp(2j * math.pi * k / 25)
        if p.is_zero():
            orig = 0.0
        else:
            orig = p.evaluate(z).imag
        got = 0.0 if pend.is_zero() else pend.evaluate(z).imag
        assert abs(orig - got) < 1e-9


# --- realness dichotomies ---------------------------------------------------


def _relation_holds(rel: Relation, turns: dict) -> bool:
    lhs = sum(e * turns[i] for i, e in enumerate(rel.lhs_exps))
    rhs = sum(e * turns[i] for i, e in enumerate(rel.rhs_exps))
    shift = Fraction(1, 2) if rel.rhs_sign < 0 else Fraction(0)
    return (lhs - rhs - shift) % 1 == 0


def _eval_at(p: LaurentPoly, turns: dict) -> complex:
    pts = [cmath.exp(2j * math.pi * float(turns[i])) for i in range(len(p.variables))]
    return p.evaluate(*pts)


_SHAPES_2VAR = [
    LaurentPoly(("a", "b"), {(1, 0): 1, (0, 1): 1}),
    LaurentPoly(("a", "b"), {(1, 0): 1, (0, 1): 1, (1, 1): 1}),
    LaurentPoly(("a", "b"), {(1, 0): 1, (0, 1): 1, (1, -1): 1}),
    LaurentPoly(("a", "b"), {(1, 0): 1, (0, 1): 1, (-1, -1): 1}),
]


def test_realness_single_monomial():
    rels = realness_cases(LaurentPoly(("a",), {2: 3}))
    assert [str(r) for r in rels] == ["a^2 = a^-2", "a^2 = -a^-2"]


def test_realness_two_term_sum():
    rels = realness_cases(LaurentPoly(("a", "b"), {(1, 0): 2, (0, 1): 2}))
    assert [str(r) for r in rels] == ["b^1 = a^-1", "b^1 = -a^1"]


def test_realness_product_shape():
    rels = realness_cases(_SHAPES_2VAR[1])
    assert [str(r) for r in rels] == ["b^1 = a^-1", "b^1 = -1", "a^1 = -1"]


def test_realness_sum_equality():
    left = LaurentPoly(("a", "b"), {(1, 0): 1, (0, 1): 1})
    right = LaurentPoly(("a", "b"), {(-1, 0): 1, (0, -1): 1})
    rels = realness_cases(left, equal_to=right)
    assert [str(r) for r in rels] == ["b^1 = a^-1", "b^1 = b^-1"]


def test_realness_unsupported_shapes():
    with pytest.raises(UnsupportedPendingShape):
        realness_cases(LaurentPoly(("a",), {1: 2, -1: 1}))
    with pytest.raises(UnsupportedPendingShape):
        realness_cases(
            LaurentPoly(("a", "b"), {(1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 2): 1})
        )
    with pytest.raises(UnsupportedPendingShape):
        realness_cases(
            LaurentPoly(("a", "b"), {(1, 0): 1}),
            equal_to=LaurentPoly(("a", "b"), {(0, 1): 1}),
        )


_turns = st.fractions(min_value=0, max_value=1, max_denominator=48)


@given(st.sampled_from(_SHAPES_2VAR), _turns, _turns)
@settings(max_examples=300, deadline=None)
def test_realness_cases_are_a_true_dichotomy(p, ta, tb):
    """The term sum is real exactly when one listed relation holds."""
    rels = realness_cases(p)
    turns = {0: ta, 1: tb}
    on_relation = any(_relation_holds(r, turns) for r in rels)
    imag = _eval_at(p, turns).imag
    if on_relation:
        assert abs(imag) < 1e-9
    else:
        assert abs(imag) > 1e-11


@given(_turns)
@settings(max_examples=200, deadline=None)
def test_realness_equality_candidates_are_necessary(ta):
    """Whenever the sums agree and do not vanish, a candidate holds."""
    left = LaurentPoly(("a", "b"), {(1, 0): 1, (0, 1): 1})
    right = LaurentPoly(("a", "b"), {(-1, 0): 1, (0, -1): 1})
    rels = realness_cases(left, equal_to=right)
    turns = {0: ta, 1: (-ta) % 1}
    lv = _eval_at(left, turns)
    assert abs(lv - _eval_at(right, turns)) < 1e-9
    if abs(lv) > 1e-9:
        assert any(_relation_holds(r, turns) for r in rels)


def test_realness_equality_degenerate_zero_sum_escapes_candidates():
    # a = w, b = -w: both sums vanish, equality holds, no candidate does;
    # callers must treat the vanishing-sum branch separately.
    left = LaurentPoly(("a", "b"), {(1, 0): 1, (0, 1): 1})
    right = LaurentPoly(("a", "b"), {(-1, 0): 1, (0, -1): 1})
    rels = realness_cases(left, equal_to=right)
    turns = {0: Fraction(1, 3), 1: Fraction(5, 6)}
    assert abs(_eval_at(left, turns) - _eval_at(right, turns)) < 1e-12
    assert abs(_eval_at(left, turns)) < 1e-12
    assert not any(_relation_holds(r, turns) for r in rels)


# --- simplicity tests --------------------------------------------------------


def test_is_simple_one_variable():
    assert is_simple(OMEGA, CONJ)
    assert is_simple(-1 + 0j, NEGCONJ)
    assert not is_simple(root_of_unity(1, 5), CONJ)
    assert not is_simple(cmath.exp(0.3j), REAL1)


def test_is_simple_generic_exact_turns():
    w = root_of_unity(1, 7)
    assert is_simple((w, w), GENERIC)                      # a = b
    assert is_simple((w, w.conj()), GENERIC)               # a = conj(b)
    assert is_simple((w ** 2, w), GENERIC)                 # a = b^2
    assert is_simple((root_of_unity(1, 2), w), GENERIC)    # a = -1
    assert not is_simple((w, root_of_unity(1, 5)), GENERIC)


def test_is_simple_generic_complex_pairs():
    z = cmath.exp(1.234j)
    assert is_simple((z, z * z), GENERIC)                  # b = a^2
    assert is_simple((-z.conjugate(), z), GENERIC)
    assert not is_simple((z, cmath.exp(2.5j)), GENERIC)


def test_witness_search_requires_two_variables():
    with pytest.raises(ValueError):
        nonsimple_witness_search(LaurentPoly(("a",), {1: 1, 0: 1}))


# 1 + a + 2conj(a) + 2conj(a)b vanishes off every simple relation
_OFFGRID = LaurentPoly(("a", "b"), {(0, 0): 1, (1, 0): 1, (-1, 0): 2, (-1, 1): 2})


def test_witness_search_finds_offgrid_point():
    hit = nonsimple_witness_search(_OFFGRID)
    assert hit is not None
    t1, t2 = hit
    assert abs(_OFFGRID.evaluate(cmath.exp(1j * t1), cmath.exp(1j * t2))) < 1e-9


def test_witness_search_empty_handed_on_isolated_simple_points():
    # all four solutions of this equation satisfy a simple relation
    p = original_equation(CountArray(GENERIC, (1, 1, 1, 2, 0, 1, 0)))
    assert nonsimple_witness_search(p) is None


# --- the lockstep descent against the scalar loop it replaced -------------


def _refine(p, t1, t2, iters=80):
    """Reference: the one-seed damped Gauss-Newton loop on |p|^2."""
    for _ in range(iters):
        a, b = cmath.exp(1j * t1), cmath.exp(1j * t2)
        val = 0j
        d1 = 0j
        d2 = 0j
        for (e1, e2), c in p.coeffs.items():
            term = c * a**e1 * b**e2
            val += term
            d1 += 1j * e1 * term
            d2 += 1j * e2 * term
        if abs(val) < 1e-13:
            tau = 2 * math.pi
            return t1 % tau, t2 % tau
        f1, f2 = val.real, val.imag
        m11 = d1.real**2 + d1.imag**2
        m12 = d1.real * d2.real + d1.imag * d2.imag
        m22 = d2.real**2 + d2.imag**2
        lam = 1e-10 * (m11 + m22 + 1.0)
        det = (m11 + lam) * (m22 + lam) - m12 * m12
        if det <= 0:
            return None
        g1 = d1.real * f1 + d1.imag * f2
        g2 = d2.real * f1 + d2.imag * f2
        dt1 = -(g1 * (m22 + lam) - g2 * m12) / det
        dt2 = -(g2 * (m11 + lam) - g1 * m12) / det
        step = 1.0
        base = f1 * f1 + f2 * f2
        for _ in range(25):
            na = cmath.exp(1j * (t1 + step * dt1))
            nb = cmath.exp(1j * (t2 + step * dt2))
            nv = sum(c * na**e1 * nb**e2 for (e1, e2), c in p.coeffs.items())
            if abs(nv) ** 2 < base:
                break
            step *= 0.5
        else:
            return None
        t1 += step * dt1
        t2 += step * dt2
    return None


def _grid_seeds(p, grid):
    """The search's seeds: the 1200 grid cells of smallest |p|, in order."""
    thetas = np.arange(grid) * (2 * np.pi / grid)
    unit = np.exp(1j * thetas)
    vals = np.zeros((grid, grid), dtype=complex)
    for (e1, e2), c in p.coeffs.items():
        vals += c * np.outer(unit**e1, unit**e2)
    i, j = np.divmod(np.argsort(np.abs(vals), axis=None)[:1200], grid)
    return thetas[i], thetas[j]


def _angle_gap(x, y):
    return abs((x - y + math.pi) % (2 * math.pi) - math.pi)


def _assert_descent_matches_reference(p, s1, s2):
    points, hit = _descend(p, s1, s2)
    assert points.shape == (len(s1), 2)
    for k, (t1, t2) in enumerate(zip(s1.tolist(), s2.tolist())):
        ref = _refine(p, t1, t2)
        assert (ref is not None) == bool(hit[k]), (k, t1, t2)
        if ref is not None:
            assert _angle_gap(ref[0], points[k, 0]) < 1e-8
            assert _angle_gap(ref[1], points[k, 1]) < 1e-8
            assert 0 <= points[k, 0] < 2 * math.pi
            assert 0 <= points[k, 1] < 2 * math.pi
    assert np.isnan(points[~hit]).all()
    return hit


@pytest.mark.parametrize(
    "p",
    [
        _OFFGRID,
        original_equation(CountArray(GENERIC, (0, 1, 1, 2, 2, 0, 0))),  # N.1.1
        original_equation(CountArray(GENERIC, (1, 1, 1, 2, 0, 1, 0))),  # N.4.1
    ],
    ids=["offgrid", "N.1.1", "N.4.1"],
)
def test_lockstep_descent_matches_scalar_reference_on_every_seed(p):
    s1, s2 = _grid_seeds(p, 720)
    assert len(s1) == 1200
    hit = _assert_descent_matches_reference(p, s1, s2)
    assert 0 < hit.sum()


def test_lockstep_descent_on_a_small_grid():
    s1, s2 = _grid_seeds(_OFFGRID, 20)
    assert len(s1) == 400
    hit = _assert_descent_matches_reference(_OFFGRID, s1, s2)
    # the search returns the first reference hit that passes the checks
    expected = None
    for t1, t2 in zip(s1.tolist(), s2.tolist()):
        ref = _refine(_OFFGRID, t1, t2)
        if ref is None:
            continue
        a, b = cmath.exp(1j * ref[0]), cmath.exp(1j * ref[1])
        if abs(_OFFGRID.evaluate(a, b)) <= 1e-9 and not is_simple(
            (a, b), GENERIC, tol=1e-6
        ):
            expected = ref
            break
    assert hit.any() and expected is not None
    got = nonsimple_witness_search(_OFFGRID, grid=20)
    assert _angle_gap(got[0], expected[0]) < 1e-8
    assert _angle_gap(got[1], expected[1]) < 1e-8


def test_lockstep_descent_stops_at_iteration_zero():
    # a = -1 is a root of 1 + a; the seed stays put, reduced mod 2*pi
    p = LaurentPoly(("a", "b"), {(0, 0): 1, (1, 0): 1})
    s1, s2 = np.array([math.pi, 0.5]), np.array([7.0, 0.5])
    points, hit = _descend(p, s1, s2)
    assert hit.tolist() == [True, True]
    assert points[0].tolist() == [math.pi, 7.0 % (2 * math.pi)]
    assert points[0].tolist() == list(_refine(p, math.pi, 7.0))
    # the second seed has to move to reach a = -1
    assert _angle_gap(points[1, 0], math.pi) < 1e-8
    _assert_descent_matches_reference(p, s1, s2)
    # on the zero equation every seed is a root from the start
    points, hit = _descend(LaurentPoly(("a", "b"), {}), s1, s2)
    assert hit.all() and points[1].tolist() == [0.5, 0.5]


# --- classification: one-variable structures ---------------------------------


_CONJ_EXPECTED_TAGS = {
    (0, 1, 1, 2, 2): "Eq1",
    (0, 2, 2, 1, 1): "Eq2",
    (1, 2, 1, 2, 0): "Eq3",
    (1, 1, 2, 0, 2): "Eq3'",
    (1, 2, 1, 0, 2): "Eq4",
    (1, 1, 2, 2, 0): "Eq4'",
}

_NEGCONJ_EXPECTED_TAGS = {
    (0, 1, 0, 1, 0, 2, 2): "MP.1",
    (0, 0, 1, 0, 1, 2, 2): "MP.2",
    (0, 2, 0, 2, 0, 1, 1): "MP.3",
    (0, 0, 2, 0, 2, 1, 1): "MP.4",
    (2, 1, 0, 1, 0, 1, 1): "MP.5",
    (2, 0, 1, 0, 1, 1, 1): "MP.6",
}


def _sweep(struct):
    out = {}
    for arr in enumerate_count_arrays(struct):
        out[arr.counts] = classify_array(arr)
    return out


def test_conj_classification_census():
    sweep = _sweep(CONJ)
    kinds = {}
    for cls in sweep.values():
        kinds[cls.label.kind] = kinds.get(cls.label.kind, 0) + 1
    assert kinds == {"NoSolution": 18, "NonSimple": 6, "SimpleOnly": 21}
    tags = {c: cls.label.tag for c, cls in sweep.items() if cls.label.tag}
    assert tags == _CONJ_EXPECTED_TAGS
    disagree = sorted(c for c, cls in sweep.items() if cls.solutions_agree is False)
    assert disagree == [(1, 1, 2, 0, 2), (1, 2, 1, 2, 0)]


def test_conj_quadratic_case_has_surd_cosines():
    cls = classify_array(CountArray(CONJ, (0, 1, 1, 2, 2)))
    assert str(cls.label) == "NonSimple(Eq1)"
    got = sorted(ap.cos_value for ap in cls.solutions.algebraic_points)
    want = sorted([(-1 - sympy.sqrt(33)) / 8, (-1 + sympy.sqrt(33)) / 8])
    assert all(sympy.simplify(g - w) == 0 for g, w in zip(got, want))


def test_negconj_classification_census():
    sweep = _sweep(NEGCONJ)
    kinds = {}
    for cls in sweep.values():
        kinds[cls.label.kind] = kinds.get(cls.label.kind, 0) + 1
    assert kinds == {"NoSolution": 151, "SimpleOnly": 200, "NonSimple": 6}
    tags = {c: cls.label.tag for c, cls in sweep.items() if cls.label.tag}
    assert tags == _NEGCONJ_EXPECTED_TAGS
    vacuous = sorted(c for c, cls in sweep.items() if cls.vacuous)
    assert vacuous == [(0, 1, 1, 2, 2, 0, 0), (0, 2, 2, 1, 1, 0, 0)]
    disagree = sorted(c for c, cls in sweep.items() if cls.solutions_agree is False)
    assert disagree == [
        (0, 0, 0, 1, 1, 2, 2),
        (0, 0, 0, 2, 2, 1, 1),
        (0, 1, 1, 0, 0, 2, 2),
        (0, 1, 1, 1, 1, 1, 1),
        (0, 2, 2, 0, 0, 1, 1),
        (1, 0, 1, 2, 0, 2, 0),
        (1, 0, 2, 1, 0, 0, 2),
        (1, 1, 0, 0, 2, 2, 0),
        (1, 2, 0, 0, 1, 0, 2),
        (2, 0, 0, 0, 0, 2, 2),
    ]


def test_real1_classification_census():
    sweep = _sweep(REAL1)
    kinds = {}
    for cls in sweep.values():
        kinds[cls.label.kind] = kinds.get(cls.label.kind, 0) + 1
    assert kinds == {"NoSolution": 46, "SimpleOnly": 95}
    assert sum(1 for cls in sweep.values() if cls.vacuous) == 7
    assert all(cls.solutions_agree for cls in sweep.values())


@given(st.sampled_from(enumerate_count_arrays(CONJ)))
@settings(max_examples=45, deadline=None)
def test_conj_solutions_actually_solve(array):
    cls = classify_array(array)
    p = original_equation(array)
    for z in cls.solutions.all_points_complex():
        assert abs(p.evaluate(z)) < 1e-7


# --- classification: two-variable structure ----------------------------------


_GENERIC_FAMILY_SIZES = {"N.1": 6, "N.2": 6, "N.3": 6, "N.4": 12, "N.5": 1}

# Catalogue members whose equations turn out to have only solutions
# satisfying the ten relations; the witness search comes back empty on
# exactly these (and their conjugates), and the exact torus solver
# confirms the emptiness is real rather than a search failure.
_VACUOUSLY_TAGGED = {
    "N.2.2", "N.2.4", "N.2.6", "N.3.6",
    "N.4.1", "N.4.2", "N.4.3", "N.4.4", "N.4.5", "N.4.6",
    "N.4.7", "N.4.8", "N.4.9", "N.4.10", "N.4.11", "N.4.12",
}


def test_generic_classification_census():
    sweep = _sweep(GENERIC)
    kinds = {}
    for cls in sweep.values():
        kinds[cls.label.kind] = kinds.get(cls.label.kind, 0) + 1
    assert kinds == {"SimpleOnly": 302, "NonSimple": 55}

    tagged = {c: cls.label.tag for c, cls in sweep.items() if cls.label.tag}
    canonical = {}
    for counts, tag in tagged.items():
        canonical.setdefault(tag, set()).add(
            conjugate_canonical(CountArray(GENERIC, counts)).counts
        )
    assert len(canonical) == 31
    assert all(len(v) == 1 for v in canonical.values())
    by_family = {}
    for tag in canonical:
        fam = tag if tag == "N.5" else tag.rsplit(".", 1)[0]
        by_family[fam] = by_family.get(fam, 0) + 1
    assert by_family == _GENERIC_FAMILY_SIZES

    # conjugation closure: 7 self-conjugate members, 24 proper pairs
    self_conj = [c for c in tagged if CountArray(GENERIC, c).conjugate().counts == c]
    assert len(self_conj) == 7
    assert len(tagged) == 7 + 2 * 24


def test_generic_witness_gap_is_frozen():
    sweep = _sweep(GENERIC)
    no_witness = {
        cls.label.tag
        for cls in sweep.values()
        if cls.label.kind == "NonSimple" and cls.nonsimple_witness is None
    }
    assert no_witness == _VACUOUSLY_TAGGED
    disagree = {
        c for c, cls in sweep.items() if cls.solutions_agree is False
    }
    no_witness_counts = {
        c
        for c, cls in sweep.items()
        if cls.label.kind == "NonSimple" and cls.nonsimple_witness is None
    }
    assert disagree == no_witness_counts
    assert len(no_witness_counts) == 32


def test_generic_witnesses_verify_and_avoid_relations():
    sweep = _sweep(GENERIC)
    for counts, cls in sweep.items():
        if cls.nonsimple_witness is None:
            continue
        t1, t2 = cls.nonsimple_witness
        a, b = cmath.exp(1j * t1), cmath.exp(1j * t2)
        p = original_equation(CountArray(GENERIC, counts))
        assert abs(p.evaluate(a, b)) < 1e-9
        assert not is_simple((a, b), GENERIC, tol=1e-7)


def test_generic_substitution_points_solve_exactly():
    cls = classify_array(CountArray(GENERIC, (0, 1, 1, 1, 1, 1, 1)))
    assert cls.label.tag == "N.5"
    p = original_equation(cls.array)
    assert cls.solutions.exact_points
    for a, b in cls.solutions.exact_points:
        assert abs(p.evaluate(a.as_complex(), b.as_complex())) < 1e-9


def test_generic_label_is_conjugation_invariant():
    sweep = _sweep(GENERIC)
    for counts, cls in sweep.items():
        conj = CountArray(GENERIC, counts).conjugate().counts
        assert sweep[conj].label == cls.label


# --- the honest divergence, cross-checked by the exact torus solver ----------

# Arrays outside the catalogue whose equations still have solutions
# failing all ten relations and pinning no letter (nor the ratio) to a
# settled value. 36 have finitely many such points; the last 3 vanish
# on a whole curve. Frozen from a full exact sweep.
_UNCATALOGUED_WITH_ROGUE_POINTS = {
    (0, 0, 1, 1, 2, 2, 0), (0, 0, 1, 2, 0, 1, 2), (0, 0, 1, 2, 0, 2, 1),
    (0, 0, 1, 2, 1, 2, 0), (0, 0, 2, 1, 0, 1, 2), (0, 0, 2, 1, 0, 2, 1),
    (0, 0, 2, 1, 2, 1, 0), (0, 0, 2, 2, 1, 1, 0), (0, 1, 0, 0, 2, 1, 2),
    (0, 1, 0, 0, 2, 2, 1), (0, 1, 0, 1, 2, 0, 2), (0, 1, 0, 2, 1, 0, 2),
    (0, 1, 2, 0, 1, 0, 2), (0, 1, 2, 0, 2, 0, 1), (0, 1, 2, 1, 0, 2, 0),
    (0, 1, 2, 2, 0, 1, 0), (0, 2, 0, 0, 1, 1, 2), (0, 2, 0, 0, 1, 2, 1),
    (0, 2, 0, 1, 2, 0, 1), (0, 2, 0, 2, 1, 0, 1), (0, 2, 1, 0, 1, 0, 2),
    (0, 2, 1, 0, 2, 0, 1), (0, 2, 1, 1, 0, 2, 0), (0, 2, 1, 2, 0, 1, 0),
    (1, 0, 0, 0, 2, 2, 1), (1, 0, 0, 1, 2, 2, 0), (1, 0, 0, 2, 0, 1, 2),
    (1, 0, 0, 2, 1, 0, 2), (1, 0, 2, 0, 0, 1, 2), (1, 0, 2, 1, 2, 0, 0),
    (1, 1, 2, 0, 0, 0, 2), (1, 1, 2, 0, 2, 0, 0), (1, 2, 0, 0, 0, 2, 1),
    (1, 2, 0, 2, 1, 0, 0), (1, 2, 1, 0, 0, 2, 0), (1, 2, 1, 2, 0, 0, 0),
}

_UNCATALOGUED_CURVES = {
    (2, 0, 0, 1, 1, 1, 1),
    (2, 1, 1, 0, 0, 1, 1),
    (2, 1, 1, 1, 1, 0, 0),
}


def test_rogue_set_is_conjugation_closed():
    rogue = _UNCATALOGUED_WITH_ROGUE_POINTS | _UNCATALOGUED_CURVES
    for counts in rogue:
        assert CountArray(GENERIC, counts).conjugate().counts in rogue


def test_exact_solver_agrees_with_witness_search_on_catalogue():
    """Across the full enumeration: a witness exists exactly when the
    equation has a solution failing all ten relations."""
    sweep = _sweep(GENERIC)
    for counts, cls in sweep.items():
        if cls.label.kind != "NonSimple":
            continue
        sol = solve_torus(original_equation(CountArray(GENERIC, counts)))
        has_nonsimple = any(not pt.simple for pt in sol.points)
        assert (cls.nonsimple_witness is not None) == has_nonsimple, counts


def test_uncatalogued_rogue_points_confirmed_by_exact_solver():
    for counts in sorted(_UNCATALOGUED_WITH_ROGUE_POINTS)[::6]:
        cls = classify_array(CountArray(GENERIC, counts))
        assert cls.label.kind == "SimpleOnly"
        assert cls.solutions_agree is None
        sol = solve_torus(original_equation(CountArray(GENERIC, counts)))
        assert sol.kind == "isolated"
        assert sol.rogue_points()


def test_uncatalogued_curves_confirmed_by_exact_solver():
    for counts in sorted(_UNCATALOGUED_CURVES):
        cls = classify_array(CountArray(GENERIC, counts))
        assert cls.label.kind == "SimpleOnly"
        sol = solve_torus(original_equation(CountArray(GENERIC, counts)))
        assert sol.kind == "curve"
        assert sol.rogue_points()


def test_full_rogue_sweep_matches_frozen_lists():
    """Exact solve of all 302 uncatalogued equations; slowest test here."""
    found_isolated = set()
    found_curves = set()
    for arr in enumerate_count_arrays(GENERIC):
        if classify_array(arr).label.kind == "NonSimple":
            continue
        sol = solve_torus(original_equation(arr), samples=180)
        if not sol.rogue_points():
            continue
        if sol.kind == "curve":
            found_curves.add(arr.counts)
        else:
            found_isolated.add(arr.counts)
    assert found_isolated == _UNCATALOGUED_WITH_ROGUE_POINTS
    assert found_curves == _UNCATALOGUED_CURVES
