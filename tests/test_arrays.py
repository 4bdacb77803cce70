"""Unit tests for count-array enumeration, screening, and classification."""

import cmath
import collections
import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from chmkit import arrays, solve
from chmkit.arrays import (
    _GENERIC_SWEEP,
    STRUCTURES,
    CountArray,
    PendingTerms,
    Relation,
    UnsupportedPendingShape,
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
from chmkit.exactnum import (
    OMEGA,
    SIMPLE_TURNS,
    SIMPLE_VALUES,
    CosinePoint,
    CycSum,
    Field,
    UnitValue,
    is_simple_unit,
    root_of_unity,
)
from chmkit.pairs import _on_settled_relation
from chmkit.solve import (
    SETTLED_RELATIONS,
    LaurentPoly,
    pinned_residual,
    solve_torus,
    solve_unit_circle,
    ten_relation_residual,
)
from sympy_values import cos_value


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


def _reference_enumeration(struct, include_excluded):
    """The filter over all 7^k tuples that the composition walk replaced."""
    main, flagged = [], []
    for counts in itertools.product(range(7), repeat=struct.k):
        if sum(counts) != 6:
            continue
        arr = CountArray(struct, counts)
        (flagged if arr.rank1_excluded else main).append(arr)
    return main + flagged if include_excluded else main


@pytest.mark.parametrize("include_excluded", [False, True])
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_enumeration_matches_product_filter(name, include_excluded):
    struct = STRUCTURES[name]
    # equal as lists: the same arrays in the same order
    assert enumerate_count_arrays(struct, include_excluded) == (
        _reference_enumeration(struct, include_excluded)
    )


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


# --- the settled relations: one table, every encoding ----------------------


def _unit(t: Fraction):
    return root_of_unity(t.numerator, t.denominator)


def _cyc_relation_holds(rel: Relation, turns: tuple) -> bool:
    """x - s*y^k == 0 as an exact sum of 24th roots of unity."""

    def monomial(exps):
        exponent = sum(24 * e * t for e, t in zip(exps, turns))
        return CycSum.from_exponents(24, [int(exponent)])

    lhs, rhs = monomial(rel.lhs_exps), monomial(rel.rhs_exps)
    return (lhs + rhs if rel.rhs_sign < 0 else lhs - rhs).is_zero()


_R = sympy.Symbol("r")


def _sqrt3_field():
    """Q(sqrt 3), generated by the root of r^2 - 3 in [1, 2]."""
    return Field((Fraction(-3), Fraction(0), Fraction(1)), Fraction(1), Fraction(2))


def _cos_and_sine_sign(t: Fraction, field):
    """cos(2*pi*t) for a twelfth turn t, as an element of ``field`` =
    Q(sqrt 3), and the sign of the sine."""
    cos = sympy.cos(2 * sympy.pi * sympy.Rational(t.numerator, t.denominator))
    line = sympy.Poly(cos.subs(sympy.sqrt(3), _R), _R).all_coeffs()
    element = field(*(Fraction(int(c.p), int(c.q)) for c in reversed(line)))
    sign = 0 if t in (0, Fraction(1, 2)) else (1 if t < Fraction(1, 2) else -1)
    return element, sign


def test_settled_relations_agree_across_encodings():
    """Exact turns, the float residual and cyclotomic sums give one
    answer for the same table, in two variables and in one."""
    grid = [Fraction(k, 24) for k in range(24)]
    simple_count = 0
    for ta, tb in itertools.product(grid, grid):
        a, b = _unit(ta), _unit(tb)
        exact = is_simple((a, b), GENERIC)
        simple_count += exact
        assert exact == (ten_relation_residual(a.as_complex(), b.as_complex()) <= 1e-9)
        on_relation = [_cyc_relation_holds(rel, (ta, tb)) for rel in SETTLED_RELATIONS]
        assert exact == any(on_relation)
        assert [rel.holds(ta, tb) for rel in SETTLED_RELATIONS] == on_relation
    assert 0 < simple_count < len(grid) ** 2
    for t in grid:
        z = _unit(t).as_complex()
        float_unit = UnitValue.from_float(z.real, z.imag)
        assert is_simple_unit(_unit(t)) == is_simple_unit(float_unit)


def test_settled_relations_cosine_form_agrees():
    """pairs' exact test of the settled equations at a CosinePoint
    against the exact turn test, on every point of the 1/12 grid."""
    field = _sqrt3_field()
    twelfths = [Fraction(k, 12) for k in range(12)]
    for ta, tb in itertools.product(twelfths, twelfths):
        exact = is_simple((_unit(ta), _unit(tb)), GENERIC)
        # the settled set is closed under swapping the letters and
        # under conjugating both
        assert exact == is_simple((_unit(tb), _unit(ta)), GENERIC)
        assert exact == is_simple((_unit(-ta), _unit(-tb)), GENERIC)
        got = _on_settled_relation(CosinePoint(*_cos_and_sine_sign(ta, field),
                                               *_cos_and_sine_sign(tb, field)))
        assert got == exact, (ta, tb)
    orbits = {
        min((ta, tb), (tb, ta), (-ta % 1, -tb % 1), (-tb % 1, -ta % 1))
        for ta, tb in itertools.product(twelfths, twelfths)
    }
    assert len(orbits) == 43


def test_cosine_point_matches_float_evaluation_on_twelfths():
    """CosinePoint's exact real and imaginary zero tests against the
    float value of ``LaurentPoly.evaluate`` (1e-9), at every point of
    the 1/12 grid in Q(sqrt 3), for 30 seeded GENERIC equations and the
    ten settled ones."""
    field = _sqrt3_field()
    nonzero = [p for p in map(original_equation, enumerate_count_arrays(GENERIC))
               if not p.is_zero()]
    equations = (random.Random(113).sample(nonzero, 30)
                 + [rel.equation for rel in SETTLED_RELATIONS])
    twelfths = [Fraction(k, 12) for k in range(12)]
    outcomes = collections.Counter()
    for ta, tb in itertools.product(twelfths, twelfths):
        pt = CosinePoint(*_cos_and_sine_sign(ta, field),
                         *_cos_and_sine_sign(tb, field))
        za, zb = _unit(ta).as_complex(), _unit(tb).as_complex()
        for eq in equations:
            z = eq.evaluate(za, zb)
            real, imag = pt.real_vanishes(eq), pt.imag_vanishes(eq)
            assert real == (abs(z.real) <= 1e-9), (ta, tb, eq)
            assert imag == (abs(z.imag) <= 1e-9), (ta, tb, eq)
            assert pt.vanishes(eq) == (real and imag)
            outcomes[real, imag] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) > 100, outcomes


def test_settled_substitutions_restrict_the_equation():
    """Each relation's one-variable substitution is p on the relation,
    and each of its roots, exact or algebraic, recovers a point on it."""
    relations = SETTLED_RELATIONS + (
        Relation((1, 0), 1, (0, 0)),  # a = 1
        Relation((0, 1), 1, (0, 0)),  # b = 1
    )
    assert set(_GENERIC_SWEEP) == set(relations)
    rng = random.Random(12)
    candidates = [a for a in enumerate_count_arrays(GENERIC)
                  if not original_equation(a).is_zero()]
    ys = [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(3)]
    algebraic = 0
    for arr in rng.sample(candidates, 30):
        p = original_equation(arr)
        for rel in relations:
            q = rel.substitute(p)
            for y in ys:
                x = rel.rhs_sign * y ** rel.power
                ab = (x, y) if rel.letter == 0 else (y, x)
                on_relation = 0j if q.is_zero() else q.evaluate(y)
                assert abs(on_relation - p.evaluate(*ab)) < 1e-9, (arr, rel)
            if q.is_zero():
                continue
            sol = solve_unit_circle(q)
            for u in sol.exact_points:
                ta, tb = rel.point(u.turn)
                assert _relation_holds(rel, {0: ta, 1: tb}), (arr, rel, u)
            for ap in sol.algebraic_points:
                t1, t2 = (2 * math.pi * t for t in rel.point(ap.theta / (2 * math.pi)))
                a, b = cmath.exp(1j * t1), cmath.exp(1j * t2)
                x, y = (a, b) if rel.letter == 0 else (b, a)
                assert abs(x - rel.rhs_sign * y ** rel.power) < 1e-9, (arr, rel)
                assert abs(p.evaluate(a, b)) < 1e-9, (arr, rel)
                algebraic += 1
    assert algebraic


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


def test_torus_curve_samples_sit_off_the_rational_turns():
    # N.1.1's curve cos(t1) = -2 cos(t2) meets b = e(k/8) only at
    # b = +-i, where every point is simple; off-turn samples find a witness
    p = original_equation(CountArray(GENERIC, (0, 1, 1, 2, 2, 0, 0)))
    sol = solve_torus(p, samples=8)
    assert sol.kind == "curve"
    units = [(cmath.exp(1j * pt.theta1), cmath.exp(1j * pt.theta2))
             for pt in sol.points]
    assert any(
        abs(p.evaluate(a, b)) <= 1e-9 and ten_relation_residual(a, b) > 1e-6
        for a, b in units
    )


def test_torus_flags_in_doubles_match_fifty_digits(monkeypatch):
    """``solve_torus`` flags its 50-digit points in doubles. On the
    catalogued arrays the flags equal those of 50-digit residuals, and
    every residual stays far from the 1e-9 cut, so a new equation whose
    points come near it fails here first."""
    flagged = []
    classify = solve._classify_torus_point

    def spy(a, b):
        # real roots come back from mpmath as mpf
        assert isinstance(a, (mp.mpc, mp.mpf)) and isinstance(b, (mp.mpc, mp.mpf))
        tol = solve._FLAG_TOL
        with mp.workdps(50):
            wide = (ten_relation_residual(a, b) <= tol,
                    pinned_residual(a, b) <= tol)
        pt = classify(a, b)
        flagged.append(((pt.simple, pt.pinned), wide, complex(a), complex(b)))
        return pt

    monkeypatch.setattr(solve, "_classify_torus_point", spy)
    curves = 0
    for arr in enumerate_count_arrays(GENERIC):
        if classify_array(arr).label.kind != "NonSimple":
            continue
        flagged.clear()
        sol = solve_torus(original_equation(arr), samples=8)
        curves += sol.kind == "curve"
        assert flagged, arr
        for narrow, wide, a, b in flagged:
            assert narrow == wide, arr
            for r in (ten_relation_residual(a, b), pinned_residual(a, b)):
                assert r <= 1e-12 or r >= 1e-6, (arr, r)
    assert curves == 19


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
    got = sorted(cos_value(ap) for ap in cls.solutions.algebraic_points)
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


# --- the symmetry group: one torus solve per orbit ---------------------------

_IDENTITY = ((1, 0), (0, 1))


def _matmul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _slot_perm(m):
    """Slot i's monomial becomes slot perm[i]'s under p -> p(m(a, b))."""
    slot = {exps: i for i, (_, exps) in enumerate(GENERIC.terms)}
    (m11, m12), (m21, m22) = m
    return tuple(
        slot[(e1 * m11 + e2 * m21, e1 * m12 + e2 * m22)]
        for _, (e1, e2) in GENERIC.terms
    )


def _image_counts(counts, perm):
    out = [0] * len(counts)
    for i, c in enumerate(counts):
        out[perm[i]] = c
    return tuple(out)


def _generic_orbits():
    perms = [_slot_perm(m) for m in arrays._TORUS_MAPS]
    orbits, seen = [], set()
    for arr in enumerate_count_arrays(GENERIC, include_excluded=True):
        if arr.counts not in seen:
            orbit = {_image_counts(arr.counts, perm) for perm in perms}
            seen |= orbit
            orbits.append(orbit)
    return orbits


def _reference_witness(p):
    """The witness walk over p's own ``solve_torus(p, samples=8)``."""
    for pt in solve_torus(p, samples=8).points:
        a, b = cmath.exp(1j * pt.theta1), cmath.exp(1j * pt.theta2)
        if abs(p.evaluate(a, b)) > 1e-9:
            continue
        if ten_relation_residual(a, b) <= 1e-6:
            continue
        return pt.theta1, pt.theta2
    return None


def test_torus_maps_form_a_group_of_order_12():
    maps = set(arrays._TORUS_MAPS)
    assert len(arrays._TORUS_MAPS) == len(maps) == 12
    assert _IDENTITY in maps
    a, b = cmath.exp(0.3j), cmath.exp(1.7j)
    for x in maps:
        assert any(_matmul(x, y) == _IDENTITY for y in maps), x
        for y in maps:
            xy = _matmul(x, y)
            assert xy in maps, (x, y)
            # the matrix product is the composition of the point maps
            got = arrays._map_point(xy, a, b)
            want = arrays._map_point(x, *arrays._map_point(y, a, b))
            assert abs(got[0] - want[0]) + abs(got[1] - want[1]) < 1e-12


def test_conjugation_map_permutes_slots_as_conj_perm():
    assert _slot_perm(((-1, 0), (0, -1))) == GENERIC.conj_perm
    for m in arrays._TORUS_MAPS:
        assert sorted(_slot_perm(m)) == list(range(GENERIC.k))


def test_torus_maps_send_count_array_equations_to_count_array_equations():
    """Each of the 924 GENERIC equations composed with each map is, up
    to a monomial shift, the equation of the slot-permuted array."""
    arrs = enumerate_count_arrays(GENERIC, include_excluded=True)
    assert len(arrs) == 924
    for m in arrays._TORUS_MAPS:
        perm = _slot_perm(m)
        for arr in arrs:
            image = CountArray(GENERIC, _image_counts(arr.counts, perm))
            assert arrays._compose_terms(original_equation(arr), m) == (
                arrays._compose_terms(original_equation(image), _IDENTITY)
            ), (m, arr)


def _map_turns(m, ta, tb):
    (m11, m12), (m21, m22) = m
    return (m11 * ta + m12 * tb) % 1, (m21 * ta + m22 * tb) % 1


def test_sweep_relations_and_simple_values_are_closed_under_the_group():
    turns = [Fraction(k, 97) for k in range(97)]
    leaves_the_ten = False
    for m in arrays._TORUS_MAPS:
        images = []
        for rel in _GENERIC_SWEEP:
            on_image = [
                other for other in _GENERIC_SWEEP
                if all(other.holds(*_map_turns(m, *rel.point(t))) for t in turns)
            ]
            assert len(on_image) == 1, (m, str(rel))
            images.append(on_image[0])
            if rel in SETTLED_RELATIONS and on_image[0] not in SETTLED_RELATIONS:
                leaves_the_ten = True
        assert sorted(map(str, images)) == sorted(map(str, _GENERIC_SWEEP)), m
    # a = b maps to b = 1: the ten alone are not closed, so the witness
    # search derives simplicity again at every mapped point
    assert leaves_the_ten
    assert {-t % 1 for t in SIMPLE_TURNS} == SIMPLE_TURNS
    for v in SIMPLE_VALUES:
        assert min(abs(1 / v - w) for w in SIMPLE_VALUES) < 1e-12


def test_orbits_carry_labels_and_frozen_sets():
    orbits = _generic_orbits()
    assert len(orbits) == 105
    mixed = []
    for orbit in orbits:
        found = [classify_array(CountArray(GENERIC, c)) for c in sorted(orbit)]
        assert len({cls.label.kind for cls in found}) == 1, orbit
        assert len({cls.vacuous for cls in found}) == 1, orbit
        if len({cls.nonsimple_witness is not None for cls in found}) > 1:
            mixed.append(found)
    # Witness existence is not an orbit invariant on N.3: the witnesses of
    # N.3.2 and N.3.4 have a letter at 1, which N.3.6 sees on a = b.
    assert [sorted({cls.label.tag for cls in found}) for found in mixed] == [
        ["N.3.2", "N.3.4", "N.3.6"]
    ]
    for cls in mixed[0]:
        if cls.nonsimple_witness is not None:
            assert min(abs(cmath.exp(1j * t) - 1) for t in cls.nonsimple_witness) < 1e-9
        else:
            assert cls.label.tag == "N.3.6"
    for frozen in (_UNCATALOGUED_WITH_ROGUE_POINTS, _UNCATALOGUED_CURVES):
        assert frozen == set().union(*(o for o in orbits if o & frozen))
    assert len([o for o in orbits if o & _UNCATALOGUED_CURVES]) == 1


def test_orbit_witness_search_agrees_with_own_solve():
    polys = [_OFFGRID, original_equation(CountArray(GENERIC, (1, 1, 1, 2, 0, 1, 0)))]
    polys += [
        original_equation(arr) for arr in enumerate_count_arrays(GENERIC)
        if classify_array(arr).label.kind == "NonSimple"
    ]
    assert len(polys) == 57
    found = 0
    for p in polys:
        hit = nonsimple_witness_search(p)
        assert (hit is None) == (_reference_witness(p) is None), p
        if hit is None:
            continue
        found += 1
        a, b = cmath.exp(1j * hit[0]), cmath.exp(1j * hit[1])
        assert abs(p.evaluate(a, b)) <= 1e-9
        assert ten_relation_residual(a, b) > 1e-6
    assert found == 24


def test_witness_search_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        nonsimple_witness_search(LaurentPoly(("a", "b"), {}))


def test_mapped_points_equal_own_solve_on_isolated_equations():
    """On every isolated or empty GENERIC equation, the orbit key's
    points mapped into the member's coordinates are the member's own
    ``solve_torus`` points, with the same flags."""
    checked = 0
    for arr in enumerate_count_arrays(GENERIC):
        p = original_equation(arr)
        own = solve_torus(p, samples=8)
        if own.kind == "curve":
            continue
        checked += 1
        mapped = arrays._orbit_points(p)
        assert len(mapped) == len(own.points), arr
        for pt in own.points:
            a, b = cmath.exp(1j * pt.theta1), cmath.exp(1j * pt.theta2)
            near = [
                q for q in mapped
                if abs(cmath.exp(1j * q.theta1) - a)
                + abs(cmath.exp(1j * q.theta2) - b) <= 1e-9
            ]
            assert len(near) == 1, (arr, pt)
            assert (near[0].simple, near[0].pinned) == (pt.simple, pt.pinned), arr
    assert checked == 284


def test_generic_sweep_solves_one_torus_equation_per_orbit(monkeypatch):
    solved = []

    def counting(p, samples=720):
        solved.append(p)
        return solve_torus(p, samples=samples)

    monkeypatch.setattr(arrays, "solve_torus", counting)
    classify_array.cache_clear()
    arrays._key_points.cache_clear()
    witnesses = sum(
        classify_array(arr).nonsimple_witness is not None
        for arr in enumerate_count_arrays(GENERIC)
    )
    assert witnesses == 23
    assert len(solved) == 8
