"""Unit tests for the exact circle and torus solvers."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chmkit import arrays, solve
from chmkit.exactnum import (
    OMEGA,
    OMEGA2,
    SIMPLE_TURNS,
    UnitValue,
    is_simple_unit,
    root_of_unity,
)
from chmkit.solve import (
    LaurentPoly,
    TorusPoint,
    has_nonsimple_point,
    pinned_residual,
    solve_torus,
    solve_unit_circle,
    ten_relation_residual,
)
from sympy_values import cos_value


def lp(coeffs):
    return LaurentPoly(("a",), coeffs)


def lp2(coeffs):
    return LaurentPoly(("a", "b"), coeffs)


# --- LaurentPoly ---------------------------------------------------------


def test_poly_drops_zero_coefficients():
    p = lp({1: 2, -1: 0, 0: 3})
    assert p.coeffs == {(1,): 2, (0,): 3}


def test_from_terms_merges_duplicates():
    p = LaurentPoly.from_terms(("a",), [((1,), 1), ((1,), 2), ((0,), -1)])
    assert p == lp({1: 3, 0: -1})


def test_poly_is_immutable():
    p = lp({1: 1})
    with pytest.raises(AttributeError):
        p.coeffs = {}


def test_poly_variable_arity_checked():
    with pytest.raises(ValueError):
        LaurentPoly(("a", "b", "c"), {})
    with pytest.raises(ValueError):
        LaurentPoly(("a", "b"), {(1,): 1})


def test_poly_algebra_and_conjugate():
    p = lp({1: 2, 2: 1})
    q = lp({1: -2, 0: 5})
    assert (p + q) == lp({2: 1, 0: 5})
    assert (p - p).is_zero()
    assert p.conjugate() == lp({-1: 2, -2: 1})
    z = 0.6 + 0.8j
    assert abs(p.conjugate().evaluate(z) - p.evaluate(z).conjugate()) < 1e-12


def test_poly_hash_consistent_with_eq():
    assert hash(lp({1: 1, 0: 2})) == hash(lp({0: 2, 1: 1}))
    assert len({lp({1: 1}), lp({1: 1}), lp({2: 1})}) == 2


# --- one-variable solving ------------------------------------------------


def test_three_term_sum_gives_cube_roots():
    sol = solve_unit_circle(lp({0: 2, 1: 2, -1: 2}))
    assert sol.complete
    assert sol.exact_points == (root_of_unity(1, 3), root_of_unity(2, 3))
    assert not sol.algebraic_points


def test_offset_exponents_do_not_matter():
    base = solve_unit_circle(lp({0: 1, 1: 1, 2: 1}))
    shifted = solve_unit_circle(lp({-1: 1, 0: 1, 1: 1}))
    assert base.exact_points == shifted.exact_points


def test_quadratic_pair_constraint():
    # a + conj(a) + 2a^2 + 2conj(a)^2 = 0 descends to 4c^2 + c - 2 = 0
    sol = solve_unit_circle(lp({1: 1, -1: 1, 2: 2, -2: 2}))
    assert not sol.exact_points
    got = sorted(cos_value(ap) for ap in sol.algebraic_points)
    want = sorted([(-1 - sympy.sqrt(33)) / 8, (-1 + sympy.sqrt(33)) / 8])
    assert all(sympy.simplify(g - w) == 0 for g, w in zip(got, want))
    for ap in sol.algebraic_points:
        assert ap.cos_minpoly in ((-2, 1, 4), (2, -1, -4))


def test_no_unimodular_roots_detected():
    # 3 + a has the single root -3, off the circle
    sol = solve_unit_circle(lp({0: 3, 1: 1}))
    assert sol.is_empty()
    assert sol.complete


def test_identically_zero_is_rejected():
    with pytest.raises(ValueError, match="identically zero"):
        solve_unit_circle(lp({}))


def test_single_variable_required():
    with pytest.raises(ValueError):
        solve_unit_circle(lp2({(1, 0): 1}))


def test_solve_is_memoised_per_equation():
    first = solve_unit_circle(lp({0: 1, 1: 1, 2: 1}))
    # an equal polynomial built separately hits the same cache entry
    assert solve_unit_circle(LaurentPoly(("a",), {2: 1, 1: 1, 0: 1})) is first
    # invalid input is never cached: it raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="identically zero"):
            solve_unit_circle(lp({}))
        with pytest.raises(ValueError, match="single variable"):
            solve_unit_circle(lp2({(1, 0): 1}))


def test_sign_and_shift_share_one_solution_set(monkeypatch):
    # Coefficients outside the property tests' range: not cached yet.
    p = lp({0: 17, 1: 19, 3: 17})
    shifted = lp({e + 5: c for (e,), c in p.coeffs.items()})
    checked = []
    real = solve._reverify

    def spy(q, sol):
        checked.append(q)
        real(q, sol)

    monkeypatch.setattr(solve, "_reverify", spy)
    first = solve_unit_circle(p)
    assert solve_unit_circle(-p) is first
    assert solve_unit_circle(shifted) is first
    assert solve_unit_circle(-shifted) is first
    # one re-verification per distinct equation, none on a repeat
    assert checked == [p, -p, shifted, -shifted]
    for q in (p, -p, shifted):
        assert solve_unit_circle(q) is first
    assert checked == [p, -p, shifted, -shifted]
    for _ in range(2):
        with pytest.raises(ValueError, match="identically zero"):
            solve_unit_circle(p - p)
        with pytest.raises(ValueError, match="single variable"):
            solve_unit_circle(lp2({(0, 0): 17, (1, 0): 19}))


def test_shared_set_is_reverified_against_each_equation(monkeypatch):
    # A wrong set cached for the cleared polynomial fails the first new
    # equation that shares it.
    bogus = solve.SolutionSet((root_of_unity(1, 3),), (), complete=True)
    monkeypatch.setattr(solve, "_solve_cleared", lambda coeffs: bogus)
    with pytest.raises(AssertionError, match="re-check"):
        solve_unit_circle(lp({1: 23, 3: 29}))


_X = sympy.Symbol("x")


def _reference_cyclotomic_order(f):
    """The totient loop that the table lookup replaced."""
    deg = f.degree()
    if f.LC() != 1:
        return None
    bound = max(24, 2 * deg * deg + 6)
    for n in range(1, bound + 1):
        if sympy.totient(n) != deg:
            continue
        if f == sympy.Poly(sympy.cyclotomic_poly(n, _X), _X):
            return n
    return None


def _primitive_roots(*orders):
    """The primitive n-th roots of unity for each n, in turn order."""
    return tuple(sorted(
        (root_of_unity(k, n) for n in orders for k in range(n) if math.gcd(k, n) == 1),
        key=lambda u: u.turn))


def _from_sympy(f):
    """A sympy Poly in x as a LaurentPoly in a."""
    return lp(dict(f.terms()))


def test_cyclotomic_lookup_matches_totient_loop_on_phi_n():
    # dividing out Phi_n leaves exactly its primitive roots, for -Phi_n too
    for n in range(1, 121):
        f = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X)
        assert _reference_cyclotomic_order(f) == n
        assert _reference_cyclotomic_order(-f) is None
        for g in (f, -f):
            sol = solve_unit_circle(_from_sympy(g))
            assert sol.exact_points == _primitive_roots(n), n
            assert sol.algebraic_points == ()


def test_cyclotomic_lookup_rejects_monic_non_cyclotomics():
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    for coeffs, orders in (
        (lehmer, ()),
        ([1, -1, -1], ()),             # golden ratio
        ([1, 0, -1, -1], ()),          # smallest Pisot number
        ([1, 1, 2], ()),
        ([1, -2], ()),
        ([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1], ()),
        ([2, 1], ()),
        ([1, 0, 1, 0, 1], (3, 6)),     # Phi_3 * Phi_6, not irreducible
    ):
        f = sympy.Poly(coeffs, _X)
        assert _reference_cyclotomic_order(f) is None
        assert solve_unit_circle(_from_sympy(f)).exact_points == _primitive_roots(*orders)
    # a Salem polynomial: eight unimodular roots, none a root of unity
    assert len(solve_unit_circle(_from_sympy(sympy.Poly(lehmer, _X))).algebraic_points) == 4


def test_cyclotomic_lookup_matches_totient_loop_on_sweep_factors(monkeypatch):
    # Record every equation the 900-array sweep hands the circle solver;
    # the torus witnesses are irrelevant here and are skipped.
    equations = set()
    real = arrays.solve_unit_circle

    def spy(p):
        equations.add(p)
        return real(p)

    monkeypatch.setattr(arrays, "solve_unit_circle", spy)
    monkeypatch.setattr(arrays, "nonsimple_witness_search", lambda p: None)
    for struct in arrays.STRUCTURES.values():
        for arr in arrays.enumerate_count_arrays(struct):
            arrays.classify_array.__wrapped__(arr)
    assert len(equations) == 880
    orders = set()
    for p in equations:
        low = min(e for (e,) in p.coeffs)
        cleared = sympy.Poly(
            sum(c * _X ** (e - low) for (e,), c in p.coeffs.items()), _X
        )
        factor_orders = [_reference_cyclotomic_order(f)
                         for f, _ in cleared.factor_list()[1]]
        orders.update(factor_orders)
        expected = _primitive_roots(*(n for n in factor_orders if n is not None))
        assert solve_unit_circle(p).exact_points == expected, p
    assert None in orders and len(orders) > 5


def test_mixed_exact_and_algebraic():
    # (a^2 + a + 1)(4a^2 + a + 4) / a: cube roots plus cos = -1/8 pair
    prod = {}
    for e1, c1 in ((0, 1), (1, 1), (2, 1)):
        for e2, c2 in ((0, 4), (1, 1), (2, 4)):
            prod[e1 + e2 - 2] = prod.get(e1 + e2 - 2, 0) + c1 * c2
    sol = solve_unit_circle(lp(prod))
    assert sol.exact_points == (root_of_unity(1, 3), root_of_unity(2, 3))
    assert len(sol.algebraic_points) == 1
    assert sympy.simplify(cos_value(sol.algebraic_points[0]) + Fraction(1, 8)) == 0


def test_algebraic_point_complex_witnesses():
    sol = solve_unit_circle(lp({1: 1, -1: 1, 2: 2, -2: 2}))
    for z in sol.all_points_complex():
        assert abs(lp({1: 1, -1: 1, 2: 2, -2: 2}).evaluate(z)) < 1e-9


@st.composite
def small_polys(draw):
    coeffs = draw(
        st.dictionaries(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-5, max_value=5),
            min_size=1,
            max_size=6,
        )
    )
    p = lp(coeffs)
    if p.is_zero():
        p = lp({0: 1, 1: 1})
    return p


@given(small_polys())
@example(lp({-4: -1, -2: -1, 0: 5, 1: 1, 2: -1, 3: 1}))
@settings(max_examples=200, deadline=None)
def test_solver_agrees_with_companion_matrix_roots(p):
    """Independent oracle: numpy roots of the cleared polynomial.

    numpy runs on the exact square-free part, because it splits a
    repeated root off the circle: the pinned example clears to
    (x+1)^2 (x^5 - 3x^4 + 6x^3 - 4x^2 + 2x - 1), whose double root -1
    comes back 1.7e-8 from the circle.
    """
    sol = solve_unit_circle(p)
    low = min(e for (e,) in p.coeffs)
    x = sympy.Symbol("x")
    cleared = sympy.Poly(
        sum(c * x ** (e - low) for (e,), c in p.coeffs.items()), x
    )
    arr = [float(c) for c in cleared.sqf_part().all_coeffs()]
    if len(arr) == 1:
        numeric = []
    else:
        numeric = [r for r in np.roots(arr) if abs(abs(r) - 1) < 1e-8]
    got = sol.all_points_complex()
    for r in numeric:
        assert min((abs(r - z) for z in got), default=2.0) < 1e-5
    for z in got:
        assert min((abs(r - z) for r in numeric), default=2.0) < 1e-5


@given(small_polys())
@settings(max_examples=150, deadline=None)
def test_every_returned_point_solves(p):
    sol = solve_unit_circle(p)
    for z in sol.all_points_complex():
        assert abs(abs(z) - 1) < 1e-9
        assert abs(p.evaluate(z)) < 1e-7


# --- the distinguished values -------------------------------------------


def test_simple_turns_are_the_eight_known_values():
    assert SIMPLE_TURNS == {
        Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
        Fraction(1, 3), Fraction(2, 3), Fraction(5, 6), Fraction(1, 6),
    }


def test_is_simple_point_exact_and_float():
    # The solvers judge each returned point with exactnum.is_simple_unit.
    assert is_simple_unit(OMEGA)
    assert is_simple_unit(-OMEGA2)
    assert not is_simple_unit(root_of_unity(1, 5))
    z = cmath.exp(2j * math.pi / 6)
    assert is_simple_unit(UnitValue.from_float(z.real, z.imag))


def test_solution_set_simplicity_predicates():
    simple = solve_unit_circle(lp({0: 2, 1: 2, -1: 2}))
    assert not has_nonsimple_point(simple)
    mixed = solve_unit_circle(lp({1: 1, -1: 1, 2: 2, -2: 2}))
    assert has_nonsimple_point(mixed)


# --- torus relations and residuals ---------------------------------------


def test_ten_relation_residual_vanishes_on_relations():
    w = cmath.exp(2j * math.pi / 7)
    assert ten_relation_residual(w, w) < 1e-12          # a = b
    assert ten_relation_residual(w, w.conjugate()) < 1e-12
    assert ten_relation_residual(-w, w) < 1e-12
    assert ten_relation_residual(w * w, w) < 1e-12      # a = b^2
    assert ten_relation_residual(w, w * w) < 1e-12      # b = a^2
    assert ten_relation_residual(-1 + 0j, w) < 1e-12
    assert ten_relation_residual(w, 1 + 0j) > 0.1


def test_pinned_residual_marks_settled_values():
    z = cmath.exp(1.234j)
    w3 = cmath.exp(2j * math.pi / 3)
    assert pinned_residual(w3, z) < 1e-12               # a is settled
    assert pinned_residual(z, -w3) < 1e-12              # b is settled
    assert pinned_residual(w3 * z, z) < 1e-12           # ratio is settled
    assert pinned_residual(cmath.exp(0.531j), z) > 1e-3


def test_torus_point_rogue_flag():
    assert TorusPoint(0.1, 0.2, simple=False, pinned=False).is_rogue()
    assert not TorusPoint(0.1, 0.2, simple=True, pinned=False).is_rogue()
    assert not TorusPoint(0.1, 0.2, simple=False, pinned=True).is_rogue()


# --- two-variable solving -------------------------------------------------


def test_torus_solver_input_checks():
    with pytest.raises(ValueError):
        solve_torus(lp({0: 1, 1: 1}))
    with pytest.raises(ValueError, match="identically zero"):
        solve_torus(lp2({}))


def _reference_coeff_rows(poly, main, other):
    """The sympy expression round trip that ``_coeff_rows`` replaced."""
    return [
        tuple(int(cc) for cc in sympy.Poly(c, other).all_coeffs())
        if c.free_symbols else int(c)
        for c in sympy.Poly(poly.as_expr(), main).all_coeffs()
    ]


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_coeff_rows_match_sympy_round_trip(coeffs):
    ta, tb = solve._TA, solve._TB
    poly = sympy.Poly.from_dict(coeffs, ta, tb)
    for main, other in ((ta, tb), (tb, ta)):
        assert solve._coeff_rows(poly, main) == (
            _reference_coeff_rows(poly, main, other)
        )


def test_torus_empty_when_constant_dominates():
    sol = solve_torus(lp2({(0, 0): 6, (1, 0): 1, (0, 1): 1}))
    assert sol.kind == "empty"
    assert sol.points == ()
    assert sol.rogue_points() == ()


def test_torus_isolated_points_all_simple():
    # 1 + a + conj(a) + 2b + a*conj(b) = 0 has exactly four solutions,
    # each satisfying one of the ten relations (two at cos(t_b) = -7/8).
    p = lp2({(0, 0): 1, (1, 0): 1, (-1, 0): 1, (0, 1): 2, (1, -1): 1})
    sol = solve_torus(p)
    assert sol.kind == "isolated"
    assert len(sol.points) == 4
    assert all(pt.simple for pt in sol.points)
    assert sol.rogue_points() == ()
    cos_b = sorted(round(math.cos(pt.theta2), 9) for pt in sol.points)
    assert cos_b == [-1.0, -0.875, -0.875, 1.0]


def test_torus_rogue_pair_is_exact():
    # 1 + a + 2conj(a) + 2conj(a)b = 0 has a conjugate pair of solutions
    # satisfying none of the ten relations and pinning nothing.
    p = lp2({(0, 0): 1, (1, 0): 1, (-1, 0): 2, (-1, 1): 2})
    sol = solve_torus(p)
    assert sol.kind == "isolated"
    rogue = sol.rogue_points()
    assert len(rogue) == 2
    a = (1 + sympy.sqrt(15) * sympy.I) / 4
    b = (-11 - 3 * sympy.sqrt(15) * sympy.I) / 16
    assert sympy.simplify(a * sympy.conjugate(a) - 1) == 0
    assert sympy.simplify(b * sympy.conjugate(b) - 1) == 0
    residual = 1 + a + 2 * sympy.conjugate(a) + 2 * sympy.conjugate(a) * b
    assert sympy.simplify(residual) == 0
    za, zb = complex(a), complex(b)
    hit = min(
        abs(cmath.exp(1j * pt.theta1) - za) + abs(cmath.exp(1j * pt.theta2) - zb)
        for pt in rogue
    )
    assert hit < 1e-9


def test_torus_curve_component_detected():
    # 2 + 2a + b + a*conj(b): the cleared polynomial shares the factor
    # a(2b + 1) + b(b + 2) with its reciprocal conjugate.
    p = lp2({(0, 0): 2, (1, 0): 2, (0, 1): 1, (1, -1): 1})
    sol = solve_torus(p)
    assert sol.kind == "curve"
    assert sol.curve_coeffs == ((0, 1, 2), (0, 2, 1), (1, 0, 1), (1, 1, 2))
    assert len(sol.points) >= 360
    assert sol.rogue_points()
    for pt in sol.points[:50]:
        a = cmath.exp(1j * pt.theta1)
        b = cmath.exp(1j * pt.theta2)
        assert abs(p.evaluate(a, b)) < 1e-7


def test_torus_real_part_line_curve():
    # 2 + a + conj(a) + b + conj(b) = 0 is the curve cos(t1) + cos(t2) = -1
    p = lp2({(0, 0): 2, (1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    sol = solve_torus(p)
    assert sol.kind == "curve"
    assert sol.rogue_points()
    for pt in sol.points:
        assert abs(math.cos(pt.theta1) + math.cos(pt.theta2) + 1) < 1e-7


def test_torus_points_deduplicated_and_sorted():
    p = lp2({(0, 0): 1, (1, 0): 1, (-1, 0): 1, (0, 1): 2, (1, -1): 1})
    pts = solve_torus(p).points
    keys = [(round(t.theta1, 9), round(t.theta2, 9)) for t in pts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@given(
    st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.integers(-3, 3),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=30, deadline=None)
def test_torus_solutions_verify(coeffs):
    p = lp2(coeffs)
    if p.is_zero():
        return
    sol = solve_torus(p, samples=36)
    for pt in sol.points:
        a = cmath.exp(1j * pt.theta1)
        b = cmath.exp(1j * pt.theta2)
        assert abs(p.evaluate(a, b)) < 1e-6
