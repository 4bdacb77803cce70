"""Unit tests for exact unit-circle scalars and cyclotomic integer sums."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chmkit.exactnum import (
    CycSum,
    Field,
    I_UNIT,
    MINUS_ONE,
    OMEGA,
    OMEGA2,
    ONE,
    ORDER_CAP,
    UnitValue,
    is_real,
    is_simple_unit,
    is_zero,
    root_of_unity,
    unit_sum,
)


def test_exact_products_add_turns():
    assert OMEGA * OMEGA2 == ONE
    assert I_UNIT * I_UNIT == MINUS_ONE
    assert root_of_unity(1, 5) * root_of_unity(2, 5) == root_of_unity(3, 5)


def test_negation_is_half_turn():
    assert -ONE == MINUS_ONE
    assert -OMEGA == root_of_unity(5, 6)
    assert (-OMEGA2) == root_of_unity(1, 6)


def test_conjugate_and_power():
    a = root_of_unity(3, 7)
    assert a.conj() == root_of_unity(4, 7)
    assert a ** 7 == ONE
    assert a ** -1 == a.conj()


def test_order_property():
    assert root_of_unity(2, 6).order == 3
    assert ONE.order == 1
    with pytest.raises(ValueError):
        UnitValue.from_float(1.0, 0.0).order


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        root_of_unity(1, 0)


def test_exact_mode_rejects_float_fields():
    with pytest.raises(ValueError):
        UnitValue(Fraction(1, 3), 0.5, 0.5)


def test_float_mode_circle_validation():
    v = UnitValue.from_float(0.6, 0.8)
    assert not v.is_exact
    with pytest.raises(ValueError):
        UnitValue.from_float(0.5, 0.5)


def test_mixed_mode_product_rejected():
    with pytest.raises(ValueError):
        OMEGA * UnitValue.from_float(1.0, 0.0)


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.turn = Fraction(1, 2)


def test_string_tokens():
    assert str(ONE) == "1"
    assert str(MINUS_ONE) == "-1"
    assert str(I_UNIT) == "i"
    assert str(-I_UNIT) == "-i"
    assert str(OMEGA) == "w"
    assert str(OMEGA2) == "w2"
    assert str(-OMEGA) == "-w"
    assert str(-OMEGA2) == "-w2"
    assert str(root_of_unity(1, 5)) == "e(1/5)"
    assert str(UnitValue.from_float(1.0, 0.0)) == "f(1.0,0.0)"


def test_is_simple_unit():
    simple = [ONE, MINUS_ONE, I_UNIT, -I_UNIT, OMEGA, OMEGA2, -OMEGA, -OMEGA2]
    assert all(is_simple_unit(u) for u in simple)
    assert not is_simple_unit(root_of_unity(1, 5))
    assert not is_simple_unit(root_of_unity(1, 12))
    for z in (cmath.exp(2j * math.pi / 3), cmath.exp(2j * math.pi / 6)):
        assert is_simple_unit(UnitValue.from_float(z.real, z.imag))


def test_cube_roots_sum_to_zero():
    assert unit_sum([ONE, OMEGA, OMEGA2]).is_zero()
    assert is_zero(unit_sum([ONE, OMEGA, OMEGA2]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 24])
def test_full_root_family_sums_to_zero(n):
    assert unit_sum([root_of_unity(k, n) for k in range(n)]).is_zero()


def test_nonzero_sum_detected():
    s = unit_sum([ONE, ONE, OMEGA])
    assert not s.is_zero()
    assert abs(s.evaluate() - (2 + OMEGA.as_complex())) < 1e-12


def test_is_real():
    a = root_of_unity(2, 7)
    assert is_real(unit_sum([a, a.conj()]))
    assert not is_real(unit_sum([a, a]))


def test_mixed_orders_coerce():
    s = unit_sum([ONE, OMEGA, OMEGA2, I_UNIT, -I_UNIT])
    assert s.order == 12
    assert s.is_zero()


def test_order_overflow_guard():
    values = [root_of_unity(1, 16), root_of_unity(1, 315)]
    assert unit_sum(values).order == ORDER_CAP
    with pytest.raises(ValueError, match="order overflow"):
        unit_sum(values + [root_of_unity(1, 11)])


def test_unit_sum_rejects_floats():
    with pytest.raises(ValueError, match="exact"):
        unit_sum([ONE, UnitValue.from_float(1.0, 0.0)])


def test_cycsum_algebra():
    a = CycSum.from_exponents(12, [4])  # w
    b = CycSum.from_exponents(12, [8])  # w2
    one = CycSum.from_exponents(12, [0])
    assert a * b == one
    assert a + b == -one  # w + w2 = -1
    assert (a - a).is_zero()
    assert a.conj() == b


def test_cycsum_rebase_preserves_value():
    a = CycSum.from_exponents(3, [1])
    b = a.rebase(12)
    assert a == b
    assert abs(a.evaluate() - b.evaluate()) < 1e-12
    with pytest.raises(ValueError):
        a.rebase(7)


# Orders drawn from divisors of 2520 so that any joint lcm stays within
# the 5040 order cap; the cap itself is exercised separately above.
_ORDERS = sorted(q for q in range(1, 2521) if 2520 % q == 0)


@st.composite
def exact_units(draw):
    q = draw(st.sampled_from(_ORDERS))
    p = draw(st.integers(min_value=0, max_value=q - 1))
    return root_of_unity(p, q)


@given(st.lists(exact_units(), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_unit_sum_matches_float_evaluation(values):
    s = unit_sum(values)
    direct = sum(v.as_complex() for v in values)
    assert abs(s.evaluate() - direct) < 1e-9


@given(st.lists(exact_units(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_sum_with_negations_is_zero(values):
    padded = values + [-v for v in values]
    assert unit_sum(padded).is_zero()


@given(exact_units(), exact_units())
@settings(max_examples=200, deadline=None)
def test_product_matches_complex_product(a, b):
    got = (a * b).as_complex()
    want = a.as_complex() * b.as_complex()
    assert abs(got - want) < 1e-12


@given(st.lists(exact_units(), min_size=1, max_size=5),
       st.lists(exact_units(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_cycsum_multiplication_evaluates(xs, ys):
    sx, sy = unit_sum(xs), unit_sum(ys)
    assert abs((sx * sy).evaluate() - sx.evaluate() * sy.evaluate()) < 1e-9


@given(st.lists(exact_units(), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_conjugation_matches_complex_conjugate(values):
    s = unit_sum(values)
    assert abs(s.conj().evaluate() - s.evaluate().conjugate()) < 1e-9


def test_field_element_float_is_correctly_rounded():
    """float() of a field element is the double nearest its exact value:
    the value lies between the midpoints to the neighbouring doubles, as
    the field's own sign test decides, in Q(sqrt 2) and in Q(p) for the
    real root p of p^3 - p - 1."""
    sqrt2 = Field([Fraction(-2), Fraction(0), Fraction(1)], Fraction(1), Fraction(2))
    assert float(sqrt2(0, 1)) == math.sqrt(2)
    plastic = Field([Fraction(-1), Fraction(-1), Fraction(0), Fraction(1)],
                    Fraction(1), Fraction(2))
    rng = random.Random(5)
    for field in (sqrt2, plastic):
        degree = len(field.minpoly) - 1
        for _ in range(40):
            x = field(*(Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                        for _ in range(degree)))
            d = float(x)
            below = (Fraction(d) + Fraction(math.nextafter(d, -math.inf))) / 2
            above = (Fraction(d) + Fraction(math.nextafter(d, math.inf))) / 2
            assert (x - below).sign() > 0 and (x - above).sign() < 0, x.coeffs
    third = Field([Fraction(-1, 3), Fraction(1)], Fraction(1, 3), Fraction(1, 3))
    assert float(third(0, 1)) == 1 / 3 and float(third()) == 0.0
