"""Exact values of chmkit's points as sympy numbers.

Tests that compare a point with values written in sympy convert the
exact point with these helpers and compare by value.
"""

import sympy

_R = sympy.Symbol("r")


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def element_value(x):
    """An ``exactnum.FieldElement`` as a sympy number, in radicals up to
    degree 4."""
    field = x.field
    poly = sympy.Poly([_rational(c) for c in reversed(field.minpoly)], _R)
    lo, hi = _rational(field.lo), _rational(field.hi)
    theta = next(r for r in poly.real_roots() if lo <= r <= hi)
    return sum(_rational(c) * theta**i for i, c in enumerate(x.coeffs))


def cos_value(ap):
    """The cosine of a ``solve.AlgebraicPoint``."""
    return element_value(ap.field(0, 1))


def cosines(pt):
    """The cosines (cos t_a, cos t_b) of a ``pairs.CommonPoint``."""
    if isinstance(pt.point, tuple):
        return tuple(sympy.cos(2 * sympy.pi * _rational(t)) for t in pt.point)
    return element_value(pt.point.c1), element_value(pt.point.c2)
