"""Exact root finding on the unit circle for small Laurent polynomials.

Equations here arise as inner-product constraints whose unknowns are
unimodular, so only roots on the unit circle matter. For an integer
polynomial those come from two places: cyclotomic factors (roots of
unity, recognized exactly) and irreducible self-reciprocal factors of
even degree, which descend to a polynomial in cos(theta) of half the
degree via the substitution y = x + 1/x. Any other irreducible factor
has no unimodular root at all: a non-real unimodular root r forces
conj(r) = 1/r into the factor, making it self-reciprocal, and real
unimodular roots are just +-1, whose minimal polynomials are
cyclotomic. That argument makes the decomposition below a complete
description, not a heuristic.

Each solution is exact: a root of unity is its turn (``UnitValue``), any
other pair of roots an ``AlgebraicPoint``, whose cosine generates an
``exactnum.Field``. Float angles are derived from the exact point.

A point is simple when a letter is one of the eight values of
``exactnum.SIMPLE_TURNS`` (complex values in ``exactnum.SIMPLE_VALUES``)
or when (a, b) satisfies one of the ten relations x = s*y^k of
``SETTLED_RELATIONS`` below. Every simplicity predicate, residual and
substitution of the package is read off these two tables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

import sympy
from sympy import Poly, Symbol

from .exactnum import (
    SIMPLE_VALUES,
    Field,
    in_unit_interval,
    is_simple_unit,
    real_root_fields,
    root_of_unity,
)

_X = Symbol("x")


class LaurentPoly:
    """Integer Laurent polynomial in one or two unimodular variables."""

    __slots__ = ("variables", "coeffs")

    def __init__(self, variables, coeffs):
        variables = tuple(variables)
        if len(variables) not in (1, 2):
            raise ValueError("LaurentPoly supports 1 or 2 variables")
        clean = {}
        for exps, c in dict(coeffs).items():
            exps = tuple(int(e) for e in (exps if isinstance(exps, tuple) else (exps,)))
            if len(exps) != len(variables):
                raise ValueError("exponent arity does not match variables")
            c = int(c)
            if c:
                clean[exps] = clean.get(exps, 0) + c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "coeffs", {k: v for k, v in clean.items() if v})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def from_terms(cls, variables, terms: Iterable):
        acc = {}
        for exps, c in terms:
            exps = tuple(exps) if isinstance(exps, (tuple, list)) else (exps,)
            acc[exps] = acc.get(exps, 0) + c
        return cls(variables, acc)

    def is_zero(self) -> bool:
        return not self.coeffs

    def conjugate(self) -> "LaurentPoly":
        return LaurentPoly(
            self.variables,
            {tuple(-e for e in k): c for k, c in self.coeffs.items()},
        )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.variables != other.variables:
            raise ValueError("variable mismatch")
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc.get(k, 0) + c
        return LaurentPoly(self.variables, acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.variables, {k: -c for k, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.variables == other.variables
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self.coeffs.items()))))

    def evaluate(self, *points: complex) -> complex:
        if len(points) != len(self.variables):
            raise ValueError("wrong number of evaluation points")
        total = 0j
        for exps, c in self.coeffs.items():
            term = complex(c)
            for p, e in zip(points, exps):
                term *= p ** e
            total += term
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exps, c in sorted(self.coeffs.items()):
            mon = "*".join(
                f"{v}^{e}" for v, e in zip(self.variables, exps) if e
            )
            parts.append(f"{c}" + (f"*{mon}" if mon else ""))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


@dataclass(frozen=True)
class AlgebraicPoint:
    """A conjugate pair of unimodular roots, described through cos(theta).

    ``field`` is Q(cos theta): its generator is the exact cosine, a
    root of its minimal polynomial isolated by its interval. The integer
    minimal polynomial and the float angle are read off it.
    """

    field: Field

    @property
    def cos_minpoly(self) -> tuple:
        """The integer minimal polynomial of cos(theta), constant term first."""
        scale = math.lcm(*(c.denominator for c in self.field.minpoly))
        return tuple(int(c * scale) for c in self.field.minpoly)

    @property
    def theta(self) -> float:
        """The angle of the root in the upper half plane, as a float."""
        return math.acos(float(self.field(0, 1)))

    def as_complex(self) -> complex:
        return cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class SolutionSet:
    """All unimodular solutions of one equation.

    ``exact_points`` are roots of unity; ``algebraic_points`` carry the
    remaining solutions as cos(theta) algebraic numbers (each standing
    for a conjugate pair). ``complete`` is always true for one variable;
    the two-variable sets of ``arrays`` set it false: they hold the
    roots of unity of the relation substitutions, not every solution.
    """

    exact_points: tuple
    algebraic_points: tuple
    complete: bool

    def is_empty(self) -> bool:
        return not self.exact_points and not self.algebraic_points

    def all_points_complex(self):
        pts = [v.as_complex() for v in self.exact_points]
        for ap in self.algebraic_points:
            pts.append(ap.as_complex())
            pts.append(ap.as_complex().conjugate())
        return pts


@lru_cache(maxsize=None)
def _cyclotomic_orders(deg: int) -> dict:
    """Coefficient tuple (leading first) of Phi_n -> n, over every n up
    to max(24, 2*deg^2 + 6) with totient(n) = deg."""
    table = {}
    bound = max(24, 2 * deg * deg + 6)
    for n, totient in enumerate(sympy.sieve.totientrange(1, bound + 1), start=1):
        if totient == deg:
            cyclotomic = Poly(sympy.cyclotomic_poly(n, _X), _X)
            table[tuple(int(c) for c in cyclotomic.all_coeffs())] = n
    return table


def _cyclotomic_order(f: Poly) -> Optional[int]:
    """The n with f = n-th cyclotomic polynomial, if one exists."""
    return _cyclotomic_orders(f.degree()).get(
        tuple(int(c) for c in f.all_coeffs())
    )


def _cos_polynomial(coeffs: list) -> list:
    """Integer polynomial in c = cos(theta) for a self-reciprocal factor.

    For f of even degree 2m with symmetric coefficients, f(x)/x^m is an
    integer combination of x^j + x^(-j), and those rewrite through the
    recurrence p_j = y*p_(j-1) - p_(j-2) with y = x + 1/x = 2c.
    """
    deg = len(coeffs) - 1
    m = deg // 2
    # p_j as polynomial in y, ascending coefficients
    p = [[2], [0, 1]]
    for j in range(2, m + 1):
        prev, prev2 = p[j - 1], p[j - 2]
        shifted = [0] + prev
        nxt = [
            (shifted[i] if i < len(shifted) else 0)
            - (prev2[i] if i < len(prev2) else 0)
            for i in range(max(len(shifted), len(prev2)))
        ]
        p.append(nxt)
    out = [0] * (m + 1)
    out[0] += coeffs[m]
    for j in range(1, m + 1):
        for i, c in enumerate(p[j]):
            out[i] += coeffs[m + j] * c
    # substitute y = 2c
    return [c * (2 ** i) for i, c in enumerate(out)]


def _coefficients(p: LaurentPoly) -> list:
    """Integer coefficients of a nonzero one-variable Laurent polynomial,
    leading first, shifted so that the constant term is nonzero."""
    exps = [e for (e,) in p.coeffs]
    return [p.coeffs.get((e,), 0) for e in range(max(exps), min(exps) - 1, -1)]


@lru_cache(maxsize=None)
def solve_unit_circle(p: LaurentPoly) -> SolutionSet:
    """Every unimodular root of a one-variable Laurent polynomial, exactly.

    Clears denominators, factors over the integers, reads roots of unity
    off cyclotomic factors, and converts the remaining self-reciprocal
    factors to cos(theta) polynomials solved by exact real root
    isolation. The returned set is complete. ``LaurentPoly`` and the
    returned set are immutable. Factoring runs once per normalised
    polynomial: p, -p and a^k*p share one returned set. Re-verification
    against p runs once per distinct equation; invalid input raises
    every time.
    """
    if len(p.variables) != 1:
        raise ValueError("solve_unit_circle expects a single variable")
    if p.is_zero():
        raise ValueError("identically zero")
    coeffs = _coefficients(p)
    sign = 1 if coeffs[0] > 0 else -1
    sol = _solve_cleared(tuple(sign * c for c in coeffs))
    _reverify(p, sol)
    return sol


@lru_cache(maxsize=None)
def _solve_cleared(coeffs: tuple) -> SolutionSet:
    """Unimodular roots of the integer polynomial with these coefficients,
    leading first; the leading one is positive, the constant term
    nonzero."""
    poly = Poly(coeffs, _X)
    exact = []
    algebraic = []
    for factor, _mult in poly.factor_list()[1]:
        fdeg = factor.degree()
        if fdeg == 0:
            continue
        n = _cyclotomic_order(factor)
        if n is not None:
            for k in range(n):
                if math.gcd(k, n) == 1:
                    exact.append(root_of_unity(k, n))
            continue
        coeff_list = [int(c) for c in factor.all_coeffs()]
        if fdeg % 2 == 0 and coeff_list == coeff_list[::-1]:
            cos_coeffs = _cos_polynomial(coeff_list[::-1])
            for field in real_root_fields(Poly(cos_coeffs[::-1], _X)):
                # +-1 is no root: x -+ 1 would divide the irreducible factor
                if in_unit_interval(field(0, 1)):
                    algebraic.append(AlgebraicPoint(field))
        # non-reciprocal, non-cyclotomic factors carry no unimodular roots

    exact_sorted = tuple(sorted(set(exact), key=lambda u: u.turn))
    algebraic_sorted = tuple(sorted(algebraic, key=lambda ap: ap.theta))
    return SolutionSet(
        exact_points=exact_sorted,
        algebraic_points=algebraic_sorted,
        complete=True,
    )


def _reverify(p: LaurentPoly, sol: SolutionSet) -> None:
    for z in sol.all_points_complex():
        if abs(p.evaluate(z)) > 1e-7:
            raise AssertionError("solution point fails numeric re-check")


def has_nonsimple_point(sol: SolutionSet) -> bool:
    """Whether a point leaves the eight simple values.

    Algebraic points always count as non-simple: a simple value has
    rational cosine and would have been captured in a cyclotomic factor
    instead.
    """
    if sol.algebraic_points:
        return True
    return any(not is_simple_unit(u) for u in sol.exact_points)


# --- the settled relations ----------------------------------------------


@dataclass(frozen=True)
class Relation:
    """One constraint lhs = sign * rhs between monomials in the letters.

    Both sides are exponent vectors over the letters; an all-zero (or
    empty) vector denotes the constant 1, so ((1, 0), -1, (0, 0)) reads
    "a = -1". The realness dichotomies of ``arrays`` produce relations of
    any shape. A relation between the two letters a, b reads
    x = s * y^k with k in {0, -1, 1, 2}; ``letter``, ``power`` and the
    methods below assume that shape.
    """

    lhs_exps: tuple
    rhs_sign: int
    rhs_exps: tuple

    @property
    def letter(self) -> int:
        """Index of x, the letter on the left of x = s * y^k."""
        return self.lhs_exps.index(1)

    @property
    def power(self) -> int:
        """The k of x = s * y^k."""
        return self.rhs_exps[1 - self.letter]

    @property
    def equation(self) -> LaurentPoly:
        """x - s*y^k, or lhs - s*rhs, as a polynomial in (a, b)."""
        return LaurentPoly.from_terms(
            ("a", "b"), ((self.lhs_exps, 1), (self.rhs_exps, -self.rhs_sign)))

    def point(self, t) -> tuple:
        """(t_a, t_b) in turns on the relation with y at turn t, mod 1:
        t_x = k*t_y, plus 1/2 when s = -1."""
        tx = self.power * t
        if self.rhs_sign < 0:
            tx = tx + Fraction(1, 2)
        pair = (tx % 1, t % 1)
        return pair if self.letter == 0 else pair[::-1]

    def holds(self, ta: Fraction, tb: Fraction) -> bool:
        """Exact test at the roots of unity a = e(ta), b = e(tb)."""
        return self.point((ta, tb)[1 - self.letter]) == (ta % 1, tb % 1)

    def substitute(self, p: LaurentPoly) -> LaurentPoly:
        """p(a, b) on the relation, as a polynomial in the letter y.

        The monomial x^ex * y^ey becomes s^ex * y^(ey + k*ex).
        """
        x, k, s = self.letter, self.power, self.rhs_sign
        acc = {}
        for exps, c in p.coeffs.items():
            ex, ey = exps[x], exps[1 - x]
            key = (ey + k * ex,)
            acc[key] = acc.get(key, 0) + s ** (ex % 2) * c
        return LaurentPoly((p.variables[1 - x],), acc)

    def __str__(self) -> str:
        def mono(exps):
            if not exps or not any(exps):
                return "1"
            names = ("a", "b")
            return "*".join(
                f"{names[i]}^{e}" for i, e in enumerate(exps) if e
            )

        sign = "-" if self.rhs_sign < 0 else ""
        return f"{mono(self.lhs_exps)} = {sign}{mono(self.rhs_exps)}"


_A, _B = (1, 0), (0, 1)

# The ten relations on (a, b) that hand a matrix to an already settled
# case. This is the package's only list of them: the float residual, the
# exact turn test, the torus substitutions and the exact point tests of
# ``pairs`` (through ``Relation.equation``) are all read off it.
SETTLED_RELATIONS = (
    Relation(_A, 1, (0, 1)),    # a = b
    Relation(_A, 1, (0, -1)),   # a = conj(b)
    Relation(_A, -1, (0, 1)),   # a = -b
    Relation(_A, -1, (0, -1)),  # a = -conj(b)
    Relation(_A, 1, (0, 2)),    # a = b^2
    Relation(_A, -1, (0, 2)),   # a = -b^2
    Relation(_B, 1, (2, 0)),    # b = a^2
    Relation(_B, -1, (2, 0)),   # b = -a^2
    Relation(_A, -1, (0, 0)),   # a = -1
    Relation(_B, -1, (0, 0)),   # b = -1
)


# --- two-variable equations on the torus --------------------------------

_TA, _TB = Symbol("ta"), Symbol("tb")

_SETTLED_FORMS = tuple(
    (rel.letter, rel.rhs_sign < 0, rel.power) for rel in SETTLED_RELATIONS
)


def _float_power(y, k):
    # conj(y) rather than 1/y: both agree on the circle, and conjugate()
    # works the same for complex and mpmath values
    if k == 0:
        return 1
    if k == -1:
        return y.conjugate()
    return y * y if k == 2 else y


def ten_relation_residual(a, b) -> float:
    """Smallest deviation |x - s*y^k| from the ten settled relations.

    Works on complex or mpmath values alike.
    """
    letters = (a, b)
    return min(
        abs(letters[x] + _float_power(letters[1 - x], k)) if negative
        else abs(letters[x] - _float_power(letters[1 - x], k))
        for x, negative, k in _SETTLED_FORMS
    )


def pinned_residual(a, b) -> float:
    """Distance from having a letter, or the ratio a*conj(b), land on
    one of the eight distinguished values.

    Such a point satisfies none of the ten relations yet still hands
    the matrix to an already-settled alphabet, so it cannot seed a new
    matrix either.
    """
    probes = (a, b, a * b.conjugate())
    return min(abs(v - w) for v in probes for w in SIMPLE_VALUES)


_FLAG_TOL = 1e-9


@dataclass(frozen=True)
class TorusPoint:
    """One torus solution of a two-variable equation.

    ``simple`` marks the ten settled relations; ``pinned`` marks points
    with a letter (or the ratio of the letters) at a distinguished
    value. A point that is neither escapes every settled case.
    ``solve_torus`` finds each point to 50 digits, then computes the
    angles and both flags in doubles from it: a flag is set when its
    residual is at most ``_FLAG_TOL``.
    """

    theta1: float
    theta2: float
    simple: bool
    pinned: bool

    def is_rogue(self) -> bool:
        return not self.simple and not self.pinned


@dataclass(frozen=True)
class TorusSolution:
    """Zero set of a two-variable Laurent polynomial on the torus.

    kind "empty": no solutions at all. kind "isolated": ``points``
    lists every solution. kind "curve": the cleared polynomial shares a
    factor with its reciprocal conjugate, so the zero set contains a
    real curve; ``points`` then holds sampled curve points plus any
    isolated solutions away from the curve, and ``curve_coeffs`` the
    shared factor as (exp1, exp2, coeff) triples. Curve samples are a
    witness, not an enumeration. They are taken off the rational turns:
    a sample at a root of unity lands on the curve's torsion points,
    which are the points the ten settled relations describe.
    """

    kind: str
    points: tuple
    curve_coeffs: Optional[tuple] = None

    def rogue_points(self) -> tuple:
        return tuple(pt for pt in self.points if pt.is_rogue())


def _unit_roots_of_factor(coeffs, mp):
    """Unimodular roots of one irreducible integer polynomial."""
    if len(coeffs) <= 1:
        return []
    roots = mp.polyroots([mp.mpc(c) for c in coeffs], maxsteps=300, extraprec=150)
    keep = []
    for r in roots:
        if abs(abs(r) - 1) < mp.mpf(10) ** -25:
            keep.append(r / abs(r))
    return keep


def _coeff_rows(poly: Poly, main: Symbol) -> list:
    """Coefficients of a two-letter ``poly`` in ``main``, leading first:
    each an int, or, when it involves the other letter, the int
    coefficients (leading first) of a polynomial in that letter."""
    m = poly.gens.index(main)
    by_power = {}
    for exps, c in poly.as_dict().items():
        by_power.setdefault(exps[m], {})[exps[1 - m]] = int(c)
    rows = []
    for i in range(max(by_power), -1, -1):
        row = by_power.get(i, {})
        top = max(row, default=0)
        rows.append(
            tuple(row.get(j, 0) for j in range(top, -1, -1)) if top
            else row.get(0, 0)
        )
    return rows


def _coeffs_at(rows: list, value, mp) -> list:
    """``_coeff_rows`` evaluated with the other letter at ``value``
    (Horner), with leading near-zero coefficients stripped."""
    out = []
    for row in rows:
        if isinstance(row, tuple):
            acc = mp.mpc(0)
            for cc in row:
                acc = acc * value + cc
        else:
            acc = mp.mpc(row)
        out.append(acc)
    while out and abs(out[0]) < mp.mpf(10) ** -30:
        out = out[1:]
    return out


def _classify_torus_point(a, b) -> "TorusPoint":
    # The residuals run in doubles: on all 1622 points of the 357 GENERIC
    # equations at samples=8 they are at most 5.6e-16 or at least 6.6e-4,
    # far from _FLAG_TOL, and within 2.2e-16 of their 50-digit values.
    za, zb = complex(a), complex(b)
    return TorusPoint(
        theta1=cmath.phase(za) % (2 * math.pi),
        theta2=cmath.phase(zb) % (2 * math.pi),
        simple=ten_relation_residual(za, zb) <= _FLAG_TOL,
        pinned=pinned_residual(za, zb) <= _FLAG_TOL,
    )


def solve_torus(p: LaurentPoly, samples: int = 720) -> TorusSolution:
    """Solve a two-variable Laurent polynomial on the unit torus, exactly.

    On the torus the complex conjugate of p is p with inverted
    exponents, so zeros of p are the common zeros of the cleared
    polynomial P and its reciprocal conjugate Q. A nontrivial gcd of P
    and Q cuts the torus in a real curve (kind "curve", sampled at
    ``samples`` angles 2*pi*k/samples + 1 rad of one letter); whatever
    remains is confined by the resultant eliminating the first
    variable to finitely many candidates, each verified and classified
    (kind "isolated", complete, or "empty"). Roots are found at 50
    digits; the verification and the ``simple`` and ``pinned`` flags
    (residual at most ``_FLAG_TOL``) are computed in doubles from them.
    """
    import mpmath as mp

    if len(p.variables) != 2:
        raise ValueError("solve_torus expects two variables")
    if p.is_zero():
        raise ValueError("identically zero")

    e1min = min(e1 for e1, _ in p.coeffs)
    e2min = min(e2 for _, e2 in p.coeffs)
    e1max = max(e1 for e1, _ in p.coeffs)
    e2max = max(e2 for _, e2 in p.coeffs)
    P = Poly.from_dict(
        {(e1 - e1min, e2 - e2min): c for (e1, e2), c in p.coeffs.items()},
        _TA, _TB,
    )
    Q = Poly.from_dict(
        {(e1max - e1, e2max - e2): c for (e1, e2), c in p.coeffs.items()},
        _TA, _TB,
    )

    def verified(a, b):
        return abs(p.evaluate(complex(a), complex(b))) <= 1e-7

    with mp.workdps(50):
        points = []
        seen = set()

        def add_point(a, b):
            if not verified(a, b):
                return
            pt = _classify_torus_point(a, b)
            key = (round(pt.theta1, 9) % round(2 * math.pi, 9),
                   round(pt.theta2, 9) % round(2 * math.pi, 9))
            if key not in seen:
                seen.add(key)
                points.append(pt)

        G = P.gcd(Q)
        curve = G.total_degree() > 0
        if curve:
            # sample the curve: solve the shared factor along one angle
            main = _TA if G.degree(_TA) > 0 else _TB
            rows = _coeff_rows(G, main)
            for k in range(samples):
                w = mp.expj(2 * mp.pi * k / samples + 1)
                coeffs = _coeffs_at(rows, w, mp)
                if len(coeffs) <= 1:
                    continue
                try:
                    roots = mp.polyroots(coeffs, maxsteps=200, extraprec=100)
                except mp.libmp.libhyper.NoConvergence:
                    continue
                for r in roots:
                    if abs(abs(r) - 1) >= mp.mpf(10) ** -20:
                        continue
                    r = r / abs(r)
                    if main is _TA:
                        add_point(r, w)
                    else:
                        add_point(w, r)
            P, Q = P.quo(G), Q.quo(G)

        # isolated part: eliminate the first variable
        if P.total_degree() > 0 and Q.total_degree() > 0:
            R = Poly(P.resultant(Q), _TB)  # eliminates _TA, the first gen
            if not R.is_zero and R.total_degree() > 0:
                rows = _coeff_rows(P, _TA)
                for fac, _mult in R.factor_list()[1]:
                    fac_coeffs = [int(c) for c in fac.all_coeffs()]
                    for b0 in _unit_roots_of_factor(fac_coeffs, mp):
                        acoeffs = _coeffs_at(rows, b0, mp)
                        if len(acoeffs) <= 1:
                            continue
                        for a0 in mp.polyroots(
                            acoeffs, maxsteps=300, extraprec=150
                        ):
                            if abs(abs(a0) - 1) < mp.mpf(10) ** -20:
                                add_point(a0 / abs(a0), b0)

    points.sort(key=lambda pt: (pt.theta1, pt.theta2))
    if curve:
        coeff_triples = tuple(sorted(
            (e1, e2, int(c)) for (e1, e2), c in G.as_dict().items()
        ))
        return TorusSolution("curve", tuple(points), coeff_triples)
    kind = "isolated" if points else "empty"
    return TorusSolution(kind, tuple(points))
