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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

import sympy
from sympy import Poly, Symbol

from .exactnum import TOL, UnitValue, root_of_unity

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

    def to_sympy(self):
        syms = [Symbol(v) for v in self.variables]
        expr = sympy.Integer(0)
        for exps, c in self.coeffs.items():
            term = sympy.Integer(c)
            for s, e in zip(syms, exps):
                term *= s ** e
            expr += term
        return expr

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

    ``cos_minpoly`` is the primitive integer polynomial (coefficient
    tuple, constant term first) vanishing at cos(theta); ``cos_value``
    is the exact sympy number; ``theta`` a float witness for the root
    in the upper half plane.
    """

    cos_minpoly: tuple
    cos_value: object
    theta: float

    def as_complex(self) -> complex:
        return cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class SolutionSet:
    """All unimodular solutions of one equation.

    ``exact_points`` are roots of unity; ``algebraic_points`` carry the
    remaining solutions as cos(theta) algebraic numbers (each standing
    for a conjugate pair). ``complete`` is always true for one variable;
    two-variable witness searches set it false.
    """

    exact_points: tuple
    algebraic_points: tuple
    numeric_witnesses: tuple
    complete: bool

    def is_empty(self) -> bool:
        return not self.exact_points and not self.algebraic_points

    def all_points_complex(self):
        pts = [v.as_complex() for v in self.exact_points]
        for ap in self.algebraic_points:
            pts.append(ap.as_complex())
            pts.append(ap.as_complex().conjugate())
        return pts


def _cyclotomic_order(f: Poly) -> Optional[int]:
    """The n with f = n-th cyclotomic polynomial, if one exists."""
    deg = f.degree()
    if f.LC() != 1:
        return None
    bound = max(24, 2 * deg * deg + 6)
    for n in range(1, bound + 1):
        if sympy.totient(n) != deg:
            continue
        if f == Poly(sympy.cyclotomic_poly(n, _X), _X):
            return n
    return None


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


@lru_cache(maxsize=None)
def solve_unit_circle(p: LaurentPoly) -> SolutionSet:
    """Every unimodular root of a one-variable Laurent polynomial, exactly.

    Clears denominators, factors over the integers, reads roots of unity
    off cyclotomic factors, and converts the remaining self-reciprocal
    factors to cos(theta) polynomials solved by exact real root
    isolation. The returned set is complete. ``LaurentPoly`` and the
    returned set are immutable, so each distinct equation is factored
    and re-verified once per process; invalid input raises every time.
    """
    if len(p.variables) != 1:
        raise ValueError("solve_unit_circle expects a single variable")
    if p.is_zero():
        raise ValueError("identically zero")
    low = min(e for (e,) in p.coeffs)
    int_coeffs = {}
    for (e,), c in p.coeffs.items():
        int_coeffs[e - low] = c
    deg = max(int_coeffs)
    poly = Poly([int_coeffs.get(deg - i, 0) for i in range(deg + 1)], _X)

    exact = []
    algebraic = []
    witnesses = []
    for factor, _mult in poly.factor_list()[1]:
        fdeg = factor.degree()
        if fdeg == 0:
            continue
        n = _cyclotomic_order(factor)
        if n is not None:
            for k in range(n):
                if math.gcd(k, n) == 1:
                    u = root_of_unity(k, n)
                    exact.append(u)
                    witnesses.append(2 * math.pi * k / n)
            continue
        coeff_list = [int(c) for c in factor.all_coeffs()]
        if fdeg % 2 == 0 and coeff_list == coeff_list[::-1]:
            cos_coeffs = _cos_polynomial(coeff_list[::-1])
            g = Poly(list(reversed(cos_coeffs)), _X)
            g = g.primitive()[1]
            for root in g.real_roots():
                if not (-1 < root < 1):
                    continue
                theta = math.acos(float(root))
                algebraic.append(
                    AlgebraicPoint(
                        cos_minpoly=tuple(
                            int(c) for c in reversed(g.all_coeffs())
                        ),
                        cos_value=root,
                        theta=theta,
                    )
                )
                witnesses.append(theta)
        # non-reciprocal, non-cyclotomic factors carry no unimodular roots

    exact_sorted = tuple(sorted(set(exact), key=lambda u: u.turn))
    algebraic_sorted = tuple(sorted(algebraic, key=lambda ap: ap.theta))
    sol = SolutionSet(
        exact_points=exact_sorted,
        algebraic_points=algebraic_sorted,
        numeric_witnesses=tuple(sorted(witnesses)),
        complete=True,
    )
    _reverify(p, sol)
    return sol


def _reverify(p: LaurentPoly, sol: SolutionSet) -> None:
    for u in sol.exact_points:
        if abs(p.evaluate(u.as_complex())) > 1e-7:
            raise AssertionError("exact point fails numeric re-check")
    for z in sol.all_points_complex():
        if abs(p.evaluate(z)) > 1e-7:
            raise AssertionError("solution point fails re-verification")


SIMPLE_TURNS = frozenset(
    Fraction(k, 12) for k in (0, 6, 3, 9, 4, 8, 10, 2)
)


def is_simple_point(u: UnitValue) -> bool:
    """Membership in the eight distinguished values 1,-1,i,-i,w,w2,-w,-w2."""
    if u.turn is not None:
        return u.turn in SIMPLE_TURNS
    z = u.as_complex()
    return any(
        abs(z - cmath.exp(2j * math.pi * float(t))) <= TOL for t in SIMPLE_TURNS
    )


def solution_set_is_simple_only(sol: SolutionSet) -> bool:
    """True when every point is one of the eight distinguished values.

    Algebraic points always count as non-simple: a distinguished value
    has rational cosine and would have been captured in a cyclotomic
    factor instead.
    """
    if sol.algebraic_points:
        return False
    return all(is_simple_point(u) for u in sol.exact_points)


def has_nonsimple_point(sol: SolutionSet) -> bool:
    if sol.algebraic_points:
        return True
    return any(not is_simple_point(u) for u in sol.exact_points)


# --- two-variable equations on the torus --------------------------------

_TA, _TB = Symbol("ta"), Symbol("tb")
_EIGHT_VALUES = tuple(
    cmath.exp(2j * math.pi * float(t)) for t in sorted(SIMPLE_TURNS)
)


def ten_relation_residual(a, b) -> float:
    """Smallest deviation from the ten settled two-letter relations.

    The relations are a = +-b, a = +-conj(b), a = +-b^2, b = +-a^2,
    a = -1 and b = -1. Works on complex or mpmath values alike.
    """
    cb = b.conjugate()
    return min(
        abs(a - b), abs(a - cb), abs(a + b), abs(a + cb),
        abs(a - b * b), abs(a + b * b), abs(b - a * a), abs(b + a * a),
        abs(a + 1), abs(b + 1),
    )


def pinned_residual(a, b) -> float:
    """Distance from having a letter, or the ratio a*conj(b), land on
    one of the eight distinguished values.

    Such a point satisfies none of the ten relations yet still hands
    the matrix to an already-settled alphabet, so it cannot seed a new
    matrix either.
    """
    probes = (a, b, a * b.conjugate())
    return min(abs(v - w) for v in probes for w in _EIGHT_VALUES)


@dataclass(frozen=True)
class TorusPoint:
    """One torus solution of a two-variable equation.

    ``simple`` marks the ten settled relations; ``pinned`` marks points
    with a letter (or the ratio of the letters) at a distinguished
    value. A point that is neither escapes every settled case.
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
    witness, not an enumeration.
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


def _poly_coeffs_at(poly: Poly, main: Symbol, other: Symbol, value, mp):
    """Coefficient list of ``poly`` in ``main`` evaluated at other=value."""
    out = []
    for c in Poly(poly.as_expr(), main).all_coeffs():
        if c.free_symbols:
            acc = mp.mpc(0)
            for cc in Poly(c, other).all_coeffs():
                acc = acc * value + int(cc)
        else:
            acc = mp.mpc(int(c))
        out.append(acc)
    while out and abs(out[0]) < mp.mpf(10) ** -30:
        out = out[1:]
    return out


def _classify_torus_point(a, b, tol: float) -> "TorusPoint":
    t1 = float(cmath.phase(complex(a))) % (2 * math.pi)
    t2 = float(cmath.phase(complex(b))) % (2 * math.pi)
    return TorusPoint(
        theta1=t1,
        theta2=t2,
        simple=ten_relation_residual(a, b) <= tol,
        pinned=pinned_residual(a, b) <= tol,
    )


def solve_torus(p: LaurentPoly, samples: int = 720, tol: float = 1e-9) -> TorusSolution:
    """Solve a two-variable Laurent polynomial on the unit torus, exactly.

    On the torus the complex conjugate of p is p with inverted
    exponents, so zeros of p are the common zeros of the cleared
    polynomial P and its reciprocal conjugate Q. A nontrivial gcd of P
    and Q cuts the torus in a real curve (kind "curve", sampled);
    whatever remains is confined by the resultant eliminating the first
    variable to finitely many candidates, each verified and classified
    (kind "isolated", complete, or "empty").
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
            pt = _classify_torus_point(a, b, tol)
            key = (round(pt.theta1, 9) % round(2 * math.pi, 9),
                   round(pt.theta2, 9) % round(2 * math.pi, 9))
            if key not in seen:
                seen.add(key)
                points.append(pt)

        G = P.gcd(Q)
        curve = G.total_degree() > 0
        if curve:
            # sample the curve: solve the shared factor along one angle
            dega = Poly(G.as_expr(), _TA).degree() if _TA in G.free_symbols else 0
            main, other = (_TA, _TB) if dega > 0 else (_TB, _TA)
            for k in range(samples):
                w = mp.e ** (2j * mp.pi * k / samples)
                coeffs = _poly_coeffs_at(G, main, other, w, mp)
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
            R = Poly(sympy.resultant(P, Q, _TA), _TB)
            if not R.is_zero and R.total_degree() > 0:
                for fac, _mult in sympy.factor_list(R.as_expr(), _TB)[1]:
                    fac_coeffs = [int(c) for c in Poly(fac, _TB).all_coeffs()]
                    for b0 in _unit_roots_of_factor(fac_coeffs, mp):
                        acoeffs = _poly_coeffs_at(P, _TA, _TB, b0, mp)
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
