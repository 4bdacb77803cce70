"""Joint solvability of two count-array equations.

Two row pairs of one candidate matrix impose their inner-product
equations simultaneously, so the case analysis needs the common zero
set of two count arrays, not just each one alone. In one variable that
set is the unimodular roots of one integer gcd, taken on plain
coefficient lists by the primitive pseudo-remainder kernel of ``solve``
and solved by ``solve.solve_unit_circle``. In two variables both real
parts are linear in the three cosines (cos t1, cos t2, cos(t1-t2));
when the two linear forms are independent they cut a line, the
cosine-compatibility quadric (x4 - x2*x3)^2 = (1-x2^2)(1-x3^2) reduces
that line to finitely many candidates, and each candidate is accepted
or rejected exactly against both imaginary parts. The verdict is
therefore a proof, not a sampling claim: NoCommon and SimpleOnlyCommon
enumerate every common point.

Every candidate on that line is one real root theta of the quadric
polynomial in the line parameter, so its coordinates lie in the number
field Q(theta) (``exactnum.Field``), where zero and sign tests are
exact. The line and the quadric are ``sympy.Poly``s over QQ, and
``exactnum.real_root_fields`` gets the quadric's coefficient list. A
candidate with the signs of its two sines is an
``exactnum.CosinePoint``, which decides exactly whether an equation
vanishes there. The same test against the equations x - s*y^k of
``solve.SETTLED_RELATIONS`` decides whether a common point is simple.
No verdict rests on a numeric cut-off: the float re-evaluation of each
common point at 1e-9 only guards against a bug, and raises if it fails.

A ``CommonPoint`` is its pair of turns when both letters are roots of
unity, and otherwise a ``CosinePoint``. The substitution routes give
turns only: no residue of a count array has an algebraic unimodular
root, so they use no algebraic field. Sine signs and float angles are
read off the point, and no cosine is written out in sympy.

real_part_system exposes the line-meets-quadric elimination for the
recurring special family where one equation reduces to x_j + 2*x_k = 0
and the other spreads the coefficients {1,1,2,2} over a constant and
the three cosines. Squaring the compatibility relation introduces
spurious roots, so every root carries range and branch annotations
instead of a bare yes/no; a root is simple when its cosine is one of
those of the eight simple values of ``exactnum.SIMPLE_VALUES``.

h2_alphabet_relations collects the constraints a 2x2 unimodular
orthogonality pattern forces on a three-entry alphabet {1,a,b} and
solves the pairwise combinations exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import sympy
from sympy import Symbol

from .arrays import (
    STRUCTURES,
    CountArray,
    is_simple,
    original_equation,
)
from .exactnum import (
    SIMPLE_VALUES,
    CosinePoint,
    as_fraction,
    in_unit_interval,
    real_root_fields,
    sqrt_sum_vanishes,
)
from .solve import (
    SETTLED_RELATIONS,
    LaurentPoly,
    Relation,
    SolutionSet,
    _coefficients,
    _primitive_gcd,
    has_nonsimple_point,
    solve_unit_circle,
)

_T = Symbol("t", real=True)

_CONJ_STRUCT = STRUCTURES["CONJ"]

# The cosines of the eight simple values: -1, -1/2, 0, 1/2, 1. Twice
# each is an integer, so rounding the float reads it exactly, and
# importing the module evaluates no sympy trigonometry.
_SIMPLE_COSINES = tuple(sorted({Fraction(round(2 * v.real), 2) for v in SIMPLE_VALUES}))

# The ten settled relations as equations x - s*y^k = 0 in (a, b).
_SETTLED_EQUATIONS = tuple(rel.equation for rel in SETTLED_RELATIONS)


class UnsupportedPair(NotImplementedError):
    """The pair falls outside the implemented elimination shapes."""


# --- one-variable pairs -------------------------------------------------
#
# Each equation, shifted to a nonzero constant term, is a short integer
# coefficient list, and the gcd of two of them is solve's primitive
# pseudo-remainder kernel on those lists: exact, and no sympy Poly is
# built. A constant gcd means no common root.


def _int_gcd(pA: LaurentPoly, pB: LaurentPoly) -> list:
    """gcd over the integers of two nonzero one-variable polynomials.

    Coefficients leading first, as ``sympy.gcd`` over ZZ gives them: the
    gcd of the two contents times the primitive gcd with a positive
    leading coefficient, so ``[c]`` when the gcd is a constant. So
    ``solve_unit_circle`` sees the polynomial sympy would give, and its
    cache the same key.
    """
    f, g = _coefficients(pA), _coefficients(pB)
    content = math.gcd(math.gcd(*f), math.gcd(*g))
    return [content * x for x in _primitive_gcd(f, g)]


def _intpoly_to_laurent(coeffs: list, variable: str) -> LaurentPoly:
    deg = len(coeffs) - 1
    return LaurentPoly((variable,), {(deg - i,): c for i, c in enumerate(coeffs)})


def _normalized(p: LaurentPoly) -> LaurentPoly:
    """Sign-normalized copy so p and -p compare as the same constraint."""
    if p.is_zero():
        return p
    lead = p.coeffs[max(p.coeffs)]
    return -p if lead < 0 else p


def _common_one_variable(pA: LaurentPoly, pB: LaurentPoly) -> "PairVerdict":
    if pA.is_zero() or pB.is_zero():
        # one constraint is vacuous, so the common set is the other's
        common = solve_unit_circle(pB if pA.is_zero() else pA)
        return _verdict_from_set(common, method="vacuous-side")
    g = _int_gcd(pA, pB)
    if len(g) == 1:
        empty = SolutionSet((), (), complete=True)
        return PairVerdict("NoCommon", common=empty, points=(),
                           witness=None, method="gcd")
    common = solve_unit_circle(_intpoly_to_laurent(g, pA.variables[0]))
    return _verdict_from_set(common, method="gcd")


def _verdict_from_set(common: SolutionSet, method: str) -> "PairVerdict":
    if common.is_empty():
        kind = "NoCommon"
        witness = None
    elif has_nonsimple_point(common):
        kind = "NonSimpleCommon"
        witness = None
        for ap in common.algebraic_points:
            witness = (ap.theta,)
            break
        if witness is None:
            for u in common.exact_points:
                if not is_simple(u, _CONJ_STRUCT):
                    witness = (2 * math.pi * float(u.turn),)
                    break
    else:
        kind = "SimpleOnlyCommon"
        witness = None
    return PairVerdict(kind, common=common, points=(),
                       witness=witness, method=method)


# --- two-variable pairs -------------------------------------------------


def _real_linear(p: LaurentPoly):
    """Coefficients (c, c1, c2, c12) of Re p = c + c1*x2 + c2*x3 + c12*x4."""
    c0 = c1 = c2 = c12 = 0
    for (e1, e2), c in p.coeffs.items():
        if (e1, e2) == (0, 0):
            c0 += c
        elif e2 == 0 and abs(e1) == 1:
            c1 += c
        elif e1 == 0 and abs(e2) == 1:
            c2 += c
        elif (e1, e2) in ((1, -1), (-1, 1)):
            c12 += c
        else:
            raise UnsupportedPair(f"unexpected product exponent {(e1, e2)}")
    return c0, c1, c2, c12


@dataclass(frozen=True)
class CommonPoint:
    """One exact common solution of a two-variable pair.

    ``point`` is the pair of turns (t_a, t_b), as Fractions, when both
    letters are roots of unity, and otherwise a ``CosinePoint``.
    ``simple`` says whether it lies on one of the ten settled relations.
    The signs of the sines, 0 when a sine vanishes, and ``thetas``, the
    float witness angle pair in [0, 2*pi), are read off the point.
    """

    point: object
    simple: bool

    @property
    def sign_a(self) -> int:
        return self._signs()[0]

    @property
    def sign_b(self) -> int:
        return self._signs()[1]

    def _signs(self) -> tuple:
        if isinstance(self.point, CosinePoint):
            return self.point.s1, self.point.s2
        half = Fraction(1, 2)
        return tuple(0 if t in (0, half) else (1 if t < half else -1)
                     for t in self.point)

    @property
    def thetas(self) -> tuple:
        if not isinstance(self.point, CosinePoint):
            return tuple(2 * math.pi * float(t) for t in self.point)
        # the float of an exact cosine is correctly rounded, so in [-1, 1]
        angles = (math.acos(float(c)) for c in (self.point.c1, self.point.c2))
        return tuple(2 * math.pi - t if s < 0 else t
                     for t, s in zip(angles, self._signs()))


def _on_settled_relation(pt: CosinePoint) -> bool:
    """Exact test of the ten settled relations at one point."""
    return any(pt.vanishes(eq) for eq in _SETTLED_EQUATIONS)


def _solve_real_line(pA: LaurentPoly, pB: LaurentPoly):
    """Parametrize the common zero line of both real parts, if a line.

    Returns the (x2, x3, x4) coordinates as polynomials of degree at
    most 1 over QQ in one parameter, or None when the two linear forms
    are dependent.
    """
    LA = _real_linear(pA)
    LB = _real_linear(pB)
    rows = (LA[1:], LB[1:])
    consts = (LA[0], LB[0])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
        if det == 0:
            continue
        k = 3 - i - j
        rhs = [sympy.Poly([-rows[r][k], -consts[r]], _T, domain=sympy.QQ)
               for r in range(2)]
        coords = [None, None, None]
        coords[i] = (rhs[0] * rows[1][j] - rhs[1] * rows[0][j]).quo_ground(det)
        coords[j] = (rhs[1] * rows[0][i] - rhs[0] * rows[1][i]).quo_ground(det)
        coords[k] = sympy.Poly([1, 0], _T, domain=sympy.QQ)
        return tuple(coords)
    return None


def _line_candidates(coords, pA, pB):
    """Exact common points of pA and pB on their real-part line.

    Returns None when the line lies inside the compatibility quadric,
    which happens exactly when one coordinate is pinned to +-1; the
    caller then switches to the substitution route.
    """
    x2e, x3e, x4e = coords
    quadric = (x4e - x2e * x3e) ** 2 - (1 - x2e**2) * (1 - x3e**2)
    if quadric.is_zero:
        return None
    points = []
    if quadric.degree() == 0:
        return points
    lines = [[as_fraction(c) for c in reversed(e.all_coeffs())] for e in coords]
    # Distinct points come from distinct roots: the parameter is one of
    # the coordinates, and if x2 and x3 stay fixed along the line, x4 -
    # x2*x3 = s1*s2 tells the sine signs of the two roots apart.
    cleared = [as_fraction(c) for c in reversed(quadric.all_coeffs())]
    for field in real_root_fields(cleared):
        x2, x3, x4 = (field(*line) for line in lines)
        if not all(in_unit_interval(x) for x in (x2, x3, x4)):
            continue
        prod = x4 - x2 * x3
        rad2, rad3 = 1 - x2 * x2, 1 - x3 * x3
        sa_options = (0,) if rad2.is_zero() else (1, -1)
        sb_options = (0,) if rad3.is_zero() else (1, -1)
        for sa in sa_options:
            for sb in sb_options:
                # prod = s1*s2 = sa*sb*sqrt(rad2*rad3)
                if not sqrt_sum_vanishes(prod, field(1), field(-sa * sb),
                                         rad2 * rad3):
                    continue
                # Both real parts are linear in x2, x3 and x4, and the
                # check above makes x4 = cos(t1 - t2) at this point, so
                # on the line they vanish by construction.
                pt = CosinePoint(x2, sa, x3, sb)
                if not (pt.imag_vanishes(pA) and pt.imag_vanishes(pB)):
                    continue
                points.append(CommonPoint(pt, _on_settled_relation(pt)))
    return points


def _common_two_variable(pA: LaurentPoly, pB: LaurentPoly) -> "PairVerdict":
    coords = _solve_real_line(pA, pB)
    if coords is None:
        return _difference_route(pA, pB)
    points = _line_candidates(coords, pA, pB)
    if points is None:
        return _ruled_line_route(coords, pA, pB)
    for pt in points:
        t1, t2 = pt.thetas
        za = complex(math.cos(t1), math.sin(t1))
        zb = complex(math.cos(t2), math.sin(t2))
        for p in (pA, pB):
            if abs(p.evaluate(za, zb)) > 1e-9:
                raise AssertionError("common point fails re-verification")
    return _verdict_from_points(points, method="real-line-quadric")


def _verdict_from_points(points, method: str) -> "PairVerdict":
    if not points:
        kind, witness = "NoCommon", None
    else:
        nonsimple = [pt for pt in points if not pt.simple]
        if nonsimple:
            kind, witness = "NonSimpleCommon", nonsimple[0].thetas
        else:
            kind, witness = "SimpleOnlyCommon", None
    return PairVerdict(kind, common=None, points=tuple(points),
                       witness=witness, method=method)


def _difference_route(pA: LaurentPoly, pB: LaurentPoly) -> "PairVerdict":
    """Fallback when the real parts are proportional.

    The difference of the two equations must vanish on any common
    solution; when the difference involves a single variable group its
    unimodular roots pin that group, and values +-1 keep the
    substituted equations over the integers. Anything richer is
    refused rather than approximated.
    """
    d = pA - pB
    exps = list(d.coeffs)
    if all(e2 == 0 for _, e2 in exps):
        group = "a"
        line = LaurentPoly(("a",), {(e1,): c for (e1, _), c in d.coeffs.items()})
    elif all(e1 == 0 for e1, _ in exps):
        group = "b"
        line = LaurentPoly(("b",), {(e2,): c for (_, e2), c in d.coeffs.items()})
    elif all(e1 == -e2 for e1, e2 in exps):
        group = "a/b"
        line = LaurentPoly(("u",), {(e1,): c for (e1, _), c in d.coeffs.items()})
    else:
        raise UnsupportedPair(
            "difference of the pair involves more than one variable group"
        )
    sol = solve_unit_circle(line)
    if sol.algebraic_points or any(
        u.turn not in (Fraction(0), Fraction(1, 2)) for u in sol.exact_points
    ):
        raise UnsupportedPair(
            "difference roots leave the integers; not implemented"
        )
    allowed = {u.turn for u in sol.exact_points}
    points = []
    family = None
    for value, turn in ((1, Fraction(0)), (-1, Fraction(1, 2))):
        if turn not in allowed:
            continue
        batch = _substitution_points(group, value, pA, pB)
        if batch is None:
            family = _family_verdict(group, value)
            continue
        points.extend(batch)
    verdict = _verdict_from_points(points, method="difference")
    if family is None or verdict.kind == "NonSimpleCommon":
        return verdict
    return family


# The variable groups of the difference and ruled-line routes, read as
# relations x = s*y^k: a = value, b = value, or a = value*b.
_GROUP_EXPS = {"a": ((1, 0), (0, 0)), "b": ((0, 1), (0, 0)), "a/b": ((1, 0), (0, 1))}


def _substitution_points(group: str, value: int, pA, pB):
    """Common points once one letter is pinned or the letters identified.

    Returns None when both residues vanish identically, meaning the
    whole one-parameter family is common. The shared roots are roots of
    unity: no residue of a count array's equation has an algebraic
    unimodular root (all 924 GENERIC equations are checked in the
    tests), and one that did would raise. No point repeats: distinct
    roots of unity y give distinct points, and points of the two values
    of ``value`` differ in the pinned letter, or in a = b against a = -b.
    """
    lhs, rhs = _GROUP_EXPS[group]
    rel = Relation(lhs, value, rhs)
    rA = rel.substitute(pA)
    rB = rel.substitute(pB)
    if rA.is_zero() and rB.is_zero():
        return None
    if rA.is_zero() or rB.is_zero():
        shared = solve_unit_circle(rB if rA.is_zero() else rA)
    else:
        g = _int_gcd(rA, rB)
        if len(g) == 1:
            return []
        shared = solve_unit_circle(_intpoly_to_laurent(g, "x"))
    if shared.algebraic_points:
        raise AssertionError(f"a residue on {rel} has an algebraic root")
    return [_point_from_turns(*rel.point(u.turn)) for u in shared.exact_points]


def _family_verdict(group: str, value: int) -> "PairVerdict":
    """Both residues vanished: a full circle of common solutions.

    That happens at value -1 only: a count array's equation has
    non-negative coefficients summing to 6, and so has its residue at
    +1. Pinning a letter to -1 and a = -b are settled relations, so the
    family is simple throughout.
    """
    if value != -1:
        raise AssertionError(f"the residues at {group} = +1 vanished")
    return PairVerdict("SimpleOnlyCommon", common=None, points=(),
                       witness=None, method="substitution-family")


def _ruled_line_route(coords, pA, pB) -> "PairVerdict":
    """The real-part line sits inside the compatibility quadric.

    Every line inside x2^2 + x3^2 + x4^2 - 2 x2 x3 x4 = 1 pins one
    coordinate to +-1 (substituting a constant x2 = c turns the
    quadric into (x3 - c*x4)^2 = (1 - c^2)(1 - x4^2)-free identity
    only at c = +-1, and symmetrically), so the pinned coordinate
    converts to an exact letter substitution.
    """
    for line, group in zip(coords, ("a", "b", "a/b")):
        if line.degree() <= 0 and line.TC() in (1, -1):
            value = int(line.TC())
            pts = _substitution_points(group, value, pA, pB)
            if pts is None:
                return _family_verdict(group, value)
            return _verdict_from_points(pts, method="ruled-line")
    raise UnsupportedPair(
        "line inside the compatibility quadric with no pinned coordinate"
    )


def _point_from_turns(ta: Fraction, tb: Fraction) -> CommonPoint:
    return CommonPoint((ta, tb), any(rel.holds(ta, tb) for rel in SETTLED_RELATIONS))


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of intersecting two count-array equations.

    ``kind`` is NoCommon, SimpleOnlyCommon or NonSimpleCommon. One
    variable fills ``common`` with the exact shared solution set; two
    variables fill ``points`` with the finitely many common points.
    ``witness`` is a float angle tuple backing a NonSimpleCommon call.
    """

    kind: str
    common: Optional[SolutionSet]
    points: tuple
    witness: Optional[tuple]
    method: str


def common_solutions(arrayA: CountArray, arrayB: CountArray) -> PairVerdict:
    """Exact common-solution verdict for two arrays of one structure.

    Raises ValueError when the two equations are the same constraint
    (equal or conjugate up to sign); comparing an equation against
    itself says nothing, and that situation is the job of the residue
    group-map analysis instead. Every zero and sign test behind the
    verdict is decided exactly: no comparison is left undecided, and
    the call no longer raises ``ArithmeticError``.
    """
    if arrayA.structure.name != arrayB.structure.name:
        raise ValueError("arrays belong to different structures")
    pA = original_equation(arrayA)
    pB = original_equation(arrayB)
    nA, nB = _normalized(pA), _normalized(pB)
    if nA == nB or nA == _normalized(pB.conjugate()):
        raise ValueError(
            "identical or conjugate equations; use the group-map"
            " comparison for same-constraint row pairs"
        )
    if len(pA.variables) == 1:
        return _common_one_variable(pA, pB)
    return _common_two_variable(pA, pB)


# --- the {1,1,2,2} real-part elimination ---------------------------------


@dataclass(frozen=True)
class PairedRealRoot:
    """One real root of the squared elimination, with annotations.

    ``value`` is the eliminated cosine x_k; ``partner`` the forced
    x_j = -2 x_k; ``third`` the remaining cosine recovered from the
    linear equation. ``branch_signs`` lists the signs s for which
    third == partner*value + s*sqrt((1-partner^2)(1-value^2)) holds
    exactly. Squaring made the squared identity automatic at every
    root, so the information is in the sign list and the range flags.
    """

    value: object
    partner: object
    third: object
    simple: bool
    in_range: bool
    partner_in_range: bool
    third_in_range: bool
    branch_signs: tuple

    @property
    def compatible(self) -> bool:
        return (self.in_range and self.partner_in_range
                and self.third_in_range and bool(self.branch_signs))


@dataclass(frozen=True)
class RealPartElimination:
    placement: tuple
    coefficients: tuple  # ascending powers of x_k
    all_roots: tuple     # every real root, exact
    roots: tuple         # PairedRealRoot for the roots inside [-1, 1]


def _exact_real_roots(coefficients):
    """The distinct real roots of an integer polynomial of degree at
    most 3, in radicals and in increasing order, and the field of each."""
    poly = sympy.Poly(list(reversed(coefficients)), _T)
    fields = real_root_fields(coefficients)
    out = sorted((r for r in sympy.roots(poly) if r.is_real),
                 key=lambda r: float(r.evalf(30)))
    if len(out) != len(fields):
        raise AssertionError("radical roots do not match the real roots")
    return out, fields


def real_part_system(placement) -> RealPartElimination:
    """Eliminate a cosine pair constrained by x_j = -2 x_k.

    ``placement`` = (a1, ak, aj, ai) distributes the multiset {1,1,2,2}
    over the constant and the cosines x_k, x_j, x_i of the second
    equation a1 + ak*x_k + aj*x_j + ai*x_i = 0. Substituting
    x_j = -2 x_k and squaring the compatibility relation for x_i gives
    an integer polynomial in x_k alone; the spurious roots that
    squaring lets in are flagged through the per-root annotations
    rather than silently dropped.
    """
    placement = tuple(int(v) for v in placement)
    if sorted(placement) != [1, 1, 2, 2]:
        raise ValueError("placement must arrange the multiset {1,1,2,2}")
    a1, ak, aj, ai = placement
    A, B, C = a1, ak - 2 * aj, -2 * ai
    coefficients = [
        A * A - ai * ai,
        2 * A * B,
        B * B + 2 * A * C + 5 * ai * ai,
        2 * B * C,
    ]
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    all_roots, fields = _exact_real_roots(coefficients)
    annotated = []
    for value, field in zip(all_roots, fields):
        x = field(0, 1)
        if not in_unit_interval(x):
            continue
        partner = -2 * x
        third = -(A + B * x) * Fraction(1, ai)
        radicand = (1 - partner * partner) * (1 - x * x)
        diff = third - partner * x
        signs = ()
        if radicand.sign() >= 0:
            signs = tuple(s for s in (1, -1) if sqrt_sum_vanishes(
                diff, field(1), field(-s), radicand))
        annotated.append(PairedRealRoot(
            value=value,
            partner=sympy.expand(-2 * value),
            third=sympy.expand(-(sympy.Integer(A) + B * value) / ai),
            simple=any((x - c).is_zero() for c in _SIMPLE_COSINES),
            in_range=True,
            partner_in_range=in_unit_interval(partner),
            third_in_range=in_unit_interval(third),
            branch_signs=signs,
        ))
    return RealPartElimination(
        placement=placement,
        coefficients=tuple(coefficients),
        all_roots=tuple(all_roots),
        roots=tuple(annotated),
    )


# --- 2x2 orthogonality constraints on {1,a,b} -----------------------------


@dataclass(frozen=True)
class AlphabetRelationReport:
    """What 2x2 unimodular orthogonality forces on an alphabet {1,a,b}.

    ``relations`` are the three constraints, one per admissible 2x2
    pattern. ``pair_solutions`` maps each unordered pattern pair (by
    1-based relation index) to the exact nondegenerate (turn_a, turn_b)
    assignments satisfying both constraints at once.
    ``degenerate_conditions`` names the collapsed alphabets excluded
    before the pattern analysis applies, and ``single_shape_empty``
    records that one pattern combined with a vanishing three-term
    column sum has no unimodular solution at all.
    """

    relations: tuple
    pair_solutions: dict
    degenerate_conditions: tuple
    single_shape_empty: bool


def h2_alphabet_relations() -> AlphabetRelationReport:
    relations = (
        Relation((0, 1), -1, (-1, 0)),  # b = -conj(a)
        Relation((0, 1), -1, (2, 0)),   # b = -a^2
        Relation((1, 0), -1, (0, 2)),   # a = -b^2
    )
    # eliminating b from each pair of constraints leaves one equation in a
    eliminations = {
        (1, 2): LaurentPoly(("a",), {(2,): 1, (-1,): -1}),  # a^2 = conj(a)
        (1, 3): LaurentPoly(("a",), {(1,): 1, (-2,): 1}),   # a = -conj(a)^2
        (2, 3): LaurentPoly(("a",), {(4,): 1, (1,): 1}),    # a = -a^4
    }
    b_from_a = {
        (1, 2): lambda ta: 2 * ta + Fraction(1, 2),         # b = -a^2
        (1, 3): lambda ta: -ta + Fraction(1, 2),            # b = -conj(a)
        (2, 3): lambda ta: 2 * ta + Fraction(1, 2),         # b = -a^2
    }
    half = Fraction(1, 2)
    pair_solutions = {}
    for key, poly in eliminations.items():
        sol = solve_unit_circle(poly)
        assert not sol.algebraic_points
        assignments = []
        for u in sol.exact_points:
            ta = u.turn
            tb = b_from_a[key](ta) % 1
            degenerate = (
                ta == 0 or tb == 0             # a or b equal to 1
                or ta == tb                    # a = b
                or ta == half or tb == half    # -1 in {a, b}
                or (ta - tb) % 1 == half       # a = -b
            )
            if not degenerate:
                assignments.append((ta, tb))
        pair_solutions[key] = tuple(sorted(assignments))
    single_shape = (
        # each relation joined with 1 + a + b = 0, the other letter gone
        LaurentPoly(("a",), {(0,): 1, (1,): 1, (-1,): -1}),  # b = -conj(a)
        LaurentPoly(("a",), {(0,): 1, (1,): 1, (2,): -1}),   # b = -a^2
        LaurentPoly(("b",), {(0,): 1, (1,): 1, (2,): -1}),   # a = -b^2
    )
    single_shape_empty = all(
        solve_unit_circle(p).is_empty() for p in single_shape
    )
    return AlphabetRelationReport(
        relations=relations,
        pair_solutions=pair_solutions,
        degenerate_conditions=("a = -b", "a = -1", "b = -1"),
        single_shape_empty=single_shape_empty,
    )
