"""Count-array case analysis for three-entry alphabets.

A row pair of a candidate matrix over a three-value alphabet produces an
inner product that is a small integer combination of the formal products
x*conj(y). Collecting multiplicities of equal products gives a count
array, and the vanishing of the combination is the array's original
equation. This module enumerates the arrays, reduces each equation to
its pending terms (the part that is not automatically real), applies the
realness dichotomies, and classifies every array by whether its
unit-circle solutions can leave the simple set.

Labels come from the case recipe that generated the catalogued
non-simple lists; the attached solution sets are always computed
honestly (complete exact solve in one variable; in two, the exact
substitution sweep plus, for catalogued arrays, a witness searched among
the ``solve.solve_torus`` points).
On a few arrays the recipe's screening is coarser than the exact solve;
those carry ``solutions_agree=False`` instead of being silently patched.

Simplicity reads two tables: ``exactnum.SIMPLE_TURNS`` for one-variable
points, ``solve.SETTLED_RELATIONS`` for GENERIC points. The GENERIC
substitution sweep runs over the same relations plus a = 1 and b = 1.

Re-basing the alphabet at a letter, swapping a and b and conjugating
form a group of order 12 (``_TORUS_MAPS``) that maps count-array
equations onto each other. The witness search solves one equation per
orbit, its orbit key, and maps the key's points into each member's
coordinates; the witness is then chosen, and re-checked, on the member.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .exactnum import (
    SIMPLE_VALUES,
    CycSum,
    UnitValue,
    is_simple_unit,
    root_of_unity,
)
from .solve import (
    SETTLED_RELATIONS,
    LaurentPoly,
    Relation,
    SolutionSet,
    _classify_torus_point,
    has_nonsimple_point,
    solve_torus,
    solve_unit_circle,
    ten_relation_residual,
)


@dataclass(frozen=True)
class AlphabetStructure:
    """Shape of the formal product list for one alphabet family.

    ``terms`` gives, slot by slot, the sign and exponent vector of each
    product value; ``conj_perm`` is the slot permutation induced by
    conjugating every value. The four registered structures cover the
    alphabets {1,a,conj(a)}, {1,a,-conj(a)}, {1,a,b} and {1,-1,a}.
    """

    name: str
    variables: tuple
    terms: tuple
    conj_perm: tuple

    @property
    def k(self) -> int:
        return len(self.terms)

    def term_str(self, slot: int) -> str:
        sign, exps = self.terms[slot]
        if not any(exps):
            return "1" if sign > 0 else "-1"
        mon = "*".join(
            f"{v}^{e}" for v, e in zip(self.variables, exps) if e
        )
        return mon if sign > 0 else f"-{mon}"


STRUCTURES = {
    "CONJ": AlphabetStructure(
        name="CONJ",
        variables=("a",),
        terms=((1, (0,)), (1, (1,)), (1, (-1,)), (1, (2,)), (1, (-2,))),
        conj_perm=(0, 2, 1, 4, 3),
    ),
    "NEGCONJ": AlphabetStructure(
        name="NEGCONJ",
        variables=("a",),
        terms=(
            (1, (0,)),
            (1, (1,)),
            (-1, (1,)),
            (1, (-1,)),
            (-1, (-1,)),
            (-1, (2,)),
            (-1, (-2,)),
        ),
        conj_perm=(0, 3, 4, 1, 2, 6, 5),
    ),
    "GENERIC": AlphabetStructure(
        name="GENERIC",
        variables=("a", "b"),
        terms=(
            (1, (0, 0)),
            (1, (1, 0)),
            (1, (-1, 0)),
            (1, (0, 1)),
            (1, (0, -1)),
            (1, (1, -1)),
            (1, (-1, 1)),
        ),
        conj_perm=(0, 2, 1, 4, 3, 6, 5),
    ),
    "REAL1": AlphabetStructure(
        name="REAL1",
        variables=("a",),
        terms=(
            (1, (0,)),
            (-1, (0,)),
            (1, (1,)),
            (-1, (1,)),
            (1, (-1,)),
            (-1, (-1,)),
        ),
        conj_perm=(0, 1, 4, 5, 2, 3),
    ),
}


def structure(name: str) -> AlphabetStructure:
    try:
        return STRUCTURES[name]
    except KeyError:
        raise ValueError(f"unknown structure {name!r}") from None


@dataclass(frozen=True)
class CountArray:
    """Multiplicities of the formal product values in one inner product."""

    structure: AlphabetStructure
    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != self.structure.k:
            raise ValueError("count vector length does not match structure")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        if sum(counts) != 6:
            raise ValueError("counts must sum to 6")

    @property
    def rank1_excluded(self) -> bool:
        """Three equal summands collapse to a rank-one row pattern, so
        arrays with any count of 3 or more sit outside the main case
        split and are carried with this flag instead of being dropped."""
        return any(c >= 3 for c in self.counts)

    @property
    def borrowed_pairs(self) -> int:
        """Number of (a + conj(a)) pairs borrowed by the sign rewrite
        that makes every modified coefficient non-negative."""
        if self.structure.name != "NEGCONJ":
            raise ValueError("borrowed_pairs is defined for NEGCONJ only")
        return max(self.counts[2], self.counts[4])

    @property
    def cos_pair_coefficient(self) -> int:
        """Coefficient of (a + conj(a)) in the reduced real form."""
        if self.structure.name != "REAL1":
            raise ValueError("cos_pair_coefficient is defined for REAL1 only")
        return self.counts[2] - self.counts[3]

    def conjugate(self) -> "CountArray":
        perm = self.structure.conj_perm
        return CountArray(self.structure, tuple(self.counts[p] for p in perm))

    def __str__(self) -> str:
        return f"{self.structure.name}{list(self.counts)}"


def conjugate_canonical(array: CountArray) -> CountArray:
    """Lexicographic minimum of the array and its conjugate."""
    other = array.conjugate()
    return array if array.counts <= other.counts else other


def _compositions(total: int, parts: int):
    """Non-negative tuples of length ``parts`` summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_count_arrays(
    struct: AlphabetStructure, include_excluded: bool = False
) -> list:
    """All count vectors summing to 6 with entries at most 2.

    With ``include_excluded`` the vectors containing an entry of 3 or
    more are appended after the main list, each carrying the
    rank1-excluded flag through CountArray.
    """
    main = []
    flagged = []
    for counts in _compositions(6, struct.k):
        arr = CountArray(struct, counts)
        if arr.rank1_excluded:
            flagged.append(arr)
        else:
            main.append(arr)
    return main + flagged if include_excluded else main


def original_equation(array: CountArray) -> LaurentPoly:
    """Left side of the vanishing condition as a Laurent polynomial."""
    struct = array.structure
    terms = []
    for count, (sign, exps) in zip(array.counts, struct.terms):
        if count:
            terms.append((exps, sign * count))
    return LaurentPoly.from_terms(struct.variables, terms)


class PendingTerms(NamedTuple):
    poly: LaurentPoly
    amount: int


def _cancel_pair(x: int, y: int) -> tuple:
    """Remove the shared real part of coefficients on a conjugate pair."""
    if x > 0 and y > 0:
        r = min(x, y)
        return x - r, y - r
    if x < 0 and y < 0:
        r = min(-x, -y)
        return x + r, y + r
    return x, y


def pending_terms(array: CountArray) -> PendingTerms:
    """Residual terms that are not automatically real, with multiplicity.

    Constants and matched conjugate pairs drop out. For NEGCONJ the
    negative signs are first rewritten away by borrowing max(n3, n5)
    copies of the always-real pair a + conj(a); the rewrite swaps the
    two squared slots because -a^2 and conj(a)^2 share an imaginary
    part. The result has the same imaginary part as the original, which
    is all the realness screening needs.
    """
    struct = array.structure
    n = array.counts
    if struct.name == "CONJ":
        coeffs = {
            1: n[1] - n[2],
            -1: 0,
            2: n[3] - n[4],
            -2: 0,
        }
    elif struct.name == "NEGCONJ":
        n8 = max(n[2], n[4])
        ma = n[1] + n8 - n[2]
        mabar = n[3] + n8 - n[4]
        ma, mabar = _cancel_pair(ma, mabar)
        ma2, ma2bar = _cancel_pair(n[6], n[5])
        coeffs = {1: ma, -1: mabar, 2: ma2, -2: ma2bar}
    elif struct.name == "REAL1":
        p, q = n[2] - n[3], n[4] - n[5]
        p, q = _cancel_pair(p, q)
        coeffs = {1: p, -1: q, 2: 0, -2: 0}
    elif struct.name == "GENERIC":
        da = n[1] - n[2]
        db = n[3] - n[4]
        dm = n[5] - n[6]
        poly = LaurentPoly(
            ("a", "b"),
            {
                (1, 0): max(da, 0),
                (-1, 0): max(-da, 0),
                (0, 1): max(db, 0),
                (0, -1): max(-db, 0),
                (1, -1): max(dm, 0),
                (-1, 1): max(-dm, 0),
            },
        )
        return PendingTerms(poly, abs(da) + abs(db) + abs(dm))
    else:  # pragma: no cover - registry is closed
        raise ValueError(f"no pending-terms rule for {struct.name}")

    # fold negatives onto the conjugate side where a side is free
    folded = {}
    for e in (1, 2):
        x, y = coeffs[e], coeffs[-e]
        x, y = _cancel_pair(x, y)
        if x < 0 <= -x and y == 0:
            x, y = 0, -x
        elif y < 0 <= -y and x == 0:
            x, y = -y, 0
        folded[e], folded[-e] = x, y
    poly = LaurentPoly(("a",), {(e,): c for e, c in folded.items() if c})
    amount = sum(abs(c) for c in folded.values())
    return PendingTerms(poly, amount)


class UnsupportedPendingShape(ValueError):
    """The pending terms fit none of the realness dichotomies; the
    caller should fall back to solving the equation directly."""


def _conj_exps(exps: tuple) -> tuple:
    return tuple(-e for e in exps)


def realness_cases(p: LaurentPoly, equal_to: Optional[LaurentPoly] = None) -> list:
    """Candidate relations forcing the given terms to be real.

    Covers sums of two unimodulars, a single product, the three mixed
    three-term shapes x+y+xy, x+y+x*conj(y), x+y+conj(xy), and (through
    ``equal_to``) equality of two two-term sums. Coefficients are first
    divided by their common factor. Anything else raises
    UnsupportedPendingShape.
    """
    if equal_to is not None:
        left = _unit_monomials(p)
        right = _unit_monomials(equal_to)
        if left is None or right is None or len(left) != 2 or len(right) != 2:
            raise UnsupportedPendingShape(
                "sum equality requires two monomials on each side"
            )
        x = left[0]
        return [Relation(x, 1, right[0]), Relation(x, 1, right[1])]
    mons = _unit_monomials(p)
    if mons is None:
        raise UnsupportedPendingShape(f"no realness clause for {p}")
    if len(mons) == 1:
        (x,) = mons
        return [Relation(x, 1, _conj_exps(x)), Relation(x, -1, _conj_exps(x))]
    if len(mons) == 2:
        x, y = mons
        return [Relation(x, 1, _conj_exps(y)), Relation(x, -1, y)]
    if len(mons) == 3:
        zero = tuple(0 for _ in mons[0])
        for x, y, z in itertools.permutations(mons):
            if x > y:
                continue
            sx, sy = x, y
            if z == tuple(a + b for a, b in zip(sx, sy)):
                return [
                    Relation(sx, 1, _conj_exps(sy)),
                    Relation(sx, -1, zero),
                    Relation(sy, -1, zero),
                ]
            if z == tuple(a - b for a, b in zip(sx, sy)):
                return [
                    Relation(sx, -1, sy),
                    Relation(sx, 1, zero),
                    Relation(sy, -1, zero),
                ]
            if z == tuple(-(a + b) for a, b in zip(sx, sy)):
                return [
                    Relation(sx, 1, _conj_exps(sy)),
                    Relation(sx, 1, zero),
                    Relation(sy, 1, zero),
                ]
    raise UnsupportedPendingShape(f"no realness clause for {p}")


def _unit_monomials(p: LaurentPoly):
    """Monomial list when all coefficients share a common factor."""
    if p.is_zero():
        return None
    g = 0
    for c in p.coeffs.values():
        g = math.gcd(g, abs(c))
    reduced = {e: c // g for e, c in p.coeffs.items()}
    if any(c != 1 for c in reduced.values()):
        return None
    return sorted(reduced)


# --- simplicity -------------------------------------------------------

def _as_turn(value) -> Optional[Fraction]:
    if isinstance(value, UnitValue):
        return value.turn
    return None


def _as_complex(value) -> complex:
    if isinstance(value, UnitValue):
        return value.as_complex()
    return complex(value)


def is_simple(point, struct: AlphabetStructure, tol: float = 1e-9) -> bool:
    """Whether a solution point stays inside the already-settled cases.

    One-variable structures: membership of a in the eight values
    {1, -1, i, -i, w, w^2, -w, -w^2}. GENERIC: any of the ten settled
    relations a = +-b, a = +-conj(b), a = +-b^2, b = +-a^2, a = -1,
    b = -1, tested exactly when both letters are exact.
    """
    if struct.name != "GENERIC":
        if isinstance(point, UnitValue):
            return is_simple_unit(point, tol)
        z = complex(point)
        return any(abs(z - v) <= tol for v in SIMPLE_VALUES)
    a, b = point
    ta, tb = _as_turn(a), _as_turn(b)
    if ta is not None and tb is not None:
        return any(rel.holds(ta, tb) for rel in SETTLED_RELATIONS)
    return ten_relation_residual(_as_complex(a), _as_complex(b)) <= tol


# --- the alphabet's symmetry group on the torus -------------------------

# Re-basing {1, a, b} at a letter, swapping a and b and conjugating all
# preserve complex equivalence. Each acts on the torus as a monomial map:
# row i, (m, n), sends (a, b) to a^m * b^n in coordinate i. The six
# re-basings and swaps, each with and without conjugation, are a group
# of order 12. A count-array equation composed with one of them is the
# equation of another count array, and the zeros of p(g(a, b)) are the
# zeros of p pulled back through g.
_S3_MAPS = (
    ((1, 0), (0, 1)),    # (a, b)
    ((0, 1), (1, 0)),    # (b, a)
    ((-1, 0), (-1, 1)),  # (1/a, b/a)
    ((-1, 1), (-1, 0)),  # (b/a, 1/a)
    ((0, -1), (1, -1)),  # (1/b, a/b)
    ((1, -1), (0, -1)),  # (a/b, 1/b)
)
_TORUS_MAPS = _S3_MAPS + tuple(
    tuple(tuple(-e for e in row) for row in m) for m in _S3_MAPS
)


def _compose_terms(p: LaurentPoly, m) -> tuple:
    """p(m(a, b)) as sorted ((e1, e2), c) terms, each exponent shifted
    to a minimum of 0: a monomial factor moves no zero on the torus."""
    (m11, m12), (m21, m22) = m
    terms = [
        ((e1 * m11 + e2 * m21, e1 * m12 + e2 * m22), c)
        for (e1, e2), c in p.coeffs.items()
    ]
    low1 = min(e1 for (e1, _), _ in terms)
    low2 = min(e2 for (_, e2), _ in terms)
    return tuple(sorted(((e1 - low1, e2 - low2), c) for (e1, e2), c in terms))


def _map_point(m, a: complex, b: complex) -> tuple:
    """The torus point m(a, b)."""
    (m11, m12), (m21, m22) = m
    return a ** m11 * b ** m12, a ** m21 * b ** m22


# --- two-variable witness search --------------------------------------

# Eight off-turn curve samples meet every catalogued curve off the ten
# relations. A witness solves p to _WITNESS_TOL and keeps more than
# _WITNESS_MARGIN from every settled relation.
_WITNESS_SAMPLES = 8
_WITNESS_TOL = 1e-9
_WITNESS_MARGIN = 1e-6


@lru_cache(maxsize=None)
def _key_points(key: tuple) -> tuple:
    """The ``solve_torus`` points of an orbit's key equation, as unit
    complex pairs; filled one orbit at a time, on first use."""
    q = LaurentPoly(("a", "b"), dict(key))
    return tuple(
        (cmath.exp(1j * pt.theta1), cmath.exp(1j * pt.theta2))
        for pt in solve_torus(q, samples=_WITNESS_SAMPLES).points
    )


def _orbit_points(p: LaurentPoly) -> list:
    """The torus points of p, solved once per orbit of ``_TORUS_MAPS``.

    The orbit key is the smallest of the twelve ``_compose_terms(p, m)``;
    the key equation's ``solve_torus(samples=8)`` points are mapped by
    m into p's coordinates, sorted by angle. Angles, ``simple`` and
    ``pinned`` are derived again at the mapped point, because the ten
    settled relations are not closed under the group (a = b maps to
    b = 1).
    """
    key, m = min((_compose_terms(p, g), g) for g in _TORUS_MAPS)
    points = [
        _classify_torus_point(*_map_point(m, a, b))
        for a, b in _key_points(key)
    ]
    points.sort(key=lambda pt: (pt.theta1, pt.theta2))
    return points


def nonsimple_witness_search(p: LaurentPoly):
    """A non-simple solution (theta1, theta2) of a 2-variable equation.

    Walks ``_orbit_points(p)``, the ``solve_torus(samples=8)`` points of
    p's orbit key mapped into p's coordinates, in their sorted order and
    returns the first that a scalar re-check at p accepts: |p| at most
    1e-9 and a distance of more than 1e-6 from all ten simple relations.
    Points with a = 1 or b = 1 are kept when they fail all ten
    relations: they solve the equation even though the alphabet they
    describe degenerates. Such a point can sit on a = b for another
    member of p's orbit, so whether a witness exists is decided per
    equation, not per orbit. Returns None when nothing qualifies. The
    isolated points are complete but a curve is only sampled, so None
    is a statement about the samples, not a proof of absence.
    """
    if len(p.variables) != 2:
        raise ValueError("nonsimple_witness_search expects two variables")
    if p.is_zero():
        raise ValueError("identically zero")
    for pt in _orbit_points(p):
        a, b = cmath.exp(1j * pt.theta1), cmath.exp(1j * pt.theta2)
        if abs(p.evaluate(a, b)) > _WITNESS_TOL:
            continue
        if ten_relation_residual(a, b) <= _WITNESS_MARGIN:
            continue
        return pt.theta1, pt.theta2
    return None


# --- classification ----------------------------------------------------

_CONJ_TAGS = {
    (0, 1, 1, 2, 2): "Eq1",
    (0, 2, 2, 1, 1): "Eq2",
    (1, 2, 1, 2, 0): "Eq3",
    (1, 1, 2, 0, 2): "Eq3'",
    (1, 2, 1, 0, 2): "Eq4",
    (1, 1, 2, 2, 0): "Eq4'",
}

_NEGCONJ_TAGS = {
    (0, 1, 0, 1, 0, 2, 2): "MP.1",
    (0, 0, 1, 0, 1, 2, 2): "MP.2",
    (0, 2, 0, 2, 0, 1, 1): "MP.3",
    (0, 0, 2, 0, 2, 1, 1): "MP.4",
    (2, 1, 0, 1, 0, 1, 1): "MP.5",
    (2, 0, 1, 0, 1, 1, 1): "MP.6",
}

_NEGCONJ_NONSIMPLE_PATTERNS = {(0, 1, 2), (0, 2, 1), (2, 1, 1)}

_GENERIC_PRINTED_LISTS = {
    "N.1": [
        (0, 1, 1, 2, 2, 0, 0),
        (0, 1, 1, 0, 0, 2, 2),
        (0, 2, 2, 1, 1, 0, 0),
        (0, 0, 0, 1, 1, 2, 2),
        (0, 2, 2, 0, 0, 1, 1),
        (0, 0, 0, 2, 2, 1, 1),
    ],
    "N.2": [
        (2, 2, 0, 1, 0, 1, 0),
        (2, 2, 0, 0, 1, 0, 1),
        (2, 1, 0, 2, 0, 0, 1),
        (2, 0, 1, 2, 0, 1, 0),
        (2, 1, 0, 0, 1, 2, 0),
        (2, 0, 1, 1, 0, 2, 0),
    ],
    "N.3": [
        (1, 1, 0, 2, 0, 2, 0),
        (1, 1, 0, 0, 2, 0, 2),
        (1, 2, 0, 1, 0, 0, 2),
        (1, 0, 2, 1, 0, 2, 0),
        (1, 2, 0, 0, 2, 1, 0),
        (1, 0, 2, 2, 0, 1, 0),
    ],
    "N.4": [
        (1, 1, 1, 2, 0, 1, 0),
        (1, 1, 1, 0, 2, 1, 0),
        (1, 1, 1, 1, 0, 2, 0),
        (1, 1, 1, 0, 1, 2, 0),
        (1, 2, 0, 1, 1, 1, 0),
        (1, 0, 2, 1, 1, 1, 0),
        (1, 1, 0, 1, 1, 2, 0),
        (1, 0, 1, 1, 1, 2, 0),
        (1, 2, 0, 1, 0, 1, 1),
        (1, 0, 2, 1, 0, 1, 1),
        (1, 1, 0, 2, 0, 1, 1),
        (1, 0, 1, 2, 0, 1, 1),
    ],
    "N.5": [(0, 1, 1, 1, 1, 1, 1)],
}


@lru_cache(maxsize=1)
def _generic_tag_table() -> dict:
    struct = STRUCTURES["GENERIC"]
    table = {}
    for family, rows in _GENERIC_PRINTED_LISTS.items():
        for idx, counts in enumerate(rows, start=1):
            tag = family if family == "N.5" else f"{family}.{idx}"
            canon = conjugate_canonical(CountArray(struct, counts))
            assert canon.counts not in table, counts
            table[canon.counts] = tag
    return table


def _group_shapes(counts: tuple) -> list:
    pairs = ((counts[1], counts[2]), (counts[3], counts[4]), (counts[5], counts[6]))
    return sorted(tuple(sorted(p, reverse=True)) for p in pairs)


_GENERIC_GROUP_EXPS = (
    ((1, 0), (-1, 0)),
    ((0, 1), (0, -1)),
    ((1, -1), (-1, 1)),
)


def _oriented_values(counts: tuple):
    """(value exponent, count) per nonzero slot, grouped by pair."""
    out = []
    for g, (plus, minus) in enumerate(_GENERIC_GROUP_EXPS):
        slot = 1 + 2 * g
        out.append(((plus, counts[slot]), (minus, counts[slot + 1])))
    return out


def _generic_tree_nonsimple(counts: tuple) -> bool:
    """Membership test for the catalogued two-variable non-simple arrays."""
    if counts == (0, 1, 1, 1, 1, 1, 1):
        return True
    n1 = counts[0]
    shapes = _group_shapes(counts)
    if n1 == 0 and shapes == [(0, 0), (1, 1), (2, 2)]:
        return True
    if n1 == 1 and shapes == [(1, 0), (1, 1), (2, 0)]:
        return True
    doubled = []
    singles = []
    for group in _oriented_values(counts):
        for exps, count in group:
            if count == 2:
                doubled.append(exps)
            elif count == 1:
                singles.append(exps)
    if n1 == 2 and shapes == [(1, 0), (1, 0), (2, 0)]:
        (u,) = doubled
        v, w = singles
        diff1 = tuple(x - y for x, y in zip(v, w))
        diff2 = tuple(y - x for x, y in zip(v, w))
        return u != diff1 and u != diff2
    if n1 == 1 and shapes == [(1, 0), (2, 0), (2, 0)]:
        u, v = doubled
        (w,) = singles
        sum1 = tuple(x + y for x, y in zip(u, w))
        sum2 = tuple(x + y for x, y in zip(v, w))
        return v != sum1 and u != sum2
    return False


@lru_cache(maxsize=1)
def _generic_consistency() -> bool:
    """The shape rules and the printed tag table agree array-for-array."""
    struct = STRUCTURES["GENERIC"]
    table = _generic_tag_table()
    tree = set()
    for arr in enumerate_count_arrays(struct):
        if _generic_tree_nonsimple(arr.counts):
            tree.add(conjugate_canonical(arr).counts)
    if tree != set(table):
        raise AssertionError(
            "non-simple shape rules drifted from the printed lists"
        )
    return True


@dataclass(frozen=True)
class CaseLabel:
    kind: str  # SimpleOnly | NoSolution | NonSimple
    tag: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.kind}({self.tag})" if self.tag else self.kind


@dataclass(frozen=True)
class ArrayClassification:
    """Label plus honest solution evidence for one count array.

    ``solutions_agree`` compares the label against the computed
    solutions: False marks arrays where the case recipe says one thing
    and the solutions say another, None means the comparison was not
    decided (two-variable SimpleOnly labels, where absence of further
    components is not asserted). ``nonsimple_witness`` backs a
    two-variable NonSimple label: a ``solve_torus`` point of the array's
    orbit key, mapped into the array's coordinates, that solves the
    array's own equation off the ten relations.
    """

    array: CountArray
    label: CaseLabel
    solutions: SolutionSet
    vacuous: bool = False
    solutions_agree: Optional[bool] = True
    nonsimple_witness: Optional[tuple] = None


_EMPTY_COMPLETE = SolutionSet((), (), complete=True)


def _one_var_label(array: CountArray, sol: SolutionSet) -> str:
    if sol.is_empty():
        return "NoSolution"
    return "NonSimple" if has_nonsimple_point(sol) else "SimpleOnly"


@lru_cache(maxsize=None)
def classify_array(array: CountArray) -> ArrayClassification:
    """Label one count array and attach its solution data.

    One-variable structures get a complete exact solve; the label
    follows the screening recipe (realness of pending terms for CONJ,
    the modified-pending pattern test for NEGCONJ), so on the handful of
    arrays where that recipe is coarser than the exact answer the
    ``solutions_agree`` flag is dropped to False. GENERIC labels come
    from the catalogued shape rules; every GENERIC array gets the exact
    relation-substitution sweep, and the catalogued ones additionally
    get a witness backing (or failing to back) the NonSimple claim:
    ``nonsimple_witness_search`` solves the torus equation once per
    symmetry orbit and re-checks the mapped points on this array.
    """
    struct = array.structure
    if struct.name == "GENERIC":
        return _classify_generic(array)

    p = original_equation(array)
    if p.is_zero():
        return ArrayClassification(
            array,
            CaseLabel("SimpleOnly"),
            _EMPTY_COMPLETE,
            vacuous=True,
            solutions_agree=True,
        )
    sol = solve_unit_circle(p)
    honest = _one_var_label(array, sol)

    if struct.name == "CONJ":
        pend, amount = pending_terms(array)
        if amount == 0:
            kind = honest
        else:
            screen = solve_unit_circle(pend - pend.conjugate())
            kind = "NonSimple" if has_nonsimple_point(screen) else (
                "NoSolution" if sol.is_empty() else "SimpleOnly"
            )
        tag = _CONJ_TAGS.get(array.counts) if kind == "NonSimple" else None
    elif struct.name == "NEGCONJ":
        _, amount = pending_terms(array)
        n = array.counts
        d = n[1] - n[2]
        m = n[5]
        if amount == 0 and (n[0], abs(d), m) in _NEGCONJ_NONSIMPLE_PATTERNS:
            kind = "NonSimple"
        else:
            kind = "NoSolution" if sol.is_empty() else "SimpleOnly"
        tag = _NEGCONJ_TAGS.get(array.counts) if kind == "NonSimple" else None
    elif struct.name == "REAL1":
        kind = honest
        tag = None
    else:  # pragma: no cover
        raise ValueError(struct.name)

    agree = (kind == "NonSimple") == (honest == "NonSimple")
    return ArrayClassification(
        array, CaseLabel(kind, tag), sol, vacuous=False, solutions_agree=agree
    )


# The substitution sweep: the ten settled relations plus the two
# degenerate identifications a = 1 and b = 1.
_GENERIC_SWEEP = SETTLED_RELATIONS + (
    Relation((1, 0), 1, (0, 0)),
    Relation((0, 1), 1, (0, 0)),
)


def _verify_pair_exact(p: LaurentPoly, ta: Fraction, tb: Fraction) -> bool:
    order = math.lcm(ta.denominator, tb.denominator)
    vec = [0] * order
    for (e1, e2), c in p.coeffs.items():
        turn = (e1 * ta + e2 * tb) % 1
        vec[int(turn * order) % order] += c
    return CycSum(order, vec).is_zero()


def _classify_generic(array: CountArray) -> ArrayClassification:
    _generic_consistency()
    p = original_equation(array)
    counts = array.counts
    if p.is_zero():
        return ArrayClassification(
            array,
            CaseLabel("SimpleOnly"),
            SolutionSet((), (), complete=False),
            vacuous=True,
            solutions_agree=True,
        )

    # The sweep stays per array rather than per orbit: it fills
    # ``solve_unit_circle``'s cache with exactly the one-variable
    # equations that the NEGCONJ and CONJ arrays read later, and a
    # per-orbit sweep mapped to the members made the median item slower.
    exact_pairs = []
    seen = set()
    for rel in _GENERIC_SWEEP:
        residue = rel.substitute(p)
        if residue.is_zero():
            continue
        sol = solve_unit_circle(residue)
        for u in sol.exact_points:
            ta, tb = rel.point(u.turn)
            if (ta, tb) in seen:
                continue
            seen.add((ta, tb))
            if not _verify_pair_exact(p, ta, tb):
                raise AssertionError(
                    f"substitution point fails exact recheck on {array}"
                )
            exact_pairs.append(
                (root_of_unity(ta.numerator, ta.denominator),
                 root_of_unity(tb.numerator, tb.denominator))
            )

    nonsimple = _generic_tree_nonsimple(counts)
    witness = nonsimple_witness_search(p) if nonsimple else None
    tag = None
    if nonsimple:
        tag = _generic_tag_table()[conjugate_canonical(array).counts]
    label = CaseLabel("NonSimple" if nonsimple else "SimpleOnly", tag)
    sol = SolutionSet(
        exact_points=tuple(exact_pairs),
        algebraic_points=(),
        complete=False,
    )
    agree: Optional[bool]
    if nonsimple:
        agree = witness is not None
    else:
        agree = None  # absence of non-simple points is not decided here
    return ArrayClassification(array, label, sol, False, agree, witness)
