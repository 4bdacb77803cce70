"""Unit tests for joint solvability of two count-array equations."""

import collections
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from chmkit import arrays, pairs, solve
from chmkit.arrays import (
    CountArray,
    STRUCTURES,
    classify_array,
    enumerate_count_arrays,
    original_equation,
)
from chmkit.exactnum import (
    CosinePoint,
    Field,
    in_unit_interval,
    real_root_fields,
    sqrt_sum_vanishes,
)
from chmkit.solve import SETTLED_RELATIONS, LaurentPoly, Relation, solve_unit_circle
from chmkit.pairs import (
    AlphabetRelationReport,
    common_solutions,
    h2_alphabet_relations,
    real_part_system,
)
from sympy_values import cosines

CONJ = STRUCTURES["CONJ"]
GENERIC = STRUCTURES["GENERIC"]

_N1 = [
    (0, 1, 1, 2, 2, 0, 0),
    (0, 1, 1, 0, 0, 2, 2),
    (0, 2, 2, 1, 1, 0, 0),
    (0, 0, 0, 1, 1, 2, 2),
    (0, 2, 2, 0, 0, 1, 1),
    (0, 0, 0, 2, 2, 1, 1),
]


# The cross-family pairs of the tests below.
_CROSS_PAIRS = [
    ((1, 1, 1, 2, 0, 1, 0), (0, 1, 1, 2, 2, 0, 0)),
    ((2, 2, 0, 1, 0, 1, 0), (0, 2, 2, 1, 1, 0, 0)),
    ((2, 2, 0, 1, 0, 1, 0), (0, 1, 1, 1, 1, 1, 1)),
    ((2, 2, 0, 1, 0, 1, 0), (1, 1, 1, 2, 0, 1, 0)),
    ((1, 1, 0, 2, 0, 2, 0), (0, 1, 1, 1, 1, 1, 1)),
    ((1, 1, 0, 2, 0, 2, 0), (2, 2, 0, 1, 0, 1, 0)),
    ((1, 1, 1, 2, 0, 1, 0), (1, 1, 1, 0, 2, 1, 0)),
    ((2, 2, 0, 1, 0, 1, 0), (2, 2, 0, 0, 1, 1, 0)),
    ((2, 1, 0, 2, 0, 0, 1), (1, 1, 0, 2, 0, 2, 0)),
]


def _pair(a, b, struct=GENERIC):
    return common_solutions(CountArray(struct, a), CountArray(struct, b))


# --- preconditions ---------------------------------------------------------


def test_mixed_structures_rejected():
    with pytest.raises(ValueError, match="different structures"):
        common_solutions(
            CountArray(CONJ, (0, 1, 1, 2, 2)),
            CountArray(GENERIC, (0, 1, 1, 2, 2, 0, 0)),
        )


def test_identical_equation_rejected():
    with pytest.raises(ValueError, match="group-map"):
        _pair((1, 1, 1, 2, 0, 1, 0), (1, 1, 1, 2, 0, 1, 0))


def test_conjugate_equation_rejected():
    # the conjugate array encodes the conjugate constraint, which has
    # the same solutions; comparing them would prove nothing
    with pytest.raises(ValueError, match="group-map"):
        _pair((1, 1, 1, 2, 0, 1, 0), (1, 1, 1, 0, 2, 0, 1))
    with pytest.raises(ValueError):
        _pair((1, 2, 1, 0, 2), (1, 1, 2, 2, 0), struct=CONJ)


# --- one-variable pairs ------------------------------------------------------


def test_one_variable_disjoint_roots():
    v = _pair((0, 1, 1, 2, 2), (0, 2, 2, 1, 1), struct=CONJ)
    assert v.kind == "NoCommon"
    assert v.method == "gcd"
    assert v.common.is_empty()


def test_one_variable_shared_minus_one():
    v = _pair((1, 2, 1, 2, 0), (1, 2, 1, 0, 2), struct=CONJ)
    assert v.kind == "SimpleOnlyCommon"
    assert [str(u) for u in v.common.exact_points] == ["-1"]


def test_one_variable_shared_cube_roots():
    v = _pair((2, 0, 0, 2, 2), (2, 1, 1, 1, 1), struct=CONJ)
    assert v.kind == "SimpleOnlyCommon"
    assert [str(u) for u in v.common.exact_points] == ["w", "w2"]


def test_one_variable_pairs_never_share_surd_roots():
    """Exhaustive: no two distinct constraints share a non-simple root."""
    from collections import Counter

    kinds = Counter()
    skipped = 0
    for A, B in itertools.combinations(enumerate_count_arrays(CONJ), 2):
        try:
            v = common_solutions(A, B)
        except ValueError:
            skipped += 1
            continue
        kinds[v.kind] += 1
    assert kinds == {"NoCommon": 843, "SimpleOnlyCommon": 127}
    assert skipped == 20


_X = sympy.Symbol("x")


def _sympy_gcd(pA, pB):
    """The oracle: ``sympy.gcd`` over ZZ of the two polynomials, each
    shifted so that its lowest exponent is 0, leading coefficient first."""
    polys = []
    for p in (pA, pB):
        low = min(e for (e,) in p.coeffs)
        polys.append(sympy.Poly(sum(c * _X ** (e - low) for (e,), c in p.coeffs.items()), _X))
    return [int(c) for c in sympy.Poly(sympy.gcd(*polys), _X).all_coeffs()]


def _random_laurent(rng, max_terms=5):
    while True:
        low = rng.randint(-4, 2)
        coeffs = {(low + i,): rng.randint(-5, 5) for i in range(rng.randint(1, max_terms))}
        p = LaurentPoly(("x",), coeffs)
        if not p.is_zero():
            return p


def _times(p, q):
    acc = collections.Counter()
    for (e,), c in p.coeffs.items():
        for (f,), d in q.coeffs.items():
            acc[(e + f,)] += c * d
    return LaurentPoly(("x",), acc)


def test_integer_gcd_matches_sympy_gcd():
    """``pairs._int_gcd`` returns exactly what ``sympy.gcd`` over ZZ does,
    content and sign included, on seeded random Laurent polynomials."""
    rng = random.Random(15)
    seen = collections.Counter()
    for i in range(1600):
        pA, pB = _random_laurent(rng), _random_laurent(rng)
        case = i % 4
        if case == 1:  # a shared integer content
            c = rng.randint(2, 6)
            pA = _times(pA, LaurentPoly(("x",), {(0,): c * rng.choice((-1, 1))}))
            pB = _times(pB, LaurentPoly(("x",), {(rng.randint(-2, 2),): c}))
        elif case == 2:  # a shared polynomial factor
            h = _random_laurent(rng, max_terms=3)
            pA, pB = _times(pA, h), _times(pB, h)
        elif case == 3:  # one side constant
            pB = LaurentPoly(("x",), {(0,): rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))})
        if pA.is_zero() or pB.is_zero():
            continue
        g = pairs._int_gcd(pA, pB)
        assert g == _sympy_gcd(pA, pB), (pA, pB)
        seen[case] += 1
        seen["content"] += abs(math.gcd(*g)) > 1
        seen["factor"] += len(g) > 1
        seen["negative lead"] += pA.coeffs[max(pA.coeffs)] < 0
        seen["negative exponent"] += min(pA.coeffs) < (0,)
    for key in (0, 1, 2, 3, "content", "factor", "negative lead", "negative exponent"):
        assert seen[key] >= 100, seen


def test_one_variable_pairs_construct_no_poly(monkeypatch):
    # One warm-up sweep fills the unit-circle solver's cache for every
    # gcd; the counted sweep then builds no sympy Poly at all.
    valid = []
    for A, B in itertools.combinations(enumerate_count_arrays(CONJ), 2):
        try:
            common_solutions(A, B)
        except ValueError:
            continue
        valid.append((A, B))
    assert len(valid) == 970
    made = []
    original = sympy.Poly.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "__new__", counting_new)
    verdicts = [common_solutions(A, B).method for A, B in valid]
    monkeypatch.undo()
    assert made == []
    assert set(verdicts) == {"gcd"}
    # the counter does see a Poly built on purpose
    monkeypatch.setattr(sympy.Poly, "__new__", counting_new)
    assert sympy.Poly([1, 0, -1], _X).degree() == 2
    monkeypatch.undo()
    assert made


# --- two-variable pairs: the six-way table -----------------------------------


_EXPECTED_N1_NONSIMPLE = {
    (1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (3, 6), (4, 5),
}


@pytest.fixture(scope="module")
def n1_verdicts():
    """The 15 N.1 pair verdicts, keyed by 1-based array indices."""
    return {
        (i, j): _pair(ca, cb)
        for (i, ca), (j, cb) in itertools.combinations(enumerate(_N1, start=1), 2)
    }


def test_n1_pair_verdict_split(n1_verdicts):
    nonsimple = {k for k, v in n1_verdicts.items() if v.kind == "NonSimpleCommon"}
    simple = {k for k, v in n1_verdicts.items() if v.kind == "SimpleOnlyCommon"}
    assert nonsimple == _EXPECTED_N1_NONSIMPLE
    assert len(simple) == 7
    assert not any(v.kind == "NoCommon" for v in n1_verdicts.values())


def test_n1_pair_witnesses_verify(n1_verdicts):
    for (i, ca), (j, cb) in itertools.combinations(enumerate(_N1, start=1), 2):
        v = n1_verdicts[(i, j)]
        pA = original_equation(CountArray(GENERIC, ca))
        pB = original_equation(CountArray(GENERIC, cb))
        for pt in v.points:
            t1, t2 = pt.thetas
            za = complex(math.cos(t1), math.sin(t1))
            zb = complex(math.cos(t2), math.sin(t2))
            assert abs(pA.evaluate(za, zb)) < 1e-9
            assert abs(pB.evaluate(za, zb)) < 1e-9
        if v.kind == "NonSimpleCommon":
            assert v.witness is not None


def _sympy_parts(value) -> list:
    """Each sympy object inside a point: at any depth of its dataclass
    fields, fields, elements and tuples."""
    if isinstance(value, sympy.Basic):
        return [value]
    if dataclasses.is_dataclass(value):
        parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, Field):
        parts = [*value.minpoly, value.lo, value.hi]
    elif isinstance(value, CosinePoint):
        parts = [value.field, *value.c1.coeffs, *value.c2.coeffs]
    elif isinstance(value, tuple):
        parts = list(value)
    else:
        return []
    return [x for part in parts for x in _sympy_parts(part)]


def test_points_hold_no_sympy_values(n1_verdicts):
    """Every algebraic point of the 900-array sweep, and every common
    point of the 15 N.1 pairs and the cross-family pairs, holds exact
    values without sympy."""
    algebraic = [ap for struct in STRUCTURES.values()
                 for arr in enumerate_count_arrays(struct)
                 for ap in classify_array(arr).solutions.algebraic_points]
    common = [pt for v in n1_verdicts.values() for pt in v.points]
    common += [pt for ca, cb in _CROSS_PAIRS for pt in _pair(ca, cb).points]
    assert len(algebraic) > 10 and len(common) > 40
    for pt in algebraic + common:
        assert _sympy_parts(pt) == [], pt
    assert {type(pt.point) for pt in common} == {tuple, CosinePoint}
    one = Field((Fraction(-1), Fraction(1)), Fraction(1), Fraction(1))
    assert _sympy_parts((one, sympy.Integer(2))) == [2]


def test_n1_first_pair_point_values():
    v = _pair(_N1[0], _N1[1])
    assert v.kind == "NonSimpleCommon"
    assert v.method == "real-line-quadric"
    cos_pairs = sorted(
        tuple(map(sympy.nsimplify, cosines(p))) for p in v.points
    )
    # a = 1 with cos(t_b) = -1/2 (non-simple), and a surd pair (simple)
    assert (1, Rational := sympy.Rational(-1, 2)) in cos_pairs
    surd = [p for p in v.points if p.simple]
    assert len(surd) == 2
    assert all(sympy.simplify(cosines(p)[0] - (1 - sympy.sqrt(3))) == 0 for p in surd)


# --- cross-family verdicts ----------------------------------------------------


def test_cross_family_no_common():
    assert _pair((1, 1, 1, 2, 0, 1, 0), (0, 1, 1, 2, 2, 0, 0)).kind == "NoCommon"
    assert _pair((2, 2, 0, 1, 0, 1, 0), (0, 2, 2, 1, 1, 0, 0)).kind == "NoCommon"
    assert _pair((2, 2, 0, 1, 0, 1, 0), (0, 1, 1, 1, 1, 1, 1)).kind == "NoCommon"


def test_cross_family_simple_corner_points():
    v = _pair((2, 2, 0, 1, 0, 1, 0), (1, 1, 1, 2, 0, 1, 0))
    assert v.kind == "SimpleOnlyCommon"
    assert [tuple(map(str, cosines(p))) for p in v.points] == [("-1", "1")]


def test_cross_family_nonsimple_degenerate_letter():
    # a = 1 with b a primitive cube root solves both equations and
    # satisfies none of the ten relations
    v = _pair((1, 1, 0, 2, 0, 2, 0), (0, 1, 1, 1, 1, 1, 1))
    assert v.kind == "NonSimpleCommon"
    assert v.witness is not None
    t1, t2 = v.witness
    assert abs(t1 - 0.0) < 1e-12
    assert abs(t2 - 2 * math.pi / 3) < 1e-9
    assert sorted(p.sign_b for p in v.points) == [-1, 1]


def test_ruled_line_route_pins_a_letter():
    v = _pair((1, 1, 0, 2, 0, 2, 0), (2, 2, 0, 1, 0, 1, 0))
    assert v.kind == "SimpleOnlyCommon"
    assert v.method == "ruled-line"
    assert sorted(tuple(map(str, cosines(p))) for p in v.points) == [
        ("-1", "-1"),
        ("-1", "1"),
    ]


def test_difference_route_on_proportional_real_parts():
    v = _pair((1, 1, 1, 2, 0, 1, 0), (1, 1, 1, 0, 2, 1, 0))
    assert v.kind == "SimpleOnlyCommon"
    assert v.method == "difference"
    assert sorted(tuple(map(str, cosines(p))) for p in v.points) == [
        ("-1", "1"),
        ("1", "-1"),
    ]
    w = _pair((2, 2, 0, 1, 0, 1, 0), (2, 2, 0, 0, 1, 1, 0))
    assert w.kind == "SimpleOnlyCommon"
    assert w.method == "difference"
    assert sorted(tuple(map(str, cosines(p))) for p in w.points) == [
        ("-1", "-1"),
        ("-1", "1"),
    ]


def test_remaining_mixed_pair():
    v = _pair((2, 1, 0, 2, 0, 0, 1), (1, 1, 0, 2, 0, 2, 0))
    assert v.kind == "SimpleOnlyCommon"
    assert [tuple(map(str, cosines(p))) for p in v.points] == [("-1", "-1")]


# Pairs of printed N.1-N.5 arrays whose difference involves more than one
# variable group: no route decides them, so they get no verdict (ROADMAP
# item 6). The gap may shrink, never grow.
_UNDECIDED_PRINTED_PAIRS = {
    ((2, 2, 0, 1, 0, 1, 0), (2, 2, 0, 0, 1, 0, 1)),
    ((2, 1, 0, 2, 0, 0, 1), (2, 0, 1, 2, 0, 1, 0)),
    ((2, 1, 0, 0, 1, 2, 0), (2, 0, 1, 1, 0, 2, 0)),
    ((1, 1, 0, 2, 0, 2, 0), (1, 1, 0, 0, 2, 0, 2)),
    ((1, 1, 0, 2, 0, 2, 0), (1, 0, 1, 1, 1, 2, 0)),
    ((1, 1, 0, 2, 0, 2, 0), (1, 0, 1, 2, 0, 1, 1)),
    ((1, 1, 0, 0, 2, 0, 2), (1, 1, 0, 1, 1, 2, 0)),
    ((1, 1, 0, 0, 2, 0, 2), (1, 0, 1, 1, 1, 2, 0)),
    ((1, 1, 0, 0, 2, 0, 2), (1, 1, 0, 2, 0, 1, 1)),
    ((1, 1, 0, 0, 2, 0, 2), (1, 0, 1, 2, 0, 1, 1)),
    ((1, 2, 0, 1, 0, 0, 2), (1, 0, 2, 1, 0, 2, 0)),
    ((1, 2, 0, 1, 0, 0, 2), (1, 1, 1, 1, 0, 2, 0)),
    ((1, 2, 0, 1, 0, 0, 2), (1, 1, 1, 0, 1, 2, 0)),
    ((1, 2, 0, 1, 0, 0, 2), (1, 0, 2, 1, 0, 1, 1)),
    ((1, 0, 2, 1, 0, 2, 0), (1, 1, 1, 0, 1, 2, 0)),
    ((1, 0, 2, 1, 0, 2, 0), (1, 2, 0, 1, 0, 1, 1)),
    ((1, 2, 0, 0, 2, 1, 0), (1, 0, 2, 2, 0, 1, 0)),
    ((1, 2, 0, 0, 2, 1, 0), (1, 1, 1, 2, 0, 1, 0)),
    ((1, 2, 0, 0, 2, 1, 0), (1, 0, 2, 1, 1, 1, 0)),
    ((1, 0, 2, 2, 0, 1, 0), (1, 1, 1, 0, 2, 1, 0)),
    ((1, 0, 2, 2, 0, 1, 0), (1, 2, 0, 1, 1, 1, 0)),
    ((1, 1, 1, 2, 0, 1, 0), (1, 2, 0, 1, 1, 1, 0)),
    ((1, 1, 1, 2, 0, 1, 0), (1, 0, 2, 1, 1, 1, 0)),
    ((1, 1, 1, 0, 2, 1, 0), (1, 2, 0, 1, 1, 1, 0)),
    ((1, 1, 1, 0, 2, 1, 0), (1, 0, 2, 1, 1, 1, 0)),
    ((1, 1, 1, 1, 0, 2, 0), (1, 2, 0, 1, 0, 1, 1)),
    ((1, 1, 1, 1, 0, 2, 0), (1, 0, 2, 1, 0, 1, 1)),
    ((1, 1, 1, 0, 1, 2, 0), (1, 2, 0, 1, 0, 1, 1)),
    ((1, 1, 1, 0, 1, 2, 0), (1, 0, 2, 1, 0, 1, 1)),
    ((1, 1, 0, 1, 1, 2, 0), (1, 1, 0, 2, 0, 1, 1)),
    ((1, 1, 0, 1, 1, 2, 0), (1, 0, 1, 2, 0, 1, 1)),
    ((1, 0, 1, 1, 1, 2, 0), (1, 1, 0, 2, 0, 1, 1)),
    ((1, 0, 1, 1, 1, 2, 0), (1, 0, 1, 2, 0, 1, 1)),
}


def test_printed_pair_gap_is_frozen():
    printed = [
        CountArray(GENERIC, counts)
        for rows in arrays._GENERIC_PRINTED_LISTS.values() for counts in rows
    ]
    assert len(printed) == 31
    undecided = set()
    for A, B in itertools.combinations(printed, 2):
        try:
            common_solutions(A, B)
        except pairs.UnsupportedPair:
            undecided.add((A.counts, B.counts))
    assert undecided <= _UNDECIDED_PRINTED_PAIRS


# --- the {1,1,2,2} elimination -------------------------------------------------


_PLACEMENT_COEFFS = {
    (1, 1, 2, 2): (-3, -6, 21, 24),
    (1, 2, 1, 2): (-3, 0, 12),
    (1, 2, 2, 1): (0, -4, 5, 8),
    (2, 1, 1, 2): (0, -4, 5, 8),
    (2, 1, 2, 1): (3, -12, 6, 12),
    (2, 2, 1, 1): (3, 0, -3),
}


def test_real_part_elimination_coefficients():
    for placement, coeffs in _PLACEMENT_COEFFS.items():
        elim = real_part_system(placement)
        assert elim.coefficients == coeffs, placement


def test_real_part_elimination_rejects_bad_placement():
    with pytest.raises(ValueError):
        real_part_system((1, 2, 2, 2))


def test_real_part_roots_exact_values():
    elim = real_part_system((1, 1, 2, 2))
    vals = sorted(elim.all_roots, key=lambda r: float(r.evalf(30)))
    want = [
        sympy.Integer(-1),
        (1 - sympy.sqrt(33)) / 16,
        (1 + sympy.sqrt(33)) / 16,
    ]
    assert len(vals) == 3
    assert all(sympy.simplify(g - w) == 0 for g, w in zip(vals, want))

    halves = real_part_system((1, 2, 1, 2))
    assert sorted(float(r) for r in halves.all_roots) == [-0.5, 0.5]

    qroots = real_part_system((2, 1, 2, 1))
    in_range = [r.value for r in qroots.roots]
    want_in = [(-1 + sympy.sqrt(3)) / 2, sympy.Rational(1, 2)]
    assert len(in_range) == 2
    assert all(
        any(sympy.simplify(g - w) == 0 for w in want_in) for g in in_range
    )


def test_real_part_out_of_range_roots_dropped():
    elim = real_part_system((2, 1, 1, 2))
    # roots of x(8x^2+5x-4): one lies below -1 and is annotated away
    assert len(elim.all_roots) == 3
    assert len(elim.roots) == 2
    for root in elim.roots:
        assert root.in_range


def test_real_part_branch_annotations_are_honest():
    """Squaring introduced candidates; only annotated ones survive."""
    for placement in _PLACEMENT_COEFFS:
        elim = real_part_system(placement)
        for root in elim.roots:
            if not root.compatible:
                continue
            x_k = root.value
            x_j = root.partner
            x_i = root.third
            for s in root.branch_signs:
                lhs = sympy.expand(x_i - x_j * x_k)
                rhs = s * sympy.sqrt((1 - x_j**2) * (1 - x_k**2))
                assert sympy.simplify(lhs - rhs) == 0


# --- 2x2 orthogonality constraints ---------------------------------------------


def test_h2_report_shape():
    report = h2_alphabet_relations()
    assert isinstance(report, AlphabetRelationReport)
    assert [str(r) for r in report.relations] == [
        "b^1 = -a^-1",
        "b^1 = -a^2",
        "a^1 = -b^2",
    ]
    assert report.degenerate_conditions == ("a = -b", "a = -1", "b = -1")
    assert report.single_shape_empty


def test_h2_pairwise_solutions_frozen():
    report = h2_alphabet_relations()
    f = Fraction
    assert report.pair_solutions == {
        (1, 2): ((f(1, 3), f(1, 6)), (f(2, 3), f(5, 6))),
        (1, 3): ((f(1, 6), f(1, 3)), (f(5, 6), f(2, 3))),
        (2, 3): ((f(1, 6), f(5, 6)), (f(5, 6), f(1, 6))),
    }


def test_h2_solutions_satisfy_both_relations():
    report = h2_alphabet_relations()
    rel_residual = {
        1: lambda a, b: b + a.conjugate(),
        2: lambda a, b: b + a * a,
        3: lambda a, b: a + b * b,
    }
    for (i, j), assignments in report.pair_solutions.items():
        for ta, tb in assignments:
            a = complex(math.cos(2 * math.pi * ta), math.sin(2 * math.pi * ta))
            b = complex(math.cos(2 * math.pi * tb), math.sin(2 * math.pi * tb))
            assert abs(rel_residual[i](a, b)) < 1e-12
            assert abs(rel_residual[j](a, b)) < 1e-12


# --- exact arithmetic in Q(theta) ----------------------------------------------


def _equations(ca, cb):
    return (original_equation(CountArray(GENERIC, ca)),
            original_equation(CountArray(GENERIC, cb)))


def _line(pA, pB):
    """The real-part line's coordinates as sympy expressions."""
    return [e.as_expr() for e in pairs._solve_real_line(pA, pB)]


def _quadric(pA, pB):
    """The quadric polynomial in the parameter of the real-part line."""
    x2, x3, x4 = _line(pA, pB)
    return sympy.Poly(
        sympy.expand((x4 - x2 * x3) ** 2 - (1 - x2**2) * (1 - x3**2)), pairs._T)


def _ascending(poly):
    """A sympy Poly's coefficients as Fractions, constant term first."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def _n1_root_fields():
    """(exact root, field) for every distinct real quadric root of the
    15 N.1 pairs."""
    out = []
    for ca, cb in itertools.combinations(_N1, 2):
        poly = _quadric(*_equations(ca, cb))
        exact = list(dict.fromkeys(poly.real_roots(radicals=False)))
        fields = real_root_fields(_ascending(poly))
        assert len(exact) == len(fields)
        out.extend(zip(exact, fields))
    return out


def _reference_root_fields(coeffs):
    """(root, monic minimal polynomial) of each distinct real root, the
    route before ``real_root_fields``: ``real_roots`` without radicals
    names each root as a Rational or a ``CRootOf``, which carries the
    root's irreducible factor."""
    poly = sympy.Poly(list(reversed(coeffs)), pairs._T)
    out = []
    for root in dict.fromkeys(poly.real_roots(radicals=False)):
        factor = sympy.Poly([1, -root] if root.is_Rational else root.poly.all_coeffs(),
                            pairs._T)
        m = _ascending(factor)
        out.append((root, tuple(c / m[-1] for c in m)))
    return out


def _seeded_products():
    """Products of rational linear factors, squares and x^2 - k, with
    rational, repeated and adjacent roots; the first isolates a root of
    8x^2 - x - 1 on (0, 1/2), next to the rational root 1/2."""
    x = pairs._T
    products = [(2 * x - 1) * (8 * x**2 - x - 1) * (x - 1) ** 2 * (x**2 - 3)]
    rng = random.Random(23)
    for _ in range(40):
        expr = sympy.Integer(1)
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                expr *= rng.randint(1, 4) * x - rng.randint(-4, 4)
            elif kind == 1:
                expr *= (rng.randint(1, 3) * x - rng.randint(-3, 3)) ** 2
            else:
                expr *= x**2 - rng.randint(1, 12)
        products.append(expr)
    return [_ascending(sympy.Poly(e, x)) for e in products]


def test_real_root_fields_match_crootof(monkeypatch):
    """``real_root_fields`` against ``real_roots(radicals=False)``: the
    same roots in the same order, each minimal polynomial the
    ``CRootOf``'s monic factor with the root inside its interval, and a
    rational root its own interval. Inputs: every cosine polynomial of
    the 900-array sweep, every N.1 and cross-family quadric, and seeded
    products."""
    recorded = []
    for module in (solve, pairs):
        real = module.real_root_fields
        monkeypatch.setattr(module, "real_root_fields",
                            lambda c, real=real: recorded.append(tuple(c)) or real(c))
    equations = []
    monkeypatch.setattr(arrays, "solve_unit_circle", lambda p: equations.append(p)
                        or solve_unit_circle(p))
    monkeypatch.setattr(arrays, "nonsimple_witness_search", lambda p: None)
    for struct in STRUCTURES.values():
        for arr in enumerate_count_arrays(struct):
            arrays.classify_array.__wrapped__(arr)
    for p in set(equations):
        coeffs = solve._coefficients(p)
        solve._solve_cleared.__wrapped__(tuple(c if coeffs[0] > 0 else -c for c in coeffs))
    cosine_count = len(set(recorded))
    for ca, cb in list(itertools.combinations(_N1, 2)) + _CROSS_PAIRS:
        coords = pairs._solve_real_line(*_equations(ca, cb))
        if coords is not None:
            pairs._line_candidates(coords, *_equations(ca, cb))
    inputs = list(dict.fromkeys(recorded)) + _seeded_products()
    # 14 distinct cosine polynomials, then 14 distinct quadrics
    assert (cosine_count, len(set(recorded))) == (14, 28)
    counts = collections.Counter()
    for coeffs in inputs:
        fields = real_root_fields(coeffs)
        reference = _reference_root_fields(coeffs)
        assert len(fields) == len(reference), coeffs
        rationals = {field.lo for field in fields if field.lo == field.hi}
        for field, (root, minpoly) in zip(fields, reference):
            assert field.minpoly == minpoly, coeffs
            if root.is_Rational:
                assert field.lo == field.hi == Fraction(int(root.p), int(root.q))
                counts["rational"] += 1
            else:
                lo, hi = (sympy.Rational(b.numerator, b.denominator)
                          for b in (field.lo, field.hi))
                assert lo < root < hi, coeffs
                counts["irrational"] += 1
                counts["adjacent"] += bool({field.lo, field.hi} & rationals)
    assert counts["rational"] > 50 and counts["irrational"] > 50, counts
    assert counts["adjacent"] > 0, counts


def _random_element(rng, field, bound=6):
    degree = len(field.minpoly) - 1
    return field(*(rng.randint(-bound, bound) for _ in range(degree)))


def test_field_zero_test_on_multiples_of_minpoly():
    rng = random.Random(81)
    root_fields = _n1_root_fields()
    assert len(root_fields) > 15
    for _, field in root_fields:
        m = field.minpoly
        for _ in range(5):
            q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            multiple = [0] * (len(m) + len(q) - 1)
            for i, x in enumerate(m):
                for j, y in enumerate(q):
                    multiple[i + j] += x * y
            element = field(*multiple)
            assert element.is_zero() and element.sign() == 0
            r = _random_element(rng, field)
            shifted = field(*(x + y for x, y in itertools.zip_longest(
                multiple, r.coeffs, fillvalue=0)))
            assert shifted.coeffs == r.coeffs
            assert (shifted - r).is_zero()


def test_field_sign_matches_mpmath():
    rng = random.Random(82)
    checked = 0
    with mpmath.workdps(60):
        for exact, field in _n1_root_fields():
            theta = mpmath.mpf(str(sympy.N(exact, 70)))
            for _ in range(12):
                element = _random_element(rng, field)
                if element.is_zero():
                    continue
                value = mpmath.polyval(list(reversed(element.coeffs)), theta)
                assert abs(value) > mpmath.mpf(10) ** -40
                assert element.sign() == (1 if value > 0 else -1)
                checked += 1
    assert checked > 400


def _sympy_element(element, theta):
    return sum(sympy.Rational(c.numerator, c.denominator) * theta**i
               for i, c in enumerate(map(Fraction, element.coeffs)))


def test_sqrt_sum_test_agrees_with_sympy():
    """alpha*sqrt(P) + beta*sqrt(Q) = 0 in two quadratic fields, against
    sympy on seeded cases: unrelated terms, terms built to cancel, and
    the same terms with one sign flipped, where alpha^2 P = beta^2 Q
    holds but the sum does not vanish."""
    fields = [
        # the roots of r^2 - 3 in [1, 2] and of 8r^2 - r - 1 in [-1, 0]
        (Field((Fraction(-3), Fraction(0), Fraction(1)), Fraction(1), Fraction(2)),
         sympy.sqrt(3)),
        (Field((Fraction(-1, 8), Fraction(-1, 8), Fraction(1)), Fraction(-1), Fraction(0)),
         (1 - sympy.sqrt(33)) / 16),
    ]
    rng = random.Random(83)
    outcomes = collections.Counter()
    for field, theta in fields:
        for case in range(9):
            R = _random_element(rng, field, 3)
            R = R * R
            gamma, delta, kappa = (_random_element(rng, field, 3) for _ in range(3))
            if case % 3:
                # alpha*|gamma| = -beta*|delta| over sqrt(R), or its negation
                P, Q = gamma * gamma * R, delta * delta * R
                alpha = delta.sign() * delta * kappa
                beta = (-1) ** case * gamma.sign() * gamma * kappa
            else:
                P, Q = R, gamma * gamma
                alpha, beta = delta, kappa
            got = sqrt_sum_vanishes(alpha, P, beta, Q)
            expr = (_sympy_element(alpha, theta) * sympy.sqrt(_sympy_element(P, theta))
                    + _sympy_element(beta, theta) * sympy.sqrt(_sympy_element(Q, theta)))
            assert got == _ref_eq(expr, 0), (alpha.coeffs, P.coeffs, beta.coeffs, Q.coeffs)
            outcomes[got] += 1
    assert outcomes[True] >= 5 and outcomes[False] >= 10


def test_cosine_point_matches_mpmath_at_n1_quadric_roots():
    """CosinePoint's exact real and imaginary zero tests against 50-digit
    evaluation, at every sign choice over every quadric root of the 15
    N.1 pairs with both cosines in [-1, 1], for the pair's own two
    equations, 30 seeded GENERIC equations and the ten settled ones."""
    nonzero = [p for p in map(original_equation, enumerate_count_arrays(GENERIC))
               if not p.is_zero()]
    seeded = (random.Random(84).sample(nonzero, 30)
              + [rel.equation for rel in SETTLED_RELATIONS])
    outcomes = collections.Counter()
    with mpmath.workdps(50):
        for ca, cb in itertools.combinations(_N1, 2):
            pA, pB = _equations(ca, cb)
            poly = _quadric(pA, pB)
            lines = [_ascending(sympy.Poly(e, pairs._T)) for e in _line(pA, pB)[:2]]
            exact_roots = dict.fromkeys(poly.real_roots(radicals=False))
            fields = real_root_fields(_ascending(poly))
            for exact, field in zip(exact_roots, fields):
                theta = mpmath.mpf(str(sympy.N(exact, 70)))
                x2, x3 = (field(*line) for line in lines)
                if not (in_unit_interval(x2) and in_unit_interval(x3)):
                    continue
                c1, c2 = (mpmath.polyval(list(reversed(line)), theta) for line in lines)
                for s1, s2 in itertools.product(
                        (0,) if (1 - x2 * x2).is_zero() else (1, -1),
                        (0,) if (1 - x3 * x3).is_zero() else (1, -1)):
                    pt = CosinePoint(x2, s1, x3, s2)
                    a = mpmath.mpc(c1, s1 * mpmath.sqrt(max(0, 1 - c1 * c1)))
                    b = mpmath.mpc(c2, s2 * mpmath.sqrt(max(0, 1 - c2 * c2)))
                    for eq in [pA, pB] + seeded:
                        z = sum(c * a**j * b**k for (j, k), c in eq.coeffs.items())
                        for part, got in ((z.real, pt.real_vanishes(eq)),
                                          (z.imag, pt.imag_vanishes(eq))):
                            # exact zeros come out below 1e-40, others above 1e-20
                            assert abs(part) < 1e-40 or abs(part) > 1e-20
                            assert got == (abs(part) < 1e-40), (ca, cb, s1, s2, eq)
                            outcomes[got] += 1
    assert outcomes[True] > 100 and outcomes[False] > 1000, outcomes


def test_double_quadric_roots_give_each_point_once():
    for ca, cb, count in (
        ((2, 2, 0, 1, 0, 1, 0), (1, 1, 1, 2, 0, 1, 0), 1),
        ((1, 1, 0, 2, 0, 2, 0), (0, 1, 1, 1, 1, 1, 1), 2),
    ):
        roots = _quadric(*_equations(ca, cb)).real_roots()
        assert len(roots) == 2 and roots[0] == roots[1]
        v = _pair(ca, cb)
        assert v.method == "real-line-quadric"
        assert len(v.points) == count


def test_substitution_residues_have_no_algebraic_root():
    """The residues of a = +-1, b = +-1 and a = +-b on all 924 GENERIC
    count arrays, the two-variable input of ``common_solutions``.
    No non-zero residue has an algebraic unimodular root, so no gcd of
    two has one either. They vanish identically at -1 only: at +1 the
    coefficients stay non-negative and sum to 6."""
    equations = [original_equation(CountArray(GENERIC, tuple(slots.count(i) for i in range(7))))
                 for slots in itertools.combinations_with_replacement(range(7), 6)]
    assert len(equations) == 924
    vanished = collections.Counter()
    nonzero = 0
    for p in equations:
        for group, (lhs, rhs) in pairs._GROUP_EXPS.items():
            for value in (1, -1):
                residue = Relation(lhs, value, rhs).substitute(p)
                if value == 1:
                    assert min(residue.coeffs.values()) > 0
                    assert sum(residue.coeffs.values()) == 6
                if residue.is_zero():
                    vanished[group, value] += 1
                    continue
                nonzero += 1
                assert not solve_unit_circle(residue).algebraic_points, (p, group, value)
    assert nonzero == 5484
    assert vanished == {("a", -1): 20, ("b", -1): 20, ("a/b", -1): 20}


# The route before exact field arithmetic, kept as a reference: every
# zero test through sympy expand/equals/simplify, with a 40-digit guard.


def _ref_eq(lhs, rhs=0) -> bool:
    diff = sympy.expand(lhs - rhs)
    if diff == 0:
        return True
    verdict = diff.equals(0)
    if verdict is None:
        simplified = sympy.simplify(diff)
        verdict = simplified == 0 or simplified.equals(0) is True
    if not verdict and abs(diff.evalf(40)) < sympy.Float(10) ** -30:
        raise ArithmeticError(f"undecided equality near zero: {diff}")
    return bool(verdict)


def _ref_sine(sign, cos_value):
    return sympy.Integer(0) if sign == 0 else sign * sympy.sqrt(1 - cos_value**2)


def _ref_candidate_simple(x2, sa, x3, sb) -> bool:
    cos_sin = ((x2, _ref_sine(sa, x2)), (x3, _ref_sine(sb, x3)))
    for rel in SETTLED_RELATIONS:
        cx, sx = cos_sin[rel.letter]
        c, s = cos_sin[1 - rel.letter]
        cy, sy = {0: (1, 0), 2: (2 * c**2 - 1, 2 * c * s)}.get(
            rel.power, (c, rel.power * s))
        sign = rel.rhs_sign
        if _ref_eq(cx - sign * cy) and _ref_eq(sx - sign * sy):
            return True
    return False


def _ref_imag_linear(p: LaurentPoly):
    """Coefficients (u, v, w) of Im p = u*s1 + v*s2 + w*sin(t1 - t2)."""
    u = v = w = 0
    for (e1, e2), c in p.coeffs.items():
        if (e1, e2) == (1, 0):
            u += c
        elif (e1, e2) == (-1, 0):
            u -= c
        elif (e1, e2) == (0, 1):
            v += c
        elif (e1, e2) == (0, -1):
            v -= c
        elif (e1, e2) == (1, -1):
            w += c
        elif (e1, e2) == (-1, 1):
            w -= c
        elif (e1, e2) != (0, 0):
            raise pairs.UnsupportedPair(f"unexpected product exponent {(e1, e2)}")
    return u, v, w


def _ref_line_points(pA, pB):
    """The real-line-quadric points, deduplicated with ``_ref_eq``."""
    coords = _line(pA, pB)
    imA, imB = _ref_imag_linear(pA), _ref_imag_linear(pB)
    points = []
    for root in _quadric(pA, pB).real_roots():
        values = [sympy.simplify(c.subs(pairs._T, root)) for c in coords]
        if not all(bool(v >= -1) and bool(v <= 1) for v in values):
            continue
        x2, x3, x4 = values
        for sa in (0,) if _ref_eq(x2**2, 1) else (1, -1):
            for sb in (0,) if _ref_eq(x3**2, 1) else (1, -1):
                s1, s2 = _ref_sine(sa, x2), _ref_sine(sb, x3)
                if not _ref_eq(x4 - x2 * x3, s1 * s2):
                    continue
                if not all(
                    _ref_eq(s1 * (u + w * x3) + s2 * (v - w * x2))
                    for u, v, w in (imA, imB)
                ):
                    continue
                points.append((x2, sa, x3, sb, _ref_candidate_simple(x2, sa, x3, sb)))
    return _ref_dedup(points)


def _ref_dedup(points):
    out = []
    for pt in points:
        if not any(pt[1] == q[1] and pt[3] == q[3]
                   and _ref_eq(pt[0], q[0]) and _ref_eq(pt[2], q[2])
                   for q in out):
            out.append(pt)
    return out


def _sympy_point(p):
    """A ``CommonPoint`` as (cos_a, sign_a, cos_b, sign_b, simple), the
    cosines as sympy numbers, the form of the reference points."""
    cos_a, cos_b = cosines(p)
    return cos_a, p.sign_a, cos_b, p.sign_b, p.simple


def _same_points(got, want) -> bool:
    """The same points in the same order, the cosines equal by value."""
    return len(got) == len(want) and all(
        g[1] == w[1] and g[3:] == w[3:] and _ref_eq(g[0], w[0]) and _ref_eq(g[2], w[2])
        for g, w in zip(got, want))


# The N.1 pairs (1-based, as in n1_verdicts) whose reference run takes
# under 1 s: 0.01-0.5 s each, against 0.8-10 s for the other ten.
_N1_FAST_REFERENCE = ((1, 3), (2, 4), (2, 5), (4, 6), (5, 6))


@pytest.mark.parametrize("ca, cb", _CROSS_PAIRS + [
    (_N1[i - 1], _N1[j - 1]) for i, j in _N1_FAST_REFERENCE])
def test_field_route_matches_eq_reference(ca, cb):
    v = _pair(ca, cb)
    got = [_sympy_point(p) for p in v.points]
    if v.method == "real-line-quadric":
        assert _same_points(got, _ref_line_points(*_equations(ca, cb)))
    else:
        assert _ref_dedup(got) == got
        for p in got:
            assert _ref_candidate_simple(*p[:4]) == p[4]
