"""Unit tests for joint solvability of two count-array equations."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy

from chmkit.arrays import CountArray, STRUCTURES, enumerate_count_arrays, original_equation
from chmkit.pairs import (
    AlphabetRelationReport,
    CommonPoint,
    common_solutions,
    h2_alphabet_relations,
    real_part_system,
)

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


def test_n1_first_pair_point_values():
    v = _pair(_N1[0], _N1[1])
    assert v.kind == "NonSimpleCommon"
    assert v.method == "real-line-quadric"
    cos_pairs = sorted(
        (sympy.nsimplify(p.cos_a), sympy.nsimplify(p.cos_b)) for p in v.points
    )
    # a = 1 with cos(t_b) = -1/2 (non-simple), and a surd pair (simple)
    assert (1, Rational := sympy.Rational(-1, 2)) in cos_pairs
    surd = [p for p in v.points if p.simple]
    assert len(surd) == 2
    assert all(sympy.simplify(p.cos_a - (1 - sympy.sqrt(3))) == 0 for p in surd)


# --- cross-family verdicts ----------------------------------------------------


def test_cross_family_no_common():
    assert _pair((1, 1, 1, 2, 0, 1, 0), (0, 1, 1, 2, 2, 0, 0)).kind == "NoCommon"
    assert _pair((2, 2, 0, 1, 0, 1, 0), (0, 2, 2, 1, 1, 0, 0)).kind == "NoCommon"
    assert _pair((2, 2, 0, 1, 0, 1, 0), (0, 1, 1, 1, 1, 1, 1)).kind == "NoCommon"


def test_cross_family_simple_corner_points():
    v = _pair((2, 2, 0, 1, 0, 1, 0), (1, 1, 1, 2, 0, 1, 0))
    assert v.kind == "SimpleOnlyCommon"
    assert [(str(p.cos_a), str(p.cos_b)) for p in v.points] == [("-1", "1")]


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
    assert sorted((str(p.cos_a), str(p.cos_b)) for p in v.points) == [
        ("-1", "-1"),
        ("-1", "1"),
    ]


def test_difference_route_on_proportional_real_parts():
    v = _pair((1, 1, 1, 2, 0, 1, 0), (1, 1, 1, 0, 2, 1, 0))
    assert v.kind == "SimpleOnlyCommon"
    assert v.method == "difference"
    assert sorted((str(p.cos_a), str(p.cos_b)) for p in v.points) == [
        ("-1", "1"),
        ("1", "-1"),
    ]
    w = _pair((2, 2, 0, 1, 0, 1, 0), (2, 2, 0, 0, 1, 1, 0))
    assert w.kind == "SimpleOnlyCommon"
    assert w.method == "difference"
    assert sorted((str(p.cos_a), str(p.cos_b)) for p in w.points) == [
        ("-1", "-1"),
        ("-1", "1"),
    ]


def test_remaining_mixed_pair():
    v = _pair((2, 1, 0, 2, 0, 0, 1), (1, 1, 0, 2, 0, 2, 0))
    assert v.kind == "SimpleOnlyCommon"
    assert [(str(p.cos_a), str(p.cos_b)) for p in v.points] == [("-1", "-1")]


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
