"""Unit tests for the order-6 matrix type, scans, and the catalog."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chmkit.exactnum import (
    I_UNIT,
    MINUS_ONE,
    OMEGA,
    OMEGA2,
    ONE,
    UnitValue,
    root_of_unity,
    unit_sum,
)
from chmkit.matrices import (
    CATALOG_NAMES,
    Matrix6,
    apply_monomial,
    catalog,
    distinct_elements,
    element_row_profile,
    find_3x3_hadamard_submatrix,
    find_pattern_1oo2,
    find_rank1_2x3,
    h2_reducible,
    is_chm,
    mub_obstruction,
    row_inner_product,
    scale_matrix,
)

S60 = catalog("S6_0")
S61 = catalog("S6_1")
H1 = catalog("H1")
F6 = catalog("F6")
HAB = catalog("HAB", alpha=root_of_unity(1, 5), beta=root_of_unity(1, 7))


def random_monomial_image(m, rng):
    """P*M*Q with random permutations and random 24th-root phases."""
    row_perm = rng.sample(range(6), 6)
    col_perm = rng.sample(range(6), 6)
    rp = [root_of_unity(rng.randrange(24), 24) for _ in range(6)]
    cp = [root_of_unity(rng.randrange(24), 24) for _ in range(6)]
    return apply_monomial(m, row_perm, rp, col_perm, cp)


def as_float(m):
    return Matrix6(
        tuple(
            UnitValue.from_float(v.as_complex().real, v.as_complex().imag)
            for v in row
        )
        for row in m.rows
    )


class TestMatrix6:
    def test_shape_is_enforced(self):
        with pytest.raises(ValueError):
            Matrix6([[ONE] * 6] * 5)
        with pytest.raises(ValueError):
            Matrix6([[ONE] * 5] * 6)

    def test_mode_mixing_rejected(self):
        rows = [[ONE] * 6 for _ in range(6)]
        rows[3][4] = UnitValue.from_float(1.0, 0.0)
        with pytest.raises(ValueError, match="mix"):
            Matrix6(rows)

    def test_entry_type_checked(self):
        rows = [[ONE] * 6 for _ in range(6)]
        rows[0][0] = 1
        with pytest.raises(TypeError):
            Matrix6(rows)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            S60.mode = "float"

    def test_transpose_and_column(self):
        t = S60.transpose()
        assert t.column(1) == S60[1]
        assert t.transpose() == S60

    def test_modes(self):
        assert S60.mode == "exact"
        assert as_float(S60).mode == "float"


class TestExponentForm:
    """An exact matrix is its reduced order and integer exponents; its
    UnitValue views must read as they did when entries were stored."""

    @staticmethod
    def order_twelve():
        # F6 with its first row turned by i: entries of order 12
        m = apply_monomial(F6, range(6), (I_UNIT,) + (ONE,) * 5, range(6), (ONE,) * 6)
        assert m.order == 12
        return m

    def test_unit_value_and_exponent_constructions_agree(self):
        m = self.order_twelve()
        from_units = Matrix6(m.rows)
        doubled = Matrix6.from_exponents(24, [[2 * x for x in row] for row in m.exponents])
        wrapped = Matrix6.from_exponents(12, [[x - 12 for x in row] for row in m.exponents])
        for built in (doubled, wrapped):
            assert built.order == 12
            assert built.exponents == from_units.exponents
            assert built == from_units and hash(built) == hash(from_units)
        assert len({from_units, doubled, wrapped}) == 1

    def test_reduced_order_sets_equality(self):
        # S6_0 over 24 with all exponents multiples of 8 is S6_0 itself
        lifted = Matrix6.from_exponents(24, [[8 * x for x in row] for row in S60.exponents])
        assert lifted.order == 3
        assert lifted == S60 and hash(lifted) == hash(S60)
        assert Matrix6.from_exponents(24, [[x + 1 for x in row] for row in lifted.exponents]) != S60

    def test_views_return_unit_values(self):
        for m in (S60, H1, HAB, self.order_twelve()):
            built = Matrix6.from_exponents(m.order, m.exponents)
            n = m.order
            want = tuple(
                tuple(UnitValue(Fraction(x, n)) for x in row) for row in m.exponents
            )
            assert built.rows == want == m.rows
            assert all(type(v) is UnitValue for row in built.rows for v in row)
            for i in range(6):
                assert built[i] == want[i]
                assert built.column(i) == tuple(row[i] for row in want)
            assert built.transpose().rows == tuple(zip(*want))
            assert built.conj().rows == tuple(tuple(v.conj() for v in row) for row in want)
            assert built.transpose() == Matrix6(zip(*want))
            assert built.conj() == Matrix6(tuple(v.conj() for v in row) for row in want)

    def test_float_matrices_have_no_exponents(self):
        f = as_float(S60)
        assert f != S60
        with pytest.raises(ValueError):
            f.order
        with pytest.raises(ValueError):
            f.exponents

    def test_mixed_rows_rejected(self):
        rows = [list(row) for row in S60.rows]
        rows[0][0] = UnitValue.from_float(1.0, 0.0)
        with pytest.raises(ValueError, match="mix"):
            Matrix6(rows)

    def test_from_exponents_validates(self):
        with pytest.raises(ValueError):
            Matrix6.from_exponents(0, S60.exponents)
        with pytest.raises(ValueError):
            Matrix6.from_exponents(3, S60.exponents[:5])


class TestCatalog:
    def test_all_named_matrices_are_hadamard(self):
        for name in CATALOG_NAMES:
            assert is_chm(catalog(name)), name
        assert is_chm(HAB)

    def test_two_parameter_family_is_hadamard_generically(self):
        rng = random.Random(7)
        for _ in range(5):
            a = root_of_unity(rng.randrange(1, 360), 360)
            b = root_of_unity(rng.randrange(1, 360), 360)
            assert is_chm(catalog("HAB", alpha=a, beta=b))

    def test_pinned_rows(self):
        w, w2 = OMEGA, OMEGA2
        assert S60[1] == (ONE, ONE, w, w, w2, w2)
        assert S61[1] == (ONE, ONE, -w, -w, -w2, -w2)
        assert tuple(H1[k][k] for k in range(6)) == (I_UNIT,) * 6

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            catalog("S6_2")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            catalog("HAB")
        with pytest.raises(ValueError):
            catalog("HAB", alpha=0.5, beta=ONE)
        with pytest.raises(ValueError):
            catalog("S6_0", alpha=ONE)

    def test_distinct_elements(self):
        assert distinct_elements(S60) == {ONE, OMEGA, OMEGA2}
        assert distinct_elements(H1) == {ONE, MINUS_ONE, I_UNIT}
        assert len(distinct_elements(F6)) == 6
        assert distinct_elements(S61) == {
            ONE, MINUS_ONE, OMEGA, OMEGA2, -OMEGA, -OMEGA2,
        }


class TestPredicates:
    def test_all_ones_is_not_hadamard(self):
        allones = Matrix6([[ONE] * 6] * 6)
        assert not is_chm(allones)
        assert row_inner_product(allones, 1, 2).evaluate() == 6

    def test_inner_product_pins(self):
        assert row_inner_product(S60, 1, 2).is_zero()
        assert row_inner_product(H1, 1, 2).is_zero()

    def test_inner_product_rejects_equal_rows(self):
        with pytest.raises(ValueError):
            row_inner_product(S60, 3, 3)

    def test_float_mode_predicate(self):
        assert is_chm(as_float(S60))
        assert is_chm(as_float(H1))
        assert abs(row_inner_product(as_float(S60), 1, 2)) < 1e-9

    def test_transpose_and_conjugate_stay_hadamard(self):
        for name in CATALOG_NAMES:
            m = catalog(name)
            assert is_chm(m.transpose())
            assert is_chm(m.conj())

    def test_monomial_invariance(self):
        rng = random.Random(11)
        for name in CATALOG_NAMES:
            m = catalog(name)
            for _ in range(5):
                assert is_chm(random_monomial_image(m, rng))

    def test_element_row_profile_pins(self):
        assert element_row_profile(S60, OMEGA) == [0, 2, 2, 2, 2, 2]
        assert element_row_profile(H1, I_UNIT) == [1] * 6
        assert element_row_profile(S60, MINUS_ONE) == [0] * 6

    def test_element_row_profile_requires_exact(self):
        with pytest.raises(ValueError):
            element_row_profile(as_float(S60), ONE)

    def test_scale_matrix(self):
        s = root_of_unity(1, 7)
        scaled = scale_matrix(S60, s)
        assert is_chm(scaled)
        assert distinct_elements(scaled) == {s * v for v in distinct_elements(S60)}
        assert scale_matrix(S60, ONE) == S60

    def test_scale_alphabet_image_on_sign_twisted_catalog(self):
        s = -OMEGA
        scaled = scale_matrix(S61, s)
        assert distinct_elements(scaled) == {s * v for v in distinct_elements(S61)}

    def test_float_distinct_elements_cluster(self):
        assert len(distinct_elements(as_float(S60))) == 3

    def test_float_distinct_elements_ambiguity(self):
        import math

        vals = [UnitValue.from_float(1.0, 0.0)] * 35
        t = 2e-9
        vals.append(UnitValue.from_float(math.cos(t), math.sin(t)))
        m = Matrix6([vals[6 * i:6 * i + 6] for i in range(6)])
        with pytest.raises(ValueError, match="ambiguous"):
            distinct_elements(m)


class TestScans:
    def test_rank1_pins(self):
        w = find_rank1_2x3(HAB)
        assert w is not None and (w.rows, w.cols) == ((1, 2), (1, 2, 3))
        assert find_rank1_2x3(S60) is None
        assert find_rank1_2x3(H1) is None

    def test_rank1_witness_reverifies(self):
        w = find_rank1_2x3(HAB)
        r1, r2 = (HAB[i - 1] for i in w.rows)
        ratios = {r1[c - 1] * r2[c - 1].conj() for c in w.cols}
        assert len(ratios) == 1

    def test_hadamard_3x3_pins(self):
        w = find_3x3_hadamard_submatrix(S60)
        assert w is not None and (w.rows, w.cols) == ((1, 2, 3), (1, 4, 6))
        w6 = find_3x3_hadamard_submatrix(F6)
        assert w6 is not None and (w6.rows, w6.cols) == ((1, 2, 3), (1, 3, 5))
        assert find_3x3_hadamard_submatrix(H1) is None

    @pytest.mark.parametrize(
        "m, rows, cols",
        [(S60, (1, 2, 3), (2, 3, 5)), (F6, (1, 3, 5), (1, 3, 5))],
    )
    def test_known_3x3_blocks_are_valid(self, m, rows, cols):
        # Other valid blocks exist besides the scan's first hit; spot
        # check two of them directly.
        for a, b in itertools.combinations(rows, 2):
            terms = [m[a - 1][c - 1] * m[b - 1][c - 1].conj() for c in cols]
            assert unit_sum(terms).is_zero()

    def test_witness_submatrix_is_orthogonal(self):
        w = find_3x3_hadamard_submatrix(S60)
        for a, b in itertools.combinations(w.rows, 2):
            terms = [S60[a - 1][c - 1] * S60[b - 1][c - 1].conj() for c in w.cols]
            assert unit_sum(terms).is_zero()

    def test_pattern_pins(self):
        w = find_pattern_1oo2(S60)
        assert w is not None and w.rows == (1, 2)
        assert find_pattern_1oo2(H1) is None
        # The Fourier matrix hides one flat/doubled pair: row 3 has each
        # cube root twice, so rows {1,3} match.
        w6 = find_pattern_1oo2(F6)
        assert w6 is not None and w6.rows == (1, 3)

    def test_pattern_transposed_orientation(self):
        w = find_pattern_1oo2(S61)
        assert w is not None and w.cols == (1, 2) and w.rows == (1, 2, 3, 4, 5, 6)

    def test_pattern_requires_exact(self):
        with pytest.raises(ValueError):
            find_pattern_1oo2(as_float(S60))

    def test_scans_agree_with_reversed_rescan(self):
        # Independent second implementation: same predicates, reversed
        # iteration order; presence/absence must agree everywhere.
        def rank1_reversed(m):
            for i, j in reversed(list(itertools.combinations(range(6), 2))):
                for cols in reversed(list(itertools.combinations(range(6), 3))):
                    r = [m[i][c] * m[j][c].conj() for c in cols]
                    if r[0] == r[1] == r[2]:
                        return True
            return False

        def had3_reversed(m):
            for rows in reversed(list(itertools.combinations(range(6), 3))):
                for cols in reversed(list(itertools.combinations(range(6), 3))):
                    if all(
                        unit_sum(
                            [m[a][c] * m[b][c].conj() for c in cols]
                        ).is_zero()
                        for a, b in itertools.combinations(rows, 2)
                    ):
                        return True
            return False

        rng = random.Random(23)
        mats = [S60, S61, H1, F6, HAB]
        mats += [random_monomial_image(m, rng) for m in mats]
        for m in mats:
            assert (find_rank1_2x3(m) is not None) == rank1_reversed(m)
            assert (find_3x3_hadamard_submatrix(m) is not None) == had3_reversed(m)


class TestH2:
    def test_h1_certificate(self):
        cert = h2_reducible(H1)
        assert cert is not None
        assert cert.verify(H1)

    def test_s6_0_has_no_certificate(self):
        assert h2_reducible(S60) is None
        assert h2_reducible(S61) is None

    def test_two_parameter_family_certificate(self):
        cert = h2_reducible(HAB)
        assert cert is not None
        assert cert.row_pairs == ((1, 2), (3, 4), (5, 6))
        assert cert.col_pairs == ((1, 4), (2, 5), (3, 6))
        assert cert.verify(HAB)

    def test_certificate_survives_phases_not_pairings(self):
        # Scaling a row leaves block orthogonality intact.
        scaled = Matrix6(
            [tuple(root_of_unity(1, 5) * v for v in H1[0])] + list(H1.rows[1:])
        )
        assert h2_reducible(scaled) is not None

    def test_float_mode_certificate(self):
        cert = h2_reducible(as_float(H1))
        assert cert is not None and cert.verify(as_float(H1))

    def test_exponent_scans_match_float_scans(self):
        # Exact matrices decide rank one and the H2 blocks on exponents,
        # float matrices on their entries; both must find the same spot.
        rng = random.Random(31)
        mats = [S60, S61, H1, F6, HAB]
        mats += [random_monomial_image(m, rng) for m in mats for _ in range(2)]
        certified = 0
        for m in mats:
            f = as_float(m)
            assert find_rank1_2x3(m) == find_rank1_2x3(f)
            cert, fcert = h2_reducible(m), h2_reducible(f)
            assert (cert is None) == (fcert is None)
            if cert is not None:
                certified += 1
                assert (cert.row_pairs, cert.col_pairs) == (fcert.row_pairs, fcert.col_pairs)
        assert certified == 9


class TestMub:
    def test_verdicts(self):
        assert mub_obstruction(S60) == "ExcludedBy3x3"
        assert mub_obstruction(F6) == "ExcludedBy3x3"
        assert mub_obstruction(H1) == "NoVerdict"


@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
@settings(max_examples=30, deadline=None)
def test_scaling_preserves_hadamard(p, q):
    s = root_of_unity(p, 24) * root_of_unity(q, 24).conj()
    assert is_chm(scale_matrix(S60, s))
    assert is_chm(scale_matrix(H1, s))
