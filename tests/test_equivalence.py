"""Equivalence machinery: dephasing, fingerprints, certificates."""

import itertools
import random

import pytest

from chmkit import equivalence
from chmkit.census import Alphabet, enumerate_chms
from chmkit.equivalence import (
    EquivalenceCertificate,
    _anchored_dephase,
    complex_equivalent,
    dephase,
    fingerprint,
    permutation_equivalent,
    sorted_canonical_form,
)
from chmkit.exactnum import ONE, OMEGA, UnitValue, root_of_unity
from chmkit.matrices import CATALOG_NAMES, Matrix6, apply_monomial, catalog, is_chm


def random_monomial_image(m, rng):
    row_perm = list(range(6))
    col_perm = list(range(6))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    row_phases = [root_of_unity(rng.randrange(24), 24) for _ in range(6)]
    col_phases = [root_of_unity(rng.randrange(24), 24) for _ in range(6)]
    return apply_monomial(m, row_perm, row_phases, col_perm, col_phases)


def as_float(m):
    return Matrix6(
        [[UnitValue(None, re=v.as_complex().real, im=v.as_complex().imag) for v in row] for row in m.rows]
    )


S60 = catalog("S6_0")
S61 = catalog("S6_1")
H1 = catalog("H1")
F6 = catalog("F6")
HAB = catalog("HAB", alpha=root_of_unity(1, 5), beta=root_of_unity(1, 7))


# --- the Fraction route the exponent search replaced, kept as reference ----


def reference_fingerprint(m):
    """Quadruple products taken on UnitValue entries, folded with their
    conjugates, as turns."""
    keys = []
    for i, k in itertools.combinations(range(6), 2):
        for j, l in itertools.combinations(range(6), 2):
            q = m[i][j] * m[k][l] * m[i][l].conj() * m[k][j].conj()
            keys.append(min(q.turn, (1 - q.turn) % 1))
    return tuple(sorted(keys))


def reference_complex_equivalent(a, b):
    """Exact complex equivalence on UnitValue entries: anchored dephasing,
    row and column matching and the certificate phases all multiply
    Fraction turns."""
    if reference_fingerprint(a) != reference_fingerprint(b):
        return None
    a_rows, b_rows = a.rows, b.rows

    def dephased(rows, r, c):
        return [
            [rows[i][j] * rows[i][c].conj() * rows[r][j].conj() * rows[r][c] for j in range(6)]
            for i in range(6)
        ]

    def matchings(target, source, fix0):
        def extend(j, tau, used):
            if j == 6:
                yield tuple(tau)
                return
            for p in [fix0] if j == 0 else [p for p in range(6) if p not in used]:
                if source[p] == target[j]:
                    yield from extend(j + 1, tau + [p], used | {p})

        yield from extend(0, [], set())

    b_deph = dephased(b_rows, 0, 0)
    for r in range(6):
        for c in range(6):
            a_deph = dephased(a_rows, r, c)
            for u1 in sorted(set(range(6)) - {r}):
                for tau in matchings(b_deph[1], a_deph[u1], c):
                    row_perm = [r, u1]
                    for i in range(2, 6):
                        hits = [
                            u for u in range(6)
                            if u not in row_perm
                            and all(a_deph[u][tau[j]] == b_deph[i][j] for j in range(6))
                        ]
                        if not hits:
                            break
                        row_perm.append(hits[0])
                    else:
                        row_phases = tuple(
                            a_rows[row_perm[i]][c].conj() * b_rows[i][0] * a_rows[r][c]
                            * b_rows[0][0].conj()
                            for i in range(6)
                        )
                        col_phases = tuple(
                            a_rows[r][tau[j]].conj() * b_rows[0][j] for j in range(6)
                        )
                        image = [
                            [row_phases[i] * col_phases[j] * a_rows[row_perm[i]][tau[j]]
                             for j in range(6)]
                            for i in range(6)
                        ]
                        if image == [list(row) for row in b_rows]:
                            return (tuple(row_perm), row_phases, tau, col_phases)
    return None


def certificate_fields(cert):
    if cert is None:
        return None
    assert not cert.advisory
    return (cert.row_perm, cert.row_phases, cert.col_perm, cert.col_phases)


def census_class_forms():
    """The distinct sorted canonical forms of the five benchmark census
    alphabets that have matrices: {1,-1,i}, {1,i,-i}, {1,w,w2}, {1,-1,-i}
    and {1,e(1/6),w,-1}."""
    forms = []
    for exps in ((0, 3, 6), (0, 3, 9), (0, 4, 8), (0, 6, 9), (0, 2, 4, 6)):
        report = enumerate_chms(Alphabet.of([root_of_unity(e, 12) for e in exps]))
        assert report.raw_count > 0
        forms += sorted(
            {sorted_canonical_form(m) for m in report.matrices},
            key=lambda m: [v.turn for row in m.rows for v in row],
        )
    return forms


class TestCertificateIdentity:
    """The exponent route gives the certificate the Fraction route gave:
    the same permutations, the same UnitValue phases, or None for both."""

    def test_census_class_forms_against_the_catalog(self):
        forms = census_class_forms()
        assert len(forms) == 11
        hits = 0
        for form in forms:
            for target in (S60, H1):
                want = reference_complex_equivalent(form, target)
                assert certificate_fields(complex_equivalent(form, target)) == want
                hits += want is not None
        assert hits == len(forms)

    @pytest.mark.parametrize("name", ["S6_0", "S6_1", "H1", "F6", "HAB"])
    def test_random_monomial_images(self, name):
        m = HAB if name == "HAB" else catalog(name)
        rng = random.Random(sum(map(ord, name)))
        for _ in range(3):
            image = random_monomial_image(m, rng)
            for a, b in ((m, image), (image, m), (image, S60), (H1, image)):
                want = reference_complex_equivalent(a, b)
                assert certificate_fields(complex_equivalent(a, b)) == want


class TestDephase:
    def test_first_line_flat(self):
        for m in (S60, S61, H1, F6):
            d = dephase(m)
            assert all(d[0][j] == ONE for j in range(6))
            assert all(d[i][0] == ONE for i in range(6))
            assert is_chm(d)

    def test_idempotent(self):
        d = dephase(H1)
        assert dephase(d) == d

    def test_rejects_non_hadamard(self):
        flat = Matrix6([[ONE] * 6 for _ in range(6)])
        with pytest.raises(ValueError):
            dephase(flat)

    def test_stays_in_class(self):
        assert complex_equivalent(dephase(H1), H1) is not None

    def test_is_the_corner_anchored_dephase(self):
        rng = random.Random(9)
        for name in CATALOG_NAMES:
            m = catalog(name)
            for image in (m, random_monomial_image(m, rng)):
                assert dephase(image) == _anchored_dephase(image, 0, 0)


class TestFingerprint:
    def test_monomial_invariance(self):
        rng = random.Random(7)
        for m in (S60, H1):
            fp = fingerprint(m)
            for _ in range(5):
                assert fingerprint(random_monomial_image(m, rng)) == fp

    def test_separates_the_two_classes(self):
        assert fingerprint(S60) != fingerprint(H1)

    def test_sign_twist_is_invisible(self):
        # S6_1 is S6_0 with half its columns negated, a monomial move.
        assert fingerprint(S61) == fingerprint(S60)

    def test_exact_matches_unit_value_products(self):
        rng = random.Random(5)
        for m in (S60, S61, H1, F6):
            for image in (m, random_monomial_image(m, rng)):
                assert fingerprint(image) == reference_fingerprint(image)


class TestComplexEquivalent:
    @pytest.mark.parametrize("name", ["S6_0", "S6_1", "H1", "F6"])
    def test_self_equivalence(self, name):
        m = catalog(name)
        cert = complex_equivalent(m, m)
        assert cert is not None and not cert.advisory
        assert cert.verify(m, m)

    def test_random_images_certify(self):
        rng = random.Random(21)
        for m in (S60, H1, F6):
            for _ in range(4):
                image = random_monomial_image(m, rng)
                cert = complex_equivalent(m, image)
                assert cert is not None
                assert cert.verify(m, image)

    def test_sign_twisted_catalog_pair(self):
        cert = complex_equivalent(S61, S60)
        assert cert is not None
        assert cert.verify(S61, S60)

    def test_distinct_classes_refuted(self):
        assert complex_equivalent(S60, H1) is None
        assert complex_equivalent(F6, H1) is None

    def test_checks_each_input_once(self, monkeypatch):
        calls = []

        def counting_is_chm(m):
            calls.append(m)
            return is_chm(m)

        monkeypatch.setattr(equivalence, "is_chm", counting_is_chm)
        image = random_monomial_image(S60, random.Random(17))
        for a, b, found in ((S60, image, True), (S60, H1, False)):
            calls.clear()
            assert (complex_equivalent(a, b) is not None) == found
            assert calls == [a, b]

    def test_mode_mixing_rejected(self):
        with pytest.raises(ValueError):
            complex_equivalent(S60, as_float(S60))

    def test_requires_hadamard(self):
        flat = Matrix6([[ONE] * 6 for _ in range(6)])
        with pytest.raises(ValueError):
            complex_equivalent(flat, S60)

    def test_float_path_is_advisory(self):
        rng = random.Random(4)
        a = as_float(S60)
        b = as_float(random_monomial_image(S60, rng))
        cert = complex_equivalent(a, b)
        assert cert is not None and cert.advisory
        assert cert.verify(a, b)

    def test_tampered_certificate_fails(self):
        cert = complex_equivalent(S60, S61)
        bad = EquivalenceCertificate(
            row_perm=cert.row_perm,
            row_phases=(-cert.row_phases[0],) + cert.row_phases[1:],
            col_perm=cert.col_perm,
            col_phases=cert.col_phases,
        )
        assert not bad.verify(S60, S61)


class TestPermutationEquivalent:
    def test_transpose_of_symmetric_catalog(self):
        cert = permutation_equivalent(H1, H1.transpose())
        assert cert is not None
        assert cert.verify(H1, H1.transpose())
        assert all(p == ONE for p in cert.row_phases + cert.col_phases)

    def test_pure_permutations_found(self):
        rng = random.Random(13)
        ident = (ONE,) * 6
        for _ in range(5):
            rp = list(range(6))
            cp = list(range(6))
            rng.shuffle(rp)
            rng.shuffle(cp)
            image = apply_monomial(S60, rp, ident, cp, ident)
            cert = permutation_equivalent(S60, image)
            assert cert is not None and cert.verify(S60, image)

    def test_phase_twist_breaks_it(self):
        phases = (OMEGA,) + (ONE,) * 5
        twisted = apply_monomial(S60, range(6), phases, range(6), (ONE,) * 6)
        assert permutation_equivalent(S60, twisted) is None
        assert complex_equivalent(S60, twisted) is not None

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            permutation_equivalent(as_float(S60), as_float(S60))


class TestSortedCanonicalForm:
    def test_deterministic_and_in_class(self):
        form = sorted_canonical_form(S60)
        assert form == sorted_canonical_form(S60)
        assert is_chm(form)
        assert complex_equivalent(form, S60) is not None

    def test_conservative_on_permuted_images(self):
        # The form is a grouping key: equal forms prove equivalence, but
        # permuted images may land on different forms (anchoring moves).
        # Every form must still sit inside the class of its input.
        rng = random.Random(3)
        ident = (ONE,) * 6
        for _ in range(5):
            rp = list(range(6))
            cp = list(range(6))
            rng.shuffle(rp)
            rng.shuffle(cp)
            image = apply_monomial(H1, rp, ident, cp, ident)
            form = sorted_canonical_form(image)
            assert complex_equivalent(form, H1) is not None

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            sorted_canonical_form(as_float(H1))
