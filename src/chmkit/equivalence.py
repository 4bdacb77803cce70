"""Equivalence of order-6 Hadamard matrices, with checkable certificates.

Two matrices are equivalent when one is P*A*Q for monomial unitaries P
and Q (permutation equivalence restricts the phases to 1). The search
here exploits a dephasing identity: if B = P*A*Q, then the dephased
form of B equals, up to row and column permutations, the matrix
obtained from A by anchoring the dephasing at the cell (r, c) that P
and Q send to the top-left corner. Scanning the 36 anchors with exact
row and column matching is therefore a complete decision procedure, and
every hit rebuilds the explicit phases, giving a certificate that
re-verifies by direct multiplication.

A cheap monomial invariant (the multiset of closed quadruple products)
refutes most inequivalent pairs before any search runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exactnum import UnitValue
from .matrices import Matrix6, apply_monomial, is_chm


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Monomial data transforming A into B, 0-based.

    B[i][j] = row_phases[i] * col_phases[j] * A[row_perm[i]][col_perm[j]].
    ``advisory`` is set for float-mode inputs, where equality is only
    within tolerance and the certificate is not exact evidence.
    """

    row_perm: tuple
    row_phases: tuple
    col_perm: tuple
    col_phases: tuple
    advisory: bool = False

    def verify(self, a: Matrix6, b: Matrix6) -> bool:
        image = apply_monomial(
            a, self.row_perm, self.row_phases, self.col_perm, self.col_phases
        )
        if self.advisory:
            return all(
                image[i][j].isclose(b[i][j]) for i in range(6) for j in range(6)
            )
        return image == b


def dephase(m: Matrix6) -> Matrix6:
    """Equivalent form with all-ones first row and first column.

    Row i is scaled by conj(m[i][0]) and column j by conj(m[0][j]),
    with m[0][0] restored once so the transform is monomial.
    """
    if not is_chm(m):
        raise ValueError("dephase requires a Hadamard matrix")
    return _anchored_dephase(m, 0, 0)


def _anchored_dephase(m: Matrix6, r: int, c: int) -> Matrix6:
    """Dephasing normalized at cell (r, c) instead of the corner."""
    anchor = m[r][c]
    return Matrix6(
        tuple(
            m[i][j] * m[i][c].conj() * m[r][j].conj() * anchor for j in range(6)
        )
        for i in range(6)
    )


_PAIRS = tuple(itertools.combinations(range(6), 2))


def fingerprint(m: Matrix6) -> tuple:
    """Multiset of canonical quadruple products over all row/column pairs.

    The product m[i][j] * m[k][l] * conj(m[i][l]) * conj(m[k][j]) is
    unchanged by row and column phases; permutations only shuffle the
    multiset and conjugate individual values, so the sorted tuple of
    conjugation-free keys is a monomial-equivalence invariant. Exact
    matrices compute it on exponents; float matrices produce a rounded,
    advisory-only fingerprint.
    """
    if m.mode == "exact":
        order, e = exponent_form(m)
        first, second = (np.array(x) for x in zip(*_PAIRS))
        rows_a, rows_b = first[:, None], second[:, None]
        q = (
            e[rows_a, first] + e[rows_b, second] - e[rows_a, second] - e[rows_b, first]
        ) % order
        keys = np.sort(np.minimum(q, order - q), axis=None).tolist()
        turns = {x: Fraction(x, order) for x in set(keys)}
        return tuple(turns[x] for x in keys)
    keys = []
    for i, k in _PAIRS:
        for j, l in _PAIRS:
            z = (m[i][j] * m[k][l] * m[i][l].conj() * m[k][j].conj()).as_complex()
            keys.append((round(z.real, 6), round(abs(z.imag), 6)))
    return tuple(sorted(keys))


def _entries_match(mode: str, a: UnitValue, b: UnitValue) -> bool:
    return a == b if mode == "exact" else a.isclose(b)


def _column_matchings(mode: str, target: Sequence, source: Sequence, fix0=None):
    """All bijections tau with source[tau[j]] == target[j].

    ``fix0`` pins tau[0] to a given position (the dephasing anchor).
    """

    def extend(j: int, tau: list, used: set):
        if j == 6:
            yield tuple(tau)
            return
        choices = (
            [fix0]
            if j == 0 and fix0 is not None
            else [p for p in range(6) if p not in used]
        )
        for p in choices:
            if _entries_match(mode, source[p], target[j]):
                tau.append(p)
                used.add(p)
                yield from extend(j + 1, tau, used)
                tau.pop()
                used.remove(p)

    yield from extend(0, [], set())


def complex_equivalent(
    a: Matrix6, b: Matrix6
) -> Optional[EquivalenceCertificate]:
    """Certificate that b = P*a*Q for monomial unitaries, or None.

    Exact inputs give exact certificates and a definitive None;
    float inputs are handled with tolerance and flagged advisory.
    """
    if a.mode != b.mode:
        raise ValueError("cannot compare exact and float matrices")
    mode = a.mode
    if not (is_chm(a) and is_chm(b)):
        raise ValueError("complex_equivalent requires Hadamard inputs")
    if mode == "exact" and fingerprint(a) != fingerprint(b):
        return None

    b_deph = _anchored_dephase(b, 0, 0)
    for r in range(6):
        for c in range(6):
            a_deph = _anchored_dephase(a, r, c)
            cert = _match_dephased(mode, a, b, a_deph, b_deph, r, c)
            if cert is not None:
                if not cert.verify(a, b):
                    raise AssertionError(
                        "equivalence certificate failed re-verification"
                    )
                return cert
    return None


def _match_dephased(mode, a, b, a_deph, b_deph, r, c):
    # b_deph row 0 is all ones and matches a_deph row r by construction,
    # and the anchor forces the column bijection to send position 0 to
    # column c. Try every candidate image for b_deph row 1, enumerate
    # the consistent column bijections, then look the remaining rows up
    # directly; repeated values make the bijection count small.
    for u1 in sorted(set(range(6)) - {r}):
        for tau in _column_matchings(mode, b_deph[1], a_deph[u1], fix0=c):
            row_perm = [r, u1]
            used = {r, u1}
            ok = True
            for i in range(2, 6):
                target = tuple(b_deph[i][j] for j in range(6))
                hits = [
                    u
                    for u in range(6)
                    if u not in used
                    and all(
                        _entries_match(mode, a_deph[u][tau[j]], target[j])
                        for j in range(6)
                    )
                ]
                if not hits:
                    ok = False
                    break
                row_perm.append(hits[0])
                used.add(hits[0])
            if not ok:
                continue
            col_perm = list(tau)
            row_phases = tuple(
                a[row_perm[i]][c].conj()
                * b[i][0]
                * a[r][c]
                * b[0][0].conj()
                for i in range(6)
            )
            col_phases = tuple(
                a[r][col_perm[j]].conj() * b[0][j] for j in range(6)
            )
            cert = EquivalenceCertificate(
                row_perm=tuple(row_perm),
                row_phases=row_phases,
                col_perm=tuple(col_perm),
                col_phases=col_phases,
                advisory=(mode == "float"),
            )
            if cert.verify(a, b):
                return cert
    return None


def exponent_form(m: Matrix6) -> tuple:
    """(N, e) with m[i][j] = e(e[i][j] / N) and N the entries' common order."""
    order = math.lcm(*(v.turn.denominator for row in m.rows for v in row))
    e = np.array(
        [[int(v.turn * order) for v in row] for row in m.rows], dtype=np.int64
    )
    return order, e


def exponent_matrix(order: int, e) -> Matrix6:
    """The exact matrix with entries e(e[i][j] / order)."""
    return Matrix6(
        tuple(UnitValue(Fraction(int(x), order)) for x in row) for row in e
    )


def dephased_exponents(order: int, e: np.ndarray) -> np.ndarray:
    """Batched :func:`dephase` on exponents: e[i][j] - e[i][0] - e[0][j]
    + e[0][0] mod order for each matrix of ``e``, shape (M, 6, 6)."""
    return (e - e[:, :, :1] - e[:, :1, :] + e[:, :1, :1]) % order


def canonical_exponents(d: np.ndarray) -> np.ndarray:
    """Sorted canonical forms of a batch of dephased exponent matrices.

    ``d`` has shape (M, 6, 6) and holds the exponents of dephased
    matrices over one common order. Columns and rows are sorted
    alternately by exponent tuples, which order exactly as the entries'
    turn tuples do, until no matrix changes or a bound of twelve passes
    (to dodge sort oscillation). A pass leaves a matrix that is already
    sorted unchanged, so each matrix gets the form it would get alone.
    """
    # A line packs into one int64, its code, with one bit field per
    # entry holding the rank of its exponent among those that occur. A
    # dephased matrix has at most 25 distinct entries and a census batch
    # at most k**4 <= 256, so six fields fit, and codes order as the
    # exponent tuples do.
    values, ranks = np.unique(d, return_inverse=True)
    width = max(1, (len(values) - 1).bit_length())
    shift = width * np.arange(5, -1, -1, dtype=np.int64)
    field = (1 << width) - 1

    def crossed(codes):
        """Codes of the lines across the ones that ``codes`` packs."""
        return np.einsum("mij,i->mj", codes[:, :, None] >> shift & field, 1 << shift)

    rows = ranks.reshape(d.shape) @ (1 << shift)
    for _ in range(12):
        nxt = np.sort(crossed(np.sort(crossed(rows), axis=1)), axis=1)
        if np.array_equal(nxt, rows):
            break
        rows = nxt
    return values[rows[:, :, None] >> shift & field]


def sorted_canonical_form(m: Matrix6) -> Matrix6:
    """Deterministic equivalence-preserving normal form for grouping.

    Dephases, then alternately sorts columns and rows by their turn
    tuples until stable (see :func:`canonical_exponents`, which the
    census runs on whole batches). Every step is a permutation or a
    phase change, so the result is complex-equivalent to the input;
    equal outputs therefore prove equivalence. Unequal outputs prove
    nothing, this is a grouping key, not a complete invariant.
    """
    if m.mode != "exact":
        raise ValueError("sorted_canonical_form requires an exact matrix")
    if not is_chm(m):
        raise ValueError("sorted_canonical_form requires a Hadamard matrix")
    order, e = exponent_form(m)
    form = canonical_exponents(dephased_exponents(order, e[None]))[0]
    return exponent_matrix(order, form)


def permutation_equivalent(
    a: Matrix6, b: Matrix6
) -> Optional[EquivalenceCertificate]:
    """Certificate with identity phases such that b = P*a*Q, or None.

    Rows can only map to rows with identical value multisets, which
    prunes the search to almost nothing on structured matrices.
    """
    if a.mode != "exact" or b.mode != "exact":
        raise ValueError("permutation_equivalent requires exact matrices")
    ones = (UnitValue(0),) * 6

    def row_key(row):
        return tuple(sorted(v.turn for v in row))

    a_keys = [row_key(row) for row in a.rows]
    b_keys = [row_key(row) for row in b.rows]
    if sorted(a_keys) != sorted(b_keys):
        return None

    for u0 in range(6):
        if a_keys[u0] != b_keys[0]:
            continue
        for tau in _column_matchings("exact", b[0], a[u0]):
            row_perm = [u0]
            used = {u0}
            ok = True
            for i in range(1, 6):
                hits = [
                    u
                    for u in range(6)
                    if u not in used
                    and all(a[u][tau[j]] == b[i][j] for j in range(6))
                ]
                if not hits:
                    ok = False
                    break
                row_perm.append(hits[0])
                used.add(hits[0])
            if not ok:
                continue
            cert = EquivalenceCertificate(
                row_perm=tuple(row_perm),
                row_phases=ones,
                col_perm=tuple(tau),
                col_phases=ones,
            )
            if cert.verify(a, b):
                return cert
    return None
