"""Equivalence of order-6 Hadamard matrices, with checkable certificates.

Two matrices are equivalent when one is P*A*Q for monomial unitaries P
and Q (permutation equivalence restricts the phases to 1). The search
here exploits a dephasing identity (the normal form of Tadej and
Zyczkowski, "A concise guide to complex Hadamard matrices", 2006): if
B = P*A*Q, then the dephased form of B equals, up to row and column
permutations, the matrix obtained from A by anchoring the dephasing at
the cell (r, c) that P and Q send to the top-left corner. Scanning the
36 anchors with exact row and column matching is therefore a complete
decision procedure, and every hit rebuilds the explicit phases, giving
a certificate that re-verifies by direct multiplication.

Exact matrices are compared on integer exponents over the common order
N of both inputs: dephasing, matching, the phases and the certificate
check are integer sums and comparisons mod N, and only the
certificate's phases become ``UnitValue``. Float matrices run the same
search on their entries, within tolerance, and give advisory
certificates.

A cheap monomial invariant (the multiset of closed quadruple products)
refutes most inequivalent pairs before any search runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactnum import ONE, UnitValue
from .matrices import Matrix6, _unit, apply_monomial, is_chm


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
    if m.mode == "exact":
        return Matrix6.from_exponents(
            m.order, _dephased_grid(m.order, m.exponents, r, c)
        )
    return Matrix6(_dephased_entries(m.rows, r, c))


def _dephased_grid(order: int, e, r: int, c: int) -> tuple:
    """Exponents of the dephasing of ``e`` anchored at (r, c):
    e[i][j] - e[i][c] - e[r][j] + e[r][c] mod order."""
    top = [x - e[r][c] for x in e[r]]
    return tuple(
        tuple((x - row[c] - t) % order for x, t in zip(row, top)) for row in e
    )


def _dephased_entries(rows, r: int, c: int) -> tuple:
    """The float counterpart of :func:`_dephased_grid`, on entries."""
    anchor = rows[r][c]
    return tuple(
        tuple(
            rows[i][j] * rows[i][c].conj() * rows[r][j].conj() * anchor
            for j in range(6)
        )
        for i in range(6)
    )


_PAIRS = tuple(itertools.combinations(range(6), 2))
_PAIR_FIRST, _PAIR_SECOND = (np.array(x) for x in zip(*_PAIRS))


def _quadruple_keys(order: int, e) -> list:
    """Sorted exponents of the quadruple products, each folded with its
    conjugate to min(q, order - q); see :func:`fingerprint`."""
    e = np.array(e, dtype=np.int64)
    first, second = _PAIR_FIRST, _PAIR_SECOND
    rows_a, rows_b = first[:, None], second[:, None]
    q = (
        e[rows_a, first] + e[rows_b, second] - e[rows_a, second] - e[rows_b, first]
    ) % order
    return np.sort(np.minimum(q, order - q), axis=None).tolist()


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
        keys = _quadruple_keys(m.order, m.exponents)
        turns = {x: Fraction(x, m.order) for x in set(keys)}
        return tuple(turns[x] for x in keys)
    keys = []
    for i, k in _PAIRS:
        for j, l in _PAIRS:
            z = (m[i][j] * m[k][l] * m[i][l].conj() * m[k][j].conj()).as_complex()
            keys.append((round(z.real, 6), round(abs(z.imag), 6)))
    return tuple(sorted(keys))


def _lifted(m: Matrix6, order: int) -> tuple:
    """The exponents of m over ``order``, a multiple of m's order."""
    step = order // m.order
    if step == 1:
        return m.exponents
    return tuple(tuple(step * x for x in row) for row in m.exponents)


def _column_matchings(same, target, source, fix0=None):
    """All bijections tau with same(source[tau[j]], target[j]).

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
            if same(source[p], target[j]):
                tau.append(p)
                used.add(p)
                yield from extend(j + 1, tau, used)
                tau.pop()
                used.remove(p)

    yield from extend(0, [], set())


def _match_rows(same, a, b, tau, row_perm: list) -> Optional[list]:
    """Extend ``row_perm`` so that row row_perm[i] of ``a``, its columns
    taken in the order ``tau``, matches row i of ``b``. Each row takes
    the first unused match; None when some row has none."""
    used = set(row_perm)
    for i in range(len(row_perm), 6):
        target = b[i]
        hit = next(
            (
                u
                for u in range(6)
                if u not in used
                and all(same(a[u][t], x) for t, x in zip(tau, target))
            ),
            None,
        )
        if hit is None:
            return None
        row_perm.append(hit)
        used.add(hit)
    return row_perm


def _dephased_matchings(same, a, b, dephased):
    """(r, c, row_perm, col_perm) for every permutation pair that sends
    the dephasing of ``a`` anchored at (r, c) onto the corner dephasing
    of ``b``, anchors in row-major order.

    b's dephased row 0 is all ones and matches a's dephased row r by
    construction, and the anchor forces the column bijection to send
    position 0 to column c. Every candidate image of b's dephased row 1
    is tried, the consistent column bijections enumerated, and the
    remaining rows looked up directly; repeated values make the
    bijection count small.
    """
    b_deph = dephased(b, 0, 0)
    for r in range(6):
        for c in range(6):
            a_deph = dephased(a, r, c)
            for u1 in sorted(set(range(6)) - {r}):
                for tau in _column_matchings(same, b_deph[1], a_deph[u1], fix0=c):
                    row_perm = _match_rows(same, a_deph, b_deph, tau, [r, u1])
                    if row_perm is not None:
                        yield r, c, tuple(row_perm), tau


def complex_equivalent(
    a: Matrix6, b: Matrix6
) -> Optional[EquivalenceCertificate]:
    """Certificate that b = P*a*Q for monomial unitaries, or None.

    Exact inputs give exact certificates and a definitive None;
    float inputs are handled with tolerance and flagged advisory.
    """
    if a.mode != b.mode:
        raise ValueError("cannot compare exact and float matrices")
    if not (is_chm(a) and is_chm(b)):
        raise ValueError("complex_equivalent requires Hadamard inputs")
    if a.mode == "float":
        return _float_equivalent(a, b)
    order = math.lcm(a.order, b.order)
    ea, eb = _lifted(a, order), _lifted(b, order)
    if _quadruple_keys(order, ea) != _quadruple_keys(order, eb):
        return None

    def dephased(e, r, c):
        return _dephased_grid(order, e, r, c)

    for r, c, row_perm, col_perm in _dephased_matchings(operator.eq, ea, eb, dephased):
        corner = ea[r][c] - eb[0][0]
        cert = EquivalenceCertificate(
            row_perm=row_perm,
            row_phases=tuple(
                _unit((eb[i][0] - ea[u][c] + corner) % order, order)
                for i, u in enumerate(row_perm)
            ),
            col_perm=col_perm,
            col_phases=tuple(
                _unit((eb[0][j] - ea[r][u]) % order, order)
                for j, u in enumerate(col_perm)
            ),
        )
        if cert.verify(a, b):
            return cert
    return None


def _float_equivalent(a: Matrix6, b: Matrix6) -> Optional[EquivalenceCertificate]:
    """:func:`complex_equivalent` on float matrices, within tolerance."""
    a_rows, b_rows = a.rows, b.rows
    for r, c, row_perm, col_perm in _dephased_matchings(
        UnitValue.isclose, a_rows, b_rows, _dephased_entries
    ):
        cert = EquivalenceCertificate(
            row_perm=row_perm,
            row_phases=tuple(
                a_rows[u][c].conj() * b_rows[i][0] * a_rows[r][c] * b_rows[0][0].conj()
                for i, u in enumerate(row_perm)
            ),
            col_perm=col_perm,
            col_phases=tuple(
                a_rows[r][u].conj() * b_rows[0][j] for j, u in enumerate(col_perm)
            ),
            advisory=True,
        )
        if cert.verify(a, b):
            return cert
    return None


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
    e = np.array(m.exponents, dtype=np.int64)
    form = canonical_exponents(dephased_exponents(m.order, e[None]))[0]
    return Matrix6.from_exponents(m.order, form)


def permutation_equivalent(
    a: Matrix6, b: Matrix6
) -> Optional[EquivalenceCertificate]:
    """Certificate with identity phases such that b = P*a*Q, or None.

    Rows can only map to rows with identical value multisets, which
    prunes the search to almost nothing on structured matrices.
    """
    if a.mode != "exact" or b.mode != "exact":
        raise ValueError("permutation_equivalent requires exact matrices")
    order = math.lcm(a.order, b.order)
    ea, eb = _lifted(a, order), _lifted(b, order)
    a_keys = [sorted(row) for row in ea]
    b_keys = [sorted(row) for row in eb]
    if sorted(a_keys) != sorted(b_keys):
        return None

    ones = (ONE,) * 6
    for u0 in range(6):
        if a_keys[u0] != b_keys[0]:
            continue
        for tau in _column_matchings(operator.eq, eb[0], ea[u0]):
            row_perm = _match_rows(operator.eq, ea, eb, tau, [u0])
            if row_perm is None:
                continue
            cert = EquivalenceCertificate(
                row_perm=tuple(row_perm),
                row_phases=ones,
                col_perm=tau,
                col_phases=ones,
            )
            if cert.verify(a, b):
                return cert
    return None
