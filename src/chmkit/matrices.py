"""Order-6 matrices with unit-modulus entries and their structural scans.

The central type is :class:`Matrix6`, an immutable 6x6 matrix of
unimodular entries, all exact or all float. An exact matrix is its
entries' common order N and a 6x6 grid of integer exponents in
range(N), entry (i, j) being e(exponent / N): products are sums of
exponents and conjugates are negations, so the exact paths (the
Hadamard predicate, monomial images, dephasing and the equivalence
search) run on integers. Its :class:`~chmkit.exactnum.UnitValue`
entries are built only when asked for. A float matrix holds its
``UnitValue`` entries and stays an advisory path.

On top of it live the Hadamard predicate, scans for the structural
features that drive the classification machinery (rank-one 2x3 slices,
3x3 Hadamard submatrices, the one-flat-row pattern), block-reducibility
certification, and a small built-in catalog of named matrices.

Rows and columns are 0-based internally; everything user-facing
(witnesses, certificates, reports) is 1-based.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Literal, Optional, Sequence

import numpy as np

from .exactnum import (
    I_UNIT,
    MINUS_ONE,
    OMEGA,
    OMEGA2,
    ONE,
    TOL,
    UnitValue,
    _reduction_words,
    _vanishing,
    root_of_unity,
    unit_sum,
)

EXCLUDED_BY_3X3 = "ExcludedBy3x3"
NO_VERDICT = "NoVerdict"

_PATTERN_MULTISET = (ONE, ONE, OMEGA, OMEGA, OMEGA2, OMEGA2)


def _exponent(v: UnitValue, order: int) -> int:
    """x with v = e(x / order), for an order that v's order divides."""
    return v.turn.numerator * (order // v.turn.denominator)


@lru_cache(maxsize=1 << 14)
def _unit(x: int, order: int) -> UnitValue:
    """e(x / order), one shared instance per argument pair."""
    return UnitValue(Fraction(x, order))


class Matrix6:
    """Immutable 6x6 matrix of unimodular entries, exact or float mode.

    Mixing exact and float entries in one matrix is rejected: the two
    modes have different equality semantics and silently coercing one
    into the other would corrupt certificates.

    An exact matrix stores its order, reduced to the lcm of its entries'
    orders, and its exponents; equal entries therefore give equal
    matrices and equal hashes, whatever order they were built with.
    """

    __slots__ = ("_order", "_exps", "_entries")

    def __init__(self, rows: Iterable[Iterable[UnitValue]]):
        grid = tuple(map(tuple, rows))
        if list(map(len, grid)) != [6] * 6:
            raise ValueError("Matrix6 requires exactly 6 rows of 6 entries")
        flat = list(itertools.chain.from_iterable(grid))
        if not all(map(isinstance, flat, itertools.repeat(UnitValue))):
            raise TypeError("Matrix6 entries must be UnitValue instances")
        exact = len([v for v in flat if v.turn is not None])
        if exact not in (0, 36):
            raise ValueError("cannot mix exact and float entries in one matrix")
        order = exps = None
        if exact:
            order = math.lcm(*(v.turn.denominator for v in flat))
            exps = tuple(tuple(_exponent(v, order) for v in row) for row in grid)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_entries", grid)

    @classmethod
    def from_exponents(cls, order: int, exps) -> "Matrix6":
        """The exact matrix with entries e(exps[i][j] / order).

        Exponents are taken mod ``order``, and the order is reduced to
        the lcm of the entries' orders.
        """
        order = operator.index(order)
        if order < 1:
            raise ValueError("order must be a positive integer")
        grid = tuple(tuple(operator.index(x) % order for x in row) for row in exps)
        if list(map(len, grid)) != [6] * 6:
            raise ValueError("Matrix6 requires exactly 6 rows of 6 entries")
        step = math.gcd(order, *itertools.chain.from_iterable(grid))
        if step > 1:
            order //= step
            grid = tuple(tuple(x // step for x in row) for row in grid)
        return _exact(order, grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix6 is immutable")

    @property
    def mode(self) -> Literal["exact", "float"]:
        return "float" if self._order is None else "exact"

    @property
    def order(self) -> int:
        """The least N with every entry an N-th root of unity."""
        if self._order is None:
            raise ValueError("float-mode matrix has no exact order")
        return self._order

    @property
    def exponents(self) -> tuple:
        """Rows of exponents x in range(order), entry e(x / order)."""
        if self._order is None:
            raise ValueError("float-mode matrix has no exponents")
        return self._exps

    @property
    def rows(self) -> tuple:
        if self._entries is None:
            order = self._order
            entries = tuple(
                tuple(_unit(x, order) for x in row) for row in self._exps
            )
            object.__setattr__(self, "_entries", entries)
        return self._entries

    def __getitem__(self, i: int):
        return self.rows[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "Matrix6":
        if self._order is None:
            return Matrix6(zip(*self._entries))
        return _exact(self._order, tuple(zip(*self._exps)))

    def conj(self) -> "Matrix6":
        if self._order is None:
            return Matrix6(tuple(v.conj() for v in row) for row in self._entries)
        n = self._order
        return _exact(n, tuple(tuple(-x % n for x in row) for row in self._exps))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix6) or self._order != other._order:
            return False
        if self._order is None:
            return self._entries == other._entries
        return self._exps == other._exps

    def __hash__(self) -> int:
        if self._order is None:
            return hash(self._entries)
        return hash((self._order, self._exps))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v).rjust(8) for v in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"Matrix6(mode={self.mode})"


_set_order = Matrix6._order.__set__
_set_exps = Matrix6._exps.__set__
_set_entries = Matrix6._entries.__set__


def _exact(order: int, exps: tuple) -> Matrix6:
    """Trusted constructor: ``order`` reduced, ``exps`` six tuples of six
    ints in range(order). The census builds its matrices this way, from
    row tuples they share; the slot setters skip ``__setattr__``."""
    m = object.__new__(Matrix6)
    _set_order(m, order)
    _set_exps(m, exps)
    _set_entries(m, None)
    return m


@dataclass(frozen=True)
class ScanWitness:
    """Location of a structural feature, with 1-based sorted index sets."""

    kind: Literal["Rank1_2x3", "Hadamard3x3", "Pattern1oo2"]
    rows: tuple
    cols: tuple


@dataclass(frozen=True)
class H2Certificate:
    """Witness that a matrix is block-reducible to 2x2 Hadamard cells.

    ``row_pairs`` and ``col_pairs`` partition {1..6} into three pairs.
    ``block_phases[I][J]`` holds unimodular (a, u, v) such that the 2x2
    block at row pair I, column pair J equals
    ``[[a, a*u], [a*v, -a*u*v]]``, i.e. a monomially normalized 2x2
    Hadamard matrix. :meth:`verify` re-checks that shape from scratch.
    """

    row_pairs: tuple
    col_pairs: tuple
    block_phases: tuple

    def verify(self, m: "Matrix6") -> bool:
        for bi, (r1, r2) in enumerate(self.row_pairs):
            for bj, (c1, c2) in enumerate(self.col_pairs):
                a, u, v = self.block_phases[bi][bj]
                want = ((a, a * u), (a * v, -(a * u * v)))
                got = (
                    (m[r1 - 1][c1 - 1], m[r1 - 1][c2 - 1]),
                    (m[r2 - 1][c1 - 1], m[r2 - 1][c2 - 1]),
                )
                for wr, gr in zip(want, got):
                    for wv, gv in zip(wr, gr):
                        if m.mode == "exact":
                            if wv != gv:
                                return False
                        elif not wv.isclose(gv):
                            return False
        return True


def row_inner_product(m: Matrix6, i: int, j: int):
    """Hermitian inner product of rows i and j (1-based).

    Exact mode returns a :class:`CycSum`; float mode returns a complex
    number. The diagonal case is rejected because every use site wants
    a cross-row product and i == j is always a slipped index.
    """
    if i == j:
        raise ValueError("row_inner_product requires two distinct rows")
    r1, r2 = m[i - 1], m[j - 1]
    terms = [a * b.conj() for a, b in zip(r1, r2)]
    if m.mode == "exact":
        return unit_sum(terms)
    return sum(t.as_complex() for t in terms)


def _pair_orthogonal(m: Matrix6, i: int, j: int, cols: Sequence[int] = range(6)) -> bool:
    if m.mode == "exact":
        e = m.exponents
        diffs = np.array([e[i][c] - e[j][c] for c in cols])
        return bool(_vanishing(_reduction_words(m.order), diffs))
    terms = [m[i][c] * m[j][c].conj() for c in cols]
    return abs(sum(t.as_complex() for t in terms)) < TOL


_FIRST, _SECOND = (list(x) for x in zip(*itertools.combinations(range(6), 2)))


def _hadamard(words: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Batched ``is_chm`` on exponents: whether all 15 row pairs of each
    matrix of ``e``, shape (M, 6, 6), are orthogonal."""
    return _vanishing(words, e[:, _FIRST, :] - e[:, _SECOND, :]).all(axis=1)


def is_chm(m: Matrix6) -> bool:
    """True iff all 15 unordered row pairs are orthogonal.

    Unimodular entries plus row orthogonality already force
    M M* = 6 I, so column orthogonality never needs a separate pass.
    Exact matrices are decided on their exponents by the cyclotomic
    reduction words the census uses.
    """
    if m.mode == "exact":
        e = np.array(m.exponents, dtype=np.int64)
        return bool(_hadamard(_reduction_words(m.order), e[None])[0])
    return all(
        _pair_orthogonal(m, i, j) for i in range(6) for j in range(i + 1, 6)
    )


def distinct_elements(m: Matrix6) -> set:
    """Canonical set of distinct entries.

    Float mode clusters entries within the global tolerance and raises
    if two clusters approach each other (ambiguous rounding).
    """
    if m.mode == "exact":
        return {v for row in m.rows for v in row}
    reps: list[UnitValue] = []
    for row in m.rows:
        for v in row:
            if not any(v.isclose(r) for r in reps):
                reps.append(v)
    for a, b in itertools.combinations(reps, 2):
        if abs(a.as_complex() - b.as_complex()) < 10 * TOL:
            raise ValueError("float entry clusters are ambiguous at this tolerance")
    return set(reps)


def element_row_profile(m: Matrix6, v: UnitValue) -> list:
    """Multiplicity of v in each row, as a list indexed 0..5 for rows 1..6."""
    if m.mode != "exact":
        raise ValueError("element_row_profile requires an exact matrix")
    return [sum(1 for x in row if x == v) for row in m.rows]


def scale_matrix(m: Matrix6, s: UnitValue) -> Matrix6:
    """Pointwise product with a unimodular scalar; preserves is_chm."""
    return Matrix6(tuple(s * v for v in row) for row in m.rows)


def find_rank1_2x3(m: Matrix6) -> Optional[ScanWitness]:
    """First row pair and column triple whose 2x3 slice has rank one.

    The slice [x; y] is rank one iff the three ratios x_c / y_c agree,
    which for unimodular entries is the equality of the three products
    x_c * conj(y_c); on an exact matrix, of the three exponent
    differences mod N. Scan order is lexicographic over the 15 row pairs
    then the 20 column triples, so the witness is deterministic.
    """
    if m.mode == "exact":
        n, e = m.order, m.exponents
        same = operator.eq

        def products(i, j):
            return [(x - y) % n for x, y in zip(e[i], e[j])]
    else:
        same = UnitValue.isclose

        def products(i, j):
            return [x * y.conj() for x, y in zip(m[i], m[j])]

    for i, j in itertools.combinations(range(6), 2):
        ratios = products(i, j)
        for cols in itertools.combinations(range(6), 3):
            x, y, z = (ratios[c] for c in cols)
            if same(x, y) and same(x, z):
                return ScanWitness(
                    "Rank1_2x3", (i + 1, j + 1), tuple(c + 1 for c in cols)
                )
    return None


def find_3x3_hadamard_submatrix(m: Matrix6) -> Optional[ScanWitness]:
    """First 3x3 submatrix whose rows are pairwise orthogonal.

    Lexicographic over the 20 row triples then 20 column triples.
    """
    for rows in itertools.combinations(range(6), 3):
        for cols in itertools.combinations(range(6), 3):
            if all(
                _pair_orthogonal(m, a, b, cols)
                for a, b in itertools.combinations(rows, 2)
            ):
                return ScanWitness(
                    "Hadamard3x3",
                    tuple(r + 1 for r in rows),
                    tuple(c + 1 for c in cols),
                )
    return None


def _is_flat(line: Sequence[UnitValue]) -> bool:
    return all(v == line[0] for v in line)


def _is_doubled_cube_coset(line: Sequence[UnitValue]) -> bool:
    # Quotients by any one entry land in {1, w, w2} with multiplicities
    # 2,2,2 exactly when the line is a phase times the target pattern;
    # the target multiset is invariant under rotation by w, so one
    # reference entry suffices.
    ref = line[0].conj()
    quotients = sorted((ref * v).turn for v in line)
    return quotients == sorted(v.turn for v in _PATTERN_MULTISET)


def find_pattern_1oo2(m: Matrix6) -> Optional[ScanWitness]:
    """Row (then column) pair matching the flat-plus-doubled-cube pattern.

    The pattern is one constant line paired with a line whose entries,
    up to a shared phase, are the cube roots of unity each twice. Pairs
    of rows are scanned before pairs of columns, lexicographically.
    """
    if m.mode != "exact":
        raise ValueError("find_pattern_1oo2 requires an exact matrix")
    for i, j in itertools.combinations(range(6), 2):
        a, b = m[i], m[j]
        if (_is_flat(a) and _is_doubled_cube_coset(b)) or (
            _is_flat(b) and _is_doubled_cube_coset(a)
        ):
            return ScanWitness("Pattern1oo2", (i + 1, j + 1), (1, 2, 3, 4, 5, 6))
    for i, j in itertools.combinations(range(6), 2):
        a, b = m.column(i), m.column(j)
        if (_is_flat(a) and _is_doubled_cube_coset(b)) or (
            _is_flat(b) and _is_doubled_cube_coset(a)
        ):
            return ScanWitness("Pattern1oo2", (1, 2, 3, 4, 5, 6), (i + 1, j + 1))
    return None


def _pair_partitions(items: Sequence[int]):
    """All partitions of an even-sized sequence into unordered pairs."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for tail in _pair_partitions(remaining):
            yield ((first, partner),) + tail


def h2_reducible(m: Matrix6) -> Optional[H2Certificate]:
    """Certificate that m splits into nine 2x2 Hadamard blocks, if it does.

    Searches all 15 x 15 pairings of row-pair and column-pair
    partitions. Phases never affect block orthogonality, so pairing
    choices are the entire search space; for each pairing the nine
    blocks must each have orthogonal rows, which for unimodular entries
    reads b11*conj(b21) = -b12*conj(b22). The certificate records the
    monomial normalization of every block and re-verifies from scratch.
    """
    if m.mode == "exact":
        # The products as exponents mod 2N, where -1 is N.
        n, e = m.order, m.exponents
        twice = [[[2 * (x - y) % (2 * n) for x, y in zip(a, b)] for b in e] for a in e]

        def block_ok(r1, r2, c1, c2):
            ratios = twice[r1][r2]
            return ratios[c1] == (ratios[c2] + n) % (2 * n)
    else:
        def block_ok(r1, r2, c1, c2):
            lhs = m[r1][c1] * m[r2][c1].conj()
            return lhs.isclose(-(m[r1][c2] * m[r2][c2].conj()))

    idx = tuple(range(6))
    for row_part in _pair_partitions(idx):
        for col_part in _pair_partitions(idx):
            if not all(
                block_ok(r1, r2, c1, c2) for r1, r2 in row_part for c1, c2 in col_part
            ):
                continue
            phases = tuple(
                tuple(
                    (
                        m[r1][c1],
                        m[r1][c2] * m[r1][c1].conj(),
                        m[r2][c1] * m[r1][c1].conj(),
                    )
                    for c1, c2 in col_part
                )
                for r1, r2 in row_part
            )
            cert = H2Certificate(
                row_pairs=tuple((a + 1, b + 1) for a, b in row_part),
                col_pairs=tuple((a + 1, b + 1) for a, b in col_part),
                block_phases=phases,
            )
            if not cert.verify(m):
                raise AssertionError("h2 certificate failed self-verification")
            return cert
    return None


def mub_obstruction(m: Matrix6) -> str:
    """ExcludedBy3x3 iff a 3x3 Hadamard submatrix exists, else NoVerdict.

    NoVerdict asserts nothing: absence of this particular obstruction
    does not place the matrix in an unbiased trio.
    """
    return EXCLUDED_BY_3X3 if find_3x3_hadamard_submatrix(m) else NO_VERDICT


def apply_monomial(
    m: Matrix6,
    row_perm: Sequence[int],
    row_phases: Sequence[UnitValue],
    col_perm: Sequence[int],
    col_phases: Sequence[UnitValue],
) -> Matrix6:
    """Left and right multiplication by monomial unitaries, combined.

    Result[i][j] = row_phases[i] * col_phases[j] * m[row_perm[i]][col_perm[j]],
    with 0-based permutations of range(6). This is the P*M*Q product where
    P scales row i after pulling it from position row_perm[i], and Q does
    the same on columns; is_chm is invariant under it.
    """
    if sorted(row_perm) != list(range(6)) or sorted(col_perm) != list(range(6)):
        raise ValueError("row_perm and col_perm must be permutations of range(6)")
    phases = (*row_phases, *col_phases)
    if m.mode == "exact" and all(
        isinstance(v, UnitValue) and v.is_exact for v in phases
    ):
        order = math.lcm(m.order, *(v.turn.denominator for v in phases))
        lift = order // m.order
        e = m.exponents
        rows = [_exponent(v, order) for v in row_phases]
        cols = [_exponent(v, order) for v in col_phases]
        return Matrix6.from_exponents(
            order,
            [
                [rows[i] + cols[j] + lift * e[row_perm[i]][col_perm[j]] for j in range(6)]
                for i in range(6)
            ],
        )
    return Matrix6(
        tuple(
            row_phases[i] * col_phases[j] * m[row_perm[i]][col_perm[j]]
            for j in range(6)
        )
        for i in range(6)
    )


def _w(p: int, q: int) -> UnitValue:
    return root_of_unity(p, q)


def _catalog_s6_0() -> Matrix6:
    w, w2 = OMEGA, OMEGA2
    one = ONE
    return Matrix6(
        [
            [one, one, one, one, one, one],
            [one, one, w, w, w2, w2],
            [one, w, one, w2, w2, w],
            [one, w, w2, one, w, w2],
            [one, w2, w2, w, one, w],
            [one, w2, w, w2, w, one],
        ]
    )


def _catalog_s6_1() -> Matrix6:
    # Negating columns 3..6 of the base design keeps it Hadamard and
    # produces the sign-twisted second row [1, 1, -w, -w, -w2, -w2].
    base = _catalog_s6_0()
    return Matrix6(
        tuple(v if c < 2 else -v for c, v in enumerate(row)) for row in base.rows
    )


def _catalog_h1() -> Matrix6:
    one, neg, i = ONE, MINUS_ONE, I_UNIT
    return Matrix6(
        [
            [i, one, one, one, one, one],
            [one, i, one, one, neg, neg],
            [one, one, i, neg, one, neg],
            [one, one, neg, i, neg, one],
            [one, neg, one, neg, i, one],
            [one, neg, neg, one, one, i],
        ]
    )


def _catalog_hab(alpha: UnitValue, beta: UnitValue) -> Matrix6:
    one, neg, w, w2 = ONE, MINUS_ONE, OMEGA, OMEGA2
    a, b = alpha, beta
    return Matrix6(
        [
            [one, one, one, one, one, one],
            [one, one, one, neg, neg, neg],
            [one, w, w2, a, a * w, a * w2],
            [one, w, w2, -a, -(a * w), -(a * w2)],
            [one, w2, w, b, b * w2, b * w],
            [one, w2, w, -b, -(b * w2), -(b * w)],
        ]
    )


def _catalog_f6() -> Matrix6:
    return Matrix6(
        [[_w((j * k) % 6, 6) for k in range(6)] for j in range(6)]
    )


def catalog(
    name: str,
    alpha: Optional[UnitValue] = None,
    beta: Optional[UnitValue] = None,
) -> Matrix6:
    """Named matrices: S6_0, S6_1, H1, F6, and the HAB(alpha, beta) family.

    HAB requires unimodular alpha and beta (exact or float); the other
    names take no parameters.
    """
    if name == "HAB":
        if alpha is None or beta is None:
            raise ValueError("HAB requires alpha and beta")
        if not isinstance(alpha, UnitValue) or not isinstance(beta, UnitValue):
            raise ValueError("HAB parameters must be unimodular UnitValues")
        return _catalog_hab(alpha, beta)
    if alpha is not None or beta is not None:
        raise ValueError(f"catalog name {name!r} takes no parameters")
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog name {name!r}")
    return _named(name)


CATALOG_NAMES = ("S6_0", "S6_1", "H1", "F6")


@lru_cache(maxsize=None)
def _named(name: str) -> Matrix6:
    """A parameter-free catalog matrix, built on first use and shared:
    matrices are immutable."""
    builders = {
        "S6_0": _catalog_s6_0,
        "S6_1": _catalog_s6_1,
        "H1": _catalog_h1,
        "F6": _catalog_f6,
    }
    return builders[name]()
