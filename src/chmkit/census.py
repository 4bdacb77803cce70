"""Exhaustive search for order-6 Hadamard matrices over a small alphabet.

The search walks 6-row selections from the alphabet's row space in
lexicographic order, keeping each new row exactly orthogonal to the
rows above it. Symmetry is cut down by requiring the row sequence to be
increasing and the columns to be lexicographically nondecreasing; the
column condition is enforced incrementally, pruning a branch as soon as
some adjacent column pair is decided the wrong way, which accepts
exactly the matrices the at-completion check would. The search is
:func:`cliques`, a clique search on Python-int adjacency bitmasks that
the residue completion depth runs too, there with the column pruning
off.

Every entry is one integer. The alphabet's values are e(x/N) for their
common order N, so a matrix is a 6x6 array of exponents mod N: products
are sums and conjugates are negations. That is also how an exact
``Matrix6`` stores its entries, so the census runs on exponents
throughout: each returned matrix is built from exponent rows shared
with the other matrices that use them, with no entry re-validated, and
the class representatives it labels are compared on exponents too.

Two rows are orthogonal when their six entry quotients sum to zero. One
cyclotomic reduction matrix decides every such sum: its columns, packed
into integer words, add up to zero exactly when the roots of unity they
stand for do. Split into half-rows of three columns, two rows are
orthogonal when the packed quotient sum over their last three columns
is the negation of the one over their first three. Every half-sum and
every negated half-sum gets one integer code, a small partner table
marks which half-row pairs have each wanted code, and a blocked gather
from it writes the orthogonality masks of the whole row space; a row
with no orthogonal partner keeps mask 0. The same words re-check every
emitted matrix from its entries, and the integer canonicaliser that
``sorted_canonical_form`` uses groups the matrices before any
certificate search runs.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .exactnum import UnitValue, _reduction_words
from .equivalence import (
    canonical_exponents,
    complex_equivalent,
    dephased_exponents,
)
from .matrices import Matrix6, _exact, _exponent, _hadamard, catalog

logger = logging.getLogger(__name__)

S6_0_CLASS = "S6_0-class"
H1_CLASS = "H1-class"
OTHER_CLASS = "OTHER"


@dataclass(frozen=True)
class Alphabet:
    """A sorted tuple of 2..4 distinct exact unimodular values."""

    values: tuple

    @classmethod
    def of(cls, values) -> "Alphabet":
        values = tuple(values)
        if any(not isinstance(v, UnitValue) or not v.is_exact for v in values):
            raise ValueError("alphabet values must be exact unit values")
        vals = tuple(sorted(set(values), key=lambda v: v.turn))
        if not 2 <= len(vals) <= 4:
            raise ValueError("alphabet needs between 2 and 4 distinct values")
        return cls(values=vals)

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.values) + "}"


@dataclass(frozen=True)
class CensusReport:
    """Everything the enumeration found, in canonical order.

    ``matrices`` holds every matrix surviving symmetry reduction;
    ``class_representatives``/``class_membership`` partition them into
    equivalence classes; ``class_labels`` stays None until
    :func:`classify_census` fills it.
    """

    alphabet: Alphabet
    matrices: tuple
    raw_count: int
    class_representatives: tuple
    class_membership: tuple
    class_labels: Optional[tuple]
    node_count: int
    wall_time_ms: float
    incomplete: bool
    budget: Optional[int]


@lru_cache(maxsize=None)
def _row_space(k: int) -> np.ndarray:
    """All k**6 rows of letter indices, lexicographic; read-only."""
    rows = np.array(list(itertools.product(range(k), repeat=6)), dtype=np.int64)
    rows.setflags(write=False)
    return rows


def _kronecker_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a (+) b)[(i, k), (j, l)] = a[i, j] + b[k, l], rows and columns in
    lexicographic order."""
    return (a[:, None, :, None] + b[None, :, None, :]).reshape(
        len(a) * len(b), -1
    )


# Bytes of boolean mask rows gathered at once: one A (64 rows of 4096)
# for a 4-letter alphabet, about half the 729 x 729 matrix for three.
_GATHER_BYTES = 2**18


def _codes(values: np.ndarray) -> np.ndarray:
    """Dense integer codes of a 1-d array: equal values, equal codes."""
    # ``return_inverse`` is 1-d or shaped like the input depending on the
    # numpy release; the input is 1-d, and the reshape pins the result.
    return np.unique(values, return_inverse=True)[1].reshape(-1)


def _orthogonality_masks(exps, words):
    """Bitmask of orthogonal partners for every row in the row space.

    Rows r and s are orthogonal when the six quotients
    z^(e[r_j] - e[s_j]) sum to zero. Split the rows into half-rows of
    three columns, r = (A, B) and s = (C, D), K = k**3 half-rows in
    all. ``half``, the Kronecker sum over three columns of the k x k
    table of packed quotients, holds the K x K packed sums of three
    quotients, and r and s are orthogonal exactly when half[B, D] =
    -half[A, C] in every word.

    One ``np.unique`` over all half-sums and their negations gives each
    an integer code; the codes of several words are combined into one.
    The wanted codes are the negated ones that some half-sum has. The
    partner table zero[B, u, D] says whether half[B, D] has the u-th
    wanted code, and idx[A, C] is the position of -half[A, C] among
    them, or a last slot that matches nothing. The gather
    zero[B, idx[A, C], D] yields the mask rows in (A, B) x (C, D) order
    as contiguous runs of K bytes, with no wide temporaries and no
    transpose. It runs in blocks of A, so a 4-letter alphabet never
    holds its whole 4096 x 4096 matrix. When no half-sum meets a
    negated one, every mask is zero.

    A row's sum with itself is six and never vanishes. Quotient
    exponents lie in (-order, order), and numpy's negative indices wrap
    them mod order.
    """
    k = len(exps)
    size = k**3
    n = size * size
    code = None
    for table in words[:, exps[:, None] - exps[None, :]]:
        half = _kronecker_sum(_kronecker_sum(table, table), table).reshape(-1)
        word = _codes(np.concatenate([half, -half]))
        code = word if code is None else _codes(code * (word.max() + 1) + word)
    sums, negated = code[:n].reshape(size, size), code[n:].reshape(size, size)
    wanted = np.intersect1d(sums, negated)
    if not len(wanted):
        return [0] * n
    slot = np.full(code.max() + 1, len(wanted))
    slot[wanted] = np.arange(len(wanted))
    idx = slot[negated]
    # -1 is no code: the last slot, for an A, C with no partner.
    zero = sums[:, None, :] == np.append(wanted, -1)[None, :, None]
    b = np.arange(size)[None, :, None]
    step = max(1, _GATHER_BYTES // size**3)
    masks = []
    for lo in range(0, size, step):
        hits = zero[b, idx[lo:lo + step, None, :]]
        masks.extend(bitmasks(hits.reshape(-1, n)))
    return masks


@lru_cache(maxsize=None)
def _column_steps(k: int) -> tuple:
    """Per row of the k-letter row space, bitmasks of the adjacent column
    pairs it orders (<) or breaks (>), as two tuples."""
    rows = _row_space(k)
    bit = 1 << np.arange(5, dtype=np.int64)
    lt = ((rows[:, :5] < rows[:, 1:]) * bit).sum(axis=1)
    gt = ((rows[:, :5] > rows[:, 1:]) * bit).sum(axis=1)
    return tuple(lt.tolist()), tuple(gt.tolist())


def bitmasks(hits: np.ndarray) -> list:
    """One Python int per row of a 2-d boolean array: bit j of row i's
    int is ``hits[i, j]``, the adjacency masks :func:`cliques` reads.
    Rows with no set bit are left at 0 without building an int."""
    packed = np.packbits(hits, axis=1, bitorder="little")
    raw = packed.tobytes()
    size = packed.shape[1]
    masks = [0] * len(packed)
    for i in np.flatnonzero(packed.any(axis=1)).tolist():
        masks[i] = int.from_bytes(raw[i * size:(i + 1) * size], "little")
    return masks


def cliques(masks, size, first_rows, lt, gt, limit=None, first=False):
    """Cliques of ``size`` rows, in increasing index order, by depth-first search.

    Bit j of ``masks[i]`` is set when rows i and j are adjacent. Each
    clique starts at a row of ``first_rows`` and continues with adjacent
    rows above it. ``lt`` and ``gt`` give per row the bitmasks of the
    adjacent column pairs it orders (<) or breaks (>); the column state
    is the bitmask of pairs some selected row already orders, and a row
    that breaks an undecided pair is pruned. First rows are not checked
    against ``gt``. Zero ``lt``/``gt`` turn the pruning off.

    Each first row is a node, and so is every candidate tried below it;
    the search stops once the node count passes ``limit``, or at the
    first clique when ``first`` is set. Returns the cliques found as
    tuples (by first row in the given order, then lexicographically),
    the node count and whether the limit cut the search off. ``size``
    must be at least 2.
    """
    if size < 2:
        raise ValueError("cliques need at least two rows")
    found = []
    nodes = 0
    limit = math.inf if limit is None else limit

    def descend(selection, rest, state):
        # ``rest`` holds the candidates above the last selected row. True
        # once the limit is passed or the first clique found, which
        # unwinds the whole search.
        nonlocal nodes
        while rest:
            low = rest & -rest
            rest ^= low
            r = low.bit_length() - 1
            nodes += 1
            if nodes > limit:
                return True
            if gt[r] & ~state:
                continue
            if len(selection) == size - 1:
                found.append((*selection, r))
                if first:
                    return True
                continue
            selection.append(r)
            if descend(selection, rest & masks[r], state | lt[r]):
                return True
            selection.pop()
        return False

    for r in first_rows:
        nodes += 1
        if nodes > limit or descend([r], masks[r] >> (r + 1) << (r + 1), lt[r]):
            break
    return found, nodes, nodes > limit


DEFAULT_NODE_BUDGET = 10**9
# Matrices dephased per numpy batch; bounds the temporaries, which
# scale with it.
_BATCH = 1024


def enumerate_chms(
    alphabet: Alphabet,
    budget: Optional[int] = DEFAULT_NODE_BUDGET,
    column_reduction: bool = True,
) -> CensusReport:
    """Complete census of Hadamard matrices with entries in the alphabet.

    The census works on the alphabet's common order N and each value's
    exponent mod N, so products are sums and conjugates negations. It
    builds the orthogonality masks of the row space, searches them,
    re-checks every emitted matrix from its entries, and groups the
    matrices by their sorted canonical forms. The returned matrices are
    ``Matrix6`` built straight from the exponent rows they share.

    ``budget`` caps the number of search nodes (default one billion,
    far above anything a 4-value alphabet needs); exceeding it yields a
    report flagged incomplete rather than a silently truncated one.
    ``column_reduction=False`` disables the column-order symmetry cut;
    it exists for the small-instance oracle in the test suite.
    """
    if not isinstance(alphabet, Alphabet):
        alphabet = Alphabet.of(alphabet)
    t0 = time.perf_counter()
    values = alphabet.values
    order = math.lcm(*(v.turn.denominator for v in values))
    # int16 holds every exponent sum the census forms, which stay within
    # +-2 * order (words exist only up to ORDER_CAP = 5040), and makes the
    # dephased forms that key the class grouping four times shorter.
    exps = np.array([_exponent(v, order) for v in values], dtype=np.int16)
    words = _reduction_words(order)
    rows = _row_space(len(values))
    masks = _orthogonality_masks(exps, words)
    if column_reduction:
        lt, gt = _column_steps(len(values))
    else:
        lt = gt = (0,) * len(rows)
    first_rows = (r for r, breaks in enumerate(gt) if not breaks)
    found, nodes, incomplete = cliques(masks, 6, first_rows, lt, gt, budget)

    selections = np.fromiter(
        itertools.chain.from_iterable(found), dtype=np.int64, count=6 * len(found)
    ).reshape(-1, 6)
    del found
    # A matrix whose entries all lie in a smaller group of roots has the
    # reduced order order // step, step the gcd of order and its exponents.
    row_exps = exps[rows]
    row_step = np.gcd(np.gcd.reduce(row_exps, axis=1), order)
    steps = np.full(len(selections), order)
    for column in selections.T:
        steps = np.gcd(steps, row_step[column])
    shared = {
        step: tuple(tuple(row) for row in (row_exps // step).tolist())
        for step in np.unique(steps).tolist()
    }
    matrices = tuple(_built(order, steps, selections, shared))
    batches = (
        row_exps[selections[lo:lo + _BATCH]]
        for lo in range(0, len(selections), _BATCH)
    )
    reps, membership = _group_classes(order, batches, words)
    wall = (time.perf_counter() - t0) * 1000.0
    return CensusReport(
        alphabet=alphabet,
        matrices=matrices,
        raw_count=len(matrices),
        class_representatives=reps,
        class_membership=membership,
        class_labels=None,
        node_count=nodes,
        wall_time_ms=wall,
        incomplete=incomplete,
        budget=budget,
    )


def _built(order, steps, selections, shared):
    """The census's matrices, one per row selection, in order.

    ``shared[step]`` holds the exponent rows of the whole row space over
    order // step, so the matrices share their row tuples. Selections are
    read a batch at a time, which keeps the Python lists small.
    """
    for lo in range(0, len(selections), _BATCH):
        hi = lo + _BATCH
        for step, (a, b, c, d, e, f) in zip(
            steps[lo:hi].tolist(), selections[lo:hi].tolist()
        ):
            t = shared[step]
            yield _exact(order // step, (t[a], t[b], t[c], t[d], t[e], t[f]))


def _group_classes(order, batches, words):
    """Partition matrices, given as batches of int16 exponent arrays, into classes.

    Matrices with equal dephased forms share a canonical form, computed
    once per dephased form. Dephasing scales rows and columns by unit
    phases, which keeps rows orthogonal, so re-checking each dephased
    form from its entries re-checks every matrix that has it. Equal
    sorted canonical forms prove equivalence outright; the few distinct
    forms left are settled with certificate searches.
    """
    form_of = {}
    form_of_dephased = {}
    form_index = []
    for batch in batches:
        dephased = dephased_exponents(order, batch)
        raw = dephased.tobytes()
        size = len(raw) // len(batch)
        keys = [raw[lo:lo + size] for lo in range(0, len(raw), size)]
        new = list(dict.fromkeys(k for k in keys if k not in form_of_dephased))
        if new:
            fresh = np.frombuffer(b"".join(new), dtype=dephased.dtype).reshape(-1, 6, 6)
            if not _hadamard(words, fresh).all():
                raise AssertionError("census emitted a non-Hadamard matrix")
            for key, form in zip(new, canonical_exponents(fresh)):
                form_of_dephased[key] = form_of.setdefault(form.tobytes(), len(form_of))
        form_index.extend(map(form_of_dephased.__getitem__, keys))
    distinct_forms = [
        Matrix6.from_exponents(order, np.frombuffer(f, dtype=np.int16).reshape(6, 6))
        for f in form_of
    ]
    # form index -> class index via pairwise certificates on the forms
    class_of_form = {}
    class_reps = []
    for fi, form in enumerate(distinct_forms):
        placed = False
        for ci, rep in enumerate(class_reps):
            if complex_equivalent(form, rep) is not None:
                class_of_form[fi] = ci
                placed = True
                break
        if not placed:
            class_of_form[fi] = len(class_reps)
            class_reps.append(form)
    membership = tuple(class_of_form[fi] for fi in form_index)
    return tuple(class_reps), membership


def classify_census(report: CensusReport) -> CensusReport:
    """Label every class representative against the catalog.

    Labels are S6_0-class, H1-class, or OTHER; OTHER is logged as a
    warning because no known three-or-four-value census should produce
    one. Incomplete reports are refused, a partial census proves
    nothing about class coverage.
    """
    if report.incomplete:
        raise ValueError("refusing to classify an incomplete census")
    s60 = catalog("S6_0")
    h1 = catalog("H1")
    labels = []
    for rep in report.class_representatives:
        if complex_equivalent(rep, s60) is not None:
            labels.append(S6_0_CLASS)
        elif complex_equivalent(rep, h1) is not None:
            labels.append(H1_CLASS)
        else:
            labels.append(OTHER_CLASS)
            logger.warning(
                "census %s: representative outside the known classes; "
                "this contradicts the expected classification",
                report.alphabet,
            )
    return replace(report, class_labels=tuple(labels))
