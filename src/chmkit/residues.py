"""Residue shadows of row inner products over Z5 and Z7.

When every pairwise product of alphabet entries lands in a short list
of formal symbols, a weight map f with f(x*y) = f(x) + f(y) (whenever
the product symbol exists) turns each row into a residue vector and
each row inner product into componentwise residue differences.
Orthogonality then casts a combinatorial shadow: the difference
vector of two rows must be a permutation of the f-image of an
admissible zero-sum form.

This module builds the two maps used by the classification (mod 5
for the products of {1,a,conj(a)}, mod 7 for the products of
{1,a,b}), computes inner products through residues, and runs the
row-completion searches that turn the shadow into contradiction
certificates. It also carries the small combinatorial closers: the
mod-7 sum filter, the monochromatic-triangle check behind the
outward-pointing colour argument, and the pigeonhole repeated-pair
step that hands off to the rank-1 submatrix lemma.

Both completion searches run on Python-int bitmasks. The candidate
rows are the sorted permutations of the target multisets, and each row
gets a mask of the candidates it admits, built in numpy. A pair of rows
is tested by the count-vector key of its difference multiset: with w
columns, the count of each residue d is at most w, so the base-(w+1)
number sum_d count_d * (w+1)**d names the multiset, and it is a sum of
one table entry per column, with nothing to sort. The family is
closed under conjugation, which negates residue differences, so
admissibility is symmetric: a set of pairwise-admissible rows is a
clique of the admissibility graph, whatever order the rows come in.
``complete_rows`` is then one AND over the fixed rows' masks, and
``completion_depth`` runs the census's clique kernel,
:func:`~chmkit.census.cliques`, from the zero row.

Completion results are reported as orbit representatives modulo the
column swaps fixing every given row (entries sorted within blocks of
columns on which all fixed rows agree), the same symmetry a by-hand
search quotients away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from operator import and_
from typing import Optional, Sequence

import numpy as np

from .arrays import STRUCTURES, CountArray
from .census import bitmasks, cliques


class Undefined(KeyError):
    """A symbol or formal product outside the residue table."""


@dataclass(frozen=True)
class GroupMap:
    """Additive residue weights for one formal product alphabet.

    ``names``, ``exps`` and ``residues`` are aligned with the slots of
    the named product structure, so an f-weighted count array sums
    ``counts[i] * residues[i]``. Conjugation negates exponents, hence
    f(conj(y)) = modulus - f(y) for y != 1.
    """

    modulus: int
    structure_name: str
    names: tuple
    exps: tuple
    residues: tuple

    def value(self, symbol) -> int:
        """f(symbol); the symbol may be a name or an exponent vector."""
        key = symbol if isinstance(symbol, tuple) else str(symbol)
        for name, exp, res in zip(self.names, self.exps, self.residues):
            if key == name or key == exp:
                return res
        raise Undefined(f"no residue assigned to {symbol!r}")

    def inverse_symbol(self, residue: int) -> str:
        """The fixed preimage convention: one name per residue class."""
        r = residue % self.modulus
        for name, res in zip(self.names, self.residues):
            if res == r:
                return name
        raise Undefined(f"residue {residue} has no assigned preimage")

    def conjugate_residue(self, residue: int) -> int:
        return (-residue) % self.modulus

    def product_value(self, x, y) -> int:
        """f(x*y) through the table; Undefined if x*y has no symbol.

        The product of two symbols adds their exponent vectors, so it
        stays in the table exactly when the sum is a listed exponent.
        """
        ex = self.exps[self.names.index(x)] if not isinstance(x, tuple) else x
        ey = self.exps[self.names.index(y)] if not isinstance(y, tuple) else y
        prod = tuple(u + v for u, v in zip(ex, ey))
        return self.value(prod)

    def defined_products(self):
        """All symbol pairs whose formal product stays in the table."""
        for x in self.names:
            for y in self.names:
                try:
                    self.product_value(x, y)
                except Undefined:
                    continue
                yield x, y


MOD5 = GroupMap(
    modulus=5,
    structure_name="CONJ",
    names=("1", "a", "a~", "a2", "a~2"),
    exps=tuple(e for _, e in STRUCTURES["CONJ"].terms),
    residues=(0, 1, 4, 2, 3),
)

MOD7 = GroupMap(
    modulus=7,
    structure_name="GENERIC",
    names=("1", "a", "a~", "b", "b~", "ab~", "a~b"),
    exps=tuple(e for _, e in STRUCTURES["GENERIC"].terms),
    residues=(0, 1, 6, 5, 2, 3, 4),
)


def residue_map(gmap: GroupMap, symbols: Sequence) -> tuple:
    """Componentwise f over a row of formal symbols."""
    return tuple(gmap.value(s) for s in symbols)


@dataclass(frozen=True)
class InnerProduct:
    """Row inner product computed through residues.

    ``residues`` holds the componentwise differences as class
    representatives in [0, modulus); ``symbols`` their fixed
    preimages; ``total`` the plain integer sum of the representatives
    and ``total_mod`` that sum reduced again.
    """

    residues: tuple
    symbols: tuple
    total: int
    total_mod: int

    @property
    def multiset(self) -> tuple:
        return tuple(sorted(self.residues))


def residue_inner_product(gmap: GroupMap, x: Sequence[int],
                          y: Sequence[int]) -> InnerProduct:
    """Inner product of two residue rows: differences, preimages, sum."""
    if len(x) != len(y):
        raise ValueError("rows must have equal length")
    m = gmap.modulus
    z = tuple((int(xi) - int(yi)) % m for xi, yi in zip(x, y))
    total = sum(z)
    return InnerProduct(
        residues=z,
        symbols=tuple(gmap.inverse_symbol(v) for v in z),
        total=total,
        total_mod=total % m,
    )


def array_residue_sum(gmap: GroupMap, array: CountArray) -> int:
    """Integer f-weight of a count array's six product terms."""
    if array.structure.name != gmap.structure_name:
        raise ValueError(
            f"array structure {array.structure.name} does not match "
            f"the {gmap.structure_name} residue map"
        )
    return sum(c * r for c, r in zip(array.counts, gmap.residues))


def f_image(gmap: GroupMap, array: CountArray) -> tuple:
    """The sorted residue multiset of a count array's terms."""
    if array.structure.name != gmap.structure_name:
        raise ValueError(
            f"array structure {array.structure.name} does not match "
            f"the {gmap.structure_name} residue map"
        )
    out = []
    for count, residue in zip(array.counts, gmap.residues):
        out.extend([residue] * count)
    return tuple(sorted(out))


def z7_sum_filter(arrays: Sequence[CountArray]) -> list:
    """Keep the {1,a,b} arrays whose f-weight is divisible by 7."""
    return [a for a in arrays if array_residue_sum(MOD7, a) % 7 == 0]


def _family_closure(gmap: GroupMap, multisets) -> frozenset:
    """Sorted multisets closed under conjugation (negation mod m).

    The inner product of rows i,j and of rows j,i differ by negation,
    so admissibility must not depend on the orientation.
    """
    fam = set()
    for ms in multisets:
        fam.add(tuple(sorted(v % gmap.modulus for v in ms)))
        fam.add(tuple(sorted((-v) % gmap.modulus for v in ms)))
    return frozenset(fam)


def pairwise_admissible(gmap: GroupMap, x: Sequence[int], y: Sequence[int],
                        target) -> bool:
    """Whether the inner product of two rows lands in the family."""
    fam = _family_closure(gmap, target)
    return residue_inner_product(gmap, x, y).multiset in fam


def _stabilizer_blocks(fixed) -> tuple:
    """Column blocks on which every fixed row agrees (size > 1)."""
    n = len(fixed[0])
    groups = {}
    for j in range(n):
        groups.setdefault(tuple(row[j] for row in fixed), []).append(j)
    return tuple(tuple(b) for b in groups.values() if len(b) > 1)


def _canonical(row: tuple, blocks: tuple) -> tuple:
    out = list(row)
    for block in blocks:
        for j, v in zip(block, sorted(out[j] for j in block)):
            out[j] = v
    return tuple(out)


@dataclass(frozen=True)
class Contradiction:
    """Witness that a completion search came back empty.

    ``sample`` is the lexicographically first candidate row,
    ``against`` the first fixed row it violates, and ``image`` the
    offending inner-product multiset, which is not in the family.
    """

    candidates: int
    sample: tuple
    against: tuple
    image: tuple


@dataclass(frozen=True)
class CompletionReport:
    """Rows extending a partial residue matrix, up to column swaps.

    ``rows`` lists orbit representatives (sorted within ``blocks``),
    ``raw`` every completion, and ``certificate`` doubles as the
    contradiction witness whenever ``rows`` is empty.
    """

    rows: tuple
    raw: tuple
    blocks: tuple
    certificate: Optional[Contradiction]

    def is_contradiction(self) -> bool:
        return not self.rows


def _candidate_rows(gmap: GroupMap, target, rows=()) -> list:
    """Sorted distinct permutations of the target multisets, mod m.

    Raises ValueError when ``target`` is empty or when its multisets
    and the given ``rows`` do not all have one length: a completion is
    only a proof when every row pair is compared entry for entry.
    """
    m = gmap.modulus
    target = [tuple(int(v) % m for v in ms) for ms in target]
    if not target:
        raise ValueError("at least one target multiset is required")
    if len({len(ms) for ms in target} | {len(row) for row in rows}) != 1:
        raise ValueError("target multisets and rows must have equal lengths")
    return sorted({p for ms in target for p in permutations(ms)})


def _admissibility_masks(gmap: GroupMap, rows, candidates, fam) -> list:
    """Per row, the bitmask of candidates whose inner product it admits.

    Bit j of a row's mask is set when the differences (row -
    candidates[j]) mod m form a multiset of ``fam``. A multiset of w
    residues is fixed by its counts, each at most w, so its count-vector
    key sum_d count_d * (w+1)**d is equal for two multisets exactly when
    they are. The key of a difference vector is a sum over its columns
    of T[x_j, y_j] = (w+1)**((x_j - y_j) mod m), read from one m x m
    table, so each row block's keys are w gather-and-add steps, with no
    sort. They are looked up among the keys of ``fam`` in row blocks of
    about 64k pairs and in the narrowest unsigned type, so that the
    temporary arrays stay near 1 MB. Raises ValueError when (w+1)**m
    does not fit in int64.
    """
    m = gmap.modulus
    cand = np.array(candidates, dtype=np.intp)
    width = cand.shape[1]
    base = width + 1
    if base**m > np.iinfo(np.int64).max:
        raise ValueError(f"count keys of width {width} mod {m} overflow int64")
    key_type = np.min_scalar_type(width * base ** (m - 1))
    res = np.arange(m)
    table = (base ** ((res[:, None] - res[None, :]) % m)).astype(key_type)
    fam_keys = np.array([sum(base**v for v in ms) for ms in fam], dtype=key_type)
    rows = np.array(rows, dtype=np.intp)
    block = max(1, 65536 // len(cand))
    masks = []
    for lo in range(0, len(rows), block):
        part = rows[lo:lo + block]
        keys = np.zeros((len(part), len(cand)), dtype=key_type)
        for j in range(width):
            keys += table[part[:, j]][:, cand[:, j]]
        masks.extend(bitmasks(np.isin(keys, fam_keys)))
    return masks


def complete_rows(gmap: GroupMap, fixed, target) -> CompletionReport:
    """All rows compatible with the fixed ones under the form family.

    Candidates run over the sorted permutations of the explicit
    ``target`` multisets; admissibility closes the family under
    conjugation, so a candidate passes when its inner product with
    every fixed row is a permutation of a target multiset or of a
    conjugate of one. The passing candidates are the AND of the fixed
    rows' admissibility masks. When none passes, the certificate names
    the first candidate and the first fixed row that rejects it.
    """
    fixed = [tuple(int(v) % gmap.modulus for v in row) for row in fixed]
    if not fixed:
        raise ValueError("at least one fixed row is required")
    candidates = _candidate_rows(gmap, target, fixed)
    fam = _family_closure(gmap, target)
    masks = _admissibility_masks(gmap, fixed, candidates, fam)
    passing = reduce(and_, masks)
    found = [y for i, y in enumerate(candidates) if passing >> i & 1]
    blocks = _stabilizer_blocks(fixed)
    reps = sorted({_canonical(y, blocks) for y in found})
    certificate = None
    if not found:
        sample = candidates[0]
        against = next(x for x, mask in zip(fixed, masks) if not mask & 1)
        certificate = Contradiction(
            candidates=len(candidates),
            sample=sample,
            against=against,
            image=residue_inner_product(gmap, against, sample).multiset,
        )
    return CompletionReport(
        rows=tuple(reps),
        raw=tuple(found),
        blocks=blocks,
        certificate=certificate,
    )


def completion_depth(gmap: GroupMap, target, max_rows: int = 6) -> int:
    """Longest pairwise-admissible chain of rows from the family.

    Starts from the all-zero row and adds permutations of the target
    multisets, requiring every row pair to stay admissible. The return
    value counts rows including the zero row, capped at ``max_rows``;
    a full matrix of order n needs n.

    The family is closed under negation, so admissibility is symmetric
    and a chain is a clique of the admissibility graph on the zero row
    (index 0) and the candidates: the order of its rows does not
    matter. The depth is the largest k up to ``max_rows`` for which the
    census's :func:`~chmkit.census.cliques` finds a k-clique starting
    at the zero row, trying k = 2, 3, ... in turn: every subset of a
    clique is one, so the first k without a clique ends the search. A
    row admits itself only when the all-zero multiset is in the family;
    then the zero row repeats without end and the depth is ``max_rows``.
    """
    candidates = _candidate_rows(gmap, target)
    zero = (0,) * len(candidates[0])
    fam = _family_closure(gmap, target)
    if zero in fam:
        return max(1, max_rows)
    rows = [zero, *candidates]
    masks = _admissibility_masks(gmap, rows, rows, fam)
    free = (0,) * len(rows)
    depth = 1
    while depth < max_rows:
        if not cliques(masks, depth + 1, (0,), free, free, first=True)[0]:
            break
        depth += 1
    return depth


@dataclass(frozen=True)
class EdgeColoring:
    """A 2-coloring of the edges of the complete graph on n vertices.

    Edges are indexed lexicographically by their endpoint pair (i, j)
    with i < j; colors are 0 and 1.
    """

    n: int
    colors: tuple

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 2
        if len(self.colors) != expected:
            raise ValueError(
                f"need {expected} edge colors for n={self.n}, "
                f"got {len(self.colors)}"
            )
        if any(c not in (0, 1) for c in self.colors):
            raise ValueError("colors must be 0 or 1")

    @classmethod
    def from_integer(cls, n: int, bits: int) -> "EdgeColoring":
        e = n * (n - 1) // 2
        return cls(n, tuple((bits >> k) & 1 for k in range(e)))

    def edge_index(self, i: int, j: int) -> int:
        if not 0 <= i < j < self.n:
            raise ValueError("need 0 <= i < j < n")
        return i * self.n - i * (i + 1) // 2 + (j - i - 1)

    def color(self, i: int, j: int) -> int:
        return self.colors[self.edge_index(i, j)]

    def monochromatic_triangle(self) -> Optional[tuple]:
        """First vertex triple with equal edge colors, or None."""
        for i, j, k in combinations(range(self.n), 3):
            c = self.color(i, j)
            if self.color(i, k) == c and self.color(j, k) == c:
                return (i, j, k, c)
        return None


@dataclass(frozen=True)
class RamseyReport:
    n: int
    holds: bool
    checked: int
    counterexample: Optional[EdgeColoring]


def ramsey_check(n: int) -> RamseyReport:
    """Whether every 2-coloring of K_n has a monochromatic triangle.

    Exhausts all 2^(n(n-1)/2) colorings in deterministic integer
    order, scanning in prefix chunks; the first failing coloring (if
    any) comes back as the counterexample. Guarded to n <= 8 so the
    space stays enumerable.
    """
    if not 3 <= n <= 8:
        raise ValueError("vertex count must be between 3 and 8")
    edges = n * (n - 1) // 2
    probe = EdgeColoring(n, (0,) * edges)
    masks = []
    for i, j, k in combinations(range(n), 3):
        masks.append(
            (1 << probe.edge_index(i, j))
            | (1 << probe.edge_index(i, k))
            | (1 << probe.edge_index(j, k))
        )
    total = 1 << edges
    if edges <= 16:
        for coloring in range(total):
            if not any(
                (coloring & m) == 0 or (coloring & m) == m for m in masks
            ):
                return RamseyReport(
                    n, False, coloring + 1, EdgeColoring.from_integer(n, coloring)
                )
        return RamseyReport(n, True, total, None)
    chunk = 1 << 20
    for start in range(0, total, chunk):
        block = np.arange(start, min(start + chunk, total), dtype=np.int64)
        mono = np.zeros(block.shape, dtype=bool)
        for m in masks:
            hit = block & m
            mono |= (hit == 0) | (hit == m)
        if not mono.all():
            first = int(block[~mono][0])
            return RamseyReport(
                n, False, first + 1, EdgeColoring.from_integer(n, first)
            )
    return RamseyReport(n, True, total, None)


@dataclass(frozen=True)
class PigeonholeWitness:
    """A column pair repeated three times across five candidate rows.

    ``submatrix`` is the induced 3 x 2 block with two constant
    columns, the rank-1 configuration the submatrix lemma forbids.
    """

    pair: tuple
    count: int
    indices: tuple
    submatrix: tuple


def pigeonhole_pair_check(pairs, pair=("a", "b")) -> PigeonholeWitness:
    """Find the ordered pair filling at least three of five slots.

    ``pairs`` lists, for five rows, which of the two opposite column
    pairs each row carries; with only two choices for five rows, one
    appears at least ceil(5/2) = 3 times.
    """
    forward = tuple(pair)
    backward = tuple(reversed(forward))
    items = [tuple(p) for p in pairs]
    if len(items) != 5:
        raise ValueError("exactly five row pairs are expected")
    for p in items:
        if p not in (forward, backward):
            raise ValueError(f"pair {p!r} is not {forward} or {backward}")
    winner = forward if items.count(forward) >= 3 else backward
    indices = tuple(i for i, p in enumerate(items) if p == winner)
    return PigeonholeWitness(
        pair=winner,
        count=len(indices),
        indices=indices,
        submatrix=(winner,) * 3,
    )


_PRODUCT_SLOT = {
    ("1", "1"): 0, ("a", "a"): 0, ("b", "b"): 0,
    ("a", "1"): 1, ("1", "a"): 2,
    ("b", "1"): 3, ("1", "b"): 4,
    ("a", "b"): 5, ("b", "a"): 6,
}


def edge_coloring_from_rows(rows, reference: CountArray) -> EdgeColoring:
    """Color row pairs by which of two conjugate forms they satisfy.

    Each entry is a token from {1, a, b}; the product profile of rows
    i < j (counts of 1, a, conj(a), b, conj(b), a*conj(b), b*conj(a))
    must equal the reference array (color 0) or its conjugate (color
    1). Self-conjugate references take color 0 by convention.
    """
    struct = STRUCTURES["GENERIC"]
    if reference.structure.name != "GENERIC":
        raise ValueError("reference must be a {1,a,b} count array")
    ref = tuple(reference.counts)
    ref_conj = tuple(ref[struct.conj_perm[i]] for i in range(len(ref)))
    n = len(rows)
    colors = []
    for i, j in combinations(range(n), 2):
        counts = [0] * 7
        for x, y in zip(rows[i], rows[j]):
            try:
                counts[_PRODUCT_SLOT[(str(x), str(y))]] += 1
            except KeyError:
                raise ValueError(
                    f"entry pair ({x!r}, {y!r}) is not over {{1, a, b}}"
                ) from None
        counts = tuple(counts)
        if counts == ref:
            colors.append(0)
        elif counts == ref_conj:
            colors.append(1)
        else:
            raise ValueError(
                f"rows {i},{j} have product profile {counts}, outside "
                f"the reference pair"
            )
    return EdgeColoring(n, tuple(colors))
