"""Exact arithmetic for unit-modulus scalars, integer sums of roots of unity,
and points of the unit torus in real number fields.

Three layers.  ``UnitValue`` models a single matrix entry: either an exact root
of unity e(p/q) = exp(2*pi*i*p/q) stored as a reduced fraction of a turn, or
a float point on the unit circle.  ``CycSum`` models an integer combination
of roots of unity of a common order N, stored on the power basis
1, z, ..., z^(phi(N)-1) of the N-th cyclotomic field; on that basis a sum is
zero iff every coefficient is zero, which makes orthogonality tests exact.
``CosinePoint`` models a point (a, b) of the torus that need not be a pair of
roots of unity: the cosines of its two angles lie in one real number field
``Field`` = Q(theta) and each sine is a sign times sqrt(1 - cos^2).  It decides
exactly whether an integer Laurent polynomial vanishes there.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np
import sympy
from sympy import cyclotomic_poly

TOL = 1e-9
ORDER_CAP = 5040

# The eight simple values {1, -1, i, -i, w, w^2, -w, -w^2}, the points
# with x^4 = 1 or x^6 = 1, as twelfths of a turn with their printed
# names. This is the package's only list of them: every simplicity test
# and every printed name reads it.
_SIMPLE_NAMES = {
    Fraction(k, 12): name
    for k, name in (
        (0, "1"), (6, "-1"), (3, "i"), (9, "-i"),
        (4, "w"), (8, "w2"), (10, "-w"), (2, "-w2"),
    )
}
SIMPLE_TURNS = frozenset(_SIMPLE_NAMES)
SIMPLE_VALUES = tuple(
    cmath.exp(2j * math.pi * float(t)) for t in sorted(SIMPLE_TURNS)
)


class UnitValue:
    """A unit-modulus scalar, exact (root of unity) or float (circle point)."""

    __slots__ = ("turn", "re", "im")

    def __init__(self, turn: Fraction | None, re: float = 0.0, im: float = 0.0):
        if turn is not None:
            if re != 0.0 or im != 0.0:
                raise ValueError(
                    "re/im are float-mode fields; pass turn=None to use them"
                )
            turn = Fraction(turn) % 1
        else:
            if abs(re * re + im * im - 1.0) > TOL:
                raise ValueError(
                    f"float point ({re}, {im}) is off the unit circle beyond {TOL}"
                )
        object.__setattr__(self, "turn", turn)
        object.__setattr__(self, "re", float(re))
        object.__setattr__(self, "im", float(im))

    def __setattr__(self, name, value):
        raise AttributeError("UnitValue is immutable")

    @classmethod
    def root(cls, p: int, q: int) -> "UnitValue":
        if q == 0:
            raise ValueError("root order q must be nonzero")
        return cls(Fraction(p, q))

    @classmethod
    def from_float(cls, re: float, im: float) -> "UnitValue":
        return cls(None, re, im)

    @property
    def is_exact(self) -> bool:
        return self.turn is not None

    @property
    def order(self) -> int:
        if self.turn is None:
            raise ValueError("float-mode value has no exact order")
        return self.turn.denominator

    def as_complex(self) -> complex:
        if self.turn is None:
            return complex(self.re, self.im)
        angle = 2.0 * math.pi * float(self.turn)
        return complex(math.cos(angle), math.sin(angle))

    def __mul__(self, other: "UnitValue") -> "UnitValue":
        if not isinstance(other, UnitValue):
            return NotImplemented
        if self.turn is not None and other.turn is not None:
            return UnitValue(self.turn + other.turn)
        if self.turn is None and other.turn is None:
            z = complex(self.re, self.im) * complex(other.re, other.im)
            return UnitValue(None, z.real, z.imag)
        raise ValueError("cannot mix exact and float-mode unit values")

    def conj(self) -> "UnitValue":
        if self.turn is not None:
            return UnitValue(-self.turn)
        return UnitValue(None, self.re, -self.im)

    def __neg__(self) -> "UnitValue":
        if self.turn is not None:
            return UnitValue(self.turn + Fraction(1, 2))
        return UnitValue(None, -self.re, -self.im)

    def __pow__(self, k: int) -> "UnitValue":
        if self.turn is not None:
            return UnitValue(self.turn * k)
        z = complex(self.re, self.im) ** k
        # renormalise so repeated powers cannot drift off the circle
        m = abs(z)
        return UnitValue(None, z.real / m, z.imag / m)

    def isclose(self, other: "UnitValue", tol: float = TOL) -> bool:
        return abs(self.as_complex() - other.as_complex()) <= tol

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitValue):
            return NotImplemented
        if (self.turn is None) != (other.turn is None):
            return False
        if self.turn is not None:
            return self.turn == other.turn
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if self.turn is not None:
            return hash(("unit", self.turn))
        return hash(("unitf", self.re, self.im))

    def __str__(self) -> str:
        if self.turn is None:
            return f"f({self.re!r},{self.im!r})"
        s = _SIMPLE_NAMES.get(self.turn)
        if s is not None:
            return s
        return f"e({self.turn.numerator}/{self.turn.denominator})"

    def __repr__(self) -> str:
        return f"UnitValue({self})"


def root_of_unity(p: int, q: int) -> UnitValue:
    """e(p/q), the point at p/q of a turn; q must be nonzero."""
    return UnitValue.root(p, q)


ONE = root_of_unity(0, 1)
MINUS_ONE = root_of_unity(1, 2)
I_UNIT = root_of_unity(1, 4)
OMEGA = root_of_unity(1, 3)
OMEGA2 = root_of_unity(2, 3)

def is_simple_unit(u: UnitValue, tol: float = TOL) -> bool:
    """Membership in {1, -1, i, -i, w, w^2, -w, -w^2} (x^4=1 or x^6=1)."""
    if u.turn is not None:
        return u.turn in SIMPLE_TURNS
    z = u.as_complex()
    return any(abs(z - v) <= tol for v in SIMPLE_VALUES)


@lru_cache(maxsize=None)
def _cyclo(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    coeffs = cyclotomic_poly(n, polys=True).all_coeffs()
    return tuple(int(c) for c in reversed(coeffs))


def _reduce(order: int, vec: list[int]) -> tuple[int, ...]:
    """Remainder of the coefficient vector modulo the cyclotomic polynomial."""
    div = _cyclo(order)
    deg = len(div) - 1
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j in range(deg):
                vec[base + j] -= c * div[j]
    return tuple(vec[:deg])


@lru_cache(maxsize=None)
def _reduction_words(order: int) -> np.ndarray:
    """The cyclotomic reduction of every z^e, packed into int64 words.

    Column e of the reduction matrix holds z^e on the power basis of the
    order-th cyclotomic field, the basis of ``CycSum``, so a sum of
    order-th roots of unity is zero exactly when the sum of their
    columns is. A sum of at most six columns has coordinates within
    +-6c, where c bounds the matrix entries; as balanced digits of radix
    12c + 1 they pack into words below 2**62, and a packed sum is zero
    exactly when every coordinate it packs is. The result has one row
    per word and one column per exponent; it is built once per order and
    is read-only.
    """
    if order > ORDER_CAP:
        raise ValueError(f"order overflow: {order} exceeds cap {ORDER_CAP}")
    div = _cyclo(order)
    deg = len(div) - 1
    reduction = np.zeros((deg, order), dtype=np.int64)
    # z^(e+1) is z^e shifted up one place, with the z^deg it spills
    # rewritten through the monic cyclotomic polynomial.
    vec = [1] + [0] * (deg - 1)
    for e in range(order):
        reduction[:, e] = vec
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            vec = [v - top * d for v, d in zip(vec, div)]
    radix = 12 * int(np.abs(reduction).max()) + 1
    per_word = 1
    while radix ** (per_word + 1) < 2**62:
        per_word += 1
    words = np.array(
        [
            radix ** np.arange(len(digits), dtype=np.int64) @ digits
            for digits in np.split(reduction, range(per_word, deg, per_word))
        ]
    )
    words.setflags(write=False)
    return words


def _vanishing(words: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Whether each sum of at most six z^e over the last axis is zero.

    Exponents may lie anywhere in (-order, order): numpy's negative
    indices wrap them mod order.
    """
    return (words[:, exps].sum(axis=-1) == 0).all(axis=0)


class CycSum:
    """Integer combination of order-N roots of unity on the power basis."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[int]):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        deg = len(_cyclo(order)) - 1
        vec = list(coeffs)
        if len(vec) > deg:
            vec.extend(0 for _ in range(max(0, order - len(vec))))
            coeffs = _reduce(order, vec)
        else:
            vec.extend(0 for _ in range(deg - len(vec)))
            coeffs = tuple(vec)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycSum is immutable")

    @classmethod
    def from_exponents(cls, order: int, exponents: Iterable[int]) -> "CycSum":
        vec = [0] * order
        for k in exponents:
            vec[k % order] += 1
        return cls(order, vec)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def conj(self) -> "CycSum":
        vec = [0] * self.order
        for k, c in enumerate(self.coeffs):
            if c:
                vec[(-k) % self.order] += c
        return CycSum(self.order, vec)

    def is_real(self) -> bool:
        return (self - self.conj()).is_zero()

    def _coerced(self, other: "CycSum") -> tuple["CycSum", "CycSum"]:
        if self.order == other.order:
            return self, other
        n = math.lcm(self.order, other.order)
        if n > ORDER_CAP:
            raise ValueError(f"order overflow: lcm {n} exceeds cap {ORDER_CAP}")
        return self.rebase(n), other.rebase(n)

    def rebase(self, order: int) -> "CycSum":
        if order % self.order:
            raise ValueError("new order must be a multiple of the old one")
        step = order // self.order
        vec = [0] * order
        for k, c in enumerate(self.coeffs):
            if c:
                vec[k * step] += c
        return CycSum(order, vec)

    def __add__(self, other: "CycSum") -> "CycSum":
        if not isinstance(other, CycSum):
            return NotImplemented
        a, b = self._coerced(other)
        return CycSum(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other: "CycSum") -> "CycSum":
        if not isinstance(other, CycSum):
            return NotImplemented
        a, b = self._coerced(other)
        return CycSum(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self) -> "CycSum":
        return CycSum(self.order, [-c for c in self.coeffs])

    def __mul__(self, other: "CycSum") -> "CycSum":
        if not isinstance(other, CycSum):
            return NotImplemented
        a, b = self._coerced(other)
        out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return CycSum(a.order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycSum):
            return NotImplemented
        a, b = self._coerced(other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def evaluate(self) -> complex:
        return sum(
            c * cmath.exp(2j * math.pi * k / self.order)
            for k, c in enumerate(self.coeffs)
            if c
        )

    def __repr__(self) -> str:
        terms = [f"{c}*z^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"CycSum({self.order}: {body})"


def unit_sum(values: Iterable[UnitValue], order: int | None = None) -> CycSum:
    """Exact sum of exact unit values as a CycSum of the joint order."""
    vals = list(values)
    n = order if order is not None else 1
    for v in vals:
        if not isinstance(v, UnitValue) or v.turn is None:
            raise ValueError("unit_sum requires exact unit values; use float mode")
        n = math.lcm(n, v.turn.denominator)
        if n > ORDER_CAP:
            raise ValueError(f"order overflow: lcm {n} exceeds cap {ORDER_CAP}")
    return CycSum.from_exponents(
        n, (int(v.turn * n) for v in vals)
    )


def is_zero(s: CycSum) -> bool:
    return s.is_zero()


def is_real(s: CycSum) -> bool:
    return s.is_real()


# --- real number fields and points of the torus ----------------------------

def as_fraction(q) -> Fraction:
    """A sympy Rational as a Fraction."""
    return Fraction(int(q.p), int(q.q))


def _horner(coeffs, x):
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


class Field:
    """Q(theta) = Q[t]/(m) for one real algebraic number theta.

    ``minpoly`` is m, monic and irreducible, as ascending Fractions, and
    theta is its only root in [lo, hi] (lo == hi when theta is
    rational). An element is a polynomial in theta of degree below
    deg m, so it is zero exactly when its remainder mod m is. The sign
    of a non-zero element comes from exact interval Horner on [lo, hi];
    while the enclosure still contains 0 the interval is bisected on
    the sign of m. The enclosure shrinks onto the element's non-zero
    value, so the loop always ends; the refined interval is kept for
    the next test. The element's nearest double comes from the same
    enclosure.
    """

    __slots__ = ("minpoly", "lo", "hi", "_lo_positive")

    def __init__(self, minpoly, lo: Fraction, hi: Fraction):
        self.minpoly = tuple(minpoly)
        self.lo, self.hi = lo, hi
        self._lo_positive = _horner(self.minpoly, lo) > 0

    def __repr__(self) -> str:
        return f"Field({self.minpoly}, {self.lo!r}, {self.hi!r})"

    def __call__(self, *coeffs) -> "FieldElement":
        """The element sum(coeffs[i] * theta^i)."""
        c = list(coeffs)
        d = len(self.minpoly) - 1
        for top in range(len(c) - 1, d - 1, -1):
            lead = c.pop()
            if lead:
                for j in range(d):
                    c[top - d + j] -= lead * self.minpoly[j]
        while c and not c[-1]:
            c.pop()
        return FieldElement(self, tuple(c))

    def _enclose(self, coeffs, enough) -> tuple:
        """Bounds (low, high) on the element with these coefficients, by
        interval Horner on [lo, hi], bisected until ``enough(low, high)``."""
        while True:
            low = high = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                ends = (low * self.lo, low * self.hi, high * self.lo, high * self.hi)
                low, high = min(ends) + c, max(ends) + c
            if enough(low, high):
                return low, high
            mid = (self.lo + self.hi) / 2
            if (_horner(self.minpoly, mid) > 0) == self._lo_positive:
                self.lo = mid
            else:
                self.hi = mid


class FieldElement:
    """An element of a ``Field``; +, - and * take ints and Fractions too."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        terms = other.coeffs if isinstance(other, FieldElement) else (other,)
        return self.field(*(
            x + y for x, y in zip_longest(self.coeffs, terms, fillvalue=0)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return self.field(*(c * other for c in self.coeffs))
        prod = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                prod[i + j] += x * y
        return self.field(*prod)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def sign(self) -> int:
        if not self.coeffs:
            return 0
        low, _ = self.field._enclose(self.coeffs, lambda low, high: low > 0 or high < 0)
        return 1 if low > 0 else -1

    def __float__(self) -> float:
        """The nearest double. Rounding is monotone, and an irrational
        element is no tie (a rational one has a constant enclosure)."""
        if not self.coeffs:
            return 0.0
        low, _ = self.field._enclose(self.coeffs, lambda low, high: float(low) == float(high))
        return float(low)


_X = sympy.Symbol("x")


def real_root_fields(coeffs) -> list:
    """The field of each distinct real root of the rational polynomial
    with these coefficients, constant term first, in increasing order.

    sympy isolates the roots (``intervals``) and factors the polynomial
    (``factor_list``), once each. A root's minimal polynomial is the
    irreducible factor that changes sign strictly on its interval; a
    rational root is its own interval.
    """
    scale = math.lcm(*(Fraction(c).denominator for c in coeffs))
    poly = sympy.Poly([int(c * scale) for c in reversed(coeffs)], _X)
    factors = []
    for factor, _ in poly.factor_list()[1]:
        m = [Fraction(int(c)) for c in reversed(factor.all_coeffs())]
        factors.append(tuple(c / m[-1] for c in m))
    fields = []
    for (lo, hi), _ in poly.intervals():
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo == hi:
            found = [m for m in factors if _horner(m, lo) == 0]
        else:
            found = [m for m in factors if _horner(m, lo) * _horner(m, hi) < 0]
        if len(found) != 1:
            raise AssertionError(f"{len(found)} factors claim the root in [{lo}, {hi}]")
        minpoly = found[0]
        if len(minpoly) == 2:
            lo = hi = -minpoly[0]
        fields.append(Field(minpoly, lo, hi))
    return fields


def in_unit_interval(x: FieldElement) -> bool:
    return (x + 1).sign() >= 0 and (1 - x).sign() >= 0


def sqrt_sum_vanishes(alpha: FieldElement, p: FieldElement,
                      beta: FieldElement, q: FieldElement) -> bool:
    """Whether alpha*sqrt(p) + beta*sqrt(q) = 0, for p, q >= 0.

    Either both terms vanish, or neither does and they cancel: alpha
    and beta have opposite signs and alpha^2 p = beta^2 q.
    """
    first = alpha.is_zero() or p.is_zero()
    second = beta.is_zero() or q.is_zero()
    if first or second:
        return first and second
    return ((alpha * alpha * p - beta * beta * q).is_zero()
            and alpha.sign() == -beta.sign())


class CosinePoint:
    """The point (a, b) = (e^(i*t1), e^(i*t2)) of the torus, exactly.

    c1 = cos t1 and c2 = cos t2 are elements of one ``Field``, both in
    [-1, 1]; s1 and s2 are the signs of the sines, 0 when a sine
    vanishes, so sin t = s*sqrt(r) with r = 1 - c^2. A power a^j is
    T_|j|(c1) + i*sgn(j)*U_(|j|-1)(c1)*sin t1, with the Chebyshev
    polynomials T and U, so an integer Laurent polynomial p in (a, b)
    has, for A, B, C and D in the field,

        Re p = A + s1*s2*B*sqrt(r1*r2),   Im p = s1*C*sqrt(r1) + s2*D*sqrt(r2),

    and each part is zero exactly when one ``sqrt_sum_vanishes`` test
    says so. The Chebyshev values, and their products for each monomial
    a^j*b^k, are built once per point, as far as the polynomials tested
    need them.
    """

    __slots__ = ("field", "c1", "s1", "c2", "s2", "r1", "r2", "r12",
                 "_tables", "_products")

    def __init__(self, c1: FieldElement, s1: int, c2: FieldElement, s2: int):
        self.field = c1.field
        self.c1, self.s1, self.c2, self.s2 = c1, s1, c2, s2
        self.r1, self.r2 = 1 - c1 * c1, 1 - c2 * c2
        self.r12 = self.r1 * self.r2
        one, zero = self.field(1), self.field()
        # per letter, T_n(c) and U_(n-1)(c) at index n
        self._tables = tuple(([one, c], [zero, one]) for c in (c1, c2))
        self._products = {}

    def __repr__(self) -> str:
        c1, c2 = self.c1.coeffs, self.c2.coeffs
        return f"CosinePoint({c1}, {self.s1}, {c2}, {self.s2}, {self.field})"

    def _power(self, letter: int, j: int):
        """cos(j*t) and sin(j*t)/sin(t) at the angle t of one letter."""
        cos, ratio = self._tables[letter]
        while len(cos) <= abs(j):
            twice = 2 * cos[1]
            cos.append(twice * cos[-1] - cos[-2])
            ratio.append(twice * ratio[-1] - ratio[-2])
        return cos[abs(j)], (ratio[j] if j >= 0 else -ratio[-j])

    def _sum(self, p, part: int) -> FieldElement:
        """The sum over the terms c*a^j*b^k of p of c times one product
        of the two letters' powers: cos*cos, ratio*ratio, ratio*cos or
        cos*ratio for ``part`` 0 to 3, in the names of ``_power``."""
        acc = [0] * (len(self.field.minpoly) - 1)
        for (j, k), c in p.coeffs.items():
            products = self._products.get((j, k))
            if products is None:
                cos1, ratio1 = self._power(0, j)
                cos2, ratio2 = self._power(1, k)
                products = self._products[j, k] = (
                    cos1 * cos2, ratio1 * ratio2, ratio1 * cos2, cos1 * ratio2)
            # elements are reduced, so their combinations need no reduction
            for i, x in enumerate(products[part].coeffs):
                acc[i] += c * x
        return self.field(*acc)

    def real_vanishes(self, p) -> bool:
        """Whether Re p(a, b) = 0; ``p`` is a two-variable ``LaurentPoly``."""
        A, B = self._sum(p, 0), -self._sum(p, 1)
        return sqrt_sum_vanishes(A, self.field(1), self.s1 * self.s2 * B, self.r12)

    def imag_vanishes(self, p) -> bool:
        """Whether Im p(a, b) = 0."""
        C, D = self._sum(p, 2), self._sum(p, 3)
        return sqrt_sum_vanishes(self.s1 * C, self.r1, self.s2 * D, self.r2)

    def vanishes(self, p) -> bool:
        """Whether p(a, b) = 0."""
        return self.real_vanishes(p) and self.imag_vanishes(p)
