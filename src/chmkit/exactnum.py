"""Exact arithmetic for unit-modulus scalars and integer sums of roots of unity.

Two layers.  ``UnitValue`` models a single matrix entry: either an exact root
of unity e(p/q) = exp(2*pi*i*p/q) stored as a reduced fraction of a turn, or
a float point on the unit circle.  ``CycSum`` models an integer combination
of roots of unity of a common order N, stored on the power basis
1, z, ..., z^(phi(N)-1) of the N-th cyclotomic field; on that basis a sum is
zero iff every coefficient is zero, which makes orthogonality tests exact.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from sympy import cyclotomic_poly

TOL = 1e-9
DEFAULT_ORDER = 24
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
    def zero(cls, order: int = DEFAULT_ORDER) -> "CycSum":
        return cls(order, ())

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
