"""Exact nonnegative rational scalars and the ordered-difference primitive.

The scalar type is the semi-field the rest of the library is built over:
addition, multiplication, and division by nonzero values are closed and
exact; subtraction does not exist. Where classical code would write a - b,
callers use :func:`ordered_diff`, which returns the gap c >= 0 together
with which operand was larger, so max(a, b) = min(a, b) + c reconstructs
exactly and no information is lost.

Scalars are immutable and hashable; all operations return new values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from ._backend import RAT, parse_literal
from .errors import NegativeScalar, ResultTooLarge, ZeroInverse

__all__ = [
    "NonnegScalar",
    "Order",
    "OrderedDiff",
    "ZERO",
    "ONE",
    "add",
    "mul",
    "inv",
    "ordered_diff",
    "parse_scalar",
]

class Order(enum.Enum):
    """Which operand of an ordered difference was larger."""

    EQUAL = "equal"
    FIRST_GREATER = "first_greater"
    SECOND_GREATER = "second_greater"


class NonnegScalar:
    """An exact nonnegative rational, stored in lowest terms.

    Accepts ints, scalar literals (``"3"``, ``"3/4"``, ``"0.75"``),
    Fractions, backend rationals, or an explicit numerator/denominator
    pair. Every construction path rejects negative values; there is no
    subtraction operator.
    """

    __slots__ = ("_q",)

    def __init__(self, value, denominator=None):
        if denominator is not None:
            q = RAT(value, denominator)
        elif isinstance(value, NonnegScalar):
            q = value._q
        elif isinstance(value, str):
            q = _parse_literal(value)
        elif isinstance(value, float):
            raise TypeError(
                "floats are not accepted implicitly; use a decimal string "
                "or NonnegScalar.from_float for an explicit exact conversion"
            )
        else:
            q = RAT(value)
        if q < 0:
            raise NegativeScalar(f"negative value not representable: {q}")
        self._q = q

    @classmethod
    def _wrap(cls, q):
        """Wrap a backend rational already known to be >= 0 (internal)."""
        obj = object.__new__(cls)
        obj._q = q
        return obj

    @classmethod
    def from_float(cls, x: float) -> "NonnegScalar":
        """Exact conversion of a nonnegative binary float."""
        if x < 0 or x != x or x in (float("inf"),):
            raise NegativeScalar(f"not a finite nonnegative float: {x}")
        return cls._wrap(RAT(Fraction(x)))

    @property
    def numerator(self) -> int:
        return self._q.numerator

    @property
    def denominator(self) -> int:
        return self._q.denominator

    @property
    def is_zero(self) -> bool:
        return self._q == 0

    @property
    def literal(self) -> str:
        """Canonical serialized form, always numerator/denominator."""
        return f"{self._q.numerator}/{self._q.denominator}"

    def inv(self) -> "NonnegScalar":
        """Multiplicative inverse; raises ZeroInverse on zero."""
        if self._q == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return NonnegScalar._wrap(1 / self._q)

    def __add__(self, other):
        if not isinstance(other, NonnegScalar):
            return NotImplemented
        return NonnegScalar._wrap(self._q + other._q)

    def __mul__(self, other):
        if not isinstance(other, NonnegScalar):
            return NotImplemented
        return NonnegScalar._wrap(self._q * other._q)

    def __truediv__(self, other):
        if not isinstance(other, NonnegScalar):
            return NotImplemented
        if other._q == 0:
            raise ZeroInverse("division by zero")
        return NonnegScalar._wrap(self._q / other._q)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return NonnegScalar._wrap(self._q ** exponent)

    def __sub__(self, other):
        raise TypeError(
            "subtraction is not defined on nonnegative scalars; "
            "use ordered_diff(a, b) to obtain the gap and the order"
        )

    __rsub__ = __sub__

    def __eq__(self, other):
        if isinstance(other, NonnegScalar):
            return self._q == other._q
        if isinstance(other, int):
            return self._q == other
        return NotImplemented

    def __hash__(self):
        return hash(self._q)

    def __lt__(self, other):
        if isinstance(other, NonnegScalar):
            return self._q < other._q
        if isinstance(other, int):
            return self._q < other
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, NonnegScalar):
            return self._q <= other._q
        if isinstance(other, int):
            return self._q <= other
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, NonnegScalar):
            return self._q > other._q
        if isinstance(other, int):
            return self._q > other
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, NonnegScalar):
            return self._q >= other._q
        if isinstance(other, int):
            return self._q >= other
        return NotImplemented

    def __float__(self):
        """The nearest float, or ResultTooLarge past float range."""
        try:
            return self._q.numerator / self._q.denominator
        except OverflowError:
            raise ResultTooLarge("a value is too large for its float view") from None

    def __bool__(self):
        return self._q != 0

    def __str__(self):
        return self.literal

    def __repr__(self):
        return f"NonnegScalar({self.literal!r})"


def _parse_literal(text: str):
    """Parse the scalar literal grammar: INT, INT/INT, or DECIMAL (exact)."""
    if text.strip().startswith("-"):
        raise NegativeScalar(f"negative literal not representable: {text.strip()!r}")
    return parse_literal(text)


def parse_scalar(text: str) -> NonnegScalar:
    """Parse a scalar literal into a NonnegScalar."""
    return NonnegScalar._wrap(_parse_literal(text))


ZERO = NonnegScalar(0)
ONE = NonnegScalar(1)


@dataclass(frozen=True)
class OrderedDiff:
    """Gap plus order: max(a, b) = min(a, b) + gap, with gap = 0 iff a = b."""

    gap: NonnegScalar
    order: Order

    def __post_init__(self):
        if self.order is Order.EQUAL and not self.gap.is_zero:
            raise ValueError("order EQUAL requires a zero gap")
        if self.order is not Order.EQUAL and self.gap.is_zero:
            raise ValueError("a zero gap requires order EQUAL")


def add(a: NonnegScalar, b: NonnegScalar) -> NonnegScalar:
    """Exact sum."""
    return a + b


def mul(a: NonnegScalar, b: NonnegScalar) -> NonnegScalar:
    """Exact product; zero iff either factor is zero."""
    return a * b


def inv(a: NonnegScalar) -> NonnegScalar:
    """Multiplicative inverse of a nonzero scalar."""
    return a.inv()


def ordered_diff(a: NonnegScalar, b: NonnegScalar) -> OrderedDiff:
    """The gap c >= 0 with max(a, b) = min(a, b) + c, tagged with the order.

    This is the library's replacement for subtraction: the gap alone is the
    symmetric distance, and the tag preserves which side was larger.
    """
    qa, qb = a._q, b._q
    if qa == qb:
        return OrderedDiff(ZERO, Order.EQUAL)
    if qa > qb:
        return OrderedDiff(NonnegScalar._wrap(qa - qb), Order.FIRST_GREATER)
    return OrderedDiff(NonnegScalar._wrap(qb - qa), Order.SECOND_GREATER)


def _gap(a: NonnegScalar, b: NonnegScalar) -> NonnegScalar:
    """Gap without the order tag. Internal: public callers go through
    ordered_diff so the order information is never silently dropped."""
    qa, qb = a._q, b._q
    if qa >= qb:
        return NonnegScalar._wrap(qa - qb)
    return NonnegScalar._wrap(qb - qa)
