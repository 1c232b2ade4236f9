"""Exact arithmetic in the quadratic field Q(sqrt 5).

Elements are stored as ``a + b*sqrt(5)`` with rational ``a``, ``b`` kept in
lowest terms by :class:`fractions.Fraction`.  The golden ratio
``PHI = 1/2 + (1/2)*sqrt(5)`` lives here and satisfies ``PHI*PHI == PHI + 1``.
Signs are decided exactly (never through floating point): for mixed-sign
components the comparison ``a*a <=> 5*b*b`` settles which term dominates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

_RatLike = Union[int, Fraction]
Q5Like = Union[int, Fraction, "Q5"]


def _as_fraction(x: _RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Q5:
    """Immutable value ``a + b*sqrt(5)`` with exact rational coefficients."""

    __slots__ = ("a", "b")

    a: Fraction
    b: Fraction

    def __init__(self, a: _RatLike = 0, b: _RatLike = 0) -> None:
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Q5 is immutable")

    @staticmethod
    def _coerce(x: Q5Like) -> "Q5":
        if isinstance(x, Q5):
            return x
        if isinstance(x, (int, Fraction)):
            return Q5(x, 0)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Q5Like) -> "Q5":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Q5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: Q5Like) -> "Q5":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Q5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: Q5Like) -> "Q5":
        return (-self) + other

    def __neg__(self) -> "Q5":
        return Q5(-self.a, -self.b)

    def __mul__(self, other: Q5Like) -> "Q5":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Q5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Q5":
        # 1/(a+b*sqrt5) = (a-b*sqrt5)/(a^2-5b^2); the norm vanishes only at 0.
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return Q5(self.a / norm, -self.b / norm)

    def __truediv__(self, other: Q5Like) -> "Q5":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: Q5Like) -> "Q5":
        return self.inverse() * other

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Q5)):
            o = self._coerce(other)
            return self.a == o.a and self.b == o.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        if self.b == 0:
            return -1 if self.a < 0 else (1 if self.a > 0 else 0)
        if self.a == 0:
            return -1 if self.b < 0 else 1
        sa = 1 if self.a > 0 else -1
        sb = 1 if self.b > 0 else -1
        if sa == sb:
            return sa
        # opposite component signs: |a| vs sqrt(5)|b| decides
        t = self.a * self.a - 5 * self.b * self.b
        if t == 0:
            raise ArithmeticError("sqrt(5) is irrational; norm cannot vanish")
        return sa if t > 0 else sb

    def __lt__(self, other: Q5Like) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other: Q5Like) -> bool:
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other: Q5Like) -> bool:
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other: Q5Like) -> bool:
        return (self - self._coerce(other)).sign() >= 0

    def to_float(self) -> float:
        """Double approximation ``float(a) + float(b)*sqrt(5)``, by
        :func:`q5_float`.  Exact signs come from :meth:`sign`."""
        a, b = self.a, self.b
        return q5_float(a.numerator * b.denominator,
                        b.numerator * a.denominator,
                        a.denominator * b.denominator)

    __float__ = to_float

    def __repr__(self) -> str:
        return f"Q5({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt5"
        return f"{self.a} + {self.b}*sqrt5"

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    @classmethod
    def from_json(cls, obj: dict) -> "Q5":
        return cls(Fraction(obj["a"]), Fraction(obj["b"]))


_SQRT5 = 5 ** 0.5


def q5_float(a: int, b: int, d: int) -> float:
    """Double approximation of ``(a + b*sqrt5)/d`` for integers, ``d > 0``.

    This is the one place where exact field elements become floats.  ``a/d``
    and ``b/d`` are each rounded correctly (integer true division, as
    ``float(Fraction)`` does) before the sum, so when the two terms nearly
    cancel the result can be far off, even of the wrong sign: at nested
    stacking depth 400 a tiny positive value converts to -3.96e28.
    """
    return a / d + b / d * _SQRT5


ZERO = Q5(0, 0)
ONE = Q5(1, 0)
#: golden ratio (1 + sqrt 5)/2
PHI = Q5(Fraction(1, 2), Fraction(1, 2))
