"""Exact field arithmetic over the rationals and over prime fields GF(p).

The containers of the other modules hold raw values: ints or reduced
``fractions.Fraction`` values over Q, residues in ``[0, p)`` over GF(p), so
equality of values is equality of representations.  ``Field.coerce`` turns
an int, a Fraction or a Scalar into a raw value, ``Field.__call__`` wraps
one as a Scalar.  Scalars are immutable and carry their field; mixing
fields raises FieldMismatch.  They serve the API and JSON boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldMismatch(TypeError):
    """Operands live over different fields."""


class DivisionByZero(ZeroDivisionError):
    """Division or inversion of a zero field element."""


class CheckFailed(Exception):
    """A mathematical check failed; the command line exits 1 on it.

    Every such failure also keeps a ValueError or RuntimeError base."""


class CharTwo(CheckFailed, ValueError):
    """The operation assumes characteristic different from 2."""


#: Miller-Rabin with these witnesses is exact for every n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_MODULUS = 2**64


def _is_prime(n):
    """Deterministic Miller-Rabin primality test for 0 <= n < MAX_MODULUS."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a, p):
    """A square root of the quadratic residue a modulo the prime p (Tonelli-Shanks)."""
    if a == 0 or p == 2:
        return a
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class Field:
    """The field of rationals (``Field()``) or GF(p) (``Field(p)``).

    Instances are interned, so fields compare by identity.
    """

    __slots__ = ("p",)
    _cache: dict = {}

    def __new__(cls, p=None):
        if p in cls._cache:
            return cls._cache[p]
        if p is not None:
            if isinstance(p, int) and p >= MAX_MODULUS:
                raise ValueError(f"modulus must be below 2**64, got {p}")
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError(f"modulus must be prime, got {p!r}")
        self = object.__new__(cls)
        self.p = p
        cls._cache[p] = self
        return self

    @property
    def is_rationals(self):
        return self.p is None

    @property
    def characteristic(self):
        return 0 if self.p is None else self.p

    def require_odd_char(self):
        """Reject GF(2); the bracket-level theory assumes char != 2."""
        if self.p == 2:
            raise CharTwo("operation requires characteristic != 2")

    def require_enumerable(self, max_p, what):
        """Reject Q, GF(2) and primes above max_p for a p-element enumeration,
        each as an input error (a ValueError, not a check failure)."""
        if self.p is None:
            raise ValueError(f"{what} need a prime field")
        if self.p == 2:
            raise ValueError(f"{what} need an odd prime field")
        if self.p > max_p:
            raise ValueError(f"{what}: prime {self.p} exceeds the limit {max_p}")

    def coerce(self, value):
        """The raw value of an int, a Fraction (over Q) or a Scalar of this
        field: an int or a Fraction over Q, the residue in [0, p) over
        GF(p).  Matrices, polynomials and tensor elements hold raw values."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatch(f"{value!r} is not over {self!r}")
            return value.v
        if isinstance(value, int):
            return int(value) if self.p is None else value % self.p
        if self.p is None and isinstance(value, Fraction):
            return value
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def inv(self, x):
        """The raw inverse of a nonzero raw value."""
        if not x:
            raise DivisionByZero("inverse of zero")
        return 1 / Fraction(x) if self.p is None else pow(x, -1, self.p)

    def __call__(self, value) -> "Scalar":
        """Wrap an int, Fraction, raw value or same-field Scalar as a Scalar."""
        if isinstance(value, Scalar) and value.field is self:
            return value
        v = self.coerce(value)
        return Scalar(self, Fraction(v) if self.p is None else v)

    @property
    def zero(self):
        return self(0)

    @property
    def one(self):
        return self(1)

    def elements(self):
        """Iterate all elements; only available for prime fields."""
        if self.p is None:
            raise ValueError("cannot enumerate the rationals")
        for r in range(self.p):
            yield Scalar(self, r)

    def __repr__(self):
        return "Q" if self.p is None else f"GF({self.p})"

    def __reduce__(self):
        return (Field, (self.p,))


#: The rational field, shared singleton.
QQ = Field()


def GF(p):
    """The prime field with p elements."""
    return Field(p)


class Scalar:
    """An exact element of Q or GF(p) in canonical form."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatch(
                    f"operands over {self.field!r} and {other.field!r}"
                )
            return other
        if isinstance(other, int):
            return self.field(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return Scalar(self.field, self.v + o.v if p is None else (self.v + o.v) % p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return Scalar(self.field, self.v - o.v if p is None else (self.v - o.v) % p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return Scalar(self.field, self.v * o.v if p is None else (self.v * o.v) % p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        p = self.field.p
        return Scalar(self.field, -self.v if p is None else (-self.v) % p)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.v**n)
        return Scalar(self.field, pow(self.v, n, p))

    def inverse(self):
        return Scalar(self.field, self.field.inv(self.v))

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.v == other.v

    def __hash__(self):
        return hash((id(self.field), self.v))

    def is_square(self):
        """True iff the element is a square in its field.

        Over Q: numerator and denominator of the reduced fraction are both
        perfect squares (negative values are never squares).  Over GF(p):
        Euler's criterion, with 0 counted as a square.
        """
        p = self.field.p
        if p is None:
            f = self.v
            if f < 0:
                return False
            num, den = f.numerator, f.denominator
            return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den
        if self.v == 0 or p == 2:
            return True
        return pow(self.v, (p - 1) // 2, p) == 1

    def sqrt(self):
        """An exact square root, or None when the element is not a square."""
        p = self.field.p
        if p is None:
            if not self.is_square():
                return None
            f = self.v
            return Scalar(self.field, Fraction(math.isqrt(f.numerator), math.isqrt(f.denominator)))
        if not self.is_square():
            return None
        # of the two roots +-r, return the one in [0, p/2]
        r = _sqrt_mod(self.v, p)
        return Scalar(self.field, min(r, p - r))

    def __repr__(self):
        return f"{self}"

    def __str__(self):
        if self.field.p is None and self.v.denominator != 1:
            return f"{self.v.numerator}/{self.v.denominator}"
        return str(int(self.v) if self.field.p is not None else self.v.numerator)
