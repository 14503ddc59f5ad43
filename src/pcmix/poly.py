"""Dense univariate polynomials over exact rationals.

Polynomials are the coefficient domain of the truncated series in
:mod:`pcmix.series` and the value type of every polynomial family.  All
arithmetic is exact; floats are rejected at construction time.

A polynomial is stored as integer numerators over one shared denominator
(the ``fmpq_poly`` layout of FLINT): ``sum(nums[j] * x**j) / den``.  The
pair is canonical, so equality and hashing compare it directly:

* ``den > 0`` and ``gcd(den, *nums) == 1``;
* the last numerator is nonzero, so ``len(nums) == degree + 1``;
* the zero polynomial is ``nums == ()``, ``den == 1``.

Every operation works on the integers and restores the invariants with one
``gcd`` over its result.  :attr:`Poly.coeffs` is a ``Fraction`` view built
on request, not stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Rational = Union[int, Fraction]


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def convolve_into(acc: list[int], a: tuple[int, ...], b: tuple[int, ...]) -> None:
    """Add the integer convolution of ``a`` and ``b`` into ``acc`` in place.

    ``acc`` must hold at least ``len(a) + len(b) - 1`` entries.
    """
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y


def from_parts(nums: list[int], den: int) -> "Poly":
    """The polynomial ``sum(nums[j] * x**j) / den`` for integers, ``den != 0``.

    Trims trailing zeros and divides out the common gcd, signed like ``den``:
    the one normalisation every operation ends with.
    """
    while nums and not nums[-1]:
        nums.pop()
    p = Poly.__new__(Poly)
    if not nums:
        p.nums, p.den = (), 1
        return p
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    p.nums, p.den = tuple(nums), den
    return p


class Poly:
    """Immutable polynomial in one variable, coefficients lowest degree first.

    ``nums`` and ``den`` hold the canonical scaled-integer form described in
    the module docstring; ``coeffs`` is the matching ``Fraction`` tuple.
    """

    __slots__ = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Rational] = ()):
        fs = [as_fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fs))
        # With den the lcm of reduced denominators the gcd is already 1.
        nums = [f.numerator * (den // f.denominator) for f in fs]
        while nums and not nums[-1]:
            nums.pop()
        self.nums, self.den = tuple(nums), den if nums else 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients as Fractions, lowest degree first; empty for zero."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of x**j (zero beyond the stored degree)."""
        if j < 0:
            raise ValueError("coefficient index must be >= 0")
        return Fraction(self.nums[j], self.den) if j < len(self.nums) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if isinstance(other, Poly):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.nums, p.den = tuple(-c for c in self.nums), self.den
        return p

    def __add__(self, other: Union["Poly", Rational]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, da, b, db = self.nums, self.den, other.nums, other.den
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            da *= sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return from_parts(out, da)

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", Rational]) -> "Poly":
        return self + -(other if isinstance(other, Poly) else Poly((other,)))

    def __rsub__(self, other: Rational) -> "Poly":
        return Poly((other,)) + (-self)

    def __mul__(self, other: Union["Poly", Rational]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            f = as_fraction(other)
            p = f.numerator
            return from_parts([c * p for c in self.nums], self.den * f.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.nums, other.nums
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        convolve_into(out, a, b)
        return from_parts(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("polynomial powers must be >= 0")
        result = Poly((1,))
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, point: Rational) -> Fraction:
        """Evaluate at an exact rational point (integer Horner)."""
        x = as_fraction(point)
        if not self.nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        # After the loop acc = sum(nums[j] * p**j * q**(degree - j)).
        acc, qpow = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, self.den * (qpow // q))

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute ``inner`` for the variable (integer Horner)."""
        nums = self.nums
        if not nums:
            return Poly()
        inums, e = inner.nums, inner.den
        # acc / (den * e**k) after k steps: scale each new constant by e**k.
        acc, epow = [nums[-1]], e
        for c in reversed(nums[:-1]):
            out = [0] * (len(acc) + len(inums) - 1) if inums else [0]
            convolve_into(out, acc, inums)
            out[0] += c * epow
            acc, epow = out, epow * e
        return from_parts(acc, self.den * (epow // e))

    def shifted(self, offset: Rational) -> "Poly":
        """p(x + offset), by an integer Taylor shift.

        With offset = u/v and degree d, v^d p(x + u/v) is Q(v x + u) for
        Q(y) = sum nums[j] v^(d-j) y^j; Ruffini's scheme shifts Q by u in
        integers, and coefficient j of the result then carries v^j.
        """
        f, nums = as_fraction(offset), list(self.nums)
        u, v, d = f.numerator, f.denominator, max(len(nums) - 1, 0)
        if v != 1:
            nums = [c * v ** (d - j) for j, c in enumerate(nums)]
        if u:
            for i in range(d):
                for j in range(d - 1, i - 1, -1):
                    nums[j] += u * nums[j + 1]
        if v != 1:
            nums = [c * v**j for j, c in enumerate(nums)]
        return from_parts(nums, self.den * v**d)

    def derivative(self) -> "Poly":
        return from_parts([i * c for i, c in enumerate(self.nums) if i], self.den)

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for j in range(len(coeffs) - 1, -1, -1):
            c = coeffs[j]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                var = "x" if j == 1 else f"x^{j}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


#: The variable itself, for building polynomials by arithmetic.
X = Poly((0, 1))
