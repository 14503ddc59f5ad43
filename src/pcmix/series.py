"""Truncated formal power series in t with polynomial coefficients.

A series is an order-N jet: ordinary coefficients of t^0 .. t^(N-1), each a
:class:`~pcmix.poly.Poly` in x.  Storage is ordinary coefficients; the
exponential coefficient a_n used by every generating function is recovered
as ``n! * coeffs[n]`` through :meth:`Series.egf_coefficient`.

Arithmetic between two series requires equal order.  Mixing truncation
orders silently is the classic source of wrong identities, so the kernel
refuses instead of coercing; callers truncate explicitly.

Products, compositions and inverses work on integer rows: each coefficient
becomes its numerator tuple over one denominator shared by the whole series,
and every sum of products of rows goes through one truncated-product helper,
``_truncated_product``.  Its one branch reads the row widths: when every row
of both operands has at most one entry (an x-free series, such as every
Sheffer pair), each t^m term is one scalar dot product; otherwise each pair
of rows is convolved in x.  Results are normalised to canonical ``Poly``
form once per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Iterable, Union

from .poly import Poly, Rational, as_fraction, convolve_into, from_parts

Coefficient = Union[Poly, int, Fraction]


class SeriesError(ValueError):
    """Base class for series kernel contract violations."""


class OrderMismatch(SeriesError):
    """Two operands carry different truncation orders."""


class NotInvertible(SeriesError):
    """Multiplicative inverse requested for a non-invertible series."""


class NotDelta(SeriesError):
    """A delta series (order exactly one) was required."""


class OrderExhausted(SeriesError):
    """The truncation order is too small for the requested operation."""


def _as_poly(c: Coefficient) -> Poly:
    if isinstance(c, Poly):
        return c
    return Poly((as_fraction(c),))


def _over_common_denominator(coeffs: tuple[Poly, ...]) -> tuple[list[tuple[int, ...]], int]:
    """Numerator rows of every coefficient over their least common denominator."""
    den = lcm(*(c.den for c in coeffs))
    return [c.nums if c.den == den else tuple(x * (den // c.den) for x in c.nums)
            for c in coeffs], den


def _truncated_product(a: list, b: list, start: int, stop: int) -> list[list[int]]:
    """Rows of the t^start .. t^(stop-1) terms of the product of two row series.

    ``a`` and ``b`` list integer rows (numerators in x), lowest power of t
    first; rows past the end of either read as zero.  Term m is the sum of
    ``a[i] * b[m - i]``, over the product of the operands' denominators.
    """
    scalar = max(map(len, a), default=0) <= 1 and max(map(len, b), default=0) <= 1
    if scalar:
        x = [r[0] if r else 0 for r in a]
        y = [r[0] if r else 0 for r in b]
    out = []
    for m in range(start, stop):
        lo, hi = max(0, m - len(b) + 1), min(m, len(a) - 1)
        if scalar:
            out.append([sum(map(mul, x[lo:hi + 1], reversed(y[m - hi:m - lo + 1])))])
            continue
        pairs = [(a[i], b[m - i]) for i in range(lo, hi + 1) if a[i] and b[m - i]]
        acc = [0] * max((len(u) + len(v) - 1 for u, v in pairs), default=0)
        for u, v in pairs:
            convolve_into(acc, u, v)
        out.append(acc)
    return out


class Series:
    """Immutable truncated power series: ``sum(coeffs[n] * t**n, n < order)``."""

    __slots__ = ("order", "coeffs")

    order: int
    coeffs: tuple[Poly, ...]

    def __init__(self, coeffs: Iterable[Coefficient] = (), order: int | None = None):
        cs = [_as_poly(c) for c in coeffs]
        if order is None:
            order = len(cs)
        if order < 1:
            raise SeriesError("series order must be >= 1")
        if len(cs) > order:
            raise SeriesError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([Poly()] * (order - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    # -- basic structure -------------------------------------------------

    def coefficient(self, n: int) -> Poly:
        """Ordinary coefficient of t**n."""
        if not 0 <= n < self.order:
            raise OrderExhausted(f"coefficient {n} outside order {self.order}")
        return self.coeffs[n]

    def egf_coefficient(self, n: int) -> Poly:
        """n! times the ordinary t**n coefficient."""
        return self.coefficient(n) * factorial(n)

    @property
    def constant_coefficients(self) -> bool:
        """True when no coefficient involves x."""
        return all(c.is_constant for c in self.coeffs)

    @property
    def is_invertible(self) -> bool:
        """Nonzero constant scalar term."""
        c0 = self.coeffs[0]
        return c0.is_constant and not c0.is_zero

    @property
    def is_delta(self) -> bool:
        """Zero constant term and nonzero constant t-coefficient."""
        if not self.coeffs[0].is_zero or self.order < 2:
            return False
        c1 = self.coeffs[1]
        return c1.is_constant and not c1.is_zero

    def _require_same_order(self, other: "Series") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"order {self.order} vs {other.order}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    # -- ring operations -------------------------------------------------

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs), self.order)

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_order(other)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Series", Coefficient]) -> "Series":
        if isinstance(other, (int, Fraction, Poly)):
            factor = _as_poly(other)
            return Series(tuple(c * factor for c in self.coeffs), self.order)
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_order(other)
        a, da = _over_common_denominator(self.coeffs)
        b, db = _over_common_denominator(other.coeffs)
        den = da * db
        return Series([from_parts(row, den) for row in _truncated_product(a, b, 0, self.order)],
                      self.order)

    def __rmul__(self, other: Coefficient) -> "Series":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Series":
        if exponent < 0:
            raise SeriesError("series powers must be >= 0")
        result = one_series(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant scalar term."""
        if not self.is_invertible:
            raise NotInvertible(f"constant term {self.coeffs[0]} is not a nonzero constant")
        # With a_i the rows over den and C the inverse, C_n = c_n den / a_0^(n+1)
        # where c_0 = 1 and c_n = -sum_{i=1..n} a_i a_0^(i-1) c_(n-i).
        a, den = _over_common_denominator(self.coeffs)
        a0 = a[0][0]
        weighted = [()] + [tuple(x * a0 ** (i - 1) for x in row) for i, row in enumerate(a[1:], 1)]
        c = [[1]]
        for n in range(1, self.order):
            c.append([-x for x in _truncated_product(weighted, c, n, n + 1)[0]])
        return Series([from_parts([x * den for x in row], a0 ** (n + 1))
                       for n, row in enumerate(c)], self.order)

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` for t; ``inner`` must have zero constant term."""
        self._require_same_order(inner)
        if not inner.coeffs[0].is_zero:
            raise NotDelta("composition needs an inner series with zero constant term")
        # sum_i f_i g^i over df * dg^(order-1): the power g^i is a row series
        # over dg^i, so f_i is scaled by the remaining dg^(order-1-i).
        order = self.order
        f, df = _over_common_denominator(self.coeffs)
        g, dg = _over_common_denominator(inner.coeffs)
        f = [tuple(x * dg ** (order - 1 - i) for x in row) for i, row in enumerate(f)]
        powers = [[[1]] + [[]] * (order - 1)]
        for i in range(1, order):
            # g^i has no terms below t^i.
            powers.append([[]] * i + _truncated_product(powers[-1], g, i, order))
        den = df * dg ** (order - 1)
        out = []
        for m in range(order):
            # Term m of f times the column g^m[m], ..., g^0[m] is sum_i f_i g^i[m].
            column = [powers[i][m] for i in range(m, -1, -1)]
            out.append(from_parts(_truncated_product(f, column, m, m + 1)[0], den))
        return Series(out, order)

    def revert(self) -> "Series":
        """Compositional inverse of a delta series, by Lagrange inversion.

        ``[t^n] fbar = [t^(n-1)] (t/f)^n / n``.  Since f_1 is a nonzero
        constant, t/f is invertible and the formula holds over Q[x] as over Q.
        """
        if not self.is_delta:
            raise NotDelta("compositional inverse needs a delta series")
        order = self.order
        # The powers (t/f)^n are rows over dh^n; later powers read them up
        # to t^(order-2).
        h, dh = _over_common_denominator(self.divide_t().inverse().coeffs)
        out, power = [Poly()], [[1]]
        for n in range(1, order):
            power = _truncated_product(power, h, 0, order - 1)
            out.append(from_parts(list(power[n - 1]), n * dh ** n))
        return Series(out, order)

    # -- reshaping --------------------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Drop coefficients at and above ``order``."""
        if not 1 <= order <= self.order:
            raise OrderExhausted(f"cannot truncate order {self.order} to {order}")
        return Series(self.coeffs[:order], order)

    def derivative(self) -> "Series":
        """Term-wise t-derivative; the order drops by one."""
        if self.order < 2:
            raise OrderExhausted("cannot differentiate an order-1 series")
        return Series(tuple((n + 1) * c for n, c in enumerate(self.coeffs[1:])), self.order - 1)

    def divide_t(self) -> "Series":
        """Exact division by t; requires a zero constant term, drops the order."""
        if not self.coeffs[0].is_zero:
            raise SeriesError("division by t needs a zero constant term")
        if self.order < 2:
            raise OrderExhausted("cannot divide an order-1 series by t")
        return Series(self.coeffs[1:], self.order - 1)

    def scale_t(self, factor: Rational) -> "Series":
        """Substitute ``factor * t`` for t."""
        f = as_fraction(factor)
        scale = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * scale)
            scale *= f
        return Series(out, self.order)

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            body = str(c) if c.is_constant else f"({c})"
            if n == 0:
                terms.append(body)
            else:
                t = "t" if n == 1 else f"t^{n}"
                terms.append(t if body == "1" else f"{body}*{t}")
        head = " + ".join(terms) if terms else "0"
        return f"{head} + O(t^{self.order})"

    def __repr__(self) -> str:
        return f"Series({self})"


# -- constructors ----------------------------------------------------------


def one_series(order: int) -> Series:
    return Series((Poly((1,)),), order)


def t_series(order: int) -> Series:
    """The series t itself."""
    if order < 2:
        raise SeriesError("t needs order >= 2")
    return Series((Poly(), Poly((1,))), order)


def exp_series(order: int) -> Series:
    """exp(t) truncated: coefficients 1/n!."""
    return Series(tuple(Fraction(1, factorial(n)) for n in range(order)), order)


def exp_neg_series(order: int) -> Series:
    """exp(-t) truncated: coefficients (-1)^n / n!."""
    return Series(
        tuple(Fraction((-1) ** n, factorial(n)) for n in range(order)), order
    )


def log1p_scaled(a: Rational, order: int) -> Series:
    """log(1 + t/a): coefficient of t^n is (-1)^(n-1) / (n * a^n) for n >= 1."""
    a = as_fraction(a)
    if a == 0:
        raise SeriesError("log(1 + t/a) needs a != 0")
    coeffs = [Fraction(0)]
    for n in range(1, order):
        coeffs.append(Fraction((-1) ** (n - 1), n) * a ** -n)
    return Series(coeffs, order)


def binomial_pow(a: Rational, exponent: Union[Poly, Rational], order: int) -> Series:
    """(1 + t/a)**e for a polynomial (or scalar) exponent e.

    The t^n coefficient is the polynomial e*(e-1)*...*(e-n+1) / (n! * a^n).
    """
    a = as_fraction(a)
    if a == 0:
        raise SeriesError("(1 + t/a)^e needs a != 0")
    e = _as_poly(exponent)
    coeffs = [Poly((1,))]
    running = Poly((1,))
    scale = Fraction(1)
    for n in range(1, order):
        running = running * (e - (n - 1))
        scale /= n * a
        coeffs.append(running * scale)
    return Series(coeffs, order)


def exp_xt(order: int) -> Series:
    """exp(x*t): the t^n coefficient is x^n / n!."""
    coeffs = []
    for n in range(order):
        coeffs.append(Poly((0,) * n + (Fraction(1, factorial(n)),)))
    return Series(coeffs, order)
