"""Special number sequences computed by closed forms and recurrences.

Everything here is deliberately independent of the series kernel: Stirling
numbers come from their triangular recurrences, and the Cauchy, Bernoulli
and Frobenius-Euler numbers come from Stirling-based closed forms plus
sequence convolution.  That makes these values usable as oracles against
generating-function extraction, and the identity verifiers build their
right-hand sides from this module only.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable

from .poly import Poly, Rational, as_fraction
from .series import Series


class StirlingTable:
    """Triangular table of Stirling numbers, grown on demand.

    kind "first" holds the signed first kind (coefficients of the falling
    factorial); kind "second" the usual second kind.  Rows already computed
    are kept, so enlarging the table extends rather than rebuilds.
    """

    def __init__(self, kind: str):
        if kind not in ("first", "second"):
            raise ValueError(f"unknown Stirling kind {kind!r}")
        self.kind = kind
        self.rows: list[list[int]] = [[1]]
        self._grow_lock = threading.Lock()

    def value(self, n: int, k: int) -> int:
        if n < 0 or k < 0 or k > n:
            raise ValueError(f"Stirling numbers need 0 <= k <= n, got ({n}, {k})")
        rows = self.rows
        if len(rows) <= n:
            # Growth is serialised and starts from the table published last,
            # so a stale shorter copy never replaces a longer one.  Readers
            # take no lock: the grown copy is published with one assignment.
            with self._grow_lock:
                rows = list(self.rows)
                while len(rows) <= n:
                    m = len(rows) - 1
                    prev = rows[-1]
                    row = [0] * (m + 2)
                    for j in range(m + 2):
                        lower = prev[j - 1] if 1 <= j <= m + 1 else 0
                        same = prev[j] if j <= m else 0
                        if self.kind == "first":
                            row[j] = lower - m * same
                        else:
                            row[j] = lower + j * same
                    rows.append(row)
                self.rows = rows
        return rows[n][k]


_S1_TABLE = StirlingTable("first")
_S2_TABLE = StirlingTable("second")


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: [x^k] of the falling factorial."""
    return _S1_TABLE.value(n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind."""
    return _S2_TABLE.value(n, k)


@lru_cache(maxsize=None)
def falling_poly(n: int) -> Poly:
    """Falling factorial x*(x-1)*...*(x-n+1) as a polynomial."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    p = Poly((1,))
    for i in range(n):
        p = p * Poly((-i, 1))
    return p


@lru_cache(maxsize=None)
def rising_poly(n: int) -> Poly:
    """Rising factorial x*(x+1)*...*(x+n-1) as a polynomial."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    p = Poly((1,))
    for i in range(n):
        p = p * Poly((i, 1))
    return p


# -- convolution powers of ordinary coefficient sequences -------------------

_POWER_CACHE: dict[tuple, tuple[tuple[Fraction, ...], ...]] = {}
_POWER_GROW_LOCK = threading.Lock()


def _convolution_power(key: tuple, base: Callable[[int], Fraction], r: int, n: int) -> Fraction:
    """Ordinary coefficient n of the r-th convolution power of ``base``.

    Row r of the table under ``key`` holds the r-th power; row 1 is ``base``
    itself, so each base value is computed once.  All rows have one length.
    Growth is serialised and starts from the table published last, so no
    table replaces one that is larger in either dimension; the grown copy is
    published with one assignment, so lock-free readers never see a
    half-grown row.
    """
    powers = _POWER_CACHE.get(key)
    if powers is not None and len(powers) > r and len(powers[0]) > n:
        return powers[r][n]
    with _POWER_GROW_LOCK:
        powers = _POWER_CACHE.get(key)
        rows = [list(row) for row in powers] if powers else [[], []]
        rows += [[] for _ in range(r + 1 - len(rows))]
        size = max(n + 1, len(rows[0]))
        for rank, row in enumerate(rows):
            for m in range(len(row), size):
                if rank == 0:
                    row.append(Fraction(1) if m == 0 else Fraction(0))
                elif rank == 1:
                    row.append(base(m))
                else:
                    prev, first = rows[rank - 1], rows[1]
                    row.append(sum((prev[i] * first[m - i] for i in range(m + 1)), Fraction(0)))
        _POWER_CACHE[key] = tuple(tuple(row) for row in rows)
    return rows[r][n]


def _cauchy_first_base(n: int) -> Fraction:
    # [t^n] t/log(1+t) via the integral of the binomial series:
    # (1/n!) * sum_l S1(n, l) / (l + 1).
    total = sum((Fraction(stirling1(n, l), l + 1) for l in range(n + 1)), Fraction(0))
    return total / factorial(n)


def _cauchy_second_base(n: int) -> Fraction:
    # [t^n] t/((1+t)log(1+t)): same integral shifted by one,
    # (1/n!) * sum_l S1(n, l) * (-1)^l / (l + 1).
    total = sum(
        (Fraction(stirling1(n, l) * (-1) ** l, l + 1) for l in range(n + 1)), Fraction(0)
    )
    return total / factorial(n)


def _bernoulli_base(n: int) -> Fraction:
    # [t^n] t/(exp(t)-1): Bernoulli number over n!, with the Worpitzky-style
    # closed form B_n = sum_l (-1)^l l! S2(n, l) / (l + 1).
    total = sum(
        (Fraction((-1) ** l * factorial(l) * stirling2(n, l), l + 1) for l in range(n + 1)),
        Fraction(0),
    )
    return total / factorial(n)


def cauchy_first(n: int, r: int) -> Fraction:
    """Cauchy number of the first kind with order r."""
    if n < 0 or r < 0:
        raise ValueError("Cauchy numbers need n >= 0 and r >= 0")
    return factorial(n) * _convolution_power(("cauchy1",), _cauchy_first_base, r, n)


def cauchy_second(n: int, r: int) -> Fraction:
    """Cauchy number of the second kind with order r."""
    if n < 0 or r < 0:
        raise ValueError("Cauchy numbers need n >= 0 and r >= 0")
    return factorial(n) * _convolution_power(("cauchy2",), _cauchy_second_base, r, n)


def bernoulli_order(n: int, r: int) -> Fraction:
    """Bernoulli number of order r."""
    if n < 0 or r < 0:
        raise ValueError("Bernoulli numbers need n >= 0 and r >= 0")
    return factorial(n) * _convolution_power(("bernoulli",), _bernoulli_base, r, n)


def frobenius_number(n: int, r: int, lam: Rational) -> Fraction:
    """Frobenius-Euler number of order r at parameter lam (lam != 1).

    The order-1 values come from the closed form
    H_n = sum_j (-1)^j j! S2(n, j) / (1 - lam)^j; higher orders by convolution.
    """
    if n < 0 or r < 0:
        raise ValueError("Frobenius-Euler numbers need n >= 0 and r >= 0")
    lam = as_fraction(lam)
    if lam == 1:
        raise ValueError("Frobenius-Euler numbers need lam != 1")

    def base(m: int) -> Fraction:
        total = sum(
            (
                Fraction((-1) ** j * factorial(j) * stirling2(m, j)) * (1 - lam) ** -j
                for j in range(m + 1)
            ),
            Fraction(0),
        )
        return total / factorial(m)

    return factorial(n) * _convolution_power(("frobenius", lam), base, r, n)


def lif_series(k: int, order: int) -> Series:
    """The polylogarithm-factorial series: sum of t^n / (n! (n+1)^k).

    Negative k is allowed; (n+1)^k stays an exact rational.
    """
    coeffs = [
        Fraction(1, factorial(n)) * Fraction(n + 1) ** -k for n in range(order)
    ]
    return Series(coeffs, order)
