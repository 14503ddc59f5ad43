"""Special number sequences computed by closed forms and recurrences.

Everything here is deliberately independent of the series kernel: Stirling
numbers come from their triangular recurrences, and the Cauchy, Bernoulli
and Frobenius-Euler numbers come from Stirling-based closed forms raised to
any order by J. C. P. Miller's power recurrence.  That makes these values
usable as oracles against generating-function extraction, and the identity
verifiers build their right-hand sides from this module only.

Every shared table in pcmix is a tuple grown through ``grown``, the one place
that holds the concurrency argument: the Stirling rows and the convolution
powers here, the family members in ``families``.  Each value has one cache:
the factorial polynomials are first-kind Stirling rows, the base values read
whole Stirling rows, and nothing keeps a second copy of a value these tables
hold.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable, Hashable

from .poly import Poly, Rational, as_fraction, from_parts
from .series import Series

_GROW_LOCK = threading.RLock()


def grown(store: dict, key: Hashable, n: int, extend: Callable[[list, int], None]) -> tuple:
    """The tuple published under ``key`` in ``store``, grown to cover index n.

    Reads take no lock.  Growth is serialised by one lock and starts from the
    tuple published last: ``extend(values, n)`` appends to a list copy of it
    until index n exists, and the copy is published as a tuple with one
    assignment.  A reader sees the old tuple or the grown one, never a
    half-grown or shorter one, and cannot write into either.  The lock is
    reentrant because extending one table may grow another (a power table
    reads Stirling rows); ``extend`` must not grow its own key.
    """
    values = store.get(key, ())
    if len(values) > n:
        return values
    with _GROW_LOCK:
        values = store.get(key, ())
        if len(values) <= n:
            grow = list(values)
            extend(grow, n)
            store[key] = values = tuple(grow)
    return values


_STIRLING: dict[bool, tuple[tuple[int, ...], ...]] = {}


def _extend_stirling(second: bool, rows: list[tuple[int, ...]], n: int) -> None:
    # Row m+1 from row m: S(m+1, j) = S(m, j-1) - m S(m, j) for the signed
    # first kind and S(m, j-1) + j S(m, j) for the second.
    if not rows:
        rows.append((1,))
    while len(rows) <= n:
        m = len(rows) - 1
        prev = rows[-1] + (0,)
        rows.append(tuple(
            (prev[j - 1] if j else 0) + (j if second else -m) * prev[j] for j in range(m + 2)
        ))


def stirling_rows(n: int, second: bool = False) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n at least of the signed first kind, or of the second kind.

    The rows are the tuple of tuples published last.
    """
    return grown(_STIRLING, second, n, partial(_extend_stirling, second))


def _stirling(n: int, k: int, second: bool) -> int:
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"Stirling numbers need 0 <= k <= n, got ({n}, {k})")
    return stirling_rows(n, second)[n][k]


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: [x^k] of the falling factorial."""
    return _stirling(n, k, False)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind."""
    return _stirling(n, k, True)


def falling_poly(n: int) -> Poly:
    """Falling factorial x*(x-1)*...*(x-n+1): row n of the signed first kind."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    return from_parts(list(stirling_rows(n)[n]), 1)


def rising_poly(n: int) -> Poly:
    """Rising factorial x*(x+1)*...*(x+n-1): row n of the unsigned first kind."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    return from_parts(list(map(abs, stirling_rows(n)[n])), 1)


# -- numbers of the powers of exponential series -----------------------------

_POWERS: dict[tuple, tuple[Fraction, ...]] = {}


def _stirling_transform(n: int, second: bool, weight: Callable[[int], Fraction]) -> Fraction:
    # sum_l S(n, l) weight(l), S the signed first kind or the second kind,
    # over row n read once.
    row = stirling_rows(n, second)[n]
    return sum((s * weight(l) for l, s in enumerate(row)), Fraction(0))


def _cauchy_base(n: int, second: bool) -> Fraction:
    # n! [t^n] t/log(1+t) via the integral of the binomial series,
    # sum_l S1(n, l) / (l + 1); for the second kind, n! [t^n]
    # t/((1+t)log(1+t)), the same integral shifted by one, which puts
    # (-1)^l in each term.
    return _stirling_transform(n, False, lambda l: Fraction((-1) ** (l * second), l + 1))


def _bernoulli_base(n: int) -> Fraction:
    # n! [t^n] t/(exp(t)-1): the Worpitzky-style closed form
    # B_n = sum_l (-1)^l l! S2(n, l) / (l + 1).
    return _stirling_transform(n, True, lambda l: Fraction((-1) ** l * factorial(l), l + 1))


def _order_row(name: str, key: tuple, base: Callable, n: int, r: int) -> tuple[Fraction, ...]:
    """Entries 0..n at least of v_m = m! [t^m] (sum_m b_m t^m / m!)^r,
    b_m = base(m), as the tuple published last.

    Every base here starts with b_0 = 1.  Each (key, r) has one tuple; the one
    for r = 1 holds the base values, so each is computed once.  The others
    grow one entry at a time by J. C. P. Miller's power recurrence (Knuth,
    TAOCP vol. 2, section 4.7), over the numbers
    m v_m = sum_{j=1..m} ((r+1) j - m) C(m, j) b_j v_(m-j), which gives
    v_m = [m == 0] at r = 0.  ``name`` names the numbers in the error, raised
    before any table is read, for an n or r that is not an int >= 0.
    """
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (n, r)):
        raise ValueError(f"{name} numbers need n >= 0 and r >= 0")

    def extend_base(b: list[Fraction], n: int) -> None:
        b += map(base, range(len(b), n + 1))

    def extend_power(v: list[Fraction], n: int) -> None:
        b = grown(_POWERS, (key, 1), n, extend_base)
        for m in range(len(v), n + 1):
            terms = (((r + 1) * j - m) * comb(m, j) * b[j] * v[m - j] for j in range(1, m + 1))
            v.append(sum(terms, Fraction(0)) / m if m else Fraction(1))

    return grown(_POWERS, (key, r), n, extend_base if r == 1 else extend_power)


def cauchy_row(n: int, r: int, second: bool = False) -> tuple[Fraction, ...]:
    """Cauchy numbers with order r at 0..n at least, of the first kind or the second."""
    return _order_row("Cauchy", ("cauchy2" if second else "cauchy1",),
                      partial(_cauchy_base, second=second), n, r)


def cauchy_first(n: int, r: int) -> Fraction:
    """Cauchy number of the first kind with order r."""
    return cauchy_row(n, r)[n]


def cauchy_second(n: int, r: int) -> Fraction:
    """Cauchy number of the second kind with order r."""
    return cauchy_row(n, r, True)[n]


def bernoulli_row(n: int, r: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers of order r at 0..n at least."""
    return _order_row("Bernoulli", ("bernoulli",), _bernoulli_base, n, r)


def bernoulli_order(n: int, r: int) -> Fraction:
    """Bernoulli number of order r."""
    return bernoulli_row(n, r)[n]


def frobenius_row(n: int, r: int, lam: Rational) -> tuple[Fraction, ...]:
    """Frobenius-Euler numbers of order r at parameter lam != 1, at 0..n at
    least; order 1 from H_n = sum_j (-1)^j j! S2(n, j) / (1 - lam)^j."""
    lam = as_fraction(lam)
    if lam == 1:
        raise ValueError("Frobenius-Euler numbers need lam != 1")

    def base(m: int) -> Fraction:
        return _stirling_transform(m, True, lambda j: (-1) ** j * factorial(j) * (1 - lam) ** -j)

    return _order_row("Frobenius-Euler", ("frobenius", lam), base, n, r)


def frobenius_number(n: int, r: int, lam: Rational) -> Fraction:
    """Frobenius-Euler number of order r at parameter lam (lam != 1)."""
    return frobenius_row(n, r, lam)[n]


def lif_series(k: int, order: int) -> Series:
    """The polylogarithm-factorial series: sum of t^n / (n! (n+1)^k).

    Any int k is allowed, negative too: (n+1)^k stays an exact rational.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"the Lif index k must be an integer, got {k!r}")
    coeffs = [
        Fraction(1, factorial(n)) * Fraction(n + 1) ** -k for n in range(order)
    ]
    return Series(coeffs, order)
