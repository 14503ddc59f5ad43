"""Named polynomial families, each read off its generating function.

Every family has exactly one authoritative constructor: exponential
coefficient extraction from the product-form generating function.  The
Sheffer pairs returned by the ``*_pair`` builders are derived objects used
for cross-route checks, never the primary definition.

Extracted polynomials are kept in one table per parameter set, grown
through ``special.grown``.  A request for a degree n beyond the table builds
the generating function at truncation order max(n + 1, 2 * order, 8), where
order is the table's current length, and appends the members it lacks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .poly import Poly, Rational, X, as_fraction
from .series import (
    Series,
    binomial_pow,
    exp_neg_series,
    exp_series,
    exp_xt,
    log1p_scaled,
    one_series,
    t_series,
)
from .sheffer import ShefferPair
from .special import grown, lif_series


def _check_a(a: Rational) -> Fraction:
    a = as_fraction(a)
    if a == 0:
        raise ValueError("the family parameter a must be nonzero")
    return a


def _check_int(name: str, value, least: int | None = None) -> None:
    # bool is a subclass of int, and a float equal to an int hashes as it does,
    # so either would read the table that int has filled.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"the {name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"the {name} must be >= {least}")


def _check_lambda(lam: Rational) -> Fraction:
    lam = as_fraction(lam)
    if lam == 1:
        raise ValueError("the family parameter lambda must differ from 1")
    return lam


# -- generating functions ----------------------------------------------------


def poisson_charlier_series(a: Rational, order: int) -> Series:
    """exp(-t) * (1 + t/a)^x."""
    a = _check_a(a)
    return exp_neg_series(order) * binomial_pow(a, X, order)


def lif_log(k: int, a: Rational, hat: bool, order: int) -> Series:
    """Lif_k(log(1 + t/a)), or Lif_k(-log(1 + t/a)) with ``hat``.

    The Lif-log factor of the poly-Cauchy and mixed generating functions.
    """
    log = log1p_scaled(a, order)
    return lif_series(k, order).compose(log * Fraction(-1) if hat else log)


def poly_cauchy_first_series(k: int, order: int) -> Series:
    """(1+t)^(-x) * Lif_k(log(1+t))."""
    return binomial_pow(1, -X, order) * lif_log(k, 1, False, order)


def poly_cauchy_second_series(k: int, order: int) -> Series:
    """(1+t)^x * Lif_k(-log(1+t))."""
    return binomial_pow(1, X, order) * lif_log(k, 1, True, order)


def bernoulli_series(r: int, order: int) -> Series:
    """(t/(exp(t)-1))^r * exp(x*t)."""
    _check_int("order r", r, 0)
    base = (exp_series(order + 1) - one_series(order + 1)).divide_t().inverse()
    return base ** r * exp_xt(order)


def frobenius_euler_series(r: int, lam: Rational, order: int) -> Series:
    """((1-lam)/(exp(t)-lam))^r * exp(x*t)."""
    _check_int("order r", r, 0)
    lam = _check_lambda(lam)
    base = (exp_series(order) - one_series(order) * lam).inverse() * (1 - lam)
    return base ** r * exp_xt(order)


def pc_mixed_series(k: int, a: Rational, order: int) -> Series:
    """exp(-t) * Lif_k(log(1 + t/a)) * (1 + t/a)^(-x)."""
    a = _check_a(a)
    return exp_neg_series(order) * lif_log(k, a, False, order) * binomial_pow(a, -X, order)


def pc_hat_mixed_series(k: int, a: Rational, order: int) -> Series:
    """exp(-t) * Lif_k(-log(1 + t/a)) * (1 + t/a)^x."""
    a = _check_a(a)
    return exp_neg_series(order) * lif_log(k, a, True, order) * binomial_pow(a, X, order)


# -- cached extraction -------------------------------------------------------

_TABLES: dict[tuple, tuple[Poly, ...]] = {}


def _family_poly(key: tuple, builder: Callable[[int], Series], n: int) -> Poly:
    # Member n of the table under key, extracted from builder(order).
    _check_int("family index n", n, 0)

    def extend(polys: list[Poly], n: int) -> None:
        gf = builder(max(n + 1, 2 * len(polys), 8))
        polys += map(gf.egf_coefficient, range(len(polys), gf.order))

    return grown(_TABLES, key, n, extend)[n]


def poisson_charlier(n: int, a: Rational) -> Poly:
    """Poisson-Charlier polynomial of degree n with parameter a."""
    a = _check_a(a)
    return _family_poly(("charlier", a), lambda o: poisson_charlier_series(a, o), n)


def poly_cauchy_first(n: int, k: int) -> Poly:
    """Poly-Cauchy polynomial of the first kind."""
    _check_int("Lif index k", k)
    return _family_poly(("pc1", k), lambda o: poly_cauchy_first_series(k, o), n)


def poly_cauchy_second(n: int, k: int) -> Poly:
    """Poly-Cauchy polynomial of the second kind."""
    _check_int("Lif index k", k)
    return _family_poly(("pc2", k), lambda o: poly_cauchy_second_series(k, o), n)


def bernoulli_poly(n: int, r: int) -> Poly:
    """Bernoulli polynomial of order r."""
    _check_int("order r", r, 0)
    return _family_poly(("bernoulli", r), lambda o: bernoulli_series(r, o), n)


def frobenius_euler(n: int, r: int, lam: Rational) -> Poly:
    """Frobenius-Euler polynomial of order r at parameter lam."""
    lam = _check_lambda(lam)
    _check_int("order r", r, 0)
    return _family_poly(
        ("frobenius", r, lam), lambda o: frobenius_euler_series(r, lam, o), n
    )


def pc_mixed(n: int, k: int, a: Rational) -> Poly:
    """First-kind mixed-type polynomial of degree n (parameters k, a)."""
    a = _check_a(a)
    _check_int("Lif index k", k)
    return _family_poly(("pc-mixed", k, a), lambda o: pc_mixed_series(k, a, o), n)


def pc_hat_mixed(n: int, k: int, a: Rational) -> Poly:
    """Second-kind mixed-type polynomial of degree n (parameters k, a)."""
    a = _check_a(a)
    _check_int("Lif index k", k)
    return _family_poly(
        ("pc-hat-mixed", k, a), lambda o: pc_hat_mixed_series(k, a, o), n
    )


# -- Sheffer pairs -----------------------------------------------------------

DEFAULT_PAIR_ORDER = 12


def _exp_of_delta(inner: Series) -> Series:
    """exp composed with a delta series, at the inner series' order."""
    return exp_series(inner.order).compose(inner)


def monomial_pair(order: int = DEFAULT_PAIR_ORDER) -> ShefferPair:
    """(1, t): the monomial sequence x^n."""
    return ShefferPair(one_series(order), t_series(order), "monomials")


def rising_pair(order: int = DEFAULT_PAIR_ORDER) -> ShefferPair:
    """(1, 1 - exp(-t)): the rising factorials."""
    f = one_series(order) - exp_neg_series(order)
    return ShefferPair(one_series(order), f, "rising factorials")


def falling_pair(order: int = DEFAULT_PAIR_ORDER) -> ShefferPair:
    """(1, exp(t) - 1): the falling factorials."""
    f = exp_series(order) - one_series(order)
    return ShefferPair(one_series(order), f, "falling factorials")


def charlier_pair(a: Rational, order: int = DEFAULT_PAIR_ORDER) -> ShefferPair:
    """The Poisson-Charlier pair (exp(a(exp(t)-1)), a(exp(t)-1))."""
    a = _check_a(a)
    f = (exp_series(order) - one_series(order)) * a
    return ShefferPair(_exp_of_delta(f), f, f"poisson-charlier(a={a})")


def bernoulli_pair(r: int, order: int = DEFAULT_PAIR_ORDER) -> ShefferPair:
    """(((exp(t)-1)/t)^r, t) for the order-r Bernoulli polynomials."""
    _check_int("order r", r, 0)
    g = ((exp_series(order + 1) - one_series(order + 1)).divide_t()) ** r
    return ShefferPair(g, t_series(order), f"bernoulli(r={r})")


def frobenius_pair(
    r: int, lam: Rational, order: int = DEFAULT_PAIR_ORDER
) -> ShefferPair:
    """(((exp(t)-lam)/(1-lam))^r, t) for the Frobenius-Euler polynomials."""
    _check_int("order r", r, 0)
    lam = _check_lambda(lam)
    g = ((exp_series(order) - one_series(order) * lam) * (1 / (1 - lam))) ** r
    return ShefferPair(g, t_series(order), f"frobenius-euler(r={r}, lambda={lam})")


def mixed_pair(k: int, a: Rational, order: int = DEFAULT_PAIR_ORDER) -> ShefferPair:
    """Pair characterizing the first-kind mixed-type polynomials:
    (exp(a(exp(-t)-1)) / Lif_k(-t), a(exp(-t)-1))."""
    a = _check_a(a)
    f = (exp_neg_series(order) - one_series(order)) * a
    g = _exp_of_delta(f) * lif_series(k, order).scale_t(-1).inverse()
    return ShefferPair(g, f, f"pc-mixed(k={k}, a={a})")


def mixed_hat_pair(k: int, a: Rational, order: int = DEFAULT_PAIR_ORDER) -> ShefferPair:
    """Pair characterizing the second-kind mixed-type polynomials:
    (exp(a(exp(t)-1)) / Lif_k(-t), a(exp(t)-1))."""
    a = _check_a(a)
    f = (exp_series(order) - one_series(order)) * a
    g = _exp_of_delta(f) * lif_series(k, order).scale_t(-1).inverse()
    return ShefferPair(g, f, f"pc-hat-mixed(k={k}, a={a})")


def catalogue_pairs(order: int = DEFAULT_PAIR_ORDER) -> list[ShefferPair]:
    """The fixed pair catalogue exercised by the engine-wide property checks."""
    pairs = [
        monomial_pair(order),
        rising_pair(order),
        falling_pair(order),
        charlier_pair(Fraction(2), order),
        bernoulli_pair(1, order),
        bernoulli_pair(3, order),
        frobenius_pair(1, Fraction(2), order),
        frobenius_pair(2, Fraction(1, 2), order),
    ]
    for k, a in ((1, Fraction(1)), (2, Fraction(2)), (0, Fraction(3, 7)), (-1, Fraction(-5, 2))):
        pairs.append(mixed_pair(k, a, order))
        pairs.append(mixed_hat_pair(k, a, order))
    return pairs
