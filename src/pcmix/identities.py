"""Verifiers for the catalogued identities, by exact polynomial equality.

Every verifier computes its left side from the family's generating function
and its right side from scratch: special-number tables, binomial weights,
rational powers, and point evaluations of family members.  The right side
never re-runs the extraction that produced the left side.

Most identities come in a first-kind / second-kind pair that differs only in
the family, sign parities, the shift direction or the factorial basis; such
a pair shares one verifier whose ``hat`` argument selects the second kind.

The catalogue has two tiers.  Core identities must hold exactly as stated.
Audit identities are checked twice: once exactly as printed in the source
statement, once in the form their own derivation chain produces; the result
records both statuses and counts as verified when either form holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, lcm, perm
from operator import mul
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import families as fam
from .poly import Poly, Rational, X, as_fraction, from_parts, monomial
from .series import Series, binomial_pow, exp_neg_series, exp_series, log1p_scaled
from .sheffer import operator_apply
from .special import (
    bernoulli_order,
    cauchy_first,
    cauchy_second,
    falling_poly,
    frobenius_number,
    lif_series,
    rising_poly,
    stirling1,
    stirling2,
)


class ParameterError(ValueError):
    """A verification request outside an identity's parameter domain."""


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one identity check at one parameter point."""

    identity: str
    n: int
    params: dict
    equal: bool
    lhs: Optional[Poly] = None
    rhs: Optional[Poly] = None
    note: Optional[str] = None
    as_printed: Optional[bool] = None
    derivation_form: Optional[bool] = None


@dataclass(frozen=True)
class Grid:
    """Declarative parameter grid for verify_grid."""

    a_values: tuple[Fraction, ...]
    k_values: tuple[int, ...]
    s_values: tuple[int, ...]
    lam_values: tuple[Fraction, ...]


DEFAULT_GRID = Grid(
    a_values=(Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 7), Fraction(-5, 2)),
    k_values=(-2, -1, 0, 1, 2, 3),
    s_values=(0, 1, 2, 3),
    lam_values=(Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5, 3)),
)


# -- building blocks ----------------------------------------------------------
#
# ``hat`` is False for the first-kind mixed family and True for the second.
# Members and their point values are looked up through the families module at
# call time: its extraction tables are their only cache.  The derivative
# remainder shared by T6, E60 and E61 is read the same way, from a table of
# its own.  Three memos remain, each for a value many grid points share that
# costs far more than a lookup: the Bernoulli basis (T8/E74) and the
# Frobenius-Euler basis (T9/E77), keyed by degree and order only, and the Lif
# logarithmic-derivative ratio (E54/E55), one series inverse per (k, order).
#
# Right sides are summed in integers, the way Poly stores its coefficients.
# The quadratic and deeper scalar sums (the Stirling step, the T5/E48
# quadruple sum, the point-value transforms of T8/E74, T9 and E77) bring
# their inputs (point values, special numbers, powers of a = p/q and of lam)
# to integer numerators over one denominator per check and build one
# Fraction or one Poly, through from_parts, at the end.  _combine sums
# polynomials with rational weights the same way, in one integer list.


def _mixed(n: int, k: int, a: Fraction, hat: bool) -> Poly:
    return (fam.pc_hat_mixed if hat else fam.pc_mixed)(n, k, a)


def _mixed_shifted(n: int, k: int, a: Fraction, hat: bool) -> Poly:
    # The argument moves by +1 for the first kind and by -1 for the second.
    return _mixed(n, k, a, hat).shifted(-1 if hat else 1)


def _factorial_poly(m: int, hat: bool) -> Poly:
    # Rising factorials pair with the first kind, falling ones with the second.
    return (falling_poly if hat else rising_poly)(m)


@lru_cache(maxsize=None)
def _bernoulli_basis(m: int, s: int) -> Poly:
    # Appell expansion over the number table, independent of the family GF.
    return Poly([comb(m, j) * bernoulli_order(m - j, s) for j in range(m + 1)])


@lru_cache(maxsize=None)
def _frobenius_basis(m: int, s: int, lam: Fraction) -> Poly:
    return Poly([comb(m, j) * frobenius_number(m - j, s, lam) for j in range(m + 1)])


def _over_one_den(values: Sequence[Fraction]) -> tuple[list[int], int]:
    # Integer numerators of values over their least common denominator.
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _poly_over(nums: list[int], den: int) -> Poly:
    # sum_j nums[j] x^j / den for a nonzero den of either sign.
    if den < 0:
        nums, den = [-c for c in nums], -den
    return from_parts(nums, den)


def _combine(terms: Sequence[tuple[Poly, Rational]], den: int = 1) -> Poly:
    # sum_i w_i p_i / den over the pairs (p_i, w_i), accumulated as one integer
    # list over the lcm of the terms' denominators.
    dens = [w.denominator * p.den for p, w in terms]
    common = lcm(*dens)
    acc = [0] * max((len(p.nums) for p, _ in terms), default=0)
    for (p, w), d in zip(terms, dens):
        w = w.numerator * (common // d)
        for j, c in enumerate(p.nums):
            acc[j] += w * c
    return _poly_over(acc, common * den)


def _member_values(members: Sequence[Poly], weights: Sequence[int]) -> tuple[list[int], int]:
    # sum_j weights[j] [x^j] P for each member P, over one denominator; the
    # weights (x0^j)_j give the point values P(x0) at an integer x0.
    den = lcm(*(p.den for p in members))
    values = [sum(map(mul, p.nums, weights)) * (den // p.den) for p in members]
    return values, den


def _powers(x: int, n: int) -> list[int]:
    return [x**j for j in range(n + 1)]


def _inverse_powers(top: int, k: int) -> tuple[list[int], int]:
    # e^-k at index e = 1..top as integers over one denominator: lcm(1..top)^k
    # when k > 0, and 1 when k <= 0, where e^-k is an integer already.
    if k <= 0:
        return [e**-k for e in range(top + 1)], 1
    scale = lcm(*range(1, top + 1))
    return [0] + [(scale // e) ** k for e in range(1, top + 1)], scale**k


def _stirling_sum(
    n: int, ms: Sequence[int], a: Fraction, values: Sequence[int], den: int
) -> tuple[list[int], int]:
    # For each m in ms, sum_{l=0}^{n-m} C(n, l) S1(n-l, m) a^-(n-l) values[l] / den:
    # the umbral connection step through signed first-kind Stirling numbers,
    # with values[l] a point value of the l-th family member (or a sum of
    # them).  T3/T3H, T4/E41, T8/E74, T9, E77, T7/E67 and the printed tail of
    # E54/E55 reach their right sides through it.  With a = p/q,
    # a^-(n-l) = q^(n-l) p^l / p^n, so each sum is an integer dot product over
    # the one denominator p^n den returned with the numerators (of either
    # sign).  Empty, hence 0, when m > n.
    p, q = a.numerator, a.denominator
    weights = [comb(n, l) * q ** (n - l) * p**l * values[l] for l in range(n - min(ms) + 1)]
    sums = [
        sum(stirling1(n - l, m) * weights[l] for l in range(n - m + 1)) for m in ms
    ]
    return sums, p**n * den


def _stirling_expansion(
    n: int, a: Fraction, values: Sequence[int], den: int, basis: Callable, signed: bool
) -> Poly:
    # sum_m c_m basis(m), c_m the Stirling sum over values / den, negated at
    # odd m if signed: one integer accumulation over one denominator.
    sums, den = _stirling_sum(n, range(n + 1), a, values, den)
    terms = [(basis(m), -c if signed and m % 2 else c) for m, c in enumerate(sums) if c]
    return _combine(terms, den)


@lru_cache(maxsize=None)
def _lif_log_ratio(k: int, order: int) -> Series:
    # Lif_k'(-t) / Lif_k(-t): the logarithmic-derivative factor the operator
    # recurrence produces for the mixed-type pairs.
    prime_neg = lif_series(k, order + 1).derivative().scale_t(-1)
    return prime_neg * lif_series(k, order).scale_t(-1).inverse()


def _mixed_tail_series(k: int, a: Fraction, hat: bool, order: int) -> Series:
    # exp(-t) * d/dt[Lif_k(+-log(1+t/a))] * (1+t/a)^(-+x), upper signs for the
    # first kind: the product-rule remainder term in the derivative-functional
    # split of the mixed generating function.
    log = log1p_scaled(a, order + 1)
    if hat:
        log = log * Fraction(-1)
    lif_log = lif_series(k, order + 1).compose(log)
    power = binomial_pow(a, X if hat else -X, order)
    return exp_neg_series(order) * lif_log.derivative() * power


def _mixed_tail(n: int, k: int, a: Fraction, hat: bool) -> Poly:
    # The egf coefficient n of the remainder series, from a family table.
    builder = partial(_mixed_tail_series, k, a, hat)
    return fam._family_poly(("mixed-tail", k, a, hat), builder, n)


def _y_samples(n: int) -> list[Fraction]:
    # Five fixed points, extended to n+1 distinct rationals so that the
    # degree-n two-variable identity is pinned exactly, not probabilistically.
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    points += [Fraction(-2), Fraction(3), Fraction(-3)]
    half = 3
    while len(points) < n + 1:
        points.append(Fraction(half, 2))
        half += 2
    return points[: max(5, n + 1)]


# -- outcome helpers ----------------------------------------------------------
#
# A checker returns the keyword fields of VerificationResult that its outcome
# sets; verify() adds the identity, n and parameters.  Both sides are kept
# only on a mismatch.


def _outcome(equal: bool, lhs: Poly, rhs: Poly, **fields) -> dict:
    if equal:
        return {"equal": True, **fields}
    return {"equal": False, "lhs": lhs, "rhs": rhs, **fields}


def _plain(lhs: Poly, rhs: Poly, note: str | None = None) -> dict:
    return _outcome(lhs == rhs, lhs, rhs, note=note)


def _audited(lhs: Poly, printed: Poly, derived: Poly) -> dict:
    as_printed = lhs == printed
    derivation = lhs == derived
    if as_printed and derivation:
        note = "holds as printed and in derivation form"
    elif derivation:
        note = "printed form fails; derivation form holds"
    elif as_printed:
        note = "holds as printed; derivation form fails"
    else:
        note = "both forms fail"
    return _outcome(
        as_printed or derivation, lhs, derived,
        note=note, as_printed=as_printed, derivation_form=derivation,
    )


# -- core verifiers -----------------------------------------------------------


def _check_t1(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Theorem 1; with hat, equation (30).
    cauchy = fam.poly_cauchy_second if hat else fam.poly_cauchy_first
    rhs = _combine([(cauchy(l, k), comb(n, l) * (-1) ** (n - l) * a**-l) for l in range(n + 1)])
    return _plain(_mixed(n, k, a, hat), rhs)


def _check_p2(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Proposition 2; with hat, equation (31) re-indexed by l -> n-l.  The
    # first kind convolves with the Poisson-Charlier polynomials at -x.
    cauchy = fam.poly_cauchy_second if hat else fam.poly_cauchy_first
    terms = []
    for l in range(n + 1):
        w = comb(n, l) * cauchy(n - l, k)(0) * a ** -(n - l)
        charlier = fam.poisson_charlier(l, a)
        terms.append((charlier if hat else charlier.compose(-X), w))
    return _plain(_mixed(n, k, a, hat), _combine(terms))


def _stirling_triple_sum(n: int, k: int, a: Fraction, hat: bool, offset: int) -> Poly:
    # The coefficient of x^j is the sum over m >= j and l of
    # sign * C(n, l) * S1(n-l, m) * a^-(n-l) * C(m, j) * (m-j+offset)^(-k),
    # where the sign parity is l+j for the first kind and l+m+j for the second.
    # The l-sum is the Stirling sum over (-1)^l and does not depend on j.
    signs = [(-1) ** l for l in range(n + 1)]
    sums, den = _stirling_sum(n, range(n + 1), a, signs, 1)
    inner = [(-1) ** (m * hat) * c for m, c in enumerate(sums)]
    powers, scale = _inverse_powers(n + offset, k)
    totals = []
    for j in range(n + 1):
        total = sum(
            comb(m, j) * powers[m - j + offset] * inner[m] for m in range(j, n + 1) if inner[m]
        )
        totals.append(-total if j % 2 else total)
    return _poly_over(totals, den * scale)


def t3_polynomial(n: int, k: int, a: Rational, hat: bool = False) -> Poly:
    """The explicit triple-sum formula for the first-kind mixed polynomial,
    or for the second-kind one when ``hat`` is true."""
    return _stirling_triple_sum(n, k, as_fraction(a), hat, 1)


def _check_t3(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Theorem 3; with hat, the remark after it.
    return _plain(_mixed(n, k, a, hat), t3_polynomial(n, k, a, hat))


def _check_t4(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Theorem 4; with hat, equation (41), which has no (-1)^l.
    members = [_mixed(l, k, a, hat) for l in range(n + 1)]
    values, den = _member_values(members, _powers(0, n))
    rhs = _stirling_expansion(n, a, values, den, monomial, not hat)
    return _plain(members[n], rhs)


def _check_t5(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Theorem 5; with hat, equation (48).  The order-n Bernoulli expansions
    # of the two kinds differ only in the sign pattern and the overall (-1)^n.
    # The coefficient of x^m is a^-n times the sum over r, l, j of
    # sign * C(n-1, r) B_r^(n) a^l C(n-r, j+l) C(n-r-j-l, m) S2(j+l, l)
    # (n-r-j-l-m+1)^-k, the sign parity l+m for the first kind and r+j+m for
    # the second.  Summed in integers: B_r^(n) over one denominator, a^l as
    # p^l q^(n-l) / q^n with a = p/q, and the powers of n-r-j-l-m+1 as
    # _inverse_powers gives them; the q^n cancels against a^-n = q^n / p^n.
    p, q = a.numerator, a.denominator
    bernoulli, den = _over_one_den([bernoulli_order(r, n) for r in range(n)])
    powers, scale = _inverse_powers(n + 1, k)
    a_powers = [p**l * q ** (n - l) for l in range(n + 1)]
    coefs = []
    for m in range(n + 1):
        total = 0
        # r = n would carry C(n-1, n) = 0.
        for r in range(min(n - m, n - 1) + 1):
            w_r = comb(n - 1, r) * bernoulli[r]
            for l in range(n - m - r + 1):
                w_rl = w_r * a_powers[l]
                for j in range(n - m - r - l + 1):
                    s2 = stirling2(j + l, l)
                    if not s2:
                        continue
                    term = (
                        w_rl
                        * comb(n - r, j + l)
                        * comb(n - r - j - l, m)
                        * s2
                        * powers[n - r - j - l - m + 1]
                    )
                    parity = (r + j + m) if hat else (l + m)
                    total += -term if parity & 1 else term
        coefs.append(total)
    den *= scale * p**n * ((-1) ** n if hat else 1)
    return _plain(_mixed(n, k, a, hat), _poly_over(coefs, den))


def _check_e49(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Equation (49) against rising factorials scaled by (-1/a)^(n-j); with
    # hat, equation (50) against falling factorials scaled by (1/a)^(n-j).
    members = [_mixed(j, k, a, hat) for j in range(n + 1)]
    step = Fraction(1 if hat else -1) / a
    for y in _y_samples(n):
        lhs = members[n].compose(Poly((y, 1)))
        rhs = _combine([
            (members[j], comb(n, j) * step ** (n - j) * _factorial_poly(n - j, hat)(y))
            for j in range(n + 1)
        ])
        if lhs != rhs:
            return _outcome(False, lhs, rhs, note=f"first failing sample y = {y}")
    return _outcome(True, None, None)


def _check_e51(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Equation (51) with the backward shift exp(-t); with hat, equation (52)
    # with the forward shift exp(t).
    p = _mixed(n, k, a, hat)
    shift = exp_series(n + 1) if hat else exp_neg_series(n + 1)
    lhs = operator_apply(shift, p) - p
    rhs = _mixed(n - 1, k, a, hat) * (Fraction(n) / a)
    note = (
        "checked with both difference terms in the second-kind family; the "
        "printed statement drops a hat on the subtracted term"
    )
    return _plain(lhs, rhs, note if hat else None)


def _check_e68(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Equation (68); with hat, equation (69), whose weights carry one more
    # factor of -1.
    lhs = _mixed(n, k, a, hat).derivative()
    lead = Fraction(factorial(n) * (-1) ** n)
    rhs = _combine([
        (_mixed(l, k, a, hat),
         lead * Fraction((-1) ** (l + hat), (n - l) * factorial(l)) * a ** -(n - l))
        for l in range(n)
    ])
    return _plain(lhs, rhs)


def _check_t8(n: int, k: int, a: Fraction, s: int, *, hat: bool) -> dict:
    # Theorem 8 with first-kind Cauchy numbers; with hat, equation (74) with
    # second-kind ones and no (-1)^m.
    # values[l] = sum_i C(l, i) a^-i C_i^(s) P_{l-i}(s), summed in integers
    # with a^-i = q^i p^(n-i) / p^n for a = p/q.
    members = [_mixed(l, k, a, hat) for l in range(n + 1)]
    at_s, den = _member_values(members, _powers(s, n))
    cauchy = cauchy_second if hat else cauchy_first
    weights, cauchy_den = _over_one_den([cauchy(i, s) for i in range(n + 1)])
    p, q = a.numerator, a.denominator
    weights = [w * q**i * p ** (n - i) for i, w in enumerate(weights)]
    values = [
        sum(comb(l, i) * weights[i] * at_s[l - i] for i in range(l + 1)) for l in range(n + 1)
    ]
    den *= cauchy_den * p**n
    rhs = _stirling_expansion(n, a, values, den, lambda m: _bernoulli_basis(m, s), not hat)
    return _plain(members[n], rhs)


def _check_t9(n: int, k: int, a: Fraction, s: int, lam: Fraction) -> dict:
    # The printed statement's binomial weight comb(l, i) disagrees with the
    # identity's own derivation, which carries comb(s, i); the derivation
    # form is the one that holds and is what this verifier implements.
    # values[l] = sum_i C(s, i) (l)_i step^i P_{l-i}(s), step = -lam/((1-lam) a),
    # summed in integers over the step's denominator to the power s.
    members = [_mixed(l, k, a, False) for l in range(n + 1)]
    at_s, den = _member_values(members, _powers(s, n))
    step = -lam / ((1 - lam) * a)
    sp, sq = step.numerator, step.denominator
    weights = [comb(s, i) * sp**i * sq ** (s - i) for i in range(s + 1)]
    values = [
        sum(perm(l, i) * weights[i] * at_s[l - i] for i in range(min(s, l) + 1))
        for l in range(n + 1)
    ]
    den *= sq**s
    rhs = _stirling_expansion(n, a, values, den, lambda m: _frobenius_basis(m, s, lam), True)
    return _plain(members[n], rhs)


def _check_e77(n: int, k: int, a: Fraction, s: int, lam: Fraction) -> dict:
    # values[l] = (1-lam)^-s sum_i C(s, i) (-lam)^(s-i) P^_l(i).  With
    # lam = u/v this is sum_j [x^j] P^_l * moments[j] / (v-u)^s, where
    # moments[j] = sum_i C(s, i) (-u)^(s-i) v^i i^j is one integer per j.
    members = [_mixed(l, k, a, True) for l in range(n + 1)]
    u, v = lam.numerator, lam.denominator
    weights = [comb(s, i) * (-u) ** (s - i) * v**i for i in range(s + 1)]
    moments = [sum(w * i**j for i, w in enumerate(weights)) for j in range(n + 1)]
    values, den = _member_values(members, moments)
    den *= (v - u) ** s
    rhs = _stirling_expansion(n, a, values, den, lambda m: _frobenius_basis(m, s, lam), False)
    return _plain(members[n], rhs)


def _check_t10(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Theorem 10 over rising factorials; with hat, the remark after it, over
    # falling factorials.
    base = a if hat else -a
    rhs = _combine([
        (_factorial_poly(m, hat), comb(n, m) * base**-m * _mixed(n - m, k, a, hat)(0))
        for m in range(n + 1)
    ])
    return _plain(_mixed(n, k, a, hat), rhs)


# -- audit verifiers ----------------------------------------------------------


def _recurrence_head(n: int, k: int, a: Fraction, hat: bool) -> Poly:
    # -P_{n-1}(x) -+ (x/a) P_{n-1}(x+-1), upper signs for the first kind: the
    # head shared by the recurrences (54)-(55), T6 and equations (60)-(62).
    sign = -1 if hat else 1
    shifted = _mixed_shifted(n - 1, k, a, hat)
    return -_mixed(n - 1, k, a, hat) - X * shifted * (Fraction(sign) / a)


def _check_e54(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Equation (54); with hat, equation (55).  The printed closing sum is a
    # triple sum in the (x+1) or (x-1) power basis with the Lif index
    # shifted by one.
    sign = -1 if hat else 1
    head = _recurrence_head(n + 1, k, a, hat)
    tail = _stirling_triple_sum(n, k, a, hat, 2).shifted(sign) * (1 / a)
    printed = head - tail if hat else head + tail
    ratio = _lif_log_ratio(k, n + 1)
    split = operator_apply(ratio, _mixed_shifted(n, k, a, hat))
    derived = head + split * (Fraction(sign) / a)
    return _audited(_mixed(n + 1, k, a, hat), printed, derived)


def _check_t6(n: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Theorem 6; with hat, equation (61).
    head = _recurrence_head(n, k, a, hat)
    terms = []
    for l in range(n):
        w = comb(n, l) * cauchy_second(l, 1) * a ** -l
        terms += [(_mixed(n - l, k - 1, a, hat), w), (_mixed(n - l, k, a, hat), -w)]
    printed = head + _combine(terms, n)
    derived = head + _mixed_tail(n - 1, k, a, hat)
    return _audited(_mixed(n, k, a, hat), printed, derived)


def _check_e60(n: int, k: int, a: Fraction) -> dict:
    head = _recurrence_head(n, k, a, False)
    terms = []
    for l in range(n):
        w = comb(n, l) * cauchy_first(l, 1) * a ** -l
        terms += [
            (_mixed_shifted(n - l, k - 1, a, False), w), (_mixed_shifted(n - l, k, a, False), -w)
        ]
    printed = head + _combine(terms, n)
    derived = head + _mixed_tail(n - 1, k, a, False)
    return _audited(_mixed(n, k, a, False), printed, derived)


def _check_e62(n: int, k: int, a: Fraction) -> dict:
    # As printed, the first difference term carries the fixed index n-1
    # where the parallel first-kind statement has n-l; the derivation form
    # restores n-l.
    head = _recurrence_head(n, k, a, True)
    fixed = _mixed_shifted(n - 1, k - 1, a, True)
    printed_terms, derived_terms = [], []
    for l in range(n):
        w = comb(n, l) * cauchy_first(l, 1) * a ** -l
        lower = (_mixed_shifted(n - l, k, a, True), -w)
        printed_terms += [(fixed, w), lower]
        derived_terms += [(_mixed_shifted(n - l, k - 1, a, True), w), lower]
    printed = head + _combine(printed_terms, n)
    derived = head + _combine(derived_terms, n)
    return _audited(_mixed(n, k, a, True), printed, derived)


def _check_t7(n: int, m: int, k: int, a: Fraction, *, hat: bool) -> dict:
    # Two evaluations of < exp(-t) Lif_k(sgn log(1+t/a)) (log(1+t/a))^m | x^n >:
    # the theorem after equation (66) for the second kind, equation (67) for
    # the first.
    edge = -1 if hat else 1

    def at(kk: int, x0: int) -> tuple[list[int], int]:
        # P_l^(kk)(x0) for l = 0..n-m, every index the moments below read.
        return _member_values([_mixed(l, kk, a, hat) for l in range(n - m + 1)], _powers(x0, n))

    def moment(q: int, j: int, values: tuple[list[int], int]) -> Fraction:
        # sum_l j! a^(l-q) C(q, l) S1(q-l, j) P_l(x0); 0 when j > q.
        (total,), den = _stirling_sum(q, (j,), a, *values)
        return factorial(j) * Fraction(total, den)

    at_zero = at(k, 0)
    direct = moment(n, m, at_zero)
    # At m = n the lowered moment is the empty sum.
    lowered = moment(n - 1, m, at_zero)
    # The edge terms weigh the (m-1)-th moment by m!/a in place of (m-1)!.
    edge_k = moment(n - 1, m - 1, at(k, edge)) * m / a
    edge_km1 = moment(n - 1, m - 1, at(k - 1, edge)) * m / a
    chained = -lowered + Fraction(m - 1, m) * edge_k + Fraction(1, m) * edge_km1
    derivation = direct == chained
    # For the second kind the printed final statement repeats superscript k
    # in the 1/m term where the derivation chain has k-1.
    printed = Fraction(m - 1, m) * edge_k + Fraction(1, m) * (edge_k if hat else edge_km1)
    as_printed = direct + lowered == printed
    note = "two-route functional value"
    if hat:
        note += "; the chained evaluation is authoritative" + (
            "" if as_printed else "; printed closing statement fails"
        )
    return _outcome(
        derivation or as_printed, Poly((direct,)), Poly((chained,)),
        note=note, as_printed=as_printed, derivation_form=derivation,
    )


# -- catalogue ----------------------------------------------------------------


@dataclass(frozen=True)
class IdentityInfo:
    """Catalogue entry: parameter axes, domain, and description."""

    identity: str
    tier: str
    axes: tuple[str, ...]
    n_min: int
    location: str
    statement: str
    strategy: str
    checker: Callable = field(repr=False)


_SUM_STRATEGY = (
    "left side by generating-function extraction; right side assembled from "
    "special-number tables, binomial weights and rational powers"
)

CATALOGUE: dict[str, IdentityInfo] = {
    info.identity: info
    for info in (
        IdentityInfo(
            "T1", "core", ("k", "a"), 0, "Theorem 1",
            "first-kind mixed polynomials expanded over poly-Cauchy "
            "polynomials of the first kind",
            _SUM_STRATEGY, partial(_check_t1, hat=False),
        ),
        IdentityInfo(
            "P2", "core", ("k", "a"), 0, "Proposition 2",
            "first-kind mixed polynomials as a convolution of poly-Cauchy "
            "numbers with Poisson-Charlier polynomials at -x",
            _SUM_STRATEGY, partial(_check_p2, hat=False),
        ),
        IdentityInfo(
            "E30", "core", ("k", "a"), 0, "equation (30)",
            "second-kind mixed polynomials expanded over poly-Cauchy "
            "polynomials of the second kind",
            _SUM_STRATEGY, partial(_check_t1, hat=True),
        ),
        IdentityInfo(
            "E31", "core", ("k", "a"), 0, "equation (31)",
            "second-kind mixed polynomials as a convolution of second-kind "
            "poly-Cauchy numbers with Poisson-Charlier polynomials",
            _SUM_STRATEGY, partial(_check_p2, hat=True),
        ),
        IdentityInfo(
            "T3", "core", ("k", "a"), 0, "Theorem 3",
            "explicit coefficient formula for the first-kind mixed "
            "polynomials via signed Stirling numbers",
            _SUM_STRATEGY + "; doubles as an independent construction route",
            partial(_check_t3, hat=False),
        ),
        IdentityInfo(
            "T3H", "core", ("k", "a"), 0, "remark after Theorem 3",
            "explicit coefficient formula for the second-kind mixed polynomials",
            _SUM_STRATEGY + "; doubles as an independent construction route",
            partial(_check_t3, hat=True),
        ),
        IdentityInfo(
            "T4", "core", ("k", "a"), 0, "Theorem 4",
            "coefficients of the first-kind mixed polynomials from their "
            "values at zero and Stirling numbers",
            _SUM_STRATEGY, partial(_check_t4, hat=False),
        ),
        IdentityInfo(
            "E41", "core", ("k", "a"), 0, "equation (41)",
            "coefficients of the second-kind mixed polynomials from their "
            "values at zero and Stirling numbers",
            _SUM_STRATEGY, partial(_check_t4, hat=True),
        ),
        IdentityInfo(
            "T5", "core", ("k", "a"), 1, "Theorem 5",
            "first-kind mixed polynomials via order-n Bernoulli numbers and "
            "second-kind Stirling numbers",
            _SUM_STRATEGY, partial(_check_t5, hat=False),
        ),
        IdentityInfo(
            "E48", "core", ("k", "a"), 1, "equation (48)",
            "second-kind mixed polynomials via order-n Bernoulli numbers and "
            "second-kind Stirling numbers",
            _SUM_STRATEGY, partial(_check_t5, hat=True),
        ),
        IdentityInfo(
            "E49", "core", ("k", "a"), 0, "equation (49)",
            "argument-addition rule against scaled rising factorials",
            "two-variable identity; the shift variable is sampled over "
            "max(5, n+1) fixed rational points, enough to pin a degree-n "
            "polynomial identity exactly",
            partial(_check_e49, hat=False),
        ),
        IdentityInfo(
            "E50", "core", ("k", "a"), 0, "equation (50)",
            "argument-addition rule against scaled falling factorials",
            "two-variable identity; same exact sampling scheme as E49",
            partial(_check_e49, hat=True),
        ),
        IdentityInfo(
            "E51", "core", ("k", "a"), 1, "equation (51)",
            "unit backward shift lowers the first-kind mixed polynomials",
            "left side assembled with the shift operator exp(-t); right side "
            "a scaled lower-degree member",
            partial(_check_e51, hat=False),
        ),
        IdentityInfo(
            "E52", "core", ("k", "a"), 1, "equation (52)",
            "unit forward shift lowers the second-kind mixed polynomials",
            "left side assembled with the shift operator exp(t); the printed "
            "statement drops a hat on the subtracted term, checked in the "
            "consistent all-second-kind form",
            partial(_check_e51, hat=True),
        ),
        IdentityInfo(
            "E68", "core", ("k", "a"), 1, "equation (68)",
            "x-derivative of the first-kind mixed polynomials as a weighted "
            "sum of lower members",
            "formal polynomial derivative against the stated sum",
            partial(_check_e68, hat=False),
        ),
        IdentityInfo(
            "E69", "core", ("k", "a"), 1, "equation (69)",
            "x-derivative of the second-kind mixed polynomials as a weighted "
            "sum of lower members",
            "formal polynomial derivative against the stated sum",
            partial(_check_e68, hat=True),
        ),
        IdentityInfo(
            "T8", "core", ("k", "a", "s"), 0, "Theorem 8",
            "first-kind mixed polynomials expanded over order-s Bernoulli "
            "polynomials with first-kind Cauchy number weights",
            _SUM_STRATEGY + "; the Bernoulli basis is rebuilt from the "
            "number table via the binomial (Appell) expansion",
            partial(_check_t8, hat=False),
        ),
        IdentityInfo(
            "E74", "core", ("k", "a", "s"), 0, "equation (74)",
            "second-kind mixed polynomials expanded over order-s Bernoulli "
            "polynomials with second-kind Cauchy number weights",
            _SUM_STRATEGY, partial(_check_t8, hat=True),
        ),
        IdentityInfo(
            "T9", "core", ("k", "a", "s", "lam"), 0, "Theorem 9",
            "first-kind mixed polynomials expanded over order-s "
            "Frobenius-Euler polynomials",
            _SUM_STRATEGY + "; implements the derivation's binomial weight "
            "comb(s, i), which the printed statement misprints as comb(l, i)",
            _check_t9,
        ),
        IdentityInfo(
            "E77", "core", ("k", "a", "s", "lam"), 0, "equation (77)",
            "second-kind mixed polynomials expanded over order-s "
            "Frobenius-Euler polynomials",
            _SUM_STRATEGY, _check_e77,
        ),
        IdentityInfo(
            "T10", "core", ("k", "a"), 0, "Theorem 10",
            "first-kind mixed polynomials expanded over rising factorials",
            _SUM_STRATEGY + "; cross-checkable against connection "
            "coefficients with the rising-factorial pair",
            partial(_check_t10, hat=False),
        ),
        IdentityInfo(
            "T10H", "core", ("k", "a"), 0, "remark after Theorem 10",
            "second-kind mixed polynomials expanded over falling factorials",
            _SUM_STRATEGY, partial(_check_t10, hat=True),
        ),
        IdentityInfo(
            "E54", "audit", ("k", "a"), 1, "equation (54)",
            "one-step recurrence for the first-kind mixed polynomials",
            "printed closing sum checked as stated; derivation form applies "
            "the logarithmic-derivative operator split of the recurrence",
            partial(_check_e54, hat=False),
        ),
        IdentityInfo(
            "E55", "audit", ("k", "a"), 1, "equation (55)",
            "one-step recurrence for the second-kind mixed polynomials",
            "printed closing sum checked as stated; derivation form applies "
            "the logarithmic-derivative operator split of the recurrence",
            partial(_check_e54, hat=True),
        ),
        IdentityInfo(
            "T6", "audit", ("k", "a"), 1, "Theorem 6",
            "first-kind mixed polynomials via second-kind Cauchy numbers and "
            "a Lif-index shift",
            "printed sum checked as stated; derivation form recomputes the "
            "remainder term directly from the derivative of the generating "
            "function",
            partial(_check_t6, hat=False),
        ),
        IdentityInfo(
            "E60", "audit", ("k", "a"), 1, "equation (60)",
            "variant of T6 with first-kind Cauchy numbers and shifted "
            "arguments",
            "same derivation-form remainder as T6",
            _check_e60,
        ),
        IdentityInfo(
            "E61", "audit", ("k", "a"), 1, "equation (61)",
            "second-kind analogue of T6",
            "printed sum checked as stated; derivation form recomputes the "
            "remainder from the derivative of the generating function",
            partial(_check_t6, hat=True),
        ),
        IdentityInfo(
            "E62", "audit", ("k", "a"), 1, "equation (62)",
            "second-kind analogue of E60",
            "as printed the first difference term has fixed index n-1; the "
            "derivation form restores the running index n-l",
            _check_e62,
        ),
        IdentityInfo(
            "T7", "audit", ("m", "k", "a"), 1,
            "theorem following equation (66)",
            "two evaluations of one functional against powers of log(1+t/a), "
            "second-kind family",
            "the chained-evaluation identity, equations (63) = (66), is "
            "authoritative; the printed closing statement repeats "
            "superscript k where the chain has k-1 and is reported as "
            "printed",
            partial(_check_t7, hat=True),
        ),
        IdentityInfo(
            "E67", "audit", ("m", "k", "a"), 1, "equation (67)",
            "first-kind analogue of T7",
            "chained evaluation against the printed statement; both agree "
            "here",
            partial(_check_t7, hat=False),
        ),
    )
}

CORE_IDS: tuple[str, ...] = tuple(i for i in CATALOGUE if CATALOGUE[i].tier == "core")
AUDIT_IDS: tuple[str, ...] = tuple(i for i in CATALOGUE if CATALOGUE[i].tier == "audit")
ALL_IDS: tuple[str, ...] = CORE_IDS + AUDIT_IDS


# -- entry points --------------------------------------------------------------


def _axis_value(axis: str, value, n: int):
    """The canonical value of one parameter; ParameterError outside its domain."""
    if axis in ("k", "s", "m"):
        frac = as_fraction(value)
        if frac.denominator != 1:
            raise ParameterError(f"parameter {axis!r} must be an integer")
        value = int(frac)
        if axis == "s" and value < 0:
            raise ParameterError("parameter 's' must be >= 0")
        if axis == "m" and not 1 <= value <= n:
            raise ParameterError(f"parameter 'm' must satisfy 1 <= m <= n={n}")
    elif axis == "a":
        value = as_fraction(value)
        if value == 0:
            raise ParameterError("parameter 'a' must be nonzero")
    elif axis == "lam":
        value = as_fraction(value)
        if value == 1:
            raise ParameterError("parameter 'lam' must differ from 1")
    return value


def _canonical_params(info: IdentityInfo, n: int, params: Mapping) -> dict:
    supplied = dict(params)
    canonical: dict = {}
    for axis in info.axes:
        if axis not in supplied:
            raise ParameterError(f"{info.identity} needs parameter {axis!r}")
        canonical[axis] = _axis_value(axis, supplied.pop(axis), n)
    if supplied:
        raise ParameterError(
            f"{info.identity} does not take parameters {sorted(supplied)}"
        )
    return canonical


def verify(identity: str, n: int, params: Mapping | None = None, **kwargs) -> VerificationResult:
    """Check one identity at one parameter point, exactly.

    Domain violations raise ParameterError rather than skipping silently.
    """
    info = CATALOGUE.get(identity)
    if info is None:
        raise ParameterError(f"unknown identity {identity!r}")
    merged = dict(params or {})
    merged.update(kwargs)
    if n < info.n_min:
        raise ParameterError(f"{identity} needs n >= {info.n_min}, got {n}")
    canonical = _canonical_params(info, n, merged)
    fields = info.checker(n, **canonical)
    return VerificationResult(identity, n, canonical, **fields)


def _check_group(n_max: int, tasks: Sequence[tuple[str, dict]]) -> list[list[VerificationResult]]:
    """Run each (identity, base params) task over its degrees; one list per task."""
    out = []
    for identity, base in tasks:
        info = CATALOGUE[identity]
        if "m" in info.axes:
            # m sorts after a and k, the other axes of T7/E67.
            out.append([verify(identity, n, {**base, "m": m})
                        for m in range(1, n_max + 1)
                        for n in range(max(info.n_min, m), n_max + 1)])
        else:
            out.append([verify(identity, n, base) for n in range(info.n_min, n_max + 1)])
    return out


def verify_grid(
    ids: Iterable[str], n_max: int, grid: Grid | None = None, jobs: int = 1
) -> list[VerificationResult]:
    """Exhaustively verify the given identities over a parameter grid.

    Results come in one canonical order, independent of the order of the
    identities and grid values given and of ``jobs``: identities sorted, then
    parameters lexicographic in (name, value), with m before n for T7/E67,
    then n.  An unknown identity, a repeated identity or grid value, a value
    outside the domain of an axis some requested identity reads, or
    ``jobs < 1`` raises ParameterError before any check runs.

    The checks split into groups by (k, a), which share no family table.
    With ``jobs > 1`` and more than one group, the groups run in up to
    ``jobs`` worker processes started by fork, so the workers see the
    caller's in-memory state and import nothing.  Call it so only when no
    other thread is running: a thread holding a table lock (such as
    ``special._GROW_LOCK``) at fork time would leave a worker deadlocked.
    """
    grid = grid or DEFAULT_GRID
    ids = tuple(ids)
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    axis_values = {
        "k": grid.k_values, "a": grid.a_values, "s": grid.s_values, "lam": grid.lam_values,
    }
    for axis, values in (("ids", ids), *axis_values.items()):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ParameterError(f"{axis!r} lists {value} twice")
    for identity in ids:
        if identity not in CATALOGUE:
            raise ParameterError(f"unknown identity {identity!r}")
    for axis in sorted({axis for identity in ids for axis in CATALOGUE[identity].axes} - {"m"}):
        for value in axis_values[axis]:
            _axis_value(axis, value, n_max)
    tasks: list[tuple[str, dict]] = []
    for identity in sorted(ids):
        plain_axes = sorted(axis for axis in CATALOGUE[identity].axes if axis != "m")
        ordered = (sorted(axis_values[axis], key=as_fraction) for axis in plain_axes)
        tasks += [(identity, dict(zip(plain_axes, combo))) for combo in itertools.product(*ordered)]
    groups: dict[tuple, list[int]] = {}
    for index, (_, base) in enumerate(tasks):
        groups.setdefault((base.get("k"), base.get("a")), []).append(index)
    work = [[tasks[index] for index in indices] for indices in groups.values()]
    run = partial(_check_group, n_max)
    if jobs == 1 or len(work) <= 1:
        done = map(run, work)
    else:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(min(jobs, len(work))) as pool:
            done = list(pool.imap(run, work, chunksize=1))
    per_task: list[list[VerificationResult]] = [[] for _ in tasks]
    for indices, group in zip(groups.values(), done):
        for index, results in zip(indices, group):
            per_task[index] = results
    return [result for results in per_task for result in results]


def summarize(results: Sequence[VerificationResult]) -> dict:
    """Checked/failed counts; a result counts as failed when no form holds."""
    failed = sum(1 for r in results if not r.equal)
    return {"checked": len(results), "failed": failed}
