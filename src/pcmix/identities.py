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
from functools import partial
from math import comb, factorial, lcm, perm
from operator import mul
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import families as fam
from .poly import Poly, Rational, X, as_fraction, from_parts
from .series import Series
from .sheffer import operator_apply
from .special import bernoulli_row, cauchy_row, frobenius_row, lif_series, stirling_rows


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
# Every identity is a statement about the mixed families at one (k, a), so a
# checker reads its inputs from one _Group per verify() call or per (k, a)
# task group of verify_grid.  The group reads the Stirling rows when built
# and keeps every other input once a check first asks for it, never in a
# second module-level cache.  Right sides are summed in integers over one
# stated denominator (for a = p/q, a^-l is q^l p^(n-l) over p^n; a number
# sequence is one row read over its least common denominator), compared by
# cross-multiplying or Poly equality, and built as the sides a result
# reports only on a mismatch.  T6, (54)-(55) and (60)-(62) read the remainder
# D_n = P_n - head_n of their Sheffer recurrence, its shifted member and the
# (54)/(55) tail over sign a from one kept table per kind for the same reason.
#
# T3/T3H, T4/E41 (and so T10/T10H), T8/E74, T9, E77 and the printed E54/E55
# tail are Appell expansions sum_m c_m A_m(x), A_m(x) = sum_j C(m, j) N_(m-j)
# x^j (Roman, The Umbral Calculus, section 2.5), with c_m = sum_l C(n, l)
# S1(n-l, m) a^-(n-l) V_l.  Umbrally A_m(x) = (N + x)^m, so
# sum_m S1(r, m) A_m(x) is the falling factorial (N + x)_r, which
# Vandermonde's identity splits into sum_j C(r, j) <N>_(r-j) (x)_j with
# <N>_i = sum_m S1(i, m) N_m.  The expansion is then
# sum_j C(n, j) a^-j E_(n-j) (x)_j, where E_r = sum_l C(r, l) a^-(r-l) V_l
# <N>_(r-l) does not depend on n.  The first kind negates c_m at odd m, and
# (-1)^m S1(r, m) are the coefficients of (-y)_r = (-1)^r y^(r), so there
# the same steps run in the rising basis x^(j), with N_e read as (-1)^e N_e
# and (-1)^j in the weights.  A check compares the member's coefficients in
# that basis (read through S2) with the n+1 terms by cross-multiplying;
# one table per kind keeps the member's side of that comparison per degree.
# T7/E67 keep their Stirling-sum moments as integer tables the same way.
#
# The same factorial tables serve (49)-(52): rising and falling factorials
# are of binomial type, so the argument-addition rules compare slice by
# slice in b_i(x) b_r(y), and the unit shifts (51)/(52) are the slice r = 1.


class _Group:
    """The inputs of the checks at one (k, a), up to degree ``top`` (E54 at n reads n+1)."""

    def __init__(self, k: int, a: Fraction, top: int):
        self.k, self.a, self.top = k, a, top
        self.s1, self.s2 = stirling_rows(top), stirling_rows(top, second=True)
        self._kept: dict = {}

    def _keep(self, key, build: Callable):
        # One dict lookup per hit; keys read per check hold no Fraction, whose
        # hash is dear.
        try:
            return self._kept[key]
        except KeyError:
            value = self._kept[key] = build()
            return value

    def members(self, hat: bool, dk: int = 0) -> list[Poly]:
        # Degrees 0..top at Lif index k + dk, highest first: tables grow once.
        lookup = fam.pc_hat_mixed if hat else fam.pc_mixed
        return self._keep(("members", hat, dk), lambda: [
            lookup(n, self.k + dk, self.a) for n in range(self.top, -1, -1)
        ][::-1])

    def values(self, hat: bool, x0: int, dk: int = 0) -> tuple[list[int], int]:
        # P(x0) per member over one denominator (the same for all x0).
        return self._keep(("values", hat, dk, x0), lambda: _values(self.members(hat, dk), x0))

    def poly_cauchy(self, hat: bool) -> list[Poly]:
        # Poly-Cauchy polynomials of degrees 0..top at k, second kind with hat.
        lookup = fam.poly_cauchy_second if hat else fam.poly_cauchy_first
        return self._keep(("poly-Cauchy", hat),
                          lambda: [lookup(l, self.k) for l in range(self.top, -1, -1)][::-1])

    def recurrence(self, hat: bool) -> list[Optional[tuple[Poly, Poly, Poly]]]:
        # Entry n = 1..top for T6, (54)-(55) and (60)-(62), sign = -1 for hat:
        # D_n = P_n - head_n, head_n = -P_(n-1)(x) - sign (x/a) P_(n-1)(x + sign);
        # that P_(n-1)(x + sign); the printed (54)/(55) closing sum of degree
        # n-1 at x + sign over sign a (the offset-2 Stirling sum: no member).
        def build():
            sign, members, entries = -1 if hat else 1, self.members(hat), [None]
            step, sums = Fraction(sign) / self.a, _stirling_triple_sum(self, hat, 2)
            for n, (p, lower) in enumerate(zip(members[1:], members)):
                shifted = lower.shifted(sign)
                tail = _monomial(self, n, hat, sums).shifted(sign) * step
                entries.append((p + lower + X * shifted * step, shifted, tail))
            return entries

        return self._keep(("recurrence", hat), build)

    def lif_ratio(self) -> Series:
        # Lif_k'(-t) / Lif_k(-t), from the operator recurrence; one order serves
        # every degree, as operator_apply reads len(p.nums) coefficients.
        def build():
            prime_neg = lif_series(self.k, self.top + 2).derivative().scale_t(-1)
            return prime_neg * lif_series(self.k, self.top + 1).scale_t(-1).inverse()

        return self._keep("lif ratio", build)

    def numbers(self, row: Callable, *args) -> tuple[list[int], int]:
        # The row read row(top, *args) up to entry top, as integers over
        # their least common denominator.
        def build():
            values = row(self.top, *args)[:self.top + 1]
            den = lcm(*(v.denominator for v in values))
            return [v.numerator * (den // v.denominator) for v in values], den

        return self._keep(("numbers", row, args), build)

    def factorial(self, hat: bool) -> list[tuple[list[int], list[int], int]]:
        # Per member P_n = sum_j g_j b_j(x) / d through S2, b_j the rising x^(j)
        # for the first kind (x^i = sum_j (-1)^(i-j) S2(i, j) x^(j)), else (x)_j:
        # g, the weights d C(n, j) (-+q)^j for a = p/q (entry 0 is d) and p^n.
        def build():
            p, q, rising = self.a.numerator, self.a.denominator * (1 if hat else -1), not hat
            return [([sum((-1) ** (rising * (i - j)) * self.s2[i][j] * c
                          for i, c in enumerate(m.nums[j:], j)) for j in range(n + 1)],
                     [m.den * comb(n, j) * q**j for j in range(n + 1)], p**n)
                    for n, m in enumerate(self.members(hat))]

        return self._keep(("factorial", hat), build)

    def binomial(self, u: int, v: int) -> list[list[int]]:
        # Rows r = 0..top of C(r, l) u^(r-l) v^l.  With (u, v) = (q, p) for
        # a = p/q, entry l is C(r, l) a^(l-r) over the denominator p^r.
        return self._keep(("binomial", u, v), lambda: [
            [comb(r, l) * u ** (r - l) * v**l for l in range(r + 1)] for r in range(self.top + 1)
        ])

    def expansion(self, key, hat: bool, values: Callable, *number) -> tuple[list[int], int]:
        # E_r = e_r / (p^r den), r = 0..top, for values() = (V, its den) and
        # the Stirling transform <N> of the row read N = number(top, *args),
        # read as (-1)^e N_e for the first kind; without ``number``,
        # N = <N> = delta_0.
        def build():
            (vals, den), nums, number_den = values(), [1] + [0] * self.top, 1
            if number:
                nums, number_den = self.numbers(*number)
                nums = [-c if m % 2 and not hat else c for m, c in enumerate(nums)]
                nums = [sum(map(mul, row, nums)) for row in self.s1[:self.top + 1]]
            rows = enumerate(self.binomial(self.a.denominator, self.a.numerator))
            e = [sum(w * vals[l] * nums[r - l] for l, w in enumerate(row)) for r, row in rows]
            return e, den * number_den

        return self._keep(("expansion", hat, key), build)

    def moments(self, hat: bool, x0: int, dk: int = 0) -> tuple[list[list[int]], int]:
        # Row r, j <= r: sum_l C(r, l) S1(r-l, j) a^(l-r) P_l^(k+dk)(x0), the
        # T7/E67 moment over j!, as an integer over p^r den.
        def build():
            values, den = self.values(hat, x0, dk)
            rows = enumerate(self.binomial(self.a.denominator, self.a.numerator))
            return [[sum(self.s1[r - l][j] * w * values[l] for l, w in enumerate(row[:r - j + 1]))
                     for j in range(r + 1)] for r, row in rows], den

        return self._keep(("moments", hat, x0, dk), build)


def _combine(terms: Iterable[tuple[Poly, int]], den: int) -> Poly:
    # sum_i w_i p_i / den over the pairs (p_i, w_i) of integer weights,
    # accumulated as one integer list over the lcm of the terms' denominators.
    terms = list(terms)
    common = lcm(*(p.den for p, _ in terms))
    acc = [0] * max((len(p.nums) for p, _ in terms), default=0)
    for p, w in terms:
        w *= common // p.den
        for j, c in enumerate(p.nums):
            acc[j] += w * c
    return from_parts(acc, common * den)


def _values(polys: Sequence[Poly], x0: int) -> tuple[list[int], int]:
    # P(x0) per polynomial as integers over one denominator.
    den = lcm(*(p.den for p in polys))
    powers = [x0**j for j in range(max(len(p.nums) for p in polys))]
    return [sum(map(mul, p.nums, powers)) * (den // p.den) for p in polys], den


def _appell_numbers(top: int, k: int, offset: int) -> list[Fraction]:
    # (-1)^e (e+offset)^-k: the number sequence of the T3 and T5 Appell expansions.
    return [(-1) ** e * Fraction(e + offset) ** -k for e in range(top + 1)]


def _bernoulli_below(top: int, n: int) -> list[Fraction]:
    # B_r^(n), read by T5/E48 for r < n only: r = n would carry C(n-1, n) = 0.
    return bernoulli_row(n - 1, n)[:n]


def _expanded(group: _Group, n: int, hat: bool, expansion: tuple[list[int], int]) -> dict:
    # The member against sum_j C(n, j) (-+q)^j e_(n-j) b_j(x) / (p^n den), term
    # by term: b_j is rising (upper sign) for the first kind, else falling, and
    # the group's factorial table holds the member's side of each term.
    (e, den), (g, weights, p_n) = expansion, group.factorial(hat)[n]
    scale = p_n * den
    if all(c * scale == w * x for c, w, x in zip(g, weights, e[n::-1])):
        return _outcome(True, None, None)
    return _outcome(False, group.members(hat)[n], _monomial(group, n, hat, expansion))


def _monomial(group: _Group, n: int, hat: bool, expansion: tuple[list[int], int]) -> Poly:
    # The right side of _expanded in monomials: S1(j, i) x^i in (x)_j, |S1(j, i)| in x^(j).
    (e, den), acc = expansion, [0] * (n + 1)
    for j, w in enumerate(group.binomial(1, group.a.denominator * (1 if hat else -1))[n]):
        for i, c in enumerate(group.s1[j]):
            acc[i] += (c if hat else abs(c)) * w * e[n - j]
    return from_parts(acc, group.a.numerator**n * den)


# -- outcome helpers ----------------------------------------------------------
#
# A checker takes the group, n and its axes besides k and a, and returns the
# keyword fields of VerificationResult that its outcome sets; _run adds the
# identity, n and parameters.  Both sides are kept only on a mismatch.


def _outcome(equal: bool, lhs: Poly, rhs: Poly, **fields) -> dict:
    if equal:
        return {"equal": True, **fields}
    return {"equal": False, "lhs": lhs, "rhs": rhs, **fields}


def _plain(lhs: Poly, rhs: Poly, note: str | None = None) -> dict:
    return _outcome(lhs == rhs, lhs, rhs, note=note)


_AUDIT_NOTES = {
    (True, True): "holds as printed and in derivation form",
    (False, True): "printed form fails; derivation form holds",
    (True, False): "holds as printed; derivation form fails",
    (False, False): "both forms fail",
}


def _audited(as_printed: bool, derivation: bool, sides: Callable, note: str | None = None) -> dict:
    # sides() gives the left side and the derivation form, built only when
    # both forms fail; without ``note`` the note says which forms hold.
    equal = as_printed or derivation
    return _outcome(equal, *((None, None) if equal else sides()), as_printed=as_printed,
                    derivation_form=derivation, note=note or _AUDIT_NOTES[as_printed, derivation])


# -- core verifiers -----------------------------------------------------------


def _check_t1(group: _Group, n: int, *, hat: bool) -> dict:
    # Theorem 1; with hat, equation (30).  The weight C(n, l) (-1)^(n-l) a^-l
    # is C(n, l) (-p)^(n-l) q^l / p^n for a = p/q.
    p, q = group.a.numerator, group.a.denominator
    terms = zip(group.poly_cauchy(hat), group.binomial(-p, q)[n])
    return _plain(group.members(hat)[n], _combine(terms, p**n))


def _check_p2(group: _Group, n: int, *, hat: bool) -> dict:
    # Proposition 2; with hat, equation (31) re-indexed by l -> n-l.  The
    # first kind convolves with the Poisson-Charlier polynomials at -x (odd
    # coefficients negated).  C(n, l) C_(n-l)(0) a^-(n-l) is an integer / p^n.
    p, q = group.a.numerator, group.a.denominator
    at_zero, den = group._keep(("poly-Cauchy at 0", hat),
                               lambda: _values(group.poly_cauchy(hat), 0))
    charlier = group._keep(("charlier", hat), lambda: [
        from_parts([-c if j % 2 and not hat else c for j, c in enumerate(poly.nums)], poly.den)
        for poly in (fam.poisson_charlier(l, group.a) for l in range(group.top, -1, -1))
    ][::-1])
    weights = [w * c for w, c in zip(group.binomial(q, p)[n], at_zero[n::-1])]
    return _plain(group.members(hat)[n], _combine(zip(charlier, weights), den * p**n))


def _stirling_triple_sum(group: _Group, hat: bool, offset: int) -> tuple[list[int], int]:
    # The coefficient of x^j is the sum over m >= j and l of sign * C(n, l)
    # S1(n-l, m) a^-(n-l) C(m, j) (m-j+offset)^(-k), the sign parity l+j for
    # the first kind and l+m+j for the second.  As (-1)^j = (-1)^m (-1)^(m-j),
    # that is the Appell expansion of V_l = (-1)^l over (-1)^e (e+offset)^(-k),
    # with (-1)^m (c_m negated at odd m) left for the first kind only.
    signs = lambda: ([(-1) ** l for l in range(group.top + 1)], 1)
    return group.expansion(("T3", offset), hat, signs, _appell_numbers, group.k, offset)


def t3_polynomial(n: int, k: int, a: Rational, hat: bool = False) -> Poly:
    """The explicit triple-sum formula for the first-kind mixed polynomial,
    or for the second-kind one when ``hat`` is true; ParameterError unless
    n >= 0 and k are integers and a is a nonzero rational."""
    _check_integer("t3_polynomial", n, 0)
    group = _Group(_axis_value("k", k, n), _axis_value("a", a, n), n + 1)
    return _monomial(group, n, hat, _stirling_triple_sum(group, hat, 1))


def _check_t3(group: _Group, n: int, *, hat: bool) -> dict:
    # Theorem 3; with hat, the remark after it.
    return _expanded(group, n, hat, _stirling_triple_sum(group, hat, 1))


def _check_t4(group: _Group, n: int, *, hat: bool) -> dict:
    # Theorem 4; with hat, equation (41), which has no (-1)^l; N = delta_0.
    # So _expanded compares the member's rising (falling) factorial
    # coefficients with C(n, m) (-a)^-m P_(n-m)(0) (with hat, a^-m): that is
    # Theorem 10 and the remark after it, which share this checker.
    return _expanded(group, n, hat, group.expansion("T4", hat, lambda: group.values(hat, 0)))


def _check_t5(group: _Group, n: int, *, hat: bool) -> dict:
    # Theorem 5; with hat, equation (48).  The printed right side is a^-n
    # times the sum over r, l, j, m of sign * C(n-1, r) B_r^(n) a^l C(n-r, j+l)
    # C(n-r-j-l, m) S2(j+l, l) (n-r-j-l-m+1)^-k x^m, the sign parity l+m for
    # the first kind and r+j+m+n for the second.  Grouped by e = j+l, the
    # l-sum is the Touchard value T_e = sum_l S2(e, l) (-a)^l in both kinds.
    # Grouped then by d = n-r-e, the m-sum is (-1)^d A_d(x), A_d the Appell
    # polynomial of T3 over N_e = (-1)^e (e+1)^-k, summed in one integer list
    # as sum_j C(d, j) N_(d-j) x^j, and the second kind's (-1)^(r+e+n)
    # cancels that (-1)^d.  So the right side is a^-n sum_d c_d A_d(x) with
    # c_d = sum_{r+e=n-d} C(n-1, r) B_r^(n) C(n-r, e) T_e, negated at odd d
    # for the first kind only.  Summed in integers: B_r^(n) over one
    # denominator and (-a)^l as (-p)^l q^(n-l) / q^n with a = p/q, whose q^n
    # cancels against a^-n = q^n / p^n.
    p, q = group.a.numerator, group.a.denominator
    bernoulli, den = group.numbers(_bernoulli_below, n)
    weights = [comb(n - 1, r) * b for r, b in enumerate(bernoulli)]
    a_powers = [(-p) ** l * q ** (n - l) for l in range(n + 1)]
    touchard = [sum(map(mul, group.s2[e], a_powers)) for e in range(n + 1)]
    sums = [
        sum(weights[r] * comb(n - r, d) * touchard[n - r - d] for r in range(min(n - d + 1, n)))
        for d in range(n + 1)
    ]
    nums, number_den = group.numbers(_appell_numbers, group.k, 1)
    sums = [-c if d % 2 and not hat else c for d, c in enumerate(sums)]
    acc = [sum(comb(d, j) * nums[d - j] * c for d, c in enumerate(sums[j:], j))
           for j in range(n + 1)]
    return _plain(group.members(hat)[n], from_parts(acc, den * p**n * number_den))


def _y_coefficient(group: _Group, n: int, hat: bool, r: int) -> Optional[tuple[Poly, Poly]]:
    # Both sides of the y^r coefficient of (49), or of (50) with hat, or None
    # where they agree.  On the left it is sum_i C(i, r) p_i x^(i-r).  (y)_m
    # has the coefficients S1(m, r) and y^(m) has (-1)^(m-r) S1(m, r), so on
    # the right it is sum_j C(n, j) S1(n-j, r) q^(n-j) p^j P_j(x) / p^n,
    # negated at odd r for the first kind.
    members, sign = group.members(hat), -1 if r % 2 and not hat else 1
    weights = group.binomial(group.a.denominator, group.a.numerator)[n][:n - r + 1]
    weights = [sign * w * group.s1[n - j][r] for j, w in enumerate(weights)]
    rhs = _combine(zip(members, weights), group.a.numerator**n)
    lhs = from_parts([comb(i, r) * c for i, c in enumerate(members[n].nums[r:], r)], members[n].den)
    return None if lhs == rhs else (lhs, rhs)


def _slices_hold(group: _Group, n: int, hat: bool, r_top: int) -> bool:
    # Rising (first kind) and falling factorials b_m are of binomial type,
    # b_m(x + y) = sum_i C(m, i) b_i(x) b_(m-i)(y) (Roman, The Umbral
    # Calculus, chapter 2).  With P_n = sum_i g_i b_i / d_n read through S2,
    # the b_i(x) b_r(y) slice of (49), or of (50) with hat, is
    # C(i+r, i) g^(n)_(i+r) / d_n = C(n, r) (-+1/a)^r g^(n-r)_i / d_(n-r),
    # cross-multiplied for a = p/q with the table's weights (entry 0 is d);
    # this checks r = 1..r_top.  Over every r the products b_i(x) b_r(y) are
    # a basis of Q[x, y]; r = 0 compares the member with itself.
    table, p = group.factorial(hat), group.a.numerator
    g, weights, _ = table[n]
    for r in range(1, r_top + 1):
        lower, lower_weights, _ = table[n - r]
        left, right = p**r * lower_weights[0], weights[r]
        if any(comb(i + r, r) * g[i + r] * left != right * c for i, c in enumerate(lower)):
            return False
    return True


def _check_e49(group: _Group, n: int, *, hat: bool) -> dict:
    # Equation (49) against rising factorials scaled by (-1/a)^(n-j); with
    # hat, equation (50) against falling factorials scaled by (1/a)^(n-j).
    # Both sides are polynomials in x and y, compared coefficient by
    # coefficient in the factorial slices of _slices_hold, so the identity is
    # proved for every y.  A mismatch is reported at the first failing
    # monomial y^r, r >= 1: S1(m, 0) = [m = 0] leaves y^0 comparing the
    # member with itself.
    if not _slices_hold(group, n, hat, n):
        for r in range(1, n + 1):
            sides = _y_coefficient(group, n, hat, r)
            if sides:
                return _outcome(False, *sides, note=f"first failing coefficient of y^{r}")
    return _outcome(True, None, None)


def _check_e51(group: _Group, n: int, *, hat: bool) -> dict:
    # Equation (51) with the backward shift exp(-t); with hat, equation (52)
    # with the forward shift exp(t).  exp(c t) p(x) = p(x + c), so the left
    # side is the member at x - 1 (x + 1) less the member.  As
    # x^(j) - (x-1)^(j) = j x^(j-1) and (x+1)_j - (x)_j = j (x)_(j-1), that
    # is the r = 1 slice of (49) or (50); the sides are built on a mismatch.
    note = ("checked with both difference terms in the second-kind family; the "
            "printed statement drops a hat on the subtracted term") if hat else None
    if _slices_hold(group, n, hat, 1):
        return _outcome(True, None, None, note=note)
    members, p, q = group.members(hat), group.a.numerator, group.a.denominator
    lhs = members[n].shifted(1 if hat else -1) - members[n]
    rhs = from_parts([n * q * c for c in members[n - 1].nums], members[n - 1].den * p)
    return _plain(lhs, rhs, note)


def _check_e68(group: _Group, n: int, *, hat: bool) -> dict:
    # Equation (68); with hat, equation (69), whose weights carry one more
    # factor of -1.  As S1(m, 1) = (-1)^(m-1) (m-1)!, the stated weight
    # n! (-1)^(n+l+hat) a^-(n-l) / ((n-l) l!) is -+C(n, l) S1(n-l, 1) a^-(n-l):
    # this is the y^1 coefficient of (49) or (50), the derivative on the left.
    sides = _y_coefficient(group, n, hat, 1)
    return _outcome(sides is None, *(sides or (None, None)))


def _check_t8(group: _Group, n: int, s: int, *, hat: bool) -> dict:
    # Theorem 8 with first-kind Cauchy numbers; with hat, equation (74) with
    # second-kind ones and no (-1)^m.
    # values[l] = sum_i C(l, i) a^-i C_i^(s) P_{l-i}(s), summed in integers
    # with a^-i = q^i p^(top-i) / p^top for a = p/q.
    def values():
        at_s, den = group.values(hat, s)
        weights, cauchy_den = group.numbers(cauchy_row, s, hat)
        p, q, top = group.a.numerator, group.a.denominator, group.top
        weights = [w * q**i * p ** (top - i) for i, w in enumerate(weights)]
        return [
            sum(comb(l, i) * weights[i] * at_s[l - i] for i in range(l + 1)) for l in range(top + 1)
        ], den * cauchy_den * p**top

    return _expanded(group, n, hat, group.expansion(("T8", s), hat, values, bernoulli_row, s))


def _check_t9(group: _Group, n: int, s: int, lam: Fraction) -> dict:
    # The printed statement's binomial weight comb(l, i) disagrees with the
    # identity's own derivation, which carries comb(s, i); the derivation
    # form is the one that holds and is what this verifier implements.
    # values[l] = sum_i C(s, i) (l)_i step^i P_{l-i}(s), step = -lam/((1-lam) a),
    # summed in integers over the step's denominator to the power s.
    def values():
        at_s, den = group.values(False, s)
        step = -lam / ((1 - lam) * group.a)
        sp, sq = step.numerator, step.denominator
        weights = [comb(s, i) * sp**i * sq ** (s - i) for i in range(s + 1)]
        return [
            sum(perm(l, i) * weights[i] * at_s[l - i] for i in range(min(s, l) + 1))
            for l in range(group.top + 1)
        ], den * sq**s

    key = ("T9", s, lam.numerator, lam.denominator)
    expansion = group.expansion(key, False, values, frobenius_row, s, lam)
    return _expanded(group, n, False, expansion)


def _check_e77(group: _Group, n: int, s: int, lam: Fraction) -> dict:
    # values[l] = (1-lam)^-s sum_i C(s, i) (-lam)^(s-i) P^_l(i), summed in
    # integers with lam = u/v over the one denominator (v-u)^s of the weights
    # and the one of the point values.
    def values():
        u, v = lam.numerator, lam.denominator
        weights = [comb(s, i) * (-u) ** (s - i) * v**i for i in range(s + 1)]
        at = [group.values(True, i)[0] for i in range(s + 1)]
        return [
            sum(w * at[i][l] for i, w in enumerate(weights)) for l in range(group.top + 1)
        ], group.values(True, 0)[1] * (v - u) ** s

    key = ("E77", s, lam.numerator, lam.denominator)
    expansion = group.expansion(key, True, values, frobenius_row, s, lam)
    return _expanded(group, n, True, expansion)


# -- audit verifiers ----------------------------------------------------------


def _check_e54(group: _Group, n: int, *, hat: bool) -> dict:
    # Equation (54); with hat, equation (55).  The printed closing sum is a
    # triple sum in the (x+1) or (x-1) power basis with the Lif index shifted
    # by one.  With sign = -1 for hat, D_(n+1) is that sum at x + sign (the
    # tail of recurrence entry n+1) as printed, and in derivation form the
    # Lif-ratio operator on that entry's P_n(x + sign); each is over sign a.
    (remainder, shifted, tail), member = group.recurrence(hat)[n + 1], group.members(hat)[n + 1]
    split = operator_apply(group.lif_ratio(), shifted) * ((-1 if hat else 1) / group.a)
    return _audited(remainder == tail, remainder == split,
                    lambda: (member, member - remainder + split))


def _check_t6(group: _Group, n: int, *, hat: bool, shift: bool = False) -> dict:
    # Theorem 6; with hat, equation (61).  With shift, equation (60), and
    # with hat too, equation (62): shifted members, first-kind Cauchy numbers.
    # As printed, (62)'s first difference term carries the fixed index n-1
    # where (60) has n-l; its derivation form restores n-l.  Both forms are
    # compared with the remainder D_n of recurrence entry n; the printed sum
    # (1/n) sum_l C(n, l) C_l a^-l (lower - upper) reads the kept unshifted gaps;
    # (60)/(62) shift it once.  The other derivation forms read the entry's tail.
    members, p, q = group.members, group.a.numerator, group.a.denominator
    cauchy, den = group.numbers(cauchy_row, 1, not shift)
    weights = [w * c for w, c in zip(group.binomial(p, q)[n], cauchy[:n])]

    def stated(fixed: bool) -> Poly:
        if fixed:
            terms = [(members(hat, -1)[n - 1], sum(weights))]
            terms += [(upper, -w) for upper, w in zip(members(hat)[n:0:-1], weights)]
        else:
            terms = zip(group._keep(("gaps", hat), lambda: [
                lower - upper for lower, upper in zip(members(hat, -1), members(hat))
            ])[n:0:-1], weights)
        total = _combine(terms, den * p**n * n)
        return total.shifted(-1 if hat else 1) if shift else total

    (remainder, _, tail), e62 = group.recurrence(hat)[n], hat and shift
    tail = stated(False) if e62 else tail
    member = group.members(hat)[n]
    return _audited(remainder == stated(e62), remainder == tail,
                    lambda: (member, member - remainder + tail))


def _check_t7(group: _Group, n: int, m: int, *, hat: bool) -> dict:
    # Two evaluations of < exp(-t) Lif_k(sgn log(1+t/a)) (log(1+t/a))^m | x^n >:
    # the theorem after equation (66) for the second kind, equation (67) for
    # the first.
    # In units of m!/(p^n d): the direct moment is rows[n][m], the lowered one
    # p rows[n-1][m] (0 at m = n), and each edge term q times entry [n-1][m-1]
    # at x0 = +-1, Lif index k (values over d, as at 0) or k-1 (over d1).
    edge, (rows, d) = -1 if hat else 1, group.moments(hat, 0)
    (at_k, _), (at_km1, d1) = group.moments(hat, edge), group.moments(hat, edge, -1)
    p, q = group.a.numerator, group.a.denominator
    lowered = p * rows[n - 1][m] if m < n else 0
    both, edge_k, edge_km1 = rows[n][m] + lowered, at_k[n - 1][m - 1], at_km1[n - 1][m - 1]

    def holds(last: int, last_den: int) -> bool:  # direct + lowered == (m-1)/m edge_k + last/m
        return both * m * last_den == q * ((m - 1) * edge_k * last_den + last * d)

    def sides() -> tuple[Poly, Poly]:
        scale = Fraction(factorial(m), p**n * d)
        chained = Fraction(q * ((m - 1) * edge_k * d1 + edge_km1 * d), m * d1) - lowered
        return Poly((scale * rows[n][m],)), Poly((scale * chained,))

    derivation = holds(edge_km1, d1)
    # For the second kind the printed final statement repeats superscript k
    # in the 1/m term where the derivation chain has k-1.
    as_printed = holds(edge_k, d) if hat else derivation
    note = "two-route functional value"
    if hat:
        note += "; the chained evaluation is authoritative"
        note += "" if as_printed else "; printed closing statement fails"
    return _audited(as_printed, derivation, sides, note)


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
            "two-variable identity; both sides are expanded in the products "
            "x^(i) y^(r) of rising factorials, a basis of Q[x, y], and "
            "compared coefficient by coefficient, which proves it for every y; "
            "a mismatch is reported at the first failing power of y",
            partial(_check_e49, hat=False),
        ),
        IdentityInfo(
            "E50", "core", ("k", "a"), 0, "equation (50)",
            "argument-addition rule against scaled falling factorials",
            "two-variable identity; compared coefficient by coefficient in "
            "the products (x)_i (y)_r of falling factorials, as E49",
            partial(_check_e49, hat=True),
        ),
        IdentityInfo(
            "E51", "core", ("k", "a"), 1, "equation (51)",
            "unit backward shift lowers the first-kind mixed polynomials",
            "left side is the member at x-1, the image of the shift operator "
            "exp(-t), less the member; right side a scaled lower-degree member; "
            "compared in rising factorials, where the backward difference of "
            "x^(j) is j x^(j-1)",
            partial(_check_e51, hat=False),
        ),
        IdentityInfo(
            "E52", "core", ("k", "a"), 1, "equation (52)",
            "unit forward shift lowers the second-kind mixed polynomials",
            "left side is the member at x+1, the image of the shift operator "
            "exp(t), less the member, compared in falling factorials; the "
            "printed statement drops a hat on the subtracted term, checked in "
            "the consistent all-second-kind form",
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
            partial(_check_t4, hat=False),
        ),
        IdentityInfo(
            "T10H", "core", ("k", "a"), 0, "remark after Theorem 10",
            "second-kind mixed polynomials expanded over falling factorials",
            _SUM_STRATEGY, partial(_check_t4, hat=True),
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
            "printed sum checked as stated; derivation form compares the "
            "remainder term with the closing Stirling sum of (54) one degree "
            "down, which reads no member",
            partial(_check_t6, hat=False),
        ),
        IdentityInfo(
            "E60", "audit", ("k", "a"), 1, "equation (60)",
            "variant of T6 with first-kind Cauchy numbers and shifted "
            "arguments",
            "same derivation-form remainder as T6",
            partial(_check_t6, hat=False, shift=True),
        ),
        IdentityInfo(
            "E61", "audit", ("k", "a"), 1, "equation (61)",
            "second-kind analogue of T6",
            "printed sum checked as stated; derivation form compares the "
            "remainder with the closing Stirling sum of (55) one degree down",
            partial(_check_t6, hat=True),
        ),
        IdentityInfo(
            "E62", "audit", ("k", "a"), 1, "equation (62)",
            "second-kind analogue of E60",
            "as printed the first difference term has fixed index n-1; the "
            "derivation form restores the running index n-l",
            partial(_check_t6, hat=True, shift=True),
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
    # bool is a subclass of int, but True is no parameter value; a float or
    # str fails here rather than as as_fraction's TypeError.
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ParameterError(f"parameter {axis!r} must be an int or Fraction, got {value!r}")
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


def _check_integer(name: str, value, least: int, what: str = "n") -> None:
    # bool is a subclass of int, but True is no degree or worker count.
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ParameterError(f"{name} needs an integer {what} >= {least}, got {value!r}")


def _run(group: _Group, info: IdentityInfo, n: int, params: dict) -> VerificationResult:
    rest = {axis: value for axis, value in params.items() if axis not in ("k", "a")}
    return VerificationResult(info.identity, n, params, **info.checker(group, n, **rest))


def verify(identity: str, n: int, params: Mapping | None = None, **kwargs) -> VerificationResult:
    """Check one identity at one parameter point, exactly.

    Domain violations raise ParameterError rather than skipping silently.
    """
    info = CATALOGUE.get(identity)
    if info is None:
        raise ParameterError(f"unknown identity {identity!r}")
    supplied = {**(params or {}), **kwargs}
    _check_integer(identity, n, info.n_min)
    canonical = {}
    for axis in info.axes:
        if axis not in supplied:
            raise ParameterError(f"{identity} needs parameter {axis!r}")
        canonical[axis] = _axis_value(axis, supplied.pop(axis), n)
    if supplied:
        raise ParameterError(f"{identity} does not take parameters {sorted(supplied)}")
    return _run(_Group(canonical["k"], canonical["a"], n + 1), info, n, canonical)


def _check_group(n_max: int, tasks: Sequence[tuple[str, dict]], encode: Callable) -> list:
    """Run the (identity, base params) tasks of one (k, a) on one group, and
    return ``encode`` of each task's result list."""
    group = _Group(tasks[0][1]["k"], tasks[0][1]["a"], n_max + 1)
    out = []
    for identity, base in tasks:
        info = CATALOGUE[identity]
        if "m" in info.axes:
            # m sorts after a and k, the other axes of T7/E67.
            points = [(n, {**base, "m": m}) for m in range(1, n_max + 1)
                      for n in range(max(info.n_min, m), n_max + 1)]
        else:
            points = [(n, dict(base)) for n in range(info.n_min, n_max + 1)]
        out.append(encode([_run(group, info, n, params) for n, params in points]))
    return out


def verify_grid(
    ids: Iterable[str], n_max: int, grid: Grid | None = None, jobs: int = 1,
    encode: Callable | None = None,
) -> list:
    """Exhaustively verify the given identities over a parameter grid.

    Results come in one canonical order, independent of the order of the
    identities and grid values given and of ``jobs``: identities sorted, then
    parameters lexicographic in (name, value), with m before n for T7/E67,
    then n.  An unknown identity, a repeated identity or grid value, a value
    outside the domain of an axis some requested identity reads, an
    ``n_max`` that is not an integer >= 0, or a ``jobs`` that is not an
    integer >= 1 raises ParameterError before any check runs.

    Without ``encode`` the result is the flat list of VerificationResults.
    With it, the result is ``encode(results)`` for each task, in task order:
    one task per identity and point of its axes other than m, its results
    at every n (and m).  ``encode`` runs where the task ran, so a worker
    sends back what it returns, not the results; it must be a module-level
    function (or a partial of one), which a worker can unpickle.

    The checks split into groups by (k, a); each group reads its inputs once.
    With ``jobs > 1`` and more than one group, the groups run in up to
    ``jobs`` worker processes started by fork, so the workers see the
    caller's in-memory state and import nothing.  Call it so only when no
    other thread is running: a thread holding a table lock (such as
    ``special._GROW_LOCK``) at fork time would leave a worker deadlocked.
    """
    grid = grid or DEFAULT_GRID
    ids = tuple(ids)
    _check_integer("verify_grid", jobs, 1, "jobs")
    _check_integer("verify_grid", n_max, 0)
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
        axis_values[axis] = tuple(_axis_value(axis, value, n_max) for value in axis_values[axis])
    tasks: list[tuple[str, dict]] = []
    for identity in sorted(ids):
        plain_axes = sorted(axis for axis in CATALOGUE[identity].axes if axis != "m")
        ordered = (sorted(axis_values[axis], key=as_fraction) for axis in plain_axes)
        tasks += [(identity, dict(zip(plain_axes, combo))) for combo in itertools.product(*ordered)]
    groups: dict[tuple, list[int]] = {}
    for index, (_, base) in enumerate(tasks):
        groups.setdefault((base["k"], base["a"]), []).append(index)
    work = [[tasks[index] for index in indices] for indices in groups.values()]
    run = partial(_check_group, n_max, encode=encode or list)
    if jobs == 1 or len(work) <= 1:
        done = map(run, work)
    else:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(min(jobs, len(work))) as pool:
            done = list(pool.imap(run, work, chunksize=1))
    per_task: list = [None] * len(tasks)
    for indices, group in zip(groups.values(), done):
        for index, item in zip(indices, group):
            per_task[index] = item
    if encode is None:
        return [result for results in per_task for result in results]
    return per_task
