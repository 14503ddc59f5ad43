"""Umbral calculus: linear functionals, operators and Sheffer sequences.

A constant-coefficient series f acts two ways on polynomials:

* as a differential operator, t acting as d/dx (``operator_apply``);
* as a linear functional, the constant term of that operator's image
  (``apply_functional``).

A Sheffer pair (g, f) with g invertible and f delta determines a unique
polynomial sequence with generating function h(t) * exp(x*fbar(t)), where
fbar is the compositional inverse of f and h = 1/g(fbar) (Roman, *The Umbral
Calculus*, Thm 2.3.4).  ``ShefferPair.polynomial`` reads each member off that
series as an exponential coefficient.  The members obey the orthogonality rule
<g f^m | s_n> = n! delta(n, m), so any polynomial p equals the sum over m of
<g f^m | p>/m! * s_m(x), the expansion theorem of Roman's section 2.3;
``connection_coefficients`` reads each row off that sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, perm

from .poly import Poly, X, from_parts
from .series import (
    NotDelta,
    NotInvertible,
    OrderExhausted,
    Series,
    SeriesError,
    _over_common_denominator,
    exp_xt,
    one_series,
)


def _require_constant(f: Series, what: str) -> None:
    if not f.constant_coefficients:
        raise SeriesError(f"{what} needs a series with x-free coefficients")


def apply_functional(f: Series, p: Poly) -> Fraction:
    """Pair the series f, read as a linear functional, with the polynomial p.

    The value is f(t) p(x) at x = 0, the sum over n of n! * [t^n] f * [x^n] p
    (Roman, *The Umbral Calculus*); the order of f must cover the degree of p.
    """
    return operator_apply(f, p).coefficient(0)


def operator_apply(f: Series, p: Poly) -> Poly:
    """Apply f(t) as a differential operator, t acting as d/dx."""
    _require_constant(f, "an operator")
    if f.order <= p.degree:
        raise OrderExhausted(
            f"operator of order {f.order} cannot act on degree {p.degree}"
        )
    # [x^j] f(d/dx) p = sum_k f_k (j+k)!/j! p_(j+k), over den(f) den(p).
    rows, den = _over_common_denominator(f.coeffs[:len(p.nums)])
    fs = [row[0] if row else 0 for row in rows]
    nums = p.nums
    return from_parts([sum(fs[k] * perm(j + k, k) * nums[j + k] for k in range(len(nums) - j))
                       for j in range(len(nums))], den * p.den)


class ShefferPair:
    """A pair (g, f): g invertible, f delta, both with x-free coefficients."""

    def __init__(self, g: Series, f: Series, label: str = ""):
        if g.order != f.order:
            raise SeriesError(f"pair orders differ: {g.order} vs {f.order}")
        _require_constant(g, "a Sheffer pair")
        _require_constant(f, "a Sheffer pair")
        if not g.is_invertible:
            raise NotInvertible("g must have a nonzero constant term")
        if not f.is_delta:
            raise NotDelta("f must be a delta series")
        self.g = g
        self.f = f
        self.label = label or "pair"

    @property
    def order(self) -> int:
        return self.g.order

    @cached_property
    def fbar(self) -> Series:
        """Compositional inverse of f, computed once."""
        return self.f.revert()

    @cached_property
    def _egf(self) -> Series:
        """h(t) * exp(x*fbar(t)) with h = 1/g(fbar): the members' generating function."""
        return self.g.compose(self.fbar).inverse() * exp_xt(self.order).compose(self.fbar)

    @cached_property
    def _recurrence_ops(self) -> tuple[Series, Series]:
        """The operators 1/f'(t) and g'(t)/g(t) of ``recurrence_next``."""
        inv_fprime = self.f.derivative().inverse()
        return inv_fprime, self.g.derivative() * self.g.truncate(self.order - 1).inverse()

    def polynomial(self, n: int) -> Poly:
        """The degree-n member of the sequence attached to this pair."""
        if not 0 <= n < self.order:
            raise OrderExhausted(
                f"{self.label}: degree {n} needs order > {n}, have {self.order}"
            )
        return self._egf.egf_coefficient(n)

    def __repr__(self) -> str:
        return f"ShefferPair({self.label}, order={self.order})"


def connection_coefficients(
    source: ShefferPair, target: ShefferPair, n: int
) -> list[Fraction]:
    """Coefficients expanding the source sequence member over the target basis.

    Returns the row c[0..n] with source_n(x) = sum of c[m] * target_m(x).  By
    the expansion theorem c[m] = <g f^m | source_n>/m! for the target's (g, f);
    the operators commute, so f is applied to the image of g one step at a time.
    """
    if source.order != target.order:
        raise SeriesError("connection needs pairs of equal order")
    if not 0 <= n < source.order:
        raise OrderExhausted(f"degree {n} needs order > {n}")
    image = operator_apply(target.g, source.polynomial(n))
    row = [image.coefficient(0)]
    for m in range(1, n + 1):
        image = operator_apply(target.f, image)
        row.append(image.coefficient(0) / factorial(m))
    return row


def recurrence_next(pair: ShefferPair, s_n: Poly) -> Poly:
    """Next sequence member via the operator recurrence.

    Applies 1/f'(t) first, then multiplication by x minus the operator
    g'(t)/g(t); each operator consumes one order of the pair's series.
    """
    if pair.order < s_n.degree + 2:
        raise OrderExhausted(
            f"{pair.label}: recurrence from degree {s_n.degree} "
            f"needs order >= {s_n.degree + 2}, have {pair.order}"
        )
    inv_fprime, g_ratio = pair._recurrence_ops
    v = operator_apply(inv_fprime, s_n)
    return X * v - operator_apply(g_ratio, v)


def transfer_check(f: Series, g: Series, n: int) -> bool:
    """Check the transfer formula between the associated sequences of f and g.

    With p the sequence for (1, f) and q the sequence for (1, g), tests
    q_n(x) = x * (f(t)/g(t))^n * x^{-1} * p_n(x) for n >= 1.
    """
    if n < 1:
        raise ValueError("the transfer formula needs n >= 1")
    if f.order != g.order:
        raise SeriesError("transfer needs series of equal order")
    if not (f.is_delta and g.is_delta):
        raise NotDelta("transfer needs two delta series")
    p_n = ShefferPair(one_series(f.order), f).polynomial(n)
    q_n = ShefferPair(one_series(g.order), g).polynomial(n)
    ratio = f.divide_t() * g.divide_t().inverse()
    lowered = p_n.divide_x()  # associated sequences vanish at 0 for n >= 1
    mapped = X * operator_apply(ratio ** n, lowered)
    return mapped == q_n
