from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmix.poly import Poly, X
from pcmix.series import (
    NotDelta,
    NotInvertible,
    OrderExhausted,
    OrderMismatch,
    Series,
    binomial_pow,
    exp_neg_series,
    exp_series,
    exp_xt,
    log1p_scaled,
    one_series,
    t_series,
)
from pcmix.special import lif_series, stirling1

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def const_series(order):
    return st.lists(rationals, min_size=0, max_size=order).map(
        lambda cs: Series(cs, order)
    )


small_polys = st.lists(rationals, min_size=0, max_size=3).map(Poly)


def poly_series(order):
    return st.lists(small_polys, min_size=0, max_size=order).map(
        lambda cs: Series(cs, order)
    )


# -- addition ---------------------------------------------------------------


def test_add_cancellation():
    one_plus = Series((1, 1), 3)
    one_minus = Series((1, -1), 3)
    assert one_plus + one_minus == Series((2,), 3)


def test_add_identity_element():
    f = Series((F(1, 3), Poly((0, 2)), -1), 3)
    assert f + Series((), 3) == f


def test_add_inverse_of_cauchy_gf():
    gf = log1p_scaled(1, 6).divide_t().inverse()
    assert gf + (-gf) == Series((), 5)


def test_add_order_mismatch():
    with pytest.raises(OrderMismatch):
        one_series(3) + one_series(4)


# -- multiplication -----------------------------------------------------------


def test_mul_difference_of_squares():
    assert Series((1, 1), 4) * Series((1, -1), 4) == Series((1, 0, -1), 4)


def test_mul_exp_times_exp_neg():
    assert exp_series(8) * exp_neg_series(8) == one_series(8)


def test_mul_first_order_charlier():
    # exp(-t) * (1+t)^x at order 2: 1 + (x-1) t.
    product = exp_neg_series(2) * binomial_pow(1, X, 2)
    assert product == Series((1, X - 1), 2)


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatch):
        one_series(3) * one_series(5)


# -- multiplicative inverse ----------------------------------------------------


def test_inverse_of_one():
    assert one_series(5).inverse() == one_series(5)


def test_inverse_geometric():
    assert Series((1, 1), 4).inverse() == Series((1, -1, 1, -1), 4)


def test_inverse_cauchy_gf_long_division():
    # t/log(1+t): long-division oracle gives 1, 1/2, -1/12, 1/24.
    gf = log1p_scaled(1, 5).divide_t().inverse()
    assert list(gf.coeffs[:4]) == [
        F(1),
        F(1, 2),
        F(-1, 12),
        F(1, 24),
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_inverse_of_exp_xt_is_exp_minus_xt(n):
    assert exp_xt(n).inverse() == exp_xt(n).scale_t(-1)


def test_inverse_rejects_delta_and_x_dependent():
    with pytest.raises(NotInvertible):
        t_series(4).inverse()
    with pytest.raises(NotInvertible):
        Series((X, 1), 3).inverse()


# -- composition ----------------------------------------------------------------


def test_compose_with_t_is_identity():
    f = Series((2, F(1, 3), Poly((1, 1)), -5), 4)
    assert f.compose(t_series(4)) == f


def test_compose_exp_with_log():
    n = 7
    assert exp_series(n).compose(log1p_scaled(1, n)) == one_series(n) + t_series(n)


def test_compose_lif1_with_log_is_cauchy_gf():
    # Lif_1(t) * t = exp(t) - 1, so Lif_1(log(1+t)) = t/log(1+t).
    n = 7
    assert lif_series(1, n) * t_series(n) == exp_series(n) - one_series(n)
    composed = lif_series(1, n).compose(log1p_scaled(1, n))
    assert composed.truncate(n - 1) == log1p_scaled(1, n).divide_t().inverse()


@pytest.mark.parametrize("n", [2, 7, 12])
def test_compose_exp_with_xt_is_exp_xt(n):
    assert exp_series(n).compose(t_series(n) * X) == exp_xt(n)


def test_compose_rejects_nonzero_constant_term():
    with pytest.raises(NotDelta):
        exp_series(4).compose(one_series(4))


# -- reversion -------------------------------------------------------------------


def test_revert_t():
    assert t_series(5).revert() == t_series(5)


def test_revert_exp_minus_one():
    f = exp_series(5) - one_series(5)
    assert f.revert() == log1p_scaled(1, 5)


def test_revert_scaled_exp_neg_pair():
    a = F(3)
    f = (exp_neg_series(5) - one_series(5)) * a
    assert f.revert() == log1p_scaled(a, 5) * F(-1)


def test_revert_rejects_non_delta():
    with pytest.raises(NotDelta):
        one_series(4).revert()
    with pytest.raises(NotDelta):
        Series((0, 0, 1), 4).revert()


# -- constructors ------------------------------------------------------------------


def test_log1p_unit_coefficients():
    assert log1p_scaled(1, 4) == Series((0, 1, F(-1, 2), F(1, 3)), 4)


def test_log1p_scaled_by_two():
    assert log1p_scaled(2, 3) == Series((0, F(1, 2), F(-1, 8)), 3)


def test_log1p_zero_denominator_rejected():
    with pytest.raises(Exception):
        log1p_scaled(0, 4)


def test_log_power_matches_stirling_bridge():
    # Squared log series against 2! S1(l, 2) / l!.
    squared = log1p_scaled(1, 8) ** 2
    for l in range(7):
        expected = F(2 * stirling1(l, 2) if l >= 2 else 0, factorial(l))
        assert squared.coeffs[l] == expected


def test_exp_series_values():
    e = exp_series(4)
    assert e.coeffs[0] == Poly((1,))
    assert e == Series((1, 1, F(1, 2), F(1, 6)), 4)


def test_binomial_pow_constant_exponent_zero():
    assert binomial_pow(F(5, 7), 0, 5) == one_series(5)


def test_binomial_pow_x_exponent():
    s = binomial_pow(1, X, 3)
    assert s == Series((1, X, (X * X - X) * F(1, 2)), 3)


def test_binomial_pow_negative_x_gives_rising_factorials():
    from pcmix.special import rising_poly

    s = binomial_pow(1, -X, 7)
    for n in range(7):
        assert s.egf_coefficient(n) == rising_poly(n) * (-1) ** n


# -- coefficient extraction ----------------------------------------------------------


def test_egf_coefficient_of_exp_is_one():
    e = exp_series(6)
    for n in range(6):
        assert e.egf_coefficient(n) == Poly((1,))


def test_egf_coefficient_cauchy_number():
    gf = log1p_scaled(1, 5).divide_t().inverse()
    assert gf.egf_coefficient(2) == Poly((F(-1, 6),))


def test_egf_coefficient_mixed_family_first_order():
    from pcmix.families import pc_mixed_series

    gf = pc_mixed_series(1, F(1), 3)
    assert gf.egf_coefficient(1) == Poly((F(-1, 2), -1))


def test_egf_coefficient_out_of_range():
    with pytest.raises(OrderExhausted):
        exp_series(3).egf_coefficient(3)


# -- derivative -------------------------------------------------------------------------


def test_derivative_of_constant_is_zero():
    assert Series((7,), 4).derivative() == Series((), 3)


def test_derivative_of_exp_is_exp():
    assert exp_series(6).derivative() == exp_series(5)


def test_derivative_drops_order():
    assert exp_series(6).derivative().order == 5
    with pytest.raises(OrderExhausted):
        one_series(1).derivative()


def test_lif_log_derivative_identity():
    # Multiplied-through form: d/dt Lif_k(log(1+t/a)) times
    # a*(1+t/a)*log(1+t/a) equals Lif_(k-1)(log(1+t/a)) - Lif_k(log(1+t/a)).
    n = 8
    for k in (0, 1, 2):
        for a in (F(1), F(3, 7)):
            log_a = log1p_scaled(a, n)
            composed = lif_series(k, n).compose(log_a)
            lhs = composed.derivative()
            one_plus = one_series(n) + t_series(n) * (1 / a)
            multiplier = (one_plus * log_a * a).truncate(n - 1)
            rhs = (lif_series(k - 1, n).compose(log_a) - composed).truncate(n - 1)
            assert lhs * multiplier == rhs, (k, a)


# -- algebraic laws (property-based) ------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(poly_series(5), poly_series(5), poly_series(5))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# Zero, negative and large-denominator coefficients, so the common
# denominators of the two operands differ from term to term.
wide_rationals = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-(10 ** 6), max_value=10 ** 6, max_denominator=10 ** 12),
)
wide_series = st.lists(
    st.lists(wide_rationals, max_size=4).map(Poly), max_size=6
).map(lambda cs: Series(cs, 6))


def assert_canonical(series):
    for c in series.coeffs:
        assert c.den > 0 and gcd(c.den, *c.nums) == 1
        assert not c.nums or c.nums[-1] != 0
        assert c.nums or c.den == 1


@settings(deadline=None, max_examples=100)
@given(wide_series, wide_series)
def test_mul_matches_schoolbook_poly_products(f, g):
    out = [Poly()] * 6
    for i in range(6):
        for j in range(6 - i):
            out[i + j] = out[i + j] + f.coeffs[i] * g.coeffs[j]
    product = f * g
    assert product == Series(out, 6)
    assert_canonical(product)


# -- x-free operands against the general path and a Fraction reference ----------------

xfree_values = st.lists(wide_rationals, max_size=6)


def fraction_product(f, g):
    return [sum(f[i] * g[m - i] for i in range(m + 1)) for m in range(len(f))]


def fraction_inverse(f):
    out = [1 / f[0]]
    for n in range(1, len(f)):
        out.append(-sum(f[i] * out[n - i] for i in range(1, n + 1)) / f[0])
    return out


def fraction_compose(f, g):
    out, power = [F(0)] * len(f), [F(1)] + [F(0)] * (len(f) - 1)
    for c in f:
        out = [o + c * p for o, p in zip(out, power)]
        power = fraction_product(power, g)
    return out


def padded(values):
    return [F(v) for v in values] + [F(0)] * (6 - len(values))


@settings(deadline=None, max_examples=100)
@given(xfree_values, xfree_values)
def test_xfree_mul_matches_x_lifted_general_path(f_values, g_values):
    # g * X has rows of width 2, so the product goes through the per-pair
    # convolution; dividing out x must give the scalar product.
    f, g = Series(f_values, 6), Series(g_values, 6)
    product = f * g
    lifted = f * (g * X)
    assert all(c.coefficient(0) == 0 for c in lifted.coeffs)
    assert product == Series([Poly(c.coeffs[1:]) for c in lifted.coeffs], 6)
    assert product == Series(fraction_product(padded(f_values), padded(g_values)), 6)
    assert_canonical(product)


@settings(deadline=None, max_examples=100)
@given(xfree_values, xfree_values)
def test_xfree_compose_matches_fraction_reference(f_values, g_values):
    g_values = padded(g_values)
    g_values[0] = F(0)
    composed = Series(f_values, 6).compose(Series(g_values, 6))
    assert composed == Series(fraction_compose(padded(f_values), g_values), 6)
    assert_canonical(composed)


@settings(deadline=None, max_examples=100)
@given(wide_rationals.filter(lambda q: q != 0), xfree_values)
def test_xfree_inverse_matches_fraction_reference(c0, tail):
    values = [c0] + padded(tail)[1:]
    inverse = Series(values, 6).inverse()
    assert inverse == Series(fraction_inverse(values), 6)
    assert_canonical(inverse)


@settings(deadline=None, max_examples=60)
@given(rationals.filter(lambda q: q != 0), st.one_of(const_series(5), poly_series(5)))
def test_inverse_round_trip(c0, tail):
    f = Series((c0,) + tail.coeffs[1:], 5)
    assert f * f.inverse() == one_series(5)


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.lists(rationals, min_size=0, max_size=4),
                 st.lists(small_polys, min_size=0, max_size=4)))
def test_revert_round_trips(higher):
    f = Series((0, 1, *higher), 6)
    fbar = f.revert()
    assert fbar.compose(f) == t_series(6)
    assert f.compose(fbar) == t_series(6)


@settings(deadline=None, max_examples=40)
@given(poly_series(5), poly_series(5), rationals, rationals)
def test_egf_linearity(f, g, alpha, beta):
    combo = f * alpha + g * beta
    for n in range(5):
        assert combo.egf_coefficient(n) == (
            f.egf_coefficient(n) * alpha + g.egf_coefficient(n) * beta
        )


def test_scale_t():
    assert exp_series(5).scale_t(-1) == exp_neg_series(5)
    assert lif_series(2, 5).scale_t(-1).coeffs[3] == Poly((F(-1, 6 * 16),))


def test_exp_xt_coefficients():
    s = exp_xt(4)
    assert s.egf_coefficient(3) == X ** 3
