import hashlib
from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmix.families import (
    bernoulli_pair,
    catalogue_pairs,
    falling_pair,
    frobenius_pair,
    mixed_hat_pair,
    mixed_pair,
    monomial_pair,
    pc_mixed,
    rising_pair,
)
from pcmix.poly import Poly, X
from pcmix.series import (
    OrderExhausted,
    Series,
    SeriesError,
    exp_neg_series,
    exp_series,
    log1p_scaled,
    one_series,
    t_series,
)
from pcmix.sheffer import (
    ShefferPair,
    apply_functional,
    connection_coefficients,
    operator_apply,
    recurrence_next,
    transfer_check,
)
from pcmix.special import falling_poly, lif_series, rising_poly


def test_functional_monomial_pairing():
    for k in range(5):
        tk = t_series(6) ** k
        for n in range(5):
            expected = factorial(n) if n == k else 0
            assert apply_functional(tk, X ** n) == expected
    assert apply_functional(t_series(6) ** 2, X ** 2) == 2
    assert apply_functional(t_series(6) ** 2, X ** 3) == 0


def test_functional_exponential_evaluation():
    y = F(5, 3)
    shift = exp_series(8).scale_t(y)
    for n in range(7):
        assert apply_functional(shift, X ** n) == y ** n


def test_functional_rejects_x_dependent_series():
    with pytest.raises(SeriesError):
        apply_functional(Series((X,), 3), X)


def test_functional_order_budget():
    with pytest.raises(OrderExhausted):
        apply_functional(one_series(3), X ** 3)


def test_operator_derivative_and_shift():
    assert operator_apply(t_series(5), X ** 3) == 3 * X ** 2
    shifted = operator_apply(exp_series(5).scale_t(2), X ** 3)
    assert shifted == X ** 3 + 6 * X ** 2 + 12 * X + 8


def test_operator_lowers_rising_factorials():
    lower = one_series(10) - exp_neg_series(10)
    for n in range(1, 9):
        assert operator_apply(lower, rising_poly(n)) == n * rising_poly(n - 1)


def fraction_operator_apply(f, p):
    # sum_k f_k p^(k), differentiating the coefficient list once per term.
    out, d = [F(0)] * len(p), list(p)
    for c in f:
        out = [o + c * v for o, v in zip(out, d + [F(0)] * len(p))]
        d = [j * v for j, v in enumerate(d)][1:]
    return out


# Negative and large-denominator values, every degree up to the order's
# limit; the examples add the zero polynomial and zero series coefficients.
wide_rationals = st.fractions(min_value=-(10 ** 6), max_value=10 ** 6, max_denominator=10 ** 12)


@settings(deadline=None, max_examples=100)
@given(st.lists(wide_rationals, min_size=7, max_size=7),
       st.integers(0, 7).flatmap(lambda size: st.lists(wide_rationals, min_size=size,
                                                       max_size=size)))
@example([F(1, 3), F(0), F(-2), F(0), F(0), F(7, 10 ** 9), F(0)], [])
@example([F(0)] * 7, [F(1), F(-2, 3)])
@example([F(0), F(0), F(5, 4), F(0), F(-1), F(0), F(2)], [F(3), F(0), F(0), F(-7, 2), F(0), F(1)])
def test_operator_matches_fraction_reference(f_values, p_values):
    result = operator_apply(Series(f_values, 7), Poly(p_values))
    assert result == Poly(fraction_operator_apply(f_values, p_values))
    assert result.den > 0 and gcd(result.den, *result.nums) == 1
    assert not result.nums or result.nums[-1] != 0
    assert result.nums or result.den == 1


def test_operator_rejects_x_dependent_series():
    with pytest.raises(SeriesError):
        operator_apply(Series((X, 1), 3), X)


def test_pair_validation():
    with pytest.raises(SeriesError):
        ShefferPair(t_series(5), t_series(5))  # g not invertible
    with pytest.raises(SeriesError):
        ShefferPair(one_series(5), one_series(5))  # f not delta
    with pytest.raises(SeriesError):
        ShefferPair(one_series(5), t_series(4))  # order mismatch


def test_monomial_pair_polynomials():
    pair = monomial_pair(8)
    for n in range(8):
        assert pair.polynomial(n) == X ** n
    with pytest.raises(OrderExhausted):
        pair.polynomial(8)


def test_rising_and_falling_pairs():
    rp = rising_pair(9)
    fp = falling_pair(9)
    for n in range(7):
        assert rp.polynomial(n) == rising_poly(n)
        assert fp.polynomial(n) == falling_poly(n)


def test_mixed_pair_matches_generating_function_route():
    pair = mixed_pair(1, F(1), 8)
    assert pair.polynomial(1) == Poly((F(-1, 2), -1))
    assert pair.polynomial(1) == pc_mixed(1, 1, 1)


def test_orthogonality_for_mixed_pairs():
    # <g f^m | s_n> = n! delta(n, m) is a unit row when a pair is expanded
    # over itself; for m > n it holds because f is a delta series.
    for pair in (monomial_pair(8), mixed_pair(2, F(2), 8), mixed_hat_pair(-1, F(3, 7), 8)):
        for n in range(7):
            row = connection_coefficients(pair, pair, n)
            assert row == [F(1) if m == n else F(0) for m in range(n + 1)], (pair.label, n)


def test_orthogonality_pairing_is_sequence_specific():
    # Pairing the monomial weights with a different sequence breaks the rule,
    # so the check genuinely discriminates.
    pair = monomial_pair(8)
    assert apply_functional(pair.g * pair.f, falling_poly(2)) == -1


def test_connection_identity_when_pairs_match():
    pair = bernoulli_pair(2, 9)
    for n in range(6):
        row = connection_coefficients(pair, pair, n)
        assert row == [F(1) if m == n else F(0) for m in range(n + 1)]


def test_connection_mixed_to_rising_frozen_values():
    row = connection_coefficients(mixed_pair(1, F(1), 8), rising_pair(8), 1)
    assert row == [F(-1, 2), F(-1)]


def test_connection_reconstructs_source_polynomials():
    source = frobenius_pair(1, F(2), 9)
    target = falling_pair(9)
    for n in range(8):
        row = connection_coefficients(source, target, n)
        rebuilt = Poly()
        for m, c in enumerate(row):
            rebuilt = rebuilt + target.polynomial(m) * c
        assert rebuilt == source.polynomial(n)


def test_connection_round_trip_is_identity():
    a = mixed_pair(1, F(2), 9)
    b = rising_pair(9)
    for n in range(8):
        forward = connection_coefficients(a, b, n)
        total = [F(0)] * (n + 1)
        for m in range(n + 1):
            back = connection_coefficients(b, a, m)
            for j in range(m + 1):
                total[j] += forward[m] * back[j]
        assert total == [F(1) if j == n else F(0) for j in range(n + 1)]


def test_recurrence_monomials():
    pair = monomial_pair(8)
    s = Poly((1,))
    for n in range(6):
        s = recurrence_next(pair, s)
        assert s == X ** (n + 1)


def test_recurrence_first_step_mixed():
    pair = mixed_pair(1, F(1), 8)
    assert recurrence_next(pair, Poly((1,))) == Poly((F(-1, 2), -1))


def test_recurrence_ten_steps_match_construction():
    pair = mixed_hat_pair(0, F(2), 13)
    s = pair.polynomial(0)
    for n in range(10):
        s = recurrence_next(pair, s)
    assert s == pair.polynomial(10)


def test_recurrence_order_exhaustion():
    pair = monomial_pair(4)
    with pytest.raises(OrderExhausted):
        recurrence_next(pair, X ** 3)


def test_transfer_identity_map():
    f = t_series(8)
    assert transfer_check(f, f, 3)


def test_transfer_to_scaled_exp_pairs():
    n_ord = 10
    f = t_series(n_ord)
    g = (exp_neg_series(n_ord) - one_series(n_ord)) * F(1)
    for n in range(1, 6):
        assert transfer_check(f, g, n)
    g2 = (exp_series(n_ord) - one_series(n_ord)) * F(2)
    assert transfer_check(f, g2, 3)
    # The target sequence is the scaled falling factorial.
    assert ShefferPair(one_series(n_ord), g2).polynomial(3) == falling_poly(3) * F(1, 8)


def test_transfer_rejects_non_delta():
    with pytest.raises(SeriesError):
        transfer_check(one_series(5), t_series(5), 2)


def test_derivative_functional_rule():
    # <f(t) | x p(x)> = <f'(t) | p(x)>.
    gf = exp_neg_series(8) * lif_series(2, 8).compose(log1p_scaled(F(3, 7), 8))
    for f, p in ((t_series(4) ** 2, X), (exp_neg_series(8), X ** 3), (gf, X ** 5)):
        assert apply_functional(f, X * p) == apply_functional(f.derivative(), p)


def test_lowering_property_for_mixed_pair():
    pair = mixed_pair(2, F(3, 7), 10)
    for n in range(1, 8):
        assert operator_apply(pair.f, pair.polynomial(n)) == n * pair.polynomial(n - 1)


def test_catalogue_route_bytes_are_pinned():
    # Every member, one recurrence step from each member and the connection
    # onto the rising factorials, for the whole pair catalogue: the digest
    # pins the exact rationals the series kernel produces on this route.
    target = rising_pair(12)
    digest = hashlib.sha256()
    for pair in catalogue_pairs(12):
        digest.update(pair.label.encode())
        for n in range(12):
            member = pair.polynomial(n)
            digest.update(repr((member.nums, member.den)).encode())
            if n < 11:
                step = recurrence_next(pair, member)
                digest.update(repr((step.nums, step.den)).encode())
        row = connection_coefficients(pair, target, 11)
        digest.update(repr([(c.numerator, c.denominator) for c in row]).encode())
    assert digest.hexdigest() == "248e9e0fb82b0c6fa4d54c5c6158e0cd567268f7ff1a3595679ebb4f6ad15226"
