import functools
import operator
import sys
import threading
from fractions import Fraction as F
from math import comb, factorial

import pytest

from pcmix import special
from pcmix.poly import Poly, X
from pcmix.series import exp_series, log1p_scaled, one_series, t_series
from pcmix.special import (
    bernoulli_order,
    bernoulli_row,
    cauchy_first,
    cauchy_second,
    falling_poly,
    frobenius_number,
    lif_series,
    rising_poly,
    stirling1,
    stirling2,
)


def partitions_count(n, k):
    # Brute-force count of set partitions of {0..n-1} into k nonempty blocks.
    if n == 0:
        return 1 if k == 0 else 0

    def rec(items, blocks):
        if not items:
            return 1 if len(blocks) == k else 0
        if len(blocks) > k:
            return 0
        head, rest = items[0], items[1:]
        total = 0
        for i in range(len(blocks)):
            total += rec(rest, blocks[:i] + [blocks[i] + [head]] + blocks[i + 1 :])
        total += rec(rest, blocks + [[head]])
        return total

    return rec(list(range(n)), [])


def test_stirling_base_cases():
    assert stirling1(0, 0) == 1
    for n in range(1, 10):
        assert stirling1(n, n) == 1
        assert stirling1(n, 0) == 0
        assert stirling2(n, n) == 1
        assert stirling2(n, 1) == 1


def test_stirling_recurrences_hold_for_stored_entries():
    for n in range(12):
        for k in range(n + 2):
            lower = stirling1(n, k - 1) if 1 <= k <= n + 1 else 0
            same = stirling1(n, k) if k <= n else 0
            assert stirling1(n + 1, k) == lower - n * same
            lower2 = stirling2(n, k - 1) if 1 <= k <= n + 1 else 0
            same2 = stirling2(n, k) if k <= n else 0
            assert stirling2(n + 1, k) == lower2 + k * same2


def test_stirling1_against_falling_factorial_expansion():
    # Independent oracle: multiply the factors of the falling factorial.
    for n in range(11):
        p = Poly((1,))
        for i in range(n):
            p = p * Poly((-i, 1))
        for k in range(n + 1):
            assert stirling1(n, k) == p.coefficient(k)
    assert stirling1(3, 1) == 2 and stirling1(3, 2) == -3


def test_stirling2_against_partition_count():
    for n in range(7):
        for k in range(n + 1):
            assert stirling2(n, k) == partitions_count(n, k)
    assert stirling2(3, 2) == 3


def test_stirling_matrix_orthogonality():
    for n in range(11):
        for m in range(11):
            total = sum(
                stirling1(n, k) * stirling2(k, m) for k in range(m, n + 1)
            ) if m <= n else 0
            assert total == (1 if n == m else 0)


def test_stirling1_series_bridge():
    # m! S1(l, m) / l! is the t^l coefficient of log(1+t)^m.
    for m in range(7):
        power = log1p_scaled(1, 8) ** m
        for l in range(8):
            expected = (
                F(factorial(m) * stirling1(l, m), factorial(l)) if l >= m else F(0)
            )
            assert power.coeffs[l] == expected


def test_stirling_domain_errors():
    with pytest.raises(ValueError):
        stirling1(2, 3)
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_stirling_rows_match_sympy():
    # sympy's stirling() is an independent route to the signed and unsigned
    # first kind and to the second kind.
    numbers = pytest.importorskip(
        "sympy.functions.combinatorial.numbers", reason="the Stirling oracle needs sympy"
    )
    n_max = 30
    first, second = special.stirling_rows(n_max), special.stirling_rows(n_max, second=True)
    for n in range(n_max + 1):
        ks = range(n + 1)
        assert first[n] == tuple(numbers.stirling(n, k, kind=1, signed=True) for k in ks), n
        assert [abs(s) for s in first[n]] == [numbers.stirling(n, k, kind=1) for k in ks], n
        assert second[n] == tuple(numbers.stirling(n, k, kind=2) for k in ks), n


def test_cauchy_first_values():
    for n in range(6):
        assert cauchy_first(n, 0) == (1 if n == 0 else 0)
    assert cauchy_first(1, 1) == F(1, 2)
    assert cauchy_first(2, 1) == F(-1, 6)


def test_cauchy_first_order_two_by_squaring():
    gf = log1p_scaled(1, 8).divide_t().inverse()
    squared = gf * gf
    for n in range(6):
        assert cauchy_first(n, 2) == squared.egf_coefficient(n)
    assert cauchy_first(2, 2) == squared.egf_coefficient(2)


def test_cauchy_second_values():
    for r in range(4):
        assert cauchy_second(0, r) == 1
    assert cauchy_second(1, 1) == F(-1, 2)
    assert cauchy_second(2, 1) == F(5, 6)


def test_cauchy_gf_relation_between_kinds():
    # First-kind generating function equals (1+t) times the second-kind one.
    n = 10
    first = log1p_scaled(1, n).divide_t().inverse()
    second_base = (one_series(n) + t_series(n)) * log1p_scaled(1, n)
    second = second_base.divide_t().inverse()
    assert first == (one_series(n - 1) + t_series(n - 1)) * second
    for m in range(n - 1):
        assert cauchy_first(m, 1) == first.egf_coefficient(m)
        assert cauchy_second(m, 1) == second.egf_coefficient(m)


def test_cauchy_higher_order_against_series_power():
    for r in range(4):
        gf = (log1p_scaled(1, 13).divide_t().inverse()) ** r
        gf2 = (
            ((one_series(13) + t_series(13)) * log1p_scaled(1, 13)).divide_t().inverse()
        ) ** r
        for n in range(13 - 1):
            assert cauchy_first(n, r) == gf.egf_coefficient(n)
            assert cauchy_second(n, r) == gf2.egf_coefficient(n)


def test_bernoulli_order_values():
    for r in range(5):
        assert bernoulli_order(0, r) == 1
    assert bernoulli_order(1, 1) == F(-1, 2)
    assert bernoulli_order(2, 1) == F(1, 6)


def test_bernoulli_order_against_series_power():
    base = (exp_series(14) - one_series(14)).divide_t().inverse()
    for r in range(5):
        gf = base ** r
        for n in range(13):
            assert bernoulli_order(n, r) == gf.egf_coefficient(n)


def test_bernoulli_orders_follow_norlund_recurrence():
    # Nörlund, Vorlesungen über Differenzenrechnung (1924): across orders,
    # B_m^(k+1) = (1 - m/k) B_m^(k) - m B_(m-1)^(k).  It steps the order, not
    # the index, so it checks the higher orders apart from Miller's recurrence
    # that builds them.
    rows = {k: bernoulli_row(30, k) for k in range(1, 31)}
    for k in range(1, 30):
        assert rows[k + 1][0] == rows[k][0] == 1, k
        for m in range(1, 31):
            expected = (1 - F(m, k)) * rows[k][m] - m * rows[k][m - 1]
            assert rows[k + 1][m] == expected, (k, m)


def test_t5_weights_are_stirling_numbers():
    # Nörlund (1924): B_(n-1)^(n)(x) = (x-1)(x-2)...(x-n+1) = (x)_n / x, whose
    # Appell coefficients give C(n-1, r) B_r^(n) = S1(n, n-r) for r < n: the
    # comb(n - 1, r) * b weights of T5/E48.  The Stirling side is read from its
    # triangle, apart from Miller's recurrence and the recurrence across orders.
    for n in range(1, 31):
        row = bernoulli_row(n - 1, n)
        assert [comb(n - 1, r) * row[r] for r in range(n)] == [
            stirling1(n, n - r) for r in range(n)
        ], n


def test_frobenius_number_against_series():
    lam = F(5, 3)
    base = (exp_series(10) - one_series(10) * lam).inverse() * (1 - lam)
    for r in range(4):
        gf = base ** r
        for n in range(10):
            assert frobenius_number(n, r, lam) == gf.egf_coefficient(n)
    with pytest.raises(ValueError):
        frobenius_number(2, 1, 1)


def _reciprocal(s):
    # 1/s as a truncated ordinary series, for s[0] == 1.
    inv = [F(1)]
    for m in range(1, len(s)):
        inv.append(-sum(s[j] * inv[m - j] for j in range(1, m + 1)))
    return inv


def _convolve(p, q):
    return [sum(p[i] * q[m - i] for i in range(m + 1)) for m in range(len(p))]


def _power(base, r):
    # base^r by repeated squaring of truncated convolutions.
    result = [F(1)] + [F(0)] * (len(base) - 1)
    while r:
        if r & 1:
            result = _convolve(result, base)
        base = _convolve(base, base)
        r >>= 1
    return result


def test_number_powers_match_repeated_squaring(monkeypatch):
    # Each base is the reciprocal of a series with constant term 1:
    # log(1+t)/t, (1+t)log(1+t)/t, (exp(t)-1)/t and (exp(t)-lam)/(1-lam).
    size, ranks, lam = 25, (0, 1, 2, 37), F(-3, 4)
    log_ratio = [F((-1) ** n, n + 1) for n in range(size)]
    cases = [
        (cauchy_first, log_ratio),
        (cauchy_second, [F(1)] + [log_ratio[n] + log_ratio[n - 1] for n in range(1, size)]),
        (bernoulli_order, [F(1, factorial(n + 1)) for n in range(size)]),
        (
            lambda n, r: frobenius_number(n, r, lam),
            [F(1)] + [F(1, factorial(n)) / (1 - lam) for n in range(1, size)],
        ),
    ]
    points = [(r, n) for r in ranks for n in range(size)]
    # 37 is prime to the 100 points, so this visits each once, out of order.
    interleaved = [points[i * 37 % len(points)] for i in range(len(points))]
    for number, denominator in cases:
        base = _reciprocal(denominator)
        expected = {r: _power(base, r) for r in ranks}
        for order in (points, points[::-1], interleaved):
            monkeypatch.setattr(special, "_POWERS", {})  # every order grows its own tables
            for r, n in order:
                assert number(n, r) == factorial(n) * expected[r][n], (number, r, n)


def test_domain_errors():
    numbers = [
        (cauchy_first, "Cauchy"),
        (cauchy_second, "Cauchy"),
        (bernoulli_order, "Bernoulli"),
        (functools.partial(frobenius_number, lam=2), "Frobenius-Euler"),
    ]
    for number, name in numbers:
        for n, r in ((-1, 1), (2, -1), (-2, 0)):
            with pytest.raises(ValueError, match=f"^{name} numbers need n >= 0 and r >= 0$"):
                number(n, r)


def test_number_orders_must_be_integers(monkeypatch):
    # A float order equals the integer key of its table, so it must be refused
    # before any table is read or grown, or it would publish float values there.
    monkeypatch.setattr(special, "_POWERS", {})
    numbers = [
        (cauchy_first, "Cauchy"),
        (bernoulli_order, "Bernoulli"),
        (functools.partial(frobenius_number, lam=2), "Frobenius-Euler"),
    ]
    for number, name in numbers:
        for n, r in ((4, 3.0), (4.0, 3), (4, True), (True, 3)):
            with pytest.raises(ValueError, match=f"^{name} numbers need n >= 0 and r >= 0$"):
                number(n, r)
    assert special._POWERS == {}
    value = bernoulli_order(4, 3)
    assert value == F(19, 10) and isinstance(value, F)
    assert isinstance(cauchy_first(3, 2), F)


def test_frobenius_number_checks_lambda_first():
    with pytest.raises(ValueError, match="lam != 1"):
        frobenius_number(-1, -1, 1)


def test_lif_constant_term_is_one():
    for k in (-3, -1, 0, 1, 4):
        assert lif_series(k, 5).coeffs[0] == Poly((1,))


def test_lif_zero_is_exp():
    assert lif_series(0, 8) == exp_series(8)


def test_lif_one_times_t():
    n = 9
    assert lif_series(1, n) * t_series(n) == exp_series(n) - one_series(n)


def test_lif_index_difference():
    for k in (-1, 0, 2):
        diff = lif_series(k, 7) - lif_series(k - 1, 7)
        for n in range(7):
            expected = (F(n + 1) ** -k - F(n + 1) ** -(k - 1)) / factorial(n)
            assert diff.coeffs[n] == expected


def _factorial_product(n, step):
    # x(x + step)...(x + (n-1) step) multiplied out, independent of the tables.
    return functools.reduce(operator.mul, (Poly((i * step, 1)) for i in range(n)), Poly((1,)))


def test_factorial_polynomials():
    assert falling_poly(2) == X ** 2 - X
    assert rising_poly(2) == X ** 2 + X
    for n in range(21):
        assert falling_poly(n) == _factorial_product(n, -1)
        assert rising_poly(n) == _factorial_product(n, 1)
    for lookup in (falling_poly, rising_poly):
        with pytest.raises(ValueError):
            lookup(-1)


# -- concurrent readers --------------------------------------------------------


def _race(worker, threads=8):
    """Run worker(index) on many threads at once with a tiny switch interval;
    return the exceptions they raised."""
    errors = []
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()
        try:
            worker(index)
        except Exception as exc:
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    return errors


def _stirling2_reference(n, k):
    # Explicit inclusion-exclusion formula, independent of the table.
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def test_stirling_table_concurrent_growth(monkeypatch):
    n_max = 119
    reference = [[_stirling2_reference(n, k) for k in range(n + 1)] for n in range(n_max + 1)]
    for _ in range(10):
        # A fresh store, so every trial grows the rows from scratch.
        monkeypatch.setattr(special, "_STIRLING", {})
        seen = []

        def worker(index):
            for n in range(index, n_max + 1, 3):
                seen.append((n, n // 2, stirling2(n, n // 2)))

        assert _race(worker) == []
        assert all(value == reference[n][k] for n, k, value in seen)
        rows = special._STIRLING[True]
        assert rows == tuple(map(tuple, reference[: len(rows)]))
        # No thread may replace the table with a shorter copy.
        assert len(rows) > max(n for n, _, _ in seen)


def test_factorial_table_concurrent_growth(monkeypatch):
    n_max = 60
    reference = {step: [_factorial_product(n, step) for n in range(n_max + 1)] for step in (-1, 1)}
    for _ in range(10):
        # A fresh store, so every trial grows the first-kind rows from scratch.
        monkeypatch.setattr(special, "_STIRLING", {})
        seen = []

        def worker(index):
            lookup, step = (falling_poly, -1) if index % 2 else (rising_poly, 1)
            for n in range(index // 2, n_max + 1, 4):
                seen.append((step, n, lookup(n)))

        assert _race(worker) == []
        assert all(value == reference[step][n] for step, n, value in seen)
        rows = special._STIRLING[False]
        assert rows == tuple(tuple(p.nums) for p in reference[-1][: len(rows)])
        # No thread may replace the table with a shorter copy.
        assert len(rows) > max(n for _, n, _ in seen)


def test_frobenius_numbers_concurrent_growth():
    n_max, r_max = 13, 2
    for trial in range(10):
        lam = F(2 + trial, 3 + 2 * trial) + 7  # unseen, so its table starts empty
        first = [
            sum(
                F((-1) ** j * factorial(j) * _stirling2_reference(n, j)) / (1 - lam) ** j
                for j in range(n + 1)
            )
            for n in range(n_max + 1)
        ]
        reference = [[F(n == 0) for n in range(n_max + 1)], first]
        for _ in range(2, r_max + 1):
            prev = reference[-1]
            reference.append([
                sum(comb(n, i) * prev[i] * first[n - i] for i in range(n + 1))
                for n in range(n_max + 1)
            ])
        seen = []

        def worker(index):
            # Threads ask for different (r, n) at once, so the lists of every
            # rank, and the base list they read, grow on several threads.
            for n in range(index % 4, n_max + 1, 4):
                r = (index + n) % (r_max + 1)
                seen.append((n, r, frobenius_number(n, r, lam)))

        assert _race(worker) == []
        assert all(value == reference[r][n] for n, r, value in seen)
        # No thread may replace a rank's list with a shorter one.
        for rank in {r for _, r, _ in seen}:
            served = max(n for n, r, _ in seen if r == rank)
            assert len(special._POWERS[(("frobenius", lam), rank)]) > served
