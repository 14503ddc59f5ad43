import threading
import time
from fractions import Fraction as F

import pytest

from pcmix import families
from pcmix.families import (
    bernoulli_poly,
    catalogue_pairs,
    charlier_pair,
    frobenius_euler,
    mixed_hat_pair,
    mixed_pair,
    pc_hat_mixed,
    pc_hat_mixed_series,
    pc_mixed,
    pc_mixed_series,
    poisson_charlier,
    poly_cauchy_first,
    poly_cauchy_second,
)
from pcmix.poly import Poly, X
from pcmix.series import binomial_pow, exp_neg_series
from pcmix.special import lif_series

A_SAMPLES = (F(1), F(2), F(-1), F(3, 7), F(-5, 2))
K_SAMPLES = (-2, -1, 0, 1, 2, 3)


def test_poisson_charlier_small():
    assert poisson_charlier(0, F(3, 7)) == Poly((1,))
    for a in A_SAMPLES:
        assert poisson_charlier(1, a) == X * (1 / a) - 1
    assert poisson_charlier(2, 1) == X ** 2 - 3 * X + 1


def test_poly_cauchy_small():
    for k in K_SAMPLES:
        assert poly_cauchy_first(0, k) == Poly((1,))
        assert poly_cauchy_first(1, k) == -X + F(2) ** -k
        assert poly_cauchy_second(1, k) == X - F(2) ** -k


def test_bernoulli_poly_small():
    assert bernoulli_poly(3, 0) == X ** 3
    assert bernoulli_poly(1, 1) == X - F(1, 2)
    assert bernoulli_poly(2, 1) == X ** 2 - X + F(1, 6)


def test_bernoulli_poly_matches_sympy():
    # sympy's bernoulli(n, x) is an independent route to the order-1 members
    # that families extracts from t exp(xt) / (exp(t) - 1).
    sympy = pytest.importorskip("sympy", reason="the Bernoulli oracle needs sympy")
    x = sympy.Symbol("x")
    for n in range(31):
        expected = sympy.Poly(sympy.bernoulli(n, x), x).all_coeffs()[::-1]
        assert bernoulli_poly(n, 1).coeffs == tuple(F(int(c.p), int(c.q)) for c in expected), n


def test_frobenius_euler_small():
    lam = F(5, 3)
    assert frobenius_euler(0, 2, lam) == Poly((1,))
    assert frobenius_euler(1, 1, lam) == X - 1 / (1 - lam)
    assert frobenius_euler(4, 0, lam) == X ** 4


def test_mixed_families_first_order():
    for k in K_SAMPLES:
        for a in A_SAMPLES:
            lead = 1 / (a * F(2) ** k)
            assert pc_mixed(0, k, a) == Poly((1,))
            assert pc_hat_mixed(0, k, a) == Poly((1,))
            assert pc_mixed(1, k, a) == Poly((F(-1) + lead, -1 / a))
            assert pc_hat_mixed(1, k, a) == Poly((F(-1) - lead, 1 / a))


def test_mixed_degree_and_leading_coefficient():
    for k in (-1, 0, 2):
        for a in (F(2), F(3, 7), F(-5, 2)):
            for n in range(9):
                p = pc_mixed(n, k, a)
                q = pc_hat_mixed(n, k, a)
                assert p.degree == n and q.degree == n
                assert p.coefficient(n) == (-a) ** -n
                assert q.coefficient(n) == a ** -n


def test_k_zero_collapse_of_generating_function():
    # With Lif index 0 the middle factor becomes 1 + t/a, so the whole
    # product is exp(-t) * (1 + t/a)^(1-x).
    for a in (F(1), F(2)):
        collapsed = exp_neg_series(8) * binomial_pow(a, Poly((1, -1)), 8)
        assert pc_mixed_series(0, a, 8) == collapsed


def test_route_equivalence_sample():
    for k, a in ((1, F(1)), (-2, F(3, 7)), (3, F(-5, 2))):
        pair = mixed_pair(k, a, 9)
        hat_pair = mixed_hat_pair(k, a, 9)
        for n in range(8):
            assert pair.polynomial(n) == pc_mixed(n, k, a)
            assert hat_pair.polynomial(n) == pc_hat_mixed(n, k, a)


def test_parameter_validation(monkeypatch):
    with pytest.raises(ValueError):
        poisson_charlier(2, 0)
    with pytest.raises(ValueError):
        pc_mixed(2, 1, 0)
    with pytest.raises(ValueError):
        frobenius_euler(2, 1, 1)
    with pytest.raises(ValueError):
        bernoulli_poly(2, -1)
    with pytest.raises(ValueError):
        pc_mixed(-1, 1, 1)
    with pytest.raises(TypeError):
        pc_mixed(2, 1, 0.5)
    # A float or bool n, k or r fails before any table is read, both on empty
    # tables and on tables the equal integer has filled.
    monkeypatch.setattr(families, "_TABLES", {})
    calls = (lambda: pc_mixed(2, 1.0, F(2)), lambda: bernoulli_poly(2, 1.0),
             lambda: pc_mixed(2, True, F(2)), lambda: pc_mixed(True, 1, F(2)))
    for warm in (False, True):
        if warm:
            pc_mixed(2, 1, F(2))
            bernoulli_poly(2, 1)
        for call in calls:
            with pytest.raises(ValueError, match="must be an integer"):
                call()
        assert len(families._TABLES) == 2 * warm


def test_lif_index_must_be_an_int():
    # lif_series checks k as the family lookups do, so a bool is not read as
    # 0 or 1 and a Fraction does not fail later as a float; the check covers
    # lif_log, the generating-function builders and both mixed pairs.
    calls = [lambda k: lif_series(k, 4), lambda k: families.lif_log(k, F(2), False, 4),
             lambda k: families.pc_hat_mixed_series(k, F(2), 4), lambda k: mixed_pair(k, 2),
             lambda k: mixed_hat_pair(k, 2)]
    for k in (True, False, F(1, 2), F(2), 2.0):
        for call in calls:
            with pytest.raises(ValueError, match="Lif index"):
                call(k)
    assert mixed_pair(1, 2).polynomial(2) == pc_mixed(2, 1, 2)


@pytest.mark.parametrize("build", [
    lambda: families.bernoulli_series(-1, 4),
    lambda: families.frobenius_euler_series(-1, F(2), 4),
    lambda: families.bernoulli_pair(-1, 4),
    lambda: families.frobenius_pair(-1, F(2), 4),
])
def test_negative_order_rejected(build):
    with pytest.raises(ValueError, match="the order r must be >= 0"):
        build()


def test_poly_cauchy_numbers_at_zero():
    for k in K_SAMPLES:
        assert poly_cauchy_first(1, k)(0) == F(2) ** -k
        assert poly_cauchy_second(1, k)(0) == -(F(2) ** -k)


def test_charlier_pair_matches_family():
    pair = charlier_pair(F(2), 9)
    for n in range(8):
        assert pair.polynomial(n) == poisson_charlier(n, F(2))


def test_catalogue_pairs_are_well_formed():
    pairs = catalogue_pairs(10)
    labels = [p.label for p in pairs]
    assert len(set(labels)) == len(labels)
    for pair in pairs:
        assert pair.order == 10
        s_0 = pair.polynomial(0)
        assert s_0 == s_0.coefficient(0)


def test_hat_k_zero_collapse():
    # With Lif index 0 the hat factor reduces to 1/(1 + t/a), so the whole
    # product is exp(-t) * (1 + t/a)^(x-1).
    for a in (F(1), F(2)):
        collapsed = exp_neg_series(8) * binomial_pow(a, Poly((-1, 1)), 8)
        assert pc_hat_mixed_series(0, a, 8) == collapsed


def test_hat_series_extraction_consistency():
    gf = pc_hat_mixed_series(1, F(1), 6)
    assert gf.egf_coefficient(3) == pc_hat_mixed(3, 1, F(1))


def test_family_table_never_shrinks_under_threads(monkeypatch):
    # A request for degree 30 builds order 31 while a second thread, which
    # read the still-empty table, asks for degree 5.  The gated builder holds
    # the large build until the small one has started, and the small build
    # until the large table is out, so without serialised growth the order-8
    # table is published last.  Every wait has a timeout: with growth under a
    # lock the small request waits for the lock and then finds order 31.
    a = F(11, 13)  # unseen, so its table starts empty
    key = ("charlier", a)
    build = families.poisson_charlier_series
    big_started, small_started = threading.Event(), threading.Event()

    def gated(a_, order):
        if order > 8:
            big_started.set()
            small_started.wait(timeout=1)
        else:
            small_started.set()
            deadline = time.monotonic() + 1
            while len(families._TABLES.get(key, ())) <= 8 and time.monotonic() < deadline:
                time.sleep(0.001)
        return build(a_, order)

    monkeypatch.setattr(families, "poisson_charlier_series", gated)
    served = {}

    def large():
        served[30] = poisson_charlier(30, a)

    def small():
        if big_started.wait(timeout=5):
            served[5] = poisson_charlier(5, a)

    pool = [threading.Thread(target=large), threading.Thread(target=small)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in pool)
    assert sorted(served) == [5, 30]
    reference = build(a, 31)
    assert all(served[n] == reference.egf_coefficient(n) for n in served)
    # The table published last must still cover the largest degree served.
    assert len(families._TABLES[key]) > 30
