"""pcmix's series routes against sympy's ring series, an independent route.

* ``Series.revert`` against ``rs_series_reversion``: sympy solves
  ``f(r) = y`` by the fixed-point step ``r <- r - f(r)/f_1``;
  ``Series.revert`` uses Lagrange inversion.
* The Poisson-Charlier, poly-Cauchy and mixed families against their
  product-form generating functions expanded by ``rs_log``, ``rs_exp`` and
  ``rs_mul``, with Lif_k summed from powers of its argument; pcmix builds
  them through its own series kernel and composition.
* The printed (54)/(55) closing Stirling sum (the tail of each
  ``identities._Group.recurrence`` entry), which T6/E60/E61 read as their
  derivation-form remainder, against the Theorem 6 remainder series built
  from the same factors, with the Lif factor differentiated by sympy.

Both sides are exact over Q, so the coefficients must agree one by one.
"""

import functools
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmix import families as fam
from pcmix.families import catalogue_pairs
from pcmix.identities import _Group
from pcmix.series import Series

sympy = pytest.importorskip("sympy", reason="the series oracle needs sympy")
from sympy.polys.ring_series import rs_exp, rs_log, rs_mul, rs_series_reversion  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

ORDER = 30
R, t, y = ring("t, y", sympy.QQ)


def sympy_revert(values, order):
    p = R.from_dict({(n, 0): sympy.QQ(v.numerator, v.denominator)
                     for n, v in enumerate(values) if v})
    r = rs_series_reversion(p, t, order, y)
    return [F(int(c.numerator), int(c.denominator))
            for c in (r.coeff(y ** n) for n in range(order))]


def assert_matches_oracle(f):
    assert f.constant_coefficients
    values = [c.coefficient(0) for c in f.coeffs]
    assert list(f.revert().coeffs) == sympy_revert(values, f.order)


@pytest.mark.parametrize("pair", catalogue_pairs(ORDER), ids=lambda pair: pair.label)
def test_revert_matches_sympy_on_catalogue(pair):
    assert_matches_oracle(pair.f)


nonzero = st.fractions(min_value=-20, max_value=20, max_denominator=30).filter(bool)


@settings(deadline=None, max_examples=25)
@given(nonzero, st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=30),
                         max_size=ORDER - 2),
       st.integers(min_value=2, max_value=ORDER))
def test_revert_matches_sympy_on_rational_tails(f1, tail, order):
    assert_matches_oracle(Series([0, f1, *tail[:order - 2]], order))


# -- generating functions of the families ---------------------------------------

GF_ORDER = 31  # members of degree 0..30
G, gt, gx = ring("t, x", sympy.QQ)


def qq(value):
    value = F(value)
    return sympy.QQ(value.numerator, value.denominator)


@functools.lru_cache(maxsize=None)
def log_and_binomial(a):
    # log(1 + t/a) and (1 + t/a)^x = exp(x log(1 + t/a)).
    log = rs_log(1 + gt * qq(1 / F(a)), gt, GF_ORDER)
    return log, rs_exp(gx * log, gt, GF_ORDER)


def negate_x(p):
    return G.from_dict({(n, j): -c if j % 2 else c for (n, j), c in p.items()})


def lif(k, u):
    # Lif_k(u) = sum_j u^j / (j! (j+1)^k), the powers of u by rs_mul.
    total, power = G(0), G(1)
    for j in range(GF_ORDER):
        total += power * qq(F(j + 1) ** -k / factorial(j))
        power = rs_mul(power, u, gt, GF_ORDER)
    return total


def gf_factors(family, k, a):
    log, binomial = log_and_binomial(a)
    if family == "poisson_charlier":  # exp(-t) (1 + t/a)^x
        return rs_exp(-gt, gt, GF_ORDER), binomial
    if family == "poly_cauchy_first":  # (1 + t)^-x Lif_k(log(1 + t))
        return negate_x(binomial), lif(k, log)
    if family == "poly_cauchy_second":  # (1 + t)^x Lif_k(-log(1 + t))
        return binomial, lif(k, -log)
    if family == "pc_mixed":  # exp(-t) Lif_k(log(1 + t/a)) (1 + t/a)^-x
        return rs_exp(-gt, gt, GF_ORDER), lif(k, log), negate_x(binomial)
    # pc_hat_mixed: exp(-t) Lif_k(-log(1 + t/a)) (1 + t/a)^x
    return rs_exp(-gt, gt, GF_ORDER), lif(k, -log), binomial


def gf_members(factors):
    # n! [t^n] of the product, as Fraction coefficient rows in x.
    product = functools.reduce(lambda p, q: rs_mul(p, q, gt, GF_ORDER), factors)
    rows = [[F(0)] * (n + 1) for n in range(GF_ORDER)]
    for (n, j), c in product.items():
        rows[n][j] = F(int(c.numerator), int(c.denominator)) * factorial(n)
    for row in rows:
        while row and not row[-1]:
            row.pop()
    return rows


A_VALUES = (F(3, 7), F(-5, 2))
GF_CASES = (
    [("poisson_charlier", None, a) for a in A_VALUES]
    + [(family, k, 1) for family in ("poly_cauchy_first", "poly_cauchy_second") for k in (-2, 3)]
    + [(family, k, a) for family in ("pc_mixed", "pc_hat_mixed") for k in (-1, 2) for a in A_VALUES]
)


@pytest.mark.parametrize("family, k, a", GF_CASES, ids=lambda v: str(v))
def test_families_match_sympy_generating_functions(family, k, a):
    lookup = getattr(fam, family)
    args = {"poisson_charlier": (a,), "poly_cauchy_first": (k,), "poly_cauchy_second": (k,)}
    expected = gf_members(gf_factors(family, k, a))
    for n in range(GF_ORDER):
        member = lookup(n, *args.get(family, (k, a)))
        assert list(member.coeffs) == expected[n], (family, k, a, n)


@pytest.mark.parametrize("hat", (False, True), ids=("first", "second"))
@pytest.mark.parametrize("k, a", [(k, a) for k in (-1, 2) for a in A_VALUES], ids=str)
def test_mixed_tail_matches_sympy(hat, k, a):
    # exp(-t) d/dt[Lif_k(+-log(1 + t/a))] (1 + t/a)^(-+x), upper signs for
    # the first kind; the derivative is exact below t^(GF_ORDER - 1).  Its
    # t^n/n! coefficient is the tail of recurrence entry n + 1: the printed
    # (54)/(55) closing sum of degree n at x + sign over sign a, sign = -1 for hat.
    log, binomial = log_and_binomial(a)
    lif_prime = lif(k, -log if hat else log).diff(gt)
    power = binomial if hat else negate_x(binomial)
    expected = gf_members((rs_exp(-gt, gt, GF_ORDER), lif_prime, power))
    group = _Group(k, a, GF_ORDER - 1)
    for n in range(GF_ORDER - 1):
        assert list(group.recurrence(hat)[n + 1][2].coeffs) == expected[n], (hat, k, a, n)
