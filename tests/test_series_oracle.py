"""Series.revert against sympy's rs_series_reversion, an independent route.

sympy solves ``f(r) = y`` by the fixed-point step ``r <- r - f(r)/f_1``;
``Series.revert`` uses Lagrange inversion.  Both are exact over Q, so the
coefficients must agree one by one.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmix.families import catalogue_pairs
from pcmix.series import Series

sympy = pytest.importorskip("sympy", reason="the reversion oracle needs sympy")
from sympy.polys.ring_series import rs_series_reversion  # noqa: E402
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
    values = [c.constant_value for c in f.coeffs]
    assert [c.constant_value for c in f.revert().coeffs] == sympy_revert(values, f.order)


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
