from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmix.poly import Poly, X, from_parts


def test_trailing_zeros_trimmed():
    assert Poly((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert Poly((0, 0)).coeffs == ()
    assert Poly().degree == -1
    assert Poly((5,)).degree == 0


def test_float_rejected():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_arithmetic():
    p = X ** 2 - 3 * X + 1
    q = X + 4
    assert p + q == X ** 2 - 2 * X + 5
    assert p - q == X ** 2 - 4 * X - 3
    assert (X + 1) * (X - 1) == X ** 2 - 1
    assert 2 * p == p * 2 == X ** 2 * 2 - 6 * X + 2
    assert -p == Poly((-1, 3, -1))
    assert p * Poly() == Poly()


def test_evaluation_and_compose():
    p = X ** 3 - 2 * X + 7
    assert p(F(1, 2)) == F(1, 8) - 1 + 7
    assert p.compose(X) == p
    assert p.shifted(1) == (X + 1) ** 3 - 2 * (X + 1) + 7
    assert (X ** 2).compose(X + F(1, 2)) == X ** 2 + X + F(1, 4)


def test_taylor_shift_cases():
    # shifted runs its own integer kernel, apart from compose: the zero
    # polynomial, constants, offset 0, negative offsets and offsets whose
    # denominators reach 10^12, each result in canonical form.
    p = Poly((F(1, 3), -2, 0, F(5, 7)))
    cases = [
        (Poly(), 5, Poly()),
        (Poly(), F(-3, 10 ** 12), Poly()),
        (Poly((F(-4, 9),)), F(7, 2), Poly((F(-4, 9),))),
        (p, 0, p),
        (p, F(0, 5), p),
        (X ** 2, -1, X ** 2 - 2 * X + 1),
        (X ** 3, F(-1, 2), X ** 3 - F(3, 2) * X ** 2 + F(3, 4) * X - F(1, 8)),
    ]
    for offset in (1, -1, -7, F(1, 10 ** 12), F(-999_999_999_999, 10 ** 12), F(3, 10 ** 12 - 1)):
        cases.append((p, offset, p.compose(Poly((offset, 1)))))
    for poly, offset, expected in cases:
        shifted = poly.shifted(offset)
        assert_canonical(shifted)
        assert shifted == expected, (poly, offset)
        assert shifted.shifted(-offset) == poly, (poly, offset)
    with pytest.raises(TypeError):
        p.shifted(0.5)


def test_derivative_and_divide_x():
    p = X ** 3 + 5 * X
    assert p.derivative() == 3 * X ** 2 + 5


def test_hash_and_equality():
    assert hash(Poly((1, 2))) == hash(Poly((1, 2, 0)))
    assert Poly((F(1, 2),)) == F(1, 2)
    assert X != Poly((0, 2))


def test_str_forms():
    assert str(Poly()) == "0"
    assert str(X ** 2 - 3 * X + 1) == "x^2 - 3*x + 1"
    assert str(-X) == "-x"
    assert str(Poly((F(-1, 2), -1))) == "-x - 1/2"


# -- property tests against a plain-Fraction reference ----------------------
#
# The reference works on lists of Fractions, lowest degree first, trimmed of
# trailing zeros: the layout Poly had before it stored scaled integers.

# Zero, small and large integers and rationals with large denominators.
coefficients = st.one_of(
    st.just(F(0)),
    st.integers(min_value=-(10 ** 12), max_value=10 ** 12).map(F),
    st.fractions(min_value=-(10 ** 6), max_value=10 ** 6, max_denominator=10 ** 15),
)
coefficient_lists = st.lists(coefficients, max_size=7)
nonzero = coefficients.filter(bool)


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (n - len(a)), list(b) + [F(0)] * (n - len(b))
    return ref_trim(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_eval(a, point):
    return sum((c * point ** j for j, c in enumerate(a)), F(0))


def ref_compose(a, inner):
    out, power = [], [F(1)]
    for c in a:
        out = ref_add(out, [c * p for p in power])
        power = ref_mul(power, inner)
    return out


def assert_canonical(p):
    assert all(type(c) is int for c in p.nums) and type(p.den) is int
    assert p.den > 0
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.nums or p.den == 1


def assert_matches(p, reference):
    assert_canonical(p)
    assert list(p.coeffs) == ref_trim(reference)


@settings(deadline=None, max_examples=150)
@given(coefficient_lists, coefficient_lists, coefficients)
def test_ring_operations_match_fraction_reference(a, b, s):
    p, q = Poly(a), Poly(b)
    assert_matches(p, a)
    assert_matches(p + q, ref_add(a, b))
    assert_matches(p - q, ref_add(a, [-c for c in b]))
    assert_matches(-p, [-c for c in a])
    assert_matches(p * q, ref_mul(a, b))
    assert_matches(p * s, [c * s for c in a])
    assert_matches(s * p, [c * s for c in a])
    assert_matches(p + s, ref_add(a, [s]))
    assert_matches(s - p, ref_add([s], [-c for c in a]))
    if s.denominator == 1:
        assert_matches(p * int(s), [c * s for c in a])


@settings(deadline=None, max_examples=100)
@given(coefficient_lists, st.lists(coefficients, max_size=3), coefficients)
def test_evaluation_and_composition_match_fraction_reference(a, inner, point):
    p = Poly(a)
    assert p(point) == ref_eval(a, point)
    assert_matches(p.compose(Poly(inner)), ref_compose(a, inner))
    assert_matches(p.shifted(point), ref_compose(a, [point, F(1)]))


@settings(deadline=None, max_examples=100)
@given(coefficient_lists)
def test_derivative_and_divide_x_match_fraction_reference(a):
    p = Poly(a)
    assert_matches(p.derivative(), [j * c for j, c in enumerate(a) if j])


@settings(deadline=None, max_examples=100)
@given(coefficient_lists, nonzero)
def test_equal_values_have_one_representation(a, s):
    p = Poly(a)
    rescaled = (p * s) * (1 / s)
    piecewise = sum((Poly([F(0)] * j + [c]) for j, c in enumerate(a)), Poly())
    there_and_back = p.shifted(s).shifted(-s)
    for other in (rescaled, piecewise, there_and_back):
        assert other == p and hash(other) == hash(p)
        assert (other.nums, other.den) == (p.nums, p.den)


def test_scaled_inputs_share_one_representation():
    p = Poly((F(1, 2), F(1, 3)))
    for q in (Poly((F(3, 6), F(2, 6))), Poly((3, 2)) * F(1, 6), Poly((F(1, 2),)) + F(1, 3) * X):
        assert q == p and hash(q) == hash(p)
    assert (p.nums, p.den) == ((3, 2), 6)
    assert (Poly((0, 0)).nums, Poly((0, 0)).den) == ((), 1)
    assert (Poly((F(2, 4), 0)).nums, Poly((F(2, 4), 0)).den) == ((1,), 2)


def test_from_parts_folds_the_denominator_sign():
    p = from_parts([2, -4], -6)
    assert p == Poly((F(-1, 3), F(2, 3)))
    assert (p.nums, p.den) == ((-1, 2), 3)
    assert from_parts([0, 0], -5) == Poly()
    assert (from_parts([0, 0], -5).nums, from_parts([0, 0], -5).den) == ((), 1)
