import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semikit import NonnegScalar, ONE, Order, ZERO, add, inv, mul, ordered_diff
from semikit.errors import NegativeScalar, ParseError, ZeroInverse
from semikit.scalar import parse_scalar

from conftest import F, NS, rand_scalar

nonneg = st.fractions(min_value=0, max_value=1000)


def s(fr: Fraction) -> NonnegScalar:
    return NonnegScalar(fr.numerator, fr.denominator)


class TestConstruction:
    def test_literal_forms(self):
        assert NS("3") == NS(3)
        assert NS("3/4") == NonnegScalar(3, 4)
        assert NS("0.75") == NonnegScalar(3, 4)  # exact decimal conversion
        assert NS(".5") == NonnegScalar(1, 2)

    def test_lowest_terms(self):
        x = NonnegScalar(6, 8)
        assert (x.numerator, x.denominator) == (3, 4)

    def test_serialized_form_is_always_a_fraction(self):
        assert NS(5).literal == "5/1"
        assert NS("0.1").literal == "1/10"

    def test_negative_rejected(self):
        with pytest.raises(NegativeScalar):
            NonnegScalar(-1)
        with pytest.raises(NegativeScalar):
            NonnegScalar("-3/4")
        with pytest.raises(NegativeScalar):
            NonnegScalar(1, -2)

    def test_floats_need_explicit_conversion(self):
        with pytest.raises(TypeError):
            NonnegScalar(0.5)
        assert NonnegScalar.from_float(0.5) == NonnegScalar(1, 2)

    def test_bad_literals(self):
        for text in ("", "1/0", "a", "1.5.2", "1/2/3", "1e5", "+3", "3."):
            with pytest.raises(ParseError):
                parse_scalar(text)


class TestArithmetic:
    def test_add_hand_oracle(self):
        assert add(NS("1/2"), NS("1/3")) == NS("5/6")

    def test_add_identity_and_integers(self):
        a = NS("7/3")
        assert add(a, ZERO) == a
        assert add(NS(2), NS(3)) == NS(5)

    def test_mul_hand_oracle(self):
        assert mul(NS("2/3"), NS("3/4")) == NS("1/2")
        assert mul(NS("7/5"), ONE) == NS("7/5")
        assert mul(NS("7/5"), ZERO) == ZERO

    def test_inv(self):
        assert inv(NS("3/4")) == NS("4/3")
        assert inv(ONE) == ONE
        with pytest.raises(ZeroInverse):
            inv(ZERO)

    def test_inv_is_multiplicative_inverse(self, rng):
        for _ in range(200):
            a = rand_scalar(rng, allow_zero=False)
            assert a * inv(a) == ONE

    def test_division(self):
        assert NS(3) / NS(2) == NS("3/2")
        with pytest.raises(ZeroInverse):
            NS(3) / ZERO

    def test_no_subtraction_operator(self):
        with pytest.raises(TypeError):
            NS(3) - NS(1)

    def test_pow(self):
        assert NS("2/3") ** 2 == NS("4/9")
        assert NS(5) ** 0 == ONE


class TestOrderedDiff:
    def test_first_greater(self):
        d = ordered_diff(NS("5/2"), ONE)
        assert d.gap == NS("3/2")
        assert d.order is Order.FIRST_GREATER

    def test_equal(self):
        a = NS("4/7")
        d = ordered_diff(a, a)
        assert d.gap == ZERO
        assert d.order is Order.EQUAL

    def test_second_greater(self):
        d = ordered_diff(NS(1), NS(4))
        assert d.gap == NS(3)
        assert d.order is Order.SECOND_GREATER

    def test_gap_matches_signed_oracle(self, rng):
        for _ in range(500):
            a, b = rand_scalar(rng), rand_scalar(rng)
            assert F(ordered_diff(a, b).gap) == abs(F(a) - F(b))

    def test_reconstruction_max_is_min_plus_gap(self, rng):
        for _ in range(500):
            a, b = rand_scalar(rng), rand_scalar(rng)
            d = ordered_diff(a, b)
            assert min(a, b) + d.gap == max(a, b)

    def test_gap_symmetric(self, rng):
        for _ in range(200):
            a, b = rand_scalar(rng), rand_scalar(rng)
            assert ordered_diff(a, b).gap == ordered_diff(b, a).gap


class TestSemiFieldLaws:
    @given(nonneg, nonneg)
    def test_add_commutative(self, x, y):
        assert s(x) + s(y) == s(y) + s(x)

    @given(nonneg, nonneg, nonneg)
    @settings(max_examples=60)
    def test_add_associative(self, x, y, z):
        assert (s(x) + s(y)) + s(z) == s(x) + (s(y) + s(z))

    @given(nonneg, nonneg, nonneg)
    @settings(max_examples=60)
    def test_distributive(self, x, y, z):
        assert s(x) * (s(y) + s(z)) == s(x) * s(y) + s(x) * s(z)

    @given(nonneg, nonneg)
    def test_zero_sum_forces_both_zero(self, x, y):
        if s(x) + s(y) == ZERO:
            assert s(x) == ZERO and s(y) == ZERO

    @given(nonneg, nonneg)
    def test_zero_divisor_free(self, x, y):
        assert (s(x) * s(y) == ZERO) == (s(x) == ZERO or s(y) == ZERO)

    @given(nonneg, nonneg, nonneg)
    @settings(max_examples=60)
    def test_cancellation(self, x, y, z):
        assert (s(x) + s(y) == s(x) + s(z)) == (s(y) == s(z))

    @given(nonneg, nonneg)
    def test_matches_fraction_oracle(self, x, y):
        assert F(s(x) + s(y)) == x + y
        assert F(s(x) * s(y)) == x * y


def test_values_hashable_and_orderable(rng):
    values = sorted({rand_scalar(rng) for _ in range(50)})
    assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))


def test_ordering_accepts_what_eq_accepts():
    one = NonnegScalar(1)
    assert one == 1 and one < 2 and one <= 1 and one > 0 and one >= 1
    assert 2 > one and 0 < one
    for other in (1.5, "2", Fraction(2)):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(one, op)(other) is NotImplemented
    with pytest.raises(TypeError):
        one < "2"
