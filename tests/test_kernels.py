"""Differential tests: every integer dot-product kernel against a plain
Fraction sum written here, on zero entries, all-zero vectors, n = 1 and
operands with about 64-bit numerators and denominators."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from semikit import LinearMapQ, NonnegScalar, SemiMatrix, SemiVector, dot, norm, NormKind
from semikit._backend import scaled_ints
from semikit.derived import abs_linear, gram_form, max_linear, weighted_l1, weighted_max_abs

_BIG = 2**64


def _rationals(signed):
    lo = -_BIG if signed else 0
    small = st.builds(Fraction, st.integers(-60 if signed else 0, 60), st.integers(1, 12))
    wide = st.builds(Fraction, st.integers(lo, _BIG), st.integers(1, _BIG))
    return st.one_of(st.just(Fraction(0)), small, wide)


NONNEG = _rationals(signed=False)
SIGNED = _rationals(signed=True)
DIMS = st.integers(1, 5)


def _vec(elements, n):
    # Also draw the all-zero vector explicitly.
    return st.one_of(st.just([Fraction(0)] * n), st.lists(elements, min_size=n, max_size=n))


def _mat(elements, rows, cols):
    return st.lists(_vec(elements, cols), min_size=rows, max_size=rows)


def _fdot(u, v):
    total = Fraction(0)
    for a, b in zip(u, v):
        total += a * b
    return total


def _fmatvec(rows, v):
    return [_fdot(row, v) for row in rows]


def _lowest(s):
    assert isinstance(s, NonnegScalar)
    q = s._q
    assert q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1
    return q


def _scalars(qs):
    return [NonnegScalar(q) for q in qs]


@given(st.lists(SIGNED, max_size=6))
def test_scaled_ints_common_denominator(qs):
    ints, den = scaled_ints(qs)
    assert den == math.lcm(*[q.denominator for q in qs])
    assert all(isinstance(i, int) for i in ints)
    assert [Fraction(i, den) for i in ints] == qs


@settings(max_examples=60)
@given(st.data())
def test_semimatrix_apply_and_matmul(data):
    n, m, p = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = data.draw(_mat(NONNEG, n, m))
    b = data.draw(_mat(NONNEG, m, p))
    v = data.draw(_vec(NONNEG, m))
    A = SemiMatrix([_scalars(r) for r in a])
    B = SemiMatrix([_scalars(r) for r in b])

    got = A.apply(SemiVector(_scalars(v)))
    assert [_lowest(c) for c in got] == _fmatvec(a, v)

    cols = list(zip(*b))
    got = A @ B
    assert [[_lowest(e) for e in row] for row in got.rows()] == [
        [_fdot(row, col) for col in cols] for row in a
    ]


@settings(max_examples=60)
@given(st.data())
def test_dot_and_l2_norm(data):
    n = data.draw(DIMS)
    u, v = data.draw(_vec(NONNEG, n)), data.draw(_vec(NONNEG, n))
    U, V = SemiVector(_scalars(u)), SemiVector(_scalars(v))
    assert _lowest(dot(U, V)) == _fdot(u, v)
    assert _lowest(dot(U, U)) == _fdot(u, u)
    assert _lowest(norm(U, NormKind.EUCLIDEAN).radicand) == _fdot(u, u)


@settings(max_examples=60)
@given(st.data())
def test_linear_map_apply_and_compose(data):
    n, m, p = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    a = data.draw(_mat(SIGNED, n, m))
    b = data.draw(_mat(SIGNED, m, p))
    v = data.draw(_vec(SIGNED, m))
    A, B = LinearMapQ(a), LinearMapQ(b)
    assert list(A.apply(v)) == _fmatvec(a, v)
    cols = list(zip(*b))
    assert [list(r) for r in A.compose(B).rows] == [[_fdot(row, col) for col in cols] for row in a]


@settings(max_examples=60)
@given(st.data())
def test_gram_form(data):
    k, n = data.draw(DIMS), data.draw(DIMS)
    rows = data.draw(_mat(SIGNED, k, n))
    u, v = data.draw(_vec(SIGNED, n)), data.draw(_vec(SIGNED, n))
    assert gram_form(rows)(u, v) == _fdot(_fmatvec(rows, u), _fmatvec(rows, v))


@settings(max_examples=60)
@given(st.data())
def test_functional_builders(data):
    n = data.draw(DIMS)
    w = data.draw(_vec(NONNEG, n))
    c = data.draw(_vec(SIGNED, n))
    rows = data.draw(_mat(SIGNED, data.draw(DIMS), n))
    v = data.draw(_vec(SIGNED, n))
    assert weighted_l1(w)(v) == sum((wi * abs(vi) for wi, vi in zip(w, v)), Fraction(0))
    assert weighted_max_abs(w)(v) == max(wi * abs(vi) for wi, vi in zip(w, v))
    assert abs_linear(c)(v) == abs(_fdot(c, v))
    assert max_linear(rows)(v) == max(_fmatvec(rows, v))
