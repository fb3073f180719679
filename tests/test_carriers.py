"""Differential tests: the scaled-integer carriers against plain
element-wise Fraction arithmetic written here.

SemiVector, SemiMatrix and SemiPolynomial run +, scale, ==, hash, is_zero
and degree on integers over a common denominator, and keep entries and
that form side by side. Each test mixes a carrier built from entries with
one computed by + or scale, on zero entries, scaling by 0, n = 1 and
operands with about 64-bit numerators and denominators. metric and norm
are checked against the per-coordinate ordered-gap formula, and the
ordered-layer results against the validating LnVector constructor.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semikit import (
    LnVector,
    NonnegScalar,
    NormKind,
    SemiBasis,
    SemiMatrix,
    SemiPolynomial,
    SemiVector,
    ln_oplus,
    ln_scale,
    metric,
    norm,
)
from semikit.errors import DimensionMismatch

_BIG = 2**64

SCALARS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(0, 60), st.integers(1, 12)),
    st.builds(Fraction, st.integers(0, _BIG), st.integers(1, _BIG)),
)
DIMS = st.integers(1, 5)


def _vec(n):
    return st.one_of(st.just([Fraction(0)] * n), st.lists(SCALARS, min_size=n, max_size=n))


def _lowest(s):
    assert isinstance(s, NonnegScalar)
    q = s._q
    assert q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1
    return q


def _entries(carrier):
    return [_lowest(c) for c in carrier]


def _scalars(qs):
    return [NonnegScalar(q) for q in qs]


def _same(computed, constructed):
    """Equal carriers in both representations: ==, hash and set/dict use."""
    assert computed == constructed and constructed == computed
    assert hash(computed) == hash(constructed)
    assert len({computed, constructed}) == 1
    assert {constructed: 1}[computed] == 1


@settings(max_examples=80)
@given(st.data())
def test_vector_add_scale(data):
    n = data.draw(DIMS)
    u, v = data.draw(_vec(n)), data.draw(_vec(n))
    lam = data.draw(SCALARS)
    U, V = SemiVector(_scalars(u)), SemiVector(_scalars(v))

    total = [a + b for a, b in zip(u, v)]
    got = U + V
    assert got.dim == n and len(got) == n
    assert got.is_zero == all(x == 0 for x in total)
    _same(got, SemiVector(_scalars(total)))
    assert _entries(got) == total

    scaled = [lam * a for a in u]
    got = U.scale(lam)
    _same(got, SemiVector(_scalars(scaled)))
    assert _entries(got) == scaled

    # A computed result feeds the next operation in its scaled form only.
    chained = [lam * (a + b) + a for a, b in zip(u, v)]
    got = (U + V).scale(lam) + U
    _same(got, SemiVector(_scalars(chained)))
    assert _entries(got) == chained

    zero = U.scale(0)
    assert zero.is_zero
    _same(zero, SemiVector.zero(n))
    assert (U == V) == (u == v)


@settings(max_examples=60)
@given(st.data())
def test_matrix_add_scale(data):
    n, m = data.draw(DIMS), data.draw(DIMS)
    a = data.draw(st.lists(_vec(m), min_size=n, max_size=n))
    b = data.draw(st.lists(_vec(m), min_size=n, max_size=n))
    lam = data.draw(SCALARS)
    A = SemiMatrix([_scalars(r) for r in a])
    B = SemiMatrix([_scalars(r) for r in b])

    total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    got = A + B
    assert (got.nrows, got.ncols) == (n, m)
    assert got.is_zero == all(x == 0 for row in total for x in row)
    _same(got, SemiMatrix([_scalars(r) for r in total]))
    assert [_entries(r) for r in got.rows()] == total

    scaled = [[lam * x for x in row] for row in a]
    got = A.scale(lam)
    _same(got, SemiMatrix([_scalars(r) for r in scaled]))
    assert [_lowest(got.entry(i, j)) for i in range(n) for j in range(m)] == [
        x for row in scaled for x in row
    ]
    assert [_entries(got.column(j)) for j in range(m)] == [list(c) for c in zip(*scaled)]

    zero = (A + B).scale(0)
    assert zero.is_zero
    _same(zero, SemiMatrix.zero(n, m))
    assert (A == B) == (a == b)


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@settings(max_examples=80)
@given(st.lists(SCALARS, max_size=5), st.lists(SCALARS, max_size=5), SCALARS)
def test_polynomial_add_scale(p, q, lam):
    P, Q = SemiPolynomial(_scalars(p)), SemiPolynomial(_scalars(q))
    n = max(len(p), len(q))
    pad = lambda c: list(c) + [Fraction(0)] * (n - len(c))
    total = _strip(x + y for x, y in zip(pad(p), pad(q)))

    got = P + Q
    assert got.degree == (len(total) - 1 if total else None)
    assert got.is_zero == (not total)
    _same(got, SemiPolynomial(_scalars(total)))
    assert [_lowest(c) for c in got.coefficients()] == total
    assert [_lowest(got.coefficient(k)) for k in range(n + 1)] == pad(total) + [0]

    scaled = _strip(lam * x for x in p)
    got = P.scale(lam)
    assert got.degree == (len(scaled) - 1 if scaled else None)
    _same(got, SemiPolynomial(_scalars(scaled)))
    assert [_lowest(c) for c in got.coefficients()] == scaled

    # Cancellation down to the zero polynomial.
    zero = (P + Q).scale(0)
    assert zero.is_zero and zero.degree is None and zero.coefficients() == ()
    _same(zero, SemiPolynomial.zero())
    _same(zero + P, P)


def test_polynomial_unequal_degree_and_trailing_zeros():
    p = SemiPolynomial(["1/2", "0", "3", "0", "0"])
    q = SemiPolynomial(["1/3"])
    assert p.degree == 2 and q.degree == 0
    got = p + q
    assert got.degree == 2
    assert [c.literal for c in got.coefficients()] == ["5/6", "0/1", "3/1"]
    _same(got, SemiPolynomial(["5/6", "0", "3"]))
    _same(q + p, got)


def test_computed_and_constructed_deduplicate_in_a_basis():
    half = SemiVector(["1/2", "1/4"])
    computed = SemiVector(["1", "1/2"]).scale("1/2")
    constructed = SemiVector(["2/4", "1/4"])
    _same(computed, constructed)
    _same(half + SemiVector.zero(2), computed)
    with pytest.raises(DimensionMismatch):
        SemiBasis([computed, constructed])
    assert len(SemiBasis([computed, SemiVector.unit(2, 0)])) == 2


def _gap(a, b):
    # The ordered difference max(a, b) = min(a, b) + gap, in Fractions.
    return a - b if a >= b else b - a


@settings(max_examples=80)
@given(st.data())
def test_metric_and_norm_match_gap_formula(data):
    n = data.draw(DIMS)
    x, y = data.draw(_vec(n)), data.draw(_vec(n))
    lam = data.draw(SCALARS)
    # One operand from a constructor, one computed, so both forms are read.
    X, Y = SemiVector(_scalars(x)), SemiVector(_scalars(y)).scale(lam)
    y = [lam * c for c in y]
    gaps = [_gap(a, b) for a, b in zip(x, y)]

    assert _lowest(metric(X, Y, NormKind.L1)) == sum(gaps, Fraction(0))
    assert _lowest(metric(X, Y, NormKind.LINF)) == max(gaps)
    rad = metric(X, Y, NormKind.EUCLIDEAN).radicand
    assert _lowest(rad) == sum((g * g for g in gaps), Fraction(0))
    assert metric(Y, X, NormKind.L1) == metric(X, Y, NormKind.L1)
    assert metric(X, X, NormKind.LINF).is_zero

    assert _lowest(norm(Y, NormKind.L1)) == sum(y, Fraction(0))
    assert _lowest(norm(Y, NormKind.LINF)) == max(y)
    assert _lowest(norm(Y, NormKind.EUCLIDEAN).radicand) == sum(c * c for c in y)


UNITS = st.builds(Fraction, st.integers(0, 10), st.just(10)) | st.builds(
    lambda k, d: Fraction(k % (d + 1), d), st.integers(0, _BIG), st.integers(1, _BIG)
)


@settings(max_examples=80)
@given(st.data())
def test_ln_operations_match_validating_constructor(data):
    n = data.draw(DIMS)
    u = LnVector(sorted(data.draw(st.lists(UNITS, min_size=n, max_size=n))))
    v = LnVector(sorted(data.draw(st.lists(UNITS, min_size=n, max_size=n))))
    r = data.draw(UNITS)

    for got in (ln_oplus(u, v), ln_scale(r, u), ln_scale(r, ln_oplus(u, v))):
        rebuilt = LnVector(list(got.coords))
        assert got == rebuilt and hash(got) == hash(rebuilt)
        assert isinstance(got.coords, tuple)
        assert all(isinstance(c, Fraction) for c in got.coords)
    assert list(ln_oplus(u, v)) == [min(Fraction(1), a + b) for a, b in zip(u, v)]
    assert list(ln_scale(r, u)) == [r * a for a in u]
