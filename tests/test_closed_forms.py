"""Differential tests: the monomial theorem against the oracle paths it
replaced (tests/oracle_reference.py), and the exact injectivity decision
against a Fraction rank."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semikit import (
    SemiBasis,
    SemiLinearMap,
    SemiMatrix,
    coordinate_iso,
    diagonal_representation_check,
    injectivity_probe,
    invert,
    is_monomial,
)
from semikit.errors import NotABasis, NotInvertible

import oracle_reference
from conftest import F

VALUE = st.sampled_from([0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(7, 3)])


@st.composite
def near_monomials(draw, nrows, ncols):
    """A monomial pattern of positive entries on min(nrows, ncols) rows,
    then up to three entries overwritten (often with 0 or on a row that
    already has one): monomials, and matrices one or two entries away."""
    cols = draw(st.permutations(range(max(nrows, ncols))))
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for i in range(nrows):
        if cols[i] < ncols:
            rows[i][cols[i]] = Fraction(draw(VALUE.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        rows[i][j] = Fraction(draw(VALUE))
    return rows


@st.composite
def squares(draw):
    n = draw(st.integers(1, 4))
    return draw(near_monomials(n, n))


@st.composite
def families(draw):
    """The columns of a near-monomial n x m matrix, m in n-1..n+1."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(max(1, n - 1), n + 1))
    cols = list(zip(*draw(near_monomials(n, m))))
    assume(len(set(cols)) == len(cols))
    return SemiBasis(cols)


@settings(max_examples=300, deadline=None)
@given(squares())
def test_invert_matches_the_oracle(rows):
    u = SemiMatrix(rows)
    try:
        expected = oracle_reference.invert(u)
    except NotInvertible:
        with pytest.raises(NotInvertible, match=r"(row|column) \d+ has \d+ positive entries"):
            invert(u)
        assert not is_monomial(u)
    else:
        assert invert(u) == expected
        assert is_monomial(u)


@settings(max_examples=300, deadline=None)
@given(families(), st.lists(VALUE, min_size=16, max_size=16))
def test_coordinate_iso_and_matrix_rep_match_coords(basis, entries):
    try:
        expected = oracle_reference.coordinate_iso(basis)
    except NotABasis:
        with pytest.raises(NotABasis, match=r"(row|column) \d+ has \d+ positive entries"):
            coordinate_iso(basis)
        return
    assert coordinate_iso(basis) == expected
    n = basis.ambient_dim
    t = SemiLinearMap(SemiMatrix([entries[i * n:(i + 1) * n] for i in range(n)]))
    report = diagonal_representation_check(t, basis)
    assert report["matrix_rep"] == oracle_reference.matrix_rep(t, basis)


def _rank(rows):
    """Rank by Fraction Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        r = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _apply(rows, x):
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


def _check_certificate(rows, report):
    """Re-check the returned certificate in Fractions: a collision u != v,
    both >= 0, with A u == A v; or (L+, L-) with (L+ - L-) A == I."""
    n = len(rows[0])
    if report["verdict"] == "collision":
        u, v = ([F(c) for c in w] for w in report["witness"])
        assert u != v and min(u + v) >= 0
        assert _apply(rows, u) == _apply(rows, v)
        assert report["left_inverse"] is None
        return
    assert report["verdict"] == "injective" and report["witness"] is None
    plus, minus = report["left_inverse"]
    cols = list(zip(*rows))
    for i in range(n):
        l_row = [F(p) - F(q) for p, q in zip(plus.row(i), minus.row(i))]
        assert [sum(a * b for a, b in zip(l_row, col)) for col in cols] == [
            Fraction(int(i == j)) for j in range(n)
        ]


@st.composite
def maps(draw):
    """m x n maps up to 5 x 5; some columns are combinations of others."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [[Fraction(draw(VALUE)) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        j, k, l = (draw(st.integers(0, n - 1)) for _ in range(3))
        a, b = Fraction(draw(VALUE)), Fraction(draw(VALUE))
        for row in rows:
            row[j] = a * row[k] + b * row[l]
    return rows


@settings(max_examples=300, deadline=None)
@given(maps())
def test_injectivity_matches_the_rank(rows):
    report = injectivity_probe(SemiLinearMap(SemiMatrix(rows)))
    injective = _rank(rows) == len(rows[0])
    assert report["verdict"] == ("injective" if injective else "collision")
    assert report["exact"]
    _check_certificate(rows, report)


@pytest.mark.parametrize(
    "rows", [[[1, 1, 0], [0, 1, 1]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]]]
)
def test_pinned_collisions(rows):
    # Both were reported "no_collision_found" by the former random search.
    report = injectivity_probe(SemiLinearMap(SemiMatrix(rows)))
    assert report["verdict"] == "collision"
    _check_certificate([[Fraction(a) for a in row] for row in rows], report)


@pytest.mark.parametrize(
    "rows, needle",
    [
        ([[1, 1], [0, 1]], "row 1 has 2 positive entries"),
        ([[0, 0], [0, 1]], "row 1 has 0 positive entries"),
        ([[1, 0], [1, 0]], "column 1 has 2 positive entries"),
    ],
)
def test_not_invertible_names_the_row_or_column(rows, needle):
    with pytest.raises(NotInvertible, match=needle):
        invert(SemiMatrix(rows))


@pytest.mark.parametrize(
    "elements, needle",
    [
        ([[1, 0], [0, 1], [1, 1]], "row 1 has 2 positive entries"),
        ([[1, 0]], "row 2 has 0 positive entries"),
        ([[1, 0], [0, 1], [0, 0]], "column 3 has 0 positive entries"),
    ],
)
def test_not_a_basis_names_the_row_or_column(elements, needle):
    with pytest.raises(NotABasis, match=needle):
        coordinate_iso(SemiBasis(elements))
