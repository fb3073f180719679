"""Differential tests: the simplex oracle against the Fourier-Motzkin
reference on small systems (nullspace dimension k <= 5), and against the
Fraction-tableau simplex it replaced on systems up to 12 x 36."""

import random
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semikit import _signed

import fm_reference
import simplex_reference

ENTRY = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
).map(Fraction)


@st.composite
def systems(draw):
    """A x = b with signed or nonnegative entries. b is free (often
    infeasible or negative) or A x for a sparse x >= 0; some rows are
    combinations of others and some columns are zero."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    entry = ENTRY.map(abs) if draw(st.booleans()) else ENTRY
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    if draw(st.booleans()):
        x = [draw(st.sampled_from([0, 0, 1, 2, Fraction(1, 3)])) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = [draw(ENTRY) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(ENTRY)
        rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + c * rhs[j])
    return rows, [Fraction(v) for v in rhs]


def _solves(rows, rhs, x):
    return all(v >= 0 for v in x) and all(
        sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs)
    )


@settings(max_examples=400, deadline=None)
@given(systems())
def test_simplex_matches_fourier_motzkin(system):
    rows, rhs = system
    solved = fm_reference.solve_linear_system(rows, rhs)
    assume(solved is None or len(solved[1]) <= 5)
    ref_kind, ref_payload = fm_reference.nonneg_solution_kind(rows, rhs)
    kind, payload = _signed.nonneg_solution_kind(rows, rhs)
    assert kind == ref_kind
    witness = _signed.solve_nonneg(rows, rhs)
    if kind == "infeasible":
        assert payload is None and witness is None
        return
    assert _solves(rows, rhs, witness)
    if kind == "unique":
        assert payload == ref_payload and witness == payload
    else:
        x1, x2 = payload
        assert x1 != x2
        assert _solves(rows, rhs, x1) and _solves(rows, rhs, x2)


WIDE = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


@st.composite
def large_systems(draw):
    """Like systems(), up to 12 x 36, with about 64-bit numerators and
    denominators on shapes up to 4 x 12. Redundant rows are sometimes
    inconsistent."""
    wide = draw(st.booleans())
    m = draw(st.integers(1, 4 if wide else 12))
    n = draw(st.integers(1, 12 if wide else 36))
    entry = WIDE if wide else ENTRY
    if draw(st.booleans()):
        entry = entry.map(abs)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        for row in rows:
            row[j] = Fraction(0)
    if draw(st.booleans()):
        x = [draw(st.sampled_from([0, 0, 0, 1, 2, Fraction(1, 3)])) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = [draw(entry) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(ENTRY)
        rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + c * rhs[j] + draw(st.sampled_from([0, 0, 1])))
    return rows, [Fraction(v) for v in rhs]


@settings(max_examples=100, deadline=None)
@given(large_systems())
def test_integer_tableau_matches_fraction_tableau(system):
    rows, rhs = system
    assert _signed.nonneg_solution_kind(rows, rhs) == simplex_reference.nonneg_solution_kind(rows, rhs)
    assert _signed.solve_nonneg(rows, rhs) == simplex_reference.solve_nonneg(rows, rhs)


def test_integer_tableau_scaling_traps():
    # Phase 1 pivots the artificial column in on a row whose integer basic
    # entry is the shared divisor 6, not 1: the column's entry there must
    # be -d.
    rows = [[Fraction(1, 3), -2, Fraction(1, 3)], [Fraction(-2, 3), 2, 3]]
    rhs = [Fraction(2, 3), 6]
    # The phase-2 objective adds two degenerate basic rows over the shared
    # divisor 23, so its entries off S must be -d, not -1.
    rows2 = [[-2, -2, 3, 1, Fraction(-2, 3)], [Fraction(-2, 3), Fraction(4, 3), -4, -1, 1],
             [-1, 0, 1, -2, 1]]
    rhs2 = [2, -2, -4]
    for a, b in ((rows, rhs), (rows2, rhs2)):
        assert _signed.nonneg_solution_kind(a, b) == simplex_reference.nonneg_solution_kind(a, b)


@contextmanager
def _checked_pivots():
    """Rebind _signed._pivot so that every pivot is checked against the
    Fraction Gauss-Jordan update of the rational tableau (rows over d)."""
    pivot = _signed._pivot

    def checked(tab, r, c, d):
        old = [[Fraction(v, d) for v in row] for row in tab]
        new_d = pivot(tab, r, c, d)
        prow = [v / old[r][c] for v in old[r]]
        expected = [
            prow if i == r else [a - row[c] * b for a, b in zip(row, prow)]
            for i, row in enumerate(old)
        ]
        assert new_d > 0
        assert [[Fraction(v, new_d) for v in row] for row in tab] == expected
        return new_d

    _signed._pivot = checked
    try:
        yield
    finally:
        _signed._pivot = pivot


def _run_checked(rows, rhs):
    with _checked_pivots():
        _signed.nonneg_solution_kind(rows, rhs)
        if rows and rows[0]:
            _signed.kernel_or_left_inverse(rows)


@settings(max_examples=60, deadline=None)
@given(systems())
def test_pivot_division_is_exact(system):
    _run_checked(*system)


@settings(max_examples=40, deadline=None)
@given(large_systems())
def test_pivot_division_is_exact_large(system):
    _run_checked(*system)


def test_pivot_division_is_exact_wide():
    # About 64-bit numerators and denominators up to 6 x 18: the largest
    # divisors and entries the tier-1 time allows.
    rng = random.Random(8024)

    def wide():
        return Fraction(rng.randint(-(2**64), 2**64), rng.randint(1, 2**64))

    for m, n in ((2, 6), (3, 9), (4, 12), (5, 15), (6, 18)):
        rows = [[wide() for _ in range(n)] for _ in range(m)]
        x = [Fraction(rng.choice([0, 0, 1, 2])) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        _run_checked(rows, rhs)
        _run_checked(rows, [wide() for _ in range(m)])


def test_verdict_classes():
    # Unique on an extreme ray although the nullspace is nontrivial.
    rows = [[1, 1, 0], [0, 1, 1]]
    assert _signed.nonneg_solution_kind(rows, [1, 0]) == ("unique", [1, 0, 0])
    # Bounded and unbounded multiplicity, and a negative right-hand side.
    kind, (x1, x2) = _signed.nonneg_solution_kind([[1, 1]], [2])
    assert kind == "multiple" and x1 != x2
    kind, (x1, x2) = _signed.nonneg_solution_kind([[1, -1]], [-1])
    assert kind == "multiple" and x1 != x2 and _solves([[1, -1]], [-1], x1)
    assert _signed.nonneg_solution_kind([[1, 1]], [-1]) == ("infeasible", None)
    # Inconsistent redundant rows and a system with no columns.
    assert _signed.solve_nonneg([[1, 2], [2, 4]], [1, 3]) is None
    assert _signed.nonneg_solution_kind([[], []], [0, 0]) == ("unique", [])
