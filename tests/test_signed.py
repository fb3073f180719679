"""Differential tests: the simplex oracle against the Fourier-Motzkin
reference on small systems (nullspace dimension k <= 5)."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semikit import _signed

import fm_reference

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
