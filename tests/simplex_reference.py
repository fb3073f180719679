"""Fraction-tableau reference for the simplex oracle in semikit._signed.

This is the oracle as it was before its tableau moved to integer rows: the
same phase-1 / phase-2 Bland's-rule simplex, with every tableau entry a
Fraction and every pivot row divided by its pivot. The fraction-free
oracle must take the same pivots, so tests require identical verdicts and
identical witnesses from both.
"""

from fractions import Fraction as RAT

_Z = RAT(0)
_ONE = RAT(1)


def _pivot(tab, r, c):
    """Make column c a unit column with its 1 in row r, updating every row
    of `tab` (the objective row too, when it is the last one)."""
    row = tab[r]
    inv = _ONE / row[c]
    row = tab[r] = [v * inv if v else v for v in row]
    for i, other in enumerate(tab):
        f = other[c]
        if f and i != r:
            tab[i] = [a - f * b if b else a for a, b in zip(other, row)]


def _minimise(tab, basis):
    """Bland's-rule pivots until the objective row tab[-1] has no negative
    reduced cost. Returns None at the optimum, or the entering column of
    an unbounded ray."""
    while True:
        obj = tab[-1]
        e = next((j for j, d in enumerate(obj[:-1]) if d < 0), None)
        if e is None:
            return None
        leave = ratio = None
        for i, row in enumerate(tab[:-1]):
            if row[e] > 0:
                q = row[-1] / row[e]
                if leave is None or q < ratio or (q == ratio and basis[i] < basis[leave]):
                    leave, ratio = i, q
        if leave is None:
            return e
        _pivot(tab, leave, e)
        basis[leave] = e


def _point(tab, basis, n):
    """The basic solution of a canonical tableau: x_B = rhs, the rest 0."""
    x = [_Z] * n
    for b, row in zip(basis, tab):
        x[b] = row[-1]
    return x


def _feasible_basis(rows, rhs, n):
    """Phase 1: a canonical tableau with nonnegative right-hand sides for
    {x >= 0 : A x = b}, as (tab, basis), or None when the set is empty."""
    m = len(rows)
    tab = [list(row) + [b] for row, b in zip(rows, rhs)]
    basis = [None] * m
    for c in range(n):
        r = next((i for i in range(m) if basis[i] is None and tab[i][c]), None)
        if r is not None:
            _pivot(tab, r, c)
            basis[r] = c
    if any(row[-1] for row, b in zip(tab, basis) if b is None):
        return None
    tab = [row for row, b in zip(tab, basis) if b is not None]
    basis = [b for b in basis if b is not None]
    neg = [i for i, row in enumerate(tab) if row[-1] < 0]
    if not neg:
        return tab, basis
    # A negative row with no negative entry has no solution x >= 0.
    if any(all(v >= 0 for v in tab[i][:-1]) for i in neg):
        return None
    # One artificial column a (index n) with -1 in the negative rows. Pivoting
    # it in at the most negative row makes every right-hand side >= 0; then
    # minimise a. The original columns keep full row rank, so a row that
    # still holds a at value 0 has another nonzero entry to pivot on.
    for row in tab:
        row.insert(n, -_ONE if row[-1] < 0 else _Z)
    tab.append([_Z] * n + [_ONE, _Z])
    r = min(neg, key=lambda i: tab[i][-1])
    _pivot(tab, r, n)
    basis[r] = n
    _minimise(tab, basis)
    if tab[-1][-1]:
        return None
    if n in basis:
        r = basis.index(n)
        c = next(j for j in range(n) if tab[r][j])
        _pivot(tab, r, c)
        basis[r] = c
    return [row[:n] + row[-1:] for row in tab[:-1]], basis


def solve_nonneg(rows, rhs):
    """A witness x >= 0 with A x = b, or None when none exists."""
    n = len(rows[0]) if rows else 0
    start = _feasible_basis(rows, rhs, n)
    if start is None:
        return None
    return _point(*start, n)


def nonneg_solution_kind(rows, rhs):
    """Classify {x >= 0 : A x = b}.

    Returns one of ("infeasible", None), ("unique", x), or
    ("multiple", (x1, x2)) with two distinct nonnegative solutions.

    The support S of the basic solution x0 from phase 1 has independent
    columns, so x0 is the only solution iff max sum_{j not in S} x_j is 0.
    Phase 2 decides that from the phase-1 basis: a positive optimum gives
    a second witness, and an unbounded ray gives two.
    """
    n = len(rows[0]) if rows else 0
    start = _feasible_basis(rows, rhs, n)
    if start is None:
        return "infeasible", None
    tab, basis = start
    x0 = _point(tab, basis, n)
    # Objective row for min -sum_{j not in S} x_j; the basic columns outside
    # S sit at value 0, so their rows are added to zero the row's entries.
    obj = [_Z if v else -_ONE for v in x0] + [_Z]
    for b, row in zip(basis, tab):
        if not x0[b]:
            obj = [a + v for a, v in zip(obj, row)]
    tab.append(obj)
    e = _minimise(tab, basis)
    x1 = _point(tab, basis, n)
    if e is not None:
        x2 = list(x1)
        x2[e] += _ONE
        for b, row in zip(basis, tab):
            x2[b] -= row[e]
        return "multiple", (x1, x2)
    if tab[-1][-1]:
        return "multiple", (x0, x1)
    return "unique", x0
