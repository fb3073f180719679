"""Sealed signed-rational decision procedures.

The public library never exposes signed values; the nonnegative contract
is enforced at the type level in scalar.py. Deciding membership questions
(does A x = b admit x >= 0? is the solution unique?) still needs exact
arithmetic over signed rationals. That arithmetic lives here, behind
functions whose outputs are either verdicts or witnesses that callers
re-verify in pure nonnegative arithmetic before returning them.

The procedure is an exact simplex method with Bland's rule (Bland 1977),
which cannot cycle. It runs fraction-free with integer-preserving
elimination (Edmonds 1967; Bareiss 1968): a tableau is a list of rows of
Python ints whose last entry is the right-hand side, all over one shared
divisor d > 0, so the rational tableau is tab / d. ``basis[i]`` is the
column that row i solves for, and every basic entry equals d, so the basic
value is ``row[-1] / d``. A pivot on p replaces each other row by
(row * p - f * pivot_row) // d, a division that is always exact, and makes
|p| the new divisor. So d is |det| of the current basis in the integer
input rows, and no entry exceeds the Hadamard bound. Every sign, every
ratio and so every Bland choice is the same as on the rational tableau;
ratios are compared by cross-multiplying, and rationals are built only for
the witnesses.

Phase 1 starts from the Gauss-Jordan form of [A | b], which is already a
canonical tableau, so it pivots only when some right-hand side is negative.
The same elimination over [A | I] decides whether A has a trivial kernel:
it returns a kernel vector or a left inverse, which callers split into
nonnegative parts and check.
"""

from ._backend import RAT, scaled_ints


def _pivot(tab, r, c, d):
    """Make column c a unit column with its nonzero in row r, updating
    every row of `tab` (the objective row too, when it is the last one).
    Every row is over the shared divisor d; returns the new divisor |p|
    for the pivot p. Each division is exact (Bareiss 1968)."""
    row = tab[r]
    p = row[c]
    if p < 0:
        row = tab[r] = [-v for v in row]
        p = -p
    for i, other in enumerate(tab):
        if i != r:
            f = other[c]
            tab[i] = [(a * p - f * b) // d for a, b in zip(other, row)]
    return p


def _minimise(tab, basis, d):
    """Bland's-rule pivots until the objective row tab[-1] has no negative
    reduced cost. Returns (e, d) with the final divisor d, and e None at
    the optimum or the entering column of an unbounded ray."""
    while True:
        obj = tab[-1]
        e = next((j for j, v in enumerate(obj[:-1]) if v < 0), None)
        if e is None:
            return None, d
        leave = None
        for i, row in enumerate(tab[:-1]):
            if row[e] > 0:
                if leave is not None:
                    # row[-1] / row[e] against the least ratio so far; both
                    # denominators are positive.
                    best = tab[leave]
                    q = row[-1] * best[e] - best[-1] * row[e]
                    if q > 0 or (q == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
        if leave is None:
            return e, d
        d = _pivot(tab, leave, e, d)
        basis[leave] = e


def _point(tab, basis, d, n):
    """The basic solution of a canonical tableau: x_B = rhs / d, the rest
    0."""
    x = [RAT(0)] * n
    for b, row in zip(basis, tab):
        x[b] = RAT(row[-1], d)
    return x


def _eliminate(tab, n):
    """Gauss-Jordan on the first n columns of `tab`, in place: each column
    is pivoted on the first unused row that is nonzero there. Returns
    (basis, d): each row's pivot column or None for a row left without one
    (zero in all n columns), and the shared divisor."""
    basis = [None] * len(tab)
    d = 1
    for c in range(n):
        r = next((i for i, b in enumerate(basis) if b is None and tab[i][c]), None)
        if r is not None:
            d = _pivot(tab, r, c, d)
            basis[r] = c
    return basis, d


def _feasible_basis(rows, rhs, n):
    """Phase 1: a canonical tableau with nonnegative right-hand sides for
    {x >= 0 : A x = b}, as (tab, basis, d), or None when the set is
    empty."""
    tab = [scaled_ints([*row, b])[0] for row, b in zip(rows, rhs)]
    basis, d = _eliminate(tab, n)
    if any(row[-1] for row, b in zip(tab, basis) if b is None):
        return None
    tab = [row for row, b in zip(tab, basis) if b is not None]
    basis = [b for b in basis if b is not None]
    neg = [i for i, row in enumerate(tab) if row[-1] < 0]
    if not neg:
        return tab, basis, d
    # A negative row with no negative entry has no solution x >= 0.
    if any(all(v >= 0 for v in tab[i][:-1]) for i in neg):
        return None
    # One artificial column a (index n) with -1 in the negative rows, -d
    # over d. Pivoting it in at the most negative row makes every
    # right-hand side >= 0; then minimise a. The original columns keep
    # full row rank, so a row that still holds a at value 0 has another
    # nonzero entry to pivot on.
    for row in tab:
        row.insert(n, -d if row[-1] < 0 else 0)
    tab.append([0] * n + [d, 0])
    r = min(neg, key=lambda i: tab[i][-1])
    d = _pivot(tab, r, n, d)
    basis[r] = n
    _, d = _minimise(tab, basis, d)
    if tab[-1][-1]:
        return None
    if n in basis:
        r = basis.index(n)
        c = next(j for j in range(n) if tab[r][j])
        d = _pivot(tab, r, c, d)
        basis[r] = c
    return [row[:n] + row[-1:] for row in tab[:-1]], basis, d


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
    tab, basis, d = start
    x0 = _point(tab, basis, d, n)
    # Objective row for min -sum_{j not in S} x_j, over d; the basic
    # columns outside S sit at value 0, so their rows are added to zero the
    # row's entries.
    obj = [0 if v else -d for v in x0] + [0]
    for row in tab:
        if not row[-1]:
            obj = [a + v for a, v in zip(obj, row)]
    tab.append(obj)
    e, d = _minimise(tab, basis, d)
    x1 = _point(tab, basis, d, n)
    if e is not None:
        x2 = list(x1)
        x2[e] += 1
        for b, row in zip(basis, tab):
            x2[b] = RAT(row[-1] - row[e], d)
        return "multiple", (x1, x2)
    if tab[-1][-1]:
        return "multiple", (x0, x1)
    return "unique", x0


def kernel_or_left_inverse(rows):
    """Decide whether A (m x n) has a trivial kernel, by one Gauss-Jordan
    pass over [A | I].

    Returns ("kernel", k) with A k = 0 and k != 0, or ("left_inverse", L)
    with L A = I, L given as n rows of m entries. Every tableau row over d
    is w [A | I] for some multiplier row w, so its last m entries are w
    and its first n are w A. The pivot row of column c is therefore row c
    of a left inverse; when some column has no pivot, setting it to 1 and
    solving the pivot rows gives k.
    """
    m, n = len(rows), len(rows[0])
    tab = []
    for i, row in enumerate(rows):
        ints, den = scaled_ints(row)
        tab.append([*ints, *(den if k == i else 0 for k in range(m))])
    basis, d = _eliminate(tab, n)
    pivots = {b: row for b, row in zip(basis, tab) if b is not None}
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return "left_inverse", [[RAT(v, d) for v in pivots[c][n:]] for c in range(n)]
    k = [RAT(0)] * n
    k[free] = RAT(1)
    for b, row in pivots.items():
        k[b] = RAT(-row[free], d)
    return "kernel", k
