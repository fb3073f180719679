"""Oracle-based references for the closed forms in semikit.

These are the paths the monomial theorem replaced: a nonnegative inverse
solved column by column with the simplex oracle and checked on both
sides, and the coordinate isomorphism (and so the matrix of a map in a
basis) built from one ``coords`` call per standard vector or per basis
image. Tests require identical results or identical refusals from both.
"""

from semikit import _signed
from semikit.errors import NonUnique, NotABasis, NotInvertible, NotRepresentable, NotSquare
from semikit.scalar import NonnegScalar
from semikit.semilinear import SemiLinearMap
from semikit.semimodule import SemiMatrix, SemiVector, coords


def solve_right_inverse(u: SemiMatrix):
    """X >= 0 with u X = I via the simplex oracle, or None."""
    n = u.nrows
    rows = [[e._q for e in u.row(i)] for i in range(n)]
    cols = []
    for i in range(n):
        sol = _signed.solve_nonneg(rows, [int(r == i) for r in range(n)])
        if sol is None:
            return None
        cols.append([NonnegScalar(q) for q in sol])
    return SemiMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


def invert(u: SemiMatrix) -> SemiMatrix:
    """Two-sided nonnegative inverse from the oracle, or NotInvertible."""
    if not u.is_square:
        raise NotSquare(f"{u.nrows}x{u.ncols} is not square")
    x = solve_right_inverse(u)
    eye = SemiMatrix.identity(u.nrows)
    if x is None or u @ x != eye or x @ u != eye:
        raise NotInvertible("no nonnegative two-sided inverse")
    return x


def _columns_matrix(columns, m):
    """The matrix whose columns are the dense coordinate tuples given."""
    return SemiMatrix([[col[j] for col in columns] for j in range(m)])


def coordinate_iso(basis):
    """(forward, back) from coords of every standard vector, with both
    round trips checked; NotABasis when either step fails."""
    n = basis.ambient_dim
    m = len(basis)
    back = SemiLinearMap(SemiMatrix([[basis[j][r] for j in range(m)] for r in range(n)]))
    columns = []
    for i in range(n):
        try:
            c = coords(SemiVector.unit(n, i), basis)
        except (NotRepresentable, NonUnique) as exc:
            raise NotABasis(f"e_{i + 1} has no unique nonnegative coordinates") from exc
        columns.append(c.dense(m))
    forward = SemiLinearMap(_columns_matrix(columns, m))
    if forward.compose(back) != SemiLinearMap.identity(m) or back.compose(
        forward
    ) != SemiLinearMap.identity(n):
        raise NotABasis("round trips are not the identity")
    return forward, back


def matrix_rep(t: SemiLinearMap, basis):
    """The matrix of t in `basis`: column i is coords(T b_i)."""
    m = len(basis)
    return _columns_matrix([coords(t.apply(b), basis).dense(m) for b in basis], m)
