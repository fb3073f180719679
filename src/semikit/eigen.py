"""Eigenpairs of semi-linear operators without subtraction.

There is no characteristic polynomial here: det(A - lambda I) has no
meaning when negatives are unavailable, so the module offers exactly what
the cancellation law supports. Structured 2x2 solvers cover the worked
diagonal and upper-triangular case tables; verify_eigenpair is an exact
componentwise check; and a power iteration restricted to semi-field
operations (+, *, division by positive scalars, ordered gaps) handles
general primitive matrices with an explicit float certificate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (
    CaseOutsidePaper,
    DimensionMismatch,
    InvalidValue,
    NoConvergence,
    NotSquare,
    ReducibleMatrix,
    ResultTooLarge,
    ZeroVector,
)
from .scalar import NonnegScalar, ZERO
from .semilinear import SemiLinearMap, coordinate_iso
from .semimodule import SemiBasis, SemiMatrix, SemiVector, random_scalar

__all__ = [
    "EigenPair",
    "verify_eigenpair",
    "solve_2x2_diagonal",
    "solve_2x2_uppertriangular",
    "eigenspace_closure_check",
    "perron_power_iteration",
    "diagonal_representation_check",
]


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue, nonzero eigenvector, and a certificate.

    Exact pairs carry {"kind": "exact"}; iterative pairs carry a float
    residual bound plus the Collatz-Wielandt bracket that encloses the
    true dominant eigenvalue.
    """

    value: NonnegScalar
    vector: SemiVector
    certificate: dict

    def __post_init__(self):
        if self.vector.is_zero:
            raise ZeroVector("eigenvectors are nonzero by definition")


def _require_square(t: SemiLinearMap):
    if t.domain_dim != t.codomain_dim:
        raise NotSquare(f"operator is {t.codomain_dim}x{t.domain_dim}")


def verify_eigenpair(t: SemiLinearMap, lam: NonnegScalar, v: SemiVector) -> bool:
    """Exact check of T(v) = lambda v. lambda = 0 with a kernel vector
    counts: the definition only asks for a nonnegative eigenvalue."""
    _require_square(t)
    if v.dim != t.domain_dim:
        raise DimensionMismatch("vector dimension does not match the operator")
    if v.is_zero:
        raise ZeroVector("eigenvectors are nonzero by definition")
    return t.apply(v) == v.scale(lam)


def _exact_pair(lam, coords_) -> EigenPair:
    return EigenPair(
        value=lam if isinstance(lam, NonnegScalar) else NonnegScalar(lam),
        vector=SemiVector(coords_),
        certificate={"kind": "exact", "residual": 0.0},
    )


def solve_2x2_diagonal(a: NonnegScalar, b: NonnegScalar):
    """Eigenpairs of [[a, 0], [0, b]] for the supported case table:
    a != b, not both zero. Rays are returned through their unit
    representatives."""
    a, b = NonnegScalar(a), NonnegScalar(b)
    if a == b:
        raise CaseOutsidePaper("requires a != b (not both zero)")
    if a.is_zero and b.is_zero:
        raise CaseOutsidePaper("requires not both zero")
    pairs = []
    if not a.is_zero:
        pairs.append(_exact_pair(a, (1, 0)))
    if not b.is_zero:
        pairs.append(_exact_pair(b, (0, 1)))
    return pairs


def solve_2x2_uppertriangular(a: NonnegScalar, b: NonnegScalar):
    """Eigenpairs of [[a, b], [0, a]] with a != b, both positive: only
    lambda = a survives, on the ray (x, 0). A nonzero second coordinate
    would force b = 0, which the case table excludes."""
    a, b = NonnegScalar(a), NonnegScalar(b)
    if a == b or a.is_zero or b.is_zero:
        raise CaseOutsidePaper("requires a != b with both positive")
    return [_exact_pair(a, (1, 0))]


def _eigen_ratio(t: SemiLinearMap, v: SemiVector):
    """The lambda with T(v) = lambda v, or None if v is not an eigenvector."""
    w = t.apply(v)
    lam = None
    for wi, vi in zip(w, v):
        if not vi.is_zero:
            lam = wi / vi
            break
    if lam is None:
        return None
    return lam if w == v.scale(lam) else None


def eigenspace_closure_check(
    t: SemiLinearMap, lam: NonnegScalar, members=None, samples: int = 40, seed: int = 0
) -> dict:
    """Audit that the eigenspace of lambda (with the zero vector adjoined)
    is closed under + and nonnegative scaling.

    Members default to the standard basis vectors that verify exactly;
    explicitly supplied members are validated first (the zero vector is a
    member by definition).
    """
    _require_square(t)
    lam = NonnegScalar(lam)
    n = t.domain_dim

    def in_space(v):
        return v.is_zero or t.apply(v) == v.scale(lam)

    if members is None:
        members = [
            e for i in range(n)
            if in_space(e := SemiVector.unit(n, i))
        ]
        members.append(SemiVector.zero(n))
    else:
        members = [m if isinstance(m, SemiVector) else SemiVector(m) for m in members]
    invalid = [i for i, m in enumerate(members) if not in_space(m)]
    report = {
        "lambda": lam,
        "member_count": len(members),
        "members_valid": not invalid,
        "invalid_members": invalid,
        "pairs_checked": 0,
        "scalings_checked": 0,
        "closed": False,
        "failures": [],
    }
    if invalid:
        return report
    rng = random.Random(seed)
    for i, u in enumerate(members):
        for v in members[i:]:
            report["pairs_checked"] += 1
            if not in_space(u + v):
                report["failures"].append({"law": "addition", "u": u, "v": v})
        for _ in range(max(1, samples // max(1, len(members)))):
            alpha = random_scalar(rng)
            report["scalings_checked"] += 1
            if not in_space(u.scale(alpha)):
                report["failures"].append({"law": "scaling", "u": u, "alpha": alpha})
    report["closed"] = not report["failures"]
    return report


def _primitivity_exponent(matrix: SemiMatrix):
    """Smallest k <= n^2 - 2n + 2 with (A^k) entrywise positive, or None.
    The bound is the classical worst case for primitive matrices, so
    failing it certifies the probe's refusal."""
    n = matrix.nrows
    pos = [[not matrix.entry(i, j).is_zero for j in range(n)] for i in range(n)]
    bound = n * n - 2 * n + 2
    cur = pos
    for k in range(1, bound + 1):
        if all(all(row) for row in cur):
            return k
        if k == bound:
            break
        cur = [
            [any(cur[i][l] and pos[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return None


def perron_power_iteration(
    matrix: SemiMatrix, tol: float = 1e-9, max_iter: int = 100000
) -> EigenPair:
    """Dominant eigenpair of a primitive nonnegative matrix.

    The iteration uses only semi-field moves: multiply by the matrix,
    divide by the positive column sum, and measure the residual as the
    largest ordered gap between A v and lambda v (scaled by the largest
    coordinate). Floats carry the iteration; the returned pair is the
    exact rational image of the final iterate, re-normalized to unit
    1-norm. The certificate stores the residual, the iteration count, and
    the Collatz-Wielandt bracket enclosing the true eigenvalue. A row sum
    past float range raises ResultTooLarge.
    """
    if not matrix.is_square:
        raise NotSquare("power iteration needs a square matrix")
    if tol <= 0:
        raise InvalidValue("tol must be positive")
    exponent = _primitivity_exponent(matrix)
    if exponent is None:
        raise ReducibleMatrix("primitivity probe failed within the Wielandt bound")
    n = matrix.nrows
    rows = [[float(matrix.entry(i, j)) for j in range(n)] for i in range(n)]
    # Every iterate has unit 1-norm, so finite row sums keep each A v, and
    # lambda v, in float range.
    if not all(math.isfinite(sum(r)) for r in rows):
        raise ResultTooLarge("a row sum is too large for its float view")
    v = [1.0 / n] * n

    def matvec(x):
        return [sum(r[j] * x[j] for j in range(n)) for r in rows]

    w = matvec(v)
    for it in range(1, max_iter + 1):
        s = sum(w)
        if s == 0.0:
            raise ReducibleMatrix("iterate collapsed to zero")
        v = [x / s for x in w]
        w = matvec(v)
        lam = sum(w)  # 1-norm of A v, since v is nonnegative with unit 1-norm
        vmax = max(v)
        resid = 0.0
        for wi, vi in zip(w, v):
            target = lam * vi
            g = wi - target if wi >= target else target - wi
            if g > resid:
                resid = g
        resid /= vmax
        if resid <= tol:
            ratios = [wi / vi for wi, vi in zip(w, v) if vi > 0.0]
            vec = [NonnegScalar.from_float(x) for x in v]
            total = sum(vec, ZERO)
            vec = SemiVector([x / total for x in vec])
            return EigenPair(
                value=NonnegScalar.from_float(lam),
                vector=vec,
                certificate={
                    "kind": "float",
                    "residual": resid,
                    "tol": tol,
                    "iterations": it,
                    "cw_bracket": (min(ratios), max(ratios)),
                    "primitivity_exponent": exponent,
                },
            )
    raise NoConvergence(f"no convergence within {max_iter} iterations")


def diagonal_representation_check(t: SemiLinearMap, basis: SemiBasis) -> dict:
    """Compute the matrix of t in `basis` and decide diagonality.

    Both directions of the equivalence are evaluated: the matrix is
    diagonal iff every basis element is an eigenvector, and the report
    asserts their agreement. The basis must be a semi-basis of the full
    space (NotABasis otherwise); then the matrix is F T B with F, B the
    coordinate isomorphism, and it is always nonnegative, so the case
    where some T(b_i) has no nonnegative coordinates cannot arise.
    """
    _require_square(t)
    forward, back = coordinate_iso(basis)
    rep = forward.matrix @ t.matrix @ back.matrix
    m = len(basis)
    diagonal = all(
        rep.entry(j, i).is_zero for i in range(m) for j in range(m) if i != j
    )
    ratios = [_eigen_ratio(t, basis[i]) for i in range(m)]
    all_eigen = all(r is not None for r in ratios)
    report = {
        "matrix_rep": rep,
        "diagonal": diagonal,
        "basis_all_eigenvectors": all_eigen,
        "directions_agree": diagonal == all_eigen,
        "non_eigen_indices": [i + 1 for i, r in enumerate(ratios) if r is None],
    }
    if diagonal:
        report["eigenvalues"] = [rep.entry(i, i) for i in range(m)]
    return report
