"""Semi-linear maps between coordinate semimodules.

A SemiLinearMap is a nonnegative matrix with explicit domain/codomain
dimensions; additivity and homogeneity then hold by construction and are
property-tested rather than assumed. Kernel extraction exploits
nonnegativity (entries cannot cancel, so only zero columns contribute);
image membership is decided exactly through the sealed signed oracle and
every witness is re-verified in nonnegative arithmetic before it leaves
this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import _signed
from .errors import DimensionMismatch, NonUnique, NotABasis, NotRepresentable
from .scalar import NonnegScalar
from .semimodule import SemiBasis, SemiMatrix, SemiVector, coords, random_vector

__all__ = [
    "SemiLinearMap",
    "ImageDecision",
    "kernel",
    "image_member",
    "injectivity_probe",
    "hom_add",
    "hom_scale",
    "coordinate_iso",
]


class SemiLinearMap:
    """Matrix-backed map between coordinate semimodules."""

    __slots__ = ("matrix", "domain_basis", "codomain_basis")

    def __init__(self, matrix: SemiMatrix, domain_basis=None, codomain_basis=None):
        if not isinstance(matrix, SemiMatrix):
            matrix = SemiMatrix(matrix)
        self.matrix = matrix
        self.domain_basis = domain_basis
        self.codomain_basis = codomain_basis

    @classmethod
    def identity(cls, n: int) -> "SemiLinearMap":
        return cls(SemiMatrix.identity(n))

    @classmethod
    def zero(cls, codomain_dim: int, domain_dim: int) -> "SemiLinearMap":
        return cls(SemiMatrix.zero(codomain_dim, domain_dim))

    @property
    def domain_dim(self) -> int:
        return self.matrix.ncols

    @property
    def codomain_dim(self) -> int:
        return self.matrix.nrows

    def apply(self, v: SemiVector) -> SemiVector:
        if v.dim != self.domain_dim:
            raise DimensionMismatch(
                f"map expects dimension {self.domain_dim}, got {v.dim}"
            )
        return self.matrix.apply(v)

    def __call__(self, v: SemiVector) -> SemiVector:
        return self.apply(v)

    def compose(self, inner: "SemiLinearMap") -> "SemiLinearMap":
        """self after inner."""
        if inner.codomain_dim != self.domain_dim:
            raise DimensionMismatch("maps do not compose")
        return SemiLinearMap(self.matrix @ inner.matrix)

    def __add__(self, other):
        if not isinstance(other, SemiLinearMap):
            return NotImplemented
        if (self.domain_dim, self.codomain_dim) != (other.domain_dim, other.codomain_dim):
            raise DimensionMismatch("maps live in different Hom spaces")
        return SemiLinearMap(self.matrix + other.matrix)

    def scale(self, lam) -> "SemiLinearMap":
        return SemiLinearMap(self.matrix.scale(lam))

    def __rmul__(self, lam):
        if isinstance(lam, (NonnegScalar, int, str)):
            return self.scale(lam)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SemiLinearMap):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"SemiLinearMap({self.codomain_dim}x{self.domain_dim})"


def hom_add(t1: SemiLinearMap, t2: SemiLinearMap) -> SemiLinearMap:
    return t1 + t2


def hom_scale(lam, t: SemiLinearMap) -> SemiLinearMap:
    return t.scale(lam)


def kernel(t: SemiLinearMap) -> SemiBasis:
    """Generators of Ker(t).

    With nonnegative entries T(v) = 0 forces v_j = 0 for every column j
    that is not entirely zero, so the kernel is exactly the cone on the
    standard vectors at zero columns. An empty basis means Ker = {0}.
    """
    n = t.domain_dim
    gens = []
    for j in range(n):
        if all(e.is_zero for e in t.matrix.column(j)):
            gens.append(SemiVector.unit(n, j))
    return SemiBasis(gens, ambient_dim=n)


@dataclass(frozen=True)
class ImageDecision:
    member: bool
    witness: SemiVector | None


def image_member(t: SemiLinearMap, w: SemiVector) -> ImageDecision:
    """Exact decision of w in Im(t), with a re-verified witness on yes."""
    if w.dim != t.codomain_dim:
        raise DimensionMismatch(
            f"target has dimension {w.dim}, codomain is {t.codomain_dim}"
        )
    rows = [[e._q for e in t.matrix.row(i)] for i in range(t.codomain_dim)]
    rhs = [w[i]._q for i in range(w.dim)]
    sol = _signed.solve_nonneg(rows, rhs)
    if sol is None:
        return ImageDecision(member=False, witness=None)
    v = SemiVector([NonnegScalar(q) for q in sol])
    if t.apply(v) != w:
        raise AssertionError("internal: image witness failed re-verification")
    return ImageDecision(member=True, witness=v)


def _proportional_columns(t: SemiLinearMap):
    """First pair (i, j, s) with column j = s * column i, s > 0, or None."""
    n = t.domain_dim
    cols = [t.matrix.column(j) for j in range(n)]
    for i in range(n):
        if all(e.is_zero for e in cols[i]):
            continue
        for j in range(i + 1, n):
            if all(e.is_zero for e in cols[j]):
                continue
            s = None
            ok = True
            for a, b in zip(cols[i], cols[j]):
                if a.is_zero != b.is_zero:
                    ok = False
                    break
                if not a.is_zero:
                    ratio = b / a
                    if s is None:
                        s = ratio
                    elif ratio != s:
                        ok = False
                        break
            if ok and s is not None:
                return i, j, s
    return None


def injectivity_probe(t: SemiLinearMap, trials: int = 200, seed: int = 0) -> dict:
    """Search for a collision T(u) = T(v) with u != v.

    Dimension 1 gets an exact verdict (kernel triviality is equivalent to
    injectivity there). Above dimension 1 the result is a probe: zero or
    proportional columns yield explicit counterexamples, and the remaining
    budget is spent on random pairs. "no_collision_found" is not a proof.
    """
    n = t.domain_dim
    if n == 1:
        if len(kernel(t)) == 0:
            return {"verdict": "injective", "exact": True, "witness": None, "trials": 0}
        u = SemiVector([NonnegScalar(1)])
        v = SemiVector([NonnegScalar(2)])
        return {
            "verdict": "collision",
            "exact": True,
            "witness": (u, v),
            "trials": 0,
        }

    for j in range(n):
        if all(e.is_zero for e in t.matrix.column(j)):
            u = SemiVector.unit(n, j)
            return {
                "verdict": "collision",
                "exact": True,
                "witness": (u, u.scale(NonnegScalar(2))),
                "trials": 0,
            }
    prop = _proportional_columns(t)
    if prop is not None:
        i, j, s = prop
        u = SemiVector.unit(n, i).scale(s)
        v = SemiVector.unit(n, j)
        return {"verdict": "collision", "exact": True, "witness": (u, v), "trials": 0}

    rng = random.Random(seed)
    for k in range(trials):
        u = random_vector(rng, n)
        v = random_vector(rng, n)
        if u != v and t.apply(u) == t.apply(v):
            return {
                "verdict": "collision",
                "exact": True,
                "witness": (u, v),
                "trials": k + 1,
            }
    return {"verdict": "no_collision_found", "exact": False, "witness": None, "trials": trials}


def coordinate_iso(basis: SemiBasis):
    """Forward/backward maps realizing the coordinate isomorphism for a
    semi-basis of the full coordinate space.

    The backward map sends coordinate tuples to their combination; the
    forward map is validated by solving coords for every standard vector
    and checking both round trips exactly. Raises NotABasis when any probe
    fails.
    """
    n = basis.ambient_dim
    m = len(basis)
    back = SemiLinearMap(
        SemiMatrix([[basis[j][r] for j in range(m)] for r in range(n)])
    )
    forward_cols = []
    for i in range(n):
        try:
            c = coords(SemiVector.unit(n, i), basis)
        except (NotRepresentable, NonUnique) as exc:
            raise NotABasis(
                f"standard vector e_{i + 1} has no unique nonnegative coordinates"
            ) from exc
        forward_cols.append(c.dense(m))
    forward = SemiLinearMap(
        SemiMatrix([[forward_cols[i][j] for i in range(n)] for j in range(m)])
    )
    if forward.compose(back) != SemiLinearMap.identity(m) or back.compose(
        forward
    ) != SemiLinearMap.identity(n):
        raise NotABasis("round trips are not the identity; not a semi-basis")
    return forward, back
