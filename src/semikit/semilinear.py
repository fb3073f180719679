"""Semi-linear maps between coordinate semimodules.

A SemiLinearMap is a nonnegative matrix with explicit domain/codomain
dimensions; additivity and homogeneity then hold by construction and are
property-tested rather than assumed. Kernel extraction exploits
nonnegativity (entries cannot cancel, so only zero columns contribute);
image membership and injectivity are decided exactly through the sealed
signed oracle, and every witness is re-verified in nonnegative arithmetic
before it leaves this module. Coordinate isomorphisms come from the
monomial theorem: the full space's only semi-bases are monomial families.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _signed
from .errors import DimensionMismatch, NotABasis
from .scalar import ZERO, NonnegScalar
from .semimodule import SemiBasis, SemiMatrix, SemiVector, _monomial_inverse

__all__ = [
    "SemiLinearMap",
    "ImageDecision",
    "kernel",
    "image_member",
    "injectivity_probe",
    "coordinate_iso",
]


class SemiLinearMap:
    """Matrix-backed map between coordinate semimodules."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: SemiMatrix):
        if not isinstance(matrix, SemiMatrix):
            matrix = SemiMatrix(matrix)
        self.matrix = matrix

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


def _split(qs):
    """The nonnegative parts (q+, q-) of signed rationals, as scalars."""
    return (
        [NonnegScalar(q) if q > 0 else ZERO for q in qs],
        [NonnegScalar(-q) if q < 0 else ZERO for q in qs],
    )


def injectivity_probe(t: SemiLinearMap) -> dict:
    """Exact decision of injectivity on the nonnegative cone.

    T is injective there exactly when its matrix A has a trivial real
    kernel: u != v with A u = A v gives d = u - v, and a kernel vector d
    gives the collision (d+, d-). One exact elimination returns d or a
    left inverse L. The collision is re-verified as T d+ == T d- with
    d+ != d-; the injective verdict carries L split as (L+, L-) and is
    re-verified as L+ A == L- A + I, both in nonnegative arithmetic.
    """
    a = t.matrix
    rows = [[e._q for e in a.row(i)] for i in range(a.nrows)]
    kind, payload = _signed.kernel_or_left_inverse(rows)
    if kind == "kernel":
        u, v = map(SemiVector, _split(payload))
        if u == v or t.apply(u) != t.apply(v):
            raise AssertionError("internal: collision failed re-verification")
        return {
            "verdict": "collision",
            "exact": True,
            "witness": (u, v),
            "left_inverse": None,
        }
    plus, minus = (SemiMatrix(m) for m in zip(*map(_split, payload)))
    if plus @ a != minus @ a + SemiMatrix.identity(a.ncols):
        raise AssertionError("internal: left inverse failed re-verification")
    return {
        "verdict": "injective",
        "exact": True,
        "witness": None,
        "left_inverse": (plus, minus),
    }


def coordinate_iso(basis: SemiBasis):
    """Forward/backward maps realizing the coordinate isomorphism for a
    semi-basis of the full coordinate space.

    The backward map sends coordinate tuples to their combination. A
    semi-basis of the full space is exactly a square monomial family: a
    standard vector spans an extreme ray of the orthant, so it has unique
    coordinates only when exactly one element is a multiple of it, and an
    element beyond those n breaks the round trip. The forward map is
    therefore the inverse of the backward matrix, and both round trips
    are checked exactly. Raises NotABasis naming a row or column of the
    backward matrix without exactly one positive entry.
    """
    n = basis.ambient_dim
    m = len(basis)
    b = SemiMatrix([[basis[j][r] for j in range(m)] for r in range(n)])
    inverse, why = _monomial_inverse(b)
    if inverse is None:
        raise NotABasis(
            "not a semi-basis of the full space: in the matrix whose "
            f"columns are the elements, {why}"
        )
    forward, back = SemiLinearMap(inverse), SemiLinearMap(b)
    if forward.compose(back) != SemiLinearMap.identity(m) or back.compose(
        forward
    ) != SemiLinearMap.identity(n):
        raise AssertionError("internal: coordinate round trips failed verification")
    return forward, back
