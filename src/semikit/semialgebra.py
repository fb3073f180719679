"""The nonnegative matrix semi-algebra: homomorphism verification,
inverses, the left-regular embedding into operators, and Lie bracket
rigidity.

Invertibility is decided by the monomial theorem: a nonnegative matrix
has a nonnegative inverse exactly when it is monomial (Berman and
Plemmons), and the inverse is then P^T D^-1. Every inverse is verified
on both sides, and the hom generators use monomial matrices. The Lie
audit turns the simplicity argument into a finite check: expanding
[e_i + e_j, e_i + e_j] = 0 over nonnegative structure constants forces
every constant to zero, so any nonzero constant yields a concrete
alternating-law witness.
"""

from __future__ import annotations

import random

from .errors import (
    DimensionMismatch,
    NotInvertible,
    NotSquare,
    OrderMismatch,
)
from .scalar import NonnegScalar, ZERO
from .semilinear import SemiLinearMap
from .semimodule import SemiMatrix, SemiVector, _monomial_inverse, random_scalar

__all__ = [
    "is_monomial",
    "monomial",
    "invert",
    "inverse_laws_audit",
    "AlgebraHom",
    "hom_verify",
    "left_regular_embed",
    "left_regular_embedding_audit",
    "BracketStructure",
    "lie_audit",
    "random_square",
    "random_monomial",
]


def _require_square(m: SemiMatrix):
    if not m.is_square:
        raise NotSquare(f"{m.nrows}x{m.ncols} is not square")


def is_monomial(m: SemiMatrix) -> bool:
    """Exactly one positive entry in every row and every column."""
    return _monomial_inverse(m)[0] is not None


def monomial(perm, diag) -> SemiMatrix:
    """Permutation-times-positive-diagonal matrix: row i holds diag[i] at
    column perm[i] (0-based)."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise DimensionMismatch("perm must be a permutation of 0..n-1")
    diag = [NonnegScalar(d) for d in diag]
    if any(d.is_zero for d in diag):
        raise NotInvertible("monomial diagonal must be positive")
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = diag[i]
    return SemiMatrix(rows)


def invert(u: SemiMatrix) -> SemiMatrix:
    """Two-sided nonnegative inverse, or NotInvertible naming a row or
    column without exactly one positive entry.

    The inverse comes from the monomial theorem and is then verified on
    both sides in nonnegative arithmetic.
    """
    _require_square(u)
    x, why = _monomial_inverse(u)
    if x is None:
        raise NotInvertible(f"no nonnegative inverse: {why}")
    eye = SemiMatrix.identity(u.nrows)
    if u @ x != eye or x @ u != eye:
        raise AssertionError("internal: inverse failed two-sided verification")
    return x


def inverse_laws_audit(u: SemiMatrix, v: SemiMatrix) -> dict:
    """Uniqueness of the inverse (recomputed through the transpose: Y u = I
    iff u^T Y^T = I), double inverse, and the anti-homomorphism law,
    exactly."""
    if u.nrows != v.nrows or not u.is_square or not v.is_square:
        raise OrderMismatch("audit needs two square elements of equal order")
    ui = invert(u)
    vi = invert(v)
    resolved_same = invert(u.transpose()).transpose() == ui
    double = invert(ui) == u
    anti = invert(u @ v) == vi @ ui
    return {
        "order": u.nrows,
        "inverse_unique_across_resolve": resolved_same,
        "double_inverse": double,
        "anti_homomorphism": anti,
        "ok": resolved_same and double and anti,
    }


class AlgebraHom:
    """A candidate semi-algebra homomorphism on square nonnegative matrices.

    Three flavors: conjugation by a monomial matrix (always a bona fide
    automorphism, used by generators), an arbitrary callable (verified,
    never trusted), or a finite input/output table checked on whatever law
    instances the table covers.
    """

    __slots__ = ("order", "kind", "_fn", "_table", "label")

    def __init__(self, order, kind, fn=None, table=None, label=""):
        self.order = order
        self.kind = kind
        self._fn = fn
        self._table = table
        self.label = label

    @classmethod
    def monomial_conjugation(cls, mono: SemiMatrix) -> "AlgebraHom":
        inverse = invert(mono)
        return cls(
            mono.nrows,
            "monomial_conjugation",
            fn=lambda x: mono @ x @ inverse,
            label="conj",
        )

    @classmethod
    def from_callable(cls, order, fn, label="callable") -> "AlgebraHom":
        return cls(order, "callable", fn=fn, label=label)

    @classmethod
    def from_table(cls, pairs) -> "AlgebraHom":
        pairs = [(a, b) for a, b in pairs]
        order = pairs[0][0].nrows
        return cls(order, "table", table=pairs, label="table")

    def apply(self, x: SemiMatrix) -> SemiMatrix:
        if self.kind == "table":
            for a, b in self._table:
                if a == x:
                    return b
            raise KeyError("element not covered by the table")
        return self._fn(x)


def random_square(rng: random.Random, n: int, **kw) -> SemiMatrix:
    return SemiMatrix(
        [[random_scalar(rng, **kw) for _ in range(n)] for _ in range(n)]
    )


def random_monomial(rng: random.Random, n: int) -> SemiMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [random_scalar(rng, allow_zero=False) for _ in range(n)]
    return monomial(perm, diag)


def _verify_hom_on(h, u, v, lam):
    bad = []
    if h.apply(u + v) != h.apply(u) + h.apply(v):
        bad.append("additive")
    if h.apply(u @ v) != h.apply(u) @ h.apply(v):
        bad.append("multiplicative")
    if h.apply(u.scale(lam)) != h.apply(u).scale(lam):
        bad.append("homogeneous")
    return bad


def hom_verify(h: AlgebraHom, samples: int = 100, seed: int = 0, surjective: bool = False) -> dict:
    """Check additivity, multiplicativity and homogeneity exactly.

    Callable homs are probed on seeded random pairs; table homs on every
    law instance the table happens to cover. h(0) = 0 is always checked
    and h(I) = I when a surjectivity certificate is supplied.
    """
    n = h.order
    zero = SemiMatrix.zero(n, n)
    eye = SemiMatrix.identity(n)
    failures = []
    checked = 0
    if h.kind == "table":
        inputs = [a for a, _ in h._table]
        have = {a: b for a, b in h._table}
        for u in inputs:
            for v in inputs:
                if u + v in have:
                    checked += 1
                    if have[u + v] != have[u] + have[v]:
                        failures.append({"law": "additive", "u": u, "v": v})
                if u @ v in have:
                    checked += 1
                    if have[u @ v] != have[u] @ have[v]:
                        failures.append({"law": "multiplicative", "u": u, "v": v})
        zero_ok = have[zero] == zero if zero in have else None
        identity_ok = have[eye] == eye if (surjective and eye in have) else None
        return {
            "kind": h.kind,
            "law_instances_checked": checked,
            "zero_preserved": zero_ok,
            "identity_preserved": identity_ok,
            "ok": not failures and zero_ok is not False,
            "failures": failures,
        }

    rng = random.Random(seed)
    if h.apply(zero).nrows != n:
        raise OrderMismatch("hom output has a different order")
    for _ in range(samples):
        u = random_square(rng, n)
        v = random_square(rng, n)
        lam = random_scalar(rng)
        for law in _verify_hom_on(h, u, v, lam):
            failures.append({"law": law, "u": u, "v": v, "lambda": lam})
        checked += 1
    zero_ok = h.apply(zero) == zero
    identity_ok = h.apply(eye) == eye if surjective else None
    return {
        "kind": h.kind,
        "sample_pairs": checked,
        "zero_preserved": zero_ok,
        "identity_preserved": identity_ok,
        "ok": not failures and zero_ok and identity_ok is not False,
        "failures": failures,
    }


def _flatten(x: SemiMatrix) -> SemiVector:
    return SemiVector([x.entry(i, j) for i in range(x.nrows) for j in range(x.ncols)])


def left_regular_embed(v: SemiMatrix) -> SemiLinearMap:
    """The operator x -> v . x on the flattened n^2-dimensional space:
    row-major Kronecker product of v with the identity."""
    _require_square(v)
    n = v.nrows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [ZERO] * (n * n)
            for k in range(n):
                row[k * n + j] = v.entry(i, k)
            rows.append(row)
    return SemiLinearMap(SemiMatrix(rows))


def left_regular_embedding_audit(u: SemiMatrix, v: SemiMatrix, lam) -> dict:
    """Exact audit of the embedding laws: additivity, homogeneity,
    multiplicativity (composition), and injectivity via evaluation at the
    identity element."""
    if u.nrows != v.nrows:
        raise OrderMismatch("elements of different orders")
    lam = NonnegScalar(lam)
    n = u.nrows
    eu, ev = left_regular_embed(u), left_regular_embed(v)
    additive = left_regular_embed(u + v) == eu + ev
    homogeneous = left_regular_embed(u.scale(lam)) == eu.scale(lam)
    multiplicative = left_regular_embed(u @ v) == eu.compose(ev)
    eye_flat = _flatten(SemiMatrix.identity(n))
    recovers = eu.apply(eye_flat) == _flatten(u) and ev.apply(eye_flat) == _flatten(v)
    identity_to_identity = left_regular_embed(SemiMatrix.identity(n)) == SemiLinearMap.identity(n * n)
    return {
        "order": n,
        "additive": additive,
        "homogeneous": homogeneous,
        "multiplicative": multiplicative,
        "recovers_element_at_identity": recovers,
        "identity_to_identity": identity_to_identity,
        "ok": all((additive, homogeneous, multiplicative, recovers, identity_to_identity)),
    }


class BracketStructure:
    """Bilinear bracket on the coordinate space given by nonnegative
    structure constants c[i][j][k]: [u, v]_k = sum c[i][j][k] u_i v_j."""

    __slots__ = ("dim", "constants")

    def __init__(self, constants):
        self.constants = tuple(
            tuple(tuple(NonnegScalar(x) for x in row) for row in plane)
            for plane in constants
        )
        self.dim = len(self.constants)
        for plane in self.constants:
            if len(plane) != self.dim or any(len(r) != self.dim for r in plane):
                raise DimensionMismatch("constants must form an n x n x n cube")

    @classmethod
    def zero(cls, dim: int) -> "BracketStructure":
        return cls([[[0] * dim for _ in range(dim)] for _ in range(dim)])

    def bracket(self, u: SemiVector, v: SemiVector) -> SemiVector:
        if u.dim != self.dim or v.dim != self.dim:
            raise DimensionMismatch("vectors do not match the bracket dimension")
        out = []
        for k in range(self.dim):
            acc = ZERO
            for i in range(self.dim):
                if u[i].is_zero:
                    continue
                for j in range(self.dim):
                    c = self.constants[i][j][k]
                    if not c.is_zero:
                        acc = acc + c * u[i] * v[j]
            out.append(acc)
        return SemiVector(out)

    def nonzero_constants(self):
        return [
            (i, j, k, self.constants[i][j][k])
            for i in range(self.dim)
            for j in range(self.dim)
            for k in range(self.dim)
            if not self.constants[i][j][k].is_zero
        ]


def lie_audit(structure: BracketStructure, samples: int = 30, seed: int = 0) -> dict:
    """Alternating law on the exhaustive basis-pair set, Jacobi on samples,
    and the rigidity verdict.

    Expanding [e_i + e_j, e_i + e_j] = 0 over nonnegative constants leaves
    no room for cancellation, so the alternating law already forces every
    constant to zero: a simple carrier admits only the abelian bracket.
    Any nonzero constant is reported with its concrete witness vector.
    """
    n = structure.dim
    witnesses = []
    for i in range(n):
        val = structure.bracket(SemiVector.unit(n, i), SemiVector.unit(n, i))
        if not val.is_zero:
            witnesses.append({"vector": SemiVector.unit(n, i), "bracket": val})
    for i in range(n):
        for j in range(i + 1, n):
            v = SemiVector.unit(n, i) + SemiVector.unit(n, j)
            val = structure.bracket(v, v)
            if not val.is_zero:
                witnesses.append({"vector": v, "bracket": val})
    rng = random.Random(seed)
    sample_failures = []
    jacobi_failures = []
    from .semimodule import random_vector

    for _ in range(samples):
        v = random_vector(rng, n)
        if not structure.bracket(v, v).is_zero:
            sample_failures.append(v)
        u, w, y = (random_vector(rng, n) for _ in range(3))
        total = (
            structure.bracket(u, structure.bracket(w, y))
            + structure.bracket(y, structure.bracket(u, w))
            + structure.bracket(w, structure.bracket(y, u))
        )
        if not total.is_zero:
            jacobi_failures.append((u, w, y))
    nonzero = structure.nonzero_constants()
    alternating_ok = not witnesses
    return {
        "dimension": n,
        "nonzero_constants": nonzero,
        "alternating_ok": alternating_ok,
        "alternating_witnesses": witnesses,
        "alternating_sample_failures": len(sample_failures),
        "jacobi_sample_failures": len(jacobi_failures),
        "verdict": "zero_bracket" if alternating_ok and not nonzero else "falsified",
        "note": (
            "alternating law plus nonnegative constants force the abelian bracket"
            if alternating_ok and not nonzero
            else "nonzero constants contradict the alternating law on a simple carrier"
        ),
    }
