"""Coordinate semimodules over the nonnegative rationals.

SemiVector, SemiMatrix and SemiPolynomial are the concrete carriers; all
three support + and nonnegative scaling and satisfy the same axiom set,
which axiom_audit exercises on seeded random samples. SemiBasis plus
coords give exact nonnegative coordinates with a uniqueness certificate,
and subspace_check audits finitely generated cones with an exact
membership oracle.

Each carrier holds its entries as NonnegScalars, its scaled form (the
entries as integers over the lcm of their denominators, see
``_backend.scaled_ints``; one form per row of a matrix), or both. A
missing one is derived on first use and then kept. Constructors store
entries; + and scale run on the scaled form and store only that, so a
chain of them runs in Python ints with one gcd per result. The form is
canonical, so == and hash compare it directly. The zero carriers are
built from the zero form ([0] * n, 1). axiom_audit draws each sample
straight into the form, with the same random calls as random_scalar and
no Fraction per entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import _signed
from ._backend import RAT, random_form, scaled_add, scaled_dot, scaled_ints, scaled_scale, unscaled
from .errors import (
    DimensionMismatch,
    InvalidValue,
    NonUnique,
    NotRepresentable,
)
from .scalar import ONE, ZERO, NonnegScalar

__all__ = [
    "SemiVector",
    "SemiMatrix",
    "SemiPolynomial",
    "SemiBasis",
    "Coordinates",
    "is_symmetrizable",
    "is_simple_space",
    "subspace_check",
    "coords",
    "axiom_audit",
    "random_scalar",
]


def _to_scalar(x) -> NonnegScalar:
    return x if isinstance(x, NonnegScalar) else NonnegScalar(x)


def _scale_form(scalars):
    """Scaled form of a sequence of NonnegScalars."""
    return scaled_ints([s._q for s in scalars])


def _entries_of(form):
    """The NonnegScalars of a scaled form."""
    return tuple(map(NonnegScalar._wrap, unscaled(form)))


def _form_key(form):
    return tuple(form[0]), form[1]


class SemiVector:
    """Dense vector with nonnegative rational coordinates, length >= 1."""

    __slots__ = ("_coords", "_form")

    def __init__(self, coords):
        items = tuple(_to_scalar(c) for c in coords)
        if not items:
            raise DimensionMismatch("a vector needs at least one coordinate")
        self._coords = items
        self._form = None

    @classmethod
    def _wrap(cls, items):
        obj = object.__new__(cls)
        obj._coords = items
        obj._form = None
        return obj

    @classmethod
    def _from_form(cls, form):
        obj = object.__new__(cls)
        obj._coords = None
        obj._form = form
        return obj

    def _entries(self):
        if self._coords is None:
            self._coords = _entries_of(self._form)
        return self._coords

    def _scaled(self):
        if self._form is None:
            self._form = _scale_form(self._coords)
        return self._form

    @classmethod
    def zero(cls, n: int) -> "SemiVector":
        return cls._from_form(([0] * n, 1))

    @classmethod
    def unit(cls, n: int, i: int) -> "SemiVector":
        """Standard basis vector e_i (0-based index)."""
        items = [ZERO] * n
        items[i] = ONE
        return cls._wrap(tuple(items))

    @property
    def dim(self) -> int:
        return len(self)

    @property
    def is_zero(self) -> bool:
        return not any(self._scaled()[0])

    def __len__(self):
        return len(self._coords if self._coords is not None else self._form[0])

    def __iter__(self):
        return iter(self._entries())

    def __getitem__(self, i):
        return self._entries()[i]

    def __add__(self, other):
        if not isinstance(other, SemiVector):
            return NotImplemented
        if len(self) != len(other):
            raise DimensionMismatch(f"vector lengths differ: {len(self)} vs {len(other)}")
        return SemiVector._from_form(scaled_add(self._scaled(), other._scaled()))

    def scale(self, lam) -> "SemiVector":
        lam = _to_scalar(lam)
        return SemiVector._from_form(scaled_scale(lam._q, self._scaled()))

    def __rmul__(self, lam):
        if isinstance(lam, (NonnegScalar, int, str)):
            return self.scale(lam)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SemiVector):
            return NotImplemented
        return self._scaled() == other._scaled()

    def __hash__(self):
        return hash(_form_key(self._scaled()))

    def __repr__(self):
        inner = ", ".join(c.literal for c in self._entries())
        return f"SemiVector([{inner}])"


class SemiMatrix:
    """Dense n x m matrix of nonnegative rationals; its scaled form is one
    form per row (a matrix-wide lcm would make every row as wide as the
    widest denominator product)."""

    __slots__ = ("_rows", "_forms")

    def __init__(self, rows):
        packed = tuple(tuple(_to_scalar(e) for e in row) for row in rows)
        if not packed or not packed[0]:
            raise DimensionMismatch("matrix dimensions must be positive")
        width = len(packed[0])
        if any(len(r) != width for r in packed):
            raise DimensionMismatch("ragged rows in matrix")
        self._rows = packed
        self._forms = None

    @classmethod
    def _wrap(cls, rows):
        obj = object.__new__(cls)
        obj._rows = rows
        obj._forms = None
        return obj

    @classmethod
    def _from_forms(cls, forms):
        obj = object.__new__(cls)
        obj._rows = None
        obj._forms = forms
        return obj

    def _entries(self):
        if self._rows is None:
            self._rows = tuple(map(_entries_of, self._forms))
        return self._rows

    def _scaled(self):
        if self._forms is None:
            self._forms = tuple(map(_scale_form, self._rows))
        return self._forms

    @classmethod
    def zero(cls, n: int, m: int) -> "SemiMatrix":
        return cls._from_forms(tuple(([0] * m, 1) for _ in range(n)))

    @classmethod
    def identity(cls, n: int) -> "SemiMatrix":
        return cls._wrap(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )

    @property
    def nrows(self) -> int:
        return len(self._rows if self._rows is not None else self._forms)

    @property
    def ncols(self) -> int:
        return len(self._rows[0] if self._rows is not None else self._forms[0][0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row(self, i):
        return self._entries()[i]

    def column(self, j):
        return tuple(r[j] for r in self._entries())

    def entry(self, i, j) -> NonnegScalar:
        return self._entries()[i][j]

    def rows(self):
        return self._entries()

    def transpose(self) -> "SemiMatrix":
        return SemiMatrix._wrap(tuple(zip(*self._entries())))

    def __add__(self, other):
        if not isinstance(other, SemiMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("matrix shapes differ")
        return SemiMatrix._from_forms(
            tuple(map(scaled_add, self._scaled(), other._scaled()))
        )

    def scale(self, lam) -> "SemiMatrix":
        q = _to_scalar(lam)._q
        return SemiMatrix._from_forms(tuple(scaled_scale(q, f) for f in self._scaled()))

    def __rmul__(self, lam):
        if isinstance(lam, (NonnegScalar, int, str)):
            return self.scale(lam)
        return NotImplemented

    def __matmul__(self, other):
        if not isinstance(other, SemiMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = [_scale_form(col) for col in zip(*other._entries())]
        return SemiMatrix._wrap(
            tuple(
                tuple(NonnegScalar._wrap(scaled_dot(row, col)) for col in cols)
                for row in self._scaled()
            )
        )

    def apply(self, v: SemiVector) -> SemiVector:
        if v.dim != self.ncols:
            raise DimensionMismatch(
                f"matrix has {self.ncols} columns, vector has {v.dim}"
            )
        x = v._scaled()
        return SemiVector._wrap(
            tuple(NonnegScalar._wrap(scaled_dot(row, x)) for row in self._scaled())
        )

    @property
    def is_zero(self) -> bool:
        return not any(any(ints) for ints, _ in self._scaled())

    def __eq__(self, other):
        if not isinstance(other, SemiMatrix):
            return NotImplemented
        return self._scaled() == other._scaled()

    def __hash__(self):
        return hash(tuple(map(_form_key, self._scaled())))

    def __repr__(self):
        return f"SemiMatrix({self.nrows}x{self.ncols})"


def _monomial_inverse(m: SemiMatrix):
    """The monomial theorem as one scan: a nonnegative matrix has a
    nonnegative inverse exactly when every row and every column holds
    exactly one positive entry (Berman and Plemmons, Nonnegative Matrices
    in the Mathematical Sciences).

    Returns (inverse, None) with the inverse P^T D^-1 of m = D P, or
    (None, why) where why names the first row, else the first column
    (1-based), without exactly one positive entry. A matrix that is not
    square always has such a row or column.
    """
    rows = m.rows()
    cols = []
    for i, row in enumerate(rows, 1):
        hits = [j for j, e in enumerate(row) if not e.is_zero]
        if len(hits) != 1:
            return None, f"row {i} has {len(hits)} positive entries"
        cols.append(hits[0])
    for j in range(m.ncols):
        count = cols.count(j)
        if count != 1:
            return None, f"column {j + 1} has {count} positive entries"
    inverse = [[ZERO] * len(cols) for _ in cols]
    for i, j in enumerate(cols):
        inverse[j][i] = rows[i][j].inv()
    return SemiMatrix._wrap(tuple(map(tuple, inverse))), None


def _strip(form):
    """A polynomial's scaled form without trailing zero coefficients; the
    zero polynomial's is ([], 1)."""
    ints, den = form
    k = len(ints)
    while k and not ints[k - 1]:
        k -= 1
    if k == len(ints):
        return form
    return ints[:k], den if k else 1


class SemiPolynomial:
    """Polynomial with nonnegative rational coefficients, indexed by degree.

    The zero polynomial is the empty coefficient tuple; otherwise trailing
    zeros are stripped so the degree is explicit.
    """

    __slots__ = ("_coeffs", "_form")

    def __init__(self, coefficients):
        items = [_to_scalar(c) for c in coefficients]
        while items and items[-1].is_zero:
            items.pop()
        self._coeffs = tuple(items)
        self._form = None

    @classmethod
    def _from_form(cls, form):
        obj = object.__new__(cls)
        obj._coeffs = None
        obj._form = _strip(form)
        return obj

    def _entries(self):
        if self._coeffs is None:
            self._coeffs = _entries_of(self._form)
        return self._coeffs

    def _scaled(self):
        if self._form is None:
            self._form = _scale_form(self._coeffs)
        return self._form

    @classmethod
    def zero(cls) -> "SemiPolynomial":
        return cls._from_form(([], 1))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        n = len(self._coeffs if self._coeffs is not None else self._form[0])
        return n - 1 if n else None

    @property
    def is_zero(self) -> bool:
        return self.degree is None

    def coefficient(self, k: int) -> NonnegScalar:
        coeffs = self._entries()
        return coeffs[k] if k < len(coeffs) else ZERO

    def coefficients(self):
        return self._entries()

    def evaluate(self, x: NonnegScalar) -> NonnegScalar:
        acc = ZERO
        for c in reversed(self._entries()):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if not isinstance(other, SemiPolynomial):
            return NotImplemented
        (a, da), (b, db) = self._scaled(), other._scaled()
        n = max(len(a), len(b))
        return SemiPolynomial._from_form(
            scaled_add((a + [0] * (n - len(a)), da), (b + [0] * (n - len(b)), db))
        )

    def scale(self, lam) -> "SemiPolynomial":
        lam = _to_scalar(lam)
        return SemiPolynomial._from_form(scaled_scale(lam._q, self._scaled()))

    def __rmul__(self, lam):
        if isinstance(lam, (NonnegScalar, int, str)):
            return self.scale(lam)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SemiPolynomial):
            return NotImplemented
        return self._scaled() == other._scaled()

    def __hash__(self):
        return hash(_form_key(self._scaled()))

    def __repr__(self):
        if self.is_zero:
            return "SemiPolynomial(0)"
        return f"SemiPolynomial(degree={self.degree})"


class SemiBasis:
    """A candidate coordinate family: pairwise distinct vectors sharing an
    ambient dimension. Whether it actually is a semi-basis for a given
    vector is decided by coords."""

    __slots__ = ("_elements", "_ambient")

    def __init__(self, elements, ambient_dim=None):
        elems = tuple(
            e if isinstance(e, SemiVector) else SemiVector(e) for e in elements
        )
        if elems:
            ambient = elems[0].dim
            if any(e.dim != ambient for e in elems):
                raise DimensionMismatch("basis elements have mixed dimensions")
            if ambient_dim is not None and ambient_dim != ambient:
                raise DimensionMismatch("ambient_dim disagrees with elements")
        else:
            if ambient_dim is None:
                raise DimensionMismatch("empty basis needs an explicit ambient_dim")
            ambient = ambient_dim
        if len(set(elems)) != len(elems):
            raise DimensionMismatch("basis elements must be pairwise distinct")
        self._elements = elems
        self._ambient = ambient

    @classmethod
    def standard(cls, n: int) -> "SemiBasis":
        return cls(tuple(SemiVector.unit(n, i) for i in range(n)))

    @property
    def ambient_dim(self) -> int:
        return self._ambient

    def __len__(self):
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __getitem__(self, i):
        return self._elements[i]

    def __eq__(self, other):
        if not isinstance(other, SemiBasis):
            return NotImplemented
        return self._elements == other._elements and self._ambient == other._ambient

    def __repr__(self):
        return f"SemiBasis({len(self._elements)} elements in dim {self._ambient})"


def is_symmetrizable(v: SemiVector) -> bool:
    """True iff some u satisfies u + v = 0. Componentwise nonnegative sums
    vanish only when both sides vanish, so only the zero vector qualifies."""
    return v.is_zero


def is_simple_space(n: int) -> bool:
    """Coordinate spaces over the nonnegative rationals are always simple:
    the componentwise argument leaves the zero vector as the only
    symmetrizable element, whatever the dimension."""
    if n < 1:
        raise DimensionMismatch("dimension must be >= 1")
    return True


def random_scalar(rng: random.Random, max_num=60, max_den=12, allow_zero=True) -> NonnegScalar:
    num = rng.randint(0 if allow_zero else 1, max_num)
    den = rng.randint(1, max_den)
    return NonnegScalar._wrap(RAT(num, den))


def _random_form(rng: random.Random, k: int):
    """The scaled form of k entries drawn exactly as k random_scalar(rng)
    calls draw them (numerator, then denominator, entry by entry), with no
    Fraction per entry."""
    return random_form(rng, k, 0, 60, 12)


def random_vector(rng: random.Random, n: int, **kw) -> SemiVector:
    return SemiVector._wrap(tuple(random_scalar(rng, **kw) for _ in range(n)))


def _rebuilds(coeffs, generators, target: SemiVector) -> bool:
    """Whether sum_j coeffs[j] * generators[j] is target, in nonnegative
    arithmetic."""
    rebuilt = SemiVector.zero(target.dim)
    for c, g in zip(coeffs, generators):
        rebuilt = rebuilt + g.scale(c)
    return rebuilt == target


def _cone_member(generators, w: SemiVector):
    """Exact membership of w in the cone generated by `generators`.
    Returns a coefficient list (NonnegScalar) or None."""
    k = len(generators)
    rows = [
        [generators[j][r]._q for j in range(k)]
        for r in range(w.dim)
    ]
    rhs = [w[r]._q for r in range(w.dim)]
    sol = _signed.solve_nonneg(rows, rhs)
    if sol is None:
        return None
    coeffs = [NonnegScalar(q) for q in sol]
    if not _rebuilds(coeffs, generators, w):
        raise AssertionError("internal: witness failed nonnegative re-verification")
    return coeffs


def subspace_check(generators, samples: int = 50, seed: int = 0, probes=None) -> dict:
    """Audit the cone generated by `generators` as a semi-subspace.

    Randomized members are combined and rescaled; each result is re-decided
    by the exact membership oracle. Optional probe vectors are reported
    with their membership verdicts and witnesses.
    """
    gens = [g if isinstance(g, SemiVector) else SemiVector(g) for g in generators]
    if not gens:
        raise DimensionMismatch("at least one generator required")
    n = gens[0].dim
    if any(g.dim != n for g in gens):
        raise DimensionMismatch("generators have mixed dimensions")
    rng = random.Random(seed)
    failures = []

    def member(w):
        return _cone_member(gens, w) is not None

    zero_ok = member(SemiVector.zero(n))

    def random_member():
        v = SemiVector.zero(n)
        for g in gens:
            v = v + g.scale(random_scalar(rng))
        return v

    add_checked = scale_checked = 0
    for _ in range(samples):
        u, v = random_member(), random_member()
        if not member(u + v):
            failures.append({"law": "addition", "u": u, "v": v})
        add_checked += 1
        lam = random_scalar(rng)
        if not member(u.scale(lam)):
            failures.append({"law": "scaling", "u": u, "lambda": lam})
        scale_checked += 1

    probe_results = []
    for p in probes or ():
        p = p if isinstance(p, SemiVector) else SemiVector(p)
        witness = _cone_member(gens, p)
        probe_results.append(
            {"vector": p, "member": witness is not None, "witness": witness}
        )

    return {
        "generators": len(gens),
        "dimension": n,
        "seed": seed,
        "zero_vector_member": zero_ok,
        "addition_checks": add_checked,
        "scaling_checks": scale_checked,
        "closed": zero_ok and not failures,
        "failures": failures,
        "probes": probe_results,
    }


@dataclass(frozen=True)
class Coordinates:
    """Result of coords: strictly positive coefficients on the support,
    1-based basis indices, plus the uniqueness certificate."""

    support: tuple
    certificate: dict

    def dense(self, basis_size: int):
        out = [ZERO] * basis_size
        for idx, c in self.support:
            out[idx - 1] = c
        return tuple(out)


def coords(v: SemiVector, basis: SemiBasis) -> Coordinates:
    """Unique nonnegative coordinates of v in `basis`.

    The decision runs in the sealed signed oracle (an exact Bland's-rule
    simplex); the returned family is re-verified in nonnegative
    arithmetic. Raises NotRepresentable when no nonnegative solution
    exists and NonUnique (with two witnesses attached) when the family is
    not unique.
    """
    if len(basis) == 0:
        raise NotRepresentable("empty basis represents only nothing")
    if v.dim != basis.ambient_dim:
        raise DimensionMismatch("vector and basis have different ambient dimensions")
    rows = [
        [basis[j][r]._q for j in range(len(basis))]
        for r in range(v.dim)
    ]
    rhs = [v[r]._q for r in range(v.dim)]
    kind, payload = _signed.nonneg_solution_kind(rows, rhs)
    if kind == "infeasible":
        raise NotRepresentable("no nonnegative coordinate family exists")
    if kind == "multiple":
        witnesses = tuple(tuple(NonnegScalar(q) for q in x) for x in payload)
        w1, w2 = witnesses
        if w1 == w2 or not (_rebuilds(w1, basis, v) and _rebuilds(w2, basis, v)):
            raise AssertionError("internal: NonUnique witnesses failed nonnegative re-verification")
        err = NonUnique("two distinct nonnegative coordinate families exist")
        err.witnesses = witnesses
        raise err
    coeffs = [NonnegScalar(q) for q in payload]
    if not _rebuilds(coeffs, basis, v):
        raise AssertionError("internal: coordinates failed nonnegative re-verification")
    support = tuple((j + 1, c) for j, c in enumerate(coeffs) if not c.is_zero)
    cert = {"unique": True, "reverified": True, "basis_size": len(basis)}
    return Coordinates(support=support, certificate=cert)


# ---------------------------------------------------------------------------
# Axiom audit shared by the test suite and the CLI `axioms` command.

_LAW_NAMES = (
    "add_associative",
    "add_commutative",
    "zero_identity",
    "scalar_distributes_over_vector_sum",
    "scalar_sum_distributes",
    "scalar_mul_associative",
    "one_identity",
    "zero_scalar_annihilates",
)


def _zero_like(x):
    if isinstance(x, SemiVector):
        return SemiVector.zero(x.dim)
    if isinstance(x, SemiMatrix):
        return SemiMatrix.zero(x.nrows, x.ncols)
    return SemiPolynomial.zero()


def check_svs_laws(u, v, w, alpha: NonnegScalar, beta: NonnegScalar):
    """Evaluate the vector-space law set on one triple; returns the names
    of violated laws (empty tuple when all hold). Each subexpression that
    two laws share (u + v, alpha v, beta v) is evaluated once."""
    zero = _zero_like(u)
    bad = []
    uv = u + v
    va, vb = v.scale(alpha), v.scale(beta)
    if uv + w != u + (v + w):
        bad.append("add_associative")
    if uv != v + u:
        bad.append("add_commutative")
    if v + zero != v:
        bad.append("zero_identity")
    if uv.scale(alpha) != u.scale(alpha) + va:
        bad.append("scalar_distributes_over_vector_sum")
    if v.scale(alpha + beta) != va + vb:
        bad.append("scalar_sum_distributes")
    if v.scale(alpha * beta) != vb.scale(alpha):
        bad.append("scalar_mul_associative")
    if v.scale(ONE) != v:
        bad.append("one_identity")
    if not v.scale(ZERO) == zero:
        bad.append("zero_scalar_annihilates")
    return tuple(bad)


def check_cancellation(u, v, w):
    """Additive cancellation as a biconditional: u+v = u+w iff v = w."""
    return (u + v == u + w) == (v == w)


def axiom_audit(space: str = "rn", dim: int = 3, samples: int = 1000, seed: int = 0) -> dict:
    """Run the vector-space law set plus cancellation on seeded random
    triples drawn from one of the bundled carriers.

    space: "rn" (vectors of length dim), "matrices" (dim x dim+1), or
    "polynomials" (degree <= dim).
    """
    rng = random.Random(seed)

    if space == "rn":
        def sample():
            return SemiVector._from_form(_random_form(rng, dim))
    elif space == "matrices":
        def sample():
            return SemiMatrix._from_forms(
                tuple(_random_form(rng, dim + 1) for _ in range(dim))
            )
    elif space == "polynomials":
        def sample():
            return SemiPolynomial._from_form(_random_form(rng, dim + 1))
    else:
        raise InvalidValue(f"unknown space {space!r}")

    law_failures = {name: 0 for name in _LAW_NAMES}
    cancellation_failures = 0
    witnesses = []
    for _ in range(samples):
        u, v, w = sample(), sample(), sample()
        alpha, beta = random_scalar(rng), random_scalar(rng)
        bad = check_svs_laws(u, v, w, alpha, beta)
        for name in bad:
            law_failures[name] += 1
            if len(witnesses) < 5:
                witnesses.append({"law": name, "u": u, "v": v, "w": w})
        if not check_cancellation(u, v, w):
            cancellation_failures += 1
            if len(witnesses) < 5:
                witnesses.append({"law": "cancellation", "u": u, "v": v, "w": w})

    total = sum(law_failures.values()) + cancellation_failures
    return {
        "space": space,
        "dim": dim,
        "samples": samples,
        "seed": seed,
        "laws": {name: {"failures": count} for name, count in law_failures.items()},
        "cancellation_failures": cancellation_failures,
        "all_hold": total == 0,
        "witnesses": witnesses,
    }
