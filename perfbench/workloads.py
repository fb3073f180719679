"""Seeded inputs, operations and independent answer checks.

A workload is a sequence of rounds. Round r draws its inputs from
``random.Random(f"{workload}:{seed}:{r}")``, so the same seed always gives
the same inputs and no input repeats within a run. Each round is a list of
:class:`Op`: one public semikit call on one generated input, plus a check
that decides from the benchmark's own ``Fraction`` arithmetic (or numpy,
for the float paths) whether the answer is right. A check returns a short
canonical answer string for the answer digest, or raises
:class:`WrongAnswer`.

The oracle workload also has a fixed *wide tier* (maps of width 9 to 12,
nullspace dimension k = 6..8) that runs once per run under a per-operation
CPU-time deadline; see ``child.py``.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction

import numpy as np

from semikit import (
    FiniteSemiMetric,
    LinearMapQ,
    NonnegScalar,
    NormKind,
    SemiBasis,
    SemiLinearMap,
    SemiMatrix,
    SemiVector,
    axiom_audit,
    category_laws_audit,
    coords,
    dot,
    image_member,
    invert,
    left_regular_embedding_audit,
    metric,
    norm,
    operator_norm,
    perron_power_iteration,
    space_closure_audit,
)
from semikit.derived import abs_linear, gram_form, max_linear, weighted_l1, weighted_max_abs
from semikit.errors import NonUnique, NotInvertible, NotRepresentable

class WrongAnswer(Exception):
    """An answer that disagrees with the benchmark's own oracle."""


class Op:
    """One public call on one generated input.

    ``cls`` names the operation class (it keys per-class statistics),
    ``call`` takes no arguments, ``check(value, exc)`` returns the canonical
    answer or raises WrongAnswer, and ``token`` is the canonical input.
    """

    __slots__ = ("cls", "call", "check", "token")

    def __init__(self, cls, call, check, token):
        self.cls = cls
        self.call = call
        self.check = check
        self.token = token


def F(x) -> Fraction:
    return Fraction(x.numerator, x.denominator)


def lit(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def lits(xs) -> str:
    return ",".join(lit(x) for x in xs)


def mat_token(rows) -> str:
    return ";".join(lits(r) for r in rows)


def expect(cond, msg):
    if not cond:
        raise WrongAnswer(msg)


def no_exception(exc):
    if exc is not None:
        raise WrongAnswer(f"unexpected {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Input draws.

def small(rng, allow_zero=True):
    """Literal-sized scalar: numerator <= 60, denominator <= 12."""
    return NonnegScalar(rng.randint(0 if allow_zero else 1, 60), rng.randint(1, 12))


def wide(rng):
    """About 64-bit numerator and denominator."""
    return NonnegScalar(rng.getrandbits(64) | 1, rng.getrandbits(64) | 1)


def signed(rng, max_num=40, max_den=8):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def fmatvec(rows, vec):
    return [sum((F(a) * F(b) for a, b in zip(row, vec)), Fraction(0)) for row in rows]


def rank(rows) -> int:
    m = [[F(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def full_rank(rng, rows, n, draw=small):
    while True:
        t = [[draw(rng) for _ in range(n)] for _ in range(rows)]
        if rank(t) == min(rows, n):
            return t


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def member_system(rng, rows, n, positive_x=False):
    """(T, x, w) with T of full row rank and w = T x, x >= 0."""
    t = full_rank(rng, rows, n)
    x = [small(rng, allow_zero=not positive_x) for _ in range(n)]
    w = [NonnegScalar(v) for v in fmatvec(t, x)]
    return t, x, w


def farkas_system(rng, rows, n):
    """(T, w, y) with T >= 0 of full row rank, y^T T >= 0 and y^T w < 0,
    so w is outside the image cone of T."""
    p = rng.randrange(rows)
    y = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rows)]
    y[p] = -y[p]
    while True:
        cols = []
        for _ in range(n):
            while True:
                col = [small(rng) for _ in range(rows)]
                if sum(yi * F(c) for yi, c in zip(y, col)) >= 0:
                    break
            cols.append(col)
        t = transpose(cols)
        if rank(t) == rows:
            break
    w = [small(rng) for _ in range(rows)]
    rest = sum(y[i] * F(w[i]) for i in range(rows) if i != p)
    w[p] = NonnegScalar(rest / -y[p] + F(small(rng, allow_zero=False)))
    if sum(yi * F(wi) for yi, wi in zip(y, w)) >= 0 or any(
        sum(y[i] * F(t[i][j]) for i in range(rows)) < 0 for j in range(n)
    ):
        raise RuntimeError("Farkas certificate does not hold")
    return t, w, y


# ---------------------------------------------------------------------------
# kernels: bulk exact arithmetic that never calls the oracle.

LAW_SAMPLES = 30
_KINDS = (NormKind.L1, NormKind.LINF, NormKind.EUCLIDEAN)


def _check_hold(value, exc):
    no_exception(exc)
    expect(value["all_hold"] is True, "law audit reported a failure")
    return "hold"


def _check_ok(value, exc):
    no_exception(exc)
    expect(value["ok"] is True, "audit reported a failure")
    return "ok"


def _metric_op(x, y, kind):
    fx, fy = [F(a) for a in x], [F(b) for b in y]
    diffs = [abs(a - b) for a, b in zip(fx, fy)]

    def check(value, exc):
        no_exception(exc)
        if kind is NormKind.L1:
            expect(F(value) == sum(diffs), "l1 metric")
            return lit(value)
        if kind is NormKind.LINF:
            expect(F(value) == max(diffs), "linf metric")
            return lit(value)
        expect(F(value.radicand) == sum(d * d for d in diffs), "l2 metric radicand")
        return lit(value.radicand)

    return Op(f"metric.{kind.value}", functools.partial(metric, SemiVector(x), SemiVector(y), kind),
              check, f"metric:{kind.value}:{lits(x)}|{lits(y)}")


def _norm_op(v, kind):
    fv = [F(a) for a in v]

    def check(value, exc):
        no_exception(exc)
        if kind is NormKind.L1:
            expect(F(value) == sum(fv), "l1 norm")
            return lit(value)
        if kind is NormKind.LINF:
            expect(F(value) == max(fv), "linf norm")
            return lit(value)
        expect(F(value.radicand) == sum(a * a for a in fv), "l2 norm radicand")
        return lit(value.radicand)

    return Op(f"norm.{kind.value}", functools.partial(norm, SemiVector(v), kind), check,
              f"norm:{kind.value}:{lits(v)}")


def _dot_op(cls, u, v):
    want = sum((F(a) * F(b) for a, b in zip(u, v)), Fraction(0))

    def check(value, exc):
        no_exception(exc)
        expect(F(value) == want, "dot product")
        return lit(value)

    return Op(cls, functools.partial(dot, SemiVector(u), SemiVector(v)), check,
              f"dot:{lits(u)}|{lits(v)}")


def _apply_op(cls, rows, v):
    want = fmatvec(rows, v)

    def check(value, exc):
        no_exception(exc)
        expect([F(a) for a in value] == want, "matrix-vector product")
        return lits(value)

    return Op(cls, functools.partial(SemiMatrix(rows).apply, SemiVector(v)), check,
              f"apply:{mat_token(rows)}|{lits(v)}")


def _matmul_op(cls, a, b):
    cols = transpose(b)
    want = [[sum((F(x) * F(y) for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]
    left, right = SemiMatrix(a), SemiMatrix(b)

    def check(value, exc):
        no_exception(exc)
        got = [[F(value.entry(i, j)) for j in range(value.ncols)] for i in range(value.nrows)]
        expect(got == want, "matrix product")
        return mat_token(value.rows())

    return Op(cls, functools.partial(left.__matmul__, right), check,
              f"matmul:{mat_token(a)}|{mat_token(b)}")


def _opnorm_op(rows, kind):
    fm = [[F(e) for e in row] for row in rows]

    def check(value, exc):
        no_exception(exc)
        if kind is NormKind.L1:
            want = max(sum(col) for col in zip(*fm))
            expect(F(value["value"]) == want, "l1 operator norm")
            return lit(value["value"])
        if kind is NormKind.LINF:
            want = max(sum(row) for row in fm)
            expect(F(value["value"]) == want, "linf operator norm")
            return lit(value["value"])
        sigma = float(np.linalg.svd(np.array(fm, dtype=float), compute_uv=False)[0])
        slack = 1e-9 * max(sigma, 1.0)
        expect(value["lower"] - slack <= sigma <= value["upper"] + slack, "l2 bracket misses sigma_max")
        return repr(value["value"])

    t = SemiLinearMap(SemiMatrix(rows))
    return Op(f"opnorm.{kind.value}", functools.partial(operator_norm, t, kind), check,
              f"opnorm:{kind.value}:{mat_token(rows)}")


def _perron_op(rows):
    tol = 1e-12
    a = np.array([[float(e) for e in row] for row in rows])
    want = float(np.max(np.linalg.eigvals(a).real))

    def check(value, exc):
        no_exception(exc)
        expect(value.certificate["residual"] <= tol, "perron residual above tol")
        expect(abs(float(value.value) - want) <= 1e-9 * want, "perron value vs numpy")
        return f"{lit(value.value)}#{value.certificate['iterations']}"

    return Op(f"perron.n{len(rows)}", functools.partial(perron_power_iteration, SemiMatrix(rows), tol=tol),
              check, f"perron:{mat_token(rows)}")


def _semimetric(rng, size):
    """Min-plus closure of a random symmetric table, in Fractions."""
    d = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d[i][j] = d[j][i] = Fraction(rng.randint(0, 20), rng.randint(1, 4))
    for k in range(size):
        for i in range(size):
            for j in range(size):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return [[NonnegScalar(x) for x in row] for row in d]


def _seminorm(rng, dim):
    """A sum of 1-3 atoms; returns (Functional, token)."""
    out, parts = None, []
    for _ in range(rng.randint(1, 3)):
        pick = rng.randrange(3)
        if pick == 2:
            coeffs = [signed(rng) for _ in range(dim)]
            atom, name = abs_linear(coeffs), "abs"
        else:
            weights = [NonnegScalar(rng.randint(0, 40), rng.randint(1, 8)) for _ in range(dim)]
            atom = (weighted_l1 if pick == 0 else weighted_max_abs)(weights)
            name, coeffs = ("wl1" if pick == 0 else "wmax"), weights
        parts.append(f"{name}({lits(coeffs)})")
        out = atom if out is None else out + atom
    return out, "+".join(parts)


def _signed_rows(rng, n_rows, dim):
    return [[signed(rng) for _ in range(dim)] for _ in range(n_rows)]


def _closure_op(rng, family, r):
    dim = rng.randint(3, 4)
    lam = small(rng)
    if family == "semimetric":
        ta, tb = _semimetric(rng, dim), _semimetric(rng, dim)
        a, b = FiniteSemiMetric(ta), FiniteSemiMetric(tb)
        token = f"{mat_token(ta)}|{mat_token(tb)}"
    elif family == "seminorm":
        (a, ta), (b, tb) = _seminorm(rng, dim), _seminorm(rng, dim)
        token = f"{ta}|{tb}"
    elif family == "semiinner":
        ra, rb = (_signed_rows(rng, rng.randint(1, dim + 1), dim) for _ in range(2))
        a, b = gram_form(ra), gram_form(rb)
        token = f"{mat_token(ra)}|{mat_token(rb)}"
    else:
        ra, rb = (_signed_rows(rng, rng.randint(1, 4), dim) for _ in range(2))
        a, b = max_linear(ra), max_linear(rb)
        token = f"{mat_token(ra)}|{mat_token(rb)}"
    call = functools.partial(space_closure_audit, family, a, b, lam, samples=6, seed=r)
    return Op(f"closure.{family}", call, _check_ok, f"closure:{family}:{lit(lam)}:{token}")


def _category_op(rng, r):
    dims = [rng.randint(1, 4) for _ in range(4)]
    maps = [_signed_rows(rng, dims[i], dims[i + 1]) for i in range(3)]
    norms = [_seminorm(rng, dims[0]) for _ in range(2)]
    call = functools.partial(
        category_laws_audit, *(LinearMapQ(m) for m in maps), [n for n, _ in norms], samples=8, seed=r
    )
    token = "category:" + "|".join(mat_token(m) for m in maps) + "|" + "|".join(t for _, t in norms)
    return Op("category", call, _check_ok, token)


def _embedding_op(rng, order):
    u = [[small(rng) for _ in range(order)] for _ in range(order)]
    v = [[small(rng) for _ in range(order)] for _ in range(order)]
    lam = small(rng)
    call = functools.partial(left_regular_embedding_audit, SemiMatrix(u), SemiMatrix(v), lam)
    return Op(f"embedding.o{order}", call, _check_ok, f"embed:{mat_token(u)}|{mat_token(v)}|{lit(lam)}")


def _laws_op(space, dim, seed):
    call = functools.partial(axiom_audit, space=space, dim=dim, samples=LAW_SAMPLES, seed=seed)
    return Op(f"laws.{space}", call, _check_hold, f"laws:{space}:{dim}:{seed}")


# Law-audit carriers of acceptance criterion 1, one per round in turn.
LAW_CARRIERS = [("rn", n) for n in range(1, 9)] + [("matrices", 2), ("polynomials", 4)]
CLOSURE_FAMILIES = ("semimetric", "seminorm", "semiinner", "sublinear")
# Exact-kernel operations per round: (class, count, dimension, draw).
KERNEL_CALLS = (
    ("apply", 8, 2, small), ("apply", 12, 8, small), ("apply", 8, 2, wide), ("apply", 6, 8, wide),
    ("dot", 8, 2, small), ("dot", 8, 8, small), ("dot", 8, 2, wide), ("dot", 8, 8, wide),
    ("matmul", 1, 2, small), ("matmul", 1, 8, small), ("matmul", 1, 2, wide), ("matmul", 1, 8, wide),
)
METRIC_CALLS = 48
NORM_CALLS = 24


def _square(rng, n, draw):
    return [[draw(rng) for _ in range(n)] for _ in range(n)]


def kernels_round(rng, r):
    """About 150 operations: one law audit, a closure audit of each family
    (as criterion 8 does), one category audit, two Perron runs, one
    embedding audit, three operator norms, the metric grid and norms, and
    apply / @ / dot at n <= 2 and n = 8 with literal-sized and 64-bit
    operands."""
    space, dim = LAW_CARRIERS[r % len(LAW_CARRIERS)]
    ops = [
        _laws_op(space, dim, rng.getrandbits(32)),
        *(_closure_op(rng, family, r) for family in CLOSURE_FAMILIES),
        _category_op(rng, r),
        _embedding_op(rng, 2 + r % 2),
    ]
    for i in range(2):
        n = 2 + (2 * r + i) % 7
        ops.append(_perron_op([[NonnegScalar(rng.randint(1, 99), rng.randint(1, 9)) for _ in range(n)]
                               for _ in range(n)]))
    for kind in _KINDS:
        # L2 draws positive entries: with a reducible A^T A the power
        # iteration divides by zero (see KNOWN_DEFECTS).
        low = 1 if kind is NormKind.EUCLIDEAN else 0
        cols = rng.randint(1, 5)
        rows = [[NonnegScalar(rng.randint(low, 9), rng.randint(1, 12)) for _ in range(cols)]
                for _ in range(rng.randint(1, 5))]
        ops.append(_opnorm_op(rows, kind))
    for i in range(METRIC_CALLS):
        if i % 2:
            # The criterion-5 grid: coordinates 0..4 in dimension 3.
            x, y = ([NonnegScalar(rng.randint(0, 4)) for _ in range(3)] for _ in range(2))
        else:
            n = rng.randint(1, 6)
            x, y = ([small(rng) for _ in range(n)] for _ in range(2))
        ops.append(_metric_op(x, y, _KINDS[i % 3]))
    for i in range(NORM_CALLS):
        ops.append(_norm_op([small(rng) for _ in range(rng.randint(1, 8))], _KINDS[i % 3]))
    for name, count, n, draw in KERNEL_CALLS:
        cls = f"{name}.{draw.__name__}.n{n}"
        for _ in range(count):
            if name == "apply":
                ops.append(_apply_op(cls, _square(rng, n, draw), [draw(rng) for _ in range(n)]))
            elif name == "dot":
                ops.append(_dot_op(cls, [draw(rng) for _ in range(n)], [draw(rng) for _ in range(n)]))
            else:
                ops.append(_matmul_op(cls, _square(rng, n, draw), _square(rng, n, draw)))
    rng.shuffle(ops)
    return ops


def _l2_reducible():
    rows = [[NonnegScalar(1, 3), NonnegScalar(0), NonnegScalar(8, 5)],
            [NonnegScalar(0), NonnegScalar(1), NonnegScalar(0)]]
    return operator_norm(SemiLinearMap(SemiMatrix(rows)), NormKind.EUCLIDEAN)


# Defects the workloads keep out of their random inputs, probed on every
# kernels run so that each one shows until it is fixed: name -> call.
KNOWN_DEFECTS = {
    "operator_norm.l2.reducible_AtA": _l2_reducible,
}


def probe_known_defects():
    """{name: "ok" or the exception it raised}."""
    out = {}
    for name, call in KNOWN_DEFECTS.items():
        try:
            call()
            out[name] = "ok"
        except Exception as exc:  # recorded, not raised: the probe reports
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


# ---------------------------------------------------------------------------
# oracle: exact decisions whose verdicts are known by construction.

def _image_member_op(cls, t, w, x_known):
    tm = SemiLinearMap(SemiMatrix(t))

    def check(value, exc):
        no_exception(exc)
        if x_known is None:
            expect(value.member is False and value.witness is None, "non-member reported as member")
            return "no"
        expect(value.member is True, "member reported as non-member")
        expect(fmatvec(t, value.witness) == [F(a) for a in w], "image witness fails T v = w")
        return lits(value.witness)

    return Op(cls, functools.partial(image_member, tm, SemiVector(w)), check,
              f"image:{mat_token(t)}|{lits(w)}")


def image_member_op(rng, rows, k, member):
    n = rows + k
    cls = f"image_member.k{k}.{'member' if member else 'nonmember'}"
    if member:
        t, x, w = member_system(rng, rows, n)
        return _image_member_op(cls, t, w, x)
    t, w, _ = farkas_system(rng, rows, n)
    return _image_member_op(cls, t, w, None)


def _coords_op(cls, t, v, truth, x_known=None):
    basis = SemiBasis([SemiVector(c) for c in transpose(t)])
    fv = [F(a) for a in v]

    def check(value, exc):
        if truth == "infeasible":
            expect(isinstance(exc, NotRepresentable), f"expected NotRepresentable, got {exc!r}")
            return "infeasible"
        if truth == "multiple":
            expect(isinstance(exc, NonUnique), f"expected NonUnique, got {exc!r}")
            x1, x2 = exc.witnesses
            expect(tuple(x1) != tuple(x2), "NonUnique witnesses coincide")
            expect(fmatvec(t, x1) == fv and fmatvec(t, x2) == fv, "NonUnique witness fails B x = v")
            return f"{lits(x1)}|{lits(x2)}"
        no_exception(exc)
        got = [F(c) for c in value.dense(len(basis))]
        expect(got == [F(c) for c in x_known], "unique coordinates differ from the generator's")
        return lits(value.dense(len(basis)))

    return Op(cls, functools.partial(coords, SemiVector(v), basis), check,
              f"coords:{truth}:{mat_token(t)}|{lits(v)}")


def coords_unique_op(rng, d):
    t, x, v = member_system(rng, d, d)
    return _coords_op("coords.unique.k0", t, v, "unique", x)


def coords_ray_op(rng, d, k):
    """v on the extreme ray c * e_r: unique although the nullspace is k-dim."""
    m = d + k
    r = rng.randrange(d)
    while True:
        cols = [[NonnegScalar(0)] * d for _ in range(m)]
        cols[0][r] = small(rng, allow_zero=False)
        for j in range(1, m):
            cols[j] = [small(rng) for _ in range(d)]
            off = rng.choice([i for i in range(d) if i != r])
            cols[j][off] = small(rng, allow_zero=False)
        t = transpose(cols)
        if rank(t) == d:
            break
    scale = small(rng, allow_zero=False)
    v = [c * scale for c in cols[0]]
    x = [scale] + [NonnegScalar(0)] * (m - 1)
    return _coords_op(f"coords.unique.k{k}", t, v, "unique", x)


def coords_multiple_op(rng, d, k):
    t, _, v = member_system(rng, d, d + k, positive_x=True)
    return _coords_op(f"coords.multiple.k{k}", t, v, "multiple")


def coords_infeasible_op(rng, d, k):
    t, v, _ = farkas_system(rng, d, d + k)
    return _coords_op(f"coords.infeasible.k{k}", t, v, "infeasible")


def _invert_op(cls, u, inverse):
    fu = [[F(e) for e in row] for row in u]
    n = len(u)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def check(value, exc):
        if inverse is None:
            expect(isinstance(exc, NotInvertible), f"expected NotInvertible, got {exc!r}")
            return "not_invertible"
        no_exception(exc)
        got = [[F(value.entry(i, j)) for j in range(n)] for i in range(n)]
        prod = lambda a, b: [[sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        expect(prod(fu, got) == eye and prod(got, fu) == eye, "inverse fails U X = X U = I")
        expect(got == inverse, "inverse differs from the generator's")
        return mat_token(value.rows())

    return Op(cls, functools.partial(invert, SemiMatrix(u)), check, f"invert:{mat_token(u)}")


def invert_monomial_op(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [small(rng, allow_zero=False) for _ in range(n)]
    u = [[NonnegScalar(0)] * n for _ in range(n)]
    inverse = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        u[i][perm[i]] = diag[i]
        inverse[perm[i]][i] = 1 / F(diag[i])
    return _invert_op("invert.monomial", u, inverse)


def invert_dense_op(rng, n):
    u = full_rank(rng, n, n, draw=lambda g: small(g, allow_zero=False))
    return _invert_op("invert.dense", u, None)


def oracle_round(rng, r):
    """36 operations: image_member on 3 x n maps with k = 0..5 and on 4 x n
    maps with k = 0..4 (4 x 9, k = 5, runs in the wide tier), each as
    member and non-member; coords in every verdict class; invert."""
    ops = []
    for rows, k_max in ((3, 5), (4, 4)):
        for k in range(k_max + 1):
            for member in (True, False):
                ops.append(image_member_op(rng, rows, k, member))
    for d in (3, 4):
        ops.append(coords_unique_op(rng, d))
        ops.append(coords_infeasible_op(rng, d, 1 + r % 3))
    for k in (1, 2, 3):
        ops.append(coords_ray_op(rng, 3, k))
        ops.append(coords_multiple_op(rng, 3, k))
    n = 2 + r % 3
    ops.append(invert_monomial_op(rng, n))
    ops.append(invert_dense_op(rng, n))
    rng.shuffle(ops)
    return ops


# Wide-tier shapes (rows, width, instances), k = width - rows. Their FM
# cost is heavy-tailed, so they run a fixed number of times under the
# deadline instead of in the timed stream. The 3-row and 4 x 9 shapes
# mostly finish; most 4 x 11 and 4 x 12 instances outlast the deadline.
WIDE_SHAPES = ((4, 9, 4), (3, 9, 2), (3, 10, 2), (3, 11, 2), (4, 10, 6), (4, 11, 8), (4, 12, 8))


def oracle_wide(rng, tiny=False):
    ops = []
    for rows, n, count in WIDE_SHAPES:
        for i in range(1 if tiny else count):
            ops.append(image_member_op(rng, rows, n - rows, member=i % 2 == 0))
    return ops


# ---------------------------------------------------------------------------
# cli: repeated rounds of semikit.cli.main on 2x2 and 3-dimensional inputs.

def _num(rng, max_num=9, max_den=4, allow_zero=False):
    return f"{rng.randint(0 if allow_zero else 1, max_num)}/{rng.randint(1, max_den)}"


def cli_inputs(rng, work):
    """Write the seed's input files under ``work``; return the command list
    as (argv, expected exit code or None when the verdict is data-dependent)."""
    def put(name, payload):
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    m = put("m.json", [[_num(rng) for _ in range(2)] for _ in range(2)])
    x = put("x.json", [_num(rng, allow_zero=True) for _ in range(3)])
    y = put("y.json", [_num(rng, allow_zero=True) for _ in range(3)])
    alts = put("alts.json", [sorted(f"0.{rng.randint(0, 9)}" for _ in range(3)) for _ in range(3)])
    weights = put("w.json", [f"0.{rng.randint(1, 9)}" for _ in range(3)])
    perm = ",".join(str(i) for i in rng.sample([1, 2, 3], 3))
    lie = put("lie.json", {"constants": [[[rng.choice(["0", "0", "1", "1/2"]) for _ in range(2)]
                                           for _ in range(2)] for _ in range(2)]})
    a, b = _num(rng), _num(rng)
    while Fraction(b) == Fraction(a):
        b = _num(rng)
    tri = put("tri.json", [[a, "0"], ["0", b]] if rng.random() < 0.5 else [[a, b], ["0", a]])
    hom = put("hom.json", {"kind": "monomial_conjugation", "perm": rng.sample([1, 2], 2),
                           "diag": [_num(rng), _num(rng)], "samples": 10})
    embed = put("embed.json", {"element": [[_num(rng, allow_zero=True) for _ in range(2)] for _ in range(2)],
                               "partner": [[_num(rng, allow_zero=True) for _ in range(2)] for _ in range(2)],
                               "lambda": _num(rng)})
    fn = put("fn.json", {"a": "0", "b": "2", "breakpoints": ["0", "1", "2"],
                         "values": ["0", _num(rng, 4, 2, True), _num(rng, 8, 2, True)]})
    s = str(rng.randint(0, 10**6))
    return [
        # The criterion-12 reproducibility suite, with this run's inputs and seed.
        (["axioms", "--space", "all", "--dim", "3", "--samples", "200", "--seed", s], 0),
        (["audit", "--family", "semimetric", "--seed", s], 0),
        (["audit", "--family", "seminorm", "--seed", s], 0),
        (["audit", "--family", "semiinner", "--seed", s], 0),
        (["audit", "--family", "sublinear", "--seed", s], 0),
        (["audit", "--family", "category", "--seed", s, "--samples", "20"], 0),
        (["eigen", "--matrix", m, "--perron", "--seed", s], 0),
        (["metric", "--kind", "l2", x, y, "--seed", s], 0),
        (["opnorm", "--kind", "l1", m, "--seed", s], 0),
        (["mcdm", "rank", "--alts", alts, "--weights", weights, "--perm", perm, "--seed", s], 0),
        (["algebra", "lie-audit", lie, "--seed", s], None),
        # Further commands on the same inputs.
        (["eigen", "--matrix", tri, "--exact-2x2", "--seed", s], 0),
        (["opnorm", "--kind", "l2", m, "--seed", s], 0),
        (["algebra", "check-hom", hom, "--seed", s], 0),
        (["algebra", "embed", embed, "--seed", s], 0),
        (["audit", "--family", "preserver", "--fn", fn, "--seed", s], None),
        (["metric", "--kind", "l1", x, y, "--seed", s], 0),
    ]


def cli_round(commands, work, reference):
    """One round of the command list. ``reference`` maps a command index to
    the (exit code, report bytes) of the first round and is filled by it."""
    from semikit.cli import main as cli_main

    ops = []
    for i, (argv, expected) in enumerate(commands):
        out = os.path.join(work, f"out{i}.json")

        def check(value, exc, i=i, out=out, expected=expected):
            no_exception(exc)
            expect(value in (0, 1), f"exit code {value}")
            expect(os.path.exists(out), "no report written")
            with open(out, "rb") as fh:
                blob = fh.read()
            os.remove(out)
            if expected is not None:
                expect(value == expected, f"exit code {value}, expected {expected}")
            first = reference.setdefault(i, (value, blob))
            expect(first == (value, blob), "report differs from the first round")
            return f"{value}:{len(blob)}"

        token = " ".join(os.path.basename(a) if a.startswith(work) else a for a in argv)
        ops.append(Op(f"cli.{argv[0]}", functools.partial(cli_main, argv + ["--out", out]), check, token))
    return ops
