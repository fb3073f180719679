"""Tuple references for the derived function spaces.

These are the functionals, maps, pullbacks and audits of ``derived`` as
they were before they moved to the scaled form: a functional takes a
tuple of Fractions and re-scales it in every atom, ``LinearMapQ.apply``
returns a Fraction tuple, and every pullback stage hands that tuple to
the next. The scaled-form code must give the same values and the same
reports. The axiom validators did not change; the audits here call the
library's validators on these tuple-based objects.

``semimetric_violations`` is the check of a finite semi-metric table as it
was before it moved to integers over one denominator: every comparison
and every triangle sum is a ``NonnegScalar`` operation.
"""

import random
from itertools import islice
from operator import mul

from semikit._backend import RAT, scaled_dot, scaled_ints
from semikit.derived import (
    FiniteSemiMetric,
    _q,
    validate_inner,
    validate_seminorm,
    validate_sublinear,
)
from semikit.errors import CarrierMismatch, DimensionMismatch, NonComposableChain
from semikit.scalar import NonnegScalar


def _scaled_rows(rows):
    flat, den = scaled_ints([q for row in rows for q in row])
    it = iter(flat)
    return [list(islice(it, len(row))) for row in rows], den


def semimetric_violations(rows):
    n = len(rows)
    out = []
    for i in range(n):
        if not rows[i][i].is_zero:
            out.append({"axiom": "zero_diagonal", "i": i})
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                out.append({"axiom": "symmetry", "i": i, "j": j})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][k] > rows[i][j] + rows[j][k]:
                    out.append(
                        {
                            "axiom": "triangle",
                            "triple": (i, j, k),
                            "lhs": rows[i][k],
                            "rhs": rows[i][j] + rows[j][k],
                        }
                    )
    return out


def random_signed_vector(rng, dim, max_num=40, max_den=8):
    return tuple(
        RAT(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        for _ in range(dim)
    )


class Functional:
    __slots__ = ("dim", "_fn", "label")

    def __init__(self, dim, fn, label):
        self.dim = dim
        self._fn = fn
        self.label = label

    def __call__(self, v):
        return self._fn(v)

    def __add__(self, other):
        if self.dim != other.dim:
            raise CarrierMismatch("functionals on different spaces")
        f, g = self._fn, other._fn
        return Functional(self.dim, lambda v: f(v) + g(v), f"({self.label}+{other.label})")

    def scale(self, lam):
        lam_q = NonnegScalar(lam)._q
        f = self._fn
        return Functional(self.dim, lambda v: lam_q * f(v), f"({lam_q}*{self.label})")


def weighted_l1(weights):
    w, w_den = scaled_ints([NonnegScalar(x)._q for x in weights])

    def f(v):
        x, x_den = scaled_ints(v)
        return RAT(sum(map(mul, w, map(abs, x))), w_den * x_den)

    return Functional(len(w), f, "w_l1")


def weighted_max_abs(weights):
    w, w_den = scaled_ints([NonnegScalar(x)._q for x in weights])

    def f(v):
        x, x_den = scaled_ints(v)
        return RAT(max(map(mul, w, map(abs, x))), w_den * x_den)

    return Functional(len(w), f, "w_maxabs")


def abs_linear(coeffs):
    c = scaled_ints([_q(x) for x in coeffs])
    return Functional(len(c[0]), lambda v: abs(scaled_dot(c, scaled_ints(v))), "abs_lin")


def max_linear(rows):
    mat, den = _scaled_rows([[_q(x) for x in row] for row in rows])

    def f(v):
        x, x_den = scaled_ints(v)
        return RAT(max(sum(map(mul, row, x)) for row in mat), den * x_den)

    return Functional(len(mat[0]), f, "max_lin")


class BilinearForm:
    __slots__ = ("dim", "_fn", "label")

    def __init__(self, dim, fn, label):
        self.dim = dim
        self._fn = fn
        self.label = label

    def __call__(self, u, v):
        return self._fn(u, v)

    def __add__(self, other):
        if self.dim != other.dim:
            raise CarrierMismatch("forms on different spaces")
        f, g = self._fn, other._fn
        return BilinearForm(self.dim, lambda u, v: f(u, v) + g(u, v), "sum")

    def scale(self, lam):
        lam_q = NonnegScalar(lam)._q
        f = self._fn
        return BilinearForm(self.dim, lambda u, v: lam_q * f(u, v), "scaled")


def gram_form(rows):
    mat, den = _scaled_rows([[_q(x) for x in row] for row in rows])

    def apply(v):
        x, x_den = scaled_ints(v)
        return [sum(map(mul, row, x)) for row in mat], den * x_den

    return BilinearForm(len(mat[0]), lambda u, v: scaled_dot(apply(u), apply(v)), "gram")


class LinearMapQ:
    __slots__ = ("rows", "_scaled")

    def __init__(self, rows):
        self.rows = tuple(tuple(_q(x) for x in row) for row in rows)
        self._scaled = _scaled_rows(self.rows)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def out_dim(self):
        return len(self.rows)

    @property
    def in_dim(self):
        return len(self.rows[0])

    def apply(self, v):
        if len(v) != self.in_dim:
            raise DimensionMismatch("vector does not match map domain")
        mat, den = self._scaled
        x, x_den = scaled_ints(v)
        den *= x_den
        return tuple(RAT(sum(map(mul, row, x)), den) for row in mat)

    def compose(self, inner):
        if inner.out_dim != self.in_dim:
            raise NonComposableChain("maps do not chain")
        mat, den = self._scaled
        inner_mat, inner_den = inner._scaled
        den *= inner_den
        cols = list(zip(*inner_mat))
        return LinearMapQ(
            [[RAT(sum(map(mul, row, col)), den) for col in cols] for row in mat]
        )


def pull(n, t):
    return Functional(t.in_dim, lambda v: n(t.apply(v)), "pb")


_VALIDATORS = {"seminorm": validate_seminorm, "sublinear": validate_sublinear}


def space_closure_audit(family, a, b, lam, samples=48, seed=0):
    lam = NonnegScalar(lam)
    if family == "semimetric":
        if not isinstance(a, FiniteSemiMetric) or not isinstance(b, FiniteSemiMetric):
            raise CarrierMismatch("semimetric family expects FiniteSemiMetric objects")
        results = {}
        for label, builder in (("sum", lambda: a + b), ("scaled", lambda: a.scale(lam))):
            try:
                builder()
                results[label] = {"ok": True, "failures": []}
            except ValueError as exc:
                results[label] = {"ok": False, "failures": [str(exc)]}
        return {
            "family": family,
            "lambda": lam,
            "exhaustive": True,
            "sum": results["sum"],
            "scaled": results["scaled"],
            "ok": results["sum"]["ok"] and results["scaled"]["ok"],
        }
    if family == "semiinner":
        if not isinstance(a, BilinearForm) or not isinstance(b, BilinearForm):
            raise CarrierMismatch("semiinner family expects BilinearForm objects")
        s = validate_inner(a + b, samples, seed)
        c = validate_inner(a.scale(lam), samples, seed + 1)
        return {
            "family": family, "lambda": lam, "exhaustive": False,
            "sum": s, "scaled": c, "ok": s["ok"] and c["ok"],
        }
    if family in _VALIDATORS:
        if not isinstance(a, Functional) or not isinstance(b, Functional):
            raise CarrierMismatch(f"{family} family expects Functional objects")
        if a.dim != b.dim:
            raise CarrierMismatch("functionals on different spaces")
        validator = _VALIDATORS[family]
        s = validator(a + b, samples, seed)
        c = validator(a.scale(lam), samples, seed + 1)
        return {
            "family": family, "lambda": lam, "exhaustive": False,
            "sum": s, "scaled": c, "ok": s["ok"] and c["ok"],
        }
    raise ValueError(f"unknown family {family!r}")


def pullback_seminorm(n, t, samples=48, seed=0, injective_certificate=False):
    if n.dim != t.out_dim:
        raise DimensionMismatch("functional does not match map codomain")
    pulled = Functional(t.in_dim, lambda v: n(t.apply(v)), f"{n.label}∘T")
    report = validate_seminorm(pulled, samples, seed)
    if injective_certificate:
        rng = random.Random(seed + 1)
        definite_failures = []
        for _ in range(samples):
            v = random_signed_vector(rng, pulled.dim)
            if any(x != 0 for x in v) and pulled(v) == 0:
                definite_failures.append({"axiom": "definiteness", "v": v})
        report["definiteness_ok"] = not definite_failures
        report["failures"].extend(definite_failures)
        report["ok"] = report["ok"] and not definite_failures
    return pulled, report


def pullback_closure_audit(t, norms, lam, samples=48, seed=0):
    if len(norms) < 2:
        raise DimensionMismatch("need at least two functionals")
    n1, n2 = norms[0], norms[1]
    if n1.dim != t.out_dim or n2.dim != t.out_dim:
        raise DimensionMismatch("functionals do not match map codomain")
    lam = NonnegScalar(lam)
    rng = random.Random(seed)
    pb = lambda n: Functional(t.in_dim, lambda v: n(t.apply(v)), "pb")
    lhs_sum = pb(n1) + pb(n2)
    rhs_sum = pb(n1 + n2)
    lhs_scale = pb(n1).scale(lam)
    rhs_scale = pb(n1.scale(lam))
    failures = []
    for _ in range(samples):
        v = random_signed_vector(rng, t.in_dim)
        if lhs_sum(v) != rhs_sum(v):
            failures.append({"law": "sum_commutes_with_pullback", "v": v})
        if lhs_scale(v) != rhs_scale(v):
            failures.append({"law": "scale_commutes_with_pullback", "v": v})
    return {"samples": samples, "ok": not failures, "failures": failures}


def category_laws_audit(t1, t2, t3, norms, samples=100, seed=0):
    if t1.in_dim != t2.out_dim or t2.in_dim != t3.out_dim:
        raise NonComposableChain(
            f"chain dims do not match: {t1.in_dim} vs {t2.out_dim}, {t2.in_dim} vs {t3.out_dim}"
        )
    if any(n.dim != t1.out_dim for n in norms):
        raise DimensionMismatch("functionals must live over the chain top")
    rng = random.Random(seed)
    id_u = LinearMapQ.identity(t1.out_dim)
    id_v = LinearMapQ.identity(t1.in_dim)
    lam = NonnegScalar(rng.randint(0, 9), rng.randint(1, 5))
    failures = []
    checks = {"identity": 0, "associativity": 0, "semilinearity": 0, "composite": 0}
    composed_all = t1.compose(t2).compose(t3)
    left_group = t1.compose(t2)
    right_group = t2.compose(t3)

    for n in norms:
        n_sum = norms[0] + n
        for _ in range(samples):
            u_probe = random_signed_vector(rng, t1.out_dim)
            v_probe = random_signed_vector(rng, t1.in_dim)
            x_probe = random_signed_vector(rng, t3.in_dim)

            checks["identity"] += 1
            if pull(n, id_u)(u_probe) != n(u_probe):
                failures.append({"law": "identity_on_top", "v": u_probe})
            if pull(pull(n, t1), id_v)(v_probe) != pull(n, t1)(v_probe):
                failures.append({"law": "identity_after_pullback", "v": v_probe})

            checks["associativity"] += 1
            lhs = pull(pull(n, left_group), t3)(x_probe)
            rhs = pull(pull(n, t1), right_group)(x_probe)
            if lhs != rhs:
                failures.append({"law": "associativity", "v": x_probe})

            checks["semilinearity"] += 1
            if pull(n_sum, t1)(v_probe) != pull(norms[0], t1)(v_probe) + pull(n, t1)(v_probe):
                failures.append({"law": "functor_additive", "v": v_probe})
            if pull(n.scale(lam), t1)(v_probe) != lam._q * pull(n, t1)(v_probe):
                failures.append({"law": "functor_homogeneous", "v": v_probe})

            checks["composite"] += 1
            step = pull(pull(pull(n, t1), t2), t3)(x_probe)
            collapsed = pull(n, composed_all)(x_probe)
            if step != collapsed:
                failures.append({"law": "composite_formula", "v": x_probe})

    return {
        "samples_per_norm": samples,
        "norms": len(norms),
        "lambda": lam,
        "checks": checks,
        "ok": not failures,
        "failures": failures,
    }
