"""Function spaces carrying their own semimodule structure: finite
semi-metrics, metric-preserving candidates, semi-norms, semi-inner
products, and sublinear functionals.

Objects here evaluate at signed rational arguments (the underlying
carriers are ordinary vector spaces); what is nonnegative is the scalar
action on the function space itself. Functionals are finitely described
and exactly evaluable, so the closure and category audits are exact
pointwise identities on their samples. Semi-metric and semi-norm drop
the definiteness direction of the classical axioms; semi-inner products
are audited as symmetric bilinear forms with nonnegative diagonal.

A functional evaluates on the scaled form ``(ints, den)`` of its argument
(see ``_backend``), and a bilinear form on the scaled forms of its two
arguments, built once per call: sums, scalings, atoms and pullbacks pass
those forms on, and ``LinearMapQ._image`` maps one form to another, so no
Fraction tuple is built between stages. The sampled validators and
audits draw each probe straight into its form and build a Fraction tuple
only for a failure witness.
"""

from __future__ import annotations

import random
from operator import mul

from ._backend import (
    RAT,
    random_form,
    scaled_add,
    scaled_dot,
    scaled_ints,
    scaled_scale,
    signed_rat,
    unscaled,
)
from .errors import (
    CarrierMismatch,
    DimensionMismatch,
    DomainTooSmall,
    IntervalMismatch,
    InvalidValue,
    NonComposableChain,
)
from .geometry import PiecewiseLinearFn
from .scalar import NonnegScalar, ZERO

__all__ = [
    "Functional",
    "BilinearForm",
    "LinearMapQ",
    "FiniteSemiMetric",
    "CandidatePreserver",
    "BUNDLED_METRICS",
    "space_closure_audit",
    "preserver_falsify",
    "pullback_seminorm",
    "pullback_closure_audit",
    "category_laws_audit",
    "pullback_inner",
    "weighted_l1",
    "weighted_max_abs",
    "abs_linear",
    "max_linear",
    "gram_form",
    "random_semimetric",
    "random_seminorm",
    "random_inner",
    "random_sublinear",
    "random_signed_vector",
]

# Sampled rationals: numerator in [-40, 40] (or [0, 40]), denominator in [1, 8].
_MAX_NUM, _MAX_DEN = 40, 8
# Scalings of a surviving preserver that preserver_falsify re-audits.
_CLOSURE_SCALARS = ("1/2", "3")


def _q(x):
    """Signed rational from ints, literals (optional leading -), scalars."""
    if isinstance(x, NonnegScalar):
        return x._q
    return signed_rat(x)


def _check_len(v, dim):
    if len(v) != dim:
        raise DimensionMismatch(f"argument has length {len(v)}, expected {dim}")


def _random_q(rng, signed=False):
    lo = -_MAX_NUM if signed else 0
    return RAT(rng.randint(lo, _MAX_NUM), rng.randint(1, _MAX_DEN))


def _signed_form(rng: random.Random, dim: int):
    """The scaled form of random_signed_vector(rng, dim), with the same
    random calls and no Fraction per entry."""
    return random_form(rng, dim, -_MAX_NUM, _MAX_NUM, _MAX_DEN)


def random_signed_vector(rng: random.Random, dim: int):
    """dim signed rationals, each drawn as _random_q(rng, signed=True)."""
    return tuple(unscaled(_signed_form(rng, dim)))


def _witness(form):
    """The Fraction tuple of a probe's scaled form, for a failure report."""
    return tuple(unscaled(form))


class LinearMapQ:
    """Plain signed-rational linear map used by the pullback machinery;
    rows[i][j] == _mat[i][j] / _den, one denominator for the matrix."""

    __slots__ = ("rows", "_mat", "_den")

    def __init__(self, rows):
        self.rows = tuple(tuple(_q(x) for x in row) for row in rows)
        n = len(self.rows[0]) if self.rows else 0
        if n == 0 or any(len(row) != n for row in self.rows):
            raise DimensionMismatch("a map needs nonempty rows of one length")
        flat, self._den = scaled_ints([q for row in self.rows for q in row])
        self._mat = [flat[i : i + n] for i in range(0, len(flat), n)]

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def out_dim(self):
        return len(self.rows)

    @property
    def in_dim(self):
        return len(self.rows[0])

    def _image(self, x):
        """M x for the scaled form x (in_dim entries; callers check), as a
        scaled form over _den * x[1]."""
        ints = x[0]
        return [sum(map(mul, row, ints)) for row in self._mat], self._den * x[1]

    def apply(self, v):
        _check_len(v, self.in_dim)
        return tuple(unscaled(self._image(scaled_ints(v))))

    def compose(self, inner: "LinearMapQ") -> "LinearMapQ":
        if inner.out_dim != self.in_dim:
            raise NonComposableChain("maps do not chain")
        den = self._den * inner._den
        cols = list(zip(*inner._mat))
        return LinearMapQ(
            [[RAT(sum(map(mul, row, col)), den) for col in cols] for row in self._mat]
        )


class Functional:
    """Exactly evaluable functional on signed rational coordinate tuples.

    ``fn`` takes the scaled form ``(ints, den)`` of the argument, which
    ``__call__`` builds once. Instances combine pointwise: f + g and
    lam * f (lam >= 0) stay in the same family extensionally; the audits
    re-validate the axioms rather than trusting the syntax.
    """

    __slots__ = ("dim", "_fn", "label")

    def __init__(self, dim, fn, label):
        self.dim = dim
        self._fn = fn
        self.label = label

    def __call__(self, v):
        _check_len(v, self.dim)
        return self._fn(scaled_ints(v))

    def __add__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        if self.dim != other.dim:
            raise CarrierMismatch("functionals on different spaces")
        f, g = self._fn, other._fn
        return Functional(self.dim, lambda x: f(x) + g(x), f"({self.label}+{other.label})")

    def scale(self, lam) -> "Functional":
        lam_q = NonnegScalar(lam)._q
        f = self._fn
        return Functional(self.dim, lambda x: lam_q * f(x), f"({lam_q}*{self.label})")

    def __repr__(self):
        return f"Functional({self.label}, dim={self.dim})"


def _nonempty_scaled(qs):
    """scaled_ints(qs) for the coefficients of a functional, which needs at
    least one."""
    if not qs:
        raise DimensionMismatch("a functional needs at least one coefficient")
    return scaled_ints(qs)


def weighted_l1(weights) -> Functional:
    w, w_den = _nonempty_scaled([NonnegScalar(x)._q for x in weights])
    return Functional(
        len(w), lambda x: RAT(sum(map(mul, w, map(abs, x[0]))), w_den * x[1]), "w_l1"
    )


def weighted_max_abs(weights) -> Functional:
    w, w_den = _nonempty_scaled([NonnegScalar(x)._q for x in weights])
    return Functional(
        len(w), lambda x: RAT(max(map(mul, w, map(abs, x[0]))), w_den * x[1]), "w_maxabs"
    )


def abs_linear(coeffs) -> Functional:
    c = _nonempty_scaled([_q(x) for x in coeffs])
    return Functional(len(c[0]), lambda x: abs(scaled_dot(c, x)), "abs_lin")


def max_linear(rows) -> Functional:
    t = LinearMapQ(rows)
    image = t._image

    def f(x):
        y, den = image(x)
        return RAT(max(y), den)

    return Functional(t.in_dim, f, "max_lin")


class BilinearForm:
    """Exactly evaluable form on pairs of signed rational tuples.

    ``fn`` takes the scaled forms ``(ints, den)`` of both arguments, as a
    Functional's takes one; ``__call__`` builds them once.
    """

    __slots__ = ("dim", "_fn", "label")

    def __init__(self, dim, fn, label):
        self.dim = dim
        self._fn = fn
        self.label = label

    def __call__(self, u, v):
        _check_len(u, self.dim)
        _check_len(v, self.dim)
        return self._fn(scaled_ints(u), scaled_ints(v))

    def __add__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        if self.dim != other.dim:
            raise CarrierMismatch("forms on different spaces")
        f, g = self._fn, other._fn
        return BilinearForm(self.dim, lambda u, v: f(u, v) + g(u, v), "sum")

    def scale(self, lam) -> "BilinearForm":
        lam_q = NonnegScalar(lam)._q
        f = self._fn
        return BilinearForm(self.dim, lambda u, v: lam_q * f(u, v), "scaled")


def gram_form(rows) -> BilinearForm:
    """(u, v) -> (M u) . (M v); positive semidefinite by construction."""
    t = LinearMapQ(rows)
    image = t._image
    return BilinearForm(t.in_dim, lambda x, y: scaled_dot(image(x), image(y)), "gram")


class FiniteSemiMetric:
    """Semi-metric on a finite carrier: symmetric nonnegative table, zero
    diagonal, triangle inequality checked exhaustively at construction.
    Distinct points at distance zero are allowed (no definiteness)."""

    __slots__ = ("table",)

    def __init__(self, table):
        rows = tuple(tuple(NonnegScalar(e) for e in row) for row in table)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise CarrierMismatch("table must be square")
        bad = semimetric_violations(rows)
        if bad:
            raise InvalidValue(f"not a semi-metric: {bad[0]}")
        self.table = rows

    @property
    def size(self):
        return len(self.table)

    def entry(self, i, j) -> NonnegScalar:
        return self.table[i][j]

    @property
    def max_entry(self) -> NonnegScalar:
        return max(e for row in self.table for e in row)

    def __add__(self, other):
        if not isinstance(other, FiniteSemiMetric):
            return NotImplemented
        if self.size != other.size:
            raise CarrierMismatch("different carrier sizes")
        return FiniteSemiMetric(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.table, other.table)
            ]
        )

    def scale(self, lam) -> "FiniteSemiMetric":
        lam = NonnegScalar(lam)
        return FiniteSemiMetric([[lam * e for e in row] for row in self.table])

    def __eq__(self, other):
        if not isinstance(other, FiniteSemiMetric):
            return NotImplemented
        return self.table == other.table

    def __repr__(self):
        return f"FiniteSemiMetric(n={self.size})"


def semimetric_violations(rows):
    """All semi-metric axiom violations of a square scalar table.

    The checks run on the table scaled once to integers over one common
    denominator; a violation reports the table's own scalars."""
    n = len(rows)
    flat, _ = scaled_ints([e._q for row in rows for e in row])
    d = [flat[i * n:(i + 1) * n] for i in range(n)]
    out = []
    for i in range(n):
        if d[i][i]:
            out.append({"axiom": "zero_diagonal", "i": i})
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                out.append({"axiom": "symmetry", "i": i, "j": j})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k]:
                    out.append(
                        {
                            "axiom": "triangle",
                            "triple": (i, j, k),
                            "lhs": rows[i][k],
                            "rhs": rows[i][j] + rows[j][k],
                        }
                    )
    return out


class CandidatePreserver:
    """Piecewise-linear candidate f on [0, M] with f(0) = 0; composing it
    with a semi-metric either survives the exhaustive re-check or yields
    a concrete counterexample triple."""

    __slots__ = ("fn",)

    def __init__(self, fn: PiecewiseLinearFn):
        if not fn.a.is_zero:
            raise IntervalMismatch("preserver domain must start at 0")
        if not fn.evaluate(ZERO).is_zero:
            raise InvalidValue("preserver must satisfy f(0) = 0")
        self.fn = fn

    def __call__(self, t: NonnegScalar) -> NonnegScalar:
        return self.fn.evaluate(t)

    def __add__(self, other):
        if not isinstance(other, CandidatePreserver):
            return NotImplemented
        return CandidatePreserver(self.fn + other.fn)

    def scale(self, lam) -> "CandidatePreserver":
        return CandidatePreserver(self.fn.scale(lam))

    @property
    def domain_end(self) -> NonnegScalar:
        return self.fn.b


def _line_metric():
    two = NonnegScalar(2)
    one = NonnegScalar(1)
    return FiniteSemiMetric(
        [[ZERO, one, two], [one, ZERO, one], [two, one, ZERO]]
    )


def _discrete_metric(n=4):
    one = NonnegScalar(1)
    return FiniteSemiMetric(
        [[ZERO if i == j else one for j in range(n)] for i in range(n)]
    )


def _path_metric():
    h = NonnegScalar(1, 2)
    one = NonnegScalar(1)
    threehalf = NonnegScalar(3, 2)
    return FiniteSemiMetric(
        [
            [ZERO, h, one, threehalf],
            [h, ZERO, h, one],
            [one, h, ZERO, h],
            [threehalf, one, h, ZERO],
        ]
    )


BUNDLED_METRICS = (_line_metric(), _discrete_metric(), _path_metric())


def preserver_falsify(candidate: CandidatePreserver, metrics=None) -> dict:
    """Compose the candidate with each metric and re-check the semi-metric
    axioms exhaustively.

    Verdict is "falsified" with the first counterexample triple, or
    "not_falsified" (which is evidence, not a proof of preservation). For
    surviving candidates the closure of the preserver space is spot-checked:
    the candidate's double and its scalings are re-audited on the same set.
    """
    metrics = BUNDLED_METRICS if metrics is None else tuple(metrics)
    for idx, m in enumerate(metrics):
        if m.max_entry > candidate.domain_end:
            raise DomainTooSmall(
                f"metric {idx} has entries beyond the candidate domain"
            )

    values = {e for m in metrics for row in m.table for e in row}

    def falsify(cand):
        image = {e: cand(e) for e in values}
        for idx, m in enumerate(metrics):
            table = [[image[e] for e in row] for row in m.table]
            bad = semimetric_violations(table)
            if bad:
                return {"metric_index": idx, **bad[0]}
        return None

    witness = falsify(candidate)
    report = {
        "metrics": len(metrics),
        "verdict": "falsified" if witness else "not_falsified",
        "witness": witness,
        "closure": [],
    }
    if witness is None:
        for label, cand in (
            ("sum", candidate + candidate),
            *((f"scale:{s}", candidate.scale(s)) for s in _CLOSURE_SCALARS),
        ):
            w = falsify(cand)
            report["closure"].append(
                {"combination": label, "verdict": "falsified" if w else "not_falsified", "witness": w}
            )
    return report


# ---------------------------------------------------------------------------
# Axiom validators (exact on sampled probes). Each probe is drawn as its
# scaled form, and each value that two axioms share is evaluated once.

def validate_seminorm(f: Functional, samples=48, seed=0) -> dict:
    rng = random.Random(seed)
    fn = f._fn
    failures = []
    for _ in range(samples):
        u = _signed_form(rng, f.dim)
        v = _signed_form(rng, f.dim)
        alpha = _random_q(rng, signed=True)
        fu = fn(u)
        if fu < 0:
            failures.append({"axiom": "nonnegative", "u": _witness(u)})
        if fn(scaled_scale(alpha, u)) != abs(alpha) * fu:
            failures.append({"axiom": "absolute_homogeneity", "u": _witness(u), "alpha": alpha})
        if fn(scaled_add(u, v)) > fu + fn(v):
            failures.append({"axiom": "triangle", "u": _witness(u), "v": _witness(v)})
    return {"ok": not failures, "failures": failures, "samples": samples}


def validate_inner(p: BilinearForm, samples=48, seed=0) -> dict:
    rng = random.Random(seed)
    fn = p._fn
    failures = []
    for _ in range(samples):
        u = _signed_form(rng, p.dim)
        u2 = _signed_form(rng, p.dim)
        v = _signed_form(rng, p.dim)
        alpha = _random_q(rng, signed=True)
        puv = fn(u, v)
        if puv != fn(v, u):
            failures.append({"axiom": "symmetry", "u": _witness(u), "v": _witness(v)})
        if fn(scaled_add(u, u2), v) != puv + fn(u2, v):
            failures.append(
                {"axiom": "additive_first_slot", "u": _witness(u), "u2": _witness(u2), "v": _witness(v)}
            )
        if fn(u, scaled_add(v, u2)) != puv + fn(u, u2):
            failures.append({"axiom": "additive_second_slot", "u": _witness(u), "v": _witness(v)})
        if fn(scaled_scale(alpha, u), v) != alpha * puv:
            failures.append({"axiom": "homogeneous_first_slot", "alpha": alpha})
        if fn(u, scaled_scale(alpha, v)) != alpha * puv:
            failures.append({"axiom": "homogeneous_second_slot", "alpha": alpha})
        if fn(u, u) < 0:
            failures.append({"axiom": "nonnegative_diagonal", "u": _witness(u)})
    return {"ok": not failures, "failures": failures, "samples": samples}


def validate_sublinear(f: Functional, samples=48, seed=0) -> dict:
    rng = random.Random(seed)
    fn = f._fn
    failures = []
    for _ in range(samples):
        u = _signed_form(rng, f.dim)
        v = _signed_form(rng, f.dim)
        alpha = _random_q(rng, signed=False)
        fu = fn(u)
        if fn(scaled_add(u, v)) > fu + fn(v):
            failures.append({"axiom": "subadditive", "u": _witness(u), "v": _witness(v)})
        if fn(scaled_scale(alpha, u)) != alpha * fu:
            failures.append({"axiom": "positively_homogeneous", "u": _witness(u), "alpha": alpha})
    return {"ok": not failures, "failures": failures, "samples": samples}


def _constructed(build) -> dict:
    """Closure result for finite semi-metrics, whose constructor checks
    every triple."""
    try:
        build()
    except ValueError as exc:
        return {"ok": False, "failures": [str(exc)]}
    return {"ok": True, "failures": []}


# family -> (object class, sampled validator; None for the exhaustive check)
_FAMILIES = {
    "semimetric": (FiniteSemiMetric, None),
    "seminorm": (Functional, validate_seminorm),
    "sublinear": (Functional, validate_sublinear),
    "semiinner": (BilinearForm, validate_inner),
}


def space_closure_audit(family: str, a, b, lam, samples=48, seed=0) -> dict:
    """Build a + b and lam * a pointwise and re-validate the family's
    defining axioms (exhaustively for finite semi-metrics, on exact
    sampled probes for functionals)."""
    lam = NonnegScalar(lam)
    if family not in _FAMILIES:
        raise InvalidValue(f"unknown family {family!r}")
    cls, validator = _FAMILIES[family]
    if not isinstance(a, cls) or not isinstance(b, cls):
        raise CarrierMismatch(f"{family} family expects {cls.__name__} objects")
    if validator is None:
        s, c = _constructed(lambda: a + b), _constructed(lambda: a.scale(lam))
    else:
        # a + b refuses objects on different spaces.
        s = validator(a + b, samples, seed)
        c = validator(a.scale(lam), samples, seed + 1)
    return {
        "family": family, "lambda": lam, "exhaustive": validator is None,
        "sum": s, "scaled": c, "ok": s["ok"] and c["ok"],
    }


# ---------------------------------------------------------------------------
# Pullbacks and the category audit.

def _pull(n: Functional, t: LinearMapQ) -> Functional:
    """N o T: T's image of the argument's scaled form goes straight to N."""
    f, image = n._fn, t._image
    return Functional(t.in_dim, lambda x: f(image(x)), f"{n.label}∘T")


def pullback_seminorm(n: Functional, t: LinearMapQ, samples=48, seed=0, injective_certificate=False):
    """N o T plus its axiom audit. With an injectivity certificate for T
    the audit additionally samples definiteness (N(Tv) = 0 only at v = 0)."""
    if n.dim != t.out_dim:
        raise DimensionMismatch("functional does not match map codomain")
    pulled = _pull(n, t)
    report = validate_seminorm(pulled, samples, seed)
    if injective_certificate:
        rng = random.Random(seed + 1)
        fn = pulled._fn
        definite_failures = []
        for _ in range(samples):
            v = _signed_form(rng, pulled.dim)
            if any(v[0]) and fn(v) == 0:
                definite_failures.append({"axiom": "definiteness", "v": _witness(v)})
        report["definiteness_ok"] = not definite_failures
        report["failures"].extend(definite_failures)
        report["ok"] = report["ok"] and not definite_failures
    return pulled, report


def pullback_closure_audit(t: LinearMapQ, norms, lam, samples=48, seed=0) -> dict:
    """Exact pointwise identities (N1 o T) + (N2 o T) = (N1 + N2) o T and
    lam (N o T) = (lam N) o T on sampled probes."""
    if len(norms) < 2:
        raise DimensionMismatch("need at least two functionals")
    n1, n2 = norms[0], norms[1]
    if n1.dim != t.out_dim or n2.dim != t.out_dim:
        raise DimensionMismatch("functionals do not match map codomain")
    lam = NonnegScalar(lam)
    rng = random.Random(seed)
    lhs_sum = _pull(n1, t) + _pull(n2, t)
    rhs_sum = _pull(n1 + n2, t)
    lhs_scale = _pull(n1, t).scale(lam)
    rhs_scale = _pull(n1.scale(lam), t)
    failures = []
    for _ in range(samples):
        v = _signed_form(rng, t.in_dim)
        if lhs_sum._fn(v) != rhs_sum._fn(v):
            failures.append({"law": "sum_commutes_with_pullback", "v": _witness(v)})
        if lhs_scale._fn(v) != rhs_scale._fn(v):
            failures.append({"law": "scale_commutes_with_pullback", "v": _witness(v)})
    return {"samples": samples, "ok": not failures, "failures": failures}


def category_laws_audit(t1: LinearMapQ, t2: LinearMapQ, t3: LinearMapQ, norms, samples=100, seed=0) -> dict:
    """Category audit over the chain of pullback functors induced by
    t1: V -> U, t2: W -> V, t3: X -> W, acting on functionals over U.

    Checks, as exact pointwise identities on sampled probe vectors:
    identity laws, associativity of the composed pullbacks, semi-linearity
    of the functor (sums and nonnegative scalings), and the collapsed
    composite formula N o (t1 t2 t3).
    """
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
    composed_all = t1.compose(t2).compose(t3)
    left_group = t1.compose(t2)   # then pull through t3
    right_group = t2.compose(t3)  # pulled after t1
    probe_dims = (t1.out_dim, t1.in_dim, t3.in_dim)  # probes u, v, x

    for n in norms:
        n_1 = _pull(n, t1)
        # (law, probe index, lhs, rhs); the sides do not depend on the probe.
        laws = (
            ("identity_on_top", 0, _pull(n, id_u), n),
            ("identity_after_pullback", 1, _pull(n_1, id_v), n_1),
            ("associativity", 2, _pull(_pull(n, left_group), t3), _pull(n_1, right_group)),
            ("functor_additive", 1, _pull(norms[0] + n, t1), _pull(norms[0], t1) + n_1),
            ("functor_homogeneous", 1, _pull(n.scale(lam), t1), n_1.scale(lam)),
            ("composite_formula", 2, _pull(_pull(n_1, t2), t3), _pull(n, composed_all)),
        )
        for _ in range(samples):
            forms = [_signed_form(rng, d) for d in probe_dims]
            for law, i, lhs, rhs in laws:
                if lhs._fn(forms[i]) != rhs._fn(forms[i]):
                    failures.append({"law": law, "v": _witness(forms[i])})

    checked = samples * len(norms)
    return {
        "samples_per_norm": samples,
        "norms": len(norms),
        "lambda": lam,
        "checks": dict.fromkeys(("identity", "associativity", "semilinearity", "composite"), checked),
        "ok": not failures,
        "failures": failures,
    }


def pullback_inner(p: BilinearForm, t1: LinearMapQ, t2: LinearMapQ, samples=48, seed=0):
    """(u, v) -> P(T1 u, T2 v) plus the axiom audit. With distinct maps the
    symmetry axiom can fail; the audit reports exactly what holds."""
    if p.dim != t1.out_dim or p.dim != t2.out_dim:
        raise DimensionMismatch("form does not match map codomains")
    if t1.in_dim != t2.in_dim:
        raise DimensionMismatch("maps have different domains")
    fn, image1, image2 = p._fn, t1._image, t2._image
    pulled = BilinearForm(t1.in_dim, lambda x, y: fn(image1(x), image2(y)), "pb_inner")
    return pulled, validate_inner(pulled, samples, seed)


# ---------------------------------------------------------------------------
# Random object generators (shared by tests and the CLI audit command).

def random_semimetric(rng: random.Random, size: int) -> FiniteSemiMetric:
    """Metric completion (min-plus closure) of a random symmetric table."""
    raw = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            e = NonnegScalar(rng.randint(0, 20), rng.randint(1, 4))
            raw[i][j] = raw[j][i] = e
    for k in range(size):
        for i in range(size):
            for j in range(size):
                via = raw[i][k] + raw[k][j]
                if via < raw[i][j]:
                    raw[i][j] = via
    return FiniteSemiMetric(raw)


def random_seminorm(rng: random.Random, dim: int) -> Functional:
    atoms = []
    for _ in range(rng.randint(1, 3)):
        pick = rng.randrange(3)
        if pick == 0:
            atoms.append(weighted_l1([_random_q(rng) for _ in range(dim)]))
        elif pick == 1:
            atoms.append(weighted_max_abs([_random_q(rng) for _ in range(dim)]))
        else:
            atoms.append(abs_linear(random_signed_vector(rng, dim)))
    return sum(atoms[1:], atoms[0])


def random_inner(rng: random.Random, dim: int) -> BilinearForm:
    k = rng.randint(1, dim + 1)
    return gram_form([random_signed_vector(rng, dim) for _ in range(k)])


def random_sublinear(rng: random.Random, dim: int) -> Functional:
    k = rng.randint(1, 4)
    return max_linear([random_signed_vector(rng, dim) for _ in range(k)])
