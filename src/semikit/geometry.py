"""Norms, ordered-difference metrics, and the desk-scale sequence and
function spaces.

Distances are built from per-coordinate gaps (max = min + c). Each gap is
still the ordered difference of two coordinates, taken in integers over
the common denominator of both vectors, so a distance costs one Fraction
rather than one per coordinate. Euclidean quantities keep their exact radicand in a
Radical wrapper so comparisons and triangle checks stay in rational
arithmetic; a float view is available for display. The sequence space
uses eventually-constant representatives and the function space
piecewise-linear ones, which makes every supremum a finite exact
computation.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from ._backend import RAT, scaled_dot
from .errors import (
    DimensionMismatch,
    IntervalMismatch,
    ResultTooLarge,
    UnsupportedTail,
)
from .scalar import NonnegScalar, ONE, ZERO, _gap
from .semilinear import SemiLinearMap
from .semimodule import SemiVector, random_vector

__all__ = [
    "NormKind",
    "Radical",
    "norm",
    "metric",
    "dot",
    "sqrt_leq_sum_of_sqrts",
    "norm_equivalence_audit",
    "operator_norm",
    "EventuallyConstSeq",
    "seq_metric",
    "PiecewiseLinearFn",
    "fn_metric",
    "cauchy_probe",
]


class NormKind(enum.Enum):
    EUCLIDEAN = "l2"
    L1 = "l1"
    LINF = "linf"


def _int_root(n: int, p: int):
    """Exact integer p-th root of n, or None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return n
    if p == 2:
        r = math.isqrt(n)
        return r if r * r == n else None
    lo, hi = 1, 1 << (n.bit_length() // p + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** p <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo ** p == n else None


class Radical:
    """radicand ** (1/index), kept exact.

    Comparisons against same-index radicals and against scalars go through
    radicand algebra; float(r) gives the approximate view.
    """

    __slots__ = ("radicand", "index")

    def __init__(self, radicand: NonnegScalar, index: int = 2):
        if index < 1:
            raise ValueError("index must be >= 1")
        self.radicand = NonnegScalar(radicand)
        self.index = index

    def exact(self):
        """NonnegScalar value when the radicand is a perfect power, else None."""
        if self.index == 1:
            return self.radicand
        rn = _int_root(self.radicand.numerator, self.index)
        rd = _int_root(self.radicand.denominator, self.index)
        if rn is None or rd is None:
            return None
        return NonnegScalar(rn, rd)

    def __float__(self):
        return float(self.radicand) ** (1.0 / self.index)

    def _cmp_key(self, other):
        if isinstance(other, Radical):
            if other.index != self.index:
                raise TypeError("cannot compare radicals of different index")
            return self.radicand, other.radicand
        if isinstance(other, (NonnegScalar, int)):
            s = NonnegScalar(other)
            return self.radicand, s ** self.index
        raise TypeError(f"cannot compare Radical with {type(other).__name__}")

    def __eq__(self, other):
        try:
            a, b = self._cmp_key(other)
        except TypeError:
            return NotImplemented
        return a == b

    def __le__(self, other):
        a, b = self._cmp_key(other)
        return a <= b

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        return a < b

    def __ge__(self, other):
        a, b = self._cmp_key(other)
        return a >= b

    def __gt__(self, other):
        a, b = self._cmp_key(other)
        return a > b

    def __hash__(self):
        ex = self.exact()
        return hash(ex) if ex is not None else hash((self.radicand, self.index))

    def __repr__(self):
        return f"Radical({self.radicand.literal}, index={self.index})"


def dot(u: SemiVector, v: SemiVector) -> NonnegScalar:
    """Exact dot product; its diagonal is the Euclidean radicand."""
    if u.dim != v.dim:
        raise DimensionMismatch("dot product needs equal lengths")
    return NonnegScalar._wrap(scaled_dot(u._scaled(), v._scaled()))


def norm(v: SemiVector, kind: NormKind):
    """L1 and LInf are exact scalars; Euclidean returns a Radical."""
    if kind is NormKind.L1:
        ints, den = v._scaled()
        return NonnegScalar._wrap(RAT(sum(ints), den))
    if kind is NormKind.LINF:
        return max(iter(v))
    return Radical(dot(v, v), 2)


def metric(x: SemiVector, y: SemiVector, kind: NormKind):
    """Distance from the per-coordinate ordered gaps c_i, each taken as
    |a fa - b fb| over the common denominator lcm(dx, dy)."""
    if x.dim != y.dim:
        raise DimensionMismatch("metric needs equal lengths")
    (xs, dx), (ys, dy) = x._scaled(), y._scaled()
    den = math.lcm(dx, dy)
    fx, fy = den // dx, den // dy
    gaps = [abs(a * fx - b * fy) for a, b in zip(xs, ys)]
    if kind is NormKind.L1:
        return NonnegScalar._wrap(RAT(sum(gaps), den))
    if kind is NormKind.LINF:
        return NonnegScalar._wrap(RAT(max(gaps), den))
    return Radical(NonnegScalar._wrap(RAT(sum(g * g for g in gaps), den * den)), 2)


def sqrt_leq_sum_of_sqrts(s: NonnegScalar, t: NonnegScalar, u: NonnegScalar) -> bool:
    """Decide sqrt(s) <= sqrt(t) + sqrt(u) in exact nonnegative arithmetic.

    When s <= t + u the inequality is immediate; otherwise it reduces by
    one squaring to gap^2 <= 4 t u, with gap = s - (t + u) taken as an
    ordered difference.
    """
    tu = t + u
    if s <= tu:
        return True
    g = _gap(s, tu)
    return g * g <= NonnegScalar(4) * t * u


def norm_equivalence_audit(samples: int = 1000, n: int = 4, seed: int = 0) -> dict:
    """Verify max <= euclidean <= sum <= n * max on seeded random vectors,
    exactly (the Euclidean link is compared through squared values)."""
    rng = random.Random(seed)
    n_scalar = NonnegScalar(n)
    violations = []
    for _ in range(samples):
        v = random_vector(rng, n)
        mx = norm(v, NormKind.LINF)
        l1 = norm(v, NormKind.L1)
        rad = norm(v, NormKind.EUCLIDEAN).radicand
        if not (mx * mx <= rad and rad <= l1 * l1 and l1 <= n_scalar * mx):
            violations.append(v)
    return {
        "samples": samples,
        "dim": n,
        "seed": seed,
        "holds": not violations,
        "violations": violations,
    }


def operator_norm(t: SemiLinearMap, kind: NormKind, tol: float = 1e-9, max_iter: int = 100000) -> dict:
    """Operator norm of a nonnegative matrix map.

    L1 is the largest column sum and is attained at a standard basis
    vector; LInf is the largest row sum, attained at the all-ones vector.
    The Euclidean norm is bracketed by a Collatz-Wielandt power iteration
    on A^T A: the reported [lower, upper] interval certifiably contains
    the true value. A^T A past float range raises ResultTooLarge.
    """
    mat = t.matrix
    if kind is NormKind.L1:
        sums = [sum(mat.column(j), ZERO) for j in range(mat.ncols)]
        value = max(sums)
        j = sums.index(value)
        return {
            "kind": "l1",
            "value": value,
            "float": float(value),
            "attained_at": SemiVector.unit(mat.ncols, j),
            "column": j + 1,
        }
    if kind is NormKind.LINF:
        sums = [sum(mat.row(i), ZERO) for i in range(mat.nrows)]
        value = max(sums)
        i = sums.index(value)
        return {
            "kind": "linf",
            "value": value,
            "float": float(value),
            "attained_at": SemiVector([ONE] * mat.ncols),
            "row": i + 1,
        }

    # Euclidean: power iteration with Collatz-Wielandt bounds on A^T A.
    n = mat.ncols
    a = [[float(mat.entry(i, j)) for j in range(n)] for i in range(mat.nrows)]
    s = [
        [sum(a[k][i] * a[k][j] for k in range(mat.nrows)) for j in range(n)]
        for i in range(n)
    ]
    # Row sums of A^T A bound every iterate, so finite row sums keep the
    # whole power iteration in float range.
    if not all(math.isfinite(sum(row)) for row in s):
        raise ResultTooLarge("A^T A is too large for its float view")
    live = [i for i in range(n) if any(s[i][j] != 0.0 for j in range(n))]
    if not live:
        return {
            "kind": "l2", "lower": 0.0, "upper": 0.0, "value": 0.0,
            "iterations": 0, "converged": True,
        }
    # A^T A may be reducible, and then the iterate's entries in a weaker
    # block underflow to 0. Each connected component of its live indices
    # has a positive diagonal, so it is primitive and its own iteration
    # converges; the norm is the largest component's.
    lo = hi = 0.0
    iterations, converged = 0, True
    for comp in _components(s, live):
        c_lo, c_hi, it = _cw_bracket([[s[i][j] for j in comp] for i in comp], tol, max_iter)
        lo, hi = max(lo, c_lo), max(hi, c_hi)
        iterations = max(iterations, it)
        converged = converged and c_hi - c_lo <= tol * max(c_hi, 1.0)
    if not math.isfinite(hi):
        raise ResultTooLarge("the L2 bracket is too large for its float view")
    lower, upper = math.sqrt(lo), math.sqrt(hi)
    return {
        "kind": "l2",
        "lower": lower,
        "upper": upper,
        "value": (lower + upper) / 2.0,
        "iterations": iterations,
        "converged": converged,
    }


def _components(s, live):
    """Connected components of the graph i ~ j iff s[i][j] != 0, each as a
    sorted list of indices from `live`."""
    seen, comps = set(), []
    for start in live:
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [], [start]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in live:
                if j not in seen and s[i][j] != 0.0:
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _cw_bracket(s, tol, max_iter):
    """Power iteration with Collatz-Wielandt bounds (lo, hi, iterations) on
    the spectral radius of a primitive nonnegative matrix."""
    m = len(s)
    v = [1.0 / m] * m
    lo, hi = 0.0, float("inf")
    it = 0
    for it in range(1, max_iter + 1):
        w = [sum(s[i][j] * v[j] for j in range(m)) for i in range(m)]
        ratios = [wi / vi for wi, vi in zip(w, v)]
        lo, hi = max(lo, min(ratios)), min(hi, max(ratios))
        if hi - lo <= tol * max(hi, 1.0):
            break
        total = sum(w)
        v = [x / total for x in w]
    return lo, hi, it


@dataclass(frozen=True)
class EventuallyConstSeq:
    """Bounded sequence: an explicit prefix, then a constant tail.
    Finite-support members (tail 0) also model the p-summable space."""

    prefix: tuple
    tail: NonnegScalar

    def __init__(self, prefix, tail):
        object.__setattr__(
            self, "prefix", tuple(NonnegScalar(p) for p in prefix)
        )
        object.__setattr__(self, "tail", NonnegScalar(tail))

    def value_at(self, i: int) -> NonnegScalar:
        return self.prefix[i] if i < len(self.prefix) else self.tail

    @property
    def sup(self) -> NonnegScalar:
        return max((*self.prefix, self.tail))


def seq_metric(x: EventuallyConstSeq, y: EventuallyConstSeq, space="linf"):
    """Distance in the bounded-sequence space (sup of gaps) or in the
    p-summable space (gap-power sum, finite support required).

    space is "linf" or ("lp", p) with p >= 1; integer p keeps the result
    exact (a Radical for p >= 2), non-integer p falls back to floats and
    raises ResultTooLarge past float range.
    """
    span = max(len(x.prefix), len(y.prefix))
    gaps = [_gap(x.value_at(i), y.value_at(i)) for i in range(span)]
    tail_gap = _gap(x.tail, y.tail)
    if space == "linf":
        return max((*gaps, tail_gap)) if gaps else tail_gap
    tag, p = space
    if tag != "lp":
        raise ValueError(f"unknown sequence space {space!r}")
    if not x.tail.is_zero or not y.tail.is_zero:
        raise UnsupportedTail("p-summable metric needs zero tails")
    if isinstance(p, int):
        if p < 1:
            raise ValueError("p must be >= 1")
        total = sum((g ** p for g in gaps), ZERO)
        return total if p == 1 else Radical(total, p)
    pf = float(NonnegScalar(p))
    if pf < 1.0:
        raise ValueError("p must be >= 1")
    try:
        total = sum(float(g) ** pf for g in gaps)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ResultTooLarge("a gap's p-th power is too large for its float view")
    return total ** (1.0 / pf)


class PiecewiseLinearFn:
    """Continuous nonnegative piecewise-linear function on [a, b], given
    by values at strictly increasing breakpoints covering the endpoints."""

    __slots__ = ("a", "b", "breakpoints", "values")

    def __init__(self, a, b, breakpoints, values):
        self.a = NonnegScalar(a)
        self.b = NonnegScalar(b)
        self.breakpoints = tuple(NonnegScalar(t) for t in breakpoints)
        self.values = tuple(NonnegScalar(v) for v in values)
        if not self.a < self.b:
            raise IntervalMismatch("need 0 <= a < b")
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise IntervalMismatch("breakpoints and values must align (>= 2 points)")
        if self.breakpoints[0] != self.a or self.breakpoints[-1] != self.b:
            raise IntervalMismatch("breakpoints must start at a and end at b")
        if any(
            not self.breakpoints[i] < self.breakpoints[i + 1]
            for i in range(len(self.breakpoints) - 1)
        ):
            raise IntervalMismatch("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, value, a, b):
        return cls(a, b, (a, b), (value, value))

    def evaluate(self, t) -> NonnegScalar:
        """Exact value by convex combination of the segment endpoints
        (subtraction-free: both interpolation weights are ordered gaps)."""
        t = NonnegScalar(t)
        if t < self.a or t > self.b:
            raise IntervalMismatch(f"{t.literal} outside the interval")
        pts = self.breakpoints
        k = 0
        for i in range(len(pts) - 1):
            if pts[i] <= t <= pts[i + 1]:
                k = i
                break
        x0, x1 = pts[k], pts[k + 1]
        if t == x0:
            return self.values[k]
        theta = _gap(t, x0) / _gap(x1, x0)
        return _gap(ONE, theta) * self.values[k] + theta * self.values[k + 1]

    def __add__(self, other):
        if not isinstance(other, PiecewiseLinearFn):
            return NotImplemented
        if self.a != other.a or self.b != other.b:
            raise IntervalMismatch("functions live on different intervals")
        points = sorted(set(self.breakpoints) | set(other.breakpoints))
        return PiecewiseLinearFn(
            self.a,
            self.b,
            points,
            [self.evaluate(t) + other.evaluate(t) for t in points],
        )

    def scale(self, lam) -> "PiecewiseLinearFn":
        lam = NonnegScalar(lam)
        return PiecewiseLinearFn(
            self.a, self.b, self.breakpoints, [lam * v for v in self.values]
        )

    def __eq__(self, other):
        if not isinstance(other, PiecewiseLinearFn):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __repr__(self):
        return f"PiecewiseLinearFn([{self.a.literal}, {self.b.literal}], {len(self.breakpoints)} pts)"


def fn_metric(f: PiecewiseLinearFn, g: PiecewiseLinearFn) -> NonnegScalar:
    """Exact sup-gap distance. The gap of two piecewise-linear functions
    is convex on each segment of the union refinement, so the maximum is
    attained at a union breakpoint."""
    if f.a != g.a or f.b != g.b:
        raise IntervalMismatch("functions live on different intervals")
    points = sorted(set(f.breakpoints) | set(g.breakpoints))
    return max(_gap(f.evaluate(t), g.evaluate(t)) for t in points)


def _space_metric(space):
    if space == "fn":
        return fn_metric
    return lambda x, y: seq_metric(x, y, space)


def cauchy_probe(generator, space, schedule, limit=None) -> dict:
    """Behavioral Cauchy check of an indexed family at desk scale.

    generator maps a positive integer index to an element; schedule is a
    list of (eps, K) claims meaning d(x_n, x_m) < eps for n, m >= K. Each
    claim is probed on a finite pair sample; a supplied candidate limit is
    additionally checked to lie within eps of the sampled members. This
    verifies behavior on the probes, nothing more.
    """
    d = _space_metric(space)
    failures = []
    pair_checks = 0
    limit_checks = 0
    for eps, K in schedule:
        eps = NonnegScalar(eps)
        idx = [K, K + 1, 2 * K, 4 * K + 1]
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                pair_checks += 1
                dist = d(generator(idx[i]), generator(idx[j]))
                if not dist < eps:
                    failures.append(
                        {"kind": "pair", "eps": eps, "n": idx[i], "m": idx[j]}
                    )
        if limit is not None:
            for n in (K, 2 * K, 4 * K + 1):
                limit_checks += 1
                if not d(generator(n), limit) <= eps:
                    failures.append({"kind": "limit", "eps": eps, "n": n})
    return {
        "schedule": [(NonnegScalar(e).literal, k) for e, k in schedule],
        "pair_checks": pair_checks,
        "limit_supplied": limit is not None,
        "limit_checks": limit_checks,
        "cauchy_ok": not any(f["kind"] == "pair" for f in failures),
        "limit_ok": (
            None if limit is None else not any(f["kind"] == "limit" for f in failures)
        ),
        "failures": failures,
    }
