"""Fuzzy numbers as finite level-cut tables and the ordered layer of
sorted unit-interval vectors.

Fuzzy numbers live on the signed real line: each level alpha in (0, 1]
carries a closed interval, nested as alpha grows. Arithmetic is exact
per-level interval arithmetic. The ordered layer works over the weak
structure on [0, 1] whose addition saturates at 1; saturation is exactly
why cancellation and distributivity fail there, and axiom_audit_ln
documents which laws survive instead of asserting them.

LnVector keeps the scaled form of its entries (integers over one common
denominator, as SemiVector does), so the truncated sum, scaling, ==,
hash and both orders run on Python ints, and axiom_audit_ln draws its
samples straight into that form.
"""

from __future__ import annotations

import enum
import math
import random
from functools import cmp_to_key

from ._backend import RAT, _lowest, scaled_ints, scaled_scale, signed_rat, unscaled
from .errors import (
    DimensionMismatch,
    EmptyInput,
    GridMismatch,
    NotABijection,
)
from .scalar import NonnegScalar

__all__ = [
    "FuzzyNumber",
    "FuzzyOrder",
    "LnVector",
    "Ordering",
    "DEFAULT_LEVELS",
    "fz_add",
    "fz_mul",
    "fz_scale",
    "fz_leq",
    "ln_oplus",
    "ln_scale",
    "product_order_leq",
    "admissible_leq",
    "axiom_audit_ln",
    "mcdm_rank",
]

_Z = RAT(0)
_ONE = RAT(1)

DEFAULT_LEVELS = tuple(RAT(k, 10) for k in range(1, 11))


class FuzzyOrder(enum.Enum):
    EQUAL = "equal"
    LEQ = "leq"
    GEQ = "geq"
    INCOMPARABLE = "incomparable"


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _unit(x):
    q = signed_rat(x)
    if q < 0 or q > 1:
        raise ValueError(f"value outside [0, 1]: {q}")
    return q


class FuzzyNumber:
    """Level-cut table: strictly increasing levels in (0, 1] ending at 1,
    one closed interval of signed rationals per level, nested upward."""

    __slots__ = ("levels", "intervals")

    def __init__(self, levels, intervals):
        lv = tuple(signed_rat(a) for a in levels)
        iv = tuple((signed_rat(lo), signed_rat(hi)) for lo, hi in intervals)
        if len(lv) != len(iv) or not lv:
            raise GridMismatch("levels and intervals must align and be nonempty")
        if any(not (0 < a <= 1) for a in lv):
            raise GridMismatch("levels must lie in (0, 1]")
        if any(lv[i] >= lv[i + 1] for i in range(len(lv) - 1)):
            raise GridMismatch("levels must be strictly increasing")
        if lv[-1] != 1:
            raise GridMismatch("the level grid must include alpha = 1")
        for lo, hi in iv:
            if lo > hi:
                raise ValueError("interval endpoints out of order")
        for i in range(len(lv) - 1):
            if iv[i + 1][0] < iv[i][0] or iv[i + 1][1] > iv[i][1]:
                raise ValueError("nesting violated: higher cuts must shrink")
        self.levels = lv
        self.intervals = iv

    @classmethod
    def crisp(cls, value) -> "FuzzyNumber":
        q = signed_rat(value)
        return cls((RAT(1),), ((q, q),))

    @classmethod
    def triangular(cls, left, peak, right, levels=DEFAULT_LEVELS) -> "FuzzyNumber":
        a, b, c = signed_rat(left), signed_rat(peak), signed_rat(right)
        if not (a <= b <= c):
            raise ValueError("triangular needs left <= peak <= right")
        iv = [(a + alpha * (b - a), c - alpha * (c - b)) for alpha in levels]
        return cls(levels, iv)

    def interval_at(self, beta):
        """Cut at level beta: the interval of the smallest tabulated level
        >= beta (the table encodes a step membership function)."""
        beta = signed_rat(beta)
        for a, iv in zip(self.levels, self.intervals):
            if a >= beta:
                return iv
        raise GridMismatch(f"level {beta} above the table maximum")

    def refine(self, levels) -> "FuzzyNumber":
        merged = sorted(set(self.levels) | {signed_rat(a) for a in levels})
        return FuzzyNumber(merged, [self.interval_at(a) for a in merged])

    @property
    def support(self):
        return self.intervals[0]

    def __eq__(self, other):
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        return self.levels == other.levels and self.intervals == other.intervals

    def __repr__(self):
        lo, hi = self.support
        return f"FuzzyNumber({len(self.levels)} levels, support [{lo}, {hi}])"


def _align(x: FuzzyNumber, y: FuzzyNumber):
    if x.levels == y.levels:
        return x, y
    return x.refine(y.levels), y.refine(x.levels)


def fz_add(x: FuzzyNumber, y: FuzzyNumber) -> FuzzyNumber:
    x, y = _align(x, y)
    return FuzzyNumber(
        x.levels,
        [
            (a[0] + b[0], a[1] + b[1])
            for a, b in zip(x.intervals, y.intervals)
        ],
    )


def fz_mul(x: FuzzyNumber, y: FuzzyNumber) -> FuzzyNumber:
    """Per-level interval product. Supports may be negative, so the four
    endpoint products are compared; when both supports are nonnegative the
    corners are known and the product is taken directly."""
    x, y = _align(x, y)
    out = []
    nonneg_fast = x.support[0] >= 0 and y.support[0] >= 0
    for (al, ah), (bl, bh) in zip(x.intervals, y.intervals):
        if nonneg_fast:
            out.append((al * bl, ah * bh))
        else:
            corners = (al * bl, al * bh, ah * bl, ah * bh)
            out.append((min(corners), max(corners)))
    return FuzzyNumber(x.levels, out)


def fz_scale(lam, x: FuzzyNumber) -> FuzzyNumber:
    lam_q = NonnegScalar(lam)._q
    return FuzzyNumber(
        x.levels, [(lam_q * lo, lam_q * hi) for lo, hi in x.intervals]
    )


def fz_leq(x: FuzzyNumber, y: FuzzyNumber) -> FuzzyOrder:
    """Endpointwise comparison across all levels of the refined grid."""
    x, y = _align(x, y)
    le = all(
        a[0] <= b[0] and a[1] <= b[1]
        for a, b in zip(x.intervals, y.intervals)
    )
    ge = all(
        a[0] >= b[0] and a[1] >= b[1]
        for a, b in zip(x.intervals, y.intervals)
    )
    if le and ge:
        return FuzzyOrder.EQUAL
    if le:
        return FuzzyOrder.LEQ
    if ge:
        return FuzzyOrder.GEQ
    return FuzzyOrder.INCOMPARABLE


class LnVector:
    """Nondecreasing vector with entries in [0, 1].

    It keeps the scaled form of its entries (integers over the lcm of their
    denominators, see ``_backend.scaled_ints``), which is canonical, so ==,
    hash and the order tests run on Python ints. The Fraction ``coords``
    tuple is built on first read and then kept.
    """

    __slots__ = ("_form", "_coords")

    def __init__(self, coords):
        items = tuple(_unit(c) for c in coords)
        if not items:
            raise DimensionMismatch("need at least one coordinate")
        if any(items[i] > items[i + 1] for i in range(len(items) - 1)):
            raise ValueError("coordinates must be nondecreasing")
        self._coords = items
        self._form = scaled_ints(items)

    @classmethod
    def _from_form(cls, form):
        """Wrap a scaled form in lowest terms already known to be a
        nondecreasing vector in [0, 1] (internal: results of the closed
        operations and the audit's samples)."""
        obj = object.__new__(cls)
        obj._form = form
        obj._coords = None
        return obj

    @classmethod
    def constant(cls, value, n: int) -> "LnVector":
        return cls([value] * n)

    @property
    def coords(self):
        if self._coords is None:
            self._coords = tuple(unscaled(self._form))
        return self._coords

    @property
    def dim(self):
        return len(self._form[0])

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if not isinstance(other, LnVector):
            return NotImplemented
        return self._form == other._form

    def __hash__(self):
        ints, den = self._form
        return hash((tuple(ints), den))

    def __repr__(self):
        return f"LnVector({[str(c) for c in self.coords]})"


def _check_dims(u: LnVector, v: LnVector):
    if u.dim != v.dim:
        raise DimensionMismatch("vectors of different lengths")


def ln_oplus(u: LnVector, v: LnVector) -> LnVector:
    """Componentwise truncated sum min(1, x + y), as min(den, x' + y') on
    the integers over the common denominator den. Sortedness survives
    because truncation is monotone, so the result needs no re-validation."""
    _check_dims(u, v)
    (xa, da), (xb, db) = u._form, v._form
    den = math.lcm(da, db)
    fa, fb = den // da, den // db
    ints = [min(den, x * fa + y * fb) for x, y in zip(xa, xb)]
    return LnVector._from_form(_lowest(ints, den))


def ln_scale(r, v: LnVector) -> LnVector:
    """r * v for r in [0, 1]: again nondecreasing and in [0, 1]."""
    return LnVector._from_form(scaled_scale(_unit(r), v._form))


def product_order_leq(u: LnVector, v: LnVector) -> bool:
    _check_dims(u, v)
    (xa, da), (xb, db) = u._form, v._form
    return all(x * db <= y * da for x, y in zip(xa, xb))


def _check_perm(perm, n: int):
    if sorted(perm) != list(range(1, n + 1)):
        raise NotABijection(f"{perm!r} is not a permutation of 1..{n}")


def admissible_leq(u: LnVector, v: LnVector, perm) -> Ordering:
    """Lexicographic comparison along the coordinate order given by the
    1-based permutation. Total, and it refines the product order."""
    _check_dims(u, v)
    perm = tuple(perm)
    _check_perm(perm, u.dim)
    (xa, da), (xb, db) = u._form, v._form
    for i in perm:
        a, b = xa[i - 1] * db, xb[i - 1] * da
        if a < b:
            return Ordering.LESS
        if a > b:
            return Ordering.GREATER
    return Ordering.EQUAL


def _grid_vectors(n: int, step=RAT(1, 10)):
    """All nondecreasing vectors over the step grid (exhaustive carrier)."""
    points = []
    k = 0
    while step * k <= 1:
        points.append(step * k)
        k += 1

    out = []

    def extend(prefix, start):
        if len(prefix) == n:
            out.append(LnVector(prefix))
            return
        for i in range(start, len(points)):
            extend(prefix + [points[i]], i)

    extend([], 0)
    return out


def axiom_audit_ln(n: int = 2, seed: int = 0, samples: int = 2000) -> dict:
    """Audit the vector-space law set over (truncated +, scaling) together
    with order compatibility, and report per law what actually holds.

    Saturation breaks cancellation and both distributivity laws; the audit
    exists to exhibit those witnesses precisely, so the report is the
    deliverable rather than a pass/fail gate. Pairwise laws run
    exhaustively over the 0.1 grid for n <= 2; triple and scalar laws are
    sampled from the same grid.
    """
    rng = random.Random(seed)
    grid = _grid_vectors(n) if n <= 2 else None
    scalars = [RAT(k, 10) for k in range(11)]

    def sample_vec():
        if grid is not None:
            return grid[rng.randrange(len(grid))]
        return LnVector._from_form(_lowest(sorted(rng.randint(0, 10) for _ in range(n)), 10))

    laws = {}

    def record(name, holds, mode, checked, witness=None):
        laws[name] = {
            "holds": holds,
            "mode": mode,
            "checked": checked,
            "witness": witness,
        }

    zero = LnVector.constant(0, n)
    one = RAT(1)

    # Commutativity and zero identity: exhaustive when the grid is small.
    carrier = grid if grid is not None else [sample_vec() for _ in range(60)]
    mode = "exhaustive" if grid is not None else "sampled"
    witness = None
    for u in carrier:
        if ln_oplus(u, zero) != u:
            witness = {"u": u}
            break
    record("zero_identity", witness is None, mode, len(carrier), witness)

    # One comparison of u + v with v + u checks both ordered pairs (u, v)
    # and (v, u), and a pair with itself holds trivially, so each pair of
    # distinct indices is summed both ways once. The first failing ordered
    # pair in row-major order is then some (i, j) with i < j.
    size = len(carrier)
    witness = None
    checked = size * size
    for i, u in enumerate(carrier):
        for j in range(i + 1, size):
            v = carrier[j]
            if ln_oplus(u, v) != ln_oplus(v, u):
                witness = {"u": u, "v": v}
                checked = i * size + j + 1
                break
        if witness:
            break
    record("add_commutative", witness is None, mode, checked, witness)

    witness = None
    for _ in range(samples):
        u, v, w = sample_vec(), sample_vec(), sample_vec()
        if ln_oplus(ln_oplus(u, v), w) != ln_oplus(u, ln_oplus(v, w)):
            witness = {"u": u, "v": v, "w": w}
            break
    record("add_associative", witness is None, "sampled", samples, witness)

    # Cancellation: scan for a saturation collision.
    witness = None
    checked = 0
    for _ in range(samples):
        u, v, w = sample_vec(), sample_vec(), sample_vec()
        checked += 1
        if ln_oplus(u, v) == ln_oplus(u, w) and v != w:
            witness = {"u": u, "v": v, "w": w, "sum": ln_oplus(u, v)}
            break
    record("add_cancellation", witness is None, "sampled", checked, witness)

    # Scalar laws.
    witness = None
    for _ in range(samples):
        r = scalars[rng.randrange(len(scalars))]
        u, v = sample_vec(), sample_vec()
        if ln_scale(r, ln_oplus(u, v)) != ln_oplus(ln_scale(r, u), ln_scale(r, v)):
            witness = {"r": r, "u": u, "v": v}
            break
    record("scalar_distributes_over_vector_sum", witness is None, "sampled", samples, witness)

    witness = None
    for _ in range(samples):
        r = scalars[rng.randrange(len(scalars))]
        s = scalars[rng.randrange(len(scalars))]
        v = sample_vec()
        lhs = ln_scale(min(one, r + s), v)
        rhs = ln_oplus(ln_scale(r, v), ln_scale(s, v))
        if lhs != rhs:
            witness = {"r": r, "s": s, "v": v}
            break
    record("scalar_sum_distributes", witness is None, "sampled", samples, witness)

    witness = None
    for _ in range(samples):
        r = scalars[rng.randrange(len(scalars))]
        s = scalars[rng.randrange(len(scalars))]
        v = sample_vec()
        if ln_scale(r * s, v) != ln_scale(r, ln_scale(s, v)):
            witness = {"r": r, "s": s, "v": v}
            break
    record("scalar_mul_associative", witness is None, "sampled", samples, witness)

    witness = None
    for u in carrier:
        if ln_scale(one, u) != u:
            witness = {"u": u}
            break
    record("one_identity", witness is None, mode, len(carrier), witness)

    # Order compatibility (the ordered-space claim).
    witness = None
    checked = 0
    for _ in range(samples):
        u, v, w = sample_vec(), sample_vec(), sample_vec()
        if not product_order_leq(u, v):
            continue
        checked += 1
        if not product_order_leq(ln_oplus(u, w), ln_oplus(v, w)):
            witness = {"u": u, "v": v, "w": w}
            break
        r = scalars[rng.randrange(len(scalars))]
        if not product_order_leq(ln_scale(r, u), ln_scale(r, v)):
            witness = {"u": u, "v": v, "r": r}
            break
    record("order_compatibility", witness is None, "sampled", checked, witness)

    # Canonical witnesses, evaluated verbatim.
    u8 = LnVector.constant("0.8", n)
    v5 = LnVector.constant("0.5", n)
    w6 = LnVector.constant("0.6", n)
    half = RAT(1, 2)
    cancellation_witness = {
        "u": u8,
        "v": v5,
        "w": w6,
        "u_plus_v": ln_oplus(u8, v5),
        "u_plus_w": ln_oplus(u8, w6),
        "collision": ln_oplus(u8, v5) == ln_oplus(u8, w6) and v5 != w6,
    }
    distributivity_witness = {
        "r": half,
        "x": u8,
        "y": u8,
        "lhs": ln_scale(half, ln_oplus(u8, u8)),
        "rhs": ln_oplus(ln_scale(half, u8), ln_scale(half, u8)),
        "fails": ln_scale(half, ln_oplus(u8, u8)) != ln_oplus(ln_scale(half, u8), ln_scale(half, u8)),
    }

    return {
        "n": n,
        "seed": seed,
        "grid_step": "1/10",
        "laws": laws,
        "canonical_witnesses": {
            "cancellation": cancellation_witness,
            "scalar_distributivity": distributivity_witness,
        },
    }


def mcdm_rank(alternatives, weights, perm) -> dict:
    """Rank alternatives by aggregated scores under the admissible order.

    Each alternative's score is the truncated-sum combination of its
    weighted coordinates, embedded cumulatively so the score is itself a
    sorted vector: score_j = min(1, sum_{i <= j} w_i x_i). Ranking sorts
    descending by the lexicographic admissible order; ties keep input
    order. Truncation events (partial sums clipped at 1) are logged, since
    they are exactly the points where weight rescaling stops being
    order-preserving.
    """
    alts = list(alternatives)
    if not alts:
        raise EmptyInput("at least one alternative required")
    alts = [a if isinstance(a, LnVector) else LnVector(a) for a in alts]
    n = alts[0].dim
    if any(a.dim != n for a in alts):
        raise DimensionMismatch("alternatives of mixed dimensions")
    w = [_unit(x) for x in weights]
    if len(w) != n:
        raise DimensionMismatch("weights must match the coordinate count")
    perm = tuple(perm)
    _check_perm(perm, n)

    scored = []
    for idx, alt in enumerate(alts):
        acc = _Z
        partial = []
        events = 0
        for wi, xi in zip(w, alt):
            acc = acc + wi * xi
            if acc > 1:
                events += 1
                partial.append(_ONE)
            else:
                partial.append(acc)
        scored.append(
            {
                "input_index": idx + 1,
                "alternative": alt,
                "score": LnVector(partial),
                "truncation_events": events,
            }
        )

    def compare(a, b):
        verdict = admissible_leq(a["score"], b["score"], perm)
        if verdict is Ordering.LESS:
            return 1
        if verdict is Ordering.GREATER:
            return -1
        return 0

    ranking = sorted(scored, key=cmp_to_key(compare))
    return {
        "recipe": "cumulative-truncated-weighted-sum",
        "permutation": list(perm),
        "ranking": ranking,
        "truncation_total": sum(r["truncation_events"] for r in scored),
    }
