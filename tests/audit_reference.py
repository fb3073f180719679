"""Fraction references for the scaled-integer law audits.

These are the ordered layer and the carrier law audits as they were
before they moved to the scaled form: an ``LnVector`` is a plain tuple of
Fractions, every truncated sum is one Fraction add and compare per
coordinate, and every sampled entry is drawn as a ``random_scalar``. The
zero carriers hold ``ZERO`` scalars, and the Lie bracket sums
``NonnegScalar`` products term by term. The scaled-form code must give the
same values, the same samples and the same reports.
"""

import random
from fractions import Fraction as RAT

from semikit.scalar import ONE, ZERO
from semikit.semimodule import (
    _LAW_NAMES,
    SemiMatrix,
    SemiPolynomial,
    SemiVector,
    check_cancellation,
    random_scalar,
    random_vector,
)

_ONE = RAT(1)


# ---------------------------------------------------------------------------
# The ordered layer on tuples of Fractions.

def oplus(u, v):
    return tuple(min(_ONE, a + b) for a, b in zip(u, v))


def scale(r, v):
    return tuple(r * a for a in v)


def product_leq(u, v):
    return all(a <= b for a, b in zip(u, v))


def admissible(u, v, perm):
    """-1, 0 or 1 as u is below, equal to or above v lexicographically
    along the 1-based permutation."""
    for i in perm:
        a, b = u[i - 1], v[i - 1]
        if a < b:
            return -1
        if a > b:
            return 1
    return 0


def _grid(n):
    points = [RAT(k, 10) for k in range(11)]
    out = []

    def extend(prefix, start):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for i in range(start, len(points)):
            extend(prefix + [points[i]], i)

    extend([], 0)
    return out


def axiom_audit_ln(n=2, seed=0, samples=2000):
    """fuzzy.axiom_audit_ln on tuples, with every sum evaluated where the
    law reads it (so add_commutative makes two sums per pair)."""
    rng = random.Random(seed)
    grid = _grid(n) if n <= 2 else None
    scalars = [RAT(k, 10) for k in range(11)]

    def sample_vec():
        if grid is not None:
            return grid[rng.randrange(len(grid))]
        return tuple(sorted(RAT(rng.randint(0, 10), 10) for _ in range(n)))

    laws = {}

    def record(name, holds, mode, checked, witness=None):
        laws[name] = {"holds": holds, "mode": mode, "checked": checked, "witness": witness}

    zero = (RAT(0),) * n
    carrier = grid if grid is not None else [sample_vec() for _ in range(60)]
    mode = "exhaustive" if grid is not None else "sampled"
    witness = None
    for u in carrier:
        if oplus(u, zero) != u:
            witness = {"u": u}
            break
    record("zero_identity", witness is None, mode, len(carrier), witness)

    witness = None
    checked = 0
    for u in carrier:
        for v in carrier:
            checked += 1
            if oplus(u, v) != oplus(v, u):
                witness = {"u": u, "v": v}
                break
        if witness:
            break
    record("add_commutative", witness is None, mode, checked, witness)

    witness = None
    for _ in range(samples):
        u, v, w = sample_vec(), sample_vec(), sample_vec()
        if oplus(oplus(u, v), w) != oplus(u, oplus(v, w)):
            witness = {"u": u, "v": v, "w": w}
            break
    record("add_associative", witness is None, "sampled", samples, witness)

    witness = None
    checked = 0
    for _ in range(samples):
        u, v, w = sample_vec(), sample_vec(), sample_vec()
        checked += 1
        if oplus(u, v) == oplus(u, w) and v != w:
            witness = {"u": u, "v": v, "w": w, "sum": oplus(u, v)}
            break
    record("add_cancellation", witness is None, "sampled", checked, witness)

    witness = None
    for _ in range(samples):
        r = scalars[rng.randrange(len(scalars))]
        u, v = sample_vec(), sample_vec()
        if scale(r, oplus(u, v)) != oplus(scale(r, u), scale(r, v)):
            witness = {"r": r, "u": u, "v": v}
            break
    record("scalar_distributes_over_vector_sum", witness is None, "sampled", samples, witness)

    witness = None
    for _ in range(samples):
        r = scalars[rng.randrange(len(scalars))]
        s = scalars[rng.randrange(len(scalars))]
        v = sample_vec()
        if scale(min(_ONE, r + s), v) != oplus(scale(r, v), scale(s, v)):
            witness = {"r": r, "s": s, "v": v}
            break
    record("scalar_sum_distributes", witness is None, "sampled", samples, witness)

    witness = None
    for _ in range(samples):
        r = scalars[rng.randrange(len(scalars))]
        s = scalars[rng.randrange(len(scalars))]
        v = sample_vec()
        if scale(r * s, v) != scale(r, scale(s, v)):
            witness = {"r": r, "s": s, "v": v}
            break
    record("scalar_mul_associative", witness is None, "sampled", samples, witness)

    witness = None
    for u in carrier:
        if scale(_ONE, u) != u:
            witness = {"u": u}
            break
    record("one_identity", witness is None, mode, len(carrier), witness)

    witness = None
    checked = 0
    for _ in range(samples):
        u, v, w = sample_vec(), sample_vec(), sample_vec()
        if not product_leq(u, v):
            continue
        checked += 1
        if not product_leq(oplus(u, w), oplus(v, w)):
            witness = {"u": u, "v": v, "w": w}
            break
        r = scalars[rng.randrange(len(scalars))]
        if not product_leq(scale(r, u), scale(r, v)):
            witness = {"u": u, "v": v, "r": r}
            break
    record("order_compatibility", witness is None, "sampled", checked, witness)

    u8, v5, w6 = (RAT(8, 10),) * n, (RAT(5, 10),) * n, (RAT(6, 10),) * n
    half = RAT(1, 2)
    lhs = scale(half, oplus(u8, u8))
    rhs = oplus(scale(half, u8), scale(half, u8))
    return {
        "n": n,
        "seed": seed,
        "grid_step": "1/10",
        "laws": laws,
        "canonical_witnesses": {
            "cancellation": {
                "u": u8,
                "v": v5,
                "w": w6,
                "u_plus_v": oplus(u8, v5),
                "u_plus_w": oplus(u8, w6),
                "collision": oplus(u8, v5) == oplus(u8, w6) and v5 != w6,
            },
            "scalar_distributivity": {
                "r": half, "x": u8, "y": u8, "lhs": lhs, "rhs": rhs, "fails": lhs != rhs,
            },
        },
    }


# ---------------------------------------------------------------------------
# The carrier law audit with one random_scalar per sampled entry.

def _zero_like(x):
    if isinstance(x, SemiVector):
        return SemiVector([ZERO] * x.dim)
    if isinstance(x, SemiMatrix):
        return SemiMatrix([[ZERO] * x.ncols for _ in range(x.nrows)])
    return SemiPolynomial(())


def check_svs_laws(u, v, w, alpha, beta):
    """semimodule.check_svs_laws with every subexpression evaluated where
    its law reads it."""
    zero = _zero_like(u)
    bad = []
    if (u + v) + w != u + (v + w):
        bad.append("add_associative")
    if u + v != v + u:
        bad.append("add_commutative")
    if v + zero != v:
        bad.append("zero_identity")
    if (u + v).scale(alpha) != u.scale(alpha) + v.scale(alpha):
        bad.append("scalar_distributes_over_vector_sum")
    if v.scale(alpha + beta) != v.scale(alpha) + v.scale(beta):
        bad.append("scalar_sum_distributes")
    if v.scale(alpha * beta) != v.scale(beta).scale(alpha):
        bad.append("scalar_mul_associative")
    if v.scale(ONE) != v:
        bad.append("one_identity")
    if not v.scale(ZERO) == zero:
        bad.append("zero_scalar_annihilates")
    return tuple(bad)


def sampler(space, dim, rng):
    """The carrier sampler, one random_scalar per entry."""
    if space == "rn":
        return lambda: random_vector(rng, dim)
    if space == "matrices":
        return lambda: SemiMatrix(
            [[random_scalar(rng) for _ in range(dim + 1)] for _ in range(dim)]
        )
    return lambda: SemiPolynomial([random_scalar(rng) for _ in range(dim + 1)])


def axiom_audit(space="rn", dim=3, samples=1000, seed=0, on_triple=None):
    """semimodule.axiom_audit on the reference sampler and law check;
    on_triple, when given, sees each (u, v, w, alpha, beta) drawn."""
    rng = random.Random(seed)
    sample = sampler(space, dim, rng)
    law_failures = {name: 0 for name in _LAW_NAMES}
    cancellation_failures = 0
    witnesses = []
    for _ in range(samples):
        u, v, w = sample(), sample(), sample()
        alpha, beta = random_scalar(rng), random_scalar(rng)
        if on_triple is not None:
            on_triple((u, v, w, alpha, beta))
        for name in check_svs_laws(u, v, w, alpha, beta):
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


# ---------------------------------------------------------------------------
# The Lie bracket and its audit on NonnegScalars.

def bracket(structure, u, v):
    """[u, v]_k = sum c[i][j][k] u_i v_j, one NonnegScalar add and two
    multiplies per nonzero term."""
    n = structure.dim
    out = []
    for k in range(n):
        acc = ZERO
        for i in range(n):
            if u[i].is_zero:
                continue
            for j in range(n):
                c = structure.constants[i][j][k]
                if not c.is_zero:
                    acc = acc + c * u[i] * v[j]
        out.append(acc)
    return SemiVector(out)


def lie_audit(structure, samples=30, seed=0):
    """semialgebra.lie_audit with the reference bracket and random_vector."""
    n = structure.dim
    witnesses = []
    for i in range(n):
        e = SemiVector.unit(n, i)
        val = bracket(structure, e, e)
        if not val.is_zero:
            witnesses.append({"vector": e, "bracket": val})
    for i in range(n):
        for j in range(i + 1, n):
            v = SemiVector.unit(n, i) + SemiVector.unit(n, j)
            val = bracket(structure, v, v)
            if not val.is_zero:
                witnesses.append({"vector": v, "bracket": val})
    rng = random.Random(seed)
    sample_failures = jacobi_failures = 0
    for _ in range(samples):
        v = random_vector(rng, n)
        if not bracket(structure, v, v).is_zero:
            sample_failures += 1
        u, w, y = (random_vector(rng, n) for _ in range(3))
        total = (
            bracket(structure, u, bracket(structure, w, y))
            + bracket(structure, y, bracket(structure, u, w))
            + bracket(structure, w, bracket(structure, y, u))
        )
        if not total.is_zero:
            jacobi_failures += 1
    nonzero = [
        (i, j, k, c)
        for i, plane in enumerate(structure.constants)
        for j, row in enumerate(plane)
        for k, c in enumerate(row)
        if not c.is_zero
    ]
    zero_bracket = not witnesses and not nonzero
    return {
        "dimension": n,
        "nonzero_constants": nonzero,
        "alternating_ok": not witnesses,
        "alternating_witnesses": witnesses,
        "alternating_sample_failures": sample_failures,
        "jacobi_sample_failures": jacobi_failures,
        "verdict": "zero_bracket" if zero_bracket else "falsified",
        "note": (
            "alternating law plus nonnegative constants force the abelian bracket"
            if zero_bracket
            else "nonzero constants contradict the alternating law on a simple carrier"
        ),
    }
