"""Fourier-Motzkin reference for the simplex oracle in semikit._signed.

This is the elimination procedure the library used before the simplex:
exact Gauss-Jordan elimination to a particular solution plus a nullspace
basis, then Fourier-Motzkin elimination over the nullspace parameters.
It has no redundancy pruning, so it is only fit for small nullspaces
(k <= 5); tests use it to cross-check verdicts and unique points.

Inequalities are encoded as (coeffs, const) meaning coeffs . t + const >= 0.
"""

from fractions import Fraction

_Z = Fraction(0)
_ONE = Fraction(1)


def solve_linear_system(rows, rhs):
    """Exact solve of A x = b.

    Returns (particular, nullspace_basis) where particular is a length-n
    list and nullspace_basis a list of length-n direction vectors, or None
    when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if aug[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    particular = [_Z] * n
    for row_idx, c in enumerate(pivot_cols):
        particular[c] = aug[row_idx][n]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [_Z] * n
        vec[f] = _ONE
        for row_idx, c in enumerate(pivot_cols):
            vec[c] = -aug[row_idx][f]
        basis.append(vec)
    return particular, basis


def _normalize(coeffs, const):
    for a in coeffs:
        if a != 0:
            scale = a if a > 0 else -a
            return tuple(v / scale for v in coeffs), const / scale
    return tuple(coeffs), const


def _eliminate_var(ineqs, idx):
    """Fourier-Motzkin elimination of variable idx; returns reduced ineqs
    (with idx column dropped) or None on an immediate contradiction."""
    zeros, lowers, uppers = [], [], []
    for coeffs, const in ineqs:
        a = coeffs[idx]
        rest = coeffs[:idx] + coeffs[idx + 1:]
        if a == 0:
            if not any(v != 0 for v in rest) and const < 0:
                return None
            zeros.append((rest, const))
        elif a > 0:
            lowers.append((a, rest, const))
        else:
            uppers.append((a, rest, const))
    out = set()
    for rest, const in zeros:
        out.add(_normalize(rest, const))
    for ap, rp, cp in lowers:
        for an, rn, cn in uppers:
            # ap > 0, an < 0: combine so the idx terms cancel.
            coeffs = tuple(ap * vn - an * vp for vp, vn in zip(rp, rn))
            const = ap * cn - an * cp
            if not any(v != 0 for v in coeffs) and const < 0:
                return None
            out.add(_normalize(coeffs, const))
    return list(out)


def _elimination_chain(ineqs, nvars):
    """systems[j] constrains variables 0..j-1; systems[nvars] is the input.
    Returns None when infeasible."""
    systems = [None] * (nvars + 1)
    systems[nvars] = [(tuple(c), k) for c, k in ineqs]
    for j in range(nvars, 0, -1):
        reduced = _eliminate_var(systems[j], j - 1)
        if reduced is None:
            return None
        systems[j - 1] = reduced
    for coeffs, const in systems[0]:
        if const < 0:
            return None
    return systems


def _bounds_at(system, values):
    """Bounds on the highest variable of `system` given lower-var values."""
    lo = hi = None
    j = len(values)
    for coeffs, const in system:
        a = coeffs[j]
        if a == 0:
            continue
        s = const
        for v, c in zip(values, coeffs):
            s += v * c
        bound = -s / a
        if a > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    return lo, hi


def fm_feasible_point(ineqs, nvars):
    """A rational point satisfying all inequalities, or None."""
    if nvars == 0:
        return [] if all(const >= 0 for _, const in ineqs) else None
    systems = _elimination_chain(ineqs, nvars)
    if systems is None:
        return None
    values = []
    for j in range(1, nvars + 1):
        lo, hi = _bounds_at(systems[j], values)
        if lo is not None:
            values.append(lo)
        elif hi is not None:
            values.append(hi)
        else:
            values.append(_Z)
    return values


def fm_interval(ineqs, nvars, idx):
    """Exact (min, max) of variable idx over the polyhedron; None marks an
    unbounded side. Assumes the system is feasible."""
    order = [idx] + [i for i in range(nvars) if i != idx]
    remapped = [(tuple(coeffs[i] for i in order), const) for coeffs, const in ineqs]
    system = remapped
    for j in range(nvars, 1, -1):
        system = _eliminate_var(system, j - 1)
        if system is None:
            return None, None
    lo, hi = _bounds_at(system, [])
    return lo, hi


def _substitute(ineqs, idx, value):
    out = []
    for coeffs, const in ineqs:
        a = coeffs[idx]
        rest = coeffs[:idx] + coeffs[idx + 1:]
        out.append((rest, const + a * value))
    return out


def _point_with_pin(ineqs, nvars, idx, value):
    rest = fm_feasible_point(_substitute(ineqs, idx, value), nvars - 1)
    if rest is None:
        return None
    return rest[:idx] + [value] + rest[idx:]


def nonneg_solution_kind(rows, rhs):
    """Classify {x >= 0 : A x = b}.

    Returns one of ("infeasible", None), ("unique", x), or
    ("multiple", (x1, x2)) with two distinct nonnegative solutions.
    """
    solved = solve_linear_system(rows, rhs)
    if solved is None:
        return "infeasible", None
    x0, basis = solved
    n = len(x0)
    k = len(basis)
    if k == 0:
        if all(v >= 0 for v in x0):
            return "unique", list(x0)
        return "infeasible", None
    ineqs = [
        (tuple(basis[j][r] for j in range(k)), x0[r])
        for r in range(n)
    ]
    if fm_feasible_point(ineqs, k) is None:
        return "infeasible", None

    def rebuild(t):
        return [x0[r] + sum(basis[j][r] * t[j] for j in range(k)) for r in range(n)]

    intervals = [fm_interval(ineqs, k, i) for i in range(k)]
    for i, (lo, hi) in enumerate(intervals):
        if lo is not None and hi is not None and lo == hi:
            continue
        if lo is not None and hi is not None:
            v1, v2 = lo, hi
        elif lo is not None:
            v1, v2 = lo, lo + 1
        elif hi is not None:
            v1, v2 = hi - 1, hi
        else:
            v1, v2 = _Z, _ONE
        t1 = _point_with_pin(ineqs, k, i, v1)
        t2 = _point_with_pin(ineqs, k, i, v2)
        return "multiple", (rebuild(t1), rebuild(t2))
    t = [iv[0] for iv in intervals]
    return "unique", rebuild(t)
