import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from semikit import (
    EventuallyConstSeq,
    NonnegScalar,
    NormKind,
    PiecewiseLinearFn,
    Radical,
    SemiLinearMap,
    SemiMatrix,
    SemiVector,
    cauchy_probe,
    dot,
    fn_metric,
    metric,
    norm,
    norm_equivalence_audit,
    operator_norm,
    seq_metric,
    sqrt_leq_sum_of_sqrts,
)
from semikit.errors import DimensionMismatch, IntervalMismatch, ResultTooLarge, UnsupportedTail

from conftest import F, NS, rand_scalar, rand_vector


def oracle_distance(x, y, kind):
    """Textbook signed-arithmetic distance, Fraction all the way."""
    diffs = [abs(F(a) - F(b)) for a, b in zip(x, y)]
    if kind is NormKind.L1:
        return sum(diffs)
    if kind is NormKind.LINF:
        return max(diffs)
    return sum(d * d for d in diffs)  # squared euclidean


class TestNorm:
    def test_pythagorean_triple(self):
        r = norm(SemiVector([3, 4]), NormKind.EUCLIDEAN)
        assert r.exact() == NS(5)

    def test_l1(self):
        assert norm(SemiVector([3, 4]), NormKind.L1) == NS(7)

    def test_linf(self):
        assert norm(SemiVector([3, 4]), NormKind.LINF) == NS(4)

    def test_irrational_norm_keeps_radicand(self):
        r = norm(SemiVector([1, 1]), NormKind.EUCLIDEAN)
        assert r.exact() is None
        assert r.radicand == NS(2)
        assert abs(float(r) - math.sqrt(2)) < 1e-15

    def test_dot_generates_euclidean(self, rng):
        for _ in range(100):
            v = rand_vector(rng, 4)
            assert dot(v, v) == norm(v, NormKind.EUCLIDEAN).radicand


class TestDot:
    def test_arithmetic(self):
        assert dot(SemiVector([1, 2]), SemiVector([3, 4])) == NS(11)

    def test_zero(self):
        assert dot(SemiVector([1, 2]), SemiVector([0, 0])) == NS(0)

    def test_symmetry_and_bilinearity(self, rng):
        for _ in range(60):
            u, v, w = (rand_vector(rng, 3) for _ in range(3))
            lam = rand_scalar(rng)
            assert dot(u, v) == dot(v, u)
            assert dot(u + w, v) == dot(u, v) + dot(w, v)
            assert dot(u.scale(lam), v) == lam * dot(u, v)

    def test_cauchy_schwarz(self, rng):
        for _ in range(60):
            u, v = rand_vector(rng, 4), rand_vector(rng, 4)
            # <u,v>^2 <= <u,u><v,v> exactly.
            lhs = dot(u, v)
            assert lhs * lhs <= dot(u, u) * dot(v, v)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot(SemiVector([1]), SemiVector([1, 2]))


class TestMetric:
    def test_euclidean_radicand(self):
        r = metric(SemiVector([3, 1]), SemiVector([1, 2]), NormKind.EUCLIDEAN)
        assert r.radicand == NS(5)

    def test_identity_of_indiscernibles(self, rng):
        v = rand_vector(rng, 3)
        assert metric(v, v, NormKind.L1) == NS(0)
        assert metric(v, v, NormKind.LINF) == NS(0)
        assert metric(v, v, NormKind.EUCLIDEAN).radicand == NS(0)

    def test_l1_example(self):
        assert metric(SemiVector([3, 1]), SemiVector([1, 2]), NormKind.L1) == NS(3)

    def test_exhaustive_grid_matches_signed_oracle(self):
        values = [NS(i) for i in range(4)]
        vectors = [SemiVector(c) for c in itertools.product(values, repeat=2)]
        for x in vectors:
            for y in vectors:
                assert F(metric(x, y, NormKind.L1)) == oracle_distance(x, y, NormKind.L1)
                assert F(metric(x, y, NormKind.LINF)) == oracle_distance(x, y, NormKind.LINF)
                rad = metric(x, y, NormKind.EUCLIDEAN).radicand
                assert F(rad) == oracle_distance(x, y, NormKind.EUCLIDEAN)

    def test_random_rational_pairs_match_oracle(self, rng):
        for _ in range(300):
            x, y = rand_vector(rng, 5), rand_vector(rng, 5)
            assert F(metric(x, y, NormKind.L1)) == oracle_distance(x, y, NormKind.L1)
            assert F(metric(x, y, NormKind.LINF)) == oracle_distance(x, y, NormKind.LINF)

    def test_symmetry(self, rng):
        for _ in range(100):
            x, y = rand_vector(rng, 4), rand_vector(rng, 4)
            for kind in (NormKind.L1, NormKind.LINF):
                assert metric(x, y, kind) == metric(y, x, kind)
            assert (
                metric(x, y, NormKind.EUCLIDEAN).radicand
                == metric(y, x, NormKind.EUCLIDEAN).radicand
            )

    def test_triangle_inequality(self, rng):
        for _ in range(300):
            x, y, z = (rand_vector(rng, 3) for _ in range(3))
            assert metric(x, z, NormKind.L1) <= metric(x, y, NormKind.L1) + metric(y, z, NormKind.L1)
            assert metric(x, z, NormKind.LINF) <= metric(x, y, NormKind.LINF) + metric(y, z, NormKind.LINF)
            s = metric(x, z, NormKind.EUCLIDEAN).radicand
            t = metric(x, y, NormKind.EUCLIDEAN).radicand
            u = metric(y, z, NormKind.EUCLIDEAN).radicand
            assert sqrt_leq_sum_of_sqrts(s, t, u)


class TestRadicalAlgebra:
    def test_comparisons_with_scalars(self):
        r = Radical(NS(5))
        assert r > NS(2)
        assert r < NS(3)
        assert Radical(NS(25)) == NS(5)

    def test_comparisons_between_radicals(self):
        assert Radical(NS(2)) < Radical(NS(3))

    def test_sqrt_sum_decision_matches_float_oracle(self, rng):
        for _ in range(500):
            s, t, u = (rand_scalar(rng, max_num=30) for _ in range(3))
            decided = sqrt_leq_sum_of_sqrts(s, t, u)
            lhs = math.sqrt(float(s))
            rhs = math.sqrt(float(t)) + math.sqrt(float(u))
            if abs(lhs - rhs) > 1e-9:
                assert decided == (lhs < rhs)


class TestNormEquivalence:
    def test_pythagorean_chain(self):
        v = SemiVector([3, 4])
        mx = norm(v, NormKind.LINF)
        l1 = norm(v, NormKind.L1)
        rad = norm(v, NormKind.EUCLIDEAN).radicand
        assert mx * mx <= rad <= l1 * l1
        assert l1 <= NS(2) * mx

    def test_basis_vector(self):
        v = SemiVector([0, 1, 0])
        assert norm(v, NormKind.LINF) == norm(v, NormKind.L1) == NS(1)
        assert norm(v, NormKind.EUCLIDEAN).exact() == NS(1)

    def test_audit_runs_clean(self):
        for n in (1, 3, 8):
            report = norm_equivalence_audit(samples=500, n=n, seed=5)
            assert report["holds"], report["violations"][:1]


class TestOperatorNorm:
    def test_l1_column_sums(self):
        report = operator_norm(SemiLinearMap(SemiMatrix([[1, 2], [3, 4]])), NormKind.L1)
        assert report["value"] == NS(6)
        assert report["column"] == 2

    def test_linf_row_sums(self):
        report = operator_norm(SemiLinearMap(SemiMatrix([[1, 2], [3, 4]])), NormKind.LINF)
        assert report["value"] == NS(7)
        assert report["row"] == 2

    def test_identity_all_kinds(self):
        t = SemiLinearMap.identity(3)
        assert operator_norm(t, NormKind.L1)["value"] == NS(1)
        assert operator_norm(t, NormKind.LINF)["value"] == NS(1)
        rep = operator_norm(t, NormKind.EUCLIDEAN)
        assert abs(rep["lower"] - 1.0) < 1e-9 and abs(rep["upper"] - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "rows, sigma",
        [
            # A^T A splits into {1, 3} (rank one, eigenvalue 601/225) and {2}.
            ([["1/3", 0, "8/5"], [0, 1, 0]], math.sqrt(601) / 15),
            ([[1, 0, 0], [0, 0, 0], [0, 0, 2]], 2.0),
        ],
    )
    def test_l2_reducible_gram(self, rows, sigma):
        rep = operator_norm(SemiLinearMap(SemiMatrix(rows)), NormKind.EUCLIDEAN)
        assert rep["converged"]
        assert rep["lower"] - 1e-12 <= sigma <= rep["upper"] + 1e-12
        assert rep["upper"] - rep["lower"] <= 1e-9 * sigma

    def test_l1_brute_force_over_basis_vectors(self, rng):
        for _ in range(20):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = SemiMatrix(
                [[rand_scalar(rng, max_num=9) for _ in range(cols)] for _ in range(rows)]
            )
            t = SemiLinearMap(m)
            brute = max(
                norm(t.apply(SemiVector.unit(cols, j)), NormKind.L1)
                for j in range(cols)
            )
            assert operator_norm(t, NormKind.L1)["value"] == brute

    def test_linf_brute_force_over_cube_corners(self, rng):
        for _ in range(10):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = SemiMatrix(
                [[rand_scalar(rng, max_num=9) for _ in range(cols)] for _ in range(rows)]
            )
            t = SemiLinearMap(m)
            corners = itertools.product((NS(0), NS(1)), repeat=cols)
            brute = max(
                norm(t.apply(SemiVector(c)), NormKind.LINF)
                for c in corners
                if any(not x.is_zero for x in c)
            )
            assert operator_norm(t, NormKind.LINF)["value"] == brute

    def test_bound_holds_on_samples(self, rng):
        m = SemiMatrix([[1, 2], [3, 4], [0, 1]])
        t = SemiLinearMap(m)
        opn_l1 = operator_norm(t, NormKind.L1)["value"]
        opn_inf = operator_norm(t, NormKind.LINF)["value"]
        for _ in range(200):
            v = rand_vector(rng, 2)
            assert norm(t.apply(v), NormKind.L1) <= opn_l1 * norm(v, NormKind.L1)
            assert norm(t.apply(v), NormKind.LINF) <= opn_inf * norm(v, NormKind.LINF)

    def test_attainment(self):
        m = SemiMatrix([[1, 2], [3, 4]])
        t = SemiLinearMap(m)
        rep = operator_norm(t, NormKind.L1)
        assert norm(t.apply(rep["attained_at"]), NormKind.L1) == rep["value"]
        rep = operator_norm(t, NormKind.LINF)
        assert norm(t.apply(rep["attained_at"]), NormKind.LINF) == rep["value"]

    def test_euclidean_bracket_contains_numpy_sigma(self):
        rng = random.Random(13)
        for _ in range(15):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = SemiMatrix(
                [[rand_scalar(rng, max_num=9) for _ in range(cols)] for _ in range(rows)]
            )
            rep = operator_norm(SemiLinearMap(m), NormKind.EUCLIDEAN, tol=1e-12)
            a = np.array(
                [[float(m.entry(i, j)) for j in range(cols)] for i in range(rows)]
            )
            sigma = float(np.linalg.svd(a, compute_uv=False)[0]) if a.any() else 0.0
            assert rep["lower"] <= sigma * (1 + 1e-9)
            assert rep["upper"] >= sigma * (1 - 1e-9)


class TestSequenceSpace:
    def test_sup_metric_example(self):
        x = EventuallyConstSeq([1, 2], 0)
        y = EventuallyConstSeq([0, 2], 0)
        assert seq_metric(x, y, "linf") == NS(1)

    def test_identity(self):
        x = EventuallyConstSeq(["1/3", 2], "1/7")
        assert seq_metric(x, x, "linf") == NS(0)

    def test_tail_gap_counts(self):
        x = EventuallyConstSeq([], "1/2")
        y = EventuallyConstSeq([], "1/3")
        assert seq_metric(x, y, "linf") == NS("1/6")

    def test_lp_pythagorean(self):
        x = EventuallyConstSeq([3, 0], 0)
        y = EventuallyConstSeq([0, 4], 0)
        d = seq_metric(x, y, ("lp", 2))
        assert d.exact() == NS(5)

    def test_lp_one_is_sum(self):
        x = EventuallyConstSeq([1, 2, 3], 0)
        y = EventuallyConstSeq([0, 0, 0], 0)
        assert seq_metric(x, y, ("lp", 1)) == NS(6)

    def test_lp_needs_zero_tails(self):
        x = EventuallyConstSeq([1], "1/2")
        y = EventuallyConstSeq([1], 0)
        with pytest.raises(UnsupportedTail):
            seq_metric(x, y, ("lp", 2))

    def test_lp_noninteger_p_float(self):
        x = EventuallyConstSeq([1], 0)
        y = EventuallyConstSeq([0], 0)
        assert seq_metric(x, y, ("lp", "3/2")) == pytest.approx(1.0)

    @pytest.mark.parametrize("gaps", [[10**300], [10**205] * 6])
    def test_lp_noninteger_p_past_float_range(self, gaps):
        # A single power past float range raises OverflowError in float
        # arithmetic; a sum of finite powers past it turns into inf.
        x = EventuallyConstSeq(gaps, 0)
        y = EventuallyConstSeq([0] * len(gaps), 0)
        with pytest.raises(ResultTooLarge):
            seq_metric(x, y, ("lp", "3/2"))

    def test_sup_matches_signed_oracle(self, rng):
        for _ in range(100):
            xp = [rand_scalar(rng) for _ in range(rng.randint(0, 4))]
            yp = [rand_scalar(rng) for _ in range(rng.randint(0, 4))]
            xt, yt = rand_scalar(rng), rand_scalar(rng)
            x, y = EventuallyConstSeq(xp, xt), EventuallyConstSeq(yp, yt)
            span = max(len(xp), len(yp)) + 1
            oracle = max(
                abs(F(x.value_at(i)) - F(y.value_at(i))) for i in range(span)
            )
            assert F(seq_metric(x, y, "linf")) == oracle


class TestFunctionSpace:
    def test_equal_functions(self):
        f = PiecewiseLinearFn(0, 1, [0, 1], [2, 3])
        assert fn_metric(f, f) == NS(0)

    def test_constants(self):
        f = PiecewiseLinearFn.constant(NS(2), 0, 1)
        g = PiecewiseLinearFn.constant(NS(5), 0, 1)
        assert fn_metric(f, g) == NS(3)

    def test_ramp_vs_constant(self):
        ramp = PiecewiseLinearFn(0, 2, [0, 1, 2], [0, 1, 2])
        one = PiecewiseLinearFn.constant(NS(1), 0, 2)
        assert fn_metric(ramp, one) == NS(1)

    def test_interval_mismatch(self):
        f = PiecewiseLinearFn.constant(NS(1), 0, 1)
        g = PiecewiseLinearFn.constant(NS(1), 0, 2)
        with pytest.raises(IntervalMismatch):
            fn_metric(f, g)

    def test_exact_interpolation(self):
        f = PiecewiseLinearFn(0, 2, [0, 2], [0, 2])
        assert f.evaluate(NS("1/3")) == NS("1/3")
        g = PiecewiseLinearFn(0, 2, [0, 1, 2], [0, 4, 1])
        assert g.evaluate(NS("1/2")) == NS(2)
        assert g.evaluate(NS("3/2")) == NS("5/2")

    def test_max_attained_between_native_breakpoints(self):
        # f has a kink at 1 that g's grid does not share; the union
        # refinement must still see the true sup.
        f = PiecewiseLinearFn(0, 2, [0, 1, 2], [0, 2, 0])
        g = PiecewiseLinearFn.constant(NS(0), 0, 2)
        assert fn_metric(f, g) == NS(2)

    def test_sum_and_scale(self):
        f = PiecewiseLinearFn(0, 1, [0, 1], [0, 2])
        g = PiecewiseLinearFn(0, 1, [0, "1/2", 1], [1, 1, 1])
        h = f + g
        assert h.evaluate(NS("1/2")) == NS(2)
        assert f.scale(NS(3)).evaluate(NS(1)) == NS(6)


class TestCauchyProbe:
    def test_constant_family(self):
        c = EventuallyConstSeq([5], "1/2")
        report = cauchy_probe(
            lambda n: c, "linf", [(NS("1/10"), 3)], limit=c
        )
        assert report["cauchy_ok"] and report["limit_ok"]

    def test_reciprocal_family(self):
        def gen(n):
            return EventuallyConstSeq([NonnegScalar(1, n)], 0)

        zero = EventuallyConstSeq([], 0)
        schedule = [(NonnegScalar(1, 4), 5), (NonnegScalar(1, 10), 11)]
        report = cauchy_probe(gen, "linf", schedule, limit=zero)
        assert report["cauchy_ok"] and report["limit_ok"]

    def test_function_family(self):
        def gen(n):
            return PiecewiseLinearFn.constant(NS(1) + NonnegScalar(1, n), 0, 1)

        one = PiecewiseLinearFn.constant(NS(1), 0, 1)
        schedule = [(NonnegScalar(1, 4), 5), (NonnegScalar(1, 20), 21)]
        report = cauchy_probe(gen, "fn", schedule, limit=one)
        assert report["cauchy_ok"] and report["limit_ok"]

    def test_divergent_family_fails(self):
        def gen(n):
            return EventuallyConstSeq([NS(n)], 0)

        report = cauchy_probe(gen, "linf", [(NS(1), 2)])
        assert not report["cauchy_ok"]
        assert report["failures"]
