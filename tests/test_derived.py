import random
from fractions import Fraction

import pytest

from semikit import (
    BUNDLED_METRICS,
    CandidatePreserver,
    FiniteSemiMetric,
    LinearMapQ,
    NonnegScalar,
    PiecewiseLinearFn,
    category_laws_audit,
    preserver_falsify,
    pullback_closure_audit,
    pullback_inner,
    pullback_seminorm,
    space_closure_audit,
)
from semikit.derived import (
    abs_linear,
    gram_form,
    max_linear,
    random_inner,
    random_seminorm,
    random_semimetric,
    random_signed_vector,
    random_sublinear,
    semimetric_violations,
    validate_inner,
    validate_seminorm,
    validate_sublinear,
    weighted_l1,
    weighted_max_abs,
)
from semikit.errors import (
    CarrierMismatch,
    DimensionMismatch,
    DomainTooSmall,
    NonComposableChain,
)

from conftest import NS


def plf(points, values, b):
    return PiecewiseLinearFn(0, b, points, values)


def preserver(points, values, b):
    return CandidatePreserver(plf(points, values, b))


SQUARE_ON_GRID = preserver([0, 1, 2], [0, 1, 4], 2)   # agrees with t^2 at 0,1,2
DOUBLE = preserver([0, 2], [0, 4], 2)                 # t -> 2t
CAP = preserver([0, 1, 2], [0, 1, 1], 2)              # t -> min(t, 1)


class TestFiniteSemiMetric:
    def test_construction_checks_triangle(self):
        with pytest.raises(ValueError):
            FiniteSemiMetric([[0, 5, 1], [5, 0, 1], [1, 1, 0]])

    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            FiniteSemiMetric([[0, 1], [2, 0]])

    def test_zero_diagonal_required(self):
        with pytest.raises(ValueError):
            FiniteSemiMetric([[1, 1], [1, 0]])

    def test_distinct_points_at_zero_distance_allowed(self):
        # semi-metric: no definiteness requirement
        m = FiniteSemiMetric([[0, 0], [0, 0]])
        assert m.entry(0, 1) == NS(0)

    def test_random_generator_valid(self, rng):
        for size in (2, 4, 6):
            m = random_semimetric(rng, size)
            assert not semimetric_violations(m.table)

    def test_sum_and_scale_stay_valid(self, rng):
        for _ in range(20):
            a = random_semimetric(rng, 4)
            b = random_semimetric(rng, 4)
            assert not semimetric_violations((a + b).table)
            assert not semimetric_violations(a.scale(NS("7/3")).table)


class TestSpaceClosure:
    def test_semimetric_family(self, rng):
        a, b = random_semimetric(rng, 4), random_semimetric(rng, 4)
        report = space_closure_audit("semimetric", a, b, NS(2))
        assert report["ok"] and report["exhaustive"]

    def test_zero_scaling_gives_zero_object(self, rng):
        a = random_semimetric(rng, 4)
        report = space_closure_audit("semimetric", a, a, NS(0))
        assert report["ok"]

    def test_seminorm_family(self):
        l1 = weighted_l1([1, 1, 1])
        linf = weighted_max_abs([1, 1, 1])
        report = space_closure_audit("seminorm", l1, linf, NS(2), samples=64, seed=4)
        assert report["ok"]

    def test_semiinner_family(self, rng):
        a, b = random_inner(rng, 3), random_inner(rng, 3)
        report = space_closure_audit("semiinner", a, b, NS("1/2"), samples=48, seed=9)
        assert report["ok"]

    def test_sublinear_family(self, rng):
        a, b = random_sublinear(rng, 3), random_sublinear(rng, 3)
        report = space_closure_audit("sublinear", a, b, NS(3), samples=48, seed=2)
        assert report["ok"]

    def test_carrier_mismatch(self, rng):
        with pytest.raises(CarrierMismatch):
            space_closure_audit(
                "semimetric", random_semimetric(rng, 3), random_semimetric(rng, 4), NS(1)
            )

    def test_validators_catch_non_members(self):
        # A bare linear functional is sublinear but not a seminorm.
        f = max_linear([[1, 0]])
        assert not validate_seminorm(f, samples=64, seed=1)["ok"]
        assert validate_sublinear(f, samples=64, seed=1)["ok"]

    def test_inner_validator_catches_asymmetry(self):
        from semikit import BilinearForm

        skew = BilinearForm(2, lambda u, v: u[0] * v[1], "skew")
        assert not validate_inner(skew, samples=64, seed=1)["ok"]


class TestShapes:
    """Arguments and maps of the wrong shape are refused, not truncated."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: weighted_l1([1, 1, 1])((1, 2)),
            lambda: weighted_max_abs([1, 1])((1, 2, 3)),
            lambda: abs_linear([1, -1])((1,)),
            lambda: max_linear([[1, 2, 3]])((5,)),
            lambda: gram_form([[1, 2, 3]])((1,), (1,)),
            lambda: gram_form([[1, 2]])((1, 2), (1,)),
            lambda: (weighted_l1([1, 1]) + abs_linear([1, 1]))((1, 2, 3)),
            lambda: LinearMapQ([[1, 2], [3, 4]]).apply((1,)),
        ],
        ids=["l1", "max_abs", "abs_linear", "max_linear", "gram", "gram_second", "sum", "apply"],
    )
    def test_wrong_argument_length(self, call):
        with pytest.raises(DimensionMismatch):
            call()

    @pytest.mark.parametrize(
        "make", [weighted_l1, weighted_max_abs, abs_linear, max_linear, gram_form]
    )
    def test_empty_coefficients_are_refused(self, make):
        with pytest.raises(DimensionMismatch):
            make([])

    def test_pullback_checks_its_domain(self):
        pulled, _ = pullback_seminorm(weighted_l1([1, 1]), LinearMapQ([[1, 0, 2], [0, 1, 0]]))
        with pytest.raises(DimensionMismatch):
            pulled((1, 2))

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [], [[]], [[], []]])
    def test_empty_or_ragged_map(self, rows):
        with pytest.raises(DimensionMismatch):
            LinearMapQ(rows)


class TestPreserver:
    def test_square_falsified_on_line_metric(self):
        report = preserver_falsify(SQUARE_ON_GRID)
        assert report["verdict"] == "falsified"
        w = report["witness"]
        assert w["metric_index"] == 0
        assert w["lhs"] == NS(4) and w["rhs"] == NS(2)

    def test_doubling_not_falsified(self):
        report = preserver_falsify(DOUBLE)
        assert report["verdict"] == "not_falsified"
        assert all(c["verdict"] == "not_falsified" for c in report["closure"])

    def test_concave_cap_not_falsified(self):
        report = preserver_falsify(CAP)
        assert report["verdict"] == "not_falsified"

    def test_domain_too_small(self):
        small = preserver([0, 1], [0, 1], 1)
        with pytest.raises(DomainTooSmall):
            preserver_falsify(small)

    def test_monotone_in_metrics(self):
        # Falsified on the bundle stays falsified when metrics are added.
        subset = [BUNDLED_METRICS[0]]
        r1 = preserver_falsify(SQUARE_ON_GRID, metrics=subset)
        r2 = preserver_falsify(SQUARE_ON_GRID, metrics=BUNDLED_METRICS)
        assert r1["verdict"] == r2["verdict"] == "falsified"
        # Not falsified on the discrete metric alone, falsified once the
        # line metric joins the set.
        discrete_only = [BUNDLED_METRICS[1]]
        r3 = preserver_falsify(SQUARE_ON_GRID, metrics=discrete_only)
        assert r3["verdict"] == "not_falsified"

    def test_closure_of_survivors(self):
        report = preserver_falsify(DOUBLE)
        labels = [c["combination"] for c in report["closure"]]
        assert "sum" in labels and any(l.startswith("scale:") for l in labels)


class TestPullbacks:
    def test_identity_pullback_pointwise(self, rng):
        n = weighted_l1([1, 2, 3])
        t = LinearMapQ.identity(3)
        pulled, report = pullback_seminorm(n, t)
        assert report["ok"]
        for _ in range(30):
            v = random_signed_vector(rng, 3)
            assert pulled(v) == n(v)

    def test_zero_map_gives_zero_functional(self, rng):
        n = weighted_l1([1, 1])
        t = LinearMapQ([[0, 0, 0], [0, 0, 0]])
        pulled, report = pullback_seminorm(n, t)
        assert report["ok"]
        assert pulled(random_signed_vector(rng, 3)) == 0

    def test_column_map_doubles(self):
        n = weighted_l1([1, 1])
        t = LinearMapQ([[1], [1]])
        pulled, report = pullback_seminorm(n, t)
        assert report["ok"]
        assert pulled((Fraction(5),)) == 10
        assert pulled((Fraction(-3),)) == 6

    def test_injectivity_certificate_checks_definiteness(self):
        n = weighted_l1([1, 1])
        t = LinearMapQ([[1, 0], [0, 1]])
        _, report = pullback_seminorm(n, t, injective_certificate=True)
        assert report["definiteness_ok"]
        degenerate = LinearMapQ([[1, 0], [0, 0]])
        _, report = pullback_seminorm(n, degenerate, injective_certificate=True)
        assert not report["definiteness_ok"]

    def test_closure_audit_exact(self, rng):
        t = LinearMapQ([random_signed_vector(rng, 3) for _ in range(2)])
        norms = [random_seminorm(rng, 2), random_seminorm(rng, 2)]
        report = pullback_closure_audit(t, norms, NS(2), samples=60, seed=8)
        assert report["ok"]

    def test_inner_pullback_identity(self, rng):
        p = gram_form([[1, 0], [0, 1]])
        t = LinearMapQ.identity(2)
        pulled, report = pullback_inner(p, t, t)
        assert report["ok"]
        u = random_signed_vector(rng, 2)
        v = random_signed_vector(rng, 2)
        assert pulled(u, v) == p(u, v)

    def test_inner_pullback_zero_map(self, rng):
        p = gram_form([[1, 2], [0, 1]])
        z = LinearMapQ([[0, 0], [0, 0]])
        pulled, _ = pullback_inner(p, LinearMapQ.identity(2), z)
        assert pulled(random_signed_vector(rng, 2), random_signed_vector(rng, 2)) == 0

    def test_inner_pullback_matches_matrix_oracle(self, rng):
        # T1 = T2 = M: the pulled form is the Gram form of (G M) where
        # P = gram(G); check against an independent Fraction computation.
        g_rows = [(Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))]
        m_rows = [(Fraction(2), Fraction(-1)), (Fraction(1), Fraction(3))]
        p = gram_form(g_rows)
        t = LinearMapQ(m_rows)
        pulled, report = pullback_inner(p, t, t)
        assert report["ok"]

        def oracle(u, v):
            def mat_apply(rows, x):
                return [sum(c * xi for c, xi in zip(row, x)) for row in rows]

            gu = mat_apply(g_rows, mat_apply(m_rows, u))
            gv = mat_apply(g_rows, mat_apply(m_rows, v))
            return sum(a * b for a, b in zip(gu, gv))

        for _ in range(30):
            u = random_signed_vector(rng, 2)
            v = random_signed_vector(rng, 2)
            assert pulled(u, v) == oracle(list(u), list(v))

    def test_asymmetric_pullback_reported(self, rng):
        # (u, v) -> u_0 * v_1 is bilinear but neither symmetric nor
        # diagonally nonnegative; the audit must say so.
        p = gram_form([[1, 0], [0, 1]])
        t1 = LinearMapQ([[1, 0], [0, 0]])
        t2 = LinearMapQ([[0, 1], [0, 0]])
        _, report = pullback_inner(p, t1, t2, samples=64, seed=3)
        assert not report["ok"]
        assert any(f["axiom"] == "symmetry" for f in report["failures"])


class TestCategoryLaws:
    def test_identity_chain(self, rng):
        ident = LinearMapQ.identity(2)
        norms = [weighted_l1([1, 2]), weighted_max_abs([3, 1])]
        report = category_laws_audit(ident, ident, ident, norms, samples=20, seed=0)
        assert report["ok"]

    def test_random_chains_exact(self, rng):
        for trial in range(10):
            dims = [rng.randint(1, 4) for _ in range(4)]
            t1 = LinearMapQ([random_signed_vector(rng, dims[1]) for _ in range(dims[0])])
            t2 = LinearMapQ([random_signed_vector(rng, dims[2]) for _ in range(dims[1])])
            t3 = LinearMapQ([random_signed_vector(rng, dims[3]) for _ in range(dims[2])])
            norms = [random_seminorm(rng, dims[0]) for _ in range(2)]
            report = category_laws_audit(t1, t2, t3, norms, samples=25, seed=trial)
            assert report["ok"], report["failures"][:1]

    def test_non_composable_chain(self):
        t1 = LinearMapQ([[1, 2]])      # 1x2
        t2 = LinearMapQ([[1], [2]])    # 2x1
        t3 = LinearMapQ([[1, 2, 3]])   # 1x3: t2 expects in=1, t3 provides out=1: fine
        bad = LinearMapQ([[1, 2], [3, 4], [5, 6]])  # 3x2 breaks t2->bad link
        with pytest.raises(NonComposableChain):
            category_laws_audit(t1, bad, t3, [weighted_l1([1])], samples=1)
