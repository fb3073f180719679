import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semikit import (
    FuzzyNumber,
    FuzzyOrder,
    LnVector,
    NonnegScalar,
    Ordering,
    admissible_leq,
    axiom_audit_ln,
    fz_add,
    fz_leq,
    fz_mul,
    fz_scale,
    ln_oplus,
    ln_scale,
    mcdm_rank,
    product_order_leq,
)
from semikit.errors import DimensionMismatch, EmptyInput, NotABijection, SemikitError
from semikit.fuzzy import _grid_vectors

from conftest import NS


def interval(x: FuzzyNumber, level):
    return x.interval_at(Fraction(level))


@pytest.mark.parametrize(
    "build",
    [
        lambda: FuzzyNumber([1], [(2, 1)]),
        lambda: FuzzyNumber(["1/2", 1], [(0, 1), (-1, 1)]),
        lambda: FuzzyNumber.triangular(3, 2, 1),
        lambda: LnVector(["0.5", "0.2"]),
        lambda: LnVector(["0.5", "3/2"]),
        lambda: ln_scale(2, LnVector(["0.5"])),
        lambda: mcdm_rank([["0.5"]], ["3/2"], [1]),
    ],
    ids=["endpoints", "nesting", "triangular", "unsorted", "past-one", "scale-past-one", "weight"],
)
def test_malformed_arguments_raise_a_semikit_error(build):
    # a SemikitError that is still the ValueError these calls used to raise
    with pytest.raises(SemikitError) as exc:
        build()
    assert isinstance(exc.value, ValueError)


class TestFuzzyNumbers:
    def test_crisp_add(self):
        z = fz_add(FuzzyNumber.crisp(2), FuzzyNumber.crisp(3))
        assert interval(z, 1) == (5, 5)

    def test_triangular_add_all_levels(self):
        x = FuzzyNumber.triangular(1, 2, 3)
        y = FuzzyNumber.triangular(2, 3, 4)
        z = fz_add(x, y)
        # per-level interval-arithmetic oracle
        for alpha in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            xl, xr = interval(x, alpha)
            yl, yr = interval(y, alpha)
            assert interval(z, alpha) == (xl + yl, xr + yr)
        assert interval(z, 1) == (5, 5)

    def test_triangular_cut_oracle(self):
        x = FuzzyNumber.triangular(1, 2, 3)
        lo, hi = interval(x, Fraction(1, 2))
        assert (lo, hi) == (Fraction(3, 2), Fraction(5, 2))

    def test_scale_by_zero_gives_crisp_zero(self):
        x = FuzzyNumber.triangular(1, 2, 3)
        z = fz_scale(NS(0), x)
        assert all(iv == (0, 0) for iv in z.intervals)

    def test_mul_crisp(self):
        z = fz_mul(FuzzyNumber.crisp(2), FuzzyNumber.crisp("3/2"))
        assert interval(z, 1) == (3, 3)

    def test_mul_negative_support_four_corners(self):
        x = FuzzyNumber(("1",), ((-1, 2),))
        y = FuzzyNumber(("1",), ((3, 4),))
        z = fz_mul(x, y)
        assert interval(z, 1) == (-4, 8)

    def test_nesting_preserved_by_ops(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b, c = sorted(rng.randint(-5, 5) for _ in range(3))
            d, e, f = sorted(rng.randint(-5, 5) for _ in range(3))
            x = FuzzyNumber.triangular(a, b, c)
            y = FuzzyNumber.triangular(d, e, f)
            for z in (fz_add(x, y), fz_mul(x, y), fz_scale(NS("1/2"), x)):
                for i in range(len(z.levels) - 1):
                    lo0, hi0 = z.intervals[i]
                    lo1, hi1 = z.intervals[i + 1]
                    assert lo0 <= lo1 and hi1 <= hi0

    def test_grid_refinement(self):
        x = FuzzyNumber.crisp(1)  # single level 1
        y = FuzzyNumber.triangular(0, 1, 2)
        z = fz_add(x, y)
        assert len(z.levels) == len(y.levels)

    def test_leq_reflexive(self):
        x = FuzzyNumber.triangular(1, 2, 3)
        assert fz_leq(x, x) is FuzzyOrder.EQUAL

    def test_leq_crisp(self):
        assert fz_leq(FuzzyNumber.crisp(1), FuzzyNumber.crisp(2)) is FuzzyOrder.LEQ

    def test_leq_incomparable(self):
        x = FuzzyNumber(("1",), ((0, 3),))
        y = FuzzyNumber(("1",), ((1, 2),))
        assert fz_leq(x, y) is FuzzyOrder.INCOMPARABLE

    def test_leq_transitive_on_samples(self):
        rng = random.Random(9)
        tris = [
            FuzzyNumber.triangular(*sorted(rng.randint(-6, 6) for _ in range(3)))
            for _ in range(25)
        ]
        for x, y, z in itertools.islice(itertools.product(tris, repeat=3), 4000):
            if fz_leq(x, y) in (FuzzyOrder.LEQ, FuzzyOrder.EQUAL) and fz_leq(
                y, z
            ) in (FuzzyOrder.LEQ, FuzzyOrder.EQUAL):
                assert fz_leq(x, z) in (FuzzyOrder.LEQ, FuzzyOrder.EQUAL)


class TestLnVector:
    def test_sorted_required(self):
        with pytest.raises(ValueError):
            LnVector(["0.5", "0.2"])

    def test_unit_interval_required(self):
        with pytest.raises(ValueError):
            LnVector(["0.5", "1.5"])

    def test_oplus_truncates(self):
        assert ln_oplus(LnVector(["0.2", "0.5"]), LnVector(["0.4", "0.7"])) == LnVector(
            ["0.6", "1"]
        )

    def test_scale_by_zero(self):
        assert ln_scale(0, LnVector(["0.3", "0.9"])) == LnVector([0, 0])

    def test_saturation_absorbs(self):
        ones = LnVector([1, 1])
        assert ln_oplus(ones, LnVector(["0.1", "0.2"])) == ones

    def test_sortedness_preserved(self):
        rng = random.Random(17)
        for _ in range(200):
            u = LnVector(sorted(Fraction(rng.randint(0, 10), 10) for _ in range(4)))
            v = LnVector(sorted(Fraction(rng.randint(0, 10), 10) for _ in range(4)))
            w = ln_oplus(u, v)
            assert list(w.coords) == sorted(w.coords)
            s = ln_scale(Fraction(rng.randint(0, 10), 10), u)
            assert list(s.coords) == sorted(s.coords)


class TestOrders:
    def test_product_order_reflexive(self):
        u = LnVector(["0.1", "0.4"])
        assert product_order_leq(u, u)

    def test_product_order_componentwise(self):
        assert product_order_leq(LnVector(["0.1", "0.2"]), LnVector(["0.2", "0.3"]))

    def test_product_order_incomparable(self):
        assert not product_order_leq(LnVector(["0.1", "0.9"]), LnVector(["0.2", "0.8"]))
        assert not product_order_leq(LnVector(["0.2", "0.8"]), LnVector(["0.1", "0.9"]))

    def test_admissible_identity_permutation(self):
        got = admissible_leq(LnVector(["0.1", "0.9"]), LnVector(["0.2", "0.8"]), (1, 2))
        assert got is Ordering.LESS

    def test_admissible_equal(self):
        u = LnVector(["0.3", "0.6"])
        assert admissible_leq(u, u, (2, 1)) is Ordering.EQUAL

    def test_not_a_bijection(self):
        with pytest.raises(NotABijection):
            admissible_leq(LnVector([0, 1]), LnVector([0, 1]), (1, 1))

    def test_totality_and_refinement_exhaustive_n2(self):
        grid = _grid_vectors(2)
        assert len(grid) == 66
        for perm in ((1, 2), (2, 1)):
            for u in grid:
                for v in grid:
                    verdict = admissible_leq(u, v, perm)
                    opposite = admissible_leq(v, u, perm)
                    # totality with antisymmetry
                    if verdict is Ordering.EQUAL:
                        assert u == v and opposite is Ordering.EQUAL
                    else:
                        assert opposite is not verdict
                    # refinement of the product order
                    if product_order_leq(u, v):
                        assert verdict in (Ordering.LESS, Ordering.EQUAL)

    @given(st.integers(3, 5), st.data())
    @settings(max_examples=200)
    def test_refinement_sampled_higher_dims(self, n, data):
        coords = st.lists(
            st.integers(0, 10).map(lambda k: Fraction(k, 10)), min_size=n, max_size=n
        )
        u = LnVector(sorted(data.draw(coords)))
        v = LnVector(sorted(data.draw(coords)))
        perm = data.draw(st.permutations(list(range(1, n + 1))))
        if product_order_leq(u, v):
            assert admissible_leq(u, v, perm) in (Ordering.LESS, Ordering.EQUAL)


class TestAxiomAudit:
    def test_monoid_laws_hold(self):
        report = axiom_audit_ln(n=2, seed=0, samples=400)
        for law in ("add_associative", "add_commutative", "zero_identity",
                    "scalar_mul_associative", "one_identity", "order_compatibility"):
            assert report["laws"][law]["holds"], law

    def test_cancellation_fails_with_witness(self):
        report = axiom_audit_ln(n=1, seed=0, samples=800)
        assert not report["laws"]["add_cancellation"]["holds"]
        w = report["canonical_witnesses"]["cancellation"]
        assert w["collision"]
        assert w["u_plus_v"] == LnVector([1])
        assert w["u_plus_w"] == LnVector([1])

    def test_distributivity_fails_with_canonical_witness(self):
        report = axiom_audit_ln(n=1, seed=3, samples=800)
        w = report["canonical_witnesses"]["scalar_distributivity"]
        assert w["fails"]
        assert w["lhs"] == LnVector(["0.5"])
        assert w["rhs"] == LnVector(["0.8"])

    def test_report_is_not_a_gate(self):
        # The audit reports law-by-law; failing laws do not raise.
        report = axiom_audit_ln(n=2, seed=1, samples=400)
        assert isinstance(report["laws"], dict)


class TestMcdm:
    def test_single_alternative(self):
        report = mcdm_rank([LnVector(["0.2", "0.4"])], ["1", "1"], (1, 2))
        assert len(report["ranking"]) == 1
        assert report["ranking"][0]["input_index"] == 1

    def test_unit_weights_identity_permutation(self):
        alts = [LnVector(["0.2", "0.3"]), LnVector(["0.4", "0.5"])]
        report = mcdm_rank(alts, ["1", "1"], (1, 2))
        assert [r["input_index"] for r in report["ranking"]] == [2, 1]

    def test_tie_stability(self):
        a = LnVector(["0.3", "0.4"])
        alts = [a, LnVector(["0.1", "0.2"]), a]
        report = mcdm_rank(alts, ["1", "1"], (1, 2))
        assert [r["input_index"] for r in report["ranking"]] == [1, 3, 2]

    def test_truncation_events_logged(self):
        alts = [LnVector(["0.9", "0.9"])]
        report = mcdm_rank(alts, ["1", "1"], (1, 2))
        assert report["truncation_total"] == 1
        assert report["ranking"][0]["score"] == LnVector(["0.9", "1"])

    def test_weight_rescaling_invariance_without_truncation(self):
        rng = random.Random(23)
        for _ in range(30):
            alts = [
                LnVector(sorted(Fraction(rng.randint(0, 5), 10) for _ in range(3)))
                for _ in range(4)
            ]
            w_full = [Fraction(1, 2)] * 3
            w_half = [Fraction(1, 4)] * 3
            r1 = mcdm_rank(alts, w_full, (1, 2, 3))
            r2 = mcdm_rank(alts, w_half, (1, 2, 3))
            if r1["truncation_total"] == 0 and r2["truncation_total"] == 0:
                assert [x["input_index"] for x in r1["ranking"]] == [
                    x["input_index"] for x in r2["ranking"]
                ]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            mcdm_rank([], [], (1,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mcdm_rank([LnVector([0, 1])], ["1"], (1, 2))
