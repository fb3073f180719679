import pytest

from semikit import (
    NonnegScalar,
    SemiBasis,
    SemiLinearMap,
    SemiMatrix,
    SemiVector,
    coordinate_iso,
    image_member,
    injectivity_probe,
    kernel,
)
from semikit import _signed
from semikit.errors import DimensionMismatch, NotABasis

from conftest import NS, rand_scalar, rand_vector


def T(rows):
    return SemiLinearMap(SemiMatrix(rows))


class TestApply:
    def test_identity(self, rng):
        t = SemiLinearMap.identity(3)
        v = rand_vector(rng, 3)
        assert t.apply(v) == v

    def test_diagonal_action(self):
        assert T([[2, 0], [0, 3]]).apply(SemiVector([1, 1])) == SemiVector([2, 3])

    def test_zero_maps_to_zero(self, rng):
        t = T([[1, 2], [3, 4]])
        assert t.apply(SemiVector.zero(2)) == SemiVector.zero(2)

    def test_semilinearity(self, rng):
        t = T([["1/2", 3], [0, "2/3"], [5, 1]])
        for _ in range(100):
            u, v = rand_vector(rng, 2), rand_vector(rng, 2)
            lam = rand_scalar(rng)
            assert t.apply(u + v) == t.apply(u) + t.apply(v)
            assert t.apply(v.scale(lam)) == t.apply(v).scale(lam)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            T([[1, 2]]).apply(SemiVector([1]))


class TestKernel:
    def test_zero_column(self):
        k = kernel(T([[1, 0], [2, 0]]))
        assert list(k) == [SemiVector([0, 1])]

    def test_trivial_kernel(self):
        assert len(kernel(T([[1, 2], [3, 4]]))) == 0

    def test_zero_matrix(self):
        k = kernel(T([[0, 0], [0, 0]]))
        assert list(k) == [SemiVector([1, 0]), SemiVector([0, 1])]

    def test_zero_column_criterion_matches_feasibility(self, rng):
        # For each coordinate j: some kernel vector with v_j = 1 exists
        # iff column j is zero. Cross-check with the sealed oracle.
        for _ in range(25):
            rows_n = rng.randint(1, 4)
            cols_n = rng.randint(1, 4)
            m = SemiMatrix(
                [
                    [rand_scalar(rng, max_num=3) for _ in range(cols_n)]
                    for _ in range(rows_n)
                ]
            )
            t = SemiLinearMap(m)
            zero_cols = {
                j for j in range(cols_n)
                if all(e.is_zero for e in m.column(j))
            }
            for j in range(cols_n):
                rows = [[e._q for e in m.row(i)] for i in range(rows_n)]
                rows.append([1 if c == j else 0 for c in range(cols_n)])
                rhs = [0] * rows_n + [1]
                witness = _signed.solve_nonneg(rows, rhs)
                assert (witness is not None) == (j in zero_cols)
            assert {g for g in kernel(t)} == {SemiVector.unit(cols_n, j) for j in zero_cols}

    def test_kernel_members_closed(self, rng):
        t = T([[1, 0, 0], [2, 0, 0]])
        gens = list(kernel(t))
        for _ in range(50):
            u = SemiVector.zero(3)
            for g in gens:
                u = u + g.scale(rand_scalar(rng))
            assert t.apply(u) == SemiVector.zero(2)


class TestImageMember:
    def test_one_equation(self):
        d = image_member(T([[1, 1]]), SemiVector([5]))
        assert d.member
        assert T([[1, 1]]).apply(d.witness) == SemiVector([5])

    def test_identity_always_member(self, rng):
        t = SemiLinearMap.identity(3)
        w = rand_vector(rng, 3)
        d = image_member(t, w)
        assert d.member and d.witness == w

    def test_infeasible(self):
        assert not image_member(T([[1], [1]]), SemiVector([1, 2])).member

    def test_nonneg_constraint_matters(self):
        # (1, 3) = a(1, 1) + b(1, 4) needs b = 2/3, a = 1/3: feasible;
        # (3, 1) would need a negative coefficient on the second column.
        t = T([[1, 1], [1, 4]])
        assert image_member(t, SemiVector([1, 3])).member
        assert not image_member(t, SemiVector([3, 1])).member

    def test_image_closed_under_operations(self, rng):
        t = T([[1, 2], [0, 1], [3, 0]])
        for _ in range(40):
            w1 = t.apply(rand_vector(rng, 2))
            w2 = t.apply(rand_vector(rng, 2))
            lam = rand_scalar(rng)
            assert image_member(t, w1 + w2).member
            assert image_member(t, w1.scale(lam)).member

    @pytest.mark.parametrize("n", [13, 17])
    def test_identity_beyond_old_cap(self, rng, n):
        # 13 and 17 lie above the former dimension cap (12) and its ceiling (16).
        w = rand_vector(rng, n)
        d = image_member(SemiLinearMap.identity(n), w)
        assert d.member and d.witness == w


class TestInjectivityProbe:
    def test_dim1_exact_injective(self):
        report = injectivity_probe(T([[2]]))
        assert report["verdict"] == "injective" and report["exact"]

    def test_dim1_zero_map(self):
        report = injectivity_probe(T([[0]]))
        assert report["verdict"] == "collision"

    def test_collapsing_columns(self):
        report = injectivity_probe(T([[1, 1]]))
        assert report["verdict"] == "collision"
        u, v = report["witness"]
        assert u != v
        t = T([[1, 1]])
        assert t.apply(u) == t.apply(v)

    def test_proportional_columns(self):
        report = injectivity_probe(T([[1, 2], [2, 4]]))
        assert report["verdict"] == "collision"
        u, v = report["witness"]
        t = T([[1, 2], [2, 4]])
        assert u != v and t.apply(u) == t.apply(v)

    def test_identity_no_collision(self):
        report = injectivity_probe(SemiLinearMap.identity(3))
        assert report["verdict"] == "injective" and report["exact"]
        plus, minus = report["left_inverse"]
        assert plus == SemiMatrix.identity(3) and minus.is_zero


class TestHomSpace:
    def test_zero_map_is_identity_of_hom(self, rng):
        t = T([[1, 2], [3, 4]])
        z = SemiLinearMap.zero(2, 2)
        assert t + z == t

    def test_pointwise_addition(self, rng):
        t1, t2 = T([[1, 0], [0, 2]]), T([[0, 3], [1, 1]])
        for _ in range(50):
            v = rand_vector(rng, 2)
            assert (t1 + t2).apply(v) == t1.apply(v) + t2.apply(v)

    def test_pointwise_scaling(self, rng):
        t = T([[1, 2], [3, 4]])
        lam = NS("5/3")
        for _ in range(50):
            v = rand_vector(rng, 2)
            assert t.scale(lam).apply(v) == t.apply(v).scale(lam)


class TestCoordinateIso:
    def test_standard_basis_gives_identity(self):
        fwd, back = coordinate_iso(SemiBasis.standard(3))
        assert fwd == SemiLinearMap.identity(3)
        assert back == SemiLinearMap.identity(3)

    def test_scaled_axes(self):
        fwd, back = coordinate_iso(SemiBasis([[2, 0], [0, 3]]))
        assert fwd.apply(SemiVector([2, 3])) == SemiVector([1, 1])
        assert back.apply(SemiVector([1, 1])) == SemiVector([2, 3])

    def test_round_trips(self, rng):
        basis = SemiBasis([[0, 5, 0], ["1/2", 0, 0], [0, 0, "7/3"]])
        fwd, back = coordinate_iso(basis)
        for _ in range(100):
            v = rand_vector(rng, 3)
            assert back.apply(fwd.apply(v)) == v

    def test_not_a_basis(self):
        with pytest.raises(NotABasis):
            coordinate_iso(SemiBasis([[1, 0], [1, 1]]))

    def test_redundant_family_rejected(self):
        with pytest.raises(NotABasis):
            coordinate_iso(SemiBasis([[1, 0], [0, 1], [1, 1]]))
