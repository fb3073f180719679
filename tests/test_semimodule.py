import random
from fractions import Fraction

import pytest

from semikit import _signed
from semikit import (
    NonnegScalar,
    SemiBasis,
    SemiMatrix,
    SemiPolynomial,
    SemiVector,
    ZERO,
    coords,
    is_simple_space,
    is_symmetrizable,
    subspace_check,
)
from semikit.errors import (
    DimensionMismatch,
    NonUnique,
    NotRepresentable,
)
from semikit.semimodule import axiom_audit, check_cancellation, check_svs_laws

from conftest import NS, rand_scalar, rand_vector


class TestVectorOps:
    def test_componentwise_add(self):
        assert SemiVector([1, 2]) + SemiVector([3, 4]) == SemiVector([4, 6])

    def test_zero_scalar_annihilates(self, rng):
        v = rand_vector(rng, 4)
        assert v.scale(ZERO) == SemiVector.zero(4)

    def test_one_identity(self, rng):
        v = rand_vector(rng, 4)
        assert v.scale(NS(1)) == v

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SemiVector([1]) + SemiVector([1, 2])

    def test_rmul_sugar(self):
        assert NS(2) * SemiVector([1, 3]) == SemiVector([2, 6])


class TestSimplicity:
    def test_zero_vector_symmetrizable(self):
        assert is_symmetrizable(SemiVector([0, 0]))

    def test_nonzero_not_symmetrizable(self):
        assert not is_symmetrizable(SemiVector([1, 0]))

    def test_coordinate_spaces_are_simple(self):
        assert is_simple_space(5)

    def test_symmetrizable_means_no_nonneg_partner(self, rng):
        # u + v = 0 has no nonnegative solution for v unless u = 0.
        for _ in range(100):
            u = rand_vector(rng, 3)
            if not u.is_zero:
                assert not is_symmetrizable(u)


class TestSubspaceCheck:
    def test_diagonal_matrices_flattened(self):
        # diag(a, b) in the 2x2 matrix space, flattened row-major.
        gens = [SemiVector([1, 0, 0, 0]), SemiVector([0, 0, 0, 1])]
        report = subspace_check(gens, samples=30, seed=3)
        assert report["closed"]
        assert report["zero_vector_member"]

    def test_single_ray(self):
        report = subspace_check([SemiVector([1, 0])], samples=20, seed=1)
        assert report["closed"]

    def test_probe_outside_ray(self):
        report = subspace_check(
            [SemiVector([1, 1])], samples=5, seed=0, probes=[SemiVector([1, 2])]
        )
        assert report["probes"][0]["member"] is False

    def test_probe_inside_with_witness(self):
        report = subspace_check(
            [SemiVector([1, 1]), SemiVector([1, 0])],
            samples=5,
            seed=0,
            probes=[SemiVector([3, 2])],
        )
        probe = report["probes"][0]
        assert probe["member"]
        rebuilt = SemiVector.zero(2)
        for c, g in zip(probe["witness"], [SemiVector([1, 1]), SemiVector([1, 0])]):
            rebuilt = rebuilt + g.scale(c)
        assert rebuilt == SemiVector([3, 2])


class TestCoords:
    def test_standard_basis_readoff(self):
        b = SemiBasis.standard(2)
        c = coords(SemiVector([2, 3]), b)
        assert c.support == ((1, NS(2)), (2, NS(3)))

    def test_zero_vector_empty_support(self):
        b = SemiBasis.standard(3)
        assert coords(SemiVector.zero(3), b).support == ()

    def test_exact_solve_with_nonstandard_basis(self):
        b = SemiBasis([[1, 0], [1, 1]])
        c = coords(SemiVector([2, 1]), b)
        assert c.support == ((1, NS(1)), (2, NS(1)))

    def test_not_representable(self):
        b = SemiBasis([[1, 0], [1, 1]])
        with pytest.raises(NotRepresentable):
            coords(SemiVector([0, 1]), b)

    def test_non_unique_reports_witnesses(self):
        b = SemiBasis([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(NonUnique) as exc:
            coords(SemiVector([2, 2]), b)
        w1, w2 = exc.value.witnesses
        assert w1 != w2

    @pytest.mark.parametrize(
        "second",
        [
            (Fraction(2), Fraction(2), Fraction(1)),  # does not rebuild (2, 2)
            (Fraction(2), Fraction(2), Fraction(0)),  # equals the first witness
        ],
    )
    def test_non_unique_witnesses_are_reverified(self, monkeypatch, second):
        first = (Fraction(2), Fraction(2), Fraction(0))
        monkeypatch.setattr(
            _signed, "nonneg_solution_kind", lambda rows, rhs: ("multiple", (first, second))
        )
        b = SemiBasis([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(AssertionError):
            coords(SemiVector([2, 2]), b)

    def test_support_strictly_positive(self):
        b = SemiBasis([[1, 0], [0, 1], [2, 0]])
        c = coords(SemiVector([0, 5]), b)
        assert all(not v.is_zero for _, v in c.support)

    def test_stable_under_basis_permutation(self, rng):
        # The family is unique, so re-solving with permuted columns must
        # give the same coefficients (mapped through the permutation).
        b_elems = [SemiVector([2, 0, 0]), SemiVector([0, 3, 0]), SemiVector([0, 0, 5])]
        v = SemiVector([4, 3, 10])
        base = dict(coords(v, SemiBasis(b_elems)).support)
        for _ in range(5):
            perm = list(range(3))
            rng.shuffle(perm)
            permuted = SemiBasis([b_elems[p] for p in perm])
            got = dict(coords(v, permuted).support)
            remapped = {perm[i - 1] + 1: val for i, val in got.items()}
            assert remapped == base

    @pytest.mark.parametrize("n", [13, 17])
    def test_standard_basis_beyond_old_cap(self, rng, n):
        v = rand_vector(rng, n)
        c = coords(v, SemiBasis.standard(n))
        assert c.dense(n) == tuple(v)
        assert c.certificate["unique"]


class TestRegularity:
    def test_scalar_regularity(self, rng):
        for _ in range(300):
            v = rand_vector(rng, 3)
            if v.is_zero:
                continue
            lam = rand_scalar(rng)
            assert (v.scale(lam) == SemiVector.zero(3)) == lam.is_zero

    def test_scaling_injective_on_nonzero_vectors(self, rng):
        for _ in range(300):
            v = rand_vector(rng, 3)
            if v.is_zero:
                continue
            a, b = rand_scalar(rng), rand_scalar(rng)
            assert (v.scale(a) == v.scale(b)) == (a == b)


class TestAxiomAudit:
    @pytest.mark.parametrize("space", ["rn", "matrices", "polynomials"])
    def test_all_laws_hold(self, space):
        report = axiom_audit(space=space, dim=3, samples=300, seed=11)
        assert report["all_hold"], report["witnesses"]

    def test_law_checker_flags_broken_structures(self):
        # Sanity: the checker is not vacuous; feed it a deliberately
        # wrong "sum" through a stand-in object.
        class Bogus:
            def __init__(self, x):
                self.x = x

            def __add__(self, other):
                return Bogus(self.x + getattr(other, "x", 0) + 1)

            __radd__ = __add__

            def scale(self, lam):
                return Bogus(self.x * lam.numerator)

            def __eq__(self, other):
                return isinstance(other, Bogus) and self.x == other.x

        bad = check_svs_laws(Bogus(1), Bogus(2), Bogus(3), NS(2), NS(3))
        assert bad  # several laws must fail

    def test_cancellation_checker(self, rng):
        for _ in range(100):
            u, v, w = (rand_vector(rng, 3) for _ in range(3))
            assert check_cancellation(u, v, w)


class TestMatrixAndPolynomial:
    def test_matrix_add_scale(self):
        m = SemiMatrix([[1, 2], [3, 4]])
        assert (m + m) == m.scale(NS(2))

    def test_matrix_identity_product(self):
        m = SemiMatrix([[1, 2], [3, 4]])
        assert SemiMatrix.identity(2) @ m == m

    def test_matrix_apply(self):
        m = SemiMatrix([[2, 0], [0, 3]])
        assert m.apply(SemiVector([1, 1])) == SemiVector([2, 3])

    def test_polynomial_degree_normalization(self):
        p = SemiPolynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert SemiPolynomial([]).degree is None
        assert SemiPolynomial([0, 0]).is_zero

    def test_polynomial_add_and_evaluate(self):
        p = SemiPolynomial([1, 2])       # 1 + 2x
        q = SemiPolynomial([0, 0, 3])    # 3x^2
        r = p + q
        assert r.degree == 2
        assert r.evaluate(NS(2)) == NS(1) + NS(4) + NS(12)

    def test_polynomial_scale(self):
        p = SemiPolynomial(["1/2", "1/3"])
        assert p.scale(NS(6)) == SemiPolynomial([3, 2])
