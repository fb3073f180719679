import random
from fractions import Fraction

import numpy as np
import pytest

from semikit import (
    NonnegScalar,
    SemiBasis,
    SemiLinearMap,
    SemiMatrix,
    SemiVector,
    diagonal_representation_check,
    eigenspace_closure_check,
    perron_power_iteration,
    solve_2x2_diagonal,
    solve_2x2_uppertriangular,
    verify_eigenpair,
)
from semikit.errors import (
    CaseOutsidePaper,
    NoConvergence,
    NotSquare,
    ReducibleMatrix,
    SemikitError,
    ZeroVector,
)

from conftest import NS, rand_scalar


def diag(a, b):
    return SemiLinearMap(SemiMatrix([[a, 0], [0, b]]))


class TestVerify:
    def test_diagonal_pair(self):
        assert verify_eigenpair(diag(2, 5), NS(2), SemiVector([1, 0]))

    def test_identity_any_vector(self, rng):
        t = SemiLinearMap.identity(3)
        for _ in range(20):
            v = SemiVector([rand_scalar(rng) for _ in range(3)])
            if not v.is_zero:
                assert verify_eigenpair(t, NS(1), v)

    def test_rejects_wrong_value(self):
        assert not verify_eigenpair(diag(2, 5), NS(3), SemiVector([1, 1]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            verify_eigenpair(diag(2, 5), NS(2), SemiVector([0, 0]))

    def test_not_square(self):
        with pytest.raises(NotSquare):
            verify_eigenpair(SemiLinearMap(SemiMatrix([[1, 2]])), NS(1), SemiVector([1, 1]))

    def test_zero_eigenvalue_with_kernel_vector(self):
        # diag(a, 0): the second axis is genuinely an eigenvector for 0.
        assert verify_eigenpair(diag(3, 0), NS(0), SemiVector([0, 1]))

    def test_scaling_invariance(self, rng):
        t = diag(2, 5)
        for _ in range(50):
            alpha = rand_scalar(rng, allow_zero=False)
            assert verify_eigenpair(t, NS(2), SemiVector([1, 0]).scale(alpha))


class TestDiagonalSolver:
    def test_both_positive(self):
        pairs = solve_2x2_diagonal(NS(2), NS(5))
        assert [(p.value, p.vector) for p in pairs] == [
            (NS(2), SemiVector([1, 0])),
            (NS(5), SemiVector([0, 1])),
        ]

    def test_b_zero(self):
        pairs = solve_2x2_diagonal(NS(3), NS(0))
        assert [(p.value, p.vector) for p in pairs] == [(NS(3), SemiVector([1, 0]))]

    def test_a_zero(self):
        pairs = solve_2x2_diagonal(NS(0), NS(7))
        assert [(p.value, p.vector) for p in pairs] == [(NS(7), SemiVector([0, 1]))]

    def test_outside_cases(self):
        with pytest.raises(CaseOutsidePaper):
            solve_2x2_diagonal(NS(2), NS(2))
        with pytest.raises(CaseOutsidePaper):
            solve_2x2_diagonal(NS(0), NS(0))

    def test_every_output_verifies(self, rng):
        for _ in range(100):
            a, b = rand_scalar(rng), rand_scalar(rng)
            if a == b or (a.is_zero and b.is_zero):
                continue
            t = diag(a, b)
            for p in solve_2x2_diagonal(a, b):
                assert verify_eigenpair(t, p.value, p.vector)

    def test_agrees_with_grid_brute_force(self, rng):
        # Independent oracle: enumerate candidate eigenvalues from the
        # rational grid p/q with p, q <= 20 and candidate eigenvectors
        # from a coordinate grid, and keep the values admitting a solution
        # of A v = lambda v.
        grid_vals = sorted(
            {Fraction(p, q) for p in range(0, 21) for q in range(1, 21)}
        )
        vec_grid = [
            (x, y)
            for x in range(0, 3)
            for y in range(0, 3)
            if (x, y) != (0, 0)
        ]
        for _ in range(200):
            a = Fraction(rng.randint(0, 20), rng.randint(1, 20))
            b = Fraction(rng.randint(0, 20), rng.randint(1, 20))
            if a == b or (a == 0 and b == 0):
                continue
            brute = set()
            for lam in grid_vals:
                for x, y in vec_grid:
                    if a * x == lam * x and b * y == lam * y:
                        brute.add(lam)
            expected = {
                Fraction(p.value.numerator, p.value.denominator)
                for p in solve_2x2_diagonal(
                    NonnegScalar(a.numerator, a.denominator),
                    NonnegScalar(b.numerator, b.denominator),
                )
            }
            assert expected <= brute
            # brute may also contain 0 via the kernel direction when a or
            # b is 0; restrict to the solver's advertised case table.
            extras = brute - expected
            assert all(v == 0 for v in extras)


class TestUpperTriangularSolver:
    def test_worked_case(self):
        pairs = solve_2x2_uppertriangular(NS(3), NS(2))
        assert [(p.value, p.vector) for p in pairs] == [(NS(3), SemiVector([1, 0]))]

    def test_pattern_case(self):
        pairs = solve_2x2_uppertriangular(NS(1), NS(5))
        assert [(p.value, p.vector) for p in pairs] == [(NS(1), SemiVector([1, 0]))]

    def test_requires_distinct_positive(self):
        with pytest.raises(CaseOutsidePaper):
            solve_2x2_uppertriangular(NS(2), NS(2))
        with pytest.raises(CaseOutsidePaper):
            solve_2x2_uppertriangular(NS(2), NS(0))

    def test_second_coordinate_branch_rejected(self, rng):
        # A nonzero y would force b = 0; so no vector with y != 0 verifies.
        for _ in range(50):
            a = rand_scalar(rng, allow_zero=False)
            b = rand_scalar(rng, allow_zero=False)
            if a == b:
                continue
            t = SemiLinearMap(SemiMatrix([[a, b], [NS(0), a]]))
            y = rand_scalar(rng, allow_zero=False)
            x = rand_scalar(rng)
            assert not verify_eigenpair(t, a, SemiVector([x, y]))

    def test_outputs_verify(self, rng):
        for _ in range(100):
            a = rand_scalar(rng, allow_zero=False)
            b = rand_scalar(rng, allow_zero=False)
            if a == b:
                continue
            t = SemiLinearMap(SemiMatrix([[a, b], [NS(0), a]]))
            for p in solve_2x2_uppertriangular(a, b):
                assert verify_eigenpair(t, p.value, p.vector)


class TestEigenspaceClosure:
    def test_diagonal_ray(self):
        report = eigenspace_closure_check(
            diag(2, 5), NS(2), members=[SemiVector([1, 0]), SemiVector([3, 0])]
        )
        assert report["closed"]

    def test_zero_vector_is_member(self):
        report = eigenspace_closure_check(
            diag(2, 5), NS(2), members=[SemiVector([0, 0])]
        )
        assert report["members_valid"] and report["closed"]

    def test_identity_whole_space(self, rng):
        t = SemiLinearMap.identity(3)
        members = [SemiVector([rand_scalar(rng) for _ in range(3)]) for _ in range(5)]
        report = eigenspace_closure_check(t, NS(1), members=members)
        assert report["closed"]

    def test_invalid_member_reported(self):
        report = eigenspace_closure_check(
            diag(2, 5), NS(2), members=[SemiVector([1, 1])]
        )
        assert not report["members_valid"]

    def test_default_members_from_standard_basis(self):
        report = eigenspace_closure_check(diag(2, 5), NS(5))
        assert report["member_count"] == 2  # e2 and the zero vector
        assert report["closed"]


def _np_dominant(matrix: SemiMatrix) -> float:
    a = np.array(
        [[float(matrix.entry(i, j)) for j in range(matrix.ncols)] for i in range(matrix.nrows)]
    )
    eigvals = np.linalg.eigvals(a)
    return float(np.max(eigvals.real))


class TestPerron:
    def test_symmetric_2x2(self):
        pair = perron_power_iteration(SemiMatrix([[2, 1], [1, 2]]), tol=1e-12)
        assert abs(float(pair.value) - 3.0) < 1e-9
        assert all(abs(float(x) - 0.5) < 1e-9 for x in pair.vector)

    def test_1x1(self):
        pair = perron_power_iteration(SemiMatrix([["7/2"]]), tol=1e-12)
        assert float(pair.value) == 3.5
        assert pair.vector == SemiVector([1])

    def test_unit_l1_normalization_exact(self):
        pair = perron_power_iteration(SemiMatrix([[1, 3], [2, 1]]), tol=1e-10)
        total = sum((x for x in pair.vector), NS(0))
        assert total == NS(1)

    def test_matches_numpy_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = SemiMatrix(
                [
                    [NonnegScalar(rng.randint(1, 50), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            pair = perron_power_iteration(m, tol=1e-12)
            lam = float(pair.value)
            oracle = _np_dominant(m)
            assert abs(lam - oracle) <= 1e-9 * max(1.0, abs(oracle))
            assert pair.certificate["residual"] <= 1e-12
            lo, hi = pair.certificate["cw_bracket"]
            assert lo <= oracle * (1 + 1e-9) and hi >= oracle * (1 - 1e-9)

    def test_permutation_conjugation_invariance(self):
        rng = random.Random(3)
        m = SemiMatrix(
            [[NonnegScalar(rng.randint(1, 9)) for _ in range(4)] for _ in range(4)]
        )
        perm = [2, 0, 3, 1]
        p_rows = [[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)]
        p = SemiMatrix(p_rows)
        conjugated = p @ m @ p.transpose()
        lam1 = float(perron_power_iteration(m, tol=1e-12).value)
        lam2 = float(perron_power_iteration(conjugated, tol=1e-12).value)
        assert abs(lam1 - lam2) <= 1e-9 * lam1

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleMatrix):
            perron_power_iteration(SemiMatrix([[1, 0], [0, 1]]))
        with pytest.raises(ReducibleMatrix):
            perron_power_iteration(SemiMatrix([[0, 1], [1, 0]]))

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            perron_power_iteration(
                SemiMatrix([[1, 2], [3, 4]]), tol=1e-15, max_iter=2
            )

    def test_primitive_with_one_zero_entry(self):
        # [[1,1],[1,0]] is primitive (A^2 > 0); the probe must accept it.
        pair = perron_power_iteration(SemiMatrix([[1, 1], [1, 0]]), tol=1e-12)
        golden = (1 + 5 ** 0.5) / 2
        assert abs(float(pair.value) - golden) < 1e-9


class TestDiagonalRepresentation:
    def test_diagonal_in_standard_basis(self):
        report = diagonal_representation_check(diag(2, 5), SemiBasis.standard(2))
        assert report["diagonal"]
        assert report["eigenvalues"] == [NS(2), NS(5)]
        assert report["directions_agree"]

    def test_upper_triangular_not_diagonal(self):
        t = SemiLinearMap(SemiMatrix([[3, 2], [0, 3]]))
        report = diagonal_representation_check(t, SemiBasis.standard(2))
        assert not report["diagonal"]
        assert report["non_eigen_indices"] == [2]
        assert report["directions_agree"]

    def test_identity_any_valid_basis(self):
        t = SemiLinearMap.identity(2)
        report = diagonal_representation_check(t, SemiBasis([[0, 4], [3, 0]]))
        assert report["diagonal"]
        assert report["eigenvalues"] == [NS(1), NS(1)]

    def test_scaled_basis_of_eigenvectors(self):
        report = diagonal_representation_check(diag(2, 5), SemiBasis([["1/2", 0], [0, 7]]))
        assert report["diagonal"]
        assert report["eigenvalues"] == [NS(2), NS(5)]


def test_nonpositive_tolerance_raises_a_semikit_error():
    # a SemikitError that is still the ValueError this call used to raise
    with pytest.raises(SemikitError) as exc:
        perron_power_iteration(SemiMatrix([[1, 1], [1, 1]]), tol=0)
    assert isinstance(exc.value, ValueError)
