import random

import pytest

from semikit import (
    AlgebraHom,
    BracketStructure,
    NonnegScalar,
    SemiLinearMap,
    SemiMatrix,
    SemiVector,
    hom_verify,
    inverse_laws_audit,
    invert,
    is_monomial,
    left_regular_embed,
    left_regular_embedding_audit,
    lie_audit,
    monomial,
)
from semikit.errors import NotInvertible, OrderMismatch
from semikit.semialgebra import random_monomial, random_square

from conftest import NS, rand_scalar


class TestInverses:
    def test_diagonal(self):
        u = SemiMatrix([[2, 0], [0, 3]])
        ui = invert(u)
        assert ui == SemiMatrix([["1/2", 0], [0, "1/3"]])
        assert invert(ui) == u

    def test_permutation_pair_anti_homomorphism(self):
        u = monomial([1, 0], [1, 1])
        v = monomial([0, 1], [2, 3])
        assert invert(u @ v) == invert(v) @ invert(u)

    def test_permutation_inverse_matches_composition_oracle(self, rng):
        # Independent oracle: a permutation matrix acts by (u x)_i =
        # x_{pu[i]}, so the inverse of u v must act by the inverse of the
        # composed index map.
        for _ in range(20):
            n = rng.randint(2, 4)
            pu = list(range(n)); rng.shuffle(pu)
            pv = list(range(n)); rng.shuffle(pv)
            u = monomial(pu, [1] * n)
            v = monomial(pv, [1] * n)
            composed = [pv[pu[i]] for i in range(n)]
            inverse_perm = [0] * n
            for i, c in enumerate(composed):
                inverse_perm[c] = i
            assert invert(u @ v) == monomial(inverse_perm, [1] * n)

    def test_shear_not_invertible(self):
        with pytest.raises(NotInvertible):
            invert(SemiMatrix([[1, 1], [0, 1]]))

    def test_singular_not_invertible(self):
        with pytest.raises(NotInvertible):
            invert(SemiMatrix([[1, 1], [1, 1]]))

    def test_found_inverses_are_monomial(self, rng):
        # The monomial theorem: a nonnegative matrix has a nonnegative
        # inverse exactly when it is monomial (Berman and Plemmons).
        hits = 0
        for _ in range(200):
            m = random_square(rng, 3, max_num=3)
            try:
                invert(m)
            except NotInvertible:
                assert not is_monomial(m) or any(
                    m.entry(i, j).is_zero
                    for i in range(3)
                    for j in range(3)
                    if is_monomial(m)
                )
            else:
                hits += 1
                assert is_monomial(m)
        # random dense matrices are almost never monomial
        assert hits <= 5

    def test_audit_on_monomials(self, rng):
        for _ in range(20):
            u, v = random_monomial(rng, 3), random_monomial(rng, 3)
            report = inverse_laws_audit(u, v)
            assert report["ok"]

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            inverse_laws_audit(SemiMatrix.identity(2), SemiMatrix.identity(3))


class TestHomVerify:
    def test_identity_hom(self):
        h = AlgebraHom.from_callable(2, lambda x: x, "identity")
        report = hom_verify(h, samples=40, seed=1, surjective=True)
        assert report["ok"]
        assert report["zero_preserved"] and report["identity_preserved"]

    def test_monomial_conjugation(self, rng):
        mono = monomial([1, 0], [NS(2), NS(3)])
        h = AlgebraHom.monomial_conjugation(mono)
        report = hom_verify(h, samples=60, seed=2, surjective=True)
        assert report["ok"], report["failures"][:1]

    def test_entrywise_square_fails_additivity(self):
        def square(x):
            return SemiMatrix(
                [[x.entry(i, j) * x.entry(i, j) for j in range(2)] for i in range(2)]
            )

        h = AlgebraHom.from_callable(2, square, "entrywise_square")
        report = hom_verify(h, samples=40, seed=3)
        assert not report["ok"]
        assert any(f["law"] == "additive" for f in report["failures"])

    def test_composite_of_homs_verifies(self, rng):
        m1, m2 = random_monomial(rng, 2), random_monomial(rng, 2)
        h1 = AlgebraHom.monomial_conjugation(m1)
        h2 = AlgebraHom.monomial_conjugation(m2)
        composite = AlgebraHom.from_callable(
            2, lambda x: h2.apply(h1.apply(x)), "h2∘h1"
        )
        assert hom_verify(composite, samples=40, seed=4)["ok"]

    def test_isomorphism_relation_sampled_equivalence(self, rng):
        # reflexive: identity; symmetric: inverse conjugation; transitive:
        # composition. All three stay verified homs.
        m = random_monomial(rng, 3)
        forward = AlgebraHom.monomial_conjugation(m)
        backward = AlgebraHom.monomial_conjugation(invert(m))
        assert hom_verify(forward, samples=25, seed=5)["ok"]
        assert hom_verify(backward, samples=25, seed=6)["ok"]
        roundtrip = AlgebraHom.from_callable(
            3, lambda x: backward.apply(forward.apply(x)), "round"
        )
        report = hom_verify(roundtrip, samples=25, seed=7)
        assert report["ok"]
        x = random_square(rng, 3)
        assert roundtrip.apply(x) == x

    def test_table_hom(self):
        eye = SemiMatrix.identity(2)
        two = eye.scale(NS(2))
        zero = SemiMatrix.zero(2, 2)
        pairs = [(zero, zero), (eye, eye), (two, two), (eye + two, eye + two)]
        h = AlgebraHom.from_table(pairs)
        report = hom_verify(h)
        assert report["ok"]
        assert report["law_instances_checked"] > 0

    def test_table_hom_catches_bad_entry(self):
        eye = SemiMatrix.identity(2)
        two = eye.scale(NS(2))
        three = eye.scale(NS(3))
        pairs = [(eye, eye), (two, two), (eye + two, three + eye)]  # 3I+I != 3I
        h = AlgebraHom.from_table(pairs)
        report = hom_verify(h)
        assert not report["ok"]


class TestLeftRegularEmbedding:
    def test_identity_embeds_to_identity(self):
        assert left_regular_embed(SemiMatrix.identity(2)) == SemiLinearMap.identity(4)

    def test_evaluation_at_identity_recovers_element(self):
        v = SemiMatrix([[2, 0], [0, 3]])
        op = left_regular_embed(v)
        eye_flat = SemiVector([1, 0, 0, 1])
        assert op.apply(eye_flat) == SemiVector([2, 0, 0, 3])

    def test_operator_matches_direct_product(self, rng):
        for _ in range(30):
            v = random_square(rng, 2)
            x = random_square(rng, 2)
            op = left_regular_embed(v)
            flat_x = SemiVector(
                [x.entry(i, j) for i in range(2) for j in range(2)]
            )
            direct = v @ x
            assert op.apply(flat_x) == SemiVector(
                [direct.entry(i, j) for i in range(2) for j in range(2)]
            )

    def test_multiplicativity_on_random_pairs(self, rng):
        for _ in range(30):
            u, v = random_square(rng, 2), random_square(rng, 2)
            assert left_regular_embed(u @ v) == left_regular_embed(u).compose(
                left_regular_embed(v)
            )

    def test_audit(self, rng):
        for _ in range(10):
            u, v = random_square(rng, 3), random_square(rng, 3)
            report = left_regular_embedding_audit(u, v, rand_scalar(rng))
            assert report["ok"]


class TestLieAudit:
    def test_zero_bracket(self):
        report = lie_audit(BracketStructure.zero(3))
        assert report["verdict"] == "zero_bracket"
        assert report["alternating_ok"]
        assert report["jacobi_sample_failures"] == 0

    def test_single_nonzero_constant_falsified(self):
        constants = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]  # c[0][1][0] = 1
        report = lie_audit(BracketStructure(constants))
        assert report["verdict"] == "falsified"
        w = report["alternating_witnesses"][0]
        assert w["vector"] == SemiVector([1, 1])
        assert not w["bracket"].is_zero

    def test_diagonal_constant_caught_on_basis_vector(self):
        constants = [[["1/2", 0], [0, 0]], [[0, 0], [0, 0]]]  # c[0][0][0]
        report = lie_audit(BracketStructure(constants))
        assert report["verdict"] == "falsified"
        assert report["alternating_witnesses"][0]["vector"] == SemiVector([1, 0])

    def test_alternating_pass_forces_all_constants_zero(self, rng):
        # Any structure passing the exhaustive alternating check has no
        # nonzero constants: nonnegative entries cannot cancel.
        for _ in range(20):
            n = rng.randint(1, 3)
            constants = [
                [
                    [
                        rand_scalar(rng, max_num=2) if rng.random() < 0.2 else NS(0)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            report = lie_audit(BracketStructure(constants))
            if report["alternating_ok"]:
                assert not report["nonzero_constants"]
                assert report["verdict"] == "zero_bracket"
            else:
                assert report["nonzero_constants"]

    def test_bracket_bilinear(self, rng):
        structure = BracketStructure.zero(2)
        u = SemiVector([1, 2])
        v = SemiVector([3, 4])
        assert structure.bracket(u, v) == SemiVector([0, 0])
