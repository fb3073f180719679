"""Differential tests: the scaled-form LnVector and law-audit samplers
against the Fraction references in audit_reference.py."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semikit import fuzzy, jsonio, semimodule
from semikit.fuzzy import (
    LnVector,
    Ordering,
    admissible_leq,
    axiom_audit_ln,
    ln_oplus,
    ln_scale,
    product_order_leq,
)
from semikit.semimodule import _random_form, axiom_audit, random_scalar

import audit_reference as ref

_BIG = 2**64

# Unit-interval entries: tenths (the audit grid), zeros, and fractions with
# unrelated ~64-bit denominators.
UNITS = (
    st.builds(Fraction, st.integers(0, 10), st.just(10))
    | st.just(Fraction(0))
    | st.builds(lambda k, d: Fraction(k % (d + 1), d), st.integers(0, _BIG), st.integers(1, _BIG))
)


@st.composite
def ln_pairs(draw):
    n = draw(st.integers(1, 8))
    vec = st.lists(UNITS, min_size=n, max_size=n).map(lambda xs: tuple(sorted(xs)))
    zero = st.just((Fraction(0),) * n)
    u, v = draw(vec | zero), draw(vec | zero)
    return u, v, draw(UNITS), draw(st.permutations(range(1, n + 1)))


def _assert_same_vector(got, expected):
    """got (an LnVector) holds exactly the tuple `expected`, and its scaled
    form and hash are those of the validating constructor's vector."""
    assert isinstance(got.coords, tuple) and got.coords == expected
    assert all(type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1 for c in got.coords)
    ints, den = got._form
    assert math.gcd(den, *ints) == 1
    rebuilt = LnVector(expected)
    assert got == rebuilt and hash(got) == hash(rebuilt)


@settings(max_examples=300, deadline=None)
@given(ln_pairs())
def test_ln_ops_match_fraction_reference(case):
    u, v, r, perm = case
    lu, lv = LnVector(u), LnVector(v)
    _assert_same_vector(ln_oplus(lu, lv), ref.oplus(u, v))
    _assert_same_vector(ln_scale(r, lu), ref.scale(r, u))
    _assert_same_vector(ln_scale(r, ln_oplus(lu, lv)), ref.scale(r, ref.oplus(u, v)))
    assert product_order_leq(lu, lv) == ref.product_leq(u, v)
    assert product_order_leq(lv, lu) == ref.product_leq(v, u)
    assert admissible_leq(lu, lv, perm) == Ordering(ref.admissible(u, v, perm))
    assert (lu == lv) == (u == v)
    if u == v:
        assert hash(lu) == hash(lv)


def test_ln_oplus_saturates_across_denominators():
    third, big = Fraction(1, 3), Fraction(_BIG - 1, _BIG)
    got = ln_oplus(LnVector([third, big]), LnVector([Fraction(2, 3), big]))
    _assert_same_vector(got, (Fraction(1), Fraction(1)))


def _rendered(report):
    return jsonio.render_json(jsonio.to_jsonable(report))


@pytest.mark.parametrize("seed", [0, 1, 7, 4001])
def test_axiom_audit_ln_exhaustive_matches_reference(seed):
    got, expected = axiom_audit_ln(n=2, seed=seed), ref.axiom_audit_ln(n=2, seed=seed)
    assert got["laws"]["add_commutative"]["checked"] == 66 * 66
    assert _rendered(got) == _rendered(expected)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_axiom_audit_ln_sampled_matches_reference(seed):
    got = axiom_audit_ln(n=3, seed=seed, samples=400)
    expected = ref.axiom_audit_ln(n=3, seed=seed, samples=400)
    assert got["laws"]["add_cancellation"]["witness"] is not None
    assert _rendered(got) == _rendered(expected)


@pytest.mark.parametrize("n", [2, 3])
def test_axiom_audit_ln_failing_commutativity_matches_reference(n, monkeypatch):
    # A sum that keeps its left operand whenever that one ends higher is
    # not commutative: the scan must report the reference's first failing
    # ordered pair and the same number of pairs checked.
    oplus, ref_oplus = fuzzy.ln_oplus, ref.oplus
    monkeypatch.setattr(fuzzy, "ln_oplus", lambda u, v: u if u[-1] > v[-1] else oplus(u, v))
    monkeypatch.setattr(ref, "oplus", lambda u, v: u if u[-1] > v[-1] else ref_oplus(u, v))
    got, expected = axiom_audit_ln(n=n, seed=1, samples=200), ref.axiom_audit_ln(n=n, seed=1, samples=200)
    assert not got["laws"]["add_commutative"]["holds"]
    assert _rendered(got) == _rendered(expected)


@pytest.mark.parametrize("seed", [0, 5, 99])
@pytest.mark.parametrize("k", [1, 3, 9])
def test_random_form_draws_like_random_scalar(k, seed):
    rng, rng_ref = random.Random(seed), random.Random(seed)
    form = _random_form(rng, k)
    expected = [random_scalar(rng_ref)._q for _ in range(k)]
    assert [Fraction(x, form[1]) for x in form[0]] == expected
    assert math.gcd(form[1], *form[0]) == 1
    assert rng.getstate() == rng_ref.getstate()


@pytest.mark.parametrize("seed", [0, 2, 31])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("space", ["rn", "matrices", "polynomials"])
def test_axiom_audit_matches_reference(space, dim, seed, monkeypatch):
    seen = []
    check = semimodule.check_svs_laws

    def recording(u, v, w, alpha, beta):
        seen.append((u, v, w, alpha, beta))
        return check(u, v, w, alpha, beta)

    monkeypatch.setattr(semimodule, "check_svs_laws", recording)
    got = axiom_audit(space=space, dim=dim, samples=40, seed=seed)
    drawn = []
    expected = ref.axiom_audit(space=space, dim=dim, samples=40, seed=seed, on_triple=drawn.append)
    assert got == expected
    assert seen == drawn
    for triple in drawn:
        assert check(*triple) == ref.check_svs_laws(*triple)
