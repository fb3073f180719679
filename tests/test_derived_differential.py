"""Differential tests: the scaled-form functionals, maps, pullbacks and
audits of ``derived`` against the tuple references in derived_reference.py."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semikit import derived
from semikit.derived import random_semimetric
from semikit.scalar import NonnegScalar

import derived_reference as ref

_BIG = 2**64

# Signed entries: small ones as the audits draw them, zeros, and fractions
# with unrelated ~64-bit denominators.
SIGNED = st.one_of(
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)
NONNEG = SIGNED.map(abs)
DIMS = st.integers(1, 4)


def vectors(dim, elem=SIGNED):
    return st.lists(elem, min_size=dim, max_size=dim).map(tuple)


@st.composite
def matrices(draw, out_dim, in_dim):
    zero = st.just((Fraction(0),) * in_dim)
    return [draw(st.one_of(zero, vectors(in_dim))) for _ in range(out_dim)]


@st.composite
def seminorm_specs(draw, dim):
    """1-3 atoms, as (kind, coefficients)."""
    spec = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("l1", "max", "abs")))
        spec.append((kind, draw(vectors(dim, SIGNED if kind == "abs" else NONNEG))))
    return spec


def build_seminorm(mod, spec):
    makers = {"l1": mod.weighted_l1, "max": mod.weighted_max_abs, "abs": mod.abs_linear}
    atoms = [makers[kind](coeffs) for kind, coeffs in spec]
    return sum(atoms[1:], atoms[0])


def random_spec(rng, dim):
    """A seminorm spec drawn the way random_seminorm draws its atoms."""
    spec = []
    for _ in range(rng.randint(1, 3)):
        kind = ("l1", "max", "abs")[rng.randrange(3)]
        coeffs = ref.random_signed_vector(rng, dim)
        spec.append((kind, coeffs if kind == "abs" else tuple(map(abs, coeffs))))
    return spec


def random_rows(rng, out_dim, in_dim):
    return [ref.random_signed_vector(rng, in_dim) for _ in range(out_dim)]


@st.composite
def scalar_tables(draw):
    """Square tables, n = 1..6: distances between points on a line (tight
    triangles through every middle point) or arbitrary entries, then up to
    three entries redrawn, which can break the zero diagonal, symmetry or
    the triangle inequality."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        xs = draw(st.lists(SIGNED, min_size=n, max_size=n))
        table = [[abs(a - b) for b in xs] for a in xs]
    else:
        table = [draw(st.lists(NONNEG, min_size=n, max_size=n)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(NONNEG)
    return [[NonnegScalar(e) for e in row] for row in table]


@settings(max_examples=300, deadline=None)
@given(scalar_tables())
def test_semimetric_violations_match(rows):
    assert derived.semimetric_violations(rows) == ref.semimetric_violations(rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_atoms_sums_and_scalings_match(data):
    dim = data.draw(DIMS)
    spec_a, spec_b = data.draw(seminorm_specs(dim)), data.draw(seminorm_specs(dim))
    rows = data.draw(matrices(data.draw(st.integers(1, 4)), dim))
    u, v = data.draw(vectors(dim)), data.draw(vectors(dim))
    lam = data.draw(NONNEG)

    a, b = build_seminorm(derived, spec_a), build_seminorm(derived, spec_b)
    ra, rb = build_seminorm(ref, spec_a), build_seminorm(ref, spec_b)
    assert a(v) == ra(v)
    assert (a + b)(v) == (ra + rb)(v)
    assert a.scale(lam)(v) == ra.scale(lam)(v)
    assert derived.max_linear(rows)(v) == ref.max_linear(rows)(v)
    p, rp = derived.gram_form(rows), ref.gram_form(rows)
    assert p(u, v) == rp(u, v)
    assert (p + p.scale(lam))(u, v) == (rp + rp.scale(lam))(u, v)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_maps_and_pullback_chains_match(data):
    dims = [data.draw(DIMS) for _ in range(4)]
    rows = [data.draw(matrices(dims[i], dims[i + 1])) for i in range(3)]
    spec = data.draw(seminorm_specs(dims[0]))
    x = data.draw(vectors(dims[3]))

    maps = [derived.LinearMapQ(r) for r in rows]
    ref_maps = [ref.LinearMapQ(r) for r in rows]
    assert maps[2].apply(x) == ref_maps[2].apply(x)
    assert maps[1].compose(maps[2]).apply(x) == ref_maps[1].compose(ref_maps[2]).apply(x)

    n, rn = build_seminorm(derived, spec), build_seminorm(ref, spec)
    for t, rt in zip(maps, ref_maps):
        n, rn = derived._pull(n, t), ref.pull(rn, rt)
    assert n(x) == rn(x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_audit_reports_match_on_drawn_objects(data):
    dim = data.draw(DIMS)
    seed = data.draw(st.integers(0, 2**16))
    lam = data.draw(NONNEG)
    spec_a, spec_b = data.draw(seminorm_specs(dim)), data.draw(seminorm_specs(dim))
    rows_a, rows_b = (data.draw(matrices(data.draw(st.integers(1, 3)), dim)) for _ in range(2))
    objects = {
        "seminorm": lambda mod: (build_seminorm(mod, spec_a), build_seminorm(mod, spec_b)),
        "sublinear": lambda mod: (mod.max_linear(rows_a), mod.max_linear(rows_b)),
        "semiinner": lambda mod: (mod.gram_form(rows_a), mod.gram_form(rows_b)),
    }
    for family, build in objects.items():
        got = derived.space_closure_audit(family, *build(derived), lam, samples=4, seed=seed)
        want = ref.space_closure_audit(family, *build(ref), lam, samples=4, seed=seed)
        assert got == want


@pytest.mark.parametrize("seed", range(6))
def test_closure_reports_match(seed):
    rng = random.Random(seed)
    dim = 1 + seed % 4
    lam = Fraction(rng.randint(0, 9), rng.randint(1, 5))
    spec_a, spec_b = random_spec(rng, dim), random_spec(rng, dim)
    rows_a, rows_b = random_rows(rng, 3, dim), random_rows(rng, 2, dim)
    cases = [
        ("seminorm", lambda mod: (build_seminorm(mod, spec_a), build_seminorm(mod, spec_b))),
        ("sublinear", lambda mod: (mod.max_linear(rows_a), mod.max_linear(rows_b))),
        ("semiinner", lambda mod: (mod.gram_form(rows_a), mod.gram_form(rows_b))),
        # A linear functional is no seminorm: the failure lists must match too.
        ("seminorm", lambda mod: (mod.max_linear(rows_a), mod.max_linear(rows_b))),
    ]
    for family, build in cases:
        got = derived.space_closure_audit(family, *build(derived), lam, samples=24, seed=seed)
        want = ref.space_closure_audit(family, *build(ref), lam, samples=24, seed=seed)
        assert got == want
    metrics = random_semimetric(rng, dim + 1), random_semimetric(rng, dim + 1)
    got = derived.space_closure_audit("semimetric", *metrics, lam)
    assert got == ref.space_closure_audit("semimetric", *metrics, lam)


@pytest.mark.parametrize("seed", range(8))
def test_category_reports_match(seed):
    rng = random.Random(seed)
    dims = [rng.randint(1, 4) for _ in range(4)]
    rows = [random_rows(rng, dims[i], dims[i + 1]) for i in range(3)]
    if seed % 2:
        rows[1][0] = (Fraction(0),) * dims[2]
    specs = [random_spec(rng, dims[0]) for _ in range(2)]
    got = derived.category_laws_audit(
        *(derived.LinearMapQ(r) for r in rows),
        [build_seminorm(derived, s) for s in specs], samples=12, seed=seed,
    )
    want = ref.category_laws_audit(
        *(ref.LinearMapQ(r) for r in rows),
        [build_seminorm(ref, s) for s in specs], samples=12, seed=seed,
    )
    assert got == want


@pytest.mark.parametrize("seed", range(8))
def test_pullback_reports_match(seed):
    rng = random.Random(seed)
    out_dim, in_dim = rng.randint(1, 4), rng.randint(1, 4)
    rows = random_rows(rng, out_dim, in_dim)
    if seed % 2:
        rows[-1] = (Fraction(0),) * in_dim
    specs = [random_spec(rng, out_dim) for _ in range(2)]
    t, rt = derived.LinearMapQ(rows), ref.LinearMapQ(rows)
    norms = [build_seminorm(derived, s) for s in specs]
    ref_norms = [build_seminorm(ref, s) for s in specs]
    lam = Fraction(rng.randint(0, 9), rng.randint(1, 5))

    pulled, got = derived.pullback_seminorm(norms[0], t, samples=24, seed=seed, injective_certificate=True)
    ref_pulled, want = ref.pullback_seminorm(ref_norms[0], rt, samples=24, seed=seed, injective_certificate=True)
    assert got == want
    assert pulled.label == ref_pulled.label
    got = derived.pullback_closure_audit(t, norms, lam, samples=24, seed=seed)
    assert got == ref.pullback_closure_audit(rt, ref_norms, lam, samples=24, seed=seed)
