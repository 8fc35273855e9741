import hashlib
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite as nph

import oracles
from conftest import count_calls
from oracles import as_scalar_identity, mat_scale
from symdol import fock, gaussian
from symdol.gaussian import GaussianRational, gq, gq_str
from symdol.linalg import Mat


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-10)


# ---------------------------------------------------------------------------
# levels and indices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,l,expected", [(2, 3, 4), (1, 0, 1), (5, 0, 1), (3, 2, 6)])
def test_dim_level(n, l, expected):
    assert fock.dim_level(n, l) == expected
    assert len(fock.level_indices(n, l)) == expected


@pytest.mark.parametrize("n,l", [(0, 2), (2, -1)])
def test_level_indices_validated(n, l):
    with pytest.raises(ValueError, match=r"need n >= 1 and l >= 0"):
        fock.level_indices(n, l)


@pytest.mark.parametrize("build", [
    lambda: fock.basis_vector(0, ()),
    lambda: fock.zero_vector(-2),
    lambda: fock.zero_vector(0),
], ids=["basis_vector n=0", "zero_vector n=-2", "zero_vector n=0"])
def test_vectors_need_n_at_least_one(build):
    with pytest.raises(ValueError, match=r"need n >= 1 and l >= 0"):
        build()


@pytest.mark.parametrize("call,message", [
    (lambda: fock.basis_vector(2, (1,)), "bad multi-index (1,) for n=2"),
    (lambda: fock.basis_vector(2, (1, -1)), "bad multi-index (1, -1) for n=2"),
    (lambda: fock.sigma_real([1], [0, 1], fock.basis_vector(2, (0, 0))),
     "coefficient vectors must have length n"),
    (lambda: fock.inner_product(fock.basis_vector(1, (0,)), fock.basis_vector(2, (0, 0))),
     "dimension mismatch"),
    (lambda: fock.metric_norm_sq(2, [1, 0, 0]), "coordinate vector must have length 4"),
    (lambda: fock.symbol_raise_operator(1, 0, [1]), "coordinate vector must have length 2"),
], ids=["basis_vector-length", "basis_vector-negative", "sigma_real-length",
        "inner_product-dimensions", "metric_norm_sq-length", "symbol_raise_operator-length"])
def test_shapes_checked(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_vector_dimension_taken_as_an_index():
    v = fock.basis_vector(True, (1,))
    assert type(v.n) is int and v == fock.basis_vector(1, (1,))
    assert type(fock.zero_vector(True).n) is int
    # the harmonic oscillator of a valid vector never stores a zero
    assert fock.h0_apply(v).terms == {(1,): gq(Fraction(-3, 2))}
    with pytest.raises(TypeError):
        fock.basis_vector(1.0, (1,))
    with pytest.raises(TypeError):
        fock.zero_vector(2.0)


def test_level_indices_sorted_and_complete():
    idx = fock.level_indices(3, 4)
    assert idx == sorted(idx)
    assert all(sum(b) == 4 and len(b) == 3 for b in idx)
    assert len(set(idx)) == len(idx)


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def test_sigma_raise_coefficient():
    v = fock.sigma_raise(1, fock.basis_vector(1, (0,)))
    assert v.terms == {(1,): gq(0, Fraction(-1, 2))}


def test_sigma_raise_linearity():
    two_h0_plus_h1 = fock.add(
        fock.scale(2, fock.basis_vector(1, (0,))), fock.basis_vector(1, (1,))
    )
    image = fock.sigma_raise(1, two_h0_plus_h1)
    assert image.terms == {(1,): gq(0, -1), (2,): gq(0, Fraction(-1, 2))}


def test_sigma_lower_coefficient_and_vacuum():
    v = fock.sigma_lower(1, fock.basis_vector(1, (1,)))
    assert v.terms == {(0,): gq(0, -1)}
    assert fock.sigma_lower(1, fock.basis_vector(1, (0,))).is_zero()
    assert fock.sigma_lower(2, fock.basis_vector(2, (3, 0))).is_zero()


@pytest.mark.parametrize("beta", [(0,), (4,), (2,)])
def test_number_operator(beta):
    b = fock.basis_vector(1, beta)
    num = fock.add(
        fock.sigma_raise(1, fock.sigma_lower(1, b)),
        fock.sigma_lower(1, fock.sigma_raise(1, b)),
    )
    assert num.terms == {beta: gq(Fraction(-(2 * beta[0] + 1), 2))}


def test_direction_index_validated():
    with pytest.raises(ValueError, match="out of range"):
        fock.sigma_raise(3, fock.basis_vector(2, (0, 0)))
    with pytest.raises(ValueError, match="out of range"):
        fock.sigma_lower(0, fock.basis_vector(2, (0, 0)))


_parts = st.one_of(st.just(0), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8)))
_gaussians = st.builds(gq, _parts, _parts)
_indices = {n: st.sampled_from([beta for l in range(6) for beta in fock.level_indices(n, l)])
            for n in range(1, 5)}


@st.composite
def _ladder_case(draw):
    """A random sparse vector on levels <= 5 with n <= 4, and Z / Zbar coefficients."""
    n = draw(st.integers(1, 4))
    terms = draw(st.dictionaries(_indices[n], _gaussians.filter(bool), max_size=6))
    z = draw(st.lists(_gaussians, min_size=n, max_size=n))
    zbar = draw(st.lists(_gaussians, min_size=n, max_size=n))
    return fock.FockVector(n, terms), z, zbar


@settings(max_examples=200, deadline=None, database=None)
@given(_ladder_case())
def test_one_pass_ladder_matches_direction_by_direction(case):
    v, z, zbar = case

    def rows(coeffs, step):
        """Kernel rows (k, x, y, d, step) of the nonzero Z (step 1) or Zbar (step -1) coeffs."""
        return [(k, *gaussian.fields(c), step) for k, c in enumerate(coeffs) if c]

    ladder = rows(z, 1) + rows(zbar, -1)
    assert fock._ladder(ladder, v).terms == oracles.sigma_complex_by_composition(z, zbar, v).terms
    for j in range(1, v.n + 1):
        assert fock.sigma_raise(j, v).terms == oracles.sigma_raise_by_direction(j, v).terms
        assert fock.sigma_lower(j, v).terms == oracles.sigma_lower_by_direction(j, v).terms


@settings(max_examples=200, deadline=None, database=None)
@given(_ladder_case(), st.data())
def test_sigma_real_matches_composition_oracle(case, data):
    """Rational a / b coefficients (non-unit denominators, negatives, zero
    directions) against Z coefficients a + ib and Zbar coefficients a - ib
    applied direction by direction."""
    v, _, _ = case
    ca = data.draw(st.lists(_parts, min_size=v.n, max_size=v.n))
    cb = data.draw(st.lists(_parts, min_size=v.n, max_size=v.n))
    z = [gq(a, b) for a, b in zip(ca, cb)]
    assert fock.sigma_real(ca, cb, v).terms == \
        oracles.sigma_complex_by_composition(z, [w.conjugate() for w in z], v).terms


def test_sigma_real_sums_contributions_over_different_denominators():
    # sigma(a_1 / 3) on h_0 + h_2: -i/6 (raised from h_0) and -2i/3 (lowered from h_2) on h_1
    v = fock.FockVector(1, {(0,): gq(1), (2,): gq(1)})
    image = fock.sigma_real([Fraction(1, 3)], [0], v)
    assert image.terms == {(1,): gq(0, Fraction(-5, 6)), (3,): gq(0, Fraction(-1, 6))}
    third = [gq(Fraction(1, 3))]
    assert image.terms == oracles.sigma_complex_by_composition(third, third, v).terms


def test_sigma_real_drops_a_coefficient_that_cancels():
    # sigma(a_1) on h_0 - h_2 / 4: -i/2 raised from h_0 and +i/2 lowered from h_2 cancel on h_1
    v = fock.FockVector(1, {(0,): gq(1), (2,): gq(Fraction(-1, 4))})
    assert fock.sigma_real([1], [0], v).terms == {(3,): gq(0, Fraction(1, 8))}


@st.composite
def _add_case(draw):
    """Vectors v, w of the same n where w cancels a drawn subset of v's terms
    exactly, and the keys cancelled."""
    v, _, _ = draw(_ladder_case())
    cancelled = draw(st.sets(st.sampled_from(sorted(v.terms)))) if v.terms else set()
    extra = draw(st.dictionaries(_indices[v.n], _gaussians.filter(bool), max_size=6))
    w = fock.FockVector(v.n, {**extra, **{beta: -v.terms[beta] for beta in cancelled}})
    return v, w, cancelled


@settings(max_examples=200, deadline=None, database=None)
@given(_add_case(), st.one_of(st.just(0), st.integers(-3, 3), _parts, _gaussians))
def test_add_and_scale_match_dict_oracle(case, c):
    v, w, cancelled = case
    before = dict(v.terms)
    total = fock.add(v, w)
    assert total.terms == oracles.add_by_dict(v, w)
    assert all(total.terms.values()) and not cancelled & total.terms.keys()
    scaled = fock.scale(c, v)
    assert scaled.terms == oracles.scale_by_dict(c, v)
    assert all(scaled.terms.values()) and scaled.is_zero() == (not c or v.is_zero())
    assert v.terms == before
    with pytest.raises(ValueError, match="dimension mismatch"):
        fock.add(v, fock.zero_vector(v.n + 1))


_denominators = st.sampled_from([1, 2, 3, 4, 6, 12])
_mixed_parts = st.builds(Fraction, st.integers(-24, 24), _denominators)
_mixed_gaussians = st.builds(gq, _mixed_parts, _mixed_parts)
_units = st.sampled_from([1, -1, gq(1), gq(-1), gq(0, 1), gq(0, -1), Fraction(-2, 2)])


@st.composite
def _mixed_add_case(draw):
    """v and w over n <= 3 whose shared keys carry coefficients over equal or
    different denominators, some of them cancelling exactly."""
    n = draw(st.integers(1, 3))
    v = draw(st.dictionaries(_indices[n], _mixed_gaussians.filter(bool), max_size=8))
    w = draw(st.dictionaries(_indices[n], _mixed_gaussians.filter(bool), max_size=8))
    for beta in draw(st.sets(st.sampled_from(sorted(v)))) if v else ():
        w[beta] = -v[beta]
    return fock.FockVector(n, v), fock.FockVector(n, w)


def _normalized(terms) -> bool:
    return all(d > 0 and math.gcd(x, y, d) == 1 and (x or y)
               for x, y, d in map(gaussian.fields, terms.values()))


@settings(max_examples=300, deadline=None, database=None)
@given(_mixed_add_case(), st.one_of(_units, _mixed_parts, _mixed_gaussians))
def test_add_and_scale_match_term_by_term_oracle_over_mixed_denominators(case, c):
    v, w = case
    expected = {}
    for beta in v.terms.keys() | w.terms.keys():
        total = v.terms.get(beta, gq(0)) + w.terms.get(beta, gq(0))
        if total:
            expected[beta] = total
    total = fock.add(v, w)
    assert total.terms == expected and _normalized(total.terms)
    c = GaussianRational.coerce(c)
    scaled = fock.scale(c, v)
    assert scaled.terms == ({beta: c * z for beta, z in v.terms.items()} if c else {})
    assert _normalized(scaled.terms)


def test_ladder_work_does_not_grow_with_n(monkeypatch):
    """Deterministic work counter: sigma(a_1) on h_(1,0,...,0) normalizes one
    Gaussian rational per output coefficient, two for every n, since the
    ladder visits only the directions with a nonzero coefficient and sums
    integer numerators before normalizing."""
    cases = []
    for n in range(1, 7):
        rest = (0,) * (n - 1)
        cases.append(([1, *rest], [0, *rest], fock.basis_vector(n, (1, *rest)),
                      {(0, *rest): gq(0, -1), (2, *rest): gq(0, Fraction(-1, 2))}))
    calls = count_calls(monkeypatch, gaussian, "_reduced")
    counts = []
    for coeff_a, coeff_b, v, expected in cases:
        calls.clear()
        image = fock.sigma_real(coeff_a, coeff_b, v)
        counts.append(len(calls))
        assert image.terms == expected
    assert counts == [2] * 6


def test_compose_stores_each_first_product(monkeypatch):
    """Deterministic work counter: the product inside symbol_product(3, 8, v)
    normalizes one Gaussian rational per multiplication and per accumulation,
    and none for adding the first product of an output entry to zero (a
    ZERO + a * b per entry would make it 702: the product has 261 entries)."""
    v = (1, 2, -1, 3, 2, -1)
    up = fock.symbol_raise_operator(3, 8, v)
    down = fock.symbol_lower_operator(3, 9, v)
    calls = count_calls(monkeypatch, gaussian, "_reduced")
    product = fock.compose(down, up)
    assert len(calls) == 441
    assert len(product.matrix) == 261
    assert product == fock.symbol_product(3, 8, v)


def test_commutator_sum_and_unit_scaling_work(monkeypatch):
    """Deterministic work counter: [sigma(a_1), sigma(b_1)] built with add and
    scale(-1, .) on every basis vector of levels 0..3 at n = 3 makes 168
    normalizations: 148 in the ladder, one per basis vector for the key the
    sum keeps, and none for scaling by -1 (a GaussianRational sum per
    colliding key and product per scaled term would make it 236)."""
    zero, minus_i = [0, 0, 0], gq(0, -1)
    basis = [(beta, fock.basis_vector(3, beta)) for l in range(4)
             for beta in fock.level_indices(3, l)]
    calls = count_calls(monkeypatch, gaussian, "_reduced")
    for beta, b in basis:
        ab = fock.sigma_real([1, 0, 0], zero, fock.sigma_real(zero, [1, 0, 0], b))
        ba = fock.sigma_real(zero, [1, 0, 0], fock.sigma_real([1, 0, 0], zero, b))
        assert fock.add(ab, fock.scale(-1, ba)).terms == {beta: minus_i}
    assert len(calls) == 168


def test_scalars_and_coordinates_build_no_gaussian_rational(monkeypatch):
    """Deterministic work counter: scale reads an int or Rational scalar as its
    integer pair and sigma_real reads Fraction coordinates the same way, so
    neither constructs a GaussianRational (a coerced scalar would be one per
    scale call); only the results are built, from their normal form."""
    v = fock.FockVector(6, {(1, 0, 2, 0, 0, 1): gq(Fraction(1, 2), 3), (0,) * 6: gq(0, -2)})
    scalars = (-1, 2, Fraction(1, 3), gq(0, 1))
    calls = count_calls(monkeypatch, GaussianRational, "__new__")
    for c in scalars:
        assert fock.scale(c, v).terms == {beta: z * c for beta, z in v.terms.items()}
    coords_a = [Fraction(0), Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(0), Fraction(0)]
    coords_b = [Fraction(0), Fraction(0), Fraction(2, 3), Fraction(1), Fraction(0), Fraction(0)]
    image = fock.sigma_real(coords_a, coords_b, v)
    calls.clear()
    for c in scalars:
        fock.scale(c, v)
    assert fock.sigma_real(coords_a, coords_b, v) == image
    assert len(calls) == 0


def test_scale_and_add_normalize_only_what_needs_it(monkeypatch):
    """Deterministic work counter: a unit scalar permutes and negates fields
    (no normalization), any other scalar normalizes each term once, and add
    normalizes once per colliding key whose sum does not cancel."""
    v = fock.FockVector(2, {(0, 0): gq(Fraction(1, 2), 3), (1, 0): gq(0, Fraction(-2, 3)),
                            (0, 1): gq(5), (2, 0): gq(Fraction(7, 4), Fraction(1, 6))})
    units = (1, -1, gaussian.I, -gaussian.I, gq(-1), Fraction(1))
    expected = [{beta: z * unit for beta, z in v.terms.items()} for unit in units]
    scalars = (2, Fraction(1, 3), gq(1, 1), gq(0, Fraction(1, 2)))
    disjoint = fock.FockVector(2, {(0, 2): gq(1), (1, 1): gq(0, Fraction(1, 3))})
    # (0, 0) and (2, 0) collide and survive, (1, 0) cancels, (1, 1) is new
    w = fock.FockVector(2, {(0, 0): gq(Fraction(1, 2)), (1, 0): gq(0, Fraction(2, 3)),
                            (2, 0): gq(Fraction(1, 3)), (1, 1): gq(1)})
    calls = count_calls(monkeypatch, gaussian, "_reduced")
    assert [fock.scale(unit, v).terms for unit in units] == expected
    assert len(calls) == 0
    for c in scalars:
        calls.clear()
        fock.scale(c, v)
        assert len(calls) == len(v.terms)
    calls.clear()
    assert fock.add(v, disjoint).terms == {**v.terms, **disjoint.terms}
    assert len(calls) == 0
    total = fock.add(v, w)
    assert len(calls) == 2
    assert total.terms == {(0, 0): gq(1, 3), (0, 1): gq(5), (1, 1): gq(1),
                           (2, 0): gq(Fraction(25, 12), Fraction(1, 6))}


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_ladder_direction_outside_range_rejected(data):
    n = data.draw(st.integers(1, 4))
    j = data.draw(st.one_of(st.integers(-3, 0), st.integers(n + 1, n + 4)))
    v = fock.basis_vector(n, (1,) * n)
    with pytest.raises(ValueError, match="out of range"):
        fock.sigma_raise(j, v)
    with pytest.raises(ValueError, match="out of range"):
        fock.sigma_lower(j, v)


# ---------------------------------------------------------------------------
# H_0
# ---------------------------------------------------------------------------

def test_h0_eigenvalues():
    v = fock.h0_apply(fock.basis_vector(1, (0,)))
    assert v.terms == {(0,): gq(Fraction(-1, 2))}
    v = fock.h0_apply(fock.basis_vector(3, (1, 0, 1)))
    assert v.terms == {(1, 0, 1): gq(Fraction(-7, 2))}


def test_h0_commutes_down_by_one_with_raising():
    for beta in [(0, 2), (1, 1)]:
        b = fock.basis_vector(2, beta)
        lhs = fock.h0_apply(fock.sigma_raise(1, b))
        eig = Fraction(-(2 * sum(beta) + 2), 2)
        rhs = fock.scale(eig - 1, fock.sigma_raise(1, b))
        assert lhs.terms == rhs.terms


def test_h0_matches_ladder_sum():
    # H_0 = sum_j (sigma(Z_j) sigma(Zbar_j) + sigma(Zbar_j) sigma(Z_j))
    for beta in [(0, 0, 0), (1, 2, 0), (3, 1, 2)]:
        b = fock.basis_vector(3, beta)
        total = fock.zero_vector(3)
        for j in range(1, 4):
            total = fock.add(total, fock.sigma_raise(j, fock.sigma_lower(j, b)))
            total = fock.add(total, fock.sigma_lower(j, fock.sigma_raise(j, b)))
        assert total.terms == fock.h0_apply(b).terms


def test_h0_ledger_dimension_and_eigenvalue():
    for n, l in product((1, 2, 3), range(0, 5)):
        assert fock.dim_level(n, l) == math.comb(n + l - 1, l)
        for beta in fock.level_indices(n, l):
            v = fock.h0_apply(fock.basis_vector(n, beta))
            assert v.terms[beta] == gq(Fraction(-(2 * l + n), 2))


# ---------------------------------------------------------------------------
# commutation relations
# ---------------------------------------------------------------------------

def _sigma_direction(n, d, v):
    """sigma of the d-th vector in the symplectic basis (a_1, b_1, ..., a_n, b_n)."""
    ca = [Fraction(0)] * n
    cb = [Fraction(0)] * n
    if d % 2 == 0:
        ca[d // 2] = Fraction(1)
    else:
        cb[d // 2] = Fraction(1)
    return fock.sigma_real(ca, cb, v)


def _omega0(n, d, e):
    """omega_0 on the symplectic basis: omega(a_i, b_i) = 1."""
    if d // 2 != e // 2:
        return 0
    if d % 2 == 0 and e % 2 == 1:
        return 1
    if d % 2 == 1 and e % 2 == 0:
        return -1
    return 0


@pytest.mark.parametrize("n,level", [(1, 0), (1, 3), (2, 2), (3, 1)])
def test_weyl_commutation_relations(n, level):
    for beta in fock.level_indices(n, level):
        b = fock.basis_vector(n, beta)
        for d in range(2 * n):
            for e in range(2 * n):
                lhs = fock.add(
                    _sigma_direction(n, d, _sigma_direction(n, e, b)),
                    fock.scale(-1, _sigma_direction(n, e, _sigma_direction(n, d, b))),
                )
                expected = fock.scale(gq(0, -_omega0(n, d, e)), b)
                assert lhs.terms == expected.terms, (n, level, d, e)


def test_z_zbar_commutator_is_half_identity():
    for beta in [(0, 2), (3, 1)]:
        b = fock.basis_vector(2, beta)
        for j in (1, 2):
            lhs = fock.add(
                fock.sigma_raise(j, fock.sigma_lower(j, b)),
                fock.scale(-1, fock.sigma_lower(j, fock.sigma_raise(j, b))),
            )
            assert lhs.terms == fock.scale(Fraction(1, 2), b).terms


# ---------------------------------------------------------------------------
# inner product and adjointness
# ---------------------------------------------------------------------------

def test_inner_product_values():
    h0 = fock.basis_vector(1, (0,))
    h3 = fock.basis_vector(1, (3,))
    assert fock.inner_product(h0, h0) == gq(Fraction(1, 2))
    assert fock.inner_product(h3, h3) == gq(24)   # 2^2 * 3!
    assert fock.inner_product(fock.basis_vector(1, (1,)), fock.basis_vector(1, (2,))) == gq(0)


def test_inner_product_sesquilinear():
    v = fock.basis_vector(1, (2,))
    w = fock.basis_vector(1, (2,))
    c = gq(Fraction(1, 3), Fraction(-2, 5))
    assert fock.inner_product(fock.scale(c, v), w) == c * fock.inner_product(v, w)
    assert fock.inner_product(v, fock.scale(c, w)) == c.conjugate() * fock.inner_product(v, w)


def test_raise_lower_adjoint_pair():
    # <sigma(Z_j) h_beta, h_{beta+e_j}> = -<h_beta, sigma(Zbar_j) h_{beta+e_j}>
    for n, beta, j in [(1, (2,), 1), (2, (1, 0), 2), (3, (0, 1, 2), 3)]:
        up = tuple(b + 1 if k == j - 1 else b for k, b in enumerate(beta))
        hb = fock.basis_vector(n, beta)
        hup = fock.basis_vector(n, up)
        lhs = fock.inner_product(fock.sigma_raise(j, hb), hup)
        rhs = -1 * fock.inner_product(hb, fock.sigma_lower(j, hup))
        assert lhs == rhs


def test_sigma_real_anti_self_adjoint():
    # exact anti-self-adjointness on a spread of vectors and directions
    cases = [
        (1, [Fraction(1)], [Fraction(0)]),
        (1, [Fraction(2, 3)], [Fraction(-1, 2)]),
        (2, [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]),
        (2, [Fraction(1, 2), Fraction(3)], [Fraction(-2), Fraction(1, 5)]),
    ]
    for n, ca, cb in cases:
        for lv, lw in product(range(3), range(3)):
            for bv in fock.level_indices(n, lv):
                for bw in fock.level_indices(n, lw):
                    v = fock.basis_vector(n, bv)
                    w = fock.basis_vector(n, bw)
                    lhs = fock.inner_product(fock.sigma_real(ca, cb, v), w)
                    rhs = -1 * fock.inner_product(v, fock.sigma_real(ca, cb, w))
                    assert lhs == rhs


def test_sigma_z_matrix_adjoint_is_minus_sigma_zbar():
    # sigma(Z_j)^* = -sigma(Zbar_j) entrywise w.r.t. the weighted inner product
    n, j = 2, 1
    for l in range(0, 4):
        up = fock.operator_from_action(n, l, l + 1, lambda v: fock.sigma_raise(j, v))
        down = fock.operator_from_action(n, l + 1, l, lambda v: fock.sigma_lower(j, v))
        sources = fock.level_indices(n, l)
        nonzero = 0
        for row, tgt in enumerate(fock.level_indices(n, l + 1)):
            for col, src in enumerate(sources):
                lhs = up.matrix.get((row, col), gq(0)) * fock.basis_norm_sq(tgt)
                rhs = -(down.matrix.get((col, row), gq(0)).conjugate()) * fock.basis_norm_sq(src)
                assert lhs == rhs
                nonzero += bool(lhs)
        # sigma(Z_j) sends every basis vector to one basis vector
        assert nonzero == len(up.matrix) == len(sources)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def test_quadrature_oracle_values():
    assert close(oracles.hermite_quadrature_oracle(0, 0), math.sqrt(math.pi))
    assert close(oracles.hermite_quadrature_oracle(1, 2), 0.0)
    assert close(oracles.hermite_quadrature_oracle(3, 3), math.sqrt(math.pi) * 8 * 6)


def test_quadrature_oracle_range_checked():
    with pytest.raises(ValueError):
        oracles.hermite_quadrature_oracle(13, 0)


@pytest.mark.parametrize("m", range(0, 9))
def test_inner_product_matches_quadrature(m):
    for mp in range(0, 9):
        exact = fock.inner_product(fock.basis_vector(1, (m,)), fock.basis_vector(1, (mp,)))
        assert exact.is_real()
        scaled = oracles.hermite_quadrature_oracle(m, mp) / (2 * math.sqrt(math.pi))
        assert close(float(exact.re), scaled), (m, mp)


def _padded_sum(c1, c2):
    size = max(len(c1), len(c2))
    out = np.zeros(size)
    out[: len(c1)] += c1
    out[: len(c2)] += c2
    return out


@pytest.mark.parametrize("m", range(0, 12))
def test_hermite_recurrences_weakly(m):
    # (t - d/dt) h_m = -h_{m+1} and (t + d/dt) h_m = -2m h_{m-1},
    # tested via quadrature inner products against h_0 ... h_12
    cm = oracles.hermite_coefficients(m)
    up = _padded_sum(2 * nph.hermmulx(cm), -nph.hermder(cm))  # (t - d/dt) h_m
    down = nph.hermder(cm)                                    # (t + d/dt) h_m
    up_expected = -oracles.hermite_coefficients(m + 1)
    down_expected = (
        -2 * m * oracles.hermite_coefficients(m - 1) if m >= 1 else np.zeros(1)
    )
    for k in range(0, 13):
        ck = oracles.hermite_coefficients(k)
        assert close(
            oracles._hermite_function_inner(up, ck),
            oracles._hermite_function_inner(up_expected, ck),
        )
        assert close(
            oracles._hermite_function_inner(down, ck),
            oracles._hermite_function_inner(down_expected, ck),
        )


# ---------------------------------------------------------------------------
# symbol products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l", range(0, 9))
def test_symbol_product_unit_vector(l):
    op = fock.symbol_product(1, l, [1, 0])
    assert as_scalar_identity(op) == gq(-(2 * l + 2))


def test_symbol_product_scales_with_metric():
    v = [Fraction(1, 2), Fraction(1, 3)]
    g = fock.metric_norm_sq(1, v)
    for l in (0, 2, 5):
        op = fock.symbol_product(1, l, v)
        assert as_scalar_identity(op) == gq(-(2 * l + 2) * g)


@pytest.mark.parametrize("l", [0, 1, 4])
def test_symbol_product_reversed_order(l):
    # lowering first, then raising: -2l g(v,v), degenerate at the vacuum level
    v = [2, -1]
    g = fock.metric_norm_sq(1, v)
    down = fock.symbol_lower_operator(1, l, v)
    if l == 0:
        assert as_scalar_identity(down) == gq(0)
        return
    up = fock.symbol_raise_operator(1, l - 1, v)
    rev = fock.compose(up, down)
    assert as_scalar_identity(rev) == gq(-2 * l * g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vacuum_lowering_is_the_zero_level_0_endomorphism(n):
    # sigma(Zbar) kills E_0: the lowering symbol there is the 1x1 zero map
    # E_0 -> E_0, whatever the direction
    v = list(range(1, 2 * n + 1))
    assert fock.symbol_lower_operator(n, 0, v) == fock.FockOperator(n, 0, 0, Mat(1, 1, {}))


def test_symbol_product_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        fock.symbol_product(1, 0, [0, 0])


def test_symbol_product_not_scalar_for_two_directions():
    op = fock.symbol_product(2, 1, [1, 0, 0, 1])
    assert as_scalar_identity(op) is None


# ---------------------------------------------------------------------------
# operator materialization and export
# ---------------------------------------------------------------------------

def test_strict_mode_rejects_level_violation():
    with pytest.raises(ValueError, match="outside level"):
        fock.operator_from_action(1, 1, 1, lambda v: fock.sigma_raise(1, v))


def test_strict_mode_rejects_image_of_another_n():
    # a level-1 term of n=3 is no row of the n=2 level-1 basis
    with pytest.raises(ValueError, match=r"outside level 1 of n=2 \(hit \(1, 0, 0\)\)"):
        fock.operator_from_action(2, 0, 1, lambda v: fock.FockVector(3, {(1, 0, 0): gq(1)}))


def test_json_triplets_golden():
    op = fock.symbol_product(2, 1, [1, 0, 0, 1])
    assert fock.to_json_triplets(op) == [
        [0, 0, "-6"],
        [0, 1, "-2i"],
        [1, 0, "2i"],
        [1, 1, "-6"],
    ]


def test_compose_shape_checked():
    up0 = fock.symbol_raise_operator(1, 0, [1, 0])
    up1 = fock.symbol_raise_operator(1, 1, [1, 0])
    with pytest.raises(ValueError, match="not composable"):
        fock.compose(up0, up1)


def test_h0_operator_level_preserving():
    for l in range(0, 4):
        op = fock.operator_from_action(2, l, l, fock.h0_apply)
        assert as_scalar_identity(op) == gq(Fraction(-(2 * l + 2), 2))


def test_h0_shifts_raising_operator_by_matrix_composition():
    # H_0 sigma(Z_1) = (eigenvalue - 1) sigma(Z_1) on each level, as matrices
    n, l = 2, 2
    up = fock.operator_from_action(n, l, l + 1, lambda v: fock.sigma_raise(1, v))
    h0 = fock.operator_from_action(n, l + 1, l + 1, fock.h0_apply)
    lhs = fock.compose(h0, up)
    eig = Fraction(-(2 * l + n), 2)
    assert len(up.matrix) == fock.dim_level(n, l)
    assert lhs.matrix == mat_scale(up.matrix, eig - 1)


# SHA-256 of the per-level JSON lines {"level", "trace", "triplets"} of the
# n = 3 symbol products below, recorded before the Fock operators became
# linalg.Mat matrices
SYMBOL_PRODUCT_GOLDEN = "b8209f3b24bbe9bb06b38c854b2558c6991a9aecbb95105e4f6cd241894ff2a6"


def test_symbol_product_golden():
    lines = []
    for l in range(0, 9):
        op = fock.symbol_product(3, l, (1, 2, -1, 3, 2, -1))
        trace = sum((c for (row, col), c in op.matrix.items() if row == col), gq(0))
        lines.append(json.dumps({"level": l, "trace": gq_str(trace),
                                 "triplets": fock.to_json_triplets(op)},
                                separators=(",", ":")) + "\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SYMBOL_PRODUCT_GOLDEN
