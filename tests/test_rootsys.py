import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdol import reps, rootsys
from symdol.flagspec import first_positive_eigenvalue, p_spectrum
from symdol.reps import weyl_dimension
from symdol.rootsys import (
    build_root_system,
    is_dominant,
    is_nonneg_root_combination,
    rho,
)

from conftest import count_calls
from oracles import (
    CountingRow,
    coroots_read_off_roots,
    dual_coxeter_by_killing_trace,
    killing_dual_form,
    killing_form_by_orthogonal,
    positive_roots_by_reflection,
    root_coefficients_by_orthogonal,
    root_lattice_coefficients,
    simple_reflection,
)

CLASSICAL_COUNTS = {
    "A": lambda k: k * (k + 1) // 2,
    "B": lambda k: k * k,
    "C": lambda k: k * k,
    "D": lambda k: k * (k - 1),
    "G": lambda k: 6,
}

ALL_SYSTEMS = (
    [("A", k) for k in range(1, 9)]
    + [("B", k) for k in range(2, 9)]
    + [("C", k) for k in range(2, 9)]
    + [("D", k) for k in range(3, 9)]
    + [("G", 2)]
)

SMALL_SYSTEMS = [("A", 1), ("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]

DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
}


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_positive_root_count(family, rank):
    rs = build_root_system(family, rank)
    expected = CLASSICAL_COUNTS[family](rank)
    assert len(rs.positive_roots_fw) == expected


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_positive_roots_match_reflection_closure(family, rank):
    rs = build_root_system(family, rank)
    assert set(rs.positive_roots_fw) == positive_roots_by_reflection(rs)


@pytest.mark.parametrize("rank", [14, 20, 30, 40])
@pytest.mark.parametrize("family", sorted(DUAL_COXETER))
def test_ranks_distinguish_reaches(family, rank):
    # distinguish --n 14 to 40 builds B_n and C_n well beyond ALL_SYSTEMS
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots_fw) == CLASSICAL_COUNTS[family](rank)
    assert rs.dual_coxeter == DUAL_COXETER[family](rank)
    # A (N / den) = I, in integers
    product = [[sum(a * n for a, n in zip(row, col)) for col in zip(*rs.inverse_cartan_num)]
               for row in rs.cartan_matrix]
    assert product == [[rs.inverse_cartan_den * (i == j) for j in range(rank)]
                       for i in range(rank)]
    # K(omega_i, alpha_j) = delta_ij d_j / (2 h^v), d_j = (alpha_j, alpha_j) / 2 with
    # long roots at squared length 2, and alpha_j is row j of the Cartan matrix
    gram = rs.weight_gram_num
    assert gram == tuple(zip(*gram))
    product = [[sum(map(mul, row, alpha)) for alpha in rs.cartan_matrix] for row in gram]
    assert all(product[i][j] == 0 for i in range(rank) for j in range(rank) if i != j)
    half = [Fraction(product[j][j]) / (rs.weight_gram_den * rs.killing_scale)
            for j in range(rank)]
    assert set(half) <= {Fraction(1, 2), 1} and max(half) == 1


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_relabeled_nodes_permute_the_constants(family, rank, monkeypatch):
    # numbering the simple roots in any order, e.g. E6's node 2 bonded only to
    # node 4, gives the same system with rows, columns and coordinates
    # permuted, and the same dimensions, orbit sizes and spectrum; the
    # unpermuted system is computed first, so its tables are already kept
    rs = build_root_system(family, rank)
    omegas = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    sizes = [(weyl_dimension(rs, w), reps._stabilizer(rs, w, reps._tables(rs))[0]) for w in omegas]
    cutoff = first_positive_eigenvalue(rs)
    spectrum = p_spectrum(rs, (0,) * rank, cutoff).rows
    bourbaki = rootsys._cartan_matrix
    for seed in range(4):
        perm = random.Random(1000 * rank + seed).sample(range(rank), rank)

        def permuted(matrix):
            return tuple(tuple(matrix[i][j] for j in perm) for i in perm)

        monkeypatch.setattr(rootsys, "_cartan_matrix", lambda f, r: permuted(bourbaki(f, r)))
        relabeled = build_root_system(family, rank)
        assert relabeled.cartan_matrix == permuted(rs.cartan_matrix)
        assert len(relabeled.positive_roots_fw) == len(rs.positive_roots_fw)
        assert relabeled.dual_coxeter == rs.dual_coxeter
        assert relabeled.killing_scale == rs.killing_scale
        assert relabeled.inverse_cartan_num == permuted(rs.inverse_cartan_num)
        assert relabeled.inverse_cartan_den == rs.inverse_cartan_den
        assert relabeled.weight_gram_num == permuted(rs.weight_gram_num)
        assert relabeled.weight_gram_den == rs.weight_gram_den
        assert set(relabeled.positive_roots_fw) == {
            tuple(root[i] for i in perm) for root in rs.positive_roots_fw}

        tables = reps._tables(relabeled)
        for omega, size in zip(omegas, sizes):
            w = tuple(omega[i] for i in perm)
            assert (weyl_dimension(relabeled, w), reps._stabilizer(relabeled, w, tables)[0]) == size
        rows = p_spectrum(relabeled, (0,) * rank, cutoff).rows
        assert ([(row.eigenvalue, row.total_multiplicity) for row in rows]
                == [(row.eigenvalue, row.total_multiplicity) for row in spectrum])
        for row, original in zip(rows, spectrum):
            assert sorted(row.constituents) == sorted(
                c._replace(gamma=tuple(c.gamma[i] for i in perm)) for c in original.constituents)


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_closure_reads_cartan_rows_linearly(family):
    # each root carries its pairings as coordinates, so the closure reads
    # one Cartan row per new root; a closure that sums every pairing over r
    # terms reads about |Phi+| r^2 entries (2,560,000 for B40, against a
    # gate of 128,000)
    rank = 40
    cartan = rootsys._cartan_matrix(family, rank)
    reads = [0]
    roots = rootsys._positive_root_coefficients([CountingRow(row, reads) for row in cartan])
    assert len(roots) == CLASSICAL_COUNTS[family](rank)
    assert 0 < reads[0] <= 2 * len(roots) * rank
    assert [(beta, tuple(fw)) for beta, fw in roots] == rootsys._positive_root_coefficients(cartan)


@pytest.mark.parametrize("family,rank", [("G", 2), ("D", 5), ("B", 10)])
def test_killing_sum_is_summed_once_per_symmetric_pair(family, rank, monkeypatch):
    # S is symmetric, so a build sums its lower triangle, r(r+1)/2 dot products
    # over the positive roots, plus the r^2 products of S A's diagonal; the full
    # square makes r^2 |Phi+| + r^2 (10,100 for B10, against a gate of 5,600)
    expected = build_root_system(family, rank)
    products = count_calls(monkeypatch, rootsys, "mul")
    assert build_root_system(family, rank) == expected
    positives = len(expected.positive_roots_fw)
    assert 0 < len(products) <= rank * (rank + 1) // 2 * positives + rank * rank


@pytest.mark.parametrize("family,rank",
                         ALL_SYSTEMS + [(f, k) for f in "BCD" for k in (14, 20, 30, 40)])
def test_coroots_match_roots_read_off(family, rank):
    rs = build_root_system(family, rank)
    coeffs, heights = reps._tables(rs)[:2]
    expected = coroots_read_off_roots(rs)
    assert len(coeffs) == len(expected) == len(rs.positive_roots_fw)
    assert set(coeffs) == set(expected)
    assert heights == math.prod(map(sum, expected))


@pytest.mark.parametrize("rank", [2, 3, 8, 14, 40])
def test_b_coroots_are_c_roots(rank):
    # B_n and C_n are dual: the coroots of one are the roots of the other
    c = build_root_system("C", rank)
    c_roots = {tuple(map(int, root_lattice_coefficients(c, root))) for root in c.positive_roots_fw}
    assert set(reps._tables(build_root_system("B", rank)).coroots) == c_roots


def test_rank_one_has_single_root():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots_fw) == 1
    assert rs.positive_roots_fw[0] == (2,)


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_positive_roots_are_nonneg_simple_combinations(family, rank):
    rs = build_root_system(family, rank)
    for root in rs.positive_roots_fw:
        assert rootsys.is_nonneg_root_combination(rs, root)


@pytest.mark.parametrize(
    "family,rank,message",
    [
        ("E", 6, "supported families"),
        ("B", 1, "rank >= 2"),
        ("D", 2, "rank >= 3"),
        ("G", 3, "rank = 2"),
        ("A", 0, "rank >= 1"),
    ],
)
def test_invalid_pairs_rejected(family, rank, message):
    with pytest.raises(ValueError, match=message):
        build_root_system(family, rank)


def test_weight_of_the_wrong_length_rejected_by_name():
    with pytest.raises(ValueError) as exc:
        rootsys.as_weight(build_root_system("B", 3), [1, 0])
    assert str(exc.value) == "weight (1, 0) has 2 coordinates; B3 has rank 3"


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_rho_is_all_ones_and_half_root_sum(family, rank):
    rs = build_root_system(family, rank)
    r = rho(rs)
    assert r == (1,) * rank
    total = [0] * rank
    for root in rs.positive_roots_fw:
        total = [a + b for a, b in zip(total, root)]
    assert tuple(total) == tuple(2 * c for c in r)


def test_killing_form_normalization_rank_one():
    rs = build_root_system("A", 1)
    alpha = rs.positive_roots_fw[0]
    assert killing_dual_form(rs, alpha, alpha) == Fraction(1, 2)
    assert killing_dual_form(rs, rho(rs), rho(rs)) == Fraction(1, 8)


def test_killing_form_b3_against_orthogonal_oracle():
    # rho = (5/2, 3/2, 1/2) in the orthogonal model; plain norm 35/4,
    # scaled by 1/(2 * dual Coxeter) = 1/10
    rs = build_root_system("B", 3)
    assert rs.dual_coxeter == 5
    assert killing_dual_form(rs, rho(rs), rho(rs)) == Fraction(35, 4) / 10


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_cartan_matrix_recovered_from_form(family, rank):
    rs = build_root_system(family, rank)
    for i, ai in enumerate(rs.positive_roots_fw[:rank]):
        for j, aj in enumerate(rs.positive_roots_fw[:rank]):
            ratio = 2 * killing_dual_form(rs, ai, aj) / killing_dual_form(rs, aj, aj)
            assert ratio == rs.cartan_matrix[i][j]


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_form_symmetric_bilinear_positive_definite(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(20240 + rank)
    for _ in range(12):
        x = tuple(rng.randint(-4, 4) for _ in range(rank))
        y = tuple(rng.randint(-4, 4) for _ in range(rank))
        z = tuple(rng.randint(-4, 4) for _ in range(rank))
        assert killing_dual_form(rs, x, y) == killing_dual_form(rs, y, x)
        xz = tuple(a + 3 * b for a, b in zip(x, z))
        assert killing_dual_form(rs, xz, y) == (
            killing_dual_form(rs, x, y) + 3 * killing_dual_form(rs, z, y)
        )
        if any(x):
            assert killing_dual_form(rs, x, x) > 0


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_form_weyl_invariant(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(513 + rank)
    for _ in range(10):
        x = tuple(rng.randint(-5, 5) for _ in range(rank))
        y = tuple(rng.randint(-5, 5) for _ in range(rank))
        for i in range(1, rank + 1):
            assert killing_dual_form(
                rs, simple_reflection(rs, i, x), simple_reflection(rs, i, y)
            ) == killing_dual_form(rs, x, y)


@pytest.mark.parametrize("family,rank", SMALL_SYSTEMS)
def test_simple_reflection_involution_and_rho_shift(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(97 + rank)
    for i in range(1, rank + 1):
        x = tuple(rng.randint(-5, 5) for _ in range(rank))
        assert simple_reflection(rs, i, simple_reflection(rs, i, x)) == x
        # s_i(rho) = rho - alpha_i
        expected = tuple(
            a - b for a, b in zip(rho(rs), rs.positive_roots_fw[i - 1])
        )
        assert simple_reflection(rs, i, rho(rs)) == expected


def test_simple_reflection_examples():
    a1 = build_root_system("A", 1)
    for k in range(-3, 4):
        assert simple_reflection(a1, 1, (k,)) == (-k,)
    a2 = build_root_system("A", 2)
    assert simple_reflection(a2, 1, (1, 0)) == (-1, 1)


def test_simple_reflection_index_range():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match="out of range"):
        simple_reflection(rs, 0, (1, 0))
    with pytest.raises(ValueError, match="out of range"):
        simple_reflection(rs, 3, (1, 0))


def test_is_dominant():
    rs = build_root_system("A", 2)
    assert is_dominant(rs, (0, 0))
    assert is_dominant(rs, rho(rs))
    assert not is_dominant(rs, (-1, 1))


def test_form_dimension_mismatch_rejected():
    rs = build_root_system("B", 3)
    with pytest.raises(ValueError, match="length"):
        killing_dual_form(rs, (1, 0), (0, 0, 1))


def test_g2_has_six_positive_roots_and_rho():
    rs = build_root_system("G", 2)
    assert len(rs.positive_roots_fw) == 6
    assert rho(rs) == (1, 1)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_cartan_data_matches_orthogonal_model(family, rank):
    # h^v, and on the fundamental weights the inverse Cartan matrix and K(omega_i, omega_j)
    rs = build_root_system(family, rank)
    assert rs.dual_coxeter == dual_coxeter_by_killing_trace(family, rank)
    assert rs.killing_scale == Fraction(1, 2 * rs.dual_coxeter)
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for x in basis:
        assert root_lattice_coefficients(rs, x) == root_coefficients_by_orthogonal(rs, x)
        for y in basis:
            assert killing_dual_form(rs, x, y) == killing_form_by_orthogonal(rs, x, y)


# ---------------------------------------------------------------------------
# integer numerator/denominator forms against the orthogonal model
# ---------------------------------------------------------------------------

RANK_AT_MOST_4 = [build_root_system(f, k) for f, k in ALL_SYSTEMS if k <= 4]


@st.composite
def _system_and_weight(draw):
    """A system of rank <= 4 and a weight; half the time the weight is a
    combination of simple roots (alpha_j is row j of the Cartan matrix), so
    that both answers of the membership test come up."""
    rs = draw(st.sampled_from(RANK_AT_MOST_4))
    coords = st.lists(st.integers(-6, 6), min_size=rs.rank, max_size=rs.rank)
    if draw(st.booleans()):
        return rs, tuple(draw(coords))
    c = draw(st.lists(st.integers(-1, 4), min_size=rs.rank, max_size=rs.rank))
    return rs, tuple(sum(c[j] * rs.cartan_matrix[j][i] for j in range(rs.rank))
                     for i in range(rs.rank))


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@settings(max_examples=200, deadline=None, database=None)
@given(_system_and_weight())
def test_integer_lattice_test_matches_fraction_definition(case):
    rs, x = case
    expected = root_coefficients_by_orthogonal(rs, x)
    assert root_lattice_coefficients(rs, x) == expected
    assert is_nonneg_root_combination(rs, x) == all(
        c.denominator == 1 and c >= 0 for c in expected)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_integer_form_matches_fraction_definition(data):
    rs = data.draw(st.sampled_from(RANK_AT_MOST_4))
    ints = st.lists(st.integers(-8, 8), min_size=rs.rank, max_size=rs.rank)
    x, y = tuple(data.draw(ints)), tuple(data.draw(ints))
    assert killing_dual_form(rs, x, y) == killing_form_by_orthogonal(rs, x, y)
    rationals = st.lists(_rationals, min_size=rs.rank, max_size=rs.rank)
    p, q = tuple(data.draw(rationals)), tuple(data.draw(rationals))
    assert killing_dual_form(rs, p, q) == killing_form_by_orthogonal(rs, p, q)
    assert killing_dual_form(rs, p, y) == killing_form_by_orthogonal(rs, p, y)
