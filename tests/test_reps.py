import itertools
import random
import re
from collections import Counter, defaultdict
from decimal import Decimal
from fractions import Fraction

import pytest

from symdol import reps, rootsys
from symdol.errors import ContractViolation
from symdol.flagspec import distinguish, p_spectrum
from symdol.reps import (
    casimir_value,
    dominant_weights_with_norm_bound,
    weight_multiplicity,
    weight_system,
    weyl_dimension,
)
from symdol.rootsys import (
    build_root_system,
    dominant_conjugate,
    is_nonneg_root_combination,
    rho,
    weyl_orbit,
)

from conftest import count_calls
from oracles import (
    FUNDAMENTAL_CHARS,
    CountingRow,
    dot_dominant,
    dominant_heights_by_all_weights_walk,
    dominant_multiplicities_by_all_roots,
    fundamental_characters,
    killing_dual_form,
    oracle_weight_system,
    simple_reflection,
    weyl_dimension_by_killing_form,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
B3 = build_root_system("B", 3)
C2 = build_root_system("C", 2)
C3 = build_root_system("C", 3)
G2 = build_root_system("G", 2)

RANK_LE_4 = ([("A", k) for k in range(1, 5)] + [("B", k) for k in range(2, 5)]
             + [("C", k) for k in range(2, 5)] + [("D", 3), ("D", 4), ("G", 2)])
RANK_LE_5 = RANK_LE_4 + [("A", 5), ("B", 5), ("C", 5), ("D", 5)]


def _rank_id(pair):
    return f"{pair[0]}{pair[1]}"


def _gammas(rank, top, total):
    """Every gamma with coordinates in 0..top and coordinate sum <= total."""
    return [g for g in itertools.product(range(top + 1), repeat=rank) if sum(g) <= total]


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(0, 11))
def test_weyl_dimension_rank_one(k):
    assert weyl_dimension(A1, (k,)) == k + 1


@pytest.mark.parametrize("rs", [A1, A2, B2, B3, C3, G2], ids=lambda r: r.name())
def test_dim_v_rho_is_two_to_number_of_positive_roots(rs):
    assert weyl_dimension(rs, rho(rs)) == 2 ** len(rs.positive_roots_fw)


def test_weyl_dimension_a2_adjoint():
    assert weyl_dimension(A2, (1, 1)) == 8
    assert weyl_dimension(A2, (1, 1)) == sum(oracle_weight_system(A2, (1, 1)).values())


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(ValueError, match="not dominant"):
        weyl_dimension(A2, (-1, 1))


@pytest.mark.parametrize("pair", RANK_LE_5, ids=_rank_id)
def test_weyl_dimension_matches_killing_form_formula(pair):
    # coroots in integers against the Fraction form over the roots
    rs = build_root_system(*pair)
    for gamma in _gammas(rs.rank, 2, 3):
        assert weyl_dimension(rs, gamma) == weyl_dimension_by_killing_form(rs, gamma), gamma


def _parabolic_orbit(rs, x, generators):
    """The orbit of x under <s_i : i in generators>, by simple reflections."""
    orbit, frontier = {x}, [x]
    while frontier:
        frontier = {simple_reflection(rs, i + 1, w) for w in frontier for i in generators} - orbit
        orbit |= frontier
    return orbit


@pytest.mark.parametrize("pair", RANK_LE_5, ids=_rank_id)
def test_orbit_size_times_stabilizer_is_weyl_group_order(pair):
    # |W mu| from the coroot heights against the explicit orbit, and
    # |W mu| |W_mu| = |W|, with |W_mu| = |W_J| the regular orbit of W_J
    rs = build_root_system(*pair)
    order = len(weyl_orbit(rs, rho(rs)))
    for mu in itertools.product((0, 1), repeat=rs.rank):
        fixed = [i for i, x in enumerate(mu) if x == 0]
        size = reps._stabilizer(rs, mu, reps._tables(rs))[0]
        assert size == len(weyl_orbit(rs, mu)), mu
        assert size * len(_parabolic_orbit(rs, rho(rs), fixed)) == order, mu


@pytest.mark.parametrize("pair", RANK_LE_4, ids=_rank_id)
def test_weyl_orbit_matches_reflection_closure(pair):
    # the tree walk against the closure under every simple reflection, from
    # every x in {-1, 0, 1}^r, dominant or not: the same weights, none twice,
    # the dominant conjugate first, and |W mu| of them for dominant mu
    rs = build_root_system(*pair)
    everything = range(rs.rank)
    for x in itertools.product((-1, 0, 1), repeat=rs.rank):
        orbit = weyl_orbit(rs, x)
        assert len(orbit) == len(set(orbit)), x
        assert set(orbit) == _parabolic_orbit(rs, x, everything), x
        assert orbit[0] == dominant_conjugate(rs, x), x
        if min(x) >= 0:
            assert len(orbit) == reps._stabilizer(rs, x, reps._tables(rs))[0], x


def test_weight_system_reconciles_each_orbit(monkeypatch):
    # an orbit one weight short is a violation that names the algebra, mu
    # and both counts, before the total is compared
    true_orbit = reps.weyl_orbit

    def short(rs, mu):
        orbit = true_orbit(rs, mu)
        return orbit[:-1] if mu == (0, 1, 0) else orbit

    monkeypatch.setattr(reps, "weyl_orbit", short)
    with pytest.raises(ContractViolation) as info:
        weight_system(B3, (1, 1, 0))
    assert str(info.value) == ("B3: Weyl orbit of (0, 1, 0) in V_(1, 1, 0): the walk lists 11 "
                               "weights, the Poincare count over the coroots gives 12")


def _fixed_sets(rank):
    """Every mu in {0, 1}^rank up to rank 6; above it a fixed sample of 24
    with the all-zero and all-one mu."""
    every = list(itertools.product((0, 1), repeat=rank))
    return every if rank <= 6 else [every[0], every[-1]] + random.Random(rank).sample(every, 24)


@pytest.mark.parametrize("pair", RANK_LE_5 + [("A", 6), ("B", 6), ("C", 6), ("D", 6),
                                              ("B", 8), ("C", 8), ("D", 8)], ids=_rank_id)
def test_stabilizer_orbits_partition_positive_roots(pair):
    # for each J: every row's alpha is J-dominant, no two rows share a
    # W_J-orbit, the orbits, signs dropped, cover the positive roots once
    # each, c_O is twice the positive part of the orbit, and
    # sum c_O = 2 |Phi+|; the orbits are walked here by simple reflections
    rs = build_root_system(*pair)
    positive = set(rs.positive_roots_fw)
    for mu in _fixed_sets(rs.rank):
        fixed = [i for i, x in enumerate(mu) if x == 0]
        covered = set()
        _, strings = reps._stabilizer(rs, mu, reps._tables(rs))
        for weight, alpha, _, _ in strings:
            assert all(alpha[i] >= 0 for i in fixed), (mu, alpha)
            orbit = _parabolic_orbit(rs, alpha, fixed) & positive
            assert not orbit & covered, (mu, alpha)
            assert weight == 2 * len(orbit), (mu, alpha)
            covered |= orbit
        assert covered == positive, mu
        assert sum(row[0] for row in strings) == 2 * len(positive), mu


def _counting_system(family, rank):
    """The root system with Cartan rows that count their reads, and the count."""
    rs = build_root_system(family, rank)
    reads = [0]
    rows = tuple(CountingRow(row, reads) for row in rs.cartan_matrix)
    return rs._replace(cartan_matrix=rows), reads


@pytest.mark.parametrize("pair,mus", [(("B", 6), None), (("C", 6), None), (("D", 6), None),
                                      (("B", 40), [(0,) * 40])], ids=["B6", "C6", "D6", "B40"])
def test_stabilizer_reads_no_cartan_row(pair, mus):
    # deterministic work gate: each orbit's row is its J-dominant root,
    # sized by the Poincare count over the coroots, so no reflection is
    # built; walking the orbits by reflections read 3,392 (B6), 3,392 (C6)
    # and 3,264 (D6) Cartan rows over every J, and 6,124 for B40 at mu = 0
    # (a counting system's rows hash by identity, so it has a record of its own)
    rs, reads = _counting_system(*pair)
    tables = reps._tables(rs)
    reads[0] = 0
    for mu in mus or itertools.product((0, 1), repeat=rs.rank):
        reps._stabilizer(rs, mu, tables)
    assert reads[0] == 0


def test_freudenthal_lookups_reflect_little():
    # deterministic work gate: each root string starts at its orbit's
    # J-dominant root, near the dominant chamber, so dominant_conjugate's
    # lookups in p_spectrum(B4, 0, 4) make 2,127 reflections (each reads
    # one Cartan row of 4 entries); from each orbit's first root in height
    # order they made 7,228
    rs, reads = _counting_system("B", 4)
    tables = reps._tables(rs)
    for mu in itertools.product((0, 1), repeat=rs.rank):
        reps._stabilizer(rs, mu, tables)
    reads[0] = 0
    p_spectrum(rs, (0,) * rs.rank, 4)
    assert 0 < reads[0] <= 2500 * rs.rank


GROUPED_CASES = [(pair, g) for pair in RANK_LE_5 for g in itertools.product((0, 1), repeat=pair[1])]
GROUPED_CASES += [(pair, g) for pair in RANK_LE_5 if pair[1] > 1
                  for g in [(2,) + (0,) * (pair[1] - 1), (0,) * (pair[1] - 1) + (2,)]]
GROUPED_CASES += [(("C", 8), (1, 0, 1, 0, 0, 0, 0, 0))]


@pytest.mark.parametrize("pair", RANK_LE_5 + [("C", 8)], ids=_rank_id)
def test_grouped_tables_match_all_roots_recursion(pair, monkeypatch):
    # one string per W_J-orbit in integers against every root in Fractions:
    # {0,1}^r on every system of rank <= 5, 2 omega_1, 2 omega_r, and C8
    monkeypatch.setattr(reps, "_TABLES", {})
    rs = build_root_system(*pair)
    for p, gamma in GROUPED_CASES:
        if p == pair:
            assert (reps._dominant_multiplicities(rs, gamma)
                    == dominant_multiplicities_by_all_roots(rs, gamma)), gamma


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------

def test_highest_weight_multiplicity_is_one():
    for rs, gamma in [(A2, (2, 1)), (B3, (1, 0, 1)), (G2, (1, 1))]:
        assert weight_multiplicity(rs, gamma, gamma) == 1


def test_zero_weight_multiplicities():
    assert weight_multiplicity(A2, (1, 1), (0, 0)) == 2
    assert weight_multiplicity(B3, (1, 0, 0), (0, 0, 0)) == 1


def test_weight_system_rank_one_string():
    ws = weight_system(A1, (2,))
    assert ws.mults == {(2,): 1, (0,): 1, (-2,): 1}
    assert ws.dim == 3


def test_weight_system_b3_vector():
    ws = weight_system(B3, (1, 0, 0))
    assert ws.dim == 7
    assert len(ws.mults) == 7
    assert set(ws.mults.values()) == {1}


def test_weight_system_a2_adjoint():
    ws = weight_system(A2, (1, 1))
    assert ws.dim == 8
    assert ws.mults[(0, 0)] == 2
    assert sum(1 for m in ws.mults.values() if m == 1) == 6


FREUDENTHAL_CASES = (
    [(A1, (k,)) for k in range(0, 11)]
    + [(A2, (a, b)) for a in range(4) for b in range(4) if a + b <= 3]
    + [(B2, (a, b)) for a in range(3) for b in range(3) if a + b <= 2]
)


@pytest.mark.parametrize(
    "rs,gamma", FREUDENTHAL_CASES, ids=lambda x: x.name() if hasattr(x, "name") else str(x)
)
def test_freudenthal_matches_tensor_oracle(rs, gamma):
    ws = weight_system(rs, gamma)
    assert ws.mults == oracle_weight_system(rs, gamma)
    assert sum(ws.mults.values()) == weyl_dimension(rs, gamma) == ws.dim


# ---------------------------------------------------------------------------
# the tensor-character oracle on every family of rank <= 4
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pair", RANK_LE_4, ids=_rank_id)
def test_generated_fundamental_characters_have_intended_highest_weight(pair):
    rs = build_root_system(*pair)
    chars = fundamental_characters(*pair)
    assert len(chars) == rs.rank
    for k, char in enumerate(chars):
        omega = tuple(int(i == k) for i in range(rs.rank))
        assert char[omega] == 1
        for w, m in char.items():
            assert is_nonneg_root_combination(rs, tuple(a - b for a, b in zip(omega, w)))
            for i in range(1, rs.rank + 1):
                assert char[simple_reflection(rs, i, w)] == m


@pytest.mark.parametrize("pair", sorted(FUNDAMENTAL_CHARS), ids=_rank_id)
def test_generated_fundamental_characters_reproduce_hand_coded(pair):
    assert fundamental_characters(*pair) == [Counter(c) for c in FUNDAMENTAL_CHARS[pair]]


@pytest.mark.parametrize("pair", RANK_LE_4, ids=_rank_id)
def test_weight_system_matches_oracle_on_every_family(pair):
    rs = build_root_system(*pair)
    for gamma in _gammas(rs.rank, 3, 3 if rs.rank <= 3 else 2):
        assert weight_system(rs, gamma).mults == oracle_weight_system(rs, gamma), gamma


@pytest.mark.parametrize("family,rank,gamma,expected", [
    ("B", 2, (1, 0), 1), ("B", 2, (0, 2), 2), ("B", 3, (1, 0, 0), 1), ("B", 3, (0, 1, 0), 3),
    ("B", 4, (1, 0, 0, 0), 1), ("B", 4, (0, 1, 0, 0), 4), ("B", 4, (0, 0, 0, 2), 6),
    ("C", 2, (0, 1), 1), ("C", 2, (2, 0), 2), ("C", 3, (0, 1, 0), 2), ("C", 3, (2, 0, 0), 3),
    ("C", 4, (0, 1, 0, 0), 3), ("C", 4, (2, 0, 0, 0), 4), ("C", 4, (0, 0, 0, 1), 2),
])
def test_zero_weight_multiplicities_b_and_c_match_oracle(family, rank, gamma, expected):
    # vector and adjoint: 1 and n; C_n omega_2: n - 1; C4 omega_4: 2
    rs = build_root_system(family, rank)
    zero = (0,) * rank
    assert weight_multiplicity(rs, gamma, zero) == oracle_weight_system(rs, gamma)[zero] == expected


# ---------------------------------------------------------------------------
# the dominant-step walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pair", RANK_LE_4, ids=_rank_id)
def test_dominant_walk_matches_all_weights_walk(pair):
    # the down-walk Freudenthal runs (steps -alpha, keyed by the denominator)
    # against the oracle: every gamma in {0, 1, 2}^rank for rank <= 3;
    # coordinate sum <= 2 for rank 4, where the all-weights walk over all of
    # {0, 1, 2}^4 takes ~50 s
    rs = build_root_system(*pair)
    norm = reps._rho_norm(rs)
    steps = [tuple(-x for x in alpha) for alpha in rs.positive_roots_fw]
    for gamma in _gammas(rs.rank, 2, 2 if rs.rank == 4 else 2 * rs.rank):
        expected = set(dominant_heights_by_all_weights_walk(rs, gamma))
        top = norm(gamma)
        walked = list(reps._dominant_walk(gamma, steps, lambda mu: top - norm(mu)))
        weights = [mu for _, mu in walked]
        assert len(weights) == len(set(weights)), gamma
        assert set(weights) == expected == set(reps._dominant_multiplicities(rs, gamma)), gamma
        # the denominators never decrease, and only gamma's is zero
        assert walked == sorted(walked), gamma
        assert walked[0] == (0, gamma) and all(d > 0 for d, _ in walked[1:]), gamma


def test_dominant_walk_work_counter_c8(monkeypatch):
    # deterministic work gate: walking every weight of V_gamma takes 15,688 calls
    calls = count_calls(monkeypatch, reps, "dominant_conjugate")
    monkeypatch.setattr(reps, "_TABLES", {})
    mults = reps._dominant_multiplicities(build_root_system("C", 8), (1, 0, 1, 0, 0, 0, 0, 0))
    assert len(mults) == 5
    assert 0 < len(calls) < 1000


def test_distinguish_work_counter(monkeypatch):
    # deterministic work gate: one string per W_J-orbit of roots; summed
    # over every positive root, distinguish(14) made 9,994 calls
    calls = count_calls(monkeypatch, reps, "dominant_conjugate")
    monkeypatch.setattr(reps, "_TABLES", {})
    assert distinguish(14).verdict == "spectra differ"
    assert 0 < len(calls) <= 300


def test_equal_cartan_matrices_share_one_record(monkeypatch):
    # the record is keyed by the Cartan matrix's entries, not by the object:
    # a second build of B4 gets the first one's record, and its weight
    # system needs no Freudenthal lookup
    calls = count_calls(monkeypatch, reps, "dominant_conjugate")
    monkeypatch.setattr(reps, "_TABLES", {})
    first, second = build_root_system("B", 4), build_root_system("B", 4)
    assert first.cartan_matrix is not second.cartan_matrix
    assert reps._tables(first) is reps._tables(second)
    weight_system(first, rho(first))
    assert len(calls) > 0
    calls.clear()
    weight_system(second, rho(second))
    assert len(calls) == 0


def test_freudenthal_needs_no_simple_root_coordinates(monkeypatch):
    # root strings end at their first gap, so no simple-root coordinates
    # are needed to bound them
    cases = [(build_root_system("B", 4), (1, 1, 1, 1)),
             (build_root_system("C", 8), (1, 0, 1, 0, 0, 0, 0, 0)),
             (build_root_system("D", 5), (1, 1, 0, 1, 1)),
             (G2, (2, 1))]

    def refuse(*args):
        raise AssertionError("simple-root coordinates requested")

    # reps binds the membership test by name, so both bindings are patched
    monkeypatch.setattr(rootsys, "is_nonneg_root_combination", refuse)
    monkeypatch.setattr(reps, "is_nonneg_root_combination", refuse)
    monkeypatch.setattr(reps, "_TABLES", {})
    for rs, gamma in cases:
        mults = reps._dominant_multiplicities(rs, gamma)
        dim = sum(m * len(weyl_orbit(rs, mu)) for mu, m in mults.items())
        assert dim == weyl_dimension(rs, gamma), (rs.name(), gamma)


# every gamma in {0,1}^r on each system of rank <= 3, and one larger gamma
# each for B4, C4, D4 and G2
STRING_CASES = [(pair, g) for pair in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                       ("C", 2), ("C", 3), ("D", 3), ("G", 2)]
                for g in itertools.product((0, 1), repeat=pair[1])]
STRING_CASES += [(("B", 4), (1, 1, 1, 1)), (("C", 4), (1, 1, 1, 1)),
                 (("D", 4), (1, 1, 1, 1)), (("G", 2), (2, 1))]


@pytest.mark.parametrize("pair,gamma", STRING_CASES,
                         ids=[f"{f}{r}-{''.join(map(str, g))}" for (f, r), g in STRING_CASES])
def test_root_strings_are_unbroken(pair, gamma):
    # what Freudenthal's stopping rule relies on: for every weight mu and
    # positive root alpha, the j with mu + j alpha a weight form one interval
    rs = build_root_system(*pair)
    weights = weight_system(rs, gamma).mults
    for alpha in rs.positive_roots_fw:
        i = next(k for k, a in enumerate(alpha) if a)
        # w and w + t alpha share alpha_i w - w_i alpha; w_i is the position
        strings = defaultdict(list)
        for w in weights:
            strings[tuple(alpha[i] * x - w[i] * a for x, a in zip(w, alpha))].append(w[i])
        for key, positions in strings.items():
            span, rest = divmod(max(positions) - min(positions), abs(alpha[i]))
            assert rest == 0 and span + 1 == len(positions), (gamma, alpha, key)


@pytest.mark.parametrize("rs,gamma", [(A2, (2, 1)), (B3, (0, 1, 0)), (G2, (1, 0))],
                         ids=["A2", "B3", "G2"])
def test_multiplicities_weyl_invariant(rs, gamma):
    ws = weight_system(rs, gamma)
    for w, m in ws.mults.items():
        for i in range(1, rs.rank + 1):
            assert ws.mults[simple_reflection(rs, i, w)] == m


def _swap_last_two(w):
    return w[:-2] + (w[-1], w[-2])


def _swap_first_two(w):
    return (w[1], w[0], *w[2:])


# one algebra under two numberings of its simple roots, with the map carrying
# a weight of the first onto the same weight of the second: B2 and C2 number
# the two nodes the other way round, and A3's middle node is D3's node 1
ISOMORPHIC_PAIRS = {"B2-C2": (B2, C2, _swap_last_two),
                    "A3-D3": (build_root_system("A", 3), build_root_system("D", 3),
                              _swap_first_two)}
RELABELLED = ([pytest.param("B2-C2", gamma, id=f"gamma{i}")
               for i, gamma in enumerate(_gammas(2, 3, 3))]
              + [pytest.param("A3-D3", gamma, id=f"A3-D3-gamma{i}")
                 for i, gamma in enumerate(_gammas(3, 1, 3))])


@pytest.mark.parametrize("pair, gamma", RELABELLED)
def test_b2_c2_swap(pair, gamma):
    # relabelling carries one weight system, and one spectrum row by row with
    # its constituents, onto the other; constituents are sorted in each
    # algebra's own numbering, so they compare as sorted lists
    rs, other, relabel = ISOMORPHIC_PAIRS[pair]
    image = relabel(gamma)
    ws, ws_other = weight_system(rs, gamma), weight_system(other, image)
    assert ws_other.highest == image
    assert ws_other.mults == {relabel(w): m for w, m in ws.mults.items()}
    rows, rows_other = p_spectrum(rs, gamma, 3).rows, p_spectrum(other, image, 3).rows
    assert len(rows) == len(rows_other)
    for row, row_other in zip(rows, rows_other):
        assert (row.eigenvalue, row.total_multiplicity) == (row_other.eigenvalue,
                                                            row_other.total_multiplicity)
        assert sorted(c._replace(gamma=relabel(c.gamma)) for c in row.constituents) == sorted(
            row_other.constituents)


@pytest.mark.parametrize("rank", [4, 5])
def test_d_diagram_automorphism(rank):
    # sigma exchanges the two fork nodes of D_n; V_lambda goes to V_{sigma lambda}
    rs = build_root_system("D", rank)
    for lam in _gammas(rank, 1, 2):
        image = {_swap_last_two(w): m for w, m in weight_system(rs, lam).mults.items()}
        assert image == weight_system(rs, _swap_last_two(lam)).mults


# ---------------------------------------------------------------------------
# tensor products: the Brauer-Klimyk rule
# ---------------------------------------------------------------------------

BRAUER_KLIMYK = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4),
                 ("C", 3), ("C", 4), ("D", 4), ("G", 2)]


@pytest.mark.parametrize("pair", BRAUER_KLIMYK, ids=_rank_id)
def test_brauer_klimyk_tensor_products(pair):
    """V_lam (x) V_mu is the sum, over the weights nu of V_mu, of
    m_mu(nu) det(w) V_{w(lam + nu + rho) - rho}, for lam, mu in {0,1}^r with
    coordinate sum <= 2.  The signed constituent dimensions sum to
    dim V_lam * dim V_mu and every net constituent count is >= 0; on rank
    <= 3 and G2 the constituents' characters also sum to the tensor
    character."""
    rs = build_root_system(*pair)
    full = rs.rank <= 3 or rs.family == "G"
    for lam in _gammas(rs.rank, 1, 2):
        for mu in _gammas(rs.rank, 1, 2):
            mults_mu = weight_system(rs, mu).mults
            counts = Counter()
            for nu, m in mults_mu.items():
                sign, top = dot_dominant(rs, tuple(a + b for a, b in zip(lam, nu)))
                if sign:
                    counts[top] += sign * m
            assert (sum(c * weyl_dimension(rs, top) for top, c in counts.items())
                    == weyl_dimension(rs, lam) * weyl_dimension(rs, mu)), (lam, mu)
            assert all(c >= 0 for c in counts.values()), (lam, mu)
            if full:
                tensor, constituents = Counter(), Counter()
                for a, ma in weight_system(rs, lam).mults.items():
                    for b, mb in mults_mu.items():
                        tensor[tuple(x + y for x, y in zip(a, b))] += ma * mb
                for top, c in counts.items():
                    for w, m in weight_system(rs, top).mults.items():
                        constituents[w] += c * m
                assert tensor == constituents, (lam, mu)


# ---------------------------------------------------------------------------
# Casimir
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(0, 21))
def test_casimir_rank_one_closed_form(k):
    assert casimir_value(A1, (k,)) == Fraction(-((k + 1) ** 2 - 1), 8)


def test_casimir_examples():
    assert casimir_value(B3, (1, 0, 0)) == Fraction(-3, 5)
    for rs in [A1, A2, B3, G2]:
        assert casimir_value(rs, (0,) * rs.rank) == 0


def test_casimir_rejects_non_dominant():
    with pytest.raises(ValueError, match="not dominant"):
        casimir_value(A2, (-1, 0))


@pytest.mark.parametrize("rs", [A2, B2, G2], ids=lambda r: r.name())
def test_casimir_nonpositive(rs):
    rng = random.Random(11 + rs.rank)
    for _ in range(10):
        gamma = tuple(rng.randint(0, 4) for _ in range(rs.rank))
        value = casimir_value(rs, gamma)
        if any(gamma):
            assert value < 0
        else:
            assert value == 0


# ---------------------------------------------------------------------------
# bounded dominant enumeration
# ---------------------------------------------------------------------------

def test_enumeration_rank_one_closed_form():
    # K((k+1) omega, (k+1) omega) = (k+1)^2 / 8
    out = dominant_weights_with_norm_bound(A1, Fraction(25, 8))
    assert out == [(0,), (1,), (2,), (3,), (4,)]
    assert dominant_weights_with_norm_bound(A1, Fraction(1, 8)) == [(0,)]
    assert dominant_weights_with_norm_bound(A1, Fraction(1, 16)) == []


@pytest.mark.parametrize("bound", [0.5, Decimal("0.5"), "1/2", None])
def test_enumeration_rejects_inexact_bound(bound):
    message = f"norm bound must be an int or a rational, got {bound!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        dominant_weights_with_norm_bound(A1, bound)


@pytest.mark.parametrize("rs,bound", [(A2, 2), (B2, 3), (B3, Fraction(5, 2)), (G2, 2)],
                         ids=["A2", "B2", "B3", "G2"])
def test_enumeration_downward_closed_and_sorted(rs, bound):
    out = dominant_weights_with_norm_bound(rs, bound)
    found = set(out)
    r = rho(rs)

    def norm(w):
        t = tuple(a + b for a, b in zip(w, r))
        return killing_dual_form(rs, t, t)

    # exactness of the bound
    for w in out:
        assert norm(w) <= Fraction(bound)
    # monotone: removing one fundamental weight stays inside
    for w in out:
        for i in range(rs.rank):
            if w[i] > 0:
                lower = tuple(c - 1 if j == i else c for j, c in enumerate(w))
                assert lower in found
    # deterministic order: by norm, then lexicographic
    keys = [(norm(w), w) for w in out]
    assert keys == sorted(keys)


@pytest.mark.parametrize("family", ["B", "C"])
def test_enumeration_evaluates_each_candidate_once(family):
    # deterministic work gate: the key runs once per distinct candidate,
    # including the candidates over the bound
    rs = build_root_system(family, 6)
    r = rho(rs)
    seen = []

    def norm(w):
        seen.append(w)
        t = tuple(a + b for a, b in zip(w, r))
        return killing_dual_form(rs, t, t)

    bound = 2 * norm((0,) * rs.rank) + 1
    seen.clear()
    found = [w for _, w in itertools.takewhile(lambda item: item[0] <= bound,
                                               reps._walk_up(rs, norm))]
    steps = {tuple(c + (j == i) for j, c in enumerate(w))
             for w in found for i in range(rs.rank)}
    assert len(found) > 50
    assert len(seen) == len(set(seen)) == len(steps | {(0,) * rs.rank})


def test_enumeration_complete_against_box_scan():
    rs = B2
    bound = Fraction(3)
    out = set(dominant_weights_with_norm_bound(rs, bound))
    r = rho(rs)
    for a in range(0, 12):
        for b in range(0, 12):
            t = (a + 1, b + 1)
            inside = killing_dual_form(rs, t, t) <= bound
            assert ((a, b) in out) == inside


@pytest.mark.parametrize("rs", [A2, B2, G2], ids=lambda r: r.name())
def test_norm_strictly_increases_along_fundamental_steps(rs):
    # the monotonicity that makes the bounded enumeration complete
    rng = random.Random(31 + rs.rank)
    r = rho(rs)
    for _ in range(12):
        gamma = tuple(rng.randint(0, 5) for _ in range(rs.rank))
        base = tuple(a + b for a, b in zip(gamma, r))
        for i in range(rs.rank):
            stepped = tuple(c + 1 if j == i else c for j, c in enumerate(base))
            assert killing_dual_form(rs, stepped, stepped) > killing_dual_form(rs, base, base)
