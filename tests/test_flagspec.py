import itertools
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from symdol import cp1, flagspec, fock, rootsys, surface
from symdol.cp1 import lambda_lj
from symdol.flagspec import (
    Constituent,
    distinguish,
    first_positive_eigenvalue,
    ground_kernel,
    p_spectrum,
    rank_one_sanity,
    small_irrep_inventory,
    spinor_weight,
)
from symdol.reps import weight_multiplicity, weyl_dimension
from symdol.rootsys import build_root_system, is_nonneg_root_combination, rho

from conftest import count_calls
from oracles import (
    b_first_positive_row,
    c_first_positive_row,
    first_positive_eigenvalue_by_scan,
    ground_row,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
B3 = build_root_system("B", 3)
C3 = build_root_system("C", 3)
G2 = build_root_system("G", 2)


# ---------------------------------------------------------------------------
# spinor weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rs", [A1, A2, B2, B3, C3, G2], ids=lambda r: r.name())
def test_vacuum_spinor_weight_is_rho(rs):
    beta = (0,) * len(rs.positive_roots_fw)
    assert spinor_weight(rs, beta) == rho(rs)


def test_spinor_weight_rank_one_closed_form():
    for l in range(0, 6):
        assert spinor_weight(A1, (l,)) == (2 * l + 1,)


def test_spinor_weight_a2_first_root():
    # roots ordered alpha_1, alpha_2, alpha_1+alpha_2 = (2, -1), (-1, 2), (1, 1);
    # each level-one weight is rho + alpha_j
    assert spinor_weight(A2, (1, 0, 0)) == (3, 0)
    assert spinor_weight(A2, (0, 1, 0)) == (0, 3)
    assert spinor_weight(A2, (0, 0, 1)) == (2, 2)


def test_spinor_weight_validates_length():
    with pytest.raises(ValueError, match="positive roots"):
        spinor_weight(A2, (1, 0))


@pytest.mark.parametrize("call", [
    lambda: weyl_dimension(B3, (1.5, 0, 0)),
    lambda: weyl_dimension(B3, (Fraction(3, 2), 0, 0)),
    lambda: weight_multiplicity(B3, (1.9, 0, 0), (0, 0, 0)),
    lambda: weight_multiplicity(B3, (1, 0, 0), (Fraction(0), 0, 0)),
    lambda: p_spectrum(B3, (0.5, 0, 0), 1),
    lambda: fock.basis_vector(1, (2.7,)),
    lambda: fock.basis_vector(1, (Fraction(2),)),
    lambda: spinor_weight(A1, (1.5,)),
    lambda: small_irrep_inventory(C3, 3.5),
    lambda: surface.index(1.5, 0, "fock"),
    lambda: surface.index(0, 2.0, "metaplectic"),
    lambda: build_root_system("B", 3.0),
    lambda: distinguish(3.0),
    lambda: distinguish(1.5),
    lambda: cp1.block_exists(0.5, 3),
    lambda: cp1.block_dim(2.5, 9),
    lambda: lambda_lj(1.5, 0),
    lambda: is_nonneg_root_combination(B3, (2.0, 0, 0)),
    lambda: is_nonneg_root_combination(B3, (Fraction(1, 2), 0, 0)),
], ids=["weyl_dimension-float", "weyl_dimension-fraction", "weight_multiplicity-float",
        "weight_multiplicity-fraction", "p_spectrum-float", "basis_vector-float",
        "basis_vector-fraction", "spinor_weight-float", "small_irrep_inventory-float",
        "index-genus-float", "index-level-float",
        "build_root_system-float", "distinguish-float", "distinguish-float-below-range",
        "block_exists-float", "block_dim-float", "lambda_lj-float",
        "is_nonneg_root_combination-float", "is_nonneg_root_combination-fraction"])
def test_non_integer_coordinates_rejected(call):
    # a coordinate, rank, bound, genus or level that is not an int is an error,
    # never truncated to one
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: spinor_weight(A2, (1, -1, 0)), "multi-index entries must be nonnegative"),
    (lambda: p_spectrum(A1, (0,), -1), "cutoff must be >= 0"),
    (lambda: small_irrep_inventory(C3, 0), "dimension bound must be >= 1"),
], ids=["spinor_weight-negative", "p_spectrum-negative-cutoff", "small_irrep_inventory-bound-0"])
def test_out_of_range_inputs_rejected(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# ground kernels
# ---------------------------------------------------------------------------

def test_ground_kernel_at_rho_is_two_power():
    for rs in [A2, B3, G2]:
        gk = ground_kernel(rs, rho(rs))
        assert gk.highest == rho(rs)
        assert gk.dim == 2 ** len(rs.positive_roots_fw)


def test_ground_kernel_rank_one_metaplectic_levels():
    for l in range(0, 5):
        gk = ground_kernel(A1, (2 * l + 1,))
        assert gk.dim == 2 * l + 2


def test_ground_kernel_trivial_weight():
    gk = ground_kernel(B3, (0, 0, 0))
    assert gk.highest == (0, 0, 0) and gk.dim == 1


def test_ground_kernel_non_dominant_vanishes():
    gk = ground_kernel(A2, (-1, 1))
    assert gk.highest is None and gk.dim == 0
    assert "vanishing" in gk.note


def test_ground_kernel_checks_mu_once(monkeypatch):
    # work gate: one as_weight per call, counted through the flag layer's
    # binding and rootsys' own (2 while is_dominant re-checked the weight)
    calls = count_calls(monkeypatch, (rootsys, flagspec), "as_weight")
    for rs, mu, dim in ((B3, [1, 0, 2], 189), (A2, (-1, 1), 0)):
        calls.clear()
        assert ground_kernel(rs, mu).dim == dim
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# p_spectrum
# ---------------------------------------------------------------------------

def test_spectrum_ground_row():
    for rs, mu in [(A1, (3,)), (A2, (1, 0)), (B3, (0, 0, 0))]:
        table = p_spectrum(rs, mu, 1)
        assert table.rows[0].eigenvalue == 0
        assert table.rows[0].constituents == (
            Constituent(tuple(mu), 1, weyl_dimension(rs, mu)),
        )


def test_spectrum_rank_one_fundamental():
    table = p_spectrum(A1, (1,), 4)
    assert [(r.eigenvalue, r.total_multiplicity) for r in table.rows] == [
        (Fraction(0), 2),
        (Fraction(3, 2), 4),
        (Fraction(4), 6),
    ]


def test_spectrum_cutoff_zero():
    table = p_spectrum(A1, (1,), 0)
    assert len(table.rows) == 1 and table.rows[0].eigenvalue == 0


def test_spectrum_rank_one_closed_form_cross_check():
    # row j of the twist by (2l+1)omega sits at lambda_lj(l, j) - lambda_lj(l, 0)
    # (the vacuum operator is normalized to start at 0), with total 2(l+j+1);
    # at l = 0 the offset vanishes and the closed form holds verbatim
    for l in range(0, 4):
        mu = (2 * l + 1,)
        cutoff = lambda_lj(l, 10) - lambda_lj(l, 0)
        table = p_spectrum(A1, mu, cutoff)
        assert len(table.rows) == 11
        for j, row in enumerate(table.rows):
            assert row.eigenvalue == lambda_lj(l, j) - lambda_lj(l, 0)
            assert row.total_multiplicity == 2 * (l + j + 1)


def test_cp1_three_ways():
    # CP^1 = SU(2)/T as the A1 flag manifold, as the CP^1 block engine and as
    # the genus-0 surface: the level-l spinor weight is (2l+1,), the twisted A1
    # spectrum lists exactly the gammas of verify's level-l blocks with the
    # block dimensions as totals, each eigenvalue is the block's P minus the
    # shift s_l = -l(2l+1)/2 (lambda_lj(l, 0), the kernel block's P), and the
    # three kernels are 2l+2; every block passed its checks, lambda_lj among them
    gamma_max = 101
    for lv in cp1.verify(10, gamma_max):
        l, mu = lv.level, (2 * lv.level + 1,)
        assert lv.ok and spinor_weight(A1, (l,)) == mu
        shift = Fraction(-l * (2 * l + 1), 2)
        assert shift == lambda_lj(l, 0)
        table = p_spectrum(A1, mu, lv.blocks[-1].eigenvalue - shift)
        assert [(row.eigenvalue, row.constituents, row.total_multiplicity)
                for row in table.rows] == [
            (b.eigenvalue - shift, (Constituent((b.gamma,), 1, b.dim),), b.dim)
            for b in lv.blocks]
        assert lv.blocks[-1].gamma == gamma_max
        index = surface.index(0, l, "metaplectic")
        assert ground_kernel(A1, mu).dim == lv.ker_dbar == index == 2 * l + 2


def test_spectrum_b3_first_positive_row():
    table = p_spectrum(B3, (0, 0, 0), 1)
    row = table.rows[1]
    assert row.eigenvalue == Fraction(3, 5)
    assert row.constituents == (Constituent((1, 0, 0), 1, 7),)
    assert row.total_multiplicity == 7


def test_spectrum_merges_coinciding_eigenvalues():
    # A2 at mu=0: (3,0) and (0,3) share lambda = 2
    table = p_spectrum(A2, (0, 0), 2)
    merged = [r for r in table.rows if len(r.constituents) > 1]
    assert merged
    gammas = {c.gamma for c in merged[0].constituents}
    assert gammas == {(3, 0), (0, 3)}
    assert merged[0].eigenvalue == 2


def test_spectrum_rejects_non_dominant_mu():
    with pytest.raises(ValueError, match="not dominant"):
        p_spectrum(A2, (-1, 0), 1)


def test_spectrum_rows_are_ordered_totalled_and_grounded():
    # the invariants p_spectrum holds by construction: eigenvalues strictly
    # increase from 0 to at most the cutoff, each total is its constituents'
    # ledger, and the ground row is V_mu alone
    for family, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)),
                          ("D", (3, 4)), ("G", (2,))):
        for rank in ranks:
            rs = build_root_system(family, rank)
            for mu in itertools.product((0, 1), repeat=rank):
                for cutoff in (0, Fraction(1, 2), 1, 2):
                    rows = p_spectrum(rs, mu, cutoff).rows
                    eigenvalues = [row.eigenvalue for row in rows]
                    assert eigenvalues[0] == 0 and eigenvalues[-1] <= cutoff
                    assert all(a < b for a, b in zip(eigenvalues, eigenvalues[1:]))
                    assert all(row.total_multiplicity == sum(c.weight_mult * c.dim
                                                             for c in row.constituents)
                               for row in rows)
                    assert rows[0].constituents == ((mu, 1, weyl_dimension(rs, mu)),)


def test_spectrum_deterministic_and_cache_neutral():
    t1, t2, t3 = (p_spectrum(B3, (0, 0, 0), Fraction(6, 5)) for _ in range(3))
    assert t1 == t2 == t3


# ---------------------------------------------------------------------------
# distinguisher
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [*range(3, 13), 16, 20, 40])
def test_distinguisher_claim(n):
    # the paper's claim: the first positive B_n eigenvalue n/(2n-1) carries a
    # (2n+1)-dimensional eigenspace, from gamma = omega_1 alone, that no row
    # of the C_n spectrum reproduces; both tables' ground and first positive
    # rows match their closed forms
    report = distinguish(n)
    assert report.verdict == "spectra differ"
    for table, closed_form in ((report.b_table, b_first_positive_row),
                               (report.c_table, c_first_positive_row)):
        for row, (eigenvalue, gamma, weight_mult, dim) in zip(
                table.rows, (ground_row(n), closed_form(n))):
            assert row.eigenvalue == eigenvalue
            assert row.constituents == (Constituent(gamma, weight_mult, dim),)
            assert row.total_multiplicity == weight_mult * dim
    b1 = report.b_table.rows[1]
    assert all((row.eigenvalue, row.total_multiplicity) != (b1.eigenvalue, b1.total_multiplicity)
               for row in report.c_table.rows)
    assert report.first_difference.index == 1


def test_distinguish_n2_control_agrees():
    report = distinguish(2, cutoff=2)
    assert report.first_difference is None
    assert report.verdict == "spectra agree up to cutoff 2"
    # and constituents correspond under the diagram flip (a, b) <-> (b, a)
    for rb, rc in zip(report.b_table.rows, report.c_table.rows):
        flipped = sorted((tuple(reversed(c.gamma)), c.weight_mult, c.dim)
                         for c in rb.constituents)
        actual = sorted((c.gamma, c.weight_mult, c.dim) for c in rc.constituents)
        assert flipped == actual


INEXACT_CUTOFFS = [0.1, Decimal("0.1"), "1/10", 1e-3]


@pytest.mark.parametrize("call", [
    lambda c: p_spectrum(A1, (0,), c),
    lambda c: distinguish(2, c),
    lambda c: rank_one_sanity(c),
], ids=["p_spectrum", "distinguish", "rank_one_sanity"])
@pytest.mark.parametrize("cutoff", INEXACT_CUTOFFS, ids=repr)
def test_inexact_cutoff_rejected(call, cutoff):
    # a float is a TypeError naming it, never its binary expansion
    message = f"cutoff must be an int or a rational, got {cutoff!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        call(cutoff)


def test_rational_cutoffs_accepted_exactly():
    assert distinguish(2, Fraction(1, 10)).cutoff == Fraction(1, 10)
    assert rank_one_sanity(2).cutoff == 2
    assert p_spectrum(A1, (0,), 1).cutoff == 1


def test_distinguish_rejects_rank_one():
    with pytest.raises(ValueError, match="n >= 2"):
        distinguish(1)


def test_rank_one_sanity_spectra_identical():
    report = rank_one_sanity()
    assert report.n == 1
    assert report.first_difference is None
    assert report.b_table.rows == report.c_table.rows


def test_first_positive_eigenvalues():
    assert first_positive_eigenvalue(B3) == Fraction(3, 5)
    assert first_positive_eigenvalue(C3) == Fraction(3, 4)
    assert first_positive_eigenvalue(A1) == 1   # gamma = 2 omega, (9 - 1)/8


@pytest.mark.parametrize("rs,mu", [(A1, (-1,)), (B3, (0, -1, 2)), (G2, (2, -1))],
                         ids=["A1", "B3", "G2"])
def test_first_positive_eigenvalue_rejects_non_dominant_mu(rs, mu):
    # the same error as p_spectrum, whose spectrum the eigenvalue belongs to
    message = re.escape(f"weight {mu} is not dominant for {rs.name()}")
    with pytest.raises(ValueError, match=message):
        p_spectrum(rs, mu, 1)
    with pytest.raises(ValueError, match=message):
        first_positive_eigenvalue(rs, mu)


# one nonzero dominant mu per family
TWISTS = {
    "A": lambda k: (1,) + (0,) * (k - 1),
    "B": lambda k: (0,) * (k - 1) + (1,),
    "C": lambda k: (0, 1) + (0,) * (k - 2),
    "D": lambda k: (1,) + (0,) * (k - 2) + (1,),
    "G": lambda k: (1, 1),
}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                         ("C", 2), ("C", 3), ("D", 4), ("G", 2)])
@pytest.mark.parametrize("twisted", [False, True], ids=["mu0", "mu"])
def test_first_positive_eigenvalue_matches_full_scan(family, rank, twisted):
    rs = build_root_system(family, rank)
    mu = TWISTS[family](rank) if twisted else (0,) * rank
    assert first_positive_eigenvalue(rs, mu) == first_positive_eigenvalue_by_scan(rs, mu)


@pytest.mark.parametrize("family,expected", [("B", Fraction(8, 15)), ("C", Fraction(8, 9))])
def test_first_positive_eigenvalue_lists_few_candidates(monkeypatch, family, expected):
    # deterministic work gate: the first hit (omega_1 for B_n, omega_2 for
    # C_n) lies in the first shells, so the walk tests few candidates
    tested = count_calls(monkeypatch, flagspec, "weight_multiplicity")
    # n/(2n-1) and n/(n+1), the first rows of the distinguisher
    assert first_positive_eigenvalue(build_root_system(family, 8)) == expected
    assert 0 < len(tested) < 100


def test_auto_cutoff_covers_both_first_rows():
    report = distinguish(3)
    assert report.cutoff == 2 * Fraction(3, 4)
    assert len(report.b_table.rows) >= 2 and len(report.c_table.rows) >= 2


# ---------------------------------------------------------------------------
# small irrep inventory
# ---------------------------------------------------------------------------

def test_inventory_c3_dimension_seven():
    assert small_irrep_inventory(C3, 7) == [((0, 0, 0), 1), ((1, 0, 0), 6)]


def test_inventory_rank_one():
    inv = small_irrep_inventory(A1, 5)
    assert inv == [((k,), k + 1) for k in range(5)]


@pytest.mark.parametrize("rs", [A2, B3, G2], ids=lambda r: r.name())
def test_inventory_bound_one(rs):
    assert small_irrep_inventory(rs, 1) == [((0,) * rs.rank, 1)]


def test_inventory_complete_against_box_scan():
    bound = 30
    inv = dict(small_irrep_inventory(B2, bound))
    for a in range(0, 8):
        for b in range(0, 8):
            d = weyl_dimension(B2, (a, b))
            if d <= bound:
                assert inv[(a, b)] == d
            else:
                assert (a, b) not in inv
