from fractions import Fraction

import pytest

from symdol import cp1, fock
from symdol.gaussian import gq
from symdol.linalg import (
    kernel_dimension,
    mat_from_rows,
    mat_mul,
    mat_scale,
    mat_sub,
    rank,
    scalar_identity_value,
)


# ---------------------------------------------------------------------------
# sl2 irreducibles
# ---------------------------------------------------------------------------

def test_sl2_irrep_k0_and_k1():
    rep = cp1.sl2_irrep(0)
    assert rep.h == ((0,),) and rep.x == ((0,),) and rep.y == ((0,),)
    rep = cp1.sl2_irrep(1)
    assert rep.h == ((1, 0), (0, -1))
    assert rep.x == ((0, 1), (0, 0))
    assert rep.y == ((0, 0), (1, 0))


@pytest.mark.parametrize("k", list(range(0, 8)) + [15, 20])
def test_sl2_bracket_relations(k):
    rep = cp1.sl2_irrep(k)
    h, x, y = (mat_from_rows(m) for m in (rep.h, rep.x, rep.y))
    assert mat_sub(mat_mul(h, x), mat_mul(x, h)) == mat_scale(x, 2)
    assert mat_sub(mat_mul(h, y), mat_mul(y, h)) == mat_scale(y, -2)
    assert mat_sub(mat_mul(x, y), mat_mul(y, x)) == h
    assert [rep.h[r][r] for r in range(k + 1)] == list(range(k, -k - 1, -2))


@pytest.mark.parametrize("k", range(0, 21))
def test_sl2_casimir_scalar(k):
    cas = cp1.sl2_casimir_matrix(cp1.sl2_irrep(k))
    assert scalar_identity_value(cas) == gq(Fraction(-((k + 1) ** 2 - 1), 8))


# ---------------------------------------------------------------------------
# closed-form eigenvalues
# ---------------------------------------------------------------------------

def test_lambda_examples():
    assert cp1.lambda_lj(0, 0) == 0
    assert cp1.lambda_lj(1, 0) == Fraction(-3, 2)
    assert cp1.lambda_lj(0, 1) == Fraction(3, 2)


@pytest.mark.parametrize("l", range(1, 5))
@pytest.mark.parametrize("j", range(0, 5))
def test_lambda_ladder_identity(l, j):
    assert cp1.lambda_lj(l, j) + 3 * l == cp1.lambda_lj(l - 1, j + 1)


# ---------------------------------------------------------------------------
# block operators
# ---------------------------------------------------------------------------

GAMMA_MAX = 13


@pytest.fixture(scope="module")
def report():
    return cp1.verify(4, GAMMA_MAX)


def _blocks(report):
    return {(b.level, b.gamma): b for lv in report for b in lv.blocks}


@pytest.mark.parametrize("level", range(0, 5))
def test_p_spectrum_blockwise(report, level):
    for block in report[level].blocks:
        assert scalar_identity_value(block.p) == gq(block.eigenvalue)
        assert block.eigenvalue == cp1.lambda_lj(level, block.j)
        assert block.passed("closed-form lambda")
        assert block.dim == 2 * (level + block.j + 1)


@pytest.mark.parametrize("level", range(0, 5))
def test_p_equals_minus_omega_minus_three_halves_h_squared(report, level):
    for block in report[level].blocks:
        # the Casimir assembled once per gamma is the one at this level
        assert block.omega == cp1.omega_block(level, block.gamma).matrix
        h2 = mat_mul(block.h, block.h)
        assert block.p == mat_sub(mat_scale(block.omega, -1), mat_scale(h2, Fraction(3, 2)))
        assert block.passed("P-identity")


@pytest.mark.parametrize("level", range(0, 5))
def test_p_eigenvalue_multiplicity_via_rank(report, level):
    from symdol.linalg import scalar_matrix
    for block in report[level].blocks:
        lam = cp1.lambda_lj(level, block.j)
        diff = mat_sub(block.p, scalar_matrix(block.dim, gq(lam)))
        assert rank(diff) == 0
        assert kernel_dimension(diff) == block.dim == 2 * (level + block.j + 1)


def test_kernels_concentrated_and_trivial(report):
    for level, lv in enumerate(report):
        for block in lv.blocks:
            kb = kernel_dimension(block.dbar)
            assert kb == block.ker_dbar == (block.dim if block.j == 0 else 0)
            if level >= 1:
                assert kernel_dimension(block.d) == block.ker_d == 0
        assert lv.ker_dbar == sum(kernel_dimension(b.dbar) for b in lv.blocks)
        assert lv.ker_d == sum(kernel_dimension(b.d) for b in lv.blocks)
        assert lv.ker_dbar == 2 * level + 2
        if level >= 1:
            assert lv.ker_d == 0
    assert all(lv.ok and lv.failures == () for lv in report)


def test_verify_rejects_bad_truncation():
    with pytest.raises(ValueError, match="parity"):
        cp1.verify(0, 8)
    with pytest.raises(ValueError, match="gamma_max"):
        cp1.verify(3, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        cp1.verify(-1, 5)


def test_block_requires_matching_parity():
    assert not cp1.block_exists(0, 2)
    assert not cp1.block_exists(2, 3)
    with pytest.raises(ValueError, match="no block"):
        cp1.d_block(0, 2)
    with pytest.raises(ValueError, match="no block"):
        cp1.dbar_block(2, 3)


# ---------------------------------------------------------------------------
# ladder maps
# ---------------------------------------------------------------------------

def test_ladder_reports(report):
    blocks = _blocks(report)
    block = blocks[(2, 5)]    # j = 0: Dbar annihilates the block
    assert block.passed("ladder") and block.j == 0
    assert block.rank_dbar == 0 and block.dbar.nrows == 0
    block = blocks[(1, 5)]
    assert block.passed("ladder") and block.rank_d == 6 and block.rank_dbar == 6
    assert all(lv.ladders_ok for lv in report)


@pytest.mark.parametrize("n_total", range(0, 5))
def test_gamma_n_dimension(n_total):
    report = cp1.verify(n_total, 2 * n_total + 1)
    diagonal = [b for lv in report for b in lv.blocks if b.gamma == 2 * n_total + 1]
    assert [b.level for b in diagonal] == list(range(n_total + 1))
    assert all(b.passed("ladder") for b in diagonal)
    assert sum(b.dim for b in diagonal) == 2 * (n_total + 1) ** 2


def test_ladder_bijectivity_explicit():
    # D: G_{1,1} -> G_{0,2} has full rank 6 = dim of both blocks
    op = cp1.d_block(1, 5)
    assert op.matrix.nrows == op.matrix.ncols == 6
    assert rank(op.matrix) == 6


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level", range(0, 5))
def test_commutator_suite(report, level):
    lv = report[level]
    assert lv.commutators_ok
    assert all(b.passed("commutators") for b in lv.blocks)
    assert len(lv.blocks) == (GAMMA_MAX - (2 * level + 1)) // 2 + 1


def test_p_d_commutator_consistent_with_ladder_shift(report):
    # [P, D] psi = (lambda_{l-1,j+1} - lambda_{l,j}) D psi = 3l D psi
    blocks = _blocks(report)
    for level in (1, 2, 3):
        for gamma in range(2 * level + 1, GAMMA_MAX + 1, 2):
            d = blocks[(level, gamma)].d
            p_down = blocks[(level - 1, gamma)].p
            p_here = blocks[(level, gamma)].p
            lhs = mat_sub(mat_mul(p_down, d), mat_mul(d, p_here))
            assert lhs == mat_scale(d, 3 * level)


def test_p_block_from_ladder_maps():
    # P = (1/2)(D Dbar - Dbar D) from the neighbouring blocks, on block (1, 5)
    d_up, dbar = cp1.d_block(2, 5).matrix, cp1.dbar_block(1, 5).matrix
    dbar_down, d = cp1.dbar_block(0, 5).matrix, cp1.d_block(1, 5).matrix
    p = cp1.p_block(1, 5, d_up, dbar, dbar_down, d).matrix
    assert scalar_identity_value(p) == gq(cp1.lambda_lj(1, 1))


# ---------------------------------------------------------------------------
# adjointness under the block inner product
# ---------------------------------------------------------------------------

def _block_norm(level: int, gamma: int) -> Fraction:
    r = cp1.weight_line_index(level, gamma)
    return fock.basis_norm_sq((level,)) * cp1.invariant_weight_norms(gamma)[r]


@pytest.mark.parametrize("gamma", [3, 5, 9, 13])
def test_dbar_is_adjoint_of_d(gamma):
    for level in range(0, (gamma - 1) // 2):   # blocks where dbar is nonzero
        dbar = cp1.dbar_block(level, gamma).matrix.rows[0][0]
        d_next = cp1.d_block(level + 1, gamma).matrix.rows[0][0]
        assert dbar * _block_norm(level + 1, gamma) == d_next.conjugate() * _block_norm(
            level, gamma
        )


def test_invariant_norms_make_x_y_adjoint():
    gamma = 6
    rep = cp1.sl2_irrep(gamma)
    norms = cp1.invariant_weight_norms(gamma)
    for r in range(gamma):
        # <X v_{r+1}, v_r> = <v_{r+1}, Y v_r>
        assert rep.x[r][r + 1] * norms[r] == norms[r + 1] * rep.y[r + 1][r]


# ---------------------------------------------------------------------------
# truncation honesty
# ---------------------------------------------------------------------------

def test_zero_row_blocks_at_boundaries():
    op = cp1.d_block(0, 5)
    assert op.matrix.nrows == 0 and op.matrix.ncols == 6
    assert kernel_dimension(op.matrix) == 6
    op = cp1.dbar_block(2, 5)   # j = 0 block
    assert op.matrix.nrows == 0 and op.matrix.ncols == 6
