from fractions import Fraction

import pytest

import oracles
from conftest import count_calls
from oracles import (
    invariant_weight_norms, kernel_dimension, mat_mul, mat_scale, mat_sub, rank,
    scalar_matrix, sl2_casimir_by_matrices, sl2_irrep_matrices,
)
from symdol import cli, cp1, fock, gaussian, linalg
from symdol.errors import ContractViolation
from symdol.gaussian import GaussianRational, ONE, ZERO, gq
from symdol.linalg import Mat


# ---------------------------------------------------------------------------
# sl2 irreducibles
# ---------------------------------------------------------------------------

def test_sl2_irrep_k0_and_k1():
    # X's band x_r = r(k-r+1), zero at both ends, and 8 Omega's diagonal on V_1 and V_3
    assert [cp1._x_entry(0, r) for r in range(2)] == [0, 0]
    assert [cp1._x_entry(1, r) for r in range(3)] == [0, 1, 0]
    assert [cp1._x_entry(2, r) for r in range(4)] == [0, 2, 2, 0]
    assert cp1.omega_block(0, 1) == (-3, -3)
    assert cp1.omega_block(0, 3) == (-15,) * 4


@pytest.mark.parametrize("call,message", [
    (lambda: cp1.omega_block(0, -1), "no block at level 0, gamma -1"),
    (lambda: cp1.lambda_lj(-1, 0), "l and j must be nonnegative"),
    (lambda: cp1.lambda_lj(0, -1), "l and j must be nonnegative"),
], ids=["omega_block-gamma", "lambda_lj-l", "lambda_lj-j"])
def test_negative_labels_rejected(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def _bands(m: Mat, offset: int) -> list:
    """The entries m[r + offset, r] of one band, zero where the band leaves m."""
    return [m.get((r + offset, r), ZERO) for r in range(m.ncols)]


@pytest.mark.parametrize("k", list(range(0, 8)) + [15, 20])
def test_sl2_bracket_relations(k):
    # the explicit matrices from binary forms are an sl(2) triple, and the
    # program's bands are theirs: h on the diagonal, X above it, Y below (ones)
    h, x, y = sl2_irrep_matrices(k)
    assert mat_sub(mat_mul(h, x), mat_mul(x, h)) == mat_scale(x, 2)
    assert mat_sub(mat_mul(h, y), mat_mul(y, h)) == mat_scale(y, -2)
    assert mat_sub(mat_mul(x, y), mat_mul(y, x)) == h
    for m, offset in ((h, 0), (x, -1), (y, 1)):
        assert all(i - j == offset for i, j in m)    # nothing off the band
    assert _bands(h, 0) == [gq(k - 2 * r) for r in range(k + 1)]
    assert _bands(x, -1) == [gq(cp1._x_entry(k, r)) for r in range(k + 1)]
    assert _bands(y, 1) == [ONE] * k + [ZERO]


@pytest.mark.parametrize("j", range(0, 21))
def test_sl2_casimir_scalar(j):
    # Schur's lemma on 8 Omega's diagonal on V_gamma, gamma = 2j+1 (the
    # level-0 block of j): gamma+1 integer equalities
    gamma = 2 * j + 1
    assert cp1.omega_block(0, gamma) == (-((gamma + 1) ** 2 - 1),) * (gamma + 1)


@pytest.mark.parametrize("j", range(0, 41))
def test_casimir_bands_match_explicit_matrices(j):
    # omega_block's closed form on V_gamma, gamma = 2j+1, is the diagonal of
    # the Casimir built from explicit matrix products, which has no entry off
    # the diagonal
    gamma = 2 * j + 1
    omega = sl2_casimir_by_matrices(gamma)
    diagonal = [gq(Fraction(w, 8)) for w in cp1.omega_block(0, gamma)]
    assert _bands(omega, 0) == diagonal
    assert all(row == col for row, col in omega)
    assert diagonal == [gq(Fraction(-((gamma + 1) ** 2 - 1), 8))] * (gamma + 1)


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
        assert block.p == gq(block.eigenvalue)
        assert block.eigenvalue == cp1.lambda_lj(level, block.j)
        assert block.passed("closed-form lambda")
        assert block.dim == 2 * (level + block.j + 1)


@pytest.mark.parametrize("level", range(0, 5))
def test_p_equals_minus_omega_minus_three_halves_h_squared(report, level):
    for block in report[level].blocks:
        # the Casimir read once per gamma is c * I with the c of this level
        eight_omega = cp1.omega_block(level, block.gamma)
        assert [gq(Fraction(w, 8)) for w in eight_omega] == [block.omega] * block.dim
        h2 = scalar_matrix(block.dim, block.h * block.h)
        omega = scalar_matrix(block.dim, block.omega)
        rhs = mat_sub(mat_scale(omega, -1), mat_scale(h2, Fraction(3, 2)))
        assert scalar_matrix(block.dim, block.p) == rhs
        assert block.passed("P-identity")


@pytest.mark.parametrize("r,message", [
    (3, "Omega on V_5 is not c * I: entry (3, 3) is -27/8"),
    (0, "Omega on V_5 is not c * I: entry (1, 1) is -35/8"),
], ids=["diagonal", "first-entry"])
def test_non_scalar_omega_fails_p_identity_on_every_level(monkeypatch, r, message):
    # Omega is read as c * I once per gamma, c its (0, 0) entry; when its
    # diagonal is not constant, every block of that gamma fails the
    # P-identity with the first entry off c, as a value
    true_omega = cp1.omega_block

    def broken(level, gamma):
        omega = list(true_omega(level, gamma))    # 8 Omega, by its diagonal
        if gamma == 5:
            omega[r] += 8                         # Omega_rr + 1
        return tuple(omega)

    monkeypatch.setattr(cp1, "omega_block", broken)
    report = cp1.verify(2, 7)
    for lv in report:
        for block in lv.blocks:
            assert block.passed("P-identity") == (block.gamma != 5)
        assert (f"level {lv.level}, gamma 5: P-identity failed: "
                f"P = -Omega - (3/2) H^2: {message}") in lv.failures
    assert [b.level for lv in report for b in lv.blocks if b.gamma == 5] == [0, 1, 2]


def test_non_real_p_names_its_value(monkeypatch):
    # a P with an imaginary part fails "P real" on its block, naming P, and the
    # pass goes on; p_block's pair is 128 P, so adding 32 i adds i/4
    true_p = cp1.p_block

    def broken(level, gamma, *maps):
        x, y = true_p(level, gamma, *maps)
        return (x, y + 32) if (level, gamma) == (1, 5) else (x, y)

    monkeypatch.setattr(cp1, "p_block", broken)
    report = cp1.verify(2, 7)
    assert "level 1, gamma 5: P real failed: P = 1+1/4i" in report[1].failures
    assert [(b.level, b.gamma) for lv in report for b in lv.blocks
            if not b.passed("P real")] == [(1, 5)]


def test_p_above_the_top_level_fails_only_the_top_commutators(monkeypatch):
    # P + 1 on level 3, which verify(2, ...) computes but reports on no block.
    # Below the top level [P, D] and [P, Dbar] follow from the P-identity on
    # the block and its same-gamma neighbour; so only the top level's
    # [P, Dbar] reads P at level 3, on the gammas whose ladder reaches it
    true_p = cp1.p_block

    def broken(level, gamma, *maps):
        x, y = true_p(level, gamma, *maps)
        return (x + 128, y) if level == 3 else (x, y)

    monkeypatch.setattr(cp1, "p_block", broken)
    report = cp1.verify(2, 9)
    assert [lv.ok for lv in report] == [True, True, False]
    assert [(b.gamma, list(b.failures)) for b in report[2].blocks if b.failures] == [
        (7, ["commutators"]), (9, ["commutators"])]
    assert report[2].failures[0].startswith("level 2, gamma 7: commutators failed: [P, Dbar] = ")


def _break_fiber_on_level_2(monkeypatch):
    """i sigma(Z) = 1/3 on h_2, from a fock raising map scaled by 2/3 there."""
    true_raise = fock.sigma_raise

    def broken(j, v):
        image = true_raise(j, v)
        return fock.scale(Fraction(2, 3), image) if (2,) in v.terms else image

    monkeypatch.setattr(fock, "sigma_raise", broken)


def test_fiber_coefficient_off_half_gaussian_integers_names_level_and_value(monkeypatch):
    # the one exactness guard: a fock coefficient i sigma(Z) outside Z[i]/2
    # on one level cannot be held at scale 8
    _break_fiber_on_level_2(monkeypatch)
    with pytest.raises(ContractViolation) as info:
        cp1.verify(3, 9)
    assert str(info.value) == (
        "CP^1 fiber coefficient i sigma(Z) on h_2 is 1/3, not in Z[i]/2")


def test_verify_keeps_no_state_between_calls(monkeypatch):
    # each call reads the fiber from fock afresh: a clean run first does not
    # hide a fock broken before the next one
    assert all(lv.ok for lv in cp1.verify(3, 9))
    _break_fiber_on_level_2(monkeypatch)
    with pytest.raises(ContractViolation, match="on h_2 is 1/3, not in Z"):
        cp1.verify(3, 9)


@pytest.mark.parametrize("level", range(0, 5))
def test_p_eigenvalue_multiplicity_via_rank(report, level):
    for block in report[level].blocks:
        lam = cp1.lambda_lj(level, block.j)
        diff = mat_sub(scalar_matrix(block.dim, block.p), scalar_matrix(block.dim, gq(lam)))
        assert rank(diff) == 0
        assert kernel_dimension(diff) == block.dim == 2 * (level + block.j + 1)


def test_kernels_concentrated_and_trivial(report):
    for level, lv in enumerate(report):
        for block in lv.blocks:
            # Dbar is the zero map exactly on the top block j = 0 of its ladder
            assert (block.dbar == ZERO) == (block.j == 0)
            kb = kernel_dimension(scalar_matrix(block.dim, block.dbar))
            assert kb == block.ker_dbar == (block.dim if block.j == 0 else 0)
            if level >= 1:
                assert block.d != ZERO
                assert kernel_dimension(scalar_matrix(block.dim, block.d)) == block.ker_d == 0
        assert lv.ker_dbar == sum(b.dim for b in lv.blocks if b.dbar == ZERO)
        assert lv.ker_d == sum(b.dim for b in lv.blocks if b.d == ZERO)
        assert lv.ker_dbar == 2 * level + 2
        if level >= 1:
            assert lv.ker_d == 0
    assert all(lv.ok and lv.failures == () for lv in report)


def test_verify_rejects_bad_truncation():
    with pytest.raises(ValueError, match="parity"):
        cp1.verify(0, 8)
    with pytest.raises(ValueError, match=r"^gamma_max = 5 < 2\*lmax\+1 = 7$"):
        cp1.verify(3, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        cp1.verify(-1, 5)


def test_verify_takes_truncation_as_integers_from_one():
    # gamma_max and lmax are ints, bool as 1, and gamma_max >= 1
    with pytest.raises(ValueError, match="gamma_max = -1 is below the first block"):
        cp1.verify(0, -1)
    with pytest.raises(TypeError):
        cp1.verify(0, 5.0)
    with pytest.raises(TypeError):
        cp1.verify(1.0, 5)
    assert cp1.verify(True, 3) == cp1.verify(1, 3)


def test_block_requires_matching_parity(report):
    assert not cp1.block_exists(0, 2)
    assert not cp1.block_exists(2, 3)
    assert (0, 2) not in _blocks(report) and (2, 3) not in _blocks(report)
    for level, gamma in ((0, 2), (2, 3)):
        with pytest.raises(ValueError, match="no block"):
            cp1.omega_block(level, gamma)
        with pytest.raises(ValueError, match="no block"):
            cp1.p_block(level, gamma, (0, 0), (0, 0), (0, 0), (0, 0))


# ---------------------------------------------------------------------------
# ladder maps
# ---------------------------------------------------------------------------

def test_ladder_reports(report):
    blocks = _blocks(report)
    block = blocks[(2, 5)]    # j = 0: Dbar annihilates the block
    assert block.passed("ladder") and block.j == 0
    assert block.rank_dbar == 0 and block.dbar == ZERO
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


def test_ladder_check_reads_one_block_dimension_per_gamma(monkeypatch):
    # work gate: dim Gamma_N is (N + 1) blocks of one dimension, read once
    # per gamma; summed over the levels, verify(4, 1001) made 125,751 calls
    calls = count_calls(monkeypatch, cp1, "block_dim")
    assert all(lv.ladders_ok for lv in cp1.verify(4, 1001))
    assert len(calls) == 501


def test_wrong_gamma_n_dimension_fails_ladder(monkeypatch):
    # dim Gamma_N is still compared with 2 (N + 1)^2 on every block of gamma
    true_dim = cp1.block_dim
    monkeypatch.setattr(cp1, "block_dim",
                        lambda level, gamma: true_dim(level, gamma) + (gamma == 5))
    report = cp1.verify(2, 7)
    assert [b.passed("ladder") for b in report[1].blocks] == [True, False, True]
    assert ("level 1, gamma 5: ladder failed: (rank D, rank Dbar, dim Gamma_2) = "
            "(6, 6, 21), expected (6, 6, 18)") in report[1].failures


def test_ladder_bijectivity_explicit(report):
    # D: G_{1,1} -> G_{0,2} has full rank 6 = dim of both blocks
    assert _blocks(report)[(1, 5)].d != ZERO
    op = oracles.cp1_block_matrices(1, 5)["d"]
    assert op.nrows == op.ncols == 6
    assert rank(op) == 6


def test_verify_builds_no_matrix(monkeypatch):
    """Work gate: verify(4, 201) builds no Mat and makes no matrix product.
    Per gamma it computes 8 Omega's integer diagonal from its closed form and
    reads Omega's scalar off it, once, not per block (101 omega_block calls);
    D, Dbar, H and P are integer pairs read from closed forms, and p_block
    reads no Omega.  The fiber coefficients come from the fock ladder once
    per level and direction in each call (1,170 ladder calls when they were
    read per block), and the check pass does no Gaussian-rational arithmetic: each
    report field is built once from its pair.  The pass asks only for blocks
    that exist, so block_exists runs in the seams it calls (p_block per
    assembled block, omega_block and block_dim per gamma), at most twice per
    assembled block (3,938 calls while D, Dbar and H had block functions)."""
    work = {"products": 0, "mats": 0, "omegas": 0, "arithmetic": 0}
    calls = {"ladders": 0, "validations": 0, "p_blocks": 0}

    def counted(key, fn, tally=work):
        def wrapper(*args):
            tally[key] += 1
            return fn(*args)
        return wrapper

    def builds_nothing(fn):
        def wrapper(*args):
            before = dict(work)
            result = fn(*args)
            assert work == before, fn.__name__
            return result
        return wrapper

    monkeypatch.setattr(linalg.Mat, "__matmul__", counted("products", linalg.Mat.__matmul__))
    monkeypatch.setattr(linalg.Mat, "__init__", counted("mats", linalg.Mat.__init__))
    monkeypatch.setattr(cp1, "omega_block", counted("omegas", cp1.omega_block))
    monkeypatch.setattr(fock, "_ladder", counted("ladders", fock._ladder, calls))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__neg__"):
        monkeypatch.setattr(GaussianRational, name,
                            counted("arithmetic", getattr(GaussianRational, name)))
    monkeypatch.setattr(cp1, "block_exists", counted("validations", cp1.block_exists, calls))
    monkeypatch.setattr(cp1, "p_block", counted("p_blocks", builds_nothing(cp1.p_block), calls))
    lmax = 4
    report = cp1.verify(lmax, 201)
    assert 1 <= calls["ladders"] <= 2 * (lmax + 3)
    assert calls["p_blocks"] == 591    # levels 0..lmax+1 of every gamma ladder
    assert calls["validations"] <= 2 * calls["p_blocks"]
    assert work == {"products": 0, "mats": 0, "omegas": 101, "arithmetic": 0}
    blocks = [b for lv in report for b in lv.blocks]
    assert len(blocks) == 495
    for b in blocks:
        assert all(type(op) is GaussianRational for op in (b.d, b.dbar, b.h, b.omega, b.p))
        assert b.omega == gq(Fraction(-((b.gamma + 1) ** 2 - 1), 8))
    assert all(lv.ok for lv in report)


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
            assert d != ZERO
            assert p_down * d - d * p_here == d * (3 * level)


def _pair(c: GaussianRational, scale: int) -> tuple[int, int]:
    """The integer pair (x, y) of a report scalar c = (x + y*i) / scale."""
    x, y, d = gaussian.fields(c)
    assert scale % d == 0
    return x * scale // d, y * scale // d


def test_p_block_from_ladder_maps(report):
    # 128 P = 64 (D Dbar - Dbar D) from the neighbouring blocks' pairs at
    # scale 8, on block (1, 5)
    blocks = _blocks(report)
    d_up, dbar = _pair(blocks[(2, 5)].d, 8), _pair(blocks[(1, 5)].dbar, 8)
    dbar_down, d = _pair(blocks[(0, 5)].dbar, 8), _pair(blocks[(1, 5)].d, 8)
    p = cp1.p_block(1, 5, d_up, dbar, dbar_down, d)
    assert p == (128 * cp1.lambda_lj(1, 1), 0) == _pair(blocks[(1, 5)].p, 128)
    # on the vacuum block the missing lower neighbour enters as the zero pair
    p = cp1.p_block(0, 5, _pair(blocks[(1, 5)].d, 8), _pair(blocks[(0, 5)].dbar, 8), (0, 0),
                    _pair(blocks[(0, 5)].d, 8))
    assert p == (128 * cp1.lambda_lj(0, 2), 0) == _pair(blocks[(0, 5)].p, 128)


# ---------------------------------------------------------------------------
# adjointness under the block inner product
# ---------------------------------------------------------------------------

def _block_norm(level: int, gamma: int) -> Fraction:
    r = (gamma + 2 * level + 1) // 2    # the weight line gamma - 2r = -(2l+1)
    return fock.basis_norm_sq((level,)) * invariant_weight_norms(gamma)[r]


@pytest.mark.parametrize("gamma", [3, 5, 9, 13])
def test_dbar_is_adjoint_of_d(gamma):
    top = (gamma - 1) // 2
    blocks = _blocks(cp1.verify(top, gamma))
    for level in range(0, top):   # blocks where dbar is nonzero
        dbar, d_next = blocks[(level, gamma)].dbar, blocks[(level + 1, gamma)].d
        assert dbar and d_next
        assert dbar * _block_norm(level + 1, gamma) == d_next.conjugate() * _block_norm(
            level, gamma
        )


def test_invariant_norms_make_x_y_adjoint():
    for gamma in (1, 3, 7, 13):
        norms = invariant_weight_norms(gamma)
        for r in range(gamma):
            # <X v_{r+1}, v_r> = <v_{r+1}, Y v_r>, with Y v_r = v_{r+1}
            assert cp1._x_entry(gamma, r + 1) * norms[r] == norms[r + 1]


# ---------------------------------------------------------------------------
# truncation honesty
# ---------------------------------------------------------------------------

def test_zero_row_blocks_at_boundaries(report):
    # the maps out of the vacuum (D) and the j = 0 block (Dbar) are zero; as
    # explicit matrices they are 0 x 6, with the whole block as kernel
    blocks = _blocks(report)
    assert blocks[(0, 5)].d == ZERO and blocks[(0, 5)].ker_d == 6
    op = oracles.cp1_block_matrices(0, 5)["d"]
    assert op.nrows == 0 and op.ncols == 6
    assert kernel_dimension(op) == 6
    assert blocks[(2, 5)].dbar == ZERO and blocks[(2, 5)].ker_dbar == 6   # j = 0 block
    op = oracles.cp1_block_matrices(2, 5)["dbar"]
    assert op.nrows == 0 and op.ncols == 6
    assert (3, 5) not in blocks
    with pytest.raises(ValueError, match="no block"):
        cp1.omega_block(3, 5)
    with pytest.raises(ValueError, match="no block"):
        cp1.p_block(3, 5, (0, 0), (0, 0), (0, 0), (0, 0))


# ---------------------------------------------------------------------------
# the scalar blocks against explicit matrices
# ---------------------------------------------------------------------------

def test_scalar_blocks_match_explicit_matrices():
    """Every block up to --lmax 3 --gamma-max 21, rebuilt as explicit matrices
    of their true shapes from the oracle's own root-vector normalization:
    the report's D, Dbar, H and P are their scalars, each on its scale's
    integer pairs, P is p_block of its neighbours' pairs, with the same
    ranks and kernels by row reduction, the four commutators as matrix
    identities, and the same --matrices triplets."""
    checked = 0
    report = cp1.verify(4, 21)    # level 4 holds the D maps into level 3
    blocks = _blocks(report)
    for lv in report[:4]:
        for block in lv.blocks:
            level, gamma, dim = block.level, block.gamma, block.dim
            m = oracles.cp1_block_matrices(level, gamma)
            down = oracles.cp1_block_matrices(level - 1, gamma)
            up = oracles.cp1_block_matrices(level + 1, gamma)
            d, dbar, h, p = m["d"], m["dbar"], m["h"], m["p"]
            d_up = blocks[(level + 1, gamma)].d if (level + 1, gamma) in blocks else ZERO
            dbar_down = blocks[(level - 1, gamma)].dbar if level else ZERO
            maps = (_pair(c, 8) for c in (d_up, block.dbar, dbar_down, block.d))
            assert cp1.p_block(level, gamma, *maps) == _pair(block.p, 128)
            for op, scale in (("d", 8), ("dbar", 8), ("h", 8), ("p", 128)):
                c = getattr(block, op)
                _pair(c, scale)    # an integer pair at its scale
                assert m[op] == scalar_matrix(dim, c) if m[op].nrows == dim else not c
            assert p == scalar_matrix(dim, block.p)
            assert m["omega"] == scalar_matrix(dim, block.omega)
            assert p == mat_sub(mat_scale(m["omega"], -1), mat_scale(h @ h, Fraction(3, 2)))
            assert (rank(d), rank(dbar)) == (block.rank_d, block.rank_dbar)
            assert (kernel_dimension(d), kernel_dimension(dbar)) == (block.ker_d, block.ker_dbar)
            assert mat_sub(down["h"] @ d, d @ h) == d
            assert mat_sub(up["h"] @ dbar, dbar @ h) == mat_scale(dbar, -1)
            assert mat_sub(down["p"] @ d, d @ p) == mat_sub(
                mat_scale(d @ h, -3), mat_scale(d, Fraction(3, 2)))
            assert mat_sub(up["p"] @ dbar, dbar @ p) == mat_sub(
                mat_scale(dbar @ h, 3), mat_scale(dbar, Fraction(3, 2)))
            triplets = cli._cp1_block_jsonable(block, True)["matrices"]
            assert triplets == {op: m[op].triplets() for op in ("d", "dbar", "h", "omega", "p")}
            checked += 1
    assert checked == sum(min(3, (g - 1) // 2) + 1 for g in range(1, 22, 2))
