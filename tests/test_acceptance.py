"""Acceptance suite: one test per criterion, exact unless stated otherwise.

Exact-arithmetic checks carry zero tolerance.  The quadrature cross-checks
use 1e-10 (isclose with rel_tol = abs_tol = 1e-10: diagonal inner products
reach ~5e6, where 1e-10 is finer than one double-precision ulp, so the
relative reading is the attainable one; measured agreement is ~1e-15).
Each criterion prints one PASS line; a failing criterion is reported by
pytest as the failing test.
"""

import json
import math
from fractions import Fraction
from itertools import product

from numpy.polynomial import hermite as nph

import numpy as np

from symdol import cp1, flagspec, fock, surface
from symdol.cli import main as cli_main
from symdol.gaussian import ZERO, gq
from symdol.reps import casimir_value, weight_system, weyl_dimension
from symdol.rootsys import build_root_system, rho

import oracles
from oracles import (
    as_scalar_identity, kernel_dimension, mat_scale, mat_sub, oracle_weight_system, rank,
    scalar_identity_value, scalar_matrix,
)

ALL_SYSTEMS_RANK_LE_4 = (
    [("A", k) for k in range(1, 5)]
    + [("B", k) for k in range(2, 5)]
    + [("C", k) for k in range(2, 5)]
    + [("D", k) for k in (3, 4)]
    + [("G", 2)]
)


def ok(number: int, label: str):
    print(f"ACCEPTANCE {number:02d} PASS  {label}")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-10)


# ---------------------------------------------------------------------------

def test_criterion_01_weyl_algebra_relations():
    """[sigma(u), sigma(w)] = -i omega_0(u, w) id, n <= 4, levels <= 8, exact."""

    def sigma_dir(n, d, v):
        ca = [Fraction(0)] * n
        cb = [Fraction(0)] * n
        (ca if d % 2 == 0 else cb)[d // 2] = Fraction(1)
        return fock.sigma_real(ca, cb, v)

    def omega0(d, e):
        if d // 2 != e // 2:
            return 0
        if (d % 2, e % 2) == (0, 1):
            return 1
        if (d % 2, e % 2) == (1, 0):
            return -1
        return 0

    for n in range(1, 5):
        for level in range(0, 9):
            for beta in fock.level_indices(n, level):
                b = fock.basis_vector(n, beta)
                images = [sigma_dir(n, d, b) for d in range(2 * n)]
                for d in range(2 * n):
                    for e in range(2 * n):
                        lhs = fock.add(
                            sigma_dir(n, d, images[e]),
                            fock.scale(-1, sigma_dir(n, e, images[d])),
                        )
                        expected = fock.scale(gq(0, -omega0(d, e)), b)
                        assert lhs.terms == expected.terms, (n, level, beta, d, e)
    ok(1, "Weyl-algebra commutation relations, n <= 4, levels <= 8, exact")


def test_criterion_02_hermite_quadrature_oracle():
    """Inner products match Gauss-Hermite quadrature / (2 sqrt(pi)) to 1e-10,
    factorial included; the (t -+ d/dt) recurrences hold weakly to 1e-10."""
    for m in range(0, 9):
        for mp in range(0, 9):
            exact = fock.inner_product(
                fock.basis_vector(1, (m,)), fock.basis_vector(1, (mp,))
            )
            assert exact.is_real()
            scaled = oracles.hermite_quadrature_oracle(m, mp) / (2 * math.sqrt(math.pi))
            assert close(float(exact.re), scaled), (m, mp)
            if m == mp:
                # the exact diagonal carries the factorial: 2^{m-1} m!
                assert exact.re == Fraction(2) ** (m - 1) * math.factorial(m)

    def padded(c1, c2):
        size = max(len(c1), len(c2))
        out = np.zeros(size)
        out[: len(c1)] += c1
        out[: len(c2)] += c2
        return out

    for m in range(0, 12):
        cm = oracles.hermite_coefficients(m)
        up = padded(2 * nph.hermmulx(cm), -nph.hermder(cm))
        up_expected = -oracles.hermite_coefficients(m + 1)
        down = nph.hermder(cm)
        down_expected = (
            -2 * m * oracles.hermite_coefficients(m - 1) if m else np.zeros(1)
        )
        for k in range(0, 13):
            ck = oracles.hermite_coefficients(k)
            assert close(
                oracles._hermite_function_inner(up, ck),
                oracles._hermite_function_inner(up_expected, ck),
            ), ("raise", m, k)
            assert close(
                oracles._hermite_function_inner(down, ck),
                oracles._hermite_function_inner(down_expected, ck),
            ), ("lower", m, k)
    ok(2, "Hermite inner products and ladder recurrences vs quadrature, 1e-10")


def test_criterion_03_symbol_scalars():
    """sigma(v+iJv) sigma(v-iJv) = -(2l+2) g_0(v,v) id on E_l, n = 1, l <= 8."""
    vectors = [[1, 0], [0, 1], [2, 3], [Fraction(1, 2), Fraction(-1, 3)]]
    for v in vectors:
        g = fock.metric_norm_sq(1, v)
        for level in range(0, 9):
            op = fock.symbol_product(1, level, v)
            assert as_scalar_identity(op) == gq(-(2 * level + 2) * g), (v, level)
    ok(3, "symbol products are -(2l+2) g(v,v) id for n = 1, l <= 8, exact")


def test_criterion_04_dim_v_rho():
    """dim V_rho = 2^{#positive roots} for every implemented system, rank <= 4."""
    for family, rank_ in ALL_SYSTEMS_RANK_LE_4:
        rs = build_root_system(family, rank_)
        assert weyl_dimension(rs, rho(rs)) == 2 ** len(rs.positive_roots_fw), rs.name()
    ok(4, "dim V_rho = 2^{|positive roots|} on all systems of rank <= 4")


def test_criterion_05_freudenthal_vs_tensor_oracle():
    """Freudenthal weight systems equal the tensor-product oracle; sums = dims."""
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    cases = (
        [(a1, (k,)) for k in range(0, 11)]
        + [(a2, (a, b)) for a in range(4) for b in range(4) if a + b <= 3]
        + [(b2, (a, b)) for a in range(3) for b in range(3) if a + b <= 2]
    )
    for rs, gamma in cases:
        ws = weight_system(rs, gamma)
        assert ws.mults == oracle_weight_system(rs, gamma), (rs.name(), gamma)
        assert sum(ws.mults.values()) == weyl_dimension(rs, gamma) == ws.dim
    ok(5, "Freudenthal == tensor oracle on A1 (k<=10), A2 (<=3), B2 (<=2)")


def test_criterion_06_casimir_both_routes():
    """A1 Casimir -((k+1)^2-1)/8 from the weight formula and from sl2 matrices."""
    a1 = build_root_system("A", 1)
    for k in range(0, 21):
        expected = Fraction(-((k + 1) ** 2 - 1), 8)
        assert casimir_value(a1, (k,)) == expected
        matrix_scalar = scalar_identity_value(oracles.sl2_casimir_by_matrices(k))
        assert matrix_scalar == gq(expected), k
    ok(6, "Casimir -((k+1)^2-1)/8 for k <= 20, rep formula and sl2 matrices")


def test_criterion_07_spectrum_closed_form():
    """p_spectrum(A1, (2l+1) omega) reproduces the closed form, l <= 3, j <= 10.

    The vacuum-normalized table starts at 0, so row j sits at
    lambda_lj(l, j) - lambda_lj(l, 0); the offset vanishes at l = 0, where
    the closed form holds verbatim.  Total multiplicities are 2(l+j+1).
    """
    a1 = build_root_system("A", 1)
    for l in range(0, 4):
        mu = (2 * l + 1,)
        cutoff = cp1.lambda_lj(l, 10) - cp1.lambda_lj(l, 0)
        table = flagspec.p_spectrum(a1, mu, cutoff)
        assert len(table.rows) == 11, l
        for j, row in enumerate(table.rows):
            assert row.eigenvalue == cp1.lambda_lj(l, j) - cp1.lambda_lj(l, 0), (l, j)
            assert row.total_multiplicity == 2 * (l + j + 1), (l, j)
            assert row.constituents == (
                flagspec.Constituent((2 * (l + j) + 1,), 1, 2 * (l + j + 1)),
            )
    ok(7, "A1 spectra match the closed form with multiplicities 2(l+j+1)")


def test_criterion_08_cp1_matrix_engine():
    """P = -Omega - (3/2)H^2; [H,D] = D; [H,Dbar] = -Dbar; kernel and rank
    ledger; sum of diagonal blocks = 2(N+1)^2 for N <= 4 - all exact."""
    gamma_max = 13
    report = cp1.verify(4, gamma_max)
    for level, lv in enumerate(report):
        for block in lv.blocks:
            # every operator is held as the scalar c of c * I
            d, dbar = scalar_matrix(block.dim, block.d), scalar_matrix(block.dim, block.dbar)
            h2 = scalar_matrix(block.dim, block.h * block.h)
            omega = scalar_matrix(block.dim, block.omega)
            rhs = mat_sub(mat_scale(omega, -1), mat_scale(h2, Fraction(3, 2)))
            assert scalar_matrix(block.dim, block.p) == rhs, (level, block.gamma)
            assert block.passed("P-identity"), (level, block.gamma)
            lam = block.eigenvalue
            assert lam == cp1.lambda_lj(level, block.j)
            diff = mat_sub(scalar_matrix(block.dim, block.p), scalar_matrix(block.dim, gq(lam)))
            assert rank(diff) == 0
            if level >= 1:
                assert rank(d) == block.rank_d == 2 * (level + block.j + 1)
                assert kernel_dimension(d) == block.ker_d == 0
            if block.j >= 1:
                assert rank(dbar) == block.rank_dbar == 2 * (level + block.j + 1)
            else:
                assert block.dbar == ZERO
                assert kernel_dimension(dbar) == block.ker_dbar == block.dim
        assert lv.ladders_ok and lv.commutators_ok
        assert lv.ker_dbar == 2 * level + 2
        if level >= 1:
            assert lv.ker_d == 0
        # kernel of Dbar concentrated in gamma = 2 level + 1
        top = oracles.cp1_block_matrices(level, 2 * level + 1)["dbar"]
        assert lv.blocks[0].gamma == 2 * level + 1 and lv.blocks[0].dbar == ZERO
        assert (top.nrows, kernel_dimension(top)) == (0, 2 * level + 2)
    assert all(lv.ok for lv in report)
    for n_total in range(0, 5):
        total = sum(
            cp1.block_dim(level, 2 * n_total + 1) for level in range(n_total + 1)
        )
        assert total == 2 * (n_total + 1) ** 2, n_total
    ok(8, "CP^1 engine: P-identity, commutators, kernels, ladders, exact")


def test_criterion_09_index_formulas():
    """(2l+2)(1-g) and (2l+1)(1-g) on a grid; genus-0 metaplectic indices
    equal the CP^1 kernel ledger."""
    for g, l in product(range(0, 6), range(0, 6)):
        assert surface.index(g, l, "metaplectic") == (2 * l + 2) * (1 - g)
        assert surface.index(g, l, "fock") == (2 * l + 1) * (1 - g)
    for level in range(0, 4):
        levels = cp1.verify(level + 1, 2 * level + 5)
        assert all(lv.ok for lv in levels), level
        ker_dbar, ker_d_next = levels[level].ker_dbar, levels[level + 1].ker_d
        assert ker_dbar - ker_d_next == surface.index(0, level, "metaplectic"), level
    ok(9, "index formulas on the g, l grid; genus-0 ledger matches CP^1 kernels")


def test_criterion_10_distinguisher():
    """B3 vs C3 differ at the first positive eigenvalue with B3 total 7 = 2n+1;
    B2 vs C2 agree up to cutoff 2."""
    report = flagspec.distinguish(3)
    assert report.verdict == "spectra differ"
    diff = report.first_difference
    assert diff is not None and diff.index == 1
    assert diff.b_total == 7
    assert report.b_table.rows[1].constituents == (
        flagspec.Constituent((1, 0, 0), 1, 7),
    )
    control = flagspec.distinguish(2, cutoff=2)
    assert control.first_difference is None
    assert [(r.eigenvalue, r.total_multiplicity) for r in control.b_table.rows] == [
        (r.eigenvalue, r.total_multiplicity) for r in control.c_table.rows
    ]
    ok(10, "B3/C3 spectra differ at the first positive row; B2/C2 control agrees")


def test_criterion_11_vacuum_weight_is_rho():
    """spinor_weight(0) = rho on every implemented root system."""
    for family, rank_ in ALL_SYSTEMS_RANK_LE_4 + [("B", 5), ("D", 5)]:
        rs = build_root_system(family, rank_)
        beta = (0,) * len(rs.positive_roots_fw)
        assert flagspec.spinor_weight(rs, beta) == rho(rs), rs.name()
    ok(11, "vacuum spinor weight equals rho on every implemented system")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    """spectrum / distinguish / cp1 produce byte-identical JSON, any cache state."""

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        json.loads(out)   # well-formed
        return out

    cache = str(tmp_path / "cache")
    spectrum = ("spectrum", "--family", "B", "--rank", "3", "--mu", "0,0,0",
                "--cutoff", "1", "--format", "json")
    outs = [
        run(*spectrum, "--no-cache"),
        run(*spectrum, "--cache-dir", cache),     # cold
        run(*spectrum, "--cache-dir", cache),     # warm
    ]
    assert outs[0] == outs[1] == outs[2]

    distinguish = ("distinguish", "--n", "2", "--cutoff", "2", "--format", "json")
    outs = [
        run(*distinguish, "--no-cache"),
        run(*distinguish, "--cache-dir", cache),
        run(*distinguish, "--cache-dir", cache),
    ]
    assert outs[0] == outs[1] == outs[2]

    cp1_args = ("cp1", "--lmax", "2", "--gamma-max", "11", "--format", "json")
    assert run(*cp1_args) == run(*cp1_args)
    ok(12, "CLI spectrum/distinguish/cp1 JSON is byte-identical, cache-neutral")
