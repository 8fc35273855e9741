"""Exact block-matrix engine for the Dolbeault pair on CP^1 = SU(2)/U(1).

Equivariant sections of the level-l spinor bundle decompose into blocks
indexed by odd gamma = 2(l+j)+1: each block is V_gamma tensored with the
one-dimensional weight line at -(2l+1) inside V_gamma.  The level-shifting
operators touch only the fiber and the weight line, so on the gamma-block
they are scalars times the identity of the free (gamma+1)-dimensional
factor; the scalars are assembled honestly from

  * fiber ladder coefficients taken from :mod:`symdol.fock`
    (sigma(Z): -i/2, sigma(Zbar): -i l on the h_l fiber line), and
  * right-action matrices on V_gamma through the standard sl(2) triple,
    with Z_alpha -> (1+i)/4 * X and Zbar_alpha -> (-1+i)/4 * Y.

The (1+i)/4 normalization is pinned by two requirements: the products must
satisfy [Z_alpha, Zbar_alpha] = (1/2) H_alpha with H_alpha acting as -h/4
on weight lines (the negative-Killing-form bookkeeping), and the raising
operator must be the exact adjoint of the lowering operator for the block
inner product built from the fock fiber norms and the invariant pairing on
V_gamma.  Both forces together leave |c|^2 = 1/8 with c * (-conj(c)) as the
raising/lowering pair; all spectra, kernels, ranks and commutators below
are independent of this residual phase choice.

Every verification here is exact Gaussian-rational matrix algebra; any
nonzero residual is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import fock
from .errors import ContractViolation
from .gaussian import GaussianRational, gq
from .linalg import (
    Mat,
    kernel_dimension,
    mat_add,
    mat_from_rows,
    mat_mul,
    mat_scale,
    mat_sub,
    rank,
    scalar_identity_value,
    scalar_matrix,
    zeros,
)

# right-action normalization of the root vectors (see module docstring)
C_PLUS = gq(Fraction(1, 4), Fraction(1, 4))     # Z_alpha   -> C_PLUS  * X
C_MINUS = gq(Fraction(-1, 4), Fraction(1, 4))   # Zbar_alpha -> C_MINUS * Y


# ---------------------------------------------------------------------------
# sl(2) irreducibles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sl2Irrep:
    """The (k+1)-dimensional irreducible on the weight basis v_0, ..., v_k.

    v_r has h-eigenvalue k - 2r; X v_r = r(k-r+1) v_{r-1}; Y v_r = v_{r+1}.
    All entries are integers.
    """

    k: int
    h: tuple[tuple[int, ...], ...]
    x: tuple[tuple[int, ...], ...]
    y: tuple[tuple[int, ...], ...]


def sl2_irrep(k: int) -> Sl2Irrep:
    if k < 0:
        raise ValueError("k must be nonnegative")
    size = k + 1
    h = tuple(tuple((k - 2 * r) if r == c else 0 for c in range(size)) for r in range(size))
    x = tuple(
        tuple(c * (k - c + 1) if r == c - 1 else 0 for c in range(size)) for r in range(size)
    )
    y = tuple(tuple(1 if r == c + 1 else 0 for c in range(size)) for r in range(size))
    return Sl2Irrep(k, h, x, y)


def sl2_casimir_matrix(rep: Sl2Irrep) -> Mat:
    """-(1/8) h^2 - (1/4)(XY + YX), the Casimir for negative the Killing form.

    Acts as -((k+1)^2 - 1)/8 times the identity.
    """
    h = mat_from_rows(rep.h)
    x = mat_from_rows(rep.x)
    y = mat_from_rows(rep.y)
    hh = mat_scale(mat_mul(h, h), Fraction(-1, 8))
    mixed = mat_scale(mat_add(mat_mul(x, y), mat_mul(y, x)), Fraction(-1, 4))
    return mat_add(hh, mixed)


def lambda_lj(l: int, j: int) -> Fraction:
    """Closed-form eigenvalue (1/8)(4(l+j+1)^2 - 3(2l+1)^2 - 1)."""
    if l < 0 or j < 0:
        raise ValueError("l and j must be nonnegative")
    return Fraction(4 * (l + j + 1) ** 2 - 3 * (2 * l + 1) ** 2 - 1, 8)


def invariant_weight_norms(gamma: int) -> tuple[Fraction, ...]:
    """Squared norms of v_0, ..., v_gamma for the SU(2)-invariant pairing
    normalized by |v_0|^2 = 1 (the pairing making X and Y mutual adjoints)."""
    norms = [Fraction(1)]
    for r in range(gamma):
        norms.append(norms[-1] * (r + 1) * (gamma - r))
    return tuple(norms)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def block_exists(level: int, gamma: int) -> bool:
    """V_gamma carries a -(2l+1) weight line iff gamma is odd and >= 2l+1."""
    return level >= 0 and gamma % 2 == 1 and gamma >= 2 * level + 1


def block_dim(level: int, gamma: int) -> int:
    return gamma + 1 if block_exists(level, gamma) else 0


def weight_line_index(level: int, gamma: int) -> int:
    """Index r of the weight -(2l+1) line: gamma - 2r = -(2l+1)."""
    if not block_exists(level, gamma):
        raise ValueError(f"no block at level {level}, gamma {gamma}")
    return (gamma + 2 * level + 1) // 2


@dataclass(frozen=True)
class SectionBlock:
    level: int
    gamma: int

    def __post_init__(self):
        if not block_exists(self.level, self.gamma):
            raise ValueError(
                f"gamma = {self.gamma} carries no equivariant sections at level "
                f"{self.level} (need odd gamma >= {2 * self.level + 1})"
            )

    @property
    def j(self) -> int:
        return (self.gamma - 1) // 2 - self.level

    @property
    def dim(self) -> int:
        return self.gamma + 1


@dataclass(frozen=True)
class BlockOperator:
    source: tuple[int, int]      # (level, gamma)
    target: tuple[int, int]
    matrix: Mat


def _fiber_raise_coefficient(level: int) -> GaussianRational:
    """sigma(Z) on the one-dimensional fiber line h_level."""
    image = fock.sigma_raise(1, fock.basis_vector(1, (level,)))
    return image.terms[(level + 1,)]


def _fiber_lower_coefficient(level: int) -> GaussianRational:
    """sigma(Zbar) on h_level; zero on the vacuum line."""
    image = fock.sigma_lower(1, fock.basis_vector(1, (level,)))
    return image.terms.get((level - 1,), gq(0))


def dbar_block(level: int, gamma: int) -> BlockOperator:
    """The raising Dolbeault operator block(l, gamma) -> block(l+1, gamma):
    -4i sigma(Z) (x) right-action of Zbar_alpha."""
    src_dim = block_dim(level, gamma)
    tgt_dim = block_dim(level + 1, gamma)
    if src_dim == 0:
        raise ValueError(f"no block at level {level}, gamma {gamma}")
    if tgt_dim == 0:
        return BlockOperator((level, gamma), (level + 1, gamma), zeros(0, src_dim))
    rep = sl2_irrep(gamma)
    r = weight_line_index(level, gamma)
    r_next = weight_line_index(level + 1, gamma)
    scalar = gq(0, -4) * _fiber_raise_coefficient(level) * (C_MINUS * rep.y[r_next][r])
    return BlockOperator((level, gamma), (level + 1, gamma), scalar_matrix(src_dim, scalar))


def d_block(level: int, gamma: int) -> BlockOperator:
    """The lowering Dolbeault operator block(l, gamma) -> block(l-1, gamma):
    4i sigma(Zbar) (x) right-action of Z_alpha; the zero map out of level 0."""
    src_dim = block_dim(level, gamma)
    if src_dim == 0:
        raise ValueError(f"no block at level {level}, gamma {gamma}")
    tgt_dim = block_dim(level - 1, gamma)
    if tgt_dim == 0:
        return BlockOperator((level, gamma), (level - 1, gamma), zeros(0, src_dim))
    rep = sl2_irrep(gamma)
    r = weight_line_index(level, gamma)
    r_prev = weight_line_index(level - 1, gamma)
    scalar = gq(0, 4) * _fiber_lower_coefficient(level) * (C_PLUS * rep.x[r_prev][r])
    return BlockOperator((level, gamma), (level - 1, gamma), scalar_matrix(src_dim, scalar))


def h_block(level: int, gamma: int) -> BlockOperator:
    """The grading operator: -(l + 1/2) times the identity."""
    dim = block_dim(level, gamma)
    return BlockOperator(
        (level, gamma), (level, gamma),
        scalar_matrix(dim, gq(Fraction(-(2 * level + 1), 2))),
    )


def omega_block(level: int, gamma: int) -> BlockOperator:
    """The Casimir, realized as a genuine matrix on the free V_gamma factor."""
    if block_dim(level, gamma) == 0:
        return BlockOperator((level, gamma), (level, gamma), zeros(0, 0))
    return BlockOperator((level, gamma), (level, gamma), sl2_casimir_matrix(sl2_irrep(gamma)))


def p_block(level: int, gamma: int) -> BlockOperator:
    """(1/2)(D Dbar - Dbar D) restricted to block(l, gamma).

    Compositions through missing neighbor blocks are zero maps, so the
    commutator form is always assemblable.
    """
    dim = block_dim(level, gamma)
    if dim == 0:
        return BlockOperator((level, gamma), (level, gamma), zeros(0, 0))
    up_then_down = (
        mat_mul(d_block(level + 1, gamma).matrix, dbar_block(level, gamma).matrix)
        if block_dim(level + 1, gamma)
        else zeros(dim, dim)
    )
    down_then_up = (
        mat_mul(dbar_block(level - 1, gamma).matrix, d_block(level, gamma).matrix)
        if block_dim(level - 1, gamma)
        else zeros(dim, dim)
    )
    return BlockOperator(
        (level, gamma), (level, gamma),
        mat_scale(mat_sub(up_then_down, down_then_up), Fraction(1, 2)),
    )


@dataclass(frozen=True)
class BlockSuite:
    """All assembled operators touching one (level, gamma) block."""

    level: int
    gamma: int
    j: int
    dim: int
    dbar: BlockOperator
    d: BlockOperator
    h: BlockOperator
    omega: BlockOperator
    p: BlockOperator


def _require_gamma_max(gamma_max: int, level: int):
    if gamma_max % 2 == 0:
        raise ValueError(
            f"gamma_max = {gamma_max} has the wrong parity: spinor blocks of "
            "half-integral twist live on odd gamma only"
        )
    if gamma_max < 2 * level + 1:
        raise ValueError(f"gamma_max = {gamma_max} < 2*level+1 = {2 * level + 1}")


def build_operators(level: int, gamma_max: int) -> tuple[BlockSuite, ...]:
    """Assemble Dbar, D, H, Omega, P for every block of the given level with
    gamma <= gamma_max."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    _require_gamma_max(gamma_max, level)
    suites = []
    for gamma in range(2 * level + 1, gamma_max + 1, 2):
        block = SectionBlock(level, gamma)
        suites.append(
            BlockSuite(
                level=level,
                gamma=gamma,
                j=block.j,
                dim=block.dim,
                dbar=dbar_block(level, gamma),
                d=d_block(level, gamma),
                h=h_block(level, gamma),
                omega=omega_block(level, gamma),
                p=p_block(level, gamma),
            )
        )
    return tuple(suites)


def p_eigenvalue(suite: BlockSuite) -> Fraction:
    """The (exact) scalar by which P acts on the block; contract-checked."""
    value = scalar_identity_value(suite.p.matrix)
    if value is None or not value.is_real():
        raise ContractViolation(
            f"P is not a real scalar on block (level={suite.level}, gamma={suite.gamma})"
        )
    return value.re


def p_identity_holds(suite: BlockSuite) -> bool:
    """P == -Omega - (3/2) H^2, blockwise and exactly."""
    h2 = mat_mul(suite.h.matrix, suite.h.matrix)
    rhs = mat_sub(
        mat_scale(suite.omega.matrix, -1),
        mat_scale(h2, Fraction(3, 2)),
    )
    return suite.p.matrix == rhs


# ---------------------------------------------------------------------------
# ladder and commutator verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderReport:
    level: int
    j: int
    gamma: int
    dim: int
    rank_d: Optional[int]          # None when level = 0 (map out of the vacuum)
    rank_dbar: Optional[int]       # None when j = 0 (map into nothing)
    dbar_annihilates: Optional[bool]  # populated when j = 0
    gamma_n: int
    gamma_n_dim: int
    ok: bool


def verify_ladder(level: int, j: int, gamma_max: int) -> LadderReport:
    """Rank bookkeeping for D: G_{l,j} -> G_{l-1,j+1} and
    Dbar: G_{l,j} -> G_{l+1,j-1}, plus the dimension of the diagonal sum
    over l + j = N."""
    gamma = 2 * (level + j) + 1
    _require_gamma_max(gamma_max, level)
    if gamma > gamma_max:
        raise ValueError(f"gamma = {gamma} exceeds gamma_max = {gamma_max}")
    dim = block_dim(level, gamma)
    expected = 2 * (level + j + 1)
    ok = dim == expected

    rank_d = None
    if level >= 1:
        rank_d = rank(d_block(level, gamma).matrix)
        ok = ok and rank_d == expected
    rank_dbar = None
    annihilates = None
    if j >= 1:
        rank_dbar = rank(dbar_block(level, gamma).matrix)
        ok = ok and rank_dbar == expected
    else:
        annihilates = dbar_block(level, gamma).matrix.nrows == 0 or rank(
            dbar_block(level, gamma).matrix
        ) == 0
        ok = ok and annihilates

    n_total = level + j
    gamma_n_dim = sum(block_dim(lp, 2 * n_total + 1) for lp in range(n_total + 1))
    ok = ok and gamma_n_dim == 2 * (n_total + 1) ** 2
    return LadderReport(
        level=level,
        j=j,
        gamma=gamma,
        dim=dim,
        rank_d=rank_d,
        rank_dbar=rank_dbar,
        dbar_annihilates=annihilates,
        gamma_n=n_total,
        gamma_n_dim=gamma_n_dim,
        ok=ok,
    )


@dataclass(frozen=True)
class CommutatorChecks:
    gamma: int
    h_d: bool          # [H, D] = D
    h_dbar: bool       # [H, Dbar] = -Dbar
    p_d: bool          # [P, D] = -3 D H - (3/2) D
    p_dbar: bool       # [P, Dbar] = 3 Dbar H - (3/2) Dbar

    @property
    def ok(self) -> bool:
        return self.h_d and self.h_dbar and self.p_d and self.p_dbar


@dataclass(frozen=True)
class CommutatorReport:
    level: int
    gamma_max: int
    checks: tuple[CommutatorChecks, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def commutator_suite(level: int, gamma_max: int) -> CommutatorReport:
    """Verify the four commutation identities exactly on every block."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    _require_gamma_max(gamma_max, level)
    checks = []
    for gamma in range(2 * level + 1, gamma_max + 1, 2):
        d = d_block(level, gamma).matrix
        dbar = dbar_block(level, gamma).matrix
        h_here = h_block(level, gamma).matrix
        h_down = h_block(level - 1, gamma).matrix
        h_up = h_block(level + 1, gamma).matrix
        p_here = p_block(level, gamma).matrix
        p_down = p_block(level - 1, gamma).matrix
        p_up = p_block(level + 1, gamma).matrix

        h_d = mat_sub(mat_mul(h_down, d), mat_mul(d, h_here)) == d
        h_dbar = mat_sub(mat_mul(h_up, dbar), mat_mul(dbar, h_here)) == mat_scale(dbar, -1)
        p_d_lhs = mat_sub(mat_mul(p_down, d), mat_mul(d, p_here))
        p_d_rhs = mat_sub(
            mat_scale(mat_mul(d, h_here), -3), mat_scale(d, Fraction(3, 2))
        )
        p_dbar_lhs = mat_sub(mat_mul(p_up, dbar), mat_mul(dbar, p_here))
        p_dbar_rhs = mat_sub(
            mat_scale(mat_mul(dbar, h_here), 3), mat_scale(dbar, Fraction(3, 2))
        )
        checks.append(
            CommutatorChecks(
                gamma=gamma,
                h_d=h_d,
                h_dbar=h_dbar,
                p_d=p_d_lhs == p_d_rhs,
                p_dbar=p_dbar_lhs == p_dbar_rhs,
            )
        )
    return CommutatorReport(level, gamma_max, tuple(checks))


# ---------------------------------------------------------------------------
# kernel ledger
# ---------------------------------------------------------------------------

def kernel_dimensions(level: int, gamma_max: int) -> tuple[int, int]:
    """(dim ker Dbar, dim ker D) at the given level over blocks <= gamma_max.

    Per-block results are exact; blocks beyond gamma_max are not inspected,
    which is the caller's truncation responsibility.
    """
    _require_gamma_max(gamma_max, level)
    ker_dbar = 0
    ker_d = 0
    for gamma in range(2 * level + 1, gamma_max + 1, 2):
        ker_dbar += kernel_dimension(dbar_block(level, gamma).matrix)
        ker_d += kernel_dimension(d_block(level, gamma).matrix)
    return ker_dbar, ker_d
