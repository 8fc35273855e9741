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

`verify` builds each block once: per gamma it assembles D on levels
0..lmax+2, Dbar, H and P on 0..lmax+1 (P from those D/Dbar neighbours) and
Omega once, since Omega does not depend on the level.  The same pass reads
those blocks for the eigenvalues, ranks, the P-identity and the ladder and
commutator checks, and sums the ranks into each level's kernel ledger; a
failure names its level, gamma, check and values.  Every verification is
exact Gaussian-rational matrix algebra; any nonzero residual is a failure.
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
    """The Casimir, realized as a genuine matrix on the free V_gamma factor;
    the same matrix at every level of the gamma ladder."""
    if block_dim(level, gamma) == 0:
        return BlockOperator((level, gamma), (level, gamma), zeros(0, 0))
    return BlockOperator((level, gamma), (level, gamma), sl2_casimir_matrix(sl2_irrep(gamma)))


def p_block(level: int, gamma: int, d_up: Mat, dbar: Mat, dbar_down: Mat, d: Mat) -> BlockOperator:
    """(1/2)(D Dbar - Dbar D) restricted to block(l, gamma), from the four
    ladder maps touching it: dbar: l -> l+1, d_up: l+1 -> l, d: l -> l-1 and
    dbar_down: l-1 -> l.

    A map through a missing neighbor block has an empty side, so its
    composition is the zero map and the commutator form is always assemblable.
    """
    return BlockOperator(
        (level, gamma), (level, gamma),
        mat_scale(mat_sub(mat_mul(d_up, dbar), mat_mul(dbar_down, d)), Fraction(1, 2)),
    )


def _require_gamma_max(gamma_max: int, level: int):
    if gamma_max % 2 == 0:
        raise ValueError(
            f"gamma_max = {gamma_max} has the wrong parity: spinor blocks of "
            "half-integral twist live on odd gamma only"
        )
    if gamma_max < 2 * level + 1:
        raise ValueError(f"gamma_max = {gamma_max} < 2*level+1 = {2 * level + 1}")


# ---------------------------------------------------------------------------
# the verification pass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockReport:
    """The operators on one (level, gamma) block and the checks run on them.

    failures maps each failed check ("closed-form lambda", "P-identity",
    "ladder", "commutators") to the values that broke it.
    """

    level: int
    gamma: int
    j: int
    dim: int
    d: Mat
    dbar: Mat
    h: Mat
    omega: Mat
    p: Mat
    eigenvalue: Fraction
    rank_d: int
    rank_dbar: int
    failures: dict[str, str]

    def passed(self, check: str) -> bool:
        return check not in self.failures

    @property
    def ker_d(self) -> int:
        return self.dim - self.rank_d

    @property
    def ker_dbar(self) -> int:
        return self.dim - self.rank_dbar


@dataclass(frozen=True)
class LevelReport:
    level: int
    blocks: tuple[BlockReport, ...]
    ker_dbar: int
    ker_d: int
    failures: tuple[str, ...]    # each names the gamma (if any), the check and the values

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def ladders_ok(self) -> bool:
        return all(b.passed("ladder") for b in self.blocks)

    @property
    def commutators_ok(self) -> bool:
        return all(b.passed("commutators") for b in self.blocks)


def _differ(identity: str, lhs: Mat, rhs: Mat) -> Optional[str]:
    """None when lhs == rhs, else the identity and its first differing entry."""
    if lhs == rhs:
        return None
    r, c = next((r, c) for r in range(lhs.nrows) for c in range(lhs.ncols)
                if lhs.rows[r][c] != rhs.rows[r][c])
    return f"{identity}: entry ({r}, {c}) is {lhs.rows[r][c]} on the left, {rhs.rows[r][c]} on the right"


def _gamma_blocks(lmax: int, gamma: int) -> list[BlockReport]:
    """Check the blocks (level, gamma), level <= lmax, of one gamma ladder.

    D is built on levels 0..lmax+2 and Dbar, H, P on 0..lmax+1 (as far as
    the ladder reaches), each once: P one level up enters the [P, Dbar]
    check and needs D two levels up.
    """
    top = (gamma - 1) // 2        # highest level with a gamma block; j = top - level
    dim = gamma + 1
    into_missing = zeros(dim, 0)  # a map out of a missing neighbor block
    empty = zeros(0, 0)           # H or P on a missing neighbor block
    reach = min(lmax + 1, top) + 1
    d = [d_block(l, gamma).matrix for l in range(min(lmax + 2, top) + 1)]
    dbar = [dbar_block(l, gamma).matrix for l in range(reach)]
    h = [h_block(l, gamma).matrix for l in range(reach)]
    omega = omega_block(0, gamma).matrix
    p = [
        p_block(l, gamma, d[l + 1] if l < top else into_missing, dbar[l],
                dbar[l - 1] if l else into_missing, d[l]).matrix
        for l in range(reach)
    ]

    gamma_n_dim = sum(block_dim(lp, gamma) for lp in range(top + 1))
    reports = []
    for l in range(min(lmax, top) + 1):
        j = top - l
        h_down, p_down = (h[l - 1], p[l - 1]) if l else (empty, empty)
        h_up, p_up = (h[l + 1], p[l + 1]) if l < top else (empty, empty)
        lam = scalar_identity_value(p[l])
        if lam is None or not lam.is_real():
            raise ContractViolation(f"P is not a real scalar on block (level={l}, gamma={gamma})")
        lam = lam.re
        rank_d, rank_dbar = rank(d[l]), rank(dbar[l])

        d_h, dbar_h = mat_mul(d[l], h[l]), mat_mul(dbar[l], h[l])
        ranks = (rank_d, rank_dbar, gamma_n_dim)
        expected = (dim if l else 0, dim if j else 0, 2 * (top + 1) ** 2)
        checks = {
            "closed-form lambda":
                None if lam == lambda_lj(l, j) else f"P = {lam}, lambda_lj = {lambda_lj(l, j)}",
            "P-identity": _differ(
                "P = -Omega - (3/2) H^2", p[l],
                mat_sub(mat_scale(omega, -1), mat_scale(mat_mul(h[l], h[l]), Fraction(3, 2)))),
            "ladder": None if ranks == expected else
                f"(rank D, rank Dbar, dim Gamma_{top}) = {ranks}, expected {expected}",
            "commutators": (
                _differ("[H, D] = D", mat_sub(mat_mul(h_down, d[l]), d_h), d[l])
                or _differ("[H, Dbar] = -Dbar", mat_sub(mat_mul(h_up, dbar[l]), dbar_h),
                           mat_scale(dbar[l], -1))
                or _differ("[P, D] = -3 D H - (3/2) D",
                           mat_sub(mat_mul(p_down, d[l]), mat_mul(d[l], p[l])),
                           mat_sub(mat_scale(d_h, -3), mat_scale(d[l], Fraction(3, 2))))
                or _differ("[P, Dbar] = 3 Dbar H - (3/2) Dbar",
                           mat_sub(mat_mul(p_up, dbar[l]), mat_mul(dbar[l], p[l])),
                           mat_sub(mat_scale(dbar_h, 3), mat_scale(dbar[l], Fraction(3, 2))))
            ),
        }
        reports.append(BlockReport(
            level=l, gamma=gamma, j=j, dim=dim, d=d[l], dbar=dbar[l], h=h[l], omega=omega,
            p=p[l], eigenvalue=lam, rank_d=rank_d, rank_dbar=rank_dbar,
            failures={check: values for check, values in checks.items() if values},
        ))
    return reports


def verify(lmax: int, gamma_max: int) -> tuple[LevelReport, ...]:
    """Assemble and check every block of levels 0..lmax with gamma <= gamma_max,
    and each level's kernel ledger ker Dbar = 2l+2, ker D = 0 (l >= 1).

    Blocks beyond gamma_max are not inspected, which is the caller's
    truncation responsibility.
    """
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    _require_gamma_max(gamma_max, lmax)
    by_level = [[] for _ in range(lmax + 1)]
    for gamma in range(1, gamma_max + 1, 2):
        for block in _gamma_blocks(lmax, gamma):
            by_level[block.level].append(block)

    levels = []
    for level, blocks in enumerate(by_level):
        ker_dbar = sum(b.ker_dbar for b in blocks)
        ker_d = sum(b.ker_d for b in blocks)
        failures = [
            f"level {level}, gamma {b.gamma}: {check} failed: {values}"
            for b in blocks for check, values in b.failures.items()
        ]
        if ker_dbar != 2 * level + 2:
            failures.append(f"level {level}: ker Dbar != 2l+2: ker Dbar = {ker_dbar} "
                            f"over gamma <= {gamma_max}, 2l+2 = {2 * level + 2}")
        if level >= 1 and ker_d != 0:
            failures.append(f"level {level}: ker D != 0: ker D = {ker_d} over gamma <= {gamma_max}")
        levels.append(LevelReport(level, tuple(blocks), ker_dbar, ker_d, tuple(failures)))
    return tuple(levels)
