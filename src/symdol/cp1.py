"""Exact block engine for the Dolbeault pair on CP^1 = SU(2)/U(1).

Equivariant sections of the level-l spinor bundle decompose into blocks
indexed by odd gamma = 2(l+j)+1: each block is V_gamma tensored with the
one-dimensional weight line at -(2l+1) inside V_gamma.  The level-shifting
operators touch only the fiber and the weight line, so on the gamma-block
they are scalars times the identity of the free (gamma+1)-dimensional
factor; the scalars are assembled honestly from

  * fiber ladder coefficients taken from :mod:`symdol.fock`
    (sigma(Z): -i/2, sigma(Zbar): -i l on the h_l fiber line), and
  * the sl(2) triple on V_gamma, Z_alpha -> (1+i)/4 * X, Zbar_alpha ->
    (-1+i)/4 * Y: X's band entries X v_r = r(gamma-r+1) v_{r-1} on the
    weight basis v_0..v_gamma, and Y v_r = v_{r+1}; no matrix is built.

The (1+i)/4 normalization is pinned by two requirements: the products must
satisfy [Z_alpha, Zbar_alpha] = (1/2) H_alpha with H_alpha acting as -h/4
on weight lines (the negative-Killing-form bookkeeping), and the raising
operator must be the exact adjoint of the lowering operator for the block
inner product built from the fock fiber norms and the invariant pairing on
V_gamma.  Both forces together leave |c|^2 = 1/8 with c * (-conj(c)) as the
raising/lowering pair; all spectra, kernels, ranks and commutators below
are independent of this residual phase choice.

`verify` is the one definition of the ladder maps.  It reads the fiber
coefficients from fock once per call, one per level and direction, and
keeps nothing between calls; a caller reads a block's operators from its
BlockReport.  Per gamma it builds D on levels 0..lmax+2, Dbar, H and P on
0..lmax+1 (P from those D/Dbar neighbours) and Omega once, since Omega
does not depend on the level.  D, Dbar, H and P are held as the scalar c
of c * I (a map into a missing neighbour block is zero), each as a pair
(x, y) of ints, c = (x + y*i) / s, at a power-of-2 scale s that makes it
a Gaussian integer: 8 for D, Dbar and H, 128 for P, since 2P is a
difference of products of two scale-8 maps.  A fiber coefficient off
Z[i]/2 is the only exactness failure.  Omega is a scalar too: h is
diagonal and X, Y are single bands on the weight basis, so Omega is
diagonal, and Schur's lemma is gamma+1 integer equalities on 8 Omega's
diagonal, one closed form in (gamma, r), checked once per gamma.  Each
identity is multiplied through to integer pairs at its product scale
(P = -Omega - (3/2) H^2 at 128, [H, D] and [H, Dbar] at 64, [P, D] and
[P, Dbar] at 1024), so no check divides or truncates; the P-identity
fails on every block of a gamma whose Omega is not c * I.  The same pass
sums the ranks into each level's kernel ledger; a failure names its
level, gamma, check and values.  Any nonzero residual is a failure, and
`root_failure` picks the one that names the fault.
"""

import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from . import fock, gaussian
from .errors import ContractViolation
from .gaussian import GaussianRational, _reduced

Pair = tuple[int, int]     # (x, y): the scalar (x + y*i) / s at its operator's scale s
_ZERO, _ONE = (0, 0), (1, 0)


# ---------------------------------------------------------------------------
# sl(2) irreducibles
# ---------------------------------------------------------------------------

def _x_entry(k: int, r: int) -> int:
    """X v_r = r(k-r+1) v_{r-1} on the (k+1)-dimensional irreducible."""
    return r * (k - r + 1)


def lambda_lj(l: int, j: int) -> Fraction:
    """Closed-form eigenvalue (1/8)(4(l+j+1)^2 - 3(2l+1)^2 - 1)."""
    l, j = operator.index(l), operator.index(j)
    if l < 0 or j < 0:
        raise ValueError("l and j must be nonnegative")
    return Fraction(_lambda8(l, j), 8)


def _lambda8(l: int, j: int) -> int:
    """8 lambda_lj, an integer."""
    return 4 * (l + j + 1) ** 2 - 3 * (2 * l + 1) ** 2 - 1


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def block_exists(level: int, gamma: int) -> bool:
    """V_gamma carries a -(2l+1) weight line iff gamma is odd and >= 2l+1."""
    level, gamma = operator.index(level), operator.index(gamma)
    return level >= 0 and gamma % 2 == 1 and gamma >= 2 * level + 1


def _require_block(level: int, gamma: int):
    if not block_exists(level, gamma):
        raise ValueError(f"no block at level {level}, gamma {gamma}")


def block_dim(level: int, gamma: int) -> int:
    return gamma + 1 if block_exists(level, gamma) else 0


def _fiber(level: int, step: int) -> Pair:
    """2i sigma(Z) = 1 (step 1) or 2i sigma(Zbar) = 2 level (step -1) on the fiber
    line h_level, read from fock; a value off Z[i]/2 would break the scales."""
    image = (fock.sigma_raise if step > 0 else fock.sigma_lower)(1, fock.basis_vector(1, (level,)))
    x, y, d = image.terms.get((level + step,), gaussian.ZERO)._f
    if d > 2:     # i (x + y*i) / d = (-y + x*i) / d
        raise ContractViolation(f"CP^1 fiber coefficient i sigma({'Z' if step > 0 else 'Zbar'}) "
                                f"on h_{level} is {_reduced(-y, x, d)}, not in Z[i]/2")
    return -2 * y // d, 2 * x // d


def _dot(*terms: tuple[int, Pair, Pair]) -> Pair:
    """The sum of k * a * b over the terms (k, a, b), on integer pairs."""
    x = y = 0
    for k, (ax, ay), (bx, by) in terms:
        x += k * (ax * bx - ay * by)
        y += k * (ax * by + ay * bx)
    return x, y


def omega_block(level: int, gamma: int) -> tuple[int, ...]:
    """The Casimir -(1/8) h^2 - (1/4)(XY + YX) for negative the Killing form on
    the free V_gamma factor, as 8 times its diagonal on the weight basis
    v_0, ..., v_gamma (it has no other entry); the same at every level of the
    gamma ladder.  h v_r = (gamma - 2r) v_r, X raises and Y lowers by one band
    (X v_r = x_r v_{r-1}, x_r = _x_entry(gamma, r), Y v_r = v_{r+1}), so XY and
    YX are diagonal with (XY)_rr = x_{r+1} and (YX)_rr = x_r, and
    8 Omega_rr = -(gamma - 2r)^2 - 2(x_r + x_{r+1}) (Humphreys, Lie algebras,
    7.2); x_0 = x_{gamma+1} = 0.

    Every entry is -((gamma+1)^2 - 1).
    """
    _require_block(level, gamma)
    x = [_x_entry(gamma, r) for r in range(gamma + 2)]     # each x_r once
    return tuple(-(gamma - 2 * r) ** 2 - 2 * (x_r + x_next)
                 for r, (x_r, x_next) in enumerate(zip(x, x[1:])))


def p_block(level: int, gamma: int, d_up: Pair, dbar: Pair, dbar_down: Pair, d: Pair) -> Pair:
    """(1/2)(D Dbar - Dbar D) on block(l, gamma) as 128 times its scalar, from the
    scale-8 pairs of the four ladder maps touching it: dbar: l -> l+1, d_up: l+1 -> l,
    d: l -> l-1 and dbar_down: l-1 -> l.  A map through a missing neighbor block is zero."""
    _require_block(level, gamma)
    return _dot((1, d_up, dbar), (-1, dbar_down, d))


def _require_gamma_max(gamma_max: int) -> int:
    """gamma_max as an int, odd and at least 1."""
    gamma_max = operator.index(gamma_max)
    if gamma_max % 2 == 0:
        raise ValueError(
            f"gamma_max = {gamma_max} has the wrong parity: spinor blocks of "
            "half-integral twist live on odd gamma only"
        )
    if gamma_max < 1:
        raise ValueError(f"gamma_max = {gamma_max} is below the first block, gamma = 1")
    return gamma_max


# ---------------------------------------------------------------------------
# the verification pass
# ---------------------------------------------------------------------------

class BlockReport(NamedTuple):
    """The operators on one (level, gamma) block and the checks run on them.

    failures maps each failed check ("P real", "closed-form lambda",
    "P-identity", "ladder", "commutators") to the values that broke it.
    """

    level: int
    gamma: int
    j: int
    dim: int
    d: GaussianRational    # each operator: the scalar c of c * I, read off its pair
    dbar: GaussianRational
    h: GaussianRational
    omega: GaussianRational    # checked to be c * I once per gamma; P-identity: P = -c - (3/2) H^2
    p: GaussianRational
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


class LevelReport(NamedTuple):
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


def _off_scalar(gamma: int, omega: tuple[int, ...]) -> Optional[str]:
    """None when 8 Omega's diagonal on V_gamma is constant (Omega = c * I, c its
    (0, 0) entry), else the first entry off c and its value."""
    r = next((r for r, value in enumerate(omega) if value != omega[0]), None)
    return None if r is None else (
        f"Omega on V_{gamma} is not c * I: entry ({r}, {r}) is {Fraction(omega[r], 8)}")


def _unequal(identity: str, scale: int, lhs: Pair, rhs: Pair) -> Optional[str]:
    """None when the identity holds on the pairs at this scale, else the identity and both sides."""
    return None if lhs == rhs else (f"{identity}: {_reduced(*lhs, scale)} on the left, "
                                    f"{_reduced(*rhs, scale)} on the right")


def _gamma_blocks(lmax: int, gamma: int, raising: list[Pair], lowering: list[Pair]
                  ) -> list[BlockReport]:
    """Check the blocks (level, gamma), level <= lmax, of one gamma ladder.

    raising[l] is 8 Dbar on h_l and lowering[l] is 8 D on h_l over X's entry
    on the weight line.  D is built on levels 0..lmax+2 and Dbar, H, P on
    0..lmax+1 (as far as the ladder reaches), each once: P one level up
    enters the [P, Dbar] check and needs D two levels up.  Each list is padded
    with the zero map at both ends, so entry l + 1 is level l and a map
    through a missing neighbour block is zero.
    """
    top = (gamma - 1) // 2        # highest level with a gamma block; j = top - level
    dim = gamma + 1
    reach = min(lmax + 1, top) + 1
    # v_{top+1+l} spans the weight line at level l; Y v_gamma = 0, so Dbar is zero
    # on the top block, and D is zero on level 0 through its fiber coefficient
    d = [_ZERO, *(_dot((_x_entry(gamma, top + 1 + l), lowering[l], _ONE))
                  for l in range(min(reach, top) + 1)), _ZERO]
    dbar = [_ZERO, *raising[:min(reach, top)], _ZERO]
    h = [_ZERO, *((-4 * (2 * l + 1), 0) for l in range(reach)), _ZERO]
    omega = omega_block(0, gamma)
    off = _off_scalar(gamma, omega)
    not_scalar = off and f"P = -Omega - (3/2) H^2: {off}"
    c = _reduced(omega[0], 0, 8)
    p = [_ZERO, *(p_block(l, gamma, d[l + 2], dbar[l + 1], dbar[l], d[l + 1])
                  for l in range(reach)), _ZERO]

    gamma_n_dim = (top + 1) * block_dim(top, gamma)   # one block on each level 0..top
    reports = []
    for l in range(min(lmax, top) + 1):
        j, dl, dbarl = top - l, d[l + 1], dbar[l + 1]
        h_down, hl, h_up = h[l:l + 3]
        p_down, pl, p_up = p[l:l + 3]
        rank_d, rank_dbar = dim if any(dl) else 0, dim if any(dbarl) else 0

        ranks = (rank_d, rank_dbar, gamma_n_dim)
        expected = (dim if l else 0, dim if j else 0, 2 * (top + 1) ** 2)
        checks = {     # D, Dbar, H at scale 8 and P at 128, each identity at its product scale
            "P real": None if pl[1] == 0 else f"P = {_reduced(*pl, 128)}",
            "closed-form lambda": None if pl[0] == 16 * _lambda8(l, j) else
                f"P = {Fraction(pl[0], 128)}, lambda_lj = {lambda_lj(l, j)}",
            "P-identity": not_scalar or _unequal("P = -Omega - (3/2) H^2", 128, pl,
                                                 _dot((-16 * omega[0], _ONE, _ONE), (-3, hl, hl))),
            "ladder": None if ranks == expected else
                f"(rank D, rank Dbar, dim Gamma_{top}) = {ranks}, expected {expected}",
            "commutators": (
                _unequal("[H, D] = D", 64, _dot((1, h_down, dl), (-1, dl, hl)), _dot((8, dl, _ONE)))
                or _unequal("[H, Dbar] = -Dbar", 64, _dot((1, h_up, dbarl), (-1, dbarl, hl)),
                            _dot((-8, dbarl, _ONE)))
                or _unequal("[P, D] = -3 D H - (3/2) D", 1024, _dot((1, p_down, dl), (-1, dl, pl)),
                            _dot((-48, dl, hl), (-192, dl, _ONE)))
                or _unequal("[P, Dbar] = 3 Dbar H - (3/2) Dbar", 1024,
                            _dot((1, p_up, dbarl), (-1, dbarl, pl)),
                            _dot((48, dbarl, hl), (-192, dbarl, _ONE)))
            ),
        }
        reports.append(BlockReport(
            level=l, gamma=gamma, j=j, dim=dim, d=_reduced(*dl, 8), dbar=_reduced(*dbarl, 8),
            h=_reduced(*hl, 8), omega=c, p=_reduced(*pl, 128), eigenvalue=Fraction(pl[0], 128),
            rank_d=rank_d, rank_dbar=rank_dbar,
            failures={check: values for check, values in checks.items() if values},
        ))
    return reports


def _failure_text(block: BlockReport, check: str) -> str:
    return f"level {block.level}, gamma {block.gamma}: {check} failed: {block.failures[check]}"


def verify(lmax: int, gamma_max: int) -> tuple[LevelReport, ...]:
    """Assemble and check every block of levels 0..lmax with gamma <= gamma_max,
    and each level's kernel ledger ker Dbar = 2l+2, ker D = 0 (l >= 1).

    The ledger is the genus-0 index identity: ker Dbar on level l minus
    ker D on level l+1 is ``surface.index(0, l, "metaplectic")``, as
    criterion 09, ``test_index_matches_kernel_ledger_wherever_certified``
    and ``test_cp1_three_ways`` assert.  Blocks beyond gamma_max are not
    inspected, which is the caller's truncation responsibility.
    """
    lmax, gamma_max = operator.index(lmax), _require_gamma_max(gamma_max)
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    if gamma_max < 2 * lmax + 1:
        raise ValueError(f"gamma_max = {gamma_max} < 2*lmax+1 = {2 * lmax + 1}")
    # 8 Dbar's scalar on h_l, i sigma(Z) (1 - i), from -4i sigma(Z) (x) the right action
    # of Zbar_alpha (Y v_r = v_{r+1}), and 8 D's scalar over x_r, i sigma(Zbar) (1 + i),
    # from 4i sigma(Zbar) (x) the right action of Z_alpha (X v_r = x_r v_{r-1})
    raising = [_dot((4, _fiber(l, 1), (1, -1))) for l in range(lmax + 2)]
    lowering = [_dot((4, _fiber(l, -1), (1, 1))) for l in range(lmax + 3)]
    by_level = [[] for _ in range(lmax + 1)]
    for gamma in range(1, gamma_max + 1, 2):
        for block in _gamma_blocks(lmax, gamma, raising, lowering):
            by_level[block.level].append(block)

    levels = []
    for level, blocks in enumerate(by_level):
        ker_dbar = sum(b.ker_dbar for b in blocks)
        ker_d = sum(b.ker_d for b in blocks)
        failures = [_failure_text(b, check) for b in blocks for check in b.failures]
        if ker_dbar != 2 * level + 2:
            failures.append(f"level {level}: ker Dbar != 2l+2: ker Dbar = {ker_dbar} "
                            f"over gamma <= {gamma_max}, 2l+2 = {2 * level + 2}")
        if level >= 1 and ker_d != 0:
            failures.append(f"level {level}: ker D != 0: ker D = {ker_d} over gamma <= {gamma_max}")
        levels.append(LevelReport(level, tuple(blocks), ker_dbar, ker_d, tuple(failures)))
    return tuple(levels)


def root_failure(levels: tuple[LevelReport, ...]) -> Optional[str]:
    """The failure that names the fault of a verify report, None if every level passed:
    the first failed check of a block's own (any but "commutators", which reads
    the neighbour blocks and so may echo their fault), else the first failure."""
    own = next(((b, check) for lv in levels if lv.failures for b in lv.blocks
                for check in b.failures if check != "commutators"), None)
    return _failure_text(*own) if own else next((f for lv in levels for f in lv.failures), None)
