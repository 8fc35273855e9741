"""Spinor weights, ground-state kernels, and P-spectra on flag manifolds G/T.

The ground-state ("vacuum") bundle twisted to L_mu has holomorphic-section
space V_mu by Borel-Weil, and the associated second-order elliptic operator
acts on it with spectrum

    lambda_gamma = K(gamma+rho, gamma+rho) - K(mu+rho, mu+rho),

ranging over dominant gamma whose irreducible V_gamma contains mu as a
weight; the lambda eigenspace is the direct sum of (dim V_gamma(mu)) copies
of V_gamma over the coinciding gamma.  Under the positive-definite dual
Killing form every eigenvalue is >= 0 with equality exactly at gamma = mu.

Spectra are complete below an inclusive cutoff: candidate gamma come from a
walk over the dominant weights in increasing norm, cut at the norm bound the
cutoff sets, so no row below the cutoff can be missed.  The walk's order is
fixed (norm, then lexicographic), so results are deterministic.

Comparing the mu = 0 spectra of B_n and C_n distinguishes the corresponding
flag manifolds for n >= 3: the first positive eigenvalue of B_n carries a
(2n+1)-dimensional eigenspace that C_n cannot reproduce.

The tables are data here; :mod:`symdol.cli` owns every output format.
"""

from fractions import Fraction
from itertools import takewhile, zip_longest
from operator import index
from typing import NamedTuple, Optional, Sequence

from .errors import ContractViolation
from .reps import (
    _require_dominant,
    _rho_norm,
    _walk_up,
    dominant_weights_with_norm_bound,
    exact_rational,
    reconciled_dimension,
    weight_multiplicity,
    weyl_dimension,
)
from .rootsys import (
    RootSystem,
    Weight,
    as_weight,
    build_root_system,
    rho,
)


# ---------------------------------------------------------------------------
# spinor weights
# ---------------------------------------------------------------------------

def spinor_weight(rs: RootSystem, beta: Sequence[int]) -> Weight:
    """Torus weight of the Hermite basis element h_beta of the spinor fiber.

    beta has one entry per positive root; the weight is
    rho + sum_j beta_j alpha_j in fundamental-weight coordinates.
    """
    roots = rs.positive_roots_fw
    if len(beta) != len(roots):
        raise ValueError(
            f"multi-index has {len(beta)} entries; {rs.name()} has {len(roots)} positive roots"
        )
    coords = list(rho(rs))
    for b, alpha in zip(beta, roots):
        b = index(b)
        if b < 0:
            raise ValueError("multi-index entries must be nonnegative")
        for i in range(rs.rank):
            coords[i] += b * alpha[i]
    return tuple(coords)


# ---------------------------------------------------------------------------
# ground-state kernel (Borel-Weil)
# ---------------------------------------------------------------------------

class GroundKernel(NamedTuple):
    """Kernel of the level-raising Dolbeault operator on the vacuum bundle."""

    highest: Optional[Weight]   # None when the kernel vanishes
    dim: int
    note: str


def ground_kernel(rs: RootSystem, mu: Sequence[int]) -> GroundKernel:
    """V_mu for dominant mu; reported as zero (Borel-Weil vanishing) otherwise."""
    m = as_weight(rs, mu)
    if min(m) < 0:
        return GroundKernel(None, 0, "kernel 0 by Borel-Weil vanishing (mu not dominant)")
    return GroundKernel(m, weyl_dimension(rs, m), "holomorphic sections of L_mu = V_mu")


# ---------------------------------------------------------------------------
# spectrum tables
# ---------------------------------------------------------------------------

class Constituent(NamedTuple):
    gamma: Weight
    weight_mult: int
    dim: int


class SpectrumRow(NamedTuple):
    eigenvalue: Fraction
    constituents: tuple[Constituent, ...]
    total_multiplicity: int


class SpectrumTable(NamedTuple):
    family: str
    rank: int
    mu: Weight
    cutoff: Fraction
    rows: tuple[SpectrumRow, ...]

    @property
    def algebra(self) -> str:
        return f"{self.family}{self.rank}"


def p_spectrum(rs: RootSystem, mu: Sequence[int], cutoff) -> SpectrumTable:
    """Complete spectrum of the vacuum operator twisted to L_mu, up to cutoff.

    Inclusive cutoff on the eigenvalue itself.  Eigenvalue coincidences
    across distinct gamma are merged into a single row listing every
    constituent.  Rows are checked as they are built: positivity and the
    cutoff on each constituent, then the ground row (lambda 0, V_mu alone).
    Order and totals need no check: the rows are the sorted distinct
    eigenvalues, and each total is summed from the constituents it lists.
    """
    m = _require_dominant(rs, mu)
    cutoff = exact_rational(cutoff, "cutoff")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")

    norm, den = _rho_norm(rs), rs.weight_gram_den
    base = norm(m)
    where = f"{rs.name()}, mu={m}"

    rows: dict[Fraction, list[Constituent]] = {}
    for gamma in dominant_weights_with_norm_bound(rs, cutoff + Fraction(base, den)):
        mult = weight_multiplicity(rs, gamma, m)
        if mult == 0:
            continue
        lam = Fraction(norm(gamma) - base, den)
        if lam < 0 or (lam == 0 and gamma != m):
            raise ContractViolation(f"{where}: eigenvalue {lam} at gamma={gamma} violates "
                                    "positivity (lambda must be > 0 for gamma != mu)")
        if lam > cutoff:
            raise ContractViolation(f"{where}: row at lambda {lam} is above the cutoff {cutoff}")
        rows.setdefault(lam, []).append(Constituent(gamma, mult, reconciled_dimension(rs, gamma)))

    if not rows:
        raise ContractViolation(f"{where}: spectrum table has no rows "
                                "(gamma = mu is always present)")
    ground, expected = min(rows), Constituent(m, 1, weyl_dimension(rs, m))
    if ground != 0 or rows[ground] != [expected]:
        raise ContractViolation(f"{where}: ground row is lambda {ground} with constituents "
                                f"{rows[ground]}, expected lambda 0 with only {expected}")
    # rows: sorted distinct keys, each total summed from its own (norm, lex)-sorted constituents
    return SpectrumTable(rs.family, rs.rank, m, cutoff, tuple(
        SpectrumRow(lam, tuple(cs), sum(c.weight_mult * c.dim for c in cs))
        for lam, cs in sorted(rows.items())))


# ---------------------------------------------------------------------------
# the B_n / C_n distinguisher
# ---------------------------------------------------------------------------

class RowComparison(NamedTuple):
    index: int
    b_eigenvalue: Optional[Fraction]
    b_total: Optional[int]
    c_eigenvalue: Optional[Fraction]
    c_total: Optional[int]


class DistinguishReport(NamedTuple):
    n: int
    cutoff: Fraction
    b_table: SpectrumTable
    c_table: SpectrumTable
    first_difference: Optional[RowComparison]

    @property
    def verdict(self) -> str:
        if self.first_difference is None:
            return f"spectra agree up to cutoff {self.cutoff}"
        return "spectra differ"


def first_positive_eigenvalue(rs: RootSystem, mu: Optional[Sequence[int]] = None) -> Fraction:
    """Smallest nonzero eigenvalue of the vacuum operator twisted to L_mu.

    Candidates come from the unbounded walk over the dominant weights in
    increasing norm, and lambda grows with the norm, so the first gamma != mu
    that has mu as a weight carries the answer.  The walk always reaches one:
    mu + theta, theta the highest root, has mu as a weight.  A non-dominant
    mu is a ValueError, as in p_spectrum.
    """
    m = (0,) * rs.rank if mu is None else _require_dominant(rs, mu)
    norm = _rho_norm(rs)
    base = norm(m)
    for gamma_norm, gamma in _walk_up(rs, norm):
        if gamma != m and weight_multiplicity(rs, gamma, m) > 0:
            return Fraction(gamma_norm - base, rs.weight_gram_den)


def _compare_tables(b: SpectrumTable, c: SpectrumTable) -> Optional[RowComparison]:
    for i, (rb, rc) in enumerate(zip_longest(b.rows, c.rows)):
        eb, tb = (rb.eigenvalue, rb.total_multiplicity) if rb else (None, None)
        ec, tc = (rc.eigenvalue, rc.total_multiplicity) if rc else (None, None)
        if (eb, tb) != (ec, tc):
            return RowComparison(i, eb, tb, ec, tc)
    return None


def distinguish(n: int, cutoff=None) -> DistinguishReport:
    """Compare the untwisted vacuum spectra of B_n and C_n.

    The automatic cutoff is twice the larger of the two first positive
    eigenvalues, which guarantees both first positive rows are present.
    """
    n = index(n)
    if n < 2:
        raise ValueError(
            "distinguish requires n >= 2 (B_1 and C_1 are not in the classical "
            "table; see rank_one_sanity for the rank-1 statement)"
        )
    return _compare_spectra(n, build_root_system("B", n), build_root_system("C", n), cutoff)


def rank_one_sanity(cutoff=None) -> DistinguishReport:
    """The rank-1 control: sp(1) = su(2), so the 'B_1 vs C_1' spectra coincide."""
    a1 = build_root_system("A", 1)
    return _compare_spectra(1, a1, a1, cutoff)


def _compare_spectra(n: int, b: RootSystem, c: RootSystem, cutoff) -> DistinguishReport:
    if cutoff is None:
        cutoff = 2 * max(first_positive_eigenvalue(b), first_positive_eigenvalue(c))
    cutoff = exact_rational(cutoff, "cutoff")
    tb = p_spectrum(b, (0,) * n, cutoff)
    tc = p_spectrum(c, (0,) * n, cutoff)
    return DistinguishReport(n, cutoff, tb, tc, _compare_tables(tb, tc))


# ---------------------------------------------------------------------------
# bounded inventory of small irreducibles
# ---------------------------------------------------------------------------

def small_irrep_inventory(rs: RootSystem, dim_bound: int) -> list[tuple[Weight, int]]:
    """All dominant gamma with dim V_gamma <= dim_bound.

    Complete because the Weyl dimension strictly increases along every
    step gamma -> gamma + omega_i.  Sorted by dimension, then
    lexicographically.
    """
    dim_bound = index(dim_bound)
    if dim_bound < 1:
        raise ValueError("dimension bound must be >= 1")
    walk = _walk_up(rs, lambda w: weyl_dimension(rs, w))
    return [(w, dim) for dim, w in takewhile(lambda item: item[0] <= dim_bound, walk)]
