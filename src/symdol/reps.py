"""Highest-weight representation data via exact arithmetic.

Weight multiplicities come from Freudenthal's recursion, run over the
dominant weights below the highest weight and expanded along Weyl orbits.
Those dominant weights are found without visiting any other weight: by
Stembridge (The partial order of dominant weights, Adv. Math. 136, 1998)
every dominant mu <= gamma is reached from gamma by steps mu -> mu - alpha
(alpha > 0) that stay dominant.  Dimensions come independently from the
Weyl dimension formula, and both routes are reconciled on every call; a
mismatch is a ContractViolation.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Callable, NamedTuple, Sequence

from .errors import ContractViolation
from .rootsys import (
    RootSystem,
    Weight,
    as_weight,
    dominant_conjugate,
    is_dominant,
    is_nonneg_root_combination,
    killing_dual_form,
    rho,
    root_lattice_coefficients,
    weyl_orbit,
)


class WeightSystem(NamedTuple):
    """Complete multiplicity map of one irreducible highest-weight module."""

    highest: Weight
    mults: dict[Weight, int]
    dim: int


# in-process memo of dominant-weight multiplicity tables
_DOMINANT_MEMO: dict[tuple[str, int, Weight], dict[Weight, int]] = {}


def exact_rational(value, what: str) -> Fraction:
    """An int or ``numbers.Rational`` as a Fraction; anything else, a float
    included, is a TypeError rather than its binary expansion."""
    if not isinstance(value, Rational):
        raise TypeError(f"{what} must be an int or a rational, got {value!r}")
    return Fraction(value)


def _require_dominant(rs: RootSystem, gamma: Sequence[int]) -> Weight:
    w = as_weight(rs, gamma)
    if not is_dominant(rs, w):
        raise ValueError(f"weight {w} is not dominant for {rs.name()}")
    return w


def weyl_dimension(rs: RootSystem, gamma: Sequence[int]) -> int:
    """dim V_gamma = prod_{alpha>0} K(gamma+rho, alpha) / K(rho, alpha)."""
    g = _require_dominant(rs, gamma)
    r = rho(rs)
    top = tuple(a + b for a, b in zip(g, r))
    result = Fraction(1)
    for alpha in rs.positive_roots_fw:
        result *= killing_dual_form(rs, top, alpha) / killing_dual_form(rs, r, alpha)
    if result.denominator != 1:
        raise ContractViolation(
            f"{rs.name()}: Weyl dimension of V_{g} is not an integer: {result}"
        )
    return int(result)


def casimir_value(rs: RootSystem, gamma: Sequence[int]) -> Fraction:
    """Casimir scalar on V_gamma: -(K(gamma+rho, gamma+rho) - K(rho, rho)).

    Zero exactly at gamma = 0 and strictly negative otherwise (the sign
    convention belongs to the negative-Killing-form metric).
    """
    g = _require_dominant(rs, gamma)
    r = rho(rs)
    top = tuple(a + b for a, b in zip(g, r))
    return -(killing_dual_form(rs, top, top) - killing_dual_form(rs, r, r))


def _positive_root_data(rs: RootSystem) -> list[tuple[Weight, list[tuple[int, int]], int]]:
    """(alpha, support, height) per positive root: the nonzero simple-root
    coefficients of alpha as (j, c_j) pairs, and their sum."""
    out = []
    for alpha in rs.positive_roots_fw:
        coeffs = [int(c) for c in root_lattice_coefficients(rs, alpha)]
        out.append((alpha, [(j, c) for j, c in enumerate(coeffs) if c], sum(coeffs)))
    return out


def _dominant_heights(gamma: Weight, roots: list) -> dict[Weight, int]:
    """{mu: height of gamma - mu} over the dominant weights mu of V_gamma.

    Breadth-first along mu -> mu - alpha (alpha > 0 from ``roots``, as
    ``_positive_root_data`` gives them), keeping only dominant candidates:
    each is below gamma, hence a weight of V_gamma, and by Stembridge every
    dominant weight below gamma is reached.  A step adds ht(alpha).
    """
    heights = {gamma: 0}
    frontier = [gamma]
    while frontier:
        nxt = []
        for mu in frontier:
            h = heights[mu]
            for alpha, _, ht in roots:
                cand = tuple(x - y for x, y in zip(mu, alpha))
                if min(cand) >= 0 and cand not in heights:
                    heights[cand] = h + ht
                    nxt.append(cand)
        frontier = nxt
    return heights


def _dominant_multiplicities(rs: RootSystem, gamma: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V_gamma, by Freudenthal.

    The dominant weights come from the dominant-step walk; the recursion
    takes them in increasing height of gamma - mu, so every lookup hits a
    finished entry.
    """
    key = (rs.family, rs.rank, gamma)
    memo = _DOMINANT_MEMO.get(key)
    if memo is not None:
        return memo

    r = rho(rs)
    top = tuple(a + b for a, b in zip(gamma, r))
    top_norm = killing_dual_form(rs, top, top)
    roots = _positive_root_data(rs)
    heights = _dominant_heights(gamma, roots)

    mults: dict[Weight, int] = {gamma: 1}
    for mu in sorted(heights, key=heights.get)[1:]:  # gamma alone has height 0
        mu_rho = tuple(a + b for a, b in zip(mu, r))
        denom = top_norm - killing_dual_form(rs, mu_rho, mu_rho)
        acc = Fraction(0)
        diff = [int(c) for c in root_lattice_coefficients(
            rs, tuple(a - b for a, b in zip(gamma, mu))
        )]
        for alpha, support, _ in roots:
            j_max = min(diff[j] // c for j, c in support)
            for j in range(1, j_max + 1):
                nu = tuple(x + j * y for x, y in zip(mu, alpha))
                m = mults.get(dominant_conjugate(rs, nu), 0)
                if m:
                    acc += m * killing_dual_form(rs, nu, alpha)
        value = 2 * acc / denom
        if value.denominator != 1 or value <= 0:
            raise ContractViolation(
                f"{rs.name()}: Freudenthal multiplicity of {mu} in V_{gamma} "
                f"is not a positive integer: {value}"
            )
        mults[mu] = int(value)

    _DOMINANT_MEMO[key] = mults
    return mults


def weight_multiplicity(rs: RootSystem, gamma: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of the weight mu in V_gamma (0 when mu is not a weight)."""
    g = _require_dominant(rs, gamma)
    m = as_weight(rs, mu)
    dom = dominant_conjugate(rs, m)
    if not is_nonneg_root_combination(rs, tuple(a - b for a, b in zip(g, dom))):
        return 0
    return _dominant_multiplicities(rs, g).get(dom, 0)


def weight_system(rs: RootSystem, gamma: Sequence[int]) -> WeightSystem:
    """Full weight system of V_gamma, reconciled against the Weyl dimension."""
    g = _require_dominant(rs, gamma)
    dom_mults = _dominant_multiplicities(rs, g)
    mults: dict[Weight, int] = {}
    for mu, m in dom_mults.items():
        for w in weyl_orbit(rs, mu):
            mults[w] = m
    dim = sum(mults.values())
    expected = weyl_dimension(rs, g)
    if dim != expected:
        raise ContractViolation(
            f"{rs.name()}: weight system of V_{g} sums to {dim}, "
            f"Weyl dimension formula gives {expected}"
        )
    return WeightSystem(highest=g, mults=mults, dim=dim)


# ---------------------------------------------------------------------------
# bounded enumeration of dominant weights
# ---------------------------------------------------------------------------

def _dominant_weights_below(
    rs: RootSystem, key: Callable[[Weight], object], bound
) -> dict[Weight, object]:
    """Every dominant gamma with key(gamma) <= bound, mapped to key(gamma).

    Breadth-first search along gamma -> gamma + omega_i from gamma = 0;
    complete whenever key strictly increases along every such step.  Each
    candidate is evaluated once: those over the bound are remembered too.
    """
    zero = (0,) * rs.rank
    zero_key = key(zero)
    if zero_key > bound:
        return {}
    found = {zero: zero_key}
    over: set[Weight] = set()
    frontier = [zero]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                cand = tuple(c + 1 if j == i else c for j, c in enumerate(w))
                if cand in found or cand in over:
                    continue
                value = key(cand)
                if value <= bound:
                    found[cand] = value
                    nxt.append(cand)
                else:
                    over.add(cand)
        frontier = nxt
    return found


def dominant_weights_with_norm_bound(rs: RootSystem, bound) -> list[Weight]:
    """All dominant gamma with K(gamma+rho, gamma+rho) <= bound.

    Complete because K(gamma + omega_i + rho) > K(gamma + rho) whenever
    gamma is dominant (K(omega_i, x) > 0 for strictly dominant x).  Sorted
    by norm, then lexicographically.
    """
    r = rho(rs)

    def norm(w: Weight) -> Fraction:
        t = tuple(a + b for a, b in zip(w, r))
        return killing_dual_form(rs, t, t)

    found = _dominant_weights_below(rs, norm, exact_rational(bound, "norm bound"))
    return sorted(found, key=lambda w: (found[w], w))

