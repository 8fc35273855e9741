"""Highest-weight representation data via exact arithmetic.

Weight multiplicities come from Freudenthal's recursion, run over the
dominant weights below the highest weight and expanded along Weyl orbits.
Dimensions come independently from the Weyl dimension formula, and both
routes are reconciled on every call; a mismatch is a ContractViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class WeightSystem:
    """Complete multiplicity map of one irreducible highest-weight module."""

    highest: Weight
    mults: dict[Weight, int]
    dim: int


# in-process memo of dominant-weight multiplicity tables
_DOMINANT_MEMO: dict[tuple[str, int, Weight], dict[Weight, int]] = {}


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


def _dominant_multiplicities(rs: RootSystem, gamma: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V_gamma, by Freudenthal.

    A dominant mu is a weight of V_gamma iff gamma - mu is a nonnegative
    integer combination of simple roots; the recursion is processed in
    increasing height of gamma - mu so every lookup hits a finished entry.
    """
    key = (rs.family, rs.rank, gamma)
    memo = _DOMINANT_MEMO.get(key)
    if memo is not None:
        return memo

    r = rho(rs)
    top = tuple(a + b for a, b in zip(gamma, r))
    top_norm = killing_dual_form(rs, top, top)

    # enumerate every weight <= gamma that is a weight of V_gamma, walking
    # down one simple root at a time (weight diagrams are connected under
    # such steps); keep the dominant ones grouped by height of gamma - mu
    alpha_fw = [rs.positive_roots_fw[i] for i in range(rs.rank)]  # simple roots first
    seen = {gamma}
    frontier = [gamma]
    dominant_by_height: dict[int, list[Weight]] = {0: [gamma]}
    height = 0
    while frontier:
        height += 1
        nxt = []
        for w in frontier:
            for a in alpha_fw:
                cand = tuple(x - y for x, y in zip(w, a))
                if cand in seen:
                    continue
                dom = dominant_conjugate(rs, cand)
                if not is_nonneg_root_combination(
                    rs, tuple(x - y for x, y in zip(gamma, dom))
                ):
                    continue
                seen.add(cand)
                nxt.append(cand)
                if cand == dom:
                    dominant_by_height.setdefault(height, []).append(cand)
        frontier = nxt

    # simple-root coefficients are integers here: positive roots and
    # gamma - mu both lie in the root lattice
    roots = [
        (alpha, [(j, int(c)) for j, c in enumerate(root_lattice_coefficients(rs, alpha)) if c > 0])
        for alpha in rs.positive_roots_fw
    ]
    mults: dict[Weight, int] = {gamma: 1}
    for h in sorted(dominant_by_height)[1:]:
        for mu in dominant_by_height[h]:
            mu_rho = tuple(a + b for a, b in zip(mu, r))
            denom = top_norm - killing_dual_form(rs, mu_rho, mu_rho)
            acc = Fraction(0)
            diff = [int(c) for c in root_lattice_coefficients(
                rs, tuple(a - b for a, b in zip(gamma, mu))
            )]
            for alpha, support in roots:
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
    complete whenever key strictly increases along every such step.
    """
    zero = (0,) * rs.rank
    zero_key = key(zero)
    if zero_key > bound:
        return {}
    found = {zero: zero_key}
    frontier = [zero]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                cand = tuple(c + 1 if j == i else c for j, c in enumerate(w))
                if cand in found:
                    continue
                value = key(cand)
                if value <= bound:
                    found[cand] = value
                    nxt.append(cand)
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

    found = _dominant_weights_below(rs, norm, Fraction(bound))
    return sorted(found, key=lambda w: (found[w], w))

