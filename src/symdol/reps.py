"""Highest-weight representation data via exact arithmetic.

Weight multiplicities come from Freudenthal's recursion, run over the
dominant weights below the highest weight and expanded along Weyl orbits.
Those dominant weights are found without visiting any other weight: by
Stembridge (The partial order of dominant weights, Adv. Math. 136, 1998)
every dominant mu <= gamma is reached from gamma by steps mu -> mu - alpha
(alpha > 0) that stay dominant.  The recursion's sums run up each root
string from mu to its first gap, since the weights on a string form an
unbroken run (Humphreys, Introduction to Lie Algebras and Representation
Theory, section 21.3).  Dimensions come independently from the Weyl
dimension formula, and both routes are reconciled on every call; a
mismatch is a ContractViolation.

One best-first walk over dominant weights, ``_dominant_walk``, serves every
enumeration: Freudenthal walks down from gamma in increasing denominator,
and the bounded enumerations walk up from 0 along gamma -> gamma + omega_i
in increasing norm or dimension, stopping at the first key over the bound.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import takewhile
from numbers import Rational
from typing import Any, Callable, Iterator, NamedTuple, Sequence

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


def _rho_norm(rs: RootSystem) -> Callable[[Weight], Fraction]:
    """w -> K(w+rho, w+rho)."""
    r = rho(rs)

    def norm(w: Weight) -> Fraction:
        t = tuple(a + b for a, b in zip(w, r))
        return killing_dual_form(rs, t, t)

    return norm


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
    norm = _rho_norm(rs)
    return -(norm(g) - norm((0,) * rs.rank))


def _dominant_walk(start: Weight, steps: Sequence[Weight],
                   key: Callable[[Weight], Any]) -> Iterator[tuple[Any, Weight]]:
    """Yield (key(w), w) in increasing (key, w) order over every dominant w
    reached from start by adding steps while staying dominant.

    Best-first from a heap; each weight's key is evaluated once, when it is
    first reached.  The order is right whenever key strictly increases along
    every step between dominant weights: a weight still to come is reached
    through one already on the heap, whose key is smaller.
    """
    heap = [(key(start), start)]
    seen = {start}
    while heap:
        item = heappop(heap)
        yield item
        w = item[1]
        for step in steps:
            cand = tuple(a + b for a, b in zip(w, step))
            if min(cand) >= 0 and cand not in seen:
                seen.add(cand)
                heappush(heap, (key(cand), cand))


def _walk_up(rs: RootSystem, key: Callable[[Weight], Any]) -> Iterator[tuple[Any, Weight]]:
    """_dominant_walk from 0 along gamma -> gamma + omega_i, which reaches
    every dominant weight."""
    steps = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    return _dominant_walk((0,) * rs.rank, steps, key)


def _dominant_multiplicities(rs: RootSystem, gamma: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V_gamma, by Freudenthal.

    The dominant weights mu come from the walk down from gamma along
    mu -> mu - alpha (alpha > 0): each is below gamma, hence a weight of
    V_gamma, and by Stembridge every dominant weight below gamma is reached.
    The walk is keyed by the Freudenthal denominator
    K(gamma+rho, gamma+rho) - K(mu+rho, mu+rho), which grows along every
    such step.  The sum over nu = mu + j alpha (j >= 1) stops at the first
    zero lookup mults.get(dom(nu), 0), which is exact because:
    - a lookup inside the string is finished: dom(nu) is dominant and
      above mu, so its denominator is smaller (Humphreys, section 13.4,
      Lemma C) and the walk has reached it;
    - the first zero marks the end of the string: a dominant dom(nu) <=
      gamma would make nu a weight, so only a lookup past the end is zero;
    - the weights on an alpha-string are unbroken (section 21.3).
    """
    key = (rs.family, rs.rank, gamma)
    memo = _DOMINANT_MEMO.get(key)
    if memo is not None:
        return memo

    norm = _rho_norm(rs)
    top_norm = norm(gamma)
    roots = rs.positive_roots_fw
    walk = _dominant_walk(gamma, [tuple(-x for x in alpha) for alpha in roots],
                          lambda mu: top_norm - norm(mu))
    next(walk)  # gamma itself, multiplicity 1

    mults: dict[Weight, int] = {gamma: 1}
    for denom, mu in walk:
        acc = Fraction(0)
        for alpha in roots:
            nu = tuple(x + y for x, y in zip(mu, alpha))
            while m := mults.get(dominant_conjugate(rs, nu), 0):
                acc += m * killing_dual_form(rs, nu, alpha)
                nu = tuple(x + y for x, y in zip(nu, alpha))
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

def dominant_weights_with_norm_bound(rs: RootSystem, bound) -> list[Weight]:
    """All dominant gamma with K(gamma+rho, gamma+rho) <= bound.

    Complete because K(gamma + omega_i + rho) > K(gamma + rho) whenever
    gamma is dominant (K(omega_i, x) > 0 for strictly dominant x), so the
    upward walk comes in norm order.  Sorted by norm, then lexicographically.
    """
    bound = exact_rational(bound, "norm bound")
    return [w for _, w in takewhile(lambda item: item[0] <= bound, _walk_up(rs, _rho_norm(rs)))]
