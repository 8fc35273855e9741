"""Highest-weight representation data via exact arithmetic.

Weight multiplicities come from Freudenthal's recursion, run over the
dominant weights below the highest weight.  Those dominant weights are
found without visiting any other weight: by Stembridge (The partial order
of dominant weights, Adv. Math. 136, 1998) every dominant mu <= gamma is
reached from gamma by steps mu -> mu - alpha (alpha > 0) that stay
dominant.  The recursion's sums run up each root string from mu to its
first gap, since the weights on a string form an unbroken run (Humphreys,
Introduction to Lie Algebras and Representation Theory, section 21.3).

The sums are taken once per orbit of the stabilizer of mu.  With
J = {i : mu_i = 0}, W_J = <s_i : i in J> fixes mu; it permutes the
positive roots outside the root subsystem Phi_J, since each s_i permutes
the positive roots other than alpha_i (Humphreys, section 10.2, Lemma B),
and it permutes Phi_J.  The string term t(alpha) = sum_{j>=1} m(mu+j alpha)
K(mu+j alpha, alpha) is therefore constant on W_J-orbits, and
t(-alpha) = t(alpha) on Phi_J because s_alpha fixes mu.  So
2 sum_{alpha>0} t(alpha) = sum_O c_O t(alpha_O) over the W_J-orbits O of
roots taken up to sign (Moody and Patera, Fast recursion formula for weight
multiplicities, Bull. AMS 7, 1982).  Each meets the closed J-chamber
{x : x_i >= 0, i in J} once, and the stabilizer of that point is generated
by the s_i that fix it (Humphreys, Reflection Groups and Coxeter Groups,
section 1.12).  So alpha_O is read off as O's one J-dominant positive root,
its highest, and c_O = |W_J alpha_O| by the Poincare count below, doubled
when K(mu, alpha_O) != 0, off Phi_J; an orbit in Phi_J holds -alpha_O.
K(nu, alpha) is the integer nu . g_alpha over the Gram denominator,
with g_alpha = Gram_num alpha, and it grows by K(alpha, alpha) along a
string, so the recursion runs on integer numerators with one division per
weight.

Dimensions come from the positive coroots alpha^v, the positive roots of
the transposed Cartan matrix, with simple-coroot coefficients c^v(alpha):

    dim V_lambda = prod <lambda+rho, alpha^v> / prod ht(alpha^v),
    <lambda+rho, alpha^v> = sum_i (lambda_i + 1) c^v_i(alpha),

and the Weyl orbit of a dominant mu has |W| / |W_J| elements, which the
Poincare polynomial at t = 1 gives as the product of (ht + 1) / ht over
the positive coroots with <mu, alpha^v> > 0, those outside Phi_J^v
(Macdonald, The Poincare series of a Coxeter group, Math. Ann. 199, 1972).
The same product over the positive coroots of Phi_J^v with
<alpha, beta^v> > 0 gives |W_J alpha| for a J-dominant alpha.
A spectrum's dimensions are reconciled with sum_mu m_mu |W mu| over the
dominant table, and ``weight_system`` with its expanded orbits, each orbit
also reconciled on its own with |W mu|; a mismatch is a ContractViolation.

One best-first walk over dominant weights, ``_dominant_walk``, serves every
enumeration: Freudenthal walks down from gamma in increasing denominator,
and the bounded enumerations walk up from 0 along gamma -> gamma + omega_i
in increasing norm or dimension, stopping at the first key over the bound.
What reps derives (the coroots, each J's rows, each V_gamma's dominant table)
is kept in process in one record per Cartan matrix, which alone fixes every
field of a RootSystem: equal matrices share a record, and a system with its
nodes numbered otherwise never reads another's tables.
"""

from fractions import Fraction
from heapq import heappop, heappush
from itertools import takewhile
from math import floor, prod
from numbers import Rational
from operator import add, mul
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .errors import ContractViolation
from .rootsys import (
    RootSystem,
    Weight,
    _positive_root_coefficients,
    as_weight,
    dominant_conjugate,
    is_nonneg_root_combination,
    weyl_orbit,
)


class WeightSystem(NamedTuple):
    """Complete multiplicity map of one irreducible highest-weight module."""

    highest: Weight
    mults: dict[Weight, int]
    dim: int


class _Tables(NamedTuple):   # what reps derives from one Cartan matrix
    coroots: tuple[Weight, ...]   # c^v(alpha) of the positive coroots
    heights: int                  # prod ht(alpha^v) = prod <rho, alpha^v>
    stabilizers: dict             # J = {i : mu_i = 0} -> _stabilizer's pair
    dominant: dict                # gamma -> the dominant table of V_gamma


_TABLES: dict[tuple[tuple[int, ...], ...], _Tables] = {}


def exact_rational(value, what: str) -> Fraction:
    """An int or ``numbers.Rational`` as a Fraction; anything else, a float
    included, is a TypeError rather than its binary expansion."""
    if not isinstance(value, Rational):
        raise TypeError(f"{what} must be an int or a rational, got {value!r}")
    return Fraction(value)


def _require_dominant(rs: RootSystem, gamma: Sequence[int]) -> Weight:
    w = as_weight(rs, gamma)
    if min(w) < 0:
        raise ValueError(f"weight {w} is not dominant for {rs.name()}")
    return w


def _rho_norm(rs: RootSystem) -> Callable[[Weight], int]:
    """w -> K(w+rho, w+rho) * weight_gram_den, an integer: every rho-norm
    shares that denominator, so the numerators order weights as the norms do."""
    gram = rs.weight_gram_num

    def norm(w: Weight) -> int:
        t = [x + 1 for x in w]
        return sum(ti * sum(map(mul, row, t)) for ti, row in zip(t, gram))

    return norm


def _tables(rs: RootSystem) -> _Tables:
    """The record of rs.cartan_matrix, made on first sight."""
    tables = _TABLES.get(rs.cartan_matrix)
    if tables is None:
        coeffs = tuple(c for c, _ in _positive_root_coefficients(tuple(zip(*rs.cartan_matrix))))
        tables = _TABLES[rs.cartan_matrix] = _Tables(coeffs, prod(map(sum, coeffs)), {}, {})
    return tables


def weyl_dimension(rs: RootSystem, gamma: Sequence[int]) -> int:
    """dim V_gamma = prod_{alpha>0} <gamma+rho, alpha^v> / <rho, alpha^v>."""
    g = _require_dominant(rs, gamma)
    top = [x + 1 for x in g]
    coeffs, heights = _tables(rs)[:2]
    num = prod(sum(map(mul, top, c)) for c in coeffs)
    dim, rest = divmod(num, heights)
    if rest:
        raise ContractViolation(
            f"{rs.name()}: Weyl dimension of V_{g} is not an integer: {Fraction(num, heights)}"
        )
    return dim


def _stabilizer(rs: RootSystem, mu: Weight, tables: _Tables) -> tuple[int, tuple]:
    """(|W mu|, one row (c_O, alpha, g_alpha, K(alpha, alpha) den) per W_J-orbit of roots
    up to sign) for J = {i : mu_i = 0}, kept under J in tables, rs.cartan_matrix's record."""
    fixed = tuple(i for i, x in enumerate(mu) if x == 0)
    table = tables.stabilizers.get(fixed)
    if table is not None:
        return table

    def orbit(x: Weight, among: Sequence[Weight]) -> int:
        # the Poincare count, (ht + 1) / ht over the coroots in among that
        # pair nonzero with x: |W x| over every coroot for dominant x, and
        # |W_J x| over Phi_J^v+ for J-dominant x; either way each pairing
        # is a sum of nonnegative terms
        heights = [sum(c) for c in among if any(map(mul, x, c))]
        return prod(h + 1 for h in heights) // prod(heights)

    inside = [c for c in tables.coroots if not any(map(mul, mu, c))]   # Phi_J^v+
    gram = rs.weight_gram_num
    strings = []
    for alpha in rs.positive_roots_fw:
        if all(alpha[i] >= 0 for i in fixed):   # J-dominant: one per orbit
            g = tuple(sum(map(mul, row, alpha)) for row in gram)
            weight = orbit(alpha, inside) * (2 if sum(map(mul, mu, g)) else 1)
            strings.append((weight, alpha, g, sum(map(mul, alpha, g))))

    table = tables.stabilizers[fixed] = (orbit(mu, tables.coroots), tuple(strings))
    return table


def casimir_value(rs: RootSystem, gamma: Sequence[int]) -> Fraction:
    """Casimir scalar on V_gamma: -(K(gamma+rho, gamma+rho) - K(rho, rho)).

    Zero exactly at gamma = 0 and strictly negative otherwise (the sign
    convention belongs to the negative-Killing-form metric).
    """
    g = _require_dominant(rs, gamma)
    norm = _rho_norm(rs)
    return Fraction(norm((0,) * rs.rank) - norm(g), rs.weight_gram_den)


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
            cand = tuple(map(add, w, step))
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
    One string is summed per W_J-orbit of roots, weighted by c_O (see the
    module docstring), and the key, the denominator and the sums are
    integer numerators over weight_gram_den.
    """
    tables = _tables(rs)
    memo = tables.dominant.get(gamma)
    if memo is not None:
        return memo

    norm = _rho_norm(rs)
    top_norm = norm(gamma)
    walk = _dominant_walk(gamma, [tuple(-x for x in alpha) for alpha in rs.positive_roots_fw],
                          lambda mu: top_norm - norm(mu))
    next(walk)  # gamma itself, multiplicity 1

    mults: dict[Weight, int] = {gamma: 1}
    for denom, mu in walk:
        acc = 0
        for weight, alpha, g, step in _stabilizer(rs, mu, tables)[1]:
            nu = tuple(map(add, mu, alpha))
            k = sum(map(mul, nu, g))
            t = 0
            while m := mults.get(dominant_conjugate(rs, nu), 0):
                t += m * k
                nu = tuple(map(add, nu, alpha))
                k += step
            acc += weight * t
        value, rest = divmod(acc, denom)
        if rest or value <= 0:
            raise ContractViolation(
                f"{rs.name()}: Freudenthal multiplicity of {mu} in V_{gamma} "
                f"is not a positive integer: {Fraction(acc, denom)}"
            )
        mults[mu] = value

    tables.dominant[gamma] = mults
    return mults


def weight_multiplicity(rs: RootSystem, gamma: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of the weight mu in V_gamma (0 when mu is not a weight)."""
    g = _require_dominant(rs, gamma)
    m = as_weight(rs, mu)
    dom = dominant_conjugate(rs, m)
    if not is_nonneg_root_combination(rs, tuple(a - b for a, b in zip(g, dom))):
        return 0
    return _dominant_multiplicities(rs, g).get(dom, 0)


def reconciled_dimension(rs: RootSystem, gamma: Sequence[int]) -> int:
    """dim V_gamma by the Weyl dimension formula, reconciled with
    sum_mu m_mu |W mu| over the dominant weights of V_gamma."""
    g = _require_dominant(rs, gamma)
    expected, tables = weyl_dimension(rs, g), _tables(rs)
    total = sum(m * _stabilizer(rs, mu, tables)[0]
                for mu, m in _dominant_multiplicities(rs, g).items())
    if total != expected:
        raise ContractViolation(
            f"{rs.name()}: dimension of V_gamma, gamma={g}: the Weyl dimension formula "
            f"gives {expected}, the dominant multiplicities times Weyl orbit sizes sum to {total}"
        )
    return expected


def weight_system(rs: RootSystem, gamma: Sequence[int]) -> WeightSystem:
    """Full weight system of V_gamma: each orbit reconciled against its
    Poincare count, the total against the Weyl dimension."""
    g = _require_dominant(rs, gamma)
    mults, tables = {}, _tables(rs)
    for mu, m in _dominant_multiplicities(rs, g).items():
        orbit, size = weyl_orbit(rs, mu), _stabilizer(rs, mu, tables)[0]
        if len(orbit) != size:
            raise ContractViolation(
                f"{rs.name()}: Weyl orbit of {mu} in V_{g}: the walk lists {len(orbit)} "
                f"weights, the Poincare count over the coroots gives {size}"
            )
        mults.update(dict.fromkeys(orbit, m))
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
    bound = floor(exact_rational(bound, "norm bound") * rs.weight_gram_den)
    walk = _walk_up(rs, _rho_norm(rs))
    return [w for _, w in takewhile(lambda item: item[0] <= bound, walk)]
