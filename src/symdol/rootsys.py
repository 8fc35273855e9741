"""Exact models of the classical root systems A_k, B_k, C_k, D_k and G_2.

Weights are plain integer tuples in the fundamental-weight basis
(omega_1, ..., omega_k); that basis is the lingua franca of the whole
package.  Internally each family carries its standard orthogonal-coordinate
realization with exact rational entries, and the bilinear form exposed to
callers is the *dual Killing form*

    K = (form normalized so long roots have squared length 2) / (2 h^v),

with h^v the dual Coxeter number.  K is positive definite; the metric that
motivates it is negative the Killing form, so squared lengths in that
convention are -K(x, x).  The normalization is pinned by K(alpha, alpha)
= 1/2 for A_1, which makes the rank-one Casimir come out as
-((k+1)^2 - 1)/8 on the (k+1)-dimensional irreducible.

Both matrices the weight arithmetic needs, the inverse Cartan matrix (for
simple-root coefficients) and the Gram matrix K(omega_i, omega_j), are also
stored as integer numerators over one common denominator each.  On integer
weights, K(x, y) and the simple-root coefficients are then integer dot
products with a single division at the end, and the root-lattice membership
test is integer dot products plus a divisibility test.

Everything here is immutable and pure; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

Weight = tuple[int, ...]
Vector = tuple[Fraction, ...]

_FAMILIES = "ABCDG"

_RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "G": (2, 2),
}


class RootSystem(NamedTuple):
    """Cartan data for one classical family at a fixed rank.

    ``simple_roots`` and ``positive_roots`` are stored in the orthogonal
    coordinate model; ``positive_roots_fw`` gives the same roots in
    fundamental-weight coordinates (integer tuples), ordered by height and
    starting with the simple roots in index order.  ``inverse_cartan`` and
    ``weight_gram`` equal ``*_num`` divided entrywise by ``*_den``.
    """

    family: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    dual_coxeter: int
    killing_scale: Fraction           # 1 / (2 * dual_coxeter)
    euclid_scale: Fraction            # rescales the dot product so long roots have norm^2 = 2
    fundamental_weights: tuple[Vector, ...]   # orthogonal coordinates
    positive_roots_fw: tuple[Weight, ...]
    inverse_cartan: tuple[tuple[Fraction, ...], ...]
    weight_gram: tuple[tuple[Fraction, ...], ...]  # K(omega_i, omega_j)
    inverse_cartan_num: tuple[tuple[int, ...], ...]
    inverse_cartan_den: int
    weight_gram_num: tuple[tuple[int, ...], ...]
    weight_gram_den: int

    def name(self) -> str:
        return f"{self.family}{self.rank}"


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _unit(ambient: int, i: int) -> Vector:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(ambient))


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(c, u):
    return tuple(Fraction(c) * a for a in u)


def _orthogonal_data(family: str, rank: int):
    """Simple roots, positive roots (orthogonal model), dual Coxeter number,
    and the dot-product rescale putting long roots at squared length 2."""
    e = _unit
    if family == "A":
        amb = rank + 1
        simples = [_vec_sub(e(amb, i), e(amb, i + 1)) for i in range(rank)]
        positives = [_vec_sub(e(amb, i), e(amb, j))
                     for i in range(amb) for j in range(i + 1, amb)]
        return simples, positives, rank + 1, Fraction(1)
    if family in "BCD":
        amb = rank
        simples = [_vec_sub(e(amb, i), e(amb, i + 1)) for i in range(rank - 1)]
        positives = [op(e(amb, i), e(amb, j)) for i in range(rank) for j in range(i + 1, rank)
                     for op in (_vec_sub, _vec_add)]
        if family == "B":
            simples.append(e(amb, rank - 1))
            positives.extend(e(amb, i) for i in range(rank))
            return simples, positives, 2 * rank - 1, Fraction(1)
        if family == "C":
            simples.append(_vec_scale(2, e(amb, rank - 1)))
            positives.extend(_vec_scale(2, e(amb, i)) for i in range(rank))
            # long roots 2e_i have plain squared length 4
            return simples, positives, rank + 1, Fraction(1, 2)
        simples.append(_vec_add(e(amb, rank - 2), e(amb, rank - 1)))
        return simples, positives, 2 * rank - 2, Fraction(1)
    if family == "G":
        amb = 3
        a1 = _vec_sub(e(amb, 0), e(amb, 1))                       # short
        a2 = _vec_add(_vec_scale(-2, e(amb, 0)), _vec_add(e(amb, 1), e(amb, 2)))  # long
        simples = [a1, a2]
        positives = [
            a1,
            a2,
            _vec_add(a1, a2),
            _vec_add(_vec_scale(2, a1), a2),
            _vec_add(_vec_scale(3, a1), a2),
            _vec_add(_vec_scale(3, a1), _vec_scale(2, a2)),
        ]
        # long roots have plain squared length 6
        return simples, positives, 4, Fraction(1, 3)
    raise AssertionError(family)


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _over_common_denominator(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, d) with matrix[i][j] = N[i][j] / d and d the least common denominator."""
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in matrix), den


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system for a valid (family, rank) pair.

    Admissible pairs: A_k (k >= 1), B_k (k >= 2), C_k (k >= 2),
    D_k (k >= 3), G_2.
    """
    if family not in _RANK_RULES:
        raise ValueError(
            f"unknown family {family!r}; supported families are "
            "A (rank >= 1), B (rank >= 2), C (rank >= 2), D (rank >= 3), G (rank = 2)"
        )
    lo, hi = _RANK_RULES[family]
    if not isinstance(rank, int) or rank < lo or (hi is not None and rank > hi):
        bound = f"rank = {lo}" if hi == lo else f"rank >= {lo}"
        raise ValueError(f"family {family} requires {bound}; got rank {rank}")

    simples, positives, dual_cox, euclid_scale = _orthogonal_data(family, rank)

    def form(u, v):
        return euclid_scale * _dot(u, v)

    scales = [2 / form(sj, sj) for sj in simples]
    cartan = tuple(
        tuple(int(scale * form(si, sj)) for sj, scale in zip(simples, scales)) for si in simples
    )
    inv_cartan = _invert([[Fraction(c) for c in row] for row in cartan])
    inv_cartan_num, inv_cartan_den = _over_common_denominator(inv_cartan)

    # fundamental weights: omega_i = sum_j (A^{-1})_ij alpha_j
    fundamental = tuple(
        tuple(sum((inv_cartan[i][j] * simples[j][m] for j in range(rank)), Fraction(0))
              for m in range(len(simples[0])))
        for i in range(rank)
    )

    def to_fw(vec) -> Weight:
        coords = tuple(scale * form(vec, sj) for sj, scale in zip(simples, scales))
        if any(c.denominator != 1 for c in coords):
            raise ValueError("vector is not in the weight lattice")
        return tuple(int(c) for c in coords)

    # order positive roots by height (sum of simple-root coefficients), with
    # the simple roots first in index order; the coefficients times
    # inverse_cartan_den > 0 are integers and sort the same way
    def sort_key(pair):
        coeffs = [sum(f * row[j] for f, row in zip(pair[1], inv_cartan_num)) for j in range(rank)]
        return (sum(coeffs), tuple(-c for c in coeffs))

    pairs = sorted(((v, to_fw(v)) for v in positives), key=sort_key)
    positives = [v for v, _ in pairs]
    positives_fw = tuple(fw for _, fw in pairs)

    killing_scale = Fraction(1, 2 * dual_cox)
    gram = tuple(
        tuple(killing_scale * form(fundamental[i], fundamental[j]) for j in range(rank))
        for i in range(rank)
    )

    gram_num, gram_den = _over_common_denominator(gram)
    return RootSystem(
        family=family,
        rank=rank,
        cartan_matrix=cartan,
        simple_roots=tuple(tuple(v) for v in simples),
        positive_roots=tuple(tuple(v) for v in positives),
        dual_coxeter=dual_cox,
        killing_scale=killing_scale,
        euclid_scale=euclid_scale,
        fundamental_weights=fundamental,
        positive_roots_fw=positives_fw,
        inverse_cartan=tuple(tuple(row) for row in inv_cartan),
        weight_gram=gram,
        inverse_cartan_num=inv_cartan_num,
        inverse_cartan_den=inv_cartan_den,
        weight_gram_num=gram_num,
        weight_gram_den=gram_den,
    )


# ---------------------------------------------------------------------------
# weight operations
# ---------------------------------------------------------------------------

def as_weight(rs: RootSystem, coords: Sequence[int]) -> Weight:
    w = tuple(int(c) for c in coords)
    if len(w) != rs.rank:
        raise ValueError(f"weight has {len(w)} coordinates; {rs.name()} has rank {rs.rank}")
    return w


def rho(rs: RootSystem) -> Weight:
    """The Weyl vector: all fundamental-weight coordinates equal to 1."""
    return (1,) * rs.rank


def killing_dual_form(rs: RootSystem, x: Sequence, y: Sequence) -> Fraction:
    """K(x, y) on weights, for x, y in fundamental-weight coordinates.

    Coordinates may be integers or exact rationals (rational coordinates
    occur for midpoints and root-string bookkeeping).  The sum runs over the
    integer Gram numerators, so integer inputs build one Fraction at the end.
    """
    if len(x) != rs.rank or len(y) != rs.rank:
        raise ValueError(f"expected weight vectors of length {rs.rank}")
    total = 0
    for xi, row in zip(x, rs.weight_gram_num):
        if xi:
            total += xi * sum(g * yj for g, yj in zip(row, y))
    return Fraction(total, rs.weight_gram_den)


def simple_reflection(rs: RootSystem, i: int, x: Sequence[int]) -> Weight:
    """Reflection in the i-th simple root (1-indexed), in fundamental coords."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple-root index {i} out of range 1..{rs.rank}")
    w = as_weight(rs, x)
    row = rs.cartan_matrix[i - 1]
    return tuple(w[j] - w[i - 1] * row[j] for j in range(rs.rank))


def is_dominant(rs: RootSystem, x: Sequence[int]) -> bool:
    return all(c >= 0 for c in as_weight(rs, x))


def dominant_conjugate(rs: RootSystem, x: Sequence[int]) -> Weight:
    """The unique dominant weight in the Weyl orbit of x."""
    w = as_weight(rs, x)
    cartan = rs.cartan_matrix
    while True:
        i = next((j for j, c in enumerate(w) if c < 0), None)
        if i is None:
            return w
        wi = w[i]  # reflect in alpha_{i+1}, as simple_reflection does
        w = tuple(a - wi * c for a, c in zip(w, cartan[i]))


def weyl_orbit(rs: RootSystem, x: Sequence[int]) -> set[Weight]:
    """Full Weyl orbit, generated by simple reflections; s_i fixes w when
    w_i = 0, so it is skipped there."""
    start = as_weight(rs, x)
    rows = tuple(enumerate(rs.cartan_matrix))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i, row in rows:
                wi = w[i]
                if wi:
                    r = tuple(a - wi * c for a, c in zip(w, row))
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return seen


def to_orthogonal(rs: RootSystem, x: Sequence[int]) -> Vector:
    """Fundamental-weight coordinates -> orthogonal coordinate model."""
    w = as_weight(rs, x)
    amb = len(rs.fundamental_weights[0])
    return tuple(
        sum((Fraction(w[i]) * rs.fundamental_weights[i][m] for i in range(rs.rank)), Fraction(0))
        for m in range(amb)
    )


def from_orthogonal(rs: RootSystem, vec: Sequence[Fraction]) -> Weight:
    """Orthogonal coordinates -> fundamental-weight coordinates (must be integral)."""
    coords = []
    for sj in rs.simple_roots:
        c = 2 * _dot(vec, sj) / _dot(sj, sj)
        if Fraction(c).denominator != 1:
            raise ValueError("vector is not an integral weight")
        coords.append(int(c))
    return tuple(coords)


def _lattice_numerators(rs: RootSystem, x: Sequence) -> list:
    """inverse_cartan_den times the simple-root coefficients of x."""
    if len(x) != rs.rank:
        raise ValueError(f"expected weight vectors of length {rs.rank}")
    num = rs.inverse_cartan_num
    return [sum(x[i] * num[i][j] for i in range(rs.rank)) for j in range(rs.rank)]


def root_lattice_coefficients(rs: RootSystem, x: Sequence) -> tuple[Fraction, ...]:
    """Coefficients c with x = sum_j c_j alpha_j (x in fundamental coords)."""
    den = rs.inverse_cartan_den
    return tuple(Fraction(c, den) for c in _lattice_numerators(rs, x))


def is_nonneg_root_combination(rs: RootSystem, x: Sequence[int]) -> bool:
    """True iff x is a nonnegative *integer* combination of simple roots."""
    den = rs.inverse_cartan_den
    return all(c >= 0 and c % den == 0 for c in _lattice_numerators(rs, x))
