"""Exact models of the root systems of the families in ``_RANK_RULES``, the
one list of families: the CLI's ``--family`` help and ``build_root_system``'s
errors are read off it, so a family is added there and in ``_cartan_matrix``.

Weights are plain integer tuples in the fundamental-weight basis
(omega_1, ..., omega_k); that basis is the lingua franca of the whole
package.  Each family is built from its integer Cartan matrix A alone, and
``_cartan_matrix`` is the only code that knows how the nodes are numbered.
The positive roots (and, on the transposed matrix, the coroots) come from
one reflection closure that carries each root's simple-root coefficients
and fundamental-weight coordinates, so every pairing with a simple coroot
is a lookup.  The stored bilinear form (``weight_gram_*``) is the *dual
Killing form*

    K = (form normalized so long roots have squared length 2) / (2 h^v),

with h^v the dual Coxeter number.  K is positive definite; the metric that
motivates it is negative the Killing form, so squared lengths in that
convention are -K(x, x).  The normalization is pinned by K(alpha, alpha)
= 1/2 for A_1, which makes the rank-one Casimir come out as
-((k+1)^2 - 1)/8 on the (k+1)-dimensional irreducible.

Every constant is read off one integer matrix, the Killing sum
S_ik = sum_{alpha>0} c_i(alpha) c_k(alpha) over the simple-root coefficients
of the positive roots.  S A is diagonal, with diagonal q_i = h^v / d_i
(d_i the half squared length of alpha_i), so h^v = min q,
(A^-1)_ik = S_ik / q_i and K(omega_i, omega_k) = S_ik / (2 q_i q_k).
Numbering the nodes in another order only permutes these constants.

Both matrices the weight arithmetic needs, the inverse Cartan matrix and
the Gram matrix K(omega_i, omega_j), are stored as integer numerators over
one common denominator each.  On integer weights, K(x, y) is then an
integer dot product with a single division at the end, and the membership
test for nonnegative integer combinations of simple roots is integer dot
products with the inverse Cartan matrix plus a sign and divisibility test.

Everything here is immutable and pure; no floating point.
"""

import math
from fractions import Fraction
from operator import index, mul
from typing import NamedTuple, Sequence

Weight = tuple[int, ...]

_RANK_RULES = {   # family -> (least rank, greatest rank or None)
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "G": (2, 2),
}


class RootSystem(NamedTuple):
    """Cartan data for one family at a fixed rank, all of it derived from
    the integer Cartan matrix.

    ``cartan_matrix[i][j]`` is <alpha_i, alpha_j^v>, so row i is alpha_i in
    fundamental-weight coordinates.  ``positive_roots_fw`` gives the positive
    roots in those coordinates (integer tuples), ordered by height and
    starting with the simple roots in index order.  The inverse Cartan matrix
    (row i holds the simple-root coefficients of omega_i) and the Gram matrix
    K(omega_i, omega_j) are ``*_num`` divided entrywise by ``*_den``; they and
    ``dual_coxeter`` are read off the Killing sum S through the diagonal of
    S A, whatever the order of the nodes.
    """

    family: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    dual_coxeter: int
    killing_scale: Fraction           # 1 / (2 * dual_coxeter)
    positive_roots_fw: tuple[Weight, ...]
    inverse_cartan_num: tuple[tuple[int, ...], ...]
    inverse_cartan_den: int
    weight_gram_num: tuple[tuple[int, ...], ...]   # K(omega_i, omega_j) * weight_gram_den
    weight_gram_den: int

    def name(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """<alpha_i, alpha_j^v> in the Bourbaki numbering: a chain of simple roots,
    with the double (B, C) or triple (G) bond and the fork of D at the last
    node."""
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
         for i in range(rank)]
    n = rank - 1
    if family == "B":
        a[n - 1][n] = -2      # alpha_n short
    elif family == "C":
        a[n][n - 1] = -2      # alpha_n long
    elif family == "G":
        a[n][n - 1] = -3      # alpha_2 long
    elif family == "D":
        a[n][n - 1] = a[n - 1][n] = 0
        a[n][n - 2] = a[n - 2][n] = -1
    return tuple(tuple(row) for row in a)


def _positive_root_coefficients(cartan) -> list[tuple[tuple[int, ...], Weight]]:
    """(simple-root coefficients, fundamental-weight coordinates) of every
    positive root, by reflection closure.

    The simple reflection s_i permutes the positive roots other than alpha_i
    (Humphreys, section 10.2, Lemma B), and every positive root is reached
    from a simple root that way.  Coordinate i of beta is <beta, alpha_i^v>;
    s_i(beta) takes it off coefficient i and, times Cartan row i (alpha_i),
    off the coordinates.  Only alpha_i has coefficient i below the pairing."""
    rank = len(cartan)
    found = [(tuple(int(i == j) for j in range(rank)), row) for i, row in enumerate(cartan)]
    roots = {beta for beta, _ in found}
    for beta, fw in found:   # grows while it is walked
        for i, pairing in enumerate(fw):
            if pairing and beta[i] >= pairing:
                image = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
                if image not in roots:
                    roots.add(image)
                    found.append((image, tuple([a - pairing * c for a, c in zip(fw, cartan[i])])))
    return found


def _over_common_denominator(num, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, d) with N[i][j] / d = num[i][j] / den and d the least common
    denominator, which is den over its gcd with every entry."""
    g = math.gcd(den, *(x for row in num for x in row))
    return tuple(tuple(x // g for x in row) for row in num), den // g


def _rank_rule(family: str) -> str:
    lo, hi = _RANK_RULES[family]
    return f"rank = {lo}" if hi == lo else f"rank >= {lo}"


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system for a (family, rank) pair that ``_RANK_RULES`` admits."""
    if family not in _RANK_RULES:
        raise ValueError(f"unknown family {family!r}; supported families are "
                         + ", ".join(f"{f} ({_rank_rule(f)})" for f in _RANK_RULES))
    lo, hi = _RANK_RULES[family]
    rank = index(rank)
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"family {family} requires {_rank_rule(family)}; got rank {rank}")

    cartan = _cartan_matrix(family, rank)
    # by height, the simple roots first in index order; alpha_k is row k of cartan
    coeffs, positives_fw = zip(*sorted(_positive_root_coefficients(cartan),
                                       key=lambda root: (sum(root[0]), [-x for x in root[0]])))

    # with long roots at squared length 2 and d_i = (alpha_i, alpha_i) / 2,
    # the Killing sum sum_{alpha>0} (x, alpha)(y, alpha) = h^v (x, y) at
    # x = omega_i, y = omega_k, where (omega_i, alpha) = c_i(alpha) d_i and
    # (omega_i, omega_k) = (A^-1)_ik d_k, gives A^-1 = diag(d) S / h^v for
    # S_ik = sum_{alpha>0} c_i(alpha) c_k(alpha).  So S A = diag(h^v / d_i),
    # and its integer diagonal q fixes every constant: h^v = min q (A is
    # irreducible, so some simple root is long, with d = 1),
    # (A^-1)_ik = S_ik / q_i and K(omega_i, omega_k) = S_ik / (2 q_i q_k).
    # Over lcm_q = lcm(q), with m_i = lcm_q / q_i, they are the integer
    # fractions S_ik m_i / lcm_q and S_ik m_i m_k / (2 lcm_q^2), each reduced once.
    # S is symmetric: its lower triangle is summed and mirrored.
    cols = list(zip(*coeffs))
    lower = [[sum(map(mul, ci, ck)) for ck in cols[:i + 1]] for i, ci in enumerate(cols)]
    killing_sum = [row + [lower[k][i] for k in range(i + 1, rank)] for i, row in enumerate(lower)]
    q = [sum(map(mul, row, col)) for row, col in zip(killing_sum, zip(*cartan))]
    dual_cox = min(q)
    lcm_q = math.lcm(*q)
    m = [lcm_q // qi for qi in q]
    inv_cartan = [[s * mi for s in row] for row, mi in zip(killing_sum, m)]   # over lcm_q
    inv_cartan_num, inv_cartan_den = _over_common_denominator(inv_cartan, lcm_q)
    gram_num, gram_den = _over_common_denominator(
        [[x * mk for x, mk in zip(row, m)] for row in inv_cartan], 2 * lcm_q ** 2)
    return RootSystem(
        family=family,
        rank=rank,
        cartan_matrix=cartan,
        dual_coxeter=dual_cox,
        killing_scale=Fraction(1, 2 * dual_cox),
        positive_roots_fw=positives_fw,
        inverse_cartan_num=inv_cartan_num,
        inverse_cartan_den=inv_cartan_den,
        weight_gram_num=gram_num,
        weight_gram_den=gram_den,
    )


# ---------------------------------------------------------------------------
# weight operations
# ---------------------------------------------------------------------------

def as_weight(rs: RootSystem, coords: Sequence[int]) -> Weight:
    """coords as an integer tuple; a float or Fraction coordinate is a
    TypeError rather than truncated."""
    w = tuple(map(index, coords))
    if len(w) != rs.rank:
        raise ValueError(f"weight {w} has {len(w)} coordinates; {rs.name()} has rank {rs.rank}")
    return w


def rho(rs: RootSystem) -> Weight:
    """The Weyl vector: all fundamental-weight coordinates equal to 1."""
    return (1,) * rs.rank


def is_dominant(rs: RootSystem, x: Sequence[int]) -> bool:
    return min(as_weight(rs, x)) >= 0


def dominant_conjugate(rs: RootSystem, x: Sequence[int]) -> Weight:
    """The unique dominant weight in the Weyl orbit of x."""
    w = as_weight(rs, x)
    cartan = rs.cartan_matrix
    while min(w) < 0:
        i = next(j for j, c in enumerate(w) if c < 0)
        wi = w[i]  # reflect in alpha_{i+1}: subtract w_i times Cartan row i
        w = tuple(a - wi * c for a, c in zip(w, cartan[i]))
    return w


def weyl_orbit(rs: RootSystem, x: Sequence[int]) -> list[Weight]:
    """Full Weyl orbit of x, each weight listed once, the dominant one first.

    Walked as a tree from the orbit's one dominant weight (Humphreys, section
    13.2, Lemma A): a weight w that is not dominant has the parent
    s_j(w) = w + |w_j| alpha_j, j its first negative coordinate, which is
    strictly higher, so every chain of parents ends at the root.  Hence s_i(w)
    is a child of w exactly when w_i > 0 and every coordinate of s_i(w) before
    i is >= 0: each weight is reached once, from its parent, and none is
    built and then discarded.
    """
    start = dominant_conjugate(rs, x)
    rows = [(i, row, row[:i]) for i, row in enumerate(rs.cartan_matrix)]
    orbit = [start]
    for w in orbit:   # grows while it is walked
        for i, row, head in rows:
            wi = w[i]
            if wi > 0:
                for a, c in zip(w, head):
                    if a < wi * c:   # coordinate of s_i(w) before i is negative
                        break
                else:
                    orbit.append(tuple([a - wi * c for a, c in zip(w, row)]))
    return orbit


def is_nonneg_root_combination(rs: RootSystem, x: Sequence[int]) -> bool:
    """True iff x is a nonnegative *integer* combination of simple roots."""
    x = as_weight(rs, x)
    num, den = rs.inverse_cartan_num, rs.inverse_cartan_den
    coeffs = (sum(x[i] * num[i][j] for i in range(rs.rank)) for j in range(rs.rank))
    return all(c >= 0 and c % den == 0 for c in coeffs)
