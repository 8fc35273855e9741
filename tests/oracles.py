"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: positive roots are
regenerated by reflection closure instead of the explicit family tables,
weight multiplicities come from decomposing tensor powers of fundamental
characters generated from the orthogonal models (exterior powers of the
vector representation, spin representations, the G2 short roots and
adjoint) instead of the Freudenthal recursion, the dominant weights of an
irreducible come from walking all of its weights instead of only the
dominant ones, dominant multiplicities come from Freudenthal's recursion
summed over every positive root in ``Fraction`` forms instead of once per
stabilizer orbit in integers, Weyl dimensions from the ``Fraction`` form
over the roots instead of integer coroots, the first
positive eigenvalue comes from a full scan of the candidates instead of
stopping at the first hit, and Hermite
inner products come from floating-point Gauss-Hermite quadrature instead
of the exact Fock-space tables.  Gaussian rationals are checked against a
pair of ``Fraction`` parts, the one-pass Fock ladder against one ladder
per direction, and ``fock.add`` and ``fock.scale`` against sums in plain
dicts.  Simple-root coefficients and the dual Killing form are recomputed
from the orthogonal simple roots, with the dual Coxeter number taken from
the trace of the Killing form over the roots, instead of from the integer
Cartan data; the program's own inverse Cartan numerators are read back as
simple-root coefficients so they can be checked against that model.  The
ground and first positive rows of the B_n and C_n vacuum spectra come in
closed form from the trivial and vector representations and
Lambda^2 C^{2n}, not from a spectrum computation.  The dual Killing form
and the simple reflections, which no program path needs, live here and
read the program's Gram numerators and Cartan rows; ``dot_dominant``
reflects a rho-shifted weight into the dominant chamber with its sign, for
the character decomposition and the Brauer-Klimyk rule.  Coroots are read
off their roots as alpha / d_alpha instead of closing the simple coroots
under reflections.  The CP^1 ladder blocks, which the program holds as
integer pairs for the scalar c of c * I at a fixed scale, are rebuilt as
explicit matrices of their true shapes (0 x n into a missing neighbour
block) over Gaussian rationals, with their own root-vector normalization,
the sl(2) entries read off explicit irrep matrices built from the action on
binary forms instead of the program's integer bands, and the Casimir from
their matrix products and sums; ranks come from exact row reduction, and
the SU(2)-invariant norms on V_gamma come from their product formula.  The
scalar-matrix helpers (c * I and reading c back) live here, since no
program path builds a c * I, and so does ``Mat``, the shaped sparse matrix
they and the ranks work on: the Fock operators hold plain entry dicts,
which ``as_scalar_identity`` wraps with the shape of their level.
``CountingRow`` stands in for a
Cartan row in the work gates that count the entries a path reads.  The
surface index comes from Riemann-Roch on the summand's line bundle, its
degree read off the A1 spinor weight, instead of the closed form.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, product
from numbers import Rational
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import hermite as nph

from symdol import cp1, fock
from symdol.flagspec import spinor_weight
from symdol.gaussian import GaussianRational, ZERO, gq, gq_str
from symdol.reps import _dominant_walk, dominant_weights_with_norm_bound, weight_multiplicity
from symdol.rootsys import (
    RootSystem,
    Weight,
    as_weight,
    build_root_system,
    dominant_conjugate,
    is_nonneg_root_combination,
    rho,
)

# ---------------------------------------------------------------------------
# work counters
# ---------------------------------------------------------------------------

class CountingRow:
    """A Cartan row that counts every entry it hands out, by index, by slice
    or by iteration; it is no tuple, so no read can bypass the count."""

    def __init__(self, entries, reads):
        self._entries = tuple(entries)
        self._reads = reads

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, key):
        got = self._entries[key]
        self._reads[0] += len(got) if isinstance(key, slice) else 1
        return got

    def __iter__(self):
        for x in self._entries:
            self._reads[0] += 1
            yield x


# ---------------------------------------------------------------------------
# the dual Killing form and simple reflections, read off the program's
# Gram numerators and Cartan rows
# ---------------------------------------------------------------------------

def killing_dual_form(rs: RootSystem, x: Sequence, y: Sequence) -> Fraction:
    """K(x, y) on weights, for x, y in fundamental-weight coordinates.

    Coordinates may be integers or exact rationals; the package itself only
    passes integer weights, and rationals stay for library callers.  The sum
    runs over the integer Gram numerators, so integer inputs build one
    Fraction at the end.
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


# ---------------------------------------------------------------------------
# positive roots by reflection closure
# ---------------------------------------------------------------------------

def positive_roots_by_reflection(rs: RootSystem) -> set[tuple[int, ...]]:
    """Close the simple roots under all simple reflections; keep the positives."""
    simples = {rs.cartan_matrix[i] for i in range(rs.rank)}  # alpha_i = row i
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        nxt = set()
        for root in frontier:
            for i in range(1, rs.rank + 1):
                image = simple_reflection(rs, i, root)
                if image not in roots:
                    roots.add(image)
                    nxt.add(image)
        frontier = nxt
    return {r for r in roots if is_nonneg_root_combination(rs, r)}


# ---------------------------------------------------------------------------
# coroots read off the roots
# ---------------------------------------------------------------------------

def coroots_read_off_roots(rs: RootSystem) -> list[tuple[int, ...]]:
    """Simple-coroot coefficients of every positive coroot, read off its root.

    alpha^v = 2 alpha / (alpha, alpha) = alpha / d_alpha, so the coroot's
    coefficients are c^v_i = c_i d_i / d_alpha, with
    d_alpha = (1/2) sum_i c_i d_i <alpha, alpha_i^v> (Bourbaki, Lie groups and
    Lie algebras, ch. VI section 1.1).  d_i = (alpha_i, alpha_i) / 2 comes
    from the orthogonal simple roots (any common scale cancels), c_i from the
    program's inverse Cartan numerators, and <alpha, alpha_i^v> is the root's
    fundamental-weight coordinate i; there is no closure.  All in integers,
    every division checked exact.
    """
    half = [_dot(a, a) for a in _orthogonal_simple_roots(rs.family, rs.rank)]
    cols = list(zip(*rs.inverse_cartan_num))
    coroots = []
    for root in rs.positive_roots_fw:
        c, rest = zip(*(divmod(_dot(root, col), rs.inverse_cartan_den) for col in cols))
        weighted = [ci * di for ci, di in zip(c, half)]
        coroot = [divmod(2 * w, _dot(weighted, root)) for w in weighted]
        assert not any(rest) and not any(r for _, r in coroot), (rs.name(), root)
        coroots.append(tuple(q for q, _ in coroot))
    return coroots


# ---------------------------------------------------------------------------
# tensor-product character oracle
# ---------------------------------------------------------------------------

# weight multisets of the fundamental representations of A1, A2 and B2,
# hand-checked; the generated characters must reproduce them
FUNDAMENTAL_CHARS = {
    ("A", 1): [
        {(1,): 1, (-1,): 1},
    ],
    ("A", 2): [
        {(1, 0): 1, (-1, 1): 1, (0, -1): 1},
        {(0, 1): 1, (1, -1): 1, (-1, 0): 1},
    ],
    ("B", 2): [
        {(1, 0): 1, (-1, 2): 1, (0, 0): 1, (1, -2): 1, (-1, 0): 1},
        {(0, 1): 1, (1, -1): 1, (-1, 1): 1, (0, -1): 1},
    ],
}

_IRREP_MEMO: dict[tuple[str, int, tuple[int, ...]], dict] = {}
_FUNDAMENTAL_MEMO: dict[tuple[str, int], list[Counter]] = {}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _orthogonal_simple_roots(family: str, rank: int) -> list[tuple[int, ...]]:
    """The standard simple roots in orthogonal coordinates, written out here
    rather than read from the root-system tables."""
    if family == "G":
        return [(1, -1, 0), (-2, 1, 1)]
    amb = rank + 1 if family == "A" else rank

    def e(*entries):  # sum of c * e_i over the (i, c) pairs given
        v = [0] * amb
        for i, c in entries:
            v[i] += c
        return tuple(v)

    last = {
        "A": [(rank - 1, 1), (rank, -1)],
        "B": [(rank - 1, 1)],
        "C": [(rank - 1, 2)],
        "D": [(rank - 2, 1), (rank - 1, 1)],
    }[family]
    return [e((i, 1), (i + 1, -1)) for i in range(rank - 1)] + [e(*last)]


def _exterior_power(weights: list, k: int) -> list:
    """Weights of the k-th exterior power of the module with one basis
    vector of each listed weight."""
    return [tuple(map(sum, zip(*combo))) for combo in combinations(weights, k)]


def fundamental_characters(family: str, rank: int) -> list[Counter]:
    """Characters with highest weights omega_1, ..., omega_rank, in
    fundamental-weight coordinates, built from the orthogonal models.

    omega_k is the exterior power of the vector representation: for A_n
    (all k), B_n (k < n), C_n (all k; reducible for k >= 2, but its highest
    weight omega_k occurs once) and D_n (k <= n-2).  omega_n of B_n is the
    spin representation (+-1/2, ..., +-1/2); for D_n the spin weights split
    by the parity of their minus signs, odd for omega_{n-1} and even for
    omega_n.  For G2, omega_1 is the 7-dimensional representation (short
    roots and 0) and omega_2 the adjoint (all roots and 0 twice).
    """
    key = (family, rank)
    if key in _FUNDAMENTAL_MEMO:
        return _FUNDAMENTAL_MEMO[key]
    simples = _orthogonal_simple_roots(family, rank)
    if family == "G":
        zero = (0, 0, 0)
        roots = [v for v in product(range(-2, 3), repeat=3) if sum(v) == 0 and _dot(v, v) in (2, 6)]
        short = [v for v in roots if _dot(v, v) == 2]
        chars = [short + [zero], roots + [zero, zero]]
    else:
        amb = rank + 1 if family == "A" else rank
        units = [tuple(int(i == j) for j in range(amb)) for i in range(amb)]
        vector = units
        if family != "A":
            vector = units + [tuple(-c for c in u) for u in units]
        if family == "B":
            vector.append((0,) * amb)
        chars = [_exterior_power(vector, k) for k in range(1, rank + 1)]
        half = Fraction(1, 2)
        spin = list(product((half, -half), repeat=rank))
        if family == "B":
            chars[rank - 1] = spin
        if family == "D":
            odd = [w for w in spin if sum(c < 0 for c in w) % 2]
            chars[rank - 2] = odd
            chars[rank - 1] = [w for w in spin if w not in odd]
    out = []
    for char in chars:
        fw: Counter = Counter()
        for w in char:
            coords = [Fraction(2 * _dot(w, s), _dot(s, s)) for s in simples]
            assert all(c.denominator == 1 for c in coords), (family, rank, w)
            fw[tuple(int(c) for c in coords)] += 1
        out.append(fw)
    _FUNDAMENTAL_MEMO[key] = out
    return out


def _convolve(a: Counter, b: dict) -> Counter:
    out: Counter = Counter()
    for wa, ma in a.items():
        for wb, mb in b.items():
            out[tuple(x + y for x, y in zip(wa, wb))] += ma * mb
    return out


def tensor_character(rs: RootSystem, gamma: tuple[int, ...]) -> Counter:
    """Weight multiset of the tensor product of fundamentals prescribed by gamma."""
    fund = fundamental_characters(rs.family, rs.rank)
    char: Counter = Counter({(0,) * rs.rank: 1})
    for i, power in enumerate(gamma):
        for _ in range(power):
            char = _convolve(char, fund[i])
    return char


def dot_dominant(rs: RootSystem, w) -> tuple[int, Weight]:
    """(det(sigma), sigma(w + rho) - rho) for the Weyl element sigma making
    w + rho dominant, reached one simple reflection at a time; the sign is 0
    when w + rho lies on a chamber wall."""
    x = tuple(a + b for a, b in zip(w, rho(rs)))
    sign = 1
    while True:
        if any(c == 0 for c in x):
            return 0, w
        i = next((j for j, c in enumerate(x) if c < 0), None)
        if i is None:
            return sign, tuple(a - b for a, b in zip(x, rho(rs)))
        x = simple_reflection(rs, i + 1, x)
        sign = -sign


def decompose_character(rs: RootSystem, char: Counter) -> Counter:
    """Constituent multiplicities of a character, by the signed rho-shift:
    each weight w contributes det(sigma) to the constituent at
    sigma(w + rho) - rho, and weights whose shift lands on a chamber wall
    cancel out."""
    out: Counter = Counter()
    for w, m in char.items():
        sign, top = dot_dominant(rs, w)
        if sign:
            out[top] += sign * m
    out = Counter({w: m for w, m in out.items() if m})
    assert all(m > 0 for m in out.values()), "character failed to decompose"
    return out


def oracle_weight_system(rs: RootSystem, gamma: tuple[int, ...]) -> dict:
    """Character of the irreducible with highest weight gamma: decompose the
    tensor character and subtract every lower constituent, recursively."""
    key = (rs.family, rs.rank, tuple(gamma))
    if key in _IRREP_MEMO:
        return dict(_IRREP_MEMO[key])
    remaining = tensor_character(rs, tuple(gamma))
    constituents = decompose_character(rs, remaining)
    assert constituents[tuple(gamma)] == 1, "highest weight must appear once"
    for w, count in constituents.items():
        if w == tuple(gamma):
            continue
        sub = oracle_weight_system(rs, w)
        for sw, sm in sub.items():
            remaining[sw] -= count * sm
    result = {w: m for w, m in remaining.items() if m}
    assert all(m > 0 for m in result.values())
    _IRREP_MEMO[key] = result
    return dict(result)


# ---------------------------------------------------------------------------
# simple-root coefficients and the dual Killing form, from the orthogonal model
# ---------------------------------------------------------------------------

_ORTHOGONAL_MEMO: dict[tuple[str, int], tuple[list, list]] = {}


def _fraction_inverse(matrix) -> list[list[Fraction]]:
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def _orthogonal_roots(simples: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every root: the simple roots closed under their own reflections."""
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for a in simples:
                k = Fraction(2 * _dot(v, a), _dot(a, a))
                assert k.denominator == 1
                image = tuple(x - int(k) * y for x, y in zip(v, a))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return roots


def dual_coxeter_by_killing_trace(family: str, rank: int) -> Fraction:
    """h^v from the roots of the orthogonal model: with the form normalized
    so long roots have squared length 2, sum over all roots of (alpha, v)^2
    equals 2 h^v (v, v) for every v (the Killing form is 2 h^v times it)."""
    simples = _orthogonal_simple_roots(family, rank)
    long = max(_dot(a, a) for a in simples)
    v = simples[0]
    total = sum(_dot(r, v) ** 2 for r in _orthogonal_roots(simples))
    return Fraction(total, long * _dot(v, v))


def _orthogonal_weight_data(family: str, rank: int) -> tuple[list, list]:
    """(M, G): omega_i = sum_k M[i][k] alpha_k, and G[i][j] = K(omega_i, omega_j).

    (omega_i, alpha_j) = delta_ij (alpha_j, alpha_j) / 2 fixes M from the
    Gram matrix of the orthogonal simple roots; the fundamental weights are
    then built as orthogonal vectors and their plain dot products rescaled
    to long roots at squared length 2 and divided by 2 h^v."""
    key = (family, rank)
    if key not in _ORTHOGONAL_MEMO:
        simples = _orthogonal_simple_roots(family, rank)
        gram = [[_dot(a, b) for b in simples] for a in simples]
        coeffs = [[Fraction(gram[i][i], 2) * x for x in row]
                  for i, row in enumerate(_fraction_inverse(gram))]
        omegas = [[sum(c * a[m] for c, a in zip(row, simples)) for m in range(len(simples[0]))]
                  for row in coeffs]
        long = max(gram[i][i] for i in range(rank))
        scale = Fraction(2, long) / (2 * dual_coxeter_by_killing_trace(family, rank))
        form = [[scale * _dot(u, w) for w in omegas] for u in omegas]
        _ORTHOGONAL_MEMO[key] = (coeffs, form)
    return _ORTHOGONAL_MEMO[key]


def root_lattice_coefficients(rs: RootSystem, x) -> tuple[Fraction, ...]:
    """Coefficients c with x = sum_j c_j alpha_j (x in fundamental coords),
    read from the program's own integer inverse Cartan data, so that data
    can be checked against root_coefficients_by_orthogonal."""
    num, den = rs.inverse_cartan_num, rs.inverse_cartan_den
    return tuple(Fraction(sum(x[i] * num[i][j] for i in range(rs.rank)), den)
                 for j in range(rs.rank))


def root_coefficients_by_orthogonal(rs: RootSystem, x) -> tuple[Fraction, ...]:
    """Coefficients c with x = sum_k c_k alpha_k, x in fundamental coordinates."""
    coeffs, _ = _orthogonal_weight_data(rs.family, rs.rank)
    return tuple(sum((Fraction(xi) * row[k] for xi, row in zip(x, coeffs)), Fraction(0))
                 for k in range(rs.rank))


def killing_form_by_orthogonal(rs: RootSystem, x, y) -> Fraction:
    """K(x, y) for x, y in fundamental coordinates."""
    _, form = _orthogonal_weight_data(rs.family, rs.rank)
    return sum((Fraction(xi) * Fraction(yj) * form[i][j]
                for i, xi in enumerate(x) for j, yj in enumerate(y)), Fraction(0))


# ---------------------------------------------------------------------------
# dominant weights by walking every weight
# ---------------------------------------------------------------------------

def dominant_heights_by_all_weights_walk(rs: RootSystem, gamma: tuple[int, ...]) -> dict:
    """{mu: height of gamma - mu} over the dominant weights mu of V_gamma.

    Walks every weight of V_gamma down from gamma one simple root at a time
    (weight diagrams are connected under such steps); a candidate is a
    weight iff gamma minus its dominant conjugate is a nonnegative integer
    combination of simple roots.  It visits every weight, so it does not
    rest on Stembridge's theorem as the dominant-step walk does.
    """
    simples = rs.positive_roots_fw[:rs.rank]
    heights = {gamma: 0}
    seen = {gamma}
    frontier = [gamma]
    height = 0
    while frontier:
        height += 1
        nxt = []
        for w in frontier:
            for a in simples:
                cand = tuple(x - y for x, y in zip(w, a))
                if cand in seen:
                    continue
                dom = dominant_conjugate(rs, cand)
                if not is_nonneg_root_combination(rs, tuple(x - y for x, y in zip(gamma, dom))):
                    continue
                seen.add(cand)
                nxt.append(cand)
                if cand == dom:
                    heights[cand] = height
        frontier = nxt
    return heights


# ---------------------------------------------------------------------------
# Freudenthal over every positive root, and the Weyl dimension, in Fractions
# ---------------------------------------------------------------------------

def _fraction_rho_norm(rs: RootSystem):
    r = rho(rs)

    def norm(w):
        t = tuple(a + b for a, b in zip(w, r))
        return killing_dual_form(rs, t, t)

    return norm


def dominant_multiplicities_by_all_roots(rs: RootSystem, gamma: tuple[int, ...]) -> dict:
    """{mu: multiplicity} over the dominant weights of V_gamma, by Freudenthal's
    recursion summed over every positive root with ``Fraction`` forms.

    The dominant weights come in increasing Freudenthal denominator from the
    program's down-walk (checked on its own against the all-weights walk);
    each root string runs up from mu to its first gap.  No stabilizer
    grouping and no integer numerators.
    """
    norm = _fraction_rho_norm(rs)
    top = norm(gamma)
    roots = rs.positive_roots_fw
    walk = _dominant_walk(gamma, [tuple(-x for x in alpha) for alpha in roots],
                          lambda mu: top - norm(mu))
    next(walk)
    mults = {gamma: 1}
    for denom, mu in walk:
        acc = Fraction(0)
        for alpha in roots:
            nu = tuple(x + y for x, y in zip(mu, alpha))
            while m := mults.get(dominant_conjugate(rs, nu), 0):
                acc += m * killing_dual_form(rs, nu, alpha)
                nu = tuple(x + y for x, y in zip(nu, alpha))
        value = 2 * acc / denom
        assert value.denominator == 1 and value > 0, (mu, value)
        mults[mu] = int(value)
    return mults


def weyl_dimension_by_killing_form(rs: RootSystem, gamma: tuple[int, ...]) -> int:
    """prod_{alpha>0} K(gamma+rho, alpha) / K(rho, alpha) over the roots, in Fractions."""
    r = rho(rs)
    top = tuple(a + b for a, b in zip(gamma, r))
    result = Fraction(1)
    for alpha in rs.positive_roots_fw:
        result *= killing_dual_form(rs, top, alpha) / killing_dual_form(rs, r, alpha)
    assert result.denominator == 1, result
    return int(result)


# ---------------------------------------------------------------------------
# first positive eigenvalue by full scan
# ---------------------------------------------------------------------------

def first_positive_eigenvalue_by_scan(rs: RootSystem, mu: tuple[int, ...]) -> Fraction:
    """Minimum of lambda_gamma = K(gamma+rho) - K(mu+rho) over every candidate
    gamma != mu with nonzero weight_multiplicity(gamma, mu); the norm bound
    doubles until some candidate has mu as a weight."""
    r = rho(rs)

    def norm(w):
        t = tuple(a + b for a, b in zip(w, r))
        return killing_dual_form(rs, t, t)

    base = norm(mu)
    bound = 2 * base + 1
    while True:
        lams = [norm(g) - base for g in dominant_weights_with_norm_bound(rs, bound)
                if g != mu and weight_multiplicity(rs, g, mu) > 0]
        if lams:
            return min(lams)
        bound *= 2


# ---------------------------------------------------------------------------
# the first positive rows of the B_n and C_n vacuum spectra in closed form
# ---------------------------------------------------------------------------

def ground_row(n: int) -> tuple[Fraction, tuple[int, ...], int, int]:
    """(eigenvalue, gamma, weight multiplicity of 0, dim V_gamma) of the ground
    row of every mu = 0 spectrum of rank n: the trivial representation at
    lambda 0."""
    return Fraction(0), (0,) * n, 1, 1


def b_first_positive_row(n: int) -> tuple[Fraction, tuple[int, ...], int, int]:
    """(eigenvalue, gamma, weight multiplicity of 0, dim V_gamma) of the first
    positive mu = 0 row of B_n, n >= 3: gamma = omega_1 alone, the vector
    representation C^{2n+1}, with simple zero weight and
    lambda = K(omega_1, omega_1 + 2 rho) = 2n / (2 h^v) = n/(2n-1)."""
    return Fraction(n, 2 * n - 1), (1,) + (0,) * (n - 1), 1, 2 * n + 1


def c_first_positive_row(n: int) -> tuple[Fraction, tuple[int, ...], int, int]:
    """The same for C_n, n >= 2: gamma = omega_2 alone.  Lambda^2 C^{2n} is
    V_{omega_2} plus the trivial line and has zero weight n times, so
    V_{omega_2} has it n-1 times in dimension n(2n-1) - 1; with long roots
    2 e_i at squared length 2, lambda = (1/2)(4n) / (2 h^v) = n/(n+1)."""
    return Fraction(n, n + 1), (0, 1) + (0,) * (n - 2), n - 1, n * (2 * n - 1) - 1


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature oracle (float)
# ---------------------------------------------------------------------------

_QUAD_NODES = 64


def _hermite_function_inner(c1: np.ndarray, c2: np.ndarray) -> float:
    """integral of (p1 e^{-t^2/2})(p2 e^{-t^2/2}) with p_i in the physicists'
    Hermite basis, by Gauss-Hermite quadrature (exact to machine precision
    for the degrees used here)."""
    x, w = nph.hermgauss(_QUAD_NODES)
    return float(np.sum(w * nph.hermval(x, c1) * nph.hermval(x, c2)))


def hermite_coefficients(m: int) -> np.ndarray:
    """h_m in the basis {H_k e^{-t^2/2}}: h_m = (-1)^m H_m e^{-t^2/2}."""
    c = np.zeros(m + 1)
    c[m] = (-1.0) ** m
    return c


def hermite_quadrature_oracle(m: int, mp: int) -> float:
    """Numerical integral of h_m h_mp over R.

    On the diagonal this is sqrt(pi) * 2^m * m!, factorial included.
    """
    if not (0 <= m <= 12 and 0 <= mp <= 12):
        raise ValueError("oracle supports 0 <= m, m' <= 12")
    return _hermite_function_inner(hermite_coefficients(m), hermite_coefficients(mp))


# ---------------------------------------------------------------------------
# Gaussian rationals as a pair of Fractions
# ---------------------------------------------------------------------------

class FractionPairGaussian:
    """re + im*i held as two Fractions, normalized by Fraction itself."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPairGaussian is immutable")

    @staticmethod
    def coerce(value) -> "FractionPairGaussian":
        if isinstance(value, FractionPairGaussian):
            return value
        if isinstance(value, (int, Fraction, Rational)):
            return FractionPairGaussian(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other):
        other = self.coerce(other)
        return FractionPairGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.coerce(other)
        return FractionPairGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self.coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self.coerce(other)
        return FractionPairGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionPairGaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return self.coerce(other).__truediv__(self)

    def __neg__(self):
        return FractionPairGaussian(-self.re, -self.im)

    def conjugate(self) -> "FractionPairGaussian":
        return FractionPairGaussian(self.re, -self.im)

    def __eq__(self, other):
        try:
            other = self.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_real(self) -> bool:
        return self.im == 0

    def text(self) -> str:
        """The canonical ``p/q`` text form, e.g. ``-1/2+3i`` or ``2/3``."""
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


# ---------------------------------------------------------------------------
# Fock ladder, one direction at a time
# ---------------------------------------------------------------------------

def _accumulate(out: dict, beta, c) -> None:
    """out[beta] += c in a plain dict, dropping the key when the sum is zero."""
    total = out.pop(beta, 0) + c
    if total:
        out[beta] = total


def add_by_dict(v: fock.FockVector, w: fock.FockVector) -> dict:
    """The terms of v + w, summed key by key."""
    out = {}
    for terms in (v.terms, w.terms):
        for beta, c in terms.items():
            _accumulate(out, beta, c)
    return out


def scale_by_dict(c, v: fock.FockVector) -> dict:
    """The terms of c * v, multiplied key by key."""
    out = {}
    for beta, x in v.terms.items():
        _accumulate(out, beta, GaussianRational.coerce(c) * x)
    return out


def sigma_raise_by_direction(j: int, v: fock.FockVector) -> fock.FockVector:
    """sigma(Z_j): h_beta -> -(i/2) h_{beta + e_j}, term by term."""
    out = {}
    for beta, c in v.terms.items():
        up = tuple(b + 1 if k == j - 1 else b for k, b in enumerate(beta))
        _accumulate(out, up, gq(0, Fraction(-1, 2)) * c)
    return fock.FockVector(v.n, out)


def sigma_lower_by_direction(j: int, v: fock.FockVector) -> fock.FockVector:
    """sigma(Zbar_j): h_beta -> -i beta_j h_{beta - e_j}, term by term."""
    out = {}
    for beta, c in v.terms.items():
        if beta[j - 1]:
            down = tuple(b - 1 if k == j - 1 else b for k, b in enumerate(beta))
            _accumulate(out, down, gq(0, -beta[j - 1]) * c)
    return fock.FockVector(v.n, out)


def sigma_complex_by_composition(z_coeffs, zbar_coeffs, v: fock.FockVector) -> fock.FockVector:
    """sigma of sum_j (z_coeffs[j] Z_j + zbar_coeffs[j] Zbar_j) as a sum of
    scaled single-direction ladders."""
    out = {}
    for j in range(1, v.n + 1):
        for coeff, ladder in ((z_coeffs[j - 1], sigma_raise_by_direction),
                              (zbar_coeffs[j - 1], sigma_lower_by_direction)):
            for beta, c in ladder(j, v).terms.items():
                _accumulate(out, beta, coeff * c)
    return fock.FockVector(v.n, out)


# ---------------------------------------------------------------------------
# explicit matrices: from dense rows, and scalar multiples of the identity
# ---------------------------------------------------------------------------

class Mat(Mapping):
    """An nrows x ncols matrix given by its nonzero entries, keyed (row, col).

    No zero is stored, so two matrices are equal exactly when their shapes
    and entries are.  Read-only and unhashable; the entries are read through
    the Mapping interface (``m.get((i, j), ZERO)``, ``m.items()``, ``len(m)``).
    """

    __slots__ = ("nrows", "ncols", "entries")
    nrows: int
    ncols: int
    entries: Mapping[tuple[int, int], GaussianRational]

    def __init__(self, nrows: int, ncols: int,
                 entries: Mapping[tuple[int, int], GaussianRational]):
        for (i, j), value in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
            if not value:
                raise ValueError(f"zero stored at ({i}, {j})")
        setattr_ = object.__setattr__
        setattr_(self, "nrows", nrows)
        setattr_(self, "ncols", ncols)
        setattr_(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Mat")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a Mat")

    def __reduce__(self):
        return Mat, (self.nrows, self.ncols, self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == (other.nrows, other.ncols, other.entries)

    def __repr__(self) -> str:
        return f"Mat(nrows={self.nrows!r}, ncols={self.ncols!r}, entries={self.entries!r})"

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        return self.entries[key]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "Mat") -> "Mat":
        """Matrix product self @ other; inner dimension 0 yields the zero map."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in mat_mul: {self.nrows}x{self.ncols} "
                             f"@ {other.nrows}x{other.ncols}")
        by_row: dict[int, list[tuple[int, GaussianRational]]] = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        out: dict[tuple[int, int], GaussianRational] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                old = out.get((i, j))
                out[i, j] = a * b if old is None else old + a * b
        return Mat(self.nrows, other.ncols, {key: x for key, x in out.items() if x})

    def triplets(self) -> list[list]:
        """The entries as [row, col, "a+bi"], sorted by (row, col)."""
        return [[i, j, gq_str(x)] for (i, j), x in sorted(self.entries.items())]


def mat_from_rows(rows) -> Mat:
    """A Mat from a list of equal-length rows; zeros are skipped before
    coercion, so they are never stored."""
    rows = [tuple(row) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("column count mismatch")
    return Mat(nrows, ncols, {(i, j): GaussianRational.coerce(x) for i, row in enumerate(rows)
                              for j, x in enumerate(row) if x})


def scalar_matrix(n: int, value) -> Mat:
    value = GaussianRational.coerce(value)
    return Mat(n, n, {(i, i): value for i in range(n)} if value else {})


def scalar_identity_value(a: Mat) -> Optional[GaussianRational]:
    """Return c if a == c*I, else None.  0x0 matrices count as 0*I."""
    if a.nrows != a.ncols:
        return None
    c = a.get((0, 0), ZERO)
    return c if a.entries == ({(i, i): c for i in range(a.nrows)} if c else {}) else None


def as_scalar_identity(op: fock.FockOperator) -> Optional[GaussianRational]:
    """Return c when op == c * identity on its (square) level, else None."""
    if op.source_level != op.target_level:
        return None
    dim = fock.dim_level(op.n, op.source_level)
    return scalar_identity_value(Mat(dim, dim, op.matrix))


# ---------------------------------------------------------------------------
# exact ranks and the CP^1 blocks as explicit matrices
# ---------------------------------------------------------------------------

def rank(a: Mat) -> int:
    """Rank by exact row reduction: each row is reduced against the pivot
    rows found so far until it is zero or leads in a new pivot column."""
    rows: dict[int, dict[int, GaussianRational]] = {}
    for (i, j), x in a.entries.items():
        rows.setdefault(i, {})[j] = x
    pivots: dict[int, dict[int, GaussianRational]] = {}    # leading column -> row
    for row in rows.values():
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            factor = row[col] / pivot[col]
            for c, x in pivot.items():
                new = row.get(c, ZERO) - factor * x
                if new:
                    row[c] = new
                else:
                    del row[c]
    return len(pivots)


def mat_add(a: Mat, b: Mat) -> Mat:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch in mat_add")
    out = dict(a.entries)
    for key, x in b.entries.items():
        old = out.get(key)
        out[key] = x if old is None else old + x
    return Mat(a.nrows, a.ncols, {key: x for key, x in out.items() if x})


def mat_scale(a: Mat, c) -> Mat:
    c = GaussianRational.coerce(c)
    return Mat(a.nrows, a.ncols, {key: c * x for key, x in a.entries.items()} if c else {})


def mat_sub(a: Mat, b: Mat) -> Mat:
    return mat_add(a, mat_scale(b, -1))


mat_mul = Mat.__matmul__


def kernel_dimension(a: Mat) -> int:
    return a.ncols - rank(a)


def invariant_weight_norms(gamma: int) -> tuple[Fraction, ...]:
    """Squared norms of v_0, ..., v_gamma for the SU(2)-invariant pairing
    normalized by |v_0|^2 = 1 (the pairing making X and Y mutual adjoints)."""
    norms = [Fraction(1)]
    for r in range(gamma):
        norms.append(norms[-1] * (r + 1) * (gamma - r))
    return tuple(norms)


def sl2_irrep_matrices(k: int) -> tuple[Mat, Mat, Mat]:
    """h, X and Y on the (k+1)-dimensional irreducible as explicit matrices:
    x d/dx - y d/dy, x d/dy and y d/dx on the binary forms e_r = x^(k-r) y^r,
    rewritten on the program's weight basis v_r = Y^r x^k = (k!/(k-r)!) e_r."""
    scale = [math.perm(k, r) for r in range(k + 1)]

    def on_v(entries):    # a matrix on the e_r, as a matrix on the v_r
        return Mat(k + 1, k + 1, {(i, j): gq(Fraction(a * scale[j], scale[i]))
                                  for (i, j), a in entries.items() if a})

    h = on_v({(r, r): k - 2 * r for r in range(k + 1)})
    x = on_v({(r - 1, r): r for r in range(1, k + 1)})
    y = on_v({(r + 1, r): k - r for r in range(k)})
    return h, x, y


def sl2_casimir_by_matrices(k: int) -> Mat:
    """-(1/8) h^2 - (1/4)(XY + YX) from the explicit irrep matrices."""
    h, x, y = sl2_irrep_matrices(k)
    return mat_add(mat_scale(h @ h, Fraction(-1, 8)), mat_scale(mat_add(x @ y, y @ x), Fraction(-1, 4)))


def cp1_block_matrices(level: int, gamma: int) -> dict[str, Mat]:
    """D, Dbar, H, Omega and P on block(level, gamma) as explicit matrices of
    their true shapes: D is dim(l-1) x dim(l), Dbar dim(l+1) x dim(l), and a
    missing block has dimension 0 (level -1 and the level above the top of
    the gamma ladder are allowed, and give empty maps).  The root vectors act
    on the right as (1+i)/4 X and (-1+i)/4 Y, with the sl(2) entries from the
    explicit irrep matrices and the fiber coefficients from fock, Omega from
    the irrep matrices' products and P from products of the block matrices."""
    _, x, y = sl2_irrep_matrices(gamma)
    z_alpha, zbar_alpha = gq(Fraction(1, 4), Fraction(1, 4)), gq(Fraction(-1, 4), Fraction(1, 4))

    def dim(l):
        return cp1.block_dim(l, gamma)

    def d(l):     # 4i sigma(Zbar) (x) (1+i)/4 X: v_r -> v_{r-1}
        if not (dim(l) and dim(l - 1)):
            return Mat(dim(l - 1), dim(l), {})
        r = (gamma + 2 * l + 1) // 2    # the weight line gamma - 2r = -(2l+1)
        fiber = fock.sigma_lower(1, fock.basis_vector(1, (l,))).terms[(l - 1,)]
        return scalar_matrix(dim(l), gq(0, 4) * fiber * z_alpha * x[r - 1, r])

    def dbar(l):  # -4i sigma(Z) (x) (-1+i)/4 Y: v_r -> v_{r+1}
        if not (dim(l) and dim(l + 1)):
            return Mat(dim(l + 1), dim(l), {})
        r = (gamma + 2 * l + 1) // 2    # the weight line gamma - 2r = -(2l+1)
        fiber = fock.sigma_raise(1, fock.basis_vector(1, (l,))).terms[(l + 1,)]
        return scalar_matrix(dim(l), gq(0, -4) * fiber * zbar_alpha * y[r + 1, r])

    p = mat_scale(mat_sub(d(level + 1) @ dbar(level), dbar(level - 1) @ d(level)), Fraction(1, 2))
    return {
        "d": d(level),
        "dbar": dbar(level),
        "h": scalar_matrix(dim(level), Fraction(-(2 * level + 1), 2)),
        "omega": sl2_casimir_by_matrices(gamma) if dim(level) else Mat(0, 0, {}),
        "p": p,
    }


# ---------------------------------------------------------------------------
# the surface index by Riemann-Roch
# ---------------------------------------------------------------------------

def index_by_riemann_roch(genus: int, level: int, kind: str) -> int:
    """The index of the level-l summand on a genus-g surface, deg + 1 - g.

    h_l has the A1 spinor weight (2l+1,), rho + l alpha, so the metaplectic
    summand is K^{-(2l+1)/2}, of degree (2l+1)(1-g); the Fock summand differs
    from it by one K^{1/2}, of degree g-1.
    """
    (weight,) = spinor_weight(build_root_system("A", 1), (level,))
    degree = weight * (1 - genus) + {"metaplectic": 0, "fock": genus - 1}[kind]
    return degree + 1 - genus
