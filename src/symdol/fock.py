"""Exact truncated model of canonical quantization on Hermite products.

Basis elements are products h_{beta_1}(x_1) ... h_{beta_n}(x_n) of the
(unnormalized) Hermite functions h_m(t) = e^{t^2/2} (d/dt)^m e^{-t^2},
indexed by multi-indices beta; the level l = |beta| grades everything.
The ladder conventions are

    sigma(Z_j)    : h_beta -> -(i/2)    h_{beta + e_j}
    sigma(Zbar_j) : h_beta -> -i beta_j h_{beta - e_j}
    sigma(a_j) = sigma(Z_j) + sigma(Zbar_j)
    sigma(b_j) = i (sigma(Z_j) - sigma(Zbar_j))
    H_0: h_beta -> -(|beta| + n/2) h_beta,

so [sigma(u), sigma(w)] = -i omega_0(u, w) on the symplectic basis
{a_1, b_1, ..., a_n, b_n}.  The inner product uses

    <h_beta, h_beta> = 2^{l-1} * prod_j beta_j!

which carries the factorial forced by adjointness (sigma(Z)* = -sigma(Zbar));
normalizations omitting the factorial fail that relation, as the
Gauss-Hermite quadrature oracle in the test suite confirms via
integral(h_m^2) = sqrt(pi) 2^m m!.

Coefficients are exact Gaussian rationals; there is no floating-point code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Optional, Sequence

from .gaussian import GaussianRational, ZERO, gq, gq_str

FockIndex = tuple[int, ...]


def dim_level(n: int, l: int) -> int:
    """dim E_l = binomial(n + l - 1, l)."""
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
    return math.comb(n + l - 1, l)


def level_indices(n: int, l: int) -> list[FockIndex]:
    """All multi-indices of length n and total l, lexicographically sorted."""
    out = []
    for cuts in combinations(range(l + n - 1), n - 1):
        beta, prev = [], 0
        for c in cuts:
            beta.append(c - prev)
            prev = c + 1
        beta.append(l + n - 1 - prev)
        out.append(tuple(beta))
    return sorted(out)


@dataclass(frozen=True)
class FockVector:
    """Exact finite linear combination of Hermite basis elements."""

    n: int
    terms: Mapping[FockIndex, GaussianRational]

    def is_zero(self) -> bool:
        return not self.terms


def zero_vector(n: int) -> FockVector:
    return FockVector(n, {})


def basis_vector(n: int, beta: Sequence[int]) -> FockVector:
    beta = tuple(int(b) for b in beta)
    if len(beta) != n or any(b < 0 for b in beta):
        raise ValueError(f"bad multi-index {beta} for n={n}")
    return FockVector(n, {beta: gq(1)})


def _combine(n: int, parts: list[tuple[FockIndex, GaussianRational]]) -> FockVector:
    acc: dict[FockIndex, GaussianRational] = {}
    for beta, coeff in parts:
        if not coeff:
            continue
        new = acc.get(beta, ZERO) + coeff
        if new:
            acc[beta] = new
        else:
            acc.pop(beta, None)
    return FockVector(n, acc)


def add(v: FockVector, w: FockVector) -> FockVector:
    if v.n != w.n:
        raise ValueError("dimension mismatch")
    return _combine(v.n, list(v.terms.items()) + list(w.terms.items()))


def scale(c, v: FockVector) -> FockVector:
    c = GaussianRational.coerce(c)
    return _combine(v.n, [(b, c * x) for b, x in v.terms.items()])


def _check_direction(n: int, j: int):
    if not 1 <= j <= n:
        raise ValueError(f"direction {j} out of range 1..{n}")


def sigma_raise(j: int, v: FockVector) -> FockVector:
    """sigma(Z_j): raises level by one with coefficient -i/2."""
    _check_direction(v.n, j)
    coeff = gq(0, Fraction(-1, 2))
    parts = []
    for beta, c in v.terms.items():
        up = tuple(b + 1 if k == j - 1 else b for k, b in enumerate(beta))
        parts.append((up, coeff * c))
    return _combine(v.n, parts)


def sigma_lower(j: int, v: FockVector) -> FockVector:
    """sigma(Zbar_j): lowers level by one with coefficient -i*beta_j."""
    _check_direction(v.n, j)
    parts = []
    for beta, c in v.terms.items():
        bj = beta[j - 1]
        if bj == 0:
            continue
        down = tuple(b - 1 if k == j - 1 else b for k, b in enumerate(beta))
        parts.append((down, gq(0, -bj) * c))
    return _combine(v.n, parts)


def sigma_real(coeff_a: Sequence, coeff_b: Sequence, v: FockVector) -> FockVector:
    """sigma of the real vector sum_j (coeff_a[j] a_j + coeff_b[j] b_j).

    Rational coefficients only; the result is anti-self-adjoint for the
    inner product below.
    """
    if len(coeff_a) != v.n or len(coeff_b) != v.n:
        raise ValueError("coefficient vectors must have length n")
    zc = [gq(Fraction(a), Fraction(b)) for a, b in zip(coeff_a, coeff_b)]
    zbarc = [gq(Fraction(a), -Fraction(b)) for a, b in zip(coeff_a, coeff_b)]
    return _sigma_complex(zc, zbarc, v)


def _sigma_complex(
    z_coeffs: Sequence[GaussianRational],
    zbar_coeffs: Sequence[GaussianRational],
    v: FockVector,
) -> FockVector:
    """sigma of sum_j (z_coeffs[j] Z_j + zbar_coeffs[j] Zbar_j)."""
    out = zero_vector(v.n)
    for j in range(1, v.n + 1):
        if z_coeffs[j - 1]:
            out = add(out, scale(z_coeffs[j - 1], sigma_raise(j, v)))
        if zbar_coeffs[j - 1]:
            out = add(out, scale(zbar_coeffs[j - 1], sigma_lower(j, v)))
    return out


def h0_apply(v: FockVector) -> FockVector:
    """Harmonic oscillator: h_beta -> -(|beta| + n/2) h_beta."""
    parts = []
    for beta, c in v.terms.items():
        eig = gq(Fraction(-(2 * sum(beta) + v.n), 2))
        parts.append((beta, eig * c))
    return _combine(v.n, parts)


def basis_norm_sq(beta: FockIndex) -> Fraction:
    """<h_beta, h_beta> = 2^{l-1} prod_j beta_j!."""
    l = sum(beta)
    value = Fraction(2) ** (l - 1)
    for b in beta:
        value *= math.factorial(b)
    return value


def inner_product(v: FockVector, w: FockVector) -> GaussianRational:
    """Sesquilinear (conjugate-linear in the second slot), exact."""
    if v.n != w.n:
        raise ValueError("dimension mismatch")
    total = ZERO
    small, big = (v.terms, w.terms) if len(v.terms) <= len(w.terms) else (w.terms, v.terms)
    for beta in small:
        if beta in big:
            total = total + v.terms[beta] * w.terms[beta].conjugate() * basis_norm_sq(beta)
    return total


# ---------------------------------------------------------------------------
# materialized operators between truncation levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockOperator:
    """Sparse exact matrix between two levels (or level-preserving, None)."""

    n: int
    source_level: Optional[int]
    target_level: Optional[int]
    matrix: Mapping[tuple[FockIndex, FockIndex], GaussianRational]  # (target, source)


def operator_from_action(
    n: int,
    source_level: int,
    target_level: int,
    action: Callable[[FockVector], FockVector],
    mode: str = "strict",
) -> FockOperator:
    """Materialize the action on the level basis.

    ``strict`` rejects any output term outside the declared target level;
    ``symbol`` silently truncates such terms away (exact for level-graded
    operators, a projection otherwise).
    """
    if mode not in ("strict", "symbol"):
        raise ValueError(f"unknown truncation mode {mode!r}")
    entries: dict[tuple[FockIndex, FockIndex], GaussianRational] = {}
    for src in level_indices(n, source_level):
        image = action(basis_vector(n, src))
        for beta, coeff in image.terms.items():
            if sum(beta) != target_level:
                if mode == "strict":
                    raise ValueError(
                        f"action maps level {source_level} outside level "
                        f"{target_level} (hit {beta})"
                    )
                continue
            entries[(beta, src)] = coeff
    return FockOperator(n, source_level, target_level, entries)


def compose(second: FockOperator, first: FockOperator) -> FockOperator:
    """second after first (matrix product)."""
    if second.n != first.n or second.source_level != first.target_level:
        raise ValueError("operators are not composable")
    by_source: dict[FockIndex, list[tuple[FockIndex, GaussianRational]]] = {}
    for (tgt, src), c in first.matrix.items():
        by_source.setdefault(src, []).append((tgt, c))
    by_mid: dict[FockIndex, list[tuple[FockIndex, GaussianRational]]] = {}
    for (tgt, mid), c in second.matrix.items():
        by_mid.setdefault(mid, []).append((tgt, c))
    entries: dict[tuple[FockIndex, FockIndex], GaussianRational] = {}
    for src, mids in by_source.items():
        for mid, c1 in mids:
            for tgt, c2 in by_mid.get(mid, ()):
                key = (tgt, src)
                new = entries.get(key, ZERO) + c2 * c1
                if new:
                    entries[key] = new
                else:
                    entries.pop(key, None)
    return FockOperator(first.n, first.source_level, second.target_level, entries)


def h0_operator(n: int, l_max: int) -> FockOperator:
    """H_0 materialized through level l_max, as a level-preserving operator
    (source and target level None, meaning all materialized levels)."""
    entries: dict[tuple[FockIndex, FockIndex], GaussianRational] = {}
    for l in range(l_max + 1):
        eig = gq(Fraction(-(2 * l + n), 2))
        for beta in level_indices(n, l):
            entries[(beta, beta)] = eig
    return FockOperator(n, None, None, entries)


def restrict_to_level(op: FockOperator, source_level: int, target_level: int) -> FockOperator:
    """Slice a level-preserving ("all") operator down to one level pair."""
    if op.source_level is not None or op.target_level is not None:
        raise ValueError("only level-preserving operators can be restricted")
    entries = {
        (tgt, src): c
        for (tgt, src), c in op.matrix.items()
        if sum(src) == source_level and sum(tgt) == target_level
    }
    return FockOperator(op.n, source_level, target_level, entries)


def as_scalar_identity(op: FockOperator) -> Optional[GaussianRational]:
    """Return c when op == c * identity on its (square) level, else None."""
    if op.source_level != op.target_level or op.source_level is None:
        return None
    basis = level_indices(op.n, op.source_level)
    diag = op.matrix.get((basis[0], basis[0]), ZERO)
    for tgt_src, coeff in op.matrix.items():
        if tgt_src[0] != tgt_src[1] and coeff:
            return None
    for b in basis:
        if op.matrix.get((b, b), ZERO) != diag:
            return None
    return diag


def to_json_triplets(op: FockOperator) -> list[list]:
    """Sparse triplets [row, col, "a+bi"] over lex-ordered level bases.

    Level-preserving operators (level None) are enumerated over the indices
    they actually touch, ordered by (level, lex).
    """
    def basis(level, side):
        if level is not None:
            return level_indices(op.n, level)
        touched = {key[side] for key in op.matrix}
        return sorted(touched, key=lambda b: (sum(b), b))

    rows = {b: i for i, b in enumerate(basis(op.target_level, 0))}
    cols = {b: i for i, b in enumerate(basis(op.source_level, 1))}
    out = []
    for (tgt, src), coeff in op.matrix.items():
        out.append([rows[tgt], cols[src], gq_str(coeff)])
    return sorted(out, key=lambda t: (t[0], t[1]))


# ---------------------------------------------------------------------------
# symbol operators (section-level symbols of the Dolbeault pair)
# ---------------------------------------------------------------------------

def _symbol_coefficients(n: int, v: Sequence) -> tuple[list, list]:
    """Z / Zbar coefficients of v -+ i J v for a real coordinate vector v.

    v lists (a_j, b_j) components interleaved: (va_1, vb_1, ..., va_n, vb_n),
    in a unitary basis b_j = J a_j.  Then

        v - iJv = sum_j 2 (va_j + i vb_j) Z_j     (pure raising)
        v + iJv = sum_j 2 (va_j - i vb_j) Zbar_j  (pure lowering).
    """
    if len(v) != 2 * n:
        raise ValueError(f"coordinate vector must have length {2 * n}")
    va = [Fraction(v[2 * j]) for j in range(n)]
    vb = [Fraction(v[2 * j + 1]) for j in range(n)]
    if all(a == 0 for a in va) and all(b == 0 for b in vb):
        raise ValueError("symbol of the zero vector is degenerate")
    raise_coeffs = [gq(2 * a, 2 * b) for a, b in zip(va, vb)]
    lower_coeffs = [gq(2 * a, -2 * b) for a, b in zip(va, vb)]
    return raise_coeffs, lower_coeffs


def metric_norm_sq(n: int, v: Sequence) -> Fraction:
    """g_0(v, v) in the orthonormal unitary frame."""
    if len(v) != 2 * n:
        raise ValueError(f"coordinate vector must have length {2 * n}")
    return sum((Fraction(c) ** 2 for c in v), Fraction(0))


def symbol_raise_operator(n: int, l: int, v: Sequence) -> FockOperator:
    """sigma(v - iJv): E_l -> E_{l+1}."""
    raise_coeffs, _ = _symbol_coefficients(n, v)
    zero = [ZERO] * n
    return operator_from_action(
        n, l, l + 1, lambda vec: _sigma_complex(raise_coeffs, zero, vec)
    )


def symbol_lower_operator(n: int, l: int, v: Sequence) -> FockOperator:
    """sigma(v + iJv): E_l -> E_{l-1} (the zero map out of the vacuum level)."""
    _, lower_coeffs = _symbol_coefficients(n, v)
    zero = [ZERO] * n
    if l == 0:
        # sigma(Zbar) annihilates E_0; keep a level-0 endomorphism shape
        return FockOperator(n, 0, 0, {})
    return operator_from_action(
        n, l, l - 1, lambda vec: _sigma_complex(zero, lower_coeffs, vec)
    )


def symbol_product(n: int, l: int, v: Sequence) -> FockOperator:
    """sigma(v + iJv) o sigma(v - iJv) as a level-l endomorphism.

    For n = 1 this is the scalar -(2l+2) g_0(v, v) times the identity,
    which is the nonvanishing that makes the associated operator elliptic.
    """
    up = symbol_raise_operator(n, l, v)
    down = symbol_lower_operator(n, l + 1, v)
    return compose(down, up)

