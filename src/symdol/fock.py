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

Operators between two levels hold their nonzero entries in a dict keyed
(row, col), as vectors hold their terms, over the lex-ordered level bases;
an action leaving the target level is rejected.
Coefficients are exact Gaussian rationals; there is no floating-point code.
The ladder runs on integers in one kernel, the only code that applies the
two rules above.  A caller passes rows (j - 1, x, y, d, step), one per
nonzero coefficient (x + y*i) / d of Z_j (step 1) or Zbar_j (step -1) in
sigma's argument; the kernel applies -i/2 or -i beta_j, sums the products as
integer numerators per output term and normalizes each output coefficient
once.  ``add``, ``scale`` and ``h0_apply`` work on the same integer fields,
read from each coefficient's slot: one normalization per summed key or
changed term, none for a unit scalar, and no Gaussian rational built for a
scalar or an eigenvalue.  Each result is ``tuple.__new__(FockVector, (n, t))``,
the record that ``FockVector(n, t)`` builds, without its Python-level frame.
"""

import math
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import index
from typing import Callable, Mapping, NamedTuple, Sequence

from . import gaussian, linalg
from .gaussian import GaussianRational, ZERO, gq, gq_str

FockIndex = tuple[int, ...]


def _check_level(n: int, l: int):
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")


def dim_level(n: int, l: int) -> int:
    """dim E_l = binomial(n + l - 1, l)."""
    _check_level(n, l)
    return math.comb(n + l - 1, l)


def level_indices(n: int, l: int) -> list[FockIndex]:
    """All multi-indices of length n and total l, lexicographically sorted."""
    _check_level(n, l)
    # stars and bars: the n - 1 bars sit at cuts among l + n - 1 places
    edges = ((-1, *cuts, l + n - 1) for cuts in combinations(range(l + n - 1), n - 1))
    return sorted(tuple(b - a - 1 for a, b in zip(e, e[1:])) for e in edges)


class FockVector(NamedTuple):
    """Exact finite linear combination of Hermite basis elements."""

    n: int
    terms: Mapping[FockIndex, GaussianRational]

    def is_zero(self) -> bool:
        return not self.terms


def _check_n(n) -> int:
    n = index(n)
    _check_level(n, 0)
    return n


def zero_vector(n: int) -> FockVector:
    return tuple.__new__(FockVector, (_check_n(n), {}))


def basis_vector(n: int, beta: Sequence[int]) -> FockVector:
    n, beta = _check_n(n), tuple(map(index, beta))
    if len(beta) != n or any(b < 0 for b in beta):
        raise ValueError(f"bad multi-index {beta} for n={n}")
    return tuple.__new__(FockVector, (n, {beta: gaussian.ONE}))


def add(v: FockVector, w: FockVector) -> FockVector:
    """v + w, storing no zero.

    A key of w that v also holds is summed on the integer fields of the two
    coefficients (the numerators over a shared denominator, cross-multiplied
    when the denominators differ) and normalized once; a sum that cancels is
    dropped without normalizing.  Every other coefficient is stored as it is.
    """
    if v.n != w.n:
        raise ValueError("dimension mismatch")
    reduced = gaussian._reduced
    acc = dict(v.terms)
    for beta, coeff in w.terms.items():
        u, s, e = coeff._f
        old = acc.get(beta)
        if old is None:
            if u or s:
                acc[beta] = coeff
            continue
        x, y, d = old._f
        if d == e:
            x, y = x + u, y + s
        else:
            x, y, d = x * e + u * d, y * e + s * d, d * e
        if x or y:
            acc[beta] = reduced(x, y, d)
        else:
            del acc[beta]
    return tuple.__new__(FockVector, (v.n, acc))


def scale(c, v: FockVector) -> FockVector:
    """c * v for an int, Rational or Gaussian rational c (a float is a TypeError).

    A unit c (1, -1, i or -i) permutes and negates the normalized fields of
    each coefficient, which stay normalized, so no gcd is taken; any other c
    multiplies the fields and normalizes once per term.  c = 0 gives the zero
    vector.
    """
    if isinstance(c, GaussianRational):
        a, b, e = c._f
    else:
        (a, e), b = gaussian._rational(c), 0
    if not (a or b):
        return tuple.__new__(FockVector, (v.n, {}))
    make = gaussian._raw if e == 1 and a * a + b * b == 1 else gaussian._reduced
    out = {}
    for beta, z in v.terms.items():
        x, y, d = z._f
        out[beta] = make(a * x - b * y, a * y + b * x, e * d)
    return tuple.__new__(FockVector, (v.n, out))


def _direction_index(n: int, j: int) -> int:
    if not 1 <= j <= n:
        raise ValueError(f"direction {j} out of range 1..{n}")
    return j - 1


def sigma_raise(j: int, v: FockVector) -> FockVector:
    """sigma(Z_j): raises level by one with coefficient -i/2."""
    return _ladder([(_direction_index(v.n, j), 1, 0, 1, 1)], v)


def sigma_lower(j: int, v: FockVector) -> FockVector:
    """sigma(Zbar_j): lowers level by one with coefficient -i*beta_j."""
    return _ladder([(_direction_index(v.n, j), 1, 0, 1, -1)], v)


def sigma_real(coeff_a: Sequence, coeff_b: Sequence, v: FockVector) -> FockVector:
    """sigma of the real vector sum_j (coeff_a[j] a_j + coeff_b[j] b_j).

    Rational coefficients only (a float, even 0.0, is a TypeError); the
    result is anti-self-adjoint for the inner product below.
    """
    if len(coeff_a) != v.n or len(coeff_b) != v.n:
        raise ValueError("coefficient vectors must have length n")
    rows = []
    for k, (a, b) in enumerate(zip(coeff_a, coeff_b)):
        if a.__class__ is Fraction and b.__class__ is Fraction:
            p, q, r, s = a._numerator, a._denominator, b._numerator, b._denominator
        else:
            (p, q), (r, s) = gaussian._rational(a), gaussian._rational(b)
        if p or r:
            # a_j = Z_j + Zbar_j, b_j = i (Z_j - Zbar_j): a + ib on Z_j, a - ib on Zbar_j
            x, y, d = p * s, r * q, q * s
            rows += (k, x, y, d, 1), (k, x, -y, d, -1)
    return _ladder(rows, v)


def _ladder(rows: Sequence[tuple], v: FockVector) -> FockVector:
    """sigma of a sum of ladder steps, in one pass over the terms of v.

    A row (k, x, y, d, step) is sigma's argument (x + y*i) / d, d > 0, times
    Z_j (step 1) or Zbar_j (step -1), j = k + 1; the kernel applies -i/2 or
    -i beta_j.  The products are summed as integer numerators per output term
    (over a shared denominator, cross-multiplied when the denominators differ)
    and each output coefficient is normalized once; exact zeros are dropped.
    """
    acc: dict[FockIndex, tuple[int, int, int]] = {}
    get = acc.get
    for beta, c in v.terms.items():
        cx, cy, cd = c._f
        for k, x, y, d, step in rows:
            # -i (x + y*i)(cx + cy*i) / 2 on a raise, * beta_j on a lower: parts swapped, im negated
            if step > 0:
                pd, key = d * cd << 1, beta[:k] + (beta[k] + 1,) + beta[k + 1:]
            else:
                m = beta[k]
                if not m:
                    continue
                x, y, pd, key = x * m, y * m, d * cd, beta[:k] + (m - 1,) + beta[k + 1:]
            px, py = x * cy + y * cx, y * cy - x * cx
            old = get(key)
            if old is not None:
                ox, oy, od = old
                if od == pd:
                    px, py = ox + px, oy + py
                else:
                    px, py, pd = ox * pd + px * od, oy * pd + py * od, od * pd
            acc[key] = (px, py, pd)
    reduced = gaussian._reduced
    return tuple.__new__(FockVector, (v.n, {key: reduced(x, y, d)
                                            for key, (x, y, d) in acc.items() if x or y}))


def h0_apply(v: FockVector) -> FockVector:
    """Harmonic oscillator: h_beta -> -(|beta| + n/2) h_beta.  The eigenvalue is
    never 0 and the keys are distinct, so only a zero input term is dropped."""
    n, reduced, out = v.n, gaussian._reduced, {}
    for beta, c in v.terms.items():
        (x, y, d), e = c._f, -(2 * sum(beta) + n)
        if x or y:
            out[beta] = reduced(e * x, e * y, 2 * d)
    return tuple.__new__(FockVector, (n, out))


def basis_norm_sq(beta: FockIndex) -> Fraction:
    """<h_beta, h_beta> = 2^{l-1} prod_j beta_j!."""
    return Fraction(2) ** (sum(beta) - 1) * math.prod(map(math.factorial, beta))


def inner_product(v: FockVector, w: FockVector) -> GaussianRational:
    """Sesquilinear (conjugate-linear in the second slot), exact."""
    if v.n != w.n:
        raise ValueError("dimension mismatch")
    small, big = (v.terms, w.terms) if len(v.terms) <= len(w.terms) else (w.terms, v.terms)
    return sum((v.terms[beta] * w.terms[beta].conjugate() * basis_norm_sq(beta)
                for beta in small if beta in big), ZERO)


# ---------------------------------------------------------------------------
# materialized operators between truncation levels
# ---------------------------------------------------------------------------

class FockOperator(NamedTuple):
    """Exact map E_source_level -> E_target_level; its nonzero matrix entries are
    keyed (row, col), following the level_indices order of the target and source levels."""

    n: int
    source_level: int
    target_level: int
    matrix: dict[tuple[int, int], GaussianRational]


def operator_from_action(
    n: int,
    source_level: int,
    target_level: int,
    action: Callable[[FockVector], FockVector],
) -> FockOperator:
    """Materialize the action on the level basis.

    Any output term outside the declared target level, and any stored zero,
    is rejected, so the matrix is the whole action, never a truncation of it.
    """
    rows = {beta: i for i, beta in enumerate(level_indices(n, target_level))}
    entries: dict[tuple[int, int], GaussianRational] = {}
    for col, src in enumerate(level_indices(n, source_level)):
        for beta, coeff in action(basis_vector(n, src)).terms.items():
            row = rows.get(beta)
            if row is None:
                raise ValueError(
                    f"action maps level {source_level} outside level "
                    f"{target_level} of n={n} (hit {beta})"
                )
            if not coeff:
                raise ValueError(f"action stores a zero at {beta} (image of {src})")
            entries[row, col] = coeff
    return FockOperator(n, source_level, target_level, entries)


def compose(second: FockOperator, first: FockOperator) -> FockOperator:
    """second after first (matrix product)."""
    if second.n != first.n or second.source_level != first.target_level:
        raise ValueError("operators are not composable")
    return FockOperator(first.n, first.source_level, second.target_level,
                        linalg._product(second.matrix, first.matrix))


def to_json_triplets(op: FockOperator) -> list[list]:
    """Sparse triplets [row, col, "a+bi"] over lex-ordered level bases, sorted by (row, col)."""
    return [[i, j, gq_str(x)] for (i, j), x in sorted(op.matrix.items())]


# ---------------------------------------------------------------------------
# symbol operators (section-level symbols of the Dolbeault pair)
# ---------------------------------------------------------------------------

def _symbol_rows(n: int, v: Sequence, step: int) -> list[tuple]:
    """Ladder rows of v - iJv (step 1) or v + iJv (step -1) for a real coordinate vector v.

    v lists (a_j, b_j) components interleaved: (va_1, vb_1, ..., va_n, vb_n),
    in a unitary basis b_j = J a_j.  Then

        v - iJv = sum_j 2 (va_j + i vb_j) Z_j     (pure raising)
        v + iJv = sum_j 2 (va_j - i vb_j) Zbar_j  (pure lowering),

    so with va_j + i vb_j = (x + y*i) / d a row carries (2x + 2 step y*i) / d.
    """
    parts = [(k, *w._f) for k, w in enumerate(_coordinates(n, v)) if w]
    if not parts:
        raise ValueError("symbol of the zero vector is degenerate")
    return [(k, 2 * x, 2 * step * y, d, step) for k, x, y, d in parts]


def _coordinates(n: int, v: Sequence) -> list[GaussianRational]:
    """va_j + i vb_j for the interleaved real coordinates of v."""
    if len(v) != 2 * n:
        raise ValueError(f"coordinate vector must have length {2 * n}")
    return [gq(v[2 * j], v[2 * j + 1]) for j in range(n)]


def metric_norm_sq(n: int, v: Sequence) -> Fraction:
    """g_0(v, v) in the orthonormal unitary frame."""
    return sum(((w * w.conjugate()).re for w in _coordinates(n, v)), Fraction(0))


def symbol_raise_operator(n: int, l: int, v: Sequence) -> FockOperator:
    """sigma(v - iJv): E_l -> E_{l+1}."""
    return operator_from_action(n, l, l + 1, partial(_ladder, _symbol_rows(n, v, 1)))


def symbol_lower_operator(n: int, l: int, v: Sequence) -> FockOperator:
    """sigma(v + iJv): E_l -> E_{l-1}, and the zero map E_0 -> E_0 at l = 0,
    where sigma(Zbar) kills the vacuum level."""
    return operator_from_action(n, l, max(l - 1, 0), partial(_ladder, _symbol_rows(n, v, -1)))


def symbol_product(n: int, l: int, v: Sequence) -> FockOperator:
    """sigma(v + iJv) o sigma(v - iJv) as a level-l endomorphism.

    For n = 1 this is the scalar -(2l+2) g_0(v, v) times the identity,
    which is the nonvanishing that makes the associated operator elliptic.
    """
    up = symbol_raise_operator(n, l, v)
    down = symbol_lower_operator(n, l + 1, v)
    return compose(down, up)

