"""Exact Gaussian-rational numbers (x + y*i) / d with integers x, y, d.

All operator, spectrum, and kernel computations in this package are done
over Q[i]; floating point appears only in numerical cross-check oracles
and in the table format's approximate decimal column (``cli._approx``).
A value holds its normal form in one slot: the tuple of three
integers ``(x, y, d)`` meaning (x + y*i) / d, normalized so that d > 0 and
gcd(x, y, d) == 1 (zero is ``(0, 0, 1)``), so equal values have equal
fields.  The constructor and each operation do their integer arithmetic
and then make the normal form in one place, ``_reduced``, with one
three-way gcd; sums of values over the same denominator skip the cross
products.  The real and imaginary parts read as
``fractions.Fraction`` through ``.re`` and ``.im``.  Only ints and
``numbers.Rational`` values are accepted as parts: a float is a
``TypeError``, never its binary expansion.

Package code that does its own integer arithmetic on values (the Fock
ladder, sums and scalings) reads their fields with ``fields(z)``, which
returns that slot, the parts of an input with ``_rational``, and hands each
result back through ``_reduced``, which restores the normal form, or through
``_raw`` when the fields are normalized already (a unit multiple permutes
and negates them); the form itself is defined here only.
"""

from fractions import Fraction
from math import gcd
from numbers import Rational
from operator import attrgetter


def _rational(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or Rational, as plain ints; a
    Rational's denominator is positive."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Rational):
        return int(value.numerator), int(value.denominator)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


class GaussianRational:
    """An exact complex number with rational real and imaginary parts."""

    __slots__ = ("_f",)

    def __new__(cls, re=0, im=0):
        (a, b), (c, e) = _rational(re), _rational(im)
        return _reduced(a * e, c * b, b * e)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return _raw, self._f

    @property
    def re(self) -> Fraction:
        x, _, d = self._f
        return Fraction(x, d)

    @property
    def im(self) -> Fraction:
        _, y, d = self._f
        return Fraction(y, d)

    # -- coercion -------------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        (x, y, d), (u, v, e) = self._f, other._f
        if d == e:
            return _reduced(x + u, y + v, d)
        return _reduced(x * e + u * d, y * e + v * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -GaussianRational.coerce(other)

    def __rsub__(self, other):
        return GaussianRational.coerce(other).__sub__(self)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        (x, y, d), (u, v, e) = self._f, other._f
        return _reduced(x * u - y * v, x * v + y * u, d * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        (x, y, d), (u, v, e) = self._f, other._f
        norm = u * u + v * v
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((x * u + y * v) * e, (y * u - x * v) * e, d * norm)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other).__truediv__(self)

    def __neg__(self):
        x, y, d = self._f
        return _raw(-x, -y, d)

    def conjugate(self) -> "GaussianRational":
        x, y, d = self._f
        return _raw(x, -y, d)

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        return self._f == other._f

    def __hash__(self):
        if self._f[1] == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        x, y, _ = self._f
        return x != 0 or y != 0

    def is_real(self) -> bool:
        return self._f[1] == 0

    # -- rendering ------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return gq_str(self)


_set_f = GaussianRational._f.__set__
_new = object.__new__


def _raw(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i) / d from fields that are already normalized."""
    z = _new(GaussianRational)
    _set_f(z, (x, y, d))
    return z


def _reduced(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i) / d for any d > 0, divided through by gcd(x, y, d)."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    z = _new(GaussianRational)
    _set_f(z, (x, y, d))
    return z


# fields(z) -> (x, y, d): the normalized integers of z = (x + y*i) / d
fields = attrgetter("_f")


gq = GaussianRational    # shorthand constructor
I = GaussianRational(0, 1)
ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def gq_str(z: GaussianRational) -> str:
    """Canonical text form: rationals as ``p/q``, e.g. ``-1/2+3i`` or ``2/3``."""
    x, y, d = z._f
    if not y:
        return _part_str(x, d)
    im = _part_str(y, d) + "i"
    return f"{_part_str(x, d)}{'+' if y > 0 else ''}{im}" if x else im


def _part_str(x: int, d: int) -> str:   # as str(Fraction(x, d)) renders it, d > 0
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"
