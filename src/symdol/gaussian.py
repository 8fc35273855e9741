"""Exact Gaussian-rational numbers (x + y*i) / d with integers x, y, d.

All operator, spectrum, and kernel computations in this package are done
over Q[i]; floating point only ever appears in numerical cross-check
oracles.  A value is stored as three integers ``(x, y, d)`` meaning
(x + y*i) / d, normalized so that d > 0 and gcd(x, y, d) == 1 (zero is
``(0, 0, 1)``), so equal values have equal fields.  Each operation does its
integer arithmetic and then normalizes once with one three-way gcd; sums of
values over the same denominator, products by an int and integer
construction skip the cross products.  The real and imaginary parts read as
``fractions.Fraction`` through ``.re`` and ``.im``.  Only ints and
``numbers.Rational`` values are accepted as parts: a float is a
``TypeError``, never its binary expansion.

Package code that does its own integer arithmetic on values (the Fock
ladder) reads their fields with ``fields(z)``, the parts of an input with
``_rational``, and hands each result back through ``_reduced``, which
restores the normal form; the form itself is defined here only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from operator import attrgetter


def _rational(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or Rational, as plain ints; a
    Rational's denominator is positive."""
    if value.__class__ is Fraction:
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Rational):
        return int(value.numerator), int(value.denominator)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


class GaussianRational:
    """An exact complex number with rational real and imaginary parts."""

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            x, y, d = re, im, 1
        else:
            (a, b), (c, e) = _rational(re), _rational(im)
            x, y, d = a * e, c * b, b * e
            if d != 1:
                g = gcd(x, y, d)
                x, y, d = x // g, y // g, d // g
        _set_x(self, x)
        _set_y(self, y)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return _raw, (self._x, self._y, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

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
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._x + other._x, self._y + other._y, d)
        return _reduced(self._x * e + other._x * d, self._y * e + other._y * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._x - other._x, self._y - other._y, d)
        return _reduced(self._x * e - other._x * d, self._y * e - other._y * d, d * e)

    def __rsub__(self, other):
        return GaussianRational.coerce(other).__sub__(self)

    def __mul__(self, other):
        if other.__class__ is int:
            return _reduced(self._x * other, self._y * other, self._d)
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        x, y, u, v = self._x, self._y, other._x, other._y
        return _reduced(x * u - y * v, x * v + y * u, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.coerce(other)
        x, y, u, v, e = self._x, self._y, other._x, other._y, other._d
        norm = u * u + v * v
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((x * u + y * v) * e, (y * u - x * v) * e, self._d * norm)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other).__truediv__(self)

    def __neg__(self):
        return _raw(-self._x, -self._y, self._d)

    def conjugate(self) -> "GaussianRational":
        return _raw(self._x, -self._y, self._d)

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        return self._x == other._x and self._y == other._y and self._d == other._d

    def __hash__(self):
        if self._y == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self._x != 0 or self._y != 0

    def is_real(self) -> bool:
        return self._y == 0

    # -- rendering ------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return gq_str(self)


_set_x = GaussianRational._x.__set__
_set_y = GaussianRational._y.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _raw(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i) / d from fields that are already normalized."""
    z = _new(GaussianRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def _reduced(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i) / d for any d > 0, divided through by gcd(x, y, d)."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x //= g
            y //= g
            d //= g
    return _raw(x, y, d)


# fields(z) -> (x, y, d): the normalized integers of z = (x + y*i) / d
fields = attrgetter("_x", "_y", "_d")


def gq(re=0, im=0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


I = GaussianRational(0, 1)
ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)


def gq_str(z: GaussianRational) -> str:
    """Canonical text form: rationals as ``p/q``, e.g. ``-1/2+3i`` or ``2/3``."""
    re, im = z.re, z.im
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"
