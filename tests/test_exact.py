from fractions import Fraction

import pytest

from symdol.gaussian import GaussianRational, I, gq, gq_str
from symdol import linalg
from symdol.linalg import (
    Mat,
    identity,
    kernel_dimension,
    mat_from_rows,
    mat_mul,
    rank,
    scalar_identity_value,
    zeros,
)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

def test_field_arithmetic():
    a = gq(Fraction(1, 2), Fraction(-1, 3))
    b = gq(2, 5)
    assert a + b == gq(Fraction(5, 2), Fraction(14, 3))
    assert a * b == gq(Fraction(1, 2) * 2 + Fraction(5, 3), Fraction(5, 2) - Fraction(2, 3))
    assert (a * b) / b == a
    assert a - a == gq(0)
    assert -a == gq(Fraction(-1, 2), Fraction(1, 3))
    assert I * I == -1


def test_conjugation_and_reality():
    z = gq(3, -4)
    assert z.conjugate() == gq(3, 4)
    assert (z * z.conjugate()) == gq(25)
    assert gq(7).is_real() and not z.is_real()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gq(1) / gq(0)


def test_int_interop_and_hash():
    assert gq(2) == 2
    assert hash(gq(2)) == hash(2)
    assert gq(Fraction(1, 2)) == Fraction(1, 2)
    assert 3 * gq(0, 1) == gq(0, 3)
    assert 1 - gq(0, 1) == gq(1, -1)


def test_rendering():
    assert gq_str(gq(Fraction(-1, 2), Fraction(3, 4))) == "-1/2+3/4i"
    assert gq_str(gq(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert gq_str(gq(Fraction(2, 3))) == "2/3"
    assert gq_str(gq(0, -1)) == "-1i"
    assert gq_str(gq(0)) == "0"


def test_coercion_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)


def test_immutability():
    z = gq(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(3)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def test_rank_and_kernel_rectangular():
    m = mat_from_rows([[1, 2, 3], [2, 4, 6]])
    assert rank(m) == 1
    assert kernel_dimension(m) == 2
    m = mat_from_rows([[1, 0], [0, 1], [1, 1]])
    assert rank(m) == 2 and kernel_dimension(m) == 0


def test_rank_complex_entries():
    m = mat_from_rows([[gq(0, 1), gq(1)], [gq(-1), gq(0, 1)]])
    # second row = i * first row
    assert rank(m) == 1


def test_zero_dimensional_shapes():
    a = zeros(0, 3)
    assert rank(a) == 0 and kernel_dimension(a) == 3
    b = zeros(3, 0)
    assert rank(b) == 0 and kernel_dimension(b) == 0
    assert mat_mul(a, zeros(3, 2)) == zeros(0, 2)
    assert mat_mul(zeros(2, 0), a) == zeros(2, 3)


def test_shapes_are_explicit():
    assert zeros(0, 3) != zeros(3, 0)
    assert mat_from_rows([[0, 0, 0]]) == zeros(1, 3)
    assert len(mat_from_rows([[0, 2], [0, 0]])) == 1


def test_scalar_identity_detection():
    assert scalar_identity_value(identity(3)) == gq(1)
    assert scalar_identity_value(linalg.scalar_matrix(2, gq(0, -5))) == gq(0, -5)
    assert scalar_identity_value(mat_from_rows([[1, 1], [0, 1]])) is None
    assert scalar_identity_value(mat_from_rows([[1, 0], [0, 2]])) is None
    assert scalar_identity_value(zeros(0, 0)) == gq(0)


def test_shape_validation():
    with pytest.raises(ValueError, match="outside"):
        Mat(2, 2, {(2, 0): gq(1)})
    with pytest.raises(ValueError, match="zero stored"):
        Mat(2, 2, {(0, 1): gq(0)})
    with pytest.raises(ValueError, match="column count"):
        mat_from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="mat_mul"):
        mat_mul(identity(2), identity(3))
