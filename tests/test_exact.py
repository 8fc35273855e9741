import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from oracles import (
    FractionPairGaussian, kernel_dimension, mat_from_rows, mat_mul, rank, scalar_identity_value,
    scalar_matrix,
)
import symdol
from symdol.gaussian import GaussianRational, I, ONE, gq, gq_str
from symdol import fock, gaussian
from symdol.linalg import Mat


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


_small_parts = st.one_of(st.just(0), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))


@settings(max_examples=300, deadline=None, database=None)
@given(_small_parts, _small_parts)
def test_rendering_from_fields_matches_fraction_parts(re, im):
    """gq_str renders the integer fields; the oracle renders str(Fraction) parts."""
    z = gq(re, im)
    assert gq_str(z) == str(z) == FractionPairGaussian(re, im).text()


def test_coercion_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)


@pytest.mark.parametrize("build", [
    lambda: gq(0.1),
    lambda: GaussianRational(0.5),
    lambda: gq(1, 0.25),
    lambda: gq(1) + 0.5,
    lambda: gq(1) * 2.0,
], ids=["gq(0.1)", "GaussianRational(0.5)", "float imaginary part", "add float", "mul float"])
def test_constructor_rejects_floats(build):
    with pytest.raises(TypeError, match="Gaussian rational"):
        build()


@pytest.mark.parametrize("call", [
    lambda: fock.sigma_real([0.1], [0], fock.basis_vector(1, (0,))),
    lambda: fock.sigma_real([0, Fraction(1, 2)], [0, 0.5], fock.basis_vector(2, (1, 0))),
    lambda: fock.sigma_real([0.0, 1], [0, 0], fock.basis_vector(2, (1, 0))),
    lambda: fock.symbol_product(1, 0, [0.1, 0.2]),
    lambda: fock.symbol_raise_operator(2, 1, [1, 0, 0, 0.5]),
    lambda: fock.symbol_raise_operator(2, 1, [1, 0, 0.0, 0]),
    lambda: fock.metric_norm_sq(1, [0.5, 0]),
    lambda: fock.sigma_real([Fraction(1, 2)], [0.0], fock.basis_vector(1, (1,))),
    lambda: fock.sigma_real([Fraction(1, 2)], [0.5], fock.basis_vector(1, (1,))),
    lambda: fock.sigma_real([0.0], [Fraction(1, 2)], fock.basis_vector(1, (1,))),
    lambda: fock.sigma_real([0.5], [Fraction(1, 2)], fock.basis_vector(1, (1,))),
    lambda: fock.scale(0.5, fock.basis_vector(1, (1,))),
    lambda: fock.scale(0.0, fock.basis_vector(1, (1,))),
], ids=["sigma_real a", "sigma_real b", "sigma_real float zero", "symbol_product",
        "symbol_raise_operator", "symbol_raise_operator float zero", "metric_norm_sq",
        "sigma_real Fraction a, b 0.0", "sigma_real Fraction a, b 0.5",
        "sigma_real a 0.0, Fraction b", "sigma_real a 0.5, Fraction b",
        "scale 0.5", "scale 0.0"])
def test_fock_coordinates_reject_floats(call):
    with pytest.raises(TypeError, match="Gaussian rational"):
        call()


class _Count(int):
    pass


@pytest.mark.parametrize("value", [True, False, _Count(3)], ids=["True", "False", "int subclass"])
def test_int_subclasses_stored_as_plain_int(value):
    for z in (gq(value), gq(0, value), gq(value, Fraction(1, 2)), gq(1) * value, value + gq(0)):
        assert {type(f) for f in gaussian.fields(z)} == {int}
    assert gq(value) == int(value) and hash(gq(value)) == hash(int(value))


class _Ratio(Fraction):
    pass


def test_rational_subclass_read_through_its_parts():
    # a numbers.Rational, a Fraction subclass included, is read off its numerator and denominator
    assert gaussian._rational(_Ratio(6, 8)) == (3, 4)
    assert {type(f) for f in gaussian._rational(_Ratio(6, 8))} == {int}
    assert gaussian.fields(gq(_Ratio(1, 2), _Ratio(-1, 3))) == (3, -2, 6)


def test_constructor_normalizes_through_reduced(monkeypatch):
    # one normal form: the constructor is __new__ alone, and it makes its
    # value with the one _reduced call that every operation makes
    assert GaussianRational.__init__ is object.__init__
    calls = count_calls(monkeypatch, gaussian, "_reduced")
    z = GaussianRational(Fraction(6, 8), Fraction(-1, 4))
    assert len(calls) == 1
    assert gaussian.fields(z) == (3, -1, 4)


def test_subtraction_coerces_its_right_operand():
    assert gq(1, 1) - Fraction(1, 2) == gq(Fraction(1, 2), 1)
    assert gq(Fraction(1, 3)) - 1 == gq(Fraction(-2, 3))


def test_equality_defers_to_the_other_operand_for_a_non_number():
    assert gq(1).__eq__("1") is NotImplemented
    assert gq(1) != "1" and not gq(0) == None   # noqa: E711


def test_repr_unchanged():
    assert repr(gq(Fraction(1, 2), -3)) == "GaussianRational(Fraction(1, 2), Fraction(-3, 1))"
    assert repr(gq()) == "GaussianRational(Fraction(0, 1), Fraction(0, 1))"
    assert str(gq(Fraction(-2, 4), 1)) == "-1/2+1i"


_parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-7, 7).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 24)),
)


def _same(z: GaussianRational, ref: FractionPairGaussian):
    x, y, d = gaussian.fields(z)
    assert d > 0 and math.gcd(x, y, d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (ref.re, ref.im)
    assert hash(z) == hash(ref)
    assert bool(z) == bool(ref)
    assert z.is_real() == ref.is_real()
    assert gq_str(z) == ref.text()


@settings(max_examples=300, deadline=None, database=None)
@given(_parts, _parts, _parts, _parts, st.integers(-5, 5))
def test_integer_form_matches_fraction_pair_reference(a_re, a_im, b_re, b_im, k):
    a, b = gq(a_re, a_im), gq(b_re, b_im)
    ra, rb = FractionPairGaussian(a_re, a_im), FractionPairGaussian(b_re, b_im)
    for z, ref in [
        (a, ra), (b, rb),
        (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
        (-a, -ra), (a.conjugate(), ra.conjugate()),
        (a + k, ra + k), (k - a, k - ra), (a * b_re, ra * b_re), (k * a, k * ra),
    ]:
        _same(z, ref)
    for num, den, ref_num, ref_den in [(a, b, ra, rb), (a, k, ra, k), (a, b_re, ra, b_re),
                                       (k, a, k, ra), (b_re, a, b_re, ra)]:
        if ref_den:
            _same(num / den, ref_num / ref_den)
        else:
            with pytest.raises(ZeroDivisionError):
                num / den
    assert (a == b) == (ra == rb)
    for other in (a_re, b_re, k, a_re.numerator):
        assert (a == other) == (ra == other)
        assert (other == a) == (other == ra)
        assert (a != other) == (ra != other)


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
    a = Mat(0, 3, {})
    assert rank(a) == 0 and kernel_dimension(a) == 3
    b = Mat(3, 0, {})
    assert rank(b) == 0 and kernel_dimension(b) == 0
    assert mat_mul(a, Mat(3, 2, {})) == Mat(0, 2, {})
    assert mat_mul(Mat(2, 0, {}), a) == Mat(2, 3, {})


def test_shapes_are_explicit():
    assert Mat(0, 3, {}) != Mat(3, 0, {})
    assert mat_from_rows([[0, 0, 0]]) == Mat(1, 3, {})
    assert len(mat_from_rows([[0, 2], [0, 0]])) == 1


def test_scalar_identity_detection():
    assert scalar_identity_value(scalar_matrix(3, ONE)) == gq(1)
    assert scalar_identity_value(scalar_matrix(2, gq(0, -5))) == gq(0, -5)
    assert scalar_identity_value(mat_from_rows([[1, 1], [0, 1]])) is None
    assert scalar_identity_value(mat_from_rows([[1, 0], [0, 2]])) is None
    assert scalar_identity_value(Mat(0, 0, {})) == gq(0)


def test_shape_validation():
    with pytest.raises(ValueError, match="outside"):
        Mat(2, 2, {(2, 0): gq(1)})
    with pytest.raises(ValueError, match="zero stored"):
        Mat(2, 2, {(0, 1): gq(0)})
    with pytest.raises(ValueError, match="column count"):
        mat_from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="mat_mul"):
        mat_mul(scalar_matrix(2, ONE), scalar_matrix(3, ONE))


# ---------------------------------------------------------------------------
# no floating point in the package
# ---------------------------------------------------------------------------

class _FloatSites(ast.NodeVisitor):
    """Float and complex literals and float( / complex( / round( calls, each
    recorded as (module.function, line, what)."""

    def __init__(self, module):
        self.scope, self.sites = [module], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Constant(self, node):
        if isinstance(node.value, (float, complex)):
            self.sites.append((".".join(self.scope), node.lineno, repr(node.value)))

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id in ("float", "complex", "round"):
            self.sites.append((".".join(self.scope), node.lineno, node.func.id + "("))
        self.generic_visit(node)


def test_package_computes_nothing_from_floats():
    # the one allowed site is the table's approximate decimal column
    sites = []
    for path in sorted(Path(symdol.__file__).parent.glob("*.py")):
        visitor = _FloatSites(path.stem)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        sites += visitor.sites
    allowed = [s for s in sites if s[0] == "cli._approx"]
    assert [what for _, _, what in allowed] == ["float("]  # the scan does see it
    assert [s for s in sites if s not in allowed] == []


# ---------------------------------------------------------------------------
# layering: the flag-manifold layers stand apart from the numeric ones
# ---------------------------------------------------------------------------

def _symdol_imports(tree: ast.AST) -> set[str]:
    """The symdol submodules an import statement names, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("symdol."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "symdol":
                    continue
                parts = parts[1:]
            parts = [p for p in parts if p]
            found.update(parts[:1] or [a.name for a in node.names])
    return found


def test_flag_layers_import_no_numeric_layer():
    # rootsys, reps and flagspec work on integer weights and Fractions; they
    # import only each other and errors, never the Gaussian or Fock layers
    numeric = {"fock", "cp1", "linalg", "gaussian", "surface"}
    pkg = Path(symdol.__file__).parent
    imports = {layer: _symdol_imports(ast.parse((pkg / f"{layer}.py").read_text()))
               for layer in ("rootsys", "reps", "flagspec")}
    assert imports["flagspec"] >= {"errors", "reps", "rootsys"}  # the scan does see them
    assert {layer: found & numeric for layer, found in imports.items()} == {
        "rootsys": set(), "reps": set(), "flagspec": set()}


@pytest.mark.parametrize("layer,seen", [("cp1", "fock"), ("cli", "cp1")])
def test_cp1_imports_no_matrix_layer(layer, seen):
    # CP^1 holds D, Dbar, H and P as integer pairs and Omega as integer bands,
    # and the CLI renders each c * I itself: only fock imports linalg
    imports = _symdol_imports(ast.parse((Path(symdol.__file__).parent / f"{layer}.py").read_text()))
    assert seen in imports and "linalg" not in imports
