"""The immutable records and the cost of importing the package.

Every record is a NamedTuple, or (``linalg.Mat``) a slotted Mapping, so
importing ``symdol.cli`` loads none of the ``dataclasses`` machinery.  These
tests pin what the records promise: immutability, equality by value, the
unhashable ``Mat``, the repr of every root system, and that every module
parses as Python 3.10, the least version the package declares; what the
benchmark's tracer needs of the program; and the output digest of every
benchmark query.
"""

import ast
import copy
import hashlib
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import scalar_matrix
from symdol import cli, cp1, flagspec, fock, reps
from symdol.gaussian import ONE, gq
from symdol.linalg import Mat
from symdol.rootsys import RootSystem, build_root_system

A1 = build_root_system("A", 1)


def _records():
    """One instance of each record, keyed by class name, with its first field."""
    table = flagspec.p_spectrum(A1, (0,), 1)
    report = flagspec.distinguish(3)
    level = cp1.verify(1, 5)[0]
    return {
        "RootSystem": (build_root_system("A", 1), "family"),
        "WeightSystem": (reps.weight_system(A1, (1,)), "highest"),
        "GroundKernel": (flagspec.ground_kernel(A1, (1,)), "highest"),
        "SpectrumRow": (table.rows[0], "eigenvalue"),
        "SpectrumTable": (table, "family"),
        "RowComparison": (report.first_difference, "index"),
        "DistinguishReport": (report, "n"),
        "BlockReport": (level.blocks[0], "level"),
        "LevelReport": (level, "level"),
        "FockVector": (fock.basis_vector(2, (1, 0)), "n"),
        "FockOperator": (fock.symbol_product(1, 0, (1, 0)), "n"),
        "Mat": (scalar_matrix(2, ONE), "nrows"),
    }


RECORDS = _records()


def test_every_record_is_built():
    assert {name: type(obj).__name__ for name, (obj, _) in RECORDS.items()} == {
        name: name for name in RECORDS}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    obj, field = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = 1
    with pytest.raises(AttributeError):
        delattr(obj, field)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_is_by_value(name):
    obj, _ = RECORDS[name]
    again, _ = _records()[name]
    assert again is not obj and again == obj
    assert copy.copy(obj) == obj


def test_mat_equality_is_shape_and_entries():
    a = Mat(2, 2, {(0, 0): ONE, (1, 0): gq(1, 2)})
    assert a == Mat(2, 2, {(1, 0): gq(1, 2), (0, 0): ONE})
    assert a != Mat(2, 2, {(0, 0): ONE})
    assert a != Mat(2, 3, {(0, 0): ONE, (1, 0): gq(1, 2)})
    assert a != Mat(3, 2, {(0, 0): ONE, (1, 0): gq(1, 2)})
    assert Mat(0, 3, {}) != Mat(3, 0, {})
    assert Mat(0, 0, {}) == scalar_matrix(0, ONE)
    # a Mat equals no plain mapping, even one with its entries
    assert a != dict(a.entries) and dict(a.entries) != a


def test_mat_is_unhashable():
    with pytest.raises(TypeError):
        hash(scalar_matrix(2, ONE))
    with pytest.raises(TypeError):
        {Mat(0, 0, {})}


def test_mat_validates_and_keeps_its_repr():
    with pytest.raises(ValueError, match="outside a 1x1 matrix"):
        Mat(1, 1, {(1, 0): ONE})
    with pytest.raises(ValueError, match="zero stored"):
        Mat(1, 1, {(0, 0): gq(0)})
    assert repr(Mat(1, 2, {(0, 1): gq(1, 2)})) == (
        "Mat(nrows=1, ncols=2, entries={(0, 1): GaussianRational(Fraction(1, 1), Fraction(2, 1))})")


# every classical system of rank <= 9 and G2, hashed from the reprs of the
# fields below as computed from the orthogonal-coordinate model
ROOT_SYSTEMS = ([("A", k) for k in range(1, 10)] + [("B", k) for k in range(2, 10)]
                + [("C", k) for k in range(2, 10)] + [("D", k) for k in range(3, 10)]
                + [("G", 2)])
ROOT_SYSTEM_FIELDS = ("family", "rank", "cartan_matrix", "dual_coxeter", "killing_scale",
                      "positive_roots_fw", "inverse_cartan_num", "inverse_cartan_den",
                      "weight_gram_num", "weight_gram_den")
ROOT_SYSTEMS_REPR_SHA256 = "397af6f33d292235252de2d744b19b5bb7e0d6632e567a27a4eeb89e7fe0431d"


def test_root_system_reprs_unchanged():
    assert RootSystem._fields == ROOT_SYSTEM_FIELDS
    text = "\n".join(repr(tuple(getattr(build_root_system(f, k), name)
                                for name in ROOT_SYSTEM_FIELDS))
                     for f, k in ROOT_SYSTEMS)
    assert hashlib.sha256(text.encode()).hexdigest() == ROOT_SYSTEMS_REPR_SHA256


# A-D at ranks 10-20 and 40 (48 systems), where the common denominators of
# the inverse Cartan and Gram matrices grow past those of rank <= 9
LARGE_RANKS_REPR_SHA256 = "6d9fb78b677f407cc454418ccb542501dade8fd8cfd8f02be18a9e39210843ff"


def test_large_rank_root_system_reprs_unchanged():
    text = "".join(repr(build_root_system(f, r)) for f in "ABCD" for r in [*range(10, 21), 40])
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_RANKS_REPR_SHA256


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: no module of the
    # package may use syntax that 3.10 does not parse
    sources = sorted((ROOT / "src" / "symdol").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("value", [
    gq(1, 2),
    Mat(2, 2, {(0, 1): gq(-3, 4), (1, 0): ONE}),
    fock.add(fock.basis_vector(2, (1, 0)), fock.scale(gq(0, 1), fock.basis_vector(2, (0, 2)))),
], ids=["gq", "Mat", "FockVector"])
def test_exact_values_pickle_and_deepcopy(value):
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert again == value and type(again) is type(value)


ROOT = Path(__file__).resolve().parents[1]


def _fresh(code: str) -> str:
    """The stripped stdout of code run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def test_cli_import_loads_no_dataclasses_machinery():
    # deterministic start-up gates: dataclasses alone pulls in inspect, ast and
    # dis; and a record's field annotations are evaluated where they are
    # written, so no import compiles one from a string into a typing.ForwardRef
    assert _fresh("import sys, symdol.cli; "
                  "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis') "
                  "if m in sys.modules))") == ""
    count = ("import typing; made = []; init = typing.ForwardRef.__init__; "
             "typing.ForwardRef.__init__ = lambda *a, **k: made.append(a) or init(*a, **k); "
             "{}; print(len(made))")
    assert [_fresh(count.format(statement)) for statement in
            ("import symdol.cli", "from symdol import fock")] == ["0", "0"]


def test_fock_import_loads_no_flag_or_cp1_layer():
    # the package namespace is lazy: a fock-only caller pays for fock alone
    assert _fresh("import sys; from symdol import fock; "
                  "print(type(fock).__name__, fock.__name__, ' '.join(m for m in "
                  "('flagspec', 'reps', 'rootsys', 'surface', 'cp1') "
                  "if 'symdol.' + m in sys.modules))") == "module symdol.fock"


def test_surface_import_loads_no_block_engine():
    # surface is the closed-form index alone: neither cp1 nor fock rides along
    assert _fresh("import sys, symdol.surface; print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'symdol'))") == "['symdol', 'symdol.surface']"


def test_package_names_are_their_home_objects():
    # each __all__ name, resolved on first access, is the object its defining
    # module holds; dir() lists them and an unknown name is an AttributeError
    code = """
import sys, symdol
assert not [m for m in sys.modules if m.startswith('symdol.')], sorted(sys.modules)
names = [n for n in symdol.__all__ if n != '__version__']
for name in names:
    obj = getattr(symdol, name)
    home = obj.__module__
    assert home.startswith('symdol.') and getattr(sys.modules[home], name) is obj, name
assert set(symdol.__all__) <= set(dir(symdol))
try:
    symdol.no_such_name
except AttributeError as e:
    print(len(names), e)
"""
    assert _fresh(code) == "21 module 'symdol' has no attribute 'no_such_name'"


def _perfbench_constant(script: str, name: str):
    """The literal value a perfbench script assigns to name at module level."""
    tree = ast.parse((ROOT / "perfbench" / script).read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])


def test_cli_import_loads_every_traced_layer():
    # the benchmark's tracer reads sys.modules["symdol.<layer>"] for each of its
    # LAYERS right after `import symdol.cli`, so cli must import them all
    layers = _perfbench_constant("tracer.py", "LAYERS")
    assert {"cp1", "linalg", "fock", "cli"} <= set(layers)    # the scan does see them
    assert _fresh(f"import sys, symdol.cli; print([m for m in {layers!r} "
                  "if 'symdol.' + m not in sys.modules])") == "[]"


# the trace keys (calls through a public binding, or work counts) behind each
# rule of perfbench/selftest.py's BUSY_COUNTERS that the program passes: a
# binding inlined, renamed or privatized reads 0 there
FLAG_BUSY = ("rootsys.build_root_system", "rootsys.dominant_conjugate",
             "reps.weight_multiplicity", "reps.weight_multiplicity.nonzero",
             "reps.weight_multiplicity.distinct_gamma", "reps.weyl_dimension",
             "reps.dominant_weights_with_norm_bound", "reps.norm_bound_enum.weights",
             "flagspec.rows")
FIRST_POSITIVE_BUSY = ("flagspec.first_positive_eigenvalue",
                       "flagspec.first_positive_eigenvalue.candidates",
                       "flagspec.first_positive_eigenvalue.nonzero")

# query name -> (command, the selftest workload it stands for, its busy keys)
TRACED_QUERIES = {
    "cp1": (("cli", "cp1", "--lmax", "1", "--gamma-max", "5", "--format", "json"),
            "cp1_blocks", ("cp1.omega_block", "cp1.block.distinct")),
    "spectrum": (("cli", "spectrum", "--family", "B", "--rank", "3", "--mu", "0,0,0",
                  "--cutoff", "1", "--format", "json"), "flag_spectra", FLAG_BUSY),
    "distinguish": (("cli", "distinguish", "--n", "3", "--format", "json"),
                    "flag_spectra", FLAG_BUSY + FIRST_POSITIVE_BUSY),
    "irrep": (("cli", "irrep", "--family", "B", "--rank", "2", "--weight", "1,1",
               "--format", "json"), "weight_systems",
              ("rootsys.build_root_system", "rootsys.dominant_conjugate", "reps.weyl_dimension",
               "reps.weight_system", "reps.weight_system.weights",
               "rootsys.weyl_orbit", "rootsys.weyl_orbit.weights")),
    "fock": (("fock", "--v=1,2,-1,3,2,-1"), "fock_algebra",
             ("fock.sigma_real", "fock.operator_from_action", "fock.compose",
              "fock.symbol_product", "fock.terms_in", "fock.compose.entries")),
}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


@pytest.mark.parametrize("query", sorted(TRACED_QUERIES))
def test_benchmark_tracer_runs_each_query_kind(tmp_path, query):
    # the benchmark's tracer wraps every public function of each layer, reads
    # the leading (level, gamma) of each cp1 *_block call and runs fock queries
    # through its fock_job script; on each kind it must exit 0 and leave stdout
    # byte for byte as the untraced run prints it, count every busy key, and
    # see no work in a layer the query's workload keeps idle
    (kind, *argv), workload, busy = TRACED_QUERIES[query]
    plain = (_python("-m", "symdol.cli", *argv) if kind == "cli"
             else _python(str(ROOT / "perfbench" / "fock_job.py"), *argv))
    trace_path = tmp_path / "trace.json"
    traced = _python(str(ROOT / "perfbench" / "tracer.py"), str(trace_path), kind, *argv)
    assert (plain.returncode, traced.returncode) == (0, 0), traced.stderr.decode()
    assert plain.stdout and traced.stdout == plain.stdout
    trace = json.loads(trace_path.read_text())
    seen = {**trace["calls"], **trace["counts"], **trace["distinct"]}
    assert [key for key in busy if not seen.get(key)] == []
    idle = _perfbench_constant("selftest.py", "IDLE_LAYERS")[workload]
    assert [key for part in trace.values() for key in part
            if key.split(".")[0] in idle] == []
    if query == "cp1":
        assert trace["calls"]["cp1.omega_block"] == 3    # one per gamma in 1, 3, 5


def test_benchmark_queries_print_their_recorded_digests(tmp_path, monkeypatch, capsys):
    # every query any benchmark seed can run, in process: exit 0, stdout byte
    # for byte as perfbench/digests.json records it, and the query's own check
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    fock_job = importlib.import_module("fock_job")
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    queries = workloads.all_queries()
    assert sorted(digests) == sorted(q.key for q in queries)
    for i, q in enumerate(queries):
        args = [*q.args, *(("--cache-dir", str(tmp_path / str(i))) if q.uses_cache else ())]
        code = (cli.main if q.kind == "cli" else fock_job.main)(args)
        out = capsys.readouterr().out.encode()
        assert code == 0, q.key
        assert hashlib.sha256(out).hexdigest() == digests[q.key], q.key
        assert q.check(out) is None, q.key
