"""Determinism and coverage test of the benchmark's tracing.

    python3 perfbench/selftest.py [workload ...]

For each workload at seed 0 it runs one untraced and two traced query sets
and fails (exit 1) unless:
  - both traced sets report identical counters (every per-layer metric that
    is not a time) and identical stdout digests;
  - the traced stdout digests equal the untraced ones, so the wrappers change
    no output;
  - counters are zero on the layers a workload does not use and nonzero on
    the ones it exists to measure, so a binding the tracer missed shows up as
    a wrong zero;
  - BENCHMARK.json names exactly the metrics run.py reports.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads

# layers a workload must leave untouched: every metric of the layer reads 0
IDLE_LAYERS = {
    "flag_spectra": ("cp1", "linalg", "fock"),
    "weight_systems": ("flagspec", "cp1", "linalg", "fock"),
    "cp1_blocks": ("rootsys", "reps", "flagspec"),
    "fock_algebra": ("rootsys", "reps", "flagspec", "cp1", "linalg", "cli"),
}

# counters each workload exists to move: each must be nonzero there
BUSY_COUNTERS = {
    "flag_spectra": (
        "rootsys.build_root_system.calls", "rootsys.dominant_conjugate.calls",
        "rootsys.killing_dual_form.calls", "rootsys.root_lattice_coefficients.calls",
        "rootsys.weyl_orbit.calls", "rootsys.weyl_orbit.weights",
        "reps.weight_multiplicity.calls", "reps.weight_multiplicity.nonzero_ratio",
        "reps.weight_multiplicity.distinct_gamma", "reps.weight_system.calls",
        "reps.weyl_dimension.calls", "reps.norm_bound_enum.calls", "reps.norm_bound_enum.weights",
        "flagspec.first_positive_eigenvalue.candidates",
        "flagspec.first_positive_eigenvalue.nonzero_ratio", "flagspec.rows",
    ),
    "weight_systems": (
        "rootsys.build_root_system.calls", "rootsys.dominant_conjugate.calls",
        "rootsys.killing_dual_form.calls", "rootsys.root_lattice_coefficients.calls",
        "rootsys.weyl_orbit.calls", "rootsys.weyl_orbit.weights",
        "reps.weight_system.calls", "reps.weight_system.weights", "reps.weyl_dimension.calls",
        "cli.stdout_bytes",
    ),
    "cp1_blocks": (
        "cp1.block.calls", "cp1.block.distinct_ratio", "linalg.mat_mul.calls",
        "linalg.mat_mul.mults", "linalg.rank.calls", "linalg.rank.entries",
        "linalg.entries_built", "cli.stdout_bytes",
    ),
    "fock_algebra": (
        "fock.sigma.calls", "fock.terms_in", "fock.operator.calls", "fock.compose.entries",
    ),
}


def _counters(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if run.layer_unit(k) != "s"}


def _digests(s: run.SetResult) -> list[str]:
    return [hashlib.sha256(r.stdout).hexdigest() for r in s.results]


def check_benchmark_json(layer_names: set[str]) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.E2E_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != run.py {run.E2E_UNITS}")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: run.layer_unit(name) for name in layer_names | {"trace.overhead_frac"}}
    if per_layer != expected:
        problems.append(f"BENCHMARK.json per_layer differs from run.py: "
                        f"{sorted(set(per_layer.items()) ^ set(expected.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def check_workload(name: str, digests: dict) -> tuple[list[str], set[str]]:
    queries = workloads.queries(name, 0)
    plain = run.run_set(queries, False, digests)
    first = run.run_set(queries, True, digests)
    second = run.run_set(queries, True, digests)
    problems = [f"{name}: {r.key}: {r.error}" for s in (plain, first, second)
                for r in s.results if r.error]
    a, b = run.layer_metrics(first), run.layer_metrics(second)
    if _counters(a) != _counters(b):
        diff = {k: (a[k], b[k]) for k in _counters(a) if a[k] != b[k]}
        problems.append(f"{name}: counters differ between traced runs: {diff}")
    if not _digests(first) == _digests(second) == _digests(plain):
        problems.append(f"{name}: traced and untraced stdout differ")
    for layer in IDLE_LAYERS[name]:
        busy = {k: v for k, v in a.items() if k.startswith(layer + ".") and v}
        if busy:
            problems.append(f"{name}: layer {layer} should be idle but reports {busy}")
    for counter in BUSY_COUNTERS[name]:
        if not a[counter]:
            problems.append(f"{name}: {counter} should be nonzero")
    print(f"{name}: untraced {plain.wall_s:.2f} s, traced {first.wall_s:.2f} s / "
          f"{second.wall_s:.2f} s; counters: {json.dumps(_counters(a))}")
    return problems, set(a)


def main(argv: list[str]) -> int:
    digests = json.loads(run.DIGESTS.read_text())
    names = argv or sorted(workloads.WORKLOADS)
    problems, layer_names = [], set()
    for name in names:
        found, metric_names = check_workload(name, digests)
        problems += found
        layer_names |= metric_names
    problems += check_benchmark_json(layer_names)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
