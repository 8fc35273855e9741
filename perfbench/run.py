"""Benchmark runner for symdol: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload flag_spectra --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --record-digests

Run from anywhere inside a source checkout; the program is taken from
``src/``.  Every query is a fresh process, run one at a time: ``python -m
symdol.cli ...`` for the CLI workloads, ``perfbench/fock_job.py`` for
fock_algebra.  Each CLI query gets a fresh, empty cache directory (and
XDG_CACHE_HOME) that is deleted afterwards; SYMDOL_CACHE_DIR is never passed
on.  The workload's query set is repeated until ``--seconds`` is used up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
wall_s and cpu_s (user+system time from wait4) of the whole query set, each
query taken at its median over the repetitions; peak_rss_mb, the largest
peak resident set of any query; setup_s, the median wall time of
``symdol index`` probes (interpreter start plus ``import symdol.cli``) run
before each repetition; pass_frac, the share of processes that exited 0 and
passed both correctness gates.  With ``--trace 1`` it carries the per-layer
metrics of runs under ``perfbench/tracer.py``, alternated with untraced runs
to report the tracing overhead.  Every query's stdout is
compared byte for byte with ``perfbench/digests.json`` and checked against
paper-derived identities (``perfbench/workloads.py``).  Full per-query
records, raw times and provenance go to ``perfbench/out/``.

Times are reported in reference seconds.  On a shared machine the speed of a
process drifts by up to 2x over minutes, which swamps any change to the
program.  So every batch of query sets is bracketed by two runs of
``perfbench/probe.py``, a fresh interpreter doing fixed work that runs no
symdol code, and the batch's times are scaled by PROBE_REFERENCE_S / (mean
probe wall time): the time the batch would take on a machine where the probe
takes PROBE_REFERENCE_S.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

import workloads
from tracer import LAYERS
from workloads import Query

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

QUERY_TIMEOUT_S = 100
PROBE_REFERENCE_S = 0.30   # about the probe's median on the 2-core machine the bounds were set on

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_frac": "ratio"}


@dataclass
class QueryResult:
    key: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    stdout: bytes
    cache_files: int
    trace: Optional[dict]
    error: Optional[str] = None

    def record(self) -> dict:
        return {"query": self.key, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "rss_mb": self.rss_mb, "exit": self.exit, "stdout_bytes": len(self.stdout),
                "sha256": hashlib.sha256(self.stdout).hexdigest(),
                "cache_files_written": self.cache_files, "error": self.error}


@dataclass
class SetResult:
    traced: bool
    wall_s: float
    results: list[QueryResult] = field(default_factory=list)
    speed: float = 1.0    # factor from raw to reference seconds

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.results)

    def record(self) -> dict:
        return {"traced": self.traced, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "speed": self.speed, "queries": [r.record() for r in self.results]}


def _child_env(tmp: Path) -> dict:
    # bytecode is written (into the checkout) so that every timed process
    # starts from cached .pyc files, as an installed package would
    env = {k: v for k, v in os.environ.items()
           if k not in ("SYMDOL_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", XDG_CACHE_HOME=str(tmp / "xdg"))
    return env


def _command(q: Query, tmp: Path, traced: bool) -> list[str]:
    args = list(q.args)
    if q.uses_cache:
        args += ["--cache-dir", str(tmp / "cache")]
    if traced:
        return [sys.executable, str(BENCH / "tracer.py"), str(tmp / "trace.json"), q.kind, *args]
    if q.kind == "cli":
        return [sys.executable, "-m", "symdol.cli", *args]
    return [sys.executable, str(BENCH / "fock_job.py"), *args]


def run_query(q: Query, traced: bool, digests: Optional[dict]) -> QueryResult:
    """Run one query in a fresh process; digests=None skips the digest gate."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="query-", dir=OUT / "tmp"))
    try:
        cmd = _command(q, tmp, traced)
        env = _child_env(tmp)
        with open(tmp / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                timer.join()
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        cache = tmp / "cache"
        result = QueryResult(
            key=q.key, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024, exit=proc.returncode, stdout=out,
            cache_files=sum(1 for p in cache.rglob("*") if p.is_file()) if cache.exists() else 0,
            trace=json.loads((tmp / "trace.json").read_text()) if traced and proc.returncode == 0 else None,
        )
        if proc.returncode != 0:
            tail = (tmp / "stderr").read_bytes()[-400:].decode(errors="replace")
            result.error = f"exit {proc.returncode}: {tail}"
        elif digests is not None and digests.get(q.key) != hashlib.sha256(out).hexdigest():
            result.error = "stdout differs from the recorded digest"
        else:
            try:
                result.error = q.check(out)
            except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
                result.error = f"check raised {exc!r}"
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_probe() -> float:
    """Wall time of one probe.py process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "probe.py")], env=_child_env(OUT),
                   cwd=ROOT, check=True, timeout=QUERY_TIMEOUT_S)
    return time.perf_counter() - start


def run_set(queries: list[Query], traced: bool, digests: Optional[dict]) -> SetResult:
    start = time.perf_counter()
    results = [run_query(q, traced, digests) for q in queries]
    return SetResult(traced, time.perf_counter() - start, results)


# ---------------------------------------------------------------------------
# per-layer metrics from the summed traces of one query set
# ---------------------------------------------------------------------------

def _merge_traces(results: list[QueryResult]) -> dict:
    total: dict[str, dict[str, float]] = {}
    for r in results:
        for section, values in (r.trace or {}).items():
            bucket = total.setdefault(section, {})
            for k, v in values.items():
                bucket[k] = bucket.get(k, 0) + v
    return total


def layer_metrics(traced: SetResult) -> dict[str, float]:
    """Per-layer metrics of one traced query set (counts are summed over its processes)."""
    t = _merge_traces(traced.results)
    calls, counts, distinct = t.get("calls", {}), t.get("counts", {}), t.get("distinct", {})
    self_s = {k: v * traced.speed for k, v in t.get("self_s", {}).items()}
    incl_s = {k: v * traced.speed for k, v in t.get("incl_s", {}).items()}

    def n(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    block_calls = n(*(f"cp1.{b}" for b in ("d_block", "dbar_block", "h_block", "omega_block", "p_block")))
    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    m.update({
        "rootsys.build_root_system.calls": n("rootsys.build_root_system"),
        "rootsys.dominant_conjugate.calls": n("rootsys.dominant_conjugate"),
        "rootsys.killing_dual_form.calls": n("rootsys.killing_dual_form"),
        "rootsys.root_lattice_coefficients.calls": n("rootsys.root_lattice_coefficients"),
        "rootsys.weyl_orbit.calls": n("rootsys.weyl_orbit"),
        "rootsys.weyl_orbit.weights": counts.get("rootsys.weyl_orbit.weights", 0),
        "reps.weight_multiplicity.calls": n("reps.weight_multiplicity"),
        "reps.weight_multiplicity.nonzero_ratio": ratio(
            counts.get("reps.weight_multiplicity.nonzero", 0), n("reps.weight_multiplicity")),
        "reps.weight_multiplicity.distinct_gamma": distinct.get("reps.weight_multiplicity.distinct_gamma", 0),
        "reps.weight_system.calls": n("reps.weight_system"),
        "reps.weight_system.weights": counts.get("reps.weight_system.weights", 0),
        "reps.weyl_dimension.calls": n("reps.weyl_dimension"),
        "reps.norm_bound_enum.calls": n("reps.dominant_weights_with_norm_bound"),
        "reps.norm_bound_enum.weights": counts.get("reps.norm_bound_enum.weights", 0),
        "flagspec.p_spectrum.s": incl_s.get("flagspec.p_spectrum", 0.0),
        "flagspec.first_positive_eigenvalue.s": incl_s.get("flagspec.first_positive_eigenvalue", 0.0),
        "flagspec.first_positive_eigenvalue.candidates":
            counts.get("flagspec.first_positive_eigenvalue.candidates", 0),
        "flagspec.first_positive_eigenvalue.nonzero_ratio": ratio(
            counts.get("flagspec.first_positive_eigenvalue.nonzero", 0),
            counts.get("flagspec.first_positive_eigenvalue.candidates", 0)),
        "flagspec.rows": counts.get("flagspec.rows", 0),
        "cp1.block.calls": block_calls,
        "cp1.block.distinct_ratio": ratio(distinct.get("cp1.block.distinct", 0), block_calls),
        "cp1.build_operators.s": incl_s.get("cp1.build_operators", 0.0),
        "cp1.commutator_suite.s": incl_s.get("cp1.commutator_suite", 0.0),
        "cp1.verify_ladder.s": incl_s.get("cp1.verify_ladder", 0.0),
        "cp1.kernel_dimensions.s": incl_s.get("cp1.kernel_dimensions", 0.0),
        "linalg.mat_mul.calls": n("linalg.mat_mul"),
        "linalg.mat_mul.mults": counts.get("linalg.mat_mul.mults", 0),
        "linalg.rank.calls": n("linalg.rank"),
        "linalg.rank.entries": counts.get("linalg.rank.entries", 0),
        "linalg.entries_built": counts.get("linalg.entries_built", 0),
        "fock.sigma.calls": n("fock.sigma_raise", "fock.sigma_lower", "fock.sigma_real"),
        "fock.terms_in": counts.get("fock.terms_in", 0),
        "fock.operator.calls": n("fock.operator_from_action", "fock.compose", "fock.symbol_product"),
        "fock.compose.entries": counts.get("fock.compose.entries", 0),
        "cli.stdout_bytes": sum(len(r.stdout) for r in traced.results if r.key.startswith("cli ")),
    })
    return m


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    git_sha = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a git repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            git_sha = sha.stdout.strip() if sha.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "symdol").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "platform": platform.platform(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_query(sets: list[SetResult], attr: str, scaled: bool = True) -> dict[str, float]:
    """Each query's median of ``attr`` over the repeated sets, in reference
    seconds unless ``scaled`` is false."""
    values: dict[str, list[float]] = {}
    for s in sets:
        for r in s.results:
            values.setdefault(r.key, []).append(getattr(r, attr) * (s.speed if scaled else 1))
    return {k: _median(v) for k, v in values.items()}


def _set_total(sets: list[SetResult], attr: str, scaled: bool = True) -> float:
    """Time of the whole query set, each query at its median over the sets:
    steadier on a shared machine than the median of whole-set times."""
    return sum(_per_query(sets, attr, scaled).values())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark run and return its full record; record['summary'] is the result line."""
    digests = json.loads(DIGESTS.read_text())
    queries = workloads.queries(workload, seed)

    # set-up probes (interpreter start plus ``import symdol.cli``) are spread
    # over the run, one before each batch, so that setup_s sees the same
    # machine load as the measured sets
    warm = [run_query(workloads.SETUP_QUERY, False, digests)]  # writes the .pyc files
    probes = [run_probe()]
    setup: list[QueryResult] = []
    setup_speed: list[float] = []
    sets: list[SetResult] = []
    start = time.perf_counter()
    while True:
        setup.append(run_query(workloads.SETUP_QUERY, False, digests))
        batch = [run_set(queries, False, digests)]
        if trace:
            batch.append(run_set(queries, True, digests))
        probes.append(run_probe())
        speed = PROBE_REFERENCE_S / statistics.mean(probes[-2:])
        for s in batch:
            s.speed = speed
        setup_speed.append(speed)
        sets.extend(batch)
        # stop when another batch would end, on average, past the deadline
        elapsed = time.perf_counter() - start
        if elapsed + sum(s.wall_s for s in batch) / 2 > seconds:
            break

    plain = [s for s in sets if not s.traced]
    traced = [s for s in sets if s.traced]
    every = warm + setup + [r for s in sets for r in s.results]
    errors = [(r.key, r.error) for r in every if r.error]

    if trace:
        per_set = [layer_metrics(s) for s in traced]
        metrics = {}
        for name in per_set[0]:
            values = [m[name] for m in per_set]
            if layer_unit(name) == "s":
                metrics[name] = _median(values)
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    errors.append((name, f"counter differs between traced sets: {values}"))
        metrics["trace.overhead_frac"] = _set_total(traced, "wall_s") / _set_total(plain, "wall_s") - 1
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": _set_total(plain, "wall_s"),
            "cpu_s": _set_total(plain, "cpu_s"),
            "peak_rss_mb": max(s.rss_mb for s in plain),
            "setup_s": _median([r.wall_s * f for r, f in zip(setup, setup_speed)]),
            "pass_frac": 1 - len(errors) / len(every),
        }
        units = E2E_UNITS

    attempted = len(every)
    summary = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(),
        "cache": {
            "state": "cold: fresh empty --cache-dir and XDG_CACHE_HOME per query, deleted "
                     "afterwards; SYMDOL_CACHE_DIR not passed on",
            "files_written": sum(r.cache_files for r in every),
        },
        "queries": [q.key for q in queries],
        "probe_s": probes,
        "raw_s": {
            "wall_s": _set_total(plain, "wall_s", scaled=False),
            "cpu_s": _set_total(plain, "cpu_s", scaled=False),
            "setup_s": _median([r.wall_s for r in setup]),
        },
        "median_wall_s_per_query": _per_query(plain, "wall_s"),
        "setup": [r.record() for r in setup],
        "sets": [s.record() for s in sets],
        "failures": [{"query": key, "error": error} for key, error in errors],
        "summary": summary,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def record_digests() -> int:
    """Run every query any seed can produce once and store its stdout digest."""
    digests = {}
    for q in workloads.all_queries():
        r = run_query(q, False, None)
        if r.error:
            print(f"{q.key}: {r.error}", file=sys.stderr)
            return 1
        digests[q.key] = hashlib.sha256(r.stdout).hexdigest()
        print(f"{r.wall_s:7.2f} s  {q.key}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="record the stdout digest of every pool query and exit")
    args = parser.parse_args(argv)
    if not (SRC / "symdol" / "cli.py").is_file():
        print(f"run.py: no symdol sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for key, wall in record["median_wall_s_per_query"].items():
        print(f"{wall:8.3f} s  {key}")
    for failure in record["failures"]:
        print(f"FAILED {failure['query']}: {failure['error']}")
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
