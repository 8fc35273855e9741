"""Run one query with the program's public functions wrapped, and dump a trace.

    python perfbench/tracer.py TRACE.json cli spectrum --family B ...
    python perfbench/tracer.py TRACE.json fock --v=1,2,-1,3,2,-1

Every public module-level function of the layers below is wrapped, and the
wrapper replaces each binding of it in every symdol module, so a function
imported by name (``from .linalg import mat_mul``) is counted too.  A layer's
self time is the time inside its wrapped functions minus the time inside
wrapped functions of other layers called from there.  ``gaussian`` (dunder
methods run millions of times per query), ``surface`` (closed forms) and
``errors`` are not wrapped.  Stdout is left untouched; the trace goes to the
file named first.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rootsys", "reps", "flagspec", "cp1", "linalg", "fock", "cli")

# functions whose inclusive time is reported as <layer>.<name>.s
INCLUSIVE = {
    "flagspec.p_spectrum", "flagspec.first_positive_eigenvalue",
    "cp1.build_operators", "cp1.commutator_suite", "cp1.verify_ladder", "cp1.kernel_dimensions",
}
CP1_BLOCKS = ("d_block", "dbar_block", "h_block", "omega_block", "p_block")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Call counts, work counts and per-layer self time of one process."""

    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.self_ns = Counter()
        self.incl_ns = Counter()
        self.depth = Counter()
        self.stack = []          # open spans: [layer, start_ns, ns inside child spans]

    # -- work counters, run after the wrapped call returns -------------------

    def _after(self, layer, name, key, args, kwargs, result):
        c = self.counts
        if key == "rootsys.weyl_orbit":
            c["rootsys.weyl_orbit.weights"] += len(result)
        elif key == "reps.weight_multiplicity":
            rs = args[0]
            gamma = tuple(_arg(args, kwargs, 1, "gamma"))
            self.distinct["reps.weight_multiplicity.distinct_gamma"].add((rs.family, rs.rank, gamma))
            c["reps.weight_multiplicity.nonzero"] += result > 0
            if self.depth["flagspec.first_positive_eigenvalue"]:
                c["flagspec.first_positive_eigenvalue.candidates"] += 1
                c["flagspec.first_positive_eigenvalue.nonzero"] += result > 0
        elif key == "reps.weight_system":
            c["reps.weight_system.weights"] += len(result.mults)
        elif key == "reps.dominant_weights_with_norm_bound":
            c["reps.norm_bound_enum.weights"] += len(result)
        elif key == "flagspec.p_spectrum":
            c["flagspec.rows"] += len(result.rows)
        elif layer == "cp1" and name in CP1_BLOCKS:
            level, gamma = _arg(args, kwargs, 0, "level"), _arg(args, kwargs, 1, "gamma")
            self.distinct["cp1.block.distinct"].add((name, level, gamma))
        elif layer == "linalg":
            if name == "mat_mul":
                a, b = args[0], args[1]
                c["linalg.mat_mul.mults"] += a.nrows * a.ncols * b.ncols
            elif name == "rank":
                a = args[0]
                c["linalg.rank.entries"] += a.nrows * a.ncols
            if hasattr(result, "nrows") and hasattr(result, "ncols"):
                c["linalg.entries_built"] += result.nrows * result.ncols
        elif layer == "fock":
            if name in ("sigma_raise", "sigma_lower", "sigma_real", "scale"):
                c["fock.terms_in"] += len(args[-1].terms)
            elif name == "add":
                c["fock.terms_in"] += len(args[0].terms) + len(args[1].terms)
            elif name == "compose":
                c["fock.compose.entries"] += len(result.matrix)

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        timed = key in INCLUSIVE
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            stack = self.stack
            frame = None
            if not stack or stack[-1][0] != layer:
                frame = [layer, clock(), 0]
                stack.append(frame)
            if timed:
                self.depth[key] += 1
                start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                if timed:
                    self.depth[key] -= 1
                    if not self.depth[key]:
                        self.incl_ns[key] += now - start
                if frame is not None:
                    stack.pop()
                    elapsed = now - frame[1]
                    self.self_ns[layer] += elapsed - frame[2]
                    if stack:
                        stack[-1][2] += elapsed
            self._after(layer, name, key, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of LAYERS and rebind it everywhere."""
        import symdol.cli  # noqa: F401  (imports every layer)

        modules = {name: sys.modules[f"symdol.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self.wrap(layer, name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "symdol" and not modname.startswith("symdol."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "incl_s": {k: v / 1e9 for k, v in self.incl_ns.items()},
        }


def main(argv: list[str]) -> int:
    out_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        import symdol.cli
        code = symdol.cli.main(rest)
    else:
        import fock_job
        code = fock_job.main(rest)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
