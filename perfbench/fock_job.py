"""The fock_algebra query: one fresh interpreter that calls only symdol.fock.

    python perfbench/fock_job.py --v=1,2,-1,3,2,-1

Runs the Weyl-algebra commutator sweep [sigma(u), sigma(w)] = -i omega_0(u, w)
over basis directions (n <= 3, levels <= 6) through sigma_real, add and
scale, then the symbol products sigma(v+iJv) o sigma(v-iJv) for n = 3 and
levels 0..8.  Prints one JSON line for the sweep and one per level with the
product's exact trace and sparse triplets.  Needs symdol on the import path.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from symdol import fock
from symdol.gaussian import gq, gq_str

from workloads import FOCK_SWEEP_LMAX, FOCK_SWEEP_NMAX, FOCK_SYMBOL_LMAX, FOCK_SYMBOL_N


def _sigma_dir(n: int, d: int, v):
    ca = [Fraction(0)] * n
    cb = [Fraction(0)] * n
    (ca if d % 2 == 0 else cb)[d // 2] = Fraction(1)
    return fock.sigma_real(ca, cb, v)


def _omega0(d: int, e: int) -> int:
    if d // 2 != e // 2:
        return 0
    return {(0, 1): 1, (1, 0): -1}.get((d % 2, e % 2), 0)


def commutator_sweep() -> dict:
    checks = mismatches = 0
    for n in range(1, FOCK_SWEEP_NMAX + 1):
        for level in range(FOCK_SWEEP_LMAX + 1):
            for beta in fock.level_indices(n, level):
                b = fock.basis_vector(n, beta)
                images = [_sigma_dir(n, d, b) for d in range(2 * n)]
                for d in range(2 * n):
                    for e in range(2 * n):
                        lhs = fock.add(
                            _sigma_dir(n, d, images[e]),
                            fock.scale(-1, _sigma_dir(n, e, images[d])),
                        )
                        expected = fock.scale(gq(0, -_omega0(d, e)), b)
                        checks += 1
                        mismatches += lhs.terms != expected.terms
    return {"checks": checks, "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--v", required=True, help="2n rational coordinates, comma-separated")
    args = parser.parse_args(argv)
    vector = [Fraction(c) for c in args.v.split(",")]
    lines = [commutator_sweep()]
    for level in range(FOCK_SYMBOL_LMAX + 1):
        op = fock.symbol_product(FOCK_SYMBOL_N, level, vector)
        trace = sum((c for (tgt, src), c in op.matrix.items() if tgt == src), gq(0))
        lines.append({"level": level, "trace": gq_str(trace), "triplets": fock.to_json_triplets(op)})
    sys.stdout.write("".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
