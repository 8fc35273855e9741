"""Query sets of the four benchmark workloads and their correctness checks.

Each workload is a list of slots.  A slot is a pool of queries of about
equal cost (mostly images under a Dynkin-diagram symmetry, or inputs
measured within a few percent of each other), so that the seed changes the
inputs without changing the amount of work.  Seed 0 takes the first query
of every pool; any other seed draws from each pool with ``random.Random``.

Every query carries a check derived from the paper that does not depend on
recorded output: it runs on top of the byte-for-byte digest comparison.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# number of positive roots, for dim V_rho = 2^|Phi+|
POSITIVE_ROOTS = {("B", 4): 16, ("C", 4): 16}


@dataclass(frozen=True)
class Query:
    kind: str                  # "cli": python -m symdol.cli; "fock": fock_job.py
    args: tuple[str, ...]
    check: Callable[[bytes], Optional[str]]   # None when the output passes

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.args)

    @property
    def uses_cache(self) -> bool:
        return self.kind == "cli" and self.args[0] in ("spectrum", "distinguish")


# ---------------------------------------------------------------------------
# paper-derived checks on the JSON output
# ---------------------------------------------------------------------------

def _ground_row_error(table: dict, mu: list[int], dim_mu: int) -> Optional[str]:
    row = table["rows"][0]
    expected = {"lambda": "0", "total": dim_mu,
                "constituents": [{"gamma": mu, "weight_mult": 1, "dim": dim_mu}]}
    if row != expected:
        return f"{table['algebra']} row 0 is {row}, expected (0, dim V_mu = {dim_mu})"
    return None


def _check_spectrum(mu: list[int], dim_mu: int):
    def check(out: bytes) -> Optional[str]:
        return _ground_row_error(json.loads(out), mu, dim_mu)
    return check


def _check_distinguish(n: int):
    def check(out: bytes) -> Optional[str]:
        report = json.loads(out)
        if report["verdict"] != "spectra differ":
            return f"distinguish --n {n} verdict is {report['verdict']!r}"
        zero = [0] * n
        for table in (report["b_table"], report["c_table"]):
            err = _ground_row_error(table, zero, 1)
            if err:
                return err
        row = report["b_table"]["rows"][1]
        vector = [1] + [0] * (n - 1)
        if row["total"] != 2 * n + 1 or row["constituents"] != [
            {"gamma": vector, "weight_mult": 1, "dim": 2 * n + 1}
        ]:
            return f"B{n} row 1 is {row}, expected total {2 * n + 1} from gamma = omega_1 alone"
        return None
    return check


def _check_irrep(family: str, rank: int, weight: list[int], dim: int):
    def check(out: bytes) -> Optional[str]:
        data = json.loads(out)
        total = sum(w["mult"] for w in data["weights"])
        if data["dim"] != dim or total != dim:
            return f"irrep {family}{rank} {weight}: dim {data['dim']}, mults sum {total}, expected {dim}"
        return None
    return check


def _check_cp1(lmax: int):
    def check(out: bytes) -> Optional[str]:
        data = json.loads(out)
        if data["status"] != "PASS":
            return "cp1 status is not PASS"
        kers = [(lv["level"], lv["ker_dbar"]) for lv in data["levels"]]
        if kers != [(l, 2 * l + 2) for l in range(lmax + 1)]:
            return f"cp1 ker Dbar per level {kers}, expected 2l+2"
        return None
    return check


def _check_index(genus: int, level: int):
    def check(out: bytes) -> Optional[str]:
        value = json.loads(out)["index"]
        if value != (2 * level + 1) * (1 - genus):
            return f"Fock-spinor index {value} != (2l+1)(1-g)"
        return None
    return check


def _check_fock(vector: list[Fraction]):
    n = len(vector) // 2
    g = sum(c * c for c in vector)

    def check(out: bytes) -> Optional[str]:
        lines = [json.loads(line) for line in out.splitlines()]
        sweep = lines[0]
        if sweep["mismatches"] != 0 or sweep["checks"] != FOCK_SWEEP_CHECKS:
            return f"Weyl-algebra sweep: {sweep}"
        for entry in lines[1:]:
            l = entry["level"]
            # trace of sigma(v+iJv) sigma(v-iJv) on E_l: -2 g(v,v) dim E_l (n+l)/n;
            # for n = 1 this is the symbol scalar -(2l+2) g(v,v)
            dim_l = math.comb(n + l - 1, l)
            expected = -2 * g * dim_l * Fraction(n + l, n)
            if Fraction(entry["trace"]) != expected:
                return f"symbol product trace at level {l} is {entry['trace']}, expected {expected}"
        if [e["level"] for e in lines[1:]] != list(range(FOCK_SYMBOL_LMAX + 1)):
            return "symbol product levels missing"
        return None
    return check


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def _spectrum(family: str, rank: int, mu: str, cutoff: str, dim_mu: int) -> Query:
    args = ("spectrum", "--family", family, "--rank", str(rank), "--mu", mu,
            "--cutoff", cutoff, "--format", "json")
    return Query("cli", args, _check_spectrum([int(c) for c in mu.split(",")], dim_mu))


def _distinguish(n: int) -> Query:
    return Query("cli", ("distinguish", "--n", str(n), "--format", "json"), _check_distinguish(n))


def _irrep(family: str, rank: int, weight: str, dim: Optional[int] = None) -> Query:
    coords = [int(c) for c in weight.split(",")]
    if dim is None:  # weight is rho
        dim = 2 ** POSITIVE_ROOTS[(family, rank)]
    args = ("irrep", "--family", family, "--rank", str(rank), "--weight", weight, "--format", "json")
    return Query("cli", args, _check_irrep(family, rank, coords, dim))


def _cp1(lmax: int, gamma_max: int) -> Query:
    args = ("cp1", "--lmax", str(lmax), "--gamma-max", str(gamma_max), "--format", "json")
    return Query("cli", args, _check_cp1(lmax))


FOCK_SWEEP_NMAX = 3
FOCK_SWEEP_LMAX = 6
FOCK_SWEEP_CHECKS = 3500   # sum over n <= 3, levels <= 6 of dim E_l * (2n)^2
FOCK_SYMBOL_N = 3
FOCK_SYMBOL_LMAX = 8


def _fock(vector: str) -> Query:
    coords = [Fraction(c) for c in vector.split(",")]
    return Query("fock", (f"--v={vector}",), _check_fock(coords))


SETUP_QUERY = Query(
    "cli", ("index", "--genus", "1", "--level", "2", "--spinor", "fock", "--format", "json"),
    _check_index(1, 2),
)

# Each set takes about 3-4 s, so that a 28 s run repeats it 7-9 times: on a
# shared 2-core machine one process's speed swings by 2x within a minute, and
# the per-run median only settles with that many repetitions.  That leaves
# out the 5-8 s queries (irrep D5 at rho, cp1 --lmax 2 --gamma-max 11).
WORKLOADS: dict[str, list[list[Query]]] = {
    # rootsys / reps / flagspec: multiplicity point queries, norm-bounded
    # enumeration and Fraction arithmetic in the dual Killing form
    "flag_spectra": [
        [_distinguish(3)],
        [_distinguish(4)],
        [_spectrum("B", 4, "0,0,0,0", "2", 1), _spectrum("C", 4, "0,0,0,0", "2", 1)],
        [_spectrum("A", 4, "1,1,0,0", "2", 40), _spectrum("A", 4, "0,0,1,1", "2", 40)],
        [_spectrum("G", 2, "1,1", "4", 64), _spectrum("G", 2, "2,0", "5", 27)],
    ],
    # reps / rootsys without point queries: full Freudenthal tables, Weyl
    # orbit expansion and the largest rendered output
    "weight_systems": [
        [_irrep("B", 4, "1,1,1,1"), _irrep("C", 4, "1,1,1,1")],
        [_irrep("D", 5, "1,1,0,1,1", 36750)],
        [_irrep("C", 4, "2,0,1,0", 1232)],
    ],
    # cp1 / linalg: dense products and ranks over Gaussian rationals
    "cp1_blocks": [
        [_cp1(1, 9)],
        [_cp1(0, 11), _cp1(2, 7)],
    ],
    # fock: sparse dict-based vectors and operators, nothing else
    "fock_algebra": [
        [_fock("1,2,-1,3,2,-1"), _fock("2,-1,1,1,-3,2"), _fock("-1,1,2,-2,1,3"),
         _fock("3,1,-2,1,1,-1"), _fock("1/2,1,-2,3,1,-3/2"), _fock("-2,3,1,-1,2,1")],
    ],
}


def queries(workload: str, seed: int) -> list[Query]:
    """The query set of one workload for one seed."""
    rng = random.Random(seed)
    return [pool[0] if seed == 0 else rng.choice(pool) for pool in WORKLOADS[workload]]


def all_queries() -> list[Query]:
    """Every query any seed can produce, plus the set-up query."""
    out = [SETUP_QUERY]
    for slots in WORKLOADS.values():
        for pool in slots:
            out.extend(pool)
    return out
