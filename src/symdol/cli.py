"""Command-line surface: every computation, deterministic machine output.

Subcommands: roots, irrep, spectrum, distinguish, cp1, index.  Formats:
table (human, with an approximate decimal column), json (compact, exact
rationals as "p/q" strings), csv (fixed header per command).  Identical
invocations produce byte-identical output; nothing is persisted between
runs.

Exit codes: 0 success, 1 usage error, 2 computation-contract violation.
"""

import argparse
import json
import sys
from fractions import Fraction
from itertools import zip_longest

from . import cp1, flagspec, reps, rootsys, surface
from .errors import ContractViolation


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_weight(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated weight; rootsys.as_weight checks its
    length and reps its dominance."""
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"weight {text!r} is not a comma-separated integer vector")


def _parse_cutoff(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cutoff {text!r} is not a rational p/q")


def _approx(text: str) -> str:
    """Decimal approximation of an exact "p/q" string."""
    return f"{float(Fraction(text)):.6g}"


def _fmt_coords(w) -> str:
    return " ".join(str(c) for c in w)


# ---------------------------------------------------------------------------
# subcommands: _cmd_* computes one json-able payload; _*_csv and _*_table
# yield the csv rows below the header and the table lines from it alone
# ---------------------------------------------------------------------------

def _render(args, payload):
    if args.format == "json":
        lines = [json.dumps(payload, separators=(",", ":"))]
    elif args.format == "csv":
        lines = [args.csv_header, *args.csv(payload)]
    else:
        lines = args.table(payload)
    sys.stdout.write("\n".join(lines) + "\n")


def _cmd_roots(args) -> dict:
    rs = rootsys.build_root_system(args.family, args.rank)
    return {
        "family": rs.family,
        "rank": rs.rank,
        "cartan_matrix": rs.cartan_matrix,
        "positive_roots": rs.positive_roots_fw,
        "rho": rootsys.rho(rs),
        "dual_coxeter": rs.dual_coxeter,
        "killing_scale": str(rs.killing_scale),
    }


def _roots_csv(p):
    for i, row in enumerate(p["cartan_matrix"]):
        yield f"cartan_row,{i + 1},{_fmt_coords(row)}"
    for i, root in enumerate(p["positive_roots"]):
        yield f"positive_root,{i + 1},{_fmt_coords(root)}"
    yield f"rho,1,{_fmt_coords(p['rho'])}"
    yield f"dual_coxeter,1,{p['dual_coxeter']}"
    yield f"killing_scale,1,{p['killing_scale']}"


def _roots_table(p):
    yield f"root system {p['family']}{p['rank']}"
    yield "cartan matrix:"
    for row in p["cartan_matrix"]:
        yield "  " + " ".join(f"{c:3d}" for c in row)
    yield f"positive roots ({len(p['positive_roots'])}), fundamental coords:"
    for i, root in enumerate(p["positive_roots"]):
        yield f"  alpha[{i + 1}] = ({_fmt_coords(root)})"
    yield f"rho = ({_fmt_coords(p['rho'])})"
    yield f"dual Coxeter number = {p['dual_coxeter']}"
    yield f"killing scale = {p['killing_scale']}"


def _cmd_irrep(args) -> dict:
    rs = rootsys.build_root_system(args.family, args.rank)
    ws = reps.weight_system(rs, _parse_weight(args.weight))
    return {
        "algebra": rs.name(),
        "highest": ws.highest,
        "dim": ws.dim,
        "weights": [{"weight": w, "mult": m} for w, m in sorted(ws.mults.items())],
    }


def _irrep_csv(p):
    for w in p["weights"]:
        yield f"{_fmt_coords(w['weight'])},{w['mult']}"


def _irrep_table(p):
    yield f"irrep of {p['algebra']} with highest weight ({_fmt_coords(p['highest'])})"
    yield f"dimension {p['dim']}, {len(p['weights'])} distinct weights"
    for w in p["weights"]:
        yield f"  ({_fmt_coords(w['weight'])})  x{w['mult']}"


def _spectrum_jsonable(table) -> dict:
    return {
        "algebra": table.algebra,
        "mu": table.mu,
        "cutoff": str(table.cutoff),
        "rows": [
            {
                "lambda": str(row.eigenvalue),
                "total": row.total_multiplicity,
                "constituents": [
                    {"gamma": c.gamma, "weight_mult": c.weight_mult, "dim": c.dim}
                    for c in row.constituents
                ],
            }
            for row in table.rows
        ],
    }


def _cmd_spectrum(args) -> dict:
    rs = rootsys.build_root_system(args.family, args.rank)
    mu = _parse_weight(args.mu)
    cutoff = _parse_cutoff(args.cutoff)
    return _spectrum_jsonable(flagspec.p_spectrum(rs, mu, cutoff))


def _spectrum_csv(p):
    """One line per (lambda, gamma) pair."""
    for row in p["rows"]:
        for c in row["constituents"]:
            gamma = _fmt_coords(c["gamma"])
            yield f"{row['lambda']},{row['total']},{gamma},{c['weight_mult']},{c['dim']}"


def _spectrum_table(p):
    yield (f"spectrum of the vacuum operator on {p['algebra']}, "
           f"mu = ({_fmt_coords(p['mu'])}), cutoff {p['cutoff']}")
    yield "lambda    approx*   total  constituents (gamma : mult x dim)"
    for row in p["rows"]:
        parts = "; ".join(
            f"({_fmt_coords(c['gamma'])}) : {c['weight_mult']} x {c['dim']}"
            for c in row["constituents"]
        )
        yield f"{row['lambda']:<9} {_approx(row['lambda']):<9} {row['total']:<6} {parts}"
    yield "* decimal column is approximate; exact values are the p/q strings"


def _cmd_distinguish(args) -> dict:
    cutoff = _parse_cutoff(args.cutoff) if args.cutoff is not None else None
    if args.rank1_sanity:
        report = flagspec.rank_one_sanity(cutoff=cutoff)
    else:
        report = flagspec.distinguish(args.n, cutoff=cutoff)
    diff = report.first_difference
    return {
        "n": report.n,
        "cutoff": str(report.cutoff),
        "verdict": report.verdict,
        "first_difference": None if diff is None else {
            "row": diff.index,
            "b": {"lambda": None if diff.b_eigenvalue is None else str(diff.b_eigenvalue),
                  "total": diff.b_total},
            "c": {"lambda": None if diff.c_eigenvalue is None else str(diff.c_eigenvalue),
                  "total": diff.c_total},
        },
        "b_table": _spectrum_jsonable(report.b_table),
        "c_table": _spectrum_jsonable(report.c_table),
    }


def _distinguish_csv(p):
    rows = zip_longest(p["b_table"]["rows"], p["c_table"]["rows"], fillvalue={})
    for i, (b, c) in enumerate(rows):
        eb, tb = b.get("lambda", ""), b.get("total", "")
        ec, tc = c.get("lambda", ""), c.get("total", "")
        yield f"{i},{eb},{tb},{ec},{tc},{(eb, tb) == (ec, tc)}"


def _distinguish_table(p):
    pair = ("B1=A1", "C1=A1") if p["n"] == 1 else (f"B{p['n']}", f"C{p['n']}")
    yield f"distinguishing {pair[0]} and {pair[1]} at mu = 0, cutoff {p['cutoff']}"
    yield f"verdict: {p['verdict']}"
    diff = p["first_difference"]
    if diff is not None:
        b, c = diff["b"], diff["c"]
        yield (f"first difference at row {diff['row']}: "
               f"{pair[0]} has (lambda={b['lambda']}, total={b['total']}), "
               f"{pair[1]} has (lambda={c['lambda']}, total={c['total']})")
    for label, table in ((pair[0], p["b_table"]), (pair[1], p["c_table"])):
        yield f"--- {label} ---"
        yield from _spectrum_table(table)


def _cp1_block_jsonable(block, include_matrices: bool) -> dict:
    entry = {
        "level": block.level,
        "gamma": block.gamma,
        "j": block.j,
        "dim": block.dim,
        "lambda": str(block.eigenvalue),
        "lambda_closed_form_ok": block.passed("closed-form lambda"),
        "p_identity_ok": block.passed("P-identity"),
        "rank_d": block.rank_d,
        "rank_dbar": block.rank_dbar,
        "ker_d": block.ker_d,
        "ker_dbar": block.ker_dbar,
    }
    if include_matrices:
        # every operator is held as the scalar c of c * I: triplets [i, i, "c"], none for c = 0
        scalars = {op: str(getattr(block, op)) for op in ("d", "dbar", "h", "omega", "p")}
        entry["matrices"] = {op: [[i, i, c] for i in range(block.dim)] if c != "0" else []
                             for op, c in scalars.items()}
    return entry


def _cmd_cp1(args) -> dict:
    report = cp1.verify(args.lmax, args.gamma_max)
    root = cp1.root_failure(report)
    levels = [
        {
            "level": lv.level,
            "blocks": [_cp1_block_jsonable(b, args.matrices) for b in lv.blocks],
            "ladders_ok": lv.ladders_ok,
            "commutators_ok": lv.commutators_ok,
            "ker_dbar": lv.ker_dbar,
            "ker_d": lv.ker_d,
            "status": "PASS" if lv.ok else "FAIL",
        }
        for lv in report
    ]
    payload = {
        "lmax": args.lmax,
        "gamma_max": args.gamma_max,
        "levels": levels,
        "status": "FAIL" if root else "PASS",
    }
    if root:
        _render(args, payload)
        raise ContractViolation(f"CP^1 verification failed at {root}")
    return payload


def _cp1_csv(p):
    for lv in p["levels"]:
        for b in lv["blocks"]:
            yield (f"{b['level']},{b['gamma']},{b['j']},{b['dim']},{b['lambda']},"
                   f"{b['rank_d']},{b['rank_dbar']},{b['ker_d']},{b['ker_dbar']},{lv['status']}")


def _cp1_table(p):
    yield f"CP^1 block engine: levels 0..{p['lmax']}, gamma <= {p['gamma_max']}"
    for lv in p["levels"]:
        yield (f"level {lv['level']}: ker Dbar = {lv['ker_dbar']}, ker D = {lv['ker_d']}, "
               f"ladders {'PASS' if lv['ladders_ok'] else 'FAIL'}, "
               f"commutators {'PASS' if lv['commutators_ok'] else 'FAIL'} "
               f"-> {lv['status']}")
        for b in lv["blocks"]:
            yield (f"  gamma={b['gamma']} (j={b['j']}, dim {b['dim']}): "
                   f"lambda={b['lambda']} ({_approx(b['lambda'])}*), "
                   f"P-identity {'PASS' if b['p_identity_ok'] else 'FAIL'}")
    yield f"overall: {p['status']}"
    yield "* decimal values are approximate"


def _cmd_index(args) -> dict:
    return {
        "genus": args.genus,
        "level": args.level,
        "kind": args.spinor,
        "index": surface.index(args.genus, args.level, args.spinor),
    }


def _index_csv(p):
    yield f"{p['genus']},{p['level']},{p['kind']},{p['index']}"


def _index_table(p):
    yield "genus  level  kind         index"
    yield f"{p['genus']:<6} {p['level']:<6} {p['kind']:<12} {p['index']}"


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _algebra_args(p):
    p.add_argument("--family", required=True, help="one of " + ", ".join(rootsys._RANK_RULES))
    p.add_argument("--rank", required=True, type=int)


def _irrep_args(p):
    _algebra_args(p)
    p.add_argument("--weight", required=True,
                   help="dominant highest weight, comma-separated fundamental coordinates")


def _spectrum_args(p):
    _algebra_args(p)
    p.add_argument("--mu", required=True, help="dominant twist weight, comma-separated")
    p.add_argument("--cutoff", required=True, help="inclusive eigenvalue cutoff, rational p/q")


def _distinguish_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="rank, n >= 2")
    group.add_argument("--rank1-sanity", action="store_true",
                       help="run the rank-1 control (sp(1) = su(2): spectra coincide)")
    p.add_argument("--cutoff", default=None,
                   help="rational eigenvalue cutoff (default: auto, twice the larger "
                        "first positive eigenvalue)")


def _cp1_args(p):
    p.add_argument("--lmax", required=True, type=int, help="largest spinor level")
    p.add_argument("--gamma-max", required=True, type=int, dest="gamma_max",
                   help="odd truncation bound on the block label gamma")
    p.add_argument("--matrices", action="store_true",
                   help="include sparse matrix triplets [row, col, 'a+bi'] in json output")


def _index_args(p):
    p.add_argument("--genus", required=True, type=int)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--spinor", required=True, choices=surface.SPINOR_KINDS)


# name -> (help, csv header, payload, csv rows, table lines, own arguments)
_COMMANDS = {
    "roots": ("Cartan data of a root system", "item,index,values",
              _cmd_roots, _roots_csv, _roots_table, _algebra_args),
    "irrep": ("dimension and weight multiplicities of an irreducible", "weight,multiplicity",
              _cmd_irrep, _irrep_csv, _irrep_table, _irrep_args),
    "spectrum": ("vacuum-operator spectrum on G/T twisted by a dominant weight",
                 "lambda,total,gamma,weight_mult,dim",
                 _cmd_spectrum, _spectrum_csv, _spectrum_table, _spectrum_args),
    "distinguish": ("compare the B_n and C_n vacuum spectra at mu = 0",
                    "row,lambda_b,total_b,lambda_c,total_c,equal",
                    _cmd_distinguish, _distinguish_csv, _distinguish_table, _distinguish_args),
    "cp1": ("run the CP^1 block-matrix verification suite",
            "level,gamma,j,dim,lambda,rank_d,rank_dbar,ker_d,ker_dbar,status",
            _cmd_cp1, _cp1_csv, _cp1_table, _cp1_args),
    "index": ("closed-form index on a genus-g surface", "genus,level,kind,index",
              _cmd_index, _index_csv, _index_table, _index_args),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The symdol parser with only the subparser of ``command`` when it names
    a subcommand, and with all six otherwise (--help, no arguments, a typo).

    A query parses the same either way: no output of a subparser, nor an
    error the top-level parser reports, reads the list of subcommands.
    """
    parser = _Parser(prog="symdol", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, csv_header, func, csv, table, arguments = _COMMANDS[name]
        p = sub.add_parser(
            name, help=help_text, epilog=f"csv header: {csv_header}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.set_defaults(func=func, csv_header=csv_header, csv=csv, table=table)
        arguments(p)
        p.add_argument("--format", choices=("table", "json", "csv"), default="table",
                       help="output format (default: table)")
        if name in ("spectrum", "distinguish"):
            # accepted for compatibility with existing scripts; there is no cache
            p.add_argument("--cache-dir", help="ignored: nothing is cached")
            p.add_argument("--no-cache", action="store_true", help="ignored: nothing is cached")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _render(args, args.func(args))
    except ContractViolation as exc:
        print(f"symdol: contract violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"symdol: error: {exc}", file=sys.stderr)
        return 1
    return 0


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
