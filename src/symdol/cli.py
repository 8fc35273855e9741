"""Command-line surface: every computation, deterministic machine output.

Subcommands: roots, irrep, spectrum, distinguish, cp1, index.  Formats:
table (human, with an approximate decimal column), json (compact, exact
rationals as "p/q" strings), csv (fixed header per command).  Identical
invocations produce byte-identical output; nothing is persisted between
runs.

Exit codes: 0 success, 1 usage error, 2 computation-contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cp1, flagspec, reps, rootsys, surface
from .errors import ContractViolation


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"weight {text!r} is not a comma-separated integer vector")
    if len(coords) != rank:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates; expected {rank}")
    return coords


def _parse_cutoff(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cutoff {text!r} is not a rational p/q")


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _approx(value: Fraction) -> str:
    return f"{float(value):.6g}"


def _fmt_coords(w) -> str:
    return " ".join(str(c) for c in w)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_roots(args) -> int:
    rs = rootsys.build_root_system(args.family, args.rank)
    if args.format == "json":
        _emit_json({
            "family": rs.family,
            "rank": rs.rank,
            "cartan_matrix": [list(row) for row in rs.cartan_matrix],
            "positive_roots": [list(r) for r in rs.positive_roots_fw],
            "rho": list(rootsys.rho(rs)),
            "dual_coxeter": rs.dual_coxeter,
            "killing_scale": str(rs.killing_scale),
        })
    elif args.format == "csv":
        lines = ["item,index,values"]
        for i, row in enumerate(rs.cartan_matrix):
            lines.append(f"cartan_row,{i + 1},{_fmt_coords(row)}")
        for i, root in enumerate(rs.positive_roots_fw):
            lines.append(f"positive_root,{i + 1},{_fmt_coords(root)}")
        lines.append(f"rho,1,{_fmt_coords(rootsys.rho(rs))}")
        lines.append(f"dual_coxeter,1,{rs.dual_coxeter}")
        lines.append(f"killing_scale,1,{rs.killing_scale}")
        _emit(lines)
    else:
        lines = [f"root system {rs.name()}"]
        lines.append("cartan matrix:")
        for row in rs.cartan_matrix:
            lines.append("  " + " ".join(f"{c:3d}" for c in row))
        lines.append(f"positive roots ({len(rs.positive_roots_fw)}), fundamental coords:")
        for i, root in enumerate(rs.positive_roots_fw):
            lines.append(f"  alpha[{i + 1}] = ({_fmt_coords(root)})")
        lines.append(f"rho = ({_fmt_coords(rootsys.rho(rs))})")
        lines.append(f"dual Coxeter number = {rs.dual_coxeter}")
        lines.append(f"killing scale = {rs.killing_scale}")
        _emit(lines)
    return 0


def _cmd_irrep(args) -> int:
    rs = rootsys.build_root_system(args.family, args.rank)
    weight = _parse_weight(args.weight, rs.rank)
    if not rootsys.is_dominant(rs, weight):
        raise ValueError(f"weight {args.weight} is not dominant")
    ws = reps.weight_system(rs, weight)
    items = sorted(ws.mults.items())
    if args.format == "json":
        _emit_json({
            "algebra": rs.name(),
            "highest": list(weight),
            "dim": ws.dim,
            "weights": [{"weight": list(w), "mult": m} for w, m in items],
        })
    elif args.format == "csv":
        lines = ["weight,multiplicity"]
        lines.extend(f"{_fmt_coords(w)},{m}" for w, m in items)
        _emit(lines)
    else:
        lines = [
            f"irrep of {rs.name()} with highest weight ({_fmt_coords(weight)})",
            f"dimension {ws.dim}, {len(items)} distinct weights",
        ]
        lines.extend(f"  ({_fmt_coords(w)})  x{m}" for w, m in items)
        _emit(lines)
    return 0


def _spectrum_table_lines(table) -> list[str]:
    lines = [
        f"spectrum of the vacuum operator on {table.algebra}, "
        f"mu = ({_fmt_coords(table.mu)}), cutoff {table.cutoff}",
        "lambda    approx*   total  constituents (gamma : mult x dim)",
    ]
    for row in table.rows:
        parts = "; ".join(
            f"({_fmt_coords(c.gamma)}) : {c.weight_mult} x {c.dim}" for c in row.constituents
        )
        lines.append(
            f"{str(row.eigenvalue):<9} {_approx(row.eigenvalue):<9} "
            f"{row.total_multiplicity:<6} {parts}"
        )
    lines.append("* decimal column is approximate; exact values are the p/q strings")
    return lines


def _cmd_spectrum(args) -> int:
    rs = rootsys.build_root_system(args.family, args.rank)
    mu = _parse_weight(args.mu, rs.rank)
    cutoff = _parse_cutoff(args.cutoff)
    table = flagspec.p_spectrum(rs, mu, cutoff)
    if args.format == "json":
        _emit_json(flagspec.spectrum_to_jsonable(table))
    elif args.format == "csv":
        _emit(flagspec.spectrum_to_csv_lines(table))
    else:
        _emit(_spectrum_table_lines(table))
    return 0


def _distinguish_jsonable(report) -> dict:
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
        "b_table": flagspec.spectrum_to_jsonable(report.b_table),
        "c_table": flagspec.spectrum_to_jsonable(report.c_table),
    }


def _cmd_distinguish(args) -> int:
    cutoff = _parse_cutoff(args.cutoff) if args.cutoff is not None else None
    if args.rank1_sanity:
        report = flagspec.rank_one_sanity(cutoff=cutoff)
    else:
        report = flagspec.distinguish(args.n, cutoff=cutoff)
    if args.format == "json":
        _emit_json(_distinguish_jsonable(report))
    elif args.format == "csv":
        lines = ["row,lambda_b,total_b,lambda_c,total_c,equal"]
        rb, rc = report.b_table.rows, report.c_table.rows
        for i in range(max(len(rb), len(rc))):
            eb = str(rb[i].eigenvalue) if i < len(rb) else ""
            tb = rb[i].total_multiplicity if i < len(rb) else ""
            ec = str(rc[i].eigenvalue) if i < len(rc) else ""
            tc = rc[i].total_multiplicity if i < len(rc) else ""
            lines.append(f"{i},{eb},{tb},{ec},{tc},{(eb, tb) == (ec, tc)}")
        _emit(lines)
    else:
        pair = ("B1=A1", "C1=A1") if report.n == 1 else (f"B{report.n}", f"C{report.n}")
        lines = [
            f"distinguishing {pair[0]} and {pair[1]} at mu = 0, cutoff {report.cutoff}",
            f"verdict: {report.verdict}",
        ]
        diff = report.first_difference
        if diff is not None:
            lines.append(
                f"first difference at row {diff.index}: "
                f"{pair[0]} has (lambda={diff.b_eigenvalue}, total={diff.b_total}), "
                f"{pair[1]} has (lambda={diff.c_eigenvalue}, total={diff.c_total})"
            )
        for label, table in ((pair[0], report.b_table), (pair[1], report.c_table)):
            lines.append(f"--- {label} ---")
            lines.extend(_spectrum_table_lines(table))
        _emit(lines)
    return 0


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
        def triplets(matrix):
            out = []
            for i, row in enumerate(matrix.rows):
                for j, value in enumerate(row):
                    if value:
                        out.append([i, j, str(value)])
            return out

        entry["matrices"] = {
            "d": triplets(block.d),
            "dbar": triplets(block.dbar),
            "h": triplets(block.h),
            "omega": triplets(block.omega),
            "p": triplets(block.p),
        }
    return entry


def _cmd_cp1(args) -> int:
    report = cp1.verify(args.lmax, args.gamma_max)
    failures = [f for lv in report for f in lv.failures]
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
        "status": "FAIL" if failures else "PASS",
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        lines = ["level,gamma,j,dim,lambda,rank_d,rank_dbar,ker_d,ker_dbar,status"]
        for lv in levels:
            for b in lv["blocks"]:
                lines.append(
                    f"{b['level']},{b['gamma']},{b['j']},{b['dim']},{b['lambda']},"
                    f"{b['rank_d']},{b['rank_dbar']},{b['ker_d']},{b['ker_dbar']},{lv['status']}"
                )
        _emit(lines)
    else:
        lines = [f"CP^1 block engine: levels 0..{args.lmax}, gamma <= {args.gamma_max}"]
        for lv in levels:
            lines.append(
                f"level {lv['level']}: ker Dbar = {lv['ker_dbar']}, ker D = {lv['ker_d']}, "
                f"ladders {'PASS' if lv['ladders_ok'] else 'FAIL'}, "
                f"commutators {'PASS' if lv['commutators_ok'] else 'FAIL'} "
                f"-> {lv['status']}"
            )
            for b in lv["blocks"]:
                lines.append(
                    f"  gamma={b['gamma']} (j={b['j']}, dim {b['dim']}): "
                    f"lambda={b['lambda']} ({_approx(Fraction(b['lambda']))}*), "
                    f"P-identity {'PASS' if b['p_identity_ok'] else 'FAIL'}"
                )
        lines.append(f"overall: {payload['status']}")
        lines.append("* decimal values are approximate")
        _emit(lines)
    if failures:
        raise ContractViolation(f"CP^1 verification failed at {failures[0]}")
    return 0


def _cmd_index(args) -> int:
    query = surface.IndexQuery(genus=args.genus, level=args.level, spinor_kind=args.spinor)
    value = surface.index(query)
    if args.format == "json":
        _emit_json({
            "genus": query.genus,
            "level": query.level,
            "kind": query.spinor_kind,
            "index": value,
        })
    elif args.format == "csv":
        _emit(["genus,level,kind,index", f"{query.genus},{query.level},{query.spinor_kind},{value}"])
    else:
        _emit([
            "genus  level  kind         index",
            f"{query.genus:<6} {query.level:<6} {query.spinor_kind:<12} {value}",
        ])
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("table", "json", "csv"), default="table",
                   help="output format (default: table)")


def _add_cache_flags(p: argparse.ArgumentParser):
    # accepted for compatibility with existing scripts; there is no cache
    p.add_argument("--cache-dir", help="ignored: nothing is cached")
    p.add_argument("--no-cache", action="store_true", help="ignored: nothing is cached")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symdol", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, csv_header):
        return sub.add_parser(
            name, help=help_text, epilog=f"csv header: {csv_header}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )

    p = add("roots", "Cartan data of a classical root system", "item,index,values")
    p.add_argument("--family", required=True, help="one of A, B, C, D, G")
    p.add_argument("--rank", required=True, type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_roots)

    p = add("irrep", "dimension and weight multiplicities of an irreducible",
            "weight,multiplicity")
    p.add_argument("--family", required=True)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--weight", required=True,
                   help="dominant highest weight, comma-separated fundamental coordinates")
    _add_format(p)
    p.set_defaults(func=_cmd_irrep)

    p = add("spectrum", "vacuum-operator spectrum on G/T twisted by a dominant weight",
            flagspec.SPECTRUM_CSV_HEADER)
    p.add_argument("--family", required=True)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--mu", required=True, help="dominant twist weight, comma-separated")
    p.add_argument("--cutoff", required=True, help="inclusive eigenvalue cutoff, rational p/q")
    _add_format(p)
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = add("distinguish", "compare the B_n and C_n vacuum spectra at mu = 0",
            "row,lambda_b,total_b,lambda_c,total_c,equal")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="rank, n >= 2")
    group.add_argument("--rank1-sanity", action="store_true",
                       help="run the rank-1 control (sp(1) = su(2): spectra coincide)")
    p.add_argument("--cutoff", default=None,
                   help="rational eigenvalue cutoff (default: auto, twice the larger "
                        "first positive eigenvalue)")
    _add_format(p)
    _add_cache_flags(p)
    p.set_defaults(func=_cmd_distinguish)

    p = add("cp1", "run the CP^1 block-matrix verification suite",
            "level,gamma,j,dim,lambda,rank_d,rank_dbar,ker_d,ker_dbar,status")
    p.add_argument("--lmax", required=True, type=int, help="largest spinor level")
    p.add_argument("--gamma-max", required=True, type=int, dest="gamma_max",
                   help="odd truncation bound on the block label gamma")
    p.add_argument("--matrices", action="store_true",
                   help="include sparse matrix triplets [row, col, 'a+bi'] in json output")
    _add_format(p)
    p.set_defaults(func=_cmd_cp1)

    p = add("index", "closed-form index on a genus-g surface", "genus,level,kind,index")
    p.add_argument("--genus", required=True, type=int)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--spinor", required=True, choices=surface.SPINOR_KINDS)
    _add_format(p)
    p.set_defaults(func=_cmd_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"symdol: contract violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"symdol: error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
