"""Command-line surface: check, classify, crosscheck, search, table, report,
examples-verify.  Stable JSON/CSV outputs; exit codes 0/1/2 for check verdicts
and >= 64 for usage or data errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from . import engine
from .catalog import (ExampleStatus, ModulusKind, StructureKind,
                      catalog_entries, entries_by_id, export_json)
from .engine import CapExceeded, Verdict
from .groupoid import (LinearGroupoid, cayley_table, is_latin_square,
                       is_quasigroup)
from .termlang import TermSyntaxError, parse

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_VERDICT_EXIT = {Verdict.HOLDS: 0, Verdict.FAILS: 1, Verdict.NOT_APPLICABLE: 2}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 64, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


class DataError(ValueError):
    """Bad entry id, identity text, or range: exit EX_DATAERR."""


def _parse_range(text: str) -> list[int]:
    """Parse '2..12' or a single integer into a list of moduli."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise DataError(f"bad range {text!r}, expected LO..HI") from None
    else:
        try:
            lo = hi = int(text)
        except ValueError:
            raise DataError(f"bad range {text!r}") from None
    if lo < 2 or hi < lo:
        raise DataError(f"bad range {text!r}: need 2 <= lo <= hi")
    return list(range(lo, hi + 1))


def _groupoid_from(args: argparse.Namespace) -> LinearGroupoid:
    # Negative coefficient flags are accepted and normalized mod n here.
    return LinearGroupoid(args.n, args.a, args.b, args.c)


def _default_cap() -> int:
    env = os.environ.get("LINQUAS_CAP")
    if not env:
        return engine.DEFAULT_CAP
    try:
        return int(env)
    except ValueError:
        raise DataError(f"LINQUAS_CAP must be an integer, got {env!r}") from None


def _resolve_entries(spec: str) -> list[str]:
    if spec == "all":
        return [e.id for e in catalog_entries() if e.identity is not None]
    ids = [token.strip() for token in spec.split(",") if token.strip()]
    for entry_id in ids:
        if entry_id not in entries_by_id():
            raise DataError(f"unknown catalog entry {entry_id!r}")
        if entries_by_id()[entry_id].identity is None:
            raise DataError(f"entry {entry_id!r} has no defining identity")
    return ids


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, input_dict: dict, results) -> str:
    payload = {"tool_version": __version__, "command": command,
               "input": input_dict, "results": results}
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- commands ----------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    g = _groupoid_from(args)
    if args.entry:
        entry = entries_by_id().get(args.entry)
        if entry is None:
            raise DataError(f"unknown catalog entry {args.entry!r}")
        if entry.identity is None:
            raise DataError(f"entry {args.entry!r} has no defining identity")
        ident = entry.identity
        label = entry.id
    else:
        try:
            ident = parse(args.ident)
        except TermSyntaxError as exc:
            raise DataError(f"bad identity: {exc}") from None
        label = args.ident
    if args.method == "symbolic":
        outcome = engine.holds_symbolic(g, ident)
    else:
        outcome = engine.holds_bruteforce(g, ident, args.cap)
    result = {"identity": label, **outcome.to_dict()}
    input_dict = {"n": g.n, "a": g.a, "b": g.b, "c": g.c, "identity": label}
    if args.format == "json":
        _emit(_envelope("check", input_dict, [result]), args.out)
    elif args.format == "csv":
        _emit(_csv_text(["identity", "verdict", "method", "detail"],
                        [[label, outcome.verdict.value, outcome.method.value,
                          json.dumps(outcome.counterexample) if outcome.counterexample
                          else (outcome.na_reason or "")]]), args.out)
    else:
        lines = [f"{label}: {outcome.verdict.value} ({outcome.method.value})"]
        if outcome.counterexample:
            lines.append(f"  counterexample: {outcome.counterexample}")
        if outcome.na_reason:
            lines.append(f"  reason: {outcome.na_reason}")
        _emit("\n".join(lines) + "\n", args.out)
    return _VERDICT_EXIT[outcome.verdict]


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _groupoid_from(args)
    results = engine.classify(g, args.cap)
    rows = [{"entry": entry_id, **outcome.to_dict()} for entry_id, outcome in results]
    input_dict = {"n": g.n, "a": g.a, "b": g.b, "c": g.c}
    if args.format == "json":
        _emit(_envelope("classify", input_dict, rows), args.out)
    elif args.format == "csv":
        _emit(_csv_text(["entry", "verdict", "method"],
                        [[r["entry"], r["verdict"], r["method"]] for r in rows]),
              args.out)
    else:
        lines = [f"groupoid ({g.polynomial_text()}) mod {g.n}; quasigroup: "
                 f"{str(is_quasigroup(g)).lower()}"]
        lines += [f"  {r['entry']:32s} {r['verdict']}" for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    entry_ids = _resolve_entries(args.entries)
    n_values = _parse_range(args.n)
    reports = engine.crosscheck_all(n_values, entry_ids, args.cap, args.workers)
    rows = [report.to_dict() for report in reports]
    # worker count deliberately not echoed: outputs must be byte-identical
    # for identical inputs regardless of parallelism
    input_dict = {"entries": entry_ids, "n_values": n_values}
    if args.format == "json":
        _emit(_envelope("crosscheck", input_dict, rows), args.out)
    elif args.format == "csv":
        _emit(_csv_text(["entry", "row", "checked", "na_excluded", "mismatches"],
                        [[r["entry"], r["row"], r["checked"], r["na_excluded"],
                          r["mismatch_count"]] for r in rows]), args.out)
    else:
        lines = []
        for r in rows:
            status = "ok" if r["mismatch_count"] == 0 else f"{r['mismatch_count']} mismatches"
            lines.append(f"{r['row']:24s} {r['entry']:32s} checked={r['checked']:6d} "
                         f"na={r['na_excluded']:5d} {status}")
        _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def _select_row(entry, args: argparse.Namespace):
    rows = list(entry.rows)
    if args.variant is not None:
        matches = [r for r in rows if r.variant == args.variant]
        if not matches:
            raise DataError(f"entry {entry.id!r} has no row variant {args.variant}")
        return matches[0]
    if args.structure:
        kind = StructureKind.GROUPOID if args.structure == "G" else StructureKind.QUASIGROUP
        rows = [r for r in rows if r.structure_kind is kind]
    if args.modulus:
        mod = ModulusKind.ANY_N if args.modulus == "Zn" else ModulusKind.PRIME_P
        rows = [r for r in rows if r.modulus_kind is mod]
    if not rows:
        raise DataError(f"entry {entry.id!r} has no row matching the selector")
    return rows[0]


def _cmd_search(args: argparse.Namespace) -> int:
    entry = entries_by_id().get(args.entry)
    if entry is None:
        raise DataError(f"unknown catalog entry {args.entry!r}")
    if entry.identity is None:
        raise DataError(f"entry {args.entry!r} has no defining identity")
    row = _select_row(entry, args)
    n_values = _parse_range(args.n)
    witnesses = engine.search_witnesses(entry, row, n_values, args.limit, args.cap)
    rows = [w.to_dict() for w in witnesses]
    input_dict = {"entry": entry.id, "row": row.label(), "n_values": n_values,
                  "limit": args.limit}
    if args.format == "json":
        _emit(_envelope("search", input_dict, rows), args.out)
    elif args.format == "csv":
        _emit(_csv_text(["n", "a", "b", "c", "entry", "row", "structure"],
                        [[w.n, w.a, w.b, w.c, w.entry_id, w.row_label,
                          w.structure_kind] for w in witnesses]), args.out)
    else:
        if not witnesses:
            _emit(f"no witness for {entry.id} [{row.label()}] with n in "
                  f"{n_values[0]}..{n_values[-1]}\n", args.out)
        else:
            lines = [f"({w.n}, {w.a}, {w.b}, {w.c})  {w.entry_id} [{w.row_label}]"
                     for w in witnesses]
            _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def _cmd_table(args: argparse.Namespace) -> int:
    g = _groupoid_from(args)
    table = cayley_table(g)
    latin = is_latin_square(table)
    cells = table.tolist()
    if args.format == "csv":
        _emit("".join(",".join(map(str, row)) + "\n" for row in cells), args.out)
    elif args.format == "json":
        result = {"n": g.n, "a": g.a, "b": g.b, "c": g.c, "cells": cells,
                  "latin": latin, "quasigroup": is_quasigroup(g)}
        _emit(_envelope("table", {"n": g.n, "a": g.a, "b": g.b, "c": g.c},
                        [result]), args.out)
    else:
        width = len(str(g.n - 1))
        lines = [f"x*y = {g.polynomial_text()} (mod {g.n})"]
        lines += [" ".join(f"{v:>{width}}" for v in row) for row in cells]
        lines.append(f"latin: {str(latin).lower()}")
        _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def _cmd_report(args: argparse.Namespace) -> int:
    search_ns = list(range(2, args.search_max + 1))
    check_ns = list(range(2, args.crosscheck_max + 1))
    cells_in_table_order = sorted(
        ((row, entry) for entry in catalog_entries() for row in entry.rows),
        key=lambda pair: (pair[0].table_number, pair[0].variant, pair[1].id))
    swept = [(entry, [i for i, row in enumerate(entry.rows)
                      if row.example_status in (ExampleStatus.BANG,
                                                ExampleStatus.NOT_LISTED)])
             for entry in catalog_entries() if entry.identity is not None]
    reports = {(r.entry_id, r.table_number, r.variant): r for r in
               engine.crosscheck_rows(swept, check_ns, args.cap, args.workers)}
    ledger = engine.verify_examples(args.cap)
    findings = {f.source: f for f in ledger.findings}
    rows = []
    for row, entry in cells_in_table_order:
        cell: dict = {"table": row.table_number, "variant": row.variant,
                      "row": row.label(), "entry": entry.id}
        if entry.identity is None:
            cell["status"] = "unresolved"
            cell["detail"] = "defining identity unknown"
        elif row.example_status is ExampleStatus.GIVEN:
            finding = findings.get(f"table:{row.table_number:02d}.{row.variant}:{entry.id}")
            if finding is None:
                cell["status"] = "confirmed"
                cell["detail"] = f"example {row.example} checks out"
            else:
                cell["status"] = "discrepancy"
                cell["detail"] = finding.observed
        elif row.example_status is ExampleStatus.QUESTION_MARK:
            witnesses = engine.search_witnesses(entry, row, search_ns, 1, args.cap)
            if witnesses:
                w = witnesses[0]
                cell["status"] = "witness_found"
                cell["witness"] = [w.n, w.a, w.b, w.c]
                cell["detail"] = f"witness ({w.n},{w.a},{w.b},{w.c})"
            else:
                cell["status"] = "unresolved"
                cell["detail"] = f"no witness with n up to {args.search_max}"
        else:
            report = reports[(entry.id, row.table_number, row.variant)]
            if report.clean:
                cell["status"] = "confirmed"
                cell["detail"] = (f"condition matches the oracle on n up to "
                                  f"{args.crosscheck_max} ({report.checked} checked)")
            else:
                cell["status"] = "discrepancy"
                first = report.mismatches[0]
                cell["detail"] = (f"{len(report.mismatches)} oracle mismatches, "
                                  f"first at ({first.n},{first.a},{first.b},{first.c})")
        rows.append(cell)
    results = [{"cells": rows, "findings": [f.to_dict() for f in ledger.findings]}]
    input_dict = {"search_max": args.search_max, "crosscheck_max": args.crosscheck_max}
    if args.format == "json":
        _emit(_envelope("report", input_dict, results), args.out)
    elif args.format == "csv":
        _emit(_csv_text(["table", "variant", "entry", "status", "detail"],
                        [[c["table"], c["variant"], c["entry"], c["status"],
                          c["detail"]] for c in rows]), args.out)
    else:
        lines = [f"{c['row']:24s} {c['entry']:32s} {c['status']:14s} {c['detail']}"
                 for c in rows]
        lines.append(f"findings: {len(ledger.findings)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def _cmd_examples_verify(args: argparse.Namespace) -> int:
    ledger = engine.verify_examples(args.cap)
    rows = [f.to_dict() for f in ledger.findings]
    if args.format == "json":
        _emit(_envelope("examples-verify", {}, rows), args.out)
    elif args.format == "csv":
        _emit(_csv_text(["source", "entry", "n", "a", "b", "c", "observed"],
                        [[r["source"], r["entry"], r["n"], r["a"], r["b"], r["c"],
                          r["observed"]] for r in rows]), args.out)
    else:
        if not rows:
            _emit("all cited examples check out\n", args.out)
        else:
            lines = [f"{r['source']}: ({r['n']},{r['a']},{r['b']},{r['c']}) "
                     f"{r['observed']}" for r in rows]
            lines.append(f"{len(rows)} findings")
            _emit("\n".join(lines) + "\n", args.out)
    return EX_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    _emit(export_json(), args.out)
    return EX_OK


# --- argument wiring -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, formats=("json", "csv", "pretty")) -> None:
    p.add_argument("--format", choices=formats, default="pretty")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument("--cap", type=int, default=None,
                   help="evaluation cap per exhaustive check (>= 1000)")


def _add_groupoid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linquas",
                     description="Groupoids and quasigroups from linear bivariate "
                                 "polynomials over Z_n")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="check one identity on one groupoid")
    _add_groupoid(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", help="catalog entry id")
    group.add_argument("--ident", help="identity text in the term grammar")
    p.add_argument("--method", choices=("brute", "symbolic"), default="brute")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="verdicts for the whole catalog")
    _add_groupoid(p)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("crosscheck", help="cross-check conditions against the oracle")
    p.add_argument("--entries", required=True, help="'all' or comma-separated ids")
    p.add_argument("--n", required=True, help="modulus range LO..HI")
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("search", help="search witnesses for a table row")
    p.add_argument("--entry", required=True)
    p.add_argument("--structure", choices=("G", "Q"), default=None)
    p.add_argument("--modulus", choices=("Zn", "Zp"), default=None)
    p.add_argument("--variant", type=int, default=None)
    p.add_argument("--n", required=True, help="modulus range LO..HI")
    p.add_argument("--limit", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table", help="print the multiplication table")
    _add_groupoid(p)
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("report", help="regenerate the characterization table "
                                      "with per-cell status")
    p.add_argument("--search-max", type=int, default=10)
    p.add_argument("--crosscheck-max", type=int, default=8)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("examples-verify", help="verify every cited example cell")
    _add_common(p)
    p.set_defaults(func=_cmd_examples_verify)

    p = sub.add_parser("catalog", help="dump the machine-readable catalog")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog, format="json", cap=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "cap", None) is None:
            args.cap = _default_cap()
        if args.cap < 1000:
            parser.error(f"--cap must be >= 1000, got {args.cap}")
        for flag, least in (("workers", 1), ("limit", 1), ("search_max", 2),
                            ("crosscheck_max", 2)):
            value = getattr(args, flag, least)
            if value < least:
                parser.error(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
        if getattr(args, "variant", None) is not None and (args.structure or args.modulus):
            parser.error("--variant cannot be combined with --structure or --modulus")
        if isinstance(getattr(args, "n", None), int) and args.n < 2:
            parser.error(f"--n must be >= 2, got {args.n}")
        return args.func(args)
    except DataError as exc:
        print(f"linquas: error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except CapExceeded as exc:
        print(f"linquas: cap exceeded: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
