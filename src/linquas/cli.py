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
from itertools import chain
from typing import Iterable, NamedTuple

from . import __version__
from . import engine
from .catalog import (ExampleStatus, IdentityEntry, ModulusKind, StructureKind,
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


def _default_cap() -> int:
    env = os.environ.get("LINQUAS_CAP")
    if not env:
        return engine.DEFAULT_CAP
    try:
        return int(env)
    except ValueError:
        raise DataError(f"LINQUAS_CAP must be an integer, got {env!r}") from None


def _law(entry_id: str) -> IdentityEntry:
    """The catalog entry with a defining identity, or a DataError."""
    entry = entries_by_id().get(entry_id)
    if entry is None:
        raise DataError(f"unknown catalog entry {entry_id!r}")
    if entry.identity is None:
        raise DataError(f"entry {entry_id!r} has no defining identity")
    return entry


def _resolve_entries(spec: str) -> list[str]:
    if spec == "all":
        return [e.id for e in catalog_entries() if e.identity is not None]
    ids = list(dict.fromkeys(_law(token.strip()).id for token in spec.split(",")
                             if token.strip()))
    if not ids:
        raise DataError(f"no catalog entry in {spec!r}")
    return ids


class _Result(NamedTuple):
    """One command's output: the JSON input and results, the CSV header (None
    for no header row) and rows, the pretty lines, and the exit code.  Rows
    and lines may be generators, so only the format asked for is built."""

    input: dict
    results: list
    header: list[str] | None
    rows: Iterable[list]
    pretty: Iterable[str]
    code: int = EX_OK


def _columns(dicts: list[dict], keys: list[str]) -> Iterable[list]:
    return ([d[key] for key in keys] for d in dicts)


def _write(args: argparse.Namespace, result: _Result | str) -> int:
    """Render the result in --format and write it to --out or stdout, the
    only place that does either; a str (catalog's JSON) is written as it is.
    Returns the exit code."""
    code = EX_OK if isinstance(result, str) else result.code
    if isinstance(result, str):
        text = result
    elif args.format == "json":
        text = json.dumps({"tool_version": __version__, "command": args.command,
                           "input": result.input, "results": result.results},
                          indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if result.header is not None:
            writer.writerow(result.header)
        writer.writerows(result.rows)
        text = buf.getvalue()
    else:
        text = "\n".join(result.pretty) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"linquas: error: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return EX_USAGE
    return code


# --- commands ----------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> _Result:
    g = LinearGroupoid(args.n, args.a, args.b, args.c)
    if args.entry:
        ident, label = _law(args.entry).identity, args.entry
    else:
        try:
            ident = parse(args.ident)
        except TermSyntaxError as exc:
            raise DataError(f"bad identity: {exc}") from None
        label = args.ident
    outcome = (engine.holds_symbolic(g, ident) if args.method == "symbolic"
               else engine.holds_bruteforce(g, ident, args.cap))
    detail = (json.dumps(outcome.counterexample) if outcome.counterexample
              else outcome.na_reason or "")
    pretty = [f"{label}: {outcome.verdict.value} ({outcome.method.value})"]
    if outcome.counterexample:
        pretty.append(f"  counterexample: {outcome.counterexample}")
    if outcome.na_reason:
        pretty.append(f"  reason: {outcome.na_reason}")
    return _Result({**dict(zip("nabc", g.triple())), "identity": label},
                   [{"identity": label, **outcome.to_dict()}],
                   ["identity", "verdict", "method", "detail"],
                   [[label, outcome.verdict.value, outcome.method.value, detail]],
                   pretty, _VERDICT_EXIT[outcome.verdict])


def _cmd_classify(args: argparse.Namespace) -> _Result:
    g = LinearGroupoid(args.n, args.a, args.b, args.c)
    rows = [{"entry": entry_id, **outcome.to_dict()}
            for entry_id, outcome in engine.classify(g)]
    header = ["entry", "verdict", "method"]
    head = (f"groupoid ({g.polynomial_text()}) mod {g.n}; quasigroup: "
            f"{str(is_quasigroup(g)).lower()}")
    return _Result(dict(zip("nabc", g.triple())), rows, header, _columns(rows, header),
                   chain([head], (f"  {r['entry']:32s} {r['verdict']}" for r in rows)))


def _cmd_crosscheck(args: argparse.Namespace) -> _Result:
    entry_ids = _resolve_entries(args.entries)
    n_values = _parse_range(args.n)
    reports = engine.crosscheck_all(n_values, entry_ids, args.cap)
    rows = [report.to_dict() for report in reports]
    # --workers is accepted, ignored by the engine and not echoed: the
    # output is the same bytes whatever it is
    return _Result(
        {"entries": entry_ids, "n_values": n_values}, rows,
        ["entry", "row", "checked", "na_excluded", "mismatches"],
        _columns(rows, ["entry", "row", "checked", "na_excluded", "mismatch_count"]),
        (f"{r['row']:24s} {r['entry']:32s} checked={r['checked']:6d} "
         f"na={r['na_excluded']:5d} "
         + ("ok" if r["mismatch_count"] == 0 else f"{r['mismatch_count']} mismatches")
         for r in rows))


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


def _cmd_search(args: argparse.Namespace) -> _Result:
    entry = _law(args.entry)
    row = _select_row(entry, args)
    n_values = _parse_range(args.n)
    rows = [w.to_dict() for w in
            engine.search_witnesses(entry, row, n_values, args.limit, args.cap)]
    header = ["n", "a", "b", "c", "entry", "row", "structure"]
    pretty = ((f"({w['n']}, {w['a']}, {w['b']}, {w['c']})  {w['entry']} [{w['row']}]"
               for w in rows) if rows else
              [f"no witness for {entry.id} [{row.label()}] with n in "
               f"{n_values[0]}..{n_values[-1]}"])
    return _Result({"entry": entry.id, "row": row.label(), "n_values": n_values,
                    "limit": args.limit}, rows, header, _columns(rows, header), pretty)


def _cmd_table(args: argparse.Namespace) -> _Result:
    g = LinearGroupoid(args.n, args.a, args.b, args.c)
    engine._check_cap(g.n, 0, args.cap)  # a table alone: no variables
    table = cayley_table(g)
    latin = is_latin_square(table)
    cells = table.tolist()
    width = len(str(g.n - 1))
    triple = dict(zip("nabc", g.triple()))
    return _Result(triple, [{**triple, "cells": cells, "latin": latin,
                             "quasigroup": is_quasigroup(g)}], None, cells,
                   chain([f"x*y = {g.polynomial_text()} (mod {g.n})"],
                         (" ".join(f"{v:>{width}}" for v in row) for row in cells),
                         [f"latin: {str(latin).lower()}"]))


def _cmd_report(args: argparse.Namespace) -> _Result:
    search_ns = list(range(2, args.search_max + 1))
    cells_in_table_order = sorted(
        ((row, entry) for entry in catalog_entries() for row in entry.rows),
        key=lambda pair: (pair[0].table_number, pair[0].variant, pair[1].id))
    swept = [(entry, [row for row in entry.rows
                      if row.example_status in (ExampleStatus.BANG,
                                                ExampleStatus.NOT_LISTED)])
             for entry in catalog_entries() if entry.identity is not None]
    reports = {(r.entry_id, r.table_number, r.variant): r for r in engine.crosscheck_rows(
        swept, list(range(2, args.crosscheck_max + 1)), args.cap)}
    ledger = engine.verify_examples(args.cap)
    findings = {f.source: f for f in ledger}
    rows = []
    for row, entry in cells_in_table_order:
        cell: dict = {"table": row.table_number, "variant": row.variant,
                      "row": row.label(), "entry": entry.id}
        if entry.identity is None:
            cell.update(status="unresolved", detail="defining identity unknown")
        elif row.example_status is ExampleStatus.GIVEN:
            finding = findings.get(engine.table_source(entry, row))
            if finding is None:
                cell.update(status="confirmed", detail=f"example {row.example} checks out")
            else:
                cell.update(status="discrepancy", detail=finding.observed)
        elif row.example_status is ExampleStatus.QUESTION_MARK:
            witnesses = engine.search_witnesses(entry, row, search_ns, 1, args.cap)
            if witnesses:
                w = witnesses[0]
                cell.update(status="witness_found", witness=[w.n, w.a, w.b, w.c],
                            detail=f"witness ({w.n},{w.a},{w.b},{w.c})")
            else:
                cell.update(status="unresolved",
                            detail=f"no witness with n up to {args.search_max}")
        else:
            report = reports[(entry.id, row.table_number, row.variant)]
            if report.clean:
                cell.update(status="confirmed", detail=(
                    f"condition matches the oracle on n up to {args.crosscheck_max} "
                    f"({report.checked} checked)"))
            else:
                first = report.mismatches[0]
                cell.update(status="discrepancy", detail=(
                    f"{len(report.mismatches)} oracle mismatches, "
                    f"first at ({first.n},{first.a},{first.b},{first.c})"))
        rows.append(cell)
    header = ["table", "variant", "entry", "status", "detail"]
    return _Result(
        {"search_max": args.search_max, "crosscheck_max": args.crosscheck_max},
        [{"cells": rows, "findings": [f.to_dict() for f in ledger]}],
        header, _columns(rows, header),
        chain((f"{c['row']:24s} {c['entry']:32s} {c['status']:14s} {c['detail']}"
               for c in rows), [f"findings: {len(ledger)}"]))


def _cmd_examples_verify(args: argparse.Namespace) -> _Result:
    rows = [f.to_dict() for f in engine.verify_examples(args.cap)]
    header = ["source", "entry", "n", "a", "b", "c", "observed"]
    pretty = (chain((f"{r['source']}: ({r['n']},{r['a']},{r['b']},{r['c']}) "
                     f"{r['observed']}" for r in rows), [f"{len(rows)} findings"])
              if rows else ["all cited examples check out"])
    return _Result({}, rows, header, _columns(rows, header), pretty)


# --- argument wiring -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, formats=("json", "csv", "pretty")) -> None:
    p.add_argument("--format", choices=formats, default="pretty")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument("--cap", type=int, default=None,
                   help="evaluation cap per exhaustive check (>= 1000)")


def _add_groupoid(p: argparse.ArgumentParser) -> None:
    for flag in ("--n", "--a", "--b", "--c"):  # LinearGroupoid reduces a, b, c mod n
        p.add_argument(flag, type=int, required=True)


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
    p.set_defaults(func=lambda args: export_json())

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "cap" in vars(args) and args.cap is None:  # catalog has no --cap
            args.cap = _default_cap()
        if getattr(args, "cap", 1000) < 1000:
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
        return _write(args, args.func(args))
    except DataError as exc:
        print(f"linquas: error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except CapExceeded as exc:
        print(f"linquas: cap exceeded: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except MemoryError:  # e.g. an --n range too long to list; exit 1 is a verdict's
        print("linquas: out of memory", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
