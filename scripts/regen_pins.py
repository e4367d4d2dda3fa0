#!/usr/bin/env python3
"""Regenerate the pinned regression artifacts under tests/data/.

The pins freeze machine-computed results: the example-verification ledger,
per-row cross-check summaries over n = 2..12, the witness-search outputs
for the unanswered table cells, and the exit code and stdout/stderr digests
of a fixed list of CLI invocations.  Tests compare fresh runs against these files;
any drift is a regression (or a deliberate catalog change, in which case this
script is rerun and the diff reviewed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linquas import __version__, cli, engine
from linquas.catalog import ModulusKind, get_entry

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

CROSSCHECK_RANGE = list(range(2, 13))
SEARCH_MAX_ANY = 12
SEARCH_MAX_PRIME = 13
SEARCHED_CELLS = [
    ("stein_third", 14, 0),
    ("stein_third", 14, 1),
    ("schroder_second", 13, 1),
    ("schroder_second", 13, 2),
    ("schroder_second", 13, 3),
    ("lip", 43, 0),
    ("lip", 43, 1),
    ("rip", 44, 0),
    ("rip", 44, 1),
]

# Each runs once per --format; `catalog` has no --format and runs once.
CLI_INVOCATIONS = [
    ["check", "--n", "6", "--a", "2", "--b", "4", "--c", "2", "--entry", "abel_grassman"],
    ["check", "--n", "5", "--a", "0", "--b", "2", "--c", "3", "--ident", "(x*y)*(y*x)=y"],
    ["check", "--n", "6", "--a", "2", "--b", "4", "--c", "2", "--entry", "r_aip"],
    ["check", "--n", "9", "--a", "2", "--b", "4", "--c", "2", "--entry", "abel_grassman",
     "--method", "symbolic"],
    ["check", "--n", "7", "--a", "1", "--b", "3", "--c", "5",
     "--ident", "x\\(x*y) = (y/x)*x"],
    ["check", "--n", "7", "--a", "1", "--b", "3", "--c", "5",
     "--ident", "rho(x)\\(y/el(x)) = x\\(x*y)"],
    ["check", "--n", "6", "--a", "1", "--b", "2", "--c", "3",
     "--ident", "rho(x)\\(y/el(x)) = x\\(x*y)"],
    ["check", "--n", "200", "--a", "0", "--b", "1", "--c", "1", "--entry", "medial",
     "--cap", "100000"],
    ["check", "--n", "11", "--a", "3", "--b", "5", "--c", "5", "--entry", "cm_7"],
    ["check", "--n", "6", "--a", "2", "--b", "4", "--c", "2", "--entry", "no_such_law"],
    ["check", "--n", "6", "--a", "2", "--b", "4", "--c", "2", "--entry", "slim"],
    ["classify", "--n", "6", "--a", "2", "--b", "5", "--c", "1"],
    ["classify", "--n", "2147483647", "--a", "0", "--b", "0", "--c", "0"],
    ["crosscheck", "--entries", "unipotent,medial,stein_third", "--n", "2..6",
     "--workers", "2"],
    ["crosscheck", "--entries", "medial,slim", "--n", "2..6"],
    ["search", "--entry", "stein_third", "--structure", "G", "--modulus", "Zn",
     "--n", "2..5"],
    ["search", "--entry", "schroder_second", "--structure", "Q", "--modulus", "Zn",
     "--n", "2..8"],
    ["search", "--entry", "medial", "--n", "2..4", "--limit", "3"],
    ["table", "--n", "6", "--a", "1", "--b", "5", "--c", "5"],
    ["table", "--n", "6", "--a", "2", "--b", "4", "--c", "2"],
    ["report", "--search-max", "5", "--crosscheck-max", "4"],
    ["examples-verify"],
]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def regen_example_findings() -> dict:
    return {
        "tool_version": __version__,
        "findings": [f.to_dict() for f in engine.verify_examples()],
    }


def regen_crosscheck_pins() -> dict:
    reports = engine.crosscheck_all(CROSSCHECK_RANGE)
    rows = []
    for report in reports:
        mismatches = [m.to_list() for m in report.mismatches]
        rows.append({
            "entry": report.entry_id,
            "table": report.table_number,
            "variant": report.variant,
            "row": report.row_label,
            "n_values": report.n_values,
            "checked": report.checked,
            "na_excluded": report.na_excluded,
            "mismatch_count": len(mismatches),
            "first_mismatches": mismatches[:5],
            "mismatch_digest": _digest(mismatches),
        })
    return {"tool_version": __version__, "n_range": CROSSCHECK_RANGE, "rows": rows}


def regen_witness_pins() -> dict:
    cells = []
    for entry_id, table, variant in SEARCHED_CELLS:
        entry = get_entry(entry_id)
        row = next(r for r in entry.rows
                   if r.table_number == table and r.variant == variant)
        hi = (SEARCH_MAX_PRIME if row.modulus_kind is ModulusKind.PRIME_P
              else SEARCH_MAX_ANY)
        witnesses = engine.search_witnesses(entry, row, list(range(2, hi + 1)), limit=1)
        first = witnesses[0] if witnesses else None
        cells.append({
            "entry": entry_id,
            "table": table,
            "variant": variant,
            "row": row.label(),
            "n_max": hi,
            "witness": [first.n, first.a, first.b, first.c] if first else None,
            "certified_empty": not witnesses,
        })
    return {"tool_version": __version__, "cells": cells}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def regen_cli_pins() -> dict:
    """Exit code and output digests of each invocation, run in this process."""
    runs = [argv + ["--format", fmt] for argv in CLI_INVOCATIONS
            for fmt in ("json", "csv", "pretty")] + [["catalog"]]
    pins = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        pins.append({"argv": argv, "exit": code, "stdout_sha256": _sha256(out.getvalue()),
                     "stderr_sha256": _sha256(err.getvalue())})
    return {"tool_version": __version__, "invocations": pins}


def main() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    outputs = {
        "example_findings.json": regen_example_findings(),
        "crosscheck_pins.json": regen_crosscheck_pins(),
        "witness_pins.json": regen_witness_pins(),
        "cli_pins.json": regen_cli_pins(),
    }
    for name, payload in outputs.items():
        path = DATA_DIR / name
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
