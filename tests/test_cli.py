import builtins
import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from linquas import cli, engine
from linquas.catalog import ExampleStatus, catalog_entries
from linquas.cli import main
from linquas.groupoid import op_tables

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "linquas" / "schema.json")
    .read_text())
CLI_PINS = json.loads((Path(__file__).resolve().parent / "data" / "cli_pins.json")
                      .read_text())["invocations"]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _validate(payload_text: str) -> dict:
    payload = json.loads(payload_text)
    jsonschema.validate(payload, SCHEMA)
    return payload


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_match_cli_pins(capsys):
    # exit code, stdout and stderr of every command in every format, pinned
    # by scripts/regen_pins.py
    drifted = []
    for pin in CLI_PINS:
        code, out, err = _run(capsys, *pin["argv"])
        if (code, _sha256(out), _sha256(err)) != (
                pin["exit"], pin["stdout_sha256"], pin["stderr_sha256"]):
            drifted.append(pin["argv"])
    assert len(CLI_PINS) == 67
    assert drifted == []


def test_unwritable_out_exits_64(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    for argv in (["check", "--n", "6", "--a", "2", "--b", "4", "--c", "2",
                  "--entry", "abel_grassman", "--format", "json"], ["catalog"]):
        code, out, err = _run(capsys, *argv, "--out", str(target))
        assert (code, out) == (64, "")
        assert err == (f"linquas: error: cannot write {target}: "
                       "No such file or directory\n")
    code, _, err = _run(capsys, "table", "--n", "3", "--a", "0", "--b", "1",
                        "--c", "1", "--out", str(tmp_path))
    assert code == 64 and err.startswith(f"linquas: error: cannot write {tmp_path}: ")


def test_crosscheck_without_entry_ids_exits_65(capsys):
    for spec in (",", "", " , "):
        code, out, err = _run(capsys, "crosscheck", "--entries", spec, "--n", "2..4")
        assert (code, out) == (65, "")
        assert err == f"linquas: error: no catalog entry in {spec!r}\n"


def test_check_holds_exit_0(capsys):
    code, out, _ = _run(capsys, "check", "--n", "6", "--a", "2", "--b", "4",
                        "--c", "2", "--entry", "abel_grassman", "--format", "json")
    assert code == 0
    payload = _validate(out)
    assert payload["results"][0]["verdict"] == "holds"
    assert payload["command"] == "check"


def test_check_fails_exit_1(capsys):
    code, out, _ = _run(capsys, "check", "--n", "5", "--a", "0", "--b", "2",
                        "--c", "3", "--ident", "(x*y)*(y*x)=y", "--format", "json")
    assert code == 1
    payload = _validate(out)
    assert payload["results"][0]["verdict"] == "fails"
    assert payload["results"][0]["counterexample"] == {"x": 0, "y": 1}


def test_check_fails_at_the_cap_exit_1(capsys):
    # ~10**7 assignments, the first counterexample in the first row
    argv = ["check", "--n", "3162", "--a", "852", "--b", "1658", "--c", "1925",
            "--entry", "r_aaip", "--format", "json"]
    code, out, _ = _run(capsys, *argv)
    assert code == 1
    result = _validate(out)["results"][0]
    assert (result["verdict"], result["counterexample"]) == ("fails", {"x": 0, "y": 1})
    code, out, _ = _run(capsys, *argv, "--method", "symbolic")
    assert code == 1
    assert _validate(out)["results"][0]["verdict"] == "fails"


def test_check_not_applicable_exit_2(capsys):
    code, out, _ = _run(capsys, "check", "--n", "6", "--a", "2", "--b", "4",
                        "--c", "2", "--entry", "r_aip")
    assert code == 2
    assert "not_applicable" in out


def test_check_symbolic_method(capsys):
    code, out, _ = _run(capsys, "check", "--n", "9", "--a", "2", "--b", "4",
                        "--c", "2", "--entry", "abel_grassman",
                        "--method", "symbolic", "--format", "json")
    assert code == 0
    assert _validate(out)["results"][0]["method"] == "symbolic"


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--a", "2", "--b", "4", "--c", "2", "--entry", "unipotent"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--n", "6", "--a", "0", "--b", "1", "--c", "1",
              "--cap", "10"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["check", "--n", "1", "--a", "0", "--b", "1", "--c", "1", "--entry", "medial"])
    assert exc.value.code == 64
    assert "--n must be >= 2, got 1" in capsys.readouterr().err


def test_search_limit_below_one_exits_64(capsys):
    for limit in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--entry", "stein_third", "--n", "2..7",
                  "--limit", limit])
        assert exc.value.code == 64
        assert "--limit must be >= 1" in capsys.readouterr().err


def test_report_maxima_below_two_exit_64(capsys):
    for flag in ("--search-max", "--crosscheck-max"):
        for value in ("0", "1"):
            with pytest.raises(SystemExit) as exc:
                main(["report", flag, value])
            assert exc.value.code == 64
            assert f"{flag} must be >= 2" in capsys.readouterr().err


def test_search_variant_with_structure_or_modulus_exits_64(capsys):
    for extra in (["--structure", "Q"], ["--modulus", "Zp"]):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--entry", "medial", "--variant", "0", "--n", "2..3",
                  *extra])
        assert exc.value.code == 64
        assert "--variant cannot be combined" in capsys.readouterr().err


def test_unknown_entry_exits_65(capsys):
    code, _, err = _run(capsys, "check", "--n", "6", "--a", "2", "--b", "4",
                        "--c", "2", "--entry", "no_such_law")
    assert code == 65 and "unknown catalog entry" in err
    code, _, err = _run(capsys, "check", "--n", "6", "--a", "2", "--b", "4",
                        "--c", "2", "--ident", "(xy)*z = x")
    assert code == 65 and "bad identity" in err
    for deep in ("(" * 330 + "x" + ")" * 330 + " = x", "rho(" * 330 + "x" + ")" * 330 + " = x",
                 "*".join(["x"] * 496) + " = x"):
        for method in ("brute", "symbolic"):
            code, _, err = _run(capsys, "check", "--n", "3", "--a", "0", "--b", "1", "--c", "1",
                                "--method", method, "--ident", deep)
            assert code == 65 and "bad identity" in err
    for argv, message in (
            (["search", "--entry", "medial", "--variant", "9", "--n", "2..3"],
             "has no row variant 9"),
            (["search", "--entry", "lip", "--modulus", "Zn", "--n", "2..3"],
             "no row matching the selector"),
            (["crosscheck", "--entries", "medial", "--n", "x..3"], "bad range"),
            (["crosscheck", "--entries", "medial", "--n", "3..2"], "bad range"),
            (["crosscheck", "--entries", "medial", "--n", "1..3"], "bad range")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (65, "") and message in err, argv


def test_cap_exceeded_exits_70(capsys, monkeypatch):
    code, _, err = _run(capsys, "check", "--n", "200", "--a", "0", "--b", "1",
                        "--c", "1", "--entry", "medial", "--cap", "100000")
    assert code == 70 and "cap exceeded" in err
    # a cross-check holds every planned (law, n) to the cap before any runs
    oracle_calls, runs = [], []
    holds_bruteforce, task = engine.holds_bruteforce, engine._crosscheck_task
    monkeypatch.setattr(engine, "holds_bruteforce",
                        lambda *args: oracle_calls.append(args) or holds_bruteforce(*args))
    monkeypatch.setattr(engine, "_crosscheck_task",
                        lambda *args: runs.append(args) or task(*args))
    for workers in ("1", "2"):
        code, out, err = _run(capsys, "crosscheck", "--entries", "medial", "--n", "2..6",
                              "--cap", "1000", "--workers", workers)
        assert (code, out) == (70, "")
        assert err == "linquas: cap exceeded: 6**4 assignments exceed the cap of 1000\n"
        assert (oracle_calls, runs) == ([], [])


def test_one_variable_check_past_the_table_cap_exits_70(capsys):
    # 10**6 assignments pass the cap, but the 10**12-cell tables must not
    code, out, err = _run(capsys, "check", "--n", "1000000", "--a", "0", "--b", "1",
                          "--c", "0", "--entry", "idempotent")
    assert (code, out) == (70, "")
    assert err == ("linquas: cap exceeded: 1000000**2 table cells exceed the cap "
                   "of 10000000\n")
    code, _, _ = _run(capsys, "check", "--n", "3162", "--a", "0", "--b", "1",
                      "--c", "0", "--entry", "idempotent")
    assert code == 0


def test_table_past_the_cap_exits_70(capsys):
    code, out, err = _run(capsys, "table", "--n", "32", "--a", "1", "--b", "2",
                          "--c", "3", "--cap", "1000")
    assert (code, out) == (70, "")
    assert err == "linquas: cap exceeded: 32**2 table cells exceed the cap of 1000\n"
    code, _, _ = _run(capsys, "table", "--n", "31", "--a", "1", "--b", "2",
                      "--c", "3", "--cap", "1000")
    assert code == 0


def test_classify_past_the_cap_exits_0(capsys):
    # inapplicable laws take their reason from one evaluation, not an n**k scan
    code, out, _ = _run(capsys, "classify", "--n", "520", "--a", "2", "--b", "4",
                        "--c", "2", "--format", "json")
    assert code == 0
    verdicts = {r["verdict"] for r in _validate(out)["results"]}
    assert verdicts == {"holds", "fails", "not_applicable"}


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LINQUAS_CAP", "100000")
    code, _, err = _run(capsys, "check", "--n", "200", "--a", "0", "--b", "1",
                        "--c", "1", "--entry", "medial")
    assert code == 70
    monkeypatch.setenv("LINQUAS_CAP", "999")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--n", "3", "--a", "0", "--b", "1", "--c", "1",
              "--entry", "medial"])
    assert exc.value.code == 64
    capsys.readouterr()
    monkeypatch.setenv("LINQUAS_CAP", "abc")
    code, out, err = _run(capsys, "check", "--n", "3", "--a", "0", "--b", "1", "--c", "1",
                          "--entry", "medial")
    assert (code, out) == (65, "")
    assert err == "linquas: error: LINQUAS_CAP must be an integer, got 'abc'\n"


@pytest.mark.parametrize("cap", ["abc", "5"])
def test_catalog_reads_no_cap(capsys, monkeypatch, cap):
    # catalog has no --cap, so LINQUAS_CAP is neither read nor validated
    expected = _run(capsys, "catalog")
    monkeypatch.setenv("LINQUAS_CAP", cap)
    assert _run(capsys, "catalog") == expected


@pytest.mark.parametrize("command", [["search", "--entry", "medial"],
                                     ["crosscheck", "--entries", "medial"]])
def test_a_range_too_long_to_list_exits_70(capsys, monkeypatch, command):
    # Listing 2..10**11 would take 800 GB; this list refuses any range past
    # 10**6 items, as the allocator would, before allocating it.  Exit 1
    # is the fails verdict's, so running out of memory exits 70.
    def refusing(items=()):
        if isinstance(items, range) and len(items) > 10**6:
            raise MemoryError
        return builtins.list(items)

    monkeypatch.setattr(cli, "list", refusing, raising=False)
    code, out, err = _run(capsys, *command, "--n", "2..100000000000")
    assert (code, out, err) == (70, "", "linquas: out of memory\n")


def test_table_csv_exact(capsys):
    code, out, _ = _run(capsys, "table", "--n", "3", "--a", "0", "--b", "1",
                        "--c", "1", "--format", "csv")
    assert code == 0
    assert out == "0,1,2\n1,2,0\n2,0,1\n"


def test_table_pretty_latin_flags(capsys):
    code, out, _ = _run(capsys, "table", "--n", "6", "--a", "1", "--b", "5",
                        "--c", "5", "--format", "pretty")
    assert code == 0 and "latin: true" in out
    code, out, _ = _run(capsys, "table", "--n", "6", "--a", "2", "--b", "4",
                        "--c", "2")
    assert code == 0 and "latin: false" in out


def test_table_json_schema(capsys):
    code, out, _ = _run(capsys, "table", "--n", "6", "--a", "1", "--b", "5",
                        "--c", "5", "--format", "json")
    assert code == 0
    payload = _validate(out)
    assert payload["results"][0]["latin"] is True
    assert payload["results"][0]["cells"][0] == [1, 0, 5, 4, 3, 2]


def test_negative_coefficients_normalized(capsys):
    _, minus, _ = _run(capsys, "table", "--n", "6", "--a", "2", "--b", "-1",
                       "--c", "1", "--format", "csv")
    _, plus, _ = _run(capsys, "table", "--n", "6", "--a", "2", "--b", "5",
                      "--c", "1", "--format", "csv")
    assert minus == plus


def test_classify_json(capsys):
    code, out, _ = _run(capsys, "classify", "--n", "6", "--a", "2", "--b", "5",
                        "--c", "1", "--format", "json")
    assert code == 0
    payload = _validate(out)
    verdicts = {r["entry"]: r["verdict"] for r in payload["results"]}
    assert verdicts["unipotent"] == "holds"
    assert verdicts["medial"] == "holds"


def test_classify_group_includes_associative(capsys):
    code, out, _ = _run(capsys, "classify", "--n", "3", "--a", "0", "--b", "1",
                        "--c", "1", "--format", "json")
    verdicts = {r["entry"]: r["verdict"] for r in json.loads(out)["results"]}
    assert verdicts["associative"] == "holds"
    code, out, _ = _run(capsys, "classify", "--n", "7", "--a", "3", "--b", "5",
                        "--c", "5", "--format", "json")
    verdicts = {r["entry"]: r["verdict"] for r in json.loads(out)["results"]}
    assert all(verdicts[f"c_{i}"] == "holds" for i in range(1, 7))
    assert all(verdicts[f"cm_{i}"] == "holds" for i in range(1, 15))


def test_crosscheck_clean_entries(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = _run(capsys, "crosscheck", "--entries",
                      "unipotent,commutative,abel_grassman", "--n", "2..8",
                      "--format", "json", "--out", str(out_file))
    assert code == 0
    payload = _validate(out_file.read_text())
    assert all(r["mismatch_count"] == 0 for r in payload["results"])
    _, single, _ = _run(capsys, "crosscheck", "--entries", "medial", "--n", "4",
                        "--format", "json")
    _, span, _ = _run(capsys, "crosscheck", "--entries", "medial", "--n", "4..4",
                      "--format", "json")
    assert single == span
    code, out, _ = _run(capsys, "crosscheck", "--entries", "all", "--n", "2..3",
                        "--format", "csv")
    # one CSV row per row of every law with an identity, after the header
    assert code == 0
    assert len(out.splitlines()) - 1 == 227 == sum(
        len(e.rows) for e in catalog_entries() if e.identity is not None)


def test_crosscheck_repeated_entry_is_swept_once(capsys):
    for fmt in ("json", "csv", "pretty"):
        _, once, _ = _run(capsys, "crosscheck", "--entries", "medial", "--n", "2..3",
                          "--format", fmt)
        code, twice, _ = _run(capsys, "crosscheck", "--entries", "medial, medial,",
                              "--n", "2..3", "--format", fmt)
        assert code == 0 and twice == once


def test_crosscheck_output_independent_of_workers(capsys):
    # --workers is accepted and changes no byte
    args = ["crosscheck", "--entries", "unipotent,medial", "--n", "2..6",
            "--format", "json"]
    _, one, _ = _run(capsys, *args, "--workers", "1")
    _, two, _ = _run(capsys, *args, "--workers", "2")
    assert one == two


def test_search_finds_pinned_witness(capsys):
    code, out, _ = _run(capsys, "search", "--entry", "stein_third",
                        "--structure", "G", "--modulus", "Zn", "--n", "2..5",
                        "--limit", "1", "--format", "json")
    assert code == 0
    payload = _validate(out)
    w = payload["results"][0]
    assert (w["n"], w["a"], w["b"], w["c"]) == (5, 0, 1, 3)
    code, out, _ = _run(capsys, "search", "--entry", "stein_third", "--variant", "2",
                        "--n", "2..5", "--format", "json")
    assert code == 0
    w = _validate(out)["results"][0]
    assert (w["n"], w["a"], w["b"], w["c"]) == (5, 1, 1, 3)


def test_search_certified_empty(capsys):
    code, out, _ = _run(capsys, "search", "--entry", "schroder_second",
                        "--structure", "Q", "--modulus", "Zn", "--n", "2..8",
                        "--format", "json")
    assert code == 0
    assert _validate(out)["results"] == []


def test_examples_verify_json(capsys):
    code, out, _ = _run(capsys, "examples-verify", "--format", "json")
    assert code == 0
    payload = _validate(out)
    sources = [r["source"] for r in payload["results"]]
    assert "text:stein_third:groupoid" in sources


def test_report_statuses(capsys, monkeypatch):
    calls = []
    crosscheck_rows = engine.crosscheck_rows
    monkeypatch.setattr(engine, "crosscheck_rows",
                        lambda *args: calls.append(args) or crosscheck_rows(*args))
    examples = []
    check_example = engine.check_example
    monkeypatch.setattr(engine, "check_example",
                        lambda *args: examples.append(args[0]) or check_example(*args))
    code, out, _ = _run(capsys, "report", "--search-max", "5",
                        "--crosscheck-max", "4", "--format", "json")
    assert code == 0
    assert len(calls) == 1  # one sweep shared by every cross-checked cell
    assert len(examples) == len(set(examples))  # each example checked once
    payload = _validate(out)
    cells = {(c["table"], c["variant"]): c for c in payload["results"][0]["cells"]}
    assert cells[(2, 0)]["status"] == "confirmed"
    assert cells[(16, 0)]["status"] == "unresolved"
    assert cells[(14, 0)]["status"] == "witness_found"
    assert cells[(14, 0)]["witness"] == [5, 0, 1, 3]
    assert cells[(14, 2)]["status"] == "discrepancy"
    # a cited example cell reports its ledger finding
    findings = {f["source"]: f["observed"] for f in payload["results"][0]["findings"]}
    given = [(c, findings.get(f"table:{c['table']:02d}.{c['variant']}:{c['entry']}"))
             for c in payload["results"][0]["cells"]]
    assert any(observed for _, observed in given)
    for cell, observed in given:
        if observed:
            assert (cell["status"], cell["detail"]) == ("discrepancy", observed)


def test_report_searches_evaluate_each_law_and_triple_once(monkeypatch):
    # `report --search-max 6` searches every `?` cell, and the rows of one
    # law revisit the same triples: 600 oracle calls over 480 distinct
    # (law, triple) pairs.  The oracle's memo evaluates each pair once, as
    # one block of two sides (engine._eval_stack).
    from test_engine import _top_level_evals

    op_tables.cache_clear()
    calls = []
    oracle = engine.holds_bruteforce
    monkeypatch.setattr(engine, "holds_bruteforce", lambda g, ident, cap: calls.append(
        (ident, g.triple())) or oracle(g, ident, cap))
    evals = _top_level_evals(monkeypatch)
    for entry in catalog_entries():
        for row in entry.rows:
            if entry.identity is not None and row.example_status is ExampleStatus.QUESTION_MARK:
                engine.search_witnesses(entry, row, list(range(2, 7)), 1, engine.DEFAULT_CAP)
    assert (len(calls), len(set(calls))) == (600, 480)
    assert len(evals) == 2 * 480


def test_catalog_command(capsys):
    code, out, _ = _run(capsys, "catalog")
    assert code == 0
    payload = json.loads(out)
    assert any(item["id"] == "medial" for item in payload)
