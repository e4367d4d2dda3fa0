#!/usr/bin/env python3
"""The linquas benchmark.

    python3 perfbench/run.py --workload crosscheck|queries|large_n \
        --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from `src/`).  Each
pass starts a fresh interpreter; passes repeat the seed's inputs until S
seconds have gone by.  Every output is checked.  The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`).
A readable summary goes to stderr, and the full result with its provenance
to `.perfbench_out/`.  Exit code 0 when every output checks, 1 when one does
not, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 3
DEADLINE_S = 170       # every run must end within 180 s
# The median times of the reference units in onepass.py on the baseline
# machine (2 vCPUs, Python 3.11, numpy 2.4) when no other tenant loads it;
# `queries` and `large_n` times are scaled to that speed, see `speed`.
REFERENCE_UNIT_S = {"reference_unit": 1.0e-3, "memory_reference_unit": 35e-3}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class PassError(RuntimeError):
    """A pass interpreter failed or timed out."""


def keep_going(start: float, seconds: float, deadline: float, last: float) -> bool:
    """Another pass (or cycle) fits in the run's seconds and before the
    deadline; `last` is how long the previous one took."""
    now = time.monotonic()
    return now - start < seconds and now + 2 * last < deadline


def run_pass(spec: dict, mode: str, deadline: float, **extra) -> dict:
    payload = json.dumps({**spec, "mode": mode, **extra})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PassError(f"no time left for a {mode} pass")
    # its own process group, so that a pass that overruns is stopped together
    # with its pool workers
    with subprocess.Popen([sys.executable, str(HERE / "onepass.py")], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(payload, timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassError(f"{mode} pass did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def build_inputs(workload: str, seed: int) -> dict:
    if workload == "crosscheck":
        return workloads.crosscheck_inputs(seed)
    if workload == "large_n":
        return workloads.large_n_inputs(seed)
    sys.path.insert(0, str(ROOT / "src"))
    from linquas.catalog import catalog_entries
    rows = [(e.id, r.table_number, r.variant)
            for e in catalog_entries() if e.identity is not None for r in e.rows]
    pins_file = ROOT / "tests" / "data" / "witness_pins.json"
    pinned = {(p["entry"], p["table"], p["variant"]): p["witness"]
              for p in json.loads(pins_file.read_text(encoding="utf-8"))["cells"]}
    return workloads.queries_inputs(seed, rows, pinned)


def provenance(args, spec: dict, numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linquas").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy_version,
            "workers": spec["workers"], "cap": spec["cap"]}


def percentile_ms(samples: list[float], q: int) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(samples)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1] * 1000


class Ledger:
    """Outputs produced and outputs failing their check, over every pass.

    The first workload pass of a run is checked in full; every later pass
    replays the same inputs and must give byte-identical outputs (compared
    by digest), so it fails where the first pass failed and wherever it
    differs from it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []
        self.reference: list[str] | None = None
        self.bad: set[int] = set()

    def add(self, result: dict) -> None:
        digests = result["output_digests"]
        self.attempted += result["attempted"]
        if self.reference is None:
            self.reference = digests
            self.bad = {index for index, _ in result["failures"]}
            self.findings.extend(message for _, message in result["failures"])
            self.failed += len(self.bad)
            return
        differ = {i for i in range(max(len(digests), len(self.reference)))
                  if digests[i:i + 1] != self.reference[i:i + 1]}
        if differ:
            self.findings.append(f"{len(differ)} outputs differ from the checked first pass")
        self.failed += len(self.bad | differ)


def speed(result: dict) -> float:
    """How much faster the machine ran during a pass than the unloaded
    baseline machine: the reference unit's REFERENCE_UNIT_S over its median
    time through the pass.  Other tenants of the host move the speed of a
    core by tens of percent for seconds to minutes at a time.  `queries`
    times `reference_unit` every 100 requests of its one-process session,
    and `large_n` times `memory_reference_unit` between its checks; each
    follows the speed its workload sees, and no change to linquas can move
    it.  `crosscheck` is not scaled (speed 1): its work runs in pool
    processes, and no reference unit followed it."""
    if "reference_s" not in result:
        return 1.0
    return REFERENCE_UNIT_S[result["reference_unit"]] / median(result["reference_s"])


def session_s(passes: list[dict], scaled: bool = True) -> float:
    """The time of one pass: the sum, over the requests of a pass, of each
    request's median latency across the passes, each scaled by its pass's
    speed.  Every pass makes the same requests in the same order from a
    cold start, so request i is alike in every pass; a burst of
    interference that slows a request in fewer than half of the passes
    drops out, where it would stay in the sum of one pass."""
    scales = [speed(p) if scaled else 1.0 for p in passes]
    per_pass = ([t * scale for t in p["latencies"]] for p, scale in zip(passes, scales))
    return sum(median(times) for times in zip(*per_pass))


def end_to_end(spec: dict, seconds: float, deadline: float, ledger: Ledger,
               setups: list[dict]) -> tuple[dict, dict]:
    passes = []
    start = last = time.monotonic()
    while len(passes) < MIN_PASSES or keep_going(start, seconds, deadline, time.monotonic() - last):
        last = time.monotonic()
        result = run_pass(spec, "workers", deadline, check=not passes)
        ledger.add(result)
        setups.append(result["setup"])
        passes.append(result)
    wall_s = session_s(passes)
    metrics = {
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        "setup_s": (median([s["setup_s"] for s in setups]), "s"),
    }
    extra = {"passes": len(passes), "unscaled_wall_s": session_s(passes, scaled=False),
             "speed": median(speed(p) for p in passes),
             "wall_s_each": [p["wall_s"] for p in passes],
             "speed_each": [speed(p) for p in passes]}
    if spec["workload"] == "queries":
        kinds = [request[0] for request in spec["requests"]]
        for kind in ("search", "classify"):
            of_kind = [[t for k, t in zip(kinds, p["latencies"]) if k == kind] for p in passes]
            samples = [t for times in of_kind for t in times]
            extra[f"{kind}_p50_ms"] = percentile_ms(samples, 50)
            extra[f"{kind}_p95_ms"] = percentile_ms(samples, 95)
            extra[f"{kind}_samples"] = len(samples)
            # the part of `wall_s` this request kind takes
            extra[f"{kind}_share"] = (sum(median(ts) for ts in zip(*of_kind))
                                      / extra["unscaled_wall_s"])
        extra["empty_scan_s"] = median(sum(p["tail_s"]) for p in passes)
    if spec["workload"] == "large_n":
        extra["check_s_each"] = [p["latencies"] for p in passes]
    return metrics, extra


def per_layer(spec: dict, seconds: float, deadline: float, ledger: Ledger,
              setups: list[dict], trace_out: Path) -> tuple[dict, dict]:
    """Cycles of (pass at the workload's workers if above 1, 1-worker pass,
    traced 1-worker pass).  Tracing runs at 1 worker because forked pool
    children would lose their spans."""
    workers = spec["workers"]
    pool_s, plain_s, traced = [], [], []
    start = last = time.monotonic()
    while not traced or keep_going(start, seconds, deadline, time.monotonic() - last):
        last = time.monotonic()
        cycle = []
        if workers > 1:
            cycle.append(run_pass(spec, "workers", deadline, check=not traced))
            pool_s.append(cycle[-1]["wall_s"])
        # the untraced and traced passes run back to back, so that the
        # overhead compares two passes made at the same machine speed
        plain = run_pass(spec, "plain", deadline, check=not traced and not cycle)
        result = run_pass(spec, "traced", deadline, check=False, trace_out=str(trace_out))
        for r in (*cycle, plain, result):
            ledger.add(r)
            setups.append(r["setup"])
        plain_s.append(plain["wall_s"] * speed(plain))
        traced.append(result)
    first = traced[0]
    for other in traced[1:]:
        if (other["counts"], other["oracle"]) != (first["counts"], first["oracle"]):
            ledger.failed += 1
            ledger.findings.append("traced counts differ between passes with the same inputs")
    layers = {name: {stat: median([t["layers"].get(name, {}).get(stat, 0.0) for t in traced])
                     for stat in ("calls", "s", "self_s")}
              for name in set().union(*(t["layers"] for t in traced))}
    counts, oracle = first["counts"], first["oracle"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def layer(name):
        return layers.get(name, zero)

    hits, misses = counts.get("op_tables.hits", 0), counts.get("op_tables.misses", 0)
    admits = counts.get("row_sweep_admits.admitted", 0)
    bf_self = layer("engine.holds_bruteforce")["self_s"]
    t1 = median(plain_s)
    metrics = {
        "groupoid.op_tables.calls": (layer("groupoid.op_tables")["calls"], "count"),
        "groupoid.op_tables.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "groupoid.op_tables.s": (layer("groupoid.op_tables")["s"], "s"),
        "engine.holds_bruteforce.calls": (oracle["calls"], "count"),
        "engine.holds_bruteforce.self_s": (bf_self, "s"),
        "engine.holds_bruteforce.assignments": (oracle["assignments"], "count"),
        "engine.holds_bruteforce.node_evals": (oracle["node_evals"], "count"),
        "engine.holds_bruteforce.ns_per_node_eval": (bf_self * 1e9 / oracle["node_evals"], "ns"),
        "engine.holds_bruteforce.distinct_share": (oracle["distinct_share"], "ratio"),
        "engine.holds_bruteforce.useful_share": (oracle["useful_share"], "ratio"),
        "engine.verdicts.holds": (oracle["verdicts"]["holds"], "count"),
        "engine.verdicts.fails": (oracle["verdicts"]["fails"], "count"),
        "engine.verdicts.not_applicable": (oracle["verdicts"]["not_applicable"], "count"),
        "engine.holds_symbolic.calls": (layer("engine.holds_symbolic")["calls"], "count"),
        "engine.search_witnesses.triples_visited":
            (counts.get("search_witnesses.triples_visited", 0), "count"),
        "engine.pool.efficiency": (t1 / (workers * median(pool_s)) if pool_s else 1.0, "ratio"),
        "catalog.condition.calls": (layer("catalog.condition")["calls"], "count"),
        "catalog.row_sweep_admits.calls": (layer("catalog.row_sweep_admits")["calls"], "count"),
        "catalog.row_sweep_admits.admitted_share":
            (admits / layer("catalog.row_sweep_admits")["calls"]
             if layer("catalog.row_sweep_admits")["calls"] else 0.0, "ratio"),
        "catalog.build_s": (median([s["build_s"] for s in setups]), "s"),
        "termlang.expand_affine.calls": (layer("termlang.expand_affine")["calls"], "count"),
        "termlang.evaluate.calls": (layer("termlang.evaluate")["calls"], "count"),
        "termlang.evaluate.s": (layer("termlang.evaluate")["s"], "s"),
        "modring.calls": (counts.get("modring.calls", 0), "count"),
        "cli.import_s": (median([s["import_s"] for s in setups]), "s"),
        "cli.numpy_import_s": (median([s["numpy_import_s"] for s in setups]), "s"),
        "trace.overhead_share": (median([t["wall_s"] * speed(t) for t in traced]) / t1 - 1,
                                 "ratio"),
    }
    # Times of layers that some workloads never enter: reported here and in
    # the result file, not as metrics (they would read 0 s on every run).
    extra = {f"{name}.s": layer(name)["s"] for name in (
        "engine.holds_symbolic", "catalog.condition", "catalog.row_sweep_admits",
        "termlang.expand_affine")}
    extra.update(cycles=len(traced), plain_s_each=plain_s, pool_s_each=pool_s,
                 traced_s_each=[t["wall_s"] for t in traced], layers=layers)
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "linquas" / "__init__.py").is_file():
        print(f"perfbench: no linquas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = build_inputs(args.workload, args.seed)
        ledger = Ledger()
        setups: list[dict] = []
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, extra = per_layer(spec, args.seconds, deadline, ledger, setups,
                                       OUT_DIR / f"spans-{name}.jsonl.gz")
        else:
            metrics, extra = end_to_end(spec, args.seconds, deadline, ledger, setups)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    extra["failed_share"] = ledger.failed / ledger.attempted
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    full = {"provenance": provenance(args, spec, setups[0]["numpy"]),
            "inputs": spec, "metrics": reported, "details": extra,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "findings": ledger.findings}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{name}.json").write_text(json.dumps(full, indent=1) + "\n")
    for key, (value, unit) in metrics.items():
        print(f"{key:45s} {value:>14.6g} {unit}", file=sys.stderr)
    for key, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"{key:45s} {value:>14.6g}", file=sys.stderr)
    for finding in ledger.findings:
        print(f"FAILED: {finding}", file=sys.stderr)
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
