#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload queries --seeds 1-10 [--trace 0] [--seconds 30]

For every metric: the values per seed, their median, and the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median, next to the bound in BENCHMARK.json.  With `--out`, the
summary is also stored in a JSON file under "<workload>/trace<T>", next to
what the file already holds (this is how `baseline.json` was made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROVENANCE_KEYS = ("git_commit", "src_sha256", "nproc", "cpus_usable", "python", "numpy",
                   "workers", "cap")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode not in (0, 1):
            print(proc.stderr, file=sys.stderr)
            return 2
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / q2 if q2 else 0.0
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": q2,
                         "q1": q1, "q3": q3, "iqr_share": share, "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if share < bound / 3 else 'WIDE'}"
        print(f"{name:45s} median {q2:12.6g}  iqr/median {share:7.4f}{flag}")
    if args.out:
        stored = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        results = [json.loads((ROOT / ".perfbench_out" /
                               f"result-{args.workload}-seed{seed}-trace{args.trace}.json")
                              .read_text()) for seed in args.seeds]
        # the stderr-only numbers (queries latencies, failed_share, ...)
        details = {key: statistics.median(r["details"][key] for r in results)
                   for key, value in results[0]["details"].items()
                   if isinstance(value, (int, float))}
        stored[f"{args.workload}/trace{args.trace}"] = {
            "provenance": {k: results[0]["provenance"][k] for k in PROVENANCE_KEYS},
            "details_median": details,
            "seconds": seconds, "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": summary}
        args.out.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
