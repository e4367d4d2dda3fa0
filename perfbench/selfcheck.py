#!/usr/bin/env python3
"""Exact-count self check of the traced benchmark.

For each workload, runs one traced pass twice with the same seed and once
with another seed.  Every count the trace records (calls, assignments,
node_evals, verdicts, shares, triples visited, cache hits) must repeat
exactly under the same seed, and the counts must change with the seed.
Counts that stay the same under both seeds are listed: they are layers the
workload never enters, or shares the inputs fix.

    python3 perfbench/selfcheck.py [--seed N]

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import build_inputs, run_pass


def counts_of(result: dict) -> dict:
    flat = {f"layer.{name}.calls": agg["calls"] for name, agg in result["layers"].items()}
    flat.update({f"count.{k}": v for k, v in result["counts"].items()})
    for key, value in result["oracle"].items():
        if isinstance(value, dict):
            flat.update({f"oracle.{key}.{k}": v for k, v in value.items()})
        else:
            flat[f"oracle.{key}"] = value
    return flat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    deadline = time.monotonic() + 900
    ok = True
    for workload in ("crosscheck", "queries", "large_n"):
        spec_a = build_inputs(workload, args.seed)
        spec_b = build_inputs(workload, args.seed + 1)
        first, again, other = (counts_of(run_pass(spec, "traced", deadline, check=False))
                               for spec in (spec_a, spec_a, spec_b))
        repeat_ok = first == again
        changed = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
        same = sorted(k for k in first.keys() & other.keys() if first[k] == other[k])
        seed_ok = spec_a != spec_b and bool(changed)
        ok &= repeat_ok and seed_ok
        print(f"{workload}: {len(first)} counts; same seed repeats exactly: {repeat_ok}; "
              f"seed {args.seed + 1} changes {len(changed)} of them: {seed_ok}")
        if not repeat_ok:
            for key in sorted(first.keys() | again.keys()):
                if first.get(key) != again.get(key):
                    print(f"  differs under the same seed: {key} {first.get(key)} != {again.get(key)}")
        if same:
            print(f"  unchanged by the seed: {', '.join(same)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
