#!/usr/bin/env python3
"""Record the pool of large_n checks and their verdicts.

For each law and each of its n, draw triples until there are three of each
verdict the law can take (screened with holds_symbolic), then confirm each
with holds_bruteforce and record that verdict.  The benchmark draws its
large_n inputs from this pool and requires every check to reproduce the
recorded verdict, so rerun this only on purpose and review the diff.

Run from the repository root:  python3 perfbench/make_large_n_pool.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from linquas import engine  # noqa: E402
from linquas.catalog import get_entry  # noqa: E402
from linquas.groupoid import LinearGroupoid  # noqa: E402

from workloads import CAP, LARGE_N_POOL  # noqa: E402

# n per variable count: the largest few n with n**k under the cap, close
# enough in cost that the seed may pick any of them
GROUPS = {
    "2": ((3160, 3161, 3162), ("r_aaip", "l_aaip")),
    "3": ((214, 215), ("left_f", "right_f", "e_l", "e_r")),
    "4": ((56,), ("medial", "first_rectangle", "second_rectangle")),
}
PER_VERDICT = 3
DRAWS = 200_000


def pool_for(law: str, n: int, rng: random.Random) -> dict[str, list[list[int]]]:
    ident = get_entry(law).identity
    found: dict[str, list[list[int]]] = {}
    for _ in range(DRAWS):
        triple = [rng.randrange(n), rng.randrange(n), rng.randrange(n)]
        # holds is rare among uniform triples; every fourth draw takes c = b
        if rng.random() < 0.25:
            triple[2] = triple[1]
        verdict = engine.holds_symbolic(LinearGroupoid(n, *triple), ident).verdict.value
        bucket = found.setdefault(verdict, [])
        if len(bucket) < PER_VERDICT and triple not in bucket:
            bucket.append(triple)
        if all(len(found.get(v, ())) == PER_VERDICT
               for v in ("holds", "fails", "not_applicable")):
            break
    confirmed: dict[str, list[list[int]]] = {}
    for triples in found.values():
        for triple in triples:
            verdict = confirm(law, n, triple)
            confirmed.setdefault(verdict, []).append(triple)
            print(f"{law} n={n} {triple} {verdict}", flush=True)
    return {v: confirmed[v] for v in sorted(confirmed)}


def confirm(law: str, n: int, triple: list[int]) -> str:
    """The oracle's verdict, in a fresh interpreter: at these sizes the
    op_tables and grid caches would otherwise keep gigabytes alive."""
    proc = subprocess.run([sys.executable, __file__, "--confirm", law, str(n), *map(str, triple)],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main() -> int:
    if sys.argv[1:2] == ["--confirm"]:
        law, n, a, b, c = sys.argv[2], *map(int, sys.argv[3:7])
        out = engine.holds_bruteforce(LinearGroupoid(n, a, b, c), get_entry(law).identity, CAP)
        print(out.verdict.value)
        return 0
    rng = random.Random(20140804)
    groups = {}
    for k, (n_values, laws) in GROUPS.items():
        if not max(n_values) ** int(k) <= CAP < (max(n_values) + 1) ** int(k):
            raise SystemExit(f"{max(n_values)} is not the largest n with n**{k} <= {CAP}")
        groups[k] = {"n_values": list(n_values),
                     "laws": {law: {str(n): pool_for(law, n, rng) for n in n_values}
                              for law in laws}}
    payload = {"cap": CAP, "groups": groups}
    LARGE_N_POOL.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LARGE_N_POOL}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
