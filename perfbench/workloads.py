"""Seeded inputs for the three workloads.

Standard library only; `queries` takes the catalog's rows and the pinned
witness cells from its caller.
The same seed always gives the same inputs; every pass of one run replays
them.

The seed draws inputs from *strata* of near-equal cost.  Run-to-run spread is
judged across different seeds, so a seed must change which laws, rows and
triples are used without changing how much work a pass does.  The strata
come from per-law and per-row timings at the seed commit (2-core machine,
Python 3.11, numpy 2.4), given next to each stratum below.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

N_VALUES = list(range(2, 13))
CAP = 10**7  # passed explicitly so a later default-cap change cannot alter inputs
WORKERS = {"crosscheck": 2, "queries": 1, "large_n": 1}

# --- crosscheck: whole laws, one drawn from each stratum ----------------------
# 1-worker crosscheck_all time over n = 2..12 at the seed commit, in seconds.
# Mirror laws (b and c swapped) give identical counts, so most strata pair
# laws that are not mirrors of each other.
CROSSCHECK_STRATA = (
    # 2-variable, NA-heavy (24% of admitted triples not applicable), ~2.65 s
    ("r_aip", "l_saip"),
    # 3-variable, NA-heavy (24%), ~2.75 s
    ("e_r", "right_f"),
    # 4-variable, one quasigroup row each, ~1.05 s
    ("cm_7", "cm_8", "cm_10", "cm_11", "cm_13"),
    # 2-variable, no local elements, ~0.34 s
    ("sade_right_keys", "left_alternative"),
    # 3-variable, no local elements, ~1.9 s
    ("cyclic_associativity", "right_permutability"),
    # 2-variable, NA-light (14%), six rows, ~0.37 s
    ("r_wip", "l_wip"),
)

# --- queries: one closed-loop client -------------------------------------------
# The repository holds no record of real request traffic, so this mix is a
# choice, not a measurement.  `cli report` searches only its 22 `?` cells,
# too few to draw from; `cli search` and `cli classify` take any row and any
# groupoid, so every row with a witness is searched equally often and
# classify requests go to uniform groupoids at small n.  The seed sets the
# order of the searches and draws the groupoids; it does not change which
# searches are made, since the cost of a search varies by row far more than
# that of a classify by groupoid.  The counts are sized so that each kind
# takes about half of the timed session (at the seed commit a search takes
# about a twelfth of a classify on average): a doubling of either kind's
# latency then moves `wall_s` by about half, well beyond its bound.
#
# The rows whose search finds no witness for n <= 12: each scans every
# admitted triple (0.07-0.55 s) where every other row stops within
# milliseconds.  They are not drawn.  The two of them that
# tests/data/witness_pins.json certifies empty are searched after the timed
# session, each timed apart, so that the pin check covers them without their
# scans (and what they leave in the op_tables cache) entering `wall_s`.
EMPTY_SEARCH_ROWS = (
    ("schroder_second", 13, 1), ("left_abelian_distributivity", 30, 3),
    ("r_bol", 34, 3), ("right_abelian_distributivity", 29, 3),
    ("schroder_second", 13, 3), ("stein_first", 11, 1),
    ("left_abelian_distributivity", 30, 5), ("right_abelian_distributivity", 29, 5),
)
SEARCH_REPEATS = 18         # searches of each of the 219 rows with a witness, per pass
CLASSIFY_REQUESTS = 320     # per pass, spread evenly over n = 2..9
CLASSIFY_N = range(2, 10)

# --- large_n: one exhaustive check per variable count ---------------------------
# The verdict of each variable count's check.  Medial holds on every linear
# groupoid and no recorded 3-variable check fails, so the recorded pool
# serves three assignments; they differ in cost by up to 15% (a
# not_applicable 2-variable check is the cheapest), so one is fixed and the
# seed draws laws, n and triples.
LARGE_N_VERDICTS = {"2": "fails", "3": "not_applicable", "4": "holds"}
LARGE_N_POOL = Path(__file__).resolve().parent / "large_n_pool.json"


def crosscheck_inputs(seed: int) -> dict:
    rng = random.Random(f"crosscheck:{seed}")
    laws = [rng.choice(stratum) for stratum in CROSSCHECK_STRATA]
    return {"workload": "crosscheck", "laws": laws, "n_values": N_VALUES,
            "cap": CAP, "workers": WORKERS["crosscheck"]}


def queries_inputs(seed: int, all_rows: list[tuple[str, int, int]],
                   pinned: dict[tuple[str, int, int], list[int] | None]) -> dict:
    """A seeded request sequence: SEARCH_REPEATS searches of every row that
    has a witness (the pinned ones among them) and classify requests on
    uniform groupoids at small n, shuffled; then the pinned empty cells,
    outside the timed session."""
    rng = random.Random(f"queries:{seed}")
    early = [row for row in all_rows if row not in EMPTY_SEARCH_ROWS]
    requests = [["search", *row] for row in early for _ in range(SEARCH_REPEATS)]
    for i in range(CLASSIFY_REQUESTS):
        n = CLASSIFY_N[i % len(CLASSIFY_N)]
        requests.append(["classify", n, rng.randrange(n), rng.randrange(n),
                         rng.randrange(n)])
    rng.shuffle(requests)
    tail = [["search", *key] for key, witness in sorted(pinned.items()) if not witness]
    return {"workload": "queries", "requests": requests, "tail": tail,
            "n_values": N_VALUES, "cap": CAP, "workers": WORKERS["queries"]}


def large_n_inputs(seed: int) -> dict:
    """One check each of a 2-, 3- and 4-variable law, drawn from the recorded
    pool, with the verdicts of LARGE_N_VERDICTS, so that every pass has one
    holds, one fails and one not_applicable verdict."""
    pool = json.loads(LARGE_N_POOL.read_text(encoding="utf-8"))
    rng = random.Random(f"large_n:{seed}")
    checks = []
    for k, verdict in LARGE_N_VERDICTS.items():
        group = pool["groups"][k]
        law = rng.choice(sorted(group["laws"]))
        n = rng.choice(group["n_values"])
        a, b, c = rng.choice(group["laws"][law][str(n)][verdict])
        checks.append({"law": law, "n": n, "a": a, "b": b, "c": c, "expected": verdict})
    return {"workload": "large_n", "checks": checks, "cap": pool["cap"],
            "workers": WORKERS["large_n"]}
