"""The benchmark's workloads: instance files and the CLI requests that read them.

Instances are canonical (Catalan staircases on complete graphs, and the
CLI's own campaign seeds 0..N-1).  The workload seed only shuffles the edge
order inside the graph files it writes, which the program must canonicalize;
answers therefore do not depend on it.  See README.md for why each workload
exists and why Catalan n >= 9 is left out.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from checks import (
    CATALAN5_PARTIAL_FLOWS,
    K9_RHS,
    Request,
    catalan_product,
    check_campaign,
    check_catalan,
    check_count,
    check_enumerate,
    check_verify_staircase,
    check_witness,
    complete_slots,
    load_pins,
    staircase,
)

WORKLOADS = ("count-large", "enumerate", "campaign")

# label -> argv; the mixed-sign (c32) runs exit 1 at the parent commit because
# of the documented boundary band, and that outcome is pinned, not avoided.
CAMPAIGNS = {
    "c32-n6": ("verify", "--theorem", "c32", "--campaign", "50", "--n-plus-1", "6"),
    "c31-n6": ("verify", "--theorem", "c31", "--campaign", "50", "--n-plus-1", "6"),
    "a-n7-m3": ("verify", "--theorem", "a", "--campaign", "50", "--n-plus-1", "7",
                "--max-mult", "3"),
    "c32-n7": ("verify", "--theorem", "c32", "--campaign", "20", "--n-plus-1", "7"),
}

# The per-call floor: interpreter start, package import, one tiny count.
START_PROBE = Request("start", ("catalan", "--n", "1"), 0, check_catalan(1))


def _write_complete_graph(path: Path, n_plus_1: int, rng: random.Random) -> str:
    edges = [{"i": i, "j": j, "sign": "-", "mult": 1} for i, j in complete_slots(n_plus_1)]
    rng.shuffle(edges)
    path.write_text(json.dumps({"n_plus_1": n_plus_1, "kind": "A", "edges": edges}))
    return str(path)


def build(workload: str, files: Path, seed: int) -> list[Request]:
    """Write the workload's instance files under ``files``; return its requests."""
    rng = random.Random(seed)
    if workload == "count-large":
        k9 = _write_complete_graph(files / "k9.json", 9, rng)
        k9_a = files / "k9_a.json"
        k9_a.write_text(json.dumps({"a": staircase(8)}))
        return [
            Request("catalan-7", ("catalan", "--n", "7"), 0, check_catalan(7)),
            Request("catalan-8", ("catalan", "--n", "8"), 0, check_catalan(8)),
            Request("verify-k9", ("verify", "--theorem", "a", "--graph", k9,
                                  "--a-file", str(k9_a)), 0, check_verify_staircase(8, K9_RHS)),
        ]
    if workload == "enumerate":
        k7 = _write_complete_graph(files / "k7.json", 7, rng)
        k6 = _write_complete_graph(files / "k6.json", 6, rng)
        a6, a5 = json.dumps(staircase(6)), json.dumps(staircase(5))
        return [
            Request("partial-6", ("count", "--backend", "partial", "--graph", k7, "--a", a6),
                    0, check_count(catalan_product(6))),
            Request("witness-5", ("witness", "--graph", k6, "--a", a5),
                    0, check_witness(5, CATALAN5_PARTIAL_FLOWS)),
            Request("enumerate-5", ("enumerate", "--graph", k6, "--a", a5), 0, check_enumerate(5)),
            Request("brute-5", ("count", "--backend", "brute", "--graph", k6, "--a", a5),
                    0, check_count(catalan_product(5))),
        ]
    if workload == "campaign":
        pins = load_pins()
        return [
            Request(label, argv, pins[label]["exit"], check_campaign(argv[2], pins[label]))
            for label, argv in CAMPAIGNS.items()
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
