"""Summarize one benchmark result set, or compare two.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

A result set is the JSON-lines file suite.py writes: one line per run with
``workload``, ``seed``, ``trace`` and ``result`` (run.py's last line).  For
each workload and metric it prints the median and quartiles of the runs and
their spread, the quartile distance as a share of the median.  Given a second
set it pairs runs by seed (or in run order when the seeds differ) and adds
the change's pairwise win fraction (ties count for neither side) and a
verdict:

  regression  the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  gain        the change wins at least 9/10 of the pairs and the medians differ
              by more than the base's quartile distance;
  unresolved  either side spreads wider than the bound, and not every run of
              the change beats every run of the base;
  same        none of these: no change beyond the bound.

Per-layer metrics have no bound, so they read gain, loss or "-" only.  The
exit code is 1 when a verdict is regression or a run was not correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread_stats(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and IQR / median."""
    med = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    if med:
        spread = (q3 - q1) / abs(med)
    else:
        spread = float("inf") if q3 > q1 else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def by_metric(records: list[dict]) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}, over correct and incorrect runs."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out


def failures(records: list[dict]) -> tuple[int, int, int]:
    """Runs not correct, requests failed, requests attempted."""
    bad = sum(not r["result"]["correct"] for r in records)
    return (bad, sum(r["result"]["failed"] for r in records),
            sum(r["result"]["attempted"] for r in records))


def verdict(base: dict[int, float], new: dict[int, float], better: str,
            bound: float | None) -> tuple[float, str]:
    sign = 1 if better == "lower" else -1  # sign * (base - new) > 0: new is better
    seeds = sorted(set(base) & set(new))
    if seeds:
        pairs = [(base[s], new[s]) for s in seeds]
    else:  # disjoint seeds: pair the runs in the order they were made
        pairs = list(zip(base.values(), new.values()))
    gains = sum(sign * (x - y) > 0 for x, y in pairs)
    losses = sum(sign * (x - y) < 0 for x, y in pairs)
    win = gains / len(pairs)
    b, n = spread_stats(list(base.values())), spread_stats(list(new.values()))
    diff = sign * (b["median"] - n["median"])
    base_iqr = b["q3"] - b["q1"]
    if bound is not None and -diff > bound * abs(b["median"]):
        return win, "regression"
    if win >= 0.9 and diff > base_iqr:
        return win, "gain"
    if bound is None:
        return win, "loss" if losses / len(pairs) >= 0.9 and -diff > base_iqr else "-"
    all_better = all(sign * (x - y) > 0 for x in base.values() for y in new.values())
    if max(b["spread"], n["spread"]) > bound and not all_better:
        return win, "unresolved"
    return win, "same"


def report(base_records: list[dict], new_records: list[dict] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = by_metric(base_records)
    new = by_metric(new_records) if new_records is not None else {}
    status = 0
    for label, recs in (("base", base_records), ("new", new_records)):
        if recs is not None:
            bad, failed, attempted = failures(recs)
            print(f"{label}: {len(recs)} runs, {bad} not correct, "
                  f"failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
            status |= bad > 0
    for (workload, name), values in sorted(base.items()):
        m = metrics.get(name, {"unit": "?", "better": "lower"})
        b = spread_stats(list(values.values()))
        line = (f"{workload:12s} {name:42s} {m['unit']:6s} n={len(values):<3d}"
                f" median {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                f" spread {b['spread']:.3f}")
        if "bound" in m:
            line += f" (bound {m['bound']})"
        if (workload, name) in new:
            other = new[(workload, name)]
            n = spread_stats(list(other.values()))
            win, word = verdict(values, other, m["better"], m.get("bound"))
            change = (n["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
            line += (f" -> {n['median']:.6g} [{n['q1']:.6g}, {n['q3']:.6g}]"
                     f" spread {n['spread']:.3f} {change:+.1%} wins {win:.2f} {word}")
            status |= word == "regression"
        print(line)
    return status


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    return report(sets[0], sets[1] if len(sets) == 2 else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
