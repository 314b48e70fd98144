"""Run every workload over several seeds and keep the results as one set.

    python3 bench/suite.py --out results.jsonl [--seeds 1 2 3] [--trace 0|1]

Each run is a fresh ``bench/run.py`` process, called exactly as
BENCHMARK.json's command is, for its ``run_seconds``.  Each result is appended
to ``--out`` as one JSON line with the workload, seed, trace flag, environment
(Python version, nproc, commit) and run.py's result; the set is then
summarized by compare.py.
The exit code is 1 if any run failed or was not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load, report
from run import environment

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines file to append results to")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    env = environment()
    ok = True
    for seed in args.seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
            sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"run failed: {workload} seed {seed} exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                     "env": env, "result": result}) + "\n")
    print()
    return report(load(args.out)) | (not ok)


if __name__ == "__main__":
    sys.exit(main())
