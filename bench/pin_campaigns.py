"""Regenerate campaign_pins.json from the kpflows CLI in this checkout.

    python3 bench/pin_campaigns.py

Pins each campaign request's exit code, summary line and per-line
(seed, a, lhs, rhs, verdict).  Semantic fields are pinned rather than a
stdout hash, so a report that gains fields still passes.  Before writing,
every pinned line is run through the benchmark's own multiplier and
cross-multiplied verdict checks.  Re-pin only for a change that is meant to
alter campaign answers, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpflows.cli import run_cli  # noqa: E402

from checks import PINS_PATH, check_campaign  # noqa: E402
from workloads import CAMPAIGNS  # noqa: E402


def main() -> int:
    pins = {}
    for label, argv in CAMPAIGNS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_cli(list(argv))
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        pin = {
            "exit": code,
            "summary": rows[-1],
            "lines": [[r["seed"], r["a"], r["lhs"], r["rhs"], r["verdict"]] for r in rows[:-1]],
        }
        problems = check_campaign(argv[2], pin)(out.getvalue())
        if problems:
            print(f"{label}: {problems[:5]}", file=sys.stderr)
            return 1
        pins[label] = pin
        print(f"{label}: exit {code}, {rows[-1]}")
    blocks = []
    for label, pin in pins.items():
        lines = ",\n".join("  " + json.dumps(line) for line in pin["lines"])
        head = json.dumps({"exit": pin["exit"], "summary": pin["summary"]})[:-1]
        blocks.append(f"{json.dumps(label)}: {head}, \"lines\": [\n{lines}\n ]}}")
    PINS_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
