"""Every pinned benchmark campaign, run in-process and judged by the
benchmark's own checker: stdout and exit code must match
``bench/campaign_pins.json`` exactly, violations of the mixed-sign band
included."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import judge  # noqa: E402
from run import call_in_process  # noqa: E402
from workloads import CAMPAIGNS, build  # noqa: E402

from kpflows.cli import run_cli  # noqa: E402


@pytest.fixture(scope="module")
def requests(tmp_path_factory) -> dict:
    return {r.label: r for r in build("campaign", tmp_path_factory.mktemp("campaign"), seed=7)}


@pytest.mark.parametrize("label", list(CAMPAIGNS))
def test_campaign_matches_its_pin(requests, label):
    req = requests[label]
    assert judge(req, *call_in_process(req, run_cli)) == []
