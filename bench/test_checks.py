"""Self-test of the benchmark's answer checker.

    python3 -m pytest bench/test_checks.py

Real CLI outputs must pass; the same outputs corrupted (a count off by one,
a flipped verdict, a witness flow with one entry changed, a crash with a
traceback) must each be counted as a failed request.  A layer the tracer can
no longer wrap must be reported, not read as zero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import judge  # noqa: E402
from run import Tally, call_in_process  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import build  # noqa: E402

import kpflows.cli  # noqa: E402
import kpflows.identities  # noqa: E402
from kpflows.cli import run_cli  # noqa: E402


@pytest.fixture(scope="module")
def requests(tmp_path_factory) -> dict:
    files = tmp_path_factory.mktemp("instances")
    reqs = {}
    for workload in ("enumerate", "campaign"):
        reqs.update({r.label: r for r in build(workload, files, seed=7)})
    count_large = build("count-large", files, seed=7)
    reqs["catalan-7"] = next(r for r in count_large if r.label == "catalan-7")
    return reqs


@pytest.fixture(scope="module")
def outputs(requests) -> dict:
    return {label: call_in_process(requests[label], run_cli)
            for label in ("catalan-7", "witness-5", "brute-5", "c31-n6", "c32-n6")}


def failures_after(req, code: int, stdout: str, stderr: str = "") -> int:
    tally = Tally()
    tally.record(req, judge(req, code, stdout, stderr))
    assert tally.attempted == 1
    return len(tally.failures)


@pytest.mark.parametrize("label", ["catalan-7", "witness-5", "brute-5", "c31-n6", "c32-n6"])
def test_real_outputs_pass(requests, outputs, label):
    code, out, err = outputs[label]
    assert judge(requests[label], code, out, err) == []


def test_known_mixed_sign_violations_are_expected(requests, outputs):
    code, out, _ = outputs["c32-n6"]
    assert code == 1 and json.loads(out.splitlines()[-1])["violated"] == 19


def test_count_off_by_one_fails(requests, outputs):
    code, out, err = outputs["brute-5"]
    assert failures_after(requests["brute-5"], code, f"{int(out) + 1}\n", err) == 1
    code, out, err = outputs["catalan-7"]
    payload = json.loads(out)
    payload["count"] = str(int(payload["count"]) - 1)
    assert failures_after(requests["catalan-7"], code, json.dumps(payload), err) == 1


def test_flipped_verdict_fails(requests, outputs):
    code, out, err = outputs["c31-n6"]
    lines = out.splitlines()
    rep = json.loads(lines[3])
    rep["verdict"] = not rep["verdict"]
    lines[3] = json.dumps(rep)
    assert failures_after(requests["c31-n6"], code, "\n".join(lines), err) == 1


def test_witness_flow_with_one_entry_changed_fails(requests, outputs):
    code, out, err = outputs["witness-5"]
    certs = json.loads(out)
    certs[17]["fiber"][1][4] += 1
    assert failures_after(requests["witness-5"], code, json.dumps(certs), err) == 1


def test_crash_with_traceback_fails(requests):
    def crash(argv):
        raise RuntimeError("boom")

    code, out, err = call_in_process(requests["brute-5"], crash)
    assert code == 1 and "Traceback" in err
    assert failures_after(requests["brute-5"], code, out, err) == 1
    # a traceback fails a request even when its stdout and exit code look right
    traceback = "Traceback (most recent call last):"
    assert failures_after(requests["brute-5"], 0, "5880\n", traceback) == 1


def missing_after_instrument() -> list[str]:
    tracer = Tracer()
    with instrument(tracer):
        pass
    return tracer.missing


def test_every_listed_name_is_instrumented():
    assert missing_after_instrument() == []


def test_uninstrumented_layer_is_reported(monkeypatch):
    monkeypatch.delattr(kpflows.cli, "count")
    monkeypatch.setattr(kpflows.identities.verify_identity_a, "__defaults__", (len,))
    assert missing_after_instrument() == [
        "kpflows.cli.count", "counting.count as a default of verify_identity_a"]
