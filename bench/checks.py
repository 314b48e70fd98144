"""Independent answer checks for the benchmark's `kpflows` requests.

Every check takes one request's exit code, stdout and stderr and returns a
list of problems; an empty list means the answer is right.  Expected values
are computed here (Catalan products with ``math.comb``, flow conservation on
the benchmark's own edge list, identity multipliers from the formula) or
pinned in ``campaign_pins.json``; none is read back from the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

PINS_PATH = Path(__file__).with_name("campaign_pins.json")

# K_{G-(7,8)} of the K_9 staircase; K_G is the Catalan product C_1..C_8.
K9_RHS = 31743391680
# Partial flows of the K_6 staircase (1..5, -15): the witness certificate count.
CATALAN5_PARTIAL_FLOWS = 840

Check = Callable[[str], list[str]]


@dataclass(frozen=True)
class Request:
    """One CLI call: ``argv`` follows ``kpflows``; ``check`` judges stdout."""

    label: str
    argv: tuple[str, ...]
    expected_exit: int
    check: Check


def judge(req: Request, code: int, stdout: str, stderr: str) -> list[str]:
    """All problems with one answer: exit code, traceback, then content."""
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if code != req.expected_exit:
        problems.append(f"exit code {code}, expected {req.expected_exit}")
    try:
        problems += req.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def catalan_product(n: int) -> int:
    out = 1
    for k in range(1, n + 1):
        out *= comb(2 * k, k) // (k + 1)
    return out


def staircase(n: int) -> list[int]:
    """The netflow (1, 2, ..., n, -n(n+1)/2) on n+1 vertices."""
    return list(range(1, n + 1)) + [-(n * (n + 1) // 2)]


def complete_slots(n_plus_1: int) -> list[tuple[int, int]]:
    """Edge slots of the complete type A graph in canonical (i, j) order."""
    return [(i, j) for i in range(1, n_plus_1 + 1) for j in range(i + 1, n_plus_1 + 1)]


def conserves(slots: list[tuple[int, int]], flow: list[int], a: list[int]) -> bool:
    """True iff ``flow`` is a nonnegative integer combination of the roots
    e_i - e_j of ``slots`` summing to ``a``."""
    if len(flow) != len(slots):
        return False
    acc = [0] * len(a)
    for (i, j), b in zip(slots, flow):
        if type(b) is not int or b < 0:
            return False
        acc[i - 1] += b
        acc[j - 1] -= b
    return acc == a


def check_catalan(n: int) -> Check:
    def check(stdout: str) -> list[str]:
        payload = json.loads(stdout)
        want = str(catalan_product(n))
        problems = []
        if payload["n"] != n or payload["count"] != want:
            problems.append(f"catalan n={n}: count {payload['count']}, expected {want}")
        if payload["catalan_product"] != want or payload["match"] is not True:
            problems.append(f"catalan n={n}: product/match fields wrong")
        return problems

    return check


def check_count(value: int) -> Check:
    def check(stdout: str) -> list[str]:
        got = stdout.strip()
        return [] if got == str(value) else [f"count {got!r}, expected {value}"]

    return check


def identity_multiplier(theorem: str, a: list[int], c: object) -> Fraction:
    """(T/c + a_{n-1} + 1) with T = S (type A) or S - 2y (type C)."""
    n = len(a) - 1
    t = sum(a[: n - 2])
    if theorem != "a":
        t -= sum(a)  # 2y is the coordinate sum
    shift = 0 if c == "unconstrained" else t / Fraction(c["num"], c["den"])
    return shift + a[n - 2] + 1


def _report_problems(theorem: str, a: list[int], rep: dict) -> list[str]:
    """Multiplier recomputed from the formula; verdict cross-multiplied."""
    mult = identity_multiplier(theorem, a, rep["c"])
    got = rep["multiplier"]
    problems = []
    if (got["num"], got["den"]) != (mult.numerator, mult.denominator):
        problems.append(f"a={a}: multiplier {got}, expected {mult}")
    lhs, rhs = int(rep["lhs"]), int(rep["rhs"])
    holds = lhs * mult.denominator == mult.numerator * rhs
    if rep["verdict"] is not holds:
        problems.append(f"a={a}: verdict {rep['verdict']}, cross-multiplied {holds}")
    return problems


def check_verify_staircase(n: int, rhs: int) -> Check:
    a = staircase(n)

    def check(stdout: str) -> list[str]:
        rep = json.loads(stdout)
        problems = _report_problems("a", a, rep)
        if rep["skipped"] is not False or rep["verdict"] is not True:
            problems.append("staircase identity not verified")
        if rep["lhs"] != str(catalan_product(n)) or rep["rhs"] != str(rhs):
            problems.append(f"lhs/rhs {rep['lhs']}/{rep['rhs']}")
        return problems

    return check


def check_enumerate(n: int) -> Check:
    a, slots = staircase(n), complete_slots(n + 1)
    want = catalan_product(n)

    def check(stdout: str) -> list[str]:
        payload = json.loads(stdout)
        flows = payload["flows"]
        problems = []
        if payload["returned"] != want or len(flows) != want or payload["truncated"]:
            problems.append(f"enumerate: {len(flows)} flows, expected {want}")
        if len({tuple(f) for f in flows}) != len(flows):
            problems.append("enumerate: duplicate flows")
        bad = sum(not conserves(slots, f, a) for f in flows)
        if bad:
            problems.append(f"enumerate: {bad} flows fail conservation")
        return problems

    return check


def check_witness(n: int, partial_flows: int) -> Check:
    """Every fiber flow conserves, restricts to its partial flow, and the
    fibers partition the flows; fiber sizes follow Y_{n-1} + a_{n-1} + 1."""
    a, slots = staircase(n), complete_slots(n + 1)
    top = (n - 1, n, n + 1)
    h_idx = [k for k, (i, j) in enumerate(slots) if not (i in top and j in top)]

    def check(stdout: str) -> list[str]:
        certs = json.loads(stdout)
        problems = []
        if len(certs) != partial_flows:
            problems.append(f"witness: {len(certs)} certificates, expected {partial_flows}")
        seen: set[tuple[int, ...]] = set()
        bad = 0
        for cert in certs:
            pf, fiber = cert["partial_flow"], cert["fiber"]
            inflow = {v: 0 for v in top}
            for k, b in zip(h_idx, pf):
                if slots[k][1] in top:
                    inflow[slots[k][1]] += b
            size = inflow[top[0]] + a[n - 2] + 1
            ok = (
                cert["Y"] == [inflow[v] for v in top]
                and cert["fiber_size"] == len(fiber) == size
            )
            for f in fiber:
                ok = ok and conserves(slots, f, a) and [f[k] for k in h_idx] == pf
                seen.add(tuple(f))
            bad += not ok
        if bad:
            problems.append(f"witness: {bad} certificates fail their checks")
        total = sum(len(c["fiber"]) for c in certs)
        if total != len(seen) or total != catalan_product(n):
            problems.append(f"witness: {len(seen)} distinct of {total} flows")
        return problems

    return check


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_campaign(theorem: str, pin: dict) -> Check:
    """Per-line (seed, a, lhs, rhs, verdict) and the summary match the pins;
    every computed line also passes the multiplier and verdict arithmetic.
    Mixed-sign violations must lie on the band y = min(a_{n-1}, a_n) + 1."""

    def check(stdout: str) -> list[str]:
        rows = [json.loads(line) for line in stdout.splitlines()]
        reports, summary = rows[:-1], rows[-1]
        problems = []
        if summary != pin["summary"]:
            problems.append(f"summary {summary}, expected {pin['summary']}")
        if len(reports) != len(pin["lines"]):
            problems.append(f"{len(reports)} report lines, expected {len(pin['lines'])}")
        for rep, want in zip(reports, pin["lines"]):
            got = [rep["seed"], rep["a"], rep["lhs"], rep["rhs"], rep["verdict"]]
            if got != want:
                problems.append(f"line {got} != pinned {want}")
            elif rep["skipped"] is not (rep["verdict"] is None):
                problems.append(f"seed {rep['seed']}: skipped flag disagrees")
            elif not rep["skipped"]:
                problems += _report_problems(theorem, rep["a"], rep)
                if theorem == "c32" and rep["verdict"] is False:
                    a, n = rep["a"], len(rep["a"]) - 1
                    if rep["y"] != min(a[n - 2], a[n - 1]) + 1:
                        problems.append(f"violation off the boundary band: {got}")
        return problems

    return check
