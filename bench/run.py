"""kpflows benchmark: wall time to an exact, independently checked answer.

    python3 bench/run.py --workload count-large --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``.  With ``--trace 0`` the requests go to the real CLI
(``python -m kpflows.cli``) in subprocesses, in a closed loop with one client:
each request starts after the previous one has exited.  The end-to-end
metrics listed in BENCHMARK.json are printed, their times scaled to a host of
fixed speed (HostClock).  With ``--trace 1`` the same
requests run in-process through ``kpflows.cli.run_cli``, alternating an
untraced and a traced pass, and the per-layer metrics are printed.  Every
answer is checked (checks.py).  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import signal
import subprocess
import sys
import tempfile
import traceback
from itertools import count
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

from checks import Request, judge
from workloads import START_PROBE, WORKLOADS, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUPS = 3  # setup_s samples per pass, after the one before the first pass
START_PROBES = 4  # cli_start_s samples per pass

# The host's speed, as one process sees it, drifts by a factor of up to two
# within seconds (other tenants share its cores), and every timed call moves
# with it.  So a fixed pure-Python task that does not touch kpflows runs before
# and after every timed call, and each time is scaled by REFERENCE_S over the
# mean of those two reference times: it reads as seconds on a host where the
# reference task takes REFERENCE_S, which is about its time here when the host
# is quiet.  A change to kpflows moves the timed call and not the reference.
REFERENCE = [sys.executable, "-I", "-c",
             "d = {}\nfor i in range(200000):\n    k = i % 1009\n    d[k] = d.get(k, 0) + i * i\n"]
REFERENCE_S = 0.1


def deadline_s(seconds: float) -> float:
    """Time allowed for the whole run: set-up, warm-up, passes and the last
    pass's overrun."""
    return 3 * seconds + 50


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so no request handler swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


class Tally:
    """Requests attempted, and one problem line per failed request."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, req: Request, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{req.label}: {'; '.join(problems[:3])}")


def call_cli(req: Request, tmp: Path, env: dict) -> tuple[float, float, list[str]]:
    """One request in a fresh interpreter: wall seconds, max RSS in MB, problems."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "kpflows.cli", *req.argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = judge(req, proc.returncode, out_path.read_text(), err_path.read_text())
    return wall, usage.ru_maxrss / 1024, problems


class HostClock:
    """Scales wall times to a host of fixed speed, using the reference task
    run before and after each timed call."""

    def __init__(self) -> None:
        self.references: list[float] = []
        self.before = self._reference()

    def _reference(self) -> float:
        t0 = perf_counter()
        proc = subprocess.Popen(REFERENCE, stdin=subprocess.DEVNULL, cwd=ROOT)
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - t0
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"reference task exited {os.waitstatus_to_exitcode(status)}")
        self.references.append(seconds)
        return seconds

    def scale(self, seconds: float) -> float:
        """``seconds``, measured just now, on the fixed-speed host."""
        after = self._reference()
        scaled = seconds * 2 * REFERENCE_S / (self.before + after)
        self.before = after
        return scaled


def setup(workload: str, seed: int, files: Path, env: dict,
          tally: Tally) -> tuple[list[Request], float]:
    """Write the instance files into the new directory ``files`` and make one
    warm-up CLI call; returns the requests and the seconds taken."""
    t0 = perf_counter()
    files.mkdir()
    requests = build(workload, files, seed)
    _, _, problems = call_cli(START_PROBE, files.parent, env)
    seconds = perf_counter() - t0
    tally.record(START_PROBE, problems)
    return requests, seconds


def _more_passes(t_start: float, passes: int, seconds: float) -> bool:
    """Start another pass only if it is expected to end within the budget."""
    elapsed = perf_counter() - t_start
    return elapsed * (passes + 1) / passes <= seconds


def measure_cli(set_up: Callable[[], tuple[list[Request], float]], seconds: float,
                rng: random.Random, tmp: Path, env: dict,
                tally: Tally) -> tuple[dict, int, float]:
    """Set up, then make closed-loop passes until the time budget is spent.
    Every timed call is scaled by HostClock.  Each request's time is its
    median over the passes, and a pass is the sum of those medians.  The
    set-up is repeated after every pass, so that its median, too, is taken
    over the whole run.  Also returns the median reference time."""
    clock = HostClock()
    requests, first_setup = set_up()
    setups = [clock.scale(first_setup)]
    walls: dict[str, list[float]] = {req.label: [] for req in requests}
    rss, starts = [], []
    t_start = perf_counter()
    while not rss or _more_passes(t_start, len(rss), seconds):
        order = list(requests)
        rng.shuffle(order)
        pass_rss = 0.0
        for req in order + [START_PROBE] * START_PROBES:
            wall, mb, problems = call_cli(req, tmp, env)
            wall = clock.scale(wall)
            tally.record(req, problems)
            (starts if req is START_PROBE else walls[req.label]).append(wall)
            pass_rss = max(pass_rss, mb)
        rss.append(pass_rss)
        setups += [clock.scale(set_up()[1]) for _ in range(SETUPS)]
    typical = [median(samples) for samples in walls.values()]
    metrics = {
        "wall_s": sum(typical),
        "max_req_s": max(typical),
        "cli_start_s": median(starts),
        "peak_rss_mb": median(rss),
        "setup_s": median(setups),
    }
    return metrics, len(rss), median(clock.references)


def call_in_process(req: Request, run) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(req.argv))
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def measure_traced(requests: list[Request], seconds: float, rng: random.Random,
                   tally: Tally, spans_path: Path) -> tuple[dict, int, list[str]]:
    """Pairs of untraced and traced in-process passes, in alternating order,
    after one untimed warm-up pass.  Times are medians over traced passes;
    exact counts must repeat in every pass."""
    import kpflows
    from kpflows.cli import run_cli
    from tracing import Tracer, instrument, layer_metrics

    if not Path(kpflows.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported kpflows from {kpflows.__file__}, not from {SRC}")

    def plain_pass(order: list[Request]) -> tuple[list, float]:
        t0 = perf_counter()
        outputs = [call_in_process(req, run_cli) for req in order]
        return outputs, perf_counter() - t0

    def traced_pass(order: list[Request], tracer: Tracer) -> tuple[list, float]:
        traced_run = tracer.span("cli.run_cli", run_cli)
        outputs = []
        t0 = perf_counter()
        with instrument(tracer):
            for req in order:
                tracer.request = req.label
                outputs.append(call_in_process(req, traced_run))
        return outputs, perf_counter() - t0

    for req, (code, out, err) in zip(requests, plain_pass(requests)[0]):
        tally.record(req, judge(req, code, out, err))
    passes, tracers = [], []
    t_start = perf_counter()
    while not passes or _more_passes(t_start, len(passes), seconds):
        order = list(requests)
        rng.shuffle(order)
        tracer = Tracer()
        if len(passes) % 2:
            traced, traced_s = traced_pass(order, tracer)
            plain, plain_s = plain_pass(order)
        else:
            plain, plain_s = plain_pass(order)
            traced, traced_s = traced_pass(order, tracer)
        for req, (code, out, err) in zip(order + order, plain + traced):
            tally.record(req, judge(req, code, out, err))
        metrics = layer_metrics(tracer)
        metrics["cli.stdout_bytes"] = sum(len(out.encode()) for _, out, _ in traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        passes.append(metrics)
        tracers.append(tracer)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for k, tracer in enumerate(tracers):
            for name, parent, req, start, end in tracer.spans:
                fh.write(json.dumps([k, name, parent, req, start, end]) + "\n")
    # every pass wraps the same names, so the first pass's misses are all of them
    problems = [f"not instrumented: {name}" for name in tracers[0].missing]
    result = {}
    for name, first in passes[0].items():
        values = [m[name] for m in passes]
        if isinstance(first, int):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between passes: {values}")
            result[name] = first
        else:
            result[name] = median(values)
    return result, len(passes), problems


def environment() -> dict:
    """Python version, nproc and commit ("unknown" outside a git clone)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or commit
        except OSError:
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kpflows" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a kpflows checkout (src/kpflows, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    WORK.mkdir(exist_ok=True)
    tally, run_problems = Tally(), []
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = deadline_s(args.seconds)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            tmp = Path(tmp)
            dirs = (tmp / f"instances-{k}" for k in count())

            def set_up() -> tuple[list[Request], float]:
                return setup(args.workload, args.seed, next(dirs), env, tally)

            rng = random.Random(args.seed)
            if args.trace:
                spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
                metrics, passes, run_problems = measure_traced(
                    set_up()[0], args.seconds, rng, tally, spans_path)
            else:
                metrics, passes, reference_s = measure_cli(set_up, args.seconds, rng, tmp,
                                                           env, tally)
    except Deadline:
        print(f"error: run exceeded {deadline:g} s; no result", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics listed in BENCHMARK.json but not measured: {missing}",
              file=sys.stderr)
        return 2
    for line in tally.failures + run_problems:
        print(f"FAILED {line}", file=sys.stderr)
    failed = len(tally.failures)
    env_info = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}  "
          f"python {env_info['python']}  nproc {env_info['nproc']}  commit {env_info['commit']}")
    if not args.trace:
        print(f"  times scaled to a reference task of {REFERENCE_S:g} s; "
              f"it took {reference_s:.4f} s here (median)")
    for m in wanted:
        print(f"  {m['name']:42s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {failed / tally.attempted:>16.6g} ({failed}/{tally.attempted})")
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
