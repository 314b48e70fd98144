"""Mutation gate for the exact counting core and its inputs.

    python3 tools/mutants.py [MODULE.FUNCTION ...]

Makes one mutant at a time in each listed function (by default every
function of ``TARGETS``: ``kpflows.counting``'s ``count``,
``_fiber_states``, ``_frontier``, ``_walk`` and ``_check_netflow``, the one
netflow validator, ``kpflows.graphs``'s ``build_graph``, the one graph
validator, ``kpflows.partial_flows``'s ``count_via_partial`` and
``_check_partial_flow``, and ``kpflows.identities``'s ``_verify``): a
comparison flipped or made strict, an integer constant moved by +1 or -1, a
``continue`` guard deleted, ``min`` and ``max`` swapped, or one statement
replaced by ``pass``.
Mutants whose code equals the original's or an earlier mutant's are
skipped.  Each one is written into a temporary copy of ``src/`` and
``tests/`` and checked with the test files that cover its module
(``TESTS``), e.g. for ``counting``

    pytest -x -q tests/test_counting.py tests/test_partial_flows.py
                 tests/test_identities.py

there, one process at a time, with a fixed Hypothesis seed, a timeout per
mutant (three times the module's unmutated run, plus 10 s) and a 1 GiB
address-space limit, since a mutant can make the DP range over a huge
supply.  A mutant is killed when pytest fails, survives when it passes, and
times out otherwise; each one is printed with its verdict and code, then a
table per function.

Every survivor and every timeout must be explained in the ledger
``tools/mutants_ledger.txt``, one line each::

    MODULE.FUNCTION | VERDICT | MUTATION | SOURCE LINE | REASON

where VERDICT is ``survived`` or ``timeout`` and MUTATION and SOURCE LINE
are printed as the run prints them (the source line, not its number, which
moves).  Lines starting with ``#`` and blank lines are skipped.  The tool
exits 0 only when, for the functions it ran, every survivor and timeout has
a ledger line and every ledger line still occurs; otherwise it lists the
unexplained and the stale ones and exits 1.  The checkout is only read.
Standard library only; not collected by pytest.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = {  # module -> the test files that cover it
    "counting": ("tests/test_counting.py", "tests/test_partial_flows.py",
                 "tests/test_identities.py"),
    "graphs": ("tests/test_graphs.py", "tests/test_cli.py"),
    "identities": ("tests/test_identities.py", "tests/test_cli.py"),
    "partial_flows": ("tests/test_partial_flows.py", "tests/test_cli.py"),
}
TARGETS = ("counting.count", "counting._fiber_states", "counting._frontier",
           "counting._walk", "counting._check_netflow", "graphs.build_graph",
           "partial_flows.count_via_partial", "partial_flows._check_partial_flow",
           "identities._verify")
FLIP = {ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.GtE: ast.Lt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In}
STRICT = {ast.LtE: ast.Lt, ast.GtE: ast.Gt}
MEMORY = 1 << 30  # bytes of address space per test process
LEDGER = ROOT / "tools" / "mutants_ledger.txt"


def _ledger() -> Counter[tuple[str, str, str, str]]:
    """The ledger's (function, verdict, mutation, source line) keys; the
    source line may hold ``|`` but the reason after it does not."""
    keys: Counter[tuple[str, str, str, str]] = Counter()
    for number, line in enumerate(LEDGER.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        label, verdict, mutation, rest = line.split(" | ", 3)
        source, sep, reason = rest.rpartition(" | ")
        if not sep or verdict not in ("survived", "timeout") or not reason.strip():
            raise SystemExit(f"{LEDGER.name}:{number}: expected "
                             "MODULE.FUNCTION | VERDICT | MUTATION | SOURCE LINE | REASON")
        keys[label, verdict, mutation, source] += 1
    return keys


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {name} at the top level of the module")


def _parent_list(func: ast.FunctionDef, stmt: ast.stmt) -> list:
    for node in ast.walk(func):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and any(s is stmt for s in block):
                return block
    raise AssertionError("statement without a block")


def _sites(func: ast.FunctionDef):
    """(node index in ast.walk order, kind, argument, line, description)."""
    for index, node in enumerate(ast.walk(func)):
        line = getattr(node, "lineno", func.lineno)
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                name = type(op).__name__
                yield index, "flip", k, line, f"{name} -> {FLIP[type(op)].__name__}"
                if type(op) in STRICT:
                    yield index, "strict", k, line, f"{name} -> {STRICT[type(op)].__name__}"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for d in (1, -1):
                yield index, "const", d, line, f"{node.value} -> {node.value + d}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("min", "max"):
            yield index, "minmax", None, line, f"{node.func.id} swapped"
        if isinstance(node, ast.stmt) and node is not func:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # the docstring
            guard = isinstance(node, ast.If) and [type(s) for s in node.body] == [ast.Continue]
            kind = "guard" if guard else "delete"
            what = "continue guard deleted" if guard else f"{type(node).__name__} deleted"
            yield index, kind, None, line, what


def _mutate(source: str, name: str, site) -> str:
    tree = ast.parse(source)
    func = _function(tree, name)
    index, kind, arg, _, _ = site
    node = list(ast.walk(func))[index]
    if kind == "flip":
        node.ops[arg] = FLIP[type(node.ops[arg])]()
    elif kind == "strict":
        node.ops[arg] = STRICT[type(node.ops[arg])]()
    elif kind == "const":
        node.value += arg
    elif kind == "minmax":
        node.func.id = "max" if node.func.id == "min" else "min"
    else:
        block = _parent_list(func, node)
        block[[i for i, s in enumerate(block) if s is node][0]] = ast.Pass()
    return ast.unparse(ast.fix_missing_locations(tree))


def _run(work: Path, tests: tuple[str, ...], timeout: float) -> tuple[str, float]:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY)))
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.perf_counter() - start
    return ("survived" if code == 0 else "killed"), time.perf_counter() - start


def main(argv: list[str]) -> int:
    targets = argv or list(TARGETS)
    by_module: dict[str, list[str]] = {}
    for target in targets:
        module, _, name = target.partition(".")
        if module not in TESTS or not name:
            raise SystemExit(f"{target}: expected MODULE.FUNCTION, MODULE one of {sorted(TESTS)}")
        by_module.setdefault(module, []).append(name)
    ledger = _ledger()
    tally: dict[str, dict[str, int]] = {}
    found: Counter[tuple[str, str, str, str]] = Counter()
    with tempfile.TemporaryDirectory(prefix="kpflows-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for module, names in by_module.items():
            path = Path(f"src/kpflows/{module}.py")
            original = (ROOT / path).read_text()
            baseline = ast.unparse(ast.parse(original))
            target, tests = work / path, TESTS[module]
            target.write_text(baseline)
            verdict, seconds = _run(work, tests, 600)
            if verdict != "survived":
                print(f"the unmutated tests of {module} do not pass ({verdict}); nothing to measure")
                return 2
            timeout = 3 * seconds + 10
            print(f"{module}: unmutated run {seconds:.1f} s; timeout {timeout:.0f} s per mutant",
                  flush=True)
            seen = {baseline}
            base_lines = baseline.splitlines()
            for name in names:
                label = f"{module}.{name}"
                tally[label] = {"killed": 0, "survived": 0, "timeout": 0}
                for site in _sites(_function(ast.parse(original), name)):
                    code = _mutate(original, name, site)
                    if code in seen:
                        continue
                    seen.add(code)
                    target.write_text(code)
                    verdict, seconds = _run(work, tests, timeout)
                    tally[label][verdict] += 1
                    # the first line that differs: the deleted one, or the mutant's
                    old, new = next((a, b) for a, b in zip(base_lines, code.splitlines())
                                    if a != b)
                    shown = (old if site[1] in ("delete", "guard") else new).strip()
                    print(f"{verdict:8} {label}:{site[3]} {site[4]}: {shown} ({seconds:.1f} s)",
                          flush=True)
                    if verdict != "killed":
                        found[label, verdict, site[4], shown] += 1
            target.write_text(baseline)
    print()
    width = max(len(label) for label in tally)
    print(f"{'function':{width}} {'mutants':>7} {'killed':>7} {'survived':>8} {'timeout':>7}")
    for label, t in tally.items():
        print(f"{label:{width}} {sum(t.values()):7} {t['killed']:7} {t['survived']:8} "
              f"{t['timeout']:7}")
    unexplained = found - ledger
    stale = Counter({k: n for k, n in (ledger - found).items() if k[0] in tally})
    for what, keys in (("unexplained", unexplained), ("stale", stale)):
        for key in sorted(keys.elements()):
            print(f"{what}: {' | '.join(key)}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
