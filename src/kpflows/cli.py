"""Command-line interface.

Subcommands: count, enumerate, verify, witness, generate, catalan.  Graphs
and netflows travel as JSON; counts are emitted as decimal strings so that
consumers never overflow.  Exit codes are the verdict channel:

    0  success / identity verified
    1  identity violated
    2  input error (bad flags, malformed JSON, files that cannot be read
       or written)
    3  hypothesis or domain constraint not met (check skipped, or the
       partial backend's literal aggregate is not the count)
    4  internal error: an unexpected exception, reported on one stderr
       line (its repr and innermost frame), so that no crash reads as a
       verdict
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Callable, Sequence

from .errors import HypothesisUnmet, KPFlowsError, NegativeExtension
from .counting import brute_force_count, count, enumerate_flows
from .graphs import GraphKind, SignedMultigraph, Theorem
from .identities import (
    IdentityReport, generate_bv_family, report_json_dict, verify_identity_a, verify_identity_c,
)
from .partial_flows import count_via_partial, enumerate_partial_flows, materialize_fiber
from .catalan import catalan_graph, catalan_netflow, catalan_product


class _InputError(KPFlowsError):
    """A bad flag value, file or JSON text: exit 2, like a library error."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpflows",
        description="Exact flow counts on signed multigraphs and their divisibility identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    theorems = [t.value for t in Theorem]

    def add_graph_and_netflow(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--graph", required=required, help="path to graph JSON")
        p.add_argument("--a", help="netflow as an inline JSON array, e.g. \"[1,0,-1]\"")
        p.add_argument("--a-file", help="path to netflow JSON {\"a\": [...]}")

    p_count = sub.add_parser("count", help="print the flow count as a decimal string")
    add_graph_and_netflow(p_count)
    p_count.add_argument(
        "--backend", choices=("dp", "brute", "partial"), default="dp",
        help="counting algorithm (default dp)",
    )

    p_enum = sub.add_parser("enumerate", help="list flows in lexicographic order")
    add_graph_and_netflow(p_enum)
    p_enum.add_argument("--limit", type=int, help="stop after this many flows")

    p_verify = sub.add_parser("verify", help="check a divisibility identity")
    p_verify.add_argument("--theorem", required=True, choices=theorems, help="identity variant")
    add_graph_and_netflow(p_verify, required=False)
    p_verify.add_argument(
        "--campaign", type=int, metavar="SEEDS",
        help="batch mode: verify generated instances for seeds 0..SEEDS-1",
    )
    p_verify.add_argument("--n-plus-1", type=int, default=4, help="campaign graph size")
    p_verify.add_argument("--max-mult", type=int, default=2, help="campaign multiplicity cap")
    p_verify.add_argument("--netflows-per-seed", type=int, default=3)
    p_verify.add_argument("--a-max", type=int, default=3, help="campaign supply cap")

    p_wit = sub.add_parser("witness", help="dump the partial-flow fibration")
    add_graph_and_netflow(p_wit)

    p_gen = sub.add_parser("generate", help="emit a random hypothesis-satisfying graph")
    p_gen.add_argument("--n-plus-1", type=int, required=True)
    p_gen.add_argument("--theorem", required=True, choices=theorems)
    p_gen.add_argument("--max-mult", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)

    p_cat = sub.add_parser(
        "catalan", help="compare the staircase count on the complete graph to the Catalan product"
    )
    p_cat.add_argument("--n", type=int, required=True)

    for p in sub.choices.values():
        p.add_argument("-o", "--output", help="write output here instead of stdout")
    return parser


def _decode(text: str, source: str) -> object:
    """JSON input; whatever the decoder rejects is an input error.  The
    int-to-str digit limit stays in force: a number that long is no count."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{source}: malformed JSON ({exc})")
    except (RecursionError, ValueError) as exc:  # too deep; too many digits
        raise _InputError(f"{source}: cannot decode JSON ({exc})")


def _load_json_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise _InputError(f"{path}: file not found")
    except OSError as exc:
        raise _InputError(f"{path}: cannot read ({exc.strerror})")
    except UnicodeDecodeError:
        raise _InputError(f"{path}: not UTF-8 text")
    return _decode(text, path)


def _load_graph(path: str) -> SignedMultigraph:
    obj = _load_json_file(path)
    try:
        return SignedMultigraph.from_json_dict(obj)
    except (ValueError, KPFlowsError) as exc:
        raise _InputError(f"{path}: {exc}")


def _load_netflow(args: argparse.Namespace) -> tuple:
    """The netflow as given; its length and entries are checked by the
    library call that reads it (``counting._check_netflow``)."""
    inline = getattr(args, "a", None)
    from_file = getattr(args, "a_file", None)
    if inline is not None and from_file is not None:
        raise _InputError("give the netflow either inline (--a) or as a file (--a-file), not both")
    if inline is not None:
        raw, source = _decode(inline, "--a"), "--a"
    elif from_file is not None:
        obj = _load_json_file(from_file)
        if not isinstance(obj, dict) or "a" not in obj:
            raise _InputError(f"{from_file}: netflow JSON must be an object with field 'a'")
        raw, source = obj["a"], f"{from_file}: field 'a'"
    else:
        raise _InputError("a netflow is required (--a or --a-file)")
    if not isinstance(raw, list):
        raise _InputError(f"{source}: netflow must be a JSON array of integers")
    return tuple(raw)


def _emit(args: argparse.Namespace, render: Callable[[], str]) -> None:
    """Write ``render()`` to -o or stdout.  The int-to-str digit limit
    (Python >= 3.10.7) is lifted while it runs, so that counts print exactly
    at any length, and then restored, since input decoding keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = render()
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    out = getattr(args, "output", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _InputError(f"{out}: cannot write ({exc.strerror})")
    else:
        sys.stdout.write(text + "\n")


def _cmd_count(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    a = _load_netflow(args)
    if args.backend == "dp":
        value = count(graph, a)
    elif args.backend == "brute":
        value = brute_force_count(graph, a)
    else:
        value = count_via_partial(graph, a, require_full=True).total
    _emit(args, lambda: str(value))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    a = _load_netflow(args)
    limit = args.limit
    if limit is not None and limit < 1:
        raise _InputError("--limit must be a positive integer")
    probe = limit + 1 if limit is not None else None
    flows = enumerate_flows(graph, a, limit=probe)
    truncated = limit is not None and len(flows) > limit
    if truncated:
        flows = flows[:limit]
    payload = {
        "returned": len(flows),
        "truncated": truncated,
        "flows": flows,
    }
    _emit(args, lambda: json.dumps(payload))
    return 0


def _verify_one(
    graph: SignedMultigraph, a: Sequence[int], theorem: Theorem
) -> tuple[IdentityReport, int]:
    if theorem is Theorem.TYPE_A:
        report = verify_identity_a(graph, a)
    else:
        report = verify_identity_c(graph, a, theorem)
    if report.skipped:
        return report, 3
    return report, 0 if report.verdict else 1


def _campaign_netflows(
    kind: GraphKind, n: int, per_seed: int, a_max: int, seed: int
) -> list[tuple[int, ...]]:
    rng = random.Random(1_000_003 * seed + 17)
    out = []
    for _ in range(per_seed):
        head = [rng.randint(0, a_max) for _ in range(n)]
        if kind is GraphKind.TYPE_A:
            out.append(tuple(head) + (-sum(head),))
        else:
            y = rng.randint(0, a_max)
            out.append(tuple(head) + (2 * y - sum(head),))
    return out


def _cmd_verify(args: argparse.Namespace) -> int:
    theorem = Theorem(args.theorem)
    if args.campaign is None:
        if args.graph is None:
            raise _InputError("verify needs --graph (or --campaign)")
        graph = _load_graph(args.graph)
        a = _load_netflow(args)
        report, code = _verify_one(graph, a, theorem)
        _emit(args, lambda: json.dumps(report_json_dict(report)))
        return code
    if args.graph is not None or args.a is not None or args.a_file is not None:
        raise _InputError("--campaign does not take --graph/--a/--a-file")
    if args.campaign < 1:
        raise _InputError("--campaign needs a positive seed count")
    if args.netflows_per_seed < 1:
        raise _InputError("--netflows-per-seed needs a positive count")
    if args.a_max < 0:
        raise _InputError("--a-max must be at least 0")
    kind = theorem.kind
    reports = []
    n_true = n_false = n_skip = 0
    for seed in range(args.campaign):
        graph = generate_bv_family(args.n_plus_1, theorem, args.max_mult, seed)
        for a in _campaign_netflows(kind, graph.n, args.netflows_per_seed, args.a_max, seed):
            report, code = _verify_one(graph, a, theorem)
            reports.append((seed, a, report))
            if code == 3:
                n_skip += 1
            elif code == 0:
                n_true += 1
            else:
                n_false += 1
    summary = {
        "instances": n_true + n_false + n_skip,
        "verified": n_true,
        "violated": n_false,
        "skipped": n_skip,
    }
    _emit(args, lambda: "\n".join(
        [json.dumps({"seed": seed, "a": list(a), **report_json_dict(report)})
         for seed, a, report in reports] + [json.dumps(summary)]
    ))
    return 1 if n_false else 0


def _cmd_witness(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    a = _load_netflow(args)
    certificates = []
    for pf in enumerate_partial_flows(graph, a):
        fiber = materialize_fiber(graph, pf, a)
        certificates.append(
            {
                "partial_flow": pf.values,
                "Y": pf.inflows,
                "fiber_size": len(fiber),
                "fiber": fiber,
            }
        )
    _emit(args, lambda: json.dumps(certificates))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = generate_bv_family(args.n_plus_1, Theorem(args.theorem), args.max_mult, args.seed)
    _emit(args, lambda: json.dumps(graph.to_json_dict()))
    return 0


def _cmd_catalan(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise _InputError("--n must be at least 1")
    value = count(catalan_graph(args.n), catalan_netflow(args.n))
    product = catalan_product(args.n)
    _emit(args, lambda: json.dumps({
        "n": args.n,
        "count": str(value),
        "catalan_product": str(product),
        "match": value == product,
    }))
    return 0 if value == product else 1


_DISPATCH = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "witness": _cmd_witness,
    "generate": _cmd_generate,
    "catalan": _cmd_catalan,
}


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except HypothesisUnmet as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 3
    except NegativeExtension as exc:
        print(f"outside the partial backend's domain: {exc}", file=sys.stderr)
        return 3
    except KPFlowsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # KeyboardInterrupt and other BaseExceptions pass
        import traceback  # only on this path: importing it costs every run ~3 ms

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        print(f"internal error: {exc!r} at {where}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
