"""Command-line front end.

Subcommands: validate, patterns, simplify, verify, bench, fixture,
export-dot. Exit codes: 0 success (or verification pass), 1 validation or
verification failure, 2 usage, file syntax or other library error, and
any internal error, which prints the one line
``error: internal error: <Type>: <message>`` instead of a traceback. All
output is deterministic for identical inputs and seeds, except the
wall_time_ms field of bench.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .core import Maid, MaidError, is_fully_parameterized, validate
from .maidfile import parse_maidfile, render_maidfile
from .fixtures import FIXTURE_NAMES, card_game, fixture
from .patterns import enumerate_patterns
from .simplify import simplify
from .semantics import leaf_metric, verify_simplification


def _read_graph(path: str) -> Maid:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MaidError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise MaidError(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    return parse_maidfile(text)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MaidError(f"cannot write {out_path}: {exc.strerror}") from exc


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _validated(maid: Maid) -> int:
    """Print diagnostics if any; 0 when clean, 1 otherwise."""
    diagnostics = validate(maid)
    for diag in diagnostics:
        print(f"{diag.node}: {diag.rule}: {diag.message}", file=sys.stderr)
    return 1 if diagnostics else 0


def _cmd_validate(args) -> int:
    maid = _read_graph(args.file)
    status = _validated(maid)
    if status == 0:
        print("ok")
    return status


def _cmd_patterns(args) -> int:
    maid = _read_graph(args.file)
    if _validated(maid):
        return 1
    report = enumerate_patterns(maid, original=args.original)
    if args.json:
        payload = []
        for inst in report.all_instances():
            payload.append({
                "decision": inst.decision,
                "kind": inst.kind.value,
                "bindings": inst.bindings(),
                "witness_paths": {name: str(p) for name, p in inst.witness_paths},
            })
        _print_json(payload)
        return 0
    for d in sorted(report.instances):
        found = report.instances[d]
        if not found:
            note = "" if report.effectiveness.get(d, False) else " (eliminated)"
            print(f"{d}: no patterns{note}")
            continue
        for inst in found:
            bindings = " ".join(f"{k}={v}" for k, v in inst.bindings().items())
            print(f"{d}: {inst.kind.value} {bindings}")
            for name, path in inst.witness_paths:
                print(f"  {name}: {path}")
    return 0


def _trace_payload(result):
    return [{
        "iteration": rec.index,
        "eliminated": list(rec.eliminated),
        "conversion_removed_edges": [list(e) for e in rec.conversion_removed_edges],
        "pruned_edges": [list(e) for e in rec.pruned_edges],
    } for rec in result.trace]


def _cmd_simplify(args) -> int:
    maid = _read_graph(args.file)
    if _validated(maid):
        return 1
    result = simplify(maid)
    final_text = render_maidfile(result.final)
    if args.out is not None:
        _emit(final_text, args.out)
    if args.json:
        payload = {
            "eliminated": list(result.eliminated),
            "removed_edges": [list(e) for e in result.removed_edges],
            "iterations": result.iterations,
            "final": final_text,
        }
        if args.trace:
            payload["trace"] = _trace_payload(result)
        _print_json(payload)
        return 0
    print("eliminated: " + (", ".join(result.eliminated) or "(none)"))
    print("removed edges: " +
          (", ".join(f"{p}->{d}" for p, d in result.removed_edges) or "(none)"))
    print(f"iterations: {result.iterations}")
    if args.trace:
        for rec in result.trace:
            print(f"iteration {rec.index}: eliminated "
                  f"[{', '.join(rec.eliminated) or ''}], conversion removed "
                  f"[{', '.join(f'{p}->{d}' for p, d in rec.conversion_removed_edges)}], "
                  f"pruned [{', '.join(f'{p}->{d}' for p, d in rec.pruned_edges)}]")
    if args.out is None:
        sys.stdout.write(final_text)
    return 0


def _cmd_verify(args) -> int:
    maid = _read_graph(args.file)
    if _validated(maid):
        return 1
    if not is_fully_parameterized(maid):
        print("verify needs a fully parameterized game (every chance node a cpt, "
              "every utility node a table); this file is structure-only",
              file=sys.stderr)
        return 1
    result = simplify(maid)
    report = verify_simplification(maid, result, seed=args.seed, tol=args.tol)
    if args.json:
        _print_json({
            "status": report.status,
            "gaps": {agent: report.gaps[agent] for agent in sorted(report.gaps)},
            "detail": report.detail,
        })
    else:
        print(f"status: {report.status}")
        for agent in sorted(report.gaps):
            print(f"gap {agent}: {report.gaps[agent]:.12g}")
        print(report.detail)
    return 1 if report.status == "fail" else 0


def _cmd_bench(args) -> int:
    maid = card_game(args.n)
    start = time.perf_counter()
    result = simplify(maid)
    original_metric = leaf_metric(maid)
    simplified_metric = leaf_metric(result.final)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    per_decision = [{"decision": d, "leaves": simplified_metric.per_decision[d]}
                    for d in sorted(simplified_metric.per_decision)]
    if args.json:
        _print_json({
            "n": args.n,
            "monolithic_leaves": original_metric.monolithic,
            "decoupled_total": simplified_metric.decoupled_total,
            "per_decision": per_decision,
            "wall_time_ms": elapsed_ms,
        })
        return 0
    print(f"n: {args.n}")
    print(f"monolithic leaves: {original_metric.monolithic}")
    print(f"decoupled total: {simplified_metric.decoupled_total}")
    for entry in per_decision:
        print(f"  {entry['decision']}: {entry['leaves']}")
    print(f"wall time: {elapsed_ms:.3f} ms")
    return 0


def _cmd_fixture(args) -> int:
    maid = fixture(args.name, n=args.n)
    _emit(render_maidfile(maid), args.out)
    return 0


_DOT_SHAPES = {"chance": "ellipse", "decision": "box", "utility": "diamond"}


def _cmd_export_dot(args) -> int:
    maid = _read_graph(args.file)
    if _validated(maid):
        return 1
    lines = ["digraph maid {"]
    for node_id in sorted(maid.nodes):
        node = maid.nodes[node_id]
        label = node_id if node.owner is None else f"{node_id} ({node.owner})"
        lines.append(f'  "{node_id}" [shape={_DOT_SHAPES[node.kind.value]}, '
                     f'label="{label}"];')
    for p, c in maid.edges:
        lines.append(f'  "{p}" -> "{c}";')
    lines.append("}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maid",
        description="Analyze reasoning patterns in multi-agent influence "
                    "diagrams and simplify the games they describe.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file for structural problems")
    p.add_argument("file")

    p = sub.add_parser("patterns", help="report reasoning pattern instances")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--original", action="store_true",
                   help="detect on the input graph without simplifying first")

    p = sub.add_parser("simplify", help="eliminate pattern-free decisions and "
                                        "prune uninformative edges")
    p.add_argument("file")
    p.add_argument("--out", help="write the simplified game to a file")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check that simplification preserved "
                                      "equilibria")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bench", help="leaf-count savings of simplification")
    p.add_argument("name", choices=["card-game"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fixture", help="write a built-in example game")
    p.add_argument("name", choices=list(FIXTURE_NAMES))
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("export-dot", help="render a game file as Graphviz DOT")
    p.add_argument("file")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up on each call, so a replaced handler takes effect.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except MaidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug or a resource limit, never a traceback
        message = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
