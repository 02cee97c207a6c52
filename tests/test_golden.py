"""Golden behaviour: simplification results and pattern reports, pinned.

One canonical text line per graph holds what ``simplify`` eliminated and
removed, its iteration count and trace, and every pattern instance (key
and witness paths) that ``enumerate_patterns`` reports with and without
``original``. ``tests/data/golden.json`` stores the sha256 of each line as
recorded before the analysis layer was pruned, so any change to instances,
witnesses or simplification results fails here.

To re-record after an intended behaviour change, run
``PYTHONPATH=src python tests/test_golden.py --write`` from the repo root.
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

from maidkit import card_game, enumerate_patterns, principal_agent, simplify

import helpers

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.json"


def golden_graphs():
    yield "card1", card_game(1)
    yield "pa", principal_agent()
    yield "cascade", helpers.cascade_maid()
    yield "pennies", helpers.matching_pennies()
    yield "sig_min", helpers.minimal_signaling()
    yield "card5", card_game(5)
    for s in range(40):
        yield f"random{s}", helpers.random_structure_maid(random.Random(s))


def _edges(edges) -> str:
    return ",".join(f"{a}>{b}" for a, b in edges)


def _report(report) -> str:
    parts = []
    for inst in report.all_instances():
        witnesses = ";".join(f"{name}={path}" for name, path in inst.witness_paths)
        parts.append(f"{'/'.join(inst.key())}[{witnesses}]")
    flags = ",".join(f"{d}={int(v)}" for d, v in sorted(report.effectiveness.items()))
    return f"flags={flags} instances={' '.join(parts)}"


def golden_line(maid) -> str:
    result = simplify(maid)
    trace = " ".join(
        f"({r.index}:{','.join(r.eliminated)}:{_edges(r.conversion_removed_edges)}"
        f":{_edges(r.pruned_edges)})" for r in result.trace)
    return " | ".join([
        f"eliminated={','.join(result.eliminated)}",
        f"removed={_edges(result.removed_edges)}",
        f"iterations={result.iterations}",
        f"trace={trace}",
        f"simplified: {_report(enumerate_patterns(maid))}",
        f"original: {_report(enumerate_patterns(maid, original=True))}",
    ])


def _digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()


def test_behaviour_matches_golden_record():
    expected = json.loads(GOLDEN.read_text())
    actual = {name: _digest(golden_line(maid)) for name, maid in golden_graphs()}
    assert set(actual) == set(expected)
    changed = sorted(name for name in actual if actual[name] != expected[name])
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    record = {name: _digest(golden_line(maid)) for name, maid in golden_graphs()}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
