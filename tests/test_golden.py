"""Golden behaviour: simplification results, pattern reports and numeric
semantics, pinned.

One canonical text line per graph holds what ``simplify`` eliminated and
removed, its iteration count and trace, and every pattern instance (key
and witness paths) that ``enumerate_patterns`` reports with and without
``original``. ``tests/data/golden.json`` stores the sha256 of each line as
recorded before the analysis layer was pruned, so any change to instances,
witnesses or simplification results fails here.

A second line per parameterized game holds the ``verify_simplification``
status, the exact gaps and equilibrium rows, each agent's best-response gap
and expected utility under the uniform profile, and each decision's
brute-force motivation with the other decisions uniform.
``tests/data/golden_numeric.json`` stores their sha256, recorded before the
best-response code was consolidated, so any change to a float fails here.

To re-record after an intended behaviour change, run
``PYTHONPATH=src python tests/test_golden.py --write`` from the repo root.
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

from maidkit import (
    best_response_gap,
    card_game,
    enumerate_patterns,
    expected_utility,
    is_motivated_bruteforce,
    principal_agent,
    simplify,
    uniform_profile,
    verify_simplification,
)

import helpers

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.json"
GOLDEN_NUMERIC = pathlib.Path(__file__).parent / "data" / "golden_numeric.json"


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


def numeric_graphs():
    for n in (1, 2, 3):
        yield f"card{n}", card_game(n)
    yield "pennies", helpers.matching_pennies()
    for s in range(40):
        yield f"param{s}", helpers.random_parameterized_maid(random.Random(s))
    for s in range(5):
        yield f"pair{s}", helpers.two_decision_game(random.Random(s))


def _rows(profile) -> str:
    return ";".join(f"{d}={rule.rows!r}" for d, rule in sorted(profile.items()))


def numeric_line(maid) -> str:
    report = verify_simplification(maid, simplify(maid))
    uniform = uniform_profile(maid)
    agents = sorted(maid.agents)
    motivated = ",".join(
        f"{d}={int(is_motivated_bruteforce(maid, d, {k: r for k, r in uniform.items() if k != d}))}"
        for d in maid.decisions)
    return " | ".join([
        f"status={report.status}",
        f"gaps={','.join(f'{a}={g!r}' for a, g in sorted(report.gaps.items()))}",
        f"equilibrium={_rows(report.equilibrium or {})}",
        f"uniform_gaps={','.join(f'{a}={best_response_gap(maid, uniform, a)!r}' for a in agents)}",
        f"uniform_eu={','.join(f'{a}={expected_utility(maid, uniform, a)!r}' for a in agents)}",
        f"motivated={motivated}",
    ])


def _digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()


def _record(graphs, line) -> dict[str, str]:
    return {name: _digest(line(maid)) for name, maid in graphs()}


def _assert_matches(path, graphs, line):
    expected = json.loads(path.read_text())
    actual = _record(graphs, line)
    assert set(actual) == set(expected)
    changed = sorted(name for name in actual if actual[name] != expected[name])
    assert changed == []


def test_behaviour_matches_golden_record():
    _assert_matches(GOLDEN, golden_graphs, golden_line)


def test_numeric_behaviour_matches_golden_record():
    _assert_matches(GOLDEN_NUMERIC, numeric_graphs, numeric_line)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    for path, graphs, line in ((GOLDEN, golden_graphs, golden_line),
                               (GOLDEN_NUMERIC, numeric_graphs, numeric_line)):
        path.write_text(json.dumps(_record(graphs, line), indent=1, sort_keys=True) + "\n")
