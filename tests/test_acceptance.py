"""Acceptance checks for the toolkit, one test per claim.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
check, or add `-s` to see the one-line summaries. Tolerances are part of
each claim and are asserted exactly as stated:

 01 card-game simplification is exact and runs in under 50 ms
 02 leaf-count savings follow the closed forms for n in 1..10
 03 the principal-agent game reports the nine expected instances
 04 scan order never changes the simplification outcome (100 x 100)
 05 eliminated decisions are never motivated (200 games x 20 profiles)
 06 replayed equilibria survive in the original game (200 games)
 07 d-separation agrees with trail enumeration on every triple (200 DAGs)
 08 removing an edge never creates a pattern instance (100 graphs)
 09 analysis of card-game(100) stays under 1 s with sane growth
 10 witness search stays polynomial: a dense blocked query and a
    3000-node chain each take under 1 s
"""
from __future__ import annotations

import functools
import itertools
import random
import time

from maidkit import (
    NodeKind,
    card_game,
    d_separated,
    enumerate_patterns,
    find_path,
    is_motivated_bruteforce,
    leaf_metric,
    remove_edge,
    simplify,
    verify_simplification,
)

from maidkit.analysis import effective_query

import helpers

TOL = 1e-9


def test_01_card_game_exact_simplification():
    game = card_game(1)
    start = time.perf_counter()
    result = simplify(game)
    elapsed = time.perf_counter() - start
    assert set(result.eliminated) == {"A"}
    assert set(result.removed_edges) == {("J", "A"), ("J", "C"),
                                         ("A", "B"), ("C", "B")}
    assert result.iterations == 2
    final = result.final
    assert final.nodes["A"].kind is NodeKind.CHANCE
    assert final.nodes["A"].parents == ()
    assert final.children("A") == ()
    assert set(final.edge_set) == {("J", "U_B"), ("B", "U_A"), ("B", "U_B"),
                                   ("B", "U_C"), ("C", "U_C")}
    assert elapsed < 0.050
    print(f"\nPASS 01 card-game exact: eliminated {{A}}, 4 edges removed, "
          f"2 iterations, {elapsed * 1000:.1f} ms")


def test_02_leaf_count_closed_forms():
    for n in range(1, 11):
        game = card_game(n)
        result = simplify(game)
        monolithic = leaf_metric(game).monolithic
        decoupled = leaf_metric(result.final).decoupled_total
        assert monolithic == 3 ** (2 + n), f"n={n}"
        assert decoupled == 9 * (n + 1), f"n={n}"
    print("PASS 02 leaf counts: monolithic 3^(2+n) and decoupled 9(n+1) "
          "for n in 1..10")


def test_03_principal_agent_enumeration(pa):
    report = enumerate_patterns(pa)
    found = {inst.key() for inst in report.all_instances()}
    required = {
        ("direct_effect", "P1", "U_P1", "", "", ""),
        ("direct_effect", "P2", "U_P2", "", "", ""),
        ("direct_effect", "D1", "U_D1", "", "", ""),
        ("direct_effect", "D2", "U_D2", "", "", ""),
        ("manipulation", "P1", "U_P1", "D1", "U_D1", ""),
        ("manipulation", "P2", "U_P2", "D2", "U_D2", ""),
        ("manipulation", "D1", "U_D2", "P2", "U_P2", ""),
        ("signaling", "D1", "U_D2", "P2", "U_P2", "P1"),
        ("reveal_deny", "P1", "U_P2", "P2", "U_P2", ""),
    }
    missing = required - found
    assert not missing, f"missing instances: {sorted(missing)}"
    print(f"PASS 03 principal-agent: all 9 required instances present "
          f"({len(found)} total)")


def test_04_scan_order_independence():
    mismatches = 0
    seed_rng = random.Random(404)
    for graph_seed in range(100):
        maid = helpers.random_structure_maid(random.Random(graph_seed))
        base = simplify(maid)
        base_state = ({n: base.final.nodes[n].kind for n in base.final.nodes},
                      set(base.final.edge_set), dict(base.effectiveness))
        for _ in range(100):
            other = simplify(maid, order_seed=seed_rng.randrange(10 ** 9))
            state = ({n: other.final.nodes[n].kind for n in other.final.nodes},
                     set(other.final.edge_set), dict(other.effectiveness))
            if state != base_state:
                mismatches += 1
    assert mismatches == 0
    print("PASS 04 order independence: 100 graphs x 100 scan orders, "
          "0 mismatches")


@functools.lru_cache(maxsize=1)
def _parameterized_runs():
    """200 random parameterized games with their simplification results;
    shared between the motivation and the equilibrium checks."""
    runs = []
    for seed in range(200):
        maid = helpers.random_parameterized_maid(random.Random(seed))
        runs.append((seed, maid, simplify(maid)))
    return runs


def test_05_eliminated_decisions_are_unmotivated():
    checks = 0
    for seed, maid, result in _parameterized_runs():
        rng = random.Random(seed + 5000)
        for d in result.eliminated:
            for _ in range(20):
                profile = helpers.sample_measurable_profile(maid, result, rng)
                others = {k: v for k, v in profile.items() if k != d}
                assert is_motivated_bruteforce(maid, d, others, tol=TOL) is False, \
                    f"seed {seed}: eliminated decision {d} is motivated"
                checks += 1
    assert checks > 0
    print(f"PASS 05 motivation: {checks} profile checks on eliminated "
          f"decisions, 0 violations (tol {TOL})")


def test_06_simplification_preserves_equilibria(card1):
    report = verify_simplification(card1, simplify(card1), tol=TOL)
    assert report.status == "pass", report.detail
    assert all(g <= TOL for g in report.gaps.values())

    inconclusive = 0
    total = 0
    for seed, maid, result in _parameterized_runs():
        rep = verify_simplification(maid, result, tol=TOL)
        total += 1
        if rep.status == "inconclusive":
            inconclusive += 1
            continue
        assert rep.status == "pass", f"seed {seed}: {rep.detail}"
    assert inconclusive < total / 2, \
        f"{inconclusive}/{total} games had no pure equilibrium to replay"
    print(f"PASS 06 equilibrium replay: card game and {total - inconclusive}"
          f"/{total} random games pass, {inconclusive} without a pure "
          f"equilibrium excluded")


def test_07_d_separation_matches_trail_enumeration():
    triples = 0
    for seed in range(200):
        maid = helpers.random_dag_maid(random.Random(seed))
        nodes = sorted(maid.nodes)
        oracle = helpers.DSepOracle(nodes, maid.edges)
        for x, y in itertools.combinations(nodes, 2):
            rest = [n for n in nodes if n != x and n != y]
            for r in range(len(rest) + 1):
                for w in itertools.combinations(rest, r):
                    ours = d_separated(maid, x, y, frozenset(w))
                    assert ours == oracle.d_separated(x, y, w), \
                        f"seed {seed}: ({x}, {y}, {set(w)})"
                    triples += 1
    print(f"PASS 07 d-separation: {triples} triples across 200 DAGs agree "
          f"with trail enumeration")


def test_08_edge_removal_never_creates_patterns():
    graphs = 0
    for seed in range(100):
        rng = random.Random(seed)
        maid = helpers.random_structure_maid(rng)
        if not maid.edges:
            continue
        before = enumerate_patterns(maid, original=True)
        p, c = maid.edges[rng.randrange(len(maid.edges))]
        smaller = remove_edge(maid, p, c)
        after = enumerate_patterns(smaller, original=True)
        for d in maid.decisions:
            gained = ({i.key() for i in after.instances[d]} -
                      {i.key() for i in before.instances[d]})
            assert not gained, \
                f"seed {seed}: removing ({p}, {c}) created {sorted(gained)}"
        graphs += 1
    print(f"PASS 08 monotonicity: one random edge removed from {graphs} "
          f"graphs, no new instances")


def test_09_scaling():
    def analyze(n: int) -> float:
        game = card_game(n)
        start = time.perf_counter()
        result = simplify(game)
        leaf_metric(game)
        leaf_metric(result.final)
        return time.perf_counter() - start

    t_small = analyze(25)
    t_large = analyze(100)
    assert t_large < 1.0, f"card-game(100) took {t_large:.3f}s"
    assert t_large < 100 * t_small, \
        f"time grew {t_large / t_small:.1f}x from n=25 to n=100"
    print(f"PASS 09 scaling: n=100 in {t_large * 1000:.0f} ms, "
          f"{t_large / t_small:.1f}x the n=25 time")


def test_10_search_is_polynomial():
    def timed(fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start

    # X0 starts exponentially many simple trails, and none reaches T once Z
    # is conditioned on: a search that tries them all never finishes here.
    dense = helpers.blocked_dense_dag(14)
    path, t_dense = timed(find_path, dense, effective_query("X0", "T", {"Z"}))
    assert path is None
    assert t_dense < 1.0, f"dense blocked query took {t_dense:.3f}s"

    chain = helpers.decision_chain(3000)
    result, t_simplify = timed(simplify, chain)
    assert result.eliminated == ()
    assert t_simplify < 1.0, f"simplify on the chain took {t_simplify:.3f}s"
    report, t_patterns = timed(enumerate_patterns, chain, original=True)
    (instance,) = report.all_instances()
    assert len(instance.witness_paths[0][1].nodes) == 3002
    assert t_patterns < 1.0, f"enumerate_patterns on the chain took {t_patterns:.3f}s"
    print(f"PASS 10 polynomial search: dense blocked query {len(dense.nodes)} nodes / "
          f"{len(dense.edges)} edges in {t_dense * 1000:.1f} ms, 3000-node chain "
          f"simplify {t_simplify * 1000:.0f} ms, patterns {t_patterns * 1000:.0f} ms")
