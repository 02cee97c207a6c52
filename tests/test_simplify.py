"""Iterative simplification: frozen fixture outcomes, phase isolation, and
order independence."""
from __future__ import annotations

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maidkit import (
    Maid,
    MaidError,
    Node,
    NodeKind,
    ValidationError,
    card_game,
    identification_phase,
    retract_edges,
    simplify,
    validate,
)

import helpers

# The package exports the function simplify under the module's name.
simplify_module = importlib.import_module("maidkit.simplify")


# -- card game ------------------------------------------------------------------


def test_card_game_outcome(card1):
    result = simplify(card1)
    assert result.eliminated == ("A",)
    assert result.removed_edges == (("J", "A"), ("J", "C"), ("A", "B"), ("C", "B"))
    assert result.iterations == 2
    assert result.effectiveness == {"A": False, "B": True, "C": True}
    assert result.final.edges == (("B", "U_A"), ("B", "U_B"), ("B", "U_C"),
                                  ("C", "U_C"), ("J", "U_B"))
    assert result.original is card1


def test_card_game_demoted_node(card1):
    a = simplify(card1).final.nodes["A"]
    assert a.kind is NodeKind.CHANCE
    assert a.owner is None
    assert a.parents == ()
    assert a.cpt == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_card_game_trace(card1):
    result = simplify(card1)
    first, last = result.trace
    assert (first.index, first.eliminated) == (1, ("A",))
    assert first.conversion_removed_edges == (("J", "A"),)
    assert first.pruned_edges == (("J", "C"), ("A", "B"), ("C", "B"))
    assert (last.eliminated, last.conversion_removed_edges, last.pruned_edges) == \
        ((), (), ())
    assert len(result.trace) == result.iterations


def test_card_game_is_idempotent(card1):
    once = simplify(card1)
    again = simplify(once.final)
    assert again.final == once.final
    assert again.eliminated == ()
    assert again.removed_edges == ()
    assert again.iterations == 1


# -- other fixtures ---------------------------------------------------------------


def test_principal_agent_is_already_minimal(pa):
    result = simplify(pa)
    assert result.final == pa
    assert result.eliminated == ()
    assert result.removed_edges == ()
    assert result.iterations == 1
    assert all(result.effectiveness.values())


def test_cascade_eliminates_in_dependency_order(cascade):
    # dC's own payoff is a constant, so dC goes first; that conversion cuts
    # nB's route to uA, which starves dA's manipulation on the rescan of
    # the same identification phase.
    result = simplify(cascade)
    assert result.eliminated == ("dC", "dA")
    assert result.removed_edges == (("nB", "dC"),)
    assert result.trace[0].eliminated == ("dC", "dA")
    assert result.iterations == 2
    assert result.final.edges == (("dA", "nB"), ("dA", "uB"),
                                  ("dC", "uA"), ("nB", "uB"))


def test_minimal_signaling_trace(sig_min):
    # Neither information edge survives retraction (conditioning on the
    # observer's own action screens both sources off from the observer's
    # payoff), after which d_A has no ancestor left to signal about.
    result = simplify(sig_min)
    assert result.trace[0].pruned_edges == (("t", "d_A"), ("d_A", "d_B"))
    assert result.trace[0].eliminated == ()
    assert result.trace[1].eliminated == ("d_A",)
    assert result.trace[1].conversion_removed_edges == ()
    assert result.iterations == 3
    assert result.eliminated == ("d_A",)


# -- phases in isolation -----------------------------------------------------------


def test_identification_phase_alone(card1):
    out = identification_phase(card1)
    assert not hasattr(out, "changed")  # removed in 0.4.0: it was bool(eliminated)
    assert out.eliminated == ("A",)
    assert out.removed_edges == (("J", "A"),)
    assert out.effectiveness == {"A": False, "B": True, "C": True}
    assert not out.maid.nodes["A"].is_decision
    idle = identification_phase(out.maid)
    assert idle.eliminated == ()


def test_retract_edges_after_identification(card1):
    demoted = identification_phase(card1).maid
    _, removed = retract_edges(demoted)
    assert removed == (("J", "C"), ("A", "B"), ("C", "B"))


def test_retract_edges_on_original_card_game(card1):
    # Run before any demotion, retraction strips every information edge:
    # each test conditions on the observing decision, and with all policy
    # edges down at the start no source reaches a payoff of the observer's
    # owner except through a closed converging node.
    _, removed = retract_edges(card1)
    assert removed == (("J", "A"), ("J", "C"), ("A", "B"), ("C", "B"))


def test_retract_edges_keeps_informative_parents(pa):
    final, removed = retract_edges(pa)
    assert removed == ()
    assert final == pa


def test_direct_effects_are_not_checked_again_within_a_phase(monkeypatch):
    # On card_game(5) every decision but A has a one-edge direct effect,
    # which one backward pass from the utilities finds. The phase asks a
    # detector about A alone: it demotes A in its first pass, and the
    # second pass, which confirms the fixed point, asks nothing.
    game = card_game(5)
    asked = []
    detect = simplify_module._detect

    def recording(maid, d, *args, **kwargs):
        asked.append(d)
        return detect(maid, d, *args, **kwargs)

    monkeypatch.setattr(simplify_module, "_detect", recording)
    out = identification_phase(game)
    assert out.eliminated == ("A",)
    assert asked == ["A"]


def test_direct_effects_are_not_checked_again_within_a_run(monkeypatch):
    # The backward pass runs once per simplify run, and its marks hold for
    # the whole run, so the confirming iteration of simplify(card_game(5))
    # asks no detector at all: one detection pass in the run, about A.
    game = card_game(5)
    asked = []
    detect = simplify_module._detect

    def recording(maid, d, *args, **kwargs):
        asked.append(d)
        return detect(maid, d, *args, **kwargs)

    monkeypatch.setattr(simplify_module, "_detect", recording)
    result = simplify(game)
    assert result.eliminated == ("A",) and result.iterations == 2
    assert asked == ["A"]


def assert_simplify_matches_reference(maid, order_seed):
    result = simplify(maid, order_seed=order_seed)
    ref = helpers.reference_simplify(maid, order_seed=order_seed)
    assert result.final == ref.final
    assert result.eliminated == ref.eliminated
    assert result.removed_edges == ref.removed_edges
    assert result.effectiveness == ref.effectiveness
    assert result.iterations == ref.iterations
    assert result.trace == ref.trace


@settings(max_examples=60)
@given(seed=st.integers(0, 10_000), order_seed=st.none() | st.integers(0, 1000),
       family=st.sampled_from(("structure", "parameterized", "two_decision")))
def test_simplify_matches_reference(seed, order_seed, family):
    generate = {"structure": helpers.random_structure_maid,
                "parameterized": helpers.random_parameterized_maid,
                "two_decision": helpers.two_decision_game}[family]
    assert_simplify_matches_reference(generate(random.Random(seed)), order_seed)


def test_simplify_matches_reference_on_fixtures(card1, pa, cascade, sig_min):
    for maid in (card1, card_game(5), pa, cascade, sig_min):
        for order_seed in (None, *range(4)):
            assert_simplify_matches_reference(maid, order_seed)


# -- retraction against the edge-by-edge loop ------------------------------------


def revived_collider_maid():
    """(p, d) is revived only through the converging arrows at c, which
    open once the information edge (c, e) is re-enabled: e -> o leads down
    to d's observation o. Orders that test (p, d) before (c, e) revive it
    in a later sweep."""
    b = ("f", "t")
    return Maid.build(agents=["x", "y"], nodes=[
        Node.chance("p", b), Node.chance("q", b),
        Node.chance("c", b, parents=("p", "q")),
        Node.decision("e", owner="y", domain=b, parents=("c",)),
        Node.chance("o", b, parents=("e",)),
        Node.decision("d", owner="x", domain=b, parents=("o", "p")),
        Node.utility("u", owner="x", parents=("q", "d")),
        Node.utility("v", owner="y", parents=("c", "e")),
    ])


def assert_retraction_matches_reference(maid, order_seed):
    def order():
        return None if order_seed is None else random.Random(order_seed)

    final, removed = retract_edges(maid, order())
    ref_final, ref_removed = helpers.reference_retract_edges(maid, order())
    assert removed == ref_removed
    # Node equality compares the probability and payoff tables exactly.
    assert final == ref_final
    assert [n.synthetic_params for n in final.nodes.values()] == \
        [n.synthetic_params for n in ref_final.nodes.values()]


@settings(max_examples=60)
@given(seed=st.integers(0, 10_000), order_seed=st.none() | st.integers(0, 1000),
       parameterized=st.booleans())
def test_retraction_matches_reference(seed, order_seed, parameterized):
    generate = (helpers.random_parameterized_maid if parameterized
                else helpers.random_structure_maid)
    maid = generate(random.Random(seed))
    demoted = identification_phase(maid).maid
    for graph in (maid, demoted):
        assert_retraction_matches_reference(graph, order_seed)


def test_retraction_matches_reference_on_fixtures(card1, pa, cascade, sig_min):
    # In principal_agent, r0 -> P1 is revived only once r1 -> P2 is: the
    # route r0 -> r1 -> P2 -> U_P2 needs that edge.
    revived = revived_collider_maid()
    assert retract_edges(revived)[1] == ()
    for maid in (card1, card_game(4), pa, cascade, sig_min, revived):
        for order_seed in (None, *range(8)):
            assert_retraction_matches_reference(maid, order_seed)


class CountingMap(dict):
    """A copy of an adjacency map that counts the entries read through it."""

    def __init__(self, adjacency, reads):
        super().__init__(adjacency)
        self.reads = reads

    def __getitem__(self, node):
        entry = super().__getitem__(node)
        self.reads[0] += len(entry)
        return entry

    def get(self, node, default=None):
        entry = super().get(node, default)
        self.reads[0] += len(entry or ())
        return entry


def test_retraction_reads_linearly_many_adjacency_entries(monkeypatch):
    # On an identified card game each ball reads only enabled edges, 2n
    # entries in all. Balls that tested an edge mask on the full adjacency
    # read n^2 + 4n + 1: each of the n balls from J, one per edge (J, C_k),
    # read all of J's n + 1 children.
    reaches_any = simplify_module._reaches_any
    reads = [0]

    def counting(children, parents, *args):
        return reaches_any(CountingMap(children, reads), CountingMap(parents, reads), *args)

    monkeypatch.setattr(simplify_module, "_reaches_any", counting)
    counts = {}
    for n in (100, 400):
        game = card_game(n)
        identified = identification_phase(game).maid
        reads[0] = 0
        retract_edges(identified)
        counts[n] = reads[0]
    assert 0 < counts[400] <= 4.5 * counts[100]


def test_retraction_resolves_each_edited_head_once(monkeypatch):
    # An identified card game loses B's n + 1 information edges and one
    # into each other decision: the new graph resolves the parents of each
    # of those heads once, not once per removed edge.
    core_module = importlib.import_module("maidkit.core")
    resolve = core_module._resolved_parents
    resolved = []

    def counting(nodes, node):
        resolved.append(node.id)
        return resolve(nodes, node)

    monkeypatch.setattr(core_module, "_resolved_parents", counting)
    for n in (10, 100):
        game = card_game(n)
        identified = identification_phase(game).maid
        resolved.clear()
        _, removed = retract_edges(identified)
        assert len(removed) == 2 * n + 1
        assert sorted(resolved) == sorted({head for _, head in removed})


# -- contract of the result ---------------------------------------------------------


def test_removed_edges_concatenates_trace(card1, cascade, sig_min):
    for maid in (card1, cascade, sig_min):
        result = simplify(maid)
        replay = []
        for rec in result.trace:
            replay.extend(rec.conversion_removed_edges)
            replay.extend(rec.pruned_edges)
        assert tuple(replay) == result.removed_edges


def test_rejects_invalid_input():
    from maidkit import Maid, Node

    looped = Maid.build(
        agents=["x"],
        nodes=[Node.chance("a", domain=("f", "t"), parents=("b",)),
               Node.chance("b", domain=("f", "t"), parents=("a",))])
    with pytest.raises(ValidationError):
        simplify(looped)


def test_seeds_and_rngs_raise_maid_errors(card1):
    # One check serves a seed and an rng; each escaped as a TypeError or an
    # AttributeError.
    calls = [
        (lambda: simplify(card1, order_seed=[1]), "seed must be an int"),
        (lambda: simplify(card1, order_seed="1"), "seed must be an int"),
        (lambda: retract_edges(card1, rng=0), "rng must be a random.Random"),
        (lambda: identification_phase(card1, rng=0), "rng must be a random.Random"),
    ]
    for call, message in calls:
        with pytest.raises(MaidError, match=message):
            call()
    assert simplify(card1, order_seed=True).final == simplify(card1).final


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_result_invariants(seed):
    maid = helpers.random_structure_maid(random.Random(seed))
    result = simplify(maid)
    assert validate(result.final) == []
    assert set(result.final.edge_set) == set(maid.edge_set) - set(result.removed_edges)
    assert set(result.effectiveness) == set(maid.decisions)
    for d in maid.decisions:
        node = result.final.nodes[d]
        if d in result.eliminated:
            assert node.kind is NodeKind.CHANCE
            assert node.parents == ()
            assert result.effectiveness[d] is False
        else:
            assert node.is_decision
            assert result.effectiveness[d] is True
    # Every iteration before the last makes progress; the last confirms the
    # fixed point, and the safety bound never trips.
    *working, idle = result.trace
    for rec in working:
        assert rec.eliminated or rec.pruned_edges
    assert not (idle.eliminated or idle.conversion_removed_edges or idle.pruned_edges)
    assert result.iterations <= len(maid.edges) + 2


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_fixpoint_is_stable(seed):
    maid = helpers.random_structure_maid(random.Random(seed))
    once = simplify(maid)
    again = simplify(once.final)
    assert again.final == once.final
    assert again.eliminated == () and again.removed_edges == ()


@settings(max_examples=20)
@given(seed=st.integers(0, 10_000), order_seed=st.integers(0, 1000))
def test_scan_order_does_not_change_outcome(seed, order_seed):
    maid = helpers.random_structure_maid(random.Random(seed))
    base = simplify(maid)
    shuffled = simplify(maid, order_seed=order_seed)
    assert shuffled.final == base.final
    assert sorted(shuffled.eliminated) == sorted(base.eliminated)
    assert set(shuffled.removed_edges) == set(base.removed_edges)
    assert shuffled.effectiveness == base.effectiveness


def test_scan_order_on_fixtures(card1, pa, cascade, sig_min):
    for maid in (card1, pa, cascade, sig_min):
        base = simplify(maid)
        for s in range(8):
            r = simplify(maid, order_seed=s)
            assert r.final == base.final
            assert sorted(r.eliminated) == sorted(base.eliminated)
            assert set(r.removed_edges) == set(base.removed_edges)
            assert r.effectiveness == base.effectiveness
