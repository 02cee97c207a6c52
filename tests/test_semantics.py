"""Numeric evaluation: rules, expectations, best responses, equilibrium
extension, and tree-size metrics. The card game numbers are derived by hand:
the prize tables pay 10 on a match, the judged quality is uniform over three
values, so an uninformed guesser earns 10/3 and a perfectly informed one
earns 10."""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maidkit import semantics
from maidkit import (
    Maid,
    MaidError,
    Node,
    NotADecisionError,
    ScaleGuardError,
    SimplificationResult,
    UnknownAgentError,
    ValidationError,
    best_response_gap,
    card_game,
    constant_rule,
    convert_decision_to_chance,
    expected_utility,
    find_equilibrium_small,
    is_motivated_bruteforce,
    joint_probability,
    leaf_metric,
    remove_edge,
    rule_from_function,
    rule_from_rows,
    simplify,
    uniform_profile,
    uniform_rule,
    validate,
    verify_simplification,
)
from maidkit.semantics import DecisionRule

import helpers

TOL = 1e-9


def truthful(maid):
    # C repeats the judged quality it observes.
    return rule_from_function(maid, "C", lambda cfg: cfg[0])


def copying(maid):
    # B's parents are (A, C); copy the tip.
    return rule_from_function(maid, "B", lambda cfg: cfg[1])


# -- rules -----------------------------------------------------------------------


def test_rule_constructors(card1):
    uni = uniform_rule(card1, "B")
    assert uni.parents == ("A", "C")
    assert len(uni.rows) == 9
    assert all(row == pytest.approx((1 / 3, 1 / 3, 1 / 3)) for row in uni.rows)
    assert not uni.is_pure

    const = constant_rule(card1, "C", "M")
    assert const.rows == ((0.0, 1.0, 0.0),) * 3
    assert const.is_pure

    copy = copying(card1)
    assert copy.row_for(("H", "L")) == (0.0, 0.0, 1.0)
    assert copy.config_index(("M", "H")) == 3
    assert copy.is_pure


def test_rule_validation(card1):
    with pytest.raises(MaidError, match="rows"):
        rule_from_rows(card1, "C", [(1.0, 0.0, 0.0)])
    with pytest.raises(MaidError, match="entries"):
        rule_from_rows(card1, "C", [(1.0, 0.0)] * 3)
    with pytest.raises(MaidError, match="not a distribution"):
        rule_from_rows(card1, "C", [(0.7, 0.2, 0.2)] * 3)
    with pytest.raises(MaidError, match="domain"):
        constant_rule(card1, "C", "X")
    with pytest.raises(NotADecisionError):
        uniform_rule(card1, "J")


def test_malformed_rules_raise_maid_errors(card1):
    # Both used to escape as a bare ValueError or TypeError.
    uni = uniform_rule(card1, "B")
    with pytest.raises(MaidError, match="B: 'X' is not a value of parent 'C'"):
        uni.row_for(("H", "X"))
    for junk in ("HH", None, 3):  # "HH" was read as ("H", "H")
        with pytest.raises(MaidError, match="B: parent values must be a sequence"):
            uni.row_for(junk)
    with pytest.raises(MaidError, match="B: rule rows must be a sequence"):
        DecisionRule("B", uni.parents, uni.parent_domains, uni.domain, rows=None)
    with pytest.raises(MaidError, match="B: row 0 is a NoneType"):
        DecisionRule("B", uni.parents, uni.parent_domains, uni.domain, rows=(None,) * 9)
    with pytest.raises(MaidError, match="B: row 0 is not a distribution"):
        DecisionRule("B", uni.parents, uni.parent_domains, uni.domain,
                     rows=(("1", "0", "0"),) * 9)
    # rule_from_rows converts entries to floats before the rule checks them.
    with pytest.raises(MaidError, match="C: rule rows must be rows of numbers"):
        rule_from_rows(card1, "C", None)
    with pytest.raises(MaidError, match="C: rule rows must be rows of numbers"):
        rule_from_rows(card1, "C", [("a", "b", "c")] * 3)
    with pytest.raises(MaidError, match="C: rule rows must be rows of numbers"):
        rule_from_rows(card1, "C", [(1.0, 0.0, 0.0), None, (0.0, 0.0, 1.0)])
    # A string iterates as characters, each of which parses as a number.
    with pytest.raises(MaidError, match="C: rule rows must be rows of numbers"):
        rule_from_rows(card1, "C", ["100", "010", "001"])


def test_rule_rejects_nan_rows(card1):
    nan = float("nan")
    with pytest.raises(MaidError, match="not a distribution"):
        rule_from_rows(card1, "C", [(nan, nan, nan)] * 3)
    with pytest.raises(MaidError, match="not a distribution"):
        rule_from_rows(card1, "C", [(1.0, 0.0, 0.0), (nan, 0.5, 0.5), (0.0, 0.0, 1.0)])


def test_profiles_are_structure_bound(card1):
    # A rule snapshots the parent list it was built against; after pruning,
    # the same decision has different parents and the old rule is rejected.
    final = simplify(card1).final
    stale = {"B": uniform_rule(card1, "B"), "C": uniform_rule(card1, "C")}
    with pytest.raises(MaidError, match="different structure"):
        expected_utility(final, stale, "b")
    with pytest.raises(MaidError, match="no rule"):
        expected_utility(card1, {"B": uniform_rule(card1, "B")}, "b")


@pytest.mark.parametrize("junk", [value for _, value in helpers.JUNK],
                         ids=[name for name, _ in helpers.JUNK])
def test_profile_arguments_raise_maid_errors(card1, junk):
    # Each escaped as a bare AttributeError or TypeError: profile.get,
    # rule.rows, set(assignment), d in others, choose(config).
    profile = uniform_profile(card1)
    others = {d: rule for d, rule in profile.items() if d != "B"}
    assignment = {n: card1.nodes[n].domain[0] for n in ("A", "B", "C", "J")}
    calls = [lambda: expected_utility(card1, junk, "a"),
             lambda: expected_utility(card1, {**profile, "B": junk}, "a"),
             lambda: best_response_gap(card1, junk, "a"),
             lambda: best_response_gap(card1, {**profile, "C": junk}, "c"),
             lambda: joint_probability(card1, junk, assignment),
             lambda: joint_probability(card1, profile, junk),
             lambda: is_motivated_bruteforce(card1, "B", junk),
             lambda: is_motivated_bruteforce(card1, "B", {**others, "A": junk}),
             lambda: rule_from_function(card1, "B", junk)]
    if not isinstance(junk, Maid):  # any graph is a final game to search
        calls.append(lambda: verify_simplification(
            card1, dataclasses.replace(simplify(card1), final=junk)))
    for call in calls:
        with pytest.raises(MaidError):
            call()


# -- joint probability and expectation ---------------------------------------------


def test_uniform_joint_probability(card1):
    uni = uniform_profile(card1)
    p = joint_probability(card1, uni, {"J": "H", "A": "H", "B": "H", "C": "H"})
    assert p == pytest.approx(1 / 81)
    total = sum(
        joint_probability(card1, uni, dict(zip(("J", "A", "B", "C"), values)))
        for values in itertools.product("HML", repeat=4))
    assert total == pytest.approx(1.0)


def test_joint_probability_rejects_partial_assignments(card1):
    uni = uniform_profile(card1)
    with pytest.raises(MaidError, match="missing"):
        joint_probability(card1, uni, {"J": "H", "A": "H", "B": "H"})
    with pytest.raises(MaidError, match="unexpected"):
        joint_probability(card1, uni,
                          {"J": "H", "A": "H", "B": "H", "C": "H", "U_A": "H"})
    with pytest.raises(MaidError, match="domain"):
        joint_probability(card1, uni, {"J": "H", "A": "H", "B": "H", "C": "X"})


@given(seed=st.integers(0, 10_000), sparse_chance=st.booleans())
def test_joint_probability_matches_reference(seed, sparse_chance):
    # The reference weighs one state as the joint space once did: chance
    # factors in chance-node order, rule factors in decision order, then
    # the two products multiplied. Signs of zero are compared too.
    rng = random.Random(seed)
    maid = helpers.random_parameterized_maid(rng)
    if sparse_chance:
        maid = helpers.with_sparse_chance(maid, rng)
    space = semantics._JointSpace(maid)
    profile = {d: helpers.random_sparse_rule(maid, d, rng) for d in maid.decisions}
    for _ in range(8):
        state = tuple(rng.randrange(len(dom)) for dom in space.domains)
        assignment = {n: dom[i] for n, dom, i in zip(space.order, space.domains, state)}
        expected = helpers._reference_chance_weight(space, state) * \
            helpers._reference_rule_weight(space, state, profile)
        assert float.hex(joint_probability(maid, profile, assignment)) == float.hex(expected)


def test_expected_utility_uniform(card1):
    uni = uniform_profile(card1)
    # The tipster's prize averages (10 + 5 + 2) / 3; each guesser matches a
    # uniform independent target a third of the time.
    assert expected_utility(card1, uni, "a") == pytest.approx(17 / 3)
    assert expected_utility(card1, uni, "b") == pytest.approx(10 / 3)
    assert expected_utility(card1, uni, "c") == pytest.approx(10 / 3)
    for agent in ("nobody", ["a"]):  # the list escaped as a TypeError
        with pytest.raises(UnknownAgentError, match="unknown agent"):
            expected_utility(card1, uni, agent)


def test_numeric_evaluation_requires_parameters(pa):
    with pytest.raises(MaidError, match="parameterized"):
        expected_utility(pa, uniform_profile(pa), "agent")
    with pytest.raises(MaidError, match="parameterized"):
        find_equilibrium_small(pa)


@pytest.mark.parametrize("payoff", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_payoffs_are_rejected(pennies, payoff):
    # A non-finite payoff would otherwise reach the best-response search.
    broken = pennies.with_node(Node.utility("U_X", owner="x", parents=("X", "Y"),
                                            table=(payoff, 0.0, 0.0, 1.0)))
    uni = uniform_profile(broken)
    with pytest.raises(ValidationError, match="table-finite"):
        find_equilibrium_small(broken)
    with pytest.raises(ValidationError, match="table-finite"):
        best_response_gap(broken, uni, "x")
    with pytest.raises(ValidationError, match="table-finite"):
        expected_utility(broken, uni, "y")


def test_payoffs_whose_sum_overflows_are_rejected():
    # Each payoff is finite, but both at +1.5e308 sum to inf and the
    # expectation over a fair coin came out nan.
    huge = Maid.build(agents=["x"], nodes=[
        Node.chance("coin", domain=("h", "t"), cpt=(0.5, 0.5)),
        Node.decision("X", owner="x", domain=("h", "t")),
        Node.utility("U1", owner="x", parents=("coin",), table=(1.5e308, -1.5e308)),
        Node.utility("U2", owner="x", parents=("coin",), table=(1.5e308, -1.5e308)),
    ])
    uni = uniform_profile(huge)
    with pytest.raises(MaidError, match="agent 'x'"):
        expected_utility(huge, uni, "x")
    with pytest.raises(MaidError, match="agent 'x'"):
        best_response_gap(huge, uni, "x")
    # Each sum is finite here, but the best deviation gains 3e308.
    swing = Maid.build(agents=["x"], nodes=[
        Node.decision("X", owner="x", domain=("t", "f")),
        Node.utility("U", owner="x", parents=("X",), table=(1.5e308, -1.5e308)),
    ])
    with pytest.raises(MaidError, match="agent 'x'"):
        best_response_gap(swing, {"X": constant_rule(swing, "X", "f")}, "x")
    # One such utility alone stays finite.
    single = huge.with_node(Node.utility("U2", owner="x", parents=("coin",),
                                         table=(0.0, 0.0)))
    assert expected_utility(single, uniform_profile(single), "x") == 0.0


def test_verify_validates_each_graph_once(card1, monkeypatch):
    result = simplify(card1)
    seen = []

    def counting_validate(maid):
        seen.append(maid)
        return validate(maid)

    monkeypatch.setattr(semantics, "validate", counting_validate)
    assert verify_simplification(card1, result).passed
    assert [id(m) for m in seen] == [id(card1), id(result.final)]


# -- the enumerated table -----------------------------------------------------------


@given(seed=st.integers(0, 10_000), source=st.sampled_from(["random", "card", "simplified"]),
       sparse_chance=st.booleans())
def test_sweep_matches_reference(seed, source, sparse_chance):
    rng = random.Random(seed)
    if source == "random":
        maid = helpers.random_parameterized_maid(rng)
    else:
        maid = card_game(rng.randint(1, 3))
        if source == "simplified":
            maid = simplify(maid).final
    if sparse_chance:
        maid = helpers.with_sparse_chance(maid, rng)
    space = semantics._JointSpace(maid)
    # Several sweeps on one space, each with its own profile, deviating set
    # and agent; sparse rows make the weights reach zero.
    for _ in range(4):
        profile = {d: helpers.random_sparse_rule(maid, d, rng) for d in maid.decisions}
        agent = rng.choice(sorted(maid.agents))
        decisions = tuple(rng.sample(maid.decisions, rng.randint(0, len(maid.decisions))))
        cells = semantics._response_cells(space, semantics._check_profile(maid, profile),
                                          decisions, agent)
        # The reference keys cells by (row, action); the table stores the
        # code row * k + action.
        radices = [len(maid.nodes[d].domain) for d in decisions]
        expected = {tuple(row * k + action for (row, action), k in zip(key, radices)): s
                    for key, s in helpers.reference_response_cells(
                        space, profile, decisions, agent).items()}
        assert list(cells.items()) == list(expected.items())
        assert expected_utility(maid, profile, agent) == \
            helpers.reference_expected_utility(space, profile, agent)
        if maid.decisions:
            d = rng.choice(maid.decisions)
            others = {e: rule for e, rule in profile.items() if e != d}
            assert is_motivated_bruteforce(maid, d, others) == \
                helpers.reference_is_motivated(maid, space, d, others)


def _count_weighed_states(monkeypatch) -> list[int]:
    """A one-item list that adds up the states of every joint space whose
    table is built from now on."""
    states = [0]
    enumerate_space = semantics._JointSpace._enumerate

    def counting(self):
        states[0] += self.n_states
        return enumerate_space(self)

    monkeypatch.setattr(semantics._JointSpace, "_enumerate", counting)
    return states


def test_verification_weighs_each_state_once(monkeypatch):
    # The simplified game is searched on the original's space of 3^8
    # states. A space of its own, of as many states, took 2 * 3^8, and
    # every best response used to weigh all of them again.
    game = card_game(5)
    result = simplify(game)
    calls = _count_weighed_states(monkeypatch)
    assert verify_simplification(game, result).passed
    assert calls[0] == 3 ** 8


def test_verification_table_is_compact():
    # Columns of machine numbers; a table with a tuple and a dict per
    # state peaks near 8 MB here.
    game = card_game(5)
    result = simplify(game)
    tracemalloc.start()
    try:
        assert verify_simplification(game, result).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


# -- best response -----------------------------------------------------------------


def test_best_response_gap(card1):
    informed = {"A": uniform_rule(card1, "A"), "C": truthful(card1),
                "B": copying(card1)}
    # Copying a truthful C matches J every time; nothing to gain.
    assert best_response_gap(card1, informed, "b") == pytest.approx(0.0, abs=TOL)
    # B ignores A, so A cannot move its own prize.
    assert best_response_gap(card1, informed, "a") == pytest.approx(0.0, abs=TOL)
    lazy = dict(informed, B=uniform_rule(card1, "B"))
    # A uniform guesser earns 10/3 where the copier would earn 10.
    assert best_response_gap(card1, lazy, "b") == pytest.approx(20 / 3)
    for agent in ("nobody", ["b"]):  # the list escaped as a TypeError
        with pytest.raises(UnknownAgentError, match="unknown agent"):
            best_response_gap(card1, lazy, agent)


def test_motivation(card1):
    others = {"A": uniform_rule(card1, "A"), "C": truthful(card1)}
    assert is_motivated_bruteforce(card1, "B", others) is True
    flat = {"B": constant_rule(card1, "B", "H"), "C": constant_rule(card1, "C", "H")}
    # With B pinned, the tip moves nothing the tipster is paid for.
    assert is_motivated_bruteforce(card1, "A", flat) is False


def test_motivation_argument_errors(card1):
    full = uniform_profile(card1)
    with pytest.raises(MaidError, match="must not contain"):
        is_motivated_bruteforce(card1, "B", full)
    with pytest.raises(NotADecisionError):
        is_motivated_bruteforce(card1, "J", {})


# -- equilibrium -------------------------------------------------------------------


def test_equilibrium_of_simplified_card_game(card1):
    final = simplify(card1).final
    eq = find_equilibrium_small(final)
    assert eq is not None and set(eq) == {"B", "C"}
    for agent in ("b", "c"):
        assert best_response_gap(final, eq, agent) <= TOL
    assert all(rule.is_pure for rule in eq.values())
    assert find_equilibrium_small(final) == eq


def test_no_pure_equilibrium_returns_none(pennies):
    assert find_equilibrium_small(pennies) is None


def test_search_stops_at_the_first_repeated_round(monkeypatch):
    # Seed 0 draws (t, t); the rounds start at (t, t), (t, h), (h, t) and
    # then (t, h) again: three rounds of two best responses. The fallback
    # then checks (h, h) and (t, t) for both agents and (h, t) and (t, h)
    # for x only. Running all MAX_ROUNDS rounds made 2 * 50 + 6 calls.
    calls = []
    respond = semantics._best_pure_response

    def counting(maid, space, tables, agent, *lifting):
        calls.append(agent)
        return respond(maid, space, tables, agent, *lifting)

    monkeypatch.setattr(semantics, "_best_pure_response", counting)
    assert find_equilibrium_small(helpers.matching_pennies()) is None
    assert len(calls) == 12


@settings(max_examples=100)
@given(seed=st.integers(0, 10_000), family=st.sampled_from(["random", "pair", "pennies"]),
       tol=st.sampled_from([0.0, 1e-9, 0.5]))
def test_equilibrium_search_matches_reference(seed, family, tol):
    # The reference runs every round and builds every best response's
    # tables; the search must return the same tables, or None, from every
    # start. The families cover one decision per agent, an agent owning two
    # decisions, and cycling best responses with a chance parent.
    make = {"random": helpers.random_parameterized_maid,
            "pair": helpers.two_decision_game,
            "pennies": helpers.pennies_with_chance}[family]
    rng = random.Random(seed)
    maid = make(rng)
    for game in (maid, simplify(maid).final):
        for start in rng.sample(range(1000), 4):
            expected = helpers.reference_find_equilibrium(game, seed=start, tol=tol)
            assert find_equilibrium_small(game, seed=start, tol=tol) == expected


def test_search_builds_rules_only_for_what_it_returns(monkeypatch):
    # The search works on flat tables; a DecisionRule is built, and
    # checked, once per decision of a returned profile.
    built = []
    check = DecisionRule.__post_init__

    def counting(rule):
        built.append(rule.decision)
        check(rule)

    monkeypatch.setattr(DecisionRule, "__post_init__", counting)
    game = card_game(2)
    result = simplify(game)
    assert len(find_equilibrium_small(result.final)) == 3
    assert len(built) == 3
    built.clear()
    # One rule per decision of the original, built from the lifted tables
    # the search returns: three survivors and the eliminated decision's
    # uniform rule. Building the simplified game's rules first and lifting
    # three of them took 7.
    assert verify_simplification(game, result).passed
    assert len(built) == 4
    built.clear()
    # A game simplify leaves as it is reports the rules its search found,
    # with none rebuilt for the original.
    unchanged = helpers.pennies_with_chance(random.Random(1))
    assert verify_simplification(unchanged, simplify(unchanged)).passed
    assert len(built) == 2
    built.clear()
    assert find_equilibrium_small(helpers.matching_pennies()) is None
    assert built == []


def test_equilibrium_of_decision_free_game():
    flip = Maid.build(
        agents=["z"],
        nodes=[Node.chance("x", domain=("f", "t"), cpt=(0.5, 0.5)),
               Node.utility("u", owner="z", parents=("x",), table=(0.0, 1.0))])
    assert find_equilibrium_small(flip) == {}
    assert expected_utility(flip, {}, "z") == pytest.approx(0.5)


# -- verification ------------------------------------------------------------------


def test_card_game_simplification_verifies(card1):
    report = verify_simplification(card1, simplify(card1))
    assert report.status == "pass" and report.passed
    assert set(report.gaps) == {"a", "b", "c"}
    assert all(abs(g) <= TOL for g in report.gaps.values())
    assert set(report.equilibrium) == {"A", "B", "C"}
    # A was eliminated: it plays uniformly. B survived with its parents
    # pruned away: its lifted rule repeats one row across all nine of the
    # original observation configurations.
    assert report.equilibrium["A"].rows == ((1 / 3, 1 / 3, 1 / 3),) * 3
    lifted = report.equilibrium["B"]
    assert lifted.parents == ("A", "C")
    assert len(set(lifted.rows)) == 1


def test_unsound_reduction_is_caught(card1):
    # Demote the tipster and the first guesser but keep the judged card
    # wired into C. The surviving decision can then leak the card to B in
    # the original game, where B is supposed to stay uniform.
    tampered = convert_decision_to_chance(
        convert_decision_to_chance(card1, "A"), "B")
    claim = SimplificationResult(
        original=card1, final=tampered, eliminated=("A", "B"),
        removed_edges=(("J", "A"), ("A", "B"), ("C", "B")), iterations=1)
    report = verify_simplification(card1, claim, seed=0)
    assert report.status == "fail" and not report.passed
    assert report.gaps["b"] == pytest.approx(10 / 3)
    assert "b" in report.detail
    # The leak needs a non-constant rule for C. Every rule of the demoted
    # game ties, so the equilibrium search keeps its random starting point,
    # and some seeds happen to draw a constant one: the flaw is real but
    # this replay cannot see it.
    assert find_equilibrium_small(tampered, seed=0)["C"].rows == \
        ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
    assert verify_simplification(card1, claim, seed=2).status == "pass"


def _hand_reduction(maid: Maid, rng: random.Random) -> SimplificationResult:
    """A result whose final demotes random decisions of ``maid`` and removes
    random information edges of the others, whatever simplify would do."""
    eliminated = tuple(d for d in maid.decisions if rng.random() < 0.3)
    removed = [(p, d) for d in eliminated for p in maid.nodes[d].parents]
    final = maid
    for d in eliminated:
        final = convert_decision_to_chance(final, d)
    for d in final.decisions:
        for p in maid.nodes[d].parents:
            if rng.random() < 0.5:
                final = remove_edge(final, p, d)
                removed.append((p, d))
    return SimplificationResult(original=maid, final=final, eliminated=eliminated,
                                removed_edges=tuple(removed), iterations=1)


@settings(max_examples=75)
@given(seed=st.integers(0, 10_000),
       family=st.sampled_from(["random", "pair", "pennies", "card", "hand"]),
       tol=st.sampled_from([0.0, 1e-9, 0.5]))
def test_verification_matches_reference(seed, family, tol):
    # The reference sweeps the space again for every best response and
    # searches the simplified game on a space of its own. Statuses, gaps to
    # the last bit and equilibria must be the same, on games simplify
    # changes, on games it leaves as they are, and ("hand") on finals with
    # demotions and removed information edges drawn at random. A hand final
    # can keep too many parents to search; then both must refuse it. 75
    # examples give each of the five families about 15.
    if family == "hand":
        # A hand final often keeps a decision whose actions tie exactly, one
        # that reaches no payoff of its owner or observes nothing its owner
        # is paid for. The search sums its cells on the original's space in
        # another order than the reference does on the final's, so the two
        # round such ties differently, and at tol 0 the rounding picks the
        # equilibrium. From tol 1e-9 up, both absorb it.
        tol = tol or 1e-9
    rng = random.Random(seed)
    kind = rng.choice(["random", "pair", "pennies", "card"]) if family == "hand" else family
    if kind == "card":
        maid = card_game(rng.randint(1, 3))
    else:
        maid = {"random": helpers.random_parameterized_maid,
                "pair": helpers.two_decision_game,
                "pennies": helpers.pennies_with_chance}[kind](rng)
    result = _hand_reduction(maid, rng) if family == "hand" else simplify(maid)
    for start in rng.sample(range(1000), 2):
        try:
            expected = helpers.reference_verify_simplification(maid, result, seed=start, tol=tol)
        except ScaleGuardError:
            with pytest.raises(ScaleGuardError):
                verify_simplification(maid, result, seed=start, tol=tol)
            continue
        report = verify_simplification(maid, result, seed=start, tol=tol)
        assert report.status == expected.status
        assert {a: g.hex() for a, g in report.gaps.items()} == \
            {a: g.hex() for a, g in expected.gaps.items()}
        assert report.equilibrium == expected.equilibrium


@pytest.mark.parametrize("seed, status, sweeps", [(0, "inconclusive", 16), (1, "pass", 2)])
def test_an_unchanged_game_is_verified_on_one_space(monkeypatch, seed, status, sweeps):
    # simplify leaves these pennies games as they are, so the search runs on
    # the original's space. Seed 0 has three chance values and no pure
    # equilibrium: after its rounds, the 64 pure profiles are checked, and
    # each agent faces only the 8 tables of the other. Seed 1's replay reads
    # the cells of the search's last round. Building a second space and
    # sweeping for every best response took 2 spaces and 78 and 6 sweeps.
    game = helpers.pennies_with_chance(random.Random(seed))
    result = simplify(game)
    assert result.final == game
    counts = _count_spaces_and_sweeps(monkeypatch)
    assert verify_simplification(game, result).status == status
    assert counts == {"spaces": 1, "sweeps": sweeps}


def test_a_changed_game_is_verified_on_one_space(monkeypatch):
    # simplify eliminates A and prunes every parent of B, C_1 and C_2. The
    # search plays the simplified game on the original's space: two rounds
    # of three best responses, five of them swept (c_2 faces the same
    # tables in both). The replay reads the last round's cells for b, c_1
    # and c_2 and sweeps once more for a, whose decision was eliminated. A
    # space of the simplified game's own took 2 spaces and 9 sweeps.
    game = card_game(2)
    result = simplify(game)
    assert result.eliminated == ("A",)
    assert all(result.final.nodes[d].parents == () for d in ("B", "C_1", "C_2"))
    counts = _count_spaces_and_sweeps(monkeypatch)
    assert verify_simplification(game, result).passed
    assert counts == {"spaces": 1, "sweeps": 6}


def _count_spaces_and_sweeps(monkeypatch) -> dict[str, int]:
    """Counts of the joint spaces built and the sweeps made from now on."""
    counts = {"spaces": 0, "sweeps": 0}
    build, sweep = semantics._JointSpace.__init__, semantics._JointSpace.sweep

    def counting_build(self, maid):
        counts["spaces"] += 1
        build(self, maid)

    def counting_sweep(self, *args):
        counts["sweeps"] += 1
        return sweep(self, *args)

    monkeypatch.setattr(semantics._JointSpace, "__init__", counting_build)
    monkeypatch.setattr(semantics._JointSpace, "sweep", counting_sweep)
    return counts


def test_verification_refuses_a_result_of_another_game(card1):
    # Replaying card_game(2)'s equilibrium in card_game(1) reported "fail".
    with pytest.raises(MaidError, match="simplification of another game"):
        verify_simplification(card1, simplify(card_game(2)))
    with pytest.raises(MaidError, match="must have original and final graphs"):
        verify_simplification(card1, None)
    # An equal graph built apart is the same game.
    assert verify_simplification(card1, simplify(card_game(1))).passed


def _tampered_finals(card1):
    """Finals of card1 that simplify cannot produce, each with the node
    (or agent set) a refusal must name."""
    final = simplify(card1).final
    nodes = final.nodes

    def edited(*changed, drop=(), agents=card1.agents):
        table = {n: node for n, node in nodes.items() if n not in drop}
        table.update((node.id, node) for node in changed)
        return Maid(agents=frozenset(agents), nodes=table)

    return {
        "cpt": ("'J'", edited(dataclasses.replace(nodes["J"], cpt=(0.5, 0.25, 0.25)))),
        # The same payoffs, read through an edge the original lacks.
        "utility edge": ("'U_C'", edited(dataclasses.replace(
            nodes["U_C"], parents=("C", "B", "J"),
            table=tuple(v for v in nodes["U_C"].table for _ in range(3))))),
        "decision edge": ("'C'", edited(dataclasses.replace(nodes["C"], parents=("A", "J")))),
        "demotion": ("'A'", edited(dataclasses.replace(nodes["A"], cpt=(1.0, 0.0, 0.0)))),
        "owner": ("'C'", edited(dataclasses.replace(nodes["C"], owner="b"))),
        "missing": ("'U_A' is missing", edited(drop=("U_A",))),
        "extra": ("'X' is not in the game",
                  edited(Node.chance("X", ("f", "t"), cpt=(0.5, 0.5)))),
        "agents": ("agents differ", edited(agents={"a", "b", "c", "z"})),
    }


@pytest.mark.parametrize("case", ["cpt", "utility edge", "decision edge", "demotion",
                                  "owner", "missing", "extra", "agents"])
def test_verification_refuses_a_final_that_is_no_simplification(card1, case):
    # Each of these finals was searched as the game it is and its
    # equilibrium replayed in card1, which reported "pass" (a decision
    # observing a new parent raised a MaidError when its rule was lifted).
    named, final = _tampered_finals(card1)[case]
    assert not validate(final)
    claim = SimplificationResult(original=card1, final=final, eliminated=("A",),
                                 removed_edges=(), iterations=1)
    with pytest.raises(MaidError, match=f"result.final is not a simplification "
                                        f"of the game: .*{re.escape(named)}"):
        verify_simplification(card1, claim)


def test_verification_without_pure_equilibrium_is_inconclusive(pennies):
    report = verify_simplification(pennies, simplify(pennies))
    assert report.status == "inconclusive"
    assert not report.passed
    assert report.equilibrium is None and report.gaps == {}


@pytest.mark.parametrize("tol", (math.nan, math.inf, -math.inf, -1.0,
                                 pytest.param(10 ** 400, id="10**400")))
def test_tolerance_must_be_finite_and_non_negative(card1, tol):
    # Under NaN or infinity every gap passes, under a negative tolerance
    # even an exact equilibrium fails, and an int beyond the float range
    # overflows in the first comparison; each is refused before any search.
    others = {"A": uniform_rule(card1, "A"), "C": truthful(card1)}
    calls = (lambda: verify_simplification(card1, simplify(card1), tol=tol),
             lambda: find_equilibrium_small(card1, tol=tol),
             lambda: is_motivated_bruteforce(card1, "B", others, tol=tol))
    for call in calls:
        with pytest.raises(MaidError, match=f"tol must be a finite number >= 0, got {tol!r}"):
            call()


@pytest.mark.parametrize("seed", (None, [1], 1.5, "0"))
def test_seed_must_be_an_int(card1, seed):
    # None seeds from the operating system, so the run could not be
    # repeated; a list raised a TypeError.
    calls = (lambda: find_equilibrium_small(card1, seed=seed),
             lambda: verify_simplification(card1, simplify(card1), seed=seed))
    for call in calls:
        with pytest.raises(MaidError, match=re.escape(f"seed must be an int, got {seed!r}")):
            call()


# -- scale guards ------------------------------------------------------------------


def test_joint_state_guard(monkeypatch):
    nodes = [Node.chance(f"x{i:02d}", domain=("f", "t"), cpt=(0.5, 0.5))
             for i in range(21)]
    nodes.append(Node.utility("u", owner="z", parents=("x00",), table=(0.0, 1.0)))
    big = Maid.build(agents=["z"], nodes=nodes)
    # 3^15 joint states in the card game with twelve side players.
    game = card_game(12)
    result = simplify(game)
    calls = _count_weighed_states(monkeypatch)
    with pytest.raises(ScaleGuardError, match="joint state"):
        expected_utility(big, {}, "z")
    with pytest.raises(ScaleGuardError, match="joint state space has 14348907 states"):
        expected_utility(game, uniform_profile(game), "a")
    with pytest.raises(ScaleGuardError, match="joint state space has 14348907 states"):
        verify_simplification(game, result)
    # Refused before any state is weighed.
    assert calls[0] == 0


def test_pure_profile_guard():
    roots = [Node.chance(f"x{i:02d}", domain=("f", "t"), cpt=(0.5, 0.5))
             for i in range(12)]
    d = Node.decision("d", owner="z", domain=("f", "t"),
                      parents=tuple(f"x{i:02d}" for i in range(12)))
    u = Node.utility("u", owner="z", parents=("d",), table=(0.0, 1.0))
    wide = Maid.build(agents=["z"], nodes=roots + [d, u])
    with pytest.raises(ScaleGuardError, match="profile space"):
        find_equilibrium_small(wide)
    # Two decisions of one agent that each see four coins: 2^16 pure rules
    # apiece, so their joint deviations outnumber the limit.
    pair = [Node.decision(name, owner="z", domain=("f", "t"),
                          parents=tuple(f"x{i:02d}" for i in range(4)))
            for name in ("d1", "d2")]
    u2 = Node.utility("u", owner="z", parents=("d1", "d2"), table=(0.0, 1.0, 1.0, 0.0))
    twin = Maid.build(agents=["z"], nodes=roots[:4] + pair + [u2])
    with pytest.raises(ScaleGuardError, match="joint pure deviation space for agent 'z'"):
        best_response_gap(twin, uniform_profile(twin), "z")


# -- tree sizes --------------------------------------------------------------------


def test_leaf_metric_card_game(card1):
    before = leaf_metric(card1)
    assert before.monolithic == 27
    assert dict(before.per_decision) == {"A": 9, "B": 9, "C": 9}
    assert before.decoupled_total == 27
    after = leaf_metric(simplify(card1).final)
    assert after.monolithic == 9
    assert dict(after.per_decision) == {"B": 9, "C": 9}
    assert after.decoupled_total == 18


def test_leaf_metric_principal_agent(pa):
    m = leaf_metric(pa)
    assert m.monolithic == 16
    # The scope of a decision spans every variable feeding any payoff of
    # its owner: both contracts for the principal, both efforts plus the
    # type for the worker.
    assert dict(m.per_decision) == {"P1": 16, "P2": 16, "D1": 32, "D2": 32}
    assert m.decoupled_total == 96


def test_leaf_metric_growth():
    from maidkit import card_game

    for n in (1, 2, 3):
        game = card_game(n)
        assert leaf_metric(game).monolithic == 3 ** (2 + n)
        assert leaf_metric(simplify(game).final).decoupled_total == 9 * (n + 1)
