"""Detector behavior on the fixtures, frozen instance sets, and auditing."""
from __future__ import annotations

import dataclasses
import functools
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maidkit import (
    CyclicGraphError,
    Maid,
    MaidError,
    Node,
    NotADecisionError,
    PatternKind,
    all_effective,
    check_instance,
    check_path,
    convert_decision_to_chance,
    decision_is_effective,
    direct_effect,
    enumerate_patterns,
    find_path,
    identification_phase,
    manipulation,
    reveal_deny,
    signaling,
    simplify,
)
from maidkit.analysis import InteriorDecisions, decision_free_query
from maidkit.patterns import _detect

import helpers


def keys(instances):
    return {i.key() for i in instances}


ALL_DETECTORS = (direct_effect, manipulation, signaling, reveal_deny)


# -- principal-agent: the full frozen report ----------------------------------


PA_EXPECTED = {
    "P1": {
        ("direct_effect", "P1", "U_P1", "", "", ""),
        ("manipulation", "P1", "U_P1", "D1", "U_D1", ""),
        ("manipulation", "P1", "U_P1", "D1", "U_D2", ""),
        ("manipulation", "P1", "U_P2", "D1", "U_D1", ""),
        ("manipulation", "P1", "U_P2", "D1", "U_D2", ""),
        ("manipulation", "P1", "U_P2", "P2", "U_P1", ""),
        ("manipulation", "P1", "U_P2", "P2", "U_P2", ""),
        ("reveal_deny", "P1", "U_P2", "P2", "U_P2", ""),
    },
    "P2": {
        ("direct_effect", "P2", "U_P2", "", "", ""),
        ("manipulation", "P2", "U_P2", "D2", "U_D2", ""),
        ("signaling", "P2", "U_P2", "D2", "U_D1", "D1"),
        ("signaling", "P2", "U_P2", "D2", "U_D1", "r1"),
        ("signaling", "P2", "U_P2", "D2", "U_D2", "D1"),
        ("signaling", "P2", "U_P2", "D2", "U_D2", "P1"),
        ("signaling", "P2", "U_P2", "D2", "U_D2", "r1"),
    },
    "D1": {
        ("direct_effect", "D1", "U_D1", "", "", ""),
        ("manipulation", "D1", "U_D2", "D2", "U_D1", ""),
        ("manipulation", "D1", "U_D2", "D2", "U_D2", ""),
        ("manipulation", "D1", "U_D2", "P2", "U_P1", ""),
        ("manipulation", "D1", "U_D2", "P2", "U_P2", ""),
        ("signaling", "D1", "U_D2", "D2", "U_D2", "P1"),
        ("signaling", "D1", "U_D2", "P2", "U_P2", "P1"),
        ("reveal_deny", "D1", "U_D2", "D2", "U_D1", ""),
    },
    "D2": {
        ("direct_effect", "D2", "U_D2", "", "", ""),
    },
}


def test_principal_agent_full_report(pa):
    report = enumerate_patterns(pa, original=True)
    assert set(report.instances) == {"P1", "P2", "D1", "D2"}
    for d, expected in PA_EXPECTED.items():
        assert keys(report.instances[d]) == expected
    assert report.effectiveness == {"P1": True, "P2": True, "D1": True, "D2": True}


def test_principal_agent_signature_instances(pa):
    # Each decision exhibits its characteristic pattern: both stages have a
    # direct stake, each stage manipulates the next mover, the first worker
    # signals its type, and the first contract opens a channel the second
    # contract would otherwise rely on.
    report = enumerate_patterns(pa, original=True)
    found = keys(report.all_instances())
    assert ("direct_effect", "P1", "U_P1", "", "", "") in found
    assert ("direct_effect", "P2", "U_P2", "", "", "") in found
    assert ("direct_effect", "D1", "U_D1", "", "", "") in found
    assert ("direct_effect", "D2", "U_D2", "", "", "") in found
    assert ("manipulation", "P1", "U_P1", "D1", "U_D1", "") in found
    assert ("manipulation", "P2", "U_P2", "D2", "U_D2", "") in found
    assert ("manipulation", "D1", "U_D2", "P2", "U_P2", "") in found
    assert ("signaling", "D1", "U_D2", "P2", "U_P2", "P1") in found
    assert ("reveal_deny", "P1", "U_P2", "P2", "U_P2", "") in found


def test_principal_agent_reveal_witness(pa):
    # The channel the first contract can open runs through the collider at
    # D1: conditioning on P2's observations leaves it closed until P1 acts.
    report = enumerate_patterns(pa, original=True)
    (inst,) = [i for i in report.instances["P1"]
               if i.kind is PatternKind.REVEAL_DENY]
    witnesses = dict(inst.witness_paths)
    assert str(witnesses["d_to_u_prime_front_door"]) == \
        "P1 -> D1 <- type -> D2 -> U_P2"


def test_principal_agent_no_root_signaling(pa):
    # P1's only ancestor is the root r0; a root has no back-door path, so
    # there is nothing upstream for P1 to pass along.
    assert signaling(pa, "P1") == []


def test_witness_names_by_kind(pa):
    names_by_kind = {
        PatternKind.DIRECT_EFFECT: {"d_to_u"},
        PatternKind.MANIPULATION: {"d_to_n", "n_to_u", "d_to_u_prime"},
        PatternKind.SIGNALING: {"d_to_n", "n_to_u", "a_to_u_prime_back_door",
                                "a_to_u_effective"},
        PatternKind.REVEAL_DENY: {"d_to_n", "n_to_u", "d_to_u_prime_front_door"},
    }
    report = enumerate_patterns(pa, original=True)
    seen = set()
    for inst in report.all_instances():
        assert {name for name, _ in inst.witness_paths} == names_by_kind[inst.kind]
        seen.add(inst.kind)
    assert seen == set(names_by_kind)


def test_bindings_dict(pa):
    report = enumerate_patterns(pa, original=True)
    for inst in report.all_instances():
        b = inst.bindings()
        assert b["u"] == inst.u
        if inst.kind is PatternKind.DIRECT_EFFECT:
            assert set(b) == {"u"}
        elif inst.kind is PatternKind.SIGNALING:
            assert set(b) == {"u", "n", "u_prime", "a"}
        else:
            assert set(b) == {"u", "n", "u_prime"}


# -- card game -----------------------------------------------------------------


def test_card_game_original_patterns(card1):
    report = enumerate_patterns(card1, original=True)
    assert keys(report.instances["A"]) == set()
    assert keys(report.instances["B"]) == {("direct_effect", "B", "U_B", "", "", "")}
    assert keys(report.instances["C"]) == {("direct_effect", "C", "U_C", "", "", "")}


def test_card_game_default_report_reflects_simplification(card1):
    report = enumerate_patterns(card1)
    # Keyed by the decisions of the input graph even though A is gone from
    # the simplified one.
    assert set(report.instances) == {"A", "B", "C"}
    assert report.instances["A"] == ()
    assert report.effectiveness == {"A": False, "B": True, "C": True}
    assert keys(report.instances["B"]) == {("direct_effect", "B", "U_B", "", "", "")}
    assert keys(report.instances["C"]) == {("direct_effect", "C", "U_C", "", "", "")}


# -- small handmade graphs -------------------------------------------------------


def test_minimal_signaling_fires(sig_min):
    report = enumerate_patterns(sig_min, original=True)
    assert keys(report.instances["d_A"]) == {
        ("signaling", "d_A", "u_A", "d_B", "u_B", "t"),
    }
    assert keys(report.instances["d_B"]) == {
        ("direct_effect", "d_B", "u_B", "", "", ""),
    }
    # Signaling is the only thing keeping d_A effective.
    assert direct_effect(sig_min, "d_A") == []
    assert manipulation(sig_min, "d_A") == []
    assert reveal_deny(sig_min, "d_A") == []
    assert decision_is_effective(sig_min, "d_A")


def test_minimal_signaling_collapses_after_pruning(sig_min):
    # Retraction drops both information edges: given the observer's own
    # action neither source says anything more about the observer's payoff.
    # That starves the signaling pattern, so the next pass eliminates d_A.
    result = simplify(sig_min)
    assert result.eliminated == ("d_A",)
    assert result.removed_edges == (("t", "d_A"), ("d_A", "d_B"))
    report = enumerate_patterns(sig_min)
    assert report.instances["d_A"] == ()
    assert report.effectiveness["d_A"] is False


def test_cascade_patterns(cascade):
    report = enumerate_patterns(cascade, original=True)
    assert keys(report.instances["dA"]) == {
        ("manipulation", "dA", "uA", "nB", "uB", ""),
    }
    assert report.instances["dC"] == ()
    assert keys(report.instances["nB"]) == {("direct_effect", "nB", "uB", "", "", "")}


def test_manipulation_needs_lever(cascade):
    # Once dC is a chance node, nB no longer leads anywhere dA cares about.
    collapsed = convert_decision_to_chance(cascade, "dC")
    assert manipulation(collapsed, "dA") == []
    assert decision_is_effective(collapsed, "dA") is False


# -- modes, flags, and errors ----------------------------------------------------


def test_first_witness_is_prefix_of_all(pa):
    # The first instance of a detection pass for one kind is the first the
    # detector reports, and there is one exactly when it reports any.
    for maid in (pa, *_shared_owner_graphs(60)):
        for d in maid.decisions:
            for detector in ALL_DETECTORS:
                full = detector(maid, d)
                first = list(islice(_detect(maid, d, (PatternKind(detector.__name__),), None), 1))
                assert len(first) <= 1
                assert first == full[:len(first)]
                assert bool(first) == bool(full)


def test_detectors_reject_non_decisions(pa):
    for detector in ALL_DETECTORS:
        with pytest.raises(NotADecisionError):
            detector(pa, "r0")
    with pytest.raises(NotADecisionError):
        decision_is_effective(pa, "U_P1")


def cyclic_detection_maid(own_utility):
    """D with a downstream decision N, next to the directed cycle a -> b -> a.
    D's owner x owns U, a child of D, when ``own_utility``; else N's owner does."""
    b = ("f", "t")
    return Maid.build(agents=["x", "y"], nodes=[
        Node.chance("a", b, parents=("b",)), Node.chance("b", b, parents=("a",)),
        Node.decision("D", owner="x", domain=b),
        Node.utility("U", owner="x" if own_utility else "y", parents=("D",)),
        Node.decision("N", owner="y", domain=b, parents=("D",)),
        Node.utility("V", owner="y", parents=("N",)),
    ])


@pytest.mark.parametrize("own_utility", (True, False))
@pytest.mark.parametrize("detect", [
    *(functools.partial(detector, d="D") for detector in ALL_DETECTORS),
    functools.partial(decision_is_effective, d="D"),
    functools.partial(enumerate_patterns, original=True),
], ids=[*(f.__name__ for f in ALL_DETECTORS), "decision_is_effective", "enumerate_patterns"])
def test_detection_on_a_cyclic_graph(detect, own_utility):
    # Witness search expands each node once, which is exact on a DAG only.
    # Without an own utility, D's direct effect searches nothing and the
    # other kinds only sweep for the decisions downstream of D.
    maid = cyclic_detection_maid(own_utility)
    if detect.func is direct_effect and not own_utility:
        assert detect(maid) == []
    else:
        with pytest.raises(CyclicGraphError):
            detect(maid)


def test_effectiveness_flags_mask_interior_decisions(pa):
    # Flags gate decisions appearing in the interior of a witness path, not
    # decisions standing at its endpoints (endpoint removal is conversion's
    # job). With D2 and P2 flagged off, exactly the D1 instances whose
    # witnesses route through one of them disappear.
    flags = all_effective(pa)
    flags["D2"] = False
    flags["P2"] = False
    assert keys(manipulation(pa, "D1", flags)) == {
        ("manipulation", "D1", "U_D2", "D2", "U_D1", ""),
        ("manipulation", "D1", "U_D2", "P2", "U_P1", ""),
    }
    # Both signaling instances needed an a-to-u route through D2 or P2.
    assert signaling(pa, "D1", flags) == []


# -- auditing -------------------------------------------------------------------


def test_check_instance_accepts_reported(pa, card1, cascade, sig_min):
    for maid in (pa, card1, cascade, sig_min):
        report = enumerate_patterns(maid, original=True)
        flags = all_effective(maid)
        for inst in report.all_instances():
            assert check_instance(maid, inst, flags)


def test_check_instance_rejects_tampering(pa):
    report = enumerate_patterns(pa, original=True)
    flags = all_effective(pa)
    (rev,) = [i for i in report.instances["P1"]
              if i.kind is PatternKind.REVEAL_DENY]
    # Foreign utility in the u slot.
    assert not check_instance(pa, dataclasses.replace(rev, u="U_D1"), flags)
    # n must be a decision.
    assert not check_instance(pa, dataclasses.replace(rev, n="r1"), flags)
    # u_prime must belong to n's owner.
    assert not check_instance(pa, dataclasses.replace(rev, u_prime="U_D1"), flags)
    # Witnesses from one kind do not prove another.
    assert not check_instance(
        pa, dataclasses.replace(rev, kind=PatternKind.MANIPULATION), flags)
    # A dropped witness is caught by name, not just by content.
    assert not check_instance(
        pa, dataclasses.replace(rev, witness_paths=rev.witness_paths[:-1]), flags)
    # Revealing-denying binds no information source.
    assert not check_instance(pa, dataclasses.replace(rev, a="r1"), flags)
    # n is another decision, and u and u' are utilities: bindings that make
    # a witness query degenerate are rejected, not a MaidError.
    (man,) = [i for i in report.instances["D1"]
              if i.key()[:5] == ("manipulation", "D1", "U_D2", "D2", "U_D1")]
    assert not check_instance(pa, dataclasses.replace(man, n="D1"), flags)
    assert not check_instance(pa, dataclasses.replace(man, u_prime="D1"), flags)
    # A binding that names no node of the graph is rejected, not a KeyError.
    for kind in PatternKind:
        inst = next(i for i in report.all_instances() if i.kind is kind)
        for slot in inst.bindings():
            assert not check_instance(pa, dataclasses.replace(inst, **{slot: "ghost"}), flags)
    # Direct effect binds only u: an instance that also binds n, u' or a is
    # rejected, even when each binding names a node of the right sort.
    (direct,) = [i for i in report.instances["P1"] if i.kind is PatternKind.DIRECT_EFFECT]
    assert check_instance(pa, direct, flags)
    assert not check_instance(
        pa, dataclasses.replace(direct, n="P2", u_prime="U_P2", a="r0"), flags)
    for slot, value in (("n", "P2"), ("u_prime", "U_P2"), ("a", "r0")):
        assert not check_instance(pa, dataclasses.replace(direct, **{slot: value}), flags)


def test_check_instance_rejects_a_kind_that_is_no_pattern_kind(pa):
    # Any kind other than the three downstream ones used to fall through to
    # the signaling definition, so a signaling instance passed with these.
    report = enumerate_patterns(pa, original=True)
    flags = all_effective(pa)
    for kind in PatternKind:
        inst = next(i for i in report.all_instances() if i.kind is kind)
        assert check_instance(pa, inst, flags)
        for bogus in ("bogus", None, "signaling"):
            assert not check_instance(pa, dataclasses.replace(inst, kind=bogus), flags)


def test_check_instance_rejects_misattributed_decision(pa):
    report = enumerate_patterns(pa, original=True)
    (df,) = report.instances["D2"]
    assert not check_instance(pa, dataclasses.replace(df, decision="P1"), flags := all_effective(pa))
    assert not check_instance(pa, dataclasses.replace(df, decision="type"), flags)


# -- properties over random structures -------------------------------------------


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_effectiveness_matches_detectors(seed):
    maid = helpers.random_structure_maid(random.Random(seed))
    flags = all_effective(maid)
    for d in maid.decisions:
        fired = any(detector(maid, d, flags)
                    for detector in ALL_DETECTORS)
        assert decision_is_effective(maid, d, flags) == fired


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_reported_instances_audit_clean(seed):
    maid = helpers.random_structure_maid(random.Random(seed))
    report = enumerate_patterns(maid, original=True)
    flags = all_effective(maid)
    for inst in report.all_instances():
        assert check_instance(maid, inst, flags)


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_default_report_instances_audit_against_simplified(seed):
    maid = helpers.random_structure_maid(random.Random(seed))
    result = simplify(maid)
    report = enumerate_patterns(maid)
    flags = dict(result.effectiveness)
    for d, insts in report.instances.items():
        if not flags.get(d, False):
            assert insts == ()
        for inst in insts:
            assert check_instance(result.final, inst, flags)


def _shared_owner_graphs(count):
    """Seeded random structures in which some agent owns two or more
    utilities, where the detectors' loops meet the same query again."""
    out = []
    seed = 0
    while len(out) < count:
        maid = helpers.random_structure_maid(random.Random(seed))
        seed += 1
        if any(len(maid.utilities_of(a)) >= 2 for a in maid.agents):
            out.append(maid)
    return out


@pytest.mark.parametrize("detector", (direct_effect, manipulation, signaling, reveal_deny,
                                      enumerate_patterns))
def test_detector_calls_ask_each_query_once(monkeypatch, detector):
    # One detector call searches each distinct query once and runs each
    # directed sweep, one per (source, rule), at most once; sweeps have no
    # avoid set. So does one decision's detection pass over all four kinds,
    # in enumerate_patterns and in decision_is_effective. Direct effects
    # come from the decision-free sweep from the decision, so stopping at
    # the first instance asks a prefix of the full pass.
    import maidkit.patterns as patterns

    asked = []
    search, sweep, detect = patterns._find_path, patterns._directed_paths, patterns._detect

    def recording(maid, query, effectiveness):
        asked.append(("query", query, None if effectiveness is None
                      else tuple(sorted(effectiveness.items()))))
        return search(maid, query, effectiveness)

    def sweeping(maid, build, source, targets, effectiveness):
        asked.append(("sweep", build.__name__, source))
        return sweep(maid, build, source, targets, effectiveness)

    def marking(maid, d, *args):
        # Marks the decision whose pass makes the searches that follow.
        asked.append(("pass", d))
        return detect(maid, d, *args)

    def one_pass(d, searches):
        # Each search at most once, led by the decision-free sweep from d,
        # which gives every decision-free witness: none is searched alone.
        return (len(searches) == len(set(searches))
                and searches[0] == ("sweep", "decision_free_query", d)
                and not any(item[0] == "query" and item[1].interior_decisions
                            is InteriorDecisions.FORBID_ALL for item in searches))

    monkeypatch.setattr(patterns, "_find_path", recording)
    monkeypatch.setattr(patterns, "_directed_paths", sweeping)
    for i, maid in enumerate(_shared_owner_graphs(60)):
        rng = random.Random(i)
        if detector is enumerate_patterns:
            monkeypatch.setattr(patterns, "_detect", marking)
            asked.clear()
            enumerate_patterns(maid, original=True)
            monkeypatch.setattr(patterns, "_detect", detect)
            passes: dict[str, list] = {}
            searches: list = []
            for item in asked:
                if item[0] == "pass":
                    searches = passes.setdefault(item[1], [])
                else:
                    searches.append(item)
            for d in maid.decisions:
                assert one_pass(d, passes[d]), (i, d)
                asked.clear()
                decision_is_effective(maid, d)  # enumerate_patterns passes no flags
                assert asked == passes[d][:len(asked)], (i, d)
            flags = {d: rng.random() < 0.7 for d in maid.decisions}
            for d in maid.decisions:
                asked.clear()
                decision_is_effective(maid, d, flags)
                assert one_pass(d, asked), (i, d)
            continue
        for flags in (all_effective(maid), {d: rng.random() < 0.7 for d in maid.decisions}):
            for d in maid.decisions:
                asked.clear()
                detector(maid, d, flags)
                every = list(asked)
                assert one_pass(d, every), (i, d)
                # Stopping at the first instance asks a prefix of those.
                asked.clear()
                next(_detect(maid, d, (PatternKind(detector.__name__),), flags), None)
                assert asked == every[:len(asked)], (i, d)


def test_identification_stops_each_pass_at_its_first_instance(monkeypatch):
    # The searches identification makes for a decision it checks are those
    # decision_is_effective makes on the same graph and flags, a prefix of
    # the full detection pass, and a proper prefix on some decision. Each
    # pass runs with no flags: a demoted decision is a chance node.
    import importlib

    import maidkit.patterns as patterns
    simplify_module = importlib.import_module("maidkit.simplify")  # maidkit.simplify is the function

    asked = []
    search, sweep, detect = patterns._find_path, patterns._directed_paths, patterns._detect

    def recording(maid, query, effectiveness):
        asked.append(("query", query))
        return search(maid, query, effectiveness)

    def sweeping(maid, build, source, targets, effectiveness):
        asked.append(("sweep", build.__name__, source, targets))
        return sweep(maid, build, source, targets, effectiveness)

    def marking(maid, d, kinds, effectiveness):
        # Marks the pass, with the graph and flags it runs under.
        asked.append(("pass", maid, d, effectiveness))
        return detect(maid, d, kinds, effectiveness)

    monkeypatch.setattr(patterns, "_find_path", recording)
    monkeypatch.setattr(patterns, "_directed_paths", sweeping)
    monkeypatch.setattr(simplify_module, "_detect", marking)
    checked = cut_short = 0
    for i, maid in enumerate(_shared_owner_graphs(60)):
        asked.clear()
        identification_phase(maid)
        passes = []
        for item in asked:
            if item[0] == "pass":
                passes.append((item[1:], []))
            else:
                passes[-1][1].append(item)
        for (graph, d, eff), searches in passes:
            assert eff is None, (i, d)
            asked.clear()
            decision_is_effective(graph, d)
            assert searches == asked, (i, d)
            asked.clear()
            list(detect(graph, d, patterns._ALL_KINDS, None))
            assert searches == asked[:len(searches)], (i, d)
            checked += 1
            cut_short += len(asked) > len(searches)
    assert checked and cut_short


_KIND_SETS = (*((kind,) for kind in PatternKind), tuple(PatternKind))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dense=st.booleans())
def test_detection_matches_reference_detect(seed, dense):
    # The same instances, witnesses included, as the detection pass that
    # searched each direct effect and each n_to_u alone: every kind alone
    # and all four, the whole pass and its first instance, under random
    # effectiveness flags.
    rng = random.Random(seed)
    if dense:
        maid = helpers.with_payoffs(helpers.random_search_maid(
            rng, max_nodes=12, min_nodes=8, density=(0.35, 0.7)), rng)
    else:
        maid = rng.choice(_shared_owner_graphs(60))
    flags = rng.choice((None, {d: rng.random() < 0.7 for d in maid.decisions}))
    for d in maid.decisions:
        for kinds in _KIND_SETS:
            assert list(_detect(maid, d, kinds, flags)) == \
                helpers.reference_detect(maid, d, kinds, flags, first=False), (d, kinds)
            assert list(islice(_detect(maid, d, kinds, flags), 1)) == \
                helpers.reference_detect(maid, d, kinds, flags, first=True), (d, kinds)


def test_effectiveness_must_be_a_mapping(pa):
    # Each escaped as an AttributeError or a TypeError, or went unchecked.
    query = decision_free_query("P1", "U_P1")
    path = find_path(pa, query)
    (inst,) = direct_effect(pa, "P1")
    calls = [
        *(functools.partial(detector, pa, "P1", 0) for detector in ALL_DETECTORS),
        lambda: reveal_deny(pa, "P1", 1.5),
        lambda: decision_is_effective(pa, "P1", 0),
        lambda: find_path(pa, query, 3),
        lambda: check_path(pa, path, query, ["P1"]),
        lambda: check_instance(pa, inst, "P1"),
    ]
    for call in calls:
        with pytest.raises(MaidError, match="effectiveness must be a mapping"):
            call()


def test_check_instance_needs_a_pattern_instance(pa):
    # Each escaped as an AttributeError.
    (inst,) = direct_effect(pa, "P1")
    for junk in (None, "direct_effect", inst.key(), inst.witness_paths):
        with pytest.raises(MaidError, match="needs a PatternInstance"):
            check_instance(pa, junk)
