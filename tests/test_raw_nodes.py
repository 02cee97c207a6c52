"""Raw ``Node`` fuzzing: every public operation on a graph built from
arbitrary node arguments returns a result or raises ``MaidError``, and the
shortcuts that identification and the structural edits take agree with
the work they skip, on raw graphs as on valid ones."""
from __future__ import annotations

import dataclasses
import math
import random
import time

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from maidkit import (
    CyclicGraphError,
    Maid,
    MaidError,
    Node,
    NodeKind,
    PatternInstance,
    PatternKind,
    all_effective,
    ancestors,
    chance_row,
    check_instance,
    constant_rule,
    convert_decision_to_chance,
    d_separated,
    decision_is_effective,
    descendants,
    direct_effect,
    enumerate_patterns,
    expected_utility,
    find_equilibrium_small,
    identification_phase,
    is_fully_parameterized,
    is_motivated_bruteforce,
    joint_probability,
    leaf_metric,
    manipulation,
    parent_configs,
    remove_edge,
    render_maidfile,
    retract_edges,
    reveal_deny,
    signaling,
    simplify,
    strip_parameters,
    uniform_profile,
    uniform_rule,
    utility_value,
    validate,
)
from maidkit.core import _remove_edges
from maidkit.patterns import _ALL_KINDS, _detect, _direct_effects

import helpers

IDS = ("a", "b", "c", "d", "e")
AGENTS = ("p", "q")
DOMAINS = (None, (), ("x",), ("x", "y"), ("x", "x"), ("x", "y", "z"), (["x"], "y"))
VALUES = (0.0, 0.5, 1.0, 2.0, -1.0, math.nan, math.inf)
# Whole graphs, every op included, in well under this many seconds.
TIME_BOUND_S = 10.0


@st.composite
def raw_nodes(draw, node_id):
    """One node from raw arguments: any kind, any owner, any domain, any
    parent list and any table, sized right or not. An owner or a domain
    value may be unhashable."""
    kind = draw(st.sampled_from(NodeKind))
    owner = draw(st.sampled_from((None, *AGENTS, "ghost", ["p"])))
    domain = draw(st.sampled_from(DOMAINS))
    parents = tuple(draw(st.lists(st.sampled_from(IDS + ("ghost",)), max_size=3)))
    rows = draw(st.integers(0, 4))
    width = draw(st.sampled_from((0, 1, len(domain or ()))))
    size = draw(st.sampled_from((0, rows * width, rows * width + 1)))
    flat = tuple(draw(st.lists(st.sampled_from(VALUES), min_size=size, max_size=size)))
    cpt = draw(st.sampled_from((None, flat)))
    table = draw(st.sampled_from((None, flat)))
    return Node(id=node_id, kind=kind, owner=owner, domain=domain,
                parents=parents, cpt=cpt, table=table)


@st.composite
def raw_maids(draw):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True))
    return Maid.build(AGENTS, [draw(raw_nodes(node_id)) for node_id in ids])


def _chance_rows(maid, x):
    """Every row of ``x``'s probability table; each must have one entry per
    value of ``x``."""
    for config in parent_configs(maid, x):
        assert len(chance_row(maid, x, config)) == len(maid.nodes[x].domain)


def _ops(maid):
    """Every public operation on ``maid``, as zero-argument calls."""
    flags = all_effective(maid)
    yield lambda: validate(maid)
    yield lambda: maid.topological_order
    yield lambda: maid.edges
    yield lambda: is_fully_parameterized(maid)
    yield lambda: strip_parameters(maid)
    yield lambda: render_maidfile(maid)
    yield lambda: leaf_metric(maid)
    yield lambda: uniform_profile(maid)
    yield lambda: expected_utility(maid, uniform_profile(maid), AGENTS[0])
    yield lambda: joint_probability(maid, uniform_profile(maid), {
        n: node.domain[0] for n, node in maid.nodes.items()
        if node.domain and not node.is_utility})
    yield lambda: find_equilibrium_small(maid)
    yield lambda: simplify(maid)
    yield lambda: enumerate_patterns(maid)
    yield lambda: enumerate_patterns(maid, original=True)
    yield lambda: identification_phase(maid)
    yield lambda: retract_edges(maid)
    for x in maid.nodes:
        yield lambda x=x: descendants(maid, x)
        yield lambda x=x: ancestors(maid, x)
        yield lambda x=x: list(parent_configs(maid, x))
        yield lambda x=x: _chance_rows(maid, x)
        yield lambda x=x: [utility_value(maid, x, c) for c in parent_configs(maid, x)]
        wrong = ("x",) * (len(maid.nodes[x].parents) + 1)
        yield lambda x=x, wrong=wrong: chance_row(maid, x, wrong)
        yield lambda x=x, wrong=wrong: utility_value(maid, x, wrong)
        for p in maid.nodes[x].parents:
            yield lambda x=x, p=p: remove_edge(maid, p, x)
        for y in maid.nodes:
            if y != x:
                yield lambda x=x, y=y: d_separated(maid, x, y, ())
    for d in maid.nodes:
        yield lambda d=d: convert_decision_to_chance(maid, d)
        yield lambda d=d: uniform_rule(maid, d)
        yield lambda d=d: constant_rule(maid, d, "x")
        yield lambda d=d: decision_is_effective(maid, d)
        yield lambda d=d: is_motivated_bruteforce(maid, d, {})
        for detector in (direct_effect, manipulation, signaling, reveal_deny):
            yield lambda d=d, detector=detector: detector(maid, d)
        for kind in PatternKind:
            for u in (*maid.nodes, "ghost"):
                for n in (*maid.nodes, "ghost"):
                    inst = PatternInstance(kind=kind, decision=d, u=u, n=n, u_prime=u)
                    yield lambda inst=inst: check_instance(maid, inst, flags)


@st.composite
def odd_maids(draw):
    """A raw graph, perhaps with one node re-keyed under another id (the
    empty id included) or given a kind that is not a ``NodeKind``, an
    unhashable one included."""
    maid = draw(raw_maids())
    table = dict(maid.nodes)
    node = table.pop(draw(st.sampled_from(sorted(table))))
    if draw(st.booleans()):
        node = dataclasses.replace(node, kind=draw(st.sampled_from(("chance", None, 3, ["chance"]))))
    table[draw(st.sampled_from((node.id, "", "f", *IDS)))] = node
    return Maid(agents=maid.agents, nodes=table)


@settings(max_examples=300)
@given(maid=raw_maids() | odd_maids())
def test_every_op_returns_or_raises_maid_error(maid):
    start = time.perf_counter()
    for op in _ops(maid):
        try:
            op()
        except MaidError:
            pass
    assert time.perf_counter() - start < TIME_BOUND_S


@settings(max_examples=400)
@given(maid=odd_maids())
def test_validate_matches_reference_on_raw_graphs(maid):
    assert validate(maid) == helpers.reference_validate(maid)


@settings(max_examples=100)
@given(seed=st.integers(0, 10_000), value=st.sampled_from(VALUES))
def test_validate_matches_reference_on_generated_graphs(seed, value):
    # Valid graphs, then the same parameterized graph with one table entry
    # replaced, so the row checks run on tables of many rows.
    rng = random.Random(seed)
    maid = helpers.random_parameterized_maid(rng)
    node = maid.nodes[rng.choice(sorted(maid.nodes))]
    flat = list(node.cpt or node.table or ())
    if flat:
        flat[rng.randrange(len(flat))] = value
        field = "cpt" if node.cpt else "table"
        broken = maid.with_node(dataclasses.replace(node, **{field: tuple(flat)}))
    else:
        broken = maid
    for m in (helpers.random_structure_maid(rng), maid, broken):
        assert validate(m) == helpers.reference_validate(m)


# -- shortcuts against the work they skip -------------------------------------


@st.composite
def any_maids(draw):
    """A raw graph (undeclared owners, utilities with children, unresolved
    and repeated parents, cycles) or a valid random structure graph."""
    if draw(st.booleans()):
        return draw(raw_maids())
    return helpers.random_structure_maid(random.Random(draw(st.integers(0, 10_000))))


def _outcome(call):
    """What ``call()`` returns, or the type and message of its MaidError."""
    try:
        return call()
    except MaidError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(maid=any_maids(), order_seed=st.none() | st.integers(0, 1000))
def test_backward_pass_marks_exactly_the_direct_effects(maid, order_seed):
    # The decisions one backward pass marks are those for which a detection
    # pass finds a direct effect first; on a cyclic graph it marks none, and
    # identification raises or returns what a detection pass per decision
    # gives.
    marked = _direct_effects(maid)
    flags = all_effective(maid)
    if len(maid._kahn_order) == len(maid.nodes):
        found = set()
        for d in maid.decisions:
            first = _outcome(lambda: next(_detect(maid, d, _ALL_KINDS), None))
            if isinstance(first, PatternInstance) and first.kind is PatternKind.DIRECT_EFFECT:
                found.add(d)
        assert marked == found
    else:
        assert marked == set()
    def order():
        return None if order_seed is None else random.Random(order_seed)

    assert _outcome(lambda: identification_phase(maid, order())) == \
        _outcome(lambda: helpers.reference_identification_phase(maid, flags, order()))


def test_identification_on_a_cyclic_graph_raises_as_detection_does():
    # d reaches its utility u only through the cycle a -> b -> a, so the
    # first detection pass raises; the backward pass does not run.
    b = ("f", "t")
    cyclic = Maid.build(["p"], [
        Node.decision("d", owner="p", domain=b),
        Node.chance("a", b, parents=("d", "b")), Node.chance("b", b, parents=("a",)),
        Node.utility("u", owner="p", parents=("d",))])
    assert _direct_effects(cyclic) == set()
    with pytest.raises(CyclicGraphError):
        identification_phase(cyclic)


# Every index a graph derives from its node table.
INDEXES = ("_parents_map", "_children_map", "edges", "edge_set", "_kinds", "decisions",
           "_decision_set", "utilities", "chance_nodes", "_owned_map", "_kahn_order",
           "_diagnostics")


def assert_indexes_as_built_fresh(edited):
    fresh = Maid(agents=edited.agents, nodes=dict(edited.nodes))
    for index in INDEXES:
        assert getattr(edited, index) == getattr(fresh, index), index


@settings(max_examples=300)
@given(maid=any_maids() | odd_maids(), warm=st.booleans(), data=st.data())
def test_edits_keep_only_indexes_they_cannot_change(maid, warm, data):
    # An edit hands the new graph the indexes of its parent that it cannot
    # change; each must equal what a graph built from the same nodes derives,
    # whether the parent had built them (warm) or not, and after a second
    # edit of the edited graph. A node keyed under another id is edited
    # under its key.
    if warm:
        for index in INDEXES:
            getattr(maid, index)
    resolved = [(p, n) for n, node in maid.nodes.items() for p in node.parents
                if p in maid.nodes]  # a repeated parent once per listing
    picked = data.draw(st.lists(st.booleans(), min_size=len(resolved),
                                max_size=len(resolved)))
    edits = [lambda m: _remove_edges(m, [e for e, keep in zip(resolved, picked) if keep])]
    edits += [lambda m, d=d: convert_decision_to_chance(m, d) for d in maid.decisions]
    for first in edits:
        for second in (None, *edits):
            try:
                edited = first(maid)
                if warm:
                    for index in INDEXES:
                        getattr(edited, index)
                if second is not None:
                    edited = second(edited)
            except (MaidError, ValueError):  # an edge or a decision the first edit took
                continue
            assert_indexes_as_built_fresh(edited)


def test_removing_one_of_a_repeated_parent_keeps_the_other():
    # x is listed twice among d's parents: removing (x, d) once leaves one
    # listing, as a graph built from the edited nodes has it.
    b = ("f", "t")
    maid = Maid.build(["p"], [
        Node.chance("x", b), Node.chance("y", b),
        Node(id="d", kind=NodeKind.DECISION, owner="p", domain=b,
             parents=("x", "ghost", "y", "x")),
        Node.utility("u", owner="p", parents=("d",))])
    assert maid._parents_map["d"] == ("x", "x", "y")
    once = remove_edge(maid, "x", "d")
    assert once.nodes["d"].parents == ("ghost", "y", "x")
    assert once._parents_map["d"] == ("x", "y")
    assert once.edges == (("d", "u"), ("x", "d"), ("y", "d"))
    assert_indexes_as_built_fresh(once)
    assert_indexes_as_built_fresh(remove_edge(once, "x", "d"))
    assert_indexes_as_built_fresh(convert_decision_to_chance(once, "d"))
