"""Raw ``Node`` fuzzing: every public operation on a graph built from
arbitrary node arguments returns a result or raises ``MaidError``."""
from __future__ import annotations

import dataclasses
import math
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from maidkit import (
    DetectionMode,
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

import helpers

IDS = ("a", "b", "c", "d", "e")
AGENTS = ("p", "q")
DOMAINS = (None, (), ("x",), ("x", "y"), ("x", "x"), ("x", "y", "z"))
VALUES = (0.0, 0.5, 1.0, 2.0, -1.0, math.nan, math.inf)
# Whole graphs, every op included, in well under this many seconds.
TIME_BOUND_S = 10.0


@st.composite
def raw_nodes(draw, node_id):
    """One node from raw arguments: any kind, any owner, any domain, any
    parent list and any table, sized right or not."""
    kind = draw(st.sampled_from(NodeKind))
    owner = draw(st.sampled_from((None, *AGENTS, "ghost")))
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
    yield lambda: identification_phase(maid, flags)
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
        yield lambda d=d: decision_is_effective(maid, d, flags)
        yield lambda d=d: is_motivated_bruteforce(maid, d, {})
        for detector in (direct_effect, manipulation, signaling, reveal_deny):
            yield lambda d=d, detector=detector: detector(
                maid, d, flags, DetectionMode.ALL)
        for kind in PatternKind:
            for u in (*maid.nodes, "ghost"):
                for n in (*maid.nodes, "ghost"):
                    inst = PatternInstance(kind=kind, decision=d, u=u, n=n, u_prime=u)
                    yield lambda inst=inst: check_instance(maid, inst, flags)


@settings(max_examples=300)
@given(maid=raw_maids())
def test_every_op_returns_or_raises_maid_error(maid):
    start = time.perf_counter()
    for op in _ops(maid):
        try:
            op()
        except MaidError:
            pass
    assert time.perf_counter() - start < TIME_BOUND_S


@st.composite
def odd_maids(draw):
    """A raw graph, perhaps with one node re-keyed under another id (the
    empty id included) or given a kind that is not a ``NodeKind``."""
    maid = draw(raw_maids())
    table = dict(maid.nodes)
    node = table.pop(draw(st.sampled_from(sorted(table))))
    if draw(st.booleans()):
        node = dataclasses.replace(node, kind=draw(st.sampled_from(("chance", None, 3))))
    table[draw(st.sampled_from((node.id, "", "f", *IDS)))] = node
    return Maid(agents=maid.agents, nodes=table)


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
