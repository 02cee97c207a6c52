"""Graph model: construction, derived structure, validation, edits."""
import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from maidkit import (
    CyclicGraphError,
    Diagnostic,
    Maid,
    MaidError,
    Node,
    NodeKind,
    NotADecisionError,
    EdgeNotFoundError,
    UnknownAgentError,
    UnknownNodeError,
    ValidationError,
    all_effective,
    ancestors,
    card_game,
    chance_row,
    convert_decision_to_chance,
    descendants,
    is_fully_parameterized,
    parent_configs,
    remove_edge,
    render_maidfile,
    simplify,
    strip_parameters,
    utility_value,
    validate,
)

import helpers


def test_node_constructors_set_kinds():
    c = Node.chance("x", domain=("a", "b"))
    d = Node.decision("y", owner="p", domain=("a", "b"))
    u = Node.utility("z", owner="p", parents=("x",), table=(1.0, 2.0))
    assert c.is_chance and not c.is_decision and not c.is_utility
    assert d.is_decision and d.owner == "p"
    assert u.is_utility and u.table == (1.0, 2.0)
    assert c.kind is NodeKind.CHANCE


@pytest.mark.parametrize("build,message", [
    (lambda: Node.chance("x", domain="ft"), "domain must be a collection of values"),
    (lambda: Node.chance("x", domain=("f", "t"), parents="AB"), "parents must be"),
    (lambda: Node.decision("d", owner="p", domain="ft"), "domain must be"),
    (lambda: Node.decision("d", owner="p", domain=("f", "t"), parents="AB"), "parents must be"),
    (lambda: Node.utility("u", owner="p", parents="AB"), "parents must be"),
    (lambda: Maid.build(agents="ab", nodes=[]), "agents must be a collection of agent names"),
])
def test_constructors_refuse_a_string_as_a_collection(build, message):
    # Iterated, the string would give one name per character.
    with pytest.raises(MaidError, match=message):
        build()


@pytest.mark.parametrize("build", [
    lambda: Node.chance("x", domain=("f", "t"), parents=[["y"]]),
    lambda: Node.decision("d", owner="p", domain=("f", "t"), parents=("x", 5)),
    lambda: Node.utility("u", owner="p", parents=(None,)),
    lambda: Maid.build(agents=[5, "p"], nodes=[]),
    lambda: Maid.build(agents=["p", None], nodes=[]),
], ids=["list-parent", "int-parent", "none-parent", "int-agent", "none-agent"])
def test_constructors_refuse_names_that_are_not_strings(build):
    # Each used to be accepted and then escape as a TypeError: an
    # unhashable parent from validate's set of parents, an agent of another
    # type from repr and render_maidfile, which sort the agents.
    with pytest.raises(MaidError, match="must be strings"):
        build()


def test_build_rejects_duplicate_ids():
    with pytest.raises(MaidError, match="duplicate"):
        Maid.build(agents=["p"], nodes=[
            Node.chance("x", domain=("a", "b")),
            Node.chance("x", domain=("a", "b")),
        ])


def test_structure_queries(card1):
    assert card1.parents("B") == ("A", "C")
    assert card1.children("J") == ("A", "C", "U_B")
    assert card1.has_edge("J", "A")
    assert not card1.has_edge("A", "J")
    assert not card1.has_edge(["A"], "B")  # unhashable; escaped as a TypeError
    assert ("C", "U_C") in card1.edge_set
    assert card1.decisions == ("A", "B", "C")
    assert card1.utilities == ("U_A", "U_B", "U_C")
    assert card1.chance_nodes == ("J",)
    assert card1.utilities_of("b") == ("U_B",)
    assert card1.decisions_of("c") == ("C",)
    with pytest.raises(UnknownAgentError):
        card1.utilities_of("nobody")
    for owned in (card1.utilities_of, card1.decisions_of):
        with pytest.raises(UnknownAgentError):
            owned(["a"])  # unhashable; escaped as a TypeError
    with pytest.raises(UnknownNodeError):
        card1.node("missing")
    with pytest.raises(UnknownNodeError):
        card1.node(["B"])  # unhashable; escaped as a TypeError


def test_topological_order_is_deterministic(card1):
    order = card1.topological_order
    assert order.index("J") < order.index("A") < order.index("B")
    assert order == card1.topological_order
    pos = {n: i for i, n in enumerate(order)}
    for p, c in card1.edges:
        assert pos[p] < pos[c]


def test_cycle_detection():
    looped = Maid.build(agents=[], nodes=[
        Node.chance("r", domain=("a", "b")),
        Node.chance("x", domain=("a", "b"), parents=("r", "y")),
        Node.chance("y", domain=("a", "b"), parents=("x",)),
        Node.chance("z", domain=("a", "b"), parents=("x",)),
    ])
    with pytest.raises(CyclicGraphError):
        looped.topological_order
    # The diagnostic names the nodes on or below the cycle.
    assert [str(d) for d in validate(looped)] == [
        "graph contains a directed cycle among {x, y, z} [acyclic]"]


def test_closures_include_the_node_itself(card1):
    assert "A" in descendants(card1, "A")
    assert "A" in ancestors(card1, "A")
    assert descendants(card1, "A") == frozenset({"A", "B", "U_A", "U_B", "U_C"})
    assert ancestors(card1, "B") == frozenset({"A", "B", "C", "J"})


def test_parent_configs_vary_last_parent_fastest(card1):
    configs = list(parent_configs(card1, "U_B"))
    assert configs[:4] == [("H", "H"), ("H", "M"), ("H", "L"), ("M", "H")]
    assert len(configs) == 9


def test_parameter_lookups(card1):
    assert chance_row(card1, "J", ()) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert utility_value(card1, "U_A", ("M",)) == 5.0
    assert utility_value(card1, "U_B", ("H", "H")) == 10.0
    assert utility_value(card1, "U_B", ("H", "L")) == 0.0
    with pytest.raises(MaidError, match="U_B: 'X' is not a value of parent 'J'"):
        utility_value(card1, "U_B", ("H", "X"))
    with pytest.raises(MaidError, match="U_B: expected 2 parent values, got 1"):
        utility_value(card1, "U_B", ("H",))
    # A string was read as its characters, and a non-sequence escaped as a
    # TypeError.
    for junk in ("HH", None, 5, {"B": "H", "J": "H"}, {"H"}):
        with pytest.raises(MaidError, match="U_B: parent values must be a sequence"):
            utility_value(card1, "U_B", junk)
    for junk in ("", None, 0):
        with pytest.raises(MaidError, match="J: parent values must be a sequence"):
            chance_row(card1, "J", junk)


def test_malformed_tables_raise_maid_errors():
    # These escaped as an IndexError, a truncated row and a TypeError.
    x = Node.chance("x", domain=("f", "t"), cpt=(0.5, 0.5))
    u = Node(id="u", kind=NodeKind.UTILITY, owner="a", parents=("x",), table=(1.0,))
    short = Node(id="c", kind=NodeKind.CHANCE, domain=("f", "t"), cpt=(0.5,))
    bare = Node(id="c", kind=NodeKind.CHANCE, domain=None, cpt=(0.5,))
    maid = Maid.build(["a"], [x, u, short])
    with pytest.raises(MaidError, match="u: payoff table has 1 entries, expected 2"):
        utility_value(maid, "u", ("t",))
    with pytest.raises(MaidError, match="c: probability table has 1 entries, expected 2"):
        chance_row(maid, "c", ())
    with pytest.raises(MaidError, match="c: no domain"):
        chance_row(maid.with_node(bare), "c", ())


def _signed(values):
    return [float.hex(v) for v in values]


@st.composite
def parameterized_heads(draw):
    """A chance or utility head over 1-3 parents of 1-3 values each, with
    a table whose entries include signed zeros, and the table's layout."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    parents = [Node.chance(f"p{i}", domain=[f"v{j}" for j in range(k)])
               for i, k in enumerate(sizes)]
    ids = [p.id for p in parents]
    chance = draw(st.booleans())
    width = draw(st.integers(1, 3)) if chance else 1
    n = math.prod(sizes) * width
    entry = st.one_of(st.sampled_from((0.0, -0.0, 1 / 3)), st.floats(-1e6, 1e6))
    flat = draw(st.lists(entry, min_size=n, max_size=n))
    if chance:
        head = Node.chance("h", domain=[f"w{j}" for j in range(width)], parents=ids, cpt=flat)
    else:
        head = Node.utility("h", owner="a", parents=ids, table=flat)
    return Maid.build(["a"], parents + [head]), sizes, width


@given(case=parameterized_heads())
def test_remove_edge_matches_reference_marginalize(case):
    maid, sizes, width = case
    head = maid.nodes["h"]
    flat = head.cpt if head.is_chance else head.table
    for axis, tail in enumerate(head.parents):
        out = remove_edge(maid, tail, "h").nodes["h"]
        got = out.cpt if head.is_chance else out.table
        assert _signed(got) == _signed(helpers.reference_marginalize(flat, sizes, axis, width))


def test_fixtures_validate_clean(card1, pa, cascade, pennies, sig_min):
    for maid in (card1, pa, cascade, pennies, sig_min):
        assert validate(maid) == []


def test_card_game_rejects_a_side_count_that_is_not_an_int():
    for n in (2.5, "3", None):
        with pytest.raises(MaidError, match="int number of side players"):
            card_game(n)
    with pytest.raises(MaidError, match="at least one side player"):
        card_game(0)


def _single(rule, diagnostics):
    return [d for d in diagnostics if d.rule == rule]


def test_validate_owner_rules():
    maid = Maid.build(agents=["p"], nodes=[
        Node(id="d", kind=NodeKind.DECISION, domain=("a", "b"), parents=()),
        Node(id="c", kind=NodeKind.CHANCE, owner="p", domain=("a", "b"), parents=()),
        Node.utility("u", owner="ghost"),
    ])
    diags = validate(maid)
    assert _single("owner-required", diags)[0].node == "d"
    assert _single("owner-forbidden", diags)[0].node == "c"
    assert _single("owner-declared", diags)[0].node == "u"


def test_validate_domain_rules():
    maid = Maid.build(agents=["p"], nodes=[
        Node(id="c", kind=NodeKind.CHANCE, domain=("only",), parents=()),
        Node(id="c2", kind=NodeKind.CHANCE, domain=("a", "a"), parents=()),
        Node(id="u", kind=NodeKind.UTILITY, owner="p", domain=("a", "b"), parents=()),
    ])
    diags = validate(maid)
    assert _single("domain-size", diags)[0].node == "c"
    assert _single("domain-distinct", diags)[0].node == "c2"
    assert _single("domain-forbidden", diags)[0].node == "u"


def test_validate_node_kind_rule():
    # A kind that is not a NodeKind, compared by identity so that an
    # unhashable one is handled too, gets one node-kind finding and no
    # finding of the rules that depend on the kind. Without a domain such
    # a node passed unflagged and simplify ran on the graph; with one it
    # was reported as a utility node declaring a domain.
    x_kinds = ("chance", None, 3, ["chance"])
    bare = strip_parameters(card_game(1))
    for kind in x_kinds:
        maid = Maid(agents=bare.agents, nodes={**bare.nodes, "x": Node(id="x", kind=kind)})
        assert validate(maid) == [Diagnostic("x", "node-kind", f"kind {kind!r} is not a NodeKind")]
        with pytest.raises(ValidationError, match="node-kind"):
            simplify(maid)
    card1 = card_game(1)
    for kind in x_kinds:
        j = dataclasses.replace(card1.nodes["J"], kind=kind, owner="a")
        maid = Maid(agents=card1.agents, nodes={**card1.nodes, "J": j})
        assert validate(maid) == [Diagnostic("J", "node-kind", f"kind {kind!r} is not a NodeKind")]
    ghost = Maid(agents=frozenset({"p"}), nodes={"y": Node(id="y", kind="decision", owner="q")})
    assert [d.rule for d in validate(ghost)] == ["node-kind", "owner-declared"]


def test_raw_node_data_gives_findings_or_maid_errors():
    # Each escaped as a TypeError: an unhashable owner or domain value from
    # validate, a node id that is not a string from validate's sort or
    # Maid.build, a name that is not a string from render_maidfile.
    b = ("f", "t")
    maid = Maid.build(["p"], [Node.decision("d", ["p"], b),
                              Node.chance("x", (["a"], "b"))])
    assert validate(maid) == [
        Diagnostic("d", "owner-declared", "owner ['p'] is not a declared agent"),
        Diagnostic("x", "domain-hashable", "domain values must be hashable")]
    with pytest.raises(ValidationError):
        simplify(maid)
    for make in (lambda: Node.chance(5, b), lambda: Node.decision(["d"], "p", b),
                 lambda: Node.utility(None, "p"),
                 lambda: Maid.build(["p"], [Node(id=["x"], kind=NodeKind.CHANCE, domain=b)]),
                 lambda: render_maidfile(Maid.build(["p"], [Node.decision("d", 5, b)]))):
        with pytest.raises(MaidError):
            make()


def test_validate_parent_rules():
    maid = Maid.build(agents=["p"], nodes=[
        Node.chance("c", domain=("a", "b")),
        Node.utility("u", owner="p", parents=("c",)),
        Node.chance("bad", domain=("a", "b"), parents=("c", "c")),
        Node.chance("dangling", domain=("a", "b"), parents=("nowhere",)),
        Node.chance("onu", domain=("a", "b"), parents=("u",)),
    ])
    diags = validate(maid)
    assert _single("parents-distinct", diags)[0].node == "bad"
    assert _single("parent-resolves", diags)[0].node == "dangling"
    assert _single("utility-sink", diags)[0].node == "onu"


def test_validate_parameter_rules():
    maid = Maid.build(agents=["p"], nodes=[
        Node(id="d", kind=NodeKind.DECISION, owner="p", domain=("a", "b"),
             parents=(), cpt=(0.5, 0.5)),
        Node(id="c", kind=NodeKind.CHANCE, domain=("a", "b"), parents=(),
             cpt=(0.9, 0.2)),
        Node(id="c2", kind=NodeKind.CHANCE, domain=("a", "b"), parents=(),
             cpt=(0.5, 0.5, 0.5)),
        Node(id="c3", kind=NodeKind.CHANCE, domain=("a", "b"), parents=(),
             cpt=(-0.5, 1.5)),
        Node(id="u", kind=NodeKind.UTILITY, owner="p", parents=("c",),
             table=(1.0,)),
        Node(id="u2", kind=NodeKind.UTILITY, owner="p", parents=(),
             table=(float("nan"),)),
    ])
    diags = validate(maid)
    assert _single("params-kind", diags)[0].node == "d"
    assert _single("cpt-normalized", diags)[0].node == "c"
    assert _single("cpt-arity", diags)[0].node == "c2"
    assert _single("cpt-nonnegative", diags)[0].node == "c3"
    assert _single("table-arity", diags)[0].node == "u"
    assert _single("table-finite", diags)[0].node == "u2"


def test_validate_diagnostic_order():
    # Within a node, diagnostics follow the order the rules are checked in,
    # not the rule names; the cycle diagnostic comes after every node's.
    lone = Maid.build(agents=["p"], nodes=[
        Node(id="c", kind=NodeKind.CHANCE, owner="p", domain=("only",), parents=()),
    ])
    assert [d.rule for d in validate(lone)] == ["owner-forbidden", "domain-size"]
    loop = Maid.build(agents=["p"], nodes=[
        Node.chance("a", domain=("x",), parents=("b",)),
        Node.chance("b", domain=("x", "y"), parents=("a",)),
    ])
    assert [(d.node, d.rule) for d in validate(loop)] == [("a", "domain-size"),
                                                          (None, "acyclic")]


def test_validate_rejects_nan_probabilities():
    # NaN compares False both ways, so it slips past the sign and sum checks.
    nan = float("nan")
    maid = Maid.build(agents=["p"], nodes=[
        Node.chance("c", domain=("a", "b"), cpt=(nan, nan)),
        Node.decision("d", owner="p", domain=("a", "b"), parents=("c",)),
        Node.utility("u", owner="p", parents=("d",), table=(1.0, 0.0)),
    ])
    diags = validate(maid)
    assert [(d.node, d.rule) for d in diags] == [("c", "cpt-finite")]
    with pytest.raises(ValidationError):
        simplify(maid)


def test_validate_returns_a_fresh_list():
    # The findings are kept on the graph; what a caller does to the list it
    # got back must not reach the next caller.
    loop = Maid.build(agents=["p"], nodes=[
        Node.chance("a", domain=("x",), parents=("b",)),
        Node.chance("b", domain=("x", "y"), parents=("a",)),
    ])
    first = validate(loop)
    expected = list(first)
    first.clear()
    assert validate(loop) == expected
    clean = helpers.cascade_maid()
    validate(clean).append(expected[0])
    assert validate(clean) == []


def test_convert_decision_to_chance(card1):
    out = convert_decision_to_chance(card1, "A")
    node = out.node("A")
    assert node.is_chance
    assert node.parents == ()
    assert node.cpt == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert out.decisions == ("B", "C")
    assert not out.has_edge("J", "A")
    assert out.has_edge("A", "B")
    with pytest.raises(NotADecisionError):
        convert_decision_to_chance(card1, "J")


def test_remove_edge_structure(card1):
    out = remove_edge(card1, "A", "B")
    assert out.parents("B") == ("C",)
    assert out.has_edge("C", "B")
    with pytest.raises(EdgeNotFoundError):
        remove_edge(card1, "B", "A")
    with pytest.raises(UnknownNodeError):
        remove_edge(card1, "ghost", "B")


def test_remove_edge_marginalizes_tables(card1):
    out = remove_edge(card1, "J", "U_B")
    node = out.node("U_B")
    assert node.parents == ("B",)
    assert node.table == pytest.approx((10 / 3, 10 / 3, 10 / 3))
    # dropping B instead averages across the diagonal's other axis
    out2 = remove_edge(card1, "B", "U_B")
    assert out2.node("U_B").table == pytest.approx((10 / 3, 10 / 3, 10 / 3))


def test_remove_edge_averages_each_table_on_its_own():
    # A chance node carrying a payoff table too (validate flags it): both
    # tables lose the removed parent's axis. The payoff table was kept with
    # two entries, stale against the one parent configuration left.
    b = ("f", "t")
    maid = Maid.build(["p"], [
        Node.chance("x", b),
        Node(id="c", kind=NodeKind.CHANCE, domain=b, parents=("x",),
             cpt=(0.5, 0.5, 0.5, 0.5), table=(1.0, 2.0))])
    node = remove_edge(maid, "x", "c").nodes["c"]
    assert (node.parents, node.cpt, node.table) == ((), (0.5, 0.5), (1.5,))
    # A table that cannot be averaged is dropped without the other.
    bad = dataclasses.replace(maid.nodes["c"], cpt=(0.5, 0.5, 0.5))
    node = remove_edge(maid.with_node(bad), "x", "c").nodes["c"]
    assert (node.cpt, node.table) == (None, (1.5,))


def test_strip_parameters(card1):
    bare = strip_parameters(card1)
    assert not is_fully_parameterized(bare)
    assert is_fully_parameterized(card1)
    assert bare.node("J").cpt is None
    assert bare.node("U_A").table is None
    assert bare.edges == card1.edges
    assert validate(bare) == []


def test_all_effective(card1):
    flags = all_effective(card1)
    assert flags == {"A": True, "B": True, "C": True}


@given(seed=st.integers(0, 10_000))
def test_generated_structures_are_valid(seed):
    maid = helpers.random_structure_maid(random.Random(seed))
    assert validate(maid) == []
    order = maid.topological_order
    pos = {n: i for i, n in enumerate(order)}
    for p, c in maid.edges:
        assert pos[p] < pos[c]


@given(seed=st.integers(0, 10_000))
def test_generated_parameterized_games_are_valid(seed):
    maid = helpers.random_parameterized_maid(random.Random(seed))
    assert validate(maid) == []
    assert is_fully_parameterized(maid)


@given(seed=st.integers(0, 10_000))
def test_closures_are_reflexive_and_consistent(seed):
    maid = helpers.random_dag_maid(random.Random(seed))
    for n in maid.nodes:
        assert n in descendants(maid, n)
        assert n in ancestors(maid, n)
    for p, c in maid.edges:
        assert c in descendants(maid, p)
        assert p in ancestors(maid, c)
