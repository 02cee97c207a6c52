"""Path queries and conditional independence."""
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from maidkit import (
    CyclicGraphError,
    Maid,
    MaidError,
    Node,
    Path,
    PathQuery,
    UnknownNodeError,
    ancestors,
    card_game,
    check_path,
    collider_blocked,
    convert_decision_to_chance,
    d_separated,
    descendants,
    enumerate_patterns,
    find_path,
    remove_edge,
    simplify,
)
from maidkit import analysis
from maidkit.analysis import (
    EdgeMode,
    FirstEdge,
    InteriorDecisions,
    _reaches_any,
    back_door_query,
    decision_free_paths,
    decision_free_query,
    directed_effective_query,
    effective_query,
    front_door_query,
)

import helpers


# -- Path and PathQuery basics -------------------------------------------------


def test_path_renders_with_directions():
    p = Path(nodes=("A", "B", "C"), step_directions=("->", "<-"))
    assert str(p) == "A -> B <- C"
    assert p.edges() == (("A", "B"), ("C", "B"))


def test_path_rejects_malformed_input():
    with pytest.raises(MaidError):
        Path(nodes=("A",), step_directions=())
    with pytest.raises(MaidError):
        Path(nodes=("A", "B", "A"), step_directions=("->", "<-"))
    with pytest.raises(MaidError):
        Path(nodes=("A", "B"), step_directions=("=>",))
    with pytest.raises(MaidError):
        Path(nodes=("A", "B", "C"), step_directions=("->",))
    with pytest.raises(MaidError):
        Path(nodes=(["A"], "B"), step_directions=("->",))  # escaped as a TypeError
    with pytest.raises(MaidError, match="must be sequences"):
        Path(nodes=None, step_directions=())  # escaped as a TypeError
    with pytest.raises(MaidError, match="must be sequences"):
        Path(nodes=("A", "B"), step_directions=None)


def test_query_rejects_degenerate_endpoints():
    with pytest.raises(MaidError):
        PathQuery(source="A", target="A")
    with pytest.raises(MaidError):
        PathQuery(source="A", target="B", avoid=("A",))
    with pytest.raises(MaidError, match="endpoints must be node ids"):
        PathQuery(["A"], "B")


def test_path_query_is_a_value():
    # Equal fields make equal queries, whatever collection the sets came
    # in; a frozenset is kept as given. A query cannot be changed.
    w = frozenset({"B", "C"})
    query = back_door_query("A", "D", w)
    assert query == back_door_query("A", "D", ["C", "B", "C"]) == PathQuery(
        "A", "D", first_edge=FirstEdge.INTO_SOURCE, blocking_set=("B", "C"))
    assert query.blocking_set is w and query.avoid == frozenset()
    assert query != back_door_query("A", "D", ["B"])
    assert len({query, back_door_query("A", "D", ("C", "B"))}) == 1
    assert {query: 1}[PathQuery("A", "D", EdgeMode.UNDIRECTED, FirstEdge.INTO_SOURCE,
                                blocking_set=w)] == 1
    for field in ("source", "avoid", "blocking_set", "require_collider"):
        with pytest.raises(AttributeError):
            setattr(query, field, None)
    with pytest.raises(AttributeError):
        query.extra = 1  # no attributes beyond the fields
    with pytest.raises(TypeError):
        query[0] = "B"
    # A changed copy is checked like a new query.
    assert query._replace(target="E") == back_door_query("A", "E", w)
    with pytest.raises(MaidError, match="must differ"):
        query._replace(target="A")
    # A rule that is not a member of its enum, or a collider demand that is
    # not a bool, was taken for some rule: "directed" ran the undirected
    # search, "out" the into-source rule, and "no" demanded a collider.
    for junk in ({"edge_mode": "directed"}, {"first_edge": "out"},
                 {"interior_decisions": None}, {"require_collider": "no"}):
        with pytest.raises(MaidError, match="query rules must be"):
            PathQuery("A", "D", **junk)
        with pytest.raises(MaidError, match="query rules must be"):
            query._replace(**junk)


def string_set_maid():
    """Roots A and B, X <- A, Y <- A, B, and X -> D -> U."""
    b = ("f", "t")
    return Maid.build(agents=["x"], nodes=[
        Node.chance("A", b), Node.chance("B", b),
        Node.chance("X", b, parents=("A",)), Node.chance("Y", b, parents=("A", "B")),
        Node.decision("D", owner="x", domain=b, parents=("X",)),
        Node.utility("U", owner="x", parents=("D",)),
    ])


def test_a_string_is_not_a_set_of_node_ids():
    # A string would iterate as its characters: "AB" conditioned on A and
    # B, and "DU" asked for paths to D and U.
    g = string_set_maid()
    assert d_separated(g, "X", "Y", ["A", "B"])
    assert collider_blocked(g, "Y", ["A", "B"])
    string_sets = [
        lambda: d_separated(g, "X", "Y", "AB"),
        lambda: collider_blocked(g, "Y", "AB"),
        lambda: decision_free_paths(g, "X", "DU"),
        lambda: PathQuery(source="X", target="Y", blocking_set="AB"),
        lambda: PathQuery(source="X", target="Y", avoid="AB"),
        lambda: directed_effective_query("X", "U", "A"),
        lambda: back_door_query("X", "Y", "AB"),
        lambda: front_door_query("X", "Y", "AB"),
        lambda: effective_query("X", "Y", "AB"),
    ]
    for call in string_sets:
        with pytest.raises(MaidError, match="not the string"):
            call()
    # Neither a non-iterable nor a collection with an unhashable member is a
    # set of ids; each escaped as a TypeError.
    not_id_sets = [
        lambda: d_separated(g, "X", "Y", None),
        lambda: collider_blocked(g, "Y", 3),
        lambda: back_door_query("X", "Y", None),
        lambda: PathQuery("X", "Y", avoid=[["A"]]),
    ]
    for call in not_id_sets:
        with pytest.raises(MaidError, match="must be a collection of node ids"):
            call()
    # collider_blocked checks its conditioning set's ids as d_separated does.
    for call in (lambda: d_separated(g, "X", "Y", ["AB"]),
                 lambda: collider_blocked(g, "Y", ["nope"]),
                 lambda: descendants(g, ["A"]),
                 lambda: ancestors(g, ["A"])):
        with pytest.raises(UnknownNodeError):
            call()


# -- d-separation ----------------------------------------------------------------


def test_d_separation_on_the_card_game(card1):
    # B blocks the direct route but the fork at J stays open
    assert not d_separated(card1, "A", "U_B", {"B", "C"})
    # after demoting A the fork is gone and B, C screen everything off
    demoted = convert_decision_to_chance(card1, "A")
    assert d_separated(demoted, "A", "U_B", {"B", "C"})


def test_d_separation_endpoint_rules(card1):
    with pytest.raises(MaidError):
        d_separated(card1, "A", "U_B", {"A"})
    assert not d_separated(card1, "A", "A", set())


def test_collider_opens_via_observed_descendant(card1):
    # A -> B <- C with B's descendant U_A observed
    assert d_separated(card1, "A", "C", {"J"})
    assert not d_separated(card1, "A", "C", {"J", "U_A"})
    assert not d_separated(card1, "A", "C", {"J", "B"})


def test_enabled_edges_match_true_subgraph():
    rng = random.Random(7)
    for _ in range(50):
        maid = helpers.random_dag_maid(rng, max_nodes=7)
        edges = list(maid.edges)
        if not edges:
            continue
        keep = {e for e in edges if rng.random() < 0.6}
        stripped = maid
        for p, c in edges:
            if (p, c) not in keep:
                stripped = remove_edge(stripped, p, c)
        ids = sorted(maid.nodes)
        x, y = rng.sample(ids, 2)
        rest = [n for n in ids if n not in (x, y)]
        w = {n for n in rest if rng.random() < 0.3}
        # Adjacency maps of the kept edges, as retraction passes them to the
        # Bayes-ball pass.
        parents = {n: [p for p, c in keep if c == n] for n in ids}
        children = {n: [c for p, c in keep if p == n] for n in ids}
        assert (not _reaches_any(children, parents, x, frozenset((y,)), frozenset(w))) == \
            d_separated(stripped, x, y, w)


@given(data=st.data())
def test_a_given_source_leaves_as_an_unobserved_one(data):
    # Retraction gives each edge's source along with the decision's other
    # observations: a ball leaves its source in both directions either way.
    # On arbitrary adjacency maps, cycles included.
    ids = [f"n{i}" for i in range(data.draw(st.integers(2, 8)))]
    pairs = [(a, b) for a in ids for b in ids if a != b]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20))
    parents = {n: [a for a, b in edges if b == n] for n in ids}
    children = {n: [b for a, b in edges if a == n] for n in ids}
    x = data.draw(st.sampled_from(ids))
    rest = [n for n in ids if n != x]
    targets = frozenset(data.draw(st.sets(st.sampled_from(rest), min_size=1)))
    w = frozenset(data.draw(st.sets(st.sampled_from(rest))))
    assert _reaches_any(children, parents, x, targets, w | {x}) == \
        _reaches_any(children, parents, x, targets, w)


@given(seed=st.integers(0, 50_000))
def test_d_separation_agrees_with_trail_enumeration(seed):
    rng = random.Random(seed)
    maid = helpers.random_dag_maid(rng, max_nodes=8)
    oracle = helpers.DSepOracle(sorted(maid.nodes), maid.edges)
    ids = sorted(maid.nodes)
    x, y = rng.sample(ids, 2)
    rest = [n for n in ids if n not in (x, y)]
    w = {n for n in rest if rng.random() < 0.35}
    assert d_separated(maid, x, y, w) == oracle.d_separated(x, y, w)


@given(seed=st.integers(0, 50_000))
def test_d_separation_is_symmetric(seed):
    rng = random.Random(seed)
    maid = helpers.random_dag_maid(rng, max_nodes=8)
    ids = sorted(maid.nodes)
    x, y = rng.sample(ids, 2)
    rest = [n for n in ids if n not in (x, y)]
    w = {n for n in rest if rng.random() < 0.35}
    assert d_separated(maid, x, y, w) == d_separated(maid, y, x, w)


# -- directed and effective path queries ----------------------------------------


def _found(maid, query) -> bool:
    return find_path(maid, query) is not None


def test_directed_decision_free_paths(pa, card1):
    assert _found(pa, decision_free_query("P1", "D1"))
    assert _found(pa, decision_free_query("r0", "P2"))  # r0 -> r1 -> P2
    # every route from A to U_A passes through the decision B
    assert not _found(card1, decision_free_query("A", "U_A"))
    assert _found(card1, decision_free_query("B", "U_A"))


def test_avoid_set_excludes_interior_nodes(pa):
    assert _found(pa, directed_effective_query("P1", "U_D1", avoid={"D1"}))
    assert _found(pa, directed_effective_query("r0", "U_P1", avoid={"r1"}))
    assert not _found(pa, directed_effective_query("r0", "U_P1", avoid={"P1"}))
    # avoiding the only downstream decision leaves A with no route to U_B
    card = helpers.cascade_maid()
    assert _found(card, directed_effective_query("dA", "uB", avoid=set()))
    assert not _found(card, directed_effective_query("dA", "uA", avoid={"nB"}))


def test_back_door_paths(pa):
    # endpoint membership in the blocking set does not block
    assert _found(pa, back_door_query("P1", "U_P2", {"P1"}))
    # a root has no incoming edge to start a back-door path
    assert not _found(pa, back_door_query("r0", "U_P1", set()))
    assert not _found(pa, back_door_query("type", "U_D1", set()))


def test_front_door_paths_require_a_collider(pa):
    witness = find_path(pa, front_door_query("P1", "U_P2", {"r1", "P1"}))
    assert str(witness) == "P1 -> D1 <- type -> D2 -> U_P2"
    # a purely directed chain has no collider, so it cannot count
    assert not _found(pa, front_door_query("r0", "r1", set()))


def test_effective_path_with_blocking(pa, card1):
    assert _found(pa, effective_query("r0", "U_P2", set()))
    # observing r1 opens the collider r0 -> r1 <- D1, so {r1, P1} does not
    # cut r0 off; adding D1 closes that detour too
    assert _found(pa, effective_query("r0", "U_P2", {"r1", "P1"}))
    assert not _found(pa, effective_query("r0", "U_P2", {"r1", "P1", "D1"}))
    assert _found(card1, effective_query("J", "U_A", set()))
    # with A kept off the path the route via C keeps J connected to U_A
    assert _found(card1, effective_query("J", "U_A", set())._replace(avoid={"A"}))
    assert not _found(card1, effective_query("J", "U_A", set())._replace(avoid={"A", "C"}))


def test_collider_blocked_descendant_rule(pa):
    assert not collider_blocked(pa, "D1", frozenset({"r1"}))
    assert collider_blocked(pa, "D1", frozenset({"r0"}))
    assert not collider_blocked(pa, "D1", frozenset({"D1"}))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), cyclic=st.booleans())
def test_closures_and_collider_rule_match_brute_force(seed, cyclic):
    # With ``cyclic`` a node may take any other node as a parent, so most
    # of these graphs have directed cycles.
    rng = random.Random(seed)
    ids = [f"x{i}" for i in range(rng.randint(2, 10))]
    density = rng.uniform(0.1, 0.5)
    maid = Maid.build(agents=[], nodes=[
        Node.chance(n, domain=("f", "t"),
                    parents=tuple(p for p in (ids if cyclic else ids[:i])
                                  if p != n and rng.random() < density))
        for i, n in enumerate(ids)])
    reach = helpers.reference_descendants(maid)
    for n in ids:
        assert descendants(maid, n) == reach[n]
        assert ancestors(maid, n) == frozenset(m for m in ids if n in reach[m])
        w = frozenset(m for m in ids if rng.random() < 0.3)
        assert collider_blocked(maid, n, w) == reach[n].isdisjoint(w)


def test_closures_of_a_long_chain_stay_small():
    chain = helpers.decision_chain(3000)
    tracemalloc.start()
    try:
        assert len(descendants(chain, "D")) == 3002
        assert len(ancestors(chain, "U")) == 3002
        assert not collider_blocked(chain, "D", {"U"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


# -- witnesses and the independent checker ---------------------------------------


def _queries_for(maid):
    decisions = maid.decisions
    utilities = maid.utilities
    ids = sorted(maid.nodes)
    out = []
    for d in decisions[:2]:
        for u in utilities[:2]:
            if d == u:
                continue
            out.append(decision_free_query(d, u))
            out.append(directed_effective_query(d, u))
            out.append(back_door_query(d, u, frozenset(ids[:1])))
            out.append(front_door_query(d, u, frozenset(ids[:1])))
            out.append(effective_query(d, u))
    return out


@given(seed=st.integers(0, 50_000))
def test_found_paths_satisfy_their_query(seed):
    rng = random.Random(seed)
    maid = helpers.random_structure_maid(rng, max_nodes=9)
    if not maid.utilities or not maid.decisions:
        return
    for query in _queries_for(maid):
        path = find_path(maid, query)
        if path is not None:
            assert check_path(maid, path, query)


def _random_queries(maid, rng):
    """Every query builder, plus one query with every field drawn, on a
    random pair of nodes with random avoid and blocking sets; then two
    front-door queries, one given the parents of a random node (the shape
    revealing-denying asks) and one given nothing, where no collider opens."""
    x, y = rng.sample(sorted(maid.nodes), 2)
    others = sorted(set(maid.nodes) - {x, y})
    avoid = frozenset(n for n in others if rng.random() < 0.2)
    w = frozenset(n for n in maid.nodes if rng.random() < 0.3)
    parents = maid.parents(rng.choice(sorted(maid.nodes)))
    return [
        decision_free_query(x, y),
        directed_effective_query(x, y, avoid),
        back_door_query(x, y, w),
        front_door_query(x, y, w),
        effective_query(x, y, w),
        PathQuery(source=x, target=y, edge_mode=rng.choice(list(EdgeMode)),
                  first_edge=rng.choice(list(FirstEdge)),
                  interior_decisions=rng.choice(list(InteriorDecisions)),
                  avoid=avoid, blocking_set=w, require_collider=rng.random() < 0.5),
        front_door_query(x, y, parents),
        front_door_query(x, y, ()),
    ]


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1))
def test_find_path_matches_the_reference_search(seed):
    rng = random.Random(seed)
    maid = helpers.random_search_maid(rng, max_nodes=12)
    for _ in range(4):
        for query in _random_queries(maid, rng):
            assert find_path(maid, query) == helpers.reference_find_path(maid, query), query


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1))
def test_find_path_matches_the_reference_search_on_dense_dags(seed):
    # Dense graphs have many simple paths into each state, which is where
    # the search's dead states and live-state pruning skip the most.
    rng = random.Random(seed)
    maid = helpers.random_search_maid(rng, max_nodes=12, min_nodes=8, density=(0.35, 0.7))
    for _ in range(4):
        # The undirected builders and the query with every field drawn.
        for query in _random_queries(maid, rng)[2:]:
            assert find_path(maid, query) == helpers.reference_find_path(maid, query), query


def test_a_failed_state_is_entered_once(monkeypatch):
    # X's parents a and b both point into v, whose only continuation v -> d
    # is a dead end that touches no node of the path. The first prefix
    # X <- a -> v fails there; the second, X <- b -> v, must not search it
    # again before b -> z finds the target.
    g = Maid.build(agents=[], nodes=[
        Node.chance("a", ("f", "t")), Node.chance("b", ("f", "t")),
        Node.chance("X", ("f", "t"), parents=("a", "b")),
        Node.chance("v", ("f", "t"), parents=("a", "b")),
        Node.chance("z", ("f", "t"), parents=("b",)),
        Node.chance("d", ("f", "t"), parents=("v",)),
    ])
    query = effective_query("X", "z")
    asked = []
    step_rule = analysis._step_rule

    def counting_rule(*args):
        step_ok = step_rule(*args)

        def counted(node, arrived, leaving):
            asked.append((node, arrived, leaving))
            return step_ok(node, arrived, leaving)
        return counted

    monkeypatch.setattr(analysis, "_step_rule", counting_rule)
    path = find_path(g, query)
    assert str(path) == "X <- b -> z"
    assert path == helpers.reference_find_path(g, query)
    # Whether v may go on to its child is asked once per entry into v.
    assert asked.count(("v", "->", "->")) == 1


def test_front_door_search_reads_linearly_many_steps_on_card_games(monkeypatch):
    # Before its first collider, a front-door prefix that steps forward
    # off An(blocking set) can never meet one. On a card game each of the
    # n + 1 front-door queries the original's enumeration asks is empty;
    # without that rule they walked every collider-free prefix from their
    # sources, 20,806 step-rule judgements at n = 100 and 323,206 at
    # n = 400, against 4n + 3 with it.
    step_rule = analysis._step_rule
    asked = [0]

    def counting_rule(maid, query):
        step_ok = step_rule(maid, query)
        if not query.require_collider:
            return step_ok

        def counted(node, arrived, leaving):
            asked[0] += 1
            return step_ok(node, arrived, leaving)
        return counted

    monkeypatch.setattr(analysis, "_step_rule", counting_rule)
    counts = {}
    for n in (100, 400):
        asked[0] = 0
        enumerate_patterns(card_game(n), original=True)
        counts[n] = asked[0]
    assert 0 < counts[400] <= 4.5 * counts[100]


def test_a_state_that_failed_on_a_node_above_it_stays_open():
    # The first prefix X <- u <- w -> m2 <- r enters s with its collider
    # seen; s's only continuation s -> c -> u runs into u from c's frame,
    # not from s's own. The second prefix X <- y -> m <- q reaches s in the
    # same state with u off the path, and s -> c -> u -> T completes it.
    # Judged by its own moves alone, s would look dead and the witness
    # would be lost.
    b = ("f", "t")
    parents = {"w": (), "r": (), "y": (), "q": (), "s": ("q", "r"), "c": ("s",),
               "u": ("c", "w"), "X": ("u", "y"), "T": ("u",),
               "m": ("q", "y"), "m2": ("r", "w")}
    g = Maid.build(agents=[], nodes=[Node.chance(n, b, parents=p) for n, p in parents.items()])
    query = PathQuery("X", "T", require_collider=True, blocking_set={"m", "m2"})
    path = find_path(g, query)
    assert str(path) == "X <- y -> m <- q -> s -> c -> u -> T"
    assert path == helpers.reference_find_path(g, query)


@given(seed=st.integers(0, 2**32 - 1))
def test_decision_free_sweep_matches_per_target_search(seed):
    rng = random.Random(seed)
    maid = helpers.random_search_maid(rng, max_nodes=12)
    for x in maid.nodes:
        expected = {}
        for y in sorted(maid.nodes):
            if y != x:
                path = find_path(maid, decision_free_query(x, y))
                if path is not None:
                    expected[y] = path
        assert decision_free_paths(maid, x, maid.nodes) == expected
        assert decision_free_paths(maid, x, maid.decisions) == {
            y: p for y, p in expected.items() if maid.nodes[y].is_decision}


def test_find_path_rejects_cyclic_graphs():
    cyclic = Maid.build(agents=[], nodes=[
        Node.chance("a", domain=("f", "t"), parents=("c",)),
        Node.chance("b", domain=("f", "t"), parents=("a",)),
        Node.chance("c", domain=("f", "t"), parents=("b",)),
    ])
    for query in (decision_free_query("a", "c"), effective_query("a", "c")):
        with pytest.raises(CyclicGraphError):
            find_path(cyclic, query)
    with pytest.raises(CyclicGraphError):
        decision_free_paths(cyclic, "a", ["c"])


def test_check_path_rejects_foreign_paths(pa):
    query = front_door_query("P1", "U_P2", {"r1", "P1"})
    good = find_path(pa, query)
    assert check_path(pa, good, query)
    # a directed path fails the collider requirement
    chain = Path(nodes=("P1", "P2", "U_P2"), step_directions=("->", "->"))
    assert not check_path(pa, chain, query)
    # wrong endpoints fail outright
    other = Path(nodes=("P2", "U_P2"), step_directions=("->",))
    assert not check_path(pa, other, query)
    # nonexistent edges fail
    fake = Path(nodes=("P1", "U_P2"), step_directions=("->",))
    assert not check_path(pa, fake, query)
    # Junk in place of the path or the query escaped as an AttributeError.
    with pytest.raises(MaidError, match="query must be a PathQuery, got a NoneType"):
        find_path(pa, None)
    with pytest.raises(MaidError, match="needs a Path and a PathQuery"):
        check_path(pa, None, query)
    with pytest.raises(MaidError, match="needs a Path and a PathQuery"):
        check_path(pa, good, None)


def test_direction_constraint_blocks_backward_steps(pa):
    query = PathQuery(source="D2", target="r0", edge_mode=EdgeMode.DIRECTED_ONLY)
    assert find_path(pa, query) is None
    undirected = PathQuery(source="D2", target="r0", edge_mode=EdgeMode.UNDIRECTED)
    assert find_path(pa, undirected) is not None


def test_first_edge_constraints(pa):
    into = PathQuery(source="D1", target="U_P1", first_edge=FirstEdge.INTO_SOURCE)
    path = find_path(pa, into)
    assert path is not None and path.step_directions[0] == "<-"
    out = PathQuery(source="D1", target="U_P1", first_edge=FirstEdge.OUT_OF_SOURCE)
    path2 = find_path(pa, out)
    assert path2 is not None and path2.step_directions[0] == "->"


# -- determinism ------------------------------------------------------------------


def test_simplification_is_deterministic(card1, pa):
    for maid in (card1, pa):
        a = simplify(maid)
        b = simplify(maid)
        assert a.final.edges == b.final.edges
        assert a.eliminated == b.eliminated
