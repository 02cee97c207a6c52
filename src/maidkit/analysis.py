"""Path queries and conditional-independence tests over influence diagrams.

Two families of operations live here. The first is d-separation in the
Bayes-ball formulation. The second is a search for the lexicographically
first witness path satisfying a conjunction of constraints: edge
orientation, a first-edge direction, per-interior rules for decision nodes,
a blocking set interpreted as in any Bayesian network, and optionally the
presence of converging arrows somewhere on the path.

Witness paths are simple (no node repeats). Endpoints are exempt from all
interior rules: membership of an endpoint in the blocking set never blocks
a path, and a query that forbids interior decisions may start or end at
one. The search knows no ineffective decision: such a decision is demoted
to a chance node (``convert_decision_to_chance``), and a query keeps a
node off its path with its avoid set.
"""
from __future__ import annotations

import enum
from collections import deque, namedtuple
from dataclasses import dataclass
from itertools import chain, repeat
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

from .core import Maid, MaidError, _check_maid, _id_set, _node_set, _reach

FORWARD = "->"
BACKWARD = "<-"


class EdgeMode(enum.Enum):
    DIRECTED_ONLY = "directed_only"
    UNDIRECTED = "undirected"


class FirstEdge(enum.Enum):
    ANY = "any"
    INTO_SOURCE = "into_source"
    OUT_OF_SOURCE = "out_of_source"


class InteriorDecisions(enum.Enum):
    """What a path may do at an interior decision: FORBID_ALL closes it
    there, ALLOW lets it through."""

    FORBID_ALL = "forbid_all"
    ALLOW = "allow"


@dataclass(frozen=True)
class Path:
    """A simple path with per-step edge orientations.

    ``step_directions[i]`` records how the edge between ``nodes[i]`` and
    ``nodes[i + 1]`` points: ``"->"`` along the walk, ``"<-"`` against it.
    """

    nodes: tuple[str, ...]
    step_directions: tuple[str, ...]

    def __post_init__(self) -> None:
        try:
            n_nodes, n_steps = len(self.nodes), len(self.step_directions)
        except TypeError:  # no len()
            raise MaidError("path nodes and step directions must be sequences") from None
        if n_nodes < 2:
            raise MaidError("a path needs at least two nodes")
        if len(_id_set(self.nodes, "path nodes")) != n_nodes:
            raise MaidError("path nodes must be distinct")
        if n_steps != n_nodes - 1:
            raise MaidError("a path needs exactly one direction per step")
        for d in self.step_directions:
            if d not in (FORWARD, BACKWARD):
                raise MaidError(f"invalid step direction {d!r}")

    def __str__(self) -> str:
        parts = [self.nodes[0]]
        for d, n in zip(self.step_directions, self.nodes[1:]):
            parts.append(d)
            parts.append(n)
        return " ".join(parts)

    def edges(self) -> tuple[tuple[str, str], ...]:
        """The traversed edges in graph orientation (tail, head)."""
        out = []
        for i, d in enumerate(self.step_directions):
            a, b = self.nodes[i], self.nodes[i + 1]
            out.append((a, b) if d == FORWARD else (b, a))
        return tuple(out)


def _path(nodes: tuple[str, ...], step_directions: tuple[str, ...]) -> Path:
    """A :class:`Path` that a search built valid, without its checks."""
    path = object.__new__(Path)
    fields = path.__dict__
    fields["nodes"], fields["step_directions"] = nodes, step_directions
    return path


class PathQuery(namedtuple("PathQuery", (
        "source", "target", "edge_mode", "first_edge", "interior_decisions", "avoid",
        "blocking_set", "require_collider"))):
    """Everything :func:`find_path` needs to know about the path it wants.

    A query is an immutable tuple of its fields, so it hashes, compares
    and iterates as that tuple does. ``avoid`` and ``blocking_set`` may be
    any collection of node ids; a frozenset is kept as given. Each rule
    must be a member of its enum, and ``require_collider`` a bool.
    """

    __slots__ = ()

    def __new__(cls, source: str, target: str,
                edge_mode: EdgeMode = EdgeMode.UNDIRECTED,
                first_edge: FirstEdge = FirstEdge.ANY,
                interior_decisions: InteriorDecisions = InteriorDecisions.ALLOW,
                avoid: Iterable[str] = frozenset(), blocking_set: Iterable[str] = frozenset(),
                require_collider: bool = False) -> "PathQuery":
        if not (isinstance(source, str) and isinstance(target, str)):
            raise MaidError(f"path endpoints must be node ids: {source!r}, {target!r}")
        if not isinstance(avoid, frozenset):
            avoid = _id_set(avoid, "avoid set")
        if not isinstance(blocking_set, frozenset):
            blocking_set = _id_set(blocking_set, "blocking set")
        if source == target:
            raise MaidError("path source and target must differ")
        if source in avoid or target in avoid:
            raise MaidError("avoid set must not contain the path endpoints")
        if not (isinstance(edge_mode, EdgeMode) and isinstance(first_edge, FirstEdge)
                and isinstance(interior_decisions, InteriorDecisions)
                and isinstance(require_collider, bool)):
            raise MaidError("query rules must be an EdgeMode, a FirstEdge, an InteriorDecisions "
                            f"and a bool, got {edge_mode!r}, {first_edge!r}, "
                            f"{interior_decisions!r}, {require_collider!r}")
        return tuple.__new__(cls, (source, target, edge_mode, first_edge, interior_decisions,
                                   avoid, blocking_set, require_collider))

    @classmethod
    def _make(cls, fields: Iterable) -> "PathQuery":
        # _replace builds through _make, which would skip the checks.
        return cls(*fields)


def collider_blocked(maid: Maid, b: str, w: Iterable[str]) -> bool:
    """True iff converging arrows at ``b`` block a path given ``w``: neither
    ``b`` nor any descendant of ``b`` is in ``w``, so ``b`` is not in An(w)."""
    _check_maid(maid)
    maid.node(b)
    return b not in _reach(maid._parents_map, _node_set(maid, w, "conditioning set"))


# -- d-separation -----------------------------------------------------------


def d_separated(maid: Maid, x: str, y: str, w: Iterable[str]) -> bool:
    """True iff there is no active trail between ``x`` and ``y`` given ``w``."""
    _check_maid(maid)
    maid.node(x)
    maid.node(y)
    wset = _node_set(maid, w, "conditioning set")
    if x in wset or y in wset:
        raise MaidError("d-separation endpoints must not be conditioned on")
    return not _reaches_any(maid._children_map, maid._parents_map, x, frozenset((y,)), wset)


def _reaches_any(children: Mapping[str, Sequence[str]], parents: Mapping[str, Sequence[str]],
                 x: str, targets: AbstractSet[str], w: AbstractSet[str]) -> bool:
    """Bayes-ball reachability from ``x`` to any of ``targets`` given ``w``
    (Shachter 1998) over the graph whose adjacency is ``children`` and
    ``parents``; ids absent from ``children`` have no children.

    A ball that enters a node of ``w`` from a parent bounces back up to its
    parents. That is how converging arrows open: the ball that passes down
    from a collider to a conditioned descendant climbs back through the
    collider to its other parents, so no ancestor set is needed. Each of
    the 2V states is visited once, so a call costs O(V + E). The ball
    leaves ``x`` in both directions whether or not ``x`` is in ``w``: a
    ball that comes back to ``x`` can only go where it has gone.
    """
    if x in targets:
        return True
    # Visits are (node, entered-from-child?) states.
    up, down = True, False
    seen: set[tuple[str, bool]] = set()
    frontier: deque[tuple[str, bool]] = deque(chain(zip(parents[x], repeat(up)),
                                                    zip(children.get(x, ()), repeat(down))))
    while frontier:
        n, from_child = frontier.popleft()
        if (n, from_child) in seen:
            continue
        seen.add((n, from_child))
        if n in targets:
            return True
        # Up to the parents: through a non-conditioned node entered from a
        # child, or bouncing off a conditioned node entered from a parent.
        if (n not in w) == from_child:
            frontier.extend(zip(parents[n], repeat(up)))
        if n not in w:
            frontier.extend(zip(children.get(n, ()), repeat(down)))
    return False


# -- witness path search ------------------------------------------------------


def _step_rule(maid: Maid, query: PathQuery) -> Callable[[str, str | None, str], bool]:
    """The first-edge and interior rules of ``query`` as one predicate,
    which :func:`find_path` and :func:`check_path` both judge paths by.

    ``step_ok(node, arrived, leaving)`` says whether a path that entered
    ``node`` by a step in direction ``arrived`` may leave it by a step in
    direction ``leaving``. ``arrived`` is None at the source, where only the
    first-edge rule applies. An interior decision closes the path under
    FORBID_ALL and passes under ALLOW.

    Converging arrows open the path at the nodes of An(blocking set), which
    is computed once per query, at the first converging step asked about.
    """
    decisions = maid._decision_set
    first_edge = query.first_edge
    forbid_decisions = query.interior_decisions is InteriorDecisions.FORBID_ALL
    blocking = query.blocking_set
    opened: set[str] | None = None

    def step_ok(node: str, arrived: str | None, leaving: str) -> bool:
        nonlocal opened
        if arrived is None:
            return (first_edge is FirstEdge.ANY
                    or (leaving == FORWARD) == (first_edge is FirstEdge.OUT_OF_SOURCE))
        if forbid_decisions and node in decisions:
            return False
        if arrived == FORWARD and leaving == BACKWARD:
            if opened is None:
                opened = _reach(maid._parents_map, blocking)
            return node in opened
        return node not in blocking

    return step_ok


def find_path(maid: Maid, query: PathQuery) -> Path | None:
    """The lexicographically first simple path satisfying ``query``, or None.

    Neighbor order is children ascending, then parents ascending, so the
    witness returned for a given graph and query never changes.

    The search is depth-first with an explicit stack, so no path is too
    long for it. A directed query expands each node at most once and costs
    O(V + E). An undirected query searches states (node, arrival direction,
    collider seen), and never enters again a state whose search failed
    without running into a node of the path above it. Converging arrows
    open only at An(blocking set), which is closed under parents, so a
    query that requires them never steps forward onto a node outside that
    set before its first collider: the prefix could only go on forward and
    never meet one. A front-door query whose source has no child in
    An(blocking set) thus fails after the one O(V + E) pass that finds the
    set. Once the search has tried 2E moves and has to back up, it marks
    the states from which some walk obeying the query reaches the target,
    in one O(V + E) pass backward from the target, and then steps only
    into those; a query no walk satisfies costs O(V + E). None of these
    rules bounds a query that some walk satisfies but few simple paths do:
    a state whose search fails on the path's own nodes is searched again
    after each prefix that reaches it.

    Raises :class:`~maidkit.core.CyclicGraphError` on a graph with a
    directed cycle, where expanding a node once would not be exact.
    """
    _check_maid(maid)
    try:
        source = query.source
    except AttributeError:
        raise MaidError(f"query must be a PathQuery, got a {type(query).__name__}") from None
    maid.node(source)
    maid.node(query.target)
    maid.topological_order  # raises CyclicGraphError
    return _find_path(maid, query)


def _find_path(maid: Maid, query: PathQuery) -> Path | None:
    """:func:`find_path` on checked arguments and an acyclic graph."""
    step_ok = _step_rule(maid, query)
    if query.edge_mode is EdgeMode.DIRECTED_ONLY:
        return _directed_search(maid, query, step_ok, frozenset((query.target,))).get(query.target)
    return _undirected_search(maid, query, step_ok)


def decision_free_paths(maid: Maid, x: str, targets: Iterable[str]) -> dict[str, Path]:
    """For each of ``targets`` other than ``x`` that has one, the witness
    ``find_path(maid, decision_free_query(x, target))`` returns, all from
    one O(V + E) search."""
    _check_maid(maid)
    maid.node(x)
    return _directed_paths(maid, decision_free_query, x,
                           _node_set(maid, targets, "targets") - {x})


def _directed_paths(maid: Maid, build: Callable[[str, str], PathQuery], x: str,
                    targets: frozenset[str]) -> dict[str, Path]:
    """For each of ``targets`` that has one, the witness
    ``find_path(maid, build(x, target))`` returns, all from
    one O(V + E) search, on checked arguments: ``build`` is
    :func:`decision_free_query` or :func:`directed_effective_query`, ``x``
    a node and ``targets`` a set of nodes without it. Neither the rules of
    a directed query nor the search they steer depend on its target."""
    if not targets:
        return {}
    maid.topological_order  # raises CyclicGraphError
    query = build(x, next(iter(targets)))
    return _directed_search(maid, query, _step_rule(maid, query), targets)


def _directed_search(maid: Maid, query: PathQuery,
                     step_ok: Callable[[str, str | None, str], bool],
                     targets: frozenset[str]) -> dict[str, Path]:
    """Depth-first search from ``query.source`` along edge directions, in
    :func:`find_path`'s neighbor order, expanding each node at most once;
    the path by which it first reaches each of ``targets``.

    On a DAG that path is :func:`find_path`'s witness: the nodes on the
    current path are ancestors of the node being expanded, so they never
    limit what it reaches, and with every step forward the interior rules
    depend on the node alone. A node once expanded without reaching a
    target therefore never leads to it later.
    """
    children = maid._children_map
    avoid = query.avoid
    found: dict[str, Path] = {}
    # A directed path has no converging arrows.
    if query.require_collider or not step_ok(query.source, None, FORWARD):
        return found
    path = [query.source]
    seen = {query.source}
    stack = [iter(children.get(query.source, ()))]
    while stack:
        for nxt in stack[-1]:
            if nxt in seen or nxt in avoid:
                continue
            seen.add(nxt)
            if nxt in targets:
                found[nxt] = _path(tuple(path) + (nxt,), (FORWARD,) * len(path))
                if len(found) == len(targets):
                    return found
            if step_ok(nxt, FORWARD, FORWARD):
                path.append(nxt)
                stack.append(iter(children.get(nxt, ())))
                break
        else:
            stack.pop()
            path.pop()
    return found


def _undirected_search(maid: Maid, query: PathQuery,
                       step_ok: Callable[[str, str | None, str], bool]) -> Path | None:
    children = maid._children_map
    parents = maid._parents_map
    target, avoid = query.target, query.avoid

    def moves(node: str, arrived: str | None, backward_ok: bool) -> Iterator[tuple[str, str]]:
        # The step rule depends on the state alone, so it is judged once per
        # direction a state may leave by, not once per move.
        forward = children.get(node, ()) if step_ok(node, arrived, FORWARD) else ()
        backward = parents[node] if backward_ok else ()
        return chain(zip(forward, repeat(FORWARD)), zip(backward, repeat(BACKWARD)))

    # The path's nodes in order, each with its depth.
    on_path = {query.source: 0}
    # Each frame's state (node, arrival direction, collider seen), where
    # collider seen means the path so far has converging arrows or needs none.
    frames = [(query.source, None, not query.require_collider)]
    # low: the shallowest depth of a path node that a move in the current
    # frame's subtree ran into (lows: the outer frames'). A frame failing
    # with low no less than its own depth met no node of its prefix, and
    # every other skip (step rule, avoid set, dead or not live state, a
    # state that can never meet a collider) depends on the state alone: it
    # fails after any prefix, so its state is dead. Otherwise low passes
    # up: the parent's subtree also left the continuations through that
    # node untried.
    low, lows = 0, []
    dead: set[tuple[str, str, bool]] = set()
    live: set[tuple[str, str, bool]] | None = None
    # The live states cost a pass over every edge, so they are marked only
    # once the search has tried as many moves as the graph has edge ends.
    moves_before_pruning = 2 * len(maid.edges)
    stack = [moves(query.source, None, step_ok(query.source, None, BACKWARD))]
    while stack:
        _, arrived, seen_before = frames[-1]
        for nxt, leaving in stack[-1]:
            moves_before_pruning -= 1
            if nxt in on_path:
                if on_path[nxt] < low:
                    low = on_path[nxt]
                continue
            seen = seen_before or (arrived == FORWARD and leaving == BACKWARD)
            if nxt == target and seen:
                return _path(tuple(on_path) + (nxt,),
                             tuple(f[1] for f in frames[1:]) + (leaving,))
            state = (nxt, leaving, seen)
            if (nxt in avoid or nxt == target or state in dead
                    or live is not None and state not in live):
                continue
            # Converging arrows open only at An(blocking set), which is
            # closed under parents. A path that steps forward onto a node
            # where they stay closed before its first collider can only go
            # on forward, to such nodes again, and never meets one.
            backward_ok = step_ok(nxt, leaving, BACKWARD)
            if not (seen or backward_ok or leaving == BACKWARD):
                dead.add(state)
                continue
            lows.append(low)
            low = on_path[nxt] = len(on_path)
            frames.append(state)
            stack.append(moves(nxt, leaving, backward_ok))
            break
        else:
            stack.pop()
            state = frames.pop()
            if frames:
                del on_path[state[0]]
                hit, low = low, lows.pop()
                if hit >= len(on_path):
                    dead.add(state)
                elif hit < low:
                    low = hit
                if live is None and moves_before_pruning < 0:
                    live = _live_states(maid, query, step_ok)
    return None


def _live_states(maid: Maid, query: PathQuery,
                 step_ok: Callable[[str, str | None, str], bool]
                 ) -> set[tuple[str, str, bool]]:
    """The states (node, arrival direction, collider seen) from which some
    walk obeying ``query`` reaches its target, by one pass backward from
    the target. Every simple continuation of a path is such a walk, so the
    search loses no witness by entering only these states.

    Walks never enter the source, the target or an avoided node on the way.
    """
    children = maid._children_map
    parents = maid._parents_map
    closed = query.avoid | {query.source, query.target}
    seen_before = (False, True) if query.require_collider else (True,)
    todo = [(query.target, FORWARD, True), (query.target, BACKWARD, True)]
    live = set(todo)
    while todo:
        node, leaving, seen = todo.pop()
        # The neighbors from which a step in direction ``leaving`` enters node.
        for prev in parents[node] if leaving == FORWARD else children.get(node, ()):
            if prev in closed:
                continue
            for arrived in (FORWARD, BACKWARD):
                collider = arrived == FORWARD and leaving == BACKWARD
                for before in seen_before:
                    state = (prev, arrived, before)
                    if ((before or collider) == seen and state not in live
                            and step_ok(prev, arrived, leaving)):
                        live.add(state)
                        todo.append(state)
    return live


def check_path(maid: Maid, path: Path, query: PathQuery) -> bool:
    """Verify a concrete path against a query without searching.

    Checks edge existence, orientation, the avoid set and the collider
    requirement, and judges every step by the same first-edge and interior
    rules :func:`find_path` searches with.
    """
    _check_maid(maid)
    try:
        if path.nodes[0] != query.source or path.nodes[-1] != query.target:
            return False
    except (AttributeError, LookupError):
        raise MaidError(f"check_path needs a Path and a PathQuery, got a "
                        f"{type(path).__name__} and a {type(query).__name__}") from None
    for tail, head in path.edges():
        if not maid.has_edge(tail, head):
            return False
    dirs = path.step_directions
    if query.edge_mode is EdgeMode.DIRECTED_ONLY and BACKWARD in dirs:
        return False
    if any(n in query.avoid for n in path.nodes):
        return False
    step_ok = _step_rule(maid, query)
    if not all(step_ok(node, arrived, leaving)
               for node, arrived, leaving in zip(path.nodes, (None,) + dirs, dirs)):
        return False
    return not query.require_collider or any(
        a == FORWARD and b == BACKWARD for a, b in zip(dirs, dirs[1:]))


# -- query builders ----------------------------------------------------------
#
# Pattern detection and instance auditing must agree on query
# construction, so the queries are built in exactly one place.


def decision_free_query(x: str, y: str) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.DIRECTED_ONLY,
                     interior_decisions=InteriorDecisions.FORBID_ALL)


def directed_effective_query(x: str, y: str, avoid: Iterable[str] = frozenset()) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.DIRECTED_ONLY, avoid=avoid)


def back_door_query(x: str, y: str, w: Iterable[str]) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.UNDIRECTED,
                     first_edge=FirstEdge.INTO_SOURCE, blocking_set=w)


def front_door_query(x: str, y: str, w: Iterable[str]) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.UNDIRECTED,
                     first_edge=FirstEdge.OUT_OF_SOURCE, blocking_set=w, require_collider=True)


def effective_query(x: str, y: str, w: Iterable[str] = ()) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.UNDIRECTED,
                     first_edge=FirstEdge.ANY, blocking_set=w)
