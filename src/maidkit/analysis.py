"""Path queries and conditional-independence tests over influence diagrams.

Two families of operations live here. The first is d-separation in the
Bayes-ball formulation, with an optional edge mask so callers can test
independence on a subgraph without materializing it. The second is an
exhaustive search for a witness path satisfying a conjunction of
constraints: edge orientation, a first-edge direction, per-interior rules
for decision nodes, a blocking set interpreted as in any Bayesian network,
and optionally the presence of converging arrows somewhere on the path.

Witness paths are simple (no node repeats). Endpoints are exempt from all
interior rules: membership of an endpoint in the blocking set never blocks
a path, and an endpoint decision need not be effective.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .core import Maid, MaidError, descendants

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
    FORBID_ALL = "forbid_all"
    REQUIRE_EFFECTIVE = "require_effective"


@dataclass(frozen=True)
class Path:
    """A simple path with per-step edge orientations.

    ``step_directions[i]`` records how the edge between ``nodes[i]`` and
    ``nodes[i + 1]`` points: ``"->"`` along the walk, ``"<-"`` against it.
    """

    nodes: tuple[str, ...]
    step_directions: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise MaidError("a path needs at least two nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise MaidError("path nodes must be distinct")
        if len(self.step_directions) != len(self.nodes) - 1:
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


@dataclass(frozen=True)
class PathQuery:
    """Everything :func:`find_path` needs to know about the path it wants."""

    source: str
    target: str
    edge_mode: EdgeMode = EdgeMode.UNDIRECTED
    first_edge: FirstEdge = FirstEdge.ANY
    interior_decisions: InteriorDecisions = InteriorDecisions.REQUIRE_EFFECTIVE
    avoid: frozenset[str] = frozenset()
    blocking_set: frozenset[str] = frozenset()
    require_collider: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "avoid", frozenset(self.avoid))
        object.__setattr__(self, "blocking_set", frozenset(self.blocking_set))
        if self.source == self.target:
            raise MaidError("path source and target must differ")
        if self.source in self.avoid or self.target in self.avoid:
            raise MaidError("avoid set must not contain the path endpoints")


def collider_blocked(maid: Maid, b: str, w: Iterable[str]) -> bool:
    """True iff converging arrows at ``b`` block a path given ``w``: neither
    ``b`` nor any descendant of ``b`` is conditioned on."""
    return descendants(maid, b).isdisjoint(w)


# -- d-separation -----------------------------------------------------------


def d_separated(maid: Maid, x: str, y: str, w: Iterable[str],
                enabled_edges: frozenset[tuple[str, str]] | None = None) -> bool:
    """True iff there is no active trail between ``x`` and ``y`` given ``w``.

    When ``enabled_edges`` is given, only those edges exist for the test;
    both trail traversal and the collider-opening descendant computation
    respect the mask.
    """
    maid.node(x)
    maid.node(y)
    wset = frozenset(w)
    for v in wset:
        maid.node(v)
    if x in wset or y in wset:
        raise MaidError("d-separation endpoints must not be conditioned on")
    if x == y:
        return False
    return not _reaches_any(maid, x, frozenset((y,)), wset, enabled_edges)


def _reaches_any(maid: Maid, x: str, targets: frozenset[str], w: frozenset[str],
                 enabled: frozenset[tuple[str, str]] | None) -> bool:
    """Bayes-ball reachability from ``x`` to any of ``targets`` given ``w``.

    The mask is tested only on the edges the ball actually crosses.
    """
    if x in targets:
        return True
    children = maid._children_map
    parents = maid._parents_map

    in_anw = set(w)
    stack = list(w)
    while stack:
        n = stack.pop()
        for p in parents[n]:
            if p not in in_anw and (enabled is None or (p, n) in enabled):
                in_anw.add(p)
                stack.append(p)

    # Visits are (node, entered-from-child?) states; the ball leaves the
    # source in both directions.
    up, down = True, False
    seen: set[tuple[str, bool]] = set()
    frontier: deque[tuple[str, bool]] = deque([(x, up)])
    while frontier:
        n, from_child = frontier.popleft()
        if (n, from_child) in seen:
            continue
        seen.add((n, from_child))
        if n in targets:
            return True
        # Up to the parents: through a non-conditioned node entered from a
        # child, or through a collider that is conditioned on or has a
        # conditioned descendant.
        if (n not in w) if from_child else (n in in_anw):
            for p in parents[n]:
                if enabled is None or (p, n) in enabled:
                    frontier.append((p, up))
        if n not in w:
            for c in children.get(n, ()):
                if enabled is None or (n, c) in enabled:
                    frontier.append((c, down))
    return False


# -- witness path search ------------------------------------------------------


def find_path(maid: Maid, query: PathQuery,
              effectiveness: Mapping[str, bool] | None = None) -> Path | None:
    """Depth-first search for the lexicographically first simple path
    satisfying ``query``, or None.

    Neighbor order is children ascending, then parents ascending, so the
    witness returned for a given graph and query never changes. A missing
    ``effectiveness`` map treats every decision as effective.
    """
    maid.node(query.source)
    maid.node(query.target)
    eff = effectiveness if effectiveness is not None else {d: True for d in maid.decisions}
    undirected = query.edge_mode is EdgeMode.UNDIRECTED
    children = maid._children_map
    sorted_parents = maid._parents_map

    def moves(node: str) -> Iterator[tuple[str, str]]:
        for c in children.get(node, ()):
            yield c, FORWARD
        if undirected:
            for p in sorted_parents[node]:
                yield p, BACKWARD

    def first_edge_ok(direction: str) -> bool:
        if query.first_edge is FirstEdge.INTO_SOURCE:
            return direction == BACKWARD
        if query.first_edge is FirstEdge.OUT_OF_SOURCE:
            return direction == FORWARD
        return True

    def interior_ok(node: str, is_collider: bool) -> bool:
        nd = maid.nodes[node]
        if nd.is_decision:
            if query.interior_decisions is InteriorDecisions.FORBID_ALL:
                return False
            if not eff.get(node, False):
                return False
        if is_collider:
            return not collider_blocked(maid, node, query.blocking_set)
        return node not in query.blocking_set

    path_nodes: list[str] = [query.source]
    path_dirs: list[str] = []
    on_path = {query.source}

    def extend(colliders_seen: int) -> Path | None:
        cur = path_nodes[-1]
        for nxt, direction in moves(cur):
            if nxt in on_path or nxt in query.avoid:
                continue
            if not path_dirs and not first_edge_ok(direction):
                continue
            n_colliders = colliders_seen
            if path_dirs:
                is_collider = path_dirs[-1] == FORWARD and direction == BACKWARD
                if not interior_ok(cur, is_collider):
                    continue
                if is_collider:
                    n_colliders += 1
            if nxt == query.target:
                if query.require_collider and n_colliders == 0:
                    continue
                return Path(tuple(path_nodes) + (nxt,), tuple(path_dirs) + (direction,))
            path_nodes.append(nxt)
            path_dirs.append(direction)
            on_path.add(nxt)
            found = extend(n_colliders)
            if found is not None:
                return found
            on_path.discard(nxt)
            path_dirs.pop()
            path_nodes.pop()
        return None

    return extend(0)


def check_path(maid: Maid, path: Path, query: PathQuery,
               effectiveness: Mapping[str, bool] | None = None) -> bool:
    """Verify a concrete path against a query without searching.

    Re-derives every constraint (edge existence, orientation, first-edge
    direction, interior rules, blocking, collider requirement) so test
    suites can audit witnesses independently of :func:`find_path`.
    """
    eff = effectiveness if effectiveness is not None else {d: True for d in maid.decisions}
    if path.nodes[0] != query.source or path.nodes[-1] != query.target:
        return False
    for tail, head in path.edges():
        if not maid.has_edge(tail, head):
            return False
    if query.edge_mode is EdgeMode.DIRECTED_ONLY and BACKWARD in path.step_directions:
        return False
    if not _first_edge_matches(query.first_edge, path.step_directions[0]):
        return False
    if any(n in query.avoid for n in path.nodes):
        return False
    saw_collider = False
    for i in range(1, len(path.nodes) - 1):
        node = path.nodes[i]
        is_collider = path.step_directions[i - 1] == FORWARD and path.step_directions[i] == BACKWARD
        saw_collider = saw_collider or is_collider
        nd = maid.nodes[node]
        if nd.is_decision:
            if query.interior_decisions is InteriorDecisions.FORBID_ALL:
                return False
            if not eff.get(node, False):
                return False
        if is_collider:
            if collider_blocked(maid, node, query.blocking_set):
                return False
        elif node in query.blocking_set:
            return False
    if query.require_collider and not saw_collider:
        return False
    return True


def _first_edge_matches(rule: FirstEdge, direction: str) -> bool:
    if rule is FirstEdge.INTO_SOURCE:
        return direction == BACKWARD
    if rule is FirstEdge.OUT_OF_SOURCE:
        return direction == FORWARD
    return True


# -- query builders ----------------------------------------------------------
#
# Pattern detection and instance auditing must agree on query
# construction, so the queries are built in exactly one place.


def decision_free_query(x: str, y: str) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.DIRECTED_ONLY,
                     interior_decisions=InteriorDecisions.FORBID_ALL)


def directed_effective_query(x: str, y: str, avoid: Iterable[str] = ()) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.DIRECTED_ONLY,
                     interior_decisions=InteriorDecisions.REQUIRE_EFFECTIVE,
                     avoid=frozenset(avoid))


def back_door_query(x: str, y: str, w: Iterable[str]) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.UNDIRECTED,
                     first_edge=FirstEdge.INTO_SOURCE,
                     interior_decisions=InteriorDecisions.REQUIRE_EFFECTIVE,
                     blocking_set=frozenset(w))


def front_door_query(x: str, y: str, w: Iterable[str]) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.UNDIRECTED,
                     first_edge=FirstEdge.OUT_OF_SOURCE,
                     interior_decisions=InteriorDecisions.REQUIRE_EFFECTIVE,
                     blocking_set=frozenset(w), require_collider=True)


def effective_query(x: str, y: str, w: Iterable[str] = ()) -> PathQuery:
    return PathQuery(source=x, target=y, edge_mode=EdgeMode.UNDIRECTED,
                     first_edge=FirstEdge.ANY,
                     interior_decisions=InteriorDecisions.REQUIRE_EFFECTIVE,
                     blocking_set=frozenset(w))
