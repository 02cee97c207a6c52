"""Immutable graph model for multi-agent influence diagrams.

A diagram is a DAG of chance, decision, and utility nodes. Decisions and
utilities belong to agents; chance and decision nodes carry finite value
domains. Numeric parameters (conditional probability tables for chance
nodes, payoff tables for utility nodes) are optional, so purely structural
algorithms can run on unparameterized graphs.

Graphs are values: every mutation helper returns a new ``Maid``.
"""
from __future__ import annotations

import enum
import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

PROB_TOL = 1e-9


class MaidError(ValueError):
    """Base class for all errors raised by this package."""


class UnknownNodeError(MaidError):
    pass


class UnknownAgentError(MaidError):
    pass


class EdgeNotFoundError(MaidError):
    pass


class NotADecisionError(MaidError):
    pass


class CyclicGraphError(MaidError):
    pass


class ValidationError(MaidError):
    """Raised by operations that require a graph passing :func:`validate`."""

    def __init__(self, diagnostics: Sequence["Diagnostic"]):
        self.diagnostics = list(diagnostics)
        head = "; ".join(str(d) for d in self.diagnostics[:3])
        more = "" if len(self.diagnostics) <= 3 else f" (+{len(self.diagnostics) - 3} more)"
        super().__init__(f"invalid graph: {head}{more}")


class NodeKind(enum.Enum):
    CHANCE = "chance"
    DECISION = "decision"
    UTILITY = "utility"


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: the offending node (if any), a stable rule
    identifier, and a human-readable message."""

    node: str | None
    rule: str
    message: str

    def __str__(self) -> str:
        where = f"{self.node}: " if self.node else ""
        return f"{where}{self.message} [{self.rule}]"


def _collection(values: Iterable, what: str, items: str, collect: Callable = tuple):
    """``values``, a collection of ``items``, through ``collect``. A string
    is refused: it would iterate as its characters, each taken for one of
    the items. So is what ``collect`` cannot take: a value that is not
    iterable, an unhashable member of a set, or a member of a dict's items
    that is not a (key, value) pair."""
    if isinstance(values, str):
        raise MaidError(f"{what} must be a collection of {items}, not the string {values!r}")
    try:
        return collect(values)
    except (TypeError, ValueError):
        raise MaidError(f"{what} must be a collection of {items}, not {values!r}") from None


def _names(values: Iterable[str], what: str, items: str, collect: Callable = tuple):
    """``values``, a collection of string ``items``, through ``collect``."""
    out = _collection(values, what, items, collect)
    for v in out:
        if not isinstance(v, str):
            raise MaidError(f"{what} must be strings, got {v!r}")
    return out


def _name(value: str, what: str) -> str:
    """``value``, which must be a string naming ``what``."""
    if not isinstance(value, str):
        raise MaidError(f"{what} must be a string, got {value!r}")
    return value


def _id_set(ids: Iterable[str], what: str) -> frozenset[str]:
    """``ids`` as a set of node ids."""
    return _collection(ids, what, "node ids", frozenset)


def _node_set(maid: "Maid", ids: Iterable[str], what: str) -> frozenset[str]:
    """``ids`` as a set of node ids, each of which is a node of ``maid``."""
    out = _id_set(ids, what)
    for v in out.difference(maid.nodes):
        maid.node(v)  # raises UnknownNodeError
    return out


def _check_maid(maid: object) -> None:
    """``maid`` is the graph a public function was given: a :class:`Maid`."""
    if not isinstance(maid, Maid):
        raise MaidError(f"the graph must be a Maid, got a {type(maid).__name__}")


def _check_seed(seed: object, rng: bool = False) -> None:
    """``seed`` is an int that seeds a run's ``random.Random``, or with
    ``rng`` that ``random.Random`` itself. ``random.Random`` would seed
    None from the operating system, so that run could not be repeated."""
    if not isinstance(seed, random.Random if rng else int):
        what = "rng must be a random.Random" if rng else "seed must be an int"
        raise MaidError(f"{what}, got {seed!r}")


def _check_effectiveness(maid: "Maid", effectiveness: object) -> None:
    """``effectiveness`` is None or a mapping that flags every decision of
    ``maid`` True: a decision that is not effective is a chance node
    (:func:`convert_decision_to_chance`)."""
    if effectiveness is not None and not (
            isinstance(effectiveness, Mapping)
            and all(effectiveness.get(d, False) for d in maid.decisions)):
        raise MaidError("effectiveness must be None or a mapping that flags every decision "
                        f"True (an ineffective decision is a chance node), got {effectiveness!r}")


def _hashable(value: object) -> bool:
    """Can ``value`` be hashed? An unhashable id or agent names nothing."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _flatten_params(values: Iterable, what: str) -> tuple[float, ...]:
    """A parameter table, flat or as rows of numbers, as one flat tuple."""
    vals = _collection(values, what, "numbers or rows of numbers", list)
    try:
        if vals and isinstance(vals[0], (list, tuple)):
            vals = [v for row in vals for v in row]
        return tuple(float(v) for v in vals)
    except (TypeError, ValueError, OverflowError):  # a row or an entry that is no number
        raise MaidError(f"{what} must hold numbers or rows of numbers, not {values!r}") from None


@dataclass(frozen=True)
class Node:
    """A single node. ``parents`` is an ordered tuple; parameter tables are
    stored flat in row-major order with the last parent varying fastest.
    The id must be a string: ids are hashed, sorted and written as names."""

    id: str
    kind: NodeKind
    owner: str | None = None
    domain: tuple[str, ...] | None = None
    parents: tuple[str, ...] = ()
    cpt: tuple[float, ...] | None = None
    table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str):
            raise MaidError(f"a node id must be a string, got {self.id!r}")

    @classmethod
    def chance(cls, node_id: str, domain: Sequence[str], parents: Sequence[str] = (),
               cpt: Iterable | None = None) -> "Node":
        return cls(id=node_id, kind=NodeKind.CHANCE,
                   domain=_names(domain, "domain", "values"),
                   parents=_names(parents, "parents", "node ids"),
                   cpt=None if cpt is None else _flatten_params(cpt, "cpt"))

    @classmethod
    def decision(cls, node_id: str, owner: str, domain: Sequence[str],
                 parents: Sequence[str] = ()) -> "Node":
        return cls(id=node_id, kind=NodeKind.DECISION, owner=_name(owner, "owner"),
                   domain=_names(domain, "domain", "values"),
                   parents=_names(parents, "parents", "node ids"))

    @classmethod
    def utility(cls, node_id: str, owner: str, parents: Sequence[str] = (),
                table: Iterable | None = None) -> "Node":
        return cls(id=node_id, kind=NodeKind.UTILITY, owner=_name(owner, "owner"),
                   parents=_names(parents, "parents", "node ids"),
                   table=None if table is None else _flatten_params(table, "table"))

    @property
    def is_chance(self) -> bool:
        return self.kind is NodeKind.CHANCE

    @property
    def is_decision(self) -> bool:
        return self.kind is NodeKind.DECISION

    @property
    def is_utility(self) -> bool:
        return self.kind is NodeKind.UTILITY


class _KindIndex(NamedTuple):
    """A graph's nodes by kind, ascending, and each agent's own (decisions,
    utilities)."""
    decisions: tuple[str, ...]
    decision_set: frozenset[str]
    utilities: tuple[str, ...]
    chance_nodes: tuple[str, ...]
    owned: dict[str, tuple[tuple[str, ...], tuple[str, ...]]]


@dataclass(frozen=True)
class Maid:
    """An influence diagram over a fixed set of agents.

    Derived indexes (children, sorted parents, owned nodes, topological
    order, validation findings) are computed lazily and cached; they are
    safe to share because the value never mutates.
    """

    agents: frozenset[str]
    nodes: Mapping[str, Node]

    @classmethod
    def build(cls, agents: Iterable[str], nodes: Iterable[Node]) -> "Maid":
        table: dict[str, Node] = {}
        for node in _collection(nodes, "nodes", "Nodes"):
            if not isinstance(node, Node):
                raise MaidError(f"nodes must be Nodes, got a {type(node).__name__}")
            if node.id in table:
                raise MaidError(f"duplicate node id: {node.id!r}")
            table[node.id] = node
        return cls(agents=_names(agents, "agents", "agent names", frozenset), nodes=table)

    def __repr__(self) -> str:
        return (f"Maid(agents={sorted(self.agents)}, nodes={len(self.nodes)}, "
                f"edges={len(self.edges)})")

    # -- lookups ---------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownNodeError(f"unknown node: {node_id!r}") from None

    def parents(self, node_id: str) -> tuple[str, ...]:
        return self.node(node_id).parents

    def children(self, node_id: str) -> tuple[str, ...]:
        self.node(node_id)
        return self._children_map.get(node_id, ())

    def has_edge(self, tail: str, head: str) -> bool:
        try:
            return (tail, head) in self.edge_set
        except TypeError:  # an unhashable id names no edge
            return False

    def utilities_of(self, agent: str) -> tuple[str, ...]:
        return self._owned(agent)[1]

    def decisions_of(self, agent: str) -> tuple[str, ...]:
        return self._owned(agent)[0]

    def _owned(self, agent: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        try:
            return self._owned_map[agent]
        except (KeyError, TypeError):  # TypeError: an unhashable agent
            raise UnknownAgentError(f"unknown agent: {agent!r}") from None

    # -- derived structure ----------------------------------------------

    @cached_property
    def _parents_map(self) -> dict[str, tuple[str, ...]]:
        # The one adjacency index: every node, in id order, with its parents
        # that resolve to nodes, ascending. The other edge indexes are
        # derived from it.
        nodes = self.nodes
        return {n: _resolved_parents(nodes, nodes[n]) for n in _sorted_ids(nodes)}

    @cached_property
    def _children_map(self) -> dict[str, tuple[str, ...]]:
        # One walk over the parents map, which is in id order, so each list
        # comes out ascending.
        acc: dict[str, list[str]] = {}
        for node_id, parents in self._parents_map.items():
            for p in parents:
                acc.setdefault(p, []).append(node_id)
        return {k: tuple(v) for k, v in acc.items()}

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        children = self._children_map
        return tuple([(p, c) for p in sorted(children) for c in children[p]])

    @cached_property
    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def _kinds(self) -> _KindIndex:
        # One pass over the nodes in id order, comparing kinds by identity:
        # a node of no NodeKind is in no list, and only agents own nodes.
        chance, decision, utility = NodeKind.CHANCE, NodeKind.DECISION, NodeKind.UTILITY
        nodes = self.nodes
        ds, us, cs = [], [], []
        owned: dict[str, tuple[list[str], list[str]]] = {a: ([], []) for a in self.agents}
        for n in _sorted_ids(nodes):
            node = nodes[n]
            kind = node.kind
            if kind is chance:
                cs.append(n)
            elif kind is decision or kind is utility:
                (ds if kind is decision else us).append(n)
                try:
                    owned[node.owner][kind is utility].append(n)
                except (KeyError, TypeError):  # an undeclared or unhashable owner
                    pass
        return _KindIndex(tuple(ds), frozenset(ds), tuple(us), tuple(cs),
                          {a: (tuple(d), tuple(u)) for a, (d, u) in owned.items()})

    decisions = property(lambda self: self._kinds.decisions)
    _decision_set = property(lambda self: self._kinds.decision_set)
    utilities = property(lambda self: self._kinds.utilities)
    chance_nodes = property(lambda self: self._kinds.chance_nodes)
    _owned_map = property(lambda self: self._kinds.owned)

    @cached_property
    def _kahn_order(self) -> tuple[str, ...]:
        # Kahn's algorithm; ties broken lexicographically so the order is
        # reproducible. Unresolved parent references are skipped here and
        # reported by validate() instead. Nodes on or below a directed cycle
        # never become ready, so on a cyclic graph the order leaves them out.
        ready: list[str] = []
        indeg: dict[str, int] = {}
        for n, parents in self._parents_map.items():
            if parents:
                indeg[n] = len(parents)
            else:
                ready.append(n)
        heapq.heapify(ready)
        children = self._children_map.get
        push, pop = heapq.heappush, heapq.heappop
        order: list[str] = []
        while ready:
            n = pop(ready)
            order.append(n)
            for c in children(n, ()):
                left = indeg[c] - 1
                if left:
                    indeg[c] = left
                else:
                    push(ready, c)
        return tuple(order)

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        # What validate() reports, checked once per graph.
        return tuple(_check_structure(self))

    @property
    def topological_order(self) -> tuple[str, ...]:
        if len(self._kahn_order) != len(self.nodes):
            raise CyclicGraphError("graph contains a directed cycle")
        return self._kahn_order

    # -- functional updates ----------------------------------------------

    def with_node(self, node: Node) -> "Maid":
        table = dict(self.nodes)
        table[node.id] = node
        return Maid(agents=self.agents, nodes=table)


def _sorted_ids(nodes: Mapping[str, Node]) -> list[str]:
    """The keys of the node table ``nodes``, ascending. Only a raw
    ``Maid(...)`` can key a node by something other than a string, and
    keys of more than one type do not sort."""
    try:
        return sorted(nodes)
    except TypeError:
        key = next(k for k in nodes if not isinstance(k, str))
        raise MaidError(f"node ids must be strings, got the key {key!r}") from None


def _resolved_parents(nodes: Mapping[str, Node], node: Node) -> tuple[str, ...]:
    """``node``'s entry in ``Maid._parents_map`` over the node table ``nodes``:
    its parents that resolve to nodes, ascending, a repeated parent once
    per listing. A parent tuple of at most one node is its own entry."""
    parents = node.parents
    if type(parents) is not tuple or len(parents) > 1:
        return tuple(sorted(filter(nodes.__contains__, parents)))
    if parents and parents[0] not in nodes:
        return ()
    return parents


def _require_decision(maid: Maid, node_id: str) -> Node:
    """The node ``node_id``, which must be a decision."""
    node = maid.node(node_id)
    if not node.is_decision:
        raise NotADecisionError(f"{node_id!r} is not a decision node")
    return node


def all_effective(maid: Maid) -> dict[str, bool]:
    """Fresh effectiveness flags with every current decision set to True."""
    _check_maid(maid)
    return {d: True for d in maid.decisions}


def descendants(maid: Maid, x: str) -> frozenset[str]:
    """All nodes reachable from ``x`` along directed edges, including ``x``."""
    _check_maid(maid)
    maid.node(x)
    return frozenset(_reach(maid._children_map, (x,)))


def ancestors(maid: Maid, x: str) -> frozenset[str]:
    """All nodes from which ``x`` is reachable along directed edges,
    including ``x``."""
    _check_maid(maid)
    maid.node(x)
    return frozenset(_reach(maid._parents_map, (x,)))


def _reach(adjacency: Mapping[str, Sequence[str]], roots: Iterable[str]) -> set[str]:
    """``roots`` and every node reachable from one of them in ``adjacency``,
    by one O(V + E) search; ids absent from ``adjacency`` have no edges."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# -- parameter access -----------------------------------------------------


def parent_domains(maid: Maid, node_id: str) -> list[tuple[str, ...]]:
    _check_maid(maid)
    out = []
    for p in maid.parents(node_id):
        dom = maid.node(p).domain
        if dom is None:
            raise MaidError(f"parent {p!r} of {node_id!r} has no domain")
        out.append(dom)
    return out


def parent_configs(maid: Maid, node_id: str) -> Iterator[tuple[str, ...]]:
    """All parent value combinations, last parent varying fastest."""
    return itertools.product(*parent_domains(maid, node_id))


def _config_index(owner: str, parents: Sequence[str],
                  domains: Sequence[Sequence[str]], parent_values: Sequence[str]) -> int:
    """The row of ``parent_values`` in ``owner``'s table over ``parents``:
    one row per configuration of ``domains``, last parent varying fastest."""
    if isinstance(parent_values, str) or not isinstance(parent_values, Sequence):
        raise MaidError(f"{owner}: parent values must be a sequence of values, "
                        f"not {parent_values!r}")
    if len(parent_values) != len(parents):
        raise MaidError(
            f"{owner}: expected {len(parents)} parent values, got {len(parent_values)}")
    idx = 0
    for p, dom, v in zip(parents, domains, parent_values):
        if v not in dom:
            raise MaidError(f"{owner}: {v!r} is not a value of parent {p!r}")
        idx = idx * len(dom) + dom.index(v)
    return idx


def _table_row(maid: Maid, node: Node, flat: tuple[float, ...], width: int, what: str,
               parent_values: Sequence[str]) -> tuple[float, ...]:
    """The ``width`` entries of ``node``'s ``what`` table ``flat`` for one
    parent configuration, after checking the table's length."""
    domains = parent_domains(maid, node.id)
    expected = math.prod(len(dom) for dom in domains) * width
    if len(flat) != expected:
        raise MaidError(f"{node.id}: {what} table has {len(flat)} entries, expected {expected}")
    row = _config_index(node.id, node.parents, domains, parent_values)
    return flat[row * width:(row + 1) * width]


def chance_row(maid: Maid, node_id: str, parent_values: Sequence[str]) -> tuple[float, ...]:
    """The probability distribution of a chance node for one parent config."""
    _check_maid(maid)
    node = maid.node(node_id)
    if not node.is_chance or node.cpt is None:
        raise MaidError(f"{node_id}: no probability table")
    if node.domain is None:
        raise MaidError(f"{node_id}: no domain")
    return _table_row(maid, node, node.cpt, len(node.domain), "probability", parent_values)


def utility_value(maid: Maid, node_id: str, parent_values: Sequence[str]) -> float:
    _check_maid(maid)
    node = maid.node(node_id)
    if not node.is_utility or node.table is None:
        raise MaidError(f"{node_id}: no payoff table")
    return _table_row(maid, node, node.table, 1, "payoff", parent_values)[0]


def is_fully_parameterized(maid: Maid) -> bool:
    _check_maid(maid)
    return all(maid.nodes[n].cpt is not None for n in maid.chance_nodes) and \
        all(maid.nodes[n].table is not None for n in maid.utilities)


def strip_parameters(maid: Maid) -> Maid:
    """Drop every probability and payoff table, keeping the structure."""
    _check_maid(maid)
    table = {}
    for node_id, node in maid.nodes.items():
        if node.cpt is not None or node.table is not None:
            node = Node(id=node.id, kind=node.kind, owner=node.owner,
                        domain=node.domain, parents=node.parents)
        table[node_id] = node
    return Maid(agents=maid.agents, nodes=table)


# -- validation ------------------------------------------------------------


def validate(maid: Maid) -> list[Diagnostic]:
    """Check every structural invariant; an empty list means the graph is
    well formed. Diagnostics come node by node in id order, each node's in
    the order its rules are checked in :func:`_check_structure`; the
    acyclicity diagnostic, which names no node, comes last.

    The findings are kept per graph, like its other derived indexes, so
    the checks run once however often a graph is validated; each call
    returns a fresh list."""
    _check_maid(maid)
    return list(maid._diagnostics)


def _check_structure(maid: Maid) -> list[Diagnostic]:
    """Every structural finding about ``maid``, in :func:`validate`'s order.

    Per node, in id order, the findings keep this order: ``node-id``
    (empty, then mis-keyed); ``node-kind``, ``owner-required`` or
    ``owner-forbidden``; ``owner-declared``; ``domain-size``,
    ``domain-hashable``, ``domain-distinct`` or ``domain-forbidden``;
    ``parents-distinct``; ``parent-resolves`` for each unresolved parent,
    then ``utility-sink`` for each parent that is a utility, in list order;
    ``params-kind``; then the table rules (``cpt-arity``, per row
    ``cpt-finite``, ``cpt-nonnegative`` and ``cpt-normalized``;
    ``table-arity`` or ``table-finite``). ``acyclic`` comes last."""
    out: list[Diagnostic] = []
    nodes, agents = maid.nodes, maid.agents
    parents_map = maid._parents_map  # in id order
    utilities = frozenset(maid.utilities)
    chance, decision, utility = NodeKind.CHANCE, NodeKind.DECISION, NodeKind.UTILITY
    def add(rule: str, message: str) -> None:  # a finding about the node the loop is on
        out.append(Diagnostic(node_id, rule, message))

    for node_id, resolved in parents_map.items():
        node = nodes[node_id]
        kind, owner, domain, parents = node.kind, node.owner, node.domain, node.parents
        if not node_id:
            add("node-id", "node id must be non-empty")
        if node.id != node_id:
            add("node-id", f"node keyed as {node_id!r} reports id {node.id!r}")

        # A node of no NodeKind gets one finding and none of the rules
        # that depend on its kind.
        if kind is chance:
            if owner is not None:
                add("owner-forbidden", "chance node must not have an owner")
        elif kind is decision or kind is utility:
            if owner is None:
                add("owner-required", f"{kind.value} node has no owning agent")
        else:
            add("node-kind", f"kind {kind!r} is not a NodeKind")
        if owner is not None:
            try:
                declared = owner in agents
            except TypeError:  # an unhashable owner names no agent
                declared = False
            if not declared:
                add("owner-declared", f"owner {owner!r} is not a declared agent")

        if kind is chance or kind is decision:
            if domain is None or len(domain) < 2:
                add("domain-size", "domain must list at least two values")
            else:
                try:
                    if len(set(domain)) != len(domain):
                        add("domain-distinct", "domain values must be distinct")
                except TypeError:  # an unhashable value
                    add("domain-hashable", "domain values must be hashable")
        elif domain is not None and kind is utility:
            add("domain-forbidden", "utility node must not declare a domain")

        if parents:
            if len(parents) > 1 and len(set(parents)) != len(parents):
                add("parents-distinct", "parent list contains duplicates")
            if len(resolved) != len(parents) or not utilities.isdisjoint(resolved):
                for p in parents:
                    if p not in nodes:
                        add("parent-resolves", f"parent {p!r} is not a node")
                for p in parents:
                    if p in utilities:
                        add("utility-sink", f"utility node {p!r} is not a sink")

        cpt, table = node.cpt, node.table
        if cpt is None and table is None:
            continue
        if kind is decision:
            add("params-kind", "decision node must not carry parameters")
        elif kind is chance and table is not None:
            add("params-kind", "chance node must not carry a payoff table")
        elif kind is utility and cpt is not None:
            add("params-kind", "utility node must not carry a probability table")

        if len(resolved) != len(parents):
            continue  # no parent domains to size the table by
        domains = [nodes[p].domain for p in parents]
        if None in domains:
            continue
        rows = math.prod(map(len, domains))
        if cpt is not None and kind is chance and domain:
            k = len(domain)
            if len(cpt) != rows * k:
                add("cpt-arity", f"probability table has {len(cpt)} entries, expected {rows * k}")
            else:
                clean = all(map(math.isfinite, cpt)) and min(cpt, default=0.0) >= 0
                for r in range(rows):
                    row = cpt[r * k:(r + 1) * k]
                    if not clean and not all(map(math.isfinite, row)):
                        add("cpt-finite", f"row {r} contains a non-finite probability")
                    if not clean and any(v < 0 for v in row):
                        add("cpt-nonnegative", f"row {r} contains a negative probability")
                    if abs(sum(row) - 1.0) > PROB_TOL:
                        add("cpt-normalized", f"row {r} does not normalize (sum {sum(row)!r})")
        if table is not None and kind is utility:
            if len(table) != rows:
                add("table-arity", f"payoff table has {len(table)} entries, expected {rows}")
            elif not all(map(math.isfinite, table)):
                add("table-finite", "payoffs must be finite reals")

    if len(maid._kahn_order) != len(nodes):
        cyclic = sorted(nodes.keys() - set(maid._kahn_order))
        out.append(Diagnostic(None, "acyclic",
                              f"graph contains a directed cycle among {{{', '.join(cyclic)}}}"))
    return out


# -- structural edits ------------------------------------------------------


def convert_decision_to_chance(maid: Maid, decision_id: str) -> Maid:
    """Replace a decision with a parentless chance node that is uniform over
    the decision's domain. All information edges into the decision vanish;
    outgoing edges are untouched."""
    _check_maid(maid)
    node = _require_decision(maid, decision_id)
    if node.domain is None:
        raise MaidError(f"{decision_id}: no domain")
    table = dict(maid.nodes)
    table[decision_id] = _as_chance(node)
    return _edited(maid, table, (decision_id,), demoted=decision_id)


def _uniform_row(k: int) -> tuple[float, ...]:
    return tuple(1.0 / k for _ in range(k))


def _as_chance(decision: Node) -> Node:
    """What :func:`convert_decision_to_chance` puts in the place of
    ``decision``, which has a domain."""
    return Node(id=decision.id, kind=NodeKind.CHANCE, domain=decision.domain,
                parents=(), cpt=_uniform_row(len(decision.domain)))


def remove_edge(maid: Maid, tail: str, head: str) -> Maid:
    """Delete the edge ``tail -> head``. If the head carries parameters, the
    removed axis is marginalized out by averaging over the tail's values."""
    _check_maid(maid)
    if tail not in maid.node(head).parents:
        maid.node(tail)  # an unknown tail is reported as such
        raise EdgeNotFoundError(f"no edge {tail!r} -> {head!r}")
    return _remove_edges(maid, ((tail, head),))


def _remove_edges(maid: Maid, edges: Iterable[tuple[str, str]]) -> Maid:
    """Delete ``edges``, each the head's parent, in order, as successive
    :func:`remove_edge` calls would, in one rebuild of the node table."""
    table = dict(maid.nodes)
    heads = set()
    for tail, head in edges:
        maid.node(tail)
        table[head] = _drop_parent(maid, table[head], tail)
        heads.add(head)
    return _edited(maid, table, heads)


def _edited(maid: Maid, table: dict[str, Node], edited: Iterable[str],
            demoted: str | None = None) -> Maid:
    """The graph over ``table``, which holds ``maid``'s nodes with new
    parents for ``edited`` and, if given, the decision keyed ``demoted``
    now a chance node. It starts with each index ``maid`` has built that
    these edits cannot change: the kind index, in which ``demoted`` moves
    from the decisions, its owner's included, to the chance nodes, and the
    parents of every node not edited. The rest it derives as a fresh graph
    would."""
    new = Maid(agents=maid.agents, nodes=table)
    built, kept = maid.__dict__, new.__dict__
    kinds = built.get("_kinds")
    if kinds is not None:
        if demoted is not None:
            def others(ids: tuple[str, ...]) -> tuple[str, ...]:
                return tuple(n for n in ids if n != demoted)
            kinds = _KindIndex(others(kinds.decisions), kinds.decision_set - {demoted},
                               kinds.utilities, tuple(sorted((*kinds.chance_nodes, demoted))),
                               {a: (others(ds), us) for a, (ds, us) in kinds.owned.items()})
        kept["_kinds"] = kinds
    if "_parents_map" in built:
        parents = kept["_parents_map"] = dict(built["_parents_map"])
        for n in edited:
            parents[n] = _resolved_parents(table, table[n])
    return new


def _drop_parent(maid: Maid, node: Node, tail: str) -> Node:
    """``node`` without its first parent ``tail``, each table marginalized
    as :func:`remove_edge` describes. Parent domains are read from
    ``maid``; removing edges never changes a domain."""
    removed_at = node.parents.index(tail)
    new_parents = node.parents[:removed_at] + node.parents[removed_at + 1:]

    cpt, table = node.cpt, node.table
    if cpt is not None or table is not None:
        domains = [maid.node(p).domain for p in node.parents]
        sizes = [len(dom) for dom in domains] if all(domains) else None
        width = None if node.domain is None else len(node.domain)  # of a cpt row
        cpt = _marginalize(cpt, sizes, removed_at, width)
        table = _marginalize(table, sizes, removed_at, 1)
    return Node(id=node.id, kind=node.kind, owner=node.owner, domain=node.domain,
                parents=new_parents, cpt=cpt, table=table)


def _marginalize(flat: tuple[float, ...] | None, sizes: list[int] | None, axis: int,
                 width: int | None) -> tuple[float, ...] | None:
    """``flat``, ``width`` entries per row of parents of ``sizes`` values,
    with parent ``axis`` averaged out: each block holds one run per value
    of that parent, summed in value order. None, rather than a guess, if
    there is no table, no ``sizes`` or ``width``, or a table's length is off."""
    if flat is None or sizes is None or width is None or len(flat) != math.prod(sizes) * width:
        return None
    n = sizes[axis]
    run = math.prod(sizes[axis + 1:]) * width
    out: list[float] = []
    for block in range(math.prod(sizes[:axis])):
        start = block * n * run
        sums = [0.0] * run
        for v in range(n):
            sums = list(map(operator.add, sums, flat[start + v * run:start + (v + 1) * run]))
        out.extend(s / n for s in sums)
    return tuple(out)
