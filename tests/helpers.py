"""Shared test machinery.

Random graph generators sized for the property suites, an independent
d-separation oracle built on exhaustive simple-trail enumeration, the
exhaustive recursive witness search that ``find_path`` must agree with,
the edge-by-edge retraction loop that ``retract_edges`` must agree with,
the simplification loop that proves direct effects again in every phase,
which ``simplify`` must agree with, the identification phase that runs a
detection pass on every decision it checks, which ``identification_phase``
must agree with,
the token-at-a-time maidfile parser that ``parse_maidfile`` must agree
with, the rule-at-a-time structure check that ``validate`` must agree
with, the graph's indexes computed from their definitions, which the
builders on ``Maid`` must agree with, the state-at-a-time joint-space
sweep that the numeric layer's enumerated table must agree with, the
equilibrium search that runs every best-response round, which
``find_equilibrium_small`` must agree with,
the verification that sweeps again for every best response, which
``verify_simplification`` must agree with,
small hand-built games, and samplers for strategy profiles. The
d-separation oracle works on raw edge lists so it shares no graph code
with the package.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from maidkit import (
    Diagnostic,
    IterationRecord,
    Maid,
    MaidError,
    MaidParseError,
    Node,
    NodeKind,
    Path,
    PatternInstance,
    PatternKind,
    PhaseOutcome,
    SimplificationResult,
    ValidationError,
    card_game,
    identification_phase,
    remove_edge,
    retract_edges,
    validate,
)
from maidkit.analysis import (
    BACKWARD,
    FORWARD,
    EdgeMode,
    FirstEdge,
    InteriorDecisions,
    PathQuery,
    collider_blocked,
    d_separated,
    decision_free_paths,
    decision_free_query,
    directed_effective_query,
    find_path,
)
from maidkit.core import PROB_TOL, _check_seed
from maidkit.patterns import _ALL_KINDS, _detect, _pattern
from maidkit.semantics import (
    MAX_ROUNDS,
    _TIE_EPS,
    DecisionRule,
    VerificationReport,
    _check_profile,
    _check_tol,
    _JointSpace,
    _n_rows,
    _profile_value_from_cells,
    _pure_profiles,
    _pure_table,
    _response_cells,
    _rule_shape,
    _table_rule,
    rule_from_rows,
    uniform_rule,
)

AGENTS = ("p0", "p1", "p2", "p3")
_DOMAIN_VALUES = ("v0", "v1", "v2")


# One junk value of each kind a public argument can be given by mistake.
JUNK = [("None", None), ("zero", 0), ("minus-one", -1), ("float", 1.5), ("nan", math.nan),
        ("empty-str", ""), ("str", "xyz"), ("bytes", b"xyz"), ("tuple", ("A",)),
        ("list", ["A"]), ("dict", {"A": 1}), ("frozenset", frozenset({"A"})),
        ("object", object()), ("graph", card_game(1))]


# -- reference pattern detection ------------------------------------------------

# ``patterns._detect`` as it was before one directed sweep per source gave
# the direct effects with d_to_n and n_to_u for every own utility at once:
# direct effect searches each own utility alone, a decision-free sweep gives
# d_to_n, and n_to_u is one query per (n, u) in the shared table. It runs
# on the public, checking ``find_path`` and ``decision_free_paths``. With
# ``first`` it returns at its first instance.
def reference_detect(maid: Maid, d: str, kinds, first: bool) -> list[PatternInstance]:
    own_utilities = maid.utilities_of(maid.nodes[d].owner)
    out: list[PatternInstance] = []
    downstream = search = None
    for kind in kinds:
        if kind is PatternKind.DIRECT_EFFECT:
            for u in own_utilities:
                p = find_path(maid, decision_free_query(d, u))
                if p is None:
                    continue
                out.append(PatternInstance(kind=kind, decision=d, u=u,
                                           witness_paths=(("d_to_u", p),)))
                if first:
                    return out
            continue
        if downstream is None:
            downstream = sorted(decision_free_paths(maid, d, maid._decision_set - {d}).items())
            search = functools.cache(
                lambda build, *args: find_path(maid, build(*args)))
        if not downstream:
            continue
        bindings = _pattern(maid, d, kind)
        for n, d_to_n in downstream:
            n_owner = maid.nodes[n].owner
            for u in own_utilities:
                n_to_u = search(directed_effective_query, n, u)
                if n_to_u is None:
                    continue
                for u_prime in maid.utilities_of(n_owner):
                    for a, witnesses in bindings(n, u, u_prime):
                        found = [("d_to_n", d_to_n), ("n_to_u", n_to_u)]
                        for name, build, args in witnesses:
                            path = search(build, *args)
                            if path is None:
                                break
                            found.append((name, path))
                        else:
                            out.append(PatternInstance(kind=kind, decision=d, u=u, n=n,
                                                       u_prime=u_prime, a=a,
                                                       witness_paths=tuple(found)))
                            if first:
                                return out
    return out


def _random_row(k: int, rng: random.Random) -> tuple[float, ...]:
    raw = [rng.random() + 0.05 for _ in range(k)]
    total = sum(raw)
    return tuple(v / total for v in raw)


def random_structure_maid(rng: random.Random, max_nodes: int = 12,
                          max_decisions: int = 5) -> Maid:
    """A valid structure-only game: random DAG core of chance and decision
    nodes, utilities attached as sinks."""
    total = rng.randint(4, max_nodes)
    n_utilities = rng.randint(1, min(3, total - 2))
    n_core = total - n_utilities
    n_decisions = rng.randint(1, min(max_decisions, n_core))
    n_agents = rng.randint(1, 3)
    agents = list(AGENTS[:n_agents])

    core_ids = [f"n{i}" for i in range(n_core)]
    decision_positions = set(rng.sample(range(n_core), n_decisions))
    nodes: list[Node] = []
    for i, node_id in enumerate(core_ids):
        k = rng.randint(2, 3)
        domain = _DOMAIN_VALUES[:k]
        candidates = core_ids[:i]
        n_parents = min(len(candidates), rng.randint(0, 3))
        parents = tuple(sorted(rng.sample(candidates, n_parents)))
        if i in decision_positions:
            nodes.append(Node.decision(node_id, owner=rng.choice(agents),
                                       domain=domain, parents=parents))
        else:
            nodes.append(Node.chance(node_id, domain=domain, parents=parents))
    for j in range(n_utilities):
        n_parents = min(len(core_ids), rng.randint(0, 3))
        parents = tuple(sorted(rng.sample(core_ids, n_parents)))
        nodes.append(Node.utility(f"u{j}", owner=rng.choice(agents),
                                  parents=parents))
    maid = Maid.build(agents=agents, nodes=nodes)
    assert validate(maid) == []
    return maid


def random_parameterized_maid(rng: random.Random, max_nodes: int = 8,
                              max_domain: int = 3) -> Maid:
    """A valid fully parameterized game small enough for exhaustive best
    responses and equilibrium search.

    Each decision belongs to its own agent and the joint pure-profile space
    is trimmed (by dropping decision parents) below 10^5, so nothing in the
    numeric layer can hit a scale guard.
    """
    total = rng.randint(4, max_nodes)
    n_utilities = rng.randint(1, min(3, total - 2))
    n_core = total - n_utilities
    n_decisions = rng.randint(1, min(3, max(1, n_core - 1)))

    core_ids = [f"n{i}" for i in range(n_core)]
    decision_positions = sorted(rng.sample(range(n_core), n_decisions))
    owner_of = {f"n{pos}": AGENTS[j] for j, pos in enumerate(decision_positions)}
    agents = [AGENTS[j] for j in range(n_decisions)]

    domains: dict[str, tuple[str, ...]] = {}
    parent_lists: dict[str, list[str]] = {}
    for i, node_id in enumerate(core_ids):
        k = rng.randint(2, max_domain)
        domains[node_id] = _DOMAIN_VALUES[:k]
        candidates = core_ids[:i]
        n_parents = min(len(candidates), rng.randint(0, 2))
        parent_lists[node_id] = sorted(rng.sample(candidates, n_parents))

    def config_count(d: str) -> int:
        return math.prod(len(domains[p]) for p in parent_lists[d])

    def profile_space() -> int:
        return math.prod(len(domains[d]) ** config_count(d)
                         for d in owner_of)

    while profile_space() > 100_000:
        widest = max((d for d in owner_of if parent_lists[d]),
                     key=lambda d: (config_count(d), d))
        parent_lists[widest].pop()

    # occasionally decouple one agent's payoffs from everything their
    # decision can influence, so eliminations actually occur
    blocked_parents: dict[str, set[str]] = {}
    if owner_of and rng.random() < 0.4:
        victim = rng.choice(sorted(owner_of))
        reach = {victim}
        changed = True
        while changed:
            changed = False
            for node_id in core_ids:
                if node_id not in reach and any(p in reach for p in parent_lists[node_id]):
                    reach.add(node_id)
                    changed = True
        blocked_parents[owner_of[victim]] = reach

    nodes: list[Node] = []
    for node_id in core_ids:
        parents = tuple(parent_lists[node_id])
        if node_id in owner_of:
            nodes.append(Node.decision(node_id, owner=owner_of[node_id],
                                       domain=domains[node_id], parents=parents))
        else:
            k = len(domains[node_id])
            n_rows = math.prod(len(domains[p]) for p in parents)
            cpt = tuple(v for _ in range(n_rows) for v in _random_row(k, rng))
            nodes.append(Node.chance(node_id, domain=domains[node_id],
                                     parents=parents, cpt=cpt))
    for j in range(n_utilities):
        owner = agents[j % len(agents)]
        pool = [c for c in core_ids if c not in blocked_parents.get(owner, set())]
        n_parents = min(len(pool), rng.randint(1, 3))
        parents = tuple(sorted(rng.sample(pool, n_parents))) if pool else ()
        n_rows = math.prod(len(domains[p]) for p in parents)
        table = tuple(rng.uniform(-5.0, 10.0) for _ in range(n_rows))
        nodes.append(Node.utility(f"u{j}", owner=owner, parents=parents,
                                  table=table))
    maid = Maid.build(agents=agents, nodes=nodes)
    assert validate(maid) == []
    return maid


def random_dag_maid(rng: random.Random, max_nodes: int = 10) -> Maid:
    """A bare DAG of chance nodes for independence testing."""
    total = rng.randint(4, max_nodes)
    ids = [f"x{i}" for i in range(total)]
    nodes = []
    for i, node_id in enumerate(ids):
        parents = tuple(p for p in ids[:i] if rng.random() < 0.3)
        nodes.append(Node.chance(node_id, domain=("f", "t"), parents=parents))
    return Maid.build(agents=[], nodes=nodes)


def random_search_maid(rng: random.Random, max_nodes: int = 12, min_nodes: int = 2,
                       density: tuple[float, float] = (0.1, 0.5)) -> Maid:
    """A DAG of chance and decision nodes for witness search, each earlier
    node a parent with a probability drawn from ``density``, every node
    with a two-value domain and one agent owning every decision."""
    total = rng.randint(min_nodes, max_nodes)
    density = rng.uniform(*density)
    ids = [f"v{i:02d}" for i in range(total)]
    nodes = []
    for i, node_id in enumerate(ids):
        parents = tuple(p for p in ids[:i] if rng.random() < density)
        if rng.random() < 0.3:
            nodes.append(Node.decision(node_id, owner="p0", domain=("f", "t"),
                                       parents=parents))
        else:
            nodes.append(Node.chance(node_id, domain=("f", "t"), parents=parents))
    return Maid.build(agents=["p0"], nodes=nodes)


def with_payoffs(maid: Maid, rng: random.Random, agents=("p0", "p1")) -> Maid:
    """``maid`` with its decisions dealt among ``agents`` and two utilities
    per agent, each with one to three parents drawn from its nodes."""
    ids = sorted(maid.nodes)
    nodes = [Node.decision(n.id, owner=rng.choice(agents), domain=n.domain, parents=n.parents)
             if n.is_decision else n for n in maid.nodes.values()]
    for a in agents:
        for k in range(2):
            parents = rng.sample(ids, min(len(ids), rng.randint(1, 3)))
            nodes.append(Node.utility(f"U_{a}{k}", owner=a, parents=tuple(sorted(parents))))
    return Maid.build(agents=agents, nodes=nodes)


def reference_descendants(maid: Maid) -> dict[str, frozenset[str]]:
    """Every node with the nodes it reaches along directed edges, itself
    included: the reflexive-transitive closure of the edge list, grown to a
    fixed point, so a directed cycle is no obstacle."""
    reach = {n: {n} for n in maid.nodes}
    changed = True
    while changed:
        changed = False
        for tail, head in maid.edges:
            if not reach[head] <= reach[tail]:
                reach[tail] |= reach[head]
                changed = True
    return {n: frozenset(r) for n, r in reach.items()}


def reference_retract_edges(maid: Maid, rng: random.Random | None = None
                            ) -> tuple[Maid, tuple[tuple[str, str], ...]]:
    """Retraction one d-separation test per disabled edge and payoff node,
    each ``d_separated`` on an enabled graph built from scratch for the
    test (the graph without the edges still disabled), with one
    ``remove_edge`` per removed edge: what ``retract_edges`` computes,
    without sharing work between tests."""
    decision_order = [n for n in maid.topological_order
                      if maid.nodes[n].is_decision]
    info_edges = [(p, d) for d in decision_order for p in maid.parents(d)]
    if not info_edges:
        return maid, ()
    order = list(info_edges)
    if rng is not None:
        rng.shuffle(order)
    disabled = set(info_edges)

    progress = True
    while progress:
        progress = False
        for p, d in order:
            if (p, d) not in disabled:
                continue
            enabled = Maid(agents=maid.agents, nodes={
                n: replace(node, parents=tuple(q for q in node.parents if (q, n) not in disabled))
                for n, node in maid.nodes.items()})
            w = frozenset((d,)) | (frozenset(maid.parents(d)) - {p})
            for u in maid.utilities_of(maid.nodes[d].owner):
                if not d_separated(enabled, p, u, w):
                    disabled.discard((p, d))
                    progress = True
                    break

    removed = tuple(e for e in info_edges if e in disabled)
    for p, d in removed:
        maid = remove_edge(maid, p, d)
    return maid, removed


# The identification phase that finds every direct effect by a detection
# pass on the decision, and in which a demotion builds the new graph with
# all its indexes from scratch.
def reference_identification_phase(maid: Maid, effectiveness, rng=None) -> PhaseOutcome:
    eff = dict(effectiveness)
    eliminated: list[str] = []
    removed: list[tuple[str, str]] = []
    direct: set[str] = set()
    while True:
        before = len(eliminated)
        order = sorted(maid.decisions)
        if rng is not None:
            rng.shuffle(order)
        for d in order:
            if not eff.get(d, False) or d in direct:
                continue
            first = next(_detect(maid, d, _ALL_KINDS), None)
            if first is not None:
                if first.kind is PatternKind.DIRECT_EFFECT:
                    direct.add(d)
                continue
            eff[d] = False
            removed.extend((p, d) for p in maid.parents(d))
            node = maid.nodes[d]
            if node.domain is None:
                raise MaidError(f"{d}: no domain")
            k = len(node.domain)
            maid = maid.with_node(Node(id=d, kind=NodeKind.CHANCE, domain=node.domain,
                                       parents=(), cpt=tuple(1.0 / k for _ in range(k))))
            eliminated.append(d)
        if len(eliminated) == before:
            break
    return PhaseOutcome(maid=maid, eliminated=tuple(eliminated), removed_edges=tuple(removed))


# The simplification loop whose identification phases each start from an
# empty direct-effect set, so every phase proves its direct effects again.
def reference_simplify(maid: Maid, order_seed: int | None = None) -> SimplificationResult:
    """Alternate identification and retraction until neither changes the
    graph. The final graph, the eliminated decisions and the order of every
    removal are all reported.

    ``order_seed`` permutes the per-pass visiting order of decisions and
    edges; the fixed point does not depend on it.
    """
    diagnostics = validate(maid)
    if diagnostics:
        raise ValidationError(diagnostics)
    rng = random.Random(order_seed) if order_seed is not None else None
    original = maid
    eliminated_all: list[str] = []
    removed_all: list[tuple[str, str]] = []
    trace: list[IterationRecord] = []
    bound = len(maid.edges) + 2
    iterations = 0
    while True:
        iterations += 1
        if iterations > bound:
            raise MaidError("simplification did not reach a fixed point within "
                            "the structural bound")
        phase = identification_phase(maid, rng=rng)
        maid = phase.maid
        maid, pruned = retract_edges(maid, rng=rng)
        trace.append(IterationRecord(index=iterations, eliminated=phase.eliminated,
                                     conversion_removed_edges=phase.removed_edges,
                                     pruned_edges=pruned))
        eliminated_all.extend(phase.eliminated)
        removed_all.extend(phase.removed_edges)
        removed_all.extend(pruned)
        if not phase.eliminated and not pruned:
            break
    return SimplificationResult(original=original, final=maid,
                                eliminated=tuple(eliminated_all),
                                removed_edges=tuple(removed_all),
                                iterations=iterations, trace=tuple(trace))


def reference_find_path(maid: Maid, query: PathQuery,
                        effectiveness=None) -> Path | None:
    """Exhaustive recursive backtracking search for the lexicographically
    first simple path satisfying ``query`` (children ascending, then
    parents ascending), with no pruning: the witness contract of
    ``find_path``, stated as plainly as possible. Exponential in the worst
    case and bounded by Python's recursion limit, so only for small graphs.
    """
    eff = effectiveness if effectiveness is not None else {d: True for d in maid.decisions}
    undirected = query.edge_mode is EdgeMode.UNDIRECTED
    children = {n: sorted(c for c in maid.nodes if n in maid.nodes[c].parents)
                for n in maid.nodes}

    def moves(node):
        for c in children[node]:
            yield c, FORWARD
        if undirected:
            for p in sorted(maid.nodes[node].parents):
                yield p, BACKWARD

    def first_edge_ok(direction):
        if query.first_edge is FirstEdge.INTO_SOURCE:
            return direction == BACKWARD
        if query.first_edge is FirstEdge.OUT_OF_SOURCE:
            return direction == FORWARD
        return True

    def interior_ok(node, is_collider):
        if maid.nodes[node].is_decision:
            if query.interior_decisions is InteriorDecisions.FORBID_ALL:
                return False
            if not eff.get(node, False):
                return False
        if is_collider:
            return not collider_blocked(maid, node, query.blocking_set)
        return node not in query.blocking_set

    path_nodes = [query.source]
    path_dirs = []
    on_path = {query.source}

    def extend(colliders_seen):
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


# -- reference maidfile parser ---------------------------------------------------
#
# The token-at-a-time lexer and recursive-descent parser that
# ``parse_maidfile`` must agree with: the same graph, or the same
# ``MaidParseError`` message, line and column.

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<semi>;)
""", re.VERBOSE)

_KINDS = {"chance": NodeKind.CHANCE,
          "decision": NodeKind.DECISION,
          "utility": NodeKind.UTILITY}
_CLAUSES = ("agent", "domain", "parents", "cpt", "table")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise MaidParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise MaidParseError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            self.fail(f"expected {what}, found {shown!r}", tok)
        return self.advance()

    def parse_file(self) -> Maid:
        agents: list[str] = []
        nodes: list[Node] = []
        seen_nodes: dict[str, _Token] = {}
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                shown = tok.text or "end of input"
                self.fail(f"expected a declaration, found {shown!r}", tok)
            if tok.text == "agent":
                self.advance()
                name = self.expect("ident", "an agent name")
                self.expect("semi", "';'")
                if name.text in agents:
                    self.fail(f"agent {name.text!r} declared twice", name)
                agents.append(name.text)
            elif tok.text in _KINDS:
                node, name_tok = self.parse_node(_KINDS[tok.text])
                if node.id in seen_nodes:
                    self.fail(f"node {node.id!r} declared twice", name_tok)
                seen_nodes[node.id] = name_tok
                nodes.append(node)
            else:
                self.fail(f"expected 'agent', 'chance', 'decision' or 'utility', "
                          f"found {tok.text!r}", tok)
        return Maid.build(agents=agents, nodes=nodes)

    def parse_node(self, kind: NodeKind) -> tuple[Node, _Token]:
        self.advance()
        name = self.expect("ident", "a node name")
        self.expect("lbrace", "'{'")
        owner: str | None = None
        domain: tuple[str, ...] | None = None
        parents: tuple[str, ...] = ()
        cpt: tuple[float, ...] | None = None
        table: tuple[float, ...] | None = None
        seen: set[str] = set()
        while self.peek().kind != "rbrace":
            clause = self.peek()
            if clause.kind != "ident" or clause.text not in _CLAUSES:
                shown = clause.text or "end of input"
                self.fail(f"expected a clause ({', '.join(_CLAUSES)}) or '}}', "
                          f"found {shown!r}", clause)
            if clause.text in seen:
                self.fail(f"clause {clause.text!r} given twice in {name.text!r}", clause)
            seen.add(clause.text)
            self.advance()
            if clause.text == "agent":
                owner = self.expect("ident", "an agent name").text
                self.expect("semi", "';'")
            elif clause.text == "domain":
                values = self.ident_list(minimum=1, what="a domain value")
                domain = values
            elif clause.text == "parents":
                parents = self.ident_list(minimum=0, what="a parent name")
            elif clause.text == "cpt":
                cpt = self.number_list("a probability")
            else:
                table = self.number_list("a payoff")
        self.expect("rbrace", "'}'")
        node = Node(id=name.text, kind=kind, owner=owner, domain=domain,
                    parents=parents, cpt=cpt, table=table)
        return node, name

    def ident_list(self, minimum: int, what: str) -> tuple[str, ...]:
        values: list[str] = []
        while self.peek().kind == "ident":
            values.append(self.advance().text)
        if len(values) < minimum:
            self.fail(f"expected {what}")
        self.expect("semi", "';'")
        return tuple(values)

    def number_list(self, what: str) -> tuple[float, ...]:
        values: list[float] = []
        while self.peek().kind == "number":
            values.append(float(self.advance().text))
        if not values:
            self.fail(f"expected {what}")
        self.expect("semi", "';'")
        return tuple(values)


def reference_parse_maidfile(text: str) -> Maid:
    """Parse maidfile text one token at a time, tracking line and column on
    every lexeme: the plainest statement of the format's grammar and error
    positions."""
    return _Parser(_tokenize(text)).parse_file()


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def reference_validate(maid: Maid) -> list[Diagnostic]:
    """``validate`` as it was before its one-pass rewrite: each rule checked
    on its own, through the node's properties, with every lookup repeated."""
    out: list[Diagnostic] = []

    for node_id in sorted(maid.nodes):
        node = maid.nodes[node_id]
        if not node_id:
            out.append(Diagnostic(node_id, "node-id", "node id must be non-empty"))
        if node.id != node_id:
            out.append(Diagnostic(node_id, "node-id", f"node keyed as {node_id!r} reports id {node.id!r}"))

        known = any(node.kind is kind for kind in NodeKind)
        if not known:
            out.append(Diagnostic(node_id, "node-kind", f"kind {node.kind!r} is not a NodeKind"))
        needs_owner = node.kind in (NodeKind.DECISION, NodeKind.UTILITY)
        if known and needs_owner and node.owner is None:
            out.append(Diagnostic(node_id, "owner-required", f"{node.kind.value} node has no owning agent"))
        if known and not needs_owner and node.owner is not None:
            out.append(Diagnostic(node_id, "owner-forbidden", "chance node must not have an owner"))
        # An unhashable owner equals no agent.
        if node.owner is not None and not any(node.owner == a for a in maid.agents):
            out.append(Diagnostic(node_id, "owner-declared", f"owner {node.owner!r} is not a declared agent"))

        needs_domain = node.kind in (NodeKind.CHANCE, NodeKind.DECISION)
        if needs_domain:
            if node.domain is None or len(node.domain) < 2:
                out.append(Diagnostic(node_id, "domain-size", "domain must list at least two values"))
            elif not all(_hashable(v) for v in node.domain):
                out.append(Diagnostic(node_id, "domain-hashable", "domain values must be hashable"))
            elif len(set(node.domain)) != len(node.domain):
                out.append(Diagnostic(node_id, "domain-distinct", "domain values must be distinct"))
        elif node.domain is not None and node.is_utility:
            out.append(Diagnostic(node_id, "domain-forbidden", "utility node must not declare a domain"))

        if len(set(node.parents)) != len(node.parents):
            out.append(Diagnostic(node_id, "parents-distinct", "parent list contains duplicates"))
        unresolved = [p for p in node.parents if p not in maid.nodes]
        for p in unresolved:
            out.append(Diagnostic(node_id, "parent-resolves", f"parent {p!r} is not a node"))
        for p in node.parents:
            if p in maid.nodes and maid.nodes[p].is_utility:
                out.append(Diagnostic(node_id, "utility-sink", f"utility node {p!r} is not a sink"))

        if node.is_decision and (node.cpt is not None or node.table is not None):
            out.append(Diagnostic(node_id, "params-kind", "decision node must not carry parameters"))
        if node.is_chance and node.table is not None:
            out.append(Diagnostic(node_id, "params-kind", "chance node must not carry a payoff table"))
        if node.is_utility and node.cpt is not None:
            out.append(Diagnostic(node_id, "params-kind", "utility node must not carry a probability table"))

        resolvable = not unresolved and all(
            maid.nodes[p].domain is not None for p in node.parents if p in maid.nodes)
        if node.cpt is not None and node.is_chance and node.domain and resolvable:
            k = len(node.domain)
            rows = math.prod(len(maid.nodes[p].domain) for p in node.parents)
            if len(node.cpt) != rows * k:
                out.append(Diagnostic(node_id, "cpt-arity",
                                      f"probability table has {len(node.cpt)} entries, expected {rows * k}"))
            else:
                for r in range(rows):
                    row = node.cpt[r * k:(r + 1) * k]
                    if any(not math.isfinite(v) for v in row):
                        out.append(Diagnostic(node_id, "cpt-finite",
                                              f"row {r} contains a non-finite probability"))
                    if any(v < 0 for v in row):
                        out.append(Diagnostic(node_id, "cpt-nonnegative",
                                              f"row {r} contains a negative probability"))
                    if abs(sum(row) - 1.0) > PROB_TOL:
                        out.append(Diagnostic(node_id, "cpt-normalized",
                                              f"row {r} does not normalize (sum {sum(row)!r})"))
        if node.table is not None and node.is_utility and resolvable:
            rows = math.prod(len(maid.nodes[p].domain) for p in node.parents)
            if len(node.table) != rows:
                out.append(Diagnostic(node_id, "table-arity",
                                      f"payoff table has {len(node.table)} entries, expected {rows}"))
            elif any(not math.isfinite(v) for v in node.table):
                out.append(Diagnostic(node_id, "table-finite", "payoffs must be finite reals"))

    if len(maid._kahn_order) != len(maid.nodes):
        cyclic = sorted(maid.nodes.keys() - set(maid._kahn_order))
        out.append(Diagnostic(None, "acyclic",
                              f"graph contains a directed cycle among {{{', '.join(cyclic)}}}"))
    return out


def reference_indexes(maid: Maid) -> dict[str, object]:
    """Every index ``Maid`` derives from its node table, by attribute name,
    computed from the definitions with no shared code:

    - parents: each node's parents that are nodes, ascending, a parent
      listed twice kept twice (``("x", "x", "y")``);
    - children: for each node with a child, every node listing it as a
      parent, once per listing, ascending;
    - edges: every (parent, child) pair, once per listing, ascending;
    - Kahn order: again and again the least id not yet placed whose
      parents that are nodes are all placed; a node on or below a directed
      cycle is never placed;
    - kinds: each kind's ids (compared by identity) in id order, and each
      declared agent's own decisions and utilities, in id order.
    """
    ids = sorted(maid.nodes)
    parents = {n: tuple(p for p in sorted(maid.nodes[n].parents) if p in maid.nodes)
               for n in ids}
    children = {p: tuple(n for n in ids for q in parents[n] if q == p) for p in ids}
    children = {p: c for p, c in children.items() if c}
    order: list[str] = []
    while True:
        ready = [n for n in ids if n not in order and all(p in order for p in parents[n])]
        if not ready:
            break
        order.append(min(ready))

    def of_kind(kind, agent=None):
        return tuple(n for n in ids if maid.nodes[n].kind is kind
                     and (agent is None or maid.nodes[n].owner == agent))

    decisions = of_kind(NodeKind.DECISION)
    owned = {a: (of_kind(NodeKind.DECISION, a), of_kind(NodeKind.UTILITY, a))
             for a in maid.agents}
    return {
        "_parents_map": parents,
        "_children_map": children,
        "edges": tuple(sorted((p, n) for n in ids for p in parents[n])),
        "_kahn_order": tuple(order),
        "_kinds": (decisions, frozenset(decisions), of_kind(NodeKind.UTILITY),
                   of_kind(NodeKind.CHANCE), owned),
    }


class DSepOracle:
    """Brute-force d-separation on a raw edge list.

    Enumerates every simple trail between two nodes once, recording the
    interior non-colliders and, per collider, the collider's reflexive
    descendant set. A trail is active given W iff no non-collider is in W
    and every collider's descendant set meets W.
    """

    def __init__(self, node_ids, edges):
        self.node_ids = list(node_ids)
        self.edges = set(edges)
        children: dict[str, list[str]] = {n: [] for n in self.node_ids}
        neighbors: dict[str, list[tuple[str, str]]] = {n: [] for n in self.node_ids}
        for p, c in edges:
            children[p].append(c)
            neighbors[p].append((c, "->"))
            neighbors[c].append((p, "<-"))
        self.desc: dict[str, frozenset[str]] = {}
        for n in self.node_ids:
            seen = {n}
            frontier = [n]
            while frontier:
                cur = frontier.pop()
                for ch in children[cur]:
                    if ch not in seen:
                        seen.add(ch)
                        frontier.append(ch)
            self.desc[n] = frozenset(seen)
        self.neighbors = neighbors
        self._trails: dict[tuple[str, str], list] = {}

    def _trail_features(self, nodes, dirs):
        noncolliders = set()
        collider_desc = []
        for i in range(1, len(nodes) - 1):
            if dirs[i - 1] == "->" and dirs[i] == "<-":
                collider_desc.append(self.desc[nodes[i]])
            else:
                noncolliders.add(nodes[i])
        return frozenset(noncolliders), collider_desc

    def trails(self, x, y):
        key = (x, y)
        if key in self._trails:
            return self._trails[key]
        found = []
        stack = [(x, [x], [])]
        while stack:
            cur, nodes, dirs = stack.pop()
            for nb, direction in self.neighbors[cur]:
                if nb == y:
                    found.append(self._trail_features(nodes + [nb], dirs + [direction]))
                elif nb not in nodes:
                    stack.append((nb, nodes + [nb], dirs + [direction]))
        self._trails[key] = found
        return found

    def d_separated(self, x, y, w) -> bool:
        w = frozenset(w)
        if x == y:
            return False
        for noncolliders, collider_desc in self.trails(x, y):
            if noncolliders & w:
                continue
            if all(dd & w for dd in collider_desc):
                return False
        return True


def sample_measurable_profile(original: Maid, result,
                              rng: random.Random) -> dict[str, DecisionRule]:
    """A random behavior profile on the original game whose rules only
    condition on information the simplified game retained.

    Surviving decisions get random rows constant across pruned parents;
    eliminated decisions get one random row used everywhere (they observe
    nothing in the simplified game).
    """
    final = result.final
    profile: dict[str, DecisionRule] = {}
    for d in original.decisions:
        node = original.nodes[d]
        k = len(node.domain)
        orig_parents = node.parents
        orig_domains = [original.nodes[p].domain for p in orig_parents]
        if d in final.nodes and final.nodes[d].is_decision:
            kept = [i for i, p in enumerate(orig_parents)
                    if p in set(final.parents(d))]
            kept_domains = [orig_domains[i] for i in kept]
            table = {cfg: _random_row(k, rng)
                     for cfg in itertools.product(*kept_domains)}
            rows = [table[tuple(cfg[i] for i in kept)]
                    for cfg in itertools.product(*orig_domains)]
        else:
            row = _random_row(k, rng)
            rows = [row] * math.prod(len(dom) for dom in orig_domains)
        profile[d] = rule_from_rows(original, d, rows)
    return profile


# -- reference joint-space sweep ----------------------------------------------
#
# The numeric layer enumerated the joint space once per best response, state
# by state, before it kept one table per space. These are that sweep and its
# three readers, kept as they were; they read only the scaffolding a
# ``semantics._JointSpace`` builds in its constructor (domains, chance
# factors, decision inputs, utility readers), never its table.


def _reference_row(state, positions, radices) -> int:
    idx = 0
    for p, r in zip(positions, radices):
        idx = idx * r + state[p]
    return idx


def _reference_chance_weight(space, state) -> float:
    w = 1.0
    for pos, k, cpt, ppos, prad in space.chance_factors:
        w *= cpt[_reference_row(state, ppos, prad) * k + state[pos]]
        if w == 0.0:
            return 0.0
    return w


def _reference_rule_weight(space, state, profile, skip=frozenset()) -> float:
    w = 1.0
    for d, (pos, ppos, prad) in space.decision_inputs.items():
        if d in skip:
            continue
        w *= profile[d].rows[_reference_row(state, ppos, prad)][state[pos]]
        if w == 0.0:
            return 0.0
    return w


def reference_weighted_states(space, profile, skip=frozenset()):
    """Every state whose chance weight times rule weight (decisions in
    ``skip`` left out) is non-zero, with that weight, first node varying
    slowest."""
    for state in itertools.product(*(range(len(d)) for d in space.domains)):
        w = _reference_chance_weight(space, state)
        if w == 0.0:
            continue
        w *= _reference_rule_weight(space, state, profile, skip)
        if w != 0.0:
            yield state, w


def reference_utility_total(space, state, agent) -> float:
    total = 0.0
    for table, ppos, prad in space.utility_readers[agent]:
        total += table[_reference_row(state, ppos, prad)]
    return total


def reference_decision_observation(space, state, d) -> tuple[int, int]:
    """(rule row index, chosen-action index) of ``d`` in a state."""
    pos, ppos, prad = space.decision_inputs[d]
    return _reference_row(state, ppos, prad), state[pos]


def reference_expected_utility(space, profile, agent) -> float:
    total = 0.0
    for state, w in reference_weighted_states(space, profile):
        total += w * reference_utility_total(space, state, agent)
    return total


def reference_response_cells(space, profile, decisions, agent) -> dict:
    cells: dict[tuple, float] = {}
    for state, w in reference_weighted_states(space, profile, skip=frozenset(decisions)):
        key = tuple(reference_decision_observation(space, state, d) for d in decisions)
        cells[key] = cells.get(key, 0.0) + w * reference_utility_total(space, state, agent)
    return cells


def reference_is_motivated(maid: Maid, space, d: str, others, tol: float = 1e-9) -> bool:
    node = maid.nodes[d]
    value: dict[tuple[int, int], float] = {}
    mass: dict[tuple[int, int], float] = {}
    for state, w in reference_weighted_states(space, others, skip=frozenset((d,))):
        key = reference_decision_observation(space, state, d)
        mass[key] = mass.get(key, 0.0) + w
        value[key] = value.get(key, 0.0) + w * reference_utility_total(space, state, node.owner)

    for row in {row for row, _ in mass}:
        conditional = []
        for action in range(len(node.domain)):
            m = mass.get((row, action), 0.0)
            if m > 0.0:
                conditional.append(value[(row, action)] / m)
        if conditional and max(conditional) - min(conditional) > tol:
            return True
    return False


def reference_marginalize(flat: tuple[float, ...], sizes: list[int], axis: int,
                          width: int) -> tuple[float, ...]:
    """``core._marginalize`` as it was before it summed whole runs: every
    kept parent configuration is rebuilt and indexed by strides."""
    # Row index arithmetic for row-major tables, last parent fastest.
    kept = sizes[:axis] + sizes[axis + 1:]
    strides = [0] * len(sizes)
    acc = 1
    for i in range(len(sizes) - 1, -1, -1):
        strides[i] = acc
        acc *= sizes[i]
    out: list[float] = []
    for cfg in itertools.product(*(range(s) for s in kept)):
        sums = [0.0] * width
        for v in range(sizes[axis]):
            full = list(cfg[:axis]) + [v] + list(cfg[axis:])
            row = sum(i * s for i, s in zip(full, strides))
            for j in range(width):
                sums[j] += flat[row * width + j]
        out.extend(s / sizes[axis] for s in sums)
    return tuple(out)


def _random_sparse_row(k: int, rng: random.Random) -> tuple[float, ...]:
    """A pure row, a row with some zero entries or a row with none."""
    kind = rng.random()
    if kind < 0.3:
        pick = rng.randrange(k)
        return tuple(1.0 if a == pick else 0.0 for a in range(k))
    if kind < 0.7:
        raw = [0.0 if rng.random() < 0.5 else rng.random() + 0.05 for _ in range(k)]
        if not any(raw):
            raw[rng.randrange(k)] = 1.0
        total = sum(raw)
        return tuple(v / total for v in raw)
    return _random_row(k, rng)


def random_sparse_rule(maid: Maid, d: str, rng: random.Random) -> DecisionRule:
    """A random rule for ``d`` with sparse rows, so that rule weights often
    reach zero."""
    node = maid.nodes[d]
    n_rows = math.prod(len(maid.nodes[p].domain) for p in node.parents)
    return rule_from_rows(maid, d, [_random_sparse_row(len(node.domain), rng)
                                    for _ in range(n_rows)])


def with_sparse_chance(maid: Maid, rng: random.Random) -> Maid:
    """The game with every chance node's table redrawn with sparse rows, so
    that some joint states have zero chance weight."""
    for c in maid.chance_nodes:
        node = maid.nodes[c]
        n_rows = math.prod(len(maid.nodes[p].domain) for p in node.parents)
        cpt = [v for _ in range(n_rows) for v in _random_sparse_row(len(node.domain), rng)]
        maid = maid.with_node(Node.chance(c, domain=node.domain, parents=node.parents,
                                          cpt=cpt))
    return maid


# -- reference equilibrium search --------------------------------------------
#
# ``find_equilibrium_small`` and its best response as they were before the
# search stopped at the first repeated round-start profile and before
# stability was checked by value alone: every one of the ``MAX_ROUNDS``
# rounds is run, and every best response builds its deviation's tables.


def reference_best_pure_response(maid: Maid, space: _JointSpace,
                                 tables: Mapping[str, Sequence[float]], agent: str
                                 ) -> tuple[float, float, dict[str, Sequence[float]]]:
    """The value of one agent's incumbent tables, and the value and tables
    of their best joint pure deviation, holding everyone else fixed. Ties
    keep the incumbent tables; a lone decision keeps its incumbent's most
    likely action in parent configurations that have zero probability."""
    decisions = maid.decisions_of(agent)
    cells = _response_cells(space, tables, decisions, agent)
    incumbent = {d: tables[d] for d in decisions}
    current = _profile_value_from_cells(cells, decisions, incumbent)

    if len(decisions) == 1:
        d = decisions[0]
        k = len(maid.nodes[d].domain)
        picks = []
        best = 0.0
        for start in range(0, len(incumbent[d]), k):
            keep = max(range(k), key=incumbent[d][start:start + k].__getitem__)
            options = {a: cells[(start + a,)] for a in range(k) if (start + a,) in cells}
            if options:
                top = max(options.values())
                best += top
                if options.get(keep, -math.inf) < top - _TIE_EPS:
                    keep = min(a for a, v in options.items() if v >= top - _TIE_EPS)
            picks.append(keep)
        return current, best, {d: _pure_table(k, picks)}

    best, best_tables = current, incumbent
    shapes = {d: _rule_shape(maid, d) for d in decisions}
    for candidate in _pure_profiles(shapes, f"joint pure deviation space for agent {agent!r}"):
        value = _profile_value_from_cells(cells, decisions, candidate)
        if value > best + _TIE_EPS:
            best, best_tables = value, candidate
    return current, best, best_tables


def reference_find_equilibrium(maid: Maid, seed: int = 0,
                               tol: float = 1e-9) -> dict[str, DecisionRule] | None:
    """A pure-strategy equilibrium of a small game, or None when no pure
    profile is an equilibrium.

    Best-response iteration from a seeded random pure profile is tried
    first (agents keep their current rule on ties); if it fails to settle
    within ``MAX_ROUNDS`` rounds, every joint pure profile is checked in
    lexicographic order. The size of the pure profile space is guarded by
    ``MAX_PURE_PROFILES``.
    """
    _check_tol(tol)
    space = _JointSpace(maid)
    shapes = {d: _rule_shape(maid, d) for d in maid.decisions}
    candidates = _pure_profiles(shapes, "pure profile space")
    agents = sorted({maid.nodes[d].owner for d in maid.decisions})
    rng = random.Random(seed)

    def as_rules(tables):
        return {d: _table_rule(d, shape, tables[d]) for d, shape in shapes.items()}

    profile: dict[str, Sequence[float]] = {}
    for d, (_, pdoms, domain) in shapes.items():
        picks = [rng.randrange(len(domain)) for _ in range(_n_rows(pdoms))]
        profile[d] = _pure_table(len(domain), picks)

    for _ in range(MAX_ROUNDS):
        changed = False
        for agent in agents:
            current, best, tables = reference_best_pure_response(maid, space, profile, agent)
            if best > current + tol:
                profile.update(tables)
                changed = True
        if not changed:
            return as_rules(profile)

    def stable(candidate, agent):
        current, best, _ = reference_best_pure_response(maid, space, candidate, agent)
        return best - current <= tol

    for candidate in candidates:
        if all(stable(candidate, agent) for agent in agents):
            return as_rules(candidate)
    return None


# -- verification as it was before joint spaces kept response cells ------------
#
# ``verify_simplification``, its search and its best response as they were
# before a joint space kept the response cells of its sweeps and before an
# unchanged game was searched on the space of the original: every best
# response sweeps the space again, the search builds its own space, and
# every lifted rule is rebuilt row by row.


def _ref_response_cells(space: _JointSpace, tables: Mapping[str, Sequence[float]],
                        decisions: tuple[str, ...], agent: str) -> dict:
    """Aggregate opponent-weighted utility by the tuple of the codes
    ``row * k + action`` of the deviating decisions.

    The resulting table S satisfies: the expected utility of any behavior at
    ``decisions`` (others fixed) is the S-weighted sum of the probabilities
    that behavior assigns to each cell.
    """
    cells: dict[tuple, float] = {}
    for key, w, u in space.sweep(tables, decisions, agent):
        cells[key] = cells.get(key, 0.0) + w * u
    return cells


def _ref_best_pure_response(maid: Maid, space: _JointSpace,
                            tables: Mapping[str, Sequence[float]], agent: str
                            ) -> tuple[float, float, Callable[[], dict[str, Sequence[float]]]]:
    """The value of one agent's incumbent tables, the value of their best
    joint pure deviation holding everyone else fixed, and a function that
    builds that deviation's tables, which only a best-response round needs.
    Ties keep the incumbent tables; a lone decision keeps its incumbent's
    most likely action in parent configurations that have zero probability."""
    decisions = maid.decisions_of(agent)
    cells = _ref_response_cells(space, tables, decisions, agent)
    current = _profile_value_from_cells(cells, decisions, tables)
    if len(decisions) == 1:
        d = decisions[0]
        k = len(maid.nodes[d].domain)
        incumbent = tables[d]
        tops: dict[int, float] = {}  # each row's best cell; no cell is NaN or -0.0
        for (code,), s in cells.items():
            if s > tops.get(code // k, -math.inf):
                tops[code // k] = s
        best = 0.0
        for row in sorted(tops):
            best += tops[row]

        def deviation() -> dict[str, Sequence[float]]:
            picks = []
            for start in range(0, len(incumbent), k):
                keep = max(range(k), key=incumbent[start:start + k].__getitem__)
                floor = tops.get(start // k, -math.inf) - _TIE_EPS
                if cells.get((start + keep,), -math.inf) < floor:
                    keep = min(a for a in range(k) if cells.get((start + a,), -math.inf) >= floor)
                picks.append(keep)
            return {d: _pure_table(k, picks)}
        return current, best, deviation

    best, best_tables = current, {d: tables[d] for d in decisions}
    shapes = {d: _rule_shape(maid, d) for d in decisions}
    for candidate in _pure_profiles(shapes, f"joint pure deviation space for agent {agent!r}"):
        value = _profile_value_from_cells(cells, decisions, candidate)
        if value > best + _TIE_EPS:
            best, best_tables = value, candidate
    return current, best, lambda: best_tables


def _ref_gap(maid: Maid, space: _JointSpace, tables: Mapping[str, Sequence[float]],
             agent: str) -> float:
    """One agent's best-response gap on a space already built. Finite
    payoffs can still give an infinite gap, which is an error."""
    current, best, _ = _ref_best_pure_response(maid, space, tables, agent)
    gap = best - current
    if not math.isfinite(gap):
        raise MaidError(f"best-response gap of agent {agent!r} is not finite")
    return gap


def _ref_find_equilibrium(maid: Maid, seed: int = 0,
                          tol: float = 1e-9) -> dict[str, DecisionRule] | None:
    """A pure-strategy equilibrium of a small game, or None when no pure
    profile is an equilibrium.

    Best-response iteration from a seeded random pure profile is tried
    first (agents keep their current rule on ties); if it fails to settle
    within ``MAX_ROUNDS`` rounds, every joint pure profile is checked in
    lexicographic order. The size of the pure profile space is guarded by
    ``MAX_PURE_PROFILES``.
    """
    _check_tol(tol)
    _check_seed(seed)
    space = _JointSpace(maid)
    shapes = {d: _rule_shape(maid, d) for d in maid.decisions}
    candidates = _pure_profiles(shapes, "pure profile space")
    agents = sorted({maid.nodes[d].owner for d in maid.decisions})
    rng = random.Random(seed)

    def as_rules(tables):
        return {d: _table_rule(d, shape, tables[d]) for d, shape in shapes.items()}

    profile: dict[str, Sequence[float]] = {}
    for d, (_, pdoms, domain) in shapes.items():
        picks = [rng.randrange(len(domain)) for _ in range(_n_rows(pdoms))]
        profile[d] = _pure_table(len(domain), picks)

    # A round is a function of the profile it starts from (agent order, tol,
    # space and tie rule are fixed; the rng only draws the start), so once a
    # round starts where an earlier one did, the rounds cycle without ever
    # settling, to the fallback that MAX_ROUNDS rounds would reach.
    starts = set()
    for _ in range(MAX_ROUNDS):
        start = tuple(itertools.chain.from_iterable(profile.values()))
        if start in starts:
            break
        starts.add(start)
        changed = False
        for agent in agents:
            current, best, deviation = _ref_best_pure_response(maid, space, profile, agent)
            if best > current + tol:
                profile.update(deviation())
                changed = True
        if not changed:
            return as_rules(profile)

    def stable(candidate, agent):
        current, best, _ = _ref_best_pure_response(maid, space, candidate, agent)
        return best - current <= tol

    for candidate in candidates:
        if all(stable(candidate, agent) for agent in agents):
            return as_rules(candidate)
    return None


def _ref_lift_rule(original: Maid, d: str, rule: DecisionRule) -> DecisionRule:
    """Reindex a rule over a reduced parent list onto the original parent
    list; the rule's behavior is constant across dropped parents."""
    parents, pdoms, domain = _rule_shape(original, d)
    if rule.domain != domain:
        raise MaidError(f"{d}: domain changed between graphs")
    keep = [i for i, p in enumerate(parents) if p in rule.parents]
    if tuple(parents[i] for i in keep) != rule.parents:
        raise MaidError(f"{d}: simplified parents are not a subsequence of the "
                        f"original parents")
    rows = tuple(rule.row_for(tuple(config[i] for i in keep))
                 for config in itertools.product(*pdoms))
    return DecisionRule(d, parents, pdoms, domain, rows)


def reference_verify_simplification(maid: Maid, result, seed: int = 0,
                                    tol: float = 1e-9) -> VerificationReport:
    """Find a pure equilibrium of the simplified game, extend it to the
    original game (eliminated decisions become uniform, surviving rules are
    lifted over their original parent lists), and measure every agent's
    best-response gap in the original game. ``result`` must be the
    simplification of ``maid``: it needs ``original`` and ``final``, and
    ``result.original == maid``."""
    _check_tol(tol)
    _check_seed(seed)
    if not (hasattr(result, "original") and hasattr(result, "final")):
        raise MaidError(f"result must have original and final graphs, got a "
                        f"{type(result).__name__}")
    if result.original != maid:
        raise MaidError("result is the simplification of another game")
    space = _JointSpace(maid)  # an invalid original fails before the search starts
    eq = _ref_find_equilibrium(result.final, seed=seed, tol=tol)
    if eq is None:
        return VerificationReport(status="inconclusive", gaps={}, equilibrium=None,
                                  detail="the simplified game has no pure-strategy "
                                         "equilibrium to extend")
    extended: dict[str, DecisionRule] = {}
    for d in maid.decisions:
        if d in eq:
            extended[d] = _ref_lift_rule(maid, d, eq[d])
        else:
            extended[d] = uniform_rule(maid, d)
    agents = sorted({maid.nodes[d].owner for d in maid.decisions})
    tables = _check_profile(maid, extended)
    gaps = {}
    for agent in agents:
        gaps[agent] = _ref_gap(maid, space, tables, agent)
    failing = sorted(a for a, g in gaps.items() if g > tol)
    if failing:
        detail = "deviation improves " + ", ".join(
            f"{a} by {gaps[a]:.6g}" for a in failing)
        return VerificationReport(status="fail", gaps=gaps, equilibrium=extended,
                                  detail=detail)
    return VerificationReport(status="pass", gaps=gaps, equilibrium=extended,
                              detail="no agent can improve beyond tolerance")


# -- small hand-built games --------------------------------------------------


def decision_chain(length: int) -> Maid:
    """D -> X0 -> ... -> X<length-1> -> U, all owned by one agent."""
    nodes = [Node.decision("D", owner="a", domain=("f", "t"))]
    prev = "D"
    for i in range(length):
        nodes.append(Node.chance(f"X{i}", domain=("f", "t"), parents=(prev,)))
        prev = f"X{i}"
    nodes.append(Node.utility("U", owner="a", parents=(prev,)))
    return Maid.build(agents=["a"], nodes=nodes)


def blocked_dense_dag(k: int, seed: int = 14) -> Maid:
    """Chance nodes X0..X<k-1> with each forward edge present with
    probability 0.6, plus Z, a child of about 60% of them, and T, whose
    only parent is Z: conditioning on Z cuts X0 off from T, yet X0 has a
    number of simple trails exponential in k."""
    rng = random.Random(seed)
    ids = [f"X{i}" for i in range(k)]
    nodes = [Node.chance(n, domain=("f", "t"),
                         parents=tuple(p for p in ids[:i] if rng.random() < 0.6))
             for i, n in enumerate(ids)]
    nodes.append(Node.chance("Z", domain=("f", "t"),
                             parents=tuple(p for p in ids if rng.random() < 0.6)))
    nodes.append(Node.chance("T", domain=("f", "t"), parents=("Z",)))
    return Maid.build(agents=[], nodes=nodes)


def cascade_maid() -> Maid:
    """Three agents in a line; the middle node keeps the first decision
    alive only while the last decision survives, so elimination has to
    re-run within one phase."""
    return Maid.build(agents=["gA", "gB", "gC"], nodes=[
        Node.decision("dA", owner="gA", domain=("l", "r")),
        Node.decision("nB", owner="gB", domain=("l", "r"), parents=("dA",)),
        Node.decision("dC", owner="gC", domain=("l", "r"), parents=("nB",)),
        Node.utility("uA", owner="gA", parents=("dC",)),
        Node.utility("uB", owner="gB", parents=("dA", "nB")),
        Node.utility("uC", owner="gC"),
    ])


def matching_pennies() -> Maid:
    return Maid.build(agents=["x", "y"], nodes=[
        Node.decision("X", owner="x", domain=("h", "t")),
        Node.decision("Y", owner="y", domain=("h", "t")),
        Node.utility("U_X", owner="x", parents=("X", "Y"),
                     table=(1.0, 0.0, 0.0, 1.0)),
        Node.utility("U_Y", owner="y", parents=("X", "Y"),
                     table=(0.0, 1.0, 1.0, 0.0)),
    ])


def minimal_signaling() -> Maid:
    """Smallest graph where signaling fires: d_A observes t (correlated
    with h), d_B observes only d_A, and h feeds d_B's payoff directly."""
    return Maid.build(agents=["A", "B"], nodes=[
        Node.chance("h", domain=("lo", "hi")),
        Node.chance("t", domain=("lo", "hi"), parents=("h",)),
        Node.decision("d_A", owner="A", domain=("lo", "hi"), parents=("t",)),
        Node.decision("d_B", owner="B", domain=("lo", "hi"), parents=("d_A",)),
        Node.utility("u_A", owner="A", parents=("d_B",)),
        Node.utility("u_B", owner="B", parents=("d_B", "h")),
    ])


def two_decision_game(rng: random.Random) -> Maid:
    """One agent owns two decisions, so its best response is a joint
    deviation over both rules; a second agent plays alongside. D2 does not
    see c, so D1 can pass c on to it: simplify still eliminates D1, and on
    some seeds verification reports fail. ``tests/data/golden_numeric.json``
    pins that as well."""
    def row(k):
        raw = [rng.random() + 0.05 for _ in range(k)]
        return tuple(v / sum(raw) for v in raw)

    def payoffs(n):
        return tuple(rng.uniform(-5.0, 10.0) for _ in range(n))

    two = ("v0", "v1")
    return Maid.build(agents=["p", "q"], nodes=[
        Node.chance("c", domain=two, cpt=row(2)),
        Node.decision("D1", owner="p", domain=two, parents=("c",)),
        Node.decision("D2", owner="p", domain=two, parents=("D1",)),
        Node.decision("E", owner="q", domain=two, parents=("c",)),
        Node.utility("u_p", owner="p", parents=("D2", "E", "c"), table=payoffs(8)),
        Node.utility("u_q", owner="q", parents=("D1", "E"), table=payoffs(4)),
    ])


def pennies_with_chance(rng: random.Random) -> Maid:
    """Matching pennies played in every state of a chance node C that both
    decisions observe. Payoffs get a random shift per state and outcome;
    the stakes are drawn too, so in some states the shift outweighs them
    and a pure equilibrium can exist."""
    values = ("v0", "v1", "v2")[:rng.randint(2, 3)]
    raw = [rng.random() + 0.05 for _ in values]
    nodes = [Node.chance("C", domain=values, cpt=tuple(v / sum(raw) for v in raw)),
             Node.decision("X", owner="x", domain=("h", "t"), parents=("C",)),
             Node.decision("Y", owner="y", domain=("h", "t"), parents=("C",))]
    for agent, wins_on_match in (("x", True), ("y", False)):
        stake = rng.choice((0.0, 1.0, 10.0))
        table = tuple(stake * ((a == b) == wins_on_match) + rng.randrange(0, 5)
                      for _ in values for a in range(2) for b in range(2))
        nodes.append(Node.utility(f"U_{agent.upper()}", owner=agent,
                                  parents=("C", "X", "Y"), table=table))
    return Maid.build(agents=["x", "y"], nodes=nodes)
