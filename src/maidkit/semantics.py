"""Numeric game semantics by exhaustive enumeration.

Everything here works on fully parameterized diagrams and small joint
state spaces: joint probabilities, expected utilities, best-response gaps
over joint pure deviations, a pure-strategy equilibrium search, a
brute-force motivation test, and the check that a simplification preserved
equilibria. Enumeration sizes are guarded; callers hitting the guard get a
:class:`ScaleGuardError` rather than an open-ended computation.

Each joint space is weighed by columns only, once per space object: its
first sweep, one-shot calls included, multiplies a chance-weight column
over the whole space (8 bytes per state while it is built) and keeps a
table of compact columns (chance weights, decision codes, payoff totals)
that every expectation and best response on the space reads. A space
also keeps the response cells of each sweep under (agent, deviating
decisions, the flat tables of every other decision), all that the sweep
reads: at most one cells table per sweep made, none larger than the states
it visited, and all of it goes with the space when the public call returns.
``verify_simplification`` builds one space, the original's, and searches
the simplified game on it: each sweep reads the simplified rules lifted
over the original parents, eliminated decisions playing uniformly, and the
cells are folded back onto the simplified rows. Its replay then reads the
cells of the search's last round for every agent whose decisions all
survived.

Decision rules are tables in the same layout as node parameters: one
distribution per parent configuration, last parent varying fastest. A
profile is checked once on entry and then read as flat tables, rows one
after another; the search builds rules only for the profile it returns,
and ``verify_simplification`` only for the extended profile it reports.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import (
    Maid,
    MaidError,
    Node,
    PROB_TOL,
    ValidationError,
    _as_chance,
    _check_maid,
    _check_seed,
    _config_index,
    _require_decision,
    _uniform_row,
    chance_row,
    is_fully_parameterized,
    parent_domains,
    validate,
)

MAX_JOINT_STATES = 2_000_000
MAX_PURE_PROFILES = 1_000_000
MAX_ROUNDS = 50
_TIE_EPS = 1e-12


class ScaleGuardError(MaidError):
    """The requested enumeration is larger than the configured bound."""


# -- decision rules -----------------------------------------------------------


@dataclass(frozen=True)
class DecisionRule:
    """A behavioral rule for one decision: a distribution over the decision's
    domain for every configuration of its parents.

    The rule snapshots the parent list and domains it was built against, so
    a profile constructed for one graph cannot silently be applied to a
    structurally different one.
    """

    decision: str
    parents: tuple[str, ...]
    parent_domains: tuple[tuple[str, ...], ...]
    domain: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        try:  # a domain, or a parent domain, with no length
            expected, width = math.prod(len(d) for d in self.parent_domains), len(self.domain)
        except TypeError:
            raise MaidError(f"{self.decision}: domains must be sequences of values") from None
        if not isinstance(self.rows, Sequence):
            raise MaidError(f"{self.decision}: rule rows must be a sequence, "
                            f"got {type(self.rows).__name__}")
        if len(self.rows) != expected:
            raise MaidError(f"{self.decision}: rule has {len(self.rows)} rows, "
                            f"expected {expected}")
        for i, row in enumerate(self.rows):
            if not isinstance(row, Sequence):
                raise MaidError(f"{self.decision}: row {i} is a "
                                f"{type(row).__name__}, not a sequence")
            if len(row) != width:
                raise MaidError(f"{self.decision}: row {i} has {len(row)} entries, "
                                f"expected {width}")
            # Written so that NaN fails both comparisons; entries that are
            # not numbers fail with a TypeError.
            try:
                valid = all(v >= 0 for v in row) and abs(sum(row) - 1.0) <= PROB_TOL
            except TypeError:
                valid = False
            if not valid:
                raise MaidError(f"{self.decision}: row {i} is not a distribution")

    def config_index(self, parent_values: Sequence[str]) -> int:
        return _config_index(self.decision, self.parents, self.parent_domains, parent_values)

    def row_for(self, parent_values: Sequence[str]) -> tuple[float, ...]:
        return self.rows[self.config_index(parent_values)]

    @property
    def is_pure(self) -> bool:
        return all(any(v == 1.0 for v in row) for row in self.rows)


_RuleShape = tuple[tuple[str, ...], tuple[tuple[str, ...], ...], tuple[str, ...]]


def _rule_shape(maid: Maid, d: str) -> _RuleShape:
    node = _require_decision(maid, d)
    if node.domain is None:
        raise MaidError(f"{d}: no domain")
    return node.parents, tuple(parent_domains(maid, d)), node.domain


def _n_rows(parent_domains: Sequence[Sequence[str]]) -> int:
    return math.prod(len(dom) for dom in parent_domains)


def _pure_table(k: int, picks: Iterable[int]) -> list[float]:
    """The flat table of the pure rule over ``k`` actions that takes action
    index ``picks[i]`` in the i-th parent configuration."""
    return [1.0 if i == a else 0.0 for a in picks for i in range(k)]


def _table_rule(d: str, shape: _RuleShape, table: Sequence[float]) -> DecisionRule:
    parents, pdoms, domain = shape
    k = len(domain)
    rows = tuple(tuple(table[r * k:r * k + k]) for r in range(_n_rows(pdoms)))
    return DecisionRule(d, parents, pdoms, domain, rows)


def uniform_rule(maid: Maid, d: str) -> DecisionRule:
    _check_maid(maid)
    parents, pdoms, domain = _rule_shape(maid, d)
    row = _uniform_row(len(domain))
    return DecisionRule(d, parents, pdoms, domain, tuple(row for _ in range(_n_rows(pdoms))))


def constant_rule(maid: Maid, d: str, action: str) -> DecisionRule:
    _check_maid(maid)
    shape = _rule_shape(maid, d)
    _, pdoms, domain = shape
    if action not in domain:
        raise MaidError(f"{d}: {action!r} is not in the domain")
    return _table_rule(d, shape, [1.0 if a == action else 0.0 for a in domain] * _n_rows(pdoms))


def rule_from_function(maid: Maid, d: str, choose) -> DecisionRule:
    """Build a pure rule from a callable mapping a parent-value tuple to an
    action in the decision's domain."""
    _check_maid(maid)
    shape = _rule_shape(maid, d)
    if not callable(choose):
        raise MaidError(f"{d}: choose must be callable, got a {type(choose).__name__}")
    _, pdoms, domain = shape
    picks = []
    for config in itertools.product(*pdoms):
        action = choose(config)
        if action not in domain:
            raise MaidError(f"{d}: {action!r} is not in the domain")
        picks.append(domain.index(action))
    return _table_rule(d, shape, _pure_table(len(domain), picks))


def rule_from_rows(maid: Maid, d: str, rows: Iterable[Iterable[float]]) -> DecisionRule:
    _check_maid(maid)
    parents, pdoms, domain = _rule_shape(maid, d)
    table = []
    try:
        for row in rows:
            # A string iterates as characters, each of which may parse as a number.
            if isinstance(row, str):
                raise TypeError(f"row {len(table)} is a string")
            table.append(tuple(float(v) for v in row))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MaidError(f"{d}: rule rows must be rows of numbers ({exc})") from None
    return DecisionRule(d, parents, pdoms, domain, tuple(table))


def uniform_profile(maid: Maid) -> dict[str, DecisionRule]:
    _check_maid(maid)
    return {d: uniform_rule(maid, d) for d in maid.decisions}


def _check_profile(maid: Maid, profile: Mapping[str, DecisionRule],
                   exclude: frozenset[str] = frozenset()) -> dict[str, list[float]]:
    """Check the rule of every decision not in ``exclude``; return their flat tables."""
    if not isinstance(profile, Mapping):
        raise MaidError(f"profile must be a mapping, got a {type(profile).__name__}")
    tables = {}
    for d in maid.decisions:
        if d in exclude:
            continue
        rule = profile.get(d)
        if rule is None:
            raise MaidError(f"profile has no rule for decision {d!r}")
        if not isinstance(rule, DecisionRule):
            raise MaidError(f"rule for {d!r} is a {type(rule).__name__}, not a DecisionRule")
        parents, pdoms, domain = _rule_shape(maid, d)
        if rule.decision != d or rule.parents != parents or rule.domain != domain \
                or rule.parent_domains != pdoms:
            raise MaidError(f"rule for {d!r} was built against a different structure")
        tables[d] = list(itertools.chain.from_iterable(rule.rows))
    return tables


# -- joint state enumeration ----------------------------------------------------


class _JointSpace:
    """Joint assignments of the non-utility nodes, enumerated once.

    Building one is the precondition of every numeric evaluation: the graph
    must pass :func:`validate` (so every probability and payoff is finite)
    and be fully parameterized, and the space must be within its bound.

    The space is weighed by columns only. The first sweep, one-shot calls
    included, multiplies one factor column per chance node over the whole
    space and keeps a table of the states of non-zero chance weight, the
    first node varying slowest: each state's chance weight and, for each
    decision, its rule row and action as one code ``row * k + action``
    (``k`` the decision's domain size). An agent's payoff totals are added
    the first time that agent is asked for. Every later expectation and
    best response sweeps this table and computes no chance weight, rule
    row or payoff again. The table takes 8 bytes per kept state for the
    chance weight, 8 more per decision and 8 more per agent asked for,
    plus one byte per state of the whole space, and 8 more per state of
    the whole space for the weight column while it is built.

    Probabilities and rule entries are finite and non-negative, so a
    product of them that reaches 0.0 stays 0.0: multiplying whole columns
    gives every weight exactly as a state-by-state product stopping at its
    first zero factor would.
    """

    def __init__(self, maid: Maid):
        diagnostics = validate(maid)
        if diagnostics:
            raise ValidationError(diagnostics)
        if not is_fully_parameterized(maid):
            raise MaidError("numeric evaluation requires a fully parameterized graph")
        self.order = tuple(n for n in maid.topological_order
                           if not maid.nodes[n].is_utility)
        self.pos = {n: i for i, n in enumerate(self.order)}
        self.domains = tuple(maid.nodes[n].domain for n in self.order)
        self.n_states = math.prod(len(d) for d in self.domains) if self.order else 1
        if self.n_states > MAX_JOINT_STATES:
            raise ScaleGuardError(f"joint state space has {self.n_states} states "
                                  f"(limit {MAX_JOINT_STATES})")

        def inputs(node):
            return (tuple(self.pos[p] for p in node.parents),
                    tuple(len(maid.nodes[p].domain) for p in node.parents))

        self.chance_factors = [(self.pos[c], len(maid.nodes[c].domain), maid.nodes[c].cpt,
                                *inputs(maid.nodes[c])) for c in maid.chance_nodes]
        self.decision_inputs = {d: (self.pos[d], *inputs(maid.nodes[d]))
                                for d in maid.decisions}
        # Each agent's payoff tables, in the order of maid.utilities.
        self.utility_readers: dict[str, list] = {agent: [] for agent in maid.agents}
        for u in maid.utilities:
            node = maid.nodes[u]
            self.utility_readers[node.owner].append((node.table, *inputs(node)))
        # Finite payoffs can still sum to infinity in one state, and then to
        # nan in an expectation.
        for agent, readers in self.utility_readers.items():
            if not math.isfinite(sum(max(map(abs, table)) for table, _, _ in readers)):
                raise MaidError(f"payoffs of agent {agent!r} can sum to a "
                                f"non-finite total")
        # The table, filled by the first sweep: which states of the whole
        # space are kept, their chance weights, every decision's codes and
        # the payoff totals of the agents asked for so far.
        self._kept: bytes | None = None
        self._chance = array("d")
        self._codes: dict[str, array] = {}
        self._payoffs: dict[str, array] = {}
        self.cells: dict[tuple, dict] = {}  # kept by _response_cells

    def _states(self) -> Iterator[tuple[int, ...]]:
        """The states of the table, first node varying slowest: all of the
        space until the first sweep keeps those of non-zero chance weight."""
        states = itertools.product(*(range(len(d)) for d in self.domains))
        return states if self._kept is None else itertools.compress(states, self._kept)

    def _enumerate(self) -> None:
        weights = itertools.repeat(1.0, self.n_states)
        for pos, k, cpt, ppos, prad in self.chance_factors:
            weights = map(operator.mul, weights,
                          map(cpt.__getitem__, self._column((*ppos, pos), (*prad, k))))
        weights = array("d", weights)
        self._kept = bytes(map(bool, weights))
        self._chance = array("d", itertools.compress(weights, weights))
        self._codes = {d: array("l", self._column((*ppos, pos), (*prad, len(self.domains[pos]))))
                       for d, (pos, ppos, prad) in self.decision_inputs.items()}

    def _column(self, positions: tuple[int, ...], radices: tuple[int, ...]) -> Iterator[int]:
        """The mixed-radix index of the values at ``positions`` in every
        state of :meth:`_states`, the first position varying slowest."""
        column = itertools.repeat(0, self.n_states if self._kept is None else len(self._chance))
        for p, r in zip(positions, radices):
            column = map(operator.add, map(operator.mul, column, itertools.repeat(r)),
                         map(operator.itemgetter(p), self._states()))
        return column

    def _payoff_totals(self, agent: str) -> array:
        totals = self._payoffs.get(agent)
        if totals is None:
            column = itertools.repeat(0.0, len(self._chance))
            for table, ppos, prad in self.utility_readers[agent]:
                column = map(operator.add, column, map(table.__getitem__, self._column(ppos, prad)))
            totals = self._payoffs[agent] = array("d", column)
        return totals

    def sweep(self, tables: Mapping[str, Sequence[float]], decisions: tuple[str, ...],
              agent: str) -> Iterator[tuple[tuple[int, ...], float, float]]:
        """``(key, weight, payoff)`` for every state of non-zero weight,
        first node varying slowest. The weight is the chance weight times
        the table entries of every decision not in ``decisions``, multiplied
        in ``decision_inputs`` order; the key holds the codes of
        ``decisions`` in their order; the payoff is the agent's total.
        """
        if self._kept is None:
            self._enumerate()
        payoffs = self._payoff_totals(agent)
        rule = itertools.repeat(1.0, len(self._chance))
        for d in self.decision_inputs:
            if d not in decisions:
                rule = map(operator.mul, rule, map(tables[d].__getitem__, self._codes[d]))
        weights = list(map(operator.mul, self._chance, rule))
        keys = zip(*(self._codes[d] for d in decisions)) if decisions else itertools.repeat(())
        return itertools.compress(zip(keys, weights, payoffs), weights)


# -- probabilities and utilities -------------------------------------------------


def joint_probability(maid: Maid, profile: Mapping[str, DecisionRule],
                      assignment: Mapping[str, str]) -> float:
    """Probability of one full assignment of every chance and decision node."""
    _check_maid(maid)
    _check_profile(maid, profile)
    space = _JointSpace(maid)
    if not isinstance(assignment, Mapping):
        raise MaidError(f"assignment must be a mapping, got a {type(assignment).__name__}")
    if set(assignment) != set(space.order):
        missing = sorted(set(space.order) - set(assignment))
        extra = sorted(set(assignment) - set(space.order))
        raise MaidError(f"assignment must cover exactly the chance and decision "
                        f"nodes (missing {missing}, unexpected {extra})")
    picked = {}
    for n, dom in zip(space.order, space.domains):
        if assignment[n] not in dom:
            raise MaidError(f"{n}: value {assignment[n]!r} not in domain")
        picked[n] = dom.index(assignment[n])
    config = {n: tuple(assignment[p] for p in maid.nodes[n].parents) for n in space.order}
    chance = math.prod((chance_row(maid, c, config[c])[picked[c]] for c in maid.chance_nodes),
                       start=1.0)
    rules = math.prod((profile[d].row_for(config[d])[picked[d]] for d in maid.decisions),
                      start=1.0)
    # A zero probability is 0.0, also when a table entry is -0.0.
    return chance * rules or 0.0


def expected_utility(maid: Maid, profile: Mapping[str, DecisionRule],
                     agent: str) -> float:
    """Expected total utility of one agent under a full strategy profile."""
    _check_maid(maid)
    tables = _check_profile(maid, profile)
    maid._owned(agent)  # raises UnknownAgentError
    return _response_cells(_JointSpace(maid), tables, (), agent).get((), 0.0)


# -- best response over joint pure deviations -------------------------------------


def _response_cells(space: _JointSpace, tables: Mapping[str, Sequence[float]],
                    decisions: tuple[str, ...], agent: str) -> dict:
    """Aggregate opponent-weighted utility by the tuple of the codes
    ``row * k + action`` of the deviating decisions.

    The resulting table S satisfies: the expected utility of any behavior at
    ``decisions`` (others fixed) is the S-weighted sum of the probabilities
    that behavior assigns to each cell.

    The space keeps the cells under all that the sweep reads, so an equal
    key gives the same cells bit for bit; callers only read them.
    """
    key = (agent, decisions, tuple(itertools.chain.from_iterable(
        tables[d] for d in space.decision_inputs if d not in decisions)))
    cells = space.cells.get(key)
    if cells is None:
        cells = space.cells[key] = {}
        for codes, w, u in space.sweep(tables, decisions, agent):
            cells[codes] = cells.get(codes, 0.0) + w * u
    return cells


def _profile_value_from_cells(cells: dict, decisions: tuple[str, ...],
                              tables: Mapping[str, Sequence[float]]) -> float:
    total = 0.0
    for key, s in cells.items():
        prob = 1.0
        for d, code in zip(decisions, key):
            prob *= tables[d][code]
            if prob == 0.0:
                break
        total += prob * s
    return total


def _pure_profiles(shapes: Mapping[str, _RuleShape],
                   space_name: str) -> Iterator[dict[str, list[float]]]:
    """The flat tables of every joint pure profile of the decisions in
    ``shapes``, the first decision's picks varying slowest. Raises
    :class:`ScaleGuardError` at once when there are more than
    ``MAX_PURE_PROFILES``."""
    sizes = [(len(domain), _n_rows(pdoms)) for _, pdoms, domain in shapes.values()]
    n = math.prod(k ** rows for k, rows in sizes)
    if n > MAX_PURE_PROFILES:
        raise ScaleGuardError(f"{space_name} has {n} members (limit {MAX_PURE_PROFILES})")
    choices = [itertools.product(range(k), repeat=rows) for k, rows in sizes]
    return ({d: _pure_table(k, picks) for d, (k, _), picks in zip(shapes, sizes, joint)}
            for joint in itertools.product(*choices))


def _fold(cells: dict, decisions: tuple[str, ...], codes: Mapping[str, Sequence[int]]) -> dict:
    """``cells``, keyed by codes on the space's parents, keyed instead by
    codes on the searched game's parents: each decision's code read through
    its map in ``codes``, the cells that meet added up. ``cells`` itself
    when no decision in ``decisions`` has a map."""
    maps = [codes.get(d) for d in decisions]
    if all(m is None for m in maps):
        return cells
    folded: dict = {}
    for key, s in cells.items():
        key = tuple(c if m is None else m[c] for c, m in zip(key, maps))
        folded[key] = folded.get(key, 0.0) + s
    return folded


def _best_pure_response(maid: Maid, space: _JointSpace,
                        tables: Mapping[str, Sequence[float]], agent: str,
                        lifted: Mapping[str, Sequence[float]],
                        codes: Mapping[str, Sequence[int]]
                        ) -> tuple[float, float, Callable[[], dict[str, Sequence[float]]]]:
    """The value of one agent's incumbent tables, the value of their best
    joint pure deviation holding everyone else fixed, and a function that
    builds that deviation's tables, which only a best-response round needs.
    Ties keep the incumbent tables; a lone decision keeps its incumbent's
    most likely action in parent configurations that have zero probability.

    ``space`` is the joint space of ``maid`` or of a game that ``maid``
    simplifies; ``lifted`` holds the tables of every decision of that
    game, with ``maid``'s read through ``codes`` (see :func:`_code_maps`)."""
    decisions = maid.decisions_of(agent)
    cells = _fold(_response_cells(space, lifted, decisions, agent), decisions, codes)
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


def best_response_gap(maid: Maid, profile: Mapping[str, DecisionRule],
                      agent: str) -> float:
    """How much one agent can gain by jointly deviating all of their
    decisions to the best pure alternative. Zero (up to float noise) means
    the profile is a best response for that agent."""
    _check_maid(maid)
    tables = _check_profile(maid, profile)
    maid._owned(agent)  # raises UnknownAgentError
    return _gap(maid, _JointSpace(maid), tables, agent)


def _gap(maid: Maid, space: _JointSpace, tables: Mapping[str, Sequence[float]],
         agent: str) -> float:
    """One agent's best-response gap on a space already built. Finite
    payoffs can still give an infinite gap, which is an error."""
    current, best, _ = _best_pure_response(maid, space, tables, agent, tables, {})
    gap = best - current
    if not math.isfinite(gap):
        raise MaidError(f"best-response gap of agent {agent!r} is not finite")
    return gap


# -- equilibrium search ------------------------------------------------------------


def _check_tol(tol: float) -> None:
    """A tolerance is a number >= 0 that converts to a finite float: with NaN
    or infinity every gap passes, a negative one fails even an exact
    equilibrium, and an int too large for a float overflows in the first
    comparison."""
    try:
        valid = isinstance(tol, (int, float)) and 0 <= float(tol) < math.inf
    except OverflowError:
        valid = False
    if not valid:
        raise MaidError(f"tol must be a finite number >= 0, got {tol!r}")


def find_equilibrium_small(maid: Maid, seed: int = 0,
                           tol: float = 1e-9) -> dict[str, DecisionRule] | None:
    """A pure-strategy equilibrium of a small game, or None when no pure
    profile is an equilibrium.

    Best-response iteration from a seeded random pure profile is tried
    first (agents keep their current rule on ties); if it fails to settle
    within ``MAX_ROUNDS`` rounds, every joint pure profile is checked in
    lexicographic order. The size of the pure profile space is guarded by
    ``MAX_PURE_PROFILES``.
    """
    _check_maid(maid)
    _check_tol(tol)
    _check_seed(seed)
    tables = _find_equilibrium(maid, maid, _JointSpace(maid), seed, tol)
    return None if tables is None else _rules(maid, tables)


def _rules(maid: Maid, tables: Mapping[str, Sequence[float]]) -> dict[str, DecisionRule]:
    return {d: _table_rule(d, _rule_shape(maid, d), tables[d]) for d in maid.decisions}


def _code_maps(original: Maid, game: Maid) -> dict[str, list[int]]:
    """For each decision that ``game`` keeps with fewer parents than it has
    in ``original``: the code ``row * k + action`` in ``game`` of every code
    in ``original``, in code order. A table of ``game`` read through the map
    is its rule over the original parents, constant across the dropped ones."""
    maps = {}
    for d in game.decisions:
        parents, pdoms, domain = _rule_shape(original, d)
        kept = game.nodes[d].parents
        if kept != parents:
            rows = [0]  # the row in game of each original row, last parent fastest
            for p, dom in zip(parents, pdoms):
                n = len(dom)
                rows = [r * n + v if p in kept else r for r in rows for v in range(n)]
            k = len(domain)
            maps[d] = [r * k + a for r in rows for a in range(k)]
    return maps


def _find_equilibrium(original: Maid, game: Maid, space: _JointSpace, seed: int,
                      tol: float) -> dict[str, list[float]] | None:
    """:func:`find_equilibrium_small` of ``game`` on checked arguments and
    the joint space of ``original``, which is ``game`` or a game that
    :func:`_check_simplification` found ``game`` simplifies.

    The search keeps ``game``'s tables and sweeps them lifted over the
    original parents, each demoted decision playing uniformly: the joint
    distribution of ``game``. It returns the lifted tables of every decision
    of ``original``, or None."""
    codes = _code_maps(original, game)
    shapes = {d: _rule_shape(game, d) for d in game.decisions}
    candidates = _pure_profiles(shapes, "pure profile space")
    agents = sorted({game.nodes[d].owner for d in game.decisions})
    rng = random.Random(seed)
    demoted = {}
    for d in original.decisions:
        if d not in shapes:
            _, pdoms, domain = _rule_shape(original, d)
            demoted[d] = list(_uniform_row(len(domain))) * _n_rows(pdoms)

    def lift(tables):
        return {d: list(map(table.__getitem__, codes[d])) if d in codes else table
                for d, table in tables.items()}

    profile: dict[str, Sequence[float]] = {}
    for d, (_, pdoms, domain) in shapes.items():
        picks = [rng.randrange(len(domain)) for _ in range(_n_rows(pdoms))]
        profile[d] = _pure_table(len(domain), picks)
    lifted = {**demoted, **lift(profile)}

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
            current, best, deviation = _best_pure_response(game, space, profile, agent,
                                                           lifted, codes)
            if best > current + tol:
                moved = deviation()
                profile.update(moved)
                lifted.update(lift(moved))
                changed = True
        if not changed:
            return lifted

    def stable(candidate, lifted, agent):
        current, best, _ = _best_pure_response(game, space, candidate, agent, lifted, codes)
        return best - current <= tol

    for candidate in candidates:
        lifted = {**demoted, **lift(candidate)}
        if all(stable(candidate, lifted, agent) for agent in agents):
            return lifted
    return None


# -- motivation --------------------------------------------------------------------


def is_motivated_bruteforce(maid: Maid, d: str,
                            others: Mapping[str, DecisionRule],
                            tol: float = 1e-9) -> bool:
    """Does the owner of ``d`` care which action is taken there, holding all
    other decisions to ``others``?

    True iff some positive-probability configuration of d's parents gives
    two actions different conditional expected utilities. The parent
    configuration distribution does not depend on d's own behavior, so
    ``others`` needs no rule for d.
    """
    _check_maid(maid)
    _check_tol(tol)
    node = _require_decision(maid, d)
    if not isinstance(others, Mapping):
        raise MaidError(f"others must be a mapping, got a {type(others).__name__}")
    if d in others:
        raise MaidError(f"others must not contain a rule for {d!r}")
    tables = _check_profile(maid, others, exclude=frozenset((d,)))
    space = _JointSpace(maid)

    # Keyed by d's code row * k + action.
    value: dict[int, float] = {}
    mass: dict[int, float] = {}
    for (code,), w, u in space.sweep(tables, (d,), node.owner):
        mass[code] = mass.get(code, 0.0) + w
        value[code] = value.get(code, 0.0) + w * u

    k = len(node.domain)
    for row in {code // k for code in mass}:
        conditional = []
        for code in range(row * k, row * k + k):
            m = mass.get(code, 0.0)
            if m > 0.0:
                conditional.append(value[code] / m)
        if conditional and max(conditional) - min(conditional) > tol:
            return True
    return False


# -- simplification checking ---------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying a simplified equilibrium in the original game.

    ``status`` is "pass" when no agent can improve beyond tolerance, "fail"
    when some agent can, and "inconclusive" when the simplified game has no
    pure-strategy equilibrium to extend.
    """

    status: str
    gaps: Mapping[str, float]
    equilibrium: Mapping[str, DecisionRule] | None
    detail: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _check_simplification(original: Maid, final: Maid) -> None:
    """Raise unless ``final`` is ``original`` with information edges into
    decisions removed and decisions demoted by
    :func:`convert_decision_to_chance`: a game the search can play on
    ``original``'s joint space."""
    def fault(what: str) -> MaidError:
        return MaidError(f"result.final is not a simplification of the game: {what}")

    if final.agents != original.agents:
        raise fault("its agents differ")
    for n in final.nodes:
        if n not in original.nodes:
            raise fault(f"node {n!r} is not in the game")
    for n, node in original.nodes.items():
        new = final.nodes.get(n)
        if new is None:
            raise fault(f"node {n!r} is missing")
        if new != node and not (node.is_decision and _prunes(node, new)):
            raise fault(f"node {n!r} changed other than by losing information "
                        f"edges or becoming a uniform chance node")


def _prunes(decision: Node, new: object) -> bool:
    """Is ``new`` ``decision`` demoted as :func:`convert_decision_to_chance`
    does, or with some of its parents removed and the rest in order?"""
    if new == _as_chance(decision):
        return True
    if not (isinstance(new, Node) and isinstance(new.parents, tuple)):
        return False
    rest = iter(decision.parents)
    return new == replace(decision, parents=new.parents) and all(p in rest for p in new.parents)


def verify_simplification(maid: Maid, result, seed: int = 0,
                          tol: float = 1e-9) -> VerificationReport:
    """Find a pure equilibrium of the simplified game, extend it to the
    original game (eliminated decisions become uniform, surviving rules are
    lifted over their original parent lists), and measure every agent's
    best-response gap in the original game. ``result`` must be the
    simplification of ``maid``: it needs ``original`` and ``final``,
    ``result.original == maid``, and ``result.final`` must be ``maid`` with
    information edges into decisions removed and decisions demoted to
    uniform chance nodes as :func:`convert_decision_to_chance` does. Such a
    final is the original under the extended profile, so the search plays
    it on the one joint space this call builds, the original's."""
    _check_maid(maid)
    _check_tol(tol)
    _check_seed(seed)
    if not (hasattr(result, "original") and hasattr(result, "final")):
        raise MaidError(f"result must have original and final graphs, got a "
                        f"{type(result).__name__}")
    if result.original != maid:
        raise MaidError("result is the simplification of another game")
    final = result.final
    if not isinstance(final, Maid):
        raise MaidError(f"result.final must be a Maid, got a {type(final).__name__}")
    space = _JointSpace(maid)  # an invalid original fails before the search starts
    _check_simplification(maid, final)
    diagnostics = validate(final)
    if diagnostics:
        raise ValidationError(diagnostics)
    tables = _find_equilibrium(maid, final, space, seed, tol)
    if tables is None:
        return VerificationReport(status="inconclusive", gaps={}, equilibrium=None,
                                  detail="the simplified game has no pure-strategy "
                                         "equilibrium to extend")
    extended = _rules(maid, tables)
    agents = sorted({maid.nodes[d].owner for d in maid.decisions})
    gaps = {agent: _gap(maid, space, tables, agent) for agent in agents}
    failing = ", ".join(f"{a} by {g:.6g}" for a, g in gaps.items() if g > tol)
    if failing:
        return VerificationReport("fail", gaps, extended, "deviation improves " + failing)
    return VerificationReport("pass", gaps, extended, "no agent can improve beyond tolerance")


# -- solution cost metric ---------------------------------------------------------------


@dataclass(frozen=True)
class LeafMetric:
    """Game tree sizes: one tree over all decisions jointly, versus one tree
    per decision over the variables its owner's payoff can involve."""

    monolithic: int
    per_decision: Mapping[str, int]
    decoupled_total: int


def leaf_metric(maid: Maid) -> LeafMetric:
    _check_maid(maid)
    per_decision: dict[str, int] = {}
    for d in maid.decisions:
        scope = {d}
        for u in maid.utilities_of(maid.nodes[d].owner):
            for p in maid.parents(u):
                if not maid.node(p).is_utility:
                    scope.add(p)
        leaves = 1
        for v in sorted(scope):
            dom = maid.nodes[v].domain
            if dom is None:
                raise MaidError(f"{v}: no domain, cannot size a game tree")
            leaves *= len(dom)
        per_decision[d] = leaves
    # Every decision is in its own scope, so each has a domain by now.
    monolithic = math.prod(len(maid.nodes[d].domain) for d in maid.decisions)
    return LeafMetric(monolithic=monolithic, per_decision=per_decision,
                      decoupled_total=sum(per_decision.values()))
