"""Detection of the four reasoning patterns a decision can participate in.

Each detector answers the question "does this decision have a reason to
prefer one action over another?" for one pattern family:

* direct effect: the decision reaches one of its owner's utilities without
  passing through any other decision;
* manipulation: the decision influences a downstream decision's payoff,
  and that downstream decision influences a utility of the first owner;
* signaling: the decision can carry information an upstream variable holds
  about another agent's payoff to that agent's decision;
* revealing-denying: the decision can open or close an information channel
  (a path with converging arrows) to another agent's payoff.

Detectors return concrete instances with named witness paths, so every
reported pattern can be audited. A decision is effective when at least one
detector fires; the iterative simplification in :mod:`maidkit.simplify`
is built on that test.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .analysis import (
    FORWARD,
    Path,
    _check_path,
    _directed_paths,
    _find_path,
    _step_rule,
    back_door_query,
    decision_free_query,
    directed_effective_query,
    effective_query,
    front_door_query,
)
from .core import (Maid, MaidError, _check_effectiveness, _check_maid, _reach,
                   _require_decision, descendants)


class PatternKind(enum.Enum):
    DIRECT_EFFECT = "direct_effect"
    MANIPULATION = "manipulation"
    SIGNALING = "signaling"
    REVEAL_DENY = "reveal_deny"


@dataclass(frozen=True)
class PatternInstance:
    """One concrete occurrence of a pattern at ``decision``.

    Bindings that a pattern does not use stay None: direct effect binds
    only ``u``; manipulation and revealing-denying bind ``n``, ``u`` and
    ``u_prime``; signaling additionally binds the information source ``a``.
    ``witness_paths`` carries (name, path) pairs proving each condition.
    """

    kind: PatternKind
    decision: str
    u: str
    n: str | None = None
    u_prime: str | None = None
    a: str | None = None
    witness_paths: tuple[tuple[str, Path], ...] = ()

    def key(self) -> tuple[str, str, str, str, str, str]:
        """Identity of the instance, ignoring the particular witnesses."""
        return (self.kind.value, self.decision, self.u,
                self.n or "", self.u_prime or "", self.a or "")

    def bindings(self) -> dict[str, str]:
        out = {"u": self.u}
        if self.n is not None:
            out["n"] = self.n
        if self.u_prime is not None:
            out["u_prime"] = self.u_prime
        if self.a is not None:
            out["a"] = self.a
        return out


@dataclass(frozen=True)
class PatternReport:
    """Instances per decision of the analyzed graph, plus the effectiveness
    flags the detectors ran under."""

    instances: Mapping[str, tuple[PatternInstance, ...]]
    effectiveness: Mapping[str, bool]

    def all_instances(self) -> tuple[PatternInstance, ...]:
        out: list[PatternInstance] = []
        for d in sorted(self.instances):
            out.extend(self.instances[d])
        return tuple(out)


def _signal_sources(maid: Maid, d: str) -> dict[str, frozenset[str]]:
    """Each ancestor a of ``d`` other than ``d``, ascending, with the parents
    of ``d`` that are not descendants of a, from one ancestor set per parent
    (p is a descendant of a iff a is an ancestor of p)."""
    above = {p: _reach(maid._parents_map, (p,)) for p in maid.parents(d)}
    return {a: frozenset(p for p, an in above.items() if a not in an)
            for a in sorted((set().union(*above.values()) - {d}).intersection(maid.nodes))}


def _pattern(maid: Maid, d: str, kind: PatternKind
             ) -> Callable[[str, str, str], Iterable[tuple[str | None, tuple]]]:
    """The definition of a downstream-decision pattern at ``d``: for one
    (n, u, u'), it yields each binding of ``a`` (None where the pattern binds
    none) with the witnesses the pattern asks for beyond d_to_n and n_to_u,
    as (name, query builder, arguments) in search order. The detectors
    search these queries and :func:`check_instance` rebuilds them."""
    if kind is PatternKind.MANIPULATION:
        # The lever: a route d .. u' that bypasses n.
        return lambda n, u, u_prime: (
            (None, (("d_to_u_prime", directed_effective_query, (d, u_prime, (n,))),)),)
    if kind is PatternKind.REVEAL_DENY:
        # A front-door path d .. u' with converging arrows, given all of Pa(n).
        return lambda n, u, u_prime: (
            (None, (("d_to_u_prime_front_door", front_door_query,
                     (d, u_prime, frozenset(maid.parents(n)))),)),)
    # Signaling: a .. u' is a back-door path given W' = Pa(n) - De(d), what
    # n observes anyway, and a .. u is active given W(a) = Pa(d) - De(a).
    desc_d = descendants(maid, d)
    sources = _signal_sources(maid, d)

    def bindings(n: str, u: str, u_prime: str):
        w_prime = frozenset(maid.parents(n)) - desc_d
        for a, w in sources.items():
            yield a, (("a_to_u_prime_back_door", back_door_query, (a, u_prime, w_prime)),
                      ("a_to_u_effective", effective_query, (a, u, w)))
    return bindings


def _detect(maid: Maid, d: str, kinds: tuple[PatternKind, ...],
            effectiveness: Mapping[str, bool] | None) -> Iterator[PatternInstance]:
    """Yields each instance at ``d`` of each of ``kinds``, which come in
    :class:`PatternKind` order, as the pass finds it: a caller that stops
    at the first instance has made a prefix of the full pass's searches.
    When first advanced, it checks its arguments, and acyclicity before
    its first search.

    One decision-free sweep from ``d`` comes first. Its witnesses to own
    utilities are the direct effects, one per own utility u that ``d``
    reaches decision-free. The other kinds bind n downstream of ``d``
    (d_to_n, from the same sweep), u an own utility that n reaches (n_to_u,
    from one directed sweep from n), u' a utility of n's owner, then the
    kind's witnesses; they share one table in which each distinct query is
    built and searched once."""
    _require_decision(maid, d)
    own_utilities = maid.utilities_of(maid.nodes[d].owner)
    later_kinds = [kind for kind in kinds if kind is not PatternKind.DIRECT_EFFECT]
    targets = maid._decision_set - {d} if later_kinds else frozenset()
    if PatternKind.DIRECT_EFFECT in kinds:
        targets |= frozenset(own_utilities)
    from_d = _directed_paths(maid, decision_free_query, d, targets, effectiveness)
    yield from (PatternInstance(kind=PatternKind.DIRECT_EFFECT, decision=d, u=u,
                                witness_paths=(("d_to_u", from_d[u]),))
                for u in own_utilities if u in from_d)
    downstream = sorted((n, p) for n, p in from_d.items() if n in maid._decision_set)
    if not downstream:
        return
    search = functools.cache(lambda build, *args: _find_path(maid, build(*args), effectiveness))
    to_own = functools.cache(lambda n: _directed_paths(
        maid, directed_effective_query, n, frozenset(own_utilities), effectiveness))
    for kind in later_kinds:
        bindings = _pattern(maid, d, kind)
        for n, d_to_n in downstream:
            n_owner = maid.nodes[n].owner
            n_to_own = to_own(n)
            for u in own_utilities:
                n_to_u = n_to_own.get(u)
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
                            yield PatternInstance(kind=kind, decision=d, u=u, n=n,
                                                  u_prime=u_prime, a=a,
                                                  witness_paths=tuple(found))


def _direct_effects(maid: Maid) -> set[str]:
    """The decisions for which :func:`_detect` finds a direct effect, by
    one search per agent backward from its utilities that enters no
    decision: each decision of the agent it reaches. Empty on a cyclic
    graph, where detection raises; a decision whose owner is not a
    declared agent is never among them, as detection raises there too."""
    found: set[str] = set()
    if len(maid._kahn_order) != len(maid.nodes):
        return found
    parents = maid._parents_map
    step_ok = None
    for own, utilities in maid._owned_map.values():
        if not (own and utilities):
            continue
        if step_ok is None:  # the decision-free rule, judged at interior nodes
            step_ok = _step_rule(maid, decision_free_query(own[0], utilities[0]), None)
        seen = set(utilities)
        stack = list(utilities)
        while stack:
            for p in parents[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    if step_ok(p, FORWARD, FORWARD):
                        stack.append(p)
                    elif p in own:
                        found.add(p)
    return found


# -- the four detectors -------------------------------------------------------


def _detector(maid: Maid, d: str, kind: PatternKind,
              effectiveness: Mapping[str, bool] | None) -> list[PatternInstance]:
    """One detector's instances of ``kind``, after checking its arguments."""
    _check_maid(maid)
    _check_effectiveness(effectiveness)
    return list(_detect(maid, d, (kind,), effectiveness))


def direct_effect(maid: Maid, d: str,
                  effectiveness: Mapping[str, bool] | None = None) -> list[PatternInstance]:
    """One instance per own utility that ``d`` reaches decision-free."""
    return _detector(maid, d, PatternKind.DIRECT_EFFECT, effectiveness)


def manipulation(maid: Maid, d: str,
                 effectiveness: Mapping[str, bool] | None = None) -> list[PatternInstance]:
    """Instances (n, u, u') where a downstream decision n carries ``d``'s
    influence to an own utility u, while ``d`` retains a route to n's
    utility u' that bypasses n (the lever it manipulates with)."""
    return _detector(maid, d, PatternKind.MANIPULATION, effectiveness)


def signaling(maid: Maid, d: str,
              effectiveness: Mapping[str, bool] | None = None) -> list[PatternInstance]:
    """Instances (n, u, u', a) where an ancestor a of ``d`` carries
    information about n's utility u' that n cannot see directly, and ``d``
    sits on an active route a .. u through which revealing it pays off.

    The back-door test conditions on the parents of n that are not
    descendants of ``d`` (what n observes anyway); the a .. u route is
    tested given the parents of ``d`` that are not descendants of a.
    """
    return _detector(maid, d, PatternKind.SIGNALING, effectiveness)


def reveal_deny(maid: Maid, d: str,
                effectiveness: Mapping[str, bool] | None = None) -> list[PatternInstance]:
    """Instances (n, u, u') where ``d`` starts a front-door path with
    converging arrows to n's utility u', so acting can open or close an
    information channel n would otherwise rely on.

    The blocking set is all parents of n. Excluding the parents of n that
    descend from ``d`` would silence the detector: the first converging
    node of any front-door path out of ``d`` is itself a descendant of
    ``d``, so no opener could then be in the blocking set.
    """
    return _detector(maid, d, PatternKind.REVEAL_DENY, effectiveness)


# Every kind, cheapest first: the kinds of one full detection pass.
_ALL_KINDS = tuple(PatternKind)


def decision_is_effective(maid: Maid, d: str,
                          effectiveness: Mapping[str, bool] | None = None) -> bool:
    """Does any pattern hold for ``d``? The detection pass over every
    kind, cheapest first, up to its first instance."""
    _check_maid(maid)
    _check_effectiveness(effectiveness)
    return next(_detect(maid, d, _ALL_KINDS, effectiveness), None) is not None


# -- enumeration ---------------------------------------------------------------


def enumerate_patterns(maid: Maid, original: bool = False) -> PatternReport:
    """Every pattern instance per decision of ``maid``.

    By default the graph is first simplified to a fixpoint and detectors
    run on the result, so the report reflects patterns that survive
    elimination and pruning; decisions eliminated along the way, chance
    nodes of the simplified graph, get an empty instance list and a False
    flag. With ``original`` the detectors run on the input graph. Either
    way every remaining decision is effective.
    """
    _check_maid(maid)
    from .simplify import simplify  # which imports this module

    graph = maid if original else simplify(maid).final
    flags = {d: graph.nodes[d].is_decision for d in maid.decisions}
    instances = {d: tuple(_detect(graph, d, _ALL_KINDS, None)) if flags[d] else ()
                 for d in maid.decisions}
    return PatternReport(instances=instances, effectiveness=flags)


# -- instance auditing ----------------------------------------------------------


def check_instance(maid: Maid, instance: PatternInstance,
                   effectiveness: Mapping[str, bool] | None = None) -> bool:
    """Re-verify an instance against the graph it was reported on.

    Rebuilds the query each witness must satisfy from the instance
    bindings, through the same pattern definitions the detectors search,
    and checks the witness with :func:`maidkit.analysis.check_path`,
    without rerunning any search. An instance whose bindings do not fit the
    pattern (a node the graph does not have, a binding the pattern does not
    use, a u or u' that is not a utility of the right owner, n equal to the
    decision, a kind that is not a :class:`PatternKind`) is rejected.
    """
    _check_maid(maid)
    if not isinstance(instance, PatternInstance):
        raise MaidError(f"check_instance needs a PatternInstance, got a {type(instance).__name__}")
    _check_effectiveness(effectiveness)
    if not isinstance(instance.kind, PatternKind):
        return False
    d, u, n, u_prime = instance.decision, instance.u, instance.n, instance.u_prime
    decision = maid.nodes.get(d)
    if decision is None or not decision.is_decision or not _owns(maid, decision.owner, u):
        return False
    if instance.kind is PatternKind.DIRECT_EFFECT:
        if n is not None or u_prime is not None or instance.a is not None:
            return False
        queries = {"d_to_u": decision_free_query(d, u)}
    else:
        downstream = maid.nodes.get(n)
        if n == d or downstream is None or not downstream.is_decision \
                or not _owns(maid, downstream.owner, u_prime):
            return False
        rest = next((witnesses for a, witnesses in _pattern(maid, d, instance.kind)(n, u, u_prime)
                     if a == instance.a), None)
        if rest is None:
            return False
        queries = {"d_to_n": decision_free_query(d, n),
                   "n_to_u": directed_effective_query(n, u),
                   **{name: build(*args) for name, build, args in rest}}
    witnesses = dict(instance.witness_paths)
    if set(witnesses) != set(queries):
        return False
    return all(_check_path(maid, witnesses[name], query, effectiveness)
               for name, query in queries.items())


def _owns(maid: Maid, agent: str | None, u: str | None) -> bool:
    """Is ``u`` a utility node of ``agent``?"""
    node = maid.nodes.get(u)
    return node is not None and node.is_utility and node.owner == agent
