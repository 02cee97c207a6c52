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
from typing import Callable, Mapping

from .analysis import (
    Path,
    back_door_query,
    check_path,
    decision_free_paths,
    decision_free_query,
    directed_effective_query,
    effective_query,
    find_path,
    front_door_query,
)
from .core import Maid, NotADecisionError, _reach, all_effective, descendants


class PatternKind(enum.Enum):
    DIRECT_EFFECT = "direct_effect"
    MANIPULATION = "manipulation"
    SIGNALING = "signaling"
    REVEAL_DENY = "reveal_deny"


class DetectionMode(enum.Enum):
    FIRST_WITNESS = "first_witness"
    ALL = "all"


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


def _require_decision(maid: Maid, d: str) -> None:
    if not maid.node(d).is_decision:
        raise NotADecisionError(f"{d!r} is not a decision node")


def _downstream_decisions(maid: Maid, d: str) -> list[tuple[str, Path]]:
    """Decisions reachable from ``d`` by a directed decision-free path,
    ascending by id, each with its witness."""
    return sorted(decision_free_paths(maid, d, maid.decisions).items())


def _searcher(maid: Maid, effectiveness: Mapping[str, bool] | None
              ) -> Callable[..., Path | None]:
    """``search(build, *args)`` is :func:`find_path` on ``maid`` under
    ``effectiveness`` for the query ``build(*args)``; each distinct query is
    built and searched once, and asked again it returns the same answer."""
    return functools.cache(lambda build, *args: find_path(maid, build(*args), effectiveness))


def _signal_sources(maid: Maid, d: str) -> dict[str, frozenset[str]]:
    """Each ancestor a of ``d`` other than ``d``, ascending, with the parents
    of ``d`` that are not descendants of a, from one ancestor set per parent
    (p is a descendant of a iff a is an ancestor of p)."""
    above = {p: _reach(maid._parents_map, (p,)) for p in maid.parents(d)}
    return {a: frozenset(p for p, an in above.items() if a not in an)
            for a in sorted((set().union(*above.values()) - {d}).intersection(maid.nodes))}


# -- the four detectors -------------------------------------------------------


def direct_effect(maid: Maid, d: str,
                  effectiveness: Mapping[str, bool] | None = None,
                  mode: DetectionMode = DetectionMode.ALL) -> list[PatternInstance]:
    """One instance per own utility that ``d`` reaches decision-free."""
    _require_decision(maid, d)
    out: list[PatternInstance] = []
    for u in maid.utilities_of(maid.nodes[d].owner):
        p = find_path(maid, decision_free_query(d, u), effectiveness)
        if p is None:
            continue
        out.append(PatternInstance(kind=PatternKind.DIRECT_EFFECT, decision=d, u=u,
                                   witness_paths=(("d_to_u", p),)))
        if mode is DetectionMode.FIRST_WITNESS:
            break
    return out


def manipulation(maid: Maid, d: str,
                 effectiveness: Mapping[str, bool] | None = None,
                 mode: DetectionMode = DetectionMode.ALL) -> list[PatternInstance]:
    """Instances (n, u, u') where a downstream decision n carries ``d``'s
    influence to an own utility u, while ``d`` retains a route to n's
    utility u' that bypasses n (the lever it manipulates with)."""
    _require_decision(maid, d)
    own_utilities = maid.utilities_of(maid.nodes[d].owner)
    search = _searcher(maid, effectiveness)
    out: list[PatternInstance] = []
    for n, d_to_n in _downstream_decisions(maid, d):
        n_owner = maid.nodes[n].owner
        for u in own_utilities:
            n_to_u = search(directed_effective_query, n, u)
            if n_to_u is None:
                continue
            for u_prime in maid.utilities_of(n_owner):
                lever = search(directed_effective_query, d, u_prime, (n,))
                if lever is None:
                    continue
                out.append(PatternInstance(
                    kind=PatternKind.MANIPULATION, decision=d, u=u, n=n, u_prime=u_prime,
                    witness_paths=(("d_to_n", d_to_n), ("n_to_u", n_to_u),
                                   ("d_to_u_prime", lever))))
                if mode is DetectionMode.FIRST_WITNESS:
                    return out
    return out


def signaling(maid: Maid, d: str,
              effectiveness: Mapping[str, bool] | None = None,
              mode: DetectionMode = DetectionMode.ALL) -> list[PatternInstance]:
    """Instances (n, u, u', a) where an ancestor a of ``d`` carries
    information about n's utility u' that n cannot see directly, and ``d``
    sits on an active route a .. u through which revealing it pays off.

    The back-door test conditions on the parents of n that are not
    descendants of ``d`` (what n observes anyway); the a .. u route is
    tested given the parents of ``d`` that are not descendants of a.
    """
    _require_decision(maid, d)
    own_utilities = maid.utilities_of(maid.nodes[d].owner)
    downstream = _downstream_decisions(maid, d)
    if not downstream:
        return []
    search = _searcher(maid, effectiveness)
    desc_d = descendants(maid, d)
    sources = _signal_sources(maid, d)
    out: list[PatternInstance] = []
    for n, d_to_n in downstream:
        w_prime = frozenset(maid.parents(n)) - desc_d
        n_owner = maid.nodes[n].owner
        for u in own_utilities:
            n_to_u = search(directed_effective_query, n, u)
            if n_to_u is None:
                continue
            for u_prime in maid.utilities_of(n_owner):
                for a, w in sources.items():
                    back = search(back_door_query, a, u_prime, w_prime)
                    if back is None:
                        continue
                    a_to_u = search(effective_query, a, u, w)
                    if a_to_u is None:
                        continue
                    out.append(PatternInstance(
                        kind=PatternKind.SIGNALING, decision=d, u=u, n=n,
                        u_prime=u_prime, a=a,
                        witness_paths=(("d_to_n", d_to_n), ("n_to_u", n_to_u),
                                       ("a_to_u_prime_back_door", back),
                                       ("a_to_u_effective", a_to_u))))
                    if mode is DetectionMode.FIRST_WITNESS:
                        return out
    return out


def reveal_deny(maid: Maid, d: str,
                effectiveness: Mapping[str, bool] | None = None,
                mode: DetectionMode = DetectionMode.ALL) -> list[PatternInstance]:
    """Instances (n, u, u') where ``d`` starts a front-door path with
    converging arrows to n's utility u', so acting can open or close an
    information channel n would otherwise rely on.

    The blocking set is all parents of n. Excluding the parents of n that
    descend from ``d`` would silence the detector: the first converging
    node of any front-door path out of ``d`` is itself a descendant of
    ``d``, so no opener could then be in the blocking set.
    """
    _require_decision(maid, d)
    own_utilities = maid.utilities_of(maid.nodes[d].owner)
    search = _searcher(maid, effectiveness)
    out: list[PatternInstance] = []
    for n, d_to_n in _downstream_decisions(maid, d):
        w_rev = frozenset(maid.parents(n))
        n_owner = maid.nodes[n].owner
        for u in own_utilities:
            n_to_u = search(directed_effective_query, n, u)
            if n_to_u is None:
                continue
            for u_prime in maid.utilities_of(n_owner):
                front = search(front_door_query, d, u_prime, w_rev)
                if front is None:
                    continue
                out.append(PatternInstance(
                    kind=PatternKind.REVEAL_DENY, decision=d, u=u, n=n, u_prime=u_prime,
                    witness_paths=(("d_to_n", d_to_n), ("n_to_u", n_to_u),
                                   ("d_to_u_prime_front_door", front))))
                if mode is DetectionMode.FIRST_WITNESS:
                    return out
    return out


def decision_is_effective(maid: Maid, d: str,
                          effectiveness: Mapping[str, bool] | None = None) -> bool:
    """Does any pattern hold for ``d``? Detectors run cheapest first and
    short-circuit on the first witness."""
    first = DetectionMode.FIRST_WITNESS
    if direct_effect(maid, d, effectiveness, first):
        return True
    if manipulation(maid, d, effectiveness, first):
        return True
    if signaling(maid, d, effectiveness, first):
        return True
    return bool(reveal_deny(maid, d, effectiveness, first))


# -- enumeration ---------------------------------------------------------------


def enumerate_patterns(maid: Maid, original: bool = False) -> PatternReport:
    """Every pattern instance per decision of ``maid``.

    By default the graph is first simplified to a fixpoint and detectors
    run on the result, so the report reflects patterns that survive
    elimination and pruning; decisions eliminated along the way get an
    empty instance list and a False flag. With ``original`` the detectors
    run on the input graph with every decision considered effective.
    """
    if original:
        graph, flags = maid, all_effective(maid)
    else:
        from .simplify import simplify

        result = simplify(maid)
        graph, flags = result.final, dict(result.effectiveness)
    instances: dict[str, tuple[PatternInstance, ...]] = {}
    for d in maid.decisions:
        if not flags.get(d, False) or not graph.nodes[d].is_decision:
            instances[d] = ()
            continue
        found: list[PatternInstance] = []
        found.extend(direct_effect(graph, d, flags, DetectionMode.ALL))
        found.extend(manipulation(graph, d, flags, DetectionMode.ALL))
        found.extend(signaling(graph, d, flags, DetectionMode.ALL))
        found.extend(reveal_deny(graph, d, flags, DetectionMode.ALL))
        instances[d] = tuple(found)
    return PatternReport(instances=instances, effectiveness=flags)


# -- instance auditing ----------------------------------------------------------


def check_instance(maid: Maid, instance: PatternInstance,
                   effectiveness: Mapping[str, bool] | None = None) -> bool:
    """Re-verify an instance against the graph it was reported on.

    Rebuilds the query each witness must satisfy from the instance
    bindings and checks the witness with :func:`maidkit.analysis.check_path`,
    without rerunning any search.
    """
    d = instance.decision
    if d not in maid.nodes or not maid.nodes[d].is_decision:
        return False
    if maid.nodes[instance.u].owner != maid.nodes[d].owner:
        return False
    witnesses = dict(instance.witness_paths)
    queries = _expected_queries(maid, instance)
    if queries is None or set(witnesses) != set(queries):
        return False
    return all(check_path(maid, witnesses[name], query, effectiveness)
               for name, query in queries.items())


def _expected_queries(maid: Maid, instance: PatternInstance) -> dict[str, object] | None:
    d, n, u, u_prime, a = (instance.decision, instance.n, instance.u,
                           instance.u_prime, instance.a)
    if instance.kind is PatternKind.DIRECT_EFFECT:
        return {"d_to_u": decision_free_query(d, u)}
    if n is None or u_prime is None or not maid.nodes[n].is_decision:
        return None
    if maid.nodes[u_prime].owner != maid.nodes[n].owner:
        return None
    base = {"d_to_n": decision_free_query(d, n),
            "n_to_u": directed_effective_query(n, u)}
    if instance.kind is PatternKind.MANIPULATION:
        base["d_to_u_prime"] = directed_effective_query(d, u_prime, avoid=(n,))
        return base
    if instance.kind is PatternKind.SIGNALING:
        w = _signal_sources(maid, d).get(a)
        if w is None:
            return None
        w_prime = frozenset(maid.parents(n)) - descendants(maid, d)
        base["a_to_u_prime_back_door"] = back_door_query(a, u_prime, w_prime)
        base["a_to_u_effective"] = effective_query(a, u, w)
        return base
    base["d_to_u_prime_front_door"] = front_door_query(d, u_prime, frozenset(maid.parents(n)))
    return base
