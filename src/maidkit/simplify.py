"""Iterative graph simplification.

Two reductions alternate until neither changes the graph:

* identification: a decision that takes part in no reasoning pattern is
  demoted to a parentless uniform chance node (its owner has nothing to
  gain there, so any fixed behavior preserves everyone's incentives);
* retraction: an information edge into a decision is removed when its
  source is conditionally independent of every payoff node of the
  decision's owner, given the decision and its other observations.

Demotions can unlock retractions and vice versa, hence the outer loop.
Both reductions only ever shrink the graph, so the loop terminates.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    Maid,
    MaidError,
    ValidationError,
    _check_maid,
    _check_seed,
    _node_set,
    _remove_edges,
    convert_decision_to_chance,
    validate,
)
from .analysis import _reaches_any
from .patterns import _ALL_KINDS, _detect, _direct_effects


@dataclass(frozen=True)
class PhaseOutcome:
    """Result of one identification phase: the (possibly reduced) graph and
    what was demoted to a chance node along the way."""

    maid: Maid
    eliminated: tuple[str, ...]
    removed_edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class IterationRecord:
    index: int
    eliminated: tuple[str, ...]
    conversion_removed_edges: tuple[tuple[str, str], ...]
    pruned_edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SimplificationResult:
    """Full account of a simplification run.

    Each decision in ``eliminated`` is a chance node of ``final``.
    ``removed_edges`` lists edges in removal order: the incoming edges of
    each demoted decision, then the pruned information edges, iteration by
    iteration.
    """

    original: Maid
    final: Maid
    eliminated: tuple[str, ...]
    removed_edges: tuple[tuple[str, str], ...]
    iterations: int
    trace: tuple[IterationRecord, ...] = field(default=())


def _ordered(items: Sequence[str], rng: random.Random | None) -> list[str]:
    out = sorted(items)
    if rng is not None:
        rng.shuffle(out)
    return out


def identification_phase(maid: Maid, rng: random.Random | None = None) -> PhaseOutcome:
    """Repeatedly demote pattern-free decisions until a full pass over the
    remaining decisions demotes nothing.

    A demoted decision is a parentless uniform chance node from then on,
    which no later detection pass needs to be told.

    The decisions with a direct effect are found up front, by one backward
    search per agent from its utilities, and get no detection pass; a
    detection pass finds a direct effect for no other decision. The set
    holds for the whole phase, and for every phase of a :func:`simplify`
    run, whose search runs once: demotion and retraction remove only edges
    into decisions, which no decision-free path uses.
    """
    _check_maid(maid)
    if rng is not None:
        _check_seed(rng, rng=True)
    return _identify(maid, rng, _direct_effects(maid))


def _identify(maid: Maid, rng: random.Random | None, direct: set[str]) -> PhaseOutcome:
    """:func:`identification_phase`, skipping the decisions in ``direct``."""
    eliminated: list[str] = []
    removed: list[tuple[str, str]] = []
    while True:
        before = len(eliminated)
        for d in _ordered(maid.decisions, rng):
            if d in direct or next(_detect(maid, d, _ALL_KINDS), None) is not None:
                continue
            removed.extend((p, d) for p in maid.parents(d))
            maid = convert_decision_to_chance(maid, d)
            eliminated.append(d)
        if len(eliminated) == before:
            break
    return PhaseOutcome(maid=maid, eliminated=tuple(eliminated), removed_edges=tuple(removed))


def retract_edges(maid: Maid,
                  rng: random.Random | None = None) -> tuple[Maid, tuple[tuple[str, str], ...]]:
    """Remove information edges whose source tells the observing decision's
    owner nothing about their payoff.

    All information edges start disabled; an edge (p, d) is re-enabled when
    p is d-connected, through currently enabled edges only, to some payoff
    node of d's owner given d and d's other parents. Re-enabling repeats to
    a fixed point (an edge revived late can be the route that revives an
    earlier one), then whatever stayed disabled is removed, in one rebuild
    of the graph. Returns the graph and the removed edges.

    Each test is one Bayes-ball pass from p to all of the owner's payoff
    nodes at once, over the enabled subgraph; it needs no ancestor set.
    That subgraph is the graph's adjacency with a list of the enabled edges
    for each decision's parents and each of their parents' children.
    """
    _check_maid(maid)
    if rng is not None:
        _check_seed(rng, rng=True)
    decision_order = [n for n in maid.topological_order
                      if maid.nodes[n].is_decision]
    info_edges = [(p, d) for d in decision_order for p in maid.parents(d)]
    if not info_edges:
        return maid, ()
    order = list(info_edges)
    if rng is not None:
        rng.shuffle(order)
    disabled = set(info_edges)
    parents = dict(maid._parents_map)
    children = dict(maid._children_map)
    decisions = maid._decision_set
    for p in {p for d in decision_order for p in parents[d]}:
        children[p] = [c for c in children[p] if c not in decisions]
    for d in decision_order:
        parents[d] = []
    tests: dict[str, tuple[frozenset[str], frozenset[str], frozenset[str]]] = {}

    progress = True
    while progress:
        progress = False
        for p, d in order:
            if (p, d) not in disabled:
                continue
            if d not in tests:
                tests[d] = _retraction_test(maid, d)
            targets, observed, clash = tests[d]
            if clash and clash != {p}:
                # Only a graph validate() rejects has a payoff node as a parent.
                raise MaidError("d-separation endpoints must not be conditioned on")
            if targets and _reaches_any(children, parents, p, targets, observed):
                disabled.discard((p, d))
                children[p].append(d)
                parents[d].append(p)
                progress = True

    removed = tuple(e for e in info_edges if e in disabled)
    return (_remove_edges(maid, removed) if removed else maid), removed


def _retraction_test(maid: Maid, d: str) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The payoff nodes of ``d``'s owner; ``d`` with its parents, which
    must be nodes when there is a payoff node to test against; and the
    payoff nodes among those. One set serves every edge into ``d``: the
    ball from a parent p leaves p alike whether or not p is given."""
    targets = frozenset(maid.utilities_of(maid.nodes[d].owner))
    observed = (d, *maid.parents(d))
    given = _node_set(maid, observed, "observed nodes") if targets else frozenset(observed)
    return targets, given, targets & given


def simplify(maid: Maid, order_seed: int | None = None) -> SimplificationResult:
    """Alternate identification and retraction until neither changes the
    graph. The final graph, the eliminated decisions and the order of every
    removal are all reported.

    ``order_seed`` permutes the per-pass visiting order of decisions and
    edges; the fixed point does not depend on it.
    """
    _check_maid(maid)
    if order_seed is not None:
        _check_seed(order_seed)
    diagnostics = validate(maid)
    if diagnostics:
        raise ValidationError(diagnostics)
    rng = random.Random(order_seed) if order_seed is not None else None
    original = maid
    direct = _direct_effects(maid)
    trace: list[IterationRecord] = []
    bound = len(maid.edges) + 2
    while True:
        if len(trace) == bound:
            raise MaidError("simplification did not reach a fixed point within "
                            "the structural bound")
        phase = _identify(maid, rng, direct)
        maid, pruned = retract_edges(phase.maid, rng=rng)
        trace.append(IterationRecord(index=len(trace) + 1, eliminated=phase.eliminated,
                                     conversion_removed_edges=phase.removed_edges,
                                     pruned_edges=pruned))
        if not (phase.eliminated or pruned):
            break
    return SimplificationResult(
        original=original, final=maid,
        eliminated=tuple(d for rec in trace for d in rec.eliminated),
        removed_edges=tuple(e for rec in trace
                            for e in rec.conversion_removed_edges + rec.pruned_edges),
        iterations=len(trace), trace=tuple(trace))
