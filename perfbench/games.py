"""Seeded game generators for the benchmark.

Every generator takes a ``random.Random`` (or plain numbers) and returns a
``maidkit.Maid``; the same stream gives the same game. The generators of
parameterized games also return the leaf count of each decision's game
tree, derived from the structure they drew, so that ``leaf_metric`` can be
checked against it. Nothing here imports
the test helpers, so editing a test can never shift a workload.
"""
from __future__ import annotations

import math
import random

from maidkit import Maid, Node

BINARY = ("lo", "hi")
TERNARY = ("lo", "mid", "hi")


def log_uniform_ladder(count: int, lo: float, hi: float) -> list[int]:
    """``count`` sizes at the midpoints of equal-probability strata of the
    log-uniform distribution on [lo, hi], rounded to integers."""
    span = math.log(hi / lo)
    return [max(int(lo), min(int(hi), round(lo * math.exp(span * (i + 0.5) / count))))
            for i in range(count)]


def log_uniform_int(rng: random.Random, lo: int, hi: int,
                    stratum: int = 0, strata: int = 1) -> int:
    """A log-uniform draw on [lo, hi], restricted to one of ``strata``
    equal-probability strata."""
    x = (stratum + rng.random()) / strata
    return max(lo, min(hi, round(lo * math.exp(x * math.log(hi / lo)))))


def dense_core(rng: random.Random) -> Maid:
    """A structure-only random game of 16 nodes: 8 chance nodes and 4
    decisions form a DAG in a random order, each forward pair joined with
    probability 1/2; each of 4 utilities takes every non-utility node as a
    parent with probability 1/2 (at least one). Each of the 3 agents owns
    at least one utility."""
    agents = ["a0", "a1", "a2"]
    inner = [f"X{i:02d}" for i in range(8)] + [f"D{i:02d}" for i in range(4)]
    rng.shuffle(inner)
    nodes = []
    for j, v in enumerate(inner):
        parents = [u for u in inner[:j] if rng.random() < 0.5]
        if v.startswith("D"):
            nodes.append(Node.decision(v, owner=rng.choice(agents), domain=BINARY,
                                       parents=parents))
        else:
            nodes.append(Node.chance(v, domain=BINARY, parents=parents))
    owners = agents + [rng.choice(agents)]
    rng.shuffle(owners)
    for i, owner in enumerate(owners):
        parents = [v for v in inner if rng.random() < 0.5] or [rng.choice(inner)]
        nodes.append(Node.utility(f"U{i:02d}", owner=owner, parents=parents))
    return Maid.build(agents=agents, nodes=nodes)


def has_idle_decision(maid: Maid) -> bool:
    """Whether some decision has no directed path to a utility of its
    owner. Such a decision cannot change its owner's payoff, so
    ``simplify`` demotes it and then runs a second iteration, which about
    doubles its time on a dense core."""
    children: dict[str, list[str]] = {v: [] for v in maid.nodes}
    for v, node in maid.nodes.items():
        for p in node.parents:
            children[p].append(v)
    for d in maid.decisions:
        owner = maid.nodes[d].owner
        seen = {d}
        stack = [d]
        while stack:
            for w in children[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if not any(u in seen and maid.nodes[u].owner == owner for u in maid.utilities):
            return True
    return False


def dense_core_with(rng: random.Random, idle: bool) -> Maid:
    """The next dense core from ``rng`` that has an idle decision, or has
    none, as asked."""
    while True:
        maid = dense_core(rng)
        if has_idle_decision(maid) == idle:
            return maid


def chain_game(length: int) -> Maid:
    """Decision D -> X0 -> ... -> X(length-1) -> utility U, one agent."""
    xs = [f"X{i:05d}" for i in range(length)]
    nodes = [Node.decision("D", owner="a", domain=BINARY)]
    prev = "D"
    for x in xs:
        nodes.append(Node.chance(x, domain=BINARY, parents=(prev,)))
        prev = x
    nodes.append(Node.utility("U", owner="a", parents=(prev,)))
    return Maid.build(agents=["a"], nodes=nodes)


def _random_cpt(rng: random.Random, rows: int, k: int) -> list[float]:
    out = []
    for _ in range(rows):
        w = [rng.random() + 0.05 for _ in range(k)]
        s = sum(w)
        out.extend(x / s for x in w)
    return out


def pure_profile_space(maid: Maid) -> int:
    total = 1
    for d in maid.decisions:
        nd = maid.nodes[d]
        configs = math.prod(len(maid.nodes[p].domain) for p in nd.parents)
        total *= len(nd.domain) ** configs
    return total


def parameterized_game(rng: random.Random, n_dec: int,
                       n_chance: int) -> tuple[Maid, dict[str, int]]:
    """A fully parameterized random game of at most 10 nodes that has a
    pure equilibrium, and the leaf count of each decision's game tree.

    ``n_chance`` (one to three) chance nodes with two or three values, with
    only chance parents; ``n_dec`` (two or three) binary decisions D0, D1,
    ... owned by agents a0,
    a1, ..., each observing at most two chance nodes or lower-numbered
    decisions; one utility per agent plus at most one extra. The payoffs of
    agent ai depend on Di, on lower-numbered decisions and on chance nodes
    only, so best-response iteration in agent order settles in two rounds.
    Games whose pure-profile space reaches 1e5 are redrawn from the same
    stream. The leaf count of Di is the product of the domain sizes of Di
    and of every parent drawn for a utility of ai."""
    while True:
        n_util = min(10 - n_dec - n_chance, n_dec + rng.choice((0, 1)))
        chance = [f"C{i}" for i in range(n_chance)]
        domains = {c: TERNARY[:rng.choice((2, 3))] for c in chance}
        nodes = []
        for j, c in enumerate(chance):
            ps = [u for u in chance[:j] if rng.random() < 0.5]
            rows = math.prod(len(domains[p]) for p in ps)
            nodes.append(Node.chance(c, domain=domains[c], parents=ps,
                                     cpt=_random_cpt(rng, rows, len(domains[c]))))
        for i in range(n_dec):
            visible = chance + [f"D{k}" for k in range(i)]
            ps = rng.sample(visible, min(len(visible), rng.choice((0, 1, 2))))
            domains[f"D{i}"] = BINARY
            nodes.append(Node.decision(f"D{i}", owner=f"a{i}", domain=BINARY, parents=ps))
        owners = list(range(n_dec)) + [rng.randrange(n_dec) for _ in range(n_util - n_dec)]
        scopes: dict[str, set[str]] = {f"D{i}": {f"D{i}"} for i in range(n_dec)}
        for k, i in enumerate(owners):
            lower = chance + [f"D{j}" for j in range(i)]
            ps = sorted([f"D{i}"] + [v for v in lower if rng.random() < 0.5][:2])
            scopes[f"D{i}"].update(ps)
            table = [float(rng.randrange(0, 10))
                     for _ in range(math.prod(len(domains[p]) for p in ps))]
            nodes.append(Node.utility(f"U{k}", owner=f"a{i}", parents=ps, table=table))
        maid = Maid.build(agents=[f"a{i}" for i in range(n_dec)], nodes=nodes)
        if pure_profile_space(maid) < 100_000:
            return maid, {d: math.prod(len(domains[v]) for v in scope)
                          for d, scope in scopes.items()}


def cyclic_game(rng: random.Random) -> tuple[Maid, dict[str, int]]:
    """A two-agent game with no pure equilibrium: matching pennies in
    each of the three states of the chance node C, which both decisions
    observe and which shifts every payoff by less than the stakes.
    Equilibrium search has to check every pure profile and verification
    is inconclusive. Every such game has the same size, so all cost about
    the same. Both payoffs read C, D0 and D1, so each decision's tree has
    4k = 12 leaves for the k values of C."""
    k = len(TERNARY)
    nodes = [Node.chance("C", domain=TERNARY, cpt=_random_cpt(rng, 1, k)),
             Node.decision("D0", owner="a0", domain=BINARY, parents=("C",)),
             Node.decision("D1", owner="a1", domain=BINARY, parents=("C",))]
    for agent, wins_on_match in (("a0", True), ("a1", False)):
        table = []
        for _ in range(k):
            for d0 in range(2):
                for d1 in range(2):
                    won = (d0 == d1) == wins_on_match
                    table.append(10.0 * won + rng.randrange(0, 5))
        nodes.append(Node.utility(f"U_{agent}", owner=agent, parents=("C", "D0", "D1"),
                                  table=table))
    return Maid.build(agents=["a0", "a1"], nodes=nodes), {"D0": 4 * k, "D1": 4 * k}


def with_nan_row(maid: Maid, rng: random.Random) -> Maid:
    """The same game with one CPT row of one chance node replaced by NaN."""
    chance = [c for c in maid.chance_nodes if maid.nodes[c].cpt is not None]
    c = rng.choice(chance)
    nd = maid.nodes[c]
    k = len(nd.domain)
    rows = len(nd.cpt) // k
    r = rng.randrange(rows)
    cpt = list(nd.cpt)
    cpt[r * k:(r + 1) * k] = [math.nan] * k
    return maid.with_node(Node(id=nd.id, kind=nd.kind, owner=nd.owner, domain=nd.domain,
                               parents=nd.parents, cpt=tuple(cpt), table=nd.table))
