"""The three benchmark workloads.

A workload is built from its seed during set-up. ``play(i, call)`` runs the
op pipeline of game ``i``; ``call(op, fn, *args)`` is supplied by the
runner, times the op and returns an :class:`Outcome`. ``check(i, outcomes)``
runs outside the timed region and returns one digest line per game plus
the names of the ops whose output failed its check. ``probe()`` runs the
known-defect inputs once, untimed.

Library calls go through module attributes (``mk.simplify``,
``cli.main``) looked up at call time, so the traced run can wrap them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

import maidkit as mk
import maidkit.cli as cli

import games


@dataclass
class Outcome:
    seconds: float
    value: object = None
    error: BaseException | None = None


def stream(workload: str, seed: int, purpose: str, i: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}:{i}")


def fresh(maid: mk.Maid) -> mk.Maid:
    """An equal graph with empty derived-index caches, so every pass pays
    the same first-use cost a newly loaded game does."""
    return mk.Maid.build(agents=maid.agents, nodes=maid.nodes.values())


def size_summary(graphs) -> str:
    graphs = list(graphs)
    nodes = sum(len(g.nodes) for g in graphs)
    edges = sum(len(g.edges) for g in graphs)
    decisions = sum(len(g.decisions) for g in graphs)
    return f"{len(graphs)} games, {nodes} nodes, {edges} edges, {decisions} decisions"


def error_name(exc: BaseException) -> str:
    return type(exc).__name__


def instance_line(inst) -> str:
    witnesses = ", ".join(f"{name}: {path}" for name, path in inst.witness_paths)
    return f"{'/'.join(inst.key())} [{witnesses}]"


def parse_path(text: str):
    """Inverse of ``str(Path)``: ``"A -> B <- C"``."""
    parts = text.split(" ")
    return mk.Path(tuple(parts[0::2]), tuple(parts[1::2]))


def check_simplification(original: mk.Maid, result) -> bool:
    decisions = set(original.decisions)
    edges = set(original.edge_set)
    return (set(result.eliminated) <= decisions
            and all(e in edges for e in result.removed_edges)
            and not mk.validate(result.final)
            and all(result.final.nodes[d].is_chance for d in result.eliminated)
            and result.iterations >= 1)


def simplification_line(result) -> str:
    removed = " ".join(f"{p}->{d}" for p, d in result.removed_edges)
    return (f"eliminated [{' '.join(result.eliminated)}] removed [{removed}] "
            f"iterations {result.iterations}")


class Workload:
    name = ""
    ops: tuple[str, ...] = ()
    graphs: list[mk.Maid]

    def __len__(self) -> int:
        return len(self.graphs)

    def summary(self) -> str:
        return size_summary(self.graphs)

    def probe(self) -> list[tuple[str, str, bool]]:
        """Known-defect inputs, run once and untimed: (label, outcome, ok)."""
        return []


# -- card-cli ------------------------------------------------------------------


class CardCli(Workload):
    """``card_game(n)`` through ``maid validate``, ``maid simplify --json
    --trace`` and ``maid patterns --json``, in-process, stdout captured.

    The sizes are the 40 midpoints of equal-probability strata of the
    log-uniform distribution on [1, 100]; they are the same for every seed,
    because analysis cost grows with n cubed and a seeded draw of n would
    make the spread between seeds larger than any regression bound. The
    seed sets the order of play.

    A pass plays each of the 31 smallest games three times, at seeded
    places in the order, and each larger game once. The smallest games
    set the p50 and p75 latencies, and the ten largest take most of a
    pass, so that only about three passes fit in a run; this way the
    percentiles rest on about three times as many samples."""

    name = "card-cli"
    ops = ("validate", "simplify", "patterns")
    sizes = games.log_uniform_ladder(40, 1, 100)
    small_n = 33
    small_plays = 3
    warm_up_n = 3

    def __init__(self, seed: int, workdir: str):
        self.graphs = [mk.card_game(n) for n in self.sizes]
        self.files = [self.write(workdir, f"card-{i:02d}.maid", g)
                      for i, g in enumerate(self.graphs)]
        self.order = [i for i, n in enumerate(self.sizes)
                      for _ in range(self.small_plays if n <= self.small_n else 1)]
        stream(self.name, seed, "order").shuffle(self.order)
        self.warm_up = self.write(workdir, "card-warm-up.maid", mk.card_game(self.warm_up_n))

    @staticmethod
    def write(workdir: str, filename: str, graph: mk.Maid) -> str:
        path = os.path.join(workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mk.render_maidfile(graph))
        return path

    @staticmethod
    def run_cli(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def play_file(self, path: str, call) -> dict[str, Outcome]:
        return {
            "validate": call("validate", self.run_cli, ["validate", path]),
            "simplify": call("simplify", self.run_cli, ["simplify", path, "--json", "--trace"]),
            "patterns": call("patterns", self.run_cli, ["patterns", path, "--json"]),
        }

    def play(self, i: int, call) -> dict[str, Outcome]:
        return self.play_file(self.files[i], call)

    def play_warm_up(self, call) -> dict[str, Outcome]:
        return self.play_file(self.warm_up, call)

    def check(self, i: int, outcomes: dict[str, Outcome]) -> tuple[str, list[str]]:
        return self.check_game(self.sizes[i], outcomes)

    def check_warm_up(self, outcomes) -> list[str]:
        return self.check_game(self.warm_up_n, outcomes)[1]

    @staticmethod
    def check_game(n: int, outcomes) -> tuple[str, list[str]]:
        """Closed forms for the card game (acceptance checks 01 and 02):
        only A is eliminated, the 2n+2 edges into A, the side players and
        B are removed, two iterations, monolithic leaves 3^(2+n) and
        decoupled leaves 9(n+1); every pattern instance re-checks."""
        bad: list[str] = []
        line = [f"n={n}"]
        for op in ("validate", "simplify", "patterns"):
            if outcomes[op].error is not None:
                bad.append(op)
                line.append(f"{op}: raises {error_name(outcomes[op].error)}")
        if bad:
            return " ".join(line), bad

        rc, out, _ = outcomes["validate"].value
        if rc != 0 or out != "ok\n":
            bad.append("validate")
        line.append(f"validate rc={rc}")

        graph = mk.card_game(n)
        side = ["C"] if n == 1 else [f"C_{k}" for k in range(1, n + 1)]
        expected_removed = ({("J", "A"), ("A", "B")} | {("J", c) for c in side}
                            | {(c, "B") for c in side})
        rc, out, _ = outcomes["simplify"].value
        final = None
        try:
            payload = json.loads(out)
            removed = [tuple(e) for e in payload["removed_edges"]]
            final = mk.parse_maidfile(payload["final"])
            ok = (rc == 0 and payload["eliminated"] == ["A"]
                  and len(removed) == 2 * n + 2 and set(removed) == expected_removed
                  and payload["iterations"] == 2 and len(payload["trace"]) == 2
                  and mk.leaf_metric(graph).monolithic == 3 ** (2 + n)
                  and mk.leaf_metric(final).decoupled_total == 9 * (n + 1))
            line.append(f"eliminated [{' '.join(payload['eliminated'])}] removed ["
                        + " ".join(f"{p}->{d}" for p, d in removed)
                        + f"] iterations {payload['iterations']}")
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            bad.append("simplify")

        rc, out, _ = outcomes["patterns"].value
        try:
            payload = json.loads(out)
            flags = {d: d != "A" for d in graph.decisions}
            instances = [mk.PatternInstance(
                kind=mk.PatternKind(item["kind"]), decision=item["decision"],
                u=item["bindings"]["u"], n=item["bindings"].get("n"),
                u_prime=item["bindings"].get("u_prime"), a=item["bindings"].get("a"),
                witness_paths=tuple((k, parse_path(v))
                                    for k, v in item["witness_paths"].items()))
                for item in payload]
            ok = rc == 0 and final is not None and all(
                mk.check_instance(final, inst, flags) for inst in instances)
            line.extend(instance_line(inst) for inst in instances)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            bad.append("patterns")
        return " | ".join(line), bad


# -- dense-search --------------------------------------------------------------


class DenseSearch(Workload):
    """Structure-only games through ``simplify`` and then
    ``enumerate_patterns(original=True)``: 270 dense 16-node cores and 30
    decision -> chain -> utility games (one in ten).

    One core in four has an idle decision (one with no directed path to a
    utility of its owner) and the others have none. Unconstrained, about a
    third of the cores have one, and as that share changed from seed to
    seed, so did the p50 of ``simplify``, which sat between the one-
    and the two-iteration cores; with the share fixed, the p50 falls inside
    the faster group.

    Timed chains are drawn log-uniformly from [100, 900], one from each of
    30 equal-probability strata so that the longest chain (which sets the
    peak memory) is near 900 for every seed. That is below the depth
    at which the recursive witness search overflows the interpreter stack;
    the chains of 1000 to 3000 nodes that overflow it today are the
    workload's known-defect probe."""

    name = "dense-search"
    ops = ("simplify", "patterns")
    n_games = 300
    chain_every = 10
    idle_every = 4
    probe_chains = 2

    def __init__(self, seed: int, workdir: str):
        self.graphs = []
        for i in range(self.n_games):
            rng = stream(self.name, seed, "game", i)
            if i % self.chain_every == self.chain_every - 1:
                stratum = i // self.chain_every
                self.graphs.append(games.chain_game(games.log_uniform_int(
                    rng, 100, 900, stratum, self.n_games // self.chain_every)))
            else:
                core = i - i // self.chain_every
                self.graphs.append(games.dense_core_with(
                    rng, idle=core % self.idle_every == self.idle_every - 1))
        self.order = list(range(len(self.graphs)))
        stream(self.name, seed, "order").shuffle(self.order)
        self.probes = [games.chain_game(games.log_uniform_int(
            stream(self.name, seed, "probe", k), 1000, 3000))
            for k in range(self.probe_chains)]
        self.warm_up = games.dense_core(stream(self.name, seed, "warm-up"))

    @staticmethod
    def play_graph(graph: mk.Maid, call) -> dict[str, Outcome]:
        return {
            "simplify": call("simplify", mk.simplify, graph),
            "patterns": call("patterns", mk.enumerate_patterns, graph, original=True),
        }

    def play(self, i: int, call) -> dict[str, Outcome]:
        return self.play_graph(fresh(self.graphs[i]), call)

    def play_warm_up(self, call) -> dict[str, Outcome]:
        return self.play_graph(fresh(self.warm_up), call)

    def check(self, i: int, outcomes) -> tuple[str, list[str]]:
        return self.check_graph(fresh(self.graphs[i]), outcomes)

    def check_warm_up(self, outcomes) -> list[str]:
        return self.check_graph(self.warm_up, outcomes)[1]

    @staticmethod
    def check_graph(graph: mk.Maid, outcomes) -> tuple[str, list[str]]:
        bad: list[str] = []
        line: list[str] = []
        simp, pats = outcomes["simplify"], outcomes["patterns"]
        if simp.error is not None:
            bad.append("simplify")
            line.append(f"simplify: raises {error_name(simp.error)}")
        else:
            if not check_simplification(graph, simp.value):
                bad.append("simplify")
            line.append(simplification_line(simp.value))
        if pats.error is not None:
            bad.append("patterns")
            line.append(f"patterns: raises {error_name(pats.error)}")
        else:
            flags = mk.all_effective(graph)
            instances = pats.value.all_instances()
            if not all(mk.check_instance(graph, inst, flags) for inst in instances):
                bad.append("patterns")
            line.extend(instance_line(inst) for inst in instances)
        return " | ".join(line), bad

    def probe(self) -> list[tuple[str, str, bool]]:
        """Long chains must simplify and enumerate like short ones."""
        out = []
        for graph in self.probes:
            label = f"chain of {len(graph.nodes) - 2} nodes"
            outcomes = self.play_graph(graph, plain_call)
            errors = [error_name(o.error) for o in outcomes.values() if o.error is not None]
            if errors:
                out.append((label, "raises " + ", ".join(sorted(set(errors))), False))
            else:
                bad = self.check_graph(graph, outcomes)[1]
                out.append((label, "checks " + ("fail" if bad else "pass"), not bad))
        return out


# -- verify-numeric ------------------------------------------------------------


class VerifyNumeric(Workload):
    """Fully parameterized games through ``simplify``,
    ``verify_simplification`` and ``leaf_metric``: ``card_game(1..4)`` and
    300 random games of at most 10 nodes, each decision owned by its own
    agent, pure-profile space under 1e5.

    One random game in ten is a matching-pennies game with no pure
    equilibrium (verification is inconclusive after checking every pure
    profile); the others have a pure equilibrium that best-response
    iteration finds. Fixing that share keeps a handful of slow games from
    setting the pass time of one seed, and with 30 such games of one size
    the p95 latency falls inside their group rather than on its edge. One
    other game in twenty also has a twin with one NaN CPT row; the twins
    must raise a ``MaidError`` and are the known-defect probe.

    The other random games take their number of decisions and of chance
    nodes in turn from the six shapes below, 45 games each. A game's cost
    is set mostly by its shape (from about 1.4 ms for two decisions and
    one chance node to 13 ms for three and three), and the p50 sat
    between the three cheaper and the three dearer shapes; drawn freely,
    their shares changed with the seed and moved the p50 with them.

    Leaf counts are checked against the closed forms on the card games and
    against the per-decision counts the generator derived on the others."""

    name = "verify-numeric"
    ops = ("simplify", "verify", "leaf_metric")
    n_random = 300
    cyclic_every = 10
    probe_every = 20
    shapes = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))  # (decisions, chance nodes)

    def __init__(self, seed: int, workdir: str):
        self.card_sizes = [1, 2, 3, 4]
        self.graphs = [mk.card_game(n) for n in self.card_sizes]
        self.leaves: list[dict[str, int] | None] = [None] * len(self.card_sizes)
        for i in range(self.n_random):
            rng = stream(self.name, seed, "game", i)
            if i % self.cyclic_every == self.cyclic_every - 1:
                graph, leaves = games.cyclic_game(rng)
            else:
                shape = self.shapes[(i - i // self.cyclic_every) % len(self.shapes)]
                graph, leaves = games.parameterized_game(rng, *shape)
            self.graphs.append(graph)
            self.leaves.append(leaves)
        self.order = list(range(len(self.graphs)))
        stream(self.name, seed, "order").shuffle(self.order)
        self.probes = [games.with_nan_row(self.graphs[len(self.card_sizes) + i],
                                          stream(self.name, seed, "nan", i))
                       for i in range(0, self.n_random, self.probe_every)]
        self.warm_up = games.parameterized_game(stream(self.name, seed, "warm-up"), 2, 2)

    @staticmethod
    def play_graph(graph: mk.Maid, call) -> dict[str, Outcome]:
        simp = call("simplify", mk.simplify, graph)
        if simp.error is not None:
            return {"simplify": simp}
        return {
            "simplify": simp,
            "verify": call("verify", mk.verify_simplification, graph, simp.value),
            "leaf_metric": call("leaf_metric", leaf_pair, graph, simp.value.final),
        }

    def play(self, i: int, call) -> dict[str, Outcome]:
        return self.play_graph(fresh(self.graphs[i]), call)

    def play_warm_up(self, call) -> dict[str, Outcome]:
        return self.play_graph(fresh(self.warm_up[0]), call)

    def check(self, i: int, outcomes) -> tuple[str, list[str]]:
        n = self.card_sizes[i] if i < len(self.card_sizes) else None
        return self.check_graph(fresh(self.graphs[i]), n, self.leaves[i], outcomes)

    def check_warm_up(self, outcomes) -> list[str]:
        return self.check_graph(self.warm_up[0], None, self.warm_up[1], outcomes)[1]

    @staticmethod
    def check_graph(graph: mk.Maid, card_n: int | None, leaves: dict[str, int] | None,
                    outcomes) -> tuple[str, list[str]]:
        """Verification passes or is inconclusive; leaf counts match the
        closed forms on the card game and the generator's counts (all
        decisions binary) on the random games."""
        bad = [op for op in VerifyNumeric.ops if op not in outcomes
               or outcomes[op].error is not None]
        line = [f"{op}: raises {error_name(outcomes[op].error)}" for op in outcomes
                if outcomes[op].error is not None]
        if bad:
            return " | ".join(line), bad
        result = outcomes["simplify"].value
        if not check_simplification(graph, result):
            bad.append("simplify")
        report = outcomes["verify"].value
        if report.status not in ("pass", "inconclusive"):
            bad.append("verify")
        before, after = outcomes["leaf_metric"].value
        if card_n is not None:
            ok = (before.monolithic == 3 ** (2 + card_n)
                  and after.decoupled_total == 9 * (card_n + 1))
        else:
            kept = {d: k for d, k in leaves.items() if d not in result.eliminated}
            ok = (before.monolithic == 2 ** len(leaves) and before.per_decision == leaves
                  and after.per_decision == kept
                  and after.decoupled_total == sum(kept.values()))
        if not ok:
            bad.append("leaf_metric")
        line.append(simplification_line(result))
        line.append(f"status {report.status} leaves {before.monolithic} -> "
                    f"{after.decoupled_total}")
        return " | ".join(line), bad

    def probe(self) -> list[tuple[str, str, bool]]:
        """A game with a non-finite CPT row must raise a MaidError."""
        out = []
        for graph in self.probes:
            outcomes = self.play_graph(graph, plain_call)
            errors = [o.error for o in outcomes.values() if o.error is not None]
            if errors:
                ok = isinstance(errors[0], mk.MaidError)
                out.append(("NaN CPT row", "raises " + error_name(errors[0]), ok))
            else:
                out.append(("NaN CPT row", "no error", False))
        return out


def leaf_pair(original: mk.Maid, simplified: mk.Maid):
    return mk.leaf_metric(original), mk.leaf_metric(simplified)


def plain_call(op: str, fn, *args, **kwargs) -> Outcome:
    """Untimed call for warm-up and probes."""
    try:
        return Outcome(0.0, fn(*args, **kwargs))
    except Exception as exc:  # every failure is an outcome to check
        return Outcome(0.0, error=exc)


WORKLOADS = {w.name: w for w in (CardCli, DenseSearch, VerifyNumeric)}
