"""Per-layer tracing from outside the library.

:class:`Tracer` wraps the public functions of each ``maidkit`` module and
records one span per call while an op is open: name, start, end, parent
span and op id. Spans stay in memory and are written out at the end; self
time is a span's duration minus that of its direct children. Counts and
ratios are taken from arguments and return values at the same wrappers.

Only the traced run imports this module.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (span name, module that defines the function, attribute name)
TARGETS = (
    ("analysis.find_path", "maidkit.analysis", "find_path"),
    ("analysis.d_separated", "maidkit.analysis", "d_separated"),
    ("patterns.direct_effect", "maidkit.patterns", "direct_effect"),
    ("patterns.manipulation", "maidkit.patterns", "manipulation"),
    ("patterns.signaling", "maidkit.patterns", "signaling"),
    ("patterns.reveal_deny", "maidkit.patterns", "reveal_deny"),
    ("patterns.decision_is_effective", "maidkit.patterns", "decision_is_effective"),
    ("patterns.enumerate_patterns", "maidkit.patterns", "enumerate_patterns"),
    ("simplify.simplify", "maidkit.simplify", "simplify"),
    ("simplify.identification", "maidkit.simplify", "identification_phase"),
    ("simplify.retraction", "maidkit.simplify", "retract_edges"),
    ("core.edit", "maidkit.core", "convert_decision_to_chance"),
    ("core.edit", "maidkit.core", "remove_edge"),
    ("core.validate", "maidkit.core", "validate"),
    ("semantics.verify", "maidkit.semantics", "verify_simplification"),
    ("semantics.find_equilibrium", "maidkit.semantics", "find_equilibrium_small"),
    ("semantics.best_response_gap", "maidkit.semantics", "best_response_gap"),
    ("semantics.expected_utility", "maidkit.semantics", "expected_utility"),
    ("semantics.leaf_metric", "maidkit.semantics", "leaf_metric"),
    ("maidfile.parse", "maidkit.maidfile", "parse_maidfile"),
    ("maidfile.render", "maidkit.maidfile", "render_maidfile"),
    ("cli.main", "maidkit.cli", "main"),
)

FIND_PATH_KINDS = ("decision_free", "directed_effective", "back_door", "front_door",
                   "effective")
DETECTORS = ("direct_effect", "manipulation", "signaling", "reveal_deny")
# Metrics read from the results of a span other than their own name.
DERIVED = {
    "patterns.enumerate_patterns": ("patterns.instances",),
    "simplify.simplify": ("simplify.iterations", "simplify.demotions"),
    "simplify.retraction": ("simplify.edges_pruned", "simplify.prune_ratio"),
    "analysis.d_separated": ("simplify.prune_ratio",),
    "semantics.find_equilibrium": ("semantics.joint_states",),
    "semantics.best_response_gap": ("semantics.joint_states",),
    "semantics.expected_utility": ("semantics.joint_states",),
}


def query_kind(query) -> str:
    """Classify a ``PathQuery`` by the fields the query builders set."""
    if query.edge_mode.value == "directed_only":
        if query.interior_decisions.value == "forbid_all":
            return "decision_free"
        return "directed_effective"
    return {"into_source": "back_door", "out_of_source": "front_door"}.get(
        query.first_edge.value, "effective")


def joint_state_count(maid) -> int:
    return math.prod(len(maid.nodes[n].domain) for n in maid.nodes
                     if not maid.nodes[n].is_utility)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.n_ops = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.originals: dict[int, object] = {}

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every target and rebind it in every module that binds it:
        the ``maidkit`` modules and ``extra_modules``. Targets that no
        longer exist are recorded in ``missing``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "maidkit" or name.startswith("maidkit."))]
        modules.extend(extra_modules)
        for span, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, attr, original)
            self.originals[id(original)] = original
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        leftover = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items()
                    if id(v) in self.originals and v is self.originals[id(v)]]
        if leftover:
            raise RuntimeError("unwrapped bindings after install: " + ", ".join(leftover))

    def _wrap(self, span: str, attr: str, fn):
        on_result = getattr(self, "_after_" + attr, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            name = span
            if attr == "find_path":
                query = args[1] if len(args) > 1 else kwargs["query"]
                name = f"{span}.{query_kind(query)}"
            result = self.timed(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(name, args, kwargs, result)
            return result
        return wrapper

    def timed(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def run_op(self, op: str, fn, *args, **kwargs):
        """Run one user-facing op as the root span of a new op id."""
        self.op = self.n_ops
        self.n_ops += 1
        try:
            return self.timed("op." + op, fn, *args, **kwargs)
        finally:
            self.op = None

    # -- counters taken from results ------------------------------------

    def _after_find_path(self, name, args, kwargs, result):
        self.counts[name + ".found"] += result is not None

    def _after_d_separated(self, name, args, kwargs, result):
        self.counts[name + ".connected"] += not result

    def _after_decision_is_effective(self, name, args, kwargs, result):
        self.counts[name + ".true"] += bool(result)

    def _after_enumerate_patterns(self, name, args, kwargs, result):
        self.counts["patterns.instances"] += len(result.all_instances())

    def _after_simplify(self, name, args, kwargs, result):
        self.counts["simplify.iterations"] += result.iterations
        self.counts["simplify.demotions"] += len(result.eliminated)

    def _after_retract_edges(self, name, args, kwargs, result):
        self.counts["simplify.edges_pruned"] += len(result[1])

    def _after_parse_maidfile(self, name, args, kwargs, result):
        self.counts["maidfile.parse.bytes"] += len(_first(args, kwargs, "text").encode())

    def _count_joint_states(self, name, args, kwargs, result):
        self.counts["semantics.joint_states"] += joint_state_count(
            _first(args, kwargs, "maid"))

    _after_find_equilibrium_small = _count_joint_states
    _after_best_response_gap = _count_joint_states
    _after_expected_utility = _count_joint_states

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - children
        return calls, self_s

    def metrics(self) -> dict[str, float]:
        calls, self_s = self.layer_totals()
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}

        def layer(name: str, with_self: bool = True):
            out[f"{name}.calls"] = calls[name]
            if with_self:
                out[f"{name}.self_ms"] = self_s[name] * 1000.0

        for kind in FIND_PATH_KINDS:
            name = f"analysis.find_path.{kind}"
            layer(name)
            out[f"{name}.found_ratio"] = ratio(c[name + ".found"], calls[name])
        layer("analysis.d_separated")
        out["analysis.d_separated.connected_ratio"] = ratio(
            c["analysis.d_separated.connected"], calls["analysis.d_separated"])
        for det in DETECTORS:
            layer(f"patterns.{det}")
        layer("patterns.decision_is_effective", with_self=False)
        out["patterns.decision_is_effective.true_ratio"] = ratio(
            c["patterns.decision_is_effective.true"], calls["patterns.decision_is_effective"])
        out["patterns.instances"] = c["patterns.instances"]
        layer("simplify.identification")
        layer("simplify.retraction")
        out["simplify.iterations"] = c["simplify.iterations"]
        out["simplify.demotions"] = c["simplify.demotions"]
        out["simplify.edges_pruned"] = c["simplify.edges_pruned"]
        out["simplify.prune_ratio"] = ratio(c["simplify.edges_pruned"],
                                            calls["analysis.d_separated"])
        layer("core.edit")
        layer("core.validate")
        for name in ("find_equilibrium", "best_response_gap", "expected_utility",
                     "leaf_metric"):
            layer(f"semantics.{name}")
        out["semantics.joint_states"] = c["semantics.joint_states"]
        layer("maidfile.parse")
        out["maidfile.parse.kb_per_s"] = ratio(c["maidfile.parse.bytes"] / 1024.0,
                                               self_s["maidfile.parse"])
        out["maidfile.render.self_ms"] = self_s["maidfile.render"] * 1000.0
        layer("cli.main")
        return out

    def missing_metrics(self) -> list[str]:
        """Layer metrics that depend on a function that could not be wrapped."""
        gone = {span for span, module, attr in TARGETS
                if f"{module}.{attr}" in self.missing}
        prefixes = set(gone)
        for span, derived in DERIVED.items():
            if span in gone:
                prefixes.update(derived)
        return sorted(name for name in self.metrics()
                      if any(name == p or name.startswith(p + ".") for p in prefixes))

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
