"""Seeded benchmark for maidkit.

    python3 perfbench/run.py --workload card-cli --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; maidkit is imported from its ``src/``.
One workload runs in this process with one caller in a closed loop: the
next game starts only after the previous one has finished. The loop makes
whole passes over the workload's games in a seeded order until
``--seconds`` have gone by, and always finishes the first pass.

Every op output is checked outside the timed region. Between every two
games the loop times a fixed piece of reference work that uses nothing of
maidkit, and scales each game's op times to the host speed at which that
work takes REF_S seconds, so that other tenants' load on the host moves
the figures little (see Measurement). Latencies are taken per game as the
median of its plays, and a percentile always ranges over the same games.
Human-readable lines come first, with the times as measured beside the
scaled ones; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced run
first makes untraced passes for half of ``--seconds``, then exactly one
traced pass, and reports the difference as the tracing overhead.

Digests of every output and the trace spans are written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("card-cli", "dense-search", "verify-numeric")
SET_UPS = 7
# Seconds of Reference.seconds() at the nominal host speed that every
# timing metric is scaled to; on a calm 2-vCPU Xeon host it reads
# 0.26 to 0.31 ms.
REF_S = 0.0003
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# The end-to-end metrics every workload reports in its result line; the
# op latencies that apply to one workload only are printed above it.
END_TO_END = ("setup_s", "games_per_s", "game_ms.p50", "game_ms.tail",
              "simplify_ms.p50", "simplify_ms.tail", "peak_rss_mb")


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten samples
    beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def load_workloads():
    """Import maidkit from this checkout and the workload modules afresh,
    so that every set-up pays the import."""
    for name in list(sys.modules):
        if name in ("maidkit", "games", "workloads") or name.startswith("maidkit."):
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    origin = os.path.abspath(sys.modules["maidkit"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise RuntimeError(f"maidkit imported from {origin}, not from {SRC}")
    return workloads


def resident_mb() -> float:
    """This process's resident set size now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Reference:
    """Fixed pure-Python work that uses nothing of maidkit, timed between
    games to follow the host's speed. Other tenants can slow a shared host
    in two ways: they compete for the core, which slows compute, and they
    evict the shared cache, which slows memory access. So the work has
    both parts: a search over a small graph with the op mix of maidkit's
    own (dict and set lookups, tuples, list appends, a sort), and a walk
    along a random cycle through a table of about 30 MB, far larger than
    the core's private caches."""

    chase_n = 200_000
    walk_steps = 600

    def __init__(self):
        before = resident_mb()
        self.graph = {f"v{i:03d}": tuple(f"v{(i * 7 + k * 13 + 1) % 211:03d}"
                                         for k in range(3)) for i in range(211)}
        n = self.chase_n
        order = array("l", range(n))
        random.Random(0).shuffle(order)
        place = array("l", bytes(order.itemsize * n))
        for k, v in enumerate(order):
            place[v] = k
        # Entries and tuples are laid out in key order, and the walk visits
        # the keys in shuffled order.
        self.table = {i: (order[(place[i] + 1) % n],) for i in range(n)}
        del order, place
        # Resident for the whole run, so peak_rss_mb leaves it out.
        self.rss_mb = resident_mb() - before

    def search(self) -> int:
        seen = {"v000"}
        frontier = ["v000"]
        edges = []
        while frontier:
            v = frontier.pop()
            for w in self.graph[v]:
                edges.append((v, w))
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(sorted(edges))

    def walk(self) -> int:
        x = 0
        for _ in range(self.walk_steps):
            x = self.table[x][0]
        return x

    def seconds(self) -> float:
        """Seconds the work takes on the host right now. Each part is the
        fastest of three back-to-back runs, so the first warms the caches
        the work is meant to hit."""
        total = 0.0
        for part in (self.search, self.walk):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                part()
                times.append(time.perf_counter() - start)
            total += min(times)
        return total


def set_up(name: str, seed: int, workdir: str, ref: Reference):
    """Import, generate the inputs, render maidfiles and play one warm-up
    game outside the timed set. Returns the modules, the workload, the
    set-up's wall seconds, its host scale and the ops the warm-up check
    rejected."""
    before = ref.seconds()
    start = time.perf_counter()
    workloads = load_workloads()
    wl = workloads.WORKLOADS[name](seed, workdir)
    warm = wl.play_warm_up(workloads.plain_call)
    elapsed = time.perf_counter() - start
    scale = REF_S / ((before + ref.seconds()) / 2)
    return workloads, wl, elapsed, scale, wl.check_warm_up(warm)


def make_timed_call(outcome_type, runner=None):
    def call(op, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            if runner is None:
                value = fn(*args, **kwargs)
            else:
                value = runner(op, fn, *args, **kwargs)
        except Exception as exc:  # a failed op is counted, the loop goes on
            return outcome_type(time.perf_counter() - start, error=exc)
        return outcome_type(time.perf_counter() - start, value)
    return call


class Measurement:
    """Per-game op times, digest lines and failure counts of one loop.

    The host's speed changes under other tenants' load, in bursts and in
    spells that can outlast a run, and it slows the reference work and
    the games alike. The reference work runs between every two games; a
    game's ``scale`` is REF_S over the mean of the reference times before
    and after it, and its op times multiplied by it are its times at the
    nominal host speed, on which every latency metric is based. Per game,
    the figure is the median over its plays."""

    def __init__(self, wl, ref: Reference):
        self.wl = wl
        self.ref = ref
        # Per game, one ({op: wall seconds}, scale) per pass.
        self.times: dict[int, list[tuple[dict[str, float], float]]] = {
            i: [] for i in range(len(wl))}
        self.lines: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.games_played = 0
        self.wall_s = 0.0

    def run(self, call, seconds: float) -> "Measurement":
        # Every game starts from the same heap: the set-up objects are out
        # of the collector's reach, and each game's garbage is collected
        # untimed after it, so neither peak memory nor a game's time
        # depends on when a full collection happens to run.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        deadline = start + seconds
        first_pass = True
        host = self.ref.seconds()
        while True:
            for i in self.wl.order:
                if not first_pass and time.perf_counter() >= deadline:
                    break
                outcomes = self.wl.play(i, call)
                gc.collect()
                after = self.ref.seconds()
                self.record(i, outcomes, REF_S / ((host + after) / 2))
                host = after
            else:
                first_pass = False
                if time.perf_counter() < deadline:
                    continue
            break
        self.wall_s = time.perf_counter() - start
        return self

    def record(self, i: int, outcomes, scale: float) -> None:
        line, bad = self.wl.check(i, outcomes)
        bad = set(bad)
        if i in self.lines and line != self.lines[i] and not bad:
            bad = set(self.wl.ops)
            self.failures.append(f"game {i}: output differs between passes")
        self.lines.setdefault(i, line)
        self.attempted += len(self.wl.ops)
        self.failed += len(bad)
        if bad:
            self.failures.append(f"game {i}: {', '.join(sorted(bad))}: {line[:200]}")
        self.times[i].append(({op: o.seconds for op, o in outcomes.items()}, scale))
        self.games_played += 1

    def op_ms(self, op: str) -> list[float]:
        """Per game, the median latency of ``op`` over its plays, at the
        nominal host speed."""
        return [1000.0 * statistics.median(t[op] * scale for t, scale in ts if op in t)
                for ts in self.times.values() if any(op in t for t, _ in ts)]

    def game_ms(self, raw: bool = False) -> list[float]:
        """Per game, the median time of its whole pipeline over its plays,
        at the nominal host speed or, with ``raw``, as measured."""
        return [1000.0 * statistics.median(sum(t.values()) * (1.0 if raw else scale)
                                           for t, scale in ts)
                for ts in self.times.values() if ts]

    def pass_s(self, raw: bool = False) -> float:
        """Seconds one play of every game takes, from per-game medians."""
        return sum(self.game_ms(raw)) / 1000.0

    def timed_s(self) -> float:
        return sum(sum(t.values()) for ts in self.times.values() for t, _ in ts)

    def host_ms(self) -> float:
        """Median reference time over the loop, in ms."""
        return 1000.0 * REF_S / statistics.median(s for ts in self.times.values()
                                                  for _, s in ts)


def latency_metrics(prefix: str, values: list[float]) -> tuple[dict, str]:
    p = tail_percentile(len(values))
    p50, tail = percentile(values, 50.0), percentile(values, p)
    text = (f"{prefix}.p50 {p50:.3f} ms  {prefix}.tail {tail:.3f} ms "
            f"(tail = p{p:g}; {len(values)} games, each the median of its plays)")
    return {f"{prefix}.p50": (p50, "ms"), f"{prefix}.tail": (tail, "ms")}, text


def layer_unit(name: str) -> str:
    if name.endswith("self_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("kb_per_s"):
        return "KiB/s"
    if name == "semantics.joint_states":
        return "states-computed"
    if name == "trace.overhead_s":
        return "s"
    return "count"


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "maidkit")):
        print(f"error: no maidkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(wl, m: Measurement, setup_s: float) -> dict[str, tuple[float, str]]:
    """Print every end-to-end metric and the op latencies; return the
    metrics of the result line."""
    metrics = {"setup_s": (setup_s, "s"), "games_per_s": (len(wl) / m.pass_s(), "1/s")}
    print(f"host: reference work {m.host_ms():.4f} ms (median), nominal {1000 * REF_S:g} ms; "
          f"times below are at the nominal speed. As measured: games_per_s "
          f"{len(wl) / m.pass_s(raw=True):.4f} 1/s, game_ms.p50 "
          f"{percentile(m.game_ms(raw=True), 50.0):.3f} ms")
    print(f"games_per_s {metrics['games_per_s'][0]:.4f} 1/s ({m.games_played} games played, "
          f"{m.games_played / len(wl.order):.2f} passes, {m.timed_s():.2f} s timed of "
          f"{m.wall_s:.2f} s wall)")
    for prefix, values in [("game_ms", m.game_ms())] + [(f"{op}_ms", m.op_ms(op))
                                                          for op in wl.ops]:
        found, text = latency_metrics(prefix, values)
        metrics.update(found)
        print(text)
    print(f"failed_ratio {m.failed / m.attempted:.4f} ({m.failed} of {m.attempted} ops failed)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - m.ref.rss_mb
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB (ru_maxrss less the reference work's "
          f"{m.ref.rss_mb:.1f} MB table)")
    return {key: metrics[key] for key in END_TO_END}


def traced_pass(workloads, wl, untraced: Measurement, name: str, seed: int):
    """One traced pass over every game; print and return the per-layer
    metrics with the tracing overhead, and the pass's measurement."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    traced = Measurement(wl, untraced.ref).run(
        make_timed_call(workloads.Outcome, tracer.run_op), 0)
    layer = tracer.metrics()
    layer["trace.overhead_s"] = traced.pass_s() - untraced.pass_s()
    layer["trace.overhead_ratio"] = layer["trace.overhead_s"] / untraced.pass_s()
    print(f"tracing overhead {layer['trace.overhead_s']:.3f} s per pass "
          f"({traced.pass_s():.3f} s traced - {untraced.pass_s():.3f} s untraced)")
    missing = tracer.missing_metrics()
    if missing:
        print("missing layer metrics (reported as 0): " + ", ".join(missing))
    spans_path = os.path.join(OUT, f"trace-{name}-{seed}.jsonl")
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans over {tracer.n_ops} ops written to {spans_path}")
    for key, value in layer.items():
        print(f"{key} {value:.6g} {layer_unit(key)}")
    return {key: (value, layer_unit(key)) for key, value in layer.items()}, traced


def run(args, workdir: str) -> int:
    name, seed = args.workload, args.seed
    ref = Reference()
    setup_times, raw_setup, warm_bad = [], [], []
    for _ in range(SET_UPS):
        workloads, wl, elapsed, scale, bad = set_up(name, seed, workdir, ref)
        setup_times.append(elapsed * scale)
        raw_setup.append(elapsed)
        warm_bad.extend(bad)
    mk = sys.modules["maidkit"]
    played = [wl.graphs[i] for i in wl.order]
    inputs = [mk.render_maidfile(g) for g in played + getattr(wl, "probes", [])]
    print(f"workload {name} seed {seed}: {wl.summary()}; "
          f"one caller, closed loop; inputs sha256 {digest(inputs)[:16]} (in order of play)")
    setup_s = statistics.median(setup_times)
    print(f"setup_s {setup_s:.4f} s (median of {SET_UPS} set-ups: "
          + " ".join(f"{t:.4f}" for t in setup_times)
          + f"; as measured, median {statistics.median(raw_setup):.4f})")

    measure_s = args.seconds / 2 if args.trace else args.seconds
    m = Measurement(wl, ref).run(make_timed_call(workloads.Outcome), measure_s)
    metrics = end_to_end(wl, m, setup_s)
    attempted, failed, failures = m.attempted, m.failed, list(m.failures)
    if args.trace:
        metrics, traced = traced_pass(workloads, wl, m, name, seed)
        attempted += traced.attempted
        failed += traced.failed
        failures += traced.failures

    probes = wl.probe()
    lines = [f"{i}: {m.lines[i]}" for i in sorted(m.lines)]
    lines += [f"probe {label}: {outcome}" for label, outcome, _ in probes]
    if probes:
        defects = Counter((label, outcome) for label, outcome, ok in probes if not ok)
        print(f"known-defect probes (untimed): {sum(defects.values())} of {len(probes)} fail"
              + "".join(f"; {count} x {label}: {outcome}"
                        for (label, outcome), count in sorted(defects.items())))
    digest_path = os.path.join(OUT, f"digest-{name}-{seed}.txt")
    with open(digest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"output digest sha256 {digest(lines)[:16]} ({len(lines)} lines in {digest_path})")

    for failure in failures[:10]:
        print("failed: " + failure)
    if warm_bad:
        print("warm-up game failed its check: " + ", ".join(sorted(set(warm_bad))))
    print(json.dumps({
        "correct": failed == 0 and not warm_bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
