"""The public surface: exports, imports and the version."""
import ast
import importlib
import importlib.util
import inspect
import json
import pathlib
import os
import random
import re
import subprocess
import sys

import maidkit
from maidkit import (DecisionRule, EdgeMode, Maid, MaidError, Node, PathQuery, all_effective,
                     card_game, direct_effect, find_path, render_maidfile, simplify,
                     uniform_profile)

import helpers

ROOT = pathlib.Path(__file__).parents[1]
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"


def test_every_export_resolves():
    for name in maidkit.__all__:
        assert getattr(maidkit, name, None) is not None, name


def test_exports_are_exactly_the_public_imports():
    tree = ast.parse(pathlib.Path(maidkit.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert len(maidkit.__all__) == len(set(maidkit.__all__))
    assert set(maidkit.__all__) == public


def test_version_matches_pyproject():
    version = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert version is not None
    assert maidkit.__version__ == version.group(1)


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # A renamed or removed function would turn its trace row into a
    # "missing" entry that reads 0; every target must name a callable.
    # The tracer is loaded without writing a bytecode cache next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for span, module_name, attr in tracer.TARGETS:
        assert module_name.startswith("maidkit."), span
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr}"


def test_benchmark_tracer_reads_the_results_it_counts():
    # The tracer counts pruned edges from what retract_edges returns. It is
    # installed in a subprocess, since it rebinds the library's functions.
    script = """if True:
        import importlib.util, json
        import maidkit, maidkit.cli  # every module the benchmark imports
        spec = importlib.util.spec_from_file_location("perfbench_tracer", "perfbench/tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        t = tracer.Tracer()
        t.install()
        result = t.run_op("simplify", maidkit.simplify, maidkit.card_game(2))
        print(json.dumps({"missing": t.missing,
                          "counted": t.counts["simplify.edges_pruned"],
                          "pruned": sum(len(rec.pruned_edges) for rec in result.trace)}))
    """
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-B", "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["missing"] == []
    assert seen["pruned"] > 0
    assert seen["counted"] == seen["pruned"]


def test_readme_library_example_runs():
    (example,) = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                            re.MULTILINE | re.DOTALL)
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-c", example], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def good_calls():
    """Every function of ``maidkit.__all__``, with good positional arguments
    around a good ``card_game(2)``; optional arguments are given too, so
    that each can be given junk."""
    g = card_game(2)
    flags = all_effective(g)
    profile = uniform_profile(g)
    others = {d: rule for d, rule in profile.items() if d != "B"}
    query = PathQuery("B", "U_B", EdgeMode.DIRECTED_ONLY)
    assignment = {n: node.domain[0] for n, node in g.nodes.items() if not node.is_utility}
    return {
        "all_effective": (g,),
        "ancestors": (g, "B"),
        "best_response_gap": (g, profile, "b"),
        "card_game": (2,),
        "chance_row": (g, "J", ()),
        "check_instance": (g, direct_effect(g, "B")[0], flags),
        "check_path": (g, find_path(g, query), query, flags),
        "collider_blocked": (g, "B", ("U_B",)),
        "constant_rule": (g, "B", "H"),
        "convert_decision_to_chance": (g, "A"),
        "d_separated": (g, "J", "U_A", ("B",)),
        "decision_is_effective": (g, "A", flags),
        "descendants": (g, "J"),
        "direct_effect": (g, "B", flags),
        "enumerate_patterns": (g, True),
        "expected_utility": (g, profile, "a"),
        # The pure profiles of card_game(2) itself are too many to search.
        "find_equilibrium_small": (simplify(g).final, 0, 1e-9),
        "find_path": (g, query, flags),
        "fixture": ("card-game", 2),
        "identification_phase": (g, random.Random(0)),
        "is_fully_parameterized": (g,),
        "is_motivated_bruteforce": (g, "B", others, 1e-9),
        "joint_probability": (g, profile, assignment),
        "leaf_metric": (g,),
        "manipulation": (g, "A", flags),
        "parent_configs": (g, "U_B"),
        "parse_maidfile": (render_maidfile(g),),
        "principal_agent": (),
        "remove_edge": (g, "J", "A"),
        "render_maidfile": (g,),
        "retract_edges": (g, random.Random(0)),
        "reveal_deny": (g, "A", flags),
        "rule_from_function": (g, "B", lambda config: config[0]),
        "rule_from_rows": (g, "C_1", [(1.0, 0.0, 0.0)] * 3),
        "signaling": (g, "A", flags),
        "simplify": (g, 0),
        "strip_parameters": (g,),
        "uniform_profile": (g,),
        "uniform_rule": (g, "B"),
        "utility_value": (g, "U_B", ("H", "H")),
        "validate": (g,),
        "verify_simplification": (g, simplify(g), 0, 1e-9),
    }


def good_constructions():
    """The public constructors that read their arguments, each with good
    positional arguments, optional ones included."""
    b = ("f", "t")
    return {
        "Node.chance": (Node.chance, ("x", b, ("y",), [[0.5, 0.5], [0.5, 0.5]])),
        "Node.decision": (Node.decision, ("d", "a", b, ("x",))),
        "Node.utility": (Node.utility, ("u", "a", ("d",), [1.0, 2.0])),
        "Maid.build": (Maid.build, (["a"], [Node.chance("x", b)])),
        "DecisionRule": (DecisionRule, ("d", ("x",), (b,), b, ((1.0, 0.0), (0.0, 1.0)))),
    }


def test_every_public_function_returns_or_raises_maid_errors():
    # Junk in one argument at a time, the graph argument included (what a
    # Maid's own constructor accepts is fuzzed by test_raw_nodes.py), and
    # in each argument of the constructors that read theirs. Junk in the
    # graph argument must raise: only the junk graph is a Maid.
    calls = {name: (getattr(maidkit, name), args) for name, args in good_calls().items()}
    assert set(calls) == {name for name in maidkit.__all__
                          if inspect.isfunction(getattr(maidkit, name))}
    escaped = []
    for name, (function, args) in {**calls, **good_constructions()}.items():
        function(*args)
        for i, arg in enumerate(args):
            typed = isinstance(arg, maidkit.Maid)
            for junk_name, junk in helpers.JUNK:
                try:
                    result = function(*args[:i], junk, *args[i + 1:])
                    if inspect.isgenerator(result):
                        list(result)
                except MaidError:
                    continue
                except Exception as exc:  # noqa: BLE001 - the finding this test reports
                    escaped.append(f"{name} argument {i} = {junk_name}: {exc!r}")
                    continue
                if typed and not isinstance(junk, type(arg)):
                    escaped.append(f"{name} argument {i} = {junk_name}: returned")
    assert escaped == []


def test_module_public_graph_functions_check_the_graph():
    # Functions outside maidkit.__all__ are public too: every function of
    # the library modules with no leading underscore whose first parameter
    # is the graph refuses a graph that is not a Maid, whatever follows.
    scanned, escaped = set(), []
    for module_name in ("core", "analysis", "patterns", "simplify", "semantics", "maidfile"):
        module = importlib.import_module(f"maidkit.{module_name}")
        for name, function in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or function.__module__ != module.__name__:
                continue
            params = list(inspect.signature(function).parameters.values())
            if not params or params[0].name != "maid":
                continue
            scanned.add(f"{module_name}.{name}")
            rest = [None for p in params[1:] if p.default is p.empty]
            for junk in (None, "x"):
                try:
                    result = function(junk, *rest)
                    if inspect.isgenerator(result):
                        list(result)
                except MaidError:
                    continue
                except Exception as exc:  # noqa: BLE001 - the finding this test reports
                    escaped.append(f"{module_name}.{name}({junk!r}): {exc!r}")
                    continue
                escaped.append(f"{module_name}.{name}({junk!r}): returned")
    assert {"core.parent_domains", "analysis.decision_free_paths"} <= scanned
    assert escaped == []

