"""The public surface: exports, imports and the version."""
import ast
import importlib
import importlib.util
import json
import pathlib
import os
import re
import subprocess
import sys

import maidkit

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
