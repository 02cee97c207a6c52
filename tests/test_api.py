"""The public surface: exports, imports and the version."""
import ast
import pathlib
import re

import maidkit

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"


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
