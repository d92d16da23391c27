"""Source-tree rules that no single module test covers."""

import ast
import pathlib

import trafficfuse

PACKAGE = pathlib.Path(trafficfuse.__file__).parent


def test_package_has_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, "package sources not found"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
