"""Source hygiene: invariants that survive ``python -O``, and a public API that resolves."""

import ast
from pathlib import Path

import pcat

PACKAGE = Path(pcat.__file__).resolve().parent


def test_no_module_of_the_package_uses_an_assert_statement():
    # ``python -O`` strips assert statements, so an invariant must raise.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_name_in_all_resolves():
    assert [name for name in pcat.__all__ if not hasattr(pcat, name)] == []
    assert len(set(pcat.__all__)) == len(pcat.__all__)
