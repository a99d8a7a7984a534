"""Source hygiene: invariants that survive ``python -O``, a public API that
resolves, and one dataclass per field shape."""

import ast
import dataclasses
import importlib
import pkgutil
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


def test_no_two_dataclasses_share_their_field_names():
    # One representation per concept: a report shape is declared once.
    shapes = {}
    for info in pkgutil.iter_modules(pcat.__path__):
        module = importlib.import_module(f"pcat.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__:
                names = tuple(f.name for f in dataclasses.fields(value))
                shapes.setdefault(names, []).append(value.__name__)
    assert [names for names in shapes.values() if len(names) > 1] == []
