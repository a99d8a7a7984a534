"""Source hygiene: invariants that survive ``python -O``, a layering that
keeps the oracle out of the engine, a public API that resolves, and one
dataclass per field shape."""

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


def _imports_the_oracle(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "pcat.oracle" or a.name.startswith("pcat.oracle.") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        base = "pcat" if node.level else ""
        module = ".".join(p for p in (base, node.module) if p)
        return module == "pcat.oracle" or (module == "pcat" and any(a.name == "oracle" for a in node.names))
    return False


def test_only_the_package_root_and_the_cli_import_the_oracle():
    # The oracle's generators and suites stay out of the engine modules.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _imports_the_oracle(node)]
    assert {f.split(":")[0] for f in found} == {"__init__.py", "cli.py"}, found


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
