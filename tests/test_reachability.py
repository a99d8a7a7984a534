"""What no CLI path reaches stays out of the engine.

The engine modules are every module of ``pcat`` but ``pcat.oracle``.  This
runs a fixed list of CLI commands under ``sys.setprofile``, in one fresh
interpreter so that no cache an earlier test filled hides a call.  It lists
every ``def`` of the engine modules from their source, nested ones too, and
requires the defs that no command calls to be exactly those in
``UNREACHED``, each with its reason.  A new def that no command calls fails
the test, and so does a listed def that is deleted or becomes reached, so
every change to the list shows in the diff.

Run as a script, ``python tests/test_reachability.py TARGET_OUT`` prints the
functions the commands call, one per line.
"""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pcat
from pcat.cli import main

from conftest import FIXTURE_DIR

PACKAGE = Path(pcat.__file__).resolve().parent

CRITERION_9 = "acceptance criterion 9 round-trips actions through it"
PERFBENCH = "perfbench traces it, or reads the shape of its result"
ERROR_PATH = "an error or entry path that no fixture command takes"
TRACES = "witness chains, until certified globalizations (ROADMAP item 3) replace it"
TEST_FAMILIES = "the constructor the tests build open families with"

UNREACHED = {
    "action.to_triple": CRITERION_9,
    "action.from_triple": CRITERION_9,
    "action.to_functor": CRITERION_9,
    "action.from_functor": CRITERION_9,
    "action.functor_violations": CRITERION_9,
    "globalization.Globalization.as_action": CRITERION_9,
    "dsl.serialize": PERFBENCH,
    "globalization.mediating_candidates": PERFBENCH,
    "globalization.enumerate_globalizations": PERFBENCH,
    "topology.Space.opens": PERFBENCH,
    "topology.Space.to_topology": PERFBENCH,
    "cli._drop_stdout": ERROR_PATH,
    "cli.run": ERROR_PATH,
    "globalization.witness_traces": TRACES,
    "topology.FiniteTopology.make": TEST_FAMILIES,
}


def _commands(target_out: str):
    target = str(FIXTURE_DIR / "arrow_small_target.pcat")
    for path in sorted(FIXTURE_DIR.glob("*.pcat")):
        f = str(path)
        yield ["validate", f]
        yield ["validate", "--json", f]
        yield ["globalize", f]
        yield ["globalize", "--json", f]
        yield ["globalize", "--target-out", target_out, f]
        yield ["mediate", f, "--target", target]
        yield ["mediate", "--json", f, "--target", target]
        yield ["topo", f]
        yield ["topo", "--json", f]
        yield ["topo", f, "--target", target]
        # At 4 the scenario sweep meets receivers with fresh points.
        yield ["oracle", f, "--max-size", "4"]
    yield ["oracle", "--max-size", "2"]
    yield ["oracle", "--max-size", "2", "--json"]
    # Inputs that take the error paths: a parse error, lines that fail on
    # their split fields and are read again as the lexer's tokens, and C3.
    shift = (FIXTURE_DIR / "iso_shift.pcat").read_text(encoding="utf-8")
    hostile = {
        "misspelled.pcat": shift.replace("act g 1 = 2", "acts g 1 = 2"),
        "respelled.pcat": re.sub(r" (->|[:.=]) ", r"\1", shift).replace("\n", "  # respelled\r\n"),
        "c3_fails.pcat": shift.replace("  act g 2 = 3\n", ""),
    }
    for name, text in hostile.items():
        path = Path(target_out).parent / name
        path.write_text(text, encoding="utf-8")
        yield ["globalize", str(path)]


def _engine_defs() -> set[str]:
    """Every def of the engine modules as ``module.qualname``, spelled as
    ``co_qualname`` spells it: ``Class.method``, ``f.<locals>.g``."""
    found = set()

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "oracle":
            visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def _reached(target_out: str) -> set[str]:
    """Every ``pcat`` function that some command in :func:`_commands` calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    for argv in _commands(target_out):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                main(argv)
            finally:
                sys.setprofile(previous)
    out = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if path.parent == PACKAGE:
            out.add(f"{path.stem}.{code.co_qualname}")
    return out


def test_every_engine_def_is_reached_by_the_cli_or_listed_with_its_reason(tmp_path):
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, __file__, str(tmp_path / "target.pcat")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    never = _engine_defs() - set(child.stdout.split())
    unlisted = sorted(never - UNREACHED.keys())
    stale = sorted(UNREACHED.keys() - never)
    assert (unlisted, stale) == ([], [])


if __name__ == "__main__":
    print("\n".join(sorted(_reached(sys.argv[1]))))
