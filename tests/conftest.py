"""Shared test helpers: repo paths, fixture loading, CLI capture, shared
scenarios and traced memory peaks."""

import contextlib
import io
import tracemalloc
from pathlib import Path

import pytest

from pcat import PartialAction
from pcat.oracle import chain_category

REPO = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


def fixture_text(stem: str) -> str:
    return (FIXTURE_DIR / f"{stem}.pcat").read_text(encoding="utf-8")


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    from pcat.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class ChunkRecorder(io.StringIO):
    """A text stream that keeps every chunk given to ``write`` or ``writelines``."""

    def __init__(self):
        super().__init__()
        self.chunks: list[str] = []

    def write(self, s: str) -> int:
        self.chunks.append(s)
        return super().write(s)

    def writelines(self, lines) -> None:
        for s in lines:
            self.write(s)


def run_cli_chunks(argv: list[str]) -> tuple[int, list[str], str]:
    """Run the CLI in-process; returns (exit code, stdout chunks as written, stderr)."""
    from pcat.cli import main

    out, err = ChunkRecorder(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.chunks, err.getvalue()


def chain_scenario():
    """Four points over the chain a -> b -> c; half its 8 classes are fresh."""
    table = {("a", x): x for x in "1234"}
    table.update({("b", x): x for x in "234"})
    table.update({("c", x): x for x in "1234"})
    steps = {("p", "2"): "2", ("p", "3"): "3", ("q", "3"): "4"}
    steps.update({("qp", "1"): "1", ("qp", "3"): "4", ("qp", "4"): "4"})
    table.update(steps)
    return chain_category(), PartialAction(("1", "2", "3", "4"), table)


def traced_peak(fn):
    """Run ``fn()`` under tracemalloc; returns (its result, the traced peak in
    bytes above what was traced when it started)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base
