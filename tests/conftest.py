"""Shared test helpers: repo paths, fixture loading, CLI capture."""

import contextlib
import io
from pathlib import Path

import pytest

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
