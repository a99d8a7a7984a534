"""The four bundled scenarios used across tests, goldens, and the oracle suite.

Two live over the arrow category (two objects, one non-identity arrow) and
two over its groupoid completion (the arrow gains an inverse).  They are
built programmatically here; the scenario files under ``fixtures/`` at the
repository root carry the same data in DSL form.
"""

from __future__ import annotations

import functools

from .category import Category
from .action import PartialAction


@functools.cache
def arrow_category() -> Category:
    """Objects e, f and a single non-identity arrow g: e -> f (built once, shared)."""
    return Category.make(["e", "f"], {"g": ("e", "f")}, {})


@functools.cache
def iso_groupoid() -> Category:
    """Objects e, f with arrows g: e -> f and its inverse g_inv (built once, shared)."""
    return Category.make(
        ["e", "f"],
        {"g": ("e", "f"), "g_inv": ("f", "e")},
        {("g", "g_inv"): "f", ("g_inv", "g"): "e"},
    )


def arrow_small() -> tuple[Category, PartialAction]:
    """Three points; the arrow is defined on one of them and fixes it."""
    act = PartialAction.make(
        "123",
        {
            ("e", "1"): "1",
            ("e", "2"): "2",
            ("f", "2"): "2",
            ("f", "3"): "3",
            ("g", "2"): "2",
        },
    )
    return arrow_category(), act


def arrow_collapse() -> tuple[Category, PartialAction]:
    """Four points; the arrow collapses two of them to one."""
    act = PartialAction.make(
        "1234",
        {
            ("e", "1"): "1",
            ("e", "2"): "2",
            ("e", "3"): "3",
            ("f", "2"): "2",
            ("f", "3"): "3",
            ("f", "4"): "4",
            ("g", "2"): "2",
            ("g", "3"): "2",
        },
    )
    return arrow_category(), act


def iso_fixed() -> tuple[Category, PartialAction]:
    """Groupoid action defined on a single shared point, fixing it both ways."""
    act = PartialAction.make(
        "123",
        {
            ("e", "1"): "1",
            ("e", "2"): "2",
            ("f", "2"): "2",
            ("f", "3"): "3",
            ("g", "2"): "2",
            ("g_inv", "2"): "2",
        },
    )
    return iso_groupoid(), act


def iso_shift() -> tuple[Category, PartialAction]:
    """Groupoid action shifting 1 -> 2 -> 3 along the arrow."""
    act = PartialAction.make(
        "123",
        {
            ("e", "1"): "1",
            ("e", "2"): "2",
            ("e", "3"): "3",
            ("f", "2"): "2",
            ("f", "3"): "3",
            ("g", "1"): "2",
            ("g", "2"): "3",
            ("g_inv", "2"): "1",
            ("g_inv", "3"): "2",
        },
    )
    return iso_groupoid(), act


FIXTURES = {
    "arrow_small": arrow_small,
    "arrow_collapse": arrow_collapse,
    "iso_fixed": iso_fixed,
    "iso_shift": iso_shift,
}
