"""Spans around the public layer calls of ``pcat``, recorded from outside.

``Tracer.install`` replaces each traced function, in every ``pcat`` module
that bound it, by a wrapper that records one span per call: name, start,
end, parent span and the command it belongs to, plus size counters read
off the arguments or the result.  ``uninstall`` puts the originals back.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _fmt(args, kwargs):
    return kwargs.get("fmt", args[1] if len(args) > 1 else "text")


# (module, attribute, span name or fn(args, kwargs) -> name, fn(args, kwargs, result) -> counters)
TARGETS = [
    ("pcat.dsl", "parse", "dsl.parse", lambda a, k, r: {"dsl.parse_bytes": len(a[0].encode())}),
    (
        "pcat.dsl",
        "serialize",
        lambda a, k: f"dsl.serialize_{_fmt(a, k)}",
        lambda a, k, r: {"dsl.bytes_out": len(r.encode())},
    ),
    ("pcat.category", "validate_category", "category.validate", None),
    ("pcat.action", "check_category_axioms", "action.check_category_axioms", None),
    ("pcat.action", "check_groupoid_axioms", "action.check_groupoid_axioms", None),
    (
        "pcat.globalization",
        "build_xbar",
        "globalization.build_xbar",
        lambda a, k, r: {"globalization.xbar_elems": len(r.elements)},
    ),
    (
        "pcat.globalization",
        "sim_pairs",
        "globalization.sim_pairs",
        lambda a, k, r: {"globalization.sim_pairs": len(r.pairs)},
    ),
    (
        "pcat.globalization",
        "equiv_closure",
        "globalization.equiv_closure",
        lambda a, k, r: {"globalization.classes": len(r)},
    ),
    ("pcat.globalization", "build_globalization", "globalization.build_globalization", None),
    ("pcat.globalization", "mediating", "globalization.mediating", None),
    (
        "pcat.globalization",
        "enumerate_globalizations",
        "globalization.enumerate_globalizations",
        lambda a, k, r: {"globalization.receivers": len(r)},
    ),
    ("pcat.globalization", "mediating_candidates", "globalization.mediating_candidates", None),
    (
        "pcat.oracle",
        "suite_closure_equivalence",
        "oracle.closure_equivalence",
        lambda a, k, r: {"oracle.closure_equivalence_cases": r.cases},
    ),
    (
        "pcat.oracle",
        "suite_axiom_equivalence",
        "oracle.axiom_equivalence",
        lambda a, k, r: {"oracle.axiom_equivalence_cases": r.cases},
    ),
    (
        "pcat.oracle",
        "suite_universality",
        "oracle.universality",
        lambda a, k, r: {"oracle.universality_cases": r.cases},
    ),
    (
        "pcat.oracle",
        "suite_groupoid_injectivity",
        "oracle.groupoid_injectivity",
        lambda a, k, r: {"oracle.groupoid_injectivity_cases": r.cases},
    ),
    (
        "pcat.topology",
        "validate_topology",
        "topology.validate_topology",
        lambda a, k, r: {"topology.carrier_opens": len(a[0].opens)},
    ),
    (
        "pcat.topology",
        "Space.to_topology",
        "topology.to_topology",
        lambda a, k, r: {"topology.quotient_opens": len(r.opens)},
    ),
    ("pcat.topology", "quotient_space", "topology.quotient_space", None),
    ("pcat.topology", "check_continuous_action", "topology.check_continuous_action", None),
    ("pcat.topology", "check_graph_open", "topology.check_graph_open", None),
    ("pcat.topology", "check_embedding_open", "topology.check_embedding_open", None),
    ("pcat.topology", "topologize_globalization", "topology.topologize_globalization", None),
]

# Span fields, kept as lists for speed.
NAME, START, END, PARENT, COMMAND, COUNTS = range(6)


class Tracer:
    """Records the spans of one traced pass; ``span`` opens a command's root span."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = None
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            span = [label, perf_counter(), None, stack[-1] if stack else None, self.command, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, kwargs, result)
            return result

        return traced

    def span(self, label, fn, *args):
        """Run ``fn(*args)`` inside a root span for one command."""
        self.command = label
        return self._wrap(fn, f"cli.{label}", None)(*args)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "pcat" or n.startswith("pcat.")]
        for modname, attr, name, count in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, count)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patched.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patched):
            setattr(holder, key, orig)
        self._patched.clear()

    def summary(self) -> tuple[dict, dict, dict]:
        """Per span name: self seconds and inclusive seconds; counters summed."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        counts = defaultdict(int)
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            self_s[s[NAME]] += dur - child_time[i]
            incl_s[s[NAME]] += dur
            for key, value in (s[COUNTS] or {}).items():
                counts[key] += value
        return self_s, incl_s, counts

    def stage_sum(self, parent_name: str, child_names: set) -> float:
        """Inclusive seconds of spans named in ``child_names`` directly under ``parent_name``."""
        total = 0.0
        for s in self.spans:
            p = s[PARENT]
            if p is not None and s[NAME] in child_names and self.spans[p][NAME] == parent_name:
                total += s[END] - s[START]
        return total

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "command", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
