"""Partial actions of a finite category on a finite set, in three presentations.

The primary presentation is a partial table ``(morphism, point) -> point``.
The same data can be viewed per-morphism (definedness domain, image, and the
induced map) or, when the action is global, as a set-valued functor.  Axiom
checkers return witness-bearing reports and never raise on law failures; they
raise ``ValueError`` only for structurally ill-formed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Any, Mapping

from .category import Category

Pt = Any


@dataclass(frozen=True)
class PartialAction:
    """A partial action table over an ordered carrier of points.

    ``table[(g, x)] = y`` means the morphism ``g`` sends ``x`` to ``y``; pairs
    absent from the table are undefined.  No axiom is assumed to hold, but a
    point listed twice in the carrier raises ``ValueError``.
    """

    carrier: tuple[Pt, ...]
    table: Mapping[tuple[str, Pt], Pt]

    def __post_init__(self):
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier lists a point twice")

    @staticmethod
    def make(carrier, table) -> "PartialAction":
        return PartialAction(tuple(sorted(set(carrier))), dict(table))


@dataclass(frozen=True)
class AxiomReport:
    """Witness lists per axiom name; an axiom passes iff its list is empty."""

    witnesses: Mapping[str, tuple[tuple, ...]]

    def passed(self, *axioms: str) -> bool:
        return all(not self.witnesses[a] for a in axioms)

    @property
    def all_pass(self) -> bool:
        return all(not w for w in self.witnesses.values())

    def verdicts(self) -> dict[str, bool]:
        return {a: not w for a, w in self.witnesses.items()}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one named check with its failure witnesses; it passes iff
    there are none."""

    name: str
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return not self.witnesses


_UNDEF = object()
_NO_ROW: dict = {}
Rows = Mapping[str, Mapping[Pt, Pt]]


def _rows(act: PartialAction) -> dict[str, dict[Pt, Pt]]:
    """The table regrouped by morphism: ``rows[g][x] = g.x``."""
    rows: dict[str, dict[Pt, Pt]] = {}
    for (g, x), y in act.table.items():
        rows.setdefault(g, {})[x] = y
    return rows


def _check_refs(cat: Category, act: PartialAction, rows: Rows) -> None:
    """Raise ``ValueError`` at the first table entry, in table order, that
    names an unknown morphism or leaves the carrier."""
    mors = set(cat.morphisms)
    pts = set(act.carrier)
    if rows.keys() <= mors and all(
        row.keys() <= pts and pts.issuperset(row.values()) for row in rows.values()
    ):
        return
    for (g, x), y in act.table.items():
        if g not in mors:
            raise ValueError(f"action references unknown morphism {g!r}")
        if x not in pts or y not in pts:
            raise ValueError(f"action entry ({g!r}, {x!r}) -> {y!r} leaves the carrier")


def _c1_witnesses(cat: Category, act: PartialAction, rows: Rows) -> tuple[tuple, ...]:
    """Uncovered points and moved identity steps, carrier-major."""
    covered: set = set()
    moved: dict[str, set] = {}
    for e in cat.objects:
        row = rows.get(e, _NO_ROW)
        covered.update(row)
        if not all(map(eq, row, row.values())):
            moved[e] = {x for x, y in row.items() if y != x}
    if not moved and covered.issuperset(act.carrier):
        return ()
    out: list[tuple] = []
    for x in act.carrier:
        if x not in covered:
            out.append((x,))
        out.extend((e, x) for e, xs in moved.items() if x in xs)
    return tuple(out)


def _c2_witnesses(cat: Category, rows: Rows) -> tuple[tuple, ...]:
    """Steps g.x whose base step dom(g).x is undefined, sorted."""
    out = []
    for g, row in rows.items():
        base = rows.get(cat.dom[g], _NO_ROW)
        if not row.keys() <= base.keys():
            out.extend((g, x) for x in row if x not in base)
    return tuple(sorted(out))


def _c4_witnesses(cat: Category, act: PartialAction, rows: Rows) -> tuple[tuple, ...]:
    """Undefined steps g.x over a defined dom(g).x, morphism-major."""
    out = []
    for g in cat.morphisms:
        base, row = rows.get(cat.dom[g], _NO_ROW), rows.get(g, _NO_ROW)
        if not base.keys() <= row.keys():
            gap = base.keys() - row.keys()
            out.extend((g, x) for x in filter(gap.__contains__, act.carrier))
    return tuple(out)


def _pair_major(act: PartialAction, witnesses: list[tuple]) -> tuple[tuple, ...]:
    """Order (g, h, x) witnesses by composable pair, then by x's carrier position."""
    if not witnesses:
        return ()
    pos = {x: i for i, x in enumerate(act.carrier)}
    return tuple(sorted(witnesses, key=lambda w: (w[0], w[1], pos[w[2]])))


def _c3_witnesses(cat: Category, act: PartialAction, rows: Rows) -> list[tuple]:
    """(g, h, x) where (g h).x and g.(h.x) differ, unordered.  A lane, one
    pair (g, h) over the row of h, is one fetch of row g h at its x and one
    of row g at their y, from rows held as lists of carrier positions (-1
    where undefined, and a trailing -1 so that every fetch is a tuple)."""
    n = len(act.carrier)
    pos = {x: i for i, x in enumerate(act.carrier)}
    undefined = [-1] * (n + 1)
    lists: dict[str, list[int]] = {}
    fetch: dict[str, tuple] = {}
    for h, row in rows.items():
        xs, ys = list(map(pos.__getitem__, row)), list(map(pos.__getitem__, row.values()))
        lst = lists[h] = undefined.copy()
        for i, j in zip(xs, ys):
            lst[i] = j
        fetch[h] = itemgetter(*xs, n), itemgetter(*ys, n)
    out: list[tuple] = []
    after = cat.after
    for h, row_h in rows.items():
        at_x, at_y = fetch[h]
        for g, k in after.get(h, ()):
            lhs, rhs = at_x(lists.get(k, undefined)), at_y(lists.get(g, undefined))
            if lhs != rhs:
                out.extend((g, h, x) for x, a, b in zip(row_h, lhs, rhs) if a != b)
    return out


def check_category_axioms(cat: Category, act: PartialAction) -> AxiomReport:
    """Check the four category-action axioms, collecting all witnesses.

    C1: every point is fixed by at least one object, and any object that acts
        on a point fixes it.  C2: definedness of g.x forces definedness of
        dom(g).x.  C3: along a composable pair, the two evaluation orders are
        defined together and agree.  C4 (globality): definedness of dom(g).x
        forces definedness of g.x.

    C3 reads one lane, a composable pair (g, h) over the whole row of h, in
    two C-level fetches: Python-level work is one step per table entry and
    per lane, plus one per cell of a lane that fails.
    """
    rows = _rows(act)
    _check_refs(cat, act, rows)
    return AxiomReport(
        {
            "C1": _c1_witnesses(cat, act, rows),
            "C2": _c2_witnesses(cat, rows),
            "C3": _pair_major(act, _c3_witnesses(cat, act, rows)),
            "C4": _c4_witnesses(cat, act, rows),
        }
    )


def _inverse(cat: Category) -> Mapping[str, str]:
    inv = cat.inverse
    if inv is None:
        raise ValueError("the groupoid axioms need a groupoid: some morphism has no inverse")
    return inv


def _gr2_witnesses(inv: Mapping[str, str], act: PartialAction) -> tuple[tuple, ...]:
    """Defined steps g.x = y that the inverse of g does not send back to x, sorted."""
    t = act.table
    return tuple(sorted(key for key, y in t.items() if t.get((inv[key[0]], y)) != key[1]))


def check_groupoid_axioms(cat: Category, act: PartialAction) -> AxiomReport:
    """Check the groupoid-action axioms GR1-GR4 over ``cat.inverse``.

    GR1 coincides with C1 and GR4 with C4.  GR2 demands that the inverse
    undoes every defined step; GR3 demands closure of definedness under
    composition in the stepwise-to-composite direction only.  GR3 uses the
    same step index as C3.  Raises ``ValueError`` when ``cat`` is not a
    groupoid.
    """
    inv = _inverse(cat)
    rows = _rows(act)
    _check_refs(cat, act, rows)
    gr3: list[tuple] = []
    after = cat.after
    for h, row_h in rows.items():
        for g, k in after.get(h, ()):
            row_g, row_k = rows.get(g, _NO_ROW), rows.get(k, _NO_ROW)
            for x, y in row_h.items():
                if y in row_g and row_k.get(x, _UNDEF) != row_g[y]:
                    gr3.append((g, h, x))

    return AxiomReport(
        {
            "GR1": _c1_witnesses(cat, act, rows),
            "GR2": _gr2_witnesses(inv, act),
            "GR3": _pair_major(act, gr3),
            "GR4": _c4_witnesses(cat, act, rows),
        }
    )


def groupoid_report(cat: Category, act: PartialAction, c: AxiomReport) -> AxiomReport:
    """GR1-GR4 from the C1-C4 report ``c`` of the same action: GR1 is C1,
    GR4 is C4, GR3 the C3 witnesses (g, h, x) with h.x in dom g; only GR2
    walks the table.  :func:`check_groupoid_axioms` is the independent route.
    Raises ``ValueError`` when ``cat`` is not a groupoid."""
    t, w = act.table, c.witnesses
    gr2 = _gr2_witnesses(_inverse(cat), act)
    gr3 = tuple(v for v in w["C3"] if (v[0], t[v[1], v[2]]) in t)
    return AxiomReport({"GR1": w["C1"], "GR2": gr2, "GR3": gr3, "GR4": w["C4"]})


@dataclass(frozen=True)
class TripleForm:
    """Per-morphism view of an action: definedness domain, image, induced map."""

    carrier: tuple[Pt, ...]
    domains: Mapping[str, frozenset]
    images: Mapping[str, frozenset]
    maps: Mapping[str, Mapping[Pt, Pt]]


def to_triple(act: PartialAction) -> TripleForm:
    """Regroup the table by morphism; morphisms absent from it get no entry."""
    maps = _rows(act)
    return TripleForm(
        act.carrier,
        {g: frozenset(m) for g, m in maps.items()},
        {g: frozenset(m.values()) for g, m in maps.items()},
        maps,
    )


def from_triple(cat: Category, t: TripleForm) -> PartialAction:
    """Flatten a per-morphism view back into one table.

    Raises ``ValueError`` when a map is not defined exactly on its stated
    domain, when its image disagrees with the stated image, or when any value
    leaves the carrier.
    """
    pts = set(t.carrier)
    table: dict[tuple[str, Pt], Pt] = {}
    for g in sorted(t.domains):
        if g not in cat.morphisms:
            raise ValueError(f"triple form references unknown morphism {g!r}")
        m = t.maps.get(g, {})
        if set(m) != set(t.domains[g]):
            raise ValueError(f"map for {g!r} not defined exactly on its domain")
        if not set(m.values()) <= pts or not set(m) <= pts:
            raise ValueError(f"map for {g!r} leaves the carrier")
        if frozenset(m.values()) != t.images.get(g, frozenset()):
            raise ValueError(f"stated image for {g!r} disagrees with its map")
        for x, y in m.items():
            table[(g, x)] = y
    return PartialAction(t.carrier, table)


@dataclass(frozen=True)
class SetFunctor:
    """A set-valued functor: a set per object, a total map per morphism."""

    object_sets: Mapping[str, frozenset]
    maps: Mapping[str, Mapping[Pt, Pt]]


def functor_violations(cat: Category, f: SetFunctor) -> tuple[str, ...]:
    """Law failures of a set-valued functor, as human-readable strings."""
    out: list[str] = []
    for e in cat.objects:
        if e not in f.object_sets:
            out.append(f"no set assigned to object {e}")
    for g in cat.morphisms:
        if g not in f.maps:
            out.append(f"no map assigned to morphism {g}")
            continue
        src = f.object_sets.get(cat.dom[g], frozenset())
        dst = f.object_sets.get(cat.cod[g], frozenset())
        m = f.maps[g]
        if set(m) != set(src):
            out.append(f"map for {g} not total on its source set")
        if not set(m.values()) <= set(dst):
            out.append(f"map for {g} leaves its target set")
    for e in cat.objects:
        for x, y in f.maps.get(e, {}).items():
            if y != x:
                out.append(f"map for identity {e} moves {x}")
    for (g, h) in cat.composable:
        k = cat.comp.get((g, h))
        if k is None or g not in f.maps or h not in f.maps or k not in f.maps:
            continue
        for x, y in f.maps[h].items():
            if y in f.maps[g] and f.maps[k].get(x) != f.maps[g][y]:
                out.append(f"composite law fails for ({g}, {h}) at {x}")
    return tuple(out)


def to_functor(cat: Category, act: PartialAction) -> SetFunctor:
    """View a global action as a set-valued functor.

    Raises ``ValueError`` unless all of C1-C4 pass: the object sets are the
    identity definedness domains, and globality makes each morphism's map
    total on its source set.
    """
    rep = check_category_axioms(cat, act)
    if not rep.all_pass:
        raise ValueError("to_functor requires a global action (C1-C4 all passing)")
    trip = to_triple(act)
    sets = {e: trip.domains.get(e, frozenset()) for e in cat.objects}
    maps = {g: dict(trip.maps.get(g, {})) for g in cat.morphisms}
    return SetFunctor(sets, maps)


def from_functor(cat: Category, f: SetFunctor) -> PartialAction:
    """Rebuild the global action table from a set-valued functor.

    Raises ``ValueError`` when the functor laws fail.
    """
    bad = functor_violations(cat, f)
    if bad:
        raise ValueError("not a functor: " + "; ".join(bad))
    carrier: set = set()
    for e in cat.objects:
        carrier |= f.object_sets[e]
    table: dict[tuple[str, Pt], Pt] = {}
    for g in cat.morphisms:
        for x, y in f.maps[g].items():
            table[(g, x)] = y
    return PartialAction(tuple(sorted(carrier)), table)
