"""Finite categories with explicit composition tables, plus groupoid detection.

An object is identified with its identity morphism, so ``objects`` is a subset
of ``morphisms`` and every table is keyed by plain identifiers.  ``comp[(g, h)]``
reads "g after h" and must be present exactly when ``dom[g] == cod[h]``.
Values are immutable after construction; all operations here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional


@dataclass(frozen=True)
class Category:
    """A finite category given by identifier sets and explicit structure maps.

    Construction performs no law checking.  Facts derived from the tables
    are cached properties, each computed on first use: ``validation`` (the
    :func:`validate_category` report), ``composable`` (the pairs where "g
    after h" exists), ``after`` (the composite index) and ``inverse`` (the
    :func:`is_groupoid` map).  Library categories are shared between
    callers, so these are read-only by contract.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    dom: Mapping[str, str]
    cod: Mapping[str, str]
    comp: Mapping[tuple[str, str], str]

    @staticmethod
    def make(
        objects: Iterable[str],
        arrows: Mapping[str, tuple[str, str]],
        comp: Mapping[tuple[str, str], str],
    ) -> "Category":
        """Build a category from non-identity arrow data.

        ``arrows`` maps each non-identity morphism to ``(dom, cod)``.  Identity
        morphisms (named by their object) and all composites involving an
        identity are filled in automatically; ``comp`` only needs the pairs of
        non-identity morphisms.
        """
        objs = tuple(sorted(set(objects)))
        dom = {o: o for o in objs}
        cod = {o: o for o in objs}
        for name, (d, c) in arrows.items():
            if name in dom:
                raise ValueError(f"duplicate morphism identifier {name!r}")
            dom[name] = d
            cod[name] = c
        mors = tuple(sorted(dom))
        table: dict[tuple[str, str], str] = {}
        for g in mors:
            table[(g, dom[g])] = g
            table[(cod[g], g)] = g
        for key, k in comp.items():
            prior = table.get(key)
            if prior is not None and prior != k:
                raise ValueError(f"conflicting composite for ({key[0]!r}, {key[1]!r})")
            table[key] = k
        return Category(objs, mors, dom, cod, table)

    @cached_property
    def validation(self) -> "ValidationReport":
        """The :func:`validate_category` report."""
        return validate_category(self)

    @cached_property
    def composable(self) -> tuple[tuple[str, str], ...]:
        """All pairs (g, h) with dom g == cod h, sorted.  Read from ``dom`` and
        ``cod`` alone, so an unlawful category has them too."""
        mors = set(self.morphisms)
        into: dict[str, list[str]] = {}
        for h in mors:
            c = self.cod.get(h)
            if c is not None:
                into.setdefault(c, []).append(h)
        return tuple(sorted((g, h) for g in mors for h in into.get(self.dom.get(g), ())))

    @cached_property
    def after(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        """Each morphism h indexed to the pairs (g, g h) over its composable g,
        in sorted order of g.  In a lawful category every h over one codomain
        c then lists the same g: all those with dom g = c."""
        after: dict[str, list[tuple[str, str]]] = {}
        for (g, h), k in self.comp.items():
            d = self.dom.get(g)
            if d is not None and d == self.cod.get(h):
                after.setdefault(h, []).append((g, k))
        return {h: tuple(sorted(pairs)) for h, pairs in after.items()}

    @cached_property
    def inverse(self) -> Optional[Mapping[str, str]]:
        """The :func:`is_groupoid` inverse map, or None when some morphism has
        no inverse."""
        return is_groupoid(self)


@dataclass(frozen=True)
class Violation:
    """One law failure found by :func:`validate_category`."""

    kind: str
    subject: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_category(cat: Category) -> ValidationReport:
    """Check every category law on the explicit tables.

    Structural problems (missing dom/cod entries, unknown identifiers) are
    reported alongside law failures; dependent checks are skipped when the
    data they need is absent.

    When every other law holds, associativity is first decided by Light's
    test (Clifford & Preston 1961, section 1.2).  Generators are picked
    greedily in morphism order, each one not yet reached by composing the
    earlier ones, and (x s) y = x (s y) is checked only for generators s.
    That suffices: the set T of s that pass contains the generators and is
    closed under composition, since for a, b in T,
    (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y).
    So T holds every morphism, and every triple associates.  When the test
    fails, the full scan over composable triples lists the violations.
    """
    out: list[Violation] = []
    mors = set(cat.morphisms)
    objs = set(cat.objects)

    for o in sorted(objs - mors):
        out.append(Violation("object_not_morphism", (o,), f"object {o} missing from morphisms"))
    for g in cat.morphisms:
        for name, tab in (("dom", cat.dom), ("cod", cat.cod)):
            v = tab.get(g)
            if v is None:
                out.append(Violation(f"{name}_missing", (g,), f"{name}({g}) undefined"))
            elif v not in objs:
                out.append(Violation(f"{name}_not_object", (g, v), f"{name}({g}) = {v} is not an object"))
    for o in sorted(objs & mors):
        if cat.dom.get(o) != o or cat.cod.get(o) != o:
            out.append(Violation("bad_identity_span", (o,), f"identity {o} must have dom = cod = {o}"))

    pairs = set(cat.composable)
    for (g, h), k in sorted(cat.comp.items()):
        if g not in mors or h not in mors:
            out.append(Violation("comp_unknown_key", (g, h), f"composite keyed by unknown morphism"))
            continue
        if (g, h) not in pairs:
            out.append(Violation("comp_not_composable", (g, h), f"dom({g}) != cod({h})"))
            continue
        if k not in mors:
            out.append(Violation("comp_unknown_value", (g, h, k), f"{g} after {h} = {k} unknown"))
            continue
        if cat.dom.get(k) != cat.dom.get(h) or cat.cod.get(k) != cat.cod.get(g):
            out.append(Violation("comp_bad_span", (g, h, k), f"{g} after {h} = {k} has wrong dom/cod"))
    for (g, h) in cat.composable:
        if (g, h) not in cat.comp:
            out.append(Violation("missing_comp", (g, h), f"no composite declared for {g} after {h}"))

    for g in cat.morphisms:
        d, c = cat.dom.get(g), cat.cod.get(g)
        if d in objs and (g, d) in cat.comp and cat.comp[(g, d)] != g:
            out.append(Violation("identity_law", (g, d), f"{g} after {d} != {g}"))
        if c in objs and (c, g) in cat.comp and cat.comp[(c, g)] != g:
            out.append(Violation("identity_law", (c, g), f"{c} after {g} != {g}"))

    into: dict[Optional[str], list[str]] = {}
    for k in cat.morphisms:
        into.setdefault(cat.cod.get(k), []).append(k)
    if not out:
        comp, dom, cod = cat.comp, cat.dom, cat.cod
        outof: dict[str, list[str]] = {}
        for k in cat.morphisms:
            outof.setdefault(dom[k], []).append(k)
        gens: list[str] = []
        reached: set[str] = set()
        for s in cat.morphisms:
            if s in reached:
                continue
            gens.append(s)
            reached.add(s)
            new = [s]
            while new:
                a = new.pop()
                made = [comp[(a, b)] for b in into[dom[a]] if b in reached]
                made += [comp[(b, a)] for b in outof[cod[a]] if b in reached]
                for k in made:
                    if k not in reached:
                        reached.add(k)
                        new.append(k)
        if all(
            comp[(comp[(x, s)], y)] == comp[(x, comp[(s, y)])]
            for s in gens
            for x in outof[cod[s]]
            for y in into[dom[s]]
        ):
            return ValidationReport(())
    for (g, h) in cat.composable:
        gh = cat.comp.get((g, h))
        if gh is None:
            continue
        for k in into.get(cat.dom.get(h), ()):
            hk = cat.comp.get((h, k))
            if hk is None:
                continue
            left = cat.comp.get((gh, k))
            right = cat.comp.get((g, hk))
            if left is None or right is None or left != right:
                out.append(Violation("associativity", (g, h, k), f"({g}{h}){k} != {g}({h}{k})"))
    return ValidationReport(tuple(out))


def is_groupoid(cat: Category) -> Optional[dict[str, str]]:
    """The map sending each morphism to a two-sided inverse, or None when
    some morphism has none.  ``Category.inverse`` caches it.

    Expects a category that passes :func:`validate_category`, so an inverse
    of g lies in the hom-set from cod g to dom g, and only that is scanned.
    """
    hom: dict[tuple, list[str]] = {}
    for h in cat.morphisms:
        hom.setdefault((cat.dom.get(h), cat.cod.get(h)), []).append(h)
    inv: dict[str, str] = {}
    for g in cat.morphisms:
        found = None
        for h in hom.get((cat.cod.get(g), cat.dom.get(g)), ()):
            if cat.comp.get((g, h)) == cat.cod.get(g) and cat.comp.get((h, g)) == cat.dom.get(g):
                found = h
                break
        if found is None:
            return None
        inv[g] = found
    if any(inv[inv[g]] != g for g in cat.morphisms):
        raise ValueError("inverse assignment is not an involution")
    return inv
