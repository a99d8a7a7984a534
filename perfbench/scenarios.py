"""Seeded scenario generator for the benchmark, with expectations computed here.

Every input is a restriction of a global action built from first principles:
disjoint copies of the regular action of a connected groupoid (morphisms act
on morphisms by composition), restricted to a seeded subset of points.  The
paper's restriction theorem fixes the expected globalization sizes without
running the code under test: for a global groupoid action whose points each
lie over exactly one object, globalizing the restriction to Y gives the
sub-action generated by Y.

Only ``pcat.Category``, ``pcat.PartialAction``, ``pcat.Scenario`` and
``pcat.serialize`` are used, to write the scenarios as canonical ``.pcat``
text; every expected value comes from the generator's own data.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


def _group(name: str) -> list[list[int]]:
    """Multiplication table of a small group; element 0 is the identity."""
    if name == "s3":
        perms = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        return [[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms]
    if name == "z4":
        return [[(i + j) % 4 for j in range(4)] for i in range(4)]
    if name == "klein":
        return [[i ^ j for j in range(4)] for i in range(4)]
    raise ValueError(f"unknown group {name!r}")


@dataclass(frozen=True)
class Groupoid:
    """A connected groupoid: morphisms (i, j, h) go from object j to object i."""

    objects: int
    table: list[list[int]]

    def morphisms(self) -> list[tuple[int, int, int]]:
        n = len(self.table)
        return [(i, j, h) for i in range(self.objects) for j in range(self.objects) for h in range(n)]

    @staticmethod
    def dom(m) -> int:
        return m[1]

    @staticmethod
    def cod(m) -> int:
        return m[0]

    def compose(self, a, b):
        """a after b; requires dom a == cod b."""
        return (a[0], b[1], self.table[a[2]][b[2]])

    @staticmethod
    def name(m) -> str:
        i, j, h = m
        return f"o{i}" if i == j and h == 0 else f"a{i}_{j}_{h}"

    def to_category(self, pcat):
        arrows = {}
        comp = {}
        mors = self.morphisms()
        for m in mors:
            if not (m[0] == m[1] and m[2] == 0):
                arrows[self.name(m)] = (f"o{m[1]}", f"o{m[0]}")
        for a in mors:
            for b in mors:
                if self.dom(a) == self.cod(b) and self.name(a) in arrows and self.name(b) in arrows:
                    comp[(self.name(a), self.name(b))] = self.name(self.compose(a, b))
        return pcat.Category.make([f"o{i}" for i in range(self.objects)], arrows, comp)


@dataclass(frozen=True)
class Restriction:
    """A restriction of disjoint regular actions to ``kept``, with expectations.

    Points are (copy, morphism); a point lies over the codomain of its
    morphism, and g acts on it when dom g is that object.
    """

    groupoid: Groupoid
    kept: tuple

    def step(self, g, p):
        return (p[0], self.groupoid.compose(g, p[1]))

    def acting(self, p):
        return [g for g in self.groupoid.morphisms() if self.groupoid.dom(g) == self.groupoid.cod(p[1])]

    def table(self) -> dict:
        keep = set(self.kept)
        return {(g, p): self.step(g, p) for p in self.kept for g in self.acting(p) if self.step(g, p) in keep}

    def xbar(self) -> int:
        """|X̄| = Σ_y |{g : dom g = object of y}|."""
        return sum(len(self.acting(p)) for p in self.kept)

    def generated(self) -> set:
        """Points of the global action reachable from the kept points."""
        return {self.step(g, p) for p in self.kept for g in self.acting(p)}

    def classes(self) -> int:
        return len(self.generated())

    def quotient_steps(self) -> int:
        """Defined steps of the globalization: every step of the generated sub-action."""
        return sum(len(self.acting(q)) for q in self.generated())

    def closed(self) -> bool:
        """True when the restriction is itself global (C4 holds)."""
        return self.classes() == len(self.kept)


def point_name(p) -> str:
    c, (i, j, h) = p
    return f"p{c}_{i}_{j}_{h}"


def regular_points(groupoid: Groupoid, copies: int) -> list:
    return [(c, m) for c in range(copies) for m in groupoid.morphisms()]


def orbits(groupoid: Groupoid, copies: int) -> list[list]:
    """Orbits of the regular action: one per copy and domain object."""
    return [
        [(c, m) for m in groupoid.morphisms() if m[1] == k]
        for c in range(copies)
        for k in range(groupoid.objects)
    ]


def render(pcat, res: Restriction, table: dict, cat_name: str, act_name: str) -> str:
    """Canonical ``.pcat`` text of a restriction (or a corrupted copy of it)."""
    g = res.groupoid
    act = pcat.PartialAction.make(
        [point_name(p) for p in res.kept],
        {(g.name(m), point_name(p)): point_name(q) for (m, p), q in table.items()},
    )
    scn = pcat.Scenario(cat_name, act_name, g.to_category(pcat), act, None, None, None)
    return pcat.serialize(scn, "text")


def corrupt(res: Restriction, rng: random.Random, count: int) -> dict:
    """Redirect ``count`` non-identity steps to another point over the same object.

    Identity rows and definedness stay as they were, so C1 and C2 still hold;
    each redirected step g.y = z' (z' != z) breaks C3 at the composable pair
    (g^-1, g) applied to y, unless g^-1's step was redirected too, so the
    generator keeps at least one redirected step whose inverse step is intact.
    """
    table = res.table()
    gd = res.groupoid
    by_object: dict[int, list] = {}
    for p in res.kept:
        by_object.setdefault(gd.cod(p[1]), []).append(p)
    candidates = sorted(
        (key for key in table if not (key[0][0] == key[0][1] and key[0][2] == 0)),
        key=lambda k: (k[0], k[1]),
    )
    chosen = rng.sample(candidates, count)
    for key in chosen:
        old = table[key]
        table[key] = rng.choice([q for q in by_object[gd.cod(old[1])] if q != old])
    inverse = {
        m: next(n for n in gd.morphisms() if n[1] == m[0] and gd.compose(n, m) == (m[1], m[1], 0))
        for m in gd.morphisms()
    }
    chosen_set = set(chosen)
    if not any((inverse[g], res.step(g, y)) not in chosen_set for (g, y) in chosen):
        raise RuntimeError("corruption left C3 intact")
    return table


@dataclass(frozen=True)
class Generated:
    """Files to run plus the facts the output checks compare against."""

    files: dict[str, str]
    expect: dict


def groupoid_440(pcat, seed: int) -> Generated:
    """440 of the 540 points of 10 copies of the regular action of the
    3-object S3 groupoid (54 morphisms), plus a 40-step corruption."""
    rng = random.Random(f"groupoid-440:{seed}")
    gd = Groupoid(3, _group("s3"))
    res = Restriction(gd, tuple(sorted(rng.sample(regular_points(gd, 10), 440))))
    files = {
        "g440.pcat": render(pcat, res, res.table(), "s3x3", "restricted"),
        "g440_bad.pcat": render(pcat, res, corrupt(res, rng, 40), "s3x3", "corrupted"),
    }
    expect = {
        "points": len(res.kept),
        "xbar": res.xbar(),
        "classes": res.classes(),
        "steps": res.quotient_steps(),
        "c4": res.closed(),
    }
    return Generated(files, expect)


def topo_discrete(pcat, seed: int) -> Generated:
    """Two scenarios without topology blocks over an order-4 group.

    q16: 2 points from each of 4 regular orbits, so exactly 16 classes.
    x10: 10 of the 12 points of 3 regular orbits, so 12 classes.
    """
    rng = random.Random(f"topo-discrete:{seed}")
    files = {}
    expect = {}
    for label, copies, take in (("q16", 4, 2), ("x10", 3, None)):
        group = rng.choice(["z4", "klein"])
        gd = Groupoid(1, _group(group))
        if take is None:
            kept = rng.sample(regular_points(gd, copies), 10)
        else:
            kept = [p for orbit in orbits(gd, copies) for p in rng.sample(orbit, take)]
        res = Restriction(gd, tuple(sorted(kept)))
        files[f"{label}.pcat"] = render(pcat, res, res.table(), group, label)
        expect[label] = {"classes": res.classes()}
    return Generated(files, expect)
