"""Finite topologies and continuity checks for topologized partial actions.

A finite topology is held as the minimal open neighborhood U_x of each point
(``Space``): every open set is a union of them, the quotient of the
globalization is read off them in place, and a map f is continuous iff
f(U_x) lies in U_f(x) for every x, so every verdict is decided point by
point.  Explicit open families (``FiniteTopology``) appear only where the
input spells them out, in the DSL's topology blocks, and in the oracles.
Every check takes a ``Space``; ``Space.from_topology`` converts a validated
family.  A failing verdict's witnesses are the points its U_x test rejects,
sorted, so they never outnumber the verdict's domain and no open family is
spelled out to find them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .category import Category
from .action import PartialAction, Verdict
from .globalization import Globalization, mediating

Pt = Any


@dataclass(frozen=True)
class FiniteTopology:
    """An explicit family of open subsets over an ordered carrier."""

    carrier: tuple[Pt, ...]
    opens: frozenset[frozenset]

    @staticmethod
    def make(carrier, opens) -> "FiniteTopology":
        return FiniteTopology(
            tuple(sorted(set(carrier), key=_skey)),
            frozenset(frozenset(u) for u in opens) | {frozenset()},
        )


def _skey(x):
    return (str(type(x)), str(x))


def validate_topology(t: FiniteTopology) -> Verdict:
    """Check the finite topology laws on the explicit family.

    Witnesses are ("missing_empty",), ("missing_total",), ("stray_points",
    points) with the points of an open that lie off the carrier, or
    ("union"/"intersection", a, b) with the offending pair of opens.
    """
    bad: list[tuple] = []
    full = frozenset(t.carrier)
    if frozenset() not in t.opens:
        bad.append(("missing_empty",))
    if full not in t.opens:
        bad.append(("missing_total",))
    for u in t.opens:
        if not u <= full:
            bad.append(("stray_points", tuple(sorted(u - full, key=_skey))))
    for a, b in itertools.combinations(sorted(t.opens, key=lambda u: sorted(u, key=_skey)), 2):
        if a | b not in t.opens:
            bad.append(("union", tuple(sorted(a, key=_skey)), tuple(sorted(b, key=_skey))))
        if a & b not in t.opens:
            bad.append(("intersection", tuple(sorted(a, key=_skey)), tuple(sorted(b, key=_skey))))
    return Verdict("topology", tuple(bad))


class Space:
    """A finite topology presented by the minimal open neighborhood of each point.

    The canonical form: discrete spaces, spaces read off a valid family, and
    the quotient of a globalization are valid by construction, and none of
    them spells out its open family.
    """

    __slots__ = ("carrier", "nbhd")

    def __init__(self, carrier, nbhd):
        self.carrier = tuple(carrier)
        self.nbhd = dict(nbhd)

    @classmethod
    def from_topology(cls, t: FiniteTopology) -> "Space":
        """U_p is the intersection of the opens around p (t must be valid)."""
        full = frozenset(t.carrier)
        nbhd = {p: full.intersection(*(u for u in t.opens if p in u)) for p in t.carrier}
        return cls(t.carrier, nbhd)

    @classmethod
    def discrete(cls, carrier) -> "Space":
        pts = sorted(set(carrier), key=_skey)
        return cls(pts, {p: frozenset((p,)) for p in pts})

    def is_open(self, s) -> bool:
        sub = frozenset(s)
        return all(self.nbhd[p] <= sub for p in sub)

    def opens(self) -> frozenset[frozenset]:
        """Materialize the full open family (union closure of neighborhoods)."""
        found = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            base = frontier.pop()
            for p in self.carrier:
                u = base | self.nbhd[p]
                if u not in found:
                    found.add(u)
                    frontier.append(u)
        return frozenset(found)

    def to_topology(self) -> FiniteTopology:
        return FiniteTopology(self.carrier, self.opens())

    def count_opens(self) -> int:
        """Number of open sets, counted without spelling them out.

        The opens are the down-sets of the specialization preorder (x below y
        iff x is in U_y).  Points with equal neighborhoods are collapsed, the
        count is a product over connected components, and a component P is
        counted by f(P) = f(P minus up(x)) + f(P minus down(x)), memoized.
        A discrete space costs O(n); dense components can cost exponential
        time, since counting down-sets is #P-hard (Provan & Ball 1983).
        """
        index: dict[frozenset, int] = {}
        for p in self.carrier:
            index.setdefault(self.nbhd[p], len(index))
        down, up = [0] * len(index), [0] * len(index)
        for u, i in index.items():
            for q in u:
                j = index[self.nbhd[q]]
                down[i] |= 1 << j
                up[j] |= 1 << i
        memo, total, left = {0: 1}, 1, (1 << len(index)) - 1
        while left:
            part, todo = 0, left & -left
            while todo:
                low = todo & -todo
                part |= low
                i = low.bit_length() - 1
                todo = (todo | down[i] | up[i]) & ~part
            left &= ~part
            stack = [part]
            while stack:
                m = stack[-1]
                x = (m & -m).bit_length() - 1
                split = (m & ~up[x], m & ~down[x])
                missing = [r for r in split if r not in memo]
                if missing:
                    stack.extend(missing)
                else:
                    memo[m] = memo[split[0]] + memo[split[1]]
                    stack.pop()
            total *= memo[part]
        return total


def _discontinuities(f: Mapping, near, cod: Space, points) -> tuple:
    """The points x, in the order given, where the partial map ``f`` takes
    some point of U_x within its domain out of U_f(x); ``near(x)`` lists U_x
    in the ambient space."""
    return tuple(x for x in points if not all(f[p] in cod.nbhd[f[x]] for p in near(x) if p in f))


def _product_near(a: Space, b: Space):
    return lambda gx: itertools.product(a.nbhd[gx[0]], b.nbhd[gx[1]])


def check_topological_category(cat: Category, mor: Space) -> Verdict:
    """Continuity of composition on its domain inside the morphism square.

    Witnesses are the composable pairs (g, h) with some composable pair in
    U_g x U_h composing out of U_gh.
    """
    return Verdict(
        "continuity comp",
        _discontinuities(cat.comp, _product_near(mor, mor), mor, sorted(cat.comp)),
    )


@dataclass(frozen=True)
class TopScenario:
    """A partial action with topologies on both the morphisms and the carrier."""

    category: Category
    action: PartialAction
    top_mor: Space
    top_space: Space


def check_continuous_action(scn: TopScenario) -> tuple[Verdict, Verdict]:
    """CA1: identity definedness domains are open; witnesses are objects.
    CA2: the action map is continuous on its definedness domain inside the
    product; witnesses are defined cells (g, x)."""
    t = scn.action.table
    space = scn.top_space
    ca1 = []
    for e in scn.category.objects:
        dom_e = frozenset(x for x in scn.action.carrier if (e, x) in t)
        if not space.is_open(dom_e):
            ca1.append(e)
    near = _product_near(scn.top_mor, space)
    return (
        Verdict("continuity CA1", tuple(ca1)),
        Verdict("continuity CA2", _discontinuities(t, near, space, sorted(t))),
    )


def check_star_open(cat: Category, mor: Space) -> Verdict:
    """Each object's outgoing-morphism set dom^-1(e) must be open."""
    bad = []
    for e in cat.objects:
        star = frozenset(g for g in cat.morphisms if cat.dom[g] == e)
        if not mor.is_open(star):
            bad.append(e)
    return Verdict("star-open", tuple(bad))


def check_graph_open(scn: TopScenario) -> Verdict:
    """The definedness domain of the action must be open in the product."""
    near = _product_near(scn.top_mor, scn.top_space)
    gamma = scn.action.table
    bad = [gx for gx in sorted(gamma) if not all(cell in gamma for cell in near(gx))]
    return Verdict("graph-open", tuple(bad))


def quotient_space(scn: TopScenario, glob: Globalization) -> Space:
    """The quotient carrier with its minimal class neighborhoods.

    The expanded carrier has the subspace topology of the product, so the
    minimal neighborhood of a member (g, x) is the expanded-carrier pairs of
    U_g x U_x.  A set of classes is open iff its preimage is, so the minimal
    neighborhood of a class is the reachability closure of the one-step
    relation "some member's neighborhood meets the class".  Each distinct
    (U_g, U_x) is read once, and no product neighborhood is stored.
    """
    class_of = glob.class_of
    mor, space = scn.top_mor.nbhd, scn.top_space.nbhd
    near: dict[tuple, frozenset] = {}
    step: dict[Any, set] = {}
    for g, x in glob.xbar.elements:
        key = (mor[g], space[x])
        if key not in near:
            near[key] = frozenset(class_of[p] for p in itertools.product(*key) if p in class_of)
        step.setdefault(class_of[(g, x)], set()).update(near[key])
    reps = sorted(step, key=_skey)
    nbhd = {}
    for r in reps:
        reach = {r}
        frontier = [r]
        while frontier:
            nxt = []
            for a in frontier:
                for b in step[a]:
                    if b not in reach:
                        reach.add(b)
                        nxt.append(b)
            frontier = nxt
        nbhd[r] = frozenset(reach)
    return Space(reps, nbhd)


def check_embedding_open(
    scn: TopScenario, glob: Globalization, yspace: Optional[Space] = None
) -> Verdict:
    """Openness of the embedding: images of carrier opens must be open in the
    quotient (``yspace``, built here when not given).  Every open is a union
    of minimal neighborhoods, so it suffices that each U_x has an open image;
    the witnesses are the carrier points x whose U_x does not."""
    ys = quotient_space(scn, glob) if yspace is None else yspace
    pts = scn.top_space
    bad = tuple(
        x
        for x in sorted(pts.carrier, key=_skey)
        if not ys.is_open({glob.embed[p] for p in pts.nbhd[x]})
    )
    return Verdict("embedding open", bad)


@dataclass(frozen=True)
class TopGlobalization:
    """The quotient space, every verdict of the open-embedding theorem in
    report order, and whether the theorem's gate passes."""

    top_y: Space
    checks: tuple[Verdict, ...]
    ok: bool


def topologize_globalization(
    scn: TopScenario,
    glob: Globalization,
    target: Optional[tuple[PartialAction, Space, Mapping]] = None,
) -> TopGlobalization:
    """Push the topologies through the construction and report every verdict.

    Never raises on hypothesis failures: CA1/CA2, star-openness, and
    graph-openness are reported alongside the conclusions.  The gate ``ok``
    needs every continuity verdict, an open embedding only when star-open
    and graph-open hold, and, when ``target`` supplies a topologized global
    action and an equivariant map, a continuous mediating map.
    """
    mor, space = scn.top_mor, scn.top_space
    yspace = quotient_space(scn, glob)

    comp = check_topological_category(scn.category, mor)
    ca1, ca2 = check_continuous_action(scn)
    star = check_star_open(scn.category, mor)
    graph = check_graph_open(scn)
    embed_cont = Verdict(
        "embedding continuous",
        _discontinuities(glob.embed, space.nbhd.__getitem__, yspace, scn.action.carrier),
    )
    act_cont = Verdict(
        "action continuous",
        _discontinuities(glob.action, _product_near(mor, yspace), yspace, glob.action),
    )
    embed_open = check_embedding_open(scn, glob, yspace)
    checks = [comp, ca1, ca2, star, graph, embed_cont, act_cont, embed_open]

    gate = [comp, ca1, ca2, embed_cont, act_cont]
    if star.ok and graph.ok:
        gate.append(embed_open)
    if target is not None:
        t_act, t_space, j = target
        k = mediating(glob, t_act, j)
        k_cont = Verdict(
            "mediating continuous",
            _discontinuities(k, yspace.nbhd.__getitem__, t_space, yspace.carrier),
        )
        checks.append(k_cont)
        gate.append(k_cont)

    return TopGlobalization(yspace, tuple(checks), all(v.ok for v in gate))
