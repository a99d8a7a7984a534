"""Finite topologies and continuity checks for topologized partial actions.

Public topologies are explicit families of open sets.  Internally, checks on
derived spaces (products, subspaces, quotients) work with minimal open
neighborhoods instead: every finite topology is determined by the smallest
open set around each point, and the derived neighborhoods have closed forms,
so no check ever has to materialize a product topology.  Explicit families
are only ever materialized by the operations whose result is itself a
topology, which are meant for small carriers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .category import Category, composable_pairs
from .action import PartialAction
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

    @staticmethod
    def discrete(carrier) -> "FiniteTopology":
        pts = sorted(set(carrier), key=_skey)
        opens = set()
        for r in range(len(pts) + 1):
            for combo in itertools.combinations(pts, r):
                opens.add(frozenset(combo))
        return FiniteTopology(tuple(pts), frozenset(opens))

    @staticmethod
    def indiscrete(carrier) -> "FiniteTopology":
        pts = tuple(sorted(set(carrier), key=_skey))
        return FiniteTopology(pts, frozenset({frozenset(), frozenset(pts)}))

    def is_open(self, s) -> bool:
        return frozenset(s) in self.opens


def _skey(x):
    return (str(type(x)), str(x))


@dataclass(frozen=True)
class TopologyReport:
    """Closure failures of a would-be topology; empty means valid."""

    violations: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_topology(t: FiniteTopology) -> TopologyReport:
    """Check the finite topology laws on the explicit family.

    Witnesses are ("missing_empty",), ("missing_total",), or
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
    return TopologyReport(tuple(bad))


def min_nbhd(t: FiniteTopology, p) -> frozenset:
    """Smallest open set containing ``p`` (the carrier if no finer open exists)."""
    out = frozenset(t.carrier)
    for u in t.opens:
        if p in u and u < out:
            out = u
    return out


class Space:
    """A finite space presented by the minimal open neighborhood of each point.

    Valid for exactly the data a finite topology carries; used internally so
    that products, subspaces, and quotients never need their open families
    spelled out.
    """

    __slots__ = ("carrier", "nbhd")

    def __init__(self, carrier, nbhd):
        self.carrier = tuple(carrier)
        self.nbhd = dict(nbhd)

    @classmethod
    def from_topology(cls, t: FiniteTopology) -> "Space":
        return cls(t.carrier, {p: min_nbhd(t, p) for p in t.carrier})

    @classmethod
    def product(cls, a: "Space", b: "Space") -> "Space":
        carrier = [(x, y) for x in a.carrier for y in b.carrier]
        nbhd = {
            (x, y): frozenset(itertools.product(a.nbhd[x], b.nbhd[y]))
            for (x, y) in carrier
        }
        return cls(carrier, nbhd)

    def subspace(self, subset) -> "Space":
        sub = frozenset(subset)
        return Space(
            [p for p in self.carrier if p in sub],
            {p: self.nbhd[p] & sub for p in self.carrier if p in sub},
        )

    def quotient(self, class_of: Mapping) -> "Space":
        """Quotient by the partition that ``class_of`` encodes (value = representative).

        A set of representatives is open iff its preimage is; the minimal
        neighborhood of a class is the reachability closure of the one-step
        relation "some member's neighborhood meets the class".
        """
        reps = sorted({class_of[p] for p in self.carrier}, key=_skey)
        members: dict[Any, list] = {}
        for p in self.carrier:
            members.setdefault(class_of[p], []).append(p)
        step = {
            r: frozenset(class_of[q] for p in members[r] for q in self.nbhd[p])
            for r in reps
        }
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


def product_topology(a: FiniteTopology, b: FiniteTopology) -> FiniteTopology:
    """Explicit product topology; exponential in general, meant for small carriers."""
    return Space.product(Space.from_topology(a), Space.from_topology(b)).to_topology()


def subspace_topology(t: FiniteTopology, subset) -> FiniteTopology:
    """Traces of the opens on a subset of the carrier."""
    sub = frozenset(subset)
    if not sub <= set(t.carrier):
        raise ValueError("subset leaves the carrier")
    return FiniteTopology(
        tuple(p for p in t.carrier if p in sub),
        frozenset(u & sub for u in t.opens),
    )


def quotient_topology(t: FiniteTopology, class_of: Mapping) -> FiniteTopology:
    """Finest topology on representatives making the projection continuous.

    Computed exactly: the opens are the images of the saturated opens.
    """
    members: dict[Any, set] = {}
    for p in t.carrier:
        members.setdefault(class_of[p], set()).add(p)
    reps = tuple(sorted(members, key=_skey))
    opens = set()
    for u in t.opens:
        touched = {class_of[p] for p in u}
        if all(members[r] <= u for r in touched):
            opens.add(frozenset(touched))
    return FiniteTopology(reps, frozenset(opens))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one topological check with its failure witnesses."""

    name: str
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return not self.witnesses


def _fmt_set(u) -> tuple:
    return tuple(sorted(u, key=_skey))


def check_continuous_partial(
    f: Mapping, dom_top: FiniteTopology, cod_top: FiniteTopology
) -> Verdict:
    """Continuity of a partial map on its definedness domain.

    The domain carries the subspace topology; a witness is an open of the
    codomain whose preimage is not relatively open.
    """
    dom_space = Space.from_topology(dom_top).subspace(set(f))
    bad = []
    for v in sorted(cod_top.opens, key=_fmt_set):
        pre = {p for p in f if f[p] in v}
        if not all(dom_space.nbhd[p] <= pre for p in pre):
            bad.append(_fmt_set(v))
    return Verdict("continuous_partial", tuple(bad))


def check_topological_category(cat: Category, top_mor: FiniteTopology) -> Verdict:
    """Continuity of composition on its domain inside the morphism square.

    Witnesses are opens of the morphism space whose composition preimage is
    not relatively open among the composable pairs.
    """
    mor_space = Space.from_topology(top_mor)
    pairs = sorted(composable_pairs(cat))
    bad = []
    for v in sorted(top_mor.opens, key=_fmt_set):
        pre = {(g, h) for (g, h) in pairs if cat.comp.get((g, h)) in v}
        ok = all(
            all(
                (gp, hp) in pre
                for gp in mor_space.nbhd[g]
                for hp in mor_space.nbhd[h]
                if (gp, hp) in cat.comp
            )
            for (g, h) in pre
        )
        if not ok:
            bad.append(_fmt_set(v))
    return Verdict("topological_category", tuple(bad))


@dataclass(frozen=True)
class TopScenario:
    """A partial action with topologies on both the morphisms and the carrier."""

    category: Category
    action: PartialAction
    top_mor: FiniteTopology
    top_space: FiniteTopology


@dataclass(frozen=True)
class ActionContinuityReport:
    """CA1: identity definedness domains are open.  CA2: the action map is
    continuous on its definedness domain inside the product."""

    ca1_witnesses: tuple[str, ...]
    ca2_witnesses: tuple

    @property
    def ok(self) -> bool:
        return not self.ca1_witnesses and not self.ca2_witnesses


def check_continuous_action(scn: TopScenario) -> ActionContinuityReport:
    t = scn.action.table
    ca1 = []
    for e in scn.category.objects:
        dom_e = frozenset(x for x in scn.action.carrier if (e, x) in t)
        if not scn.top_space.is_open(dom_e):
            ca1.append(e)

    mor_space = Space.from_topology(scn.top_mor)
    pt_space = Space.from_topology(scn.top_space)
    gamma = set(t)
    ca2 = []
    for v in sorted(scn.top_space.opens, key=_fmt_set):
        pre = {gx for gx in gamma if t[gx] in v}
        ok = all(
            all(
                (gp, xp) in pre
                for gp in mor_space.nbhd[g]
                for xp in pt_space.nbhd[x]
                if (gp, xp) in gamma
            )
            for (g, x) in pre
        )
        if not ok:
            ca2.append(_fmt_set(v))
    return ActionContinuityReport(tuple(ca1), tuple(ca2))


def check_star_open(cat: Category, top_mor: FiniteTopology) -> Verdict:
    """Each object's incoming-morphism set dom^-1(e) must be open."""
    bad = []
    for e in cat.objects:
        star = frozenset(g for g in cat.morphisms if cat.dom[g] == e)
        if not top_mor.is_open(star):
            bad.append(e)
    return Verdict("star_open", tuple(bad))


def check_graph_open(scn: TopScenario) -> Verdict:
    """The definedness domain of the action must be open in the product."""
    mor_space = Space.from_topology(scn.top_mor)
    pt_space = Space.from_topology(scn.top_space)
    gamma = set(scn.action.table)
    bad = []
    for (g, x) in sorted(gamma):
        rect = itertools.product(mor_space.nbhd[g], pt_space.nbhd[x])
        if not all(cell in gamma for cell in rect):
            bad.append((g, x))
    return Verdict("graph_open", tuple(bad))


def _expanded_space(scn: TopScenario, glob: Globalization) -> Space:
    prod = Space.product(
        Space.from_topology(scn.top_mor), Space.from_topology(scn.top_space)
    )
    return prod.subspace(set(glob.xbar.elements))


def quotient_space(scn: TopScenario, glob: Globalization) -> Space:
    """The quotient carrier with its minimal class neighborhoods."""
    return _expanded_space(scn, glob).quotient(dict(glob.class_of))


def check_embedding_open(scn: TopScenario, glob: Globalization, top_y: FiniteTopology) -> Verdict:
    """Openness of the embedding: images of carrier opens must be open in the quotient."""
    bad = []
    for u in sorted(scn.top_space.opens, key=_fmt_set):
        img = frozenset(glob.embed[x] for x in u)
        if not top_y.is_open(img):
            bad.append(_fmt_set(u))
    return Verdict("embedding_open", tuple(bad))


def embedding_open_verdict(scn: TopScenario, glob: Globalization) -> Verdict:
    """Openness of the embedding without materializing the quotient topology."""
    yspace = quotient_space(scn, glob)
    bad = []
    for u in sorted(scn.top_space.opens, key=_fmt_set):
        img = frozenset(glob.embed[x] for x in u)
        if not yspace.is_open(img):
            bad.append(_fmt_set(u))
    return Verdict("embedding_open", tuple(bad))


@dataclass(frozen=True)
class TopGlobalization:
    """Quotient topology plus the continuity conclusions of the open-embedding theorem."""

    top_y: FiniteTopology
    ca: ActionContinuityReport
    star: Verdict
    graph: Verdict
    embed_continuous: Verdict
    action_continuous: Verdict
    embed_open: Verdict
    k_continuous: Optional[Verdict]


def topologize_globalization(
    scn: TopScenario,
    glob: Globalization,
    target: Optional[tuple[PartialAction, FiniteTopology, Mapping]] = None,
) -> TopGlobalization:
    """Push the topologies through the construction and report every verdict.

    Never raises on hypothesis failures: CA1/CA2, star-openness, and
    graph-openness are reported alongside the conclusions so callers can
    decide which implications they care about.  When ``target`` supplies a
    topologized global action and an equivariant map, the mediating map's
    continuity is reported as well.
    """
    yspace = quotient_space(scn, glob)
    top_y = yspace.to_topology()

    ca = check_continuous_action(scn)
    star = check_star_open(scn.category, scn.top_mor)
    graph = check_graph_open(scn)

    pt_space = Space.from_topology(scn.top_space)
    bad_embed = []
    for x in scn.action.carrier:
        img = {glob.embed[p] for p in pt_space.nbhd[x]}
        if not img <= yspace.nbhd[glob.embed[x]]:
            bad_embed.append(x)
    embed_cont = Verdict("embedding_continuous", tuple(bad_embed))

    mor_space = Space.from_topology(scn.top_mor)
    gamma_y = set(glob.action)
    bad_act = []
    for (g, rep) in sorted(gamma_y):
        out_nbhd = yspace.nbhd[glob.action[(g, rep)]]
        for gp in mor_space.nbhd[g]:
            for rp in yspace.nbhd[rep]:
                if (gp, rp) in gamma_y and glob.action[(gp, rp)] not in out_nbhd:
                    bad_act.append((g, rep))
    act_cont = Verdict("action_continuous", tuple(sorted(set(bad_act))))

    embed_open = check_embedding_open(scn, glob, top_y)

    k_cont = None
    if target is not None:
        t_act, t_top, j = target
        k = mediating(glob, t_act, j)
        t_space = Space.from_topology(t_top)
        bad_k = []
        for rep in yspace.carrier:
            img = {k[r] for r in yspace.nbhd[rep]}
            if not img <= t_space.nbhd[k[rep]]:
                bad_k.append(rep)
        k_cont = Verdict("mediating_continuous", tuple(bad_k))

    return TopGlobalization(top_y, ca, star, graph, embed_cont, act_cont, embed_open, k_cont)
