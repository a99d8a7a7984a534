"""Universal globalization of a partial category action.

The construction: pair every morphism g with every point x whose dom(g)-step
is defined, relate pairs by a one-step relation generated from the action,
take the equivalence closure, and act on the classes by composing on the
left.  The embedded copy of the original carrier sits inside the quotient,
and every global action receiving the original action factors through it
uniquely.

The one-step relation has one form, bare (src, dst) pairs of
expanded-carrier elements.  The build reads its classes by one of two
routes, chosen by :func:`_classes`.  On an anchored groupoid action, each
point over exactly one object, the classes have a closed form:
(g, x) ~ (h, y) iff cod g = cod h and (h^-1 g).x = y.  Every other input
goes to the union-find :func:`equiv_closure`, over a generating set of the
relation streamed by :func:`_one_step`: for each defined step h.x = y, the
identity instance ((h, x), (cod h, y)) and the pairs ((g h, x), (g, y))
whose g.y is undefined, with the identity tags of a point chained rather
than paired off.  A pair with g.y = z defined is left out because C3 makes
(g h).x = z, so the identity instances of (g h, x) and (g, y) already join
both ends to an identity tag of z.  :func:`witness_traces` walks the same
stream.  :func:`sim_pairs` builds the full relation, sorted and
deduplicated, for the oracles alone, and :func:`naive_closure` saturates
it by an independent relational fixpoint.  All three must always agree.
"""

from __future__ import annotations

import itertools
from itertools import repeat
from operator import itemgetter
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from .category import Category
from .action import AxiomReport, PartialAction, Verdict, check_category_axioms

Pt = Any
El = tuple[str, Pt]


class AxiomError(ValueError):
    """Raised when a construction needs axioms that the input fails."""

    def __init__(self, message: str, report: AxiomReport):
        super().__init__(message)
        self.report = report


class MediationError(ValueError):
    """Raised when a mediating map is requested for unusable data."""


@dataclass(frozen=True)
class XBar:
    """The expanded carrier: all (morphism, point) pairs with a defined base step."""

    elements: tuple[El, ...]


@dataclass(frozen=True)
class SimRelation:
    """The full one-step relation: sorted, distinct (src, dst) pairs."""

    pairs: tuple[tuple[El, El], ...]


def _require_c123(cat: Category, act: PartialAction) -> None:
    rep = check_category_axioms(cat, act)
    if not rep.passed("C1", "C2", "C3"):
        raise AxiomError("globalization requires C1-C3 to hold", rep)


def build_xbar(cat: Category, act: PartialAction) -> XBar:
    """Enumerate the expanded carrier; requires C1-C3."""
    _require_c123(cat, act)
    t = act.table
    over = {d: [x for x in act.carrier if (d, x) in t] for d in {cat.dom[g] for g in cat.morphisms}}
    return XBar(tuple(sorted((g, x) for g in cat.morphisms for x in over[cat.dom[g]])))


def sim_pairs(cat: Category, act: PartialAction, xbar: XBar) -> SimRelation:
    """All non-reflexive one-step relations between expanded-carrier elements.

    Each (g, x) with g = g' h and h.x = y defined relates to (g', y), and
    every ordered pair of identity tags over one point is related.  Only
    the oracles use it: :func:`build_globalization` and
    :func:`witness_traces` read the generating subset :func:`_one_step`.
    """
    t = act.table
    out: set[tuple[El, El]] = set()
    els = set(xbar.elements)
    by_result: dict[str, list[tuple[str, str]]] = {}
    for (gp, h), g in cat.comp.items():
        by_result.setdefault(g, []).append((gp, h))
    for (g, x) in xbar.elements:
        for (gp, h) in by_result.get(g, ()):
            if (h, x) in t:
                dst = (gp, t[(h, x)])
                if dst not in els:
                    raise RuntimeError("one-step relation left the expanded carrier")
                if dst != (g, x):
                    out.add(((g, x), dst))
    for x in act.carrier:
        out.update(itertools.permutations([(e, x) for e in cat.objects if (e, x) in t], 2))
    return SimRelation(tuple(sorted(out)))


Partition = tuple[tuple[El, ...], ...]
# The C1-C4 report of every quotient action, by the globalization theorem.
_GLOBAL = AxiomReport({"C1": (), "C2": (), "C3": (), "C4": ()})


def _one_step(cat: Category, act: PartialAction) -> Iterator[tuple[El, El]]:
    """A generating set of the one-step relation, as bare (src, dst) pairs.

    Each defined step (h, x) -> y gives its identity instance
    ((h, x), (cod h, y)), and ((g h, x), (g, y)) for each g composable after
    h with g.y undefined; a point's identity tags are chained.  The pairs
    left out are implied: when g.y = z is defined, C3 (which
    :func:`build_xbar` requires) makes (g h).x = z, and the identity
    instances of the steps (g h, x) and (g, y) join both ends to an identity
    tag of z.  This relies on cod(h) h = h, which a lawful category
    guarantees.  No pair is reflexive: identity steps are skipped, and so
    are pairs with g h = g at a point h fixes; repeats are not filtered.
    """
    t = act.table
    cod, comp, after = cat.cod, cat.comp, cat.after
    # (object c, point y) -> the g out of c with g.y undefined
    missing: dict[El, tuple[str, ...]] = {}
    for (h, x), y in t.items():
        tag = (cod[h], y)
        if tag not in t:
            raise RuntimeError("one-step relation left the expanded carrier")
        if tag == (h, x):
            continue
        yield (h, x), tag
        gs = missing.get(tag)
        if gs is None:
            gs = missing[tag] = tuple(g for g, _ in after.get(tag[0], ()) if (g, y) not in t)
        for g in gs:
            # dom g = cod h, so g h is defined exactly when after[h] lists g.
            k = comp.get((g, h))
            if k is not None and (k != g or x != y):
                yield (k, x), (g, y)
    for x in act.carrier:
        tags = [(e, x) for e in cat.objects if (e, x) in t]
        yield from zip(tags, tags[1:])


def equiv_closure(xbar: XBar, sim: Iterable[tuple[El, El]]) -> Partition:
    """Partition the expanded carrier by the closure of the one-step relation.

    ``sim`` is any iterable of (src, dst) element pairs, such as the
    generating set of :func:`build_globalization`.  Union-find runs over the indices of
    ``xbar.elements``, looked up per morphism as ``idx[g][x]``, with path
    halving inlined; the lesser root wins.  Classes are sorted internally
    and listed by their least member.
    """
    idx: dict[str, dict[Pt, int]] = {}
    for i, (g, x) in enumerate(xbar.elements):
        idx.setdefault(g, {})[x] = i
    parent = list(range(len(xbar.elements)))
    for (f, x), (g, y) in sim:
        a = idx[f][x]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        b = idx[g][y]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # Roots are least indices, so parent[i] <= i: one forward pass finds them all.
    groups: dict[int, list[El]] = {}
    for i, el in enumerate(xbar.elements):
        parent[i] = root = parent[parent[i]]
        groups.setdefault(root, []).append(el)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def _anchored(cat: Category, act: PartialAction) -> bool:
    """Whether ``act`` is an anchored groupoid action: ``cat.inverse`` is set
    and every point has exactly one identity step (C1 gives at least one)."""
    if cat.inverse is None:
        return False
    t = act.table
    return sum((e, x) in t for e in cat.objects for x in act.carrier) == len(act.carrier)


def _classes(cat: Category, act: PartialAction, xbar: XBar) -> Partition:
    """The partition of :func:`build_globalization`, equal to
    ``equiv_closure(xbar, _one_step(cat, act))`` on every input.

    On an anchored groupoid action (:func:`_anchored`) it is read in closed
    form: the class of (g, x) is every (h, (h^-1 g).x) with cod h = cod g
    that is defined.

    Proof.  Let R be that relation.  Its (h, y), y = k.x with k = h^-1 g,
    lie in the expanded carrier, as C3 along (dom h, k) defines (dom h).y.
    A one-step pair ((h k, x), (h, k.x)) is in R, as h^-1 h k = k.
    Conversely, (g, x) R (h, y) gives g = h k, so ((h k, x), (h, k.x)) is
    itself one step; an anchored point has no second identity tag to join.
    R is an equivalence by C1 and C3: (g^-1 g).x = x; C3 along
    (g^-1 h, h^-1 g) turns (h^-1 g).x = y into (g^-1 h).y = x; and along
    (l^-1 h, h^-1 g) it turns (h^-1 g).x = y and (l^-1 h).y = z into
    (l^-1 g).x = z.  So R is the closure.

    The walk seeds each class at the first element of ``xbar.elements`` not
    yet placed, its least member, and lists members in sorted h, so classes
    come out sorted and in the order of their least members, as the
    union-find's do.  Members are ``xbar``'s own tuples.
    """
    if not _anchored(cat, act):
        return equiv_closure(xbar, _one_step(cat, act))
    inv, t = cat.inverse, act.table
    els = xbar.elements
    idx: dict[str, dict[Pt, int]] = {}
    for i, (g, x) in enumerate(els):
        idx.setdefault(g, {})[x] = i
    into: dict[str, list[str]] = {}
    for h in sorted(cat.morphisms):
        into.setdefault(cat.cod[h], []).append(h)
    # Per g: each h with cod h = cod g, in sorted order, with h^-1 g.
    lanes = {g: [(idx.get(h), cat.comp[(inv[h], g)]) for h in into[cat.cod[g]]] for g in idx}
    placed = [False] * len(els)
    classes = []
    for i, (g, x) in enumerate(els):
        if placed[i]:
            continue
        cls = []
        for at, k in lanes[g]:
            y = t.get((k, x))
            if y is not None:
                j = at[y]
                placed[j] = True
                cls.append(els[j])
        classes.append(tuple(cls))
    return tuple(classes)


def naive_closure(xbar: XBar, sim: SimRelation) -> Partition:
    """Oracle closure: saturate the symmetrized relation ``sim.pairs`` by
    joining chains.

    Kept free of union-find machinery on purpose so the two routes can be
    compared against each other.
    """
    succ: dict[El, set[El]] = {el: {el} for el in xbar.elements}
    for a, b in sim.pairs:
        succ[a].add(b)
        succ[b].add(a)
    changed = True
    while changed:
        changed = False
        for a in xbar.elements:
            extra = set()
            for b in succ[a]:
                extra |= succ[b]
            if not extra <= succ[a]:
                succ[a] |= extra
                changed = True
    seen: set[frozenset] = set()
    classes = []
    for el in xbar.elements:
        key = frozenset(succ[el])
        if key not in seen:
            seen.add(key)
            classes.append(tuple(sorted(key)))
    return tuple(sorted(classes))


@dataclass(frozen=True)
class Globalization:
    """The quotient action together with the facts its audit established.

    ``classes`` partitions the expanded carrier ``xbar``; ``action`` is keyed
    by (morphism, representative) and lists its keys in sorted order: g
    ascending, then the representatives in class order, which is their
    sorted order, as classes are listed by their least member; ``embed``
    realizes the original carrier inside the quotient; ``axioms`` is the
    all-pass C1-C4 report that the globalization theorem gives the quotient
    action.  ``class_of`` is derived from ``classes`` on first read.
    Witness chains are not stored: :func:`witness_traces` rebuilds them from
    the one-step stream on request.
    """

    category: Category
    source: PartialAction
    xbar: XBar
    classes: Partition
    action: Mapping[tuple[str, El], El]
    embed: Mapping[Pt, El]
    axioms: AxiomReport

    @cached_property
    def class_of(self) -> Mapping[El, El]:
        """Each expanded-carrier element to its class representative, the
        least member."""
        return {el: cls[0] for cls in self.classes for el in cls}

    def as_action(self) -> PartialAction:
        """The quotient action as a plain partial action on representatives."""
        return PartialAction(tuple(c[0] for c in self.classes), dict(self.action))


def witness_traces(glob: Globalization) -> dict[El, tuple]:
    """For each expanded-carrier element, a chain of one-step relations from
    its class representative.

    Each step is a pair (src, dst) of :func:`_one_step`, the generating set
    the construction unions, with a direction: (src, dst, "fwd") walks from
    src to dst and (src, dst, "rev") from dst to src.  The stream is
    recomputed here; the construction does not keep it.
    """
    adj: dict[El, list[tuple]] = {}
    for a, b in _one_step(glob.category, glob.source):
        adj.setdefault(a, []).append((b, (a, b, "fwd")))
        adj.setdefault(b, []).append((a, (a, b, "rev")))
    trace: dict[El, tuple] = {}
    for cls in glob.classes:
        rep = cls[0]
        trace[rep] = ()
        frontier = [rep]
        while frontier:
            nxt = []
            for a in frontier:
                for b, step in sorted(adj.get(a, ()), key=lambda s: s[0]):
                    if b in cls and b not in trace:
                        trace[b] = trace[a] + (step,)
                        nxt.append(b)
            frontier = nxt
        if any(m not in trace for m in cls):
            raise RuntimeError(f"class of {rep} is not connected by one-step relations")
    return trace


def build_globalization(cat: Category, act: PartialAction) -> Globalization:
    """Run the whole construction and audit the invariants its proof rests on.

    Requires a lawful category (else ``ValueError`` names a violation) and
    C1-C3.  The classes come from :func:`_classes`.  The induced action
    g.[h, x] = [g h, x] is read one member at a time: each member (h, x)
    fetches the classes of its (g h, x) in one call, over the g that
    ``cat.after`` lists alike for every h over one cod.  The audit checks
    that this vector is the same for every member over one cod (class
    invariance), that the embedding is injective and that every class is
    reached from the embedded carrier; a failure raises ``RuntimeError``.
    The vectors are then written column by column, g in sorted order, so
    that ``action`` lists its keys sorted.  The theorem then makes the
    induced action global (C3 is associativity of ``cat.comp``).
    """
    bad = cat.validation.violations
    if bad:
        more = f" (and {len(bad) - 1} more)" if len(bad) > 1 else ""
        raise ValueError(f"globalization requires a lawful category: {bad[0].detail}{more}")
    xbar = build_xbar(cat, act)
    classes = _classes(cat, act, xbar)
    # Per point x a list over morphism index m of the class of (m, x), with a
    # trailing None so that every fetch below is a tuple.
    m_index = {m: i for i, m in enumerate(cat.morphisms)}
    none = [None] * (len(m_index) + 1)
    class_at = {x: none.copy() for x in act.carrier}
    for cls in classes:
        rep = cls[0]
        for g, x in cls:
            class_at[x][m_index[g]] = rep

    # Per h: the g of cat.after[h], and one fetch of the classes of their g h.
    lanes: dict[str, tuple] = {}
    for h in cat.morphisms:
        pairs = cat.after.get(h, ())
        lanes[h] = tuple(g for g, _ in pairs), itemgetter(*(m_index[k] for _, k in pairs), len(m_index))
    cod = cat.cod
    # Per cod c: the g out of c, and the reps and vectors of the classes over c.
    rows: dict[str, tuple[tuple, list, list]] = {}
    for cls in classes:
        rep = cls[0]
        # The first member over each cod sets g.[rep] for its g; every later
        # member over that cod must give the same vector.
        first: dict[str, tuple] = {}
        for (h, x) in cls:
            gs, fetch = lanes[h]
            vec = fetch(class_at[x])
            ref = first.get(cod[h])
            if ref is None:
                first[cod[h]] = gs, vec
                _, reps, vecs = rows.setdefault(cod[h], (gs, [], []))
                reps.append(rep)
                vecs.append(vec)
            elif ref[1] != vec:
                # The first (g, class) that differs; a lawful category lists the same gs.
                diff = itertools.zip_longest(zip(*ref), zip(gs, vec), fillvalue=(None, None))
                g = next(a[0] or b[0] for a, b in diff if a != b)
                raise RuntimeError(f"action of {g} on {rep} is not class-invariant")
    # Each g is out of one cod; its column lists g.[rep] over that cod's reps.
    columns = {g: (reps, col) for gs, reps, vecs in rows.values() for g, col in zip(gs, zip(*vecs))}
    action: dict[tuple[str, El], El] = {}
    for g in sorted(columns):
        reps, col = columns[g]
        action.update(zip(zip(repeat(g), reps), col))

    embed: dict[Pt, El] = {}
    for x in act.carrier:
        at = class_at[x]
        reps = {at[m_index[e]] for e in cat.objects if (e, x) in act.table}
        if not reps:
            raise RuntimeError("C1 guarantees an identity step for every point")
        if len(reps) != 1:
            raise RuntimeError(f"identity tags of {x!r} fall in distinct classes")
        embed[x] = reps.pop()

    if len(set(embed.values())) != len(embed):
        raise RuntimeError("embedding is not injective")
    for cls in classes:
        g, x = cls[0]
        if action[(g, embed[x])] != cls[0]:
            raise RuntimeError("class unreachable from the embedded carrier")
    return Globalization(cat, act, xbar, classes, action, embed, _GLOBAL)


def check_g_function(f: Mapping, source: PartialAction, target: PartialAction) -> Verdict:
    """Check equivariance: every defined source step maps to a defined target step.

    Witnesses are the sorted (morphism, point) pairs where the image step is
    undefined or lands on the wrong point.  Raises ``ValueError`` if ``f`` is
    not a total map from the source carrier into the target carrier.
    """
    if set(f) != set(source.carrier):
        raise ValueError("map is not total on the source carrier")
    if not set(f.values()) <= set(target.carrier):
        raise ValueError("map leaves the target carrier")
    tt = target.table
    bad = [key for key, y in source.table.items() if tt.get((key[0], f[key[1]])) != f[y]]
    return Verdict("g_function", tuple(sorted(bad)))


def induces_source(
    cat: Category, source: PartialAction, target: PartialAction, j: Mapping
) -> Verdict:
    """Check that the target action restricted to the image of ``j`` is the source.

    Beyond equivariance, definedness must be reflected: whenever a target
    step starting on the image lands back on the image, the matching source
    step must already be defined with the matching value.  Receivers with
    this property are exactly the ones the injectivity statements about
    mediating maps quantify over; an equivariant injection alone does not
    suffice, since the target may connect image points the source keeps
    apart.  Witnesses are (morphism, point) pairs.
    """
    image = {j[x] for x in source.carrier}
    bad = []
    for g in cat.morphisms:
        for x in source.carrier:
            val = target.table.get((g, j[x]))
            if (g, x) in source.table:
                if val != j[source.table[(g, x)]]:
                    bad.append((g, x))
            elif val is not None and val in image:
                bad.append((g, x))
    return Verdict("induces_source", tuple(sorted(bad)))


def mediating(glob: Globalization, target: PartialAction, j: Mapping) -> dict[El, Pt]:
    """The unique equivariant map out of the quotient extending ``j``.

    ``target`` must be a global action over the same category and ``j`` an
    equivariant map from the original action into it (else ``MediationError``).
    A ``j`` that is not total on the source carrier, or that leaves the
    target carrier, raises a plain ``ValueError`` from
    :func:`check_g_function`.
    """
    if not check_category_axioms(glob.category, target).all_pass:
        raise MediationError("mediating requires a global target action")
    j_rep = check_g_function(j, glob.source, target)
    if not j_rep.ok:
        raise MediationError(f"j is not equivariant; witnesses {j_rep.witnesses}")
    return _mediate(glob, target, j)


def _mediate(glob: Globalization, target: PartialAction, j: Mapping) -> dict[El, Pt]:
    """:func:`mediating` for receivers that meet its contract by construction,
    as those of :func:`enumerate_globalizations` do.  The value on a class is
    its representative's tag applied to the embedded point, so the theorem
    makes the map equivariant; ``RuntimeError`` if it does not extend ``j``.
    """
    k: dict[El, Pt] = {}
    for cls in glob.classes:
        g, x = cls[0]
        val = target.table.get((g, j[x]))
        if val is None:
            raise RuntimeError("globality of the target must define this step")
        k[cls[0]] = val
    if any(k[glob.embed[x]] != j[x] for x in glob.source.carrier):
        raise RuntimeError("mediating map does not extend j")
    return k


def mediating_candidates(glob: Globalization, target: PartialAction, j: Mapping) -> list[dict]:
    """Every equivariant map out of the quotient that extends ``j``.

    Exhaustive: values on embedded classes are pinned by ``j``; the others
    are assigned depth-first in ``itertools.product`` order, and a partial
    assignment is dropped once an equivariance instance among its assigned
    classes fails.  Each instance is checked at the depth that decides it,
    so every complete assignment that survives is equivariant.  Intended
    for desk-scale uniqueness audits.  One call of :func:`_candidate_search`,
    whose set-up a receiver sweep builds once.
    """
    return _candidate_search(glob, j)(target)


def _candidate_search(glob: Globalization, j: Mapping) -> Callable[[PartialAction], list[dict]]:
    """The search of :func:`mediating_candidates` for a fixed ``glob`` and
    ``j``, as a function of the target.  The pinned values, the order of the
    free classes and the instances each depth decides are built here, once;
    the returned function runs the exhaustive search on one target."""
    pinned = {glob.embed[x]: j[x] for x in glob.source.carrier}
    free = [c[0] for c in glob.classes if c[0] not in pinned]
    images = set(pinned.values())
    # The instance (g, x) -> y is decided once the later of x and y is assigned.
    depth = {r: i for i, r in enumerate(free, 1)}
    checks: list[list] = [[] for _ in range(len(free) + 1)]
    for (g, x), y in glob.action.items():
        checks[max(depth.get(x, 0), depth.get(y, 0))].append((g, x, y))

    def search(target: PartialAction) -> list[dict]:
        if (target.carrier or not free) and not images <= set(target.carrier):
            # Some candidate exists, and every one leaves the target carrier.
            raise ValueError("map leaves the target carrier")
        step = target.table.get
        cand = dict(pinned)
        found = []

        def extend(i: int) -> None:
            if any(step((g, cand[x])) != cand[y] for g, x, y in checks[i]):
                return
            if i == len(free):
                found.append(dict(cand))
                return
            for v in target.carrier:
                cand[free[i]] = v
                extend(i + 1)

        extend(0)
        return found

    return search


def _fresh_points(existing, count: int) -> list[str]:
    out = []
    i = 0
    taken = {str(x) for x in existing}
    while len(out) < count:
        name = f"w{i}"
        if name not in taken:
            out.append(name)
        i += 1
    return out


def _functors(cat: Category, sets: Mapping[str, set], act: PartialAction) -> Iterator[dict]:
    """Every global action on the object sets ``sets`` that extends ``act``,
    one per orbit of the renamings of fresh points that fix ``sets``.

    A table is a vector of cells (m, z), z in ``sets[dom m]``, in sorted
    morphism order and z ascending by ``str``, with identity rows fixed.
    Each instance F(g h)(x) = F(g)(F(h)(x)) of non-identity g and h
    propagates as soon as two of its three cells are known: the third is
    derived, and a derived value that clashes with a set cell prunes the
    branch.  The cells of ``act`` are set first; one depth-first search then
    branches on each cell still unset, values ascending, and a trail undoes
    each branch.  Cells of morphisms in some instance come first, in cell
    order; the cells of a morphism in no such instance come last, as they
    have no law to check.

    The renamings that fix ``sets`` permute fresh points (those outside
    ``act.carrier``) of equal fibre signature.  A table is kept iff none of
    them gives a lexicographically smaller vector, and a branch is cut once
    a swap of two fresh points makes every completion smaller.  Yields each
    kept table as the search completes it, keyed by (morphism, point), rows
    in ``cat.morphisms`` order.
    """
    objects = set(cat.objects)
    pts = sorted(set().union(*sets.values()), key=str)
    pid = {p: i for i, p in enumerate(pts)}
    instances = [
        (g, h, k) for h, gks in cat.after.items() if h not in objects for g, k in gks if g not in objects
    ]
    linked = {m for inst in instances for m in inst}

    # by_value[h][y] lists the points x with F(h)(x) = y set so far.
    by_value = {h: [[] for _ in pts] for _, h, _ in instances}

    def row_points(m: str) -> list:
        # Points in carrier order (sorted by str), whatever their type or the hash seed.
        return sorted(sets[cat.dom[m]], key=str)

    # Cell c is (m, z) for the m with row[m][pid[z]] == c: cell_row[c] is
    # row[m], cell_pt[c] is pid[z], val[c] its value (-1 while unset) and
    # hits[c] is by_value[m].  Identity rows are set from the start.
    row: dict[str, list[int]] = {}
    cell_row: list[list[int]] = []
    cell_pt: list[int] = []
    values: list[list[int]] = []
    val: list[int] = []
    hits: list[Optional[list]] = []
    branch: list[int] = []
    free: list[int] = []
    for m in sorted(cat.morphisms):
        row[m] = r = [-1] * len(pts)
        opts = [pid[v] for v in sorted(sets[cat.cod[m]], key=str)]
        for z in row_points(m):
            c = r[pid[z]] = len(cell_pt)
            cell_row.append(r)
            cell_pt.append(pid[z])
            values.append(opts)
            hits.append(by_value.get(m))
            val.append(pid[z] if m in objects else -1)
            if m not in objects:
                (branch if m in linked else free).append(c)
    keys = [(m, z) for m in cat.morphisms for z in row_points(m)]
    cells = [row[m][pid[z]] for m, z in keys]

    # Each cell's roles in the instances: F(h)(x) in as_h, a cell of g's row
    # in as_g and F(g h)(x) in as_k.
    as_h: list[list] = [[] for _ in val]
    as_g: list[list] = [[] for _ in val]
    as_k: list[list] = [[] for _ in val]
    for g, h, k in instances:
        for x in sets[cat.dom[h]]:
            a, kc = row[h][pid[x]], row[k][pid[x]]
            as_h[a].append((row[g], kc))
            as_k[kc].append((a, row[g]))
        for y in sets[cat.dom[g]]:
            as_g[row[g][pid[y]]].append((by_value[h][pid[y]], row[k]))
    trail: list[int] = []
    stack: list[int] = []

    def put(c: int, v: int) -> bool:
        """Set an unset cell c to v and queue it; False when c holds another value."""
        if val[c] >= 0:
            return val[c] == v
        val[c] = v
        trail.append(c)
        if hits[c] is not None:
            hits[c][v].append(cell_pt[c])
        stack.append(c)
        return True

    def assign(c: int, v: int) -> bool:
        """Set cell c to v with every value it forces; False on a clash,
        which leaves cells queued and set for :func:`undo`."""
        stack.clear()
        if not put(c, v):
            return False
        while stack:
            c = stack.pop()
            v = val[c]
            for g_row, kc in as_h[c]:
                b = g_row[v]
                if val[b] >= 0:
                    if not put(kc, val[b]):
                        return False
                elif val[kc] >= 0 and not put(b, val[kc]):
                    return False
            for xs, k_row in as_g[c]:
                for x in xs:
                    if not put(k_row[x], v):
                        return False
            for a, g_row in as_k[c]:
                y = val[a]
                if y >= 0 and not put(g_row[y], v):
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            c = trail.pop()
            if hits[c] is not None:
                hits[c][val[c]].pop()
            val[c] = -1

    for (m, z), v in act.table.items():
        if m not in objects and not assign(row[m][pid[z]], pid[v]):
            return
    order = branch + free

    # The renamings that fix ``sets`` permute fresh points of one fibre
    # signature.  Each is held as (to, src): to[p] is the image of point p,
    # and the renamed table holds at cell c the image of the value at src[c].
    carrier = set(act.carrier)
    groups: dict[tuple, list[int]] = {}
    for p in pts:
        if p not in carrier:
            groups.setdefault(tuple(p in sets[e] for e in cat.objects), []).append(pid[p])

    def renaming(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
        to, back = list(range(len(pts))), list(range(len(pts)))
        for p, q in pairs:
            to[p], back[q] = q, p
        return to, [r[back[p]] for r, p in zip(cell_row, cell_pt)]

    stabilizer = itertools.product(*(itertools.permutations(ps) for ps in groups.values()))
    renamings = [
        renaming(zip(itertools.chain(*groups.values()), itertools.chain(*images)))
        for images in itertools.islice(stabilizer, 1, None)
    ]
    swaps = [renaming([(p, q), (q, p)]) for ps in groups.values() for p, q in itertools.combinations(ps, 2)]

    def beaten(moves: list[tuple[list[int], list[int]]]) -> bool:
        """Whether one of the renamings ``moves`` makes every completion of
        the set cells lexicographically smaller: it does on the first cell
        where the renamed vector differs, if every cell it reads so far is
        set.  On a full table this is the plain lexicographic test."""
        for to, src in moves:
            for c, v in enumerate(val):
                w = val[src[c]]
                if v < 0 or w < 0:
                    break
                if to[w] != v:
                    if to[w] < v:
                        return True
                    break
        return False

    def fill(i: int) -> Iterator[dict]:
        while i < len(order) and val[order[i]] >= 0:
            i += 1
        if i == len(order):
            if not beaten(renamings):
                yield dict(zip(keys, [pts[val[c]] for c in cells]))
            return
        c, mark = order[i], len(trail)
        for v in values[c]:
            if assign(c, v) and not beaten(swaps):
                yield from fill(i + 1)
            undo(mark)

    yield from fill(0)


def enumerate_globalizations(
    cat: Category, act: PartialAction, max_size: int
) -> list[tuple[PartialAction, dict]]:
    """All global actions extending ``act`` on carriers up to ``max_size``.

    Results are pairs (target, j) with j an injective equivariant map; after
    relabeling, j can always be taken to be the inclusion of the original
    carrier, so targets live on the original points plus fresh ones, one per
    renaming class of the fresh points.  A fibre choice is searched only when
    it is the first of its renaming class, and :func:`_functors` yields one
    table per orbit of the renamings that fix the choice, so no two
    receivers are isomorphic.  The list is in the order the search makes
    them: carrier size ascending, then fibre choices in product order, then
    each choice's tables in depth-first order.  It is the whole of
    :func:`_receivers`, which the sweeps draw from one receiver at a time.
    Raises ``ValueError`` for a ``max_size`` outside 1-8, then
    :class:`AxiomError` when C1-C3 fail.
    """
    if not 1 <= max_size <= 8:
        raise ValueError("max_size must be between 1 and 8")
    _require_c123(cat, act)
    return list(_receivers(cat, act, max_size))


def _receivers(cat: Category, act: PartialAction, max_size: int) -> Iterator[tuple[PartialAction, dict]]:
    """The receivers of :func:`enumerate_globalizations`, in its order, each
    made as the search reaches it; j is the inclusion in every one.  Its
    callers check the input: :func:`enumerate_globalizations` the bound and
    C1-C3, and each sweep builds the globalization, which checks C1-C3,
    before it draws receivers up to a bound within 1-8.  So each step
    (g, x) -> y of ``act`` has x over dom g by C2 and y over cod g by C3,
    and every fibre choice, which contains those base sets, holds it."""
    X = list(act.carrier)
    trip_dom: dict[str, set] = {}
    for (g, x) in act.table:
        trip_dom.setdefault(g, set()).add(x)

    for n in range(len(X), max_size + 1):
        aux = _fresh_points(X, n - len(X))
        Z = sorted(X + aux, key=str)
        carrier = tuple(Z)
        fresh = [z for z in Z if z in aux]
        obj_opts = []
        for e in cat.objects:
            base = frozenset(trip_dom.get(e, set()))
            extras = [z for z in Z if z not in base]
            opts = []
            for r in range(len(extras) + 1):
                for add in itertools.combinations(extras, r):
                    opts.append(base | set(add))
            obj_opts.append(opts)
        for choice in itertools.product(*obj_opts):
            sets = dict(zip(cat.objects, choice))
            if set().union(*sets.values()) != set(Z):
                continue
            # Renaming fresh points renames a choice's receivers.  A choice is
            # the first of its renaming class in product order exactly when its
            # fresh points, in Z order, have non-increasing fibre memberships.
            sig = [[z in s for s in choice] for z in fresh]
            if any(a < b for a, b in zip(sig, sig[1:])):
                continue
            for table in _functors(cat, sets, act):
                yield PartialAction(carrier, table), {x: x for x in X}
