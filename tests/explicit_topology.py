"""Explicit-family routes kept as cross-check oracles for ``pcat.topology``.

The library holds finite topologies as minimal open neighborhoods and decides
every verdict point by point.  These functions do the same work the long way,
over spelled-out open families, so the tests can compare the two on small
carriers.  The ``*_points`` routes give the library's witnesses, the points
where a map fails to be continuous or open; the others list the witness opens
and serve as verdict oracles.
"""

import itertools

from pcat import FiniteTopology
from pcat.topology import _skey


def _fmt_set(u) -> tuple:
    return tuple(sorted(u, key=_skey))


def min_nbhd(t: FiniteTopology, p) -> frozenset:
    """Smallest open set containing ``p`` (the carrier if no finer open exists)."""
    out = frozenset(t.carrier)
    for u in t.opens:
        if p in u and u < out:
            out = u
    return out


def product_topology(a: FiniteTopology, b: FiniteTopology) -> FiniteTopology:
    """Explicit product topology: the union closure of the rectangles u x v
    over the opens u of ``a`` and v of ``b``.  Exponential in general, meant
    for small carriers.  Smaller rectangles come first, so a rectangle that
    is already a union of earlier ones adds nothing and is skipped."""
    opens = {frozenset()}
    rects = {frozenset(itertools.product(u, v)) for u in a.opens for v in b.opens}
    for r in sorted(rects, key=len):
        if r not in opens:
            opens |= {w | r for w in opens}
    return FiniteTopology(tuple(itertools.product(a.carrier, b.carrier)), frozenset(opens))


def subspace_topology(t: FiniteTopology, subset) -> FiniteTopology:
    """Traces of the opens on a subset of the carrier."""
    sub = frozenset(subset)
    if not sub <= set(t.carrier):
        raise ValueError("subset leaves the carrier")
    return FiniteTopology(
        tuple(p for p in t.carrier if p in sub),
        frozenset(u & sub for u in t.opens),
    )


def quotient_topology(t: FiniteTopology, class_of) -> FiniteTopology:
    """Finest topology on representatives making the projection continuous.

    Computed exactly: the opens are the images of the saturated opens.
    """
    members = {}
    for p in t.carrier:
        members.setdefault(class_of[p], set()).add(p)
    reps = tuple(sorted(members, key=_skey))
    opens = set()
    for u in t.opens:
        touched = {class_of[p] for p in u}
        if all(members[r] <= u for r in touched):
            opens.add(frozenset(touched))
    return FiniteTopology(reps, frozenset(opens))


def preimage_witnesses(f, dom: FiniteTopology, cod: FiniteTopology) -> tuple:
    """Opens of ``cod`` whose preimage under the partial map ``f`` is not open
    in the subspace topology that ``dom`` induces on the domain of ``f``."""
    traces = {u & frozenset(f) for u in dom.opens}
    bad = []
    for v in sorted(cod.opens, key=_fmt_set):
        if frozenset(p for p in f if f[p] in v) not in traces:
            bad.append(_fmt_set(v))
    return tuple(bad)


def point_witnesses(f, dom: FiniteTopology, cod: FiniteTopology) -> tuple:
    """Points x of the domain of the partial map ``f`` at which it is not
    continuous: some open V of ``cod`` around f(x) has no open U of ``dom``
    around x with U meeting the domain of ``f`` only inside the preimage of V."""
    bad = []
    for x in f:
        for v in cod.opens:
            if f[x] in v and not any(
                x in u and all(f[p] in v for p in u if p in f) for u in dom.opens
            ):
                bad.append(x)
                break
    return _fmt_set(bad)


def topological_category(cat, top_mor) -> tuple:
    return preimage_witnesses(cat.comp, product_topology(top_mor, top_mor), top_mor)


def topological_category_points(cat, top_mor) -> tuple:
    return point_witnesses(cat.comp, product_topology(top_mor, top_mor), top_mor)


def continuous_action_ca2(act, top_mor, top_space) -> tuple:
    square = product_topology(top_mor, top_space)
    return preimage_witnesses(act.table, square, top_space)


def continuous_action_ca2_points(act, top_mor, top_space) -> tuple:
    square = product_topology(top_mor, top_space)
    return point_witnesses(act.table, square, top_space)


def quotient_of(top_mor, top_space, glob) -> FiniteTopology:
    """The quotient topology on the classes, through explicit families only."""
    square = product_topology(top_mor, top_space)
    xbar = subspace_topology(square, glob.xbar.elements)
    return quotient_topology(xbar, dict(glob.class_of))


def embedding_open(top_mor, top_space, glob) -> tuple:
    top_y = quotient_of(top_mor, top_space, glob)
    bad = []
    for u in sorted(top_space.opens, key=_fmt_set):
        if frozenset(glob.embed[x] for x in u) not in top_y.opens:
            bad.append(_fmt_set(u))
    return tuple(bad)


def embedding_open_points(top_mor, top_space, glob) -> tuple:
    """Carrier points whose minimal neighborhood has a non-open image."""
    top_y = quotient_of(top_mor, top_space, glob)
    bad = []
    for x in top_space.carrier:
        if frozenset(glob.embed[p] for p in min_nbhd(top_space, x)) not in top_y.opens:
            bad.append(x)
    return _fmt_set(bad)
