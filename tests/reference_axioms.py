"""The per-morphism forms of the axioms, kept as a test-only reference for
``pcat.action``.

The library decides C1-C4 on the partial table.  ``check_triple_axioms``
states the same axioms the way the paper writes them for a family of
partial maps, over each morphism's definedness domain, image and induced map
(a :class:`pcat.TripleForm`), and adds the groupoid forms GR1'-GR3' and the
bijectivity of each induced map with its inverse's.  The tests compare its
C1'-C4' with the library's C1-C4 as multisets of witnesses.  Nothing under
``src/`` imports this module.
"""

from pcat import AxiomReport, Category, TripleForm


def check_triple_axioms(cat: Category, t: TripleForm) -> AxiomReport:
    """Check the per-morphism forms of the axioms on a triple view.

    Always checks C1'-C4'; when ``cat.inverse`` is set it additionally checks
    the groupoid forms (GR1' and GR2' restate C1' and C2') plus GR3' and the
    bijectivity of each induced map with the inverse morphism's map.
    """
    dom_of = lambda g: t.domains.get(g, frozenset())
    img_of = lambda g: t.images.get(g, frozenset())
    map_of = lambda g: t.maps.get(g, {})

    c1: list[tuple] = []
    covered = set()
    for e in cat.objects:
        covered |= dom_of(e)
        for x, y in map_of(e).items():
            if y != x:
                c1.append((e, x))
    for x in t.carrier:
        if x not in covered:
            c1.append((x,))

    c2: list[tuple] = []
    for g in sorted(t.domains):
        if g not in cat.dom:
            raise ValueError(f"triple form references unknown morphism {g!r}")
        for x in sorted(dom_of(g) - dom_of(cat.dom[g])):
            c2.append((g, x))

    c3: list[tuple] = []
    for (g, h) in cat.composable:
        k = cat.comp.get((g, h))
        if k is None:
            continue
        lhs = dom_of(h) & dom_of(k)
        rhs = {x for x in dom_of(h) if map_of(h)[x] in dom_of(g)}
        for x in sorted(lhs ^ rhs):
            c3.append((g, h, x))
        for x in sorted(lhs & rhs):
            if map_of(g)[map_of(h)[x]] != map_of(k)[x]:
                c3.append((g, h, x))

    c4: list[tuple] = []
    for g in cat.morphisms:
        for x in sorted(dom_of(g) ^ dom_of(cat.dom[g])):
            c4.append((g, x))

    out = {"C1'": tuple(c1), "C2'": tuple(c2), "C3'": tuple(c3), "C4'": tuple(c4)}
    inverse = cat.inverse
    if inverse is not None:
        gr3: list[tuple] = []
        for (g, h) in cat.composable:
            k = cat.comp.get((g, h))
            if k is None:
                continue
            hi = inverse[h]
            lhs = {map_of(h)[x] for x in dom_of(h) & dom_of(k)}
            rhs = dom_of(g) & dom_of(hi)
            for x in sorted(lhs ^ rhs):
                gr3.append((g, h, x))
            for x in sorted(dom_of(h) & dom_of(k)):
                if map_of(h)[x] in dom_of(g) and map_of(g)[map_of(h)[x]] != map_of(k)[x]:
                    gr3.append((g, h, x))
        bij: list[tuple] = []
        for g in sorted(t.domains):
            gi = inverse[g]
            for x in sorted(img_of(g) ^ dom_of(gi)):
                bij.append((g, x))
            for x in sorted(dom_of(g)):
                y = map_of(g)[x]
                if map_of(gi).get(y) != x:
                    bij.append((g, x))
        out["GR1'"] = out["C1'"]
        out["GR2'"] = out["C2'"]
        out["GR3'"] = tuple(gr3)
        out["ALPHA_BIJ"] = tuple(bij)
    return AxiomReport(out)
