"""The receiver enumerator as it stood before the cell-by-cell search.

Kept verbatim as a test-only reference: ``enumerate_globalizations`` here
propagates forced values, prunes groupoid maps to bijections and re-checks
every functor law at the leaves.  ``tests/test_globalization.py`` requires
the library's enumerator to return an equal list on small inputs.  Nothing
under ``src/`` imports this module.
"""

import itertools

from pcat.action import PartialAction
from pcat.category import Category, composable_pairs, is_groupoid
from pcat.globalization import Pt, _canonical_key, _fresh_points, _require_c123


def _maps_for(cat, pairs, order, idx, assign, seeds, sets, groupoid):
    """Backtracking enumeration of per-morphism maps satisfying the functor laws.

    ``assign`` holds only fully-fixed morphisms (identities at the start);
    ``seeds`` holds the table entries each remaining morphism must extend.
    Values forced by composites with fixed morphisms are propagated before
    free slots are enumerated; a full functor-law check runs at the leaves.
    """
    if idx == len(order):
        for (a, b) in pairs:
            c = cat.comp[(a, b)]
            for z in sets[cat.dom[b]]:
                if assign[c][z] != assign[a][assign[b][z]]:
                    return
        yield {m: dict(assign[m]) for m in assign}
        return
    m = order[idx]
    src, dst = sets[cat.dom[m]], sets[cat.cod[m]]
    forced: dict = dict(seeds.get(m, {}))
    ok = True
    for (a, b), c in cat.comp.items():
        if a == m and m not in (b, c) and b in assign and c in assign:
            for z in sets[cat.dom[b]]:
                y, v = assign[b][z], assign[c][z]
                if forced.get(y, v) != v:
                    ok = False
                forced[y] = v
        if b == m and m not in (a, c) and a in assign and c in assign:
            amap = assign[a]
            for z in src:
                want = assign[c][z]
                pre = [u for u in sets[cat.dom[a]] if amap[u] == want]
                if not pre:
                    ok = False
                elif len(pre) == 1:
                    if forced.get(z, pre[0]) != pre[0]:
                        ok = False
                    forced[z] = pre[0]
    if not ok or not set(forced.values()) <= set(dst):
        return
    if groupoid and len(set(forced.values())) != len(forced):
        return
    free = sorted(z for z in src if z not in forced)
    for combo in itertools.product(sorted(dst), repeat=len(free)):
        full = dict(forced)
        full.update(zip(free, combo))
        if groupoid and len(set(full.values())) != len(full):
            continue
        assign[m] = full
        yield from _maps_for(cat, pairs, order, idx + 1, assign, seeds, sets, groupoid)
        del assign[m]


def enumerate_globalizations(
    cat: Category, act: PartialAction, max_size: int
) -> list[tuple[PartialAction, dict]]:
    """All global actions extending ``act`` on carriers up to ``max_size``.

    Results are pairs (target, j) with j an injective equivariant map; after
    relabeling, j can always be taken to be the inclusion of the original
    carrier, so targets live on the original points plus fresh ones, and
    duplicates differing only by a renaming of the fresh points are removed.
    For groupoid categories, per-morphism maps are pruned to bijections since
    global groupoid actions act bijectively.
    """
    if not 1 <= max_size <= 8:
        raise ValueError("max_size must be between 1 and 8")
    _require_c123(cat, act)
    X = list(act.carrier)
    trip_dom: dict[str, set] = {}
    for (g, x) in act.table:
        trip_dom.setdefault(g, set()).add(x)
    groupoid = is_groupoid(cat) is not None

    seen: dict[tuple, tuple[PartialAction, dict]] = {}
    for n in range(len(X), max_size + 1):
        aux = _fresh_points(X, n - len(X))
        Z = sorted(X + aux, key=str)
        obj_opts = []
        for e in cat.objects:
            base = frozenset(trip_dom.get(e, set()))
            extras = [z for z in Z if z not in base]
            opts = []
            for r in range(len(extras) + 1):
                for add in itertools.combinations(extras, r):
                    opts.append(base | set(add))
            obj_opts.append(opts)
        pairs = sorted(composable_pairs(cat))
        non_id = sorted(m for m in cat.morphisms if m not in cat.objects)
        for choice in itertools.product(*obj_opts):
            sets = dict(zip(cat.objects, choice))
            if set().union(*sets.values()) != set(Z):
                continue
            seeds: dict[str, dict] = {}
            seeds_ok = True
            for m in non_id:
                sm = {x: act.table[(m, x)] for x in trip_dom.get(m, set())}
                if not set(sm) <= sets[cat.dom[m]] or not set(sm.values()) <= sets[cat.cod[m]]:
                    seeds_ok = False
                    break
                seeds[m] = sm
            if not seeds_ok:
                continue
            assign: dict[str, dict] = {e: {z: z for z in sets[e]} for e in cat.objects}
            for maps in _maps_for(cat, pairs, non_id, 0, assign, seeds, sets, groupoid):
                table: dict[tuple[str, Pt], Pt] = {}
                for g in cat.morphisms:
                    for z, v in maps[g].items():
                        table[(g, z)] = v
                target = PartialAction(tuple(sorted(Z, key=str)), table)
                key = _canonical_key(target, X, aux)
                if key not in seen:
                    seen[key] = (target, {x: x for x in X})
    return [seen[k] for k in sorted(seen)]
