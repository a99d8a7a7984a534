"""Seeded randomized cross-check suites backing the ``oracle`` CLI command.

Every suite pits two independent routes against each other: the union-find
closure of the generating one-step pairs that ``build_globalization`` closes
vs naive chain saturation of the full one-step relation, category-action
axioms vs groupoid-action axioms, quotient construction vs exhaustively
enumerated receivers, and the C1-C3 verdicts vs direct one-object
group/monoid checks.  All randomness flows through an injected
``random.Random`` so runs are reproducible from a seed.  Enumerated
receivers meet the contract of ``mediating`` by construction and are not
re-checked; relabeled quotients are.  A sweep takes its receivers one at a
time as the enumerator makes them, and builds the candidate search's set-up
once: it depends only on the quotient and j, the inclusion in every one.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .category import Category
from .action import PartialAction, check_category_axioms, check_groupoid_axioms
from . import fixtures
from .globalization import (
    _anchored,
    _candidate_search,
    _classes,
    _fresh_points,
    _mediate,
    _one_step,
    _receivers,
    build_xbar,
    build_globalization,
    equiv_closure,
    induces_source,
    mediating,
    naive_closure,
    sim_pairs,
)
from .topology import (
    FiniteTopology,
    Space,
    TopScenario,
    check_continuous_action,
    check_embedding_open,
    check_graph_open,
    check_star_open,
)


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one randomized suite: case count and failure descriptions."""

    name: str
    cases: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


# --- small-structure generators -------------------------------------------

_GROUP_TABLES = {
    "z1": [[0]],
    "z2": [[0, 1], [1, 0]],
    "z3": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "z4": [[(i + j) % 4 for j in range(4)] for i in range(4)],
    "klein": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    "s3": [
        [0, 1, 2, 3, 4, 5],
        [1, 2, 0, 4, 5, 3],
        [2, 0, 1, 5, 3, 4],
        [3, 5, 4, 0, 2, 1],
        [4, 3, 5, 1, 0, 2],
        [5, 4, 3, 2, 1, 0],
    ],
}


def _table_category(table: list[list[int]]) -> Category:
    """The one-object category of a multiplication table whose element 0 is
    the identity e; element i > 0 is the arrow m{i}."""
    n = len(table)
    ids = ["e"] + [f"m{i}" for i in range(1, n)]
    arrows = {m: ("e", "e") for m in ids[1:]}
    comp = {(ids[i], ids[j]): ids[table[i][j]] for i in range(1, n) for j in range(1, n)}
    return Category.make(["e"], arrows, comp)


# Library categories are built once per process and shared with their cached facts.
@functools.cache
def group_category(name: str) -> Category:
    """One-object category for a named group; element 0 is the identity."""
    return _table_category(_GROUP_TABLES[name])


@functools.cache
def connected_groupoid(n_objects: int, group: str) -> Category:
    """A groupoid with ``n_objects`` pairwise-isomorphic objects over a group.

    Morphisms o_j -> o_i are labeled by group elements; composition
    multiplies the labels.
    """
    table = _GROUP_TABLES[group]
    n = len(table)
    objs = [f"o{i}" for i in range(n_objects)]

    def name(i, j, h):
        if i == j and h == 0:
            return objs[i]
        return f"a{i}_{j}_{h}"

    arrows = {}
    for i in range(n_objects):
        for j in range(n_objects):
            for h in range(n):
                if i == j and h == 0:
                    continue
                arrows[name(i, j, h)] = (objs[j], objs[i])
    comp = {}
    for i in range(n_objects):
        for j in range(n_objects):
            for k in range(n_objects):
                for h1 in range(n):
                    for h2 in range(n):
                        a, b = name(i, j, h1), name(j, k, h2)
                        if a in arrows and b in arrows:
                            comp[(a, b)] = name(i, k, table[h1][h2])
    return Category.make(objs, arrows, comp)


@functools.cache
def chain_category() -> Category:
    """Three objects in a row with a composite arrow: a -> b -> c."""
    return Category.make(
        ["a", "b", "c"],
        {"p": ("a", "b"), "q": ("b", "c"), "qp": ("a", "c")},
        {("q", "p"): "qp"},
    )


def random_monoid(rng: random.Random) -> Category:
    """A one-object category from a random associative table with identity.

    Rejection-samples small tables; falls back to a library group when no
    associative table shows up within 400 draws.
    """
    n = rng.choice([2, 3, 3])
    for _ in range(400):
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            table[0][i] = i
            table[i][0] = i
        for i in range(1, n):
            for j in range(1, n):
                table[i][j] = rng.randrange(n)
        if all(
            table[table[i][j]][k] == table[i][table[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            return _table_category(table)
    return group_category(rng.choice(["z2", "z3"]))


def random_groupoid(rng: random.Random) -> Category:
    """A library-shaped random groupoid with at most eight morphisms."""
    group, n_obj = rng.choice(
        [("z1", 1), ("z2", 1), ("z3", 1), ("z4", 1), ("klein", 1), ("s3", 1), ("z1", 2), ("z2", 2)]
    )
    return connected_groupoid(n_obj, group)


def random_category(rng: random.Random) -> Category:
    """A category from the mixed library: fixtures, chains, monoids, groupoids."""
    pick = rng.randrange(5)
    if pick == 0:
        return fixtures.arrow_category()
    if pick == 1:
        return fixtures.iso_groupoid()
    if pick == 2:
        return chain_category()
    if pick == 3:
        return random_monoid(rng)
    return random_groupoid(rng)


def random_points(rng: random.Random, max_points: int = 6) -> tuple[str, ...]:
    return tuple(str(i) for i in range(1, rng.randint(1, max_points) + 1))


def random_table(rng: random.Random, cat: Category, points, density: float) -> PartialAction:
    """A raw table with no axiom guarantees: identity rows are biased toward
    fixing their point, everything else is uniform noise."""
    table = {}
    for g in cat.morphisms:
        for x in points:
            if rng.random() < density:
                if g in cat.objects and rng.random() < 0.8:
                    table[(g, x)] = x
                else:
                    table[(g, x)] = rng.choice(points)
    return PartialAction(tuple(sorted(points)), table)


def random_valid_action(
    rng: random.Random, cat: Category, points, density: float = 0.4
) -> Optional[PartialAction]:
    """A table repaired to satisfy C1-C3, or None when repair fails to settle
    within 60 rounds.

    Repair alternates: force identity rows to fix their points, add the
    base step each defined step needs, and close definedness along
    composites; on a value conflict the non-identity culprit is dropped.
    """
    objs = set(cat.objects)
    table: dict[tuple[str, str], str] = {}
    for x in points:
        for e in rng.sample(sorted(objs), rng.randint(1, len(objs))):
            table[(e, x)] = x
    for g in cat.morphisms:
        if g in objs:
            continue
        for x in points:
            if rng.random() < density:
                table[(g, x)] = rng.choice(points)

    states = set()
    for _ in range(60):
        # A round is a function of the ordered table: a repeat never settles.
        state = tuple(table.items())
        if state in states:
            return None
        states.add(state)
        changed = False
        for (f, x), v in list(table.items()):
            if f in objs and v != x:
                del table[(f, x)]
                changed = True
        for (g, x) in list(table):
            if (cat.dom[g], x) not in table:
                table[(cat.dom[g], x)] = x
                changed = True
        for (g, h) in cat.composable:
            k = cat.comp[(g, h)]
            for x in points:
                if (h, x) not in table:
                    continue
                y = table[(h, x)]
                a = table.get((k, x))
                b = table.get((g, y))
                if a is None and b is None:
                    continue
                if a is None:
                    if k in objs and b != x:
                        del table[(g, y)]
                    else:
                        table[(k, x)] = b
                    changed = True
                elif b is None:
                    if g in objs and a != y:
                        del table[(k, x)]
                    else:
                        table[(g, y)] = a
                    changed = True
                elif a != b:
                    del table[(k, x) if k not in objs else (g, y)]
                    changed = True
        if not changed:
            break
    else:
        return None
    act = PartialAction(tuple(sorted(points)), table)
    rep = check_category_axioms(cat, act)
    if not rep.passed("C1", "C2", "C3"):
        return None
    return act


def random_topology(rng: random.Random, carrier) -> FiniteTopology:
    """A random topology: sometimes discrete or indiscrete, else the closure
    of a few random subsets under union and intersection."""
    pts = sorted(set(carrier))
    roll = rng.random()
    if roll < 0.3:
        return Space.discrete(pts).to_topology()
    if roll < 0.45:
        return FiniteTopology.make(pts, [pts])
    opens = {frozenset(), frozenset(pts)}
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, len(pts))
        opens.add(frozenset(rng.sample(pts, size)))
    changed = True
    while changed:
        changed = False
        for a in list(opens):
            for b in list(opens):
                for u in (a | b, a & b):
                    if u not in opens:
                        opens.add(u)
                        changed = True
    return FiniteTopology(tuple(pts), frozenset(opens))


# --- direct one-object axiom checkers (group / monoid statements) ---------


def group_axioms_direct(cat: Category, act: PartialAction) -> bool:
    """The three group-action axioms checked verbatim on a one-object groupoid."""
    inv = cat.inverse
    if len(cat.objects) != 1 or inv is None:
        raise ValueError("group axioms need a one-object groupoid")
    e = cat.objects[0]
    t = act.table
    if not all(t.get((e, x)) == x for x in act.carrier):
        return False
    for (g, x), y in t.items():
        if t.get((inv[g], y)) != x:
            return False
    for g in cat.morphisms:
        for h in cat.morphisms:
            for x in act.carrier:
                if (h, x) in t and (g, t[(h, x)]) in t:
                    if t.get((cat.comp[(g, h)], x)) != t[(g, t[(h, x)])]:
                        return False
    return True


def monoid_axioms_direct(cat: Category, act: PartialAction) -> bool:
    """The two monoid-action axioms checked verbatim on a one-object category."""
    if len(cat.objects) != 1:
        raise ValueError("monoid axioms need a one-object category")
    e = cat.objects[0]
    t = act.table
    if not all(t.get((e, x)) == x for x in act.carrier):
        return False
    for g in cat.morphisms:
        for h in cat.morphisms:
            k = cat.comp[(g, h)]
            for x in act.carrier:
                if (h, x) not in t:
                    continue
                comp_def = (k, x) in t
                step_def = (g, t[(h, x)]) in t
                if comp_def != step_def:
                    return False
                if comp_def and t[(k, x)] != t[(g, t[(h, x)])]:
                    return False
    return True


# --- suites ----------------------------------------------------------------


def suite_closure_equivalence(seed: int, cases: int = 500) -> SuiteResult:
    """:func:`equiv_closure` over the generating one-step pairs that
    :func:`build_globalization` closes must equal the naive saturation of the
    full one-step relation, on fixtures and random valid actions
    (morphisms <= 8, points <= 6).  The pairs the generating set leaves out
    are implied only by C3, so this checks that argument too.  On an
    anchored groupoid action the closed-form classes the build reads must
    equal it as well."""
    rng = random.Random(seed)
    failures = []
    ran = 0

    def check(cat: Category, act: PartialAction, where: str, tail: str = "") -> None:
        xbar = build_xbar(cat, act)
        naive = naive_closure(xbar, sim_pairs(cat, act, xbar))
        if equiv_closure(xbar, _one_step(cat, act)) != naive:
            failures.append(f"{where}: closures disagree{tail}")
        if _anchored(cat, act) and _classes(cat, act, xbar) != naive:
            failures.append(f"{where}: closed-form classes and naive closure disagree{tail}")

    for name, make in fixtures.FIXTURES.items():
        ran += 1
        check(*make(), f"fixture {name}")
    while ran < cases + len(fixtures.FIXTURES):
        cat = random_category(rng)
        act = random_valid_action(rng, cat, random_points(rng), rng.uniform(0.15, 0.8))
        if act is None:
            continue
        ran += 1
        check(cat, act, f"case {ran}", f" (seed {seed})")
    return SuiteResult("closure-equivalence", ran, tuple(failures))


def suite_axiom_equivalence(seed: int, cases: int = 500, one_object_cases: int = 250) -> SuiteResult:
    """Category-action axioms C1-C3 must hold exactly when the groupoid-action
    axioms GR1-GR3 do, and one-object verdicts must match the direct group
    and monoid checks."""
    rng = random.Random(seed)
    failures = []
    ran = 0
    for _ in range(cases):
        cat = random_groupoid(rng)
        if cat.inverse is None or not cat.validation.ok:
            raise RuntimeError("random_groupoid produced an invalid groupoid")
        points = random_points(rng)
        if rng.random() < 0.5:
            act = random_table(rng, cat, points, rng.uniform(0.1, 0.9))
        else:
            act = random_valid_action(rng, cat, points, rng.uniform(0.15, 0.8))
            if act is None:
                act = random_table(rng, cat, points, 0.5)
        ran += 1
        c = check_category_axioms(cat, act)
        gr = check_groupoid_axioms(cat, act)
        if c.passed("C1", "C2", "C3") != gr.passed("GR1", "GR2", "GR3"):
            failures.append(f"case {ran}: C1-C3 and GR1-GR3 verdicts differ (seed {seed})")

    for _ in range(one_object_cases):
        gname = rng.choice(["z1", "z2", "z3", "z4", "klein", "s3"])
        cat = group_category(gname)
        points = random_points(rng)
        act = random_table(rng, cat, points, rng.uniform(0.2, 0.95))
        ran += 1
        c = check_category_axioms(cat, act)
        if c.passed("C1", "C2", "C3") != group_axioms_direct(cat, act):
            failures.append(f"group case {ran}: direct check disagrees (seed {seed})")

    for _ in range(one_object_cases):
        cat = random_monoid(rng)
        points = random_points(rng)
        act = random_table(rng, cat, points, rng.uniform(0.2, 0.95))
        ran += 1
        c = check_category_axioms(cat, act)
        if c.passed("C1", "C2", "C3") != monoid_axioms_direct(cat, act):
            failures.append(f"monoid case {ran}: direct check disagrees (seed {seed})")
    return SuiteResult("axiom-equivalence", ran, tuple(failures))


def _relabel_as_extension(glob) -> PartialAction:
    """The quotient action relabeled so the embedding is the inclusion.

    Embedded classes take their source point's name; the rest take fresh
    names in the sorted order of their representatives.  The universality
    and groupoid suites mediate into it as the quotient's own receiver."""
    inv = {rep: x for x, rep in glob.embed.items()}
    extra = [c[0] for c in glob.classes if c[0] not in inv]
    fresh = _fresh_points(glob.source.carrier, len(extra))
    names = dict(inv)
    names.update(dict(zip(sorted(extra), fresh)))
    table = {(g, names[src]): names[dst] for (g, src), dst in glob.action.items()}
    carrier = tuple(sorted(names.values(), key=str))
    return PartialAction(carrier, table)


def _receiver_bound(classes: int, carrier: int, max_size: Optional[int]) -> int:
    """The largest receiver carrier a sweep enumerates: one point past the
    quotient, capped by ``max_size`` when given, and never below the source
    carrier, which every receiver contains."""
    top = classes + 1 if max_size is None else min(classes + 1, max_size)
    return max(top, carrier)


def _sweep(glob, bound: int) -> Iterator[tuple[PartialAction, dict, Optional[str]]]:
    """Each receiver of the quotient's source up to ``bound``, drawn one at a
    time, with the mediating map k into it and the failure line when k is
    not the only equivariant map that the candidate search finds (else
    None).  The search is set up once, for j the inclusion."""
    act = glob.source
    search = _candidate_search(glob, {x: x for x in act.carrier})
    for target, j in _receivers(glob.category, act, bound):
        k = _mediate(glob, target, j)
        cands = search(target)
        failure = None
        if len(cands) != 1 or cands[0] != k:
            failure = f"receiver admits {len(cands)} factorizations"
        yield target, k, failure


def suite_universality(max_size: Optional[int] = None) -> SuiteResult:
    """Every enumerated receiver admits exactly one equivariant factorization.

    For each fixture, enumeration runs up to one point beyond the quotient
    size (capped by ``max_size``); the mediating map must be the only
    equivariant extension of the inclusion.  The quotient itself must appear
    among the receivers, reflect definedness (see ``induces_source``), and
    receive a bijective mediating map from itself.  A receiver is a copy of
    the quotient when its mediating map k is bijective and it has as many
    steps as the quotient: k is equivariant, so it then maps the quotient's
    steps one-to-one onto the receiver's and is an isomorphism fixing the
    carrier.  One pass takes the receivers one at a time and mediates into
    each once; a fixture's lines come in the order quotient missing,
    reflection, bijection, then its receivers in enumeration order."""
    failures = []
    ran = 0
    for name, make in fixtures.FIXTURES.items():
        cat, act = make()
        glob = build_globalization(cat, act)
        size = len(glob.classes)
        bound = _receiver_bound(size, len(act.carrier), max_size)
        ident = {x: x for x in act.carrier}
        missing = bound >= size
        lines = []
        for target, k, failure in _sweep(glob, bound):
            ran += 1
            if (
                missing
                and len(target.carrier) == size
                and len(target.table) == len(glob.action)
                and len(set(k.values())) == size
            ):
                missing = False
            if failure:
                lines.append(f"{name}: {failure}")
        if missing:
            failures.append(f"{name}: quotient missing from enumerated receivers")
        y_relabeled = _relabel_as_extension(glob)
        if not induces_source(cat, act, y_relabeled, ident).ok:
            failures.append(f"{name}: quotient does not reflect definedness")
        k_self = mediating(glob, y_relabeled, ident)
        if sorted(k_self.values(), key=str) != sorted(y_relabeled.carrier, key=str):
            failures.append(f"{name}: mediating map onto the quotient itself is not bijective")
        failures += lines
    return SuiteResult("universality", ran, tuple(failures))


def suite_groupoid_injectivity(
    seed: int, max_size: Optional[int] = None, cases: int = 40
) -> SuiteResult:
    """Injectivity facts about mediating maps that hold for groupoid origins.

    Between universal globalizations the mediating map is bijective: checked
    for the groupoid fixtures against their own relabeled quotients.  For
    one-object groupoids the sharper statement holds: the mediating map into
    any receiver whose restriction to the carrier image is exactly the
    source (``induces_source``) is injective; checked on seeded random group
    actions.  Receivers over several objects genuinely break that sharper
    statement — a receiver point may carry identities of several objects at
    once and absorb distinct classes whose tags end at different objects —
    so multi-object receivers are exercised only through the
    fixture/quotient check.  The regression tests pin concrete
    counterexamples."""
    failures = []
    ran = 0
    for name in ("iso_fixed", "iso_shift"):
        cat, act = fixtures.FIXTURES[name]()
        glob = build_globalization(cat, act)
        ident = {x: x for x in act.carrier}
        y_relabeled = _relabel_as_extension(glob)
        ran += 1
        k = mediating(glob, y_relabeled, ident)
        if sorted(k.values(), key=str) != sorted(y_relabeled.carrier, key=str):
            failures.append(f"{name}: quotient-to-quotient mediating map is not bijective")

    rng = random.Random(seed)
    reflecting = 0
    produced = 0
    while produced < cases:
        cat = group_category(rng.choice(["z2", "z3", "z4", "klein"]))
        act = random_valid_action(rng, cat, random_points(rng, 4), rng.uniform(0.2, 0.7))
        if act is None:
            continue
        glob = build_globalization(cat, act)
        if len(glob.classes) > 7:
            continue
        produced += 1
        bound = _receiver_bound(len(glob.classes), len(act.carrier), max_size)
        for target, j in _receivers(cat, act, bound):
            if not induces_source(cat, act, target, j).ok:
                continue
            ran += 1
            reflecting += 1
            k = _mediate(glob, target, j)
            if len(set(k.values())) != len(k):
                failures.append(f"group case (seed {seed}): mediating map collapses classes")
    if not reflecting:
        failures.append(f"no reflecting receivers sampled (seed {seed})")
    return SuiteResult("groupoid-injectivity", ran, tuple(failures))


def small_category(rng: random.Random) -> Category:
    """A category with at most four morphisms, for topology sweeps."""
    pick = rng.randrange(4)
    if pick == 0:
        return fixtures.arrow_category()
    if pick == 1:
        return fixtures.iso_groupoid()
    if pick == 2:
        return group_category(rng.choice(["z1", "z2", "z3", "z4", "klein"]))
    return Category.make(["u", "v"], {}, {})


def suite_embedding_open(seed: int, samples: int = 1000) -> tuple[SuiteResult, int]:
    """Star-open plus graph-open plus CA1/CA2 must force the embedding open.

    Samples scenarios with random topologies on carriers of at most four
    points; scenarios failing the hypotheses only count toward the sample
    budget.  The failure list would name any scenario where the hypotheses
    hold but some carrier open has a non-open image.  Also returns how many
    samples satisfied the hypotheses, so callers can assert non-vacuity."""
    rng = random.Random(seed)
    failures = []
    hypothesis_passes = 0
    ran = 0
    while ran < samples:
        cat = small_category(rng)
        if len(cat.morphisms) > 4:
            continue
        points = tuple(str(i) for i in range(1, rng.randint(1, 4) + 1))
        act = random_valid_action(rng, cat, points, rng.uniform(0.2, 0.9))
        if act is None:
            continue
        ran += 1
        scn = TopScenario(
            cat,
            act,
            Space.from_topology(random_topology(rng, cat.morphisms)),
            Space.from_topology(random_topology(rng, act.carrier)),
        )
        ca1, ca2 = check_continuous_action(scn)
        star = check_star_open(cat, scn.top_mor)
        graph = check_graph_open(scn)
        if not (ca1.ok and ca2.ok and star.ok and graph.ok):
            continue
        hypothesis_passes += 1
        glob = build_globalization(cat, act)
        verdict = check_embedding_open(scn, glob)
        if not verdict.ok:
            failures.append(f"sample {ran}: open embedding fails, witnesses {verdict.witnesses}")
    result = SuiteResult("topo-embedding-open", ran, tuple(failures))
    return result, hypothesis_passes


def suite_scenario(cat: Category, act: PartialAction, max_size: int) -> SuiteResult:
    """Closure cross-check plus factorization-uniqueness sweep for one scenario.

    The classes the construction built from its generating subset of the
    one-step relation must equal the naive closure of the full relation:
    that is case 1.  ``max_size`` is the CLI's receiver bound, from 1 to 8,
    and every receiver contains the source carrier, so a carrier of more
    than 8 points has no receiver within the bound: then the sweep is
    skipped and the suite runs that one case.  Raises the same axiom error
    as the construction when C1-C3 fail."""
    failures = []
    glob = build_globalization(cat, act)
    cases = 1
    if glob.classes != naive_closure(glob.xbar, sim_pairs(cat, act, glob.xbar)):
        failures.append("closures disagree")
    if len(act.carrier) <= 8:
        bound = _receiver_bound(len(glob.classes), len(act.carrier), max_size)
        for _, _, failure in _sweep(glob, bound):
            cases += 1
            if failure:
                failures.append(failure)
    return SuiteResult("scenario", cases, tuple(failures))


def run_oracle(seed: int, max_size: int) -> list[SuiteResult]:
    """The four suites behind the ``oracle`` CLI command.  Raises
    ``ValueError`` for a ``max_size`` outside 1-8 before any suite runs."""
    if not 1 <= max_size <= 8:
        raise ValueError("max_size must be between 1 and 8")
    return [
        suite_closure_equivalence(seed),
        suite_axiom_equivalence(seed),
        suite_universality(max_size),
        suite_groupoid_injectivity(seed, max_size),
    ]
