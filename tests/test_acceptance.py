"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Criterion 7 is expected to fail: its second half asserts that every mediating
map out of a groupoid quotient into an enumerated receiver with an injective
embedding is itself injective, and that statement is false — see the two
regression tests in test_globalization.py for minimal counterexamples.  The
uniqueness half of the sweep passes.  All other criteria pass.
"""

import random
import time

from pcat import (
    PartialAction,
    Scenario,
    Space,
    TopScenario,
    build_globalization,
    check_category_axioms,
    from_functor,
    from_triple,
    is_groupoid,
    enumerate_globalizations,
    mediating,
    parse,
    serialize,
    to_functor,
    to_triple,
    topologize_globalization,
)
from pcat.cli import DEFAULT_SEED
from pcat.oracle import (
    _relabel_as_extension,
    random_category,
    random_points,
    random_table,
    random_valid_action,
    suite_axiom_equivalence,
    suite_closure_equivalence,
    suite_embedding_open,
    suite_universality,
)

from conftest import fixture_text

CORE = ("arrow_small", "arrow_collapse", "iso_fixed", "iso_shift")


def load(stem):
    sc = parse(fixture_text(stem))
    return sc.category, sc.action


def verdict(n, ok, elapsed, bound):
    final = ok and elapsed < bound
    print(f"criterion {n}: {'PASS' if final else 'FAIL'}")
    return final


def test_criterion_1_arrow_action_globalization():
    t0 = time.perf_counter()
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    ok = (
        len(glob.xbar.elements) == 6
        and glob.classes
        == (
            (("e", "1"),),
            (("e", "2"), ("f", "2"), ("g", "2")),
            (("f", "3"),),
            (("g", "1"),),
        )
        and glob.embed == {"1": ("e", "1"), "2": ("e", "2"), "3": ("f", "3")}
        and dict(glob.action)
        == {
            ("e", ("e", "1")): ("e", "1"),
            ("e", ("e", "2")): ("e", "2"),
            ("f", ("e", "2")): ("e", "2"),
            ("f", ("f", "3")): ("f", "3"),
            ("f", ("g", "1")): ("g", "1"),
            ("g", ("e", "1")): ("g", "1"),
            ("g", ("e", "2")): ("e", "2"),
        }
    )
    elapsed = time.perf_counter() - t0
    assert verdict(1, ok, elapsed, 1.0)


def test_criterion_2_collapsing_arrow_globalization():
    t0 = time.perf_counter()
    cat, act = load("arrow_collapse")
    glob = build_globalization(cat, act)
    reps = tuple(cls[0] for cls in glob.classes)
    ok = (
        len(glob.xbar.elements) == 9
        and len(glob.classes) == 5
        and reps == (("e", "1"), ("e", "2"), ("e", "3"), ("f", "4"), ("g", "1"))
        and dict(glob.action)
        == {
            ("e", ("e", "1")): ("e", "1"),
            ("e", ("e", "2")): ("e", "2"),
            ("e", ("e", "3")): ("e", "3"),
            ("f", ("e", "2")): ("e", "2"),
            ("f", ("e", "3")): ("e", "3"),
            ("f", ("f", "4")): ("f", "4"),
            ("f", ("g", "1")): ("g", "1"),
            ("g", ("e", "1")): ("g", "1"),
            ("g", ("e", "2")): ("e", "2"),
            ("g", ("e", "3")): ("e", "2"),
        }
    )
    elapsed = time.perf_counter() - t0
    assert verdict(2, ok, elapsed, 1.0)


def test_criterion_3_isomorphism_with_fixed_point():
    t0 = time.perf_counter()
    cat, act = load("iso_fixed")
    glob = build_globalization(cat, act)
    ok = (
        len(glob.xbar.elements) == 8
        and len(glob.classes) == 5
        and (("g_inv", "3"),) in glob.classes
        and glob.action[("g_inv", ("f", "3"))] == ("g_inv", "3")
        and dict(glob.action)
        == {
            ("e", ("e", "1")): ("e", "1"),
            ("e", ("e", "2")): ("e", "2"),
            ("e", ("g_inv", "3")): ("g_inv", "3"),
            ("f", ("e", "2")): ("e", "2"),
            ("f", ("f", "3")): ("f", "3"),
            ("f", ("g", "1")): ("g", "1"),
            ("g", ("e", "1")): ("g", "1"),
            ("g", ("e", "2")): ("e", "2"),
            ("g", ("g_inv", "3")): ("f", "3"),
            ("g_inv", ("e", "2")): ("e", "2"),
            ("g_inv", ("f", "3")): ("g_inv", "3"),
            ("g_inv", ("g", "1")): ("e", "1"),
        }
    )
    elapsed = time.perf_counter() - t0
    assert verdict(3, ok, elapsed, 1.0)


def test_criterion_4_shifting_isomorphism_collapses_to_four():
    t0 = time.perf_counter()
    cat, act = load("iso_shift")
    glob = build_globalization(cat, act)
    reps = tuple(cls[0] for cls in glob.classes)
    ok = (
        len(glob.classes) == 4
        and reps == (("e", "1"), ("e", "2"), ("e", "3"), ("g", "3"))
        and dict(glob.action)
        == {
            ("e", ("e", "1")): ("e", "1"),
            ("e", ("e", "2")): ("e", "2"),
            ("e", ("e", "3")): ("e", "3"),
            ("f", ("e", "2")): ("e", "2"),
            ("f", ("e", "3")): ("e", "3"),
            ("f", ("g", "3")): ("g", "3"),
            ("g", ("e", "1")): ("e", "2"),
            ("g", ("e", "2")): ("e", "3"),
            ("g", ("e", "3")): ("g", "3"),
            ("g_inv", ("e", "2")): ("e", "1"),
            ("g_inv", ("e", "3")): ("e", "2"),
            ("g_inv", ("g", "3")): ("e", "3"),
        }
    )
    elapsed = time.perf_counter() - t0
    assert verdict(4, ok, elapsed, 1.0)


def test_criterion_5_closure_implementations_agree():
    t0 = time.perf_counter()
    res = suite_closure_equivalence(DEFAULT_SEED, cases=500)
    elapsed = time.perf_counter() - t0
    ok = res.ok and res.cases >= 504
    assert verdict(5, ok, elapsed, 30.0), res.failures[:3]


def test_criterion_6_axiom_systems_agree():
    t0 = time.perf_counter()
    res = suite_axiom_equivalence(DEFAULT_SEED, cases=500, one_object_cases=250)
    elapsed = time.perf_counter() - t0
    ok = res.ok and res.cases >= 500
    assert verdict(6, ok, elapsed, 30.0), res.failures[:3]


def test_criterion_7_unique_factorization_and_injectivity():
    # First half: every enumerated receiver (carrier up to one point past the
    # quotient) admits exactly one equivariant factorization through the
    # quotient.  This half holds.
    #
    # Second half: for the groupoid fixtures, since the inclusion into each
    # receiver is injective, the factoring map must be injective as well.
    # This half is FALSE: a receiver can define extra steps between original
    # points, or give one fresh point the identities of several objects, and
    # the unique factoring map then merges distinct quotient classes.  The
    # two minimal counterexamples are pinned as regression tests in
    # test_globalization.py; this criterion is kept verbatim and left failing.
    t0 = time.perf_counter()
    uniq = suite_universality()
    non_injective = 0
    receivers = 0
    for stem in CORE:
        cat, act = load(stem)
        if is_groupoid(cat) is None:
            continue
        glob = build_globalization(cat, act)
        bound = min(8, max(len(glob.classes) + 1, len(act.carrier)))
        for target, j in enumerate_globalizations(cat, act, bound):
            receivers += 1
            k = mediating(glob, target, j)
            if len(set(k.values())) != len(k):
                non_injective += 1
    elapsed = time.perf_counter() - t0
    ok = uniq.ok and non_injective == 0
    assert verdict(7, ok, elapsed, 60.0), (
        f"uniqueness sweep ok over {uniq.cases} receivers: {uniq.ok}; "
        f"mediating maps out of groupoid quotients: {non_injective} of "
        f"{receivers} receivers with injective embeddings get a NON-injective "
        "factoring map"
    )


def test_criterion_8_discrete_topologies_and_openness_search():
    t0 = time.perf_counter()
    problems = []
    for stem in CORE:
        cat, act = load(stem)
        scn = TopScenario(cat, act, Space.discrete(cat.morphisms), Space.discrete(act.carrier))
        glob = build_globalization(cat, act)
        target = _relabel_as_extension(glob)
        tg = topologize_globalization(
            scn,
            glob,
            (target, Space.discrete(target.carrier), {x: x for x in act.carrier}),
        )
        ok_by_name = {v.name: v.ok for v in tg.checks}
        for label, good in (
            ("CA1/CA2", ok_by_name["continuity CA1"] and ok_by_name["continuity CA2"]),
            ("embedding continuous", ok_by_name["embedding continuous"]),
            ("embedding open", ok_by_name["embedding open"]),
            ("action continuous", ok_by_name["action continuous"]),
            ("mediating continuous", ok_by_name.get("mediating continuous", False)),
        ):
            if not good:
                problems.append(f"{stem}: {label}")
    res, hypothesis_passes = suite_embedding_open(DEFAULT_SEED, samples=1000)
    elapsed = time.perf_counter() - t0
    ok = not problems and res.ok and res.cases >= 1000 and hypothesis_passes >= 1
    assert verdict(8, ok, elapsed, 120.0), (problems, res.failures[:3], hypothesis_passes)


def test_criterion_9_round_trips():
    t0 = time.perf_counter()
    problems = []

    def check_triple(cat, act, tag):
        back = from_triple(cat, to_triple(act))
        if back.carrier != act.carrier or dict(back.table) != dict(act.table):
            problems.append(f"{tag}: triple round-trip changed the action")

    def check_functor(cat, act, tag):
        back = from_functor(cat, to_functor(cat, act))
        if back.carrier != act.carrier or dict(back.table) != dict(act.table):
            problems.append(f"{tag}: functor round-trip changed the action")

    def check_scenario(sc, tag):
        back = parse(serialize(sc))
        same = (
            back.category == sc.category
            and back.action == sc.action
            and back.top_mor == sc.top_mor
            and back.top_space == sc.top_space
            and back.gfun == sc.gfun
        )
        if not same:
            problems.append(f"{tag}: scenario round-trip changed the data")

    for stem in CORE + ("arrow_small_topo", "arrow_small_nonopen", "arrow_small_target"):
        sc = parse(fixture_text(stem))
        check_triple(sc.category, sc.action, stem)
        check_scenario(sc, stem)
        if check_category_axioms(sc.category, sc.action).all_pass:
            check_functor(sc.category, sc.action, stem)
    for stem in CORE:
        cat, act = load(stem)
        check_functor(cat, build_globalization(cat, act).as_action(), f"{stem} quotient")

    rng = random.Random(DEFAULT_SEED)
    done = 0
    while done < 200:
        cat = random_category(rng)
        pts = random_points(rng)
        raw = random_table(rng, cat, pts, rng.uniform(0.2, 0.8))
        check_triple(cat, raw, f"random[{done}] raw")
        act = random_valid_action(rng, cat, pts)
        if act is None:
            continue
        check_triple(cat, act, f"random[{done}]")
        quotient = build_globalization(cat, act).as_action()
        check_functor(cat, quotient, f"random[{done}] quotient")
        check_scenario(Scenario("c", "a", cat, act, None, None, None), f"random[{done}]")
        done += 1

    elapsed = time.perf_counter() - t0
    ok = not problems
    assert verdict(9, ok, elapsed, 10.0), problems[:5]
