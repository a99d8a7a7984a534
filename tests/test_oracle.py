"""Tests for the randomized cross-check suites and their generators."""

import dataclasses
import functools
import random
import sys
from collections import Counter

import pytest

from pcat import (
    Verdict,
    build_globalization,
    check_category_axioms,
    check_g_function,
    check_groupoid_axioms,
    enumerate_globalizations,
    functor_violations,
    is_groupoid,
    mediating,
    parse,
    to_functor,
    validate_category,
    validate_topology,
)
from pcat import oracle
from pcat.category import Category
from pcat.fixtures import FIXTURES, arrow_category, iso_groupoid
from pcat.oracle import (
    _relabel_as_extension,
    chain_category,
    connected_groupoid,
    group_axioms_direct,
    group_category,
    monoid_axioms_direct,
    random_category,
    random_groupoid,
    random_monoid,
    random_points,
    random_topology,
    random_valid_action,
    run_oracle,
    small_category,
    suite_axiom_equivalence,
    suite_closure_equivalence,
    suite_embedding_open,
    suite_groupoid_injectivity,
    suite_scenario,
    suite_universality,
)

import reference_enumerator as reference
from conftest import chain_scenario, fixture_text, traced_peak


def test_group_category_structure():
    z3 = group_category("z3")
    assert z3.objects == ("e",)
    assert z3.morphisms == ("e", "m1", "m2")
    assert z3.comp[("m1", "m1")] == "m2"
    assert z3.comp[("m1", "m2")] == "e"
    assert validate_category(z3).ok
    assert is_groupoid(z3) == {"e": "e", "m1": "m2", "m2": "m1"}
    assert z3.inverse == is_groupoid(z3)


def test_connected_groupoid_structure():
    cat = connected_groupoid(2, "z2")
    assert len(cat.objects) == 2
    assert validate_category(cat).ok
    assert is_groupoid(cat) is not None
    assert len(cat.morphisms) == 2 * 2 * 2


def test_chain_category_structure():
    cat = chain_category()
    assert cat.objects == ("a", "b", "c")
    assert cat.comp[("q", "p")] == "qp"
    assert validate_category(cat).ok
    assert is_groupoid(cat) is None


def test_random_generators_produce_valid_categories():
    rng = random.Random(3)
    for _ in range(30):
        cat = random_category(rng)
        assert validate_category(cat).ok
    for _ in range(10):
        g = random_groupoid(rng)
        assert validate_category(g).ok
        assert is_groupoid(g) is not None
        m = random_monoid(rng)
        assert validate_category(m).ok
        assert len(m.objects) == 1


def test_random_valid_action_always_satisfies_first_three_axioms():
    rng = random.Random(41)
    produced = 0
    for _ in range(120):
        cat = random_category(rng)
        act = random_valid_action(rng, cat, random_points(rng))
        if act is None:
            continue
        produced += 1
        rep = check_category_axioms(cat, act)
        assert rep.passed("C1", "C2", "C3")
    assert produced > 60


class _CountingComp(dict):
    """A composition table that counts lookups: repair reads it once per
    composable pair per round, so the count gives the rounds run."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_random_valid_action_matches_the_reference_repair_loop():
    makers = (
        random_category,
        small_category,
        lambda rng: group_category(rng.choice(["z2", "z3", "z4", "klein", "s3"])),
    )
    rng = random.Random(60)
    cycle_stops = 0
    for i in range(2100):
        cat = makers[i % 3](rng)
        points = random_points(rng)
        density = rng.uniform(0.15, 0.8)
        seed = rng.randrange(2**32)
        runs = []
        for repair in (random_valid_action, reference.random_valid_action):
            counted = dataclasses.replace(cat, comp=_CountingComp(cat.comp))
            rng_i = random.Random(seed)
            act = repair(rng_i, counted, points, density)
            table = None if act is None else (act.carrier, list(act.table.items()))
            runs.append((table, rng_i.getstate(), counted.comp.lookups))
        (got, got_state, got_reads), (want, want_state, want_reads) = runs
        assert got == want, (i, cat, points)
        assert got_state == want_state, i
        # The reference reads no more after its last round when it runs out.
        if want is None and want_reads == 60 * len(cat.composable) > got_reads:
            cycle_stops += 1
    assert cycle_stops > 0


def test_random_topology_is_valid():
    rng = random.Random(17)
    for _ in range(60):
        t = random_topology(rng, "abcde")
        assert validate_topology(t).ok


def test_direct_one_object_checkers():
    z2 = group_category("z2")
    total = {("e", "0"): "0", ("e", "1"): "1", ("m1", "0"): "1", ("m1", "1"): "0"}
    from pcat import PartialAction

    act = PartialAction.make(("0", "1"), total)
    assert group_axioms_direct(z2, act)
    assert monoid_axioms_direct(z2, act)
    assert check_groupoid_axioms(z2, act).all_pass

    broken = PartialAction.make(("0", "1"), {**total, ("m1", "1"): "1"})
    assert not group_axioms_direct(z2, broken)

    partial = PartialAction.make(
        ("0", "1"), {("e", "0"): "0", ("e", "1"): "1", ("m1", "0"): "1"}
    )
    assert not group_axioms_direct(z2, partial)
    assert not monoid_axioms_direct(z2, partial)

    idempotent = Category.make(["e"], {"z": ("e", "e")}, {("z", "z"): "z"})
    assert monoid_axioms_direct(idempotent, PartialAction.make(("0",), {("e", "0"): "0"}))
    with pytest.raises(ValueError, match="one-object groupoid"):
        group_axioms_direct(idempotent, PartialAction.make(("0",), {("e", "0"): "0"}))


def test_closure_suite_passes_and_detects_sabotage(monkeypatch):
    good = suite_closure_equivalence(5, cases=60)
    assert good.ok and good.cases > 0

    def merge_everything(xbar, sim):
        return (tuple(sorted(xbar.elements)),)

    monkeypatch.setattr(oracle, "equiv_closure", merge_everything)
    bad = suite_closure_equivalence(5, cases=60)
    assert not bad.ok
    assert "closure" in bad.failures[0]


def test_axiom_equivalence_suite_small_run():
    res = suite_axiom_equivalence(11, cases=80, one_object_cases=40)
    assert res.ok and res.cases > 0


def test_universality_suite_small_run():
    res = suite_universality(max_size=5)
    assert res.ok and res.cases > 0


def test_every_receiver_of_the_bound_6_universality_sweep_is_checked_once():
    # The suites mediate into these receivers without checking the contract
    # of ``mediating``; it holds by construction, and is checked once here.
    # The functor laws, checked as a set-valued functor, are a second route
    # to globality that shares nothing with the enumerator's propagation.
    checked = 0
    for name, make in FIXTURES.items():
        cat, act = make()
        bound = max(min(len(build_globalization(cat, act).classes) + 1, 6), len(act.carrier))
        for target, j in enumerate_globalizations(cat, act, bound):
            checked += 1
            assert check_category_axioms(cat, target).all_pass, name
            assert check_g_function(j, act, target).ok, name
            assert functor_violations(cat, to_functor(cat, target)) == (), name
    assert checked == 5528


def _without_the_quotient(monkeypatch):
    """Make the suites draw receivers without the copy of each quotient,
    found by the reference key."""
    receivers = oracle._receivers

    def without_the_quotient(cat, act, bound):
        key = reference.receiver_key(act)
        quotient = key(_relabel_as_extension(build_globalization(cat, act)))
        return ((t, j) for t, j in receivers(cat, act, bound) if key(t) != quotient)

    monkeypatch.setattr(oracle, "_receivers", without_the_quotient)


def test_universality_suite_reports_a_quotient_missing_from_the_receivers(monkeypatch):
    # Forty 4-point receivers of arrow_small still get a bijective mediating
    # map, so a bijection alone must not count as finding the quotient.
    _without_the_quotient(monkeypatch)
    res = suite_universality(max_size=6)
    for name in FIXTURES:
        assert f"{name}: quotient missing from enumerated receivers" in res.failures


def test_universality_suite_lists_each_fixtures_failures_in_order(monkeypatch):
    # Every fixture misses its quotient, fails reflection and gets a
    # collapsing map onto its own quotient; the second and fifth receivers
    # of arrow_small get two and three factorizations.  The lines come per
    # fixture: quotient missing, reflection, bijection, then its receivers.
    _without_the_quotient(monkeypatch)
    monkeypatch.setattr(oracle, "induces_source", lambda *args: Verdict("induces_source", (("e", "1"),)))

    def collapsing(glob, target, j):
        return dict.fromkeys(mediating(glob, target, j), target.carrier[0])

    monkeypatch.setattr(oracle, "mediating", collapsing)
    candidate_search = oracle._candidate_search
    arrow_small = FIXTURES["arrow_small"]()[1]

    def repeated(glob, j):
        search, seen = candidate_search(glob, j), []

        def twice_or_thrice(target):
            seen.append(target)
            times = {2: 2, 5: 3}.get(len(seen), 1) if glob.source == arrow_small else 1
            return search(target) * times

        return twice_or_thrice

    monkeypatch.setattr(oracle, "_candidate_search", repeated)
    want = []
    for name in FIXTURES:
        want += [
            f"{name}: quotient missing from enumerated receivers",
            f"{name}: quotient does not reflect definedness",
            f"{name}: mediating map onto the quotient itself is not bijective",
        ]
        if name == "arrow_small":
            want += [f"{name}: receiver admits 2 factorizations", f"{name}: receiver admits 3 factorizations"]
    assert suite_universality(max_size=6).failures == tuple(want)


def test_universality_sweep_holds_one_receiver_at_a_time():
    # Holding the 5,528 receivers at once peaked at about 5.2 MB.
    res, peak = traced_peak(lambda: suite_universality(6))
    assert res.ok and res.cases == 5528
    assert peak < 1_000_000, peak


def test_scenario_sweep_holds_one_receiver_at_a_time():
    # Holding its 9,346 receivers at once peaked at about 14.3 MB.
    cat, act = chain_scenario()
    res, peak = traced_peak(lambda: suite_scenario(cat, act, 5))
    assert res.ok and res.cases == 9347
    assert peak < 2_000_000, peak


def test_mediating_maps_of_the_bound_6_sweep_and_fixture_quotients_are_equivariant():
    # ``mediating`` does not audit its result: the theorem makes it
    # equivariant for a global target and an equivariant j.  Checked here.
    checked = 0
    for name, make in FIXTURES.items():
        cat, act = make()
        glob = build_globalization(cat, act)
        quotient = glob.as_action()
        bound = max(min(len(glob.classes) + 1, 6), len(act.carrier))
        receivers = enumerate_globalizations(cat, act, bound)
        receivers.append((_relabel_as_extension(glob), {x: x for x in act.carrier}))
        for target, j in receivers:
            checked += 1
            assert check_g_function(mediating(glob, target, j), quotient, target).ok, name
    assert checked == 5528 + len(FIXTURES)


def test_groupoid_injectivity_suite_small_run():
    res = suite_groupoid_injectivity(13, max_size=5, cases=12)
    assert res.ok and res.cases > 0


def test_embedding_open_suite_small_run():
    # The draw and the hypothesis filter are fixed by the seed: these counts
    # move only if the sampled scenarios or the CA1/CA2, star-open and
    # graph-open verdicts on them change.
    res, hypothesis_passes = suite_embedding_open(19, samples=120)
    assert res.ok and (res.cases, hypothesis_passes) == (120, 49)


def test_embedding_open_suite_counts_at_the_default_seed():
    res, hypothesis_passes = suite_embedding_open(1729, samples=1000)
    assert res.ok and (res.cases, hypothesis_passes) == (1000, 308)


def test_scenario_suite_on_fixture():
    sc = parse(fixture_text("arrow_small"))
    res = suite_scenario(sc.category, sc.action, 4)
    assert res.ok and res.cases > 0


def test_scenario_suite_skips_the_sweep_on_more_than_8_points(monkeypatch):
    # Every receiver contains the carrier and the bound is at most 8, so on
    # 9 points only the closure cross-check runs.
    points = [str(i) for i in range(1, 10)]
    sc = parse(
        "category c\n  object e\nend\naction a\n  point " + " ".join(points) + "\n"
        + "".join(f"  act e {x} = {x}\n" for x in points) + "end\n"
    )
    drawn = []

    def receivers(*args):
        drawn.append(args)
        return iter(())

    monkeypatch.setattr(oracle, "_receivers", receivers)
    res = suite_scenario(sc.category, sc.action, 8)
    assert (res.cases, res.failures, drawn) == (1, (), [])


def test_scenario_suite_checks_the_classes_the_construction_ships(monkeypatch):
    # A construction whose classes split its largest one into singletons
    # must fail the closure cross-check, which compares the shipped classes
    # with the naive closure of the full one-step relation.
    cat, act = FIXTURES["iso_shift"]()
    assert suite_scenario(cat, act, 4).ok

    def split_largest(cat, act):
        glob = build_globalization(cat, act)
        big = max(glob.classes, key=len)
        assert len(big) > 1
        rest = [c for c in glob.classes if c != big]
        return dataclasses.replace(glob, classes=tuple(sorted(rest + [(m,) for m in big])))

    monkeypatch.setattr(oracle, "build_globalization", split_largest)
    assert "closures disagree" in suite_scenario(cat, act, 4).failures


def test_run_oracle_validates_each_category_at_most_once(monkeypatch):
    # Library categories are built once per process and cache their
    # validation report, so the sweep checks each distinct category once.
    import pcat.category

    for build in (group_category, connected_groupoid, chain_category, arrow_category, iso_groupoid):
        build.cache_clear()
    seen = {}
    validate = pcat.category.validate_category

    def counted(cat):
        key = (cat.objects, cat.morphisms, tuple(sorted(cat.comp.items())))
        seen[key] = seen.get(key, 0) + 1
        return validate(cat)

    for name, module in list(sys.modules.items()):
        if name == "pcat" or name.startswith("pcat."):
            for attr, value in list(vars(module).items()):
                if value is validate:
                    monkeypatch.setattr(module, attr, counted)
    results = run_oracle(1729, 6)
    assert [s.cases for s in results[:3]] == [504, 1000, 5528]
    assert seen and max(seen.values()) == 1, sorted(seen.values())


def test_run_oracle_computes_composable_pairs_at_most_once_per_category(monkeypatch):
    # The composable pairs are a cached fact of the Category: the generators
    # and the checkers read it, none recomputes it.
    for build in (group_category, connected_groupoid, chain_category, arrow_category, iso_groupoid):
        build.cache_clear()
    built = []
    pairs_of = vars(Category)["composable"].func

    def counted(self):
        built.append(self)
        return pairs_of(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(Category, "composable")
    monkeypatch.setattr(Category, "composable", prop)
    results = run_oracle(1729, 6)
    assert [s.cases for s in results[:3]] == [504, 1000, 5528]
    counts = Counter(map(id, built))
    assert counts and max(counts.values()) == 1, sorted(counts.values())


def test_run_oracle_suite_names_and_reproducibility():
    first = run_oracle(23, 4)
    second = run_oracle(23, 4)
    assert [s.name for s in first] == [
        "closure-equivalence",
        "axiom-equivalence",
        "universality",
        "groupoid-injectivity",
    ]
    assert all(s.ok for s in first)
    assert [(s.name, s.cases, s.failures) for s in first] == [
        (s.name, s.cases, s.failures) for s in second
    ]


def test_run_oracle_rejects_a_max_size_outside_1_to_8_before_any_suite(monkeypatch):
    ran = []
    for suite in ("closure_equivalence", "axiom_equivalence", "universality", "groupoid_injectivity"):
        monkeypatch.setattr(oracle, f"suite_{suite}", lambda *a, suite=suite: ran.append(suite))
    for bad in (0, 9):
        with pytest.raises(ValueError, match="max_size must be between 1 and 8"):
            run_oracle(1729, bad)
    assert ran == []
