"""Tests for partial-action presentations and axiom checkers."""

import itertools
import random
from collections import Counter

import pytest

from pcat import (
    PartialAction,
    Scenario,
    SetFunctor,
    build_globalization,
    check_category_axioms,
    check_groupoid_axioms,
    from_functor,
    from_triple,
    functor_violations,
    is_groupoid,
    parse,
    serialize,
    to_functor,
    to_triple,
)

from pcat import oracle
from pcat.action import groupoid_report
from pcat.fixtures import FIXTURES
from pcat.oracle import (
    chain_category,
    connected_groupoid,
    group_category,
    random_category,
    random_groupoid,
    random_monoid,
    random_points,
    random_table,
    random_valid_action,
    suite_axiom_equivalence,
)

from conftest import FIXTURE_DIR, fixture_text
from reference_axioms import check_triple_axioms


def load(stem):
    sc = parse(fixture_text(stem))
    return sc.category, sc.action


def test_make_sorts_and_dedupes_carrier():
    act = PartialAction.make(["3", "1", "2", "1"], {("e", "1"): "1"})
    assert act.carrier == ("1", "2", "3")
    assert act.table == {("e", "1"): "1"}


def test_reports_reject_unknown_references():
    cat, act = load("arrow_small")
    bad_mor = PartialAction.make(act.carrier, {("zzz", "1"): "1"})
    with pytest.raises(ValueError):
        check_category_axioms(cat, bad_mor)
    bad_pt = PartialAction.make(act.carrier, {("e", "1"): "9"})
    with pytest.raises(ValueError):
        check_category_axioms(cat, bad_pt)


def test_axiom_report_helpers():
    cat, act = load("arrow_small")
    rep = check_category_axioms(cat, act)
    assert rep.passed("C1", "C2", "C3")
    assert not rep.passed("C4")
    assert not rep.all_pass
    assert rep.verdicts() == {"C1": True, "C2": True, "C3": True, "C4": False}


def test_fixture_category_axiom_witnesses():
    expected = {
        "arrow_small": (("g", "1"),),
        "arrow_collapse": (("g", "1"),),
        "iso_fixed": (("g", "1"), ("g_inv", "3")),
        "iso_shift": (("g", "3"),),
    }
    for stem, c4 in expected.items():
        cat, act = load(stem)
        rep = check_category_axioms(cat, act)
        assert rep.witnesses == {"C1": (), "C2": (), "C3": (), "C4": c4}, stem


def test_fixture_groupoid_axiom_witnesses():
    for stem in ("iso_fixed", "iso_shift"):
        cat, act = load(stem)
        assert cat.inverse == {"e": "e", "f": "f", "g": "g_inv", "g_inv": "g"}
        base = check_category_axioms(cat, act)
        rep = check_groupoid_axioms(cat, act)
        assert rep.witnesses["GR1"] == base.witnesses["C1"]
        assert rep.witnesses["GR4"] == base.witnesses["C4"]
        assert rep.passed("GR1", "GR2", "GR3")


def test_c1_broken_by_uncovered_point_and_by_moving_identity():
    cat, act = load("arrow_small")
    dropped = {k: v for k, v in act.table.items() if k != ("e", "1")}
    rep = check_category_axioms(cat, PartialAction.make(act.carrier, dropped))
    assert rep.witnesses["C1"] == (("1",),)

    moved = dict(act.table)
    moved[("e", "1")] = "2"
    rep = check_category_axioms(cat, PartialAction.make(act.carrier, moved))
    assert rep.witnesses["C1"] == (("e", "1"),)


def test_c2_broken_by_missing_identity_step():
    cat, act = load("arrow_small")
    table = {k: v for k, v in act.table.items() if k != ("e", "2")}
    rep = check_category_axioms(cat, PartialAction.make(act.carrier, table))
    assert rep.witnesses["C2"] == (("g", "2"),)
    assert rep.witnesses["C1"] == ()


def test_c3_broken_by_disagreeing_evaluation_orders():
    cat, act = load("arrow_small")
    table = dict(act.table)
    table[("f", "2")] = "3"
    rep = check_category_axioms(cat, PartialAction.make(act.carrier, table))
    assert rep.witnesses["C3"] == (("f", "g", "2"),)
    assert rep.witnesses["C1"] == (("f", "2"),)


def test_gr2_broken_by_inverse_not_undoing_a_step():
    cat, act = load("iso_fixed")
    table = dict(act.table)
    table[("g", "2")] = "3"
    mutated = PartialAction.make(act.carrier, table)
    rep = check_groupoid_axioms(cat, mutated)
    assert rep.witnesses["GR2"] == (("g", "2"), ("g_inv", "2"))
    assert rep.witnesses["GR3"] == (("g", "g_inv", "2"),)


def test_gr3_checks_one_direction_only():
    # The category form of the composition axiom catches both evaluation
    # orders; the groupoid form only demands stepwise-defined implies
    # composite-defined, so it sees half the witnesses here.
    cat, act = load("iso_fixed")
    table = dict(act.table)
    table[("g", "2")] = "3"
    mutated = PartialAction.make(act.carrier, table)
    c = check_category_axioms(cat, mutated)
    g = check_groupoid_axioms(cat, mutated)
    assert c.witnesses["C3"] == (("g", "g_inv", "2"), ("g_inv", "g", "2"))
    assert g.witnesses["GR3"] == (("g", "g_inv", "2"),)


def test_to_triple_frozen_domains_and_images():
    cat, act = load("arrow_small")
    t = to_triple(act)
    assert t.carrier == ("1", "2", "3")
    assert t.domains == {
        "e": frozenset({"1", "2"}),
        "f": frozenset({"2", "3"}),
        "g": frozenset({"2"}),
    }
    assert t.images == {
        "e": frozenset({"1", "2"}),
        "f": frozenset({"2", "3"}),
        "g": frozenset({"2"}),
    }
    assert t.maps["g"] == {"2": "2"}


def test_to_triple_image_can_be_smaller_than_domain():
    cat, act = load("arrow_collapse")
    t = to_triple(act)
    assert t.domains["g"] == frozenset({"2", "3"})
    assert t.images["g"] == frozenset({"2"})


def test_triple_round_trip_on_fixtures():
    for stem in ("arrow_small", "arrow_collapse", "iso_fixed", "iso_shift"):
        cat, act = load(stem)
        back = from_triple(cat, to_triple(act))
        assert back.carrier == act.carrier
        assert dict(back.table) == dict(act.table)


def test_from_triple_rejects_inconsistent_data():
    cat, act = load("arrow_small")
    good = to_triple(act)

    import dataclasses

    bad = dataclasses.replace(good, domains={**good.domains, "g": frozenset({"1", "2"})})
    with pytest.raises(ValueError):
        from_triple(cat, bad)

    bad = dataclasses.replace(good, images={**good.images, "g": frozenset({"3"})})
    with pytest.raises(ValueError):
        from_triple(cat, bad)

    bad = dataclasses.replace(
        good,
        domains={**good.domains, "zzz": frozenset({"1"})},
        maps={**good.maps, "zzz": {"1": "1"}},
    )
    with pytest.raises(ValueError):
        from_triple(cat, bad)

    bad = dataclasses.replace(
        good,
        carrier=("1", "2"),
        domains={"e": frozenset({"1"}), "f": frozenset({"2"}), "g": frozenset({"2"})},
        images={"e": frozenset({"1"}), "f": frozenset({"3"}), "g": frozenset({"2"})},
        maps={"e": {"1": "1"}, "f": {"2": "3"}, "g": {"2": "2"}},
    )
    with pytest.raises(ValueError):
        from_triple(cat, bad)


def assert_triple_axioms_match(cat, act):
    """C1'-C3' have the witnesses of C1-C3 and C4' those of C2 and C4
    together, each as a multiset: the two routes list them in different
    orders.  Returns the per-morphism report."""
    table = check_category_axioms(cat, act).witnesses
    triple = check_triple_axioms(cat, to_triple(act))
    for name in ("C1", "C2", "C3"):
        assert Counter(triple.witnesses[name + "'"]) == Counter(table[name]), (name, cat, act)
    assert Counter(triple.witnesses["C4'"]) == Counter(table["C2"] + table["C4"]), (cat, act)
    return triple


def test_triple_axioms_match_table_axioms_on_fixtures():
    for stem in ("arrow_small", "arrow_collapse", "iso_fixed", "iso_shift"):
        cat, act = load(stem)
        triple_rep = assert_triple_axioms_match(cat, act)
        # The groupoid forms are reported exactly over a groupoid.
        assert ("GR3'" in triple_rep.witnesses) == stem.startswith("iso"), stem
        assert ("ALPHA_BIJ" in triple_rep.witnesses) == (cat.inverse is not None), stem


def test_triple_axioms_match_table_axioms_on_the_axiom_suite_inputs(monkeypatch):
    # Every table the axiom-equivalence suite checks, the repair loop's too.
    seen = []

    def record(cat, act):
        seen.append((cat, act))
        return check_category_axioms(cat, act)

    monkeypatch.setattr(oracle, "check_category_axioms", record)
    assert suite_axiom_equivalence(1729).ok
    assert len(seen) == 1150
    for cat, act in seen:
        assert_triple_axioms_match(cat, act)


def test_triple_groupoid_forms_on_iso_fixtures():
    for stem in ("iso_fixed", "iso_shift"):
        cat, act = load(stem)
        rep = check_triple_axioms(cat, to_triple(act))
        assert rep.witnesses["GR1'"] == rep.witnesses["C1'"]
        assert rep.witnesses["GR2'"] == rep.witnesses["C2'"]
        assert rep.witnesses["GR3'"] == ()
        assert rep.witnesses["ALPHA_BIJ"] == ()


def test_alpha_bij_broken_by_dropping_an_inverse_step():
    cat, act = load("iso_fixed")
    table = {k: v for k, v in act.table.items() if k != ("g_inv", "2")}
    rep = check_triple_axioms(cat, to_triple(PartialAction.make(act.carrier, table)))
    assert rep.witnesses["ALPHA_BIJ"] == (("g", "2"), ("g", "2"))
    assert ("g_inv", "g", "2") in rep.witnesses["GR3'"]


def test_to_functor_requires_global_action():
    cat, act = load("arrow_small")
    with pytest.raises(ValueError):
        to_functor(cat, act)


def test_functor_round_trip_on_globalized_action():
    cat, act = load("arrow_small")
    quotient = build_globalization(cat, act).as_action()
    f = to_functor(cat, quotient)
    assert f.object_sets == {
        "e": frozenset({("e", "1"), ("e", "2")}),
        "f": frozenset({("e", "2"), ("f", "3"), ("g", "1")}),
    }
    assert f.maps["g"] == {("e", "1"): ("g", "1"), ("e", "2"): ("e", "2")}
    back = from_functor(cat, f)
    assert back.carrier == quotient.carrier
    assert dict(back.table) == dict(quotient.table)


def test_functor_violations_catch_each_law():
    cat, act = load("arrow_small")
    f = to_functor(cat, build_globalization(cat, act).as_action())
    assert functor_violations(cat, f) == ()

    partial_map = {k: v for k, v in f.maps["g"].items() if k != ("e", "1")}
    bad = SetFunctor(f.object_sets, {**f.maps, "g": partial_map})
    assert functor_violations(cat, bad) == ("map for g not total on its source set",)

    bad = SetFunctor({"e": f.object_sets["e"]}, f.maps)
    assert "no set assigned to object f" in functor_violations(cat, bad)

    bad = SetFunctor(f.object_sets, {k: v for k, v in f.maps.items() if k != "g"})
    assert "no map assigned to morphism g" in functor_violations(cat, bad)

    moved = {**f.maps, "e": {("e", "1"): ("e", "2"), ("e", "2"): ("e", "2")}}
    msgs = functor_violations(cat, SetFunctor(f.object_sets, moved))
    assert any(m.startswith("map for identity e moves") for m in msgs)


def test_functor_composite_law_violation():
    sc = parse(fixture_text("iso_fixed"))
    cat = sc.category
    quotient = build_globalization(cat, sc.action).as_action()
    f = to_functor(cat, quotient)
    assert functor_violations(cat, f) == ()
    # Redirect one non-identity map so g_inv no longer undoes g.
    swapped = dict(f.maps["g"])
    keys = sorted(swapped)
    assert len(keys) >= 2
    swapped[keys[0]], swapped[keys[1]] = swapped[keys[1]], swapped[keys[0]]
    msgs = functor_violations(cat, SetFunctor(f.object_sets, {**f.maps, "g": swapped}))
    assert any(m.startswith("composite law fails for") for m in msgs)


def test_from_functor_rejects_violations():
    cat, act = load("arrow_small")
    f = to_functor(cat, build_globalization(cat, act).as_action())
    partial_map = {k: v for k, v in f.maps["g"].items() if k != ("e", "1")}
    with pytest.raises(ValueError):
        from_functor(cat, SetFunctor(f.object_sets, {**f.maps, "g": partial_map}))


def _c3_gr3_pair_major(cat, act):
    """Reference C3 and GR3 witnesses: every composable pair, then every point."""
    t = act.table
    c3, gr3 = [], []
    for (g, h) in cat.composable:
        k = cat.comp[(g, h)]
        for x in act.carrier:
            if (h, x) not in t:
                continue
            y = t[(h, x)]
            comp_def, step_def = (k, x) in t, (g, y) in t
            if comp_def != step_def or (comp_def and t[(k, x)] != t[(g, y)]):
                c3.append((g, h, x))
            if step_def and t.get((k, x)) != t[(g, y)]:
                gr3.append((g, h, x))
    return tuple(c3), tuple(gr3)


def s3_restriction(rng, copies=1, keep=40):
    """Disjoint copies of the regular action of the 3-object S3 groupoid,
    each restricted to ``keep`` of its 54 points drawn from ``rng``: a C1-C3
    action that fails C4.  Copy c > 0 names point m as ``f"{m}~{c}"``."""
    cat = connected_groupoid(3, "s3")
    kept, table = set(), {}
    for c in range(copies):
        name = (lambda m: m) if c == 0 else (lambda m, c=c: f"{m}~{c}")
        sample = {name(m) for m in rng.sample(cat.morphisms, keep)}
        kept |= sample
        for (g, m), gm in cat.comp.items():
            if name(m) in sample and name(gm) in sample:
                table[(g, name(m))] = name(gm)
    return cat, kept, table


def _redirected_s3_restriction(seed):
    """A restriction of the regular action of the 3-object S3 groupoid with
    some non-identity steps sent to another point over the same object."""
    rng = random.Random(seed)
    cat, kept, table = s3_restriction(rng)
    steps = sorted(key for key in table if key[0] not in cat.objects)
    for key in rng.sample(steps, 8):
        over = sorted(p for p in kept if cat.cod[p] == cat.cod[table[key]] and p != table[key])
        table[key] = rng.choice(over)
    return cat, PartialAction.make(kept, table)


def test_c3_and_gr3_witnesses_come_in_pair_major_order():
    cases = [make() for make in FIXTURES.values()]
    rng = random.Random(4)
    for _ in range(300):
        cat = random_groupoid(rng)
        cases.append((cat, random_table(rng, cat, random_points(rng), rng.uniform(0.2, 0.9))))
    cases += [_redirected_s3_restriction(seed) for seed in range(3)]
    multi = 0
    for cat, act in cases:
        c3, gr3 = _c3_gr3_pair_major(cat, act)
        assert check_category_axioms(cat, act).witnesses["C3"] == c3
        if cat.inverse is not None:
            assert check_groupoid_axioms(cat, act).witnesses["GR3"] == gr3
            derived = groupoid_report(cat, act, check_category_axioms(cat, act))
            assert derived.witnesses["GR3"] == gr3
        multi += len({w[:2] for w in c3}) > 1 and len({w[2] for w in c3}) > 1
    assert multi > 100
    for cat, act in cases[-3:]:
        assert _c3_gr3_pair_major(cat, act)[0]


# Reference copies of the entry-by-entry reference check, the C1 and C4
# witness loops and the C2 expression that the axiom checkers used before
# they read these off the morphism rows; kept verbatim apart from names.


def _ref_check_refs(cat, act) -> None:
    mors = set(cat.morphisms)
    pts = set(act.carrier)
    for (g, x), y in act.table.items():
        if g not in mors:
            raise ValueError(f"action references unknown morphism {g!r}")
        if x not in pts or y not in pts:
            raise ValueError(f"action entry ({g!r}, {x!r}) -> {y!r} leaves the carrier")


def _ref_c1_witnesses(cat, act):
    t = act.table
    out = []
    for x in act.carrier:
        if not any((e, x) in t for e in cat.objects):
            out.append((x,))
        for e in cat.objects:
            if (e, x) in t and t[(e, x)] != x:
                out.append((e, x))
    return tuple(out)


def _ref_c4_witnesses(cat, act):
    t = act.table
    return tuple(
        (g, x)
        for g in cat.morphisms
        for x in act.carrier
        if (cat.dom[g], x) in t and (g, x) not in t
    )


def _ref_report(cat, act, inv=None):
    """The C1-C4 report, or the GR1-GR4 report when the inverse map ``inv`` is given."""
    _ref_check_refs(cat, act)
    t = act.table
    c3, gr3 = _c3_gr3_pair_major(cat, act)
    c1, c4 = _ref_c1_witnesses(cat, act), _ref_c4_witnesses(cat, act)
    if inv is None:
        c2 = sorted(key for key in t if (cat.dom[key[0]], key[1]) not in t)
        return [("C1", c1), ("C2", tuple(c2)), ("C3", c3), ("C4", c4)]
    gr2 = sorted(key for key, y in t.items() if t.get((inv[key[0]], y)) != key[1])
    return [("GR1", c1), ("GR2", tuple(gr2)), ("GR3", gr3), ("GR4", c4)]


def _outcome(check, *args):
    try:
        return list(check(*args).witnesses.items())
    except ValueError as exc:
        return ("ValueError", str(exc))


def _ref_outcome(*args):
    try:
        return _ref_report(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _lane_shapes(rng, cat, act):
    """Variants of one case in the row shapes a C3 lane treats apart: every
    row cut to its first entry, one morphism without a row, and integer
    points (numbered in reverse carrier order)."""
    first = {}
    for (g, x), y in act.table.items():
        first.setdefault(g, ((g, x), y))
    gone = rng.choice(cat.morphisms)
    rowless = {key: y for key, y in act.table.items() if key[0] != gone}
    num = {x: -i for i, x in enumerate(act.carrier)}
    ints = {(g, num[x]): num[y] for (g, x), y in act.table.items()}
    return [
        (cat, PartialAction(act.carrier, dict(first.values()))),
        (cat, PartialAction(act.carrier, rowless)),
        (cat, PartialAction.make(num.values(), ints)),
    ]


def _four_cycle():
    """Z2 whose generator acts as a 4-cycle on integer points, its row listed
    backwards: the one lane (m1, m1) fails at every point."""
    cat = group_category("z2")
    steps = {("m1", x): x % 4 + 1 for x in (4, 3, 2, 1)}
    return cat, PartialAction((1, 2, 3, 4), {**steps, **{("e", x): x for x in (1, 2, 3, 4)}})


def test_row_derived_witnesses_match_the_reference_loops():
    cycle = _four_cycle()
    assert check_category_axioms(*cycle).witnesses["C3"] == tuple(
        ("m1", "m1", x) for x in (1, 2, 3, 4)
    )
    cases = [make() for make in FIXTURES.values()]
    rng = random.Random(21)
    while len(cases) < len(FIXTURES) + 2000:
        cat = random_category(rng)
        if len(cases) % 2:
            act = random_table(rng, cat, random_points(rng), rng.uniform(0.1, 0.95))
            if len(cases) % 4 == 1:
                # Rows then appear out of morphism order, points out of carrier order.
                items = list(act.table.items())
                rng.shuffle(items)
                act = PartialAction(act.carrier, dict(items))
            cases.append((cat, act))
        else:
            act = random_valid_action(rng, cat, random_points(rng), rng.uniform(0.15, 0.8))
            if act is not None:
                cases.append((cat, act))
    shapes = [v for case in cases[len(FIXTURES) :] for v in _lane_shapes(rng, *case)]
    cases.append(cycle)
    failing = {"C1": 0, "C2": 0, "C4": 0, "GR1": 0, "GR4": 0, "C3 single": 0, "C3 rowless": 0}
    for n, (cat, act) in enumerate(cases + shapes):
        ref = _ref_report(cat, act)
        assert list(check_category_axioms(cat, act).witnesses.items()) == ref
        shape = n - len(cases)
        if shape >= 0 and shape % 3 < 2:
            failing[("C3 single", "C3 rowless")[shape % 3]] += bool(ref[2][1])
        failing["C1"] += len(ref[0][1]) > 1 and len({len(w) for w in ref[0][1]}) > 1
        failing["C2"] += len(ref[1][1]) > 1
        failing["C4"] += len({w[0] for w in ref[3][1]}) > 1
        wit = is_groupoid(cat)
        if wit is not None:
            ref = _ref_report(cat, act, wit)
            assert list(check_groupoid_axioms(cat, act).witnesses.items()) == ref
            derived = groupoid_report(cat, act, check_category_axioms(cat, act))
            assert list(derived.witnesses.items()) == ref
            failing["GR1"] += len(ref[0][1]) > 1
            failing["GR4"] += len(ref[3][1]) > 1
    # The cases order many witnesses, and mix (x,) with (e, x) in C1.
    assert min(failing.values()) > 50, failing


def test_partial_action_rejects_a_carrier_listing_a_point_twice():
    # On such a carrier the carrier walks (C1, C4) would list a point's
    # witnesses twice and the row walks (C3, GR3) once.
    cat, act = FIXTURES["iso_fixed"]()
    no_g = {k: v for k, v in act.table.items() if k[0] != "g"}
    with pytest.raises(ValueError, match="carrier lists a point twice"):
        PartialAction(("1", "2", "3", "1", "2"), no_g)
    assert act.carrier == ("1", "2", "3")
    assert PartialAction.make(("1", "2", "3", "1", "2"), no_g).carrier == act.carrier


def test_row_derived_reference_errors_match_the_reference_loops():
    cat, act = FIXTURES["iso_fixed"]()
    wit = is_groupoid(cat)
    hostile = [
        (("e", "3"), "3"),
        (("g", "1"), "9"),
        (("f", "1"), "1"),
        (("zzz", "1"), "1"),
        (("e", "7"), "7"),
    ]
    raised = set()
    for perm in itertools.permutations(hostile):
        bad = PartialAction(act.carrier, {**dict(perm), **act.table})
        expected = _ref_outcome(cat, bad)
        assert _outcome(check_category_axioms, cat, bad) == expected
        assert _outcome(check_groupoid_axioms, cat, bad) == _ref_outcome(cat, bad, wit)
        raised.add(expected)
    assert raised == {
        ("ValueError", "action entry ('g', '1') -> '9' leaves the carrier"),
        ("ValueError", "action references unknown morphism 'zzz'"),
        ("ValueError", "action entry ('e', '7') -> '7' leaves the carrier"),
    }


def test_groupoid_checks_reject_a_category_that_is_not_a_groupoid():
    cat, act = load("arrow_small")
    assert cat.inverse is None
    with pytest.raises(ValueError, match="need a groupoid"):
        check_groupoid_axioms(cat, act)
    with pytest.raises(ValueError, match="need a groupoid"):
        groupoid_report(cat, act, check_category_axioms(cat, act))


def test_composite_index_lists_the_g_of_each_cod_in_sorted_order():
    # The class-invariance audit of build_globalization compares the vectors
    # of the members over one codomain position by position, so every h over
    # a codomain c must list the same g: all those out of c, sorted.
    cats = [parse(path.read_text()).category for path in sorted(FIXTURE_DIR.glob("*.pcat"))]
    cats += [connected_groupoid(n, g) for n, g in ((1, "z2"), (2, "z3"), (2, "klein"), (3, "s3"))]
    cats += [group_category(name) for name in ("z1", "z2", "z3", "z4", "klein", "s3")]
    cats += [chain_category()] + [random_monoid(random.Random(s)) for s in range(10)]
    cat, kept, table = s3_restriction(random.Random(0))
    scn = Scenario("s3x3", "restricted", cat, PartialAction.make(kept, table), None, None, None)
    cats += [cat, parse(serialize(scn, "text")).category]
    for cat in cats:
        after = cat.after
        assert cat.after is after
        for h in cat.morphisms:
            assert isinstance(after[h], tuple), (cat.objects, h)
            out_of_cod = sorted(g for g in cat.morphisms if cat.dom[g] == cat.cod[h])
            assert [g for g, _ in after[h]] == out_of_cod, (cat.objects, h)
