"""Tests for the quotient construction, mediating maps, and receiver enumeration."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from pcat import (
    AxiomError,
    MediationError,
    PartialAction,
    build_globalization,
    build_xbar,
    check_category_axioms,
    check_g_function,
    check_groupoid_axioms,
    enumerate_globalizations,
    equiv_closure,
    induces_source,
    mediating,
    mediating_candidates,
    parse,
)
from pcat import globalization
from pcat.category import Category, ValidationReport, validate_category
from pcat.fixtures import FIXTURES, arrow_category
from pcat.globalization import (
    _anchored,
    _classes,
    _fresh_points,
    _one_step,
    naive_closure,
    sim_pairs,
    witness_traces,
)
from pcat.oracle import (
    _relabel_as_extension,
    _table_category,
    connected_groupoid,
    group_category,
    random_category,
    random_points,
    random_valid_action,
    suite_scenario,
)

import reference_enumerator as reference
from conftest import FIXTURE_DIR, REPO, chain_scenario, fixture_text
from test_action import s3_restriction

STEMS = ("arrow_small", "arrow_collapse", "iso_fixed", "iso_shift")


def load(stem):
    sc = parse(fixture_text(stem))
    return sc.category, sc.action


def _by_reference_key(receivers, act):
    """Pairs (target, j) of ``act`` in the order of their targets' reference
    keys, the order the reference enumerator returns."""
    key = reference.receiver_key(act)
    return sorted(receivers, key=lambda r: key(r[0]))


def test_xbar_frozen_sizes_and_membership():
    sizes = {"arrow_small": 6, "arrow_collapse": 9, "iso_fixed": 8, "iso_shift": 10}
    for stem, n in sizes.items():
        cat, act = load(stem)
        xb = build_xbar(cat, act)
        assert len(xb.elements) == n, stem
        for (g, x) in xb.elements:
            assert (cat.dom[g], x) in act.table
    cat, act = load("arrow_small")
    assert build_xbar(cat, act).elements == (
        ("e", "1"),
        ("e", "2"),
        ("f", "2"),
        ("f", "3"),
        ("g", "1"),
        ("g", "2"),
    )


def test_xbar_requires_first_three_axioms():
    cat, act = load("arrow_small")
    table = dict(act.table)
    table[("e", "1")] = "2"
    with pytest.raises(AxiomError) as exc:
        build_xbar(cat, PartialAction.make(act.carrier, table))
    assert exc.value.report.witnesses["C1"] == (("e", "1"),)


def test_sim_pairs_frozen_for_arrow_small():
    cat, act = load("arrow_small")
    sim = sim_pairs(cat, act, build_xbar(cat, act))
    assert sim.pairs == (
        (("e", "2"), ("f", "2")),
        (("f", "2"), ("e", "2")),
        (("g", "2"), ("f", "2")),
    )


def test_closures_agree_on_fixtures():
    for stem in STEMS:
        cat, act = load(stem)
        xb = build_xbar(cat, act)
        sim = sim_pairs(cat, act, xb)
        assert equiv_closure(xb, sim.pairs) == naive_closure(xb, sim), stem


@st.composite
def _groupoid_inputs(draw):
    """A C1-C3 action of a library groupoid: half the time a restriction of
    one or two copies of its regular action, which is anchored, else a
    ``random_valid_action`` draw."""
    group = draw(st.sampled_from(["z1", "z2", "z3", "z4", "klein", "s3"]))
    cat = connected_groupoid(draw(st.integers(1, 2 if group == "s3" else 3)), group)
    if draw(st.booleans()):
        copies = draw(st.integers(1, 2))
        points = [(m, c) for m in cat.morphisms for c in range(copies)]
        kept = draw(st.sets(st.sampled_from(points), min_size=1))
        table = {
            (g, (m, c)): (gm, c)
            for (g, m), gm in cat.comp.items()
            for c in range(copies)
            if (m, c) in kept and (gm, c) in kept
        }
        act = PartialAction.make(kept, table)
        assert _anchored(cat, act)
        return cat, act
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    act = random_valid_action(rng, cat, random_points(rng), rng.uniform(0.15, 0.8))
    assume(act is not None and _anchored(cat, act))
    return cat, act


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_groupoid_inputs())
def test_closed_form_classes_equal_both_closures_on_anchored_groupoid_actions(case):
    cat, act = case
    xbar = build_xbar(cat, act)
    closed = _classes(cat, act, xbar)
    assert closed == equiv_closure(xbar, _one_step(cat, act))
    assert closed == naive_closure(xbar, sim_pairs(cat, act, xbar))


def test_only_anchored_groupoid_actions_skip_the_union_find(monkeypatch):
    calls = []
    closure = globalization.equiv_closure

    def counted(xbar, sim):
        calls.append(len(xbar.elements))
        return closure(xbar, sim)

    monkeypatch.setattr(globalization, "equiv_closure", counted)
    cat, kept, table = s3_restriction(random.Random(1), copies=11)
    anchored = PartialAction.make(kept, table)
    assert _anchored(cat, anchored)
    build_globalization(cat, anchored)
    assert calls == []
    for stem in STEMS:
        cat, act = load(stem)
        assert not _anchored(cat, act)
        build_globalization(cat, act)
    assert len(calls) == len(STEMS)


def test_xbar_equals_the_scan_of_every_morphism_and_point():
    cases = _globalizable_cases(23, 300)
    cat, kept, table = s3_restriction(random.Random(2), copies=11)
    cases.append((cat, PartialAction.make(kept, table)))
    for cat, act in cases:
        expected = sorted((g, x) for g in cat.morphisms for x in act.carrier if (cat.dom[g], x) in act.table)
        assert build_xbar(cat, act).elements == tuple(expected)


def test_globalization_frozen_classes():
    expected = {
        "arrow_small": (
            (("e", "1"),),
            (("e", "2"), ("f", "2"), ("g", "2")),
            (("f", "3"),),
            (("g", "1"),),
        ),
        "arrow_collapse": (
            (("e", "1"),),
            (("e", "2"), ("f", "2"), ("g", "2"), ("g", "3")),
            (("e", "3"), ("f", "3")),
            (("f", "4"),),
            (("g", "1"),),
        ),
        "iso_fixed": (
            (("e", "1"),),
            (("e", "2"), ("f", "2"), ("g", "2"), ("g_inv", "2")),
            (("f", "3"),),
            (("g", "1"),),
            (("g_inv", "3"),),
        ),
        "iso_shift": (
            (("e", "1"), ("g_inv", "2")),
            (("e", "2"), ("f", "2"), ("g", "1"), ("g_inv", "3")),
            (("e", "3"), ("f", "3"), ("g", "2")),
            (("g", "3"),),
        ),
    }
    for stem, classes in expected.items():
        cat, act = load(stem)
        assert build_globalization(cat, act).classes == classes, stem


def test_globalization_frozen_table_for_arrow_small():
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    assert glob.embed == {"1": ("e", "1"), "2": ("e", "2"), "3": ("f", "3")}
    assert dict(glob.action) == {
        ("e", ("e", "1")): ("e", "1"),
        ("e", ("e", "2")): ("e", "2"),
        ("f", ("e", "2")): ("e", "2"),
        ("f", ("f", "3")): ("f", "3"),
        ("f", ("g", "1")): ("g", "1"),
        ("g", ("e", "1")): ("g", "1"),
        ("g", ("e", "2")): ("e", "2"),
    }


def _assert_quotient_is_global(cat, act):
    """The full re-check of what ``build_globalization`` takes from the
    theorem: its quotient action passes C1-C4 (and GR1-GR4 over a groupoid)."""
    glob = build_globalization(cat, act)
    quotient = glob.as_action()
    assert check_category_axioms(cat, quotient).witnesses == glob.axioms.witnesses
    assert glob.axioms.all_pass
    if cat.inverse is not None:
        assert check_groupoid_axioms(cat, quotient).all_pass
    return glob


def test_quotient_actions_are_global():
    for cat, act in _globalizable_cases(17, 400):
        _assert_quotient_is_global(cat, act)


def test_quotient_action_of_a_440_point_s3_restriction_is_global():
    cat, kept, table = s3_restriction(random.Random(1), copies=10, keep=44)
    glob = _assert_quotient_is_global(cat, PartialAction.make(kept, table))
    assert len(glob.source.carrier) == 440
    assert len(glob.classes) > 440


def _globalizable_cases(seed, count):
    """Fixtures, ``count`` seeded random C1-C3 actions, and S3 restrictions."""
    cases = _fixture_actions() + [make() for make in FIXTURES.values()]
    stop = len(cases) + count
    rng = random.Random(seed)
    while len(cases) < stop:
        cat = random_category(rng)
        act = random_valid_action(rng, cat, random_points(rng), rng.uniform(0.15, 0.8))
        if act is not None:
            cases.append((cat, act))
    for s in range(3):
        cat, kept, table = s3_restriction(random.Random(s))
        cases.append((cat, PartialAction.make(kept, table)))
    return cases


def test_construction_closure_matches_naive_closure_of_sim_pairs():
    for cat, act in _globalizable_cases(11, 500):
        glob = build_globalization(cat, act)
        assert glob.classes == naive_closure(glob.xbar, sim_pairs(cat, act, glob.xbar))


def test_witness_trace_chains_are_valid():
    # The fixtures, and one 440-point restriction (11 S3-groupoid copies).
    cases = [(stem, *load(stem)) for stem in STEMS]
    cat, kept, table = s3_restriction(random.Random(7), copies=11)
    assert len(kept) == 440
    cases.append(("440 points", cat, PartialAction.make(kept, table)))
    for stem, cat, act in cases:
        glob = build_globalization(cat, act)
        stream = set(globalization._one_step(cat, act))
        traces = witness_traces(glob)
        assert len(traces) == len(glob.xbar.elements), stem
        for cls in glob.classes:
            rep = cls[0]
            for member in cls:
                chain = traces[member]
                at = rep
                for (src, dst, direction) in chain:
                    assert (src, dst) in stream
                    if direction == "fwd":
                        assert src == at
                        at = dst
                    else:
                        assert direction == "rev" and dst == at
                        at = src
                assert at == member, (stem, member)


def test_self_audit_catches_a_sabotaged_closure_under_python_O():
    script = textwrap.dedent(
        """
        import sys
        import pcat.globalization as G
        from pcat.fixtures import FIXTURES

        G.equiv_closure = lambda xbar, sim: tuple((el,) for el in xbar.elements)
        for name, make in FIXTURES.items():
            try:
                G.build_globalization(*make())
            except RuntimeError:
                print(name, "raised")
            else:
                print(name, "returned")
        print("optimize", sys.flags.optimize)
        """
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{n} raised" for n in FIXTURES] + ["optimize 1"]


def test_embedding_is_equivariant_and_induces_source():
    for stem in STEMS:
        cat, act = load(stem)
        glob = build_globalization(cat, act)
        quotient = glob.as_action()
        assert check_g_function(dict(glob.embed), act, quotient).ok
        assert induces_source(cat, act, quotient, glob.embed).ok


def test_induces_source_flags_a_doctored_embedding():
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    doctored = {**glob.embed, "2": ("e", "1")}
    rep = induces_source(cat, act, glob.as_action(), doctored)
    assert not rep.ok


def test_check_g_function_rejects_non_total_maps():
    cat, act = load("arrow_small")
    with pytest.raises(ValueError):
        check_g_function({"1": "1"}, act, act)
    with pytest.raises(ValueError):
        check_g_function({"1": "9", "2": "2", "3": "3"}, act, act)


def test_check_g_function_witnesses():
    cat, act = load("arrow_small")
    target = parse(fixture_text("arrow_small_target"))
    squash = {"1": "e__1", "2": "e__1", "3": "f__4"}
    # Sorted whatever the order of the source table.
    for table in (act.table, dict(reversed(act.table.items()))):
        rep = check_g_function(squash, PartialAction(act.carrier, table), target.action)
        assert not rep.ok
        assert rep.witnesses == (("f", "2"), ("g", "2"))


def test_mediating_frozen_map_into_target_fixture():
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    target = parse(fixture_text("arrow_small_target"))
    k = mediating(glob, target.action, dict(target.gfun))
    assert k == {
        ("e", "1"): "e__1",
        ("e", "2"): "e__2",
        ("f", "3"): "f__4",
        ("g", "1"): "g__1",
    }
    assert len(set(k.values())) == len(k)
    assert mediating_candidates(glob, target.action, dict(target.gfun)) == [k]


def test_mediating_rejects_partial_target():
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    with pytest.raises(MediationError):
        mediating(glob, act, {x: x for x in act.carrier})


def test_mediating_rejects_non_equivariant_map():
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    target = parse(fixture_text("arrow_small_target"))
    squash = {"1": "e__1", "2": "e__1", "3": "f__4"}
    with pytest.raises(MediationError):
        mediating(glob, target.action, squash)


def test_mediating_rejects_non_total_map():
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    target = parse(fixture_text("arrow_small_target"))
    with pytest.raises(ValueError):
        mediating(glob, target.action, {"1": "e__1"})


def test_enumerate_validates_size_bounds():
    cat, act = load("arrow_small")
    for bad in (0, 9, -1):
        with pytest.raises(ValueError):
            enumerate_globalizations(cat, act, bad)


def test_enumerate_receivers_are_global_extensions():
    cat, act = load("arrow_small")
    found = enumerate_globalizations(cat, act, 4)
    assert len(found) == 214
    for target, j in found:
        assert j == {x: x for x in act.carrier}
        assert check_category_axioms(cat, target).all_pass
        assert check_g_function(j, act, target).ok


def test_enumerate_groupoid_receivers_act_bijectively():
    cat, act = load("iso_fixed")
    for target, _ in enumerate_globalizations(cat, act, 4):
        assert check_groupoid_axioms(cat, target).all_pass
        for g in cat.morphisms:
            steps = {x: y for (m, x), y in target.table.items() if m == g}
            assert len(set(steps.values())) == len(steps), g


def test_enumerate_contains_the_quotient():
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    relabeled = _relabel_as_extension(glob)
    key = reference.receiver_key(act)
    keys = {key(t) for t, _ in enumerate_globalizations(cat, act, len(relabeled.carrier))}
    assert key(relabeled) in keys


def test_enumerator_orders_points_of_any_type_by_str():
    # Integer points meet fresh string points once the carrier grows.
    for cat, count in (
        (group_category("z2"), 13),
        (group_category("klein"), 48),
        (connected_groupoid(2, "z2"), 238),
    ):
        e = cat.objects[0]
        got = enumerate_globalizations(cat, PartialAction((1, 2), {(e, 1): 1, (e, 2): 2}), 4)
        want = enumerate_globalizations(cat, PartialAction(("1", "2"), {(e, "1"): "1", (e, "2"): "2"}), 4)
        assert len(got) == len(want) == count
        for (target, j), (named, k) in zip(got, want):
            assert tuple(map(str, target.carrier)) == named.carrier
            assert [(g, str(x), str(y)) for (g, x), y in target.table.items()] == [
                (g, x, y) for (g, x), y in named.table.items()
            ]
            assert {str(x): str(y) for x, y in j.items()} == k


def test_enumerator_matches_the_reference_enumerator():
    cases = []
    for path in sorted(FIXTURE_DIR.glob("*.pcat")):
        sc = parse(path.read_text(encoding="utf-8"))
        cases += [(sc.category, sc.action, b) for b in range(len(sc.action.carrier), 6)]
    # No point lies over f, so every receiver with an empty fibre over f
    # gives g no cell values to try.
    empty_f = PartialAction(("1", "2"), {("e", "1"): "1", ("e", "2"): "2"})
    cases += [(arrow_category(), empty_f, b) for b in (2, 3, 4)]
    rng = random.Random(1602)
    drawn = 0
    while drawn < 200:
        cat = random_category(rng)
        act = random_valid_action(rng, cat, random_points(rng, 3), rng.uniform(0.2, 0.7))
        if act is None:
            continue
        # The reference needs minutes on the three-object chain at bound 4.
        top = 4 if len(cat.objects) < 3 else 3
        cases.append((cat, act, rng.randint(len(act.carrier), max(top, len(act.carrier)))))
        drawn += 1
    for cat, act, bound in cases:
        got = _by_reference_key(enumerate_globalizations(cat, act, bound), act)
        assert got == reference.enumerate_globalizations(cat, act, bound), (cat, act, bound)


def test_enumerate_z4_receivers_at_bound_8_within_a_second():
    # Forced-value propagation alone took seconds here: m1 and m3 swap 2
    # and 3 but leave the values of fresh points free until the leaves.
    cat = group_category("z4")
    table = {("e", x): x for x in "1234"}
    for m in ("m1", "m3"):
        table.update({(m, "2"): "3", (m, "3"): "2", (m, "4"): "4"})
    table.update({("m2", x): x for x in "234"})
    act = PartialAction(("1", "2", "3", "4"), table)
    t0 = time.perf_counter()
    found = enumerate_globalizations(cat, act, 8)
    elapsed = time.perf_counter() - t0
    assert len(found) == 18
    assert elapsed <= 1.0, elapsed


def test_enumerate_z24_receivers_at_bound_5_within_a_second():
    # F(m1) determines every row, but m10 to m19 sort before m2: branching
    # on their cells instead of deriving them took seconds here.
    cat = _table_category([[(i + j) % 24 for j in range(24)] for i in range(24)])
    act = PartialAction(("1",), {("e", "1"): "1"})
    t0 = time.perf_counter()
    found = enumerate_globalizations(cat, act, 5)
    elapsed = time.perf_counter() - t0
    assert len(found) == 25
    assert elapsed <= 1.0, elapsed
    # At bound 8 each kept table is tested against 5,039 renamings of its
    # fresh points, with the same first-difference scan that cuts branches.
    assert len(enumerate_globalizations(cat, act, 8)) == 103


def _fold_choices(cat, act, bound):
    """Each carrier and fibre choice of a receiver of ``act`` up to ``bound``
    points, with its non-identity cells in sorted order and each cell's
    values: the given one on a cell of ``act``, else the codomain fibre."""
    X = list(act.carrier)
    non_id = sorted(m for m in cat.morphisms if m not in cat.objects)
    for n in range(len(X), bound + 1):
        aux = _fresh_points(X, n - len(X))
        Z = sorted(X + aux, key=str)
        subsets = [set(c) for r in range(n + 1) for c in itertools.combinations(Z, r)]
        for choice in itertools.product(subsets, repeat=len(cat.objects)):
            sets = dict(zip(cat.objects, choice))
            if any(x not in sets[cat.dom[g]] for g, x in act.table):
                continue
            cells = [(m, z) for m in non_id for z in sorted(sets[cat.dom[m]])]
            values = [[act.table[c]] if c in act.table else sorted(sets[cat.cod[c[0]]]) for c in cells]
            yield aux, Z, sets, cells, values


def _brute_force_fold(cat, act, bound):
    """Every table on every fibre choice, kept when it passes C1-C4, then
    folded to the first table of each reference canonical key."""
    X = list(act.carrier)
    seen = {}
    for aux, Z, sets, cells, values in _fold_choices(cat, act, bound):
        for vals in itertools.product(*values):
            step = dict(zip(cells, vals))
            table = {
                (m, z): z if m in cat.objects else step[(m, z)]
                for m in cat.morphisms
                for z in sorted(sets[cat.dom[m]], key=str)
            }
            target = PartialAction(tuple(Z), table)
            if check_category_axioms(cat, target).all_pass:
                seen.setdefault(reference._canonical_key(target, X, aux), (target, {x: x for x in X}))
    return [seen[k] for k in sorted(seen)]


def _fold_size(cat, act, bound):
    return sum(math.prod(map(len, values)) for *_, values in _fold_choices(cat, act, bound))


def test_enumerator_matches_a_brute_force_fold():
    cases = [(cat, act, len(act.carrier) + d) for cat, act in _fixture_actions() for d in (0, 1)]
    # Cells of g, in no composite, come before those of the involution t,
    # and the fresh points have renamings: no library category mixes these.
    apart = Category.make(["e", "f", "o"], {"g": ("e", "f"), "t": ("o", "o")}, {("t", "t"): "o"})
    cases.append((apart, PartialAction(("1",), {("o", "1"): "1"}), 3))
    rng = random.Random(1978)
    while len(cases) < len(_fixture_actions()) * 2 + 51:
        cat = random_category(rng)
        act = random_valid_action(rng, cat, random_points(rng, 3), rng.uniform(0.2, 0.7))
        if act is None:
            continue
        # The brute force builds every table: take the larger bound that keeps it small.
        bounds = [b for b in (len(act.carrier) + 1, len(act.carrier)) if _fold_size(cat, act, b) <= 2000]
        if bounds:
            cases.append((cat, act, bounds[0]))
    for cat, act, bound in cases:
        got = _by_reference_key(enumerate_globalizations(cat, act, bound), act)
        want = _brute_force_fold(cat, act, bound)
        assert got == want, (cat, act, bound)
        assert [list(t.table.items()) for t, _ in got] == [list(t.table.items()) for t, _ in want]


def _z4_swap():
    """The input of test_enumerate_z4_receivers_at_bound_8_within_a_second."""
    cat = group_category("z4")
    table = {("e", x): x for x in "1234"}
    for m in ("m1", "m3"):
        table.update({(m, "2"): "3", (m, "3"): "2", (m, "4"): "4"})
    table.update({("m2", x): x for x in "234"})
    return cat, PartialAction(("1", "2", "3", "4"), table)


def _fixture_actions():
    """Each distinct (category, action) pair among the fixture files."""
    found = []
    for path in sorted(FIXTURE_DIR.glob("*.pcat")):
        sc = parse(path.read_text(encoding="utf-8"))
        if (sc.category, sc.action) not in found:
            found.append((sc.category, sc.action))
    return found


@pytest.mark.parametrize(
    "stem, calls, receivers",
    [("iso_fixed", 80, 152), ("iso_shift", 40, 30), ("arrow_small", 80, 10974)],
)
def test_enumerator_skips_fibre_choices_a_renaming_puts_earlier(stem, calls, receivers, monkeypatch):
    # Without the skip the search runs on 160 / 80 / 160 fibre choices.
    searched = []
    functors = globalization._functors

    def counted(cat, sets, act):
        searched.append(sets)
        return functors(cat, sets, act)

    monkeypatch.setattr(globalization, "_functors", counted)
    cat, act = load(stem)
    assert len(enumerate_globalizations(cat, act, 6)) == receivers
    assert len(searched) == calls


def test_enumerator_search_tree_on_the_chain_category_is_pinned():
    # The chain category has no cell outside a composition instance, so its
    # tree is the propagation's alone.  Forcing cells later (without the
    # as_g role: 73,368 and 34,538) grows both counts.
    calls = {"_functors.<locals>.assign": 0, "_functors.<locals>.beaten": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_qualname in calls:
            calls[frame.f_code.co_qualname] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = suite_scenario(*chain_scenario(), 5)
    finally:
        sys.setprofile(previous)
    assert result.cases == 9347
    assert calls == {"_functors.<locals>.assign": 12136, "_functors.<locals>.beaten": 21322}


def _outcome(fn, *args):
    try:
        return [list(c.items()) for c in fn(*args)]
    except ValueError as exc:
        return (type(exc), str(exc))


def test_mediating_candidates_match_the_product_search():
    cases = []
    for cat, act in _fixture_actions():
        glob = build_globalization(cat, act)
        cases += [(glob, t, j) for t, j in enumerate_globalizations(cat, act, len(act.carrier) + 1)]
    rng = random.Random(31)
    drawn = 0
    while drawn < 60:
        cat = random_category(rng)
        act = random_valid_action(rng, cat, random_points(rng, 3), rng.uniform(0.2, 0.7))
        if act is None:
            continue
        glob = build_globalization(cat, act)
        if len(glob.classes) > 8:
            continue  # the product search would run for seconds
        drawn += 1
        top = 4 if len(cat.objects) < 3 else 3
        bound = max(min(len(glob.classes) + 1, top), len(act.carrier))
        receivers = _by_reference_key(enumerate_globalizations(cat, act, bound), act)
        for target, j in rng.sample(receivers, min(4, len(receivers))):
            cases.append((glob, target, j))
            # Pinned classes that may break equivariance among themselves.
            cases.append((glob, target, {x: rng.choice(target.carrier) for x in j}))
    # A global source leaves no free class, and j may leave the target.
    cat, act = load("iso_shift")
    target = _relabel_as_extension(build_globalization(cat, act))
    glob = build_globalization(cat, target)
    ident = {x: x for x in target.carrier}
    flipped = dict(ident, **{"1": "2", "2": "1"})
    outside = dict(ident, **{"1": "zz"})
    cases += [(glob, target, ident), (glob, target, flipped), (glob, target, outside)]
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    target, j = _by_reference_key(enumerate_globalizations(cat, act, 4), act)[-1]
    cases += [(glob, target, dict(j, **{"1": "zz"})), (glob, target, dict(j, **{"1": "2", "2": "1"}))]
    empty = PartialAction((), {})
    cases.append((glob, empty, {x: x for x in act.carrier}))
    outcomes = []
    for glob, target, j in cases:
        want = _outcome(reference.mediating_candidates, glob, target, j)
        assert _outcome(mediating_candidates, glob, target, j) == want, (glob.source, target, j)
        outcomes.append(want)
    assert any(o == [] for o in outcomes)
    assert any(isinstance(o, list) and len(o) == 1 for o in outcomes)
    assert any(isinstance(o, tuple) for o in outcomes)


def test_mediating_candidates_prune_the_product_of_free_classes():
    # An 8-point receiver: one fresh point w0 over all three objects, and
    # w1-w3 over c alone.  The product search checks 8 ** 4 candidates,
    # about 0.1 s on a 2-core x86-64 VM; the pruned search about 0.1 ms.
    cat, act = chain_scenario()
    glob = build_globalization(cat, act)
    assert len(glob.classes) == 8
    points = ("1", "2", "3", "4", "w0", "w1", "w2", "w3")
    table = {(e, z): z for e in "abc" for z in ("1", "2", "3", "4", "w0")}
    table.update({("c", z): z for z in ("w1", "w2", "w3")})
    table.update(zip([("p", z) for z in ("1", "2", "3", "4", "w0")], "1232w"))
    table.update(zip([("q", z) for z in ("1", "2", "3", "4", "w0")], "14414"))
    table.update(zip([("qp", z) for z in ("1", "2", "3", "4", "w0")], "14444"))
    table[("p", "w0")] = "w0"
    target = PartialAction(points, table)
    j = {x: x for x in act.carrier}
    assert check_category_axioms(cat, target).all_pass
    assert check_g_function(j, act, target).ok
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        found = mediating_candidates(glob, target, j)
        elapsed.append(time.perf_counter() - t0)
    assert found == [mediating(glob, target, j)]
    assert min(elapsed) <= 0.01, elapsed


def test_mediating_unique_across_small_receivers():
    cat, act = load("arrow_small")
    glob = build_globalization(cat, act)
    for target, j in enumerate_globalizations(cat, act, 4):
        cands = mediating_candidates(glob, target, j)
        assert len(cands) == 1
        assert cands[0] == mediating(glob, target, j)


def test_induces_source_accepts_relabeled_quotient():
    for stem in STEMS:
        cat, act = load(stem)
        glob = build_globalization(cat, act)
        relabeled = _relabel_as_extension(glob)
        j = {x: x for x in act.carrier}
        assert induces_source(cat, act, relabeled, j).ok, stem


def _three_cycle_receiver():
    sc = parse(fixture_text("iso_shift"))
    table = {}
    for x in ("1", "2", "3"):
        table[("e", x)] = x
        table[("f", x)] = x
    cycle = {"1": "2", "2": "3", "3": "1"}
    for x, y in cycle.items():
        table[("g", x)] = y
        table[("g_inv", y)] = x
    return sc.category, sc.action, PartialAction.make(("1", "2", "3"), table)


def test_noninjective_mediation_without_definedness_reflection():
    # A receiver can extend the action without reflecting definedness: here
    # every identity becomes total and the isomorphism becomes a 3-cycle, so
    # the target defines steps on original points that the source leaves
    # undefined.  The mediating map then folds a fresh class onto an
    # embedded one even though the embedding into this receiver is injective.
    cat, act, recv = _three_cycle_receiver()
    assert check_category_axioms(cat, recv).all_pass
    assert check_groupoid_axioms(cat, recv).all_pass
    j = {x: x for x in act.carrier}
    assert check_g_function(j, act, recv).ok
    assert induces_source(cat, act, recv, j).witnesses == (
        ("f", "1"),
        ("g", "3"),
        ("g_inv", "1"),
    )
    glob = build_globalization(cat, act)
    k = mediating(glob, recv, j)
    assert k[("e", "1")] == "1" and k[("g", "3")] == "1"
    assert len(set(k.values())) == 3 and len(k) == 4


def _carousel_receiver():
    sc = parse(fixture_text("iso_fixed"))
    table = {}
    for x in ("1", "2", "w0"):
        table[("e", x)] = x
    for x in ("2", "3", "w0"):
        table[("f", x)] = x
    for x, y in {"1": "w0", "2": "2", "w0": "3"}.items():
        table[("g", x)] = y
    for x, y in {"2": "2", "3": "w0", "w0": "1"}.items():
        table[("g_inv", x)] = y
    return sc.category, sc.action, PartialAction.make(("1", "2", "3", "w0"), table)


def test_noninjective_mediation_even_with_definedness_reflection():
    # One fresh point can sit in the identity domains of several objects at
    # once and absorb distinct classes whose tags end at different objects.
    # This receiver restricts to exactly the source on the original points
    # (no extra defined steps land back on them), yet the mediating map sends
    # two distinct fresh classes to the same fresh point.
    cat, act, recv = _carousel_receiver()
    assert check_category_axioms(cat, recv).all_pass
    assert check_groupoid_axioms(cat, recv).all_pass
    j = {x: x for x in act.carrier}
    assert check_g_function(j, act, recv).ok
    assert induces_source(cat, act, recv, j).ok
    glob = build_globalization(cat, act)
    k = mediating(glob, recv, j)
    assert k[("g", "1")] == "w0" and k[("g_inv", "3")] == "w0"
    assert len(set(k.values())) == 4 and len(k) == 5


def test_mediation_between_quotients_is_bijective():
    # Between a quotient and a relabeled copy of itself the mediating map is
    # a bijection; this is the form of injectivity that survives the
    # counterexamples above.
    for stem in STEMS:
        cat, act = load(stem)
        glob = build_globalization(cat, act)
        relabeled = _relabel_as_extension(glob)
        j = {x: x for x in act.carrier}
        k = mediating(glob, relabeled, j)
        assert len(set(k.values())) == len(k) == len(glob.classes)
        assert set(k.values()) == set(relabeled.carrier)


def _reference_quotient_action(cat, classes, class_of):
    """The quotient action as the member-by-member loop built it before the
    class-invariance audit compared whole vectors, over the composite index."""
    after = cat.after
    action = {}
    for cls in classes:
        rep = cls[0]
        for (h, x) in cls:
            for g, k in after.get(h, ()):
                dst = class_of[(k, x)]
                if action.setdefault((g, rep), dst) != dst:
                    raise RuntimeError(f"action of {g} on {rep} is not class-invariant")
    return action


def test_one_step_streams_only_pairs_c3_does_not_imply():
    cat, kept, table = s3_restriction(random.Random(0))
    act = PartialAction.make(kept, table)
    t = act.table
    # Counted from the table and the composition table alone: one identity
    # instance per non-identity step, one pair per composable g with g.y
    # undefined, and one link between consecutive identity tags of a point.
    # Identity steps give only reflexive pairs and are not streamed.
    composable = [(g, h) for (g, h) in cat.comp if cat.dom[g] == cat.cod[h]]
    full_pairs = steps = open_pairs = 0
    for (h, x), y in t.items():
        moving = h not in cat.objects
        steps += moving
        for g, h2 in composable:
            if h2 == h:
                full_pairs += 1
                open_pairs += moving and (g, y) not in t
    links = sum(max(sum((e, x) in t for e in cat.objects) - 1, 0) for x in act.carrier)
    pairs = list(globalization._one_step(cat, act))
    assert len(pairs) == steps + open_pairs + links
    assert len(pairs) * 3 < full_pairs + links
    # Every streamed pair is a generating pair of the relation.
    assert set(pairs) <= set(sim_pairs(cat, act, build_xbar(cat, act)).pairs)


def test_one_step_stream_has_no_reflexive_pair():
    # Besides identity steps, a step h.x = x with g h = g and g.x undefined
    # (an idempotent in a monoid) would give the pair ((g, x), (g, x)).
    fixed_points = 0
    for cat, act in _globalizable_cases(5, 500):
        t = act.table
        after = cat.after
        fixed_points += sum(
            k == g and (g, x) not in t
            for (h, x), y in t.items()
            if h not in cat.objects and x == y
            for g, k in after.get(h, ())
        )
        assert not [a for a, b in globalization._one_step(cat, act) if a == b]
    assert fixed_points > 0


def test_quotient_action_matches_the_reference_loop_and_lists_its_keys_sorted():
    # The action equals the reference loop's as a map, and it lists its keys
    # g-major, as sorted(action) does, on both class routes.
    routes = set()
    c4_fails = 0
    for cat, act in _globalizable_cases(32, 300) + [chain_scenario()]:
        glob = build_globalization(cat, act)
        xbar = build_xbar(cat, act)
        classes = equiv_closure(xbar, sim_pairs(cat, act, xbar).pairs)
        ref = _reference_quotient_action(cat, classes, {el: c[0] for c in classes for el in c})
        assert glob.action == ref
        assert list(glob.action) == sorted(glob.action)
        routes.add(_anchored(cat, act))
        c4_fails += not check_category_axioms(cat, act).passed("C4")
    assert routes == {True, False} and c4_fails > 0
    # At scale: one 440-point restriction (11 S3-groupoid copies).
    cat, kept, table = s3_restriction(random.Random(7), copies=11)
    glob = build_globalization(cat, PartialAction.make(kept, table))
    assert len(glob.source.carrier) == 440
    ref = _reference_quotient_action(cat, glob.classes, glob.class_of)
    assert glob.action == ref
    assert list(glob.action) == sorted(glob.action)


def test_sabotaged_closure_names_the_g_and_rep_of_the_reference_loop(monkeypatch):
    cases = [make() for make in FIXTURES.values()]
    cases += [chain_scenario(), _z4_swap()]
    for s in range(3):
        cat, kept, table = s3_restriction(random.Random(s))
        cases.append((cat, PartialAction.make(kept, table)))
    classes_of = globalization._classes
    messages = set()
    for cat, act in cases:
        classes = build_globalization(cat, act).classes
        for i, j in itertools.combinations(range(min(len(classes), 12)), 2):
            merged = [c for n, c in enumerate(classes) if n not in (i, j)]
            merged = tuple(sorted(merged + [tuple(sorted(classes[i] + classes[j]))]))
            class_of = {el: c[0] for c in merged for el in c}
            try:
                _reference_quotient_action(cat, merged, class_of)
            except RuntimeError as exc:
                expected = str(exc)
            else:
                continue
            monkeypatch.setattr(globalization, "_classes", lambda cat, act, xbar: merged)
            with pytest.raises(RuntimeError) as info:
                build_globalization(cat, act)
            monkeypatch.setattr(globalization, "_classes", classes_of)
            assert str(info.value) == expected
            messages.add(expected)
    assert len(messages) > 30


def test_sabotaged_closure_is_caught_whatever_the_composite_insertion_order(monkeypatch):
    # Z3 with its composites inserted so that the g after e come as e, m1, m2
    # and the g after m1 as m2, e, m1.  Listed in those orders, (e, 1) and
    # (m1, 1) in the merged class below would give equal vectors that are
    # different maps; the composite index lists both in sorted order.
    z3 = group_category("z3")
    order = [("e", "e"), ("m1", "e"), ("m2", "e"), ("m2", "m1"), ("e", "m1"), ("m1", "m1")]
    comp = {key: z3.comp[key] for key in order}
    comp.update(z3.comp)
    cat = Category(z3.objects, z3.morphisms, z3.dom, z3.cod, comp)
    after = cat.after
    assert [g for g, _ in after["e"]] == [g for g, _ in after["m1"]] == ["e", "m1", "m2"]
    act = PartialAction(("1", "2"), {("e", "1"): "1", ("e", "2"): "2"})
    merged = (
        (("e", "1"), ("e", "2"), ("m1", "1"), ("m1", "2")),
        (("m2", "1"), ("m2", "2")),
    )
    class_of = {el: c[0] for c in merged for el in c}
    with pytest.raises(RuntimeError) as expected:
        _reference_quotient_action(cat, merged, class_of)
    monkeypatch.setattr(globalization, "_classes", lambda cat, act, xbar: merged)
    with pytest.raises(RuntimeError) as info:
        build_globalization(cat, act)
    assert str(info.value) == str(expected.value) == (
        "action of m1 on ('e', '1') is not class-invariant"
    )


def test_receiver_tables_do_not_depend_on_the_hash_seed():
    script = textwrap.dedent(
        """
        from pcat.fixtures import FIXTURES
        from pcat.globalization import enumerate_globalizations
        for name, make in FIXTURES.items():
            for target, j in enumerate_globalizations(*make(), 5):
                print(name, list(target.table.items()), list(j.items()))
        """
    )
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.splitlines())
    # Reported by line number: a diff of the whole output is slow to build.
    differ = [i for i, (a, b) in enumerate(zip(*outs)) if a != b]
    assert not differ, f"{len(differ)} receivers differ, first at line {differ[0]}"
    assert len(outs[0]) == len(outs[1]) > 2000


def test_build_globalization_names_the_missing_composite():
    cat, act = chain_scenario()
    comp = {key: k for key, k in cat.comp.items() if key != ("q", "p")}
    broken = Category(cat.objects, cat.morphisms, cat.dom, cat.cod, comp)
    with pytest.raises(ValueError) as info:
        build_globalization(broken, act)
    assert str(info.value) == (
        "globalization requires a lawful category: no composite declared for q after p (and 1 more)"
    )
    # Unchecked, the same category fails the class-invariance audit: the
    # members over b of one class list q after b but not after p.
    broken.__dict__["validation"] = ValidationReport(())
    with pytest.raises(RuntimeError) as info:
        build_globalization(broken, act)
    assert str(info.value) == "action of q on ('a', '2') is not class-invariant"


def test_build_globalization_counts_the_other_violations():
    cat, kept, table = s3_restriction(random.Random(0))
    hs = sorted(h for h in cat.morphisms if cat.cod[h] == "o0" and h not in cat.objects)
    g1, g2 = sorted(g for g in cat.morphisms if cat.dom[g] == "o0" and g not in cat.objects)[:2]
    dropped = {(g1, hs[0])} | {(g2, h) for h in hs[1:]}
    comp = {key: k for key, k in cat.comp.items() if key not in dropped}
    cat = Category(cat.objects, cat.morphisms, cat.dom, cat.cod, comp)
    with pytest.raises(ValueError) as info:
        build_globalization(cat, PartialAction.make(kept, table))
    first = validate_category(cat).violations[0]
    assert first.kind == "missing_comp"
    n = len(validate_category(cat).violations) - 1
    assert str(info.value) == (
        f"globalization requires a lawful category: {first.detail} (and {n} more)"
    )
