"""Tests for finite topologies, continuity checks, and the topologized quotient."""

import itertools
import random

from pcat import (
    FiniteTopology,
    PartialAction,
    Space,
    TopScenario,
    build_globalization,
    check_continuous_action,
    check_embedding_open,
    check_graph_open,
    check_star_open,
    check_topological_category,
    parse,
    quotient_space,
    topologize_globalization,
    validate_topology,
)
from pcat.topology import _discontinuities, _skey
from pcat.oracle import (
    group_category,
    random_category,
    random_points,
    random_topology,
    random_valid_action,
    small_category,
)

import explicit_topology as explicit
from conftest import fixture_text, traced_peak
from explicit_topology import min_nbhd, product_topology, quotient_topology
from test_action import s3_restriction

fs = frozenset


def brute_opens(space):
    pts = list(space.carrier)
    out = set()
    for mask in range(1 << len(pts)):
        s = fs(p for i, p in enumerate(pts) if mask >> i & 1)
        if all(space.nbhd[p] <= s for p in s):
            out.add(s)
    return fs(out)


def test_validate_topology_positive_and_builders():
    t = FiniteTopology.make("12", [set(), {"1"}, {"2"}, {"1", "2"}])
    assert validate_topology(t).ok
    d = Space.discrete("123").to_topology()
    assert validate_topology(d).ok and len(d.opens) == 8
    i = FiniteTopology.make("123", ["123"])
    assert validate_topology(i).ok and len(i.opens) == 2


def test_validate_topology_negatives():
    t = FiniteTopology.make("12", [set(), {"1"}, {"2"}])
    assert validate_topology(t).witnesses == (
        ("missing_total",),
        ("union", ("1",), ("2",)),
    )
    t = FiniteTopology.make("123", [set(), {"1", "2"}, {"2", "3"}, {"1", "2", "3"}])
    assert validate_topology(t).witnesses == (("intersection", ("1", "2"), ("2", "3")),)
    t = FiniteTopology(("1", "2"), fs({fs("1"), fs("12")}))
    assert ("missing_empty",) in validate_topology(t).witnesses
    t = FiniteTopology.make("12", [set(), {"1"}])
    assert validate_topology(t).witnesses == (("missing_total",),)
    t = FiniteTopology(("1", "2"), fs({fs(), fs("12"), fs("13")}))
    assert ("stray_points", ("3",)) in validate_topology(t).witnesses


def test_min_nbhd_on_a_chain():
    t = FiniteTopology.make("123", [set(), {"1"}, {"1", "2"}, {"1", "2", "3"}])
    assert min_nbhd(t, "1") == fs("1")
    assert min_nbhd(t, "2") == fs("12")
    assert min_nbhd(t, "3") == fs("123")


def test_space_opens_matches_brute_force():
    rng = random.Random(97)
    for _ in range(40):
        t = random_topology(rng, "abcd")
        assert validate_topology(t).ok
        sp = Space.from_topology(t)
        assert sp.opens() == t.opens == brute_opens(sp)
        assert all(sp.nbhd[p] == min_nbhd(t, p) for p in t.carrier)


def test_product_dual_route_and_brute_force():
    # The union closure of the rectangles against the pointwise definition:
    # a set W of pairs is open iff U_p x U_q lies in W for each (p, q) in W.
    rng = random.Random(11)
    for _ in range(25):
        a = random_topology(rng, "ab")
        b = random_topology(rng, "xyz")
        via_fn = product_topology(a, b)
        assert set(via_fn.carrier) == {(p, q) for p in "ab" for q in "xyz"}
        near = {(p, q): fs(itertools.product(min_nbhd(a, p), min_nbhd(b, q))) for p, q in via_fn.carrier}
        expect = set()
        for mask in range(1 << len(via_fn.carrier)):
            w = fs(pq for i, pq in enumerate(via_fn.carrier) if mask >> i & 1)
            if all(near[pq] <= w for pq in w):
                expect.add(w)
        assert via_fn.opens == fs(expect)
        assert validate_topology(via_fn).ok


def test_quotient_dual_route_and_finest_property():
    rng = random.Random(29)
    for _ in range(40):
        t = random_topology(rng, "abcd")
        class_of = {p: rng.choice("xy") for p in "abcd"}
        if len(set(class_of.values())) == 1:
            class_of["a"] = "x"
            class_of["b"] = "y"
        reps = {p: min(q for q in class_of if class_of[q] == class_of[p]) for p in class_of}
        via_fn = quotient_topology(t, reps)
        # Finest topology making the projection continuous: a set of classes
        # is open exactly when its preimage is open.
        members = {}
        for p, r in reps.items():
            members.setdefault(r, set()).add(p)
        expect = set()
        for mask in range(1 << len(members)):
            chosen = [r for i, r in enumerate(sorted(members)) if mask >> i & 1]
            pre = set().union(*(members[r] for r in chosen)) if chosen else set()
            if frozenset(pre) in t.opens:
                expect.add(fs(chosen))
        assert via_fn.opens == fs(expect)


def top_scenario(sc, top_mor=None, top_space=None):
    """The scenario's action over Spaces of the given families, else its own blocks."""
    return TopScenario(
        sc.category,
        sc.action,
        Space.from_topology(top_mor or sc.top_mor),
        Space.from_topology(top_space or sc.top_space),
    )


def test_topological_category_verdicts():
    z3 = group_category("z3")
    bad = FiniteTopology.make(z3.morphisms, [set(), {"m1"}, set(z3.morphisms)])
    # U_m1 = {m1} and every other neighborhood is the whole space, so the
    # witnesses are exactly the pairs composing to m1: each has a pair
    # composing to e or m2 in its neighborhood.
    verdict = check_topological_category(z3, Space.from_topology(bad))
    assert verdict.name == "continuity comp"
    assert verdict.witnesses == (("e", "m1"), ("m1", "e"), ("m2", "m2"))
    assert check_topological_category(z3, Space.discrete(z3.morphisms)).ok
    indiscrete = Space.from_topology(FiniteTopology.make(z3.morphisms, [z3.morphisms]))
    assert check_topological_category(z3, indiscrete).ok


def test_star_open_verdicts():
    sc = parse(fixture_text("arrow_small"))
    arrow = sc.category
    bad = FiniteTopology.make(arrow.morphisms, [set(), {"g"}, set(arrow.morphisms)])
    assert check_star_open(arrow, Space.from_topology(bad)).witnesses == ("e", "f")
    assert check_star_open(arrow, Space.discrete(arrow.morphisms)).ok


def test_nonopen_fixture_frozen_verdicts():
    sc = parse(fixture_text("arrow_small_nonopen"))
    scn = top_scenario(sc)
    ca1, ca2 = check_continuous_action(scn)
    assert (ca1.name, ca1.witnesses) == ("continuity CA1", ("f",))
    assert (ca2.name, ca2.witnesses) == ("continuity CA2", ())
    assert check_graph_open(scn).witnesses == (("f", "2"), ("g", "2"))
    assert check_star_open(sc.category, scn.top_mor).ok


TOPO_CHECKS = [
    "continuity comp",
    "continuity CA1",
    "continuity CA2",
    "star-open",
    "graph-open",
    "embedding continuous",
    "action continuous",
    "embedding open",
]


def test_discrete_fixture_all_verdicts_pass():
    sc = parse(fixture_text("arrow_small_topo"))
    glob = build_globalization(sc.category, sc.action)
    tg = topologize_globalization(top_scenario(sc), glob)
    assert [v.name for v in tg.checks] == TOPO_CHECKS
    assert tg.ok and all(v.ok for v in tg.checks)
    assert tg.top_y.count_opens() == len(tg.top_y.opens()) == 16
    assert validate_topology(tg.top_y.to_topology()).ok


def test_discrete_fixture_mediating_map_is_continuous():
    sc = parse(fixture_text("arrow_small_topo"))
    glob = build_globalization(sc.category, sc.action)
    tgt = parse(fixture_text("arrow_small_target"))
    tg = topologize_globalization(
        top_scenario(sc),
        glob,
        (tgt.action, Space.discrete(tgt.action.carrier), dict(tgt.gfun)),
    )
    assert [v.name for v in tg.checks] == TOPO_CHECKS + ["mediating continuous"]
    assert tg.ok and tg.checks[-1].ok


def test_indiscrete_carrier_conclusions_hold_without_hypotheses():
    # With an indiscrete carrier the openness hypotheses fail (identity
    # domains are not open and neither is the definedness domain), yet the
    # continuity conclusions about the quotient still hold; only the openness
    # of the embedding is lost, which the gate then does not require.
    sc = parse(fixture_text("arrow_small"))
    scn = top_scenario(
        sc,
        Space.discrete(sc.category.morphisms).to_topology(),
        FiniteTopology.make(sc.action.carrier, [sc.action.carrier]),
    )
    glob = build_globalization(sc.category, sc.action)
    tg = topologize_globalization(scn, glob)
    assert {v.name: v.witnesses for v in tg.checks} == {
        "continuity comp": (),
        "continuity CA1": ("e", "f"),
        "continuity CA2": (),
        "star-open": (),
        "graph-open": (("e", "1"), ("e", "2"), ("f", "2"), ("f", "3"), ("g", "2")),
        "embedding continuous": (),
        "action continuous": (),
        "embedding open": ("1", "2", "3"),
    }
    assert not tg.ok
    assert tg.top_y.count_opens() == len(tg.top_y.opens()) == 2


def test_embedding_open_routes_agree():
    for stem, tops in (
        ("arrow_small_topo", None),
        ("arrow_small", "indiscrete"),
    ):
        sc = parse(fixture_text(stem))
        top_mor, top_space = sc.top_mor, sc.top_space
        if tops is not None:
            top_mor = Space.discrete(sc.category.morphisms).to_topology()
            top_space = FiniteTopology.make(sc.action.carrier, [sc.action.carrier])
        scn = top_scenario(sc, top_mor, top_space)
        glob = build_globalization(sc.category, sc.action)
        top_y = Space.from_topology(quotient_space(scn, glob).to_topology())
        direct = check_embedding_open(scn, glob, top_y)
        lazy = check_embedding_open(scn, glob)
        assert direct.witnesses == lazy.witnesses, stem
        assert lazy.witnesses == explicit.embedding_open_points(top_mor, top_space, glob), stem
        assert bool(lazy.witnesses) == bool(explicit.embedding_open(top_mor, top_space, glob)), stem


def test_quotient_space_carrier_is_class_representatives():
    sc = parse(fixture_text("arrow_small_topo"))
    glob = build_globalization(sc.category, sc.action)
    ys = quotient_space(top_scenario(sc), glob)
    assert set(ys.carrier) == {cls[0] for cls in glob.classes}


def _kind(t):
    if len(t.opens) == 2 ** len(t.carrier):
        return "discrete"
    return "indiscrete" if len(t.opens) == 2 else "mixed"


def test_quotient_space_is_the_explicit_quotient_of_the_expanded_carrier():
    # The finest topology on the classes making the projection from the
    # expanded carrier, a subspace of the product, continuous: spelled out
    # family by family in explicit_topology, read in place by quotient_space.
    rng = random.Random(8)
    kinds = set()
    cases = 0
    while cases < 300:
        cat = random_category(rng)
        act = random_valid_action(rng, cat, random_points(rng, 4), rng.uniform(0.2, 0.8))
        if act is None or len(cat.morphisms) * len(act.carrier) > 12:
            continue
        cases += 1
        top_mor = random_topology(rng, cat.morphisms)
        top_space = random_topology(rng, act.carrier)
        kinds |= {("mor", _kind(top_mor)), ("space", _kind(top_space))}
        glob = build_globalization(cat, act)
        scn = TopScenario(cat, act, Space.from_topology(top_mor), Space.from_topology(top_space))
        got = quotient_space(scn, glob).to_topology()
        assert got == explicit.quotient_of(top_mor, top_space, glob), (cat, act, top_mor, top_space)
    assert kinds == {(side, k) for side in ("mor", "space") for k in ("discrete", "indiscrete", "mixed")}


def test_quotient_space_stores_no_product_neighborhood():
    # Spelling out U_g x U_x for every pair of the product traced 10.8 MB
    # here: 54 morphisms, and 40 points in every carrier neighborhood.
    cat, kept, table = s3_restriction(random.Random(1))
    act = PartialAction.make(kept, table)
    indiscrete = Space.from_topology(FiniteTopology.make(act.carrier, [act.carrier]))
    scn = TopScenario(cat, act, Space.discrete(cat.morphisms), indiscrete)
    glob = build_globalization(cat, act)
    ys, peak = traced_peak(lambda: quotient_space(scn, glob))
    assert len(act.carrier) == 40 and len(cat.morphisms) == 54
    assert ys.carrier == tuple(sorted((cls[0] for cls in glob.classes), key=_skey))
    assert peak < 1_000_000, peak


def test_pointwise_verdicts_match_explicit_family_loops():
    # Every verdict decided on minimal neighborhoods, witness points included,
    # equals a loop over the spelled-out families the Spaces are built from;
    # and it fails exactly when some open of the family is a witness.  The
    # "partial" case runs the point test that every continuity check shares
    # on a partial map, whose domain carries the subspace topology.
    rng = random.Random(4099)
    failing = {"ca2": 0, "comp": 0, "embed": 0, "partial": 0}
    cases = 0
    while cases < 150:
        cat = small_category(rng)
        points = tuple(str(i) for i in range(1, rng.randint(1, 4) + 1))
        act = random_valid_action(rng, cat, points, rng.uniform(0.2, 0.9))
        if act is None or len(cat.morphisms) * len(points) > 12:
            continue
        cases += 1
        top_mor = random_topology(rng, cat.morphisms)
        top_space = random_topology(rng, act.carrier)
        cod = random_topology(rng, "wxyz")
        f = {x: rng.choice("wxyz") for x in act.carrier if rng.random() < 0.8}
        glob = build_globalization(cat, act)
        want = {
            "ca2": explicit.continuous_action_ca2_points(act, top_mor, top_space),
            "embed": explicit.embedding_open_points(top_mor, top_space, glob),
            "partial": explicit.point_witnesses(f, top_space, cod),
        }
        opens = {
            "ca2": explicit.continuous_action_ca2(act, top_mor, top_space),
            "embed": explicit.embedding_open(top_mor, top_space, glob),
            "partial": explicit.preimage_witnesses(f, top_space, cod),
        }
        if len(cat.morphisms) <= 3:
            want["comp"] = explicit.topological_category_points(cat, top_mor)
            opens["comp"] = explicit.topological_category(cat, top_mor)
        for name, witnesses in want.items():
            assert bool(witnesses) == bool(opens[name]), (name, cases)
        scn = TopScenario(cat, act, Space.from_topology(top_mor), Space.from_topology(top_space))
        ts = scn.top_space
        got = {
            "ca2": check_continuous_action(scn)[1].witnesses,
            "embed": check_embedding_open(scn, glob).witnesses,
            "partial": _discontinuities(f, ts.nbhd.__getitem__, Space.from_topology(cod), sorted(f)),
            "comp": check_topological_category(cat, scn.top_mor).witnesses,
        }
        for name, witnesses in want.items():
            assert got[name] == witnesses, (name, cases)
            failing[name] += bool(witnesses)
    assert all(failing.values()), failing


def test_counted_opens_match_the_spelled_out_family():
    rng = random.Random(31)
    non_t0 = quotients = 0
    while quotients < 60:
        cat = small_category(rng)
        act = random_valid_action(rng, cat, tuple("123"[: rng.randint(1, 3)]), rng.uniform(0.2, 0.9))
        if act is None:
            continue
        quotients += 1
        mor = Space.from_topology(random_topology(rng, cat.morphisms))
        pts = Space.from_topology(random_topology(rng, act.carrier))
        quo = quotient_space(TopScenario(cat, act, mor, pts), build_globalization(cat, act))
        non_t0 += len(set(quo.nbhd.values())) < len(quo.carrier)
        sp = Space.from_topology(random_topology(rng, "abcd"))
        prod = Space.from_topology(product_topology(random_topology(rng, "ab"), random_topology(rng, "uv")))
        for space in (sp, quo, prod):
            assert space.count_opens() == len(space.opens()) == len(brute_opens(space))
    assert non_t0 > 0
    chain = FiniteTopology.make("123", [set(), {"1"}, {"1", "2"}, {"1", "2", "3"}])
    assert Space.from_topology(chain).count_opens() == 4
    assert Space.from_topology(FiniteTopology.make("abcd", ["abcd"])).count_opens() == 2
    assert Space.discrete(range(300)).count_opens() == 2**300
