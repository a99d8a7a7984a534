"""Category construction, validation, and groupoid detection."""

import itertools
import random
from collections.abc import Mapping

import pytest

from pcat import (
    Category,
    is_groupoid,
    validate_category,
)
from pcat.category import Violation
from pcat.fixtures import arrow_category, iso_groupoid
from pcat.oracle import (
    _table_category,
    chain_category,
    connected_groupoid,
    group_category,
    random_monoid,
)

GROUPS = ("z1", "z2", "z3", "z4", "klein", "s3")


def _library_categories():
    cats = [arrow_category(), iso_groupoid(), chain_category()]
    cats += [connected_groupoid(n, g) for g in GROUPS for n in (1, 2, 3)]
    rng = random.Random(3)
    cats += [random_monoid(rng) for _ in range(20)]
    return cats


def _associativity_scan(cat):
    """The associativity violations of the full scan over composable triples,
    in its order: what validate_category must report when Light's test fails."""
    into = {}
    for k in cat.morphisms:
        into.setdefault(cat.cod.get(k), []).append(k)
    out = []
    for (g, h) in cat.composable:
        gh = cat.comp.get((g, h))
        if gh is None:
            continue
        for k in into.get(cat.dom.get(h), ()):
            hk = cat.comp.get((h, k))
            if hk is None:
                continue
            left, right = cat.comp.get((gh, k)), cat.comp.get((g, hk))
            if left is None or right is None or left != right:
                out.append(Violation("associativity", (g, h, k), f"({g}{h}){k} != {g}({h}{k})"))
    return tuple(out)


def _magmas():
    """Every identity-unital magma on 2 or 3 elements, then 6,000 seeded
    random ones on 4, as multiplication tables with element 0 the identity."""
    for n in (2, 3):
        for values in itertools.product(range(n), repeat=(n - 1) ** 2):
            cells = iter(values)
            yield [list(range(n))] + [[i] + [next(cells) for _ in range(n - 1)] for i in range(1, n)]
    rng = random.Random(11)
    for _ in range(6_000):
        yield [[0, 1, 2, 3]] + [[i] + [rng.randrange(4) for _ in range(3)] for i in range(1, 4)]


class _CountingComp(Mapping):
    """A composition table that counts its reads: ``get``, ``in`` and item
    views all go through ``__getitem__``."""

    def __init__(self, comp):
        self._comp = comp
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self._comp[key]

    def __iter__(self):
        return iter(self._comp)

    def __len__(self):
        return len(self._comp)


def test_make_autofills_identities():
    cat = arrow_category()
    assert cat.objects == ("e", "f")
    assert cat.morphisms == ("e", "f", "g")
    assert cat.dom["g"] == "e" and cat.cod["g"] == "f"
    assert cat.comp[("g", "e")] == "g"
    assert cat.comp[("f", "g")] == "g"
    assert cat.comp[("e", "e")] == "e"


def test_make_rejects_duplicate_morphism():
    with pytest.raises(ValueError):
        Category.make(["e"], {"e": ("e", "e")}, {})


def test_make_rejects_conflicting_identity_composite():
    with pytest.raises(ValueError):
        Category.make(["e", "f"], {"g": ("e", "f")}, {("g", "e"): "e"})


def test_composable_pairs_arrow():
    cat = arrow_category()
    assert cat.composable == (("e", "e"), ("f", "f"), ("f", "g"), ("g", "e"))
    assert cat.composable is cat.composable


def test_composable_pairs_come_from_dom_and_cod_on_an_unlawful_category():
    # No composite is declared, so validation must still know which are missing.
    dom, cod = {"e": "e", "f": "f", "g": "e"}, {"e": "e", "f": "f", "g": "f"}
    cat = Category(("e", "f"), ("e", "f", "g"), dom, cod, {})
    assert cat.composable == (("e", "e"), ("f", "f"), ("f", "g"), ("g", "e"))
    missing = [v.subject for v in cat.validation.violations if v.kind == "missing_comp"]
    assert missing == list(cat.composable)


def test_compose_lookup():
    cat = iso_groupoid()
    assert cat.comp.get(("g", "g_inv")) == "f"
    assert cat.comp.get(("g_inv", "g")) == "e"
    assert cat.comp.get(("g", "g")) is None


def test_validate_fixture_categories():
    for cat in (arrow_category(), iso_groupoid(), chain_category(), group_category("s3")):
        report = validate_category(cat)
        assert report.ok, report.violations


def test_validate_missing_comp():
    cat = Category(
        ("a", "b", "c"),
        ("a", "b", "c", "p", "q"),
        {"a": "a", "b": "b", "c": "c", "p": "a", "q": "b"},
        {"a": "a", "b": "b", "c": "c", "p": "b", "q": "c"},
        {("p", "a"): "p", ("b", "p"): "p", ("q", "b"): "q", ("c", "q"): "q",
         ("a", "a"): "a", ("b", "b"): "b", ("c", "c"): "c"},
    )
    report = validate_category(cat)
    assert "missing_comp" in {v.kind for v in report.violations}
    assert any(v.subject == ("q", "p") for v in report.violations)


def test_validate_identity_law_violation():
    good = arrow_category()
    comp = dict(good.comp)
    comp[("g", "e")] = "e"  # breaks dom/cod too, but the identity law must fire
    bad = Category(good.objects, good.morphisms, good.dom, good.cod, comp)
    kinds = {v.kind for v in validate_category(bad).violations}
    assert "identity_law" in kinds


def test_validate_associativity_violation():
    cat = group_category("z3")
    comp = dict(cat.comp)
    comp[("m1", "m1")] = "e"  # correct value is m2
    bad = Category(cat.objects, cat.morphisms, cat.dom, cat.cod, comp)
    kinds = {v.kind for v in validate_category(bad).violations}
    assert "associativity" in kinds


def test_validate_structax_kinds():
    bad = Category(
        ("e", "x"),
        ("e", "g"),
        {"e": "e", "g": "q"},
        {"e": "e"},
        {("g", "g"): "h", ("zz", "e"): "e"},
    )
    kinds = {v.kind for v in validate_category(bad).violations}
    assert "object_not_morphism" in kinds
    assert "dom_not_object" in kinds
    assert "cod_missing" in kinds
    assert "comp_unknown_key" in kinds


def test_validate_comp_not_composable_and_bad_span():
    good = iso_groupoid()
    comp = dict(good.comp)
    comp[("g", "g")] = "g"  # dom(g) != cod(g)
    bad = Category(good.objects, good.morphisms, good.dom, good.cod, comp)
    assert "comp_not_composable" in {v.kind for v in validate_category(bad).violations}

    comp = dict(good.comp)
    comp[("g", "g_inv")] = "g"  # right pair, wrong span: should be an endo of f
    bad = Category(good.objects, good.morphisms, good.dom, good.cod, comp)
    assert "comp_bad_span" in {v.kind for v in validate_category(bad).violations}


def test_is_groupoid_positive():
    inv = is_groupoid(iso_groupoid())
    assert inv == {"e": "e", "f": "f", "g": "g_inv", "g_inv": "g"}
    assert iso_groupoid().inverse == inv
    for name in ("z1", "z2", "z3", "z4", "klein", "s3"):
        cat = group_category(name)
        assert is_groupoid(cat) is not None
        assert cat.inverse == is_groupoid(cat)


def test_is_groupoid_negative():
    assert is_groupoid(arrow_category()) is None
    assert is_groupoid(chain_category()) is None
    assert arrow_category().inverse is None and chain_category().inverse is None


def test_library_categories_are_built_once_and_cache_their_facts():
    assert group_category("z3") is group_category("z3")
    assert iso_groupoid() is iso_groupoid() and chain_category() is chain_category()
    cat = group_category("s3")
    assert cat.validation is cat.validation and cat.validation.ok
    assert cat.after is cat.after and cat.inverse is cat.inverse


def test_light_test_reports_what_the_full_scan_does_on_identity_unital_magmas():
    # Every law but associativity holds, so validate_category runs Light's
    # test and falls back to the full scan only when it fails.
    associative = broken = 0
    for table in _magmas():
        cat = _table_category(table)
        report = validate_category(cat)
        assert report.violations == _associativity_scan(cat), table
        associative += report.ok
        broken += not report.ok
    assert (associative, broken) == (15, 6_068)


def test_light_test_reports_nothing_on_the_library_categories():
    for cat in _library_categories():
        assert validate_category(cat).violations == _associativity_scan(cat) == ()


def test_a_lawful_non_associative_table_takes_the_full_scan():
    # Z3 with m1 m1 = e (m2 in Z3): every other law holds, so only the fallback
    # scan lists the violations, each composable triple that fails, in order.
    cat = group_category("z3")
    comp = dict(cat.comp)
    comp[("m1", "m1")] = "e"
    bad = Category(cat.objects, cat.morphisms, cat.dom, cat.cod, comp)
    found = validate_category(bad).violations
    assert found == _associativity_scan(bad)
    assert [v.subject for v in found] == [
        ("m1", "m1", "m2"),
        ("m1", "m2", "m2"),
        ("m2", "m1", "m1"),
        ("m2", "m2", "m1"),
    ]


def test_z130_associativity_is_read_from_two_generators():
    # Z130 in morphism order e, m1, m10, ...: e and m1 are the generators.
    # Reads of the table: 16,900 while checking each entry, 16,900 for the
    # missing-composite check, 520 for the identity laws, 31,900 to close
    # the generators under composition and 4 per check at (x, s, y) for
    # the 2 x 130^2 checks.  The full scan would read 4 x 130^3 = 8,788,000.
    n = 130
    z = _table_category([[(i + j) % n for j in range(n)] for i in range(n)])
    comp = _CountingComp(z.comp)
    cat = Category(z.objects, z.morphisms, z.dom, z.cod, comp)
    assert validate_category(cat).ok
    assert comp.reads == 16_900 + 16_900 + 520 + 31_900 + 4 * 2 * n**2


def test_is_groupoid_matches_a_scan_over_every_pair():
    for cat in _library_categories():
        full = {}
        for g in cat.morphisms:
            full[g] = next(
                (h for h in cat.morphisms
                 if cat.comp.get((g, h)) == cat.cod[g] and cat.comp.get((h, g)) == cat.dom[g]),
                None,
            )
        assert is_groupoid(cat) == (None if None in full.values() else full)
