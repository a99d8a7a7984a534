"""Category construction, validation, and groupoid detection."""

import pytest

from pcat import (
    Category,
    is_groupoid,
    validate_category,
)
from pcat.fixtures import arrow_category, iso_groupoid
from pcat.oracle import chain_category, group_category


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
