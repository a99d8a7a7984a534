"""Tests for the scenario text format: parsing, errors, and canonical output."""

import dataclasses
import gc
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

import pcat.dsl as dsl
from pcat import (
    AxiomReport,
    Category,
    Globalization,
    ParseError,
    PartialAction,
    Scenario,
    build_globalization,
    check_category_axioms,
    globalization_to_scenario,
    parse,
    serialize,
    validate_category,
)
from pcat.dsl import json_chunks, render
from pcat.fixtures import arrow_category, arrow_small
from pcat.oracle import (
    connected_groupoid,
    group_category,
    random_category,
    random_points,
    random_valid_action,
)

from conftest import FIXTURE_DIR, fixture_text, traced_peak
from reference_json import globalization_json
from test_action import s3_restriction

CANONICAL = ("arrow_collapse", "arrow_small", "arrow_small_target", "iso_fixed", "iso_shift")
ALL_FIXTURES = CANONICAL + ("arrow_small_nonopen", "arrow_small_topo")


def test_parse_arrow_small_structure():
    sc = parse(fixture_text("arrow_small"))
    assert sc.category_name == "arrow" and sc.action_name == "small"
    cat = sc.category
    assert cat.objects == ("e", "f")
    assert cat.morphisms == ("e", "f", "g")
    assert cat.dom == {"e": "e", "f": "f", "g": "e"}
    assert cat.cod == {"e": "e", "f": "f", "g": "f"}
    assert cat.comp[("f", "g")] == "g" and cat.comp[("g", "e")] == "g"
    assert sc.action.carrier == ("1", "2", "3")
    assert dict(sc.action.table) == {
        ("e", "1"): "1",
        ("e", "2"): "2",
        ("f", "2"): "2",
        ("f", "3"): "3",
        ("g", "2"): "2",
    }
    assert sc.top_mor is None and sc.top_space is None and sc.gfun is None


def test_parse_topology_and_gfun_blocks():
    sc = parse(fixture_text("arrow_small_topo"))
    assert sc.top_mor is not None and sc.top_space is not None
    assert len(sc.top_mor.opens) == 8 and len(sc.top_space.opens) == 8
    tgt = parse(fixture_text("arrow_small_target"))
    assert tgt.gfun == {"1": "e__1", "2": "e__2", "3": "f__4"}


def test_canonical_fixtures_round_trip_byte_exact():
    for stem in CANONICAL:
        text = fixture_text(stem)
        assert serialize(parse(text)) == text, stem


def test_serialization_is_idempotent_on_all_fixtures():
    for stem in ALL_FIXTURES:
        once = serialize(parse(fixture_text(stem)))
        again = serialize(parse(once))
        assert once == again, stem


def test_reparsed_fixture_scenarios_are_equal():
    for stem in ALL_FIXTURES:
        sc = parse(fixture_text(stem))
        back = parse(serialize(sc))
        assert back.category == sc.category
        assert back.action == sc.action
        assert back.top_mor == sc.top_mor and back.top_space == sc.top_space
        assert back.gfun == sc.gfun


PARSE_ERRORS = [
    ("", "E_SYNTAX", 1, 1),
    ("action a\nend\n", "E_SYNTAX", 1, 1),
    ("category c\nobject e\nmor g : e\nend\naction a\npoint 1\nend\n", "E_SYNTAX", 3, 1),
    ("category c\nobject e\nmor g : e -> zz\nend\naction a\npoint 1\nend\n", "E_UNKNOWN_ID", 3, 14),
    ("category c\nobject e\nmor e : e -> e\nend\naction a\npoint 1\nend\n", "E_DUP_DEF", 3, 5),
    (
        "category c\nobject e\nobject f\nmor g : e -> f\nmor h : f -> e\nend\n"
        "action a\npoint 1\nend\n",
        "E_MISSING_COMP",
        6,
        1,
    ),
    (
        "category c\nobject e\nobject f\nmor g : e -> f\ncomp g . g = g\nend\n"
        "action a\npoint 1\nend\n",
        "E_SYNTAX",
        5,
        1,
    ),
    (
        "category c\nobject e\nmor g : e -> e\ncomp g . g = e\ncomp g . g = g\nend\n"
        "action a\npoint 1\nend\n",
        "E_DUP_DEF",
        5,
        1,
    ),
    (
        "category c\nobject e\nmor g : e -> e\ncomp g . e = e\ncomp g . g = e\nend\n"
        "action a\npoint 1\nend\n",
        "E_DUP_DEF",
        4,
        1,
    ),
    ("category c\nobject e\nend\naction a\npoint 1 1\nend\n", "E_DUP_DEF", 5, 9),
    ("category c\nobject e\nend\naction a\npoint 1\nact z 1 = 1\nend\n", "E_UNKNOWN_ID", 6, 5),
    ("category c\nobject e\nend\naction a\npoint 1\nact e 9 = 1\nend\n", "E_UNKNOWN_ID", 6, 7),
    (
        "category c\nobject e\nend\naction a\npoint 1\nact e 1 = 1\nact e 1 = 1\nend\n",
        "E_DUP_DEF",
        7,
        1,
    ),
    ("category c\nobject e\n", "E_SYNTAX", 3, 1),
    ("category c\nobject e\nend\naction a\npoint 1\n", "E_SYNTAX", 6, 1),
    (
        "category c\nobject e\nend\naction a\npoint 1\nend\n"
        "topology mor\nopen empty\nopen e\nend\ntopology mor\nopen empty\nopen e\nend\n",
        "E_DUP_DEF",
        11,
        1,
    ),
    (
        "category c\nobject e\nend\naction a\npoint 1 2\nend\n"
        "topology space\nopen empty\nopen 1\nend\n",
        "E_TOP_NO_TOTAL",
        7,
        1,
    ),
    (
        "category c\nobject e\nend\naction a\npoint 1\nend\n"
        "topology space\nopen 9\nopen 1\nend\n",
        "E_UNKNOWN_ID",
        8,
        6,
    ),
    ("category c\nobject e\nend\naction a\npoint 1\nend\ngfun 1 = q\n", "E_UNKNOWN_ID", 7, 10),
    (
        "category c\nobject e\nend\naction a\npoint 1\nend\ngfun 1 = 1\ngfun 1 = 1\n",
        "E_DUP_DEF",
        8,
        6,
    ),
    ("category c\nobject e\nend\naction a\npoint 1\nend\nwhatever x\n", "E_SYNTAX", 7, 1),
    ("category c\nzzz e\nend\naction a\npoint 1\nend\n", "E_SYNTAX", 2, 1),
    ("category c\nobject empty\nend\naction a\npoint 1\nend\n", "E_SYNTAX", 2, 8),
    ("category c\nobject e\nend\naction a\npoint empty\nend\n", "E_SYNTAX", 5, 7),
    (
        "category c\nobject e\nmor empty : e -> e\ncomp empty . empty = e\nend\n"
        "action a\npoint 1\nend\n",
        "E_SYNTAX",
        3,
        5,
    ),
    ("category c\nobject e\nend\naction a\npoint 1\nact e 1 = 9\nend\n", "E_UNKNOWN_ID", 6, 11),
    # act, comp and point lines that fail, some on fields the lexer reads as other tokens
    ("category c\nobject e\nend\naction a\npoint 1\npoint 2 1\nend\n", "E_DUP_DEF", 6, 9),
    ("category c\nobject e\nend\naction a\npoint 1 a-b\nend\n", "E_SYNTAX", 5, 10),
    ("category c\nobject e\nend\naction a\n\tpoint\t1 2\t1\nend\n", "E_DUP_DEF", 5, 12),
    ("category c\nobject e\nend\naction a\npoint 1\nact empty 1 = 1\nend\n", "E_SYNTAX", 6, 5),
    ("category c\nobject e\nend\naction a\npoint 1\nact e 1 = 1 1\nend\n", "E_SYNTAX", 6, 1),
    (
        "category c\nobject e\nend\naction a\npoint 1\n\u3000act e 9 = 1  # unknown\r\nend\n",
        "E_UNKNOWN_ID",
        6,
        8,
    ),
    (
        "category c\nobject e\nend\naction a\npoint 1\nact e 1 = 1\n\tact\te\t1=1\nend\n",
        "E_DUP_DEF",
        7,
        2,
    ),
    (
        "category c\nobject e\nmor g : e -> e\ncomp g . zz = g\nend\naction a\npoint 1\nend\n",
        "E_UNKNOWN_ID",
        4,
        10,
    ),
    (
        "category c\nobject e\nmor g : e -> e\ncomp g . empty = g\nend\naction a\npoint 1\nend\n",
        "E_SYNTAX",
        4,
        10,
    ),
    (
        "category c\nobject e\nmor g : e -> e\ncomp g . g = e\n\tcomp g.g=e\nend\n"
        "action a\npoint 1\nend\n",
        "E_DUP_DEF",
        5,
        2,
    ),
    (
        "category c\nobject e\nmor g : e -> e\ncomp g . g = e\r\ncomp g . g = e\r\nend\n"
        "action a\npoint 1\nend\n",
        "E_DUP_DEF",
        5,
        1,
    ),
    (
        "category c\nobject e\nmor g : e -> e\n  comp g . g e\nend\naction a\npoint 1\nend\n",
        "E_SYNTAX",
        4,
        3,
    ),
]


@pytest.mark.parametrize("text,code,line,col", PARSE_ERRORS)
def test_parse_error_codes_and_spans(text, code, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert err.code == code
    assert (err.line, err.col) == (line, col)
    assert str(err).startswith(f"{line}:{col}: {code}: ")
    assert err.reason


def _lexer_only(monkeypatch):
    """Read every line as the regex lexer's tokens in place of its split fields."""
    monkeypatch.setattr(dsl, "_split", lambda body: [m.group() for m in dsl._lex(body)])


def _outcome(text):
    """The scenario ``text`` parses to, or its error as (code, line, column, message)."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.code, exc.line, exc.col, str(exc)


def _lexer_outcome(text):
    with pytest.MonkeyPatch.context() as mp:
        _lexer_only(mp)
        return _outcome(text)


@pytest.mark.parametrize("text,code,line,col", PARSE_ERRORS)
def test_errors_match_a_lexer_only_reading(text, code, line, col):
    err = _outcome(text)
    assert _lexer_outcome(text) == err


def test_split_fields_and_the_lexer_agree_on_whitespace():
    # The parser accepts a line on its split fields only when each field is an
    # identifier or a separator, so that it is one lexer token: this needs
    # the two to separate tokens at the same code points.
    split_ws = {c for c in map(chr, range(0x110000)) if c != "\n" and len(f"a{c}b".split()) == 2}
    lexer_ws = {c for c in map(chr, range(0x110000)) if c != "\n" and len(dsl._TOKEN.findall(f"a{c}b")) == 2}
    assert split_ws == lexer_ws and len(split_ws) == 28
    for field in ("->", ":", ".", "=", "Az_09"):
        assert dsl._TOKEN.findall(field) == [field]


ISO_SHIFT = fixture_text("iso_shift")

# Respellings of iso_shift's act, comp and point lines.
SPELLINGS = [
    ("crlf", ISO_SHIFT.replace("\n", "\r\n")),
    (
        "tabs",
        ISO_SHIFT.replace("  ", "\t")
        .replace("act g 1 = 2", "act\tg\t1\t=\t2")
        .replace("comp g . g_inv", "comp\tg\t.\tg_inv"),
    ),
    (
        "non-ascii whitespace",
        ISO_SHIFT.replace("  point 1 2", "\xa0point 1\u30002")
        .replace("  act g_inv", "\u2003act\u2003g_inv")
        .replace("  comp g_inv", "\u3000comp g_inv"),
    ),
    (
        "comments",
        ISO_SHIFT.replace("act g 1 = 2", "act g 1 = 2  # step")
        .replace("point 1 2 3", "point 1 2 3 # carrier")
        .replace("comp g . g_inv = f", "comp g . g_inv = f#id"),
    ),
    (
        "glued",
        ISO_SHIFT.replace("act g 1 = 2", "act g 1=2")
        .replace("comp g_inv . g = e", "comp g_inv.g = e")
        .replace("  act e 3 = 3", "act e 3 =3"),
    ),
    ("two point lines", ISO_SHIFT.replace("point 1 2 3", "point 2\n  point 3   1")),
]


@pytest.mark.parametrize("name,text", SPELLINGS, ids=[s[0] for s in SPELLINGS])
def test_spellings_parse_like_a_lexer_only_reading(name, text):
    sc = parse(text)
    assert sc == parse(ISO_SHIFT)
    assert _lexer_outcome(text) == sc


_BLANKS = (" ", "  ", "\t", "\xa0", "\u3000")
_CORRUPTIONS = ("", "zz", "empty", "end", "act", "point", "-", "=", ".", ":", "->", "a-b", "1=1", "#", "\r")


@st.composite
def _respelled(draw):
    """A fixture or the canonical text of a random valid action; that text with
    some lines respelled; and the respelling with one lexer token replaced."""
    if draw(st.booleans()):
        source = fixture_text(draw(st.sampled_from(ALL_FIXTURES)))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        cat = random_category(rng)
        act = random_valid_action(rng, cat, random_points(rng), rng.uniform(0.15, 0.8))
        assume(act is not None)
        source = serialize(Scenario("c", "a", cat, act, None, None, None))
    lines = source.split("\n")
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=12)):
        line = lines[i]
        if draw(st.booleans()):
            line = re.sub(r" (->|[:.=]) ", r"\1", line)
        line = line.replace(" ", draw(st.sampled_from(_BLANKS)))
        line += draw(st.sampled_from(("", "  # note", "#", "\t# a-b = c")))
        lines[i] = line + "\r" * draw(st.booleans())
    spots = [(i, m.span(), m.group()) for i, line in enumerate(lines) for m in dsl._lex(line)]
    i, (start, end), _ = draw(st.sampled_from(spots))
    token = draw(st.sampled_from(_CORRUPTIONS + tuple(sorted({tok for _, _, tok in spots}))))
    corrupted = lines[:i] + [lines[i][:start] + token + lines[i][end:]] + lines[i + 1 :]
    return source, "\n".join(lines), "\n".join(corrupted)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_respelled())
def test_respellings_parse_alike_and_corruptions_fail_like_a_lexer_only_reading(case):
    source, text, corrupted = case
    assert parse(text) == parse(source)
    assert _outcome(corrupted) == _lexer_outcome(corrupted)


def _z4_copies():
    """600 points of 150 regular Z4 copies: 2400 act lines, 9 comp lines
    between non-identity arrows, one point line."""
    z4 = group_category("z4")
    names = ["e", "m1", "m2", "m3"]
    points = [f"p{c}_{h}" for c in range(150) for h in range(4)]
    steps = {
        (names[g], f"p{c}_{h}"): f"p{c}_{(g + h) % 4}"
        for g in range(4)
        for c in range(150)
        for h in range(4)
    }
    act = PartialAction.make(points, steps)
    return z4, act, serialize(Scenario("z4", "copies", z4, act, None, None, None))


def test_no_line_of_a_well_formed_text_reaches_the_lexer(monkeypatch):
    z4, act, text = _z4_copies()
    lexed = []
    plain = dsl._lex
    monkeypatch.setattr(dsl, "_lex", lambda line: lexed.append(line) or plain(line))
    sc = parse(text)
    assert sc.category == z4 and sc.action == act
    assert lexed == []


def test_parsed_scenario_keeps_about_ten_bytes_per_text_byte():
    # The category, the 2400-entry table and the carrier take about 10 bytes
    # per byte of the 60 kB text; a per-entry source position doubles that.
    _, _, text = _z4_copies()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sc = parse(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sc.action.carrier
    assert kept < 15 * len(text), (kept, len(text))


_SHARED = """\
category chain
  object oa
  object ob
  object oc
  mor pp : oa -> ob
  mor qp : oa -> oc
  mor qq : ob -> oc
  comp qq . pp = qp
end
action walk
  point x1 x2 x3
  act oa x1 = x1
  act ob x2 = x2
  act oc x3 = x3
  act pp x1 = x2
  act qp x1 = x3
  act qq x2 = x3
end
topology mor
  open oa ob oc pp qp qq
  open pp qp
end
topology space
  open x1 x2 x3
  open x2 x3
end
gfun y1 = x1
gfun y2 = x3
"""


@pytest.mark.parametrize("spelling", ["canonical", "commented", "glued"])
def test_parsed_scenario_shares_one_object_per_identifier(spelling):
    # Multi-character names, since CPython shares one-character strings anyway.
    text = _SHARED
    if spelling == "commented":
        lines = text.splitlines()
        text = "".join(f"{ln}  # line {i}\r\n" if i % 2 else f"{ln}\r\n" for i, ln in enumerate(lines))
    if spelling == "glued":
        # The mor, comp, act and gfun lines fail on their split fields and are
        # read again as the lexer's tokens.
        text = re.sub(r" (->|[:.=]) ", r"\1", text)
        assert text.count("\n") == _SHARED.count("\n") and " = " not in text
    sc = parse(text)
    assert serialize(sc) == _SHARED
    cat, act = sc.category, sc.action
    mor = {m: m for m in cat.morphisms}
    pts = {p: p for p in act.carrier}

    def shared(names, canon):
        return all(n is canon[n] for n in names)

    assert shared(cat.objects, mor)
    assert shared(list(cat.dom.values()) + list(cat.cod.values()), mor)
    assert shared([n for key, k in cat.comp.items() for n in (*key, k)], mor)
    assert shared([g for g, _ in act.table], mor)
    assert shared([n for (_, x), y in act.table.items() for n in (x, y)], pts)
    assert shared(sc.top_mor.carrier, mor) and shared([m for u in sc.top_mor.opens for m in u], mor)
    assert shared(sc.top_space.carrier, pts) and shared([p for u in sc.top_space.opens for p in u], pts)
    assert shared(sc.gfun.values(), pts)


def test_parse_holds_one_object_per_identifier_and_no_class_map():
    # 432 points over the 3-object S3 groupoid: the 8 copies of its regular
    # action, 7,776 table entries.  A fresh string per token kept about
    # 2.33 MB after parsing; one object per identifier keeps about 0.86 MB.
    cat = connected_groupoid(3, "s3")
    points = [f"p{c}_{m}" for c in range(8) for m in cat.morphisms]
    table = {(g, f"p{c}_{m}"): f"p{c}_{gm}" for c in range(8) for (g, m), gm in cat.comp.items()}
    act = PartialAction.make(points, table)
    text = serialize(Scenario("s3x3", "regular", cat, act, None, None, None))
    gc.collect()

    def parse_and_hold():
        start = tracemalloc.get_traced_memory()[0]
        sc = parse(text)
        gc.collect()
        return sc, tracemalloc.get_traced_memory()[0] - start

    (sc, held), _ = traced_peak(parse_and_hold)
    assert sc.category == cat and sc.action == act
    assert held < 1_500_000, held

    glob = build_globalization(sc.category, sc.action)
    assert "class_of" not in {f.name for f in dataclasses.fields(Globalization)}
    assert "class_of" not in vars(glob)
    assert glob.class_of == {el: c[0] for c in glob.classes for el in c}


JSON_EDGES = [
    [],
    {},
    [[], {}],
    {"a": {}, "b": [[]], "c": {"d": []}},
    "",
    'a "quoted" \\ back\\slash',
    "caf\u00e9 \u4e2d \U0001f600 \x00\t\n\x7f",
    True,
    False,
    None,
    0,
    -7,
    2**70,
    ("a", ("b", 1), ()),
    {"b": 1, "a": [True, False, None, "x"], "A": ("t",), "\u00e9": {}},
]


# Values whose lists the writer is also given as iterators (see _lazy).
JSON_LAZY_EDGES = [
    [{}, {"b": [1, 2], "a": "x"}, {"k": {"n": None}, "e": []}],
    {"outer": {"inner": [[1], [], "s"], "none": []}, "z": 3},
    {"classes": [{"rep": ["e", "1"], "members": [["e", "1"], ["f", "2"]]}], "embedding": {"1": ["e", "1"]}},
]


def _lazy(value):
    """``value`` with every list it holds directly or through dicts given as
    an iterator; list items are left as they are."""
    if isinstance(value, dict):
        return {k: _lazy(v) for k, v in value.items()}
    if isinstance(value, list):
        return iter(value)
    return value


@pytest.mark.parametrize("value", JSON_EDGES + JSON_LAZY_EDGES)
def test_json_writer_matches_json_dumps(value):
    want = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert "".join(json_chunks(value)) == want
    assert "".join(json_chunks(_lazy(value))) == want


def test_json_writer_draws_iterators_item_by_item():
    items = [{"a": [1, 2]}, {"b": "x"}, []]
    drawn = []

    def gen():
        for item in items:
            drawn.append(item)
            yield item

    chunks = json_chunks({"k": gen(), "a": 1})
    got = [(next(chunks), len(drawn)) for _ in range(5)]
    assert [n for _, n in got] == [0, 0, 1, 2, 3]
    assert "".join([c for c, _ in got] + list(chunks)) == "".join(json_chunks({"k": items, "a": 1}))
    with pytest.raises(TypeError):
        "".join(json_chunks({"s": {1, 2}}))  # a set is no list, as for json.dumps


def test_fixture_files_match_programmatic_builders():
    # The oracle suites audit the programmatic copies while the CLI goldens
    # exercise the files; this pins the two sources of truth together.
    from pcat.fixtures import FIXTURES

    for stem, make in FIXTURES.items():
        cat, act = make()
        sc = parse(fixture_text(stem))
        assert sc.category == cat, stem
        assert sc.action == act, stem


def test_parsed_categories_validate():
    for stem in ALL_FIXTURES:
        sc = parse(fixture_text(stem))
        assert validate_category(sc.category).ok, stem


def test_serialize_rejects_bad_inputs():
    sc = parse(fixture_text("arrow_small"))
    with pytest.raises(ValueError):
        serialize(sc, fmt="yaml")
    with pytest.raises(TypeError):
        serialize(42)
    with pytest.raises(TypeError):
        render(sc, "json")  # a scenario is written as text only


def test_empty_keyword_denotes_empty_open_and_is_reserved():
    text = (
        "category c\nobject e\nend\naction a\npoint 1\nact e 1 = 1\nend\n"
        "topology space\nopen empty\nopen 1\nend\n"
    )
    sc = parse(text)
    assert frozenset() in sc.top_space.opens and len(sc.top_space.opens) == 2

    # Programmatic scenarios may use any point names, but a point named
    # "empty" has no unambiguous spelling in the text format, so the
    # serializer refuses rather than emit a line that re-parses as the
    # empty set.
    from pcat import Category, FiniteTopology, PartialAction, Scenario

    cat = Category(("e",), ("e",), {"e": "e"}, {"e": "e"}, {("e", "e"): "e"})
    act = PartialAction.make(("empty", "x"), {("e", "empty"): "empty", ("e", "x"): "x"})
    top = FiniteTopology.make(("empty", "x"), [{"empty"}, {"empty", "x"}])
    with pytest.raises(ValueError):
        serialize(Scenario("c", "a", cat, act, None, top, None))


def test_axiom_report_text_and_witness_cap():
    sc = parse(fixture_text("arrow_small"))
    rep = check_category_axioms(sc.category, sc.action)
    text = serialize(rep)
    assert "axioms C1 pass" in text
    assert "axioms C4 fail (g,1)" in text
    many = AxiomReport({"C1": tuple(("p", str(i)) for i in range(12))})
    line = serialize(many).strip()
    assert line.count("(") == 8

    data = json.loads(serialize(rep, fmt="json"))
    assert data["axioms"]["C4"] == {"pass": False, "witnesses": [["g", "1"]]}
    full = json.loads(serialize(many, fmt="json"))
    assert len(full["axioms"]["C1"]["witnesses"]) == 12


def test_axiom_report_json_writes_tuple_points_as_lists():
    # The quotient's points are class representatives (g, x); a report on an
    # action over them writes each as a list, as the globalization JSON does.
    glob = build_globalization(*arrow_small())
    act = glob.as_action()
    table = {key: y for key, y in act.table.items() if key != ("g", ("e", "1"))}
    rep = check_category_axioms(glob.category, PartialAction(act.carrier, table))
    assert serialize(rep).splitlines()[-1] == "axioms C4 fail (g,(e,1))"
    data = json.loads(serialize(rep, fmt="json"))
    assert data["axioms"]["C4"] == {"pass": False, "witnesses": [["g", ["e", "1"]]]}


def test_validation_report_text():
    sc = parse(fixture_text("arrow_small"))
    assert serialize(validate_category(sc.category)) == "category valid\n"
    broken = Category(("e",), ("e", "g"), {"e": "e", "g": "zz"}, {"e": "e", "g": "e"}, {})
    text = serialize(validate_category(broken))
    assert text.startswith("category invalid\n")
    assert "violation" in text


def test_globalization_to_scenario_round_trip():
    sc = parse(fixture_text("arrow_small"))
    glob = build_globalization(sc.category, sc.action)
    out = globalization_to_scenario(glob, "arrow", "small_globalized")
    assert out.gfun == {"1": "e__1", "2": "e__2", "3": "f__3"}
    assert out.action.carrier == ("e__1", "e__2", "f__3", "g__1")
    back = parse(serialize(out))
    assert back.category == sc.category
    assert back.action == out.action
    assert back.gfun == out.gfun
    rep = check_category_axioms(back.category, back.action)
    assert rep.all_pass


def test_globalization_serializes_in_both_formats():
    sc = parse(fixture_text("arrow_small"))
    glob = build_globalization(sc.category, sc.action)
    text = serialize(glob)
    assert text == serialize(glob)
    data = json.loads(serialize(glob, fmt="json"))
    assert len(data["classes"]) == 4
    assert sum(len(c["members"]) for c in data["classes"]) == 6
    assert data["embedding"]["3"] == ["f", "3"]
    assert all(c["rep"] == c["members"][0] for c in data["classes"])


def test_globalization_json_writer_gives_the_bytes_of_the_reference():
    # The fixed-layout writer against json.dumps of the plain nested form,
    # beyond the fixtures: 440 points, an empty carrier, and a seeded sweep in
    # which some carriers are plain ints, written by their text and so keyed
    # in text order ("10" before "2").
    def check(glob):
        want = json.dumps(globalization_json(glob), indent=2, sort_keys=True) + "\n"
        assert "".join(render(glob, "json")) == want

    cat, kept, table = s3_restriction(random.Random(1), copies=11)
    glob = build_globalization(cat, PartialAction.make(kept, table))
    assert len(glob.source.carrier) == 440
    check(glob)
    empty = build_globalization(arrow_category(), PartialAction((), {}))
    assert (empty.classes, dict(empty.action), dict(empty.embed)) == ((), {}, {})
    check(empty)
    rng = random.Random(1501)
    ints = wide = 0
    for n in range(400):
        cat = random_category(rng)
        points = tuple(range(rng.randint(1, 13))) if n % 3 == 0 else random_points(rng)
        act = random_valid_action(rng, cat, points, rng.uniform(0.15, 0.8))
        if act is not None:
            check(build_globalization(cat, act))
            ints += n % 3 == 0
            wide += n % 3 == 0 and len(points) > 10
    assert ints > 50 and wide > 5
