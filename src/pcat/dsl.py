"""Line-oriented scenario language: category, action, optional topologies.

A scenario file declares one category block and one action block, optionally
followed by topology blocks for the morphism set and the carrier and by
``gfun`` lines naming an equivariant map (used for mediation targets).
``#`` starts a comment, identifiers are ``[A-Za-z0-9_]+`` and case-sensitive,
and both LF and CRLF line endings are accepted.  Identity morphisms are
created automatically and share their object's identifier; composites
involving an identity are implied.  Every parse error carries a stable code
and a 1-based line and column; a parsed scenario keeps no source positions.
It holds one string object per identifier: every table entry, composite,
open and ``gfun`` destination shares the object that declared the name.

Each line is read as the ``str.split()`` fields of its text before ``#`` and
checked by the handler of its directive.  Only a line that fails a check is
lexed: for the error's column, or, when the lexer reads it as other tokens
(glued, as in ``act g 1=2``), to be checked again as those.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping, Optional

from .category import Category, ValidationReport
from .action import AxiomReport, PartialAction
from .globalization import Globalization
from .topology import FiniteTopology

_TOKEN = re.compile(r"->|[:.=]|[A-Za-z0-9_]+|[^\s]")
_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")


class ParseError(Exception):
    """A scenario-text error with a machine-readable code and a 1-based line and column."""

    def __init__(self, code: str, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {code}: {message}")
        self.code = code
        self.reason = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Scenario:
    """One parsed scenario: the category, the action on its carrier, the optional
    topologies and the optional equivariant map ``gfun``, with no source positions."""

    category_name: str
    action_name: str
    category: Category
    action: PartialAction
    top_mor: Optional[FiniteTopology]
    top_space: Optional[FiniteTopology]
    gfun: Optional[Mapping[str, str]]


# The fields a line's text before ``#`` is read as; a test reads lines as
# the lexer's tokens by replacing it.
_split = str.split


def _lex(text: str) -> list[re.Match]:
    """The lexer's tokens of a line's text before ``#``, with their positions."""
    return list(_TOKEN.finditer(text.split("#", 1)[0]))


class _Relex(Exception):
    """A line failed a check on fields that the lexer reads as other tokens."""


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.numbered = enumerate(self.lines, 1)
        self.idx = 0
        self.toks: list[str] = []

    def err(self, code, msg, i):
        """Raise ``code`` at token ``i`` of the current line, at the lexer's column for
        it; or raise :class:`_Relex` when the lexer reads the line as other tokens."""
        found = _lex(self.lines[self.idx - 1])
        if [m.group() for m in found] != self.toks:
            raise _Relex
        raise ParseError(code, msg, self.idx, found[i].start() + 1)

    def feed(self, handlers, unknown):
        """Hand the fields of each non-blank line to the handler of its first field,
        or to ``unknown``, until one returns a value; return that value, or None
        past the last line.  A line that fails a check and that the lexer reads
        as other tokens is handed over again as the lexer's tokens."""
        for self.idx, text in self.numbered:
            if "#" in text:
                text = text.split("#", 1)[0]
            t = self.toks = _split(text)
            if t:
                try:
                    done = handlers.get(t[0], unknown)(t)
                except _Relex:
                    t = self.toks = [m.group() for m in _lex(text)]
                    done = handlers.get(t[0], unknown)(t)
                if done is not None:
                    return done
        return None

    def want_ident(self, t, i, what):
        if not _IDENT.match(t[i]):
            self.err("E_SYNTAX", f"expected {what}, got {t[i]!r}", i)
        if t[i] == "empty":
            self.err("E_SYNTAX", "'empty' is reserved for the empty open set", i)
        return t[i]

    def header(self, kind, lead, what):
        """The name on the next line, a ``<kind> <name>`` line; None past the last line."""

        def named(t):
            if len(t) != 2:
                self.err("E_SYNTAX", f"expected '{kind} <name>'", -1)
            return self.want_ident(t, 1, what)

        return self.feed({kind: named}, lambda t: self.err("E_SYNTAX", lead, 0))

    def block(self, what, handlers):
        """Hand each line up to ``end`` to the handler of its directive."""

        def unknown(t):
            self.err("E_SYNTAX", f"unexpected directive {t[0]!r} in {what} block", 0)

        if self.feed({"end": lambda t: True, **handlers}, unknown) is None:
            raise ParseError("E_SYNTAX", f"{what} block not closed with 'end'", len(self.lines), 1)

    def parse(self) -> Scenario:
        cat_name = self.header("category", "expected 'category <name>'", "a category name")
        if cat_name is None:
            raise ParseError("E_SYNTAX", "empty input: expected a category block", 1, 1)
        category = self.category_block()

        lead = "expected 'action <name>' after the category block"
        act_name = self.header("action", lead, "an action name")
        if act_name is None:
            raise ParseError("E_SYNTAX", lead, len(self.lines), 1)
        action = self.action_block(category)

        points = {p: p for p in action.carrier}
        carriers = {"mor": tuple(category.morphisms), "space": action.carrier}
        tops: dict[str, FiniteTopology] = {}
        gfun: dict[str, str] = {}

        def topology(t):
            if len(t) != 2 or t[1] not in carriers:
                self.err("E_SYNTAX", "expected 'topology mor' or 'topology space'", min(len(t) - 1, 1))
            if t[1] in tops:
                self.err("E_DUP_DEF", f"second 'topology {t[1]}' block", 0)
            return t[1]

        def gfun_line(t):
            if len(t) != 4 or t[2] != "=":
                self.err("E_SYNTAX", "expected 'gfun <point> = <point>'", 0)
            src = self.want_ident(t, 1, "a point identifier")
            dst = points.get(t[3])
            if dst is None:
                self.want_ident(t, 3, "a point identifier")
                self.err("E_UNKNOWN_ID", f"unknown point {t[3]!r}", 3)
            if src in gfun:
                self.err("E_DUP_DEF", f"duplicate gfun entry for {src!r}", 1)
            gfun[src] = dst

        handlers = {"topology": topology, "gfun": gfun_line}
        unknown = lambda t: self.err("E_SYNTAX", f"unexpected directive {t[0]!r}", 0)
        while (kind := self.feed(handlers, unknown)) is not None:
            tops[kind] = self.topology_block(self.idx, carriers[kind])
        return Scenario(
            cat_name, act_name, category, action, tops.get("mor"), tops.get("space"), gfun or None
        )

    def category_block(self) -> Category:
        objects: list[str] = []
        arrows: dict[str, tuple[str, str]] = {}
        # every object and arrow name to the first object read for it
        names: dict[str, str] = {}
        explicit: dict[tuple[str, str], str] = {}

        def object_line(t):
            if len(t) != 2:
                self.err("E_SYNTAX", "expected 'object <id>'", 0)
            obj = self.want_ident(t, 1, "an object identifier")
            if obj in names:
                self.err("E_DUP_DEF", f"duplicate identifier {obj!r}", 1)
            objects.append(obj)
            names[obj] = obj

        def mor_line(t):
            if len(t) != 6 or t[2] != ":" or t[4] != "->":
                self.err("E_SYNTAX", "expected 'mor <id> : <obj> -> <obj>'", 0)
            mid = self.want_ident(t, 1, "a morphism identifier")
            d = self.want_ident(t, 3, "an object identifier")
            c = self.want_ident(t, 5, "an object identifier")
            if mid in names:
                self.err("E_DUP_DEF", f"duplicate identifier {mid!r}", 1)
            if d not in objects:
                self.err("E_UNKNOWN_ID", f"unknown object {d!r}", 3)
            if c not in objects:
                self.err("E_UNKNOWN_ID", f"unknown object {c!r}", 5)
            arrows[mid] = (names[d], names[c])
            names[mid] = mid

        def comp_line(t):
            if len(t) != 6 or t[2] != "." or t[4] != "=":
                self.err("E_SYNTAX", "expected 'comp <g> . <h> = <k>'", 0)
            g, h, k = names.get(t[1]), names.get(t[3]), names.get(t[5])
            if g is None or h is None or k is None:
                for i in (1, 3, 5):
                    if self.want_ident(t, i, "a morphism identifier") not in names:
                        self.err("E_UNKNOWN_ID", f"unknown morphism {t[i]!r}", i)
            span = lambda m: (m, m) if m in objects else arrows[m]
            if span(g)[0] != span(h)[1]:
                self.err("E_SYNTAX", f"pair ({g}, {h}) is not composable", 0)
            if (g, h) in explicit:
                self.err("E_DUP_DEF", f"duplicate composite for ({g}, {h})", 0)
            implied = g if h in objects else h if g in objects else None
            if implied is not None and implied != k:
                self.err("E_DUP_DEF", f"composite for ({g}, {h}) conflicts with the identity law", 0)
            explicit[(g, h)] = k

        self.block("category", {"object": object_line, "mor": mor_line, "comp": comp_line})
        for (g, h) in sorted((g, h) for g in arrows for h in arrows if arrows[g][0] == arrows[h][1]):
            if (g, h) not in explicit:
                raise ParseError("E_MISSING_COMP", f"composable pair ({g}, {h}) has no comp line", self.idx, 1)
        # Duplicates and identity conflicts were rejected above, so this cannot raise.
        return Category.make(objects, arrows, explicit)

    def action_block(self, category: Category) -> PartialAction:
        # each name to the first object read for it, the category's own for morphisms
        points: dict[str, str] = {}
        morphisms = {m: m for m in category.morphisms}
        table: dict[tuple[str, str], str] = {}

        def point_line(t):
            if len(t) < 2:
                self.err("E_SYNTAX", "expected 'point <id> [<id> ...]'", 0)
            new: dict[str, str] = {}
            for i in range(1, len(t)):
                p = self.want_ident(t, i, "a point identifier")
                if p in points or p in new:
                    self.err("E_DUP_DEF", f"duplicate point {p!r}", i)
                new[p] = p
            points.update(new)

        def act_line(t):
            if len(t) != 5 or t[3] != "=":
                self.err("E_SYNTAX", "expected 'act <mor> <point> = <point>'", 0)
            g, x, y = morphisms.get(t[1]), points.get(t[2]), points.get(t[4])
            if g is None or x is None or y is None:
                for i, what in ((1, "a morphism"), (2, "a point"), (4, "a point")):
                    self.want_ident(t, i, f"{what} identifier")
                for i, what, known in ((1, "morphism", morphisms), (2, "point", points), (4, "point", points)):
                    if t[i] not in known:
                        self.err("E_UNKNOWN_ID", f"unknown {what} {t[i]!r}", i)
            if (g, x) in table:
                self.err("E_DUP_DEF", f"duplicate action entry for ({g}, {x})", 0)
            table[(g, x)] = y

        self.block("action", {"point": point_line, "act": act_line})
        return PartialAction(tuple(sorted(points)), table)

    def topology_block(self, header_line, carrier) -> FiniteTopology:
        known = {p: p for p in carrier}
        opens: set[frozenset] = {frozenset()}
        declared: set[frozenset] = set()

        def open_line(t):
            if len(t) == 2 and t[1] == "empty":
                u: frozenset = frozenset()
            else:
                if len(t) < 2:
                    self.err("E_SYNTAX", "expected 'open <id> [<id> ...]' or 'open empty'", 0)
                members = [known.get(p) for p in t[1:]]
                if None in members:
                    for i in range(1, len(t)):
                        if self.want_ident(t, i, "an identifier") not in known:
                            self.err("E_UNKNOWN_ID", f"unknown identifier {t[i]!r}", i)
                u = frozenset(members)
            if u in declared:
                self.err("E_DUP_DEF", "duplicate open set", 0)
            declared.add(u)
            opens.add(u)

        self.block("topology", {"open": open_line})
        if frozenset(carrier) not in opens:
            raise ParseError("E_TOP_NO_TOTAL", "the full carrier is not listed as open", header_line, 1)
        return FiniteTopology(tuple(carrier), frozenset(opens))


def parse(text: str) -> Scenario:
    """Parse scenario text into a :class:`Scenario`; raises :class:`ParseError`
    with a code, a line and a column."""
    return _Parser(text).parse()


def _pt(x) -> str:
    return x if isinstance(x, str) else str(x)


def _rep_text(rep) -> str:
    g, x = rep
    return f"[{g},{_pt(x)}]"


def _el_text(el) -> str:
    g, x = el
    return f"({g},{_pt(x)})"


def _scenario_text(s: Scenario) -> Iterator[str]:
    cat, act = s.category, s.action
    named = set(cat.morphisms) | set(act.carrier) | set(s.gfun or ())
    if "empty" in named:
        raise ValueError("identifier 'empty' is reserved and cannot be written as scenario text")
    yield f"category {s.category_name}\n"
    for o in cat.objects:
        yield f"  object {o}\n"
    for m in cat.morphisms:
        if m not in cat.objects:
            yield f"  mor {m} : {cat.dom[m]} -> {cat.cod[m]}\n"
    for (g, h) in sorted(cat.comp):
        if g not in cat.objects and h not in cat.objects:
            yield f"  comp {g} . {h} = {cat.comp[(g, h)]}\n"
    yield "end\n"
    yield f"action {s.action_name}\n"
    if act.carrier:
        yield "  point " + " ".join(act.carrier) + "\n"
    for (g, x) in sorted(act.table):
        yield f"  act {g} {x} = {act.table[(g, x)]}\n"
    yield "end\n"
    for kind, top in (("mor", s.top_mor), ("space", s.top_space)):
        if top is None:
            continue
        yield f"topology {kind}\n"
        for u in sorted(top.opens, key=lambda u: tuple(sorted(u))):
            if u:
                yield "  open " + " ".join(sorted(u)) + "\n"
        yield "end\n"
    if s.gfun is not None:
        for src in sorted(s.gfun):
            yield f"gfun {src} = {s.gfun[src]}\n"


def _globalization_text(glob: Globalization) -> Iterator[str]:
    rep_text = {cls[0]: _rep_text(cls[0]) for cls in glob.classes}
    yield f"xbar {len(glob.xbar.elements)}\n"
    yield f"classes {len(glob.classes)}\n"
    for cls in glob.classes:
        yield f"class {rep_text[cls[0]]} = " + " ".join(_el_text(m) for m in cls) + "\n"
    for (g, src), dst in glob.action.items():
        yield f"act {g} {rep_text[src]} = {rep_text[dst]}\n"
    for x in sorted(glob.embed):
        yield f"embed {_pt(x)} = {rep_text[glob.embed[x]]}\n"
    for a, ok in glob.axioms.verdicts().items():
        yield f"axioms {a} {'pass' if ok else 'fail'}\n"


def _pair_json(g, x, ind: str) -> str:
    """The pair ``[g, x]`` as ``json.dumps(indent=2)`` writes it after a key or
    an item separator on the line ``ind``."""
    return f"[{ind}  {_quote(g)},{ind}  {_quote(_pt(x))}{ind}]"


def _globalization_json(glob: Globalization) -> Iterator[str]:
    """The globalization as ``json.dumps(indent=2, sort_keys=True)`` writes
    ``{"action": [{"g", "src", "dst"}, ...], "axioms": {axiom: verdict},
    "classes": [{"rep", "members"}, ...], "embedding": {point: rep}}``, each
    element a ``[g, x]`` list and the steps in the order of ``glob.action``,
    plus a newline.  Each class representative is quoted once, at the depth
    of ``src``, ``dst`` and ``rep``, and each action step, class and
    embedding entry is one chunk."""
    at4, at6, at8 = "\n    ", "\n      ", "\n        "
    rep_json = {cls[0]: _pair_json(*cls[0], at6) for cls in glob.classes}
    head = '{\n  "action": '
    sep = head + "["
    for (g, src), dst in glob.action.items():
        step = f'"dst": {rep_json[dst]},{at6}"g": {_quote(g)},{at6}"src": {rep_json[src]}'
        yield f"{sep}{at4}{{{at6}{step}{at4}}}"
        sep = ","
    yield "\n  ]" if sep == "," else head + "[]"
    verdicts = sorted(glob.axioms.verdicts().items())
    items = ",".join(f"{at4}{_quote(a)}: {'true' if ok else 'false'}" for a, ok in verdicts)
    yield ',\n  "axioms": ' + ("{" + items + "\n  }" if items else "{}")
    head = ',\n  "classes": '
    sep = head + "["
    for cls in glob.classes:
        members = ",".join(at8 + _pair_json(g, x, at8) for g, x in cls)
        yield f'{sep}{at4}{{{at6}"members": [{members}{at6}],{at6}"rep": {rep_json[cls[0]]}{at4}}}'
        sep = ","
    yield "\n  ]" if sep == "," else head + "[]"
    embedding = {_pt(x): r for x, r in glob.embed.items()}
    head = ',\n  "embedding": '
    sep = head + "{"
    for x in sorted(embedding):
        yield f"{sep}{at4}{_quote(x)}: {_pair_json(*embedding[x], at4)}"
        sep = ","
    yield "\n  }\n}\n" if sep == "," else head + "{}\n}\n"


def _witness(w) -> str:
    if isinstance(w, tuple):
        return "(" + ",".join(_witness(p) for p in w) + ")"
    return _pt(w)


def witness_text(witnesses) -> str:
    """The first eight witnesses as text: a tuple, nested ones too, is
    written as its parts in parentheses, comma-joined, with bare identifiers."""
    return " ".join(_witness(w) for w in witnesses[:8])


def _witness_json(w):
    if isinstance(w, tuple):
        return [_witness_json(p) for p in w]
    return _pt(w)


def check_line(name: str, witnesses) -> str:
    """One named check as a line: ``name pass``, or ``name fail`` and its
    :func:`witness_text`."""
    return f"{name} fail {witness_text(witnesses)}" if witnesses else f"{name} pass"


def check_json(witnesses) -> dict:
    """One check's JSON form: its verdict and every witness, with tuples,
    nested ones too, written as lists of bare identifiers."""
    return {"pass": not witnesses, "witnesses": [_witness_json(w) for w in witnesses]}


def _axiom_report_text(rep: AxiomReport) -> Iterator[str]:
    for a, wit in rep.witnesses.items():
        yield check_line(f"axioms {a}", wit) + "\n"


def _axiom_report_json(rep: AxiomReport) -> dict:
    return {"axioms": {a: check_json(wit) for a, wit in rep.witnesses.items()}}


def _validation_text(rep: ValidationReport) -> Iterator[str]:
    if rep.ok:
        yield "category valid\n"
        return
    yield "category invalid\n"
    for v in rep.violations:
        yield f"violation {v.kind} (" + ",".join(_pt(p) for p in v.subject) + f") {v.detail}\n"


def _validation_json(rep: ValidationReport) -> dict:
    return {
        "valid": rep.ok,
        "violations": [
            {"kind": v.kind, "subject": [_pt(p) for p in v.subject], "detail": v.detail}
            for v in rep.violations
        ],
    }


def _enc(o, ind: str) -> str:
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = ind + "  "
        items = [
            f"{_quote(k)}: {_quote(v) if isinstance(v, str) else _enc(v, inner)}"
            for k, v in sorted(o.items())
        ]
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = ind + "  "
        items = [_quote(v) if isinstance(v, str) else _enc(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + ind + "]"
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    return int.__repr__(o)  # a TypeError for anything but an int


def _chunks(o, ind: str) -> Iterator[str]:
    inner = ind + "  "
    if isinstance(o, dict):
        sep = "{" + inner
        for k, v in sorted(o.items()):
            head = f"{sep}{_quote(k)}: "
            if isinstance(v, (dict, Iterator)):
                yield head
                yield from _chunks(v, inner)
            else:
                yield head + _enc(v, inner)
            sep = "," + inner
        yield "{}" if sep[0] == "{" else ind + "}"
    elif isinstance(o, Iterator):
        sep = "[" + inner
        for v in o:
            yield sep + _enc(v, inner)
            sep = "," + inner
        yield "[]" if sep[0] == "[" else ind + "]"
    else:
        yield _enc(o, ind)


def json_chunks(obj) -> Iterator[str]:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for byte, in
    chunks, for str, int, bool, None, lists, tuples and str-keyed dicts.  A list may
    also be given as an iterator, drawn one item at a time as it is written.

    A dict is written one chunk per entry, an iterator one chunk per item, and any
    other value, a list or tuple with everything in it too, as one chunk.  The
    standard encoder leaves its C fast path whenever ``indent`` is set; this joins
    the same layout container by container, strings quoted by the C
    ``encode_basestring_ascii``.  It writes every ``--json`` payload but the
    globalization's, which has a fixed-layout writer with the same bytes."""
    yield from _chunks(obj, "\n")
    yield "\n"


def render(obj, fmt: str = "text") -> Iterator[str]:
    """The canonical form of a scenario, report, or globalization as chunks, made
    as they are drawn: one line of text each, or JSON, as the chunks of
    :func:`json_chunks` for a report and of a fixed-layout writer with the same
    bytes for a globalization.  A scenario is written as text only.

    A bad ``fmt`` or type raises here, before any chunk is made.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    for kind, text, data in (
        (Scenario, _scenario_text, None),
        (Globalization, _globalization_text, _globalization_json),
        (AxiomReport, _axiom_report_text, lambda rep: json_chunks(_axiom_report_json(rep))),
        (ValidationReport, _validation_text, lambda rep: json_chunks(_validation_json(rep))),
    ):
        if isinstance(obj, kind) and (fmt == "text" or data is not None):
            return text(obj) if fmt == "text" else data(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} as {fmt}")


def serialize(obj, fmt: str = "text") -> str:
    """Render a scenario, report, or globalization canonically: the chunks of
    :func:`render` joined into one string.

    Scenario text round-trips through :func:`parse`.  All collections are
    emitted in sorted order so identical values always serialize to identical
    bytes.
    """
    return "".join(render(obj, fmt))


def globalization_to_scenario(
    glob: Globalization, category_name: str, action_name: str
) -> Scenario:
    """Re-express a globalization as a scenario over named points.

    Class representatives (g, x) become point identifiers ``g__x`` and the
    embedding becomes the scenario's ``gfun`` block, so the output can be fed
    back in as a mediation target.  Raises ``ValueError`` when two
    representatives would get the same identifier.
    """
    name, owner = {}, {}
    for rep, *_ in glob.classes:
        pt = name[rep] = f"{rep[0]}__{_pt(rep[1])}"
        if owner.setdefault(pt, rep) != rep:
            first, this = _rep_text(owner[pt]), _rep_text(rep)
            raise ValueError(f"class representatives {first} and {this} both become point {pt}")
    table = {(g, name[src]): name[dst] for (g, src), dst in glob.action.items()}
    act = PartialAction(tuple(sorted(name[c[0]] for c in glob.classes)), table)
    gfun = {_pt(x): name[r] for x, r in glob.embed.items()}
    return Scenario(category_name, action_name, glob.category, act, None, None, gfun)
