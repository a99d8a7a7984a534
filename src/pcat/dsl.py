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


def _tokens(line_text: str):
    body = line_text.split("#", 1)[0].rstrip("\r")
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.idx = 0

    def err(self, code, msg, line, col):
        raise ParseError(code, msg, line, col)

    def next_line(self, fast=None):
        """The next non-blank line as (number, tokens).  A line with no ``#`` or carriage
        return that ``fast(fields)`` proves well-formed and records is skipped."""
        while self.idx < len(self.lines):
            text = self.lines[self.idx]
            self.idx += 1
            if fast is not None and "#" not in text and "\r" not in text:
                fields = text.split()
                if not fields or fast(fields):
                    continue
            toks = _tokens(text)
            if toks:
                return self.idx, toks
        return None, None

    def want_ident(self, tok, line, what):
        text, col = tok
        if not _IDENT.match(text):
            self.err("E_SYNTAX", f"expected {what}, got {text!r}", line, col)
        if text == "empty":
            self.err("E_SYNTAX", "'empty' is reserved for the empty open set", line, col)
        return text

    def parse(self) -> Scenario:
        line, toks = self.next_line()
        if toks is None:
            self.err("E_SYNTAX", "empty input: expected a category block", 1, 1)
        if toks[0][0] != "category":
            self.err("E_SYNTAX", "expected 'category <name>'", line, toks[0][1])
        cat_name, category = self.category_block(line, toks)

        line, toks = self.next_line()
        if toks is None or toks[0][0] != "action":
            where = (line, toks[0][1]) if toks else (len(self.lines), 1)
            self.err("E_SYNTAX", "expected 'action <name>' after the category block", *where)
        act_name, action = self.action_block(line, toks, category)
        points = {p: p for p in action.carrier}

        top_mor = top_space = None
        gfun: Optional[dict] = None
        while True:
            line, toks = self.next_line()
            if toks is None:
                break
            head, col = toks[0]
            if head == "topology":
                kind_tok = toks[1] if len(toks) > 1 else (None, col)
                kind = kind_tok[0]
                if kind not in ("mor", "space") or len(toks) != 2:
                    self.err("E_SYNTAX", "expected 'topology mor' or 'topology space'", line, kind_tok[1])
                if kind == "mor":
                    if top_mor is not None:
                        self.err("E_DUP_DEF", "second 'topology mor' block", line, col)
                    top_mor = self.topology_block(line, tuple(category.morphisms))
                else:
                    if top_space is not None:
                        self.err("E_DUP_DEF", "second 'topology space' block", line, col)
                    top_space = self.topology_block(line, action.carrier)
            elif head == "gfun":
                if gfun is None:
                    gfun = {}
                if len(toks) != 4 or toks[2][0] != "=":
                    self.err("E_SYNTAX", "expected 'gfun <point> = <point>'", line, col)
                src = self.want_ident(toks[1], line, "a point identifier")
                dst = self.want_ident(toks[3], line, "a point identifier")
                if dst not in points:
                    self.err("E_UNKNOWN_ID", f"unknown point {dst!r}", line, toks[3][1])
                if src in gfun:
                    self.err("E_DUP_DEF", f"duplicate gfun entry for {src!r}", line, toks[1][1])
                gfun[src] = points[dst]
            else:
                self.err("E_SYNTAX", f"unexpected directive {head!r}", line, col)

        return Scenario(cat_name, act_name, category, action, top_mor, top_space, gfun)

    def category_block(self, line, toks):
        if len(toks) != 2:
            self.err("E_SYNTAX", "expected 'category <name>'", line, toks[-1][1])
        name = self.want_ident(toks[1], line, "a category name")
        objects: list[str] = []
        arrows: dict[str, tuple[str, str]] = {}
        # every object and arrow name to the first object read for it
        names: dict[str, str] = {}
        explicit: dict[tuple[str, str], str] = {}

        def fast(f):
            # comp lines of two composable non-identity arrows, not yet given
            if len(f) != 6 or f[0] != "comp" or f[2] != "." or f[4] != "=":
                return False
            g, h, k = names.get(f[1]), names.get(f[3]), names.get(f[5])
            known = g in arrows and h in arrows and k is not None
            if not known or arrows[g][0] != arrows[h][1] or (g, h) in explicit:
                return False
            explicit[(g, h)] = k
            return True

        while True:
            line, toks = self.next_line(fast)
            if toks is None:
                self.err("E_SYNTAX", "category block not closed with 'end'", len(self.lines), 1)
            head, col = toks[0]
            if head == "end":
                break
            if head == "object":
                if len(toks) != 2:
                    self.err("E_SYNTAX", "expected 'object <id>'", line, col)
                obj = self.want_ident(toks[1], line, "an object identifier")
                if obj in names:
                    self.err("E_DUP_DEF", f"duplicate identifier {obj!r}", line, toks[1][1])
                objects.append(obj)
                names[obj] = obj
            elif head == "mor":
                if len(toks) != 6 or toks[2][0] != ":" or toks[4][0] != "->":
                    self.err("E_SYNTAX", "expected 'mor <id> : <obj> -> <obj>'", line, col)
                mid = self.want_ident(toks[1], line, "a morphism identifier")
                d = self.want_ident(toks[3], line, "an object identifier")
                c = self.want_ident(toks[5], line, "an object identifier")
                if mid in names:
                    self.err("E_DUP_DEF", f"duplicate identifier {mid!r}", line, toks[1][1])
                if d not in objects:
                    self.err("E_UNKNOWN_ID", f"unknown object {d!r}", line, toks[3][1])
                if c not in objects:
                    self.err("E_UNKNOWN_ID", f"unknown object {c!r}", line, toks[5][1])
                arrows[mid] = (names[d], names[c])
                names[mid] = mid
            elif head == "comp":
                if len(toks) != 6 or toks[2][0] != "." or toks[4][0] != "=":
                    self.err("E_SYNTAX", "expected 'comp <g> . <h> = <k>'", line, col)
                given = []
                for t in (toks[1], toks[3], toks[5]):
                    ident = self.want_ident(t, line, "a morphism identifier")
                    if ident not in names:
                        self.err("E_UNKNOWN_ID", f"unknown morphism {ident!r}", line, t[1])
                    given.append(names[ident])
                g, h, k = given
                span = lambda m: (m, m) if m in objects else arrows[m]
                if span(g)[0] != span(h)[1]:
                    self.err("E_SYNTAX", f"pair ({g}, {h}) is not composable", line, col)
                if (g, h) in explicit:
                    self.err("E_DUP_DEF", f"duplicate composite for ({g}, {h})", line, col)
                implied = None
                if g in objects and span(g)[0] == span(h)[1]:
                    implied = h
                if h in objects and span(g)[0] == span(h)[1]:
                    implied = g
                if implied is not None and implied != k:
                    self.err("E_DUP_DEF", f"composite for ({g}, {h}) conflicts with the identity law", line, col)
                explicit[(g, h)] = k
            else:
                self.err("E_SYNTAX", f"unexpected directive {head!r} in category block", line, col)

        for (g, h) in sorted((g, h) for g in arrows for h in arrows if arrows[g][0] == arrows[h][1]):
            if (g, h) not in explicit:
                self.err("E_MISSING_COMP", f"composable pair ({g}, {h}) has no comp line", line, 1)
        # Duplicates and identity conflicts were rejected above, so this cannot raise.
        return name, Category.make(objects, arrows, explicit)

    def action_block(self, line, toks, category: Category):
        if len(toks) != 2:
            self.err("E_SYNTAX", "expected 'action <name>'", line, toks[-1][1])
        name = self.want_ident(toks[1], line, "an action name")
        # each name to the first object read for it, the category's own for morphisms
        points: dict[str, str] = {}
        morphisms = {m: m for m in category.morphisms}
        table: dict[tuple[str, str], str] = {}

        def fast(f):
            # act lines over declared names with a new (g, x)
            if f[0] == "act":
                if len(f) != 5 or f[3] != "=":
                    return False
                g, x, y = morphisms.get(f[1]), points.get(f[2]), points.get(f[4])
                if g is None or x is None or y is None or (g, x) in table:
                    return False
                table[(g, x)] = y
                return True
            # point lines of new, distinct identifiers
            new = f[1:]
            if f[0] != "point" or not _IDENT.match("".join(new)) or "empty" in new:
                return False
            if len(set(new)) != len(new) or not points.keys().isdisjoint(new):
                return False
            points.update(zip(new, new))
            return True

        while True:
            line, toks = self.next_line(fast)
            if toks is None:
                self.err("E_SYNTAX", "action block not closed with 'end'", len(self.lines), 1)
            head, col = toks[0]
            if head == "end":
                break
            if head == "point":
                if len(toks) < 2:
                    self.err("E_SYNTAX", "expected 'point <id> [<id> ...]'", line, col)
                for t in toks[1:]:
                    p = self.want_ident(t, line, "a point identifier")
                    if p in points:
                        self.err("E_DUP_DEF", f"duplicate point {p!r}", line, t[1])
                    points[p] = p
            elif head == "act":
                if len(toks) != 5 or toks[3][0] != "=":
                    self.err("E_SYNTAX", "expected 'act <mor> <point> = <point>'", line, col)
                g = self.want_ident(toks[1], line, "a morphism identifier")
                x = self.want_ident(toks[2], line, "a point identifier")
                y = self.want_ident(toks[4], line, "a point identifier")
                if g not in morphisms:
                    self.err("E_UNKNOWN_ID", f"unknown morphism {g!r}", line, toks[1][1])
                if x not in points:
                    self.err("E_UNKNOWN_ID", f"unknown point {x!r}", line, toks[2][1])
                if y not in points:
                    self.err("E_UNKNOWN_ID", f"unknown point {y!r}", line, toks[4][1])
                g, x = morphisms[g], points[x]
                if (g, x) in table:
                    self.err("E_DUP_DEF", f"duplicate action entry for ({g}, {x})", line, col)
                table[(g, x)] = points[y]
            else:
                self.err("E_SYNTAX", f"unexpected directive {head!r} in action block", line, col)
        return name, PartialAction(tuple(sorted(points)), table)

    def topology_block(self, header_line, carrier):
        known = {p: p for p in carrier}
        opens: set[frozenset] = {frozenset()}
        declared: set[frozenset] = set()
        while True:
            line, toks = self.next_line()
            if toks is None:
                self.err("E_SYNTAX", "topology block not closed with 'end'", len(self.lines), 1)
            head, col = toks[0]
            if head == "end":
                break
            if head != "open":
                self.err("E_SYNTAX", f"unexpected directive {head!r} in topology block", line, col)
            if len(toks) == 2 and toks[1][0] == "empty":
                u: frozenset = frozenset()
            else:
                if len(toks) < 2:
                    self.err("E_SYNTAX", "expected 'open <id> [<id> ...]' or 'open empty'", line, col)
                members = []
                for t in toks[1:]:
                    p = self.want_ident(t, line, "an identifier")
                    if p not in known:
                        self.err("E_UNKNOWN_ID", f"unknown identifier {p!r}", line, t[1])
                    members.append(known[p])
                u = frozenset(members)
            if u in declared:
                self.err("E_DUP_DEF", "duplicate open set", line, col)
            declared.add(u)
            opens.add(u)
        if frozenset(carrier) not in opens:
            self.err("E_TOP_NO_TOTAL", "the full carrier is not listed as open", header_line, 1)
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


def _rep_json(rep):
    g, x = rep
    return [g, _pt(x)]


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


def _globalization_json(glob: Globalization) -> dict:
    return {
        "classes": (
            {"rep": _rep_json(cls[0]), "members": [_rep_json(m) for m in cls]} for cls in glob.classes
        ),
        "action": (
            {"g": g, "src": _rep_json(src), "dst": _rep_json(dst)}
            for (g, src), dst in sorted(glob.action.items())
        ),
        "embedding": {_pt(x): _rep_json(r) for x, r in sorted(glob.embed.items())},
        "axioms": glob.axioms.verdicts(),
    }


def _globalization_text(glob: Globalization) -> Iterator[str]:
    yield f"xbar {len(glob.xbar.elements)}\n"
    yield f"classes {len(glob.classes)}\n"
    for cls in glob.classes:
        yield f"class {_rep_text(cls[0])} = " + " ".join(_el_text(m) for m in cls) + "\n"
    for (g, src), dst in sorted(glob.action.items()):
        yield f"act {g} {_rep_text(src)} = {_rep_text(dst)}\n"
    for x in sorted(glob.embed):
        yield f"embed {_pt(x)} = {_rep_text(glob.embed[x])}\n"
    for a, ok in glob.axioms.verdicts().items():
        yield f"axioms {a} {'pass' if ok else 'fail'}\n"


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
    ``encode_basestring_ascii``."""
    yield from _chunks(obj, "\n")
    yield "\n"


def render(obj, fmt: str = "text") -> Iterator[str]:
    """The canonical form of a scenario, report, or globalization as chunks, made
    as they are drawn: one line of text each, or the chunks of :func:`json_chunks`.
    A scenario is written as text only.

    A bad ``fmt`` or type raises here, before any chunk is made.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    for kind, text, data in (
        (Scenario, _scenario_text, None),
        (Globalization, _globalization_text, _globalization_json),
        (AxiomReport, _axiom_report_text, _axiom_report_json),
        (ValidationReport, _validation_text, _validation_json),
    ):
        if isinstance(obj, kind) and (fmt == "text" or data is not None):
            return text(obj) if fmt == "text" else json_chunks(data(obj))
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
