"""The JSON form of a globalization as a plain nested value, kept as a
test-only reference for ``pcat.dsl``.

``pcat.dsl.render(glob, "json")`` writes the globalization with a fixed-layout
writer of its own.  Its bytes must be ``json.dumps(globalization_json(glob),
indent=2, sort_keys=True)`` and a newline: the quotient action's steps sorted
by (g, representative), each class with its representative and members, the
embedding keyed by the point's text, and the C1-C4 verdicts.  Nothing under
``src/`` imports this module.
"""

from pcat import Globalization


def _pt(x) -> str:
    return x if isinstance(x, str) else str(x)


def _pair(el) -> list:
    g, x = el
    return [g, _pt(x)]


def globalization_json(glob: Globalization) -> dict:
    """The value whose ``json.dumps(indent=2, sort_keys=True)`` the globalization's
    JSON output is."""
    return {
        "classes": [{"rep": _pair(cls[0]), "members": [_pair(m) for m in cls]} for cls in glob.classes],
        "action": [
            {"g": g, "src": _pair(src), "dst": _pair(dst)} for (g, src), dst in sorted(glob.action.items())
        ],
        "embedding": {_pt(x): _pair(r) for x, r in sorted(glob.embed.items())},
        "axioms": glob.axioms.verdicts(),
    }
