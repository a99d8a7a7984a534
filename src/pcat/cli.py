"""Command-line driver for validating, globalizing, and topologizing scenarios.

Exit codes: 0 for success, 1 for a semantic failure (an axiom or property
violation in an otherwise well-formed scenario), 2 for unreadable or
unparsable input, or for a run that ran out of memory (one stderr line, and
what stdout still buffers is dropped).  Identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from .action import Verdict, check_category_axioms, groupoid_report
from .dsl import ParseError, Scenario, globalization_to_scenario, parse, render
from .dsl import _axiom_report_json, _validation_json, check_json, check_line, json_chunks
from .globalization import (
    AxiomError,
    MediationError,
    build_globalization,
    mediating,
)
from .oracle import run_oracle, suite_scenario
from .topology import (
    Space,
    TopScenario,
    topologize_globalization,
    validate_topology,
)

DEFAULT_SEED = 1729


class _InputError(Exception):
    """Input file unreadable or unparsable; message already on stderr."""


class _OutputError(Exception):
    """Writing stdout failed; the message is the reason."""


def _read_scenario(path: str) -> Scenario:
    try:
        # newline="": parse gets the file's own text, so a lone CR inside a
        # line is whitespace there, as it is for pcat.parse.
        with open(path, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
        raise _InputError from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        print(f"{path}: not valid UTF-8 at line {line} ({exc.reason})", file=sys.stderr)
        raise _InputError from exc
    try:
        return parse(text)
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.col}: {exc.code}: {exc.reason}", file=sys.stderr)
        raise _InputError from exc


def _category_ok(scn: Scenario) -> bool:
    """Validate the scenario's category; on failure the report goes to stderr."""
    val = scn.category.validation
    if not val.ok:
        sys.stderr.writelines(render(val, "text"))
    return val.ok


def _read_target(path: str, source: Scenario) -> Scenario | None:
    """Read a mediation target over the source's category with gfun lines
    naming j; None when it is not one, with the reason on stderr."""
    tgt = _read_scenario(path)
    if tgt.category != source.category:
        print("target category differs from source category", file=sys.stderr)
        return None
    if tgt.gfun is None:
        print("target file must supply gfun lines naming j", file=sys.stderr)
        return None
    return tgt


def _write(chunks) -> None:
    """Write chunks to stdout as they are made, then flush; a failed write or
    flush raises :class:`_OutputError`."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(exc.strerror or exc) from exc


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so that what is still
    buffered is dropped at exit instead of failing a second time."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-memory stdout has no descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _emit(obj, as_json: bool) -> None:
    _write(render(obj, "json" if as_json else "text"))


def _topo_report(checks, ok: bool, as_json: bool, opens: int | None = None) -> None:
    """Print the ``topo`` verdicts; ``opens`` is None when no quotient was built."""
    if as_json:
        checks_json = {v.name.replace(" ", "_").replace("-", "_"): check_json(v.witnesses) for v in checks}
        payload = {"checks": checks_json, "ok": ok}
        if opens is not None:
            payload["quotient_opens"] = opens
        _write(json_chunks(payload))
    else:
        lines = [f"{check_line(v.name, v.witnesses)}\n" for v in checks]
        if opens is not None:
            lines.append(f"quotient opens {opens}\n")
        _write(lines)


def cmd_validate(args) -> int:
    scn = _read_scenario(args.file)
    val = scn.category.validation
    if not val.ok:
        _emit(val, args.json)
        return 1
    axioms = check_category_axioms(scn.category, scn.action)
    gr = groupoid_report(scn.category, scn.action, axioms) if scn.category.inverse is not None else None
    if args.json:
        payload = {"category": _validation_json(val), "action": _axiom_report_json(axioms)["axioms"]}
        if gr is not None:
            payload["groupoid_action"] = _axiom_report_json(gr)["axioms"]
        _write(json_chunks(payload))
    else:
        reports = (val, axioms) if gr is None else (val, axioms, gr)
        _write(itertools.chain.from_iterable(render(rep, "text") for rep in reports))
    return 0 if axioms.passed("C1", "C2", "C3") else 1


def cmd_globalize(args) -> int:
    scn = _read_scenario(args.file)
    if not _category_ok(scn):
        return 1
    try:
        glob = build_globalization(scn.category, scn.action)
    except AxiomError as exc:
        sys.stderr.writelines(render(exc.report, "text"))
        return 1
    if args.target_out:
        # Written before stdout, so that a target that cannot be named writes neither.
        try:
            out = globalization_to_scenario(glob, scn.category_name, f"{scn.action_name}_global")
        except ValueError as exc:
            print(f"--target-out: {exc}", file=sys.stderr)
            return 1
        try:
            with open(args.target_out, "w", encoding="utf-8") as fh:
                fh.writelines(render(out, "text"))
        except OSError as exc:
            print(f"--target-out: {args.target_out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        del out  # not held while stdout is written
    _emit(glob, args.json)
    return 0


def cmd_mediate(args) -> int:
    scn = _read_scenario(args.file)
    if not _category_ok(scn):
        return 1
    tgt = _read_target(args.target, scn)
    if tgt is None:
        return 1
    try:
        glob = build_globalization(scn.category, scn.action)
    except AxiomError as exc:
        sys.stderr.writelines(render(exc.report, "text"))
        return 1
    try:
        k = mediating(glob, tgt.action, tgt.gfun)
    except (MediationError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    injective = len(set(k.values())) == len(k)
    if args.json:
        payload = {
            "k": ({"class": [rep[0], str(rep[1])], "value": str(k[rep])} for rep in sorted(k)),
            "compose_ok": True,
            "injective": injective,
        }
        _write(json_chunks(payload))
    else:
        lines = (f"k [{rep[0]},{rep[1]}] = {k[rep]}\n" for rep in sorted(k))
        _write(itertools.chain(lines, ["compose ok\n", f"injective {'true' if injective else 'false'}\n"]))
    return 0


def _space(top, carrier) -> Space:
    """The Space of a validated topology block, or the discrete one when absent."""
    return Space.discrete(carrier) if top is None else Space.from_topology(top)


def cmd_topo(args) -> int:
    scn = _read_scenario(args.file)
    if not _category_ok(scn):
        return 1

    # A Space is valid by construction; only families spelled out in the file are checked.
    checks = []
    for kind, what, top in (("mor", "morphism", scn.top_mor), ("space", "carrier", scn.top_space)):
        if top is None:
            print(f"note: no {what} topology given; defaulting to discrete", file=sys.stderr)
        witnesses = () if top is None else validate_topology(top).witnesses
        checks.append(Verdict(f"topology {kind}", witnesses))
    if not all(v.ok for v in checks):
        _topo_report(checks, False, args.json)
        return 1

    try:
        glob = build_globalization(scn.category, scn.action)
    except AxiomError as exc:
        _emit(exc.report, args.json)
        return 1

    target = None
    if args.target:
        tgt = _read_target(args.target, scn)
        if tgt is None:
            return 1
        if tgt.top_space is None:
            print("note: no target carrier topology given; defaulting to discrete", file=sys.stderr)
        else:
            verdict = validate_topology(tgt.top_space)
            if not verdict.ok:
                print(check_line("target topology space", verdict.witnesses), file=sys.stderr)
                return 1
        target = (tgt.action, _space(tgt.top_space, tgt.action.carrier), tgt.gfun)

    tscn = TopScenario(
        scn.category,
        scn.action,
        _space(scn.top_mor, scn.category.morphisms),
        _space(scn.top_space, scn.action.carrier),
    )
    try:
        tg = topologize_globalization(tscn, glob, target)
    except (MediationError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1

    _topo_report(checks + list(tg.checks), tg.ok, args.json, tg.top_y.count_opens())
    return 0 if tg.ok else 1


def cmd_oracle(args) -> int:
    if not 1 <= args.max_size <= 8:
        print("--max-size must be between 1 and 8", file=sys.stderr)
        return 2
    scenario = []
    if args.file:
        scn = _read_scenario(args.file)
        if not _category_ok(scn):
            return 1
        # Run first, so that a file failing C1-C3 does not wait for the sweep.
        try:
            scenario.append(suite_scenario(scn.category, scn.action, args.max_size))
        except AxiomError as exc:
            sys.stderr.writelines(render(exc.report, "text"))
            return 1
        points = len(scn.action.carrier)
        if points > 8:
            print(
                f"note: {args.file} has {points} points; receivers hold at most 8, "
                "so the factorization sweep was skipped",
                file=sys.stderr,
            )
    suites = run_oracle(args.seed, args.max_size) + scenario
    if args.json:
        payload = {
            "suites": [
                {
                    "name": s.name,
                    "cases": s.cases,
                    "ok": s.ok,
                    "failures": list(s.failures),
                }
                for s in suites
            ],
            "ok": all(s.ok for s in suites),
        }
        _write(json_chunks(payload))
    else:
        lines = []
        for s in suites:
            status = "ok" if s.ok else f"fail {s.failures[0]}"
            lines.append(f"suite {s.name} cases {s.cases} {status}\n")
        _write(lines)
    return 0 if all(s.ok for s in suites) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcat",
        description="Validate, globalize, mediate, and topologize partial category actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check category structure and action axioms")
    p.add_argument("file", help="scenario file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("globalize", help="build the universal globalization")
    p.add_argument("file", help="scenario file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument(
        "--target-out",
        metavar="PATH",
        help="also write the globalization as a scenario file usable as a mediation target",
    )
    p.set_defaults(func=cmd_globalize)

    p = sub.add_parser("mediate", help="compute the mediating map into a target action")
    p.add_argument("file", help="scenario file")
    p.add_argument("--target", required=True, metavar="FILE", help="global target scenario with gfun lines")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_mediate)

    p = sub.add_parser("topo", help="run the topological checks and build the quotient topology")
    p.add_argument("file", help="scenario file")
    p.add_argument("--target", metavar="FILE", help="topologized global target scenario with gfun lines")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_topo)

    p = sub.add_parser("oracle", help="run the randomized cross-check suites")
    p.add_argument("file", nargs="?", help="optional scenario to include in the sweeps")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--max-size", type=int, default=6, metavar="N", help="receiver carrier bound (1-8)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S", help="seed for randomized suites")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError:
        return 2
    except _OutputError as exc:
        print(f"pcat: stdout: {exc}", file=sys.stderr)
        _drop_stdout()
        return 1
    except MemoryError:
        pass  # leaving the handler frees the run's frames before the line is written
    print("pcat: out of memory", file=sys.stderr)
    _drop_stdout()
    return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
