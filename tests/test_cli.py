"""End-to-end CLI tests: golden outputs, exit codes, and determinism."""

import errno
import functools
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import pytest

from pcat import (
    Category,
    FiniteTopology,
    ParseError,
    PartialAction,
    Scenario,
    Space,
    TopScenario,
    build_globalization,
    check_category_axioms,
    globalization_to_scenario,
    parse,
    serialize,
    topologize_globalization,
)
from pcat.cli import DEFAULT_SEED
from pcat.oracle import group_category

from conftest import FIXTURE_DIR, REPO, ChunkRecorder, fixture_text, golden_text, run_cli, run_cli_chunks
from reference_json import globalization_json


STEMS = ("arrow_small", "arrow_collapse", "iso_fixed", "iso_shift")


def fx(stem):
    return str(FIXTURE_DIR / f"{stem}.pcat")


def test_globalize_text_goldens():
    for stem in ("arrow_small", "arrow_collapse", "iso_fixed", "iso_shift"):
        code, out, err = run_cli(["globalize", fx(stem)])
        assert code == 0 and err == ""
        assert out == golden_text(f"globalize_{stem}.txt"), stem


def test_globalize_json_goldens():
    for stem in ("arrow_small", "iso_fixed"):
        code, out, err = run_cli(["globalize", "--json", fx(stem)])
        assert code == 0 and err == ""
        assert out == golden_text(f"globalize_{stem}.json"), stem
        json.loads(out)


def test_validate_goldens():
    for stem in ("arrow_small", "iso_shift"):
        code, out, err = run_cli(["validate", fx(stem)])
        assert code == 0 and err == ""
        assert out == golden_text(f"validate_{stem}.txt"), stem


def python_m_pcat(argv, **kwargs):
    """Run ``python -m pcat ARGV`` on this checkout's sources in a new process."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pcat", *argv], text=True, env=env, cwd=REPO, timeout=60, **kwargs
    )


def test_python_m_pcat_runs_the_cli():
    proc = python_m_pcat(["validate", "fixtures/arrow_small.pcat"], capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, golden_text("validate_arrow_small.txt"), "")


def test_validate_json_parses():
    code, out, err = run_cli(["validate", "--json", fx("iso_fixed")])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["category"]["valid"] is True
    assert data["action"]["C4"] == {
        "pass": False,
        "witnesses": [["g", "1"], ["g_inv", "3"]],
    }
    assert data["groupoid_action"]["GR2"]["pass"] is True


def test_mediate_golden():
    code, out, err = run_cli(
        ["mediate", fx("arrow_small"), "--target", fx("arrow_small_target")]
    )
    assert code == 0 and err == ""
    assert out == golden_text("mediate_arrow_small.txt")


def test_mediate_json():
    code, out, err = run_cli(
        ["mediate", "--json", fx("arrow_small"), "--target", fx("arrow_small_target")]
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["injective"] is True and data["compose_ok"] is True
    assert {"class": ["g", "1"], "value": "g__1"} in data["k"]


def test_topo_goldens():
    code, out, err = run_cli(["topo", fx("arrow_small_topo")])
    assert code == 0 and err == ""
    assert out == golden_text("topo_arrow_small_topo.txt")

    code, out, err = run_cli(["topo", fx("arrow_small_nonopen")])
    assert code == 1 and err == ""
    assert out == golden_text("topo_arrow_small_nonopen.txt")


def test_topo_defaults_missing_topologies_to_discrete():
    code, out, err = run_cli(["topo", fx("arrow_small")])
    assert code == 0
    assert "defaulting" in err
    assert "continuity CA1 pass" in out


def z4_copies():
    """200 of the 240 points of 60 copies of the regular Z4 action, and the
    number of classes of its globalization: a restriction globalizes to the
    union of the orbits it touches."""
    rng = random.Random(2024)
    kept = set(rng.sample([(c, h) for c in range(60) for h in range(4)], 200))
    names = ["e", "m1", "m2", "m3"]
    steps = {
        (names[g], f"p{c}_{h}"): f"p{c}_{(g + h) % 4}"
        for g in range(4)
        for (c, h) in kept
        if (c, (g + h) % 4) in kept
    }
    act = PartialAction.make([f"p{c}_{h}" for (c, h) in kept], steps)
    return group_category("z4"), act, 4 * len({c for c, _ in kept})


def z4_copies_file(tmp_path) -> str:
    """The path of a scenario file holding :func:`z4_copies`, without topologies."""
    z4, act, _ = z4_copies()
    path = tmp_path / "copies.pcat"
    path.write_text(serialize(Scenario("z4", "copies", z4, act, None, None, None)))
    return str(path)


def test_topo_on_a_200_point_scenario_with_default_topologies(tmp_path):
    z4, act, classes = z4_copies()
    path = tmp_path / "copies.pcat"
    path.write_text(serialize(Scenario("z4", "copies", z4, act, None, None, None)))

    start = time.perf_counter()
    code, out, err = run_cli(["topo", str(path)])
    elapsed = time.perf_counter() - start
    lines = out.splitlines()
    assert code == 0 and "defaulting to discrete" in err
    assert len(lines) == 11 and all(line.endswith(" pass") for line in lines[:-1]), lines
    assert lines[-1] == f"quotient opens {2 ** classes}"
    assert elapsed <= 5.0, elapsed

    # An indiscrete morphism topology over the discrete default carrier fails
    # CA2, graph-openness and the embedding's openness.  Each verdict lists
    # the points of its domain that fail, never opens of the 2^200-set
    # carrier family.
    indiscrete = FiniteTopology.make(z4.morphisms, [z4.morphisms])
    path.write_text(serialize(Scenario("z4", "copies", z4, act, indiscrete, None, None)))
    start = time.perf_counter()
    code, out, err = run_cli(["topo", "--json", str(path)])
    elapsed = time.perf_counter() - start
    checks = json.loads(out)["checks"]
    assert code == 1
    failing = {name for name, check in checks.items() if not check["pass"]}
    assert failing == {"continuity_CA2", "graph_open", "embedding_open"}, failing
    domain = {
        "topology_mor": 0,
        "topology_space": 0,
        "continuity_comp": len(z4.comp),
        "continuity_CA1": len(z4.objects),
        "continuity_CA2": len(act.table),
        "star_open": len(z4.objects),
        "graph_open": len(act.table),
        "embedding_continuous": len(act.carrier),
        "action_continuous": len(z4.morphisms) * classes,
        "embedding_open": len(act.carrier),
    }
    assert checks.keys() == domain.keys()
    for name, check in checks.items():
        assert len(check["witnesses"]) <= domain[name], name
    assert elapsed <= 5.0, elapsed


def test_benchmark_tracer_wraps_the_topo_path():
    # perfbench/spans.py wraps pcat's layer functions by name at install
    # time; every name must still resolve and the traced run must not change
    # a byte.  Defaulted topologies never reach validate_topology, and no
    # quotient family is spelled out.
    import pcat.cli
    import pcat.topology

    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    argvs = [["topo", fx("arrow_small_topo")], ["topo", fx("arrow_small")]]
    plain = [run_cli(argv) for argv in argvs]
    original = pcat.topology.validate_topology
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pcat.cli.validate_topology is not original
        traced = [tracer.span("topo", run_cli, argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert pcat.cli.validate_topology is original and pcat.topology.validate_topology is original
    assert traced == plain
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("topology.topologize_globalization") == 2
    assert names.count("topology.check_embedding_open") == 2
    assert names.count("topology.validate_topology") == 2
    assert "topology.to_topology" not in names
    sc = parse(fixture_text("arrow_small_topo"))
    _, _, counts = tracer.summary()
    assert counts["topology.carrier_opens"] == len(sc.top_mor.opens) + len(sc.top_space.opens)


def test_cli_outputs_are_deterministic():
    for argv in (
        ["globalize", fx("iso_shift")],
        ["globalize", "--json", fx("arrow_small")],
        ["validate", fx("iso_shift")],
        ["topo", fx("arrow_small_topo")],
    ):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, argv


def test_options_do_not_carry_between_calls_in_one_process():
    # The parser is built once per process; each call must still start from
    # the defaults, whatever the previous call was given.
    text = run_cli(["topo", fx("arrow_small_topo")])
    run_cli(["topo", "--json", "--target", fx("arrow_small_target"), fx("arrow_small_topo")])
    run_cli(["oracle", "--max-size", "1", "--seed", "3"])
    assert run_cli(["topo", fx("arrow_small_topo")]) == text
    assert text[1] == golden_text("topo_arrow_small_topo.txt")


def test_missing_file_exits_two():
    for argv in (
        ["validate", "no_such_file.pcat"],
        ["globalize", "no_such_file.pcat"],
        ["mediate", "no_such_file.pcat", "--target", fx("arrow_small_target")],
        ["topo", "no_such_file.pcat"],
    ):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and err != "", argv


def test_non_utf8_input_exits_two(tmp_path):
    bad = tmp_path / "bad.pcat"
    bad.write_bytes(b"category c\xff\n")
    for argv in (["validate", str(bad)], ["mediate", fx("arrow_small"), "--target", str(bad)]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err == f"{bad}: not valid UTF-8 at line 1 (invalid start byte)\n", argv


def test_bom_prefixed_input_reads_as_without_bom(tmp_path):
    src, tgt = tmp_path / "src.pcat", tmp_path / "tgt.pcat"
    src.write_bytes(b"\xef\xbb\xbf" + (FIXTURE_DIR / "arrow_small.pcat").read_bytes())
    tgt.write_bytes(b"\xef\xbb\xbf" + (FIXTURE_DIR / "arrow_small_target.pcat").read_bytes())
    assert run_cli(["validate", str(src)]) == run_cli(["validate", fx("arrow_small")])
    mediated = run_cli(["mediate", fx("arrow_small"), "--target", str(tgt)])
    assert mediated == (0, golden_text("mediate_arrow_small.txt"), "")


def test_a_lone_cr_inside_a_line_is_whitespace_as_for_parse(tmp_path):
    # Read with universal newlines, the CR would end line 2 and the file
    # would validate with two objects; pcat.parse reads one line there.
    text = "category c\n  object e\r object f\nend\naction a\n  point 1\nend\n"
    path = tmp_path / "cr.pcat"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == "2:3: E_SYNTAX: expected 'object <id>'"
    assert run_cli(["validate", str(path)]) == (2, "", f"{path}:2:3: E_SYNTAX: expected 'object <id>'\n")


def test_crlf_respelled_fixtures_give_the_same_bytes(tmp_path):
    def crlf(stem):
        path = tmp_path / f"{stem}.pcat"
        path.write_bytes((FIXTURE_DIR / f"{stem}.pcat").read_bytes().replace(b"\n", b"\r\n"))
        return str(path)

    target = crlf("arrow_small_target")
    for stem in sorted(p.stem for p in FIXTURE_DIR.glob("*.pcat")):
        path = crlf(stem)
        for argv in (["validate", "--json"], ["globalize"], ["globalize", "--json"], ["topo"]):
            assert run_cli(argv + [path]) == run_cli(argv + [fx(stem)]), (stem, argv)
        mediated = run_cli(["mediate", "--target", target, path])
        assert mediated == run_cli(["mediate", "--target", fx("arrow_small_target"), fx(stem)]), stem


def _drawn(obj):
    """``obj`` with every iterator in it drawn into a list, and ``obj`` again
    with each drawn iterator given anew as an iterator over the same items."""
    if isinstance(obj, dict):
        pairs = {k: _drawn(v) for k, v in obj.items()}
        return {k: p[0] for k, p in pairs.items()}, {k: p[1] for k, p in pairs.items()}
    if isinstance(obj, (list, tuple)):
        pairs = [_drawn(v) for v in obj]
        return [p[0] for p in pairs], type(obj)(p[1] for p in pairs)
    if obj is None or isinstance(obj, (str, int)):
        return obj, obj
    pairs = [_drawn(v) for v in obj]
    return [p[0] for p in pairs], iter([p[1] for p in pairs])


def test_json_output_is_json_dumps_bytes(monkeypatch):
    # Every --json payload but the globalization's goes through one streaming
    # writer, some of its lists given as iterators; the globalization has a
    # fixed-layout writer of its own and is compared with the test-side
    # reference.  On every fixture stdout must be exactly
    # json.dumps(indent=2, sort_keys=True) of the payload with those lists
    # drawn, plus a newline.
    import pcat.cli
    import pcat.dsl

    writer = pcat.dsl.json_chunks
    payloads = []
    streamed = set()

    def recorded(obj):
        full, lazy = _drawn(obj)
        payloads.append(full)
        streamed.update(k for k, v in obj.items() if isinstance(v, Iterator))
        return writer(lazy)

    monkeypatch.setattr(pcat.dsl, "json_chunks", recorded)
    monkeypatch.setattr(pcat.cli, "json_chunks", recorded)
    target = fx("arrow_small_target")

    def check(argv):
        before = len(payloads)
        code, out, _ = run_cli(argv)
        if argv[:2] == ["globalize", "--json"] and code == 0:
            assert len(payloads) == before, argv
            scn = parse(fixture_text(Path(argv[-1]).stem))
            payloads.append(globalization_json(build_globalization(scn.category, scn.action)))
        if len(payloads) > before:
            assert len(payloads) == before + 1, argv
            assert out == json.dumps(payloads[-1], indent=2, sort_keys=True) + "\n", argv

    check(["oracle", "--json", "--max-size", "1"])
    # The fixture's own suite only; the randomized suites were written above.
    monkeypatch.setattr(pcat.cli, "run_oracle", lambda seed, max_size: [])
    stems = sorted(p.stem for p in FIXTURE_DIR.glob("*.pcat"))
    for stem in stems:
        for argv in (
            ["validate", "--json", fx(stem)],
            ["globalize", "--json", fx(stem)],
            ["mediate", "--json", "--target", target, fx(stem)],
            ["topo", "--json", fx(stem)],
            ["topo", "--json", "--target", target, fx(stem)],
            ["oracle", "--json", "--max-size", "3", fx(stem)],
        ):
            check(argv)
    assert len(stems) == 7 and len(payloads) == 35
    assert sorted({" ".join(sorted(p)) for p in payloads}) == [
        "action axioms classes embedding",
        "action category",
        "action category groupoid_action",
        "checks ok quotient_opens",
        "compose_ok injective k",
        "ok suites",
    ]
    assert streamed == {"k"}


def test_a_run_out_of_memory_ends_in_one_line_and_exit_2(monkeypatch):
    import pcat.cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(pcat.cli, "run_oracle", exhausted)
    monkeypatch.setattr(pcat.cli, "build_globalization", exhausted)
    target = fx("arrow_small_target")
    for argv in (
        ["oracle", "--max-size", "3"],
        ["globalize", fx("arrow_small")],
        ["mediate", "--json", "--target", target, fx("arrow_small")],
        ["topo", fx("arrow_small_topo")],
    ):
        assert run_cli(argv) == (2, "", "pcat: out of memory\n"), argv


def test_globalize_writes_its_output_as_it_is_rendered(tmp_path, monkeypatch):
    # Stdout and the --target-out file each get many small chunks, each
    # written as it is made: none is more than one line of text or one
    # class, step or embedding entry of JSON.
    import pcat.cli

    for stem in ("arrow_small", "iso_fixed"):
        for fmt, flags in (("txt", []), ("json", ["--json"])):
            code, chunks, err = run_cli_chunks(["globalize", *flags, fx(stem)])
            assert (code, err) == (0, "") and len(chunks) > 1
            assert "".join(chunks) == golden_text(f"globalize_{stem}.{fmt}"), stem

    path = z4_copies_file(tmp_path)
    z4, act, _ = z4_copies()
    glob = build_globalization(z4, act)
    files = []

    def recording_open(file, mode="r", **kwargs):
        if "w" not in mode:
            return open(file, mode, **kwargs)
        files.append(ChunkRecorder())
        return files[-1]

    monkeypatch.setattr(pcat.cli, "open", recording_open, raising=False)
    target = globalization_to_scenario(glob, "z4", "copies_global")
    written = {}
    for fmt, flags in (("text", []), ("json", ["--json"])):
        code, chunks, err = run_cli_chunks(["globalize", *flags, "--target-out", "unused.pcat", path])
        assert (code, err) == (0, "")
        assert "".join(chunks) == serialize(glob, fmt)
        written[fmt] = chunks
        assert "".join(files[-1].chunks) == serialize(target)
        written["target " + fmt] = files[-1].chunks
    for name, chunks in written.items():
        assert len(chunks) >= 200 and len("".join(chunks)) > 8 * 4096, name
        assert max(map(len, chunks)) < 4096, name


@pytest.mark.parametrize("stdout", ["full", "closed pipe"])
@pytest.mark.parametrize("size", ["buffered", "streamed"])
def test_a_failed_stdout_write_exits_one_with_one_line(tmp_path, stdout, size):
    # The small output fails at the final flush, the large one at a write
    # part-way through; either way stderr gets one line and no traceback,
    # and nothing more at interpreter exit.
    src = fx("arrow_small") if size == "buffered" else z4_copies_file(tmp_path)
    if stdout == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as sink:
            proc = python_m_pcat(["globalize", src], stdout=sink, stderr=subprocess.PIPE)
        reason = os.strerror(errno.ENOSPC)
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = python_m_pcat(["globalize", src], stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        reason = os.strerror(errno.EPIPE)
    assert (proc.returncode, proc.stderr) == (1, f"pcat: stdout: {reason}\n")


def test_parse_error_exits_two_with_span(tmp_path):
    bad = tmp_path / "bad.pcat"
    bad.write_text("category c\nobject e\nmor g : e -> zz\nend\naction a\npoint 1\nend\n")
    code, out, err = run_cli(["validate", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith(f"{bad}:3:14: E_UNKNOWN_ID:")


def test_globalize_rejects_non_globalizable_action(tmp_path):
    bad = tmp_path / "broken.pcat"
    bad.write_text(
        "category c\nobject e\nend\naction a\npoint 1 2\nact e 1 = 2\nact e 2 = 2\nend\n"
    )
    code, out, err = run_cli(["globalize", str(bad)])
    assert code == 1 and out == ""
    assert "axioms C1 fail (e,1)" in err


def test_topo_writes_the_axiom_report_when_c1_fails(tmp_path):
    bad = tmp_path / "broken.pcat"
    bad.write_text(
        "category c\nobject e\nend\naction a\npoint 1 2\nact e 1 = 2\nact e 2 = 2\nend\n"
    )
    code, out, err = run_cli(["topo", str(bad)])
    assert code == 1
    assert out == "axioms C1 fail (e,1)\naxioms C2 pass\naxioms C3 pass\naxioms C4 pass\n"
    code, out, err = run_cli(["topo", "--json", str(bad)])
    assert code == 1
    assert json.loads(out)["axioms"]["C1"] == {"pass": False, "witnesses": [["e", "1"]]}
    sc = parse(bad.read_text())
    assert out == serialize(check_category_axioms(sc.category, sc.action), "json")


def test_validate_fails_on_axiom_violating_action(tmp_path):
    bad = tmp_path / "broken.pcat"
    bad.write_text(
        "category c\nobject e\nend\naction a\npoint 1 2\nact e 1 = 2\nact e 2 = 2\nend\n"
    )
    code, out, err = run_cli(["validate", str(bad)])
    assert code == 1
    assert "axioms C1 fail (e,1)" in out


NON_ASSOCIATIVE = """category c
  object e
  mor a : e -> e
  mor b : e -> e
  comp a . a = b
  comp a . b = a
  comp b . a = b
  comp b . b = b
end
action one
  point 1
  act e 1 = 1
end
"""


def test_mediate_and_oracle_reject_an_invalid_category(tmp_path):
    # (aa)a = ba = b but a(aa) = ab = a: without the category check the
    # construction's self-audit trips over the non-associative composition.
    src = tmp_path / "nonassoc.pcat"
    src.write_text(NON_ASSOCIATIVE)
    target = tmp_path / "target.pcat"
    target.write_text(
        NON_ASSOCIATIVE.removesuffix("end\n") + "  act a 1 = 1\n  act b 1 = 1\nend\ngfun 1 = 1\n"
    )
    for argv in (
        ["mediate", str(src), "--target", str(target)],
        ["oracle", str(src), "--max-size", "2"],
    ):
        code, out, err = run_cli(argv)
        assert code == 1 and out == "", argv
        assert err.startswith("category invalid\nviolation associativity (a,a,a)"), argv


def test_topo_rejects_an_invalid_target_topology(tmp_path):
    # {e__1} and {f__4} are open but their union is not.
    text = fixture_text("arrow_small_target")
    block = "topology space\n  open e__1\n  open f__4\n  open e__1 e__2 e__3 f__4 g__1\nend\n"
    target = tmp_path / "target.pcat"
    target.write_text(text.replace("gfun 1", block + "gfun 1", 1))
    code, out, err = run_cli(["topo", fx("arrow_small_topo"), "--target", str(target)])
    assert code == 1 and out == ""
    assert err == "target topology space fail (union,(e__1),(f__4))\n"


def _invalid_space_source(tmp_path):
    # {1} and {3} are open but their union is not.
    text = fixture_text("arrow_small_topo")
    block = "topology space\n  open 1\n  open 3\n  open 1 2 3\nend\n"
    src = tmp_path / "bad_space.pcat"
    src.write_text(text[: text.index("topology space")] + block)
    return str(src)


def test_topo_writes_nested_witnesses_as_bare_identifiers(tmp_path):
    code, out, err = run_cli(["topo", _invalid_space_source(tmp_path)])
    assert code == 1 and err == ""
    assert out == "topology mor pass\ntopology space fail (union,(1),(3))\n"


def test_topo_json_reports_an_invalid_source_topology(tmp_path):
    code, out, err = run_cli(["topo", "--json", _invalid_space_source(tmp_path)])
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "checks": {
            "topology_mor": {"pass": True, "witnesses": []},
            "topology_space": {"pass": False, "witnesses": [["union", ["1"], ["3"]]]},
        },
        "ok": False,
    }


# Z2 acting trivially on one point, with the indiscrete topology on Z2: the
# graph {e, m1} x {1} of the action is not open in the product, so the
# open-embedding theorem does not apply, and its conclusion fails here.
NOT_GRAPH_OPEN = """category c
  object e
  mor m1 : e -> e
  comp m1 . m1 = e
end
action a
  point 1
  act e 1 = 1
end
topology mor
  open e m1
end
topology space
  open 1
end
"""


def test_topo_does_not_require_an_open_embedding_without_its_hypotheses(tmp_path):
    src = tmp_path / "not_graph_open.pcat"
    src.write_text(NOT_GRAPH_OPEN)
    code, out, err = run_cli(["topo", str(src)])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "topology mor pass",
        "topology space pass",
        "continuity comp pass",
        "continuity CA1 pass",
        "continuity CA2 pass",
        "star-open pass",
        "graph-open fail (e,1)",
        "embedding continuous pass",
        "action continuous pass",
        "embedding open fail 1",
        "quotient opens 2",
    ]
    code, out, err = run_cli(["topo", "--json", str(src)])
    data = json.loads(out)
    assert code == 0 and data["ok"] is True
    assert data["checks"]["embedding_open"] == {"pass": False, "witnesses": ["1"]}


# Two points that the carrier topology cannot tell apart, under one object.
# The quotient is the carrier itself, so the mediating map into the discrete
# copy of it is the identity on an indiscrete space: the only failing check.
INDISCRETE_PAIR = """category c
  object e
end
action a
  point 1 2
  act e 1 = 1
  act e 2 = 2
end
topology mor
  open e
end
topology space
  open 1 2
end
"""

DISCRETE_PAIR_TARGET = """category c
  object e
end
action a_global
  point e__1 e__2
  act e e__1 = e__1
  act e e__2 = e__2
end
gfun 1 = e__1
gfun 2 = e__2
topology space
  open e__1
  open e__2
  open e__1 e__2
end
"""


def test_topo_target_requires_a_continuous_mediating_map(tmp_path):
    src, target = tmp_path / "pair.pcat", tmp_path / "target.pcat"
    src.write_text(INDISCRETE_PAIR)
    target.write_text(DISCRETE_PAIR_TARGET)
    code, out, err = run_cli(["topo", str(src)])
    assert code == 0 and err == ""
    code, out, err = run_cli(["topo", str(src), "--target", str(target)])
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [l for l in lines if " fail " in l] == ["mediating continuous fail (e,1) (e,2)"]
    assert lines[-2:] == ["mediating continuous fail (e,1) (e,2)", "quotient opens 2"] and len(lines) == 12
    code, out, err = run_cli(["topo", "--json", str(src), "--target", str(target)])
    data = json.loads(out)
    assert code == 1 and data["ok"] is False
    assert [name for name, check in data["checks"].items() if not check["pass"]] == ["mediating_continuous"]


def _library_topo(src, target=None):
    """What ``pcat topo`` hands the library: each topology block as a Space,
    a missing one as the discrete Space."""
    sc = parse(src.read_text())

    def space(top, carrier):
        return Space.discrete(carrier) if top is None else Space.from_topology(top)

    scn = TopScenario(
        sc.category,
        sc.action,
        space(sc.top_mor, sc.category.morphisms),
        space(sc.top_space, sc.action.carrier),
    )
    if target is not None:
        tgt = parse(target.read_text())
        target = (tgt.action, space(tgt.top_space, tgt.action.carrier), tgt.gfun)
    glob = build_globalization(sc.category, sc.action)
    return topologize_globalization(scn, glob, target)


def test_topologize_globalization_gates_like_the_cli(tmp_path):
    # tg.ok is the exit code, and tg.checks name the CLI lines between the
    # two topology lines and the quotient count.  NOT_GRAPH_OPEN passes
    # although its embedding is not open, since graph-open fails.
    written = {}
    for name, text in (
        ("not_graph_open", NOT_GRAPH_OPEN),
        ("pair", INDISCRETE_PAIR),
        ("pair_target", DISCRETE_PAIR_TARGET),
    ):
        written[name] = tmp_path / f"{name}.pcat"
        written[name].write_text(text)
    cases = [
        (written["not_graph_open"], None, True),
        (written["pair"], None, True),
        (written["pair"], written["pair_target"], False),
        (FIXTURE_DIR / "arrow_small_nonopen.pcat", None, False),
        (FIXTURE_DIR / "arrow_small_topo.pcat", None, True),
        (FIXTURE_DIR / "arrow_small_topo.pcat", FIXTURE_DIR / "arrow_small_target.pcat", True),
    ]
    for src, target, ok in cases:
        argv = ["topo", str(src)] + ([] if target is None else ["--target", str(target)])
        code, out, err = run_cli(argv)
        lines = [line.partition(" fail")[0].removesuffix(" pass") for line in out.splitlines()]
        assert lines[:2] == ["topology mor", "topology space"], argv
        assert lines[-1].startswith("quotient opens "), argv
        tg = _library_topo(src, target)
        assert (tg.ok, code == 0) == (ok, ok), argv
        assert [v.name for v in tg.checks] == lines[2:-1], argv
    tg = _library_topo(written["not_graph_open"])
    assert tg.ok and [v.name for v in tg.checks if not v.ok] == ["graph-open", "embedding open"]


def test_topo_converts_each_topology_block_once(monkeypatch):
    # Each validated block becomes a Space once per run, in the CLI; the
    # target fixture has no block and gets the discrete Space.
    converted = []
    from_topology = vars(Space)["from_topology"].__func__

    def counted(cls, t):
        converted.append(t)
        return from_topology(cls, t)

    monkeypatch.setattr(Space, "from_topology", classmethod(counted))
    for argv in (
        ["topo", fx("arrow_small_topo")],
        ["topo", fx("arrow_small_topo"), "--target", fx("arrow_small_target")],
    ):
        converted.clear()
        code, _, _ = run_cli(argv)
        assert code == 0 and len(converted) == 2, (argv, len(converted))


def test_mediate_requires_gfun(tmp_path):
    target = tmp_path / "target.pcat"
    text = fixture_text("arrow_small_target")
    stripped = "".join(l for l in text.splitlines(keepends=True) if not l.startswith("gfun"))
    target.write_text(stripped)
    code, out, err = run_cli(["mediate", fx("arrow_small"), "--target", str(target)])
    assert code == 1 and err != ""


def test_mediate_rejects_mismatched_categories(tmp_path):
    target = tmp_path / "target.pcat"
    target.write_text(
        "category other\nobject e\nend\naction a\npoint 1\nact e 1 = 1\nend\ngfun 1 = 1\n"
    )
    code, out, err = run_cli(["mediate", fx("arrow_small"), "--target", str(target)])
    assert code == 1 and err != ""


def test_mediate_rejects_partial_target(tmp_path):
    target = tmp_path / "target.pcat"
    text = fixture_text("arrow_small")
    target.write_text(text + "gfun 1 = 1\ngfun 2 = 2\ngfun 3 = 3\n")
    code, out, err = run_cli(["mediate", fx("arrow_small"), "--target", str(target)])
    assert code == 1 and err != ""


def test_target_out_round_trips_through_mediate(tmp_path):
    out_path = tmp_path / "quotient.pcat"
    code, out, err = run_cli(
        ["globalize", fx("arrow_collapse"), "--target-out", str(out_path)]
    )
    assert code == 0 and out_path.exists()
    written = parse(out_path.read_text())
    assert written.gfun is not None

    code, out, err = run_cli(
        ["mediate", fx("arrow_collapse"), "--target", str(out_path)]
    )
    assert code == 0 and err == ""
    assert "injective true" in out
    assert "compose ok" in out
    for line in out.splitlines():
        if line.startswith("k "):
            _, cls, _, pt = line.split()
            assert pt == cls.replace("[", "").replace("]", "").replace(",", "__")


def test_target_out_rejects_representatives_that_share_a_point_name(tmp_path):
    # The representatives (a, b__c) and (a__b, c) would both be named a__b__c.
    src = tmp_path / "clash.pcat"
    src.write_text(
        "category two\nobject a\nobject a__b\nend\n"
        "action clash\npoint b__c c\nact a b__c = b__c\nact a__b c = c\nend\n"
    )
    out_path = tmp_path / "quotient.pcat"
    for argv in (["globalize"], ["globalize", "--json"]):
        code, out, err = run_cli([*argv, "--target-out", str(out_path), str(src)])
        assert (code, out) == (1, "")
        assert err == (
            "--target-out: class representatives [a,b__c] and [a__b,c] both become point a__b__c\n"
        )
        assert not out_path.exists()
    code, out, err = run_cli(["globalize", str(src)])
    assert code == 0 and err == "" and "classes 2" in out


def test_target_out_that_cannot_be_opened_exits_one_with_one_line(tmp_path):
    # A missing parent directory and a directory in place of the file.
    for path, code in ((tmp_path / "no" / "such" / "x.pcat", errno.ENOENT), (tmp_path, errno.EISDIR)):
        for argv in (["globalize"], ["globalize", "--json"]):
            got = run_cli([*argv, "--target-out", str(path), fx("arrow_small")])
            assert got == (1, "", f"--target-out: {path}: {os.strerror(code)}\n"), argv
    assert list(tmp_path.iterdir()) == []


def test_oracle_checks_the_file_before_the_randomized_suites(monkeypatch, tmp_path):
    import pcat.cli

    called = []
    monkeypatch.setattr(pcat.cli, "run_oracle", lambda seed, max_size: called.append(seed) or [])
    bad = tmp_path / "uncovered.pcat"
    bad.write_text(fixture_text("arrow_small").replace("point 1 2 3", "point 1 2 3 4"))
    code, out, err = run_cli(["oracle", str(bad)])
    assert (code, out, called) == (1, "", [])
    assert "axioms C1 fail (4)" in err
    code, out, err = run_cli(["oracle", fx("arrow_small"), "--max-size", "3"])
    assert code == 0 and called == [DEFAULT_SEED]
    assert out.startswith("suite scenario cases ")


def test_oracle_notes_a_skipped_sweep_on_more_than_8_points(monkeypatch, tmp_path):
    import pcat.cli

    monkeypatch.setattr(pcat.cli, "run_oracle", lambda seed, max_size: [])

    def scenario(n):
        points = [str(i) for i in range(1, n + 1)]
        src = tmp_path / f"points{n}.pcat"
        src.write_text(
            "category c\n  object e\nend\naction a\n  point " + " ".join(points) + "\n"
            + "".join(f"  act e {x} = {x}\n" for x in points) + "end\n"
        )
        return src

    src = scenario(9)
    note = f"note: {src} has 9 points; receivers hold at most 8, so the factorization sweep was skipped\n"
    assert run_cli(["oracle", str(src), "--max-size", "8"]) == (0, "suite scenario cases 1 ok\n", note)
    code, out, err = run_cli(["oracle", "--json", str(src)])
    assert (code, err) == (0, note)
    assert json.loads(out)["suites"] == [{"name": "scenario", "cases": 1, "ok": True, "failures": []}]
    # At 8 points the sweep runs, and nothing is noted.
    code, out, err = run_cli(["oracle", str(scenario(8)), "--max-size", "8"])
    assert code == 0 and err == ""
    assert out != "suite scenario cases 1 ok\n"


def test_oracle_rejects_bad_max_size():
    for n in ("0", "9"):
        code, out, err = run_cli(["oracle", "--max-size", n])
        assert code == 2 and err != "", n


def test_oracle_scenario_suite_runs_clean():
    code, out, err = run_cli(["oracle", fx("arrow_small"), "--max-size", "4", "--seed", "7"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 5
    for line in lines:
        parts = line.split()
        assert parts[0] == "suite" and parts[2] == "cases" and parts[-1] == "ok"
        assert int(parts[3]) > 0
    assert lines[-1].split()[1] == "scenario"


def _record_checks(monkeypatch) -> dict:
    """Wrap the category check and both axiom checkers in every ``pcat``
    module that binds them; each call is recorded under the checker's name."""
    import pcat.action
    import pcat.category
    import pcat.cli  # noqa: F401  (bind its names before wrapping)

    calls = {}
    for owner, name in (
        (pcat.category, "validate_category"),
        (pcat.action, "check_category_axioms"),
        (pcat.action, "check_groupoid_axioms"),
    ):
        orig = getattr(owner, name)
        seen = calls[name] = []

        def recorded(*args, _orig=orig, _seen=seen, **kwargs):
            _seen.append(args)
            return _orig(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname == "pcat" or modname.startswith("pcat."):
                for key, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, key, recorded)
    return calls


def test_each_command_checks_the_axioms_once_per_action(monkeypatch, tmp_path):
    # The quotient's C1-C4 report comes from the globalization theorem, and
    # validate derives GR1-GR4 from C1-C4, so each check below runs on user
    # input only: the category once, and the axioms once per action.  The
    # oracle's file suite draws its receivers after building the quotient,
    # so they need no check of their own; the randomized suites are stubbed.
    import pcat.cli

    calls = _record_checks(monkeypatch)
    monkeypatch.setattr(pcat.cli, "run_oracle", lambda seed, max_size: [])
    target_out = str(tmp_path / "quotient.pcat")
    expected = [(["validate", fx(stem)], 1) for stem in STEMS]
    for stem in STEMS:
        expected.append((["globalize", fx(stem)], 1))
        expected.append((["globalize", "--json", "--target-out", target_out, fx(stem)], 1))
    expected.append((["topo", fx("arrow_small_topo")], 1))
    # the target of a mediation is user input and is checked as well
    expected.append((["mediate", fx("arrow_small"), "--target", fx("arrow_small_target")], 2))
    expected.append((["topo", fx("arrow_small_topo"), "--target", fx("arrow_small_target")], 2))
    expected.append((["oracle", "--max-size", "4", fx("arrow_small")], 1))
    for argv, actions in expected:
        for seen in calls.values():
            seen.clear()
        code, _, _ = run_cli(argv)
        got = {name: len(seen) for name, seen in calls.items()}
        assert code == 0, argv
        assert got == {
            "validate_category": 1,
            "check_category_axioms": actions,
            "check_groupoid_axioms": 0,
        }, (argv, got)


def test_each_command_builds_each_category_fact_once(monkeypatch, tmp_path):
    # The composite index, the inverse map and the validation report are
    # cached on the Category: each command builds each at most once per
    # category object, and nothing calls is_groupoid around the cache.
    import pcat.category

    built = []
    for name in ("after", "inverse", "validation"):
        fn = vars(Category)[name].func

        def counted(self, _fn=fn, _name=name):
            built.append((_name, self))
            return _fn(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(Category, name)
        monkeypatch.setattr(Category, name, prop)
    inverse_of = pcat.category.is_groupoid

    def is_groupoid(cat):
        built.append(("is_groupoid", cat))
        return inverse_of(cat)

    monkeypatch.setattr(pcat.category, "is_groupoid", is_groupoid)

    target_out = str(tmp_path / "quotient.pcat")
    target = fx("arrow_small_target")
    argvs = []
    for stem in STEMS + ("arrow_small_topo", "arrow_small_nonopen"):
        argvs += [
            ["validate", fx(stem)],
            ["globalize", fx(stem)],
            ["globalize", "--json", "--target-out", target_out, fx(stem)],
            ["mediate", fx(stem), "--target", target],
            ["topo", fx(stem)],
            ["topo", fx(stem), "--target", target],
        ]
    kinds = set()
    for argv in argvs:
        built.clear()
        run_cli(argv)
        per_object = {}
        for name, cat in built:
            per_object[name, id(cat)] = per_object.get((name, id(cat)), 0) + 1
            kinds.add(name)
        assert max(per_object.values(), default=0) <= 1, (argv, per_object)
    assert kinds == {"after", "inverse", "is_groupoid", "validation"}
