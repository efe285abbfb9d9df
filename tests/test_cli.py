import argparse
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nibble_colour import cli
from nibble_colour.cli import main
from nibble_colour.instance_io import (
    Instance,
    dump_colouring,
    dump_instance,
    instance_to_dict,
    load_colouring,
    load_instance,
)
from nibble_colour.core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PreconditionError,
    WeightedListAssignment,
    first_violations,
    validate_colouring,
)
from nibble_colour.nibble import ParameterDomainError, RoundStructure, drive, simulate_schedule
from nibble_colour.pipeline import COLOUR_MODES, colour_instance


def run(argv):
    return main([str(a) for a in argv])


def _p3_instance(tmp_path, lists=None) -> Path:
    graph = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    lists = lists or {0: [1, 2], 1: [1, 2]}
    inst = Instance(
        graph=graph,
        lists=WeightedListAssignment.unit(lists),
        sigma=EdgeCorrespondence(),
        universe=(0, 9),
    )
    path = tmp_path / "p3.json"
    dump_instance(inst, path)
    return path


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["colour"], 2),
    (["colour", "INSTANCE", "--eps", "abc"], 2),
    (["--threads", "0", "colour", "INSTANCE"], 2),
])
def test_main_returns_argparse_exit_codes_without_raising(tmp_path, monkeypatch, capsys, argv, code):
    inst = _p3_instance(tmp_path)
    monkeypatch.chdir(tmp_path)  # where colour's default --out-prefix writes
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([str(inst) if word == "INSTANCE" else word for word in argv]) == code
    captured = capsys.readouterr()
    assert "usage: nibble-colour" in (captured.out if code == 0 else captured.err)
    assert "Traceback" not in captured.err
    assert sorted(tmp_path.iterdir()) == before
    if "--eps" in argv:
        assert "input error: --eps must be a finite number in (0, 1/4], got abc" in captured.err


def test_every_help_exits_0_and_states_each_flag_domain_from_its_type(capsys):
    # argparse formats help only when asked, so a stray % would fail here only.
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == ["brute", "colour", "diag", "gen", "polytope", "schedule", "verify"]
    for p in (parser, *commands.values()):
        for action in p._actions:
            if action.type not in (None, int):  # a `_flag` type
                assert action.type.rule in action.help, (p.prog, action.option_strings, action.help)
    for command in commands:
        assert main([command, "--help"]) == 0
        assert f"usage: nibble-colour {command}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_regular_lists_size(tmp_path):
    out = tmp_path / "inst.json"
    assert run(["gen", "--kind", "regular", "--n", 100, "--d", 16, "--eps", "0.5",
                "--seed", 7, "--out", out]) == 0
    inst = load_instance(out)
    assert inst.graph.edge_count == 800
    assert all(len(inst.lists.colours(e)) == 24 for e in inst.lists.edge_ids())
    manifest = json.loads((tmp_path / "inst.json.manifest.json").read_text())
    assert manifest["command"] == "gen" and manifest["seed"] == 7


def test_gen_default_seed_zero(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--kind", "random", "--n", 8, "--p", "0.5", "--out", out1]) == 0
    assert run(["gen", "--kind", "random", "--n", 8, "--p", "0.5", "--seed", 0, "--out", out2]) == 0
    assert out1.read_text() == out2.read_text()


def test_gen_inadmissible_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["gen", "--kind", "regular", "--n", 5, "--d", 3, "--out", out]) == 2
    assert "even" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--eps", "nan"],
    ["--eps", "inf"],
    ["--eps=-inf"],
    ["--eps", "-1.5", "--universe", 10],
    ["--eps", "-1"],
    ["--p", "2"],
    ["--p", "-1"],
    ["--p", "nan"],
    ["--seed", 2**64],
    ["--seed", -(2**63) - 1],
])
def test_gen_flags_outside_their_domain_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "x.json"
    assert run(["gen", "--kind", "random", "--n", 8, "--p", "0.5", *flags, "--out", out]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_gen_eps_beyond_any_list_size_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["gen", "--kind", "random", "--n", 8, "--p", "0.5", "--eps", "1e300", "--out", out]) == 2
    assert "generation error: eps 1e+300 asks for lists of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, code", [
    (["--universe", 10**20], 2),  # beyond the 2^62 bound of list sizes
    (["--eps", "1e15"], 4),  # a default universe of 4e15 colours or more
    (["--universe", 10**12], 4),
], ids=["universe 1e20", "eps 1e15", "universe 1e12"])
def test_gen_universe_beyond_memory(tmp_path, flags, code):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    argv = ["gen", "--kind", "random", "--n", "8", "--p", "0.5", *map(str, flags), "--out", str(tmp_path / "x.json")]
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, _CAP, *argv], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert ("generation error" if code == 2 else "resource limit") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flags", [
    ["--seed", 2**64 - 1],
    ["--seed", -(2**63)],
    ["--p", "1"],
    ["--eps", "-0.5"],
])
def test_gen_flags_at_the_edge_of_their_domain_exit_0(tmp_path, flags):
    assert run(["gen", "--kind", "random", "--n", 8, "--p", "0.5", *flags, "--out", tmp_path / "x.json"]) == 0


# ---------------------------------------------------------------------------
# colour / verify / brute
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [
    ["--eps", "0"],
    ["--eps", "nan"],
    ["--eps", "-1"],
    ["--eps", "inf"],
    ["--eps", "0.3"],
    ["--seed", 2**64],
    ["--seed", -(2**63) - 1],
    ["--retry-cap", "-1"],
    ["--iteration-cap", "-1"],
    ["--node-cap", "-5"],
    ["--threads", "0"],
])
@pytest.mark.parametrize("mode", ["nibble+finish", "finish-only"])
def test_colour_flags_outside_their_domain_exit_2(tmp_path, capsys, flags, mode):
    inst = _p3_instance(tmp_path)
    capsys.readouterr()
    assert run(["colour", inst, "--mode", mode, *flags, "--out-prefix", tmp_path / "run"]) == 2
    assert "input error: --" in capsys.readouterr().err
    assert not (tmp_path / "run.colouring.json").exists()


@pytest.mark.parametrize("flags", [
    ["--eps", "0.25"],
    ["--seed", 2**64 - 1],
    ["--seed", -(2**63)],
    ["--retry-cap", "0"],
    ["--node-cap", "0"],
])
def test_colour_flags_at_the_edge_of_their_domain_exit_0(tmp_path, flags):
    assert run(["colour", _p3_instance(tmp_path), *flags, "--out-prefix", tmp_path / "run"]) == 0


def test_colour_brute_p3(tmp_path):
    inst = _p3_instance(tmp_path)
    prefix = tmp_path / "run"
    assert run(["colour", inst, "--mode", "brute", "--out-prefix", prefix]) == 0
    colouring, complete = load_colouring(Path(str(prefix) + ".colouring.json"))
    assert complete and len(colouring) == 2
    assert run(["verify", inst, Path(str(prefix) + ".colouring.json")]) == 0


def test_colour_finish_only_unsat_exit_3(tmp_path):
    inst = _p3_instance(tmp_path, lists={0: [1], 1: [1]})
    prefix = tmp_path / "bad"
    assert run(["colour", inst, "--mode", "finish-only", "--iteration-cap", 60,
                "--out-prefix", prefix]) == 3


def test_colour_brute_unsat_exit_1(tmp_path):
    graph = LinearHypergraph.build(3, [(0, 1), (0, 2), (1, 2)], k=2)
    inst = Instance(
        graph=graph,
        lists=WeightedListAssignment.unit({e: [1, 2] for e in range(3)}),
        sigma=EdgeCorrespondence(),
        universe=(0, 9),
    )
    path = tmp_path / "k3.json"
    dump_instance(inst, path)
    assert run(["colour", path, "--mode", "brute", "--out-prefix", tmp_path / "k3run"]) == 1


def test_colour_invalid_instance_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert run(["colour", path, "--out-prefix", tmp_path / "x"]) == 2
    data = {"k": 3, "vertex_count": 4, "edges": [[0, 1, 2], [0, 1, 3]],
            "colour_universe": [0, 3], "lists": {"0": [0], "1": [1]}}
    path2 = tmp_path / "nonlinear.json"
    path2.write_text(json.dumps(data))
    assert run(["colour", path2, "--out-prefix", tmp_path / "y"]) == 2


def test_colour_nibble_finish_deterministic(tmp_path):
    out = tmp_path / "inst.json"
    run(["gen", "--kind", "regular", "--n", 24, "--d", 8, "--eps", "0.5", "--seed", 3, "--out", out])
    p1, p2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["colour", out, "--seed", 11, "--out-prefix", p1]) == 0
    assert run(["--threads", 4, "colour", out, "--seed", 11, "--out-prefix", p2]) == 0
    for suffix in (".colouring.json", ".trace.csv", ".finish.json"):
        a, b = Path(str(p1) + suffix), Path(str(p2) + suffix)
        if a.exists() or b.exists():
            assert a.read_text() == b.read_text()
    m1 = json.loads(Path(str(p1) + ".manifest.json").read_text())
    m2 = json.loads(Path(str(p2) + ".manifest.json").read_text())
    m1.pop("duration_s"), m2.pop("duration_s")
    m1["parameters"].pop("threads"), m2["parameters"].pop("threads")
    m1.pop("outputs"), m2.pop("outputs")
    assert {k: v for k, v in m1.items() if k != "outputs"} == {k: v for k, v in m2.items() if k != "outputs"}


# Digests of colouring.json, finish.json and trace.csv written for the
# instance `gen --kind regular --n 40 --d 16 --eps 0.5 --seed 3` by
# `colour --seed 3` before the round engine moved to CSR rows.
N40_FINISH_ONLY = (
    "66fe0f8b5a7a070c2774e3e7938c089c13f51c44afb45e80b1e6e6b6fcd842f7",
    "147936daaf199233aff4763824bb8e2de90c4e8251c51fecfacb2c99233edc6a",
    "ba308db12906d75e1a3d6f922998d434e1a951f854843bcc8a9deba73265e00f",
)
N40_NIBBLE_FINISH = (
    "6291af3bef88bdbad8221bd7b1e5ce9c2e367dcd30945c2ca66364ff15885f76",
    "1dd225bfb01b8c00409c767145197ddd5898883b32f0c21067b282187ad0d781",
    "f3e23f551211cc66d9151a0ef2704492ec4e62cf9241187c25706733f0449a21",
)


def _digests(prefix: Path) -> tuple[str, ...]:
    return tuple(
        hashlib.sha256(Path(f"{prefix}.{name}").read_bytes()).hexdigest()
        for name in ("colouring.json", "finish.json", "trace.csv")
    )


def _n40_instance(tmp_path) -> Path:
    out = tmp_path / "n40.json"
    assert run(["gen", "--kind", "regular", "--n", 40, "--d", 16, "--eps", "0.5", "--seed", 3, "--out", out]) == 0
    return out


def _refuse(*_args, **_kwargs):
    raise AssertionError("called")


def test_colour_finish_only_builds_no_structure(tmp_path, monkeypatch):
    inst = _n40_instance(tmp_path)
    monkeypatch.setattr(RoundStructure, "build", _refuse)
    monkeypatch.setattr(cli, "neighbourhood_audit", _refuse)
    prefix = tmp_path / "finish"
    assert run(["colour", inst, "--mode", "finish-only", "--seed", 3, "--out-prefix", prefix]) == 0
    assert _digests(prefix) == N40_FINISH_ONLY


def test_colour_nibble_builds_structure_once_for_eps_and_drive(tmp_path, monkeypatch):
    inst = _n40_instance(tmp_path)
    builds = []
    original = RoundStructure.build.__func__

    def counted(cls, graph, lists, sigma, **placed):
        builds.append(len(lists.edge_ids()))
        return original(cls, graph, lists, sigma, **placed)

    monkeypatch.setattr(RoundStructure, "build", classmethod(counted))
    monkeypatch.setattr(cli, "neighbourhood_audit", _refuse)
    prefix = tmp_path / "nibble"
    assert run(["colour", inst, "--seed", 3, "--out-prefix", prefix]) == 0
    assert _digests(prefix) == N40_NIBBLE_FINISH
    # one build of all 320 edges for auto-eps and round 0, one after round 0
    assert builds == [320, 242]


@pytest.mark.parametrize("mode, flags, kwargs", [
    ("nibble+finish", [], {}),
    ("finish-only", [], {}),
    ("brute", ["--node-cap", 40], {"node_cap": 40}),  # a search that colours all 320 edges takes seconds
])
def test_colour_instance_writes_what_colour_writes(tmp_path, mode, flags, kwargs):
    path = _n40_instance(tmp_path)
    prefix = tmp_path / "run"
    code = run(["colour", path, "--mode", mode, "--seed", 3, *flags, "--out-prefix", prefix])
    inst = load_instance(path)
    result = colour_instance(inst, mode, seed=3, **kwargs)
    dump_colouring(result.colours, result.complete, tmp_path / "library.json")
    assert (tmp_path / "library.json").read_bytes() == Path(f"{prefix}.colouring.json").read_bytes()
    assert cli.EXIT_OF_OUTCOME[result.outcome] == code
    if mode == "nibble+finish":
        direct = drive(inst.graph, inst.lists, inst.sigma, seed=3)
        assert (result.drive.stop_reason, result.drive.eps) == (direct.stop_reason, direct.eps)
    else:
        assert result.drive is None


def test_colour_instance_refuses_an_unknown_mode_and_the_parser_offers_the_known_ones(tmp_path):
    inst = load_instance(_p3_instance(tmp_path))
    for mode in ("nibble", "Brute", ""):
        with pytest.raises(PreconditionError, match=f"unknown colour mode {mode!r}"):
            colour_instance(inst, mode)
    parser = cli.build_parser()
    colour = next(a for a in parser._subparsers._group_actions if a.dest == "command").choices["colour"]
    assert tuple(next(a for a in colour._actions if a.dest == "mode").choices) == COLOUR_MODES


def test_verify_and_diag_validate_the_instance(tmp_path, capsys):
    data = {"k": 2, "vertex_count": 3, "edges": [[0, 1], [1, 5]],
            "colour_universe": [0, 9], "lists": {"0": [1, 2], "1": [1, 2]}}
    inst = tmp_path / "out_of_range.json"
    inst.write_text(json.dumps(data))
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"complete": True, "colours": {"0": 1, "1": 2}}))
    capsys.readouterr()
    assert run(["verify", inst, col]) == 2
    assert "out-of-range vertex 5" in capsys.readouterr().err
    assert run(["diag", inst, "--trials", 5, "--L", 40, "--N", 20]) == 2
    assert "out-of-range vertex 5" in capsys.readouterr().err


def test_brute_and_polytope_validate_the_instance(tmp_path, capsys):
    out_of_range = {"k": 2, "vertex_count": 3, "edges": [[0, 1], [1, 5]],
                    "colour_universe": [0, 9], "lists": {"0": [1, 2], "1": [1, 2]}}
    nan_weight = {**out_of_range, "edges": [[0, 1], [1, 2]],
                  "lists": {"0": [{"colour": 1, "weight": math.nan}, 2], "1": [1, 2]}}
    inst = tmp_path / "bad.json"
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"0": 0.5, "1": 0.5}))
    capsys.readouterr()
    for data, reported in ((out_of_range, "out-of-range vertex 5"), (nan_weight, "weight nan")):
        inst.write_text(json.dumps(data))
        for argv in (["brute", inst], ["polytope", inst, vec]):
            assert run(argv) == 2
            assert reported in capsys.readouterr().err
    vec.write_text("[0.5, 0.5]")  # a vector that is not an object
    assert run(["polytope", _p3_instance(tmp_path), vec]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["nibble+finish", "finish-only", "brute"])
def test_colour_empty_list_exit_1_names_the_edge(tmp_path, capsys, mode):
    inst = _p3_instance(tmp_path, lists={0: [1, 2], 1: []})
    assert run(["colour", inst, "--mode", mode, "--out-prefix", tmp_path / "run"]) == 1
    assert "edge 1 has an empty list" in capsys.readouterr().err


# The commands that end in a colouring outcome, and the instances of the
# outcome table: P3 with lists {1, 2}, P3 with an empty list, P3 with both
# lists {1}, and the triangle with lists {1, 2}.
OUTCOME_COMMANDS = {
    "colour brute": ["colour", "{inst}", "--mode", "brute", "--out-prefix", "{tmp}/run"],
    "brute": ["brute", "{inst}"],
    "finish-only": ["colour", "{inst}", "--mode", "finish-only", "--out-prefix", "{tmp}/run"],
    "nibble+finish": ["colour", "{inst}", "--mode", "nibble+finish", "--out-prefix", "{tmp}/run"],
}
OUTCOME_INSTANCES = {
    "p3": ([(0, 1), (1, 2)], {0: [1, 2], 1: [1, 2]}),
    "empty": ([(0, 1), (1, 2)], {0: [1, 2], 1: []}),
    "one colour": ([(0, 1), (1, 2)], {0: [1], 1: [1]}),
    "k3": ([(0, 1), (0, 2), (1, 2)], {e: [1, 2] for e in range(3)}),
}
FOUND = '{\n  "colours": {\n    "0": 1,\n    "1": 2\n  },\n  "nodes": 3,\n  "status": "found"\n}\n'
EMPTY_LIST = "edge 1 has an empty list: proven unsatisfiable\n"


@pytest.mark.parametrize("command, instance, flags, code, out, err", [
    *[(command, "p3", [], 0, "", "") for command in ("colour brute", "finish-only", "nibble+finish")],
    ("brute", "p3", [], 0, FOUND, ""),
    *[(command, "empty", [], 1, "", EMPTY_LIST) for command in ("colour brute", "finish-only", "nibble+finish")],
    ("brute", "empty", [], 1, '{\n  "nodes": 1,\n  "status": "proven-unsatisfiable"\n}\n', ""),
    ("colour brute", "k3", [], 1, "", "brute force: proven unsatisfiable\n"),
    ("brute", "k3", [], 1, '{\n  "nodes": 5,\n  "status": "proven-unsatisfiable"\n}\n', ""),
    ("colour brute", "p3", ["--node-cap", "0"], 3, "", "brute force: node cap 0 exceeded\n"),
    ("brute", "p3", ["--node-cap", "0"], 3, '{\n  "nodes": 1,\n  "status": "cap-exceeded"\n}\n', ""),
    *[(command, "one colour", ["--iteration-cap", "0"], 3, "", "finisher exhausted its iteration cap (0)\n")
      for command in ("finish-only", "nibble+finish")],
    *[(command, "k3", [], 3, "", "finisher exhausted its iteration cap (300)\n") for command in ("finish-only", "nibble+finish")],
])
def test_each_outcome_has_one_exit_code_stdout_and_stderr(tmp_path, capsys, command, instance, flags, code, out, err):
    edges, lists = OUTCOME_INSTANCES[instance]
    inst = tmp_path / "inst.json"
    dump_instance(Instance(graph=LinearHypergraph.build(3, edges, k=2), lists=WeightedListAssignment.unit(lists),
                           sigma=EdgeCorrespondence(), universe=(0, 9)), inst)
    capsys.readouterr()
    assert run([a.format(inst=inst, tmp=tmp_path) for a in OUTCOME_COMMANDS[command]] + flags) == code
    assert capsys.readouterr() == (out, err)


# Shapes that instance_from_dict must turn into an InstanceError, each
# merged into an otherwise valid two-edge instance.
MALFORMED = {
    "list entry without colour": {"lists": {"0": [{"weight": 0.5}]}},
    "lists as an array": {"lists": [[1, 2]]},
    "list entry of a wrong type": {"lists": {"0": [[1]]}},
    "list key not an edge id": {"lists": {"x": [1]}},
    # An edge id written other than as a plain integer would alias edge 1 or 10.
    "list key 01": {"lists": {"0": [1, 2], "1": [1], "01": [2]}},
    "list key with a space": {"lists": {"0": [1, 2], " 1": [1, 2]}},
    "list key +1": {"lists": {"0": [1, 2], "+1": [1, 2]}},
    "list key 1_0": {"lists": {"0": [1, 2], "1": [1, 2], "1_0": [3]}},
    "sigma entry without e": {"sigma": [{"f": 1, "map": [[1, 2]]}]},
    "sigma entry of a wrong type": {"sigma": [[0, 1]]},
    "map item not a pair": {"sigma": [{"e": 0, "f": 1, "map": [[1]]}]},
    "map item of three": {"sigma": [{"e": 0, "f": 1, "map": [[1, 2], [1, 2, 3]]}]},
    "map item a number": {"sigma": [{"e": 0, "f": 1, "map": [[1, 2], 5]}]},
    "map item nested": {"sigma": [{"e": 0, "f": 1, "map": [[[1], 2]]}]},
    "map value not a number": {"sigma": [{"e": 0, "f": 1, "map": [[1, "x"]]}]},
    "map as an object": {"sigma": [{"e": 0, "f": 1, "map": {"12": 3}}]},
    # Numbers that JSON decodes to inf, which no integer conversion takes.
    # The string "1e400" is written as that bare number (`_json_text`).
    "k 1e400": {"k": "1e400"},
    "vertex_count Infinity": {"vertex_count": math.inf},
    "edge vertex Infinity": {"edges": [[0, 1], [1, math.inf]]},
    "universe bound 1e400": {"colour_universe": [0, "1e400"]},
    "list colour 1e400": {"lists": {"0": [1, "1e400"], "1": [1, 2]}},
    "list entry colour Infinity": {"lists": {"0": [{"colour": math.inf}], "1": [1, 2]}},
    "sigma edge id Infinity": {"sigma": [{"e": math.inf, "f": 1, "map": []}]},
    "map key Infinity": {"sigma": [{"e": 0, "f": 1, "map": [[math.inf, 1]]}]},
    "map value 1e400": {"sigma": [{"e": 0, "f": 1, "map": [[1, "1e400"]]}]},
    # Non-integral numbers where the format holds integers, which `int` and
    # `np.fromiter` would truncate.
    "k 2.5": {"k": 2.5},
    "edge vertex 1.5": {"edges": [[0, 1], [1.5, 2]]},
    "universe bound 9.5": {"colour_universe": [0, 9.5]},
    "list colour 1.9": {"lists": {"0": [1.9, 2], "1": [1, 2]}},
    "list entry colour 2.5": {"lists": {"0": [{"colour": 2.5}], "1": [1, 2]}},
    "sigma edge id 0.5": {"sigma": [{"e": 0.5, "f": 1, "map": []}]},
    "map entry 1.5 to 3.2": {"sigma": [{"e": 0, "f": 1, "map": [[1.5, 3.2]]}]},
    # `np.fromiter` reads null as NaN, where the format takes no null.
    "list entry weight null": {"lists": {"0": [{"colour": 1, "weight": None}], "1": [1, 2]}},
    # Strings where the format holds numbers, which `int`, `float` and
    # `np.fromiter` would parse ("12" as the colours 1 and 2).
    "list row a string": {"lists": {"0": "12", "1": [1, 2]}},
    "list entry colour a string": {"lists": {"0": [{"colour": "3"}], "1": [1, 2]}},
    "list entry weight a string": {"lists": {"0": [{"colour": 1, "weight": "0.5"}], "1": [1, 2]}},
    "list colour a string": {"lists": {"0": ["3", 2], "1": [1, 2]}},
    "edge a string": {"edges": ["01", [1, 2]]},
    "edge vertex a string": {"edges": [["0", 1], [1, 2]]},
    "k a string": {"k": "2"},
    "vertex_count a string": {"vertex_count": "3"},
    "universe bound a string": {"colour_universe": [0, "9"]},
    "sigma edge id a string": {"sigma": [{"e": "0", "f": 1, "map": []}]},
    "map entry of strings": {"sigma": [{"e": 0, "f": 1, "map": [["1", "2"]]}]},
    "map entry a string": {"sigma": [{"e": 0, "f": 1, "map": ["12"]}]},
}


def _json_text(data) -> str:
    """`data` as JSON, with every string "1e400" written as the number."""
    return json.dumps(data).replace('"1e400"', "1e400")


@pytest.mark.parametrize("command", ["colour", "verify", "brute"])
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_instance_shapes_exit_2(tmp_path, capsys, command, shape):
    data = {"k": 2, "vertex_count": 3, "edges": [[0, 1], [1, 2]], "colour_universe": [0, 9],
            "lists": {"0": [1, 2], "1": [1, 2]}, **MALFORMED[shape]}
    inst = tmp_path / "bad.json"
    inst.write_text(_json_text(data))
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"complete": True, "colours": {"0": 1, "1": 2}}))
    argv = {
        "colour": ["colour", inst, "--out-prefix", tmp_path / "run"],
        "verify": ["verify", inst, col],
        "brute": ["brute", inst],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    assert "malformed instance" in capsys.readouterr().err


# Colouring files that load_colouring must turn into an InstanceError.
MALFORMED_COLOURINGS = {
    "colours an array": {"colours": []},
    "colours null": {"colours": None},
    "colour 1e400": {"colours": {"0": "1e400", "1": 2}},
    "colour Infinity": {"colours": {"0": 1, "1": math.inf}},
    "colour 1.5": {"colours": {"0": 1.5, "1": 2}},
    # Colours follow the instance's integer rules: no string, nothing outside int64.
    "colour string 1": {"colours": {"0": "1", "1": 2}},
    "colour 2**70": {"colours": {"0": 2**70, "1": 2}},
    "colour -(2**63)-1": {"colours": {"0": -(2**63) - 1, "1": 2}},
    # An edge id written other than as a plain integer would alias edge 2 or 0.
    "edge id 02": {"colours": {"0": 1, "1": 2, "02": 1}},
    "edge id +1": {"colours": {"0": 1, "+1": 2}},
    "edge id 1.0": {"colours": {"0": 1, "1.0": 2}},
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_COLOURINGS))
def test_malformed_colouring_shapes_exit_2(tmp_path, capsys, shape):
    col = tmp_path / "col.json"
    col.write_text(_json_text({"complete": True, **MALFORMED_COLOURINGS[shape]}))
    argv = ["verify", _p3_instance(tmp_path), col]
    capsys.readouterr()
    assert run(argv) == 2
    assert "input error: cannot read colouring" in capsys.readouterr().err


# Every command that loads an instance, with the arguments after the
# instance path; `verify` gets a colouring that is valid for P3.
LOADING_COMMANDS = {
    "colour nibble+finish": ["colour", "{inst}", "--mode", "nibble+finish", "--out-prefix", "{tmp}/run"],
    "colour finish-only": ["colour", "{inst}", "--mode", "finish-only", "--out-prefix", "{tmp}/run"],
    "colour brute": ["colour", "{inst}", "--mode", "brute", "--out-prefix", "{tmp}/run"],
    "verify": ["verify", "{inst}", "{tmp}/col.json"],
    "brute": ["brute", "{inst}"],
    "diag": ["diag", "{inst}", "--trials", "5", "--L", "40", "--N", "20"],
}


def _run_loading(command, tmp_path, data):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    (tmp_path / "col.json").write_text(json.dumps({"complete": True, "colours": {"0": 1, "1": 2}}))
    return run([a.format(inst=inst, tmp=tmp_path) for a in LOADING_COMMANDS[command]])


P3 = {"k": 2, "vertex_count": 3, "edges": [[0, 1], [1, 2]], "colour_universe": [0, 9],
      "lists": {"0": [1, 2], "1": [1, 2]}}

# Integers outside int64 in each place an instance can hold a colour; all
# but the first keep the universe of P3, so that loading, not the universe
# check, must reject them.
OUT_OF_INT64 = {
    "list colour and universe": {"colour_universe": [0, 2**70], "lists": {"0": [1, 2**65], "1": [1, 2]}},
    "list colour": {"lists": {"0": [1, 2**65], "1": [1, 2]}},
    "negative list colour": {"lists": {"0": [1, 2], "1": [-(2**64), 2]}},
    "map key": {"sigma": [{"e": 0, "f": 1, "map": [[2**65, 1]]}]},
    "map value": {"sigma": [{"e": 0, "f": 1, "map": [[1, 2**65]]}]},
    "universe bound": {"colour_universe": [0, 2**70]},
    "sigma edge id": {"sigma": [{"e": 2**64, "f": 1, "map": []}]},
}


@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
@pytest.mark.parametrize("place", sorted(OUT_OF_INT64))
def test_integers_outside_int64_exit_2(tmp_path, capsys, command, place):
    capsys.readouterr()
    assert _run_loading(command, tmp_path, {**P3, **OUT_OF_INT64[place]}) == 2
    assert "outside the int64 range" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_exit_2(tmp_path, capsys, command, k):
    capsys.readouterr()
    assert _run_loading(command, tmp_path, {"k": k, "vertex_count": 3, "edges": [], "lists": {}}) == 2
    assert f"uniformity k = {k} is below 1" in capsys.readouterr().err


# Files that no JSON decoder reads: nesting deeper than the decoder
# recurses, and a byte that is not UTF-8.
UNREADABLE = {
    "nested 100,000 deep": b"[" * 100_000 + b"]" * 100_000,
    "byte 0xff in a string": b'{"k": "\xff"}',
}
READING_AN_INSTANCE = {**LOADING_COMMANDS, "polytope": ["polytope", "{inst}", "{tmp}/vec.json"]}


@pytest.mark.parametrize("command", sorted(READING_AN_INSTANCE))
@pytest.mark.parametrize("content", sorted(UNREADABLE))
def test_unreadable_instance_exits_2(tmp_path, capsys, command, content):
    inst = tmp_path / "inst.json"
    inst.write_bytes(UNREADABLE[content])
    (tmp_path / "col.json").write_text(json.dumps({"complete": True, "colours": {"0": 1, "1": 2}}))
    (tmp_path / "vec.json").write_text(json.dumps({"0": 0.5, "1": 0.5}))
    capsys.readouterr()
    assert run([a.format(inst=inst, tmp=tmp_path) for a in READING_AN_INSTANCE[command]]) == 2
    assert "input error: cannot read instance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "polytope"])
def test_too_deeply_nested_colouring_or_vector_exits_2(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_bytes(UNREADABLE["nested 100,000 deep"])
    capsys.readouterr()
    assert run([command, _p3_instance(tmp_path), deep]) == 2
    assert "input error" in capsys.readouterr().err


# Child process that runs `main` on its arguments after the first, with its
# address space capped at the first (bytes), so that a cost that grows with
# vertex_count, k or the universe fails fast instead of filling memory.
_CAPPED_CHILD = """
import resource, sys
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from nibble_colour.cli import main
sys.exit(main(sys.argv[2:]))
"""
_CAP = str(2 << 30)


@pytest.mark.parametrize("argv", [
    ["colour", "{inst}", "--mode", "nibble+finish", "--out-prefix", "{tmp}/run"],
    ["colour", "{inst}", "--mode", "finish-only", "--out-prefix", "{tmp}/run"],
    ["verify", "{inst}", "{tmp}/col.json"],
    ["polytope", "{inst}", "{tmp}/vec.json"],
], ids=["nibble+finish", "finish-only", "verify", "polytope"])
def test_cost_does_not_grow_with_unused_vertices(tmp_path, argv):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({**P3, "vertex_count": 10**9}))
    (tmp_path / "col.json").write_text(json.dumps({"complete": True, "colours": {"0": 1, "1": 2}}))
    (tmp_path / "vec.json").write_text(json.dumps({"0": 0.5, "1": 0.5}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, _CAP, *(a.format(inst=inst, tmp=tmp_path) for a in argv)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr


# One child per command under a 512 MB address-space cap, on a star: every
# edge at vertex 0, each listing colours 0 to `colours` - 1.
# - nibble+finish: one stored map (edges 0 and 1 shift their colours by
#   one) makes the round structure write its members out, and their keys,
#   2,000 x 1,999 x 20 int64 (610 MiB), do not fit: one allocation fails.
# - finish-only and diag: the command's own work runs out, in the
#   finisher's resample loop and diag's survival flags per trial.  The loop
#   fills the cap a little at a time, so printing the line needs the memory
#   that the command's frames held.
# - verify, brute and polytope: validating the instance runs out, since
#   their own work (verify builds only the ten violations it prints, the
#   search, the Gomory-Hu tree) fits the cap or takes seconds to fill it.
@pytest.mark.parametrize("edges, colours, shift, argv", [
    (2000, 20, True, ["colour", "{inst}", "--out-prefix", "{tmp}/run"]),
    (2000, 2, False, ["colour", "{inst}", "--mode", "finish-only", "--out-prefix", "{tmp}/run"]),
    # The round structure of this star fits the cap, and the trials are drawn a
    # chunk at a time; the survival flags of 100,000 trials (572 MiB) do not fit.
    (3000, 2, False, ["diag", "{inst}", "--trials", "100000", "--L", "40", "--N", "20"]),
    (6000, 2, False, ["verify", "{inst}", "{tmp}/col.json"]),
    (6000, 2, False, ["brute", "{inst}"]),
    (6000, 2, False, ["polytope", "{inst}", "{tmp}/vec.json"]),
], ids=["nibble+finish", "finish-only", "diag", "verify", "brute", "polytope"])
def test_running_out_of_memory_exits_4(tmp_path, edges, colours, shift, argv):
    inst = tmp_path / "star.json"
    sigma = [{"e": 0, "f": 1, "map": [[c, (c + 1) % colours] for c in range(colours)]}] if shift else []
    inst.write_text(json.dumps({"k": 2, "vertex_count": edges + 1, "edges": [[0, v] for v in range(1, edges + 1)],
                                "colour_universe": [0, colours - 1],
                                "lists": {str(e): list(range(colours)) for e in range(edges)}, "sigma": sigma}))
    (tmp_path / "col.json").write_text(json.dumps({"complete": True, "colours": {str(e): 0 for e in range(edges)}}))
    (tmp_path / "vec.json").write_text(json.dumps({str(e): 1 / edges for e in range(edges)}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, str(512 << 20), *(a.format(inst=inst, tmp=tmp_path) for a in argv)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("resource limit: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "run.colouring.json").exists()


# Every output that a command writes, in a directory that does not exist.
MISSING_DIRECTORY = {
    "colour": ["colour", "{inst}", "--out-prefix", "{tmp}/nosuch/run"],
    "gen": ["gen", "--kind", "regular", "--n", "20", "--d", "4", "--out", "{tmp}/nosuch/inst.json"],
    "schedule": ["schedule", "--eps", "0.25", "--k", "2", "--delta", "1e13", "--out", "{tmp}/nosuch/s.csv"],
    "diag --out": ["diag", "{inst}", "--trials", "2", "--out", "{tmp}/nosuch/d.json"],
    "diag --csv": ["diag", "{inst}", "--trials", "2", "--csv", "{tmp}/nosuch/raw.csv"],
}


@pytest.mark.parametrize("command", sorted(MISSING_DIRECTORY))
def test_an_output_in_a_missing_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    inst = _p3_instance(tmp_path)
    for work in ("load_instance", "generate", "simulate_schedule"):
        monkeypatch.setattr(cli, work, _refuse)
    capsys.readouterr()
    assert run([a.format(inst=inst, tmp=tmp_path) for a in MISSING_DIRECTORY[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "no directory" in err and err.count("\n") == 1, err
    assert not (tmp_path / "nosuch").exists()


@pytest.mark.parametrize("error, code, line", [
    (errno.ENOSPC, 4, "resource limit: "),
    (errno.EDQUOT, 4, "resource limit: "),
    (errno.EACCES, 2, "input error: "),
    (errno.EISDIR, 2, "input error: "),
])
def test_a_write_that_fails_exits_by_its_error(tmp_path, capsys, monkeypatch, error, code, line):
    def fail(*_args, **_kwargs):
        raise OSError(error, os.strerror(error))

    monkeypatch.setattr(cli, "dump_colouring", fail)
    inst = _p3_instance(tmp_path)
    capsys.readouterr()
    assert run(["colour", inst, "--mode", "finish-only", "--eps", 0.25, "--out-prefix", tmp_path / "run"]) == code
    err = capsys.readouterr().err
    assert err == f"{line}[Errno {error}] {os.strerror(error)}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="writes to a full device")
def test_a_full_device_exits_4(capsys):
    assert run(["schedule", "--eps", 0.25, "--k", 2, "--delta", 1e13, "--out", "/dev/full"]) == 4
    assert capsys.readouterr().err.startswith("resource limit: [Errno 28]")


# A valid instance of huge uniformity: without edges nothing may be shaped by k.
@pytest.mark.parametrize("argv, code", [
    (["colour", "{inst}", "--mode", "nibble+finish", "--out-prefix", "{tmp}/run"], 0),
    (["colour", "{inst}", "--mode", "finish-only", "--out-prefix", "{tmp}/run"], 0),
    (["diag", "{inst}", "--trials", "3"], 2),  # derived L = 0: no parameters
    (["diag", "{inst}", "--trials", "3", "--L", "40", "--N", "20"], 0),
], ids=["nibble+finish", "finish-only", "diag", "diag L N"])
def test_huge_k_without_edges_allocates_nothing_shaped_by_k(tmp_path, argv, code):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"k": 2**62, "vertex_count": 3, "edges": [], "lists": {}}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, _CAP, *(a.format(inst=inst, tmp=tmp_path) for a in argv)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


_MODULES_CHILD = """
import json, sys
from nibble_colour.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


def _modules_after_colour(tmp_path, inst, mode) -> set[str]:
    """The modules loaded by a child process that ran `colour` on inst."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, "colour", str(inst), "--mode", mode, "--out-prefix", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


# Colours spread over int64: keys of (pair, colour) cannot be offsets from
# the smallest colour, so `PairIndex` ranks the distinct colours.
@pytest.mark.parametrize("mode", ["nibble+finish", "finish-only"])
def test_colour_leaves_numpy_ma_unimported(tmp_path, mode):
    big = 1 << 62
    inst = tmp_path / "wide.json"
    inst.write_text(json.dumps({
        **P3, "colour_universe": [-(1 << 63), (1 << 63) - 1],
        "lists": {"0": [-big, 0, big], "1": [-big, 0, big]},
        "sigma": [{"e": 0, "f": 1, "map": [[-big, big], [0, 0], [big, -big]]}],
    }))
    assert "numpy.ma" not in _modules_after_colour(tmp_path, inst, mode)


# networkx costs about 17 MB of resident memory; only `gen` and `polytope`
# import it.
@pytest.mark.parametrize("mode", ["nibble+finish", "finish-only"])
def test_colour_leaves_networkx_unimported(tmp_path, mode):
    inst = tmp_path / "p3.json"
    inst.write_text(json.dumps(P3))
    assert "networkx" not in _modules_after_colour(tmp_path, inst, mode)


def test_k_one_nibble_stops_and_the_finisher_colours(tmp_path):
    """k = 1: the nibble is not defined, so drive stops at once and the
    finisher colours the instance."""
    from nibble_colour.nibble import drive

    data = {"k": 1, "vertex_count": 1, "edges": [[0]] * 12, "colour_universe": [1, 20],
            "lists": {str(e): list(range(1, 21)) for e in range(12)}}
    inst = tmp_path / "k1.json"
    inst.write_text(json.dumps(data))
    assert run(["colour", inst, "--mode", "nibble+finish", "--out-prefix", tmp_path / "run"]) == 0
    assert run(["verify", inst, tmp_path / "run.colouring.json"]) == 0
    loaded = load_instance(inst)
    result = drive(loaded.graph, loaded.lists, loaded.sigma, eps=0.25, seed=0)
    assert result.stop_reason == "k-below-2" and not result.colouring and not result.trace


def test_verify_detects_block_and_unknown_edge(tmp_path):
    inst = _p3_instance(tmp_path)
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"complete": True, "colours": {"0": 1, "1": 1}}))
    assert run(["verify", inst, col]) == 1
    col.write_text(json.dumps({"complete": True, "colours": {"9": 1}}))
    assert run(["verify", inst, col]) == 2
    col.write_text("oops")
    assert run(["verify", inst, col]) == 2


def test_verify_prints_ten_violations_and_their_count(tmp_path, capsys):
    """A 200-edge star coloured 0, 1, 0, 1, ...: 9,900 blocked pairs."""
    edges = 200
    inst = tmp_path / "star.json"
    inst.write_text(json.dumps({"k": 2, "vertex_count": edges + 1, "edges": [[0, v] for v in range(1, edges + 1)],
                                "colour_universe": [0, 1], "lists": {str(e): [0, 1] for e in range(edges)}}))
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"complete": True, "colours": {str(e): e % 2 for e in range(edges)}}))
    capsys.readouterr()
    assert run(["verify", inst, col]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 11 and lines[-1] == "9900 violations in total"


def _star_files(tmp_path, edges: int, colours: dict) -> tuple[Path, Path]:
    inst, col = tmp_path / "star.json", tmp_path / "col.json"
    inst.write_text(json.dumps({"k": 2, "vertex_count": edges + 1, "edges": [[0, v] for v in range(1, edges + 1)],
                                "colour_universe": [0, 1], "lists": {str(e): [0, 1] for e in range(edges)}}))
    col.write_text(json.dumps({"complete": True, "colours": {str(e): c for e, c in colours.items()}}))
    return inst, col


def test_verify_builds_only_the_violations_it_prints(tmp_path, capsys, monkeypatch):
    """The CI's 2,000-edge star coloured 0, 1, 0, 1, ...: 999,000 blocked
    pairs, counted from the arrays; the output is the one the command gave
    when it built every violation."""
    import nibble_colour.core as core

    built = []

    class Counted(core.Violation):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(core, "Violation", Counted)
    inst, col = _star_files(tmp_path, 2000, {e: e % 2 for e in range(2000)})
    capsys.readouterr()
    assert run(["verify", inst, col]) == 1
    out, err = capsys.readouterr()
    expected = [f"[blocking] (0,0) blocks ({2 * i},0)" for i in range(1, 11)] + ["999000 violations in total"]
    assert out == "" and err == "".join(f"{line}\n" for line in expected)
    assert len(built) == 10


def test_verify_counts_list_unknown_and_blocking_violations_past_the_first_ten(tmp_path, capsys):
    """Twelve edges coloured off their lists and an unknown edge after
    them: the first ten printed are those of `validate_colouring`, the count
    is its length, and the unknown edge past the first ten still exits 2."""
    colours = {e: 5 if e < 12 else e % 2 for e in range(40)} | {900: 0}
    inst, col = _star_files(tmp_path, 40, colours)
    loaded = load_instance(inst)
    full = validate_colouring(loaded.graph, loaded.lists, loaded.sigma, colours)
    assert [v.kind for v in full[10:13]] == ["list", "list", "unknown-edge"]
    capsys.readouterr()
    assert run(["verify", inst, col]) == 2
    assert capsys.readouterr().err.splitlines() == [*map(str, full[:10]), f"{len(full)} violations in total"]
    assert first_violations(loaded.graph, loaded.lists, loaded.sigma, colours, 0) == ([], len(full))
    assert first_violations(loaded.graph, loaded.lists, loaded.sigma, colours) == (full, len(full))


def test_brute_colours_a_long_matching(tmp_path, capsys):
    """1,500 disjoint edges, each listing colour 0 alone: the search goes
    1,500 edges deep, past Python's recursion limit."""
    edges = 1500
    inst = tmp_path / "matching.json"
    inst.write_text(json.dumps({"k": 2, "vertex_count": 2 * edges, "edges": [[2 * e, 2 * e + 1] for e in range(edges)],
                                "colour_universe": [0, 0], "lists": {str(e): [0] for e in range(edges)}}))
    capsys.readouterr()
    assert run(["brute", inst]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "found" and payload["nodes"] == edges + 1


def test_brute_command(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    assert run(["brute", inst]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "found"


def test_brute_negative_node_cap_exit_2(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    capsys.readouterr()
    assert run(["brute", inst, "--node-cap", "-5"]) == 2
    captured = capsys.readouterr()
    assert "input error: --node-cap must be >= 0, got -5" in captured.err and not captured.out


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_monotone_ratio(tmp_path, capsys):
    assert run(["schedule", "--eps", "0.25", "--k", 2, "--delta", "1e13"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "round,L,N,ratio"
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 3 * math.e * 2


def test_schedule_growth_factor(tmp_path, capsys):
    assert run(["schedule", "--eps", "0.25", "--k", 2, "--delta", "1e13"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    rows = [tuple(float(x) for x in line.split(",")) for line in lines]
    for (r0, L0, N0, ratio0), (r1, L1, N1, ratio1) in zip(rows, rows[1:]):
        assert ratio1 >= ratio0 * (1 + 0.25 / (16 * math.log(N0)))


def test_schedule_eps2_mode(capsys):
    # the eps2 variant improves the ratio more slowly: at delta=1e13 it
    # collapses before reaching 3ek, while at 1e14 it completes
    assert run(["schedule", "--eps", "0.25", "--k", 2, "--delta", "1e13", "--mode", "eps2"]) == 3
    capsys.readouterr()
    assert run(["schedule", "--eps", "0.25", "--k", 2, "--delta", "1e14", "--mode", "eps2"]) == 0
    lines_eps2 = capsys.readouterr().out.strip().splitlines()
    assert run(["schedule", "--eps", "0.25", "--k", 2, "--delta", "1e14"]) == 0
    lines_eps8 = capsys.readouterr().out.strip().splitlines()
    assert lines_eps2[1] == lines_eps8[1]  # round 0 state agrees
    assert lines_eps2[2] != lines_eps8[2]  # recursion differs from round 1
    assert float(lines_eps2[-1].split(",")[3]) >= 3 * math.e * 2


def test_schedule_exp51_mode_matches_library(capsys):
    assert run(["schedule", "--eps", "0.25", "--k", 2, "--delta", "1e13", "--mode", "exp51"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = simulate_schedule(0.25, 2, 1e13, mode="exp51")
    assert lines == ["round,L,N,ratio"] + [f"{r.round},{r.L!r},{r.N!r},{r.ratio!r}" for r in rows]
    assert rows != simulate_schedule(0.25, 2, 1e13, mode="eps8")


def test_schedule_collapse_exit_3(capsys):
    assert run(["schedule", "--eps", "0.25", "--k", 2, "--delta", 100]) == 3
    assert "collapse" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--eps", "0"],
    ["--eps", "nan"],
    ["--eps", "0.3"],
    ["--delta", "inf"],
    ["--delta", "nan"],
    ["--k", "0"],
])
def test_schedule_flags_outside_their_domain_exit_2(capsys, flags):
    argv = {"--eps": "0.25", "--k": "2", "--delta": "1e13"}
    argv.update(zip(flags[::2], flags[1::2]))
    assert run(["schedule", *[word for item in argv.items() for word in item]]) == 2
    captured = capsys.readouterr()
    assert f"input error: {flags[0]}" in captured.err and not captured.out


@pytest.mark.parametrize("eps, k", [(0.25, 10**330), (0.25, 10**307), (5e-324, 2)],
                         ids=["k beyond float", "infinite cap from k", "infinite cap from eps"])
def test_schedule_beyond_the_float_range_exit_2(capsys, eps, k):
    assert run(["schedule", "--eps", eps, "--k", k, "--delta", "1e13"]) == 2
    captured = capsys.readouterr()
    assert "input error: " in captured.err and "beyond the float range" in captured.err and not captured.out
    with pytest.raises(ParameterDomainError):
        simulate_schedule(eps, k, 1e13)


def test_schedule_out_file(tmp_path):
    out = tmp_path / "trace.csv"
    assert run(["schedule", "--eps", "0.25", "--k", 2, "--delta", "1e13", "--out", out]) == 0
    assert out.read_text().startswith("round,L,N,ratio")
    assert (tmp_path / "trace.csv.manifest.json").exists()


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------


def test_polytope_triangle_half_vector(tmp_path, capsys):
    graph = LinearHypergraph.build(3, [(0, 1), (0, 2), (1, 2)], k=2)
    inst = Instance(graph=graph, lists=WeightedListAssignment.unit({e: [0, 1] for e in range(3)}),
                    sigma=EdgeCorrespondence(), universe=(0, 3))
    gpath = tmp_path / "triangle.json"
    dump_instance(inst, gpath)
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"0": 0.5, "1": 0.5, "2": 0.5}))
    assert run(["polytope", gpath, vec]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["inside"] is False and verdict["witness"]["kind"] == "odd-set"
    vec.write_text(json.dumps({"0": 1.0, "1": 0.0, "2": 0.0}))
    assert run(["polytope", gpath, vec]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["inside"] is True


def test_polytope_25_vertices_exit_0(tmp_path, capsys):
    graph = LinearHypergraph.build(25, [(0, 1)], k=2)
    inst = Instance(graph=graph, lists=WeightedListAssignment.unit({0: [0]}),
                    sigma=EdgeCorrespondence(), universe=(0, 3))
    gpath = tmp_path / "big.json"
    dump_instance(inst, gpath)
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"0": 0.5}))
    assert run(["polytope", gpath, vec]) == 0
    assert json.loads(capsys.readouterr().out) == {"inside": True, "witness": None}


@pytest.mark.parametrize("vector", [
    '{"0": NaN, "1": 0.5}',
    '{"0": Infinity, "1": 0.5}',
    '{"0": 0.5, "1": 0.5, "7": 0.5}',
    '{"0": 0.5, "1": 0.5, "01": 0.0}',
    '{"0": 0.5, " 1": 0.5}',
    '{"0": 0.5, "1": true}',
    '{"0": 0.5, "1": "0.5"}',
    '{"0": 0.5, "1": 1%s}' % ("0" * 400),
], ids=["NaN", "Infinity", "unknown edge 7", "edge id 01", "edge id with a space", "true", "string",
        "an integer beyond float"])
def test_polytope_non_finite_or_unknown_entry_exits_2(tmp_path, capsys, vector):
    vec = tmp_path / "vec.json"
    vec.write_text(vector)
    capsys.readouterr()
    assert run(["polytope", _p3_instance(tmp_path), vec]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and captured.out == ""


def test_polytope_edge_id_02_does_not_alias_edge_2(tmp_path, capsys):
    graph = LinearHypergraph.build(3, [(0, 1), (0, 2), (1, 2)], k=2)
    inst = Instance(graph=graph, lists=WeightedListAssignment.unit({e: [0, 1] for e in range(3)}),
                    sigma=EdgeCorrespondence(), universe=(0, 3))
    gpath = tmp_path / "triangle.json"
    dump_instance(inst, gpath)
    vec = tmp_path / "vec.json"
    vec.write_text('{"0": 0.5, "1": 0.5, "2": 0.5, "02": 0.0}')
    capsys.readouterr()
    assert run(["polytope", gpath, vec]) == 2
    captured = capsys.readouterr()
    assert "edge id '02' is not written as a plain integer" in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------


def test_diag_zero_trials_exit_2(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    assert run(["diag", inst, "--trials", 0]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--seed", 2**64],
    ["--seed", -(2**63) - 1],
    ["--L", "nan"],
    ["--N", "inf"],
    ["--eps", "nan"],
])
def test_diag_flags_outside_their_domain_exit_2(tmp_path, capsys, flags):
    inst = _p3_instance(tmp_path)
    assert run(["diag", inst, "--trials", 5, "--L", 40, "--N", 20, *flags]) == 2
    captured = capsys.readouterr()
    assert f"input error: {flags[0]}" in captured.err and not captured.out


def test_diag_reports_json(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    assert run(["diag", inst, "--trials", 50, "--seed", 1, "--L", 40, "--N", 20]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 50
    assert report["exact_available"] is True
    for edge in report["edges"]:
        assert edge["exact"] == pytest.approx(edge["theoretical"], abs=1e-9)


def test_diag_raw_csv(tmp_path, capsys):
    inst = _p3_instance(tmp_path)
    raw = tmp_path / "raw.csv"
    assert run(["diag", inst, "--trials", 8, "--seed", 2, "--L", 40, "--N", 20, "--csv", raw]) == 0
    capsys.readouterr()
    lines = raw.read_text().strip().splitlines()
    assert lines[0] == "trial,edge,surviving_weight"
    assert len(lines) == 1 + 8 * 2  # trials x edges


@pytest.mark.parametrize("out", [True, False], ids=["--out and --csv", "--csv alone"])
def test_diag_csv_is_listed_in_a_manifest(tmp_path, out):
    raw, report = tmp_path / "raw.csv", tmp_path / "d.json"
    flags = ["--out", report] if out else []
    assert run(["diag", _p3_instance(tmp_path), "--trials", 4, "--L", 40, "--N", 20, *flags, "--csv", raw]) == 0
    manifest = json.loads(Path(f"{report if out else raw}.manifest.json").read_text())
    assert manifest["outputs"] == sorted([str(raw), str(report)] if out else [str(raw)])
    assert manifest["parameters"]["csv"] == str(raw)


def test_threads_before_or_after_the_command_reach_the_manifest(tmp_path):
    inst = _p3_instance(tmp_path)
    for argv, threads in [
        (["--threads", 3, "colour", inst], 3),
        (["colour", inst, "--threads", 2], 2),
        (["--threads", 3, "colour", inst, "--threads", 2], 2),  # the later one wins
    ]:
        assert run([*argv, "--out-prefix", tmp_path / "run"]) == 0
        assert json.loads((tmp_path / "run.manifest.json").read_text())["parameters"]["threads"] == threads


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NIBBLE_COLOUR_THREADS", "3")
    inst = _p3_instance(tmp_path)
    assert run(["diag", inst, "--trials", 5, "--L", 40, "--N", 20]) == 0
    monkeypatch.setenv("NIBBLE_COLOUR_THREADS", "junk")
    assert run(["diag", inst, "--trials", 5, "--L", 40, "--N", 20]) == 0
