import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nibble_colour import instance_io
from nibble_colour.cli import main
from nibble_colour.core import (
    EdgeCorrespondence,
    InstanceError,
    LinearHypergraph,
    WeightedListAssignment,
    segment_ranges,
)
from nibble_colour.finisher import ResampleLog
from nibble_colour.instance_io import (
    Instance,
    colouring_to_dict,
    dump_colouring,
    dump_finish_log,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_colouring,
    load_instance,
)
from conftest import pair_table
from oracles import entry_instance


def _sample_instance() -> Instance:
    graph = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    lists = WeightedListAssignment.build({0: [1, 2], 1: [2, 3]}, {(0, 1): 0.5, (0, 2): 1.0, (1, 2): 1.0, (1, 3): 0.25})
    sigma = EdgeCorrespondence(maps={(0, 1): {1: 3, 2: 2}})
    return Instance(graph=graph, lists=lists, sigma=sigma, universe=(0, 5))


def test_instance_round_trip(tmp_path):
    inst = _sample_instance()
    path = tmp_path / "inst.json"
    dump_instance(inst, path)
    back = load_instance(path)
    assert back.graph.edges == inst.graph.edges
    assert back.graph.k == 2 and back.graph.vertex_count == 3
    for name in ("edges", "edge_ptr", "colour_of", "mu"):
        a, b = getattr(back.lists, name), getattr(inst.lists, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert (back.sigma.pair_e.tolist(), back.sigma.pair_f.tolist()) == ([0], [1])
    assert back.sigma.map_for(0, 1) == {1: 3, 2: 2}
    assert back.universe == (0, 5)


def test_weights_default_to_one():
    data = {
        "k": 2,
        "vertex_count": 2,
        "edges": [[0, 1]],
        "colour_universe": [0, 3],
        "lists": {"0": [{"colour": 2}, 3]},
    }
    inst = instance_from_dict(data)
    assert inst.lists.weight(0, 2) == 1.0
    assert inst.lists.weight(0, 3) == 1.0


def test_malformed_instance(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InstanceError):
        load_instance(path)
    path.write_text(json.dumps({"k": 2}))
    with pytest.raises(InstanceError):
        load_instance(path)
    with pytest.raises(InstanceError):
        instance_from_dict({"k": 2, "vertex_count": 2, "edges": [[0, 1]], "lists": {"7": [1]}})


def test_integral_numbers_with_a_fraction_load_as_integers(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(
        '{"k": 2.0, "vertex_count": 3e0, "edges": [[0.0, 1], [1, 2.0]], "colour_universe": [0, 5.0],'
        ' "lists": {"0": [1.0, {"colour": 2e0, "weight": 0.5}], "1": [2, 3]},'
        ' "sigma": [{"e": 0.0, "f": 1, "map": [[1.0, 3], [2.0, 2e0]]}]}'
    )
    inst = load_instance(path)
    assert (inst.graph.k, inst.graph.vertex_count, inst.graph.edges, inst.universe) == (2, 3, ((0, 1), (1, 2)), (0, 5))
    assert pair_table(inst.lists) == ([0, 1], [0, 2, 4], [1, 2, 2, 3], [1.0, 0.5, 1.0, 1.0])
    assert inst.sigma.map_for(0, 1) == {1: 3, 2: 2}


def test_colouring_round_trip(tmp_path):
    path = tmp_path / "col.json"
    dump_colouring({0: 1, 1: 3}, True, path)
    colouring, complete = load_colouring(path)
    assert complete and colouring == {0: 1, 1: 3}
    path.write_text("[]")
    with pytest.raises(InstanceError):
        load_colouring(path)


# -- the writers against `json.dumps` of the dict forms --------------------


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_INT = st.integers(-3, 12) | st.sampled_from([-(2**63), 2**63 - 1])
_WEIGHT = st.sampled_from([1.0, 1 / 3, 0.1 + 0.2, 1e-05, 5e-324, math.nan, math.inf, -math.inf, 1e16]) | st.floats()


@st.composite
def _instances(draw) -> Instance:
    """Tables of any content the writer may meet, valid or not: edges of
    any length, lists on any edge ids (up to 40, so that string and
    numeric order differ), empty lists, and maps, empty ones included,
    that may be stored for (e, f) and (f, e) both."""
    k = draw(st.integers(1, 3) | st.just(2**62))
    edges = draw(st.lists(st.lists(_INT, max_size=3), max_size=14))
    listed = sorted(draw(st.sets(st.integers(0, 40), max_size=12)))
    pairs = draw(st.lists(st.tuples(st.sampled_from(listed), _INT, _WEIGHT), max_size=30)) if listed else []
    items = draw(st.lists(
        st.tuples(st.integers(0, 3) | _INT, st.integers(0, 3), st.lists(st.tuples(_INT, _INT), max_size=4)),
        max_size=6,
    ))
    return Instance(
        graph=LinearHypergraph.build(draw(_INT | st.integers(0, 50)), edges, k=k),
        lists=WeightedListAssignment.from_pairs(listed, *zip(*pairs)) if pairs else
        WeightedListAssignment.from_pairs(listed, [], [], []),
        sigma=EdgeCorrespondence.from_items(
            np.array([e for e, _, _ in items], dtype=np.int64), np.array([f for _, f, _ in items], dtype=np.int64),
            np.array([len(m) for _, _, m in items], dtype=np.int64),
            np.array([c for _, _, m in items for c, _ in m], dtype=np.int64),
            np.array([d for _, _, m in items for _, d in m], dtype=np.int64),
        ),
        universe=(draw(_INT), draw(_INT)),
    )


@given(_instances())
@settings(max_examples=300, deadline=None)
def test_dump_instance_writes_the_json_dumps_text(tmp_path_factory, inst):
    path = tmp_path_factory.mktemp("dump") / "inst.json"
    dump_instance(inst, path)
    assert path.read_text() == _reference(instance_to_dict(inst))


@given(st.dictionaries(st.integers(-1, 40) | _INT, _INT, max_size=20), st.booleans())
@settings(max_examples=200, deadline=None)
def test_dump_colouring_writes_the_json_dumps_text(tmp_path_factory, colours, complete):
    path = tmp_path_factory.mktemp("dump") / "colouring.json"
    dump_colouring(colours, complete, path)
    assert path.read_text() == _reference(colouring_to_dict(colours, complete))


@given(st.integers(0, 2**40), st.lists(st.tuples(_INT, _INT, _INT, _INT), max_size=20),
       st.sampled_from(["success", "cap-exhausted"]))
@settings(max_examples=100, deadline=None)
def test_dump_finish_log_writes_the_json_dumps_text(tmp_path_factory, iterations, resampled, outcome):
    log = ResampleLog(iterations=iterations, resampled=resampled, outcome=outcome)
    path = tmp_path_factory.mktemp("dump") / "finish.json"
    dump_finish_log(log, path)
    assert path.read_text() == _reference(log.to_dict())


# Small instances of every generator kind; the goldens cover unit weights only.
_GEN = {
    "regular": ["--n", 12, "--d", 3],
    "bipartite": ["--n", 6, "--n2", 7, "--p", "0.5"],
    "random": ["--n", 14, "--p", "0.3"],
    "linear": ["--n", 30, "--k", 3, "--m", 20],
}


@pytest.mark.parametrize("weights", ["unit", "degree"])
@pytest.mark.parametrize("kind", sorted(_GEN))
def test_gen_writes_the_json_dumps_text(tmp_path, kind, weights):
    out = tmp_path / "inst.json"
    argv = ["gen", "--kind", kind, *_GEN[kind], "--weights", weights, "--seed", 3, "--out", out]
    assert main([str(a) for a in argv]) == 0
    inst = load_instance(out)
    assert inst.graph.edge_count > 10
    assert out.read_text() == _reference(instance_to_dict(inst))


# SHA-256 of the instance `gen` writes for each case above at --seed 3, and
# of `gen --kind regular --n 800 --d 32 --eps 0.5 --seed 7`, whose lists take
# several draw blocks; recorded with numpy 2.4.6 and networkx 3.6.1 before
# the lists and graphs were drawn in array blocks.
_GEN_SHA256 = {
    ("bipartite", "unit"): "2836da3c02fab736ef98e222a473da18fb8368d2a9392663f3849f6cd22149ea",
    ("bipartite", "degree"): "b7e626c3377917de9de90f6c83732aa57a8849d4af715870117661067ed1d1f1",
    ("linear", "unit"): "bb5abfb548c8ff91665888276116a07ce7b02ff0be3e26c007d1f1e104719979",
    ("linear", "degree"): "ae9976c05c71f327d12d3296f092e6bc056e6b3dad40f83a776b6ff674f17c1d",
    ("random", "unit"): "18a6593fd93161fc264205fd971dec3aaf78a25c22c3e8e8b63b5c1d17cd635d",
    ("random", "degree"): "12fbd20b78f1b3002030105d8e08b905fc2536c71327b47707aca91065fd7106",
    ("regular", "unit"): "3d3ef6727ae6c2a7740867239585da3d08fa764f32136dd208de45860648e7c6",
    ("regular", "degree"): "f18577d8d80a1bfc29f63fde4056ea6298640875d23f613401bc0f6790fbdbd0",
}
_N800_SHA256 = "d363e10ee0bae397d9621a25364bf85c64c5d32fd2418e02720139d1911bad78"


@pytest.mark.parametrize(("kind", "weights"), sorted(_GEN_SHA256))
def test_gen_bytes_equal_the_pinned_digests(tmp_path, kind, weights):
    out = tmp_path / "inst.json"
    argv = ["gen", "--kind", kind, *_GEN[kind], "--weights", weights, "--seed", 3, "--out", out]
    assert main([str(a) for a in argv]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GEN_SHA256[kind, weights]


def test_gen_bytes_of_a_multi_block_draw_equal_the_pinned_digest(tmp_path):
    out = tmp_path / "inst.json"
    argv = ["gen", "--kind", "regular", "--n", 800, "--d", 32, "--eps", "0.5", "--seed", 7, "--out", out]
    assert main([str(a) for a in argv]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _N800_SHA256


# -- the collector pause of load; no pass in the writers --------------------


def _large_instance(colours: int = 60_000) -> Instance:
    """A path of two edges with `colours` colours each and a stored map
    both ways: 2 * colours map entries."""
    c = np.arange(colours, dtype=np.int64)
    graph = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    lists = WeightedListAssignment.from_pairs(
        [0, 1], np.repeat([0, 1], colours), np.concatenate([c, c]), np.ones(2 * colours)
    )
    sigma = EdgeCorrespondence.from_items(
        np.array([0, 1]), np.array([1, 0]), np.array([colours, colours]),
        np.concatenate([c, c]), np.concatenate([(c + 1) % colours, (c - 1) % colours]),
    )
    return Instance(graph=graph, lists=lists, sigma=sigma, universe=(0, colours - 1))


def test_load_and_dump_run_no_collector_pass(tmp_path):
    inst = _large_instance()
    assert inst.sigma.entry_c.size > 100_000
    path = tmp_path / "large.json"
    colouring = {e: e % 7 for e in range(100_000)}
    passes: list[tuple[str, int]] = []

    def record(phase, info):
        if phase == "start":
            passes.append((step, info["generation"]))

    assert gc.isenabled()
    gc.collect()  # an empty youngest generation: no pass is due when the pause ends
    gc.callbacks.append(record)
    try:
        step = "dump"
        dump_instance(inst, path)
        step = "load"
        back = load_instance(path)
        step = "dump colouring"
        dump_colouring(colouring, True, tmp_path / "colouring.json")
    finally:
        gc.callbacks.remove(record)
    # The load runs paused; the writers make no container per entry.
    assert passes == []
    assert np.array_equal(back.sigma.entry_image, inst.sigma.entry_image)


@pytest.fixture
def collector_at_read(monkeypatch) -> list[bool]:
    """`gc.isenabled()` at each `Path.open` call of the test: the streamed
    read, and the whole read (`Path.read_text`) of a text it declines."""
    seen: list[bool] = []
    open_ = Path.open

    def spy(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return open_(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy)
    return seen


def test_load_pauses_the_collector_and_restores_it(tmp_path, collector_at_read):
    path = tmp_path / "inst.json"
    dump_instance(_sample_instance(), path)
    collector_at_read.clear()
    load_instance(path)
    assert collector_at_read == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("text", [None, "{not json", json.dumps({"k": 2})],
                         ids=["missing path", "malformed JSON", "malformed instance"])
def test_collector_is_restored_after_a_failed_load(tmp_path, collector_at_read, text):
    path = tmp_path / "inst.json"
    if text is not None:
        path.write_text(text)
    collector_at_read.clear()
    with pytest.raises(InstanceError):
        load_instance(path)
    assert collector_at_read == [False, False]  # the streamed read, then the whole read
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off(tmp_path, collector_at_read):
    path = tmp_path / "inst.json"
    dump_instance(_sample_instance(), path)
    collector_at_read.clear()
    gc.disable()
    try:
        with instance_io._collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        load_instance(path)
        assert not gc.isenabled()
        with pytest.raises(InstanceError):
            load_instance(tmp_path / "missing.json")
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert collector_at_read == [False, False, False]


# -- the converters against the per-entry reader ----------------------------


def _entry_form(draw, colour: int, weighted: bool):
    """One list entry: a bare id or an object, with a weight when drawn."""
    if not weighted and draw(st.booleans()):
        return colour
    weight = draw(st.sampled_from([1.0, 0.5, 0.125, 1 / 3, 0.0, 1.5, math.nan]) | st.floats(0.01, 1.0))
    return {"colour": colour, "weight": weight} if weighted else {"colour": colour}


@st.composite
def _format1_dicts(draw) -> dict:
    """Format-1 JSON text decoded as `load_instance` decodes it.  Graphs
    that are valid or not (repeated, out-of-range or missing vertices,
    edges of other sizes), lists on some edges in string or file order,
    empty lists, repeated colours, bare ids and objects (mixed in one
    file when drawn), weights (NaN, or one null when drawn), edge ids
    not written as plain integers (when drawn), and sigma items with
    repeated pairs."""
    k = draw(st.integers(1, 3))
    uniform = draw(st.booleans())
    vertex = st.integers(-1, 7)
    edges = draw(st.lists(st.lists(vertex, min_size=k, max_size=k) if uniform else st.lists(vertex, max_size=4),
                          max_size=12))
    mixed, null, weighted = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    listed = draw(st.lists(st.integers(0, len(edges) - 1), unique=True)) if edges else []
    if draw(st.booleans()):
        listed.sort(key=str)
    lists = {}
    for e in listed:
        colours = draw(st.lists(st.integers(-2, 9), max_size=5))
        lists[str(e)] = [_entry_form(draw, c, weighted) for c in colours]
    entries = [entry for row in lists.values() for entry in row]
    if mixed and entries:  # one entry of the other form
        row = lists[draw(st.sampled_from([key for key, row in lists.items() if row]))]
        i = draw(st.integers(0, len(row) - 1))
        row[i] = row[i]["colour"] if isinstance(row[i], dict) else {"colour": row[i]}
    if null and entries:
        row = lists[draw(st.sampled_from([key for key, row in lists.items() if row]))]
        c = row[0]["colour"] if isinstance(row[0], dict) else row[0]
        row[0] = {"colour": c, "weight": None}
    if lists and draw(st.integers(0, 7)) == 0:  # an edge id that aliases another, or none
        key = draw(st.sampled_from(sorted(lists)))
        lists[draw(st.sampled_from(["0", " ", "+", "-"])) + key] = lists.pop(key)
    pair = st.integers(-1, len(edges))
    sigma = draw(st.lists(
        st.fixed_dictionaries({"e": pair, "f": pair, "map": st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)).map(list), max_size=3)}),
        max_size=4,
    ))
    sigma += draw(st.lists(st.sampled_from(sigma), max_size=2)) if sigma else []  # repeated pairs
    data = {"k": k, "vertex_count": draw(st.integers(0, 8)), "edges": edges,
            "colour_universe": [-2, draw(st.integers(0, 9))], "lists": lists, "sigma": sigma}
    return json.loads(json.dumps(data), parse_float=instance_io._JsonFloat)


def _assert_same_instance(a: Instance, b: Instance) -> None:
    assert a.graph == b.graph
    assert a.universe == b.universe
    tables = [(a.graph, b.graph, ["slots"]), (a.lists, b.lists, ["edges", "edge_ptr", "colour_of", "mu"]),
              (a.sigma, b.sigma, ["pair_e", "pair_f", "entry_ptr", "entry_c", "entry_image"])]
    for x, y, names in tables:
        for name in names:
            u, v = getattr(x, name), getattr(y, name)
            assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), name


def _assert_reads_as_the_oracle(data) -> None:
    """`instance_from_dict(data)` gives the tables of `entry_instance(data)`
    to the bit, or both raise InstanceError."""
    try:
        expected = entry_instance(data)
    except InstanceError:
        with pytest.raises(InstanceError):
            instance_from_dict(data)
        return
    _assert_same_instance(instance_from_dict(data), expected)


@given(_format1_dicts())
@settings(max_examples=400, deadline=None)
def test_bulk_conversion_equals_the_per_entry_reader(data):
    _assert_reads_as_the_oracle(data)


def test_bulk_conversion_takes_the_generated_instances(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--kind", "regular", "--n", "12", "--d", "3", "--weights", "degree", "--out", str(out)]) == 0
    data = instance_io._read_json(out, "instance")
    _assert_same_instance(instance_from_dict(data), entry_instance(data))


@pytest.mark.parametrize("row", [
    [{"colour": 1}, {"colour": 2}],  # colour only: unit weights, no weight pass
    [{"colour": 1}, {"colour": 2, "weight": 0.5}],
    [{"colour": 1}, {"colour": 2, "note": 0.5}],  # an unknown key still weighs 1.0
    [{"colour": 1}, {"weight": 0.5}],  # one key, but not the colour
    [{"colour": 1}, {}],
    [{"colour": 1}, 2],
])
def test_bulk_reader_reads_entry_objects_as_the_per_entry_reader(row):
    _assert_reads_as_the_oracle({"k": 2, "vertex_count": 3, "edges": [[0, 1], [1, 2]],
                                 "lists": {"0": row, "1": [{"colour": 3}]}})


@pytest.mark.parametrize("row", [
    [1, {"colour": 2, "weight": None}],
    [{"colour": 2, "weight": None}, 1],
    [{"colour": 1, "weight": math.nan}, 3, {"colour": 2, "weight": None}],
], ids=["bare id first", "object first", "after a NaN"])
def test_a_null_weight_among_mixed_forms_is_malformed(row):
    data = {"k": 2, "vertex_count": 3, "edges": [[0, 1], [1, 2]], "lists": {"0": row, "1": [1]}}
    with pytest.raises(InstanceError, match="malformed instance: float"):
        instance_from_dict(data)
    with pytest.raises(InstanceError):
        entry_instance(data)


def test_a_nan_weight_loads_as_nan():
    data = {"k": 2, "vertex_count": 3, "edges": [[0, 1], [1, 2]],
            "lists": {"0": [4, {"colour": 1, "weight": math.nan}, {"colour": 3, "weight": 0.5}], "1": [1]}}
    inst = instance_from_dict(data)
    assert inst.lists.colour_of.tolist() == [1, 3, 4, 1]
    assert np.isnan(inst.lists.mu[0]) and inst.lists.mu[1:].tolist() == [0.5, 1.0, 1.0]
    _assert_same_instance(inst, entry_instance(data))


# -- the block-at-a-time load against json.loads and instance_from_dict -----


def _reference_load(path: Path) -> Instance:
    """The instance at `path` as `json.loads` of the whole text and
    `instance_from_dict` read it."""
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text, parse_float=instance_io._JsonFloat)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"cannot read instance {path}: {exc}") from exc
    return instance_from_dict(data)


def _assert_same_load(path: Path) -> None:
    """`load_instance(path)` gives the tables of `_reference_load(path)`
    byte for byte, or raises the same InstanceError."""
    outcomes = []
    for load in (load_instance, _reference_load):
        try:
            outcomes.append(load(path))
        except InstanceError as exc:
            outcomes.append(str(exc))
    streamed, reference = outcomes
    if isinstance(reference, str) or isinstance(streamed, str):
        assert streamed == reference
    else:
        _assert_same_instance(streamed, reference)


_DEEP = "[" * 100_000 + "]" * 100_000
_LAYOUTS = ["indent None", "indent 2", "indent tab", "compact", "trailing whitespace", "shuffled with an unknown key",
            "repeated top-level key", "no lists or sigma", "empty lists and sigma", "repeated list key", "BOM",
            "trailing data", "truncated", "deep nesting", "top-level array", "lists as an array",
            "sigma as an object", "NaN or Infinity"]


@st.composite
def _format1_texts(draw) -> tuple[str, bool | None]:
    """(format-1 text, whether the load walks it itself): a drawn
    `_format1_dicts` instance written in one of `_LAYOUTS`.  True: the
    walker takes the text exactly when `instance_from_dict` takes the
    dict; False: it leaves the text to `json.loads`; None: either."""
    data = draw(_format1_dicts())
    layout = draw(st.sampled_from(_LAYOUTS))
    if layout == "indent None":
        return json.dumps(data), True
    if layout == "indent 2":
        return json.dumps(data, indent=2), True
    if layout == "indent tab":
        return json.dumps(data, indent="\t"), True
    if layout == "compact":
        return json.dumps(data, separators=(",", ":")), True
    if layout == "trailing whitespace":
        return json.dumps(data, indent=2) + "\n\t \r", True
    if layout == "shuffled with an unknown key":
        note = draw(st.sampled_from([None, "text", [1, {"a": []}], 1.5, {"lists": []}]))
        return json.dumps(dict(draw(st.permutations([*data.items(), ("note", note)])))), True
    if layout == "repeated top-level key":  # json.loads keeps the last value, at the place of the first
        key = draw(st.sampled_from(["lists", "sigma"]) | st.sampled_from(sorted(data)))
        first = json.dumps(draw(st.sampled_from([{"lists": {"0": [1]}, "sigma": []}.get(key, 0), [], {}, 0, "x"])))
        return f'{{"{key}": {first}, ' + json.dumps(data)[1:], key not in ("lists", "sigma")
    if layout == "no lists or sigma":
        dropped = draw(st.sampled_from([{"lists"}, {"sigma"}, {"lists", "sigma"}]))
        return json.dumps({key: value for key, value in data.items() if key not in dropped}), True
    if layout == "empty lists and sigma":
        return json.dumps({**data, "lists": {}, "sigma": []}), True
    if layout == "repeated list key":  # json.loads keeps the last row, at the place of the first
        key = draw(st.sampled_from(sorted(data["lists"]))) if data["lists"] else "0"
        lists = f'{{"{key}": [{draw(st.integers(0, 9))}], ' + (json.dumps(data["lists"])[1:] if data["lists"] else '"0": []}')
        return json.dumps({**data, "lists": "@"}).replace('"@"', lists), False
    if layout == "BOM":
        return "\ufeff" + json.dumps(data), False
    if layout == "trailing data":
        return json.dumps(data) + draw(st.sampled_from([" x", "{}", "]", ",", " 1"])), False
    if layout == "truncated":
        text = json.dumps(data, indent=draw(st.sampled_from([None, 2])))
        return text[: draw(st.integers(0, len(text) - 1))], False
    if layout == "deep nesting":
        where = draw(st.sampled_from(["note", "lists", "sigma"]))
        value = {"note": "@", "lists": {"0": "@"}, "sigma": [{"e": 0, "f": 1, "map": "@"}]}[where]
        return json.dumps({**data, where: value}).replace('"@"', _DEEP), False
    if layout == "top-level array":
        return "[" + json.dumps(data) + "]", False
    if layout == "lists as an array":
        return json.dumps({**data, "lists": list(data["lists"].values())}), False
    if layout == "sigma as an object":
        return json.dumps({**data, "sigma": {str(i): item for i, item in enumerate(data["sigma"])}}), False
    # NaN or Infinity in place of a number; `json.dumps` writes them so.
    special = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    where = draw(st.sampled_from(["k", "vertex_count", "colour_universe", "lists", "sigma"]))
    value = {"k": special, "vertex_count": special, "colour_universe": [0, special],
             "lists": {**data["lists"], "0": [special]}, "sigma": [{"e": special, "f": 0, "map": []}]}[where]
    return json.dumps({**data, where: value}), None


_P3_TEXT = json.dumps({"k": 2, "vertex_count": 3, "edges": [[0, 1], [1, 2]], "lists": {"0": [1, 2], "1": [2]},
                       "sigma": [{"e": 0, "f": 1, "map": [[1, 2]]}]})


def _led(pad: int, note: str) -> str:
    """`_P3_TEXT` led by a "pad" member of `pad` characters, which moves
    where the windows of the streamed read end, and a "note" member whose
    value is the JSON text `note`."""
    return '{"pad": "' + "x" * pad + '", "note": ' + note + ", " + _P3_TEXT[1:]


# (pad, note, cut): with a window of one character, `_led(pad, note)` is
# read in windows one of which ends inside the note's number, after `cut`
# (test_cut_examples_end_a_window_inside_a_number checks that they do).
_CUT_NUMBERS = [
    (19, "12345678.5", "12345678."),
    (19, "12345678e5", "12345678e"),
    (7, "12345678e-5", "12345678e-"),
    (1, "[10000000, -2]", "[10000000, -"),
]


def _walks(path: Path) -> bool:
    """Whether the load walks the file at `path` itself."""
    with path.open(encoding="utf-8") as file:
        return instance_io._streamed_columns(file) is not None


@given(_format1_texts(), st.sampled_from([1, 2, 3, instance_io._BLOCK_ROWS]),
       st.integers(1, 7) | st.just(instance_io._WINDOW))
@example((_P3_TEXT + "\n", True), 1, 1)
@example(('{"k": 5, ' + _P3_TEXT[1:], True), 1, 1)  # a repeated top-level key
@example((_P3_TEXT[:-1] + ', "lists": {"0": [3]}}', False), 1, 1)  # a repeated `lists` key
@example((_P3_TEXT.replace('"lists": {', '"lists": {"0": [3], '), False), 1, 1)  # a repeated edge id in `lists`
@example((_P3_TEXT.replace('"lists": {', '"lists": {"5": [3], '), True), 1, 1)  # an unknown edge
@example((_P3_TEXT.replace('"lists": {', '"lists": {"01": [3], '), True), 1, 1)  # an edge id that is not plain
@example((_P3_TEXT + " x", False), 1, 1)
@example(("\ufeff" + _P3_TEXT, False), 1, 1)
@example(("[" + _P3_TEXT + "]", False), 1, 1)
# A window that ends in a number at `8.`, `8e` or `-` (of an exponent, and
# of a number in an array).
@example((_led(*_CUT_NUMBERS[0][:2]), True), 1, 1)
@example((_led(*_CUT_NUMBERS[1][:2]), True), 1, 1)
@example((_led(*_CUT_NUMBERS[2][:2]), True), 1, 1)
@example((_led(*_CUT_NUMBERS[3][:2]), True), 1, 1)
# A four-byte character across the end of the text stream's first 8 KiB read.
@example(('{"pad": "' + "x" * (io.DEFAULT_BUFFER_SIZE - 11) + '\U0001f600", ' + _P3_TEXT[1:], True), 1, instance_io._WINDOW)
@settings(max_examples=500, deadline=None)
def test_load_equals_json_loads_then_instance_from_dict(tmp_path_factory, drawn, block_rows, window):
    text, walks = drawn
    path = tmp_path_factory.mktemp("load") / "inst.json"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(instance_io, "_BLOCK_ROWS", block_rows), mock.patch.object(instance_io, "_WINDOW", window):
        _assert_same_load(path)
        walked = _walks(path)
    if walks:
        try:
            instance_from_dict(json.loads(text, parse_float=instance_io._JsonFloat))
        except InstanceError:
            assert not walked
        else:
            assert walked
    elif walks is False:
        assert not walked


def _path_instance_dict(rows: int) -> dict:
    """A path of `rows` edges, each listing colours 1 and 2 (as entry
    objects, weighted on every third edge), with an item of `sigma` for
    every edge and the next."""
    return {
        "k": 2, "vertex_count": rows + 1, "edges": [[i, i + 1] for i in range(rows)], "colour_universe": [0, 3],
        "lists": {str(e): [{"colour": 1, "weight": 0.5}, {"colour": 2}] if e % 3 == 0 else [{"colour": 2}, {"colour": 1}]
                  for e in range(rows)},
        "sigma": [{"e": e, "f": e + 1, "map": [[1, 2], [2, 1]]} for e in range(rows - 1)],
    }


@pytest.mark.parametrize("rows", [instance_io._BLOCK_ROWS - 1, instance_io._BLOCK_ROWS, 2 * instance_io._BLOCK_ROWS + 5])
def test_load_of_rows_on_both_sides_of_the_block_size(tmp_path, rows):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_path_instance_dict(rows), indent=2))
    assert _walks(path)
    _assert_same_load(path)


def test_entry_forms_that_differ_between_blocks_load_as_instance_from_dict(tmp_path):
    data = _path_instance_dict(instance_io._BLOCK_ROWS + 5)
    for e in range(instance_io._BLOCK_ROWS, instance_io._BLOCK_ROWS + 5):  # the second block in bare ids
        data["lists"][str(e)] = [1, 2]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    assert _walks(path)
    _assert_same_load(path)


class _Pieces(io.StringIO):
    """A text stream whose reads return at most the next of `pieces`,
    so that the windows of the streamed read end where they end."""

    def __init__(self, *pieces: str):
        super().__init__("".join(pieces))
        self.sizes = [len(piece) for piece in pieces]

    def read(self, size=-1):
        return super().read(min(size, self.sizes.pop(0)) if self.sizes else size)


# Each first read of the note's value sees `first` alone: a key's read
# ends at least _LOOKAHEAD characters before the window's end.
@pytest.mark.parametrize(("first", "rest"), [
    ("12345678.", "5"), ("12345678e", "2"), ("12345678e-", "1"), ("-Infi", "nity"), ("1234", "5"),
    ("[10, -", "2]"), ("[10.", "5]"), ("[tru", "e]"), ('"abcd', 'e"'),
])
def test_a_value_cut_by_the_window_reads_as_the_whole_text(first, rest):
    whole = '{"note": ' + first + rest + ' , "k" :2}'
    cut = len('{"note": ') + len(first)
    cursor = instance_io._Cursor(_Pieces(whole[:cut], whole[cut:]))
    seen = []
    scan = cursor._scan
    cursor._scan = lambda text, at: seen.append(text[at:]) or scan(text, at)
    assert cursor.opens("{")
    assert next(cursor.members("}")) == "note"
    assert cursor.value() == json.loads(whole)["note"]
    assert seen[0] == first


@pytest.mark.parametrize(("pad", "note", "cut"), _CUT_NUMBERS)
def test_cut_examples_end_a_window_inside_a_number(monkeypatch, pad, note, cut):
    seen = []

    class Spied(instance_io._Cursor):
        def __init__(self, file):
            super().__init__(file)
            scan = self._scan
            self._scan = lambda text, at: seen.append(text[at:]) or scan(text, at)

    monkeypatch.setattr(instance_io, "_Cursor", Spied)
    monkeypatch.setattr(instance_io, "_WINDOW", 1)
    assert instance_io._streamed_columns(io.StringIO(_led(pad, note))) is not None
    assert cut in seen


@pytest.mark.parametrize("cut", range(1, 30))
def test_whitespace_and_keys_cut_by_the_window_read_as_the_whole_text(cut):
    whole = '  {  "lists" \n:  {"0" : [1]  ,"1":[]} , "k"  :  2.5e1  }\t '
    cursor = instance_io._Cursor(_Pieces(whole[:cut], *whole[cut:]))
    assert cursor.opens("{")
    read = {}
    for key in cursor.members("}"):
        read[key] = dict((k, cursor.value()) for k in cursor.members("}")) if cursor.opens("{") else cursor.value()
    assert cursor.at_end()
    assert read == json.loads(whole)


# Child process that prints how far one load raises the peak resident set
# (kilobytes).  It reads VmHWM, the process's own peak: `ru_maxrss` in a
# child also counts the resident set of the parent it was started from.
_LOAD_PEAK_CHILD = """
import sys
from nibble_colour.instance_io import load_instance
def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
before = peak_kb()
load_instance(sys.argv[1])
print(peak_kb() - before)
"""


def _load_peak_kb(path: Path) -> int:
    if not Path("/proc/self/status").is_file():
        pytest.skip("reads the peak resident set from /proc")
    env = {**os.environ, "PYTHONPATH": str(Path(instance_io.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _LOAD_PEAK_CHILD, str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_load_peak_memory_is_the_text_and_a_block(tmp_path):
    # About 8 MB of text with 192,000 list entries.  Decoded whole, the
    # entry objects raise the peak by about 60 MB; a block at a time, by
    # about 20 MB: a window of the text, the blocks and the tables.
    out = tmp_path / "inst.json"
    assert main(["gen", "--kind", "regular", "--n", "4000", "--d", "8", "--eps", "0.5", "--seed", "1",
                 "--out", str(out)]) == 0
    assert _load_peak_kb(out) < 35 * 1024


def test_load_peak_memory_of_stored_maps_stays_below_the_file_size(tmp_path):
    # Every third pair of meeting edges stores a map of all of e's
    # colours: about 20 MB of text in about ten thousand `sigma` items.
    # Read whole, the bytes and the text alone raise the peak by twice
    # the file; a window at a time, the load stays well below one file.
    out = tmp_path / "inst.json"
    assert main(["gen", "--kind", "linear", "--k", "3", "--n", "120", "--m", "900", "--eps", "0.75", "--seed", "1",
                 "--out", str(out)]) == 0
    inst = load_instance(out)
    e, f = (side[::3] for side in inst.graph.incident_pairs)
    lists = inst.lists
    counts = np.diff(lists.edge_ptr)[e]
    c = lists.colour_of[segment_ranges(lists.edge_ptr[e], counts)]
    image = (5 * c + np.repeat(f, counts)) % (inst.universe[1] + 1)
    sigma = EdgeCorrespondence.from_items(e, f, counts, c, image)
    dump_instance(Instance(graph=inst.graph, lists=lists, sigma=sigma, universe=inst.universe), out)
    size = out.stat().st_size
    assert size > 10 * 2**20
    assert _load_peak_kb(out) * 1024 < size
