import json

import numpy as np
import pytest

from nibble_colour.core import EdgeCorrespondence, InstanceError, LinearHypergraph, WeightedListAssignment
from nibble_colour.instance_io import (
    Instance,
    dump_colouring,
    dump_instance,
    instance_from_dict,
    load_colouring,
    load_instance,
)


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


def test_colouring_round_trip(tmp_path):
    path = tmp_path / "col.json"
    dump_colouring({0: 1, 1: 3}, True, path)
    colouring, complete = load_colouring(path)
    assert complete and colouring.colours == {0: 1, 1: 3}
    path.write_text("[]")
    with pytest.raises(InstanceError):
        load_colouring(path)
