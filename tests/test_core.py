import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nibble_colour.core import (
    EdgeCorrespondence,
    LinearHypergraph,
    MissingWeightError,
    PairIndex,
    PreconditionError,
    WeightedListAssignment,
    colour_neighbours,
    restrict_lists,
    validate_colouring,
    validate_instance,
    weighted_size,
)
from conftest import as_dicts, fano_hypergraph, pair_table, path_graph, star_graph, triangle_graph, random_sigma, random_micro_instance

from nibble_colour import rng


# ---------------------------------------------------------------------------
# the pair table
# ---------------------------------------------------------------------------

# Colours: a few small ones so that lists repeat colours, and the int64 ends.
_COLOUR = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1)
# edge -> list entries (colour, weight); a colour may repeat with another weight.
_RAW_LISTS = st.dictionaries(
    st.integers(0, 7), st.lists(st.tuples(_COLOUR, st.floats(0.01, 1.0)), max_size=6), max_size=6
)


@given(_RAW_LISTS, st.sets(st.integers(-1, 8), max_size=4))
@settings(max_examples=300, deadline=None)
def test_pair_table_readers_match_a_dict_reference(raw, keep):
    import json

    from nibble_colour.instance_io import instance_from_dict, instance_to_dict

    ref_lists = {e: tuple(sorted({c for c, _ in entries})) for e, entries in raw.items()}
    ref_weights = {}
    for e, entries in raw.items():
        for c, w in entries:
            ref_weights[(e, c)] = w  # the last weight wins
    built = WeightedListAssignment.build({e: [c for c, _ in entries] for e, entries in raw.items()}, ref_weights)
    data = {
        "k": 2, "vertex_count": 16, "edges": [[2 * e, 2 * e + 1] for e in range(8)], "colour_universe": [0, 0],
        "lists": {str(e): [{"colour": c, "weight": w} for c, w in entries] for e, entries in raw.items()},
    }
    loaded = instance_from_dict(data).lists
    # Loading gives every edge of the instance a row, empty or not.
    for table, ref in ((built, ref_lists), (loaded, {e: ref_lists.get(e, ()) for e in range(8)})):
        assert table.colour_of.dtype == np.int64 and table.mu.dtype == np.float64
        assert table.edge_ids() == tuple(sorted(ref))
        for e in range(-1, 9):
            listed = ref.get(e, ())
            assert table.colours(e) == listed
            assert table.list_weight(e) == sum(ref_weights[e, c] for c in listed)
            for c in listed:
                assert table.has(e, c) and table.weight(e, c) == ref_weights[e, c]
            absent = max(listed, default=0) + 1
            assert not table.has(e, absent)
            with pytest.raises(MissingWeightError, match=f"edge {e}, colour {absent}"):
                table.weight(e, absent)
        assert as_dicts(table.restrict_to_edges(keep)) == (
            {e: cs for e, cs in ref.items() if e in keep},
            {(e, c): ref_weights[e, c] for e, cs in ref.items() if e in keep for c in cs},
        )
    dumped = json.loads(json.dumps(instance_to_dict(instance_from_dict(data))))
    assert pair_table(instance_from_dict(dumped).lists) == pair_table(loaded)
    assert instance_to_dict(instance_from_dict(dumped)) == dumped


@given(_RAW_LISTS, st.sets(st.integers(-1, 8), max_size=3))
@settings(max_examples=300, deadline=None)
def test_pairs_given_in_order_give_the_table_of_the_sort(raw, extra):
    """Pairs given ascending and distinct skip the sort; the same pairs led
    by a repeat of the first pair, which the sort drops, give the same
    table, to the bit, in arrays that the table owns."""
    weights = {(e, c): w for e, entries in raw.items() for c, w in entries}  # the last weight wins
    pairs = sorted(weights)
    edges = sorted({e for e, _ in pairs} | extra)  # edges without a pair too
    edge_of = np.array([e for e, _ in pairs], dtype=np.int64)
    colour_of = np.array([c for _, c in pairs], dtype=np.int64)
    mu = np.array([weights[pair] for pair in pairs])
    in_order = WeightedListAssignment.from_pairs(edges, edge_of, colour_of, mu)
    sorted_ = WeightedListAssignment.from_pairs(
        edges, np.append(edge_of[:1], edge_of), np.append(colour_of[:1], colour_of), np.append(mu[:1] / 2, mu)
    )
    bits = [
        [(a.dtype, a.tobytes()) for a in (table.edges, table.edge_ptr, table.colour_of, table.mu)]
        for table in (in_order, sorted_)
    ]
    assert bits[0] == bits[1]
    colour_of[:], mu[:] = 7, 0.5
    assert in_order.colour_of.tobytes() == sorted_.colour_of.tobytes()
    assert in_order.mu.tobytes() == sorted_.mu.tobytes()


# ---------------------------------------------------------------------------
# the pair index
# ---------------------------------------------------------------------------

_INT64_ENDS = st.sampled_from([-(2**63), 2**63 - 1])
# The values of one coordinate: a narrow span, whose keys a table covers;
# a wide one (0..5 times 10^17), whose product with a narrow span still
# gives offsets; and small values with the int64 ends, which give ranks.
_AXES = st.sampled_from([
    st.integers(-3, 12),
    st.integers(0, 5).map(lambda c: c * 10**17 - 3 * 10**17),
    st.integers(-3, 3) | _INT64_ENDS,
])


@st.composite
def _indexed_pairs(draw):
    """Distinct ascending pairs, and a batch of queries: stored pairs and
    their neighbours one step away in either coordinate, pairs of values
    in the spans, and values anywhere in int64."""
    axis_a, axis_b = draw(_AXES), draw(_AXES)
    pairs = sorted(draw(st.sets(st.tuples(axis_a, axis_b), max_size=24)))
    anywhere = st.integers(-(2**63), 2**63 - 1) | _INT64_ENDS
    query = st.tuples(axis_a | anywhere, axis_b | anywhere)
    if pairs:
        step = st.sampled_from([-1, 0, 1])
        near = st.tuples(st.sampled_from(pairs), step, step).map(
            lambda p: tuple(min(max(x + d, -(2**63)), 2**63 - 1) for x, d in zip(p[0], p[1:]))
        )
        query = st.sampled_from(pairs) | near | query
    return pairs, draw(st.lists(query, max_size=40))


def _columns(pairs):
    return tuple(np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))


@given(_indexed_pairs())
@settings(max_examples=400, deadline=None)
def test_pair_index_finds_as_a_dict(drawn):
    pairs, queries = drawn
    reference = {pair: i for i, pair in enumerate(pairs)}
    expected = [reference.get(query, -1) for query in queries]
    qa, qb = _columns(queries)
    searched = PairIndex(*_columns(pairs))
    searched.TABLE_SLOTS = 0  # no batch takes the table
    assert searched.find(qa, qb).tolist() == expected
    assert searched._table is None
    if not pairs:
        return
    tabled = PairIndex(*_columns(pairs))
    span = int(tabled.keys[-1] - tabled.keys[0]) + 1
    if span <= 4096 and queries:  # a batch of one query or more takes a table of this span
        tabled.TABLE_SLOTS = 4096
        assert tabled.find(qa, qb).tolist() == expected
        assert tabled._table is not None and tabled._table.size == span
        tabled.TABLE_SLOTS = 0  # later batches read the kept table
        assert tabled.find(qa[::-1], qb[::-1]).tolist() == expected[::-1]


@given(st.lists(st.tuples(_AXES.flatmap(lambda axis: axis), _AXES.flatmap(lambda axis: axis)), max_size=16))
@settings(max_examples=300, deadline=None)
def test_pair_index_keys_ascend_exactly_when_the_pairs_do(pairs):
    keys = PairIndex(*_columns(pairs)).keys.tolist()
    for (i, p), (j, q) in itertools.product(enumerate(pairs), repeat=2):
        assert (keys[i] < keys[j]) == (p < q) and (keys[i] == keys[j]) == (p == q)


def test_pair_index_codes_offsets_or_ranks_and_the_table_rule():
    # Offsets from each minimum: spans 3 and 5.
    assert PairIndex([0, 2], [5, 9]).keys.tolist() == [0, 14]
    # Spans whose product passes 2^63: ranks among 2 and 2 distinct values.
    ends = [-(2**63), 2**63 - 1]
    assert PairIndex(ends, [0, 1]).keys.tolist() == [0, 3]
    assert PairIndex(ends, [0, 1]).find([2**63 - 1, 0], [1, 1]).tolist() == [1, -1]
    # The table is taken when the key span has at most 4 slots per query.
    a, b = np.zeros(2, dtype=np.int64), np.array([0, 7])  # key span 8
    index = PairIndex(a, b)
    assert index.find([0], [7]).tolist() == [1] and index._table is None
    assert index.find([0, 0], [7, 3]).tolist() == [1, -1] and index._table.size == 8
    # The empty index finds nothing.
    empty = PairIndex([], [])
    assert empty.keys.tolist() == [] and empty.find([0, 1], [0, 2]).tolist() == [-1, -1]
    assert empty.find([], []).tolist() == []


# A low end anywhere in int64, and offsets from it within a span of at most 2^31.
_LOW_END = st.integers(-(2**63), 2**63 - 1) | _INT64_ENDS | st.integers(2**63 - 2**31, 2**63 - 1)


@given(_LOW_END, _LOW_END, st.lists(st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_pair_index_keys_in_place_are_the_offsets_where_the_sum_wraps(lo_a, lo_b, offsets):
    """The keys are built in place, a's offset times b's span, plus b, less
    b's minimum: the sum wraps in int64 where b lies near 2^63, and the
    key is still (a - lo_a) * span_b + (b - lo_b)."""
    pairs = sorted({(min(lo_a + x, 2**63 - 1), min(lo_b + y, 2**63 - 1)) for x, y in offsets})
    a, b = _columns(pairs)
    low_a, low_b = min(a.tolist()), min(b.tolist())
    span_b = max(b.tolist()) - low_b + 1
    index = PairIndex(a, b)
    assert index.keys.tolist() == [(x - low_a) * span_b + (y - low_b) for x, y in pairs]
    assert index.find(a, b).tolist() == list(range(len(pairs)))


def test_pair_index_keys_wrap_and_come_back_at_the_int64_end():
    top = 2**63 - 1
    index = PairIndex([0, 1, 1], [top - 1, top - 1, top])  # 2 + (2^63 - 2) passes 2^63
    assert index.keys.tolist() == [0, 2, 3]
    index = PairIndex([-(2**63), -(2**63) + 1], [-(2**63), -(2**63) + 1])  # less b's minimum wraps back
    assert index.keys.tolist() == [0, 3]


@given(st.lists(st.sets(_AXES.flatmap(lambda axis: axis), max_size=4).map(sorted), max_size=6))
@settings(max_examples=200, deadline=None)
def test_pair_index_of_segments_is_the_index_of_the_repeated_rows(segments):
    ptr = np.cumsum([0] + [len(segment) for segment in segments])
    b = np.array([x for segment in segments for x in segment], dtype=np.int64)
    rows = np.repeat(np.arange(len(segments)), np.diff(ptr))
    made, expected = PairIndex.of_segments(ptr, b), PairIndex(rows, b)
    assert made.keys.tolist() == expected.keys.tolist()
    assert made.find(rows, b).tolist() == expected.find(rows, b).tolist() == list(range(b.size))


# ---------------------------------------------------------------------------
# the correspondence table
# ---------------------------------------------------------------------------

# A triangle on 0-2, an edge hanging off vertex 0 and one apart; ids -1 and 5
# are no edges.  Universe [0, 5]; map colours also reach outside it and the
# int64 ends.
_SIGMA_GRAPH = LinearHypergraph.build(7, [(0, 1), (1, 2), (0, 2), (0, 3), (5, 6)], k=2)
_SIGMA_COLOUR = st.integers(-1, 6) | st.sampled_from([-(2**63), 2**63 - 1])
# One sigma item: (e, f, entries); a later item for the same (e, f) replaces
# the map, a colour repeated within an item keeps its last image.
_SIGMA_ITEMS = st.lists(
    st.tuples(
        st.integers(-1, 5),
        st.integers(-1, 5),
        st.lists(st.tuples(_SIGMA_COLOUR, _SIGMA_COLOUR), max_size=5),
    ),
    max_size=8,
)
# How one map entry is written: as the JSON integers, as integral floats,
# or as strings, which `int` reads to the same value but the load rejects.
_ENTRY_FORM = st.sampled_from(["ints", "floats", "strings"])
# Entries that the parser must reject, each replacing one entry.
_MALFORMED_ENTRY = st.sampled_from(
    [[1], [1, 2, 3], [], 7, None, [1.5, "x"], ["1.5", 2], [[1], 2], [2**64, 1], [1, -(2**63) - 1], {"a": 1}, "123"]
)


def _json_entry(c, image, form):
    if form == "floats" and abs(c) < 2**53 and abs(image) < 2**53:
        return [float(c), float(image)]
    if form == "strings":
        return [str(c), str(image)]
    return [c, image]


def _reference_violations(graph, maps, universe):
    """validate_instance's sigma checks, written against the dict form."""
    out = []
    m = graph.edge_count
    for (e, f), mp in sorted(maps.items()):
        if e == f:
            out.append(("sigma-self", (e, f)))
            continue
        if not (0 <= e < m and 0 <= f < m) or graph.shared_vertex(e, f) is None:
            out.append(("sigma-adjacency", (e, f)))
        if len(set(mp.values())) != len(mp):
            out.append(("sigma-injective", (e, f)))
        if (f, e) in maps and {(c2, c1) for c1, c2 in mp.items()} != set(maps[f, e].items()):
            out.append(("sigma-inverse", (e, f)))
        lo, hi = universe
        for c1, c2 in sorted(mp.items()):
            if not (lo <= c1 <= hi and lo <= c2 <= hi):
                out.append(("sigma-universe", (e, f, c1, c2)))
    return out


def test_maps_stored_both_ways_of_one_length_are_no_inverses_when_one_is_not_injective():
    """{1: 5, 2: 5} and {5: 1, 6: 2} have one length and send 1 and 5 to
    each other, but 2 -> 5 is not read back, nor 6 -> 2."""
    maps = {(0, 1): {1: 5, 2: 5}, (1, 0): {5: 1, 6: 2}}
    sigma = EdgeCorrespondence(maps)
    found = [(v.kind, v.subject) for v in validate_instance(_SIGMA_GRAPH, sigma, WeightedListAssignment.unit({}))]
    assert found == [("sigma-injective", (0, 1)), ("sigma-inverse", (0, 1)), ("sigma-inverse", (1, 0))]
    assert found == _reference_violations(_SIGMA_GRAPH, maps, (-(2**63), 2**63 - 1))


@given(
    _SIGMA_ITEMS,
    st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=3),
    _ENTRY_FORM,
    st.none() | st.tuples(st.integers(0, 7), st.integers(0, 4), _MALFORMED_ENTRY),
)
@settings(max_examples=200, deadline=None)
def test_correspondence_table_matches_a_dict_reference(items, mirrors, form, malformed):
    import json

    from nibble_colour.core import InstanceError
    from nibble_colour.instance_io import instance_from_dict, instance_to_dict

    # Two-way maps: an item stored the other way too, as its inverse or,
    # with `shifted`, with its first image moved.
    for which, shifted in mirrors if items else ():
        e, f, entries = items[which % len(items)]
        back = [(image, c) for c, image in dict(entries).items()]
        if shifted and back:
            back[0] = (back[0][0], back[0][1] ^ 1)
        items.append((f, e, back))
    maps = {}
    for e, f, entries in items:
        maps[e, f] = dict(entries)  # the last item, and within it the last image, wins
    graph, universe = _SIGMA_GRAPH, (0, 5)
    lists = WeightedListAssignment.unit({e: [0, 1, 2, 3] for e in range(graph.edge_count)})
    def sigma_json(form):
        return [{"e": e, "f": f, "map": [_json_entry(c, i, form) for c, i in entries]} for e, f, entries in items]

    data = {
        "k": 2, "vertex_count": 7, "edges": [list(edge) for edge in graph.edges], "colour_universe": list(universe),
        "lists": {str(e): [0, 1, 2, 3] for e in range(graph.edge_count)},
        "sigma": sigma_json("ints" if form == "strings" else form),
    }
    flat = [entry for _, _, entries in items for entry in entries]
    if form == "strings" and flat:  # a string is no number
        with pytest.raises(InstanceError, match="malformed instance"):
            instance_from_dict({**data, "sigma": sigma_json(form)})
    tables = [
        EdgeCorrespondence(maps),
        EdgeCorrespondence.from_items(
            [e for e, _, _ in items], [f for _, f, _ in items], [len(entries) for _, _, entries in items],
            [c for c, _ in flat], [i for _, i in flat],
        ),
        instance_from_dict(data).sigma,
    ]
    edge_pairs = list(itertools.product(range(-1, 6), repeat=2))
    colours = [-1, 0, 2, 6, -(2**63), 2**63 - 1]

    def reference_blocks(e, c, f, c_other):  # the map of (e, f), else that of (f, e) backwards
        if (e, f) in maps:
            return maps[e, f].get(c) == c_other
        return maps[f, e].get(c_other) == c if (f, e) in maps else c == c_other

    images = {}
    for e, f in edge_pairs:
        stored = maps.get((e, f))
        if stored is None and (f, e) in maps:  # the inverse; the largest preimage wins
            stored = {c2: c1 for c1, c2 in sorted(maps[f, e].items())}
        images[e, f] = stored, {c: c if stored is None else stored.get(c) for c in colours}
    for sigma in tables:
        assert list(zip(sigma.pair_e.tolist(), sigma.pair_f.tolist())) == sorted(maps)
        assert sigma.is_trivial == (not maps)
        for (e, f), (stored, image) in images.items():
            assert sigma.map_for(e, f) == stored
            for c in colours:
                assert sigma.image(e, f, c) == image[c]
                for c_other in {image[c], c, 6} - {None}:
                    assert sigma.blocks(e, c, f, c_other) == reference_blocks(e, c, f, c_other)
        e, f = np.array(edge_pairs).T
        for ce, cf in itertools.product([-1, 0, 6, 2**63 - 1], repeat=2):
            got = sigma.blocking(e, np.full(e.size, ce), f, np.full(f.size, cf))
            assert got.tolist() == [reference_blocks(a, ce, b, cf) for a, b in edge_pairs]
        found = [(v.kind, v.subject) for v in validate_instance(graph, sigma, lists, universe)]
        assert found == _reference_violations(graph, maps, universe)

    dumped = json.loads(json.dumps(instance_to_dict(instance_from_dict(data))))
    assert dumped["sigma"] == [{"e": e, "f": f, "map": [list(kv) for kv in sorted(mp.items())]} for (e, f), mp in sorted(maps.items())]
    assert instance_to_dict(instance_from_dict(dumped)) == dumped

    if malformed is not None and flat:
        which, pos, bad = malformed
        e_, f_, entries = items[which % len(items)]
        if entries:
            data["sigma"][which % len(items)]["map"][pos % len(entries)] = bad
            with pytest.raises(InstanceError):
                instance_from_dict(data)


@given(
    _SIGMA_ITEMS,
    st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=3),
    st.none() | st.just((0, 5)),
    st.integers(1, 7),
)
@settings(max_examples=300, deadline=None)
def test_sigma_checks_in_blocks_of_maps_equal_the_whole_table(items, mirrors, universe, block):
    """Injectivity and mutual inverses are checked a block of about
    `block` entries at a time; the maps cover repeated images, empty
    maps, maps stored both ways, self pairs, non-incident pairs and
    entries outside the universe."""
    from unittest import mock

    from nibble_colour import core

    for which, shifted in mirrors if items else ():
        e, f, entries = items[which % len(items)]
        back = [(image, c) for c, image in dict(entries).items()]
        if shifted and back:
            back[0] = (back[0][0], back[0][1] ^ 1)
        items.append((f, e, back))
    maps = {(e, f): dict(entries) for e, f, entries in items}
    sigma = EdgeCorrespondence(maps)
    whole = core._sigma_violations(_SIGMA_GRAPH, sigma, universe)
    with mock.patch.object(core, "_CHECK_BLOCK", block):
        assert core._sigma_violations(_SIGMA_GRAPH, sigma, universe) == whole
    expected = _reference_violations(_SIGMA_GRAPH, maps, universe or (-(2**63), 2**63 - 1))
    assert [(v.kind, v.subject) for v in whole] == expected


def test_correspondence_table_is_read_only():
    given = np.array([3, 1])
    sigma = EdgeCorrespondence.from_items([0], [1], [2], given, np.array([4, 5]))
    assert sigma.blocks(0, 1, 1, 5) and sigma.blocking(np.array([0]), np.array([3]), np.array([1]), np.array([4]))[0]
    for table in (sigma.pair_e, sigma.pair_f, sigma.entry_ptr, sigma.entry_c, sigma.entry_image):
        with pytest.raises(ValueError):
            table[0] = 7
    given[0] = 7  # the table holds its own arrays
    assert sigma.entry_c.tolist() == [1, 3] and sigma.blocks(0, 3, 1, 4)


def test_correspondence_table_copies_entries_given_in_table_order():
    c, image = np.array([1, 3]), np.array([4, 5])  # ascending: no sort, no gather
    sigma = EdgeCorrespondence.from_items([0], [1], [2], c, image)
    c[0] = image[0] = 7
    assert sigma.entry_c.tolist() == [1, 3] and sigma.entry_image.tolist() == [4, 5]


# ---------------------------------------------------------------------------
# weighted_size
# ---------------------------------------------------------------------------


def test_weighted_size_empty_is_zero():
    lists = WeightedListAssignment.unit({0: [1]})
    assert weighted_size([], lists) == 0.0


def test_weighted_size_two_terms():
    lists = WeightedListAssignment.build({0: [1], 1: [2]}, {(0, 1): 0.3, (1, 2): 0.5})
    assert weighted_size([(0, 1), (1, 2)], lists) == pytest.approx(0.8)


def test_weighted_size_ten_tenths():
    lists = WeightedListAssignment.build({0: list(range(10))}, {(0, c): 0.1 for c in range(10)})
    assert weighted_size([(0, c) for c in range(10)], lists) == pytest.approx(1.0, abs=1e-12)


def test_weighted_size_missing_pair():
    lists = WeightedListAssignment.unit({0: [1]})
    with pytest.raises(MissingWeightError):
        weighted_size([(0, 2)], lists)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20), st.randoms())
@settings(max_examples=100, deadline=None)
def test_weighted_size_order_invariant(pairs, rand):
    lists = WeightedListAssignment.build(
        {e: list(range(6)) for e in range(6)},
        {(e, c): 0.1 + 0.13 * ((e + c) % 7) for e in range(6) for c in range(6)},
    )
    shuffled = list(pairs)
    rand.shuffle(shuffled)
    assert weighted_size(pairs, lists) == weighted_size(shuffled, lists)


# ---------------------------------------------------------------------------
# colour_neighbours
# ---------------------------------------------------------------------------


def test_colour_neighbours_isolated_edge():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.unit({0: [1, 2]})
    assert colour_neighbours(g, lists, EdgeCorrespondence(), 0, 0, 1) == ()


def test_colour_neighbours_path_identity():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1, 2], 1: [1, 3]})
    assert colour_neighbours(g, lists, EdgeCorrespondence(), 0, 1, 1) == ((1, 1),)
    # colour 2 is not in the neighbour's list
    assert colour_neighbours(g, lists, EdgeCorrespondence(), 0, 1, 2) == ()


def test_colour_neighbours_star():
    g = star_graph(3)
    lists = WeightedListAssignment.unit({0: [5], 1: [5], 2: [5]})
    assert colour_neighbours(g, lists, EdgeCorrespondence(), 0, 0, 5) == ((1, 5), (2, 5))


def test_colour_neighbours_respects_sigma():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1], 1: [7]})
    sigma = EdgeCorrespondence(maps={(0, 1): {1: 7}})
    # (1,7) blocks (0,1) because sigma_{1,0}(7) = 1
    assert colour_neighbours(g, lists, sigma, 0, 1, 1) == ((1, 7),)
    assert colour_neighbours(g, lists, sigma, 1, 1, 7) == ((0, 1),)


def test_colour_neighbours_preconditions():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1], 1: [1]})
    with pytest.raises(PreconditionError):
        colour_neighbours(g, lists, EdgeCorrespondence(), 0, 2, 1)  # vertex not in edge
    with pytest.raises(PreconditionError):
        colour_neighbours(g, lists, EdgeCorrespondence(), 0, 0, 9)  # colour not listed


def test_colour_neighbour_sets_disjoint_across_vertices_and_colours():
    for seed in range(30):
        graph, lists, sigma, _ = random_micro_instance(seed)
        for e in lists.edge_ids():
            per_vertex = {}
            for v in graph.edges[e]:
                union_at_v = set()
                for c in lists.colours(e):
                    nb = set(colour_neighbours(graph, lists, sigma, e, v, c))
                    # sigma consistency: each returned pair genuinely blocks (e, c)
                    for f, c2 in nb:
                        assert sigma.image(f, e, c2) == c
                    # distinct colours at one vertex have disjoint neighbour sets
                    assert not (union_at_v & nb)
                    union_at_v |= nb
                per_vertex[v] = union_at_v
            vs = list(per_vertex)
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    assert not (per_vertex[vs[i]] & per_vertex[vs[j]])


# ---------------------------------------------------------------------------
# validate_colouring
# ---------------------------------------------------------------------------


def test_validate_colouring_distinct_ok():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1, 2], 1: [1, 2]})
    assert validate_colouring(g, lists, EdgeCorrespondence(), {0: 1, 1: 2}) == []


def test_validate_colouring_identity_conflict():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1, 2], 1: [1, 2]})
    violations = validate_colouring(g, lists, EdgeCorrespondence(), {0: 1, 1: 1})
    assert len(violations) == 1 and violations[0].kind == "blocking"


def test_validate_colouring_list_violation():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.unit({0: [1]})
    violations = validate_colouring(g, lists, EdgeCorrespondence(), {0: 9})
    assert [v.kind for v in violations] == ["list"]


def test_validate_colouring_sigma_conflict_only_via_map():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1, 2], 1: [1, 7]})
    sigma = EdgeCorrespondence(maps={(0, 1): {1: 7}})
    assert validate_colouring(g, lists, sigma, {0: 1, 1: 7}) != []
    # same colour is fine now: the stored partial map does not pair (1, 1)
    assert validate_colouring(g, lists, sigma, {0: 1, 1: 1}) == []


def test_validate_sub_colouring_of_valid_is_valid():
    for seed in range(40):
        graph, lists, sigma, _ = random_micro_instance(seed)
        from nibble_colour.harness import brute_force_colour

        result = brute_force_colour(graph, lists, sigma, node_cap=10_000)
        if result.status != "found":
            continue
        full = result.colouring
        assert validate_colouring(graph, lists, sigma, full) == []
        sub = {e: c for e, c in full.items() if e % 2 == 0}
        assert validate_colouring(graph, lists, sigma, sub) == []


def reference_validate_colouring(graph, lists, sigma, colours):
    """validate_colouring as first written: adjacent edges as sorted sets,
    `sigma.blocks` pair by pair from the lower edge."""
    violations = []
    for e, c in sorted(colours.items()):
        if e < 0 or e >= graph.edge_count:
            violations.append(("unknown-edge", (e,)))
        elif not lists.has(e, c):
            violations.append(("list", (e, c)))
    for e, c in sorted(colours.items()):
        if e < 0 or e >= graph.edge_count:
            continue
        for f in graph.adjacent_edges(e):
            if f > e and f in colours and sigma.blocks(e, c, f, colours[f]):
                violations.append(("blocking", (e, f, c, colours[f])))
    return violations


def _kinds(violations):
    return [(v.kind, v.subject) for v in violations]


def test_incident_pairs_are_the_intersecting_pairs_in_order():
    graphs = [path_graph(4), star_graph(5), triangle_graph(), fano_hypergraph(),
              LinearHypergraph.build(6, [(0, 1), (2, 3), (4, 5)], k=2),
              LinearHypergraph.build(4, [(0, 1, 2), (0, 1, 3), (1, 2, 3)], k=3),  # not linear
              LinearHypergraph.build(3, [(0, 0), (0, 1)], k=2),  # a repeated vertex
              LinearHypergraph(vertex_count=0, edges=(), k=2)]
    graphs += [random_micro_instance(seed)[0] for seed in range(20)]
    for g in graphs:
        expected = [
            (e, f) for e, f in itertools.combinations(range(g.edge_count), 2)
            if set(g.edges[e]) & set(g.edges[f])
        ]
        e, f = g.incident_pairs
        assert e.dtype == f.dtype == np.int64
        assert list(zip(e.tolist(), f.tolist())) == expected


def _reference_graph_violations(graph):
    """validate_instance's graph checks as first written: edge by edge its
    distinct vertex count and out-of-range vertices, then every pair of
    edges with two slot pairs or more at in-range vertices."""
    out = [("uniformity", ())] if graph.k < 1 else []
    for eid, edge in enumerate(graph.edges):
        if len(set(edge)) != graph.k:
            out.append(("uniformity", (eid,)))
        out += [("vertex-range", (eid, v)) for v in edge if not 0 <= v < graph.vertex_count]
    for e, f in itertools.combinations(range(graph.edge_count), 2):
        meetings = sum(graph.edges[e].count(v) * graph.edges[f].count(v)
                       for v in set(graph.edges[e]) if 0 <= v < graph.vertex_count)
        if meetings > 1:
            out.append(("linearity", (e, f)))
    return out


@given(st.integers(-1, 3), st.integers(0, 6), st.lists(st.lists(st.integers(-2, 6), max_size=4), max_size=9),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_graph_checks_of_the_slot_table_match_the_edge_loop(k, vertex_count, edges, built):
    """Non-uniform edges, repeated and out-of-range vertices, and edges in
    any vertex order (a graph made without `build`)."""
    graph = (LinearHypergraph.build(vertex_count, edges, k=k) if built
             else LinearHypergraph(vertex_count=vertex_count, edges=tuple(map(tuple, edges)), k=k))
    assert graph.slots.tolist() == [[e, v] for e, edge in enumerate(graph.edges) for v in edge]
    empty = WeightedListAssignment.from_pairs([], [], [], [])
    got = [(v.kind, v.subject) for v in validate_instance(graph, EdgeCorrespondence(), empty)]
    assert got == _reference_graph_violations(graph)
    e, f = graph.incident_pairs
    assert list(zip(e.tolist(), f.tolist())) == [
        (a, b) for a, b in itertools.combinations(range(graph.edge_count), 2)
        if any(0 <= v < vertex_count for v in set(graph.edges[a]) & set(graph.edges[b]))
    ]
    if graph.edges and any(len(edge) != k for edge in graph.edges):
        with pytest.raises(PreconditionError):
            graph.vertex_table
    elif graph.edges:
        assert graph.vertex_table.tolist() == [list(edge) for edge in graph.edges]


def test_validate_colouring_matches_reference_on_random_colourings():
    odd_values = [2**70, -(2**70), -1, True, 1.0, None, "a"]
    for seed in range(60):
        graph, lists, sigma, _ = random_micro_instance(seed)
        for trial in range(4):
            colours = {}
            for e in range(-1, graph.edge_count + 1):
                if rng.uniform(seed, 97, trial, e) < 0.8:
                    colours[e] = int(rng.uniform(seed, 98, trial, e) * 6)
            if trial == 3:  # odd colour values on two edges
                colours[0] = odd_values[seed % len(odd_values)]
                colours[graph.edge_count - 1] = odd_values[(seed + 3) % len(odd_values)]
            got = validate_colouring(graph, lists, sigma, colours)
            assert _kinds(got) == reference_validate_colouring(graph, lists, sigma, colours)


def test_validate_colouring_blocking_order_and_stored_maps():
    g = fano_hypergraph()  # every pair of lines meets
    lists = WeightedListAssignment.unit({e: [0, 1, 2] for e in range(7)})
    sigma = EdgeCorrespondence(maps={(5, 2): {0: 1}, (1, 6): {1: 2}})
    colours = {e: 0 for e in range(7)}
    colours[6] = 2
    got = validate_colouring(g, lists, sigma, colours)
    assert _kinds(got) == reference_validate_colouring(g, lists, sigma, colours)
    pairs = [v.subject[:2] for v in got]
    assert pairs == sorted(pairs) and (2, 5) not in pairs and (1, 6) not in pairs
    colours[1], colours[5] = 1, 1
    got = validate_colouring(g, lists, sigma, colours)
    assert _kinds(got) == reference_validate_colouring(g, lists, sigma, colours)
    assert ("blocking", (1, 6, 1, 2)) in _kinds(got)


# ---------------------------------------------------------------------------
# restrict_lists
# ---------------------------------------------------------------------------


def test_restrict_lists_nothing_coloured():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1, 2], 1: [1, 2]})
    restricted = restrict_lists(g, lists, EdgeCorrespondence(), {})
    assert as_dicts(restricted)[0] == {0: (1, 2), 1: (1, 2)}


def test_restrict_lists_identity_removal():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1, 2], 1: [1, 2]})
    restricted = restrict_lists(g, lists, EdgeCorrespondence(), {1: 1})
    assert as_dicts(restricted)[0] == {0: (2,)}


def test_restrict_lists_applies_permutation():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1, 7, 9], 1: [1]})
    sigma = EdgeCorrespondence(maps={(1, 0): {1: 7}})
    restricted = restrict_lists(g, lists, sigma, {1: 1})
    assert as_dicts(restricted)[0] == {0: (1, 9)}


def test_restrict_lists_rejects_invalid_colouring():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1], 1: [1]})
    with pytest.raises(PreconditionError):
        restrict_lists(g, lists, EdgeCorrespondence(), {0: 1, 1: 1})


def test_restrict_lists_idempotent():
    for seed in range(25):
        graph, lists, sigma, _ = random_micro_instance(seed)
        from nibble_colour.harness import brute_force_colour

        result = brute_force_colour(graph, lists, sigma, node_cap=10_000)
        if result.status != "found":
            continue
        partial = {e: c for e, c in result.colouring.items() if e % 2 == 0}
        once = restrict_lists(graph, lists, sigma, partial)
        twice = restrict_lists(graph, once, sigma, partial)
        assert pair_table(once) == pair_table(twice)


# ---------------------------------------------------------------------------
# validate_instance
# ---------------------------------------------------------------------------


def test_validate_instance_triangle_ok():
    g = triangle_graph()
    lists = WeightedListAssignment.unit({0: [0], 1: [1], 2: [2]})
    assert validate_instance(g, EdgeCorrespondence(), lists, (0, 5)) == []


def test_validate_instance_linearity_violation():
    g = LinearHypergraph.build(4, [(0, 1, 2), (0, 1, 3)], k=3)
    lists = WeightedListAssignment.unit({0: [0], 1: [0]})
    kinds = [v.kind for v in validate_instance(g, EdgeCorrespondence(), lists)]
    assert "linearity" in kinds


def test_validate_instance_weight_range():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.build({0: [3]}, {(0, 3): 1.5})
    kinds = [v.kind for v in validate_instance(g, EdgeCorrespondence(), lists)]
    assert kinds == ["weight-range"]


def test_validate_instance_uniformity():
    g = LinearHypergraph(vertex_count=3, edges=((0, 1, 2),), k=2)
    lists = WeightedListAssignment.unit({0: [0]})
    kinds = [v.kind for v in validate_instance(g, EdgeCorrespondence(), lists)]
    assert "uniformity" in kinds


def test_validate_instance_sigma_checks():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [0, 1], 1: [0, 1]})
    bad_inverse = EdgeCorrespondence(maps={(0, 1): {0: 1}, (1, 0): {0: 1}})
    kinds = [v.kind for v in validate_instance(g, bad_inverse, lists)]
    assert "sigma-inverse" in kinds
    not_injective = EdgeCorrespondence(maps={(0, 1): {0: 1, 1: 1}})
    kinds = [v.kind for v in validate_instance(g, not_injective, lists)]
    assert "sigma-injective" in kinds
    non_adjacent = EdgeCorrespondence(maps={(0, 5): {0: 0}})
    kinds = [v.kind for v in validate_instance(g, non_adjacent, lists)]
    assert "sigma-adjacency" in kinds
    outside = EdgeCorrespondence(maps={(0, 1): {0: 99}})
    kinds = [v.kind for v in validate_instance(g, outside, lists, (0, 5))]
    assert "sigma-universe" in kinds


def test_sigma_inverse_composition_property():
    g = star_graph(4)
    sigma = random_sigma(g, 8, seed=11, density=1.0)
    for e, f in zip(sigma.pair_e.tolist(), sigma.pair_f.tolist()):
        for c1, c2 in sigma.map_for(e, f).items():
            assert sigma.image(f, e, c2) == c1
