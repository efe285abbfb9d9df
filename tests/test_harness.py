import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nibble_colour import harness, rng
from nibble_colour.core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PreconditionError,
    WeightedListAssignment,
    validate_colouring,
    validate_instance,
)
from nibble_colour.harness import (
    GenerationError,
    GeneratorSpec,
    bernoulli_trial_count,
    brute_force_colour,
    build_local_lists,
    exact_expectations,
    expectation_diagnostic,
    generate,
    neighbourhood_audit,
)
from nibble_colour.nibble import CONFLICT_CHUNK, NibbleParams, RoundStructure
from conftest import pair_table, path_graph, random_micro_instance, star_graph, triangle_graph


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_k4():
    g = generate(GeneratorSpec(kind="regular-graph", n=4, d=3, seed=0))
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_generate_regular_inadmissible():
    with pytest.raises(GenerationError):
        generate(GeneratorSpec(kind="regular-graph", n=5, d=3, seed=0))  # n*d odd
    with pytest.raises(GenerationError):
        generate(GeneratorSpec(kind="regular-graph", n=4, d=4, seed=0))  # d >= n


def test_generate_deterministic():
    a = generate(GeneratorSpec(kind="regular-graph", n=12, d=5, seed=7))
    b = generate(GeneratorSpec(kind="regular-graph", n=12, d=5, seed=7))
    assert a.edges == b.edges
    c = generate(GeneratorSpec(kind="random-graph", n=10, p=0.4, seed=7))
    d = generate(GeneratorSpec(kind="random-graph", n=10, p=0.4, seed=7))
    assert c.edges == d.edges


@pytest.mark.parametrize("n", [-2, -1, 0, 1])
def test_generate_linear_uniform_without_room_raises(n):
    with pytest.raises(GenerationError, match="near-disjoint"):
        generate(GeneratorSpec(kind="linear-k-uniform", n=n, k=2, m=1, seed=0))


def test_generate_linear_uniform_is_linear():
    g = generate(GeneratorSpec(kind="linear-k-uniform", n=20, k=3, m=12, seed=5))
    assert g.edge_count == 12 and g.k == 3
    lists = WeightedListAssignment.unit({e: [0] for e in range(12)})
    assert validate_instance(g, EdgeCorrespondence(), lists) == []


def test_generate_bipartite():
    g = generate(GeneratorSpec(kind="bipartite", n=4, n2=5, p=0.5, seed=3))
    for u, v in g.edges:
        assert u < 4 <= v


def test_generate_validates():
    for seed in range(5):
        g = generate(GeneratorSpec(kind="regular-graph", n=10, d=4, seed=seed))
        lists = WeightedListAssignment.unit({e: [0] for e in range(g.edge_count)})
        assert validate_instance(g, EdgeCorrespondence(), lists) == []


# ---------------------------------------------------------------------------
# build_local_lists
# ---------------------------------------------------------------------------


def test_build_local_lists_4_regular():
    g = generate(GeneratorSpec(kind="regular-graph", n=10, d=4, seed=1))
    lists = build_local_lists(g, 0.5, 24, seed=1)
    assert all(len(lists.colours(e)) == 6 for e in lists.edge_ids())  # ceil(1.5*4)


def test_build_local_lists_star_eps_zero():
    g = star_graph(3)
    lists = build_local_lists(g, 0.0, 12, seed=0)
    assert all(len(lists.colours(e)) == 3 for e in lists.edge_ids())


def test_build_local_lists_universe_too_small():
    g = star_graph(3)
    with pytest.raises(GenerationError):
        build_local_lists(g, 0.0, 2, seed=0)


def test_degree_weighted_colour_sums():
    g = generate(GeneratorSpec(kind="random-graph", n=9, p=0.6, seed=4))
    lists = build_local_lists(g, 0.3, 60, mode="degree-weighted", seed=4)
    audit = neighbourhood_audit(g, lists, EdgeCorrespondence())
    assert audit.max_colour_sum <= 1.0 + 1e-12
    for e in lists.edge_ids():
        maxdeg = max(g.degree(v) for v in g.edges[e])
        assert lists.weight(e, lists.colours(e)[0]) == pytest.approx(1.0 / maxdeg)


# ---------------------------------------------------------------------------
# The array draws against the scalar loops they replaced
# ---------------------------------------------------------------------------


def reference_lists(graph, eps, universe_size, mode, seed):
    """`build_local_lists` as one `rng.subset` per edge."""
    edge_of, colour_of, mu = [], [], []
    for e, edge in enumerate(graph.edges):
        maxdeg = max(graph.degree(v) for v in edge)
        size = math.ceil((1.0 + eps) * maxdeg)
        if size > universe_size:
            raise GenerationError(
                f"edge {e} needs a list of {size} colours but the universe has {universe_size}"
            )
        edge_of += [e] * size
        colour_of += rng.subset(seed, rng.KIND_LISTS, universe_size, size, e).tolist()
        mu += [1.0 if mode == "unit-weight" else 1.0 / maxdeg] * size
    return WeightedListAssignment.from_pairs(range(graph.edge_count), edge_of, colour_of, mu)


def reference_random_graph(n, p, seed):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.uniform(seed, rng.KIND_GENERATE, u, v) < p]


def reference_bipartite(n1, n2, p, seed):
    return [(u, n1 + j) for u in range(n1) for j in range(n2)
            if rng.uniform(seed, rng.KIND_GENERATE, u, n1 + j) < p]


def reference_linear(n, k, m, seed):
    """The accepted edges, or the failure message, of one `rng.subset`
    proposal per attempt."""
    used_pairs, edges = set(), []
    attempts, max_attempts = 0, 500 * m + 100
    while len(edges) < m and attempts < max_attempts:
        proposal = tuple(int(v) for v in rng.subset(seed, rng.KIND_GENERATE, n, k, attempts))
        attempts += 1
        pairs = [(proposal[i], proposal[j]) for i in range(k) for j in range(i + 1, k)]
        if any(pair in used_pairs for pair in pairs):
            continue
        used_pairs.update(pairs)
        edges.append(proposal)
    if len(edges) < m:
        return f"could only place {len(edges)} of {m} edges after {attempts} attempts"
    return tuple(edges)


_BLOCKS = st.sampled_from([1, 2, 7, 48, 1 << 20])
_SEEDS = st.integers(-(2**63), 2**64 - 1)


@st.composite
def _hypergraphs(draw):
    """k = 2 or 3, distinct edges over vertices some of which lie on no edge."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(k, 12))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
                          .map(lambda e: tuple(sorted(e))), max_size=15, unique=True))
    return LinearHypergraph.build(n, edges, k=k)


@given(_hypergraphs(), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]) | st.floats(-0.99, 4.0),
       st.integers(-2, 6), st.sampled_from(["unit-weight", "degree-weighted"]), _SEEDS, _BLOCKS)
@settings(max_examples=200, deadline=None)
def test_build_local_lists_equals_one_subset_per_edge(graph, eps, slack, mode, seed, block):
    """Bitwise the per-edge `rng.subset` lists, for universes from two
    colours short of the longest list (the error, with the first edge
    named) through exactly its size to a few colours more, drawn in
    blocks of as few as one key."""
    longest = max([math.ceil((1.0 + eps) * max(graph.degree(v) for v in e)) for e in graph.edges], default=0)
    universe = max(longest + slack, 0)
    try:
        expected = reference_lists(graph, eps, universe, mode, seed)
    except GenerationError as exc:
        with pytest.raises(GenerationError, match=f"^{exc}$"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "DRAW_BLOCK", block)
                build_local_lists(graph, eps, universe, mode=mode, seed=seed)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "DRAW_BLOCK", block)
        lists = build_local_lists(graph, eps, universe, mode=mode, seed=seed)
    assert pair_table(lists) == pair_table(expected)
    assert [a.dtype for a in (lists.edges, lists.edge_ptr, lists.colour_of, lists.mu)] == [
        np.int64, np.int64, np.int64, np.float64]


def test_build_local_lists_spans_blocks(monkeypatch):
    """A universe-sized list on every edge, one row per block and rows
    longer than a block."""
    g = generate(GeneratorSpec(kind="regular-graph", n=12, d=3, seed=2))
    expected = reference_lists(g, 1.0, 6, "degree-weighted", 5)
    assert all(len(expected.colours(e)) == 6 for e in expected.edge_ids())
    for block in (1, 5, 6, 7, 100):
        monkeypatch.setattr(harness, "DRAW_BLOCK", block)
        assert pair_table(build_local_lists(g, 1.0, 6, "degree-weighted", 5)) == pair_table(expected)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0, -1.5, 1e300])
def test_build_local_lists_rejects_eps_without_finite_sizes(eps):
    with pytest.raises(GenerationError, match="eps"):
        build_local_lists(star_graph(3), eps, 10**6, seed=0)


@given(st.integers(0, 40), st.floats(0.0, 1.0), _SEEDS, _BLOCKS)
@settings(max_examples=100, deadline=None)
def test_random_graph_equals_the_scalar_loop(n, p, seed, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "DRAW_BLOCK", block)
        g = generate(GeneratorSpec(kind="random-graph", n=n, p=p, seed=seed))
    assert g.edges == tuple(reference_random_graph(n, p, seed))


@given(st.integers(0, 20), st.integers(0, 20), st.floats(0.0, 1.0), _SEEDS, _BLOCKS)
@settings(max_examples=100, deadline=None)
def test_bipartite_graph_equals_the_scalar_loop(n1, n2, p, seed, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "DRAW_BLOCK", block)
        g = generate(GeneratorSpec(kind="bipartite", n=n1, n2=n2, p=p, seed=seed))
    assert g.edges == tuple(reference_bipartite(n1, n2, p, seed))
    assert g.vertex_count == n1 + n2


@given(st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(k, 14))),
       st.integers(0, 12), _SEEDS, _BLOCKS)
@settings(max_examples=60, deadline=None)
def test_linear_uniform_equals_the_scalar_loop(kn, m, seed, block):
    k, n = kn
    if m * k * (k - 1) // 2 > n * (n - 1) // 2:
        return  # rejected before any draw
    expected = reference_linear(n, k, m, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "DRAW_BLOCK", block)
        if isinstance(expected, str):
            with pytest.raises(GenerationError, match=f"^{expected}$"):
                generate(GeneratorSpec(kind="linear-k-uniform", n=n, k=k, m=m, seed=seed))
            return
        g = generate(GeneratorSpec(kind="linear-k-uniform", n=n, k=k, m=m, seed=seed))
    assert g.edges == expected


@pytest.mark.parametrize("block", [1, 9, 1 << 20])
def test_linear_uniform_failure_reports_every_attempt(monkeypatch, block):
    """Seven triples covering all 21 pairs of 7 vertices form a Fano
    plane, which random proposals do not find within 3,600 attempts."""
    expected = reference_linear(7, 3, 7, 1)
    assert expected == "could only place 5 of 7 edges after 3600 attempts"
    monkeypatch.setattr(harness, "DRAW_BLOCK", block)
    with pytest.raises(GenerationError, match=f"^{expected}$"):
        generate(GeneratorSpec(kind="linear-k-uniform", n=7, k=3, m=7, seed=1))


# ---------------------------------------------------------------------------
# brute_force_colour
# ---------------------------------------------------------------------------


def test_brute_p3_found():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1, 2], 1: [1, 2]})
    result = brute_force_colour(g, lists, EdgeCorrespondence())
    assert result.status == "found"
    assert validate_colouring(g, lists, EdgeCorrespondence(), result.colouring) == []


def test_brute_triangle_unsat():
    g = triangle_graph()
    lists = WeightedListAssignment.unit({e: [1, 2] for e in range(3)})
    result = brute_force_colour(g, lists, EdgeCorrespondence())
    assert result.status == "proven-unsatisfiable"


def test_brute_single_edge():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.unit({0: [1]})
    result = brute_force_colour(g, lists, EdgeCorrespondence())
    assert result.status == "found" and result.colouring == {0: 1}


def test_brute_cap_exceeded():
    g = triangle_graph()
    lists = WeightedListAssignment.unit({e: [1, 2] for e in range(3)})
    result = brute_force_colour(g, lists, EdgeCorrespondence(), node_cap=2)
    assert result.status == "cap-exceeded"


def test_brute_respects_sigma():
    g = path_graph(2)
    lists = WeightedListAssignment.unit({0: [1], 1: [1, 7]})
    sigma = EdgeCorrespondence(maps={(0, 1): {1: 7}})
    result = brute_force_colour(g, lists, sigma)
    assert result.status == "found"
    assert result.colouring == {0: 1, 1: 1}  # 7 is blocked, same colour is not


# ---------------------------------------------------------------------------
# expectation diagnostics
# ---------------------------------------------------------------------------


def _params():
    return NibbleParams(eps=0.25, k=2, L=40.0, N=20.0)


def test_exact_isolated_edge_is_K_to_k():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.unit({0: [3]})
    params = _params()
    exact = exact_expectations(g, lists, EdgeCorrespondence(), params)
    assert exact[0] == pytest.approx(params.K**2, abs=1e-12)


def test_exact_identity_on_micro_instances():
    hits = 0
    for seed in range(12):
        graph, lists, sigma, _ = random_micro_instance(seed)
        if bernoulli_trial_count(lists, graph.k) > 20:
            continue
        params = NibbleParams(eps=0.25, k=graph.k, L=40.0, N=20.0)
        exact = exact_expectations(graph, lists, sigma, params)
        for e in lists.edge_ids():
            assert exact[e] == pytest.approx(lists.list_weight(e) * params.K**graph.k, abs=1e-9)
        hits += 1
    assert hits >= 8


def test_diagnostic_exact_matches_monte_carlo():
    graph, lists, sigma, _ = random_micro_instance(3)
    params = NibbleParams(eps=0.25, k=graph.k, L=40.0, N=20.0)
    report = expectation_diagnostic(graph, lists, sigma, params, trials=20_000, seed=9)
    assert report.exact_available
    for d in report.edges:
        assert d.exact == pytest.approx(d.theoretical, abs=1e-9)
        if d.std_err > 0:
            assert abs(d.empirical_mean - d.exact) <= 5 * d.std_err


def test_diagnostic_reproducible():
    graph, lists, sigma, _ = random_micro_instance(5)
    params = NibbleParams(eps=0.25, k=graph.k, L=40.0, N=20.0)
    a = expectation_diagnostic(graph, lists, sigma, params, trials=1, seed=2)
    b = expectation_diagnostic(graph, lists, sigma, params, trials=1, seed=2)
    assert a.to_dict() == b.to_dict()


def test_diagnostic_draws_its_trials_a_bounded_chunk_at_a_time(monkeypatch):
    # 2,880 pairs: 1,000 trials drawn at once peak near 57 bytes per trial
    # and pair (157 MiB); a chunk at a time, at the survival flags, a byte
    # per trial and pair, and one chunk of at most CONFLICT_CHUNK bytes.
    g = generate(GeneratorSpec(kind="regular-graph", n=60, d=8, seed=1))
    lists = build_local_lists(g, 0.5, 32, seed=1)
    params = NibbleParams(eps=0.25, k=2, L=40.0, N=20.0)
    tracemalloc.start()
    try:
        expectation_diagnostic(g, lists, EdgeCorrespondence(), params, trials=1000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * lists.mu.size + 2 * CONFLICT_CHUNK
    # A trial per chunk draws what one chunk does: trial t is round t, attempt 0.
    whole = expectation_diagnostic(g, lists, EdgeCorrespondence(), params, trials=30, seed=3, collect_samples=True)
    monkeypatch.setattr(harness, "CONFLICT_CHUNK", 1)
    single = expectation_diagnostic(g, lists, EdgeCorrespondence(), params, trials=30, seed=3, collect_samples=True)
    assert single.to_dict() == whole.to_dict()
    assert all(single.samples[e].tobytes() == whole.samples[e].tobytes() for e in whole.samples)


def test_diagnostic_computes_the_equalizing_values_once(monkeypatch):
    g = generate(GeneratorSpec(kind="regular-graph", n=12, d=4, seed=1))
    lists = build_local_lists(g, 0.5, 16, seed=1)
    calls = []
    equalizing = RoundStructure.equalizing

    def counted(struct, params):
        calls.append(struct.pair_count)
        return equalizing(struct, params)

    monkeypatch.setattr(RoundStructure, "equalizing", counted)
    monkeypatch.setattr(harness, "CONFLICT_CHUNK", 1)  # a chunk per trial
    expectation_diagnostic(g, lists, EdgeCorrespondence(), _params(), trials=5, seed=3)
    assert calls == [lists.mu.size]


def test_diagnostic_requires_positive_trials():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.unit({0: [3]})
    with pytest.raises(PreconditionError):
        expectation_diagnostic(g, lists, EdgeCorrespondence(), _params(), trials=0)


def test_exact_rejects_oversized_instances():
    g = path_graph(4)
    lists = WeightedListAssignment.unit({e: list(range(10)) for e in range(4)})
    with pytest.raises(PreconditionError):
        exact_expectations(g, lists, EdgeCorrespondence(), _params())


# ---------------------------------------------------------------------------
# neighbourhood_audit
# ---------------------------------------------------------------------------


def test_audit_regular_shared_lists():
    d = 4
    g = generate(GeneratorSpec(kind="regular-graph", n=10, d=d, seed=2))
    lists = WeightedListAssignment.unit({e: [0, 1, 2] for e in range(g.edge_count)})
    audit = neighbourhood_audit(g, lists, EdgeCorrespondence())
    assert audit.max_neighbourhood == pytest.approx(d - 1)
    assert audit.min_list_weight == pytest.approx(3.0)


def test_audit_witness_is_first_maximum_in_edge_vertex_colour_order():
    # Edge 0 = (0, 1) meets edge 1 at vertex 1 on colour 0 and edge 2 at
    # vertex 0 on colour 1: two neighbourhoods of weight 1 tie for the
    # maximum.  (edge, vertex, colour) order takes vertex 0 first, although
    # colour 0 comes first among the pairs of edge 0.
    g = LinearHypergraph.build(4, [(0, 1), (1, 2), (0, 3)], k=2)
    lists = WeightedListAssignment.build(
        {0: [0, 1], 1: [0], 2: [1]},
        {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0, (2, 1): 1.0},
    )
    audit = neighbourhood_audit(g, lists, EdgeCorrespondence())
    assert audit.max_neighbourhood == 1.0
    assert audit.max_neighbourhood_witness == (0, 0, 1)
    # a strict maximum later in that order wins
    lighter = WeightedListAssignment.build(
        {0: [0, 1], 1: [0], 2: [1]},
        {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0, (2, 1): 0.5},
    )
    audit = neighbourhood_audit(g, lighter, EdgeCorrespondence())
    assert audit.max_neighbourhood == 1.0
    assert audit.max_neighbourhood_witness == (0, 1, 0)
    audit = neighbourhood_audit(g, lists, EdgeCorrespondence(maps={(0, 2): {1: 5}}))
    assert audit.max_neighbourhood_witness == (0, 1, 0)  # colour 1 of edge 0 no longer meets edge 2


def _colour_sums_by_dict(struct):
    """The audit's largest (vertex, colour) weight sum and its witness, as
    one Python dict adds the weights, pair by pair in pair order."""
    sums: dict[tuple[int, int], float] = {}
    for vertices, c, w in zip(struct.vertex_of.tolist(), struct.lists.colour_of.tolist(), struct.lists.mu.tolist()):
        for v in vertices:
            sums[v, c] = sums.get((v, c), 0.0) + w
    if not sums:
        return 0.0, None
    key = max(sorted(sums), key=lambda kv: sums[kv])
    return sums[key], key


# Weights whose sums round differently in another order, and ties.
_AUDIT_WEIGHT = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3, 0.5, 1.0]) | st.floats(0.01, 1.0)


@given(
    st.sampled_from([path_graph(4), star_graph(5), triangle_graph(), LinearHypergraph.build(3, [(0,), (0,), (1,)], k=1),
                     LinearHypergraph.build(9, [(0, 1, 2), (0, 3, 4), (2, 5, 6), (3, 7, 8)], k=3)]),
    st.lists(st.lists(st.tuples(st.integers(0, 4), _AUDIT_WEIGHT), max_size=5), min_size=6, max_size=6),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_audit_colour_sums_equal_a_dict_to_the_bit(graph, rows, mapped):
    from nibble_colour.nibble import RoundStructure

    lists = WeightedListAssignment.build(
        {e: [c for c, _ in rows[e]] for e in range(graph.edge_count)},
        {(e, c): w for e in range(graph.edge_count) for c, w in rows[e]},
    )
    sigma = EdgeCorrespondence(maps={(0, 1): {c: (c + 1) % 5 for c in range(5)}} if mapped and graph.k > 1 else {})
    audit = neighbourhood_audit(graph, lists, sigma)
    struct = RoundStructure.build(graph, lists, sigma)
    best, witness = _colour_sums_by_dict(struct)
    assert audit.max_colour_sum.hex() == best.hex() and audit.max_colour_sum_witness == witness
    assert struct.max_colour_sum() == (best, witness)  # positive sums: equal floats are equal bits


def test_audit_disjoint_lists():
    g = path_graph(3)
    lists = WeightedListAssignment.unit({0: [0], 1: [1], 2: [2]})
    audit = neighbourhood_audit(g, lists, EdgeCorrespondence())
    assert audit.max_neighbourhood == 0.0
    assert audit.max_neighbourhood_witness is None
