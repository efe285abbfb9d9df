import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from nibble_colour import rng
from nibble_colour.core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PreconditionError,
    WeightedListAssignment,
)
from nibble_colour.harness import GeneratorSpec, generate
from nibble_colour.polytope import (
    DEFAULT_TOLERANCE,
    MembershipVerdict,
    UnsupportedInstanceError,
    Witness,
    edmonds_membership,
    lists_to_fractional,
    polytope_lists_to_weights,
)
from conftest import triangle_graph
from oracles import enumerate_matchings


def _popcount(masks: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(masks)
    m = masks.copy()
    while m.any():
        counts += m & 1
        m >>= 1
    return counts


def enumerated_membership(graph, x, shrink=0.0, tol=DEFAULT_TOLERANCE):
    """Oracle: the membership test by exhaustive enumeration of the 2^n
    vertex subsets of range(vertex_count).  Returns the verdict, whose
    witness is the first violated constraint in canonical order (edge id,
    vertex id, subset rank), and the least slack of any odd set of at least
    3 vertices (inf when there is none)."""
    n = graph.vertex_count
    y = {e: x[e] / (1.0 - shrink) for e in range(graph.edge_count)}
    least = math.inf
    for e in range(graph.edge_count):
        if y[e] < -tol:
            return MembershipVerdict(False, Witness("nonnegativity", (e,), y[e])), least
    for v in range(n):
        load = sum(y[e] for e in graph.edges_at(v))
        if load > 1.0 + tol:
            return MembershipVerdict(False, Witness("degree", (v,), 1.0 - load)), least
    masks = np.arange(1 << n, dtype=np.int64)
    pc = _popcount(masks)
    odd = (pc >= 3) & (pc % 2 == 1)
    inside_weight = np.zeros(1 << n, dtype=np.float64)
    for e, (u, v) in enumerate(graph.edges):
        both = ((masks >> u) & 1).astype(bool) & ((masks >> v) & 1).astype(bool)
        inside_weight += both * y[e]
    budget = (pc - 1) / 2.0
    if odd.any():
        least = float((budget - inside_weight)[odd].min())
    violated = odd & (inside_weight > budget + tol)
    if violated.any():
        mask = int(masks[violated][0])  # canonical order: smallest mask
        subset = tuple(v for v in range(n) if (mask >> v) & 1)
        slack = float(budget[mask] - inside_weight[mask])
        return MembershipVerdict(False, Witness("odd-set", subset, slack)), least
    return MembershipVerdict(True, None), least


def _odd_set_slack(graph, y, subset):
    """(|W|-1)/2 - y(E(W)), recomputed from the definition."""
    members = set(subset)
    return (len(subset) - 1) / 2.0 - sum(y[e] for e, edge in enumerate(graph.edges) if members >= set(edge))


def _agrees_with_the_oracle(graph, x, shrink=0.0, tol=DEFAULT_TOLERANCE):
    """edmonds_membership against the oracle: the same verdict, the same
    nonnegativity or degree witness, and on an odd-set violation an odd set
    of at least 3 vertices whose slack is both its recomputed slack and the
    oracle's least slack."""
    verdict = edmonds_membership(graph, x, shrink=shrink, tol=tol)
    expected, least = enumerated_membership(graph, x, shrink=shrink, tol=tol)
    assert verdict.inside == expected.inside
    if expected.inside:
        assert verdict.witness is None
        return
    witness = verdict.witness
    assert witness.kind == expected.witness.kind
    if witness.kind != "odd-set":
        assert witness.subject == expected.witness.subject
        assert witness.slack == pytest.approx(expected.witness.slack, abs=1e-12)
        return
    assert len(witness.subject) >= 3 and len(witness.subject) % 2 == 1
    assert list(witness.subject) == sorted(set(witness.subject))
    y = {e: x[e] / (1.0 - shrink) for e in range(graph.edge_count)}
    assert witness.slack == pytest.approx(_odd_set_slack(graph, y, witness.subject), abs=1e-9)
    assert witness.slack == pytest.approx(least, abs=1e-9)


def test_single_edge_indicator_inside():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    verdict = edmonds_membership(g, {0: 1.0})
    assert verdict.inside and verdict.witness is None


def test_zero_vector_inside():
    g = triangle_graph()
    assert edmonds_membership(g, {e: 0.0 for e in range(3)}).inside


def test_triangle_half_vector_odd_set_witness():
    g = triangle_graph()
    verdict = edmonds_membership(g, {e: 0.5 for e in range(3)})
    assert not verdict.inside
    assert verdict.witness.kind == "odd-set"
    assert verdict.witness.subject == (0, 1, 2)
    assert verdict.witness.slack == pytest.approx(1.0 - 1.5)


def test_degree_violation_witness():
    g = LinearHypergraph.build(3, [(0, 1), (0, 2)], k=2)
    verdict = edmonds_membership(g, {0: 0.7, 1: 0.7})
    assert not verdict.inside and verdict.witness.kind == "degree"
    assert verdict.witness.subject == (0,)


def test_nonnegativity_witness():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    verdict = edmonds_membership(g, {0: -0.5})
    assert not verdict.inside and verdict.witness.kind == "nonnegativity"


def test_every_graph_size_gets_a_verdict_and_k3_is_unsupported():
    g = LinearHypergraph.build(25, [(0, 1)], k=2)
    assert edmonds_membership(g, {0: 0.1}).inside
    g3 = LinearHypergraph.build(3, [(0, 1, 2)], k=3)
    with pytest.raises(UnsupportedInstanceError):
        edmonds_membership(g3, {0: 0.1})
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    with pytest.raises(PreconditionError):
        edmonds_membership(g, {})  # undefined on edge 0


@pytest.mark.parametrize("x", [
    {0: math.nan, 1: 0.0, 2: 0.0},
    {0: math.inf, 1: 0.0, 2: 0.0},
    {0: 0.0, 1: -math.inf, 2: 0.0},
    {0: 0.0, 1: 0.0, 2: 0.0, 7: 0.5},
], ids=["nan", "inf", "-inf", "unknown edge 7"])
def test_non_finite_or_unknown_entries_are_rejected(x):
    with pytest.raises(PreconditionError):
        edmonds_membership(triangle_graph(), x)


def test_cost_follows_the_edges_not_vertex_count():
    g = LinearHypergraph.build(10**9, [(0, 1), (1, 2), (0, 2), (10**9 - 2, 10**9 - 1)], k=2)
    verdict = edmonds_membership(g, {0: 0.5, 1: 0.5, 2: 0.5, 3: 1.0})
    assert verdict.witness == Witness("odd-set", (0, 1, 2), -0.5)


def _random_graph(seed, n=7, p=0.5):
    return generate(GeneratorSpec(kind="random-graph", n=n, p=p, seed=seed))


def test_all_matching_indicators_inside():
    for seed in range(8):
        g = _random_graph(seed)
        if g.edge_count == 0 or g.edge_count > 12:
            continue
        for matching in enumerate_matchings(g):
            x = {e: 1.0 if e in matching else 0.0 for e in range(g.edge_count)}
            assert edmonds_membership(g, x).inside


def test_random_convex_combinations_inside():
    for seed in range(6):
        g = _random_graph(seed, n=6, p=0.6)
        if g.edge_count == 0 or g.edge_count > 12:
            continue
        matchings = list(enumerate_matchings(g))
        for trial in range(10):
            coeffs = [rng.uniform(seed, 95, trial, i) for i in range(len(matchings))]
            total = sum(coeffs)
            x = {e: 0.0 for e in range(g.edge_count)}
            for lam, matching in zip(coeffs, matchings):
                for e in matching:
                    x[e] += lam / total
            assert edmonds_membership(g, x, tol=1e-9).inside


def test_shrink_monotonicity():
    for seed in range(10):
        g = _random_graph(seed, n=6, p=0.6)
        if g.edge_count == 0:
            continue
        x = {e: 1.2 * rng.uniform(seed, 96, e) / max(1, g.degree(g.edges[e][0])) for e in range(g.edge_count)}
        passes = [edmonds_membership(g, x, shrink=s).inside for s in (0.0, 0.1, 0.3, 0.5)]
        # passing at larger shrink implies passing at smaller shrink
        for small, large in zip(passes, passes[1:]):
            assert small or not large


def test_lists_to_fractional():
    lists = WeightedListAssignment.unit({0: [1, 2, 3, 4], 1: [1, 2]})
    x = lists_to_fractional(lists)
    assert x == {0: pytest.approx(0.25), 1: pytest.approx(0.5)}
    with pytest.raises(PreconditionError):
        lists_to_fractional(WeightedListAssignment.build({0: []}, {}))


def test_lists_to_fractional_regular_degree_sums():
    g = generate(GeneratorSpec(kind="regular-graph", n=8, d=3, seed=2))
    lists = WeightedListAssignment.unit({e: list(range(4)) for e in range(g.edge_count)})
    x = lists_to_fractional(lists)
    assert all(v == pytest.approx(0.25) for v in x.values())
    for v in range(8):
        assert sum(x[e] for e in g.edges_at(v)) == pytest.approx(0.75)


def test_polytope_lists_to_weights_example():
    # path: big lists, delta = 0.2 -> mu = 1/8, weighted size 1.25
    g = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    lists = WeightedListAssignment.unit({e: list(range(10)) for e in range(2)})
    out = polytope_lists_to_weights(g, lists, 0.2)
    for e in (0, 1):
        assert out.weight(e, 0) == pytest.approx(1 / 8)
        assert sum(out.weight(e, c) for c in out.colours(e)) == pytest.approx(1.25)


def test_polytope_lists_to_weights_delta_limit():
    g = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    lists = WeightedListAssignment.unit({e: list(range(10)) for e in range(2)})
    out = polytope_lists_to_weights(g, lists, 1e-9)
    assert sum(out.weight(0, c) for c in out.colours(0)) == pytest.approx(1.0, abs=1e-6)


def test_polytope_lists_to_weights_range_error():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.unit({0: [1]})
    with pytest.raises(PreconditionError):
        polytope_lists_to_weights(g, lists, 0.5)  # mu = 2 > 1


def test_polytope_lists_to_weights_rejects_outside():
    g = triangle_graph()
    lists = WeightedListAssignment.unit({e: [0, 1] for e in range(3)})  # x = 1/2 violates odd set
    with pytest.raises(PreconditionError):
        polytope_lists_to_weights(g, lists, 0.1)


def test_degree_weight_construction_satisfies_conditions():
    """Weights 1/max-degree with lists of size >= (1+eps) max-degree give
    weighted list size >= 1+eps and per-vertex per-colour sums <= 1."""
    from nibble_colour.harness import build_local_lists, neighbourhood_audit

    eps = 0.5
    for seed in range(5):
        g = _random_graph(seed, n=8, p=0.5)
        if g.edge_count == 0:
            continue
        lists = build_local_lists(g, eps, universe_size=64, mode="degree-weighted", seed=seed)
        for e in lists.edge_ids():
            assert lists.list_weight(e) >= 1 + eps - 1e-12
        audit = neighbourhood_audit(g, lists, EdgeCorrespondence())
        assert audit.max_colour_sum <= 1.0 + 1e-12


# Tolerance of the cross-check.  A draw whose least odd-set slack lies
# within 1e-7 of -tol is skipped: there the verdict turns on rounding, and
# the oracle also counts odd sets padded with vertices on no edge, whose
# slack can fall below 0 by |W| tol / 2 when loads exceed 1 within tol.
# tol = 1e-6 keeps vectors with an exact zero slack (matching indicators)
# outside that band.
CROSS_CHECK_TOL = 1e-6


@st.composite
def _graph_and_vector(draw):
    """A graph of at most 16 vertices and a vector on its edges.  Vertices
    at or above `used` lie on no edge, so vertex_count may exceed the
    largest used id; random edge subsets leave isolated vertices and
    disconnected parts."""
    n = draw(st.integers(3, 16))
    used = draw(st.integers(3, n))
    pairs = [(u, v) for u in range(used) for v in range(u + 1, used)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24))
    kind = draw(st.sampled_from(["random", "random", "odd cycle at 1/2", "matching", "zero"]))
    cycle = []
    if kind in ("random", "odd cycle at 1/2"):
        length = draw(st.sampled_from([c for c in (3, 5, 7, 9) if c <= used]))
        ring = draw(st.permutations(range(used)))[:length]
        cycle = [tuple(sorted((ring[i], ring[(i + 1) % length]))) for i in range(length)]
        edges = sorted(set(edges) | set(cycle))
    graph = LinearHypergraph.build(n, edges, k=2)
    event(f"vector: {kind}")
    if len({v for e in edges for v in e}) < n:
        event("graph has a vertex on no edge")
    if kind == "zero":
        x = {e: 0.0 for e in range(len(edges))}
    elif kind == "matching":
        covered: set[int] = set()
        x = {}
        for e in draw(st.permutations(range(len(edges)))):
            x[e] = 0.0 if covered & set(edges[e]) else 1.0
            if x[e]:
                covered |= set(edges[e])
    elif kind == "odd cycle at 1/2":
        x = {e: 0.5 if edge in cycle else 0.0 for e, edge in enumerate(edges)}
    else:  # scaled so that the heaviest vertex load is `scale`
        raw = [draw(st.floats(0.0, 1.0)) for _ in edges]
        load = np.bincount(np.ravel(edges), np.repeat(raw, 2))  # edges hold the cycle
        scale = draw(st.floats(0.5, 1.2)) / max(load.max(), 1e-3)
        x = {e: scale * w for e, w in enumerate(raw)}
    shrink = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
    return graph, x, shrink


@settings(max_examples=300, deadline=None)
@given(_graph_and_vector())
def test_separation_matches_the_enumeration_oracle(case):
    graph, x, shrink = case
    _, least = enumerated_membership(graph, x, shrink=shrink, tol=CROSS_CHECK_TOL)
    assume(not abs(least + CROSS_CHECK_TOL) < 1e-7)
    verdict = edmonds_membership(graph, x, shrink=shrink, tol=CROSS_CHECK_TOL)
    event(f"{'inside' if verdict.inside else 'violated: ' + verdict.witness.kind} (shrink {shrink})")
    _agrees_with_the_oracle(graph, x, shrink=shrink, tol=CROSS_CHECK_TOL)


def test_separation_on_a_five_cycle_with_a_tight_vertex():
    """A vector inside MP(C5) with one vertex at load 1 and one edge at 0:
    the odd-set cuts are exact, so no fundamental cut is labelled below its
    minimum and no singleton comes out as a violated odd set."""
    graph = LinearHypergraph.build(5, [(0, 2), (0, 4), (1, 3), (1, 4), (2, 3)], k=2)
    x = {0: 0.562019758507135, 1: 0.0, 2: 0.14050493962678376, 3: 0.2810098792535675, 4: 0.437980241492865}
    assert edmonds_membership(graph, x, tol=CROSS_CHECK_TOL) == MembershipVerdict(True, None)
    _agrees_with_the_oracle(graph, x, tol=CROSS_CHECK_TOL)


def test_separation_matches_the_oracle_on_the_c8_graphs():
    """The graphs and vectors of acceptance criterion 8: matching
    indicators, convex combinations, and scaled random vectors under
    several shrinks."""
    graphs = []
    for seed in range(20):
        g = generate(GeneratorSpec(kind="random-graph", n=6, p=0.55, seed=seed))
        if 1 <= g.edge_count <= 12:
            graphs.append(g)
        if len(graphs) == 6:
            break
    violated = 0
    for gi, g in enumerate(graphs):
        matchings = list(enumerate_matchings(g))
        for matching in matchings:
            _agrees_with_the_oracle(g, {e: 1.0 if e in matching else 0.0 for e in range(g.edge_count)})
        for trial in range(17):
            coeffs = [rng.uniform(gi * 17 + trial, 45, i) for i in range(len(matchings))]
            x = {e: 0.0 for e in range(g.edge_count)}
            for lam, matching in zip(coeffs, matchings):
                for e in matching:
                    x[e] += lam / sum(coeffs)
            _agrees_with_the_oracle(g, x)
        for trial in range(10):
            x = {e: 0.9 * rng.uniform(gi * 10 + trial, 46, e) for e in range(g.edge_count)}
            for shrink in (0.0, 0.05, 0.15, 0.3, 0.45):
                _agrees_with_the_oracle(g, x, shrink=shrink)
                violated += not edmonds_membership(g, x, shrink=shrink).inside
    assert violated > 0
