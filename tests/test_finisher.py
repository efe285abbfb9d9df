import heapq
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from nibble_colour.core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PreconditionError,
    WeightedListAssignment,
    validate_colouring,
)
from nibble_colour.finisher import (
    ResampleLog,
    feasibility_check,
    finish,
    lll_symmetric_check,
    sample_colour,
    to_link_instance,
    weighted_binom_bound,
)
from conftest import as_dicts, fano_hypergraph, path_graph, random_micro_instance, random_sigma, triangle_graph

from nibble_colour import rng


# ---------------------------------------------------------------------------
# to_link_instance
# ---------------------------------------------------------------------------


def test_link_instance_of_triangle_is_triangle():
    g = triangle_graph()
    lists = WeightedListAssignment.unit({e: [0, 1] for e in range(3)})
    link = to_link_instance(g, lists, EdgeCorrespondence())
    assert link.nodes == (0, 1, 2)
    assert link.adjacency == {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def test_link_instance_single_edge_isolated():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.unit({0: [0]})
    link = to_link_instance(g, lists, EdgeCorrespondence())
    assert link.nodes == (0,) and link.adjacency == {0: ()}


def test_link_instance_fano_degrees():
    g = fano_hypergraph()
    lists = WeightedListAssignment.unit({e: [0] for e in range(7)})
    link = to_link_instance(g, lists, EdgeCorrespondence())
    # every pair of Fano lines intersects, so each node sees all 6 others
    intersect_counts = [
        sum(1 for f in range(7) if f != e and set(g.edges[e]) & set(g.edges[f]))
        for e in range(7)
    ]
    assert intersect_counts == [6] * 7
    assert all(len(link.adjacency[u]) == 6 for u in link.nodes)


def test_link_instance_preserves_blocking():
    for seed in range(25):
        graph, lists, sigma, _ = random_micro_instance(seed)
        link = to_link_instance(graph, lists, sigma)
        for e in lists.edge_ids():
            for f in lists.edge_ids():
                if e == f or graph.shared_vertex(e, f) is None:
                    continue
                for c in lists.colours(e):
                    for c2 in lists.colours(f):
                        assert sigma.blocks(e, c, f, c2) == link.sigma.blocks(e, c, f, c2)


def test_link_adjacency_is_adjacent_edges_within_active():
    cases = [(fano_hypergraph(), None), (triangle_graph(), {0, 2})]
    for seed in range(30):
        graph, lists, sigma, _ = random_micro_instance(seed)
        cases.append((graph, None))
        cases.append((graph, {e for e in range(graph.edge_count) if e % 2 == seed % 2}))
    for graph, active in cases:
        lists = WeightedListAssignment.unit({e: [0] for e in range(graph.edge_count)})
        if active is not None:
            lists = lists.restrict_to_edges(active)
        link = to_link_instance(graph, lists, EdgeCorrespondence())
        keep = set(range(graph.edge_count)) if active is None else active
        expected = {u: tuple(f for f in graph.adjacent_edges(u) if f in keep) for u in sorted(keep)}
        assert link.nodes == tuple(sorted(keep))
        assert list(link.adjacency) == list(expected)
        assert all(link.adjacency[u] == expected[u] for u in expected)
        assert link.adjacency == expected
        u, w = link.adjacency.pairs()
        assert list(zip(u.tolist(), w.tolist())) == [(a, b) for a in expected for b in expected[a] if a < b]
        for outside in (-1, graph.edge_count, *(set(range(graph.edge_count)) - keep)):
            with pytest.raises(KeyError):
                link.adjacency[outside]


def test_link_instance_keeps_lists_that_active_covers():
    g = path_graph(3)
    lists = WeightedListAssignment.unit({0: [1], 1: [2], 2: [3]})
    assert to_link_instance(g, lists, EdgeCorrespondence()).lists is lists
    sub = lists.restrict_to_edges({0, 2})
    link = to_link_instance(g, sub, EdgeCorrespondence())
    assert link.lists is sub and link.nodes == (0, 2)
    assert as_dicts(link.lists) == ({0: (1,), 2: (3,)}, {(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(PreconditionError):
        to_link_instance(g, WeightedListAssignment.unit({0: [1], 3: [2]}), EdgeCorrespondence())


# ---------------------------------------------------------------------------
# feasibility / LLL checks
# ---------------------------------------------------------------------------


def test_feasibility_boundary():
    assert feasibility_check(3 * math.e * 2 * 5.0, 5.0, 2)


def test_feasibility_16_vs_17():
    assert not feasibility_check(16.0, 1.0, 2)  # 6e ~ 16.31
    assert feasibility_check(17.0, 1.0, 2)


def test_feasibility_zero_neighbourhood():
    assert feasibility_check(1.0, 0.0, 3)


def test_lll_symmetric_check():
    assert lll_symmetric_check(0.0, 10**6)
    d = 7
    assert lll_symmetric_check(1.0 / (math.e * (d + 1)), d)
    assert not lll_symmetric_check(0.1, 9)  # e * 0.1 * 10 = e > 1


# ---------------------------------------------------------------------------
# weighted_binom_bound
# ---------------------------------------------------------------------------


def brute_symmetric(p_values, k):
    return sum(math.prod(s) for s in itertools.combinations(p_values, k))


def test_binom_bound_example():
    lhs, rhs = weighted_binom_bound([0.5, 0.5, 0.5, 0.5], 2)
    assert lhs == pytest.approx(6 * 0.25)
    assert rhs == pytest.approx((math.e * 2.0 / 2) ** 2)
    assert lhs <= rhs


def test_binom_bound_k1():
    lhs, rhs = weighted_binom_bound([0.3], 1)
    assert lhs == pytest.approx(0.3)
    assert rhs == pytest.approx(math.e * 0.3)
    lhs, rhs = weighted_binom_bound([0.2, 0.7, 0.4], 1)
    assert lhs == pytest.approx(1.3)


def test_binom_bound_k_exceeds_n():
    lhs, rhs = weighted_binom_bound([0.5, 0.5], 5)
    assert lhs == 0.0


def test_binom_bound_matches_brute_force():
    for seed in range(60):
        n = 1 + int(rng.uniform(seed, 70) * 12)
        k = 1 + int(rng.uniform(seed, 71) * 6)
        ps = [0.01 + 0.99 * rng.uniform(seed, 72, i) for i in range(n)]
        lhs, rhs = weighted_binom_bound(ps, k)
        assert lhs == pytest.approx(brute_symmetric(ps, k), rel=1e-12)
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# finish
# ---------------------------------------------------------------------------


def _cycle_instance(n, list_size, universe, seed, weights_unit=True):
    g = LinearHypergraph.build(n, [(i, (i + 1) % n) for i in range(n)], k=2)
    lists = {}
    weights = {}
    for e in range(n):
        cols = [int(c) for c in rng.subset(seed, rng.KIND_LISTS, universe, list_size, e)]
        lists[e] = cols
        for c in cols:
            weights[(e, c)] = 1.0 if weights_unit else 0.5 + 0.5 * rng.uniform(seed, 60, e, c)
    return g, WeightedListAssignment.build(lists, weights)


def test_finish_no_possible_block_zero_resamples():
    g = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    lists = WeightedListAssignment.unit({0: [1, 2], 1: [5, 6]})  # disjoint images
    link = to_link_instance(g, lists, EdgeCorrespondence())
    colours, log = finish(link, seed=0)
    assert log.outcome == "success" and log.iterations == 0
    assert validate_colouring(g, lists, EdgeCorrespondence(), colours) == []


def test_finish_unsatisfiable_exhausts_cap():
    g = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    lists = WeightedListAssignment.unit({0: [1], 1: [1]})
    link = to_link_instance(g, lists, EdgeCorrespondence())
    colours, log = finish(link, seed=0, iteration_cap=50)
    assert log.outcome == "cap-exhausted"
    assert log.iterations == 50
    assert validate_colouring(g, lists, EdgeCorrespondence(), colours) != []


def test_finish_cycle_succeeds_with_few_resamples():
    total, seeds = 0, 10
    for seed in range(seeds):
        g, lists = _cycle_instance(10, 100, 300, seed)
        link = to_link_instance(g, lists, EdgeCorrespondence())
        colours, log = finish(link, seed=seed)
        assert log.outcome == "success"
        assert validate_colouring(g, lists, EdgeCorrespondence(), colours) == []
        total += log.iterations
    assert total / seeds <= 10  # nodes per instance


def test_finish_deterministic():
    g, lists = _cycle_instance(12, 6, 18, 3)
    link = to_link_instance(g, lists, EdgeCorrespondence())
    a = finish(link, seed=11)
    b = finish(link, seed=11)
    assert a[0] == b[0] and a[1].resampled == b[1].resampled


def test_finish_with_correspondences_validates():
    for seed in range(20):
        graph, lists, sigma, _ = random_micro_instance(seed)
        link = to_link_instance(graph, lists, sigma)
        colours, log = finish(link, seed=seed, iteration_cap=4000)
        if log.outcome == "success":
            assert validate_colouring(graph, lists, sigma, colours) == []
            assert all(colours[e] in lists.colours(e) for e in lists.edge_ids())


def test_finish_empty_list_raises():
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.build({0: []}, {})
    link = to_link_instance(g, lists, EdgeCorrespondence())
    with pytest.raises(PreconditionError):
        finish(link, seed=0)


def reference_sample(lists, node, seed, counter):
    """The sampler as first written, with the total summed left to right
    and the draw taken from the array evaluation of the stream."""
    colours = lists.colours(node)
    if not colours:
        raise PreconditionError(f"node {node} has an empty list")
    total = 0.0
    for c in colours:
        total += lists.weight(node, c)
    kind = rng.KIND_SAMPLE if counter == 0 else rng.KIND_RESAMPLE
    u = float(rng.uniforms(seed, kind, node, counter)) * total
    acc = 0.0
    for c in colours:
        acc += lists.weight(node, c)
        if u < acc:
            return c
    return colours[-1]


def reference_finish(inst, seed=0, iteration_cap=None):
    """The resample loop as first written: one scalar draw per sample,
    `sigma.blocks` per pair, a lazy heap of violations."""
    if iteration_cap is None:
        iteration_cap = 100 * len(inst.nodes)
    log = ResampleLog()
    colours = {u: reference_sample(inst.lists, u, seed, 0) for u in inst.nodes}

    def violation(u, w):
        cu, cw = colours[u], colours[w]
        return (u, w, cu, cw) if inst.sigma.blocks(u, cu, w, cw) else None

    heap = []
    for u in inst.nodes:
        for w in inst.adjacency[u]:
            if u < w and (ev := violation(u, w)):
                heapq.heappush(heap, ev)
    counter = 0
    while heap:
        if log.iterations >= iteration_cap:
            log.outcome = "cap-exhausted"
            return colours, log
        ev = heapq.heappop(heap)
        u, w, cu, cw = ev
        if colours[u] != cu or colours[w] != cw or not inst.sigma.blocks(u, cu, w, cw):
            continue
        log.iterations += 1
        log.resampled.append(ev)
        counter += 1
        colours[u] = reference_sample(inst.lists, u, seed, counter)
        colours[w] = reference_sample(inst.lists, w, seed, counter)
        for x in (u, w):
            for y in inst.adjacency[x]:
                if nev := violation(min(x, y), max(x, y)):
                    heapq.heappush(heap, nev)
    return colours, log


def _oracle_cases():
    """(label, link instance, seed, cap): 70 small instances."""
    for seed in range(30):  # stored partial correspondences in about half
        graph, lists, sigma, _ = random_micro_instance(seed)
        yield "micro", to_link_instance(graph, lists, sigma), seed, None
    for seed in range(10):  # non-unit weights, many violations
        g, lists = _cycle_instance(12, 3, 5, seed, weights_unit=False)
        yield "cycle", to_link_instance(g, lists, EdgeCorrespondence()), seed, None
    for seed in range(10):  # a cap the loop runs into
        g, lists = _cycle_instance(10, 2, 3, seed, weights_unit=False)
        yield "cap", to_link_instance(g, lists, EdgeCorrespondence()), seed, 1 + seed % 3
    for seed in range(5):  # isolated nodes beside a path
        g = LinearHypergraph.build(9, [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)], k=2)
        lists = WeightedListAssignment.build(
            {e: [0, 1] for e in range(5)},
            {(e, c): 0.25 + 0.75 * rng.uniform(seed, 61, e, c) for e in range(5) for c in (0, 1)},
        )
        yield "isolated", to_link_instance(g, lists, EdgeCorrespondence()), seed, None
    for seed in range(10):  # an active subset
        graph, lists, sigma, _ = random_micro_instance(100 + seed)
        active = {e for e in lists.edge_ids() if rng.uniform(seed, 62, e) < 0.7} or {0}
        yield "active", to_link_instance(graph, lists.restrict_to_edges(active), sigma), seed, None
    for seed in range(5):  # stored maps on a star: rows of twenty neighbours
        g = LinearHypergraph.build(23, [(0, i) for i in range(1, 21)] + [(1, 21), (21, 22)], k=2)
        lists = WeightedListAssignment.build(
            {e: rng.subset(seed, 63, 8, 5, e).tolist() for e in range(g.edge_count)},
            {(e, c): 0.25 + 0.75 * rng.uniform(seed, 64, e, c) for e in range(g.edge_count) for c in range(8)},
        )
        yield "long rows", to_link_instance(g, lists, random_sigma(g, 8, seed, density=0.5)), seed, 60
    # A few hundred nodes and many resamples: a 300-cycle with 3 of 4
    # colours per edge, and partial maps on about half of the pairs,
    # stored one way or the other.
    g, lists = _cycle_instance(300, 3, 4, 0, weights_unit=False)
    maps = {}
    for e in range(300):
        pair = (min(e, (e + 1) % 300), max(e, (e + 1) % 300))
        if rng.uniform(0, 93, *pair) < 0.5:
            image = rng.permutation(0, 94, 4, *pair).tolist()
            maps[pair if rng.uniform(0, 95, *pair) < 0.5 else pair[::-1]] = {c: image[c] for c in range(3)}
    yield "large", to_link_instance(g, lists, EdgeCorrespondence(maps)), 0, None


def test_finish_matches_reference_oracle():
    seen = set()
    for label, link, seed, cap in _oracle_cases():
        colours, log = finish(link, seed=seed, iteration_cap=cap)
        ref_colours, ref_log = reference_finish(link, seed=seed, iteration_cap=cap)
        assert colours == ref_colours, (label, seed)
        assert (log.iterations, log.resampled, log.outcome) == (
            ref_log.iterations, ref_log.resampled, ref_log.outcome,
        ), (label, seed)
        seen.add(label)
        if log.iterations:
            seen.add("resampled")
        if log.outcome == "cap-exhausted":
            seen.add("cap-exhausted")
        if not link.sigma.is_trivial and log.iterations:
            seen.add("stored maps resampled")
        if len(link.nodes) >= 300 and log.iterations >= 100:
            seen.add("many resamples")
    assert seen >= {"micro", "cycle", "cap", "isolated", "active", "long rows", "large", "resampled",
                    "cap-exhausted", "stored maps resampled", "many resamples"}


def test_sampler_total_is_the_left_to_right_sum(monkeypatch):
    # Left to right, ten weights of 0.1 sum to 0.9999999999999999; a
    # compensated sum (Python 3.12's `sum`) gives 1.0.  With the draw
    # u = 0.1 the target u * total is then just below the first colour's
    # cumulative weight 0.1, so colour 0 is drawn; a total of 1.0 would
    # put the target on it and draw colour 1.
    total = 0.0
    for _ in range(10):
        total += 0.1
    assert total == 0.9999999999999999 and 0.1 * total < 0.1
    g = LinearHypergraph.build(2, [(0, 1)], k=2)
    lists = WeightedListAssignment.build({0: range(10)}, {(0, c): 0.1 for c in range(10)})
    monkeypatch.setattr(rng, "uniform", lambda *key: 0.1)
    monkeypatch.setattr(rng, "uniforms", lambda seed, kind, *words: np.full(np.broadcast(*words).shape, 0.1))
    assert sample_colour(lists, 0, seed=5, counter=0) == 0
    assert sample_colour(lists, 0, seed=5, counter=3) == 0
    colours, _ = finish(to_link_instance(g, lists, EdgeCorrespondence()), seed=5)
    assert colours == {0: 0}


def test_a_resample_on_a_cumulative_weight_picks_as_sample_colour(monkeypatch):
    # Weights of 1/4 sum exactly, so the draw u = 1/2 puts the target
    # u * total on the cumulative weight 1/2 of colour 1: the rule takes the
    # first weight above it, colour 2, in the first sample and in the first
    # resample.  Node 1 lists colour 2 only, so both block until a later
    # draw, u = 1/10, picks colour 0.
    g = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    lists = WeightedListAssignment.build({0: range(4), 1: [2]}, {**{(0, c): 0.25 for c in range(4)}, (1, 2): 1.0})

    def u(counter):
        return 0.5 if counter <= 1 else 0.1

    monkeypatch.setattr(rng, "uniforms", lambda seed, kind, *words: np.full(np.broadcast(*words).shape, u(words[-1])))
    monkeypatch.setattr(rng, "uniform", lambda seed, kind, *words: u(words[-1]))
    monkeypatch.setattr(rng, "uniform_after", lambda prefix, word: u(word))
    assert [sample_colour(lists, 0, seed=3, counter=i) for i in range(3)] == [2, 2, 0]
    link = to_link_instance(g, lists, EdgeCorrespondence())
    colours, log = finish(link, seed=3)
    assert log.resampled == [(0, 1, 2, 2), (0, 1, 2, 2)]
    assert colours == {0: sample_colour(lists, 0, 3, 2), 1: sample_colour(lists, 1, 3, 2)} == {0: 0, 1: 2}
    ref_colours, ref_log = reference_finish(link, seed=3)
    assert (colours, log.resampled) == (ref_colours, ref_log.resampled)


def test_finish_rejects_a_negative_or_nan_weight():
    g = LinearHypergraph.build(3, [(0, 1), (1, 2)], k=2)
    for bad in (-0.5, math.nan):
        lists = WeightedListAssignment.build({0: [1, 2], 1: [1]}, {(0, 1): 1.0, (0, 2): 1.0, (1, 1): bad})
        with pytest.raises(PreconditionError, match="node 1 has a negative or NaN weight"):
            finish(to_link_instance(g, lists, EdgeCorrespondence()), seed=0)


def test_finish_missing_weight_raises_like_the_reference():
    from nibble_colour.core import MissingWeightError

    # A listed colour without a weight cannot reach the finisher: the
    # pair table refuses it at construction.
    with pytest.raises(MissingWeightError, match="edge 1, colour 2"):
        WeightedListAssignment.build({0: (1,), 1: (1, 2), 2: ()}, {(0, 1): 1.0, (1, 1): 1.0})


def test_sampling_distribution_chi_squared():
    """Sampled colour frequencies match mu(v, .)/|L(v)|_mu on a 5-colour node."""
    weights = {1: 0.1, 2: 0.15, 3: 0.2, 4: 0.25, 5: 0.3}
    lists = WeightedListAssignment.build({0: list(weights)}, {(0, c): w for c, w in weights.items()})
    draws = 100_000
    counts = {c: 0 for c in weights}
    for i in range(draws):
        counts[sample_colour(lists, 0, seed=123, counter=i)] += 1
    total_w = sum(weights.values())
    expected = [draws * w / total_w for w in weights.values()]
    observed = [counts[c] for c in weights]
    _, p_value = stats.chisquare(observed, expected)
    assert p_value >= 0.001
