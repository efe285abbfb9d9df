"""Shared builders for small test instances."""

from __future__ import annotations

import numpy as np

from nibble_colour import rng
from nibble_colour.core import (
    EdgeCorrespondence,
    LinearHypergraph,
    WeightedListAssignment,
)


def as_dicts(lists: WeightedListAssignment) -> tuple[dict, dict]:
    """A pair table as {edge: colours} and {(edge, colour): weight},
    read through the scalar readers."""
    colours = {e: lists.colours(e) for e in lists.edge_ids()}
    return colours, {(e, c): lists.weight(e, c) for e, cs in colours.items() for c in cs}


def pair_table(lists: WeightedListAssignment) -> tuple[list, ...]:
    """The four arrays of a pair table as Python lists, for comparisons."""
    return lists.edges.tolist(), lists.edge_ptr.tolist(), lists.colour_of.tolist(), lists.mu.tolist()


def path_graph(n_edges: int) -> LinearHypergraph:
    return LinearHypergraph.build(n_edges + 1, [(i, i + 1) for i in range(n_edges)], k=2)


def star_graph(leaves: int) -> LinearHypergraph:
    return LinearHypergraph.build(leaves + 1, [(0, i + 1) for i in range(leaves)], k=2)


def triangle_graph() -> LinearHypergraph:
    return LinearHypergraph.build(3, [(0, 1), (0, 2), (1, 2)], k=2)


FANO_LINES = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
]


def fano_hypergraph() -> LinearHypergraph:
    return LinearHypergraph.build(7, FANO_LINES, k=3)


def random_sigma(
    graph: LinearHypergraph,
    universe: int,
    seed: int,
    density: float = 0.5,
) -> EdgeCorrespondence:
    """Random partial bijections on a fraction of adjacent edge pairs;
    inverse-consistent by construction (one direction stored per pair)."""
    maps: dict[tuple[int, int], dict[int, int]] = {}
    done = set()
    for e in range(graph.edge_count):
        for f in graph.adjacent_edges(e):
            key = (min(e, f), max(e, f))
            if key in done:
                continue
            done.add(key)
            if rng.uniform(seed, 91, key[0], key[1]) >= density:
                continue
            perm = rng.permutation(seed, 92, universe, key[0], key[1])
            maps[key] = {c: int(perm[c]) for c in range(universe)}
    return EdgeCorrespondence(maps=maps)


def random_micro_instance(seed: int, trial_budget: int = 20):
    """A tiny random instance for exhaustive-enumeration tests.

    At most 4 edges and 3 colours per list, weights in (0.05, 1], optional
    non-identity correspondences; the total Bernoulli trial count
    (activations plus flips) stays within `trial_budget`.
    """
    shapes = [
        ("path2", path_graph(2)),
        ("path3", path_graph(3)),
        ("star3", star_graph(3)),
        ("triangle", triangle_graph()),
        ("pair3", LinearHypergraph.build(5, [(0, 1, 2), (0, 3, 4)], k=3)),
        ("path4", path_graph(4)),
    ]
    name, graph = shapes[int(rng.uniform(seed, 80) * len(shapes)) % len(shapes)]
    k = graph.k
    universe = 6
    max_pairs = trial_budget // (1 + k)
    lists: dict[int, list[int]] = {}
    weights: dict[tuple[int, int], float] = {}
    budget = max_pairs
    for e in range(graph.edge_count):
        remaining_edges = graph.edge_count - e
        most = max(1, min(3, budget - (remaining_edges - 1)))
        size = 1 + int(rng.uniform(seed, 81, e) * most) % most
        budget -= size
        cols = [int(c) for c in rng.subset(seed, 82, universe, size, e)]
        lists[e] = cols
        for c in cols:
            weights[(e, c)] = 0.05 + 0.95 * rng.uniform(seed, 83, e, c)
    sigma = (
        random_sigma(graph, universe, seed, density=0.4)
        if rng.uniform(seed, 84) < 0.5
        else EdgeCorrespondence()
    )
    return graph, WeightedListAssignment.build(lists, weights), sigma, name
