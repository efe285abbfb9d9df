"""Constructive endgame colouring via resampling on the link graph.

When the weighted list size L dominates every colour neighbourhood weight
N by a factor of at least 3ek, a product distribution that picks each
edge's colour proportionally to its weights avoids all blocking pairs with
positive probability.  This module makes that existence proof operational:
it reduces the edge instance to a vertex instance on the link graph (one
node per edge, adjacent when the edges intersect), samples every node
independently, and repeatedly resamples both endpoints of a violated
constraint until none remains.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Mapping

from . import rng
from .core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PreconditionError,
    WeightedListAssignment,
)

THREE_E = 3.0 * math.e


@dataclass(frozen=True)
class VertexInstance:
    """Vertex-colouring view of an edge instance.

    Nodes carry the original edge ids; two nodes are adjacent iff the
    edges share a vertex, and the blocking relation between a node pair is
    the original correspondence of that edge pair (restricted, by
    linearity, to their single shared vertex).
    """

    nodes: tuple[int, ...]
    lists: WeightedListAssignment
    adjacency: Mapping[int, tuple[int, ...]]
    sigma: EdgeCorrespondence

    def node_pairs(self) -> list[tuple[int, int]]:
        return [(u, w) for u in self.nodes for w in self.adjacency[u] if u < w]

    def neighbourhood(self, u: int, c: int) -> tuple[tuple[int, int], ...]:
        """All (w, c') with w adjacent to u that block (u, c); this is the
        union over the original edge's vertices of its colour
        neighbourhoods."""
        out = []
        for w in self.adjacency[u]:
            c_other = self.sigma.image(u, w, c)
            if c_other is not None and self.lists.has(w, c_other):
                out.append((w, c_other))
        return tuple(sorted(out))


def to_link_instance(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    active: set[int] | None = None,
) -> VertexInstance:
    """Build the link-graph instance over `active` edges (default: all
    edges carrying lists).  Lists, weights and correspondences transfer
    unchanged; node ids equal edge ids so colourings transport back as-is.
    """
    if active is None:
        active = set(lists.edge_ids())
    nodes = tuple(sorted(active))
    return VertexInstance(
        nodes=nodes,
        lists=lists.restrict_to_edges(active),
        adjacency={u: tuple(f for f in graph.adjacent_edges(u) if f in active) for u in nodes},
        sigma=sigma,
    )


def feasibility_check(L: float, N: float, k: int) -> bool:
    """True iff L/N >= 3ek, the regime where the finisher is guaranteed to
    apply (equivalently L/(kN) >= 3e on the link graph after grouping the
    per-vertex neighbourhoods)."""
    if L <= 0 or N < 0:
        raise PreconditionError("L must be positive and N nonnegative")
    if N == 0:
        return True
    return L / N >= THREE_E * k

def lll_symmetric_check(p: float, d: int) -> bool:
    """Symmetric local-lemma feasibility: e * p * (d + 1) <= 1."""
    if not (0.0 <= p <= 1.0) or d < 0:
        raise PreconditionError("need 0 <= p <= 1 and d >= 0")
    return math.e * p * (d + 1) <= 1.0


def weighted_binom_bound(p_values: list[float], k: int) -> tuple[float, float]:
    """(lhs, rhs) where lhs sums prod(p_i, i in S) over all k-subsets S
    (elementary symmetric polynomial, computed by dynamic programming) and
    rhs = (e p / k)^k with p = sum(p_i).  Contract: lhs <= rhs."""
    if any(p <= 0 for p in p_values):
        raise PreconditionError("all p_i must be positive")
    if k < 1:
        raise PreconditionError("k must be >= 1")
    p_total = sum(p_values)
    rhs = (math.e * p_total / k) ** k
    if k > len(p_values):
        return 0.0, rhs
    esp = [0.0] * (k + 1)
    esp[0] = 1.0
    for p in p_values:
        for j in range(min(k, len(esp) - 1), 0, -1):
            esp[j] += esp[j - 1] * p
    return esp[k], rhs


@dataclass
class ResampleLog:
    """Record of one resample-until-valid run."""

    iterations: int = 0
    resampled: list[tuple[int, int, int, int]] = field(default_factory=list)
    outcome: str = "success"

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "resampled": [list(ev) for ev in self.resampled],
            "outcome": self.outcome,
        }


def sample_colour(lists: WeightedListAssignment, node: int, seed: int, counter: int) -> int:
    """Draw a colour for `node` with probability mu(node, c)/|L(node)|_mu,
    deterministically from the (seed, node, counter) stream."""
    colours = lists.colours(node)
    if not colours:
        raise PreconditionError(f"node {node} has an empty list")
    total = sum(lists.weight(node, c) for c in colours)
    u = rng.uniform(seed, rng.KIND_SAMPLE if counter == 0 else rng.KIND_RESAMPLE, node, counter) * total
    acc = 0.0
    for c in colours:
        acc += lists.weight(node, c)
        if u < acc:
            return c
    return colours[-1]  # guard against accumulated rounding


def _violation(inst: VertexInstance, colours: dict[int, int], u: int, w: int) -> tuple[int, int, int, int] | None:
    cu, cw = colours[u], colours[w]
    if inst.sigma.blocks(u, cu, w, cw):
        return (u, w, cu, cw)
    return None


def finish(
    inst: VertexInstance,
    seed: int = 0,
    iteration_cap: int | None = None,
) -> tuple[dict[int, int], ResampleLog]:
    """Sample all nodes independently, then while some adjacent pair
    blocks, resample both endpoints of the lexicographically lowest
    violated (u, w, c, c') and repeat.

    Returns the colouring (possibly still invalid when the cap runs out)
    together with the log; `log.outcome` is "success" or "cap-exhausted".
    The default cap is 100 times the node count.
    """
    if iteration_cap is None:
        iteration_cap = 100 * len(inst.nodes)
    log = ResampleLog()
    colours: dict[int, int] = {}
    for u in inst.nodes:
        colours[u] = sample_colour(inst.lists, u, seed, 0)

    # Violated constraints live in a lazy min-heap of (u, w, c, c') events;
    # stale entries (colours moved on) are dropped at pop time.
    heap: list[tuple[int, int, int, int]] = []
    pairs = inst.node_pairs()
    for e, f in pairs:
        u, w = min(e, f), max(e, f)
        ev = _violation(inst, colours, u, w)
        if ev:
            heapq.heappush(heap, ev)

    resample_counter = 0
    while heap:
        if log.iterations >= iteration_cap:
            log.outcome = "cap-exhausted"
            return colours, log
        ev = heapq.heappop(heap)
        u, w, cu, cw = ev
        if colours[u] != cu or colours[w] != cw or not inst.sigma.blocks(u, cu, w, cw):
            continue  # stale
        log.iterations += 1
        log.resampled.append(ev)
        resample_counter += 1
        colours[u] = sample_colour(inst.lists, u, seed, resample_counter)
        colours[w] = sample_colour(inst.lists, w, seed, resample_counter)
        for x in (u, w):
            for y in inst.adjacency[x]:
                a, b = min(x, y), max(x, y)
                nev = _violation(inst, colours, a, b)
                if nev:
                    heapq.heappush(heap, nev)

    log.outcome = "success"
    return colours, log
