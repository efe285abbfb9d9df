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
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PreconditionError,
    WeightedListAssignment,
    blocking_pairs,
    segment_blocks,
)

THREE_E = 3.0 * math.e


class LinkAdjacency(Mapping[int, tuple[int, ...]]):
    """Adjacency of a link graph as flat arrays, read as a mapping from
    node to its ascending tuple of neighbours.

    Rows are indexed by edge id over the whole graph: the neighbours of
    node u are `idx[ptr[u]:ptr[u+1]]`, and `member[u]` says whether u is
    a node (rows of other edges are empty)."""

    def __init__(self, ptr: np.ndarray, idx: np.ndarray, member: np.ndarray):
        self.ptr, self.idx, self.member = ptr, idx, member

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each adjacent pair once: arrays (u, w) with u < w, ascending."""
        src = np.repeat(np.arange(self.member.size), np.diff(self.ptr))
        lower = src < self.idx
        return src[lower], self.idx[lower]

    def __getitem__(self, u: int) -> tuple[int, ...]:
        if not (0 <= u < self.member.size and self.member[u]):
            raise KeyError(u)
        return tuple(self.idx[self.ptr[u] : self.ptr[u + 1]].tolist())

    def __iter__(self):
        return iter(np.flatnonzero(self.member).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.member))


@dataclass(frozen=True)
class VertexInstance:
    """Vertex-colouring view of an edge instance.

    Nodes carry the original edge ids; two nodes are adjacent iff the
    edges share a vertex, and the blocking relation between a node pair is
    the original correspondence of that edge pair (restricted, by
    linearity, to their single shared vertex).  `lists` has a row for
    each node and for nothing else.
    """

    nodes: tuple[int, ...]
    lists: WeightedListAssignment
    adjacency: LinkAdjacency
    sigma: EdgeCorrespondence


def to_link_instance(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    active: set[int] | None = None,
) -> VertexInstance:
    """Build the link-graph instance over `active` edges (default: all
    edges carrying lists).  Lists, weights and correspondences transfer
    unchanged; node ids equal edge ids so colourings transport back as-is.
    The adjacency is `graph.incident_pairs` restricted to the active edges.
    """
    m = graph.edge_count
    if active is None:
        nodes = lists.edges  # ascending and distinct
    else:
        active = set(active)
        nodes = np.array(sorted(active), dtype=np.int64)
        if not active.issuperset(lists.edge_ids()):
            lists = lists.restrict_to_edges(active)
    if nodes.size and not (0 <= nodes[0] and nodes[-1] < m):
        raise PreconditionError(f"active edges must be edge ids below {m}")
    member = np.zeros(m, dtype=bool)
    member[nodes] = True
    e, f = graph.incident_pairs
    both = member[e] & member[f]
    src = np.concatenate([e[both], f[both]])
    dst = np.concatenate([f[both], e[both]])
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=m), out=ptr[1:])
    return VertexInstance(
        nodes=tuple(nodes.tolist()),
        lists=lists,
        adjacency=LinkAdjacency(ptr, dst[np.argsort(src * m + dst)], member),
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


def _pick(colours: Sequence[int], cumulative: Sequence[float], u: float) -> int:
    """The first colour whose cumulative weight exceeds u * total, where
    total is the last cumulative weight; the last colour guards against
    accumulated rounding."""
    target = u * cumulative[-1]
    for c, acc in zip(colours, cumulative):
        if target < acc:
            return c
    return colours[-1]


def sample_colour(lists: WeightedListAssignment, node: int, seed: int, counter: int) -> int:
    """Draw a colour for `node` with probability mu(node, c)/|L(node)|_mu,
    deterministically from the (seed, node, counter) stream.  |L(node)|_mu
    is the left-to-right sum of the weights in colour order, so the draw
    does not depend on how the Python version implements `sum`."""
    a, b = lists.span(node)
    if a == b:
        raise PreconditionError(f"node {node} has an empty list")
    kind = rng.KIND_SAMPLE if counter == 0 else rng.KIND_RESAMPLE
    return _pick(lists.colour_of[a:b].tolist(), np.cumsum(lists.mu[a:b]).tolist(), rng.uniform(seed, kind, node, counter))


def finish(
    inst: VertexInstance,
    seed: int = 0,
    iteration_cap: int | None = None,
) -> tuple[dict[int, int], ResampleLog]:
    """Sample all nodes independently, then while some adjacent pair
    blocks, resample both endpoints of the lexicographically lowest
    violated (u, w, c, c') and repeat.

    Every draw follows `sample_colour`'s rule: the first samples are drawn
    as one array, the resamples one node at a time.  Returns the colouring
    (possibly still invalid when the cap runs out) together with the log;
    `log.outcome` is "success" or "cap-exhausted".  The default cap is 100
    times the node count.
    """
    if iteration_cap is None:
        iteration_cap = 100 * len(inst.nodes)
    log = ResampleLog()
    lists, sigma, adj = inst.lists, inst.sigma, inst.adjacency
    size = adj.member.size

    # The pair range [lo[u], hi[u]) of every node u.
    lo = np.zeros(size, dtype=np.int64)
    hi = np.zeros(size, dtype=np.int64)
    lo[lists.edges], hi[lists.edges] = lists.edge_ptr[:-1], lists.edge_ptr[1:]
    nodes = np.asarray(inst.nodes, dtype=np.int64)
    bare = np.flatnonzero(lo[nodes] == hi[nodes])
    if bare.size:
        raise PreconditionError(f"node {inst.nodes[bare[0]]} has an empty list")
    # Each row's cumulative weights, summed left to right (np.cumsum adds
    # in sequence); the last one of a row is its weighted size.
    cumulative = np.empty_like(lists.mu)
    for _, members in segment_blocks(lists.edge_ptr):
        cumulative[members] = np.cumsum(lists.mu[members], axis=1)

    # First samples: one draw per node, then the first cumulative weight
    # above the target in each row, or the row's last colour.
    current: list = [None] * size
    if inst.nodes:
        start, stop = lists.edge_ptr[:-1], lists.edge_ptr[1:]
        target = rng.uniforms(seed, rng.KIND_SAMPLE, nodes, 0) * cumulative[stop - 1]
        above = cumulative > np.repeat(target, stop - start)
        first = np.minimum.reduceat(np.where(above, np.arange(above.size), above.size), start)
        chosen = np.where(first < above.size, first, stop - 1)
        for u, c in zip(inst.nodes, lists.colour_of[chosen].tolist()):
            current[u] = c

    # Violated constraints live in a lazy min-heap of (u, w, c, c') events;
    # stale entries (colours moved on) are dropped at pop time.
    pe, pf = adj.pairs()
    at = blocking_pairs(sigma, pe, pf, current, inst.nodes, size)
    heap = [(u, w, current[u], current[w]) for u, w in zip(pe[at].tolist(), pf[at].tolist())]
    heapq.heapify(heap)

    mapped = not sigma.is_trivial
    nbr_ptr, nbr_idx = adj.ptr, adj.idx
    if mapped:  # for `sigma.blocking`: the colours as an array too
        colour_at = np.zeros(size, dtype=np.int64)
        colour_at[nodes] = [current[u] for u in inst.nodes]
        node_of = np.repeat(np.arange(size), np.diff(nbr_ptr))
        lower, upper = np.minimum(node_of, nbr_idx), np.maximum(node_of, nbr_idx)
        row, forward = sigma.deciding(lower, upper)
    while heap:
        if log.iterations >= iteration_cap:
            log.outcome = "cap-exhausted"
            break
        ev = heapq.heappop(heap)
        u, w, cu, cw = ev
        if current[u] != cu or current[w] != cw:
            continue  # stale; with the same colours the pair still blocks
        log.iterations += 1  # also the counter of this resample's draws
        log.resampled.append(ev)
        for x in (u, w):
            current[x] = _pick(
                lists.colour_of[lo[x] : hi[x]].tolist(),
                cumulative[lo[x] : hi[x]].tolist(),
                rng.uniform(seed, rng.KIND_RESAMPLE, x, log.iterations),
            )
        if mapped:
            colour_at[u], colour_at[w] = current[u], current[w]
        for x in (u, w):
            if mapped:
                at = slice(nbr_ptr[x], nbr_ptr[x + 1])
                a, b = lower[at], upper[at]
                hit = sigma.blocking(a, colour_at[a], b, colour_at[b], (row[at], forward[at]))
                for a, b in zip(a[hit].tolist(), b[hit].tolist()):
                    heapq.heappush(heap, (a, b, current[a], current[b]))
                continue
            for y in nbr_idx[nbr_ptr[x] : nbr_ptr[x + 1]].tolist():
                if current[x] == current[y]:
                    a, b = (x, y) if x < y else (y, x)
                    heapq.heappush(heap, (a, b, current[a], current[b]))
    return {u: current[u] for u in inst.nodes}, log
