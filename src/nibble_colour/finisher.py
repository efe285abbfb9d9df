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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PairIndex,
    PreconditionError,
    WeightedListAssignment,
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
    times the node count.  Raises PreconditionError when a node has an
    empty list or a weight that is negative or NaN.
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
    signed = np.flatnonzero(~(lists.mu >= 0))
    if signed.size:
        raise PreconditionError(f"node {lists.edge_of[signed[0]]} has a negative or NaN weight")
    # Each row's cumulative weights, summed left to right (np.cumsum adds
    # in sequence); the last one of a row is its weighted size.
    cumulative = np.empty_like(lists.mu)
    for _, members in segment_blocks(lists.edge_ptr):
        cumulative[members] = np.cumsum(lists.mu[members], axis=1)

    # First samples: one draw per node, then the first cumulative weight
    # above the target in each row, or the row's last colour.  `value`
    # holds the colour of every node (0 for other edge ids).
    value = np.zeros(size, dtype=np.int64)
    if inst.nodes:
        start, stop = lists.edge_ptr[:-1], lists.edge_ptr[1:]
        target = rng.uniforms(seed, rng.KIND_SAMPLE, nodes, 0) * cumulative[stop - 1]
        above = cumulative > np.repeat(target, stop - start)
        first = np.minimum.reduceat(np.where(above, np.arange(above.size), above.size), start)
        value[nodes] = lists.colour_of[np.where(first < above.size, first, stop - 1)]
    current = value.tolist()

    # The stored map that decides each pair of the link graph, read
    # forward or backwards, or -1 for the identity.
    pe, pf = adj.pairs()
    row, forward = sigma.deciding(pe, pf)

    # Violated constraints live in a lazy min-heap of (u, w, c, c') events;
    # stale entries (colours moved on) are dropped at pop time.
    at = np.flatnonzero(sigma.blocking(pe, value[pe], pf, value[pf], (row, forward)))
    heap = [(u, w, current[u], current[w]) for u, w in zip(pe[at].tolist(), pf[at].tolist())]
    heapq.heapify(heap)
    if not heap:
        return {u: current[u] for u in inst.nodes}, log

    # Each neighbour slot's map: -1 for the identity, else 2 * row + d,
    # with d = 1 when the map sends the colour of the slot's own node.  The
    # pairs are the slots u -> w with u < w, in order, and the slot w -> u
    # is found among the (node, neighbour) slots, ascending.  plain[u] says
    # that every slot of node u is -1; without a stored map no slot is read.
    mapped = np.flatnonzero(row >= 0)
    slot = np.full(adj.idx.size if mapped.size else 0, -1)
    plain = np.ones(size, dtype=bool)
    if mapped.size:
        node_of = np.repeat(np.arange(size), np.diff(adj.ptr))
        slot[np.flatnonzero(node_of < adj.idx)[mapped]] = 2 * row[mapped] + forward[mapped]
        upper = PairIndex(node_of, adj.idx).find(pf[mapped], pe[mapped])
        slot[upper] = 2 * row[mapped] + ~forward[mapped]
        plain[pe[mapped]] = plain[pf[mapped]] = False

    # The resample loop reads flat tables built once per call, as
    # memoryviews of arrays: their items read as Python ints and floats,
    # and a view costs nothing to build, where converting whole arrays to
    # lists would cost more than the loop reads.
    # - A pick is the first cumulative weight of the row above u * total:
    #   the weights are nonnegative, so the row is nondecreasing and that
    #   is `bisect_right`.
    # - A draw hashes (seed, KIND_RESAMPLE, node) once, in `prefix`.
    # - A stored-map check is a bisect in the map's entries.
    colours, cum, lo, hi = map(memoryview, (lists.colour_of, cumulative, lo, hi))
    prefix = memoryview(rng.hash_words(seed, rng.KIND_RESAMPLE, np.arange(size)))
    nbr_ptr, nbr, slot, plain = map(memoryview, (adj.ptr, adj.idx, slot, plain))
    map_ptr, map_c, map_image = map(memoryview, (sigma.entry_ptr, sigma.entry_c, sigma.entry_image))
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
            a, b = lo[x], hi[x]
            i = bisect_right(cum, rng.uniform_after(prefix[x], log.iterations) * cum[b - 1], a, b)
            current[x] = colours[i if i < b else b - 1]
        for x in (u, w):
            cx = current[x]
            s, t = nbr_ptr[x], nbr_ptr[x + 1]
            if plain[x]:  # no map decides a slot of x: equal colours block
                for y in nbr[s:t]:
                    if current[y] == cx:
                        a, b = (x, y) if x < y else (y, x)
                        heapq.heappush(heap, (a, b, current[a], current[b]))
                continue
            for y, code in zip(nbr[s:t], slot[s:t]):
                cy = current[y]
                if code < 0:  # the identity
                    if cx != cy:
                        continue
                else:  # the map of row code >> 1, sending x's colour when code is odd
                    c, image = (cx, cy) if code & 1 else (cy, cx)
                    p, q = map_ptr[code >> 1], map_ptr[(code >> 1) + 1]
                    j = bisect_left(map_c, c, p, q)
                    if j == q or map_c[j] != c or map_image[j] != image:
                        continue
                a, b = (x, y) if x < y else (y, x)
                heapq.heappush(heap, (a, b, current[a], current[b]))
    return {u: current[u] for u in inst.nodes}, log
