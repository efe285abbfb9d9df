"""Edmonds matching-polytope membership and list-to-weight conversion.

A nonnegative edge vector x lies in the matching polytope MP(G) of a graph
iff the degree constraints sum_{e at v} x_e <= 1 hold and, for every odd
vertex set W with |W| >= 3, the edges inside W weigh at most (|W|-1)/2.
Membership in the shrunken polytope (1-s) MP(G) is tested by scaling the
vector by 1/(1-s) first.  The odd sets are separated exactly, in
polynomial time, by Padberg and Rao's minimum odd cut-sets (Math. Oper.
Res. 7(1), 1982), so no graph is too large to check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .core import LinearHypergraph, PreconditionError, WeightedListAssignment

DEFAULT_TOLERANCE = 1e-9
_CAPACITY_BITS = 52  # odd-set separation resolves edge values to 2^-52


class UnsupportedInstanceError(ValueError):
    """Operation defined for graphs (k = 2) only."""


@dataclass(frozen=True)
class Witness:
    """A violated constraint: kind is 'nonnegativity', 'degree' or
    'odd-set'; subject names the edge, vertex, or vertex set; slack is
    rhs - lhs (negative when violated)."""

    kind: str
    subject: tuple
    slack: float

    def to_dict(self) -> dict:
        return {"kind": self.kind, "subject": list(self.subject), "slack": self.slack}


@dataclass(frozen=True)
class MembershipVerdict:
    inside: bool
    witness: Witness | None

    def to_dict(self) -> dict:
        return {"inside": self.inside, "witness": self.witness.to_dict() if self.witness else None}


def _most_violated_odd_set(ends: np.ndarray, y: np.ndarray, vertices: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """(cut, W): an odd vertex set W of least slack (|W|-1)/2 - y(E(W)) =
    (cut - 1)/2, for a vector y that meets the degree constraints.

    Padberg-Rao: a slack vertex joined to each vertex v with capacity
    1 - load(v) makes the cut around W weigh |W| - 2 y(E(W)), so the least
    such cut with |W| odd is a fundamental cut of a Gomory-Hu tree.  The
    capacities are integers in units of 2^-_CAPACITY_BITS, so every flow
    and cut is exact: floating-point flows can leave a residual that
    labels a tree edge with less than its minimum cut.  Ties go to the
    ascending vertex tuple."""
    import networkx as nx

    unit = 1 << _CAPACITY_BITS
    pairs = ends.tolist()
    capacity = [int(c) for c in np.rint(np.maximum(y, 0.0) * unit).tolist()]
    free = dict.fromkeys(vertices.tolist(), unit)
    for (u, v), c in zip(pairs, capacity):
        free[u] -= c
        free[v] -= c
    slack_vertex = -1
    support = nx.Graph()
    support.add_weighted_edges_from(((u, v, c) for (u, v), c in zip(pairs, capacity)), weight="capacity")
    support.add_weighted_edges_from(((slack_vertex, v, max(0, c)) for v, c in free.items()), weight="capacity")
    tree = nx.gomory_hu_tree(support)
    rooted = nx.bfs_tree(tree, slack_vertex)
    sides = (
        (tree.edges[parent, v]["weight"], tuple(sorted(nx.descendants(rooted, v) | {v})))
        for parent, v in rooted.edges
    )
    cut, odd_set = min(side for side in sides if len(side[1]) % 2)
    return cut / unit, odd_set


def edmonds_membership(
    graph: LinearHypergraph,
    x: Mapping[int, float],
    shrink: float = 0.0,
    tol: float = DEFAULT_TOLERANCE,
) -> MembershipVerdict:
    """Does x/(1-shrink) lie in MP(G)?

    Checks nonnegativity, then degree constraints, each with the first
    violated constraint in canonical order (edge id, vertex id) as the
    witness; then the odd sets, with a most-violated odd set and its slack
    as the witness.  x must give a finite value for every edge id and for
    nothing else.  Floating-point comparisons allow `tol` slack on the <=
    side.  The cost follows the edges, not `vertex_count`.
    """
    if graph.k != 2:
        raise UnsupportedInstanceError(f"matching polytope defined for graphs (k=2), got k={graph.k}")
    if not (0.0 <= shrink < 1.0):
        raise PreconditionError(f"shrink must lie in [0, 1), got {shrink}")
    missing = [e for e in range(graph.edge_count) if e not in x]
    if missing:
        raise PreconditionError(f"vector undefined on edges {missing[:5]}")
    unknown = [e for e in x if e not in range(graph.edge_count)]
    if unknown:
        raise PreconditionError(f"vector defined on edges {unknown[:5]} that the graph does not have")
    y = np.array([x[e] for e in range(graph.edge_count)], dtype=np.float64)
    if not np.isfinite(y).all():
        raise PreconditionError(f"vector not finite on edges {np.flatnonzero(~np.isfinite(y))[:5].tolist()}")

    y /= 1.0 - shrink
    negative = np.flatnonzero(y < -tol)
    if negative.size:
        e = int(negative[0])
        return MembershipVerdict(False, Witness("nonnegativity", (e,), float(y[e])))
    ends = graph.vertex_table
    vertices, at = np.unique(ends, return_inverse=True)
    load = np.bincount(at.ravel(), weights=np.repeat(y, 2), minlength=vertices.size)
    over = np.flatnonzero(load > 1.0 + tol)
    if over.size:
        v = int(over[0])
        return MembershipVerdict(False, Witness("degree", (int(vertices[v]),), float(1.0 - load[v])))

    if graph.edge_count:
        cut, odd_set = _most_violated_odd_set(ends, y, vertices)
        slack = (cut - 1.0) / 2.0
        if slack < -tol:
            return MembershipVerdict(False, Witness("odd-set", odd_set, slack))
    return MembershipVerdict(True, None)


def lists_to_fractional(lists: WeightedListAssignment) -> dict[int, float]:
    """x_e = 1/|L(e)| (cardinality, not weighted size)."""
    sizes = np.diff(lists.edge_ptr)
    if not sizes.all():
        raise PreconditionError(f"edge {lists.edges[np.argmin(sizes)]} has an empty list")
    return dict(zip(lists.edge_ids(), (1.0 / sizes).tolist()))


def polytope_lists_to_weights(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    delta: float,
) -> WeightedListAssignment:
    """Uniform weights mu(e, c) = 1/((1-delta)|L(e)|), so every weighted
    list size is exactly 1/(1-delta) = 1 + delta/(1-delta).

    Raises if the fractional vector 1/|L(e)| does not lie in
    (1-delta) MP(G), or if some list is so small that a weight would
    exceed 1.
    """
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    verdict = edmonds_membership(graph, lists_to_fractional(lists), shrink=delta)
    if not verdict.inside:
        raise PreconditionError(f"fractional vector not in (1-delta) MP(G): {verdict.witness}")
    sizes = np.diff(lists.edge_ptr)
    mu = 1.0 / ((1.0 - delta) * sizes)
    if (mu > 1.0).any():
        i = int(np.argmax(mu > 1.0))
        raise PreconditionError(
            f"edge {lists.edges[i]}: weight {mu[i]:.4g} exceeds 1 (list too small for delta={delta})"
        )
    return replace(lists, mu=np.repeat(mu, sizes))
