"""Edmonds matching-polytope membership and list-to-weight conversion.

A nonnegative edge vector x lies in the matching polytope MP(G) of a graph
iff the degree constraints sum_{e at v} x_e <= 1 hold and, for every odd
vertex set W with |W| >= 3, the edges inside W weigh at most (|W|-1)/2.
Membership in the shrunken polytope (1-s) MP(G) is tested by scaling the
vector by 1/(1-s) first.  Odd sets are enumerated exhaustively, so the
graph order is capped (default 20 vertices); exact separation is out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .core import LinearHypergraph, PreconditionError, WeightedListAssignment

DEFAULT_VERTEX_LIMIT = 20
DEFAULT_TOLERANCE = 1e-9


class EnumerationLimitError(RuntimeError):
    """The graph is too large for exhaustive odd-set enumeration."""


class UnsupportedInstanceError(ValueError):
    """Operation defined for graphs (k = 2) only."""


@dataclass(frozen=True)
class Witness:
    """First violated constraint: kind is 'nonnegativity', 'degree' or
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


def _popcount(masks: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(masks)
    m = masks.copy()
    while m.any():
        counts += m & 1
        m >>= 1
    return counts


def edmonds_membership(
    graph: LinearHypergraph,
    x: Mapping[int, float],
    shrink: float = 0.0,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    tol: float = DEFAULT_TOLERANCE,
) -> MembershipVerdict:
    """Does x/(1-shrink) lie in MP(G)?

    Checks nonnegativity, then degree constraints, then all odd sets by
    exhaustive enumeration; within each family the first violated
    constraint in canonical order (edge id, vertex id, subset rank) is the
    witness.  Floating-point comparisons allow `tol` slack on the <= side.
    """
    if graph.k != 2:
        raise UnsupportedInstanceError(f"matching polytope defined for graphs (k=2), got k={graph.k}")
    if not (0.0 <= shrink < 1.0):
        raise PreconditionError(f"shrink must lie in [0, 1), got {shrink}")
    n = graph.vertex_count
    if n > vertex_limit:
        raise EnumerationLimitError(
            f"{n} vertices exceed the odd-set enumeration limit {vertex_limit}"
        )
    missing = [e for e in range(graph.edge_count) if e not in x]
    if missing:
        raise PreconditionError(f"vector undefined on edges {missing[:5]}")

    y = {e: x[e] / (1.0 - shrink) for e in range(graph.edge_count)}

    for e in range(graph.edge_count):
        if y[e] < -tol:
            return MembershipVerdict(False, Witness("nonnegativity", (e,), y[e]))
    for v in range(n):
        load = sum(y[e] for e in graph.edges_at(v))
        if load > 1.0 + tol:
            return MembershipVerdict(False, Witness("degree", (v,), 1.0 - load))

    if graph.edge_count:
        masks = np.arange(1 << n, dtype=np.int64)
        pc = _popcount(masks)
        odd = (pc >= 3) & (pc % 2 == 1)
        inside_weight = np.zeros(1 << n, dtype=np.float64)
        for e, (u, v) in enumerate(graph.edges):
            both = ((masks >> u) & 1).astype(bool) & ((masks >> v) & 1).astype(bool)
            inside_weight += both * y[e]
        budget = (pc - 1) / 2.0
        violated = odd & (inside_weight > budget + tol)
        if violated.any():
            mask = int(masks[violated][0])  # canonical order: smallest mask
            subset = tuple(v for v in range(n) if (mask >> v) & 1)
            slack = float(budget[mask] - inside_weight[mask])
            return MembershipVerdict(False, Witness("odd-set", subset, slack))
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
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
) -> WeightedListAssignment:
    """Uniform weights mu(e, c) = 1/((1-delta)|L(e)|), so every weighted
    list size is exactly 1/(1-delta) = 1 + delta/(1-delta).

    The fractional vector 1/|L(e)| must lie in (1-delta) MP(G); this is
    checked when the graph is small enough to enumerate, otherwise trusted
    with a warning.  Raises if some list is so small that a weight would
    exceed 1.
    """
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    x = lists_to_fractional(lists)
    if graph.vertex_count <= vertex_limit:
        verdict = edmonds_membership(graph, x, shrink=delta, vertex_limit=vertex_limit)
        if not verdict.inside:
            raise PreconditionError(
                f"fractional vector not in (1-delta) MP(G): {verdict.witness}"
            )
    else:  # pragma: no cover - warning path
        import logging

        logging.getLogger(__name__).warning(
            "graph above enumeration limit; polytope membership not verified"
        )
    sizes = np.diff(lists.edge_ptr)
    mu = 1.0 / ((1.0 - delta) * sizes)
    if (mu > 1.0).any():
        i = int(np.argmax(mu > 1.0))
        raise PreconditionError(
            f"edge {lists.edges[i]}: weight {mu[i]:.4g} exceeds 1 (list too small for delta={delta})"
        )
    return replace(lists, mu=np.repeat(mu, sizes))
