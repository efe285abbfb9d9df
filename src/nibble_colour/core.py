"""Instance representation: linear hypergraphs, edge correspondences,
weighted colour lists, colour neighbourhoods and colouring validation.

Conventions used throughout the package:

* A graph is a 2-uniform hypergraph; there is no separate graph type.
* Edges are stored as sorted tuples of vertex ids `0..vertex_count-1` and
  addressed by their index in the edge list.
* Colours are nonnegative integers from a finite universe declared per
  instance.
* `(e, c)` blocks `(f, c')` when the correspondence maps c on e to c' on f.
  A valid colouring contains no blocking pair between incident edges.
* All structures are immutable after construction; operations that modify
  lists return new values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np


class InstanceError(ValueError):
    """Structurally invalid instance data."""


class MissingWeightError(KeyError):
    """A (edge, colour) pair is absent from a weighted list assignment."""


class PreconditionError(ValueError):
    """An operation was called outside its contract."""


@dataclass(frozen=True)
class Violation:
    """One validity defect; `kind` is machine-readable, `detail` human."""

    kind: str
    subject: tuple
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.detail}"


@dataclass(frozen=True)
class LinearHypergraph:
    """A k-uniform linear hypergraph.

    Invariants (checked by :func:`validate_instance`): every edge has
    exactly k distinct vertices, and two distinct edges share at most one
    vertex.
    """

    vertex_count: int
    edges: tuple[tuple[int, ...], ...]
    k: int

    @classmethod
    def build(cls, vertex_count: int, edges: Iterable[Iterable[int]], k: int | None = None) -> "LinearHypergraph":
        normalised = tuple(tuple(sorted(e)) for e in edges)
        if k is None:
            if not normalised:
                raise InstanceError("cannot infer uniformity from an empty edge list")
            k = len(normalised[0])
        return cls(vertex_count=vertex_count, edges=normalised, k=k)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge ids, ascending."""
        table: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for eid, edge in enumerate(self.edges):
            for v in edge:
                if 0 <= v < self.vertex_count:
                    table[v].append(eid)
        return tuple(tuple(row) for row in table)

    @cached_property
    def incident_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pair of distinct edges that share a vertex, once: int64
        arrays (e, f) with e < f, in ascending (e, f) order."""
        m = max(self.edge_count, 1)
        sizes = np.fromiter(map(len, self.incidence), np.int64, self.vertex_count)
        at = np.fromiter(chain.from_iterable(self.incidence), np.int64, int(sizes.sum()))
        # Pair each entry of a vertex's (ascending) row with the entries after it.
        later = np.repeat(np.cumsum(sizes), sizes) - np.arange(at.size) - 1
        first = np.repeat(np.arange(at.size), later)
        offset = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
        e, f = at[first], at[first + 1 + offset]
        keep = e < f  # an edge listing a vertex twice meets itself there
        key = np.sort(e[keep] * m + f[keep])
        key = key[np.diff(key, prepend=-1) != 0]  # non-linear pairs meet twice
        return key // m, key % m

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edges_at(self, v: int) -> tuple[int, ...]:
        return self.incidence[v]

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def shared_vertex(self, e: int, f: int) -> int | None:
        """The (by linearity unique) common vertex of two edges, or None."""
        common = set(self.edges[e]) & set(self.edges[f])
        return min(common) if common else None

    def adjacent_edges(self, e: int) -> tuple[int, ...]:
        out: set[int] = set()
        for v in self.edges[e]:
            out.update(self.edges_at(v))
        out.discard(e)
        return tuple(sorted(out))


@dataclass(frozen=True)
class EdgeCorrespondence:
    """Colour bijections between incident edges.

    `maps[(e, f)] = {c: c'}` declares that colour c on e corresponds to
    (mutually excludes) colour c' on f.  Pairs with no stored map default
    to the identity, so plain list colouring needs no configuration.  For
    a stored pair, colours outside the map's domain correspond to nothing:
    extending a partial map by the identity would in general break
    injectivity (e.g. {1: 7} plus 7 -> 7).
    """

    maps: Mapping[tuple[int, int], Mapping[int, int]] = field(default_factory=dict)

    @cached_property
    def _inverses(self) -> dict[tuple[int, int], dict[int, int]]:
        return {(f, e): {c2: c1 for c1, c2 in m.items()} for (e, f), m in self.maps.items()}

    @property
    def is_trivial(self) -> bool:
        return not self.maps

    def map_for(self, e: int, f: int) -> Mapping[int, int] | None:
        """The partial map sigma_{e,f}: the one stored for (e, f), else the
        inverse of the one stored for (f, e), else None (the identity)."""
        m = self.maps.get((e, f))
        return m if m is not None else self._inverses.get((e, f))

    def image(self, e: int, f: int, c: int) -> int | None:
        """sigma_{e,f}(c), or None when the stored partial map leaves c free."""
        m = self.map_for(e, f)
        return c if m is None else m.get(c)

    def blocks(self, e: int, c: int, f: int, c_other: int) -> bool:
        """Does (e, c) block (f, c_other)?"""
        return self.image(e, f, c) == c_other


@dataclass(frozen=True)
class WeightedListAssignment:
    """Per-edge colour lists with weights mu(e, c) in (0, 1].

    The weighted size |A|_mu of a set A of (edge, colour) pairs is the sum
    of the member weights, accumulated in ascending (edge, colour) order
    for reproducibility.
    """

    lists: Mapping[int, tuple[int, ...]]
    weights: Mapping[tuple[int, int], float]

    @classmethod
    def build(cls, lists: Mapping[int, Iterable[int]], weights: Mapping[tuple[int, int], float] | None = None) -> "WeightedListAssignment":
        norm = {e: tuple(sorted(set(cs))) for e, cs in lists.items()}
        if weights is None:
            weights = {(e, c): 1.0 for e, cs in norm.items() for c in cs}
        else:
            weights = dict(weights)
        return cls(lists=norm, weights=weights)

    @classmethod
    def unit(cls, lists: Mapping[int, Iterable[int]]) -> "WeightedListAssignment":
        return cls.build(lists)

    def colours(self, e: int) -> tuple[int, ...]:
        return self.lists.get(e, ())

    def has(self, e: int, c: int) -> bool:
        return (e, c) in self.weights

    def weight(self, e: int, c: int) -> float:
        try:
            return self.weights[(e, c)]
        except KeyError:
            raise MissingWeightError(f"no weight for edge {e}, colour {c}") from None

    def list_weight(self, e: int) -> float:
        return sum(self.weights[(e, c)] for c in self.colours(e))

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.lists))

    def restrict_to_edges(self, edge_ids: Iterable[int]) -> "WeightedListAssignment":
        keep = set(edge_ids)
        return WeightedListAssignment(
            lists={e: cs for e, cs in self.lists.items() if e in keep},
            weights={(e, c): w for (e, c), w in self.weights.items() if e in keep},
        )


@dataclass(frozen=True)
class PartialColouring:
    """Partial map from edge ids to colours.

    Validity (each colour from its list, no blocking pair) is a contract
    checked by :func:`validate_colouring`, not enforced on construction.
    """

    colours: Mapping[int, int] = field(default_factory=dict)

    def get(self, e: int) -> int | None:
        return self.colours.get(e)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.colours.items())

    def __len__(self) -> int:
        return len(self.colours)


def weighted_size(pairs: Iterable[tuple[int, int]], lists: WeightedListAssignment) -> float:
    """Sum of mu over the given (edge, colour) pairs.

    Accumulation runs in ascending (edge id, colour id) order so the float
    result does not depend on input order.  Raises MissingWeightError for
    pairs absent from the assignment.
    """
    total = 0.0
    for e, c in sorted(set(pairs)):
        total += lists.weight(e, c)
    return total


def colour_neighbours(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    e: int,
    v: int,
    c: int,
) -> tuple[tuple[int, int], ...]:
    """All pairs (f, c') at vertex v whose selection would block (e, c).

    That is: f != e incident to v, c' in L(f), and sigma_{f,e}(c') = c.
    Requires v in e and c in L(e).
    """
    if v not in graph.edges[e]:
        raise PreconditionError(f"vertex {v} not in edge {e}")
    if not lists.has(e, c):
        raise PreconditionError(f"colour {c} not in the list of edge {e}")
    out = []
    for f in graph.edges_at(v):
        if f == e:
            continue
        c_other = sigma.image(e, f, c)  # sigma_{f,e}(c') = c  <=>  c' = sigma_{e,f}(c)
        if c_other is not None and lists.has(f, c_other):
            out.append((f, c_other))
    return tuple(sorted(out))


_INT64 = range(-(1 << 63), 1 << 63)


def blocking_pairs(
    sigma: EdgeCorrespondence,
    e: np.ndarray,
    f: np.ndarray,
    colour_of: Sequence | Mapping[int, object],
    ids: Sequence[int],
    size: int,
) -> np.ndarray:
    """Ascending indices i at which (e[i], colour_of[e[i]]) blocks
    (f[i], colour_of[f[i]]).

    `ids` lists every edge id in e and f, each below `size`.  Pairs without
    a stored map whose two colours are ints in the int64 range are
    compared as arrays (the identity blocks equal colours); every other
    pair goes through `sigma.blocks`, so any colour value is handled."""
    value = np.zeros(size, dtype=np.int64)
    exact = np.zeros(size, dtype=bool)
    for u in ids:
        c = colour_of[u]
        if type(c) is int and c in _INT64:
            value[u] = c
            exact[u] = True
    scalar = ~(exact[e] & exact[f])
    if sigma.maps:  # pairs with a stored map in either direction
        stored = [min(a, b) * size + max(a, b) for a, b in sigma.maps if 0 <= a < size and 0 <= b < size]
        scalar |= np.isin(np.minimum(e, f) * size + np.maximum(e, f), stored)
    hit = ~scalar & (value[e] == value[f])
    at = np.flatnonzero(scalar)
    hit[at] = [
        sigma.blocks(a, colour_of[a], b, colour_of[b])
        for a, b in zip(e[at].tolist(), f[at].tolist())
    ]
    return np.flatnonzero(hit)


def validate_colouring(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    colouring: PartialColouring | Mapping[int, int],
) -> list[Violation]:
    """Empty iff every coloured edge uses a listed colour and no coloured
    pair blocks another coloured pair.  Total: never raises.

    Blocking is checked over `graph.incident_pairs`, so each incident
    pair is checked once and reported in ascending (e, f) order."""
    colours = colouring.colours if isinstance(colouring, PartialColouring) else colouring
    violations: list[Violation] = []
    known: list[int] = []
    for e, c in sorted(colours.items()):
        if e < 0 or e >= graph.edge_count:
            violations.append(Violation("unknown-edge", (e,), f"edge {e} not in instance"))
            continue
        known.append(operator.index(e))
        if not lists.has(e, c):
            violations.append(Violation("list", (e, c), f"edge {e} coloured {c} which is not in its list"))
    coloured = np.zeros(graph.edge_count, dtype=bool)
    coloured[known] = True
    pe, pf = graph.incident_pairs
    both = coloured[pe] & coloured[pf]
    pe, pf = pe[both], pf[both]
    at = blocking_pairs(sigma, pe, pf, colours, known, graph.edge_count)
    for e, f in zip(pe[at].tolist(), pf[at].tolist()):
        c, cf = colours[e], colours[f]
        violations.append(Violation("blocking", (e, f, c, cf), f"({e},{c}) blocks ({f},{cf})"))
    return violations


def restrict_lists(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    colouring: PartialColouring | Mapping[int, int],
) -> WeightedListAssignment:
    """Lists for the uncoloured edges after removing every colour blocked
    by a coloured neighbour; weights unchanged on survivors.

    The removal is of *blocked* colours: for each coloured f adjacent to e,
    the colour sigma_{f,e}(gamma(f)) leaves L(e).  Requires the colouring
    to be valid on its domain.
    """
    colours = colouring.colours if isinstance(colouring, PartialColouring) else colouring
    # List membership is only checkable for edges still carrying a list:
    # colourings produced by earlier rounds refer to lists already dropped.
    problems = [
        v
        for v in validate_colouring(graph, lists, sigma, colours)
        if not (v.kind == "list" and v.subject[0] not in lists.lists)
    ]
    if problems:
        raise PreconditionError(f"colouring invalid: {problems[0]}")
    new_lists: dict[int, tuple[int, ...]] = {}
    new_weights: dict[tuple[int, int], float] = {}
    for e in lists.edge_ids():
        if e in colours:
            continue
        blocked: set[int] = set()
        for f in graph.adjacent_edges(e):
            cf = colours.get(f)
            if cf is None:
                continue
            image = sigma.image(f, e, cf)
            if image is not None:
                blocked.add(image)
        kept = tuple(c for c in lists.colours(e) if c not in blocked)
        new_lists[e] = kept
        for c in kept:
            new_weights[(e, c)] = lists.weight(e, c)
    return WeightedListAssignment(lists=new_lists, weights=new_weights)


def validate_instance(
    graph: LinearHypergraph,
    sigma: EdgeCorrespondence,
    lists: WeightedListAssignment,
    universe: tuple[int, int] | None = None,
) -> list[Violation]:
    """Structural report: uniformity, linearity, correspondence consistency,
    weight range, universe membership.  Total: never raises."""
    violations: list[Violation] = []
    for eid, edge in enumerate(graph.edges):
        if len(set(edge)) != graph.k:
            violations.append(
                Violation("uniformity", (eid,), f"edge {eid} has {len(set(edge))} distinct vertices, expected {graph.k}")
            )
        for v in edge:
            if not (0 <= v < graph.vertex_count):
                violations.append(Violation("vertex-range", (eid, v), f"edge {eid} uses out-of-range vertex {v}"))
    # Linearity: an unordered edge pair may share at most one vertex, so it
    # may appear at most once across the per-vertex incidence lists.
    seen_pairs: set[tuple[int, int]] = set()
    reported: set[tuple[int, int]] = set()
    for v in range(graph.vertex_count):
        at_v = graph.edges_at(v)
        for i, e in enumerate(at_v):
            for f in at_v[i + 1 :]:
                pair = (e, f)
                if pair in seen_pairs:
                    if pair not in reported:
                        reported.add(pair)
                        violations.append(
                            Violation("linearity", pair, f"edges {e} and {f} share more than one vertex")
                        )
                else:
                    seen_pairs.add(pair)
    for (e, f), m in sorted(sigma.maps.items()):
        if e == f:
            violations.append(Violation("sigma-self", (e, f), f"correspondence stored for edge {e} with itself"))
            continue
        if e >= graph.edge_count or f >= graph.edge_count or graph.shared_vertex(e, f) is None:
            violations.append(Violation("sigma-adjacency", (e, f), f"correspondence for non-incident pair ({e},{f})"))
        values = list(m.values())
        if len(set(values)) != len(values):
            violations.append(Violation("sigma-injective", (e, f), f"correspondence ({e},{f}) is not injective"))
        if (f, e) in sigma.maps:
            inverse = sigma.maps[(f, e)]
            agreed = all(inverse.get(c2) == c1 for c1, c2 in m.items()) and all(
                m.get(c2) == c1 for c1, c2 in inverse.items()
            )
            if not agreed:
                violations.append(
                    Violation("sigma-inverse", (e, f), f"stored maps for ({e},{f}) and ({f},{e}) are not mutual inverses")
                )
        if universe is not None:
            lo, hi = universe
            for c1, c2 in m.items():
                if not (lo <= c1 <= hi and lo <= c2 <= hi):
                    violations.append(
                        Violation("sigma-universe", (e, f, c1, c2), f"correspondence entry ({c1},{c2}) outside colour universe")
                    )
    for e in lists.edge_ids():
        for c in lists.colours(e):
            w = lists.weight(e, c)
            if not (0.0 < w <= 1.0):
                violations.append(Violation("weight-range", (e, c), f"weight {w} for edge {e} colour {c} outside (0,1]"))
            if universe is not None and not (universe[0] <= c <= universe[1]):
                violations.append(Violation("colour-universe", (e, c), f"colour {c} on edge {e} outside declared universe"))
    return violations
