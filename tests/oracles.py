"""Independent readers that the package's fast paths are checked against.

Each is written against `core` only and reads its input the plain way,
one item at a time, so that it shares no conversion code with what it
checks.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from nibble_colour.core import EdgeCorrespondence, InstanceError, LinearHypergraph, PreconditionError, WeightedListAssignment
from nibble_colour.instance_io import Instance

INT64 = range(-(1 << 63), 1 << 63)


def entry_instance(data: Mapping) -> Instance:
    """The instance of the decoded format-1 JSON `data`, read one entry at
    a time with `int` and `float`; raises InstanceError on any fault.

    An edge id in `lists` must be written as `str(int(key))` writes it,
    a list entry is a bare colour id or an object, and every integer must
    lie in the int64 range."""
    try:
        k = int(data["k"])
        vertex_count = int(data["vertex_count"])
        edges = [tuple(int(v) for v in edge) for edge in data["edges"]]
        lo, hi = (int(x) for x in data.get("colour_universe", (0, 0)))
        edge_of: list[int] = []
        colour_of: list[int] = []
        mu: list[float] = []
        for key, entries in data.get("lists", {}).items():
            e = int(key)
            if str(e) != key or not 0 <= e < len(edges):
                raise InstanceError(f"list declared for {key!r}, which is not an edge id")
            for entry in entries:
                if isinstance(entry, dict):
                    colour_of.append(int(entry["colour"]))
                    mu.append(float(entry.get("weight", 1.0)))
                else:  # bare colour id
                    colour_of.append(int(entry))
                    mu.append(1.0)
                edge_of.append(e)
        pair_e: list[int] = []
        pair_f: list[int] = []
        counts: list[int] = []
        map_c: list[int] = []
        map_image: list[int] = []
        for item in data.get("sigma", []):
            pair_e.append(int(item["e"]))
            pair_f.append(int(item["f"]))
            mapped = item.get("map", [])
            if not isinstance(mapped, list):
                raise TypeError(f"map of ({pair_e[-1]},{pair_f[-1]}) is not a list of pairs")
            for c, image in mapped:
                map_c.append(int(c))
                map_image.append(int(image))
            counts.append(len(mapped))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:  # InstanceError is a ValueError
        raise InstanceError(f"malformed instance: {exc}") from exc
    for group in ([k, vertex_count, lo, hi], colour_of, pair_e, pair_f, map_c, map_image):
        if any(x not in INT64 for x in group):
            raise InstanceError("an integer lies outside the int64 range")
    columns = [np.array(values, dtype=np.int64) for values in (pair_e, pair_f, counts, map_c, map_image)]
    return Instance(
        graph=LinearHypergraph.build(vertex_count, edges, k=k),  # checks the vertices' range
        lists=WeightedListAssignment.from_pairs(range(len(edges)), edge_of, colour_of, mu),
        sigma=EdgeCorrespondence.from_items(*columns),
        universe=(lo, hi),
    )


def neighbour_rows(struct) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, nbr_idx) of a round structure's colour neighbourhoods in CSR
    shape: row r = p*k + j as the ascending int32 pair indices
    `nbr_idx[ptr[r]:ptr[r+1]]`.  The CSR layout is read as it stands.  The
    group layout is written out one row at a time: a row's members are
    the pairs of the other rows of its group."""
    rows = struct.rows
    if hasattr(rows, "nbr_idx"):
        return rows.ptr, rows.nbr_idx
    k, order, bounds = struct.k, rows.order.tolist(), rows.bounds.tolist()
    members: list[list[int]] = [[] for _ in range(struct.pair_count * k)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        group = order[a:b]
        for r in group:
            members[r] = sorted(q // k for q in group if q != r)
    ptr = np.zeros(len(members) + 1, dtype=np.int64)
    for r, row in enumerate(members):
        ptr[r + 1] = ptr[r] + len(row)
    return ptr, np.array([q for row in members for q in row], dtype=np.int32)


def enumerate_matchings(graph: LinearHypergraph) -> Iterator[tuple[int, ...]]:
    """All matchings of a graph (k = 2), the empty matching included."""
    if graph.k != 2:
        raise PreconditionError("matchings defined for graphs (k=2)")
    m = graph.edge_count

    def rec(i: int, used: set[int], chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == m:
            yield chosen
            return
        yield from rec(i + 1, used, chosen)
        u, v = graph.edges[i]
        if u not in used and v not in used:
            yield from rec(i + 1, used | {u, v}, chosen + (i,))

    yield from rec(0, set(), ())
