"""Instance representation: linear hypergraphs, edge correspondences,
weighted colour lists, colour neighbourhoods and colouring validation.

Conventions used throughout the package:

* A graph is a 2-uniform hypergraph; there is no separate graph type.
* Edges are stored as sorted tuples of vertex ids `0..vertex_count-1` and
  addressed by their index in the edge list.
* Colours are integers in the int64 range from a finite universe declared
  per instance.
* `(e, c)` blocks `(f, c')` when the correspondence maps c on e to c' on f.
  A valid colouring contains no blocking pair between incident edges.
* All structures are immutable after construction; operations that modify
  lists return new values.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
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

    `slots` is the (edge, vertex) slot table that the array readers use:
    one read-only int64 row (e, v) per vertex v of each edge e, in the
    order of `edges` (edge by edge, each edge's vertices in its tuple's
    order).  It is derived from `edges` when not given; `edges` stays for
    the scalar readers and the oracles.  Vertex ids lie in the int64 range.
    """

    vertex_count: int
    edges: tuple[tuple[int, ...], ...]
    k: int
    slots: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.slots is None:
            sizes = np.fromiter(map(len, self.edges), np.int64, len(self.edges))
            try:
                vertex = np.fromiter(chain.from_iterable(self.edges), np.int64, int(sizes.sum()))
            except OverflowError:
                raise InstanceError("vertex ids must lie in the int64 range [-2^63, 2^63)") from None
            slots = np.stack([np.repeat(np.arange(sizes.size), sizes), vertex], axis=1)
            slots.flags.writeable = False
            object.__setattr__(self, "slots", slots)

    @classmethod
    def build(cls, vertex_count: int, edges: Iterable[Iterable[int]], k: int | None = None) -> "LinearHypergraph":
        normalised = tuple(tuple(sorted(e)) for e in edges)
        if k is None:
            if not normalised:
                raise InstanceError("cannot infer uniformity from an empty edge list")
            k = len(normalised[0])
        return cls(vertex_count=vertex_count, edges=normalised, k=k)

    @classmethod
    def from_slots(cls, vertex_count: int, k: int, sizes: np.ndarray, vertices: np.ndarray) -> "LinearHypergraph":
        """The graph whose edge i holds the next sizes[i] of the int64
        `vertices`, sorted as `build` sorts them, with its slot table
        built straight from the arrays."""
        edge = np.repeat(np.arange(sizes.size), sizes)
        slots = np.stack([edge, vertices[np.lexsort((vertices, edge))]], axis=1)
        slots.flags.writeable = False
        if sizes.size and (sizes == sizes[0]).all():  # uniform: one row per edge
            edges = tuple(map(tuple, slots[:, 1].reshape(sizes.size, int(sizes[0])).tolist()))
        else:
            flat = iter(slots[:, 1].tolist())
            edges = tuple(tuple(islice(flat, n)) for n in sizes.tolist())
        return cls(vertex_count=vertex_count, edges=edges, k=k, slots=slots)

    @property
    def vertex_table(self) -> np.ndarray:
        """The (edge_count, k) int64 table of the edges' vertices; (0, 0)
        without edges, so that nothing is shaped by k then.  Requires every
        edge to have k vertices, as `validate_instance` does."""
        m = self.edge_count
        if not m:
            return np.zeros((0, 0), dtype=np.int64)
        if (np.bincount(self.slots[:, 0], minlength=m) != self.k).any():
            raise PreconditionError(f"the edges do not all have k = {self.k} vertices")
        return self.slots[:, 1].reshape(m, self.k)

    @cached_property
    def incidence(self) -> dict[int, tuple[int, ...]]:
        """Incident edge ids, ascending, of every in-range vertex that lies
        on an edge, in ascending vertex order; vertices on no edge are
        absent, so the cost does not grow with `vertex_count`."""
        table: dict[int, list[int]] = {}
        for eid, edge in enumerate(self.edges):
            for v in edge:
                if 0 <= v < self.vertex_count:
                    table.setdefault(v, []).append(eid)
        return {v: tuple(table[v]) for v in sorted(table)}

    @cached_property
    def _by_vertex(self) -> tuple[np.ndarray, np.ndarray]:
        """(edge, vertex) of every slot, stably sorted by vertex: each
        vertex's edges ascending, a vertex listed twice by one edge twice
        in a row."""
        order = np.argsort(self.slots[:, 1], kind="stable")
        return self.slots[order, 0], self.slots[order, 1]

    @cached_property
    def _meetings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(e, f, repeated): every pair of distinct edges that share a
        vertex, once, as int64 arrays with e < f in ascending (e, f) order,
        and whether the pair shares more than one vertex."""
        m = max(self.edge_count, 1)
        at, vertex = self._by_vertex
        inside = (vertex >= 0) & (vertex < self.vertex_count)
        at, vertex = at[inside], vertex[inside]
        sizes = np.diff(np.append(np.flatnonzero(np.diff(vertex, prepend=-1)), vertex.size))  # one row per vertex
        # Pair each entry of a vertex's (ascending) row with the entries after it.
        later = np.repeat(np.cumsum(sizes), sizes) - np.arange(at.size) - 1
        first = np.repeat(np.arange(at.size), later)
        offset = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
        e, f = at[first], at[first + 1 + offset]
        keep = e < f  # an edge listing a vertex twice meets itself there
        key = np.sort(e[keep] * m + f[keep])
        start = np.flatnonzero(np.diff(key, prepend=-1))  # one run per pair, one entry per shared vertex
        repeated = np.diff(start, append=key.size) > 1
        key = key[start]
        return key // m, key % m, repeated

    @property
    def incident_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pair of distinct edges that share a vertex, once: int64
        arrays (e, f) with e < f, in ascending (e, f) order."""
        e, f, _ = self._meetings
        return e, f

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edges_at(self, v: int) -> tuple[int, ...]:
        return self.incidence.get(v, ())

    def degree(self, v: int) -> int:
        return len(self.incidence.get(v, ()))

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


def segment_ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The positions `start[i]:start[i] + length[i]`, concatenated in order."""
    offset = np.cumsum(length) - length
    return np.arange(int(length.sum())) + np.repeat(start - offset, length)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: `np.unique` without its import of
    `numpy.ma`."""
    values = np.sort(values)
    distinct = np.ones(values.size, dtype=bool)
    distinct[1:] = values[1:] != values[:-1]
    return values[distinct]


class PairIndex:
    """Order-preserving int64 keys of the int64 pairs (a[i], b[i]), and
    the lookup of pairs among them.

    A key is code(a) * width + code(b): offsets from each coordinate's
    minimum when the product of the two spans fits in int64, else ranks
    among its distinct values, width being b's span or count.  `find`
    takes the pairs to be ascending and distinct.  It reads a table over
    the key span when that span has at most TABLE_SLOTS slots per query,
    and keeps it for later finds; else it binary-searches the keys.  At
    four slots per query the table is about five times faster than the
    search, and as fast near sixty-four (BENCH_correspondence.json)."""

    TABLE_SLOTS = 4

    def __init__(self, a: np.ndarray, b: np.ndarray, _repeats: np.ndarray | None = None):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        self._table = None
        if not b.size:
            self._axes, self.keys = None, np.zeros(0, dtype=np.int64)
            return
        lo_a, lo_b = int(a.min()), int(b.min())
        span_a, span_b = int(a.max()) - lo_a + 1, int(b.max()) - lo_b + 1
        if span_a * span_b < 1 << 63:  # offsets
            self._axes, self._width = ((lo_a, span_a), (lo_b, span_b)), span_b
            code_a = a - lo_a
        else:
            self._axes = values_a, values_b = sorted_distinct(a), sorted_distinct(b)
            self._width = values_b.size
            code_a, b, lo_b = np.searchsorted(values_a, a), np.searchsorted(values_b, b), 0
        # In place: the sum wraps in int64 only where the final key, which fits, does not.
        self.keys = code_a if _repeats is None else np.repeat(code_a, _repeats)
        self.keys *= self._width
        self.keys += b
        self.keys -= lo_b

    @classmethod
    def of_segments(cls, ptr: np.ndarray, b: np.ndarray) -> "PairIndex":
        """`PairIndex(np.repeat(np.arange(ptr.size - 1), np.diff(ptr)), b)`,
        built with no array of the repeated row numbers."""
        count = np.diff(ptr)
        return cls(np.flatnonzero(count), b, count[count > 0])

    @staticmethod
    def _codes(axis, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(code, known) of the values x on one axis, (lo, span) or the
        distinct values; a code where x has none is arbitrary."""
        if isinstance(axis, tuple):
            code = x - axis[0]  # below lo it wraps past every code, as unsigned
            return code, code.view(np.uint64) < axis[1]
        pos = np.searchsorted(axis, x)
        return pos, axis.take(pos, mode="clip") == x

    def find(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The index of each pair (a[i], b[i]) among the indexed pairs, or
        -1 where it is not one of them."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self._axes is None:
            return np.full(a.shape, -1, dtype=np.int64)
        key, known = self._codes(self._axes[0], a)
        code_b, known_b = self._codes(self._axes[1], b)
        known &= known_b
        key *= self._width  # in place: the batches can be large
        key += code_b
        del code_b
        first, last = int(self.keys[0]), int(self.keys[-1])
        if self._table is None and last - first < self.TABLE_SLOTS * key.size:
            self._table = np.full(last - first + 1, -1, dtype=np.int64)
            self._table[self.keys - first] = np.arange(self.keys.size)
        if self._table is not None:
            key -= first
            known &= key.view(np.uint64) < self._table.size
            found = self._table.take(key, mode="clip")
        else:
            found = np.searchsorted(self.keys, key)
            known &= self.keys.take(found, mode="clip") == key
        found[~known] = -1
        return found


class EdgeCorrespondence:
    """Colour maps between incident edges, as one table of arrays.

    An entry (c, c') of the map stored for the ordered pair (e, f) declares
    that colour c on e corresponds to (mutually excludes) colour c' on f.
    `pair_e` and `pair_f` hold the pairs with a stored map, ascending by
    (e, f) and each once; the entries of pair i are
    `entry_ptr[i]:entry_ptr[i+1]`, with int64 `entry_c` ascending and
    distinct within the pair and int64 `entry_image`.  Pairs with no
    stored map default to the identity, so plain list colouring needs no
    configuration.  For a stored pair, colours outside the map's domain
    correspond to nothing: extending a partial map by the identity would
    in general break injectivity (e.g. {1: 7} plus 7 -> 7).  A map stored
    for (e, f) but not for (f, e) gives sigma_{f,e} as its inverse.

    `EdgeCorrespondence(maps)` takes {(e, f): {c: c'}}; `from_items` takes
    the maps as flat arrays.  The arrays are read-only, as the readers
    cache what they derive from them.
    """

    def __init__(self, maps: Mapping[tuple[int, int], Mapping[int, int]] | None = None):
        maps = {} if maps is None else maps
        pairs = np.array(list(maps), dtype=np.int64).reshape(-1, 2)
        count = np.fromiter(map(len, maps.values()), np.int64, len(maps))
        entries = np.fromiter(
            chain.from_iterable(chain.from_iterable(m.items() for m in maps.values())), np.int64, 2 * int(count.sum())
        ).reshape(-1, 2)
        self._assign(pairs[:, 0], pairs[:, 1], count, entries[:, 0], entries[:, 1])

    @classmethod
    def from_items(
        cls, e: np.ndarray, f: np.ndarray, count: np.ndarray, c: np.ndarray, image: np.ndarray, *, _handed_over: bool = False
    ) -> "EdgeCorrespondence":
        """The maps given as items: item i stores for (e[i], f[i]) the next
        count[i] entries (c, image), in order.  A later item for the same
        (e, f) replaces the whole map; a colour repeated within an item
        keeps its last image.  The table copies `c` and `image` unless
        the caller hands them over (`_handed_over`) and never uses them
        again."""
        out = cls.__new__(cls)
        out._assign(e, f, count, c, image, _handed_over)
        return out

    def _assign(self, e, f, count, c, image, handed_over: bool = False) -> None:
        e, f, count = (np.asarray(a, dtype=np.int64) for a in (e, f, count))
        c, image = np.asarray(c, dtype=np.int64), np.asarray(image, dtype=np.int64)
        # The last item of each (e, f) keeps its entries; rows in (e, f) order.
        order = np.lexsort((np.arange(e.size), f, e))
        es, fs = e[order], f[order]
        last = np.ones(e.size, dtype=bool)
        last[:-1] = (es[1:] != es[:-1]) | (fs[1:] != fs[:-1])
        items = order[last]
        row_of_item = np.full(e.size, -1, dtype=np.int64)
        row_of_item[items] = np.arange(items.size)
        row = np.repeat(row_of_item, count)
        if items.size < e.size:  # a later item replaced an earlier one
            kept = row >= 0
            row, c, image = row[kept], c[kept], image[kept]
        # Entries by (row, c); a repeated c keeps its last image.
        if ((row[1:] > row[:-1]) | ((row[1:] == row[:-1]) & (c[1:] > c[:-1]))).all():  # in that order already, each once
            if not handed_over:
                c, image = c.copy(), image.copy()  # the table's own arrays, as a gather makes
        else:
            key = PairIndex(row, c).keys
            order = np.argsort(key, kind="stable")
            key = key[order]
            last = np.ones(key.size, dtype=bool)
            last[:-1] = key[1:] != key[:-1]
            order = order[last]
            row, c, image = row[order], c[order], image[order]
        self.pair_e, self.pair_f = e[items], f[items]
        self.entry_ptr = np.zeros(items.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=items.size), out=self.entry_ptr[1:])
        self.entry_c, self.entry_image = c, image
        for table in (self.pair_e, self.pair_f, self.entry_ptr, self.entry_c, self.entry_image):
            table.flags.writeable = False

    @property
    def is_trivial(self) -> bool:
        return not self.pair_e.size

    # -- array readers -------------------------------------------------

    @cached_property
    def _pairs(self) -> PairIndex:
        """The stored pairs (e, f), which `rows` finds."""
        return PairIndex(self.pair_e, self.pair_f)

    @cached_property
    def _entries_index(self) -> PairIndex:
        """The entries as (pair index, c), which `blocking` finds."""
        return PairIndex.of_segments(self.entry_ptr, self.entry_c)

    def rows(self, e: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The index of the pair (e[i], f[i]) among the stored pairs, or -1
        where no map is stored for it."""
        return self._pairs.find(e, f)

    def deciding(self, e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, forward): the stored pair that decides whether e[i]
        blocks f[i], the one stored for (e, f) (forward) else the one for
        (f, e), -1 where neither is stored."""
        row = self.rows(e, f)
        forward = row >= 0
        return np.where(forward, row, self.rows(f, e)), forward

    def blocking(
        self, e: np.ndarray, ce: np.ndarray, f: np.ndarray, cf: np.ndarray, decided: tuple | None = None
    ) -> np.ndarray:
        """Whether (e[i], ce[i]) blocks (f[i], cf[i]): through the map
        stored for (e, f), else the one stored for (f, e) read backwards
        (it sends cf to ce), else the identity, as `blocks` does.
        `decided` is `deciding(e, f)` when the caller has it."""
        row, forward = self.deciding(e, f) if decided is None else decided
        pos = self._entries_index.find(row, np.where(forward, ce, cf))
        hit = pos >= 0
        hit[hit] = self.entry_image[pos[hit]] == np.where(forward, cf, ce)[hit]
        return np.where(row >= 0, hit, ce == cf)

    # -- scalar readers (the oracles and the tests) ----------------------

    @cached_property
    def _stored_maps(self) -> dict[tuple[int, int], tuple[list, list]]:
        """{(e, f): (colours, images)} of every stored map, as Python
        lists, for the scalar readers."""
        ptr, colours, images = self.entry_ptr.tolist(), self.entry_c.tolist(), self.entry_image.tolist()
        return {
            pair: (colours[a:b], images[a:b])
            for pair, a, b in zip(zip(self.pair_e.tolist(), self.pair_f.tolist()), ptr, ptr[1:])
        }

    def _entries(self, e: int, f: int) -> tuple[list, list] | None:
        """(colours, images) of the map stored for (e, f) as lists, or None."""
        return self._stored_maps.get((e, f))

    def map_for(self, e: int, f: int) -> dict[int, int] | None:
        """The partial map sigma_{e,f} as a new dict: the one stored for
        (e, f), else the inverse of the one stored for (f, e), else None
        (the identity).  An inverse sends a colour that the stored map
        gives several preimages (validation reports that map as not
        injective) to the largest of them."""
        stored = self._entries(e, f)
        if stored is not None:
            return dict(zip(*stored))
        stored = self._entries(f, e)
        return None if stored is None else dict(zip(stored[1], stored[0]))

    def image(self, e: int, f: int, c: int) -> int | None:
        """sigma_{e,f}(c), or None when the stored partial map leaves c free."""
        stored = self._entries(e, f)
        if stored is None:
            stored = self._entries(f, e)
            if stored is None:
                return c
            stored = stored[1][::-1], stored[0][::-1]  # the largest preimage first
        colours, images = stored
        try:
            j = colours.index(c)
        except ValueError:
            return None
        return images[j]

    def blocks(self, e: int, c: int, f: int, c_other: int) -> bool:
        """Does (e, c) block (f, c_other)?  Through the map stored for
        (e, f), else the one stored for (f, e) read backwards (it sends
        c_other to c), else the identity, as `blocking` decides; for an
        injective map, as validation requires, that is
        `image(e, f, c) == c_other`."""
        stored = self._entries(e, f)
        if stored is None:
            stored = self._entries(f, e)
            if stored is None:
                return c == c_other
            c, c_other = c_other, c
        colours, images = stored
        try:
            j = colours.index(c)
        except ValueError:
            return False
        return images[j] == c_other


def segment_blocks(ptr: np.ndarray):
    """Yield (rows, members) per distinct nonzero length of the segments
    `ptr[i]:ptr[i+1]`: the segments of that length and their member
    positions as a (rows, length) array, reduced along axis 1."""
    lengths = np.diff(ptr)
    distinct = np.sort(lengths)
    for n in distinct[np.diff(distinct, prepend=0) > 0].tolist():
        rows = np.flatnonzero(lengths == n)
        yield rows, ptr[rows, None] + np.arange(n)


@dataclass(frozen=True, eq=False)
class WeightedListAssignment:
    """Per-edge colour lists with weights mu(e, c) in (0, 1], as one pair
    table in CSR (compressed sparse row) shape: `edges` holds the ids of
    the edges with a list (empty lists included) ascending, the pairs of
    `edges[i]` are `edge_ptr[i]:edge_ptr[i+1]`, with int64 colours
    `colour_of` ascending within each edge and float64 weights `mu`.
    Other structures share these arrays, so nothing writes to them.

    The weighted size |A|_mu of a set A of (edge, colour) pairs is the sum
    of the member weights.  Each reader fixes its own float: `weighted_size`
    adds left to right in ascending (edge, colour) order, `list_weight`
    with Python's `sum`, and the round structure's list and neighbourhood
    weights with numpy's sum of each row (`nibble.segment_sums`), which
    adds a row of under eight members left to right and a longer one as
    eight interleaved partial sums joined pairwise (numpy's pairwise
    summation), so it can differ from the left-to-right sum in the last
    bits.
    """

    edges: np.ndarray
    edge_ptr: np.ndarray
    colour_of: np.ndarray
    mu: np.ndarray

    @classmethod
    def from_pairs(
        cls, edges: Sequence[int], edge_of: Sequence[int], colour_of: Sequence[int], mu: Sequence[float],
        *, _handed_over: bool = False,
    ) -> "WeightedListAssignment":
        """The table of the ascending edge ids `edges` and the pairs
        (edge_of[i], colour_of[i]) of weight mu[i], given in any order; a
        pair given twice keeps its last weight.  Every edge_of must be in
        `edges`.  Pairs given ascending and distinct, as a table's own
        pairs or a mask of them are, skip the sort and are copied once,
        unless the caller hands `colour_of` and `mu` over (`_handed_over`)
        and never uses them again."""
        colours = np.asarray(colour_of, dtype=np.int64)
        edge_of = np.asarray(edge_of, dtype=np.int64)
        weights = np.asarray(mu, dtype=np.float64)
        step = np.diff(edge_of)
        if (step >= 0).all() and ((step > 0) | (colours[1:] > colours[:-1])).all():
            if not _handed_over:
                colours, weights = colours.copy(), weights.copy()  # the table's own arrays, as a gather makes
        else:
            order = np.lexsort((colours, edge_of))  # stable: repeats stay in input order
            edge_of, colours, weights = edge_of[order], colours[order], weights[order]
            last = np.ones(order.size, dtype=bool)
            last[:-1] = (edge_of[1:] != edge_of[:-1]) | (colours[1:] != colours[:-1])
            edge_of, colours, weights = edge_of[last], colours[last], weights[last]
        edges = np.asarray(edges, dtype=np.int64)
        edge_ptr = np.append(np.searchsorted(edge_of, edges), edge_of.size)
        return cls(edges=edges, edge_ptr=edge_ptr, colour_of=colours, mu=weights)

    @classmethod
    def build(cls, lists: Mapping[int, Iterable[int]], weights: Mapping[tuple[int, int], float] | None = None) -> "WeightedListAssignment":
        """Lists sorted and deduplicated; weights default to 1.0.  Raises
        MissingWeightError for a listed colour without a weight."""
        pairs = [(e, c) for e, cs in lists.items() for c in cs]
        try:
            mu = [1.0 if weights is None else weights[pair] for pair in pairs]
        except KeyError as exc:
            e, c = exc.args[0]
            raise MissingWeightError(f"no weight for edge {e}, colour {c}") from None
        return cls.from_pairs(sorted(lists), [e for e, _ in pairs], [c for _, c in pairs], mu)

    @classmethod
    def unit(cls, lists: Mapping[int, Iterable[int]]) -> "WeightedListAssignment":
        return cls.build(lists)

    @cached_property
    def edge_of(self) -> np.ndarray:
        """The edge id of every pair."""
        return np.repeat(self.edges, np.diff(self.edge_ptr))

    @cached_property
    def _scalar_table(self) -> tuple[list, list, list, list]:
        """`edges`, `edge_ptr`, `colour_of` and `mu` as Python lists, for
        the scalar readers."""
        return self.edges.tolist(), self.edge_ptr.tolist(), self.colour_of.tolist(), self.mu.tolist()

    def span(self, e: int) -> tuple[int, int]:
        """The pair range (a, b) of edge e; (0, 0) when e has no list."""
        edges, ptr, _, _ = self._scalar_table
        i = bisect_left(edges, e)
        if i < len(edges) and edges[i] == e:
            return ptr[i], ptr[i + 1]
        return 0, 0

    def colours(self, e: int) -> tuple[int, ...]:
        a, b = self.span(e)
        return tuple(self._scalar_table[2][a:b])

    def has(self, e: int, c: int) -> bool:
        return c in self.colours(e)

    def weight(self, e: int, c: int) -> float:
        a, b = self.span(e)
        _, _, colours, mu = self._scalar_table
        try:
            return mu[a + colours[a:b].index(c)]
        except ValueError:
            raise MissingWeightError(f"no weight for edge {e}, colour {c}") from None

    def list_weight(self, e: int) -> float:
        a, b = self.span(e)
        return sum(self._scalar_table[3][a:b])

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(self.edges.tolist())

    def restrict_to_edges(self, edge_ids: Iterable[int]) -> "WeightedListAssignment":
        keep = set(edge_ids)
        rows = np.array([e in keep for e in self.edges.tolist()], dtype=bool)
        pairs = np.repeat(rows, np.diff(self.edge_ptr))
        return self.from_pairs(self.edges[rows], self.edge_of[pairs], self.colour_of[pairs], self.mu[pairs])


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
# Map entries whose injectivity is checked at once: a few MB of temporaries.
_CHECK_BLOCK = 1 << 17


def _int64_colours(colour_of: Sequence | Mapping[int, object], ids: Sequence[int], size: int) -> tuple[np.ndarray, np.ndarray]:
    """(value, exact) over edge ids below `size`: exact[u] says that
    colour_of[u] (u in `ids`) is an int in the int64 range, and value[u]
    holds it; both are zero elsewhere."""
    value = np.zeros(size, dtype=np.int64)
    exact = np.zeros(size, dtype=bool)
    ids = list(ids)
    colours = list(map(colour_of.__getitem__, ids))
    if set(map(type, colours)) <= {int}:  # one pass, unless a value is no int64
        try:
            value[ids] = np.fromiter(colours, np.int64, len(colours))
            exact[ids] = True
            return value, exact
        except OverflowError:
            pass
    for u, c in zip(ids, colours):
        if type(c) is int and c in _INT64:
            value[u] = c
            exact[u] = True
    return value, exact


def _blocking_at(sigma, e, f, colour_of, value: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Ascending indices i at which (e[i], colour_of[e[i]]) blocks
    (f[i], colour_of[f[i]]), given `_int64_colours` of the colours.

    Pairs whose two colours are ints in the int64 range are compared as
    arrays, through `sigma.blocking` (the identity blocks equal colours);
    every other pair goes through `sigma.blocks`, so any colour value is
    handled."""
    scalar = ~(exact[e] & exact[f])
    hit = ~scalar & (value[e] == value[f] if sigma.is_trivial else sigma.blocking(e, value[e], f, value[f]))
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
    return first_violations(graph, lists, sigma, colouring)[0]


def first_violations(graph: LinearHypergraph, lists: WeightedListAssignment, sigma: EdgeCorrespondence,
                     colouring: PartialColouring | Mapping[int, int], first: int | None = None) -> tuple[list[Violation], int]:
    """(the first `first` violations of `validate_colouring`, all for None;
    how many there are): those past `first` are counted, not built."""
    colours = colouring.colours if isinstance(colouring, PartialColouring) else colouring
    m = graph.edge_count
    ids = sorted(colours)  # each id once: the order of the (edge, colour) items
    known = [operator.index(e) for e in ids if 0 <= e < m]
    # List membership of the int64 colours, read off the pair table; any
    # other colour value goes through `lists.has`.
    value, exact = _int64_colours(colours, known, m)
    edge_of = lists.edge_of
    p = np.flatnonzero((edge_of >= 0) & (edge_of < m))
    p = p[exact[edge_of[p]] & (value[edge_of[p]] == lists.colour_of[p])]
    listed = np.zeros(m, dtype=bool)
    listed[edge_of[p]] = True
    all_listed = len(known) == len(ids) and listed[known].all()  # then no list violation
    bad = [] if all_listed else [e for e in ids if not (0 <= e < m and (listed[e] if exact[e] else lists.has(e, colours[e])))]
    violations = [
        Violation("unknown-edge", (e,), f"edge {e} not in instance") if not 0 <= e < m
        else Violation("list", (e, colours[e]), f"edge {e} coloured {colours[e]} which is not in its list")
        for e in bad[:first]
    ]
    coloured = np.zeros(m, dtype=bool)
    coloured[known] = True
    pe, pf = graph.incident_pairs
    both = coloured[pe] & coloured[pf]
    pe, pf = pe[both], pf[both]
    at = _blocking_at(sigma, pe, pf, colours, value, exact)
    shown = at[: None if first is None else max(first - len(violations), 0)]
    for e, f in zip(pe[shown].tolist(), pf[shown].tolist()):
        c, cf = colours[e], colours[f]
        violations.append(Violation("blocking", (e, f, c, cf), f"({e},{c}) blocks ({f},{cf})"))
    return violations, len(bad) + at.size


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
    listed = set(lists.edge_ids())
    problems = [
        v
        for v in validate_colouring(graph, lists, sigma, colours)
        if not (v.kind == "list" and v.subject[0] not in listed)
    ]
    if problems:
        raise PreconditionError(f"colouring invalid: {problems[0]}")
    kept = np.zeros(lists.mu.size, dtype=bool)
    uncoloured = [e for e in lists.edge_ids() if e not in colours]
    for e in uncoloured:
        blocked: set[int] = set()
        for f in graph.adjacent_edges(e):
            cf = colours.get(f)
            if cf is None:
                continue
            image = sigma.image(f, e, cf)
            if image is not None:
                blocked.add(image)
        a, b = lists.span(e)
        kept[a:b] = [c not in blocked for c in lists.colour_of[a:b].tolist()]
    return WeightedListAssignment.from_pairs(uncoloured, lists.edge_of[kept], lists.colour_of[kept], lists.mu[kept])


def validate_instance(
    graph: LinearHypergraph,
    sigma: EdgeCorrespondence,
    lists: WeightedListAssignment,
    universe: tuple[int, int] | None = None,
) -> list[Violation]:
    """Structural report: uniformity, linearity, correspondence consistency,
    weight range, universe membership.  Total: never raises."""
    violations: list[Violation] = []
    if graph.k < 1:
        violations.append(Violation("uniformity", (), f"uniformity k = {graph.k} is below 1"))
    # Edge by edge: its distinct vertex count, then its out-of-range slots in order.
    m, slots = graph.edge_count, graph.slots
    at, vertex = graph._by_vertex
    again = (at[1:] == at[:-1]) & (vertex[1:] == vertex[:-1])  # a vertex an edge lists twice
    distinct = np.bincount(slots[:, 0], minlength=m) - np.bincount(at[1:][again], minlength=m)
    outside: dict[int, list[int]] = {}
    for eid, v in slots[(slots[:, 1] < 0) | (slots[:, 1] >= graph.vertex_count)].tolist():
        outside.setdefault(eid, []).append(v)
    for eid in sorted(outside.keys() | set(np.flatnonzero(distinct != graph.k).tolist())):
        if distinct[eid] != graph.k:
            violations.append(
                Violation("uniformity", (eid,), f"edge {eid} has {distinct[eid]} distinct vertices, expected {graph.k}")
            )
        for v in outside.get(eid, ()):
            violations.append(Violation("vertex-range", (eid, v), f"edge {eid} uses out-of-range vertex {v}"))
    e, f, repeated = graph._meetings  # pairs that meet at two vertices or more
    for e, f in zip(e[repeated].tolist(), f[repeated].tolist()):
        violations.append(Violation("linearity", (e, f), f"edges {e} and {f} share more than one vertex"))
    violations += _sigma_violations(graph, sigma, universe)
    # The lists, read off the pair table in ascending (edge, colour) order.
    bad_weight = ~((lists.mu > 0.0) & (lists.mu <= 1.0))
    lo, hi = universe if universe is not None else (-np.inf, np.inf)
    outside = (lists.colour_of < lo) | (lists.colour_of > hi)
    for p in np.flatnonzero(bad_weight | outside).tolist():
        e, c, w = int(lists.edge_of[p]), int(lists.colour_of[p]), float(lists.mu[p])
        if bad_weight[p]:
            violations.append(Violation("weight-range", (e, c), f"weight {w} for edge {e} colour {c} outside (0,1]"))
        if outside[p]:
            violations.append(Violation("colour-universe", (e, c), f"colour {c} on edge {e} outside declared universe"))
    return violations


def _sigma_violations(
    graph: LinearHypergraph,
    sigma: EdgeCorrespondence,
    universe: tuple[int, int] | None,
) -> list[Violation]:
    """The correspondence's violations, pair by pair in ascending (e, f)
    order: a self pair (nothing else is checked for it), then a pair that
    is not incident, a map that is not injective, maps stored both ways
    that are not mutual inverses, and entries outside the universe in
    ascending c."""
    e, f, ptr = sigma.pair_e, sigma.pair_f, sigma.entry_ptr
    c, image = sigma.entry_c, sigma.entry_image
    pairs = e.size
    self_pair = e == f

    incident = PairIndex(*graph.incident_pairs).find(np.minimum(e, f), np.maximum(e, f)) >= 0

    # Two entries of one map with one image share a (pair, image) key, sorted
    # within their map, so a repeat's position names its pair.  A map whose
    # reverse is stored is its inverse when the two have one length and the
    # reverse sends each image back to its colour: the map's colours are
    # distinct, so its swapped entries are then exactly the reverse's.  The
    # maps whose first entry falls in one stretch of _CHECK_BLOCK entries go
    # at once.
    length = np.diff(ptr)
    reverse = np.where(self_pair, -1, sigma.rows(f, e))
    inverse = (reverse < 0) | (length == length[reverse])
    injective = np.ones(pairs, dtype=bool)
    cuts = np.append(np.searchsorted(ptr[:-1], np.arange(0, max(c.size, 1), _CHECK_BLOCK)), pairs)
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        keys = PairIndex.of_segments(ptr[a : b + 1], image[ptr[a] : ptr[b]]).keys
        keys.sort()
        repeat = ptr[a] + 1 + np.flatnonzero(keys[1:] == keys[:-1])
        injective[np.searchsorted(ptr, repeat, side="right") - 1] = False
        both = a + np.flatnonzero(reverse[a:b] >= 0)
        if both.size:  # only then is the entry index built
            row = np.repeat(both, length[both])
            at = segment_ranges(ptr[both], length[both])
            inverse[row[~sigma.blocking(f[row], image[at], e[row], c[at])]] = False

    outside = np.zeros(c.size, dtype=bool)
    if universe is not None:
        lo, hi = universe
        outside = (c < lo) | (c > hi) | (image < lo) | (image > hi)

    violations: list[Violation] = []
    flagged = np.zeros(pairs, dtype=bool)  # a self pair's entries are never read
    flagged[np.searchsorted(ptr, np.flatnonzero(outside), side="right") - 1] = True
    for i in np.flatnonzero(self_pair | ~incident | ~injective | ~inverse | flagged).tolist():
        a, b = int(e[i]), int(f[i])
        if self_pair[i]:
            violations.append(Violation("sigma-self", (a, b), f"correspondence stored for edge {a} with itself"))
            continue
        if not incident[i]:
            violations.append(Violation("sigma-adjacency", (a, b), f"correspondence for non-incident pair ({a},{b})"))
        if not injective[i]:
            violations.append(Violation("sigma-injective", (a, b), f"correspondence ({a},{b}) is not injective"))
        if not inverse[i]:
            violations.append(
                Violation("sigma-inverse", (a, b), f"stored maps for ({a},{b}) and ({b},{a}) are not mutual inverses")
            )
        for j in (ptr[i] + np.flatnonzero(outside[ptr[i] : ptr[i + 1]])).tolist():
            c1, c2 = int(c[j]), int(image[j])
            violations.append(
                Violation("sigma-universe", (a, b, c1, c2), f"correspondence entry ({c1},{c2}) outside colour universe")
            )
    return violations
