"""The random colouring procedure and its parameter schedule.

One round of the procedure, given parameters (eps, k, L, N):

  (I)   every pair (e, c) with c in L(e) is activated independently with
        probability mu(e,c) / (L ln N);
  (II)  for each edge e, vertex v in e and colour c in L(e), if any pair in
        the colour neighbourhood N(e,v,c) was activated, (e,c) is removed
        from the surviving list and unassigned (removal is wasteful: it
        happens whether or not e itself was activated with c);
  (III) an independent coin flip per (e,v,c) succeeds with the equalizing
        probability Eq(e,v,c); any failure removes (e,c) likewise.

An edge that retains at least one activated colour after (III) becomes
coloured with its lowest retained colour.  Step (II) acts on the snapshot
of step (I) assignments, so rounds are bulk-synchronous and the outcome is
a pure function of the draws.  The equalizing flip makes every pair's
survival probability exactly K^k, where

    K = 1 - (N/L) * (1 + eps/8) / ln N.

Surviving lists of uncoloured edges are then truncated and rescaled to hit
the next list-weight target exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PairIndex,
    PreconditionError,
    WeightedListAssignment,
    segment_blocks,
    segment_ranges,
)

E_SQUARED = math.e**2

SCHEDULE_MODES = ("eps8", "eps2", "exp51")


class ParameterDomainError(ValueError):
    """Parameters outside the domain where the procedure is defined."""


class DegenerateWeightError(ValueError):
    """A factor of an equalizing product is not positive."""


class ScheduleCollapseError(RuntimeError):
    """The parameter recursion left its domain (N too small for the regime)."""

    def __init__(self, message: str, round_index: int):
        super().__init__(message)
        self.round_index = round_index


class CannotTruncateError(ValueError):
    """A surviving list is below the truncation target."""

    def __init__(self, message: str, edge: int):
        super().__init__(message)
        self.edge = edge


class NibbleFailureError(RuntimeError):
    """A round kept violating its empirical bounds for every retry."""

    def __init__(self, message: str, round_index: int, diagnostics: dict):
        super().__init__(message)
        self.round_index = round_index
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class NibbleParams:
    """Round parameters (eps, k, L, N) and the derived keep probability K.

    Requires N > e^2 (so ln N > 2) and a positive K; the ratio bounds
    1 + eps < L/N < 3ek are round-entry conditions checked by the driver,
    not here, because diagnostics legitimately evaluate the procedure
    outside that regime.
    """

    eps: float
    k: int
    L: float
    N: float
    mode: str = "eps8"

    def __post_init__(self):
        if not (0.0 < self.eps <= 0.25):
            raise ParameterDomainError(f"eps must lie in (0, 1/4], got {self.eps}")
        if self.k < 2 or int(self.k) != self.k:
            raise ParameterDomainError(f"k must be an integer >= 2, got {self.k}")
        if self.L <= 0.0 or self.N <= 0.0:
            raise ParameterDomainError("L and N must be positive")
        if self.N <= E_SQUARED:
            raise ParameterDomainError(f"N must exceed e^2 = {E_SQUARED:.4f}, got {self.N}")
        if self.mode not in SCHEDULE_MODES:
            raise ParameterDomainError(f"unknown schedule mode {self.mode!r}")
        if self.K <= 0.0:
            raise ParameterDomainError(
                f"keep probability K = {self.K:.6g} is not positive (N/L too large for ln N)"
            )

    @property
    def K(self) -> float:
        return 1.0 - (self.N / self.L) * (1.0 + self.eps / 8.0) / math.log(self.N)

    @property
    def ratio(self) -> float:
        return self.L / self.N

    @property
    def activation_scale(self) -> float:
        """Denominator L * ln N of the activation probabilities."""
        return self.L * math.log(self.N)


def schedule_step(L: float, N: float, K: float, k: int, eps: float, mode: str = "eps8") -> tuple[float, float]:
    """One step of the parameter recursion; pure in all arguments."""
    lnN = math.log(N)
    L_next = L * K**k - N ** (2.0 / 3.0)
    if mode == "eps8":
        shrink = (1.0 - eps / 8.0) / lnN * K**k
    elif mode == "eps2":
        shrink = (1.0 - eps / 2.0) / lnN * K**k
    elif mode == "exp51":
        shrink = K**k / lnN * (1.0 + 1.0 / lnN)
    else:
        raise ParameterDomainError(f"unknown schedule mode {mode!r}")
    N_next = N * K ** (k - 1) * (1.0 - shrink) + N ** (2.0 / 3.0)
    return L_next, N_next


def next_params(params: NibbleParams) -> tuple[float, float]:
    """(L', N') for the next round; raises ScheduleCollapseError if L' <= 0."""
    L_next, N_next = schedule_step(params.L, params.N, params.K, params.k, params.eps, params.mode)
    if L_next <= 0.0:
        raise ScheduleCollapseError(
            f"schedule collapse: L' = {L_next:.6g} <= 0 at L={params.L:.6g}, N={params.N:.6g} "
            "(N too small for the asymptotic regime)",
            round_index=0,
        )
    return L_next, N_next


@dataclass(frozen=True)
class ScheduleRow:
    round: int
    L: float
    N: float
    ratio: float


def simulate_schedule(eps: float, k: int, delta: float, mode: str = "eps8") -> list[ScheduleRow]:
    """Deterministic trajectory (i, L_i, N_i, ratio_i) starting from
    L_0 = (1+eps) delta, N_0 = delta, iterating until the ratio reaches
    3ek or the iteration cap ceil(100 k ln(delta) / eps)."""
    if delta <= E_SQUARED:
        raise ParameterDomainError(f"delta must exceed e^2, got {delta}")
    try:
        target = 3.0 * math.e * k
        cap = math.ceil(100.0 / eps * k * math.log(delta))
    except OverflowError:  # k beyond the float range, or an infinite cap
        raise ParameterDomainError(
            "the target ratio 3ek or the iteration cap 100 k ln(delta) / eps lies beyond the float range"
        ) from None
    L, N = (1.0 + eps) * delta, float(delta)
    rows = [ScheduleRow(0, L, N, L / N)]
    for i in range(cap):
        if L / N >= target:
            break
        try:
            params = NibbleParams(eps=eps, k=k, L=L, N=N, mode=mode)
            L, N = next_params(params)
        except (ParameterDomainError, ScheduleCollapseError) as exc:
            raise ScheduleCollapseError(f"schedule collapsed at round {i}: {exc}", round_index=i) from exc
        rows.append(ScheduleRow(i + 1, L, N, L / N))
    return rows


# ---------------------------------------------------------------------------
# Round structure: flattened (edge, colour) pairs and their neighbourhoods.
# ---------------------------------------------------------------------------

# Rows whose equalizing factors are gathered at once: a few MB at most,
# so the factors of a whole round never sit in memory together.
EQUALIZING_BLOCK = 1 << 14

# Candidate neighbours expanded at once when the rows are built: a few
# hundred KB of temporaries, so the candidates of a whole structure never
# sit in memory together.
NEIGHBOUR_BLOCK = 1 << 14

# Stored-map entries joined with the pairs at once: a few MB of
# temporaries.  Enough queries that `PairIndex.find` takes its table over
# a key span of up to 4 * _JOIN_BLOCK pairs (PairIndex.TABLE_SLOTS).
_JOIN_BLOCK = 1 << 17


def segment_sums(values: np.ndarray, ptr: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """Sum of each segment `values[ptr[i]:ptr[i+1]]`, or of
    `values[index[ptr[i]:ptr[i+1]]]` when `index` is given; 0.0 when empty.

    Segments of one length are gathered into a (segments, length) block
    and summed along it, which gives the same float as summing each
    segment on its own; `np.add.reduceat` would not (it accumulates in
    another order from three members up)."""
    out = np.zeros(ptr.size - 1, dtype=np.float64)
    for rows, members in segment_blocks(ptr):
        out[rows] = values[members if index is None else index[members]].sum(axis=1)
    return out


@dataclass
class RoundStructure:
    """Immutable per-round view of an instance.

    `lists` is the lists' pair table itself, not a copy: pairs (e, c) in
    ascending order, those of edge `lists.edges[i]` at
    `lists.edge_ptr[i]:lists.edge_ptr[i+1]`.  Row r = p*k + j stands for
    the colour neighbourhood N(e, v_j, c) of pair p = (e, c), where v_j is
    the j-th vertex of e in ascending order, and its members are ascending
    pair indices.  By linearity these neighbourhoods are disjoint across
    vertex slots, and by bijectivity across colours of one edge.

    `groups` (`_Groups`) sorts the rows by (vertex, colour), once.  Under
    the identity correspondence, list colouring, the rows of one group are
    each other's members, so `rows` is `groups` itself; when `sigma`
    stores maps, `rows` is a `_Csr` built from the groups, the members
    written out, row r as `nbr_idx[ptr[r]:ptr[r+1]]`.  Both layouts answer
    the same questions (`sums`, `products`, `longest`, `hit`), so every
    operation below has one entry point.
    """

    lists: WeightedListAssignment
    vertex_of: np.ndarray  # (P, k) vertex ids
    groups: "_Groups"  # the rows grouped by (vertex, colour)
    rows: "_Groups | _Csr"  # the colour neighbourhoods, row r = p*k + j
    k: int

    @classmethod
    def build(
        cls,
        graph: LinearHypergraph,
        lists: WeightedListAssignment,
        sigma: EdgeCorrespondence,
        *,
        _maps: "_StoredMaps | None" = None,
    ) -> "RoundStructure":
        """The structure of `lists` on an instance that `validate_instance`
        passes, as every caller's does: the build relies on every vertex
        lying in range and every stored map joining two distinct edges.
        `_maps` is `_StoredMaps.place(sigma, graph.vertex_table)` when the
        caller has it, as `drive` does for all its builds.

        The groups are one stable argsort of the rows' order-preserving
        int64 (vertex, colour) keys."""
        k = graph.k
        vertex_of = graph.vertex_table[lists.edge_of]
        keys = PairIndex(vertex_of.ravel(), np.repeat(lists.colour_of, k)).keys
        order = np.argsort(keys, kind="stable")
        groups = _Groups(order, _runs(keys[order]), k)
        if sigma.is_trivial or not lists.mu.size:
            rows = groups
        else:
            rows = _Csr(*_neighbourhood_rows(sigma, lists, graph.vertex_table, groups, _maps), k)
        return cls(lists=lists, vertex_of=vertex_of, groups=groups, rows=rows, k=k)

    @property
    def pair_count(self) -> int:
        return self.lists.mu.size

    @cached_property
    def row_weights(self) -> np.ndarray:
        """|N(e, v_j, c)|_mu per row r = p*k + j."""
        return self.rows.sums(self.lists.mu)

    def max_neighbourhood(self) -> tuple[float, tuple[int, int, int] | None, int]:
        """(max weighted size, witnessing (e, v, c), max cardinality).

        The witness is the first maximum in (edge, vertex, colour) order,
        or None when every neighbourhood is empty."""
        weights = self.row_weights
        if weights.size == 0:
            return 0.0, None, 0
        best = float(weights.max())
        card = self.rows.longest()
        if best <= 0.0:
            return best, None, card
        rows = np.flatnonzero(weights == best)
        p, j = rows // self.k, rows % self.k
        edge_of = self.lists.edge_of
        first = int(np.lexsort((p, j, edge_of[p]))[0])
        p, j = int(p[first]), int(j[first])
        return best, (int(edge_of[p]), int(self.vertex_of[p, j]), int(self.lists.colour_of[p])), card

    def max_colour_sum(self) -> tuple[float, tuple[int, int] | None]:
        """(largest weight sum of the pairs at one vertex with one colour,
        its (vertex, colour)); (0.0, None) without pairs.  Each group's
        sum is added left to right in pair order, as the last entry of its
        cumulative sum, and the witness is the first maximum in (vertex,
        colour) order."""
        order, bounds = self.groups.order, self.groups.bounds
        if bounds.size < 2:
            return 0.0, None
        weight = self.lists.mu[order // self.k]
        sums = np.empty(bounds.size - 1)
        for at, members in segment_blocks(bounds):
            sums[at] = np.cumsum(weight[members], axis=1)[:, -1]
        g = int(np.argmax(sums))
        p, j = divmod(int(order[bounds[g]]), self.k)
        return float(sums[g]), (int(self.vertex_of[p, j]), int(self.lists.colour_of[p]))

    def min_list_weight(self) -> tuple[float, int | None]:
        """(smallest |L(e)|_mu, the first edge with it); (0.0, None)
        without edges."""
        edges = self.lists.edges
        if edges.size == 0:
            return 0.0, None
        weights = segment_sums(self.lists.mu, self.lists.edge_ptr)
        i = int(np.argmin(weights))
        return float(weights[i]), int(edges[i])

    def min_list_size(self) -> int:
        return int(np.diff(self.lists.edge_ptr).min()) if self.lists.edges.size else 0

    def equalizing(self, params: NibbleParams) -> tuple[np.ndarray, int]:
        """Eq values per (pair, vertex slot), clamped to <= 1; returns the
        number of clamped entries (hypothesis |N(e,v,c)|_mu <= N failed).
        A factor that is not positive raises DegenerateWeightError at the
        first row with such a member: the first with a nonzero sum of the
        0/1 flags, which counts exactly."""
        factors = self.lists.mu / params.activation_scale  # 1 - mu/(L ln N) per pair, in place
        np.subtract(1.0, factors, out=factors)
        bad = factors <= 0.0
        if bad.any():
            degenerate = np.flatnonzero(self.rows.sums(bad.astype(np.float64)))
            if degenerate.size:
                p, j = divmod(int(degenerate[0]), self.k)
                raise DegenerateWeightError(
                    f"equalizing factor <= 0 for pair {(int(self.lists.edge_of[p]), int(self.lists.colour_of[p]))} "
                    f"at slot {j}"
                )
        eq = params.K / self.rows.products(factors)
        over = eq > 1.0
        eq[over] = 1.0
        return eq.reshape(self.vertex_of.shape), int(over.sum())


@dataclass(frozen=True)
class _Groups:
    """The rows grouped by (vertex, colour).  `order` holds the rows
    r = p*k + j stably sorted by (vertex_of[p, j], colour_of[p]); group g,
    `order[bounds[g]:bounds[g+1]]`, holds the rows of one vertex and one
    colour, ascending.  As the rows of the identity correspondence, each
    row's members are the pairs of the other rows of its group, ascending
    (`_candidates`), so a group of s rows stands for s(s - 1) members
    that are never written out."""

    order: np.ndarray
    bounds: np.ndarray
    k: int

    def longest(self) -> int:
        """The largest member count, on a structure with rows."""
        return int(np.diff(self.bounds).max()) - 1

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per row, the sum of `values` (one per pair) over its members.
        A block of rows gathers its members' values as a (rows, s - 1)
        array and sums its last axis: each row's own sum, as
        `segment_sums` gives it."""
        out = np.zeros(self.order.size)
        for at, others in _candidates(self.bounds, values[self.order // self.k]):
            out[self.order[at]] = others.sum(axis=-1)
        return out

    def products(self, values: np.ndarray) -> np.ndarray:
        """Per row, the product of `values` over its members in ascending
        order, 1.0 for none: the left-to-right product of
        `np.multiply.reduceat`.  A block multiplies one member column
        into all its rows at a time, where a reduction along the short
        last axis would run one inner loop per row."""
        out = np.ones(self.order.size)
        for at, others in _candidates(self.bounds, values[self.order // self.k]):
            product = others[:, 0].copy()
            for column in others.T[1:]:
                product *= column
            out[self.order[at]] = product
        return out

    def hit(self, flat: np.ndarray) -> np.ndarray:
        """Per trial and pair, whether a member of any of the pair's rows
        is marked in `flat`, a (trials, P) array: a row is hit when its
        group has two marked rows, or one that is not its own."""
        out = np.zeros(flat.shape, dtype=bool)
        if not self.order.size:
            return out
        pair, sizes = self.order // self.k, np.diff(self.bounds)
        # Trials go in chunks of at most CONFLICT_CHUNK bytes: per trial and
        # row, a chunk holds at most 7 at once, the marked and hit flags, the
        # group counts (int32, at most one group per row) and the counts
        # clamped to 2 and repeated per row (int8).
        step = max(1, CONFLICT_CHUNK // (7 * self.order.size))
        for t in range(0, flat.shape[0], step):
            marked = flat[t : t + step][:, pair]
            count = np.add.reduceat(marked, self.bounds[:-1], axis=1, dtype=np.int32)
            hit = np.repeat(np.minimum(count, 2, out=count).astype(np.int8), sizes, axis=1) > marked
            marked[:, self.order] = hit  # the hit flags back in row order
            out[t : t + step] = marked.reshape(marked.shape[0], -1, self.k).any(axis=-1)
        return out


@dataclass(frozen=True)
class _Csr:
    """The rows of a correspondence with stored maps, written out in CSR
    (compressed sparse row) shape: row r's members are the int32
    `nbr_idx[ptr[r]:ptr[r+1]]`, and, the rows of pair p being contiguous,
    its whole neighbourhood is `nbr_idx[ptr[p*k]:ptr[(p+1)*k]]`."""

    ptr: np.ndarray  # (P*k + 1,) row offsets into nbr_idx
    nbr_idx: np.ndarray
    k: int

    def longest(self) -> int:
        return int(np.diff(self.ptr).max())

    def sums(self, values: np.ndarray) -> np.ndarray:
        return segment_sums(values, self.ptr, self.nbr_idx)

    def products(self, values: np.ndarray) -> np.ndarray:
        out = np.ones(self.ptr.size - 1)
        # Empty rows are left out: reduceat would give them the element at
        # their offset instead of the empty product 1.
        rows = np.flatnonzero(np.diff(self.ptr))
        for a in range(0, rows.size, EQUALIZING_BLOCK):
            block = rows[a : a + EQUALIZING_BLOCK]
            lo, hi = self.ptr[block[0]], self.ptr[block[-1] + 1]
            out[block] = np.multiply.reduceat(values[self.nbr_idx[lo:hi]], self.ptr[block] - lo)
        return out

    def hit(self, flat: np.ndarray) -> np.ndarray:
        out = np.zeros(flat.shape, dtype=bool)
        bounds = self.ptr[:: self.k]  # pair p's members: nbr_idx[bounds[p]:bounds[p+1]]
        hit = np.flatnonzero(np.diff(bounds))
        if hit.size:
            # Trials go in chunks so the gathered flags never take trials x nnz.
            step = max(1, CONFLICT_CHUNK // self.nbr_idx.size)
            for t in range(0, flat.shape[0], step):
                gathered = flat[t : t + step][:, self.nbr_idx]
                out[t : t + step, hit] = np.logical_or.reduceat(gathered, bounds[hit], axis=1)
        return out


def _neighbourhood_rows(
    sigma: EdgeCorrespondence,
    lists: WeightedListAssignment,
    edge_vertices: np.ndarray,
    groups: _Groups,
    maps: "_StoredMaps | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, nbr_idx) of the CSR rows N(e, v_j, c) of a correspondence
    with stored maps, from the (vertex, colour) groups of the rows, with
    `maps` the stored maps placed on `edge_vertices`, or None to place
    them here.

    Where edges e and f at v store no map either way, (e, c) has (f, c)
    as a neighbour at v, so the rows of one group, in ascending order, are
    each other's candidates (`_candidates`).  The candidates across an
    edge pair that stores a map either way are dropped, and the members
    that the maps give (`_StoredMaps.members`) merge in by one sort.  The
    identity correspondence keeps the groups themselves."""
    order, bounds, k = groups.order, groups.bounds, groups.k
    P = lists.mu.size
    if maps is None:
        maps = _StoredMaps.place(sigma, edge_vertices)
    # Keys row * P + member of the maps' members and of the kept candidates,
    # written into one array: pieces kept apart until a concatenation
    # fragment the heap, which showed as peak RSS on nibble-sigma-k3.
    listed = np.zeros(len(edge_vertices), dtype=bool)
    listed[lists.edge_of] = True
    parts = maps.members(PairIndex(lists.edge_of, lists.colour_of), k, P, listed)
    sizes = np.diff(bounds)
    n = sum(part.size for part in parts)
    key = np.empty(n + int((sizes * (sizes - 1)).sum()), dtype=np.int64)
    np.concatenate(parts, out=key[:n])
    del parts
    slot = (lists.edge_of[:, None] * k + np.arange(k)).ravel()  # the edge slot of every row
    for at, others in _candidates(bounds, order):
        rows = order[at]
        kept = ~maps.mapped[maps.cell[slot[rows]][..., None] + maps.pos[slot[others]]]
        part = np.broadcast_to(rows[..., None] * P, others.shape)[kept] + others[kept] // k
        key[n : n + part.size] = part
        n += part.size
    key = key[:n]
    key.sort()
    ptr = np.searchsorted(key, np.arange(P * k + 1) * P)
    key %= P
    return ptr, key.astype(np.int32)


def _runs(key: np.ndarray) -> np.ndarray:
    """The bounds of the runs of equal values in the sorted array `key`:
    run g is `bounds[g]:bounds[g+1]`."""
    start = np.ones(key.size, dtype=bool)
    start[1:] = key[1:] != key[:-1]
    return np.append(np.flatnonzero(start), key.size)


def _candidates(bounds: np.ndarray, x: np.ndarray):
    """Yield (at, others) for the groups `bounds[g]:bounds[g+1]` of s >= 2
    positions, in group order, with `x` one value per position: `at` the
    positions of some rows of groups of one size s, and `others` the
    (rows, s - 1) array of `x` at the other positions of each row's
    group, ascending.  A block holds at most NEIGHBOUR_BLOCK others: whole
    groups, or the rows of one group when it holds more.  `others` is a
    new C-ordered array (`np.take`, not `x[block][:, other]`, which puts
    the group axis innermost), so a reduction along its last axis is each
    row's own, as `segment_sums` gives it."""
    for _, at in segment_blocks(bounds):
        s = at.shape[1]
        if s < 2:
            continue
        other = np.arange(s - 1) + (np.arange(s - 1) >= np.arange(s)[:, None])  # every position but the row's own
        rows = max(1, NEIGHBOUR_BLOCK // (s - 1))  # rows per block
        if rows >= s:
            for a in range(0, at.shape[0], rows // s):
                block = at[a : a + rows // s]
                yield block.ravel(), np.take(x[block], other, axis=1).reshape(-1, s - 1)
        else:
            for group in at:
                for a in range(0, s, rows):
                    yield group[a : a + rows], x[group][other[a : a + rows]]


@dataclass(frozen=True)
class _StoredMaps:
    """The stored maps of a correspondence, placed at the vertex where
    they act: for every stored pair (e, f), the pair index `row`, the
    vertex's slots `je` in e and `jf` in f, and whether the map also
    stands for (f, e), which stores none (`alone`), in ascending `row`.
    `mapped[cell[s] + pos[t]]` marks the edges of the slots s = e*k + j
    and t at one vertex that store a map either way: `pos[t]` is the
    position of t's edge among the edges at its vertex, and `cell[s]` the
    start of s's row in the vertex's (degree, degree) block."""

    sigma: EdgeCorrespondence
    row: np.ndarray
    je: np.ndarray
    jf: np.ndarray
    alone: np.ndarray
    pos: np.ndarray
    cell: np.ndarray
    mapped: np.ndarray

    @classmethod
    def place(cls, sigma: EdgeCorrespondence, edge_vertices: np.ndarray) -> "_StoredMaps":
        e, f = sigma.pair_e, sigma.pair_f
        row, je, jf = np.nonzero(edge_vertices[e][:, :, None] == edge_vertices[f][:, None, :])
        # The slots at each vertex, in ascending edge order.  A vertex of
        # degree d takes d^2 bytes of `mapped`; `graph.incident_pairs`,
        # which validation builds, takes 8d(d - 1) there.
        k = edge_vertices.shape[1]
        at = np.argsort(edge_vertices.ravel(), kind="stable")
        bounds = _runs(edge_vertices.ravel()[at])
        degree = np.diff(bounds)
        block = np.cumsum(degree**2) - degree**2  # where each vertex's block starts
        pos, cell = np.empty_like(at), np.empty_like(at)
        pos[at] = np.arange(at.size) - np.repeat(bounds[:-1], degree)
        cell[at] = np.repeat(block, degree) + pos[at] * np.repeat(degree, degree)
        mapped = np.zeros(int((degree**2).sum()), dtype=bool)
        se, sf = e[row] * k + je, f[row] * k + jf
        mapped[cell[se] + pos[sf]] = mapped[cell[sf] + pos[se]] = True
        return cls(sigma=sigma, row=row, je=je, jf=jf, alone=sigma.rows(f[row], e[row]) < 0, pos=pos, cell=cell, mapped=mapped)

    def members(self, pairs: PairIndex, k: int, P: int, listed: np.ndarray) -> list[np.ndarray]:
        """The keys row * P + member of the neighbours that the placed maps
        give, an array per join block: for an entry (c, c') of the map of
        (e, f) at vertex v with (e, c) and (f, c') both pairs p and q, q in
        row p*k + (slot of v in e), and, for a map that stands alone, p in
        row q*k + (slot of v in f).  `pairs` indexes the P pairs, and
        `listed[edge]` says whether the edge has a pair: only the maps
        between two such edges are joined, as no other entry gives one."""
        sigma = self.sigma
        live = np.flatnonzero(listed[sigma.pair_e[self.row]] & listed[sigma.pair_f[self.row]])
        length = np.diff(sigma.entry_ptr)[self.row[live]]
        start = np.cumsum(length) - length
        # The live maps in blocks of about _JOIN_BLOCK entries: those whose
        # first entry falls in one stretch of _JOIN_BLOCK entries.
        cuts = np.append(np.searchsorted(start, np.arange(0, max(int(length.sum()), 1), _JOIN_BLOCK)), live.size)
        parts = []
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            block = live[a:b]
            row = self.row[block]
            entry = segment_ranges(sigma.entry_ptr[row], length[a:b])
            # Images first: fewer of them are pairs, and only those need their source.
            q = pairs.find(np.repeat(sigma.pair_f[row], length[a:b]), sigma.entry_image[entry])
            at = np.flatnonzero(q >= 0)
            placed = block[np.searchsorted(np.cumsum(length[a:b]), at, side="right")]
            p = pairs.find(sigma.pair_e[self.row[placed]], sigma.entry_c[entry[at]])
            hit = p >= 0
            p, q, placed = p[hit], q[at[hit]], placed[hit]
            back = self.alone[placed]
            parts += [(p * k + self.je[placed]) * P + q, (q[back] * k + self.jf[placed[back]]) * P + p[back]]
        return parts


def equalizing_probability(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    params: NibbleParams,
    e: int,
    v: int,
    c: int,
) -> float:
    """Eq(e,v,c) = K / prod over N(e,v,c) of (1 - mu(f,c')/(L ln N)),
    clamped to [0, 1].  Requires v in e and c in L(e)."""
    from .core import colour_neighbours

    scale = params.activation_scale
    denom = 1.0
    for f, c_other in colour_neighbours(graph, lists, sigma, e, v, c):
        factor = 1.0 - lists.weight(f, c_other) / scale
        if factor <= 0.0:
            raise DegenerateWeightError(f"equalizing factor <= 0 for neighbour ({f},{c_other})")
        denom *= factor
    return min(params.K / denom, 1.0)


# ---------------------------------------------------------------------------
# Truncation and rescaling.
# ---------------------------------------------------------------------------


def truncate_edge(
    colours: tuple[int, ...],
    weights: dict[int, float],
    l_target: float,
    edge: int = -1,
) -> tuple[tuple[int, ...], dict[int, float]]:
    """Delete colours (ascending weight, ties by colour id) while the
    remaining weighted size stays >= l_target, then rescale so the size is
    exactly l_target.  Raises CannotTruncateError if the list is deficient.

    The weighted size starts as the left-to-right sum of the weights in
    `colours` order, not `sum`, whose float result depends on the Python
    version (3.12 compensates the rounding).
    """
    if l_target <= 0.0:
        raise PreconditionError(f"truncation target must be positive, got {l_target}")
    total = 0.0
    for c in colours:
        total += weights[c]
    if total < l_target:
        raise CannotTruncateError(
            f"edge {edge}: weighted list size {total:.6g} below target {l_target:.6g}", edge=edge
        )
    kept = list(colours)
    for c in sorted(colours, key=lambda c: (weights[c], c)):
        if total - weights[c] >= l_target:
            total -= weights[c]
            kept.remove(c)
    factor = l_target / total
    return tuple(sorted(kept)), {c: weights[c] * factor for c in kept}


def truncate_lists(
    edge_ptr: np.ndarray, mu: np.ndarray, alive: np.ndarray, l_target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`truncate_edge`, to the bit, on the `alive` pairs of every list i,
    `edge_ptr[i]:edge_ptr[i+1]` in ascending colour order.  Returns (keep,
    scaled, deficient, empty) per pair, pair, list, list; a deficient list
    keeps its alive pairs unscaled.  The deletions in (weight, colour)
    order form a prefix: once one fails every later one fails too, since
    weights do not fall and rounding is monotone."""
    lists = edge_ptr.size - 1
    row = np.repeat(np.arange(lists), np.diff(edge_ptr))
    at = np.flatnonzero(alive)
    ptr = np.searchsorted(row[at], np.arange(lists + 1))  # alive pairs of list i: at[ptr[i]:ptr[i+1]]
    order = at[np.lexsort((mu[at], row[at]))]  # stable: ties stay in colour order
    total, final = np.zeros(lists), np.zeros(lists)
    gone = np.zeros(at.size, dtype=bool)
    for rows, members in segment_blocks(ptr):
        total[rows] = np.cumsum(mu[at[members]], axis=1)[:, -1]
        running = np.subtract.accumulate(np.column_stack((total[rows], mu[order[members]])), axis=1)
        deleted = np.logical_and.accumulate(running[:, 1:] >= l_target, axis=1)
        gone[members] = deleted
        final[rows] = running[np.arange(rows.size), deleted.sum(axis=1)]
    empty = ptr[1:] == ptr[:-1]
    deficient = ~empty & (total < l_target)
    factor = np.ones(lists)
    np.divide(l_target, final, out=factor, where=~empty & ~deficient)
    keep = np.zeros(mu.size, dtype=bool)
    keep[order[~gone]] = True
    return keep, mu * factor[row], deficient, empty


# ---------------------------------------------------------------------------
# One round.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundStats:
    pairs: int
    assignments: int
    conflict_removals: int
    flips_failed: int
    eq_clamped: int


@dataclass(frozen=True)
class RoundOutcome:
    coloured: dict[int, int]
    truncated: WeightedListAssignment  # after truncate-and-rescale
    deficient: tuple[int, ...]  # edges that could not reach the target
    empty: tuple[int, ...]  # uncoloured edges whose whole list died
    stats: RoundStats


# Activation flags gathered per chunk of trials in apply_procedure.
CONFLICT_CHUNK = 1 << 24


def apply_procedure(
    struct: RoundStructure,
    activated: np.ndarray,
    flips_ok: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps (II)-(III) on a snapshot of step (I) draws.

    `activated` has shape (..., P), `flips_ok` shape (..., P, k); leading
    axes are independent trials.  Returns (survive, retained, removed_ii)
    of shape (..., P): survive marks pairs still in L'(e), retained marks
    pairs whose colour stays assigned to the edge, removed_ii marks pairs
    removed by conflict resolution.
    """
    flat = activated.reshape(math.prod(activated.shape[:-1]), struct.pair_count)
    removed2 = struct.rows.hit(flat).reshape(activated.shape)
    removed3 = ~flips_ok.all(axis=-1)
    survive = ~removed2 & ~removed3
    retained = activated & survive
    return survive, retained, removed2


def draw_round(
    struct: RoundStructure,
    params: NibbleParams,
    eq: np.ndarray,
    seed: int,
    round_index: int | np.ndarray,
    attempt: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps (I) and (III) drawn from the streams keyed by (kind, round,
    attempt, edge, colour[, vertex]): (activated, flips_ok), a flip passing
    below its value in `eq = struct.equalizing(params)[0]`.  An array of
    round indices adds its axes in front, one independent trial per entry."""
    r = np.reshape(round_index, np.shape(round_index) + (1,))
    edge_of, colour_of = struct.lists.edge_of, struct.lists.colour_of
    u_act = rng.uniforms(seed, rng.KIND_ACTIVATION, r, attempt, edge_of, colour_of)
    activated = u_act < struct.lists.mu / params.activation_scale
    u_flip = rng.uniforms(seed, rng.KIND_FLIP, r[..., None], attempt, edge_of[:, None], colour_of[:, None], struct.vertex_of)
    return activated, u_flip < eq


def run_round(
    struct: RoundStructure,
    params: NibbleParams,
    l_target: float,
    seed: int,
    round_index: int = 0,
    attempt: int = 0,
) -> RoundOutcome:
    """One full round on the lists of `struct`: draw, apply the procedure,
    colour, truncate to the positive `l_target`.  Deterministic in (seed,
    round_index, attempt), whatever the iteration order or worker count.
    """
    if l_target <= 0.0:
        raise PreconditionError(f"truncation target must be positive, got {l_target}")
    eq, clamped = struct.equalizing(params)
    activated, flips_ok = draw_round(struct, params, eq, seed, round_index, attempt)
    survive, retained, removed_ii = apply_procedure(struct, activated, flips_ok)

    lists = struct.lists
    # Pairs are sorted, so the first retained pair of an edge has its lowest colour.
    hit = np.flatnonzero(retained)
    hit_edges, first_hit = np.unique(lists.edge_of[hit], return_index=True)
    coloured = dict(zip(hit_edges.tolist(), lists.colour_of[hit[first_hit]].tolist()))

    # Truncated lists: the surviving pairs of uncoloured edges, rescaled.
    rows = np.ones(lists.edges.size, dtype=bool)
    rows[np.searchsorted(lists.edges, hit_edges)] = False
    alive = survive & np.repeat(rows, np.diff(lists.edge_ptr))
    keep, mu, deficient, empty = truncate_lists(lists.edge_ptr, lists.mu, alive, l_target)

    stats = RoundStats(
        pairs=struct.pair_count,
        assignments=int(activated.sum()),
        conflict_removals=int(removed_ii.sum()),
        flips_failed=int((~flips_ok).sum()),
        eq_clamped=clamped,
    )
    return RoundOutcome(
        coloured=coloured,
        truncated=WeightedListAssignment.from_pairs(lists.edges[rows], lists.edge_of[keep], lists.colour_of[keep], mu[keep]),
        deficient=tuple(lists.edges[deficient].tolist()),
        empty=tuple(lists.edges[rows & empty].tolist()),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------


# The share of a round's uncoloured edges that may miss the truncation
# target before `drive` retries the round.
DEFICIENCY_TOLERANCE = 0.25


@dataclass(frozen=True)
class DriveRow:
    round: int
    L: float
    N: float
    ratio: float
    edges_coloured: int
    edges_remaining: int
    retries: int
    min_list_size: int
    max_neighbourhood_size: int


@dataclass
class DriveResult:
    colouring: dict[int, int]
    lists: WeightedListAssignment
    L: float
    N: float
    eps: float  # the rounds' eps: the one given, or the one derived
    trace: list[DriveRow] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def remaining_edges(self) -> tuple[int, ...]:
        return self.lists.edge_ids()


def drive(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    eps: float | None = None,
    seed: int = 0,
    retry_cap: int = 10,
) -> DriveResult:
    """Iterate rounds until the list/neighbourhood ratio supports the
    finisher (L/N >= 3ek) or the regime runs out.

    Parameters entering round i are the truncation target of round i-1
    (every clean list has exactly that weighted size) and the measured
    maximum neighbourhood weight, which is the tightest valid N for the
    surviving instance; the theoretical N' of the recursion is a high
    probability upper bound for it.  A round is retried with a fresh
    stream when a surviving list dies entirely or more than
    DEFICIENCY_TOLERANCE of the lists miss the truncation target; the
    asymptotic guarantees do not hold at desk scale, so isolated deficient
    edges are tolerated and simply carry shorter lists.

    Desk-scale regime guards (each recorded as the stop reason): k must
    be at least 2 (`k-below-2`), N must exceed e^2, the ratio must lie
    strictly between 1 + eps and 3ek, the schedule must not collapse, and
    the truncation target must keep at least half of the expected
    surviving weight L K^k.

    With `eps` None, eps is min(1/4, max(1/100, (L/N - 1)/2)) for the
    entering L and N, the instance's own (1/4 when N <= 0).
    Raises ParameterDomainError when `retry_cap` is negative.
    """
    if retry_cap < 0:
        raise ParameterDomainError(f"retry_cap must be >= 0, got {retry_cap}")
    k = graph.k
    target_ratio = 3.0 * math.e * k
    colouring: dict[int, int] = {}
    cur_lists = lists
    maps = None if sigma.is_trivial else _StoredMaps.place(sigma, graph.vertex_table)  # the same for every build
    struct = RoundStructure.build(graph, cur_lists, sigma, _maps=maps)
    L = struct.min_list_weight()[0]
    N, _, max_card = struct.max_neighbourhood()
    if eps is None:
        eps = 0.25 if N <= 0 else min(0.25, max(0.01, (L / N - 1.0) / 2.0))
    result = DriveResult(colouring=colouring, lists=cur_lists, L=L, N=N, eps=eps)
    max_rounds = math.ceil(100.0 / eps * k * math.log(N)) if N > 1.0 else 0

    i = 0
    while True:
        if not cur_lists.edges.size:
            result.stop_reason = "all-coloured"
            return result
        if k < 2:  # the procedure needs k >= 2 (NibbleParams)
            result.stop_reason = "k-below-2"
            return result
        ratio = L / N if N > 0 else math.inf
        if ratio >= target_ratio:
            result.stop_reason = "ratio-reached"
            return result
        if N <= E_SQUARED:
            result.stop_reason = "n-below-domain"
            return result
        if ratio <= 1.0 + eps:
            result.stop_reason = "ratio-below"
            return result
        if i >= max_rounds:
            break
        params = NibbleParams(eps=eps, k=k, L=L, N=N)
        try:
            l_target, _ = next_params(params)
        except ScheduleCollapseError:
            result.stop_reason = "schedule-collapse"
            return result
        if l_target < 0.5 * L * params.K**k:
            result.stop_reason = "truncation-guard"
            return result

        entering_min_size = struct.min_list_size()
        for attempt in range(retry_cap + 1):
            outcome = run_round(struct, params, l_target, seed, round_index=i, attempt=attempt)
            uncoloured = cur_lists.edges.size - len(outcome.coloured)
            frac_deficient = len(outcome.deficient) / uncoloured if uncoloured else 0.0
            if not outcome.empty and frac_deficient <= DEFICIENCY_TOLERANCE:
                break
        else:
            raise NibbleFailureError(
                f"round {i} violated its bounds for {retry_cap + 1} attempts",
                round_index=i,
                diagnostics={
                    "round": i,
                    "attempts": retry_cap + 1,
                    "empty_lists": list(outcome.empty),
                    "deficient_edges": list(outcome.deficient)[:20],
                    "l_target": l_target,
                },
            )

        colouring.update(outcome.coloured)
        cur_lists = outcome.truncated
        result.trace.append(
            DriveRow(
                round=i,
                L=L,
                N=N,
                ratio=ratio,
                edges_coloured=len(outcome.coloured),
                edges_remaining=cur_lists.edges.size,
                retries=attempt,
                min_list_size=entering_min_size,
                max_neighbourhood_size=max_card,
            )
        )
        result.lists = cur_lists
        if not cur_lists.edges.size:
            result.L, result.N = l_target, 0.0
            result.stop_reason = "all-coloured"
            return result
        struct = RoundStructure.build(graph, cur_lists, sigma, _maps=maps)
        N_emp, _, max_card = struct.max_neighbourhood()
        L, N = l_target, N_emp
        result.L, result.N = L, N
        i += 1

    result.stop_reason = "cap-reached"
    return result
