"""Instance generators, brute-force oracle, and statistical diagnostics.

The brute-force colourer and the exact expectation enumerator are written
against the definitions module only (no shared logic with the nibble or
finisher solvers) so they can serve as independent checks on those
solvers' outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import rng
from .core import (
    EdgeCorrespondence,
    LinearHypergraph,
    PreconditionError,
    WeightedListAssignment,
    colour_neighbours,
    segment_ranges,
)
from .nibble import CONFLICT_CHUNK, NibbleParams, RoundStructure, apply_procedure, draw_round, equalizing_probability


# Keys per `rng.uniforms` call of the generators (8 MB per uint64 array).
DRAW_BLOCK = 1 << 20


class GenerationError(ValueError):
    """Inadmissible generator parameters."""


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate.

    kind: 'regular-graph' (n, d), 'bipartite' (n, n2, p),
    'random-graph' (n, p), or 'linear-k-uniform' (n, k, m).
    """

    kind: str
    n: int
    seed: int = 0
    d: int | None = None
    p: float | None = None
    m: int | None = None
    n2: int | None = None
    k: int = 2


def generate(spec: GeneratorSpec) -> LinearHypergraph:
    """Deterministic per seed; every output passes validate_instance."""
    if spec.kind == "regular-graph":
        return _regular_graph(spec)
    if spec.kind == "bipartite":
        return _bipartite_graph(spec)
    if spec.kind == "random-graph":
        return _random_graph(spec)
    if spec.kind == "linear-k-uniform":
        return _linear_uniform(spec)
    raise GenerationError(f"unknown generator kind {spec.kind!r}")


def _regular_graph(spec: GeneratorSpec) -> LinearHypergraph:
    import networkx as nx

    n, d = spec.n, spec.d
    if d is None:
        raise GenerationError("regular-graph requires a degree d")
    if n * d % 2 != 0:
        raise GenerationError(f"n*d must be even for a d-regular graph (n={n}, d={d})")
    if not (0 <= d < n):
        raise GenerationError(f"need 0 <= d < n (n={n}, d={d})")
    g = nx.random_regular_graph(d, n, seed=rng.derive_seed(spec.seed, rng.KIND_GENERATE, n, d))
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    return LinearHypergraph.build(n, edges, k=2)


def _row_blocks(lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges [a, b) covering rows 0..len(lengths)-1, where
    row i holds lengths[i] keys: each range holds at most DRAW_BLOCK keys,
    except that a row longer than that is a range of its own."""
    ends = np.cumsum(lengths)
    a = 0
    while a < ends.size:
        before = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, before + DRAW_BLOCK, side="right")))
        yield a, b
        a = b


def _kept_pairs(seed: int, p: float, first: np.ndarray, count: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (u, v) with first[u] <= v < first[u] + count[u], in
    ascending (u, v) order, whose uniform keyed by (u, v) is below p."""
    edges: list[tuple[int, int]] = []
    for a, b in _row_blocks(count):
        u = np.repeat(np.arange(a, b), count[a:b])
        v = segment_ranges(first[a:b], count[a:b])
        keep = rng.uniforms(seed, rng.KIND_GENERATE, u, v) < p
        edges += zip(u[keep].tolist(), v[keep].tolist())
    return edges


def _bipartite_graph(spec: GeneratorSpec) -> LinearHypergraph:
    n1, n2, p = spec.n, spec.n2, spec.p
    if n2 is None or p is None:
        raise GenerationError("bipartite requires n2 and an edge probability p")
    rows = max(n1, 0)
    edges = _kept_pairs(spec.seed, p, np.full(rows, n1), np.full(rows, max(n2, 0)))
    return LinearHypergraph.build(n1 + n2, edges, k=2)


def _random_graph(spec: GeneratorSpec) -> LinearHypergraph:
    n, p = spec.n, spec.p
    if p is None:
        raise GenerationError("random-graph requires an edge probability p")
    u = np.arange(n)
    return LinearHypergraph.build(n, _kept_pairs(spec.seed, p, u + 1, n - 1 - u), k=2)


def _linear_uniform(spec: GeneratorSpec) -> LinearHypergraph:
    """Attempt t proposes the k smallest-keyed of the n vertices, keys drawn
    by (t, vertex); it is accepted when it shares at most one vertex with
    every accepted edge.  The keys of a batch of attempts are one draw."""
    n, k, m = spec.n, spec.k, spec.m
    if m is None or k < 2:
        raise GenerationError("linear-k-uniform requires k >= 2 and a target edge count m")
    if m * k * (k - 1) // 2 > max(n, 0) * (n - 1) // 2:
        raise GenerationError(f"{m} edges of size {k} cannot be pairwise near-disjoint on {n} vertices")
    used_pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, ...]] = []
    attempts, max_attempts = 0, 500 * m + 100
    vertices = np.arange(n)
    most = max(1, DRAW_BLOCK // max(n, 1))  # attempts per draw
    batch = min(m, most)
    while len(edges) < m and attempts < max_attempts:
        rows = np.arange(attempts, min(attempts + batch, max_attempts))[:, None]
        order = np.argsort(rng.uniforms(spec.seed, rng.KIND_GENERATE, rows, vertices), axis=1, kind="stable")
        for proposal in map(tuple, np.sort(order[:, :k], axis=1).tolist()):
            attempts += 1
            pairs = [(proposal[i], proposal[j]) for i in range(k) for j in range(i + 1, k)]
            if any(pair in used_pairs for pair in pairs):
                continue  # would share >= 2 vertices with an accepted edge
            used_pairs.update(pairs)
            edges.append(proposal)
            if len(edges) == m:
                break
        batch = min(2 * batch, most)
    if len(edges) < m:
        raise GenerationError(f"could only place {len(edges)} of {m} edges after {attempts} attempts")
    return LinearHypergraph.build(n, edges, k=k)


def _max_degrees(graph: LinearHypergraph) -> np.ndarray:
    """maxdeg(e) of every edge e, the largest `graph.degree` among e's
    vertices (0 for a vertex outside range(vertex_count))."""
    table = graph.vertex_table
    inside = (table >= 0) & (table < graph.vertex_count)
    degree = np.bincount(table[inside], minlength=1)
    return np.where(inside, degree[np.where(inside, table, 0)], 0).max(axis=1, initial=0)


def list_sizes(graph: LinearHypergraph, eps: float) -> np.ndarray:
    """The list size ceil((1+eps) maxdeg(e)) of every edge e, as int64.
    eps must be a finite number above -1, so that no size is negative,
    and no size may reach 2^62."""
    if not (math.isfinite(eps) and eps > -1):
        raise GenerationError(f"eps must be a finite number above -1, got {eps}")
    size = np.ceil((1.0 + eps) * _max_degrees(graph))
    if size.size and size.max() >= 2.0**62:
        raise GenerationError(f"eps {eps} asks for lists of {size.max():.3g} colours, more than 2^62")
    return size.astype(np.int64)


def build_local_lists(
    graph: LinearHypergraph,
    eps: float,
    universe_size: int,
    mode: str = "unit-weight",
    seed: int = 0,
) -> WeightedListAssignment:
    """Random local lists: L(e) is a uniform ceil((1+eps) maxdeg(e))-subset
    of {0..universe_size-1}, where maxdeg(e) is the largest degree among
    e's vertices.  Degree-weighted mode sets mu(e,c) = 1/maxdeg(e), which
    makes every weighted list size at least 1+eps and keeps the per-vertex
    per-colour weight sums at most 1.

    The (edge, colour) keys are drawn in row blocks of edges, at most
    DRAW_BLOCK keys per `rng.uniforms` call; each edge keeps the colours
    of the first |L(e)| places of its row's stable argsort.  So L(e) is
    bitwise `rng.subset(seed, rng.KIND_LISTS, universe_size, |L(e)|, e)`."""
    if mode not in ("unit-weight", "degree-weighted"):
        raise GenerationError(f"unknown list mode {mode!r}")
    size = list_sizes(graph, eps)
    over = np.flatnonzero(size > universe_size)
    if over.size:
        e = int(over[0])
        raise GenerationError(
            f"edge {e} needs a list of {size[e]} colours but the universe has {universe_size}"
        )
    try:
        places = np.arange(universe_size)
    except ValueError as exc:  # numpy's refusal of an array beyond the address space
        raise MemoryError(f"{universe_size} colour keys do not fit in memory: {exc}") from exc
    chosen = [np.zeros(0, dtype=np.int64)]
    for a, b in _row_blocks(np.full(graph.edge_count, places.size)):
        drawn = rng.uniforms(seed, rng.KIND_LISTS, np.arange(a, b)[:, None], places)
        keep = np.zeros(drawn.shape, dtype=bool)
        # The colour at place j of row e's order is kept when j < size[e].
        np.put_along_axis(keep, np.argsort(drawn, axis=1, kind="stable"), places < size[a:b, None], axis=1)
        chosen.append(np.nonzero(keep)[1])  # row-major: ascending colours per edge
    edge_of = np.repeat(np.arange(graph.edge_count), size)
    mu = np.ones(edge_of.size) if mode == "unit-weight" else 1.0 / _max_degrees(graph)[edge_of]
    return WeightedListAssignment(
        edges=np.arange(graph.edge_count),
        edge_ptr=np.concatenate(([0], np.cumsum(size))),
        colour_of=np.concatenate(chosen),
        mu=mu,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteResult:
    status: str  # 'found' | 'proven-unsatisfiable' | 'cap-exceeded'
    colouring: dict[int, int] | None
    nodes: int


def brute_force_colour(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    node_cap: int = 1_000_000,
) -> BruteResult:
    """Exhaustive backtracking over edges, most-constrained-first.

    Sound and complete within node_cap search nodes; cap exhaustion is a
    value, not an error.  Uses only the definitions module, so it is an
    independent oracle for the randomized pipeline.
    """
    edge_ids = list(lists.edge_ids())
    colours: dict[int, int] = {}
    nodes = 0

    def candidates(e: int) -> list[int]:
        out = []
        for c in lists.colours(e):
            ok = True
            for f in graph.adjacent_edges(e):
                cf = colours.get(f)
                if cf is not None and sigma.blocks(f, cf, e, c):
                    ok = False
                    break
            if ok:
                out.append(c)
        return out

    # The search keeps one frame per coloured edge, [edge, its candidates,
    # the next to try], on an explicit stack, so its depth is not Python's
    # recursion limit; it visits nodes in the order of the recursive search
    # "colour the most constrained edge with each candidate in turn".
    stack: list[list] = []

    def enter() -> bool:
        """Open a search node: True when every edge is coloured, else push
        the frame of its most constrained edge."""
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            return False
        remaining = [e for e in edge_ids if e not in colours]
        if not remaining:
            return True
        cand = {e: candidates(e) for e in remaining}
        e = min(remaining, key=lambda e: (len(cand[e]), e))
        stack.append([e, cand[e], 0])
        return False

    found = enter()
    while not found and stack and nodes <= node_cap:
        frame = stack[-1]
        e, cand, i = frame
        if i:  # the previous candidate of e failed
            del colours[e]
        if i == len(cand):
            stack.pop()
            continue
        frame[2] = i + 1
        colours[e] = cand[i]
        found = enter()
    if nodes > node_cap:
        return BruteResult(status="cap-exceeded", colouring=None, nodes=nodes)
    if found:
        return BruteResult(status="found", colouring=dict(colours), nodes=nodes)
    return BruteResult(status="proven-unsatisfiable", colouring=None, nodes=nodes)


# ---------------------------------------------------------------------------
# Expectation diagnostics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeDiagnostic:
    edge: int
    theoretical: float  # |L(e)|_mu * K^k
    empirical_mean: float
    empirical_var: float
    std_err: float
    z: float
    exact: float | None = None


@dataclass
class DiagnosticsReport:
    trials: int
    eps: float
    k: int
    L: float
    N: float
    K: float
    edges: list[EdgeDiagnostic] = field(default_factory=list)
    exact_available: bool = False
    samples: dict[int, np.ndarray] | None = None  # per-edge raw trial weights

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "params": {"eps": self.eps, "k": self.k, "L": self.L, "N": self.N, "K": self.K},
            "exact_available": self.exact_available,
            "edges": [
                {
                    "edge": d.edge,
                    "theoretical": d.theoretical,
                    "empirical_mean": d.empirical_mean,
                    "empirical_var": d.empirical_var,
                    "std_err": d.std_err,
                    "z": d.z,
                    "exact": d.exact,
                }
                for d in self.edges
            ],
        }


def bernoulli_trial_count(lists: WeightedListAssignment, k: int) -> int:
    """Activations (one per pair) plus flips (k per pair)."""
    return (1 + k) * lists.mu.size


def exact_expectations(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    params: NibbleParams,
    trial_limit: int = 20,
) -> dict[int, float]:
    """Exact E[|L'(e)|_mu] by exhaustive enumeration of every activation
    and coin-flip outcome of steps (I)-(III), weighted by probability.

    Implemented from the definitions module (colour neighbourhoods) rather
    than the round engine, so it is an independent check of the engine's
    survival rule.  Requires at most `trial_limit` Bernoulli trials.
    """
    pairs = [(e, c) for e in lists.edge_ids() for c in lists.colours(e)]
    k = graph.k
    T = (1 + k) * len(pairs)
    if T > trial_limit:
        raise PreconditionError(f"{T} Bernoulli trials exceed the cap of {trial_limit} for exact enumeration")
    if T == 0:
        return {e: 0.0 for e in lists.edge_ids()}

    act_index = {pc: t for t, pc in enumerate(pairs)}
    flip_probs: list[float] = []
    flip_index: dict[tuple[int, int, int], int] = {}
    t = len(pairs)
    for e, c in pairs:
        for v in graph.edges[e]:
            flip_index[(e, c, v)] = t
            flip_probs.append(equalizing_probability(graph, lists, sigma, params, e, v, c))
            t += 1

    scale = params.activation_scale
    trial_probs = [lists.weight(e, c) / scale for e, c in pairs] + flip_probs

    idx = np.arange(1 << T, dtype=np.int64)
    prob = np.ones(1 << T, dtype=np.float64)
    bits = []
    for t, p_t in enumerate(trial_probs):
        bit = ((idx >> t) & 1).astype(bool)
        bits.append(bit)
        prob *= np.where(bit, p_t, 1.0 - p_t)

    expectations = {e: 0.0 for e in lists.edge_ids()}
    for e, c in pairs:
        survive = np.ones(1 << T, dtype=bool)
        for v in graph.edges[e]:
            for f, c_other in colour_neighbours(graph, lists, sigma, e, v, c):
                survive &= ~bits[act_index[(f, c_other)]]
            survive &= bits[flip_index[(e, c, v)]]
        expectations[e] += lists.weight(e, c) * float(prob[survive].sum())
    return expectations


def expectation_diagnostic(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
    params: NibbleParams,
    trials: int,
    seed: int = 0,
    exact_limit: int = 20,
    collect_samples: bool = False,
) -> DiagnosticsReport:
    """Monte-Carlo estimate of the surviving weighted list size per edge
    over independent runs of steps (I)-(III) without truncation, compared
    to the closed form |L(e)|_mu * K^k; when the instance has at most
    `exact_limit` Bernoulli trials, the exact expectation by exhaustive
    enumeration is included as well.  `collect_samples` keeps the raw
    per-trial weights on the report."""
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    struct = RoundStructure.build(graph, lists, sigma)
    k, pairs = struct.k, struct.pair_count
    # Trial t draws as round t, attempt 0 of `run_round` would.  The trials
    # go in chunks of at most CONFLICT_CHUNK bytes, so only the survival
    # flags span every trial: a trial hashes 1 + k keys per pair, at up to
    # 24 bytes a key at once (measured: 57 bytes per trial and pair at
    # k = 2, 81 at k = 3, conflict removal included).
    step = max(1, CONFLICT_CHUNK // (24 * (1 + k) * max(pairs, 1)))
    survive = np.empty((trials, pairs), dtype=bool)
    for t in range(0, trials, step):
        rounds = np.arange(t, min(t + step, trials), dtype=np.int64)
        survive[t : t + step] = apply_procedure(struct, *draw_round(struct, params, seed, rounds, 0)[:2])[0]

    exact = None
    if bernoulli_trial_count(lists, k) <= exact_limit:
        exact = exact_expectations(graph, lists, sigma, params, trial_limit=exact_limit)

    report = DiagnosticsReport(trials=trials, eps=params.eps, k=k, L=params.L, N=params.N, K=params.K)
    report.exact_available = exact is not None
    if collect_samples:
        report.samples = {}
    Kk = params.K**k
    mu, bounds = lists.mu, lists.edge_ptr.tolist()
    for i, e in enumerate(lists.edges.tolist()):
        a, b = bounds[i], bounds[i + 1]
        samples = survive[:, a:b].astype(np.float64) @ mu[a:b]
        if collect_samples:
            report.samples[e] = samples
        mean = float(samples.mean())
        var = float(samples.var(ddof=1)) if trials > 1 else 0.0
        se = math.sqrt(var / trials) if trials > 0 else 0.0
        theo = float(mu[a:b].sum()) * Kk
        if se > 0:
            z = (mean - theo) / se
        else:
            z = 0.0 if abs(mean - theo) < 1e-12 else math.inf
        report.edges.append(
            EdgeDiagnostic(
                edge=e,
                theoretical=theo,
                empirical_mean=mean,
                empirical_var=var,
                std_err=se,
                z=z,
                exact=None if exact is None else exact[e],
            )
        )
    return report


# ---------------------------------------------------------------------------
# Audits.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    max_neighbourhood: float
    max_neighbourhood_witness: tuple[int, int, int] | None  # (edge, vertex, colour)
    min_list_weight: float
    min_list_edge: int | None
    max_colour_sum: float
    max_colour_sum_witness: tuple[int, int] | None  # (vertex, colour)


def neighbourhood_audit(
    graph: LinearHypergraph,
    lists: WeightedListAssignment,
    sigma: EdgeCorrespondence,
) -> AuditReport:
    """Exact extrema of the quantities the colouring theorems condition on:
    the largest weighted colour neighbourhood (with its witness, the first
    maximum in (edge, vertex, colour) order), the smallest weighted list,
    and the per-vertex per-colour weight sums, all three read from the
    round structure, so the first two are the values the nibble uses."""
    struct = RoundStructure.build(graph, lists, sigma)
    max_n, max_w, _ = struct.max_neighbourhood()
    min_w, min_e = struct.min_list_weight()
    max_sum, max_key = struct.max_colour_sum()
    return AuditReport(
        max_neighbourhood=max_n,
        max_neighbourhood_witness=max_w,
        min_list_weight=min_w,
        min_list_edge=min_e,
        max_colour_sum=max_sum,
        max_colour_sum_witness=max_key,
    )
