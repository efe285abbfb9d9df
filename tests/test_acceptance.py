"""Acceptance suite: one test per criterion, each printing a PASS line and
asserting its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from nibble_colour import rng
from nibble_colour.cli import main as cli_main
from nibble_colour.core import (
    EdgeCorrespondence,
    LinearHypergraph,
    WeightedListAssignment,
    validate_colouring,
)
from nibble_colour.finisher import feasibility_check, finish, to_link_instance, weighted_binom_bound
from nibble_colour.harness import (
    GeneratorSpec,
    bernoulli_trial_count,
    brute_force_colour,
    enumerate_matchings,
    exact_expectations,
    expectation_diagnostic,
    generate,
)
from nibble_colour.instance_io import Instance, dump_instance
from nibble_colour.nibble import NibbleParams, next_params, truncate_edge
from nibble_colour.polytope import MembershipVerdict, Witness, edmonds_membership
from conftest import random_micro_instance, random_sigma, triangle_graph

REL_SLACK = 1e-12


def _report(name: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS in {elapsed:.2f}s{suffix}")


# ---------------------------------------------------------------------------
# Criterion 1: schedule inequalities.
# ---------------------------------------------------------------------------


def test_c01_schedule_inequalities():
    started = time.monotonic()
    checked = 0
    for eps, k in itertools.product((0.05, 0.1, 0.25), (2, 3)):
        gate = 8 * k / eps
        for base in (1e3, 1e4, 1e5, 1e6):
            for capped in (True, False):
                N = base * math.exp(gate)
                if capped:
                    N = min(N, 1e15)
                if math.log(N) < gate:
                    continue  # premise of the ratio-improvement claim
                for ratio in (1 + eps + 0.01, 2.0, 3 * math.e * k - 0.01):
                    params = NibbleParams(eps=eps, k=k, L=ratio * N, N=N)
                    L2, N2 = next_params(params)
                    lnN = math.log(N)
                    assert L2 >= (1 - 2 * k / lnN) * params.L * (1 - REL_SLACK)
                    assert N2 >= (1 - 3 * k / lnN) * params.N * (1 - REL_SLACK)
                    assert L2 / N2 >= (1 + eps / (16 * lnN)) * ratio * (1 - REL_SLACK)
                    checked += 1
    assert checked >= 72  # every uncapped grid point passes the gate
    _report("C1 schedule inequalities", started, 1.0, f"{checked} grid points")


# ---------------------------------------------------------------------------
# Criterion 2: exact expectation on micro-instances.
# ---------------------------------------------------------------------------


def test_c02_exact_expectation():
    started = time.monotonic()
    instances = 0
    seed = 0
    while instances < 50:
        graph, lists, sigma, _ = random_micro_instance(seed)
        seed += 1
        if bernoulli_trial_count(lists, graph.k) > 20:
            continue
        params = NibbleParams(eps=0.25, k=graph.k, L=40.0, N=20.0)
        # neighbourhood hypothesis |N(e,v,c)|_mu <= N holds: each vertex has
        # at most 3 other edges, each contributing at most weight 1
        exact = exact_expectations(graph, lists, sigma, params, trial_limit=20)
        for e in lists.edge_ids():
            expected = lists.list_weight(e) * params.K**graph.k
            assert exact[e] == pytest.approx(expected, abs=1e-9)
        instances += 1
    _report("C2 exact expectation", started, 30.0, f"{instances} micro-instances")


# ---------------------------------------------------------------------------
# Criterion 3: Monte-Carlo consistency on a 5-edge path.
# ---------------------------------------------------------------------------


def _five_edge_path_instance():
    graph = LinearHypergraph.build(6, [(i, i + 1) for i in range(5)], k=2)
    lists = WeightedListAssignment.unit({e: list(range(10)) for e in range(5)})
    return graph, lists, EdgeCorrespondence()


def test_c03_monte_carlo_consistency():
    started = time.monotonic()
    graph, lists, sigma = _five_edge_path_instance()
    params = NibbleParams(eps=0.25, k=2, L=10.0, N=7.5)
    report = expectation_diagnostic(graph, lists, sigma, params, trials=100_000, seed=20240)
    target = 10.0 * params.K**2
    for d in report.edges:
        assert d.theoretical == pytest.approx(target, abs=1e-12)
        assert abs(d.empirical_mean - target) <= 4 * d.std_err, (
            f"edge {d.edge}: mean {d.empirical_mean} vs {target}, se {d.std_err}"
        )
    _report("C3 Monte-Carlo consistency", started, 60.0,
            f"max |z| = {max(abs(d.z) for d in report.edges):.2f}")


# ---------------------------------------------------------------------------
# Criterion 4: oracle agreement on 200 seeded small instances.
# ---------------------------------------------------------------------------


def _random_small_instance(seed: int) -> Instance:
    for shift in itertools.count():
        s = seed * 1009 + shift
        if rng.uniform(s, 50) < 0.7:
            n = 4 + int(rng.uniform(s, 51) * 3) % 3
            graph = generate(GeneratorSpec(kind="random-graph", n=n, p=0.5, seed=s))
        else:
            graph = generate(GeneratorSpec(kind="linear-k-uniform", n=8, k=3, m=4, seed=s))
        if 1 <= graph.edge_count <= 8:
            break
    universe = 6
    lists, weights = {}, {}
    for e in range(graph.edge_count):
        size = 1 + int(rng.uniform(s, 52, e) * 4) % 4
        cols = [int(c) for c in rng.subset(s, 53, universe, size, e)]
        lists[e] = cols
        for c in cols:
            weights[(e, c)] = 1.0 if rng.uniform(s, 54, e) < 0.7 else 0.2 + 0.8 * rng.uniform(s, 55, e, c)
    sigma = random_sigma(graph, universe, s, density=0.3) if rng.uniform(s, 56) < 0.5 else EdgeCorrespondence()
    return Instance(
        graph=graph,
        lists=WeightedListAssignment.build(lists, weights),
        sigma=sigma,
        universe=(0, universe - 1),
    )


def test_c04_oracle_agreement(tmp_path):
    started = time.monotonic()
    successes = unsat = caps = 0
    for seed in range(200):
        inst = _random_small_instance(seed)
        ipath = tmp_path / f"inst{seed}.json"
        dump_instance(inst, ipath)
        prefix = tmp_path / f"run{seed}"
        code = cli_main([
            "colour", str(ipath), "--mode", "nibble+finish", "--seed", str(seed),
            "--retry-cap", "10", "--out-prefix", str(prefix),
        ])
        brute = brute_force_colour(inst.graph, inst.lists, inst.sigma, node_cap=10**6)
        if code == 0:
            successes += 1
            assert cli_main(["verify", str(ipath), str(prefix) + ".colouring.json"]) == 0
            assert brute.status != "proven-unsatisfiable", f"seed {seed}: pipeline vs oracle disagree"
        elif brute.status == "proven-unsatisfiable":
            unsat += 1
        else:
            caps += 1
    assert successes + unsat + caps == 200
    assert successes > 0
    _report("C4 oracle agreement", started, 120.0,
            f"{successes} coloured, {unsat} unsat, {caps} cap-outs")


# ---------------------------------------------------------------------------
# Criterion 5: finisher regime.
# ---------------------------------------------------------------------------


def test_c05_finisher_regime():
    started = time.monotonic()
    total_resamples = 0.0
    runs = 0
    for seed in range(20):
        graph = generate(GeneratorSpec(kind="regular-graph", n=20, d=3, seed=seed))
        lists = WeightedListAssignment.build(
            {e: [int(c) for c in rng.subset(seed, rng.KIND_LISTS, 300, 100, e)] for e in range(graph.edge_count)},
            None,
        )
        link = to_link_instance(graph, lists, EdgeCorrespondence())
        # line graph of a 3-regular graph: 4 neighbours per node, so the
        # per-(node, colour) neighbourhood weight is at most 4 <= N = 6
        assert all(len(link.adjacency[u]) == 4 for u in link.nodes)
        assert feasibility_check(100.0, 6.0, 2)
        colours, log = finish(link, seed=seed)
        assert log.outcome == "success", f"seed {seed} failed"
        assert validate_colouring(graph, lists, EdgeCorrespondence(), colours) == []
        total_resamples += log.iterations
        runs += 1
    mean_resamples = total_resamples / runs
    assert mean_resamples <= 30  # node count
    _report("C5 finisher regime", started, 60.0, f"mean resamples {mean_resamples:.2f} over {runs} seeds")


# ---------------------------------------------------------------------------
# Criterion 6: truncation contract.
# ---------------------------------------------------------------------------


def test_c06_truncation_contract():
    started = time.monotonic()
    for trial in range(1000):
        n = 1 + int(rng.uniform(trial, 30) * 30) % 30
        weights = {c: 0.01 + 0.99 * rng.uniform(trial, 31, c) for c in range(n)}
        total = sum(weights.values())
        l_target = total * (0.3 + 0.7 * rng.uniform(trial, 32))
        L = l_target + (2 * (l_target + 1) - l_target) * rng.uniform(trial, 33)
        kept, scaled = truncate_edge(tuple(range(n)), weights, l_target)
        assert sum(scaled.values()) == pytest.approx(l_target, abs=1e-12)
        for c in kept:
            assert scaled[c] <= weights[c] + 1e-15
            assert scaled[c] >= (1 - 2 / L) * weights[c] - 1e-15
    _report("C6 truncation contract", started, 5.0, "1000 random lists")


# ---------------------------------------------------------------------------
# Criterion 7: weighted binomial-coefficient bound.
# ---------------------------------------------------------------------------


def test_c07_symmetric_polynomial_bound():
    started = time.monotonic()
    brute_checked = 0
    for trial in range(1000):
        n = 1 + int(rng.uniform(trial, 40) * 20) % 20
        k = 1 + int(rng.uniform(trial, 41) * 6) % 6
        ps = [0.005 + 0.995 * rng.uniform(trial, 42, i) for i in range(n)]
        lhs, rhs = weighted_binom_bound(ps, k)
        assert lhs <= rhs + 1e-12
        if n <= 12:
            brute = sum(math.prod(s) for s in itertools.combinations(ps, k))
            assert lhs == pytest.approx(brute, rel=1e-12, abs=1e-300)
            brute_checked += 1
    assert brute_checked >= 200
    _report("C7 symmetric polynomial bound", started, 10.0, f"{brute_checked} brute-force checks")


# ---------------------------------------------------------------------------
# Criterion 8: Edmonds membership checks.
# ---------------------------------------------------------------------------


def test_c08_edmonds_checks():
    started = time.monotonic()
    # triangle half-vector rejected with an odd-set witness
    tri = triangle_graph()
    verdict = edmonds_membership(tri, {e: 0.5 for e in range(3)})
    assert not verdict.inside and verdict.witness.kind == "odd-set"
    assert verdict.witness.subject == (0, 1, 2)

    # matching indicators and convex combinations accepted
    graphs = []
    for seed in range(20):
        g = generate(GeneratorSpec(kind="random-graph", n=6, p=0.55, seed=seed))
        if 1 <= g.edge_count <= 12:
            graphs.append(g)
        if len(graphs) == 6:
            break
    combos = 0
    for gi, g in enumerate(graphs):
        matchings = list(enumerate_matchings(g))
        for matching in matchings:
            x = {e: 1.0 if e in matching else 0.0 for e in range(g.edge_count)}
            assert edmonds_membership(g, x, tol=1e-9).inside
        while combos < (gi + 1) * 17 and combos < 100:
            coeffs = [rng.uniform(combos, 45, i) for i in range(len(matchings))]
            total = sum(coeffs)
            x = {e: 0.0 for e in range(g.edge_count)}
            for lam, matching in zip(coeffs, matchings):
                for e in matching:
                    x[e] += lam / total
            assert edmonds_membership(g, x, tol=1e-9).inside
            combos += 1
    assert combos == 100

    # shrink monotonicity on 50 random vectors
    shrinks = (0.0, 0.05, 0.15, 0.3, 0.45)
    for trial in range(50):
        g = graphs[trial % len(graphs)]
        x = {e: 0.9 * rng.uniform(trial, 46, e) for e in range(g.edge_count)}
        passes = [edmonds_membership(g, x, shrink=s).inside for s in shrinks]
        for small, large in zip(passes, passes[1:]):
            assert small or not large, f"monotonicity broken on trial {trial}"

    # at scale: 1/(d+1) on a d-regular graph lies inside; half on a
    # triangle, with the other edges at its vertices at 0, violates it
    big = generate(GeneratorSpec(kind="regular-graph", n=200, d=16, seed=0))
    x = {e: 1 / 17 for e in range(big.edge_count)}
    assert edmonds_membership(big, x) == MembershipVerdict(True, None)
    def neighbours(a):
        return {b for e in big.edges_at(a) for b in big.edges[e]} - {a}

    triangle = next((u, v, min(both)) for u, v in big.edges if (both := neighbours(u) & neighbours(v)))
    for e, edge in enumerate(big.edges):
        if set(edge) & set(triangle):
            x[e] = 0.5 if set(edge) <= set(triangle) else 0.0
    verdict = edmonds_membership(big, x)
    assert verdict.witness == Witness("odd-set", tuple(sorted(triangle)), -0.5)
    _report("C8 Edmonds checks", started, 30.0,
            f"{len(graphs)} graphs, 100 combos, a 200-vertex 16-regular graph")


# ---------------------------------------------------------------------------
# Criterion 9: end-to-end smoke on 16-regular graphs.
# ---------------------------------------------------------------------------


def _smoke_run(tmp_path: Path, seed: int, threads: int | None = None) -> tuple[int, float, Path]:
    ipath = tmp_path / f"smoke{seed}.json"
    code = cli_main([
        "gen", "--kind", "regular", "--n", "200", "--d", "16", "--eps", "0.5",
        "--seed", str(seed), "--out", str(ipath),
    ])
    assert code == 0
    prefix = tmp_path / f"smokerun{seed}"
    t0 = time.monotonic()
    argv = []
    if threads is not None:
        argv += ["--threads", str(threads)]
    argv += [
        "colour", str(ipath), "--mode", "nibble+finish", "--seed", str(seed),
        "--retry-cap", "50", "--out-prefix", str(prefix),
    ]
    code = cli_main(argv)
    elapsed = time.monotonic() - t0
    if code == 0:
        assert cli_main(["verify", str(ipath), str(prefix) + ".colouring.json"]) == 0
    return code, elapsed, prefix


def test_c09_end_to_end_smoke(tmp_path):
    started = time.monotonic()
    successes = 0
    slowest = 0.0
    for seed in range(20):
        code, elapsed, _ = _smoke_run(tmp_path, seed)
        slowest = max(slowest, elapsed)
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
        if code == 0:
            successes += 1
    assert successes >= 18, f"only {successes}/20 seeds coloured"
    _report("C9 end-to-end smoke", started, 20 * 60.0,
            f"{successes}/20 seeds, slowest run {slowest:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 10: determinism of criteria 2-5 and 9 artifacts across threads.
# ---------------------------------------------------------------------------


def _artifact_bytes(prefix: Path) -> dict[str, bytes]:
    out = {}
    for suffix in (".colouring.json", ".trace.csv", ".finish.json"):
        p = Path(str(prefix) + suffix)
        if p.exists():
            out[suffix] = p.read_bytes()
    return out


def test_c10_determinism(tmp_path, monkeypatch):
    started = time.monotonic()

    # criterion 2/3 artifact: diagnostics report JSON
    graph, lists, sigma = _five_edge_path_instance()
    params = NibbleParams(eps=0.25, k=2, L=10.0, N=7.5)
    r1 = json.dumps(expectation_diagnostic(graph, lists, sigma, params, trials=2000, seed=7).to_dict(), sort_keys=True)
    monkeypatch.setenv("NIBBLE_COLOUR_THREADS", "8")
    r2 = json.dumps(expectation_diagnostic(graph, lists, sigma, params, trials=2000, seed=7).to_dict(), sort_keys=True)
    assert r1 == r2

    micro = random_micro_instance(11)
    p_micro = NibbleParams(eps=0.25, k=micro[0].k, L=40.0, N=20.0)
    e1 = exact_expectations(micro[0], micro[1], micro[2], p_micro)
    e2 = exact_expectations(micro[0], micro[1], micro[2], p_micro)
    assert e1 == e2

    # criterion 4 artifact: one pipeline run, rerun with different threads
    inst = _random_small_instance(17)
    ipath = tmp_path / "det-inst.json"
    dump_instance(inst, ipath)
    runs = []
    for tag, threads in (("a", 1), ("b", 4)):
        prefix = tmp_path / f"det-{tag}"
        cli_main(["--threads", str(threads), "colour", str(ipath), "--seed", "5",
                  "--out-prefix", str(prefix)])
        runs.append(_artifact_bytes(prefix))
    assert runs[0] == runs[1]

    # criterion 5 artifact: finisher log
    g5 = generate(GeneratorSpec(kind="regular-graph", n=20, d=3, seed=1))
    l5 = WeightedListAssignment.build(
        {e: [int(c) for c in rng.subset(1, rng.KIND_LISTS, 300, 100, e)] for e in range(g5.edge_count)}, None
    )
    link = to_link_instance(g5, l5, EdgeCorrespondence())
    f1 = finish(link, seed=3)
    f2 = finish(link, seed=3)
    assert f1[0] == f2[0] and f1[1].to_dict() == f2[1].to_dict()

    # criterion 9 artifact: one smoke seed across thread counts
    code1, _, prefix1 = _smoke_run(tmp_path, 0, threads=1)
    code2, _, prefix2 = _smoke_run(tmp_path, 0, threads=6)
    assert code1 == code2
    assert _artifact_bytes(prefix1) == _artifact_bytes(prefix2)

    _report("C10 determinism", started, 120.0)
