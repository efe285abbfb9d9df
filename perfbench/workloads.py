"""Workloads of the colour benchmark: how each instance is generated, how it
is coloured, and an output check that shares no code with the program.

Every instance is a pure function of the workload seed.  The program sees
only the generated instance file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple[str, ...]  # `nibble-colour gen` arguments, without --seed and --out
    colour: tuple[str, ...]  # `nibble-colour colour` arguments, without the instance, --seed and --out-prefix
    sigma_share: float = 0.0  # share of intersecting edge pairs given a random correspondence


WORKLOADS = {
    w.name: w
    for w in (
        # The default user path (auto-eps audit, nibble, finisher) on C9-shaped graphs.
        Workload(
            "nibble-regular",
            gen=("--kind", "regular", "--n", "200", "--d", "16", "--eps", "0.5"),
            colour=("--mode", "nibble+finish"),
        ),
        # The same path through the stored-map branch of the round structure, with
        # three vertex slots.  List eps 0.75, not 0.5: with 0.5 about one seed in
        # seven stops at the truncation guard before any round.
        Workload(
            "nibble-sigma-k3",
            gen=("--kind", "linear", "--k", "3", "--n", "120", "--m", "900", "--eps", "0.75"),
            colour=("--mode", "nibble+finish"),
            sigma_share=0.5,
        ),
        # Explicit eps skips the audit and finish-only skips the nibble: load,
        # validation and finisher only, so round-engine changes must not move it.
        Workload(
            "finish-sparse",
            gen=("--kind", "regular", "--n", "4000", "--d", "8", "--eps", "0.5"),
            colour=("--mode", "finish-only", "--eps", "0.25"),
        ),
    )
}

ARTIFACTS = ("colouring.json", "trace.csv", "finish.json")


def sha256(path: Path) -> str | None:
    """Hex digest of a file, or None when the file does not exist."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def make_instance(cli, workload: Workload, seed: int, path: Path) -> None:
    """Write the workload's instance for `seed` to `path` through `gen`,
    then add the correspondence when the workload has one."""
    rc = cli.main(["gen", *workload.gen, "--seed", str(seed), "--out", str(path)])
    if rc != 0:
        raise RuntimeError(f"gen exited with {rc}")
    if workload.sigma_share:
        add_correspondence(path, seed, workload.sigma_share)


def add_correspondence(path: Path, seed: int, share: float) -> None:
    """Give a seeded share of the intersecting edge pairs a random colour
    bijection and rewrite the instance with `dump_instance`.

    Each chosen pair (e, f) maps every colour of L(e) through a random
    permutation of the colour universe, images outside L(f) included, as
    a user's full correspondence would.
    """
    from nibble_colour.core import EdgeCorrespondence, validate_instance
    from nibble_colour.instance_io import Instance, dump_instance, load_instance

    inst = load_instance(path)
    lo, hi = inst.universe
    gen = np.random.default_rng([seed, 0x51])
    maps: dict[tuple[int, int], dict[int, int]] = {}
    for v in range(inst.graph.vertex_count):
        at_v = inst.graph.edges_at(v)
        for i, e in enumerate(at_v):
            for f in at_v[i + 1 :]:
                if gen.random() >= share:
                    continue
                perm = gen.permutation(hi - lo + 1) + lo
                maps[(e, f)] = {c: int(perm[c - lo]) for c in inst.lists.colours(e)}
    out = Instance(graph=inst.graph, lists=inst.lists, sigma=EdgeCorrespondence(maps=maps), universe=inst.universe)
    problems = validate_instance(out.graph, out.sigma, out.lists, out.universe)
    if problems:
        raise RuntimeError(f"generated correspondence instance is invalid: {problems[0]}")
    dump_instance(out, path)


def pair_count(instance: dict) -> int:
    """Number of (edge, colour) pairs of a raw instance."""
    return sum(len(entries) for entries in instance["lists"].values())


def check_colouring(instance: dict, colouring: dict) -> list[str]:
    """Problems of a colouring file against a raw instance: every edge is
    coloured from its list and no two edges that share a vertex block each
    other.  Written from the instance format alone, not from the program."""
    problems: list[str] = []
    edges = instance["edges"]
    colours = {int(e): int(c) for e, c in colouring.get("colours", {}).items()}
    if not colouring.get("complete"):
        problems.append("colouring is not marked complete")
    lists = {
        int(e): {int(x["colour"]) if isinstance(x, dict) else int(x) for x in entries}
        for e, entries in instance["lists"].items()
    }
    for e in range(len(edges)):
        if e not in colours:
            problems.append(f"edge {e} is uncoloured")
        elif colours[e] not in lists.get(e, ()):
            problems.append(f"edge {e} has colour {colours[e]}, not in its list")
    maps = {(int(s["e"]), int(s["f"])): {int(a): int(b) for a, b in s["map"]} for s in instance.get("sigma", [])}
    at_vertex: dict[int, list[int]] = {}
    for e, edge in enumerate(edges):
        for v in edge:
            at_vertex.setdefault(int(v), []).append(e)
    for v, at_v in at_vertex.items():
        for i, e in enumerate(at_v):
            for f in at_v[i + 1 :]:
                if e not in colours or f not in colours:
                    continue
                ce, cf = colours[e], colours[f]
                if (e, f) in maps:
                    blocked = maps[(e, f)].get(ce) == cf
                elif (f, e) in maps:
                    blocked = maps[(f, e)].get(cf) == ce
                else:
                    blocked = ce == cf
                if blocked:
                    problems.append(f"edges {e} and {f} at vertex {v} block each other ({ce}, {cf})")
    return problems
