"""JSON serialisation of instances and colourings.

Instance format::

    {
      "k": 2,
      "vertex_count": 4,
      "edges": [[0, 1], [1, 2]],
      "colour_universe": [0, 9],
      "lists": {"0": [{"colour": 1, "weight": 0.5}, {"colour": 2}]},
      "sigma": [{"e": 0, "f": 1, "map": [[1, 7]]}]
    }

Weights omitted from a list entry default to 1.0; a colour listed twice
for one edge keeps its last weight.  `sigma` entries are ordered pairs;
pairs not mentioned use the identity correspondence.  A repeated pair
keeps its last map, and a colour repeated within a map its last image.
`k`, `vertex_count`, the universe bounds, list colours, `sigma` edge ids
and map entries are integers (a number written with a fraction or an
exponent must be integral, as 3.0 is) in the int64 range [-2^63, 2^63).

Colouring format::

    {"complete": true, "colours": {"0": 1, "1": 2}}
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    EdgeCorrespondence,
    InstanceError,
    LinearHypergraph,
    PartialColouring,
    WeightedListAssignment,
)


@dataclass(frozen=True)
class Instance:
    """A hypergraph together with its lists, correspondence and universe."""

    graph: LinearHypergraph
    lists: WeightedListAssignment
    sigma: EdgeCorrespondence
    universe: tuple[int, int]


class _JsonFloat(float):
    """A JSON number written with a fraction or an exponent: `int` (and
    `np.fromiter` to int64) takes it only when integral, `float` as is."""

    def __int__(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{float(self)!r} is not an integer")
        return float.__int__(self)


def instance_to_dict(inst: Instance) -> dict:
    lists = inst.lists
    entries = [
        {"colour": c} if w == 1.0 else {"colour": c, "weight": w}
        for c, w in zip(lists.colour_of.tolist(), lists.mu.tolist())
    ]
    bounds = lists.edge_ptr.tolist()
    lists_json = {str(e): entries[bounds[i] : bounds[i + 1]] for i, e in enumerate(lists.edges.tolist())}
    sigma = inst.sigma
    entries = np.stack([sigma.entry_c, sigma.entry_image], axis=1).tolist()
    bounds = sigma.entry_ptr.tolist()
    sigma_json = [
        {"e": e, "f": f, "map": entries[bounds[i] : bounds[i + 1]]}
        for i, (e, f) in enumerate(zip(sigma.pair_e.tolist(), sigma.pair_f.tolist()))
    ]
    return {
        "k": inst.graph.k,
        "vertex_count": inst.graph.vertex_count,
        "edges": [list(edge) for edge in inst.graph.edges],
        "colour_universe": list(inst.universe),
        "lists": lists_json,
        "sigma": sigma_json,
    }


def instance_from_dict(data: Mapping) -> Instance:
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
            if not 0 <= e < len(edges):
                raise InstanceError(f"list declared for unknown edge {e}")
            listed = len(colour_of)
            for entry in entries:
                if isinstance(entry, dict):
                    colour_of.append(int(entry["colour"]))
                    mu.append(float(entry.get("weight", 1.0)))
                else:  # bare colour id
                    colour_of.append(int(entry))
                    mu.append(1.0)
            edge_of += [e] * (len(colour_of) - listed)
        pair_e: list[int] = []
        pair_f: list[int] = []
        maps: list[list] = []
        for item in data.get("sigma", []):
            pair_e.append(int(item["e"]))
            pair_f.append(int(item["f"]))
            mapped = item.get("map", [])
            if not isinstance(mapped, list):
                raise TypeError(f"map of ({pair_e[-1]},{pair_f[-1]}) is not a list of pairs")
            maps.append(mapped)
        entries = _map_entries(maps)
    except InstanceError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
        raise InstanceError(f"malformed instance: {exc}") from exc
    # k, vertex_count, the universe, list colours and the sigma edge ids;
    # `_map_entries` has checked the map entries.
    _check_int64([(k, vertex_count, lo, hi), colour_of, pair_e, pair_f])
    return Instance(
        graph=LinearHypergraph.build(vertex_count, edges, k=k),
        lists=WeightedListAssignment.from_pairs(range(len(edges)), edge_of, colour_of, mu),
        sigma=EdgeCorrespondence.from_items(
            np.array(pair_e, dtype=np.int64), np.array(pair_f, dtype=np.int64),
            np.fromiter(map(len, maps), np.int64, len(maps)), entries[:, 0], entries[:, 1],
        ),
        universe=(lo, hi),
    )


def _check_int64(groups: list) -> None:
    for extreme in (min(chain.from_iterable(groups)), max(chain.from_iterable(groups))):
        if not -(1 << 63) <= extreme < 1 << 63:
            raise InstanceError(f"{extreme} lies outside the int64 range [-2^63, 2^63)")


def _map_entries(maps: list[list]) -> np.ndarray:
    """The entries of the `sigma` maps, in order, as an (n, 2) int64
    array.  Each entry is a pair whose items convert with `int`, as a
    JSON list of two integers does; the entries are read as one flat
    array, or one at a time when that fails, so that a malformed entry or
    a value outside int64 is reported as such."""
    flat = list(chain.from_iterable(maps))
    try:
        if set(map(len, flat)) <= {2}:
            return np.fromiter(chain.from_iterable(flat), np.int64, 2 * len(flat)).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        pass
    pairs = [(int(c1), int(c2)) for c1, c2 in flat]
    _check_int64(pairs)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off for the block, and back on
    afterwards only if it was on before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def dump_instance(inst: Instance, path: str | Path) -> None:
    """Write `inst` in the instance format.  The text is built with the
    cyclic collector paused, as in `load_instance`."""
    with _collector_paused():
        text = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def load_instance(path: str | Path) -> Instance:
    """Read, decode and convert the instance at `path`.

    The whole load runs with the cyclic garbage collector paused.
    Decoded JSON holds only dicts, lists, strings and numbers, which form
    no reference cycles, so the passes that its hundreds of thousands of
    containers (one list per map entry) would trigger free nothing.  The
    decoded dict is freed by reference counting before the collector
    resumes, so no pass traverses it.  The pause is process-wide: no
    thread collects automatically until this one load has returned.
    """
    with _collector_paused():
        try:
            data = json.loads(Path(path).read_text(), parse_float=_JsonFloat)
        except (OSError, json.JSONDecodeError) as exc:
            raise InstanceError(f"cannot read instance {path}: {exc}") from exc
        inst = instance_from_dict(data)
        del data
    return inst


def colouring_to_dict(colouring: PartialColouring | Mapping[int, int], complete: bool) -> dict:
    colours = colouring.colours if isinstance(colouring, PartialColouring) else colouring
    return {"complete": bool(complete), "colours": {str(e): int(c) for e, c in sorted(colours.items())}}


def dump_colouring(colouring, complete: bool, path: str | Path) -> None:
    """Write the colouring format, with the collector paused as in `dump_instance`."""
    with _collector_paused():
        text = json.dumps(colouring_to_dict(colouring, complete), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def load_colouring(path: str | Path) -> tuple[PartialColouring, bool]:
    try:
        data = json.loads(Path(path).read_text(), parse_float=_JsonFloat)
        colours = {int(e): int(c) for e, c in data["colours"].items()}
        complete = bool(data.get("complete", False))
    except (OSError, json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"cannot read colouring {path}: {exc}") from exc
    return PartialColouring(colours), complete
