"""JSON serialisation of instances, colourings and the finisher's log.

Instance format::

    {
      "k": 2,
      "vertex_count": 4,
      "edges": [[0, 1], [1, 2]],
      "colour_universe": [0, 9],
      "lists": {"0": [{"colour": 1, "weight": 0.5}, {"colour": 2}]},
      "sigma": [{"e": 0, "f": 1, "map": [[1, 7]]}]
    }

The keys of `lists` are edge ids written as plain integers ("1", not
"01").  A list entry is a bare colour id or an object; weights omitted
from an object default to 1.0, and a colour listed twice for one edge
keeps its last weight.  `sigma` entries are ordered pairs;
pairs not mentioned use the identity correspondence.  A repeated pair
keeps its last map, and a colour repeated within a map its last image.
`k`, `vertex_count`, the universe bounds, list colours, `sigma` edge ids
and map entries are integers (a number written with a fraction or an
exponent must be integral, as 3.0 is) in the int64 range [-2^63, 2^63).

Both readers of the format, `instance_from_dict` (a decoded dict) and
`load_instance` (a file, read a window of the text and decoded a block
of members at a time), convert it with the same converters `_head`,
`_list_block`, `_sigma_block` and `_assemble`, which raise InstanceError
for any fault.

Colouring format::

    {"complete": true, "colours": {"0": 1, "1": 2}}
"""

from __future__ import annotations

import gc
import json
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, TextIO

import numpy as np

from .core import (
    EdgeCorrespondence,
    InstanceError,
    LinearHypergraph,
    PartialColouring,
    WeightedListAssignment,
    segment_ranges,
)
from .finisher import ResampleLog


@dataclass(frozen=True)
class Instance:
    """A hypergraph together with its lists, correspondence and universe."""

    graph: LinearHypergraph
    lists: WeightedListAssignment
    sigma: EdgeCorrespondence
    universe: tuple[int, int]


class _JsonFloat(float):
    """A JSON number written with a fraction or an exponent:
    `operator.index` and `int` take it only when integral, `float` as is."""

    def __index__(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{float(self)!r} is not an integer")
        return float.__int__(self)

    __int__ = __index__


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
    """The instance of the decoded format-1 JSON `data`: `lists` and
    `sigma` each converted as one block by the converters that
    `load_instance` applies a block at a time.  Any fault in the data
    raises InstanceError naming it."""
    head = _head(data)
    with _malformed():
        lists = data.get("lists", {})
        keys, rows = lists.keys(), list(lists.values())
    return _assemble(head, [_list_block(keys, rows)], [_sigma_block(data.get("sigma", []))])


@contextmanager
def _malformed():
    """Raise what goes wrong in reading the data (a missing key, a value
    of the wrong type or shape) as the InstanceError "malformed instance"."""
    try:
        yield
    except InstanceError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
        raise InstanceError(f"malformed instance: {exc}") from exc


class _Head(NamedTuple):
    """The scalars and the edges of an instance, converted."""

    k: int
    vertex_count: int
    universe: tuple[int, int]
    sizes: np.ndarray  # vertices per edge
    vertices: np.ndarray  # the edges' vertices, edge after edge


class _ListBlock(NamedTuple):
    """Consecutive members of `lists`, converted: each row's edge id and
    length, and its entries' colours and weights, in file order."""

    keys: np.ndarray
    counts: np.ndarray
    colour_of: np.ndarray
    mu: np.ndarray


class _SigmaBlock(NamedTuple):
    """Consecutive items of `sigma`, converted: each item's pair and map
    length, and the colours and images of the map entries in order."""

    pair_e: np.ndarray
    pair_f: np.ndarray
    counts: np.ndarray
    c: np.ndarray
    image: np.ndarray


def _check_int64(values: list[int]) -> None:
    for extreme in (min(values), max(values)):
        if not -(1 << 63) <= extreme < 1 << 63:
            raise InstanceError(f"{extreme} lies outside the int64 range [-2^63, 2^63)")


def _integer(value) -> int:
    """`value` read as an integer: an int, or a float (plain or
    `_JsonFloat`) only when integral.  A string, which `int` parses, is
    no integer and raises TypeError."""
    return operator.index(_JsonFloat(value) if isinstance(value, float) else value)


def _int64(values: Callable[[], Iterable], n: int) -> np.ndarray:
    """The n integers that `values()` yields, in one `np.fromiter` pass of
    `operator.index`: an int or an integral `_JsonFloat`, and no string.
    Only a value it does not take (a plain float, or no number) sends the
    values through `_integer`, and only one outside int64 has them read
    as Python ints, so that the InstanceError names it."""
    try:
        try:
            return np.fromiter(map(operator.index, values()), np.int64, n)
        except TypeError:
            return np.fromiter(map(_integer, values()), np.int64, n)
    except OverflowError:
        _check_int64(list(map(_integer, values())))
        raise


@_malformed()
def _head(data: Mapping) -> _Head:
    """The scalars and the edges of the decoded top-level object `data`."""
    k = _integer(data["k"])
    vertex_count = _integer(data["vertex_count"])
    lo, hi = map(_integer, data.get("colour_universe", (0, 0)))
    _check_int64([k, vertex_count, lo, hi])
    edges = data["edges"]
    sizes = np.fromiter(map(len, edges), np.int64, len(edges))
    return _Head(k, vertex_count, (lo, hi), sizes, _int64(lambda: chain.from_iterable(edges), int(sizes.sum())))


@_malformed()
def _list_block(keys: Collection[str], rows: list) -> _ListBlock:
    """The block of the `lists` members `keys` (edge ids as object keys,
    each as `_edge_id` reads it) and `rows`.  A block whose entries are
    all bare colour ids or all objects is read in one pass; one that
    mixes the two is read as objects, its bare ids made {"colour": id}."""
    ids = _int64(lambda: map(int, keys), len(keys))  # keys are strings: `int` parses them
    if list(map(str, ids.tolist())) != list(keys):
        list(map(_edge_id, keys))  # raises on the first key that is not a plain integer
    entries = list(chain.from_iterable(rows))
    try:
        colour_of, mu = _entry_columns(entries)
    except TypeError:  # both forms, or an entry of neither
        colour_of, mu = _entry_columns([entry if type(entry) is dict else {"colour": entry} for entry in entries])
    return _ListBlock(ids, np.fromiter(map(len, rows), np.int64, len(rows)), colour_of, mu)


def _entry_columns(entries: list) -> tuple[np.ndarray, np.ndarray]:
    """The colours and weights of list entries that are all of the form
    of the first: bare colour ids, or objects."""
    n = len(entries)
    if not n or type(entries[0]) is not dict:  # bare colour ids
        return _int64(lambda: entries, n), np.ones(n)
    colour_of = _int64(lambda: map(itemgetter("colour"), entries), n)
    if max(map(len, entries)) == 1:  # "colour" only: no weight is written
        return colour_of, np.ones(n)
    weights = list(map(dict.get, entries, repeat("weight"), repeat(1.0)))
    try:  # unary plus takes numbers only, where `np.fromiter` parses a string and reads null as NaN
        return colour_of, np.fromiter(map(operator.pos, weights), np.float64, n)
    except TypeError:
        list(map(float, weights))  # names a null weight as `float` does
        raise


@_malformed()
def _sigma_block(items: list) -> _SigmaBlock:
    """The block of the `sigma` items `items`; every map is a list of
    pairs [c, image]."""
    pair_e = _int64(lambda: map(itemgetter("e"), items), len(items))
    pair_f = _int64(lambda: map(itemgetter("f"), items), len(items))
    maps = list(map(dict.get, items, repeat("map"), repeat([])))
    if not set(map(type, maps)) <= {list}:
        i = next(i for i, mapped in enumerate(maps) if type(mapped) is not list)
        raise TypeError(f"map of ({pair_e[i]},{pair_f[i]}) is not a list of pairs")
    counts = np.fromiter(map(len, maps), np.int64, len(maps))
    entries = list(chain.from_iterable(maps))
    if not set(map(len, entries)) <= {2}:
        raise ValueError("a map entry is not a pair [c, image]")
    flat = _int64(lambda: chain.from_iterable(entries), 2 * len(entries))
    return _SigmaBlock(pair_e, pair_f, counts, flat[0::2].copy(), flat[1::2].copy())


def _joined(blocks: list[tuple], name: str) -> np.ndarray:
    parts = [getattr(block, name) for block in blocks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _assemble(head: _Head, list_blocks: list[_ListBlock], sigma_blocks: list[_SigmaBlock]) -> Instance:
    """The instance of the converted columns, the blocks joined in order.
    Both block lists are emptied once joined, so that the blocks are freed
    before the tables are built, which sets the load's peak memory."""
    m = head.sizes.size
    keys, counts, colour_of, mu = (_joined(list_blocks, name) for name in _ListBlock._fields)
    pair_e, pair_f, map_counts, c, image = (_joined(sigma_blocks, name) for name in _SigmaBlock._fields)
    list_blocks.clear()
    sigma_blocks.clear()
    unknown = (keys < 0) | (keys >= m)
    if unknown.any():
        raise InstanceError(f"list declared for unknown edge {keys[unknown][0]}")
    # The rows in edge order, each row's entries in file order.
    order = np.argsort(keys, kind="stable")
    at = segment_ranges((np.cumsum(counts) - counts)[order], counts[order])
    return Instance(
        graph=LinearHypergraph.from_slots(head.vertex_count, head.k, head.sizes, head.vertices),
        lists=WeightedListAssignment.from_pairs(
            np.arange(m), np.repeat(keys[order], counts[order]), colour_of[at], mu[at], _handed_over=True
        ),
        sigma=EdgeCorrespondence.from_items(pair_e, pair_f, map_counts, c, image, _handed_over=True),
        universe=head.universe,
    )


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


# -- writing -----------------------------------------------------------------
#
# The writers render the text of `json.dumps(obj, indent=2, sort_keys=True)`
# straight from the tables, byte for byte, without building `obj`.  (CPython
# encodes in C only when `indent` is None; indented text goes through the
# pure-Python encoder, one call per object.)  Layouts are `%s` templates
# filled by `%`, a whole array of rows at a time; the literal text of the
# formats holds no `%`.

_PAD = "  "  # one level of `indent=2`
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    """`x` as `json` writes a float."""
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """The JSON array (or object, with `brackets` "{}") of the rendered
    `items`, opened on a line indented by `pad`."""
    if not items:
        return brackets
    inner = "\n" + pad + _PAD
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{pad}{brackets[1]}"


def _int_rows(values: list[int], widths: list[int], pad: str) -> str:
    """The JSON array of int arrays whose row i holds the next widths[i]
    of the ints `values`."""
    row = {w: _block(["%s"] * w, pad + _PAD) for w in set(widths)}
    return _block([row[w] for w in widths], pad) % tuple(values)


def _write(path: str | Path, members: list[tuple[str, str]]) -> None:
    """Write the JSON object of `members`, (key, rendered value) pairs in
    key order, one piece at a time: the large values are not copied into
    one text first."""
    with Path(path).open("w") as out:
        for i, (key, value) in enumerate(members):
            out.write(f'{"," if i else "{"}\n{_PAD}"{key}": ')
            out.write(value)
        out.write("\n}\n")


def dump_instance(inst: Instance, path: str | Path) -> None:
    """Write `inst` in the instance format: the text of
    `json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)`,
    rendered from the tables."""
    graph = inst.graph
    _write(path, [
        ("colour_universe", _block(["%s"] * len(inst.universe), _PAD) % tuple(inst.universe)),
        ("edges", _int_rows(
            graph.slots[:, 1].tolist(), np.bincount(graph.slots[:, 0], minlength=graph.edge_count).tolist(), _PAD
        )),
        ("k", str(graph.k)),
        ("lists", _lists_text(inst.lists)),
        ("sigma", _sigma_text(inst.sigma)),
        ("vertex_count", str(graph.vertex_count)),
    ])


def _lists_text(lists: WeightedListAssignment) -> str:
    """The `lists` object: one entry per pair, `weight` left out for 1.0,
    and the edges in the string order of their keys ("10" before "9"), as
    `sort_keys` orders them.  One template per row shape, the entries that
    carry a weight, filled by one `%` with the colours and weights."""
    entry = _block(['"colour": %s'], _PAD * 3, "{}")
    weighted = _block(['"colour": %s', '"weight": %s'], _PAD * 3, "{}")
    keys = lists.edges.tolist()
    in_key_order = np.array(sorted(range(len(keys)), key=lambda i: str(keys[i])), dtype=np.int64)
    counts = np.diff(lists.edge_ptr)[in_key_order]
    pairs = segment_ranges(lists.edge_ptr[in_key_order], counts)
    heavy = lists.mu[pairs] != 1.0
    shapes: dict[bytes, str] = {}
    rows, flags, bounds = [], heavy.tobytes(), np.cumsum(counts).tolist()
    for i, a, b in zip(in_key_order.tolist(), [0] + bounds, bounds):
        shape = flags[a:b]
        if shape not in shapes:
            shapes[shape] = _block([weighted if f else entry for f in shape], _PAD * 2)
        rows.append(f'"{keys[i]}": ' + shapes[shape])
    values = np.empty(pairs.size + int(heavy.sum()), dtype=object)
    at = np.arange(pairs.size) + np.cumsum(heavy) - heavy  # where each pair's colour goes
    values[at] = lists.colour_of[pairs].tolist()
    values[at[heavy] + 1] = [_float_text(w) for w in lists.mu[pairs][heavy].tolist()]
    return _block(rows, _PAD, "{}") % tuple(values.tolist())


def _sigma_text(sigma: EdgeCorrespondence) -> str:
    """The `sigma` array: one template per map length, filled by one `%`
    with each pair's e and f followed by its entries (c, image)."""
    counts = np.diff(sigma.entry_ptr)
    row = _block(["%s", "%s"], _PAD * 4)
    item = {
        m: _block(['"e": %s', '"f": %s', '"map": ' + _block([row] * m, _PAD * 3)], _PAD * 2, "{}")
        for m in set(counts.tolist())
    }
    values = np.empty(2 * (counts.size + sigma.entry_c.size), dtype=np.int64)
    head = 2 * (np.arange(counts.size) + sigma.entry_ptr[:-1])
    values[head], values[head + 1] = sigma.pair_e, sigma.pair_f
    in_map = np.ones(values.size, dtype=bool)
    in_map[head] = in_map[head + 1] = False
    values[in_map] = np.stack([sigma.entry_c, sigma.entry_image], axis=1).ravel()
    return _block([item[m] for m in counts.tolist()], _PAD) % tuple(values.tolist())


def _read_json(path: str | Path, what: str):
    """The decoded JSON file at `path`.  A file that cannot be read or is
    not UTF-8, and text that is not JSON or nests deeper than the decoder
    recurses, raise InstanceError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_float=_JsonFloat)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"cannot read {what} {path}: {exc}") from exc


# -- decoding format 1 a block at a time --------------------------------------
#
# `load_instance` walks the top-level object itself and decodes each member
# with json's own C scanner, except `lists` and `sigma`: their members are
# decoded and converted (`_list_block`, `_sigma_block`) _BLOCK_ROWS at a
# time, so no Python object of the whole file exists at once.  The walker
# reads the file through one text stream, a window of _WINDOW characters or
# more at a time, so no str of the whole file exists either.  Text that the
# walker does not take goes through `json.loads` and `instance_from_dict`.

_BLOCK_ROWS = 1024  # `lists` members or `sigma` items decoded before they are converted
_WINDOW = 1 << 16  # characters of the file held at once, unless one value needs more
_WS = "[ \t\n\r]*"  # JSON whitespace
_SPACE = re.compile(_WS)
_KEY = re.compile(_WS + r'"([^"\\\x00-\x1f]*)"' + _WS + ":" + _WS)  # a key without escapes, then the colon
_AFTER = re.compile(_WS + r"(?:,|([]}]))" + _WS)  # the comma after a member, or the closing bracket (group 1)
# A JSON number decides within three characters whether it goes on ("1.5",
# "1e5", "1e+5"), so one that ends three characters before the window's end
# ends there in the whole text too.
_LOOKAHEAD = 3


class _Cursor:
    """A position in the JSON text of a stream, read a window at a time.
    Each read moves past what it read and raises ValueError where the text
    is not what it reads.  A read that fails, or that ends within
    _LOOKAHEAD characters of the window's end (a whitespace run, a key, or
    a value such as a number), is made again once the window has been
    extended, so it reads what it would read in the whole text."""

    def __init__(self, file: TextIO):
        self._file = file
        self.text, self.at = "", 0  # the window, and the cursor's offset in it
        self._sure = 0  # a read that ends before this offset ends there in the whole text
        self._scan = json.JSONDecoder(parse_float=_JsonFloat).scan_once
        self.at = self._match(_SPACE).end()

    def _extend(self) -> bool:
        """Drop the window's text before the cursor and read on, to a
        window of _WINDOW characters, or of twice the text left after the
        cursor when that is longer: a value that does not fit is reread
        in a window twice as long, which costs linear time in all.  False
        at the end of the file."""
        rest = self.text[self.at :]
        more = self._file.read(max(_WINDOW, 2 * len(rest)) - len(rest))
        if not more:
            self._sure = len(self.text) + 1  # the whole text is in the window
            return False
        self.text, self.at = rest + more, 0
        self._sure = len(self.text) - _LOOKAHEAD
        return True

    def _match(self, pattern: re.Pattern) -> re.Match | None:
        """`pattern` matched at the cursor, in a window extended while the
        match fails or ends within _LOOKAHEAD characters of its end."""
        while True:
            found = pattern.match(self.text, self.at)
            if (found is None or found.end() >= self._sure) and self._extend():
                continue
            return found

    def at_end(self) -> bool:
        """Whether the cursor is at the end of the text."""
        return self.at == len(self.text) and not self._extend()

    def value(self):
        """The JSON value at the cursor, decoded as `json.loads` decodes it."""
        while True:
            try:
                value, end = self._scan(self.text, self.at)
            except (StopIteration, ValueError):  # no value, or one cut by the window's end
                if self._extend():
                    continue
                raise ValueError(f"no JSON value at {self.at}") from None
            if end < self._sure or not self._extend():
                self.at = end
                return value

    def opens(self, bracket: str) -> bool:
        """Whether `bracket` comes next; the cursor moves past it and the
        whitespace after it when it does."""
        if not self.text.startswith(bracket, self.at):
            return False
        self.at += 1
        self.at = self._match(_SPACE).end()
        return True

    def members(self, close: str):
        """The members of the object ("}") or array ("]") just opened,
        each yielded (as its key, or None in an array) with the cursor at
        its value, which the caller reads before asking for the next."""
        if self.opens(close):
            return
        while True:
            if close == "]":
                yield None
            else:
                key = _KEY.match(self.text, self.at)
                if key is None or key.end() >= self._sure:
                    key = self._match(_KEY)
                    if key is None:
                        raise ValueError(f"no plain object key at {self.at}")
                self.at = key.end()
                yield key.group(1)
            after = _AFTER.match(self.text, self.at)
            if after is None or after.end() >= self._sure:
                after = self._match(_AFTER)
            if after is None or after.group(1) not in (None, close):
                raise ValueError(f"no comma or {close!r} at {self.at}")
            self.at = after.end()
            if after.group(1):
                return


def _streamed_columns(file: TextIO) -> tuple[_Head, list[_ListBlock], list[_SigmaBlock]] | None:
    """The converted columns of the format-1 text of the stream `file`, as
    `_assemble` takes them, or None where only
    `instance_from_dict(json.loads(text))` gives the instance or the
    error: text that is not one JSON object (json then reports the first
    syntax error), a key written with an escape, a repeated `lists` or
    `sigma` key or one of another JSON type, a repeated edge id in `lists`
    (json keeps the last row), a fault that a converter finds (reported in
    `instance_from_dict`'s order), or a file that is not UTF-8 (reported
    as the whole read reports it)."""
    head: dict = {}
    blocks: dict[str, list] = {}
    try:
        cursor = _Cursor(file)
        if not cursor.opens("{"):
            return None
        for key in cursor.members("}"):
            if key not in ("lists", "sigma"):
                head[key] = cursor.value()  # a repeated key keeps its last value, as in `json.loads`
            elif key in blocks or not cursor.opens("{" if key == "lists" else "["):
                return None
            else:
                blocks[key] = _blocks(cursor, key)
        if not cursor.at_end():
            return None
        converted = _head(head)
        list_blocks = blocks.get("lists") or [_list_block([], [])]
    except (RecursionError, ValueError):  # JSONDecodeError, InstanceError and UnicodeDecodeError are ValueErrors
        return None
    # An unknown edge id, which `instance_from_dict` names, or a repeated
    # one, whose last row `json.loads` keeps.
    keys = np.sort(_joined(list_blocks, "keys"))
    if keys.size and (keys[0] < 0 or keys[-1] >= converted.sizes.size or (keys[1:] == keys[:-1]).any()):
        return None
    return converted, list_blocks, blocks.get("sigma") or [_sigma_block([])]


def _blocks(cursor: _Cursor, name: str) -> list[_ListBlock] | list[_SigmaBlock]:
    """The members of the `lists` object or the items of the `sigma`
    array (`name`) just opened, converted a block at a time."""
    close, convert = ("}", _list_block) if name == "lists" else ("]", lambda _keys, items: _sigma_block(items))
    blocks, keys, values = [], [], []
    for key in cursor.members(close):
        keys.append(key)
        values.append(cursor.value())
        if len(values) == _BLOCK_ROWS:
            blocks.append(convert(keys, values))
            keys.clear()
            values.clear()
    blocks.append(convert(keys, values))
    return blocks


def load_instance(path: str | Path) -> Instance:
    """Read, decode and convert the instance at `path`.

    The file is read through one text stream, decoded as
    `Path.read_text(encoding="utf-8")` decodes it, a window of the text at
    a time, and decoded a block of `lists` members or `sigma` items at a
    time (`_streamed_columns`), each block converted and its Python
    objects freed before the next is decoded.  So the load holds a window
    of the text and one block, not the text of the whole file nor a
    Python object per entry.  The converters are those of
    `instance_from_dict`, so both read the same values to the same
    tables.  Text that the walker does not take (see `_streamed_columns`),
    and a file that cannot be opened, are read again whole, decoded by
    `json.loads` and converted by `instance_from_dict`, which raise the
    InstanceError that names the fault.

    The whole load runs with the cyclic garbage collector paused.
    Decoded JSON holds only dicts, lists, strings and numbers, which form
    no reference cycles, so the passes that its many containers (one list
    per map entry) would trigger free nothing; every one of them is freed
    by reference counting before the collector resumes.  The pause is
    process-wide: no thread collects automatically until this one load
    has returned.
    """
    with _collector_paused():
        try:
            with Path(path).open(encoding="utf-8") as file:
                columns = _streamed_columns(file)
        except OSError:
            columns = None
        if columns is None:
            data = _read_json(path, "instance")
            inst = instance_from_dict(data)
            del data
        else:
            inst = _assemble(*columns)
    return inst


def colouring_to_dict(colouring: PartialColouring | Mapping[int, int], complete: bool) -> dict:
    colours = colouring.colours if isinstance(colouring, PartialColouring) else colouring
    return {"complete": bool(complete), "colours": {str(e): int(c) for e, c in sorted(colours.items())}}


def dump_colouring(colouring, complete: bool, path: str | Path) -> None:
    """Write the colouring format: the text of
    `json.dumps(colouring_to_dict(colouring, complete), indent=2, sort_keys=True)`."""
    colours = colouring.colours if isinstance(colouring, PartialColouring) else colouring
    in_key_order = sorted(colours, key=str)
    items = [None] * (2 * len(in_key_order))
    items[::2] = map(str, in_key_order)
    items[1::2] = [int(colours[e]) for e in in_key_order]
    _write(path, [
        ("colours", _block(['"%s": %s'] * len(in_key_order), _PAD, "{}") % tuple(items)),
        ("complete", "true" if complete else "false"),
    ])


def dump_finish_log(log: ResampleLog, path: str | Path) -> None:
    """Write the finisher's log: the text of
    `json.dumps(log.to_dict(), indent=2, sort_keys=True)`."""
    _write(path, [
        ("iterations", str(log.iterations)),
        ("outcome", json.dumps(log.outcome)),
        ("resampled", _int_rows(list(chain.from_iterable(log.resampled)), list(map(len, log.resampled)), _PAD)),
    ])


def _edge_id(key: str) -> int:
    """The edge id that an object key names.  Only the plain decimal text
    of an int is one ("2", "-1"): "02", " 2", "+2" or "2.0" would alias
    another key's edge."""
    e = int(key)
    if str(e) != key:
        raise ValueError(f"edge id {key!r} is not written as a plain integer")
    return e


def load_colouring(path: str | Path) -> tuple[PartialColouring, bool]:
    """The colouring at `path` and its `complete` flag.  Edge ids are
    read as `_edge_id` reads them and colours as the instance's list
    colours are (`_int64`): an int64, never a string; any other value
    raises InstanceError."""
    data = _read_json(path, "colouring")
    try:
        colours = data["colours"]
        edges = list(map(_edge_id, colours))
        values = _int64(colours.values, len(edges)).tolist()
        complete = bool(data.get("complete", False))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:  # InstanceError is a ValueError
        raise InstanceError(f"cannot read colouring {path}: {exc}") from exc
    return PartialColouring(dict(zip(edges, values))), complete


def load_vector(path: str | Path) -> dict[int, float]:
    """The fractional edge vector at `path`: a JSON object that maps edge
    ids (as `_edge_id` reads them) to JSON numbers.  Any other key or
    value (a bool, a string) raises InstanceError."""
    data = _read_json(path, "vector")
    try:
        vector = {}
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"the value {value!r} of edge {key} is not a number")
            vector[_edge_id(key)] = float(value)
    except (AttributeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"cannot read vector {path}: {exc}") from exc
    return vector
