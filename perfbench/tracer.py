"""Span tracing for the benchmark's traced run.

The tracer wraps the program's functions on the `colour` path from the
outside: each wrapper records a span (name, start, end, parent, call id)
and, for a few functions, counts read from the returned value.  Spans are
kept in memory and written out when the run ends.  `install` rebinds every
module global of the package that refers to a wrapped function, so calls
through `from .x import f` bindings are seen too; `uninstall` puts the
original objects back and then searches the package for any wrapper left.
"""

from __future__ import annotations

import csv
import functools
import importlib
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "nibble_colour"
ROOT_SPAN = "cli.colour"

# (span name, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("instance_io.load", "instance_io", "load_instance"),
    ("instance_io.dump", "instance_io", "dump_colouring"),
    ("core.validate_instance", "core", "validate_instance"),
    ("core.validate_colouring", "core", "validate_colouring"),
    ("harness.audit", "harness", "neighbourhood_audit"),
    ("nibble.drive", "nibble", "drive"),
    ("nibble.round", "nibble", "run_round"),
    ("nibble.structure_build", "nibble", "RoundStructure.build"),
    ("nibble.max_neighbourhood", "nibble", "RoundStructure.max_neighbourhood"),
    ("nibble.equalizing", "nibble", "RoundStructure.equalizing"),
    ("nibble.conflict", "nibble", "apply_procedure"),
    ("nibble.truncation", "nibble", "truncate_edge"),
    ("rng.uniforms", "rng", "uniforms"),
    ("finisher.link_build", "finisher", "to_link_instance"),
    ("finisher.finish", "finisher", "finish"),
    ("finisher.sample", "finisher", "sample_colour"),
)

# Per-layer metric -> span whose self time it sums.
SELF_TIMES = {
    "instance_io.load_s": "instance_io.load",
    "instance_io.dump_s": "instance_io.dump",
    "core.validate_instance_s": "core.validate_instance",
    "core.validate_colouring_s": "core.validate_colouring",
    "harness.audit_s": "harness.audit",
    "nibble.structure_build_s": "nibble.structure_build",
    "nibble.max_neighbourhood_s": "nibble.max_neighbourhood",
    "nibble.equalizing_s": "nibble.equalizing",
    "nibble.conflict_s": "nibble.conflict",
    "nibble.truncation_s": "nibble.truncation",
    "nibble.round_s": "nibble.round",
    "nibble.drive_s": "nibble.drive",
    "rng.uniforms_s": "rng.uniforms",
    "finisher.link_build_s": "finisher.link_build",
    "finisher.finish_s": "finisher.finish",
    "finisher.sample_s": "finisher.sample",
    "cli.colour_self_s": ROOT_SPAN,
}

# Per-layer metric -> span whose calls it counts.
CALL_COUNTS = {
    "harness.audit_calls": "harness.audit",
    "nibble.structure_builds": "nibble.structure_build",
    "nibble.round_attempts": "nibble.round",
    "nibble.truncate_calls": "nibble.truncation",
    "finisher.samples": "finisher.sample",
}

# Per-layer metric -> counter filled from returned values.
RESULT_COUNTS = {
    "nibble.rounds": "rounds",
    "nibble.pairs": "pairs",
    "nibble.conflict_removals": "conflict_removals",
    "nibble.eq_clamped": "eq_clamped",
    "nibble.edges_coloured": "nibble_edges",
    "rng.draws": "draws",
    "finisher.resamples": "resamples",
    "finisher.edges_coloured": "finisher_edges",
}


RATIOS = ("nibble.round_accept_ratio", "finisher.resamples_per_node")

# Filled in by the run from the warm-up call and from the untraced calls.
RUN_METRICS = {"nibble.structure_rss_mb": "MB", "trace.overhead_s": "s"}

UNITS = {
    **{m: "s" for m in SELF_TIMES},
    **{m: "count" for m in (*CALL_COUNTS, *RESULT_COUNTS)},
    **{m: "ratio" for m in RATIOS},
    **RUN_METRICS,
}


def _count_round(counts: Counter, outcome) -> None:
    stats = outcome.stats
    counts["pairs"] += stats.pairs
    counts["conflict_removals"] += stats.conflict_removals
    counts["eq_clamped"] += stats.eq_clamped


def _count_drive(counts: Counter, result) -> None:
    counts["rounds"] += len(result.trace)
    counts["nibble_edges"] += len(result.colouring)


def _count_finish(counts: Counter, result) -> None:
    colours, log = result
    counts["resamples"] += log.iterations
    counts["finisher_edges"] += len(colours)


def _count_draws(counts: Counter, result) -> None:
    counts["draws"] += int(np.size(result))


HOOKS = {
    "nibble.round": _count_round,
    "nibble.drive": _count_drive,
    "finisher.finish": _count_finish,
    "rng.uniforms": _count_draws,
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def leftover_wrappers() -> list[str]:
    """Module globals and class attributes of the package that still hold a
    tracer wrapper (a function carrying `perfbench_span`), wherever they are."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{modname}.{key}")
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for attr, member in vars(value).items():
                    if hasattr(getattr(member, "__func__", member), "perfbench_span"):
                        found.append(f"{modname}.{key}.{attr}")
    return found


class Tracer:
    """Records spans of one process; not shared between threads."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, call id]
        self.counts: Counter = Counter()
        self.call_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.call_id])
        self._stack.append(len(self.spans) - 1)

    def _exit(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        rss = name == "nibble.structure_build"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _maxrss_kb() if rss else 0
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if rss:
                self.counts["structure_rss_kb"] += _maxrss_kb() - before
            if hook is not None:
                try:
                    hook(self.counts, result)
                except Exception:  # the program changed what it returns
                    self._note_missing(f"counts of {name}")
            return result

        traced.perfbench_span = name
        return traced

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  Targets the program no longer has, and
        returned values the count hooks cannot read, are listed in
        `missing`; the run counts each as a failed check."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module, attr in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    self._note_missing(f"{module}.{attr}")
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self._note_missing(f"{module}.{attr}")
                continue
            wrapped = self._wrap(name, original)
            for modname, m in list(sys.modules.items()):
                if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                    continue
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, original))

    def uninstall(self) -> list[str]:
        """Restore every wrapped callable; returns the places in the package
        where a tracer wrapper is still bound (empty when none is)."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []
        return leftover_wrappers()

    def classmethods_kept(self) -> bool:
        """While installed: wrapped classmethods are still classmethods."""
        return all(
            isinstance(vars(owner)[key], classmethod)
            for owner, key, original in self._undo
            if isinstance(original, classmethod)
        )

    # -- analysis ------------------------------------------------------------

    def self_times(self, call_id: str) -> tuple[dict[int, float], list[str]]:
        """Self time of every span of one call: its duration minus the part
        of it that its children cover.  Also returns the problems found:
        a negative self time, or children and self time that do not add up
        to the span's duration (children overlapping or leaving it)."""
        index = {i: s for i, s in enumerate(self.spans) if s[4] == call_id}
        children: dict[int, list[int]] = {i: [] for i in index}
        for i, s in index.items():
            if s[3] in children:
                children[s[3]].append(i)
        out: dict[int, float] = {}
        problems: list[str] = []
        for i, (name, start, end, _, _) in index.items():
            covered, summed, cursor = 0.0, 0.0, start
            for c in sorted(children[i], key=lambda c: index[c][1]):
                c_start, c_end = max(index[c][1], cursor), min(index[c][2], end)
                covered += max(0.0, c_end - c_start)
                summed += index[c][2] - index[c][1]
                cursor = max(cursor, c_end)
            out[i] = (end - start) - covered
            if out[i] < -1e-9:
                problems.append(f"span {name} has negative self time {out[i]}")
            if abs(summed + out[i] - (end - start)) > 1e-9 * max(1.0, end - start):
                problems.append(f"children and self time of {name} do not add up to its duration")
        return out, problems

    def layer_metrics(self, call_id: str) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of one traced call, read right after it (the
        counts from returned values are those since the call began)."""
        selfs, problems = self.self_times(call_id)
        names = {i: self.spans[i][0] for i in selfs}
        metrics: dict[str, float] = {}
        for metric, span in SELF_TIMES.items():
            metrics[metric] = sum(t for i, t in selfs.items() if names[i] == span)
        for metric, span in CALL_COUNTS.items():
            metrics[metric] = sum(1 for n in names.values() if n == span)
        for metric, key in RESULT_COUNTS.items():
            metrics[metric] = self.counts[key]
        attempts = metrics["nibble.round_attempts"]
        metrics["nibble.round_accept_ratio"] = metrics["nibble.rounds"] / attempts if attempts else 0.0
        nodes = metrics["finisher.edges_coloured"]
        metrics["finisher.resamples_per_node"] = metrics["finisher.resamples"] / nodes if nodes else 0.0
        roots = [i for i in selfs if self.spans[i][3] == -1]
        if [names[i] for i in roots] != [ROOT_SPAN]:
            problems.append(f"call {call_id} has roots {[names[i] for i in roots]}, expected one {ROOT_SPAN}")
        return metrics, problems

    def write(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "call"])
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, call])
