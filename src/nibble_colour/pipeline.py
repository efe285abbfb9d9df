"""The colouring pipeline as one call: nibble rounds, then the resampling
finisher on the edges left, or the brute-force search; then validation."""

from __future__ import annotations

from dataclasses import dataclass

from .core import PreconditionError, Violation, validate_colouring
from .finisher import ResampleLog, finish, to_link_instance
from .harness import BruteResult, brute_force_colour
from .instance_io import Instance
from .nibble import DriveResult, drive

COLOUR_MODES = ("nibble+finish", "finish-only", "brute")
# The outcome of a brute-force search that ended in each status.
BRUTE_OUTCOMES = {"found": "coloured", "proven-unsatisfiable": "proven-unsatisfiable", "cap-exceeded": "cap-exhausted"}


@dataclass(frozen=True)
class ColourResult:
    colours: dict[int, int]
    complete: bool  # every edge coloured, and no violation
    drive: DriveResult | None  # these three are None when their stage did not run
    resample_log: ResampleLog | None
    brute: BruteResult | None
    violations: list[Violation]
    outcome: str  # 'coloured' | 'proven-unsatisfiable' | 'cap-exhausted' | 'invalid'
    reason: str  # the line that says why a stage did not colour, else ''


def colour_instance(inst: Instance, mode: str = "nibble+finish", *, eps: float | None = None, seed: int = 0,
                    retry_cap: int = 10, iteration_cap: int | None = None, node_cap: int = 1_000_000) -> ColourResult:
    """Colour a valid instance as `colour --mode` does: an empty list proves
    it unsatisfiable, else "brute" searches within `node_cap` nodes, and
    "nibble+finish" runs `drive` and then `finish` on the link graph of the
    edges left (default cap 100 resamples per edge), as "finish-only" runs
    `finish` alone; any other mode raises PreconditionError.  NibbleFailureError
    and ScheduleCollapseError propagate."""
    if mode not in COLOUR_MODES:
        raise PreconditionError(f"unknown colour mode {mode!r}, expected one of {', '.join(COLOUR_MODES)}")
    colours: dict[int, int] = {}
    driven = log = search = None
    outcome, reason = "coloured", ""
    empty = inst.lists.edges[inst.lists.edge_ptr[1:] == inst.lists.edge_ptr[:-1]]
    if empty.size:
        outcome, reason = "proven-unsatisfiable", f"edge {empty[0]} has an empty list: proven unsatisfiable"
    elif mode == "brute":
        search = brute_force_colour(inst.graph, inst.lists, inst.sigma, node_cap=node_cap)
        colours, outcome = search.colouring or {}, BRUTE_OUTCOMES[search.status]
        reason = {"proven-unsatisfiable": "brute force: proven unsatisfiable",
                  "cap-exhausted": f"brute force: node cap {node_cap} exceeded"}.get(outcome, "")
    else:
        lists_left = inst.lists
        if mode == "nibble+finish":
            driven = drive(inst.graph, inst.lists, inst.sigma, eps=eps, seed=seed, retry_cap=retry_cap)
            colours.update(driven.colouring)
            lists_left = driven.lists
        if lists_left.edges.size:
            cap = iteration_cap if iteration_cap is not None else 100 * lists_left.edges.size
            finish_colours, log = finish(to_link_instance(inst.graph, lists_left, inst.sigma), seed=seed, iteration_cap=cap)
            if log.outcome != "success":
                outcome, reason = "cap-exhausted", f"finisher exhausted its iteration cap ({cap})"
            else:
                colours.update(finish_colours)

    violations = validate_colouring(inst.graph, inst.lists, inst.sigma, colours)
    complete = len(colours) == inst.graph.edge_count and not violations
    if violations:  # solver contract: should not happen
        outcome = "invalid"
    elif outcome == "coloured" and not complete:
        outcome = "cap-exhausted"
    return ColourResult(colours, complete, driven, log, search, violations, outcome, reason)
