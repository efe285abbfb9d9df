"""Command-line interface.

Commands: gen, colour, verify, schedule, polytope, diag, brute.  Every
run is a pure function of (inputs, flags, seed); a JSON manifest echoing
the full parameter set accompanies file outputs so runs can be reproduced
byte-identically (the manifest's duration field excepted).

Every numeric flag's domain is its argparse `type` (`_flag`), and its
`--help` states the rule that type enforces; `main` returns argparse's
exit code (2 for a bad flag, before any file is read) rather than raising
SystemExit.  Without `--eps`, `drive` derives eps.

Exit codes: 0 success, 1 verification failure (or proven-unsatisfiable),
2 input error, 3 cap or regime failure, 4 resource limit.  The exceptions
that commands raise reach one table in `main`, which turns each into its
stderr line and exit code (a MemoryError into `resource limit:`, 4).
An output path whose directory does not exist is an input error, found
before any work; a write that fails later exits 4 when the disk or quota
is full, else 2.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable

from . import __version__
from .core import EdgeCorrespondence, InstanceError, first_violations, validate_instance
from .harness import (
    GenerationError,
    GeneratorSpec,
    brute_force_colour,
    build_local_lists,
    expectation_diagnostic,
    generate,
    list_sizes,
    neighbourhood_audit,
)
from .instance_io import (
    Instance,
    dump_colouring,
    dump_finish_log,
    dump_instance,
    load_colouring,
    load_instance,
    load_vector,
)
from .nibble import (
    E_SQUARED,
    SCHEDULE_MODES,
    NibbleFailureError,
    ParameterDomainError,
    NibbleParams,
    ScheduleCollapseError,
    simulate_schedule,
)
from .pipeline import BRUTE_OUTCOMES, COLOUR_MODES, colour_instance
from .polytope import edmonds_membership

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_RESOURCE = 4

THREADS_ENV = "NIBBLE_COLOUR_THREADS"


def _threads_default() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _flag(name: str, convert: Callable[[str], float], ok: Callable[[float], bool], rule: str) -> Callable[[str], float]:
    """The argparse `type` of `--name`: the text read by `convert`, when
    `ok` holds of the value.  Any other text raises ArgumentTypeError, so
    argparse prints its usage line and `input error: --name must be
    <rule>` and exits 2."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:  # not a number that `convert` reads
            pass
        raise argparse.ArgumentTypeError(f"input error: --{name} must be {rule}, got {text}")

    parse.rule = rule  # the domain that the flag's --help states
    return parse


def _at_least(name: str, low: int) -> Callable[[str], int]:
    return _flag(name, int, lambda value: value >= low, f">= {low}")


# The keys the random streams take, and the nibble's domain (NaN fails too).
_SEED = _flag("seed", int, lambda seed: -(1 << 63) <= seed < 1 << 64, "in [-2^63, 2^64)")
_EPS = _flag("eps", float, lambda eps: 0 < eps <= 0.25, "a finite number in (0, 1/4]")


def _write_manifest(base: str | Path, command: str, params: dict, seed: int | None,
                    inputs: list[str], outputs: list[str], started: float) -> None:
    """Write `<base>.manifest.json`."""
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "parameters": params,
        "seed": seed,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "duration_s": round(time.monotonic() - started, 6),
    }
    Path(f"{base}.manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _output_dirs(*paths: str | None) -> None:
    """Raise FileNotFoundError (exit 2) for an output path, None for no
    output, whose directory does not exist; commands call it before any
    work."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, f"no directory {Path(path).parent} for the output", path)


class _Refused(Exception):
    """An instance that loads but fails validation; args: its first ten violations."""


def _load_valid_instance(path) -> Instance:
    """The instance at `path`; raises InstanceError or, when invalid, _Refused."""
    inst = load_instance(path)
    problems = validate_instance(inst.graph, inst.sigma, inst.lists, inst.universe)
    if problems:
        raise _Refused(*problems[:10])
    return inst


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


_KIND_MAP = {
    "regular": "regular-graph",
    "bipartite": "bipartite",
    "random": "random-graph",
    "linear": "linear-k-uniform",
}


def cmd_gen(args) -> int:
    started = time.monotonic()
    _output_dirs(args.out)
    spec = GeneratorSpec(
        kind=_KIND_MAP[args.kind], n=args.n, seed=args.seed, d=args.d, p=args.p,
        m=args.m, n2=args.n2, k=args.k,
    )
    graph = generate(spec)
    if graph.edge_count == 0:
        raise GenerationError("generated graph has no edges; adjust the parameters")
    universe = args.universe if args.universe is not None else 4 * int(list_sizes(graph, args.eps).max())
    if not 1 <= universe < 1 << 62:
        raise GenerationError(f"the universe must hold 1 to 2^62 - 1 colours, not {universe}")
    mode = "unit-weight" if args.weights == "unit" else "degree-weighted"
    lists = build_local_lists(graph, args.eps, universe, mode=mode, seed=args.seed)
    inst = Instance(graph=graph, lists=lists, sigma=EdgeCorrespondence(), universe=(0, universe - 1))
    problems = validate_instance(inst.graph, inst.sigma, inst.lists, inst.universe)
    if problems:  # generator contract: never happens
        _err(f"internal error: generated instance invalid: {problems[0]}")
        return EXIT_INPUT
    out = Path(args.out)
    dump_instance(inst, out)
    _write_manifest(
        out, "gen",
        {
            "kind": args.kind, "n": args.n, "d": args.d, "p": args.p, "m": args.m,
            "n2": args.n2, "k": args.k, "eps": args.eps, "universe": universe,
            "weights": args.weights, "threads": args.threads,
        },
        args.seed, [], [str(out)], started,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# colour / brute
# ---------------------------------------------------------------------------


# The exit code of each outcome of a colouring or a brute-force search.
EXIT_OF_OUTCOME = {"coloured": EXIT_OK, "proven-unsatisfiable": EXIT_VERIFY, "invalid": EXIT_VERIFY, "cap-exhausted": EXIT_CAP}


def cmd_colour(args) -> int:
    started = time.monotonic()
    _output_dirs(f"{args.out_prefix}.colouring.json")
    inst = _load_valid_instance(args.instance)
    result = colour_instance(inst, args.mode, eps=args.eps, seed=args.seed, retry_cap=args.retry_cap,
                             iteration_cap=args.iteration_cap, node_cap=args.node_cap)
    for line in filter(None, [result.reason, *result.violations[:10]]):
        _err(str(line))

    prefix = Path(args.out_prefix)
    outputs = [f"{prefix}.colouring.json", f"{prefix}.trace.csv"]
    dump_colouring(result.colours, result.complete, outputs[0])
    trace_rows = result.drive.trace if result.drive else []
    Path(outputs[1]).write_text(_csv(
        ["round", "L", "N", "ratio", "edges_coloured", "edges_remaining",
         "retries", "min_list_size", "max_neighbourhood_size"],
        ([r.round, repr(r.L), repr(r.N), repr(r.ratio), r.edges_coloured, r.edges_remaining,
          r.retries, r.min_list_size, r.max_neighbourhood_size] for r in trace_rows),
    ))
    if result.resample_log is not None:
        outputs.append(f"{prefix}.finish.json")
        dump_finish_log(result.resample_log, outputs[2])
    _write_manifest(
        prefix, "colour",
        {"mode": args.mode, "retry_cap": args.retry_cap, "iteration_cap": args.iteration_cap, "eps": args.eps,
         "node_cap": args.node_cap, "threads": args.threads, "instance": str(args.instance)},
        args.seed, [str(args.instance)], outputs, started,
    )
    return EXIT_OF_OUTCOME[result.outcome]


def cmd_brute(args) -> int:
    inst = _load_valid_instance(args.instance)
    result = brute_force_colour(inst.graph, inst.lists, inst.sigma, node_cap=args.node_cap)
    payload = {"status": result.status, "nodes": result.nodes}
    if result.colouring is not None:
        payload["colours"] = {str(e): c for e, c in sorted(result.colouring.items())}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OF_OUTCOME[BRUTE_OUTCOMES[result.status]]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    inst = _load_valid_instance(args.instance)
    colouring, _ = load_colouring(args.colouring)
    violations, total = first_violations(inst.graph, inst.lists, inst.sigma, colouring, 10)
    for v in violations:
        _err(str(v))
    if total:
        _err(f"{total} violations in total")
    if any(not 0 <= e < inst.graph.edge_count for e in colouring.colours):
        return EXIT_INPUT  # an unknown edge
    return EXIT_VERIFY if total else EXIT_OK


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def cmd_schedule(args) -> int:
    started = time.monotonic()
    _output_dirs(args.out)
    rows = simulate_schedule(args.eps, args.k, args.delta, mode=args.mode)
    text = _csv(["round", "L", "N", "ratio"], ([r.round, repr(r.L), repr(r.N), repr(r.ratio)] for r in rows))
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        _write_manifest(
            out, "schedule",
            {"eps": args.eps, "k": args.k, "delta": args.delta, "mode": args.mode, "threads": args.threads},
            None, [], [str(out)], started,
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------


def cmd_polytope(args) -> int:
    inst = _load_valid_instance(args.graph)
    x = load_vector(args.vector)
    try:
        verdict = edmonds_membership(inst.graph, x, shrink=args.shrink)
    except ValueError as exc:  # UnsupportedInstanceError included
        _err(f"input error: {exc}")
        return EXIT_INPUT
    print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------


def cmd_diag(args) -> int:
    started = time.monotonic()
    _output_dirs(args.out, args.csv)
    inst = _load_valid_instance(args.instance)
    audit = neighbourhood_audit(inst.graph, inst.lists, inst.sigma)
    L = args.L if args.L is not None else audit.min_list_weight
    N = args.N if args.N is not None else max(audit.max_neighbourhood, 8.0)
    try:
        params = NibbleParams(eps=args.eps, k=inst.graph.k, L=L, N=N)
    except ParameterDomainError as exc:
        _err(f"input error: derived parameters invalid ({exc}); pass --L and --N explicitly")
        return EXIT_INPUT
    report = expectation_diagnostic(
        inst.graph, inst.lists, inst.sigma, params, trials=args.trials, seed=args.seed,
        collect_samples=args.csv is not None,
    )
    if args.csv:
        Path(args.csv).write_text(_csv(
            ["trial", "edge", "surviving_weight"],
            ([t, e, repr(float(w))] for e in sorted(report.samples) for t, w in enumerate(report.samples[e])),
        ))
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    outputs = [path for path in (args.out, args.csv) if path]
    if outputs:  # beside --out, else beside --csv
        _write_manifest(
            outputs[0], "diag",
            {"trials": args.trials, "eps": args.eps, "L": L, "N": N, "threads": args.threads,
             "instance": str(args.instance), **({"csv": args.csv} if args.csv else {})},
            args.seed, [str(args.instance)], outputs, started,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nibble-colour",
        description="List and correspondence edge colouring of linear uniform "
        "hypergraphs via an iterated nibble and a resampling finisher.",
        epilog="Exit codes: 0 success, 1 verification failure or proven unsatisfiable, 2 input error, "
        "3 cap or regime failure, 4 resource limit (a command that runs out of memory prints one "
        "'resource limit:' line).",
    )
    # Each help states the domain of its `_flag` type as that type's own rule.
    threads = _at_least("threads", 1)
    threads_help = f"worker bound, {threads.rule} (default ${THREADS_ENV} or 1); outputs do not depend on it"
    parser.add_argument("--threads", type=threads, default=None, help=threads_help)
    sub = parser.add_subparsers(dest="command", required=True)
    seed_help = f"{_SEED.rule} (default %(default)s)"
    node_cap = _at_least("node-cap", 0)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", choices=["regular", "bipartite", "random", "linear"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--p", type=(flag := _flag("p", float, lambda p: 0 <= p <= 1, "in [0, 1]")), default=None,
                   help=f"edge probability, {flag.rule}")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", type=(flag := _flag("eps", float, lambda eps: -1 < eps < math.inf, "a finite number above -1")),
                   default=0.5, help=f"lists of ceil((1+eps) maxdeg(e)) colours; {flag.rule} (default %(default)s)")
    p.add_argument("--universe", type=int, default=None,
                   help="colours 0..universe-1 (default 4 times the longest list)")
    p.add_argument("--weights", choices=["unit", "degree"], default="unit")
    p.add_argument("--seed", type=_SEED, default=0, help=seed_help)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("colour", help="colour an instance")
    p.add_argument("instance")
    p.add_argument("--mode", choices=COLOUR_MODES, default="nibble+finish")
    p.add_argument("--seed", type=_SEED, default=0, help=seed_help)
    p.add_argument("--retry-cap", type=(flag := _at_least("retry-cap", 0)), default=10,
                   help=f"retries of a failed nibble round, {flag.rule} (default %(default)s)")
    p.add_argument("--iteration-cap", type=(flag := _at_least("iteration-cap", 0)), default=None,
                   help=f"finisher resamples, {flag.rule} (default 100 times the edges left)")
    p.add_argument("--node-cap", type=node_cap, default=1_000_000,
                   help=f"search nodes of --mode brute, {node_cap.rule} (default %(default)s)")
    p.add_argument("--eps", type=_EPS, default=None,
                   help=f"the nibble's eps, {_EPS.rule} (default: derived from the instance by drive)")
    p.add_argument("--out-prefix", default="colour-run")
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("verify", help="check a colouring file against an instance")
    p.add_argument("instance")
    p.add_argument("colouring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schedule", help="simulate the parameter recursion")
    p.add_argument("--eps", type=_EPS, required=True, help=f"the nibble's eps, {_EPS.rule}")
    p.add_argument("--k", type=(flag := _at_least("k", 1)), required=True,
                   help=f"the edge size, {flag.rule}; 3ek and the iteration cap 100 k ln(delta) / eps must be finite floats")
    p.add_argument("--delta", type=(flag := _flag("delta", float, lambda delta: E_SQUARED < delta < math.inf, "a finite number above e^2")),
                   required=True, help=f"the starting N, {flag.rule}")
    p.add_argument("--mode", choices=SCHEDULE_MODES, default="eps8")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser(
        "polytope", help="matching-polytope membership of a fractional vector",
        description="Print whether the vector lies in the matching polytope, as JSON "
        "{inside, witness}. The witness is the first negative entry in edge order, "
        "else the first vertex of load above 1 in vertex order, else a most-violated "
        "odd vertex set; its slack is rhs - lhs, negative when violated. Every graph "
        "size is checked: odd sets are separated in polynomial time.",
    )
    p.add_argument("graph", help="an instance file with k = 2")
    p.add_argument("vector", help="a JSON object that maps every edge id, and nothing else, "
                   "to a finite JSON number; an id is written as a plain integer (\"2\", not \"02\")")
    p.add_argument("--shrink", type=(flag := _flag("shrink", float, lambda shrink: 0 <= shrink < 1, "in [0, 1)")), default=0.0,
                   help=f"test vector/(1-shrink), for shrink {flag.rule} (default %(default)s)")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("diag", help="expectation diagnostics for the colouring procedure")
    p.add_argument("instance")
    p.add_argument("--trials", type=(flag := _at_least("trials", 1)), required=True, help=flag.rule)
    p.add_argument("--seed", type=_SEED, default=0, help=seed_help)
    p.add_argument("--eps", type=_EPS, default=0.25, help=f"{_EPS.rule} (default %(default)s)")
    for name, default in (("L", "the smallest list weight"), ("N", "the largest neighbourhood weight, at least 8")):
        flag = _flag(name, float, math.isfinite, "a finite number")
        p.add_argument(f"--{name}", type=flag, default=None, help=f"{flag.rule} (default: {default})")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="also write raw per-trial weights")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("brute", help="exhaustive backtracking oracle")
    p.add_argument("instance")
    p.add_argument("--node-cap", type=node_cap, default=1_000_000,
                   help=f"search nodes, {node_cap.rule} (default %(default)s)")
    p.set_defaults(func=cmd_brute)

    for p in sub.choices.values():  # --threads also after the command; a value given there wins
        p.add_argument("--threads", type=threads, default=argparse.SUPPRESS, help=threads_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a bad argument: argparse has printed why
        return exc.code
    if args.threads is None:
        args.threads = _threads_default()
    try:
        return args.func(args)
    except _Refused as exc:
        _err("\n".join(map(str, exc.args)))
        return EXIT_INPUT
    except (InstanceError, ParameterDomainError) as exc:
        _err(f"input error: {exc}")
        return EXIT_INPUT
    except GenerationError as exc:
        _err(f"generation error: {exc}")
        return EXIT_INPUT
    except NibbleFailureError as exc:
        _err(f"nibble failure: {exc}; diagnostics: {exc.diagnostics}")
        return EXIT_CAP
    except ScheduleCollapseError as exc:
        _err(f"schedule collapse at round {exc.round_index}: {exc}")
        return EXIT_CAP
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        exc.__traceback__ = None  # frees the command's frames, whose memory printing may need
        _err(f"resource limit: {exc}")
        return EXIT_RESOURCE
    except OSError as exc:  # an output that cannot be written
        if exc.errno in (errno.ENOSPC, errno.EDQUOT):
            _err(f"resource limit: {exc}")
            return EXIT_RESOURCE
        _err(f"input error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
