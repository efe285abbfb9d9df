"""Benchmark of `nibble-colour colour`, run in process through `cli.main`.

    python3 perfbench/run.py --workload nibble-regular --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One run generates the workload's
instance from `--seed` in a child process (so generation sets neither the
timings nor the peak RSS of this process), makes one untimed warm-up
`colour` call, then makes `colour` calls one at a time (a closed loop with
one client) for `--seconds`.  Every call's outputs are hashed, calls on
the same instance must agree byte for byte, and every colouring is checked
against the reloaded instance by a checker that shares no code with the
program.

Call and set-up times are wall seconds (`time.perf_counter`).  The CPU
seconds of each call go to standard error beside them, as a diagnostic.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced calls and prints the per-layer metrics of one traced call
(medians over the traced calls for times; counts must repeat exactly).
The spans go to `.perfbench_out/<workload>-seed<seed>-trace/spans.csv`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
SETUP_REPEATS = 3  # set-up runs per run; setup_s is their median

sys.path.insert(0, str(HERE))
from workloads import ARTIFACTS, WORKLOADS, check_colouring, make_instance, pair_count, sha256  # noqa: E402


# ---------------------------------------------------------------------------
# Set-up (runs in a child process)
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, out: Path) -> dict:
    """Generate the instance SETUP_REPEATS times; every repeat must write
    the same bytes.  Returns the seconds of each repeat and the digest."""
    from nibble_colour import cli

    seconds, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        make_instance(cli, WORKLOADS[workload], seed, out)
        seconds.append(time.perf_counter() - t0)
        digests.add(sha256(out))
    if len(digests) != 1:
        raise RuntimeError("instance generation is not deterministic")
    return {"seconds": seconds, "sha256": digests.pop()}


def run_setup(workload: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(out),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Colour calls
# ---------------------------------------------------------------------------


class Runner:
    """Makes `colour` calls on one instance and keeps what they produced."""

    def __init__(self, cli, colour_args: tuple[str, ...], seed: int, instance: Path, workdir: Path):
        self.cli = cli
        self.argv = ["colour", str(instance), *colour_args,
                     "--seed", str(seed), "--out-prefix", str(workdir / "out")]
        self.outputs = [workdir / f"out.{a}" for a in ARTIFACTS]
        self.digests: list[tuple[str | None, ...]] = []  # per call, in ARTIFACTS order
        self.colourings: dict[str, bytes] = {}  # colouring digest -> file bytes
        self.trace_problems: list[str] = []

    def call(self, tracer=None, label: str = "") -> tuple[int, float, float]:
        """One `colour` call; returns (exit code, wall seconds, CPU seconds).
        Hashing and clean-up happen outside the timed region."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        gc.collect()  # start every call from a heap without the last call's garbage
        if tracer is not None:
            tracer.call_id = label
            tracer.counts.clear()
            tracer.install()
            if not tracer.classmethods_kept():
                self.trace_problems.append("a wrapped classmethod is no longer a classmethod")
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                with tracer.span("cli.colour"):
                    rc = self.cli.main(self.argv)
            else:
                rc = self.cli.main(self.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed call
            traceback.print_exc()
            rc = -1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            self.trace_problems += [f"not restored after tracing: {b}" for b in tracer.uninstall()]
        digests = tuple(sha256(p) for p in self.outputs)
        self.digests.append(digests)
        if rc == 0 and digests[0] is not None and digests[0] not in self.colourings:
            self.colourings[digests[0]] = self.outputs[0].read_bytes()
        return rc, wall, cpu


def check_outputs(runner: Runner, instance: Path, codes: list[int]) -> tuple[list[bool], list[str]]:
    """Per call: exit 0 and a valid colouring.  Also the problems that make
    the run incorrect: calls that disagree, or an exit-0 call whose
    colouring is invalid."""
    problems = []
    if len(set(runner.digests)) > 1:
        problems.append(f"calls on one instance produced different outputs: {sorted(set(runner.digests), key=str)}")
    raw = json.loads(instance.read_text())
    valid = {}
    for digest, data in runner.colourings.items():
        found = check_colouring(raw, json.loads(data))
        valid[digest] = not found
        problems += [f"invalid colouring: {p}" for p in found[:10]]
    ok = [rc == 0 and valid.get(d[0], False) for rc, d in zip(codes, runner.digests)]
    return ok, problems


def golden_mismatches(workload: str, seed: int, digests: dict[str, str | None]) -> list[str]:
    """Artifacts whose digest differs from the one committed for this
    workload and seed.  A mismatch marks a behaviour change."""
    golden = json.loads(GOLDENS.read_text()).get(workload, {}).get(str(seed))
    if golden is None:
        return []
    return [name for name in sorted(golden) if golden[name] != digests.get(name)]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, update_goldens: bool) -> dict:
    workdir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}{'-trace' if trace else ''}"
    workdir.mkdir(parents=True, exist_ok=True)
    instance = workdir / "instance.json"
    prepared = run_setup(workload, seed, instance)

    from nibble_colour import cli

    runner = Runner(cli, WORKLOADS[workload].colour, seed, instance, workdir)
    tracer = None
    if trace:
        from tracer import UNITS as tracer_units, Tracer

        tracer = Tracer()
    problems: list[str] = []

    # The warm-up call is traced in a traced run: it is the process's first
    # call, so only there do structure builds raise the peak RSS.
    warmup_rc = runner.call(tracer, "warmup")[0]
    warmup_rss_kb = 0
    if trace:
        warmup_rss_kb = tracer.counts["structure_rss_kb"]
        problems += tracer.layer_metrics("warmup")[1]

    codes, plain_s, plain_cpu, traced_s = [], [], [], []
    layer_runs: list[dict[str, float]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and not traced_s):
        traced = trace and len(plain_s) > len(traced_s)
        if traced:
            label = f"call{len(codes)}"
            rc, secs, cpu = runner.call(tracer, label)
            metrics, found = tracer.layer_metrics(label)
            problems += found
            layer_runs.append(metrics)
            traced_s.append(secs)
        else:
            rc, secs, cpu = runner.call()
            plain_s.append(secs)
            plain_cpu.append(cpu)
        codes.append(rc)
        print(f"call {len(codes)}{' traced' if traced else ''}: exit {rc}, wall {secs:.3f} s, cpu {cpu:.3f} s", file=sys.stderr)
    if plain_cpu:
        print(f"untimed diagnostic: median CPU seconds of an untraced call {statistics.median(plain_cpu):.3f}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok, found = check_outputs(runner, instance, [warmup_rc] + codes)
    ok = ok[1:]  # the warm-up call is not counted
    problems += found + runner.trace_problems
    artifacts = {"instance.json": prepared["sha256"]}
    artifacts.update({a: d for a, d in zip(ARTIFACTS, runner.digests[0])})
    for name in golden_mismatches(workload, seed, artifacts):
        print(f"golden digest mismatch: {workload} seed {seed} {name}")
    if update_goldens and not problems:
        goldens = json.loads(GOLDENS.read_text())
        goldens.setdefault(workload, {})[str(seed)] = artifacts
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")

    if trace:
        metrics = {name: statistics.median([m[name] for m in layer_runs]) for name in layer_runs[0]}
        for name in layer_runs[0]:
            if not name.endswith("_s") and len({m[name] for m in layer_runs}) > 1:
                problems.append(f"count {name} differs between traced calls")
        metrics["nibble.structure_rss_mb"] = warmup_rss_kb / 1024.0
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        tracer.write(workdir / "spans.csv")
        problems += [f"tracing target or returned value not found in the program: {name}" for name in tracer.missing]
        units = tracer_units
    else:
        pairs = pair_count(json.loads(instance.read_text()))
        metrics = {
            "colour_s": statistics.median(plain_s),
            "pairs_per_s": pairs * len(plain_s) / sum(plain_s),
            "coloured_frac": sum(ok) / len(ok),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(prepared["seconds"]),
        }
        units = {"colour_s": "s", "pairs_per_s": "1/s", "coloured_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(codes),
        "failed": len(codes) - sum(ok),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-goldens", action="store_true",
                        help="record this run's artifact digests in goldens.json")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nibble_colour" / "cli.py").is_file():
        print(f"error: no program source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_into is not None:
        print(json.dumps(setup(args.workload, args.seed, args.setup_into)))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.update_goldens)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
