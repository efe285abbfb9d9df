"""Mode ablation on the nibble-regular instances: what the nibble buys.

    python3 perfbench/ablation.py

For each of SEEDS, colours the nibble-regular instance three ways:
`nibble+finish` with auto eps (the default path), `finish-only` with auto
eps (it pays for the audit but never uses eps), and `finish-only --eps
0.25`.  Each variant is timed untraced (median wall seconds of REPEATS
calls after one warm-up) and traced once for the audit time and the
resample count.  Prints a markdown table.  Run from the root of a checkout.
"""

from __future__ import annotations

import statistics
import sys

from run import ROOT, SRC, Runner, check_outputs
from tracer import Tracer
from workloads import WORKLOADS, make_instance

VARIANTS = {
    "nibble+finish": ("--mode", "nibble+finish"),
    "finish-only": ("--mode", "finish-only"),
    "finish-only --eps 0.25": ("--mode", "finish-only", "--eps", "0.25"),
}
SEEDS = (1, 2, 3, 4, 5)
REPEATS = 3  # timed calls per variant and seed


def main() -> int:
    sys.path.insert(0, str(SRC))
    from nibble_colour import cli

    workdir = ROOT / ".perfbench_out" / "ablation"
    workdir.mkdir(parents=True, exist_ok=True)
    instance = workdir / "instance.json"
    rows: dict[str, list[dict]] = {name: [] for name in VARIANTS}
    for seed in SEEDS:
        make_instance(cli, WORKLOADS["nibble-regular"], seed, instance)
        for name, colour_args in VARIANTS.items():
            runner = Runner(cli, colour_args, seed, instance, workdir)
            codes = [runner.call()[0]]
            seconds = []
            for _ in range(REPEATS):
                rc, secs, _ = runner.call()
                codes.append(rc)
                seconds.append(secs)
            tracer = Tracer()
            codes.append(runner.call(tracer, "traced")[0])
            layers, problems = tracer.layer_metrics("traced")
            problems += [f"not found in the program: {what}" for what in tracer.missing]
            ok, found = check_outputs(runner, instance, codes)
            if found + problems + runner.trace_problems:
                print("\n".join(found + problems + runner.trace_problems), file=sys.stderr)
                return 1
            rows[name].append({
                "seed": seed, "colour_s": statistics.median(seconds), "ok": all(ok),
                "audit_s": layers["harness.audit_s"], "nibble_edges": layers["nibble.edges_coloured"],
                "resamples": layers["finisher.resamples"],
            })
            print(f"seed {seed} {name}: {rows[name][-1]}", file=sys.stderr)

    print("| mode | colour_s median | audit_s median | nibble edges (mean) | resamples (mean) | coloured |")
    print("|---|---|---|---|---|---|")
    for name, rs in rows.items():
        print(
            f"| `{name}` | {statistics.median(r['colour_s'] for r in rs):.3f} | "
            f"{statistics.median(r['audit_s'] for r in rs):.3f} | "
            f"{statistics.mean(r['nibble_edges'] for r in rs):.1f} | "
            f"{statistics.mean(r['resamples'] for r in rs):.1f} | {sum(r['ok'] for r in rs)}/{len(rs)} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
