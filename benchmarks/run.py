"""choimetric benchmark.

    python3 benchmarks/run.py --workload chaining|stability|small-suites
        [--seed 2026] [--seconds 15] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
Every workload runs in fresh interpreters (``worker.py``), so the memory
peak, warm caches and BLAS state of one workload never reach the next, and
BLAS is pinned to one thread before numpy loads.

Times with a bound are in reference seconds (see ``speed.py``): the measured
time scaled by how fast a fixed numpy kernel ran alongside it, because the
cores of a shared VM can change speed by up to 60% within seconds.  The raw
measured times are printed next to them.

With ``--trace 0`` it reports the end-to-end metrics:
- setup_s: interpreter start to the first timed pass (imports, the
  contexts the workload reuses, a warm-up pass), the median of
  SETUP_SAMPLES fresh interpreters;
- wall_s: median wall time of one pass of the workload's fixed size;
- solve_ms_p50, solve_ms_p90: latency of each call to delta_distance,
  mk_between or wasserstein_dual over all passes;
- peak_rss_mb: peak resident memory of the measuring interpreter.
With ``--trace 1`` it reports the per-layer metrics of the set-up and two
traced passes, with trace.overhead_frac, the traced pass times over the
same passes untraced, minus one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation is one criterion
record; `failed` counts the records that fail their check (including a
non-optimal solve) or miss the stored reference values at seed 2026.  The
exit code is 1 when a value is out of tolerance or misses its reference,
2 when the benchmark cannot run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PACKAGE_DIR = HERE.parent / "src" / "choimetric"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def run_worker(mode, args, deadline):
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left for the {mode} interpreter")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} interpreter ran past the deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"{mode} interpreter exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _listing(values):
    return ", ".join(f"{v:.3f}" for v in values)


def end_to_end(args, deadline):
    runs = [run_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    out = run_worker("measure", args, deadline)
    runs.append(out)
    setups = [r["setup_s"] for r in runs]
    solves, raw_solves = out["solve_ms"], out["solve_raw_ms"]
    p90 = percentile(solves, 90)
    above = sum(1 for x in solves if x > p90)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh interpreters: {_listing(setups)}; "
                    f"raw {_listing(r['setup_raw_s'] for r in runs)}"),
        "wall_s": (statistics.median(out["pass_s"]), "s",
                   f"median of {len(out['pass_s'])} passes of {WORKLOADS[args.workload].unit}: "
                   f"{_listing(out['pass_s'])}; raw {_listing(out['pass_raw_s'])}"),
        "solve_ms_p50": (percentile(solves, 50), "ms",
                         f"{len(solves)} solves; raw {percentile(raw_solves, 50):.3f}"),
        "solve_ms_p90": (p90, "ms", f"{len(solves)} solves, {above} above p90; "
                         f"raw {percentile(raw_solves, 90):.3f}"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB", "measuring interpreter"),
    }
    probe = out["speed_probe_s"]
    notes = {"solve statuses": out["solve_status"],
             "context build s": [[c[0], c[1], c[2], round(c[3], 4)] for c in out["contexts"]],
             "speed probe s (min, median, max)": [round(min(probe), 5),
                                                  round(statistics.median(probe), 5),
                                                  round(max(probe), 5)]}
    return out, metrics, notes


def per_layer(args, deadline):
    out = run_worker("trace", args, deadline)
    untraced, traced = out["pass_s"]
    metrics = {name: (value, unit, f"set-up and {len(traced)} traced passes")
               for name, (value, unit) in out["layers"].items()}
    metrics["trace.overhead_frac"] = (
        out["overhead_frac"], "ratio",
        "passes " + ", ".join(f"{s:.3f}" for s in traced) + " s traced, "
        + ", ".join(f"{s:.3f}" for s in untraced) + " s untraced")
    notes = {"traced and untraced records differ": out["trace_mismatch"]}
    return out, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"choimetric sources not found at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    try:
        out, metrics, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    wrong = out["value_failures"] + out["reference_misses"]
    if args.trace:
        wrong = wrong + out["trace_mismatch"]
    attempted, failed = out["attempted"], len(out["failed"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {how}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} criterion records")
    for record in out["failed"]:
        print(f"  failed: {record}")
    for label, value in notes.items():
        print(f"  {label}: {json.dumps(value)}")
    print(f"  reference values checked: {out['reference_checked']}")
    print("facts " + json.dumps(out["facts"]))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
