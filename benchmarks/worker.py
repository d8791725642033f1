"""One workload in a fresh interpreter; started by run.py.

    python3 benchmarks/worker.py --mode setup|measure|trace --workload NAME
        --seed N --seconds S --t0 T

`--t0` is the parent's CLOCK_MONOTONIC reading just before it started this
interpreter, so set-up time counts interpreter start and imports.  The
result is one JSON object on the last line of standard output.

Modes:
- setup: import, build the workload's contexts, run the warm-up, report;
- measure: the same set-up, then whole passes until `--seconds` have passed
  (at least MIN_PASSES), timing the solve entry points only;
- trace: the same set-up with every layer traced, then TRACE_ROUNDS rounds
  of one pass untraced and the same pass traced, for per-layer metrics and
  the tracing overhead.

Times are reported raw and in reference seconds, scaled by the speed probe
of speed.py, which runs before and after every pass and between solves.
"""

import os

# One BLAS thread, set before numpy loads: with the default threading a
# small-block solve is several times slower and its time spreads about 20%
# between identical runs on a two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["CHOIMETRIC_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import choimetric  # noqa: E402
from choimetric import experiments, metrics  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import SolveTimer, Tracer, layer_metrics  # noqa: E402

MIN_PASSES = 2
TRACE_ROUNDS = 2               # alternating untraced and traced passes


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_facts():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def set_up(workload, seed):
    """Build the contexts and warm up; returns per-context build times."""
    build_s = []
    for name, args, kwargs in workload.contexts:
        t0 = time.perf_counter()
        getattr(experiments, name)(*args, **kwargs)
        build_s.append([name, list(args), kwargs, time.perf_counter() - t0])
    workload.warmup(experiments, seed)
    return build_s


def run_pass(workload, seed, probe):
    """One pass, with its time in reference seconds from probes on either side."""
    probe.measure()
    t0 = time.perf_counter()
    records = workload.run_pass(experiments, seed)
    t1 = time.perf_counter()
    probe.measure()
    return records, (t1 - t0) * probe.factor(t0, t1)


def check(records_by_pass, name, seed):
    """Failed operations over all passes, and what makes them wrong."""
    failed, value_failures, misses = [], [], []
    checked = seed == workloads.DEFAULT_SEED
    for k, records in enumerate(records_by_pass):
        bad = {i for i, r in enumerate(records) if not r.ok}
        if k == 0 and checked:
            rows = workloads.load_references().get(name, [])
            pass_misses = workloads.reference_misses(records, rows)
            misses += [workloads.record_tuple(records[i]) for i in pass_misses]
            bad |= set(pass_misses)
        failed += [workloads.record_tuple(records[i]) for i in sorted(bad)]
        value_failures += [workloads.record_tuple(r) for r in records
                           if workloads.value_failure(r)]
    return {
        "attempted": sum(len(rs) for rs in records_by_pass),
        "failed": failed,
        "value_failures": value_failures,
        "reference_checked": checked,
        "reference_misses": misses,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    out = {"facts": machine_facts()}

    probe = SpeedProbe()
    probe.measure()
    tracer = None
    if args.mode == "trace":
        tracer = Tracer(choimetric)
        tracer.patch.apply()
    workloads.ContextCache(experiments).patch.apply()
    out["contexts"] = set_up(workload, args.seed)
    out["setup_raw_s"] = monotonic() - args.t0 - probe.spent(0.0, time.perf_counter())
    probe.measure()
    out["setup_s"] = out["setup_raw_s"] * probe.factor(0.0, time.perf_counter())

    if args.mode == "measure":
        timer = SolveTimer(metrics, probe)
        records_by_pass, spans = [], []
        start = time.perf_counter()
        with timer.patch:
            while len(spans) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                probe.measure()
                t0 = time.perf_counter()
                records_by_pass.append(workload.run_pass(experiments, args.seed + len(spans)))
                spans.append((t0, time.perf_counter()))
            probe.measure()
        raw = [t1 - t0 - probe.spent(t0, t1) for t0, t1 in spans]
        out["pass_raw_s"] = raw
        out["pass_s"] = [dt * probe.factor(t0, t1) for dt, (t0, t1) in zip(raw, spans)]
        out["solve_raw_ms"] = [(t1 - t0) * 1000.0 for t0, t1 in timer.spans]
        out["solve_ms"] = [(t1 - t0) * 1000.0 * probe.factor(t0, t1) for t0, t1 in timer.spans]
        out["solve_status"] = dict(timer.statuses)
        out["speed_probe_s"] = [dt for _, dt in probe.samples]
        out.update(check(records_by_pass, args.workload, args.seed))
    elif args.mode == "trace":
        tracer.patch.undo()
        untraced_s, traced_s = [], []
        for _ in range(TRACE_ROUNDS):
            with SolveTimer(metrics).patch:
                untraced, dt = run_pass(workload, args.seed, probe)
                untraced_s.append(dt)
            with tracer.patch:
                traced, dt = run_pass(workload, args.seed, probe)
                traced_s.append(dt)
        out["layers"] = layer_metrics(tracer)
        out["overhead_frac"] = sum(traced_s) / sum(untraced_s) - 1.0
        out["pass_s"] = [untraced_s, traced_s]
        out["trace_mismatch"] = [
            [workloads.record_tuple(a), workloads.record_tuple(b)]
            for a, b in zip(untraced, traced)
            if workloads.record_tuple(a) != workloads.record_tuple(b)]
        if len(untraced) != len(traced):
            out["trace_mismatch"].append(["record count", len(untraced), len(traced)])
        out.update(check([traced], args.workload, args.seed))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, default=_json_default))


def _json_default(x):
    if isinstance(x, numpy.generic):
        return x.item()
    raise TypeError(f"cannot serialise {type(x).__name__}")


if __name__ == "__main__":
    main()
