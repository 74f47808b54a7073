"""Run one blockwalk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload refine-apply-n4000 --seed 42 --seconds 45 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's `src/`, never from an installed copy. One caller drives the
package as a closed loop, each call waiting for the previous one, for
`--seconds` seconds and at least two rounds, so that every output can be
checked to repeat exactly. With `--trace 0` the last line holds the
end-to-end metrics, timed with tracing off; with `--trace 1` it holds the
per-layer metrics, from traced rounds that alternate with untraced ones.
The exit code is non-zero when any output check fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 9
MIN_ROUNDS = 2
END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "propagate_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "neg_ell_per_point": "nats",
}


def _nproc():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_threads(nproc):
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads.
    OpenBLAS is built with MAX_THREADS=64 and would otherwise oversubscribe."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)


def import_package():
    """Import blockwalk and the composition from this checkout only."""
    src = ROOT / "src"
    if not (src / "blockwalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no blockwalk sources under {src}")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import blockwalk
    import pipeline

    if Path(blockwalk.__file__).resolve().parent != (src / "blockwalk").resolve():
        raise SystemExit(f"error: blockwalk imported from {blockwalk.__file__}")
    return pipeline


def machine_record(nproc):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
        llc = int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        llc = None
    return {
        "nproc": nproc,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "llc_bytes": llc,
        "cpu": platform.processor() or platform.machine(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def measure(pl, w, args):
    """Set-up, then rounds until the time is up. Returns the set-up times,
    the rounds, the tracer, ell per point, peak RSS and failed checks."""
    tracer = pl.Tracer(bool(args.trace))
    off = pl.Tracer(False)
    problems = [f"composition: {p}" for p in pl.check_composition(w, args.seed)]

    setups, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cur = pl.make_inputs(w, args.seed, tracer)
        setups.append(time.perf_counter() - t0)
        if inputs is None:
            inputs = cur
        elif not pl.same_inputs(inputs, cur):
            problems.append("set-up: the same seed gave different inputs")

    rounds = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        start = time.perf_counter()
        elapsed = last = 0.0
        # stop before a round that would end more than half a round late
        while len(rounds) < MIN_ROUNDS or elapsed + last / 2 < args.seconds:
            # traced runs alternate untraced and traced rounds, so the two
            # totals see the same machine state
            traced = bool(args.trace) and len(rounds) % 2 == 1
            r, fitted = pl.run_round(w, inputs, workdir, tracer if traced else off)
            rounds.append(r)
            if traced and fitted is not None:
                pl.probe_layers(w, inputs, fitted, tracer)
            del fitted
            last = time.perf_counter() - start - elapsed
            elapsed += last
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    value = pl.ell_per_point(w, inputs, rounds)
    for k, r in enumerate(rounds):
        problems.extend(f"round {k}: {p}" for p in r.problems)
        if r.fingerprint and r.fingerprint != rounds[0].fingerprint:
            diff = sorted(
                key for key in set(r.fingerprint) | set(rounds[0].fingerprint)
                if r.fingerprint.get(key) != rounds[0].fingerprint.get(key)
            )
            problems.append(f"round {k}: outputs differ from round 0 in {diff}")
    return setups, rounds, tracer, value, rss_mb, problems


def summarize(samples):
    """(median, tail, n) of one metric's samples. The tail is the highest
    listed percentile with at least ten samples beyond it (None below 40
    samples)."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            tail = (pct, xs[min(n - 1, math.ceil(n * pct / 100.0) - 1)])
            break
    return median(xs), tail, n


def end_to_end(setups, rounds, value, rss_mb):
    """Metrics of the untraced rounds, and one table row per metric."""
    done = [r for r in rounds if not r.traced and not math.isnan(r.total_s)]
    scored = sum(r.scored for r in rounds)
    samples = {
        "setup_s": setups,
        "build_s": [r.build_s for r in done],
        "propagate_s": [s for r in done for s in r.query_s],
        "total_s": [r.total_s for r in done],
        "peak_rss_mb": [rss_mb],
        "accuracy": [sum(r.hits for r in rounds) / scored] if scored else [],
        "neg_ell_per_point": [-value],
    }
    metrics, table = {}, []
    for name, unit in END_TO_END_UNITS.items():
        if not samples[name]:
            raise RuntimeError(f"no successful sample for {name}")
        mid, tail, n = summarize(samples[name])
        metrics[name] = {"value": mid, "unit": unit}
        table.append((name, mid, unit, n, tail if unit == "s" else None))
    return metrics, table


def per_layer(pl, tracer, rounds):
    """Metrics of the traced rounds: span timings and counts, 0 for layers
    the workload does not run, and one table row per metric."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    metrics, table = {}, []
    for name, unit in pl.PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            xs = [median(r.total_s for r in traced) - median(r.total_s for r in untraced)]
        elif unit == "s":
            xs = tracer.durations(name)
        else:
            xs = [r.counts[name] for r in traced if name in r.counts]
        val = median(xs) if xs else 0
        metrics[name] = {"value": val, "unit": unit}
        table.append((name, val, unit, len(xs), None))
    return metrics, table


def print_table(rows):
    print(f"{'metric':34s} {'median':>16s} {'unit':10s} {'n':>4s}  tail")
    for name, val, unit, n, tail in rows:
        tail_s = f"p{tail[0]:g}={tail[1]:.6g}" if tail else "-"
        print(f"{name:34s} {val:16.10g} {unit:10s} {n:4d}  {tail_s}")


def main(argv=None):
    nproc = _nproc()
    cap_threads(nproc)
    pl = import_package()
    args = parse_args(argv, pl.WORKLOADS)
    w = pl.WORKLOADS[args.workload]
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine_record(nproc), sort_keys=True))

    setups, rounds, tracer, value, rss_mb, problems = measure(pl, w, args)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"rounds {len(rounds)} operations {attempted} failed {failed} "
          f"failed_frac {failed / attempted:.6g}")
    if args.trace:
        metrics, table = per_layer(pl, tracer, rounds)
    else:
        metrics, table = end_to_end(setups, rounds, value, rss_mb)
    print_table(table)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
