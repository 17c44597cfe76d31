"""Benchmark of the moddiag package: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense_block --seed 1 --seconds 40 --trace 0

Run from the repository root. The package is imported from ./src, so
nothing needs installing. BLAS and OpenMP are pinned to one thread before
numpy is imported.

Workloads (see workloads.py):
  dense_block  one dense 96x96 Hermitian problem file; the CLI's diagonalize
               and verify commands run it; the Jacobi kernel does the work.
  ladder_file  the projection ladder on C^32 as a problem file, same two
               commands; JSON I/O and the verifier's pair loop do the work.
  small_suite  a pool of 100 small operators over the acceptance shapes,
               diagonalized and verified in-process; per-call overhead.

With --trace 0 the run measures whole passes for about --seconds and
prints the end-to-end metrics: medians and the 95th percentile of per-call
wall times, throughput, peak memory, and setup_s, the median of five
set-ups, each a fresh interpreter's import plus generating and writing the
inputs. Every end-to-end time is scaled to a reference host speed by a
calibration loop timed next to it (workloads.calibrate): on a shared host
raw times drift by tens of percent between minutes, the scaled ones do not.

With --trace 1 the run spends half the time untraced and half with spans
recorded around every layer's public functions, and prints the per-layer
metrics: raw times and exact counts per pass (gallery figures per set-up),
and the tracing overhead.
The spans are written to .bench_build/perfbench/. Every operation is
checked; failures are counted in the result line, never fatal. The last
line of output is the result as JSON.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy, moddiag, moddiag.cli; print(time.perf_counter() - start)"
)
WORKLOAD_NAMES = ("dense_block", "ladder_file", "small_suite")


def _import_program():
    """Put ./src first on sys.path and import the package from there."""
    src = ROOT / "src"
    if not (src / "moddiag" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'moddiag'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import moddiag
    import moddiag.cli  # noqa: F401

    if Path(moddiag.__file__).resolve().parent != src / "moddiag":
        raise SystemExit(f"perfbench: imported moddiag from {moddiag.__file__}, not from {src}")


def _import_seconds() -> float:
    """Time a fresh interpreter's import of numpy and the package, as a CLI start pays it."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _setup_seconds(wl) -> float:
    """Median over SETUP_REPS set-ups of: import in a fresh interpreter, then make_inputs.

    Each set-up is scaled to the reference speed by a calibration taken just before it.
    """
    from workloads import CAL_REF_S, calibrate

    times = []
    for _ in range(SETUP_REPS):
        factor = CAL_REF_S / calibrate()
        imported = _import_seconds()
        start = perf_counter()
        wl.make_inputs()
        times.append(factor * (imported + perf_counter() - start))
    return statistics.median(times)


def _p95(times):
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=20, method="inclusive")[-1]


def end_to_end(tally, setup_s) -> dict:
    times = tally.problem_s
    return {
        "setup_s": (setup_s, "s"),
        "diagonalize_s": (statistics.median(tally.diagonalize_s), "s"),
        "verify_s": (statistics.median(tally.verify_s), "s"),
        "problems_per_s": (len(times) / sum(times), "1/s"),
        "problem_p50_ms": (1e3 * statistics.median(times), "ms"),
        "problem_p95_ms": (1e3 * _p95(times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _describe(tally, passes):
    return (
        f"{passes} passes: diagonalize {len(tally.diagonalize_s)} calls, "
        f"verify {len(tally.verify_s)} calls, {len(tally.problem_s)} problems timed; "
        f"failed {tally.failed} of {tally.attempted} operations; "
        f"median calibration {statistics.median(tally.calibrations):.4f} s of {len(tally.calibrations)}"
    )


def main(argv=None, factories=None) -> int:
    """Run one workload; `factories` replaces workloads.WORKLOADS, as tests do to shrink it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from spans import Recorder, layer_metrics
    from workloads import WORKLOADS, run_for

    env = environment()
    print("env " + json.dumps(env))
    factory = (factories or WORKLOADS)[args.workload]
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        wl = factory(args.seed, workdir)
        rec = Recorder()
        if args.trace:
            rec.install()
            try:
                for _ in range(SETUP_REPS):
                    wl.make_inputs()
            finally:
                rec.uninstall()
            in_setup = len(rec.spans)
            wl.prepare_gate()
            plain, plain_passes = run_for(wl, args.seconds / 2, rec, "plain")
            rec.install()
            try:
                traced, passes = run_for(wl, args.seconds / 2, rec, "pass")
            finally:
                rec.uninstall()
            overhead = (sum(traced.problem_s) / passes) / (sum(plain.problem_s) / plain_passes)
            metrics = layer_metrics(rec.spans[in_setup:], passes, rec.spans[:in_setup], SETUP_REPS, overhead)
            rec.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl", {"env": env, **vars(args)})
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            print("untraced " + _describe(plain, plain_passes))
            print("traced " + _describe(traced, passes))
        else:
            setup_s = _setup_seconds(wl)
            wl.prepare_gate()
            tally, passes = run_for(wl, args.seconds, rec, "pass")
            metrics = end_to_end(tally, setup_s)
            attempted, failed = tally.attempted, tally.failed
            print(_describe(tally, passes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
