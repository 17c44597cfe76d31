"""Paired benchmark runs of a parent revision and the working tree, written as one BENCH file.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_13.json \\
        --claim "verify_s on ladder_file improves" \\
        --pairs ladder_file=10 --pairs dense_block=4 --pairs small_suite=4

Run from the repository root. The parent revision is exported with
`git archive` into a temporary directory (removed afterwards, and nothing is
registered in .git), and `perfbench/run.py` runs there and in the working
tree, uncommitted changes included. Pair i of a workload runs the parent
first when i is even and the change first when i is odd; COUNT must be
even, so each side runs first equally often. Both sides use seed
`--seed + 100 * w + i`, w being the workload's place on the command line.
Every run lasts BENCHMARK.json's `run_seconds`.

The tool refuses to start while a `__pycache__` directory exists under the
working tree's src/, perfbench/ or tools/, and names each one: with it, the
change side imports without compiling while the fresh parent export
compiles, and `setup_s` favours the change. Remove them and run again, with
PYTHONDONTWRITEBYTECODE=1 set for any tests run in between.

The file holds the claim, the command, the parent, the pairing rule, the
host, a summary per workload and the raw result of every run. Per
end-to-end metric the summary gives each side's quartiles, the ratio of the
medians (change over parent) and the pairs the change won, ties counting
for neither side; which way is better is read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
# the directories whose code a benchmark run imports or compiles
CODE_DIRS = ("src", "perfbench", "tools")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of rev, as committed, into dest."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    finally:
        proc.stdout.close()
        if proc.wait() != 0:
            raise SystemExit(f"bench_pairs: git archive {rev} failed")


def bytecode_caches(tree: Path) -> list:
    """Every __pycache__ directory under tree's CODE_DIRS, sorted."""
    return sorted(path for name in CODE_DIRS for path in (tree / name).rglob("__pycache__") if path.is_dir())


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One perfbench run in tree: (its env line as a dict, its result JSON)."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return env, json.loads(lines[-1])


def _quartiles(values: list) -> list:
    if len(values) == 1:
        return [values[0]] * 3
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(runs: list, better: dict) -> dict:
    """Per workload: seeds, per-metric quartiles, median ratio and pairs won, failures.

    runs are the recorded runs; better maps each end-to-end metric to
    "lower" or "higher".
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        ours = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in ours})
        by_seed = {(r["side"], r["seed"]): r["result"] for r in ours}
        metrics = {}
        for name, direction in better.items():
            parent = [by_seed["parent", s]["metrics"][name]["value"] for s in seeds]
            change = [by_seed["change", s]["metrics"][name]["value"] for s in seeds]
            sign = 1 if direction == "lower" else -1
            won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            metrics[name] = {
                "parent_q1_median_q3": _quartiles(parent),
                "change_q1_median_q3": _quartiles(change),
                "change_over_parent_median": round(statistics.median(change) / statistics.median(parent), 4),
                "pairs_won_by_change": f"{won}/{len(seeds)}",
            }
        summary[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "metrics": metrics,
            "failed_of_attempted": {
                side: [sum(r["result"][key] for r in ours if r["side"] == side) for key in ("failed", "attempted")]
                for side in ("parent", "change")
            },
        }
    return summary


def _pair_counts(specs: list) -> dict:
    counts = {}
    for spec in specs:
        name, _, count = spec.partition("=")
        if not count.isdigit() or int(count) < 2 or int(count) % 2:
            raise SystemExit(f"bench_pairs: --pairs takes WORKLOAD=COUNT with an even COUNT >= 2, got {spec!r}")
        counts[name] = int(count)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against, e.g. HEAD")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair of the first workload")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = _pair_counts(args.pairs)
    unknown = set(counts) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    caches = bytecode_caches(ROOT)
    if caches:
        listed = "\n".join(f"  {path.relative_to(ROOT)}" for path in caches)
        raise SystemExit(f"bench_pairs: remove the bytecode caches in the working tree first:\n{listed}")
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_rev = _git("rev-parse", "--short", args.parent)
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))

    runs, env = [], None
    parent_tree = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        export_revision(parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for w, (workload, count) in enumerate(counts.items()):
            for i in range(count):
                seed = args.seed + 100 * w + i
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for order, side in enumerate(sides):
                    env, result = run_once(trees[side], workload, seed, seconds)
                    runs.append({"side": side, "workload": workload, "seed": seed, "order": order, "result": result})
                    print(f"{workload} seed {seed} {side}: failed {result['failed']}", flush=True)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    doc = {
        "claim": args.claim,
        "command": f"python3 {RUN} --workload <w> --seed <s> --seconds {seconds:g}",
        "parent": parent_rev,
        "change": f"working tree on {_git('rev-parse', '--short', 'HEAD')}" + (" with uncommitted changes" if dirty else ""),
        "pairing": "pair i runs parent first when i is even and the change first when i is odd; "
                   "both sides use the same seed",
        "host": f"{env['nproc']}-core {env['cpu_model']}, Python {env['python']}, numpy {env['numpy']}; "
                "BLAS pinned to one thread by perfbench; end-to-end times are scaled by perfbench's calibration loop",
        "summary": summarize(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
