"""Byte-for-byte comparison of the command-line output of a parent revision and the working tree.

    python3 tools/cli_diff.py --parent HEAD

Run from the repository root. The parent revision is exported with
`bench_pairs.export_revision` into a temporary directory, removed
afterwards. A fixed set of problem files (seeded, but for one of
hand-picked numbers) is written once with the working tree's package; one
has its keys in reverse order, so the readers' tree path reads it; one
holds a string where a number belongs and one a row with an algebra
element missing, so every command on them exits 2 with the tree path's
located input error, of a leaf and of a list level. Both
trees run the same commands on the files: `diagonalize`, `verify` (of the
solution that tree's `diagonalize` wrote) and `spectrum` on every file,
then `example8`, `prop4 --n 3` and `prop4 --n 8`. Each tree runs in its
own directory and the commands name their files by relative paths, so an
error message reads the same in both. BLAS is pinned to one thread.

Every difference in exit code, stdout, stderr or a written file is
printed. The exit code is 1 when there is any, 0 otherwise.

    python3 tools/cli_diff.py --parent HEAD --spectral

compares what a change of eigensolver may not change, for a change that
moves eigenvalues by round-off and may pick another basis of a
degenerate window. Exit codes, stderr and the verdicts stay exact: the
diagonalize and verify output with every figure (a number in exponent
form, a "(worst ...)" note) left out, and every field of a report but
its residuals, worst pairs and moment figure. Each line of `spectrum`
must list the same count of values, each within SPECTRAL_TOL of the
largest modulus on its line: the command prints 10 significant digits,
so one unit of the last one is up to 1e-9 of a value. A solution must
have the same labels and certificate; per algebra block its values must
agree within SPECTRAL_TOL of the block's largest, its supports within
PROJECTOR_TOL, and each pair's projector ``V* V`` onto its window of k
ranks within PROJECTOR_TOL entrywise. That holds for any basis of a
window whose values stand apart from the next window's; a tie across two
windows may be split between them another valid way and is reported, so
the check errs towards a false difference. Any other written file stays
byte for byte.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_revision  # noqa: E402

# name: (block sizes, module rank, seed); "ladder" is projection_ladder(32),
# "normal" a normal, not self-adjoint, operator, "edges" the operator of
# EDGE_BLOCKS, "reversed" a file whose keys come in reverse order,
# "malformed" a file with a string where a number belongs deep in its grid
# and "short-row" one whose row 1 has an algebra element fewer
PROBLEMS = {
    "ladder32": ((1,) * 32, 32, None),
    "dense-8-r12": ((8,), 12, 1),
    "s2-r3": ((2,), 3, 2),
    "s2x3-r2": ((2, 3), 2, 3),
    "s1x1x1x1-r3": ((1, 1, 1, 1), 3, 4),
    "s2x1x3-r1": ((2, 1, 3), 1, 5),
    "s2x1x3-r3": ((2, 1, 3), 3, 6),
    "s2x2x1-r2": ((2, 2, 1), 2, 11),
    "normal-s2x1-r2": ((2, 1), 2, 7),
    "edges-s2x1-r2": ((2, 1), 2, None),
    "reversed-s2x3-r3": ((2, 3), 3, 8),
    "malformed-s2x3-r3": ((2, 3), 3, 9),
    "short-row-s2x3-r3": ((2, 3), 3, 10),
}
# A self-adjoint operator of numbers whose text a writer could get wrong:
# signed zeros, subnormals, 2**-1000, integral floats (1e22 is written
# 1e+22) and 2**53. Its largest magnitude, 1e22, is far above 2**-1000.
EDGE_BLOCKS = [
    [
        [1e22, 5e-324 + 1j, -0.0, 3.0 - 2.0j],
        [5e-324 - 1j, complex(-1.0, -0.0), 1e16, 2.0**-1000],
        [-0.0, 1e16, 0.5, 1e-310j],
        [3.0 + 2.0j, 2.0**-1000, -1e-310j, -7.0],
    ],
    [[1.5e-323, complex(-0.0, 2.0**53)], [complex(-0.0, -(2.0**53)), 1.0]],
]
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SPECTRAL_TOL = 1e-8
PROJECTOR_TOL = 1e-8
# a figure of the diagonalize and verify output, which a change of solver may move
_FIGURE = re.compile(r"[-+]?\d+(?:\.\d*)?e[-+]\d+| \(worst [^)]*\)")
_REPORT_FIGURES = ("residuals", "worst_pairs", "moment_worst")


def write_problems(dest: Path) -> None:
    """Write each of PROBLEMS as dest/<name>.json with the working tree's package."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import moddiag

    for name, (sizes, rank, seed) in PROBLEMS.items():
        if name.startswith("ladder"):
            op = moddiag.projection_ladder(rank).operator
        elif name.startswith("edges"):
            op = moddiag.ModuleOperator(moddiag.HilbertModule(moddiag.AlgebraShape(sizes), rank), EDGE_BLOCKS)
        else:
            rng = np.random.default_rng(seed)
            mats = []
            for k in sizes:
                m = rng.standard_normal((rank * k,) * 2) + 1j * rng.standard_normal((rank * k,) * 2)
                if name.startswith("normal"):
                    q = np.linalg.qr(m)[0]
                    d = np.arange(rank * k) + 1j * rng.standard_normal(rank * k)
                    mats.append(q @ np.diag(d) @ q.conj().T)
                else:
                    mats.append((m + m.conj().T) / 2.0)
            op = moddiag.ModuleOperator(moddiag.HilbertModule(moddiag.AlgebraShape(sizes), rank), mats)
        text = moddiag.serialize_problem(op)
        if name.startswith("reversed"):
            text = json.dumps(dict(reversed(json.loads(text).items()))) + "\n"
        elif name.startswith("malformed"):
            doc = json.loads(text)
            doc["operator"][2][1][1][7][1] = "0.5"  # the imaginary part of pair 7 of block 1 of entry (2, 1)
            text = json.dumps(doc) + "\n"
        elif name.startswith("short-row"):
            doc = json.loads(text)
            del doc["operator"][1][-1]
            text = json.dumps(doc) + "\n"
        (dest / f"{name}.json").write_text(text, encoding="utf-8")


def commands(problems) -> dict:
    """Run name -> the CLI's argv, for a run directory beside ``problems/``."""
    runs = {}
    for name in problems:
        src = f"../problems/{name}.json"
        solution = f"{name}.solution.json"
        runs[f"{name} diagonalize"] = [
            "diagonalize", "--input", src, "--solution", solution, "--out", f"{name}.diagonalize.json"
        ]
        runs[f"{name} verify"] = ["verify", "--input", src, "--solution", solution, "--out", f"{name}.verify.json"]
        runs[f"{name} spectrum"] = ["spectrum", "--input", src]
    runs["example8"] = ["example8", "--out", "example8.json"]
    for n in (3, 8):
        runs[f"prop4 --n {n}"] = ["prop4", "--n", str(n), "--out", f"prop4-{n}.json"]
    return runs


def run_all(tree: Path, rundir: Path, runs: dict) -> tuple:
    """(run name -> (exit code, stdout, stderr), file name -> bytes) of the runs in rundir with tree's package."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src")}
    outcomes = {}
    for name, argv in runs.items():
        proc = subprocess.run(
            [sys.executable, "-m", "moddiag.cli", *argv], cwd=rundir, env=env, capture_output=True, timeout=600
        )
        outcomes[name] = (proc.returncode, proc.stdout, proc.stderr)
    return outcomes, {path.name: path.read_bytes() for path in sorted(rundir.iterdir())}


def _first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first at byte {at} of {len(a)} / {len(b)}: {a[at:at + 40]!r} / {b[at:at + 40]!r}"


def differences(parent: tuple, change: tuple) -> list:
    """One entry per difference between two ``run_all`` results of the same runs; [] when they agree.

    Exit codes are given as ``parent -> change``; a stream as a unified
    diff of its lines, a file by its first differing byte.
    """
    (parent_runs, parent_files), (change_runs, change_files) = parent, change
    found = []
    for name, (code, *streams) in parent_runs.items():
        other_code, *other_streams = change_runs[name]
        if code != other_code:
            found.append(f"{name}: exit code {code} -> {other_code}")
        for stream, a, b in zip(("stdout", "stderr"), streams, other_streams):
            if a != b:
                lines = difflib.unified_diff(
                    a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines(),
                    "parent", "change", lineterm="",
                )
                found.append(f"{name}: {stream} differs\n" + "\n".join(lines))
    for name in sorted(parent_files.keys() | change_files.keys()):
        a, b = parent_files.get(name), change_files.get(name)
        if a is None or b is None:
            found.append(f"file {name}: only in {'change' if a is None else 'parent'}")
        elif a != b:
            found.append(f"file {name}: differs, {_first_difference(a, b)}")
    return found


def _spectrum_difference(a: bytes, b: bytes):
    """Why two ``spectrum`` outputs differ beyond SPECTRAL_TOL, or None."""
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} / {len(lines_b)} lines"
    for line_a, line_b in zip(lines_a, lines_b):
        (head_a, _, list_a), (head_b, _, list_b) = line_a.partition(": "), line_b.partition(": ")
        values_a = [complex(v.replace("i", "j")) for v in list_a.split(", ")]
        values_b = [complex(v.replace("i", "j")) for v in list_b.split(", ")]
        if head_a != head_b or len(values_a) != len(values_b):
            return f"{line_a!r} / {line_b!r}"
        gap = max(abs(x - y) for x, y in zip(values_a, values_b))
        if gap > SPECTRAL_TOL * max(abs(x) for x in values_a):
            return f"{head_a}: values {gap:.3e} apart"
    return None


def _solution_difference(a: bytes, b: bytes):
    """Why two solution files differ beyond the bounds, or None."""
    import numpy as np

    import moddiag

    first, second = (moddiag.parse_solution(text.decode()) for text in (a, b))
    if first.pair_labels != second.pair_labels or first.ordering_certificate != second.ordering_certificate:
        return "labels or certificate differ"
    for block, parts in enumerate(zip(first.vectors, second.vectors, first.values, second.values,
                                      first.supports, second.supports)):
        vectors_a, vectors_b, values_a, values_b, supports_a, supports_b = parts
        if vectors_a.shape != vectors_b.shape:
            return f"block {block}: shapes {vectors_a.shape} / {vectors_b.shape}"
        gap = np.abs(values_a - values_b).max()
        if gap > SPECTRAL_TOL * np.abs(values_a).max():
            return f"block {block}: values {gap:.3e} apart"
        if np.abs(supports_a - supports_b).max() > PROJECTOR_TOL:
            return f"block {block}: supports differ"
        projectors_a = vectors_a.conj().swapaxes(1, 2) @ vectors_a
        projectors_b = vectors_b.conj().swapaxes(1, 2) @ vectors_b
        gap = np.abs(projectors_a - projectors_b).max(axis=(1, 2))
        if gap.max() > PROJECTOR_TOL:
            return f"block {block}: projector of L{first.pair_labels[int(gap.argmax())]} {gap.max():.3e} apart"
    return None


def spectral_differences(parent: tuple, change: tuple) -> list:
    """Like ``differences``, but spectra and solutions within the bounds and verdicts exactly (module docstring)."""
    (parent_runs, parent_files), (change_runs, change_files) = parent, change
    found = []
    for name, (code, out, err) in parent_runs.items():
        other_code, other_out, other_err = change_runs[name]
        if code != other_code:
            found.append(f"{name}: exit code {code} -> {other_code}")
        if err != other_err:
            found.append(f"{name}: stderr differs")
        if name.endswith(" spectrum"):
            why = _spectrum_difference(out, other_out) if out != other_out else None
            if why:
                found.append(f"{name}: spectra differ, {why}")
        elif _FIGURE.sub("#", out.decode()) != _FIGURE.sub("#", other_out.decode()):
            found.append(f"{name}: verdicts differ")
    for name in sorted(parent_files.keys() | change_files.keys()):
        a, b = parent_files.get(name), change_files.get(name)
        if a is None or b is None:
            found.append(f"file {name}: only in {'change' if a is None else 'parent'}")
        elif a == b:
            continue
        elif name.endswith(".solution.json"):
            why = _solution_difference(a, b)
            if why:
                found.append(f"file {name}: {why}")
        elif name.endswith((".diagonalize.json", ".verify.json")):
            verdicts = [{k: v for k, v in json.loads(text).items() if k not in _REPORT_FIGURES} for text in (a, b)]
            if verdicts[0] != verdicts[1]:
                found.append(f"file {name}: verdicts differ")
        else:
            found.append(f"file {name}: differs, {_first_difference(a, b)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against, e.g. HEAD")
    parser.add_argument(
        "--spectral", action="store_true", help="verdicts exactly, spectra and solution projectors within bounds"
    )
    args = parser.parse_args(argv)
    runs = commands(PROBLEMS)
    work = Path(tempfile.mkdtemp(prefix="cli-diff-"))
    try:
        export_revision(args.parent, work / "parent-tree")
        (work / "problems").mkdir()
        write_problems(work / "problems")
        results = {}
        for side, tree in (("parent", work / "parent-tree"), ("change", ROOT)):
            (work / side).mkdir()
            results[side] = run_all(tree, work / side, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    compare = spectral_differences if args.spectral else differences
    found = compare(results["parent"], results["change"])
    for entry in found:
        print(entry)
    files = len(results["parent"][1].keys() | results["change"][1].keys())
    print(f"{len(runs)} command runs and {files} written files compared; {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
