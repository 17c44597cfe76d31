"""The runs that tools/cli_diff.py makes and the differences it reports."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np

from moddiag import AlgebraShape, HilbertModule, diagonalize_selfadjoint, serialize_solution

from helpers import random_selfadjoint_operator

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"
_SPEC = importlib.util.spec_from_file_location("cli_diff", _PATH)
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)


def test_every_problem_gets_three_runs_and_every_path_is_relative():
    runs = cli_diff.commands(cli_diff.PROBLEMS)
    assert len(runs) == 3 * len(cli_diff.PROBLEMS) + 3 == 42
    assert [argv[0] for argv in runs.values()].count("verify") == len(cli_diff.PROBLEMS)
    assert {"example8", "prop4 --n 3", "prop4 --n 8"} <= runs.keys()
    flags = ("--input", "--solution", "--out")
    paths = [argv[i + 1] for argv in runs.values() for i, arg in enumerate(argv) if arg in flags]
    assert paths and not any(Path(p).is_absolute() for p in paths)
    # each file is written by one run, so no run reads another's stale output
    outs = [argv[argv.index("--out") + 1] for argv in runs.values() if "--out" in argv]
    assert len(outs) == len(set(outs))


def test_written_problems_are_the_same_every_time(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        cli_diff.write_problems(tmp_path / name)
    files = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert files == sorted(f"{name}.json" for name in cli_diff.PROBLEMS)
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)


def _outcome(code=0, out=b"overall: pass\n", err=b"", **files):
    return {"spectrum": (0, b"block 0: 1\n", b""), "verify": (code, out, err)}, {"s.json": b"{}", **files}


def test_agreeing_trees_have_no_differences():
    assert cli_diff.differences(_outcome(), _outcome()) == []


def test_each_kind_of_difference_is_reported():
    parent = _outcome(report=b'{"overall": "pass", "eigen": 1e-16}', old=b"x")
    change = _outcome(1, b"overall: fail\n", b"input error\n", report=b'{"overall": "pass", "eigen": 2e-16}', new=b"y")
    found = cli_diff.differences(parent, change)
    assert [entry.splitlines()[0] for entry in found] == [
        "verify: exit code 0 -> 1",
        "verify: stdout differs",
        "verify: stderr differs",
        "file new: only in change",
        "file old: only in parent",
        "file report: differs, first at byte 29 of 35 / 35: b'1e-16}' / b'2e-16}'",
    ]
    assert "-overall: pass\n+overall: fail" in found[1]


def _spectral_outcome(out=b"overall: pass\neigen residual:         2.652e-12 (worst L2)\n",
                      spectrum=b"block 0 (size 2): 2.98900904, -1.709538753\nblock 1 (size 1): 3-0.8075346753i\n",
                      **files):
    report = {"overall": "pass", "residuals": {"eigen": 2.652e-12}, "worst_pairs": {"eigen": 2}, "ordering_ok": True}
    return (
        {"p spectrum": (0, spectrum, b""), "p verify": (0, out, b"")},
        {"p.verify.json": json.dumps({**report, **files.pop("report", {})}).encode(), **files},
    )


def test_spectral_mode_leaves_out_the_figures_but_not_the_verdicts():
    moved = _spectral_outcome(
        out=b"overall: pass\neigen residual:         4.469e-14 (worst L3, L5)\n",
        report={"residuals": {"eigen": 4.469e-14}, "worst_pairs": {"eigen": 3}},
    )
    assert cli_diff.spectral_differences(_spectral_outcome(), moved) == []
    assert len(cli_diff.differences(_spectral_outcome(), moved)) == 2
    failed = _spectral_outcome(out=b"overall: fail\neigen residual:         2.652e-12 (worst L2)\n",
                               report={"overall": "fail"})
    assert cli_diff.spectral_differences(_spectral_outcome(), failed) == [
        "p verify: verdicts differ",
        "file p.verify.json: verdicts differ",
    ]


def test_spectral_mode_bounds_each_spectrum_line_by_its_largest_value():
    within = _spectral_outcome(spectrum=b"block 0 (size 2): 2.989009041, -1.709538753\nblock 1 (size 1): 3-0.8075346752i\n")
    assert cli_diff.spectral_differences(_spectral_outcome(), within) == []
    beyond = _spectral_outcome(spectrum=b"block 0 (size 2): 2.98900904, -1.7095\nblock 1 (size 1): 3-0.8075346753i\n")
    (found,) = cli_diff.spectral_differences(_spectral_outcome(), beyond)
    assert found.startswith("p spectrum: spectra differ, block 0 (size 2): values 3.875e-05 apart")
    shorter = _spectral_outcome(spectrum=b"block 0 (size 2): 2.98900904\nblock 1 (size 1): 3-0.8075346753i\n")
    assert cli_diff.spectral_differences(_spectral_outcome(), shorter)[0].startswith("p spectrum: spectra differ")


def test_spectral_mode_compares_solutions_by_window_projectors():
    rng = np.random.default_rng(3)
    operator = random_selfadjoint_operator(HilbertModule(AlgebraShape((2,)), 3), rng)
    result = diagonalize_selfadjoint(operator)
    # another basis of each window: the same projectors, other bytes
    unitaries = np.linalg.qr(rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))[0]
    rotated = dataclasses.replace(result, vectors=(unitaries @ result.vectors[0],))
    swapped = dataclasses.replace(result, vectors=(result.vectors[0][[1, 0, 2]],))
    solutions = {name: serialize_solution(r).encode() for name, r in
                 (("base", result), ("rotated", rotated), ("swapped", swapped))}
    assert solutions["base"] != solutions["rotated"]

    def outcome(name):
        return _spectral_outcome(**{"p.solution.json": solutions[name]})

    assert cli_diff.spectral_differences(outcome("base"), outcome("rotated")) == []
    (found,) = cli_diff.spectral_differences(outcome("base"), outcome("swapped"))
    assert found.startswith(f"file p.solution.json: block 0: projector of L{result.pair_labels[0]} ")
