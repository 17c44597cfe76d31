"""Tests of the benchmark itself: its output contract, and that its gate can fail.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets the thread variables)

run._import_program()

import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

TINY = {
    "dense_block": partial(workloads.DenseBlock, blocks=(2,), rank=3),
    "ladder_file": partial(workloads.LadderFile, count=4),
    "small_suite": partial(workloads.SmallSuite, pool=10),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = ("calls", "d3_sum", "bytes_read", "bytes_written")


def _run_tiny(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace)]
    assert run.main(argv, factories=TINY) == 0
    return capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace, section):
    lines = _run_tiny(capsys, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if len(ln.split()) == 3}
    for name, unit in want.items():
        assert printed.get(name) == unit, name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["ladder_file", "small_suite"])
def test_exact_counts_repeat(capsys, workload):
    def counts():
        metrics = json.loads(_run_tiny(capsys, workload, 1)[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if k.rsplit(".", 1)[1] in EXACT_COUNTS}

    first = counts()
    assert first["eigen.eig_hermitian.calls"] > 0
    assert counts() == first


def _halve_first_value(solution):
    pair = next(p for p in solution["pairs"] if p["label"] == 1)
    pair["value"] = [[[0.5 * re, 0.5 * im] for re, im in blk] for blk in pair["value"]]
    return solution


def _drop_last_pair(solution):
    dropped = solution["pairs"].pop()["label"]
    solution["certificate"] = [
        r for r in solution["certificate"] if dropped not in (r["lhs"], r["rhs"])
    ]
    return solution


@pytest.mark.parametrize("doctor", [_halve_first_value, _drop_last_pair])
@pytest.mark.parametrize("workload", ["dense_block", "ladder_file"])
def test_gate_counts_a_doctored_solution_as_failed(tmp_path, workload, doctor):
    wl = TINY[workload](7, tmp_path)
    wl.make_inputs()
    wl.prepare_gate()
    rec = Recorder()
    clean = workloads.Tally()
    wl.run_pass(clean, rec, "clean")
    assert (clean.attempted, clean.failed) == (2, 0)
    assert wl.diagonalize_ok(0, "overall: pass")

    wl.solution.write_text(json.dumps(doctor(json.loads(wl.solution.read_text()))))
    # the spectrum check alone rejects the file a diagonalize call left behind
    assert not wl.diagonalize_ok(0, "overall: pass")
    doctored = workloads.Tally()
    wl.verify(doctored, rec, "doctored")
    assert (doctored.attempted, doctored.failed) == (1, 1)


def test_a_run_pins_blas_threads_and_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_suite", "--seed", "1",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert set(env["threads"].values()) == {"1"}
    assert json.loads(lines[-1])["correct"] is True


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
