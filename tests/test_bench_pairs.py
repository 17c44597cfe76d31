"""The summary that tools/bench_pairs.py writes into a BENCH file."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(side, seed, failed=0, **metrics):
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}
    return {"side": side, "workload": "w", "seed": seed, "order": 0, "result": result}


def test_summary_counts_wins_by_each_metrics_direction():
    runs = [
        _run("parent", 1, verify_s=1.0, problems_per_s=4.0),
        _run("change", 1, verify_s=0.8, problems_per_s=4.0),  # a tie counts for neither side
        _run("change", 2, failed=1, verify_s=0.9, problems_per_s=5.0),
        _run("parent", 2, verify_s=0.7, problems_per_s=4.5),
        _run("parent", 3, verify_s=1.2, problems_per_s=3.0),
        _run("change", 3, verify_s=1.0, problems_per_s=3.5),
    ]
    summary = bench_pairs.summarize(runs, {"verify_s": "lower", "problems_per_s": "higher"})["w"]
    assert summary["pairs"] == 3 and summary["seeds"] == [1, 2, 3]
    verify = summary["metrics"]["verify_s"]
    assert verify["pairs_won_by_change"] == "2/3"
    assert verify["parent_q1_median_q3"] == [0.85, 1.0, 1.1]
    assert verify["change_over_parent_median"] == 0.9
    assert summary["metrics"]["problems_per_s"]["pairs_won_by_change"] == "2/3"
    assert summary["failed_of_attempted"] == {"parent": [0, 30], "change": [1, 30]}


@pytest.mark.parametrize("spec", ["ladder_file", "ladder_file=0", "ladder_file=x"])
def test_pair_counts_need_a_positive_count(spec):
    with pytest.raises(SystemExit):
        bench_pairs._pair_counts([spec])


@pytest.mark.parametrize("count", [1, 3, 11])
def test_pair_counts_need_an_even_count(count):
    # each side runs first in half the pairs, so run order cannot set a median
    with pytest.raises(SystemExit):
        bench_pairs._pair_counts([f"dense_block={count}"])
    assert bench_pairs._pair_counts([f"dense_block={count + 1}"]) == {"dense_block": count + 1}


def _tree_with_caches(root):
    for rel in ("src/moddiag/__pycache__", "perfbench/__pycache__", "perfbench/tests/__pycache__",
                "tools/__pycache__", "tests/__pycache__", "__pycache__"):
        (root / rel).mkdir(parents=True)
    (root / "src" / "__pycache__").write_text("a file of that name is not a cache")
    return [root / rel for rel in ("perfbench/__pycache__", "perfbench/tests/__pycache__",
                                   "src/moddiag/__pycache__", "tools/__pycache__")]


def test_bytecode_caches_are_found_under_the_code_directories_only(tmp_path):
    assert bench_pairs.bytecode_caches(tmp_path) == []
    expected = _tree_with_caches(tmp_path)
    assert bench_pairs.bytecode_caches(tmp_path) == expected


def test_a_bytecode_cache_stops_the_run_before_any_export(tmp_path, monkeypatch):
    # a cached change side imports without compiling, and its setup_s reads low
    expected = _tree_with_caches(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export_revision", lambda rev, dest: pytest.fail("exported"))
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", "HEAD", "--out", str(tmp_path / "out.json"), "--claim", "c",
                          "--pairs", "ladder_file=2"])
    named = [line.strip() for line in str(stop.value).splitlines()[1:]]
    assert named == [str(path.relative_to(tmp_path)) for path in expected]
    assert not (tmp_path / "out.json").exists()
