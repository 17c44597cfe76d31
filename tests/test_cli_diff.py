"""The runs that tools/cli_diff.py makes and the differences it reports."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"
_SPEC = importlib.util.spec_from_file_location("cli_diff", _PATH)
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)


def test_every_problem_gets_three_runs_and_every_path_is_relative():
    runs = cli_diff.commands(cli_diff.PROBLEMS)
    assert len(runs) == 3 * len(cli_diff.PROBLEMS) + 3 == 27
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
