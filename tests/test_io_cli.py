"""JSON round-trips and command line exit codes."""

import json

import numpy as np
import pytest

from moddiag import (
    ConvergenceError,
    InputFormatError,
    diagonalize_selfadjoint,
    parse_problem,
    parse_solution,
    serialize_problem,
    serialize_report,
    serialize_solution,
    verify_eigensystem,
)
import moddiag.cli
from moddiag.cli import main

from helpers import module_over, random_selfadjoint_operator


def _problem_text(seed=91, sizes=(2, 1), rank=2):
    rng = np.random.default_rng(seed)
    mod = module_over(sizes, rank)
    return serialize_problem(random_selfadjoint_operator(mod, rng))


def test_problem_round_trip_is_bit_identical():
    text = _problem_text()
    again = serialize_problem(parse_problem(text))
    assert again == text


def test_solution_round_trip_is_bit_identical():
    k = parse_problem(_problem_text())
    res = diagonalize_selfadjoint(k)
    text = serialize_solution(res)
    again = serialize_solution(parse_solution(text))
    assert again == text


def test_parsed_solution_still_verifies():
    k = parse_problem(_problem_text())
    res = parse_solution(serialize_solution(diagonalize_selfadjoint(k)))
    assert verify_eigensystem(k, res).overall


def test_report_serialization_shape():
    k = parse_problem(_problem_text())
    report = verify_eigensystem(k, diagonalize_selfadjoint(k))
    doc = json.loads(serialize_report(report))
    assert doc["overall"] == "pass"
    assert set(doc["residuals"]) == {"eigen", "orthogonality", "projection", "support"}
    assert doc["schema"] == 1
    assert isinstance(doc["certificate"], list)


def test_empty_file_error():
    with pytest.raises(InputFormatError) as exc:
        parse_problem("   \n")
    assert exc.value.location == "line 1"


def test_invalid_json_error_carries_position():
    with pytest.raises(InputFormatError) as exc:
        parse_problem('{"schema": 1,,}')
    assert "line 1" in exc.value.location
    assert "invalid JSON" in str(exc.value)


def test_wrong_schema_rejected():
    doc = json.loads(_problem_text())
    doc["schema"] = 99
    with pytest.raises(InputFormatError) as exc:
        parse_problem(json.dumps(doc))
    assert "schema" in exc.value.location


def test_operator_grid_validated():
    doc = json.loads(_problem_text())
    doc["operator"] = doc["operator"][:1]
    with pytest.raises(InputFormatError):
        parse_problem(json.dumps(doc))


def test_non_finite_entry_rejected():
    doc = json.loads(_problem_text())
    doc["operator"][0][0][0][0] = [None, 0.0]
    with pytest.raises(InputFormatError):
        parse_problem(json.dumps(doc))


def test_solution_validation():
    k = parse_problem(_problem_text())
    doc = json.loads(serialize_solution(diagonalize_selfadjoint(k)))
    bad = dict(doc, tolerance=-1.0)
    with pytest.raises(InputFormatError):
        parse_solution(json.dumps(bad))
    bad = dict(doc, pairs=[])
    with pytest.raises(InputFormatError):
        parse_solution(json.dumps(bad))
    twice = dict(doc, pairs=[doc["pairs"][0], doc["pairs"][0]])
    with pytest.raises(InputFormatError) as exc:
        parse_solution(json.dumps(twice))
    assert "duplicate" in str(exc.value)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_diagonalize_and_verify_pass(tmp_path, capsys):
    problem = _write(tmp_path, "problem.json", _problem_text())
    report_path = str(tmp_path / "report.json")
    solution_path = str(tmp_path / "solution.json")
    code = main(
        ["diagonalize", "--input", problem, "--out", report_path, "--solution", solution_path]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "eigenpairs" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["overall"] == "pass"

    code = main(["verify", "--input", problem, "--solution", solution_path])
    assert code == 0


def test_cli_verify_fails_on_tampered_solution(tmp_path):
    problem = _write(tmp_path, "problem.json", _problem_text())
    solution_path = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution_path]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    entry = doc["pairs"][0]["value"][0]
    entry[0] = [entry[0][0] + 0.5, entry[0][1]]
    tampered = _write(tmp_path, "tampered.json", json.dumps(doc))
    assert main(["verify", "--input", problem, "--solution", tampered]) == 1


def test_cli_rejects_bad_inputs(tmp_path):
    empty = _write(tmp_path, "empty.json", "")
    assert main(["diagonalize", "--input", empty]) == 2
    assert main(["spectrum", "--input", str(tmp_path / "missing.json")]) == 2
    garbled = _write(tmp_path, "garbled.json", "{not json")
    assert main(["verify", "--input", garbled, "--solution", garbled]) == 2


def test_cli_rejects_solution_for_other_module(tmp_path):
    problem = _write(tmp_path, "problem.json", _problem_text())
    other = _write(tmp_path, "other.json", _problem_text(seed=5, sizes=(3,), rank=2))
    solution_path = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", other, "--solution", solution_path]) == 0
    assert main(["verify", "--input", problem, "--solution", solution_path]) == 2


def test_cli_rejects_non_selfadjoint_problem(tmp_path):
    doc = json.loads(_problem_text())
    # break symmetry in the first block entry
    doc["operator"][0][1][0][0] = [99.0, 0.0]
    crooked = _write(tmp_path, "crooked.json", json.dumps(doc))
    assert main(["diagonalize", "--input", crooked]) == 2


def test_cli_spectrum_prints_blocks(tmp_path, capsys):
    problem = _write(tmp_path, "problem.json", _problem_text())
    assert main(["spectrum", "--input", problem]) == 0
    out = capsys.readouterr().out
    assert "block 0" in out and "block 1" in out


def test_cli_example8(capsys):
    assert main(["example8"]) == 0
    out = capsys.readouterr().out
    assert "family 'scaled'" in out
    assert "unit family values comparable: True" in out
    assert "scaled family values comparable: False" in out
    assert "diagonalizer spectrum: 1, 4, 4, 9" in out


def test_cli_prop4(tmp_path, capsys):
    assert main(["prop4", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "closed-form eigenpairs: 7" in out
    assert main(["prop4", "--n", "1"]) == 2
    assert main(["prop4", "--n", "3", "--alphas", "0.5,0.25,0.125"]) == 0
    assert main(["prop4", "--n", "3", "--alphas", "1,2,3"]) == 2


def test_cli_alphas_must_be_numbers():
    with pytest.raises(SystemExit):
        main(["prop4", "--n", "2", "--alphas", "a,b"])


def test_cli_tol_out_of_range_is_a_usage_error():
    # rejected by the argument parser before any output, with exit code 2
    for tol in ("0", "1", "-1e-9", "1e300", "nan", "x"):
        for argv in (
            ["prop4", "--n", "3", "--tol", tol],
            ["diagonalize", "--input", "problem.json", "--moment-tol", tol],
            ["verify", "--input", "problem.json", "--solution", "s.json", "--moment-tol", tol],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


def test_cli_solver_nonconvergence_exits_1(tmp_path, monkeypatch, capsys):
    def fail(K, tol):
        raise ConvergenceError("Jacobi did not converge")

    monkeypatch.setattr(moddiag.cli, "diagonalize_selfadjoint", fail)
    problem = _write(tmp_path, "problem.json", _problem_text())
    assert main(["diagonalize", "--input", problem]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "did not converge" in err
