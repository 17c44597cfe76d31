"""JSON round-trips and command line exit codes."""

import json

import numpy as np
import pytest

from moddiag import (
    ConvergenceError,
    InputFormatError,
    ModuleOperator,
    diagonalize_normal,
    diagonalize_selfadjoint,
    parse_problem,
    parse_solution,
    projection_ladder,
    serialize_problem,
    serialize_report,
    serialize_solution,
    verify_eigensystem,
)
import moddiag.cli
import moddiag.io
from moddiag.cli import main

from helpers import ACCEPTANCE_SHAPES, module_over, random_normal_operator, random_selfadjoint_operator


def _problem_text(seed=91, sizes=(2, 1), rank=2):
    rng = np.random.default_rng(seed)
    mod = module_over(sizes, rank)
    return serialize_problem(random_selfadjoint_operator(mod, rng))


def test_problem_round_trip_is_bit_identical():
    text = _problem_text()
    again = serialize_problem(parse_problem(text))
    assert again == text


@pytest.mark.parametrize("path", ["array", "walk"])
@pytest.mark.parametrize("solver", ["selfadjoint", "normal"])
@pytest.mark.parametrize("sizes", ACCEPTANCE_SHAPES, ids=lambda sizes: "+".join(map(str, sizes)))
def test_solution_round_trip_is_bit_identical(monkeypatch, sizes, solver, path):
    rng = np.random.default_rng(sum(sizes))
    mod = module_over(sizes, 3)
    if solver == "normal":
        res = diagonalize_normal(random_normal_operator(mod, rng))
    else:
        res = diagonalize_selfadjoint(random_selfadjoint_operator(mod, rng))
    text = serialize_solution(res)
    walks = []
    walk = moddiag.io._walk_pairs
    monkeypatch.setattr(moddiag.io, "_walk_pairs", lambda *args: walks.append(1) or walk(*args))
    # any JSON boolean sends the file to the walk
    read = json.dumps(dict(json.loads(text), note=True)) + "\n" if path == "walk" else text
    again = parse_solution(read)
    assert bool(walks) == (path == "walk")
    assert serialize_solution(again) == text
    assert again.module == res.module and again.labels() == res.labels()
    assert again.ordering_certificate == res.ordering_certificate and again.tolerance_used == res.tolerance_used
    for name in ("vectors", "values", "supports"):
        assert _bits(getattr(again, name)) == _bits(getattr(res, name)), name


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


# Array-at-a-time I/O: the same numbers and the same error locations as an
# entry-by-entry walk, and the same documents as the per-entry serializer.


def _reference_alg(a):
    return [[[float(z.real), float(z.imag)] for z in blk.ravel()] for blk in a.blocks]


def _reference_problem_doc(K):
    n = K.module.rank
    return {
        "schema": 1,
        "algebra": {"blocks": list(K.module.shape.block_sizes)},
        "module_rank": n,
        "operator": [[_reference_alg(K.entry(i, j)) for j in range(n)] for i in range(n)],
    }


def _reference_solution_doc(res):
    module = res.pairs[0].vector.module
    return {
        "schema": 1,
        "algebra": {"blocks": list(module.shape.block_sizes)},
        "module_rank": module.rank,
        "tolerance": res.tolerance_used,
        "pairs": [
            {
                "label": p.label,
                "vector": [_reference_alg(c) for c in p.vector.coords()],
                "value": _reference_alg(p.value),
                "support": _reference_alg(p.support),
            }
            for p in res.pairs
        ],
        "certificate": [{"lhs": r.lhs, "rhs": r.rhs} for r in res.ordering_certificate],
    }


def _bits(arrays):
    return [a.tobytes() for a in arrays]


def _same_operator(a, b):
    return a.module == b.module and _bits(a.blocks) == _bits(b.blocks)


def _same_result(a, b):
    def header(r):
        return r.labels(), r.ordering_certificate, r.tolerance_used

    if header(a) != header(b):
        return False
    return all(
        p.vector.module == q.vector.module
        and _bits(p.vector.stacked + p.value.blocks + p.support.blocks)
        == _bits(q.vector.stacked + q.value.blocks + q.support.blocks)
        for p, q in zip(a.pairs, b.pairs)
    )


def _io_cases():
    for sizes in [(2,), (2, 3), (1, 1, 1, 1), (2, 1, 3), (8,)]:
        for rank in range(1, 6):
            mod = module_over(sizes, rank)
            yield random_selfadjoint_operator(mod, np.random.default_rng(100 * rank + len(sizes)))
    for count in (2, 3, 5, 8, 16, 32):
        yield projection_ladder(count).operator


def test_compact_files_parse_to_the_bits_of_indented_ones(monkeypatch):
    for K in _io_cases():
        res = diagonalize_selfadjoint(K)
        problem_doc, solution_doc = _reference_problem_doc(K), _reference_solution_doc(res)
        problem, solution = serialize_problem(K), serialize_solution(res)
        # the same documents as the per-entry serializer, written compactly
        assert problem == json.dumps(problem_doc) + "\n"
        assert solution == json.dumps(solution_doc) + "\n"
        # compact text, and text indented the old way, parse to the original bits
        assert _same_operator(parse_problem(problem), K)
        assert _same_result(parse_solution(solution), res)
        assert _same_operator(parse_problem(json.dumps(problem_doc, indent=2) + "\n"), K)
        assert _same_result(parse_solution(json.dumps(solution_doc, indent=2) + "\n"), res)
        # and so does the walk alone
        with monkeypatch.context() as m:
            m.setattr(moddiag.io, "_complex_array", lambda nested, shape: None)
            assert _same_operator(parse_problem(problem), K)
            assert _same_result(parse_solution(solution), res)


def test_valid_files_never_reach_the_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("the entry-by-entry walk ran on a valid file")

    monkeypatch.setattr(moddiag.io, "_parse_alg", walk)
    for K in (parse_problem(_problem_text()), projection_ladder(4).operator):
        res = diagonalize_selfadjoint(K)
        assert _same_operator(parse_problem(serialize_problem(K)), K)
        assert _same_result(parse_solution(serialize_solution(res)), res)


HUGE = 10**400

# (replacement for pair 2 of block 0, location suffix after the algebra element)
MALFORMED = [
    ([True, 0], ".block[0][2]"),
    (["1.5", 0], ".block[0][2]"),
    ([None, 0], ".block[0][2]"),
    ([float("nan"), 0], ".block[0][2]"),
    ([1.0, 0.0, 0.0], ".block[0][2]"),
    ("ragged", ".block[0]"),
    ([HUGE, 0], ".block[0][2]"),
]


def _break(element, bad):
    if bad == "ragged":
        del element[0][-1]
    else:
        element[0][2] = bad


@pytest.mark.parametrize(
    "bad, where", MALFORMED, ids=["true", "string", "null", "nan", "triple", "ragged", "huge-int"]
)
def test_malformed_numbers_are_located_like_the_walk(bad, where):
    problem = json.loads(_problem_text())
    _break(problem["operator"][1][0], bad)
    with pytest.raises(InputFormatError) as exc:
        parse_problem(json.dumps(problem))
    assert exc.value.location == "problem.operator[1][0]" + where

    solution = json.loads(serialize_solution(diagonalize_selfadjoint(parse_problem(_problem_text()))))
    for field, loc in (
        (lambda p: p["vector"][1], "solution.pairs[1].vector[1]"),
        (lambda p: p["value"], "solution.pairs[1].value"),
        (lambda p: p["support"], "solution.pairs[1].support"),
    ):
        doc = json.loads(json.dumps(solution))
        _break(field(doc["pairs"][1]), bad)
        with pytest.raises(InputFormatError) as exc:
            parse_solution(json.dumps(doc))
        assert exc.value.location == loc + where


def _solution_doc():
    return json.loads(serialize_solution(diagonalize_selfadjoint(parse_problem(_problem_text()))))


def _wrong_block_sizes(doc):
    doc["algebra"]["blocks"] = [1, 1]


def _extra_block(element):
    element.append(element[-1])


STRUCTURAL = [
    (_wrong_block_sizes, "problem.operator[0][0].block[0]"),
    (lambda d: _extra_block(d["operator"][1][0]), "problem.operator[1][0]"),
    (_wrong_block_sizes, "solution.pairs[0].vector[0].block[0]"),
    (lambda d: _extra_block(d["pairs"][1]["vector"][1]), "solution.pairs[1].vector[1]"),
    (lambda d: _extra_block(d["pairs"][1]["support"]), "solution.pairs[1].support"),
    (lambda d: d["pairs"][1].update(label=d["pairs"][0]["label"]), "solution.pairs[1]"),
    (lambda d: d["pairs"][1].pop("value"), "solution.pairs[1]"),
]


@pytest.mark.parametrize(
    "fault, where",
    STRUCTURAL,
    ids=["sizes", "extra-block", "sizes", "extra-block", "extra-block", "duplicate-label", "no-value"],
)
def test_structural_faults_are_located_like_the_walk(fault, where):
    problem = where.startswith("problem")
    doc = json.loads(_problem_text()) if problem else _solution_doc()
    fault(doc)
    with pytest.raises(InputFormatError) as exc:
        (parse_problem if problem else parse_solution)(json.dumps(doc))
    assert exc.value.location == where


def test_the_walk_reads_what_the_array_path_declines():
    K = parse_problem(_problem_text())
    doc = json.loads(_problem_text())
    doc["note"] = True  # any JSON boolean sends the file to the walk
    doc["operator"][0][0][0][0] = [10**20, 0]  # an int numpy keeps as an object
    again = parse_problem(json.dumps(doc))
    assert again.blocks[0][0, 0] == 1e20
    assert _bits(again.blocks)[1:] == _bits(K.blocks)[1:]


def test_cli_oversized_numbers_exit_2_with_their_location(tmp_path, capsys):
    doc = json.loads(_problem_text())
    doc["operator"][0][0][0][0] = [HUGE, 0]
    problem = _write(tmp_path, "huge.json", json.dumps(doc))
    assert main(["diagonalize", "--input", problem]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: problem.operator[0][0].block[0][0]: ") and err.count("\n") == 1
    # past the interpreter's limit on integer digits json.loads itself refuses
    long_literal = _write(tmp_path, "long.json", json.dumps(doc).replace(str(HUGE), "1" * 5000))
    assert main(["diagonalize", "--input", long_literal]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize(
    "content", [b"\xff\xfe", b"[" * 200_000], ids=["not-utf8", "nested-too-deep"]
)
def test_cli_unreadable_files_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["diagonalize", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def _swap_labels(doc, a, b):
    for pair in doc["pairs"]:
        pair["label"] = {a: b, b: a}.get(pair["label"], pair["label"])


@pytest.mark.parametrize("claimed", [1e300, 1.0, 0.0])
def test_cli_a_claimed_tolerance_outside_the_unit_interval_exits_2(tmp_path, capsys, claimed):
    # the verifier's ordering slack grows with the claimed tolerance: at
    # 1e300 it passed a certificate whose labels 1 and 2 are swapped
    problem = _write(tmp_path, "problem.json", _problem_text(seed=3, sizes=(2, 3), rank=3))
    solution_path = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution_path]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    _swap_labels(doc, 1, 2)
    swapped = _write(tmp_path, "swapped.json", json.dumps(doc))
    assert main(["verify", "--input", problem, "--solution", swapped]) == 1
    capsys.readouterr()
    doc["tolerance"] = claimed
    loose = _write(tmp_path, "loose.json", json.dumps(doc))
    assert main(["verify", "--input", problem, "--solution", loose]) == 2
    assert capsys.readouterr().err.startswith("input error: solution.tolerance: ")


def test_cli_a_non_selfadjoint_claimed_value_exits_1(tmp_path, capsys):
    problem = _write(tmp_path, "problem.json", _problem_text())
    solution_path = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution_path]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    entry = doc["pairs"][0]["value"][0]  # block 0, order 2, row-major
    entry[1] = [entry[1][0] + 0.5, entry[1][1]]
    crooked = _write(tmp_path, "crooked.json", json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--solution", crooked]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "ordering ok:            False" in captured.out


def _scaled_problem_text(scale):
    rng = np.random.default_rng(95)
    mod = module_over((2,), 2)
    h = random_selfadjoint_operator(mod, rng).blocks[0]
    return serialize_problem(ModuleOperator(mod, [scale * h / np.abs(h).max()]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_an_operator_near_the_top_of_the_float_range_exits_2(tmp_path, capsys):
    # 1e308 * h is finite, but h + h* and the scaling exponents are not
    doc = json.loads(_scaled_problem_text(1e308))
    for name, text in (("array.json", json.dumps(doc)), ("walk.json", json.dumps(dict(doc, note=True)))):
        problem = _write(tmp_path, name, text)
        for argv in (["diagonalize", "--input", problem], ["spectrum", "--input", problem]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: problem.operator: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_an_operator_just_below_the_input_bound_passes(tmp_path):
    problem = _write(tmp_path, "problem.json", _scaled_problem_text(2.0**990))
    solution = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution]) == 0
    assert main(["verify", "--input", problem, "--solution", solution]) == 0
    assert main(["spectrum", "--input", problem]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_an_operator_below_the_lower_input_bound_exits_2(tmp_path, capsys):
    # at 2**-1060 the residuals and their bound tol * operator_scale reach
    # the subnormal range, and a valid file failed its own verification
    good = _write(tmp_path, "good.json", _scaled_problem_text(1.0))
    solution = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", good, "--solution", solution]) == 0
    doc = json.loads(_scaled_problem_text(2.0**-1060))
    for name, text in (("array.json", json.dumps(doc)), ("walk.json", json.dumps(dict(doc, note=True)))):
        problem = _write(tmp_path, name, text)
        runs = (
            ["diagonalize", "--input", problem],
            ["verify", "--input", problem, "--solution", solution],
            ["spectrum", "--input", problem],
        )
        for argv in runs:
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: problem.operator: ") and "2**-1000" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_an_operator_just_above_the_lower_input_bound_passes(tmp_path):
    problem = _write(tmp_path, "problem.json", _scaled_problem_text(2.0**-990))
    solution = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution]) == 0
    assert main(["verify", "--input", problem, "--solution", solution]) == 0
    assert main(["spectrum", "--input", problem]) == 0


def test_cli_the_zero_operator_passes_the_lower_input_bound(tmp_path):
    problem = _write(tmp_path, "problem.json", _scaled_problem_text(0.0))
    solution = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution]) == 0
    assert main(["verify", "--input", problem, "--solution", solution]) == 0


def _huge_vector(doc):
    doc["pairs"][0]["vector"][0][0] = [[1e300 * x for x in z] for z in doc["pairs"][0]["vector"][0][0]]


def _huge_values(doc):
    for pair, top in zip(doc["pairs"], (1.7e308, -1.7e308)):
        pair["value"][0] = [[top, 0.0] if z != [0.0, 0.0] else z for z in pair["value"][0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tamper", [_huge_vector, _huge_values], ids=["vector-times-1e300", "values-near-1e308"])
def test_cli_verify_fails_huge_claims_without_warnings(tmp_path, capsys, tamper):
    problem = _write(tmp_path, "problem.json", _problem_text(sizes=(2,)))
    solution = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    tamper(doc)
    tampered = _write(tmp_path, "tampered.json", json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--solution", tampered]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alphas", ["inf,1", "1,nan"])
def test_cli_prop4_rejects_non_finite_couplings(capsys, alphas):
    assert main(["prop4", "--n", "2", "--alphas", alphas]) == 2
    assert capsys.readouterr().err == "input error: arguments: coupling values must be finite\n"
