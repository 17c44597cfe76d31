"""JSON round-trips and command line exit codes."""

import dataclasses
import gc
import json
import random
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from moddiag import (
    ConvergenceError,
    DiagonalizationResult,
    InputFormatError,
    ModuleOperator,
    OrderRelation,
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
import moddiag.diagonalize
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
    trees = []
    loads = moddiag.io._loads
    monkeypatch.setattr(moddiag.io, "_loads", lambda *args: trees.append(1) or loads(*args))
    # "array" reads the file as written, by the text path; "walk" an indented copy, by the tree path
    read = json.dumps(json.loads(text), indent=1) if path == "walk" else text
    again = parse_solution(read)
    assert len(trees) == (path == "walk")
    assert serialize_solution(again) == text
    assert again.module == res.module and again.pair_labels == res.pair_labels
    assert again.ordering_certificate == res.ordering_certificate and again.tolerance_used == res.tolerance_used
    for name in ("vectors", "values", "supports"):
        assert _bits(getattr(again, name)) == _bits(getattr(res, name)), name


@pytest.mark.parametrize("narrow", [np.real, lambda s: s.astype(np.complex64)], ids=["float64", "complex64"])
def test_a_result_of_narrower_stacks_is_written_as_its_complex128_widening(narrow):
    res = diagonalize_selfadjoint(random_selfadjoint_operator(module_over((2, 1), 3), np.random.default_rng(5)))

    def result(change):
        parts = (tuple(change(s) for s in stacks) for stacks in (res.vectors, res.values, res.supports))
        return DiagonalizationResult(res.module, res.pair_labels, *parts, res.ordering_certificate, res.tolerance_used)

    text = serialize_solution(result(narrow))
    assert text == serialize_solution(result(lambda s: narrow(s).astype(np.complex128)))
    again = parse_solution(text)
    assert len(again.pair_labels) == len(res.pair_labels)
    assert _bits(again.vectors) == _bits(s.astype(np.complex128) for s in result(narrow).vectors)


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


def test_wrong_schema_rejected(tmp_path):
    doc = json.loads(_problem_text())
    # true and 1.0 equal 1 in Python, but neither is the integer marker
    for marker in (99, True, 1.0):
        doc["schema"] = marker
        with pytest.raises(InputFormatError) as exc:
            parse_problem(json.dumps(doc))
        assert exc.value.location == "problem.schema"
    problem = _write(tmp_path, "problem.json", _problem_text())
    solution_path = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution_path]) == 0
    solution = json.loads((tmp_path / "solution.json").read_text())
    solution["schema"] = True
    marked = _write(tmp_path, "marked.json", json.dumps(solution))
    with pytest.raises(InputFormatError) as exc:
        parse_solution(json.dumps(solution))
    assert exc.value.location == "solution.schema"
    assert main(["verify", "--input", problem, "--solution", marked]) == 2


@pytest.mark.parametrize(
    "field, where",
    [
        (lambda d: d.update(module_rank=True), "problem"),
        (lambda d: d["algebra"]["blocks"].__setitem__(0, True), "problem.algebra.blocks[0]"),
        (lambda d: d["pairs"][0].update(label=True), "solution.pairs[0]"),
        (lambda d: d["certificate"][0].update(lhs=True), "solution.certificate[0]"),
    ],
    ids=["module_rank", "block-size", "label", "lhs"],
)
def test_a_boolean_integer_field_is_refused_at_its_location(field, where):
    # true equals 1 in Python, but a JSON boolean is no integer
    problem = where.startswith("problem")
    doc = json.loads(_problem_text()) if problem else _solution_doc()
    field(doc)
    with pytest.raises(InputFormatError) as exc:
        (parse_problem if problem else parse_solution)(json.dumps(doc))
    assert exc.value.location == where


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


def test_cli_a_solution_made_at_a_looser_tol_verifies_at_that_tol(tmp_path):
    problem = _write(tmp_path, "problem.json", _problem_text())
    solution, report = tmp_path / "solution.json", tmp_path / "report.json"
    loose = ["--tol", "1e-6", "--moment-tol", "1e-6"]
    assert main(["diagonalize", "--input", problem, "--solution", str(solution), *loose]) == 0
    assert json.loads(solution.read_text())["tolerance"] == 1e-6
    assert main(["verify", "--input", problem, "--solution", str(solution), "--out", str(report), *loose]) == 0
    doc = json.loads(report.read_text())
    assert doc["overall"] == "pass"
    assert doc["tolerance"] == doc["moment_tolerance"] == 1e-6


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


def test_cli_rejects_non_selfadjoint_problem(tmp_path, capsys):
    doc = json.loads(_problem_text())
    # break symmetry in the first block entry, which leaves K neither
    # self-adjoint nor normal: both commands refuse it with the same line
    doc["operator"][0][1][0][0] = [99.0, 0.0]
    crooked = _write(tmp_path, "crooked.json", json.dumps(doc))
    for command in ("diagonalize", "spectrum"):
        assert main([command, "--input", crooked]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: problem.operator: operator is neither self-adjoint nor normal\n"


def _real_lines(spectra, sizes):
    """The spectrum command's lines for a self-adjoint problem's scalar spectrum."""
    return [
        f"block {b} (size {k}): " + ", ".join(f"{z.real:.10g}" for z in spectrum)
        for b, (k, spectrum) in enumerate(zip(sizes, spectra))
    ]


def test_cli_diagonalizes_a_normal_problem(tmp_path, capsys):
    K = random_normal_operator(module_over((2, 1), 2), np.random.default_rng(5))
    problem = _write(tmp_path, "normal.json", serialize_problem(K))
    solution_path = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution_path]) == 0
    assert capsys.readouterr().out.startswith("diagonalized into 2 eigenpairs: L1, L2\noverall: pass\n")
    result = parse_solution((tmp_path / "solution.json").read_text())
    assert result.pair_labels == (1, 2) and result.ordering_certificate == ()
    assert main(["verify", "--input", problem, "--solution", solution_path]) == 0
    capsys.readouterr()
    # spectrum prints the same result's spectrum, in the complex format
    assert main(["spectrum", "--input", problem]) == 0
    spectra = diagonalize_normal(K).scalar_spectrum()
    assert capsys.readouterr().out.splitlines() == [
        f"block {b} (size {k}): " + ", ".join(f"{z.real:.10g}{z.imag:+.10g}i" for z in sp)
        for b, (k, sp) in enumerate(zip((2, 1), spectra))
    ]


def test_cli_commands_agree_on_a_nearly_selfadjoint_operator(tmp_path, capsys):
    # a skew part of 2.5e-10 times the largest entry: self-adjoint within the
    # default tol of 1e-9, though not within 1e-10, for both commands
    h = random_selfadjoint_operator(module_over((2, 1), 2), np.random.default_rng(91))
    top = max(np.abs(blk).max() for blk in h.blocks)
    skew = [np.eye(len(blk), k=1) - np.eye(len(blk), k=-1) for blk in h.blocks]
    near = ModuleOperator(h.module, [blk + 1.25e-10 * top * s for blk, s in zip(h.blocks, skew)])
    assert near.is_selfadjoint(1e-9) and not near.is_selfadjoint(1e-10)
    problem = _write(tmp_path, "near.json", serialize_problem(near))
    assert main(["diagonalize", "--input", problem]) == 0
    assert "  relation 0 <= L1\n" in capsys.readouterr().out
    assert main(["spectrum", "--input", problem]) == 0
    spectra = diagonalize_selfadjoint(near).scalar_spectrum()
    assert capsys.readouterr().out.splitlines() == _real_lines(spectra, (2, 1))


def test_cli_spectrum_prints_blocks(tmp_path, capsys):
    problem = _write(tmp_path, "problem.json", _problem_text())
    assert main(["spectrum", "--input", problem]) == 0
    out = capsys.readouterr().out
    assert "block 0" in out and "block 1" in out


def test_cli_spectrum_prints_the_diagonalizer_spectrum(monkeypatch, tmp_path, capsys):
    # diagonalize_selfadjoint's one stacked solve over all blocks, and no other
    text = _problem_text(seed=17, sizes=(2, 1, 3), rank=2)
    problem = _write(tmp_path, "problem.json", text)
    calls = []
    solve = moddiag.diagonalize.eig_hermitian
    monkeypatch.setattr(moddiag.diagonalize, "eig_hermitian", lambda *args: calls.append(1) or solve(*args))
    assert main(["spectrum", "--input", problem]) == 0
    assert len(calls) == 1
    spectra = diagonalize_selfadjoint(parse_problem(text)).scalar_spectrum()
    assert capsys.readouterr().out.splitlines() == _real_lines(spectra, (2, 1, 3))


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
# entry-by-entry reading, and the same documents as the per-entry serializer.


def _reference_alg(blocks):
    return [[[float(z.real), float(z.imag)] for z in blk.ravel()] for blk in blocks]


def _reference_problem_doc(K):
    n, sizes = K.module.rank, K.module.shape.block_sizes

    def entry(i, j):
        return [blk[i * k : (i + 1) * k, j * k : (j + 1) * k] for k, blk in zip(sizes, K.blocks)]

    return {
        "schema": 1,
        "algebra": {"blocks": list(sizes)},
        "module_rank": n,
        "operator": [[_reference_alg(entry(i, j)) for j in range(n)] for i in range(n)],
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
                "vector": [_reference_alg(p.vector.coord(i).blocks) for i in range(module.rank)],
                "value": _reference_alg(p.value.blocks),
                "support": _reference_alg(p.support.blocks),
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
        return r.pair_labels, r.ordering_certificate, r.tolerance_used

    if header(a) != header(b):
        return False
    return all(
        p.vector.module == q.vector.module
        and _bits(p.vector.blocks + p.value.blocks + p.support.blocks)
        == _bits(q.vector.blocks + q.value.blocks + q.support.blocks)
        for p, q in zip(a.pairs, b.pairs)
    )


def _io_cases():
    for sizes in [(2,), (2, 3), (1, 1, 1, 1), (2, 1, 3), (8,)]:
        for rank in range(1, 6):
            mod = module_over(sizes, rank)
            yield random_selfadjoint_operator(mod, np.random.default_rng(100 * rank + len(sizes)))
    for count in (2, 3, 5, 8, 16, 32):
        yield projection_ladder(count).operator
    yield _dense_96()


def test_compact_files_parse_to_the_bits_of_indented_ones():
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


# Numbers whose text a writer could get wrong: signed zeros, subnormals, the
# input bounds and integral floats (1e22 is written 1e+22).
EDGE_NUMBERS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308, 2.0**-1000, -(2.0**-1000),
    np.nextafter(2.0**1000, 0.0), -np.nextafter(2.0**1000, 0.0), 1.0, -1.0, 3.0, 1e16, -1e16, 1e22, 2.0**53, 0.1,
]


def _edge_numbers(rng, shape):
    """Complex numbers of the given shape, each part an edge number or a random float of any magnitude."""
    parts = rng.standard_normal((*shape, 2)) * 10.0 ** rng.uniform(-320, 300, (*shape, 2))
    parts = np.where(rng.random(parts.shape) < 0.5, rng.choice(np.array(EDGE_NUMBERS), parts.shape), parts)
    return parts.view(np.complex128)[..., 0]


def _edge_result(rng, module, labels, tolerance):
    sizes, n, count = module.shape.block_sizes, module.rank, len(labels)
    certificate = [
        OrderRelation(*rng.choice(np.array([None, *labels], dtype=object), 2).tolist()) for _ in range(count)
    ]
    return DiagonalizationResult(
        module,
        tuple(labels),
        *([_edge_numbers(rng, (count, k, k * m)) for k in sizes] for m in (n, 1, 1)),
        tuple(certificate),
        tolerance,
    )


def test_writers_write_the_bytes_of_json_dumps_on_edge_numbers():
    rng = np.random.default_rng(25)
    cases = [((2, 1, 3), rank) for rank in range(1, 6)] + [((1,) * 5, rank) for rank in range(1, 6)]
    for sizes, rank in cases + [((2,), 2), ((3, 1), 1)]:
        module = module_over(sizes, rank)
        K = ModuleOperator(module, [_edge_numbers(rng, (rank * k, rank * k)) for k in sizes])
        problem = serialize_problem(K)
        assert problem == json.dumps(_reference_problem_doc(K)) + "\n"
        assert _same_operator(parse_problem(problem), K)
        # distinct labels of two to twenty-one digits, in no order
        labels = [10 ** int(digits) + i for i, digits in enumerate(rng.permutation(rng.integers(1, 21, 3 + rank)))]
        res = _edge_result(rng, module, labels, float(rng.uniform(1e-300, 1.0)))
        solution = serialize_solution(res)
        assert solution == json.dumps(_reference_solution_doc(res)) + "\n"
        assert _same_result(parse_solution(solution), res)
        # numpy labels and tolerance are stored as int and float, so they write the same bytes
        numpy_labels = tuple(np.int64(label) if label < 2**63 else label for label in res.pair_labels)
        as_numpy = dataclasses.replace(res, pair_labels=numpy_labels, tolerance_used=np.float64(res.tolerance_used))
        assert serialize_solution(as_numpy) == solution


def _dense_96():
    # a dense_block-sized file: one 96x96 Hermitian block, (8,) at rank 12
    return random_selfadjoint_operator(module_over((8,), 12), np.random.default_rng(96))


def _never_walk(*args):
    raise AssertionError("a written file reached the walk of the tree path")


def test_valid_files_never_reach_the_locator(monkeypatch):
    monkeypatch.setattr(moddiag.io, "_walk", _never_walk)
    cases = (parse_problem(_problem_text()), projection_ladder(4).operator, projection_ladder(32).operator, _dense_96())
    for K in cases:
        res = diagonalize_selfadjoint(K)
        assert _same_operator(parse_problem(serialize_problem(K)), K)
        assert _same_result(parse_solution(serialize_solution(res)), res)


def _with_note(text, note):
    return json.dumps(dict(json.loads(text), note=note)) + "\n"


@pytest.mark.parametrize("note", [True, [True, "x"]], ids=["true", "list"])
def test_files_with_a_boolean_field_read_to_the_same_bits(note):
    K = projection_ladder(32).operator
    res = diagonalize_selfadjoint(K)
    problem, solution = serialize_problem(K), serialize_solution(res)
    assert _same_operator(parse_problem(_with_note(problem, note)), parse_problem(problem))
    assert _same_result(parse_solution(_with_note(solution, note)), parse_solution(solution))


LAYOUTS = {"default": {}, "compact": {"separators": (",", ":")}, "indented": {"indent": 2}}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("number", [0, 1], ids=["re", "im"])
def test_a_boolean_number_is_refused_at_its_location_in_every_part(layout, number):
    def refused(doc, part):
        pair = part(doc)[0][1]
        pair[number] = bool(number)
        with pytest.raises(InputFormatError) as exc:
            (parse_problem if "operator" in doc else parse_solution)(json.dumps(doc, **LAYOUTS[layout]))
        return exc.value.location

    assert refused(json.loads(_problem_text()), lambda d: d["operator"][1][0]) == "problem.operator[1][0].block[0][1]"
    for field, where in (
        (lambda d: d["pairs"][1]["vector"][1], "solution.pairs[1].vector[1].block[0][1]"),
        (lambda d: d["pairs"][1]["value"], "solution.pairs[1].value.block[0][1]"),
        (lambda d: d["pairs"][1]["support"], "solution.pairs[1].support.block[0][1]"),
    ):
        assert refused(_solution_doc(), field) == where


def test_written_files_take_the_text_path_and_indented_ones_the_tree_path(monkeypatch):
    calls = []
    array_path = moddiag.io._complex_blocks
    monkeypatch.setattr(moddiag.io, "_complex_blocks", lambda *args: calls.append(1) or array_path(*args))
    for K in (parse_problem(_problem_text()), projection_ladder(32).operator):
        solution = serialize_solution(diagonalize_selfadjoint(K))
        for parse, text, parts in ((parse_problem, serialize_problem(K), 1), (parse_solution, solution, 3)):
            calls.clear()
            parse(text)
            assert calls == []  # as written: the text path, whatever the number of algebra blocks
            parse(json.dumps(json.loads(text), indent=2))
            assert len(calls) == parts  # indented: the tree path, once per file part


def _outcome(parse, text):
    """What parse makes of text: the bits it read, or the type and text of the error it raised."""
    try:
        got = parse(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, ModuleOperator):
        return got.module, _bits(got.blocks)
    parts = (got.vectors, got.values, got.supports)
    return got.module, got.pair_labels, got.ordering_certificate, got.tolerance_used, [_bits(p) for p in parts]


def _tree_outcome(monkeypatch, parse, text):
    """_outcome with the text path declining every file, so that the whole text is read as a tree."""
    with monkeypatch.context() as m:
        m.setattr(moddiag.io, "_written", lambda *args: None)
        return _outcome(parse, text)


def _taken(monkeypatch, parse, text) -> bool:
    """Whether the text path reads text."""
    written, results = moddiag.io._written, []
    with monkeypatch.context() as m:
        m.setattr(moddiag.io, "_written", lambda *args: results.append(written(*args)) or results[-1])
        _outcome(parse, text)
    return results[-1] is not None


# what the property test inserts, or writes over a character with
MUTANTS = [*'0123456789.eE+- ,[]{}:"\t\n', "true", "NaN", "1e400", "9" * 400, '"lable"', ', "pairs": ']


def test_the_text_path_reads_every_file_as_the_tree_path_does(monkeypatch):
    rng = random.Random(26)
    files = []
    for sizes in ACCEPTANCE_SHAPES:
        for rank in (1, 2, 3):
            K = random_selfadjoint_operator(module_over(sizes, rank), np.random.default_rng(rank))
            files.append((parse_problem, serialize_problem(K)))
            files.append((parse_solution, serialize_solution(diagonalize_selfadjoint(K))))
    taken = 0
    for _ in range(4000):
        parse, text = rng.choice(files)
        for _ in range(rng.randint(1, 3)):  # delete, insert or replace at one place
            i, edit = rng.randrange(len(text) + 1), rng.randrange(3)
            text = text[:i] + ("" if edit == 0 else rng.choice(MUTANTS)) + text[i + (edit != 1) :]
        assert _outcome(parse, text) == _tree_outcome(monkeypatch, parse, text), text
        taken += _taken(monkeypatch, parse, text)
    assert 200 < taken < 3800  # both paths are taken


_PAIR = re.compile(r"\[(-?[0-9][0-9.eE+-]*), (-?[0-9][0-9.eE+-]*)\]")


def _edit_first_pair(text, edit):
    """text with the first [re, im] pair of its file part replaced by edit(re, im) of their texts."""
    match = _PAIR.search(text, text.index('"module_rank"'))
    return text[: match.start()] + edit(*match.groups()) + text[match.end() :]


def _swap_first(text, a, b):
    """text with the first a and the first b after it swapped."""
    i = text.index(a)
    j = text.index(b, i + len(a))
    return text[:i] + b + text[i + len(a) : j] + a + text[j + len(b) :]


def _closing(text, **fields):
    """text with fields added to the end of its object."""
    return text.rstrip()[:-1] + ", " + json.dumps(fields)[1:-1] + "}\n"


def _label(value, count=1):
    return lambda t: re.sub(r'"label": \d+', f'"label": {value}', t, count)


# name: (file kind, edit of the written file, whether the text path reads the edited file)
TEXT_PATH_CASES = {
    # the structure is compared with its whitespace, and flattening deletes no space
    "space-moved": ("problem", lambda t: _edit_first_pair(t, lambda a, b: f"[{a[:-1]},{a[-1]} {b}]"), False),
    "space-dropped": ("problem", lambda t: _edit_first_pair(t, lambda a, b: f"[{a},{b}]"), False),
    "tab-for-space": ("solution", lambda t: _edit_first_pair(t, lambda a, b: f"[{a},\t{b}]"), False),
    # no slot is empty, so no number moves out of its slot
    "re-moved-out": ("problem", lambda t: _edit_first_pair(t, lambda a, b: f"{a}[, {b}]"), False),
    "im-moved-out": ("problem", lambda t: _edit_first_pair(t, lambda a, b: f"[{a}, ]{b}"), False),
    "label-moved-out": ("solution", lambda t: re.sub(r'\{"label": (\d+), ', r'\1{"label": , ', t, 1), False),
    # keys exactly, and in order
    "lable": ("solution", lambda t: t.replace('"label"', '"lable"', 1), False),
    "la-bel": ("solution", lambda t: t.replace('"label"', '"la bel"', 1), False),
    "label-with-a-digit": ("solution", lambda t: t.replace('"label"', '"lab1el"', 1), False),
    "value-support-swapped": ("solution", lambda t: _swap_first(t, '"value"', '"support"'), False),
    # the text before and after the file part
    "pairs-in-the-tail": ("solution", lambda t: _closing(t, pairs=json.loads(t)["pairs"][::-1]), False),
    "tolerance-in-the-tail": ("solution", lambda t: _closing(t, tolerance=0.5), True),
    "operator-twice": ("problem", lambda t: _closing(t, operator=json.loads(t)["operator"][::-1]), False),
    "operator-in-the-head": ("problem", lambda t: t.replace('{"schema"', '{"operator": 1, "schema"', 1), True),
    "head-keys-swapped": ("problem", lambda t: _swap_first(t, '"schema": 1', '"module_rank": 2'), True),
    "keys-reversed": ("solution", lambda t: json.dumps(dict(reversed(json.loads(t).items()))), False),
    "indented": ("problem", lambda t: json.dumps(json.loads(t), indent=1), False),
    "text-after-the-brace": ("problem", lambda t: t + "x", False),
    "space-after-the-brace": ("problem", lambda t: t + " \t\r\n", True),
    "rank-too-large": ("problem", lambda t: t.replace('"module_rank": 2', '"module_rank": 3'), False),
    "no-pairs": ("solution", lambda t: re.sub(r'"pairs": .*, "certificate"', '"pairs": [], "certificate"', t), False),
    # labels are distinct exact ints of at least 1, and numbers are finite floats
    "label-zero": ("solution", _label(0), False),
    "label-negative": ("solution", _label(-1), False),
    "label-float": ("solution", _label(1.0), False),
    "label-exponent": ("solution", _label("1e0"), False),
    "labels-equal": ("solution", _label(1, 0), False),
    "label-of-400-digits": ("solution", _label(10**400), True),
    "inf": ("problem", lambda t: _edit_first_pair(t, lambda a, b: f"[1e400, {b}]"), False),
    "integer-beyond-the-floats": ("solution", lambda t: _edit_first_pair(t, lambda a, b: f"[{a}, {10**400}]"), False),
    "too-many-digits": ("problem", lambda t: _edit_first_pair(t, lambda a, b: f"[{a}, {'1' * 5000}]"), False),
    "integer-and-exponent": ("problem", lambda t: _edit_first_pair(t, lambda a, b: "[-0, 1E+2]"), True),
    "leading-zero": ("problem", lambda t: _edit_first_pair(t, lambda a, b: f"[01, {b}]"), False),
}


@pytest.mark.parametrize("name", TEXT_PATH_CASES)
def test_the_text_path_keeps_its_rules(monkeypatch, name):
    kind, edit, taken = TEXT_PATH_CASES[name]
    if kind == "problem":
        parse, text = parse_problem, edit(_problem_text())
    else:
        parse, text = parse_solution, edit(serialize_solution(diagonalize_selfadjoint(parse_problem(_problem_text()))))
    assert _taken(monkeypatch, parse, text) == taken
    assert _outcome(parse, text) == _tree_outcome(monkeypatch, parse, text)


# the shape a short file claims is bounded by its length before a skeleton is built
@pytest.mark.parametrize("claim", [{"module_rank": 10**12}, {"algebra": {"blocks": [10**8]}}], ids=["rank", "block"])
@pytest.mark.parametrize("kind", ["problem", "solution"])
def test_a_short_file_claiming_a_huge_shape_exits_2_without_a_large_allocation(tmp_path, capsys, kind, claim):
    head = {"schema": 1, "algebra": {"blocks": [1]}, "module_rank": 1}
    element = [[[0.0, 0.0]]]
    problem = _write(tmp_path, "problem.json", json.dumps({**head, "operator": [[element]]}))
    if kind == "problem":
        problem = _write(tmp_path, "claim.json", json.dumps({**head, **claim, "operator": [[element]]}))
    pair = {"label": 1, "vector": [element], "value": element, "support": element}
    solution = {**head, **claim, "tolerance": 1e-9, "pairs": [pair], "certificate": []}
    args = ["verify", "--input", problem, "--solution", _write(tmp_path, "solution.json", json.dumps(solution))]
    assert len(json.dumps(solution)) < 250
    tracemalloc.start()
    try:
        assert main(args) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert capsys.readouterr().err.startswith(f"input error: {kind}.")


@contextmanager
def _collector(enabled):
    """Run a block with the cyclic collector on or off, then restore the state before it."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def _io_calls(name):
    """The io function called name, an input it reads or writes, and one it refuses mid-parse (or None)."""
    K = parse_problem(_problem_text())
    res = diagonalize_selfadjoint(K)
    problem, solution = json.loads(serialize_problem(K)), json.loads(serialize_solution(res))
    problem["operator"][1][0][0][2] = ["1.5", 0]
    solution["pairs"][1]["value"][0][2] = ["1.5", 0]
    return {
        "parse_problem": (parse_problem, serialize_problem(K), json.dumps(problem)),
        "parse_solution": (parse_solution, serialize_solution(res), json.dumps(solution)),
        "serialize_problem": (serialize_problem, K, None),
        "serialize_solution": (serialize_solution, res, None),
    }[name]


IO_CALLS = ["parse_problem", "parse_solution", "serialize_problem", "serialize_solution"]


# The package changes no interpreter-wide state: an io call that raises
# mid-read or mid-write leaves the cyclic collector as its caller set it.
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("name", IO_CALLS)
def test_io_restores_the_collector_after_an_input_error(monkeypatch, name, enabled):
    fn, good, bad = _io_calls(name)
    if bad is None:  # a writer refuses nothing: the json.dumps of its head fields raises instead

        def dumps(*args, **kwargs):
            raise InputFormatError("refused")

        monkeypatch.setattr(json, "dumps", dumps)
        bad = good
    with _collector(enabled):
        with pytest.raises(InputFormatError):
            fn(bad)
        assert gc.isenabled() == enabled


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
    # faults a parser that flattens a whole file part at once could miss
    ("3+1", ".block[0][2]"),
    ("moved", ".block[0]"),
    ("12", ".block[0][2]"),
    ("dict", ".block[0]"),
]


def _break(element, bad):
    if bad == "ragged":
        del element[0][-1]
    elif bad == "3+1":  # a 3-item pair next to a 1-item pair: as many numbers as before
        element[0][2:] = [[1.0, 0.0, 0.0], [1.0]]
    elif bad == "moved":  # k*k + 1 pairs in block 0 and k*k - 1 in block 1: as many pairs as before
        element[0].append(element[1].pop())
    elif bad == "dict":  # as many keys as block 0 has pairs, each of two characters
        element[0] = {"re": 1.0, "im": 0.0, "ab": 1.0, "cd": 0.0}
    else:
        element[0][2] = bad


@pytest.mark.parametrize(
    "bad, where",
    MALFORMED,
    ids=["true", "string", "null", "nan", "triple", "ragged", "huge-int", "3+1", "moved", "2-char", "dict"],
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
    # a move keeps the item count of the level below it, and a string or
    # dict has a length: only a check at the level of the fault catches them
    (lambda d: _move(d["operator"][1], d["operator"][0]), "problem.operator[0]"),
    (lambda d: _move(d["operator"][1][0], d["operator"][0][0]), "problem.operator[0][0]"),
    (lambda d: d["operator"].__setitem__(1, "ab"), "problem.operator[1]"),
    (lambda d: d["operator"][1].__setitem__(0, {"re": 1.0, "im": 0.0}), "problem.operator[1][0]"),
    (lambda d: _move(d["pairs"][1]["vector"], d["pairs"][0]["vector"]), "solution.pairs[0].vector"),
    (lambda d: _move(d["pairs"][1]["value"], d["pairs"][0]["value"]), "solution.pairs[0].value"),
]


def _move(source, target):
    target.append(source.pop())


@pytest.mark.parametrize(
    "fault, where",
    STRUCTURAL,
    ids=[
        "sizes", "extra-block", "sizes", "extra-block", "extra-block", "duplicate-label", "no-value",
        "moved-cell", "moved-block", "string-row", "dict-cell", "moved-coordinate", "moved-value-block",
    ],
)
def test_structural_faults_are_located_like_the_walk(fault, where):
    problem = where.startswith("problem")
    doc = json.loads(_problem_text()) if problem else _solution_doc()
    fault(doc)
    with pytest.raises(InputFormatError) as exc:
        (parse_problem if problem else parse_solution)(json.dumps(doc))
    assert exc.value.location == where


def test_labels_and_fields_are_checked_before_any_numbers():
    # a solution with two faults: every pair's label and fields come first
    doc = _solution_doc()
    doc["pairs"][0]["vector"][0][0][0] = ["1.5", 0]
    doc["pairs"][1]["label"] = 1.5
    with pytest.raises(InputFormatError) as exc:
        parse_solution(json.dumps(doc))
    assert exc.value.location == "solution.pairs[1]" and "'label' must be an integer" in exc.value.reason
    # a problem names its first fault in reading order
    doc = json.loads(_problem_text())
    doc["operator"][1][1][0][0] = None
    doc["operator"][0][1][1] = "ragged"
    with pytest.raises(InputFormatError) as exc:
        parse_problem(json.dumps(doc))
    assert exc.value.location == "problem.operator[0][1].block[1]"


def test_a_large_integer_reads_as_its_float():
    K = parse_problem(_problem_text())
    for large in (10**20, 2**64 + 1):  # above int64 and uint64
        for note in (False, True):
            doc = json.loads(_problem_text())
            doc["operator"][0][0][0][0] = [large, 0]
            if note:
                doc["note"] = True
            want = [blk.copy() for blk in K.blocks]
            want[0][0, 0] = float(large)
            for layout in LAYOUTS.values():  # the text path reads only the default layout without a note
                assert _bits(parse_problem(json.dumps(doc, **layout)).blocks) == _bits(want)


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
    # when the verifier's ordering slack grew with the claimed tolerance, a
    # claim of 1e300 passed a certificate whose labels 1 and 2 are swapped
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
    for name, text in (("plain.json", json.dumps(doc)), ("note.json", json.dumps(dict(doc, note=True)))):
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
    for name, text in (("plain.json", json.dumps(doc)), ("note.json", json.dumps(dict(doc, note=True)))):
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


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_cli_report_stays_json_when_residuals_overflow(tmp_path, capsys):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4))
    problem = _write(tmp_path, "problem.json", serialize_problem(ModuleOperator(module_over((2,), 2), [(m + m.T) / 2])))
    solution = str(tmp_path / "solution.json")
    assert main(["diagonalize", "--input", problem, "--solution", solution]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    doc["pairs"][0]["vector"][0][0][0] = [1e300, 0]
    tampered = _write(tmp_path, "tampered.json", json.dumps(doc))
    report = str(tmp_path / "report.json")
    capsys.readouterr()
    assert main(["verify", "--input", problem, "--solution", tampered, "--out", report]) == 1
    out = capsys.readouterr().out
    residuals = _strict_json((tmp_path / "report.json").read_text())["residuals"]
    # non-finite residuals read as summary() prints them
    assert residuals["eigen"] == "inf" and "eigen residual:         inf" in out
    assert residuals["orthogonality"] == residuals["projection"] == "inf"
    assert isinstance(residuals["support"], float)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alphas", ["inf,1", "1,nan"])
def test_cli_prop4_rejects_non_finite_couplings(capsys, alphas):
    assert main(["prop4", "--n", "2", "--alphas", alphas]) == 2
    assert capsys.readouterr().err == "input error: arguments: coupling values must be finite\n"


def test_cli_prop4_refuses_couplings_past_the_input_bound(capsys):
    # (blk + blk*) / 2 overflowed before the solver: exit 1 with a traceback
    assert main(["prop4", "--n", "3", "--alphas", "1e308,1e307,1e306"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: arguments: ") and err.count("\n") == 1
    assert main(["prop4", "--n", "3", "--alphas", "1.5e300,1e300,1e299"]) == 0
