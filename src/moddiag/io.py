"""JSON formats for problems, solutions, and verification reports.

All files are UTF-8 JSON with a top-level "schema": 1 marker. Complex
numbers are stored as [re, im] pairs and matrix blocks as flat row-major
lists of such pairs, so every value survives a round trip bit for bit.
Parsing errors carry a location string naming the offending field.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .diagonalize import DiagonalizationResult, EigenPair, OrderRelation
from .modules import HilbertModule
from .operators import ModuleOperator
from .verify import VerificationReport

__all__ = [
    "SCHEMA",
    "InputFormatError",
    "parse_problem",
    "serialize_problem",
    "parse_solution",
    "serialize_solution",
    "serialize_report",
]

SCHEMA = 1


class InputFormatError(ValueError):
    """Malformed input file; location names the field or line at fault."""

    def __init__(self, message: str, location: str = "input"):
        self.location = location
        self.reason = message
        super().__init__(f"{location}: {message}")


def _loads(text: str):
    if not text.strip():
        raise InputFormatError("file is empty", "line 1")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from None


def _field(obj, key: str, loc: str):
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object", loc)
    if key not in obj:
        raise InputFormatError(f"missing field '{key}'", loc)
    return obj[key]


def _int_field(obj, key: str, loc: str, minimum: int):
    val = _field(obj, key, loc)
    if isinstance(val, bool) or not isinstance(val, int):
        raise InputFormatError(f"field '{key}' must be an integer", loc)
    if val < minimum:
        raise InputFormatError(f"field '{key}' must be at least {minimum}", loc)
    return val


def _number(val, loc: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise InputFormatError("expected a number", loc)
    out = float(val)
    if not np.isfinite(out):
        raise InputFormatError("number is not finite", loc)
    return out


def _check_schema(obj, loc: str):
    val = _field(obj, "schema", loc)
    if val != SCHEMA:
        raise InputFormatError(f"unsupported schema {val!r}, expected {SCHEMA}", f"{loc}.schema")


def _parse_shape(obj, loc: str) -> AlgebraShape:
    alg = _field(obj, "algebra", loc)
    blocks = _field(alg, "blocks", f"{loc}.algebra")
    if not isinstance(blocks, list) or not blocks:
        raise InputFormatError("'blocks' must be a nonempty list", f"{loc}.algebra.blocks")
    sizes = []
    for i, k in enumerate(blocks):
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise InputFormatError("block sizes must be positive integers", f"{loc}.algebra.blocks[{i}]")
        sizes.append(k)
    return AlgebraShape(tuple(sizes))


def _parse_block(data, k: int, loc: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != k * k:
        raise InputFormatError(f"expected {k * k} [re, im] pairs", loc)
    flat = np.empty(k * k, dtype=np.complex128)
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputFormatError("expected an [re, im] pair", f"{loc}[{i}]")
        flat[i] = complex(_number(pair[0], f"{loc}[{i}]"), _number(pair[1], f"{loc}[{i}]"))
    return flat.reshape(k, k)


def _parse_alg(data, shape: AlgebraShape, loc: str) -> AlgebraElement:
    if not isinstance(data, list) or len(data) != shape.num_blocks:
        raise InputFormatError(f"expected {shape.num_blocks} blocks", loc)
    mats = [
        _parse_block(blk, k, f"{loc}.block[{b}]")
        for b, (blk, k) in enumerate(zip(data, shape.block_sizes))
    ]
    return AlgebraElement(shape, mats)


def _serialize_alg(a: AlgebraElement) -> list:
    out = []
    for blk in a.blocks:
        out.append([[float(z.real), float(z.imag)] for z in blk.ravel()])
    return out


def parse_problem(text: str) -> ModuleOperator:
    obj = _loads(text)
    _check_schema(obj, "problem")
    shape = _parse_shape(obj, "problem")
    rank = _int_field(obj, "module_rank", "problem", 1)
    module = HilbertModule(shape, rank)
    op = _field(obj, "operator", "problem")
    if not isinstance(op, list) or len(op) != rank:
        raise InputFormatError(f"'operator' must be a {rank}x{rank} array", "problem.operator")
    entries = []
    for i, row in enumerate(op):
        if not isinstance(row, list) or len(row) != rank:
            raise InputFormatError(f"row must have {rank} entries", f"problem.operator[{i}]")
        entries.append(
            [_parse_alg(cell, shape, f"problem.operator[{i}][{j}]") for j, cell in enumerate(row)]
        )
    return ModuleOperator.from_entries(module, entries)


def serialize_problem(K: ModuleOperator) -> str:
    obj = {
        "schema": SCHEMA,
        "algebra": {"blocks": list(K.module.shape.block_sizes)},
        "module_rank": K.module.rank,
        "operator": [
            [_serialize_alg(K.entry(i, j)) for j in range(K.module.rank)]
            for i in range(K.module.rank)
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def _parse_relation(data, loc: str) -> OrderRelation:
    sides = []
    for key in ("lhs", "rhs"):
        val = _field(data, key, loc)
        if val is None:
            sides.append(None)
        elif isinstance(val, bool) or not isinstance(val, int) or val < 1:
            raise InputFormatError(f"'{key}' must be a positive label or null", loc)
        else:
            sides.append(val)
    return OrderRelation(sides[0], sides[1])


def parse_solution(text: str) -> DiagonalizationResult:
    obj = _loads(text)
    _check_schema(obj, "solution")
    shape = _parse_shape(obj, "solution")
    rank = _int_field(obj, "module_rank", "solution", 1)
    module = HilbertModule(shape, rank)
    tolerance = _number(_field(obj, "tolerance", "solution"), "solution.tolerance")
    if tolerance <= 0:
        raise InputFormatError("tolerance must be positive", "solution.tolerance")
    raw_pairs = _field(obj, "pairs", "solution")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise InputFormatError("'pairs' must be a nonempty list", "solution.pairs")
    pairs = []
    seen = set()
    for idx, rp in enumerate(raw_pairs):
        loc = f"solution.pairs[{idx}]"
        label = _int_field(rp, "label", loc, 1)
        if label in seen:
            raise InputFormatError(f"duplicate label {label}", loc)
        seen.add(label)
        vec = _field(rp, "vector", loc)
        if not isinstance(vec, list) or len(vec) != rank:
            raise InputFormatError(f"'vector' must have {rank} coordinates", f"{loc}.vector")
        coords = [
            _parse_alg(c, shape, f"{loc}.vector[{i}]") for i, c in enumerate(vec)
        ]
        value = _parse_alg(_field(rp, "value", loc), shape, f"{loc}.value")
        support = _parse_alg(_field(rp, "support", loc), shape, f"{loc}.support")
        pairs.append(EigenPair(module.element(coords), value, support, label))
    raw_cert = _field(obj, "certificate", "solution")
    if not isinstance(raw_cert, list):
        raise InputFormatError("'certificate' must be a list", "solution.certificate")
    cert = [
        _parse_relation(r, f"solution.certificate[{i}]") for i, r in enumerate(raw_cert)
    ]
    return DiagonalizationResult(tuple(pairs), tuple(cert), tolerance)


def serialize_solution(result: DiagonalizationResult) -> str:
    if not result.pairs:
        raise ValueError("cannot serialize an empty result")
    module = result.pairs[0].vector.module
    obj = {
        "schema": SCHEMA,
        "algebra": {"blocks": list(module.shape.block_sizes)},
        "module_rank": module.rank,
        "tolerance": result.tolerance_used,
        "pairs": [
            {
                "label": p.label,
                "vector": [_serialize_alg(c) for c in p.vector.coords()],
                "value": _serialize_alg(p.value),
                "support": _serialize_alg(p.support),
            }
            for p in result.pairs
        ],
        "certificate": [
            {"lhs": rel.lhs, "rhs": rel.rhs} for rel in result.ordering_certificate
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def serialize_report(report: VerificationReport) -> str:
    obj = {
        "schema": SCHEMA,
        "overall": "pass" if report.overall else "fail",
        "tolerance": report.tolerance,
        "moment_tolerance": report.moment_tolerance,
        "operator_scale": report.operator_scale,
        "residuals": {
            "eigen": report.eigen_residual,
            "orthogonality": report.orthogonality_residual,
            "projection": report.projection_defect,
            "support": report.support_residual,
        },
        "worst_pairs": report.worst_pairs,
        "complement_trivial": report.complement_trivial,
        "ordering_ok": report.ordering_ok,
        "oracle_ok": report.oracle_ok,
        "moment_worst": report.moment_worst,
        "certificate": list(report.relations),
    }
    return json.dumps(obj, indent=2) + "\n"
