"""JSON formats for problems, solutions, and verification reports.

All files are UTF-8 JSON with a top-level "schema": 1 marker. Complex
numbers are stored as [re, im] pairs and matrix blocks as flat row-major
lists of such pairs, so every value survives a round trip bit for bit.
Problems and solutions are written compactly; whitespace is not part of the
schema. Parsing errors carry a location string naming the offending field.

Numbers move one array at a time: each algebra block of an operator grid,
and of all vectors, values and supports of a solution, is read by one
np.array call and written by one tolist call. np.array is more lenient than
the schema, so the array path accepts only an exactly shaped, finite int or
float array from a text holding no JSON boolean. Anything else goes to the
entry-by-entry walk, which either raises the error with its location or
returns the same numbers.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AlgebraShape
from .diagonalize import DiagonalizationResult, OrderRelation
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

# Largest magnitude, exclusive, of a number in a problem's operator. Below
# it every eigenvalue, symmetrized entry and power-of-two scaling exponent
# of the pipeline stays finite. A nonzero operator's largest magnitude must
# reach _MIN_ENTRY, so that the residuals and their bounds stay clear of
# the subnormal range (docs/design-notes.md, "Input bound").
_MAX_ENTRY = 2.0**1000
_MIN_ENTRY = 2.0**-1000


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
    except ValueError:  # the only other one: an integer literal over the interpreter's digit limit
        raise InputFormatError("invalid JSON: integer literal has too many digits") from None
    except RecursionError:
        raise InputFormatError("invalid JSON: nested too deeply") from None


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
    try:
        out = float(val)
    except OverflowError:
        raise InputFormatError("number is too large for a float", loc) from None
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


# The walk: entry by entry, with the location of the first fault. It reads
# whatever the array path rejects.


def _parse_block(data, k: int, loc: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != k * k:
        raise InputFormatError(f"expected {k * k} [re, im] pairs", loc)
    flat = np.empty(k * k, dtype=np.complex128)
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputFormatError("expected an [re, im] pair", f"{loc}[{i}]")
        flat[i] = complex(_number(pair[0], f"{loc}[{i}]"), _number(pair[1], f"{loc}[{i}]"))
    return flat


def _parse_alg(data, shape: AlgebraShape, loc: str) -> list:
    """One algebra element as its flat, row-major blocks."""
    if not isinstance(data, list) or len(data) != shape.num_blocks:
        raise InputFormatError(f"expected {shape.num_blocks} blocks", loc)
    return [
        _parse_block(blk, k, f"{loc}.block[{b}]")
        for b, (blk, k) in enumerate(zip(data, shape.block_sizes))
    ]


def _walk_operator(op, module: HilbertModule) -> list:
    rank = module.rank
    if not isinstance(op, list) or len(op) != rank:
        raise InputFormatError(f"'operator' must be a {rank}x{rank} array", "problem.operator")
    cells = []
    for i, row in enumerate(op):
        if not isinstance(row, list) or len(row) != rank:
            raise InputFormatError(f"row must have {rank} entries", f"problem.operator[{i}]")
        cells.append([_parse_alg(cell, module.shape, f"problem.operator[{i}][{j}]") for j, cell in enumerate(row)])
    return [np.array([[c[b] for c in row] for row in cells]) for b in range(module.shape.num_blocks)]


def _walk_pairs(raw_pairs: list, module: HilbertModule) -> tuple:
    shape, rank = module.shape, module.rank
    labels, vectors, values, supports = [], [], [], []
    for idx, rp in enumerate(raw_pairs):
        loc = f"solution.pairs[{idx}]"
        label = _int_field(rp, "label", loc, 1)
        if label in labels:
            raise InputFormatError(f"duplicate label {label}", loc)
        labels.append(label)
        vec = _field(rp, "vector", loc)
        if not isinstance(vec, list) or len(vec) != rank:
            raise InputFormatError(f"'vector' must have {rank} coordinates", f"{loc}.vector")
        coords = [_parse_alg(c, shape, f"{loc}.vector[{i}]") for i, c in enumerate(vec)]
        vectors.append(list(zip(*coords)))  # per algebra block, the pair's coordinates
        values.append(_parse_alg(_field(rp, "value", loc), shape, f"{loc}.value"))
        supports.append(_parse_alg(_field(rp, "support", loc), shape, f"{loc}.support"))
    blocks = range(shape.num_blocks)
    return labels, *([np.array([x[b] for x in part]) for b in blocks] for part in (vectors, values, supports))


# The array path: None wherever the walk has to decide.


def _may_hold_booleans(text: str) -> bool:
    # np.array reads a JSON true or false as 1 or 0 without complaint
    return "true" in text or "false" in text


def _complex_array(nested, shape: tuple):
    """Nested [re, im] pairs as a complex array of shape[:-1].

    None unless np.array gives exactly shape, an int or float dtype and
    finite entries.
    """
    try:
        arr = np.array(nested)
    except ValueError:  # ragged or too deep
        return None
    if arr.shape != shape or arr.dtype.kind not in "fiu" or not np.isfinite(arr).all():
        return None
    return arr.astype(np.float64, copy=False).view(np.complex128)[..., 0]


def _list_of(data, length: int) -> bool:
    return isinstance(data, list) and len(data) == length


def _stacked_strips(coords: np.ndarray, k: int) -> np.ndarray:
    """(..., n, k*k) coordinate blocks to (..., k, n*k) row strips."""
    *lead, n, _ = coords.shape
    return coords.reshape(*lead, n, k, k).swapaxes(-3, -2).reshape(*lead, k, n * k)


def _coordinate_blocks(strips: np.ndarray, k: int) -> np.ndarray:
    """(..., k, n*k) row strips to (..., n, k*k) coordinate blocks."""
    *lead, _, width = strips.shape
    n = width // k
    return strips.reshape(*lead, k, n, k).swapaxes(-3, -2).reshape(*lead, n, k * k)


def _array_operator(op, module: HilbertModule):
    rank, r = module.rank, module.shape.num_blocks
    if not _list_of(op, rank) or not all(
        _list_of(row, rank) and all(_list_of(cell, r) for cell in row) for row in op
    ):
        return None
    grids = []
    for b, k in enumerate(module.shape.block_sizes):
        grid = _complex_array([[cell[b] for cell in row] for row in op], (rank, rank, k * k, 2))
        if grid is None:
            return None
        grids.append(grid)
    return grids


def _array_pairs(raw_pairs: list, module: HilbertModule):
    """Labels and per-block stacks of the P pairs, as the walk returns them.

    Per algebra block: the (P, n, k*k) vector coordinates and the (P, k*k)
    values and supports, each block flattened row-major.
    """
    shape, rank = module.shape, module.rank
    r = shape.num_blocks
    if not all(isinstance(rp, dict) for rp in raw_pairs):
        return None
    labels = [rp.get("label") for rp in raw_pairs]
    if not all(isinstance(lb, int) and not isinstance(lb, bool) and lb >= 1 for lb in labels):
        return None
    if len(set(labels)) != len(labels):
        return None
    try:
        vectors = [rp["vector"] for rp in raw_pairs]
        values = [rp["value"] for rp in raw_pairs]
        supports = [rp["support"] for rp in raw_pairs]
    except KeyError:
        return None
    if not (
        all(_list_of(v, rank) and all(_list_of(c, r) for c in v) for v in vectors)
        and all(_list_of(a, r) for a in values + supports)
    ):
        return None
    count = len(raw_pairs)
    vecs, vals, sups = [], [], []
    for b, k in enumerate(shape.block_sizes):
        vecs.append(_complex_array([[c[b] for c in v] for v in vectors], (count, rank, k * k, 2)))
        vals.append(_complex_array([a[b] for a in values], (count, k * k, 2)))
        sups.append(_complex_array([a[b] for a in supports], (count, k * k, 2)))
        if vecs[-1] is None or vals[-1] is None or sups[-1] is None:
            return None
    return labels, vecs, vals, sups


def _pair_lists(z: np.ndarray) -> list:
    """A complex array as nested lists whose innermost items are [re, im] pairs."""
    return np.ascontiguousarray(z).view(np.float64).reshape(*z.shape, 2).tolist()


def parse_problem(text: str) -> ModuleOperator:
    obj = _loads(text)
    _check_schema(obj, "problem")
    shape = _parse_shape(obj, "problem")
    rank = _int_field(obj, "module_rank", "problem", 1)
    module = HilbertModule(shape, rank)
    op = _field(obj, "operator", "problem")
    # grids[b][i, j] is block b of entry (i, j), flattened row-major
    grids = None if _may_hold_booleans(text) else _array_operator(op, module)
    if grids is None:
        grids = _walk_operator(op, module)
    top = max(max(np.abs(g.real).max(), np.abs(g.imag).max()) for g in grids)
    if top >= _MAX_ENTRY:
        raise InputFormatError("every number must be below 2**1000 in magnitude", "problem.operator")
    if 0.0 < top < _MIN_ENTRY:
        raise InputFormatError(
            "the largest number must be at least 2**-1000 in magnitude, or the operator zero", "problem.operator"
        )
    # row strip i of the stacked matrix holds entries (i, 0..n-1)
    mats = [_stacked_strips(g, k).reshape(rank * k, rank * k) for g, k in zip(grids, shape.block_sizes)]
    return ModuleOperator(module, mats)


def serialize_problem(K: ModuleOperator) -> str:
    n = K.module.rank
    # grids[b][i][j] is block b of entry (i, j), read from row strip i
    grids = [
        _pair_lists(_coordinate_blocks(blk.reshape(n, k, n * k), k))
        for k, blk in zip(K.module.shape.block_sizes, K.blocks)
    ]
    obj = {
        "schema": SCHEMA,
        "algebra": {"blocks": list(K.module.shape.block_sizes)},
        "module_rank": n,
        "operator": [[[g[i][j] for g in grids] for j in range(n)] for i in range(n)],
    }
    return json.dumps(obj) + "\n"


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
    if not 0.0 < tolerance < 1.0:
        raise InputFormatError("tolerance must lie strictly between 0 and 1", "solution.tolerance")
    raw_pairs = _field(obj, "pairs", "solution")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise InputFormatError("'pairs' must be a nonempty list", "solution.pairs")
    stacks = None if _may_hold_booleans(text) else _array_pairs(raw_pairs, module)
    if stacks is None:
        stacks = _walk_pairs(raw_pairs, module)
    labels, vecs, vals, sups = stacks
    raw_cert = _field(obj, "certificate", "solution")
    if not isinstance(raw_cert, list):
        raise InputFormatError("'certificate' must be a list", "solution.certificate")
    cert = [
        _parse_relation(r, f"solution.certificate[{i}]") for i, r in enumerate(raw_cert)
    ]
    sizes = shape.block_sizes
    strips = tuple(_stacked_strips(v, k) for v, k in zip(vecs, sizes))
    vals, sups = (tuple(a.reshape(-1, k, k) for a, k in zip(arrays, sizes)) for arrays in (vals, sups))
    return DiagonalizationResult(module, tuple(labels), strips, vals, sups, tuple(cert), tolerance)


def serialize_solution(result: DiagonalizationResult) -> str:
    module = result.module
    n, count = module.rank, len(result.pair_labels)
    # per algebra block b: vectors[b][p][i], values[b][p] and supports[b][p]
    vectors, values, supports = [], [], []
    for b, k in enumerate(module.shape.block_sizes):
        vectors.append(_pair_lists(_coordinate_blocks(result.vectors[b], k)))
        values.append(_pair_lists(result.values[b].reshape(count, k * k)))
        supports.append(_pair_lists(result.supports[b].reshape(count, k * k)))
    obj = {
        "schema": SCHEMA,
        "algebra": {"blocks": list(module.shape.block_sizes)},
        "module_rank": n,
        "tolerance": result.tolerance_used,
        "pairs": [
            {
                "label": label,
                "vector": [[v[idx][i] for v in vectors] for i in range(n)],
                "value": [v[idx] for v in values],
                "support": [s[idx] for s in supports],
            }
            for idx, label in enumerate(result.pair_labels)
        ],
        "certificate": [
            {"lhs": rel.lhs, "rhs": rel.rhs} for rel in result.ordering_certificate
        ],
    }
    return json.dumps(obj) + "\n"


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
