"""JSON formats for problems, solutions, and verification reports.

All files are UTF-8 JSON with a top-level "schema": 1 marker. Complex
numbers are stored as [re, im] pairs and matrix blocks as flat row-major
lists of such pairs, so every value survives a round trip bit for bit.
Problems and solutions are written compactly; whitespace is not part of the
schema. Parsing errors carry a location string naming the offending field.

Numbers move one array at a time, by one of two paths. A file laid out
exactly as the writers write it takes the text path (_written): its text
is checked against the writers' own skeleton, built from the module's
shape with a slot per number and per pair label (_skeleton), and all its
numbers are read by one json.loads of a flat list. Any other file takes
the tree path: json.loads of the whole text, then, per file part (a
problem's operator grid; a solution's vectors, values and supports), one
walk (_walk) checks each list level and each leaf in reading order and
raises the first fault with its location. Both paths end in one np.array
call per part (_number_blocks). The text path never raises: it declines,
so values, errors and their locations are the tree path's. A file is
written by one % format of the skeleton, filled from one tolist call of
the joined stacks; %r writes a float or an int as json.dumps does.

A file with several faults reports one of them. A problem names its first
fault in reading order. A solution first checks every pair's label and
fields, then the numbers of all vectors, then of all values, then of all
supports, and names the first fault in that order: a bad label in pair 1
is reported before a bad number in pair 0's vector.
"""

from __future__ import annotations

import json
import math
from itertools import chain

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

# The types of a file number, tested exactly: json.loads makes no subclass,
# and a JSON true or false (a bool, a subclass of int) is no number.
_NUMBER_TYPES = {int, float}

# The text path's tables: the characters a JSON number is made of, the
# punctuation it reads as spaces, the keys of a solution's pair, and the
# character pairs that show an empty slot.
_NUMBER_CHARS = b"0123456789.eE+-"
_FLATTEN = bytes.maketrans(b"[]{}:", b"     ")
_PAIR_KEYS = [b"label", b"vector", b"value", b"support"]
_EMPTY_SLOTS = np.frombuffer(b"[, , ]", "<u2")


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
        raise InputFormatError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}") from None
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
    if type(val) is not int:
        raise InputFormatError(f"field '{key}' must be an integer", loc)
    if val < minimum:
        raise InputFormatError(f"field '{key}' must be at least {minimum}", loc)
    return val


def _number(val, loc: str) -> float:
    if type(val) not in _NUMBER_TYPES:
        raise InputFormatError("expected a number", loc)
    try:
        out = float(val)
    except OverflowError:
        raise InputFormatError("number is too large for a float", loc) from None
    if not math.isfinite(out):
        raise InputFormatError("number is not finite", loc)
    return out


def _check_schema(obj, loc: str):
    val = _field(obj, "schema", loc)
    if type(val) is not int or val != SCHEMA:
        raise InputFormatError(f"unsupported schema {val!r}, expected {SCHEMA}", f"{loc}.schema")


def _parse_shape(obj, loc: str) -> AlgebraShape:
    alg = _field(obj, "algebra", loc)
    blocks = _field(alg, "blocks", f"{loc}.algebra")
    if not isinstance(blocks, list) or not blocks:
        raise InputFormatError("'blocks' must be a nonempty list", f"{loc}.algebra.blocks")
    sizes = []
    for i, k in enumerate(blocks):
        if type(k) is not int or k < 1:
            raise InputFormatError("block sizes must be positive integers", f"{loc}.algebra.blocks[{i}]")
        sizes.append(k)
    return AlgebraShape(tuple(sizes))


def _element_levels(sizes: tuple) -> list:
    """The list levels of one algebra element, as (lengths, message, suffix).

    lengths is cycled over the items of the level, message (formatted with
    the expected length) is the error for an item of the wrong type or
    length, and suffix (formatted with a child's index) extends the item's
    location to the child's.
    """
    return [
        ((len(sizes),), "expected {} blocks", ".block[{}]"),
        (tuple(k * k for k in sizes), "expected {} [re, im] pairs", "[{}]"),
        ((2,), "expected an [re, im] pair", ""),
    ]


def _walk(node, levels: list, leaves: list, depth: int = 0, index: int = 0) -> None:
    """Check node, an item of levels[depth], and append its leaves, as floats, to leaves.

    Depth first, in reading order: raise InputFormatError at the first item
    that is not a list of its level's length, or a leaf that is not a finite
    number. The fault's location is relative to node: each level prefixes
    its child's suffix only on the way out of a fault, so a valid part
    formats no location.
    """
    lengths, message, suffix = levels[depth]
    want = lengths[index % len(lengths)]
    if not isinstance(node, list) or len(node) != want:
        raise InputFormatError(message.format(want), "")
    if depth + 1 < len(levels):
        try:
            for i, child in enumerate(node):
                _walk(child, levels, leaves, depth + 1, i)
        except InputFormatError as exc:
            raise InputFormatError(exc.reason, suffix.format(i) + exc.location) from None
    else:
        leaves += [_number(child, "") for child in node]  # a number is located at its pair


def _number_blocks(numbers: list, lead: tuple, squares: tuple) -> list | None:
    """A flat list of [re, im] numbers, made an array by one np.array call,
    as one contiguous complex array of shape lead + (k*k,) per algebra
    block (squares gives each k*k); None if a number is not finite or lies
    beyond the float range."""
    try:
        flat = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(flat).all():
        return None
    z = flat.view(np.complex128).reshape(*lead, sum(squares))
    return [np.ascontiguousarray(blk) for blk in np.split(z, np.cumsum(squares)[:-1], axis=-1)]


def _complex_blocks(part, levels: list, loc: str) -> list:
    """One file part's [re, im] pairs, read from its tree, as one complex array per algebra block.

    part is the file part as nested lists, and levels gives its list levels
    from the outside in: those of the part's lead ((n, n) for a problem's
    operator grid, (P, n) for a solution's vectors, (P,) for its values or
    supports), then the three of _element_levels. _walk checks the part,
    and its leaves go to _number_blocks.
    """
    leaves = []
    try:
        _walk(part, levels, leaves)
    except InputFormatError as exc:
        raise InputFormatError(exc.reason, loc + exc.location) from None
    return _number_blocks(leaves, tuple(lengths[0] for lengths, _, _ in levels[:-3]), levels[-2][0])


def _stacked_strips(coords: np.ndarray, k: int) -> np.ndarray:
    """(..., n, k*k) coordinate blocks to (..., k, n*k) row strips."""
    *lead, n, _ = coords.shape
    return coords.reshape(*lead, n, k, k).swapaxes(-3, -2).reshape(*lead, k, n * k)


def _coordinate_blocks(strips: np.ndarray, k: int) -> np.ndarray:
    """(..., k, n*k) row strips to (..., n, k*k) coordinate blocks."""
    *lead, _, width = strips.shape
    n = width // k
    return strips.reshape(*lead, k, n, k).swapaxes(-3, -2).reshape(*lead, n, k * k)


def _parse_pairs(raw_pairs: list, module: HilbertModule) -> tuple:
    """Labels and per-block stacks of the P pairs.

    Every pair's label and fields are checked before the numbers of any pair.
    Per algebra block: the (P, n, k*k) vector coordinates and the (P, k*k)
    values and supports, each block flattened row-major.
    """
    labels = {}
    for idx, rp in enumerate(raw_pairs):
        loc = f"solution.pairs[{idx}]"
        label = _int_field(rp, "label", loc, 1)
        if label in labels:
            raise InputFormatError(f"duplicate label {label}", loc)
        labels[label] = None  # an ordered set
        for key in ("vector", "value", "support"):
            _field(rp, key, loc)
    elements = _element_levels(module.shape.block_sizes)

    def part(key, *coordinates):
        levels = [((len(raw_pairs),), "expected {} pairs", f"[{{}}].{key}"), *coordinates, *elements]
        return _complex_blocks([rp[key] for rp in raw_pairs], levels, "solution.pairs")

    vecs = part("vector", ((module.rank,), "'vector' must have {} coordinates", "[{}]"))
    return list(labels), vecs, part("value"), part("support")


def _skeleton(sizes: tuple, rank: int, count: int | None = None, slot: str = "%r") -> str:
    """The text of a written file part, with slot in place of each number.

    Without count, a problem's operator grid: rank rows of rank algebra
    elements. With count, a solution's count pairs, whose labels are slots
    too. An element is, per block, its k*k [re, im] pairs, and lists are
    separated as json.dumps separates them.
    """

    def listed(item: str, n: int) -> str:
        return "[" + ", ".join([item] * n) + "]"

    element = "[" + ", ".join(listed(f"[{slot}, {slot}]", k * k) for k in sizes) + "]"
    if count is None:
        return listed(listed(element, rank), rank)
    pair = f'{{"label": {slot}, "vector": {listed(element, rank)}, "value": {element}, "support": {element}}}'
    return listed(pair, count)


def _written(text: str, key: str, end: str, read_fields):
    """The text path: (read_fields(fields), labels, blocks) of a file laid
    out as the writers write it; None leaves any other text to the tree
    path. read_fields returns a tuple that starts with the file's module.

    span, the part key's text, runs from after the first ', "key": ' to the
    last end. The text around it is read as two objects, whose fields go to
    read_fields; the closing one must not hold key. Deleting the number
    characters from span must leave the _skeleton's text less its slots,
    whitespace kept; no slot may be empty; the quoted strings must be the
    skeleton's keys. Then one json.loads of the rest as a flat list puts
    one JSON number in each slot (docs/design-notes.md, "Array-at-a-time
    I/O"). A solution's labels are taken out before _number_blocks.
    """
    sep = f', "{key}": '
    start, stop = text.find(sep), text.rfind(end)
    if not 0 <= start < stop or not text.isascii():
        return None
    try:
        head, tail = json.loads(text[:start] + "}"), json.loads("{" + text[stop:].removeprefix(","))
        if key in tail:
            return None
        fields = read_fields({**head, **tail})
    except (ValueError, RecursionError):  # InputFormatError and JSONDecodeError are ValueErrors
        return None
    module = fields[0]
    sizes, n, span = module.shape.block_sizes, module.rank, text[start + len(sep) : stop].encode()
    count = span.count(b"{") if key == "pairs" else None
    width = 2 * sum(k * k for k in sizes)  # the numbers of an algebra element
    stride = 1 + (n + 2) * width  # a pair's label, vector, value and support
    if len(span) < (n * n * width if count is None else count * stride):  # bound the skeleton by span first
        return None
    if span.translate(None, _NUMBER_CHARS) != _skeleton(sizes, n, count, "").encode().translate(None, _NUMBER_CHARS):
        return None
    # an empty slot shows as "[,", " ," or " ]", at an even or an odd offset
    halves = (np.frombuffer(span, "<u2", (len(span) - i) // 2, i) for i in (0, 1))
    if any((half == pair).any() for half in halves for pair in _EMPTY_SLOTS):
        return None
    if count is not None:
        parts = span.split(b'"')
        if parts[1::2] != _PAIR_KEYS * count:
            return None
        span = b" ".join(parts[::2])
        del parts
    flat = b"[" + span.translate(_FLATTEN) + b"]"
    del span
    try:
        numbers = json.loads(flat)
    except ValueError:  # a JSONDecodeError, or an integer over the interpreter's digit limit
        return None
    labels = None
    if count is not None:
        labels = numbers[::stride]
        if set(map(type, labels)) != {int} or min(labels) < 1 or len(set(labels)) < count:
            return None
        del numbers[::stride]
    blocks = _number_blocks(numbers, (n, n) if count is None else (count, n + 2), tuple(k * k for k in sizes))
    return None if blocks is None else (fields, labels, blocks)


def _number_rows(parts: list) -> list:
    """A file's numbers in writing order, one row per item of the parts' common first axis.

    Each part is a list of per-block complex128 arrays in _number_blocks's
    layout, lead + (k*k,). Row p holds item p of each part in turn, each
    entry's blocks joined, as re, im floats, all made by one tolist call.
    """
    rows = [np.concatenate(blocks, axis=-1).reshape(len(blocks[0]), -1) for blocks in parts]
    return np.concatenate(rows, axis=1).view(np.float64).tolist()


def _fields(**fields) -> str:
    """A JSON object's fields as json.dumps writes them, without the braces."""
    return json.dumps(fields)[1:-1]


def _module(obj, loc: str) -> HilbertModule:
    _check_schema(obj, loc)
    shape = _parse_shape(obj, loc)
    return HilbertModule(shape, _int_field(obj, "module_rank", loc, 1))


def parse_problem(text: str) -> ModuleOperator:
    """The operator of a problem file's text; a fault raises InputFormatError with its location."""
    # grids[b][i, j] is block b of entry (i, j), flattened row-major
    written = _written(text, "operator", "}", lambda obj: (_module(obj, "problem"),))
    if written:
        (module,), _, grids = written
    else:
        obj = _loads(text)
        module = _module(obj, "problem")
        op = _field(obj, "operator", "problem")
        levels = [
            ((module.rank,), "'operator' must be a {0}x{0} array", "[{}]"),
            ((module.rank,), "row must have {} entries", "[{}]"),
            *_element_levels(module.shape.block_sizes),
        ]
        grids = _complex_blocks(op, levels, "problem.operator")
    top = max(max(np.abs(g.real).max(), np.abs(g.imag).max()) for g in grids)
    if top >= _MAX_ENTRY:
        raise InputFormatError("every number must be below 2**1000 in magnitude", "problem.operator")
    if 0.0 < top < _MIN_ENTRY:
        raise InputFormatError(
            "the largest number must be at least 2**-1000 in magnitude, or the operator zero", "problem.operator"
        )
    # row strip i of the stacked matrix holds entries (i, 0..n-1)
    n = module.rank
    mats = [_stacked_strips(g, k).reshape(n * k, n * k) for g, k in zip(grids, module.shape.block_sizes)]
    return ModuleOperator(module, mats)


def serialize_problem(K: ModuleOperator) -> str:
    """The text of a problem file holding K, which parse_problem reads back bit for bit."""
    n = K.module.rank
    sizes = K.module.shape.block_sizes
    # grids[b][i, j] is block b of entry (i, j), read from row strip i
    grids = [_coordinate_blocks(blk.reshape(n, k, n * k), k) for k, blk in zip(sizes, K.blocks)]
    operator = _skeleton(sizes, n) % tuple(chain.from_iterable(_number_rows([grids])))
    head = _fields(schema=SCHEMA, algebra={"blocks": list(sizes)}, module_rank=n)
    return "{" + head + ', "operator": ' + operator + "}\n"


def _parse_relation(data, loc: str) -> OrderRelation:
    sides = []
    for key in ("lhs", "rhs"):
        val = _field(data, key, loc)
        if val is None:
            sides.append(None)
        elif type(val) is not int or val < 1:
            raise InputFormatError(f"'{key}' must be a positive label or null", loc)
        else:
            sides.append(val)
    return OrderRelation(sides[0], sides[1])


def _solution_head(obj) -> tuple:
    """A solution's module and tolerance."""
    module = _module(obj, "solution")
    tolerance = _number(_field(obj, "tolerance", "solution"), "solution.tolerance")
    if not 0.0 < tolerance < 1.0:
        raise InputFormatError("tolerance must lie strictly between 0 and 1", "solution.tolerance")
    return module, tolerance


def _certificate(obj) -> tuple:
    raw_cert = _field(obj, "certificate", "solution")
    if not isinstance(raw_cert, list):
        raise InputFormatError("'certificate' must be a list", "solution.certificate")
    return tuple(_parse_relation(r, f"solution.certificate[{i}]") for i, r in enumerate(raw_cert))


def parse_solution(text: str) -> DiagonalizationResult:
    """The result of a solution file's text, pairs in file order; a fault raises InputFormatError with its location."""
    written = _written(text, "pairs", ', "certificate": ', lambda obj: (*_solution_head(obj), _certificate(obj)))
    if written:
        (module, tolerance, cert), labels, blocks = written
        # per pair, n vector coordinates, then its value and its support
        n = module.rank
        vecs, vals, sups = ([b[:, part] for b in blocks] for part in (slice(n), n, n + 1))
    else:
        obj = _loads(text)
        module, tolerance = _solution_head(obj)
        raw_pairs = _field(obj, "pairs", "solution")
        if not isinstance(raw_pairs, list) or not raw_pairs:
            raise InputFormatError("'pairs' must be a nonempty list", "solution.pairs")
        labels, vecs, vals, sups = _parse_pairs(raw_pairs, module)
        cert = _certificate(obj)
    sizes = module.shape.block_sizes
    strips = tuple(_stacked_strips(v, k) for v, k in zip(vecs, sizes))
    vals, sups = (tuple(a.reshape(-1, k, k) for a, k in zip(arrays, sizes)) for arrays in (vals, sups))
    return DiagonalizationResult(module, tuple(labels), strips, vals, sups, cert, tolerance)


def serialize_solution(result: DiagonalizationResult) -> str:
    """The text of a solution file holding result, which parse_solution reads back bit for bit."""
    module = result.module
    sizes, count = module.shape.block_sizes, len(result.pair_labels)
    # row p: pair p's vector coordinates, then its value, then its support
    vectors = [_coordinate_blocks(v, k) for v, k in zip(result.vectors, sizes)]
    values, supports = (
        [a.reshape(count, k * k) for a, k in zip(arrays, sizes)] for arrays in (result.values, result.supports)
    )
    numbers = []
    for label, row in zip(result.pair_labels, _number_rows([vectors, values, supports]), strict=True):
        numbers += [label, *row]  # labels are ints, as DiagonalizationResult stores them
    tolerance = result.tolerance_used
    head = _fields(schema=SCHEMA, algebra={"blocks": list(sizes)}, module_rank=module.rank, tolerance=tolerance)
    certificate = _fields(certificate=[{"lhs": rel.lhs, "rhs": rel.rhs} for rel in result.ordering_certificate])
    pairs = _skeleton(sizes, module.rank, count) % tuple(numbers)
    return "{" + head + ', "pairs": ' + pairs + ", " + certificate + "}\n"


def _report_float(x: float):
    # JSON has no inf or nan: a non-finite residual is written as the text
    # summary() prints for it, "inf", "-inf" or "nan"
    return x if np.isfinite(x) else format(x, ".3e")


def serialize_report(report: VerificationReport) -> str:
    """The text of a report file: the verdict, the tolerances, each residual, flag and worst pair, the relations."""
    obj = {
        "schema": SCHEMA,
        "overall": "pass" if report.overall else "fail",
        "tolerance": report.tolerance,
        "moment_tolerance": report.moment_tolerance,
        "operator_scale": report.operator_scale,
        "residuals": {
            "eigen": _report_float(report.eigen_residual),
            "orthogonality": _report_float(report.orthogonality_residual),
            "projection": _report_float(report.projection_defect),
            "support": _report_float(report.support_residual),
        },
        "worst_pairs": report.worst_pairs,
        "complement_trivial": report.complement_trivial,
        "ordering_ok": report.ordering_ok,
        "oracle_ok": report.oracle_ok,
        "moment_worst": _report_float(report.moment_worst),
        "certificate": list(report.relations),
    }
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
