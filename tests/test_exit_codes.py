"""Seeded, structure-aware mutations of valid files: the CLI exits 0, 1 or 2.

Each mutation changes one place of a valid problem or solution document:
a number pushed to the edge of the float range, a whole block or document
rescaled, a node replaced by a value of another type, a list item or field
dropped or doubled. Every command that reads the result must return one of
the three exit codes, with numpy's RuntimeWarnings turned into errors so
that an overflow inside the pipeline cannot pass unnoticed.
"""

import json
import random
import warnings

import numpy as np

from moddiag import diagonalize_selfadjoint, serialize_problem, serialize_solution
from moddiag.cli import main

from helpers import module_over, random_selfadjoint_operator

SEED = 3
MUTATIONS = 300
EDGE_NUMBERS = [1.7e308, -1.7e308, 1e308, 2.0**1000, 2.0**990, 1e-300, 5e-324, 0.0, 10**400, np.inf, np.nan]
FACTORS = [1e300, -1e300, 1e150, 1e-300, 2.0**-1074, 1e308, 0.0]
STRANGERS = [None, True, "1", [], {}, -1, 0, 2, 1.5, [[0.0, 0.0]]]


def _bases():
    for sizes, rank, seed in (((2,), 2, 91), ((2, 1), 2, 92)):
        K = random_selfadjoint_operator(module_over(sizes, rank), np.random.default_rng(seed))
        yield json.loads(serialize_problem(K)), json.loads(serialize_solution(diagonalize_selfadjoint(K)))


def _nodes(node, path=()):
    """Every (path, node) below the root, containers before their items."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _scaled(node, factor):
    if isinstance(node, list):
        return [_scaled(item, factor) for item in node]
    if isinstance(node, float):
        return node * factor
    return node


def _mutate(doc, rng: random.Random):
    """A copy of doc with one seeded change."""
    doc = json.loads(json.dumps(doc))
    nodes = list(_nodes(doc))[1:]
    numbers = [path for path, node in nodes if isinstance(node, float)]
    nested = [path for path, node in nodes if isinstance(node, list) and node and isinstance(node[0], list)]
    kind = rng.choice(["edge", "scale-block", "scale-all", "stranger", "drop", "double"])
    if kind == "edge":
        path = rng.choice(numbers)
        _get(doc, path[:-1])[path[-1]] = rng.choice(EDGE_NUMBERS)
    elif kind == "scale-block":
        path = rng.choice(nested)
        _get(doc, path[:-1])[path[-1]] = _scaled(_get(doc, path), rng.choice(FACTORS))
    elif kind == "scale-all":
        key = "operator" if "operator" in doc else "pairs"
        doc[key] = _scaled(doc[key], rng.choice(FACTORS))
    else:
        path, node = rng.choice([(p, n) for p, n in nodes if kind == "stranger" or isinstance(n, (list, dict)) and n])
        if kind == "stranger":
            _get(doc, path[:-1])[path[-1]] = rng.choice(STRANGERS)
        else:
            key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            if kind == "drop":
                del node[key]
            elif isinstance(node, list):
                node.insert(key, node[key])
            else:
                node[key + "_copy"] = node[key]
    return doc


def test_mutated_files_always_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(SEED)
    bases = list(_bases())
    escaped = []
    for m in range(MUTATIONS):
        # fresh names: rewriting a file just written can stall on some file systems
        problem, solution, out = (str(tmp_path / f"{m}.{name}.json") for name in ("problem", "solution", "out"))
        doc, sol = rng.choice(bases)
        verify = ["verify", "--input", problem, "--solution", solution]
        if rng.random() < 0.5:
            doc = _mutate(doc, rng)
            runs = [["diagonalize", "--input", problem, "--solution", out], verify, ["spectrum", "--input", problem]]
        else:
            sol = _mutate(sol, rng)
            runs = [verify]
        for path, obj in ((problem, doc), (solution, sol)):
            with open(path, "w", encoding="utf-8") as f:
                f.write(json.dumps(obj))
        for argv in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = main(argv)
                except Exception as exc:  # anything but an exit code breaks the contract
                    code = repr(exc)
            if code not in (0, 1, 2):
                escaped.append((m, argv[0], code))
        capsys.readouterr()
    assert not escaped
