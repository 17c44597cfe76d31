"""Source guards over the package.

numpy and scipy never compute eigenvalues or singular values inside the
package: the tests and the benchmark's correctness gate check the package
against numpy.linalg, so the package must not call the oracle it is checked
against. No module imports a name it never uses, every name a module
lists in ``__all__`` exists, and a public module lists every public
function and class it defines. One function makes every Cholesky
factorization, so each definiteness check groups its matrices by order in
the same place. One call turns the numbers of an input file into an array,
so every file part is read, and its faults located, the same way, and one
call turns stored stacks into the numbers a file is written from.
Only the named io functions call json.loads: the tree path's read of a
whole file and the text path's reads of its head, tail and numbers.
No function switches the cyclic garbage collector off or on, so the
package changes no interpreter-wide state. One function freezes the
arrays that elements and results store, so every stored array is checked
by one rule (the solver's shared pair schedule aside). One function zero-pads blocks to a common order and marks the
coordinates it added, so every padded stack and its mask agree. The
command-line driver calls no eigensolver, so every spectrum it prints
comes from a diagonalizer, and only ``eig_normal`` measures normality, so
one rule decides which operators are normal. One table in
``eig_hermitian`` holds the words of the solver's figures, so the kernels
return counts and every record and error line is written in one place.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import moddiag

SOURCES = sorted(Path(moddiag.__file__).parent.glob("*.py"))


def _spectral(name: str) -> bool:
    return name.startswith(("eig", "svd"))


def _offences(source: str) -> list:
    """Each scipy import and each eig*/svd* name taken from a linalg module, with its line."""
    tree = ast.parse(source)
    linalg = {"linalg"}  # local names bound to a linalg module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy":
                    found.append((node.lineno, alias.name))
                elif alias.name.endswith(".linalg") and alias.asname:
                    linalg.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "scipy":
                found.append((node.lineno, module))
            elif module.endswith("linalg"):
                found += [(node.lineno, f"{module}.{a.name}") for a in node.names if _spectral(a.name)]
            else:
                linalg.update(a.asname or a.name for a in node.names if a.name == "linalg")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _spectral(node.attr):
            base = node.value
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            if name in linalg:
                found.append((node.lineno, f"{name}.{node.attr}"))
    return found


def test_every_module_is_scanned():
    names = {path.name for path in SOURCES}
    assert {"__init__.py", "eigen.py", "verify.py", "algebra.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_library_eigensolver_in_the_package(path):
    assert _offences(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.linalg.eigvalsh(a)",
        "import numpy\nnumpy.linalg.svd(a)",
        "from numpy import linalg\nlinalg.eigh(a)",
        "from numpy import linalg as la\nla.eig(a)",
        "import numpy.linalg as la\nla.svdvals(a)",
        "from numpy.linalg import eigh",
        "import scipy.linalg",
        "from scipy import sparse",
    ],
)
def test_the_guard_catches_each_form(source):
    assert len(_offences(source)) == 1


def test_the_guard_passes_the_package_solvers_and_other_linalg():
    source = "from .eigen import eig_hermitian\nimport numpy as np\neigen.eig_normal(a)\nnp.linalg.cholesky(a)"
    assert _offences(source) == []


def _unused_imports(source: str) -> list:
    """Each name an import binds that the module neither reads nor lists in ``__all__``, with its line."""
    tree = ast.parse(source)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_import_in_the_package(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_unused_import_guard_catches_it():
    source = (
        "from __future__ import annotations\nimport math\nimport numpy.linalg\n"
        "from .eigen import NotNormalError, eig_normal\nfrom .io import parse_problem\n"
        "__all__ = ['parse_problem']\nnumpy.linalg.norm(eig_normal(math.pi))"
    )
    assert _unused_imports(source) == [(4, "NotNormalError")]


def _stale_exports(module) -> list:
    """Each name in the module's ``__all__`` that it does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_every_exported_name_exists():
    modules = [importlib.import_module("moddiag" if p.stem == "__init__" else f"moddiag.{p.stem}") for p in SOURCES]
    assert {m.__name__: _stale_exports(m) for m in modules if _stale_exports(m)} == {}


def test_the_export_guard_catches_a_stale_name():
    stale = types.SimpleNamespace(**{**vars(moddiag.modules), "__all__": [*moddiag.modules.__all__, "module_norm"]})
    assert _stale_exports(stale) == ["module_norm"]


def _unlisted(source: str) -> list:
    """Each public top-level function or class that the module does not list in ``__all__``, with its line."""
    tree = ast.parse(source)
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            listed.update(ast.literal_eval(node.value))
    defined = (node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    return [(node.lineno, node.name) for node in defined if not node.name.startswith("_") and node.name not in listed]


@pytest.mark.parametrize("path", [p for p in SOURCES if not p.stem.startswith("_")], ids=lambda path: path.name)
def test_every_public_name_is_exported(path):
    assert _unlisted(path.read_text(encoding="utf-8")) == []


def test_the_export_guard_catches_an_unlisted_name():
    source = (
        "__all__ = ['eig_normal', 'NotNormalError']\nclass NotNormalError(ValueError): pass\n"
        "def eig_normal(m): return _solve(m)\ndef _solve(m): return m\ndef tie_runs(d, gap): return d\n"
    )
    assert _unlisted(source) == [(5, "tie_runs")]


def _owners(source: str, match) -> list:
    """The function around each node for which ``match(node)`` holds, in source order."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def _called(node):
    """The name or attribute a call node calls; None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def _callers(source: str, *names: str) -> list:
    """The function around each call of a name or attribute in ``names``, in source order."""
    return _owners(source, lambda node: _called(node) in names)


def _cholesky_sites(sources: dict) -> list:
    return [(name, owner) for name, source in sources.items() for owner in _callers(source, "cholesky")]


def _package_sources() -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in SOURCES}


def test_one_function_calls_cholesky():
    assert _cholesky_sites(_package_sources()) == [("algebra.py", "_all_positive_definite")]


def test_the_cholesky_guard_catches_a_second_call():
    sources = _package_sources()
    sources["modules.py"] += "\n\ndef _gram_ok(g):\n    from numpy.linalg import cholesky\n    return cholesky(g)\n"
    sources["verify.py"] += "\nnp.linalg.cholesky(a)\n"
    assert _cholesky_sites(sources) == [
        ("algebra.py", "_all_positive_definite"),
        ("modules.py", "_gram_ok"),
        ("verify.py", None),
    ]


def _array_builders(source: str) -> list:
    """The function around each np.array or np.empty call."""
    return sorted(_callers(source, "array") + _callers(source, "empty"))


def test_one_function_turns_file_numbers_into_arrays():
    assert _array_builders(_package_sources()["io.py"]) == ["_number_blocks"]


def test_the_array_guard_catches_a_second_site():
    source = _package_sources()["io.py"]
    anchor = "    leaves = []\n"
    assert anchor in source
    source = source.replace(anchor, "    leaves = list(np.empty(0))\n")
    source += "\n\ndef _parse_block(data):\n    return np.empty(len(data))\n"
    assert _array_builders(source) == ["_complex_blocks", "_number_blocks", "_parse_block"]


def _json_readers(source: str) -> list:
    """The function around each json.loads call, in source order."""
    return _callers(source, "loads")


# the tree path's one read of a whole file, the text path's reads of a
# file's head and tail, and its one read of a file part's numbers
JSON_READERS = ["_loads", "_written", "_written", "_written"]


def test_only_the_named_io_functions_call_json_loads():
    assert _json_readers(_package_sources()["io.py"]) == JSON_READERS


def test_the_json_guard_catches_a_second_site():
    source = _package_sources()["io.py"]
    source += "\n\ndef parse_report(text):\n    return json.loads(text)\n"
    source += "\nfrom json import loads\nloads(text)\n"
    assert _json_readers(source) == [*JSON_READERS, "parse_report", None]


def _number_writers(source: str) -> list:
    """The function around each tolist call."""
    return _callers(source, "tolist")


def test_one_function_turns_stored_stacks_into_file_numbers():
    assert _number_writers(_package_sources()["io.py"]) == ["_number_rows"]


def test_the_number_writer_guard_catches_a_second_site():
    source = _package_sources()["io.py"]
    source += "\n\ndef _part_lists(blocks):\n    return np.concatenate(blocks, axis=-1).view(np.float64).tolist()\n"
    source += "\nlabels = np.asarray(result.pair_labels).tolist()\n"
    assert _number_writers(source) == ["_number_rows", "_part_lists", None]


def _collector_switches(sources: dict) -> list:
    return [(name, owner) for name, source in sources.items() for owner in _callers(source, "disable", "enable")]


def test_one_function_switches_the_cyclic_collector():
    assert _collector_switches(_package_sources()) == []


def test_the_collector_guard_catches_a_second_site():
    sources = _package_sources()
    sources["io.py"] += "\n\ndef parse_report(text):\n    gc.disable()\n    return json.loads(text)\n"
    sources["cli.py"] += "\nfrom gc import enable\nenable()\n"
    assert _collector_switches(sources) == [("cli.py", None), ("io.py", "parse_report")]


def _freezers(sources: dict) -> list:
    return [(name, owner) for name, source in sources.items() for owner in _callers(source, "setflags")]


def test_one_function_freezes_stored_arrays():
    assert _freezers(_package_sources()) == [
        ("algebra.py", "_frozen_blocks"),
        ("eigen.py", "_tournament_rounds"),
        ("eigen.py", "_tournament_rounds"),
    ]


def test_the_freeze_guard_catches_a_second_site():
    sources = _package_sources()
    sources["diagonalize.py"] += "\n\ndef _freeze(stacks):\n    for s in stacks:\n        s.setflags(write=False)\n"
    sources["io.py"] += "\nnp.setflags(a, write=False)\n"
    assert _freezers(sources) == [
        ("algebra.py", "_frozen_blocks"),
        ("diagonalize.py", "_freeze"),
        ("eigen.py", "_tournament_rounds"),
        ("eigen.py", "_tournament_rounds"),
        ("io.py", None),
    ]


def _is_padding_mask(node) -> bool:
    """Whether node compares an ``arange`` call with anything, as a padding mask does."""
    return isinstance(node, ast.Compare) and any(_called(side) == "arange" for side in [node.left, *node.comparators])


def _mask_sites(sources: dict) -> list:
    return [(name, owner) for name, source in sources.items() for owner in _owners(source, _is_padding_mask)]


def test_one_function_computes_padding_masks():
    assert _mask_sites(_package_sources()) == [("eigen.py", "_zero_padded")]


def test_the_mask_guard_catches_a_second_site():
    sources = _package_sources()
    sources["verify.py"] += "\n\ndef _mask(kmax, sizes):\n    return np.arange(kmax) >= np.array(sizes)[:, None]\n"
    sources["modules.py"] += "\npadded = widths[:, None] <= arange(n)\n"
    assert _mask_sites(sources) == [("eigen.py", "_zero_padded"), ("modules.py", None), ("verify.py", "_mask")]


def _cli_solves(source: str) -> list:
    return _callers(source, "eig_hermitian", "eig_normal")


def test_the_cli_calls_no_eigensolver():
    assert _cli_solves(_package_sources()["cli.py"]) == []


def test_the_cli_solver_guard_catches_a_reintroduced_call():
    source = _package_sources()["cli.py"]
    source += "\n\ndef _spectra(K):\n    return eig_hermitian(list(K.blocks))\n"
    source += "\nvalues = eigen.eig_normal(K.blocks)\n"
    assert _cli_solves(source) == ["_spectra", None]


def _normality_tests(sources: dict) -> list:
    return [(name, owner) for name, source in sources.items() for owner in _callers(source, "_normality_defect")]


def test_one_function_tests_normality():
    assert _normality_tests(_package_sources()) == [("eigen.py", "eig_normal")]


def test_the_normality_guard_catches_a_second_site():
    sources = _package_sources()
    sources["operators.py"] += "\n\ndef is_normal(K, tol):\n    return _normality_defect(K.blocks) <= tol\n"
    assert _normality_tests(sources) == [("eigen.py", "eig_normal"), ("operators.py", "is_normal")]


# the words of each kernel's figures, which only eig_hermitian's table writes
FIGURE_WORDS = ("rotations, off-diagonal norm", "inverse-iteration steps, residual")


def _docstring_places(source: str) -> set:
    """(line, column) of each docstring of the module and of its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    firsts = (node.body[0] for node in ast.walk(ast.parse(source)) if isinstance(node, owners) and node.body)
    return {
        (first.lineno, first.col_offset)
        for first in firsts
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
    }


def _figure_writers(sources: dict) -> list:
    """The function around each string constant, docstrings aside, that holds a kernel's figure words."""
    found = []
    for name, source in sources.items():
        docs = _docstring_places(source)

        def match(node):
            return (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and (node.lineno, node.col_offset) not in docs
                and any(words in node.value for words in FIGURE_WORDS)
            )

        found += [(name, owner) for owner in _owners(source, match)]
    return found


def test_one_table_writes_the_solver_figures():
    assert _figure_writers(_package_sources()) == [("eigen.py", "eig_hermitian"), ("eigen.py", "eig_hermitian")]


def test_the_figure_guard_catches_a_second_site():
    sources = _package_sources()
    sources["eigen.py"] += (
        '\n\ndef _jacobi_text(s, r):\n    """Sweeps, rotations, off-diagonal norm."""\n'
        '    return f"{s} sweeps, {r} rotations, off-diagonal norm"\n'
    )
    sources["_tridiagonal.py"] += '\nSTEPS = "{} bisection rounds, {} inverse-iteration steps, residual"\n'
    assert _figure_writers(sources) == [
        ("_tridiagonal.py", None),
        ("eigen.py", "eig_hermitian"),
        ("eigen.py", "eig_hermitian"),
        ("eigen.py", "_jacobi_text"),
    ]
