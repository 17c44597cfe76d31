"""numpy and scipy never compute eigenvalues or singular values inside the package.

The tests and the benchmark's correctness gate check the package against
numpy.linalg; the package must not call the oracle it is checked against.
"""

import ast
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
