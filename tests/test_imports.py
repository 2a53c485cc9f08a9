"""Every module of the package uses each name it imports, eigendecomposes a
dynamical matrix only in ``DynamicalMap.spectrum``, and forms no outer product
one loop iteration at a time."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qdilate"
# __init__.py imports names to re-export them, not to use them.
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_finds_an_unused_import():
    source = "from .channel import apply_map, state_matrix\nimport numpy as np\nstate_matrix(np)\n"
    assert unused_imports(source) == [(1, "apply_map")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


EIGEN_SOLVERS = {"hermitian_eig", "sorted_eigh", "min_eigenvalue"}


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def bmat_eigensolves(source: str) -> list:
    """Lines outside ``DynamicalMap.spectrum`` that pass a ``.bmat`` to an eigen-solver."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "DynamicalMap"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "spectrum"
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in allowed
        and _called_name(node) in EIGEN_SOLVERS
        and any(
            isinstance(sub, ast.Attribute) and sub.attr == "bmat"
            for arg in [*node.args, *(kw.value for kw in node.keywords)]
            for sub in ast.walk(arg)
        )
    )


def test_the_guard_finds_an_eigensolve_outside_the_spectrum():
    source = "def spectrum(self):\n    return min_eigenvalue(self.bmat), hermitian_eig(rho)\n"
    assert bmat_eigensolves(source) == [2]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_spectrum_eigendecomposes_a_dynamical_matrix(path):
    assert bmat_eigensolves(path.read_text(encoding="utf-8")) == []


def outer_products_in_loops(source: str) -> list:
    """Lines that call ``np.outer`` inside the body of a ``for`` or ``while`` loop.

    A sum of outer products is one matrix product; ``np.multiply.outer`` is
    not matched.
    """
    tree = ast.parse(source)
    return sorted(
        {
            node.lineno
            for loop in ast.walk(tree)
            if isinstance(loop, (ast.For, ast.While))
            for stmt in loop.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "outer"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        }
    )


def test_the_guard_finds_an_outer_product_in_a_loop():
    source = "for v in vecs:\n    b += np.outer(v, v.conj())\nc = np.outer(u, u)\n"
    assert outer_products_in_loops(source) == [2]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_sums_outer_products_in_a_loop(path):
    assert outer_products_in_loops(path.read_text(encoding="utf-8")) == []
