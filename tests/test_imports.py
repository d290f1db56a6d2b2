"""Every module under src/, tests/ and demos/ uses each name it imports,
every module-level def or class in src/ has a caller in src/ or perfbench/,
no module in src/ imports another's underscore name, calls the built-in
sum(), makes a matrix product or computes a planar distance other than
through channel.sq_dist, and importing absim loads neither scipy nor
scikit-learn."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PRODUCTION = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import and never read; a name listed in __all__
    counts as read, and `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scan_flags_unused_and_honours_all_and_future():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(pi)\n")
    assert unused_imports(source) == [(2, "os"), (3, "j")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def references(tree, skip=None) -> set:
    """Names a module reads, as a bare name, an attribute, an imported name
    or a string (perfbench looks its targets up with getattr), leaving out
    the subtree of the node skip."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def uncalled_definitions(sources: dict) -> list:
    """(module, name) of each module-level def or class in sources, a dict of
    path to source text, that no module references outside its own body."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    elsewhere = {path: set().union(*(references(t) for p, t in trees.items() if p != path))
                 for path in trees}
    return sorted((path, node.name) for path, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in elsewhere[path] | references(tree, skip=node))


def test_definition_scan_flags_uncalled_and_self_recursive():
    sources = {"a.py": "def used():\n    pass\n\nclass Spare:\n    pass\n\n"
                       "def recurse(n):\n    return recurse(n - 1)\n",
               "b.py": "from a import used\nfor name in ('by_string',):\n    getattr(a, name)\n"
                       "def by_string():\n    pass\n"}
    assert uncalled_definitions(sources) == [("a.py", "Spare"), ("a.py", "recurse")]


def test_every_src_definition_has_a_production_caller():
    # test-only helpers live in tests/, not src/
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PRODUCTION}
    assert [(p, name) for p, name in uncalled_definitions(sources) if p.startswith("src")] == []


def private_imports(source: str) -> list:
    """(line, name) of each underscore name, dunders aside, that source
    imports from the absim package."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "absim")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_private_import_scan():
    source = ("from .rl import (masked, _index_arrays)\nfrom absim.sim import _f\n"
              "from . import __version__\nfrom numpy import _core\n")
    assert private_imports(source) == [(1, "_index_arrays"), (2, "_f")]


def test_src_imports_no_private_name_of_another_module():
    found = [(str(p.relative_to(ROOT)), line, name)
             for p in PRODUCTION if p.is_relative_to(ROOT / "src")
             for line, name in private_imports(p.read_text())]
    assert found == []


def test_src_calls_no_builtin_sum():
    # CPython 3.12 made float sum() compensated, so a total taken through it
    # would make report bytes depend on the interpreter
    calls = [(str(p.relative_to(ROOT)), node.lineno)
             for p in PRODUCTION if p.is_relative_to(ROOT / "src")
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert calls == []


MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def matrix_products(source: str) -> list:
    """(line, what) of each matrix product in source: an @ or @= operator,
    or a name or attribute among MATRIX_PRODUCTS, imported or read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in MATRIX_PRODUCTS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in MATRIX_PRODUCTS]
    return sorted(found)


def test_matrix_product_scan():
    source = ("from numpy import vdot\nimport numpy as np\nc = a @ b\nc @= b\n"
              "d = np.einsum('ij,j', a, b)\ne = a.dot(b)\nf = np.add.reduce(a * b)\n"
              "g = np.linalg.matmul(a, b)\nh = inner(a, b)\n")
    assert matrix_products(source) == [(1, "vdot"), (3, "@"), (4, "@"), (5, "einsum"),
                                       (6, "dot"), (8, "matmul"), (9, "inner")]


def test_src_makes_no_matrix_product():
    # numpy hands a matrix product to BLAS, whose kernel (and so whose
    # rounding) OpenBLAS picks per CPU; absim's bytes must not depend on it
    found = [(str(p.relative_to(ROOT)), line, what)
             for p in PRODUCTION if p.is_relative_to(ROOT / "src")
             for line, what in matrix_products(p.read_text())]
    assert found == []


def distance_formulas(source: str) -> list:
    """(line, what) of each planar distance that source computes itself: a
    name or attribute norm (np.linalg.norm), or the .sum( of a square x ** 2."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "norm"
                or isinstance(node, ast.Name) and node.id == "norm"):
            found.append((node.lineno, "norm"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "sum" and isinstance(node.func.value, ast.BinOp)
              and isinstance(node.func.value.op, ast.Pow)
              and isinstance(node.func.value.right, ast.Constant)
              and node.func.value.right.value == 2):
            found.append((node.lineno, "sum of squares"))
    return sorted(found)


def test_distance_formula_scan():
    source = ("import numpy as np\nfrom numpy.linalg import norm\n"
              "d = np.linalg.norm(a - b, axis=-1)\ne = ((a - b) ** 2).sum(axis=1)\n"
              "f = (diff ** 2).sum(axis=2)\ng = (a ** 3).sum()\nh = sq_dist(a, b) + c ** 2\n"
              "k = np.add.reduce(a * a)\n")
    assert distance_formulas(source) == [(3, "norm"), (4, "sum of squares"),
                                         (5, "sum of squares")]


def test_src_takes_planar_distances_only_from_sq_dist():
    # channel.sq_dist is the one distance kernel; another formula may round
    # differently, and it held the broadcast temporaries sq_dist does not
    found = [(str(p.relative_to(ROOT)), line, what)
             for p in PRODUCTION if p.is_relative_to(ROOT / "src")
             for line, what in distance_formulas(p.read_text())]
    assert found == []


def test_absim_runs_on_numpy_alone():
    # scipy and scikit-learn are test-only oracles; the cli reaches every module
    probe = ("import sys, absim.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sklearn'}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
