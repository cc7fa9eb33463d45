"""No module in the package imports a name it never uses, or annotates
with a name it never binds.

A small stand-in for a linter's unused-import rule (pyflakes F401): every
name an import statement binds must appear somewhere else in its module.
Only imports on a line marked ``# noqa: F401`` are exempt; the one such line
is ``toacnn.pressure``'s re-export of ``solve_many``, which the benchmark
tracer patches there.

The other half stands in for the undefined-name rule (F821) on annotations,
which ``from __future__ import annotations`` never evaluates: every name an
annotation reads is imported, defined in its module, or a builtin.
"""

import ast
import builtins
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "toacnn")

MODULES = sorted(
    os.path.relpath(os.path.join(d, f), SRC)
    for d, _, files in os.walk(SRC)
    for f in files
    if f.endswith(".py")
)


def imported_names(tree, lines):
    """(name, line) for each name an import binds, skipping ``# noqa: F401`` lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for alias, name in zip(node.names, names):
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                yield name, alias.lineno


def annotation_names(tree):
    """(name, line) for each identifier an annotation reads, including
    inside string annotations."""
    def names(expr, line):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                yield sub.id, line
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield from names(ast.parse(sub.value, mode="eval"), line)

    for node in ast.walk(tree):
        # a function's return annotation, or an argument's or variable's
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if annotation is not None:
            yield from names(annotation, annotation.lineno)


def used_names(tree):
    """Every identifier read in the module, including inside string
    annotations, plus the names ``__all__`` exports."""
    used = {name for name, _ in annotation_names(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def bound_names(tree):
    """Every name the module binds anywhere, and every builtin."""
    bound = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
    return bound


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree, source.splitlines())
              if name not in used]
    assert unused == [], f"{module} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module", MODULES)
def test_every_annotation_name_is_bound(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = bound_names(tree)
    unbound = [f"{name} (line {line})" for name, line in annotation_names(tree)
               if name not in bound]
    assert unbound == [], f"{module} annotates with names it never binds: {', '.join(unbound)}"


def test_checker_flags_an_unbound_annotation_name():
    source = (
        "from __future__ import annotations\nfrom a import B\nclass C: ...\n"
        "def f(x: B, y: 'D | int') -> C | None: ...\nz: list[E] = []\n"
    )
    tree = ast.parse(source)
    found = {(n, line) for n, line in annotation_names(tree) if n not in bound_names(tree)}
    assert found == {("D", 4), ("E", 5)}


def test_checker_flags_an_unused_import_and_honours_noqa():
    source = (
        "import os\nfrom a import b, c  # noqa: F401\nfrom d import e, f\nx: 'e'\n"
        "__all__ = ['f']\n"
    )
    tree = ast.parse(source)
    found = [n for n, _ in imported_names(tree, source.splitlines()) if n not in used_names(tree)]
    assert found == ["os"]
