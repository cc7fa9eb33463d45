"""No module in the package imports a name it never uses.

A small stand-in for a linter's unused-import rule (pyflakes F401): every
name an import statement binds must appear somewhere else in its module.
Only imports on a line marked ``# noqa: F401`` are exempt; the one such line
is ``toacnn.pressure``'s re-export of ``solve_many``, which the benchmark
tracer patches there.
"""

import ast
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


def used_names(tree):
    """Every identifier read in the module, including inside string
    annotations, plus the names ``__all__`` exports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        # a function's return annotation, or an argument's or variable's
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree, source.splitlines())
              if name not in used]
    assert unused == [], f"{module} imports names it never uses: {', '.join(unused)}"


def test_checker_flags_an_unused_import_and_honours_noqa():
    source = (
        "import os\nfrom a import b, c  # noqa: F401\nfrom d import e, f\nx: 'e'\n"
        "__all__ = ['f']\n"
    )
    tree = ast.parse(source)
    found = [n for n, _ in imported_names(tree, source.splitlines()) if n not in used_names(tree)]
    assert found == ["os"]
