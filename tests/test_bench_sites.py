"""The benchmark tracer's patch sites all exist in the package.

``perfbench/tracing.py`` wraps functions where the solvers look them up, by
module path and attribute name. A refactor that moves or renames one would
make ``--trace 1`` fail to install, so every site is resolved here, with the
tracer's own lookup and without patching anything.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "span, module_path, attr",
    [(span, m, a) for span, sites in tracing.SITES for m, a in sites],
)
def test_site_resolves_to_a_callable(span, module_path, attr):
    fn, _ = tracing._resolve(module_path, attr)
    assert callable(fn), f"{span}: {module_path}.{attr} is not callable"
