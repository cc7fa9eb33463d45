"""The benchmark tracer's patch sites all exist in the package, and the
network's sites are all called.

``perfbench/tracing.py`` wraps functions where the solvers look them up, by
module path and attribute name. A refactor that moves or renames one would
make ``--trace 1`` fail to install, so every site is resolved here, with the
tracer's own lookup and without patching anything. A site that still
resolves but is no longer called would read 0, so the network's sites are
also counted through one training step and one inference.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from toacnn.neural.profile import small_profile
from toacnn.neural.training import TrainConfig, infer, train

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


NEURAL_SITES = [
    (module_path, attr)
    for _, sites in tracing.SITES
    for module_path, attr in sites
    if module_path in ("toacnn.neural.model", "toacnn.neural.training")
]


def test_train_step_and_infer_call_every_neural_site(monkeypatch):
    calls = dict.fromkeys(NEURAL_SITES, 0)
    for site in NEURAL_SITES:
        fn, _ = tracing._resolve(*site)

        def counted(*args, site=site, fn=fn, **kwargs):
            calls[site] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module(site[0]), site[1], counted)
    rng = np.random.default_rng(0)
    x = (rng.uniform(0, 1, (40, 40, 1)) > 0.5).astype(np.float32)
    y = rng.uniform(0, 1, (40, 40, 1)).astype(np.float32)
    ck, _ = train(small_profile(64), [(x, y)], TrainConfig(epochs=1, lr=1e-3, seed=1))
    infer(ck, 0.4)
    assert len(NEURAL_SITES) == 14
    assert [site for site, n in calls.items() if n == 0] == []
