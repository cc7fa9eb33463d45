"""The benchmark tracer's patch sites all exist in the package, and all but
two known dead ones are called.

``perfbench/tracing.py`` wraps functions where the solvers look them up, by
module path and attribute name. A refactor that moves or renames one would
make ``--trace 1`` fail to install, so every site is resolved here, with the
tracer's own lookup and without patching anything. A site that still
resolves but is no longer called would read 0, so every site is also
counted: the network's through one training step and one inference, the
rest through a solve, a one-sample sweep of each problem, a sample load, a
checkpoint round trip and a volume error.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from toacnn import cantilever, dataset, metrics
from toacnn.cantilever import CantileverConfig
from toacnn.microstructure import MicroConfig
from toacnn.neural import checkpoint
from toacnn.neural.model import init_params
from toacnn.neural.profile import small_profile
from toacnn.neural.training import TrainConfig, infer, train
from toacnn.pressure import PressureConfig

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


OTHER_SITES = [
    (module_path, attr)
    for _, sites in tracing.SITES
    for module_path, attr in sites
    if (module_path, attr) not in NEURAL_SITES
]

# Sites nothing calls any more: the solvers factor with banded Cholesky, and
# arch reaches solve_many through toacnn.fem, not through its re-export.
KNOWN_DEAD = [("scipy.sparse.linalg", "splu"), ("toacnn.pressure", "solve_many")]


def test_solves_sweeps_and_file_io_call_every_other_site(tmp_path):
    calls = dict.fromkeys(OTHER_SITES, 0)
    restore = []
    try:
        for site in OTHER_SITES:
            fn, setter = tracing._resolve(*site)

            def counted(*args, site=site, fn=fn, **kwargs):
                calls[site] += 1
                return fn(*args, **kwargs)

            setter(counted)
            restore.append((setter, fn))
        small = dict(nelx=6, nely=6)
        cantilever.solve_cantilever(CantileverConfig(vf=0.4, max_iters=2, **small))
        for problem, cfg in [
            ("cantilever", CantileverConfig(max_iters=2, **small)),
            ("arch", PressureConfig(maxit=2, **small)),
            ("micro", MicroConfig(max_iters=2, **small)),
        ]:
            out = tmp_path / problem
            dataset.generate_dataset(problem, cfg, str(out), vf_start=0.4, vf_stop=0.4)
        dataset.load_samples(str(tmp_path / "cantilever" / "manifest.jsonl"))
        target = dataset.field_from_pgm_file(str(tmp_path / "micro" / "target_040.pgm"))
        metrics.volume_error(target, target)
        profile = small_profile(0)
        path = str(tmp_path / "model.ckpt")
        checkpoint.save_checkpoint_file(
            checkpoint.Checkpoint(profile, init_params(profile, 0), seed=0, epochs=0), path
        )
        checkpoint.load_checkpoint_file(path)
    finally:
        for setter, fn in reversed(restore):
            setter(fn)
    assert len(OTHER_SITES) == 35
    assert sorted(site for site, n in calls.items() if n == 0) == sorted(KNOWN_DEAD)
