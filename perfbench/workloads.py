"""The three workloads: one closed loop each, one client, operations back to back.

A run is a warm-up round followed by measured rounds until the window ends.
Every round attempts the same operations, checks their outputs, and yields
one sample per end-to-end metric; a run reports the median over its measured
rounds. Inputs come from the seed alone (see README.md for the ranges), and
the program only ever sees those generated inputs.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from toacnn import cantilever, dataset, metrics
from toacnn.cantilever import CantileverConfig
from toacnn.errors import ToacnnError
from toacnn.fem import Material
from toacnn.microstructure import MicroConfig
from toacnn.neural import checkpoint, training
from toacnn.neural.profile import full_profile, small_profile
from toacnn.neural.training import TrainConfig
from toacnn.pressure import PressureConfig

MATERIAL = Material(e0=1.0, emin=1e-9, nu=0.3)
PENAL = 3.0

END_TO_END = [
    ("setup_s", "s"),
    ("designs_per_s", "1/s"),
    ("ms_per_iter", "ms"),
    ("peak_rss_mb", "MB"),
]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is what the benchmark measures, QUICK is for tests."""

    solve_grid: int = 100
    solve_iters: int = 3
    sweep_grid: int = 40
    cant_iters: int = 30
    arch_iters: int = 30
    micro_iters: int = 10
    learn_profile: Callable = full_profile
    learn_width: int = 64
    learn_samples: int = 4
    learn_gen_iters: int = 2
    learn_epochs: int = 3
    learn_lr: float = 1e-4
    infer_calls: int = 16
    score_vfs: int = 2


FULL = Sizes()
QUICK = Sizes(solve_grid=24, sweep_grid=20, cant_iters=5, arch_iters=12, micro_iters=3,
              learn_profile=small_profile, learn_width=8, learn_samples=3,
              learn_lr=1e-3, infer_calls=3, score_vfs=1)


class RoundFailed(Exception):
    """An operation of the round raised; the rest of the round is skipped."""


class Run:
    """Counts, timings and check failures of one workload run."""

    def __init__(self, t0: float, ops_per_round: int):
        self.t0 = t0
        self.ops_per_round = ops_per_round
        self.setup_s: float | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # failed output checks
        self.errors: list[str] = []  # operations that raised
        self._done_in_round = 0

    def op(self, fn, *args, **kwargs):
        """Time one operation of the program; returns (result, seconds)."""
        self._done_in_round += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except (ToacnnError, ValueError) as exc:
            raise RoundFailed(f"{getattr(fn, '__name__', fn)}: {exc}") from exc
        end = time.perf_counter()
        if self.setup_s is None:
            self.setup_s = end - self.t0
        return out, end - start

    def check(self, failures: list[str]) -> None:
        self.failures.extend(failures)

    def round(self, body):
        """Run one round; returns its metric samples, or None if an op failed."""
        self._done_in_round = 0
        self.attempted += self.ops_per_round
        try:
            return body()
        except RoundFailed as exc:
            self.failed += self.ops_per_round - self._done_in_round + 1
            self.errors.append(str(exc))
            return None


def _vf(rng, lo: int, hi: int) -> float:
    """Volume fraction drawn uniformly from lo/100 .. hi/100 inclusive."""
    return int(rng.integers(lo, hi + 1)) / 100.0


def _snapshot(directory: str) -> dict:
    """{file name: (inode, mtime_ns, contents)} of a directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        st = os.stat(os.path.join(directory, name))
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = (st.st_ino, st.st_mtime_ns, fh.read())
    return out


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class SolveLarge:
    """solve_cantilever at the paper's grid, seeded vf, fixed iteration cap."""

    ops_per_round = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        rng = np.random.default_rng([seed, 1])
        n = sizes.solve_grid
        self.cfg = CantileverConfig(nelx=n, nely=n, vf=_vf(rng, 30, 60), penal=PENAL,
                                    max_iters=sizes.solve_iters, material=MATERIAL)
        self.reference: tuple | None = None

    def body(self, run: Run) -> tuple[dict, dict]:
        cfg = self.cfg
        res, dt = run.op(cantilever.solve_cantilever, cfg)
        key = (res.field.values.tobytes(), res.objective, res.iterations)
        if self.reference is None:
            self.reference = key
            run.check(checks.check_design(res.field.values, cfg.vf))
            again = checks.cantilever_compliance(res.field.as_image(), PENAL, MATERIAL.nu,
                                                 MATERIAL.emin, MATERIAL.e0)
            run.check(checks.check_solve(res.objective, res.history[0][0], again))
        elif key != self.reference:
            run.check(["a repeated solve returned a different design"])
        return {"designs_per_s": 1.0 / dt, "ms_per_iter": 1e3 * dt / res.iterations}, {}


class SweepSmall:
    """generate_dataset for all three problems over seeded vfs, then a resume."""

    ops_per_round = 6  # per problem: a sweep and its resume

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        rng = np.random.default_rng([seed, 2])
        n = sizes.sweep_grid
        common = dict(nelx=n, nely=n, penal=PENAL, material=MATERIAL)
        # (problem, config, first vf, step): two vfs per problem. Arch starts at
        # 0.22: below that, some vfs fail the linear-solve residual contract
        # within 30 iterations (README.md, "Left out").
        self.sweeps = [
            ("cantilever", CantileverConfig(max_iters=sizes.cant_iters, change_tol=0.0, **common),
             _vf(rng, 20, 50), 0.25),
            ("arch", PressureConfig(maxit=sizes.arch_iters, **common), _vf(rng, 22, 40), 0.2),
            ("micro", MicroConfig(max_iters=sizes.micro_iters, change_tol=0.0, **common),
             _vf(rng, 30, 50), 0.2),
        ]
        self.workdir = workdir
        self.rounds = 0
        self.reference: dict[str, bytes] = {}

    def body(self, run: Run) -> tuple[dict, dict]:
        out_root = os.path.join(self.workdir, f"sweep{self.rounds}")
        self.rounds += 1
        solve_s = resume_s = 0.0
        designs = iters = 0
        for problem, cfg, start, step in self.sweeps:
            out_dir = os.path.join(out_root, problem)
            sweep = dict(vf_start=start, vf_stop=round(start + step, 2), vf_step=step, threads=1)
            recs, dt = run.op(dataset.generate_dataset, problem, cfg, out_dir, **sweep)
            solve_s += dt
            designs += len(recs)
            iters += sum(r.iterations or 0 for r in recs)

            before = _snapshot(out_dir)
            again, dt = run.op(dataset.generate_dataset, problem, cfg, out_dir, **sweep)
            resume_s += dt
            run.check(checks.check_untouched(before, _snapshot(out_dir)))
            if again != recs:
                run.check([f"{problem}: resumed records differ from the first call's"])

            errors = [f"{problem} vf {r.vf}: {r.error}" for r in recs if r.error is not None]
            if errors:
                raise RoundFailed("; ".join(errors))
            self._check_sweep(run, problem, out_dir, recs)
        shutil.rmtree(out_root)
        return ({"designs_per_s": designs / solve_s, "ms_per_iter": 1e3 * solve_s / iters},
                {"resume_s": [resume_s]})

    def _check_sweep(self, run, problem, out_dir, recs) -> None:
        for r in recs:
            inp = _read(os.path.join(out_dir, r.input))
            tgt = _read(os.path.join(out_dir, r.target))
            run.check(checks.check_input_pgm(inp, r.vf))
            run.check(checks.check_target_volume(tgt, r.vf, inequality=problem == "arch"))
            bound = None
            if problem == "micro":
                bound = checks.voigt_bulk_bound(checks.pgm_density(tgt), PENAL, MATERIAL.nu,
                                                MATERIAL.emin, MATERIAL.e0)
            run.check(checks.check_objective_value(r.objective, problem, bound))
            key = f"{problem}/{r.target}"
            if self.reference.setdefault(key, tgt) != tgt:
                run.check([f"{key}: a repeated sweep wrote a different design"])


class LearnFull:
    """Train the full network, round-trip its checkpoint, infer unseen vfs."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.ops_per_round = 2 + sizes.infer_calls
        self.profile = sizes.learn_profile(sizes.learn_width)
        n = self.profile.input_size
        # capped solves: the network's cost does not depend on the targets
        self.cfg = CantileverConfig(nelx=n, nely=n, penal=PENAL, max_iters=sizes.learn_gen_iters,
                                    change_tol=0.0, material=MATERIAL)
        start = _vf(rng, 20, 40)
        self.train_vfs = [round(start + 0.1 * i, 2) for i in range(sizes.learn_samples)]
        self.score_vfs = sorted(rng.choice(self.train_vfs, sizes.score_vfs, replace=False).tolist())
        unseen = set()
        while len(unseen) < sizes.infer_calls:
            vf = round(float(rng.uniform(0.05, 0.95)), 3)
            if vf not in self.train_vfs:
                unseen.add(vf)
        self.infer_vfs = sorted(unseen)
        self.data_dir = os.path.join(workdir, "data")
        self.samples = None
        self.targets: dict[float, str] = {}
        self.reference: dict = {}

    def build_inputs(self, run: Run) -> None:
        """The seeded training set: capped cantilever solves at the network's size."""
        recs = dataset.generate_dataset("cantilever", self.cfg, self.data_dir,
                                        vf_start=self.train_vfs[0], vf_stop=self.train_vfs[-1],
                                        vf_step=0.1, threads=1)
        if [r.vf for r in recs] != self.train_vfs:
            run.check([f"dataset has vfs {[r.vf for r in recs]}, expected {self.train_vfs}"])
        for r in recs:
            run.check([f"training sample vf {r.vf}: {r.error}"] if r.error else
                      checks.check_objective_value(r.objective, "cantilever"))
            self.targets[r.vf] = os.path.join(self.data_dir, r.target or "")
        self.samples = dataset.load_samples(os.path.join(self.data_dir, "manifest.jsonl"))

    def body(self, run: Run) -> tuple[dict, dict]:
        sz = self.sizes
        tc = TrainConfig(epochs=sz.learn_epochs, lr=sz.learn_lr, seed=self.seed)
        (ck, losses), dt_train = run.op(training.train, self.profile, self.samples, tc)
        if not losses[-1] < losses[0]:
            run.check([f"last epoch loss {losses[-1]:.6g} not below first {losses[0]:.6g}"])

        p1 = os.path.join(self.workdir, "a.ckpt")
        p2 = os.path.join(self.workdir, "b.ckpt")
        loaded, _ = run.op(self._round_trip, ck, p1, p2)
        b1 = _read(p1)
        if b1 != _read(p2):
            run.check(["checkpoint save, load, save is not byte-identical"])
        if self.reference.setdefault("ckpt", b1) != b1:
            run.check(["retraining with the same seed gave a different checkpoint"])

        infer_s = []
        side = self.profile.input_size
        for vf in self.infer_vfs:
            field, dt = run.op(training.infer, loaded, vf)
            infer_s.append(dt)
            v = field.values
            if field.as_image().shape != (side, side) or v.min() < 0.0 or v.max() > 1.0:
                run.check([f"infer({vf}) is not a {side}x{side} field in [0, 1]"])
            if self.reference.setdefault(("infer", vf), v.tobytes()) != v.tobytes():
                run.check([f"infer({vf}) is not bit-identical across calls"])

        for vf in self.score_vfs:
            pred = training.infer(loaded, vf)
            target = checks.pgm_density(_read(self.targets[vf]))
            v_err = metrics.volume_error(pred, dataset.field_from_pgm_file(self.targets[vf]))
            run.check(checks.check_v_err(v_err, float(pred.values.mean()), float(target.mean())))
        steps = sz.learn_epochs * len(self.samples)
        return {"ms_per_iter": 1e3 * dt_train / steps}, {"infer_s": infer_s,
                                                        "train_samples_per_s": [steps / dt_train]}

    @staticmethod
    def _round_trip(ck, p1, p2):
        checkpoint.save_checkpoint_file(ck, p1)
        loaded = checkpoint.load_checkpoint_file(p1)
        checkpoint.save_checkpoint_file(loaded, p2)
        return loaded


WORKLOADS = {"solve-large": SolveLarge, "sweep-small": SweepSmall, "learn-full": LearnFull}


def tail(samples: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest percentile with ten or more samples
    beyond it; None with fewer than forty samples, where it would be no tail."""
    n = len(samples)
    if n < 40:
        return None
    k = n - 11  # ten samples above index k
    return int(100 * (k + 1) // n), sorted(samples)[k]


def run_workload(name: str, seed: int, seconds: float, sizes: Sizes = FULL,
                 t0: float | None = None, workdir: str = ".perfbench-work", tracer=None) -> dict:
    """Set up, warm up, measure for ``seconds``, and summarize one workload.

    ``t0`` is when the process started; set-up time runs from there to the
    end of the first operation. Returns the Run, the end-to-end metrics (None
    where no measured round completed), and per-sample detail for the summary.
    """
    t0 = time.perf_counter() if t0 is None else t0
    os.makedirs(workdir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir)
    if tracer is not None:
        tracer.install()
    try:
        wl = WORKLOADS[name](seed, sizes, tmp)
        run = Run(t0, wl.ops_per_round)
        if hasattr(wl, "build_inputs"):
            wl.build_inputs(run)
        run.round(lambda: wl.body(run))  # warm-up: caches, allocations, einsum paths
        rounds: list[tuple[dict, dict]] = []
        window = time.perf_counter()
        while True:
            r = run.round(lambda: wl.body(run))
            if r is not None:
                rounds.append(r)
            if time.perf_counter() - window >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    detail: dict[str, list[float]] = {}
    for _, d in rounds:
        for key, vals in d.items():
            detail.setdefault(key, []).extend(vals)
    out = {"setup_s": run.setup_s}
    for key in ("designs_per_s", "ms_per_iter"):
        vals = [m[key] for m, _ in rounds if key in m]
        out[key] = statistics.median(vals) if vals else None
    if "infer_s" in detail:  # network designs: one per infer call, over every call
        out["designs_per_s"] = 1.0 / statistics.median(detail["infer_s"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"run": run, "metrics": out, "rounds": len(rounds), "detail": detail}
