"""Release gates: eight end-to-end criteria, one verdict line apiece.

Each test prints "[criterion N] PASS/FAIL label: detail" directly on the
terminal (bypassing capture), then asserts. A plain pytest run therefore
shows the checklist live while failures still fail loudly. Budgets are part
of the gate: every criterion carries a wall-clock ceiling.
"""

import os
import time

import numpy as np
import pytest
from _gradcheck import fd_grad, rel_err, scalar_fd
from scipy import ndimage

from toacnn.cantilever import CantileverConfig, solve_cantilever
from toacnn.dataset import (
    ManifestRecord,
    config_fingerprint,
    generate_dataset,
    load_samples,
    read_manifest,
    read_pgm,
    write_manifest,
    write_pgm,
    write_pgm_file,
)
from toacnn.errors import FormatError
from toacnn.fem import (
    DensityField,
    Grid,
    Material,
    assemble_stiffness,
    compliance,
    element_stiffness,
    solve_many,
)
from toacnn.metrics import eval_report
from toacnn.microstructure import MicroConfig, bulk_modulus, bulk_objective, homogenize, solve_micro
from toacnn.neural.checkpoint import Checkpoint, load_checkpoint_file, save_checkpoint_file
from toacnn.neural.layers import (
    conv2d_backward,
    conv2d_forward,
    conv2d_param_grads,
    dense_backward,
    dense_forward,
    dense_param_grads,
    maxpool_backward,
    maxpool_forward,
    mse_loss,
    relu_backward,
    relu_forward,
    tconv_backward,
    tconv_forward,
    tconv_param_grads,
)
from toacnn.neural.model import init_params
from toacnn.neural.profile import NetworkProfile, full_profile, small_profile
from toacnn.neural.training import TrainConfig, train
from toacnn.pressure import (
    PressureConfig,
    arch_analysis,
    arch_sensitivities,
    assemble_darcy,
    evaluate_arch,
    solve_arch,
    solve_pressure,
)


def verdict(capsys, num, label, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def quadrature_ke(nu):
    """Independent element oracle: 2x2 Gauss quadrature of B^T D B on the
    unit square, exact for the bilinear quad up to roundoff."""
    d = np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]]) / (1.0 - nu * nu)
    g = 0.5 / np.sqrt(3.0)
    ke = np.zeros((8, 8))
    for x in (0.5 - g, 0.5 + g):
        for y in (0.5 - g, 0.5 + g):
            dn = np.array([
                [-(1 - y), (1 - y), y, -y],
                [-(1 - x), -x, x, (1 - x)],
            ])
            b = np.zeros((3, 8))
            for i in range(4):
                b[0, 2 * i] = dn[0, i]
                b[1, 2 * i + 1] = dn[1, i]
                b[2, 2 * i] = dn[1, i]
                b[2, 2 * i + 1] = dn[0, i]
            ke += 0.25 * b.T @ d @ b
    return ke


def test_criterion_1_finite_element_oracle(capsys):
    t0 = time.perf_counter()
    ke_err = np.abs(element_stiffness(Material()) - quadrature_ke(0.3)).max()

    # single element, left edge clamped, unit pull at the free corner
    grid = Grid(1, 1)
    k = assemble_stiffness(DensityField(grid, np.ones(1)), 3.0, Material())
    fixed = np.array([0, 1, 2, 3])
    f = np.zeros(8)
    f[5] = -1.0
    u = solve_many(k, f, fixed)[0]
    dense = np.zeros(8)
    dense[4:] = np.linalg.solve(k.toarray()[4:, 4:], f[4:])
    solve_err = np.abs(u - dense).max()

    dt = time.perf_counter() - t0
    ok = ke_err <= 1e-12 and solve_err <= 1e-9 and dt < 1.0
    verdict(capsys, 1, "finite element oracle", ok,
            f"KE err {ke_err:.2e} (tol 1e-12), solve err {solve_err:.2e} (tol 1e-9), {dt:.2f}s")


def _rand32(rng, *shape):
    return rng.uniform(-1.0, 1.0, shape).astype(np.float32)


def _layer_fd_worst():
    """Worst relative error across 20 random configs per layer kind."""
    worst = {}

    errs = []
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        hw = int(rng.integers(4, 7))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kk = int(rng.choice([1, 3, 5]))
        x = _rand32(rng, hw, hw + 1, cin)
        ker = _rand32(rng, kk, kk, cin, cout)
        b = _rand32(rng, cout)
        y, cache = conv2d_forward(x, ker, b)
        w = rng.uniform(-1, 1, y.shape)
        dx = conv2d_backward(cache, w.astype(np.float32))
        dk, db = conv2d_param_grads(cache, w.astype(np.float32))
        errs.append(max(
            rel_err(dx, fd_grad(lambda v: conv2d_forward(v, ker, b)[0], x, w)),
            rel_err(dk, fd_grad(lambda v: conv2d_forward(x, v, b)[0], ker, w)),
            rel_err(db, fd_grad(lambda v: conv2d_forward(x, ker, v)[0], b, w)),
        ))
    worst["conv"] = max(errs)

    errs = []
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        size = int(rng.choice([2, 3, 5]))
        n = size * int(rng.integers(1, 3))
        ch = int(rng.integers(1, 4))
        # distinct integers keep every argmax stable under the fd step
        x = rng.permutation(n * n * ch).reshape(n, n, ch).astype(np.float32)
        y, cache = maxpool_forward(x, size)
        w = rng.uniform(-1, 1, y.shape)
        dx = maxpool_backward(cache, w.astype(np.float32))
        errs.append(rel_err(dx, fd_grad(lambda v: maxpool_forward(v, size)[0], x, w, h=0.25)))
    worst["pool"] = max(errs)

    errs = []
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        nin, nout = int(rng.integers(2, 12)), int(rng.integers(1, 9))
        x, w, b = _rand32(rng, nin), _rand32(rng, nin, nout), _rand32(rng, nout)
        y, cache = dense_forward(x, w, b)
        up = rng.uniform(-1, 1, y.shape)
        dx = dense_backward(cache, up.astype(np.float32))
        dw, db = dense_param_grads(cache, up.astype(np.float32))
        errs.append(max(
            rel_err(dx, fd_grad(lambda v: dense_forward(v, w, b)[0], x, up)),
            rel_err(dw, fd_grad(lambda v: dense_forward(x, v, b)[0], w, up)),
            rel_err(db, fd_grad(lambda v: dense_forward(x, w, v)[0], b, up)),
        ))
    worst["dense"] = max(errs)

    errs = []
    for trial in range(20):
        rng = np.random.default_rng(4000 + trial)
        h, wd = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f = int(rng.choice([2, 3]))
        x = _rand32(rng, h, wd, cin)
        ker = _rand32(rng, f, f, cin, cout)
        b = _rand32(rng, cout)
        y, cache = tconv_forward(x, ker, b)
        up = rng.uniform(-1, 1, y.shape)
        dx = tconv_backward(cache, up.astype(np.float32))
        dk, db = tconv_param_grads(cache, up.astype(np.float32))
        errs.append(max(
            rel_err(dx, fd_grad(lambda v: tconv_forward(v, ker, b)[0], x, up)),
            rel_err(dk, fd_grad(lambda v: tconv_forward(x, v, b)[0], ker, up)),
            rel_err(db, fd_grad(lambda v: tconv_forward(x, ker, v)[0], b, up)),
        ))
    worst["tconv"] = max(errs)

    errs = []
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        # keep samples away from the kink so the fd step never crosses it
        x = (rng.uniform(0.05, 1.0, shape) * rng.choice([-1.0, 1.0], shape)).astype(np.float32)
        y, cache = relu_forward(x)
        w = rng.uniform(-1, 1, y.shape)
        dx = relu_backward(cache, w.astype(np.float32))
        errs.append(rel_err(dx, fd_grad(lambda v: relu_forward(v)[0], x, w)))
    worst["relu"] = max(errs)

    errs = []
    for trial in range(20):
        rng = np.random.default_rng(6000 + trial)
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        p = _rand32(rng, *shape)
        t = _rand32(rng, *shape)
        _, grad = mse_loss(p, t)
        errs.append(rel_err(grad, scalar_fd(lambda v: mse_loss(v, t)[0], p)))
    worst["mse"] = max(errs)

    return worst


def _pressure_adjoint_worst():
    cfg = PressureConfig(nelx=6, nely=6, vf=0.4, support_halfwidth=1)
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.25, 0.75, 36)
    fld = DensityField(cfg.grid, rho)
    darcy, p, _, u = arch_analysis(fld, cfg)
    _, ce = compliance(u, fld, cfg.penal, cfg.material)
    dc = arch_sensitivities(u, p, fld, cfg, ce, darcy)
    h = 1e-6
    fd = np.zeros(36)
    for e in range(36):
        rp, rm = rho.copy(), rho.copy()
        rp[e] += h
        rm[e] -= h
        fd[e] = (
            evaluate_arch(DensityField(cfg.grid, rp), cfg)
            - evaluate_arch(DensityField(cfg.grid, rm), cfg)
        ) / (2.0 * h)
    return float(np.abs(dc - fd).max() / np.abs(fd).max())


def _homog_gradient_worst():
    rng = np.random.default_rng(7)
    mat = Material()
    vals = rng.uniform(0.2, 0.9, 16)
    grid = Grid(4, 4)
    _, dc = bulk_objective(DensityField(grid, vals), 3.0, mat)
    h = 1e-6
    fd = np.zeros(16)
    for e in range(16):
        vp, vm = vals.copy(), vals.copy()
        vp[e] += h
        vm[e] -= h
        fd[e] = (
            bulk_objective(DensityField(grid, vp), 3.0, mat)[0]
            - bulk_objective(DensityField(grid, vm), 3.0, mat)[0]
        ) / (2.0 * h)
    scale = np.maximum(np.abs(fd), 1e-10)
    return float((np.abs(dc - fd) / scale).max())


def test_criterion_2_gradient_suites(capsys):
    t0 = time.perf_counter()
    layers = _layer_fd_worst()
    adj = _pressure_adjoint_worst()
    hom = _homog_gradient_worst()
    dt = time.perf_counter() - t0
    layer_worst = max(layers.values())
    ok = layer_worst < 1e-3 and adj < 1e-3 and hom < 1e-3 and dt < 120.0
    layer_txt = " ".join(f"{k}={v:.1e}" for k, v in layers.items())
    verdict(capsys, 2, "gradient suites", ok,
            f"layers[{layer_txt}], pressure adjoint {adj:.1e}, "
            f"homog {hom:.1e} (tol 1e-3), {dt:.1f}s")


def test_criterion_3_homogenization_closed_forms(capsys):
    t0 = time.perf_counter()
    mat = Material()
    c_h, _ = homogenize(DensityField(Grid(4, 4), np.ones(16)), 3.0, mat)
    errs = (
        abs(c_h[0, 0] - 1.098901),
        abs(c_h[0, 1] - 0.329670),
        abs(bulk_modulus(c_h) - 0.714286),
    )

    rng = np.random.default_rng(11)
    margin = np.inf
    for _ in range(100):
        rho = DensityField(Grid(6, 6), rng.uniform(0.01, 1.0, 36))
        c, _ = homogenize(rho, 3.0, mat)
        bound = np.mean(mat.emin + rho.values**3 * (mat.e0 - mat.emin)) * 1.3 / 1.82
        margin = min(margin, bound - bulk_modulus(c))

    dt = time.perf_counter() - t0
    ok = max(errs) <= 1e-6 and margin >= -1e-12 and dt < 60.0
    verdict(capsys, 3, "homogenization closed forms", ok,
            f"C11/C12/K_H errs {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e} (tol 1e-6), "
            f"min Voigt slack {margin:.2e} over 100 fields, {dt:.1f}s")


def test_criterion_4_flow_analytics(capsys):
    t0 = time.perf_counter()

    cfg = PressureConfig(nelx=4, nely=50)
    fld = DensityField(cfg.grid, np.zeros(200))
    _, p = solve_pressure(assemble_darcy(fld, cfg), cfg.grid, 1.0)
    rows = np.arange(51)
    lin_err = max(
        np.abs(p[c * 51 + rows] - rows / 50.0).max() for c in range(5)
    )

    # 1-D solid column: continuum solution decays to r_d * p0 at depth delta_s
    cfg = PressureConfig(nelx=1, nely=100)
    fld = DensityField(cfg.grid, np.ones(100))
    _, p = solve_pressure(assemble_darcy(fld, cfg), cfg.grid, 1.0)
    at_depth = p[100 - int(cfg.delta_s)]
    decay_err = abs(at_depth - cfg.r_d * cfg.p0) / (cfg.r_d * cfg.p0)

    dt = time.perf_counter() - t0
    ok = lin_err < 1e-8 and decay_err < 0.2 and dt < 30.0
    verdict(capsys, 4, "flow analytics", ok,
            f"void-column nodal err {lin_err:.1e} (tol 1e-8), "
            f"solid decay off by {100 * decay_err:.1f}% (tol 20%), {dt:.1f}s")


VFS20 = np.round(np.linspace(0.05, 0.95, 20), 6)
# The arch sweep starts at 0.10: below that the optimizer legitimately forms
# solid islands coupled to the supports only through the 1e-9 void stiffness,
# and those systems sit above the float64 floor of the residual measurement
# (eps * || |K||u| || / ||b|| ~ 1e-6 for ||u||~1e11), so the linear solver
# raises by contract rather than return an unverifiable solution.
ARCH_VFS20 = np.round(np.linspace(0.10, 0.95, 20), 6)


def test_criterion_5_solver_contracts(capsys):
    t0 = time.perf_counter()
    problems = {
        "cantilever": (VFS20, lambda v: CantileverConfig(nelx=60, nely=20, vf=v),
                       solve_cantilever),
        "arch": (ARCH_VFS20, lambda v: PressureConfig(nelx=40, nely=40, vf=v), solve_arch),
        "micro": (VFS20, lambda v: MicroConfig(nelx=40, nely=40, vf=v), solve_micro),
    }
    worst_vol = 0.0
    deterministic = True
    connected = 0
    connect_cases = 0
    min_gain = np.inf
    for name, (vfs, make, solve) in problems.items():
        for vf in vfs:
            cfg = make(float(vf))
            r1 = solve(cfg)
            r2 = solve(cfg)
            if (r1.field.values.tobytes() != r2.field.values.tobytes()
                    or r1.objective != r2.objective):
                deterministic = False
            mean = r1.field.values.mean()
            if name == "arch":
                worst_vol = max(worst_vol, mean - vf)  # inequality constraint
            else:
                worst_vol = max(worst_vol, abs(mean - vf))
            if name == "arch" and vf >= 0.2:
                connect_cases += 1
                solid = r1.field.as_image() >= 0.5
                labels, _ = ndimage.label(solid, structure=np.ones((3, 3), int))
                bottom = labels[-1]
                hw = cfg.support_halfwidth
                left = set(bottom[:hw]) - {0}
                right = set(bottom[-hw:]) - {0}
                if left & right:
                    connected += 1
            if name == "micro":
                min_gain = min(min_gain, r1.objective - r1.history[0][0])
    dt = time.perf_counter() - t0
    ok = (worst_vol <= 1e-4 and deterministic and connected == connect_cases
          and min_gain > 0.0 and dt < 900.0)
    verdict(capsys, 5, "solver contracts", ok,
            f"worst volume dev {worst_vol:.1e} (tol 1e-4), deterministic={deterministic}, "
            f"arch connected {connected}/{connect_cases}, "
            f"min micro gain {min_gain:.2e}, {dt:.0f}s")


def test_criterion_6_scaled_end_to_end(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = CantileverConfig(nelx=40, nely=40)
    recs = generate_dataset("cantilever", cfg, str(tmp_path),
                            vf_start=0.05, vf_stop=0.95, vf_step=0.05)
    gen_ok = len(recs) == 19 and all(r.error is None for r in recs)

    manifest = str(tmp_path / "manifest.jsonl")
    samples = load_samples(manifest)
    tc = TrainConfig(epochs=500, lr=1e-3, seed=42)
    ck64, hist64 = train(small_profile(64), samples, tc)
    _, hist0 = train(small_profile(0), samples, tc)

    records = eval_report([ck64], manifest, cfg, [0.25, 0.50, 0.75])
    eval_ok = all(r.error is None for r in records)
    v_worst = max((r.v_err for r in records if r.v_err is not None), default=np.inf)
    o_worst = max((r.obj_err for r in records if r.obj_err is not None), default=np.inf)
    adaptive_gain = hist0[-1] - hist64[-1]

    dt = time.perf_counter() - t0
    ok = (gen_ok and eval_ok and v_worst < 5.0 and o_worst < 15.0
          and hist64[-1] < hist0[-1] and dt < 3600.0)
    verdict(capsys, 6, "scaled end-to-end", ok,
            f"19 samples, worst V_err {v_worst:.2f}% (tol 5%), worst Obj_err {o_worst:.2f}% "
            f"(tol 15%), final loss n=64 {hist64[-1]:.2e} vs n=0 {hist0[-1]:.2e} "
            f"(gain {adaptive_gain:.2e}), {dt:.0f}s")


def test_criterion_7_parameter_arithmetic(capsys):
    t0 = time.perf_counter()
    profile = full_profile(8000)
    count = profile.dense_parameter_count()
    width = profile.flatten_width
    dt = time.perf_counter() - t0
    ok = count == 204_820_800 and width == 12800 and dt < 0.1
    verdict(capsys, 7, "parameter arithmetic", ok,
            f"dense params {count:,} (expect 204,820,800), flatten {width} "
            f"(expect 12800), {dt * 1e3:.1f}ms")


def test_criterion_8_format_round_trips(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)

    image = rng.uniform(0.0, 1.0, (13, 9))
    b1 = write_pgm(image)
    b2 = write_pgm(read_pgm(b1))
    pgm_ok = b1 == b2

    profile = NetworkProfile(8, ((3, 2, 2), (3, 3, 2)), 4, ((2, 2), (2, 1)))
    ck = Checkpoint(profile, init_params(profile, seed=5), seed=5, epochs=3,
                    loss_tail=[0.5, 0.25])
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    save_checkpoint_file(ck, p1)
    save_checkpoint_file(load_checkpoint_file(p1), p2)
    with open(p1, "rb") as fa, open(p2, "rb") as fb:
        ckpt_ok = fa.read() == fb.read()

    fp = config_fingerprint("cantilever", CantileverConfig(nelx=2, nely=2))
    write_pgm_file(np.zeros((2, 2)), str(tmp_path / "input_040.pgm"))
    write_pgm_file(np.zeros((2, 2)), str(tmp_path / "target_040.pgm"))
    manifest = str(tmp_path / "manifest.jsonl")
    write_manifest([ManifestRecord("cantilever", 0.4, "input_040.pgm", "target_040.pgm",
                                   1.0, 3, fp)], manifest)
    read_manifest(manifest)
    os.unlink(str(tmp_path / "target_040.pgm"))
    try:
        read_manifest(manifest)
        deletion_caught = False
    except FormatError:
        deletion_caught = True

    dt = time.perf_counter() - t0
    ok = pgm_ok and ckpt_ok and deletion_caught and dt < 10.0
    verdict(capsys, 8, "format round-trips", ok,
            f"pgm bytes stable={pgm_ok}, checkpoint bytes stable={ckpt_ok}, "
            f"deleted target caught={deletion_caught}, {dt:.1f}s")
