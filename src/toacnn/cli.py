"""Command-line surface: solve, gen, train, infer, eval.

One binary drives the whole pipeline. Logs go to standard error; the only
things written to standard output are result values (solve, train) and the
evaluation table. Exit codes: 0 success, 2 usage or validation, 3 file or
format problems, 4 numeric failures (solver accuracy, divergence).

Environment: TOACNN_SEED seeds training when --seed is not given (default
42); TOACNN_THREADS caps dataset-generation parallelism (default 1, which
is the strict deterministic mode). A value that is not an integer, or a
thread count below 1, is a usage error of the subcommand that reads it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .dataset import (
    PROBLEMS,
    atomic_write,
    canonical_json,
    config_fingerprint,
    generate_dataset,
    load_samples,
    parse_json,
    read_manifest,
    write_pgm_file,
)
from .errors import FormatError, SolverFailure, TrainingDiverged
from .metrics import eval_report, render_report, write_report
from .neural.checkpoint import load_checkpoint_file, save_checkpoint_file
from .neural.profile import NetworkProfile, full_profile, small_profile
from .neural.training import TrainConfig, infer, train

# Config fields set by a flag of another name. vf never comes from a flag:
# solve passes its --vf, gen sweeps it, and eval's --vf is a list.
_FIELD_FLAGS = {"max_iters": "maxit", "change_tol": "tol"}


def _add_physics_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, choices=sorted(PROBLEMS),
                   help="which design problem to run")
    p.add_argument("--nelx", type=int, default=100, help="elements in x")
    p.add_argument("--nely", type=int, default=100, help="elements in y")
    p.add_argument("--penal", type=float, default=3.0, help="SIMP penalization power")
    p.add_argument("--rmin", type=float, default=2.4, help="sensitivity filter radius")
    p.add_argument("--move", type=float, default=0.2, help="density move limit per iteration")
    p.add_argument("--maxit", type=int, default=None,
                   help="iteration cap (default: 200, arch runs exactly 100)")
    p.add_argument("--tol", type=float, default=0.01,
                   help="density-change stopping tolerance (cantilever, micro)")
    p.add_argument("--etaf", type=float, default=0.2,
                   help="flow projection threshold (arch)")
    p.add_argument("--betaf", type=float, default=8.0,
                   help="flow projection sharpness (arch)")
    p.add_argument("--lst", type=int, choices=(0, 1), default=1,
                   help="include the load-sensitivity adjoint term (arch)")


def build_problem_config(args, vf: float | None = None):
    """Translate parsed physics flags into the problem's config dataclass;
    a field whose flag is unset (or absent) keeps the config's default."""
    cfg_type = PROBLEMS[args.problem][0]
    flags = vars(args)
    kwargs = {}
    for f in dataclasses.fields(cfg_type):
        value = vf if f.name == "vf" else flags.get(_FIELD_FLAGS.get(f.name, f.name))
        if value is not None:
            kwargs[f.name] = value
    return cfg_type(**kwargs)


def _load_profile(args) -> NetworkProfile:
    if args.profile_file:
        with open(args.profile_file, "rb") as fh:
            d = parse_json(fh.read(), f"profile file {args.profile_file}")
        try:
            return NetworkProfile.from_dict(d)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"malformed profile file {args.profile_file}: {exc}") from exc
    if args.profile == "full":
        return full_profile(args.n)
    return small_profile(args.n)


def cmd_solve(args) -> int:
    cfg = build_problem_config(args, vf=args.vf)
    result = PROBLEMS[args.problem][1](cfg)
    write_pgm_file(result.field.as_image(), args.out)
    meta = {
        "problem": args.problem,
        "vf": cfg.vf,
        "nelx": cfg.nelx,
        "nely": cfg.nely,
        "objective_name": cfg.objective_name,
        "objective": result.objective,
        "iterations": result.iterations,
        "achieved_vf": float(result.field.values.mean()),
        "fingerprint": config_fingerprint(args.problem, cfg),
    }
    stem, _ = os.path.splitext(args.out)
    atomic_write(stem + ".json", (canonical_json(meta) + "\n").encode())
    print(f"{cfg.objective_name} {result.objective:.6g}")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_gen(args) -> int:
    cfg = build_problem_config(args)
    records = generate_dataset(
        args.problem, cfg, args.out,
        vf_start=args.vf_start, vf_stop=args.vf_stop, vf_step=args.vf_step,
        threads=args.threads,
    )
    failed = [r for r in records if r.error is not None]
    print(f"{len(records) - len(failed)} samples ok, {len(failed)} failed, "
          f"manifest at {os.path.join(args.out, 'manifest.jsonl')}", file=sys.stderr)
    for r in failed:
        print(f"  vf {r.vf}: {r.error}", file=sys.stderr)
    return 0 if not failed else 4


def cmd_train(args) -> int:
    profile = _load_profile(args)
    samples = load_samples(args.manifest)
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed,
                      batch_size=args.batch_size)
    ck, history = train(profile, samples, cfg)
    save_checkpoint_file(ck, args.out)
    stem, _ = os.path.splitext(args.out)
    atomic_write(stem + ".losses.txt",
                  "".join(f"{v:.9e}\n" for v in history).encode())
    print(f"trained {cfg.epochs} epochs on {len(samples)} samples, "
          f"checkpoint at {args.out}", file=sys.stderr)
    print(f"final_loss {history[-1]:.6e}")
    return 0


def cmd_infer(args) -> int:
    ck = load_checkpoint_file(args.checkpoint)
    field = infer(ck, args.vf)
    write_pgm_file(field.as_image(), args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg = build_problem_config(args)
    checkpoints = {}
    for path in args.checkpoint:
        ck = load_checkpoint_file(path)
        n = ck.profile.adaptive_units
        if n in checkpoints:
            raise ValueError(f"two checkpoints with adaptive width {n}")
        checkpoints[n] = ck
    vfs = args.vf
    if vfs is None:
        vfs = [r.vf for r in read_manifest(args.manifest) if r.error is None]
    records = eval_report(checkpoints, args.manifest, cfg, vfs)
    sys.stdout.write(render_report(records))
    if args.out:
        write_report(records, args.out)
    if records and all(r.error is not None for r in records):
        print("every record failed", file=sys.stderr)
        return 3
    return 0


def _vf_list(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad volume-fraction list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty volume-fraction list")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toacnn",
        description="Topology optimization solvers and the density-predicting network",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("solve", help="run one optimization and write the design",
                       formatter_class=fmt)
    _add_physics_args(p)
    p.add_argument("--vf", type=float, required=True, help="target volume fraction")
    p.add_argument("--out", default="design.pgm", help="output PGM path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a volume-fraction sweep dataset",
                       formatter_class=fmt)
    _add_physics_args(p)
    p.add_argument("--out", required=True, help="dataset directory")
    p.add_argument("--vf-start", type=float, default=0.01, help="sweep start")
    p.add_argument("--vf-stop", type=float, default=0.95, help="sweep end, inclusive")
    p.add_argument("--vf-step", type=float, default=0.01, help="sweep spacing")
    p.add_argument("--threads", type=int, default=os.environ.get("TOACNN_THREADS", "1"),
                   help="parallel solves (TOACNN_THREADS)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the network on a generated dataset",
                       formatter_class=fmt)
    p.add_argument("--manifest", required=True, help="dataset manifest path")
    p.add_argument("--out", default="model.ckpt", help="checkpoint output path")
    p.add_argument("--profile", choices=("full", "small"), default="full",
                   help="network size preset")
    p.add_argument("--profile-file", default=None,
                   help="JSON profile description overriding --profile")
    p.add_argument("--n", type=int, default=0,
                   help="adaptive dense width (0 disables the middle layer)")
    p.add_argument("--epochs", type=int, default=2000, help="training epochs")
    p.add_argument("--lr", type=float, default=1e-4, help="Adam learning rate")
    p.add_argument("--batch-size", type=int, default=1, help="samples per update")
    p.add_argument("--seed", type=int, default=os.environ.get("TOACNN_SEED", "42"),
                   help="init/shuffle seed (TOACNN_SEED)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="predict a design from a checkpoint",
                       formatter_class=fmt)
    p.add_argument("--checkpoint", required=True, help="trained model file")
    p.add_argument("--vf", type=float, required=True, help="requested volume fraction")
    p.add_argument("--out", default="prediction.pgm", help="output PGM path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score checkpoints against dataset targets",
                       formatter_class=fmt)
    _add_physics_args(p)
    p.add_argument("--manifest", required=True, help="dataset manifest path")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="checkpoint path; repeat for an n-sweep")
    p.add_argument("--vf", type=_vf_list, default=None,
                   help="comma-separated volume fractions (default: all in manifest)")
    p.add_argument("--out", default=None, help="also write records as JSON lines")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SolverFailure, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
