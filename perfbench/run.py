"""Benchmark entry point: one workload per process, result as the last stdout line.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the JSON line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones from a run with spans around the program's
functions. Human-readable detail goes to the lines before it. Exits 2 when
the program's sources are not next to this directory, 1 when a run could not
produce its metrics.
"""

import time

T0 = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = "1"


def main(argv=None) -> int:
    # the BLAS pool counts toward the thread budget; it must be set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "toacnn", "__init__.py")):
        print(f"error: no toacnn sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import tracing
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    res = workloads.run_workload(args.workload, args.seed, args.seconds, t0=T0,
                                 workdir=os.path.join(ROOT, ".perfbench-work"), tracer=tracer)
    run, e2e = res["run"], res["metrics"]
    if any(v is None for v in e2e.values()):
        for msg in run.errors + run.failures:
            print(f"error: {msg}", file=sys.stderr)
        print("error: no measured round completed", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed {args.seed}: {res['rounds']} measured rounds, "
          f"{run.attempted} operations, {run.failed} failed, BLAS threads {BLAS_THREADS}"
          f"{', traced' if tracer else ''}")
    for name, unit in workloads.END_TO_END:
        print(f"#   {name} = {e2e[name]:.6g} {unit}")
    for key, vals in sorted(res["detail"].items()):
        line = f"#   {key}: median {statistics.median(vals):.6g} over {len(vals)} samples"
        tail = workloads.tail(vals)
        if tail is not None:
            line += f", p{tail[0]} {tail[1]:.6g}"
        print(line)
    for msg in run.errors:
        print(f"# OPERATION FAILED: {msg}")
    for msg in run.failures:
        print(f"# CHECK FAILED: {msg}")

    if tracer:
        layer = tracer.per_layer_metrics()
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in workloads.END_TO_END}
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
