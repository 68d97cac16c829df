"""vqpde benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload relax-gd --seed 1 --seconds 30 \
        --trace 0

With ``--trace 0`` it draws one input from the seed and repeats the same
program call on it until ``--seconds`` is spent (at least two calls), then
reports the end-to-end metrics: medians over the repeats of set-up and step
times, each scaled by a calibration kernel timed next to it
(``calibration.py``).  Every repeat must write the same bytes.
With ``--trace 1`` it makes one untraced and one traced call on the same
inputs and reports the per-layer metrics from the traced one; the
difference of the two wall times is ``trace.overhead_s``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; ``attempted`` and ``failed`` count time steps.  The lines
before it print every metric by name and unit, the environment and the CSV
digests.  A copy of everything, with the spans of a traced call, goes to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Pin BLAS to one thread before numpy is imported anywhere.
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("VQPDE_WORKERS", None)  # the sweep runs at its default

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_CALLS = 2

# name -> unit; the names and order match BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "step_s_p50": "s",
    "evals_per_step": "count",
    "peak_rss_mb": "MiB",
}
# Printed, but not in the JSON line.  run_s is set-up plus steps, and its
# spread between seeds is that of set-up, whose work varies with the input
# (fit_field's polish stops after a varying number of iterations); it is
# plain wall time, so it also carries the host's speed (kernel_slowdown).
# The last two are accuracy figures: the relative error ranges over decades
# between seeds, and the failed share is 0 when the program works.
PRINTED = {"run_s": "s", "kernel_slowdown": "1", "max_rel_l2": "1",
           "failed_ratio": "1"}

PER_LAYER = {
    "statevec.apply_gate.calls": "count",
    "statevec.apply_gate.self_s": "s",
    "statevec.hadamard_test.calls": "count",
    "statevec.hadamard_test.shots": "count",
    "statevec.hadamard_test.self_s": "s",
    "statevec.apply_shift.calls": "count",
    "statevec.apply_shift.self_s": "s",
    "ansatz.prepare.calls": "count",
    "ansatz.prepare.self_s": "s",
    "ansatz.prepare.total_s": "s",
    "opexpr.apply_term.calls": "count",
    "opexpr.apply_term.total_s": "s",
    "opexpr.apply_expr.calls": "count",
    "opexpr.apply_expr.total_s": "s",
    "opexpr.expand_product.calls": "count",
    "opexpr.expand_product.total_s": "s",
    "costlib.build_cost.calls": "count",
    "costlib.build_cost.total_s": "s",
    "costlib.evaluate_terms.calls": "count",
    "costlib.evaluate_terms.self_s": "s",
    "costlib.term_list.calls": "count",
    "costlib.term_list.calls_per_cost": "calls/cost",
    "costlib.grad_vec.calls": "count",
    "costlib.grad_vec.total_s": "s",
    "costlib.shift_split_eval.calls": "count",
    "costlib.shift_split_eval.total_s": "s",
    "optim.minimize.calls": "count",
    "optim.minimize.self_s": "s",
    "optim.objective_calls": "count",
    "optim.accept_ratio": "1",
    "optim.converged_ratio": "1",
    "evolve.fit_field.total_s": "s",
    "evolve.step.total_s": "s",
    "evolve.step.self_s": "s",
    "evolve.readout.total_s": "s",
    "oracle.classical_run.total_s": "s",
    "cli.load_config.total_s": "s",
    "cli.write_trajectory_csv.calls": "count",
    "cli.write_trajectory_csv.total_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "vqpde" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'vqpde'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import vqpde
    if Path(vqpde.__file__).resolve().parent != (SRC / "vqpde").resolve():
        _fail(f"imported vqpde from {vqpde.__file__}, not from {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in _BLAS_VARS},
        "git_commit": _git_commit(),
        "src_vqpde_lines": sum(len(p.read_text().splitlines())
                               for p in sorted((SRC / "vqpde").glob("*.py"))),
    }


def _run_timed(wl, rng, seconds: float, out_dir: Path) -> list:
    """Repeat one seeded call until the next would overrun ``seconds``."""
    inputs = wl.make_inputs(rng)
    began = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        ex = wl.execute(inputs, out_dir)
        results.append(wl.check(inputs, ex, out_dir))
        spent = time.perf_counter() - began
        if (len(results) >= MIN_CALLS
                and spent + (time.perf_counter() - t0) > seconds):
            break
    if len({r.digest for r in results}) != 1:
        results[-1].problems.append("repeated calls on one input wrote "
                                    "different CSV payloads")
    return results


def _end_to_end(results) -> tuple:
    """(end-to-end metrics, number of step samples).

    ``setup_s`` and ``step_s_p50`` are medians over all the run's calls of
    times in seconds at the baseline host's full speed (``calibration``);
    ``run_s`` is the median plain wall time of a call; ``kernel_slowdown``
    is the median calibration kernel time over its reference time."""
    from calibration import REFERENCE_S
    steps = [s for r in results for s in r.step_s]
    evals = results[0].n_evals
    setups = [r.setup_s for r in results if r.setup_s is not None]
    kernel = [k for r in results for k in r.kernel_s]
    attempted = sum(r.attempted for r in results)
    nan = float("nan")
    return {
        "setup_s": statistics.median(setups) if setups else nan,
        "step_s_p50": statistics.median(steps) if steps else nan,
        "evals_per_step": statistics.fmean(evals) if evals else nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "run_s": statistics.median(r.run_s for r in results),
        "kernel_slowdown": (statistics.median(kernel) / REFERENCE_S
                            if kernel else nan),
        "max_rel_l2": max(r.max_rel_l2 for r in results),
        "failed_ratio": sum(r.failed for r in results) / max(attempted, 1),
    }, len(steps)


def _run_traced(wl, rng, seed: int, out_dir: Path) -> tuple:
    """(results, per-layer metrics, share of the step time spent in each
    span's self time)."""
    from tracing import Tracer, layer_times
    inputs = wl.make_inputs(rng)
    plain = wl.check(inputs, wl.execute(inputs, out_dir), out_dir)
    tracer = Tracer(run_id=seed)
    with tracer:
        ex = wl.execute(inputs, out_dir)
    traced = wl.check(inputs, ex, out_dir)
    tracer.save(out_dir / "spans.npz")
    layer = tracer.layer_metrics()
    layer["trace.overhead_s"] = traced.run_s - plain.run_s
    if traced.digest != plain.digest:
        traced.problems.append("traced and untraced CSV payloads differ")
    in_step = layer_times(tracer.spans, within="evolve.step")
    step_s = in_step.get("evolve.step", {}).get("total_s", 0.0)
    shares = {k: v["self_s"] / step_s for k, v in sorted(
        in_step.items(), key=lambda kv: -kv[1]["self_s"])} if step_s else {}
    return [plain, traced], {m: layer.get(m, 0) for m in PER_LAYER}, shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    step_shares = {}
    if args.trace:
        results, layer, step_shares = _run_traced(wl, rng, args.seed, out_dir)
        metrics = {m: (layer[m], PER_LAYER[m]) for m in PER_LAYER}
        n_steps = None
    else:
        results = _run_timed(wl, rng, args.seconds, out_dir)
        e2e, n_steps = _end_to_end(results)
        metrics = {m: (e2e[m], u) for m, u in {**END_TO_END, **PRINTED}.items()}

    problems = [p for r in results for p in r.problems]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = not problems and failed == 0 and all(
        np.isfinite(v) for m, (v, _) in metrics.items() if m in END_TO_END)
    env = environment()

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"calls {len(results)}")
    for key, val in env.items():
        print(f"  env {key}: {val}")
    for name, (val, unit) in metrics.items():
        extra = f"  (n={n_steps} step samples)" if name == "step_s_p50" else ""
        print(f"  {name:36s} {val:.6g} {unit}{extra}")
    if step_shares:
        print("  share of evolve.step time by self time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in step_shares.items() if v >= 0.005))
    for i, r in enumerate(results):
        print(f"  call {i}: sha256 {r.digest}  steps {r.attempted - r.failed}"
              f"/{r.attempted}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    listed = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m: {"value": float(metrics[m][0]), "unit": metrics[m][1]}
                    for m in listed},
    }
    record = dict(line, workload=wl.name, seed=args.seed, trace=args.trace,
                  env=env, digests=[r.digest for r in results],
                  problems=problems,
                  printed={m: metrics[m][0] for m in PRINTED if m in metrics},
                  step_samples=n_steps, step_self_share=step_shares,
                  step_s=[s for r in results for s in r.step_s],
                  kernel_s=[k for r in results for k in r.kernel_s])
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
