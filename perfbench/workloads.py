"""The benchmark's workloads.

Each workload draws its inputs from a ``numpy.random.Generator`` seeded by
the benchmark's ``--seed`` (never from ``hash()``), makes one program call
whose wall time is measured, and checks the outputs afterwards, outside the
timed region.  The program sees only the generated arrays or config.

The only timer inside a call sits at the ``evolve.step`` boundary (a
call of 0.3 s or more), with the calibration kernel timed on either side.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from vqpde import cli, evolve, oracle
from vqpde.ansatz import AnsatzSpec
from vqpde.costlib import DSW, CamassaHolm, NavierStokes
from vqpde.optim import SPSA, GradientDescent
from vqpde.statevec import layout_1d

from calibration import kernel_s, normalized

_TWO_PI = 2.0 * np.pi


class BoundaryTimer:
    """Times each ``evolve.step`` by patching the name ``evolve.run`` looks
    up, and restores it on exit.  Set-up (``fit_field`` and, through the CLI,
    config parsing) is the time from the call to the first step.  The
    calibration kernel is timed on entry and around each step, outside the
    timed spans; ``overhead`` is its share of the call."""

    def __init__(self):
        self.steps: list = []  # (entered, start, end, n_evals, before, after)
        self.kernel_on_entry = None
        self.overhead = 0.0
        self._saved = None

    def __enter__(self):
        step = self._saved = evolve.step

        def timed_step(*args, **kwargs):
            entered = time.perf_counter()
            before = kernel_s()
            t0 = time.perf_counter()
            x, info = step(*args, **kwargs)
            t1 = time.perf_counter()
            after = kernel_s()
            self.overhead += t0 - entered + time.perf_counter() - t1
            self.steps.append(
                (entered, t0, t1, info["n_evals"], before, after))
            return x, info

        evolve.step = timed_step
        self.kernel_on_entry = kernel_s()
        return self

    def __exit__(self, *exc):
        evolve.step = self._saved
        return False


@dataclass
class Execution:
    """What one timed program call produced.  ``setup_s`` and ``step_s``
    are in seconds at the baseline host's full speed (``calibration``);
    ``run_s`` is plain wall time, less the calibration kernel's."""

    start: float
    end: float
    timer: BoundaryTimer
    output: object = None
    error: str | None = None

    @property
    def run_s(self) -> float:
        return self.end - self.start - self.timer.overhead

    @property
    def setup_s(self) -> float | None:
        if not self.timer.steps:
            return None
        entered, _, _, _, before, _ = self.timer.steps[0]
        return normalized(entered - self.start, self.timer.kernel_on_entry,
                          before)

    @property
    def step_s(self) -> list:
        return [normalized(t1 - t0, before, after)
                for _, t0, t1, _, before, after in self.timer.steps]

    @property
    def n_evals(self) -> list:
        return [s[3] for s in self.timer.steps]

    @property
    def kernel_s(self) -> list:
        return [self.timer.kernel_on_entry] + [
            k for s in self.timer.steps for k in s[4:]]


@dataclass
class CallResult:
    run_s: float
    setup_s: float | None
    step_s: list
    n_evals: list
    attempted: int
    failed: int
    max_rel_l2: float
    digest: str
    problems: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode() + b"\0")
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _step_errors(fields, refs, tol: float) -> tuple:
    """(max relative L2 over steps 1.., count of steps beyond tol or not
    finite) for a committed trajectory against its reference."""
    errs = oracle.l2_error(fields, refs[:len(fields)])[1:]
    bad = int(np.sum(~np.isfinite(errs) | (errs > tol)))
    worst = float(np.max(errs)) if errs.size else 0.0
    return worst, bad


class ApiWorkload:
    """A trajectory through ``evolve.run`` on generated initial fields."""

    def __init__(self, name, problem, n_qubits, layers, tau, n_steps, tol):
        self.name = name
        self.problem = problem
        self.layout = layout_1d(n_qubits, 1.0)
        self.spec = AnsatzSpec(n_qubits=n_qubits, layers=layers,
                               rotation_axes=("Y",), entangler="chain")
        self.tau = tau
        self.n_steps = n_steps
        self.tol = tol

    def config(self, rng) -> evolve.EvolutionConfig:
        raise NotImplementedError

    def fields(self, rng) -> list:
        raise NotImplementedError

    def make_inputs(self, rng: np.random.Generator) -> dict:
        fields = self.fields(rng)
        return {"fields": fields, "cfg": self.config(rng)}

    def execute(self, inputs: dict, out_dir: Path) -> Execution:
        traj, error = None, None
        with BoundaryTimer() as timer:
            start = time.perf_counter()
            try:
                traj = evolve.run(self.problem, inputs["fields"],
                                  inputs["cfg"], self.layout, self.spec)
            except Exception as exc:  # reported as failed steps
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        return Execution(start, end, timer, traj, error)

    def check(self, inputs: dict, ex: Execution, out_dir: Path) -> CallResult:
        traj = ex.output
        if traj is None:
            return CallResult(ex.run_s, ex.setup_s, [], [], self.n_steps,
                              self.n_steps, float("inf"), "",
                              [f"evolve.run raised {ex.error}"])
        problems = []
        missing = self.n_steps + 1 - len(traj)
        if missing:
            problems.append(f"trajectory stopped after {len(traj) - 1} of "
                            f"{self.n_steps} steps")
        ref = oracle.classical_run(self.problem, inputs["fields"], self.layout,
                                   self.tau, self.n_steps)
        worst, bad = _step_errors(traj.fields("u"), ref, self.tol)
        if bad:
            problems.append(f"{bad} step(s) beyond relative L2 {self.tol:g}")
        csv_path = out_dir / "trajectory.csv"
        evolve.write_trajectory_csv(traj, csv_path)
        return CallResult(ex.run_s, ex.setup_s, ex.step_s, ex.n_evals,
                          self.n_steps, missing + bad, worst,
                          _sha256_files([csv_path]), problems, ex.kernel_s)


class RelaxGD(ApiWorkload):
    """Diffusive couette relaxation, the ROADMAP acceptance case cut to
    three steps and four layers: exact mode, gradient descent with the
    parameter-shift gradient.  The descent makes a fixed number of
    iterations (``grad_tol`` 0), so a step does the same work for every
    input."""

    def __init__(self):
        super().__init__("relax-gd", NavierStokes(nu=1.0), n_qubits=3,
                         layers=4, tau=0.05, n_steps=3, tol=1e-2)

    def fields(self, rng):
        amp = rng.uniform(0.9, 1.1)
        phase = rng.uniform(0.0, _TWO_PI)
        xs = np.arange(self.layout.dim)
        return [amp * np.sin(_TWO_PI * xs / self.layout.dim + phase) + 1.2]

    def config(self, rng):
        return evolve.EvolutionConfig(
            tau=self.tau, n_steps=self.n_steps,
            optimizer=GradientDescent(eta=0.2, max_iters=30, grad_tol=0.0),
            seed=int(rng.integers(2 ** 31)))


class ShotsCH(ApiWorkload):
    """Camassa-Holm (M = I - Lap/2) in shot mode with SPSA, started from
    rest: both history levels are passed explicitly."""

    def __init__(self):
        super().__init__("shots-ch", CamassaHolm(kappa=1.0), n_qubits=4,
                         layers=2, tau=0.01, n_steps=4, tol=0.3)

    def fields(self, rng):
        amp = rng.uniform(0.15, 0.25)
        phase = rng.uniform(0.0, _TWO_PI)
        xs = np.arange(self.layout.dim)
        u0 = 1.0 + amp * np.sin(_TWO_PI * xs / self.layout.dim + phase)
        return [u0, u0.copy()]

    def config(self, rng):
        return evolve.EvolutionConfig(
            tau=self.tau, n_steps=self.n_steps,
            optimizer=SPSA(a=0.05, c=0.05, max_iters=60,
                           seed=int(rng.integers(2 ** 31))),
            mode="shots", shots=2000, seed=int(rng.integers(2 ** 31)))


class DswSweepCli:
    """The coupled DSW pair through ``vqpde run``: a two-job optimizer sweep
    at the default worker setting, scored by the CLI against the oracle and
    written as CSVs plus a manifest.  The benchmark scores both components:
    the error of a step is that of the (u, v) pair, relative to the pair's
    reference norm."""

    name = "dsw-sweep-cli"
    n_qubits, layers, tau, n_steps, tol = 3, 4, 0.02, 2, 1e-2
    optimizers = (
        {"method": "gd", "eta": 0.1, "max_iters": 40, "grad_tol": 1e-8},
        {"method": "gd", "eta": 0.2, "max_iters": 40, "grad_tol": 1e-8},
    )

    def make_inputs(self, rng):
        dim = 2 ** self.n_qubits
        amp = rng.uniform(0.08, 0.12)
        phase = rng.uniform(0.0, _TWO_PI)
        arg = _TWO_PI * np.arange(dim) / dim + phase
        u, v = amp * np.sin(arg), amp * np.cos(arg) + 1.0
        return {
            "problem": {"kind": "dsw"},
            "grid": {"axes": [{"label": "x", "qubits": self.n_qubits,
                               "delta": 1.0}]},
            "initial": {"u": {"samples": u.tolist()},
                        "v": {"samples": v.tolist()}},
            "ansatz": {"layers": self.layers, "rotations": ["Y"],
                       "entangler": "chain"},
            "evolution": {"tau": self.tau, "n_steps": self.n_steps},
            "optimizer": [dict(o) for o in self.optimizers],
            "seed": int(rng.integers(2 ** 31)),
        }

    def execute(self, inputs: dict, out_dir: Path) -> Execution:
        run_dir = out_dir / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        config = dict(inputs, output_dir=str(run_dir))
        cfg_path = out_dir / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(config))
        err = io.StringIO()
        with BoundaryTimer() as timer, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(["run", str(cfg_path)])
            end = time.perf_counter()
        return Execution(start, end, timer, (rc, run_dir),
                         err.getvalue().strip() or None)

    def _reference(self, inputs) -> tuple:
        """(u, v) per step: ``oracle.classical_run`` gives v, and the same
        classical steps give u."""
        u = np.asarray(inputs["initial"]["u"]["samples"])
        v = np.asarray(inputs["initial"]["v"]["samples"])
        layout = layout_1d(self.n_qubits, 1.0)
        ref_v = oracle.classical_run(DSW(), [u, v], layout, self.tau,
                                     self.n_steps)
        ref_u = [u]
        for _ in range(self.n_steps):
            u, v = oracle.classical_step(DSW(), [u, v], layout, self.tau)
            ref_u.append(u)
        return ref_u, ref_v

    def check(self, inputs, ex: Execution, out_dir: Path) -> CallResult:
        rc, run_dir = ex.output
        jobs = len(self.optimizers)
        dim = 2 ** self.n_qubits
        attempted = jobs * self.n_steps
        problems = []
        if rc != 0:
            problems.append(f"vqpde run exited {rc}: {ex.error}")
        runs = [run_dir / f"vqa_{i:03d}.csv" for i in range(jobs)]
        extra = [run_dir / "oracle.csv", run_dir / "errors.csv"]
        absent = [p.name for p in runs + extra + [run_dir / "manifest.json"]
                  if not p.is_file()]
        if absent:
            problems.append(f"missing outputs: {absent}")
            return CallResult(ex.run_s, ex.setup_s, [], [], attempted,
                              attempted, float("inf"), "", problems)

        manifest = json.loads((run_dir / "manifest.json").read_text())
        if len(manifest["files"]["runs"]) != jobs:
            problems.append("manifest lists the wrong number of runs")
        expect = {"oracle.csv": (self.n_steps + 1) * dim,
                  "errors.csv": jobs * (self.n_steps + 1)}
        for p in extra:
            rows = _csv_rows(p)
            if len(rows) != expect[p.name]:
                problems.append(f"{p.name}: {len(rows)} rows, "
                                f"expected {expect[p.name]}")

        ref_u, ref_v = self._reference(inputs)
        refs = [np.concatenate(p) for p in zip(ref_u, ref_v)]
        failed, worst = 0, 0.0
        for path in runs:
            rows = _csv_rows(path)
            steps = len(rows) // (2 * dim)
            order = [r["component"] for r in rows]
            if order != (["u"] * dim + ["v"] * dim) * steps:
                problems.append(f"{path.name}: rows out of order")
            failed += min(self.n_steps, self.n_steps + 1 - steps)
            # rows run step by step, u before v, grid index ascending
            pairs = [np.array([float(r["value"]) for r in
                               rows[k * 2 * dim:(k + 1) * 2 * dim]])
                     for k in range(steps)]
            w, bad = _step_errors(pairs, refs, self.tol)
            worst, failed = max(worst, w), failed + bad
        if failed:
            problems.append(f"{failed} failed step(s) (missing or beyond "
                            f"relative L2 {self.tol:g})")
        return CallResult(ex.run_s, ex.setup_s, ex.step_s, ex.n_evals,
                          attempted, failed, worst,
                          _sha256_files(runs + extra), problems,
                          ex.kernel_s)


def _csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (RelaxGD(), ShotsCH(), DswSweepCli())}
