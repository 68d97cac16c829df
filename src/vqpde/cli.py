"""Config-driven experiment runner.

Verbs:
    run <config.yaml>              execute the configured runs, persist CSVs + manifest
    validate <config.yaml>         schema-check only
    compare <run_dir> --against {oracle|exact:<name>}
    terms <pde>                    dump the canonical cost term list for a small instance

Exit codes: 0 success, 1 runtime failure (including a time step that fails),
2 invalid configuration.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .ansatz import AnsatzSpec
from .costlib import (
    Boussinesq,
    CamassaHolm,
    DSW,
    Einstein,
    EquilibriumFluid,
    HunterSaxton,
    LinTsien,
    Maxwell,
    NavierStokes,
    PointParticle,
    build_cost,
    components,
    grid_coordinates,
)
from .evolve import (
    EvolutionConfig,
    fields_to_trajectory,
    run as run_evolution,
    write_trajectory_csv,
)
from .optim import (
    CMAES,
    DifferentialEvolution,
    GradientDescent,
    NelderMead,
    ParticleSwarm,
    SPSA,
)
from .oracle import (
    CouetteSteady,
    LinearNegativeSlope,
    NsExponential,
    SechTanh,
    Sinusoid,
    classical_run,
    exact_eval,
    l2_error,
)
from .statevec import RegisterLayout


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing / validation
# ---------------------------------------------------------------------------

def _require_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _parse_grid(cfg) -> RegisterLayout:
    _require_keys(cfg, {"axes"}, {"axes"}, "grid")
    axes = []
    for i, ax in enumerate(cfg["axes"]):
        _require_keys(ax, {"label", "qubits", "delta"}, {"label", "qubits"},
                      f"grid.axes[{i}]")
        axes.append((ax["label"], int(ax["qubits"]), float(ax.get("delta", 1.0))))
    try:
        return RegisterLayout(tuple(axes))
    except Exception as exc:
        raise ConfigError(f"grid: {exc}") from exc


_TENSORS = {
    "point-particle": (PointParticle, {"m", "v_mu", "v_nu", "position", "c"}),
    "fluid": (EquilibriumFluid, {"rho_e", "p", "u_mu", "u_nu", "eta", "c"}),
}


def _parse_problem(cfg):
    _require_keys(cfg, {"kind", "nu", "rho", "pressure", "component", "which",
                        "mu0", "eps0", "ext_fields", "alpha", "beta", "kappa",
                        "tensor", "G", "c", "indices", "axes"},
                  {"kind"}, "problem")
    kind = cfg.get("kind")
    try:
        if kind == "couette":
            return NavierStokes(nu=float(cfg.get("nu", 1.0)),
                                rho=float(cfg.get("rho", 1.0)),
                                pressure=None,
                                component=cfg.get("component", "x"))
        if kind == "navier-stokes":
            pressure = cfg.get("pressure")
            if pressure is not None:
                pressure = (pressure["model"],
                            pressure.get("value", pressure.get("samples")))
            return NavierStokes(nu=float(cfg.get("nu", 1.0)),
                                rho=float(cfg.get("rho", 1.0)),
                                pressure=pressure,
                                component=cfg.get("component", "x"))
        if kind == "einstein":
            tcfg = dict(cfg.get("tensor") or {"model": "fluid", "rho_e": 1.0,
                                              "p": 0.1, "u_mu": 1.0, "u_nu": 1.0})
            model = tcfg.pop("model", "fluid")
            if model not in _TENSORS:
                raise ConfigError(f"problem.tensor: unknown model {model!r}")
            cls, allowed = _TENSORS[model]
            unknown = set(tcfg) - allowed
            if unknown:
                raise ConfigError(f"problem.tensor: unknown keys {sorted(unknown)}")
            return Einstein(tensor=cls(**tcfg),
                            G=float(cfg.get("G", 1.0)),
                            c=float(cfg.get("c", 1.0)),
                            indices=tuple(cfg.get("indices", (0, 0))),
                            axes=tuple(cfg.get("axes", ("x", "x"))))
        if kind == "maxwell":
            ext = {k: np.asarray(v, dtype=float)
                   for k, v in (cfg.get("ext_fields") or {}).items()}
            return Maxwell(component=cfg.get("component", "z"),
                           which=cfg.get("which", "B"),
                           mu0=float(cfg.get("mu0", 1.0)),
                           eps0=float(cfg.get("eps0", 1.0)),
                           ext_fields=ext)
        if kind == "boussinesq":
            return Boussinesq(alpha=float(cfg.get("alpha", 1.0)),
                              beta=float(cfg.get("beta", 1.0)))
        if kind == "lin-tsien":
            return LinTsien()
        if kind == "camassa-holm":
            return CamassaHolm(kappa=float(cfg.get("kappa", 1.0)))
        if kind == "dsw":
            return DSW()
        if kind == "hunter-saxton":
            return HunterSaxton()
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"problem: {exc}") from exc
    raise ConfigError(f"problem.kind: unknown kind {kind!r}")


_EXACT_REFS = {
    "ns-exponential": NsExponential,
    "couette-steady": CouetteSteady,
    "sech-tanh": SechTanh,
    "sinusoid": Sinusoid,
    "negative-slope": LinearNegativeSlope,
}


def _profile_samples(cfg, layout: RegisterLayout) -> np.ndarray:
    allowed = {"profile", "samples", "amplitude", "wavenumber", "mode",
               "phase", "value", "width", "center", "slope", "intercept"}
    _require_keys(cfg, allowed, set(), "initial")
    if "samples" in cfg:
        samples = np.asarray(cfg["samples"], dtype=float)
        if samples.size != layout.dim:
            raise ConfigError("initial.samples: wrong length for the grid")
        return samples
    profile = cfg.get("profile")
    xs = grid_coordinates(layout)[layout.axes[0][0]]
    if profile == "constant":
        return float(cfg.get("value", 1.0)) * np.ones(layout.dim)
    if profile == "sinusoid":
        n = layout.axis_points(layout.axes[0][0])
        span = n * layout.spacing(layout.axes[0][0])
        k = 2.0 * np.pi * float(cfg.get("mode", 1)) / span
        if "wavenumber" in cfg:
            k = float(cfg["wavenumber"])
        return float(cfg.get("amplitude", 1.0)) * np.sin(k * xs
                                                         + float(cfg.get("phase", 0.0)))
    if profile == "sech-tanh":
        ref = SechTanh(amplitude=float(cfg.get("amplitude", 1.0)),
                       width=float(cfg.get("width", 1.0)),
                       center=float(cfg.get("center", 0.0)))
        return np.array([exact_eval(ref, x) for x in xs])
    if profile == "negative-slope":
        return float(cfg.get("slope", -1.0)) * xs + float(cfg.get("intercept", 0.0))
    raise ConfigError(f"initial.profile: unknown profile {profile!r}")


def _parse_initial(cfg, layout, problem) -> list:
    """One profile section per component, named by the component when the
    problem evolves more than one field."""
    names = components(problem)
    if len(names) == 1:
        return [_profile_samples(cfg, layout)]
    _require_keys(cfg, set(names), set(names), "initial")
    return [_profile_samples(cfg[c], layout) for c in names]


def _parse_ansatz(cfg, layout) -> AnsatzSpec:
    _require_keys(cfg, {"layers", "rotations", "entangler", "qft_block"},
                  set(), "ansatz")
    try:
        return AnsatzSpec(
            n_qubits=layout.total_qubits,
            layers=int(cfg.get("layers", 1)),
            entangler=cfg.get("entangler", "chain"),
            qft_block=bool(cfg.get("qft_block", False)),
            rotation_axes=tuple(cfg.get("rotations", ("Y",))),
        )
    except Exception as exc:
        raise ConfigError(f"ansatz: {exc}") from exc


_OPTIMIZERS = {
    "gradient-descent": GradientDescent,
    "gd": GradientDescent,
    "spsa": SPSA,
    "nelder-mead": NelderMead,
    "imfil": NelderMead,  # stand-in mapping
    "cmaes": CMAES,
    "vd-cma": CMAES,  # stand-in mapping
    "particle-swarm": ParticleSwarm,
    "cpso": ParticleSwarm,  # stand-in mapping
    "differential-evolution": DifferentialEvolution,
}


def _parse_optimizer(cfg):
    if not isinstance(cfg, dict) or "method" not in cfg:
        raise ConfigError("optimizer: needs a 'method' key")
    method = cfg["method"]
    if method not in _OPTIMIZERS:
        raise ConfigError(f"optimizer.method: unknown method {method!r}")
    cls = _OPTIMIZERS[method]
    cls_fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {k: v for k, v in cfg.items() if k != "method"}
    unknown = set(kwargs) - cls_fields
    if unknown:
        raise ConfigError(f"optimizer: unknown keys {sorted(unknown)}")
    try:
        return cls(**kwargs)
    except Exception as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


def _parse_evolution(cfg, optimizer, seed) -> EvolutionConfig:
    _require_keys(cfg, {"tau", "n_steps", "restarts", "mode", "shots"},
                  {"tau", "n_steps"}, "evolution")
    try:
        return EvolutionConfig(
            tau=float(cfg["tau"]),
            n_steps=int(cfg["n_steps"]),
            optimizer=optimizer,
            restarts=int(cfg.get("restarts", 1)),
            mode=cfg.get("mode", "exact"),
            shots=cfg.get("shots"),
            seed=seed,
        )
    except Exception as exc:
        raise ConfigError(f"evolution: {exc}") from exc


TOP_KEYS = {"problem", "grid", "initial", "ansatz", "evolution", "optimizer",
            "seed", "output_dir"}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    _require_keys(raw, TOP_KEYS,
                  {"problem", "grid", "initial", "evolution", "optimizer"},
                  "config")
    layout = _parse_grid(raw["grid"])
    problem = _parse_problem(raw["problem"])
    initial = _parse_initial(raw["initial"], layout, problem)
    seed = int(raw.get("seed", 0))

    ansatz_cfgs = raw.get("ansatz", {})
    ansatz_list = ansatz_cfgs if isinstance(ansatz_cfgs, list) else [ansatz_cfgs]
    specs = [_parse_ansatz(a, layout) for a in ansatz_list]

    opt_cfgs = raw["optimizer"]
    opt_list = opt_cfgs if isinstance(opt_cfgs, list) else [opt_cfgs]
    optimizers = [_parse_optimizer(o) for o in opt_list]

    evolutions = [_parse_evolution(raw["evolution"], opt, seed)
                  for opt in optimizers]
    return {
        "raw": raw,
        "layout": layout,
        "problem": problem,
        "initial": initial,
        "specs": specs,
        "evolutions": evolutions,
        "seed": seed,
        "output_dir": raw.get("output_dir", "vqpde-out"),
    }


def _config_hash(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, default=str).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_run(config_path) -> int:
    cfg = load_config(config_path)
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    layout, problem, initial = cfg["layout"], cfg["problem"], cfg["initial"]
    started = time.time()

    results = []  # (csv path, trajectory) per (ansatz, optimizer) job
    for spec in cfg["specs"]:
        for ev in cfg["evolutions"]:
            traj = run_evolution(problem, initial, ev, layout, spec)
            path = out_dir / f"vqa_{len(results):03d}.csv"
            write_trajectory_csv(traj, path)
            results.append((str(path), traj))

    tau = cfg["evolutions"][0].tau
    n_steps = cfg["evolutions"][0].n_steps
    # the oracle's reference is the last component's field
    scored = components(problem)[-1]
    ref_fields = classical_run(problem, initial, layout, tau, n_steps)
    ref_traj = fields_to_trajectory(ref_fields, layout, tau, component=scored)
    oracle_path = out_dir / "oracle.csv"
    write_trajectory_csv(ref_traj, oracle_path)

    err_path = out_dir / "errors.csv"
    summaries = []
    with open(err_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "step", "rel_l2", "linf"])
        for idx, (_, traj) in enumerate(results):
            fields = traj.fields(scored)
            refs = ref_fields[:len(fields)]
            errs = l2_error(fields, refs)
            for k, e in enumerate(errs):
                linf = float(np.max(np.abs(np.asarray(fields[k])
                                           - np.asarray(refs[k]))))
                writer.writerow([idx, k, f"{e:.17g}", f"{linf:.17g}"])
            summaries.append({"run": idx, "final_rel_l2": float(errs[-1])})

    manifest = {
        "config_hash": _config_hash(cfg["raw"]),
        "seed": cfg["seed"],
        "version": __version__,
        "started": started,
        "finished": time.time(),
        "files": {
            "runs": [p for p, _ in results],
            "oracle": str(oracle_path),
            "errors": str(err_path),
        },
        "summary": summaries,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for s in summaries:
        print(f"run {s['run']}: final relative L2 vs oracle = "
              f"{s['final_rel_l2']:.3e}")
    print(f"wrote {len(results)} trajectory file(s) to {out_dir}")
    return 0


def _read_csv_fields(path) -> tuple:
    """CSV -> ({t: {component: value array ordered by index}}, first-axis
    coordinate array ordered by index)."""
    steps: dict = {}
    coords: dict = {}
    with open(path) as fh:
        reader = csv.DictReader(fh)
        axis = reader.fieldnames[3]  # t, component, index, then the axes
        for row in reader:
            t = float(row["t"])
            comp = row["component"]
            i = int(row["index"])
            steps.setdefault(t, {}).setdefault(comp, {})[i] = float(row["value"])
            coords[i] = float(row[axis])
    out = {}
    for t, comps in steps.items():
        out[t] = {c: np.array([vals[i] for i in sorted(vals)])
                  for c, vals in comps.items()}
    return out, np.array([coords[i] for i in sorted(coords)])


def cmd_compare(run_dir, against) -> int:
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        print("compare: no manifest in the run directory", file=sys.stderr)
        return 1
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    out_rows = []
    for run_path in manifest["files"]["runs"]:
        vqa, xs = _read_csv_fields(run_path)
        ts = sorted(vqa)
        if against == "oracle":
            ref, _ = _read_csv_fields(manifest["files"]["oracle"])
        elif against.startswith("exact:"):
            name = against.split(":", 1)[1]
            if name not in _EXACT_REFS:
                print(f"compare: unknown exact reference {name!r}",
                      file=sys.stderr)
                return 1
            needed = [f.name for f in dataclasses.fields(_EXACT_REFS[name])
                      if f.default is dataclasses.MISSING]
            if needed:
                print(f"compare: exact reference {name!r} needs parameters "
                      f"({', '.join(needed)}) that compare cannot take",
                      file=sys.stderr)
                return 1
            ref_obj = _EXACT_REFS[name]()
            comp = sorted(vqa[ts[0]])[0]
            # steady reference on the run's first-axis coordinates: same
            # profile at every step
            vals = np.array([exact_eval(ref_obj, x) for x in xs])
            ref = {t: {comp: vals} for t in ts}
        else:
            print(f"compare: unknown reference {against!r}", file=sys.stderr)
            return 1
        for t in ts:
            for comp, v in sorted(vqa[t].items()):
                if t not in ref or comp not in ref[t]:
                    continue
                r = ref[t][comp]
                if r.size != v.size:
                    print("compare: grid mismatch", file=sys.stderr)
                    return 1
                rel = float(np.linalg.norm(v - r)
                            / max(np.linalg.norm(r), 1e-12))
                linf = float(np.max(np.abs(v - r)))
                out_rows.append([run_path, f"{t:.17g}", comp,
                                 f"{rel:.17g}", f"{linf:.17g}"])
    out_path = run_dir / "compare.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "t", "component", "rel_l2", "linf"])
        writer.writerows(out_rows)
    if out_rows:
        last = out_rows[-1]
        print(f"final step: rel_l2={float(last[3]):.3e} linf={float(last[4]):.3e}")
    print(f"wrote {out_path}")
    return 0


def _demo_cost(pde: str):
    layout = RegisterLayout((("x", 3, 1.0),))
    spec = AnsatzSpec(n_qubits=3, layers=2)
    xs = np.arange(8, dtype=float)
    u = np.sin(2 * np.pi * xs / 8)
    v = np.cos(2 * np.pi * xs / 8)
    tau = 0.05
    problems = {
        "couette": (NavierStokes(nu=1.0), [u]),
        "navier-stokes": (NavierStokes(nu=1.0, pressure=("uniform", 0.1)), [u]),
        "einstein": (Einstein(tensor=EquilibriumFluid(1.0, 0.1, 1.0, 1.0)), [u + 2]),
        "maxwell": (Maxwell(component="z", which="B",
                            ext_fields={"E_y": v}), [u]),
        "boussinesq": (Boussinesq(alpha=0.5, beta=0.5), [u, u]),
        "lin-tsien": (LinTsien(), None),
        "camassa-holm": (CamassaHolm(kappa=1.0), [u, u]),
        "dsw": (DSW(), [u, v]),
        "hunter-saxton": (HunterSaxton(), [u]),
    }
    if pde not in problems:
        raise ConfigError(f"unknown equation {pde!r}; choose from "
                          f"{sorted(problems)}")
    problem, history = problems[pde]
    if pde == "lin-tsien":
        layout = RegisterLayout((("x", 2, 1.0), ("y", 2, 1.0)))
        spec = AnsatzSpec(n_qubits=4, layers=2)
        xs16 = np.arange(16, dtype=float)
        history = [np.sin(2 * np.pi * xs16 / 16)]
    return build_cost(problem, history, layout, tau, spec)


def cmd_terms(pde: str) -> int:
    parts = _demo_cost(pde).parts
    for part in parts:
        if len(parts) > 1:
            print(f"# component {part.name}")
        print(part.serialize_terms())
    return 0


def cmd_validate(config_path) -> int:
    load_config(config_path)
    print("config ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vqpde",
                                     description="Variational PDE evolution runner")
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate")
    p_val.add_argument("config")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("run_dir")
    p_cmp.add_argument("--against", default="oracle")
    p_terms = sub.add_parser("terms")
    p_terms.add_argument("pde")
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return cmd_run(args.config)
        if args.verb == "validate":
            return cmd_validate(args.config)
        if args.verb == "compare":
            return cmd_compare(args.run_dir, args.against)
        if args.verb == "terms":
            return cmd_terms(args.pde)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
