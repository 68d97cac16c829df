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
import math
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
    LevenbergMarquardt,
    NelderMead,
    ParticleSwarm,
    SPSA,
)
from .oracle import (
    CouetteSteady,
    LinearNegativeSlope,
    SechTanh,
    Sinusoid,
    classical_run,
    exact_eval,
    l2_error,
)
from .statevec import RegisterLayout, SimulationError


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing / validation
# ---------------------------------------------------------------------------

def _require_keys(section: dict, allowed: set, required: set, where: str):
    _dict(section, where)
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _select(cfg, key: str, table: dict, where: str, default=None):
    """(the entry of ``table`` that ``cfg[key]`` names, the rest of cfg)."""
    rest = _dict(cfg, where)
    name = rest.pop(key, default)
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{where}.{key}: unknown value {name!r}; choose "
                          f"from {sorted(table)}")
    return table[name], rest


def _float(value, where: str) -> float:
    # a numeric string counts: YAML 1.1 reads 1e-3 as text
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return x


def _exact(yaml_type, convert):
    """Reader of a YAML value that must have ``yaml_type``."""
    def read(value, where: str):
        if type(value) is not yaml_type:
            raise ConfigError(f"{where}: expected a {yaml_type.__name__}, "
                              f"got {value!r}")
        return convert(value)
    return read


def _floats(value, where: str) -> np.ndarray:
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{where}: samples must be finite")
    return out


_int, _str = _exact(int, int), _exact(str, str)
_list, _dict = _exact(list, list), _exact(dict, dict)
# declared field type -> reader of its YAML value
_READERS = {"float": _float, "int": _int, "str": _str,
            "bool": _exact(bool, bool), "tuple": _exact(list, tuple)}


def _build(cls, cfg, where: str, fixed=None, keys=None, readers=None):
    """``cls`` built from a config section.  The section's keys are the
    dataclass's init fields less those ``fixed`` sets (``keys`` renames a
    field's key), and the required keys are the fields without a default.  A
    value is read by ``readers[field]`` if given, else by the field's declared
    type; ``None`` stays ``None`` for an optional field.  The class's own
    checks run, and any failure is a ``ConfigError``."""
    fixed, keys, readers = fixed or {}, keys or {}, readers or {}
    fields = {keys.get(f.name, f.name): f for f in dataclasses.fields(cls)
              if f.init and f.name not in fixed}
    required = {k for k, f in fields.items()
                if f.default is f.default_factory is dataclasses.MISSING}
    _require_keys(cfg, set(fields), required, where)
    kwargs = dict(fixed)
    for key, value in cfg.items():
        f = fields[key]
        # the package's annotations are postponed, so f.type is their text
        types = [t.strip() for t in f.type.split("|")]
        if value is None and "None" in types:
            kwargs[f.name] = None
        else:
            read = readers.get(f.name) or _READERS[types[0]]
            kwargs[f.name] = read(value, f"{where}.{key}")
    try:
        return cls(**kwargs)
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# the dense oracle holds dim**2 floats per matrix: 128 MiB at 12 qubits
MAX_QUBITS = 12


def _parse_grid(cfg) -> RegisterLayout:
    _require_keys(cfg, {"axes"}, {"axes"}, "grid")
    axes = []
    for i, ax in enumerate(_list(cfg["axes"], "grid.axes")):
        where = f"grid.axes[{i}]"
        _require_keys(ax, {"label", "qubits", "delta"}, {"label", "qubits"},
                      where)
        axes.append((_str(ax["label"], f"{where}.label"),
                     _int(ax["qubits"], f"{where}.qubits"),
                     _float(ax.get("delta", 1.0), f"{where}.delta")))
    try:
        layout = RegisterLayout(tuple(axes))
    except SimulationError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if layout.total_qubits > MAX_QUBITS:
        raise ConfigError(f"grid: {layout.total_qubits} qubits exceed the "
                          f"limit of {MAX_QUBITS}")
    return layout


def _parse_tensor(cfg, where: str):
    cls, rest = _select(cfg, "model", {"point-particle": PointParticle,
                                       "fluid": EquilibriumFluid},
                        where, default="fluid")
    return _build(cls, rest, where)


def _parse_pressure(cfg, where: str) -> tuple:
    (key, read), rest = _select(cfg, "model", {"uniform": ("value", _float),
                                               "field": ("samples", _floats)},
                                where)
    _require_keys(rest, {key}, {key}, where)
    return cfg["model"], read(rest[key], f"{where}.{key}")


def _parse_ext_fields(cfg, where: str) -> dict:
    return {k: _floats(v, f"{where}.{k}") for k, v in _dict(cfg, where).items()}


# kind -> (dataclass, the fields the kind fixes)
_KINDS = {
    "couette": (NavierStokes, {"pressure": None}),
    "navier-stokes": (NavierStokes, {}),
    "einstein": (Einstein, {}),
    "maxwell": (Maxwell, {}),
    "boussinesq": (Boussinesq, {}),
    "lin-tsien": (LinTsien, {}),
    "camassa-holm": (CamassaHolm, {}),
    "dsw": (DSW, {}),
    "hunter-saxton": (HunterSaxton, {}),
}


def _parse_problem(cfg):
    (cls, fixed), rest = _select(cfg, "kind", _KINDS, "problem")
    return _build(cls, rest, "problem", fixed, readers={
        "tensor": _parse_tensor, "pressure": _parse_pressure,
        "ext_fields": _parse_ext_fields})


_EXACT_REFS = {
    "couette-steady": CouetteSteady,
    "sech-tanh": SechTanh,
    "sinusoid": Sinusoid,
    "negative-slope": LinearNegativeSlope,
}
# profile -> the exact solution it samples (none for a constant)
_PROFILES = {"constant": None, "sinusoid": Sinusoid, "sech-tanh": SechTanh,
             "negative-slope": LinearNegativeSlope}


def _profile_samples(cfg, layout: RegisterLayout) -> np.ndarray:
    """One field's grid samples: given as ``samples``, or a profile on the
    first axis.  A sinusoid's ``mode`` (periods over the axis) stands for its
    wavenumber."""
    if isinstance(cfg, dict) and "samples" in cfg:
        _require_keys(cfg, {"samples"}, set(), "initial")
        samples = _floats(cfg["samples"], "initial.samples")
        if samples.shape != (layout.dim,):
            raise ConfigError("initial.samples: wrong length for the grid")
        return samples
    cls, rest = _select(cfg, "profile", _PROFILES, "initial")
    if cls is None:
        _require_keys(rest, {"value"}, set(), "initial")
        return _float(rest.get("value", 1.0), "initial.value") * np.ones(layout.dim)
    axis = layout.axes[0][0]
    if cls is Sinusoid and "wavenumber" not in rest:
        span = layout.axis_points(axis) * layout.spacing(axis)
        rest["wavenumber"] = 2.0 * np.pi * _float(
            rest.pop("mode", 1), "initial.mode") / span
    ref = _build(cls, rest, "initial")
    samples = np.array([exact_eval(ref, x)
                        for x in grid_coordinates(layout)[axis]])
    if not np.all(np.isfinite(samples)):
        raise ConfigError("initial: the profile is not finite on the grid")
    return samples


def _parse_initial(cfg, layout, problem) -> list:
    """One profile section per component, named by the component when the
    problem evolves more than one field."""
    names = components(problem)
    if len(names) == 1:
        return [_profile_samples(cfg, layout)]
    _require_keys(cfg, set(names), set(names), "initial")
    return [_profile_samples(cfg[c], layout) for c in names]


_OPTIMIZERS = {
    "gradient-descent": GradientDescent,
    "gd": GradientDescent,
    "levenberg-marquardt": LevenbergMarquardt,
    "lm": LevenbergMarquardt,
    "spsa": SPSA,
    "nelder-mead": NelderMead,
    "cmaes": CMAES,
    "particle-swarm": ParticleSwarm,
    "differential-evolution": DifferentialEvolution,
}


def _parse_optimizer(cfg):
    cls, rest = _select(cfg, "method", _OPTIMIZERS, "optimizer")
    return _build(cls, rest, "optimizer")


def _sweep(cfg, where: str) -> list:
    """The sections of a swept key: a list of them, or one."""
    if cfg == []:
        raise ConfigError(f"{where}: empty list")
    return cfg if isinstance(cfg, list) else [cfg]


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
    seed = _int(raw.get("seed", EvolutionConfig.seed), "seed")

    specs = [_build(AnsatzSpec, a, "ansatz", {"n_qubits": layout.total_qubits},
                    keys={"rotation_axes": "rotations"})
             for a in _sweep(raw.get("ansatz", {}), "ansatz")]
    evolutions = [_build(EvolutionConfig, raw["evolution"], "evolution",
                         {"optimizer": _parse_optimizer(o), "seed": seed})
                  for o in _sweep(raw["optimizer"], "optimizer")]
    # the first step's cost, so that a problem that does not fit the grid
    # fails here, as does a spacing so small that a stencil coefficient
    # divides by zero or is not finite
    try:
        build_cost(problem, initial * problem.history_depth, layout,
                   evolutions[0].tau, specs[0])
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"problem: {exc}") from exc
    return {
        "raw": raw,
        "layout": layout,
        "problem": problem,
        "initial": initial,
        "specs": specs,
        "evolutions": evolutions,
        "seed": seed,
        "output_dir": _str(raw.get("output_dir", "vqpde-out"), "output_dir"),
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

    # the manifest lists paths relative to where ``run`` ran: read and name
    # each file by its name in the run directory
    out_rows = []
    for run_path in manifest["files"]["runs"]:
        run_name = Path(run_path).name
        vqa, xs = _read_csv_fields(run_dir / run_name)
        ts = sorted(vqa)
        if against == "oracle":
            ref, _ = _read_csv_fields(
                run_dir / Path(manifest["files"]["oracle"]).name)
        elif against.startswith("exact:"):
            name = against.split(":", 1)[1]
            if name not in _EXACT_REFS:
                print(f"compare: unknown exact reference {name!r}",
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
                out_rows.append([run_name, f"{t:.17g}", comp,
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
        "couette": (NavierStokes(), [u]),
        "navier-stokes": (NavierStokes(pressure=("uniform", 0.1)), [u]),
        "einstein": (Einstein(), [u + 2]),
        "maxwell": (Maxwell(ext_fields={"E_y": v}), [u]),
        "boussinesq": (Boussinesq(alpha=0.5, beta=0.5), [u, u]),
        "lin-tsien": (LinTsien(), None),
        "camassa-holm": (CamassaHolm(), [u, u]),
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
