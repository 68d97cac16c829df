import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from vqpde import evolve
from vqpde.cli import (
    _EXACT_REFS,
    YAML_LOADER,
    ConfigError,
    _parse_problem,
    load_config,
    main,
)
from vqpde.costlib import (
    DSW,
    Boussinesq,
    CamassaHolm,
    Einstein,
    HunterSaxton,
    LinTsien,
    Maxwell,
    NavierStokes,
)

BASE = {
    "problem": {"kind": "couette", "nu": 1.0},
    "grid": {"axes": [{"label": "x", "qubits": 3, "delta": 1.0}]},
    "initial": {"profile": "constant", "value": 1.5},
    "ansatz": {"layers": 2, "rotations": ["Y"]},
    "evolution": {"tau": 0.1, "n_steps": 1},
    "optimizer": {"method": "gradient-descent", "eta": 0.2, "max_iters": 60},
    "seed": 5,
}


def write_cfg(tmp_path, overrides=None, name="cfg.yaml", **top):
    cfg = json.loads(json.dumps(BASE))
    if overrides:
        for key, val in overrides.items():
            cfg[key] = val
    cfg.update(top)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


# -- validation ---------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert main(["validate", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_unknown_top_key(tmp_path):
    path = write_cfg(tmp_path, overrides={"bogus": 1})
    assert main(["validate", str(path)]) == 2


def test_validate_unknown_problem_kind(tmp_path):
    path = write_cfg(tmp_path, overrides={"problem": {"kind": "advection"}})
    assert main(["validate", str(path)]) == 2


def test_validate_negative_tau(tmp_path):
    path = write_cfg(tmp_path,
                     overrides={"evolution": {"tau": -0.1, "n_steps": 1}})
    assert main(["validate", str(path)]) == 2


def test_validate_bad_optimizer(tmp_path):
    path = write_cfg(tmp_path, overrides={"optimizer": {"method": "newton"}})
    assert main(["validate", str(path)]) == 2
    path = write_cfg(tmp_path, overrides={
        "optimizer": {"method": "gd", "learning_rate": 0.1}})
    assert main(["validate", str(path)]) == 2


def test_validate_missing_config_file(tmp_path):
    assert main(["validate", str(tmp_path / "absent.yaml")]) == 2


def test_validate_wrong_sample_count(tmp_path):
    path = write_cfg(tmp_path,
                     overrides={"initial": {"samples": [1.0, 2.0]}})
    assert main(["validate", str(path)]) == 2


# the keys each problem kind takes
KIND_KEYS = {
    "couette": {"nu", "rho", "component"},
    "navier-stokes": {"nu", "rho", "component", "pressure"},
    "einstein": {"tensor", "G", "c", "axes"},
    "maxwell": {"component", "which", "mu0", "eps0", "ext_fields"},
    "boussinesq": {"alpha", "beta"},
    "lin-tsien": set(),
    "camassa-holm": {"kappa"},
    "dsw": set(),
    "hunter-saxton": set(),
}
# every key the problem section took, for every kind, before kinds had their
# own key sets
ANY_KIND_KEYS = {"nu", "rho", "pressure", "component", "which", "mu0", "eps0",
                 "ext_fields", "alpha", "beta", "kappa", "tensor", "G", "c",
                 "indices", "axes"}


def test_bare_problem_kind_takes_the_dataclass_defaults():
    expected = {
        "couette": NavierStokes(pressure=None),
        "navier-stokes": NavierStokes(),
        "einstein": Einstein(),
        "maxwell": Maxwell(),
        "boussinesq": Boussinesq(),
        "lin-tsien": LinTsien(),
        "camassa-holm": CamassaHolm(),
        "dsw": DSW(),
        "hunter-saxton": HunterSaxton(),
    }
    assert set(expected) == set(KIND_KEYS)
    for kind, problem in expected.items():
        assert _parse_problem({"kind": kind}) == problem


@pytest.mark.parametrize("kind", sorted(KIND_KEYS))
def test_problem_kind_rejects_the_keys_it_does_not_read(kind):
    for key in sorted(ANY_KIND_KEYS - KIND_KEYS[kind]):
        with pytest.raises(ConfigError, match="unknown keys"):
            _parse_problem({"kind": kind, key: 1.0})


XS8 = np.arange(8.0)


@pytest.mark.parametrize("overrides", [
    # keys the parent accepted and ignored
    {"problem": {"kind": "couette", "pressure": {"model": "uniform",
                                                 "value": 0.1}}},
    {"problem": {"kind": "hunter-saxton", "nu": 1.0}},
    {"problem": {"kind": "hunter-saxton", "kappa": 1.0}},
    {"problem": {"kind": "einstein", "indices": [0, 0]}},
    {"problem": {"kind": "maxwell", "ext_fields": {"E_z": XS8.tolist()}}},
    {"initial": {"profile": "constant", "amplitude": 2.0}},
    {"initial": {"profile": "sinusoid", "samples": XS8.tolist()}},
    {"initial": {"profile": "sinusoid", "mode": 2, "wavenumber": 1.0}},
    # keys no section took
    {"ansatz": {"rotation_axes": ["Y"]}},
    {"ansatz": {"n_qubits": 3}},
    {"evolution": {"tau": 0.1, "n_steps": 1, "restart_sigma": 0.1}},
    {"evolution": {"tau": 0.1, "n_steps": 1, "seed": 1}},
    # values that pass no conversion or check
    {"seed": "abc"},
    {"seed": -1},
    {"grid": {"axes": [{"label": "x", "qubits": "many"}]}},
    {"grid": {"axes": [{"label": "x", "qubits": 2.5}]}},
    {"grid": {"axes": [{"label": "x", "qubits": 3, "delta": float("nan")}]}},
    {"grid": {"axes": []}},
    {"grid": {"axes": [{"label": "x", "qubits": 45}]}},
    {"grid": {"axes": [{"label": "x", "qubits": 7},
                       {"label": "y", "qubits": 6}]}},
    {"initial": {"samples": ["a"] * 8}},
    {"initial": {"samples": [1.0] * 7 + [float("nan")]}},
    {"initial": {"profile": "sech-tanh", "width": 0.0}},
    {"problem": {"kind": "camassa-holm", "kappa": float("inf")}},
    {"problem": {"kind": "couette", "nu": "1e-3x"}},
    {"optimizer": []},
    {"optimizer": {"method": "gd", "max_iters": True}},
    {"output_dir": 5},
    # optimizer fields out of range
    {"optimizer": {"method": "spsa", "seed": -1}},
    {"optimizer": {"method": "cmaes", "popsize": 1}},
    {"optimizer": {"method": "cmaes", "popsize": 0}},
    {"optimizer": {"method": "cmaes", "sigma0": -1}},
    {"optimizer": {"method": "particle-swarm", "particles": 0}},
    {"optimizer": {"method": "gd", "max_iters": -1}},
    {"optimizer": {"method": "gd", "eta": -0.1}},
    {"optimizer": {"method": "gd", "grad_tol": -1.0}},
    {"optimizer": {"method": "differential-evolution", "population": -3}},
    {"optimizer": {"method": "differential-evolution", "cr": 1.5}},
    {"optimizer": {"method": "nelder-mead", "scale": 0.0}},
    # coefficients that divide the update
    {"problem": {"kind": "maxwell", "eps0": 0.0}},
    {"problem": {"kind": "maxwell", "mu0": -1.0}},
    {"problem": {"kind": "einstein", "c": 0.0}},
    # problems that do not fit the grid (3 qubits on axis x)
    {"problem": {"kind": "einstein", "axes": ["x", "y"]}},
    {"problem": {"kind": "einstein", "axes": ["x"]}},
    {"problem": {"kind": "lin-tsien"}},
    {"problem": {"kind": "navier-stokes",
                 "pressure": {"model": "field", "samples": [0.1, 0.2]}}},
    {"problem": {"kind": "maxwell", "ext_fields": {"E_y": [1.0, 2.0]}}},
    {"problem": {"kind": "maxwell", "ext_fields": {"E_y": [1.0] * 16}}},
    {"grid": {"axes": [{"label": "", "qubits": 3, "delta": 1.0}]}},
    {"grid": {"axes": [{"label": "x", "qubits": 3, "delta": 5e-324}]}},
    # a shot count without shot mode would run exact
    {"evolution": {"tau": 0.1, "n_steps": 1, "shots": 1000}},
    # Levenberg-Marquardt reads overlaps a device does not measure
    {"optimizer": {"method": "lm"},
     "evolution": {"tau": 0.1, "n_steps": 1, "mode": "shots", "shots": 100}},
])
def test_config_errors_exit_2(tmp_path, overrides):
    path = write_cfg(tmp_path, overrides=overrides)
    assert main(["validate", str(path)]) == 2


def test_numeric_text_is_read_as_a_number(tmp_path):
    # YAML 1.1 reads 1e-3 (no decimal point) as text
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(BASE).replace("tau: 0.1", "tau: 1e-3"))
    assert load_config(path)["evolutions"][0].tau == 1e-3


def test_sech_tanh_profile_on_a_wide_grid(tmp_path):
    # cosh overflows far from the centre; the profile there is zero
    cfg = load_config(write_cfg(tmp_path, overrides={
        "grid": {"axes": [{"label": "x", "qubits": 10}]},
        "initial": {"profile": "sech-tanh"}}))
    assert np.all(np.abs(cfg["initial"][0][800:]) < 1e-300)


def test_optimizer_aliases_resolve(tmp_path, capsys):
    """``gd`` is gradient descent; a method the package does not implement
    exits 2 and lists the methods, rather than running another one."""
    from vqpde.cli import _parse_optimizer
    from vqpde.optim import GradientDescent
    assert isinstance(_parse_optimizer({"method": "gd"}), GradientDescent)
    for method in ("imfil", "vd-cma", "cpso"):
        path = write_cfg(tmp_path, overrides={"optimizer": {"method": method}})
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"unknown value {method!r}" in err and "nelder-mead" in err


def test_every_optimizer_config_has_a_method():
    from vqpde.cli import _OPTIMIZERS
    from vqpde.optim import CONFIGS
    assert set(_OPTIMIZERS.values()) == set(CONFIGS)


def test_load_config_structure(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    assert cfg["layout"].dim == 8
    assert cfg["specs"][0].parameter_count == 6
    assert cfg["evolutions"][0].seed == 5
    assert np.allclose(cfg["initial"][0], 1.5)


def test_initial_profile_sinusoid(tmp_path):
    cfg = load_config(write_cfg(tmp_path, overrides={
        "initial": {"profile": "sinusoid", "amplitude": 2.0, "mode": 1}}))
    u = cfg["initial"][0]
    assert abs(u[0]) < 1e-12
    assert abs(u[2] - 2.0) < 1e-12


# -- fuzzing ------------------------------------------------------------------

FUZZ_BASES = [
    BASE,
    {**BASE, "problem": {"kind": "dsw"},
     "initial": {"u": {"samples": [0.1] * 8},
                 "v": {"profile": "sinusoid", "mode": 1}}},
    {**BASE, "problem": {"kind": "navier-stokes", "nu": 0.5,
                         "pressure": {"model": "uniform", "value": 0.1}},
     "initial": {"profile": "sech-tanh", "width": 2.0, "center": 3.0}},
    {**BASE, "problem": {"kind": "einstein", "tensor": {
        "model": "point-particle", "m": 1.0, "v_mu": 0.3, "v_nu": 0.2}},
     "initial": {"profile": "negative-slope", "slope": -0.5}},
    {**BASE, "problem": {"kind": "maxwell", "ext_fields": {"E_y": [1.0] * 8}},
     "optimizer": [{"method": "cmaes", "popsize": 6, "f_tol": None},
                   {"method": "spsa"}],
     "evolution": {"tau": 0.1, "n_steps": 1, "mode": "shots", "shots": 10}},
    {**BASE, "problem": {"kind": "lin-tsien"},
     "grid": {"axes": [{"label": "x", "qubits": 2},
                       {"label": "y", "qubits": 2, "delta": 0.5}]}},
]

# Integers stay small: validate allocates 2**qubits amplitudes.
YAML_VALUES = st.recursive(
    st.one_of(st.text(max_size=6), st.booleans(), st.none(),
              st.integers(-16, 16), st.floats(-16.0, 16.0),
              st.sampled_from([float("nan"), float("inf"), float("-inf")])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=6)


def config_paths(node, path=()):
    """The path of every section and leaf in a config tree."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from config_paths(child, path + (key,))


@pytest.mark.parametrize("base", range(len(FUZZ_BASES)))
def test_fuzz_bases_are_valid(tmp_path, base):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(FUZZ_BASES[base]))
    assert main(["validate", str(path)]) == 0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_fuzzed_config_exits_0_or_2(tmp_path_factory, data):
    cfg = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_BASES))))
    path = data.draw(st.sampled_from(list(config_paths(cfg))))
    value = data.draw(YAML_VALUES)
    if path:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        cfg = value
    out = tmp_path_factory.mktemp("fuzz") / "cfg.yaml"
    out.write_text(yaml.safe_dump(cfg))
    assert main(["validate", str(out)]) in (0, 2)


# -- YAML parsing -------------------------------------------------------------

README_YAML = re.search(r"^```yaml\n(.*?)^```", (
    Path(__file__).resolve().parents[1] / "README.md").read_text(),
    re.S | re.M).group(1)


@pytest.mark.parametrize("text", [*(yaml.safe_dump(b) for b in FUZZ_BASES),
                                  README_YAML],
                         ids=[*(f"base-{i}" for i in range(len(FUZZ_BASES))),
                              "readme"])
def test_configs_parse_alike_with_libyaml_and_safe_load(text):
    """``load_config`` parses with libyaml where PyYAML has it: every fuzz
    base and the README's example read as ``yaml.safe_load`` reads them."""
    assert yaml.load(text, Loader=YAML_LOADER) == yaml.safe_load(text)


@pytest.mark.parametrize("text", ["problem: [1, 2\n", "a: b: c\n",
                                  "problem:\n\t- x\n", "{unclosed",
                                  "- a\nb: c\n"])
def test_malformed_yaml_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert "malformed config" in capsys.readouterr().err


# -- run / compare ------------------------------------------------------------

def run_dir_csvs(out):
    return sorted(p.name for p in out.iterdir())


def test_run_writes_artifacts_and_exit_zero(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    names = run_dir_csvs(out)
    assert names == ["errors.csv", "manifest.json", "oracle.csv",
                     "vqa_000.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert len(manifest["files"]["runs"]) == 1
    assert manifest["summary"][0]["final_rel_l2"] < 1e-3
    assert "final relative L2" in capsys.readouterr().out


def test_run_second_order_kind_from_one_profile(tmp_path):
    # one profile: the evolution and the oracle both start from rest
    out = tmp_path / "ch"
    path = write_cfg(tmp_path, overrides={
        "problem": {"kind": "camassa-holm", "kappa": 1.0},
        "initial": {"profile": "sinusoid", "amplitude": 0.1},
        "evolution": {"tau": 0.01, "n_steps": 1},
    }, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert np.isfinite(manifest["summary"][0]["final_rel_l2"])


def test_failed_step_is_an_error_not_a_partial_run(tmp_path, monkeypatch,
                                                  capsys):
    real_step = evolve.step
    calls = []

    def failing_step(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise evolve.EvolutionError("optimizer diverged")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(evolve, "step", failing_step)
    path = write_cfg(tmp_path, overrides={
        "evolution": {"tau": 0.1, "n_steps": 2}},
        output_dir=str(tmp_path / "out"))
    cfg = load_config(path)
    with pytest.raises(evolve.EvolutionError):
        evolve.run(cfg["problem"], cfg["initial"], cfg["evolutions"][0],
                   cfg["layout"], cfg["specs"][0])
    assert main(["run", str(path)]) == 1
    assert "optimizer diverged" in capsys.readouterr().err


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    pa = write_cfg(tmp_path, name="a.yaml", output_dir=str(out_a))
    pb = write_cfg(tmp_path, name="b.yaml", output_dir=str(out_b))
    assert main(["run", str(pa)]) == 0
    assert main(["run", str(pb)]) == 0
    for fname in ("vqa_000.csv", "oracle.csv", "errors.csv"):
        assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()


def test_sweep_produces_one_file_per_combination(tmp_path):
    out = tmp_path / "sweep"
    path = write_cfg(tmp_path, overrides={
        "ansatz": [{"layers": 1}, {"layers": 2}],
        "optimizer": [
            {"method": "gd", "eta": 0.2, "max_iters": 40},
            {"method": "nelder-mead", "max_iters": 120},
        ],
    }, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    vqa = [n for n in run_dir_csvs(out) if n.startswith("vqa_")]
    assert vqa == ["vqa_000.csv", "vqa_001.csv", "vqa_002.csv", "vqa_003.csv"]


def test_compare_against_oracle(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    assert main(["compare", str(out), "--against", "oracle"]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "run,t,component,rel_l2,linf"
    assert len(lines) == 3  # two time levels, one component
    final_rel = float(lines[-1].split(",")[3])
    assert final_rel < 1e-3


def test_compare_from_another_directory(tmp_path, monkeypatch):
    """The manifest lists its files relative to where ``run`` ran; compare
    finds them in the run directory from any working directory."""
    (tmp_path / "work").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    path = write_cfg(tmp_path, output_dir="out")
    assert main(["run", str(path)]) == 0
    manifest = json.loads(Path("out/manifest.json").read_text())
    assert manifest["files"]["runs"] == ["out/vqa_000.csv"]
    monkeypatch.chdir(tmp_path / "elsewhere")
    out = tmp_path / "work" / "out"
    assert main(["compare", str(out), "--against", "oracle"]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert float(lines[-1].split(",")[3]) < 1e-3


def test_compare_names_each_run_file_as_it_sits_in_the_run_directory(
        tmp_path, monkeypatch):
    """compare.csv sits in the run directory, so its ``run`` column names
    each trajectory file by its name there, wherever ``run`` ran."""
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, output_dir="out")
    assert main(["run", str(path)]) == 0
    assert main(["compare", "out", "--against", "oracle"]) == 0
    with open(tmp_path / "out" / "compare.csv", newline="") as fh:
        runs = {row["run"] for row in csv.DictReader(fh)}
    assert runs == {"vqa_000.csv"}
    assert all((tmp_path / "out" / run).is_file() for run in runs)


def test_compare_exact_uses_grid_coordinates(tmp_path):
    # at t = 0 the run holds the initial profile -x exactly; the reference
    # must be evaluated at x = 0, 0.5, 1, ... rather than at the indices
    out = tmp_path / "out"
    path = write_cfg(tmp_path, overrides={
        "grid": {"axes": [{"label": "x", "qubits": 3, "delta": 0.5}]},
        "initial": {"profile": "negative-slope", "slope": -1.0,
                    "intercept": 0.0},
        "evolution": {"tau": 0.1, "n_steps": 0},
    }, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    assert main(["compare", str(out), "--against", "exact:negative-slope"]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[3]) <= 1e-12


def test_compare_oracle_scores_dsw_under_v(tmp_path):
    # the dsw reference is the v field; at t = 0 both equal the initial data
    out = tmp_path / "dsw"
    xs = np.arange(8)
    path = write_cfg(tmp_path, overrides={
        "problem": {"kind": "dsw"},
        "initial": {"u": {"samples": (0.1 * np.sin(2 * np.pi * xs / 8)).tolist()},
                    "v": {"samples": [1.0] * 8}},
        "evolution": {"tau": 0.02, "n_steps": 1},
    }, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    assert main(["compare", str(out), "--against", "oracle"]) == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["component"] for r in rows] == ["v", "v"]
    assert float(rows[0]["t"]) == 0.0 and float(rows[0]["rel_l2"]) == 0.0


def test_compare_against_every_exact_reference(tmp_path):
    # every listed reference takes its defaults, so compare can always use it
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    assert sorted(_EXACT_REFS) == ["couette-steady", "negative-slope",
                                   "sech-tanh", "sinusoid"]
    for name in sorted(_EXACT_REFS):
        assert main(["compare", str(out), "--against", f"exact:{name}"]) == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header and two time levels


def test_compare_unknown_reference(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    assert main(["compare", str(out), "--against", "exact:bogus"]) == 1
    assert main(["compare", str(out), "--against", "martian"]) == 1


def test_compare_without_manifest(tmp_path):
    assert main(["compare", str(tmp_path)]) == 1


# -- term dumps ---------------------------------------------------------------

@pytest.mark.parametrize("pde", ["couette", "navier-stokes", "einstein",
                                 "maxwell", "boussinesq", "lin-tsien",
                                 "camassa-holm", "dsw", "hunter-saxton"])
def test_terms_dump_every_equation(pde, capsys):
    assert main(["terms", pde]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    # the per-component header appears only for a multi-part cost
    assert ("# component" in out) == (pde == "dsw")


def test_terms_unknown_equation():
    assert main(["terms", "kdv"]) == 2


def test_terms_output_is_stable(capsys):
    assert main(["terms", "camassa-holm"]) == 0
    first = capsys.readouterr().out
    assert main(["terms", "camassa-holm"]) == 0
    assert capsys.readouterr().out == first
