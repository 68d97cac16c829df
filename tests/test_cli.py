import csv
import json

import numpy as np
import pytest
import yaml

from vqpde import evolve
from vqpde.cli import ConfigError, load_config, main
from vqpde.optim import NelderMead

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


def test_optimizer_aliases_resolve():
    from vqpde.cli import _parse_optimizer
    assert isinstance(_parse_optimizer({"method": "imfil"}), NelderMead)
    from vqpde.optim import CMAES, ParticleSwarm
    assert isinstance(_parse_optimizer({"method": "vd-cma"}), CMAES)
    assert isinstance(_parse_optimizer({"method": "cpso"}), ParticleSwarm)


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


def test_compare_exact_reference_needing_parameters(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out), "--against", "exact:ns-exponential"]) == 1
    err = capsys.readouterr().err
    assert "compare: exact reference 'ns-exponential' needs parameters" in err


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
