"""End-to-end ``vqpde run`` outputs: the trajectory CSVs of three small
configs are pinned by sha256, so a refactor that moves any number shows
here, and ``method: lm`` runs every kind to the oracle."""
import hashlib
import json

import numpy as np
import pytest
import yaml

from vqpde.cli import main

SINUSOID3 = (1.0 + 0.3 * np.sin(2 * np.pi * np.arange(8) / 8)).tolist()
SINUSOID4 = (1.0 + 0.2 * np.sin(2 * np.pi * np.arange(16) / 16)).tolist()
GRID3 = {"axes": [{"label": "x", "qubits": 3, "delta": 1.0}]}

CONFIGS = {
    "couette-gd": {
        "problem": {"kind": "couette", "nu": 1.0},
        "grid": GRID3,
        "initial": {"samples": SINUSOID3},
        "ansatz": {"layers": 2, "rotations": ["Y"]},
        "evolution": {"tau": 0.1, "n_steps": 2},
        "optimizer": {"method": "gd", "eta": 0.2, "max_iters": 30},
        "seed": 5,
    },
    "dsw-gd": {
        "problem": {"kind": "dsw"},
        "grid": GRID3,
        "initial": {"u": {"samples": (0.3 * np.array(SINUSOID3)).tolist()},
                    "v": {"samples": SINUSOID3}},
        "ansatz": {"layers": 3, "rotations": ["Y"]},
        "evolution": {"tau": 0.02, "n_steps": 2},
        "optimizer": {"method": "gd", "eta": 0.1, "max_iters": 30},
        "seed": 7,
    },
    "camassa-holm-spsa-shots": {
        "problem": {"kind": "camassa-holm", "kappa": 1.0},
        "grid": {"axes": [{"label": "x", "qubits": 4, "delta": 1.0}]},
        "initial": {"samples": SINUSOID4},
        "ansatz": {"layers": 2, "rotations": ["Y"]},
        "evolution": {"tau": 0.01, "n_steps": 2, "mode": "shots",
                      "shots": 500},
        "optimizer": {"method": "spsa", "a": 0.05, "c": 0.05,
                      "max_iters": 10, "seed": 3},
        "seed": 11,
    },
}

# sha256 of vqa_000.csv.  A change that moves them updates them and says
# why in CHANGES.md.
CSV_SHA256 = {
    "couette-gd":
        "92e1562801cd3bf68d18c2fe9b4515aeb31a0599c9d2e56d29e7f31636798d97",
    "dsw-gd":
        "8eee86bb9b2243ab3f5494b4c46dc05c6613830fe48649cf8c9fb064806ecdbc",
    "camassa-holm-spsa-shots":
        "83a5b8486ea7379b79d76b932b8bd76b61411551e2cc52927dede37a679a347d",
}


def run(tmp_path, cfg: dict):
    out = tmp_path / "out"
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**cfg, "output_dir": str(out)}))
    assert main(["run", str(path)]) == 0
    return out


@pytest.mark.filterwarnings("ignore:field encoding missed")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trajectory_csv_is_pinned(name, tmp_path):
    out = run(tmp_path, CONFIGS[name])
    digest = hashlib.sha256((out / "vqa_000.csv").read_bytes()).hexdigest()
    assert digest == CSV_SHA256[name]


def lm_config(kind: str) -> dict:
    """Two LM steps of ``kind`` from u = 1 + 0.3 sin(2 pi x / N) on 3
    qubits (lin-tsien: 2 + 2) under 4 Y-layers."""
    grid, dim, n = GRID3, 8, 8  # n points along x, the fastest index
    if kind == "lin-tsien":
        grid = {"axes": [{"label": "x", "qubits": 2, "delta": 1.0},
                         {"label": "y", "qubits": 2, "delta": 1.0}]}
        dim, n = 16, 4
    u = (1.0 + 0.3 * np.sin(2 * np.pi * (np.arange(dim) % n) / n)).tolist()
    initial = {"u": {"samples": u}, "v": {"samples": u}} if kind == "dsw" \
        else {"samples": u}
    return {"problem": {"kind": kind}, "grid": grid, "initial": initial,
            "ansatz": {"layers": 4, "rotations": ["Y"]},
            "evolution": {"tau": 0.02, "n_steps": 2},
            "optimizer": {"method": "lm"}, "seed": 1}


# the update operator grad_x of these kinds is singular; their bound waits
# for the well-posed step (ROADMAP item 4)
SINGULAR = ("hunter-saxton", "lin-tsien")


@pytest.mark.filterwarnings("ignore:field encoding missed")
@pytest.mark.parametrize("kind", [
    "couette", "navier-stokes", "einstein", "maxwell", "boussinesq",
    "lin-tsien", "camassa-holm", "dsw", "hunter-saxton"])
def test_lm_run_completes_for_every_kind(kind, tmp_path):
    out = run(tmp_path, lm_config(kind))
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    err = summary[0]["final_rel_l2"]
    assert np.isfinite(err)
    if kind not in SINGULAR:
        assert err <= 1e-10, (kind, err)
