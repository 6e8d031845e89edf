import ctypes
import json
import os
import platform

import numpy as np
import pytest

from edgeoffload import experiments, mtl
from edgeoffload.errors import ConfigError, InvalidParameterError, ValidationError
from edgeoffload.experiments import (
    ExperimentSpec,
    RunManifest,
    resolve_config,
    run_experiment,
    sha256_file,
)
from edgeoffload.model import generate_instances
from edgeoffload.mtl import normalize, train
from edgeoffload.solvers import label_instances


def test_spec_rejects_unknown_kind(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentSpec(kind="fig7", out_dir=tmp_path)


def test_fig5b_csv_shape(tmp_path):
    cfg = ("experiment.samples = 300\nexperiment.test_samples = 80\n"
           "experiment.n_list = 2,6\ntrain.epochs = 5\n")
    manifest = run_experiment(
        ExperimentSpec(kind="fig5b-n-avs", out_dir=tmp_path, seed=1, config_text=cfg)
    )
    lines = (tmp_path / "fig5b.csv").read_text().splitlines()
    assert lines[0] == "n,acc_mtl,acc_sbb,mse_mtl,mse_sbb"
    assert len(lines) == 3
    for line, n in zip(lines[1:], (2, 6)):
        cols = line.split(",")
        assert int(cols[0]) == n
        # the oracle-labeled test set keeps budgeted sBB's MSE at or above 0
        assert float(cols[4]) >= 0.0
        # wall-clock times live in the manifest, outside the digested CSV
        assert manifest.measurements[f"time_mtl@N={n}"] > 0.0
        assert manifest.measurements[f"time_infer@N={n}"] > 0.0
        assert manifest.measurements[f"time_sbb@N={n}"] > 0.0
    assert "fig5b.gp" in manifest.digests
    on_disk = RunManifest.from_json((tmp_path / "manifest.json").read_text())
    assert on_disk.measurements == manifest.measurements
    assert all(on_disk.measurements[f"time_infer@N={n}"] > 0.0 for n in (2, 6))


def test_manifest_digests_match_files(tmp_path):
    run_experiment(ExperimentSpec(kind="fig6-eta", out_dir=tmp_path, seed=0))
    manifest = RunManifest.from_json((tmp_path / "manifest.json").read_text())
    for name, digest in manifest.digests.items():
        assert sha256_file(tmp_path / name) == digest
    assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == 0
    # the environment rides in the undigested measurements
    assert manifest.measurements["numpy"] == np.__version__
    assert manifest.measurements["python"] == platform.python_version()
    assert manifest.measurements["cpu_count"] == os.cpu_count()
    assert manifest.measurements["platform"]
    assert set(manifest.digests) == {"fig6.csv", "fig6.gp"}


def test_stage_failure_removes_partial_outputs(tmp_path, monkeypatch):
    def failing_train(ds, cfg):
        raise ValidationError("diverged")

    monkeypatch.setattr(experiments, "train", failing_train)
    cfg = "experiment.samples = 50\nexperiment.test_samples = 20\nexperiment.fractions = 1.0\n"
    with pytest.raises(ValidationError) as excinfo:
        run_experiment(ExperimentSpec(kind="fig5a-training-fraction", out_dir=tmp_path,
                                      seed=0, config_text=cfg))
    assert "stage 'train@1.0'" in str(excinfo.value)
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "manifest.json").exists()


def test_invalid_value_fails_before_any_stage(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(InvalidParameterError, match="miss_penalty"):
        run_experiment(ExperimentSpec(kind="fig6-eta", out_dir=out, seed=0,
                                      config_text="split.miss_penalty = -1\n"))
    assert not out.exists()


def test_fig5a_reads_the_chi_l_alias(tmp_path):
    job = resolve_config(ExperimentSpec(kind="fig5a-training-fraction", out_dir=tmp_path,
                                        config_text="train.chi_l = 0.5\n"))
    assert [cfg.chi_r for _, cfg in job["runs"]] == [0.5] * 10


def test_fig5a_scores_a_headless_model_by_its_regression_head(tmp_path):
    """A chi_c = 0 model has no class head, so fig5a's accuracy is that of
    the regression head's decisions, not of an untrained classifier."""
    cfg = ("offload.n_vehicles = 6\ntrain.chi_c = 0\ntrain.hidden_sizes = 32,32\n"
           "train.epochs = 10\nexperiment.samples = 800\nexperiment.test_samples = 200\n"
           "experiment.fractions = 0.2,1.0\n")
    spec = ExperimentSpec(kind="fig5a-training-fraction", out_dir=tmp_path, seed=0,
                          config_text=cfg)
    run_experiment(spec)
    rows = [line.split(",") for line in (tmp_path / "fig5a.csv").read_text().splitlines()[1:]]
    job = resolve_config(spec)
    ds = label_instances(generate_instances(6, 800, job["ranges"], seed=0))
    test_ds = label_instances(generate_instances(6, 200, job["ranges"], seed=1))
    for row, (frac, train_cfg) in zip(rows, job["runs"], strict=True):
        model, _ = train(ds, train_cfg)
        assert model.class_head is None
        masks, _ = mtl._decide(model, normalize(test_ds.features, model), "reg")
        assert float(row[1]) == float((masks == test_ds.decision).mean())


def test_manifest_records_the_blas_outside_the_digests(tmp_path):
    manifest = run_experiment(ExperimentSpec(kind="fig6-eta", out_dir=tmp_path, seed=0))
    m = manifest.measurements
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert m["blas"] == f"{blas['name']} {blas['version']}"
    assert isinstance(m["blas_kernel"], str) and m["blas_kernel"]
    assert m["blas_threads"] == "unknown" or m["blas_threads"] >= 1
    assert set(manifest.digests) == {"fig6.csv", "fig6.gp"}
    # a library without the symbol, or no bundled library, records unknown
    assert experiments._openblas_call("scipy_openblas_no_such_symbol", ctypes.c_int) == "unknown"
