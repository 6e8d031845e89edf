import json

from edgeoffload.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


def _run(*argv):
    return main(list(argv))


def test_generate_label_train_eval_pipeline(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    labels = tmp_path / "labels.csv"
    model = tmp_path / "model.bin"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 15\n")

    assert _run("generate", "--count", "60", "--seed", "2", "--out", str(inst)) == EXIT_OK
    assert _run("label", str(inst), "--out", str(labels)) == EXIT_OK
    assert _run("train", str(labels), "--config", str(cfg), "--out", str(model),
                "--log", str(tmp_path / "log.csv")) == EXIT_OK
    assert _run("eval", str(model), str(labels)) == EXIT_OK
    out = capsys.readouterr().out
    assert "accuracy" in out and "alloc_mse" in out
    assert (tmp_path / "log.csv").exists()


def test_generate_same_seed_same_digest(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert _run("generate", "--count", "30", "--seed", "5", "--out", str(a)) == EXIT_OK
    assert _run("generate", "--count", "30", "--seed", "5", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_solve_prints_solutions(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    _run("generate", "--count", "3", "--out", str(inst))
    assert _run("solve", str(inst), "--solver", "sbb") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("decisions=") == 3
    assert "optimal=True" in out


def test_solve_with_budget(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    cfg = tmp_path / "o.cfg"
    cfg.write_text("n_vehicles = 6\n")
    _run("generate", "--count", "2", "--config", str(cfg), "--out", str(inst))
    assert _run("solve", str(inst), "--solver", "sbb", "--max-nodes", "2") == EXIT_OK
    assert "optimal=False" in capsys.readouterr().out


def test_split_plan_defaults(capsys):
    assert _run("split-plan") == EXIT_OK
    out = capsys.readouterr().out
    assert "best split point" in out
    assert "crossover" in out


def test_exit_code_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 1\n")
    assert _run("generate", "--config", str(cfg), "--count", "1",
                "--out", str(tmp_path / "x.txt")) == EXIT_CONFIG


def test_exit_code_io_error(tmp_path):
    assert _run("generate", "--count", "1",
                "--out", str(tmp_path / "no" / "dir" / "x.txt")) == EXIT_IO
    assert _run("label", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "y.csv")) == EXIT_IO


def test_exit_code_bad_file_format(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("wrong header\n")
    assert _run("label", str(bad), "--out", str(tmp_path / "y.csv")) == EXIT_IO


def test_label_of_empty_instance_file_is_a_validation_error(tmp_path):
    inst = tmp_path / "inst.txt"
    labels = tmp_path / "labels.csv"
    assert _run("generate", "--count", "0", "--out", str(inst)) == EXIT_OK
    assert _run("label", str(inst), "--out", str(labels)) == EXIT_VALIDATION
    assert not labels.exists()


def test_experiment_fig6_and_replay(tmp_path, capsys):
    out = tmp_path / "run"
    assert _run("experiment", "--kind", "fig6-eta", "--out", str(out)) == EXIT_OK
    csv = (out / "fig6.csv").read_text()
    assert csv.splitlines()[0] == "eta,cost_local,cost_edge,cost_joint"
    assert (out / "fig6.gp").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["digests"]) == {"fig6.csv", "fig6.gp"}

    replay_out = tmp_path / "replay"
    assert _run("experiment", "--replay", str(out / "manifest.json"),
                "--out", str(replay_out)) == EXIT_OK
    assert (out / "fig6.csv").read_bytes() == (replay_out / "fig6.csv").read_bytes()


def test_experiment_requires_kind_or_replay(tmp_path):
    assert _run("experiment", "--out", str(tmp_path / "o")) == EXIT_CONFIG


def test_experiment_bad_config_key(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment.bogus = 1\n")
    assert _run("experiment", "--kind", "fig6-eta", "--config", str(cfg),
                "--out", str(tmp_path / "o")) == EXIT_CONFIG


def test_experiment_stage_failure_cleans_outputs(tmp_path):
    # an unreachable split config: zero-cost penalty flips no stage, but an
    # invalid eta_step hits the sweep stage through the config path
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("split.miss_penalty = -1\n")
    out = tmp_path / "o"
    rc = _run("experiment", "--kind", "fig6-eta", "--config", str(cfg), "--out", str(out))
    assert rc != EXIT_OK
    assert not (out / "fig6.csv").exists()
    assert not (out / "manifest.json").exists()
