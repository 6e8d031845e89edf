import json
import struct

import pytest

from edgeoffload import experiments, mtl
from edgeoffload.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from edgeoffload.config import train_config
from edgeoffload.errors import ValidationError
from edgeoffload.solvers import SbbConfig, read_labels


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


def test_eval_of_a_model_file_prints_the_in_memory_accuracy(tmp_path, capsys):
    """The model file keeps what the trained model decides by: ``eval`` on it
    prints the accuracy that ``evaluate`` gives the model in memory."""
    inst, test_inst = tmp_path / "inst.txt", tmp_path / "test.txt"
    labels, test_labels, model = tmp_path / "labels.csv", tmp_path / "test.csv", tmp_path / "m.bin"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 10\n")
    assert _run("generate", "--count", "2000", "--seed", "0", "--out", str(inst)) == EXIT_OK
    assert _run("generate", "--count", "500", "--seed", "1", "--out", str(test_inst)) == EXIT_OK
    assert _run("label", str(inst), "--out", str(labels)) == EXIT_OK
    assert _run("label", str(test_inst), "--out", str(test_labels)) == EXIT_OK
    assert _run("train", str(labels), "--config", str(cfg), "--out", str(model)) == EXIT_OK
    capsys.readouterr()
    assert _run("eval", str(model), str(test_labels)) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    in_memory, _ = mtl.train(read_labels(labels), train_config({"epochs": "10"}))
    metrics = mtl.evaluate(in_memory, read_labels(test_labels))
    assert printed[:2] == [f"accuracy  {metrics.class_accuracy:.4f}",
                           f"alloc_mse {metrics.reg_mse:.6g}"]


def test_eval_of_a_v1_model_file_is_an_io_error(tmp_path, capsys):
    model, labels = _trained_model(tmp_path)
    model.write_bytes(b"mtl-model v1\n" + model.read_bytes()[len(mtl.MODEL_FILE_HEADER):])
    capsys.readouterr()
    assert _run("eval", str(model), str(labels)) == EXIT_IO
    assert "retrain" in capsys.readouterr().err


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


# the second case, a budget as large as sbb's default, takes the slot of the
# deleted solve --out case; the last --max-nodes on the command line wins
@pytest.mark.parametrize("command, out_args", [
    ("label", ["--out", "x.csv"]),
    ("solve", ["--max-nodes", str(SbbConfig().max_nodes)]),
    ("solve", []),
])
def test_budget_for_the_exhaustive_solver_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                            command, out_args):
    monkeypatch.chdir(tmp_path)
    assert _run("generate", "--count", "2", "--out", "inst.txt") == EXIT_OK
    capsys.readouterr()
    assert _run(command, "inst.txt", "--solver", "exhaustive", "--max-nodes", "3",
                *out_args) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert not out and "max_nodes" in err
    assert [p.name for p in tmp_path.iterdir()] == ["inst.txt"]


def test_grid_solver_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        _run("solve", str(tmp_path / "inst.txt"), "--solver", "grid")
    assert excinfo.value.code == 2


def test_split_plan_defaults(capsys):
    assert _run("split-plan") == EXIT_OK
    out = capsys.readouterr().out
    assert "best split point" in out
    assert "crossover" in out


def test_split_plan_eta_step_that_misses_one_is_a_config_error(tmp_path, capsys):
    cfg, sweep = tmp_path / "split.cfg", tmp_path / "sweep.csv"
    cfg.write_text("eta_step = 0.3\n")
    assert _run("split-plan", "--config", str(cfg), "--out", str(sweep)) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "equal steps" in err
    assert not sweep.exists()


def test_split_plan_eta_outside_the_unit_interval_prints_nothing(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    assert _run("split-plan", "--eta", "1.5", "--out", str(sweep)) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and "eta must be in [0, 1]" in err
    assert not sweep.exists()


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_label_workers_below_one_is_a_config_error(tmp_path, capsys, workers):
    inst, labels = tmp_path / "inst.txt", tmp_path / "labels.csv"
    assert _run("generate", "--count", "3", "--out", str(inst)) == EXIT_OK
    capsys.readouterr()
    assert _run("label", str(inst), "--workers", workers, "--out", str(labels)) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert not out and "workers must be >= 1" in err
    assert not labels.exists()


def test_exit_code_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # an unknown key; a bare range key next to its bounds
    for text in ("nonsense_key = 1\n", "tx_power = 5\ntx_power.min = 1\ntx_power.max = 10\n"):
        cfg.write_text(text)
        assert _run("generate", "--config", str(cfg), "--count", "1",
                    "--out", str(tmp_path / "x.txt")) == EXIT_CONFIG
        assert not (tmp_path / "x.txt").exists()


def test_exit_code_io_error(tmp_path):
    assert _run("generate", "--count", "1",
                "--out", str(tmp_path / "no" / "dir" / "x.txt")) == EXIT_IO
    assert _run("label", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "y.csv")) == EXIT_IO


def test_exit_code_bad_file_format(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("wrong header\n")
    assert _run("label", str(bad), "--out", str(tmp_path / "y.csv")) == EXIT_IO


def _trained_model(tmp_path):
    """Paths of a one-epoch N=2 model file and the label file it was trained on."""
    inst, labels, model = tmp_path / "inst.txt", tmp_path / "labels.csv", tmp_path / "m.bin"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\n")
    assert _run("generate", "--count", "5", "--out", str(inst)) == EXIT_OK
    assert _run("label", str(inst), "--out", str(labels)) == EXIT_OK
    assert _run("train", str(labels), "--config", str(cfg), "--out", str(model)) == EXIT_OK
    assert _run("eval", str(model), str(labels)) == EXIT_OK
    return model, labels


@pytest.mark.parametrize("bad_line", [2, 3])
def test_label_rows_no_model_can_use_are_io_errors(tmp_path, capsys, bad_line):
    """A label file of six-column rows (N = 0), or one whose decision is no
    N=2 mask, is refused by file and line before training starts."""
    model, labels = _trained_model(tmp_path)
    header, *rows = labels.read_text().splitlines()
    cols = [row.split(",") for row in rows]  # 6N+4 = 16 features, decision, alloc, cost
    if bad_line == 2:  # four features, the decision and the cost of each row
        rows = [",".join(c[:4] + [c[16], c[-1]]) for c in cols]
    else:
        rows[1] = ",".join(cols[1][:16] + ["999"] + cols[1][17:])
    labels.write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert _run("eval", str(model), str(labels)) == EXIT_IO
    model.unlink()
    assert _run("train", str(labels), "--out", str(model)) == EXIT_IO
    assert not model.exists()
    assert capsys.readouterr().err.count(f"{labels}:{bad_line}: ") == 2


def test_eval_of_a_truncated_model_is_an_io_error(tmp_path):
    model, labels = _trained_model(tmp_path)
    model.write_bytes(model.read_bytes()[:-1])
    assert _run("eval", str(model), str(labels)) == EXIT_IO


@pytest.mark.parametrize("field, value", [("weight", float("nan")), ("std", 0.0)])
def test_eval_of_a_model_with_a_corrupt_float_is_an_io_error(tmp_path, field, value):
    model, labels = _trained_model(tmp_path)
    blob = bytearray(model.read_bytes())
    # the file ends in the float32 weights; the 16 float64 stds of N=2 sit just before them
    at = len(blob) - 4 * mtl.load_model(model).weights.size - (8 * 16 if field == "std" else 0)
    fmt = "<d" if field == "std" else "<f"
    blob[at : at + struct.calcsize(fmt)] = struct.pack(fmt, value)
    model.write_bytes(bytes(blob))
    assert _run("eval", str(model), str(labels)) == EXIT_IO


@pytest.mark.parametrize("line", [
    "hidden_sizes = -3", "hidden_sizes = 0", "hidden_sizes = 8,0", "learning_rate = -1",
    "learning_rate = 0", "adam_beta1 = 1", "adam_beta2 = -0.5", "adam_epsilon = 0",
    "chi_c = nan", "chi_r = inf", "learning_rate = inf", "adam_epsilon = nan",
])
def test_train_rejects_hyperparameters_that_cannot_train(tmp_path, line):
    inst, labels, model = tmp_path / "inst.txt", tmp_path / "labels.csv", tmp_path / "m.bin"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"epochs = 1\n{line}\n")
    assert _run("generate", "--count", "5", "--out", str(inst)) == EXIT_OK
    assert _run("label", str(inst), "--out", str(labels)) == EXIT_OK
    assert _run("train", str(labels), "--config", str(cfg), "--out", str(model)) == EXIT_CONFIG
    assert not model.exists()


def test_label_of_empty_instance_file_is_a_validation_error(tmp_path):
    inst = tmp_path / "inst.txt"
    labels = tmp_path / "labels.csv"
    assert _run("generate", "--count", "0", "--out", str(inst)) == EXIT_OK
    assert _run("label", str(inst), "--out", str(labels)) == EXIT_VALIDATION
    assert not labels.exists()


def test_negative_seed_exit_codes(tmp_path):
    inst, labels, model = tmp_path / "inst.txt", tmp_path / "labels.csv", tmp_path / "m.bin"
    assert _run("generate", "--count", "3", "--seed", "-1", "--out", str(inst)) == EXIT_VALIDATION
    assert not inst.exists()
    assert _run("generate", "--count", "3", "--out", str(inst)) == EXIT_OK
    assert _run("label", str(inst), "--out", str(labels)) == EXIT_OK
    assert _run("train", str(labels), "--seed", "-1", "--out", str(model)) == EXIT_CONFIG
    assert not model.exists()


def test_train_seed_flag_wins_over_the_config_seed(tmp_path):
    inst, labels = tmp_path / "inst.txt", tmp_path / "labels.csv"
    assert _run("generate", "--count", "40", "--seed", "3", "--out", str(inst)) == EXIT_OK
    assert _run("label", str(inst), "--out", str(labels)) == EXIT_OK
    plain, seeded = tmp_path / "plain.cfg", tmp_path / "seeded.cfg"
    plain.write_text("epochs = 3\n")
    seeded.write_text("epochs = 3\nseed = 5\n")

    def model_bytes(name, *args):
        out = tmp_path / f"{name}.bin"
        assert _run("train", str(labels), "--out", str(out), *args) == EXIT_OK
        return out.read_bytes()

    config_5 = model_bytes("config5", "--config", str(seeded))
    assert model_bytes("flag5", "--config", str(plain), "--seed", "5") == config_5
    assert model_bytes("flag6", "--config", str(seeded), "--seed", "6") == model_bytes(
        "flag6only", "--config", str(plain), "--seed", "6") != config_5
    # no seed anywhere trains with TrainConfig's seed 0, as before
    assert model_bytes("unseeded", "--config", str(plain)) == model_bytes(
        "flag0", "--config", str(plain), "--seed", "0") != config_5


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


# a quick run of each kind
_SMALL = {
    "fig5a-training-fraction": {"experiment.samples": "50", "experiment.test_samples": "20",
                                "experiment.fractions": "1.0", "train.epochs": "1"},
    "fig5b-n-avs": {"experiment.samples": "50", "experiment.test_samples": "20",
                    "experiment.n_list": "2", "train.epochs": "1"},
    "fig6-eta": {},
}


def _config_text(kv):
    return "".join(f"{key} = {value}\n" for key, value in kv.items())


def test_experiment_stage_failure_cleans_outputs(tmp_path, monkeypatch):
    def failing_train(ds, cfg):
        raise ValidationError("diverged")

    monkeypatch.setattr(experiments, "train", failing_train)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_config_text(_SMALL["fig5a-training-fraction"]))
    out = tmp_path / "o"
    rc = _run("experiment", "--kind", "fig5a-training-fraction", "--config", str(cfg),
              "--out", str(out))
    assert rc == EXIT_VALIDATION
    assert not list(out.glob("*.csv"))
    assert not (out / "manifest.json").exists()


# each kind rejects the keys it does not read, and every experiment value is
# checked, before any stage runs
@pytest.mark.parametrize("kind, key, value", [
    ("fig6-eta", "offload.n_vehicles", "2"),
    ("fig6-eta", "train.epochs", "5"),
    ("fig6-eta", "experiment.samples", "10"),
    ("fig5a-training-fraction", "split.miss_penalty", "3.5"),
    ("fig5a-training-fraction", "train.train_fraction", "0.5"),
    ("fig5a-training-fraction", "train.seed", "3"),
    ("fig5a-training-fraction", "experiment.n_list", "2"),
    ("fig5a-training-fraction", "experiment.sbb_max_nodes", "8"),
    ("fig5b-n-avs", "split.miss_penalty", "3.5"),
    ("fig5b-n-avs", "train.chi_c", "0.5"),
    ("fig5b-n-avs", "train.chi_r", "0.5"),
    ("fig5b-n-avs", "train.chi_l", "0.5"),
    ("fig5b-n-avs", "train.hidden_sizes", "8,8"),
    ("fig5b-n-avs", "train.seed", "3"),
    ("fig5b-n-avs", "offload.n_vehicles", "3"),
    ("fig5b-n-avs", "experiment.fractions", "0.5"),
    ("fig5a-training-fraction", "experiment.samples", "abc"),
    ("fig5a-training-fraction", "offload.n_vehicles", "17"),
    ("fig5a-training-fraction", "experiment.fractions", "0.5,x"),
    ("fig5b-n-avs", "experiment.n_list", "2.7"),
    ("fig5b-n-avs", "experiment.n_list", "2,17"),
    ("fig5a-training-fraction", "train.hidden_sizes", "0"),
    ("fig5a-training-fraction", "train.hidden_sizes", "8,-3"),
    ("fig5a-training-fraction", "train.learning_rate", "-1"),
    ("fig5b-n-avs", "train.learning_rate", "0"),
    ("fig5b-n-avs", "train.adam_beta1", "1"),
    ("fig5a-training-fraction", "train.adam_beta2", "-0.1"),
    ("fig5b-n-avs", "train.adam_epsilon", "0"),
])
def test_experiment_config_error_leaves_no_output(tmp_path, kind, key, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_config_text({**_SMALL[kind], key: value}))
    out = tmp_path / "run"
    assert _run("experiment", "--kind", kind, "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


def test_split_plan_config_overlays_like_fig6(tmp_path):
    split_cfg, exp_cfg = tmp_path / "split.cfg", tmp_path / "exp.cfg"
    split_cfg.write_text("miss_penalty = 3.5\n")
    exp_cfg.write_text("split.miss_penalty = 3.5\n")
    sweep, run = tmp_path / "sweep.csv", tmp_path / "run"
    assert _run("split-plan", "--config", str(split_cfg), "--out", str(sweep)) == EXIT_OK
    assert _run("experiment", "--kind", "fig6-eta", "--config", str(exp_cfg),
                "--out", str(run)) == EXIT_OK
    assert sweep.read_bytes() == (run / "fig6.csv").read_bytes()


# positional arguments and required options of each command
_BASE_ARGV = {
    "generate": ["--out", "i.txt"],
    "label": ["i.txt", "--out", "l.csv"],
    "train": ["l.csv", "--out", "m.bin"],
    "eval": ["m.bin", "l.csv"],
    "solve": ["i.txt"],
    "split-plan": [],
    "experiment": ["--kind", "fig6-eta", "--out", "run"],
}


# each command accepts only the options its handler reads
@pytest.mark.parametrize("command, flag", [
    ("generate", "--workers"), ("train", "--workers"), ("experiment", "--workers"),
    ("label", "--config"), ("label", "--seed"),
    ("eval", "--config"), ("eval", "--seed"), ("eval", "--out"), ("eval", "--workers"),
    ("eval", "--decision-source"),
    ("solve", "--config"), ("solve", "--seed"), ("solve", "--workers"),
    ("split-plan", "--seed"), ("split-plan", "--workers"),
    ("label", "--grid-step"), ("solve", "--grid-step"), ("solve", "--out"),
])
def test_unread_option_is_a_usage_error(tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        _run(command, *_BASE_ARGV[command], flag, "1")
    assert excinfo.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n_vehicles", [2, 5, 8])
def test_label_sbb_writes_the_exhaustive_label_file(tmp_path, n_vehicles):
    """Exact sBB, with the default node budget and with an explicit one,
    writes the exhaustive solver's label file byte for byte."""
    inst, cfg = tmp_path / "inst.txt", tmp_path / "o.cfg"
    cfg.write_text(f"n_vehicles = {n_vehicles}\n")
    assert _run("generate", "--count", "25", "--seed", "9", "--config", str(cfg),
                "--out", str(inst)) == EXIT_OK

    def label_bytes(name, *solver_args):
        out = tmp_path / f"{name}.csv"
        assert _run("label", str(inst), *solver_args, "--out", str(out)) == EXIT_OK
        return out.read_bytes()

    exhaustive = label_bytes("exhaustive", "--solver", "exhaustive")
    assert label_bytes("sbb", "--solver", "sbb") == exhaustive
    assert label_bytes("budget", "--solver", "sbb", "--max-nodes", "100000") == exhaustive


@pytest.mark.parametrize("kind", ["fig6-eta", "fig5b-n-avs"])
def test_experiment_negative_seed_is_a_config_error(tmp_path, kind):
    out = tmp_path / "run"
    assert _run("experiment", "--kind", kind, "--seed", "-1", "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


def _set(key, value):
    """Edit of an instance record: ``key``, at the top, in the first vehicle
    or in the weights, takes ``value``."""
    def edit(record):
        payload = json.loads(record)
        for part in (payload, payload["vehicles"][0], payload["weights"]):
            if key in part:
                part[key] = value
        return json.dumps(payload)
    return edit


@pytest.mark.parametrize("edit, code", [
    pytest.param(lambda r: r[:-1], EXIT_IO, id="truncated-json"),
    pytest.param(lambda r: "[" * 100_000, EXIT_IO, id="nested-too-deep"),
    pytest.param(lambda r: r.replace("{", "\udcff", 1), EXIT_IO, id="not-utf8"),
    pytest.param(_set("data_size", 10**400), EXIT_IO, id="int-too-large-for-a-float"),
    pytest.param(_set("data_size", True), EXIT_IO, id="true"),
    pytest.param(_set("w_time", False), EXIT_IO, id="false"),
    pytest.param(_set("data_size", None), EXIT_IO, id="null"),
    pytest.param(_set("data_size", "5"), EXIT_IO, id="string"),
    pytest.param(_set("edge", []), EXIT_IO, id="edge-not-an-object"),
    pytest.param(_set("seed", 1.5), EXIT_IO, id="fractional-seed"),
    pytest.param(_set("seed", "7"), EXIT_IO, id="string-seed"),
    pytest.param(_set("seed", -3), EXIT_IO, id="negative-seed"),
    pytest.param(_set("seed", 2**64), EXIT_IO, id="seed-2**64"),
    pytest.param(lambda r: r.replace('"bandwidth":', '"band":', 1), EXIT_IO, id="unknown-key"),
    pytest.param(_set("data_size", -5.0), EXIT_VALIDATION, id="negative"),
    pytest.param(_set("data_size", float("nan")), EXIT_VALIDATION, id="nan"),
    pytest.param(_set("channel_gain", 2.0), EXIT_VALIDATION, id="gain-above-1"),
    pytest.param(_set("vehicles", []), EXIT_VALIDATION, id="no-vehicles"),
])
def test_malformed_instance_files_are_refused_by_file_and_line(tmp_path, capsys, edit, code):
    inst, labels = tmp_path / "inst.txt", tmp_path / "labels.csv"
    assert _run("generate", "--count", "3", "--out", str(inst)) == EXIT_OK
    lines = inst.read_text().splitlines()
    lines[2] = edit(lines[2])
    inst.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    capsys.readouterr()
    assert _run("solve", str(inst)) == code
    assert _run("label", str(inst), "--out", str(labels)) == code
    out, err = capsys.readouterr()
    assert not out and err.count(f"{inst}:3: ") == 2
    assert not labels.exists()


# N=2 label rows: 16 features, the decision, two alloc shares and the cost
@pytest.mark.parametrize("column, values", [
    pytest.param(16, ["3", "nan", "0.5"], id="nan-alloc"),
    pytest.param(0, ["inf"], id="inf-feature"),
    pytest.param(16, ["3", "-5.0", "7.0"], id="negative-share"),
    pytest.param(19, ["-1.0"], id="negative-cost"),
    pytest.param(16, ["0", "0.5", "0.0"], id="share-for-a-local-vehicle"),
    pytest.param(16, ["3", "1.0", "0.0"], id="no-share-for-an-offloader"),
    pytest.param(16, ["3", "0.6", "0.6"], id="shares-above-1"),
    pytest.param(16, ["1.0"], id="decision-not-an-int"),
    pytest.param(0, ["-1.0"], id="negative-data-size"),
    pytest.param(4, ["5.0"], id="gain-above-1"),
    pytest.param(14, ["0.0", "0.0"], id="both-weights-zero"),
    pytest.param(3, ["abc"], id="not-a-number"),
    pytest.param(3, ["\udcff"], id="not-utf8"),
])
def test_malformed_label_files_are_refused_by_file_and_line(tmp_path, capsys, column, values):
    model, labels = _trained_model(tmp_path)
    lines = labels.read_text().splitlines()
    cols = lines[2].split(",")
    cols[column : column + len(values)] = values
    lines[2] = ",".join(cols)
    labels.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    capsys.readouterr()
    assert _run("eval", str(model), str(labels)) == EXIT_IO
    model.unlink()
    assert _run("train", str(labels), "--out", str(model)) == EXIT_IO
    out, err = capsys.readouterr()
    assert not out and err.count(f"{labels}:3: ") == 2
    assert not model.exists()
