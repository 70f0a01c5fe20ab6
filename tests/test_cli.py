import json
import os

import numpy as np
import pytest

from deskml import checkpoint as CK
from deskml.cli import EXIT_CONFIG, EXIT_RUNTIME, EXIT_USAGE, cli_main
from deskml.config import Config
from deskml.train import run_trainer


def write_config(tmp_path, extra=None):
    cfg = {
        "model": {"name": "fully_connected_classification"},
        "dataset": {"num_train_examples": 64, "num_eval_examples": 16},
        "batch_size": 8,
        "total_steps": 4,
        "eval_every": 4,
        "optimizer": {"kind": "adam", "lr": 1e-2},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_smoke(tmp_path, capsys):
    wd = str(tmp_path / "run")
    code = cli_main(["run", "--config", write_config(tmp_path),
                     "--workdir", wd, "--seed", "0"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out.strip())
    assert "accuracy" in metrics and "loss" in metrics
    assert os.path.exists(os.path.join(wd, "metrics.jsonl"))
    assert os.path.exists(os.path.join(wd, "ckpt_4.bin"))


def test_override_zero_lr_leaves_params_at_init(tmp_path, capsys):
    cfg = write_config(tmp_path)
    wd_a = str(tmp_path / "a")
    wd_b = str(tmp_path / "b")
    assert cli_main(["run", "--config", cfg, "--workdir", wd_a,
                     "--override", "optimizer.lr=0.0",
                     "--override", "total_steps=1",
                     "--seed", "3"]) == 0
    assert cli_main(["run", "--config", cfg, "--workdir", wd_b,
                     "--override", "total_steps=0", "--seed", "3"]) == 0
    capsys.readouterr()
    trained = CK.load_checkpoint(os.path.join(wd_a, "ckpt_1.bin"))
    init = CK.load_checkpoint(os.path.join(wd_b, "ckpt_0.bin"))
    for name in init.params:
        assert np.array_equal(trained.params[name].data, init.params[name].data)


def test_missing_config_flag_is_usage_error(tmp_path, capsys):
    code = cli_main(["run", "--workdir", str(tmp_path / "x")])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_bad_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli_main(["run", "--config", str(bad),
                     "--workdir", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize("optimizer, overrides", [
    ('{"lr": 0.5, "lr": 0.001}', []),
    ('{"lr": 0.5}', ["--override", 'optimizer={"lr": 0.5, "lr": 0.001}']),
], ids=["file", "override"])
def test_duplicate_config_key_exits_3_before_the_workdir(tmp_path, capsys,
                                                         optimizer, overrides):
    # json.loads keeps the last value, so the file trained at lr 0.001
    path, wd = tmp_path / "dup.json", str(tmp_path / "x")
    path.write_text('{"model": {"name": "fully_connected_classification"}, '
                    f'"optimizer": {optimizer}}}')
    code = cli_main(["run", "--config", str(path), "--workdir", wd] + overrides)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and "duplicate key 'lr'" in err
    assert not os.path.exists(wd)


def test_extending_a_run_with_the_default_eval_every_exits_4(tmp_path, capsys):
    # eval_every defaults to total_steps // 4: extended from 8 steps to 16,
    # the run evaluated at steps 2, 4, 6, 8, 12 and 16
    with open(write_config(tmp_path)) as f:
        cfg = json.load(f)
    del cfg["eval_every"]
    path, wd = tmp_path / "default_eval.json", str(tmp_path / "x")
    path.write_text(json.dumps({**cfg, "total_steps": 8}))
    argv = ["run", "--config", str(path), "--workdir", wd]
    assert cli_main(argv) == 0
    before = sorted(os.listdir(wd))
    assert cli_main(argv + ["--override", "total_steps=16"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "config key 'eval_every' is 2 in the checkpoint but 4 in this run" in err
    assert sorted(os.listdir(wd)) == before


@pytest.mark.parametrize("make", ["directory", "not_utf8"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, make):
    path, wd = tmp_path / "cfg.json", str(tmp_path / "x")
    if make == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    code = cli_main(["run", "--config", str(path), "--workdir", wd])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and str(path) in err
    assert not os.path.exists(wd)


def test_unknown_override_key_is_config_error(tmp_path, capsys):
    code = cli_main(["run", "--config", write_config(tmp_path),
                     "--workdir", str(tmp_path / "x"),
                     "--override", "no.such.key=1"])
    capsys.readouterr()
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("value", ["[8,8", "7"])
def test_malformed_list_override_is_config_error(tmp_path, capsys, value):
    wd = str(tmp_path / "x")
    cfg = write_config(tmp_path, {"dataset": {
        "num_train_examples": 64, "num_eval_examples": 16,
        "input_shape": [8, 8, 1]}})
    code = cli_main(["run", "--config", cfg, "--workdir", wd,
                     "--override", f"dataset.input_shape={value}"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error" in err and "input_shape" in err
    assert not os.path.exists(wd)


@pytest.mark.parametrize("extra, overrides, key", [
    # a config error that run_trainer finds
    ({"dataset": 7}, [], "'dataset.name'"),
    # a non-map over a map, and a map over a leaf
    ({}, ["dataset=7"], "'dataset'"),
    ({"optimizer": {"kind": "adam", "lr": 1e-2, "grad_clip": None}},
     ['optimizer.grad_clip={"a": 1}'], "'optimizer.grad_clip'"),
    # refusals of config values by the trainer, the model and the dataset
    ({"eval_every": 0}, [], "'eval_every'"),
    ({"total_steps": -5}, [], "'total_steps'"),
    ({"batch_size": 8.0}, [], "'batch_size'"),
    ({"model": {"name": "detr_detection", "num_slots": 2}}, [], "num_slots 2"),
    ({"model": {"name": "unet_segmentation"}, "dataset": {"image_size": 2}}, [],
     "image_size"),
    ({}, ["+model.dropuot=0.1"], "'model.dropuot'"),
    ({}, ["optimizer.lr=-1"], "learning rate -1.0"),
    # values of another kind than their defaults, refused by Config
    ({"optimizer": {"kind": "adam", "lr": "x"}}, [], "'optimizer.lr' must be a number"),
    ({"model": {"name": "vit_classification", "dropout": "x"}}, [],
     "'model.dropout' must be a number"),
    ({"dataset": {"num_train_examples": "64", "num_eval_examples": 16}}, [],
     "'dataset.num_train_examples' must be an int"),
    ({"model": {"name": "vit_classification", "dim": "64"}}, [],
     "'model.dim' must be an int"),
    ({"optimizer": {"kind": "adam", "lr": 1e-2, "cosine_decay": 1}}, [],
     "'optimizer.cosine_decay' must be a bool"),
    ({"model": {"name": "fully_connected_classification", "hidden": 64}}, [],
     "'model.hidden' must be a JSON list"),
    ({"model": {"name": "vit_classification", "dropout": None}}, [],
     "'model.dropout' must be a number, got None"),
    # grad_clip, read with no default, and the model's shapes and dtype
    ({"optimizer": {"kind": "adam", "lr": 1e-2, "grad_clip": True}}, [],
     "optimizer.grad_clip must be a number"),
    ({"model": {"name": "vit_classification", "heads": 3}}, [], "'model.heads'"),
    ({"model": {"name": "vit_classification", "patch_size": 0}}, [],
     "'model.patch_size'"),
    ({"model": {"name": "vit_classification", "dtype": "f16"}}, [], "'model.dtype'"),
    ({"model": {"name": "vit_classification", "depth": -1}}, [], "'model.depth'"),
    # values outside their range, list elements among them, refused by Config
    ({"model": {"name": "fully_connected_classification", "hidden": [0]}}, [],
     "'model.hidden' must be in [1, inf), got 0 in [0]"),
    ({"model": {"name": "fully_connected_classification", "hidden": [2.5]}}, [],
     "'model.hidden' must be a JSON list with each element an int"),
    ({"model": {"name": "fully_connected_classification", "hidden": ["a"]}}, [],
     "'model.hidden' must be a JSON list with each element an int"),
    ({"model": {"name": "vit_classification", "dim": 0}}, [], "'model.dim' must be in"),
    ({"model": {"name": "vit_classification", "mlp_dim": 0}}, [],
     "'model.mlp_dim' must be in"),
    ({"model": {"name": "mixer_classification", "token_mlp_dim": 0}}, [],
     "'model.token_mlp_dim' must be in"),
    ({"model": {"name": "resnet_classification", "width": 0}}, [], "'model.width' must be in"),
    ({"model": {"name": "unet_segmentation", "width": 0}}, [], "'model.width' must be in"),
    ({"model": {"name": "detr_detection", "lambda_box": -1.0}}, [],
     "'model.lambda_box' must be in [0, 1e37], got -1.0"),
    ({"model": {"name": "detr_detection", "lambda_cls": -1.0}}, [],
     "'model.lambda_cls' must be in [0, 1e37], got -1.0"),
    ({"model": {"name": "detr_detection", "dim": 1, "heads": 1}}, [],
     "'model.dim' must be in [2, inf), got 1"),
    ({"model": {"name": "detr_detection", "num_slots": 0},
      "dataset": {"num_train_examples": 64, "num_eval_examples": 16, "max_objects": 0}}, [],
     "'model.num_slots' must be in [1, inf), got 0"),
    ({"dataset": {"num_train_examples": 64, "num_eval_examples": 16, "num_classes": 0}}, [],
     "'dataset.num_classes' must be in [1, inf), got 0"),
    ({"dataset": {"num_train_examples": 64, "num_eval_examples": 16, "input_shape": [0]}},
     [], "'dataset.input_shape' must be in [1, inf), got 0 in [0]"),
    ({"dataset": {"num_train_examples": 64, "num_eval_examples": 16,
                  "input_shape": [2, "2"]}}, [],
     "'dataset.input_shape' must be a JSON list with each element an int"),
    ({"optimizer": 5}, [], "'optimizer' must be a JSON map to hold 'optimizer."),
    # DETR's matching weights: one that overflows the float32 cost, both 0
    ({"model": {"name": "detr_detection", "lambda_box": 1e308}}, [],
     "'model.lambda_box' must be in [0, 1e37], got 1e+308"),
    ({"model": {"name": "detr_detection", "lambda_cls": 0.0, "lambda_box": 0.0}}, [],
     "model.lambda_cls and model.lambda_box are both 0"),
    # 1e999 reads as inf: an infinite lr, and a clip that clips nothing
    ({}, ["optimizer.lr=1e999"], "infinite learning rate at step 0"),
    ({}, ["+optimizer.grad_clip=1e999"],
     "optimizer.grad_clip must be > 0 and finite, got inf"),
])
def test_config_error_anywhere_exits_3_before_the_workdir(tmp_path, capsys,
                                                           extra, overrides, key):
    wd = str(tmp_path / "x")
    argv = ["run", "--config", write_config(tmp_path, extra), "--workdir", wd]
    for item in overrides:
        argv += ["--override", item]
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and key in err
    assert not os.path.exists(wd)


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_64_bits_exits_3_before_the_workdir(tmp_path, capsys, seed):
    # masked to 64 bits, these would train seed 2**64 - 1's and seed 0's run
    wd = str(tmp_path / "x")
    code = cli_main(["run", "--config", write_config(tmp_path),
                     "--workdir", wd, "--seed", seed])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and f"[0, 2**64), got {seed}" in err
    assert not os.path.exists(wd)


def test_unknown_model_is_config_error(tmp_path, capsys):
    wd = str(tmp_path / "x")
    code = cli_main(["run", "--config",
                     write_config(tmp_path, {"model": {"name": "no_such_model"}}),
                     "--workdir", wd])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "'no_such_model'" in err and "vit_classification" in err
    assert not os.path.exists(wd)


def test_minimal_config_runs_the_same_in_library_and_cli(tmp_path, capsys):
    # the README's minimal config, shortened to two steps
    values = {"model": {"name": "vit_classification"}, "total_steps": 2}
    lib, cli = str(tmp_path / "lib"), str(tmp_path / "cli")
    metrics = run_trainer("classification", Config(values), lib, seed=0)
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(values))
    assert cli_main(["run", "--config", str(path), "--workdir", cli]) == 0
    assert json.loads(capsys.readouterr().out) == metrics
    with open(os.path.join(lib, "metrics.jsonl"), "rb") as f:
        expected = f.read()
    with open(os.path.join(cli, "metrics.jsonl"), "rb") as f:
        assert f.read() == expected
