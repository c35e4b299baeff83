import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

from stpafl import cli, data, models
from stpafl.aggregation import AggregationRule
from stpafl.attacks import AttackSpec
from stpafl.models import TrainConfig
from stpafl.simulation import (
    BlobsDataConfig,
    CsvDataConfig,
    IdxDataConfig,
    ModelConfig,
    PartitionConfig,
    ScenarioConfig,
)
from stpafl.stpa import StpaConfig
from test_data import idx_image_bytes, idx_label_bytes


def base_config(**kw):
    cfg = {
        "scenario": "cross_silo",
        "n_clients": 4,
        "n_malicious": 1,
        "clients_per_round": 4,
        "rounds": 3,
        "seed": 5,
        "data": {
            "kind": "blobs",
            "n_classes": 3,
            "dim": 6,
            "samples_per_class": 30,
            "test_samples_per_class": 15,
        },
    }
    cfg.update(kw)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_run_emits_jsonl_and_csv(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    jsonl = (out / "rounds.jsonl").read_text().splitlines()
    csv = (out / "summary.csv").read_text().splitlines()
    assert len(jsonl) == 3
    assert len(csv) == 4  # header + 3 rows
    assert csv[0] == "round,test_error_pct,alpha,eta,benign_kept,malicious_selected,discarded"
    rec = json.loads(jsonl[0])
    assert rec["round"] == 0
    assert 0.0 <= rec["test_error_pct"] <= 100.0


def test_run_missing_config_exits_2(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_invalid_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "raw",
    [
        # json raises a plain ValueError, not JSONDecodeError, for an int of
        # more digits than sys.get_int_max_str_digits() (4300 by default).
        json.dumps(base_config(seed=0)).replace('"seed": 0', '"seed": ' + "1" * 5000).encode(),
        b"\xff\xfe{",  # not UTF-8: UnicodeDecodeError, also a ValueError
    ],
    ids=["int_past_digit_limit", "not_utf8"],
)
def test_undecodable_config_exits_2_before_output(tmp_path, capsys, raw):
    p = tmp_path / "cfg.json"
    p.write_bytes(raw)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_run_unknown_key_rejected(tmp_path):
    cfg_path = write_config(tmp_path, base_config(bogus=1))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"n_clients": "4"}, "config.n_clients must be int, got str", id="int_str"),
        pytest.param({"n_clients": True}, "config.n_clients must be int, got bool", id="int_bool"),
        pytest.param({"rounds": 2.5}, "config.rounds must be int, got float", id="int_float"),
        pytest.param({"data": {"dim": 3}}, "unknown data kind: None", id="no_data_kind"),
        pytest.param(
            {"rule": {"kind": "stpa"}, "stpa": {"inner_rule": {"kind": "fed_avg", "x": 0}}},
            "unknown keys in config.stpa.inner_rule: ['x']",
            id="nested_unknown_key",
        ),
        # Krum needs 1 <= m <= n - f - 2: here n = 4.
        pytest.param(
            {"rule": {"kind": "krum", "f": 3, "m": 1}},
            "krum needs 1 <= m <= n - f - 2",
            id="krum_infeasible",
        ),
        # stpa may keep only 6 // 2 + 1 = 4 slots for its inner Krum.
        pytest.param(
            {
                "n_clients": 6,
                "n_malicious": 2,
                "clients_per_round": 6,
                "attack": {"kind": "ipm"},
                "rule": {"kind": "stpa"},
                "stpa": {"inner_rule": {"kind": "krum", "f": 2, "m": 1}},
            },
            "krum needs 1 <= m <= n - f - 2",
            id="stpa_inner_krum_infeasible",
        ),
        # JSON NaN/Infinity pass one-sided range checks such as local_lr > 0.
        pytest.param(
            {"train": {"local_lr": float("nan")}},
            "config.train.local_lr must be finite, got nan",
            id="lr_nan",
        ),
        pytest.param(
            {"stpa": {"eta0": float("nan")}}, "config.stpa.eta0 must be finite, got nan", id="eta0_nan"
        ),
        pytest.param(
            {"data": {"kind": "blobs", "spread": float("nan")}},
            "config.data.spread must be finite, got nan",
            id="spread_nan",
        ),
        pytest.param(
            {"attack": {"kind": "byzantine_gaussian", "sigma": float("inf")}},
            "config.attack.sigma must be finite, got inf",
            id="sigma_inf",
        ),
        # A JSON int too large for a float passes every range check, then
        # failed at run time; under ALIE, which ignores sigma, it even ran.
        pytest.param(
            {"train": {"local_lr": 10**400}},
            "config.train.local_lr must be finite, got an int too large for a float",
            id="lr_huge_int",
        ),
        pytest.param(
            {"stpa": {"eta0": 10**400}},
            "config.stpa.eta0 must be finite, got an int too large for a float",
            id="eta0_huge_int",
        ),
        pytest.param(
            {"data": {"kind": "blobs", "spread": 10**400}},
            "config.data.spread must be finite, got an int too large for a float",
            id="spread_huge_int",
        ),
        pytest.param(
            {"attack": {"kind": "alie", "sigma": 10**400}},
            "config.attack.sigma must be finite, got an int too large for a float",
            id="alie_sigma_huge_int",
        ),
        # 4 clients x 2 shards x 300 rows > 3 classes x 30 rows of blobs.
        pytest.param(
            {"partition": {"scheme": "noniid_shards", "shards_per_client": 2, "shard_size": 300}},
            "need 2400 samples for the shard plan, have 90",
            id="blobs_shard_plan_too_large",
        ),
        # Sizes below 1 used to fail only at run time, after --out existed.
        pytest.param(
            {"model": {"kind": "mlp", "hidden": 0}}, "hidden must be >= 1", id="mlp_hidden_0"
        ),
        pytest.param(
            {"partition": {"scheme": "noniid_shards", "shard_size": 0}},
            "shards_per_client and shard_size must be >= 1",
            id="shard_size_0",
        ),
        pytest.param(
            {"partition": {"scheme": "noniid_shards", "shards_per_client": 0}},
            "shards_per_client and shard_size must be >= 1",
            id="shards_per_client_0",
        ),
        pytest.param({"data": {"kind": "blobs", "dim": 0}}, "dim must be >= 1", id="blobs_dim_0"),
        pytest.param(
            {"data": {"kind": "blobs", "samples_per_class": 0}},
            "samples_per_class and test_samples_per_class must be >= 1",
            id="blobs_samples_0",
        ),
        pytest.param(
            {"data": {"kind": "blobs", "test_samples_per_class": 0}},
            "samples_per_class and test_samples_per_class must be >= 1",
            id="blobs_test_samples_0",
        ),
        pytest.param(
            {"data": {"kind": "blobs", "spread": -1.0}},
            "spread must be nonnegative",
            id="blobs_spread_negative",
        ),
        pytest.param(
            {"data": {"kind": "blobs", "n_classes": 1}},
            "n_classes must be >= 2",
            id="blobs_one_class",
        ),
        pytest.param({"seed": -1}, "seed must be nonnegative", id="seed_negative"),
        # 30 iid clients on 2 x 10 rows of blobs leave some clients empty.
        pytest.param(
            {
                "n_clients": 30,
                "clients_per_round": 30,
                "data": {"kind": "blobs", "n_classes": 2, "samples_per_class": 10},
            },
            "need 30 samples for the iid plan, have 20",
            id="blobs_iid_more_clients_than_rows",
        ),
        pytest.param(
            {"attack": {"kind": "label_flip", "target": 3}},
            "target 3 out of range [0, 3)",
            id="blobs_label_flip_target_out_of_range",
        ),
        pytest.param({"train": 5}, "config.train must be a JSON object", id="nested_not_object"),
        pytest.param(
            {"attack": {"kind": "noisy", "clip_lo": 1.0, "clip_hi": -1.0}},
            "clip bounds must be ordered",
            id="clip_bounds_unordered",
        ),
        pytest.param(
            {"attack": {"kind": "label_flip", "target": -1}},
            "target must be nonnegative",
            id="label_flip_target_negative",
        ),
        pytest.param({"rule": {"kind": "krum", "f": -1, "m": 1}}, "krum requires f >= 0", id="krum_f_negative"),
        pytest.param({"model": {"kind": "cnn"}}, "unknown model kind: cnn", id="model_kind_unknown"),
        pytest.param(
            {"partition": {"scheme": "dirichlet"}},
            "unknown partition scheme: dirichlet",
            id="partition_scheme_unknown",
        ),
        pytest.param({"n_clients": 0}, "n_clients must be >= 1", id="n_clients_0"),
        pytest.param(
            {"clients_per_round": 0},
            "clients_per_round must be in [1, n_clients]",
            id="clients_per_round_0",
        ),
    ],
)
def test_bad_config_exits_2_before_output(tmp_path, capsys, overrides, message):
    cfg_path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def csv_data(tmp_path, test_classes=3, test_dim=4):
    """A 3-class, 4-feature train CSV of 30 rows and a test CSV of the given shape."""
    for name, classes, dim, seed in (("train.csv", 3, 4, 1), ("test.csv", test_classes, test_dim, 2)):
        gen = ["gen-data", "--classes", str(classes), "--dim", str(dim), "--samples-per-class", "10"]
        assert cli.main([*gen, "--seed", str(seed), "--out", str(tmp_path / name)]) == 0
    return {"kind": "csv", "train_path": str(tmp_path / "train.csv"),
            "test_path": str(tmp_path / "test.csv")}


def test_csv_label_flip_target_out_of_range_exits_before_output(tmp_path, capsys):
    # A CSV's classes are known only once the file is loaded, so this config
    # passes the parser and must fail when the data loads, before --out exists.
    attack = {"kind": "label_flip", "target": 5}
    cfg_path = write_config(tmp_path, base_config(data=csv_data(tmp_path), attack=attack))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "target 5 out of range [0, 3)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, test_shape, message",
    [
        pytest.param(
            {"n_clients": 40, "clients_per_round": 40}, {},
            "need 40 samples for the iid plan, have 30", id="iid_more_clients_than_rows",
        ),
        pytest.param(
            {"partition": {"scheme": "noniid_shards", "shards_per_client": 2, "shard_size": 5}}, {},
            "need 40 samples for the shard plan, have 30", id="shard_plan_too_large",
        ),
        pytest.param(
            {}, {"test_dim": 7}, "test set has 7 features, train set has 4", id="test_width",
        ),
        pytest.param(
            {}, {"test_classes": 5}, "test label 4 out of range [0, 3) of the train set",
            id="test_classes",
        ),
    ],
)
def test_csv_plan_its_data_cannot_fill_exits_2_before_output(
    tmp_path, capsys, overrides, test_shape, message
):
    cfg = base_config(data=csv_data(tmp_path, **test_shape), **overrides)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_csv_test_set_without_rows_exits_2_before_output(tmp_path, capsys):
    data_cfg = csv_data(tmp_path)
    (tmp_path / "test.csv").write_text("# n_classes=3\nlabel,f0,f1,f2,f3\n")
    cfg_path = write_config(tmp_path, base_config(data=data_cfg))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "test set is empty" in capsys.readouterr().err
    assert not out.exists()


def test_csv_test_set_with_an_infinite_feature_exits_1_before_output(tmp_path, capsys):
    data_cfg = csv_data(tmp_path)
    test_csv = tmp_path / "test.csv"
    lines = test_csv.read_text().splitlines()
    label, _, *features = lines[2].split(",")
    lines[2] = ",".join([label, "inf", *features])
    test_csv.write_text("\n".join(lines) + "\n")
    cfg_path = write_config(tmp_path, base_config(data=data_cfg))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "features contain NaN or infinity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "index, text, message",
    [
        pytest.param(
            0, "# n_classes=ten", "{path}: line 1: invalid literal for int() with base 10: 'ten'",
            id="n_classes_ten",
        ),
        pytest.param(
            2, "x,0.1,0.2,0.3,0.4", "{path}: line 3: invalid literal for int() with base 10: 'x'",
            id="label",
        ),
        pytest.param(
            3, "0,0.1,abc,0.3,0.4", "{path}: line 4: could not convert string to float: 'abc'",
            id="feature",
        ),
        pytest.param(0, "# n_classes=0", "n_classes must be positive", id="n_classes_0"),
        pytest.param(0, "# n_classes=-3", "n_classes must be positive", id="n_classes_neg"),
    ],
)
def test_csv_contents_that_cannot_load_exit_1_before_output(tmp_path, capsys, index, text, message):
    data_cfg = csv_data(tmp_path)
    train_csv = tmp_path / "train.csv"
    lines = train_csv.read_text().splitlines()
    lines[index] = text  # the n_classes line is line 1
    train_csv.write_text("\n".join(lines) + "\n")
    cfg_path = write_config(tmp_path, base_config(data=data_cfg))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"runtime error: {message.format(path=train_csv)}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, missing",
    [("csv", "train_path"), ("idx", "train_labels"), ("csv", "directory"), ("idx", "directory")],
    ids=["csv_train_path", "idx_labels_path", "csv_directory", "idx_directory"],
)
def test_data_file_that_cannot_be_read_exits_2_before_output(tmp_path, capsys, kind, missing):
    if kind == "csv":
        data_cfg = csv_data(tmp_path)
    else:
        (tmp_path / "images.idx").write_bytes(idx_image_bytes([[[0]], [[9]], [[0]], [[9]]]))
        (tmp_path / "labels.idx").write_bytes(idx_label_bytes([0, 1, 0, 1]))
        data_cfg = {"kind": "idx"}
        for split in ("train", "test"):
            data_cfg[f"{split}_images"] = str(tmp_path / "images.idx")
            data_cfg[f"{split}_labels"] = str(tmp_path / "labels.idx")
    name = next(k for k in data_cfg if k != "kind")  # the first path the config names
    if missing == "directory":
        data_cfg[name] = str(tmp_path)
    else:
        data_cfg[missing] = str(tmp_path / "absent")
    cfg_path = write_config(tmp_path, base_config(data=data_cfg))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config error: cannot read data: [Errno" in capsys.readouterr().err
    assert not out.exists()


EVERY_RULE = pytest.mark.parametrize(
    "rule",
    [
        {"kind": "fed_avg"},
        {"kind": "coordinate_median"},
        {"kind": "trimmed_mean", "gamma": 0.2},
        {"kind": "krum", "f": 6, "m": 1},
        {"kind": "stpa"},
    ],
    ids=lambda rule: rule["kind"],
)


@EVERY_RULE
def test_non_finite_submissions_exit_1_before_output(tmp_path, capsys, rule):
    # Gaussian draws at sigma 1e308 overflow to inf in round 0.
    cfg = base_config(
        n_clients=20,
        n_malicious=6,
        clients_per_round=20,
        attack={"kind": "byzantine_gaussian", "sigma": 1e308},
        rule=rule,
    )
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
    assert "vector contains NaN or infinity" in capsys.readouterr().err
    assert not out.exists()


def assert_finishes_with_finite_records(tmp_path, cfg):
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
    assert len(records) == cfg["rounds"]
    for rec in records:
        values = [rec["test_error_pct"], rec["alpha"], rec["eta"]]
        assert all(v is None or np.isfinite(v) for v in values)


@pytest.mark.parametrize("sigma", [1e160, 1e300])
@EVERY_RULE
def test_huge_finite_submissions_finish(tmp_path, rule, sigma):
    # Finite Gaussian draws whose squared norms overflow to inf.
    cfg = base_config(
        n_clients=20,
        n_malicious=6,
        clients_per_round=20,
        rounds=5,
        attack={"kind": "byzantine_gaussian", "sigma": sigma},
        rule=rule,
    )
    assert_finishes_with_finite_records(tmp_path, cfg)


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(
            {"scenario": "cross_device", "n_clients": 10, "n_malicious": 4, "clients_per_round": 4},
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: the small-roster affinity branch fails on overflowing rows",
            ),
            id="four_slot_roster",
        ),
        *(
            pytest.param(
                {"n_clients": 20, "n_malicious": 6, "clients_per_round": 20, "stpa": {"inner_rule": inner}},
                marks=pytest.mark.xfail(
                    strict=True, reason="ROADMAP item 2: the temporal gate's guard goes in with the screen"
                ),
                id=f"gate_overflow_{inner['kind']}",
            )
            for inner in ({"kind": "fed_avg"}, {"kind": "trimmed_mean", "gamma": 0.2})
        ),
    ],
)
def test_huge_finite_submissions_finish_under_stpa(tmp_path, scenario):
    cfg = base_config(
        rounds=5,
        attack={"kind": "byzantine_gaussian", "sigma": 1e160},
        rule={"kind": "stpa"},
        **scenario,
    )
    assert_finishes_with_finite_records(tmp_path, cfg)


def test_sweep_of_a_plan_its_data_cannot_fill_exits_2_before_output(tmp_path, capsys):
    cfg = base_config(data=csv_data(tmp_path), n_clients=40, clients_per_round=40)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert cli.main(["sweep", "--config", str(cfg_path), "--fractions", "0.1", "--out", str(out)]) == 2
    assert "need 40 samples for the iid plan, have 30" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "env, flags", [({}, ["--seed", "-5"]), ({"BB_SEED": "-1"}, [])], ids=["seed_flag", "seed_env"]
)
def test_negative_seed_override_exits_2_before_output(tmp_path, capsys, monkeypatch, env, flags):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), *flags, "--out", str(out)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, env, message",
    [
        pytest.param("[1, 2]", {}, "config must be a JSON object", id="top_level_not_object"),
        pytest.param("{}", {"BB_SEED": "7x"}, "BB_SEED is not an integer: '7x'", id="seed_env_not_int"),
    ],
)
def test_config_file_or_seed_env_not_usable_exits_2_before_output(
    tmp_path, capsys, monkeypatch, text, env, message
):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: TrainConfig(local_lr=np.nan), "local_lr must be positive", id="local_lr"),
        pytest.param(lambda: StpaConfig(eta0=np.nan), "eta0 must be positive", id="eta0"),
        pytest.param(lambda: StpaConfig(s_t=np.nan), "s_t must be in (-1, 1)", id="s_t"),
        pytest.param(lambda: StpaConfig(beta=np.nan), "beta must be in [0, 1)", id="beta"),
        pytest.param(
            lambda: AggregationRule("trimmed_mean", gamma=np.nan),
            "trimmed_mean requires gamma in (0, 0.5)",
            id="gamma",
        ),
        pytest.param(lambda: AttackSpec(sigma=np.nan), "sigma must be nonnegative", id="sigma"),
        pytest.param(lambda: AttackSpec(epsilon=np.nan), "epsilon must be nonnegative", id="epsilon"),
        pytest.param(lambda: AttackSpec(low=np.nan), "noise high must be >= low", id="low"),
        pytest.param(lambda: AttackSpec(high=np.nan), "noise high must be >= low", id="high"),
        pytest.param(lambda: AttackSpec(clip_lo=np.nan), "clip bounds must be ordered", id="clip_lo"),
        pytest.param(lambda: AttackSpec(clip_hi=np.nan), "clip bounds must be ordered", id="clip_hi"),
        pytest.param(lambda: BlobsDataConfig(spread=np.nan), "spread must be nonnegative", id="spread"),
    ],
)
def test_nan_fails_the_range_check_when_the_config_is_built(build, message):
    # The CLI rejects NaN and +-inf before building a config; built directly,
    # the range checks must reject NaN themselves.
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


INF_CASES = [
    # (config class, field, message); each field is built with +inf and with -inf.
    (TrainConfig, "local_lr", "local_lr must be positive"),
    (StpaConfig, "eta0", "eta0 must be positive"),
    (AttackSpec, "sigma", "sigma must be nonnegative"),
    (AttackSpec, "epsilon", "epsilon must be nonnegative"),
    (AttackSpec, "low", "noise high must be >= low"),
    (AttackSpec, "high", "noise high must be >= low"),
    (BlobsDataConfig, "spread", "spread must be nonnegative"),
]


@pytest.mark.parametrize("sign", [1, -1], ids=["inf", "neg_inf"])
@pytest.mark.parametrize("cls, name, message", INF_CASES, ids=[f for _, f, _ in INF_CASES])
def test_inf_fails_the_range_check_when_the_config_is_built(cls, name, message, sign):
    # Each of these fields reaches the arithmetic of a round or of data
    # generation, where an infinite value turns into NaN or inf.
    with pytest.raises(ValueError) as info:
        cls(**{name: sign * np.inf})
    assert str(info.value) == message


def test_float_field_takes_int_and_optional_field_takes_null():
    obj = base_config(attack={"kind": "byzantine_gaussian", "sigma": 3}, train={"batch_size": None})
    cfg = cli.from_dict(ScenarioConfig, obj, "config")
    assert cfg.attack.sigma == 3.0
    assert cfg.train.batch_size is None


CONFIG_CLASSES = (
    ScenarioConfig,
    AttackSpec,
    AggregationRule,
    TrainConfig,
    StpaConfig,
    ModelConfig,
    BlobsDataConfig,
    IdxDataConfig,
    CsvDataConfig,
    PartitionConfig,
)


def _annotations(cls):
    """(class, field name, annotation) of cls's fields and of every config class they name."""
    for f in fields(cls):
        yield cls, f.name, f.type
        for member in get_args(f.type) or (f.type,):
            if is_dataclass(member):
                yield from _annotations(member)


def test_config_annotations_are_live_types():
    # from_dict reads each field's annotation as a type object. A config module
    # that postponed their evaluation would hand it strings, and parsing would
    # fail with isinstance's TypeError (exit 1) where a bad value exits 2.
    found = [*_annotations(ScenarioConfig), *_annotations(BlobsDataConfig)]
    assert [f"{c.__name__}.{name}" for c, name, t in found if isinstance(t, str)] == []
    assert {c for c, _, _ in found} == set(CONFIG_CLASSES)


# Between them these set every field of every config class away from its
# default, and use every rule, attack and data kind.
ROUND_TRIP_CONFIGS = [
    ScenarioConfig(
        scenario="cross_silo", n_clients=5, n_malicious=1, clients_per_round=5, rounds=7, seed=1,
        data=BlobsDataConfig(
            n_classes=3, dim=4, samples_per_class=9, test_samples_per_class=6, spread=1.5
        ),
    ),
    ScenarioConfig(
        scenario="cross_silo", n_clients=5, n_malicious=2, clients_per_round=5, rounds=1, seed=2,
        attack=AttackSpec("byzantine_gaussian", sigma=5.0),
        rule=AggregationRule("coordinate_median"),
        data=IdxDataConfig("a.idx", "b.idx", "c.idx", "d.idx"),
    ),
    ScenarioConfig(
        scenario="cross_silo", n_clients=5, n_malicious=2, clients_per_round=5, rounds=1, seed=3,
        attack=AttackSpec("noisy", low=-2.0, high=2.0, clip_lo=-3.0, clip_hi=3.0),
        rule=AggregationRule("trimmed_mean", gamma=0.2),
        data=CsvDataConfig("train.csv", "test.csv"),
    ),
    ScenarioConfig(
        scenario="cross_device", n_clients=30, n_malicious=3, clients_per_round=10, rounds=1, seed=4,
        attack=AttackSpec("label_flip", target=2),
        rule=AggregationRule("krum", f=2, m=3),
        train=TrainConfig(local_steps=3, local_lr=0.05, batch_size=8),
        model=ModelConfig("mlp", hidden=16),
        partition=PartitionConfig("noniid_shards", shards_per_client=3, shard_size=5),
    ),
    ScenarioConfig(
        scenario="cross_device", n_clients=30, n_malicious=9, clients_per_round=12, rounds=1, seed=5,
        attack=AttackSpec("ipm", epsilon=2.0),
        rule=AggregationRule("stpa"),
        stpa=StpaConfig(s_t=0.1, beta=0.9, eta0=1.5, inner_rule=AggregationRule("krum", f=1, m=2)),
    ),
    ScenarioConfig(
        scenario="cross_silo", n_clients=8, n_malicious=3, clients_per_round=8, rounds=1, seed=6,
        attack=AttackSpec("alie", epsilon=1.5),
        rule=AggregationRule("stpa"),
        stpa=StpaConfig(inner_rule=AggregationRule("trimmed_mean", gamma=0.1)),
    ),
]


def _fields_set(obj, acc):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.default is MISSING or value != f.default:
            acc.add((type(obj), f.name))
        if is_dataclass(value):
            _fields_set(value, acc)


def test_round_trip_configs_cover_every_field():
    covered = set()
    for cfg in ROUND_TRIP_CONFIGS:
        _fields_set(cfg, covered)
    # A data config's kind is fixed by its class, so it never leaves its default.
    data_kinds = {(c, "kind") for c in (BlobsDataConfig, IdxDataConfig, CsvDataConfig)}
    every = {(c, f.name) for c in CONFIG_CLASSES for f in fields(c)}
    assert every - data_kinds <= covered


@pytest.mark.parametrize("cfg", ROUND_TRIP_CONFIGS, ids=lambda c: f"seed{c.seed}")
def test_parse_config_round_trips_asdict(cfg):
    assert cli.from_dict(ScenarioConfig, asdict(cfg), "config") == cfg


def test_run_byte_identical_reruns(tmp_path):
    cfg_path = write_config(tmp_path, base_config(rule={"kind": "stpa"}))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "rounds.jsonl").read_bytes() == (out2 / "rounds.jsonl").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_run_on_idx_data_byte_identical_reruns(tmp_path, monkeypatch):
    # 3 classes of 2x3 images whose pixels grow with the class, 20 per class to
    # train and 5 to test, in the IDX format of the paper's public datasets.
    rng = np.random.default_rng(11)
    paths = {}
    for split, per_class in (("train", 20), ("test", 5)):
        labels = np.repeat(np.arange(3), per_class)
        images = rng.integers(0, 60, size=(len(labels), 2, 3)) + 90 * labels[:, None, None]
        for part, raw in (("images", idx_image_bytes(images)), ("labels", idx_label_bytes(labels))):
            paths[f"{split}_{part}"] = str(tmp_path / f"{split}-{part}.idx")
            Path(paths[f"{split}_{part}"]).write_bytes(raw)
    cfg_path = write_config(tmp_path, base_config(data={"kind": "idx", **paths}, rule={"kind": "stpa"}))
    # The test error must come from the 15 test rows, not the 60 training rows.
    evaluated = []
    evaluate_error = models.evaluate_error

    def recording(model, params, dataset):
        evaluated.append(len(dataset))
        return evaluate_error(model, params, dataset)

    monkeypatch.setattr(models, "evaluate_error", recording)
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert evaluated == [15] * 6
    records = [json.loads(line) for line in (outs[0] / "rounds.jsonl").read_text().splitlines()]
    assert [rec["round"] for rec in records] == [0, 1, 2]
    for name in ("rounds.jsonl", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_killed_run_leaves_a_valid_prefix(tmp_path):
    # Far more rounds than can run before the kill.
    cfg_path = write_config(tmp_path, base_config(rounds=10**7))
    out = tmp_path / "o"
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    argv = [sys.executable, "-m", "stpafl.cli", "run", "--config", str(cfg_path), "--out", str(out)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    jsonl_path = out / "rounds.jsonl"
    try:
        deadline = time.monotonic() + 60.0
        while not (jsonl_path.exists() and jsonl_path.read_bytes().count(b"\n") >= 2):
            assert proc.poll() is None, "the run exited before it was killed"
            assert time.monotonic() < deadline, "no 2 rounds written within 60 s"
            time.sleep(0.01)
    finally:
        proc.kill()  # SIGKILL
        proc.wait()
    assert proc.returncode == -signal.SIGKILL

    def complete_lines(path):
        # Only the text after the last newline can be a partial line.
        *lines, _partial = path.read_text().split("\n")
        return lines

    records = [json.loads(line) for line in complete_lines(jsonl_path)]
    assert len(records) >= 2
    assert [rec["round"] for rec in records] == list(range(len(records)))
    header, *rows = complete_lines(out / "summary.csv")
    assert header == ",".join(cli.CSV_COLUMNS)
    # Each round's JSONL line is flushed before its CSV row.
    assert len(records) - 1 <= len(rows) <= len(records)
    for rec, row in zip(records, rows):
        assert row == ",".join(cli._fmt(rec[c]) for c in cli.CSV_COLUMNS)


def test_seed_precedence(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, base_config(seed=1))
    monkeypatch.setenv("BB_SEED", "2")
    assert cli.load_config(cfg_path, None).seed == 2  # env beats file
    assert cli.load_config(cfg_path, 3).seed == 3  # flag beats env
    monkeypatch.delenv("BB_SEED")
    assert cli.load_config(cfg_path, None).seed == 1


def test_seed_flag_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out1), "--seed", "7"]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out2), "--seed", "8"]) == 0
    assert (out1 / "rounds.jsonl").read_bytes() != (out2 / "rounds.jsonl").read_bytes()


@pytest.mark.parametrize("attack, honest", [("alie", 1), ("ipm", 0)])
def test_small_roster_runs_through_rounds_with_few_honest_clients(tmp_path, attack, honest):
    # 102 of 300 clients are malicious and 5 take part per round, so some
    # rounds draw at most one honest client (with seed 0: round 8 under ALIE,
    # round 145 under IPM).
    cfg = {
        "scenario": "cross_device",
        "n_clients": 300,
        "n_malicious": 102,
        "clients_per_round": 5,
        "rounds": 150,
        "seed": 0,
        "attack": {"kind": attack},
        "rule": {"kind": "stpa"},
        "data": {"kind": "blobs", "samples_per_class": 600},
    }
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    logs = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
    assert len(logs) == 150
    assert any(log["malicious_selected"] == 5 - honest for log in logs)
    assert all(np.isfinite(log["test_error_pct"]) for log in logs)


def test_one_client_rounds_under_stpa(tmp_path):
    # stpa keeps a lone row. A lone malicious client has no honest row to
    # read, so IPM's g is 0 and it submits w_t: the step is 0, alpha is 0,
    # and the round is discarded.
    cfg = base_config(
        scenario="cross_device", n_clients=6, n_malicious=2, clients_per_round=1, rounds=12,
        attack={"kind": "ipm"}, rule={"kind": "stpa"},
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    logs = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
    assert len(logs) == 12 and all(log["benign_kept"] == 1 for log in logs)
    malicious = [log for log in logs if log["malicious_selected"] == 1]
    assert malicious and len(malicious) < len(logs)
    assert all(log["alpha"] == 0.0 and log["discarded"] for log in malicious)


def test_sweep_rows_and_consistency(tmp_path):
    cfg = base_config(n_clients=10, clients_per_round=10, n_malicious=0, rounds=4)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    rc = cli.main(
        ["sweep", "--config", str(cfg_path), "--fractions", "0.1,0.2,0.3", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "fraction,rule,attack,mean_final_error,std_final_error"
    assert len(lines) == 4
    for line in lines[1:]:
        fraction, rule, attack, mean, std = line.split(",")
        assert rule == "fed_avg" and attack == "none"
        assert 0.0 <= float(mean) <= 100.0
        assert float(std) >= 0.0


def test_sweep_rejects_bad_fractions(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["sweep", "--config", str(cfg_path), "--fractions", "", "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["sweep", "--config", str(cfg_path), "--fractions", "0.6", "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["sweep", "--config", str(cfg_path), "--fractions", "0.1,abc", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_sweep_zero_rounds_exits_2_before_output(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(rounds=0))
    out = tmp_path / "o"
    assert cli.main(["sweep", "--config", str(cfg_path), "--fractions", "0.1", "--out", str(out)]) == 2
    assert "sweep needs rounds >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_round_trip(tmp_path):
    out = tmp_path / "blob.csv"
    rc = cli.main(
        [
            "gen-data",
            "--kind",
            "blobs",
            "--classes",
            "2",
            "--dim",
            "3",
            "--samples-per-class",
            "100",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    ds = data.load_csv(out)
    assert len(ds) == 200
    assert np.array_equal(ds.features, data.generate_blobs(2, 3, 100, 0.5, 4).features)


def test_gen_data_same_seed_same_bytes(tmp_path):
    args = ["gen-data", "--classes", "2", "--dim", "3", "--samples-per-class", "10", "--seed", "9"]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_data_zero_samples_exits_2(tmp_path):
    rc = cli.main(["gen-data", "--samples-per-class", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--samples-per-class", "0"], "samples_per_class and test_samples_per_class must be >= 1"),
        (["--classes", "1"], "n_classes must be >= 2"),
        (["--dim", "0"], "dim must be >= 1"),
        (["--spread", "-1"], "spread must be nonnegative"),
        (["--spread", "nan"], "gen-data.spread must be finite, got nan"),
        (["--seed", "-1"], "seed must be nonnegative"),
    ],
    ids=["samples_0", "one_class", "dim_0", "spread_negative", "spread_nan", "seed_negative"],
)
def test_gen_data_bad_args_exit_2_before_output(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    assert cli.main(["gen-data", *args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_unknown_kind_exits_2(tmp_path):
    rc = cli.main(["gen-data", "--kind", "moons", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
