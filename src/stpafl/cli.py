"""Command-line front end.

Subcommands:
  run       execute one experiment from a JSON config; emits per-round JSONL
            and a summary CSV
  sweep     rerun a base config across malicious fractions; emits one CSV
  gen-data  generate a blob dataset CSV for reuse across runs

Seed precedence: config file < BB_SEED env var < --seed flag.
Exit codes: 0 success, 1 runtime error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data
from .aggregation import AggregationRule
from .attacks import AttackSpec
from .models import TrainConfig
from .simulation import (
    BlobsDataConfig,
    CsvDataConfig,
    IdxDataConfig,
    ModelConfig,
    PartitionConfig,
    ScenarioConfig,
    iter_experiment,
    run_experiment,
)
from .stpa import StpaConfig

CSV_COLUMNS = (
    "round",
    "test_error_pct",
    "alpha",
    "eta",
    "benign_kept",
    "malicious_selected",
    "discarded",
)


class ConfigError(ValueError):
    pass


def _strict(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_attack(obj: dict) -> AttackSpec:
    _strict(obj, {"kind", "sigma", "low", "high", "clip_lo", "clip_hi", "target", "epsilon"}, "attack")
    return AttackSpec(**obj)


def _parse_rule(obj: dict) -> AggregationRule:
    _strict(obj, {"kind", "gamma", "f", "m"}, "rule")
    return AggregationRule(**obj)


def _parse_stpa(obj: dict) -> StpaConfig:
    _strict(obj, {"s_t", "beta", "eta0", "inner_rule"}, "stpa")
    kwargs = dict(obj)
    if "inner_rule" in kwargs:
        kwargs["inner_rule"] = _parse_rule(kwargs["inner_rule"])
    return StpaConfig(**kwargs)


def _parse_train(obj: dict) -> TrainConfig:
    _strict(obj, {"local_steps", "local_lr", "batch_size"}, "train")
    return TrainConfig(**obj)


def _parse_model(obj: dict) -> ModelConfig:
    _strict(obj, {"kind", "hidden"}, "model")
    return ModelConfig(**obj)


def _parse_data(obj: dict):
    kind = obj.get("kind")
    if kind == "blobs":
        _strict(
            obj,
            {"kind", "n_classes", "dim", "samples_per_class", "test_samples_per_class", "spread"},
            "data",
        )
        return BlobsDataConfig(**obj)
    if kind == "idx":
        _strict(obj, {"kind", "train_images", "train_labels", "test_images", "test_labels"}, "data")
        return IdxDataConfig(**obj)
    if kind == "csv":
        _strict(obj, {"kind", "train_path", "test_path"}, "data")
        return CsvDataConfig(**obj)
    raise ConfigError(f"unknown data kind: {kind}")


def _parse_partition(obj: dict) -> PartitionConfig:
    _strict(obj, {"scheme", "shards_per_client", "shard_size"}, "partition")
    return PartitionConfig(**obj)


def parse_config(obj: dict) -> ScenarioConfig:
    top = {
        "scenario",
        "n_clients",
        "n_malicious",
        "clients_per_round",
        "rounds",
        "seed",
        "attack",
        "rule",
        "train",
        "stpa",
        "model",
        "data",
        "partition",
    }
    _strict(obj, top, "config")
    try:
        kwargs = dict(obj)
        for key, parser in (
            ("attack", _parse_attack),
            ("rule", _parse_rule),
            ("train", _parse_train),
            ("stpa", _parse_stpa),
            ("model", _parse_model),
            ("data", _parse_data),
            ("partition", _parse_partition),
        ):
            if key in kwargs:
                kwargs[key] = parser(kwargs[key])
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, seed_flag: int | None) -> ScenarioConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    env_seed = os.environ.get("BB_SEED")
    if env_seed is not None:
        try:
            obj["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"BB_SEED is not an integer: {env_seed!r}") from exc
    if seed_flag is not None:
        obj["seed"] = seed_flag
    return parse_config(obj)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path = out / "rounds.jsonl"
    csv_path = out / "summary.csv"
    with open(jsonl_path, "w") as jf, open(csv_path, "w") as cf:
        cf.write(",".join(CSV_COLUMNS) + "\n")
        cf.flush()
        for log in iter_experiment(cfg):
            row = log.to_dict()
            jf.write(json.dumps(row) + "\n")
            jf.flush()
            cf.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
            cf.flush()
    return 0


def final_stats(logs, last_n: int = 10) -> tuple[float, float]:
    """Mean and std of test error over the last last_n rounds."""
    errs = np.array([log.test_error_pct for log in logs[-last_n:]])
    return float(errs.mean()), float(errs.std())


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.seed)
    fractions = [float(x) for x in args.fractions.split(",") if x.strip()]
    if not fractions:
        raise ConfigError("empty fraction list")
    if any(not 0.0 < f < 0.5 for f in fractions):
        raise ConfigError("fractions must lie in (0, 0.5)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for fraction in fractions:
        n_malicious = int(round(fraction * cfg.n_clients))
        sub = replace(cfg, n_malicious=n_malicious)
        logs = run_experiment(sub)
        mean, std = final_stats(logs)
        rows.append((fraction, cfg.rule.kind, cfg.attack.kind, mean, std))
    with open(out / "sweep.csv", "w") as fh:
        fh.write("fraction,rule,attack,mean_final_error,std_final_error\n")
        for fraction, rule, attack, mean, std in rows:
            fh.write(f"{_fmt(fraction)},{rule},{attack},{_fmt(mean)},{_fmt(std)}\n")
    return 0


def cmd_gen_data(args) -> int:
    if args.kind != "blobs":
        raise ConfigError(f"unknown dataset kind: {args.kind}")
    if args.samples_per_class < 1:
        raise ConfigError("samples-per-class must be >= 1")
    dataset = data.generate_blobs(
        args.classes, args.dim, args.samples_per_class, args.spread, args.seed
    )
    data.save_csv(dataset, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stpafl")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="sweep malicious fractions")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--fractions", required=True, help="comma-separated, e.g. 0.05,0.1,0.2,0.34")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    gen = sub.add_parser("gen-data", help="generate a reusable dataset CSV")
    gen.add_argument("--kind", default="blobs")
    gen.add_argument("--classes", type=int, default=10)
    gen.add_argument("--dim", type=int, default=20)
    gen.add_argument("--samples-per-class", type=int, default=200)
    gen.add_argument("--spread", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
