"""Command-line front end.

Subcommands:
  run       execute one experiment from a JSON config; emits per-round JSONL
            and a summary CSV
  sweep     rerun a base config across malicious fractions; emits one CSV
  gen-data  generate a blob dataset CSV for reuse across runs

Seed precedence: config file < BB_SEED env var < --seed flag.
Exit codes: 0 success, 1 runtime error, 2 usage/config error.
"""

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args

import numpy as np

from . import data
from .simulation import BlobsDataConfig, ConfigError, ScenarioConfig, iter_experiment, run_experiment

CSV_COLUMNS = (
    "round",
    "test_error_pct",
    "alpha",
    "eta",
    "benign_kept",
    "malicious_selected",
    "discarded",
)


def from_dict(cls, obj: dict, where: str):
    """Build the config dataclass cls from a JSON object.

    The dataclass's fields are the schema, as live annotations: no module here
    postpones their evaluation. A config dataclass field recurses; a union of
    them picks the member whose `kind` default matches obj["kind"]. Leaf values
    must match the annotation: a float field takes an int and must be finite,
    as a float, and bool passes for neither. Range checks are __post_init__'s.
    """
    types = {f.name: f.type for f in fields(cls)}
    unknown = obj.keys() - types.keys()
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = {}
    for key, value in obj.items():
        path = f"{where}.{key}"
        t = types[key]
        members = get_args(t) or (t,)
        if is_dataclass(members[0]):
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be a JSON object")
            if len(members) > 1:
                kind = value.get("kind")
                members = [m for m in members if m.kind == kind]
                if not members:
                    raise ConfigError(f"unknown {key} kind: {kind}")
            value = from_dict(members[0], value, path)
        else:
            if float in members:
                members += (int,)
            if isinstance(value, bool) or not isinstance(value, members):
                name = t.__name__ if isinstance(t, type) else t  # a union prints as int | None
                raise ConfigError(f"{path} must be {name}, got {type(value).__name__}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{path} must be finite, got {value}")
            if isinstance(value, int) and float in members:
                try:
                    float(value)
                except OverflowError:
                    raise ConfigError(f"{path} must be finite, got an int too large for a float") from None
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, seed_flag: int | None) -> ScenarioConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, an int past the digit limit, or not UTF-8
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
    return from_dict(ScenarioConfig, obj, "config")


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
    logs = iter_experiment(cfg)
    # The first item loads and checks the data, builds the pool and plays
    # round 0, so a run whose plan its data cannot fill leaves no output.
    head = list(itertools.islice(logs, 1))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path = out / "rounds.jsonl"
    csv_path = out / "summary.csv"
    with open(jsonl_path, "w") as jf, open(csv_path, "w") as cf:
        cf.write(",".join(CSV_COLUMNS) + "\n")
        cf.flush()
        for log in itertools.chain(head, logs):
            # The instance dict is RoundLog's fields in order. dataclasses.asdict
            # gives the same dict but deep-copies every value, per round.
            row = vars(log)
            jf.write(json.dumps(row) + "\n")
            jf.flush()
            cf.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
            cf.flush()
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.seed)
    # The final error is the mean over the last 10 rounds, which needs at least one.
    if cfg.rounds < 1:
        raise ConfigError("sweep needs rounds >= 1")
    try:
        fractions = [float(x) for x in args.fractions.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --fractions: {exc}") from exc
    if not fractions:
        raise ConfigError("empty fraction list")
    if any(not 0.0 < f < 0.5 for f in fractions):
        raise ConfigError("fractions must lie in (0, 0.5)")
    rows = []
    for fraction in fractions:
        n_malicious = int(round(fraction * cfg.n_clients))
        sub = replace(cfg, n_malicious=n_malicious)
        errs = np.array([log.test_error_pct for log in run_experiment(sub)[-10:]])
        rows.append((fraction, cfg.rule.kind, cfg.attack.kind, float(errs.mean()), float(errs.std())))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w") as fh:
        fh.write("fraction,rule,attack,mean_final_error,std_final_error\n")
        for fraction, rule, attack, mean, std in rows:
            fh.write(f"{_fmt(fraction)},{rule},{attack},{_fmt(mean)},{_fmt(std)}\n")
    return 0


def cmd_gen_data(args) -> int:
    if args.kind != "blobs":
        raise ConfigError(f"unknown dataset kind: {args.kind}")
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    # Only the flags given reach the config; the rest keep BlobsDataConfig's defaults.
    names = {f.name for f in fields(BlobsDataConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    dc = from_dict(BlobsDataConfig, given, "gen-data")
    dataset = data.generate_blobs(dc.n_classes, dc.dim, dc.samples_per_class, dc.spread, args.seed)
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
    gen.add_argument("--classes", dest="n_classes", type=int)
    gen.add_argument("--dim", type=int)
    gen.add_argument("--samples-per-class", type=int)
    gen.add_argument("--spread", type=float)
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
