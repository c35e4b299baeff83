"""Golden logs: SHA-256 of `stpafl run` outputs for short fixed configs, and of
`stpafl gen-data` CSVs for fixed flags.

A refactor that claims "same behaviour" must leave these hashes unchanged. A
change that moves an output on purpose regenerates them in the same commit and
says which value moved and why. To print the current hashes:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from stpafl import cli

SMALL_BLOBS = {"kind": "blobs", "samples_per_class": 40, "test_samples_per_class": 20}

CONFIGS = {
    "stpa_silo_alie": {
        "scenario": "cross_silo", "n_clients": 20, "n_malicious": 7,
        "clients_per_round": 20, "rounds": 30, "seed": 3,
        "attack": {"kind": "alie", "epsilon": 1.5},
        "rule": {"kind": "stpa"},
        "stpa": {"eta0": 1.6, "inner_rule": {"kind": "fed_avg"}},
        "data": {**SMALL_BLOBS, "spread": 2.0},
    },
    "stpa_device_ipm": {
        "scenario": "cross_device", "n_clients": 90, "n_malicious": 30,
        "clients_per_round": 40, "rounds": 20, "seed": 4,
        "attack": {"kind": "ipm", "epsilon": 1.0},
        "rule": {"kind": "stpa"},
        "data": SMALL_BLOBS,
    },
    # 400 rows over 90 clients: sizes 4 and 5, each client drawing minibatches.
    "stpa_device_ipm_minibatch": {
        "scenario": "cross_device", "n_clients": 90, "n_malicious": 30,
        "clients_per_round": 40, "rounds": 20, "seed": 9,
        "attack": {"kind": "ipm", "epsilon": 1.0},
        "rule": {"kind": "stpa"},
        "train": {"batch_size": 3},
        "data": SMALL_BLOBS,
    },
    "stpa_device_label_flip_trimmed": {
        "scenario": "cross_device", "n_clients": 60, "n_malicious": 20,
        "clients_per_round": 30, "rounds": 20, "seed": 5,
        "attack": {"kind": "label_flip", "target": 0},
        "rule": {"kind": "stpa"},
        "stpa": {"inner_rule": {"kind": "trimmed_mean", "gamma": 0.2}},
        "data": SMALL_BLOBS,
    },
    "krum_silo_gauss_mlp": {
        "scenario": "cross_silo", "n_clients": 12, "n_malicious": 4,
        "clients_per_round": 12, "rounds": 15, "seed": 6,
        "attack": {"kind": "byzantine_gaussian", "sigma": 20.0},
        "rule": {"kind": "krum", "f": 4, "m": 2},
        "model": {"kind": "mlp", "hidden": 16},
        "data": SMALL_BLOBS,
    },
    "median_silo_noisy": {
        "scenario": "cross_silo", "n_clients": 10, "n_malicious": 3,
        "clients_per_round": 10, "rounds": 20, "seed": 7,
        "attack": {"kind": "noisy"},
        "rule": {"kind": "coordinate_median"},
        "data": SMALL_BLOBS,
    },
    # 40 rows per client at hidden width 200 train 8 clients to a block, so
    # each round's 10 clients take 2 blocks and local_train starts its helper.
    "median_silo_noisy_mlp_blocks": {
        "scenario": "cross_silo", "n_clients": 10, "n_malicious": 3,
        "clients_per_round": 10, "rounds": 5, "seed": 10,
        "attack": {"kind": "noisy"},
        "rule": {"kind": "coordinate_median"},
        "model": {"kind": "mlp", "hidden": 200},
        "data": SMALL_BLOBS,
    },
    # The same two blocks of 40-row clients, each step on a 16-row minibatch:
    # the hidden layer's residual scratch is minibatch-sized. Label flipping
    # trains all 10 clients, so both blocks run every round.
    "krum_silo_label_flip_mlp_minibatch": {
        "scenario": "cross_silo", "n_clients": 10, "n_malicious": 3,
        "clients_per_round": 10, "rounds": 5, "seed": 13,
        "attack": {"kind": "label_flip", "target": 0},
        "rule": {"kind": "krum", "f": 3, "m": 2},
        "model": {"kind": "mlp", "hidden": 200},
        "train": {"batch_size": 16},
        "data": SMALL_BLOBS,
    },
    "fed_avg_device_label_flip_shards": {
        "scenario": "cross_device", "n_clients": 20, "n_malicious": 4,
        "clients_per_round": 8, "rounds": 20, "seed": 8,
        "attack": {"kind": "label_flip", "target": 0},
        "rule": {"kind": "fed_avg"},
        "partition": {"scheme": "noniid_shards", "shards_per_client": 2, "shard_size": 10},
        "data": SMALL_BLOBS,
    },
    # The kept set can shrink to 30 // 2 + 1 = 16 slots, so Krum runs on a
    # roster whose size changes with the round's IPM draw.
    "stpa_device_ipm_krum": {
        "scenario": "cross_device", "n_clients": 90, "n_malicious": 30,
        "clients_per_round": 30, "rounds": 20, "seed": 10,
        "attack": {"kind": "ipm", "epsilon": 1.0},
        "rule": {"kind": "stpa"},
        "stpa": {"inner_rule": {"kind": "krum", "f": 4, "m": 3}},
        "data": SMALL_BLOBS,
    },
    # IPM rows are identical, so every coordinate sort meets ties.
    "trimmed_mean_silo_ipm": {
        "scenario": "cross_silo", "n_clients": 11, "n_malicious": 3,
        "clients_per_round": 11, "rounds": 20, "seed": 11,
        "attack": {"kind": "ipm", "epsilon": 0.5},
        "rule": {"kind": "trimmed_mean", "gamma": 0.3},
        "data": SMALL_BLOBS,
    },
    "stpa_device_none": {
        "scenario": "cross_device", "n_clients": 40, "n_malicious": 0,
        "clients_per_round": 15, "rounds": 20, "seed": 12,
        "attack": {"kind": "none"},
        "rule": {"kind": "stpa"},
        "data": SMALL_BLOBS,
    },
}

GOLDEN = {
    "fed_avg_device_label_flip_shards": {
        "rounds.jsonl": "401427dc49848505f82839f2942d3491c868fd14403c461256bacbf8c87767b1",
        "summary.csv": "4b06a98084561d41f07be775075ec3d7fe3b3dec4e5691082bac32c3b5988bc2",
    },
    "krum_silo_gauss_mlp": {
        "rounds.jsonl": "4573d6ed04863dbf470f834f3a527c756bc3cd70753157c8bc0a9d2b8867adf6",
        "summary.csv": "ba9a776a9439c808e76794799546d29e6df4e69ceef480bd16485b8c9b04463c",
    },
    "krum_silo_label_flip_mlp_minibatch": {
        "rounds.jsonl": "bcffc9fa789aef38b8a664edc4d5006fc8bbd58b2c57a351dc9af114f26e6dab",
        "summary.csv": "8cfabe8c39be62c9a8966a420328421786d31d68dc486126e583c64c8b2a3132",
    },
    "median_silo_noisy": {
        "rounds.jsonl": "95bea699ad25c93d81fbf9dbfa6007b1fe2ce6b508b5f91c38684ce527a7f99b",
        "summary.csv": "93acdfbf78d8673698d2ff1bc64ac263d3fb27d3de4f53d0ac7edd50f7f707f4",
    },
    "median_silo_noisy_mlp_blocks": {
        "rounds.jsonl": "c7470146d7f7deb4e94d4616577e601386b20f5fc3b2d7928d3215c52bf24f0e",
        "summary.csv": "a74ead8ca0ee1f008ea0448acdb9dd1bc15ea276b254a487c2f23e21b9e42200",
    },
    "stpa_device_ipm": {
        "rounds.jsonl": "121ade98de99f96db66d44f0b9e1776054ba481da15b2819cc4b4736e4bcea41",
        "summary.csv": "be8e604742320f31fbde896d81993c71cd9f61401aa9cbf27cf6f29d8b3c3e16",
    },
    "stpa_device_ipm_krum": {
        "rounds.jsonl": "d0ef19c0fcf29853f6b584493b4c263409ab0d9a7f5e49b0c83fd6ba2e56e63e",
        "summary.csv": "7e8fd0324f078a6348d9f773bc4a081d66cca511011a1595e8415f39f27cd53b",
    },
    "stpa_device_ipm_minibatch": {
        "rounds.jsonl": "464f5da077b39024ad6ebdcdbd2b1c6f8dab680bb03d5af01057b2c66767fff4",
        "summary.csv": "f244b3017a1cf02691a5f11a466911b8939484d114b2e4f497b9f5c0979a3888",
    },
    "stpa_device_label_flip_trimmed": {
        "rounds.jsonl": "5e8a72e218ea0181ddd1b561942234104d96570bd07a06457c364996828b67ce",
        "summary.csv": "29c6a0a2dc24d1ef88d524def112262230e63362f3f54dd7f53c6e1cac1d677a",
    },
    "stpa_device_none": {
        "rounds.jsonl": "d6af7bc17ee2b27f805546105ba3c1b85774700421aa999a3df858f5316a76d3",
        "summary.csv": "fa6ad389389560a25fb49c913827305535f2677d7b6b69005f96206a5d0c03e9",
    },
    "stpa_silo_alie": {
        "rounds.jsonl": "aebe85dde7ef6077a5b59c4ba7b14225e3633bac3a23dd0670a40ef67498ec89",
        "summary.csv": "1b0509160007629ea5b07488ce7ae61fbe15b80419ac7a2bb1d07d34442e3822",
    },
    "trimmed_mean_silo_ipm": {
        "rounds.jsonl": "2b8d49ebb825f4e8eb6a52e1bc6d01003e8a6f07b85bb97847279b1c804c3a8f",
        "summary.csv": "0900a28b3850199a7b95d704ea6f81c276ae69b0faa54db127fcb42cbece1e9b",
    },
}


# gen-data flags. Five classes in two dimensions repeat corners, which takes
# the outer-shell path; spread 0 puts every sample on its centroid.
GEN_DATA_ARGS = {
    "default": [],
    "outer_shell": ["--classes", "5", "--dim", "2"],
    "no_spread": ["--spread", "0"],
}

GEN_DATA_GOLDEN = {
    "default": "73e58974a34f91763321b57a5af5cfd2739b1cf6e6646da14d8bab6013784c2b",
    "no_spread": "bee8c6ba689f72c519da1a71200c9508f7df4c7a31e8ac1e1cd84b90d1a5d489",
    "outer_shell": "0b37ad957f61f23e326972eb442fd974b6fc89d32a27be02febe1835a9937e7f",
}


def run_hashes(cfg: dict, workdir: Path) -> dict:
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = workdir / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("rounds.jsonl", "summary.csv")
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_outputs(name, tmp_path):
    assert run_hashes(CONFIGS[name], tmp_path) == GOLDEN[name]


def gen_data_hash(args: list, workdir: Path) -> str:
    out = workdir / "data.csv"
    assert cli.main(["gen-data", *args, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GEN_DATA_ARGS))
def test_golden_gen_data(name, tmp_path):
    assert gen_data_hash(GEN_DATA_ARGS[name], tmp_path) == GEN_DATA_GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {run_hashes(CONFIGS[name], Path(tmp))!r},")
    for name in sorted(GEN_DATA_ARGS):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {gen_data_hash(GEN_DATA_ARGS[name], Path(tmp))!r},")
