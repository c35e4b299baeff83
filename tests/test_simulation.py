import gc
import re
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from stpafl import attacks, simulation
from stpafl.aggregation import AggregationRule
from stpafl.attacks import AttackSpec
from stpafl.simulation import (
    BlobsDataConfig,
    ConfigError,
    PartitionConfig,
    ScenarioConfig,
    derive_seed,
    run_experiment,
    select_clients,
)

SMALL_DATA = BlobsDataConfig(n_classes=4, dim=8, samples_per_class=40, test_samples_per_class=20)


def small_cfg(**kw):
    base = dict(
        scenario="cross_silo",
        n_clients=6,
        n_malicious=2,
        clients_per_round=6,
        rounds=5,
        seed=11,
        data=SMALL_DATA,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(scenario="edge")
    with pytest.raises(ValueError):
        small_cfg(n_malicious=6)
    with pytest.raises(ValueError):
        small_cfg(clients_per_round=3)  # cross_silo requires full roster
    with pytest.raises(ValueError):
        small_cfg(rounds=-1)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


def test_select_clients_cross_silo_full_roster():
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    for r in range(3):
        assert select_clients(cfg, rng) == list(range(6))


def test_select_clients_cross_device():
    cfg = ScenarioConfig(
        scenario="cross_device",
        n_clients=100,
        n_malicious=34,
        clients_per_round=20,
        rounds=1,
        seed=0,
        data=SMALL_DATA,
    )
    rng = np.random.default_rng(1)
    sel = select_clients(cfg, rng)
    assert len(sel) == len(set(sel)) == 20
    assert sel == sorted(sel)
    assert all(0 <= c < 100 for c in sel)
    # exhaustive sample when clients_per_round == n_clients
    cfg_all = ScenarioConfig(
        scenario="cross_device",
        n_clients=10,
        n_malicious=3,
        clients_per_round=10,
        rounds=1,
        seed=0,
        data=SMALL_DATA,
    )
    assert select_clients(cfg_all, np.random.default_rng(2)) == list(range(10))


def test_selection_hypergeometric_mean():
    cfg = ScenarioConfig(
        scenario="cross_device",
        n_clients=100,
        n_malicious=34,
        clients_per_round=20,
        rounds=1,
        seed=0,
        data=SMALL_DATA,
    )
    rng = np.random.default_rng(derive_seed(0, 1))
    counts = [
        sum(1 for c in select_clients(cfg, rng) if c < 34) for _ in range(1000)
    ]
    assert abs(np.mean(counts) - 6.8) < 0.2


def test_rounds_zero_gives_empty_log():
    assert run_experiment(small_cfg(rounds=0)) == []


def test_rounds_hold_no_reference_to_the_training_set(monkeypatch):
    # The pool stacks its own copy of the training rows at setup, so once
    # round 0 has run nothing may keep the loaded training set alive.
    build = simulation.build_data
    refs = []

    def build_data(cfg):
        train, test = build(cfg)
        refs.append(weakref.ref(train))
        return train, test

    monkeypatch.setattr(simulation, "build_data", build_data)
    rounds = simulation.iter_experiment(small_cfg())
    next(rounds)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_experiment_deterministic():
    cfg = small_cfg(attack=AttackSpec("byzantine_gaussian"), rule=AggregationRule("coordinate_median"))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert [asdict(l) for l in a] == [asdict(l) for l in b]


def test_single_client_fed_avg_identity():
    # one honest client: the aggregate is exactly its local training output
    from stpafl import models as M

    cfg = ScenarioConfig(
        scenario="cross_silo",
        n_clients=1,
        n_malicious=0,
        clients_per_round=1,
        rounds=1,
        seed=3,
        data=SMALL_DATA,
    )
    train, test = simulation.build_data(cfg)
    pool = simulation.setup_client_datasets(cfg, train)
    model = M.make_model(cfg.model, train.n_features, train.n_classes)
    w0 = model.init_params(np.random.default_rng(derive_seed(3, 0)))
    (expected,) = M.local_train(model, w0, pool.stacks[0], cfg.train)
    state = simulation.ExperimentState(
        global_model=w0,
        momentum=np.zeros(model.dim),
        round_index=0,
        select_rng=np.random.default_rng(derive_seed(3, 1)),
    )
    simulation.run_round(state, cfg, model, pool, test)
    assert np.array_equal(state.global_model, expected)


def test_label_flip_applied_at_setup():
    cfg = small_cfg(attack=AttackSpec("label_flip", target=0))
    train, _ = simulation.build_data(cfg)
    pool = simulation.setup_client_datasets(cfg, train)
    labels = {int(cid): row for stack in pool.stacks for cid, row in zip(stack.ids, stack.labels)}
    for cid in range(cfg.n_malicious):
        assert np.all(labels[cid] == 0)
    for cid in range(cfg.n_malicious, cfg.n_clients):
        assert len(set(labels[cid])) > 1


def test_noniid_shards_partition_used():
    cfg = small_cfg(
        partition=PartitionConfig(scheme="noniid_shards", shards_per_client=1, shard_size=20)
    )
    train, _ = simulation.build_data(cfg)
    pool = simulation.setup_client_datasets(cfg, train)
    assert all(n == 20 for n in pool.counts)
    assert all(len(set(row)) <= 1 for stack in pool.stacks for row in stack.labels)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_clients": 200, "clients_per_round": 200}, "need 200 samples for the iid plan, have 160"),
        (
            {"partition": PartitionConfig(scheme="noniid_shards", shards_per_client=2, shard_size=20)},
            "need 240 samples for the shard plan, have 160",
        ),
        ({"attack": AttackSpec("label_flip", target=4)}, "target 4 out of range [0, 4)"),
    ],
)
def test_plan_checked_against_loaded_blobs(overrides, message):
    # The config builds; the plan is checked once the data loads, before round 0.
    cfg = small_cfg(**overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_experiment(cfg)


def test_benign_kept_fields():
    logs = run_experiment(small_cfg(rule=AggregationRule("stpa")))
    for log in logs:
        assert log.benign_kept <= len(log.selected)
        assert 0.0 <= log.test_error_pct <= 100.0
    logs = run_experiment(small_cfg())
    for log in logs:
        assert log.benign_kept == len(log.selected)
        assert log.alpha is None and log.eta is None


def test_stpa_and_median_converge_together_without_attack():
    # no attack: STPA should track the plain coordinate-median baseline
    common = dict(
        n_malicious=0,
        rounds=50,
        seed=7,
        data=BlobsDataConfig(n_classes=4, dim=10, samples_per_class=60, test_samples_per_class=30),
    )
    med = run_experiment(small_cfg(rule=AggregationRule("coordinate_median"), **common))
    stp = run_experiment(small_cfg(rule=AggregationRule("stpa"), **common))
    med_final = np.mean([l.test_error_pct for l in med[-10:]])
    stp_final = np.mean([l.test_error_pct for l in stp[-10:]])
    assert med[0].test_error_pct > med[-1].test_error_pct or med_final < 5.0
    assert abs(stp_final - med_final) <= 3.0


def test_omniscient_attacks_run_with_one_honest_client():
    # one honest row per round: ALIE's sigma is 0, so the malicious client
    # submits (up to rounding) the honest model; IPM reverses its step
    for kind in ("alie", "ipm"):
        cfg = ScenarioConfig(
            scenario="cross_silo",
            n_clients=2,
            n_malicious=1,
            clients_per_round=2,
            rounds=3,
            seed=1,
            attack=AttackSpec(kind, epsilon=1.5),
            data=SMALL_DATA,
        )
        logs = run_experiment(cfg)
        assert len(logs) == 3
        assert all(0.0 <= log.test_error_pct <= 100.0 for log in logs)


@pytest.mark.parametrize("rule", ["stpa", "coordinate_median"])
def test_round_with_a_nan_row_raises(monkeypatch, rule):
    # run_round checks the round's stacked submissions once, before any rule.
    submissions = attacks.submissions

    def with_nan_row(*args):
        rows = submissions(*args)
        rows[3, 0] = np.nan
        return rows

    monkeypatch.setattr(attacks, "submissions", with_nan_row)
    with pytest.raises(ValueError, match="vector contains NaN or infinity"):
        run_experiment(small_cfg(rule=AggregationRule(rule)))
