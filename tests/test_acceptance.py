"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and enforces its runtime budget. The experiment-backed criteria use fixed
seeds, so results are bit-reproducible across runs on the same platform.
"""

import itertools
import time

import numpy as np
import pytest

from stpafl import aggregation, models, stpa
from stpafl.aggregation import AggregationRule
from stpafl.attacks import AttackSpec
from stpafl.cli import main as cli_main
from stpafl.data import LabeledDataset
from stpafl.models import ModelConfig
from stpafl.simulation import (
    BlobsDataConfig,
    ScenarioConfig,
    derive_seed,
    run_experiment,
    select_clients,
)
from stpafl.stpa import StpaConfig

SEED = 42


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}", flush=True)


def final10(logs):
    return float(np.mean([l.test_error_pct for l in logs[-10:]]))


def mk_updates(X):
    """The (n, d) submissions X and a sample count of 1 each."""
    return X, np.ones(len(X), dtype=np.int64)


# ------------------------------------------------------------ shared runs

CROSS_SILO_DATA = BlobsDataConfig()  # 10 classes, dim 20, 200 samples/class


def silo_cfg(**kw):
    base = dict(
        scenario="cross_silo",
        n_clients=20,
        n_malicious=7,
        clients_per_round=20,
        rounds=100,
        seed=SEED,
        data=CROSS_SILO_DATA,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def device_cfg(**kw):
    base = dict(
        scenario="cross_device",
        n_clients=100,
        n_malicious=34,
        clients_per_round=20,
        rounds=100,
        seed=SEED,
        data=CROSS_SILO_DATA,
    )
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.fixture(scope="session")
def silo_runs():
    t0 = time.monotonic()
    runs = {
        "baseline": run_experiment(silo_cfg(n_malicious=0)),
        "stpa_label_flip": run_experiment(
            silo_cfg(attack=AttackSpec("label_flip"), rule=AggregationRule("stpa"))
        ),
        "fedavg_gaussian": run_experiment(silo_cfg(attack=AttackSpec("byzantine_gaussian"))),
        "stpa_gaussian": run_experiment(
            silo_cfg(attack=AttackSpec("byzantine_gaussian"), rule=AggregationRule("stpa"))
        ),
    }
    runs["elapsed"] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="session")
def device_runs():
    t0 = time.monotonic()
    runs = {
        "baseline": run_experiment(device_cfg(n_malicious=0)),
        "stpa_label_flip": run_experiment(
            device_cfg(attack=AttackSpec("label_flip"), rule=AggregationRule("stpa"))
        ),
        "fedavg_label_flip": run_experiment(device_cfg(attack=AttackSpec("label_flip"))),
    }
    runs["elapsed"] = time.monotonic() - t0
    return runs


# criterion 7 needs a hard task: tiny heterogeneous clients (10 samples each)
# and heavily overlapping classes keep the honest-gradient scatter high at the
# optimum, which is exactly the regime a coordinated within-variance attack
# exploits against nearest-neighbor selection.
TIME_COUPLED_DATA = BlobsDataConfig(samples_per_class=20, test_samples_per_class=100, spread=7.0)
TIME_COUPLED_STPA = StpaConfig(eta0=1.6, inner_rule=AggregationRule("fed_avg"))


@pytest.fixture(scope="session")
def time_coupled_runs():
    t0 = time.monotonic()

    def cfg(**kw):
        return silo_cfg(rounds=1600, data=TIME_COUPLED_DATA, **kw)

    runs = {
        "baseline": run_experiment(cfg(n_malicious=0)),
        "krum_alie": run_experiment(
            cfg(attack=AttackSpec("alie", epsilon=1.5), rule=AggregationRule("krum", f=7, m=1))
        ),
        "stpa_alie": run_experiment(
            cfg(
                attack=AttackSpec("alie", epsilon=1.5),
                rule=AggregationRule("stpa"),
                stpa=TIME_COUPLED_STPA,
            )
        ),
        "stpa_ipm": run_experiment(
            cfg(
                attack=AttackSpec("ipm", epsilon=1.0),
                rule=AggregationRule("stpa"),
                stpa=TIME_COUPLED_STPA,
            )
        ),
    }
    runs["elapsed"] = time.monotonic() - t0
    return runs


# ------------------------------------------------------------ criterion 1

def test_criterion_1_aggregator_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 26))
        d = int(rng.integers(1, 51))
        X = rng.standard_normal((n, d))
        u, _ = mk_updates(X)

        med = aggregation.coordinate_median(u)
        med_oracle = np.empty(d)
        for j in range(d):
            col = sorted(X[:, j])
            med_oracle[j] = col[n // 2] if n % 2 else (col[n // 2 - 1] + col[n // 2]) / 2.0
        if n % 2:
            ok &= np.array_equal(med, med_oracle)
        else:
            ok &= np.all(np.abs(med - med_oracle) <= np.spacing(np.abs(med_oracle)))

        gamma = float(rng.uniform(0.05, 0.45))
        k = int(np.floor(gamma * n))
        if n - 2 * k >= 1:
            tm = aggregation.trimmed_mean(u, gamma)
            tm_oracle = np.empty(d)
            for j in range(d):
                kept = sorted(X[:, j])[k : n - k]
                tm_oracle[j] = sum(kept) / len(kept)
            ok &= np.all(np.abs(tm - tm_oracle) <= np.spacing(np.abs(tm_oracle)))

        f = int(rng.integers(0, max(1, n - 3)))
        m_max = n - f - 2
        if m_max >= 1:
            m = int(rng.integers(1, m_max + 1))
            scores = [
                sum(sorted(np.linalg.norm(X[i] - X[j]) for j in range(n) if j != i)[: n - f - 2])
                for i in range(n)
            ]
            want = sorted(range(n), key=lambda i: (scores[i], i))[:m]
            ok &= aggregation.krum_selection(u, f, m) == want

    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report("criterion 1 aggregator oracle equivalence", ok, f"{elapsed:.1f}s")
    assert ok


# ------------------------------------------------------------ criterion 2

def cross_entropy(model, params, ds):
    """Mean softmax cross-entropy of the model's logits on ds."""
    z = model.logits(params, ds.features)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(ds)), ds.labels].mean())


def test_criterion_2_gradient_finite_differences():
    t0 = time.monotonic()
    h = 1e-5
    rng = np.random.default_rng(SEED)
    ok = True
    linear, mlp = ModelConfig("linear"), ModelConfig("mlp", hidden=6)
    for model in (models.make_model(linear, 5, 4), models.make_model(mlp, 5, 4)):
        for _ in range(20):
            X = rng.standard_normal((8, 5))
            y = rng.integers(0, 4, size=8)
            ds = LabeledDataset(X, y, 4)
            p = rng.standard_normal(model.dim) * 0.5
            g = model.gradient(p, X, y)
            fd = np.empty_like(p)
            for i in range(len(p)):
                up, dn = p.copy(), p.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (cross_entropy(model, up, ds) - cross_entropy(model, dn, ds)) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30)
            ok &= rel < 1e-5
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report("criterion 2 analytic vs finite-difference gradients", ok, f"{elapsed:.1f}s")
    assert ok


# ------------------------------------------------------------ criterion 3

def test_criterion_3_planted_bipartition_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    recovered = 0
    for _ in range(100):
        labels = rng.permutation(np.array([0] * 13 + [1] * 7))
        within = rng.uniform(0.8, 0.95)
        cross = rng.uniform(-0.6, -0.3)
        S = np.where(labels[:, None] == labels[None, :], within, cross)
        np.fill_diagonal(S, 1.0)
        part = stpa.partition_round(S, 0.02)
        if set(part.benign) == set(np.flatnonzero(labels == 0)):
            recovered += 1
    elapsed = time.monotonic() - t0
    ok = recovered == 100 and elapsed < 5.0
    report("criterion 3 planted bipartition recovery", ok, f"{recovered}/100, {elapsed:.1f}s")
    assert ok


# ------------------------------------------------------------ criterion 4

def test_criterion_4_momentum_closed_form():
    g = np.array([3.0, -1.0, 0.25, 7.0])
    ok = True
    state = np.zeros(4)
    for T in range(1, 11):
        state = stpa.momentum_step(state, g, 0.5)
        ok &= np.all(np.abs(state - (1.0 - 0.5**T) * g) < 1e-12)
    report("criterion 4 momentum geometric closed form", ok)
    assert ok


# ------------------------------------------------------------ criterion 5

def test_criterion_5_cross_silo_robustness(silo_runs):
    base = final10(silo_runs["baseline"])
    stpa_flip = final10(silo_runs["stpa_label_flip"])
    fedavg_gauss = final10(silo_runs["fedavg_gaussian"])
    stpa_gauss = final10(silo_runs["stpa_gaussian"])
    a = stpa_flip <= base + 3.0
    b = fedavg_gauss >= base + 10.0
    c = abs(stpa_gauss - base) <= 3.0
    timed = silo_runs["elapsed"] < 300.0
    ok = a and b and c and timed
    report(
        "criterion 5 cross-silo robustness",
        ok,
        f"base={base:.2f} stpa/flip={stpa_flip:.2f} fedavg/gauss={fedavg_gauss:.2f} "
        f"stpa/gauss={stpa_gauss:.2f} {silo_runs['elapsed']:.0f}s",
    )
    assert ok


# ------------------------------------------------------------ criterion 6

def test_criterion_6_cross_device_robustness(device_runs):
    base = final10(device_runs["baseline"])
    stpa_flip = final10(device_runs["stpa_label_flip"])
    stpa_std = float(np.std([l.test_error_pct for l in device_runs["stpa_label_flip"][-30:]]))
    fedavg_std = float(np.std([l.test_error_pct for l in device_runs["fedavg_label_flip"][-30:]]))
    a = abs(stpa_flip - base) <= 4.0
    b = stpa_std < fedavg_std
    timed = device_runs["elapsed"] < 600.0
    ok = a and b and timed
    report(
        "criterion 6 cross-device robustness",
        ok,
        f"base={base:.2f} stpa/flip={stpa_flip:.2f} std {stpa_std:.3f} vs {fedavg_std:.3f} "
        f"{device_runs['elapsed']:.0f}s",
    )
    assert ok


# ------------------------------------------------------------ criterion 7

def test_criterion_7_time_coupled_attacks(time_coupled_runs):
    base = final10(time_coupled_runs["baseline"])
    krum_alie = final10(time_coupled_runs["krum_alie"])
    stpa_alie = final10(time_coupled_runs["stpa_alie"])
    stpa_ipm = final10(time_coupled_runs["stpa_ipm"])
    a = abs(stpa_ipm - base) <= 4.0
    b = abs(stpa_alie - base) <= 4.0
    c = krum_alie >= base + 10.0
    timed = time_coupled_runs["elapsed"] < 600.0
    ok = a and b and c and timed
    report(
        "criterion 7 time-coupled attacks",
        ok,
        f"base={base:.2f} stpa/ipm={stpa_ipm:.2f} stpa/alie={stpa_alie:.2f} "
        f"krum/alie={krum_alie:.2f} {time_coupled_runs['elapsed']:.0f}s",
    )
    assert ok


# ------------------------------------------------------------ criterion 8

def test_criterion_8_byte_identical_reruns(tmp_path):
    import json

    cfg = {
        "scenario": "cross_silo",
        "n_clients": 6,
        "n_malicious": 2,
        "clients_per_round": 6,
        "rounds": 5,
        "seed": SEED,
        "rule": {"kind": "stpa"},
        "attack": {"kind": "byzantine_gaussian"},
        "data": {
            "kind": "blobs",
            "n_classes": 4,
            "dim": 8,
            "samples_per_class": 30,
            "test_samples_per_class": 15,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    same_jsonl = (outs[0] / "rounds.jsonl").read_bytes() == (outs[1] / "rounds.jsonl").read_bytes()
    same_csv = (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    ok = same_jsonl and same_csv
    report("criterion 8 byte-identical reruns", ok)
    assert ok


# ------------------------------------------------------------ criterion 9

def test_criterion_9_selection_statistics():
    cfg = device_cfg(rounds=1)
    rng = np.random.default_rng(derive_seed(SEED, 1))
    counts = [sum(1 for c in select_clients(cfg, rng) if c < 34) for _ in range(1000)]
    mean = float(np.mean(counts))
    ok = 6.6 <= mean <= 7.0
    report("criterion 9 hypergeometric selection mean", ok, f"mean={mean:.3f}")
    assert ok
