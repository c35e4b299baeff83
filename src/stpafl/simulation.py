"""Round-by-round federated learning orchestration.

Clients [0, n_malicious) are malicious. Data-level attacks corrupt those
clients' datasets once at setup; model-level attacks fire every round.
Updates are always processed in ascending client-id order, and each training
block writes only its own clients' rows, so local training on two threads
(models.local_train) cannot change the aggregate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import attacks, data, models
from .aggregation import AggregationRule, apply_rule
from .attacks import AttackSpec
from .models import ModelConfig, TrainConfig
from .stpa import StepOutcome, StpaConfig, stpa_round


class ConfigError(ValueError):
    """A config that cannot run: bad values, or a plan its data cannot fill."""


def derive_seed(*parts) -> int:
    """Stable 32-bit seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class BlobsDataConfig:
    kind: str = "blobs"
    n_classes: int = 10
    dim: int = 20
    samples_per_class: int = 200
    test_samples_per_class: int = 50
    spread: float = 0.5

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.samples_per_class < 1 or self.test_samples_per_class < 1:
            raise ValueError("samples_per_class and test_samples_per_class must be >= 1")
        if not 0 <= self.spread < math.inf:
            raise ValueError("spread must be nonnegative")


@dataclass(frozen=True)
class IdxDataConfig:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    kind: str = "idx"


@dataclass(frozen=True)
class CsvDataConfig:
    train_path: str
    test_path: str
    kind: str = "csv"


@dataclass(frozen=True)
class PartitionConfig:
    scheme: str = "iid"  # iid | noniid_shards
    shards_per_client: int = 2
    shard_size: int = 300

    def __post_init__(self):
        if self.scheme not in ("iid", "noniid_shards"):
            raise ValueError(f"unknown partition scheme: {self.scheme}")
        if self.shards_per_client < 1 or self.shard_size < 1:
            raise ValueError("shards_per_client and shard_size must be >= 1")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str  # cross_silo | cross_device
    n_clients: int
    n_malicious: int
    clients_per_round: int
    rounds: int
    seed: int
    attack: AttackSpec = AttackSpec()
    rule: AggregationRule = AggregationRule("fed_avg")
    train: TrainConfig = TrainConfig()
    stpa: StpaConfig = StpaConfig()
    model: ModelConfig = ModelConfig()
    data: BlobsDataConfig | IdxDataConfig | CsvDataConfig = BlobsDataConfig()
    partition: PartitionConfig = PartitionConfig()

    def __post_init__(self):
        if self.scenario not in ("cross_silo", "cross_device"):
            raise ValueError(f"unknown scenario: {self.scenario}")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if not 0 <= self.n_malicious < self.n_clients:
            raise ValueError("n_malicious must be in [0, n_clients)")
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise ValueError("clients_per_round must be in [1, n_clients]")
        if self.scenario == "cross_silo" and self.clients_per_round != self.n_clients:
            raise ValueError("cross_silo requires clients_per_round == n_clients")
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # Krum scores each update by its n - f - 2 nearest peers (Blanchard et
        # al., 2017). Under stpa the inner rule sees only the kept cluster,
        # which can shrink to a bare majority of the roster.
        if self.rule.kind == "stpa":
            krum, n = self.stpa.inner_rule, self.clients_per_round // 2 + 1
        else:
            krum, n = self.rule, self.clients_per_round
        if krum.kind == "krum" and not 1 <= krum.m <= n - krum.f - 2:
            raise ValueError(
                f"krum needs 1 <= m <= n - f - 2, got m={krum.m}, n={n}, f={krum.f}"
            )


@dataclass
class RoundLog:
    round: int
    selected: list[int]
    malicious_selected: int
    benign_kept: int
    alpha: float | None
    eta: float | None
    discarded: bool
    test_error_pct: float


@dataclass
class ExperimentState:
    global_model: np.ndarray
    momentum: np.ndarray
    round_index: int
    select_rng: "np.random.Generator"  # quoted, so numpy.random loads at first use, not on import


def select_clients(cfg: ScenarioConfig, rng: "np.random.Generator") -> list[int]:  # see select_rng
    """Full roster in cross-silo; sorted uniform sample in cross-device."""
    if cfg.scenario == "cross_silo":
        return list(range(cfg.n_clients))
    chosen = rng.choice(cfg.n_clients, size=cfg.clients_per_round, replace=False)
    return np.sort(chosen).tolist()


def build_data(cfg: ScenarioConfig) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """Train/test datasets. Blobs share centroids by splitting one generation."""
    dc = cfg.data
    if dc.kind == "blobs":
        per_class = dc.samples_per_class + dc.test_samples_per_class
        full = data.generate_blobs(dc.n_classes, dc.dim, per_class, dc.spread, cfg.seed)
        train = np.arange(len(full)) % per_class < dc.samples_per_class
        return full.subset(np.flatnonzero(train)), full.subset(np.flatnonzero(~train))
    try:
        if dc.kind == "idx":
            return (
                data.load_idx(dc.train_images, dc.train_labels),
                data.load_idx(dc.test_images, dc.test_labels),
            )
        if dc.kind == "csv":
            return data.load_csv(dc.train_path), data.load_csv(dc.test_path)
    except OSError as exc:  # a path the config names cannot be read
        raise ConfigError(f"cannot read data: {exc}") from exc
    raise ValueError(f"unknown data kind: {dc.kind}")


def check_data(cfg: ScenarioConfig, train: data.LabeledDataset, test: data.LabeledDataset):
    """Raise ConfigError unless the loaded data fits the partition, attack and model.

    idx/csv sizes and classes are known only once loaded, so this is the one
    check of them for every data kind.
    """
    part, have = cfg.partition, len(train)
    needed, plan = cfg.n_clients, "iid"
    if part.scheme == "noniid_shards":
        needed, plan = needed * part.shards_per_client * part.shard_size, "shard"
    if needed > have:
        raise ConfigError(f"need {needed} samples for the {plan} plan, have {have}")
    if cfg.attack.kind == "label_flip" and cfg.attack.target >= train.n_classes:
        raise ConfigError(f"target {cfg.attack.target} out of range [0, {train.n_classes})")
    if len(test) == 0:
        raise ConfigError("test set is empty")
    if test.n_features != train.n_features:
        raise ConfigError(f"test set has {test.n_features} features, train set has {train.n_features}")
    if test.labels.max() >= train.n_classes:
        raise ConfigError(
            f"test label {test.labels.max()} out of range [0, {train.n_classes}) of the train set"
        )


def setup_client_datasets(cfg: ScenarioConfig, train: data.LabeledDataset) -> data.ClientPool:
    """Partition the training data, stack it, corrupt the malicious clients' rows."""
    if cfg.partition.scheme == "iid":
        assignments = data.partition_iid(train, cfg.n_clients, derive_seed(cfg.seed, 2))
    else:
        assignments = data.partition_noniid_shards(
            train,
            cfg.n_clients,
            cfg.partition.shards_per_client,
            cfg.partition.shard_size,
            derive_seed(cfg.seed, 2),
        )
    pool = data.ClientPool.from_partition(train, assignments)
    seed_of = lambda cid: derive_seed(cfg.seed, 3, cid)  # noqa: E731
    attacks.corrupt_pool(cfg.attack, pool, cfg.n_malicious, seed_of)
    return pool


def train_clients(model, w_t, pool: data.ClientPool, ids, cfg: ScenarioConfig, r: int, out):
    """Write the local models of the clients ids (ascending) into the rows of out.

    Each size group trains in one models.local_train call. A stack holds
    consecutive client ids (ClientPool), so its clients' rows of out are one
    slice, which local_train writes into.
    """
    ids = np.asarray(ids, dtype=np.int64)
    for stack in pool.stacks:
        lo, hi = np.searchsorted(ids, (stack.ids[0], stack.ids[-1] + 1))
        if lo == hi:
            continue
        group = stack.take(ids[lo:hi] - stack.ids[0])
        seeds = None
        if cfg.train.batch_size is not None:
            seeds = [derive_seed(cfg.seed, 4, r, int(cid)) for cid in group.ids]
        models.local_train(model, w_t, group, cfg.train, seeds, out=out[lo:hi])


def run_round(
    state: ExperimentState,
    cfg: ScenarioConfig,
    model,
    pool: data.ClientPool,
    test_set: data.LabeledDataset,
) -> RoundLog:
    """Play round state.round_index, advance state in place and log the round."""
    w_t = state.global_model
    r = state.round_index
    selected = select_clients(cfg, state.select_rng)
    # selected is ascending, so the malicious clients lead it
    mal_ids = [cid for cid in selected if cid < cfg.n_malicious]
    skip = len(mal_ids) if cfg.attack.kind in attacks.MODEL_ATTACKS else 0
    rows = np.empty((len(selected), model.dim))
    train_clients(model, w_t, pool, selected[skip:], cfg, r, out=rows[skip:])
    submitted = attacks.submissions(
        cfg.attack, w_t, rows, mal_ids, lambda cid: derive_seed(cfg.seed, 5, r, cid)
    )
    # One finiteness check per round, before any rule sees the rows.
    if not np.isfinite(submitted).all():
        raise ValueError("vector contains NaN or infinity")
    counts = pool.counts[selected]
    if cfg.rule.kind == "stpa":
        outcome, state.momentum = stpa_round(w_t, submitted, counts, state.momentum, cfg.stpa)
    else:
        outcome = StepOutcome(apply_rule(cfg.rule, submitted, counts), None, None, False, len(counts))

    state.global_model = outcome.new_model
    state.round_index = r + 1
    return RoundLog(
        round=r,
        selected=selected,
        malicious_selected=len(mal_ids),
        benign_kept=outcome.benign_count,
        alpha=outcome.alpha,
        eta=outcome.eta,
        discarded=outcome.discarded,
        test_error_pct=models.evaluate_error(model, outcome.new_model, test_set),
    )


def iter_experiment(cfg: ScenarioConfig):
    """Yield one RoundLog per round; see run_experiment for the list form."""
    train, test = build_data(cfg)
    check_data(cfg, train, test)
    pool = setup_client_datasets(cfg, train)
    model = models.make_model(cfg.model, train.n_features, train.n_classes)
    del train  # the pool holds its own copy, and no round reads the training set
    init_rng = np.random.default_rng(derive_seed(cfg.seed, 0))
    state = ExperimentState(
        global_model=model.init_params(init_rng),
        momentum=np.zeros(model.dim),
        round_index=0,
        select_rng=np.random.default_rng(derive_seed(cfg.seed, 1)),
    )
    for _ in range(cfg.rounds):
        yield run_round(state, cfg, model, pool, test)


def run_experiment(cfg: ScenarioConfig) -> list[RoundLog]:
    """Every round's log; ConfigError before round 0 if the data cannot fill cfg's plan."""
    return list(iter_experiment(cfg))
