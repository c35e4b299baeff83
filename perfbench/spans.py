"""In-memory span tracing of stpafl layers, and per-layer figures from spans.

The tracer replaces public functions at the module attributes their callers
look up, so an ordinary `stpafl run` records one span per call without any
change to the program. Spans are kept in flat typed arrays and written out
once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from functools import wraps

import numpy as np

# (module, attribute the caller looks up, layer name). A layer may be wrapped
# at several import sites.
WRAPS = (
    ("stpafl.cli", "cmd_run", "cli.run"),
    ("stpafl.cli", "iter_experiment", "simulation.iter_experiment"),
    ("stpafl.simulation", "build_data", "data.build_data"),
    ("stpafl.simulation", "setup_client_datasets", "data.setup_client_datasets"),
    ("stpafl.simulation", "run_round", "simulation.run_round"),
    ("stpafl.models", "local_train", "models.local_train"),
    ("stpafl.models", "evaluate_error", "models.evaluate_error"),
    ("stpafl.attacks", "alie_updates", "attacks.alie_updates"),
    ("stpafl.attacks", "ipm_updates", "attacks.ipm_updates"),
    ("stpafl.attacks", "gaussian_byzantine_update", "attacks.gaussian_byzantine_update"),
    ("stpafl.simulation", "stpa_round", "stpa.stpa_round"),
    ("stpafl.stpa", "build_affinity", "stpa.build_affinity"),
    ("stpafl.stpa", "partition_round", "stpa.partition_round"),
    ("stpafl.stpa", "bipartition", "stpa.bipartition"),
    ("stpafl.stpa", "cosine_similarity", "vectors.cosine_similarity"),
    ("stpafl.simulation", "apply_rule", "aggregation.apply_rule"),
    ("stpafl.stpa", "apply_rule", "aggregation.apply_rule"),
    ("stpafl.aggregation", "krum_scores", "aggregation.krum_scores"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPS))


def _stpa_round_counts(args, result):
    outcome, _ = result
    return {
        "stpa.rounds": 1,
        "stpa.accepted": int(not outcome.discarded),
        "stpa.kept": outcome.benign_count,
        "stpa.selected": len(args[1]),
    }


def _partition_counts(args, result):
    return {"stpa.splits": int(len(result.benign) < len(result.c1) + len(result.c2))}


def _affinity_counts(args, result):
    n = len(args[1])
    return {"stpa.build_affinity.pairs": n * (n - 1) // 2}


def _krum_counts(args, result):
    # Computed from shapes: the n x n x d float64 difference tensor.
    updates = args[0]
    return {"aggregation.krum_scores.bytes": 8 * len(updates) ** 2 * updates[0].dim}


def _train_counts(args, result):
    dataset, cfg = args[2], args[3]
    batch = len(dataset) if cfg.batch_size is None else min(cfg.batch_size, len(dataset))
    return {"models.local_train.samples": batch * cfg.local_steps}


# Counts taken at the same boundaries as the spans, from arguments and results.
COUNTERS = {
    "stpa.stpa_round": _stpa_round_counts,
    "stpa.partition_round": _partition_counts,
    "stpa.build_affinity": _affinity_counts,
    "aggregation.krum_scores": _krum_counts,
    "models.local_train": _train_counts,
}


class Tracer:
    """Records (layer, start, end, parent span, round) for each wrapped call."""

    def __init__(self):
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.rounds = array("q")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._round = -1
        self._undo = []

    def _open(self, layer_id: int) -> int:
        idx = len(self.starts)
        self.names.append(layer_id)
        self.parents.append(self._stack[-1])
        self.rounds.append(self._round)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _count(self, counter, args, result) -> None:
        for key, value in counter(args, result).items():
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, layer: str):
        layer_id = LAYERS.index(layer)
        counter = COUNTERS.get(layer)
        is_round = layer == "simulation.run_round"

        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the time the caller spends between
            # items is not charged to the generator.
            @wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(layer_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return traced_gen

        @wraps(fn)
        def traced(*args, **kwargs):
            if is_round:
                self._round = args[0].round_index
            idx = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self._count(counter, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, layer in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def save(self, path) -> None:
        np.savez(
            path,
            layers=np.array(LAYERS),
            names=np.frombuffer(self.names, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.int64),
            ends=np.frombuffer(self.ends, dtype=np.int64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            rounds=np.frombuffer(self.rounds, dtype=np.int64),
        )


def load(path) -> dict:
    with np.load(path) as npz:
        return {key: npz[key] for key in npz.files}


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a span's children are disjoint and lie
    inside it; their summed duration is the part of it they cover.
    """
    durations = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=len(durations)
    )
    return durations - covered


def layer_figures(layers, names, starts, ends, parents) -> dict:
    """Per layer: calls, busy_ms, self_ms and share of the traced wall time.

    Times are in the spans' unit (nanoseconds) and reported in ms. The traced
    wall time is the summed duration of root spans, so the shares add to 1.
    """
    names = np.asarray(names, dtype=np.int64)
    durations = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    selfs = self_times(starts, ends, parents)
    wall = durations[np.asarray(parents) < 0].sum()
    n = len(layers)
    calls = np.bincount(names, minlength=n)
    busy = np.bincount(names, weights=durations, minlength=n)
    own = np.bincount(names, weights=selfs, minlength=n)
    out = {}
    for i, layer in enumerate(layers):
        out[f"{layer}.calls"] = int(calls[i])
        out[f"{layer}.busy_ms"] = float(busy[i]) / 1e6
        out[f"{layer}.self_ms"] = float(own[i]) / 1e6
        out[f"{layer}.share"] = float(own[i] / wall) if wall > 0 else 0.0
    return out
