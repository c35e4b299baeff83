"""The benchmark's own arithmetic and checks, on synthetic inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import stats

ROOT = Path(__file__).resolve().parent.parent

# A nested tree in one thread:
#   0 root [0, 100]
#   1   a  [10, 40]
#   2     c  [15, 25]
#   3   b  [50, 90]
#   4     c  [55, 60]
#   5     c  [70, 80]
#   6 root [200, 210]
TREE_LAYERS = ["root", "a", "b", "c"]
TREE = {
    "names": [0, 1, 3, 2, 3, 3, 0],
    "starts": [0, 10, 15, 50, 55, 70, 200],
    "ends": [100, 40, 25, 90, 60, 80, 210],
    "parents": [-1, 0, 1, 0, 3, 3, -1],
}


def test_self_time_subtracts_direct_children_only():
    selfs = spans.self_times(TREE["starts"], TREE["ends"], TREE["parents"])
    assert selfs.tolist() == [30.0, 20.0, 10.0, 25.0, 5.0, 10.0, 10.0]


def test_layer_figures_from_span_tree():
    ns = {k: [v * 1_000_000 for v in vals] for k, vals in TREE.items() if k != "names"}
    fig = spans.layer_figures(TREE_LAYERS, TREE["names"], ns["starts"], ns["ends"], TREE["parents"])
    assert fig["root.calls"] == 2 and fig["c.calls"] == 3
    assert fig["root.busy_ms"] == 110.0 and fig["root.self_ms"] == 40.0
    assert fig["b.busy_ms"] == 40.0 and fig["b.self_ms"] == 25.0
    assert fig["c.self_ms"] == 25.0
    assert fig["a.share"] == pytest.approx(20.0 / 110.0)
    assert sum(fig[f"{layer}.share"] for layer in TREE_LAYERS) == pytest.approx(1.0)


def test_percentile_is_nearest_rank_with_its_tail_count():
    samples = list(range(100, 0, -1))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 100) == 100
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(1599, 90) == 159
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_round_intervals_exclude_round_zero():
    assert stats.round_intervals([5.0, 5.5, 7.0]) == [0.5, 1.5]
    assert stats.round_intervals([5.0]) == []


def test_failed_run_share():
    assert stats.failed_run_share(0, 15) == 0.0
    assert stats.failed_run_share(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failed_run_share(0, 0)
    with pytest.raises(ValueError):
        stats.failed_run_share(5, 4)


def _write_outputs(out: Path, errors, alpha=0.5):
    out.mkdir()
    with open(out / "rounds.jsonl", "w") as jf, open(out / "summary.csv", "w") as cf:
        cf.write(",".join(["round", "test_error_pct", "alpha", "eta"]) + "\n")
        for k, err in enumerate(errors):
            rec = {"round": k, "test_error_pct": err, "alpha": alpha, "eta": None}
            jf.write(json.dumps(rec) + "\n")
            cf.write(f"{k},{err!r},{alpha!r},\n")


def test_check_outputs_flags_each_problem(tmp_path):
    _write_outputs(tmp_path / "ok", [50.0] * 5 + [2.0] * 10)
    assert run.check_outputs(tmp_path / "ok", 15, (0.0, 4.0)) == ([], 2.0)

    _write_outputs(tmp_path / "short", [2.0] * 14)
    assert run.check_outputs(tmp_path / "short", 15, (0.0, 4.0))[0]

    _write_outputs(tmp_path / "nan", [2.0] * 15, alpha=float("nan"))
    problems, _ = run.check_outputs(tmp_path / "nan", 15, (0.0, 4.0))
    assert len(problems) == 2  # the JSONL record and the CSV row

    _write_outputs(tmp_path / "band", [9.0] * 15)
    problems, final = run.check_outputs(tmp_path / "band", 15, (0.0, 4.0))
    assert final == 9.0 and "outside" in problems[0]


def test_tracer_records_nested_spans_of_a_real_run(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from stpafl import cli

    config = json.loads((run.HERE / "workloads" / "silo20_alie_stpa.json").read_text())
    config.update(rounds=3, n_clients=4, n_malicious=1, clients_per_round=4)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")])
    finally:
        tracer.uninstall()
    assert code == 0
    tracer.save(tmp_path / "spans.npz")
    data = spans.load(tmp_path / "spans.npz")
    layers = list(data["layers"])
    fig = spans.layer_figures(layers, data["names"], data["starts"], data["ends"], data["parents"])
    assert fig["cli.run.calls"] == 1
    assert fig["simulation.iter_experiment.calls"] == 4  # three rounds and the final resume
    assert fig["simulation.run_round.calls"] == 3
    assert fig["vectors.cosine_similarity.calls"] == 3 * (6 + 1)  # affinity pairs and alpha
    assert fig["aggregation.krum_scores.calls"] == 0
    assert tracer.counts["stpa.build_affinity.pairs"] == 18
    assert tracer.counts["stpa.rounds"] == 3
    name = np.array(layers)[data["names"]]
    parent_name = np.where(data["parents"] >= 0, name[data["parents"]], "")
    assert set(parent_name[name == "simulation.run_round"]) == {"simulation.iter_experiment"}
    assert set(parent_name[name == "stpa.bipartition"]) == {"stpa.partition_round"}
    assert set(data["rounds"][name == "stpa.build_affinity"]) == {0, 1, 2}
    assert cli.cmd_run.__module__ == "stpafl.cli" and not hasattr(cli.cmd_run, "__wrapped__")


def test_coverage_sets_name_traced_layers():
    for spec in run.WORKLOADS.values():
        assert spec["layers"] <= set(spans.LAYERS)
