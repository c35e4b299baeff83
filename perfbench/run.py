"""Benchmark of `stpafl run` on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; stpafl is imported from its `src/`. Each
experiment is one ordinary `stpafl run` of `perfbench/workloads/NAME.json`
with `--seed N`, in a fresh Python process (perfbench/worker.py), one process
at a time, with BLAS limited to one thread.

--trace 0 first times `SETUP_SAMPLES` runs of the same config with
"rounds": 0, each in its own process, then runs whole experiments until the
next one would end after S seconds (at least one). It prints the end-to-end
metrics. --trace 1 alternates untraced and traced experiments the same way
and prints the per-layer metrics derived from the traced ones' spans. Every
metric is printed; the JSON result carries those that BENCHMARK.json lists
for the mode, and the others are marked "(unbounded)".

Every run's outputs are checked: exit code, round count, finite values, the
workload's final-error band, the SHA-256 of rounds.jsonl and summary.csv
against references.json (seeds without a reference only need identical
outputs across the experiments of one invocation), and, for traced runs, the
set of layers that recorded calls against the workload's expected set.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every check passed, 1 when one
failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150

COMMON_LAYERS = {
    "cli.run",
    "simulation.iter_experiment",
    "data.build_data",
    "data.setup_client_datasets",
    "simulation.run_round",
    "models.local_train",
    "models.evaluate_error",
    "aggregation.apply_rule",
}
STPA_LAYERS = {
    "stpa.stpa_round",
    "stpa.build_affinity",
    "stpa.partition_round",
    "stpa.bipartition",
    "vectors.cosine_similarity",
}

# Final-error band (percent, mean of the last 10 rounds) and the layers that
# must record calls; every other traced layer must record none. The bands
# follow the paper's claims: stpa under ALIE or IPM stays near the clean
# error, and Krum under Gaussian replacement stays near 0%.
WORKLOADS = {
    "silo20_alie_stpa": {
        "band": (0.0, 15.0),
        "layers": COMMON_LAYERS | STPA_LAYERS | {"attacks.alie_updates"},
    },
    "silo20_mlp_gauss_krum": {
        "band": (0.0, 1.0),
        "layers": COMMON_LAYERS | {"attacks.gaussian_byzantine_update", "aggregation.krum_scores"},
    },
    "device100_ipm_stpa": {
        "band": (0.0, 4.0),
        "layers": COMMON_LAYERS | STPA_LAYERS | {"attacks.ipm_updates"},
    },
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BB_SEED", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def file_digests(out: Path) -> dict:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("rounds.jsonl", "summary.csv")
    }


def check_outputs(out: Path, rounds: int, band) -> tuple[list[str], float | None]:
    """Problems with one run's output files, and its final-10 mean error."""
    problems = []
    records = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
    rows = (out / "summary.csv").read_text().splitlines()
    if len(records) != rounds or len(rows) != rounds + 1:
        problems.append(f"{len(records)} JSONL records and {len(rows) - 1} CSV rows, want {rounds}")
    for k, rec in enumerate(records):
        values = [rec["test_error_pct"], rec["alpha"], rec["eta"]]
        if rec["round"] != k or any(v is not None and not math.isfinite(v) for v in values):
            problems.append(f"round {k}: bad record {rec}")
            break
    for row in rows[1:]:
        fields = [f for f in row.split(",") if f not in ("", "true", "false")]
        if not all(math.isfinite(float(f)) for f in fields):
            problems.append(f"non-finite CSV row {row!r}")
            break
    final = None
    if rounds:
        final = statistics.fmean(rec["test_error_pct"] for rec in records[-10:])
        lo, hi = band
        if not lo <= final <= hi:
            problems.append(f"final10_error_pct {final:.2f} outside [{lo}, {hi}]")
    return problems, final


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.spec = WORKLOADS[workload]
        config_path = HERE / "workloads" / f"{workload}.json"
        config = json.loads(config_path.read_text())
        self.rounds = config["rounds"]
        self.config = config_path
        self.setup_config = work / "setup.json"
        self.setup_config.write_text(json.dumps(dict(config, rounds=0)))
        self.reference = self._reference(config_path.read_bytes())
        self.env = child_env()
        self.attempted = 0
        self.failed: set[str] = set()
        self.failures: list[str] = []
        self.digests: dict[str, dict] = {}
        self.finals: list[float] = []
        self.machine = None

    def _reference(self, config_bytes: bytes):
        refs = json.loads((HERE / "references.json").read_text())[self.workload]
        if refs["config_sha256"] != hashlib.sha256(config_bytes).hexdigest():
            raise SystemExit(f"references.json is stale for {self.workload}; rerun record_references.py")
        return refs["seeds"].get(str(self.seed))

    def fail(self, tag: str, message: str) -> None:
        self.failed.add(tag)
        self.failures.append(f"{tag}: {message}")

    def child(self, tag: str, setup: bool = False, traced: bool = False):
        """Run one worker; returns its result, or None after recording a failure."""
        self.attempted += 1
        out = self.work / tag
        result_path = self.work / f"{tag}.result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--config", str(self.setup_config if setup else self.config),
            "--out", str(out), "--seed", str(self.seed), "--result", str(result_path),
        ]
        if traced:
            cmd += ["--spans", str(self.work / f"{tag}.spans.npz")]
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            self.fail(tag, f"timed out after {CHILD_TIMEOUT_S}s")
            return None
        if proc.returncode != 0 or not result_path.exists():
            self.fail(tag, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        result = json.loads(result_path.read_text())
        self.machine = self.machine or result["machine"]
        rounds = 0 if setup else self.rounds
        try:
            problems, final = check_outputs(out, rounds, self.spec["band"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(tag, f"unreadable outputs: {exc!r}")
            return None
        if len(result["stamps"]) != rounds:
            problems.append(f"{len(result['stamps'])} rounds reached the CLI, want {rounds}")
        if not setup:
            self.digests[tag] = file_digests(out)
            self.finals.append(final)
        if problems:
            self.fail(tag, "; ".join(problems))
            return None
        return result

    def experiments(self, seconds: float, kinds: tuple) -> dict:
        """Run experiments of each kind in turn until the next turn would overrun."""
        results = {kind: [] for kind in kinds}
        deadline = time.perf_counter() + seconds
        turn = 0
        while True:
            began = time.perf_counter()
            for kind in kinds:
                result = self.child(f"{kind}{turn}", traced=kind == "traced")
                if result is not None:
                    result["tag"] = f"{kind}{turn}"
                    results[kind].append(result)
            turn += 1
            now = time.perf_counter()
            if now + (now - began) > deadline:
                return results

    def digest_match(self) -> int:
        """1 when every experiment's outputs match the reference, or, for a seed
        without one, the first experiment's outputs."""
        expected = self.reference or next(iter(self.digests.values()), None)
        for tag, digests in self.digests.items():
            if digests != expected:
                self.fail(tag, f"output digests {digests} differ from {expected}")
        return int(bool(self.digests) and not self.failed.intersection(self.digests))


def rounds_per_s(result: dict) -> float:
    intervals = stats.round_intervals(result["stamps"])
    return len(intervals) / sum(intervals)


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    setups = [bench.child(f"setup{i}", setup=True) for i in range(SETUP_SAMPLES)]
    setup_times = [r["wall_s"] for r in setups if r is not None]
    runs = bench.experiments(seconds, ("run",))["run"]
    intervals_ms = [1e3 * x for r in runs for x in stats.round_intervals(r["stamps"])]
    digest_match = bench.digest_match()
    if not runs or not setup_times:
        return {}, []
    if stats.samples_beyond(len(intervals_ms), 90) < 10:
        raise SystemExit(f"only {len(intervals_ms)} round samples; p90 needs 100")
    metrics = {
        "rounds_per_s": (statistics.median(rounds_per_s(r) for r in runs), "1/s"),
        "round_ms_p50": (stats.percentile(intervals_ms, 50), "ms"),
        "round_ms_p90": (stats.percentile(intervals_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024 for r in runs), "MB"),
        "output_digest_match": (digest_match, "bool"),
    }
    notes = [
        f"experiments {len(runs)} x {bench.rounds} rounds; round samples {len(intervals_ms)}, "
        f"{stats.samples_beyond(len(intervals_ms), 90)} beyond p90; setup samples {len(setup_times)}"
    ]
    return metrics, notes


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    import spans

    results = bench.experiments(seconds, ("untraced", "traced"))
    bench.digest_match()
    traced = results["traced"]
    if not traced or not results["untraced"]:
        return {}, []
    figures = []
    for result in traced:
        data = spans.load(bench.work / f"{result['tag']}.spans.npz")
        fig = spans.layer_figures(
            list(data["layers"]), data["names"], data["starts"], data["ends"], data["parents"]
        )
        fig["trace.spans"] = len(data["names"])
        fig.update(result["counts"])
        called = {layer for layer in spans.LAYERS if fig[f"{layer}.calls"] > 0}
        expected = bench.spec["layers"]
        if called != expected:
            bench.fail(
                result["tag"],
                f"trace coverage: no calls to {sorted(expected - called)}, "
                f"unexpected calls to {sorted(called - expected)}",
            )
        figures.append(fig)
    keys = sorted(set().union(*figures))
    mean = {k: statistics.fmean(f.get(k, 0) for f in figures) for k in keys}

    def ratio(num: str, den: str) -> float:
        return mean.get(num, 0) / mean[den] if mean.get(den) else 0.0

    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (mean[f"{layer}.calls"], "count")
        metrics[f"{layer}.busy_ms"] = (mean[f"{layer}.busy_ms"], "ms")
        metrics[f"{layer}.self_ms"] = (mean[f"{layer}.self_ms"], "ms")
        metrics[f"{layer}.share"] = (mean[f"{layer}.share"], "1")
    metrics.update({
        "stpa.split_ratio": (ratio("stpa.splits", "stpa.rounds"), "1"),
        "stpa.kept_ratio": (ratio("stpa.kept", "stpa.selected"), "1"),
        "stpa.accept_ratio": (ratio("stpa.accepted", "stpa.rounds"), "1"),
        "stpa.build_affinity.pairs": (mean.get("stpa.build_affinity.pairs", 0), "count"),
        "aggregation.krum_scores.bytes": (mean.get("aggregation.krum_scores.bytes", 0), "B"),
        "models.local_train.samples": (mean.get("models.local_train.samples", 0), "count"),
        "trace.spans": (mean["trace.spans"], "count"),
    })
    plain = statistics.median(rounds_per_s(r) for r in results["untraced"])
    with_trace = statistics.median(rounds_per_s(r) for r in traced)
    metrics["trace.untraced_rounds_per_s"] = (plain, "1/s")
    metrics["trace.rounds_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - with_trace / plain), "%")
    notes = [
        f"traced experiments {len(traced)}, untraced {len(results['untraced'])}; "
        f"values are per experiment of {bench.rounds} rounds",
        f"stpa ratios over {mean.get('stpa.rounds', 0):.0f} stpa rounds and "
        f"{mean.get('stpa.selected', 0):.0f} selected slots; "
        "aggregation.krum_scores.bytes is computed from array shapes",
    ]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stpafl" / "cli.py").is_file():
        print(f"no stpafl sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(bench, args.seconds)
    missing = [name for name in listed if name not in metrics]
    correct = not bench.failures and not missing
    failed = len(bench.failed)
    share = stats.failed_run_share(failed, bench.attempted)

    machine = bench.machine or {}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(
        "output digests compared with "
        + ("the recorded reference" if bench.reference else "each other (no reference for this seed)")
    )
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}" + ("" if name in listed else " (unbounded)"))
    if bench.finals:
        final = statistics.fmean(bench.finals)
        print(f"{'final10_error_pct':44s} {final:>16.6g} % (band {list(bench.spec['band'])})")
    print(f"{'failed_run_share':44s} {share:>16.6g} 1 ({failed}/{bench.attempted} runs)")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if missing:
        print(f"FAILED not measured: {missing}", file=sys.stderr)

    summary = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in listed
            if name in metrics
        },
    }
    (work / "result.json").write_text(json.dumps(dict(summary, machine=machine, notes=notes), indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
