"""Record the reference output digests that run.py compares against.

    python3 perfbench/record_references.py [--workload NAME ...] [--seeds 0-63]

For each workload and seed, runs the workload's config once in a fresh
process, checks its outputs as run.py does, and stores the SHA-256 of
rounds.jsonl and summary.csv in references.json, keyed by the config file's
own SHA-256 so that a changed config cannot be compared with stale digests.
Run it only on code whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys

import run

REFERENCES = run.HERE / "references.json"


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-63"))
    args = parser.parse_args()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    work = run.HERE / ".work" / "references"
    env = run.child_env()
    status = 0
    for workload in args.workload or sorted(run.WORKLOADS):
        config = run.HERE / "workloads" / f"{workload}.json"
        config_sha = hashlib.sha256(config.read_bytes()).hexdigest()
        entry = refs.get(workload, {})
        if entry.get("config_sha256") != config_sha:
            entry = {"config_sha256": config_sha, "seeds": {}}
        rounds = json.loads(config.read_text())["rounds"]
        for seed in args.seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cmd = [
                sys.executable, str(run.HERE / "worker.py"), "--config", str(config),
                "--out", str(work), "--seed", str(seed), "--result", str(work / "result.json"),
            ]
            proc = subprocess.run(cmd, env=env, cwd=run.ROOT, capture_output=True, text=True)
            problems, final = (
                run.check_outputs(work, rounds, run.WORKLOADS[workload]["band"])
                if proc.returncode == 0
                else ([f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"], None)
            )
            if problems:
                print(f"{workload} seed {seed}: NOT RECORDED: {'; '.join(problems)}")
                status = 1
                continue
            entry["seeds"][str(seed)] = run.file_digests(work)
            print(f"{workload} seed {seed}: final10_error_pct {final:.2f}", flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
        refs[workload] = entry
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
