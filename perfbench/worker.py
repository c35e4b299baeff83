"""One `stpafl run` in this process, timed from outside the program.

    python3 perfbench/worker.py --config CFG --out DIR --seed N --result FILE [--spans FILE]

Runs `stpafl.cli.main(["run", ...])` on the stpafl sources under `src/` of
the checkout. Every round is timed as it reaches the CLI, by wrapping the
`iter_experiment` generator that the CLI consumes. With --spans it also
traces the layers listed in spans.WRAPS and writes the spans to that file.
The result (exit code, round stamps, wall time, peak RSS, machine info) goes
to --result as JSON. The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stats
    from stpafl import cli

    if Path(cli.__file__).resolve().parent != src / "stpafl":
        raise SystemExit(f"stpafl imported from {cli.__file__}, not from {src}")

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    stamps = []
    inner = cli.iter_experiment

    def timed_iter_experiment(cfg):
        for log in inner(cfg):
            stamps.append(time.perf_counter())
            yield log

    cli.iter_experiment = timed_iter_experiment
    argv = ["run", "--config", args.config, "--out", args.out, "--seed", str(args.seed)]
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    cli.iter_experiment = inner

    result = {
        "exit_code": code,
        "wall_s": wall,
        "stamps": [t - start for t in stamps],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": stats.machine_info(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.save(args.spans)
        result["counts"] = tracer.counts
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
