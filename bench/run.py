"""End-to-end benchmark of the qleech command line.

Run from the repository root:

    python3 bench/run.py --workload series --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's commands run as users run them: one
``python3 -m qleech.cli`` process per command, JSON output, a closed loop
with a single client, so at most one CLI process (plus its ``--jobs``
workers) is alive at a time.  Passes over the command list repeat until the
next pass would overrun ``--seconds``; the seed shuffles the command order
of each pass and is the only input the benchmark varies.  Every output is
checked (exit code, ``ok``, the sha256 of stdout recorded in digests.json,
and independent spot values) before any metric is reported.

With ``--trace 1`` the per-layer run in ``layers.py`` runs instead.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every check passed.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import layers
from harness import (
    DIGESTS,
    END_TO_END,
    HARD_LIMIT_S,
    OUT_DIR,
    WORKLOADS,
    Runner,
    Tally,
    end_to_end,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "qleech" / "cli.py").is_file():
        print("bench: run from a qleech checkout (src/qleech/cli.py not found)", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(root, time.perf_counter() + HARD_LIMIT_S)
    tally = Tally(json.loads(DIGESTS.read_text()))
    try:
        if args.trace:
            metrics = layers.traced_run(runner, args.workload, args.seed, tally)
            units = layers.UNITS
        else:
            metrics = end_to_end(runner, args.workload, args.seed, args.seconds, tally)
            units = END_TO_END
    except (ImportError, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
