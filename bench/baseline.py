"""Run every workload on several seeds and write a BENCH_<n>.json.

Run from the repository root:

    python3 bench/baseline.py --seeds 10 --out bench/BENCH_1.json
    python3 bench/baseline.py --seeds 10 --out out.json --compare bench/BENCH_1.json

The command, workloads, run length and bounds come from BENCHMARK.json.
The file's schema is documented in README.md next to this script.  The
printed table flags every end-to-end spread above a third of its bound
(the target) and above the bound itself (a failure), and, with
``--compare``, every median that is worse than the other file's by more
than the bound (a failure).  The exit code is 0 only when no run failed a
check, no spread or median change exceeds its bound, and the traced runs
of series and kissing cover at least 90% of the traced replay's elapsed_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import OUT_DIR

ORDERS = {"delta": (1000, 2000, 4000), "j_invariant": (500, 1000, 2000)}
CLI_ROW = ["coeffs", "--series", "delta", "--order", "5000"]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [
        *spec["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{done.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float], unit: str, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "unit": unit, "bound": bound, "values": values, "median": median,
        "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
    }


def baseline_rows(layer_metrics: dict) -> list[dict]:
    """The ROADMAP baseline table, as far as a public call measures it;
    some rows come from a traced run's per-layer metrics."""
    sys.path.insert(0, "src")
    from qleech import modforms

    rows = [{
        "row": "tier-1 suite (383 tests)", "value": None, "unit": None,
        "note": "a pytest run, not a public call",
    }]
    for name, orders in ORDERS.items():
        for order in orders:
            start = time.perf_counter()
            getattr(modforms, name)(order)
            rows.append({
                "row": f"{name}({order})", "value": time.perf_counter() - start,
                "unit": "s", "note": "in-process, one call",
            })
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-m", "qleech.cli", *CLI_ROW], capture_output=True, env=env, check=True
    ).stdout
    rows.append({
        "row": "qleech " + " ".join(CLI_ROW), "value": json.loads(out)["elapsedMillis"] / 1000,
        "unit": "s", "note": "elapsedMillis of one CLI process",
    })
    for row, metric, note in (
        ("quotient_representatives", "lorentz.quotient_representatives_s", "cold"),
        ("leech_gram", "lorentz.leech_gram_s", "cold, includes the construction"),
        ("lll", "lattices.lll_s", "on the Leech Gram matrix"),
        ("short_vectors(leech, 4)", "lattices.short_vectors_s",
         "nodes and ns per node need the in-program trace"),
        ("short_vectors(leech, 4, jobs=2)", "lattices.short_vectors_jobs2_s",
         "the time of each chunk needs the in-program trace"),
        ("jobs=2 speed-up over serial", "lattices.jobs2_speedup",
         "base: short_vectors(leech, 4) serial"),
    ):
        rows.append({"row": row, "value": layer_metrics[metric]["value"],
                     "unit": layer_metrics[metric]["unit"], "note": f"{metric}; {note}"})
    rows.append({"row": "theta_check_leech(6)", "value": None, "unit": None,
                 "note": "left out (203 s) until the enumeration of ROADMAP item 3 lands"})
    return rows


def flag(value: float, bound: float) -> str:
    if value > bound:
        return "  OVER BOUND"
    return "  above a third of the bound" if value > bound / 3 else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, help="an earlier BENCH_<n>.json of the same code")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed = dict.fromkeys(workloads, 0)
    for seed in seeds:
        for workload in workloads:
            result = run_once(spec, workload, seed, 0)
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: failed {result['failed']}", flush=True)
    per_layer, replay = {}, {}
    for workload in workloads:
        result = run_once(spec, workload, seeds[0], 1)
        failed[workload] += result["failed"]
        per_layer[workload] = result["metrics"]
        trace = json.loads((OUT_DIR / f"trace-{workload}-{seeds[0]}.json").read_text())
        replay[workload] = trace["replay"]

    end_to_end = {}
    for workload in workloads:
        end_to_end[workload] = {
            m["name"]: summary(values[workload][m["name"]], m["unit"], m["bound"])
            for m in spec["end_to_end"]
        }
    report = {
        "schema": 1,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "end_to_end": end_to_end,
        "failed": failed,
        "per_layer": per_layer,
        "replay": replay,
        "baseline_rows": baseline_rows(per_layer[workloads[0]]),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    ok = not any(failed.values())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    other = json.loads(args.compare.read_text())["end_to_end"] if args.compare else {}
    for workload, metrics in end_to_end.items():
        for name, s in metrics.items():
            line = (f"{workload:<14} {name:<12} median {s['median']:10.4f} {s['unit']:<3}"
                    f" spread {s['spread']:.4f} (bound {s['bound']}){flag(s['spread'], s['bound'])}")
            ok &= s["spread"] <= s["bound"]
            if name in other.get(workload, {}):
                change = s["median"] / other[workload][name]["median"] - 1
                worse = change if better[name] == "lower" else -change
                line += f"; median {change:+.1%} against {args.compare.name}{flag(worse, s['bound'])}"
                ok &= worse <= s["bound"]
            print(line)
    for workload, r in replay.items():
        ok &= r["coverage_ok"]
        print(f"{workload:<14} library layers' self time: {r['coverage']:.1%} of the traced"
              f" and {r['layer_share']:.1%} of the untraced elapsed_s of the replay"
              f"{'' if r['coverage_ok'] else '  COVERAGE BELOW 90%'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
