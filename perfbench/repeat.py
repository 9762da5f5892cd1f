"""Repeat one workload on N seeds and print each metric's spread.

    python3 perfbench/repeat.py --workload build-grid --runs 10 --first-seed 1
    python3 perfbench/repeat.py --workload build-grid --runs 10 \
        --first-seed 101 --against .perfbench/repeat-build-grid-seed1.json

Each run is ``perfbench/run.py --trace 0`` with the next seed and the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric the script
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (third minus first quartile, over the median) next to the metric's
bound.  The runs' JSON lines are written to
``.perfbench/repeat-<workload>-seed<first seed>.json``.

``--against`` reads such a file from an earlier set and prints, per metric,
how much worse this set's median is than that set's, against the bound.
``--traced N`` adds N traced runs and prints the tracing overhead: how far
their median sits from the untraced median, on the metrics whose work is
the same with and without tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: End-to-end metrics measured on the same work in a traced and an
#: untraced run.  The traced run profiles and trains once, fits the three
#: predictors one by one and keeps more in memory, so ``profile_s``,
#: ``train_s`` and ``peak_rss_mb`` are left out of the overhead.
SAME_WORK = ("setup_s", "server_rss_mb", "high.known.p50_ms",
             "high.new.p50_ms", "high.repeat.p50_ms", "closed.rps")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with "
                         f"{completed.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def _values(results, name: str):
    return [r["metrics"][name]["value"] for r in results]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", metavar="FILE",
                        help="an earlier set's results, to compare medians")
    parser.add_argument("--traced", type=int, default=0, metavar="N",
                        help="add N traced runs and print the overhead")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = _run(args.workload, seed, spec["run_seconds"], 0)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall={result['wall_s']:.1f} s",
              flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench",
                           f"repeat-{args.workload}-seed{args.first_seed}"
                           ".json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    medians = {}
    for metric in spec["end_to_end"]:
        q1, q2, q3 = statistics.quantiles(_values(results, metric["name"]),
                                          n=4)
        medians[metric["name"]] = q2
        spread = (q3 - q1) / q2
        verdict = "ok" if spread <= metric["bound"] / 3 else (
            "WIDE" if spread <= metric["bound"] else "OVER")
        print(f"{metric['name']:22s} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {metric['bound']:6.2f} {verdict}")

    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)
        print(f"median against {args.against} (positive = worse):")
        for metric in spec["end_to_end"]:
            before = statistics.median(_values(earlier, metric["name"]))
            change = (medians[metric["name"]] - before) / before
            worse = change if metric["better"] == "lower" else -change
            print(f"  {metric['name']:22s} {before:12.5g} "
                  f"{medians[metric['name']]:12.5g} {worse:+8.3f} "
                  f"{metric['bound']:6.2f} "
                  f"{'ok' if worse <= metric['bound'] else 'OVER'}")

    if args.traced:
        traced = []
        for seed in range(args.first_seed + args.runs,
                          args.first_seed + args.runs + args.traced):
            _run(args.workload, seed, spec["run_seconds"], 1)
            with open(os.path.join(ROOT, ".perfbench",
                                   f"trace-{args.workload}-seed{seed}.json"),
                      encoding="utf-8") as handle:
                traced.append(json.load(handle)["end_to_end"])
        print(f"tracing overhead (median of {args.traced} traced runs "
              f"against the untraced median):")
        for name in SAME_WORK:
            value = statistics.median(run[name] for run in traced)
            print(f"  {name:22s} {value:12.5g} "
                  f"{(value - medians[name]) / medians[name]:+8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
