"""EASE end-to-end benchmark.

    python3 perfbench/run.py --workload build-grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One run drives the whole pipeline on the
workload's seeded inputs: generate -> graph store -> profile -> train ->
evaluate -> serve under HTTP load.  ``--trace 0`` prints every end-to-end
metric of BENCHMARK.json; ``--trace 1`` runs the traced variant, prints
every per-layer metric and writes the spans to ``.perfbench/``.  The last
line of standard output is one JSON object; the exit code is 0 only when
every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("build-grid", "build-large")


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _run(args, scratch: str) -> int:
    sys.path.insert(0, SRC)
    import build
    import serve
    from common import Checks, self_peak_rss_mb
    from repro.ease import save_ease
    from tracer import Tracer

    import_s = time.perf_counter() - STARTED
    end_to_end_units, layer_units = _metric_specs()
    tracer = Tracer(enabled=bool(args.trace))
    checks = Checks()

    def stage(name: str) -> None:
        print(f"stage {name} done at {time.perf_counter() - STARTED:.1f} s",
              flush=True)

    data = build.prepare(args.workload, args.seed,
                         serve.new_requests_needed(args.seconds), scratch,
                         tracer)
    started = time.perf_counter()
    heldout = build.profile_heldout(data, tracer)
    heldout_s = time.perf_counter() - started

    stage("set-up")
    built = build.run(args.workload, args.seed, data, heldout, checks, tracer)
    stage("profile, train, evaluate")
    bundle = os.path.join(scratch, "ease.pkl")
    save_ease(built.ease, bundle)
    # Collections in the load generator then skip the build stage's objects.
    gc.freeze()
    served = serve.run(SRC, bundle, built.ease, data.store, data.heldout,
                       data.query_graphs, data.query_fingerprints,
                       args.seconds, checks, tracer)
    stage("serve")
    # The second profiling or training round of an untraced run comes after
    # serving, so one burst of load from other tenants of the host cannot
    # slow both rounds.
    if not args.trace:
        if build.PROFILE_ROUNDS[args.workload] == 2:
            build.profile_again(data, built, checks)
        if build.TRAIN_ROUNDS[args.workload] == 2:
            build.train_again(heldout, built, checks)
        stage("second round")
    end_to_end = {
        "setup_s": import_s + data.setup_s + heldout_s + served["startup_s"],
        "profile_s": built.profile_s,
        "train_s": built.train_s,
        "peak_rss_mb": self_peak_rss_mb(),
        **served["metrics"],
    }
    attempted = built.attempted + served["attempted"]
    failed = served["failed"]
    if args.trace:
        layer = {**built.layer, **served["layer"]}
        per_span_s = tracer.measure_overhead()
        layer["trace.spans"] = float(len(tracer.spans))
        layer["trace.overhead_ms"] = per_span_s * len(tracer.spans) * 1000.0
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path, {"workload": args.workload,
                                  "seed": args.seed,
                                  "end_to_end": end_to_end, "layer": layer})
        print(f"spans written to {trace_path}")
        values, units = layer, layer_units
    else:
        values, units = end_to_end, end_to_end_units

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for name, value in end_to_end.items():
        print(f"{'traced ' if args.trace else ''}{name}: {value:.6g} "
              f"{end_to_end_units[name]}")
    if args.trace:
        for name in sorted(layer_units):
            print(f"{name}: {values[name]:.6g} {layer_units[name]}")
    print(f"operations: attempted {attempted} failed {failed}")
    for line in checks.report():
        print(line)
    print(json.dumps({
        "correct": checks.passed, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if checks.passed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix="run-")
    # Every temporary file of this process and its children stays in the
    # checkout.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
