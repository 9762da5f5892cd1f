"""Build stage: corpus -> graph store -> profile -> train -> evaluate.

Drives the program through ``GraphStore``, ``compute_properties_batch``,
``GraphProfiler.profile``, ``EASE.train`` and
``SelectionStrategyEvaluator``.  The traced run adds the per-layer work:
an inline profile of the same grid, the layer calls the profiler makes
(properties, each partitioner, quality metrics, the processing engine)
timed one by one, and the three predictor fits timed apart.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.ease import (
    EASE,
    GraphProfiler,
    ProfileDataset,
    SelectionRequest,
    SelectionStrategyEvaluator,
)
from repro.graph import GraphStore, compute_properties_batch
from repro.partitioning import (
    ALL_PARTITIONER_NAMES,
    compute_quality_metrics,
    create_partitioner,
)
from repro.processing import ALL_ALGORITHM_NAMES, ProcessingEngine, create_algorithm

import inputs
from common import Checks, median

#: Quality grid k in {4, 8, 16}: k = 4 comes from the processing phase, so
#: every (graph, partitioner, k) is profiled exactly once.
QUALITY_ONLY_COUNTS = (8, 16)
PROCESSING_K = 4
PARTITION_COUNTS = (PROCESSING_K,) + QUALITY_ONLY_COUNTS
PROFILE_JOBS = 2
#: Each untraced run profiles and trains this often (1 or 2) and reports
#: the medians.  A second round runs after the serving stage (see run.py),
#: so one burst of load from other tenants of the host cannot slow
#: all of them.  build-large trains in ~5 s, where that noise is widest;
#: build-grid profiles in ~4 s.
PROFILE_ROUNDS = {"build-grid": 2, "build-large": 1}
TRAIN_ROUNDS = {"build-grid": 1, "build-large": 2}
#: Set-up (generation + store import) is repeated this often per run.
SETUP_ROUNDS = 3
#: Partitions whose replication factor is recomputed with plain numpy.
RF_SAMPLES = {"build-grid": 8, "build-large": 2}
EVAL_ITERATIONS = 10
GOAL = "end_to_end"


@dataclass
class Inputs:
    store: GraphStore
    corpus: list            # store-opened (memory-mapped) training graphs
    heldout: list           # store-opened held-out evaluation graphs
    originals: Dict[str, object]  # graph name -> generated in-memory graph
    query_fingerprints: List[str]
    query_graphs: list      # generated in-memory query graphs
    setup_s: float = 0.0


@dataclass
class BuildResult:
    ease: EASE
    dataset: ProfileDataset
    profile_times: List[float]
    train_times: List[float]
    attempted: int
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def profile_s(self) -> float:
        return median(self.profile_times)

    @property
    def train_s(self) -> float:
        return median(self.train_times)


def _corpus(workload: str, seed: int):
    return inputs.grid_corpus(seed) if workload == "build-grid" \
        else inputs.large_corpus(seed)


def prepare(workload: str, seed: int, query_count: int, scratch: str,
            tracer) -> Inputs:
    """Generate every input and import it into a graph store, ``SETUP_ROUNDS``
    times into fresh stores; the last store is kept.  Returns the median
    set-up time in ``setup_s``."""
    times = []
    for round_index in range(SETUP_ROUNDS):
        started = time.perf_counter()
        corpus = _corpus(workload, seed)
        heldout = inputs.heldout_graphs(seed)
        queries = inputs.query_graphs(seed, query_count)
        store = GraphStore(tempfile.mkdtemp(dir=scratch, prefix="store-"))
        with tracer.span("graph.store_import"):
            corpus_fps = [store.save(graph) for graph in corpus]
            heldout_fps = [store.save(graph) for graph in heldout]
            query_fps = [store.save(graph) for graph in queries]
        opened_corpus = [store.open(fp) for fp in corpus_fps]
        opened_heldout = [store.open(fp) for fp in heldout_fps]
        times.append(time.perf_counter() - started)
        if round_index < SETUP_ROUNDS - 1:
            shutil.rmtree(store.root)
    originals = {graph.name: graph for graph in corpus + heldout}
    return Inputs(store, opened_corpus, opened_heldout, originals, query_fps,
                  queries, setup_s=median(times))


def profiler(jobs: int = PROFILE_JOBS) -> GraphProfiler:
    return GraphProfiler(partitioner_names=ALL_PARTITIONER_NAMES,
                         partition_counts=QUALITY_ONLY_COUNTS,
                         processing_partition_count=PROCESSING_K,
                         algorithms=ALL_ALGORITHM_NAMES, jobs=jobs)


def profile_heldout(data: Inputs, tracer) -> ProfileDataset:
    """Ground truth of the held-out jobs (processing at k = 4)."""
    with tracer.span("profile.heldout"):
        return profiler().profile([], data.heldout)


# --------------------------------------------------------------------------- #
def run(workload: str, seed: int, data: Inputs, heldout: ProfileDataset,
        checks: Checks, tracer) -> BuildResult:
    started = time.perf_counter()
    with tracer.span("profile.jobs2"):
        dataset = profiler().profile(data.corpus, data.corpus)
    jobs2_s = time.perf_counter() - started
    check_dataset(workload, seed, data, dataset, checks)

    layer: Dict[str, float] = {}
    started = time.perf_counter()
    if tracer.enabled:
        ease = _traced_train(dataset, tracer)
    else:
        ease = EASE(partitioner_names=ALL_PARTITIONER_NAMES).train(dataset)
    train_s = time.perf_counter() - started

    with tracer.span("ease.evaluate"):
        evaluator = SelectionStrategyEvaluator(ease.selector,
                                               num_iterations=EVAL_ITERATIONS)
        comparisons = evaluator.compare(heldout, goals=(GOAL,))
    totals = {name: sum(c.strategy_seconds[name] * c.num_jobs
                        for c in comparisons)
              for name in ("SPS", "SO", "SR")}
    optimal_picks = check_selection(ease, evaluator, heldout, totals["SPS"],
                                    checks)
    result = BuildResult(ease, dataset, [jobs2_s], [train_s],
                         _tasks(dataset) + 1 + len(comparisons), layer)
    if tracer.enabled:
        layer.update(_traced_layers(data, dataset, jobs2_s, checks, tracer))
        layer.update({
            "ease.quality_records": float(len(dataset.quality)),
            "ease.evaluate_s": tracer.total("ease.evaluate"),
            "ease.selected_cost_s": totals["SPS"],
            "ease.cost_vs_random": totals["SPS"] / totals["SR"],
            "ease.cost_vs_optimal": totals["SPS"] / totals["SO"],
            "ease.optimal_picks": float(optimal_picks),
        })
    return result


def profile_again(data: Inputs, result: BuildResult, checks: Checks) -> None:
    """One more ``jobs=2`` profiling round; its dataset must equal the
    first round's."""
    started = time.perf_counter()
    dataset = profiler().profile(data.corpus, data.corpus)
    result.profile_times.append(time.perf_counter() - started)
    result.attempted += _tasks(dataset)
    checks.expect("repeated_profile_identical",
                  _records(dataset) == _records(result.dataset),
                  "a repeated jobs=2 profile differs from the first")


def train_again(heldout: ProfileDataset, result: BuildResult,
                checks: Checks) -> None:
    """One more ``EASE.train`` on the same dataset; the new model must
    select as the first one does on every held-out job."""
    started = time.perf_counter()
    ease = EASE(partitioner_names=ALL_PARTITIONER_NAMES).train(result.dataset)
    result.train_times.append(time.perf_counter() - started)
    result.attempted += 1
    requests = [SelectionRequest(r.properties, r.algorithm, r.num_partitions,
                                 goal=GOAL, num_iterations=EVAL_ITERATIONS)
                for r in heldout.processing if r.partitioner == "1dd"]
    checks.expect("repeated_train_identical",
                  [s.selected for s in ease.select_partitioner_batch(requests)]
                  == [s.selected for s in
                      result.ease.select_partitioner_batch(requests)],
                  "a retrained model selects differently")


def _tasks(dataset: ProfileDataset) -> int:
    """Profiled combinations: one per quality and one per processing
    record."""
    return len(dataset.quality) + len(dataset.processing)


def _traced_train(dataset: ProfileDataset, tracer) -> EASE:
    """Fit the three predictors one by one, then let ``EASE.train`` build
    the selector over them (an empty dataset fits nothing)."""
    ease = EASE(partitioner_names=ALL_PARTITIONER_NAMES)
    with tracer.span("ml.fit_quality"):
        ease.quality_predictor.fit(dataset.quality)
    with tracer.span("ml.fit_partitioning_time"):
        ease.partitioning_time_predictor.fit(dataset.partitioning_time)
    with tracer.span("ml.fit_processing_time"):
        ease.processing_time_predictor.fit(dataset.processing)
    return ease.train(ProfileDataset())


def _traced_layers(data: Inputs, dataset: ProfileDataset, jobs2_s: float,
                   checks: Checks, tracer) -> Dict[str, float]:
    inline = profiler(jobs=1)
    with tracer.span("runtime.inline_profile") as root:
        inline_dataset = inline.profile(data.corpus, data.corpus)
    checks.expect("jobs2_dataset_equals_inline",
                  _records(inline_dataset) == _records(dataset),
                  "the jobs=2 dataset differs from the inline one")
    inline_s = root["end"] - root["start"]
    tasks = inline.last_run_stats.total_tasks

    # The layer calls the profiler makes, one by one, in the same order.
    engine = ProcessingEngine()
    edges = 0
    with tracer.span("layers.direct"):
        with tracer.span("graph.properties"):
            compute_properties_batch(data.corpus, exact_triangles=False,
                                     seed=inline.seed)
        for graph in data.corpus:
            for name in ALL_PARTITIONER_NAMES:
                for k in PARTITION_COUNTS:
                    with tracer.span(f"partitioning.{name}"):
                        partition = create_partitioner(
                            name, seed=inline.seed).partition(graph, k)
                    edges += graph.num_edges
                    with tracer.span("partitioning.quality_metrics"):
                        compute_quality_metrics(partition)
                    if k != PROCESSING_K:
                        continue
                    for algorithm in ALL_ALGORITHM_NAMES:
                        with tracer.span("processing.engine"):
                            engine.run(partition, create_algorithm(
                                algorithm, seed=inline.seed))
    direct = {"graph.properties_s": tracer.total("graph.properties"),
              "partitioning.quality_metrics_s":
                  tracer.total("partitioning.quality_metrics"),
              "processing.engine_s": tracer.total("processing.engine")}
    partition_s = 0.0
    for name in ALL_PARTITIONER_NAMES:
        direct[f"partitioning.{name}_s"] = tracer.total(f"partitioning.{name}")
        partition_s += direct[f"partitioning.{name}_s"]
    self_s = inline_s - (direct["graph.properties_s"] + partition_s
                         + direct["partitioning.quality_metrics_s"]
                         + direct["processing.engine_s"])
    return {
        **direct,
        "partitioning.edges_per_s": edges / partition_s,
        "runtime.tasks": float(tasks),
        "runtime.inline_profile_s": inline_s,
        "runtime.self_s": self_s,
        "runtime.task_overhead_ms": self_s / tasks * 1000.0,
        "runtime.parallel_speedup": inline_s / jobs2_s,
        "ml.fit_quality_s": tracer.total("ml.fit_quality"),
        "ml.fit_partitioning_time_s": tracer.total("ml.fit_partitioning_time"),
        "ml.fit_processing_time_s": tracer.total("ml.fit_processing_time"),
        "graph.store_import_s": median(tracer.durations("graph.store_import")),
    }


def _records(dataset: ProfileDataset):
    return (dataset.quality, dataset.partitioning_time, dataset.processing)


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def check_dataset(workload: str, seed: int, data: Inputs,
                  dataset: ProfileDataset, checks: Checks) -> None:
    graphs, parts = len(data.corpus), len(ALL_PARTITIONER_NAMES)
    expected_quality = graphs * parts * len(PARTITION_COUNTS)
    checks.expect("quality_record_count",
                  len(dataset.quality) == expected_quality,
                  f"{len(dataset.quality)} != {expected_quality}")
    checks.expect("partitioning_time_record_count",
                  len(dataset.partitioning_time) == expected_quality,
                  f"{len(dataset.partitioning_time)} != {expected_quality}")
    expected_processing = graphs * parts * len(ALL_ALGORITHM_NAMES)
    checks.expect("processing_record_count",
                  len(dataset.processing) == expected_processing,
                  f"{len(dataset.processing)} != {expected_processing}")

    # Properties against plain numpy counts of the generated graphs.
    properties = {record.graph_name: record.properties
                  for record in dataset.quality}
    for name, props in properties.items():
        graph = data.originals[name]
        src, dst = np.asarray(graph.src), np.asarray(graph.dst)
        num_vertices = graph.num_vertices
        degrees = (np.bincount(src, minlength=num_vertices)
                   + np.bincount(dst, minlength=num_vertices))
        checks.expect("properties_match_numpy",
                      props.num_edges == src.size
                      and props.num_vertices == num_vertices
                      and int(max(src.max(), dst.max())) < num_vertices
                      and np.isclose(props.mean_degree, degrees.mean(),
                                     rtol=1e-12),
                      f"{name}: |E|={props.num_edges}/{src.size} "
                      f"|V|={props.num_vertices}/{num_vertices} "
                      f"deg={props.mean_degree}/{degrees.mean()}")

    # Replication factor of sampled partitions, recomputed from the
    # partitioner's own assignment.
    recorded = {(r.graph_name, r.partitioner, r.num_partitions):
                r.metrics["replication_factor"] for r in dataset.quality}
    rng = np.random.default_rng([seed, 99])
    combos = sorted(recorded)
    for index in rng.choice(len(combos), size=RF_SAMPLES[workload],
                            replace=False):
        name, partitioner, k = combos[index]
        graph = data.originals[name]
        assignment = np.asarray(create_partitioner(partitioner, seed=0)
                                .partition(graph, k).assignment)
        checks.expect("assignment_covers_each_edge_once",
                      assignment.shape == (graph.num_edges,)
                      and np.issubdtype(assignment.dtype, np.integer)
                      and assignment.min() >= 0 and assignment.max() < k,
                      f"{name}/{partitioner}/k={k}")
        checks.expect("replication_factor_matches_numpy",
                      np.isclose(_numpy_replication_factor(graph, assignment,
                                                           k),
                                 recorded[(name, partitioner, k)],
                                 rtol=1e-12),
                      f"{name}/{partitioner}/k={k}")


def _numpy_replication_factor(graph, assignment: np.ndarray, k: int) -> float:
    src, dst = np.asarray(graph.src), np.asarray(graph.dst)
    pairs = np.unique(np.concatenate([src * k + assignment,
                                      dst * k + assignment]))
    replicas = np.bincount(pairs // k)
    return float(replicas.sum() / np.count_nonzero(replicas))


def check_selection(ease: EASE, evaluator: SelectionStrategyEvaluator,
                    heldout: ProfileDataset, evaluator_total: float,
                    checks: Checks) -> int:
    """Per held-out job: EASE's pick is a profiled candidate and optimal <=
    its cost <= worst; the picks' summed cost equals the evaluator's.
    Returns the number of jobs on which EASE picked an optimal
    partitioner."""
    properties = {r.graph_name: r.properties for r in heldout.processing}
    total, optimal = 0.0, 0
    for job in evaluator.build_jobs(heldout):
        pick = ease.select_partitioner(
            properties[job.graph_name], job.algorithm, job.num_partitions,
            goal=GOAL, num_iterations=EVAL_ITERATIONS).selected
        # The pick must be a profiled candidate; optimal <= cost <= worst
        # then holds by construction and is kept as a guard on job.cost.
        if not checks.expect("pick_is_profiled_candidate",
                             pick in job.processing_seconds,
                             f"{job.graph_name}/{job.algorithm}: {pick}"):
            continue
        costs = [job.cost(p, GOAL) for p in job.processing_seconds]
        cost = job.cost(pick, GOAL)
        checks.expect("optimal_le_ease_le_worst",
                      min(costs) <= cost <= max(costs),
                      f"{job.graph_name}/{job.algorithm}: {cost}")
        total += cost
        optimal += int(np.isclose(cost, min(costs)))
    checks.expect("selected_cost_matches_evaluator",
                  np.isclose(total, evaluator_total, rtol=1e-9),
                  f"{total} != {evaluator_total}")
    return optimal
