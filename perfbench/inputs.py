"""Seeded inputs of every workload.

The seed changes only the random draws of the generators.  Sizes, R-MAT
quadrant probabilities and graph families are fixed, so two seeds give
inputs of the same make-up and the same cost, and the spread between runs
on different seeds measures the program, not the inputs.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.generators import (
    TABLE2_PARAMETER_COMBINATIONS,
    generate_realworld_graph,
    generate_rmat,
    generate_training_corpus,
    rmat_small_grid,
)

#: ``build-grid``: the R-MAT-SMALL grid at 1/50,000 scale, every 20th cell,
#: first 12 cells (200 to 3,200 edges).
GRID_SCALE = 1.0 / 50_000
GRID_STEP = 20
GRID_GRAPHS = 12

#: ``build-large``: two R-MAT graphs of 10^5 edges over 2^14 vertices, with
#: the first and the last quadrant combination of Table II.
LARGE_EDGES = 100_000
LARGE_VERTICES = 2 ** 14
LARGE_COMBINATIONS = (0, 8)

#: Held-out evaluation graphs: four real-world-like families, 2,200 edges.
HELDOUT_TYPES = ("soc", "web", "wiki", "citation")
HELDOUT_VERTICES = 700
HELDOUT_EDGES = 2_200

#: Query graphs of the ``new`` serving requests: 10^4-edge R-MAT graphs.
QUERY_EDGES = 10_000
QUERY_VERTICES = 2 ** 11
QUERY_COMBINATION = 5


def _derived_seeds(seed: int, stream: int, count: int) -> List[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(value) for value in rng.integers(0, 2 ** 31 - 1, size=count)]


def grid_corpus(seed: int):
    specs = rmat_small_grid(scale=GRID_SCALE)[::GRID_STEP]
    base = _derived_seeds(seed, 1, 1)[0]
    return list(generate_training_corpus(specs, seed=base,
                                         max_graphs=GRID_GRAPHS))


def large_corpus(seed: int):
    seeds = _derived_seeds(seed, 2, len(LARGE_COMBINATIONS))
    return [generate_rmat(LARGE_VERTICES, LARGE_EDGES,
                          TABLE2_PARAMETER_COMBINATIONS[combination],
                          seed=graph_seed,
                          name=f"rmat-large-{index}-c{combination + 1}")
            for index, (combination, graph_seed)
            in enumerate(zip(LARGE_COMBINATIONS, seeds))]


def heldout_graphs(seed: int):
    seeds = _derived_seeds(seed, 3, len(HELDOUT_TYPES))
    return [generate_realworld_graph(graph_type, HELDOUT_VERTICES,
                                     HELDOUT_EDGES, seed=graph_seed)
            for graph_type, graph_seed in zip(HELDOUT_TYPES, seeds)]


def query_graphs(seed: int, count: int):
    seeds = _derived_seeds(seed, 4, count)
    parameters = TABLE2_PARAMETER_COMBINATIONS[QUERY_COMBINATION]
    return [generate_rmat(QUERY_VERTICES, QUERY_EDGES, parameters,
                          seed=graph_seed, name=f"query-{index}")
            for index, graph_seed in enumerate(seeds)]
