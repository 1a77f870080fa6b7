"""Benchmark problem formulations and instance generators (paper §4.1).

- :mod:`.maxcut` — Max-Cut ↔ QUBO via Eq. (17), with the G-set graph
  families (random ±1 / random +1 / planar-like).
- :mod:`.gset` — the G-set file format plus a seeded synthetic catalog
  matching the sizes/families of the paper's Table 1(a) instances.
- :mod:`.tsp` — TSP → QUBO ((c−1)² bits, penalty = 2 · max distance),
  tour encoding/decoding, Held–Karp exact and 2-opt reference solvers.
- :mod:`.tsplib` — TSPLIB file parsing (EUC_2D / GEO / EXPLICIT) and the
  seeded synthetic analogues of the paper's Table 1(b) instances.
- :mod:`.random_qubo` — dense 16-bit synthetic random problems
  (Table 1(c)) with a seeded catalog.
- :mod:`.partition`, :mod:`.coloring` — extra Lucas-style formulations
  for the "other applications" direction the paper's conclusion
  proposes.
- :mod:`.spin_glass` — Sherrington–Kirkpatrick and Edwards–Anderson
  spin-glass instances.
"""

from repro.problems.coloring import (
    coloring_to_qubo,
    count_violations,
    decode_coloring,
    is_proper_coloring,
)
from repro.problems.gset import load_gset, save_gset, synthetic_gset, GSET_CATALOG
from repro.problems.maxcut import (
    cut_value,
    energy_to_cut,
    maxcut_to_qubo,
    maxcut_to_sparse_qubo,
    random_graph,
    toroidal_graph,
)
from repro.problems.partition import decode_partition, partition_to_qubo
from repro.problems.random_qubo import RANDOM_CATALOG, catalog_instance, random_qubo
from repro.problems.spin_glass import edwards_anderson, sherrington_kirkpatrick
from repro.problems.tsp import (
    TSP_SCALE,
    TspQubo,
    decode_tour,
    held_karp,
    tour_length,
    tour_to_bits,
    tsp_to_qubo,
    two_opt,
)
from repro.problems.tsplib import (
    TSPLIB_CATALOG,
    TspInstance,
    load_tsplib,
    synthetic_instance,
)

__all__ = [
    "maxcut_to_qubo",
    "maxcut_to_sparse_qubo",
    "coloring_to_qubo",
    "decode_coloring",
    "is_proper_coloring",
    "count_violations",
    "cut_value",
    "energy_to_cut",
    "random_graph",
    "toroidal_graph",
    "load_gset",
    "save_gset",
    "synthetic_gset",
    "GSET_CATALOG",
    "TspQubo",
    "tsp_to_qubo",
    "decode_tour",
    "tour_to_bits",
    "tour_length",
    "held_karp",
    "two_opt",
    "TSP_SCALE",
    "TspInstance",
    "load_tsplib",
    "synthetic_instance",
    "TSPLIB_CATALOG",
    "random_qubo",
    "catalog_instance",
    "RANDOM_CATALOG",
    "partition_to_qubo",
    "decode_partition",
    "sherrington_kirkpatrick",
    "edwards_anderson",
]
