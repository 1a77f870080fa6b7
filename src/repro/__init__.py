"""repro — Adaptive Bulk Search (ABS) for QUBO, reproduced in Python.

A full reimplementation of "Adaptive Bulk Search: Solving Quadratic
Unconstrained Binary Optimization Problems on Multiple GPUs" (Yasudo et
al., ICPP 2020): the O(1)-search-efficiency local search (Algorithm 4),
the straight search (Algorithm 5), the host genetic algorithm, a
CUDA-like multi-GPU substrate simulated in NumPy/multiprocessing, the
paper's three benchmark families, and harnesses regenerating every
table and figure of its evaluation.

Quickstart
----------
>>> from repro import QuboMatrix, AdaptiveBulkSearch, AbsConfig
>>> q = QuboMatrix.random(256, seed=0)
>>> result = AdaptiveBulkSearch(q, AbsConfig(max_rounds=50, seed=1)).solve()
>>> result.best_energy < 0
True

Subpackages
-----------
- :mod:`repro.qubo`     — weight matrices, energy/Δ identities, I/O
- :mod:`repro.search`   — Algorithms 1–5 and classical baselines
- :mod:`repro.ga`       — host genetic algorithm (pool + operators)
- :mod:`repro.gpusim`   — simulated CUDA devices, occupancy, timing
- :mod:`repro.abs`      — the ABS framework (host + devices + buffers)
- :mod:`repro.problems` — Max-Cut / TSP / random-QUBO benchmark suites
- :mod:`repro.metrics`  — search rate, time-to-solution, efficiency
"""

from repro.abs import AbsConfig, AdaptiveBulkSearch, SolveResult
from repro.api import solve, solve_ising
from repro.qubo import IsingModel, QuboMatrix, SearchState, SparseQubo

__version__ = "1.28.0"

__all__ = [
    "QuboMatrix",
    "SparseQubo",
    "SearchState",
    "IsingModel",
    "AdaptiveBulkSearch",
    "AbsConfig",
    "SolveResult",
    "solve",
    "solve_ising",
    "__version__",
]
