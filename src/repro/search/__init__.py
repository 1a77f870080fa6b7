"""Local-search algorithms (paper §2) and classical baselines.

The paper develops a ladder of local searches distinguished by their
*search efficiency* (Definition 1: operations spent per evaluated
solution):

====================  =======================  ============================
Module                Paper                    Search efficiency
====================  =======================  ============================
:mod:`.naive`         Algorithm 1              O(n²)       (Lemma 1)
:mod:`.onestep`       Algorithm 2              O(n + n²/m) (Lemma 2)
:mod:`.deltasearch`   Algorithm 3              O(n)        (Lemma 3)
:mod:`.bulk`          Algorithm 4 (proposed)   O(1)        (Theorem 1)
:mod:`.straight`      Algorithm 5 (straight)   O(1) amortized
====================  =======================  ============================

:mod:`.sa` and :mod:`.tabu` are the classical baselines used in the
Table 3 comparison; :mod:`.exact` provides ground truth for small n.
Every algorithm counts its arithmetic work so the Lemma/Theorem scaling
claims can be verified empirically (``benchmarks/bench_ablation_efficiency``).
"""

from repro.search.accept import AcceptRule, AlwaysAccept, DescentAccept, MetropolisAccept
from repro.search.base import LocalSearch, SearchRecord
from repro.search.bulk import BulkLocalSearch
from repro.search.deltasearch import DeltaLocalSearch
from repro.search.exact import ExactSolution, solve_exact
from repro.search.naive import NaiveLocalSearch
from repro.search.onestep import OneStepLocalSearch
from repro.search.policies import (
    GreedyPolicy,
    RandomPolicy,
    SelectionPolicy,
    WindowMinDeltaPolicy,
)
from repro.search.sa import CoolingSchedule, GeometricSchedule, LinearSchedule, SimulatedAnnealing
from repro.search.straight import straight_search
from repro.search.tabu import TabuSearch

__all__ = [
    "LocalSearch",
    "SearchRecord",
    "NaiveLocalSearch",
    "OneStepLocalSearch",
    "DeltaLocalSearch",
    "BulkLocalSearch",
    "straight_search",
    "SelectionPolicy",
    "WindowMinDeltaPolicy",
    "GreedyPolicy",
    "RandomPolicy",
    "AcceptRule",
    "AlwaysAccept",
    "DescentAccept",
    "MetropolisAccept",
    "SimulatedAnnealing",
    "CoolingSchedule",
    "GeometricSchedule",
    "LinearSchedule",
    "TabuSearch",
    "solve_exact",
    "ExactSolution",
]
