"""Measurement harnesses: search rate, time-to-solution, efficiency.

These implement the paper's two evaluation metrics (§4): *search rate*
(solutions evaluated per second, Definition 1 over wall-clock time) and
*time-to-solution* (time until a target energy is reached, averaged
over repeated runs — the paper uses ten).  :mod:`.efficiency` measures
operations-per-solution for the Algorithm 1–4 ladder, turning the
Lemma 1–3 / Theorem 1 claims into data.
"""

from repro.metrics.efficiency import EfficiencyPoint, measure_efficiency
from repro.metrics.landscape import (
    descent_statistics,
    escape_radius,
    fitness_distance_correlation,
    local_minimum_fraction,
    random_walk_autocorrelation,
)
from repro.metrics.search_rate import RateMeasurement, measure_engine_rate, measure_solver_rate
from repro.metrics.sweep import SweepPoint, best_point, render_sweep, sweep
from repro.metrics.tts import TtsResult, time_to_solution

__all__ = [
    "random_walk_autocorrelation",
    "local_minimum_fraction",
    "fitness_distance_correlation",
    "descent_statistics",
    "escape_radius",
    "sweep",
    "SweepPoint",
    "render_sweep",
    "best_point",
    "RateMeasurement",
    "measure_engine_rate",
    "measure_solver_rate",
    "TtsResult",
    "time_to_solution",
    "EfficiencyPoint",
    "measure_efficiency",
]
