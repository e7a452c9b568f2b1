"""Throughput analysis of two-message retransmission schemes over a
two-slot block-Rayleigh-fading slice: time-sharing HARQ, multi-layer
(superposed) HARQ, and raw superposition coding.

Closed-form event probabilities cross-validated by a Monte-Carlo oracle,
plus power-split / rate optimization and CSV sweep generation.
"""

from .closed_form import (
    EventProbs,
    ScProbs,
    event_probs,
    g_max,
    g_min,
    prob_p0,
    prob_p1,
    prob_p1_prime,
    prob_p2,
    prob_p2_prime,
    prob_p3,
    prob_p4,
    prob_p4_prime,
    prob_sc,
    throughput_mlh,
    throughput_sc,
    throughput_ts,
)
from .model import PowerSplit, SliceEvent, SystemConfig
from .monte_carlo import McEstimate, McReport, estimate
from .optimize import Optimum, optimize_rate_and_split, optimize_split
from .quadrature import NonConvergence, QuadratureSettings

__all__ = [
    "EventProbs",
    "McEstimate",
    "McReport",
    "NonConvergence",
    "Optimum",
    "PowerSplit",
    "QuadratureSettings",
    "ScProbs",
    "SliceEvent",
    "SystemConfig",
    "estimate",
    "event_probs",
    "g_max",
    "g_min",
    "optimize_rate_and_split",
    "optimize_split",
    "prob_p0",
    "prob_p1",
    "prob_p1_prime",
    "prob_p2",
    "prob_p2_prime",
    "prob_p3",
    "prob_p4",
    "prob_p4_prime",
    "prob_sc",
    "throughput_mlh",
    "throughput_sc",
    "throughput_ts",
]
