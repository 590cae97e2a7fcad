"""Measurement: visibility latency, response times, replica convergence.

Message counts come from ``Network.messages_sent`` and the metrics
registry's ``net_messages_total``/``bottleneck_crossings_total``."""

from repro.metrics.collector import ResponseStats, response_stats
from repro.metrics.convergence import ConvergenceReport, replica_convergence
from repro.metrics.latency import VisibilityTracker, WriteVisibility

__all__ = [
    "VisibilityTracker",
    "WriteVisibility",
    "ConvergenceReport",
    "replica_convergence",
    "ResponseStats",
    "response_stats",
]
