"""Discrete-event engine, data plane and metrics."""

from repro.sim.dataplane import DataPlaneSimulator, DataPlaneStats, Packet
from repro.sim.engine import Event, SimulationEngine, replay_smp_pipeline
from repro.sim.metrics import Counter, Histogram, MetricRegistry, Timer

__all__ = [
    "Event",
    "SimulationEngine",
    "replay_smp_pipeline",
    "DataPlaneSimulator",
    "DataPlaneStats",
    "Packet",
    "Counter",
    "Histogram",
    "MetricRegistry",
    "Timer",
]
