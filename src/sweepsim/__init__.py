"""Deterministic multi-UAV sweep-coverage simulator and benchmark harness."""

from .arena import ArenaSpec
from .harness import (
    DECENTRALIZED,
    STRATEGIES,
    ExperimentConfig,
    PlacementSpec,
    build_world,
    export,
    place_decentralized,
    run_experiment,
)
from .metrics import RunRecord, StrategySummary, cpr, lcu, summarize, tcu, uniformity
from .world import AgentState, SimConfig, World, agent_stream, harness_stream

__all__ = [
    "AgentState",
    "ArenaSpec",
    "DECENTRALIZED",
    "ExperimentConfig",
    "PlacementSpec",
    "RunRecord",
    "STRATEGIES",
    "SimConfig",
    "StrategySummary",
    "World",
    "agent_stream",
    "build_world",
    "cpr",
    "export",
    "harness_stream",
    "lcu",
    "place_decentralized",
    "run_experiment",
    "summarize",
    "tcu",
    "uniformity",
]
