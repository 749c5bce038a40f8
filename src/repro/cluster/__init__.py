"""Simulated distributed machine: nodes, network model, simulated MPI."""

from .buffers import (
    ArenaStats,
    FetchArena,
    arena_stats,
    process_arena,
    reset_arenas,
)
from .faults import (
    FaultConfig,
    FaultPlan,
    ResilienceStats,
    compile_faults,
    reset_resilience_stats,
    resilience_stats,
)
from .machine import (
    DEFAULT_NODE_MEMORY,
    FAULT_PRESSURE_LABEL,
    MEMORY_SCALE,
    Cluster,
    MachineConfig,
    MemoryLedger,
    SimNode,
)
from .network import ComputeModel, NetworkModel
from .simmpi import (
    MAX_RECORDED_EVENTS,
    CommEvent,
    SimMPI,
    TrafficStats,
)

__all__ = [
    "ArenaStats",
    "CommEvent",
    "Cluster",
    "ComputeModel",
    "DEFAULT_NODE_MEMORY",
    "FAULT_PRESSURE_LABEL",
    "FaultConfig",
    "FaultPlan",
    "FetchArena",
    "MEMORY_SCALE",
    "MachineConfig",
    "MAX_RECORDED_EVENTS",
    "MemoryLedger",
    "NetworkModel",
    "ResilienceStats",
    "SimMPI",
    "SimNode",
    "TrafficStats",
    "arena_stats",
    "compile_faults",
    "process_arena",
    "reset_arenas",
    "reset_resilience_stats",
    "resilience_stats",
]
