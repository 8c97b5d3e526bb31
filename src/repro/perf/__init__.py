"""Analytic performance models: the measurement substitute for Frontier.

These closed-form models regenerate every memory/throughput figure in the
paper; small-scale real runs (memory tracker + FLOP counter) validate them
in ``tests/test_perf_models.py``.
"""

from .autotune import (
    ReplaySweep,
    TunedPlan,
    search_configurations,
    simulated_overlaps,
    sweep_replay,
)
from .clock import CommInterval, ComputeInterval, VirtualClock
from .cost import CostModel
from .figures import FIGURE_BATCH
from .comm_model import (
    CommBreakdown,
    CommEvent,
    estimate_step_comm,
    step_comm_schedule,
)
from .flops import TRAIN_MULT, FlopsBreakdown, estimate_flops, useful_flops_per_step
from .machine import GiB, MachineSpec, frontier
from .overlap import (
    OVERLAP_PHASES,
    BucketExposure,
    DerivedOverlaps,
    OverlapReport,
    derive_bucket_exposures,
    derive_overlap,
    derive_overlaps,
)
from .memory_model import MemoryBreakdown, estimate_memory
from .modelcfg import MODEL_ZOO, ModelConfig, named_model, transformer_param_count
from .plan import ParallelPlan, Precision, Workload
from .schedule import (
    CapturedSchedule,
    ReplayProgram,
    ReplayResult,
    ReplayVariant,
    ScheduleEvent,
    ScheduleReplayError,
    replay,
    replay_many,
)
from .throughput import (
    StepEstimate,
    batch_efficiency,
    estimate_step,
    global_batch_throughput,
    max_batch_per_replica,
    sustained_estimate,
    throughput_gain,
)

__all__ = [
    "FIGURE_BATCH",
    "TunedPlan",
    "search_configurations",
    "MachineSpec",
    "frontier",
    "GiB",
    "ModelConfig",
    "named_model",
    "MODEL_ZOO",
    "transformer_param_count",
    "ParallelPlan",
    "Precision",
    "Workload",
    "MemoryBreakdown",
    "estimate_memory",
    "FlopsBreakdown",
    "estimate_flops",
    "useful_flops_per_step",
    "TRAIN_MULT",
    "CommBreakdown",
    "CommEvent",
    "estimate_step_comm",
    "step_comm_schedule",
    "CostModel",
    "VirtualClock",
    "ComputeInterval",
    "CommInterval",
    "OVERLAP_PHASES",
    "BucketExposure",
    "DerivedOverlaps",
    "OverlapReport",
    "derive_bucket_exposures",
    "derive_overlap",
    "derive_overlaps",
    "simulated_overlaps",
    "CapturedSchedule",
    "ScheduleEvent",
    "ScheduleReplayError",
    "ReplayResult",
    "ReplayVariant",
    "ReplayProgram",
    "replay",
    "replay_many",
    "ReplaySweep",
    "sweep_replay",
    "StepEstimate",
    "estimate_step",
    "throughput_gain",
    "sustained_estimate",
    "global_batch_throughput",
    "batch_efficiency",
    "max_batch_per_replica",
]
