"""SwitchFlow core: run context, jobs, gates, policies, preemption."""

from repro.core.config import ConfigError, SwitchFlowConfig
from repro.core.context import DEFAULT_TEMPORARY_WORKERS, RunContext, make_context
from repro.core.gate import DeviceGate
from repro.core.job import PRIORITY_HIGH, PRIORITY_LOW, JobHandle
from repro.core.options import (
    RunOptions,
    RunOptionsError,
    current_options,
    use_options,
)
from repro.core.policy import ComputeGrant, SchedulingPolicy
from repro.core.switchflow import SwitchFlowPolicy

__all__ = [
    "ComputeGrant",
    "ConfigError",
    "SwitchFlowConfig",
    "DEFAULT_TEMPORARY_WORKERS",
    "DeviceGate",
    "JobHandle",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "RunContext",
    "RunOptions",
    "RunOptionsError",
    "SchedulingPolicy",
    "SwitchFlowPolicy",
    "current_options",
    "make_context",
    "use_options",
]
