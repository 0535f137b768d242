"""Open-loop inference-serving front-end (paper §3.3 workloads).

The pieces, front to back: :mod:`~repro.serving.arrivals` generates
deterministic open-loop arrival traces from named RNG streams;
:mod:`~repro.serving.admission` bounds the queue and sheds load;
:mod:`~repro.serving.batcher` closes size/timeout batches;
:mod:`~repro.serving.frontend` dispatches each batch through the
scheduling policy as one executor-subgraph run and holds the stream to
its :mod:`~repro.serving.slo` target.
"""

from repro.serving.admission import (
    AdmissionOutcome,
    AdmissionQueue,
    Request,
    SHED_POLICIES,
)
from repro.serving.arrivals import (
    ArrivalTrace,
    KINDS as TRACE_KINDS,
    bursty_trace,
    diurnal_trace,
    make_trace,
    poisson_trace,
)
from repro.serving.batcher import Batch, CLOSE_REASONS, RequestBatcher
from repro.serving.config import (
    ServingConfig,
    ServingConfigError,
)
from repro.serving.frontend import (
    ServedModelSpec,
    ServingFrontEnd,
    ServingResult,
    ServingStats,
    run_serving,
)
from repro.serving.slo import SLOTarget

__all__ = [
    "AdmissionOutcome",
    "AdmissionQueue",
    "ArrivalTrace",
    "Batch",
    "CLOSE_REASONS",
    "RequestBatcher",
    "Request",
    "SHED_POLICIES",
    "SLOTarget",
    "ServedModelSpec",
    "ServingConfig",
    "ServingConfigError",
    "ServingFrontEnd",
    "ServingResult",
    "ServingStats",
    "TRACE_KINDS",
    "bursty_trace",
    "diurnal_trace",
    "make_trace",
    "poisson_trace",
    "run_serving",
]
