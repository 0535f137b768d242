"""The fault-plan DSL: what to break, when, and how hard.

A :class:`FaultPlan` is a declarative, JSON-serializable list of
:class:`FaultSpec` entries plus one :class:`RecoveryConfig`. Each spec
names a fault *kind*, a *trigger*, and kind-specific parameters:

``kernel_stall`` / ``kernel_slowdown``
    Site-scoped: evaluated at every GPU kernel launch of a matching
    (job, device). A stall adds ``stall_ms`` to the kernel; a slowdown
    multiplies its work by ``factor``.
``transfer_fail``
    Site-scoped: evaluated at every state-migration transfer attempt.
    The attempt fails and the resource manager retries with capped
    exponential backoff.
``job_crash``
    Site-scoped: evaluated at every iteration boundary of a matching
    job (``on="iteration"``), or armed by each preemption of the job
    (``on="preempt"``) and realized at its next safe point. The driver
    restarts the job from its last checkpointed iteration.
``device_oom``
    Clock-scoped: at the trigger time a ballast allocation seizes
    ``fraction`` of the matching device's free memory for
    ``duration_ms`` — jobs that allocate inside the window hit the
    genuine :class:`~repro.hw.memory.OutOfMemoryError` path.
``spurious_preempt``
    Clock-scoped: at the trigger time the bound policy preempts the
    current holder of every matching device gate with no requester
    behind it.

Triggers come in four shapes — exactly one per spec:

* ``{"at_ms": T}`` — once. Clock-scoped kinds fire at simulated time
  ``T``; site-scoped kinds fire at the first matching site at or after
  ``T``.
* ``{"every_ms": P}`` — periodically, clock-scoped kinds only.
* ``{"every_n": N}`` — every Nth matching site, site-scoped kinds only.
* ``{"probability": p}`` — per matching site, drawn from a named
  stream of the run's :class:`~repro.sim.rng.RngRegistry`; identical
  plan + seed therefore reproduces the identical fault schedule.

Everything is deterministic: no wall clock, no global RNG.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Kinds evaluated at hook call sites inside the runtime.
SITE_KINDS = ("kernel_stall", "kernel_slowdown", "transfer_fail",
              "job_crash")
#: Kinds scheduled on the engine clock by the injector.
CLOCK_KINDS = ("device_oom", "spurious_preempt")
KINDS = SITE_KINDS + CLOCK_KINDS

PathLike = Union[str, Path]


class FaultPlanError(ValueError):
    """A fault plan failed validation."""


def _check_number(where: str, name: str, value: Any,
                  integral: bool = False) -> None:
    """Reject a non-number (bools included) or a non-finite one, and a
    non-integer where ``integral`` asks for a count."""
    try:
        valid = (not isinstance(value, bool)
                 and isinstance(value, int if integral else (int, float))
                 and math.isfinite(value))
    except OverflowError:  # an int beyond float range
        valid = False
    if not valid:
        expected = "an integer" if integral else "a finite number"
        raise FaultPlanError(f"{where}: {name} must be {expected}, "
                             f"got {value!r}")


@dataclass(frozen=True)
class Trigger:
    """When a fault fires. Exactly one field may be set."""

    at_ms: Optional[float] = None
    every_ms: Optional[float] = None
    every_n: Optional[int] = None
    probability: Optional[float] = None

    def validate(self, kind: str, index: int) -> None:
        set_fields = [name for name in
                      ("at_ms", "every_ms", "every_n", "probability")
                      if getattr(self, name) is not None]
        where = f"faults[{index}] ({kind})"
        if len(set_fields) != 1:
            raise FaultPlanError(
                f"{where}: trigger needs exactly one of at_ms/every_ms/"
                f"every_n/probability, got {set_fields or 'none'}")
        _check_number(where, set_fields[0], getattr(self, set_fields[0]),
                      integral=set_fields[0] == "every_n")
        if self.at_ms is not None and self.at_ms < 0:
            raise FaultPlanError(f"{where}: at_ms cannot be negative")
        if self.every_ms is not None and self.every_ms <= 0:
            raise FaultPlanError(f"{where}: every_ms must be positive")
        if self.every_n is not None and self.every_n < 1:
            raise FaultPlanError(f"{where}: every_n must be >= 1")
        if self.probability is not None \
                and not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"{where}: probability must be in [0, 1]")
        if self.every_ms is not None and kind not in CLOCK_KINDS:
            raise FaultPlanError(
                f"{where}: every_ms only applies to clock-scoped kinds "
                f"{CLOCK_KINDS}")
        if kind in CLOCK_KINDS and (self.every_n is not None
                                    or self.probability is not None):
            raise FaultPlanError(
                f"{where}: clock-scoped kinds take at_ms or every_ms "
                f"triggers, not per-site ones")

    def to_dict(self) -> Dict[str, Any]:
        return {key: value for key, value in asdict(self).items()
                if value is not None}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: kind + trigger + scope + parameters."""

    kind: str
    trigger: Trigger
    #: fnmatch patterns selecting the job / device the fault applies to.
    job: str = "*"
    device: str = "*"
    #: kernel_slowdown: work-time multiplier.
    factor: float = 2.0
    #: kernel_stall: extra milliseconds added to the kernel.
    stall_ms: float = 5.0
    #: device_oom: fraction of the device's *free* bytes to seize.
    fraction: float = 0.9
    #: device_oom: how long the ballast stays resident.
    duration_ms: float = 100.0
    #: job_crash: "iteration" (check at iteration starts) or "preempt"
    #: (armed by each preemption of the job).
    on: str = "iteration"
    #: Position in the plan; names the spec's RNG stream.
    index: int = 0

    def validate(self) -> None:
        where = f"faults[{self.index}]"
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"{where}: unknown kind {self.kind!r}; expected one of "
                f"{KINDS}")
        self.trigger.validate(self.kind, self.index)
        for name in ("job", "device", "on"):
            if not isinstance(getattr(self, name), str):
                raise FaultPlanError(f"{where}: {name} must be a string")
        for name in ("factor", "stall_ms", "fraction", "duration_ms"):
            _check_number(where, name, getattr(self, name))
        if self.kind == "kernel_slowdown" and self.factor <= 0:
            raise FaultPlanError(f"{where}: factor must be positive")
        if self.kind == "kernel_stall" and self.stall_ms < 0:
            raise FaultPlanError(f"{where}: stall_ms cannot be negative")
        if self.kind == "device_oom":
            if not 0.0 < self.fraction <= 1.0:
                raise FaultPlanError(
                    f"{where}: fraction must be in (0, 1]")
            if self.duration_ms <= 0:
                raise FaultPlanError(
                    f"{where}: duration_ms must be positive")
        if self.kind == "job_crash" and self.on not in ("iteration",
                                                        "preempt"):
            raise FaultPlanError(
                f"{where}: on must be 'iteration' or 'preempt', "
                f"got {self.on!r}")

    def stream_name(self) -> str:
        """RNG stream for probabilistic draws — stable per plan slot."""
        return f"faults:{self.index}:{self.kind}"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind,
                               "trigger": self.trigger.to_dict()}
        defaults = FaultSpec(kind=self.kind, trigger=self.trigger)
        for name in ("job", "device", "factor", "stall_ms", "fraction",
                     "duration_ms", "on"):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                out[name] = value
        return out


@dataclass(frozen=True)
class RecoveryConfig:
    """How hard the runtime fights back."""

    #: Failed state transfers are retried this many times before the
    #: migration is declared failed and the victim re-admitted.
    transfer_retries: int = 4
    #: Exponential backoff between retries: min(cap, base * 2**attempt).
    backoff_base_ms: float = 4.0
    backoff_cap_ms: float = 64.0
    #: Drivers checkpoint every N completed iterations; a crashed job
    #: restarts from its last checkpoint.
    checkpoint_interval: int = 2
    #: Restarts allowed per job before a crash becomes permanent.
    max_restarts: int = 5
    #: Wait before a restarted job re-enters its loop.
    restart_delay_ms: float = 20.0
    #: Device-scoped faults before a device is marked degraded (the
    #: policy then stops preempting onto it — time-slicing fallback —
    #: and stops migrating victims there).
    degrade_after: int = 3

    def validate(self) -> None:
        for spec in fields(self):
            _check_number("recovery", spec.name, getattr(self, spec.name),
                          integral=spec.type == "int")
        if self.transfer_retries < 0:
            raise FaultPlanError("recovery.transfer_retries cannot be "
                                 "negative")
        if self.backoff_base_ms < 0 or self.backoff_cap_ms < 0:
            raise FaultPlanError("recovery backoff times cannot be "
                                 "negative")
        if self.checkpoint_interval < 1:
            raise FaultPlanError(
                "recovery.checkpoint_interval must be >= 1")
        if self.max_restarts < 0:
            raise FaultPlanError("recovery.max_restarts cannot be "
                                 "negative")
        if self.restart_delay_ms < 0:
            raise FaultPlanError(
                "recovery.restart_delay_ms cannot be negative")
        if self.degrade_after < 1:
            raise FaultPlanError("recovery.degrade_after must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class FaultPlan:
    """A validated set of faults plus the recovery configuration."""

    faults: List[FaultSpec] = field(default_factory=list)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        self.faults = [replace(spec, index=index)
                       for index, spec in enumerate(self.faults)]
        self.validate()

    def validate(self) -> None:
        for spec in self.faults:
            spec.validate()
        self.recovery.validate()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got "
                f"{type(payload).__name__}")
        unknown = set(payload) - {"faults", "recovery"}
        if unknown:
            raise FaultPlanError(
                f"unknown top-level plan keys: {sorted(unknown)}")
        entries = payload.get("faults", [])
        if not isinstance(entries, list):
            raise FaultPlanError("'faults' must be a list")
        specs = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise FaultPlanError(
                    f"faults[{index}] must be an object")
            entry = dict(entry)
            kind = entry.pop("kind", None)
            if kind is None:
                raise FaultPlanError(f"faults[{index}] is missing 'kind'")
            trigger_payload = entry.pop("trigger", None)
            if not isinstance(trigger_payload, dict):
                raise FaultPlanError(
                    f"faults[{index}] needs a 'trigger' object")
            try:
                trigger = Trigger(**trigger_payload)
            except TypeError as exc:
                raise FaultPlanError(
                    f"faults[{index}]: bad trigger: {exc}") from exc
            try:
                spec = FaultSpec(kind=kind, trigger=trigger,
                                 index=index, **entry)
            except TypeError as exc:
                raise FaultPlanError(
                    f"faults[{index}]: bad fault fields: {exc}") from exc
            specs.append(spec)
        recovery_payload = payload.get("recovery", {})
        if not isinstance(recovery_payload, dict):
            raise FaultPlanError("'recovery' must be an object")
        try:
            recovery = RecoveryConfig(**recovery_payload)
        except TypeError as exc:
            raise FaultPlanError(f"bad recovery config: {exc}") from exc
        return cls(faults=specs, recovery=recovery)

    def to_dict(self) -> Dict[str, Any]:
        return {"faults": [spec.to_dict() for spec in self.faults],
                "recovery": self.recovery.to_dict()}

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") \
                from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: PathLike) -> "FaultPlan":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {path}: {exc}") from exc
        return cls.loads(text)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def save(self, path: PathLike) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")

    # ------------------------------------------------------------------
    # Sweeping
    # ------------------------------------------------------------------
    def scaled(self, rate: float) -> "FaultPlan":
        """A copy with every trigger's intensity multiplied by ``rate``.

        ``rate=1`` is the plan as written; ``rate=0`` removes every
        fault (the control point of a sweep); ``rate=2`` doubles
        probabilities (capped at 1), halves ``every_n`` / ``every_ms``
        periods, and keeps one-shot ``at_ms`` faults as they are.
        """
        if rate < 0:
            raise FaultPlanError("rate cannot be negative")
        if rate == 0:
            return FaultPlan(faults=[], recovery=self.recovery)
        scaled: List[FaultSpec] = []
        for spec in self.faults:
            trigger = spec.trigger
            if trigger.probability is not None:
                trigger = Trigger(
                    probability=min(1.0, trigger.probability * rate))
            elif trigger.every_n is not None:
                trigger = Trigger(
                    every_n=max(1, round(trigger.every_n / rate)))
            elif trigger.every_ms is not None:
                trigger = Trigger(every_ms=trigger.every_ms / rate)
            scaled.append(replace(spec, trigger=trigger))
        return FaultPlan(faults=scaled, recovery=self.recovery)
