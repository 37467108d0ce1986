"""Typed execution options for the :mod:`repro.api` facade.

Historically every call site picked its execution strategy through
stringly-typed keyword arguments (``exec_mode="batched"``,
``kernel="merge"``) and hand-built backend objects.  This module gives
those choices a typed home:

* :class:`ExecMode`, :class:`BackendKind` and :class:`Kernel` are
  ``str``-valued enums, so they compare equal to the historical strings
  and flow through existing code unchanged;
* :class:`ExecutionOptions` bundles every knob — backend selection,
  worker count, kernel, execution mode, and the process backend's
  :class:`~repro.parallel.supervisor.FaultTolerancePolicy` and chaos
  plan — into one validated dataclass that :func:`repro.api.cluster`
  accepts.

Plain strings are still accepted everywhere an enum is expected; they
are coerced through :func:`coerce_enum`, which emits a
:class:`DeprecationWarning` pointing at the typed spelling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .cache import SimilarityStore
    from .checkpoint import CheckpointManager
    from .graph import CSRGraph
    from .parallel.backend import ProcessBackend

from .parallel.chaos import FaultPlan
from .parallel.supervisor import FaultTolerancePolicy

__all__ = [
    "ExecMode",
    "BackendKind",
    "Kernel",
    "ExecutionOptions",
    "coerce_enum",
]


def coerce_enum(value, enum_cls, *, param: str):
    """Return ``value`` as ``enum_cls``, warning when a string was passed.

    The string spellings remain valid (the enums are ``str`` subclasses,
    so downstream comparisons are unaffected) but new code should pass
    the enum member; the shim makes the migration visible without
    breaking anyone.
    """
    if value is None or isinstance(value, enum_cls):
        return value
    if isinstance(value, str):
        try:
            member = enum_cls(value)
        except ValueError:
            known = ", ".join(m.value for m in enum_cls)
            raise ValueError(
                f"unknown {param} {value!r}; known: {known}"
            ) from None
        warnings.warn(
            f"passing {param} as a string is deprecated; use "
            f"{enum_cls.__name__}.{member.name} (from repro.options)",
            DeprecationWarning,
            stacklevel=3,
        )
        return member
    raise TypeError(
        f"{param} must be a {enum_cls.__name__} or str, "
        f"not {type(value).__name__}"
    )


class ExecMode(str, Enum):
    """Arc-resolution strategy for the similarity hot path."""

    SCALAR = "scalar"  #: one early-terminating kernel call per arc
    BATCHED = "batched"  #: per-task batched resolution (vectorized)


class BackendKind(str, Enum):
    """Which execution backend runs a parallel algorithm's phases."""

    SERIAL = "serial"  #: in-process, committing after every task
    PROCESS = "process"  #: forked workers, committing at the phase barrier


class Kernel(str, Enum):
    """CompSim kernel choice (see :data:`repro.similarity.KERNELS`)."""

    MERGE = "merge"  #: scalar merge with min-max bounds (pSCAN / ppSCAN-NO)
    PIVOT = "pivot"  #: scalar pivot loop (Algorithm 6 fallback path)
    VECTORIZED = "vectorized"  #: pivot-based vectorized intersection


@dataclass(frozen=True)
class ExecutionOptions:
    """Everything about *how* an algorithm runs (never *what* it computes).

    The clustering produced is bit-identical across all settings here —
    these knobs trade performance and resilience, not correctness.

    ``backend=BackendKind.PROCESS`` builds a
    :class:`~repro.parallel.backend.ProcessBackend`: crashed or hung
    workers are detected and their tasks retried as ``policy`` (a
    :class:`~repro.parallel.supervisor.FaultTolerancePolicy`, defaults
    when ``None``) sets, with per-task deadlines scaled by modelled task
    cost.  ``chaos`` installs a deterministic
    :class:`~repro.parallel.chaos.FaultPlan` for fault-injection runs.
    """

    backend: BackendKind = BackendKind.SERIAL
    workers: int | None = None
    #: ``None`` = the algorithm's fastest exact policy (batched for
    #: ppSCAN and SCAN-XP); ``ExecMode.SCALAR`` gives the counted
    #: reference of the paper's figures.
    exec_mode: ExecMode | None = None
    kernel: Kernel | None = None  # None = each algorithm's default
    task_threshold: int | None = None
    # fault tolerance (process backend)
    policy: FaultTolerancePolicy | None = None
    chaos: FaultPlan | None = None
    #: Cross-run similarity store (see :mod:`repro.cache`): algorithms
    #: that support it reuse cached exact overlaps and record fresh ones;
    #: clustering stays bit-identical.  ``None`` disables caching.
    cache: "SimilarityStore | None" = None
    #: Durable run state (see :mod:`repro.checkpoint`): algorithms that
    #: support it snapshot their phase state through the manager and can
    #: resume a crashed run bit-identically.  ``None`` disables
    #: checkpointing.
    checkpoint: "CheckpointManager | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "backend",
            coerce_enum(self.backend, BackendKind, param="backend"),
        )
        object.__setattr__(
            self,
            "exec_mode",
            coerce_enum(self.exec_mode, ExecMode, param="exec_mode"),
        )
        object.__setattr__(
            self, "kernel", coerce_enum(self.kernel, Kernel, param="kernel")
        )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def resolved_exec_mode(self) -> ExecMode:
        """The policy an algorithm with an ``exec_mode`` runs: the one
        asked for, else the fastest exact one (batched)."""
        return self.exec_mode or ExecMode.BATCHED

    def evolve(self, **changes) -> "ExecutionOptions":
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return replace(self, **changes)

    # -- backend construction ---------------------------------------------

    def make_backend(
        self, graph: "CSRGraph | None" = None
    ) -> "ProcessBackend | None":
        """Build the configured backend for one run.

        Returns ``None`` for the serial default so that algorithms keep
        their own (serial) fallback construction — preserving the exact
        counted reference path.  Process backends get an arc-count cost
        model derived from ``graph`` (scaling per-task deadlines by
        modelled cost).
        """
        if self.backend is not BackendKind.PROCESS:
            return None
        from .parallel.backend import ProcessBackend
        from .parallel.scheduler import arc_range_cost_model

        cost_model: Callable[[int, int], float] | None = None
        if graph is not None:
            cost_model = arc_range_cost_model(graph.offsets)
        return ProcessBackend(
            self.workers,
            policy=self.policy,
            chaos=self.chaos,
            cost_model=cost_model,
        )

    def describe(self) -> dict:
        """Stable JSON-able summary of the performance-relevant knobs.

        The run ledger hashes this dict into the ``options_key`` that
        groups comparable runs for trend gating, so it must (a) contain
        every knob that can move performance and (b) be deterministic —
        live objects (stores, managers, backends, fault plans) are
        reduced to presence flags or their own stable keys, never ids.
        """
        return {
            "backend": self.backend.value,
            "workers": self.workers,
            "exec_mode": self.exec_mode.value if self.exec_mode else None,
            "kernel": self.kernel.value if self.kernel else None,
            "task_threshold": self.task_threshold,
            "chaos": self.chaos is not None,
            "cache": self.cache is not None,
            "checkpoint": self.checkpoint is not None,
        }
