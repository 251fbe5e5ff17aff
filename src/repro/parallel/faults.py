"""Deterministic fault injection for the executor failure model.

The remote backend's robustness claims — every failure mode ends in a
bit-identical result or a loud typed error, never a hang or silent
corruption — are only worth something if the failures are reproducible.
This module provides seeded, deterministic fault injectors at both ends
of the wire:

* :class:`FaultPlan` + :class:`FlakyWorker` — server-side faults: a
  :class:`repro.parallel.remote.WorkerServer` that kills itself, drops
  the connection, or delays its reply at configured task indices.
* :class:`FlakyExecutor` — driver-side faults: wraps any local executor
  (including its band-group ``partition`` children) and raises
  :class:`repro.parallel.remote.WorkerDiedError` or sleeps at
  configured batch indices, so SCF-level healing (mid-iteration partial
  replay, group restarts) can be tested without sockets.

Both are plain counters over served work — no wall-clock or RNG state
leaks into the injected schedule, so a failing test replays exactly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.parallel.remote import (
    WorkerDiedError,
    WorkerServer,
    _DropConnection,
    _KillWorker,
)

__all__ = ["FaultPlan", "FlakyExecutor", "FlakyWorker"]


@dataclass
class FaultPlan:
    """What goes wrong, and exactly when (by served-task index).

    Attributes
    ----------
    kill_at:
        Task indices at which the worker dies: the whole server stops
        and the connection closes without a reply (the driver sees a
        dead worker and resubmits elsewhere).
    drop_at:
        Task indices at which only the connection drops; the server
        survives, the driver sees a mid-task connection loss.
    delay_at:
        Task index -> seconds to sleep before replying (drive it past
        the driver's ``request_timeout`` to simulate a hung worker).

    Indices count tasks *served by this worker* (0-based), not batch
    positions — with several workers racing over one queue, pin the
    faulty worker's schedule, not the global one, for determinism.
    """

    kill_at: Sequence[int] = ()
    drop_at: Sequence[int] = ()
    delay_at: Mapping[int, float] = field(default_factory=dict)

    def apply(self, index: int) -> None:
        """Inject the configured fault for served-task ``index`` (if any)."""
        delay = self.delay_at.get(index)
        if delay:
            time.sleep(delay)
        if index in self.kill_at:
            raise _KillWorker()
        if index in self.drop_at:
            raise _DropConnection()


class FlakyWorker(WorkerServer):
    """A :class:`WorkerServer` that fails on schedule.

    Parameters
    ----------
    plan:
        The :class:`FaultPlan` consulted before every task reply.
    host, port:
        Passed through to :class:`WorkerServer`.
    """

    def __init__(self, plan: FaultPlan, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host=host, port=port, fault_plan=plan)


class FlakyExecutor:
    """Wrap a local executor with deterministic driver-side failures.

    Counts the batches flowing through each ``run*`` protocol and each
    ``submit_*`` futures call (one counter across all six; a
    ``submit_pipeline_batch`` call is one batch, a ``submit_global``
    call is one batch of one task) and, at the configured batch indices,
    raises ``error_type`` *instead of* dispatching — the sharpest model
    of a worker group dying between submissions.  ``delay_at`` sleeps
    before dispatching instead.  Everything else (counters, install
    channel, worker count) delegates to the wrapped executor, and
    :meth:`partition` wraps the inner executor's children so one band
    group can be made flaky while its siblings stay healthy.

    Parameters
    ----------
    inner:
        Any executor from :mod:`repro.parallel.executor` (or a
        partition child of one).
    kill_at:
        Batch indices (0-based, per this wrapper) that raise.
    delay_at:
        Batch index -> seconds to sleep before dispatching.
    kill_group:
        When set, :meth:`partition` gives the fault schedule only to
        the child with this group index; other children run clean.
        When ``None`` (default), every child inherits the full plan.
    error_type:
        Exception class raised at ``kill_at`` indices.
    """

    def __init__(
        self,
        inner,
        kill_at: Sequence[int] = (),
        delay_at: Mapping[int, float] | None = None,
        kill_group: int | None = None,
        error_type=WorkerDiedError,
    ) -> None:
        self.inner = inner
        self.kill_at = tuple(int(i) for i in kill_at)
        self.delay_at = dict(delay_at or {})
        self.kill_group = kill_group
        self.error_type = error_type
        self.batches = 0
        self._lock = threading.Lock()
        self._partitions: dict[int, list] = {}

    # -- fault core ----------------------------------------------------
    def _tick(self) -> None:
        with self._lock:
            index = self.batches
            self.batches += 1
        delay = self.delay_at.get(index)
        if delay:
            time.sleep(delay)
        if index in self.kill_at:
            raise self.error_type(
                f"injected fault: batch {index} of {type(self.inner).__name__}"
            )

    # -- executor protocol ---------------------------------------------
    @property
    def n_workers(self) -> int:
        """The wrapped executor's worker count (a protocol member, so it
        must be visible to ``isinstance`` checks, not only ``__getattr__``)."""
        return self.inner.n_workers

    def run(self, tasks):
        """Dispatch a solve batch unless this batch index is scheduled to fail."""
        self._tick()
        return self.inner.run(tasks)

    def run_pipeline(self, tasks):
        """Dispatch a pipeline batch unless scheduled to fail."""
        self._tick()
        return self.inner.run_pipeline(tasks)

    def run_global(self, tasks):
        """Dispatch a global-step batch unless scheduled to fail."""
        self._tick()
        return self.inner.run_global(tasks)

    def run_bands(self, tasks):
        """Dispatch a band-slice batch unless scheduled to fail."""
        self._tick()
        return self.inner.run_bands(tasks)

    def submit_pipeline_batch(self, tasks):
        """Submit a pipeline batch for futures unless scheduled to fail."""
        self._tick()
        return self.inner.submit_pipeline_batch(tasks)

    def submit_global(self, task):
        """Submit one global-step task for a future unless scheduled to fail."""
        self._tick()
        return self.inner.submit_global(task)

    def partition(self, ngroups: int):
        """Partition the inner executor, wrapping the chosen children.

        With ``kill_group`` set only that child gets the fault plan.
        Wrappers are cached per ``ngroups`` (like the inner partition),
        so their batch counters — and hence the fault schedule — span
        the whole run, not one iteration.
        """
        cached = self._partitions.get(ngroups)
        if cached is not None:
            return cached
        children = self.inner.partition(ngroups)
        wrapped = []
        for g, child in enumerate(children):
            if self.kill_group is None or g == self.kill_group:
                wrapped.append(
                    FlakyExecutor(
                        child,
                        kill_at=self.kill_at,
                        delay_at=self.delay_at,
                        error_type=self.error_type,
                    )
                )
            else:
                wrapped.append(child)
        self._partitions[ngroups] = wrapped
        return wrapped

    def __getattr__(self, name):
        # Counters, install_state, n_workers, close, ... all delegate.
        return getattr(self.inner, name)
