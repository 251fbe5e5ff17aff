"""Fragment-execution backends: serial, thread-pool and process-pool.

The paper's parallelism comes from solving independent fragments on
independent processor groups.  This module provides the local-machine
equivalents of those groups as interchangeable backends behind the
:class:`repro.core.fragment_task.FragmentExecutor` protocol:

* :class:`SerialFragmentExecutor` — one task after another in the calling
  process; the default used by :class:`repro.core.scf.LS3DFSCF`.
* :class:`ThreadPoolFragmentExecutor` — a thread pool; the heavy BLAS-3
  eigensolver work releases the GIL, so this already overlaps fragments.
* :class:`ProcessPoolFragmentExecutor` — a *persistent* process pool; one
  worker process per "group", each keeping its own static-problem cache
  alive across outer iterations (the paper's cheap-second-iteration
  property holds inside the workers).

All three call the same kernel, :func:`repro.core.fragment_task.
solve_fragment_task`, on the same picklable :class:`FragmentTask`
descriptions — there is no backend-specific solve path.  Every backend
also implements ``run_pipeline`` for fused
:class:`repro.core.fragment_task.FragmentPipelineTask` batches (restrict
-> solve -> weighted-density contribution in one worker round trip; see
:func:`repro.core.fragment_task.run_fragment_pipeline_task`),
``run_global`` for the per-slab global-step tasks of the sharded GENPOT
path (:class:`repro.parallel.distributed.GlobalStepTask` — the paper's
1D-slab layout of the Poisson/XC/mixing work; see
:func:`repro.parallel.distributed.run_global_step_task`), and
``run_bands`` for the per-slice band tasks of the band-parallel
eigensolver (:class:`repro.parallel.bands.BandBlockTask` — the paper's
Np-cores-per-group distribution of one fragment's all-band CG; see
:func:`repro.parallel.bands.run_band_block_task`).  The pool
backends order submissions heaviest-first, the greedy longest-processing-
time (LPT) heuristic :mod:`repro.parallel.scheduler` uses to balance
fragment classes whose costs differ by ~8x (1x1x1 vs 2x2x2 cells), and
attach the scheduler's predicted assignment to the report.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Sequence

import numpy as np

# Re-exported so existing `from repro.parallel.executor import ...` sites
# keep working; the canonical home is now repro.core.fragment_task.  Note
# the kernel's signature changed with the move: solve_fragment_task takes
# an optional TaskProblem (not the old return_coefficients flag — that is
# now the task's `return_coefficients` field, default True).
from repro.core.fragment_task import (
    ExecutionReport,
    FragmentExecutor,
    FragmentPipelineResult,
    FragmentPipelineTask,
    FragmentTask,
    FragmentTaskResult,
    PipelineFragmentExecutor,
    PotentialNotInstalledError,
    StackedPipelineResult,
    StackedPipelineTask,
    install_potential,
    potential_fingerprint,
    run_fragment_pipeline_task,
    run_stacked_pipeline_task,
    solve_fragment_task,
)
from repro.parallel.bands import (
    BandBlockTask,
    BandGroupExecutor,
    run_band_block_task,
)
from repro.parallel.distributed import (
    GlobalStepExecutor,
    GlobalStepTask,
    run_global_step_task,
)
from repro.parallel.scheduler import FragmentScheduler, ScheduleSummary, pack_stacks

__all__ = [
    "BandBlockTask",
    "BandGroupExecutor",
    "ExecutionReport",
    "FragmentExecutor",
    "FragmentPipelineResult",
    "FragmentPipelineTask",
    "FragmentScheduler",
    "FragmentTask",
    "FragmentTaskResult",
    "GlobalStepExecutor",
    "GlobalStepTask",
    "PipelineFragmentExecutor",
    "PotentialNotInstalledError",
    "ProcessPoolFragmentExecutor",
    "ScheduleSummary",
    "SerialFragmentExecutor",
    "StackedPipelineResult",
    "StackedPipelineTask",
    "ThreadPoolFragmentExecutor",
    "install_potential",
    "pack_stacks",
    "potential_fingerprint",
    "run_band_block_task",
    "run_fragment_pipeline_task",
    "run_global_step_task",
    "run_stacked_pipeline_task",
    "solve_fragment_task",
]


def _run_pipeline_unit(unit):
    """Kernel dispatcher for stacked pipeline batches (picklable).

    One physical submission is either a plain pipeline task or a stack of
    small ones; both run the same per-fragment kernel underneath.
    """
    if isinstance(unit, StackedPipelineTask):
        return run_stacked_pipeline_task(unit)
    return run_fragment_pipeline_task(unit)


class _ImmediateFuture:
    """A future that already completed: in-process backends run at submit.

    The streaming GENPOT engine and the overlapped Gen_dens reduce drive
    every backend through the same ``submit_*`` future surface; the
    serial executor (and single-worker pools) resolve each submission
    synchronously, so streaming degenerates to exactly the synchronous
    task order — which is what keeps it bit-identical there.
    """

    def __init__(self, result=None, error: BaseException | None = None):
        self._result = result
        self._error = error

    def done(self) -> bool:
        return True

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._result

    def add_done_callback(self, fn) -> None:
        fn(self)


class _HealingFuture:
    """Pool future wrapper that heals a missed potential install on resolve.

    ``result()`` routes through the owning executor's ``_gather`` — the
    same one-shot resubmission with the driver's payload attached that the
    batch paths use — so futures-based submission keeps the install-once
    machinery's failure mode covered.
    """

    def __init__(self, executor, future, task, kernel):
        self._executor = executor
        self._future = future
        self._task = task
        self._kernel = kernel

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout=None):
        return self._executor._gather(self._future, self._task, self._kernel)

    def add_done_callback(self, fn) -> None:
        self._future.add_done_callback(lambda _inner: fn(self))


class _StackedMemberFuture:
    """One fragment's slice of a stacked pipeline submission.

    Small-task stacking packs several fragments into one pool
    submission; the streaming consumers want one future per fragment, so
    each member resolves the shared unit future (healing included) and
    picks out its own result.
    """

    def __init__(self, unit_future: "_HealingFuture", member: int):
        self._unit_future = unit_future
        self._member = member

    def done(self) -> bool:
        return self._unit_future.done()

    def result(self, timeout=None):
        return self._unit_future.result(timeout).results[self._member]

    def add_done_callback(self, fn) -> None:
        self._unit_future.add_done_callback(lambda _inner: fn(self))


def _immediate(task, kernel) -> _ImmediateFuture:
    try:
        return _ImmediateFuture(result=kernel(task))
    except Exception as exc:  # resolved, but carrying the kernel's error
        return _ImmediateFuture(error=exc)


def _resolve_worker_count(n_workers: int | None, nworkers: int | None) -> int:
    """Merge the ``n_workers`` spelling with the legacy ``nworkers`` one."""
    n = n_workers if n_workers is not None else nworkers
    if n is not None and n < 1:
        raise ValueError("n_workers must be positive")
    return int(n or os.cpu_count() or 1)


class SerialFragmentExecutor:
    """Executes fragment tasks one after another in the calling process.

    ``tasks_submitted`` counts every *logical* task ever handed to this
    executor (plain and pipeline alike) — the bookkeeping the
    fused-pipeline tests use to assert "exactly one submission per
    fragment per iteration".  ``pool_submissions`` counts physical kernel
    invocations; serially the two coincide.
    """

    def __init__(self) -> None:
        self.n_workers = 1
        self.tasks_submitted = 0
        self.pool_submissions = 0
        self.install_broadcasts = 0
        self._counter_mutex = threading.Lock()
        self._counter_root: "SerialFragmentExecutor" = self
        self._partitions: dict[int, list["SerialFragmentExecutor"]] = {}

    @property
    def nworkers(self) -> int:
        """Worker count under the legacy spelling (same as ``n_workers``)."""
        return self.n_workers

    def _bump(self, logical: int, physical: int) -> None:
        """Thread-safely count submissions on the partition root.

        Partition children route their accounting here so the parent's
        one-submission-per-fragment/slice invariants keep holding when
        band groups run concurrently.
        """
        root = self._counter_root
        with root._counter_mutex:
            root.tasks_submitted += logical
            root.pool_submissions += physical

    def partition(self, ngroups: int) -> list["SerialFragmentExecutor"]:
        """Split into ``ngroups`` sub-executors for concurrent band groups.

        Serial children run their group's kernels in the calling (group)
        thread — concurrency then comes from the driver's per-group
        threads and the GIL-releasing BLAS underneath, the closest
        serial analogue of per-group worker pools.  All submission
        counters accumulate on this parent; partitions are cached per
        ``ngroups`` so repeated iterations reuse the same children.
        """
        if ngroups < 1:
            raise ValueError("ngroups must be positive")
        cached = self._partitions.get(ngroups)
        if cached is None:
            cached = []
            for _ in range(ngroups):
                child = SerialFragmentExecutor()
                child._counter_root = self._counter_root
                cached.append(child)
            self._partitions[ngroups] = cached
        return cached

    def install_state(self, key: str, payload: np.ndarray) -> None:
        """Install a shared potential under ``key`` (in-process store).

        The serial backend runs every kernel in the calling process, so
        one :func:`repro.core.fragment_task.install_potential` call makes
        the payload visible to all subsequent key-carrying tasks.
        """
        install_potential(key, payload)

    def run(self, tasks: Sequence[FragmentTask]) -> ExecutionReport:
        """Run fragment solve tasks sequentially via the shared kernel.

        Parameters
        ----------
        tasks:
            The batch to solve.

        Returns
        -------
        ExecutionReport
            Results in task order, ``worker_count`` 1.
        """
        return self._execute(tasks, solve_fragment_task)

    def run_pipeline(
        self, tasks: Sequence[FragmentPipelineTask]
    ) -> ExecutionReport:
        """Run fused Gen_VF -> solve -> Gen_dens tasks, one after another."""
        return self._execute(tasks, run_fragment_pipeline_task)

    def run_global(self, tasks: Sequence[GlobalStepTask]) -> ExecutionReport:
        """Run per-slab GENPOT global-step tasks, one after another."""
        return self._execute(tasks, run_global_step_task)

    def run_bands(self, tasks: Sequence[BandBlockTask]) -> ExecutionReport:
        """Run per-slice band-eigensolver tasks, one after another."""
        return self._execute(tasks, run_band_block_task)

    def submit_global(self, task: GlobalStepTask) -> _ImmediateFuture:
        """Submit one global-step task; resolves synchronously at submit.

        The future surface of the streaming GENPOT engine: serially every
        submission runs immediately in the calling process, so a stream
        degenerates to the synchronous stage order (bit-identical by
        construction) while the engine code stays backend-agnostic.
        """
        self._bump(1, 1)
        return _immediate(task, run_global_step_task)

    def submit_pipeline_batch(self, tasks: Sequence) -> list:
        """Per-fragment futures for a pipeline batch (resolved at submit)."""
        self._bump(len(tasks), len(tasks))
        return [_immediate(t, run_fragment_pipeline_task) for t in tasks]

    def _execute(self, tasks: Sequence, kernel) -> ExecutionReport:
        t0 = time.perf_counter()
        self._bump(len(tasks), len(tasks))
        results = [kernel(t) for t in tasks]
        return ExecutionReport(
            results=results,
            wall_time=time.perf_counter() - t0,
            worker_count=1,
        )

    def close(self) -> None:
        """No pool to release; provided for interface uniformity."""

    def __enter__(self) -> "SerialFragmentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _PoolFragmentExecutor:
    """Shared machinery of the thread- and process-pool backends."""

    # Process pools must push installed potentials into the workers; the
    # thread pool shares the driver's process-level store.
    _broadcast_installs = False
    _INSTALL_PAYLOAD_MAX = 64

    def __init__(
        self,
        n_workers: int | None = None,
        nworkers: int | None = None,
    ) -> None:
        self.n_workers = _resolve_worker_count(n_workers, nworkers)
        self._pool: Executor | None = None
        self._scheduler = FragmentScheduler()
        # Count of every *logical* task handed to this executor over its
        # lifetime; the pipeline tests use it to assert one submission per
        # fragment per SCF iteration.  Stacking does not change it.
        self.tasks_submitted = 0
        # Physical submissions (pool futures or fast-path kernel calls);
        # stacking makes this smaller than tasks_submitted.
        self.pool_submissions = 0
        # Install-channel broadcasts (not counted as pool submissions).
        self.install_broadcasts = 0
        # Driver-side copies of installed potentials, for the retry path
        # when a pool worker misses a broadcast (LRU-bounded).  Partition
        # children share the root's store (any group can heal any key)
        # but keep their own _broadcast_keys: each group's pool workers
        # are distinct processes and need their own broadcast.
        self._install_payloads: OrderedDict[str, np.ndarray] = OrderedDict()
        self._broadcast_keys: set[str] = set()
        self._counter_mutex = threading.Lock()
        self._counter_root: "_PoolFragmentExecutor" = self
        self._partitions: dict[int, list["_PoolFragmentExecutor"]] = {}

    def _bump(self, logical: int, physical: int) -> None:
        """Thread-safely count submissions on the partition root."""
        root = self._counter_root
        with root._counter_mutex:
            root.tasks_submitted += logical
            root.pool_submissions += physical

    def partition(self, ngroups: int) -> list["_PoolFragmentExecutor"]:
        """Split into ``ngroups`` sub-pools for concurrent band groups.

        Each child is a backend of the same type owning ``n_workers //
        ngroups`` (at least 1) of the parent's worker budget and its own
        pool — a genuinely independent per-group task queue, the local
        analogue of the paper giving every fragment group its own Np
        cores.  Children share the parent's driver-side install store
        (for healing) and route all submission counters to it; they are
        cached per ``ngroups``, so each group's worker processes — and
        their warm static-problem caches — survive across iterations.
        """
        if ngroups < 1:
            raise ValueError("ngroups must be positive")
        cached = self._partitions.get(ngroups)
        if cached is None:
            from repro.parallel.groups import partition_worker_counts

            cached = []
            for per_group in partition_worker_counts(self.n_workers, ngroups):
                child = type(self)(n_workers=per_group)
                child._counter_root = self._counter_root
                child._install_payloads = self._install_payloads
                cached.append(child)
            self._partitions[ngroups] = cached
        return cached

    @property
    def nworkers(self) -> int:
        """Worker count under the legacy spelling (same as ``n_workers``)."""
        return self.n_workers

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def install_state(self, key: str, payload: np.ndarray) -> None:
        """Install a shared potential once per worker under ``key``.

        The driver's process-level store always receives the payload
        (covering the in-process fast paths and the thread pool, whose
        workers share it); process pools additionally broadcast one
        install per worker.  A broadcast is best-effort — a busy worker
        may miss it — so key-carrying kernels raise
        :class:`repro.core.fragment_task.PotentialNotInstalledError` and
        :meth:`_gather` retries that one task with the payload attached.
        Re-installing an already-known key is a no-op.
        """
        arr = np.asarray(payload)
        root = self._counter_root
        with root._counter_mutex:
            if key in self._install_payloads:
                self._install_payloads.move_to_end(key)
            else:
                install_potential(key, arr)
                self._install_payloads[key] = arr
                while len(self._install_payloads) > self._INSTALL_PAYLOAD_MAX:
                    self._install_payloads.popitem(last=False)
        if not (self._broadcast_installs and self.n_workers > 1):
            return
        if key in self._broadcast_keys:
            return
        pool = self._ensure_pool()
        futures = [
            pool.submit(install_potential, key, arr)
            for _ in range(self.n_workers)
        ]
        for f in futures:
            f.result()
        self._broadcast_keys.add(key)
        with root._counter_mutex:
            root.install_broadcasts += self.n_workers

    def schedule(self, tasks: Sequence[FragmentTask]) -> ScheduleSummary:
        """LPT assignment of the batch onto the workers (predicted loads)."""
        return self._scheduler.schedule_tasks(tasks, self.n_workers)

    def run(self, tasks: Sequence[FragmentTask]) -> ExecutionReport:
        """Run fragment solve tasks through the pool (LPT, heaviest-first).

        Parameters
        ----------
        tasks:
            The batch to solve; batches of one (or single-worker pools)
            take the in-process fast path.

        Returns
        -------
        ExecutionReport
            Results in task order, with the scheduler's predicted
            assignment attached as ``schedule``.
        """
        return self._execute(tasks, solve_fragment_task)

    def run_pipeline(
        self, tasks: Sequence[FragmentPipelineTask]
    ) -> ExecutionReport:
        """Run fused Gen_VF -> solve -> Gen_dens tasks through the pool.

        Each fragment is one *logical* submission: the worker gathers the
        restriction, solves, and extracts the weighted interior in a
        single round trip.  With more than one worker and more than two
        tasks, the small fragments of a mixed batch are LPT-binned into
        :class:`~repro.core.fragment_task.StackedPipelineTask` stacks, so
        they share pool submissions without touching the logical-task
        accounting or any result bit.
        """
        if self.n_workers > 1 and len(tasks) > 2:
            groups = pack_stacks([t.cost() for t in tasks], self.n_workers)
            if any(len(g) > 1 for g in groups):
                return self._execute_stacked(tasks, groups)
        return self._execute(tasks, run_fragment_pipeline_task)

    def run_global(self, tasks: Sequence[GlobalStepTask]) -> ExecutionReport:
        """Run per-slab GENPOT global-step tasks through the pool.

        Each stage of the sharded global step is exactly one submission
        per slab; the report's ``results`` stay in slab order, so every
        downstream reduction sees the deterministic slab ordering that
        keeps sharded results bit-identical to the unsharded path.
        """
        return self._execute(tasks, run_global_step_task)

    def run_bands(self, tasks: Sequence[BandBlockTask]) -> ExecutionReport:
        """Run per-slice band-eigensolver tasks through the pool.

        Each sliced stage of a grouped all-band CG sweep is exactly one
        submission per band slice; ``results`` stay in slice order, so
        the group root's gathers see the deterministic row ordering that
        keeps grouped eigensolves bit-identical to single-worker ones.
        """
        return self._execute(tasks, run_band_block_task)

    def submit_global(self, task: GlobalStepTask):
        """Submit one global-step task to the pool; returns a future.

        The streaming GENPOT engine issues per-slab stage tasks the
        moment their inputs are assembled, instead of batching a whole
        stage behind a scatter barrier; single-worker pools resolve
        synchronously (the stream then replays the synchronous order).
        """
        self._bump(1, 1)
        if self.n_workers == 1:
            return _immediate(task, run_global_step_task)
        future = self._ensure_pool().submit(run_global_step_task, task)
        return _HealingFuture(self, future, task, run_global_step_task)

    def submit_pipeline_batch(self, tasks: Sequence) -> list:
        """Per-fragment futures for a pipeline batch (stacking preserved).

        The SCF loop's Gen_dens reduce consumes fragments in order while
        the batch tail is still draining; physical submissions are the
        same heaviest-first (stacked when small tasks allow) units as
        :meth:`run_pipeline`, so the pool sees an identical schedule —
        only the driver stops idling between the last submit and the
        first reduce.
        """
        if self.n_workers == 1 or len(tasks) <= 1:
            self._bump(len(tasks), len(tasks))
            return [_immediate(t, run_fragment_pipeline_task) for t in tasks]
        groups = [[i] for i in range(len(tasks))]
        if len(tasks) > 2:
            packed = pack_stacks([t.cost() for t in tasks], self.n_workers)
            if any(len(g) > 1 for g in packed):
                groups = packed
        self._bump(len(tasks), len(groups))
        units: list = [
            tasks[g[0]] if len(g) == 1 else StackedPipelineTask([tasks[i] for i in g])
            for g in groups
        ]
        order = np.argsort([u.cost() for u in units])[::-1]
        pool = self._ensure_pool()
        unit_futures: dict[int, object] = {}
        for i in order:
            gi = int(i)
            unit_futures[gi] = _HealingFuture(
                self,
                pool.submit(_run_pipeline_unit, units[gi]),
                units[gi],
                _run_pipeline_unit,
            )
        futures: list = [None] * len(tasks)
        for gi, g in enumerate(groups):
            if len(g) == 1:
                futures[g[0]] = unit_futures[gi]
            else:
                for member, idx in enumerate(g):
                    futures[idx] = _StackedMemberFuture(unit_futures[gi], member)
        return futures

    def _gather(self, future, task, kernel):
        """Resolve one future, healing a missed potential install.

        A pool worker that never received an ``install_state`` broadcast
        raises :class:`PotentialNotInstalledError`; the task is resubmitted
        once with the driver's payload attached (bit-identical bytes, so
        the result is unchanged).  Tasks without an install channel, or
        keys the driver does not hold, re-raise.
        """
        try:
            return future.result()
        except PotentialNotInstalledError as exc:
            attach = getattr(task, "with_potential_payload", None)
            payload = self._install_payloads.get(exc.key)
            if attach is None or payload is None:
                raise
            self._bump(0, 1)
            return self._ensure_pool().submit(kernel, attach(exc.key, payload)).result()

    def _execute(self, tasks: Sequence, kernel) -> ExecutionReport:
        t0 = time.perf_counter()
        self._bump(len(tasks), len(tasks))
        if self.n_workers == 1 or len(tasks) <= 1:
            results = [kernel(t) for t in tasks]
            return ExecutionReport(
                results=results,
                wall_time=time.perf_counter() - t0,
                worker_count=1,
            )
        schedule = self.schedule(tasks)
        # Submit heaviest-first: workers pulling from the shared queue then
        # realise exactly the greedy LPT balancing of the scheduler.
        order = np.argsort([t.cost() for t in tasks])[::-1]
        pool = self._ensure_pool()
        futures = {int(i): pool.submit(kernel, tasks[int(i)]) for i in order}
        results = [
            self._gather(futures[i], tasks[i], kernel) for i in range(len(tasks))
        ]
        return ExecutionReport(
            results=results,
            wall_time=time.perf_counter() - t0,
            worker_count=self.n_workers,
            schedule=schedule,
        )

    def _execute_stacked(
        self, tasks: Sequence[FragmentPipelineTask], groups: list[list[int]]
    ) -> ExecutionReport:
        """Run a pipeline batch with small tasks stacked per ``groups``.

        ``groups`` partitions the task indices (from
        :func:`repro.parallel.scheduler.pack_stacks`); singleton groups
        run the plain pipeline kernel, larger ones ride one
        :class:`~repro.core.fragment_task.StackedPipelineTask` submission
        and are flattened back so ``results`` stays in task order —
        reports are indistinguishable from unstacked runs apart from the
        physical ``pool_submissions`` count.
        """
        t0 = time.perf_counter()
        self._bump(len(tasks), len(groups))
        units: list = [
            tasks[g[0]] if len(g) == 1 else StackedPipelineTask([tasks[i] for i in g])
            for g in groups
        ]
        schedule = self._scheduler.schedule_tasks(units, self.n_workers)
        order = np.argsort([u.cost() for u in units])[::-1]
        pool = self._ensure_pool()
        futures = {
            int(i): pool.submit(_run_pipeline_unit, units[int(i)]) for i in order
        }
        results: list = [None] * len(tasks)
        for gi, g in enumerate(groups):
            res = self._gather(futures[gi], units[gi], _run_pipeline_unit)
            if len(g) == 1:
                results[g[0]] = res
            else:
                for idx, r in zip(g, res.results):
                    results[idx] = r
        return ExecutionReport(
            results=results,
            wall_time=time.perf_counter() - t0,
            worker_count=self.n_workers,
            schedule=schedule,
        )

    def close(self) -> None:
        """Shut the pool down; a later :meth:`run` transparently restarts it.

        Cached partition children (and their pools) are closed too.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        partitions, self._partitions = self._partitions, {}
        for children in partitions.values():
            for child in children:
                child.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


class ThreadPoolFragmentExecutor(_PoolFragmentExecutor):
    """Executes fragment tasks concurrently in a thread pool.

    Threads share the per-process static-problem cache, so nothing is
    rebuilt, and the BLAS-3 block operations dominating the eigensolver
    release the GIL — fragments genuinely overlap.

    Parameters
    ----------
    n_workers:
        Number of worker threads ("groups"); defaults to the CPU count.
    """

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(max_workers=self.n_workers)


class ProcessPoolFragmentExecutor(_PoolFragmentExecutor):
    """Executes fragment tasks concurrently in a persistent process pool.

    The pool is created on first use and kept alive across :meth:`run`
    calls, so every worker's static-problem cache (and hence the cheap
    second LS3DF iteration) survives from one outer iteration to the
    next.  Call :meth:`close` (or use as a context manager) to release
    the workers.

    Parameters
    ----------
    n_workers:
        Number of worker processes ("groups"); defaults to the CPU count.
        The legacy spelling ``nworkers`` is also accepted.
    """

    _broadcast_installs = True

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.n_workers)
