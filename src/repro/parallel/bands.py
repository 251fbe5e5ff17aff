"""Band-parallel distributed eigensolver: worker groups inside a fragment.

The paper's two-level hierarchy gives every fragment group ``Np`` cores,
so the all-band CG *inside one fragment* is itself distributed: each core
owns a share of the heavy per-band work, while small dense cross-band
reductions (Gram/overlap matrices, subspace rotations, Rayleigh-Ritz) run
group-wide every CG sweep.  Until this module existed the reproduction
solved each fragment's band block on a single worker, so one huge
fragment bounded the PEtot_F wall time no matter how many workers were
available — the largest-fragment floor this subsystem removes.

This is the local-machine analogue of those ``Np``-core groups, built on
the same executor machinery as the fragment and global-step task
families:

* :func:`band_slices` / :class:`BandSlice` — deterministic contiguous
  partition of a band block's rows (same block distribution as
  :func:`repro.parallel.distributed.slab_bounds`).
* :class:`BandBlockTask` / :func:`run_band_block_task` — picklable
  per-slice units of eigensolver work, executed through ``run_bands`` on
  every backend in :mod:`repro.parallel.executor`.  Two kinds exist:
  ``"apply_h"`` (the slice's rows of H·psi: the FFT-heavy kinetic +
  local-potential share plus the Kleinman-Bylander term via the blocked
  fixed-shape kernel) and ``"residual_precond"`` (the
  preconditioned-residual step of one CG sweep).  All kernels are
  **row-independent bit for bit** — elementwise products, per-band
  batched FFTs, per-row norms, and globally-aligned fixed-shape projector
  blocks — so a sliced run concatenates to exactly the full-block
  result.
* :class:`BandGroup` — the driver-side handle one grouped eigensolve
  holds: it scatters the band block into slices, pushes
  :class:`BandBlockTask` batches through the executor, gathers the rows
  back; the caller (the all-band CG on the group root) keeps the dense
  cross-band algebra on the full block.
  :func:`repro.pw.eigensolver.all_band_cg` accepts one via
  ``band_groups=``.

Why the split is drawn where it is: a *variable-shape* BLAS product is
not row-slice stable (a 1-row GEMM may dispatch to GEMV with a different
accumulation order), so the dense cross-band algebra — Gram/overlap
matrices, subspace rotations — stays on the group root operating on full
blocks of identical shape.  Per-band work rides in the slices: the FFT +
pointwise kernels are slice-stable by the verified pocketfft batching
property (the same one the slab-distributed FFT of
:mod:`repro.parallel.distributed` rests on), and so is the nonlocal KB
term — :meth:`repro.pw.hamiltonian.Hamiltonian.add_nonlocal` runs as
fixed-shape GEMMs over globally-aligned band blocks whose outputs are
content-independent per column, so any slicing reproduces the
full-block bits.
That division happens to mirror the paper's: the q-space data
parallelism scales with Np, the group-wide reductions are what erode
intra-group efficiency at large Np
(:meth:`repro.parallel.groups.GroupDecomposition.intra_group_efficiency`).

Layering: depends on :mod:`repro.core.fragment_task` (the per-process
static-problem cache keyed by task fingerprints) and :mod:`repro.pw`;
the executor backends import the task kernel from here, and the grouped
solve kernels in :mod:`repro.core.fragment_task` import
:class:`BandGroup` lazily (the same inversion `core.scf` uses for the
executors).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.fragment_task import (
    FragmentTask,
    TaskProblem,
    get_task_problem,
    potential_fingerprint,
    resolve_screening_potential,
)
from repro.parallel.amdahl import measured_intra_group_efficiency
from repro.parallel.distributed import slab_bounds


@dataclass(frozen=True)
class BandSlice:
    """One worker's contiguous share of a fragment's band block.

    Attributes
    ----------
    index:
        Slice index (0-based position within the group).
    nslices:
        Total number of slices the block is split into.
    lo, hi:
        Half-open ``[lo, hi)`` band-row range this slice owns.  Empty
        slices (``lo == hi``) are legal when there are more workers than
        bands, matching the empty trailing slabs of
        :func:`repro.parallel.distributed.slab_bounds`.
    """

    index: int
    nslices: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.nslices:
            raise ValueError("slice index out of range")
        if self.lo > self.hi:
            raise ValueError("slice bounds must satisfy lo <= hi")

    @property
    def nbands(self) -> int:
        """Number of band rows this slice owns."""
        return self.hi - self.lo


def band_slices(nbands: int, nslices: int) -> list[BandSlice]:
    """Deterministic contiguous partition of ``nbands`` rows into slices.

    The first ``nbands % nslices`` slices get one extra row — the same
    block distribution as the slab layout, so the partition depends only
    on ``(nbands, nslices)`` and every backend sees identical bounds.

    Parameters
    ----------
    nbands:
        Number of band rows to split.
    nslices:
        Number of slices (may exceed ``nbands``; trailing slices empty).

    Returns
    -------
    list[BandSlice]
        ``nslices`` slices covering ``0..nbands``.
    """
    return [
        BandSlice(index=k, nslices=nslices, lo=lo, hi=hi)
        for k, (lo, hi) in enumerate(slab_bounds(nbands, nslices))
    ]


@dataclass
class BandBlockTask:
    """One band slice's worth of eigensolver work (picklable).

    Mirrors :class:`repro.core.fragment_task.FragmentTask` and
    :class:`repro.parallel.distributed.GlobalStepTask` for the band
    layer: a self-contained description the executor backends ship to
    worker threads/processes.

    Attributes
    ----------
    kind:
        Kernel selector — ``"apply_h"`` (H·psi for the slice's rows:
        kinetic + local potential plus the Kleinman-Bylander term via
        the blocked fixed-shape kernel) or ``"residual_precond"``
        (residual, per-row norms and preconditioned residual of one CG
        sweep).
    bands:
        The :class:`BandSlice` this task covers (bookkeeping for the
        gathers, and the global band offset the blocked nonlocal kernel
        aligns to; the arrays below already carry only the slice's rows).
    template:
        The owning fragment's solve task.  Its
        :meth:`~repro.core.fragment_task.FragmentTask.static_fingerprint`
        keys the per-process static-problem cache, so pool workers build
        each fragment's basis/Hamiltonian once and reuse it for every
        slice of every sweep; the iteration's screening potential rides
        either inline (``screening_potential``) or — with the PR 6
        install channel — as a fingerprint key (``screening_key``) the
        worker resolves from its installed-potential store, so the array
        is pickled once per (fragment, iteration, worker) instead of
        once per slice per stage.  :class:`BandGroup` strips the
        (never-read) warm-start block.
    block:
        The slice's rows of the primary band block (``x`` rows for
        ``apply_h``; ``x`` rows for ``residual_precond``).
    aux:
        Second per-slice array (``hx`` rows for ``residual_precond``).
    evals:
        Per-slice eigenvalue entries (``residual_precond``).
    label:
        Display/bookkeeping label, defaulting to
        ``<fragment>:<kind>[index/nslices]``.
    """

    kind: str
    bands: BandSlice
    template: FragmentTask
    block: np.ndarray
    aux: np.ndarray | None = None
    evals: np.ndarray | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = (
                f"{self.template.label}:{self.kind}"
                f"[{self.bands.index}/{self.bands.nslices}]"
            )

    def cost(self) -> float:
        """Relative cost for LPT scheduling (rows x plane waves)."""
        return float(self.block.size)

    def with_potential_payload(self, key: str, payload: np.ndarray) -> "BandBlockTask":
        """Copy of this task with the installed potential attached inline.

        The executor's retry path for
        :class:`~repro.core.fragment_task.PotentialNotInstalledError`;
        returns ``self`` unchanged when the key does not match.
        """
        t = self.template
        if t.screening_key != key or t.screening_potential is not None:
            return self
        return replace(self, template=replace(t, screening_potential=payload))


@dataclass
class BandBlockResult:
    """Result of one executed band-slice task.

    Attributes
    ----------
    label:
        The task's label.
    index:
        Slice index, so gathers can re-order results defensively.
    data:
        The kernel's primary output rows (H_local·x slice, or the
        preconditioned residual ``w`` slice).
    extra:
        Secondary per-row output (``residual_precond`` returns the
        residual norms here); ``None`` otherwise.
    wall_time:
        In-worker wall-clock seconds of the kernel.
    worker_pid:
        PID of the process that executed the task.
    """

    label: str
    index: int
    data: np.ndarray
    extra: np.ndarray | None
    wall_time: float
    worker_pid: int


def run_band_block_task(
    task: BandBlockTask, problem: TaskProblem | None = None
) -> BandBlockResult:
    """Execute one band-slice task — the shared per-slice eigensolver kernel.

    Like :func:`repro.core.fragment_task.solve_fragment_task` for whole
    fragments, this runs identically in the calling process and inside
    pool workers; every backend's ``run_bands`` dispatches here.

    Concurrency note: unlike the whole-fragment kernel this does **not**
    take the problem lock — all slices of one grouped solve install the
    *same* screening potential (an idempotent assignment), and the
    orchestrating :class:`BandGroup` owns the fragment's problem for the
    duration of the solve (grouped solves run one fragment at a time).

    Parameters
    ----------
    task:
        The per-slice work unit; unknown ``kind`` values raise
        ``ValueError``.
    problem:
        Optional pre-built static problem, bypassing the per-process
        cache lookup.

    Returns
    -------
    BandBlockResult
        The transformed rows (plus per-row extras), with wall time and
        worker PID for the timing accounting.
    """
    t0 = time.perf_counter()
    if problem is None:
        problem = get_task_problem(task.template)
    if task.kind == "apply_h":
        h = problem.hamiltonian
        # Raises PotentialNotInstalledError for an uninstalled key — the
        # executor retries this task with the payload attached.
        v_screen = resolve_screening_potential(task.template)
        # Idempotent across the slices of one grouped solve (same array).
        h.set_effective_potential(v_screen)
        cblock = np.asarray(task.block, dtype=complex)
        data = h.apply_local(cblock)
        # Blocked fixed-shape KB kernel aligned to the GLOBAL band index —
        # concatenated slices match the full-block bits.
        h.add_nonlocal(data, cblock, band_offset=task.bands.lo)
        extra = None
    elif task.kind == "residual_precond":
        precond = problem.hamiltonian.preconditioner()
        r = task.aux - task.evals[:, None] * task.block
        extra = np.linalg.norm(r, axis=1)
        data = r * precond[None, :]
    else:
        raise ValueError(f"unknown band task kind {task.kind!r}")
    return BandBlockResult(
        label=task.label,
        index=task.bands.index,
        data=data,
        extra=extra,
        wall_time=time.perf_counter() - t0,
        worker_pid=os.getpid(),
    )


@runtime_checkable
class BandGroupExecutor(Protocol):
    """A fragment-execution backend that also runs band-slice tasks.

    All backends in :mod:`repro.parallel.executor` implement this;
    ``run_bands`` takes a batch of :class:`BandBlockTask` and returns an
    execution report whose ``results`` are :class:`BandBlockResult`
    objects in task order (the deterministic slice order the gathers
    rely on).
    """

    n_workers: int

    def run_bands(self, tasks: Sequence[BandBlockTask]):
        """Execute a batch of per-slice band tasks.

        Parameters
        ----------
        tasks:
            One :class:`BandBlockTask` per slice of one stage.

        Returns
        -------
        ExecutionReport
            With ``results`` (:class:`BandBlockResult`) in task order.
        """
        ...


@dataclass
class BandGroupStats:
    """Accounting of one grouped eigensolve (per fragment).

    Attributes
    ----------
    nslices:
        Band-slice count (the local analogue of Np cores per group).
    stages:
        Number of sliced stages the solve dispatched (H·psi applications
        plus residual/precondition steps — each stage is one
        ``run_bands`` batch of ``nslices`` tasks).
    submissions:
        Total band tasks submitted (``stages * nslices``).
    task_times:
        In-worker wall time of every band task, in submission order —
        the parallel bucket of the Amdahl accounting.
    """

    nslices: int
    stages: int = 0
    submissions: int = 0
    task_times: list[float] = field(default_factory=list)

    @property
    def task_cpu(self) -> float:
        """Summed in-worker band-task time (serial-equivalent cost)."""
        return float(sum(self.task_times))

    def intra_group_efficiency(self, wall_time: float) -> float:
        """Measured intra-group efficiency of this solve.

        Delegates to
        :func:`repro.parallel.amdahl.measured_intra_group_efficiency`
        (``task_cpu / (nslices * wall_time)``) — the measured
        counterpart of the modelled
        :meth:`repro.parallel.groups.GroupDecomposition.intra_group_efficiency`:
        1.0 means the group's workers were busy with sliced work for the
        whole solve; the gap is root-side dense algebra plus dispatch
        overhead (the analogue of the paper's group-wide reductions).
        """
        return measured_intra_group_efficiency(
            self.task_cpu, wall_time, self.nslices
        )


class BandGroup:
    """Driver-side handle of one band-parallel eigensolve.

    Bound to one fragment's solve task and an executor, this is what
    :func:`repro.pw.eigensolver.all_band_cg` receives as ``band_groups=``:
    the solver calls :meth:`apply_h` and :meth:`residual_precond` instead
    of touching the Hamiltonian directly, and this class scatters the
    block rows into :class:`BandBlockTask` batches and gathers the
    results in slice order.  When the executor has ``install_state`` the
    screening potential is installed once per worker and stripped from
    the shipped template, which then carries only its fingerprint key.

    Parameters
    ----------
    executor:
        Backend implementing :class:`BandGroupExecutor` (``run_bands``).
    nslices:
        Number of band slices — the local analogue of the paper's Np
        cores per fragment group.
    template:
        The fragment's solve task (must carry a real
        ``screening_potential`` or an installed ``screening_key``);
        shipped with every band task so pool workers can reach the
        cached static problem.
    """

    def __init__(
        self,
        executor: BandGroupExecutor,
        nslices: int,
        template: FragmentTask,
    ) -> None:
        if nslices < 1:
            raise ValueError("nslices must be positive")
        if not hasattr(executor, "run_bands"):
            raise TypeError(
                f"band groups need an executor with run_bands(); "
                f"{type(executor).__name__} does not provide one"
            )
        self.executor = executor
        self.nslices = int(nslices)
        # Every band task of every stage ships this template (the process
        # backend pickles it each time), so drop the warm-start block —
        # neither band kernel reads it, and it is the largest field after
        # the screening potential, which the install channel strips next.
        self.template = replace(template, initial_coefficients=None)
        if (
            hasattr(executor, "install_state")
            and self.template.screening_potential is not None
        ):
            v = np.asarray(self.template.screening_potential)
            key = potential_fingerprint(v)
            executor.install_state(key, v)
            self.template = replace(
                self.template, screening_potential=None, screening_key=key
            )
        self.stats = BandGroupStats(nslices=self.nslices)

    # ------------------------------------------------------------------
    def _run_stage(
        self,
        kind: str,
        block: np.ndarray,
        aux: np.ndarray | None = None,
        evals: np.ndarray | None = None,
    ) -> list[BandBlockResult]:
        """Scatter one block into slice tasks, run them, gather in order."""
        tasks = [
            BandBlockTask(
                kind=kind,
                bands=s,
                template=self.template,
                block=block[s.lo : s.hi],
                aux=None if aux is None else aux[s.lo : s.hi],
                evals=None if evals is None else evals[s.lo : s.hi],
            )
            for s in band_slices(block.shape[0], self.nslices)
        ]
        report = self.executor.run_bands(tasks)
        results = list(report.results)
        self.stats.stages += 1
        self.stats.submissions += len(tasks)
        self.stats.task_times.extend(r.wall_time for r in results)
        return results

    def apply_h(self, block: np.ndarray) -> np.ndarray:
        """Group-distributed H·psi on a band block, bit-identical to serial.

        Each slice computes its rows' *full* H·psi — kinetic + local
        potential plus its share of the Kleinman-Bylander term through
        the blocked fixed-shape kernel aligned to global band indices —
        and the root only concatenates, reproducing the single-worker
        ``h.apply`` bit for bit.
        """
        results = self._run_stage("apply_h", block)
        return np.concatenate([r.data for r in results], axis=0)

    def residual_precond(
        self, x: np.ndarray, hx: np.ndarray, evals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Group-distributed preconditioned-residual step of one CG sweep.

        Each slice forms its rows' residual ``r = hx - evals x``, the
        per-row norms and the preconditioned residual ``r * K`` — all
        row-independent — and the root gathers them in slice order.

        Returns
        -------
        tuple[np.ndarray, np.ndarray]
            ``(w, rnorm)`` exactly as the serial path computes them.
        """
        results = self._run_stage("residual_precond", x, aux=hx, evals=evals)
        w = np.concatenate([r.data for r in results], axis=0)
        rnorm = np.concatenate([r.extra for r in results], axis=0)
        return w, rnorm
