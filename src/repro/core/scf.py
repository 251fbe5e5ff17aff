"""The LS3DF outer self-consistent loop (Figure 2 of the paper).

Every iteration performs the four steps Gen_VF -> PEtot_F -> Gen_dens ->
GENPOT.  In the paper all three per-fragment steps are embarrassingly
parallel, not just the solves; only the small GENPOT Poisson solve is
serial.  The loop reproduces that with one data path: Gen_VF, the
Kohn-Sham solve and the Gen_dens contribution of each fragment are fused
into one :class:`~repro.core.fragment_task.FragmentPipelineTask` (a
single executor round trip), submitted through the backend's
``submit_pipeline_batch`` futures surface, and the global density is
assembled by a deterministic chunked tree-reduce that consumes the
fragment futures in fragment order while the batch tail still drains.
The driver's remaining serial work per iteration is task building, the
reduce and GENPOT.  Backends implement the
:class:`repro.core.fragment_task.PipelineFragmentExecutor` protocol — the
serial default, a thread pool, a process pool
(:mod:`repro.parallel.executor`) or remote workers
(:mod:`repro.parallel.remote`) — and the loop never cares *where* a
fragment was solved.

The paper's parallelism is two-level: fragments go to processor
*groups*, and the Np cores inside a group distribute one fragment's
all-band CG among themselves.  ``band_groups=`` reproduces the second
level: each fragment's solve is band-sliced over the executor's workers
(:mod:`repro.parallel.bands`), with the driver as group root — so a
single huge fragment no longer bounds the PEtot_F wall time — while
results stay bit-identical to the ungrouped path for any slice count and
backend.

Long runs can be checkpointed and resumed (``checkpoint_dir=`` /
``checkpoint_every=`` / ``resume=`` on :meth:`LS3DFSCF.run`): the
cross-iteration state — input potential, mixer history, warm-start
wavefunctions — is persisted via :mod:`repro.io.checkpoint`, and a
resumed run's iterates are bit-identical to an uninterrupted run's.  On
the band-grouped path, completed fragments are additionally persisted
*within* each iteration, so a kill mid-PEtot_F replays only the
unfinished fragments.
"""

from __future__ import annotations

import hashlib
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.atoms.structure import Structure
from repro.core.division import SpatialDivision
from repro.core.fragment_solver import FragmentSolveResult, FragmentSolver
from repro.core.fragment_task import (
    FragmentPipelineResult,
    FragmentStateCache,
    PipelineFragmentExecutor,
    potential_fingerprint,
    run_fragment_pipeline_task_grouped,
)
from repro.core.fragments import Fragment, enumerate_fragments
from repro.core.genpot import GlobalPotentialSolver
from repro.core.patching import patch_contributions
# Unused here; kept importable as ``repro.core.scf.patch_fragment_fields``
# because the traced benchmark run (``perfbench --trace 1``) wraps it.
from repro.core.patching import patch_fragment_fields  # noqa: F401
from repro.io.checkpoint import (
    SCFCheckpoint,
    clear_partial_payloads,
    has_checkpoint,
    load_checkpoint,
    load_partial_payloads,
    save_checkpoint,
    save_partial_payload,
)
from repro.pw.grid import FFTGrid
from repro.pw.pseudopotential import PseudopotentialSet, default_pseudopotentials


@dataclass
class IterationTimings:
    """Wall-clock split of one LS3DF iteration over the paper's four steps.

    ``petot_f`` is the wall-clock time of the whole PEtot_F step as seen
    by the outer loop; ``petot_f_fragments`` holds each fragment's own
    solve time (in fragment order), so real speedups and parallel
    efficiencies can be measured instead of modelled.

    The Gen_VF restriction and the Gen_dens interior extraction run
    *inside* the fused per-fragment tasks: their in-worker times land in
    ``gen_vf_fragments`` / ``gen_dens_fragments`` (and inside
    ``petot_f_fragments``, which times the whole fused step), while the
    driver-side ``gen_vf`` shrinks to task building.  ``serial_time`` /
    ``measured_serial_fraction`` expose how much of the iteration actually
    remained serial — the measured counterpart of the paper's Amdahl fit
    (compare :func:`repro.parallel.amdahl.serial_fraction_history`).

    On the ungrouped path the driver consumes fragment futures in
    fragment order while the batch tail is still draining, so the
    chunked tree-reduce runs inside ``petot_f``: ``overlap_wait`` /
    ``overlap_busy`` split that loop into blocked-on-workers versus
    useful reduce work (see ``overlap_occupancy``), and ``gen_dens``
    shrinks to the residue left *after* the last fragment landed.

    ``genpot_poisson`` / ``genpot_xc`` / ``genpot_mix`` break the GENPOT
    wall time down into its three global steps.  With ``genpot_shards >
    1`` those steps run as per-slab tasks through the executor: their
    in-worker wall times land in ``genpot_tasks`` (counted as parallel
    work by ``parallel_cpu``), ``genpot_sharded`` is set, and only the
    driver residue ``genpot_driver`` (slab scatter/gather/exchange,
    scalar reductions, task overhead) stays in ``serial_time``.  With the
    streaming engine (``genpot_overlap``; :mod:`repro.parallel.streaming`)
    the three steps interleave per slab: ``genpot_wait`` is the driver
    loop's blocked time and ``layout_conversion`` the *measured*
    scatter/exchange/gather copy seconds — the previously modelled
    layout-conversion cost of the paper's dual-layout design.

    With band-parallel PEtot_F (``band_groups > 1``) each fragment's
    all-band CG is itself distributed: ``band_sliced`` is set,
    ``band_slices`` records the slice count (the local Np per group),
    ``band_tasks`` holds the in-worker wall time of every per-slice
    :class:`~repro.parallel.bands.BandBlockTask` (the parallel bucket),
    ``band_stages`` counts the sliced stages dispatched and
    ``band_replayed`` the fragments replayed from a mid-iteration
    partial checkpoint instead of re-solved (their per-fragment timing
    entries are zero — this run only paid the payload read, counted in
    ``checkpoint_io``).  The group root's dense cross-band algebra plus
    dispatch overhead — ``band_driver`` = ``petot_f - band_cpu`` — is
    what stays serial, so ``measured_intra_group_efficiency`` is the
    measured counterpart of the modelled
    :meth:`repro.parallel.groups.GroupDecomposition.intra_group_efficiency`.
    ``band_schedule`` carries a
    :class:`repro.parallel.scheduler.GroupExecutionRecord`: the LPT
    plan over group-sized bins *plus* the measured wall time of every
    group bin and of the whole step.  When the executor's ``partition``
    can split its workers into more than one group, the Ng groups
    run on disjoint sub-pools from concurrent driver threads, so the
    record's ``concurrent`` flag is set and ``measured_makespan`` /
    ``concurrency_efficiency`` describe a genuinely overlapped
    execution; otherwise the groups time-share one pool sequentially
    and the same fields measure that serialisation.  The modelled
    quantities (Np, modelled intra-group efficiency) remain reachable
    through the record's delegating properties.

    ``checkpoint_io`` records the seconds spent writing this iteration's
    checkpoint — including mid-iteration partial-fragment payloads on
    the band-grouped path (zero when checkpointing is off).  Checkpoint
    I/O happens on the driver while every worker idles, so it is counted
    in ``serial_time`` — the Amdahl accounting stays honest about the
    cost of restartability.
    """

    gen_vf: float = 0.0
    petot_f: float = 0.0
    gen_dens: float = 0.0
    genpot: float = 0.0
    petot_f_fragments: list[float] = field(default_factory=list)
    petot_f_workers: int = 1
    gen_vf_fragments: list[float] = field(default_factory=list)
    gen_dens_fragments: list[float] = field(default_factory=list)
    overlap_wait: float = 0.0
    overlap_busy: float = 0.0
    genpot_poisson: float = 0.0
    genpot_xc: float = 0.0
    genpot_mix: float = 0.0
    genpot_driver: float = 0.0
    genpot_tasks: list[float] = field(default_factory=list)
    genpot_sharded: bool = False
    genpot_overlap: bool = False
    genpot_wait: float = 0.0
    layout_conversion: float = 0.0
    checkpoint_io: float = 0.0
    band_sliced: bool = False
    band_slices: int = 0
    band_stages: int = 0
    band_replayed: int = 0
    band_tasks: list[float] = field(default_factory=list)
    band_schedule: object | None = None

    @property
    def total(self) -> float:
        """Whole-iteration wall time (the four steps plus checkpoint I/O)."""
        return (
            self.gen_vf + self.petot_f + self.gen_dens + self.genpot
            + self.checkpoint_io
        )

    @property
    def petot_f_cpu(self) -> float:
        """Summed per-fragment solve time (serial-equivalent PEtot_F cost)."""
        return float(sum(self.petot_f_fragments))

    @property
    def petot_f_speedup(self) -> float:
        """Measured PEtot_F speedup: summed fragment time / wall time."""
        if self.petot_f <= 0:
            return 0.0
        return self.petot_f_cpu / self.petot_f

    @property
    def genpot_cpu(self) -> float:
        """Summed in-worker time of the sharded GENPOT's per-slab tasks."""
        return float(sum(self.genpot_tasks))

    @property
    def overlap_occupancy(self) -> float:
        """Useful fraction of the overlapped Gen_dens reduce's driver loop.

        The driver consumes fragment futures in order while the batch
        tail drains: ``overlap_busy`` seconds went into the chunked
        tree-reduce under still-running workers and ``overlap_wait``
        seconds were spent blocked on the next future.  This is their
        ratio — 0.0 on the band-grouped path, which reduces afterwards.
        """
        denom = self.overlap_busy + self.overlap_wait
        return self.overlap_busy / denom if denom > 0 else 0.0

    @property
    def band_cpu(self) -> float:
        """Summed in-worker time of the band-sliced eigensolver tasks."""
        return float(sum(self.band_tasks))

    @property
    def band_driver(self) -> float:
        """Group-root residue of a band-sliced PEtot_F step.

        The PEtot_F wall time minus the summed in-worker band-task time
        (clamped at zero, since a real pool overlaps tasks): the dense
        cross-band reductions, gathers and dispatch overhead the group
        root keeps.  Zero when the step did not run band-sliced.
        """
        if not self.band_sliced:
            return 0.0
        return max(0.0, self.petot_f - self.band_cpu)

    @property
    def measured_intra_group_efficiency(self) -> float:
        """Measured efficiency of the band groups: band CPU / (Np x wall).

        Delegates to
        :func:`repro.parallel.amdahl.measured_intra_group_efficiency`
        (imported lazily — a module-level parallel import here would be
        circular), the single home of the formula; the measured
        counterpart of the modelled
        :meth:`repro.parallel.groups.GroupDecomposition.intra_group_efficiency`.
        0.0 when the step did not run band-sliced.
        """
        if not self.band_sliced:
            return 0.0
        from repro.parallel.amdahl import measured_intra_group_efficiency

        return measured_intra_group_efficiency(
            self.band_cpu, self.petot_f, self.band_slices
        )

    @property
    def serial_time(self) -> float:
        """Driver-side unparallelised time of the iteration.

        The Gen_VF and Gen_dens entries time only the driver's task
        building and result consumption (plus the chunked tree-reduce on
        the band-grouped path).  GENPOT is serial on the
        default path; with ``genpot_shards > 1`` the per-slab Poisson/XC/
        mixing work moves to the executor (parallel bucket) and only the
        driver residue — layout conversion, scalar reductions, task
        overhead (``genpot_driver``) — remains serial.  With band-sliced
        PEtot_F the group root's share (``band_driver``) is likewise
        serial, while the sliced band tasks count as parallel.
        Checkpoint I/O, when enabled, is driver-only work and counts
        here too.
        """
        genpot_serial = self.genpot_driver if self.genpot_sharded else self.genpot
        return (
            self.gen_vf
            + self.gen_dens
            + genpot_serial
            + self.band_driver
            + self.checkpoint_io
        )

    @property
    def parallel_cpu(self) -> float:
        """Serial-equivalent cost of the executor-distributable work.

        The summed per-fragment wall times (replaced by the summed
        per-slice band-task times when PEtot_F ran band-sliced — the
        fragment walls then contain root-side serial work), plus the
        summed per-slab GENPOT task times when the global step is
        sharded.
        """
        genpot_parallel = self.genpot_cpu if self.genpot_sharded else 0.0
        petot_parallel = self.band_cpu if self.band_sliced else self.petot_f_cpu
        return petot_parallel + genpot_parallel

    @property
    def measured_serial_fraction(self) -> float:
        """Measured Amdahl alpha: serial / (serial + parallelisable CPU).

        The parallelisable part is the summed per-fragment wall time
        (plus the per-slab GENPOT task time when sharded) — the
        serial-equivalent cost of the work the executor may spread over
        any number of workers.
        """
        denominator = self.serial_time + self.parallel_cpu
        if denominator <= 0:
            return 0.0
        return self.serial_time / denominator

    def as_dict(self) -> dict[str, float]:
        return {
            "Gen_VF": self.gen_vf,
            "PEtot_F": self.petot_f,
            "Gen_dens": self.gen_dens,
            "GENPOT": self.genpot,
            "total": self.total,
        }


@dataclass
class LS3DFResult:
    """Outcome of an LS3DF self-consistent calculation.

    Attributes
    ----------
    density:
        Converged global electron density (patched).
    potential:
        Converged global screening potential (V_es + V_xc).
    total_energy:
        Patched total energy E = sum_F alpha_F E_F^quantum + E_es + E_xc
        - E_self (Hartree a.u.).
    quantum_energy:
        The patched fragment quantum-energy part alone.
    converged:
        True when the potential metric dropped below tolerance.
    iterations:
        Number of outer iterations performed.
    convergence_history:
        integral |V_out - V_in| d^3r per iteration (the paper's Fig. 6).
    energy_history:
        Total energy per iteration.
    fragment_results:
        Final-iteration per-fragment solve results.
    timings:
        Per-iteration four-subroutine wall-clock timings.
    nfragments:
        Number of fragments.
    """

    density: np.ndarray
    potential: np.ndarray
    total_energy: float
    quantum_energy: float
    converged: bool
    iterations: int
    convergence_history: list[float] = field(default_factory=list)
    energy_history: list[float] = field(default_factory=list)
    fragment_results: list[FragmentSolveResult] = field(default_factory=list)
    timings: list[IterationTimings] = field(default_factory=list)
    nfragments: int = 0


class LS3DFSCF:
    """LS3DF self-consistent field driver.

    Parameters
    ----------
    structure:
        Global periodic supercell.
    grid_dims:
        Fragment grid ``(m1, m2, m3)``.
    ecut:
        Plane-wave cutoff for the fragment solves (Hartree).
    global_grid:
        Global FFT grid; chosen automatically (divisible by ``grid_dims``)
        when omitted.
    pseudopotentials:
        Model pseudopotential set.
    buffer_cells:
        Fragment buffer size as a fraction of a cell (see SpatialDivision).
    n_empty:
        Extra empty bands per fragment.
    mixer, mixer_options:
        Global potential mixing scheme (GENPOT step).
    eigensolver:
        Fragment eigensolver algorithm.
    passivate, polar_passivation:
        Fragment surface passivation options.
    executor:
        Fragment-execution backend implementing the
        :class:`~repro.core.fragment_task.PipelineFragmentExecutor`
        protocol; the default
        :class:`~repro.parallel.executor.SerialFragmentExecutor` solves
        fragments one after another in-process.  Pass a
        :class:`~repro.parallel.executor.ThreadPoolFragmentExecutor` or
        :class:`~repro.parallel.executor.ProcessPoolFragmentExecutor` to
        solve the independent fragment problems concurrently.  Every
        iteration submits one fused
        :class:`~repro.core.fragment_task.FragmentPipelineTask` per
        fragment (restriction, solve and weighted-interior extraction in
        one round trip) and tree-reduces the contributions as their
        futures resolve.  When the executor has ``install_state``, the
        iteration's input potential is installed once per worker and the
        tasks carry only its fingerprint key.
    pipeline:
        Deprecated and ignored: the fused pipeline is the only data
        path.  Passing ``False`` emits a :class:`DeprecationWarning`.
    patch_chunk_size:
        Chunk size of the Gen_dens tree-reduce (see
        :func:`repro.core.patching.patch_contributions`).  Fixed by
        fragment order only, so results are independent of the backend
        and worker count.
    genpot_shards:
        Number of 1D z-slabs the GENPOT global steps are distributed
        over (the paper's dual fragment/slab data layout).  The default
        ``None`` (or 1) keeps the serial global step.  With more shards
        the Poisson solve, XC and mixing run as per-slab
        :class:`~repro.parallel.distributed.GlobalStepTask` batches
        through this driver's ``executor`` — bit-identical results for
        any shard count and backend — and the iteration timings count the
        per-slab work as parallel (see :class:`IterationTimings`).
    genpot_overlap:
        Stream the sharded GENPOT (resident slabs, fused stages, layout
        conversion overlapped with compute; see
        :mod:`repro.parallel.streaming`).  Default on; purely a
        scheduling choice — iterates are bit-identical with it on or
        off — taking effect only where the executor offers the
        ``submit_global`` futures surface.
    band_groups:
        Number of band slices each fragment's all-band CG is distributed
        over — the local analogue of the paper's Np cores *per fragment
        group*.  The default ``None`` keeps one worker per fragment.
        When set, PEtot_F switches to the band-grouped pipeline:
        the driver hands fragments to the executor one group at a time
        (LPT over group-sized bins, heaviest first; see
        :meth:`repro.parallel.scheduler.FragmentScheduler.schedule_grouped`),
        acts as each group's root for the dense cross-band reductions,
        and pushes the per-slice H·psi / residual work through
        ``executor.run_bands`` as
        :class:`~repro.parallel.bands.BandBlockTask` batches —
        bit-identical results to the ungrouped path for any slice count
        and backend, which is what removes the largest-fragment floor on
        the PEtot_F wall time.  When the schedule yields more than one
        group (total workers > ``band_groups``) and the executor has
        ``partition``, the groups run concurrently on disjoint worker
        sub-pools, one driver thread per group root; otherwise they
        time-share the executor sequentially.  Requires the
        ``"all_band"`` eigensolver and an executor with ``run_bands``
        (all backends in :mod:`repro.parallel.executor`).  With
        ``checkpoint_dir=`` set on :meth:`run`, completed fragments are
        additionally persisted *within* each iteration, so a killed run
        replays only the unfinished ones (see
        :mod:`repro.io.checkpoint`).
    """

    def __init__(
        self,
        structure: Structure,
        grid_dims: Sequence[int],
        ecut: float = 4.0,
        global_grid: FFTGrid | None = None,
        pseudopotentials: PseudopotentialSet | None = None,
        buffer_cells: float = 0.5,
        n_empty: int = 2,
        mixer: str = "kerker",
        mixer_options: dict | None = None,
        eigensolver: str = "all_band",
        passivate: bool = True,
        polar_passivation: bool = True,
        points_per_bohr: float | None = None,
        executor: PipelineFragmentExecutor | None = None,
        pipeline: bool = True,
        patch_chunk_size: int = 8,
        genpot_shards: int | None = None,
        genpot_overlap: bool = True,
        band_groups: int | None = None,
    ) -> None:
        if not pipeline:
            warnings.warn(
                "pipeline=False is deprecated and ignored: the fused fragment "
                "pipeline is the only data path",
                DeprecationWarning,
                stacklevel=2,
            )
        self.structure = structure
        self.grid_dims = tuple(int(m) for m in grid_dims)
        self.pseudopotentials = pseudopotentials or default_pseudopotentials()
        self.ecut = float(ecut)
        if global_grid is None:
            global_grid = self._default_grid(points_per_bohr)
        self.global_grid = global_grid
        self.division = SpatialDivision(
            structure, self.grid_dims, global_grid, buffer_cells
        )
        self.fragments: list[Fragment] = enumerate_fragments(self.grid_dims)
        self.fragment_solver = FragmentSolver(
            self.division,
            self.pseudopotentials,
            ecut=self.ecut,
            n_empty=n_empty,
            eigensolver=eigensolver,
            passivate=passivate,
            polar_passivation=polar_passivation,
        )
        if executor is None:
            # Imported lazily: repro.parallel.executor depends on
            # repro.core.fragment_task, so a module-level import here would
            # be circular.
            from repro.parallel.executor import SerialFragmentExecutor

            executor = SerialFragmentExecutor()
        self.genpot = GlobalPotentialSolver(
            structure,
            global_grid,
            self.pseudopotentials,
            mixer=mixer,
            mixer_options=mixer_options,
            shards=genpot_shards,
            executor=executor,
            overlap=genpot_overlap,
        )
        self.genpot_shards = self.genpot.shards
        self.genpot_overlap = self.genpot.overlap
        if patch_chunk_size < 1:
            raise ValueError("patch_chunk_size must be positive")
        self.patch_chunk_size = int(patch_chunk_size)
        self.band_groups = None if band_groups is None else int(band_groups)
        if self.band_groups is not None:
            if self.band_groups < 1:
                raise ValueError("band_groups must be positive")
            if eigensolver != "all_band":
                raise ValueError(
                    "band_groups requires the all-band eigensolver "
                    f"(got {eigensolver!r})"
                )
            if not hasattr(executor, "run_bands"):
                raise TypeError(
                    f"band_groups needs an executor with run_bands(); "
                    f"{type(executor).__name__} does not provide one — use a "
                    f"backend from repro.parallel.executor or set "
                    f"band_groups=None"
                )
        if not isinstance(executor, PipelineFragmentExecutor):
            raise TypeError(
                f"LS3DFSCF needs a PipelineFragmentExecutor (run_pipeline and "
                f"submit_pipeline_batch); {type(executor).__name__} is not one — "
                f"use a backend from repro.parallel.executor"
            )
        self.executor = executor
        self.state_cache = FragmentStateCache()
        self._last_install_key: str | None = None

    # ------------------------------------------------------------------
    def _default_grid(self, points_per_bohr: float | None) -> FFTGrid:
        """Global grid whose axes divide evenly into the fragment grid."""
        if points_per_bohr is None:
            gmax = np.sqrt(2.0 * self.ecut)
            points_per_bohr = max(1.2, 2.0 * gmax / np.pi * 1.05)
        cell = self.structure.cell
        shape = []
        for c, m in zip(cell, self.grid_dims):
            per_cell = max(4, int(np.ceil(c / m * points_per_bohr)))
            if per_cell % 2:
                per_cell += 1
            shape.append(per_cell * m)
        return FFTGrid(cell, shape)

    @property
    def nfragments(self) -> int:
        return len(self.fragments)

    def _problem_signature(self) -> str:
        """Checkpoint compatibility digest of this solver's SCF problem.

        The division signature (structure + grids + buffer) salted with
        the solve parameters that shape the persisted state: ``ecut`` and
        ``n_empty`` determine the warm-start coefficient shapes, so a
        checkpoint from a differently configured solver must fail the
        manifest validation instead of crashing mid-solve.

        Returns
        -------
        str
            Hex SHA-256 digest.
        """
        h = hashlib.sha256()
        h.update(self.division.signature().encode())
        h.update(np.float64(self.ecut).tobytes())
        h.update(np.int64(self.fragment_solver.n_empty).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def _build_pipeline_tasks(
        self,
        v_in: np.ndarray,
        eigensolver_tolerance: float,
        eigensolver_iterations: int,
    ) -> list:
        """One fused pipeline task per fragment (the driver's Gen_VF residue).

        Shared by the ungrouped and band-grouped iteration paths so their
        task construction — and hence their bit-identity — cannot
        diverge.  When the executor exposes ``install_state`` the
        iteration's V_in is installed once per worker and the tasks carry
        only its fingerprint key — the restriction then reads the exact
        installed bytes, so results are bit-identical to inline shipping.
        """
        potential_key = None
        if hasattr(self.executor, "install_state"):
            potential_key = potential_fingerprint(v_in)
            self.executor.install_state(potential_key, v_in)
        self._last_install_key = potential_key
        return [
            self.fragment_solver.make_pipeline_task(
                f,
                v_in,
                eigensolver_tolerance=eigensolver_tolerance,
                eigensolver_iterations=eigensolver_iterations,
                initial_coefficients=self.state_cache.get(f.label),
                global_potential_key=potential_key,
            )
            for f in self.fragments
        ]

    def _reduce_contributions(self, contributions) -> np.ndarray:
        """Chunked tree sum of ``(fragment, contribution)`` pairs.

        The pairs must arrive in fragment order: the chunking by
        ``patch_chunk_size`` then fixes the summation tree, so every
        density bit is independent of the backend and of the order in
        which workers finish.  Scatter maps come from the division — no
        index arrays ride on results.
        """
        return patch_contributions(
            self.global_grid.shape,
            (
                (self.division.global_indices(f, interior_only=True), c)
                for f, c in contributions
            ),
            chunk_size=self.patch_chunk_size,
        )

    def _consume_results(self, results: Sequence) -> list[FragmentSolveResult]:
        """Store warm starts and attach fragments to the kernel results."""
        self.state_cache.update([p.result for p in results])
        return [
            FragmentSolver.result_from_task(f, p.result)
            for f, p in zip(self.fragments, results)
        ]

    def _run_pipeline_iteration(
        self,
        v_in: np.ndarray,
        eigensolver_tolerance: float,
        eigensolver_iterations: int,
        t: IterationTimings,
    ) -> tuple[np.ndarray, list[FragmentSolveResult]]:
        """One fused Gen_VF -> PEtot_F -> Gen_dens lap of the iteration.

        Each fragment is a single
        :class:`~repro.core.fragment_task.FragmentPipelineTask` — one
        executor submission per fragment per iteration — whose worker
        performs the restriction, the Kohn-Sham solve and the
        weighted-interior extraction.  The driver builds the tasks (timed
        as ``gen_vf``) and then, instead of idling until the whole batch
        returns, consumes the per-fragment futures of
        ``submit_pipeline_batch`` in fragment order, feeding each
        contribution to the chunked tree-reduce as soon as it lands.
        """
        # --- Gen_VF (driver residue): build one fused task per fragment.
        t0 = time.perf_counter()
        tasks = self._build_pipeline_tasks(
            v_in, eigensolver_tolerance, eigensolver_iterations
        )
        t.gen_vf = time.perf_counter() - t0

        # --- PEtot_F (fused): restrict + solve + contribute per worker,
        # with the Gen_dens tree-reduce running under the batch tail.
        t0 = time.perf_counter()
        futures = self.executor.submit_pipeline_batch(tasks)
        results: list[FragmentPipelineResult] = []
        wait = 0.0

        def ordered_contributions():
            nonlocal wait
            for fragment, future in zip(self.fragments, futures):
                tw = time.perf_counter()
                p = future.result()
                wait += time.perf_counter() - tw
                results.append(p)
                yield fragment, p.contribution

        density = self._reduce_contributions(ordered_contributions())
        wall = time.perf_counter() - t0
        # The consume loop is PEtot_F as the outer loop sees it; its
        # blocked/busy split is the overlap accounting (the busy part ran
        # under still-working workers and leaves the serial residue).
        t.petot_f = wall
        t.overlap_wait = wait
        t.overlap_busy = max(wall - wait, 0.0)
        t.petot_f_fragments = [p.wall_time for p in results]
        t.petot_f_workers = self.executor.n_workers
        t.gen_vf_fragments = [p.gen_vf_time for p in results]
        t.gen_dens_fragments = [p.gen_dens_time for p in results]

        # --- Gen_dens residue: only the post-tail work remains serial.
        t0 = time.perf_counter()
        frag_results = self._consume_results(results)
        t.gen_dens = time.perf_counter() - t0
        return density, frag_results

    # ------------------------------------------------------------------
    def _run_band_grouped_iteration(
        self,
        v_in: np.ndarray,
        eigensolver_tolerance: float,
        eigensolver_iterations: int,
        t: IterationTimings,
        iteration: int,
        checkpoint_path: Path | None,
        division_signature: str,
        replay_partials: bool,
    ) -> tuple[np.ndarray, list[FragmentSolveResult]]:
        """One band-parallel Gen_VF -> PEtot_F -> Gen_dens lap.

        The two-level hierarchy in action: fragments are LPT-assigned to
        *worker groups* (bins of ``band_groups`` workers).  With more
        than one group and a partitionable executor the Ng bins
        run genuinely in parallel — each group gets its own worker
        sub-pool (``executor.partition``) and its own driver thread as
        group root, draining that bin's queue heaviest-first — while the
        per-slice H·psi / residual work of each fragment spreads over
        the group's sub-pool as
        :class:`~repro.parallel.bands.BandBlockTask` batches.  Without
        partition support (or when the schedule has a single group) the
        bins time-share the executor sequentially, heaviest fragment
        first.  Either way the measured per-group
        walls land in ``t.band_schedule`` (a
        :class:`~repro.parallel.scheduler.GroupExecutionRecord`).  The
        data path around the solves is the ungrouped pipeline's (same
        task construction, same deterministic chunked tree-reduce), and
        each fragment's grouped solve is a pure function of its task, so
        results are bit-identical to ungrouped runs for any slice count,
        backend and group concurrency.

        With ``checkpoint_path`` set, every completed fragment's
        :class:`~repro.core.fragment_task.FragmentPipelineResult` is
        persisted immediately
        (:func:`repro.io.checkpoint.save_partial_payload`); on entry —
        only when the caller asked to ``resume`` (``replay_partials``) —
        any partials saved for this same iteration are replayed from
        disk instead of re-solved, so a kill mid-PEtot_F costs only the
        unfinished fragments.  A fresh run never replays (its partials
        were wiped up front by :meth:`run`).
        """
        t.band_sliced = True
        t.band_slices = self.band_groups
        # --- Gen_VF (driver residue): build one fused task per fragment.
        t0 = time.perf_counter()
        tasks = self._build_pipeline_tasks(
            v_in, eigensolver_tolerance, eigensolver_iterations
        )
        t.gen_vf = time.perf_counter() - t0

        # --- Mid-iteration replay: fragments already completed (and
        # persisted) by a killed attempt at this very iteration.  The
        # state fingerprint pins the replay to this iteration's actual
        # solve inputs — a resume with a changed tolerance or a different
        # input potential re-solves instead of splicing stale results.
        state_fingerprint = ""
        if checkpoint_path is not None:
            fp = hashlib.sha256()
            fp.update(np.ascontiguousarray(v_in).tobytes())
            fp.update(np.float64(eigensolver_tolerance).tobytes())
            fp.update(np.int64(eigensolver_iterations).tobytes())
            state_fingerprint = fp.hexdigest()
        replayed: dict[str, FragmentPipelineResult] = {}
        if checkpoint_path is not None and replay_partials:
            t0 = time.perf_counter()
            replayed = {
                label: FragmentPipelineResult.from_state_dict(arrays)
                for label, arrays in load_partial_payloads(
                    checkpoint_path,
                    iteration,
                    division_signature,
                    state_fingerprint=state_fingerprint,
                ).items()
            }
            t.checkpoint_io += time.perf_counter() - t0

        # --- PEtot_F (band-grouped): LPT over group-sized bins, then run
        # the bins — concurrently on partitioned sub-pools when possible,
        # else one grouped solve at a time, heaviest fragment first.
        t0 = time.perf_counter()
        n_workers = int(getattr(self.executor, "n_workers", 1))
        from repro.parallel.scheduler import FragmentScheduler, GroupExecutionRecord

        plan = FragmentScheduler().schedule_grouped(
            tasks,
            total_cores=max(n_workers, self.band_groups),
            cores_per_group=self.band_groups,
        )
        ngroups = len(plan.assignments)
        concurrent = ngroups > 1 and callable(
            getattr(self.executor, "partition", None)
        )
        results: list[FragmentPipelineResult | None] = [None] * len(tasks)
        replayed_indices: set[int] = set()
        # Replay saved fragments up front (group-independent), leaving each
        # group bin's queue with only the work that still needs solving.
        queues: list[list[int]] = []
        for members in plan.assignments:
            queue: list[int] = []
            for idx in members:
                saved = replayed.get(self.fragments[idx].label)
                if saved is not None:
                    results[idx] = saved
                    replayed_indices.add(idx)
                    t.band_replayed += 1
                else:
                    queue.append(idx)
            queues.append(queue)

        group_walls = [0.0] * ngroups
        group_io = [0.0] * ngroups
        group_stats: list[list] = [[] for _ in range(ngroups)]
        io_lock = threading.Lock()

        def _solve_into_group(idx: int, group: int, executor) -> None:
            pres, stats = run_fragment_pipeline_task_grouped(
                tasks[idx], executor, self.band_groups
            )
            results[idx] = pres
            group_stats[group].append(stats)
            if checkpoint_path is not None:
                tio = time.perf_counter()
                with io_lock:
                    save_partial_payload(
                        checkpoint_path,
                        iteration,
                        division_signature,
                        self.fragments[idx].label,
                        pres.state_dict(),
                        state_fingerprint=state_fingerprint,
                    )
                group_io[group] += time.perf_counter() - tio

        if concurrent:
            subs = self.executor.partition(ngroups)
            # The iteration's input potential was installed on the parent
            # executor when the tasks were built; each group sub-pool has
            # its own workers, so install it there too (per-sub-pool dedup
            # makes repeats free).
            if self._last_install_key is not None:
                for sub in subs:
                    if hasattr(sub, "install_state"):
                        sub.install_state(self._last_install_key, v_in)
            errors: list[BaseException | None] = [None] * ngroups

            def _run_group(group: int) -> None:
                g0 = time.perf_counter()
                try:
                    for idx in queues[group]:
                        _solve_into_group(idx, group, subs[group])
                except BaseException as exc:
                    errors[group] = exc
                finally:
                    group_walls[group] = time.perf_counter() - g0

            threads = [
                threading.Thread(target=_run_group, args=(g,), daemon=True)
                for g in range(ngroups)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # A dead group must not lose its siblings' work: every other
            # group has finished its queue (and persisted its partials)
            # before the failure propagates, so a resume re-solves only
            # the dead group's fragments.
            for error in errors:
                if error is not None:
                    raise error
        else:
            group_of = {
                idx: g for g, members in enumerate(plan.assignments) for idx in members
            }
            order = np.argsort([task.cost() for task in tasks], kind="stable")[::-1]
            for idx in order:
                idx = int(idx)
                if idx in replayed_indices:
                    continue
                f0 = time.perf_counter()
                _solve_into_group(idx, group_of[idx], self.executor)
                group_walls[group_of[idx]] += time.perf_counter() - f0

        for stats_list in group_stats:
            for stats in stats_list:
                t.band_stages += stats.stages
                t.band_tasks.extend(stats.task_times)
        step_wall = time.perf_counter() - t0
        partial_io = float(sum(group_io))
        t.band_schedule = GroupExecutionRecord(
            plan=plan,
            group_walls=group_walls,
            wall_time=step_wall,
            concurrent=concurrent,
        )
        t.petot_f = max(0.0, step_wall - partial_io)
        t.checkpoint_io += partial_io
        # Replayed fragments cost this run only the payload read (already in
        # checkpoint_io), so their entries are zero — the killed attempt's
        # wall times must not inflate this iteration's petot_f_cpu/speedup.
        t.petot_f_fragments = [
            0.0 if i in replayed_indices else p.wall_time
            for i, p in enumerate(results)
        ]
        t.petot_f_workers = n_workers
        t.gen_vf_fragments = [
            0.0 if i in replayed_indices else p.gen_vf_time
            for i, p in enumerate(results)
        ]
        t.gen_dens_fragments = [
            0.0 if i in replayed_indices else p.gen_dens_time
            for i, p in enumerate(results)
        ]

        # --- Gen_dens (driver residue): the same tree-reduce as the
        # ungrouped path, run after the last group finished.
        t0 = time.perf_counter()
        density = self._reduce_contributions(
            (f, p.contribution) for f, p in zip(self.fragments, results)
        )
        frag_results = self._consume_results(results)
        t.gen_dens = time.perf_counter() - t0
        return density, frag_results

    # ------------------------------------------------------------------
    def run(
        self,
        max_iterations: int = 30,
        potential_tolerance: float = 1e-3,
        eigensolver_tolerance: float = 1e-5,
        eigensolver_iterations: int = 60,
        initial_potential: np.ndarray | None = None,
        callback: Callable[[int, float, float], None] | None = None,
        verbose: bool = False,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        event_hook: Callable[[str, dict], None] | None = None,
    ) -> LS3DFResult:
        """Run the LS3DF outer loop.

        Each call is a fresh SCF by default: the mixing history and the
        warm-start wavefunction cache are cleared up front, so
        back-to-back runs of one solver match runs of freshly built
        solvers bit for bit.  With ``resume=True`` the cross-iteration
        state is instead restored from ``checkpoint_dir`` and the loop
        continues at the saved iteration, producing iterates
        bit-identical to a never-interrupted run (see
        :mod:`repro.io.checkpoint`).

        Parameters
        ----------
        max_iterations:
            Maximum number of outer (potential) iterations; the paper's
            production runs use ~60.  Counts from iteration 1 even when
            resuming (a run resumed at iteration k performs at most
            ``max_iterations - k`` further iterations).
        potential_tolerance:
            Convergence threshold on integral |V_out - V_in| d^3r (a.u.).
        eigensolver_tolerance, eigensolver_iterations:
            Passed to the fragment eigensolver.
        initial_potential:
            Optional starting input potential (defaults to the neutral-atom
            guess).  Ignored when resuming from a checkpoint.
        callback:
            Optional ``callback(iteration, potential_difference, energy)``.
        verbose:
            Print per-iteration progress.
        checkpoint_dir:
            Directory to write SCF checkpoints to (input potential, mixer
            state, warm-start wavefunctions, histories).  ``None``
            (default) disables checkpointing.  The write time is recorded
            as serial work in ``IterationTimings.checkpoint_io``.  On the
            band-grouped path (``band_groups=``) each completed fragment
            is additionally persisted *within* the iteration, so a killed
            run replays the finished fragments from disk and re-solves
            only the rest.
        checkpoint_every:
            Save every this-many iterations (default 1: every iteration).
        resume:
            Restore state from ``checkpoint_dir`` and continue at the
            saved iteration.  The checkpoint's grid shape, fragment-
            division signature and mixer kind are validated — resuming a
            different problem raises
            :class:`repro.io.checkpoint.CheckpointMismatchError`.  When
            the directory holds no checkpoint yet, the run simply starts
            fresh (so a kill-and-rerun workflow can always pass
            ``resume=True``).
        event_hook:
            Optional ``event_hook(kind, data)`` called alongside the
            checkpoint hooks — the emission channel of the run store
            (:mod:`repro.store`).  Emitted kinds: ``"iteration"`` after
            every completed outer iteration (``iteration``,
            ``potential_difference``, ``energy``, ``converged``) and
            ``"checkpointed"`` after every checkpoint save
            (``iteration``).  A hook exception fails the run loudly — a
            run whose durable record cannot be written must not continue
            silently.

        Returns
        -------
        LS3DFResult
            Converged (or iteration-limited) density, potential, energies
            and per-iteration histories.  On a resumed run the histories
            include the checkpointed iterations; ``timings`` covers only
            the iterations this call executed.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        checkpoint_path = Path(checkpoint_dir) if checkpoint_dir is not None else None
        if resume and checkpoint_path is None:
            raise ValueError("resume=True requires checkpoint_dir")
        mixer = self.genpot.mixer
        mixer_kind = getattr(mixer, "kind", type(mixer).__name__)
        division_signature = self._problem_signature()

        restored = None
        if resume and has_checkpoint(checkpoint_path):
            restored = load_checkpoint(
                checkpoint_path,
                grid_shape=self.global_grid.shape,
                division_signature=division_signature,
                mixer_kind=mixer_kind,
            )

        conv_history: list[float] = []
        energy_history: list[float] = []
        start_iteration = 1
        if restored is not None:
            load_mixer_state = getattr(mixer, "load_state_dict", None)
            if callable(load_mixer_state):
                load_mixer_state(restored.mixer_state)
            elif restored.mixer_state:
                raise ValueError(
                    f"checkpoint carries mixer state but {type(mixer).__name__} "
                    f"has no load_state_dict"
                )
            self.state_cache.load_state_dict(restored.fragment_coefficients)
            conv_history = list(restored.convergence_history)
            energy_history = list(restored.energy_history)
            v_in = restored.v_in.copy()
            start_iteration = restored.iteration + 1
            if start_iteration > max_iterations:
                raise ValueError(
                    f"checkpoint is already at iteration {restored.iteration}; "
                    f"raise max_iterations (= {max_iterations}) to resume"
                )
        else:
            # A fresh SCF: drop every piece of cross-iteration state so a
            # reused solver behaves exactly like a newly built one — and,
            # when the user explicitly asked for a fresh run, wipe any
            # mid-iteration partials a previous (killed) run left in the
            # checkpoint directory, so a resume=False run never replays
            # stale fragment results.  (With resume=True this branch also
            # runs when no full checkpoint exists yet — a kill during the
            # very first iteration — and the partials are exactly what
            # the resumed run should replay, so they are kept.)
            self.genpot.reset()
            self.state_cache.clear()
            if checkpoint_path is not None and not resume:
                clear_partial_payloads(checkpoint_path)
            v_in = (
                initial_potential.copy()
                if initial_potential is not None
                else self.genpot.initial_potential()
            )
            if v_in.shape != self.global_grid.shape:
                raise ValueError("initial potential shape mismatch")

        timings: list[IterationTimings] = []
        frag_results: list[FragmentSolveResult] = []
        converged = False
        density = np.zeros(self.global_grid.shape)
        total_energy = 0.0
        quantum_energy = 0.0
        iteration = start_iteration - 1

        for iteration in range(start_iteration, max_iterations + 1):
            t = IterationTimings()

            if self.band_groups is not None:
                density, frag_results = self._run_band_grouped_iteration(
                    v_in,
                    eigensolver_tolerance,
                    eigensolver_iterations,
                    t,
                    iteration,
                    checkpoint_path,
                    division_signature,
                    replay_partials=resume,
                )
            else:
                density, frag_results = self._run_pipeline_iteration(
                    v_in, eigensolver_tolerance, eigensolver_iterations, t
                )

            # --- GENPOT: global Poisson + XC + mixing (slab-distributed
            # through the executor when genpot_shards > 1).
            t0 = time.perf_counter()
            out = self.genpot.evaluate(density, v_in)
            density = out.density
            t.genpot = time.perf_counter() - t0
            if out.timings is not None:
                t.genpot_poisson = out.timings.poisson
                t.genpot_xc = out.timings.xc
                t.genpot_mix = out.timings.mix
                t.genpot_driver = out.timings.driver
                t.genpot_tasks = out.timings.task_times
                t.genpot_sharded = out.timings.sharded
                t.genpot_overlap = out.timings.overlap
                t.genpot_wait = out.timings.wait
                t.layout_conversion = out.timings.layout_conversion
            timings.append(t)

            quantum_energy = float(
                sum(res.fragment.weight * res.quantum_energy for res in frag_results)
            )
            total_energy = (
                quantum_energy
                + out.electrostatic_energy
                + out.xc_energy
                - self.genpot.ionic_self_energy
            )
            conv_history.append(out.potential_difference)
            energy_history.append(total_energy)
            if callback is not None:
                callback(iteration, out.potential_difference, total_energy)
            if event_hook is not None:
                event_hook(
                    "iteration",
                    {
                        "iteration": int(iteration),
                        "potential_difference": float(out.potential_difference),
                        "energy": float(total_energy),
                        "converged": bool(
                            out.potential_difference < potential_tolerance
                        ),
                    },
                )
            if verbose:  # pragma: no cover - logging
                print(
                    f"LS3DF {iteration:3d}: |Vout-Vin| = {out.potential_difference:.3e}"
                    f"  E = {total_energy:.6f} Ha"
                    f"  (VF {t.gen_vf:.2f}s  F {t.petot_f:.2f}s"
                    f"  dens {t.gen_dens:.2f}s  pot {t.genpot:.2f}s)"
                )
            if out.potential_difference < potential_tolerance:
                converged = True
                v_in = out.output_potential
                break
            v_in = out.next_input_potential

            # --- Checkpoint: persist the cross-iteration state (the next
            # input potential, mixer history, warm-start wavefunctions,
            # histories) so a killed run resumes at iteration+1 with
            # bit-identical iterates.  Driver-only I/O, counted as serial.
            if checkpoint_path is not None and iteration % checkpoint_every == 0:
                t0 = time.perf_counter()
                mixer_state_dict = getattr(mixer, "state_dict", None)
                save_checkpoint(
                    checkpoint_path,
                    SCFCheckpoint(
                        iteration=iteration,
                        v_in=v_in,
                        mixer_kind=mixer_kind,
                        division_signature=division_signature,
                        mixer_state=(
                            mixer_state_dict() if callable(mixer_state_dict) else {}
                        ),
                        fragment_coefficients=self.state_cache.state_dict(),
                        convergence_history=conv_history,
                        energy_history=energy_history,
                    ),
                )
                # The full checkpoint supersedes this (and any earlier)
                # iteration's mid-iteration partials; partials of a later
                # iteration would still be the only record of that work
                # and are kept.
                clear_partial_payloads(checkpoint_path, up_to_iteration=iteration)
                t.checkpoint_io += time.perf_counter() - t0
                if event_hook is not None:
                    event_hook("checkpointed", {"iteration": int(iteration)})

        # A converged iteration breaks out before the checkpoint block, so
        # its mid-iteration partials would otherwise outlive the run; the
        # run succeeded, nothing is left to replay.
        if converged and checkpoint_path is not None:
            clear_partial_payloads(checkpoint_path, up_to_iteration=iteration)

        return LS3DFResult(
            density=density,
            potential=v_in,
            total_energy=total_energy,
            quantum_energy=quantum_energy,
            converged=converged,
            iterations=iteration,
            convergence_history=conv_history,
            energy_history=energy_history,
            fragment_results=frag_results,
            timings=timings,
            nfragments=self.nfragments,
        )
