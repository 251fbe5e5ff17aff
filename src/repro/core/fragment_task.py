"""The single fragment-solve kernel shared by every execution backend.

PEtot_F — solving each fragment's Kohn-Sham problem in its buffered,
passivated box — is the embarrassingly parallel step the paper exploits
for near-perfect scaling.  This module is the one place that step is
implemented:

* :class:`FragmentTask` is a *picklable*, self-contained description of
  one fragment solve (geometry, passivated atoms, screening potential,
  solver controls, optional warm-start wavefunctions), mirroring the way
  the production code ships fragment data between MPI groups rather than
  live solver objects.
* :func:`solve_fragment_task` executes one task.  It is the kernel that
  :class:`repro.core.fragment_solver.FragmentSolver` calls in-process and
  that the executors in :mod:`repro.parallel.executor` call from worker
  threads or processes.
* A per-process cache of the static (iteration-independent) problem data
  — basis, Hamiltonian, occupations — reproduces the paper's "store
  everything in the LS3DF global module" optimisation: the expensive
  setup happens once per fragment per process, so the second and later
  outer iterations are cheap even inside pool workers.
* :class:`FragmentStateCache` holds warm-start wavefunctions per fragment
  *outside* any particular backend, so warm starts survive no matter
  which executor (serial, threads, processes) ran the previous iteration.
* :class:`FragmentExecutor` is the protocol every backend implements.

Layering note: this module deliberately depends only on the plane-wave
substrate (:mod:`repro.pw`) and :mod:`repro.atoms`; the backends in
:mod:`repro.parallel.executor` depend on it, never the other way round.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.atoms.structure import Structure
from repro.pw.basis import PlaneWaveBasis
from repro.pw.density import compute_density, occupations_for_insulator
from repro.pw.eigensolver import all_band_cg, band_by_band_cg
from repro.pw.grid import FFTGrid
from repro.pw.hamiltonian import Hamiltonian
from repro.pw.pseudopotential import PseudopotentialSet, default_pseudopotentials


@dataclass
class FragmentTask:
    """Self-contained description of one fragment solve (picklable).

    Attributes
    ----------
    label:
        Fragment label (bookkeeping; also the warm-start cache key).
    cell:
        Fragment box edge lengths (Bohr).
    grid_shape:
        Fragment FFT grid shape.
    symbols, positions:
        Fragment atoms (including passivants).
    screening_potential:
        The Gen_VF output for this fragment (restricted global potential
        plus passivation potential).  May be ``None`` on template tasks
        used only for fingerprinting/problem construction; a task handed
        to :func:`solve_fragment_task` must carry a real array.
    ecut:
        Plane-wave cutoff (Hartree).
    n_empty:
        Extra empty bands.
    eigensolver:
        ``"all_band"`` (BLAS-3) or ``"band_by_band"`` (BLAS-2 reference).
    tolerance, max_iterations:
        Eigensolver controls.
    initial_coefficients:
        Optional warm-start wavefunctions (previous outer iteration).
    pseudopotentials:
        Model pseudopotential set; ``None`` means the default set.
    weight:
        The fragment's patching weight alpha_F (carried for bookkeeping).
    ncells:
        Number of grid cells the fragment covers (1..8); the primary
        relative-cost signal for load balancing.
    cost_hint:
        Optional explicit relative cost for the scheduler; when ``None``
        an estimate from the grid volume is used (see :meth:`cost`).
    return_coefficients:
        Ship the converged wavefunctions back in the result (needed for
        warm starts across iterations; the default).
    screening_key:
        Install-channel reference (PR 6): when the screening potential
        was installed once per worker via
        :func:`install_potential`, tasks carry this fingerprint key
        instead of the array and the kernels resolve it with
        :func:`fetch_potential` — so band-slice and pipeline tasks stop
        re-pickling the same potential on every submission.
    """

    label: str
    cell: tuple[float, float, float]
    grid_shape: tuple[int, int, int]
    symbols: list[str]
    positions: np.ndarray
    screening_potential: np.ndarray | None
    ecut: float
    n_empty: int = 2
    eigensolver: str = "all_band"
    tolerance: float = 1e-5
    max_iterations: int = 60
    initial_coefficients: np.ndarray | None = None
    pseudopotentials: PseudopotentialSet | None = None
    weight: int = 1
    ncells: int = 1
    cost_hint: float | None = None
    return_coefficients: bool = True
    screening_key: str | None = None

    def cost(self) -> float:
        """Relative cost for load balancing (grid volume as npw proxy)."""
        if self.cost_hint is not None:
            return float(self.cost_hint)
        return float(np.prod(self.grid_shape))

    def static_fingerprint(self) -> str:
        """Digest of the iteration-independent problem data.

        Two tasks with equal fingerprints share basis, Hamiltonian and
        occupations, so the cached static problem may be reused across
        outer iterations (only the screening potential changes).
        """
        h = hashlib.sha256()
        h.update(self.label.encode())
        h.update(np.asarray(self.cell, dtype=float).tobytes())
        h.update(np.asarray(self.grid_shape, dtype=np.int64).tobytes())
        h.update(",".join(self.symbols).encode())
        h.update(np.ascontiguousarray(self.positions, dtype=float).tobytes())
        h.update(np.float64(self.ecut).tobytes())
        h.update(np.int64(self.n_empty).tobytes())
        if self.pseudopotentials is not None:
            h.update(pickle.dumps(self.pseudopotentials))
        return h.hexdigest()


@dataclass
class FragmentTaskResult:
    """Result of one executed fragment task.

    Attributes
    ----------
    label:
        The solved fragment's label (matches ``FragmentTask.label``).
    eigenvalues:
        Fragment band energies (Hartree), ascending.
    density:
        Electron density on the fragment-box grid.
    quantum_energy:
        sum_i occ_i <psi_i| T + V_sr + V_NL |psi_i> — the screened parts
        are assembled globally by GENPOT, so they are excluded here.
    band_energy:
        sum_i occ_i eps_i with the full (screened) fragment Hamiltonian.
    solver_iterations:
        Iterations the eigensolver used.
    converged:
        Eigensolver convergence flag.
    wall_time:
        In-worker wall-clock seconds of this solve.
    worker_pid:
        PID of the process that executed the solve (distinguishes pool
        workers from the driver).
    coefficients:
        Converged wavefunctions, or ``None`` when the task was built
        with ``return_coefficients=False``.
    """

    label: str
    eigenvalues: np.ndarray
    density: np.ndarray
    quantum_energy: float
    band_energy: float
    solver_iterations: int
    converged: bool
    wall_time: float
    worker_pid: int
    coefficients: np.ndarray | None = None


@dataclass
class TaskProblem:
    """Static (iteration-independent) data of one fragment task's problem.

    Building this — plane-wave basis, Hamiltonian with non-local
    projectors — is the expensive setup the paper keeps resident in the
    LS3DF global module between iterations; here it is cached per process
    keyed by :meth:`FragmentTask.static_fingerprint`.

    Attributes
    ----------
    fingerprint:
        The owning task's static fingerprint (the cache key).
    structure:
        Fragment atoms (including passivants) in the box frame.
    grid, basis, hamiltonian:
        The fragment's FFT grid, plane-wave basis and Hamiltonian.
    nelectrons, nbands, occupations:
        Electron count, band count and fixed insulator occupations.
    lock:
        Guards the Hamiltonian's mutable potential during a solve (two
        same-fingerprint tasks may run concurrently on threads).
    """

    fingerprint: str
    structure: Structure
    grid: FFTGrid
    basis: PlaneWaveBasis
    hamiltonian: Hamiltonian
    nelectrons: int
    nbands: int
    occupations: np.ndarray
    # Guards the Hamiltonian's mutable potential during a solve: two tasks
    # with the same fingerprint share this problem, and the thread backend
    # may run them concurrently.
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


def build_task_problem(task: FragmentTask) -> TaskProblem:
    """Construct the static problem of one task (no caching).

    Parameters
    ----------
    task:
        Any task of the fragment; only the iteration-independent fields
        (geometry, grid, cutoff, band counts) are read, so a template
        task without a screening potential works.

    Returns
    -------
    TaskProblem
        Freshly built basis, Hamiltonian and occupations.  Most callers
        want :func:`get_task_problem`, which consults the per-process
        cache first.
    """
    structure = Structure(task.cell, list(task.symbols), task.positions)
    grid = FFTGrid(task.cell, task.grid_shape)
    basis = PlaneWaveBasis(grid, task.ecut)
    pps = task.pseudopotentials or default_pseudopotentials()
    hamiltonian = Hamiltonian.from_structure(structure, basis, pps)
    nelectrons = structure.total_valence_electrons()
    nbands = (nelectrons + 1) // 2 + int(task.n_empty)
    if nbands > basis.npw // 2:
        raise ValueError(
            f"fragment {task.label}: {nbands} bands exceed half the basis size "
            f"({basis.npw} plane waves); increase ecut or the grid density"
        )
    occupations = occupations_for_insulator(nelectrons, nbands)
    return TaskProblem(
        fingerprint=task.static_fingerprint(),
        structure=structure,
        grid=grid,
        basis=basis,
        hamiltonian=hamiltonian,
        nelectrons=nelectrons,
        nbands=nbands,
        occupations=occupations,
    )


# Per-process static-problem cache (LRU).  Worker processes populate it on
# their first iteration and hit it afterwards — the reason LS3DF's "second
# iteration" is cheap holds inside pool workers too.  The bound must exceed
# the fragment count of one run (8 * m1 * m2 * m3) or the cache thrashes,
# rebuilding every Hamiltonian every iteration; beyond that it only limits
# how much a many-structure session can pin.  Call
# :func:`clear_problem_cache` to release the memory explicitly.
_PROBLEM_CACHE: dict[str, TaskProblem] = {}
_PROBLEM_CACHE_MAX = 4096
_PROBLEM_CACHE_LOCK = threading.Lock()


def _cache_insert(key: str, problem: TaskProblem) -> None:
    with _PROBLEM_CACHE_LOCK:
        _PROBLEM_CACHE.pop(key, None)
        while len(_PROBLEM_CACHE) >= _PROBLEM_CACHE_MAX:
            _PROBLEM_CACHE.pop(next(iter(_PROBLEM_CACHE)))  # evict least recent
        _PROBLEM_CACHE[key] = problem


def get_task_problem(task: FragmentTask) -> TaskProblem:
    """Fetch (or build and cache) the static problem of one task.

    Parameters
    ----------
    task:
        The task whose static problem is needed; its
        :meth:`FragmentTask.static_fingerprint` is the cache key.

    Returns
    -------
    TaskProblem
        The cached problem when one with the same fingerprint exists in
        this process, otherwise a freshly built (and newly cached) one.
    """
    key = task.static_fingerprint()
    with _PROBLEM_CACHE_LOCK:
        problem = _PROBLEM_CACHE.get(key)
    if problem is None:
        problem = build_task_problem(task)
    _cache_insert(key, problem)  # (re)insert to refresh LRU order
    return problem


def seed_task_problem(problem: TaskProblem) -> None:
    """Insert an externally built static problem into the process cache.

    :class:`repro.core.fragment_solver.FragmentSolver` uses this so the
    in-process backends never rebuild a Hamiltonian the solver already has.

    Parameters
    ----------
    problem:
        The built problem; stored under its own ``fingerprint``.
    """
    _cache_insert(problem.fingerprint, problem)


def clear_problem_cache() -> None:
    """Drop all cached static problems (tests / memory pressure)."""
    with _PROBLEM_CACHE_LOCK:
        _PROBLEM_CACHE.clear()


# ---------------------------------------------------------------------------
# Install-once potential channel (PR 6)
#
# Band-parallel and pipeline execution used to re-pickle the same screening
# (or global) potential into every slice of every stage of every task.  The
# install channel breaks that: the driver installs a potential once per
# worker under a content fingerprint, and tasks carry only the key.  Workers
# resolve keys from a small per-process LRU; a worker that has never seen
# the key raises :class:`PotentialNotInstalledError` and the executor
# retries that one task with the payload attached — self-healing, no
# barrier, and bit-identical because the exact array bytes travel either
# way.

_INSTALLED_POTENTIALS: OrderedDict[str, np.ndarray] = OrderedDict()
_INSTALLED_MAX = 32
_INSTALLED_LOCK = threading.Lock()


class PotentialNotInstalledError(RuntimeError):
    """A task referenced a potential key this worker has not installed.

    Executors catch this per-future and resubmit the task with the
    payload attached (see ``with_potential_payload``); user code should
    never see it escape an executor.
    """

    def __init__(self, key: str) -> None:
        super().__init__(
            f"potential {key!r} is not installed in worker {os.getpid()}; "
            "the executor retries with the payload attached"
        )
        self.key = key


def potential_fingerprint(array: np.ndarray) -> str:
    """Content fingerprint of a potential array (the install-channel key).

    Covers dtype, shape and the exact bytes, so two bit-identical arrays
    share a key and any numeric change produces a new one — which is what
    makes installing once per (fragment, iteration) safe.
    """
    arr = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
    h.update(arr.tobytes())
    return h.hexdigest()


def install_potential(key: str, array: np.ndarray) -> str:
    """Store a potential in this process under ``key`` (LRU, bounded).

    Returns the key for chaining.  Executors broadcast this to pool
    workers; the serial and thread backends call it in-process.
    """
    arr = np.asarray(array)
    with _INSTALLED_LOCK:
        _INSTALLED_POTENTIALS.pop(key, None)
        _INSTALLED_POTENTIALS[key] = arr
        while len(_INSTALLED_POTENTIALS) > _INSTALLED_MAX:
            _INSTALLED_POTENTIALS.popitem(last=False)
    return key


def fetch_potential(key: str) -> np.ndarray:
    """Resolve an installed potential by key.

    Raises
    ------
    PotentialNotInstalledError
        When this process has no potential under ``key`` (the executor's
        retry-with-payload signal).
    """
    with _INSTALLED_LOCK:
        try:
            arr = _INSTALLED_POTENTIALS[key]
        except KeyError:
            raise PotentialNotInstalledError(key) from None
        _INSTALLED_POTENTIALS.move_to_end(key)
        return arr


def installed_potential_count() -> int:
    """Number of potentials currently installed in this process."""
    with _INSTALLED_LOCK:
        return len(_INSTALLED_POTENTIALS)


def clear_installed_potentials() -> None:
    """Drop every installed potential (tests / memory pressure)."""
    with _INSTALLED_LOCK:
        _INSTALLED_POTENTIALS.clear()


def resolve_screening_potential(task: FragmentTask) -> np.ndarray:
    """The task's screening potential — inline array or installed key.

    Raises :class:`PotentialNotInstalledError` when the task carries only
    a key this worker has not installed, and ``ValueError`` when it
    carries neither.
    """
    if task.screening_potential is not None:
        return np.asarray(task.screening_potential)
    if task.screening_key is not None:
        return fetch_potential(task.screening_key)
    raise ValueError(f"task {task.label!r} has no screening potential")


def solve_fragment_task(
    task: FragmentTask, problem: TaskProblem | None = None
) -> FragmentTaskResult:
    """Solve one fragment task — THE shared PEtot_F kernel.

    Runs identically in the calling process (serial backend, thread
    backend, :class:`~repro.core.fragment_solver.FragmentSolver`) and
    inside process-pool workers.

    Parameters
    ----------
    task:
        The fragment solve description; must carry a real
        ``screening_potential`` array.
    problem:
        Optional pre-built static problem, bypassing the per-process
        cache lookup when the caller already holds the data.

    Returns
    -------
    FragmentTaskResult
        Eigenvalues, density, energies and solve bookkeeping; includes
        the converged wavefunctions unless the task disabled
        ``return_coefficients``.
    """
    t0 = time.perf_counter()
    v_screen = resolve_screening_potential(task)
    if problem is None:
        problem = get_task_problem(task)
    hamiltonian = problem.hamiltonian
    with problem.lock:
        hamiltonian.set_effective_potential(v_screen)
        solver = all_band_cg if task.eigensolver == "all_band" else band_by_band_cg
        result = solver(
            hamiltonian,
            problem.nbands,
            initial=task.initial_coefficients,
            max_iterations=task.max_iterations,
            tolerance=task.tolerance,
        )
        density = compute_density(
            problem.basis, result.coefficients, problem.occupations
        )
        # Quantum energy: kinetic + short-range ionic + nonlocal only (the
        # screening/electrostatic parts are assembled globally by GENPOT).
        saved = hamiltonian.v_screening
        hamiltonian.v_screening = np.zeros_like(saved)
        try:
            expect = hamiltonian.expectation(result.coefficients)
        finally:
            hamiltonian.v_screening = saved
    quantum_energy = float(np.sum(problem.occupations * expect))
    band_energy = float(np.sum(problem.occupations * result.eigenvalues))
    return FragmentTaskResult(
        label=task.label,
        eigenvalues=result.eigenvalues,
        density=density,
        quantum_energy=quantum_energy,
        band_energy=band_energy,
        solver_iterations=result.iterations,
        converged=result.converged,
        wall_time=time.perf_counter() - t0,
        worker_pid=os.getpid(),
        coefficients=result.coefficients if task.return_coefficients else None,
    )


@dataclass
class FragmentPipelineTask:
    """Fused Gen_VF -> PEtot_F -> Gen_dens unit of work for one fragment.

    The plain :class:`FragmentTask` covers only the Kohn-Sham solve.
    This task fuses all three per-fragment steps into one picklable
    description, so a pool worker receives the global input potential plus
    index maps, performs restrict -> solve -> weighted-interior extraction
    locally, and ships back a single result — one round trip per fragment
    per SCF iteration, with no serial per-fragment loop left on the
    driver.

    IPC (process pools): the worker needs the *global* potential, not a
    box-sized restriction; it is installed once per worker per iteration
    and tasks reference it by ``global_potential_key``.  The production
    code sends box-sized pieces point to point (isend/irecv) instead.

    Attributes
    ----------
    task:
        The underlying solve task.  Its ``screening_potential`` is
        ``None``; the worker assembles it from ``global_potential`` and
        ``passivation_potential``.
    global_potential:
        The global input potential V_in of this iteration, or ``None``
        when the potential was installed once per worker and
        ``global_potential_key`` references it instead.
    box_indices:
        Per-axis global-grid index arrays (periodically wrapped) of the
        full fragment box — the Gen_VF gather map.
    interior_slice:
        Slice selecting the fragment *region* (box minus buffer) inside
        the box — what the Gen_dens contribution is cut from.
    passivation_potential:
        The fixed passivation correction Delta V_F (subtracted from the
        restricted potential), or ``None`` for unpassivated fragments.
    global_potential_key:
        Install-channel fingerprint of V_in (see
        :func:`install_potential`); workers resolve it with
        :func:`fetch_potential` when ``global_potential`` is ``None``.
    """

    task: FragmentTask
    global_potential: np.ndarray | None
    box_indices: tuple[np.ndarray, np.ndarray, np.ndarray]
    interior_slice: tuple[slice, slice, slice]
    passivation_potential: np.ndarray | None = None
    global_potential_key: str | None = None

    @property
    def label(self) -> str:
        """The underlying solve task's fragment label."""
        return self.task.label

    def cost(self) -> float:
        """Relative cost for load balancing (the solve dominates)."""
        return self.task.cost()

    def with_potential_payload(
        self, key: str, payload: np.ndarray
    ) -> "FragmentPipelineTask":
        """Copy of this task with the installed potential attached inline.

        The executor's retry path: a worker that raised
        :class:`PotentialNotInstalledError` for ``key`` gets the task
        back with the actual array riding along.  Returns ``self``
        unchanged when the key does not match (or the array is already
        inline).
        """
        if self.global_potential_key != key or self.global_potential is not None:
            return self
        return replace(self, global_potential=payload)


def resolve_global_potential(pipeline_task: FragmentPipelineTask) -> np.ndarray:
    """The pipeline task's global potential — inline array or installed key.

    Raises :class:`PotentialNotInstalledError` when the task carries only
    a key this worker has not installed, and ``ValueError`` when it
    carries neither.
    """
    if pipeline_task.global_potential is not None:
        return np.asarray(pipeline_task.global_potential)
    if pipeline_task.global_potential_key is not None:
        return fetch_potential(pipeline_task.global_potential_key)
    raise ValueError(
        f"pipeline task {pipeline_task.label!r} has neither a global "
        "potential nor an installed-potential key"
    )


@dataclass
class FragmentPipelineResult:
    """Result of one fused restrict -> solve -> contribute pipeline task.

    ``contribution`` is the fragment's alpha-weighted region interior of
    the solved density — the exact array the Gen_dens reduction sums, so
    the driver never cuts into the fragment-box density again.  The
    driver already knows each fragment's scatter map
    (``division.global_indices``), so no index arrays ride along.
    """

    result: FragmentTaskResult
    contribution: np.ndarray
    gen_vf_time: float
    gen_dens_time: float

    @property
    def label(self) -> str:
        """The solved fragment's label."""
        return self.result.label

    @property
    def worker_pid(self) -> int:
        """PID of the process that executed the fused task."""
        return self.result.worker_pid

    @property
    def wall_time(self) -> float:
        """In-worker time of the whole fused step (restrict+solve+extract)."""
        return self.gen_vf_time + self.result.wall_time + self.gen_dens_time

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable snapshot of this fragment's completed work.

        The per-fragment half of a *mid-iteration* checkpoint
        (:func:`repro.io.checkpoint.save_partial_payload`): every field a
        resumed iteration needs to treat this fragment as already solved
        — density, contribution, energies, solve bookkeeping and the
        converged wavefunctions — as plain arrays suitable for an
        ``.npz`` payload.

        Returns
        -------
        dict[str, np.ndarray]
            Array-valued mapping; round-trips exactly through
            :meth:`from_state_dict`.
        """
        r = self.result
        state: dict[str, np.ndarray] = {
            "label": np.asarray(r.label),
            "eigenvalues": np.asarray(r.eigenvalues),
            "density": np.asarray(r.density),
            "quantum_energy": np.float64(r.quantum_energy),
            "band_energy": np.float64(r.band_energy),
            "solver_iterations": np.int64(r.solver_iterations),
            "converged": np.bool_(r.converged),
            "solve_wall_time": np.float64(r.wall_time),
            "worker_pid": np.int64(r.worker_pid),
            "contribution": np.asarray(self.contribution),
            "gen_vf_time": np.float64(self.gen_vf_time),
            "gen_dens_time": np.float64(self.gen_dens_time),
        }
        if r.coefficients is not None:
            state["coefficients"] = np.asarray(r.coefficients)
        return state

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "FragmentPipelineResult":
        """Rebuild a result from a :meth:`state_dict` snapshot.

        Parameters
        ----------
        state:
            The saved mapping (possibly after an ``.npz`` round trip).

        Returns
        -------
        FragmentPipelineResult
            Bit-identical to the saved result (arrays round-trip exactly
            through ``.npz``), so replaying it mid-iteration reproduces
            an uninterrupted run.
        """
        coefficients = state.get("coefficients")
        result = FragmentTaskResult(
            label=str(state["label"]),
            eigenvalues=np.asarray(state["eigenvalues"]),
            density=np.asarray(state["density"]),
            quantum_energy=float(state["quantum_energy"]),
            band_energy=float(state["band_energy"]),
            solver_iterations=int(state["solver_iterations"]),
            converged=bool(state["converged"]),
            wall_time=float(state["solve_wall_time"]),
            worker_pid=int(state["worker_pid"]),
            coefficients=None if coefficients is None else np.asarray(coefficients),
        )
        return cls(
            result=result,
            contribution=np.asarray(state["contribution"]),
            gen_vf_time=float(state["gen_vf_time"]),
            gen_dens_time=float(state["gen_dens_time"]),
        )


def run_fragment_pipeline_task(
    pipeline_task: FragmentPipelineTask, problem: TaskProblem | None = None
) -> FragmentPipelineResult:
    """Execute one fused fragment pipeline task (worker-side Figure 2 lap).

    Performs, in the worker, the three embarrassingly parallel steps of
    one LS3DF iteration for one fragment:

    1. **Gen_VF** — gather the fragment-box restriction of the global
       input potential and subtract the fixed passivation correction;
    2. **PEtot_F** — run the shared solve kernel
       (:func:`solve_fragment_task`, same static-problem cache and warm
       starts as a plain solve task);
    3. **Gen_dens** — extract the region interior of the solved density
       and apply the fragment's charge-conserving alpha weight.

    The arithmetic matches a driver-side restriction followed by
    :func:`solve_fragment_task` operation for operation.

    Parameters
    ----------
    pipeline_task:
        The fused work unit (solve task + global potential + index maps).
    problem:
        Optional pre-built static problem forwarded to
        :func:`solve_fragment_task`.

    Returns
    -------
    FragmentPipelineResult
        The solve result plus the alpha-weighted interior density
        contribution and the in-worker Gen_VF / Gen_dens times.
    """
    t0 = time.perf_counter()
    ix, iy, iz = pipeline_task.box_indices
    global_potential = resolve_global_potential(pipeline_task)
    # Advanced indexing already yields a fresh array — no copy needed.
    v_screen = global_potential[np.ix_(ix, iy, iz)]
    if pipeline_task.passivation_potential is not None:
        v_screen = v_screen - pipeline_task.passivation_potential
    task = pipeline_task.task
    task.screening_potential = v_screen
    gen_vf_time = time.perf_counter() - t0
    result = solve_fragment_task(task, problem=problem)
    t0 = time.perf_counter()
    interior = result.density[pipeline_task.interior_slice]
    contribution = task.weight * np.real(interior)
    gen_dens_time = time.perf_counter() - t0
    return FragmentPipelineResult(
        result=result,
        contribution=contribution,
        gen_vf_time=gen_vf_time,
        gen_dens_time=gen_dens_time,
    )


# ---------------------------------------------------------------------------
# Stacked small-fragment tasks (PR 6)


@dataclass
class StackedPipelineTask:
    """Several small fragment pipeline tasks fused into one submission.

    Pool submission overhead (pickling, future bookkeeping, scheduler
    round trips) is per-submission, so many tiny fragments — single-cell
    boxes at divided-surface corners — pay it over and over while the big
    fragments still bound the wall clock.  Stacking bins the small tasks
    (see :func:`repro.parallel.scheduler.pack_stacks`) so each bin rides
    one pool submission and runs its members sequentially in the worker.
    Logical-task accounting (``tasks_submitted``) is unchanged; only the
    physical ``pool_submissions`` count drops.
    """

    tasks: list[FragmentPipelineTask]

    @property
    def label(self) -> str:
        """Synthetic label naming the stack's members."""
        inner = ",".join(t.label for t in self.tasks)
        return f"stack[{inner}]"

    def cost(self) -> float:
        """Relative cost for load balancing: the members' summed cost."""
        return float(sum(t.cost() for t in self.tasks))

    def with_potential_payload(
        self, key: str, payload: np.ndarray
    ) -> "StackedPipelineTask":
        """Copy with the installed potential attached to matching members."""
        return StackedPipelineTask(
            tasks=[t.with_potential_payload(key, payload) for t in self.tasks]
        )


@dataclass
class StackedPipelineResult:
    """Results of one stacked submission, in the stack's member order.

    Executors flatten these back into per-fragment
    :class:`FragmentPipelineResult` entries at gather time, so reports
    look exactly like unstacked runs.
    """

    results: list[FragmentPipelineResult]


def run_stacked_pipeline_task(stacked: StackedPipelineTask) -> StackedPipelineResult:
    """Execute a stack's members sequentially in this worker.

    Each member runs through the ordinary
    :func:`run_fragment_pipeline_task` kernel, so the arithmetic — and
    therefore every result array — is bit-identical to unstacked
    execution.  A missing installed potential propagates as
    :class:`PotentialNotInstalledError` for the whole stack; the executor
    retries the stack with the payload attached.
    """
    return StackedPipelineResult(
        results=[run_fragment_pipeline_task(t) for t in stacked.tasks]
    )


# ---------------------------------------------------------------------------
# Grouped (band-parallel) variants: one fragment, a whole worker group


def solve_fragment_task_grouped(
    task: FragmentTask,
    executor,
    band_slices: int,
    problem: TaskProblem | None = None,
):
    """Solve one fragment with its band block distributed over a group.

    The band-parallel counterpart of :func:`solve_fragment_task`: the
    calling process acts as the *group root* — it runs the outer all-band
    CG loop and every dense cross-band reduction — while the heavy
    per-band work (H·psi, preconditioned residuals) is sliced into
    :class:`repro.parallel.bands.BandBlockTask` batches and pushed
    through ``executor.run_bands``.  Results are **bit-identical** to
    :func:`solve_fragment_task` for any slice count and backend (the
    property ``tests/test_band_parallel.py`` asserts), because the sliced
    kernels are row-independent bit for bit and the root-side algebra
    operates on full blocks of unchanged shape.

    Only the ``"all_band"`` eigensolver can be grouped (the band-by-band
    reference algorithm is inherently sequential over bands).

    Parameters
    ----------
    task:
        The fragment solve description; must carry a real
        ``screening_potential`` array.
    executor:
        Backend implementing
        :class:`repro.parallel.bands.BandGroupExecutor` (all backends in
        :mod:`repro.parallel.executor` do).
    band_slices:
        Number of band slices — the local analogue of the paper's Np
        cores per fragment group.
    problem:
        Optional pre-built static problem, bypassing the cache lookup.

    Returns
    -------
    tuple[FragmentTaskResult, repro.parallel.bands.BandGroupStats]
        The solve result (identical to the ungrouped kernel's) plus the
        group's task accounting (stages, submissions, in-worker times).
    """
    # Imported lazily: repro.parallel.bands depends on this module, so a
    # module-level import here would be circular.
    from repro.parallel.bands import BandGroup
    from repro.pw.eigensolver import all_band_cg as all_band_solver

    t0 = time.perf_counter()
    v_screen = resolve_screening_potential(task)
    if task.eigensolver != "all_band":
        raise ValueError(
            f"band groups require the all-band eigensolver; task {task.label!r} "
            f"uses {task.eigensolver!r}"
        )
    if problem is None:
        problem = get_task_problem(task)
    hamiltonian = problem.hamiltonian
    # The problem lock is safe to hold across the grouped solve: the band
    # task kernel never acquires it (grouped solves own their fragment's
    # problem for the duration; see run_band_block_task).
    with problem.lock:
        hamiltonian.set_effective_potential(v_screen)
        group = BandGroup(executor, band_slices, task)
        result = all_band_solver(
            hamiltonian,
            problem.nbands,
            initial=task.initial_coefficients,
            max_iterations=task.max_iterations,
            tolerance=task.tolerance,
            band_groups=group,
        )
        density = compute_density(
            problem.basis, result.coefficients, problem.occupations
        )
        saved = hamiltonian.v_screening
        hamiltonian.v_screening = np.zeros_like(saved)
        try:
            expect = hamiltonian.expectation(result.coefficients)
        finally:
            hamiltonian.v_screening = saved
    quantum_energy = float(np.sum(problem.occupations * expect))
    band_energy = float(np.sum(problem.occupations * result.eigenvalues))
    task_result = FragmentTaskResult(
        label=task.label,
        eigenvalues=result.eigenvalues,
        density=density,
        quantum_energy=quantum_energy,
        band_energy=band_energy,
        solver_iterations=result.iterations,
        converged=result.converged,
        wall_time=time.perf_counter() - t0,
        worker_pid=os.getpid(),
        coefficients=result.coefficients if task.return_coefficients else None,
    )
    return task_result, group.stats


def run_fragment_pipeline_task_grouped(
    pipeline_task: FragmentPipelineTask,
    executor,
    band_slices: int,
    problem: TaskProblem | None = None,
):
    """Execute one fused fragment pipeline with a band-sliced solve.

    The grouped counterpart of :func:`run_fragment_pipeline_task`: the
    restriction and the weighted-interior extraction run on the group
    root (the caller — with band grouping the driver orchestrates one
    fragment at a time, so there is no per-fragment round trip to fuse
    them into), and the solve in the middle is
    :func:`solve_fragment_task_grouped`.  The arithmetic matches the
    ungrouped pipeline kernel operation for operation.

    Parameters
    ----------
    pipeline_task:
        The fused work unit (solve task + global potential + index maps).
    executor:
        Backend implementing
        :class:`repro.parallel.bands.BandGroupExecutor`.
    band_slices:
        Number of band slices per solve.
    problem:
        Optional pre-built static problem forwarded to the solve.

    Returns
    -------
    tuple[FragmentPipelineResult, repro.parallel.bands.BandGroupStats]
        The pipeline result (identical to the ungrouped kernel's) plus
        the solve's band-task accounting.
    """
    t0 = time.perf_counter()
    ix, iy, iz = pipeline_task.box_indices
    global_potential = resolve_global_potential(pipeline_task)
    v_screen = global_potential[np.ix_(ix, iy, iz)]
    if pipeline_task.passivation_potential is not None:
        v_screen = v_screen - pipeline_task.passivation_potential
    task = pipeline_task.task
    task.screening_potential = v_screen
    gen_vf_time = time.perf_counter() - t0
    result, stats = solve_fragment_task_grouped(
        task, executor, band_slices, problem=problem
    )
    t0 = time.perf_counter()
    interior = result.density[pipeline_task.interior_slice]
    contribution = task.weight * np.real(interior)
    gen_dens_time = time.perf_counter() - t0
    return (
        FragmentPipelineResult(
            result=result,
            contribution=contribution,
            gen_vf_time=gen_vf_time,
            gen_dens_time=gen_dens_time,
        ),
        stats,
    )


class FragmentStateCache:
    """Executor-agnostic warm-start store, keyed by fragment label.

    The outer SCF loop fills tasks' ``initial_coefficients`` from here and
    writes converged coefficients back after every iteration, so fragments
    warm-start across outer iterations regardless of which backend (or
    which pool worker) solved them last time.  The cache is also the
    per-fragment half of an SCF checkpoint
    (:mod:`repro.io.checkpoint`): :meth:`state_dict` /
    :meth:`load_state_dict` move the stored wavefunction coefficients to
    and from disk payloads, so a resumed run warm-starts exactly where
    the interrupted one stopped.
    """

    def __init__(self) -> None:
        self._coefficients: dict[str, np.ndarray] = {}

    def get(self, label: str) -> np.ndarray | None:
        """Warm-start coefficients of one fragment.

        Parameters
        ----------
        label:
            Fragment label (``Fragment.label``).

        Returns
        -------
        np.ndarray | None
            The last converged wavefunction coefficients of that
            fragment, or ``None`` when it has not been solved yet.
        """
        return self._coefficients.get(label)

    def update(self, results: Sequence[FragmentTaskResult]) -> None:
        """Store the converged coefficients of a batch of solves.

        Parameters
        ----------
        results:
            Executed task results; entries whose ``coefficients`` are
            ``None`` (tasks run with ``return_coefficients=False``) are
            skipped, keeping whatever the cache held before.
        """
        for res in results:
            if res.coefficients is not None:
                self._coefficients[res.label] = res.coefficients

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable snapshot of every stored wavefunction.

        Returns
        -------
        dict[str, np.ndarray]
            Fragment label -> coefficient array, suitable for an
            ``.npz`` checkpoint payload.  The arrays are the cached
            objects themselves (the SCF loop never mutates them in
            place); callers that need isolation should copy.
        """
        return dict(self._coefficients)

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Replace the cache contents with a :meth:`state_dict` snapshot.

        Parameters
        ----------
        state:
            Fragment label -> coefficient array mapping (possibly after
            an ``.npz`` round trip).  Previous contents are discarded,
            so a resumed run sees exactly the interrupted run's state.
        """
        self._coefficients = {
            str(label): np.asarray(coeffs) for label, coeffs in state.items()
        }

    def clear(self) -> None:
        """Drop all stored wavefunctions (fresh-start SCF runs)."""
        self._coefficients.clear()

    def __len__(self) -> int:
        return len(self._coefficients)

    def __contains__(self, label: str) -> bool:
        return label in self._coefficients


@runtime_checkable
class FragmentExecutor(Protocol):
    """Protocol every fragment-execution backend implements.

    Backends take a batch of :class:`FragmentTask` and return an
    execution report whose ``results`` list is ordered like the input
    tasks.  Implementations live in :mod:`repro.parallel.executor`
    (serial, thread pool, process pool); anything with this shape — e.g.
    an MPI- or cluster-backed mapper — plugs into
    :class:`repro.core.scf.LS3DFSCF` the same way.
    """

    n_workers: int

    def run(self, tasks: Sequence[FragmentTask]) -> "ExecutionReport":
        """Execute a batch of fragment solve tasks.

        Parameters
        ----------
        tasks:
            Picklable solve descriptions, one per fragment.

        Returns
        -------
        ExecutionReport
            With ``results`` (:class:`FragmentTaskResult`) in task order.
        """
        ...


@runtime_checkable
class PipelineFragmentExecutor(FragmentExecutor, Protocol):
    """A backend that additionally runs fused fragment pipeline tasks.

    All backends shipped in :mod:`repro.parallel.executor` and
    :mod:`repro.parallel.remote` implement this;
    :class:`repro.core.scf.LS3DFSCF` requires it.
    """

    def run_pipeline(
        self, tasks: Sequence[FragmentPipelineTask]
    ) -> "ExecutionReport":
        """Execute a batch of fused restrict -> solve -> contribute tasks.

        Parameters
        ----------
        tasks:
            One :class:`FragmentPipelineTask` per fragment.

        Returns
        -------
        ExecutionReport
            With ``results`` (:class:`FragmentPipelineResult`) in task
            order.
        """
        ...

    def submit_pipeline_batch(self, tasks: Sequence[FragmentPipelineTask]) -> list:
        """Submit a batch of fused tasks; one future per task.

        Parameters
        ----------
        tasks:
            One :class:`FragmentPipelineTask` per fragment.

        Returns
        -------
        list
            Futures in task order, each resolving to that task's
            :class:`FragmentPipelineResult` — the surface
            :class:`repro.core.scf.LS3DFSCF` consumes in fragment order.
        """
        ...


@dataclass
class ExecutionReport:
    """Timing summary of one batch of fragment solves.

    ``results`` holds :class:`FragmentTaskResult` objects for plain solve
    batches and :class:`FragmentPipelineResult` objects for fused pipeline
    batches; both expose the ``label`` / ``wall_time`` / ``worker_pid``
    fields the summary properties use.

    ``resubmissions`` counts tasks this batch re-dispatched after a
    worker died mid-task (always 0 for the local backends, whose workers
    share the driver's fate); results are bit-identical either way, the
    counter only records that the self-healing path ran.
    """

    results: list
    wall_time: float
    worker_count: int
    schedule: object | None = None
    resubmissions: int = 0

    @property
    def total_cpu_time(self) -> float:
        """Summed in-worker task time (the batch's serial-equivalent cost)."""
        return float(sum(r.wall_time for r in self.results))

    @property
    def parallel_efficiency(self) -> float:
        """total task time / (workers * wall time); 1.0 is ideal."""
        if self.wall_time <= 0 or self.worker_count <= 0:
            return 0.0
        return self.total_cpu_time / (self.worker_count * self.wall_time)

    @property
    def speedup(self) -> float:
        """total task time / wall time — the measured PEtot_F speedup."""
        if self.wall_time <= 0:
            return 0.0
        return self.total_cpu_time / self.wall_time

    @property
    def distinct_workers(self) -> int:
        """Number of distinct worker PIDs that executed the batch."""
        return len({r.worker_pid for r in self.results})
