"""The four benchmark workloads, their correctness gate and their metrics.

Every workload drives the program through its public API only: the
``repro.atoms`` builders, :class:`repro.core.LS3DFSCF`, the executors of
:mod:`repro.parallel` and :class:`repro.store.StoreServer` /
:class:`repro.store.client.ServiceClient`.  Per-layer numbers come from
outside as well: from the counters and result fields the layers already
expose and, in a traced run, from :class:`Instrumentation`'s timing
wrappers around public functions (see :mod:`perfbench.spans`).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repro.core.fragment_task as fragment_task_mod
import repro.core.scf as scf_mod
import repro.pw.fftcache as fftcache
from repro.atoms import cscl_binary
from repro.core import GlobalPotentialSolver, LS3DFSCF, clear_problem_cache
from repro.core.fragment_solver import FragmentSolver
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.parallel.remote import LocalWorkerPool, RemoteExecutor
from repro.pw.grid import clear_grid_memo
from repro.pw.hamiltonian import Hamiltonian
from repro.pw.pseudopotential import PseudopotentialSet
from repro.store import build_solver
from repro.store.server import StoreServer
from repro.store.client import ServiceClient
from repro.store.store import RunStore
from repro.store.stream import EventStream

from perfbench import spans as sp
from perfbench import stats

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: The SCF problem shared by the three SCF workloads: the serial ZnO probe.
SCF_STRUCTURE = dict(dims=(2, 2, 1), cation="Zn", anion="O", lattice_constant=6.0)
SCF_GRID_DIMS = (2, 2, 1)
SCF_ECUT = 2.2
#: One timed unit of SCF work.  The SCF does not converge on this problem
#: (|dV| cycles), so the unit is a fixed count of outer iterations, never
#: a time to a tolerance.
SCF_RUN = dict(
    max_iterations=REFERENCE["zno16"]["iterations"],
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"scf": 2, "store-service": 9}

#: store-service: jobs per run (at least), the status poller's period, the
#: share of exact resubmissions and the jobs re-solved directly afterwards.
MIN_JOBS = 100
POLL_PERIOD_S = 0.05
RESUBMIT_SHARE = 0.2
VERIFIED_JOBS = 3
JOB_TIMEOUT_S = 60.0
#: Finished runs the store already holds when the daemon starts, so that a
#: start pays the recovery scan (one head read per run) a restarted service
#: pays.  They are recorded through the store's public API as failed,
#: unsolved runs, with lattice constants no job of the mix uses.
PRIOR_RUNS = 100

PER_LAYER = (
    ("pw.apply_local_s", "s"),
    ("pw.apply_local_calls", "count"),
    ("pw.fft_s", "s"),
    ("pw.fft_calls", "count"),
    ("pw.fft_flop_computed", "flop"),
    ("pw.fft_bytes_computed", "B"),
    ("pw.nonlocal_s", "s"),
    ("pw.eigensolver_s", "s"),
    ("pw.cg_iterations", "count"),
    ("pw.cg_unconverged", "count"),
    ("pw.fftcache_hit_ratio", "ratio"),
    ("pw.structure_factor_s", "s"),
    ("pw.self_s", "s"),
    ("core.problem_build_s", "s"),
    ("core.gen_vf_s", "s"),
    ("core.petot_f_s", "s"),
    ("core.gen_dens_s", "s"),
    ("core.genpot_s", "s"),
    ("core.driver_cpu_s", "s"),
    ("core.serial_fraction", "ratio"),
    ("core.self_s", "s"),
    ("parallel.tasks_submitted", "count"),
    ("parallel.pool_submissions", "count"),
    ("parallel.install_broadcasts", "count"),
    ("parallel.wire_bytes_sent", "B"),
    ("parallel.wire_bytes_received", "B"),
    ("parallel.task_bytes_computed", "B"),
    ("parallel.dispatch_overhead_s", "s"),
    ("parallel.worker_occupancy", "ratio"),
    ("parallel.resubmissions", "count"),
    ("parallel.workers_lost", "count"),
    ("parallel.degraded_tasks", "count"),
    ("parallel.worker_peak_rss_mb", "MB"),
    ("parallel.self_s", "s"),
    ("io.checkpoint_saves", "count"),
    ("io.checkpoint_s", "s"),
    ("io.checkpoint_bytes", "B"),
    ("io.self_s", "s"),
    ("store.append_s", "s"),
    ("store.appends", "count"),
    ("store.read_head_s", "s"),
    ("store.queue_wait_s", "s"),
    ("store.submit_s", "s"),
    ("store.dedup_hit_ratio", "ratio"),
    ("store.self_s", "s"),
    ("trace_overhead_pct", "%"),
)


# ----------------------------------------------------------------------
# Result record
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1
    note: str = ""


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs held."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, Metric] = field(default_factory=dict)
    report_only: dict[str, Metric] = field(default_factory=dict)
    per_layer: dict[str, Metric] = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def check_scf_result(result, valence_electrons: int, dvol: float) -> list[str]:
    """Problems with one SCF unit's result against the recorded reference.

    The energy tolerance admits summation-order changes (the fused
    pipeline differs from the seed path by about 5e-7 Ha here) and still
    catches physics errors, which move the energy by far more.
    """
    ref = REFERENCE["zno16"]
    problems = []
    energy = float(result.total_energy)
    if not math.isfinite(energy) or not np.all(np.isfinite(result.density)):
        return [f"non-finite result (energy {energy!r})"]
    if abs(energy - ref["total_energy"]) > ref["energy_tolerance"]:
        problems.append(
            f"total energy {energy:.9f} Ha differs from the reference "
            f"{ref['total_energy']:.9f} Ha by more than {ref['energy_tolerance']:g}"
        )
    charge = float(np.sum(result.density)) * dvol
    if abs(charge - valence_electrons) > ref["charge_tolerance"] * valence_electrons:
        problems.append(
            f"integrated density {charge:.9f} != {valence_electrons} valence electrons"
        )
    if result.iterations != ref["iterations"]:
        problems.append(f"ran {result.iterations} iterations, not {ref['iterations']}")
    return problems


def gate_scf_results(out: Outcome, results, valence_electrons: int, dvol: float) -> None:
    """Count every SCF unit as attempted and each that fails the gate as failed."""
    for i, result in enumerate(results):
        out.attempted += 1
        problems = check_scf_result(result, valence_electrons, dvol)
        if problems:
            out.fail(f"unit {i}: " + "; ".join(problems))


# ----------------------------------------------------------------------
# Instrumentation (traced runs)
# ----------------------------------------------------------------------
def _array_bytes(obj, depth: int = 0) -> int:
    """Bytes of the numpy arrays reachable from ``obj`` (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if depth >= 3:
        return 0
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_array_bytes(getattr(obj, f.name), depth + 1) for f in fields(obj))
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x, depth + 1) for x in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(x, depth + 1) for x in obj.values())
    return 0


class Instrumentation:
    """Timing wrappers and boundary counters for a traced run.

    Installed before any worker process forks, disabled, so forked pool
    workers inherit pass-through wrappers; only driver-side calls are
    ever recorded.  Worker-side spans are out of scope.
    """

    EXECUTORS = (SerialFragmentExecutor, ProcessPoolFragmentExecutor, RemoteExecutor)
    DISPATCH = (
        "run",
        "run_pipeline",
        "run_bands",
        "run_global",
        "submit_pipeline_batch",
        "submit_global",
        "install_state",
    )

    def __init__(self) -> None:
        self.rec = sp.SpanRecorder()
        self._lock = threading.Lock()
        self.counts: dict[str, float] = {}
        self.scf_results: list = []

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + value

    # -- hooks ---------------------------------------------------------
    def _on_fft(self, args, kwargs) -> None:
        a = np.asarray(args[0])
        axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
        axes = range(a.ndim) if axes is None else axes
        n = int(np.prod([a.shape[ax] for ax in axes]))
        batch = a.size // max(n, 1)
        self.add("fft_flop", 5.0 * n * math.log2(max(n, 2)) * batch)
        self.add("fft_bytes", a.nbytes + a.size * 16)

    def _on_fragment_result(self, result, args, kwargs, seconds) -> None:
        self.add("cg_iterations", result.solver_iterations)
        self.add("cg_unconverged", 0 if result.converged else 1)

    def _on_scf_result(self, result, args, kwargs, seconds) -> None:
        with self._lock:
            self.scf_results.append(result)

    def _on_dispatch_call(self, args, kwargs) -> None:
        self.add("task_bytes", _array_bytes(list(args[1:])))
        if len(args) > 1 and isinstance(args[1], (list, tuple)):
            self.add("tasks", len(args[1]))

    def _on_dispatch_result(self, result, args, kwargs, seconds) -> None:
        # Calls that return futures (or nothing) count whole: resolving a
        # future here could start the executor's healing resubmission.
        walls = [float(r.wall_time) for r in getattr(result, "results", ())]
        workers = max(1, int(getattr(args[0], "n_workers", 1)))
        busy = max(max(walls, default=0.0), sum(walls) / workers)
        self.add("dispatch_overhead", max(0.0, seconds - busy))

    def _on_checkpoint(self, manifest, args, kwargs, seconds) -> None:
        directory = Path(manifest).parent
        self.add(
            "checkpoint_bytes",
            sum(p.stat().st_size for p in directory.iterdir() if p.is_file()),
        )

    # -- install -------------------------------------------------------
    def install(self) -> None:
        patch = self.rec.patch
        patch(LS3DFSCF, "run", "core.scf_run", on_result=self._on_scf_result)
        patch(GlobalPotentialSolver, "evaluate", "core.genpot")
        patch(FragmentSolver, "build_problem", "core.build_problem")
        patch(FragmentSolver, "passivation_potential", "core.passivation")
        patch(
            FragmentSolver,
            "result_from_task",
            "core.result_from_task",
            on_result=self._on_fragment_result,
        )
        patch(scf_mod, "patch_contributions", "core.gen_dens_reduce")
        patch(scf_mod, "patch_fragment_fields", "core.gen_dens_reduce")
        patch(scf_mod, "save_checkpoint", "io.checkpoint_save", on_result=self._on_checkpoint)
        patch(Hamiltonian, "apply_local", "pw.apply_local")
        patch(Hamiltonian, "add_nonlocal", "pw.nonlocal")
        patch(fftcache, "fftn", "pw.fft", on_call=self._on_fft)
        patch(fftcache, "ifftn", "pw.fft", on_call=self._on_fft)
        patch(fragment_task_mod, "all_band_cg", "pw.eigensolver")
        patch(fragment_task_mod, "band_by_band_cg", "pw.eigensolver")
        patch(PseudopotentialSet, "ionic_density", "pw.structure_factor")
        patch(PseudopotentialSet, "local_potential", "pw.structure_factor")
        for cls in self.EXECUTORS:
            for name in self.DISPATCH:
                patch(
                    cls,
                    name,
                    f"parallel.{name}",
                    on_call=self._on_dispatch_call,
                    on_result=self._on_dispatch_result,
                )
        patch(EventStream, "append", "store.append")
        patch(EventStream, "read_head", "store.read_head")
        patch(RunStore, "submit", "store.submit")

    def uninstall(self) -> None:
        self.rec.enabled = False
        self.rec.restore()

    def reset(self) -> None:
        self.rec.spans = []
        self.counts = {}
        self.scf_results = []


def _span_layer_metrics(inst: Instrumentation, spans, units: int) -> dict[str, float]:
    """Per-unit layer metrics read off the spans and boundary counters."""
    c = inst.counts
    per = 1.0 / max(units, 1)
    own = sp.layer_self_times(spans)
    total = lambda name: sp.total_time(spans, name) * per  # noqa: E731
    return {
        "pw.apply_local_s": total("pw.apply_local"),
        "pw.apply_local_calls": sp.count(spans, "pw.apply_local") * per,
        "pw.fft_s": total("pw.fft"),
        "pw.fft_calls": sp.count(spans, "pw.fft") * per,
        "pw.fft_flop_computed": c.get("fft_flop", 0.0) * per,
        "pw.fft_bytes_computed": c.get("fft_bytes", 0.0) * per,
        "pw.nonlocal_s": total("pw.nonlocal"),
        "pw.eigensolver_s": total("pw.eigensolver"),
        "pw.cg_iterations": c.get("cg_iterations", 0.0) * per,
        "pw.cg_unconverged": c.get("cg_unconverged", 0.0) * per,
        "pw.self_s": own.get("pw", 0.0) * per,
        "core.self_s": own.get("core", 0.0) * per,
        "parallel.task_bytes_computed": c.get("task_bytes", 0.0) * per,
        "parallel.dispatch_overhead_s": c.get("dispatch_overhead", 0.0) * per,
        "parallel.self_s": own.get("parallel", 0.0) * per,
        "io.checkpoint_saves": sp.count(spans, "io.checkpoint_save") * per,
        "io.checkpoint_s": total("io.checkpoint_save"),
        "io.checkpoint_bytes": c.get("checkpoint_bytes", 0.0) * per,
        "io.self_s": own.get("io", 0.0) * per,
        "store.append_s": total("store.append"),
        "store.appends": sp.count(spans, "store.append") * per,
        "store.read_head_s": total("store.read_head"),
        "store.submit_s": total("store.submit"),
        "store.self_s": own.get("store", 0.0) * per,
    }


def _timing_metrics(results, units: int) -> dict[str, float]:
    """Per-unit step times and worker occupancy from ``IterationTimings``."""
    timings = [t for r in results for t in r.timings]
    n = max(units, 1)
    busy = sum(t.band_cpu if t.band_sliced else t.petot_f_cpu for t in timings)
    capacity = sum(t.petot_f * max(t.petot_f_workers, 1) for t in timings)
    return {
        "core.gen_vf_s": sum(t.gen_vf for t in timings) / n,
        "core.petot_f_s": sum(t.petot_f for t in timings) / n,
        "core.gen_dens_s": sum(t.gen_dens for t in timings) / n,
        "core.genpot_s": sum(t.genpot for t in timings) / n,
        "parallel.worker_occupancy": busy / capacity if capacity > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# SCF workloads
# ----------------------------------------------------------------------
@dataclass
class ScfSetup:
    scf: LS3DFSCF
    executor: object
    close: Callable[[], None]
    worker_pids: tuple = ()


def _cold_caches() -> None:
    """Drop process-wide caches so every set-up builds cold."""
    clear_problem_cache()
    clear_grid_memo()
    fftcache.clear()


def _build_problems(scf: LS3DFSCF) -> None:
    for fragment in scf.fragments:
        problem = scf.fragment_solver.build_problem(fragment)
        scf.fragment_solver.passivation_potential(problem)


def _structure():
    return cscl_binary(**SCF_STRUCTURE)


def setup_serial(rec: sp.SpanRecorder) -> ScfSetup:
    with rec.span("bench.setup"):
        scf = LS3DFSCF(_structure(), SCF_GRID_DIMS, ecut=SCF_ECUT)
        _build_problems(scf)
    return ScfSetup(scf, scf.executor, lambda: None)


def setup_pool2(rec: sp.SpanRecorder) -> ScfSetup:
    with rec.span("bench.setup"):
        executor = ProcessPoolFragmentExecutor(2)
        scf = LS3DFSCF(
            _structure(),
            SCF_GRID_DIMS,
            ecut=SCF_ECUT,
            executor=executor,
            pipeline=True,
            genpot_shards=2,
        )
        _build_problems(scf)
    # Fork the two workers now, after the static problems exist, so they
    # inherit them (and the recorder's wrappers, disabled).
    enabled, rec.enabled = rec.enabled, False
    executor.install_state("perfbench-spawn", np.zeros(1))
    rec.enabled = enabled
    return ScfSetup(scf, executor, executor.close)


def setup_bands2_remote(rec: sp.SpanRecorder) -> ScfSetup:
    pool = LocalWorkerPool(2).start()
    executor = RemoteExecutor(pool.addresses)
    try:
        if executor.heartbeat() != 2:
            raise RuntimeError("remote workers did not answer the first ping")
        with rec.span("bench.setup"):
            scf = LS3DFSCF(
                _structure(),
                SCF_GRID_DIMS,
                ecut=SCF_ECUT,
                executor=executor,
                pipeline=True,
                band_groups=2,
            )
            _build_problems(scf)
    except BaseException:
        executor.close()
        pool.terminate()
        raise

    def close() -> None:
        executor.shutdown_workers()
        executor.close()
        pool.terminate()

    return ScfSetup(scf, executor, close, tuple(p.pid for p in pool.processes))


SCF_SETUPS = {
    "zno16-serial": setup_serial,
    "zno16-pool2": setup_pool2,
    "zno16-bands2-remote": setup_bands2_remote,
}

_EXECUTOR_COUNTERS = (
    ("parallel.tasks_submitted", "tasks_submitted"),
    ("parallel.pool_submissions", "pool_submissions"),
    ("parallel.install_broadcasts", "install_broadcasts"),
    ("parallel.wire_bytes_sent", "bytes_sent"),
    ("parallel.wire_bytes_received", "bytes_received"),
    ("parallel.resubmissions", "resubmissions"),
    ("parallel.workers_lost", "workers_lost"),
    ("parallel.degraded_tasks", "degraded_tasks"),
)


def _executor_counters(executor) -> dict[str, float]:
    return {key: float(getattr(executor, attr, 0)) for key, attr in _EXECUTOR_COUNTERS}


@dataclass
class ScfPhase:
    results: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    fft_pool: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    worker_rss_mb: float = 0.0


def _measure_scf(setup: ScfSetup, seconds: float) -> ScfPhase:
    """Timed ``LS3DFSCF.run`` units until ``seconds`` have passed (at least one)."""
    phase = ScfPhase()
    before = _executor_counters(setup.executor)
    cache0 = fftcache.stats()
    t_start = time.perf_counter()
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        result = setup.scf.run(**SCF_RUN)
        phase.walls.append(time.perf_counter() - t0)
        phase.cpus.append(time.process_time() - c0)
        phase.results.append(result)
        if time.perf_counter() - t_start >= seconds:
            break
    after = _executor_counters(setup.executor)
    cache1 = fftcache.stats()
    phase.counters = {k: after[k] - before[k] for k in after}
    phase.fft_pool = {k: cache1[k] - cache0[k] for k in ("hits", "misses")}
    pids = set(setup.worker_pids) | {
        f.worker_pid for r in phase.results for f in r.fragment_results
    }
    phase.worker_rss_mb = _workers_peak_rss_mb(pids - {os.getpid()})
    return phase


def _workers_peak_rss_mb(pids) -> float:
    """Largest peak resident set (VmHWM) among live worker processes."""
    peak_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024.0


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_scf_workload(name: str, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    inst = Instrumentation()
    if trace:
        inst.install()
    rec = inst.rec
    setups, setup_times = [], []
    try:
        for _ in range(SETUP_REPEATS["scf"]):
            if setups:
                setups.pop().close()
            _cold_caches()
            rec.enabled = trace
            t0 = time.perf_counter()
            setups.append(SCF_SETUPS[name](rec))
            setup_times.append(time.perf_counter() - t0)
        setup = setups[-1]
        setup_spans = list(rec.spans)
        inst.reset()

        structure = setup.scf.structure
        valence = structure.total_valence_electrons()
        dvol = setup.scf.global_grid.dvol

        phase = _measure_scf(setup, seconds)
        phase.spans = list(rec.spans)
        if trace:
            rec.enabled = False
            untraced = _measure_scf(setup, seconds)
    finally:
        while setups:
            setups.pop().close()
        if trace:
            inst.uninstall()

    gate_scf_results(out, phase.results, valence, dvol)
    lost = phase.counters["parallel.workers_lost"] + phase.counters["parallel.degraded_tasks"]
    if lost:
        out.fail(f"{int(lost)} lost workers or degraded tasks")

    iterations = SCF_RUN["max_iterations"]
    n = len(phase.walls)
    out.end_to_end = {
        "setup_s": Metric(stats.median(setup_times), "s", len(setup_times)),
        "scf_iter_per_s": Metric(
            stats.median([iterations / w for w in phase.walls]), "1/s", n
        ),
        "jobs_per_s": Metric(stats.median([1.0 / w for w in phase.walls]), "1/s", n),
        "job_latency_p50_s": Metric(stats.median(phase.walls), "s", n),
        "peak_rss_mb": Metric(_self_peak_rss_mb(), "MB"),
    }
    out.report_only["job_latency_tail_s"] = _tail_metric(phase.walls, "s")
    if trace:
        out.per_layer = _scf_layer_metrics(inst, phase, setup_spans, len(setup_times))
        traced = out.end_to_end["scf_iter_per_s"].value
        plain = stats.median([iterations / w for w in untraced.walls])
        out.per_layer["trace_overhead_pct"] = Metric(
            100.0 * (plain - traced) / plain, "%", len(untraced.walls),
            note=f"untraced {plain:.4f} vs traced {traced:.4f} scf_iter_per_s",
        )
        out.spans = setup_spans + phase.spans
    return out


def _scf_layer_metrics(inst, phase: ScfPhase, setup_spans, setups: int) -> dict:
    units = len(phase.results)
    values = _span_layer_metrics(inst, phase.spans, units)
    values.update(_timing_metrics(phase.results, units))
    values.update({k: v / units for k, v in phase.counters.items()})
    lookups = phase.fft_pool["hits"] + phase.fft_pool["misses"]
    values["pw.fftcache_hit_ratio"] = phase.fft_pool["hits"] / lookups if lookups else 0.0
    values["pw.structure_factor_s"] = sp.total_time(setup_spans, "pw.structure_factor") / setups
    values["core.problem_build_s"] = (
        sp.total_time(setup_spans, "core.build_problem")
        + sp.total_time(setup_spans, "core.passivation")
    ) / setups
    values["core.driver_cpu_s"] = stats.median(phase.cpus)
    values["core.serial_fraction"] = stats.median(
        [c / w for c, w in zip(phase.cpus, phase.walls)]
    )
    values["parallel.worker_peak_rss_mb"] = phase.worker_rss_mb
    values["store.queue_wait_s"] = 0.0
    values["store.dedup_hit_ratio"] = 0.0
    return {name: Metric(values[name], unit, units) for name, unit in PER_LAYER[:-1]}


def _tail_metric(values, unit: str) -> Metric:
    try:
        pct = stats.tail_percentile(len(values))
    except stats.TooFewSamples as exc:
        return Metric(float("nan"), unit, len(values), note=f"refused: {exc}")
    return Metric(stats.tail(values, pct), unit, len(values), note=f"p{pct:g}")


# ----------------------------------------------------------------------
# store-service workload
# ----------------------------------------------------------------------
def job_spec(lattice_constant: float) -> dict:
    """One small service job: a 1x1x1 ZnO cell at the given lattice constant."""
    return {
        "builder": "cscl_binary",
        "builder_args": {
            "dims": [1, 1, 1],
            "cation": "Zn",
            "anion": "O",
            "lattice_constant": lattice_constant,
        },
        "solver": {"grid_dims": [1, 1, 1], "ecut": 2.0, "n_empty": 1, "mixer": "linear"},
        "run": {
            "max_iterations": 2,
            "potential_tolerance": 1e-9,
            "eigensolver_tolerance": 1e-4,
            "eigensolver_iterations": 40,
            "checkpoint_every": 1,
        },
    }


def job_mix(seed: int, n: int) -> list[tuple[dict, bool]]:
    """The seeded job sequence: ``(spec, is_resubmission)`` pairs.

    About :data:`RESUBMIT_SHARE` of the jobs repeat an earlier spec
    exactly, which the store's dedup attaches to the existing run.
    Lattice constants stay in [5.5, 5.95] bohr, where every job gets the
    same 8^3 grid.  The sequence for ``n`` is a prefix of the one for any
    larger ``n``.
    """
    rng = random.Random(seed)
    distinct: list[float] = []
    mix = []
    for _ in range(n):
        if distinct and rng.random() < RESUBMIT_SHARE:
            mix.append((job_spec(rng.choice(distinct)), True))
        else:
            a = round(rng.uniform(5.5, 5.95), 4)
            while a in distinct:
                a = round(rng.uniform(5.5, 5.95), 4)
            distinct.append(a)
            mix.append((job_spec(a), False))
    return mix


class StatusPoller(threading.Thread):
    """Open-loop poller: ``status`` of the in-flight run every period.

    Each poll is timed from when it was due, so a stall delays every poll
    behind it; ``lateness`` records how late the poller itself ran.
    """

    def __init__(self, address, period: float) -> None:
        super().__init__(daemon=True)
        self.client = ServiceClient(address, client="perfbench-poller")
        self.period = period
        self.run_id: str | None = None
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.errors: list[str] = []
        self._halt = threading.Event()

    def run(self) -> None:
        due = time.perf_counter()
        while not self._halt.is_set():
            due += self.period
            delay = due - time.perf_counter()
            if delay > 0 and self._halt.wait(delay):
                break
            run_id = self.run_id
            if run_id is None:
                continue
            sent = time.perf_counter()
            try:
                self.client.status(run_id)
            except Exception as exc:  # recorded; counted as a failed poll
                self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            self.latencies.append(time.perf_counter() - due)
            self.lateness.append(sent - due)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)
        self.client.close()


@dataclass
class JobRecord:
    spec: dict
    resubmission: bool
    run_id: str = ""
    attached: bool = False
    latency: float = float("nan")
    iterations: int = 0
    error: str = ""


def _seed_store(root: Path) -> Path:
    """A store root holding :data:`PRIOR_RUNS` finished (failed, unsolved) runs."""
    store = RunStore(root)
    for i in range(PRIOR_RUNS):
        receipt = store.submit(job_spec(round(5.0 + 1e-3 * i, 4)), client="perfbench-prior")
        store.stream(receipt.run_id).append(
            "failed", {"error_type": "PriorRun", "error": "recorded unsolved"}
        )
    return root


def _start_daemon(root: Path) -> tuple[StoreServer, ServiceClient]:
    server = StoreServer(root, job_slots=1)
    server.start()
    client = ServiceClient(server.address, client="perfbench")
    client.ping()
    return server, client


def _check_job(record: JobRecord, result: dict | None) -> str:
    if record.attached != record.resubmission:
        return f"dedup attached={record.attached} for resubmission={record.resubmission}"
    if result is None:
        return "no result"
    density = np.asarray(result["density"])
    if not math.isfinite(float(result["energy"])) or not np.all(np.isfinite(density)):
        return "non-finite result"
    a = record.spec["builder_args"]["lattice_constant"]
    valence = cscl_binary((1, 1, 1), "Zn", "O", a).total_valence_electrons()
    charge = float(density.sum()) * a**3 / density.size
    if abs(charge - valence) > REFERENCE["zno16"]["charge_tolerance"] * valence:
        return f"integrated density {charge:.9f} != {valence}"
    return ""


def _verify_direct(record: JobRecord, result: dict) -> str:
    """Re-solve a job directly; the store promises bit-identical results."""
    solver, run_kwargs = build_solver(record.spec)
    direct = solver.run(**run_kwargs)
    same = (
        float(direct.total_energy) == float(result["energy"])
        and np.array_equal(direct.density, result["density"])
        and np.array_equal(direct.potential, result["potential"])
    )
    return "" if same else "differs from a direct build_solver solve"


def run_store_workload(seconds: float, trace: bool, seed: int, scratch: Path) -> Outcome:
    out = Outcome()
    inst = Instrumentation()
    if trace:
        inst.install()
    rec = inst.rec
    rec.enabled = trace
    servers, setup_times = [], []
    try:
        root = _seed_store(scratch / "store")
        for _ in range(SETUP_REPEATS["store-service"]):
            if servers:
                server, client = servers[-1]
                client.close()
                server.stop()
            t0 = time.perf_counter()
            with rec.span("bench.setup"):
                servers.append(_start_daemon(root))
            setup_times.append(time.perf_counter() - t0)
        server, client = servers[-1]
        inst.reset()

        jobs = _drive_jobs(server, client, seconds, seed)
        spans = list(rec.spans)
        if trace:
            rec.enabled = False
            queue_waits = _queue_waits(client, jobs.records)
            untraced_server, untraced_client = _start_daemon(
                _seed_store(scratch / "store-untraced")
            )
            servers.append((untraced_server, untraced_client))
            untraced = _drive_jobs(untraced_server, untraced_client, seconds, seed)
            if untraced.poller.errors:
                out.fail(f"{len(untraced.poller.errors)} status polls failed (untraced phase)")

        rng = random.Random(seed + 1)
        solved = [r for r in jobs.records if not r.error and not r.attached]
        for record in rng.sample(solved, min(VERIFIED_JOBS, len(solved))):
            record.error = _verify_direct(record, client.result(record.run_id))
    finally:
        for srv, cli in servers:
            cli.close()
            srv.stop()
        if trace:
            inst.uninstall()

    records = jobs.records
    for record in records:
        out.attempted += 1
        if record.error:
            out.fail(f"job {record.run_id or '?'}: {record.error}")
    if jobs.poller.errors:
        out.fail(f"{len(jobs.poller.errors)} status polls failed: {jobs.poller.errors[0]}")

    done = [r for r in records if not r.error]
    latencies = [r.latency if not r.error else math.inf for r in records]
    iterations = sum(r.iterations for r in done if not r.attached)
    out.end_to_end = {
        "setup_s": Metric(stats.median(setup_times), "s", len(setup_times)),
        "scf_iter_per_s": Metric(iterations / jobs.elapsed, "1/s", len(done)),
        "jobs_per_s": Metric(len(done) / jobs.elapsed, "1/s", len(done)),
        "job_latency_p50_s": Metric(stats.median(latencies), "s", len(latencies)),
        "peak_rss_mb": Metric(_self_peak_rss_mb(), "MB"),
    }
    status_ms = [1000.0 * x for x in jobs.poller.latencies]
    lateness_ms = [1000.0 * x for x in jobs.poller.lateness]
    out.report_only = {
        "job_latency_tail_s": _tail_metric(latencies, "s"),
        "status_latency_p50_ms": Metric(stats.median(status_ms), "ms", len(status_ms)),
        "status_latency_tail_ms": _tail_metric(status_ms, "ms"),
        "poller_lateness_p50_ms": Metric(stats.median(lateness_ms), "ms", len(lateness_ms)),
        "poller_lateness_max_ms": Metric(max(lateness_ms), "ms", len(lateness_ms)),
        "dedup_share": Metric(
            sum(r.attached for r in records) / len(records), "ratio", len(records)
        ),
    }
    if trace:
        n = len(records)
        values = _span_layer_metrics(inst, spans, n)
        values.update(_timing_metrics(inst.scf_results, n))
        values.update({k: 0.0 for k, _ in _EXECUTOR_COUNTERS})
        values["parallel.tasks_submitted"] = values["parallel.pool_submissions"] = (
            inst.counts.get("tasks", 0.0) / n
        )
        values["pw.fftcache_hit_ratio"] = jobs.fft_hit_ratio
        values["pw.structure_factor_s"] = sp.total_time(spans, "pw.structure_factor") / n
        values["core.problem_build_s"] = (
            sp.total_time(spans, "core.build_problem")
            + sp.total_time(spans, "core.passivation")
        ) / n
        values["core.driver_cpu_s"] = jobs.cpu / n
        values["core.serial_fraction"] = jobs.cpu / jobs.elapsed
        values["parallel.worker_peak_rss_mb"] = 0.0
        values["store.queue_wait_s"] = stats.median(queue_waits) if queue_waits else 0.0
        values["store.dedup_hit_ratio"] = sum(r.attached for r in records) / n
        out.per_layer = {name: Metric(values[name], unit, n) for name, unit in PER_LAYER[:-1]}
        traced = len(done) / jobs.elapsed
        plain = sum(not r.error for r in untraced.records) / untraced.elapsed
        out.per_layer["trace_overhead_pct"] = Metric(
            100.0 * (plain - traced) / plain, "%", len(untraced.records),
            note=f"untraced {plain:.4f} vs traced {traced:.4f} jobs_per_s",
        )
        out.spans = spans
    return out


@dataclass
class JobsPhase:
    records: list
    elapsed: float
    cpu: float
    poller: StatusPoller
    fft_hit_ratio: float


def _drive_jobs(server, client, seconds: float, seed: int) -> JobsPhase:
    """Closed-loop job client plus the open-loop status poller.

    One client submits a job, waits for it, fetches its result and only
    then submits the next, for at least :data:`MIN_JOBS` jobs and
    ``seconds`` seconds.
    """
    poller = StatusPoller(server.address, POLL_PERIOD_S)
    poller.start()
    records: list[JobRecord] = []
    mix = job_mix(seed, MIN_JOBS)
    cache0 = fftcache.stats()
    c0, t_start = time.process_time(), time.perf_counter()
    try:
        while len(records) < MIN_JOBS or time.perf_counter() - t_start < seconds:
            if len(records) == len(mix):
                mix = job_mix(seed, 2 * len(mix))
            record = JobRecord(*mix[len(records)])
            records.append(record)
            t0 = time.perf_counter()
            try:
                receipt = client.submit(record.spec)
                record.run_id = receipt["run_id"]
                record.attached = bool(receipt["attached"])
                poller.run_id = record.run_id
                client.wait(record.run_id, timeout=JOB_TIMEOUT_S, poll=0.01)
                result = client.result(record.run_id)
                record.latency = time.perf_counter() - t0
            except Exception as exc:  # a timed-out or refused job is a failed op
                record.error = f"{type(exc).__name__}: {exc}"
                continue
            record.error = _check_job(record, result)
            if result is not None:
                record.iterations = int(result["iterations"])
        elapsed = time.perf_counter() - t_start
        cpu = time.process_time() - c0
    finally:
        poller.stop()
    cache1 = fftcache.stats()
    hits = cache1["hits"] - cache0["hits"]
    lookups = hits + cache1["misses"] - cache0["misses"]
    return JobsPhase(records, elapsed, cpu, poller, hits / lookups if lookups else 0.0)


def _queue_waits(client: ServiceClient, records: list[JobRecord]) -> list[float]:
    """submitted -> scheduled delay of every solved run, from its events."""
    waits = []
    for run_id in sorted({r.run_id for r in records if r.run_id and not r.attached}):
        ts = {}
        for event in client.events(run_id):
            ts.setdefault(event["kind"], event["ts"])
        if "submitted" in ts and "scheduled" in ts:
            waits.append(ts["scheduled"] - ts["submitted"])
    return waits


def make_scratch(root: Path) -> Path:
    path = root / ".perfbench_tmp" / f"{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass
