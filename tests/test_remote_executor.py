"""Tests for the socket-backed remote executor (ISSUE-7 tentpole).

Covers the wire protocol (framing, handshake, typed protocol errors),
the ``repro-worker`` server surface, and the driver-side
:class:`~repro.parallel.remote.RemoteExecutor` — bit-identical (``==``)
to the serial backend for all executor protocols (``run`` /
``run_pipeline`` / ``run_global`` / ``run_bands``), with install-once
dedup accounting and byte counters.

The second half drives the failure model with the deterministic fault
harness (:mod:`repro.parallel.faults`): dropped connections, killed
workers, delayed and timed-out replies, unreachable addresses, total
worker loss with and without a local fallback, and genuine kernel
errors.  The acceptance criterion from the ISSUE: every failure mode
ends in either a bit-identical result (after resubmission) or a loud
typed error — never a hang and never silent corruption.

The in-process workers (:func:`start_worker_thread`) speak the full TCP
protocol over loopback, so these tests exercise every byte of the wire
path while staying fast enough for tier-1.  The ``remote``-marked test
at the bottom uses real worker *subprocesses* (:class:`LocalWorkerPool`)
against the golden-regression systems; CI runs it in the dedicated
``remote-smoke`` job.
"""

import contextlib
import json
import os
import socket
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import (
    FragmentExecutor,
    FragmentTask,
    PipelineFragmentExecutor,
    clear_installed_potentials,
    fetch_potential,
    potential_fingerprint,
    run_fragment_pipeline_task,
    solve_fragment_task,
)
from repro.core.scf import LS3DFSCF
from repro.parallel.executor import SerialFragmentExecutor
from repro.parallel.faults import FaultPlan
from repro.parallel.remote import (
    PROTOCOL_VERSION,
    LocalWorkerPool,
    NoRemoteWorkersError,
    RemoteExecutor,
    RemoteExecutorConfig,
    RemoteProtocolError,
    RemoteTaskError,
    WorkerServer,
    recv_frame,
    send_frame,
    start_worker_thread,
)
from repro.pw.grid import FFTGrid


def _make_task(label="frag") -> FragmentTask:
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    return FragmentTask(
        label=label,
        cell=tuple(structure.cell),
        grid_shape=grid.shape,
        symbols=structure.symbols,
        positions=structure.positions,
        screening_potential=np.full(grid.shape, 0.02),
        ecut=2.0,
        n_empty=1,
        tolerance=1e-4,
        max_iterations=40,
    )


def _tiny_scf(executor=None, **kw) -> LS3DFSCF:
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kw,
    )


_RUN_KW = dict(
    max_iterations=3,
    potential_tolerance=1e-6,  # never met in 3 iterations: fixed work
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


def _config(**kw) -> RemoteExecutorConfig:
    """Test defaults: fast retries, no heartbeat noise between batches."""
    base = dict(
        connect_timeout=2.0,
        request_timeout=60.0,
        heartbeat_interval=1e9,
        max_retries=1,
        backoff=0.01,
    )
    base.update(kw)
    return RemoteExecutorConfig(**base)


@contextlib.contextmanager
def _cluster(n=2, plans=None, fallback="serial", **cfg):
    """``n`` in-process loopback workers + a RemoteExecutor over them.

    ``plans`` maps worker index -> :class:`FaultPlan` for that worker.
    """
    plans = plans or {}
    servers = [start_worker_thread(fault_plan=plans.get(i)) for i in range(n)]
    executor = RemoteExecutor(
        [s.address for s in servers], config=_config(**cfg), fallback=fallback
    )
    try:
        yield executor, servers
    finally:
        executor.close()
        for server in servers:
            server.stop()


def _assert_results_equal(got, want):
    """Bit-identity of fragment solve results (the `==` criterion)."""
    assert [r.label for r in got] == [r.label for r in want]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.eigenvalues, w.eigenvalues)
        np.testing.assert_array_equal(g.density, w.density)
        assert g.quantum_energy == w.quantum_energy


# --- framing ----------------------------------------------------------------------

def test_frame_roundtrip_with_arrays():
    a, b = socket.socketpair()
    try:
        payload = {"op": "task", "x": np.arange(6.0).reshape(2, 3), "s": "hi"}
        sent = send_frame(a, payload)
        obj, received = recv_frame(b)
        assert sent == received > 12  # 12-byte header + pickle
        np.testing.assert_array_equal(obj["x"], payload["x"])
        assert obj["op"] == "task" and obj["s"] == "hi"
    finally:
        a.close()
        b.close()


def test_frame_rejects_bad_magic():
    a, b = socket.socketpair()
    try:
        a.sendall(b"XXXX" + (5).to_bytes(8, "big") + b"12345")
        with pytest.raises(RemoteProtocolError, match="magic"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_size_limits_both_directions():
    a, b = socket.socketpair()
    try:
        with pytest.raises(RemoteProtocolError, match="exceeds"):
            send_frame(a, np.zeros(1000), max_bytes=100)
        send_frame(a, np.zeros(1000))
        with pytest.raises(RemoteProtocolError, match="exceeds"):
            recv_frame(b, max_bytes=100)
    finally:
        a.close()
        b.close()


def test_frame_connection_closed_mid_stream():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises((ConnectionError, OSError)):
            recv_frame(b)
    finally:
        b.close()


# --- worker protocol surface ------------------------------------------------------

def _roundtrip(sock, obj):
    send_frame(sock, obj)
    reply, _ = recv_frame(sock)
    return reply


def test_worker_protocol_surface():
    with WorkerServer() as server:
        sock = socket.create_connection(server.address, timeout=5)
        try:
            hello = _roundtrip(sock, {"op": "hello", "version": PROTOCOL_VERSION})
            assert hello["ok"]
            assert hello["version"] == PROTOCOL_VERSION
            assert hello["pid"] == os.getpid()  # in-process worker
            # A version-mismatched driver is refused loudly, not garbled.
            bad = _roundtrip(sock, {"op": "hello", "version": 99})
            assert not bad["ok"] and "version mismatch" in bad["error"]
            assert _roundtrip(sock, {"op": "ping"})["ok"]
            unknown = _roundtrip(sock, {"op": "frobnicate"})
            assert not unknown["ok"]
            assert unknown["error_type"] == "RemoteProtocolError"
            badkind = _roundtrip(sock, {"op": "task", "kind": "nope", "task": 0})
            assert not badkind["ok"]
            assert badkind["error_type"] == "RemoteProtocolError"
            stats = _roundtrip(sock, {"op": "stats"})
            assert stats["ok"] and stats["tasks_served"] == 0
            assert stats["bytes_received"] > 0
            assert _roundtrip(sock, {"op": "shutdown"})["ok"]
        finally:
            sock.close()


# --- executor basics --------------------------------------------------------------

def test_remote_executor_satisfies_protocols():
    executor = RemoteExecutor([])
    assert isinstance(executor, FragmentExecutor)
    assert isinstance(executor, PipelineFragmentExecutor)
    assert executor.n_workers == executor.nworkers == 1  # never degenerates


def test_remote_run_matches_local_kernels():
    tasks = [_make_task(f"f{i}") for i in range(3)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(2) as (executor, _):
        assert executor.heartbeat() == 2
        report = executor.run(tasks)
        assert report.worker_count == 2
        assert executor.tasks_submitted == 3
        assert executor.pool_submissions == 3
        assert executor.workers_lost == 0 and executor.degraded_tasks == 0
        assert executor.bytes_sent > 0 and executor.bytes_received > 0
        _assert_results_equal(report.results, reference)


def test_shutdown_workers_then_degrade_to_local():
    tasks = [_make_task(f"s{i}") for i in range(2)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(2) as (executor, _):
        assert executor.shutdown_workers() == 2
        report = executor.run(tasks)  # everything falls through to serial
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 2
        assert executor.degraded_tasks == 2


def test_silent_worker_degrades_within_the_connect_budget():
    """A peer that accepts connections but never answers the handshake
    (e.g. a stopped worker whose listening socket lingers) costs at most
    ``connect_timeout`` before the batch degrades to local — not a whole
    ``request_timeout`` (60 s here)."""
    silent = socket.socket()
    silent.bind(("127.0.0.1", 0))
    silent.listen(4)  # the kernel completes TCP handshakes; nobody replies
    tasks = [_make_task(f"h{i}") for i in range(2)]
    reference = [solve_fragment_task(t) for t in tasks]
    executor = RemoteExecutor(
        [silent.getsockname()], config=_config(max_retries=0, connect_timeout=0.5)
    )
    try:
        t0 = time.perf_counter()
        report = executor.run(tasks)
        elapsed = time.perf_counter() - t0
    finally:
        executor.close()
        silent.close()
    _assert_results_equal(report.results, reference)
    assert executor.workers_lost == 1
    assert executor.degraded_tasks == 2
    assert elapsed < 5.0


def test_heartbeat_flags_dead_workers():
    with _cluster(2) as (executor, servers):
        assert executor.heartbeat() == 2
        servers[1].stop()
        for _ in range(3):  # the in-flight connection drains on first ping
            alive = executor.heartbeat()
        assert alive == 1
        assert executor.workers_lost == 1
        assert executor.n_workers == 1


# --- install channel --------------------------------------------------------------

def test_install_dedup_keeps_repeats_off_the_wire():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((6, 5, 4))
    key = potential_fingerprint(v)
    try:
        with _cluster(2) as (executor, servers):
            executor.install_state(key, v)
            assert executor.install_broadcasts == 2  # once per worker
            sent = executor.bytes_sent
            executor.install_state(key, v)  # dedup: no frames at all
            assert executor.install_broadcasts == 2
            assert executor.bytes_sent == sent
            other = potential_fingerprint(v + 1.0)
            executor.install_state(other, v + 1.0)
            assert executor.install_broadcasts == 4
            assert executor.bytes_sent > sent
            assert sum(s.installs for s in servers) == 4
    finally:
        clear_installed_potentials()


def test_missed_install_heals_with_payload_then_reinstalls():
    """A worker that never saw the install answers with the typed miss;
    the driver resubmits once with the payload inline (bit-identical
    result), then installs the key properly so the heal happens once."""
    scf = _tiny_scf()
    v_in = scf.genpot.initial_potential()
    key = potential_fingerprint(v_in)
    keyed = scf.fragment_solver.make_pipeline_task(
        scf.fragments[0], v_in, eigensolver_tolerance=1e-4,
        eigensolver_iterations=40, global_potential_key=key)
    inline = scf.fragment_solver.make_pipeline_task(
        scf.fragments[0], v_in, eigensolver_tolerance=1e-4,
        eigensolver_iterations=40)
    reference = run_fragment_pipeline_task(inline)
    try:
        with _cluster(1) as (executor, _):
            executor.install_state(key, v_in)
            clear_installed_potentials()  # simulate worker amnesia
            report = executor.run_pipeline([keyed])
            np.testing.assert_array_equal(
                report.results[0].contribution, reference.contribution)
            assert executor.tasks_submitted == 1
            assert executor.pool_submissions == 2  # one heal retry
            # The post-heal explicit install restocked the worker store.
            assert executor.install_broadcasts == 2
            np.testing.assert_array_equal(fetch_potential(key), v_in)
    finally:
        clear_installed_potentials()


# --- SCF equivalence through every protocol ---------------------------------------

@pytest.fixture(scope="module")
def remote_scf_runs():
    """Serial reference + one remote run per protocol family.

    Module-scoped because the four tiny SCF runs dominate this file's
    cost; every run crosses real loopback TCP for every task.
    """
    reference = _tiny_scf(SerialFragmentExecutor()).run(**_RUN_KW)
    runs = {"reference": (reference, None)}
    servers = [start_worker_thread() for _ in range(2)]
    try:
        cases = [
            ("pipeline", {}),
            ("genpot", dict(genpot_shards=2)),
            ("bands", dict(band_groups=2)),
        ]
        for name, kw in cases:
            with RemoteExecutor(
                [s.address for s in servers], config=_config()
            ) as executor:
                scf = _tiny_scf(executor, **kw)
                result = scf.run(**_RUN_KW)
                runs[name] = (
                    result,
                    dict(
                        tasks=executor.tasks_submitted,
                        installs=executor.install_broadcasts,
                        sent=executor.bytes_sent,
                        received=executor.bytes_received,
                        lost=executor.workers_lost,
                        degraded=executor.degraded_tasks,
                        nfragments=scf.nfragments,
                    ),
                )
    finally:
        for server in servers:
            server.stop()
    return runs


def test_remote_scf_bit_identical_for_all_protocols(remote_scf_runs):
    """Acceptance criterion: remote == serial, bit for bit, for the
    fused pipeline, the sharded GENPOT slabs and the band-grouped path."""
    reference = remote_scf_runs["reference"][0]
    for name in ("pipeline", "genpot", "bands"):
        result, stats = remote_scf_runs[name]
        np.testing.assert_array_equal(
            result.density, reference.density, err_msg=name)
        np.testing.assert_array_equal(
            result.potential, reference.potential, err_msg=name)
        assert result.total_energy == reference.total_energy, name
        assert result.quantum_energy == reference.quantum_energy, name
        assert result.convergence_history == reference.convergence_history, name
        # Healthy cluster: nothing was lost or degraded along the way.
        assert stats["lost"] == 0 and stats["degraded"] == 0, name


def test_remote_scf_accounting(remote_scf_runs):
    result, stats = remote_scf_runs["pipeline"]
    # One submission per fragment per iteration, like every backend.
    assert stats["tasks"] == stats["nfragments"] * result.iterations
    # One install per worker per iteration potential (dedup holds).
    assert stats["installs"] == 2 * result.iterations
    assert stats["sent"] > 0 and stats["received"] > 0
    # Band-grouped: one submission per band-task batch, `slices` each.
    bands_result, bands_stats = remote_scf_runs["bands"]
    stages = sum(t.band_stages for t in bands_result.timings)
    assert bands_stats["tasks"] == stages * 2


# --- the failure model, scenario by scenario --------------------------------------

def test_dropped_connection_resubmits_bit_identically():
    """Worker 0 drops the connection mid-task; its task is resubmitted
    to the survivor and the batch result is unchanged."""
    tasks = [_make_task(f"d{i}") for i in range(4)]
    reference = [solve_fragment_task(t) for t in tasks]
    plans = {
        0: FaultPlan(drop_at=(0,)),
        1: FaultPlan(delay_at={0: 0.3}),  # keep the survivor busy so both
    }                                     # workers deterministically pop
    with _cluster(2, plans=plans) as (executor, servers):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 1
        assert executor.resubmissions == 1
        assert executor.degraded_tasks == 0
        assert report.resubmissions == 1
        assert servers[0].tasks_served == 1  # faulted before the kernel ran


def test_killed_worker_resubmits_bit_identically():
    tasks = [_make_task(f"k{i}") for i in range(4)]
    reference = [solve_fragment_task(t) for t in tasks]
    plans = {0: FaultPlan(kill_at=(0,)), 1: FaultPlan(delay_at={0: 0.3})}
    with _cluster(2, plans=plans) as (executor, servers):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 1
        assert executor.resubmissions == 1
        assert servers[0]._stop.is_set()  # the whole worker died


def test_delay_within_timeout_just_waits():
    tasks = [_make_task(f"w{i}") for i in range(3)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(2, plans={0: FaultPlan(delay_at={0: 0.2})}) as (executor, _):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 0
        assert executor.resubmissions == 0


def test_reply_past_timeout_marks_worker_dead():
    """A hung worker cannot hang the driver: the bounded request timeout
    converts it into a dead worker, and the task runs elsewhere."""
    tasks = [_make_task(f"t{i}") for i in range(2)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(
        1, plans={0: FaultPlan(delay_at={0: 2.0})}, request_timeout=0.4
    ) as (executor, _):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 1
        assert executor.resubmissions == 1
        assert executor.degraded_tasks == 2  # no survivors: local fallback


def test_all_workers_dead_degrades_to_serial():
    tasks = [_make_task(f"g{i}") for i in range(3)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(1, plans={0: FaultPlan(kill_at=(0,))}) as (executor, _):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 1
        assert executor.degraded_tasks == 3


def test_all_workers_dead_without_fallback_raises():
    tasks = [_make_task("n0")]
    with _cluster(1, plans={0: FaultPlan(kill_at=(0,))}, fallback=None) as (
        executor, _,
    ):
        with pytest.raises(NoRemoteWorkersError, match="fallback is disabled"):
            executor.run(tasks)
    # No addresses at all is the same typed error, with no hang.
    with pytest.raises(NoRemoteWorkersError):
        RemoteExecutor([], fallback=None).run(tasks)


def test_unreachable_address_falls_back():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()
    probe.close()  # nothing listens here any more
    tasks = [_make_task(f"u{i}") for i in range(2)]
    reference = [solve_fragment_task(t) for t in tasks]
    executor = RemoteExecutor(
        [dead_address], config=_config(max_retries=0, connect_timeout=1.0)
    )
    report = executor.run(tasks)
    _assert_results_equal(report.results, reference)
    assert executor.workers_lost == 1
    assert executor.degraded_tasks == 2


def test_kernel_error_is_typed_and_never_retried():
    """A deterministic kernel exception would fail on any worker, so it
    must surface as RemoteTaskError — no resubmission, worker stays up."""
    with _cluster(1) as (executor, _):
        with pytest.raises(RemoteTaskError, match="AttributeError"):
            executor.run([42])  # not a task: the kernel raises
        assert executor.resubmissions == 0
        assert executor.degraded_tasks == 0
        assert executor.heartbeat() == 1  # the worker survived the error


def test_remote_task_error_carries_worker_exception_type():
    with _cluster(1) as (executor, _):
        with pytest.raises(RemoteTaskError) as err:
            executor.run_pipeline([object()])
        assert err.value.error_type == "AttributeError"


# --- real subprocess workers (the CI remote-smoke job) ----------------------------

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(_GOLDEN_DIR))


@pytest.mark.remote
@pytest.mark.parametrize("name", ["zno_2x1x1", "gaas_1x1x2"])
def test_remote_subprocess_workers_match_golden_systems(name):
    """Two real ``repro-worker`` subprocesses run the golden-regression
    protocol through the remote backend: bit-identical to the in-process
    pipeline path, and anchored to the stored golden numbers."""
    from generate import PROTOCOL, SYSTEMS
    from repro.core.driver import LS3DF

    spec = SYSTEMS[name]
    structure = cscl_binary(
        spec["dims"], spec["cation"], spec["anion"], spec["lattice"])

    def build(executor=None):
        return LS3DF(
            structure,
            grid_dims=spec["dims"],
            ecut=PROTOCOL["ecut"],
            buffer_cells=PROTOCOL["buffer_cells"],
            n_empty=PROTOCOL["n_empty"],
            mixer=PROTOCOL["mixer"],
            executor=executor,
        )

    serial = build().run(**PROTOCOL["run"])
    with LocalWorkerPool(2) as pool:
        with RemoteExecutor(pool.addresses, config=_config()) as executor:
            remote = build(executor).run(**PROTOCOL["run"])
            assert executor.workers_lost == 0
            assert executor.degraded_tasks == 0
            assert executor.install_broadcasts > 0
            assert executor.bytes_sent > 0
    np.testing.assert_array_equal(remote.density, serial.density)
    np.testing.assert_array_equal(remote.potential, serial.potential)
    assert remote.total_energy == serial.total_energy
    assert remote.convergence_history == serial.convergence_history
    golden = json.loads((_GOLDEN_DIR / f"{name}.json").read_text())
    assert remote.iterations == golden["iterations"]
    assert remote.total_energy == pytest.approx(
        golden["total_energy"], rel=1e-10, abs=1e-12)
    np.testing.assert_allclose(
        remote.convergence_history, golden["convergence_history"],
        rtol=1e-10, atol=1e-12)
