"""Tests for the streaming GENPOT engine (PR 8).

Covers the acceptance criteria of the streaming tentpole:

* :class:`repro.parallel.streaming.SlabExchangeBuffer` assembles, from
  source slabs arriving in *any* order, exactly the bytes of the
  synchronous :meth:`DistributedField.exchange`.
* The streamed GENPOT evaluation is bit-identical (``==``, not allclose)
  to the PR 3 synchronous sharded path — and hence to the serial path —
  across the serial / thread / process / remote-socket backends, shard
  counts {1, 2, 3, nz}, the kerker / linear / anderson mixers and
  overlap on/off, including full SCF iterate histories through
  :class:`repro.core.scf.LS3DFSCF`.
* A worker killed mid-stream is resubmitted to the survivors (and the
  local fallback drains the queue when no worker survives), with
  bit-identical results either way.
* The opt-in real-FFT density path (``REPRO_REAL_FFT``): off by
  default, tolerance-equal to the complex transforms, and the streamed
  half-spectrum chain bit-identical to the serial real-FFT branch.
* The new overlap accounting: occupancy in [0, 1], measured layout
  conversion, and the overlapped pipeline reduce's wait/busy split.
"""

import contextlib

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary
from repro.core.genpot import GlobalPotentialSolver
from repro.core.scf import LS3DFSCF
from repro.parallel.distributed import DistributedField
from repro.parallel.executor import (
    ProcessPoolFragmentExecutor,
    SerialFragmentExecutor,
    ThreadPoolFragmentExecutor,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.remote import (
    RemoteExecutor,
    RemoteExecutorConfig,
    start_worker_thread,
)
from repro.parallel.streaming import (
    SlabExchangeBuffer,
    stream_genpot,
    streaming_supported,
)
from repro.pw import fftcache
from repro.pw.grid import FFTGrid
from repro.pw.hartree import hartree_potential, poisson_residual
from repro.pw.mixing import make_mixer
from repro.pw.pseudopotential import default_pseudopotentials

GRID_SHAPE = (4, 6, 8)


@pytest.fixture
def grid() -> FFTGrid:
    return FFTGrid((7.0, 9.0, 11.0), GRID_SHAPE)


@pytest.fixture
def fields(grid):
    rng = np.random.default_rng(42)
    rho = rng.random(grid.shape)
    v_in = rng.standard_normal(grid.shape)
    return rho, v_in


def _make_solver(grid, mixer, shards=None, executor=None, overlap=True):
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    return GlobalPotentialSolver(
        structure,
        grid,
        default_pseudopotentials(),
        mixer=mixer,
        shards=shards,
        executor=executor,
        overlap=overlap,
    )


def _config(**kw) -> RemoteExecutorConfig:
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


def _assert_outputs_equal(got, want):
    """Bit-identity of two GENPOT evaluations (the `==` criterion)."""
    assert np.array_equal(got.output_potential, want.output_potential)
    assert np.array_equal(got.next_input_potential, want.next_input_potential)
    assert got.potential_difference == want.potential_difference
    assert got.electrostatic_energy == want.electrostatic_energy
    assert got.xc_energy == want.xc_energy


# --- incremental exchange ---------------------------------------------------------


@pytest.mark.parametrize("axes", [(2, 0), (0, 2)])
@pytest.mark.parametrize("nshards", [1, 2, 3, 5, 8])
def test_exchange_buffer_matches_synchronous_exchange(axes, nshards):
    """Out-of-order incremental assembly == DistributedField.exchange bytes."""
    src_axis, dst_axis = axes
    rng = np.random.default_rng(7)
    field = rng.standard_normal(GRID_SHAPE) + 1j * rng.standard_normal(GRID_SHAPE)
    sync = DistributedField.scatter(field, nshards, axis=src_axis).exchange(dst_axis)

    buffer = SlabExchangeBuffer(GRID_SHAPE, src_axis, dst_axis, nshards)
    slabs = DistributedField.scatter(field, nshards, axis=src_axis).slabs
    completed = {}
    # Arrival order reversed: completion must not depend on source order.
    for i in reversed(range(nshards)):
        for j in buffer.add(i, slabs[i]):
            completed[j] = buffer.take(j)
    assert sorted(completed) == list(range(nshards))
    for j in range(nshards):
        np.testing.assert_array_equal(completed[j], sync.slabs[j])


def test_exchange_buffer_guards():
    with pytest.raises(ValueError, match="distinct axes"):
        SlabExchangeBuffer(GRID_SHAPE, 2, 2, 2)
    buffer = SlabExchangeBuffer(GRID_SHAPE, 0, 2, 2)
    with pytest.raises(RuntimeError, match="not complete"):
        buffer.take(0)
    slabs = DistributedField.scatter(np.zeros(GRID_SHAPE), 2, axis=0).slabs
    buffer.add(0, slabs[0])
    ready = buffer.add(1, slabs[1])
    assert ready == [0, 1]
    buffer.take(0)
    with pytest.raises(RuntimeError, match="already taken"):
        buffer.take(0)


# --- streamed evaluation: the backend x shards x mixer x overlap matrix -----------


@pytest.mark.parametrize("mixer", ["linear", "kerker", "anderson"])
@pytest.mark.parametrize("shards", [2, 3, GRID_SHAPE[2]])
def test_streaming_evaluate_bit_identical_serial(grid, fields, mixer, shards):
    """Streamed == synchronous sharded == serial, for every mixer and shards."""
    rho, v_in = fields
    serial = _make_solver(grid, mixer).evaluate(rho, v_in)
    sync = _make_solver(grid, mixer, shards=shards, overlap=False).evaluate(rho, v_in)
    streamed = _make_solver(grid, mixer, shards=shards).evaluate(rho, v_in)
    _assert_outputs_equal(sync, serial)
    _assert_outputs_equal(streamed, serial)
    assert streamed.timings.overlap
    assert not sync.timings.overlap


@pytest.mark.parametrize("mixer", ["linear", "kerker", "anderson"])
def test_streaming_evaluate_bit_identical_pools(grid, fields, mixer):
    """Thread and process pools stream to the same bits as the serial path."""
    rho, v_in = fields
    reference = _make_solver(grid, mixer, shards=3).evaluate(rho, v_in)
    with ThreadPoolFragmentExecutor(n_workers=3) as threads:
        threaded = _make_solver(grid, mixer, shards=3, executor=threads).evaluate(
            rho, v_in
        )
    with ProcessPoolFragmentExecutor(n_workers=2) as procs:
        pooled = _make_solver(grid, mixer, shards=3, executor=procs).evaluate(
            rho, v_in
        )
    _assert_outputs_equal(threaded, reference)
    _assert_outputs_equal(pooled, reference)


def test_streaming_evaluate_bit_identical_remote(grid, fields):
    """The socket backend streams to the same bits, shards 1..nz."""
    rho, v_in = fields
    with _cluster(2) as (executor, _):
        assert streaming_supported(executor)
        for shards in (1, 2, 3, GRID_SHAPE[2]):
            reference = _make_solver(grid, "kerker", shards=shards).evaluate(
                rho, v_in
            )
            remote = _make_solver(
                grid, "kerker", shards=shards, executor=executor
            ).evaluate(rho, v_in)
            _assert_outputs_equal(remote, reference)


def test_streaming_falls_back_without_futures_surface(grid, fields):
    """An executor without submit_global silently takes the synchronous path."""
    rho, v_in = fields

    class BatchOnly:
        n_workers = 1

        def __init__(self):
            self._inner = SerialFragmentExecutor()

        def run_global(self, tasks):
            return self._inner.run_global(tasks)

    executor = BatchOnly()
    assert not streaming_supported(executor)
    solver = _make_solver(grid, "kerker", shards=3, executor=executor)
    out = solver.evaluate(rho, v_in)
    assert not out.timings.overlap
    _assert_outputs_equal(out, _make_solver(grid, "kerker", shards=3).evaluate(rho, v_in))


# --- overlap accounting -----------------------------------------------------------


def test_streaming_timing_counters(grid, fields):
    rho, v_in = fields
    out = _make_solver(grid, "kerker", shards=3).evaluate(rho, v_in)
    t = out.timings
    assert t.overlap and t.sharded and t.shards == 3
    assert t.wait >= 0.0 and t.busy >= 0.0
    assert 0.0 <= t.occupancy <= 1.0
    assert t.layout_conversion > 0.0
    assert len(t.task_times) == 9 * 3  # 5 resident stages + 4 spectral-mix
    assert t.poisson > 0.0 and t.xc > 0.0 and t.mix > 0.0
    assert t.driver >= 0.0
    # The synchronous path leaves the overlap meters untouched.
    t_sync = _make_solver(grid, "kerker", shards=3, overlap=False).evaluate(
        rho, v_in
    ).timings
    assert not t_sync.overlap
    assert t_sync.occupancy == 0.0 and t_sync.layout_conversion == 0.0


# --- full SCF: streamed iterates == synchronous iterates --------------------------


def _scf(executor=None, **kw) -> LS3DFSCF:
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


def _assert_runs_equal(got, want):
    assert got.convergence_history == want.convergence_history
    assert got.energy_history == want.energy_history
    np.testing.assert_array_equal(got.density, want.density)
    np.testing.assert_array_equal(got.potential, want.potential)
    assert got.total_energy == want.total_energy


@pytest.fixture(scope="module")
def scf_reference():
    """Synchronous sharded GENPOT run."""
    scf = _scf(SerialFragmentExecutor(), genpot_shards=4, genpot_overlap=False)
    return scf.run(**_RUN_KW)


def test_scf_streaming_bit_identical_serial(scf_reference):
    scf = _scf(SerialFragmentExecutor(), genpot_shards=4)
    result = scf.run(**_RUN_KW)
    _assert_runs_equal(result, scf_reference)
    t = result.timings[0]
    assert t.genpot_overlap
    assert 0.0 <= t.overlap_occupancy <= 1.0
    assert t.layout_conversion > 0.0
    # The synchronous reference recorded no GENPOT overlap.
    assert not scf_reference.timings[0].genpot_overlap


def test_scf_streaming_bit_identical_threads(scf_reference):
    with ThreadPoolFragmentExecutor(n_workers=2) as executor:
        result = _scf(executor, genpot_shards=4).run(**_RUN_KW)
    _assert_runs_equal(result, scf_reference)


def test_scf_streaming_bit_identical_process(scf_reference):
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        result = _scf(executor, genpot_shards=4).run(**_RUN_KW)
    _assert_runs_equal(result, scf_reference)


def test_scf_streaming_bit_identical_remote(scf_reference):
    with _cluster(2) as (executor, _):
        result = _scf(executor, genpot_shards=4).run(**_RUN_KW)
    _assert_runs_equal(result, scf_reference)


# --- fault tolerance mid-stream ---------------------------------------------------


def test_stream_resubmits_after_worker_death(grid, fields):
    """A worker killed mid-stream loses nothing: survivors re-run its slabs."""
    rho, v_in = fields
    reference = _make_solver(grid, "kerker", shards=4).evaluate(rho, v_in)
    plans = {0: FaultPlan(kill_at=(2,)), 1: FaultPlan(delay_at={0: 0.2})}
    with _cluster(2, plans=plans) as (executor, _):
        out = _make_solver(grid, "kerker", shards=4, executor=executor).evaluate(
            rho, v_in
        )
        assert executor.workers_lost >= 1
        assert executor.resubmissions >= 1
    _assert_outputs_equal(out, reference)


def test_stream_degrades_to_fallback_when_all_workers_die(grid, fields):
    """With no survivors the queue drains through the local fallback."""
    rho, v_in = fields
    reference = _make_solver(grid, "kerker", shards=4).evaluate(rho, v_in)
    with _cluster(1, plans={0: FaultPlan(kill_at=(1,))}) as (executor, _):
        out = _make_solver(grid, "kerker", shards=4, executor=executor).evaluate(
            rho, v_in
        )
        assert executor.workers_lost == 1
        assert executor.degraded_tasks > 0
        # Later submissions short-circuit to the fallback immediately.
        again = _make_solver(grid, "kerker", shards=4, executor=executor).evaluate(
            rho, v_in
        )
    _assert_outputs_equal(out, reference)
    _assert_outputs_equal(again, reference)


# --- real-FFT density path --------------------------------------------------------


def test_real_fft_knob_defaults_off(monkeypatch):
    monkeypatch.delenv("REPRO_REAL_FFT", raising=False)
    assert not fftcache.real_fft_enabled()
    monkeypatch.setenv("REPRO_REAL_FFT", "1")
    assert fftcache.real_fft_enabled()
    monkeypatch.setenv("REPRO_REAL_FFT", "off")
    assert not fftcache.real_fft_enabled()
    fftcache.configure_real_fft(True)
    try:
        assert fftcache.real_fft_enabled()
    finally:
        fftcache.configure_real_fft(None)
    assert not fftcache.real_fft_enabled()


def test_real_fft_roundtrip_and_poisson_property(grid):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(grid.shape)
    np.testing.assert_allclose(
        fftcache.irfftn(fftcache.rfftn(x), grid.shape), x, atol=1e-12
    )
    rho = rng.random(grid.shape)
    fftcache.configure_real_fft(True)
    try:
        v = hartree_potential(rho, grid)
    finally:
        fftcache.configure_real_fft(None)
    # The real-FFT solution still solves the periodic Poisson equation.
    assert poisson_residual(v, rho, grid) < 1e-8


def test_real_fft_matches_complex_to_tolerance(grid, fields):
    """Same mathematics, different round-off: close but not bit-identical."""
    rho, _ = fields
    v_complex = hartree_potential(rho, grid)
    fftcache.configure_real_fft(True)
    try:
        v_real = hartree_potential(rho, grid)
    finally:
        fftcache.configure_real_fft(None)
    np.testing.assert_allclose(v_real, v_complex, atol=1e-12)
    assert not np.array_equal(v_real, v_complex)


@pytest.mark.parametrize("shards", [1, 2, 3, GRID_SHAPE[2]])
def test_streamed_real_fft_bit_identical_to_serial_real(grid, fields, shards):
    """The half-spectrum streamed chain == the serial rfftn branch, bitwise."""
    rho, v_in = fields
    fftcache.configure_real_fft(True)
    try:
        serial = _make_solver(grid, "kerker").evaluate(rho, v_in)
        streamed = _make_solver(grid, "kerker", shards=shards).evaluate(rho, v_in)
        with ThreadPoolFragmentExecutor(n_workers=3) as threads:
            threaded = _make_solver(
                grid, "kerker", shards=shards, executor=threads
            ).evaluate(rho, v_in)
    finally:
        fftcache.configure_real_fft(None)
    _assert_outputs_equal(streamed, serial)
    _assert_outputs_equal(threaded, serial)


def test_stream_genpot_serial_mixer_returns_none(grid, fields):
    """Serial (Anderson) mixing stays a driver-side sync point."""
    rho, v_in = fields
    net = rho - 0.5
    mixer = make_mixer("anderson", grid=grid)
    _, _, _, v_next = stream_genpot(
        net, rho, v_in, grid.g2, 3, SerialFragmentExecutor(), mixer=mixer
    )
    assert v_next is None


def test_real_fft_env_knob_end_to_end(grid, fields, monkeypatch):
    """REPRO_REAL_FFT=1 routes the streamed solver without configure calls."""
    rho, v_in = fields
    monkeypatch.setenv("REPRO_REAL_FFT", "1")
    streamed = _make_solver(grid, "linear", shards=3).evaluate(rho, v_in)
    serial = _make_solver(grid, "linear").evaluate(rho, v_in)
    monkeypatch.delenv("REPRO_REAL_FFT")
    complex_ref = _make_solver(grid, "linear").evaluate(rho, v_in)
    _assert_outputs_equal(streamed, serial)
    assert not np.array_equal(
        streamed.output_potential, complex_ref.output_potential
    )
    np.testing.assert_allclose(
        streamed.output_potential, complex_ref.output_potential, atol=1e-12
    )
