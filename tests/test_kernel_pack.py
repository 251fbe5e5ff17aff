"""Tests for the hot-path kernel pack.

Four cooperating optimisations, all required to be *bit-identical* to a
plain reference computation:

* the :mod:`repro.pw.fftcache` shape-keyed FFT workspace pool (and the
  empirical numpy property it rests on: ``np.fft.*`` write bit-identical
  results into ``out=`` buffers);
* the blocked fixed-shape nonlocal kernel
  (:meth:`repro.pw.hamiltonian.Hamiltonian.add_nonlocal`), checked
  against a single-GEMM reference, and the BLAS GEMM
  content-independence property that makes it row-slice stable;
* the install-once potential channel (fingerprint-keyed worker state plus
  the executor's resubmit-with-payload self-healing);
* stacked small-fragment pipeline submissions (``pack_stacks`` binning,
  physical vs logical submission accounting).

Plus the satellite regressions: grid-level memoisation cache hits, the
Gen_dens accumulator-reuse byte-identity and allocation bounds, and the
end-to-end backend (and FFT-pool on/off) equivalence matrix through
LS3DFSCF.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import (
    FragmentTask,
    PotentialNotInstalledError,
    StackedPipelineTask,
    build_task_problem,
    clear_installed_potentials,
    clear_problem_cache,
    fetch_potential,
    get_task_problem,
    install_potential,
    installed_potential_count,
    potential_fingerprint,
    run_fragment_pipeline_task,
    run_stacked_pipeline_task,
    solve_fragment_task,
    solve_fragment_task_grouped,
)
from repro.core.patching import (
    patch_contributions,
    reduce_stats,
    reset_reduce_stats,
    tree_reduce_fields,
)
from repro.core.scf import LS3DFSCF
from repro.parallel.executor import (
    ProcessPoolFragmentExecutor,
    SerialFragmentExecutor,
    ThreadPoolFragmentExecutor,
)
from repro.parallel.scheduler import pack_stacks
from repro.pw import fftcache
from repro.pw.grid import FFTGrid, clear_grid_memo, grid_memo_stats
from repro.pw.hamiltonian import NONLOCAL_BLOCK


def _bits(a: np.ndarray) -> bytes:
    """Exact byte image — the strictest form of 'bit-identical'."""
    return np.ascontiguousarray(a).tobytes()


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


def _tiny_scf(executor=None, **kwargs) -> LS3DFSCF:
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kwargs,
    )


_RUN_KW = dict(
    max_iterations=3,
    potential_tolerance=1e-6,  # never met in 3 iterations: fixed work
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


# ---------------------------------------------------------------------------
# fftcache: the workspace pool itself
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_pool():
    """Pristine, enabled pool around a test; defaults restored afterwards."""
    fftcache.configure(enabled=True, max_per_key=4, max_keys=32)
    fftcache.clear()
    fftcache.reset_stats()
    yield
    fftcache.configure(enabled=True, max_per_key=4, max_keys=32)
    fftcache.clear()
    fftcache.reset_stats()


def test_fftcache_env_parsing(monkeypatch):
    for value in ("0", "false", "OFF", " no "):
        monkeypatch.setenv("REPRO_FFT_CACHE", value)
        assert not fftcache._env_enabled()
    for value in ("1", "true", "anything"):
        monkeypatch.setenv("REPRO_FFT_CACHE", value)
        assert fftcache._env_enabled()
    monkeypatch.delenv("REPRO_FFT_CACHE", raising=False)
    assert fftcache._env_enabled()  # default on


def test_fftcache_acquire_release_roundtrip(fresh_pool):
    a = fftcache.acquire((4, 5))
    assert a.shape == (4, 5) and a.dtype == np.complex128
    assert fftcache.stats()["misses"] == 1
    fftcache.release(a)
    assert fftcache.stats()["pooled_buffers"] == 1
    assert fftcache.stats()["pooled_bytes"] == a.nbytes
    b = fftcache.acquire((4, 5))
    assert b is a  # the exact buffer came back
    stats = fftcache.stats()
    assert stats["hits"] == 1
    assert stats["reused_bytes"] == a.nbytes
    # dtype is part of the key: no cross-dtype reuse
    c = fftcache.acquire((4, 5), dtype=np.float64)
    assert c.dtype == np.float64
    assert fftcache.stats()["misses"] == 2


def test_fftcache_release_rejects_views_and_noncontiguous(fresh_pool):
    base = np.empty((6, 6), dtype=complex)
    fftcache.release(base[::2])  # view: pooling it would alias `base`
    fftcache.release(np.asfortranarray(np.empty((3, 4), dtype=complex)))
    fftcache.release("not an array")
    assert fftcache.stats()["pooled_buffers"] == 0


def test_fftcache_bucket_and_key_caps(fresh_pool):
    fftcache.configure(max_per_key=2, max_keys=3)
    for _ in range(4):
        fftcache.release(np.empty((7,), dtype=complex))
    assert fftcache.stats()["pooled_buffers"] == 2  # bucket capped
    for n in range(1, 6):  # five distinct keys through a 3-key pool
        fftcache.release(np.empty((n, 2), dtype=complex))
    assert fftcache.stats()["evictions"] >= 2


def test_fftcache_scratch_returns_buffer(fresh_pool):
    with fftcache.scratch((8,)) as buf:
        assert buf.shape == (8,)
    assert fftcache.acquire((8,)) is buf


def test_fftcache_disabled_is_plain_numpy(fresh_pool):
    fftcache.release(np.empty((4,), dtype=complex))  # pre-populate
    fftcache.configure(enabled=False)
    assert not fftcache.enabled()
    assert fftcache.stats()["pooled_buffers"] == 0  # disabling drops buffers
    a = fftcache.acquire((4,))
    assert a.shape == (4,) and a.dtype == np.complex128
    fftcache.release(a)
    assert fftcache.stats()["pooled_buffers"] == 0  # release is a no-op
    # wrappers ignore out= and reproduce the allocating numpy path exactly
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    out = np.empty_like(x)
    got = fftcache.fftn(x, out=out)
    assert got is not out
    assert _bits(got) == _bits(np.fft.fftn(x))


def test_fft_wrappers_bit_identical_with_out(fresh_pool):
    """The numpy property the whole pool rests on: out= changes where the
    result lives, never one bit of what it is."""
    rng = np.random.default_rng(1)
    shape = (6, 5, 4)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = rng.standard_normal(shape)  # float input -> complex out promotion
    batched = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal(
        (3,) + shape
    )
    cases = [
        (fftcache.fftn, np.fft.fftn, x, {}),
        (fftcache.ifftn, np.fft.ifftn, x, {}),
        (fftcache.fftn, np.fft.fftn, r, {}),
        (fftcache.fftn, np.fft.fftn, batched, {"axes": (-3, -2, -1)}),
        (fftcache.ifftn, np.fft.ifftn, batched, {"axes": (-3, -2, -1)}),
        (fftcache.fft, np.fft.fft, x, {"axis": 0}),
        (fftcache.ifft, np.fft.ifft, x, {"axis": -1}),
    ]
    for wrapped, reference, arg, kw in cases:
        ref = reference(arg, **kw)
        with fftcache.scratch(ref.shape) as work:
            work.fill(1234.5)  # dirty buffer must not leak into the result
            got = wrapped(arg, out=work, **kw)
            assert got is work
            assert _bits(got) == _bits(ref)


# ---------------------------------------------------------------------------
# Blocked nonlocal projection
# ---------------------------------------------------------------------------


def test_gemm_column_content_independence():
    """The BLAS property the blocked kernel rests on: at fixed operand
    shapes and fixed column position, a GEMM output column depends only on
    its own input column's content — through both projection GEMMs."""
    rng = np.random.default_rng(7)
    nproj, npw, blk = 6, 40, 8
    proj = rng.standard_normal((nproj, npw)) + 1j * rng.standard_normal(
        (nproj, npw)
    )
    strengths = rng.standard_normal((nproj, 1))

    def kb_pipeline(cols):  # the two GEMMs of add_nonlocal
        beta = proj.conj() @ cols
        return proj.T @ (strengths * beta)

    cols = rng.standard_normal((npw, blk)) + 1j * rng.standard_normal(
        (npw, blk)
    )
    ref = kb_pipeline(cols)
    for j in range(blk):
        noise = rng.standard_normal((npw, blk)) + 1j * rng.standard_normal(
            (npw, blk)
        )
        noise[:, j] = cols[:, j]
        assert _bits(kb_pipeline(noise)[:, j]) == _bits(ref[:, j])
    zeroed = cols.copy()
    zeroed[:, 3] = 0.0
    assert not kb_pipeline(zeroed)[:, 3].any()  # zero columns stay exact zeros


def _fresh_problem(label):
    clear_problem_cache()
    task = _make_task(label)
    problem = get_task_problem(task)
    problem.hamiltonian.set_effective_potential(
        np.asarray(task.screening_potential)
    )
    return problem


def test_blocked_nonlocal_row_slice_stable():
    problem = _fresh_problem("nl-sliced")
    h = problem.hamiltonian
    nbands = problem.nbands
    rng = np.random.default_rng(2)
    block = rng.standard_normal((nbands, h.basis.npw)) + 1j * rng.standard_normal(
        (nbands, h.basis.npw)
    )
    full = h.apply(block)
    for nslices in (1, 2, nbands):
        bounds = np.linspace(0, nbands, nslices + 1).astype(int)
        parts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = h.apply_local(block[lo:hi])
            h.add_nonlocal(part, block[lo:hi], band_offset=int(lo))
            parts.append(part)
        assert _bits(np.concatenate(parts, axis=0)) == _bits(full)


def test_blocked_nonlocal_matches_single_gemm_reference():
    problem = _fresh_problem("nl-gemm-ref")
    h = problem.hamiltonian
    rng = np.random.default_rng(3)
    nbands = NONLOCAL_BLOCK + 3  # one full block plus a zero-padded one
    block = rng.standard_normal((nbands, h.basis.npw)) * (1 + 0j)
    blocked = h.add_nonlocal(np.zeros_like(block), block)
    # Reference: the whole block through one variable-shape GEMM pair.
    beta = h.projectors.conj() @ block.T  # (nproj, nbands)
    reference = (h.projectors.T @ (h.projector_strengths[:, None] * beta)).T
    # Different summation order: same physics, not (necessarily) same bits.
    np.testing.assert_allclose(blocked, reference, rtol=1e-10, atol=1e-12)


def test_grouped_solve_bit_identical_across_slice_counts():
    """Band-sliced solves (which run the KB term inside slices) match the
    single-process solve bit for bit at 1, 2 and nbands slices."""
    task = _make_task("grouped-slices")
    clear_problem_cache()
    ref = solve_fragment_task(task)
    problem = get_task_problem(task)
    for nslices in (1, 2, problem.nbands):
        with SerialFragmentExecutor() as ex:
            got, _ = solve_fragment_task_grouped(task, ex, band_slices=nslices)
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.density, ref.density)
        np.testing.assert_array_equal(got.coefficients, ref.coefficients)
        assert got.quantum_energy == ref.quantum_energy


# ---------------------------------------------------------------------------
# Grid-level memoisation
# ---------------------------------------------------------------------------


def test_grid_memo_serves_rebuilt_problems_from_cache():
    clear_grid_memo()
    clear_problem_cache()
    task = _make_task("memo")
    p1 = build_task_problem(task)
    a = p1.hamiltonian.preconditioner()
    first = grid_memo_stats()
    assert first["misses"] > 0  # form factors + preconditioner populated it
    # A rebuilt problem (fresh grid/basis objects, same geometry) re-derives
    # nothing: every g2-derived array comes back from the memo.
    clear_problem_cache()
    p2 = build_task_problem(task)
    b = p2.hamiltonian.preconditioner()
    second = grid_memo_stats()
    assert second["misses"] == first["misses"]
    assert second["hits"] > first["hits"]
    assert _bits(a) == _bits(b)
    # Memoised values are frozen: nobody can corrupt a shared array.
    assert not a.flags.writeable


# ---------------------------------------------------------------------------
# Install-once potential channel
# ---------------------------------------------------------------------------


def test_potential_fingerprint_and_install_lru():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((5, 4, 3))
    key = potential_fingerprint(v)
    assert key == potential_fingerprint(v.copy())
    assert key != potential_fingerprint(v + 1e-12)  # content-sensitive
    assert key != potential_fingerprint(v.reshape(3, 4, 5))  # shape-sensitive
    assert key != potential_fingerprint(v.astype(np.float32))  # dtype-sensitive

    clear_installed_potentials()
    try:
        assert install_potential(key, v) == key
        assert installed_potential_count() == 1
        np.testing.assert_array_equal(fetch_potential(key), v)
        with pytest.raises(PotentialNotInstalledError) as err:
            fetch_potential("no-such-key")
        assert err.value.key == "no-such-key"
        for i in range(40):  # the worker-side store is a bounded LRU
            install_potential(f"key-{i}", np.zeros(1))
        assert installed_potential_count() == 32
    finally:
        clear_installed_potentials()


def test_missing_worker_install_heals_by_retry(tmp_path):
    """If a worker never saw an install (restart, late join), the kernel
    raises and the executor resubmits once with the payload attached —
    same bits, one extra physical submission per healed task."""
    scf = _tiny_scf()
    v_in = scf.genpot.initial_potential()
    key = potential_fingerprint(v_in)
    keyed = [
        scf.fragment_solver.make_pipeline_task(
            f, v_in, eigensolver_tolerance=1e-4, eigensolver_iterations=40,
            global_potential_key=key,
        )
        for f in scf.fragments
    ]
    inline = [
        scf.fragment_solver.make_pipeline_task(
            f, v_in, eigensolver_tolerance=1e-4, eigensolver_iterations=40,
        )
        for f in scf.fragments
    ]
    ref = [run_fragment_pipeline_task(t) for t in inline]
    try:
        with ThreadPoolFragmentExecutor(2) as ex:
            ex.install_state(key, v_in)
            clear_installed_potentials()  # simulate worker amnesia
            report = ex.run_pipeline(keyed)
        assert ex.tasks_submitted == len(keyed)
        # every task failed once and was resubmitted with the payload
        assert ex.pool_submissions == 2 * len(keyed)
        for got, want in zip(report.results, ref):
            np.testing.assert_array_equal(got.contribution, want.contribution)
            np.testing.assert_array_equal(
                got.result.density, want.result.density
            )
    finally:
        clear_installed_potentials()


# ---------------------------------------------------------------------------
# Stacked small-fragment tasks
# ---------------------------------------------------------------------------


def test_pack_stacks_bins_smalls_and_keeps_bigs_alone():
    groups = pack_stacks([8.0, 8.0, 1.0, 1.0, 1.0, 1.0], 2)
    assert sorted(i for g in groups for i in g) == [0, 1, 2, 3, 4, 5]
    assert [0] in groups and [1] in groups  # bigs stay singletons
    small_bins = [g for g in groups if g[0] >= 2]
    assert len(small_bins) == 2  # four smalls share two submissions
    assert all(len(g) == 2 for g in small_bins)
    # Edge cases: equal costs never pack; a lone small stays single.
    assert pack_stacks([3.0, 3.0, 3.0], 4) == [[0], [1], [2]]
    assert pack_stacks([9.0, 9.0, 1.0], 4) == [[0], [1], [2]]
    assert pack_stacks([], 2) == []
    with pytest.raises(ValueError):
        pack_stacks([1.0], 0)


def _varied_cost_tasks(scf, v_in, costs):
    tasks = []
    for i, cost in enumerate(costs):
        fragment = scf.fragments[i % len(scf.fragments)]
        ptask = scf.fragment_solver.make_pipeline_task(
            fragment, v_in, eigensolver_tolerance=1e-4,
            eigensolver_iterations=40,
        )
        inner = replace(
            ptask.task, label=f"{ptask.task.label}#{i}", cost_hint=cost
        )
        tasks.append(replace(ptask, task=inner))
    return tasks


def test_stacked_pipeline_task_unit():
    scf = _tiny_scf()
    v_in = scf.genpot.initial_potential()
    tasks = _varied_cost_tasks(scf, v_in, [2.0, 1.0])
    stacked = StackedPipelineTask(tasks)
    assert stacked.cost() == 3.0
    assert all(t.label in stacked.label for t in tasks)
    clone = pickle.loads(pickle.dumps(stacked))  # rides the process pool
    assert clone.label == stacked.label
    ref = [run_fragment_pipeline_task(t) for t in tasks]
    got = run_stacked_pipeline_task(stacked)
    for g, w in zip(got.results, ref):
        assert g.label == w.label
        np.testing.assert_array_equal(g.contribution, w.contribution)
    # with_potential_payload maps over the members
    key = potential_fingerprint(v_in)
    keyed = StackedPipelineTask(
        [replace(t, global_potential=None, global_potential_key=key)
         for t in tasks]
    )
    healed = keyed.with_potential_payload(key, v_in)
    assert all(t.global_potential is not None for t in healed.tasks)


def test_stacked_submissions_accounting_and_bit_identity():
    scf = _tiny_scf()
    v_in = scf.genpot.initial_potential()
    costs = [100.0, 100.0, 1.0, 1.0, 1.0, 1.0]
    tasks = _varied_cost_tasks(scf, v_in, costs)
    groups = pack_stacks(costs, 2)
    assert any(len(g) > 1 for g in groups)
    ref = [run_fragment_pipeline_task(t) for t in tasks]

    with ThreadPoolFragmentExecutor(2) as ex:
        report = ex.run_pipeline(tasks)
    assert ex.tasks_submitted == len(tasks)  # logical accounting unchanged
    assert ex.pool_submissions == len(groups) < len(tasks)
    assert [r.label for r in report.results] == [t.label for t in tasks]
    for got, want in zip(report.results, ref):
        np.testing.assert_array_equal(got.contribution, want.contribution)
        np.testing.assert_array_equal(got.result.density, want.result.density)
        assert got.result.quantum_energy == want.result.quantum_energy

    with ThreadPoolFragmentExecutor(1) as ex1:
        unstacked = ex1.run_pipeline(tasks)
    assert ex1.pool_submissions == len(tasks)  # one worker: never stacked
    for got, want in zip(unstacked.results, report.results):
        np.testing.assert_array_equal(got.contribution, want.contribution)


# ---------------------------------------------------------------------------
# Gen_dens accumulator reuse
# ---------------------------------------------------------------------------


def test_tree_reduce_in_place_matches_allocating_bitwise():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 8, 16, 33):
        arrays = [rng.standard_normal((4, 5, 6)) for _ in range(n)]
        ref = tree_reduce_fields([a.copy() for a in arrays])
        released = []
        got = tree_reduce_fields(
            [a.copy() for a in arrays], in_place=True, release=released.append
        )
        assert _bits(got) == _bits(ref)
        assert len(released) == n - 1  # every consumed input handed back
    with pytest.raises(ValueError):
        tree_reduce_fields([])


def test_patch_contributions_recycles_accumulators():
    rng = np.random.default_rng(6)
    shape = (6, 6, 6)
    contribs = [
        (
            (np.array([i % 6]), np.array([(2 * i) % 6]), np.array([0])),
            rng.integers(-8, 8, size=(1, 1, 1)).astype(float),
        )
        for i in range(33)
    ]
    reset_reduce_stats()
    chunked = patch_contributions(shape, iter(contribs), chunk_size=3)
    stats = reduce_stats()  # 11 chunks
    assert stats["allocations"] + stats["reused"] == 11
    assert stats["allocations"] == 4  # O(log chunks), not one per chunk
    sequential = patch_contributions(shape, contribs)
    assert _bits(chunked) == _bits(sequential)


# ---------------------------------------------------------------------------
# End-to-end: backend equivalence matrix
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def knob_matrix():
    runs = {}
    runs["serial"] = _tiny_scf(executor=SerialFragmentExecutor()).run(**_RUN_KW)
    fftcache.configure(enabled=False)
    try:
        runs["serial-nofftcache"] = _tiny_scf(
            executor=SerialFragmentExecutor()
        ).run(**_RUN_KW)
    finally:
        fftcache.configure(enabled=True)
    with ThreadPoolFragmentExecutor(2) as ex:
        runs["threads"] = _tiny_scf(executor=ex).run(**_RUN_KW)
    with ProcessPoolFragmentExecutor(2) as ex:
        runs["processes"] = _tiny_scf(executor=ex).run(**_RUN_KW)
        assert ex.install_broadcasts > 0  # the install fan-out really ran
    from repro.parallel.remote import (
        RemoteExecutor,
        RemoteExecutorConfig,
        start_worker_thread,
    )

    servers = [start_worker_thread() for _ in range(2)]
    try:
        config = RemoteExecutorConfig(
            connect_timeout=2.0, request_timeout=60.0,
            heartbeat_interval=1e9, max_retries=1, backoff=0.01)
        with RemoteExecutor([s.address for s in servers], config=config) as ex:
            runs["remote"] = _tiny_scf(executor=ex).run(**_RUN_KW)
            # The fingerprint install channel crossed the wire, once per
            # worker per iteration, instead of riding along in each task.
            assert ex.install_broadcasts > 0
            assert ex.workers_lost == 0 and ex.degraded_tasks == 0
    finally:
        for server in servers:
            server.stop()
    return runs


def test_knob_matrix_bit_identical(knob_matrix):
    """Every backend, and the serial run with the FFT pool disabled
    entirely, lands on the same bits."""
    ref = knob_matrix["serial"]
    for name, result in knob_matrix.items():
        np.testing.assert_array_equal(
            result.density, ref.density, err_msg=name
        )
        np.testing.assert_array_equal(
            result.potential, ref.potential, err_msg=name
        )
        assert result.total_energy == ref.total_energy, name
