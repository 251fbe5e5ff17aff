"""Tests for the band-parallel distributed eigensolver (ISSUE-5).

Covers the tentpole acceptance criteria: grouped ``all_band_cg`` runs are
**bit-identical** (``==``) to the single-worker path for slice counts
{1, 2, 3, nbands} on the serial, thread and process backends; every
sliced stage is exactly one executor submission per slice; the grouped
SCF path (``band_groups=``) reproduces the fused-pipeline results bit
for bit; and the mid-iteration partial checkpoints let a run killed in
the middle of PEtot_F replay only its unfinished fragments, with
bit-identical final iterates.

Nothing here asserts a measured parallel speedup — the CI container may
have a single core (``os.cpu_count() == 1``); only correctness and
accounting are gated.
"""

import pickle

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import (
    FragmentPipelineResult,
    FragmentTask,
    run_fragment_pipeline_task,
    run_fragment_pipeline_task_grouped,
    solve_fragment_task,
    solve_fragment_task_grouped,
)
from repro.core.scf import LS3DFSCF
from repro.io.checkpoint import (
    CheckpointMismatchError,
    clear_partial_payloads,
    load_partial_payloads,
    save_partial_payload,
)
from repro.parallel.amdahl import (
    intra_group_efficiency_history,
    measured_intra_group_efficiency,
)
from repro.parallel.bands import (
    BandBlockTask,
    BandGroup,
    BandGroupExecutor,
    BandSlice,
    band_slices,
    run_band_block_task,
)
from repro.parallel.executor import (
    ProcessPoolFragmentExecutor,
    SerialFragmentExecutor,
    ThreadPoolFragmentExecutor,
)
from repro.parallel.scheduler import FragmentScheduler
from repro.pw.eigensolver import all_band_cg
from repro.pw.grid import FFTGrid


def _make_task(label="frag", screening=0.02) -> FragmentTask:
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    return FragmentTask(
        label=label,
        cell=tuple(structure.cell),
        grid_shape=grid.shape,
        symbols=structure.symbols,
        positions=structure.positions,
        screening_potential=np.full(grid.shape, screening),
        ecut=2.0,
        n_empty=1,
        tolerance=1e-5,
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


# --- slices -----------------------------------------------------------------------

def test_band_slices_partition():
    slices = band_slices(10, 4)
    assert [(s.lo, s.hi) for s in slices] == [(0, 3), (3, 6), (6, 8), (8, 10)]
    assert [s.nbands for s in slices] == [3, 3, 2, 2]
    assert all(s.nslices == 4 for s in slices)
    # More slices than bands: trailing slices are empty, still covering.
    slices = band_slices(2, 4)
    assert [(s.lo, s.hi) for s in slices] == [(0, 1), (1, 2), (2, 2), (2, 2)]


def test_band_slice_validation():
    with pytest.raises(ValueError):
        BandSlice(index=3, nslices=3, lo=0, hi=1)
    with pytest.raises(ValueError):
        BandSlice(index=0, nslices=1, lo=2, hi=1)


# --- per-slice kernel -------------------------------------------------------------

def test_band_block_task_pickle_roundtrip():
    task = _make_task()
    block = np.zeros((2, 5), dtype=complex)
    btask = BandBlockTask(
        kind="apply_h",
        bands=band_slices(4, 2)[0],
        template=task,
        block=block,
    )
    clone = pickle.loads(pickle.dumps(btask))
    assert clone.kind == "apply_h"
    assert clone.label == btask.label == f"{task.label}:apply_h[0/2]"
    assert clone.bands == btask.bands
    assert np.array_equal(clone.block, block)
    assert clone.template.static_fingerprint() == task.static_fingerprint()
    assert clone.cost() == btask.cost() == float(block.size)


def test_run_band_block_task_rejects_unknown_kind():
    task = _make_task()
    btask = BandBlockTask(
        kind="nonsense",
        bands=band_slices(1, 1)[0],
        template=task,
        block=np.zeros((1, 5), dtype=complex),
    )
    with pytest.raises(ValueError, match="unknown band task kind"):
        run_band_block_task(btask)


def test_grouped_apply_bit_identical_to_hamiltonian_apply():
    """BandGroup.apply_h == Hamiltonian.apply bit for bit, any slice count.

    The load-bearing decomposition: every slice computes its rows' full
    H·psi — the row-independent kinetic + local (FFT) share plus the
    blocked fixed-shape nonlocal term aligned to global band indices.
    """
    from repro.core.fragment_task import get_task_problem

    task = _make_task()
    problem = get_task_problem(task)
    h = problem.hamiltonian
    h.set_effective_potential(np.asarray(task.screening_potential))
    nbands = problem.nbands + 3
    x = h.basis.random_coefficients(nbands, np.random.default_rng(7))
    ref = h.apply(x)
    executor = SerialFragmentExecutor()
    for nslices in (1, 2, 3, nbands):
        group = BandGroup(executor, nslices, task)
        np.testing.assert_array_equal(group.apply_h(x), ref)
        assert group.stats.stages == 1
        assert group.stats.submissions == nslices


def test_grouped_residual_precond_bit_identical():
    from repro.core.fragment_task import get_task_problem

    task = _make_task()
    problem = get_task_problem(task)
    h = problem.hamiltonian
    h.set_effective_potential(np.asarray(task.screening_potential))
    nbands = problem.nbands
    rng = np.random.default_rng(11)
    x = h.basis.random_coefficients(nbands, rng)
    hx = h.apply(x)
    evals = np.sort(rng.standard_normal(nbands))
    precond = h.preconditioner()
    r = hx - evals[:, None] * x
    w_ref = r * precond[None, :]
    rnorm_ref = np.linalg.norm(r, axis=1)
    executor = SerialFragmentExecutor()
    for nslices in (1, 2, 3, nbands):
        group = BandGroup(executor, nslices, task)
        w, rnorm = group.residual_precond(x, hx, evals)
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(rnorm, rnorm_ref)


def test_band_group_requires_capable_executor():
    class RunOnly:
        n_workers = 1

    with pytest.raises(TypeError, match="run_bands"):
        BandGroup(RunOnly(), 2, _make_task())
    for executor in (
        SerialFragmentExecutor(),
        ThreadPoolFragmentExecutor(n_workers=1),
        ProcessPoolFragmentExecutor(n_workers=1),
    ):
        assert isinstance(executor, BandGroupExecutor)
    assert not isinstance(RunOnly(), BandGroupExecutor)


# --- grouped eigensolver / solve kernel (acceptance criterion) --------------------

@pytest.fixture(scope="module")
def solve_reference():
    """Single-worker kernel result on the reference fragment."""
    return solve_fragment_task(_make_task())


def test_grouped_all_band_cg_bit_identical_serial(solve_reference):
    """all_band_cg(band_groups=...) == all_band_cg() for {1,2,3,nbands}."""
    from repro.core.fragment_task import get_task_problem

    task = _make_task()
    problem = get_task_problem(task)
    h = problem.hamiltonian
    h.set_effective_potential(np.asarray(task.screening_potential))
    ref = all_band_cg(
        h, problem.nbands, max_iterations=task.max_iterations,
        tolerance=task.tolerance)
    executor = SerialFragmentExecutor()
    for nslices in (1, 2, 3, problem.nbands):
        group = BandGroup(executor, nslices, task)
        got = all_band_cg(
            h, problem.nbands, max_iterations=task.max_iterations,
            tolerance=task.tolerance, band_groups=group)
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.coefficients, ref.coefficients)
        np.testing.assert_array_equal(got.residual_norms, ref.residual_norms)
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        assert got.history == ref.history


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
def test_grouped_solve_bit_identical_all_backends(backend, solve_reference):
    """The grouped fragment solve == the ungrouped kernel, bit for bit,
    for slice counts {1, 2, 3, nbands} on every backend."""
    ref = solve_reference
    nbands = len(ref.eigenvalues)
    executors = {
        "serial": SerialFragmentExecutor,
        "threads": lambda: ThreadPoolFragmentExecutor(n_workers=2),
        "processes": lambda: ProcessPoolFragmentExecutor(n_workers=2),
    }
    with executors[backend]() as executor:
        for nslices in (1, 2, 3, nbands):
            result, stats = solve_fragment_task_grouped(
                _make_task(), executor, nslices)
            np.testing.assert_array_equal(result.eigenvalues, ref.eigenvalues)
            np.testing.assert_array_equal(result.density, ref.density)
            np.testing.assert_array_equal(result.coefficients, ref.coefficients)
            assert result.quantum_energy == ref.quantum_energy
            assert result.band_energy == ref.band_energy
            assert result.solver_iterations == ref.solver_iterations
            assert result.converged == ref.converged
            assert stats.nslices == nslices


def test_one_submission_per_slice_per_stage():
    """Accounting acceptance criterion: every sliced stage is exactly one
    executor submission per band slice, and the executor's own counter
    agrees with the group's."""
    for nslices in (1, 2, 3):
        executor = SerialFragmentExecutor()
        _result, stats = solve_fragment_task_grouped(
            _make_task(), executor, nslices)
        assert stats.submissions == stats.stages * nslices
        assert executor.tasks_submitted == stats.submissions
        assert len(stats.task_times) == stats.submissions
        assert stats.task_cpu > 0
        assert stats.stages > 0


def test_grouped_solve_rejects_band_by_band():
    task = _make_task()
    task.eigensolver = "band_by_band"
    with pytest.raises(ValueError, match="all-band"):
        solve_fragment_task_grouped(task, SerialFragmentExecutor(), 2)


def test_fragment_solver_grouped_convenience_matches_plain():
    """FragmentSolver.solve_fragment_grouped == solve_fragment, bitwise,
    including the per-fragment warm-start bookkeeping both maintain."""
    from repro.core.patching import restrict_to_fragment

    scf_a, scf_b = _tiny_scf(), _tiny_scf()
    fragment = scf_a.fragments[0]
    v_in = scf_a.genpot.initial_potential()
    restricted_a = restrict_to_fragment(scf_a.division, fragment, v_in)
    ref = scf_a.fragment_solver.solve_fragment(
        fragment, restricted_a,
        eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    got = scf_b.fragment_solver.solve_fragment_grouped(
        scf_b.fragments[0], restricted_a, SerialFragmentExecutor(), 2,
        eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
    np.testing.assert_array_equal(got.density, ref.density)
    assert got.quantum_energy == ref.quantum_energy
    # Both entry points store the converged wavefunctions for warm starts.
    problem = scf_b.fragment_solver.build_problem(scf_b.fragments[0])
    assert problem.wavefunctions is not None


def test_grouped_pipeline_kernel_matches_ungrouped():
    scf = _tiny_scf()
    v_in = scf.genpot.initial_potential()
    make = lambda: scf.fragment_solver.make_pipeline_task(  # noqa: E731
        scf.fragments[0], v_in,
        eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    ref = run_fragment_pipeline_task(make())
    got, stats = run_fragment_pipeline_task_grouped(
        make(), SerialFragmentExecutor(), 2)
    np.testing.assert_array_equal(got.result.density, ref.result.density)
    np.testing.assert_array_equal(got.contribution, ref.contribution)
    assert got.result.quantum_energy == ref.result.quantum_energy
    assert stats.submissions == stats.stages * 2


# --- grouped SCF (end to end) -----------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_run():
    """The fused-pipeline reference the grouped path must reproduce."""
    return _tiny_scf(SerialFragmentExecutor()).run(**_RUN_KW)


def _assert_scf_identical(result, reference):
    np.testing.assert_array_equal(result.density, reference.density)
    np.testing.assert_array_equal(result.potential, reference.potential)
    assert result.total_energy == reference.total_energy
    assert result.quantum_energy == reference.quantum_energy
    assert result.convergence_history == reference.convergence_history
    assert result.energy_history == reference.energy_history


def test_scf_band_groups_bit_identical_serial(pipeline_run):
    for nslices in (1, 2, 3):
        result = _tiny_scf(
            SerialFragmentExecutor(), band_groups=nslices).run(**_RUN_KW)
        _assert_scf_identical(result, pipeline_run)


def test_scf_band_groups_bit_identical_pools(pipeline_run):
    with ThreadPoolFragmentExecutor(n_workers=2) as executor:
        threaded = _tiny_scf(executor, band_groups=2).run(**_RUN_KW)
    _assert_scf_identical(threaded, pipeline_run)
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        pooled = _tiny_scf(executor, band_groups=2).run(**_RUN_KW)
    _assert_scf_identical(pooled, pipeline_run)


def test_scf_band_groups_timings_and_accounting(pipeline_run):
    executor = SerialFragmentExecutor()
    scf = _tiny_scf(executor, band_groups=2)
    result = scf.run(**_RUN_KW)
    assert executor.tasks_submitted == sum(
        t.band_stages for t in result.timings) * 2
    for t in result.timings:
        assert t.band_sliced
        assert t.band_slices == 2
        assert len(t.band_tasks) == t.band_stages * 2
        assert len(t.petot_f_fragments) == scf.nfragments
        assert t.band_cpu > 0
        assert t.band_driver >= 0
        assert 0 < t.measured_intra_group_efficiency <= 1.0
        # Amdahl buckets: band tasks are the parallel work, the root
        # residue is serial.
        assert t.parallel_cpu == pytest.approx(t.band_cpu + 0.0)
        assert t.serial_time == pytest.approx(
            t.gen_vf + t.gen_dens + t.genpot + t.band_driver + t.checkpoint_io)
        # The grouped schedule rides along with the modelled efficiency.
        assert t.band_schedule is not None
        assert t.band_schedule.cores_per_group == 2
        assert 0 < t.band_schedule.intra_group_efficiency <= 1.0
    # Measured-efficiency history helper consumes these timings directly.
    effs = intra_group_efficiency_history(result.timings)
    assert len(effs) == len(result.timings)
    assert all(e == t.measured_intra_group_efficiency
               for e, t in zip(effs, result.timings))


def test_scf_band_groups_validation():
    with pytest.raises(ValueError, match="band_groups"):
        _tiny_scf(SerialFragmentExecutor(), band_groups=0)
    with pytest.raises(ValueError, match="all-band"):
        _tiny_scf(SerialFragmentExecutor(), band_groups=2,
                  eigensolver="band_by_band")

    class RunOnly:
        n_workers = 1

        def run(self, tasks):  # pragma: no cover - never called
            raise AssertionError

    with pytest.raises(TypeError, match="run_bands"):
        _tiny_scf(RunOnly(), band_groups=2)


def test_ls3df_driver_accepts_band_groups():
    from repro.core import LS3DF

    ls3df = LS3DF(
        cscl_binary((2, 1, 1), "Zn", "O", 6.0), grid_dims=(2, 1, 1),
        ecut=2.2, executor=SerialFragmentExecutor(), band_groups=2)
    assert ls3df.band_groups == 2
    result = ls3df.run(max_iterations=1, potential_tolerance=1e-9,
                       eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    assert result.iterations == 1
    assert result.timings[0].band_sliced


# --- scheduler / amdahl wiring ----------------------------------------------------

def test_schedule_grouped_annotates_summary():
    tasks = [_make_task(f"f{i}") for i in range(6)]
    summary = FragmentScheduler().schedule_grouped(
        tasks, total_cores=4, cores_per_group=2)
    assert summary.cores_per_group == 2
    assert 0 < summary.intra_group_efficiency <= 1.0
    assert len(summary.assignments) == 2  # 4 cores / Np=2 -> 2 group bins
    assigned = sorted(i for group in summary.assignments for i in group)
    assert assigned == list(range(len(tasks)))
    # Automatic Np via choose_group_size: falls back to a divisor of the
    # core count, and still annotates the summary.
    auto = FragmentScheduler().schedule_grouped(tasks, total_cores=40)
    assert auto.cores_per_group >= 1
    assert auto.intra_group_efficiency is not None
    # Plain schedules carry no group annotation.
    plain = FragmentScheduler().schedule_tasks(tasks, 2)
    assert plain.cores_per_group is None
    assert plain.intra_group_efficiency is None


def test_measured_intra_group_efficiency_helper():
    assert measured_intra_group_efficiency(2.0, 1.0, 4) == pytest.approx(0.5)
    assert measured_intra_group_efficiency(0.0, 1.0, 4) == 0.0
    assert measured_intra_group_efficiency(1.0, 0.0, 4) == 0.0
    with pytest.raises(ValueError):
        measured_intra_group_efficiency(-1.0, 1.0, 4)


# --- mid-iteration partial checkpoints --------------------------------------------

def test_pipeline_result_state_dict_roundtrip():
    scf = _tiny_scf()
    v_in = scf.genpot.initial_potential()
    pres = run_fragment_pipeline_task(
        scf.fragment_solver.make_pipeline_task(
            scf.fragments[0], v_in,
            eigensolver_tolerance=1e-4, eigensolver_iterations=40))
    clone = FragmentPipelineResult.from_state_dict(pres.state_dict())
    assert clone.label == pres.label
    np.testing.assert_array_equal(clone.result.density, pres.result.density)
    np.testing.assert_array_equal(clone.contribution, pres.contribution)
    np.testing.assert_array_equal(
        clone.result.coefficients, pres.result.coefficients)
    assert clone.result.quantum_energy == pres.result.quantum_energy
    assert clone.result.converged == pres.result.converged
    assert clone.wall_time == pres.wall_time


def test_partial_payload_save_load_clear(tmp_path):
    arrays_a = {"label": np.asarray("F(0,0,0)x111"), "x": np.arange(4.0)}
    arrays_b = {"label": np.asarray("F(1,0,0)x211"), "x": np.arange(3.0)}
    save_partial_payload(tmp_path, 3, "sig", "F(0,0,0)x111", arrays_a)
    save_partial_payload(tmp_path, 3, "sig", "F(1,0,0)x211", arrays_b)
    loaded = load_partial_payloads(tmp_path, 3, "sig")
    assert sorted(loaded) == ["F(0,0,0)x111", "F(1,0,0)x211"]
    np.testing.assert_array_equal(loaded["F(0,0,0)x111"]["x"], np.arange(4.0))
    # A different iteration sees nothing (stale partials are not replayed).
    assert load_partial_payloads(tmp_path, 4, "sig") == {}
    # A different problem is a loud error, like the full checkpoint.
    with pytest.raises(CheckpointMismatchError):
        load_partial_payloads(tmp_path, 3, "other-sig")
    # Iterations live in separate subdirectories: saving for iteration 4
    # must NOT disturb iteration 3's payloads (a resumed run replaying
    # iteration 3 would otherwise destroy the only record of iteration
    # 4's completed fragments).
    save_partial_payload(tmp_path, 4, "sig", "F(0,0,0)x111", arrays_a)
    assert sorted(load_partial_payloads(tmp_path, 4, "sig")) == ["F(0,0,0)x111"]
    assert len(load_partial_payloads(tmp_path, 3, "sig")) == 2
    # up_to_iteration clears older partials, keeps newer ones.
    clear_partial_payloads(tmp_path, up_to_iteration=3)
    assert load_partial_payloads(tmp_path, 3, "sig") == {}
    assert load_partial_payloads(tmp_path, 4, "sig") != {}
    clear_partial_payloads(tmp_path)
    assert load_partial_payloads(tmp_path, 4, "sig") == {}


def test_partial_payload_state_fingerprint_gates_replay(tmp_path):
    """Partials saved under different solve inputs (a changed tolerance,
    a different input potential) are stale — ignored, not replayed and
    not an error — and a save under new inputs wipes them."""
    arrays = {"label": np.asarray("F(0,0,0)x111"), "x": np.arange(4.0)}
    save_partial_payload(
        tmp_path, 1, "sig", "F(0,0,0)x111", arrays, state_fingerprint="inputs-A")
    assert load_partial_payloads(
        tmp_path, 1, "sig", state_fingerprint="inputs-A") != {}
    assert load_partial_payloads(
        tmp_path, 1, "sig", state_fingerprint="inputs-B") == {}
    # Saving under the new inputs replaces the stale same-iteration set.
    save_partial_payload(
        tmp_path, 1, "sig", "F(0,0,0)x111", arrays, state_fingerprint="inputs-B")
    assert load_partial_payloads(
        tmp_path, 1, "sig", state_fingerprint="inputs-A") == {}
    assert load_partial_payloads(
        tmp_path, 1, "sig", state_fingerprint="inputs-B") != {}


def _state_fingerprint(scf, tolerance=1e-4, iterations=40):
    """The solve-input digest the grouped path salts its partials with
    (duplicated here so a drift in the production formula is caught)."""
    import hashlib

    fp = hashlib.sha256()
    fp.update(np.ascontiguousarray(scf.genpot.initial_potential()).tobytes())
    fp.update(np.float64(tolerance).tobytes())
    fp.update(np.int64(iterations).tobytes())
    return fp.hexdigest()


class _KillAfterBatches(SerialFragmentExecutor):
    """Serial backend that dies after a fixed number of band-task batches."""

    def __init__(self, nbatches):
        super().__init__()
        self.left = nbatches

    def run_bands(self, tasks):
        if self.left <= 0:
            raise RuntimeError("simulated mid-PEtot_F kill")
        self.left -= 1
        return super().run_bands(tasks)


def test_mid_iteration_checkpoint_replays_only_unfinished(tmp_path):
    """A run killed mid-PEtot_F resumes bit-identically, replaying the
    already-completed fragments from disk instead of re-solving them."""
    run_kw = dict(max_iterations=2, potential_tolerance=1e-9,
                  eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    reference = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(**run_kw)

    killer = _KillAfterBatches(90)  # enough stages to finish >= 1 fragment
    scf = _tiny_scf(killer, band_groups=2)
    with pytest.raises(RuntimeError, match="simulated"):
        scf.run(checkpoint_dir=tmp_path, resume=True, **run_kw)
    saved = load_partial_payloads(
        tmp_path, 1, scf._problem_signature(),
        state_fingerprint=_state_fingerprint(scf))
    assert 0 < len(saved) < scf.nfragments  # some done, some not

    resumed = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(
        checkpoint_dir=tmp_path, resume=True, **run_kw)
    _assert_scf_identical(resumed, reference)
    # The first resumed iteration replayed exactly the persisted fragments.
    assert resumed.timings[0].band_replayed == len(saved)
    assert resumed.timings[1].band_replayed == 0
    # The end-of-iteration checkpoints superseded the partials.
    assert load_partial_payloads(
        tmp_path, 1, scf._problem_signature(),
        state_fingerprint=_state_fingerprint(scf)) == {}


def test_resume_with_changed_inputs_does_not_splice_stale_partials(tmp_path):
    """Regression: partials are pinned to the iteration's solve inputs.
    Resuming with a changed eigensolver setting must re-solve everything
    (replaying fragments solved under the old setting would silently mix
    two inconsistent calculations into one iteration)."""
    kill_kw = dict(max_iterations=1, potential_tolerance=1e-9,
                   eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    killer = _KillAfterBatches(90)
    scf = _tiny_scf(killer, band_groups=2)
    with pytest.raises(RuntimeError, match="simulated"):
        scf.run(checkpoint_dir=tmp_path, resume=True, **kill_kw)

    changed_kw = dict(kill_kw, eigensolver_iterations=25)  # changed input
    resumed = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(
        checkpoint_dir=tmp_path, resume=True, **changed_kw)
    assert resumed.timings[0].band_replayed == 0
    honest = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(**changed_kw)
    _assert_scf_identical(resumed, honest)


def test_fresh_run_never_replays_stale_partials(tmp_path):
    """Regression: a resume=False run into a directory holding a killed
    run's partials must wipe them and solve everything itself — replaying
    another run's results without being asked would silently mix state."""
    run_kw = dict(max_iterations=1, potential_tolerance=1e-9,
                  eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    killer = _KillAfterBatches(90)
    scf = _tiny_scf(killer, band_groups=2)
    with pytest.raises(RuntimeError, match="simulated"):
        scf.run(checkpoint_dir=tmp_path, resume=True, **run_kw)
    assert load_partial_payloads(
        tmp_path, 1, scf._problem_signature(),
        state_fingerprint=_state_fingerprint(scf))

    fresh = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(
        checkpoint_dir=tmp_path, resume=False, **run_kw)
    assert fresh.timings[0].band_replayed == 0
    reference = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(**run_kw)
    _assert_scf_identical(fresh, reference)


def test_converged_run_clears_its_partials(tmp_path):
    """Regression: a run that converges breaks out before the checkpoint
    block; its final iteration's partials must not outlive the run."""
    result = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(
        max_iterations=30, potential_tolerance=1e9,  # converges immediately
        eigensolver_tolerance=1e-4, eigensolver_iterations=40,
        checkpoint_dir=tmp_path)
    assert result.converged
    scf = _tiny_scf()
    assert load_partial_payloads(
        tmp_path, result.iterations, scf._problem_signature()) == {}


def test_grouped_checkpoint_resume_matches_uninterrupted(tmp_path):
    """Ordinary iteration-boundary resume also stays bit-identical on the
    grouped path (partials cleared by each full checkpoint)."""
    run_kw = dict(potential_tolerance=1e-9,
                  eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    reference = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(
        max_iterations=3, **run_kw)
    _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(
        max_iterations=2, checkpoint_dir=tmp_path, **run_kw)
    resumed = _tiny_scf(SerialFragmentExecutor(), band_groups=2).run(
        max_iterations=3, checkpoint_dir=tmp_path, resume=True, **run_kw)
    _assert_scf_identical(resumed, reference)
