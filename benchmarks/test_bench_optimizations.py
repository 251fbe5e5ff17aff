"""E9 — Section IV optimisation history of the four LS3DF subroutines.

The paper reports, for a 2,000-atom CdSe quantum-rod problem on 8,000
cores, the per-iteration times before and after the optimisation campaign:

    Gen_VF   22 s -> 2.5 s     (file I/O -> in-memory collectives)
    PEtot_F 170 s -> 60 s      (band-by-band BLAS-2 -> all-band BLAS-3)
    Gen_dens 19 s -> 2.2 s
    GENPOT   22 s -> 0.4 s

and, for the final point-to-point version on Intrepid (131,072 cores),
Gen_VF 0.37 s / PEtot_F 54.84 s / Gen_dens 0.56 s / GENPOT 1.23 s, i.e.
Gen_VF + Gen_dens below 2% of the iteration.

``test_bench_kernel_pack`` is this reproduction's own measured analogue
for the hot-path kernel pack: per-stage timings with the FFT workspace
pool off ("before") and on ("after"), the shipped payload bytes of an
inline versus an install-keyed pipeline task, Gen_dens accumulator
allocations and the pool submissions of stacked small-fragment tasks,
written to ``kernel_pack.json``.  Install-once potentials, blocked
nonlocal projection and stacking have no off switch; they are on in
both runs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import potential_fingerprint
from repro.core.patching import (
    patch_contributions,
    reduce_stats,
    reset_reduce_stats,
)
from repro.core.scf import LS3DFSCF
from repro.io.results import ResultRecord, save_records
from repro.io.tables import format_table
from repro.parallel.comm import CommScheme, CommunicationModel
from repro.parallel.executor import ThreadPoolFragmentExecutor
from repro.parallel.flops import LS3DFWorkload
from repro.parallel.machine import FRANKLIN, INTREPID
from repro.parallel.perfmodel import LS3DFPerformanceModel
from repro.parallel.scheduler import pack_stacks
from repro.pw import fftcache


def _optimization_history():
    # 2,000-atom quantum-rod-like workload (250 cells) on 8,000 cores.
    wl = LS3DFWorkload((10, 5, 5), grid_per_cell=40, ecut_ry=50)
    cores, npg = 8000, 40

    def breakdown(scheme, kernel_slowdown=1.0, genpot_file_io=False):
        model = LS3DFPerformanceModel(FRANKLIN, wl, scheme)
        b = model.iteration_breakdown(cores, npg)
        b = dict(b)
        b["PEtot_F"] *= kernel_slowdown
        if genpot_file_io:
            # The pre-optimisation GENPOT passed the global density and
            # potential through the filesystem and repeated its setup every
            # call; model that as a file-I/O transfer of the two global
            # grid arrays on top of the compute time.
            io = CommunicationModel(FRANKLIN, CommScheme.FILE_IO)
            b["GENPOT"] += io.transfer_time(2 * 8.0 * wl.global_grid_points, cores)
        return b

    # Early version: file-I/O communication and the band-by-band (BLAS-2)
    # eigensolver running at ~15% of peak instead of ~42% (paper Section IV).
    before = breakdown(CommScheme.FILE_IO, kernel_slowdown=0.42 / 0.15, genpot_file_io=True)
    after = breakdown(CommScheme.COLLECTIVE, kernel_slowdown=1.0)

    # Final generation on Intrepid at 131,072 cores.
    wl_big = LS3DFWorkload((16, 16, 8), grid_per_cell=32, ecut_ry=40)
    final = LS3DFPerformanceModel(
        INTREPID, wl_big, CommScheme.POINT_TO_POINT
    ).iteration_breakdown(131072, 64)
    return before, after, final


@pytest.mark.paper_experiment
def test_bench_subroutine_optimizations(benchmark, results_dir):
    before, after, final = benchmark.pedantic(_optimization_history, rounds=1, iterations=1)
    rows = []
    paper_before = {"Gen_VF": 22.0, "PEtot_F": 170.0, "Gen_dens": 19.0, "GENPOT": 22.0}
    paper_after = {"Gen_VF": 2.5, "PEtot_F": 60.0, "Gen_dens": 2.2, "GENPOT": 0.4}
    for key in ("Gen_VF", "PEtot_F", "Gen_dens", "GENPOT"):
        rows.append(
            {
                "subroutine": key,
                "before [s]": round(before[key], 2),
                "after [s]": round(after[key], 2),
                "speedup": round(before[key] / after[key], 1),
                "paper before [s]": paper_before[key],
                "paper after [s]": paper_after[key],
                "paper speedup": round(paper_before[key] / paper_after[key], 1),
            }
        )
    print("\nSection IV optimisation history (2,000-atom problem, 8,000 cores):")
    print(format_table(rows))
    total_final = sum(final.values())
    frac_comm = (final["Gen_VF"] + final["Gen_dens"]) / total_final
    print(
        "Final Intrepid breakdown (131,072 cores): "
        + ", ".join(f"{k} {v:.2f}s" for k, v in final.items())
        + f"  (Gen_VF+Gen_dens = {100*frac_comm:.1f}% of iteration; paper <2%)"
    )
    save_records(
        [ResultRecord("optimizations", {"rows": rows, "final_breakdown": final})],
        results_dir / "optimizations.json",
    )

    # Shape: every subroutine got faster; the communication steps improved
    # by an order of magnitude; PEtot_F by a factor of a few.
    for row in rows:
        assert row["after [s]"] < row["before [s]"]
    speedups = {r["subroutine"]: r["speedup"] for r in rows}
    assert speedups["Gen_VF"] > 4.0
    assert speedups["Gen_dens"] > 4.0
    assert speedups["GENPOT"] > 3.0
    assert 1.5 < speedups["PEtot_F"] < 5.0
    # PEtot_F dominates the optimised iteration, as in the paper.
    assert after["PEtot_F"] > 5 * (after["Gen_VF"] + after["Gen_dens"])
    # Final generation: Gen_VF + Gen_dens below a few % of the iteration.
    assert frac_comm < 0.05


# ---------------------------------------------------------------------------
# Measured effect of the hot-path kernel pack
# ---------------------------------------------------------------------------

_KERNEL_PACK_RUN_KW = dict(
    max_iterations=3,
    potential_tolerance=1e-12,  # never met: both runs do identical work
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


def _kernel_pack_scf(executor, **kwargs) -> LS3DFSCF:
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


def _run_kernel_pack_experiment():
    measurements = {}

    def measure(tag, fft_pool):
        fftcache.configure(enabled=fft_pool)
        fftcache.clear()
        fftcache.reset_stats()
        reset_reduce_stats()
        try:
            with ThreadPoolFragmentExecutor(2) as ex:
                scf = _kernel_pack_scf(ex)
                result = scf.run(**_KERNEL_PACK_RUN_KW)
                stages = {
                    stage: sum(getattr(t, stage) for t in result.timings)
                    for stage in ("gen_vf", "petot_f", "gen_dens", "genpot")
                }
                measurements[tag] = {
                    "result": result,
                    "stages": stages,
                    "tasks_submitted": ex.tasks_submitted,
                    "pool_submissions": ex.pool_submissions,
                    "fft": fftcache.stats(),
                    "reduce": reduce_stats(),
                }
        finally:
            fftcache.configure(enabled=True)

    measure("before", fft_pool=False)
    measure("after", fft_pool=True)

    # Shipped bytes per pipeline submission: inline potential vs install key.
    scf = _kernel_pack_scf(None)
    v_in = scf.genpot.initial_potential()
    inline = scf.fragment_solver.make_pipeline_task(scf.fragments[0], v_in)
    keyed = scf.fragment_solver.make_pipeline_task(
        scf.fragments[0], v_in,
        global_potential_key=potential_fingerprint(v_in),
    )
    measurements["payload_bytes"] = {
        "inline": len(pickle.dumps(inline)),
        "keyed": len(pickle.dumps(keyed)),
        "potential_bytes": int(v_in.nbytes),
    }

    # Gen_dens accumulator allocations on a fixed 11-chunk reduction: the
    # seed allocated one partial per chunk; the recycling pool needs
    # O(log chunks).
    contribs = [
        ((np.array([i % 6]), np.array([0]), np.array([0])), np.ones((1, 1, 1)))
        for i in range(33)
    ]
    reset_reduce_stats()
    patch_contributions((6, 6, 6), iter(contribs), chunk_size=3)
    micro = reduce_stats()
    measurements["gen_dens_allocations"] = {
        "chunks": 11,
        "before": 11,  # one fresh np.zeros per chunk
        "after": micro["allocations"],
        "reused": micro["reused"],
    }

    # Submission stacking on a mixed batch: two big + four small fragments
    # on two workers.
    costs = [100.0, 100.0, 1.0, 1.0, 1.0, 1.0]
    groups = pack_stacks(costs, 2)
    measurements["submissions"] = {
        "logical_tasks": len(costs),
        "physical_submissions": len(groups),
    }
    return measurements


@pytest.mark.paper_experiment
def test_bench_kernel_pack(benchmark, results_dir):
    m = benchmark.pedantic(_run_kernel_pack_experiment, rounds=1, iterations=1)
    before, after = m["before"], m["after"]
    rows = [
        {
            "stage": stage,
            "before [s]": round(before["stages"][stage], 4),
            "after [s]": round(after["stages"][stage], 4),
        }
        for stage in ("gen_vf", "petot_f", "gen_dens", "genpot")
    ]
    print("\nKernel pack, FFT pool off -> on (3 SCF iterations, 2 fragments, 2 threads):")
    print(format_table(rows))
    payload = m["payload_bytes"]
    print(
        f"pipeline submission payload: {payload['inline']} B inline -> "
        f"{payload['keyed']} B keyed "
        f"(potential itself: {payload['potential_bytes']} B)"
    )
    print(
        "fft pool (after): "
        f"{after['fft']['hits']} hits, {after['fft']['misses']} misses, "
        f"{after['fft']['reused_bytes']} B reused"
    )
    print(
        "gen_dens accumulators (11 chunks): "
        f"{m['gen_dens_allocations']['before']} -> "
        f"{m['gen_dens_allocations']['after']} allocations"
    )
    print(
        "mixed batch submissions: "
        f"{m['submissions']['logical_tasks']} logical -> "
        f"{m['submissions']['physical_submissions']} physical"
    )
    save_records(
        [
            ResultRecord(
                "kernel_pack",
                {
                    "stage_timings": rows,
                    "payload_bytes": payload,
                    "fft_pool": {
                        k: after["fft"][k]
                        for k in ("hits", "misses", "reused_bytes")
                    },
                    "gen_dens_allocations": m["gen_dens_allocations"],
                    "submissions": m["submissions"],
                    "total_energy": after["result"].total_energy,
                },
            )
        ],
        results_dir / "kernel_pack.json",
    )

    # The FFT pool must not move a single bit of the physics.
    np.testing.assert_array_equal(
        after["result"].density, before["result"].density
    )
    assert after["result"].total_energy == before["result"].total_energy
    # Install channel: a keyed submission ships without the global grid.
    assert payload["keyed"] < payload["inline"]
    assert payload["inline"] - payload["keyed"] > 0.5 * payload["potential_bytes"]
    # FFT pool: the optimised run actually reused workspace buffers.
    assert after["fft"]["hits"] > 0 and after["fft"]["reused_bytes"] > 0
    assert before["fft"]["hits"] == 0  # disabled = the allocating seed path
    # Gen_dens: O(log chunks) accumulator allocations instead of one per chunk.
    assert m["gen_dens_allocations"]["after"] < m["gen_dens_allocations"]["before"]
    # Stacking: fewer physical submissions than logical tasks.
    assert (
        m["submissions"]["physical_submissions"]
        < m["submissions"]["logical_tasks"]
    )
    # Logical accounting is invariant: one task per fragment per iteration.
    assert after["tasks_submitted"] == before["tasks_submitted"]
