"""E2 — Figure 3: strong scaling of LS3DF and PEtot_F with the Amdahl fit.

The paper scales the 3,456-atom (8x6x9) problem from 1,080 to 17,280
Franklin cores at Np = 40 and reports speedups of 13.8x (LS3DF, 86.3%
efficiency) and 15.3x (PEtot_F, 95.8% efficiency) at the 16x concurrency
point, with an Amdahl's-law fit of serial fraction ~1/101,000 (LS3DF).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from _real_tasks import make_real_tasks
from repro.io.results import ResultRecord, save_records
from repro.io.tables import format_table
from repro.parallel.amdahl import fit_amdahl
from repro.parallel.comm import CommScheme
from repro.parallel.executor import (
    ProcessPoolFragmentExecutor,
    SerialFragmentExecutor,
)
from repro.parallel.flops import LS3DFWorkload
from repro.parallel.machine import FRANKLIN
from repro.parallel.perfmodel import LS3DFPerformanceModel

CORES = [1080, 2160, 4320, 8640, 17280]


def _strong_scaling():
    wl = LS3DFWorkload((8, 6, 9), grid_per_cell=40, ecut_ry=50)
    model = LS3DFPerformanceModel(FRANKLIN, wl, CommScheme.COLLECTIVE)
    ls3df_tflops = []
    petot_tflops = []
    for cores in CORES:
        p = model.evaluate(cores, 40)
        ls3df_tflops.append(p.tflops)
        petot_tflops.append(model.petot_f_only_tflops(cores, 40))
    return np.array(ls3df_tflops), np.array(petot_tflops)


@pytest.mark.slow
@pytest.mark.paper_experiment
def test_fig3_measured_strong_scaling(results_dir):
    """Real (not modelled) PEtot_F strong scaling on local cores.

    Runs the same real fragment batch through the serial and process-pool
    backends and records the *measured* speedup from per-fragment wall
    times.  Marked slow: it doubles a ~30 s real workload and its timing
    ratios are sensitive to machine load (worker spawn + cold per-worker
    problem builds), so it runs with the full suite rather than tier-1;
    the fig4 companion keeps a fast measured test in the default run.
    """
    tasks = make_real_tasks((2, 2, 1))
    serial_report = SerialFragmentExecutor().run(tasks)
    with ProcessPoolFragmentExecutor(n_workers=2) as pool:
        pool_report = pool.run(tasks)

    measured = serial_report.wall_time / pool_report.wall_time
    rows = [
        {"backend": "serial", "wall [s]": round(serial_report.wall_time, 2),
         "speedup": 1.0, "efficiency": round(serial_report.parallel_efficiency, 2)},
        {"backend": "processes x2", "wall [s]": round(pool_report.wall_time, 2),
         "speedup": round(measured, 2),
         "efficiency": round(pool_report.parallel_efficiency, 2)},
    ]
    print("\nFigure 3 companion (measured PEtot_F strong scaling, local):")
    print(format_table(rows))
    save_records(
        [ResultRecord("fig3_measured", {
            "rows": rows,
            "cpu_count": os.cpu_count(),
            "fragment_wall_times": [r.wall_time for r in serial_report.results],
        })],
        results_dir / "fig3_measured_scaling.json",
    )

    # Both backends solved every fragment, identically.
    assert len(pool_report.results) == len(tasks)
    for got, ref in zip(pool_report.results, serial_report.results):
        np.testing.assert_allclose(got.eigenvalues, ref.eigenvalues, rtol=1e-10)
    # Per-fragment wall times were measured, and the 2x2x1 batch mixes
    # fragment classes whose measured costs differ substantially.
    walls = np.array([r.wall_time for r in serial_report.results])
    assert np.all(walls > 0)
    assert walls.max() > 1.5 * walls.min()
    # The measured speedup is recorded data, not a gate: it depends on the
    # core count and load of the machine running the suite (the pool also
    # pays worker startup and a cold per-worker problem build the serial
    # baseline does not).  Only guard against a catastrophically broken
    # pool path.
    assert measured > 0.3


@pytest.mark.paper_experiment
def test_fig3_measured_serial_fraction(results_dir):
    """Measured (not modelled) serial fraction of real LS3DF iterations.

    The paper's Figure-3 Amdahl fit infers the serial fraction from the
    scaling curve; here it is measured directly from per-iteration
    timings — serial driver time vs. summed per-fragment time — on the
    fused fragment pipeline, which keeps the Gen_VF/Gen_dens per-fragment
    work out of the driver's serial section.  Timing ratios are recorded
    data, not gates (the CI box may have one loaded core); only
    structural sanity is asserted.
    """
    from repro.atoms.toy import cscl_binary
    from repro.core.scf import LS3DFSCF
    from repro.parallel.amdahl import serial_fraction_history

    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    scf = LS3DFSCF(structure, grid_dims=(2, 1, 1), ecut=2.2,
                   buffer_cells=0.5, n_empty=2, mixer="kerker")
    result = scf.run(max_iterations=2, potential_tolerance=1e-9,
                     eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    rows = []
    for i, est in enumerate(serial_fraction_history(result.timings), 1):
        rows.append({
            "path": "pipeline", "iteration": i,
            "serial [s]": round(est.serial_time, 4),
            "parallel cpu [s]": round(est.parallel_time, 4),
            "alpha": round(est.serial_fraction, 5),
            "max speedup": round(min(est.max_speedup, 1e6), 1),
        })
    print("\nFigure 3 companion (measured serial fraction per iteration):")
    print(format_table(rows))
    save_records(
        [ResultRecord("fig3_measured_serial_fraction", {
            "rows": rows, "cpu_count": os.cpu_count()})],
        results_dir / "fig3_measured_serial_fraction.json",
    )

    for est in serial_fraction_history(result.timings):
        assert 0.0 < est.serial_fraction < 1.0
        assert est.parallel_time > 0


@pytest.mark.paper_experiment
def test_fig3_genpot_sharding_serial_fraction(results_dir):
    """Measured serial fraction with and without GENPOT sharding.

    After the fused fragment pipeline, the serial GENPOT global step is
    what remains of the driver's per-iteration serial time; pushing it
    through the executor as per-slab tasks (``genpot_shards``) is the
    paper's dual fragment/slab layout.  This companion runs the same
    pipeline workload both ways, records every iteration's measured
    alpha, and asserts the drop on the *warm* iterations (the first
    iteration is dominated by one-off task building, exactly like the
    paper's expensive first iteration).  Results are bit-identical
    between the two runs, which is what makes the alphas comparable.
    """
    from repro.atoms.toy import cscl_binary
    from repro.core.scf import LS3DFSCF
    from repro.parallel.amdahl import serial_fraction_history

    def run(genpot_shards):
        structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
        scf = LS3DFSCF(structure, grid_dims=(2, 1, 1), ecut=2.2,
                       buffer_cells=0.5, n_empty=2, mixer="kerker",
                       points_per_bohr=2.8,
                       genpot_shards=genpot_shards)
        return scf.run(max_iterations=3, potential_tolerance=1e-12,
                       eigensolver_tolerance=1e-4, eigensolver_iterations=40)

    unsharded = run(None)
    sharded = run(4)

    rows = []
    for label, result in (("serial genpot", unsharded), ("genpot_shards=4", sharded)):
        for i, (est, t) in enumerate(
            zip(serial_fraction_history(result.timings), result.timings), 1
        ):
            rows.append({
                "path": label, "iteration": i,
                "serial [ms]": round(1e3 * est.serial_time, 3),
                "parallel cpu [ms]": round(1e3 * est.parallel_time, 3),
                "genpot [ms]": round(1e3 * t.genpot, 3),
                "genpot driver [ms]": round(1e3 * t.genpot_driver, 3),
                "alpha": round(est.serial_fraction, 6),
            })
    print("\nFigure 3 companion (measured serial fraction, GENPOT sharding):")
    print(format_table(rows))

    warm = slice(1, None)  # skip the cold first iteration (one-off builds)
    alpha_serial = [t.measured_serial_fraction for t in unsharded.timings[warm]]
    alpha_sharded = [t.measured_serial_fraction for t in sharded.timings[warm]]
    save_records(
        [ResultRecord("fig3_genpot_sharding", {
            "rows": rows,
            "warm_alpha_serial_genpot": alpha_serial,
            "warm_alpha_sharded_genpot": alpha_sharded,
            "cpu_count": os.cpu_count(),
        })],
        results_dir / "fig3_genpot_sharding.json",
    )

    # Identical physics on both paths — the sharded global step is
    # bit-identical, so the alphas compare the same workload.
    np.testing.assert_array_equal(sharded.density, unsharded.density)
    assert sharded.total_energy == unsharded.total_energy
    # The sharded run really did push GENPOT through the executor...
    for t in sharded.timings:
        assert t.genpot_sharded and t.genpot_cpu > 0
        # ...and counting that work as serial again can only raise alpha
        # (the arithmetic guarantee behind the measured comparison).
        counterfactual = (t.serial_time + t.genpot_cpu) / (
            t.serial_time + t.genpot_cpu + t.petot_f_cpu
        )
        assert t.measured_serial_fraction < counterfactual
    # The measured warm-iteration serial fraction drops when the global
    # step is sharded: only the layout-conversion/reduction residue stays
    # on the driver (a stable ~25% effect — the residue is bandwidth-bound
    # copies vs. the FFT+XC compute that leaves the serial bucket).  The
    # comparison uses the *minimum* over the warm iterations: scheduler
    # noise on a loaded CI core only ever inflates a wall time (and hence
    # an alpha), so each side's minimum is its most noise-free sample and
    # the strict inequality stays robust where a mean comparison could
    # flake.  The per-iteration values are all recorded above.
    assert min(alpha_sharded) < min(alpha_serial)


@pytest.mark.paper_experiment
def test_bench_fig3_strong_scaling(benchmark, results_dir):
    ls3df, petot = benchmark.pedantic(_strong_scaling, rounds=1, iterations=1)
    cores = np.array(CORES, dtype=float)
    speedup_ls3df = ls3df / ls3df[0]
    speedup_petot = petot / petot[0]
    ideal = cores / cores[0]
    eff_ls3df = speedup_ls3df / ideal
    eff_petot = speedup_petot / ideal

    fit_ls3df = fit_amdahl(cores, ls3df)
    fit_petot = fit_amdahl(cores, petot)

    rows = [
        {
            "cores": int(c),
            "LS3DF speedup": round(float(s), 2),
            "PEtot_F speedup": round(float(sp), 2),
            "LS3DF eff %": round(100 * float(e), 1),
            "PEtot_F eff %": round(100 * float(ep), 1),
        }
        for c, s, sp, e, ep in zip(cores, speedup_ls3df, speedup_petot, eff_ls3df, eff_petot)
    ]
    print("\nFigure 3 (strong scaling, 3,456 atoms, Np=40, Franklin):")
    print(format_table(rows))
    print(
        f"Amdahl fit: LS3DF serial fraction 1/{fit_ls3df.inverse_serial_fraction:,.0f}"
        f" (paper 1/101,000); PEtot_F 1/{fit_petot.inverse_serial_fraction:,.0f}"
        f" (paper 1/362,000); mean fit deviation {100*fit_ls3df.mean_absolute_relative_deviation:.2f}%"
    )
    save_records(
        [
            ResultRecord("fig3", {"rows": rows,
                                  "ls3df_serial_fraction": fit_ls3df.serial_fraction,
                                  "petot_serial_fraction": fit_petot.serial_fraction}),
        ],
        results_dir / "fig3_strong_scaling.json",
    )

    # Paper shape: 16x more cores give >12x LS3DF speedup (86.3% efficiency)
    # and PEtot_F scales better than LS3DF overall.
    assert speedup_ls3df[-1] > 12.0
    assert eff_ls3df[-1] > 0.75
    assert speedup_petot[-1] >= speedup_ls3df[-1] - 1e-9
    assert eff_petot[-1] > 0.90
    # Amdahl's law describes the curve well, with a tiny serial fraction.
    assert fit_ls3df.mean_absolute_relative_deviation < 0.05
    assert fit_ls3df.serial_fraction < 2e-4
    assert fit_petot.serial_fraction < fit_ls3df.serial_fraction + 1e-9
