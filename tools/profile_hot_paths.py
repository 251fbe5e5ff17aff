#!/usr/bin/env python
"""Profile one LS3DF SCF iteration, one stage at a time.

Runs the paper's four subroutines — Gen_VF, PEtot_F, Gen_dens, GENPOT —
on a model-scale problem, each under its own ``cProfile`` session, and
prints the top-20 functions by cumulative time per stage.  This is the
measurement behind the "Hot paths and where the time goes" section of
``docs/ARCHITECTURE.md``: PEtot_F dominates, and inside it the batched
per-band FFTs (``Hamiltonian.apply_local``) and the nonlocal projection
GEMMs (``Hamiltonian.add_nonlocal``) are nearly the whole bill.

Usage::

    PYTHONPATH=src python tools/profile_hot_paths.py [--cells X Y Z]
                                                     [--ecut E] [--top N]

Everything runs on the serial backend so the profile sees the kernels
themselves, not pool plumbing.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def profile_stage(name: str, func, top: int):
    profiler = cProfile.Profile()
    profiler.enable()
    out = func()
    profiler.disable()
    stats = pstats.Stats(profiler)
    print(f"\n{'=' * 72}\n{name}: top {top} by cumulative time\n{'=' * 72}")
    stats.sort_stats("cumulative").print_stats(top)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--cells", nargs=3, type=int, default=(2, 2, 1), metavar=("X", "Y", "Z"),
        help="supercell / fragment-grid dimensions (default: 2 2 1)",
    )
    parser.add_argument("--ecut", type=float, default=2.2,
                        help="plane-wave cutoff in Hartree (default: 2.2)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows to print per stage (default: 20)")
    args = parser.parse_args()

    from repro.atoms.toy import cscl_binary
    from repro.core.fragment_task import run_fragment_pipeline_task
    from repro.core.patching import patch_contributions
    from repro.core.scf import LS3DFSCF

    cells = tuple(args.cells)
    structure = cscl_binary(cells, "Zn", "O", 6.0)
    scf = LS3DFSCF(
        structure,
        grid_dims=cells,
        ecut=args.ecut,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
    )
    print(
        f"problem: {len(structure.symbols)} atoms, {scf.nfragments} fragments, "
        f"global grid {scf.division.global_grid.shape}, ecut {args.ecut} Ha"
    )
    v_in = scf.genpot.initial_potential()

    # Gen_VF (driver side): build one fused pipeline task per fragment,
    # as the SCF loop does every iteration.  The restriction itself runs
    # inside each task and is profiled with PEtot_F.
    def gen_vf():
        return [
            scf.fragment_solver.make_pipeline_task(
                fragment, v_in,
                eigensolver_tolerance=1e-4, eigensolver_iterations=40,
            )
            for fragment in scf.fragments
        ]

    tasks = profile_stage("Gen_VF", gen_vf, args.top)

    # PEtot_F: the fused per-fragment tasks — restriction, Kohn-Sham solve
    # (the dominant part) and weighted-interior extraction.
    def petot_f():
        return [run_fragment_pipeline_task(t) for t in tasks]

    results = profile_stage("PEtot_F", petot_f, args.top)

    # Gen_dens: chunked tree-reduce of the weighted fragment contributions.
    def gen_dens():
        return patch_contributions(
            scf.global_grid.shape,
            (
                (scf.division.global_indices(f, interior_only=True), p.contribution)
                for f, p in zip(scf.fragments, results)
            ),
            chunk_size=scf.patch_chunk_size,
        )

    density = profile_stage("Gen_dens", gen_dens, args.top)

    # GENPOT: global Poisson + XC + mixing.
    def genpot():
        return scf.genpot.evaluate(density, v_in)

    out = profile_stage("GENPOT", genpot, args.top)
    print(
        "\nconvergence metric after one iteration: "
        f"{out.potential_difference:.6e}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
