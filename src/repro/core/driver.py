"""High-level LS3DF public API.

:class:`LS3DF` wraps the whole paper workflow behind one object:

>>> from repro.atoms import build_znteo_alloy
>>> from repro.core import LS3DF
>>> alloy = build_znteo_alloy((2, 2, 2), oxygen_fraction=0.03, rng=0)
>>> ls3df = LS3DF(alloy, grid_dims=(2, 2, 2), ecut=3.0)
>>> result = ls3df.run(max_iterations=20)
>>> states = ls3df.band_edge_states(result, n_states=4)

The post-processing (full-system Hamiltonian in the converged potential +
folded spectrum method) mirrors the paper's Section VII, where the
converged LS3DF potential is used to compute only the band-edge states of
the whole system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atoms.structure import Structure
from repro.core.fragment_task import PipelineFragmentExecutor
from repro.core.scf import LS3DFResult, LS3DFSCF
from repro.pw.basis import PlaneWaveBasis
from repro.pw.eigensolver import EigensolverResult, all_band_cg
from repro.pw.fsm import FoldedSpectrumResult, folded_spectrum
from repro.pw.grid import FFTGrid
from repro.pw.hamiltonian import Hamiltonian
from repro.pw.pseudopotential import PseudopotentialSet, default_pseudopotentials


@dataclass
class BandEdgeStates:
    """Band-edge states of the full system from the converged LS3DF potential."""

    energies: np.ndarray
    coefficients: np.ndarray
    reference_energy: float
    basis: PlaneWaveBasis
    residual_norms: np.ndarray

    def wavefunctions_on_grid(self) -> np.ndarray:
        """Real-space wavefunctions, shape ``(nstates, *grid.shape)``."""
        return self.basis.to_real_space(self.coefficients)

    def densities_on_grid(self) -> np.ndarray:
        """|psi|^2 of each state on the real-space grid."""
        psi = self.wavefunctions_on_grid()
        return np.real(psi * np.conj(psi))


class LS3DF:
    """Linearly scaling three-dimensional fragment method (public API).

    Parameters
    ----------
    structure:
        Global periodic supercell (Bohr).
    grid_dims:
        LS3DF fragment grid ``(m1, m2, m3)``; for the paper's systems this
        equals the supercell dimensions in eight-atom cells.
    ecut:
        Plane-wave cutoff (Hartree).
    pseudopotentials:
        Model pseudopotential set.
    executor:
        Fragment-execution backend (see
        :class:`~repro.core.fragment_task.PipelineFragmentExecutor`);
        defaults to the serial in-process backend.  Pass e.g.
        ``ProcessPoolFragmentExecutor(n_workers=4)`` from
        :mod:`repro.parallel.executor` to solve fragments concurrently.
        Every fragment runs as one fused Gen_VF -> solve -> Gen_dens task
        per iteration (see :class:`repro.core.scf.LS3DFSCF`).
    pipeline:
        Deprecated and ignored (see :class:`repro.core.scf.LS3DFSCF`).
    genpot_shards:
        Distribute the GENPOT global steps (Poisson, XC, mixing) over
        this many 1D z-slabs pushed through ``executor`` — the paper's
        slab data layout for the global grid.  Bit-identical results for
        any shard count; default 1 (serial global step).  See
        :class:`repro.core.genpot.GlobalPotentialSolver` and
        :mod:`repro.parallel.distributed`.
    band_groups:
        Distribute each fragment's all-band CG over this many band
        slices pushed through ``executor`` — the paper's Np cores *per
        fragment group*, removing the largest-fragment floor on the
        PEtot_F wall time.  Bit-identical results for any slice count;
        default ``None`` (one worker per fragment).  See
        :class:`repro.core.scf.LS3DFSCF` and
        :mod:`repro.parallel.bands`.
    kwargs:
        Remaining options forwarded to :class:`repro.core.scf.LS3DFSCF`
        (buffer_cells, mixer, eigensolver, passivation switches,
        patch_chunk_size, ...).
    """

    def __init__(
        self,
        structure: Structure,
        grid_dims,
        ecut: float = 4.0,
        pseudopotentials: PseudopotentialSet | None = None,
        executor: PipelineFragmentExecutor | None = None,
        pipeline: bool = True,
        genpot_shards: int | None = None,
        band_groups: int | None = None,
        **kwargs,
    ) -> None:
        self.structure = structure
        self.pseudopotentials = pseudopotentials or default_pseudopotentials()
        self.scf = LS3DFSCF(
            structure,
            grid_dims,
            ecut=ecut,
            pseudopotentials=self.pseudopotentials,
            executor=executor,
            pipeline=pipeline,
            genpot_shards=genpot_shards,
            band_groups=band_groups,
            **kwargs,
        )
        self.ecut = float(ecut)

    @property
    def executor(self) -> PipelineFragmentExecutor:
        """The fragment-execution backend used by the SCF loop."""
        return self.scf.executor

    @property
    def genpot_shards(self) -> int:
        """Number of z-slabs the GENPOT global steps are distributed over."""
        return self.scf.genpot_shards

    @property
    def band_groups(self) -> int | None:
        """Band slices per fragment solve (``None`` = ungrouped PEtot_F)."""
        return self.scf.band_groups

    # -- convenience accessors ------------------------------------------------
    @property
    def global_grid(self) -> FFTGrid:
        return self.scf.global_grid

    @property
    def nfragments(self) -> int:
        return self.scf.nfragments

    @property
    def fragments(self):
        return self.scf.fragments

    # -- main entry points ------------------------------------------------------
    def run(self, **kwargs) -> LS3DFResult:
        """Run the LS3DF self-consistent loop.

        Parameters
        ----------
        kwargs:
            Forwarded to :meth:`repro.core.scf.LS3DFSCF.run` —
            ``max_iterations``, ``potential_tolerance``, eigensolver
            controls, and the checkpoint/restart options
            ``checkpoint_dir=`` / ``checkpoint_every=`` / ``resume=``
            (persist the SCF state each iteration and resume a killed
            run with bit-identical iterates; see
            :mod:`repro.io.checkpoint`).

        Returns
        -------
        LS3DFResult
            Converged (or iteration-limited) density, potential,
            energies and per-iteration histories.
        """
        return self.scf.run(**kwargs)

    def full_system_hamiltonian(
        self, result: LS3DFResult, ecut: float | None = None
    ) -> tuple[Hamiltonian, PlaneWaveBasis]:
        """Hamiltonian of the *whole* supercell in the converged LS3DF potential.

        Used for post-processing (folded-spectrum band-edge states, direct
        eigenvalue comparisons against a conventional DFT run) — exactly
        what the paper does after convergence.
        """
        basis = PlaneWaveBasis(self.global_grid, ecut or self.ecut)
        hamiltonian = Hamiltonian.from_structure(
            self.structure, basis, self.pseudopotentials
        )
        hamiltonian.set_effective_potential(result.potential)
        return hamiltonian, basis

    def band_edge_states(
        self,
        result: LS3DFResult,
        n_states: int = 4,
        reference_energy: float | None = None,
        tolerance: float = 1e-7,
        max_iterations: int = 150,
    ) -> BandEdgeStates:
        """Folded-spectrum band-edge states in the converged potential.

        Parameters
        ----------
        result:
            Converged LS3DF result.
        n_states:
            Number of states around the reference energy.
        reference_energy:
            Fold point; when omitted, an estimate of the mid-gap energy is
            used (from the highest occupied fragment eigenvalues).
        """
        hamiltonian, basis = self.full_system_hamiltonian(result)
        if reference_energy is None:
            reference_energy = self.estimate_gap_center(result)
        fsm: FoldedSpectrumResult = folded_spectrum(
            hamiltonian,
            reference_energy,
            n_states,
            tolerance=tolerance,
            max_iterations=max_iterations,
        )
        return BandEdgeStates(
            energies=fsm.eigenvalues,
            coefficients=fsm.coefficients,
            reference_energy=reference_energy,
            basis=basis,
            residual_norms=fsm.residual_norms,
        )

    def lowest_states(
        self, result: LS3DFResult, n_states: int, tolerance: float = 1e-6
    ) -> EigensolverResult:
        """Lowest eigenstates of the full system in the converged potential."""
        hamiltonian, _ = self.full_system_hamiltonian(result)
        return all_band_cg(
            hamiltonian, n_states, tolerance=tolerance, max_iterations=200
        )

    # -- helpers -------------------------------------------------------------
    def estimate_gap_center(self, result: LS3DFResult) -> float:
        """Estimate the gap-centre energy from the fragment spectra.

        Takes the patched-weighted mean of each fragment's HOMO and LUMO
        (positive-weight fragments only, which are the physically meaningful
        large pieces) and returns their midpoint.
        """
        homos = []
        lumos = []
        for res in result.fragment_results:
            if res.fragment.weight < 0:
                continue
            problem = self.scf.fragment_solver.build_problem(res.fragment)
            nocc = int(np.count_nonzero(problem.occupations))
            if nocc == 0 or nocc >= len(res.eigenvalues):
                continue
            homos.append(res.eigenvalues[nocc - 1])
            lumos.append(res.eigenvalues[nocc])
        if not homos:
            raise RuntimeError("cannot estimate gap centre: no fragment spectra")
        return 0.5 * (float(np.max(homos)) + float(np.min(lumos)))

    def fragment_summary(self) -> list[dict]:
        """Per-fragment bookkeeping (atoms, passivants, bands, plane waves)."""
        rows = []
        for f in self.fragments:
            problem = self.scf.fragment_solver.build_problem(f)
            rows.append(
                {
                    "label": f.label,
                    "weight": f.weight,
                    "cells": f.ncells,
                    "atoms": problem.structure.natoms - problem.passivation.n_passivants,
                    "passivants": problem.passivation.n_passivants,
                    "electrons": problem.nelectrons,
                    "bands": problem.nbands,
                    "plane_waves": problem.basis.npw,
                }
            )
        return rows
