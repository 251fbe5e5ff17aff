"""Kohn-Sham Hamiltonian in the plane-wave basis (dual-space application).

H = -1/2 nabla^2 + V_eff(r) + V_NL, applied to a *block* of bands at once:

* kinetic term: diagonal |G|^2/2 multiplication in reciprocal space;
* local effective potential (ionic local + Hartree + XC + LS3DF passivation
  potential): FFT each band to real space, multiply, FFT back;
* nonlocal Kleinman-Bylander term: two matrix-matrix multiplications with
  the projector matrix (the BLAS-3 structure from the paper's all-band
  optimisation).

The class also exposes a dense-matrix builder used by tests and by the
exact-diagonalization reference solver on tiny fragments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.atoms.structure import Structure
from repro.pw import fftcache
from repro.pw.basis import PlaneWaveBasis
from repro.pw.pseudopotential import PseudopotentialSet


#: Column-block size of the fixed-shape nonlocal kernel
#: (see :meth:`Hamiltonian.add_nonlocal`).
NONLOCAL_BLOCK = 8


@dataclass
class ApplyCounter:
    """Counts Hamiltonian applications and FFTs for performance accounting.

    Updates go through :meth:`add` under a lock: the band-sliced
    eigensolver's thread backend applies slices of one band block on the
    *same* Hamiltonian concurrently, and bare ``+=`` read-modify-writes
    would lose increments.
    """

    n_apply: int = 0
    n_fft: int = 0
    n_projector_flops: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(
        self, n_apply: int = 0, n_fft: int = 0, n_projector_flops: float = 0.0
    ) -> None:
        """Atomically accumulate application/FFT/flop counts."""
        with self._lock:
            self.n_apply += n_apply
            self.n_fft += n_fft
            self.n_projector_flops += n_projector_flops

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.n_apply = 0
            self.n_fft = 0
            self.n_projector_flops = 0.0


class Hamiltonian:
    """Plane-wave Kohn-Sham Hamiltonian for one periodic cell or fragment.

    Parameters
    ----------
    basis:
        Plane-wave basis (defines the grid and the kinetic diagonal).
    local_potential:
        Real-space local potential on ``basis.grid`` (ionic local +
        passivation potential).  The *screening* parts (Hartree + XC) are
        added separately via :meth:`set_effective_potential` so the SCF
        loop can update them cheaply.
    projectors, projector_strengths:
        Kleinman-Bylander projectors ``(nproj, npw)`` and strengths
        ``(nproj,)``; pass empty arrays for a purely local Hamiltonian.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        local_potential: np.ndarray,
        projectors: np.ndarray | None = None,
        projector_strengths: np.ndarray | None = None,
    ) -> None:
        if local_potential.shape != basis.grid.shape:
            raise ValueError("local potential shape does not match grid")
        self.basis = basis
        self.v_ionic = np.asarray(local_potential, dtype=float)
        self.v_screening = np.zeros_like(self.v_ionic)
        if projectors is None:
            projectors = np.zeros((0, basis.npw), dtype=complex)
        if projector_strengths is None:
            projector_strengths = np.zeros(0)
        projectors = np.asarray(projectors, dtype=complex)
        projector_strengths = np.asarray(projector_strengths, dtype=float)
        if projectors.shape[0] != projector_strengths.shape[0]:
            raise ValueError("projector count mismatch")
        if projectors.size and projectors.shape[1] != basis.npw:
            raise ValueError("projector length must equal npw")
        self.projectors = projectors
        self.projector_strengths = projector_strengths
        self.counter = ApplyCounter()
        self._projectors_conj: np.ndarray | None = None
        self._projectors_t: np.ndarray | None = None
        self._default_preconditioner: np.ndarray | None = None

    # -- construction ----------------------------------------------------
    @classmethod
    def from_structure(
        cls,
        structure: Structure,
        basis: PlaneWaveBasis,
        pseudopotentials: PseudopotentialSet,
        extra_local_potential: np.ndarray | None = None,
    ) -> "Hamiltonian":
        """Build the ionic Hamiltonian for a structure (no screening yet)."""
        v_loc = pseudopotentials.local_potential(structure, basis.grid)
        if extra_local_potential is not None:
            if extra_local_potential.shape != basis.grid.shape:
                raise ValueError("extra potential shape mismatch")
            v_loc = v_loc + extra_local_potential
        proj, strength = pseudopotentials.nonlocal_projectors(structure, basis)
        return cls(basis, v_loc, proj, strength)

    # -- potential management -----------------------------------------------
    @property
    def nproj(self) -> int:
        return self.projectors.shape[0]

    def set_effective_potential(self, v_screening: np.ndarray) -> None:
        """Set the screening (Hartree + XC) part of the local potential."""
        if v_screening.shape != self.basis.grid.shape:
            raise ValueError("screening potential shape mismatch")
        self.v_screening = np.asarray(v_screening, dtype=float)

    def set_total_local_potential(self, v_total: np.ndarray) -> None:
        """Set the *total* local potential directly (LS3DF Gen_VF path).

        In LS3DF the fragment receives the global input potential restricted
        to its box plus the fixed passivation correction; in that mode the
        Hamiltonian does not recompute Hartree/XC itself.
        """
        if v_total.shape != self.basis.grid.shape:
            raise ValueError("potential shape mismatch")
        self.v_ionic = np.asarray(v_total, dtype=float)
        self.v_screening = np.zeros_like(self.v_ionic)

    @property
    def local_potential(self) -> np.ndarray:
        """Current total local potential (ionic + screening)."""
        return self.v_ionic + self.v_screening

    # -- application ---------------------------------------------------------
    def apply_local(self, coefficients: np.ndarray) -> np.ndarray:
        """Kinetic + local-potential part of H on a band block ``(m, npw)``.

        This is the dual-space (FFT-heavy) share of :meth:`apply`, and it is
        *row-independent bit for bit*: every output row depends only on the
        matching input row through elementwise products and per-band FFTs
        (numpy's batched pocketfft transforms each band identically no
        matter how the leading axis is batched — the same verified property
        the slab-distributed FFT of :mod:`repro.parallel.distributed` rests
        on).  The band-sliced eigensolver
        (:mod:`repro.parallel.bands`) therefore ships row slices of a band
        block through this kernel on worker threads/processes and
        concatenates the outputs, bit-identical to one full-block call.
        """
        c = np.asarray(coefficients, dtype=complex)
        if c.ndim != 2 or c.shape[1] != self.basis.npw:
            raise ValueError("coefficient length must equal npw")
        nbands = c.shape[0]

        # Kinetic: diagonal in G.
        out = c * self.basis.kinetic[None, :]

        # Local potential: FFT to real space, multiply, FFT back — through
        # pooled workspace buffers (repro.pw.fftcache): identical operations
        # on reused memory, bit-identical to the allocating path.
        shape = (nbands,) + self.basis.grid.shape
        with fftcache.scratch(shape) as w1, fftcache.scratch(shape) as w2:
            psi_r = self.basis.to_real_space(c, out=w2, work=w1)
            psi_r *= self.local_potential[None, :, :, :]
            out += self.basis.from_real_space(psi_r, work=w1)
        self.counter.add(n_fft=2 * nbands)
        return out

    def add_nonlocal(
        self, out: np.ndarray, coefficients: np.ndarray, band_offset: int = 0
    ) -> np.ndarray:
        """Add the nonlocal KB term of a band block to ``out`` (in place).

        Blocked fixed-shape kernel.  Bands are pushed through the two
        projection GEMMs in column blocks of exactly
        :data:`NONLOCAL_BLOCK` columns, aligned to the *global* band index
        ``band_offset + i``; columns the call does not own are zero-filled.
        A BLAS GEMM output column depends only on its own input column once
        the operand shapes and the column position are fixed (verified
        property, ``tests/test_kernel_pack.py`` — the GEMM analogue of the
        batched-pocketfft property ``apply_local`` rests on), so every
        band's result is bit-identical no matter how the block is sliced
        across workers.  The band-sliced eigensolver therefore runs this
        term inside band slices (``band_offset = slice.lo``) instead of on
        the group root.  A single variable-shape GEMM pair over the whole
        block would *not* be row-slice stable.
        """
        c = coefficients
        m = c.shape[0]
        if not self.nproj or not m:
            return out
        strengths = self.projector_strengths[:, None]
        if self._projectors_conj is None:
            self._projectors_conj = self.projectors.conj()
        if self._projectors_t is None:
            # ``projectors.T`` is an F-contiguous view; BLAS then runs the
            # back-projection GEMM in transposed mode.  Cache a C-contiguous
            # copy once so both GEMM operands are contiguous (the ROADMAP
            # "below numpy" item; measured by tools/profile_hot_paths.py).
            self._projectors_t = np.ascontiguousarray(self.projectors.T)
        projectors_t = self._projectors_t
        blk = NONLOCAL_BLOCK
        cblk = np.empty((self.basis.npw, blk), dtype=complex)
        first = band_offset // blk
        last = (band_offset + m - 1) // blk
        for k in range(first, last + 1):
            g_lo = max(band_offset, k * blk)
            g_hi = min(band_offset + m, (k + 1) * blk)
            cols = slice(g_lo - k * blk, g_hi - k * blk)
            rows = slice(g_lo - band_offset, g_hi - band_offset)
            if g_hi - g_lo < blk:
                cblk.fill(0)
            cblk[:, cols] = c[rows].T
            beta = self._projectors_conj @ cblk  # (nproj, blk)
            nl = projectors_t @ (strengths * beta)  # (npw, blk)
            out[rows] += nl[:, cols].T
        self.counter.add(
            n_projector_flops=16.0 * self.nproj * self.basis.npw * m
        )
        return out

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        """Apply H to a block of band coefficients ``(nbands, npw)``.

        Accepts a single vector ``(npw,)`` as well.  Exactly
        :meth:`apply_local` followed by :meth:`add_nonlocal` — the split the
        band-sliced eigensolver distributes.
        """
        c = np.asarray(coefficients, dtype=complex)
        single = c.ndim == 1
        if single:
            c = c[None, :]
        out = self.add_nonlocal(self.apply_local(c), c)
        self.counter.add(n_apply=c.shape[0])
        return out[0] if single else out

    def expectation(self, coefficients: np.ndarray) -> np.ndarray:
        """Diagonal expectation values <psi_i|H|psi_i> for a band block."""
        c = np.atleast_2d(np.asarray(coefficients, dtype=complex))
        hc = self.apply(c)
        return np.real(np.einsum("ij,ij->i", c.conj(), hc))

    def subspace_matrix(self, coefficients: np.ndarray) -> np.ndarray:
        """Subspace (Rayleigh-Ritz) matrix  C H C^H  for a band block."""
        c = np.atleast_2d(np.asarray(coefficients, dtype=complex))
        hc = self.apply(c)
        return c.conj() @ hc.T

    # -- dense reference -------------------------------------------------------
    def dense_matrix(self) -> np.ndarray:
        """Build the full (npw x npw) Hamiltonian matrix.

        Only sensible for small bases (tests, exact reference); cost and
        memory are O(npw^2).
        """
        npw = self.basis.npw
        if npw > 4000:
            raise MemoryError("dense Hamiltonian requested for npw > 4000")
        h = np.zeros((npw, npw), dtype=complex)
        identity = np.eye(npw, dtype=complex)
        # Column-by-column application in blocks to bound memory.
        block = 256
        for start in range(0, npw, block):
            stop = min(npw, start + block)
            h[:, start:stop] = self.apply(identity[start:stop]).T
        # Enforce exact hermiticity against round-off.
        return 0.5 * (h + h.conj().T)

    # -- preconditioner ----------------------------------------------------------
    def preconditioner(self, reference_kinetic: float | None = None) -> np.ndarray:
        """Diagonal TPA-style preconditioner for the CG eigensolvers.

        Returns a positive array ``(npw,)`` approximating (H - eps)^{-1}
        for low-lying states; larger kinetic energy components are damped.
        The default-reference array depends only on the basis, so it is
        computed once and cached — the band-sliced eigensolver requests
        it in every ``residual_precond`` worker task.
        """
        t = self.basis.kinetic
        if reference_kinetic is None:
            if self._default_preconditioner is None:
                def build() -> np.ndarray:
                    x = t / max(1.0, float(np.median(t)))
                    return 1.0 / (1.0 + x + x * x)

                # Shared (read-only) across every Hamiltonian on an equal
                # grid/cutoff — fragment re-instantiation hits the memo.
                self._default_preconditioner = self.basis.grid.memo(
                    ("default_preconditioner", self.basis.ecut), build
                )
            return self._default_preconditioner
        x = t / reference_kinetic
        return 1.0 / (1.0 + x + x * x)
