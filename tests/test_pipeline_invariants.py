"""Physical-invariant tests for the Gen_VF / Gen_dens data path (ISSUE-2).

LS3DF's correctness rests on three exact properties of the restriction and
patching operators, independent of any eigensolver:

* **Charge conservation** — the (2x-x) alpha weights make every global
  grid point counted exactly once, so the patched field carries exactly
  the summed weighted charge of the fragment interiors, and the chunked
  tree-reduce must preserve that to the last ulp-scale rounding.
* **The fragment-cancellation identity** — restricting any global field
  to all fragments and patching the restrictions back reproduces the
  field exactly (``patching_identity_residual == 0``); this is the
  discrete statement of the paper's artificial-boundary cancellation.
* **Restrict -> patch round-trip consistency per fragment shape** — the
  gather and scatter index maps of each of the eight fragment classes
  (1x1x1 ... 2x2x2 cells) address exactly the box and region they claim.

These are pure array properties, so they run on full 2x2x2 divisions
(all eight fragment shapes present) at negligible cost.
"""

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary, simple_cubic
from repro.core.division import SpatialDivision
from repro.core.fragments import enumerate_fragments
from repro.core.patching import (
    patch_contributions,
    patch_fragment_fields,
    patching_identity_residual,
    restrict_to_fragment,
    tree_reduce_fields,
)
from repro.pw.grid import FFTGrid


def _division(dims=(2, 2, 2), points_per_cell=6, buffer_cells=0.5):
    structure = simple_cubic(dims, "Si", 5.5)
    shape = tuple(points_per_cell * m for m in dims)
    grid = FFTGrid(structure.cell, shape)
    return SpatialDivision(structure, dims, grid, buffer_cells)


def _weighted_contributions(division, fragments, fields):
    out = []
    for fragment, field in zip(fragments, fields):
        box = division.fragment_box(fragment)
        indices = division.global_indices(fragment, interior_only=True)
        out.append((indices, fragment.weight * np.real(field[box.interior_slice])))
    return out


# --- tree reduce ------------------------------------------------------------------

def test_tree_reduce_fields_matches_plain_sum():
    rng = np.random.default_rng(3)
    partials = [rng.normal(size=(5, 4, 3)) for _ in range(7)]
    reduced = tree_reduce_fields(partials)
    np.testing.assert_allclose(reduced, np.sum(partials, axis=0), rtol=1e-13)


def test_tree_reduce_fields_edge_cases():
    one = np.ones((2, 2, 2))
    np.testing.assert_array_equal(tree_reduce_fields([one]), one)
    with pytest.raises(ValueError):
        tree_reduce_fields([])


def test_tree_reduce_is_deterministic_in_input_order_only():
    rng = np.random.default_rng(7)
    partials = [rng.normal(size=(4, 4, 4)) for _ in range(5)]
    a = tree_reduce_fields(partials)
    b = tree_reduce_fields([p.copy() for p in partials])
    np.testing.assert_array_equal(a, b)


# --- chunked tree-reduce patching -------------------------------------------------

def test_patch_contributions_chunked_matches_sequential():
    division = _division()
    fragments = enumerate_fragments(division.grid_dims)
    rng = np.random.default_rng(11)
    fields = [
        rng.normal(size=division.fragment_box(f).npoints) for f in fragments
    ]
    contributions = _weighted_contributions(division, fragments, fields)
    sequential = patch_contributions(
        division.global_grid.shape, contributions, chunk_size=None)
    for chunk_size in (1, 3, 8, 64):
        chunked = patch_contributions(
            division.global_grid.shape, contributions, chunk_size=chunk_size)
        np.testing.assert_allclose(chunked, sequential, rtol=1e-12, atol=1e-13)


def test_patch_contributions_validation_and_empty():
    division = _division()
    shape = division.global_grid.shape
    with pytest.raises(ValueError):
        patch_contributions(shape, [], chunk_size=0)
    np.testing.assert_array_equal(
        patch_contributions(shape, [], chunk_size=4), np.zeros(shape))


def test_patch_fragment_fields_chunk_size_paths_agree():
    division = _division()
    fragments = enumerate_fragments(division.grid_dims)
    rng = np.random.default_rng(13)
    fields = [
        rng.normal(size=division.fragment_box(f).npoints) for f in fragments
    ]
    default = patch_fragment_fields(division, fragments, fields)
    chunked = patch_fragment_fields(
        division, fragments, fields, chunk_size=8)
    np.testing.assert_allclose(chunked, default, rtol=1e-12, atol=1e-13)


# --- charge conservation ----------------------------------------------------------

def test_charge_conservation_through_chunked_tree_reduce():
    """Total patched charge == summed weighted interior charge, for the
    sequential and every chunked tree-reduce summation alike."""
    division = _division()
    fragments = enumerate_fragments(division.grid_dims)
    rng = np.random.default_rng(17)
    # Strictly positive "densities", as in a real Gen_dens batch.
    fields = [
        rng.uniform(0.5, 2.0, size=division.fragment_box(f).npoints)
        for f in fragments
    ]
    contributions = _weighted_contributions(division, fragments, fields)
    expected_charge = sum(float(c.sum()) for _, c in contributions)
    for chunk_size in (None, 1, 4, 8):
        patched = patch_contributions(
            division.global_grid.shape, contributions, chunk_size=chunk_size)
        assert float(patched.sum()) == pytest.approx(expected_charge, rel=1e-12)


def test_alpha_weights_count_every_point_once():
    """Patching per-fragment constant-1 fields yields exactly 1 everywhere:
    the (2x-x) weight pattern counts every global point exactly once."""
    for dims in [(2, 2, 2), (2, 1, 1), (3, 2, 1)]:
        division = _division(dims)
        fragments = enumerate_fragments(dims)
        fields = [
            np.ones(division.fragment_box(f).npoints) for f in fragments
        ]
        patched = patch_fragment_fields(division, fragments, fields, chunk_size=8)
        np.testing.assert_allclose(patched, np.ones(division.global_grid.shape),
                                   rtol=0, atol=1e-12)


# --- fragment-cancellation identity ----------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 1, 1), (1, 1, 2), (3, 2, 2)])
def test_patching_identity_residual_is_zero_on_seed_systems(dims):
    """The paper's (2x-x) cancellation: restrict-then-patch reproduces any
    global field exactly.  Exercised on divisions of both toy crystals."""
    for structure in (simple_cubic(dims, "Si", 5.5),
                      cscl_binary(dims, "Zn", "O", 6.0)):
        shape = tuple(6 * m for m in dims)
        grid = FFTGrid(structure.cell, shape)
        division = SpatialDivision(structure, dims, grid, 0.5)
        rng = np.random.default_rng(19)
        field = rng.normal(size=shape)
        assert patching_identity_residual(division, field) == 0.0


# --- restrict -> patch round trip per fragment shape ------------------------------

def test_restrict_patch_round_trip_every_fragment_shape():
    """Per-shape consistency: each fragment's gather map returns exactly
    its box, the interior slice returns exactly its region, and scattering
    the interior back lands on the same global points it came from."""
    division = _division()  # 2x2x2: all eight shapes 1x1x1 ... 2x2x2 occur
    fragments = enumerate_fragments(division.grid_dims)
    shapes = {f.size for f in fragments}
    assert len(shapes) == 8
    rng = np.random.default_rng(23)
    field = rng.normal(size=division.global_grid.shape)
    for fragment in fragments:
        box = division.fragment_box(fragment)
        restricted = restrict_to_fragment(division, fragment, field)
        assert restricted.shape == box.npoints
        interior = restricted[box.interior_slice]
        ix, iy, iz = division.global_indices(fragment, interior_only=True)
        assert interior.shape == (len(ix), len(iy), len(iz))
        # The interior of the restriction is the restriction to the region.
        np.testing.assert_array_equal(interior, field[np.ix_(ix, iy, iz)])
        # Scatter-gather closes: put the interior back on its own points
        # and read it off again unchanged.
        scratch = np.zeros_like(field)
        np.add.at(scratch, np.ix_(ix, iy, iz), interior)
        np.testing.assert_array_equal(scratch[np.ix_(ix, iy, iz)], interior)


def test_pipeline_task_maps_match_division(tmp_path):
    """The index maps a FragmentPipelineTask ships equal the division's —
    the worker-side Gen_VF/Gen_dens address exactly the driver's points."""
    from repro.core.scf import LS3DFSCF

    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    scf = LS3DFSCF(structure, grid_dims=(2, 1, 1), ecut=2.2)
    v_in = scf.genpot.initial_potential()
    for fragment in scf.fragments:
        ptask = scf.fragment_solver.make_pipeline_task(fragment, v_in)
        box = scf.division.fragment_box(fragment)
        assert ptask.interior_slice == box.interior_slice
        for got, ref in zip(
            ptask.box_indices,
            scf.division.global_indices(fragment, interior_only=False),
        ):
            np.testing.assert_array_equal(got, ref)
        restricted = restrict_to_fragment(scf.division, fragment, v_in)
        ix, iy, iz = ptask.box_indices
        np.testing.assert_array_equal(
            ptask.global_potential[np.ix_(ix, iy, iz)], restricted)
