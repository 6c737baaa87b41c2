import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from mtdplan.case import case_from_dict, demo_case_path, load_case, read_case_text
from mtdplan.errors import PhantomError
from mtdplan.phantom import (KernelParams, MachineModel, Phantom, PhantomSpec, ROI,
                             RoiShapeSpec, RoiSpec, build_phantom, compute_dose_influence,
                             _shape_membership, _subsample_offsets, _voxel_centers,
                             _voxelize_ring, _voxelize_shape, influence_content_hash,
                             roi_weight_vector)

from helpers import make_machine, reference_dose_influence


def sphere(name, center, radius, kind="target"):
    return RoiSpec(name=name, kind=kind,
                   shape=RoiShapeSpec(kind_of_shape="sphere", center_mm=center, radius_mm=radius))


def test_single_voxel_grid_single_roi_weight_is_one():
    spec = PhantomSpec(grid_dims=(1, 1, 1), voxel_size_mm=(1.0, 1.0, 1.0),
                       rois=(sphere("all", (0.5, 0.5, 0.5), 2.0),))
    phantom = build_phantom(spec)
    roi = phantom.roi("all")
    assert roi.voxels.tolist() == [0]
    assert roi.weights.tolist() == [1.0]


def test_sphere_radius_zero_is_single_voxel():
    # centered exactly on the center of voxel (4, 4, 4) of a 10^3 grid
    spec = PhantomSpec(grid_dims=(10, 10, 10), voxel_size_mm=(1.0, 1.0, 1.0),
                       rois=(sphere("dot", (4.5, 4.5, 4.5), 0.0),))
    phantom = build_phantom(spec)
    roi = phantom.roi("dot")
    assert roi.voxels.size == 1
    expected = np.ravel_multi_index((4, 4, 4), (10, 10, 10))
    assert roi.voxels[0] == expected
    assert roi.weights[0] == 1.0


def test_concentric_sphere_and_shell_are_disjoint():
    center = (10.0, 10.0, 10.0)
    spec = PhantomSpec(
        grid_dims=(20, 20, 20), voxel_size_mm=(1.0, 1.0, 1.0),
        rois=(sphere("target", center, 4.0),
              RoiSpec(name="ring", kind="ring",
                      shape=RoiShapeSpec(kind_of_shape="shell", center_mm=center,
                                         inner_radius_mm=4.0, outer_radius_mm=6.0))))
    phantom = build_phantom(spec)
    target = set(phantom.roi("target").voxels.tolist())
    ring = set(phantom.roi("ring").voxels.tolist())
    assert not target & ring

    # exhaustive voxel-membership oracle over every voxel center
    for flat in range(phantom.num_voxels):
        i, j, k = np.unravel_index(flat, (20, 20, 20))
        dist = np.sqrt((i + 0.5 - 10.0) ** 2 + (j + 0.5 - 10.0) ** 2 + (k + 0.5 - 10.0) ** 2)
        assert (flat in target) == (dist <= 4.0)
        assert (flat in ring) == (4.0 < dist <= 6.0)


def test_ring_around_target_excludes_target():
    center = (10.0, 10.0, 10.0)
    spec = PhantomSpec(
        grid_dims=(20, 20, 20), voxel_size_mm=(1.0, 1.0, 1.0),
        rois=(sphere("target", center, 4.0),
              RoiSpec(name="ring", kind="ring",
                      shape=RoiShapeSpec(kind_of_shape="ring", around="target",
                                         inner_mm=0.0, outer_mm=3.0))))
    phantom = build_phantom(spec)
    target = set(phantom.roi("target").voxels.tolist())
    ring = phantom.roi("ring")
    assert ring.voxels.size > 0
    assert not target & set(ring.voxels.tolist())


def _edt_ring_reference(dims, voxel_size, voxels, inner, outer):
    """Ring band from scipy's exact Euclidean distance transform, the oracle."""
    from scipy.ndimage import distance_transform_edt

    mask = np.zeros(dims, dtype=bool)
    mask.ravel()[voxels] = True
    dist = distance_transform_edt(~mask, sampling=voxel_size).ravel()
    return np.flatnonzero((dist > inner) & (dist <= outer) & (dist > 0.0))


@pytest.mark.parametrize("dims, voxel_size, inner, outer, face", [
    ((13, 11, 9), (3.16, 5.0, 2.5), 0.0, 10.0, False),
    ((12, 12, 8), (2.5, 3.16, 4.3), 3.16, 12.0, False),
    ((10, 9, 7), (5.0, 5.0, 5.0), 5.0, 7.9, True),
    ((14, 10, 1), (3.16, 2.0, 5.0), 0.0, 9.5, False),
    ((14, 10, 1), (2.5, 2.5, 2.5), 2.5, 6.0, True),
    ((9, 8, 6), (3.16, 1.7, 4.0), 4.0, 1e6, True),
], ids=["anisotropic", "inner", "face", "one-slice", "one-slice-face", "beyond-grid"])
def test_ring_matches_euclidean_distance_transform(dims, voxel_size, inner, outer, face):
    rng = np.random.default_rng(sum(dims))
    shape = RoiShapeSpec(kind_of_shape="ring", around="t", inner_mm=inner, outer_mm=outer)
    for _ in range(12):
        mask = np.zeros(dims, dtype=bool)
        lo = rng.integers(0, dims)
        hi = np.minimum(lo + rng.integers(1, 5, size=3), dims)
        mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = rng.random(tuple(hi - lo)) < 0.7
        mask.ravel()[rng.integers(0, mask.size)] = True  # a stray voxel far from the blob
        if face:
            mask[0, rng.integers(0, dims[1]), rng.integers(0, dims[2])] = True
        voxels = np.flatnonzero(mask)
        target = ROI("t", "target", voxels, np.full(voxels.size, 1.0 / voxels.size))
        idx, raw = _voxelize_ring(dims, voxel_size, shape, target)
        assert np.array_equal(idx, _edt_ring_reference(dims, voxel_size, voxels, inner, outer))
        assert np.all(raw == float(np.prod(voxel_size)))


def _refined_demo_doc():
    doc = json.loads(read_case_text(demo_case_path()))
    doc["phantom"]["grid_dims"] = [48, 48, 24]
    doc["phantom"]["voxel_size_mm"] = [2.5, 2.5, 2.5]
    doc["kernel"]["lateral_sigma_mm"] = 5.0
    return doc


@pytest.mark.parametrize("refined, ring_voxels, digest", [
    (False, 344, "13d284db3f2995b070759d6a9d380a0314dfe837cb62e1b06997d360cb2ce6ec"),
    (True, 2848, "3b10adad26b50c84615e7737941beda661f514fc7c5a9120fe4484c3e2ead1a4"),
], ids=["demo", "refined"])
def test_influence_hash_pins_every_roi_of_the_demo(refined, ring_voxels, digest):
    # The hash covers every ROI's voxels and weights, so the ring band, the
    # partial-volume weights and the geometry all stay exactly as they were.
    case = case_from_dict(_refined_demo_doc()) if refined else load_case(demo_case_path())
    assert case.phantom.roi("ring").voxels.size == ring_voxels
    assert influence_content_hash(case.phantom, case.machine, case.kernel) == digest


@pytest.mark.parametrize("shape", [
    RoiShapeSpec(kind_of_shape="sphere", center_mm=(61.0, 58.2, 30.4), radius_mm=19.0),
    RoiShapeSpec(kind_of_shape="box", center_mm=(30.3, 31.7, 29.9), size_mm=(20.5, 13.0, 17.2)),
    RoiShapeSpec(kind_of_shape="shell", center_mm=(61.0, 58.2, 30.4),
                 inner_radius_mm=20.0, outer_radius_mm=26.5),
], ids=["sphere", "box", "shell"])
def test_voxelize_shape_matches_per_voxel_reference(shape):
    size = (7.1, 5.3, 10.9)  # anisotropic, so each axis has its own sub-sample offsets
    centers = _voxel_centers((17, 23, 11), size)
    idx, raw = _voxelize_shape(centers, size, shape)
    assert np.array_equal(idx, np.flatnonzero(_shape_membership(shape, centers)))
    offsets = _subsample_offsets(np.asarray(size))
    n_sub = offsets.shape[0]
    frac = [max(np.count_nonzero(_shape_membership(shape, centers[i] + offsets)) / n_sub,
                0.5 / n_sub) for i in idx]
    assert np.array_equal(raw, np.asarray(frac) * float(np.prod(size)))
    assert 0 < np.count_nonzero(raw < raw.max()) < raw.size  # partial voxels on the boundary


@pytest.mark.parametrize("fields", [
    dict(kind_of_shape="sphere", center_mm=(0.0, 0.0, 0.0), radius_mm=-12.0),
    dict(kind_of_shape="sphere", center_mm=(0.0, 0.0, 0.0), radius_mm=float("nan")),
    dict(kind_of_shape="box", center_mm=(0.0, 0.0, 0.0), size_mm=(1.0, -1.0, 1.0)),
    dict(kind_of_shape="shell", center_mm=(0.0, 0.0, 0.0), inner_radius_mm=-1.0,
         outer_radius_mm=2.0),
    dict(kind_of_shape="shell", center_mm=(0.0, 0.0, 0.0), inner_radius_mm=2.0,
         outer_radius_mm=2.0),
    dict(kind_of_shape="ring", around="target", inner_mm=3.0, outer_mm=1.0),
], ids=["negative-radius", "nan-radius", "negative-size", "negative-inner", "empty-shell",
        "inverted-ring"])
def test_shape_geometry_checked_at_construction(fields):
    with pytest.raises(PhantomError):
        RoiShapeSpec(**fields)


def test_roi_weights_normalized_and_positive():
    rng = np.random.default_rng(3)
    for trial in range(10):
        center = tuple(rng.uniform(5, 15, 3))
        radius = rng.uniform(1.0, 5.0)
        spec = PhantomSpec(grid_dims=(16, 16, 16), voxel_size_mm=(1.2, 0.9, 1.5),
                           rois=(sphere("s", center, radius),))
        roi = build_phantom(spec).roi("s")
        assert np.all(roi.weights > 0)
        assert abs(roi.weights.sum() - 1.0) <= 1e-12


def test_partial_volume_weights_from_raw_overlap():
    roi = ROI.from_raw_volumes("pv", "oar", [3, 7, 9], [2.0, 1.0, 1.0])
    assert np.allclose(roi.weights, [0.5, 0.25, 0.25], atol=0, rtol=0)


def test_roi_weight_vector_values():
    phantom = Phantom(grid_dims=(8, 1, 1), voxel_size_mm=(1, 1, 1),
                      rois=(ROI("four", "target", np.array([0, 2, 4, 6]), np.full(4, 0.25)),
                            ROI("one", "oar", np.array([5]), np.array([1.0]))))
    w4 = roi_weight_vector(phantom, "four")
    assert w4[0] == w4[2] == w4[4] == w4[6] == 0.25
    assert w4.sum() == 1.0
    w1 = roi_weight_vector(phantom, "one")
    assert w1[5] == 1.0 and w1.sum() == 1.0
    with pytest.raises(PhantomError):
        roi_weight_vector(phantom, "nope")


def test_duplicate_roi_name_rejected():
    spec = PhantomSpec(grid_dims=(4, 4, 4), voxel_size_mm=(1, 1, 1),
                       rois=(sphere("a", (2, 2, 2), 1.0), sphere("a", (2, 2, 2), 1.5)))
    with pytest.raises(PhantomError):
        build_phantom(spec)


def test_empty_roi_after_voxelization_rejected():
    spec = PhantomSpec(grid_dims=(4, 4, 4), voxel_size_mm=(1, 1, 1),
                       rois=(sphere("out", (100.0, 100.0, 100.0), 1.0),))
    with pytest.raises(PhantomError):
        build_phantom(spec)


def _ray_phantom():
    spec = PhantomSpec(grid_dims=(9, 9, 9), voxel_size_mm=(1.0, 1.0, 1.0),
                       rois=(sphere("t", (4.5, 4.5, 4.5), 2.0),))
    return build_phantom(spec)


def test_single_bixel_narrow_kernel_hits_only_ray():
    phantom = _ray_phantom()
    machine = make_machine(B=1, N=1, J=1, angles=(0.0,))
    kernel = KernelParams(lateral_sigma_mm=0.01, attenuation_per_mm=0.0,
                          bixel_width_mm=1.0, leaf_width_mm=1.0, cutoff_sigmas=3.0)
    influence = compute_dose_influence(phantom, machine, kernel)
    hit = influence.matrix.tocoo().row
    # ray-march oracle: the beam runs along +x through the grid center, so
    # exactly the voxels with center (anything, 4.5, 4.5) are on the ray
    expected = {np.ravel_multi_index((ix, 4, 4), (9, 9, 9)) for ix in range(9)}
    assert set(hit.tolist()) == expected
    assert np.allclose(influence.matrix.data, 1.0)  # attenuation off, on-axis


def test_influence_independent_of_transmission_and_dose_rate():
    phantom = _ray_phantom()
    kernel = KernelParams(lateral_sigma_mm=2.0, attenuation_per_mm=0.01,
                          bixel_width_mm=1.0, leaf_width_mm=1.0)
    m1 = make_machine(B=2, N=2, J=3, tau=0.0, rate=1.0, angles=(0.0, 90.0))
    m2 = make_machine(B=2, N=2, J=3, tau=0.3, rate=7.5, angles=(0.0, 90.0))
    p1 = compute_dose_influence(phantom, m1, kernel)
    p2 = compute_dose_influence(phantom, m2, kernel)
    assert (p1.matrix != p2.matrix).nnz == 0


def test_influence_deterministic_bitwise():
    phantom = _ray_phantom()
    machine = make_machine(B=3, N=2, J=4, angles=(0.0, 120.0, 240.0))
    kernel = KernelParams(lateral_sigma_mm=1.5, attenuation_per_mm=0.02,
                          bixel_width_mm=1.0, leaf_width_mm=1.5)
    p1 = compute_dose_influence(phantom, machine, kernel)
    p2 = compute_dose_influence(phantom, machine, kernel)
    assert np.array_equal(p1.matrix.data, p2.matrix.data)
    assert np.array_equal(p1.matrix.indices, p2.matrix.indices)


def test_nonnegative_dose_for_nonnegative_fluence():
    phantom = _ray_phantom()
    machine = make_machine(B=2, N=2, J=3, angles=(30.0, 200.0))
    kernel = KernelParams(lateral_sigma_mm=2.0, attenuation_per_mm=0.005,
                          bixel_width_mm=1.0, leaf_width_mm=1.0)
    influence = compute_dose_influence(phantom, machine, kernel)
    assert np.all(influence.matrix.data >= 0)
    rng = np.random.default_rng(0)
    fluence = rng.random(machine.num_bixels)
    assert np.all(influence.matrix @ fluence >= 0)


def test_beam_missing_grid_raises():
    phantom = _ray_phantom()
    machine = make_machine(B=1, N=2, J=1, angles=(0.0,))
    kernel = KernelParams(lateral_sigma_mm=0.1, attenuation_per_mm=0.0,
                          bixel_width_mm=1.0, leaf_width_mm=1000.0, cutoff_sigmas=2.0)
    with pytest.raises(PhantomError):
        compute_dose_influence(phantom, machine, kernel)


def _coo_influence_reference(phantom, machine, kernel):
    """The influence built as COO triplets over every voxel, then CSR with sorted indices."""
    rel = phantom.voxel_centers_mm() - phantom.extent_mm() / 2.0
    B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
    t_off = (np.arange(J) - (J - 1) / 2.0) * kernel.bixel_width_mm
    z_off = (np.arange(N) - (N - 1) / 2.0) * kernel.leaf_width_mm
    cutoff2 = (kernel.cutoff_sigmas * kernel.lateral_sigma_mm) ** 2
    inv_two_sigma2 = 1.0 / (2.0 * kernel.lateral_sigma_mm ** 2)
    half_diag = float(np.linalg.norm(phantom.extent_mm()) / 2.0)
    rows, cols, vals = [], [], []
    for b, angle in enumerate(machine.beam_angles_deg):
        theta = np.deg2rad(angle)
        depth = rel @ np.array([np.cos(theta), np.sin(theta), 0.0]) + half_diag
        proj_t = rel @ np.array([-np.sin(theta), np.cos(theta), 0.0])
        atten = kernel.output_factor * np.exp(-kernel.attenuation_per_mm * depth)
        for n in range(N):
            dz2 = (rel[:, 2] - z_off[n]) ** 2
            for j in range(J):
                lat2 = (proj_t - t_off[j]) ** 2 + dz2
                idx = np.flatnonzero(lat2 <= cutoff2)
                rows.append(idx)
                cols.append(np.full(idx.size, machine.bixel_index(b, n, j)))
                vals.append(atten[idx] * np.exp(-lat2[idx] * inv_two_sigma2))
    matrix = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                           shape=(phantom.num_voxels, machine.num_bixels))
    matrix.sort_indices()
    return matrix


def _assert_same_bytes(a, b):
    assert a.format == b.format
    for x, y in [(a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)]:
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def _assert_same_influence(influence, reference):
    """The influence's CSC, its CSR and its ROI rows' CSR equal the reference's, byte for byte."""
    _assert_same_bytes(influence.matrix, reference.tocsc())
    _assert_same_bytes(influence.matrix.tocsr(), reference.tocsr())
    _assert_same_bytes(influence.roi_rows, reference.tocsr()[influence.roi_voxels])


def test_influence_equals_a_coo_build_byte_for_byte_on_the_demo():
    case = load_case(demo_case_path())
    influence = compute_dose_influence(case.phantom, case.machine, case.kernel)
    assert influence.matrix.has_sorted_indices
    _assert_same_influence(influence,
                           _coo_influence_reference(case.phantom, case.machine, case.kernel))


def test_influence_equals_a_coo_build_byte_for_byte_on_an_anisotropic_phantom():
    spec = PhantomSpec(grid_dims=(11, 9, 7), voxel_size_mm=(3.16, 2.5, 4.0),
                       rois=(sphere("t", (17.0, 11.0, 14.0), 6.0),))
    phantom = build_phantom(spec)
    machine = make_machine(B=3, N=6, J=13, angles=(10.0, 135.0, 260.0))
    kernel = KernelParams(lateral_sigma_mm=2.0, attenuation_per_mm=0.01,
                          bixel_width_mm=4.0, leaf_width_mm=8.0)
    influence = compute_dose_influence(phantom, machine, kernel)
    reference = _coo_influence_reference(phantom, machine, kernel)
    assert np.any(np.diff(reference.tocsc().indptr) == 0)  # some bixels hit no voxel
    _assert_same_influence(influence, reference)

    # A beam whose every bixel misses: the reference holds no entry for it.
    offset = KernelParams(lateral_sigma_mm=0.1, attenuation_per_mm=0.0,
                          bixel_width_mm=1.0, leaf_width_mm=1000.0, cutoff_sigmas=2.0)
    missing = make_machine(B=1, N=2, J=1, angles=(0.0,))
    assert _coo_influence_reference(phantom, missing, offset).nnz == 0
    with pytest.raises(PhantomError, match="misses the phantom"):
        compute_dose_influence(phantom, missing, offset)


def _drawn_geometry(seed):
    """A seeded grid, machine and kernel: oblique beams, an odd or even slice count, and
    a bixel band plus cutoff that covers the grid on some beams and a strip on others.

    From seed 20 on, grids are tall (14 to 60 slices) and each beam lies within a degree
    of a multiple of 45 degrees.  The one ROI holds about a third of the voxels."""
    rng = np.random.default_rng(seed)
    tall = seed >= 20
    dims = (int(rng.integers(4, 17)), int(rng.integers(4, 17)),
            int(rng.integers(14, 61) if tall else rng.integers(1, 14)))
    voxel_size = tuple(rng.uniform(1.5, 6.0, 3))
    num_beams = int(rng.integers(1, 5))
    leaf_pairs, bixels_per_row = int(rng.integers(1, 7)), int(rng.integers(2, 13))
    if tall:
        angles = 45.0 * rng.integers(0, 8, num_beams) + rng.uniform(-1.0, 1.0, num_beams)
    else:
        angles = rng.uniform(0.0, 360.0, num_beams)
    machine = make_machine(B=num_beams, N=leaf_pairs, J=bixels_per_row, angles=tuple(angles))
    kernel = KernelParams(lateral_sigma_mm=float(rng.uniform(1.0, 6.0)),
                          attenuation_per_mm=float(rng.uniform(0.0, 0.02)),
                          bixel_width_mm=float(rng.uniform(1.0, 8.0)),
                          leaf_width_mm=float(rng.uniform(3.0, 12.0)),
                          cutoff_sigmas=float(rng.uniform(1.5, 3.5)))
    voxels = np.union1d([0], np.flatnonzero(rng.random(int(np.prod(dims))) < 1 / 3))
    phantom = Phantom(grid_dims=dims, voxel_size_mm=voxel_size,
                      rois=(ROI("t", "target", voxels, np.full(voxels.size, 1.0 / voxels.size)),))
    return phantom, machine, kernel


def _geometry(source):
    """The demo's, the refined demo's or a drawn geometry."""
    if source in ("demo", "refined"):
        case = case_from_dict(_refined_demo_doc()) if source == "refined" else load_case(
            demo_case_path())
        return case.phantom, case.machine, case.kernel
    return _drawn_geometry(source)


@pytest.mark.parametrize("source", ["demo", "refined", *range(60)])
def test_influence_equals_the_per_bixel_reference(source):
    # The build visits, per bixel, the cells within the cutoff laterally and, per leaf
    # row, the slices within it in z: the same entries as masking every voxel in reach in z.
    phantom, machine, kernel = _geometry(source)
    _assert_same_influence(compute_dose_influence(phantom, machine, kernel),
                           reference_dose_influence(phantom, machine, kernel))


@pytest.mark.parametrize("source", ["demo", "refined", *range(0, 60, 3)])
def test_dose_product_of_the_csc_equals_the_csr_product(source):
    # dmlc.dose_from_trajectories multiplies by the CSC as built; each voxel's dose must be
    # the sum its CSR row gives, in the same order, for fluences with and without zeros.
    phantom, machine, kernel = _geometry(source)
    matrix = compute_dose_influence(phantom, machine, kernel).matrix
    rows = matrix.tocsr()
    rng = np.random.default_rng(41)
    for zeros in (0.0, 0.3, 0.9):
        fluence = rng.uniform(0.0, 20.0, machine.num_bixels)
        fluence[rng.random(machine.num_bixels) < zeros] = 0.0
        assert (matrix @ fluence).tobytes() == (rows @ fluence).tobytes()


def test_influence_rows_refuse_a_voxel_outside_the_rois():
    phantom, machine, kernel = _drawn_geometry(7)
    influence = compute_dose_influence(phantom, machine, kernel)
    inside = influence.roi_voxels
    outside = np.setdiff1d(np.arange(phantom.num_voxels), inside)
    assert outside.size and np.array_equal(inside, phantom.roi("t").voxels)
    picked = inside[::-2]   # any order, repeats allowed
    assert (influence.rows(np.append(picked, picked[0])) != influence.matrix.tocsr()[
        np.append(picked, picked[0])]).nnz == 0
    for voxels in ([outside[0]], np.append(picked, outside[-1]), [phantom.num_voxels], [-1]):
        with pytest.raises(PhantomError, match="lies in no ROI"):
            influence.rows(voxels)
        with pytest.raises(PhantomError, match="lies in no ROI"):
            influence.per_beam_row_sums(np.asarray(voxels))


def test_drawn_geometries_put_the_bixel_band_inside_and_past_the_grid():
    inside = past = 0
    for seed in range(60):
        phantom, machine, kernel = _drawn_geometry(seed)
        rel = phantom.voxel_centers_mm() - phantom.extent_mm() / 2.0
        half_band = ((machine.bixels_per_row - 1) / 2.0 * kernel.bixel_width_mm
                     + kernel.cutoff_sigmas * kernel.lateral_sigma_mm)
        for angle in np.deg2rad(machine.beam_angles_deg):
            reach = np.abs(rel @ np.array([-np.sin(angle), np.cos(angle), 0.0])).max()
            inside += reach > half_band
            past += reach <= half_band
    assert inside >= 10 and past >= 10


def _demo_hash(section=None, key=None, value=None):
    doc = json.loads(read_case_text(demo_case_path()))
    if section is not None:
        doc[section][key] = value
    case = case_from_dict(doc)
    return influence_content_hash(case.phantom, case.machine, case.kernel)


def test_influence_hash_keys_exactly_the_influence_inputs():
    demo = load_case(demo_case_path())
    reference = _demo_hash()
    assert influence_content_hash(demo.phantom, demo.machine, demo.kernel) == reference
    assert _demo_hash("kernel", "lateral_sigma_mm", 3.5) != reference
    assert _demo_hash("phantom", "grid_dims", [26, 24, 12]) != reference
    # Transmission and dose rate scale delivered dose, not the influence matrix.
    assert _demo_hash("machine", "transmission", 0.05) == reference
    assert _demo_hash("machine", "dose_rate", 2.0) == reference


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["traverse_time_s", "dose_rate", "max_time_s"])
def test_machine_model_rejects_a_non_finite_time_or_rate(field, value):
    with pytest.raises(PhantomError, match="must be finite"):
        replace(make_machine(), **{field: value})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_machine_model_rejects_a_non_finite_beam_angle(value):
    machine = make_machine()
    angles = list(machine.beam_angles_deg)
    angles[-1] = value
    with pytest.raises(PhantomError, match="beam_angles_deg must be finite"):
        replace(machine, beam_angles_deg=angles)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["lateral_sigma_mm", "attenuation_per_mm", "bixel_width_mm",
                                   "leaf_width_mm", "cutoff_sigmas", "output_factor"])
def test_kernel_params_reject_a_non_finite_field(field, value):
    with pytest.raises(PhantomError, match="must be finite"):
        KernelParams(**{field: value})


@pytest.mark.parametrize("value", [1.5, 2.0, True])
@pytest.mark.parametrize("field", ["num_beams", "leaf_pairs", "bixels_per_row"])
def test_machine_model_takes_only_int_counts(field, value):
    with pytest.raises(PhantomError, match=f"{field} must be an int"):
        replace(make_machine(), **{field: value})


def test_machine_model_invariants():
    with pytest.raises(PhantomError):
        make_machine(B=1, N=1, J=1, rho=0.0)
    with pytest.raises(PhantomError):
        make_machine(B=1, N=1, J=1, tau=1.0)
    with pytest.raises(PhantomError):
        make_machine(B=1, N=1, J=1, dt=0.0)
    with pytest.raises(PhantomError):
        MachineModel(num_beams=2, leaf_pairs=1, bixels_per_row=1, traverse_time_s=1.0,
                     min_gap_fraction=0.5, transmission=0.0, dose_rate=1.0,
                     max_time_s=10.0, beam_angles_deg=(0.0,))
