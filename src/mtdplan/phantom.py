"""Synthetic voxel phantoms and a pencil-beam dose influence matrix.

A phantom is a regular voxel grid carrying named regions of interest
(ROIs).  Each ROI stores the voxels it occupies together with strictly
positive relative-volume weights that sum to one, so volume-weighted
dose statistics are well defined even for partial-volume regions.

The dose influence matrix maps bixel fluence weights to voxel dose.  It
is a separable pencil-beam model: a Gaussian lateral profile around each
bixel ray combined with exponential depth attenuation.  Any nonnegative
linear map would serve the downstream optimization equally well; this
one is cheap, smooth and deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import PhantomError

# Subdivision per axis when estimating the overlap fraction between a
# voxel and an analytic shape (4**3 = 64 sample points per voxel).
_OVERLAP_SUBDIV = 4


@dataclass(frozen=True)
class ROI:
    """A named voxel subset with normalized relative-volume weights.

    Parameters
    ----------
    name : str
        Unique ROI name within a phantom.
    kind : str
        One of ``"target"``, ``"oar"`` or ``"ring"``.
    voxels : ndarray of int
        Flat voxel indices (C order) belonging to the ROI, no duplicates.
    weights : ndarray of float
        Relative volume per listed voxel; strictly positive, sums to 1.
    volume_cc : float
        Absolute ROI volume in cubic centimetres (used to convert
        volume criteria given in cc into fractions).
    """

    name: str
    kind: str
    voxels: np.ndarray
    weights: np.ndarray
    volume_cc: float = 0.0

    def __post_init__(self):
        voxels = np.asarray(self.voxels, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "voxels", voxels)
        object.__setattr__(self, "weights", weights)
        if voxels.size == 0:
            raise PhantomError(f"ROI {self.name!r} is empty")
        if voxels.size != np.unique(voxels).size:
            raise PhantomError(f"ROI {self.name!r} has duplicate voxels")
        if weights.shape != voxels.shape:
            raise PhantomError(f"ROI {self.name!r}: weights/voxels length mismatch")
        if np.any(weights <= 0.0):
            raise PhantomError(f"ROI {self.name!r} has non-positive weights")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise PhantomError(f"ROI {self.name!r}: weights sum to {weights.sum()!r}, not 1")

    @staticmethod
    def from_raw_volumes(name: str, kind: str, voxels, raw_volumes) -> "ROI":
        """Build an ROI from raw (unnormalized) per-voxel overlap volumes in mm^3."""
        raw = np.asarray(raw_volumes, dtype=float)
        total = float(raw.sum())
        if total <= 0.0:
            raise PhantomError(f"ROI {name!r}: raw volumes sum to zero")
        return ROI(name=name, kind=kind, voxels=np.asarray(voxels, dtype=np.int64),
                   weights=raw / total, volume_cc=total / 1000.0)


@dataclass(frozen=True)
class Phantom:
    """Voxel grid plus ROIs.  Immutable after construction."""

    grid_dims: tuple[int, int, int]
    voxel_size_mm: tuple[float, float, float]
    rois: tuple[ROI, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.grid_dims)
        size = tuple(float(s) for s in self.voxel_size_mm)
        object.__setattr__(self, "grid_dims", dims)
        object.__setattr__(self, "voxel_size_mm", size)
        object.__setattr__(self, "rois", tuple(self.rois))
        if any(d <= 0 for d in dims):
            raise PhantomError(f"grid dims must be positive, got {dims}")
        if any(s <= 0 for s in size):
            raise PhantomError(f"voxel size must be positive, got {size}")
        names = [r.name for r in self.rois]
        if len(names) != len(set(names)):
            raise PhantomError("duplicate ROI names")
        n = self.num_voxels
        for roi in self.rois:
            if roi.voxels.min() < 0 or roi.voxels.max() >= n:
                raise PhantomError(f"ROI {roi.name!r} references voxels outside the grid")

    @property
    def num_voxels(self) -> int:
        nx, ny, nz = self.grid_dims
        return nx * ny * nz

    def roi(self, name: str) -> ROI:
        for roi in self.rois:
            if roi.name == name:
                return roi
        raise PhantomError(f"unknown ROI {name!r}")

    def has_roi(self, name: str) -> bool:
        return any(r.name == name for r in self.rois)

    def voxel_centers_mm(self) -> np.ndarray:
        """Centers of all voxels, shape (num_voxels, 3), C-order indexing."""
        return _voxel_centers(self.grid_dims, self.voxel_size_mm)

    def extent_mm(self) -> np.ndarray:
        return np.asarray(self.grid_dims, dtype=float) * np.asarray(self.voxel_size_mm, dtype=float)


@dataclass(frozen=True)
class MachineModel:
    """Beam/MLC geometry and delivery parameters.

    Symbols follow the sliding-window trajectory model: ``num_beams`` B,
    ``leaf_pairs`` N, ``bixels_per_row`` J, bixel traverse time
    ``traverse_time_s``, minimum-gap fraction ``min_gap_fraction`` in
    (0,1), leaf ``transmission`` in [0,1), constant ``dose_rate`` and
    total treatment time budget ``max_time_s``.
    """

    num_beams: int
    leaf_pairs: int
    bixels_per_row: int
    traverse_time_s: float
    min_gap_fraction: float
    transmission: float
    dose_rate: float
    max_time_s: float
    beam_angles_deg: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "beam_angles_deg", tuple(float(a) for a in self.beam_angles_deg))
        for name in ("num_beams", "leaf_pairs", "bixels_per_row"):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
                raise PhantomError(f"{name} must be an int")
        if self.num_beams <= 0 or self.leaf_pairs <= 0 or self.bixels_per_row <= 0:
            raise PhantomError("machine dimensions must be positive")
        if self.num_bixels > np.iinfo(np.intp).max:  # bounds each dimension too
            raise PhantomError(f"machine has {self.num_bixels} bixels, more than numpy can index")
        if len(self.beam_angles_deg) != self.num_beams:
            raise PhantomError("beam_angles_deg length must equal num_beams")
        if not np.isfinite(self.beam_angles_deg).all():
            raise PhantomError("beam_angles_deg must be finite")
        # Written so that NaN and inf fail.
        if not 0.0 < self.traverse_time_s < np.inf:
            raise PhantomError("traverse_time_s must be finite and > 0")
        if not (0.0 < self.min_gap_fraction < 1.0):
            raise PhantomError("min_gap_fraction must lie in (0, 1)")
        if not (0.0 <= self.transmission < 1.0):
            raise PhantomError("transmission must lie in [0, 1)")
        if not 0.0 < self.dose_rate < np.inf:
            raise PhantomError("dose_rate must be finite and > 0")
        if not 0.0 < self.max_time_s < np.inf:
            raise PhantomError("max_time_s must be finite and > 0")

    @property
    def num_bixels(self) -> int:
        return self.num_beams * self.leaf_pairs * self.bixels_per_row

    def bixel_index(self, b: int, n: int, j: int) -> int:
        """Flat column index of bixel (beam b, leaf pair n, position j)."""
        J = self.bixels_per_row
        return (b * self.leaf_pairs + n) * J + j


@dataclass(frozen=True)
class KernelParams:
    """Pencil-beam kernel and fluence-grid geometry."""

    lateral_sigma_mm: float = 3.0
    attenuation_per_mm: float = 0.005
    bixel_width_mm: float = 5.0
    leaf_width_mm: float = 10.0
    cutoff_sigmas: float = 3.0
    output_factor: float = 1.0

    def __post_init__(self):
        # Written so that NaN and inf fail.
        if not 0.0 < self.lateral_sigma_mm < np.inf:
            raise PhantomError("lateral_sigma_mm must be finite and > 0")
        if not 0.0 <= self.attenuation_per_mm < np.inf:
            raise PhantomError("attenuation_per_mm must be finite and >= 0")
        if not (0.0 < self.bixel_width_mm < np.inf and 0.0 < self.leaf_width_mm < np.inf):
            raise PhantomError("bixel/leaf widths must be finite and > 0")
        if not 0.0 < self.cutoff_sigmas < np.inf:
            raise PhantomError("cutoff_sigmas must be finite and > 0")
        if not 0.0 < self.output_factor < np.inf:
            raise PhantomError("output_factor must be finite and > 0")


@dataclass(frozen=True)
class DoseInfluence:
    """Sparse nonnegative dose deposition matrix (voxels x bixels).

    ``matrix`` is CSC, as :func:`compute_dose_influence` builds it column by
    column; the dose of a fluence vector is ``matrix @ w``, each voxel's sum
    taken in bixel order as its CSR row would take it.  The LP reads only the
    rows of ROI voxels, ``roi_voxels`` (kept sorted, without repeats).  Their
    CSR, ``roi_rows``, is formed once, here, and :meth:`rows` slices it; each
    row is the same, byte for byte, as that row of the whole matrix's CSR.
    """

    matrix: sp.csc_matrix
    roi_voxels: np.ndarray
    num_beams: int
    leaf_pairs: int
    bixels_per_row: int
    roi_rows: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        matrix = sp.csc_matrix(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        roi_voxels = np.unique(np.asarray(self.roi_voxels, dtype=np.int64))
        object.__setattr__(self, "roi_voxels", roi_voxels)
        object.__setattr__(self, "roi_rows", matrix[roi_voxels].tocsr())

    def rows(self, voxels: np.ndarray) -> sp.csr_matrix:
        """The CSR rows of ``voxels``, in their order; each must be in ``roi_voxels``."""
        voxels = np.asarray(voxels, dtype=np.int64)
        at = np.searchsorted(self.roi_voxels, voxels)
        inside = at < self.roi_voxels.size
        inside[inside] = self.roi_voxels[at[inside]] == voxels[inside]
        if not inside.all():
            raise PhantomError(f"voxel {int(voxels[~inside][0])} lies in no ROI: "
                               "the dose influence keeps rows of ROI voxels only")
        return self.roi_rows[at]

    def per_beam_row_sums(self, rows: np.ndarray) -> sp.csr_matrix:
        """Matrix of per-beam row sums of the voxels ``rows``, shape (len(rows), num_beams).

        Column b equals the sum of all bixel columns of beam b; this is
        the dose response to one extra second of beam-on time per unit
        transmission-scaled dose rate.  Column indices are sorted within
        each row (the sparse product alone leaves them unsorted).  Each
        row is summed from its own entries alone, so a row is the same,
        byte for byte, whichever other rows are asked for with it.
        """
        per_beam = self.leaf_pairs * self.bixels_per_row
        rep = sp.csr_matrix(
            (np.ones(self.matrix.shape[1]),
             (np.arange(self.matrix.shape[1]),
              np.repeat(np.arange(self.num_beams), per_beam))),
            shape=(self.matrix.shape[1], self.num_beams),
        )
        return (self.rows(rows) @ rep).tocsr().sorted_indices()


# ---------------------------------------------------------------------------
# Phantom construction


@dataclass(frozen=True)
class RoiShapeSpec:
    """Analytic ROI shape; only the fields of the active kind are set.

    ``kind_of_shape`` is one of ``"sphere"``, ``"box"``, ``"shell"`` or
    ``"ring"``.  Rings are voxel shells at a distance band (in mm) from
    an existing target ROI; the other shapes are absolute geometry.
    """

    kind_of_shape: str
    center_mm: tuple[float, float, float] | None = None
    radius_mm: float | None = None
    size_mm: tuple[float, float, float] | None = None
    inner_radius_mm: float | None = None
    outer_radius_mm: float | None = None
    around: str | None = None
    inner_mm: float | None = None
    outer_mm: float | None = None

    def __post_init__(self):
        # Written so that NaN fails.  A zero radius or size is the degenerate
        # one-voxel shape that the sub-sample floor of _voxelize_shape keeps.
        kind = self.kind_of_shape
        if kind == "sphere" and not self.radius_mm >= 0.0:
            raise PhantomError("sphere requires radius_mm >= 0")
        if kind == "box" and not all(s >= 0.0 for s in self.size_mm):
            raise PhantomError("box requires size_mm >= 0")
        if kind == "shell" and not 0.0 <= self.inner_radius_mm < self.outer_radius_mm:
            raise PhantomError("shell requires 0 <= inner_radius_mm < outer_radius_mm")
        if kind == "ring" and not 0.0 <= self.inner_mm < self.outer_mm:
            raise PhantomError("ring requires 0 <= inner_mm < outer_mm")


@dataclass(frozen=True)
class RoiSpec:
    name: str
    kind: str
    shape: RoiShapeSpec


@dataclass(frozen=True)
class PhantomSpec:
    grid_dims: tuple[int, int, int]
    voxel_size_mm: tuple[float, float, float]
    rois: tuple[RoiSpec, ...]


def _voxel_centers(grid_dims, voxel_size_mm) -> np.ndarray:
    """Centers of all voxels of a grid, shape (num_voxels, 3), C-order indexing."""
    ix, iy, iz = np.meshgrid(*(np.arange(n) for n in grid_dims), indexing="ij")
    return np.stack([(i.ravel() + 0.5) * s for i, s in zip((ix, iy, iz), voxel_size_mm)], axis=1)


def _subsample_offsets(voxel_size: np.ndarray) -> np.ndarray:
    """Regular sub-voxel sample offsets relative to the voxel center."""
    k = _OVERLAP_SUBDIV
    t = (np.arange(k) + 0.5) / k - 0.5
    ox, oy, oz = np.meshgrid(t * voxel_size[0], t * voxel_size[1], t * voxel_size[2], indexing="ij")
    return np.stack([ox.ravel(), oy.ravel(), oz.ravel()], axis=1)


def _shape_membership(shape: RoiShapeSpec, points: np.ndarray) -> np.ndarray:
    """Boolean membership of points (N,3) in an absolute shape."""
    if shape.kind_of_shape == "sphere":
        c = np.asarray(shape.center_mm, dtype=float)
        d2 = np.sum((points - c) ** 2, axis=1)
        return d2 <= float(shape.radius_mm) ** 2
    if shape.kind_of_shape == "box":
        c = np.asarray(shape.center_mm, dtype=float)
        half = np.asarray(shape.size_mm, dtype=float) / 2.0
        return np.all(np.abs(points - c) <= half, axis=1)
    if shape.kind_of_shape == "shell":
        c = np.asarray(shape.center_mm, dtype=float)
        d = np.sqrt(np.sum((points - c) ** 2, axis=1))
        return (d > float(shape.inner_radius_mm)) & (d <= float(shape.outer_radius_mm))
    raise PhantomError(f"unknown shape kind {shape.kind_of_shape!r}")


def _voxelize_shape(centers: np.ndarray, voxel_size, shape: RoiShapeSpec):
    """Return (voxel indices, raw overlap volumes in mm^3) for a shape.

    ``centers`` are the grid's voxel centers (:func:`_voxel_centers`).
    Membership is decided by the voxel center (keeps e.g. a sphere and
    the shell around it disjoint); the overlap fraction of each member
    voxel is estimated on a regular sub-voxel grid and floored at half a
    sample so degenerate shapes keep positive weight.
    """
    vsize = np.asarray(voxel_size, dtype=float)
    member = _shape_membership(shape, centers)
    idx = np.flatnonzero(member)
    if idx.size == 0:
        return idx, np.empty(0)

    offsets = _subsample_offsets(vsize)
    n_sub = offsets.shape[0]
    points = (centers[idx, None, :] + offsets).reshape(-1, 3)
    inside = _shape_membership(shape, points).reshape(idx.size, n_sub)
    frac = np.maximum(np.count_nonzero(inside, axis=1) / n_sub, 0.5 / n_sub)
    voxel_volume = float(np.prod(vsize))
    return idx, frac * voxel_volume


def _voxelize_ring(phantom_dims, voxel_size, shape: RoiShapeSpec, target: ROI):
    """Voxels whose center lies within (inner, outer] mm of the target set.

    The distance is the exact Euclidean distance between voxel centers,
    computed over the target's bounding box padded by ``outer_mm`` (no
    voxel outside it is within reach).  After the pass along an axis,
    ``d2`` is the squared distance to the nearest target voxel over the
    axes passed so far, ``d2[i] = min_k d2[k] + ((i-k) s)^2``.  Offsets
    ``|i-k|`` beyond the padding are skipped: a target voxel that far off
    along one axis is farther than ``outer_mm``.  The axis terms are
    summed x, then y, then z, as ``scipy.ndimage``'s exact distance
    transform sums them, so the band holds the same voxels.
    """
    dims = tuple(int(d) for d in phantom_dims)
    vsize = np.asarray(voxel_size, dtype=float)
    coords = np.unravel_index(target.voxels, dims)
    pad = np.minimum(np.floor(float(shape.outer_mm) / vsize) + 1.0, dims).astype(np.int64)
    lo = np.maximum(np.min(coords, axis=1) - pad, 0)
    hi = np.minimum(np.max(coords, axis=1) + 1 + pad, dims)
    d2 = np.full(tuple(hi - lo), np.inf)
    d2[tuple(c - o for c, o in zip(coords, lo))] = 0.0
    for axis, (s, reach) in enumerate(zip(vsize, pad)):
        d2 = np.moveaxis(d2, axis, 0)
        out = d2.copy()
        for shift in range(1, min(reach, d2.shape[0] - 1) + 1):
            term = (shift * s) * (shift * s)
            np.minimum(out[shift:], d2[:-shift] + term, out=out[shift:])
            np.minimum(out[:-shift], d2[shift:] + term, out=out[:-shift])
        d2 = np.moveaxis(out, 0, axis)
    dist = np.sqrt(d2)
    band = np.zeros(dims, dtype=bool)
    band[tuple(slice(a, b) for a, b in zip(lo, hi))] = ((dist > float(shape.inner_mm))
                                                        & (dist <= float(shape.outer_mm)))
    idx = np.flatnonzero(band)
    return idx, np.full(idx.size, float(np.prod(vsize)))


def build_phantom(spec: PhantomSpec) -> Phantom:
    """Voxelize a phantom spec into a :class:`Phantom`.

    Rings are generated after all other ROIs so they can reference a
    target by name.  Raises :class:`PhantomError` when an ROI voxelizes
    to the empty set or (through :class:`Phantom`) when names collide.
    """
    dims = tuple(int(d) for d in spec.grid_dims)
    vsize = tuple(float(s) for s in spec.voxel_size_mm)
    if any(d <= 0 for d in dims):
        raise PhantomError(f"grid dims must be positive, got {dims}")

    centers = _voxel_centers(dims, vsize)
    rois: dict[str, ROI] = {}
    rings: list[RoiSpec] = []
    for roi_spec in spec.rois:
        if roi_spec.shape.kind_of_shape == "ring":
            rings.append(roi_spec)
            continue
        idx, raw = _voxelize_shape(centers, vsize, roi_spec.shape)
        if idx.size == 0:
            raise PhantomError(f"ROI {roi_spec.name!r} is empty after voxelization")
        rois[roi_spec.name] = ROI.from_raw_volumes(roi_spec.name, roi_spec.kind, idx, raw)

    for roi_spec in rings:
        around = roi_spec.shape.around
        if around not in rois:
            raise PhantomError(f"ring {roi_spec.name!r} references unknown ROI {around!r}")
        idx, raw = _voxelize_ring(dims, vsize, roi_spec.shape, rois[around])
        if idx.size == 0:
            raise PhantomError(f"ROI {roi_spec.name!r} is empty after voxelization")
        rois[roi_spec.name] = ROI.from_raw_volumes(roi_spec.name, roi_spec.kind, idx, raw)

    ordered = tuple(rois[roi_spec.name] for roi_spec in spec.rois)
    return Phantom(grid_dims=dims, voxel_size_mm=vsize, rois=ordered)


def roi_weight_vector(phantom: Phantom, roi_name: str) -> np.ndarray:
    """Dense relative-volume vector over all voxels; zero outside the ROI."""
    roi = phantom.roi(roi_name)
    w = np.zeros(phantom.num_voxels)
    w[roi.voxels] = roi.weights
    return w


# ---------------------------------------------------------------------------
# Dose influence


def compute_dose_influence(phantom: Phantom, machine: MachineModel, kernel: KernelParams) -> DoseInfluence:
    """Pencil-beam dose influence matrix for a phantom/machine pair.

    Each column holds the dose response of one bixel: a Gaussian lateral
    profile of the configured sigma around the bixel ray, attenuated
    exponentially with depth along the beam direction.  Beams are
    parallel, lie in the x-y plane at the configured gantry angles and
    share an isocenter at the grid center; leaf rows are stacked along
    z.  The result depends only on geometry and kernel parameters, never
    on transmission or dose rate, and is bitwise deterministic.  It is
    kept as the CSC matrix the loop builds, column by column, together
    with the CSR of the ROI rows (see :class:`DoseInfluence`).

    A beam's axes have z component exactly 0.0, so a voxel's depth and
    transverse coordinate are its (x, y) cell's, whatever its slice.  Each
    bixel takes the squared transverse distance ``dt2`` once per cell and
    visits only the cells with ``dt2 <= cutoff**2``; each leaf row takes
    ``dz2`` once per slice and visits only the slices with ``dz2 <=
    cutoff**2``.  The pruning is exact: in floating point ``dt2 + dz2`` is
    at least ``dt2`` and at least ``dz2``, so no voxel left out could pass
    the mask ``dt2 + dz2 <= cutoff**2``, and the matrix is the same, byte
    for byte, as masking the whole grid.
    """
    nx, ny, nz = phantom.grid_dims
    grid_center = phantom.extent_mm() / 2.0
    # Voxel centers relative to the grid center: one row per (x, y) cell, at its first
    # slice, and the slices' z.  Voxel indices run z fastest, so cell c holds voxels
    # c*nz to c*nz + nz - 1.
    cell_rel = _voxel_centers((nx, ny, 1), phantom.voxel_size_mm) - grid_center
    slice_z = _voxel_centers((1, 1, nz), phantom.voxel_size_mm)[:, 2] - grid_center[2]

    B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
    t_off = (np.arange(J) - (J - 1) / 2.0) * kernel.bixel_width_mm
    z_off = (np.arange(N) - (N - 1) / 2.0) * kernel.leaf_width_mm
    cutoff2 = (kernel.cutoff_sigmas * kernel.lateral_sigma_mm) ** 2
    inv_two_sigma2 = 1.0 / (2.0 * kernel.lateral_sigma_mm ** 2)

    # Half-diagonal bounds the entry-plane offset for any beam angle.
    half_diag = float(np.linalg.norm(phantom.extent_mm()) / 2.0)

    # Columns arrive in bixel_index order, so the CSC arrays are built directly.
    rows: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    counts = np.zeros(machine.num_bixels, dtype=np.int64)
    for b, angle in enumerate(machine.beam_angles_deg):
        theta = np.deg2rad(angle)
        direction = np.array([np.cos(theta), np.sin(theta), 0.0])
        transverse = np.array([-np.sin(theta), np.cos(theta), 0.0])
        depth = cell_rel @ direction + half_diag
        atten = np.repeat(kernel.output_factor * np.exp(-kernel.attenuation_per_mm * depth), nz)
        cell_t = cell_rel @ transverse
        reach = []   # per bixel position: first voxel and dt2 of each cell within the cutoff
        for offset in t_off:
            dt2 = (cell_t - offset) ** 2
            cells = np.flatnonzero(dt2 <= cutoff2)
            reach.append((cells[:, None] * nz, dt2[cells][:, None]))
        for n in range(N):
            dz2 = (slice_z - z_off[n]) ** 2
            slices = np.flatnonzero(dz2 <= cutoff2)   # the slices this leaf row can reach
            dz2 = dz2[slices]
            for j, (first, dt2) in enumerate(reach):
                lat2 = dt2 + dz2
                mask = lat2 <= cutoff2
                hit = (first + slices)[mask]   # ascending voxel indices, cells x slices
                rows.append(hit)
                vals.append(atten[hit] * np.exp(-lat2[mask] * inv_two_sigma2))
                counts[machine.bixel_index(b, n, j)] = hit.size

    beam_nnz = counts.reshape(B, N * J).sum(axis=1)
    for b in range(B):
        if beam_nnz[b] == 0:
            raise PhantomError(f"beam {b} misses the phantom grid entirely")

    indptr = np.concatenate([[0], np.cumsum(counts)])
    matrix = sp.csc_matrix((np.concatenate(vals), np.concatenate(rows), indptr),
                           shape=(phantom.num_voxels, machine.num_bixels))
    roi_voxels = np.concatenate([roi.voxels for roi in phantom.rois] + [np.zeros(0, np.int64)])
    return DoseInfluence(matrix=matrix, roi_voxels=roi_voxels, num_beams=B, leaf_pairs=N,
                         bixels_per_row=J)


def influence_content_hash(phantom: Phantom, machine: MachineModel, kernel: KernelParams) -> str:
    """Content hash of everything :func:`compute_dose_influence` depends on."""
    h = hashlib.sha256()
    payload = {
        "grid_dims": list(phantom.grid_dims),
        "voxel_size_mm": list(phantom.voxel_size_mm),
        "beams": machine.num_beams,
        "leaf_pairs": machine.leaf_pairs,
        "bixels_per_row": machine.bixels_per_row,
        "angles": list(machine.beam_angles_deg),
        "kernel": [kernel.lateral_sigma_mm, kernel.attenuation_per_mm,
                   kernel.bixel_width_mm, kernel.leaf_width_mm,
                   kernel.cutoff_sigmas, kernel.output_factor],
    }
    h.update(json.dumps(payload, sort_keys=True).encode())
    for roi in phantom.rois:
        h.update(roi.name.encode())
        h.update(roi.voxels.tobytes())
        h.update(roi.weights.tobytes())
    return h.hexdigest()

