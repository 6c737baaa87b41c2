"""Shared builders for tiny phantoms, machines and random LP instances."""

import json

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from mtdplan.case import case_from_dict, read_case_text
from mtdplan.dmlc import ConstraintBlock, num_trajectory_variables
from mtdplan.formulation import (A21Factors, BlockLP, Criterion, CriterionColumns, CriterionSet,
                                 build_weighted_instance, normalized_weights)
from mtdplan.phantom import DoseInfluence, KernelParams, MachineModel, Phantom, ROI


def make_machine(B=1, N=1, J=1, dt=1.0, rho=0.5, tau=0.0, rate=1.0, t_max=100.0, angles=None):
    if angles is None:
        angles = tuple(360.0 * b / B for b in range(B))
    return MachineModel(num_beams=B, leaf_pairs=N, bixels_per_row=J,
                        traverse_time_s=dt, min_gap_fraction=rho, transmission=tau,
                        dose_rate=rate, max_time_s=t_max, beam_angles_deg=angles)


def line_phantom(rois):
    """1-D phantom with explicitly listed ROIs: {name: (kind, voxels, weights)}."""
    num = 1 + max(int(np.max(r[1])) for r in rois.values())
    roi_objs = [ROI(name=name, kind=kind, voxels=np.asarray(vox, dtype=np.int64),
                    weights=np.asarray(wts, dtype=float),
                    volume_cc=0.125 * len(vox))
                for name, (kind, vox, wts) in rois.items()]
    return Phantom(grid_dims=(num, 1, 1), voxel_size_mm=(5.0, 5.0, 5.0), rois=tuple(roi_objs))


def influence_from_dense(dense, machine):
    """A dense influence as :class:`DoseInfluence`: its CSC, with every voxel an ROI voxel."""
    matrix = sp.csc_matrix(np.asarray(dense, dtype=float))
    return DoseInfluence(matrix=matrix, roi_voxels=np.arange(matrix.shape[0]),
                         num_beams=machine.num_beams, leaf_pairs=machine.leaf_pairs,
                         bixels_per_row=machine.bixels_per_row)


def reference_dose_influence(phantom: Phantom, machine: MachineModel,
                             kernel: KernelParams) -> sp.csc_matrix:
    """Per-bixel loop reference for ``phantom.compute_dose_influence``'s CSC matrix.

    Each leaf row takes every voxel of the grid within the cutoff in z, and
    each bixel masks those by its full lateral distance.
    """
    centers = phantom.voxel_centers_mm()
    rel = centers - phantom.extent_mm() / 2.0
    B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
    t_off = (np.arange(J) - (J - 1) / 2.0) * kernel.bixel_width_mm
    z_off = (np.arange(N) - (N - 1) / 2.0) * kernel.leaf_width_mm
    cutoff2 = (kernel.cutoff_sigmas * kernel.lateral_sigma_mm) ** 2
    inv_two_sigma2 = 1.0 / (2.0 * kernel.lateral_sigma_mm ** 2)
    half_diag = float(np.linalg.norm(phantom.extent_mm()) / 2.0)
    rows, vals = [], []
    counts = np.zeros(machine.num_bixels, dtype=np.int64)
    for b, angle in enumerate(machine.beam_angles_deg):
        theta = np.deg2rad(angle)
        depth = rel @ np.array([np.cos(theta), np.sin(theta), 0.0]) + half_diag
        proj_t = rel @ np.array([-np.sin(theta), np.cos(theta), 0.0])
        atten = kernel.output_factor * np.exp(-kernel.attenuation_per_mm * depth)
        for n in range(N):
            dz2 = (rel[:, 2] - z_off[n]) ** 2
            near = np.flatnonzero(dz2 <= cutoff2)
            dz2, t_near, atten_near = dz2[near], proj_t[near], atten[near]
            for j in range(J):
                lat2 = (t_near - t_off[j]) ** 2 + dz2
                mask = lat2 <= cutoff2
                rows.append(near[mask])
                vals.append(atten_near[mask] * np.exp(-lat2[mask] * inv_two_sigma2))
                counts[machine.bixel_index(b, n, j)] = mask.sum()
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csc_matrix((np.concatenate(vals), np.concatenate(rows), indptr),
                         shape=(phantom.num_voxels, machine.num_bixels))


def toy_dav_instance(num_voxels=2, volume=0.5, weights=(1.0,), hard_upper=None,
                     utopian_lower=None, machine=None, ctype="dav-min"):
    """Smallest meaningful instance: one criterion over a tiny line phantom."""
    machine = machine or make_machine(B=1, N=1, J=1, dt=1.0, rho=0.25, tau=0.0, t_max=50.0)
    vox = np.arange(num_voxels)
    phantom = line_phantom({"roi": ("target", vox, np.full(num_voxels, 1.0 / num_voxels))})
    rng = np.random.default_rng(7)
    dense = 0.5 + rng.random((num_voxels, machine.num_bixels))
    influence = influence_from_dense(dense, machine)
    criteria = CriterionSet([Criterion(roi="roi", ctype=ctype, volume=volume,
                                       hard_upper=hard_upper, utopian_lower=utopian_lower,
                                       objective=0, name="toy")])
    lp = build_weighted_instance(phantom, machine, influence, criteria, np.asarray(weights),
                                 name="toy")
    return phantom, machine, influence, criteria, lp


def demo_variant(name):
    """The demo case (``demo``), with ``ptv_dav50_floor`` at 66 Gy (``floor66``, infeasible),
    or refined to 2.5 mm voxels with a 5 mm kernel sigma (``refined``, 8x the voxels)."""
    doc = json.loads(read_case_text("demo:prostate_demo"))
    if name == "floor66":
        next(c for c in doc["criteria"] if c["name"] == "ptv_dav50_floor")["hard_lower"] = 66.0
    elif name == "refined":
        doc["phantom"]["grid_dims"] = [48, 48, 24]
        doc["phantom"]["voxel_size_mm"] = [2.5, 2.5, 2.5]
        doc["kernel"]["lateral_sigma_mm"] = 5.0
    return case_from_dict(doc, name)


def balanced_lp(case):
    """The case's LP at balanced weights."""
    slots = case.criteria.num_slots
    return build_weighted_instance(case.phantom, case.machine, case.dose_influence(),
                                   case.criteria, np.full(slots, 1.0 / slots), name=case.name)


def linprog_reference(lp: BlockLP):
    """HiGHS solution of the same LP; returns the scipy OptimizeResult."""
    A = lp.matrix()
    bounds = [(float(lo), float(up) if np.isfinite(up) else None)
              for lo, up in zip(lp.lower, lp.upper)]
    return linprog(c=lp.objective_vector, A_ub=(-A).tocsc(), b_ub=-lp.rhs(),
                   bounds=bounds, method="highs")


_CTYPE_CYCLE = ("dav-min", "dav-max", "max", "min", "avg-min", "avg-max")


def random_block_instance(seed, max_voxels=50, max_bixels=20):
    """Random small planning LP with a mixed bag of criterion types.

    Bounds are calibrated against the dose achievable at maximum
    exposure so most draws are feasible; infeasible draws are still
    returned (the reference solver arbitrates).
    """
    rng = np.random.default_rng(seed)
    B = int(rng.integers(1, 3))
    N = int(rng.integers(1, 3))
    J = int(rng.integers(2, 1 + max(2, max_bixels // (B * N))))
    J = max(2, min(J, max_bixels // (B * N)))
    machine = make_machine(B=B, N=N, J=J,
                           dt=float(rng.uniform(0.2, 1.0)),
                           rho=float(rng.uniform(0.1, 0.7)),
                           tau=float(rng.choice([0.0, rng.uniform(0.005, 0.08)])),
                           rate=float(rng.uniform(0.5, 2.0)),
                           t_max=float(rng.uniform(30.0, 120.0)))
    nv = int(rng.integers(4, max_voxels + 1))
    dense = rng.random((nv, machine.num_bixels)) * (rng.random((nv, machine.num_bixels)) < 0.7)
    dense[0] += 0.2  # keep the matrix from being all zero
    influence_scale = float(rng.uniform(0.05, 0.3))
    dense *= influence_scale
    influence = None  # assembled after the phantom below

    half = max(2, nv // 2)
    w_a = rng.random(half) + 0.1
    w_b = rng.random(nv - half + 1) + 0.1
    phantom = line_phantom({
        "a": ("target", np.arange(half), w_a / w_a.sum()),
        "b": ("oar", np.arange(half - 1, nv), w_b / w_b.sum()),
    })
    influence = influence_from_dense(dense, machine)

    # Rough dose scale at a "typical" exposure to place bounds sensibly.
    typical_exposure = 0.3 * machine.max_time_s / machine.num_beams
    typical = dense.sum(axis=1) * machine.dose_rate * typical_exposure
    hi_scale = float(np.percentile(typical, 80)) + 1.0

    n_criteria = int(rng.integers(2, 5))
    types = list(rng.permutation(_CTYPE_CYCLE))[:n_criteria]
    criteria = []
    slot = 0
    for i, ctype in enumerate(types):
        roi = "a" if rng.random() < 0.6 else "b"
        volume = float(rng.uniform(0.15, 0.85)) if ctype in ("dav-min", "dav-max") else None
        in_objective = slot == 0 or rng.random() < 0.7
        kwargs = dict(roi=roi, ctype=ctype, volume=volume, name=f"c{i}",
                      objective=slot if in_objective else None)
        if ctype in ("dav-min", "max", "avg-min"):
            kwargs["hard_upper"] = float(rng.uniform(0.8, 2.5)) * hi_scale
            if rng.random() < 0.4:
                kwargs["utopian_lower"] = float(rng.uniform(0.0, 0.1)) * hi_scale
        else:
            kwargs["hard_lower"] = float(rng.uniform(0.02, 0.25)) * hi_scale
            if rng.random() < 0.4:
                kwargs["utopian_upper"] = float(rng.uniform(1.5, 3.0)) * hi_scale
        criteria.append(Criterion(**kwargs))
        if in_objective:
            slot += 1
    criterion_set = CriterionSet(criteria)
    weights = rng.random(criterion_set.num_slots) + 0.05
    weights = weights / weights.sum()
    lp = build_weighted_instance(phantom, machine, influence, criterion_set, weights,
                                 name=f"random-{seed}")
    return phantom, machine, influence, criterion_set, lp


def reference_deliverability_constraints(machine: MachineModel) -> ConstraintBlock:
    """Row-by-row loop reference for ``dmlc.build_deliverability_constraints``."""
    B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
    dt = machine.traverse_time_s
    rho = machine.min_gap_fraction
    nb = B * N * J

    def l_col(b, n, j):
        return (b * N + n) * J + j

    def r_col(b, n, j):
        return nb + (b * N + n) * J + j

    rows, cols, vals, rhs, labels = [], [], [], [], []

    def add_row(entries, bound, label):
        i = len(rhs)
        for col, val in entries:
            rows.append(i)
            cols.append(col)
            vals.append(val)
        rhs.append(bound)
        labels.append(label)

    for b in range(B):
        for n in range(N):
            for j in range(J - 1):
                add_row([(r_col(b, n, j + 1), 1.0), (r_col(b, n, j), -1.0)], dt,
                        ("r-order", b, n, j))
            for j in range(J - 1):
                add_row([(l_col(b, n, j + 1), 1.0), (l_col(b, n, j), -1.0)], dt,
                        ("l-order", b, n, j))
            for j in range(J - 1):
                add_row([(l_col(b, n, j), 1.0), (r_col(b, n, j + 1), -1.0)],
                        -(1.0 - rho) * dt, ("min-gap", b, n, j))
            add_row([(l_col(b, n, 0), 1.0), (r_col(b, n, 0), -1.0)], rho * dt,
                    ("first-gap", b, n, 0))
            add_row([(2 * nb + b, 1.0), (l_col(b, n, J - 1), -1.0)], dt,
                    ("beam-on", b, n, J - 1))
    for b in range(B):
        for n in range(N):
            add_row([(r_col(b, n, 0), 1.0)], 0.0, ("park", b, n, 0))
    add_row([(2 * nb + b, -1.0) for b in range(B)], -machine.max_time_s,
            ("total-time", -1, -1, -1))

    matrix = sp.csr_matrix((vals, (rows, cols)),
                           shape=(len(rhs), num_trajectory_variables(machine)))
    return ConstraintBlock(matrix=matrix, rhs=np.asarray(rhs), labels=tuple(labels))


def reference_weighted_instance(phantom, machine, influence, criteria, weights, name=""):
    """Per-voxel loop reference for ``formulation.build_weighted_instance``.

    Builds every row from triplet lists, one ``P.getrow`` per voxel, and
    sums the average rows in voxel order through a dict; the sparse
    builder must reproduce its blocks bit for bit.
    """
    w = normalized_weights(weights, criteria.num_slots)
    deliv = reference_deliverability_constraints(machine)
    n_traj = num_trajectory_variables(machine)
    K = len(criteria)

    xi_cols = [n_traj + k for k in range(K)]
    alpha_cols = []
    next_col = n_traj + K
    for criterion in criteria:
        if criterion.is_dav:
            alpha_cols.append(next_col)
            next_col += 1
        else:
            alpha_cols.append(None)
    n1 = next_col

    eta_slices = []
    eta_start = n1
    for criterion in criteria:
        if criterion.is_dav:
            size = phantom.roi(criterion.roi).voxels.size
            eta_slices.append(slice(eta_start, eta_start + size))
            eta_start += size
        else:
            eta_slices.append(None)
    n2 = eta_start - n1

    rate, tau = machine.dose_rate, machine.transmission
    open_scale = rate * (1.0 - tau)
    leak_scale = rate * tau
    P = influence.matrix.tocsr()   # the whole matrix's rows, not the influence's ROI rows
    nb = machine.num_bixels

    def dose_row_entries(voxel, sign):
        entries = []
        row = P.getrow(voxel)
        for col, val in zip(row.indices, row.data):
            entries.append((col, sign * open_scale * val))
            entries.append((nb + col, -sign * open_scale * val))
        if leak_scale != 0.0:
            beam_row = influence.per_beam_row_sums([voxel])
            for bcol, val in zip(beam_row.indices, beam_row.data):
                entries.append((2 * nb + bcol, sign * leak_scale * val))
        return entries

    deliv_coo = deliv.matrix.tocoo()
    r1_rows = deliv_coo.row.tolist()
    r1_cols = deliv_coo.col.tolist()
    r1_vals = deliv_coo.data.tolist()
    b1 = list(deliv.rhs)
    labels1 = [f"{kind}[{b},{n},{j}]" for kind, b, n, j in deliv.labels]
    a12_rows, a12_cols, a12_vals = [], [], []

    def add_row1(entries_x1, entries_eta, bound, label):
        i = len(b1)
        for col, val in entries_x1:
            r1_rows.append(i)
            r1_cols.append(col)
            r1_vals.append(val)
        for col, val in entries_eta:
            a12_rows.append(i)
            a12_cols.append(col - n1)
            a12_vals.append(val)
        b1.append(bound)
        labels1.append(label)

    for k, criterion in enumerate(criteria):
        roi = phantom.roi(criterion.roi)
        if criterion.is_dav:
            inv_v = 1.0 / (criterion.volume if criterion.ctype == "dav-min"
                           else 1.0 - criterion.volume)
            pair = ([(xi_cols[k], 1.0), (alpha_cols[k], -1.0)] if criterion.ctype == "dav-min"
                    else [(alpha_cols[k], 1.0), (xi_cols[k], -1.0)])
            add_row1(pair,
                     [(eta_slices[k].start + i, -inv_v * dw) for i, dw in enumerate(roi.weights)],
                     0.0, f"tail-agg[{k}]")
        elif criterion.ctype in ("avg-min", "avg-max"):
            sign = -1.0 if criterion.ctype == "avg-min" else 1.0
            entries = [(xi_cols[k], -sign)]
            acc = {}
            for voxel, dw in zip(roi.voxels, roi.weights):
                for col, val in dose_row_entries(int(voxel), sign * dw):
                    acc[col] = acc.get(col, 0.0) + val
            entries.extend(acc.items())
            label = "avg-cap" if criterion.ctype == "avg-min" else "avg-floor"
            add_row1(entries, [], 0.0, f"{label}[{k}]")

    m1 = len(b1)
    a11 = sp.csr_matrix((r1_vals, (r1_rows, r1_cols)), shape=(m1, n1))
    a12 = sp.csr_matrix((a12_vals, (a12_rows, a12_cols)), shape=(m1, n2))

    r2_rows, r2_cols, r2_vals = [], [], []
    b2 = []
    voxel_row_slices = [None] * K

    def add_row2(entries_x1, bound):
        i = len(b2)
        for col, val in entries_x1:
            r2_rows.append(i)
            r2_cols.append(col)
            r2_vals.append(val)
        b2.append(bound)

    for k, criterion in enumerate(criteria):
        if criterion.ctype not in ("max", "min"):
            continue
        roi = phantom.roi(criterion.roi)
        start = len(b2)
        sign = -1.0 if criterion.ctype == "max" else 1.0
        for voxel in roi.voxels:
            add_row2([(xi_cols[k], -sign)] + dose_row_entries(int(voxel), sign), 0.0)
        voxel_row_slices[k] = slice(start, len(b2))
    num_zero_rows = len(b2)

    for k, criterion in enumerate(criteria):
        if not criterion.is_dav:
            continue
        roi = phantom.roi(criterion.roi)
        start = len(b2)
        sign = -1.0 if criterion.ctype == "dav-min" else 1.0
        for voxel in roi.voxels:
            add_row2([(alpha_cols[k], -sign)] + dose_row_entries(int(voxel), sign), 0.0)
        voxel_row_slices[k] = slice(start, len(b2))

    m2 = len(b2)
    a21 = sp.csr_matrix((r2_vals, (r2_rows, r2_cols)), shape=(m2, n1))
    a22 = sp.vstack([sp.csr_matrix((num_zero_rows, n2)), sp.eye(n2, format="csr")],
                    format="csr") if n2 or num_zero_rows else sp.csr_matrix((0, 0))

    c = np.zeros(n1 + n2)
    lower = np.zeros(n1 + n2)
    upper = np.full(n1 + n2, np.inf)
    for k, criterion in enumerate(criteria):
        lower[xi_cols[k]], upper[xi_cols[k]] = criterion.xi_bounds()
        if criterion.objective is not None:
            c[xi_cols[k]] = criterion.sign * w[criterion.objective]

    columns = []
    for k, criterion in enumerate(criteria):
        columns.append(CriterionColumns(
            xi=xi_cols[k], alpha=alpha_cols[k], eta=eta_slices[k],
            voxel_rows=voxel_row_slices[k]))
    return BlockLP(a11=a11, a12=a12, a21_factors=A21Factors.from_matrix(a21), a22=a22,
                   b1=np.asarray(b1), b2=np.asarray(b2),
                   objective_vector=c, lower=lower, upper=upper,
                   num_zero_rows=num_zero_rows, machine=machine,
                   criteria=criteria, weights=w, columns=tuple(columns),
                   row_labels1=tuple(labels1), name=name)


def signed_groups(matrix, axis):
    """Group the nonzero rows (``axis=0``) or columns (``axis=1``) of ``matrix`` equal up to sign.

    Returns the nonzero vectors ``nz`` (increasing), the group of each and
    its sign, and the first vector of every group, so that for columns
    ``matrix[:, nz] == matrix[:, firsts][:, group] * sign`` by value (and
    likewise for rows).  With V holding one vector per row, one mat-vec
    ``|V| r`` with ``r`` drawn from [1, 2) finds the nonzero vectors and
    proposes each one's candidate, the first vector with the same
    fingerprint.  The sparse difference of the two, with the sign taken
    from ``V r``, confirms the candidate when it stores no entry (sparse
    subtraction sums duplicates and stores no zero); a fingerprint
    collision costs a fold, never a wrong one.
    """
    vectors = matrix.T if axis else matrix   # one vector per row; a view
    r = np.random.default_rng(0).uniform(1.0, 2.0, vectors.shape[1])
    # abs() would sum duplicates in place, in the caller's arrays
    magnitude = type(vectors)((np.abs(vectors.data), vectors.indices, vectors.indptr),
                              shape=vectors.shape)
    fingerprint = magnitude @ r
    nz = np.flatnonzero(fingerprint)
    _, first, inverse = np.unique(fingerprint[nz], return_index=True, return_inverse=True)
    rep = nz[first[inverse]]
    sign = np.ones(nz.size)
    pending = np.flatnonzero(rep != nz)
    if pending.size:
        vec, other = nz[pending], rep[pending]
        signed = vectors @ r
        flip = np.sign(signed[vec]) * np.sign(signed[other])
        scaled = vectors[other].tocsr()
        scaled = sp.csr_matrix((np.repeat(flip, np.diff(scaled.indptr)) * scaled.data,
                                scaled.indices, scaled.indptr), shape=scaled.shape)
        residual = vectors[vec].tocsr() - scaled
        differs = np.diff(residual.indptr) > 0
        rep[pending[differs]] = vec[differs]
        sign[pending] = np.where(differs, 1.0, flip)
    firsts = nz[rep == nz]
    return nz, np.searchsorted(firsts, rep), sign, firsts


def reference_fold(a21):
    """The fold of A21 found by search, the reference for the LP build's factors.

    Columns equal up to sign are grouped (:func:`signed_groups`); the
    criterion columns C are the longest tail of the grouped columns with
    at most one stored entry per row; the nonzero rows of the rest are
    grouped up to sign, one row of ``b`` each.  Returns the factors and
    ``expand`` = [S | C] as CSR.
    """
    a21 = sp.csr_matrix(a21)
    nz, group, sign, firsts = signed_groups(a21, axis=1)
    a21c = a21[:, firsts]
    a21c.sort_indices()
    # the split is one past the largest second-to-last column of any row
    second_last = a21c.indices[a21c.indptr[1:][np.diff(a21c.indptr) > 1] - 2]
    split = int(second_last.max(initial=-1)) + 1
    trajectory = a21c[:, :split]
    row_nz, row_group, row_sign, row_firsts = signed_groups(trajectory, axis=0)
    criterion = a21c[:, split:]
    membership = sp.csr_matrix((row_sign, (row_nz, row_group)),
                               shape=(a21c.shape[0], row_firsts.size))
    factors = A21Factors(shape=a21.shape, nz=nz, group=group, sign=sign,
                         b=trajectory[row_firsts].toarray(), row_nz=row_nz, row_group=row_group,
                         row_sign=row_sign, criterion=criterion.toarray())
    return factors, sp.hstack([membership, criterion], format="csr")


FACTOR_ARRAYS = ("nz", "group", "sign", "b", "row_nz", "row_group", "row_sign", "criterion")


def assert_same_bytes(mine, theirs, label=""):
    assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, label
    assert np.ascontiguousarray(mine).tobytes() == np.ascontiguousarray(theirs).tobytes(), label
