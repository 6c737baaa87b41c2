"""Weighted-sum linear program with the voxelwise block partition.

A planning criterion bounds or optimizes one dose statistic of one ROI.
Dose-at-volume criteria are handled through their mean-tail-dose
relaxations, which linearize with one scalar ``alpha`` and one
per-voxel ``eta`` vector per criterion:

  minimize ("dav-min"):   alpha + (1/v) * sum_i  w_i * eta_i  <=  xi,
                          eta_i >= d_i - alpha,  eta_i >= 0
  maximize ("dav-max"):   alpha - (1/(1-v)) * sum_i w_i * eta_i  >=  xi,
                          eta_i >= alpha - d_i,  eta_i >= 0

Max/min-dose criteria bound every voxel (``d_i <= xi`` / ``d_i >= xi``)
and average criteria bound the volume-weighted mean.  Hard dose bounds
land on ``xi`` as variable bounds; so do the utopian levels that remove
further optimizing incentive.  The voxel dose is substituted out via the
trajectory-to-dose map, so the LP variables are ``(l, r, T, xi, alpha,
eta)`` and every voxel-sized coefficient row couples to trajectory-space
columns only.

The constraint matrix is kept in the partition the solver exploits::

    ( A11  A12 )   rows without voxelwise components x columns (l,r,T,xi,alpha)
    ( A21  A22 )   voxelwise rows; A22 = [0 I]^T exactly, the zero part
                   from max/min-dose rows and the identity from the eta rows.

All rows are oriented ``a . x >= rhs``.  The voxelwise rows are row-scaled
slices of the dose influence ``P`` and its per-beam row sums ``PR``, built
once per call without per-voxel loops; ``P``'s rows are sliced from the CSR
of its ROI rows that the influence forms once per case
(:meth:`DoseInfluence.rows`).  For a criterion on the voxels
``V`` with row sign ``s`` (-1 for max and dav-min, +1 for min and dav-max)
its block of A21 is

    [ diag(s*o) P[V],  diag(-s*o) P[V],  diag(s*t) PR[V],  -s on xi/alpha ]

with ``o = rate*(1-tau)`` and ``t = rate*tau`` (the T block is left out
when ``tau = 0``); the xi column serves max/min rows, the alpha column
eta rows.  An average row is the column sum, in voxel order, of the same
slices with ``s = -w`` (avg-min) or ``s = +w`` (avg-max).

The build emits A21 only in these factors (:class:`A21Factors`), which
the solver takes as they are; A21 itself is formed from the factors on
first use, where the whole matrix is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .dmlc import Trajectories, build_deliverability_constraints, num_trajectory_variables
from .errors import FormulationError
from .phantom import DoseInfluence, MachineModel, Phantom

MINIMIZED_TYPES = ("dav-min", "max", "avg-min")
MAXIMIZED_TYPES = ("dav-max", "min", "avg-max")
DAV_TYPES = ("dav-min", "dav-max")
CRITERION_TYPES = MINIMIZED_TYPES + MAXIMIZED_TYPES


@dataclass(frozen=True)
class Criterion:
    """One planning criterion (a Table-style row).

    Minimized types carry ``hard_upper`` (the hard bound) and optionally
    ``utopian_lower``; maximized types carry ``hard_lower`` and
    optionally ``utopian_upper``.  ``objective`` is the weight-slot
    index this criterion contributes to, or ``None`` for a pure
    constraint: excluding a criterion from the objective removes all
    optimizing incentive and leaves only its hard dose bound.
    """

    roi: str
    ctype: str
    volume: float | None = None
    hard_lower: float | None = None
    hard_upper: float | None = None
    utopian_lower: float | None = None
    utopian_upper: float | None = None
    objective: int | None = None
    name: str = ""

    def __post_init__(self):
        if self.ctype not in CRITERION_TYPES:
            raise FormulationError(f"unknown criterion type {self.ctype!r}")
        if self.ctype in DAV_TYPES:
            if self.volume is None or not (0.0 < self.volume < 1.0):
                raise FormulationError(
                    f"criterion {self.describe()}: dose-at-volume needs volume in (0, 1)")
        elif self.volume is not None:
            raise FormulationError(f"criterion {self.describe()}: volume only applies to d-a-v types")
        if self.is_minimized and (self.hard_lower is not None or self.utopian_upper is not None):
            raise FormulationError(
                f"criterion {self.describe()}: minimized types take hard_upper/utopian_lower only")
        if not self.is_minimized and (self.hard_upper is not None or self.utopian_lower is not None):
            raise FormulationError(
                f"criterion {self.describe()}: maximized types take hard_lower/utopian_upper only")
        for bound in ("hard_lower", "hard_upper", "utopian_lower", "utopian_upper"):
            if getattr(self, bound) is not None and not np.isfinite(getattr(self, bound)):
                raise FormulationError(f"criterion {self.describe()}: {bound} must be finite")
        lo, hi = self._bound_pair()
        if lo > hi:
            raise FormulationError(
                f"criterion {self.describe()}: bound pair infeasible by construction ({lo} > {hi})")

    @property
    def is_minimized(self) -> bool:
        return self.ctype in MINIMIZED_TYPES

    @property
    def sign(self) -> float:
        """Objective sign: +1 for minimized, -1 for maximized criteria."""
        return 1.0 if self.is_minimized else -1.0

    @property
    def is_dav(self) -> bool:
        return self.ctype in DAV_TYPES

    def describe(self) -> str:
        return self.name or f"{self.roi}:{self.ctype}"

    def _bound_pair(self):
        """``(lo, hi)`` from the hard bound and utopian level; unset ends are 0 and inf."""
        if self.is_minimized:
            lo, hi = self.utopian_lower, self.hard_upper
        else:
            lo, hi = self.hard_lower, self.utopian_upper
        return (0.0 if lo is None else lo), (np.inf if hi is None else hi)

    def xi_bounds(self) -> tuple[float, float]:
        lo, hi = self._bound_pair()
        if lo == hi:  # pinned auxiliary; widen a hair so the box has interior
            hi = lo + 1e-9 * max(1.0, abs(lo))
        return float(lo), float(hi)


class CriterionSet:
    """Validated list of criteria plus the objective slot layout."""

    def __init__(self, criteria):
        self.criteria: tuple[Criterion, ...] = tuple(criteria)
        if not self.criteria:
            raise FormulationError("criterion set is empty")
        names = [c.name for c in self.criteria if c.name]
        if len(names) != len(set(names)):
            raise FormulationError("duplicate criterion names")
        slots = sorted({c.objective for c in self.criteria if c.objective is not None})
        if not slots:
            raise FormulationError("no criterion is in the objective")
        if slots != list(range(len(slots))):
            raise FormulationError(f"objective slots must be contiguous from 0, got {slots}")
        self.num_slots = len(slots)

    @property
    def slot_aims(self) -> tuple[str, ...]:
        """Orientation of each objective slot.

        A slot pairing a minimized with a maximized criterion (a
        homogeneity pair) nets out to a minimized difference, so a slot
        is maximize-oriented only when all its members are maximized.
        """
        aims = []
        for slot in range(self.num_slots):
            members = [c for c in self.criteria if c.objective == slot]
            aims.append("minimize" if any(c.is_minimized for c in members) else "maximize")
        return tuple(aims)

    def __iter__(self):
        return iter(self.criteria)

    def __len__(self):
        return len(self.criteria)

    def validate_against(self, phantom: Phantom) -> None:
        if not any(roi.kind == "target" for roi in phantom.rois):
            raise FormulationError("phantom has no target ROI")
        for c in self.criteria:
            if not phantom.has_roi(c.roi):
                raise FormulationError(f"criterion {c.describe()} references unknown ROI {c.roi!r}")


def normalized_weights(values, num_slots: int) -> np.ndarray:
    """Validate a weight vector: nonnegative, length ``num_slots``, sum 1."""
    w = np.asarray(values, dtype=float)
    if w.shape != (num_slots,):
        raise FormulationError(f"weight vector must have length {num_slots}, got {w.shape}")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise FormulationError("weights must be finite and nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise FormulationError("weights must not all be zero")
    if abs(total - 1.0) > 1e-9:
        raise FormulationError(f"weights must sum to 1, got {total!r}")
    return w / total


@dataclass(frozen=True)
class CriterionColumns:
    """Column bookkeeping for one criterion inside the LP."""

    xi: int
    alpha: int | None
    eta: slice | None        # columns within the voxelwise block (global indices)
    voxel_rows: slice | None  # this criterion's rows within the voxelwise row block


@dataclass(frozen=True, eq=False)
class A21Factors:
    """A21 as the build knows it: ``A21[:, nz] = [S b | C][:, group] * sign``.

    Each nonzero ``l`` column forms one group with its ``r = -l`` partner
    (sign -1); each nonzero T column and each xi/alpha column is a group
    of its own, the trajectory groups first.  ``b`` holds one dose row per
    voxel of the voxelwise ROIs whose row is nonzero, in the order the
    voxels first occur, with the sign of that first row.  Row ``row_nz[i]``
    of A21 is ``row_sign[i] * b[row_group[i]]`` beside its entry in C
    (``criterion``, dense, one entry per row).

    :attr:`expand` is ``[S | C]`` as CSR.  :attr:`matrix` forms A21 from
    the factors on first use and keeps it; only ``dump_lp``,
    :meth:`BlockLP.matrix`, the partition report and other solvers read
    it.  :meth:`from_matrix` gives a plain matrix identity factors and
    keeps the matrix as it is.  Neither ``expand`` nor ``matrix`` is pickled.
    """

    shape: tuple[int, int]
    nz: np.ndarray
    group: np.ndarray
    sign: np.ndarray
    b: np.ndarray
    row_nz: np.ndarray
    row_group: np.ndarray
    row_sign: np.ndarray
    criterion: np.ndarray

    @classmethod
    def from_matrix(cls, a21) -> "A21Factors":
        """Identity factors of a plain A21: every column its own group, ``b`` all of A21, S = I."""
        a21 = sp.csr_matrix(a21)
        m2, n1 = a21.shape
        rows, cols = np.arange(m2), np.arange(n1)
        factors = cls(shape=(m2, n1), nz=cols, group=cols, sign=np.ones(n1), b=a21.toarray(),
                      row_nz=rows, row_group=rows, row_sign=np.ones(m2),
                      criterion=np.zeros((m2, 0)))
        factors.__dict__["matrix"] = a21   # formed already
        return factors

    @functools.cached_property
    def expand(self) -> sp.csr_matrix:
        """``[S | C]``: row ``row_nz[i]`` holds ``row_sign[i]`` at ``row_group[i]``, then its C entries."""
        membership = sp.csr_matrix((self.row_sign, (self.row_nz, self.row_group)),
                                   shape=(self.shape[0], self.b.shape[0]))
        return sp.hstack([membership, sp.csr_matrix(self.criterion)], format="csr")

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """``A21 = [S b | C] E``, with E taking each group to its columns with their signs.

        Each stored entry is one entry of ``b`` or C times +-1, so it is
        exact; ``b`` as CSR holds no zeros, so the pattern is exact too.
        The indices are sorted.
        """
        distinct = sp.block_diag([sp.csr_matrix(self.b), sp.eye(self.criterion.shape[1])],
                                 format="csr")
        spread = sp.csr_matrix((self.sign, (self.group, self.nz)),
                               shape=(distinct.shape[1], self.shape[1]))
        a21 = self.expand @ (distinct @ spread)
        a21.sort_indices()
        return a21

    def __getstate__(self):
        state = dict(self.__dict__)
        for formed in ("expand", "matrix"):   # formed again on first use
            state.pop(formed, None)
        return state


@dataclass
class BlockLP:
    """Expanded weighted-sum LP in the (A11 A12; A21 A22) partition.

    ``matrix() @ x >= rhs()`` with box bounds ``lower <= x <= upper`` and
    objective ``objective_vector . x`` to be minimized.  The first
    ``num_zero_rows`` voxelwise rows stem from max/min-dose criteria
    (zero block of A22); the remaining rows pair one-to-one with the eta
    columns (identity block).  A21 is held as its factors; ``a21`` forms
    it on first use.
    """

    a11: sp.csr_matrix
    a12: sp.csr_matrix
    a21_factors: A21Factors
    a22: sp.csr_matrix
    b1: np.ndarray
    b2: np.ndarray
    objective_vector: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    num_zero_rows: int
    machine: MachineModel
    criteria: CriterionSet
    weights: np.ndarray
    columns: tuple[CriterionColumns, ...]
    row_labels1: tuple[str, ...] = field(repr=False, default=())
    name: str = ""
    num_deliverability_rows: int = 0   # leading rows of A11, from the machine model

    @property
    def a21(self) -> sp.csr_matrix:
        return self.a21_factors.matrix

    # -- dimensions ------------------------------------------------------
    @property
    def n1(self) -> int:
        return self.a11.shape[1]

    @property
    def n2(self) -> int:
        return self.a22.shape[1]

    @property
    def m1(self) -> int:
        return self.a11.shape[0]

    @property
    def m2(self) -> int:
        return self.a21_factors.shape[0]

    @property
    def num_variables(self) -> int:
        return self.n1 + self.n2

    @property
    def num_rows(self) -> int:
        return self.m1 + self.m2

    def matrix(self) -> sp.csr_matrix:
        return sp.bmat([[self.a11, self.a12], [self.a21, self.a22]], format="csr")

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.b1, self.b2])

    def reweighted(self, weights) -> "BlockLP":
        """This LP with the objective of ``weights``, which enter only ``c`` on the xi columns.

        Every matrix, bound and label is shared with this LP, not copied.
        """
        w = normalized_weights(weights, self.criteria.num_slots)
        return replace(self, weights=w,
                       objective_vector=_objective_vector(self.criteria, self.columns, w,
                                                          self.num_variables))

    # -- solution access --------------------------------------------------
    def extract_trajectories(self, x: np.ndarray) -> Trajectories:
        return Trajectories.from_stacked(x, self.machine)

    def xi_values(self, x: np.ndarray) -> np.ndarray:
        return np.array([x[c.xi] for c in self.columns])

    def objective_coordinates(self, x: np.ndarray) -> np.ndarray:
        """Per-slot objective values in dose space, the analogue of the
        plan quality indices: a homogeneity pair collapses to the
        mean-tail-dose homogeneity difference, a lone maximized slot
        reports its lower-tail bound (+xi) rather than the scalarization
        term (-xi)."""
        coords = np.zeros(self.criteria.num_slots)
        for criterion, cols in zip(self.criteria, self.columns):
            if criterion.objective is not None:
                coords[criterion.objective] += criterion.sign * x[cols.xi]
        for slot, aim in enumerate(self.criteria.slot_aims):
            if aim == "maximize":
                coords[slot] = -coords[slot]
        return coords

    def variable_name(self, col: int) -> str:
        machine = self.machine
        nb = machine.num_bixels
        N, J = machine.leaf_pairs, machine.bixels_per_row
        if col < nb:
            b, rest = divmod(col, N * J)
            n, j = divmod(rest, J)
            return f"l[{b},{n},{j}]"
        if col < 2 * nb:
            b, rest = divmod(col - nb, N * J)
            n, j = divmod(rest, J)
            return f"r[{b},{n},{j}]"
        if col < 2 * nb + machine.num_beams:
            return f"T[{col - 2 * nb}]"
        for k, cols in enumerate(self.columns):
            if col == cols.xi:
                return f"xi[{k}]"
            if cols.alpha is not None and col == cols.alpha:
                return f"alpha[{k}]"
        for k, cols in enumerate(self.columns):
            if cols.eta is not None and cols.eta.start <= col < cols.eta.stop:
                return f"eta[{k},{col - cols.eta.start}]"
        raise IndexError(col)

    def row_name(self, row: int) -> str:
        if row < self.m1:
            return self.row_labels1[row]
        row -= self.m1
        for k, (criterion, cols) in enumerate(zip(self.criteria, self.columns)):
            if cols.voxel_rows is None:
                continue
            if cols.voxel_rows.start <= row < cols.voxel_rows.stop:
                local = row - cols.voxel_rows.start
                label = "dose-cap" if criterion.ctype == "max" else (
                    "dose-floor" if criterion.ctype == "min" else "eta-def")
                return f"{label}[{k},{local}]"
        raise IndexError(row)


def _objective_vector(criteria: CriterionSet, columns, w: np.ndarray, size: int) -> np.ndarray:
    """``c``: each in-objective criterion's sign times its slot's weight, on its xi column."""
    c = np.zeros(size)
    for criterion, cols in zip(criteria, columns):
        if criterion.objective is not None:
            c[cols.xi] = criterion.sign * w[criterion.objective]
    return c


def _scale_rows(matrix: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    """``diag(scale) @ matrix`` on the sparsity pattern of ``matrix``."""
    return sp.csr_matrix((np.repeat(scale, np.diff(matrix.indptr)) * matrix.data,
                          matrix.indices, matrix.indptr), shape=matrix.shape)


def _nonzero_rows(matrix: sp.csr_matrix) -> np.ndarray:
    """Mask of the rows of ``matrix`` holding a nonzero value (a stored zero is zero)."""
    counts = np.diff(matrix.indptr)
    return np.bincount(np.repeat(np.arange(counts.size), counts), weights=matrix.data != 0,
                       minlength=counts.size) > 0


def _a21_factors(influence: DoseInfluence, PR: sp.csr_matrix | None, leak_voxels: np.ndarray,
                 blocks, n1: int, open_scale: float, leak_scale: float) -> A21Factors:
    """The factors of A21 (see :class:`A21Factors`), the only form the build gives it.

    ``blocks`` holds each voxelwise criterion's ``(voxels, s, aux column)``
    in row order, its rows ``[s*d_V | -s on xi/alpha]``; ``PR`` holds the
    per-beam row sums of the sorted ``leak_voxels`` (None when ``tau = 0``).
    ``b`` holds each distinct voxel's row as A21 stores it where the voxel
    first occurs, ``(s*o) P[v]`` and ``(s*t) PR[v]``, on the live columns.
    """
    nb = influence.matrix.shape[1]
    voxels = np.concatenate([v for v, _, _ in blocks] + [np.zeros(0, np.int64)])
    m2 = voxels.size
    signs = np.concatenate([np.full(v.size, s) for v, s, _ in blocks] + [np.zeros(0)])
    aux = np.concatenate([np.full(v.size, c) for v, _, c in blocks] + [np.zeros(0, np.int64)])

    # Rows: the voxels with a nonzero dose row, by first occurrence.
    distinct, first, inverse = np.unique(voxels, return_index=True, return_inverse=True)
    dose_rows = influence.rows(distinct)
    live = np.flatnonzero(_nonzero_rows(dose_rows))
    by_occurrence = live[np.argsort(first[live])]
    group_of = np.full(distinct.size, -1)
    group_of[by_occurrence] = np.arange(by_occurrence.size)
    row_group = group_of[inverse]
    row_nz = np.flatnonzero(row_group >= 0)
    row_group = row_group[row_nz]
    first_sign = signs[first[by_occurrence]]
    row_sign = signs[row_nz] * first_sign[row_group]
    parts = [_scale_rows(dose_rows[by_occurrence], first_sign * open_scale)]
    if PR is not None:
        rows = PR[np.searchsorted(leak_voxels, distinct[by_occurrence])]
        parts.append(_scale_rows(rows, first_sign * leak_scale))

    # Columns: [l | T] groups of the nonzero columns, then the xi/alpha ones.
    used = [np.bincount(part.indices, weights=part.data != 0, minlength=part.shape[1]) > 0
            for part in parts]
    live_cols = np.zeros(n1, bool)
    live_cols[:nb] = live_cols[nb:2 * nb] = used[0]
    if PR is not None:
        live_cols[2 * nb:2 * nb + PR.shape[1]] = used[1]
    live_cols[aux] = True
    nz = np.flatnonzero(live_cols)
    column_group = np.cumsum(live_cols) - 1
    column_group[nb:2 * nb] = column_group[:nb]
    column_group[2 * nb:] -= int(used[0].sum())   # the r columns hold no group of their own
    split = int(sum(mask.sum() for mask in used))
    sign = np.where((nz >= nb) & (nz < 2 * nb), -1.0, 1.0)
    b = sp.hstack([part[:, np.flatnonzero(mask)] for part, mask in zip(parts, used)],
                  format="csr").toarray()
    criterion = np.zeros((m2, np.unique(aux).size))
    criterion[np.arange(m2), column_group[aux] - split] = -signs
    return A21Factors(shape=(m2, n1), nz=nz, group=column_group[nz], sign=sign, b=b,
                      row_nz=row_nz, row_group=row_group, row_sign=row_sign,
                      criterion=criterion)


def build_weighted_instance(phantom: Phantom, machine: MachineModel, influence: DoseInfluence,
                            criteria: CriterionSet, weights, name: str = "") -> BlockLP:
    """Expand one weighted-sum instance into its block-partitioned LP.

    ``weights`` has one entry per objective slot, lies on the unit
    simplex and scales the signed auxiliary dose variables of the
    in-objective criteria.  The dose vector is substituted out through
    the trajectory-to-dose map, so voxelwise rows reference trajectory
    columns through the dose influence matrix.
    """
    criteria.validate_against(phantom)
    w = normalized_weights(weights, criteria.num_slots)
    if influence.matrix.shape[0] != phantom.num_voxels:
        raise FormulationError("dose influence voxel count does not match phantom")
    if influence.matrix.shape[1] != machine.num_bixels:
        raise FormulationError("dose influence bixel count does not match machine")

    deliv = build_deliverability_constraints(machine)
    n_traj = num_trajectory_variables(machine)
    K = len(criteria)

    # Column layout: [l, r, T | xi_0..xi_{K-1} | alphas] then eta block.
    xi_cols = [n_traj + k for k in range(K)]
    alpha_cols: list[int | None] = []
    next_col = n_traj + K
    for criterion in criteria:
        if criterion.is_dav:
            alpha_cols.append(next_col)
            next_col += 1
        else:
            alpha_cols.append(None)
    n1 = next_col

    eta_slices: list[slice | None] = []
    eta_start = n1
    for criterion in criteria:
        if criterion.is_dav:
            size = phantom.roi(criterion.roi).voxels.size
            eta_slices.append(slice(eta_start, eta_start + size))
            eta_start += size
        else:
            eta_slices.append(None)
    n2 = eta_start - n1

    # Voxelwise blocks in row order: max/min-dose rows first (the zero block
    # of A22), then eta rows whose ordering matches the eta columns so A22
    # ends in an exact identity.  Each block is [s*d_i over (l, r, T) | -s on
    # xi (max/min) or alpha (eta)]:
    #   max: xi - d_i >= 0,  min: d_i - xi >= 0,
    #   dav-min: eta_i + alpha - d_i >= 0,  dav-max: eta_i - alpha + d_i >= 0.
    zero_rows = [k for k, c in enumerate(criteria) if c.ctype in ("max", "min")]
    eta_rows = [k for k, c in enumerate(criteria) if c.is_dav]
    blocks = []
    voxel_row_slices: list[slice | None] = [None] * K
    m2 = 0
    for k in zero_rows + eta_rows:
        criterion = criteria.criteria[k]
        voxels = phantom.roi(criterion.roi).voxels
        sign = -1.0 if criterion.ctype in ("max", "dav-min") else 1.0
        blocks.append((voxels, sign, alpha_cols[k] if criterion.is_dav else xi_cols[k]))
        voxel_row_slices[k] = slice(m2, m2 + voxels.size)
        m2 += voxels.size
    num_zero_rows = voxel_row_slices[zero_rows[-1]].stop if zero_rows else 0
    average = [k for k, c in enumerate(criteria) if c.ctype in ("avg-min", "avg-max")]

    # Dose substitution: d = rate*(1-tau)*P*(l-r) + rate*tau*(P R)*T, with
    # P R formed only on the rows the LP reads.
    rate, tau = machine.dose_rate, machine.transmission
    open_scale = rate * (1.0 - tau)
    leak_scale = rate * tau
    leak_voxels = np.unique(np.concatenate(
        [voxels for voxels, _, _ in blocks] + [phantom.roi(criteria.criteria[k].roi).voxels
                                               for k in average] + [np.zeros(0, np.int64)]))
    PR = influence.per_beam_row_sums(leak_voxels) if leak_scale != 0.0 else None

    def average_row(voxels: np.ndarray, scale: np.ndarray):
        """Stored columns and sums of ``sum_i scale_i * d_{voxels_i}`` over (l, r, T).

        Each column is summed in voxel order, as ``np.bincount`` over the
        stacked rows would sum it.  The ``r`` half negates the ``l`` half
        exactly; ``0.0 - x`` keeps a zero sum ``+0.0``, as its own sum would.
        """
        rows = influence.rows(voxels)
        counts = np.bincount(rows.indices, minlength=rows.shape[1])
        sums = np.bincount(rows.indices, weights=_scale_rows(rows, scale * open_scale).data,
                           minlength=rows.shape[1])
        parts = [(counts, sums), (counts, 0.0 - sums)]
        if PR is not None:
            leak = _scale_rows(PR[np.searchsorted(leak_voxels, voxels)], scale * leak_scale)
            parts.append((np.bincount(leak.indices, minlength=machine.num_beams),
                          np.bincount(leak.indices, weights=leak.data, minlength=machine.num_beams)))
        stored = np.concatenate([part[0] for part in parts]) > 0
        return np.flatnonzero(stored), np.concatenate([part[1] for part in parts])[stored]

    def single_row(indices, data, width: int) -> sp.csr_matrix:
        return sp.csr_matrix((data, indices, [0, len(indices)]), shape=(1, width))

    # ---- block row 1: deliverability + aggregation + average rows ------
    rows11 = [sp.csr_matrix((deliv.matrix.data, deliv.matrix.indices, deliv.matrix.indptr),
                            shape=(deliv.rhs.size, n1))]
    rows12 = [sp.csr_matrix((deliv.rhs.size, n2))]
    labels1 = [f"{kind}[{b},{n},{j}]" for kind, b, n, j in deliv.labels]
    for k, criterion in enumerate(criteria):
        roi = phantom.roi(criterion.roi)
        if criterion.is_dav:
            # dav-min: xi - alpha - (1/v) sum w_i eta_i >= 0
            # dav-max: alpha - xi - (1/(1-v)) sum w_i eta_i >= 0
            inv_v = 1.0 / (criterion.volume if criterion.ctype == "dav-min"
                           else 1.0 - criterion.volume)
            pair = [1.0, -1.0] if criterion.ctype == "dav-min" else [-1.0, 1.0]
            rows11.append(single_row([xi_cols[k], alpha_cols[k]], pair, n1))
            rows12.append(single_row(np.arange(eta_slices[k].start, eta_slices[k].stop) - n1,
                                     -inv_v * roi.weights, n2))
            labels1.append(f"tail-agg[{k}]")
        elif criterion.ctype in ("avg-min", "avg-max"):
            # avg-min: xi - sum w_i d_i >= 0;  avg-max: sum w_i d_i - xi >= 0
            sign = -1.0 if criterion.ctype == "avg-min" else 1.0
            cols, sums = average_row(roi.voxels, sign * roi.weights)
            rows11.append(single_row(np.append(cols, xi_cols[k]), np.append(sums, -sign), n1))
            rows12.append(sp.csr_matrix((1, n2)))
            label = "avg-cap" if criterion.ctype == "avg-min" else "avg-floor"
            labels1.append(f"{label}[{k}]")
    a11 = sp.vstack(rows11, format="csr")
    a12 = sp.vstack(rows12, format="csr")
    b1 = np.concatenate([deliv.rhs, np.zeros(len(rows11) - 1)])

    # ---- block row 2: voxelwise rows, as A21's factors and A22 ----------
    a21_factors = _a21_factors(influence, PR, leak_voxels, blocks, n1, open_scale, leak_scale)
    b2 = np.zeros(m2)
    a22 = sp.vstack([sp.csr_matrix((num_zero_rows, n2)), sp.eye(n2, format="csr")],
                    format="csr") if n2 or num_zero_rows else sp.csr_matrix((0, 0))

    # ---- bounds and objective -------------------------------------------
    lower = np.zeros(n1 + n2)
    upper = np.full(n1 + n2, np.inf)
    for k, criterion in enumerate(criteria):
        lower[xi_cols[k]], upper[xi_cols[k]] = criterion.xi_bounds()

    columns = tuple(CriterionColumns(xi=xi_cols[k], alpha=alpha_cols[k], eta=eta_slices[k],
                                     voxel_rows=voxel_row_slices[k]) for k in range(K))
    return BlockLP(a11=a11, a12=a12, a21_factors=a21_factors, a22=a22,
                   b1=b1, b2=b2,
                   objective_vector=_objective_vector(criteria, columns, w, n1 + n2),
                   lower=lower, upper=upper,
                   num_zero_rows=num_zero_rows, machine=machine,
                   criteria=criteria, weights=w, columns=columns,
                   row_labels1=tuple(labels1), name=name,
                   num_deliverability_rows=deliv.rhs.size)


@dataclass(frozen=True)
class PartitionReport:
    n1: int
    n2: int
    m1: int
    m2_zero: int
    m2_identity: int
    nnz: dict

    def __str__(self):
        return (f"A11 {self.m1}x{self.n1} ({self.nnz['a11']} nnz), "
                f"A12 {self.m1}x{self.n2} ({self.nnz['a12']} nnz), "
                f"A21 {self.m2_zero + self.m2_identity}x{self.n1} ({self.nnz['a21']} nnz), "
                f"A22 = [0({self.m2_zero}); I({self.m2_identity})]")


def partition_report(lp: BlockLP) -> PartitionReport:
    """Certify the A22 = [0 I]^T structure and report block dimensions."""
    a22 = lp.a22.tocsr()
    m2, n2 = a22.shape
    zero_part = a22[:lp.num_zero_rows]
    if zero_part.nnz != 0:
        raise FormulationError("A22 zero block contains nonzeros")
    eye_part = a22[lp.num_zero_rows:]
    if eye_part.shape[0] != n2:
        raise FormulationError("A22 identity block is not square")
    if n2 and (eye_part != sp.eye(n2, format="csr")).nnz != 0:
        raise FormulationError("A22 identity block is not the exact identity")
    return PartitionReport(
        n1=lp.n1, n2=lp.n2, m1=lp.m1,
        m2_zero=lp.num_zero_rows, m2_identity=m2 - lp.num_zero_rows,
        nnz={"a11": lp.a11.nnz, "a12": lp.a12.nnz, "a21": lp.a21.nnz, "a22": lp.a22.nnz},
    )


def scalarized_objective_value(lp: BlockLP, x: np.ndarray) -> float:
    """Weighted signed sum of the auxiliary dose variables, in Gy."""
    return float(np.dot(lp.objective_vector, x))


def dump_lp(lp: BlockLP, path) -> None:
    """Plain-text sparse triplet dump for external cross-checking.

    Format (one record per line, 0-based indices, ``A x >= b``)::

        lp-triplet-v1 <name>
        size <num_rows> <num_vars>
        c <col> <value>
        A <row> <col> <value>
        b <row> <value>
        lb <col> <value>          # only nonzero lower bounds
        ub <col> <value>          # only finite upper bounds
        var <col> <name>
        row <row> <name>
    """
    matrix = lp.matrix().tocoo()
    rhs = lp.rhs()
    with open(path, "w") as fh:
        fh.write(f"lp-triplet-v1 {lp.name or 'instance'}\n")
        fh.write(f"size {lp.num_rows} {lp.num_variables}\n")
        for j in np.flatnonzero(lp.objective_vector):
            fh.write(f"c {j} {float(lp.objective_vector[j])!r}\n")
        for i, j, v in zip(matrix.row, matrix.col, matrix.data):
            fh.write(f"A {i} {j} {float(v)!r}\n")
        for i in np.flatnonzero(rhs):
            fh.write(f"b {i} {float(rhs[i])!r}\n")
        for j in np.flatnonzero(lp.lower):
            fh.write(f"lb {j} {float(lp.lower[j])!r}\n")
        for j in np.flatnonzero(np.isfinite(lp.upper)):
            fh.write(f"ub {j} {float(lp.upper[j])!r}\n")
        for j in range(lp.num_variables):
            fh.write(f"var {j} {lp.variable_name(j)}\n")
        for i in range(lp.num_rows):
            fh.write(f"row {i} {lp.row_name(i)}\n")
