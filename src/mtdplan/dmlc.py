"""Sliding-window leaf trajectories and their linear deliverability model.

Trajectories are represented by the departure times of the trailing
(left) and leading (right) leaf at each bixel, plus a beam-on time per
beam.  With a constant bixel traverse time the feasible set is a
polyhedron and the bixel exposure (hence dose) is linear in the times,
which is what the downstream linear program exploits.

Row blocks emitted by :func:`build_deliverability_constraints`, all in
``row . x >= rhs`` orientation over the variable vector
``x = [l (B*N*J), r (B*N*J), T (B)]`` (C order, beam major):

  per (beam b, leaf pair n):
    "r-order" j=0..J-2 :  r[b,n,j+1] - r[b,n,j]  >=  dt
    "l-order" j=0..J-2 :  l[b,n,j+1] - l[b,n,j]  >=  dt
    "min-gap" j=0..J-2 :  l[b,n,j] - r[b,n,j+1]  >=  -(1-rho)*dt
    "first-gap"        :  l[b,n,0] - r[b,n,0]    >=  rho*dt
    "beam-on"          :  T[b] - l[b,n,J-1]      >=  dt
  per (b, n):
    "park"             :  r[b,n,0]               >=  0
  once:
    "total-time"       :  -sum_b T[b]            >=  -T_max

Total row count: B*N*(3*(J-1)+2) + B*N + 1.  The trailing-leaf-behind-
leading-leaf condition r <= l is implied by "min-gap"/"first-gap"
together with "l-order" and is therefore not emitted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .fileio import write_csv
from .phantom import DoseInfluence, MachineModel


@dataclass(frozen=True)
class Trajectories:
    """Leaf departure times (seconds); shapes (B, N, J), (B, N, J), (B,)."""

    l: np.ndarray
    r: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "l", np.asarray(self.l, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float))
        if self.l.shape != self.r.shape or self.l.ndim != 3:
            raise ValueError("l and r must both have shape (B, N, J)")
        if self.T.shape != (self.l.shape[0],):
            raise ValueError("T must have one entry per beam")

    def stacked(self) -> np.ndarray:
        """Variable vector [l, r, T] in the constraint-block ordering."""
        return np.concatenate([self.l.ravel(), self.r.ravel(), self.T])

    @staticmethod
    def from_stacked(x: np.ndarray, machine: MachineModel) -> "Trajectories":
        B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
        nb = B * N * J
        return Trajectories(l=x[:nb].reshape(B, N, J),
                            r=x[nb:2 * nb].reshape(B, N, J),
                            T=x[2 * nb:2 * nb + B].copy())


@dataclass(frozen=True)
class ConstraintBlock:
    """Sparse system ``matrix @ x >= rhs`` with per-row labels."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    labels: tuple[tuple, ...]  # (kind, b, n, j) with j = -1 where not applicable


@dataclass(frozen=True)
class TrajectoryViolation:
    kind: str
    beam: int
    leaf_pair: int
    bixel: int
    amount_s: float


def num_trajectory_variables(machine: MachineModel) -> int:
    return 2 * machine.num_bixels + machine.num_beams


def build_deliverability_constraints(machine: MachineModel) -> ConstraintBlock:
    """Assemble the deliverability rows documented in the module header.

    Rows are built by index arithmetic over (b, n, j), not row by row.
    """
    B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
    dt = machine.traverse_time_s
    rho = machine.min_gap_fraction
    nb = B * N * J
    pairs = np.arange(B * N)                  # (b, n) in C order
    first = pairs[:, None] * J                # l column of bixel 0 of each leaf pair
    steps = first + np.arange(J - 1)          # l columns of bixels 0..J-2

    # Per leaf pair, in row order: r-order, l-order, min-gap (J-1 rows
    # each), first-gap, beam-on; each row is  x[plus] - x[minus] >= bound.
    plus = np.hstack([nb + steps + 1, steps + 1, steps, first, 2 * nb + pairs[:, None] // N])
    minus = np.hstack([nb + steps, steps, nb + steps + 1, nb + first, first + J - 1])
    bound = np.concatenate([np.full(J - 1, dt), np.full(J - 1, dt),
                            np.full(J - 1, -(1.0 - rho) * dt), [rho * dt, dt]])
    num_pair_rows = plus.size
    rows = np.concatenate([np.repeat(np.arange(num_pair_rows), 2),
                           num_pair_rows + pairs,                    # park
                           np.full(B, num_pair_rows + B * N)])       # total-time
    cols = np.concatenate([np.stack([plus.ravel(), minus.ravel()], axis=1).ravel(),
                           nb + first.ravel(), 2 * nb + np.arange(B)])
    vals = np.concatenate([np.tile([1.0, -1.0], num_pair_rows), np.ones(B * N), np.full(B, -1.0)])
    rhs = np.concatenate([np.tile(bound, B * N), np.zeros(B * N), [-machine.max_time_s]])
    matrix = sp.csr_matrix((vals, (rows, cols)),
                           shape=(rhs.size, num_trajectory_variables(machine)))

    template = ([("r-order", j) for j in range(J - 1)] + [("l-order", j) for j in range(J - 1)]
                + [("min-gap", j) for j in range(J - 1)] + [("first-gap", 0), ("beam-on", J - 1)])
    labels = [(kind, b, n, j) for b in range(B) for n in range(N) for kind, j in template]
    labels += [("park", b, n, 0) for b in range(B) for n in range(N)]
    labels.append(("total-time", -1, -1, -1))
    return ConstraintBlock(matrix=matrix, rhs=rhs, labels=tuple(labels))


def validate_trajectories(traj: Trajectories, machine: MachineModel):
    """Report every deliverability row violated by more than 1e-9 seconds."""
    block = build_deliverability_constraints(machine)
    slack = block.matrix @ traj.stacked() - block.rhs
    out = []
    for i in np.flatnonzero(slack < -1e-9):
        kind, b, n, j = block.labels[i]
        out.append(TrajectoryViolation(kind=kind, beam=b, leaf_pair=n, bixel=j,
                                       amount_s=float(-slack[i])))
    return out


def fluence_from_trajectories(traj: Trajectories, machine: MachineModel) -> np.ndarray:
    """Beamlet weights, shape (B, N, J).

    Each bixel's weight is the dose rate times its open exposure
    ``l - r`` plus leakage through closed leaves for the rest of the
    beam-on time: ``rate * (l - r + tau * (T - (l - r)))``.
    """
    gap = traj.l - traj.r
    return machine.dose_rate * (gap + machine.transmission * (traj.T[:, None, None] - gap))


def dose_from_trajectories(influence: DoseInfluence, traj: Trajectories,
                           machine: MachineModel) -> np.ndarray:
    """Voxel dose vector for a trajectory set: the influence's CSC times fluence."""
    if influence.matrix.shape[1] != machine.num_bixels:
        raise ValueError("dose influence and machine bixel counts disagree")
    weights = fluence_from_trajectories(traj, machine)
    return influence.matrix @ weights.ravel()


def sweep_time_lower_bound(fluence: np.ndarray, machine: MachineModel) -> float:
    """Lower bound (seconds) on total delivery time for a fluence map.

    Per beam: every leaf pair must traverse all J bixels (``J * dt``) and
    in a single left-to-right sweep the open time spent on a row is at
    least the sum of positive fluence increments along it divided by the
    effective open dose rate ``rate * (1 - tau)``.  The bound is the sum
    over beams of the worst row.
    """
    weights = np.asarray(fluence, dtype=float)
    B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
    if weights.shape != (B, N, J):
        raise ValueError(f"fluence shape {weights.shape} does not match machine {(B, N, J)}")
    if np.any(weights < 0):
        raise ValueError("fluence must be nonnegative")
    increments = np.diff(np.concatenate([np.zeros((B, N, 1)), weights], axis=2), axis=2)
    row_open = np.sum(np.maximum(increments, 0.0), axis=2) / (machine.dose_rate * (1.0 - machine.transmission))
    return float(np.sum(J * machine.traverse_time_s + np.max(row_open, axis=1)))


def write_trajectories_csv(path, traj: Trajectories) -> None:
    """Columns (beam, leaf_pair, bixel, l_time_s, r_time_s) plus T rows."""
    rows = [["bixel", b, n, j, traj.l[b, n, j], traj.r[b, n, j]]
            for b, n, j in np.ndindex(traj.l.shape)]
    rows += [["beam_on", b, "", "", t, ""] for b, t in enumerate(traj.T)]
    write_csv(path, ["record", "beam", "leaf_pair", "bixel", "l_time_s", "r_time_s"], rows)


def _finite_times(*cells: str) -> list[float]:
    times = [float(cell) for cell in cells]
    if not np.all(np.isfinite(times)):
        raise ValueError(f"non-finite time in {', '.join(cells)}")
    return times


def read_trajectories_csv(path, machine: MachineModel) -> Trajectories:
    B, N, J = machine.num_beams, machine.leaf_pairs, machine.bixels_per_row
    l = np.full((B, N, J), np.nan)
    r = np.full((B, N, J), np.nan)
    T = np.full(B, np.nan)
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not a text file: {exc}")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty trajectory file", line=1)
    if header[:1] != ["record"]:
        raise DataError("missing trajectory header", line=1)
    for lineno, row in enumerate(reader, start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells where the header has {len(header)}")
            if row[0] == "bixel":
                b, n, j = int(row[1]), int(row[2]), int(row[3])
                if min(b, n, j) < 0:  # too large an index raises IndexError below
                    raise ValueError(f"negative index in bixel ({b}, {n}, {j})")
                if not np.isnan(l[b, n, j]):
                    raise ValueError(f"bixel ({b}, {n}, {j}) given twice")
                l[b, n, j], r[b, n, j] = _finite_times(row[4], row[5])
            elif row[0] == "beam_on":
                b = int(row[1])
                if b < 0:
                    raise ValueError(f"negative beam index {b}")
                if not np.isnan(T[b]):
                    raise ValueError(f"beam_on {b} given twice")
                T[b] = _finite_times(row[4])[0]
            else:
                raise ValueError(f"unknown record {row[0]!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(str(exc), line=lineno)
    if np.any(np.isnan(l)) or np.any(np.isnan(r)) or np.any(np.isnan(T)):
        raise DataError("trajectory file does not cover every bixel/beam")
    return Trajectories(l=l, r=r, T=T)


def write_fluence_csv(path, fluence: np.ndarray, beam: int) -> None:
    """One beam's fluence as an N x J grid, leaf pairs as rows."""
    weights = np.asarray(fluence, dtype=float)[beam]
    write_csv(path, [f"bixel_{j}" for j in range(weights.shape[1])], weights)
