"""Volume-weighted dose statistics and plan-quality evaluation.

All statistics operate on a dose vector ``d`` (Gy per voxel) and a
relative-volume weight vector ``w`` over the same voxels: the region of
interest's own, ``d[roi.voxels]`` with ``roi.weights`` as the planner
passes them, or all voxels, with ``roi_weight_vector``'s zeros outside
the region.  The weights sum to one.  Quantile boundaries are split
fractionally, so the hottest ``v``-fraction has total weight exactly
``v`` and the tail means are continuous in ``v``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .fileio import write_csv
from .phantom import Phantom

_EPS = 1e-12
_DVH_STEP_GY = 0.1


@dataclass(frozen=True)
class QualityIndexSpec:
    """One plan-quality index: dose-at-volume, average or homogeneity."""

    name: str
    roi: str
    kind: str  # "dose-at-volume" | "average" | "homogeneity"
    aim: str   # "minimize" | "maximize"
    volume: float | None = None      # hot volume fraction for dose-at-volume
    low_pct: float | None = None     # homogeneity: low-percentage fraction
    high_pct: float | None = None    # homogeneity: high-percentage fraction

    def __post_init__(self):
        if self.kind not in ("dose-at-volume", "average", "homogeneity"):
            raise ValueError(f"unknown quality index kind {self.kind!r}")
        if self.aim not in ("minimize", "maximize"):
            raise ValueError(f"unknown aim {self.aim!r}")
        if self.kind == "dose-at-volume":
            if self.volume is None or not (0.0 < self.volume < 1.0):
                raise ValueError(f"index {self.name!r}: volume must lie in (0, 1)")
        elif self.volume is not None:
            raise ValueError(f"index {self.name!r}: volume only applies to dose-at-volume")
        if self.kind == "homogeneity":
            if self.low_pct is None or self.high_pct is None:
                raise ValueError(f"index {self.name!r}: homogeneity needs low/high fractions")
            if not (0.0 < self.low_pct < self.high_pct < 1.0):
                raise ValueError(f"index {self.name!r}: need 0 < low < high < 1")
        elif self.low_pct is not None or self.high_pct is not None:
            raise ValueError(f"index {self.name!r}: low/high fractions only apply to homogeneity")


@dataclass(frozen=True)
class ViolationRecord:
    """Achieved value of one criterion against its hard bound."""

    criterion: str
    roi: str
    statistic: str          # e.g. "dose-at-volume(0.5)", "max", "average"
    achieved_gy: float      # criterion's own statistic on the dose
    tail_gy: float          # mean-tail-dose counterpart the optimizer bounds
    bound_gy: float
    bound_kind: str         # "upper" | "lower"
    relative_violation: float
    over_1pct: bool


def _compress(d: np.ndarray, w: np.ndarray):
    d = np.asarray(d, dtype=float)
    w = np.asarray(w, dtype=float)
    if d.shape != w.shape:
        raise ValueError("dose and weight vectors must have the same shape")
    support = w > 0.0
    if not np.any(support):
        raise ValueError("empty weight support")
    dv = d[support]
    wv = w[support]
    total = float(wv.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return dv, wv


def _tail_mean_hot(dv: np.ndarray, wv: np.ndarray, fraction: float) -> float:
    """Weighted mean of the hottest ``fraction``, boundary split fractionally."""
    order = np.argsort(-dv, kind="stable")
    ds = dv[order]
    ws = wv[order]
    cum = np.cumsum(ws)
    fraction = min(fraction, float(cum[-1]))
    k = int(np.searchsorted(cum, fraction - _EPS))
    prev = cum[k - 1] if k > 0 else 0.0
    partial = fraction - prev
    acc = float(np.dot(ds[:k], ws[:k])) + partial * float(ds[k]) if k < ds.size else float(np.dot(ds, ws))
    return acc / fraction


def dose_at_volume(d: np.ndarray, w: np.ndarray, v: float) -> float:
    """Dose level at hot-volume fraction ``v``.

    Returns the largest dose ``x`` such that the weight of voxels with
    dose >= ``x`` is at least ``v``; equivalently the minimum dose
    received by the hottest ``v``-fraction.  ``v=0`` and ``v=1`` resolve
    to the maximum and minimum dose on the support.
    """
    dv, wv = _compress(d, w)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"volume fraction must lie in [0, 1], got {v!r}")
    if v <= 0.0:
        return float(dv.max())
    if v >= 1.0:
        return float(dv.min())
    order = np.argsort(-dv, kind="stable")
    ds = dv[order]
    cum = np.cumsum(wv[order])
    k = int(np.searchsorted(cum, v - _EPS))
    k = min(k, ds.size - 1)
    return float(ds[k])


def upper_mean_tail_dose(d: np.ndarray, w: np.ndarray, v: float) -> float:
    """Mean dose of the hottest ``v``-fraction (``v=1`` gives the mean dose)."""
    if not (0.0 < v <= 1.0):
        raise ValueError(f"volume fraction must lie in (0, 1], got {v!r}")
    dv, wv = _compress(d, w)
    return _tail_mean_hot(dv, wv, v)


def lower_mean_tail_dose(d: np.ndarray, w: np.ndarray, v: float) -> float:
    """Mean dose of the coldest ``(1-v)``-fraction (``v=0`` gives the mean dose)."""
    if not (0.0 <= v < 1.0):
        raise ValueError(f"volume fraction must lie in [0, 1), got {v!r}")
    dv, wv = _compress(d, w)
    return _tail_mean_hot(-dv, wv, 1.0 - v) * -1.0


def mean_dose(d: np.ndarray, w: np.ndarray) -> float:
    dv, wv = _compress(d, w)
    return float(np.dot(dv, wv))


def min_dose(d: np.ndarray, w: np.ndarray) -> float:
    dv, _ = _compress(d, w)
    return float(dv.min())


def max_dose(d: np.ndarray, w: np.ndarray) -> float:
    dv, _ = _compress(d, w)
    return float(dv.max())


def dvh_curve(d: np.ndarray, w: np.ndarray, dose_grid: np.ndarray) -> np.ndarray:
    """Cumulative DVH: fraction of ROI volume receiving at least each dose.

    ``dose_grid`` must be monotone non-decreasing; the returned curve is
    non-increasing and equals 1 at dose 0 for nonnegative dose.
    """
    grid = np.asarray(dose_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("dose_grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) < 0):
        raise ValueError("dose_grid must be monotone non-decreasing")
    dv, wv = _compress(d, w)
    order = np.argsort(dv, kind="stable")
    ds = dv[order]
    ws = wv[order]
    # weight of voxels with dose >= x  ==  total - weight of dose < x
    cum_below = np.concatenate([[0.0], np.cumsum(ws)])
    idx = np.searchsorted(ds, grid, side="left")
    return float(ws.sum()) - cum_below[idx]


def homogeneity_index(d: np.ndarray, w: np.ndarray, low_pct: float, high_pct: float) -> float:
    """Difference between a low- and a high-percentage dose-at-volume, >= 0."""
    if not (0.0 < low_pct < high_pct < 1.0):
        raise ValueError("need 0 < low_pct < high_pct < 1")
    return dose_at_volume(d, w, low_pct) - dose_at_volume(d, w, high_pct)


def quality_index_value(d: np.ndarray, w: np.ndarray, spec: QualityIndexSpec) -> float:
    if spec.kind == "dose-at-volume":
        return dose_at_volume(d, w, spec.volume)
    if spec.kind == "average":
        return mean_dose(d, w)
    return homogeneity_index(d, w, spec.low_pct, spec.high_pct)


def criterion_statistics(d: np.ndarray, w: np.ndarray, criterion) -> tuple[str, float, float]:
    """(label, achieved statistic, mean-tail-dose counterpart) for a criterion."""
    ctype = criterion.ctype
    if ctype == "dav-min":
        return (f"dose-at-volume({criterion.volume:g})",
                dose_at_volume(d, w, criterion.volume),
                upper_mean_tail_dose(d, w, criterion.volume))
    if ctype == "dav-max":
        return (f"dose-at-volume({criterion.volume:g})",
                dose_at_volume(d, w, criterion.volume),
                lower_mean_tail_dose(d, w, criterion.volume))
    if ctype == "max":
        value = max_dose(d, w)
        return ("max", value, value)
    if ctype == "min":
        value = min_dose(d, w)
        return ("min", value, value)
    value = mean_dose(d, w)
    return ("average", value, value)


def evaluate_plan(phantom: Phantom, d: np.ndarray, index_specs, criteria):
    """Quality index vector and hard-bound violation report for a dose.

    Returns ``(quality, violations)`` where ``quality`` follows the order
    of ``index_specs`` and ``violations`` holds one record per hard bound
    among ``criteria``.  Violations are computed on the criterion's own
    statistic; records are flagged when the relative violation exceeds
    one percent.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (phantom.num_voxels,):
        raise ValueError("dose and phantom must have the same number of voxels")
    quality = np.empty(len(index_specs))
    for i, spec in enumerate(index_specs):
        roi = phantom.roi(spec.roi)
        quality[i] = quality_index_value(d[roi.voxels], roi.weights, spec)

    violations: list[ViolationRecord] = []
    for criterion in criteria:
        roi = phantom.roi(criterion.roi)
        label, achieved, tail = criterion_statistics(d[roi.voxels], roi.weights, criterion)
        for bound, bound_kind in ((criterion.hard_upper, "upper"), (criterion.hard_lower, "lower")):
            if bound is None:
                continue
            if bound_kind == "upper":
                excess = max(achieved - bound, 0.0)
            else:
                excess = max(bound - achieved, 0.0)
            rel = excess / abs(bound) if bound != 0.0 else (0.0 if excess == 0.0 else float("inf"))
            violations.append(ViolationRecord(
                criterion=criterion.name or f"{criterion.roi}:{label}",
                roi=criterion.roi,
                statistic=label,
                achieved_gy=achieved,
                tail_gy=tail,
                bound_gy=float(bound),
                bound_kind=bound_kind,
                relative_violation=rel,
                over_1pct=rel > 0.01,
            ))
    return quality, violations


def default_dose_grid(d: np.ndarray) -> np.ndarray:
    """Regular DVH grid, ``_DVH_STEP_GY`` apart, from 0 to just above the maximum dose."""
    top = float(np.max(d)) if np.asarray(d).size else 0.0
    n = max(int(np.ceil(top / _DVH_STEP_GY)) + 2, 2)
    return np.arange(n) * _DVH_STEP_GY


def write_dvh_csv(path, dose_grid: np.ndarray, curves: dict[str, np.ndarray]) -> None:
    """DVH export: one dose column plus one cumulative-fraction column per ROI."""
    names = list(curves)
    write_csv(path, ["dose_gy"] + names,
              np.column_stack([dose_grid] + [curves[name] for name in names]))


def write_violation_csv(path, violations) -> None:
    write_csv(path, [f.name for f in fields(ViolationRecord)], map(astuple, violations))
