"""Dependency-free SVG renderers for Pareto scatters and DVH bands."""

from __future__ import annotations

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_VIEWS = ((35.0, 25.0), (125.0, 25.0))  # (azimuth, elevation) of each panel, degrees

_CUBE_EDGES = [
    ((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1)),
    ((1, 1, 0), (0, 1, 0)), ((1, 1, 0), (1, 0, 0)), ((1, 1, 0), (1, 1, 1)),
    ((1, 0, 1), (0, 0, 1)), ((1, 0, 1), (1, 0, 0)), ((1, 0, 1), (1, 1, 1)),
    ((0, 1, 1), (0, 0, 1)), ((0, 1, 1), (0, 1, 0)), ((0, 1, 1), (1, 1, 1)),
]


def _project(points: np.ndarray, azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    a = np.deg2rad(azimuth_deg)
    e = np.deg2rad(elevation_deg)
    x = np.cos(a) * points[:, 0] - np.sin(a) * points[:, 1]
    y = (np.sin(e) * (np.sin(a) * points[:, 0] + np.cos(a) * points[:, 1])
         + np.cos(e) * points[:, 2])
    return np.stack([x, -y], axis=1)


def _panel(points01, filled, labels, best_corner01, azimuth, elevation,
           offset_x, size, lines):
    pad = 46.0
    span = size - 2 * pad
    proj = _project(points01, azimuth, elevation)
    corners = np.array([edge[i] for edge in _CUBE_EDGES for i in (0, 1)], dtype=float)
    proj_corners = _project(corners, azimuth, elevation)
    all_xy = np.vstack([proj, proj_corners])
    lo = all_xy.min(axis=0)
    hi = all_xy.max(axis=0)
    scale = span / max(float(np.max(hi - lo)), 1e-12)

    def to_screen(xy):
        return (offset_x + pad + (xy[0] - lo[0]) * scale,
                pad + (xy[1] - lo[1]) * scale)

    for start, end in _CUBE_EDGES:
        p0 = to_screen(_project(np.array([start], dtype=float), azimuth, elevation)[0])
        p1 = to_screen(_project(np.array([end], dtype=float), azimuth, elevation)[0])
        lines.append(f'<line x1="{p0[0]:.2f}" y1="{p0[1]:.2f}" x2="{p1[0]:.2f}" '
                     f'y2="{p1[1]:.2f}" stroke="#bbbbbb" stroke-width="1"/>')

    axis_anchor = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    for axis, label in enumerate(labels):
        tip = to_screen(_project(np.array([axis_anchor[axis]], dtype=float),
                                 azimuth, elevation)[0])
        lines.append(f'<text x="{tip[0]:.2f}" y="{tip[1]:.2f}" font-size="11" '
                     f'fill="#333333">{label}</text>')

    if best_corner01 is not None:
        p = to_screen(_project(np.array([best_corner01], dtype=float), azimuth, elevation)[0])
        lines.append(f'<circle cx="{p[0]:.2f}" cy="{p[1]:.2f}" r="7" fill="none" '
                     f'stroke="#000000" stroke-width="1.6"/>')

    for i in range(points01.shape[0]):
        p = to_screen(proj[i])
        if filled[i]:
            lines.append(f'<circle cx="{p[0]:.2f}" cy="{p[1]:.2f}" r="3.4" '
                         f'fill="{_PALETTE[0]}"/>')
        else:
            lines.append(f'<circle cx="{p[0]:.2f}" cy="{p[1]:.2f}" r="3.4" fill="none" '
                         f'stroke="{_PALETTE[0]}" stroke-width="1.4"/>')


def scatter3d_two_views(path, points, labels, aims, filled) -> None:
    """Two-angle 3-D scatter of quality index points, seen from ``_VIEWS``.

    Violating plans should be passed unfilled via ``filled``; the corner
    of best values (per-axis best given each aim) is marked with an open
    black circle.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("scatter3d_two_views expects (n, 3) points")
    filled = np.asarray(filled, dtype=bool)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    rng = np.where(hi - lo > 1e-12, hi - lo, 1.0)
    pts01 = (pts - lo) / rng
    best = np.array([0.0 if aim == "minimize" else 1.0 for aim in aims])

    size = 360
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * size}" height="{size}" '
             f'viewBox="0 0 {2 * size} {size}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for panel, (azimuth, elevation) in enumerate(_VIEWS):
        _panel(pts01, filled, labels, best, azimuth, elevation, panel * size, size, lines)
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def dvh_bands(path, dose_grid, bands, highlight) -> None:
    """Min/max DVH envelopes per ROI with one highlighted plan.

    ``bands`` maps ROI name to an (n_plans, n_grid) array of cumulative
    volume fractions; ``highlight`` maps each of those names to one curve
    drawn on top of its band.
    """
    grid = np.asarray(dose_grid, dtype=float)
    width, height, pad = 560, 360, 48
    x_span = max(float(grid.max()), 1e-12)

    def sx(dose):
        return pad + (dose / x_span) * (width - 2 * pad)

    def sy(fraction):
        return height - pad - fraction * (height - 2 * pad)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             '<rect width="100%" height="100%" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
             f'stroke="#333333"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#333333"/>',
             f'<text x="{width // 2}" y="{height - 12}" font-size="11" fill="#333333">'
             f'dose [Gy]</text>',
             f'<text x="10" y="{pad - 16}" font-size="11" fill="#333333">volume fraction</text>']
    for tick in np.linspace(0.0, x_span, 5):
        lines.append(f'<text x="{sx(tick):.1f}" y="{height - pad + 14}" font-size="9" '
                     f'fill="#555555" text-anchor="middle">{tick:.1f}</text>')
    for tick in (0.0, 0.5, 1.0):
        lines.append(f'<text x="{pad - 6}" y="{sy(tick):.1f}" font-size="9" '
                     f'fill="#555555" text-anchor="end">{tick:.1f}</text>')

    for i, (name, curves) in enumerate(bands.items()):
        color = _PALETTE[i % len(_PALETTE)]
        curves = np.asarray(curves, dtype=float)
        top = curves.max(axis=0)
        bottom = curves.min(axis=0)
        forward = [f"{sx(d):.2f},{sy(f):.2f}" for d, f in zip(grid, top)]
        backward = [f"{sx(d):.2f},{sy(f):.2f}" for d, f in zip(grid[::-1], bottom[::-1])]
        lines.append(f'<polygon points="{" ".join(forward + backward)}" fill="{color}" '
                     f'fill-opacity="0.25" stroke="none"/>')
        pts = " ".join(f"{sx(d):.2f},{sy(f):.2f}" for d, f in zip(grid, highlight[name]))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        lines.append(f'<text x="{width - pad - 150}" y="{pad + 14 + 14 * i}" font-size="11" '
                     f'fill="{color}">{name}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
