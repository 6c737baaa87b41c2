"""Artifact file formats: CSV tables, and the binary dose volume.

Dose volume layout (all little-endian): 4-byte magic ``MTDD``, uint32
version (1), three uint32 grid dimensions, then nx*ny*nz float64 dose
values in C order.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .errors import DataError

MAGIC = b"MTDD"
VERSION = 1


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV.

    A Python or numpy float is written as ``repr(float(v))``, which
    ``float()`` reads back exactly; a bool as ``0`` or ``1``; any other
    value as its text.  A float ``ndarray`` of rows goes through
    ``tolist()``, whose Python floats ``csv`` writes by ``repr`` itself.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            writer.writerows(rows.tolist())
            return
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else
                          int(v) if isinstance(v, (bool, np.bool_)) else v
                          for v in row] for row in rows)


def write_dose_volume(path, dose: np.ndarray, grid_dims) -> None:
    nx, ny, nz = (int(d) for d in grid_dims)
    values = np.ascontiguousarray(np.asarray(dose, dtype="<f8").reshape(nx * ny * nz))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<III", nx, ny, nz))
        fh.write(values.tobytes())


def read_dose_volume(path) -> tuple[np.ndarray, tuple[int, int, int]]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DataError(f"bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise DataError("truncated dose volume header")
        version, nx, ny, nz = struct.unpack("<IIII", header)
        if version != VERSION:
            raise DataError(f"unsupported dose volume version {version}")
        # Read what the file holds, never the size the header claims.
        payload = fh.read()
    if len(payload) != 8 * nx * ny * nz:
        raise DataError(f"dose volume payload has {len(payload)} bytes; "
                        f"the header's {nx}x{ny}x{nz} grid needs {8 * nx * ny * nz}")
    dose = np.frombuffer(payload, dtype="<f8").copy()
    bad = np.flatnonzero(~np.isfinite(dose))
    if bad.size:
        raise DataError(f"dose volume voxel {bad[0]} is {float(dose[bad[0]])!r}, not a finite "
                        f"dose; {bad.size} of {dose.size} voxels are not finite")
    return dose, (nx, ny, nz)
