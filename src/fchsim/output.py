"""Run artifacts: field snapshots, diagnostics CSV, and the run manifest.

Snapshot format: one ASCII header line followed by the raw field as
little-endian float64, row-major.  The header carries the magic tag, grid
shape and lengths, simulated time, step index, seed and a parameter hash, so
a snapshot is self-describing and round-trips bit-exactly.

The diagnostics CSV has the fixed column set

    step,t,dt,E_fch,E_ch,E_pfw,mass,min,max,h2norm,gradmu,psd_iters,residual

with floats printed at 17 significant digits (rate fits downstream are
sensitive to rounding).
"""

from __future__ import annotations

import hashlib
import io
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TextIO

import numpy as np

from .dynamics import DiagnosticsRecord
from .grid import Grid

__all__ = [
    "SnapshotFormatError",
    "SnapshotMeta",
    "params_digest",
    "write_snapshot",
    "read_snapshot",
    "snapshot_text",
    "DiagnosticsWriter",
    "DIAGNOSTICS_COLUMNS",
    "write_manifest",
]

SNAPSHOT_MAGIC = "FCHSNAP1"
DIAGNOSTICS_COLUMNS = (
    "step,t,dt,E_fch,E_ch,E_pfw,mass,min,max,h2norm,gradmu,psd_iters,residual"
)


class SnapshotFormatError(ValueError):
    """Snapshot header or payload does not match the format contract."""


@dataclass(frozen=True)
class SnapshotMeta:
    grid: Grid
    time: float
    step: int
    seed: int
    params: str


def params_digest(*values) -> str:
    """Short stable hash of the resolved run parameters."""
    text = "|".join(f"{v!r}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_snapshot(
    path: str | Path,
    phi: np.ndarray,
    grid: Grid,
    *,
    time: float = 0.0,
    step: int = 0,
    seed: int = 0,
    params: str = "",
) -> None:
    if phi.shape != grid.shape:
        raise SnapshotFormatError(
            f"field shape {phi.shape} does not match grid shape {grid.shape}"
        )
    header = " ".join(
        [
            SNAPSHOT_MAGIC,
            f"ndim={grid.ndim}",
            "shape=" + ",".join(str(n) for n in grid.shape),
            "lengths=" + ",".join(_fmt(l) for l in grid.lengths),
            "spacing=" + ",".join(_fmt(h) for h in grid.spacing),
            f"time={_fmt(time)}",
            f"step={step}",
            f"seed={seed}",
            f"params={params or 'none'}",
        ]
    )
    data = np.ascontiguousarray(phi, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(data.tobytes())


def read_snapshot(path: str | Path) -> tuple[np.ndarray, SnapshotMeta]:
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        tokens = header.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"{path}: header is not ASCII") from exc
    if not tokens or tokens[0] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic, not a field snapshot")
    tags = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise SnapshotFormatError(f"{path}: malformed header token {tok!r}")
        key, value = tok.split("=", 1)
        tags[key] = value
    try:
        shape = tuple(int(s) for s in tags["shape"].split(","))
        lengths = tuple(float(s) for s in tags["lengths"].split(","))
        meta = SnapshotMeta(
            grid=Grid(shape, lengths),
            time=float(tags["time"]),
            step=int(tags["step"]),
            seed=int(tags["seed"]),
            params=tags.get("params", "none"),
        )
    except (KeyError, ValueError) as exc:
        raise SnapshotFormatError(f"{path}: malformed header: {exc}") from exc
    expected = int(np.prod(shape)) * 8
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"{path}: payload has {len(payload)} bytes, header promises {expected}"
        )
    phi = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return phi, meta


def snapshot_text(phi: np.ndarray) -> str:
    """Plain-text matrix export for small grids (one row per line)."""
    buf = io.StringIO()
    np.savetxt(buf, np.atleast_2d(phi), fmt="%.17g")
    return buf.getvalue()


class DiagnosticsWriter:
    """Streams one CSV row per accepted step, flushing as it goes."""

    def __init__(self, path: str | Path):
        self._fh: TextIO = open(path, "w", encoding="ascii")
        self._fh.write(DIAGNOSTICS_COLUMNS + "\n")
        self._fh.flush()

    def write(self, rec: DiagnosticsRecord) -> None:
        row = ",".join(
            str(v) if isinstance(v, int) else _fmt(v)
            for v in (getattr(rec, f.name) for f in fields(rec))
        )
        self._fh.write(row + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "DiagnosticsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_manifest(path: str | Path, config_text: str) -> None:
    from . import __version__

    lines = [
        f"# fchsim {__version__} on python {sys.version.split()[0]}, numpy {np.__version__}",
        "",
        config_text.rstrip("\n"),
        "",
    ]
    Path(path).write_text("\n".join(lines), encoding="ascii")
