"""Deterministic output files: binary field dumps, CSV tables, run manifests.

Field dumps are a JSON header next to a raw little-endian float64 payload
(row-major, one real value per grid point).  The reader rejects a malformed
header and a non-finite payload with ``ValueError``.  CSV floats are written
with 17 significant digits so values round-trip exactly.  Every writer
creates the directories above its file, so an output directory exists only
once a file has been written into it, and replaces a file already there
with a new one rather than rewriting it in place.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .spectral_field import GridSpec, RealField

CSV_SCHEMA_VERSION = 1


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _new_file(path: Union[str, Path]) -> Path:
    """``path`` as a :class:`Path`, with the directories above it created.

    A file already at ``path`` is unlinked, so the write makes a new file:
    truncating the old one in place can wait for its data to be written
    back to disk first (tens of ms per file on ext4).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    return path


def write_csv(path: Union[str, Path], header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    _new_file(path).write_text("\n".join(lines) + "\n")


def write_json(path: Union[str, Path], obj) -> None:
    """``obj`` as indented JSON with sorted keys."""
    _new_file(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_field_dump(
    json_path: Union[str, Path],
    field: RealField,
    seed: Optional[int] = None,
    alpha: Optional[float] = None,
) -> None:
    json_path = _new_file(json_path)
    header = {"n": field.grid.n, "kind": "real", "seed": seed, "alpha": alpha}
    json_path.write_text(json.dumps(header, sort_keys=True) + "\n")
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    _new_file(json_path.with_suffix(".bin")).write_bytes(payload.tobytes())


def read_field_dump(json_path: Union[str, Path]) -> RealField:
    json_path = Path(json_path)
    header = json.loads(json_path.read_text())
    if not isinstance(header, dict):
        raise ValueError(f"{json_path}: field dump header must be a JSON object")
    n, kind = header.get("n"), header.get("kind")
    if type(n) is not int:
        raise ValueError(f"{json_path}: field dump header needs an integer 'n', got {n!r}")
    if kind != "real":
        raise ValueError(f"{json_path}: unknown field kind {kind!r}")
    grid = GridSpec(n)
    raw = np.frombuffer(json_path.with_suffix(".bin").read_bytes(), dtype="<f8")
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"{json_path}: field payload holds non-finite values")
    if raw.size != n * n:
        raise ValueError("field payload size does not match header")
    return RealField(grid, raw.reshape(n, n))


def write_manifest(
    outdir: Union[str, Path],
    command: str,
    config_echo: dict,
    wall_time_s: float,
    blas_threads: Optional[int],
) -> None:
    """``manifest.json``; ``master_seed`` is ``config_echo["seed"]`` and
    ``blas_threads`` the OpenBLAS thread count in effect, None if unpinned."""
    write_json(Path(outdir) / "manifest.json", {
        "command": command,
        "config_echo": config_echo,
        "master_seed": int(config_echo["seed"]),
        "tool_version": __version__,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "wall_time_s": wall_time_s,
        "blas_threads": blas_threads,
    })
