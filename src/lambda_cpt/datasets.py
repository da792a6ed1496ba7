"""Dataset emission: CSV files with provenance headers and run manifests.

Every CSV starts with a short '#' comment block naming the product and the
manifest hash, then a header row, then data rows. Floats are printed with
17 significant digits so equal inputs give byte-identical files; the
manifest hash covers resolved inputs and package version only, never wall
time, for the same reason. Nothing here imports numpy: read_csv returns
lists, so a command that computes with ``math`` alone, the contrast fit
among them, starts without it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

__all__ = ["run_manifest", "manifest_hash", "write_csv", "write_manifest", "read_csv"]


def manifest_hash(inputs: dict, version: str) -> str:
    """Hex digest over the canonical JSON form of (inputs, version)."""
    canonical = json.dumps(
        {"inputs": inputs, "version": version}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def run_manifest(inputs: dict, version: str) -> dict:
    """Manifest for one CLI run: resolved inputs, version, and their hash."""
    return {"inputs": inputs, "version": version, "hash": manifest_hash(inputs, version)}


def _format_cell(value) -> str:
    if hasattr(value, "item"):
        # A numpy scalar prints as its Python counterpart, which item() returns.
        value = value.item()
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, columns: dict, digest: str, title: str) -> None:
    """Write named columns to ``path`` with a comment block and header row.

    ``columns`` maps column name to a 1-D sequence; all columns must share
    one length. ``digest`` is the manifest hash echoed into the comment
    block so a dataset can be matched to its manifest later.
    """
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    lengths = {len(columns[name]) for name in names}
    if len(lengths) != 1:
        raise ValueError("columns differ in length")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(f"# {title}\n")
        handle.write(f"# manifest: {digest}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        for row in zip(*(columns[name] for name in names)):
            writer.writerow([_format_cell(cell) for cell in row])


def write_manifest(path, manifest: dict) -> None:
    """Write a manifest, or any report dict, to ``path`` as strict JSON.

    Keys are sorted so equal inputs give byte-identical files. A non-finite
    float raises ValueError instead of becoming a bare NaN or Infinity token,
    which JSON does not allow; the caller writes such a value as text or null.
    """
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )


def read_csv(path) -> dict:
    """Read a CSV written by write_csv back into named columns.

    Comment lines are skipped; a column whose cells all parse as floats
    comes back as a list of floats, any other as a list of strings. Raises
    ValueError for a file with no rows, or with a data row whose length is
    not the header's.
    """
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path} holds no data rows")
    header, body = rows[0], rows[1:]
    for number, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: data row {number} has {len(row)} cells, the header {len(header)}"
            )
    out = {}
    for idx, name in enumerate(header):
        cells = [row[idx] for row in body]
        try:
            out[name] = [float(cell) for cell in cells]
        except ValueError:
            out[name] = cells
    return out
