"""File outputs: CSV reports, PGM heatmaps, SVG traces, run manifests.

Every writer goes through an atomic temp-file-plus-rename, so a crashed
run never leaves a half-written report. Floats are serialized with 17
significant digits, which round-trips IEEE doubles exactly; determinism
tests compare these files byte for byte. ``write_float_csv`` formats each
distinct bit pattern of its block once, and ``write_pgm`` fills one
template for the whole gray block, which it can write to more than one
file.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import RunConfig, format_config

__all__ = [
    "format_float",
    "atomic_write_text",
    "write_csv",
    "write_float_csv",
    "write_pgm",
    "write_svg_trace",
    "write_manifest",
]


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def atomic_write_text(path: str, text: str) -> None:
    """Write text then rename into place, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One line per row, each cell formatted by its type."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_float_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Float columns side by side, in ``write_csv``'s bytes.

    Each distinct bit pattern of the block is formatted once, and one
    template for the block is filled from those cells. Keys are bits, so
    0.0 and -0.0 stay apart, as do NaN payloads. A solution's coordinate
    columns hold only nx + ny distinct values, and v is often u bitwise.
    """
    block = np.column_stack(columns).astype(np.float64, copy=False)
    keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
    text = "\n".join(["%.17g"] * keys.size) % tuple(keys.view(np.float64).tolist())
    cells = np.array(text.split("\n"), dtype=object)
    template = "%s\n" + (",".join(["%s"] * block.shape[1]) + "\n") * len(block)
    atomic_write_text(path, template % (",".join(header), *cells[inverse.ravel()].tolist()))


def _pgm_image(mesh: np.ndarray) -> str:
    """The plain (P2) grayscale image of a 2D interior mesh, row-major, after its comment line.

    That is the size line, the maximum gray value 255 and the gray rows.
    Values are linearly rescaled to 0..255; a constant field maps to
    mid-gray. Only meaningful for 2D fields.
    """
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 2:
        raise ValueError(f"heatmaps need a 2D mesh, got shape {mesh.shape}")
    lo, hi = float(mesh.min()), float(mesh.max())
    if hi > lo:
        gray = np.rint((mesh - lo) / (hi - lo) * 255.0).astype(int)
    else:
        gray = np.full(mesh.shape, 128, dtype=int)
    rows = (" ".join(["%d"] * mesh.shape[1]) + "\n") * mesh.shape[0]
    return f"{mesh.shape[1]} {mesh.shape[0]}\n255\n" + rows % tuple(gray.ravel().tolist())


def write_pgm(path: str, mesh, comment: str = "") -> str:
    """Plain (P2) grayscale image of a 2D interior mesh (see :func:`_pgm_image`).

    ``comment``, if any, is written as a comment line. Returns the image
    after that line, which a later call may take in place of ``mesh`` to
    write the same image under another comment.
    """
    image = mesh if isinstance(mesh, str) else _pgm_image(mesh)
    atomic_write_text(path, "P2\n" + (f"# {comment}\n" if comment else "") + image)
    return image


def _polyline(xs: np.ndarray, ys: np.ndarray, color: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def write_svg_trace(path: str, energies: Sequence[float], grad_norms: Sequence[float]) -> None:
    """Small static SVG: energy per iterate and log10 gradient norm."""
    width, height, pad = 640, 360, 40
    n = max(len(energies), 2)
    xs = pad + np.arange(len(energies)) * (width - 2 * pad) / (n - 1)

    def scaled(values: np.ndarray) -> np.ndarray:
        lo, hi = float(values.min()), float(values.max())
        if hi <= lo:
            return np.full(values.shape, height / 2.0)
        return height - pad - (values - lo) / (hi - lo) * (height - 2 * pad)

    energy_arr = np.asarray(energies, dtype=float)
    grads = np.log10(np.maximum(np.asarray(grad_norms, dtype=float), 1e-300))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _polyline(xs, scaled(energy_arr), "#1f77b4"),
        _polyline(xs, scaled(grads), "#d62728"),
        f'<text x="{pad}" y="20" font-size="12" fill="#1f77b4">energy</text>',
        f'<text x="{pad + 70}" y="20" font-size="12" fill="#d62728">log10 gradient</text>',
        "</svg>",
    ]
    atomic_write_text(path, "\n".join(parts) + "\n")


def write_manifest(
    path: str,
    cfg: RunConfig,
    metadata: Mapping[str, str],
    steps: Sequence[tuple[str, str]] = (),
) -> None:
    """Record the exact configuration plus run metadata.

    Metadata and step outcomes ride in comment lines, so the manifest
    body re-parses to a configuration equal to the one that ran.
    """
    lines = ["# run manifest"]
    for key, val in metadata.items():
        lines.append(f"# {key} = {val}")
    for name, outcome in steps:
        lines.append(f"# step {name}: {outcome}")
    text = "\n".join(lines) + "\n" + format_config(cfg)
    atomic_write_text(path, text)
