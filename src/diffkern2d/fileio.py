"""Deterministic file output: JSON reports, CSV tables, P2 graymaps, SVG.

``write_json_report`` is ``json.dumps`` with a numpy hook, and
``write_rho_csv``, ``write_convergence_csv``, ``write_matrix_csv`` and
``write_pgm`` are each one ``np.savetxt``.  Reports must be byte-identical
across runs with the same config and seed: floats are serialized with
Python's shortest round-trip repr (JSON) or 17 digits (CSV), keys are
sorted, and nothing time- or path-dependent is written.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "write_json_report",
    "write_rho_csv",
    "write_convergence_csv",
    "write_convergence_svg",
    "read_image",
    "write_pgm",
    "write_matrix_csv",
]


def _jsonable(obj):
    """``json.dumps`` hook for numpy scalars and arrays."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json_report(path, payload: dict) -> None:
    text = json.dumps(payload, default=_jsonable, indent=2, sort_keys=True,
                      allow_nan=True)
    Path(path).write_text(text + "\n")


def write_rho_csv(path, coords, values) -> None:
    """One row per (lam, mu) pair: ``coords`` (k, 4) complex holds
    (lam1, lam2, mu1, mu2) and ``values`` (k,) complex holds rho.

    Columns: lam1_re, lam1_im, lam2_re, lam2_im, mu1_re, mu1_im,
    mu2_re, mu2_im, rho_re, rho_im.  Skipped pairs carry nan values and
    are listed in the JSON report with their reason.
    """
    table = np.column_stack([coords, values]).view(float)
    np.savetxt(path, table, fmt="%.17e", delimiter=",", comments="",
               header="lam1_re,lam1_im,lam2_re,lam2_im,"
                      "mu1_re,mu1_im,mu2_re,mu2_im,rho_re,rho_im")


def write_convergence_csv(path, sizes, series: dict) -> None:
    names = sorted(series)
    table = np.column_stack([sizes] + [series[name] for name in names])
    np.savetxt(path, table, fmt=["%d"] + ["%.17e"] * len(names), delimiter=",",
               comments="", header="n," + ",".join(names))


def write_convergence_svg(path, sizes, series: dict) -> None:
    """Minimal static log2-log2 line chart, one polyline per series."""
    W, H, ML, MB, MT, MR = 640, 420, 70, 50, 30, 160
    xs = np.log2(np.asarray(sizes, dtype=float))
    all_vals = np.array([v for vals in series.values() for v in vals], dtype=float)
    all_vals = all_vals[all_vals > 0]
    if all_vals.size == 0:
        lo, hi = -1.0, 1.0
    else:
        lo = float(np.floor(np.log2(all_vals.min())))
        hi = float(np.ceil(np.log2(all_vals.max())))
        if hi == lo:
            hi = lo + 1
    x0, x1 = float(xs.min()), float(xs.max())
    if x1 == x0:
        x1 = x0 + 1

    def px(x):
        return ML + (x - x0) / (x1 - x0) * (W - ML - MR)

    def py(y):
        return H - MB - (y - lo) / (hi - lo) * (H - MB - MT)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{ML}" y="{MT - 10}" font-size="13" font-family="monospace">'
        'residual convergence</text>',
        f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" stroke="black"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>',
        f'<text x="{(W - MR + ML) / 2}" y="{H - 12}" font-size="12" '
        f'font-family="monospace">log2 n</text>',
        f'<text x="12" y="{(H - MB + MT) / 2}" font-size="12" font-family="monospace" '
        f'transform="rotate(-90 12 {(H - MB + MT) / 2})">log2 residual</text>',
    ]
    for xv in xs:
        parts.append(f'<text x="{px(xv) - 8}" y="{H - MB + 16}" font-size="11" '
                     f'font-family="monospace">{xv:g}</text>')
    for yv in range(int(lo), int(hi) + 1, max(1, int((hi - lo) // 6) or 1)):
        parts.append(f'<text x="{ML - 40}" y="{py(yv) + 4}" font-size="11" '
                     f'font-family="monospace">{yv}</text>')
    for ci, name in enumerate(sorted(series)):
        vals = np.asarray(series[name], dtype=float)
        color = colors[ci % len(colors)]
        pts = []
        for xv, yv in zip(xs, vals):
            if yv > 0:
                pts.append(f"{px(xv):.1f},{py(np.log2(yv)):.1f}")
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            for p in pts:
                cx, cy = p.split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
        ly = MT + 16 * ci + 10
        parts.append(f'<line x1="{W - MR + 8}" y1="{ly - 4}" x2="{W - MR + 28}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{W - MR + 34}" y="{ly}" font-size="11" '
                     f'font-family="monospace">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# --------------------------------------------------------------------------
# images
# --------------------------------------------------------------------------


def read_image(path):
    """Read a plain-text P2 graymap or a CSV matrix.

    Returns (array (rows, cols) float, maxval or None).  A non-finite
    pixel is an error that names the file and its (row, col), 0-based; so
    is a P2 pixel outside 0..maxval, a P2 header outside Netpbm's limits
    (width, height >= 1, maxval in 1..65535), a P2 pixel count other than
    width * height, a CSV with no rows, a raw P5 graymap and a file that is
    not UTF-8 text.
    """
    p = Path(path)
    arr, maxval = _read_pixels(p)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        row, col = bad[0]
        raise InvalidArgumentError(
            f"{p}: non-finite pixel {arr[row, col]} at (row, col) = ({row}, {col})"
        )
    return arr, maxval


def _read_pixels(p: Path):
    raw = p.read_bytes()
    if raw.lstrip().startswith(b"P5"):
        raise InvalidArgumentError(f"{p}: a raw P5 graymap; only plain P2 is read")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{p}: not UTF-8 text: byte 0x{raw[exc.start]:02x} "
                                   f"at offset {exc.start}") from exc
    if text.lstrip().startswith("P2"):
        tokens = []
        for line in text.splitlines():
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
        if not tokens or tokens[0] != "P2":
            raise InvalidArgumentError(f"{p}: not a P2 graymap")
        try:
            w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
            pix = np.array([float(t) for t in tokens[4:]])
        except (ValueError, IndexError) as exc:
            raise InvalidArgumentError(f"{p}: malformed P2 data: {exc}") from exc
        if w < 1 or h < 1 or not 1 <= maxval <= 65535:     # Netpbm's limits
            raise InvalidArgumentError(f"{p}: P2 needs width, height >= 1 and maxval "
                                       f"in 1..65535, got {w} {h} {maxval}")
        if pix.size != w * h:
            raise InvalidArgumentError(
                f"{p}: expected {w * h} pixels, found {pix.size}"
            )
        bad = np.flatnonzero((pix < 0) | (pix > maxval))
        if bad.size:
            raise InvalidArgumentError(f"{p}: pixel {pix[bad[0]]:g} at (row, col) = "
                                       f"{divmod(int(bad[0]), w)} is outside 0..{maxval}")
        return pix.reshape(h, w), maxval
    # CSV matrix; np.loadtxt only warns when no row is left past '#' comments
    if not any(line.split("#", 1)[0].strip() for line in text.splitlines()):
        raise InvalidArgumentError(f"{p}: no pixels, neither P2 nor CSV matrix")
    try:
        arr = np.loadtxt(p, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidArgumentError(f"{p}: neither P2 nor CSV matrix: {exc}") from exc
    return arr, None


def write_pgm(path, arr: np.ndarray, maxval: int = 255) -> None:
    clipped = np.clip(np.rint(np.real(arr)), 0, maxval).astype(int)
    h, w = clipped.shape
    np.savetxt(path, clipped, fmt="%d", comments="", header=f"P2\n{w} {h}\n{maxval}")


def write_matrix_csv(path, arr: np.ndarray) -> None:
    np.savetxt(path, np.asarray(arr), delimiter=",", fmt="%.17e")
