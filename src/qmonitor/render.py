"""Static SVG rendering: heatmaps, line plots, and density-matrix grids.

No plotting dependency: rects, paths and text are emitted directly. Colors
come from an 8-stop viridis-like ramp interpolated linearly in RGB. Output
is deterministic except for the leading version comment.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import __version__

# 8-stop perceptual ramp, dark blue -> green -> yellow.
RAMP = (
    (0x44, 0x01, 0x54),
    (0x46, 0x32, 0x7E),
    (0x36, 0x5C, 0x8D),
    (0x27, 0x7F, 0x8E),
    (0x1F, 0xA1, 0x87),
    (0x4A, 0xC1, 0x6D),
    (0xA0, 0xDA, 0x39),
    (0xFD, 0xE7, 0x25),
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 36, 46


def _require_finite(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise RuntimeError("cannot render non-finite values")
    return values


_RAMP = np.array(RAMP, dtype=float)


def ramp_codes(x) -> np.ndarray:
    """Packed 0xRRGGBB ramp colors for values x in [0, 1], clipped (NaN reads as 0).

    Each channel is interpolated linearly between the two nearest stops and
    rounded half to even.
    """
    pos = np.fmin(np.fmax(np.asarray(x, dtype=float), 0.0), 1.0) * (len(RAMP) - 1)
    i = np.minimum(pos.astype(np.intp), len(RAMP) - 2)
    rgb = np.rint(_RAMP[i] + (pos - i)[..., None] * (_RAMP[i + 1] - _RAMP[i])).astype(np.int64)
    return (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _header(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- generated by qmonitor {__version__} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _text(x: float, y: float, s: str, anchor: str = "middle") -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}">{s}</text>'


def heatmap_svg(
    sink,
    ns: Sequence[int],
    taus: Sequence[float],
    values: np.ndarray,
    title: str,
) -> None:
    """Write a heatmap of values[i_tau, i_n], cycle count on x and tau on y, to sink.

    The SVG is streamed through sink.write (any text sink): the header, then
    the cells of one tau row per call, coloured from that row alone, then the
    axes, so neither the whole document nor a colour array of the whole grid
    is held. Only the heatmap streams, because its size grows with T x R
    (about 19 MB at 257 x 1025); the line plots grow with T x picks and the
    density-matrix grids with dim^2.
    """
    values = _require_finite(values)
    if values.shape != (len(taus), len(ns)):
        raise ValueError("values shape must be (len(taus), len(ns))")
    lo, hi = float(np.min(values)), float(np.max(values))
    span = hi - lo if hi > lo else 1.0

    width, height = 720, 440
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B
    cw = plot_w / max(len(ns), 1)
    ch = plot_h / max(len(taus), 1)

    out = _header(width, height)
    out.append(_text(width / 2, 20, title))
    sink.write("\n".join(out) + "\n")
    # one row of cells: the x positions in place, '\0' for y and a '%06x' slot per colour
    size = f'width="{cw:.2f}" height="{ch:.2f}"'
    row_text = "".join(
        f'<rect x="{_MARGIN_L + j * cw:.2f}" y="\0" {size} fill="#%06x"/>\n' for j in range(len(ns))
    )
    for i, row in enumerate(values):
        y = f"{_MARGIN_T + plot_h - (i + 1) * ch:.2f}"
        sink.write(row_text.replace("\0", y) % tuple(ramp_codes((row - lo) / span).tolist()))
    out = []  # axes: a few ticks
    for j in range(0, len(ns), max(1, len(ns) // 8)):
        x = _MARGIN_L + (j + 0.5) * cw
        out.append(_text(x, height - _MARGIN_B + 16, str(ns[j])))
    for i in range(0, len(taus), max(1, len(taus) // 8)):
        y = _MARGIN_T + plot_h - (i + 0.5) * ch
        out.append(_text(_MARGIN_L - 6, y + 4, _fmt(taus[i]), anchor="end"))
    out.append(_text(width / 2, height - 12, "cycles n"))
    out.append(_text(14, height / 2, "tau"))
    out.append(_text(width - _MARGIN_R, 20, f"[{_fmt(lo)}, {_fmt(hi)}]", anchor="end"))
    out.append("</svg>")
    sink.write("\n".join(out) + "\n")


def lines_svg(
    taus: Sequence[float],
    series: Mapping[int, np.ndarray],
    title: str,
    ylabel: str = "P",
) -> str:
    """One polyline per cycle count n: value as a function of tau."""
    width, height = 720, 440
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B
    taus = [float(t) for t in taus]
    if not taus or not series:
        raise ValueError("nothing to plot")
    all_vals = np.concatenate([_require_finite(v) for v in series.values()])
    lo = min(0.0, float(np.min(all_vals)))
    hi = max(1.0, float(np.max(all_vals)))
    t_lo, t_hi = min(taus), max(taus)
    t_span = (t_hi - t_lo) or 1.0
    v_span = (hi - lo) or 1.0

    def sx(t: float) -> float:
        return _MARGIN_L + (t - t_lo) / t_span * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h - (v - lo) / v_span * plot_h

    out = _header(width, height)
    out.append(_text(width / 2, 20, title))
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>'
    )
    keys = sorted(series.keys())
    codes = ramp_codes(np.arange(len(keys)) / max(len(keys) - 1, 1))
    for rank, n in enumerate(keys):
        vals = np.asarray(series[n], dtype=float)
        color = f"#{codes[rank]:06x}"
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(taus, vals))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        out.append(
            f'<text x="{width - _MARGIN_R - 4}" y="{_MARGIN_T + 14 + 14 * rank}" '
            f'text-anchor="end" fill="{color}">n={n}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = t_lo + frac * t_span
        out.append(_text(sx(t), height - _MARGIN_B + 16, _fmt(t)))
        v = lo + frac * v_span
        out.append(_text(_MARGIN_L - 6, sy(v) + 4, _fmt(v), anchor="end"))
    out.append(_text(width / 2, height - 12, "tau"))
    out.append(_text(14, height / 2, ylabel))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def rho_grid_svg(
    rho_computational: np.ndarray,
    rho_measurement: np.ndarray,
    labels_computational: Sequence[str],
    labels_measurement: Sequence[str],
    title: str,
) -> str:
    """Side-by-side magnitude grids |rho_ij| of one state in both bases."""
    mats = []
    for rho in (rho_computational, rho_measurement):
        m = np.abs(np.asarray(rho, dtype=complex))
        mats.append(_require_finite(m))
    dim = mats[0].shape[0]
    cell = 44
    panel = dim * cell
    gap = 70
    width = 2 * panel + gap + 2 * _MARGIN_L
    height = panel + _MARGIN_T + _MARGIN_B + 20
    vmax = max(float(np.max(mats[0])), float(np.max(mats[1])), 1e-300)

    out = _header(width, height)
    out.append(_text(width / 2, 20, title))
    panels = (
        (mats[0], labels_computational, _MARGIN_L, "computational"),
        (mats[1], labels_measurement, _MARGIN_L + panel + gap, "measurement"),
    )
    for mat, labels, x0, name in panels:
        y0 = _MARGIN_T + 14
        codes = ramp_codes(mat / vmax)
        for i in range(dim):
            for j in range(dim):
                out.append(
                    f'<rect x="{x0 + j * cell:.1f}" y="{y0 + i * cell:.1f}" '
                    f'width="{cell}" height="{cell}" fill="#{codes[i, j]:06x}" stroke="#333" '
                    f'stroke-width="0.5"/>'
                )
            out.append(_text(x0 - 6, y0 + (i + 0.6) * cell, str(labels[i]), anchor="end"))
        for j in range(dim):
            out.append(_text(x0 + (j + 0.5) * cell, y0 + panel + 14, str(labels[j])))
        out.append(_text(x0 + panel / 2, y0 - 6, name))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def magnetization_grid(values: np.ndarray) -> np.ndarray:
    """Population imbalance P0 - P1 from a two-column probability grid."""
    if values.shape[-1] != 2:
        raise ValueError("magnetization needs exactly two outcome columns")
    return values[..., 0] - values[..., 1]
