"""The array colour helper against the scalar per-cell formula it replaced."""

import io

import numpy as np
import pytest

from qmonitor import render

import oracles

RAMP = render.RAMP


def helper_colors(xs):
    return ["#%06x" % c for c in render.ramp_codes(np.asarray(xs)).ravel().tolist()]


def exact_ties():
    """Inputs whose interpolated channel lies exactly half-way between two integers."""
    ties = []
    for i in range(len(RAMP) - 1):
        for k in range(1, 64):
            target = i + k / 64
            x = target / (len(RAMP) - 1)
            for _ in range(4):  # walk to an x with x * 7 == target exactly
                if x * (len(RAMP) - 1) == target:
                    break
                x = np.nextafter(x, np.inf if x * (len(RAMP) - 1) < target else -np.inf)
            else:
                continue
            for c in range(3):
                value = RAMP[i][c] + (k / 64) * (RAMP[i + 1][c] - RAMP[i][c])
                if value % 1 == 0.5:
                    ties.append((float(x), value))
                    break
    return ties


OUTSIDE = [-np.inf, -7.0, -1.0, -1e-300, -0.0, 1.0 + 2**-52, 1.5, 7.0, np.inf, np.nan]


def test_helper_matches_the_scalar_formula_on_a_fine_grid():
    xs = np.linspace(0, 1, 100001)
    assert helper_colors(xs) == [oracles.reference_color(x) for x in xs]
    sub = xs[::97]
    assert [oracles.ramp_color(x) for x in sub] == [oracles.reference_color(x) for x in sub]


def test_helper_clips_like_the_scalar_formula():
    want = [oracles.reference_color(x) for x in OUTSIDE]
    assert helper_colors(OUTSIDE) == want
    assert [oracles.ramp_color(x) for x in OUTSIDE] == want
    assert want[0] == want[-1] == oracles.ramp_color(0.0)


def test_helper_rounds_exact_ties_half_to_even():
    ties = exact_ties()
    # the set must hold ties on both sides, where half-up rounding would differ
    assert any(int(v - 0.5) % 2 == 0 for _, v in ties)
    assert any(int(v - 0.5) % 2 == 1 for _, v in ties)
    xs = [x for x, _ in ties]
    want = [oracles.reference_color(x) for x in xs]
    assert helper_colors(xs) == want
    assert [oracles.ramp_color(x) for x in xs] == want


def test_helper_keeps_the_input_shape():
    xs = np.linspace(-0.5, 1.5, 12).reshape(3, 4)
    codes = render.ramp_codes(xs)
    assert codes.shape == (3, 4)
    assert helper_colors(xs) == [oracles.reference_color(x) for x in xs.ravel()]


def reference_rects(ns, taus, values):
    """The heatmap's cell lines, one scalar colour per cell."""
    lo, hi = float(np.min(values)), float(np.max(values))
    span = hi - lo if hi > lo else 1.0
    plot_w = 720 - 64 - 24
    plot_h = 440 - 36 - 46
    cw = plot_w / max(len(ns), 1)
    ch = plot_h / max(len(taus), 1)
    lines = []
    for i in range(len(taus)):
        y = 36 + plot_h - (i + 1) * ch
        for j in range(len(ns)):
            color = oracles.reference_color((values[i, j] - lo) / span)
            lines.append(
                f'<rect x="{64 + j * cw:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
                f'fill="{color}"/>'
            )
    return lines


@pytest.mark.parametrize("shape", [(1, 1), (3, 7)])
def test_heatmap_cells_match_the_per_cell_loop(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.uniform(-0.1, 1.1, shape)
    ns = list(range(shape[1]))
    taus = list(np.linspace(0.0, 3.0, shape[0]))
    sink = io.StringIO()
    render.heatmap_svg(sink, ns, taus, values, title="t")
    svg = sink.getvalue()
    lines = svg.splitlines()
    assert "" not in lines
    assert [line for line in lines if line.startswith("<rect x=")] == reference_rects(
        ns, taus, values
    )
