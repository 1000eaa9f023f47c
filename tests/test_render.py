import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qmonitor import render

import oracles


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def _heatmap(*args, **kwargs) -> str:
    sink = io.StringIO()
    render.heatmap_svg(sink, *args, **kwargs)
    return sink.getvalue()


class TestRampColor:
    def test_endpoints(self):
        assert oracles.ramp_color(0.0) == "#440154"
        assert oracles.ramp_color(1.0) == "#fde725"

    def test_clipping(self):
        assert oracles.ramp_color(-3.0) == oracles.ramp_color(0.0)
        assert oracles.ramp_color(7.0) == oracles.ramp_color(1.0)

    def test_valid_hex(self):
        for x in np.linspace(0, 1, 23):
            c = oracles.ramp_color(float(x))
            assert len(c) == 7 and c[0] == "#"
            int(c[1:], 16)


class TestHeatmap:
    def test_valid_svg_with_rects(self):
        values = np.linspace(0, 1, 12).reshape(3, 4)
        svg = _heatmap(ns=[0, 1, 2, 3], taus=[0.0, 0.5, 1.0], values=values, title="t")
        root = _parse(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) >= 12

    def test_flat_data_is_valid(self):
        values = np.full((3, 4), 0.25)
        svg = _heatmap(ns=[0, 1, 2, 3], taus=[0.0, 0.5, 1.0], values=values, title="t")
        _parse(svg)

    def test_rejects_nan(self):
        values = np.full((2, 2), np.nan)
        with pytest.raises(RuntimeError):
            _heatmap(ns=[0, 1], taus=[0.0, 1.0], values=values, title="t")

    def test_deterministic(self):
        values = np.linspace(0, 1, 6).reshape(2, 3)
        a = _heatmap(ns=[0, 1, 2], taus=[0.0, 1.0], values=values, title="t")
        b = _heatmap(ns=[0, 1, 2], taus=[0.0, 1.0], values=values, title="t")
        assert a == b

    def test_version_comment_present(self):
        values = np.zeros((2, 2))
        svg = _heatmap(ns=[0, 1], taus=[0.0, 1.0], values=values, title="t")
        assert "generated by qmonitor" in svg


class TestLines:
    def test_polyline_per_series(self):
        taus = [0.0, 0.5, 1.0]
        series = {1: np.array([0.1, 0.2, 0.3]), 5: np.array([1.0, 0.5, 0.0])}
        svg = render.lines_svg(taus, series, title="t")
        root = _parse(svg)
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render.lines_svg([], {}, title="t")


class TestRhoGrid:
    def test_valid_svg(self):
        rho = np.diag([0.5, 0.25, 0.0, 0.25]).astype(complex)
        svg = render.rho_grid_svg(rho, rho, ["00", "01", "10", "11"], ["a", "b", "c", "d"], "t")
        root = _parse(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) >= 32  # two 4x4 panels

    def test_rejects_nan(self):
        rho = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(RuntimeError):
            render.rho_grid_svg(rho, rho, ["0", "1"], ["0", "1"], "t")


def test_magnetization_grid():
    vals = np.array([[1.0, 0.0], [0.25, 0.75]])
    assert np.allclose(render.magnetization_grid(vals), [1.0, -0.5])
    with pytest.raises(ValueError):
        render.magnetization_grid(np.ones((2, 4)))
