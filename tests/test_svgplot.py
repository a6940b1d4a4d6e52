import re

import numpy as np
import pytest

from bgkmix.svgplot import _ticks, line_plot_svg


def plotted_points(path):
    """The polyline's (x, y) pixel pairs."""
    points = re.search(r'<polyline points="([^"]*)"', path.read_text())
    return [tuple(map(float, p.split(","))) for p in points.group(1).split()]


class TestTicks:
    def test_empty_span_ticks_a_unit_span(self):
        assert _ticks(2.0, 2.0) == _ticks(2.0, 3.0)
        assert _ticks(2.0, 1.0) == _ticks(2.0, 3.0)

    def test_round_off_span_gets_its_two_ends(self):
        lo = 1.0
        hi = lo + 4 * np.finfo(float).eps
        assert _ticks(lo, hi) == [lo, hi]


class TestLinePlot:
    def test_no_finite_sample_is_refused(self, tmp_path):
        path = tmp_path / "p.svg"
        with pytest.raises(ValueError,
                           match="^nothing to plot: no finite samples$"):
            line_plot_svg([np.nan, 1.0], [1.0, np.inf], str(path))
        assert not path.exists()

    def test_constant_x_is_drawn_on_the_left_edge(self, tmp_path):
        path = tmp_path / "p.svg"
        line_plot_svg([1.0, 1.0], [0.0, 1.0], str(path))
        xs = {x for x, _ in plotted_points(path)}
        assert xs == {78.0}  # the left margin
        assert ">2</text>" in path.read_text()  # the axis spans [1, 2]

    def test_varying_y_is_padded_by_five_percent(self, tmp_path):
        path = tmp_path / "p.svg"
        line_plot_svg([0.0, 1.0, 2.0], [1.0, 3.0, 2.0], str(path))
        ys = [y for _, y in plotted_points(path)]
        # the plot frame runs from y = 34 to 424; the data span is 2 and
        # the axis 2.2
        top, bottom = 34.0 + 390.0 * 0.1 / 2.2, 424.0 - 390.0 * 0.1 / 2.2
        assert ys == pytest.approx([bottom, top, (top + bottom) / 2],
                                   abs=0.005)
