"""Property-based tests for the ASCII reporting primitives.

``sparkline`` and ``ascii_chart`` are the terminal rendering layer for
both the live evaluation pipeline and ``obs report``; they must accept
anything a real training run can produce — single samples, constant
series, NaN/inf gaps (e.g. drain episodes with no finished vehicle) and
pathological value ranges — without crashing or emitting malformed
output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.eval.reporting import _BLOCKS, ascii_chart, sparkline

any_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
series_with_a_finite_value = st.lists(any_floats, min_size=1, max_size=200).filter(
    lambda xs: any(np.isfinite(x) for x in xs)
)

ALLOWED = set(_BLOCKS) | {"?"}


class TestSparklineProperties:
    @given(series_with_a_finite_value, st.integers(min_value=1, max_value=120))
    @settings(max_examples=200)
    def test_never_crashes_and_width_bounded(self, values, width):
        line = sparkline(values, width=width)
        assert 1 <= len(line) <= max(width, len(values))
        assert len(line) == min(len(values), width)

    @given(series_with_a_finite_value)
    def test_only_known_glyphs(self, values):
        assert set(sparkline(values)) <= ALLOWED

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    def test_finite_series_has_no_gap_glyphs(self, values):
        assert "?" not in sparkline(values)

    @given(finite_floats)
    def test_single_value_renders_one_glyph(self, value):
        line = sparkline([value])
        assert len(line) == 1 and line in _BLOCKS

    @given(finite_floats, st.integers(min_value=1, max_value=50))
    def test_constant_series_is_flat(self, value, length):
        line = sparkline([value] * length)
        assert set(line) == {_BLOCKS[0]}

    def test_nan_renders_as_gap(self):
        line = sparkline([1.0, float("nan"), 3.0])
        assert line[1] == "?"
        assert line[0] in _BLOCKS and line[2] in _BLOCKS

    def test_huge_range_does_not_crash(self):
        line = sparkline([-1e308, 0.0, 1e308])
        assert len(line) == 3
        assert set(line) <= ALLOWED

    def test_all_nan_rejected(self):
        with pytest.raises(ConfigError):
            sparkline([float("nan")] * 5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            sparkline([])

    def test_monotone_series_monotone_glyphs_with_nan_gap(self):
        line = sparkline([0, 1, 2, float("nan"), 4, 5])
        levels = [_BLOCKS.index(ch) for ch in line if ch != "?"]
        assert levels == sorted(levels)


class TestAsciiChartProperties:
    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll",)),
                min_size=1,
                max_size=8,
            ),
            series_with_a_finite_value,
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=100)
    def test_never_crashes_and_shape_holds(self, series, height, width):
        chart = ascii_chart(series, height=height, width=width)
        lines = chart.splitlines()
        # height canvas rows + legend (no title given).
        assert len(lines) == height + 1
        # The plot area (after the axis gutter) never exceeds the width.
        for row in lines[:-1]:
            gutter = row.index("+") + 1 if "+" in row else row.index("|") + 1
            assert len(row) - gutter <= width

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_single_series_round_trip(self, values):
        chart = ascii_chart({"s": values}, height=5, width=40)
        assert "o=s" in chart

    def test_near_max_floats_pool_to_a_finite_bucket(self):
        """Averaging huge finite samples into one bucket must not
        overflow into a chart with "no finite values"."""
        chart = ascii_chart({"a": [1.7e308, 1.7e308, 1.0]}, height=3, width=1)
        assert "o" in chart.splitlines()[0]

    def test_constant_chart_single_row(self):
        chart = ascii_chart({"a": [7.0, 7.0, 7.0]}, height=4, width=10)
        rows = chart.splitlines()[:-1]  # drop the legend
        marked = [row for row in rows if "o" in row]
        assert len(marked) == 1

    def test_nan_series_leaves_gap_column(self):
        chart = ascii_chart({"a": [1.0, float("nan"), 2.0]}, height=4, width=10)
        markers = sum(row.count("o") for row in chart.splitlines()[:-1])
        assert markers == 2  # the NaN sample is skipped, not plotted

    def test_all_nan_rejected(self):
        with pytest.raises(ConfigError):
            ascii_chart({"a": [float("nan"), float("inf")]})

    def test_huge_range_does_not_crash(self):
        chart = ascii_chart({"a": [-1e308, 0.0, 1e308]}, height=6, width=10)
        assert "o=a" in chart

    def test_mixed_lengths_and_scales(self):
        chart = ascii_chart(
            {"tiny": [1e-9, 2e-9], "big": [1e9, 2e9, 3e9]}, height=6, width=20
        )
        assert "o=tiny" in chart and "x=big" in chart
