"""Result reporting: CSV export and terminal (ASCII) charts.

The paper's figures are line charts of average waiting time per episode.
This module renders those series directly in the terminal and exports
them as CSV so they can be re-plotted with any external tool.
"""

from __future__ import annotations

import csv
import os
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.rl.runner import TrainingHistory

#: Characters used for vertical resolution inside one text row.
_BLOCKS = " .:-=+*#%@"

#: Glyph rendered for non-finite samples (NaN/inf gaps in a series).
_GAP = "?"


def _resample(data: np.ndarray, width: int) -> np.ndarray:
    """Average-pool ``data`` down to ``width`` (NaN-aware)."""
    if data.size <= width:
        return data
    edges = np.linspace(0, data.size, width + 1).astype(int)
    pooled = np.empty(width)
    for index, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        window = data[a:b]
        finite = window[np.isfinite(window)]
        # A bucket with any finite sample averages those; an entirely
        # non-finite bucket stays NaN and renders as a gap.
        if not finite.size:
            pooled[index] = np.nan
            continue
        with np.errstate(over="ignore"):
            mean = finite.mean()
        if np.isinf(mean):
            # The sum of near-max floats overflowed; scale first.
            mean = (finite / finite.size).sum()
        pooled[index] = mean
    return pooled


def _finite_bounds(data: np.ndarray, label: str) -> tuple[float, float]:
    """(lo, hi) over finite samples; rejects series with none."""
    finite = data[np.isfinite(data)]
    if finite.size == 0:
        raise ConfigError(f"{label} has no finite values to chart")
    return float(finite.min()), float(finite.max())


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """One-line character chart of a series (resampled to ``width``).

    Non-finite samples (NaN/±inf) render as ``?`` gaps; the scale is
    computed over the finite samples only.  A series with no finite
    sample at all raises :class:`~repro.errors.ConfigError`.
    """
    if width <= 0:
        raise ConfigError("width must be positive")
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ConfigError("cannot chart an empty series")
    data = _resample(data, width)
    lo, hi = _finite_bounds(data, "series")
    span = hi - lo
    chars = []
    for value in data:
        if not np.isfinite(value):
            chars.append(_GAP)
        elif span == 0:
            chars.append(_BLOCKS[0])
        else:
            level = int(round(_fraction(value, lo, span) * (len(_BLOCKS) - 1)))
            chars.append(_BLOCKS[min(max(level, 0), len(_BLOCKS) - 1)])
    return "".join(chars)


def _fraction(value: float, lo: float, span: float) -> float:
    """``(value - lo) / span`` hardened against float overflow.

    With a huge range (e.g. ±1e308) either the numerator or the span
    can overflow to inf; map those cases onto the nearest bound instead
    of letting NaN reach an array index.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fraction = (value - lo) / span
    if np.isnan(fraction):
        return 1.0 if value > lo else 0.0
    return float(min(max(fraction, 0.0), 1.0))


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    height: int = 12,
    width: int = 64,
    title: str = "",
) -> str:
    """Multi-series ASCII line chart with a shared y-axis.

    Each series gets a distinct plot character; lower is better for the
    waiting-time curves this is used on.
    """
    if not series:
        raise ConfigError("ascii_chart needs at least one series")
    if height < 2 or width <= 0:
        raise ConfigError("need height >= 2 and width > 0")
    markers = "ox+*#@%&"
    resampled: dict[str, np.ndarray] = {}
    for name, values in series.items():
        data = np.asarray(list(values), dtype=np.float64)
        if data.size == 0:
            raise ConfigError(f"series {name!r} is empty")
        resampled[name] = _resample(data, width)
    all_values = np.concatenate(list(resampled.values()))
    lo, hi = _finite_bounds(all_values, "chart")
    span = hi - lo or 1.0

    canvas_width = max(len(d) for d in resampled.values())
    canvas = [[" "] * canvas_width for _ in range(height)]
    for index, (name, data) in enumerate(resampled.items()):
        marker = markers[index % len(markers)]
        for x, value in enumerate(data):
            if not np.isfinite(value):
                continue  # non-finite samples leave a gap in the line
            if hi == lo:
                y = 0
            else:
                y = int(round((1.0 - _fraction(value, lo, span)) * (height - 1)))
            canvas[min(max(y, 0), height - 1)][x] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{hi:9.1f} +" + "".join(canvas[0]))
    for row in canvas[1:-1]:
        lines.append(" " * 9 + " |" + "".join(row))
    lines.append(f"{lo:9.1f} +" + "".join(canvas[-1]))
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(resampled)
    )
    lines.append(" " * 11 + legend)
    return "\n".join(lines)


def export_history_csv(history: TrainingHistory, path: str | os.PathLike) -> None:
    """Write one training history as CSV (episode, avg_wait, total_reward)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["episode", "avg_wait_s", "total_reward", "duration_s"])
        for log in history.episodes:
            writer.writerow(
                [log.episode, f"{log.avg_wait:.4f}", f"{log.total_reward:.4f}",
                 f"{log.duration_s:.4f}"]
            )


def export_comparison_csv(
    curves: Mapping[str, Sequence[float]], path: str | os.PathLike
) -> None:
    """Write several training curves side by side (episode, <model>...)."""
    if not curves:
        raise ConfigError("nothing to export")
    names = list(curves)
    length = max(len(list(values)) for values in curves.values())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["episode"] + names)
        for episode in range(length):
            row: list[str] = [str(episode)]
            for name in names:
                values = list(curves[name])
                row.append(f"{values[episode]:.4f}" if episode < len(values) else "")
            writer.writerow(row)


def training_report(history: TrainingHistory, width: int = 60) -> str:
    """Compact text report of one training run."""
    curve = history.wait_curve
    best = history.best_episode()
    lines = [
        f"model: {history.agent_name}  episodes: {len(curve)}",
        f"wait: first {curve[0]:.1f}s  best {best.avg_wait:.1f}s "
        f"(episode {best.episode})  final {curve[-1]:.1f}s",
        sparkline(curve, width=width),
    ]
    return "\n".join(lines)
