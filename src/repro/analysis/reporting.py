"""Plain-text rendering of tables and anytime 'figures'.

Benchmarks print their results in the same row/column structure as the
paper's tables; figures are rendered as aligned numeric series (and an
optional coarse ASCII chart) so everything lands in the bench log without
a plotting dependency.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..obs import format_table

__all__ = [
    "format_table",
    "format_series",
    "ascii_chart",
    "fmt_pct",
    "fmt_time",
    "op_stats_table",
]


def fmt_pct(value: Optional[float], digits: int = 3) -> str:
    """Render an excess percentage the way the paper does ('0.047%')."""
    if value is None:
        return "-"
    if abs(value) < 10 ** (-digits) / 2:
        return "OPT"
    return f"{value:.{digits}f}%"


def fmt_time(value: Optional[float], digits: int = 1) -> str:
    """Render a (virtual) time value, '-' when unreached."""
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def op_stats_table(stats_map: dict, title: str | None = None) -> str:
    """Engine-telemetry table, one row per labelled :class:`OpStats`.

    ``stats_map`` maps a row label (node id, run name, ...) to an
    :class:`repro.localsearch.engine.OpStats`.  A ``total`` row is
    appended when there is more than one entry.  Counters are rendered
    raw; ``gain`` is the summed improvement in tour-length units and
    ``kickfb`` the number of structured kicks that degraded to a
    uniform-random kick (see ``OpStats.kick_fallbacks``).
    """
    from ..localsearch.engine import OpStats

    headers = ["run", "calls", "scans", "flips", "undone", "swaps",
               "wakeups", "moves", "gain", "kickfb"]

    def row(label, s):
        return [label, s.calls, s.candidate_scans, s.flips_applied,
                s.flips_undone, s.segment_swaps, s.queue_wakeups,
                s.moves, s.gain, s.kick_fallbacks]

    rows = [row(str(k), v) for k, v in stats_map.items()]
    if len(stats_map) > 1:
        total = OpStats()
        for s in stats_map.values():
            total.merge(s)
        rows.append(row("total", total))
    return format_table(headers, rows, title=title)


def format_series(
    times: Sequence[float],
    series: dict,
    time_label: str = "vsec",
    value_format: str = "{:.0f}",
) -> str:
    """Tabulate named time series at common sample times (figure data)."""
    headers = [time_label] + list(series)
    rows = []
    for k, t in enumerate(times):
        row = [f"{t:g}"]
        for name in series:
            v = series[name][k]
            row.append("-" if v is None or (isinstance(v, float) and np.isnan(v))
                       else value_format.format(v))
        rows.append(row)
    return format_table(headers, rows)


def ascii_chart(
    times: Sequence[float],
    series: dict,
    width: int = 64,
    height: int = 16,
    title: str | None = None,
) -> str:
    """Coarse ASCII line chart of named series (one glyph per series)."""
    glyphs = "*o+x#@%&"
    xs = np.asarray(times, dtype=np.float64)
    all_vals = np.concatenate(
        [np.asarray(v, dtype=np.float64) for v in series.values()]
    )
    all_vals = all_vals[np.isfinite(all_vals)]
    if all_vals.size == 0:
        return "(no data)"
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi == lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    for s_idx, (name, vals) in enumerate(series.items()):
        g = glyphs[s_idx % len(glyphs)]
        for t, v in zip(xs, np.asarray(vals, dtype=np.float64)):
            if not np.isfinite(v):
                continue
            col = int((t - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((hi - v) / (hi - lo) * (height - 1))
            grid[row][col] = g
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{hi:.0f} +" + "-" * width)
    for r in grid:
        lines.append("     |" + "".join(r))
    lines.append(f"{lo:.0f} +" + "-" * width)
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}" for i, name in enumerate(series)
    )
    lines.append(f"     x: [{x_lo:g}, {x_hi:g}]   {legend}")
    return "\n".join(lines)
