"""Trace summarization: time-in-phase, flame-style aggregation, histograms.

Everything here renders plain monospace text (the repository's reporting
idiom) from a :class:`~repro.obs.export.TraceData`.  The module is
self-contained — it deliberately does not import :mod:`repro.analysis`
(which itself imports :mod:`repro.obs` for trace IO); cross-*run*
comparison lives in :mod:`repro.analysis.obs_report`.
"""

from __future__ import annotations

from collections import defaultdict

from .export import TraceData

__all__ = [
    "format_table",
    "time_in_phase",
    "phase_table",
    "flame_table",
    "histogram_table",
    "summarize_trace",
]

#: Canonical EA phases, in loop order (extra phases are appended after).
PHASES = ("perturb", "optimize", "select", "broadcast")


def format_table(headers, rows, title=None) -> str:
    """Monospace table with a header rule; cells are str()-ed, the first
    column left-aligned and the rest right-aligned."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for k, c in enumerate(row):
            widths[k] = max(widths[k], len(c))

    def render(row):
        return "  ".join(
            c.ljust(widths[k]) if k == 0 else c.rjust(widths[k])
            for k, c in enumerate(row)
        )

    lines = []
    if title:
        lines.append(title)
    lines.append(render(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render(row) for row in cells)
    return "\n".join(lines)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def time_in_phase(trace: TraceData) -> dict:
    """``{node: {phase: virtual seconds}}`` from ``phase.*`` spans.

    Spans without a ``node`` label aggregate under ``"-"``.  Wall-only
    phase spans (select/broadcast consume no virtual time) contribute
    0.0 vsec but still claim their column.
    """
    out: dict = defaultdict(lambda: defaultdict(float))
    for span in trace.spans_named("phase"):
        phase = span.name.split(".", 1)[1] if "." in span.name else span.name
        node = span.labels.get("node", "-")
        out[node][phase] += span.vdur
    return {n: dict(p) for n, p in out.items()}


def _node_sort_key(node):
    try:
        return (0, int(node))
    except (TypeError, ValueError):
        return (1, str(node))


def phase_table(trace: TraceData) -> str:
    """Per-node time-in-phase table, in virtual seconds.

    The ``total`` column is the sum over phases; ``clock`` is the node's
    final virtual clock when the run exported it (the ``node.clock_vsec``
    gauge) — for a run without free bootstrap the two agree to float
    precision, which is the accounting check the CI smoke test asserts.
    """
    phases_seen = time_in_phase(trace)
    if not phases_seen:
        return "no phase spans in trace (was the run traced?)"
    extra = sorted(
        {p for per in phases_seen.values() for p in per} - set(PHASES)
    )
    columns = [p for p in PHASES + tuple(extra)
               if any(p in per for per in phases_seen.values())
               or p in PHASES]
    clocks = {
        dict(key).get("node", "-"): value
        for key, value in trace.gauges.get("node.clock_vsec", {}).items()
    }
    headers = ["node"] + list(columns) + ["total", "clock"]
    rows = []
    totals = defaultdict(float)
    for node in sorted(phases_seen, key=_node_sort_key):
        per = phases_seen[node]
        total = sum(per.values())
        row = [node] + [_fmt(per.get(p, 0.0)) for p in columns]
        row += [_fmt(total)]
        clock = clocks.get(str(node))
        row += [_fmt(clock) if clock is not None else "-"]
        rows.append(row)
        for p in columns:
            totals[p] += per.get(p, 0.0)
        totals["total"] += total
    if len(rows) > 1:
        rows.append(
            ["all"] + [_fmt(totals[p]) for p in columns]
            + [_fmt(totals["total"]), "-"]
        )
    return format_table(headers, rows,
                        title="time in phase (virtual seconds per node)")


def _span_paths(trace: TraceData) -> dict:
    """Aggregate spans by root-to-leaf name path.

    Returns ``{path tuple: [count, wall, vsec]}``.
    """
    by_index = {s.index: s for s in trace.spans}
    agg: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for span in trace.spans:
        path = [span.name]
        parent = span.parent
        hops = 0
        while parent is not None and hops < 64:
            p = by_index.get(parent)
            if p is None:
                break
            path.append(p.name)
            parent = p.parent
            hops += 1
        key = tuple(reversed(path))
        entry = agg[key]
        entry[0] += 1
        entry[1] += span.wall
        entry[2] += span.vdur
    return agg


def flame_table(trace: TraceData, max_rows: int = 40) -> str:
    """Flame-style table: span paths, indented, heaviest subtrees first.

    Inclusive totals per path (a parent's row includes its children);
    sorted depth-first so the rendering reads like a collapsed flame
    graph, with both wall seconds and virtual seconds per path.
    """
    agg = _span_paths(trace)
    if not agg:
        return "no spans in trace"
    # Depth-first order: every path directly follows its parent path,
    # siblings sorted heaviest-first (virtual time, then wall).
    children: dict = defaultdict(list)
    for path in agg:
        children[path[:-1]].append(path)
    for sibs in children.values():
        sibs.sort(key=lambda p: (-agg[p][2], -agg[p][1], p))
    ordered: list = []

    def visit(path):
        ordered.append((path, agg[path]))
        for child in children.get(path, ()):
            visit(child)

    for root in children.get((), ()):
        visit(root)
    if len(ordered) < len(agg):  # orphaned paths (defensive)
        seen = {p for p, _ in ordered}
        ordered.extend(
            (p, agg[p]) for p in sorted(agg) if p not in seen
        )
    rows = []
    for path, (count, wall, vsec) in ordered[:max_rows]:
        indent = "  " * (len(path) - 1)
        rows.append([f"{indent}{path[-1]}", count, _fmt(wall), _fmt(vsec)])
    title = "span tree (inclusive; wall s / virtual s)"
    if len(ordered) > max_rows:
        title += f" — top {max_rows} of {len(ordered)} paths"
    return format_table(["span", "count", "wall_s", "vsec"], rows, title=title)


def _render_hist(name: str, labels: dict, hist) -> str:
    lines = [
        f"{name} {labels or ''}  count={hist.count}  "
        f"mean={hist.mean:.6f}  min={hist.min:.6f}  max={hist.max:.6f}"
        if hist.count else f"{name} {labels or ''}  count=0"
    ]
    if not hist.count:
        return "\n".join(lines)
    peak = max(hist.counts) or 1
    bounds = list(hist.bounds) + [float("inf")]
    prev = 0.0
    for bound, count in zip(bounds, hist.counts):
        if count == 0:
            prev = bound
            continue
        bar = "#" * max(1, round(24 * count / peak))
        lines.append(f"  ({prev:>9.3g}, {bound:>9.3g}]  {count:>8}  {bar}")
        prev = bound
    return "\n".join(lines)


def histogram_table(trace: TraceData, prefix: str = "") -> str:
    """Render every histogram series whose name starts with ``prefix``."""
    blocks = []
    for name in sorted(trace.hists):
        if not name.startswith(prefix):
            continue
        for key, hist in sorted(trace.hists[name].items()):
            blocks.append(_render_hist(name, dict(key), hist))
    if not blocks:
        return f"no histograms matching {prefix!r} in trace"
    return "\n".join(blocks)


def summarize_trace(trace: TraceData) -> str:
    """The full ``python -m repro trace summarize`` rendering."""
    parts = [phase_table(trace), ""]
    parts += [flame_table(trace), ""]
    parts += ["message latency (virtual seconds):",
              histogram_table(trace, "net.msg_latency")]
    queue = histogram_table(trace, "net.queue_depth")
    if "no histograms" not in queue:
        parts += ["", "inbox depth at collect:", queue]
    counters = [
        (name, dict(key), value)
        for name in sorted(trace.counters)
        for key, value in sorted(trace.counters[name].items())
        if name.startswith("engine.")
    ]
    if counters:
        rows = defaultdict(dict)
        fields = []
        for name, labels, value in counters:
            short = name.split(".", 1)[1]
            if short not in fields:
                fields.append(short)
            rows[labels.get("node", labels.get("run", "-"))][short] = value
        table_rows = [
            [node] + [int(rows[node].get(f, 0)) for f in fields]
            for node in sorted(rows, key=_node_sort_key)
        ]
        parts += ["", format_table(["node"] + fields, table_rows,
                                   title="engine telemetry (counters)")]
    hits = sum(trace.counters.get("clk.pass_memo_hits", {}).values())
    misses = sum(trace.counters.get("clk.pass_memo_misses", {}).values())
    if hits or misses:
        parts += ["", f"LK pass memo: {int(hits)} hits, {int(misses)} misses"]
    svc = histogram_table(trace, "svc.")
    if "no histograms" not in svc:
        parts += ["", "service health (queue depth / job latency):", svc]
    svc_counters = [
        (name, dict(key), value)
        for name in sorted(trace.counters)
        for key, value in sorted(trace.counters[name].items())
        if name.startswith("svc.")
    ]
    if svc_counters:
        rows = defaultdict(dict)
        fields = []
        for name, labels, value in svc_counters:
            short = name.split(".", 1)[1]
            if short not in fields:
                fields.append(short)
            rows[labels.get("tenant", "-")][short] = value
        table_rows = [
            [tenant] + [int(rows[tenant].get(f, 0)) for f in fields]
            for tenant in sorted(rows)
        ]
        parts += ["", format_table(["tenant"] + fields, table_rows,
                                   title="service jobs by tenant (counters)")]
    return "\n".join(parts)
