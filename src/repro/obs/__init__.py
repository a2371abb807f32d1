"""Unified observability layer: tracing, metrics, profiling hooks.

The paper's headline claim — super-linear speed-up from cooperating CLK
nodes under a fixed total CPU budget — dies silently when a hot loop
regresses or one node stalls.  This package is the substrate every
performance PR measures itself against:

* :class:`~repro.obs.tracer.Tracer` — span-based tracing in *both* time
  domains: virtual-time spans (timestamps read from a
  :class:`~repro.utils.work.WorkMeter` or any ``.vsec`` source) and
  wall-clock spans (``time.perf_counter``).  Spans nest; when tracing is
  disabled (the default) every instrumentation site degenerates to a
  single attribute check and a shared no-op context manager.
* :class:`~repro.obs.metrics.Metrics` — counters, gauges and histograms
  with per-node labels and a hard label-cardinality cap.
* :mod:`~repro.obs.export` — JSONL trace export/import (one object per
  line: spans, then metric series), consumed by ``python -m repro trace
  summarize`` and :mod:`repro.analysis.obs_report`.
* :mod:`~repro.obs.summary` — per-node time-in-phase tables, flame-style
  span aggregation and histogram rendering, on the repository's one
  monospace table renderer (:func:`~repro.obs.summary.format_table`,
  re-exported by :mod:`repro.analysis`).

Activation mirrors the sanitizer: the environment variable ``REPRO_OBS=1``
enables the *global* tracer (read once, cached); tests and the CLI's
``--trace`` flag install a fresh enabled tracer via :func:`use_tracer`
regardless of the environment.

Wall-clock reads live *only* in this package: instrumented virtual-time
code (the engine, the EA node, the simulator) calls into the tracer and
never touches the clock itself, which is why ``repro.obs`` is the
sanctioned exception to reprolint's RPL002 (see docs/CHECKS.md and
docs/OBSERVABILITY.md).
"""

from .metrics import NULL_METRICS, Histogram, Metrics
from .tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    get_tracer,
    obs_enabled,
    set_obs,
    set_tracer,
    use_tracer,
)
from .export import TraceData, read_jsonl, write_jsonl
from .summary import (
    flame_table,
    format_table,
    histogram_table,
    phase_table,
    summarize_trace,
    time_in_phase,
)

__all__ = [
    "Tracer",
    "Span",
    "NULL_SPAN",
    "Metrics",
    "Histogram",
    "NULL_METRICS",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "obs_enabled",
    "set_obs",
    "TraceData",
    "write_jsonl",
    "read_jsonl",
    "format_table",
    "time_in_phase",
    "phase_table",
    "flame_table",
    "histogram_table",
    "summarize_trace",
]
