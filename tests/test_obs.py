"""Tests for the observability layer (repro.obs): tracer, metrics, export.

Covers the ISSUE's acceptance points: span nesting with correct virtual
and wall accounting, the disabled-mode identity fast path, the metrics
cardinality cap, JSONL round-trips, and integration smoke against the
simulator (phase sums equal node clocks) and the process backend.
"""

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_SPAN,
    Histogram,
    Metrics,
    Tracer,
    get_tracer,
    read_jsonl,
    set_obs,
    set_tracer,
    summarize_trace,
    time_in_phase,
    use_tracer,
    write_jsonl,
)


class FakeMeter:
    """Minimal ``.vsec`` virtual-time source (WorkMeter stand-in)."""

    def __init__(self):
        self.vsec = 0.0


class TestSpans:
    def test_nesting_and_virtual_accounting(self):
        tracer = Tracer(enabled=True)
        meter = FakeMeter()
        with tracer.span("outer", vt=meter, node=0) as outer:
            meter.vsec = 1.5
            with tracer.span("inner", vt=meter) as inner:
                meter.vsec = 2.0
        assert outer.vdur == pytest.approx(2.0)
        assert inner.vdur == pytest.approx(0.5)
        assert inner.parent == outer.index
        assert inner.depth == outer.depth + 1 == 1
        assert outer.labels == {"node": 0}
        assert outer.wall >= inner.wall >= 0.0
        assert tracer._stack == []

    def test_callable_virtual_time_source(self):
        tracer = Tracer(enabled=True)
        clock = [3.0]
        with tracer.span("s", vt=lambda: clock[0]) as span:
            clock[0] = 7.5
        assert span.vdur == pytest.approx(4.5)

    def test_wall_only_span_has_zero_vdur(self):
        tracer = Tracer(enabled=True)
        with tracer.span("w") as span:
            pass
        assert span.vdur == 0.0
        assert span.v0 is None and span.v1 is None

    def test_record_span_post_hoc(self):
        tracer = Tracer(enabled=True)
        span = tracer.record_span("stamp", 1.0, 1.0, node=3)
        assert span.vdur == 0.0
        assert tracer.spans == [span]

    def test_exception_still_closes_span(self):
        tracer = Tracer(enabled=True)
        meter = FakeMeter()
        with pytest.raises(RuntimeError):
            with tracer.span("boom", vt=meter):
                meter.vsec = 1.0
                raise RuntimeError("x")
        assert tracer.spans[0].vdur == pytest.approx(1.0)
        assert tracer._stack == []


class TestDisabledFastPath:
    def test_identity_null_span(self):
        tracer = Tracer(enabled=False)
        # Every disabled call site gets the *same* object: no allocation.
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b", vt=FakeMeter(), node=1) is NULL_SPAN
        with tracer.span("c"):
            pass
        assert tracer.spans == []

    def test_null_metrics_shared_and_inert(self):
        tracer = Tracer(enabled=False)
        assert tracer.metrics is NULL_METRICS
        tracer.metrics.inc("x", 5, node=1)
        tracer.metrics.set_gauge("y", 2.0)
        tracer.metrics.observe("z", 0.5)
        assert NULL_METRICS.counters == {}
        assert NULL_METRICS.gauges == {}
        assert NULL_METRICS.hists == {}

    def test_record_span_disabled_returns_none(self):
        tracer = Tracer(enabled=False)
        assert tracer.record_span("s", 0.0, 1.0) is None
        assert tracer.spans == []

    def test_env_flag_drives_default(self):
        try:
            set_obs(True)
            assert Tracer().enabled
            set_obs(False)
            assert not Tracer().enabled
        finally:
            set_obs(None)

    def test_use_tracer_restores_previous(self):
        before = get_tracer()
        override = Tracer(enabled=True)
        with use_tracer(override):
            assert get_tracer() is override
        assert get_tracer() is before


class TestMetrics:
    def test_counters_and_gauges(self):
        m = Metrics()
        m.inc("hits", node=1)
        m.inc("hits", 4, node=1)
        m.inc("hits", node=2)
        m.set_gauge("clock", 1.0, node=1)
        m.set_gauge("clock", 2.5, node=1)  # last write wins
        assert m.counter_value("hits", node=1) == 5
        assert m.counter_value("hits", node=2) == 1
        assert m.counter_value("hits", node=3) == 0.0
        assert m.gauges["clock"][(("node", "1"),)] == 2.5

    def test_histogram_buckets_and_stats(self):
        h = Histogram()
        for v in (0.5e-6, 0.05, 0.05, 5000.0):
            h.observe(v)
        assert h.count == 4
        assert h.counts[0] == 1          # <= 1e-6
        assert h.counts[-1] == 1         # overflow (> 1000)
        assert h.min == pytest.approx(0.5e-6)
        assert h.max == pytest.approx(5000.0)
        assert h.mean == pytest.approx((0.5e-6 + 0.1 + 5000.0) / 4)
        assert sum(h.counts) == h.count

    def test_label_cardinality_cap_folds_into_overflow(self):
        m = Metrics(max_series=4)
        for i in range(10):
            m.observe("lat", 0.1, node=i)
        assert m.dropped_series == 6
        # 4 admitted series plus the single overflow series.
        assert len(m.hists["lat"]) == 5
        folded = m.histogram("lat", overflow="true")
        assert folded.count == 6
        # Admitted series are unaffected.
        assert m.histogram("lat", node=0).count == 1

    def test_cap_is_per_metric_name(self):
        m = Metrics(max_series=2)
        for i in range(3):
            m.inc("a", node=i)
            m.inc("b", node=i)
        assert m.counter_value("a", overflow="true") == 1
        assert m.counter_value("b", overflow="true") == 1
        assert m.dropped_series == 2

    def test_reset(self):
        m = Metrics(max_series=1)
        m.inc("a", node=1)
        m.inc("a", node=2)
        m.reset()
        assert m.counters == {} and m.dropped_series == 0


class TestJsonlRoundTrip:
    def _populated_tracer(self):
        tracer = Tracer(enabled=True)
        meter = FakeMeter()
        with tracer.span("root", vt=meter, node=0):
            meter.vsec = 2.0
            with tracer.span("child", vt=meter, kind="x"):
                meter.vsec = 3.0
        tracer.metrics.inc("engine.calls", 7, node=0)
        tracer.metrics.set_gauge("node.clock_vsec", 3.0, node=0)
        tracer.metrics.observe("net.msg_latency_vsec", 0.01, kind="TOUR")
        return tracer

    def test_round_trip(self, tmp_path):
        tracer = self._populated_tracer()
        path = tmp_path / "t.jsonl"
        write_jsonl(tracer, path)
        back = read_jsonl(path)
        assert [s.name for s in back.spans] == ["root", "child"]
        assert back.spans[1].parent == back.spans[0].index
        assert back.spans[0].vdur == pytest.approx(3.0)
        assert back.spans[1].vdur == pytest.approx(1.0)
        assert back.spans[0].labels == {"node": 0}
        key = (("node", "0"),)
        assert back.counters["engine.calls"][key] == 7
        assert back.gauges["node.clock_vsec"][key] == 3.0
        hist = back.hists["net.msg_latency_vsec"][(("kind", "TOUR"),)]
        assert hist.count == 1
        assert hist.mean == pytest.approx(0.01)
        assert back.meta["format"] == 1

    def test_empty_tracer_round_trips(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(Tracer(enabled=True), path)
        back = read_jsonl(path)
        assert back.spans == [] and back.counters == {}

    def test_unknown_record_kinds_skipped(self, tmp_path):
        tracer = self._populated_tracer()
        path = tmp_path / "t.jsonl"
        write_jsonl(tracer, path)
        path.write_text(
            path.read_text() + '{"t": "future-kind", "payload": 1}\n'
        )
        back = read_jsonl(path)
        assert len(back.spans) == 2

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="not valid JSONL"):
            read_jsonl(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"t": "meta", "format": 99}\n')
        with pytest.raises(ValueError, match="unsupported trace format"):
            read_jsonl(path)


class TestSimulatorIntegration:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        from repro.core import solve
        from repro.tsp import generators

        inst = generators.uniform(80, rng=3)
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            result = solve(inst, budget_vsec_per_node=1.0, n_nodes=8, rng=5)
        path = tmp_path_factory.mktemp("obs") / "run.jsonl"
        write_jsonl(tracer, path)
        return result, read_jsonl(path)

    def test_phase_sums_equal_node_clocks(self, traced_run):
        result, trace = traced_run
        per_node = time_in_phase(trace)
        assert len(per_node) == 8
        for node, phases in per_node.items():
            # Bootstrap is charged (free_init=False), so the traced
            # phases account for the node's entire virtual clock.
            assert sum(phases.values()) == pytest.approx(
                result.clocks[int(node)], abs=1e-6
            ), f"node {node} phase sum != clock"

    def test_latency_histogram_counts_delivered_messages(self, traced_run):
        result, trace = traced_run
        total = sum(
            h.count
            for h in trace.hists.get("net.msg_latency_vsec", {}).values()
        )
        assert total == result.network_stats.delivered > 0

    def test_engine_counters_exported_per_node(self, traced_run):
        result, trace = traced_run
        calls = trace.counters.get("engine.calls", {})
        nodes = {dict(k)["node"] for k in calls}
        assert nodes == {str(i) for i in range(8)}
        total = sum(calls.values())
        assert total == sum(
            s.calls for s in result.op_stats.values()
        ) > 0

    def test_summarize_renders_all_sections(self, traced_run):
        _, trace = traced_run
        text = summarize_trace(trace)
        assert "time in phase" in text
        assert "span tree" in text
        assert "net.msg_latency_vsec" in text
        assert "engine telemetry" in text

    def test_summarize_reports_the_pass_memo(self, traced_run):
        # A fresh instance: node 0 runs the bootstrap's full LK pass and
        # its first CLK call's full pass; the other 7 nodes replay both.
        _, trace = traced_run
        assert trace.counters["clk.pass_memo_hits"] == {(): 14.0}
        assert trace.counters["clk.pass_memo_misses"] == {(): 2.0}
        assert "LK pass memo: 14 hits, 2 misses" in summarize_trace(trace)

    def test_untraced_run_records_nothing(self):
        from repro.core import solve
        from repro.tsp import generators

        inst = generators.uniform(40, rng=9)
        tracer = Tracer(enabled=False)
        with use_tracer(tracer):
            solve(inst, budget_vsec_per_node=0.1, n_nodes=2, rng=1)
        assert tracer.spans == []
        assert tracer.metrics is NULL_METRICS


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_mp_backend_traced_smoke():
    """Parent-side spans/metrics for the real-process backend."""
    from repro.core.node import NodeConfig
    from repro.distributed.mp_backend import run_multiprocessing
    from repro.tsp import generators

    inst = generators.uniform(40, rng=0)
    tracer = Tracer(enabled=True)
    try:
        with use_tracer(tracer):
            res = run_multiprocessing(
                inst,
                budget_seconds=2.0,
                n_nodes=2,
                node_config=NodeConfig(inner_kicks=2),
                topology="ring",
                rng=0,
            )
    finally:
        set_tracer(None)
    assert res.tour(inst).is_valid()
    names = [s.name for s in tracer.spans]
    assert "mp.run" in names
    run_span = tracer.spans[names.index("mp.run")]
    assert run_span.wall > 0.0
    for node_id in (0, 1):
        assert tracer.metrics.counter_value(
            "mp.iterations", node=node_id
        ) > 0
