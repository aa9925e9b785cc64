"""Unit tests for TelemetryConfig and the ``tracing()`` convenience helper."""

import io

from repro.core.config import EngineConfig
from repro.telemetry import (
    NOOP_TRACER,
    MetricsRegistry,
    TelemetryConfig,
    Tracer,
    tracing,
)
from repro.telemetry.config import metrics_of, tracer_of
from repro.telemetry.sinks import JsonLinesSink, RingBufferSink, SlowQueryLog


class TestTelemetryConfig:
    def test_enabled_config_builds_a_live_tracer_and_registry(self):
        config = TelemetryConfig()
        assert isinstance(config.tracer, Tracer)
        assert config.tracer.enabled
        assert isinstance(config.metrics, MetricsRegistry)

    def test_disabled_config_uses_the_noop_singleton(self):
        config = TelemetryConfig(enabled=False)
        assert config.tracer is NOOP_TRACER
        # The registry stays live: metrics are cheap, only spans cost.
        assert isinstance(config.metrics, MetricsRegistry)

    def test_ring_property_finds_the_ring_sink(self):
        ring = RingBufferSink(capacity=4)
        config = TelemetryConfig(sinks=(SlowQueryLog(0.0, stream=io.StringIO()), ring))
        assert config.ring is ring
        assert TelemetryConfig().ring is None

    def test_tracer_of_and_metrics_of_handle_absent_configs(self):
        assert tracer_of(None) is NOOP_TRACER
        assert tracer_of(TelemetryConfig(enabled=False)) is NOOP_TRACER
        live = TelemetryConfig()
        assert tracer_of(live) is live.tracer
        assert metrics_of(live) is live.metrics
        assert isinstance(metrics_of(None), MetricsRegistry)
        assert metrics_of(None) is not metrics_of(None)  # private defaults


class TestTracingHelper:
    def test_default_is_a_ring_buffer_only(self):
        config = tracing()
        assert config.enabled
        assert config.ring is not None
        assert config.ring.capacity == 256
        assert len(config.sinks) == 1

    def test_optional_jsonl_and_slow_query_sinks(self, tmp_path):
        stream = io.StringIO()
        config = tracing(
            ring=8,
            jsonl_path=str(tmp_path / "t.jsonl"),
            slow_query_seconds=0.5,
            stream=stream,
        )
        kinds = [type(sink) for sink in config.sinks]
        assert kinds == [RingBufferSink, JsonLinesSink, SlowQueryLog]
        slow = config.sinks[-1]
        assert slow.threshold_seconds == 0.5
        assert slow.stream is stream


class TestEngineConfigWiring:
    def test_engine_config_defaults_to_noop(self):
        assert EngineConfig().telemetry is None
        assert EngineConfig().tracer() is NOOP_TRACER

    def test_with_telemetry_selects_the_live_tracer(self):
        telemetry = tracing(ring=4)
        config = EngineConfig().with_(telemetry=telemetry)
        assert config.tracer() is telemetry.tracer
        # ``with_`` on other fields must carry the telemetry through.
        assert config.with_(executor="vectorized").tracer() is telemetry.tracer
