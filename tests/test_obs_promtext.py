"""Tests for the Prometheus text exposition (repro.obs.promtext)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import parse_prometheus_text, render_prometheus_text


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestRender:
    def test_counter_gains_total_suffix(self, registry):
        registry.counter("frames_served", "Frames served").inc(3)
        text = render_prometheus_text(registry)
        assert "# TYPE frames_served_total counter" in text
        assert "frames_served_total 3" in text
        # The raw name never appears as a sample line.
        assert "\nframes_served 3" not in text

    def test_counter_with_total_suffix_untouched(self, registry):
        registry.counter("hits_total").inc()
        text = render_prometheus_text(registry)
        assert "hits_total 1" in text
        assert "hits_total_total" not in text

    def test_gauge_and_help_line(self, registry):
        registry.gauge("queue_depth", "Waiting frames").set(7)
        text = render_prometheus_text(registry)
        assert "# HELP queue_depth Waiting frames" in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 7" in text

    def test_histogram_buckets_cumulative(self, registry):
        hist = registry.histogram("lat", bounds=(1.0, 5.0))
        hist.observe(0.5)
        hist.observe(0.5)
        hist.observe(3.0)
        hist.observe(100.0)
        text = render_prometheus_text(registry)
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="5.0"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text
        assert "lat_sum 104" in text

    def test_labelled_series(self, registry):
        counter = registry.counter("replays_total")
        counter.inc(2, tier="compiled")
        counter.inc(1, tier="eager")
        text = render_prometheus_text(registry)
        assert 'replays_total{tier="compiled"} 2' in text
        assert 'replays_total{tier="eager"} 1' in text

    def test_label_escaping(self, registry):
        registry.counter("odd_total").inc(
            1, reason='say "hi"\\\nbye')
        text = render_prometheus_text(registry)
        assert r'reason="say \"hi\"\\\nbye"' in text
        # And the escaped form survives a parse round trip.
        samples = parse_prometheus_text(text)
        (labels,) = samples["odd_total"]
        assert dict(labels)["reason"] == 'say "hi"\\\nbye'

    def test_empty_registry(self, registry):
        assert render_prometheus_text(registry) == ""


class TestParse:
    def test_roundtrip_values(self, registry):
        registry.counter("a_total").inc(5)
        registry.gauge("b").set(-2.5)
        hist = registry.histogram("c", bounds=(10.0,))
        hist.observe(3)
        hist.observe(30)
        samples = parse_prometheus_text(
            render_prometheus_text(registry))
        assert samples["a_total"][frozenset()] == 5
        assert samples["b"][frozenset()] == -2.5
        assert samples["c_bucket"][
            frozenset({("le", "10.0")})] == 1
        assert samples["c_bucket"][
            frozenset({("le", "+Inf")})] == 2
        assert samples["c_count"][frozenset()] == 2
        assert samples["c_sum"][frozenset()] == 33

    def test_untyped_sample_rejected(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_prometheus_text("loose_metric 1\n")

    def test_malformed_comment_rejected(self):
        with pytest.raises(ValueError, match="malformed comment"):
            parse_prometheus_text("# NONSENSE\n")

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError, match="missing value"):
            parse_prometheus_text(
                "# TYPE x gauge\nx{a=\"b\"}\n")

    def test_bad_metric_name_rejected(self):
        with pytest.raises(ValueError, match="bad metric name"):
            parse_prometheus_text("# TYPE ok gauge\nbad-name 1\n")

    def test_histogram_suffixes_resolve_to_base_type(self, registry):
        registry.histogram("serve_batch", bounds=(2.0,)).observe(1)
        samples = parse_prometheus_text(
            render_prometheus_text(registry))
        assert "serve_batch_bucket" in samples
        assert "serve_batch_sum" in samples
        assert "serve_batch_count" in samples
