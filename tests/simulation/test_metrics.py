"""Latency recording and utilisation timelines."""

import numpy as np
import pytest

from repro.simulation.metrics import LatencyRecorder, UtilizationTimeline, summarize


class TestLatencyRecorder:
    def test_record_and_percentiles(self):
        recorder = LatencyRecorder()
        for value in [0.010, 0.020, 0.030, 0.040, 0.100]:
            recorder.record("read", value)
        assert recorder.count("read") == 5
        assert recorder.median_ms("read") == pytest.approx(30.0)
        assert recorder.tail_ms("read", 90) > recorder.median_ms("read")

    def test_multiple_request_types(self):
        recorder = LatencyRecorder()
        recorder.record("read", 0.01)
        recorder.record("write", 0.02)
        assert recorder.count() == 2
        assert recorder.request_types() == ("read", "write")

    def test_invalid_inputs(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record("read", -0.1)
        with pytest.raises(ValueError):
            recorder.percentile_ms("missing", 50)
        recorder.record("read", 0.01)
        with pytest.raises(ValueError):
            recorder.percentile_ms("read", 150)


class TestSummarize:
    def test_summary_fields(self):
        recorder = LatencyRecorder()
        for value in [0.010, 0.020, 0.030, 0.040]:
            recorder.record("read", value)
        summaries = summarize(recorder, offered={"read": 5})
        summary = summaries["read"]
        assert summary.completed == 4
        assert summary.offered == 5
        assert summary.completion_ratio == pytest.approx(0.8)
        assert summary.median_ms == pytest.approx(25.0)
        assert summary.p90_ms <= summary.p99_ms
        assert summary.mean_ms == pytest.approx(25.0)

    def test_offered_defaults_to_completed(self):
        recorder = LatencyRecorder()
        recorder.record("write", 0.05)
        summaries = summarize(recorder, offered={})
        assert summaries["write"].completion_ratio == 1.0


class TestUtilizationTimeline:
    def test_mean_and_peak(self):
        timeline = UtilizationTimeline(
            node_name="phone-0",
            times_s=np.array([0.5, 1.5, 2.5]),
            utilization=np.array([0.2, 0.8, 0.5]),
        )
        assert timeline.mean() == pytest.approx(0.5)
        assert timeline.peak() == pytest.approx(0.8)

    def test_empty_timeline(self):
        timeline = UtilizationTimeline("x", np.array([]), np.array([]))
        assert timeline.mean() == 0.0
        assert timeline.peak() == 0.0
