"""Latency summaries and utilisation timelines."""

import dataclasses

import numpy as np
import pytest

from repro.simulation.metrics import UtilizationTimeline, summarize


class TestSummarize:
    def test_percentiles(self):
        summary = summarize({"read": [0.010, 0.020, 0.030, 0.040, 0.100]}, {})["read"]
        assert summary.completed == 5
        assert summary.median_ms == pytest.approx(30.0)
        assert summary.p90_ms > summary.median_ms

    def test_summary_fields(self):
        samples = {"read": [0.010, 0.020, 0.030, 0.040]}
        summaries = summarize(samples, offered={"read": 5})
        summary = summaries["read"]
        assert summary.completed == 4
        assert summary.offered == 5
        assert summary.completion_ratio == pytest.approx(0.8)
        assert summary.median_ms == pytest.approx(25.0)
        assert summary.p90_ms <= summary.p99_ms
        assert summary.mean_ms == pytest.approx(25.0)

    def test_types_in_sorted_order(self):
        summaries = summarize({"write": [0.02], "read": [0.01]}, {})
        assert list(summaries) == ["read", "write"]
        assert sum(summary.completed for summary in summaries.values()) == 2

    def test_a_type_with_no_samples_is_skipped(self):
        summaries = summarize({"read": [], "write": np.array([0.05])}, {"read": 3})
        assert list(summaries) == ["write"]

    def test_negative_latency_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            summarize({"read": [0.01, -0.1]}, {})
        with pytest.raises(ValueError, match="non-negative"):
            summarize({"read": np.array([0.01, -0.1])}, {})

    def test_offered_defaults_to_completed(self):
        summaries = summarize({"write": [0.05]}, offered={})
        assert summaries["write"].offered == 1
        assert summaries["write"].completion_ratio == 1.0

    def test_list_and_array_inputs_are_bitwise_equal(self):
        latencies = np.random.default_rng(7).lognormal(-4.0, 0.8, size=1001)

        def bits(samples):
            (summary,) = summarize({"read": samples}, {"read": 1200}).values()
            return [
                value.hex() if isinstance(value, float) else value
                for value in dataclasses.astuple(summary)
            ]

        assert bits(latencies.tolist()) == bits(latencies)


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
