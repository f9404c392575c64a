"""Metrics collector tests (per-minute aggregation, histories, percentiles)."""

import math

import numpy as np
import pytest

from repro.cluster.metrics import MetricsCollector
from repro.core.utility import SLO


def make_collector(slo=0.72, bin_seconds=15.0, prefix=None):
    return MetricsCollector(
        job_name="j",
        slo=SLO(slo),
        proc_time=0.18,
        bin_seconds=bin_seconds,
        history_prefix=prefix,
    )


class TestRecordAndMinuteStats:
    def test_empty_minute_full_utility(self):
        stats = make_collector().minute_stats(0)
        assert stats.arrivals == 0
        assert stats.utility == 1.0
        assert stats.violation_rate == 0.0

    def test_counts(self):
        collector = make_collector()
        collector.record(1.0, 0.2)
        collector.record(2.0, 0.9)   # violation
        collector.record(3.0, math.inf)  # drop (counts as violation)
        stats = collector.minute_stats(0)
        assert stats.arrivals == 3
        assert stats.drops == 1
        assert stats.violations == 2
        assert stats.violation_rate == pytest.approx(2 / 3)

    def test_minutes_are_isolated(self):
        collector = make_collector()
        collector.record(30.0, 0.2)
        collector.record(90.0, 0.9)
        assert collector.minute_stats(0).arrivals == 1
        assert collector.minute_stats(1).violations == 1

    def test_utility_uses_percentile_latency(self):
        collector = make_collector(slo=0.5)
        for _ in range(100):
            collector.record(5.0, 1.0)  # all at 2x SLO
        stats = collector.minute_stats(0)
        assert stats.utility == pytest.approx(0.5)

    def test_effective_utility_penalizes_drops(self):
        # p50 SLO so the latency percentile stays finite despite drops.
        collector = MetricsCollector("j", SLO(10.0, percentile=50), proc_time=0.18)
        for _ in range(90):
            collector.record(5.0, 0.1)
        for _ in range(10):
            collector.record(5.0, math.inf)
        stats = collector.minute_stats(0)
        # 10% drops -> availability 0.90 -> 50% credit.
        assert stats.utility == 1.0
        assert stats.effective_utility == pytest.approx(0.5)


class TestPercentiles:
    def test_p99_with_drops_is_inf(self):
        collector = make_collector()
        for _ in range(50):
            collector.record(1.0, 0.1)
        for _ in range(50):
            collector.record(1.0, math.inf)
        assert math.isinf(collector.window_latency_percentile(0.0, 60.0))

    def test_median_collector(self):
        collector = MetricsCollector("j", SLO(1.0, percentile=50), proc_time=0.1)
        for latency in (0.1, 0.2, 0.3, 0.4, 0.5):
            collector.record(1.0, latency)
        assert collector.window_latency_percentile(0.0, 60.0) == pytest.approx(0.3)

    def test_no_requests_zero(self):
        assert make_collector().window_latency_percentile(0.0, 60.0) == 0.0


class TestObservationFields:
    def test_rates_and_proc(self):
        collector = make_collector()
        for t in range(60):
            collector.record(float(t), 0.2, proc_time=0.18)
        fields = collector.observation_fields(0.0, 60.0)
        assert fields["arrival_rate"] == pytest.approx(1.0)
        assert fields["mean_proc_time"] == pytest.approx(0.18)
        assert fields["drop_rate"] == 0.0

    def test_defaults_when_idle(self):
        fields = make_collector().observation_fields(0.0, 60.0)
        assert fields["arrival_rate"] == 0.0
        assert fields["mean_proc_time"] == pytest.approx(0.18)


class TestRateHistory:
    def test_per_minute_rates(self):
        collector = make_collector()
        for t in np.linspace(0, 59.9, 120):  # 2 req/s in minute 0
            collector.record(float(t), 0.1)
        for t in np.linspace(60, 119.9, 60):  # 1 req/s in minute 1
            collector.record(float(t), 0.1)
        history = collector.rate_history(120.0, 2)
        assert history[0] == pytest.approx(2.0)
        assert history[1] == pytest.approx(1.0)

    def test_prefix_fills_negative_minutes(self):
        prefix = np.array([3.0, 4.0, 5.0])
        collector = make_collector(prefix=prefix)
        history = collector.rate_history(60.0, 4)
        # Minutes -3, -2, -1 come from the prefix; minute 0 has no data.
        assert history[0] == pytest.approx(3.0)
        assert history[1] == pytest.approx(4.0)
        assert history[2] == pytest.approx(5.0)
        assert history[3] == 0.0

    def test_trim_before(self):
        collector = make_collector()
        collector.record(10.0, 0.1)
        collector.record(200.0, 0.1)
        collector.trim_before(100.0)
        assert collector.minute_stats(0).arrivals == 0
        assert collector.minute_stats(3).arrivals == 1

    def test_invalid_minutes(self):
        with pytest.raises(ValueError):
            make_collector().rate_history(0.0, 0)


def reference_rate_history(collector, now, minutes):
    """Per-minute rates by summing each minute's bins (the bin-walking
    definition the per-minute counts must reproduce)."""
    bins_per_minute = max(int(round(60.0 / collector.bin_seconds)), 1)
    current_minute = int(now // 60.0)
    rates = np.zeros(minutes)
    prefix = collector.history_prefix
    for offset in range(minutes):
        minute = current_minute - minutes + offset
        if minute < 0:
            if prefix is not None and prefix.shape[0] + minute >= 0:
                rates[offset] = prefix[prefix.shape[0] + minute]
            continue
        first_bin = minute * bins_per_minute
        total = sum(
            collector._bins[first_bin + k].arrivals
            for k in range(bins_per_minute)
            if (first_bin + k) in collector._bins
        )
        if total == 0 and minute in collector._rate_backfill:
            rates[offset] = collector._rate_backfill[minute]
        else:
            rates[offset] = total / 60.0
    return rates


def reference_percentile(collector, start, end):
    """SLO-percentile latency by fully sorting the window's samples."""
    latencies, drops = [], 0
    for bin_ in collector._bins_in(start, end):
        latencies.extend(bin_.latencies)
        drops += bin_.drops
    total = len(latencies) + drops
    if total == 0:
        return 0.0
    rank = collector.slo.quantile * total
    if rank > len(latencies):
        return math.inf
    ordered = np.sort(np.asarray(latencies))
    return float(ordered[min(max(int(math.ceil(rank)) - 1, 0), len(ordered) - 1)])


class TestIncrementalWindowsMatchReference:
    """Per-minute arrival counts and the partitioned percentile equal the
    bin-summing and full-sort definitions, float for float."""

    MINUTES = 9

    def _stream(self, seed, drop_share=0.1):
        rng = np.random.default_rng(seed)
        arrivals = np.sort(rng.uniform(0.0, self.MINUTES * 60.0, 2500))
        latencies = rng.gamma(2.0, 0.25, arrivals.shape[0])
        latencies[rng.random(arrivals.shape[0]) < drop_share] = math.inf
        return arrivals, latencies

    def _fill(self, collector, arrivals, latencies, mode):
        if mode == "record":
            for arrival, latency in zip(arrivals.tolist(), latencies.tolist()):
                collector.record(arrival, latency)
        elif mode == "record_many":
            for part in np.array_split(np.arange(arrivals.shape[0]), 13):
                collector.record_many(arrivals[part], latencies[part])
        else:  # alternate scalar and batch chunks
            for index, part in enumerate(np.array_split(np.arange(arrivals.shape[0]), 17)):
                if index % 2:
                    collector.record_many(arrivals[part], latencies[part])
                else:
                    for i in part.tolist():
                        collector.record(float(arrivals[i]), float(latencies[i]))

    def _assert_matches(self, collector):
        for now in np.arange(0.0, (self.MINUTES + 2) * 60.0, 37.5):
            for minutes in (1, 5, 15):
                np.testing.assert_array_equal(
                    collector.rate_history(now, minutes),
                    reference_rate_history(collector, now, minutes),
                )
            for window in (15.0, 60.0, 150.0):
                start = max(now - window, 0.0)
                assert collector.window_latency_percentile(start, now) == (
                    reference_percentile(collector, start, now)
                )
        for minute in range(self.MINUTES):
            stats = collector.minute_stats(minute)
            assert stats.latency_p == reference_percentile(
                collector, minute * 60.0, (minute + 1) * 60.0
            )

    @pytest.mark.parametrize("bin_seconds", [15.0, 25.0, 7.0])
    @pytest.mark.parametrize("mode", ["record", "record_many", "mixed"])
    def test_after_recording(self, mode, bin_seconds):
        collector = make_collector(bin_seconds=bin_seconds, prefix=np.arange(4.0))
        self._fill(collector, *self._stream(seed=1), mode)
        self._assert_matches(collector)

    @pytest.mark.parametrize("bin_seconds", [15.0, 25.0])
    @pytest.mark.parametrize("cutoff", [97.0, 185.5, 240.0])
    def test_after_trim_off_minute_boundary(self, bin_seconds, cutoff):
        collector = make_collector(bin_seconds=bin_seconds)
        self._fill(collector, *self._stream(seed=2), "mixed")
        collector.trim_before(cutoff)
        self._assert_matches(collector)
        # Recording after a trim keeps the counts in step.
        collector.record_many(np.array([cutoff + 1.0, cutoff + 2.0]), np.array([0.3, math.inf]))
        collector.record(cutoff + 3.0, 0.4)
        self._assert_matches(collector)

    @pytest.mark.parametrize("bin_seconds", [15.0, 25.0])
    def test_with_backfilled_minutes(self, bin_seconds):
        collector = make_collector(bin_seconds=bin_seconds)
        arrivals, latencies = self._stream(seed=3)
        keep = (arrivals < 120.0) | (arrivals >= 300.0)
        collector.backfill_rate_history({m: 10.0 + m for m in range(12)})
        self._fill(collector, arrivals[keep], latencies[keep], "mixed")
        collector.trim_before(130.0)
        self._assert_matches(collector)
        history = collector.rate_history(6 * 60.0, 6)
        assert history[2] == 12.0 and history[3] == 13.0  # backfilled minutes

    def test_all_drops_and_empty_windows(self):
        collector = make_collector()
        collector.record_many(np.array([1.0, 2.0]), np.array([math.inf, math.inf]))
        assert collector.window_latency_percentile(0.0, 60.0) == math.inf
        assert collector.window_latency_percentile(60.0, 120.0) == 0.0
        self._assert_matches(collector)
