"""Metrics collection (the paper's modified Ray Router exports, §5).

Per job the collector aggregates request outcomes into fixed-size time bins
(default 15 s) holding arrivals, drops, SLO violations and latency samples.
From the bins it derives:

- recent observations for the control loop (:meth:`observation`),
- per-minute arrival-rate history for time-series predictors
  (:meth:`rate_history`), and
- per-minute evaluation series (violation rate, p99 latency, utility) for
  the experiment reports (:meth:`minute_stats`).

Dropped requests count as SLO violations with infinite latency, matching
the paper's metric definitions (§6 "Metrics").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np

from repro.core.utility import SLO, inverse_utility

__all__ = ["MinuteStats", "MetricsCollector"]


@dataclass
class _Bin:
    arrivals: int = 0
    drops: int = 0
    violations: int = 0
    latencies: list[float] = field(default_factory=list)
    proc_time_sum: float = 0.0


@dataclass(frozen=True)
class MinuteStats:
    """Aggregated per-minute evaluation numbers for one job."""

    minute: int
    arrivals: int
    drops: int
    violations: int
    latency_p: float
    violation_rate: float
    utility: float
    effective_utility: float


class MetricsCollector:
    """Aggregates one job's request stream into time bins."""

    def __init__(
        self,
        job_name: str,
        slo: SLO,
        proc_time: float,
        bin_seconds: float = 15.0,
        alpha: float = 1.0,
        history_prefix: np.ndarray | None = None,
    ) -> None:
        if bin_seconds <= 0:
            raise ValueError(f"bin_seconds must be positive, got {bin_seconds}")
        self.job_name = job_name
        self.slo = slo
        self.proc_time = proc_time
        self.bin_seconds = bin_seconds
        self.alpha = alpha
        # Arrival rates (requests/second, one per minute, most recent last)
        # observed *before* t=0 -- seeds predictors so early control cycles
        # are not blinded by an empty history.
        self.history_prefix = (
            np.asarray(history_prefix, dtype=float) if history_prefix is not None else None
        )
        self._bins: dict[int, _Bin] = {}
        #: :meth:`rate_history` reads minute ``m`` as the arrivals of bins
        #: ``m * bins_per_minute`` onwards; their total is kept here per
        #: minute, next to the bins, so a history read is one lookup per
        #: minute instead of one per bin.
        self._bins_per_minute = max(int(round(60.0 / bin_seconds)), 1)
        self._minute_arrivals: dict[int, int] = {}
        #: Synthetic per-minute rates (requests/second) for minutes this
        #: collector never observed -- seeded by the hybrid backend when a
        #: job is promoted to request fidelity mid-run, so predictors are
        #: not blinded by the empty pre-promotion history.  Consulted by
        #: :meth:`rate_history` only where no real bins exist; never
        #: contributes to :meth:`minute_stats` or observations.
        self._rate_backfill: dict[int, float] = {}

    # ------------------------------------------------------------- record

    def record(self, arrival_time: float, latency: float, proc_time: float | None = None) -> None:
        """Record one request outcome (``latency = inf`` for drops)."""
        index = int(arrival_time // self.bin_seconds)
        bin_ = self._bins.setdefault(index, _Bin())
        bin_.arrivals += 1
        minute = index // self._bins_per_minute
        self._minute_arrivals[minute] = self._minute_arrivals.get(minute, 0) + 1
        if math.isinf(latency):
            bin_.drops += 1
            bin_.violations += 1
            return
        if latency > self.slo.target:
            bin_.violations += 1
        bin_.latencies.append(latency)
        bin_.proc_time_sum += proc_time if proc_time is not None else self.proc_time

    def record_many(self, arrival_times, latencies) -> None:
        """Record a batch of request outcomes (``inf`` latency = drop).

        Bit-identical to calling :meth:`record` once per request in order
        (pinned by ``tests/test_sim_backends.py``): counts are exact, bin
        latency lists receive the same values in the same order, and the
        per-bin ``proc_time_sum`` is accumulated with the same sequential
        additions (one per served request, in order) so not even
        floating-point rounding can differ.
        """
        arrival_times = np.asarray(arrival_times, dtype=float)
        latencies = np.asarray(latencies, dtype=float)
        n = arrival_times.shape[0]
        if n == 0:
            return
        indices = (arrival_times // self.bin_seconds).astype(np.int64)
        # Arrivals come in nondecreasing time order, so equal bins form
        # contiguous runs; processing runs in order preserves the exact
        # per-bin append/accumulate order of the scalar path.  (Out-of-order
        # input still lands in the right bins -- later runs of a repeated
        # bin just append after earlier ones, as record() would.)
        boundaries = np.flatnonzero(indices[1:] != indices[:-1]) + 1
        run_starts = [0, *boundaries.tolist()]
        run_ends = [*boundaries.tolist(), n]
        slo_target = self.slo.target
        proc_time = self.proc_time
        bins_per_minute = self._bins_per_minute
        minute_arrivals = self._minute_arrivals
        for start, end in zip(run_starts, run_ends):
            index = int(indices[start])
            bin_ = self._bins.setdefault(index, _Bin())
            count = end - start
            bin_.arrivals += count
            minute = index // bins_per_minute
            minute_arrivals[minute] = minute_arrivals.get(minute, 0) + count
            window = latencies[start:end]
            # inf > target is True, so this counts drops and slow requests
            # in one comparison (record() counts a drop as a violation).
            bin_.violations += int(np.count_nonzero(window > slo_target))
            drops = int(np.count_nonzero(np.isinf(window)))
            if drops:
                bin_.drops += drops
                window = window[np.isfinite(window)]
            served = window.shape[0]
            if served:
                bin_.latencies.extend(window.tolist())
                # Repeated addition is not multiplication in floating
                # point: accumulate exactly as record() would have, one
                # float addition per served request, in order.
                bin_.proc_time_sum = reduce(
                    add, repeat(proc_time, served), bin_.proc_time_sum
                )

    # -------------------------------------------------------- observation

    def _bins_in(self, start: float, end: float) -> list[_Bin]:
        first = int(start // self.bin_seconds)
        last = int(math.ceil(end / self.bin_seconds))
        return [self._bins[i] for i in range(first, last) if i in self._bins]

    def window_latency_percentile(self, start: float, end: float) -> float:
        """SLO-percentile latency over [start, end); drops count as inf."""
        return self._latency_percentile(self._bins_in(start, end))

    def _latency_percentile(self, bins: list[_Bin]) -> float:
        latencies: list[float] = []
        drops = 0
        for bin_ in bins:
            latencies.extend(bin_.latencies)
            drops += bin_.drops
        total = len(latencies) + drops
        if total == 0:
            return 0.0
        rank = self.slo.quantile * total
        if rank > len(latencies):
            return math.inf
        index = min(max(int(math.ceil(rank)) - 1, 0), len(latencies) - 1)
        # The element a full sort would put at ``index``, without the sort.
        return float(np.partition(np.asarray(latencies), index)[index])

    def observation_fields(self, start: float, end: float) -> dict:
        """Raw aggregates over [start, end) for building JobObservation."""
        bins = self._bins_in(start, end)
        arrivals = sum(b.arrivals for b in bins)
        drops = sum(b.drops for b in bins)
        violations = sum(b.violations for b in bins)
        served = arrivals - drops
        proc_sum = sum(b.proc_time_sum for b in bins)
        duration = max(end - start, 1e-9)
        return {
            "arrival_rate": arrivals / duration,
            "latency": self._latency_percentile(bins),
            "slo_violation_rate": violations / arrivals if arrivals else 0.0,
            "mean_proc_time": proc_sum / served if served else self.proc_time,
            "drop_rate": drops / arrivals if arrivals else 0.0,
        }

    def rate_history(self, now: float, minutes: int) -> np.ndarray:
        """Per-minute arrival rates (requests/second) for the last ``minutes``.

        This is the series fed to time-series predictors; requests/second
        units keep it consistent with the optimizer's latency models.
        """
        if minutes < 1:
            raise ValueError(f"minutes must be >= 1, got {minutes}")
        current_minute = int(now // 60.0)
        rates = np.zeros(minutes)
        prefix = self.history_prefix
        minute_arrivals = self._minute_arrivals
        for offset in range(minutes):
            minute = current_minute - minutes + offset
            if minute < 0:
                if prefix is not None and prefix.shape[0] + minute >= 0:
                    rates[offset] = prefix[prefix.shape[0] + minute]
                continue
            total = minute_arrivals.get(minute, 0)
            if total == 0 and minute in self._rate_backfill:
                rates[offset] = self._rate_backfill[minute]
            else:
                rates[offset] = total / 60.0
        return rates

    def backfill_rate_history(self, minute_rates: dict[int, float]) -> None:
        """Seed per-minute rates (requests/second) for unobserved minutes.

        Hybrid fidelity promotion calls this with the offered trace rates
        of the minutes the job spent on the analytic side, so
        :meth:`rate_history` stays informative across the fidelity switch.
        Backfill never overrides minutes with real recorded bins.
        """
        for minute, rate in minute_rates.items():
            self._rate_backfill[int(minute)] = float(rate)

    # ------------------------------------------------------------ results

    def minute_stats(self, minute: int) -> MinuteStats:
        """Evaluation aggregates for one whole minute."""
        start, end = minute * 60.0, (minute + 1) * 60.0
        bins = self._bins_in(start, end)
        arrivals = sum(b.arrivals for b in bins)
        drops = sum(b.drops for b in bins)
        violations = sum(b.violations for b in bins)
        latency = self._latency_percentile(bins)
        if arrivals == 0:
            utility = 1.0  # An idle job trivially meets its SLO.
            violation_rate = 0.0
        else:
            utility = inverse_utility(latency, self.slo.target, alpha=self.alpha)
            violation_rate = violations / arrivals
        from repro.core.penalty import penalty_multiplier

        drop_fraction = drops / arrivals if arrivals else 0.0
        effective = penalty_multiplier(drop_fraction) * utility
        return MinuteStats(
            minute=minute,
            arrivals=arrivals,
            drops=drops,
            violations=violations,
            latency_p=latency,
            violation_rate=violation_rate,
            utility=utility,
            effective_utility=effective,
        )

    def trim_before(self, time_s: float) -> None:
        """Drop bins older than ``time_s`` (bound long-run memory)."""
        cutoff = int(time_s // self.bin_seconds)
        stale = [i for i in self._bins if i < cutoff]
        minute_arrivals = self._minute_arrivals
        for index in stale:
            minute = index // self._bins_per_minute
            left = minute_arrivals[minute] - self._bins.pop(index).arrivals
            if left:
                minute_arrivals[minute] = left
            else:
                del minute_arrivals[minute]
