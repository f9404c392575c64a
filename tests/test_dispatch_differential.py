"""Randomized differential suite for the vectorized dispatch paths.

The vectorized request path (PR 4, extended to jittered service and drop
directives in this round) claims *bit-identity* with the per-request scalar
loop -- every latency float, every replica's state, every totals counter,
and the RNG generator's final position.  These properties fuzz that claim
across the whole randomness cross-product (jitter x drop-rate x pool size x
queue pressure) instead of trusting a handful of handpicked cases, and the
event-time fault path is checked the same way: vectorized and scalar offer
loops must split chunks at the exact same failure instants.  Chunks also
start from queued router states (a scalar backlog, cold-starting replicas,
stale heap entries after a scale-down, every queue threshold), where the
raw pending-start deque must match too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.models import ModelProfile
from repro.cluster.router import JobRouter
from repro.sim.faults import FaultConfig
from repro.sim.lifecycle import EventFaultProcess


def make_router(jitter, replicas, drop_rate, threshold, seed, cold_start=(0.0, 0.0)):
    router = JobRouter(
        job_name="svc",
        model=ModelProfile(name="m", proc_time=0.18, proc_jitter=jitter),
        initial_replicas=replicas,
        queue_threshold=threshold,
        cold_start_range=cold_start,
        seed=seed,
    )
    router.drop_rate = drop_rate
    return router


def chunked_arrivals(rng, chunks, tick, rate):
    out, now = [], 0.0
    for _ in range(chunks):
        n = int(rng.poisson(rate * tick))
        out.append(np.sort(rng.random(n)) * tick + now)
        now += tick
    return out


def exact_state(router):
    """Everything a later offer can observe, read without expiring anything:
    the raw pending-start deque, not only its expired length."""
    return {
        "replicas": {
            rid: (r.ready_at, r.free_at, r.served, r.active)
            for rid, r in router._replicas.items()
        },
        "pending": list(router._pending_starts),
        "totals": (
            router.totals.arrivals,
            router.totals.served,
            router.totals.tail_dropped,
            router.totals.explicit_dropped,
        ),
        "rng": router._rng.bit_generator.state,
    }


def router_state(router, now):
    state = exact_state(router)
    state["queue"] = router.queue_length(now)
    return state


class TestOfferManyFuzz:
    """offer_many == the scalar loop, bit for bit, on randomized chunks."""

    @settings(max_examples=40, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.05, 0.2]),
        drop_rate=st.sampled_from([0.0, 0.05, 0.3]),
        replicas=st.integers(min_value=1, max_value=16),
        threshold=st.sampled_from([3, 50]),
        rate=st.floats(min_value=0.2, max_value=30.0),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_bit_identical_including_rng_state(
        self, jitter, drop_rate, replicas, threshold, rate, seed
    ):
        rng = np.random.default_rng(seed)
        chunks = chunked_arrivals(rng, chunks=4, tick=10.0, rate=rate)
        scalar = make_router(jitter, replicas, drop_rate, threshold, seed=7)
        batch = make_router(jitter, replicas, drop_rate, threshold, seed=7)
        now = 0.0
        for chunk in chunks:
            now += 10.0
            expected = np.array([scalar.offer(a) for a in chunk.tolist()])
            got = batch.offer_many(chunk)
            np.testing.assert_array_equal(got, expected)
            assert router_state(batch, now) == router_state(scalar, now)

    @settings(max_examples=20, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.08]),
        drop_rate=st.sampled_from([0.0, 0.1]),
        replicas=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_interleaved_scaling_keeps_identity(
        self, jitter, drop_rate, replicas, seed
    ):
        """Scale events between chunks (the control loop's usage pattern)
        must not open a gap between the paths."""
        rng = np.random.default_rng(seed)
        chunks = chunked_arrivals(rng, chunks=3, tick=10.0, rate=4.0)
        scalar = make_router(jitter, replicas, drop_rate, 50, seed=3)
        batch = make_router(jitter, replicas, drop_rate, 50, seed=3)
        now = 0.0
        targets = [replicas + 2, max(replicas - 1, 1), replicas]
        for chunk, target in zip(chunks, targets):
            now += 10.0
            expected = np.array([scalar.offer(a) for a in chunk.tolist()])
            np.testing.assert_array_equal(batch.offer_many(chunk), expected)
            scalar.scale_to(target, now)
            batch.scale_to(target, now)
            assert router_state(batch, now) == router_state(scalar, now)


def twin_routers(*args, **kwargs):
    return make_router(*args, **kwargs), make_router(*args, **kwargs)


def assert_chunk_identical(scalar, batch, chunk):
    expected = np.array([scalar.offer(a) for a in chunk.tolist()])
    np.testing.assert_array_equal(batch.offer_many(chunk), expected)
    assert exact_state(batch) == exact_state(scalar)


#: The separable randomness regimes the heap kernel batches, plus the
#: inseparable one (jitter and drops) that stays scalar.
REGIMES = [(0.0, 0.0), (0.08, 0.0), (0.0, 0.2), (0.08, 0.2)]


class TestQueuedRegimeDifferential:
    """Chunks that start on a non-empty router queue batch bit-identically."""

    @settings(max_examples=40, deadline=None)
    @given(
        regime=st.sampled_from(REGIMES),
        replicas=st.integers(min_value=1, max_value=16),
        threshold=st.integers(min_value=1, max_value=50),
        backlog=st.integers(min_value=1, max_value=80),
        load=st.floats(min_value=0.5, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_backlog_preloaded_by_scalar_offers(
        self, regime, replicas, threshold, backlog, load, seed
    ):
        jitter, drop_rate = regime
        scalar, batch = twin_routers(jitter, replicas, drop_rate, threshold, seed)
        # A burst of scalar offers on both twins leaves a backlog behind.
        burst = (np.arange(backlog) * 1e-3).tolist()
        for router in (scalar, batch):
            for arrival in burst:
                router.offer(arrival)
        assert exact_state(batch) == exact_state(scalar)
        rng = np.random.default_rng(seed)
        capacity = replicas / 0.18
        now = burst[-1]
        for _ in range(3):
            n = int(rng.poisson(load * capacity * 2.0)) + 1
            chunk = np.sort(rng.random(n)) * 2.0 + now
            now += 2.0
            assert_chunk_identical(scalar, batch, chunk)

    @settings(max_examples=25, deadline=None)
    @given(
        regime=st.sampled_from(REGIMES),
        replicas=st.integers(min_value=1, max_value=6),
        added=st.integers(min_value=1, max_value=6),
        threshold=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_cold_starting_replicas(self, regime, replicas, added, threshold, seed):
        """Scale-ups whose pods are still cold-starting while a backlog
        drains: their free times lie past the queue's starts."""
        jitter, drop_rate = regime
        scalar, batch = twin_routers(
            jitter, replicas, drop_rate, threshold, seed, cold_start=(3.0, 6.0)
        )
        rng = np.random.default_rng(seed)
        chunk = np.sort(rng.random(int(replicas * 40))) * 4.0
        assert_chunk_identical(scalar, batch, chunk)
        scalar.scale_to(replicas + added, now=4.0)
        batch.scale_to(replicas + added, now=4.0)
        assert any(r.ready_at > 4.0 for r in batch._replicas.values())
        for start in (4.0, 8.0, 12.0):
            chunk = np.sort(rng.random(int((replicas + added) * 30))) * 4.0 + start
            assert_chunk_identical(scalar, batch, chunk)

    @settings(max_examples=25, deadline=None)
    @given(
        regime=st.sampled_from(REGIMES),
        replicas=st.integers(min_value=2, max_value=16),
        removed=st.integers(min_value=1, max_value=15),
        threshold=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_scale_down_mid_backlog_leaves_stale_heap(
        self, regime, replicas, removed, threshold, seed
    ):
        jitter, drop_rate = regime
        scalar, batch = twin_routers(jitter, replicas, drop_rate, threshold, seed)
        burst = (np.arange(replicas * 8) * 1e-3).tolist()
        for router in (scalar, batch):
            for arrival in burst:
                router.offer(arrival)
            router.scale_to(max(replicas - removed, 1), now=0.1)
        # The scalar heap still holds the retired replicas' entries.
        live = set(batch._replicas)
        assert any(rid not in live for _, rid in batch._free_heap)
        rng = np.random.default_rng(seed)
        for start in (0.1, 2.1, 4.1):
            chunk = np.sort(rng.random(int(replicas * 12))) * 2.0 + start
            assert_chunk_identical(scalar, batch, chunk)

    @pytest.mark.parametrize("threshold", [1, 2, 5, 17, 50])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_threshold_at_saturation(self, threshold, regime):
        jitter, drop_rate = regime
        scalar, batch = twin_routers(jitter, 2, drop_rate, threshold, seed=5)
        rng = np.random.default_rng(threshold)
        for start in np.arange(0.0, 20.0, 2.0):
            chunk = np.sort(rng.random(40)) * 2.0 + start
            assert_chunk_identical(scalar, batch, chunk)
        assert batch.totals.tail_dropped > 0

    @pytest.mark.parametrize("regime", [(0.0, 0.0), (0.0, 0.2)])
    @pytest.mark.parametrize("replicas", [1, 3, 12])
    def test_exact_ties_between_starts_and_arrivals(self, regime, replicas):
        """On a dyadic grid, starts land exactly on later arrivals: the
        queue expires a start at an arrival equal to it, as the scalar
        deque does, and equal free times fall to the replica-id order."""
        jitter, drop_rate = regime
        scalar, batch = twin_routers(jitter, replicas, drop_rate, 4, seed=2)
        for router in (scalar, batch):
            router.proc_time_override = 0.25
        grid = np.arange(0.0, 8.0, 0.125)
        for start in (0.0, 8.0, 16.0):
            chunk = np.repeat(grid + start, replicas)
            assert_chunk_identical(scalar, batch, chunk)

    def test_closed_form_entry_expires_carried_queue(self):
        """A wide deterministic pool whose carried queue has fully started
        by the next chunk's first arrival takes the closed form, which
        must expire that queue exactly as the first scalar offer would."""
        scalar, batch = twin_routers(0.0, 12, 0.0, 50, seed=0)
        burst = np.concatenate([np.arange(0.0, 2.0, 0.5), np.full(20, 2.0)])
        assert_chunk_identical(scalar, batch, burst)
        assert batch._pending_starts  # the burst left a queue behind
        vector_before = batch.vector_requests
        chunk = np.arange(3.0, 9.0, 0.25)
        assert batch._queue_empty_at(float(chunk[0]))
        assert_chunk_identical(scalar, batch, chunk)
        assert batch.vector_requests - vector_before == chunk.shape[0]
        assert not batch._pending_starts

    def test_oversubscribed_jitter_stream_stays_batched(self):
        """Pinned small pools offered ~1.5x their capacity keep the queue
        non-empty and fire tail drops; a silent scalar fallback would show
        up as scalar dispatch here."""
        from repro.cluster.job import InferenceJobSpec
        from repro.cluster.kubernetes import ResourceQuota
        from repro.cluster.models import RESNET34
        from repro.sim import RequestBackendOptions, Simulation, SimulationConfig
        from tests.test_simulation import StaticPolicy

        assert RESNET34.proc_jitter > 0.0
        jobs = [InferenceJobSpec.with_default_slo(f"j{i}", RESNET34) for i in range(2)]
        capacity_rpm = 3 * 60.0 / RESNET34.proc_time
        traces = {job.name: np.full(6, 1.5 * capacity_rpm) for job in jobs}
        sim = Simulation(
            jobs, traces, StaticPolicy({job.name: 3 for job in jobs}),
            ResourceQuota.of_replicas(6),
            config=SimulationConfig(duration_minutes=6, seed=0),
            initial_replicas={job.name: 3 for job in jobs},
            options=RequestBackendOptions(vectorize=True),
        )
        result = sim.run()
        dispatch = result.metadata["dispatch"]
        total = dispatch["vector_requests"] + dispatch["scalar_requests"]
        assert total == sum(int(s.arrivals.sum()) for s in result.jobs.values())
        assert sum(int(s.drops.sum()) for s in result.jobs.values()) > 0
        assert dispatch["scalar_requests"] < 0.01 * total


class TestEventFaultCuts:
    """Exact failure instants, and identical splits on both offer paths."""

    def test_failure_times_shrink_the_pool(self):
        process = EventFaultProcess(
            FaultConfig(mttf_seconds=30.0, seed=1, process="event")
        )
        times = process.failure_times("j", 8, 0.0, 600.0)
        assert times == sorted(times)
        assert 0 < len(times) <= 8
        assert all(0.0 < t <= 600.0 for t in times)
        assert process.failures_injected["j"] == len(times)

    def test_failure_times_deterministic(self):
        a = EventFaultProcess(FaultConfig(mttf_seconds=50.0, seed=9, process="event"))
        b = EventFaultProcess(FaultConfig(mttf_seconds=50.0, seed=9, process="event"))
        for start in (0.0, 120.0, 240.0):
            assert a.failure_times("j", 5, start, 120.0) == b.failure_times(
                "j", 5, start, 120.0
            )

    def test_zero_pool_and_zero_dt(self):
        process = EventFaultProcess(FaultConfig(mttf_seconds=10.0, seed=0))
        assert process.failure_times("j", 0, 0.0, 100.0) == []
        assert process.failure_times("j", 3, 0.0, 0.0) == []
        with pytest.raises(ValueError):
            process.failure_times("j", -1, 0.0, 1.0)
        with pytest.raises(ValueError):
            process.failure_times("j", 1, 0.0, -1.0)

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_event_cuts_identical_across_offer_paths(self, vectorize):
        """The chunk split at failure instants is the same simulation no
        matter which offer path runs it -- pinned by comparing both paths'
        full per-minute series."""
        results = {}
        for vec in (True, False):
            results[vec] = self._run_event_sim(vec)
        for field in (
            "arrivals", "drops", "violations", "latency_p",
            "utility", "effective_utility", "replicas",
        ):
            np.testing.assert_array_equal(
                getattr(results[True].jobs["a"], field),
                getattr(results[False].jobs["a"], field),
            )
        meta = results[vectorize].metadata
        assert meta["total_failures"] > 0
        assert meta["dispatch"]["fault_chunk_cuts"] > 0

    @staticmethod
    def _run_event_sim(vectorize, faults="event"):
        from repro.cluster.job import InferenceJobSpec
        from repro.cluster.kubernetes import ResourceQuota
        from repro.cluster.models import RESNET34
        from repro.sim import (
            RequestBackendOptions,
            Simulation,
            SimulationConfig,
        )
        from tests.test_simulation import StaticPolicy

        jobs = [InferenceJobSpec.with_default_slo("a", RESNET34)]
        traces = {"a": np.full(10, 300.0)}
        config = SimulationConfig(
            duration_minutes=10, seed=0, cold_start_range=(10.0, 10.0),
            faults=FaultConfig(mttf_seconds=45.0, seed=1, process="event")
            if faults == "event" else None,
        )
        sim = Simulation(
            jobs, traces, StaticPolicy({"a": 4}), ResourceQuota.of_replicas(4),
            config=config, initial_replicas={"a": 4},
            options=RequestBackendOptions(vectorize=vectorize),
        )
        return sim.run()


class TestDispatchCounters:
    """The harness reports which regime served each request (metadata only:
    counters never enter report digests)."""

    def test_vectorized_run_counts_vector_requests(self):
        result = TestEventFaultCuts._run_event_sim(True, faults=None)
        dispatch = result.metadata["dispatch"]
        assert dispatch["vector_requests"] > 0
        assert dispatch["fault_chunk_cuts"] == 0
        total = dispatch["vector_requests"] + dispatch["scalar_requests"]
        assert total == int(result.jobs["a"].arrivals.sum())

    def test_scalar_run_counts_everything_scalar(self):
        result = TestEventFaultCuts._run_event_sim(False, faults=None)
        dispatch = result.metadata["dispatch"]
        assert dispatch["vector_requests"] == 0
        assert dispatch["scalar_requests"] == int(
            result.jobs["a"].arrivals.sum()
        )
