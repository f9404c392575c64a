"""Per-job Router: dispatch, queueing, drops, replica lifecycle.

One Router fronts each job (the paper runs it on the job's Ray head pod).
It (i) dispatches requests FIFO to the least-backlogged replica,
(ii) tail-drops requests once its queue exceeds a threshold (default 50,
returning HTTP 503 to the client), (iii) honours explicit drop directives
from the autoscaler (penalty variants), and (iv) manages replica cold
starts on scale-up and graceful draining on scale-down.

Implementation: a *virtual-time* router.  Because service is (near-)
deterministic and dispatch is FIFO/work-conserving, a request's start time
is fully determined at arrival: it runs on the replica that frees up
earliest.  The router therefore keeps a heap of per-replica free times
instead of simulating per-request events, which is exact for this
discipline and roughly an order of magnitude faster -- the property that
makes trace-driven, day-long multi-policy sweeps tractable in pure Python.

Chunks of arrivals go through :meth:`JobRouter.offer_many`, which replays
:meth:`JobRouter.offer` bit-for-bit with one of three kernels: a numpy
closed-form recurrence for deterministic service on wide pools with an
empty router queue, a list-based heap-replace kernel for every other
chunk whose randomness is separable (jitter only, drops only, or
neither) whatever queue the router carries, and the scalar loop for
jitter and drops together.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cluster.models import ModelProfile

__all__ = ["Replica", "RouterTotals", "JobRouter"]


@dataclass
class Replica:
    """Bookkeeping for one Ray Serve replica (worker pod)."""

    replica_id: int
    ready_at: float
    free_at: float
    served: int = 0
    active: bool = True


@dataclass
class RouterTotals:
    """Lifetime counters for one job's router."""

    arrivals: int = 0
    served: int = 0
    tail_dropped: int = 0
    explicit_dropped: int = 0
    failures: int = 0

    @property
    def dropped(self) -> int:
        return self.tail_dropped + self.explicit_dropped


class JobRouter:
    """Router + replica pool for a single inference job."""

    def __init__(
        self,
        job_name: str,
        model: ModelProfile,
        initial_replicas: int = 1,
        queue_threshold: int = 50,
        cold_start_range: tuple[float, float] = (50.0, 70.0),
        seed: int = 0,
    ) -> None:
        if initial_replicas < 0:
            raise ValueError(f"initial_replicas must be >= 0, got {initial_replicas}")
        if queue_threshold < 1:
            raise ValueError(f"queue_threshold must be >= 1, got {queue_threshold}")
        lo, hi = cold_start_range
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid cold_start_range {cold_start_range}")
        self.job_name = job_name
        self.model = model
        self.queue_threshold = queue_threshold
        self.cold_start_range = cold_start_range
        self.drop_rate = 0.0
        #: Effective processing time pushed by heterogeneous device pools;
        #: ``None`` (the homogeneous default) serves at the model's time.
        self.proc_time_override: float | None = None
        self.totals = RouterTotals()
        #: Dispatch-regime counters: requests resolved by a batch kernel
        #: vs the per-request scalar loop (observability only; never
        #: serialized into report digests).
        self.vector_requests = 0
        self.scalar_requests = 0
        self._rng = np.random.default_rng(seed)
        self._ids = itertools.count()
        self._replicas: dict[int, Replica] = {}
        self._free_heap: list[tuple[float, int]] = []
        # Start times of accepted-but-not-yet-started requests.  Starts are
        # assigned in nondecreasing order (FIFO + earliest-free dispatch), so
        # a deque with front-expiry gives the exact router queue length.
        self._pending_starts: deque[float] = deque()
        for _ in range(initial_replicas):
            self._add_replica(ready_at=0.0)

    # ----------------------------------------------------------- replicas

    def _add_replica(self, ready_at: float) -> Replica:
        replica = Replica(replica_id=next(self._ids), ready_at=ready_at, free_at=ready_at)
        self._replicas[replica.replica_id] = replica
        heapq.heappush(self._free_heap, (replica.free_at, replica.replica_id))
        return replica

    def _sample_cold_start(self) -> float:
        lo, hi = self.cold_start_range
        if hi == lo:
            return lo
        return float(self._rng.uniform(lo, hi))

    @property
    def replica_count(self) -> int:
        """Replicas that exist (running or still cold-starting)."""
        return len(self._replicas)

    def ready_replica_count(self, now: float) -> int:
        """Replicas past their cold start at time ``now``."""
        return sum(1 for r in self._replicas.values() if r.ready_at <= now)

    def scale_to(self, target: int, now: float) -> int:
        """Set the replica target; returns the applied delta.

        Scale-ups create replicas that become ready after a sampled cold
        start.  Scale-downs retire replicas gracefully: pods still cold-
        starting go first (latest ready time first), then the
        least-backlogged running replicas; in-flight work finishes.
        """
        if target < 0:
            raise ValueError(f"target must be >= 0, got {target}")
        delta = target - self.replica_count
        if delta > 0:
            for _ in range(delta):
                self._add_replica(ready_at=now + self._sample_cold_start())
        elif delta < 0:
            victims = self._pick_victims(-delta, now)
            for replica_id in victims:
                self._replicas[replica_id].active = False
                del self._replicas[replica_id]
        return delta

    def fail_replica(self, now: float) -> int | None:
        """Kill one uniformly random replica (fault injection).

        Returns the failed replica id, or ``None`` when the pool is empty.
        Work already assigned in virtual time completes (Ray Serve retries
        in-flight requests transparently); the first-order SLO effect of a
        failure is the capacity loss until reconciliation recreates the pod
        and it finishes a fresh cold start, which this models exactly.
        """
        if not self._replicas:
            return None
        victims = list(self._replicas)
        victim = int(victims[self._rng.integers(len(victims))])
        self._replicas[victim].active = False
        del self._replicas[victim]
        self.totals.failures += 1
        return victim

    def _pick_victims(self, count: int, now: float) -> list[int]:
        pending = [r for r in self._replicas.values() if r.ready_at > now and r.served == 0]
        pending.sort(key=lambda r: -r.ready_at)
        victims = [r.replica_id for r in pending[:count]]
        remaining = count - len(victims)
        if remaining > 0:
            running = [r for r in self._replicas.values() if r.replica_id not in victims]
            running.sort(key=lambda r: r.free_at)
            victims.extend(r.replica_id for r in running[:remaining])
        return victims

    # ------------------------------------------------------------ dispatch

    def queue_length(self, now: float) -> int:
        """Requests accepted but not yet started (the router queue)."""
        pending = self._pending_starts
        while pending and pending[0] <= now:
            pending.popleft()
        return len(pending)

    @property
    def proc_time(self) -> float:
        """Deterministic per-request service time currently in force."""
        if self.proc_time_override is not None:
            return self.proc_time_override
        return self.model.proc_time

    def _proc_time_sample(self) -> float:
        base = self.proc_time
        if self.model.proc_jitter == 0.0:
            return base
        jitter = self._rng.normal(1.0, self.model.proc_jitter)
        return base * min(max(jitter, 0.5), 1.5)

    def offer(self, arrival: float) -> float:
        """Offer one request at time ``arrival``.

        Returns the request latency in seconds, ``inf`` if dropped (tail
        drop or explicit drop directive -- both count as failed requests and
        are not retried, per the paper's load generator).
        """
        self.totals.arrivals += 1
        self.scalar_requests += 1
        if self.drop_rate > 0.0 and self._rng.random() < self.drop_rate:
            self.totals.explicit_dropped += 1
            return math.inf
        if not self._replicas:
            self.totals.tail_dropped += 1
            return math.inf
        if self.queue_length(arrival) >= self.queue_threshold:
            self.totals.tail_dropped += 1
            return math.inf
        # Pop stale heap entries until one matches a live replica's state.
        while self._free_heap:
            free_at, replica_id = self._free_heap[0]
            replica = self._replicas.get(replica_id)
            if replica is None or replica.free_at != free_at:
                heapq.heappop(self._free_heap)
                continue
            break
        else:
            self.totals.tail_dropped += 1
            return math.inf
        heapq.heappop(self._free_heap)
        start = max(arrival, replica.free_at, replica.ready_at)
        completion = start + self._proc_time_sample()
        replica.free_at = completion
        replica.served += 1
        heapq.heappush(self._free_heap, (completion, replica_id))
        if start > arrival:
            self._pending_starts.append(start)
        self.totals.served += 1
        return completion - arrival

    # ------------------------------------------------------- batch offers

    #: Smallest chunk worth routing as a batch, and smallest closed-form
    #: prefix worth committing; below this the batch bookkeeping costs
    #: more than it saves.
    _MIN_FAST_PREFIX = 12

    #: Pool size from which deterministic service runs the closed-form
    #: recurrence as c-wide numpy rows; below it the heap kernel is faster
    #: (both compute identical IEEE doubles).
    _NUMPY_RECURRENCE_MIN_POOL = 12

    def offer_many(self, arrivals: np.ndarray) -> np.ndarray:
        """Offer a chunk of arrivals (nondecreasing times); returns latencies.

        Semantically identical to calling :meth:`offer` once per arrival in
        order -- bit-for-bit, including RNG consumption, the router queue
        and post-chunk replica state (pinned by
        ``tests/test_dispatch_differential.py``).  Kernel map:

        - deterministic service on a pool of at least
          ``_NUMPY_RECURRENCE_MIN_POOL`` replicas with an empty router
          queue at the first arrival: the closed-form numpy recurrence
          (:meth:`_offer_chunk_fast`) commits a prefix of the chunk;
        - the rest of such a chunk, and every other chunk whose randomness
          is *separable* (jitter alone, a drop directive alone, or
          neither): the heap-replace kernel (:meth:`_offer_chunk_heap`),
          starting from whatever queue the router carries;
        - jitter *and* drops together, or an empty pool: the scalar loop.
          Those draws interleave by outcome (a uniform per arrival, then a
          normal only if served), which no fixed pair of batch draws
          reproduces.
        """
        arrivals = np.asarray(arrivals, dtype=float)
        n = arrivals.shape[0]
        if n == 0:
            return np.empty(0)
        jitter = self.model.proc_jitter
        if not self._replicas or (jitter != 0.0 and self.drop_rate > 0.0):
            offer = self.offer
            return np.array([offer(arrival) for arrival in arrivals.tolist()])
        if (
            jitter == 0.0
            and n >= self._MIN_FAST_PREFIX
            and len(self._replicas) >= self._NUMPY_RECURRENCE_MIN_POOL
            and self._queue_empty_at(float(arrivals[0]))
        ):
            fast = self._offer_chunk_fast(arrivals)
            if fast is not None:
                head, consumed = fast
                if consumed == n:
                    return head
                return np.concatenate([head, self._offer_chunk_heap(arrivals[consumed:])])
        return self._offer_chunk_heap(arrivals)

    def _queue_empty_at(self, arrival: float) -> bool:
        """Whether the router queue would be empty at ``arrival``.

        The scalar path's front expiry at ``arrival`` empties the pending
        deque exactly when every entry has started by then.  Read-only, so
        the deque keeps the scalar path's contents.
        """
        pending = self._pending_starts
        return not pending or max(pending) <= arrival

    def _offer_chunk_heap(self, arrivals: np.ndarray) -> np.ndarray:
        """Exact heap-replace dispatch of a chunk with separable randomness.

        Replays :meth:`offer` request by request without its per-request
        method calls, counters and draws.  The heap holds one
        ``(free_at, replica_id)`` entry per live replica -- the scalar
        heap minus its lazily deleted stale entries, so both pop the same
        replica -- and each accepted request replaces the top.  A live
        replica's ``free_at`` never falls below its ``ready_at``, so the
        start is ``max(arrival, free_at)``.  The router queue continues
        from the carried ``_pending_starts`` with the scalar front expiry,
        so tail drops resolve inline against the exact queue length.
        Randomness is pre-drawn in the scalar draw order: a drop directive
        consumes one uniform per arrival (one batch of ``n``); jitter
        consumes one normal per *served* request, so a batch of ``n`` is
        drawn and the generator rewound and replayed for the draws used.
        """
        n = arrivals.shape[0]
        rng = self._rng
        proc = self.proc_time
        jitter = self.model.proc_jitter
        rng_state = None
        kept = None
        if self.drop_rate > 0.0:
            kept = np.flatnonzero(rng.random(n) >= self.drop_rate)
            arrivals = arrivals[kept]
            procs = [proc] * kept.shape[0]
        elif jitter != 0.0:
            rng_state = rng.bit_generator.state
            draws = rng.normal(1.0, jitter, n)
            procs = (proc * np.minimum(np.maximum(draws, 0.5), 1.5)).tolist()
        else:
            procs = [proc] * n
        offered = arrivals.tolist()
        # Heap entries carry the replica's served count of this chunk; the
        # (free_at, replica_id) prefix decides every comparison.
        heap = [(replica.free_at, replica.replica_id, 0) for replica in self._replicas.values()]
        heapq.heapify(heap)
        replace = heapq.heapreplace
        inf = math.inf
        # starts[expired:queued] have not begun; an inf sentinel closes
        # the list so the expiry scan needs no bounds check.
        starts = [*self._pending_starts, inf]
        queued = len(starts) - 1
        expired = 0
        threshold = self.queue_threshold
        completions: list[float] = []
        append_completion = completions.append
        append_start = starts.append
        accepted = 0
        for arrival in offered:
            while starts[expired] <= arrival:
                expired += 1
            if queued - expired >= threshold:
                append_completion(inf)
                continue
            free, replica_id, served = heap[0]
            if arrival >= free:
                start = arrival
            else:
                start = free
                starts[queued] = free
                queued += 1
                append_start(inf)
            completion = start + procs[accepted]
            accepted += 1
            replace(heap, (completion, replica_id, served + 1))
            append_completion(completion)
        if rng_state is not None and accepted < n:
            rng.bit_generator.state = rng_state
            if accepted:
                rng.normal(1.0, jitter, accepted)
        replicas = self._replicas
        for free, replica_id, served in heap:
            replica = replicas[replica_id]
            replica.free_at = free
            replica.served += served
        self._free_heap = [(free, replica_id) for free, replica_id, _ in heap]
        pending = self._pending_starts
        pending.clear()
        pending.extend(starts[expired:queued])
        offered_count = len(offered)
        totals = self.totals
        totals.arrivals += n
        totals.served += accepted
        totals.tail_dropped += offered_count - accepted
        totals.explicit_dropped += n - offered_count
        self.vector_requests += n
        # A tail drop's completion is inf, and inf - arrival stays inf.
        latencies = np.array(completions) - arrivals
        if kept is None:
            return latencies
        out = np.full(n, inf)
        out[kept] = latencies
        return out

    def _offer_chunk_fast(self, arrivals: np.ndarray) -> tuple[np.ndarray, int] | None:
        """Closed-form routing of a chunk under deterministic service.

        Requires an empty router queue at the first arrival
        (:meth:`_queue_empty_at`).  With deterministic service the pop-min
        dispatch has exact structure: completions are nondecreasing, so
        the heap's pops are the sorted initial free times followed by
        completions in request order -- request ``k`` is served by the
        ``k``-th smallest ``(free_at, id)`` replica for ``k < c`` and by
        the replica of request ``k - c`` afterwards, and

            ``start[k] = max(arrival[k], F[k])            (k < c)``
            ``start[k] = max(arrival[k], start[k-c] + p)  (k >= c)``

        which vectorizes across the ``c`` replica classes (one numpy row
        per ``c`` requests, using exactly the scalar path's floating-point
        operations, so engagement is bit-identical).  A drop directive is
        pre-drawn as one uniform batch in the scalar path's draw order --
        the scalar drop check precedes every accept check, so each
        arrival consumes exactly one uniform -- and the recurrence runs
        on the drop-thinned subsequence.  The chunk is committed up to
        the first tail-drop (computed from the vectorized queue lengths)
        or pop-order tie; on a partial commit the generator is rewound to
        the chunk entry state and replayed for exactly the committed
        draws, so the continuation sees the identical stream.  Returns
        ``(latencies, committed)``, or ``None`` when the committed prefix
        would be shorter than ``_MIN_FAST_PREFIX``.
        """
        replicas = list(self._replicas.values())
        count = len(replicas)
        proc = self.proc_time
        n = arrivals.shape[0]
        rng_state = None
        drop_mask = None
        kept = None
        if self.drop_rate > 0.0:
            rng_state = self._rng.bit_generator.state
            drop_mask = self._rng.random(n) < self.drop_rate
            kept = np.flatnonzero(~drop_mask)
            if kept.shape[0] == 0:
                # Whole chunk explicitly dropped: n uniforms consumed,
                # exactly as n scalar offers would have.
                self.totals.arrivals += n
                self.totals.explicit_dropped += n
                self.vector_requests += n
                return np.full(n, math.inf), n
            offered = arrivals[kept]
        else:
            offered = arrivals
        order = sorted(replicas, key=lambda r: (r.free_at, r.replica_id))
        frees = [replica.free_at for replica in order]
        resolved = self._fast_starts_numpy(offered, frees, count, proc)
        if resolved is None:
            if rng_state is not None:
                self._rng.bit_generator.state = rng_state
            return None
        starts, completions, served_prefix = resolved
        # ``served_prefix`` counts committed *offered* (non-drop-masked)
        # requests; map the cut back to raw-arrival coordinates.
        if kept is None:
            prefix = served_prefix
        else:
            prefix = int(kept[served_prefix]) if served_prefix < kept.shape[0] else n
        if prefix < self._MIN_FAST_PREFIX:
            if rng_state is not None:
                self._rng.bit_generator.state = rng_state
            return None
        if prefix < n and rng_state is not None:
            # Rewind and replay exactly the committed draws so the
            # generator lands where the scalar loop would leave it.
            self._rng.bit_generator.state = rng_state
            self._rng.random(prefix)
        self.totals.arrivals += prefix
        self.totals.served += served_prefix
        self.vector_requests += prefix
        if drop_mask is not None:
            self.totals.explicit_dropped += prefix - served_prefix
        for position, replica in enumerate(order):
            served = (served_prefix - position + count - 1) // count
            if served > 0:
                replica.served += served
                replica.free_at = float(
                    completions[position + (served - 1) * count]
                )
        # Rebuild the heap from live state: equivalent to the scalar heap
        # minus its lazily-deleted stale entries (pop order is the total
        # order on (free_at, id) either way).
        self._free_heap = [(replica.free_at, replica.replica_id) for replica in replicas]
        heapq.heapify(self._free_heap)
        # The first accepted request expired every pending start (the
        # queue was empty at the first arrival); waiting starts still
        # pending at the last dispatched arrival feed the next
        # queue_length calls, exactly as the scalar loop would have left
        # them (only accepted requests expire entries, each at its own
        # arrival time).
        self._pending_starts.clear()
        last_arrival = offered[served_prefix - 1]
        dispatched = offered[:served_prefix]
        waiting = starts[(starts > dispatched) & (starts > last_arrival)]
        if waiting.shape[0]:
            self._pending_starts.extend(waiting.tolist())
        if kept is None:
            return completions - offered[:prefix], prefix
        latencies = np.full(prefix, math.inf)
        latencies[kept[:served_prefix]] = completions - offered[:served_prefix]
        return latencies, prefix

    def _fast_starts_numpy(self, arrivals, frees, count, proc):
        """Start/completion times via c-wide numpy rows.

        Returns ``(starts, completions, prefix)`` with the prefix cut at
        the first tail-drop or pop-order tie (the class structure is
        provably the heap's order only while completions are strictly
        increasing), or ``None`` when not even the first request has
        closed form.
        """
        n = arrivals.shape[0]
        rows = -(-n // count)
        padded = np.empty(rows * count)
        padded[:n] = arrivals
        padded[n:] = arrivals[-1]
        chunk = padded.reshape(rows, count)
        starts = np.empty_like(chunk)
        starts[0] = np.maximum(chunk[0], frees)
        for row in range(1, rows):
            starts[row] = np.maximum(chunk[row], starts[row - 1] + proc)
        starts = starts.reshape(-1)[:n]
        completions = starts + proc
        # Pop-order guards: every initial free must pop strictly before
        # the first completion, and completions must be strictly
        # increasing -- otherwise assignment falls to the heap's id
        # tie-break and the class structure above is not provably the
        # heap's order.  A tie cuts the commit before the offending
        # request.
        if frees[-1] >= completions[0]:
            return None
        if n > 1:
            increasing = completions[1:] > completions[:-1]
            if not increasing.all():
                n = int(np.argmin(increasing)) + 1
                starts = starts[:n]
                completions = completions[:n]
                arrivals = arrivals[:n]
        # Vectorized router-queue lengths: q[k] = waiting starts > a[k]
        # among requests 0..k-1 (starts are nondecreasing, so the count is
        # a prefix difference).  The first arrival over the threshold
        # tail-drops, which invalidates the recurrence past it: commit the
        # accepted prefix only.
        positions = np.arange(n)
        queued = positions - np.minimum(
            np.searchsorted(starts, arrivals, side="right"), positions
        )
        over = queued >= self.queue_threshold
        prefix = int(np.argmax(over)) if over.any() else n
        return starts[:prefix], completions[:prefix], prefix
