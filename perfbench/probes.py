"""Class-level wrappers around the public functions of each layer.

Everything here patches attributes of ``repro`` classes and modules inside
the benchmark's own process and restores them on :meth:`Patches.undo`;
nothing under ``src/`` changes.  Two probes share the patch mechanics:

- :class:`LoopProbe` (untraced run) takes one clock read per control tick,
  at the entry of the backend's ``advance``, plus a few per cell: set-up
  phases, the loop itself and ``collect``.
- :class:`SpanProbe` (traced run) records a span at every layer boundary
  into a :class:`~spans.SpanRecorder`, plus counts at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from spans import SpanRecorder

_MISSING = object()


class Patches:
    """Replace attributes and remember the originals so they can be put back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner).get(attr, _MISSING)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _modules():
    """The layer modules the probes patch (imported after ``sys.path`` is set)."""
    names = {
        "runner": "repro.api.runner",
        "spec": "repro.api.spec",
        "harness": "repro.sim.harness",
        "serve_loop": "repro.serve.loop",
        "sinks": "repro.serve.sinks",
        "autoscaler": "repro.core.autoscaler",
        "policy": "repro.policy",
    }
    return {key: importlib.import_module(name) for key, name in names.items()}


def backend_class(simulator: str) -> type:
    from repro.sim.backends import get_backend_registry

    return get_backend_registry().get(simulator).cls


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@dataclass
class Cell:
    """One finished harness: its tick-entry stamps and what it should have run."""

    stamps: list[float]
    end: float
    tick_interval: float
    minutes: int

    def expected_ticks(self) -> int:
        return math.ceil(self.minutes * 60.0 / self.tick_interval - 1e-9)

    def tick_seconds(self) -> list[float]:
        """Each tick from its ``advance`` entry to the next tick's entry (the
        last one to ``collect``), so work between ticks counts."""
        marks = [*self.stamps, self.end]
        return [b - a for a, b in zip(marks, marks[1:])]


class LoopProbe:
    """Untraced instrumentation: per-tick stamps and per-cell timers."""

    def __init__(self, simulator: str) -> None:
        self.simulator = simulator
        self.cells: list[Cell] = []
        self.setup_s = 0.0
        #: Duration of every ``SimHarness.run`` / ``ServeLoop.run`` call, in
        #: call order: one per cell.
        self.loops: list[float] = []
        self.patches = Patches()
        self._stamps: list[float] = []

    def _setup_timer(self, fn: Callable) -> Callable:
        """``fn`` with each call's duration added to ``self.setup_s``."""

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += perf_counter() - start

        return timed

    def _loop_timer(self, fn: Callable) -> Callable:
        """``fn`` with each call's duration appended to ``self.loops``."""

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.loops.append(perf_counter() - start)

        return timed

    def install(self) -> "LoopProbe":
        m = _modules()
        wrap = self.patches.wrap
        setup = self._setup_timer
        for module in (m["runner"], m["serve_loop"]):
            wrap(module, "_validate_spec", setup)
        wrap(m["spec"].ScenarioSpec, "build", setup)
        wrap(m["harness"].SimHarness, "__init__", setup)
        wrap(m["runner"], "make_policy_factory", self._timed_factory)
        wrap(m["harness"].SimHarness, "run", self._loop_timer)
        wrap(m["serve_loop"].ServeLoop, "run", self._loop_timer)
        backend = backend_class(self.simulator)

        def advance(fn):
            def stamped(harness, *args):
                self._stamps.append(perf_counter())
                return fn(harness, *args)

            return stamped

        def collect(fn):
            def closing(harness):
                self.cells.append(
                    Cell(
                        stamps=self._stamps,
                        end=perf_counter(),
                        tick_interval=float(harness.policy.tick_interval),
                        minutes=harness.duration_minutes,
                    )
                )
                self._stamps = []
                return fn(harness)

            return closing

        wrap(backend, "advance", advance)
        wrap(backend, "collect", collect)
        return self

    def _timed_factory(self, make_policy_factory: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            label, factory = make_policy_factory(*args, **kwargs)
            return label, self._setup_timer(factory)

        return wrapped


class SpanProbe:
    """Traced instrumentation: one span per call at every layer boundary."""

    def __init__(self, simulator: str, recorder: SpanRecorder) -> None:
        self.simulator = simulator
        self.rec = recorder
        self.patches = Patches()
        self._next_tick = 0

    @property
    def ticks_seen(self) -> int:
        return self._next_tick

    def span(self, name: str, after: Callable[[tuple, Any], None] | None = None):
        rec = self.rec

        def make(fn: Callable) -> Callable:
            def spanned(*args, **kwargs):
                if rec.inside(name):  # a subclass calling its base: one span
                    return fn(*args, **kwargs)  # (and `after` runs once)
                index = rec.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.close(index)
                if after is not None:
                    after(args, out)
                return out

            return spanned

        return make

    def _tick_span(self, fn: Callable) -> Callable:
        inner = self.span("sim.advance")(fn)

        def advance(*args, **kwargs):
            self.rec.tick = self._next_tick
            self._next_tick += 1
            return inner(*args, **kwargs)

        return advance

    def _loop_span(self, name: str) -> Callable:
        def make(fn: Callable) -> Callable:
            inner = self.span(name)(fn)

            def loop(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.rec.tick = -1

            return loop

        return make

    def install(self) -> "SpanProbe":
        m = _modules()
        wrap = self.patches.wrap
        rec = self.rec
        span = self.span

        wrap(m["spec"].ScenarioSpec, "build", span("traces.build"))
        wrap(m["runner"], "make_policy_factory", self._train_factory)
        for cls in self._classes_defining("sample_paths"):
            wrap(cls, "sample_paths", span("forecast.sample"))

        def after_plan(args, _out):
            allocation = args[0].last_allocation
            rec.count("core.plan_calls")
            rec.count("core.nfev", allocation.nfev)
            rec.count("core.post_nfev", allocation.post_nfev)

        wrap(m["autoscaler"].FaroAutoscaler, "plan", span("core.plan", after_plan))
        for cls in _subclasses(m["policy"].AutoscalePolicy):
            if "tick" in vars(cls):
                wrap(cls, "tick", span("policy.tick", lambda a, o: rec.count("policy.tick_calls")))

        harness = m["harness"].SimHarness
        wrap(harness, "__init__", span("sim.build"))
        wrap(harness, "run", self._loop_span("sim.loop"))
        backend = backend_class(self.simulator)
        wrap(backend, "advance", self._tick_span)
        for hook in ("observations", "apply", "end_of_chunk"):
            wrap(backend, hook, span(f"sim.{hook}"))

        def collect(fn):
            inner = span("sim.collect")(fn)

            def closing(harness_self):
                rec.tick = -1
                rec.count("sim.minutes", harness_self.duration_minutes)
                return inner(harness_self)

            return closing

        wrap(backend, "collect", collect)

        serve_loop = m["serve_loop"]
        wrap(serve_loop.ServeLoop, "run", self._loop_span("serve.loop"))
        journal = serve_loop.ServeJournal
        for method in ("open", "record_trial", "save_checkpoint", "clear_checkpoint"):
            wrap(journal, method, span("serve.journal"))

        def counted_write(fn):
            def write(journal_self, path, payload):
                rec.count("serve.journal_writes")
                rec.count("serve.journal_bytes", len(payload))
                return fn(journal_self, path, payload)

            return write

        wrap(journal, "_atomic_write", counted_write)
        for method in ("on_window", "close"):
            wrap(m["sinks"].JsonlSink, method, span("serve.sink"))

        report = m["runner"].RunReport
        for method in ("to_dict", "merge"):
            wrap(report, method, span("api.report"))
        return self

    def _train_factory(self, make_policy_factory: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            label, factory = make_policy_factory(*args, **kwargs)
            return label, self.span("forecast.train")(factory)

        return wrapped

    @staticmethod
    def _classes_defining(attr: str) -> list[type]:
        """Every predictor class that defines ``attr`` itself."""
        found = []
        for name in (
            "repro.forecast.base",
            "repro.forecast.baselines",
            "repro.forecast.lstm",
            "repro.forecast.nhits",
            "repro.forecast.predictor",
            "repro.core.autoscaler",
        ):
            module = importlib.import_module(name)
            for value in vars(module).values():
                if (
                    inspect.isclass(value)
                    and value.__module__ == name
                    and attr in vars(value)
                ):
                    found.append(value)
        return found
