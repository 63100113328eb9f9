"""Span tracer for the benchmark's traced runs.

Every layer is measured from outside the program: :func:`installed`
swaps public callables for timing wrappers and puts the originals back
on exit, so nothing under ``src/`` knows it is traced.  A span's *self
time* is its duration minus the durations of the spans it encloses.

Spans nest on one stack shared by all threads.  That is sound only for
a strictly sequential load -- one lifetime at a time, or one
closed-loop client whose server runs one estimate at a time -- and
:meth:`Tracer.leave` enforces it: a span that does not close on top of
the stack raises :class:`TraceError`, which fails the run.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

#: Event names of the flat-array engine's recovery handlers.
HANDLER_KINDS = ("disk-failure", "detect", "rebuild", "redirect",
                 "rebuild-retry")
_HANDLER_KEYS = {k: f"handlers.{k}" for k in HANDLER_KINDS}

#: Cascade tiers, cheap to expensive (the service's ``tier`` values).
TIERS = ("markov", "analytic", "surrogate", "live-bulk", "live-des")


class TraceError(RuntimeError):
    """Spans did not nest: the load was not sequential."""


class Tracer:
    """Self time and call counts per span key, plus plain counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()   # values may be floats
        self.in_setup = False
        self._stack: list[list[float]] = []

    def enter(self) -> list[float]:
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, key: str, frame: list[float]) -> float:
        """Close ``frame`` under ``key``; returns its duration."""
        end = perf_counter()
        if not self._stack or self._stack.pop() is not frame:
            raise TraceError(f"span {key!r} closed out of order")
        dur = end - frame[0]
        self.self_s[key] += dur - frame[1]
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def min_self_s(self) -> float:
        return min(self.self_s.values(), default=0.0)


def _timed(tracer: Tracer, fn: Callable, key: str,
           setup_only: bool = False) -> Callable:
    """``fn`` inside a span; ``setup_only`` spans only engine set-up."""
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if setup_only and not tracer.in_setup:
            return fn(*args, **kwargs)
        frame = tracer.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave(key, frame)
    return wrapper


def _des_patches(tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    from repro.availability.queue import RepairPriorityQueue
    from repro.disks.failure import BathtubFailureModel
    from repro.reliability import simulation
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

    sim_cls = simulation.ReliabilitySimulation
    init, fire, cancel = sim_cls.__init__, Event.fire, Event.cancel
    drain = RepairPriorityQueue.drain

    @functools.wraps(init)
    def sim_init(self: Any, *args: Any, **kwargs: Any) -> None:
        tracer.in_setup = True
        frame = tracer.enter()
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.leave("setup.self", frame)
            tracer.in_setup = False

    @functools.wraps(fire)
    def event_fire(ev: Any) -> Any:
        frame = tracer.enter()
        try:
            return fire(ev)
        finally:
            tracer.leave(_HANDLER_KEYS.get(ev.name, "handlers.other"),
                         frame)

    @functools.wraps(cancel)
    def event_cancel(ev: Any) -> None:
        if not ev.cancelled:
            tracer.counts["engine.cancelled"] += 1
        cancel(ev)

    @functools.wraps(drain)
    def queue_drain(queue: Any) -> Iterator[Any]:
        # A generator: time each step, not the (instant) call.
        steps = drain(queue)
        while True:
            frame = tracer.enter()
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                tracer.leave("queue.drain", frame)
            yield item

    patches: list[tuple[Any, str, Callable]] = [
        (sim_cls, "__init__", sim_init),
        (sim_cls, "run", _timed(tracer, sim_cls.run, "sim.run_self")),
        (Simulator, "run", _timed(tracer, Simulator.run, "engine.run")),
        (Simulator, "schedule",
         _timed(tracer, Simulator.schedule, "engine.schedule")),
        (Simulator, "schedule_at",
         _timed(tracer, Simulator.schedule_at, "engine.schedule_at")),
        (Event, "fire", event_fire),
        (Event, "cancel", event_cancel),
        (RepairPriorityQueue, "push",
         _timed(tracer, RepairPriorityQueue.push, "queue.push")),
        (RepairPriorityQueue, "drain", queue_drain),
        (simulation, "enforce_domain_constraint",
         _timed(tracer, simulation.enforce_domain_constraint,
                "setup.domain_constraint", setup_only=True)),
        (BathtubFailureModel, "sample_failure_age",
         _timed(tracer, BathtubFailureModel.sample_failure_age,
                "setup.failure_sample", setup_only=True)),
    ]
    for cls in (simulation.RandomPlacement, simulation.RushPlacement,
                simulation.CopysetPlacement):
        patches.append((cls, "place_many",
                        _timed(tracer, cls.place_many, "setup.place_many",
                               setup_only=True)))
    return patches


def _service_patches(tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    from repro.reliability import bulk
    from repro.reliability.runner import SweepRunner
    from repro.service.cache import ForecastCache
    from repro.service.cascade import ForecastCascade

    forecast, get = ForecastCascade.forecast, ForecastCache.get
    run_points, run_batch = SweepRunner.run_points, bulk.run_bulk_batch

    @functools.wraps(forecast)
    async def cascade_forecast(self: Any, *args: Any, **kwargs: Any) -> Any:
        frame = tracer.enter()
        key = "cascade.error"
        try:
            answer = await forecast(self, *args, **kwargs)
            key = f"cascade.{answer.tier}"
            return answer
        finally:
            tracer.leave(key, frame)

    @functools.wraps(get)
    def cache_get(self: Any, digest: str) -> Any:
        frame = tracer.enter()
        try:
            entry = get(self, digest)
        finally:
            tracer.leave("cache.get", frame)
        tracer.counts["cache.hits"] += entry is not None
        return entry

    @functools.wraps(run_points)
    def runner_run_points(self: Any, *args: Any, **kwargs: Any) -> Any:
        frame = tracer.enter()
        try:
            outcomes = run_points(self, *args, **kwargs)
        finally:
            tracer.counts["runner.wall_s"] += tracer.leave(
                "runner.run_points", frame)
        for o in outcomes:
            tracer.counts["runner.busy_s"] += o.aggregate.run_seconds_total
            tracer.counts["runner.lifetimes"] += o.aggregate.n_runs
        return outcomes

    @functools.wraps(run_batch)
    def bulk_run_batch(config: Any, seeds: list[int]) -> Any:
        tracer.counts["bulk.lifetimes"] += len(seeds)
        frame = tracer.enter()
        try:
            return run_batch(config, seeds)
        finally:
            tracer.leave("bulk", frame)

    return [
        (ForecastCascade, "forecast", cascade_forecast),
        (ForecastCascade, "classify",
         _timed(tracer, ForecastCascade.classify, "cascade.classify")),
        (ForecastCache, "get", cache_get),
        (ForecastCache, "put",
         _timed(tracer, ForecastCache.put, "cache.put")),
        (SweepRunner, "run_points", runner_run_points),
        (bulk, "run_bulk_batch", bulk_run_batch),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, service: bool) -> Iterator[Tracer]:
    """Wrap the DES layers (or the service layers) for the duration."""
    patches = (_service_patches if service else _des_patches)(tracer)
    saved = [(owner, name, owner.__dict__.get(name))
             for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            if original is None:
                delattr(owner, name)    # the wrapper shadowed a base's
            else:
                setattr(owner, name, original)


# --------------------------------------------------------------------- #
# Per-layer metrics.  Every ``*_s`` is seconds per operation (one
# lifetime or one request) over the traced run, self time unless named
# otherwise; counts are per operation too.  Layers a workload does not
# reach read 0.
# --------------------------------------------------------------------- #
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def des_layers(tr: Tracer, n_ops: int, stats: list[dict]) -> dict:
    """Layer metrics of a DES workload's traced lifetimes."""
    s, c = tr.self_s, tr.calls
    fired = sum(c[k] for k in (*_HANDLER_KEYS.values(), "handlers.other"))
    scheduled = c["engine.schedule_at"]
    engine_s = (s["engine.run"] + s["engine.schedule"]
                + s["engine.schedule_at"])
    handler_s = sum(s[k] for k in (*_HANDLER_KEYS.values(),
                                   "handlers.other"))
    out = {
        "engine.self_s": engine_s / n_ops,
        "engine.us_per_event": 1e6 * _ratio(engine_s, fired),
        "engine.schedule_calls": scheduled / n_ops,
        "engine.events_fired": fired / n_ops,
        "engine.events_cancelled": tr.counts["engine.cancelled"] / n_ops,
        "engine.fired_ratio": _ratio(fired, scheduled),
        "handlers.us_per_event": 1e6 * _ratio(handler_s, fired),
        "handlers.other.self_s": s["handlers.other"] / n_ops,
        "sim.run_self_s": s["sim.run_self"] / n_ops,
        "queue.push_s": s["queue.push"] / n_ops,
        "queue.drain_s": s["queue.drain"] / n_ops,
        "queue.pushes": c["queue.push"] / n_ops,
        "setup.self_s": s["setup.self"] / n_ops,
        "setup.place_many_s": s["setup.place_many"] / n_ops,
        "setup.domain_constraint_s": s["setup.domain_constraint"] / n_ops,
        "setup.failure_sample_s": s["setup.failure_sample"] / n_ops,
    }
    for kind, key in _HANDLER_KEYS.items():
        out[f"handlers.{kind}.self_s"] = s[key] / n_ops
        out[f"handlers.{kind}.calls"] = c[key] / n_ops
    started = sum(st["rebuilds_started"] for st in stats)
    completed = sum(st["rebuilds_completed"] for st in stats)
    out["handlers.rebuild_useful_ratio"] = _ratio(completed, started)
    for field in ("rebuilds_started", "rebuilds_completed",
                  "target_redirections", "rebuilds_deferred", "retries",
                  "rebuilds_held"):
        out[f"handlers.{field}"] = sum(st[field] for st in stats) / n_ops
    return out


def service_layers(tr: Tracer, n_ops: int) -> dict:
    """Layer metrics of the forecast workload's traced requests."""
    s, c, k = tr.self_s, tr.calls, tr.counts
    out = {
        "service.transport_s": s["service.transport"] / n_ops,
        "cascade.classify_s": s["cascade.classify"] / n_ops,
        "cache.get_s": s["cache.get"] / n_ops,
        "cache.put_s": s["cache.put"] / n_ops,
        "cache.hit_ratio": _ratio(k["cache.hits"], c["cache.get"]),
        "runner.run_points_s": s["runner.run_points"] / n_ops,
        "runner.worker_busy_s": k["runner.busy_s"] / n_ops,
        "runner.utilization": _ratio(k["runner.busy_s"],
                                     k["runner.wall_s"]),
        "runner.lifetimes": k["runner.lifetimes"] / n_ops,
        "bulk.us_per_lifetime": 1e6 * _ratio(s["bulk"],
                                             k["bulk.lifetimes"]),
    }
    for tier in TIERS:
        out[f"cascade.{tier}.s"] = s[f"cascade.{tier}"] / n_ops
        out[f"cascade.{tier}.calls"] = c[f"cascade.{tier}"] / n_ops
    return out
