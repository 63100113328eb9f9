"""The benchmark's three workloads and their reference answers.

* ``farm-paper`` -- the paper's 2 PB FARM system, serial lifetimes.
* ``lazy-rack`` -- 0.5 PB, 3-way mirrors, lazy repair (r=2), a
  one-chunk-per-rack cap and spare-disk rebuild, serial lifetimes.
* ``forecast-mix`` -- one closed-loop HTTP client against an in-thread
  forecast service, over a seeded mix of cheap-tier queries and live
  bulk Monte-Carlo misses and hits.

Inputs come only from the workload seed: a DES run walks a fixed pool of
lifetime seeds in a seed-chosen order (wrapping around if it finishes
the pool), and the forecast mix draws its requests from fixed config
pools.  Every lifetime's statistics and every answer are checked against
``references.json``; a mismatch is a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import random
import signal
import statistics
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

from repro.config import (PAPER_BASE, SystemConfig, config_digest,
                          config_from_dict, config_to_dict)
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.redundancy.schemes import MIRROR_3
from repro.reliability.runner import SweepRunner
from repro.reliability.simulation import ReliabilitySimulation
from repro.service import (ForecastCache, ForecastCascade, ForecastService,
                           GridStore, build_grid, run_in_thread)
from repro.units import GB, PB

import tracing

DES_CONFIGS: dict[str, SystemConfig] = {
    "farm-paper": PAPER_BASE,
    "lazy-rack": PAPER_BASE.with_(
        total_user_bytes=0.5 * PB, scheme=MIRROR_3, recovery_threshold=2,
        racks=10, machines_per_rack=10, max_chunks_per_domain=1,
        use_farm=False),
}
#: Lifetime seeds 0..n-1 pinned per DES workload.
DES_POOL = {"farm-paper": 32, "lazy-rack": 12}

#: A traced lifetime's (or request's) span self-times must cover its
#: independently measured wall time within this share plus this floor.
TRACE_SLACK_REL, TRACE_SLACK_ABS_S = 0.01, 0.002

#: Forecast mix, in blocks of 25 requests shuffled by the seed: 8% live
#: misses, 8% hits on earlier misses, 28% for each cheap tier.  These
#: shares and the pool sizes are assumptions, not observed traffic; the
#: README gives the reason for each.  Fixed shares keep the mix, and so
#: the cost of a run, the same for every seed.
MIX_BLOCK = (("miss",) * 2 + ("hit",) * 2 + ("markov",) * 7
             + ("analytic",) * 7 + ("surrogate",) * 7)
POOL_SIZES = {"markov": 64, "analytic": 64, "surrogate": 64, "live": 1024}
#: Surrogate grid built at set-up; set-up is repeated to take a median.
GRID_BASE = PAPER_BASE.with_(racks=2, machines_per_rack=5)
GRID_AXES = {"detection_latency": [30.0, 1800.0, 3600.0],
             "group_user_bytes": [10 * GB, 50 * GB]}
GRID_RUNS = 64
SETUP_REPEATS = 7

_FLAT_PERIOD = RatePeriod(0.0, float("inf"), 0.20)


def pool_config(kind: str, i: int) -> SystemConfig:
    """Config ``i`` of a forecast pool; each pool lands on one tier."""
    if kind == "markov":      # constant-rate, flat: the exact CTMC
        flat = BathtubFailureModel(
            (replace(_FLAT_PERIOD, pct_per_1000h=0.10 + 0.02 * (i % 16)),))
        return PAPER_BASE.with_(
            vintage=replace(PAPER_BASE.vintage, failure_model=flat),
            detection_latency=30.0 * (1 + i // 16))
    if kind == "analytic":    # bathtub hazard inside the window envelope
        return PAPER_BASE.with_(detection_latency=30.0 + 5.0 * i)
    if kind == "surrogate":   # inside the grid's hull, off its nodes
        det = GRID_AXES["detection_latency"]
        size = GRID_AXES["group_user_bytes"]
        return GRID_BASE.with_(
            detection_latency=det[0] + (i + 0.5) * (det[-1] - det[0]) / 64,
            group_user_bytes=size[0] + ((29 * i) % 64 + 0.5)
            * (size[-1] - size[0]) / 64)
    if kind == "live":        # racked 2 PB: live bulk Monte-Carlo
        return PAPER_BASE.with_(racks=4, machines_per_rack=5,
                                detection_latency=30.0 + 0.5 * i)
    raise ValueError(f"unknown pool {kind!r}")


class SpeedProbe:
    """Samples the host's speed while a run measures.

    On a shared host the same work takes up to 1.5x longer from one minute
    to the next (a fixed pure-Python loop shows the same swing), which
    swamps any comparison between runs.  So while an untraced run measures,
    a SIGALRM handler runs a fixed loop every ``PERIOD_S``, and the run
    reports its times at a reference host speed: each time is divided by
    :meth:`slowdown`, the loop's median duration over ``REF_S``.  The
    loop's own time is kept out of every measured interval by timing with
    :meth:`clock`.
    """

    PERIOD_S = 0.1
    #: The loop's duration at the reference speed (a fast state of a
    #: 2-vCPU KVM Xeon); it only scales every reported time by a constant.
    REF_S = 1.0e-3

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    @staticmethod
    def _loop() -> None:
        acc = 0
        for i in range(12_000):
            acc += i * i % 7

    def _sample(self, signum: int, frame: Any) -> None:
        t0 = perf_counter()
        self._loop()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Host seconds, less the time spent sampling."""
        return perf_counter() - self.spent

    def slowdown(self) -> float:
        if not self.samples:
            self._sample(signal.SIGALRM, None)
        return statistics.median(self.samples) / self.REF_S


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def _tail(values: list[float]) -> tuple[int, float]:
    """(p, value) at the highest of p99/p90/p50 with at least ten samples
    beyond it; the median when even that has fewer."""
    pct = next((p for p in (99, 90) if len(values) * (100 - p) >= 1000),
               50)
    if len(values) < 2:
        return pct, values[0]
    return pct, statistics.quantiles(values, n=100,
                                     method="inclusive")[pct - 1]


def _digest(items: list[Any]) -> str:
    return hashlib.blake2b(json.dumps(items).encode(),
                           digest_size=8).hexdigest()


def _plain(stats: Any, events: int) -> dict:
    """A lifetime's statistics as JSON would read them back."""
    return json.loads(json.dumps({**asdict(stats), "events_fired": events}))


def _check_trace(out: Outcome, what: str, wall: float, spans: float,
                 tr: tracing.Tracer) -> None:
    if abs(wall - spans) > TRACE_SLACK_REL * wall + TRACE_SLACK_ABS_S:
        out.fail(f"{what}: span self-times sum to {spans:.6f} s, "
                 f"wall {wall:.6f} s")
    if tr.min_self_s() < -1e-6:
        out.fail(f"{what}: negative self time {tr.min_self_s():.3g} s")


# --------------------------------------------------------------------- #
# DES workloads
# --------------------------------------------------------------------- #
def _lifetime(cfg: SystemConfig, seed: int,
              clock: Callable[[], float] = perf_counter
              ) -> tuple[dict, float, float]:
    """(statistics, setup seconds, run seconds) of one lifetime."""
    t0 = clock()
    sim = ReliabilitySimulation(cfg, seed)
    t1 = clock()
    stats = sim.run()
    t2 = clock()
    return _plain(stats, sim.sim.events_fired), t1 - t0, t2 - t1


def des_references(name: str) -> dict:
    cfg = DES_CONFIGS[name]
    return {"config_digest": config_digest(cfg),
            "lifetimes": {str(s): _lifetime(cfg, s)[0]
                          for s in range(DES_POOL[name])}}


class Lifetime(NamedTuple):
    seed: int
    stats: dict
    setup_s: float
    run_s: float


def run_des(name: str, seed: int, seconds: float, trace: bool,
            refs: dict) -> Outcome:
    cfg = DES_CONFIGS[name]
    pinned = refs["lifetimes"]
    order = random.Random(seed).sample(range(DES_POOL[name]),
                                       DES_POOL[name])
    out = Outcome()
    done: list[Lifetime] = []
    budget = seconds / 2 if trace else seconds
    probe = None if trace else SpeedProbe()
    clock = probe.clock if probe else perf_counter
    with probe or contextlib.nullcontext():
        start = clock()
        while out.attempted == 0 or clock() - start < budget:
            lseed = order[out.attempted % len(order)]
            out.attempted += 1
            try:
                rec, setup_s, run_s = _lifetime(cfg, lseed, clock)
            except Exception:
                out.fail(f"lifetime {lseed} raised:\n"
                         f"{traceback.format_exc()}")
                continue
            if rec != pinned.get(str(lseed)):
                out.fail(f"lifetime {lseed}: statistics differ from the "
                         f"reference: {rec}")
                continue
            done.append(Lifetime(lseed, rec, setup_s, run_s))
        elapsed = clock() - start
    seeds = [d.seed for d in done]
    out.provenance = {"configs": {name: config_digest(cfg)},
                      "lifetimes": len(done), "lifetime_seeds": seeds,
                      "inputs_digest": _digest(seeds)}
    if not done:
        return out
    if trace:
        out.metrics = _trace_des(out, cfg, done)
        return out
    runs = [d.run_s for d in done]
    events = [d.stats["events_fired"] for d in done]
    lat = [d.setup_s + d.run_s for d in done]
    pct, tail = _tail(lat)
    slow = probe.slowdown()
    out.summary = {
        "host_slowdown": slow,
        "lifetimes_per_s": len(done) / elapsed,
        "sim_s_p50": statistics.median(runs),
        "events_per_s": sum(events) / sum(runs),
        "setup_s": statistics.median(d.setup_s for d in done),
        "lifetimes": len(done), "tail_percentile": pct}
    out.metrics = {
        "ops_per_s": slow * len(done) / elapsed,
        "op_p50_ms": 1e3 * statistics.median(lat) / slow,
        "op_tail_ms": 1e3 * tail / slow,
        "work_us": 1e6 * statistics.median(
            r / e for r, e in zip(runs, events)) / slow,
        "setup_s": out.summary["setup_s"] / slow,
    }
    return out


def _trace_des(out: Outcome, cfg: SystemConfig,
               done: list[Lifetime]) -> dict:
    """Replay the untraced lifetimes traced; returns layer metrics."""
    tr = tracing.Tracer()
    plain_wall = traced_wall = 0.0
    stats = []
    with tracing.installed(tr, service=False):
        for lseed, rec, setup_s, run_s in done:
            before = tr.total_self_s()
            t0 = perf_counter()
            traced, _, _ = _lifetime(cfg, lseed)
            wall = perf_counter() - t0
            _check_trace(out, f"lifetime {lseed}", wall,
                         tr.total_self_s() - before, tr)
            if traced != rec:
                out.fail(f"lifetime {lseed}: tracing changed its "
                         f"statistics")
            plain_wall += setup_s + run_s
            traced_wall += wall
            stats.append(traced)
    return {**tracing.des_layers(tr, len(done), stats),
            "trace.overhead_ratio": traced_wall / plain_wall}


# --------------------------------------------------------------------- #
# forecast-mix
# --------------------------------------------------------------------- #
def _body(kind: str, i: int) -> bytes:
    return json.dumps({"config": config_to_dict(pool_config(kind, i))}
                      ).encode()


def request_stream(seed: int) -> Iterator[tuple[str, int, str]]:
    """Seeded ``(pool, index, kind)`` requests; ends when the live pool
    is used up (kind is a cheap tier, ``miss`` or ``hit``)."""
    rng = random.Random(seed)
    fresh = rng.sample(range(POOL_SIZES["live"]), POOL_SIZES["live"])
    misses: list[int] = []
    while True:
        for kind in rng.sample(MIX_BLOCK, len(MIX_BLOCK)):
            if kind == "hit" and misses:
                yield "live", rng.choice(misses), "hit"
            elif kind in ("miss", "hit"):
                if not fresh:
                    return
                misses.append(fresh.pop())
                yield "live", misses[-1], "miss"
            else:
                yield kind, rng.randrange(POOL_SIZES[kind]), kind


def _cascade(grid: Any, journal: Path | None) -> ForecastCascade:
    return ForecastCascade(
        cache=ForecastCache(journal), grids=GridStore([grid]),
        runner=SweepRunner(n_jobs=1, bench_path=None, telemetry_path=""))


def _build_grid() -> Any:
    return build_grid(GRID_BASE, GRID_AXES, n_runs=GRID_RUNS,
                      engine="bulk", n_jobs=1, name="perfbench")


def _post(host: str, port: int, body: bytes) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request("POST", "/forecast", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _answer(doc: dict) -> list:
    return [doc.get("tier"), doc.get("p_loss"), doc.get("ci_lo"),
            doc.get("ci_hi")]


def forecast_references() -> dict:
    import asyncio
    from repro.service import forecast_to_dict

    async def _all() -> dict:
        cascade = _cascade(_build_grid(), None)
        answers = {}
        for kind, size in POOL_SIZES.items():
            for i in range(size):
                # Through JSON, exactly as the server receives it.
                cfg = config_from_dict(json.loads(_body(kind, i))["config"])
                doc = forecast_to_dict(await cascade.forecast(cfg))
                want = "live-bulk" if kind == "live" else kind
                if doc["tier"] != want:
                    raise RuntimeError(f"{kind}/{i} answered by "
                                       f"{doc['tier']}, not {want}")
                answers[f"{kind}/{i}"] = _answer(doc)
        return answers

    return {"grid_base_digest": config_digest(GRID_BASE),
            "answers": asyncio.run(_all())}


def _serve(grid: Any, journal: Path) -> Any:
    return run_in_thread(ForecastService(_cascade(grid, journal),
                                         refine=False))


def run_forecast(seed: int, seconds: float, trace: bool, refs: dict,
                 tmp: Path) -> Outcome:
    pinned = refs["answers"]
    out = Outcome()
    probe = None if trace else SpeedProbe()
    clock = probe.clock if probe else perf_counter
    setups, grid_builds, handle = [], [], None
    sent, answers, lats = [], [], []
    try:
        with probe or contextlib.nullcontext():
            for k in range(SETUP_REPEATS):
                if handle is not None:
                    handle.stop()
                    handle = None
                t0 = clock()
                grid = _build_grid()
                grid_builds.append(clock() - t0)
                handle = _serve(grid, tmp / f"cache-{k}.jsonl")
                setups.append(clock() - t0)
            budget = seconds / 2 if trace else seconds
            start = clock()
            for pool, i, kind in request_stream(seed):
                if sent and clock() - start >= budget:
                    break
                body = _body(pool, i)
                out.attempted += 1
                t0 = clock()
                try:
                    status, doc = _post(handle.host, handle.port, body)
                except (OSError, ValueError) as exc:
                    out.fail(f"{pool}/{i}: {type(exc).__name__}: {exc}")
                    continue
                lat = clock() - t0
                if status != 200 or \
                        _answer(doc) != pinned.get(f"{pool}/{i}"):
                    out.fail(f"{pool}/{i} ({kind}): HTTP {status}, answer "
                             f"{_answer(doc)} differs from the reference")
                    continue
                sent.append((pool, i, kind))
                answers.append(doc)
                lats.append(lat)
            elapsed = clock() - start
        live_runs = handle.service.cascade.live_runs
        if trace and sent:
            handle.stop()
            handle = _serve(grid, tmp / "cache-traced.jsonl")
            out.metrics = _trace_forecast(out, handle, sent, answers, lats)
            out.metrics["setup.build_grid_s"] = statistics.median(
                grid_builds)
    finally:
        if handle is not None:
            handle.stop()
    kinds = [s[2] for s in sent]
    out.provenance = {
        "configs": {"grid-base": config_digest(GRID_BASE),
                    **{f"{p}/0": config_digest(pool_config(p, 0))
                       for p in POOL_SIZES}},
        "requests": len(sent),
        "mix": {k: kinds.count(k) for k in sorted(set(kinds))},
        "inputs_digest": _digest([s[:2] for s in sent])}
    if trace or not sent:
        return out
    miss_lats = [lat for lat, k in zip(lats, kinds) if k == "miss"]
    if not miss_lats:
        out.fail("the run sent no live miss")
        return out
    pct, tail = _tail(lats)
    out.summary = {
        "host_slowdown": probe.slowdown(),
        "forecasts_per_s": len(sent) / elapsed,
        "forecast_p50_ms": 1e3 * statistics.median(lats),
        f"forecast_p{pct}_ms": 1e3 * tail,
        "samples_beyond_tail": sum(lat > tail for lat in lats),
        "live_p50_ms": 1e3 * statistics.median(miss_lats),
        "setup_s": statistics.median(setups), "requests": len(sent)}
    slow = out.summary["host_slowdown"]
    out.metrics = {
        "ops_per_s": slow * len(sent) / elapsed,
        "op_p50_ms": out.summary["forecast_p50_ms"] / slow,
        "op_tail_ms": 1e3 * tail / slow,
        "work_us": 1e3 * out.summary["live_p50_ms"] / live_runs / slow,
        "setup_s": out.summary["setup_s"] / slow,
    }
    return out


def _trace_forecast(out: Outcome, handle: Any, sent: list, answers: list,
                    lats: list[float]) -> dict:
    """Replay the untraced requests on a fresh server, traced."""
    tr = tracing.Tracer()
    traced_wall = 0.0
    with tracing.installed(tr, service=True):
        for (pool, i, _), want in zip(sent, answers):
            body = _body(pool, i)
            before = tr.total_self_s()
            t0 = perf_counter()
            frame = tr.enter()
            try:
                status, doc = _post(handle.host, handle.port, body)
            finally:
                tr.leave("service.transport", frame)
            wall = perf_counter() - t0
            _check_trace(out, f"request {pool}/{i}", wall,
                         tr.total_self_s() - before, tr)
            if status != 200 or doc != want:
                out.fail(f"request {pool}/{i}: tracing changed the answer")
            traced_wall += wall
    return {**tracing.service_layers(tr, len(sent)),
            "trace.overhead_ratio": traced_wall / sum(lats)}
