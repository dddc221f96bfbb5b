"""Throughput simulation of the staged processing pipeline.

Images flow through a tandem of multi-server FIFO stages (download, compute,
upload in the production layout). The simulator answers capacity questions:
makespan of a batch, per-stage utilization, where the bottleneck sits, and
the smallest worker count at one stage that meets a deadline.

With unbounded queues each stage runs on its own as a generator: it reads
the sorted arrival times from the stage before and yields sorted completion
times, keeping only the completion times of the jobs in service and a count
of waiting jobs (the Lindley recursion for c servers, chained into a tandem
as in Baccelli, Cohen, Olsder and Quadrat, *Synchronization and Linearity*,
1992). Memory is O(workers) whatever the batch size. A server that frees at
the instant of an arrival serves a waiting job first.

A bounded queue (``queue_capacity`` on a stage after the first) blocks the
upstream server until space frees, which needs feedback from downstream, so
such models run on a discrete-event loop over a global event heap instead.

Service times are deterministic by default (only means are usually known);
exponential and lognormal options support sensitivity runs. All stochastic
stages draw from one seeded stream, in the order the chained generators pull
them (the event loop draws in event order).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

SECONDS_PER_DAY = 86_400.0

_DISTRIBUTIONS = ("deterministic", "exponential", "lognormal")


class InvalidModel(ValueError):
    pass


class Infeasible(RuntimeError):
    def __init__(self, deadline: float, cap: int):
        super().__init__(
            f"no worker count up to {cap} meets the deadline of {deadline:.0f} s"
        )
        self.deadline = deadline
        self.cap = cap


@dataclass(frozen=True)
class StageModel:
    """One service stage: mean seconds per image and its worker count.

    ``workers=None`` marks the unknown solved by
    :func:`min_workers_for_deadline`. ``queue_capacity`` bounds the queue in
    front of the stage; it applies only to a stage after the first in
    ``pipelined`` mode, and :func:`simulate` rejects it anywhere else (the
    first stage's queue holds the whole batch at the start, and a stage in
    ``sequential`` mode runs alone).
    """

    name: str
    service_time: float
    workers: Optional[int]
    distribution: str = "deterministic"
    cv: float = 0.0
    queue_capacity: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.service_time < math.inf:
            raise InvalidModel(f"stage {self.name}: service time must be finite and > 0")
        if self.workers is not None and self.workers < 1:
            raise InvalidModel(f"stage {self.name}: workers must be >= 1")
        if self.distribution not in _DISTRIBUTIONS:
            raise InvalidModel(f"stage {self.name}: unknown distribution {self.distribution!r}")
        if not 0 <= self.cv < math.inf:
            raise InvalidModel(f"stage {self.name}: cv must be finite and >= 0")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise InvalidModel(f"stage {self.name}: queue capacity must be >= 1")

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        if self.distribution == "deterministic":
            t = self.service_time
            return lambda: t
        if self.distribution == "exponential":
            rate = 1.0 / self.service_time
            return lambda: rng.expovariate(rate)
        sigma = math.sqrt(math.log(1.0 + self.cv**2))
        mu = math.log(self.service_time) - sigma**2 / 2.0
        return lambda: rng.lognormvariate(mu, sigma)


@dataclass(frozen=True)
class StageStats:
    name: str
    workers: int
    service_time: float
    utilization: float
    throughput: float
    max_queue: int
    busy_time: float
    first_start: float
    last_completion: float


@dataclass(frozen=True)
class SimResult:
    makespan: float
    n_images: int
    mode: str
    seed: int
    stages: tuple[StageStats, ...]

    def to_json_dict(self) -> dict:
        return {
            "makespan_s": self.makespan,
            "makespan_days": self.makespan / SECONDS_PER_DAY,
            "images": self.n_images,
            "mode": self.mode,
            "seed": self.seed,
            "stages": [
                {
                    "name": s.name,
                    "workers": s.workers,
                    "service_time_s": s.service_time,
                    "utilization": s.utilization,
                    "throughput_per_s": s.throughput,
                    "max_queue": s.max_queue,
                }
                for s in self.stages
            ],
        }


def bottleneck_bound(n_images: int, stages: Sequence[StageModel]) -> float:
    """Lower bound on the makespan: the slowest stage's total work rate."""
    return max(n_images * s.service_time / s.workers for s in stages)


def single_image_latency(stages: Sequence[StageModel]) -> float:
    return sum(s.service_time for s in stages)


def bottleneck_stage(stages: Sequence[StageModel]) -> StageModel:
    return max(stages, key=lambda s: s.service_time / s.workers)


_DRAIN = math.inf


def _fifo_stage(
    arrivals: Iterable[float],
    workers: int,
    draw: Callable[[], float],
    stats: dict,
) -> Iterator[float]:
    """One FIFO stage with ``workers`` servers and an unbounded queue.

    Reads arrival times in non-decreasing order and yields completion times
    in non-decreasing order. Before an arrival at ``a`` is counted, every
    server free at or before ``a`` serves a waiting job or goes idle; the
    arrival then starts on an idle server or waits. ``max_queue`` is the
    largest count of waiting jobs, the new one included, seen by an arrival.
    Once drained, fills ``stats`` with the keys of :func:`_run_tandem`'s
    per-stage stats.
    """
    free: list[float] = []  # completion times of the jobs in service
    waiting = 0
    busy = 0.0
    max_queue = 0
    arrivals = iter(arrivals)
    first_start = next(arrivals)
    for a in chain((first_start,), arrivals, (_DRAIN,)):
        while free and free[0] <= a:
            f = free[0]
            if waiting:
                waiting -= 1
                d = draw()
                busy += d
                heapreplace(free, f + d)
            else:
                heappop(free)
            yield f
        if a is _DRAIN:
            break
        if waiting >= max_queue:
            max_queue = waiting + 1
        if len(free) < workers:
            d = draw()
            busy += d
            heappush(free, a + d)
        else:
            waiting += 1
    stats.update(busy=busy, max_queue=max_queue, first_start=first_start, last_completion=f)


def _run_pipeline(
    n: int,
    stages: Sequence[StageModel],
    samplers: Sequence[Callable[[], float]],
    start_time: float,
) -> tuple[float, list[dict]]:
    """Run an unbounded tandem as a chain of :func:`_fifo_stage` generators;
    same contract as :func:`_run_tandem`. Stage queue capacities are
    ignored."""
    stats: list[dict] = [{} for _ in stages]
    times: Iterable[float] = repeat(start_time, n)
    for stage, draw, out in zip(stages, samplers, stats):
        times = _fifo_stage(times, stage.workers, draw, out)
    deque(times, maxlen=0)
    stats[0]["max_queue"] = n  # every job is queued at stage 0 at the start
    return stats[-1]["last_completion"], stats


def _run_tandem(
    n: int,
    stages: Sequence[StageModel],
    samplers: Sequence[Callable[[], float]],
    start_time: float,
) -> tuple[float, list[dict]]:
    """Event-driven run of one tandem; all jobs queued at stage 0 at
    ``start_time``. Returns (last completion time, per-stage stats).

    Used for models with a bounded queue after the first stage, whose
    blocking :func:`_run_pipeline` cannot express."""
    k = len(stages)
    waiting = [0] * k
    waiting[0] = n
    free = [s.workers for s in stages]
    blocked = [0] * k
    busy = [0.0] * k
    max_q = [0] * k
    max_q[0] = n
    first_start = [math.inf] * k
    last_completion = [start_time] * k

    heap: list[tuple[float, int, int]] = []
    seq = 0
    now = start_time
    completed = 0

    def pump() -> None:
        nonlocal seq
        moved = True
        while moved:
            moved = False
            for i in range(k):
                while free[i] > 0 and waiting[i] > 0:
                    waiting[i] -= 1
                    free[i] -= 1
                    duration = samplers[i]()
                    busy[i] += duration
                    if now < first_start[i]:
                        first_start[i] = now
                    heappush(heap, (now + duration, seq, i))
                    seq += 1
                    moved = True
            for i in range(k - 1):
                cap = stages[i + 1].queue_capacity
                while blocked[i] > 0 and (cap is None or waiting[i + 1] < cap):
                    blocked[i] -= 1
                    free[i] += 1
                    waiting[i + 1] += 1
                    max_q[i + 1] = max(max_q[i + 1], waiting[i + 1])
                    moved = True

    pump()
    while heap:
        now, _, i = heappop(heap)
        last_completion[i] = now
        if i == k - 1:
            completed += 1
            free[i] += 1
        else:
            cap = stages[i + 1].queue_capacity
            if cap is None or waiting[i + 1] < cap:
                waiting[i + 1] += 1
                max_q[i + 1] = max(max_q[i + 1], waiting[i + 1])
                free[i] += 1
            else:
                blocked[i] += 1
        pump()

    assert completed == n, f"conservation violated: {completed} of {n} images left"
    stats = [
        {
            "busy": busy[i],
            "max_queue": max_q[i],
            "first_start": first_start[i] if first_start[i] != math.inf else start_time,
            "last_completion": last_completion[i],
        }
        for i in range(k)
    ]
    return now, stats


def simulate(
    n_images: int,
    stages: Sequence[StageModel],
    *,
    seed: int = 0,
    mode: str = "pipelined",
) -> SimResult:
    """Simulate a batch of ``n_images`` through the staged pipeline.

    ``pipelined`` lets an image advance as soon as the next stage can take
    it; ``sequential`` drains each stage completely before the next starts.
    Deterministic given (inputs, seed).

    Each stage runs as a generator over the previous stage's completion
    times, in O(workers) memory. A server that frees at the instant of an
    arrival serves a waiting job first, so on such a tie the arrival's
    ``max_queue`` count leaves out the job the server takes. Stochastic
    stages draw from one ``random.Random(seed)`` in the order the chained
    generators pull them: a model with two or more stochastic stages is
    deterministic per seed, but its numbers differ from those of earlier
    versions, which drew in event order. A pipelined model with a
    ``queue_capacity`` on a stage after the first runs on the event loop
    instead, which can block upstream servers.

    Raises:
        InvalidModel: on an empty model, unresolved worker counts,
            ``n_images`` < 1, or a ``queue_capacity`` that has no effect:
            on the first stage, or on any stage in ``sequential`` mode.
    """
    if n_images < 1:
        raise InvalidModel("n_images must be >= 1")
    if not stages:
        raise InvalidModel("at least one stage is required")
    if mode not in ("pipelined", "sequential"):
        raise InvalidModel(f"unknown mode {mode!r}")
    for stage in stages:
        if stage.workers is None:
            raise InvalidModel(f"stage {stage.name}: workers unresolved")
    for stage in stages if mode == "sequential" else stages[:1]:
        if stage.queue_capacity is not None:
            where = "in sequential mode" if mode == "sequential" else "on the first stage"
            raise InvalidModel(f"stage {stage.name}: queue_capacity has no effect {where}")

    rng = random.Random(seed)
    samplers = [s.sampler(rng) for s in stages]

    if mode == "pipelined":
        bounded = any(s.queue_capacity is not None for s in stages[1:])
        run = _run_tandem if bounded else _run_pipeline
        makespan, stats = run(n_images, stages, samplers, 0.0)
    else:
        barrier = 0.0
        stats = []
        for stage, sampler in zip(stages, samplers):
            end, stage_stats = _run_pipeline(n_images, [stage], [sampler], barrier)
            stats.extend(stage_stats)
            barrier = end
        makespan = barrier

    stage_results = []
    for stage, s in zip(stages, stats):
        span = s["last_completion"] - s["first_start"]
        stage_results.append(
            StageStats(
                name=stage.name,
                workers=stage.workers,
                service_time=stage.service_time,
                utilization=s["busy"] / (stage.workers * makespan) if makespan > 0 else 0.0,
                throughput=n_images / span if span > 0 else math.inf,
                max_queue=s["max_queue"],
                busy_time=s["busy"],
                first_start=s["first_start"],
                last_completion=s["last_completion"],
            )
        )
    return SimResult(
        makespan=makespan,
        n_images=n_images,
        mode=mode,
        seed=seed,
        stages=tuple(stage_results),
    )


def min_workers_for_deadline(
    n_images: int,
    stages: Sequence[StageModel],
    deadline: float,
    *,
    seed: int = 0,
    mode: str = "pipelined",
    cap: int = 4096,
) -> int:
    """Smallest worker count at the single unknown stage meeting the deadline.

    Exactly one stage must have ``workers=None``. Makespan is non-increasing
    in any stage's worker count (deterministic service), so the search walks
    up from the analytic lower bound; stochastic models fall back to a
    bisection over [1, cap] under the same monotonicity assumption.

    Raises:
        Infeasible: when even ``cap`` workers cannot meet the deadline.
        InvalidModel: unless exactly one stage is unknown, or deadline <= 0.
    """
    if deadline <= 0:
        raise InvalidModel("deadline must be > 0")
    unknown = [i for i, s in enumerate(stages) if s.workers is None]
    if len(unknown) != 1:
        raise InvalidModel(f"exactly one stage must have unknown workers, got {len(unknown)}")
    index = unknown[0]
    target = stages[index]

    def resolved(c: int) -> list[StageModel]:
        models = list(stages)
        models[index] = StageModel(
            name=target.name,
            service_time=target.service_time,
            workers=c,
            distribution=target.distribution,
            cv=target.cv,
            queue_capacity=target.queue_capacity,
        )
        return models

    def fits(c: int) -> bool:
        return simulate(n_images, resolved(c), seed=seed, mode=mode).makespan <= deadline

    deterministic = all(s.distribution == "deterministic" for s in stages)
    if deterministic:
        if single_image_latency(stages) > deadline:
            raise Infeasible(deadline, cap)
        known_bound = max(
            (n_images * s.service_time / s.workers for s in stages if s.workers is not None),
            default=0.0,
        )
        if mode == "pipelined" and known_bound > deadline:
            raise Infeasible(deadline, cap)
        start = max(1, math.ceil(n_images * target.service_time / deadline - 1e-12))
        if start > cap:
            raise Infeasible(deadline, cap)
        # Gallop up from the analytic bound: everything below ``start`` is
        # ruled out by the bound, everything below ``highest_fail`` by
        # simulation; bisect the remaining gap.
        highest_fail = start - 1
        c = start
        step = 1
        while c <= cap and not fits(c):
            highest_fail = c
            c += step
            step = min(step * 2, 64)
        if c > cap:
            raise Infeasible(deadline, cap)
        lo, hi = highest_fail + 1, c
        while lo < hi:
            mid = (lo + hi) // 2
            if fits(mid):
                hi = mid
            else:
                lo = mid + 1
        return hi

    if not fits(cap):
        raise Infeasible(deadline, cap)
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def format_report(result: SimResult, stages: Sequence[StageModel]) -> str:
    """Human-readable capacity report."""
    bn = bottleneck_stage(stages)
    lines = [
        f"images:    {result.n_images}",
        f"mode:      {result.mode}",
        f"seed:      {result.seed}",
        f"makespan:  {result.makespan:,.1f} s  ({result.makespan / SECONDS_PER_DAY:.2f} days)",
        f"bottleneck: {bn.name} (service {bn.service_time} s / {bn.workers} workers)",
        f"bottleneck lower bound: {bottleneck_bound(result.n_images, stages):,.1f} s",
        "",
        f"{'stage':<12} {'workers':>8} {'service_s':>10} {'util':>7} {'img/s':>9} {'max queue':>10}",
    ]
    for s in result.stages:
        lines.append(
            f"{s.name:<12} {s.workers:>8} {s.service_time:>10.2f} {s.utilization:>7.3f} "
            f"{s.throughput:>9.3f} {s.max_queue:>10}"
        )
    return "\n".join(lines)
