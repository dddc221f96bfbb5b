"""Throughput simulation of the staged processing pipeline.

Images flow through a tandem of multi-server FIFO stages (download, compute,
upload in the production layout). The simulator answers capacity questions:
makespan of a batch, per-stage utilization, where the bottleneck sits, and
the smallest worker count at one stage that meets a deadline.

Each stage has an unbounded queue and runs on its own as a generator: it
reads the sorted arrival times from the stage before and yields sorted
completion times, keeping only the completion times of the jobs in service
and a count of waiting jobs (the Lindley recursion for c servers, chained
into a tandem as in Baccelli, Cohen, Olsder and Quadrat, *Synchronization
and Linearity*, 1992). A stochastic stage keeps those completion times in a
heap. A deterministic stage keeps them in a FIFO ring: jobs that all take
the same time finish in the order they start, so the job that frees a
server is the one that started ``workers`` jobs earlier
(d_i = max(a_i, d_{i-c}) + s). Both give the same times and counts, and
memory is O(workers) whatever the batch size. A server that frees at the
instant of an arrival serves a waiting job first.

A deterministic stage whose jobs all arrive at one instant (the first stage
of a pipelined run, every stage of a sequential one) needs no ring: its
completions come in rounds of ``workers`` jobs, each round ``s`` after the
one before, so the stage is built from ``itertools`` in closed form.

Service times are deterministic by default (only means are usually known);
exponential and lognormal options support sensitivity runs. All stochastic
stages draw from one seeded stream, in the order the chained generators pull
them.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from heapq import heappop, heappush, heapreplace
from itertools import accumulate, chain, islice, repeat
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
    :func:`min_workers_for_deadline`.
    """

    name: str
    service_time: float
    workers: Optional[int]
    distribution: str = "deterministic"
    cv: float = 0.0

    def __post_init__(self):
        if not 0 < self.service_time < math.inf:
            raise InvalidModel(f"stage {self.name}: service time must be finite and > 0")
        if self.workers is not None and (type(self.workers) is not int or self.workers < 1):
            raise InvalidModel(f"stage {self.name}: workers must be an int >= 1")
        if self.distribution not in _DISTRIBUTIONS:
            raise InvalidModel(f"stage {self.name}: unknown distribution {self.distribution!r}")
        if not 0 <= self.cv < math.inf:
            raise InvalidModel(f"stage {self.name}: cv must be finite and >= 0")

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        if self.distribution == "deterministic":
            t = self.service_time
            return lambda: t
        if self.distribution == "exponential":
            rate = 1.0 / self.service_time
            return lambda: rng.expovariate(rate)
        sigma = math.sqrt(math.log(1.0 + self.cv**2))
        mu = math.log(self.service_time) - sigma**2 / 2.0
        uniform, log, exp, magic = rng.random, math.log, math.exp, random.NV_MAGICCONST

        def lognormal() -> float:
            # rng.lognormvariate(mu, sigma) without its two method calls: the
            # same ratio-of-uniforms loop (Kinderman and Monahan, 1977) on the
            # same stream, so the same numbers.
            while True:
                u1 = uniform()
                u2 = 1.0 - uniform()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    return exp(mu + z * sigma)

        return lognormal


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
    Once drained, fills ``stats`` with ``busy``, ``max_queue``,
    ``first_start`` and ``last_completion``.
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


def _fixed_stage(
    arrivals: Iterable[float],
    workers: int,
    service_time: float,
    stats: dict,
) -> Iterator[float]:
    """:func:`_fifo_stage` for a stage whose every job takes ``service_time``.

    Jobs finish in the order they start, so the jobs in service sit in a
    FIFO ring of completion times, oldest first, and no draw is made. The
    events, their order and the float operations are those of
    :func:`_fifo_stage`, so the yielded times and ``stats`` are identical,
    and completions are yielded as lazily, which keeps the draws of chained
    stochastic stages in the same order.
    """
    free: deque[float] = deque()  # completion times of the jobs in service
    pop, push = free.popleft, free.append
    empty = math.inf
    head = empty  # free[0], or inf while the ring is empty
    idle = workers
    waiting = 0
    busy = 0.0
    max_queue = 1  # the first arrival finds no job waiting
    arrivals = iter(arrivals)
    first_start = next(arrivals)
    for a in chain((first_start,), arrivals):
        while head <= a:
            f = pop()
            if waiting:
                waiting -= 1
                busy += service_time
                push(f + service_time)
                head = free[0]
            else:
                idle += 1
                head = free[0] if idle < workers else empty
            yield f
        if idle:
            d = a + service_time
            if idle == workers:
                head = d
            idle -= 1
            busy += service_time
            push(d)
        else:
            waiting += 1
            if waiting > max_queue:
                max_queue = waiting
    # Drain: every server frees in turn and serves the jobs still waiting.
    while waiting:
        f = pop()
        waiting -= 1
        busy += service_time
        push(f + service_time)
        yield f
    yield from free
    stats.update(busy=busy, max_queue=max_queue, first_start=first_start,
                 last_completion=free[-1])


def _queued_stage(
    start: float,
    n: int,
    workers: int,
    service_time: float,
    stats: dict,
) -> Iterator[float]:
    """:func:`_fixed_stage` over ``n`` arrivals all at ``start``, in closed form.

    Every server starts a job at ``start`` and takes the next waiting one the
    instant it frees, so the completions come in rounds of ``workers`` (the
    last round may be partial), each ``service_time`` after the round before:
    d_i = d_{i-workers} + s. The times are summed in the ring's order, so
    they and ``stats`` are bit-identical to the ring's; ``stats`` is filled
    at once, and the times are yielded lazily by ``itertools``. Should
    ``start + service_time`` round to ``start``, every server is free again
    at each arrival and the ring counts no job waiting.
    """
    rounds = -(-n // workers)

    def completions() -> Iterator[float]:
        return accumulate(repeat(service_time, rounds - 1), initial=start + service_time)

    def last(values: Iterable[float]) -> float:
        return deque(values, maxlen=1)[0]

    stats.update(busy=last(accumulate(repeat(service_time, n), initial=0.0)),
                 max_queue=max(1, n - workers) if start + service_time > start else 1,
                 first_start=start,
                 last_completion=last(completions()))
    return islice(chain.from_iterable(map(repeat, completions(), repeat(workers))), n)


def _run_pipeline(
    n: int,
    stages: Sequence[StageModel],
    samplers: Sequence[Callable[[], float]],
    start_time: float,
) -> tuple[float, list[dict]]:
    """Run a tandem as a chain of stage generators, all jobs queued at
    stage 0 at ``start_time``: :func:`_queued_stage` (closed form) for a
    deterministic first stage, :func:`_fixed_stage` (a FIFO ring) for a
    later deterministic one, :func:`_fifo_stage` (a heap) for a stochastic
    one, each in O(workers) memory. Returns (last completion time,
    per-stage stats)."""
    stats: list[dict] = [{} for _ in stages]
    first = stages[0]
    if first.distribution == "deterministic":
        times = _queued_stage(start_time, n, first.workers, first.service_time, stats[0])
    else:
        times = _fifo_stage(repeat(start_time, n), first.workers, samplers[0], stats[0])
    for stage, draw, out in zip(stages[1:], samplers[1:], stats[1:]):
        if stage.distribution == "deterministic":
            times = _fixed_stage(times, stage.workers, stage.service_time, out)
        else:
            times = _fifo_stage(times, stage.workers, draw, out)
    deque(times, maxlen=0)
    stats[0]["max_queue"] = n  # every job is queued at stage 0 at the start
    return stats[-1]["last_completion"], stats


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
    versions, which drew in event order.

    Raises:
        InvalidModel: on an empty model, unresolved worker counts or
            ``n_images`` < 1.
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

    rng = random.Random(seed)
    samplers = [s.sampler(rng) for s in stages]

    if mode == "pipelined":
        makespan, stats = _run_pipeline(n_images, stages, samplers, 0.0)
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
        InvalidModel: unless exactly one stage is unknown and deadline > 0
            (a NaN deadline is not).
    """
    if not deadline > 0:  # NaN too
        raise InvalidModel("deadline must be > 0")
    unknown = [i for i, s in enumerate(stages) if s.workers is None]
    if len(unknown) != 1:
        raise InvalidModel(f"exactly one stage must have unknown workers, got {len(unknown)}")
    index = unknown[0]
    target = stages[index]

    def resolved(c: int) -> list[StageModel]:
        models = list(stages)
        models[index] = replace(target, workers=c)
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
    else:
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
