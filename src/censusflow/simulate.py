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

Times pass between stages as runs, ``(time, count)`` pairs of equal times,
while every stage so far is deterministic: all jobs arrive at the first
stage as one run, and a deterministic stage moves in lock-step rounds (the
paper model's first stage frees 14 jobs every 1.6 s), so its ring holds
runs and takes one step per run, not per job, with the same float
operations. A stochastic stage reads runs and yields one time per job; a
deterministic stage after it keeps a ring of single times.

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
from itertools import accumulate, chain, repeat
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
        if self.cv and self.distribution != "lognormal":
            raise InvalidModel(f"stage {self.name}: cv applies to a lognormal stage only")
        try:
            self.cv**2  # as the lognormal sampler takes it
        except OverflowError:
            raise InvalidModel(f"stage {self.name}: cv {self.cv:g} is too large") from None

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
    runs: Iterable[tuple[float, int]],
    workers: int,
    draw: Callable[[], float],
    stats: dict,
) -> Iterator[float]:
    """One FIFO stage with ``workers`` servers and an unbounded queue.

    Reads arrivals as runs, ``(time, count)`` pairs in non-decreasing time,
    and yields one completion time per job, in non-decreasing order. Before
    an arrival at ``a`` is counted, every server free at or before ``a``
    serves a waiting job or goes idle; the arrival then starts on an idle
    server or waits. An arrival that finds every server busy leaves no
    server free before ``a``, so the rest of its run waits with it at once.
    ``max_queue`` is the largest count of waiting jobs, the new one
    included, seen by an arrival. Once drained, fills ``stats`` with
    ``busy``, ``max_queue``, ``first_start`` and ``last_completion``.
    """
    free: list[float] = []  # completion times of the jobs in service
    waiting = 0
    busy = 0.0
    max_queue = 1  # the first arrival finds no job waiting
    runs = iter(runs)
    first = next(runs)
    for a, k in chain((first,), runs, ((_DRAIN, 0),)):
        while True:
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
            if not k:  # the drain
                break
            if len(free) == workers:
                waiting += k
                if waiting > max_queue:
                    max_queue = waiting
                break
            d = draw()
            busy += d
            heappush(free, a + d)
            k -= 1
            if not k:
                break
    stats.update(busy=busy, max_queue=max_queue, first_start=first[0], last_completion=f)


def _fixed_stage(
    arrivals: Iterable[float],
    workers: int,
    service_time: float,
    stats: dict,
) -> Iterator[float]:
    """:func:`_fifo_stage` for a stage whose every job takes ``service_time``,
    over one arrival time per job.

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


def _runs_stage(
    runs: Iterable[tuple[float, int]],
    workers: int,
    service_time: float,
    stats: dict,
) -> Iterator[tuple[float, int]]:
    """:func:`_fixed_stage` over runs, ``(time, count)`` pairs of equal
    times in non-decreasing order, read and yielded.

    The ring holds ``(completion, jobs)`` runs, oldest first: at most
    ``workers`` of them. A run of c jobs that frees at f starts
    min(c, waiting) waiting jobs at f + s, and the rest go idle; an arrival
    run of k jobs at a starts min(idle, k) of them at a + s, and the rest
    wait at once. Equal completions pushed back to back merge into one run.
    Each f + s and a + s is the float operation the ring makes for every
    job of the run, so the times, expanded per job, and ``stats`` are the
    ring's; ``busy`` is the same n additions of s. Should a + s round to
    a, each job frees its server before the next one arrives and no job
    waits, as in the ring: the run passes through.

    One input run is read at a time, and a run is yielded before the next
    input past it is read. The first stage of a pipelined run, and every
    stage of a sequential one, is this stage over the single run
    ``(start, n)``: rounds of ``workers`` completions, each one service
    time after the round before (d_i = d_{i-c} + s).
    """
    ring: deque[tuple[float, int]] = deque()
    pop, push = ring.popleft, ring.append
    empty = math.inf
    head = empty  # ring[0]'s completion, or inf while the ring is empty
    idle = workers
    waiting = 0
    jobs = 0
    max_queue = 1  # the first arrival finds no job waiting
    runs = iter(runs)
    first = next(runs)
    for a, k in chain((first,), runs):
        jobs += k
        while head <= a:
            f, c = pop()
            if waiting:
                m = c if c < waiting else waiting
                waiting -= m
                idle += c - m
                d = f + service_time
                if ring and ring[-1][0] == d:
                    ring[-1] = (d, ring[-1][1] + m)
                else:
                    push((d, m))
                head = ring[0][0]
            else:
                idle += c
                head = ring[0][0] if ring else empty
            yield f, c
        if idle:
            d = a + service_time
            if d == a:
                f = a
                yield f, k
                continue
            m = idle if idle < k else k
            idle -= m
            k -= m
            if not ring:
                head = d
                push((d, m))
            elif ring[-1][0] == d:
                ring[-1] = (d, ring[-1][1] + m)
            else:
                push((d, m))
        if k:
            waiting += k
            if waiting > max_queue:
                max_queue = waiting
    # Drain: every run frees in turn and serves the jobs still waiting.
    while waiting:
        f, c = pop()
        m = c if c < waiting else waiting
        waiting -= m
        d = f + service_time
        if ring and ring[-1][0] == d:
            ring[-1] = (d, ring[-1][1] + m)
        else:
            push((d, m))
        yield f, c
    yield from ring
    stats.update(busy=deque(accumulate(repeat(service_time, jobs), initial=0.0), maxlen=1)[0],
                 max_queue=max_queue, first_start=first[0],
                 last_completion=ring[-1][0] if ring else f)


def _run_pipeline(
    n: int,
    stages: Sequence[StageModel],
    samplers: Sequence[Callable[[], float]],
    start_time: float,
) -> tuple[float, list[dict]]:
    """Run a tandem as a chain of stage generators, all jobs queued at
    stage 0 at ``start_time``, each stage in O(workers) memory. Stages pass
    runs of equal times while every stage so far is deterministic
    (:func:`_runs_stage`); a stochastic stage (:func:`_fifo_stage`, a heap)
    reads runs and yields one time per job, and a deterministic stage after
    it is a FIFO ring over those times (:func:`_fixed_stage`). Returns
    (last completion time, per-stage stats)."""
    stats: list[dict] = [{} for _ in stages]
    times: Iterable = ((start_time, n),)
    runs = True  # ``times`` yields runs, not one time per job
    for stage, draw, out in zip(stages, samplers, stats):
        if stage.distribution != "deterministic":
            times = _fifo_stage(times if runs else zip(times, repeat(1)), stage.workers,
                                draw, out)
            runs = False
        elif runs:
            times = _runs_stage(times, stage.workers, stage.service_time, out)
        else:
            times = _fixed_stage(times, stage.workers, stage.service_time, out)
    deque(times, maxlen=0)
    stats[0]["max_queue"] = n  # every job is queued at stage 0 at the start
    return stats[-1]["last_completion"], stats


def _check_count(name: str, value) -> None:
    if type(value) is not int or value < 1:
        raise InvalidModel(f"{name} must be an int >= 1")


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
        InvalidModel: on an empty model, unresolved worker counts or an
            ``n_images`` that is not an int >= 1.
    """
    _check_count("n_images", n_images)
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
        InvalidModel: unless exactly one stage is unknown, deadline > 0 (a
            NaN deadline is not), and ``n_images`` and ``cap`` are ints >= 1.
    """
    if not deadline > 0:  # NaN too
        raise InvalidModel("deadline must be > 0")
    _check_count("n_images", n_images)
    _check_count("cap", cap)
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
