"""Scheduler abstraction for the processing stage.

A scheduler runs a batch of work items through a task function and returns
their results in item order. Two implementations:

* ``LocalExecutor`` runs items on an in-process thread pool.
* ``SimulatedBatchScheduler`` models a batch system with a fixed number of
  compute nodes that are isolated from the internet: items run in submission
  order on the calling thread, and the stage injects a null transport so any
  network call from task code raises IsolationViolation.

Real cluster submission would be a third adapter behind the same seam.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class SchedulerAdapter(ABC):
    """Runs a batch of items on some execution substrate."""

    #: True when task code must not touch the network.
    isolated_compute: bool = False

    @abstractmethod
    def run(self, stage: str, items: Sequence[T], fn: Callable[[T], R]) -> list[R]:
        """Apply ``fn`` to every item; results come back in item order."""

    def shutdown(self) -> None:
        pass


class LocalExecutor(SchedulerAdapter):
    """In-process worker pool."""

    isolated_compute = False

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def run(self, stage, items, fn):
        futures = [self._pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def shutdown(self):
        self._pool.shutdown(wait=True)


class SimulatedBatchScheduler(SchedulerAdapter):
    """Queue-based stand-in for a batch scheduler with isolated nodes.

    Deterministic: items run one after another in submission order on the
    calling thread. Ticks of ``nodes`` items would run in that same order,
    so ``nodes`` changes neither the order nor the results.
    """

    isolated_compute = True

    def __init__(self, nodes: int = 1):
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        self.nodes = nodes

    def run(self, stage, items, fn):
        return [fn(item) for item in items]
