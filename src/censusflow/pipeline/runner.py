"""Batch orchestration: drive the three stages to termination and export.

``run_batch`` plans tasks from a registry, then makes one pass over bounded
windows of the tasks not yet terminal, running pre-stage, process and
integrate on each window; after its window's pass every task is INTEGRATED
or FAILED. Because all stage steps are idempotent and all task state lives
in the workspace's append-only task log, interrupting the pass at any point,
even in the middle of an append, and calling ``run_batch`` again yields the
same terminal result set.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from ..domain import PageClass, RegisterDocument, RegisterPage
from ..household import HouseholdSet, export_households, merge_register
from ..iiif import IiifEndpoint, Transport
from ..ingest import Registry
from .manifests import (
    TERMINAL_STATES,
    PipelineContext,
    TaskManifest,
    TaskState,
    cut_torn_tail,
    read_ndjson,
)
from .schedulers import SchedulerAdapter
from .stages import (
    payload_transcript,
    plan_batch,
    run_stage_integrate,
    run_stage_prestage,
    run_stage_process,
)
from .workers import WorkerSet


class ResultStore:
    """Append-only NDJSON store keyed by task id; duplicate adds are no-ops.

    A torn last line is skipped on read and cut before the first add, as
    in the task log.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._keys: set[str] = {record["task_id"] for record in read_ndjson(self.path)}
        self._tail_cut = False

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, task_id: str, payload: dict) -> bool:
        """Append a record unless the key is already present."""
        with self._lock:
            if task_id in self._keys:
                return False
            if not self._tail_cut:
                cut_torn_tail(self.path)
                self._tail_cut = True
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n")
            self._keys.add(task_id)
            return True

    def records(self) -> list[dict]:
        return list(read_ndjson(self.path))


@dataclass
class RunConfig:
    """Everything run_batch needs; directories default under ``workspace``."""

    workspace: Path
    registry: Registry
    endpoint: IiifEndpoint
    transport: Transport
    workers: WorkerSet
    scheduler: SchedulerAdapter
    prestage_concurrency: int = 14
    retry_limit: int = 3
    window: int = 64
    year: Optional[int] = None
    commune_code: Optional[str] = None
    register_id: Optional[str] = None
    limit: Optional[int] = None
    export_households_csv: bool = True
    clock: Callable[[], float] = time.time
    on_transition: Optional[Callable[[TaskManifest], None]] = None

    def __post_init__(self):
        self.workspace = Path(self.workspace)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")

    @property
    def staging_dir(self) -> Path:
        return self.workspace / "staging"

    @property
    def results_dir(self) -> Path:
        return self.workspace / "results"

    @property
    def store_path(self) -> Path:
        return self.workspace / "results_store.ndjson"

    @property
    def households_path(self) -> Path:
        return self.workspace / "households.csv"


@dataclass
class BatchReport:
    planned: int
    counts: dict[str, int]
    stage_latencies: dict[str, float]
    failed_tasks: list[tuple[str, str, str]] = field(default_factory=list)
    households_csv: Optional[str] = None
    households_exported: int = 0
    registers_exported: int = 0
    registers_skipped: int = 0

    @property
    def succeeded(self) -> bool:
        return not self.failed_tasks


def _state_counts(manifests: Iterable[TaskManifest]) -> dict[str, int]:
    counts = {state.value: 0 for state in TaskState}
    for m in manifests:
        counts[m.state.value] += 1
    return counts


def _mean_latencies(manifests: list[TaskManifest]) -> dict[str, float]:
    spans = {
        "prestage": (TaskState.PENDING, TaskState.STAGED),
        "process": (TaskState.PROCESSING, TaskState.PROCESSED),
        "integrate": (TaskState.PROCESSED, TaskState.INTEGRATED),
    }
    out = {}
    for stage, (src, dst) in spans.items():
        deltas = [
            m.timestamps[dst.value] - m.timestamps[src.value]
            for m in manifests
            if dst.value in m.timestamps and src.value in m.timestamps
        ]
        out[stage] = sum(deltas) / len(deltas) if deltas else 0.0
    return out


def run_batch(config: RunConfig) -> BatchReport:
    """Drive every planned task to a terminal state, then export households.

    Each stage filters its window by state, so one pass over windows of
    the non-terminal tasks ends with every task terminal. Conservation holds
    at termination: INTEGRATED + FAILED equals the planned task count.
    """
    ctx = PipelineContext.at(
        config.workspace, clock=config.clock, on_transition=config.on_transition
    )
    manifests = plan_batch(
        config.registry,
        ctx,
        year=config.year,
        commune_code=config.commune_code,
        register_id=config.register_id,
        limit=config.limit,
    )
    store = ResultStore(config.store_path)

    todo = [m for m in manifests if m.state not in TERMINAL_STATES]
    for start in range(0, len(todo), config.window):
        window = todo[start : start + config.window]
        run_stage_prestage(
            window,
            ctx,
            endpoint=config.endpoint,
            transport=config.transport,
            staging_dir=config.staging_dir,
            concurrency=config.prestage_concurrency,
        )
        run_stage_process(
            window,
            ctx,
            workers=config.workers,
            scheduler=config.scheduler,
            results_dir=config.results_dir,
            retry_limit=config.retry_limit,
        )
        run_stage_integrate(window, ctx, results_store=store)

    report = BatchReport(
        planned=len(manifests),
        counts=_state_counts(manifests),
        stage_latencies=_mean_latencies(manifests),
        failed_tasks=[
            (m.task_id, m.failure.stage if m.failure else "?", m.failure.reason if m.failure else "?")
            for m in manifests
            if m.state is TaskState.FAILED
        ],
    )
    if config.export_households_csv:
        exported, skipped, people = export_batch(
            config.registry, store, config.households_path
        )
        report.households_csv = str(config.households_path)
        report.households_exported = people
        report.registers_exported = exported
        report.registers_skipped = skipped
    return report


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def registry_from_manifests(manifests: Iterable[TaskManifest]) -> Registry:
    """Rebuild the planned registry subset from task manifests, so export
    works from a workspace alone."""
    from ..ingest import Register

    by_register: dict[str, list[TaskManifest]] = {}
    for manifest in manifests:
        by_register.setdefault(manifest.image.register.register_id, []).append(manifest)
    registers = []
    for register_id in sorted(by_register):
        group = sorted(by_register[register_id], key=lambda m: m.image.sequence_index)
        images = tuple(m.image for m in group)
        registers.append(Register(metadata=images[0].register, images=images))
    return Registry(tuple(registers))


def documents_from_store(registry: Registry, store: ResultStore) -> tuple[list[RegisterDocument], int]:
    """Rebuild register documents from integrated payloads.

    Only registers whose every image has an integrated result are rebuilt;
    the second return value counts registers skipped as incomplete.
    """
    by_register: dict[str, dict[int, dict]] = {}
    for record in store.records():
        by_register.setdefault(record["register_id"], {})[record["sequence_index"]] = record

    documents = []
    skipped = 0
    for register in registry.registers:
        register_id = register.metadata.register_id
        payloads = by_register.get(register_id, {})
        expected = {img.sequence_index for img in register.images}
        if set(payloads) != expected:
            skipped += 1
            continue
        pages = []
        for seq in sorted(payloads):
            payload = payloads[seq]
            pages.append(
                RegisterPage(
                    page_id=payload["page_id"],
                    page_class=PageClass[payload["page_class"]],
                    transcript=payload_transcript(payload),
                )
            )
        documents.append(
            RegisterDocument(
                register_id=register_id, pages=tuple(pages), metadata=register.metadata
            )
        )
    return documents, skipped


def export_batch(
    registry: Registry, store: ResultStore, out_path: str | Path
) -> tuple[int, int, int]:
    """Merge households per fully-integrated register and write one CSV.

    Returns (registers exported, registers skipped, person rows written).
    """
    documents, skipped = documents_from_store(registry, store)
    entries: list[tuple[RegisterDocument, HouseholdSet]] = [
        (doc, merge_register(doc)) for doc in documents
    ]
    people = export_households(entries, out_path)
    return len(documents), skipped, people
