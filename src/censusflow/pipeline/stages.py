"""The three pipeline stages plus batch planning.

Every stage is idempotent: it only touches tasks in its input states, all
file writes are atomic, and re-running a stage over a mixed batch leaves
already-advanced tasks alone. That property is what makes kill-and-resume
equivalent to an uninterrupted run.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

from ..domain import EntityTag, PageClass, PageTranscript, PersonRecord, validate_record
from ..iiif import (
    FetchError,
    IiifEndpoint,
    IntegrityStatus,
    IsolationViolation,
    NullTransport,
    Transport,
    TransportFailure,
    check_integrity,
    fetch_image,
)
from ..ingest import ImageRef, Registry
from ..label_codec import decode_lenient
from .manifests import (
    FailureInfo,
    PipelineContext,
    TaskManifest,
    TaskState,
    advance,
    atomic_write_bytes,
    register_new,
    task_id_for,
)
from .schedulers import SchedulerAdapter
from .workers import WorkerSet

logger = logging.getLogger(__name__)

_NAME_TO_TAG = {tag.name.lower(): tag for tag in EntityTag}


class EmptySelection(ValueError):
    pass


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_batch(
    registry: Registry,
    ctx: PipelineContext,
    *,
    year: Optional[int] = None,
    commune_code: Optional[str] = None,
    register_id: Optional[str] = None,
    limit: Optional[int] = None,
) -> list[TaskManifest]:
    """Create PENDING manifests for selected images.

    Ordering is deterministic by (register, sequence). Replanning is
    idempotent: existing manifests are returned untouched whatever their
    state.

    Raises:
        EmptySelection: if the filter matches no image.
    """
    selected: list[ImageRef] = []
    for register in registry.registers:
        meta = register.metadata
        if year is not None and meta.census_year != year:
            continue
        if commune_code is not None and meta.commune.code != commune_code:
            continue
        if register_id is not None and meta.register_id != register_id:
            continue
        selected.extend(register.images)
    selected.sort(key=lambda img: (img.register.register_id, img.sequence_index))
    if limit is not None:
        selected = selected[:limit]
    if not selected:
        raise EmptySelection("no images match the given filter")

    known = {m.task_id: m for m in ctx.log.load_all()}
    manifests = []
    for image in selected:
        task_id = task_id_for(image)
        if task_id in known:
            manifests.append(known[task_id])
        else:
            manifests.append(register_new(TaskManifest(task_id=task_id, image=image), ctx))
    return manifests


# ---------------------------------------------------------------------------
# Pre-stage: download into staging
# ---------------------------------------------------------------------------


def run_stage_prestage(
    tasks: Sequence[TaskManifest],
    ctx: PipelineContext,
    *,
    endpoint: IiifEndpoint,
    transport: Transport,
    staging_dir: str | Path,
    concurrency: int = 14,
) -> list[TaskManifest]:
    """Fetch image bytes and dimensions for PENDING tasks into staging.

    Tasks move to STAGED on success or FAILED(prestage) otherwise; tasks in
    any other state are untouched.
    """
    staging = Path(staging_dir)
    todo = [m for m in tasks if m.state is TaskState.PENDING]

    def work(manifest: TaskManifest):
        result = check_integrity(endpoint, manifest.image, transport)
        if result.status is not IntegrityStatus.OK:
            return manifest, None, f"{result.status.value.lower()}: {result.detail}".rstrip(": ")
        try:
            payload = fetch_image(endpoint, manifest.image.iiif_identifier, transport)
        except (FetchError, TransportFailure) as exc:
            return manifest, None, f"fetch failed: {exc}"
        task_dir = staging / manifest.task_id
        task_dir.mkdir(parents=True, exist_ok=True)
        path = task_dir / "image.jpg"
        atomic_write_bytes(path, payload)
        return manifest, (result.image, str(path)), ""

    if not todo:
        return list(tasks)
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        outcomes = list(pool.map(work, todo))
    for manifest, staged, reason in outcomes:
        if staged is None:
            attempt = manifest.attempts.get("prestage", 0) + 1
            advance(
                manifest,
                TaskState.FAILED,
                ctx,
                attempts={**manifest.attempts, "prestage": attempt},
                failure=FailureInfo("prestage", reason, attempt),
            )
            logger.warning("prestage failed for %s: %s", manifest.task_id, reason)
        else:
            image, path = staged
            advance(manifest, TaskState.STAGED, ctx, image=image, staged_path=path)
    return list(tasks)


# ---------------------------------------------------------------------------
# Process stage: classify + recognize on (possibly isolated) compute
# ---------------------------------------------------------------------------


def build_payload(
    manifest: TaskManifest,
    page_class: PageClass,
    transcript: Optional[PageTranscript],
    warnings: Sequence,
    versions: dict[str, str],
) -> dict:
    payload = {
        "task_id": manifest.task_id,
        "register_id": manifest.image.register.register_id,
        "page_id": manifest.image.iiif_identifier,
        "sequence_index": manifest.image.sequence_index,
        "page_class": page_class.name,
        "transcript": None,
        "warnings": [{"position": w.position, "kind": w.kind.value} for w in warnings],
        "worker": versions,
    }
    if transcript is not None:
        payload["transcript"] = {
            "records": [
                {
                    "is_head": record.is_head,
                    "fields": [
                        {"tag": tag.name.lower(), "text": record.fields[tag]}
                        for tag in EntityTag
                        if tag in record.fields
                    ],
                }
                for record in transcript.records
            ]
        }
    return payload


def validate_payload(payload: dict) -> list[str]:
    """Schema violations of a result payload; empty list means valid."""
    problems = []
    for key in ("task_id", "register_id", "page_id", "sequence_index", "page_class"):
        if key not in payload:
            problems.append(f"missing key {key}")
    page_class = payload.get("page_class")
    if page_class is not None and page_class not in PageClass.__members__:
        problems.append(f"unknown page_class {page_class!r}")
    transcript = payload.get("transcript")
    is_list = page_class == PageClass.LIST.name
    if is_list and transcript is None:
        problems.append("LIST page without transcript")
    if not is_list and transcript is not None:
        problems.append(f"transcript present on {page_class} page")
    if transcript is not None:
        records = transcript.get("records")
        if not isinstance(records, list):
            problems.append("transcript.records is not a list")
        else:
            for i, record in enumerate(records):
                fields = {}
                for item in record.get("fields", ()):
                    tag = _NAME_TO_TAG.get(item.get("tag", ""))
                    if tag is None:
                        problems.append(f"record {i}: unknown tag {item.get('tag')!r}")
                        continue
                    fields[tag] = item.get("text", "")
                violations = validate_record(PersonRecord(fields))
                problems.extend(f"record {i}: {v}" for v in violations)
                if bool(record.get("is_head")) != (EntityTag.SURNAME_HEAD in fields):
                    problems.append(f"record {i}: is_head flag inconsistent with fields")
    return problems


def payload_transcript(payload: dict) -> Optional[PageTranscript]:
    """Rebuild the PageTranscript embedded in a result payload."""
    transcript = payload.get("transcript")
    if transcript is None:
        return None
    records = []
    for record in transcript["records"]:
        fields = {_NAME_TO_TAG[item["tag"]]: item["text"] for item in record["fields"]}
        records.append(PersonRecord(fields))
    return PageTranscript(
        tuple(records),
        page_id=payload["page_id"],
        page_index_in_register=payload["sequence_index"],
    )


def run_stage_process(
    tasks: Sequence[TaskManifest],
    ctx: PipelineContext,
    *,
    workers: WorkerSet,
    scheduler: SchedulerAdapter,
    results_dir: str | Path,
    retry_limit: int = 3,
) -> list[TaskManifest]:
    """Classify STAGED pages and recognize list pages, writing result JSON.

    Non-list pages skip the recognizer and yield a payload without a
    transcript. Worker crashes retry up to ``retry_limit`` times before the
    task fails; a missing staged file fails immediately. Under an isolated
    scheduler the workers get a null transport, so any network call from
    worker code raises IsolationViolation and fails the task.
    """
    results = Path(results_dir)
    results.mkdir(parents=True, exist_ok=True)
    todo = [m for m in tasks if m.state in (TaskState.STAGED, TaskState.PROCESSING)]
    if not todo:
        return list(tasks)

    for manifest in todo:
        if manifest.state is TaskState.STAGED:
            advance(manifest, TaskState.PROCESSING, ctx)

    def work(manifest: TaskManifest):
        staged = Path(manifest.staged_path) if manifest.staged_path else None
        if staged is None or not staged.exists():
            return manifest, None, "missing_input", 0
        image_bytes = staged.read_bytes()
        attempts = 0
        while True:
            attempts += 1
            try:
                page_class = workers.classify(image_bytes)
                if page_class is PageClass.LIST:
                    label = workers.recognize(image_bytes)
                    report = decode_lenient(
                        label,
                        page_id=manifest.image.iiif_identifier,
                        page_index=manifest.image.sequence_index,
                    )
                    payload = build_payload(
                        manifest, page_class, report.transcript, report.warnings, workers.versions
                    )
                else:
                    payload = build_payload(manifest, page_class, None, (), workers.versions)
                break
            except IsolationViolation as exc:
                return manifest, None, f"isolation: {exc}", attempts
            except Exception as exc:  # worker crash: retryable
                if attempts >= retry_limit:
                    return manifest, None, f"worker_error: {exc}", attempts
        path = results / f"{manifest.task_id}.json"
        atomic_write_bytes(path, json.dumps(payload, sort_keys=True, ensure_ascii=False).encode())
        return manifest, str(path), "", attempts

    transport = workers.transport
    if scheduler.isolated_compute:
        workers.transport = NullTransport()
    try:
        outcomes = scheduler.run("process", todo, work)
    finally:
        workers.transport = transport
    for manifest, result_path, reason, attempts in outcomes:
        total = manifest.attempts.get("process", 0) + max(attempts, 1)
        attempts_now = {**manifest.attempts, "process": total}
        if result_path is None:
            advance(
                manifest,
                TaskState.FAILED,
                ctx,
                attempts=attempts_now,
                failure=FailureInfo("process", reason, total),
            )
            logger.warning("process failed for %s: %s", manifest.task_id, reason)
        else:
            advance(
                manifest, TaskState.PROCESSED, ctx, attempts=attempts_now, result_path=result_path
            )
    return list(tasks)


# ---------------------------------------------------------------------------
# Integrate stage: validate and store exactly once
# ---------------------------------------------------------------------------


def run_stage_integrate(
    tasks: Sequence[TaskManifest],
    ctx: PipelineContext,
    *,
    results_store,
) -> list[TaskManifest]:
    """Validate PROCESSED payloads and append them to the results store.

    The store is keyed by task id, so integrating twice is a no-op and a
    crash between append and manifest update cannot duplicate a record.
    """
    for manifest in [m for m in tasks if m.state is TaskState.PROCESSED]:
        path = Path(manifest.result_path) if manifest.result_path else None
        if path is None or not path.exists():
            advance(
                manifest,
                TaskState.FAILED,
                ctx,
                failure=FailureInfo("integrate", "missing_result", 1),
            )
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        problems = validate_payload(payload)
        if problems:
            advance(
                manifest,
                TaskState.FAILED,
                ctx,
                failure=FailureInfo("integrate", "schema: " + "; ".join(problems[:3]), 1),
            )
            logger.warning("integrate rejected %s: %s", manifest.task_id, problems[:3])
            continue
        results_store.add(manifest.task_id, payload)
        advance(manifest, TaskState.INTEGRATED, ctx)
    return list(tasks)
