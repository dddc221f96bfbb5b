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

# Payload tag names in canonical field order, computed once: reading the
# ``Enum.name`` property per field costs a descriptor call each time.
_TAG_NAMES = tuple((tag, tag.name.lower()) for tag in EntityTag)
_NAME_TO_TAG = {name: tag for tag, name in _TAG_NAMES}


class EmptySelection(ValueError):
    pass


def _fail(manifest: TaskManifest, ctx: PipelineContext, stage: str, reason: str,
          attempt: int = 1, attempts: Optional[dict[str, int]] = None) -> None:
    """Advance a task to FAILED at ``stage``, recording ``attempts`` if
    given, and log one warning naming the stage and the task."""
    advance(manifest, TaskState.FAILED, ctx, attempts=attempts,
            failure=FailureInfo(stage, reason, attempt))
    logger.warning("%s failed for %s: %s", stage, manifest.task_id, reason)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def select_images(
    registry: Registry,
    *,
    year: Optional[int] = None,
    commune_code: Optional[str] = None,
    register_id: Optional[str] = None,
    limit: Optional[int] = None,
) -> list[ImageRef]:
    """The images a filter selects, ordered by (register, sequence), at most
    ``limit`` of them.

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
    return selected


def plan_batch(registry: Registry, ctx: PipelineContext, **selection) -> list[TaskManifest]:
    """Create PENDING manifests for the images ``select_images(registry,
    **selection)`` picks, in its order.

    Replanning is idempotent: existing manifests are returned untouched
    whatever their state.

    Raises:
        EmptySelection: if the filter matches no image.
    """
    selected = select_images(registry, **selection)
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
    concurrency: int = 14,
) -> list[TaskManifest]:
    """Check each PENDING task's image (``check_integrity``) and fetch its
    bytes to ``ctx.staged_file(task_id)``.

    Tasks move to STAGED on success or FAILED(prestage) otherwise; tasks in
    any other state are untouched.
    """
    todo = [m for m in tasks if m.state is TaskState.PENDING]

    def work(manifest: TaskManifest):
        result = check_integrity(endpoint, manifest.image, transport)
        if result.status is not IntegrityStatus.OK:
            return manifest, f"{result.status.value.lower()}: {result.detail}".rstrip(": ")
        try:
            payload = fetch_image(endpoint, manifest.image.iiif_identifier, transport)
        except (FetchError, TransportFailure) as exc:
            return manifest, f"fetch failed: {exc}"
        atomic_write_bytes(ctx.staged_file(manifest.task_id), payload)
        return manifest, ""

    if not todo:
        return list(tasks)
    ctx.staging_dir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        outcomes = list(pool.map(work, todo))
    for manifest, reason in outcomes:
        if reason:
            _fail(manifest, ctx, "prestage", reason, attempts={"prestage": 1})
        else:
            advance(manifest, TaskState.STAGED, ctx)
    return list(tasks)


# ---------------------------------------------------------------------------
# Process stage: classify + recognize on (possibly isolated) compute
# ---------------------------------------------------------------------------


def _task_keys(manifest: TaskManifest) -> dict:
    """The payload keys that name a task and its image."""
    image = manifest.image
    return {"task_id": manifest.task_id, "register_id": image.register.register_id,
            "page_id": image.iiif_identifier, "sequence_index": image.sequence_index}


def build_payload(
    manifest: TaskManifest,
    page_class: PageClass,
    transcript: Optional[PageTranscript],
    warnings: Sequence,
    versions: dict[str, str],
) -> dict:
    payload = {
        **_task_keys(manifest),
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
                        {"tag": name, "text": record.fields[tag]}
                        for tag, name in _TAG_NAMES
                        if tag in record.fields
                    ],
                }
                for record in transcript.records
            ]
        }
    return payload


def validate_payload(payload: dict) -> list[str]:
    """Schema violations of a result payload; empty list means valid.

    Total over any JSON object: every value of the wrong type or shape is
    reported as a violation, never raised.
    """
    problems = []
    for key in ("task_id", "register_id", "page_id", "sequence_index", "page_class"):
        if key not in payload:
            problems.append(f"missing key {key}")
    for key in ("task_id", "register_id", "page_id"):
        if key in payload and not isinstance(payload[key], str):
            problems.append(f"{key} is not a string")
    sequence_index = payload.get("sequence_index", 0)
    if type(sequence_index) is not int or sequence_index < 0:
        problems.append(f"sequence_index {sequence_index!r} is not an integer >= 0")
    page_class = payload.get("page_class")
    if page_class is not None and (
        not isinstance(page_class, str) or page_class not in PageClass.__members__
    ):
        problems.append(f"unknown page_class {page_class!r}")
    transcript = payload.get("transcript")
    is_list = page_class == PageClass.LIST.name
    if is_list and transcript is None:
        problems.append("LIST page without transcript")
    if not is_list and transcript is not None:
        problems.append(f"transcript present on {page_class} page")
    if transcript is None:
        return problems
    records = transcript.get("records") if isinstance(transcript, dict) else None
    if not isinstance(records, list):
        problems.append("transcript.records is not a list")
        return problems
    for i, record in enumerate(records):
        items = record.get("fields", []) if isinstance(record, dict) else None
        if not isinstance(items, list):
            problems.append(f"record {i}: not an object with a fields list")
            continue
        fields = {}
        for item in items:
            if not isinstance(item, dict):
                item = {"tag": None}
            tag, text = item.get("tag"), item.get("text", "")
            if not isinstance(tag, str) or tag not in _NAME_TO_TAG:
                problems.append(f"record {i}: unknown tag {tag!r}")
            elif not isinstance(text, str):
                problems.append(f"record {i}: {tag} text is not a string")
            else:
                fields[_NAME_TO_TAG[tag]] = text
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
    retry_limit: int = 3,
) -> list[TaskManifest]:
    """Classify STAGED pages and recognize list pages, writing each result
    to ``ctx.result_file(task_id)``.

    Non-list pages skip the recognizer and yield a payload without a
    transcript. Worker crashes retry up to ``retry_limit`` times before the
    task fails; a missing staged file fails immediately. Under an isolated
    scheduler the workers get a null transport, so any network call from
    worker code raises IsolationViolation and fails the task.
    """
    todo = [m for m in tasks if m.state in (TaskState.STAGED, TaskState.PROCESSING)]
    if not todo:
        return list(tasks)
    ctx.results_dir.mkdir(parents=True, exist_ok=True)

    for manifest in todo:
        if manifest.state is TaskState.STAGED:
            advance(manifest, TaskState.PROCESSING, ctx)

    def work(manifest: TaskManifest):
        try:
            image_bytes = ctx.staged_file(manifest.task_id).read_bytes()
        except FileNotFoundError:
            return manifest, "missing_input", 1
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
                return manifest, f"isolation: {exc}", attempts
            except Exception as exc:  # worker crash: retryable
                if attempts >= retry_limit:
                    return manifest, f"worker_error: {exc}", attempts
        text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        atomic_write_bytes(ctx.result_file(manifest.task_id), text.encode())
        return manifest, "", attempts

    transport = workers.transport
    if scheduler.isolated_compute:
        workers.transport = NullTransport()
    try:
        outcomes = scheduler.run("process", todo, work)
    finally:
        workers.transport = transport
    for manifest, reason, attempts in outcomes:
        if reason:
            _fail(manifest, ctx, "process", reason, attempts, attempts={"process": attempts})
        else:
            advance(manifest, TaskState.PROCESSED, ctx, attempts={"process": attempts})
    return list(tasks)


# ---------------------------------------------------------------------------
# Integrate stage: validate and store exactly once
# ---------------------------------------------------------------------------


def _read_result(manifest: TaskManifest, ctx: PipelineContext) -> tuple[str, dict]:
    """The text of a task's result file and the payload it holds.

    Raises:
        ValueError: ``missing_result``, ``bad_result: <error>`` or
            ``schema: <first three problems>``, a payload that names
            another task, register, page or sequence index among them.
    """
    try:
        text = ctx.result_file(manifest.task_id).read_text(encoding="utf-8")
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"not a JSON object but a {type(payload).__name__}")
    except FileNotFoundError:
        raise ValueError("missing_result") from None
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"bad_result: {exc}") from None
    problems = validate_payload(payload)
    for key, value in _task_keys(manifest).items():
        if key in payload and payload[key] != value:
            problems.append(f"{key} {payload[key]!r} is not the task's {value!r}")
    if problems:
        raise ValueError("schema: " + "; ".join(problems[:3]))
    return text, payload


def run_stage_integrate(
    tasks: Sequence[TaskManifest],
    ctx: PipelineContext,
    *,
    results_store,
) -> list[TaskManifest]:
    """Validate PROCESSED payloads and append them to the results store.

    The store is keyed by task id, so integrating twice is a no-op and a
    crash between append and manifest update cannot duplicate a record.
    The store receives the result file's text as read, so a payload is
    encoded once, by the process stage. A result file that is not a JSON
    object fails its task as ``bad_result``, and one whose payload names
    another task (its ``task_id``, ``register_id``, ``page_id`` or
    ``sequence_index``) as ``schema``: the file is found by task id alone,
    so its content must agree with that id.
    """
    for manifest in [m for m in tasks if m.state is TaskState.PROCESSED]:
        try:
            text, payload = _read_result(manifest, ctx)
        except ValueError as exc:
            _fail(manifest, ctx, "integrate", str(exc))
            continue
        results_store.add(manifest.task_id, payload, text)
        advance(manifest, TaskState.INTEGRATED, ctx)
    return list(tasks)
