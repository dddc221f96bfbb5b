"""The three pipeline stages plus batch planning.

Each takes the workspace (``runner.Workspace``) alone and reaches the task
log, the staged images and the result store (``Workspace.store``) through
it. Every stage is idempotent: it only touches tasks in its input states,
all file writes are atomic or appends, and re-running a stage over a mixed
batch leaves already-advanced tasks alone. The result store, not the log,
says whether a task's result exists, so a stage trusts a transition only
as far as the store backs it. That property is what makes kill-and-resume
equivalent to an uninterrupted run.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..domain import PageClass, PageTranscript
from ..iiif import (
    FetchError,
    IiifEndpoint,
    IntegrityStatus,
    IsolationViolation,
    Transport,
    TransportFailure,
    check_integrity,
    fetch_image,
)
from ..ingest import ImageRef, Registry, registry_ndjson
from ..label_codec import decode_lenient
from .manifests import (
    FailureInfo,
    TaskManifest,
    TaskState,
    advance,
    atomic_write_bytes,
    task_id_for,
)
from .workers import WorkerSet

if TYPE_CHECKING:
    from .runner import Workspace

logger = logging.getLogger(__name__)


class EmptySelection(ValueError):
    pass


class LocalExecutor:
    """In-process pool of ``workers`` threads, the package's only kind: its
    owner opens one per command and closes it (``with``) on every exit."""

    #: Always true, and nothing in ``censusflow`` reads it: ``bench/``'s
    #: traced scheduler copies it, so it stays until the benchmark stops.
    isolated_compute = True

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def run(self, stage: str, items: Sequence, fn: Callable) -> list:
        """Apply ``fn`` to every item; results come back in item order."""
        futures = [self._pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "LocalExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _fail(manifest: TaskManifest, ws: Workspace, stage: str, reason: str,
          attempts: Optional[dict[str, int]] = None) -> None:
    """Advance a task to FAILED at ``stage``, recording ``attempts`` if
    given, and log one warning naming the stage and the task."""
    advance(manifest, TaskState.FAILED, ws, attempts=attempts,
            failure=FailureInfo(stage, reason))
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


def plan_batch(registry: Registry, ws: Workspace, **selection) -> list[TaskManifest]:
    """Create PENDING manifests for the images ``select_images(registry,
    **selection)`` picks, in its order.

    Replanning is idempotent: existing manifests are returned in whatever
    state they are. Every manifest takes its image from ``registry`` (the
    same task id means the same register and sequence index). The known
    tasks are ``ws.tasks``, the log's fold from the workspace checkpoint.
    Before the first new task is logged, the whole registers of the
    selected images go to ``ws.registry``, replacing the entries with
    their ids; with no new task it is written only if missing, and not
    read here. The entries follow ``registry``'s order, and those it does
    not name follow them in the order the file kept them, so ``export``
    writes registers in the order a run of ``registry`` does.

    Raises:
        EmptySelection: if the filter matches no image.
    """
    selected = select_images(registry, **selection)
    known = ws.tasks
    manifests, new = [], []
    for image in selected:
        task_id = task_id_for(image)
        manifest = known.get(task_id)
        if manifest is None:
            manifest = known[task_id] = TaskManifest(task_id, image)
            new.append(manifest)
        else:
            manifest.image = image
        manifests.append(manifest)
    path = ws.registry_file
    if new or not path.exists():
        ids = {image.register.register_id for image in selected}
        by_id = {r.metadata.register_id: r for r in ws.registry.registers}
        by_id.update((r.metadata.register_id, r) for r in registry.registers
                     if r.metadata.register_id in ids)
        order = dict.fromkeys(r.metadata.register_id for r in registry.registers
                              if r.metadata.register_id in by_id)
        order.update(dict.fromkeys(by_id))  # then the kept entries it does not name
        ws.registry = Registry(tuple(by_id[key] for key in order))
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, registry_ndjson(ws.registry).encode("utf-8"))
    for manifest in new:  # the creation record, stamped as ``advance`` stamps
        at = ws.log.latest = max(ws.clock(), ws.log.latest)
        ws.log.append({"task_id": manifest.task_id, "from": None, "to": "PENDING", "at": at})
    return manifests


# ---------------------------------------------------------------------------
# Pre-stage: download into staging
# ---------------------------------------------------------------------------


# The states of a task whose staged image the process stage may still read.
_STAGED_STATES = (TaskState.STAGED, TaskState.PROCESSING, TaskState.PROCESSED)


def run_stage_prestage(
    tasks: Sequence[TaskManifest],
    ws: Workspace,
    *,
    endpoint: IiifEndpoint,
    transport: Transport,
    executor: LocalExecutor,
) -> None:
    """Check each PENDING task's image (``check_integrity``) and fetch its
    bytes to ``ws.staged_file(task_id)``, on ``executor``.

    Tasks move to STAGED on success or FAILED(prestage) otherwise. A task
    past staging whose result ``ws.store`` does not hold and whose
    staged image is gone is fetched again, with no transition unless it
    fails: integrate deletes each image once its result is stored, so a lost
    store tail or log tail can leave a task that must be processed again
    without its image. Tasks in any other state are untouched.
    """
    todo = [m for m in tasks if m.state is TaskState.PENDING or (
        m.state in _STAGED_STATES and m.task_id not in ws.store
        and not ws.staged_file(m.task_id).exists())]

    def work(manifest: TaskManifest):
        result = check_integrity(endpoint, manifest.image, transport)
        if result.status is not IntegrityStatus.OK:
            return manifest, f"{result.status.value.lower()}: {result.detail}".rstrip(": ")
        try:
            payload = fetch_image(endpoint, manifest.image.iiif_identifier, transport)
        except (FetchError, TransportFailure) as exc:
            return manifest, f"fetch failed: {exc}"
        atomic_write_bytes(ws.staged_file(manifest.task_id), payload)
        return manifest, ""

    if not todo:
        return
    ws.staging_dir.mkdir(parents=True, exist_ok=True)
    for manifest, reason in executor.run("prestage", todo, work):
        if reason:
            _fail(manifest, ws, "prestage", reason, attempts={"prestage": 1})
        elif manifest.state is TaskState.PENDING:
            advance(manifest, TaskState.STAGED, ws)


# ---------------------------------------------------------------------------
# Process stage: classify + recognize on isolated compute
# ---------------------------------------------------------------------------


def build_payload(
    manifest: TaskManifest, page_class: PageClass, label: Optional[str], versions: dict[str, str]
) -> dict:
    """A page's result payload: the keys that name its task and image, its
    class, the recognizer's label as it returned it (``transcript``, None
    on a non-LIST page) and the worker versions."""
    image = manifest.image
    return {"task_id": manifest.task_id, "register_id": image.register.register_id,
            "page_id": image.iiif_identifier, "sequence_index": image.sequence_index,
            "page_class": page_class.name, "transcript": label, "worker": versions}


def validate_payload(payload: dict) -> list[str]:
    """Schema violations of a result payload; empty list means valid. The
    process stage checks each payload before it stores it, and
    ``ResultStore.payloads`` each record it reads back.

    Total over any JSON object: every value of the wrong type is reported
    as a violation, never raised. ``transcript`` is a label string exactly
    on LIST pages. The label itself is not checked: any string decodes
    (``label_codec.decode_lenient``), into records that pass
    ``validate_record``.
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
    elif is_list and not isinstance(transcript, str):
        problems.append("transcript is not a string")
    if not is_list and transcript is not None:
        problems.append(f"transcript present on {page_class} page")
    return problems


def payload_transcript(payload: dict) -> Optional[PageTranscript]:
    """The PageTranscript of a result payload's label, decoded leniently;
    None on a page without one."""
    label = payload.get("transcript")
    if label is None:
        return None
    return decode_lenient(label, page_id=payload["page_id"],
                          page_index=payload["sequence_index"]).transcript


def run_stage_process(
    tasks: Sequence[TaskManifest],
    ws: Workspace,
    *,
    workers: WorkerSet,
    scheduler: LocalExecutor,
    retry_limit: int = 3,
) -> None:
    """Classify STAGED pages and recognize list pages on ``scheduler``, and
    append each page's result to the workspace's store (``ws.store``).

    Each worker builds its page's payload, checks it (``validate_payload``)
    and returns only its JSON line, encoded in UTF-8. The calling thread
    appends the window's lines to the store in task order, and only then
    logs each task PROCESSED or FAILED, so a kill while it logs leaves the
    whole window stored. A list page's payload holds the recognizer's label as it
    returned it, undecoded (export decodes it); non-list pages skip the
    recognizer and yield a payload without a transcript. Worker crashes
    retry up to ``retry_limit`` times before the task fails; a missing
    staged file, a network call from worker code (IsolationViolation) or a
    payload that breaks the schema or does not encode (``schema:``) fails
    it at once.

    The store is the witness of a result. A PROCESSING task already stored
    becomes PROCESSED with no worker call; a PROCESSED task missing from the
    store (a lost store tail) is processed again, with no transition logged
    back.
    """
    store = ws.store
    todo = [m for m in tasks if m.state in (TaskState.STAGED, TaskState.PROCESSING) or (
        m.state is TaskState.PROCESSED and m.task_id not in store)]
    if not todo:
        return

    for manifest in todo:
        if manifest.state is TaskState.STAGED:
            advance(manifest, TaskState.PROCESSING, ws)

    def work(manifest: TaskManifest):
        try:
            image_bytes = ws.staged_file(manifest.task_id).read_bytes()
        except FileNotFoundError:
            return manifest, "missing_input", 1, None
        attempts = 0
        while True:
            attempts += 1
            try:
                page_class = workers.classify(image_bytes)
                label = workers.recognize(image_bytes) if page_class is PageClass.LIST else None
                break
            except IsolationViolation as exc:
                return manifest, f"isolation: {exc}", attempts, None
            except Exception as exc:  # worker crash: retryable
                if attempts >= retry_limit:
                    return manifest, f"worker_error: {exc}", attempts, None
        payload = build_payload(manifest, page_class, label, workers.versions)
        problems = validate_payload(payload)
        if problems:
            return manifest, "schema: " + "; ".join(problems[:3]), attempts, None
        text = json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
        try:
            return manifest, "", attempts, text.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which json.loads can return
            return manifest, "schema: payload is not valid UTF-8", attempts, None

    run = [m for m in todo if m.task_id not in store]
    outcomes = {}
    for manifest, reason, attempts, line in scheduler.run("process", run, work):
        if line is not None:
            store.add(manifest.task_id, line)
        outcomes[manifest.task_id] = reason, attempts
    for manifest in todo:
        reason, attempts = outcomes.get(manifest.task_id, ("", None))
        counts = None if attempts is None else {"process": attempts}
        if reason:
            _fail(manifest, ws, "process", reason, attempts=counts)
        elif manifest.state is TaskState.PROCESSING:
            advance(manifest, TaskState.PROCESSED, ws, attempts=counts)


# ---------------------------------------------------------------------------
# Integrate stage: mark stored results integrated
# ---------------------------------------------------------------------------


def run_stage_integrate(tasks: Sequence[TaskManifest], ws: Workspace) -> None:
    """Move each PROCESSED task whose result ``ws.store`` holds to
    INTEGRATED, deleting its staged image first: nothing reads it again.

    The process stage stored the result; a PROCESSED task missing from the
    store is left for it to process again. A kill between the delete and
    the transition leaves a stored task without an image, which needs none.
    """
    for manifest in tasks:
        if manifest.state is TaskState.PROCESSED and manifest.task_id in ws.store:
            ws.staged_file(manifest.task_id).unlink(missing_ok=True)
            advance(manifest, TaskState.INTEGRATED, ws)
