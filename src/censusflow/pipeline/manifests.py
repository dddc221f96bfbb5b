"""Task manifests: the unit of pipeline state and crash recovery.

A manifest records one image's journey through the stages. All task state
lives in one append-only NDJSON log, ``<workspace>/tasks.ndjson``. Every
record is one transition (``task_id``, ``from``, ``to``, ``at``): a task's
first record, from None to PENDING, adds its ``image``, and a later one adds
only the ``attempts`` or ``failure`` it sets. The log keeps nothing the task
id or the registry fixes: a task's files in the workspace follow from its id
(``PipelineContext``). The state of every task is the fold of its records. A
kill in the middle of an append leaves a torn last line; readers skip it and
the next writer cuts it off. The allowed state graph is

    PENDING -> STAGED -> PROCESSING -> PROCESSED -> INTEGRATED

with FAILED reachable from any active state.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Optional

from ..ingest import GazetteerEntry, ImageRef, RegisterMetadata


class TaskState(Enum):
    PENDING = "PENDING"
    STAGED = "STAGED"
    PROCESSING = "PROCESSING"
    PROCESSED = "PROCESSED"
    INTEGRATED = "INTEGRATED"
    FAILED = "FAILED"


ALLOWED_TRANSITIONS: dict[TaskState, frozenset[TaskState]] = {
    TaskState.PENDING: frozenset({TaskState.STAGED, TaskState.FAILED}),
    TaskState.STAGED: frozenset({TaskState.PROCESSING, TaskState.FAILED}),
    TaskState.PROCESSING: frozenset({TaskState.PROCESSED, TaskState.FAILED}),
    TaskState.PROCESSED: frozenset({TaskState.INTEGRATED, TaskState.FAILED}),
    TaskState.INTEGRATED: frozenset(),
    TaskState.FAILED: frozenset(),
}

TERMINAL_STATES = frozenset({TaskState.INTEGRATED, TaskState.FAILED})


class IllegalTransition(RuntimeError):
    def __init__(self, task_id: str, src: TaskState, dst: TaskState):
        super().__init__(f"task {task_id}: illegal transition {src.value} -> {dst.value}")
        self.task_id = task_id
        self.src = src
        self.dst = dst


@dataclass(frozen=True)
class FailureInfo:
    stage: str
    reason: str
    attempt: int = 1


def task_id_for(image: ImageRef) -> str:
    """Deterministic, filesystem-safe task id for an image."""
    return f"{image.register.register_id}-p{image.sequence_index:04d}"


@dataclass
class TaskManifest:
    task_id: str
    image: ImageRef
    state: TaskState = TaskState.PENDING
    timestamps: dict[str, float] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    failure: Optional[FailureInfo] = None


def _image_from_json(data: dict) -> ImageRef:
    """The image of a creation record (see ``_image_json``)."""
    register, commune = data["register"], data["register"]["commune"]
    commune = GazetteerEntry(commune["code"], commune["canonical_name"], commune["department"])
    metadata = RegisterMetadata(register["census_year"], commune, register["archival_id"])
    return ImageRef(metadata, data["identifier"], data["sequence_index"])


def _image_json(image: ImageRef) -> dict:
    register = image.register
    return {
        "identifier": image.iiif_identifier,
        "sequence_index": image.sequence_index,
        "register": {
            "census_year": register.census_year,
            "archival_id": register.archival_id,
            "commune": {
                "code": register.commune.code,
                "canonical_name": register.commune.canonical_name,
                "department": register.commune.department,
            },
        },
    }


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through the temporary ``.{name}.tmp``.

    The temporary's name is fixed, so a writer killed before the replace
    leaves one file, which the next write of ``path`` takes over: with one
    writer per workspace and one thread per task, an existing temporary is
    a killed writer's.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        fh = open(tmp, "xb")
    except FileExistsError:
        tmp.unlink()
        fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path: Path) -> Iterator[tuple[int, bytes]]:
    """Yield ``(offset, line)`` for each whole, non-blank line of an
    append-only NDJSON file, if it exists.

    A kill in the middle of an append leaves a last line without its
    newline; it is skipped, as the LevelDB and SQLite write-ahead logs drop
    a torn tail. Reading never writes: the writer cuts the tail (see
    ``cut_torn_tail``), so a reader may run next to a writer.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        offset = 0
        for line in fh:
            if not line.endswith(b"\n"):
                return
            if line.strip():
                yield offset, line
            offset += len(line)


class CorruptLine(ValueError):
    """A whole line of an NDJSON file that is not a JSON object."""

    def __init__(
        self, path: str | Path, offset: int, reason: str, register_id: Optional[str] = None
    ):
        where = "" if register_id is None else f" (register {register_id!r})"
        super().__init__(f"{path}: line at byte {offset}{where} is not a JSON object: {reason}")
        self.path = path
        self.offset = offset
        self.register_id = register_id


def parse_line(
    line: bytes, path: str | Path, offset: int, register_id: Optional[str] = None
) -> dict:
    """The JSON object on one line read at byte ``offset`` of ``path``.

    Raises:
        CorruptLine: if the line is not valid UTF-8 JSON or not an object;
            ``register_id`` names the register the caller expected there.
    """
    try:
        record = json.loads(line)
    except ValueError as exc:  # also UnicodeDecodeError
        raise CorruptLine(path, offset, str(exc), register_id) from None
    if not isinstance(record, dict):
        raise CorruptLine(path, offset, f"a JSON {type(record).__name__}", register_id)
    return record


def read_ndjson(path: Path) -> Iterator[dict]:
    """Yield the whole records of an append-only NDJSON file (see
    ``read_lines``).

    Raises:
        CorruptLine: at the first whole line that is not a JSON object.
    """
    for offset, line in read_lines(path):
        yield parse_line(line, path, offset)


def cut_torn_tail(path: Path, chunk: int = 1 << 16) -> None:
    """Cut any bytes after the last newline of an append-only NDJSON file.

    A writer calls this before its first append, so the next record starts
    on a clean line instead of continuing a torn one.
    """
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return
    with fh:
        size = end = fh.seek(0, os.SEEK_END)
        while end > 0:
            start = max(0, end - chunk)
            fh.seek(start)
            newline = fh.read(end - start).rfind(b"\n")
            if newline >= 0:
                end = start + newline + 1
                break
            end = start
        if end < size:
            fh.truncate(end)


class AppendFile:
    """A process's handles on an append-only NDJSON file: appends at its
    end and reads of whole lines at byte offsets.

    The first append cuts a torn tail (``cut_torn_tail``). Each append is
    written and flushed before it returns, so a reader, or a kill just
    after, sees the whole line. Reads use ``os.pread``, which shares no
    position or buffer with the appends, so a read sees every flushed
    append and never the stale bytes of a torn tail cut since. Inside
    ``with`` each handle is opened once, at its first use, and kept until
    the block exits; outside, each call opens and closes one.
    """

    def __init__(self, path: Path):
        self.path = path
        self._lock = threading.Lock()
        self._fh = None
        self._reader = None
        self._held = False
        self._tail_cut = False

    def __enter__(self) -> "AppendFile":
        self._held = True
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._held = False
            self._release()

    def _release(self) -> None:
        for handle in (self._fh, self._reader):
            if handle is not None:
                handle.close()
        self._fh = self._reader = None

    def append(self, data: bytes) -> int:
        """Append ``data``, whole lines; returns the offset it starts at.
        The first append creates the file's directory."""
        with self._lock:
            if self._fh is None:
                if not self._tail_cut:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    cut_torn_tail(self.path)
                    self._tail_cut = True
                self._fh = open(self.path, "ab")
            try:
                offset = self._fh.tell()
                self._fh.write(data)
                self._fh.flush()
            finally:
                if not self._held:
                    self._release()
            return offset

    def read(self, offset: int) -> bytes:
        """The line that starts at byte ``offset``, with its newline, or the
        rest of the file if no newline follows; read 16 KiB at a time."""
        with self._lock:
            if self._reader is None:
                self._reader = open(self.path, "rb", buffering=0)
            try:
                data = b""
                while b"\n" not in data:
                    more = os.pread(self._reader.fileno(), 1 << 14, offset + len(data))
                    if not more:
                        return data
                    data += more
                return data[: data.index(b"\n") + 1]
            finally:
                if not self._held:
                    self._release()


class TransitionLog:
    """The append-only task log: every task's state is the fold of its records.

    One process at a time may write to a workspace: its first append cuts a
    torn tail, which would cut a record another writer is still appending.
    Readers (``replay``, ``load_all``) never write, and opening a log creates
    nothing: the first append creates the workspace. ``file`` is the writer's
    handle; ``run_batch`` holds it open for the whole run.
    """

    def __init__(self, root: str | Path):
        self.path = Path(root) / "tasks.ndjson"
        self.file = AppendFile(self.path)

    def append(self, record: dict) -> None:
        """Append one record; it is on disk (not yet fsynced) on return."""
        line = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        self.file.append(line.encode("utf-8"))

    def replay(self) -> Iterator[dict]:
        """Every record in append order; each has ``task_id``, ``from``
        (None for the creation record), ``to`` and ``at``."""
        return read_ndjson(self.path)

    def load_all(self) -> list[TaskManifest]:
        """The current manifest of every task in the log, by task id.

        The fold reads only ``image`` from a task's first record and
        ``attempts`` and ``failure`` from later ones, and ignores any other
        key, such as the paths that logs of earlier versions recorded.
        """
        tasks: dict[str, TaskManifest] = {}
        for record in self.replay():
            task_id = record["task_id"]
            manifest = tasks.get(task_id)
            if manifest is None:
                manifest = tasks[task_id] = TaskManifest(task_id, _image_from_json(record["image"]))
            manifest.state = TaskState(record["to"])
            manifest.timestamps[record["to"]] = record["at"]
            if record.get("attempts") is not None:
                manifest.attempts = record["attempts"]
            failure = record.get("failure")
            if failure is not None:
                manifest.failure = FailureInfo(
                    failure["stage"], failure["reason"], failure.get("attempt", 1)
                )
        return sorted(tasks.values(), key=lambda m: m.task_id)


#: The log is the only manifest store. ``bench/`` still imports the log by
#: this name, so it stays until the benchmark says ``TransitionLog``.
ManifestStore = TransitionLog


@dataclass
class PipelineContext:
    """Shared plumbing handed to every stage, and the workspace layout.

    The workspace is the log's directory. The pre-stage writes a task's
    image to ``staging/<task_id>.jpg`` in it and the process stage its
    result to ``results/<task_id>.json``. Both paths follow from the task id
    alone, so the log does not record them, and a workspace may be moved or
    used from any working directory between stages.

    ``on_transition`` is a test hook invoked after each persisted transition;
    raising from it simulates a crash at that point.
    """

    log: TransitionLog
    clock: Callable[[], float] = time.time
    on_transition: Optional[Callable[[TaskManifest], None]] = None

    @classmethod
    def at(cls, root: str | Path, **kwargs) -> "PipelineContext":
        return cls(log=TransitionLog(root), **kwargs)

    @property
    def staging_dir(self) -> Path:
        return self.log.path.parent / "staging"

    @property
    def results_dir(self) -> Path:
        return self.log.path.parent / "results"

    def staged_file(self, task_id: str) -> Path:
        return self.staging_dir / f"{task_id}.jpg"

    def result_file(self, task_id: str) -> Path:
        return self.results_dir / f"{task_id}.json"


def advance(
    manifest: TaskManifest,
    new_state: TaskState,
    ctx: PipelineContext,
    *,
    attempts: Optional[dict[str, int]] = None,
    failure: Optional[FailureInfo] = None,
) -> TaskManifest:
    """Persist a state transition together with the fields it changes,
    enforcing the allowed graph and keeping timestamps monotone."""
    if new_state not in ALLOWED_TRANSITIONS[manifest.state]:
        raise IllegalTransition(manifest.task_id, manifest.state, new_state)
    at = ctx.clock()
    if manifest.timestamps:
        at = max(at, max(manifest.timestamps.values()))
    record = {"task_id": manifest.task_id, "from": manifest.state.value,
              "to": new_state.value, "at": at}
    if attempts is not None:
        manifest.attempts = record["attempts"] = attempts
    if failure is not None:
        manifest.failure = failure
        record["failure"] = asdict(failure)
    manifest.state = new_state
    manifest.timestamps[new_state.value] = at
    ctx.log.append(record)
    if ctx.on_transition is not None:
        ctx.on_transition(manifest)
    return manifest


def register_new(manifest: TaskManifest, ctx: PipelineContext) -> TaskManifest:
    """Persist a freshly planned manifest (creation edge, not a transition):
    the record holds its image, for export to rebuild the registry from."""
    at = manifest.timestamps.setdefault(TaskState.PENDING.value, ctx.clock())
    ctx.log.append({"task_id": manifest.task_id, "from": None, "to": manifest.state.value,
                    "at": at, "image": _image_json(manifest.image)})
    return manifest
