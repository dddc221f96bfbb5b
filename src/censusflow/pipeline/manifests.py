"""Task manifests: the unit of pipeline state and crash recovery.

A manifest records one image's journey through the stages. All task state
lives in one append-only NDJSON log, ``<workspace>/tasks.ndjson``: a task's
first record holds its whole manifest, and each later record holds one
transition (``task_id``, ``from``, ``to``, ``at``) plus only the fields that
transition changed. The state of every task is the fold of its records. A
kill in the middle of an append leaves a torn last line; readers skip it and
the next writer cuts it off. The allowed state graph is

    PENDING -> STAGED -> PROCESSING -> PROCESSED -> INTEGRATED

with FAILED reachable from any active state.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
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
    staged_path: Optional[str] = None
    result_path: Optional[str] = None
    timestamps: dict[str, float] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    failure: Optional[FailureInfo] = None

    def to_json_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "state": self.state.value,
            "staged_path": self.staged_path,
            "result_path": self.result_path,
            "timestamps": self.timestamps,
            "attempts": self.attempts,
            "failure": None if self.failure is None else _failure_json(self.failure),
            "image": _image_json(self.image),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TaskManifest":
        reg = data["image"]["register"]
        metadata = RegisterMetadata(
            census_year=reg["census_year"],
            commune=GazetteerEntry(
                code=reg["commune"]["code"],
                canonical_name=reg["commune"]["canonical_name"],
                department=reg["commune"]["department"],
            ),
            archival_id=reg["archival_id"],
        )
        image = ImageRef(
            register=metadata,
            iiif_identifier=data["image"]["identifier"],
            sequence_index=data["image"]["sequence_index"],
            verified=data["image"].get("verified", False),
            width=data["image"].get("width"),
            height=data["image"].get("height"),
        )
        failure = data.get("failure")
        return cls(
            task_id=data["task_id"],
            image=image,
            state=TaskState(data["state"]),
            staged_path=data.get("staged_path"),
            result_path=data.get("result_path"),
            timestamps=dict(data.get("timestamps", {})),
            attempts=dict(data.get("attempts", {})),
            failure=None
            if failure is None
            else FailureInfo(failure["stage"], failure["reason"], failure.get("attempt", 1)),
        )


def _failure_json(failure: FailureInfo) -> dict:
    return {"stage": failure.stage, "reason": failure.reason, "attempt": failure.attempt}


def _image_json(image: ImageRef) -> dict:
    register = image.register
    return {
        "identifier": image.iiif_identifier,
        "sequence_index": image.sequence_index,
        "verified": image.verified,
        "width": image.width,
        "height": image.height,
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
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_ndjson(path: Path) -> Iterator[dict]:
    """Yield the whole records of an append-only NDJSON file, if it exists.

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
        for line in fh:
            if not line.endswith(b"\n"):
                return
            if line.strip():
                yield json.loads(line)


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


class TransitionLog:
    """The append-only task log: every task's state is the fold of its records.

    One process at a time may write to a workspace: its first append cuts a
    torn tail, which would cut a record another writer is still appending.
    Readers (``replay``, ``load_all``) never write.
    """

    def __init__(self, root: str | Path):
        self.path = Path(root) / "tasks.ndjson"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tail_cut = False

    def append(self, record: dict) -> None:
        """Append one record; it is on disk (not yet fsynced) on return."""
        if not self._tail_cut:
            cut_torn_tail(self.path)
            self._tail_cut = True
        line = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)

    def replay(self) -> Iterator[dict]:
        """Every record in append order; each has ``task_id``, ``from``
        (None for the creation record), ``to`` and ``at``."""
        return read_ndjson(self.path)

    def load_all(self) -> list[TaskManifest]:
        """The current manifest of every task in the log, by task id."""
        tasks: dict[str, dict] = {}
        for record in self.replay():
            data = tasks.setdefault(record["task_id"], {})
            data.update(record)
            data["state"] = record["to"]
            data["timestamps"][record["to"]] = record["at"]
        manifests = [TaskManifest.from_json_dict(data) for data in tasks.values()]
        manifests.sort(key=lambda m: m.task_id)
        return manifests


#: The log is the only manifest store; this name keeps the read API.
ManifestStore = TransitionLog


@dataclass
class PipelineContext:
    """Shared plumbing handed to every stage.

    ``on_transition`` is a test hook invoked after each persisted transition;
    raising from it simulates a crash at that point.
    """

    log: TransitionLog
    clock: Callable[[], float] = time.time
    on_transition: Optional[Callable[[TaskManifest], None]] = None

    @classmethod
    def at(cls, root: str | Path, **kwargs) -> "PipelineContext":
        return cls(log=TransitionLog(root), **kwargs)


def advance(
    manifest: TaskManifest,
    new_state: TaskState,
    ctx: PipelineContext,
    *,
    image: Optional[ImageRef] = None,
    staged_path: Optional[str] = None,
    result_path: Optional[str] = None,
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
    if image is not None:
        manifest.image = image
        record["image"] = _image_json(image)
    if staged_path is not None:
        manifest.staged_path = record["staged_path"] = staged_path
    if result_path is not None:
        manifest.result_path = record["result_path"] = result_path
    if attempts is not None:
        manifest.attempts = record["attempts"] = attempts
    if failure is not None:
        manifest.failure = failure
        record["failure"] = _failure_json(failure)
    manifest.state = new_state
    manifest.timestamps[new_state.value] = at
    ctx.log.append(record)
    if ctx.on_transition is not None:
        ctx.on_transition(manifest)
    return manifest


def register_new(manifest: TaskManifest, ctx: PipelineContext) -> TaskManifest:
    """Persist a freshly planned manifest (creation edge, not a transition)."""
    at = manifest.timestamps.setdefault(TaskState.PENDING.value, ctx.clock())
    ctx.log.append({**manifest.to_json_dict(), "from": None, "to": manifest.state.value, "at": at})
    return manifest
