"""Task manifests: the unit of pipeline state and crash recovery.

A manifest records one image's journey through the stages. All task state
lives in one append-only NDJSON log, ``<workspace>/tasks.ndjson``. Every
record is one transition (``task_id``, ``from``, ``to``, ``at``), ``from``
being None in a task's first; a later one adds only the ``attempts`` or
``failure`` it sets. The log keeps nothing the task id or the registry
fixes: a task's files follow from its id, its image from the workspace
registry (``PipelineContext``). The state of every task is the fold of its
records. A kill in the middle of an append leaves a torn last line; readers
skip it and the next writer cuts it off. A workspace checkpoint
(``read_checkpoint``) holds the fold up to a byte length of the log, so a
reader folds only the records after it. The allowed state graph is

    PENDING -> STAGED -> PROCESSING -> PROCESSED -> INTEGRATED

with FAILED reachable from any active state.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from ..ingest import ImageRef


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


def parse_task_id(task_id: str) -> tuple[str, int]:
    """``(register_id, sequence_index)`` of a ``task_id_for`` id.

    Raises:
        ValueError: if ``task_id`` does not have ``task_id_for``'s form.
    """
    register_id, _, sequence = task_id.rpartition("-p")
    sequence_index = int(sequence)
    if task_id != f"{register_id}-p{sequence_index:04d}":
        raise ValueError(f"not a task id: {task_id!r}")
    return register_id, sequence_index


@dataclass
class TaskManifest:
    """One task's fold. ``image`` is None in a manifest folded from the log,
    which holds no images; ``plan_batch`` sets it from the registry."""

    task_id: str
    image: Optional[ImageRef]
    state: TaskState = TaskState.PENDING
    timestamps: dict[str, float] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    failure: Optional[FailureInfo] = None


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through the temporary ``.{name}.tmp``.

    The temporary's name is fixed, so a writer killed before the replace
    leaves one file, which the next write of ``path`` takes over: with one
    writer per workspace and one thread per task, an existing temporary is
    a killed writer's. The fixed name is safe only with one writer per
    workspace, which ``writer_lock`` enforces: two writers would share the
    temporary, and one's replace could move the other's file away.
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


# A workspace's writer lock (see ``writer_lock``).
WRITER_LOCK_NAME = ".writer.lock"


class WorkspaceBusy(RuntimeError):
    """Another process holds a workspace's writer lock."""


@contextmanager
def writer_lock(workspace: Path) -> Iterator[None]:
    """Hold the exclusive lock of the one writer of ``workspace`` for the
    block, creating the workspace if it is missing.

    The lock is an ``fcntl.flock`` on ``<workspace>/.writer.lock``, taken
    without waiting; the holder writes its pid and host into the file. The
    kernel drops the lock when its holder exits or is killed, so a file left
    behind never blocks a later writer. Readers take no lock.

    Raises:
        WorkspaceBusy: if another writer holds the lock; the message names
            it as the file does.
    """
    workspace.mkdir(parents=True, exist_ok=True)
    fd = os.open(workspace / WRITER_LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.pread(fd, 512, 0).decode("utf-8", "replace").strip() or "unknown"
            raise WorkspaceBusy(f"workspace {workspace} has another writer: {holder}") from None
        os.ftruncate(fd, 0)
        os.pwrite(fd, f"pid {os.getpid()} on {os.uname().nodename}\n".encode(), 0)
        yield
    finally:
        os.close(fd)


def read_lines(path: Path, start: int = 0) -> Iterator[tuple[int, bytes]]:
    """Yield ``(offset, line)`` for each whole, non-blank line of an
    append-only NDJSON file from byte ``start`` on, if it exists.

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
        offset = fh.seek(start)
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
        # Decoding first spares json.loads its encoding detection on bytes.
        record = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise CorruptLine(path, offset, str(exc), register_id) from None
    if not isinstance(record, dict):
        raise CorruptLine(path, offset, f"a JSON {type(record).__name__}", register_id)
    return record


def read_ndjson(path: Path, start: int = 0) -> Iterator[dict]:
    """Yield the whole records of an append-only NDJSON file from byte
    ``start`` on (see ``read_lines``).

    Raises:
        CorruptLine: at the first whole line that is not a JSON object.
    """
    for offset, line in read_lines(path, start):
        yield parse_line(line, path, offset)


def _whole_end(fh, chunk: int = 1 << 16) -> tuple[int, int]:
    """``(end of the last whole line, size)`` of an open binary file."""
    size = end = fh.seek(0, os.SEEK_END)
    while end > 0:
        start = max(0, end - chunk)
        fh.seek(start)
        newline = fh.read(end - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1, size
        end = start
    return 0, size


def cut_torn_tail(path: Path) -> None:
    """Cut any bytes after the last newline of an append-only NDJSON file.

    A writer calls this before its first append, so the next record starts
    on a clean line instead of continuing a torn one.
    """
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return
    with fh:
        end, size = _whole_end(fh)
        if end < size:
            fh.truncate(end)


class FilePrefix:
    """A running SHA-256 of the first ``length`` bytes of an append-only
    file: the part of it that a checkpoint covers. The file is read 1 MiB
    at a time, never whole."""

    CHUNK = 1 << 20

    def __init__(self, path: Path):
        self.path = path
        self._reset()

    def _reset(self) -> None:
        self.length = 0
        self._sha = hashlib.sha256()

    def _hash(self, fh, end: int) -> bool:
        fh.seek(self.length)
        while self.length < end:
            data = fh.read(min(self.CHUNK, end - self.length))
            if not data:
                return False
            self._sha.update(data)
            self.length += len(data)
        return True

    def verify(self, length, digest) -> bool:
        """Whether the file's first ``length`` bytes have the SHA-256
        ``digest``; if they have not, the prefix is empty again."""
        if type(length) is int and length >= 0 and isinstance(digest, str):
            try:
                with open(self.path, "rb") as fh:
                    if self._hash(fh, length) and self._sha.hexdigest() == digest:
                        return True
            except FileNotFoundError:
                pass
        self._reset()
        return False

    def extend(self) -> tuple[int, str]:
        """Hash on to the end of the file's last whole line: ``(length,
        hex digest)`` of the new prefix."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            self._reset()
            return self.length, self._sha.hexdigest()
        with fh:
            end, _ = _whole_end(fh)
            if end < self.length:  # cut below the prefix: hash it again
                self._reset()
            self._hash(fh, end)
        return self.length, self._sha.hexdigest()


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
    Readers (``replay``, ``load_all``, ``fold``) never write, and opening a
    log creates nothing: the first append creates the workspace. ``file`` is
    the writer's handle; ``run_batch`` holds it open for the whole run.

    ``fold`` loads ``tasks``, every task's manifest by task id, and
    ``prefix``, the part of the log they fold. The stages keep ``tasks``
    current as they append (``advance`` changes its manifests in place),
    so ``section`` can write the fold to a checkpoint without reading the
    log again.
    """

    def __init__(self, root: str | Path):
        self.path = Path(root) / "tasks.ndjson"
        self.file = AppendFile(self.path)
        self.tasks: Optional[dict[str, TaskManifest]] = None
        self.prefix = FilePrefix(self.path)

    def append(self, record: dict) -> None:
        """Append one record; it is on disk (not yet fsynced) on return."""
        line = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        self.file.append(line.encode("utf-8"))

    def replay(self) -> Iterator[dict]:
        """Every record in append order; each has ``task_id``, ``from``
        (None for the creation record), ``to`` and ``at``."""
        return read_ndjson(self.path)

    def load_all(self) -> list[TaskManifest]:
        """The current manifest of every task in the log, by task id: the
        full replay, which reads every record.

        The fold reads only ``attempts`` and ``failure`` besides the
        transition, and ignores any other key, such as the paths and images
        that logs of earlier versions recorded.
        """
        tasks: dict[str, TaskManifest] = {}
        _fold(tasks, self.replay())
        return sorted(tasks.values(), key=lambda m: m.task_id)

    def fold(self, section: Optional[dict] = None) -> dict[str, TaskManifest]:
        """Load and return ``tasks``, from a checkpoint's log ``section``
        and the records after it when the log still begins with the bytes
        the section folds (``FilePrefix.verify``).

        A manifest from the section has only its latest timestamp. A
        missing, malformed or stale section, or a record after it for a
        task that is already terminal, means the full replay (``load_all``)
        instead.
        """
        self.prefix = FilePrefix(self.path)
        if section is not None and self.prefix.verify(section.get("length"), section.get("sha256")):
            try:
                tasks = _manifests_from(section["tasks"])
            except (AttributeError, KeyError, TypeError, ValueError):
                tasks = None
            if tasks is not None and _fold(tasks, read_ndjson(self.path, self.prefix.length), True):
                self.tasks = tasks
                return tasks
            self.prefix = FilePrefix(self.path)
        self.tasks = {}
        _fold(self.tasks, self.replay())
        return self.tasks

    def section(self) -> dict:
        """The checkpoint section of the fold: the log's length and SHA-256
        up to its last whole line, and every task's latest timestamp, in
        groups of tasks with the same state, attempts and failure. Every
        record must be flushed."""
        length, digest = self.prefix.extend()
        groups: dict[tuple, list] = {}
        for task_id, m in self.tasks.items():
            key = m.state, repr(m.attempts), m.failure
            group = groups.get(key)
            if group is None:
                failure = None if m.failure is None else [
                    m.failure.stage, m.failure.reason, m.failure.attempt]
                group = groups[key] = [m.state.value, m.attempts, failure, {}]
            group[3][task_id] = max(m.timestamps.values())
        return {"length": length, "sha256": digest, "tasks": list(groups.values())}


def _manifests_from(groups: list) -> dict[str, TaskManifest]:
    """The manifests of a checkpoint's log section (``TransitionLog.section``).
    A group's manifests share its ``attempts``, which a transition replaces
    (``advance``, ``_fold``) and never changes in place."""
    manifests = {}
    for state, attempts, failure, tasks in groups:
        if not (isinstance(attempts, dict) and isinstance(tasks, dict)):
            raise TypeError("not a task group")
        name, state = state, TaskState(state)
        failure = None if failure is None else FailureInfo(*failure)
        for task_id, at in tasks.items():
            manifests[task_id] = TaskManifest(task_id, None, state, {name: at}, attempts,
                                              failure)
    return manifests


def _fold(tasks: dict[str, TaskManifest], records: Iterable[dict], tail: bool = False) -> bool:
    """Fold ``records`` into ``tasks``. In a ``tail`` the fold stops and
    returns False at a record for a task that is already terminal."""
    for record in records:
        task_id = record["task_id"]
        manifest = tasks.get(task_id)
        if manifest is None:
            manifest = tasks[task_id] = TaskManifest(task_id, None)
        elif tail and manifest.state in TERMINAL_STATES:
            return False
        manifest.state = TaskState(record["to"])
        manifest.timestamps[record["to"]] = record["at"]
        if record.get("attempts") is not None:
            manifest.attempts = record["attempts"]
        failure = record.get("failure")
        if failure is not None:
            manifest.failure = FailureInfo(
                failure["stage"], failure["reason"], failure.get("attempt", 1)
            )
    return True


#: The log is the only manifest store. ``bench/`` still imports the log by
#: this name, so it stays until the benchmark says ``TransitionLog``.
ManifestStore = TransitionLog


@dataclass
class PipelineContext:
    """Shared plumbing handed to every stage, and the workspace layout.

    The workspace is the log's directory. ``plan_batch`` keeps the registers
    of its tasks in ``registry.ndjson`` there. The pre-stage writes a task's
    image to ``staging/<task_id>.jpg``, and integrate deletes it. The path
    follows from the task id alone, so the log does not record it, and a
    workspace may be moved or used from any working directory between
    stages. The process stage appends each result to the result store
    (``runner.ResultStore``), its only copy; no stage writes a file per
    result.

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

    def staged_file(self, task_id: str) -> Path:
        return self.staging_dir / f"{task_id}.jpg"

    @property
    def registry_file(self) -> Path:
        return self.log.path.parent / "registry.ndjson"

    @property
    def checkpoint_file(self) -> Path:
        return self.log.path.parent / CHECKPOINT_NAME


# The workspace checkpoint (see ``read_checkpoint``) and its format version.
CHECKPOINT_NAME = "checkpoint.json"
CHECKPOINT_VERSION = 1


def read_checkpoint(path: Path) -> dict[str, dict]:
    """The sections of a workspace checkpoint, by name: ``log`` (the task
    log's fold, ``TransitionLog.section``) and ``store`` (the result
    store's index and the digests of its registers' lines,
    ``runner.ResultStore.section``).

    Each section is derived from the head of its file up to a byte length,
    and is used only while that head has the SHA-256 the section records;
    the file's later bytes, its tail, are read as usual. The checkpoint is
    a cache: a missing or unreadable file, or another format version, gives
    no sections, and the readers then read their files whole.
    """
    try:
        data = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return {}
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        return {}
    return {name: section for name, section in data.items() if isinstance(section, dict)}


def write_checkpoint(path: Path, sections: dict[str, dict]) -> int:
    """Replace the checkpoint at ``path`` with ``sections``
    (``atomic_write_bytes``); returns its size in bytes. Every record the
    sections cover must be flushed first."""
    data = json.dumps({"version": CHECKPOINT_VERSION, **sections}, separators=(",", ":"))
    data = data.encode("ascii")
    atomic_write_bytes(path, data)
    return len(data)


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

