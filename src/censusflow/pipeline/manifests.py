"""Task manifests: the unit of pipeline state and crash recovery.

A manifest records one image's journey through the stages. All task state
lives in one append-only NDJSON log, ``<workspace>/tasks.ndjson``. Every
record is one transition (``task_id``, ``from``, ``to``, ``at``), ``from``
being None in a task's first; a later one adds only the ``attempts`` or
``failure`` it sets. The log keeps nothing the task id or the registry
fixes: a task's files follow from its id, its image from the workspace
registry (``runner.Workspace``). The state of every task is the fold of its
records, each stamped no earlier than the one before. A kill in the middle
of an append leaves a torn last line; readers skip it and the next writer
cuts it off. A workspace checkpoint (``read_checkpoint``) holds the fold up
to a byte length of the log, so a reader folds only the records after it,
if the state graph allows each. The allowed state graph is

    PENDING -> STAGED -> PROCESSING -> PROCESSED -> INTEGRATED

with FAILED reachable from any active state.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from ..domain import CorruptLine
from ..ingest import ImageRef

if TYPE_CHECKING:
    from .runner import Workspace


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

# Every state by its value, as the log and the checkpoint name it.
_STATES: dict[str, TaskState] = {state.value: state for state in TaskState}


class IllegalTransition(RuntimeError):
    def __init__(self, task_id: str, src: TaskState, dst: TaskState):
        super().__init__(f"task {task_id}: illegal transition {src.value} -> {dst.value}")
        self.task_id = task_id
        self.src = src
        self.dst = dst


@dataclass(frozen=True)
class FailureInfo:
    """Where a task failed and why; it tried ``attempts[stage]`` times."""

    stage: str
    reason: str


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


@dataclass(slots=True)
class TaskManifest:
    """One task's fold. ``image`` is None in a manifest folded from the log,
    which holds no images; ``plan_batch`` and ``Workspace.planned`` set it."""

    task_id: str
    image: Optional[ImageRef]
    state: TaskState = TaskState.PENDING
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
        raise CorruptLine(path, offset, f"is not a JSON object: {exc}", register_id) from None
    if not isinstance(record, dict):
        raise CorruptLine(path, offset, f"is not a JSON object: a JSON {type(record).__name__}",
                          register_id)
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
    file: the part of it that a checkpoint covers. The file is read 64 KiB
    at a time, never whole: the two chunks alive during a read are the
    hash's whole footprint."""

    CHUNK = 1 << 16

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
    the outermost block exits; outside, each call opens and closes one.
    """

    def __init__(self, path: Path):
        self.path = path
        self._lock = threading.Lock()
        self._fh = None
        self._reader = None
        self._held = 0
        self._tail_cut = False

    def __enter__(self) -> "AppendFile":
        with self._lock:
            self._held += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._held -= 1
            if not self._held:
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
    the writer's handle; a writer's ``runner.Workspace`` holds it open.

    ``fold`` loads ``tasks``, every task's manifest by task id, and
    ``prefix``, the part of the log they fold. The stages keep ``tasks``
    current as they append (``advance`` changes its manifests in place),
    so ``section`` can write the fold to a checkpoint without reading the
    log again. ``latest`` is the greatest ``at`` folded or appended.
    """

    def __init__(self, root: str | Path):
        self.path = Path(root) / "tasks.ndjson"
        self.file = AppendFile(self.path)
        self.tasks: Optional[dict[str, TaskManifest]] = None
        self.latest: float = 0.0
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
        full replay (``fold`` without a section)."""
        return sorted(self.fold().values(), key=lambda m: m.task_id)

    def fold(self, section: Optional[dict] = None) -> dict[str, TaskManifest]:
        """Load ``tasks`` and ``latest`` from a checkpoint's log ``section``
        and the tail after it (``_fold``), if the log still begins with the
        bytes the section folds (``FilePrefix.verify``); return ``tasks``. A
        missing, malformed or stale section, or a tail record the state
        graph forbids, means the full replay instead."""
        self.prefix = FilePrefix(self.path)
        if section is not None and self.prefix.verify(section.get("length"), section.get("sha256")):
            try:  # a CorruptLine in the tail recurs in the replay
                tasks, latest = _manifests_from(section)
                latest = _fold(tasks, self.path, self.prefix.length, latest, tail=True)
            except (KeyError, TypeError, ValueError):
                latest = None
            if latest is not None:
                self.tasks, self.latest = tasks, latest
                return tasks
            self.prefix = FilePrefix(self.path)
        self.tasks = {}
        self.latest = _fold(self.tasks, self.path)
        return self.tasks

    def section(self) -> dict:
        """The checkpoint section of the fold: the log's length and SHA-256
        up to its last whole line, ``latest``, and every task's id in groups
        of tasks with the same state, attempts and failure. Every record
        must be flushed."""
        length, digest = self.prefix.extend()
        groups: dict[tuple, list] = {}
        for task_id, m in self.tasks.items():
            key = m.state, repr(m.attempts), m.failure
            group = groups.get(key)
            if group is None:
                failure = None if m.failure is None else [m.failure.stage, m.failure.reason]
                group = groups[key] = [m.state.value, m.attempts, failure, []]
            group[3].append(task_id)
        return {"length": length, "sha256": digest, "latest": self.latest,
                "tasks": list(groups.values())}


def _is_time(value) -> bool:
    """Whether ``value`` is a finite JSON number (not a bool)."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _is_attempts(value) -> bool:
    """Whether ``value`` is an object of attempt counts."""
    return isinstance(value, dict) and all(type(n) is int for n in value.values())


def _manifests_from(section: dict) -> tuple[dict[str, TaskManifest], float]:
    """The manifests and ``latest`` of a checkpoint's log section
    (``TransitionLog.section``). A group's manifests share its ``attempts``,
    which a transition replaces (``advance``, ``_fold``) and never changes
    in place."""
    latest = section["latest"]
    if not _is_time(latest):
        raise TypeError("not a time")
    manifests = {}
    for state, attempts, failure, task_ids in section["tasks"]:
        if not (_is_attempts(attempts) and isinstance(task_ids, list)
                and all(isinstance(task_id, str) for task_id in task_ids)):
            raise TypeError("not a task group")
        state, failure = _STATES[state], None if failure is None else FailureInfo(*failure)
        for task_id in task_ids:
            manifests[task_id] = TaskManifest(task_id, None, state, attempts, failure)
    return manifests, latest


def _transition(record: dict, path: Path, offset: int) -> tuple:
    """``(task_id, from, to, at, attempts, failure)`` of the log record read
    at byte ``offset`` of ``path``, its states looked up in ``_STATES`` and
    its failure a ``FailureInfo``; a missing key reads as null. Other keys
    are ignored, such as the paths and images that logs of earlier versions
    recorded, or their failures' ``attempt``.

    Raises:
        CorruptLine: naming the first key that does not fit.
    """
    task_id, src, dst, at = (record.get(key) for key in ("task_id", "from", "to", "at"))
    attempts, failure = record.get("attempts"), record.get("failure")
    if not isinstance(task_id, str):
        problem = "task_id is not a string"
    elif not (isinstance(dst, str) and dst in _STATES):
        problem = f"to {dst!r} is not a state"
    elif not (src is None or isinstance(src, str) and src in _STATES):
        problem = f"from {src!r} is neither null nor a state"
    elif not _is_time(at):
        problem = f"at {at!r} is not a finite number"
    elif not (attempts is None or _is_attempts(attempts)):
        problem = "attempts is not an object of integers"
    elif not (failure is None or isinstance(failure, dict) and isinstance(failure.get("stage"), str)
              and isinstance(failure.get("reason"), str)):
        problem = "failure has no string stage and reason"
    else:
        return (task_id, None if src is None else _STATES[src], _STATES[dst], at, attempts,
                None if failure is None else FailureInfo(failure["stage"], failure["reason"]))
    raise CorruptLine(path, offset, f"is not a task transition: {problem}")


def _fold(tasks: dict[str, TaskManifest], path: Path, start: int = 0, latest: float = 0.0,
          tail: bool = False) -> Optional[float]:
    """Fold the log's records from byte ``start`` on into ``tasks``; returns
    the greatest ``at`` of theirs and ``latest``. In a checkpoint's ``tail``
    the state graph is the rule: a record whose ``from`` is not its task's
    state (None for a new task) or whose ``to`` the graph does not allow
    from there (PENDING from None) stops the fold, which returns None.

    Raises:
        CorruptLine: at the first line that is not a transition (``_transition``).
    """
    for offset, line in read_lines(path, start):
        task_id, src, dst, at, attempts, failure = _transition(
            parse_line(line, path, offset), path, offset)
        manifest = tasks.get(task_id)
        if tail and not (src is None and dst is TaskState.PENDING if manifest is None
                         else src is manifest.state and dst in ALLOWED_TRANSITIONS[src]):
            return None
        if manifest is None:
            manifest = tasks[task_id] = TaskManifest(task_id, None)
        manifest.state = dst
        if attempts is not None:
            manifest.attempts = attempts
        if failure is not None:
            manifest.failure = failure
        if at > latest:
            latest = at
    return latest


#: The log is the only manifest store. ``bench/`` still imports the log by
#: this name, so it stays until the benchmark says ``TransitionLog``.
ManifestStore = TransitionLog


# The other files of a workspace: the registry, the result store, the export
# memo (next to its store), the household export, and the checkpoint
# (``read_checkpoint``) with its format version.
REGISTRY_NAME = "registry.ndjson"
STORE_NAME = "results_store.ndjson"
MEMO_NAME = "households.parts.ndjson"
HOUSEHOLDS_NAME = "households.csv"
CHECKPOINT_NAME = "checkpoint.json"
CHECKPOINT_VERSION = 2


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
    ws: Workspace,
    *,
    attempts: Optional[dict[str, int]] = None,
    failure: Optional[FailureInfo] = None,
) -> TaskManifest:
    """Persist a state transition together with the fields it changes,
    enforcing the allowed graph and stamping it no earlier than the log's
    latest record."""
    if new_state not in ALLOWED_TRANSITIONS[manifest.state]:
        raise IllegalTransition(manifest.task_id, manifest.state, new_state)
    at = ws.log.latest = max(ws.clock(), ws.log.latest)
    record = {"task_id": manifest.task_id, "from": manifest.state.value,
              "to": new_state.value, "at": at}
    if attempts is not None:
        manifest.attempts = record["attempts"] = attempts
    if failure is not None:
        manifest.failure = failure
        record["failure"] = asdict(failure)
    manifest.state = new_state
    ws.log.append(record)
    if ws.on_transition is not None:
        ws.on_transition(manifest)
    return manifest

