"""Batch orchestration: drive the three stages to termination and export.

``run_batch`` makes one pass over bounded windows of the workspace's
planned tasks not yet terminal, running pre-stage, process and integrate
on each window; after its window's pass every task is INTEGRATED or
FAILED. A run may name fewer stages, so the connected and isolated
stages can run as separate jobs, each windowed the same way; only a run
with the integrate stage exports. The process stage appends each result to
the result store, its only copy, before it logs the task PROCESSED. Because
all stage steps are idempotent, all task state lives in the workspace's
append-only task log and every result in its append-only store,
interrupting the pass at any point, even in the middle of an append, and
calling ``run_batch`` again yields the same terminal result set.

Export works one register at a time, in the order of the workspace
registry, for ``run`` and ``censusflow export`` alike (``Workspace.export``).
The store keeps each page's label as the recognizer returned it; export
reads a register's records through the store's index (``ResultStore``),
checks them (``validate_payload``), decodes their labels and folds them
straight into CSV rows. The fold runs once per register, when the window
that completes it has been integrated, and its text goes to a memo
(``ExportMemo``); export copies each memoised text that still holds, folds
the rest, and replaces ``households.csv`` atomically once every row is
written. So a resume folds only the registers it completes, and memory
holds the largest register's payloads plus small indexes.

``Workspace`` is the one handle on a workspace: every command opens it,
``run_batch`` included, and the stages take it alone. It opens the lock,
the checkpoint, the log's fold, the store and the memo, each once; it
closes their handles (``AppendFile``) and writes the next checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Optional

from ..domain import NAME_FOR_TAG, EntityTag
from ..household import EXPORT_COLUMNS, csv_text, write_export
from ..iiif import IiifEndpoint, Transport
from ..ingest import Registry, parse_register
from ..label_codec import DECODER_VERSION, decode_fields
from .manifests import (
    CHECKPOINT_NAME,
    HOUSEHOLDS_NAME,
    MEMO_NAME,
    REGISTRY_NAME,
    STORE_NAME,
    TERMINAL_STATES,
    AppendFile,
    CorruptLine,
    FilePrefix,
    TaskManifest,
    TaskState,
    TransitionLog,
    parse_line,
    parse_task_id,
    read_checkpoint,
    read_lines,
    read_ndjson,
    task_id_for,
    write_checkpoint,
    writer_lock,
)
from .stages import (
    EmptySelection,
    LocalExecutor,
    plan_batch,
    run_stage_integrate,
    run_stage_prestage,
    run_stage_process,
    validate_payload,
)
from .workers import WorkerSet


# Why a record whose transcript is a JSON object is refused: a page as
# earlier versions stored it, decoded into records. This version stores the
# recognizer's label and reads no other format.
_OLD_FORMAT = ("holds a transcript object, the result store format of an earlier censusflow; "
               "this one reads only label strings. Run the registry again into a new "
               "workspace, or export this one with the version that wrote it")


class ResultStore:
    """Append-only NDJSON store keyed by task id; duplicate adds are no-ops.

    A torn last line is skipped on read and cut before the first add, as
    in the task log. Opening a store parses each record it reads; a whole
    line that is not a JSON object, or whose ``register_id`` or
    ``sequence_index`` is an array or an object, stops the open
    (``CorruptLine``). The rest of the schema is checked when a register's
    records are read (``payloads``).

    ``pages`` maps ``register_id -> {sequence_index: byte offset}`` of the
    line that holds each page's record, a later line winning over an
    earlier one for the same page. It covers every record on disk when the
    store opened plus this instance's own adds, which is what export reads.
    A task id names one page (``parse_task_id``), so ``pages`` also answers
    ``in`` and ``len``, and ``add`` indexes its line by its task id.
    ``file`` holds its handles; a ``Workspace`` holds them open.

    ``digests`` maps ``register_id -> (last offset, digest)``: the offset of
    the register's last line and the digest of its lines (``digest``) when
    the digest was taken.

    Given a checkpoint's store section (see ``section``) whose bytes the
    store still begins with, the index starts from it and only the records
    after them are read; ``verified`` is then the section's length, else 0.
    The section's digests are taken as they are for registers whose last
    line lies below ``verified``; a malformed digest map only drops them.
    """

    def __init__(self, path: str | Path, section: Optional[dict] = None):
        self.path = Path(path)
        self._lock = threading.Lock()
        self.pages: dict[str, dict[int, int]] = {}
        self.digests: dict[str, tuple[int, str]] = {}
        self.prefix = FilePrefix(self.path)
        if section is not None and self.prefix.verify(section.get("length"), section.get("sha256")):
            try:
                self.pages = {register_id: dict(offsets)
                              for register_id, offsets in section["pages"].items()}
            except (AttributeError, KeyError, TypeError, ValueError):
                self.pages = {}
                self.prefix = FilePrefix(self.path)
        self.verified = self.prefix.length
        try:
            for register_id, (last, digest) in (section or {}).get("digests", {}).items():
                if type(last) is int and last < self.verified and isinstance(digest, str):
                    self.digests[register_id] = last, digest
        except (AttributeError, TypeError, ValueError):
            self.digests = {}
        for offset, line in read_lines(self.path, self.verified):
            record = parse_line(line, self.path, offset)
            try:
                pages = self.pages.setdefault(record.get("register_id"), {})
                pages[record.get("sequence_index")] = offset
            except TypeError:  # unhashable: a JSON array or object
                raise CorruptLine(self.path, offset, "cannot be indexed: its register_id or "
                                  "sequence_index is an array or an object") from None
        self.file = AppendFile(self.path)

    def section(self) -> dict:
        """The checkpoint section of the index: the store's length and
        SHA-256 up to its last whole line, ``pages`` as ``register_id ->
        [[sequence_index, offset], ...]`` and ``digests`` as ``register_id
        -> [last offset, digest]``. Every add must be flushed. A section
        that also holds the task ids as ``keys``, as earlier versions wrote
        it, opens the same: ``keys`` is not read."""
        length, digest = self.prefix.extend()
        pages = {register_id: list(offsets.items()) for register_id, offsets in self.pages.items()}
        return {"length": length, "sha256": digest, "pages": pages,
                "digests": {register_id: list(known) for register_id, known in self.digests.items()}}

    def __contains__(self, task_id: str) -> bool:
        try:
            register_id, sequence_index = parse_task_id(task_id)
        except ValueError:
            return False
        return sequence_index in self.pages.get(register_id, ())

    def __len__(self) -> int:
        return sum(map(len, self.pages.values()))

    def add(self, task_id: str, line: bytes) -> bool:
        """Append ``line``, a record's UTF-8 JSON text with its newline,
        unless the store holds ``task_id``'s page already.

        Raises:
            ValueError: if ``task_id`` is not a task id (``parse_task_id``).
        """
        register_id, sequence_index = parse_task_id(task_id)
        with self._lock:
            if sequence_index in self.pages.get(register_id, ()):
                return False
            offset = self.file.append(line)
            self.pages.setdefault(register_id, {})[sequence_index] = offset
            return True

    def records(self) -> list[dict]:
        return list(read_ndjson(self.path))

    def read(self, offsets: dict[int, int]) -> list[tuple[int, bytes]]:
        """``(offset, line)`` of the lines at ``offsets``' values, in key
        order: one register's records in sequence order."""
        return [(offsets[key], self.file.read(offsets[key])) for key in sorted(offsets)]

    def payloads(self, register_id: str,
                 lines: Optional[list[tuple[int, bytes]]] = None) -> list[dict]:
        """The records of ``register_id`` in sequence order, parsed from
        its ``lines`` (``read``), which are read here if not given, each
        checked against the schema the process stage wrote it by
        (``validate_payload``).

        Raises:
            CorruptLine: if a line is not a JSON object or its record does
                not fit the schema; a transcript that is a JSON object is
                named as a store of an earlier version.
        """
        if lines is None:
            lines = self.read(self.pages.get(register_id, {}))
        payloads = []
        for offset, line in lines:
            payload = parse_line(line, self.path, offset, register_id)
            problems = validate_payload(payload)
            if problems:
                reason = _OLD_FORMAT if isinstance(payload.get("transcript"), dict) else (
                    "does not fit the result schema: " + "; ".join(problems))
                raise CorruptLine(self.path, offset, reason, register_id)
            payloads.append(payload)
        return payloads

    def digest(self, register_id: str) -> tuple[str, Optional[list[tuple[int, bytes]]]]:
        """The blake2b-128 of ``register_id``'s lines in sequence order, and
        those lines (``read``) if they were read for it, else None.

        The store only appends, so an add for a register lands after all its
        earlier lines: while its last offset is the one in ``digests``, its
        lines are too, and the digest there is returned without a read.
        """
        offsets = self.pages.get(register_id, {})
        last = max(offsets.values(), default=-1)
        known = self.digests.get(register_id)
        if known is not None and known[0] == last:
            return known[1], None
        lines = self.read(offsets)
        digest = hashlib.blake2b(digest_size=16)
        for _, line in lines:
            digest.update(line)
        self.digests[register_id] = last, digest.hexdigest()
        return digest.hexdigest(), lines


# Pre-stage (download), process (classify, recognize) and post (integrate,
# export), in pipeline order.
STAGES = ("pre", "proc", "post")


@dataclass
class RunConfig:
    """Everything run_batch needs; its files live under ``workspace`` (see
    ``Workspace`` for the layout).

    ``stages`` names the stages to run, a non-empty subset of ``STAGES``, so
    the connected and isolated stages can run as separate jobs; only the
    pre-stage needs ``endpoint`` and ``transport``. A given ``registry`` is
    planned whole before the run.
    """

    workspace: Path
    workers: WorkerSet
    scheduler: LocalExecutor
    registry: Optional[Registry] = None
    endpoint: Optional[IiifEndpoint] = None
    transport: Optional[Transport] = None
    prestage_concurrency: int = 14
    retry_limit: int = 3
    window: int = 64
    stages: frozenset[str] = frozenset(STAGES)
    clock: Callable[[], float] = time.time
    on_transition: Optional[Callable[[TaskManifest], None]] = None

    def __post_init__(self):
        self.workspace = Path(self.workspace)
        for name in ("window", "prestage_concurrency", "retry_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.stages = frozenset(self.stages)
        if not self.stages:
            raise ValueError(f"stages must name at least one of {', '.join(STAGES)}")
        if not self.stages <= set(STAGES):
            raise ValueError(f"unknown stages: {sorted(self.stages - set(STAGES))}")
        if "pre" in self.stages and (self.endpoint is None or self.transport is None):
            raise ValueError("the pre stage downloads: it needs an endpoint and a transport")

    def check_planned(self) -> None:
        """Raises ``EmptySelection`` if there is no registry and nothing planned."""
        if self.registry is None and not (self.workspace / REGISTRY_NAME).exists():
            raise EmptySelection(f"nothing is planned in {self.workspace}: plan it first "
                                 "(censusflow plan)")

    @property
    def store_path(self) -> Path:
        return self.workspace / STORE_NAME

    @property
    def households_path(self) -> Path:
        return self.workspace / HOUSEHOLDS_NAME


@dataclass
class BatchReport:
    planned: int
    counts: dict[str, int]
    failed_tasks: list[tuple[str, str, str]] = field(default_factory=list)
    households_csv: Optional[str] = None
    households_exported: int = 0
    registers_exported: int = 0
    registers_skipped: int = 0

    @property
    def succeeded(self) -> bool:
        return not self.failed_tasks


def state_counts(manifests: Iterable[TaskManifest]) -> dict[str, int]:
    counts = Counter(m.state for m in manifests)
    return {state.value: counts[state] for state in TaskState}


def run_batch(config: RunConfig) -> BatchReport:
    """Run ``config.stages`` over every task planned in the workspace that
    is not terminal; export households when the post stage runs.

    ``config.registry``, if given, is planned whole first (``plan_batch``);
    the tasks are ``Workspace.planned``. Each stage filters its window by
    state, so with all three stages one pass over windows of the
    non-terminal tasks ends with every task terminal, and conservation
    holds: INTEGRATED + FAILED equals the planned task count. A run of fewer
    stages leaves each task at the state its last stage gives it, for a
    later run to pick up.

    After each window's integrate, the rows of every register that window
    completed are folded and memoised (``ExportMemo.keep``); the export
    (``Workspace.export``) then copies them. The run is the workspace's
    writer (``Workspace``). It downloads on one pool, opened inside the
    workspace so that it closes, its downloads finished, before the writer
    lock is released. It raises ``EmptySelection`` if nothing is planned
    (``RunConfig.check_planned``) and ``UnknownImage`` (``Workspace.planned``).

    A checkpoint is written after a window once the log has grown since the
    last checkpoint by at least that checkpoint's size (``Workspace.due``),
    and when the run returns, so the checkpoints of a run total O(log) bytes
    and a kill leaves at most one such interval of log to read again.
    """
    config.check_planned()
    pre, post = "pre" in config.stages, "post" in config.stages
    with (Workspace(config.workspace, writer=True, clock=config.clock,
                    on_transition=config.on_transition) as ws,
          (LocalExecutor(config.prestage_concurrency) if pre else nullcontext()) as downloads):
        if config.registry is not None:
            plan_batch(config.registry, ws)
        manifests = ws.planned()
        registers = {register.metadata.register_id: register for register in ws.registry.registers}
        ws.store  # every run opens the store, its checkpoint section included

        todo = [m for m in manifests if m.state not in TERMINAL_STATES]
        for start in range(0, len(todo), config.window):
            window = todo[start : start + config.window]
            if pre:
                run_stage_prestage(window, ws, endpoint=config.endpoint,
                                   transport=config.transport, executor=downloads)
            if "proc" in config.stages:
                run_stage_process(window, ws, workers=config.workers,
                                  scheduler=config.scheduler, retry_limit=config.retry_limit)
            if post:
                run_stage_integrate(window, ws)
                for register_id in dict.fromkeys(m.image.register.register_id for m in window):
                    ws.memo.keep(registers[register_id])
            if start + config.window < len(todo) and ws.due():
                ws.save()

        report = BatchReport(
            planned=len(manifests),
            counts=state_counts(manifests),
            failed_tasks=[(m.task_id, m.failure.stage, m.failure.reason)
                          for m in manifests if m.state is TaskState.FAILED],
        )
        if post:
            report.households_csv = str(config.households_path)
            exported = ws.export(report.households_csv)
            report.registers_exported, report.registers_skipped, report.households_exported = exported
    return report


class UnknownImage(LookupError):
    """A task in the workspace's log whose image its registry lacks."""


class Workspace:
    """A workspace opened for one command, entered with ``with``: its
    layout, which of its files the command opens, in what order, and what it
    writes back.

    ``root`` holds the log, the registry ``plan_batch`` keeps and the
    result store (``store``), the only copy of each result. The pre-stage
    writes a task's image to ``staging/<task_id>.jpg`` and integrate deletes
    it. A task's files follow from its id alone, so the log does not record
    them, and a workspace may be moved between stages.

    A reader (``status``, ``export``) takes no lock and writes nothing; it
    folds the log (``tasks``) or opens the store (``store``) only if asked.
    A writer (``plan``, ``run``) takes the writer lock, then folds the log
    and deletes the temporaries of a killed export; it opens the store at
    its first use (a run's first stage, never in ``plan``) and the writable
    memo (``memo``) when a run first integrates. On an exit without an error
    it writes a checkpoint (``save``). Both read ``checkpoint`` once, and the
    exit closes every handle, the lock's included.

    ``clock`` stamps each transition (``advance``), and ``on_transition``,
    a test hook, runs after it is logged: raising there simulates a crash.
    """

    def __init__(self, root: str | Path, writer: bool = False,
                 clock: Callable[[], float] = time.time,
                 on_transition: Optional[Callable[[TaskManifest], None]] = None):
        self.root = Path(root)
        self.log = TransitionLog(self.root)
        self.writer = writer
        self.clock = clock
        self.on_transition = on_transition
        self.staging_dir = self.root / "staging"
        self.registry_file = self.root / REGISTRY_NAME
        self.checkpoint_file = self.root / CHECKPOINT_NAME
        self._handles = ExitStack()

    def staged_file(self, task_id: str) -> Path:
        return self.staging_dir / f"{task_id}.jpg"

    @cached_property
    def registry(self) -> Registry:
        """The registers in ``registry_file``, read once, whole lines only
        (``read_lines``), as the log is; ``plan_batch`` sets it as it writes."""
        path = self.registry_file
        return Registry(tuple(parse_register(line, path, offset)
                              for offset, line in read_lines(path)))

    @cached_property
    def checkpoint(self) -> dict[str, dict]:
        """The checkpoint's sections (``read_checkpoint``), read once."""
        return read_checkpoint(self.checkpoint_file)

    @property
    def tasks(self) -> dict[str, TaskManifest]:
        """Every task's manifest by id, folded once from ``checkpoint`` on;
        the stages keep it current."""
        if self.log.tasks is None:
            self.log.fold(self.checkpoint.get("log"))
        return self.log.tasks

    def __enter__(self) -> "Workspace":
        if not self.writer:
            return self
        try:
            self._handles.enter_context(writer_lock(self.root))
            self._handles.enter_context(self.log.file)
            self.log.fold(self.checkpoint.get("log"))
            # What the last checkpoint covers of the log, and of the store
            # once it is opened, as ``save`` sees them (None: unused).
            self._written = [self.log.prefix.length or None, None]
            for stale in self.root.glob(f".{HOUSEHOLDS_NAME}.*.tmp"):
                stale.unlink(missing_ok=True)
        except BaseException:
            self._handles.close()
            raise
        self._size = self.checkpoint_file.stat().st_size if self.checkpoint_file.exists() else 0
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        with self._handles:
            if self.writer and exc_type is None:
                self.save()

    @cached_property
    def store(self) -> ResultStore:
        """The result store, opened from the checkpoint's store section at
        its first use."""
        store = ResultStore(self.root / STORE_NAME, self.checkpoint.get("store"))
        self._handles.enter_context(store.file)
        if self.writer:
            self._written[1] = store.verified or None, dict(store.digests)
        return store

    @cached_property
    def memo(self) -> ExportMemo:
        """The export memo, writable in a writer."""
        memo = ExportMemo(self.store, writable=self.writer)
        self._handles.enter_context(memo.file)
        return memo

    def planned(self) -> list[TaskManifest]:
        """Every task in the log, each given its image from ``registry``, in
        ``select_images``' (register, sequence) order; ``UnknownImage``
        names a task whose image ``registry`` lacks."""
        images = {task_id_for(image): image for image in self.registry.iter_images()}
        for task_id, manifest in self.tasks.items():
            manifest.image = images.get(task_id)
            if manifest.image is None:
                raise UnknownImage(f"task {task_id} of {self.log.path} has no image in "
                                   f"{self.registry_file}")
        return sorted(self.tasks.values(),
                      key=lambda m: (m.image.register.register_id, m.image.sequence_index))

    def export(self, out_path: str | Path) -> tuple[int, int, int]:
        """``export_batch`` of ``registry`` through ``memo``."""
        return _export(self.registry, self.memo, out_path)

    def due(self) -> bool:
        """Whether the log has grown since the last checkpoint by at least
        the size of that checkpoint."""
        return self.log.path.stat().st_size - self.log.prefix.length >= self._size

    def save(self) -> None:
        """Write a checkpoint of the log's section and the store's, unless
        the last one already holds this state. A store never opened has not
        changed: its section from the last checkpoint, if any, is carried
        over as it was."""
        store = self.__dict__.get("store")  # opened (``cached_property``) or None
        covers = [self.log.prefix.extend()[0], self._written[1] if store is None else (
            store.prefix.extend()[0], dict(store.digests))]
        if covers == self._written:
            return
        sections = {"log": self.log.section()}
        section = self.checkpoint.get("store") if store is None else store.section()
        if section is not None:
            sections["store"] = section
        self._size = write_checkpoint(self.checkpoint_file, sections)
        self._written = covers


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


# Row positions of the export columns: a record's fields land at the column
# of their tag.
_COLUMN = {tag: EXPORT_COLUMNS.index(name) for tag, name in NAME_FOR_TAG.items()}


def register_rows(register_id: str, payloads: Iterable[dict]) -> list[list]:
    """The export rows of one register, folded straight from its stored
    payloads in reading order, which ``ResultStore.payloads`` has checked.

    Each page's label is decoded into plain field dicts (``decode_fields``,
    the lenient decoder). Applies ``merge_register``'s rule with O(1)
    state: a household starts at a record with a ``surname_head`` field, or
    at any record when none is open; a page without a label (a non-LIST
    page) closes the open household, and a label without records leaves it
    open. A record's row index is its index within its page. The rows
    equal ``household_rows`` of the register merged from the pages
    ``decode_lenient`` gives.
    """
    blank = [""] * len(EXPORT_COLUMNS)
    blank[0] = register_id
    rows = []
    household = -1
    is_open = False
    for payload in payloads:
        label = payload.get("transcript")
        if label is None:
            is_open = False
            continue
        page_id = payload["page_id"]
        for row_index, fields in enumerate(decode_fields(label)):
            row = blank.copy()
            for tag, text in fields.items():
                row[_COLUMN[tag]] = text
            is_head = EntityTag.SURNAME_HEAD in fields
            if is_head or not is_open:
                household += 1
                is_open = True
            # page_id, row_index, household_index, is_head
            row[1:5] = page_id, str(row_index), str(household), "1" if is_head else "0"
            rows.append(row)
    return rows


def _complete(register, index: dict[str, dict[int, int]]) -> bool:
    """Whether every image of ``register`` has a record in ``index``."""
    return set(index.get(register.metadata.register_id, ())) == {
        image.sequence_index for image in register.images
    }


# The head of a memo record as ``ExportMemo`` writes it (ASCII only): the
# register id, the digest and the decoder version; the CSV text comes last.
_PART_HEAD = re.compile(rb'\{"register_id": "([ !#-\[\]-~]*)", "digest": "([0-9a-f]{32})", '
                        rb'"decoder": (0|[1-9][0-9]*), ')


def _part_key(line: bytes) -> Optional[tuple[str, str, int]]:
    """``(register_id, digest, decoder)`` of a memo line in ``ExportMemo``'s
    layout, or None for any other line."""
    match = _PART_HEAD.match(line)
    if match is None:
        return None
    register_id, digest, decoder = match.groups()
    return register_id.decode("ascii"), digest.decode("ascii"), int(decoder)


class ExportMemo:
    """The CSV rows of finished registers, kept next to the result store in
    ``households.parts.ndjson``.

    Each record holds ``register_id``, ``digest``, ``decoder``, ``rows``
    (the row count) and ``csv`` (the register's CSV text), in that order.
    ``digest`` is the store's digest of the register's lines
    (``ResultStore.digest``) and ``decoder`` the label decoder's version
    (``label_codec.DECODER_VERSION``): together the whole input of its fold,
    the labels and the code that decodes them. So a memoised text is used
    only while the lines it was folded from are the ones ``store.pages``
    points at, and only by the decoder that folded it. This is the
    verifying trace of Mokhov, Mitchell and Peyton Jones, *Build systems à
    la carte* (ICFP 2018). The memo is a cache: a torn tail is
    skipped and cut as in the other logs, a line in any other layout than
    the one written here, or whose keys do not match, is not used, and
    deleting the file only makes the next export fold every register again.

    Only a ``writable`` memo appends, and only a writer's ``Workspace``
    opens one; ``file`` holds its handles, open for the whole command.
    """

    def __init__(self, store: ResultStore, writable: bool = False):
        self.store = store
        self.path = store.path.with_name(MEMO_NAME)
        self.writable = writable
        self.file = AppendFile(self.path)
        self._offsets: dict[tuple[str, str, int], int] = {}
        for offset, line in read_lines(self.path):
            key = _part_key(line)
            if key is not None:
                self._offsets[key] = offset

    def keep(self, register) -> None:
        """Memoise ``register``'s rows if it is complete (see ``part``).

        A record that fails here is left to export, which folds the register
        again and raises the error after every window has run.
        """
        if _complete(register, self.store.pages):
            try:
                self.part(register.metadata.register_id)
            except CorruptLine:  # export raises it
                pass

    def part(self, register_id: str) -> tuple[str, int]:
        """``(CSV text, row count)`` of a complete register: memoised if the
        memo has them for its current lines and this decoder, else folded
        (``register_rows``) and, in a writable memo, appended.

        Raises:
            CorruptLine: if a record of the register is not a JSON object
                or does not fit the result schema (``ResultStore.payloads``).
                A memoised text is copied without reading the records: each
                was folded from records that passed the check.
        """
        digest, lines = self.store.digest(register_id)
        key = register_id, digest, DECODER_VERSION
        part = self._read(key)
        if part is None:
            rows = register_rows(register_id, self.store.payloads(register_id, lines))
            part = csv_text(rows), len(rows)
            if self.writable:
                record = {"register_id": register_id, "digest": digest,
                          "decoder": DECODER_VERSION, "rows": part[1], "csv": part[0]}
                line = json.dumps(record) + "\n"
                self._offsets[key] = self.file.append(line.encode("ascii"))
        return part

    def _read(self, key: tuple[str, str, int]) -> Optional[tuple[str, int]]:
        offset = self._offsets.get(key)
        if offset is None:
            return None
        line = self.file.read(offset)
        try:
            record = json.loads(line)
            text, rows = record["csv"], record["rows"]
            if (record["register_id"], record["digest"], record["decoder"]) == key and (
                isinstance(text, str) and type(rows) is int
            ):
                return text, rows
        except (ValueError, KeyError, TypeError):  # not a JSON object with these keys
            pass
        return None


def export_batch(
    registry: Registry, store: ResultStore, out_path: str | Path
) -> tuple[int, int, int]:
    """Write the households of every complete register of ``registry`` to
    one CSV from the records ``store`` knows about, through a memo it only
    reads; registers with an image that has no record are skipped as
    incomplete. No domain objects are built, so a page of more than
    ``ROW_COUNT_SOFT_LIMIT`` records does not warn here, as ``export
    --pages`` does. Returns (registers exported, registers skipped, person
    rows written).

    Raises:
        CorruptLine: if a record of a complete register that is read is
            not a JSON object or does not fit the result schema, a
            transcript object included (``ResultStore.payloads``); the
            message names the file, byte offset and register.
    """
    memo = ExportMemo(store)
    with store.file, memo.file:
        return _export(registry, memo, out_path)


def _export(registry: Registry, memo: ExportMemo, out_path: str | Path) -> tuple[int, int, int]:
    """``export_batch``'s work and result."""
    complete = [register for register in registry.registers
                if _complete(register, memo.store.pages)]
    people = write_export(
        (memo.part(register.metadata.register_id) for register in complete), out_path
    )
    return len(complete), len(registry.registers) - len(complete), people
