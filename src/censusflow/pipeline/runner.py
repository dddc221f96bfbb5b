"""Batch orchestration: drive the three stages to termination and export.

``run_batch`` plans tasks from a registry, then makes one pass over bounded
windows of the tasks not yet terminal, running pre-stage, process and
integrate on each window; after its window's pass every task is INTEGRATED
or FAILED. A run may name fewer stages, so the connected and isolated
stages can run as separate jobs, each windowed the same way; only a run
with the integrate stage exports. The process stage appends each result to
the result store, its only copy, before it logs the task PROCESSED. Because
all stage steps are idempotent, all task state lives in the workspace's
append-only task log and every result in its append-only store,
interrupting the pass at any point, even in the middle of an append, and
calling ``run_batch`` again yields the same terminal result set.

Export works one register at a time. The result store indexes its line
offsets by register from record heads alone when it opens, and keeps the
index up to date as it appends. Each register's payloads fold straight into
CSV rows, without building domain objects. The fold runs once per register,
when the window that completes the register has been integrated: its CSV
text goes to an append-only memo, ``households.parts.ndjson``, keyed by the
store's digest of the register's lines. Export then copies each complete
register's memoised text if the digest of its current lines matches, folds
it otherwise, and replaces ``households.csv`` atomically once every row is
written. So a resume folds only the registers it completes, and memory
holds the largest register's payloads plus small per-record and
per-register indexes, whatever the batch size.

``run_batch`` holds the handles of the task log, the result store and the
memo (``AppendFile``) open, and closes them when it returns or raises.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from ..domain import TAG_FOR_NAME, PageClass
from ..household import EXPORT_COLUMNS, MissingTranscript, csv_text, write_export
from ..iiif import IiifEndpoint, Transport
from ..ingest import Registry
from .manifests import (
    TERMINAL_STATES,
    AppendFile,
    FilePrefix,
    PipelineContext,
    TaskManifest,
    TaskState,
    parse_line,
    parse_task_id,
    read_checkpoint,
    read_lines,
    read_ndjson,
    write_checkpoint,
    writer_lock,
)
from .stages import (
    LocalExecutor,
    plan_batch,
    run_stage_integrate,
    run_stage_prestage,
    run_stage_process,
)
from .workers import WorkerSet


# The head of a record as the process stage writes it (``json.dumps`` with
# ``sort_keys`` and the default separators): these five keys come first, in
# this order. A string without escapes or control characters, and a plain
# non-negative integer, decode as ``json.loads`` decodes them.
_HEAD = re.compile(
    rb'\{"page_class": "[^"\\\x00-\x1f]*", "page_id": "[^"\\\x00-\x1f]*", '
    rb'"register_id": "([^"\\\x00-\x1f]*)", "sequence_index": (0|[1-9][0-9]*), '
    rb'"task_id": "([^"\\\x00-\x1f]*)"[,}]'
)


def _head(line: bytes, path: str | Path = "", offset: int = 0) -> tuple:
    """``(register_id, sequence_index, task_id)`` of a store line, as
    ``json.loads`` gives them, decoding only the head of the record.

    A line whose head does not match the process stage's layout exactly
    (another key order, escapes, whitespace) or whose rest may repeat a
    head key is parsed whole instead; ``path`` and ``offset`` then name
    the line if it is not a JSON object (``CorruptLine``).
    """
    match = _HEAD.match(line)
    # json.loads takes the last of repeated keys. Every head key contains
    # "_i", and a key written with escapes contains a backslash, so a rest
    # with neither cannot repeat a head key.
    if match is not None and line.find(b"_i", match.end()) < 0 and (
        line.find(b"\\", match.end()) < 0
    ):
        register_id, sequence_index, task_id = match.groups()
        return (
            register_id.decode("utf-8", "surrogatepass"),
            int(sequence_index),
            task_id.decode("utf-8", "surrogatepass"),
        )
    record = parse_line(line, path, offset)
    return record.get("register_id"), record.get("sequence_index"), record.get("task_id")


class ResultStore:
    """Append-only NDJSON store keyed by task id; duplicate adds are no-ops.

    A torn last line is skipped on read and cut before the first add, as
    in the task log. Opening a store reads only the head of each record.

    ``pages`` maps ``register_id -> {sequence_index: byte offset}`` of the
    line that holds each page's record, a later line winning over an
    earlier one for the same page. It covers every record on disk when the
    store opened plus this instance's own adds, which is what export reads.
    A task id names one page (``parse_task_id``), so ``pages`` also answers
    ``in`` and ``len``.
    ``file`` holds its handles; ``run_batch`` holds them open for the whole
    run.

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
            register_id, sequence_index, _ = _head(line, self.path, offset)
            self.pages.setdefault(register_id, {})[sequence_index] = offset
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

    def add(self, task_id: str, payload: dict, text: Optional[str] = None) -> bool:
        """Append a record unless the key is already present.

        ``text``, if given, is the record's JSON text on one line, stored as
        it is; ``payload`` then needs only the ``register_id`` and
        ``sequence_index`` that the index keeps. Otherwise ``payload`` is
        the record, encoded here.
        """
        with self._lock:
            if task_id in self:
                return False
            if text is None:
                text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
            offset = self.file.append((text + "\n").encode("utf-8"))
            pages = self.pages.setdefault(payload.get("register_id"), {})
            pages[payload.get("sequence_index")] = offset
            return True

    def records(self) -> list[dict]:
        return list(read_ndjson(self.path))

    def read(self, offsets: dict[int, int]) -> list[tuple[int, bytes]]:
        """``(offset, line)`` of the lines at ``offsets``' values, in key
        order: one register's records in sequence order."""
        return [(offsets[key], self.file.read(offsets[key])) for key in sorted(offsets)]

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


# The result store's file in a workspace.
STORE_NAME = "results_store.ndjson"

# Pre-stage (download), process (classify, recognize) and post (integrate,
# export), in pipeline order.
STAGES = ("pre", "proc", "post")


@dataclass
class RunConfig:
    """Everything run_batch needs; its files live under ``workspace`` (see
    ``PipelineContext`` for the staged images).

    ``stages`` names the stages to run, a non-empty subset of ``STAGES``, so
    the connected and isolated stages can run as separate jobs.
    """

    workspace: Path
    registry: Registry
    endpoint: IiifEndpoint
    transport: Transport
    workers: WorkerSet
    scheduler: LocalExecutor
    prestage_concurrency: int = 14
    retry_limit: int = 3
    window: int = 64
    year: Optional[int] = None
    commune_code: Optional[str] = None
    register_id: Optional[str] = None
    limit: Optional[int] = None
    stages: frozenset[str] = frozenset(STAGES)
    clock: Callable[[], float] = time.time
    on_transition: Optional[Callable[[TaskManifest], None]] = None

    def __post_init__(self):
        self.workspace = Path(self.workspace)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.prestage_concurrency < 1:
            raise ValueError("prestage_concurrency must be >= 1")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        self.stages = frozenset(self.stages)
        if not self.stages:
            raise ValueError(f"stages must name at least one of {', '.join(STAGES)}")
        if not self.stages <= set(STAGES):
            raise ValueError(f"unknown stages: {sorted(self.stages - set(STAGES))}")

    @property
    def store_path(self) -> Path:
        return self.workspace / STORE_NAME

    @property
    def households_path(self) -> Path:
        return self.workspace / "households.csv"


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
    """Run ``config.stages`` over every planned task; export households
    when the post stage runs.

    Each stage filters its window by state, so with all three stages one
    pass over windows of the non-terminal tasks ends with every task
    terminal, and conservation holds: INTEGRATED + FAILED equals the planned
    task count. A run of fewer stages leaves each task at the state its
    last stage gives it, for a later run to pick up.

    After each window's integrate, the rows of every register that window
    completed are folded and memoised (``ExportMemo.keep``); the export
    then copies them. ``run_batch`` holds the workspace's writer lock for
    the whole call (``writer_lock``): it is the only writer, so before
    exporting it deletes the temporary files that a kill during an earlier
    export left, and it is the only writer of the memo. The
    report's ``registers_skipped`` counts the incomplete registers among
    those with planned tasks, as ``censusflow export`` does.

    The log and the store are opened from the workspace checkpoint plus
    what was appended after it (``read_checkpoint``), whatever the stages;
    the memo, which the checkpoint does not cover, only with the post stage.
    ``run_batch`` writes a new checkpoint when it returns, and after a
    window once the log has grown since the last checkpoint by at least
    that checkpoint's size, so the checkpoints of a run total O(log) bytes
    and a kill leaves at most one such interval of log to read again.
    """
    ctx = PipelineContext.at(
        config.workspace, clock=config.clock, on_transition=config.on_transition
    )
    post = "post" in config.stages
    with ExitStack() as handles:
        handles.enter_context(writer_lock(config.workspace))
        checkpoint = read_checkpoint(ctx.checkpoint_file)
        handles.enter_context(ctx.log.file)
        manifests = plan_batch(
            config.registry,
            ctx,
            checkpoint,
            year=config.year,
            commune_code=config.commune_code,
            register_id=config.register_id,
            limit=config.limit,
        )
        store = ResultStore(config.store_path, checkpoint.get("store"))
        handles.enter_context(store.file)
        if post:
            memo = ExportMemo(store, writable=True)
            handles.enter_context(memo.file)
            registers = {register.metadata.register_id: register
                         for register in config.registry.registers}
        saver = _CheckpointWriter(ctx, store)

        todo = [m for m in manifests if m.state not in TERMINAL_STATES]
        for start in range(0, len(todo), config.window):
            window = todo[start : start + config.window]
            if "pre" in config.stages:
                run_stage_prestage(
                    window,
                    ctx,
                    endpoint=config.endpoint,
                    transport=config.transport,
                    concurrency=config.prestage_concurrency,
                    results_store=store,
                )
            if "proc" in config.stages:
                run_stage_process(
                    window,
                    ctx,
                    workers=config.workers,
                    scheduler=config.scheduler,
                    results_store=store,
                    retry_limit=config.retry_limit,
                )
            if post:
                run_stage_integrate(window, ctx, results_store=store)
                for register_id in dict.fromkeys(m.image.register.register_id for m in window):
                    memo.keep(registers[register_id])
            if start + config.window < len(todo) and saver.due():
                saver.write()

        report = BatchReport(
            planned=len(manifests),
            counts=state_counts(manifests),
            failed_tasks=[(m.task_id, m.failure.stage, m.failure.reason)
                          for m in manifests if m.state is TaskState.FAILED],
        )
        if post:
            for stale in config.workspace.glob(f".{config.households_path.name}.*.tmp"):
                stale.unlink(missing_ok=True)
            planned = {m.image.register.register_id for m in manifests}
            exported, skipped, people = _export(config.registry, memo, config.households_path,
                                                planned)
            report.households_csv = str(config.households_path)
            report.households_exported = people
            report.registers_exported = exported
            report.registers_skipped = skipped
        saver.write()
    return report


class _CheckpointWriter:
    """Writes a run's checkpoints: the log's section and the store's."""

    def __init__(self, ctx: PipelineContext, store: ResultStore):
        self.ctx, self.store = ctx, store
        try:
            self.size = ctx.checkpoint_file.stat().st_size
        except OSError:
            self.size = 0
        # What the last checkpoint covers, as ``_covers`` gives it; None
        # for a file whose section the run could not use.
        self.written = (ctx.log.prefix.length or None, store.verified or None,
                        dict(store.digests))

    def due(self) -> bool:
        """Whether the log has grown since the last checkpoint by at least
        the size of that checkpoint."""
        return self.ctx.log.path.stat().st_size - self.ctx.log.prefix.length >= self.size

    def _covers(self) -> tuple:
        return (self.ctx.log.prefix.extend()[0], self.store.prefix.extend()[0],
                dict(self.store.digests))

    def write(self) -> None:
        """Write a checkpoint unless the last one already holds this state."""
        covers = self._covers()
        if covers == self.written:
            return
        sections = {"log": self.ctx.log.section(), "store": self.store.section()}
        self.size = write_checkpoint(self.ctx.checkpoint_file, sections)
        self.written = covers


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


# Row positions of the export columns: a record's fields land at the column
# of their tag; SURNAME_HEAD starts out absent to tell a head with an empty
# surname from no head.
_COLUMN = {name: EXPORT_COLUMNS.index(name) for name in TAG_FOR_NAME}
_HEAD_COLUMN = _COLUMN["surname_head"]
_ABSENT = object()


def register_rows(register_id: str, payloads: Iterable[dict]) -> list[list]:
    """The export rows of one register, folded straight from its stored
    payloads in reading order.

    Applies ``merge_register``'s rule with O(1) state: a household starts at
    a record with a ``surname_head`` field, or at any record when none is
    open; a non-LIST page closes the open household, and a LIST page
    without records leaves it open. A record's row index is its index
    within its page, and a tag repeated within a record keeps its last
    text. The rows equal ``household_rows`` of the merged register.

    Raises:
        MissingTranscript: if a LIST page carries no transcript.
        ValueError: if a non-LIST page carries one.
    """
    blank = [""] * len(EXPORT_COLUMNS)
    blank[0] = register_id
    blank[_HEAD_COLUMN] = _ABSENT
    rows = []
    household = -1
    is_open = False
    for payload in payloads:
        page_id = payload["page_id"]
        transcript = payload.get("transcript")
        if PageClass[payload["page_class"]] is not PageClass.LIST:
            if transcript is not None:
                raise ValueError(f"non-LIST page {page_id!r} cannot carry a transcript")
            is_open = False
            continue
        if transcript is None:
            raise MissingTranscript(page_id)
        for row_index, record in enumerate(transcript["records"]):
            row = blank.copy()
            for item in record["fields"]:
                row[_COLUMN[item["tag"]]] = item["text"]
            is_head = row[_HEAD_COLUMN] is not _ABSENT
            if not is_head:
                row[_HEAD_COLUMN] = ""
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


# The export memo's file, next to the result store.
MEMO_NAME = "households.parts.ndjson"

# The head of a memo record as ``ExportMemo`` writes it (ASCII only): the
# register id, then the digest; the CSV text comes last.
_PART_HEAD = re.compile(rb'\{"register_id": "([ !#-\[\]-~]*)", "digest": "([0-9a-f]{32})", ')


def _part_key(line: bytes) -> Optional[tuple[str, str]]:
    """``(register_id, digest)`` of a memo line, or None if it has none."""
    match = _PART_HEAD.match(line)
    if match is not None:
        return match.group(1).decode("ascii"), match.group(2).decode("ascii")
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if isinstance(record, dict):
        key = record.get("register_id"), record.get("digest")
        if all(isinstance(part, str) for part in key):
            return key
    return None


class ExportMemo:
    """The CSV rows of finished registers, kept next to the result store in
    ``households.parts.ndjson``.

    Each record holds ``register_id``, ``digest``, ``rows`` (the row count)
    and ``csv`` (the register's CSV text), in that order. ``digest`` is the
    store's digest of the register's lines (``ResultStore.digest``), that is
    of the whole input of its fold, so a memoised text is used only while
    the lines it was folded from are the ones ``store.pages`` points at.
    This is the verifying trace of Mokhov, Mitchell and Peyton Jones, *Build
    systems à la carte* (ICFP 2018). The memo is a cache: a torn tail is
    skipped and cut as in the other logs, a line that does not parse or
    whose keys do not match is not used, and deleting the file only makes
    the next export fold every register again.

    Only a ``writable`` memo appends, and only ``run_batch`` opens one;
    ``file`` holds its handles, open for the whole run.
    """

    def __init__(self, store: ResultStore, writable: bool = False):
        self.store = store
        self.path = store.path.with_name(MEMO_NAME)
        self.writable = writable
        self.file = AppendFile(self.path)
        self._offsets: dict[tuple[str, str], int] = {}
        for offset, line in read_lines(self.path):
            key = _part_key(line)
            if key is not None:
                self._offsets[key] = offset

    def keep(self, register) -> None:
        """Memoise ``register``'s rows if it is complete (see ``part``).

        A fold that fails here is left to export, which folds the register
        again and raises the error after every window has run.
        """
        if _complete(register, self.store.pages):
            try:
                self.part(register.metadata.register_id)
            except Exception:  # export raises it
                pass

    def part(self, register_id: str) -> tuple[str, int]:
        """``(CSV text, row count)`` of a complete register: memoised if the
        memo has them for its current lines, else folded (``register_rows``)
        and, in a writable memo, appended.

        Raises:
            CorruptLine: if a record of the register is not a JSON object.
            MissingTranscript: if a LIST page carries no transcript.
        """
        digest, lines = self.store.digest(register_id)
        part = self._read(register_id, digest)
        if part is None:
            if lines is None:
                lines = self.store.read(self.store.pages.get(register_id, {}))
            payloads = [
                parse_line(line, self.store.path, offset, register_id) for offset, line in lines
            ]
            rows = register_rows(register_id, payloads)
            part = csv_text(rows), len(rows)
            if self.writable:
                record = {"register_id": register_id, "digest": digest, "rows": part[1],
                          "csv": part[0]}
                line = json.dumps(record) + "\n"
                self._offsets[register_id, digest] = self.file.append(line.encode("ascii"))
        return part

    def _read(self, register_id: str, digest: str) -> Optional[tuple[str, int]]:
        offset = self._offsets.get((register_id, digest))
        if offset is None:
            return None
        line = self.file.read(offset)
        try:
            record = json.loads(line)
            text, rows = record["csv"], record["rows"]
            if (record["register_id"], record["digest"]) == (register_id, digest) and (
                isinstance(text, str) and type(rows) is int
            ):
                return text, rows
        except (ValueError, KeyError, TypeError):  # not a JSON object with these keys
            pass
        return None


def export_batch(
    registry: Registry, store: ResultStore, out_path: str | Path
) -> tuple[int, int, int]:
    """Write the households of every complete register to one CSV, one
    register at a time.

    Reads the records ``store`` knows about: every record on disk when it
    opened plus its own adds, through its ``pages`` index, so the store's
    head pass is the only one per run; a later record for the same page
    wins. In registry order, each register whose every image has a record
    is taken: if the export memo (``ExportMemo``) holds rows for the
    store's digest of its lines (``ResultStore.digest``), they are copied
    without reading the lines when ``store`` holds that digest already;
    otherwise the payloads are folded into rows (``register_rows``). Each register is written before
    the next is read, so memory holds one register's payloads plus the
    indexes. Other registers are skipped as incomplete. No domain objects
    are built, so a page of many records does not warn again here: the
    decoder warned when it built the page. The CSV goes to a temporary file
    that replaces ``out_path`` only once it is whole, so an error or a kill
    leaves any earlier CSV as it was. The store and the memo are read
    through one handle each, and only read: only ``run_batch`` writes them.

    Returns (registers exported, registers skipped, person rows written).

    Raises:
        CorruptLine: if a record of a complete register is not a JSON
            object; the message names the register, file and byte offset.
    """
    memo = ExportMemo(store)
    with store.file, memo.file:
        return _export(registry, memo, out_path)


def _export(registry: Registry, memo: ExportMemo, out_path: str | Path,
            planned: Optional[set[str]] = None) -> tuple[int, int, int]:
    """``export_batch``'s work and result; only the registers in ``planned``,
    if it is given, count as skipped."""
    complete, skipped = [], 0
    for register in registry.registers:
        if _complete(register, memo.store.pages):
            complete.append(register)
        elif planned is None or register.metadata.register_id in planned:
            skipped += 1
    people = write_export(
        (memo.part(register.metadata.register_id) for register in complete), out_path
    )
    return len(complete), skipped, people
