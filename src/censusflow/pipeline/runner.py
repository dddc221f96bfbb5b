"""Batch orchestration: drive the three stages to termination and export.

``run_batch`` plans tasks from a registry, then makes one pass over bounded
windows of the tasks not yet terminal, running pre-stage, process and
integrate on each window; after its window's pass every task is INTEGRATED
or FAILED. A run may name fewer stages, so the connected and isolated
stages can run as separate jobs, each windowed the same way; only a run
with the integrate stage exports. Because all stage steps are idempotent
and all task state lives in the workspace's append-only task log,
interrupting the pass at any point, even in the middle of an append, and
calling ``run_batch`` again yields the same terminal result set.

Export works one register at a time. The result store indexes its line
offsets by register from record heads alone when it opens, and keeps the
index up to date as it appends. Each register's payloads fold straight into
CSV rows, without building domain objects. The fold runs once per register,
when the window that completes the register has been integrated: its CSV
text goes to an append-only memo, ``households.parts.ndjson``, keyed by a
digest of the register's store lines. Export then copies each complete
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
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from ..domain import FIELD_ORDER, PageClass
from ..household import EXPORT_COLUMNS, MissingTranscript, csv_text, write_export
from ..iiif import IiifEndpoint, Transport
from ..ingest import Registry
from .manifests import (
    TERMINAL_STATES,
    AppendFile,
    PipelineContext,
    TaskManifest,
    TaskState,
    parse_line,
    read_lines,
    read_ndjson,
)
from .schedulers import SchedulerAdapter
from .stages import (
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
    ``file`` holds its handles; ``run_batch`` holds them open for the whole
    run.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._keys: set[str] = set()
        self.pages: dict[str, dict[int, int]] = {}
        for offset, line in read_lines(self.path):
            register_id, sequence_index, task_id = _head(line, self.path, offset)
            self._keys.add(task_id)
            self.pages.setdefault(register_id, {})[sequence_index] = offset
        self.file = AppendFile(self.path)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, task_id: str, payload: dict, text: Optional[str] = None) -> bool:
        """Append a record unless the key is already present.

        ``text`` is the JSON text ``payload`` was parsed from; it is stored
        as it is instead of encoding the payload again. A text with a raw
        newline would split the record over lines, so the payload is
        encoded then.
        """
        with self._lock:
            if task_id in self._keys:
                return False
            if text is None or "\n" in text:
                text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
            offset = self.file.append((text + "\n").encode("utf-8"))
            self._keys.add(task_id)
            pages = self.pages.setdefault(payload.get("register_id"), {})
            pages[payload.get("sequence_index")] = offset
            return True

    def records(self) -> list[dict]:
        return list(read_ndjson(self.path))

    def read(self, offsets: dict[int, int]) -> list[tuple[int, bytes]]:
        """``(offset, line)`` of the lines at ``offsets``' values, in key
        order: one register's records in sequence order."""
        return [(offsets[key], self.file.read(offsets[key])) for key in sorted(offsets)]


# The result store's file in a workspace.
STORE_NAME = "results_store.ndjson"

# Pre-stage (download), process (classify, recognize) and post (integrate,
# export), in pipeline order.
STAGES = ("pre", "proc", "post")


@dataclass
class RunConfig:
    """Everything run_batch needs; its files live under ``workspace`` (see
    ``PipelineContext`` for the staged images and the result files).

    ``stages`` names the stages to run, a non-empty subset of ``STAGES``, so
    the connected and isolated stages can run as separate jobs.
    """

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
    stages: frozenset[str] = frozenset(STAGES)
    clock: Callable[[], float] = time.time
    on_transition: Optional[Callable[[TaskManifest], None]] = None

    def __post_init__(self):
        self.workspace = Path(self.workspace)
        if self.window < 1:
            raise ValueError("window must be >= 1")
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
    counts = {state.value: 0 for state in TaskState}
    for m in manifests:
        counts[m.state.value] += 1
    return counts


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
    then copies them. ``run_batch`` is the workspace's only writer, so
    before exporting it deletes the temporary files that a kill during an
    earlier export left, and it is the only writer of the memo.
    """
    ctx = PipelineContext.at(
        config.workspace, clock=config.clock, on_transition=config.on_transition
    )
    post = "post" in config.stages
    with ExitStack() as handles:
        handles.enter_context(ctx.log.file)
        manifests = plan_batch(
            config.registry,
            ctx,
            year=config.year,
            commune_code=config.commune_code,
            register_id=config.register_id,
            limit=config.limit,
        )
        if post:
            store = ResultStore(config.store_path)
            memo = ExportMemo(store, writable=True)
            handles.enter_context(store.file)
            handles.enter_context(memo.file)
            registers = {register.metadata.register_id: register
                         for register in config.registry.registers}

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
                )
            if "proc" in config.stages:
                run_stage_process(
                    window,
                    ctx,
                    workers=config.workers,
                    scheduler=config.scheduler,
                    retry_limit=config.retry_limit,
                )
            if post:
                run_stage_integrate(window, ctx, results_store=store)
                for register_id in dict.fromkeys(m.image.register.register_id for m in window):
                    memo.keep(registers[register_id])

        report = BatchReport(
            planned=len(manifests),
            counts=state_counts(manifests),
            failed_tasks=[(m.task_id, m.failure.stage, m.failure.reason)
                          for m in manifests if m.state is TaskState.FAILED],
        )
        if post:
            for stale in config.workspace.glob(f".{config.households_path.name}.*.tmp"):
                stale.unlink(missing_ok=True)
            exported, skipped, people = _export(config.registry, memo, config.households_path)
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


# Row positions of the export columns: a record's fields land at the column
# of their tag; SURNAME_HEAD starts out absent to tell a head with an empty
# surname from no head.
_COLUMN = {tag.name.lower(): EXPORT_COLUMNS.index(tag.name.lower()) for tag in FIELD_ORDER}
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


def _digest(lines: list[tuple[int, bytes]]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for _, line in lines:
        digest.update(line)
    return digest.hexdigest()


class ExportMemo:
    """The CSV rows of finished registers, kept next to the result store in
    ``households.parts.ndjson``.

    Each record holds ``register_id``, ``digest``, ``rows`` (the row count)
    and ``csv`` (the register's CSV text), in that order. ``digest`` is the
    blake2b-128 of the register's store lines in sequence order, that is of
    the whole input of its fold, so a memoised text is used only while the
    lines it was folded from are the ones ``store.pages`` points at. This is
    the verifying trace of Mokhov, Mitchell and Peyton Jones, *Build systems
    à la carte* (ICFP 2018). The memo is a cache: a torn tail is skipped and
    cut as in the other logs, a line that does not parse or whose keys do
    not match is not used, and deleting the file only makes the next export
    fold every register again.

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
        # register_id -> (last store offset, digest) of the parts this
        # instance folded or found. The store only appends, so an add for a
        # register lands after all its earlier lines: while its last offset
        # is the same, its lines are too and need no hashing again.
        self._known: dict[str, tuple[int, str]] = {}

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
        pages = self.store.pages.get(register_id, {})
        last = max(pages.values(), default=-1)
        known = self._known.get(register_id)
        if known is not None and known[0] == last:
            lines, digest = None, known[1]
        else:
            lines = self.store.read(pages)
            digest = _digest(lines)
        part = self._read(register_id, digest)
        if part is None:
            if lines is None:
                lines = self.store.read(pages)
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
        self._known[register_id] = last, digest
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
    is read back and hashed. If the export memo (``ExportMemo``) holds rows
    for exactly those lines, they are copied; otherwise the payloads are
    folded into rows (``register_rows``). Each register is written before
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


def _export(registry: Registry, memo: ExportMemo, out_path: str | Path) -> tuple[int, int, int]:
    complete = [register for register in registry.registers if _complete(register, memo.store.pages)]
    people = write_export(
        (memo.part(register.metadata.register_id) for register in complete), out_path
    )
    return len(complete), len(registry.registers) - len(complete), people
