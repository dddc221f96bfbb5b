"""Household grouping within pages and across page boundaries.

A new household starts at each record flagged as head. Since a household can
run over the bottom of one list page onto the top of the next, grouping a
register walks its pages in reading order and joins the trailing open
household of one list page with the head-less fragment opening the next.
Non-list pages (and the end of the register) finalize whatever is open.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .domain import (
    FIELD_ORDER,
    NAME_FOR_TAG,
    Household,
    PageClass,
    PageTranscript,
    PersonRecord,
    RegisterDocument,
)


class MissingTranscript(ValueError):
    def __init__(self, page_id: str):
        super().__init__(f"LIST page {page_id!r} has no transcript")
        self.page_id = page_id


class UniverseMismatch(ValueError):
    pass


@dataclass(frozen=True)
class HouseholdSet:
    """Households reconstructed from one or more list pages.

    Every record of every contributing page appears in exactly one
    household, and household order follows reading order.
    """

    households: tuple[Household, ...]
    source_pages: tuple[str, ...]

    def record_count(self) -> int:
        return sum(len(h) for h in self.households)

    def __len__(self) -> int:
        return len(self.households)


def group_page(page: PageTranscript) -> list[Household]:
    """Split one page into households at its head records.

    Records before the first head form a fragment household (possible
    continuation of the previous page) with ``complete=False``; the final
    household is also left incomplete since it may continue onto the next
    page.
    """
    households: list[Household] = []
    current: list[PersonRecord] = []
    for record in page.records:
        if record.is_head and current:
            households.append(Household(tuple(current), complete=current[0].is_head))
            current = []
        current.append(record)
    if current:
        households.append(Household(tuple(current), complete=False))
    return households


def merge_register(register: RegisterDocument) -> HouseholdSet:
    """Reconstruct the households of a whole register.

    Walks pages in reading order; the trailing open household of a list page
    absorbs the leading head-less fragment of the next list page. Non-list
    pages break continuation. All returned households are finalized
    (``complete=True``).

    Raises:
        MissingTranscript: if a LIST page carries no transcript.
    """
    merged: list[Household] = []
    open_members: list[PersonRecord] = []
    pages_seen: list[str] = []

    def close_open() -> None:
        if open_members:
            merged.append(Household(tuple(open_members), complete=True))
            open_members.clear()

    for page in register.pages:
        if page.page_class is not PageClass.LIST:
            close_open()
            continue
        if page.transcript is None:
            raise MissingTranscript(page.page_id)
        pages_seen.append(page.page_id)
        groups = group_page(page.transcript)
        for i, hh in enumerate(groups):
            if hh.members[0].is_head:
                close_open()
            open_members.extend(hh.members)
            if i < len(groups) - 1:
                close_open()
        # The page's trailing group stays open for the next list page.
    close_open()
    return HouseholdSet(tuple(merged), tuple(pages_seen))


def _intervals(hset: HouseholdSet) -> list[tuple[int, int]]:
    spans = []
    start = 0
    for hh in hset.households:
        spans.append((start, start + len(hh)))
        start += len(hh)
    return spans


def match_count(predicted: Sequence[Household], truth: Sequence[Household]) -> int:
    """Number of truth households whose exact member positions appear in
    the prediction. Both sequences must partition the same record universe."""
    pred_set = set(_intervals(HouseholdSet(tuple(predicted), ())))
    return sum(1 for span in _intervals(HouseholdSet(tuple(truth), ())) if span in pred_set)


def household_accuracy(predicted: HouseholdSet, truth: HouseholdSet) -> float:
    """Fraction of truth households exactly reproduced by the prediction.

    Records are identified by their position in reading order, so both sets
    must cover the same number of records.

    Raises:
        UniverseMismatch: if the record counts differ.
    """
    if predicted.record_count() != truth.record_count():
        raise UniverseMismatch(
            f"predicted covers {predicted.record_count()} records, "
            f"truth covers {truth.record_count()}"
        )
    if not truth.households:
        return 1.0
    return match_count(predicted.households, truth.households) / len(truth.households)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

EXPORT_COLUMNS = ["register_id", "page_id", "row_index", "household_index", "is_head",
                  *NAME_FOR_TAG.values()]


def household_rows(register: RegisterDocument, hset: HouseholdSet) -> list[list[str]]:
    """Flatten a merged household set into one export row per person.

    Positions are recovered by zipping the flattened households against the
    register's list-page records in reading order.
    """
    positions = []
    for page in register.pages:
        if page.page_class is PageClass.LIST and page.transcript is not None:
            for row_index in range(len(page.transcript.records)):
                positions.append((page.page_id, row_index))
    if len(positions) != hset.record_count():
        raise UniverseMismatch(
            f"register has {len(positions)} list records, "
            f"household set covers {hset.record_count()}"
        )
    rows = []
    cursor = 0
    for h_index, hh in enumerate(hset.households):
        for member in hh.members:
            page_id, row_index = positions[cursor]
            cursor += 1
            row = [
                register.register_id,
                page_id,
                str(row_index),
                str(h_index),
                "1" if member.is_head else "0",
            ]
            row.extend(member.fields.get(tag, "") for tag in FIELD_ORDER)
            rows.append(row)
    return rows


def csv_text(rows: Iterable[list[str]]) -> str:
    """``rows`` as the export writes them: CSV with ``\\r\\n`` line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def write_export(registers: Iterable[tuple[str, int]], path: str | Path) -> int:
    """Write the export header and then each register's rows to one CSV.

    ``registers`` yields ``(text, rows)`` per register: the rows' CSV text
    (``csv_text``) and their count. It is consumed one register at a time,
    so it may be a generator. The text goes to a temporary file next to
    ``path`` that replaces it only once every register is written: an error
    raised while reading ``registers`` or writing leaves any earlier file as
    it was.

    Returns the number of rows written.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    count = 0
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(csv_text([EXPORT_COLUMNS]))
            for text, rows in registers:
                fh.write(text)
                count += rows
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def export_households(
    entries: Iterable[tuple[RegisterDocument, HouseholdSet]], path: str | Path
) -> int:
    """Write merged households for several registers to one CSV file.

    ``entries`` is consumed one register at a time, so it may be a
    generator; the file is replaced atomically (see ``write_export``).

    Returns the number of person rows written. Output is deterministic for
    identical input.
    """
    registers = (household_rows(register, hset) for register, hset in entries)
    return write_export(((csv_text(rows), len(rows)) for rows in registers), path)
