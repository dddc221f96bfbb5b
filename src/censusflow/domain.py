"""Core vocabulary shared by every other module.

Defines the twelve entity tags used to categorize table cells and their one
fixed vocabulary (each tag's token in page labels and its field name in
fixtures, payloads and exports, as precomputed maps and patterns), the five
page classes, and the immutable value objects describing people, households,
pages and registers. Also provides the plain-text fixture serialization used
to store page transcripts on disk, and the error for a bad line of an NDJSON
file (``CorruptLine``).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

if TYPE_CHECKING:
    from .ingest import RegisterMetadata


class EntityTag(Enum):
    """Category of one piece of information about an individual.

    The enum value is the tag's token in label strings (``TOKEN_FOR_TAG``).
    Declaration order is the canonical field order for encoding.
    """

    SURNAME_HEAD = "<s-h>"
    SURNAME = "<s>"
    FIRSTNAME = "<f>"
    OCCUPATION = "<o>"
    LINK = "<l>"
    EMPLOYER = "<e>"
    AGE = "<a>"
    NATIONALITY = "<n>"
    BIRTH_DATE = "<b>"
    CIVIL_STATUS = "<c>"
    LOB = "<p>"
    OBSERVATION = "<x>"

    # Members are singletons compared by identity; Enum.__hash__ hashes the
    # name string in Python on every dict lookup.
    __hash__ = object.__hash__


#: Canonical order in which a record's fields are emitted.
FIELD_ORDER: tuple[EntityTag, ...] = tuple(EntityTag)

# The one tag vocabulary, as precomputed maps: looking a tag up in a dict is
# about four times as fast as reading its ``value`` or ``name`` property.
#: Each tag's token in page labels, in canonical order, and back.
TOKEN_FOR_TAG: dict[EntityTag, str] = {tag: tag.value for tag in EntityTag}
TAG_FOR_TOKEN: dict[str, EntityTag] = {token: tag for tag, token in TOKEN_FOR_TAG.items()}
#: Each tag's field name in fixtures, result payloads and export columns,
#: in canonical order, and back.
NAME_FOR_TAG: dict[EntityTag, str] = {tag: tag.name.lower() for tag in EntityTag}
TAG_FOR_NAME: dict[str, EntityTag] = {name: tag for tag, name in NAME_FOR_TAG.items()}

_TOKENS = "|".join(re.escape(token) for token in sorted(TAG_FOR_TOKEN, key=len, reverse=True))
#: Any tag token (alternatives longest first).
TAG_PATTERN = re.compile(_TOKENS)
#: ``split`` cuts text into alternating [text, token, text, ...] pieces: odd
#: indices are tag tokens, even indices the (possibly empty) text between.
TAG_SPLIT_PATTERN = re.compile(f"({_TOKENS})")
#: Label tokens for the decoder: a newline, a tag, an unknown <...> chunk,
#: or a lone "<". A chunk must be compact (no spaces, nesting or missing
#: ">") so that a stray bracket can never swallow a legitimate tag further
#: along the line.
LABEL_PATTERN = re.compile(f"(\n|{_TOKENS}|<[^<>\\s]{{0,16}}>|<)")


class PageClass(Enum):
    FRONT = "front"
    LIST = "list"
    RECAP = "recap"
    TOTALS = "totals"
    OTHER = "other"


@dataclass(frozen=True)
class PersonRecord:
    """One table row: the tagged cell values for a single individual.

    Absent tags mean empty cells. ``is_head`` is derived: a record marks the
    head of a household exactly when it carries a SURNAME_HEAD value.
    """

    fields: Mapping[EntityTag, str]

    def __post_init__(self):
        object.__setattr__(self, "fields", dict(self.fields))

    @classmethod
    def from_names(cls, **values: str) -> "PersonRecord":
        """Build a record from lowercase tag names, e.g. ``surname_head="Gendre"``."""
        fields = {}
        for name, value in values.items():
            tag = TAG_FOR_NAME.get(name.lower())
            if tag is None:
                raise ValueError(f"unknown tag name: {name!r}")
            fields[tag] = value
        return cls(fields)

    @property
    def is_head(self) -> bool:
        return EntityTag.SURNAME_HEAD in self.fields

    def get(self, tag: EntityTag) -> Optional[str]:
        return self.fields.get(tag)

    def __len__(self) -> int:
        return len(self.fields)


def validate_record(record: PersonRecord) -> list[str]:
    """Check a person record against its invariants.

    Returns one violation description per broken invariant; an empty list
    means the record is valid. Violations are data, not errors.
    """
    violations = []
    if EntityTag.SURNAME_HEAD in record.fields and EntityTag.SURNAME in record.fields:
        violations.append("DualSurname")
    for tag in FIELD_ORDER:
        if tag in record.fields and record.fields[tag] == "":
            violations.append(f"EmptyValue({tag.name})")
    return violations


@dataclass(frozen=True)
class Household:
    """A consecutive run of individuals headed (when known) by its first member.

    ``complete`` is False while the household may continue on an adjacent,
    not-yet-processed page.
    """

    members: tuple[PersonRecord, ...]
    complete: bool = True

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("household must have at least one member")
        heads = [i for i, m in enumerate(self.members) if m.is_head]
        if len(heads) > 1:
            raise ValueError("household has more than one head")
        if heads and heads[0] != 0:
            raise ValueError("household head must be the first member")

    @property
    def head(self) -> Optional[PersonRecord]:
        first = self.members[0]
        return first if first.is_head else None

    def __len__(self) -> int:
        return len(self.members)


#: Soft upper bound on rows per list page; exceeding it warns but is legal.
ROW_COUNT_SOFT_LIMIT = 40


class RowCountWarning(UserWarning):
    pass


@dataclass(frozen=True)
class PageTranscript:
    """Ordered person records of one list page, top-to-bottom."""

    records: tuple[PersonRecord, ...]
    page_id: str = ""
    page_index_in_register: int = 0

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.page_index_in_register < 0:
            raise ValueError("page_index_in_register must be >= 0")
        if len(self.records) > ROW_COUNT_SOFT_LIMIT:
            warnings.warn(
                f"page {self.page_id!r} has {len(self.records)} records; "
                f"lists typically stay under {ROW_COUNT_SOFT_LIMIT}",
                RowCountWarning,
                stacklevel=3,
            )

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RegisterPage:
    """One page of a register: its id, class, and transcript for LIST pages."""

    page_id: str
    page_class: PageClass
    transcript: Optional[PageTranscript] = None

    def __post_init__(self):
        if self.transcript is not None and self.page_class is not PageClass.LIST:
            raise ValueError(f"non-LIST page {self.page_id!r} cannot carry a transcript")


@dataclass(frozen=True)
class RegisterDocument:
    """All pages of one register (one commune, one census year) in reading order."""

    register_id: str
    pages: tuple[RegisterPage, ...]
    metadata: "Optional[RegisterMetadata]" = None

    def __post_init__(self):
        object.__setattr__(self, "pages", tuple(self.pages))

    def list_pages(self) -> list[RegisterPage]:
        return [p for p in self.pages if p.page_class is PageClass.LIST]


class CorruptLine(ValueError):
    """A whole line of an NDJSON file (the registry, the task log, the
    result store) that is not a JSON object, or a record that its reader
    cannot index or that does not fit its schema; ``reason`` says which."""

    def __init__(
        self, path: str | Path, offset: int, reason: str, register_id: Optional[str] = None
    ):
        where = "" if register_id is None else f" (register {register_id!r})"
        super().__init__(f"{path}: line at byte {offset}{where} {reason}")
        self.path = path
        self.offset = offset
        self.register_id = register_id


# ---------------------------------------------------------------------------
# Fixture serialization
# ---------------------------------------------------------------------------
#
# Pages are stored as text blocks separated by a line containing only "---".
# Each block starts with an optional header line:
#
#   #page\t<page_id>\t<page_index>
#
# followed by one line per record of tab-separated lowercase tag=value pairs,
# e.g. "surname_head=Gendre\tfirstname=Pierre". Lines end at "\n" only (one
# "\r" before it is dropped, so CRLF files read), and values must not contain
# tabs, "\n" or "\r". Files are UTF-8.

_PAGE_SEPARATOR = "---"
_HEADER_PREFIX = "#page"


class UnserializablePage(ValueError):
    """A page whose id or a value holds a tab, a line feed or a carriage
    return, which the fixture format cannot hold; the message names the
    page."""


def dumps_pages(pages: Iterable[PageTranscript]) -> str:
    """The fixture text of ``pages`` (see above).

    Raises:
        UnserializablePage: naming the page whose id or value holds a tab,
            a line feed or a carriage return.
    """
    blocks = []
    for page in pages:
        if "\t" in page.page_id or "\n" in page.page_id or "\r" in page.page_id:
            raise UnserializablePage(f"page_id not serializable: {page.page_id!r}")
        lines = [f"{_HEADER_PREFIX}\t{page.page_id}\t{page.page_index_in_register}"]
        for record in page.records:
            parts = []
            for tag in FIELD_ORDER:
                value = record.fields.get(tag)
                if value is None:
                    continue
                if "\t" in value or "\n" in value or "\r" in value:
                    raise UnserializablePage(
                        f"page {page.page_id!r}: value not serializable: {value!r}")
                parts.append(f"{NAME_FOR_TAG[tag]}={value}")
            if parts:
                lines.append("\t".join(parts))
        blocks.append("\n".join(lines))
    return f"\n{_PAGE_SEPARATOR}\n".join(blocks) + ("\n" if blocks else "")


class MalformedFixture(ValueError):
    """A fixture file that is not UTF-8, or a line of one that does not
    parse; the message names the line."""


def loads_pages(text: str) -> list[PageTranscript]:
    """The pages of a fixture text, in one pass over its lines.

    Raises:
        MalformedFixture: naming the first line that does not parse; lines
            count from 1 across pages, separators included.
    """
    if text.strip() == "":
        return []
    pages = []
    page_id, page_index, records = "page-0", 0, []
    for number, line in enumerate(text.split("\n"), 1):
        if line[-1:] == "\r":
            line = line[:-1]
        if line == _PAGE_SEPARATOR:
            pages.append(
                PageTranscript(tuple(records), page_id=page_id, page_index_in_register=page_index)
            )
            page_index = len(pages)
            page_id, records = f"page-{page_index}", []
            continue
        if not line.strip():
            continue
        try:
            if line.startswith(_HEADER_PREFIX + "\t"):
                _, page_id, raw_index = line.split("\t", 2)
                page_index = int(raw_index)
                if page_index < 0:
                    raise ValueError(f"negative page index {page_index}")
                continue
            fields = {}
            for item in line.split("\t"):
                name, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(f"malformed fixture line: {line!r}")
                tag = TAG_FOR_NAME.get(name)
                if tag is None:
                    raise ValueError(f"unknown tag name in fixture: {name!r}")
                fields[tag] = value
        except ValueError as exc:
            raise MalformedFixture(f"line {number}: {exc}") from None
        records.append(PersonRecord(fields))
    pages.append(PageTranscript(tuple(records), page_id=page_id, page_index_in_register=page_index))
    return pages


def write_fixture(pages: Iterable[PageTranscript], path: str | Path) -> None:
    Path(path).write_text(dumps_pages(pages), encoding="utf-8")


def read_fixture(path: str | Path) -> list[PageTranscript]:
    """The pages of a fixture file.

    Raises:
        MalformedFixture: naming the file and the line, where the file is
            not UTF-8 or a line does not parse.
    """
    try:
        return loads_pages(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise MalformedFixture(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None
    except MalformedFixture as exc:
        raise MalformedFixture(f"{path}: {exc}") from None
