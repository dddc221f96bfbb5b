"""Normalize heterogeneous archive metadata into a canonical image registry.

Consumes CSV exports (one row per digitized image) with a declarative column
mapping, resolves commune names against a gazetteer of historical place
names with fuzzy matching, validates census years, and groups rows into
registers with naturally ordered image sequences. Every input row ends up in
exactly one of the registry or the exceptions list; ambiguous commune
matches are additionally collected into a worklist for manual resolution.
"""

from __future__ import annotations

import csv
import functools
import json
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .domain import CorruptLine
from .metrics import levenshtein

# Census years run every five years from 1836 to 1936; the 1871 edition was
# held in 1872, and 1916 did not take place.
VALID_CENSUS_YEARS = frozenset(
    y for y in range(1836, 1937, 5) if y not in (1871, 1916)
) | {1872}

DEFAULT_THRESHOLD = 0.85
DEFAULT_AUTO_THRESHOLD = 0.95


class MissingColumn(ValueError):
    pass


class EmptyFile(ValueError):
    pass


class EmptyGazetteer(ValueError):
    pass


class ColumnRole(Enum):
    YEAR = "YEAR"
    COMMUNE = "COMMUNE"
    ARCHIVAL_ID = "ARCHIVAL_ID"
    IMAGE_PATH = "IMAGE_PATH"
    IGNORE = "IGNORE"


@dataclass(frozen=True)
class ColumnMapping:
    """Assignment of CSV columns to their roles.

    Exactly one column each for YEAR, COMMUNE and IMAGE_PATH; at most one
    ARCHIVAL_ID; anything else is ignored.
    """

    roles: Mapping[str, ColumnRole]

    def __post_init__(self):
        object.__setattr__(self, "roles", dict(self.roles))
        for role in (ColumnRole.YEAR, ColumnRole.COMMUNE, ColumnRole.IMAGE_PATH):
            cols = self.columns(role)
            if not cols:
                raise MissingColumn(f"mapping assigns no column to {role.value}")
            if len(cols) > 1:
                raise ValueError(f"mapping assigns {role.value} to several columns: {cols}")
        if len(self.columns(ColumnRole.ARCHIVAL_ID)) > 1:
            raise ValueError("mapping assigns ARCHIVAL_ID to several columns")

    def columns(self, role: ColumnRole) -> list[str]:
        return [c for c, r in self.roles.items() if r is role]

    def column(self, role: ColumnRole) -> Optional[str]:
        cols = self.columns(role)
        return cols[0] if cols else None


def load_mapping(path: str | Path) -> ColumnMapping:
    """Read a ``column=ROLE`` mapping file (# comments and blanks allowed),
    whose lines end at ``\n``, ``\r\n`` or ``\r`` only, as CSV records do."""
    roles: dict[str, ColumnRole] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        column, sep, role_name = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected column=ROLE")
        try:
            role = ColumnRole(role_name.strip().upper())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unknown role {role_name.strip()!r}") from None
        roles[column.strip()] = role
    return ColumnMapping(roles)


@dataclass(frozen=True)
class RawRow:
    """One imported CSV row with parsed fields and provenance."""

    row_number: int
    year: Optional[int]
    year_text: str
    commune: str
    archival_id: str
    image_path: str


def import_csv(path: str | Path, mapping: ColumnMapping) -> tuple[list[RawRow], list[str]]:
    """Import metadata rows from a CSV file using the given column mapping.

    Cells are read by column index, looked up once from the header: a
    header name given twice means its last column, a short row's missing
    cells read as empty and extra cells are ignored. Blank lines are
    skipped and not numbered; ``row_number`` counts the header as 1 and
    each record after it. A UTF-8 byte-order mark is allowed. A row with an
    unparseable year is kept with ``year`` None and an ``UnparseableYear``
    diagnostic, never dropped.
    Returns the rows plus human-readable diagnostics.

    Raises:
        EmptyFile: if the file has no header row.
        MissingColumn: if a mapped column is absent from the header.
    """
    diagnostics: list[str] = []
    rows: list[RawRow] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyFile(f"{path} has no header row")
        position = {name: i for i, name in enumerate(header)}
        for column, role in mapping.roles.items():
            if role is not ColumnRole.IGNORE and column not in position:
                raise MissingColumn(f"column {column!r} not in CSV header")
        year_at, commune_at, path_at, id_at = (
            position.get(mapping.column(role))
            for role in (ColumnRole.YEAR, ColumnRole.COMMUNE, ColumnRole.IMAGE_PATH,
                         ColumnRole.ARCHIVAL_ID)
        )
        width = len(header)
        for number, cells in enumerate(filter(None, reader), start=2):  # header is line 1
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            year_text = cells[year_at].strip()
            try:
                year: Optional[int] = int(year_text)
            except ValueError:
                year = None
                diagnostics.append(f"row {number}: UnparseableYear {year_text!r}")
            rows.append(
                RawRow(
                    row_number=number,
                    year=year,
                    year_text=year_text,
                    commune=cells[commune_at].strip(),
                    archival_id=cells[id_at].strip() if id_at is not None else "",
                    image_path=cells[path_at].strip(),
                )
            )
    return rows, diagnostics


# ---------------------------------------------------------------------------
# Gazetteer and fuzzy matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GazetteerEntry:
    code: str
    canonical_name: str
    department: str
    valid_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.canonical_name:
            raise ValueError("gazetteer entry needs a canonical name")
        object.__setattr__(self, "valid_names", tuple(self.valid_names))

    def all_names(self) -> tuple[str, ...]:
        return (self.canonical_name,) + self.valid_names


def load_gazetteer(path: str | Path) -> list[GazetteerEntry]:
    """Load a gazetteer CSV with columns code, canonical_name, department,
    variants (pipe-separated); the last two may be missing.

    Raises:
        MissingColumn: if the file has no header, or one without ``code`` or
            ``canonical_name``.
        ValueError: naming the file and line of a row whose code or
            canonical name is empty, or whose code an earlier row has.
    """
    entries = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("code", "canonical_name"):
            if column not in (reader.fieldnames or ()):
                raise MissingColumn(f"column {column!r} not in gazetteer header of {path}")
        for record in reader:
            code = (record["code"] or "").strip()
            name = (record["canonical_name"] or "").strip()
            if not (code and name):
                raise ValueError(f"{path}:{reader.line_num}: gazetteer row without a "
                                 f"{'code' if not code else 'canonical name'}")
            if code in seen:
                raise ValueError(f"{path}:{reader.line_num}: duplicate gazetteer code {code!r}")
            seen.add(code)
            variants = tuple(
                v.strip() for v in (record.get("variants") or "").split("|") if v.strip()
            )
            entries.append(
                GazetteerEntry(
                    code=code,
                    canonical_name=name,
                    department=(record.get("department") or "").strip(),
                    valid_names=variants,
                )
            )
    return entries


def save_gazetteer(entries: Sequence[GazetteerEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["code", "canonical_name", "department", "variants"])
        for e in entries:
            writer.writerow([e.code, e.canonical_name, e.department, "|".join(e.valid_names)])


_NON_ALNUM = re.compile(r"[^a-z0-9]+")


@functools.lru_cache(maxsize=1 << 14)
def normalize_name(name: str) -> str:
    """Normalize a place name: lowercase, fold diacritics, map punctuation
    and hyphens to spaces, collapse whitespace. Idempotent. Cached, because
    each registry build indexes the same gazetteer names again and
    ``similarity`` normalizes names that are already normalized."""
    lowered = name.lower()
    folded = "".join(
        c for c in unicodedata.normalize("NFKD", lowered) if not unicodedata.combining(c)
    )
    return _NON_ALNUM.sub(" ", folded).strip()


def similarity(a: str, b: str) -> float:
    """Normalized Levenshtein similarity in [0, 1] over normalized names."""
    na, nb = normalize_name(a), normalize_name(b)
    longest = max(len(na), len(nb))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(na, nb) / longest


def check_threshold(name: str, value: float) -> float:
    """Return ``value`` if it is a similarity threshold in [0, 1].

    Raises:
        ValueError: naming ``name`` and the value, for NaN too.
    """
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
    return value


class MatchStatus(Enum):
    AUTO = "auto"
    AMBIGUOUS = "ambiguous"
    UNMATCHED = "unmatched"


@dataclass(frozen=True)
class MatchCandidate:
    entry: GazetteerEntry
    score: float


@dataclass(frozen=True)
class MatchResult:
    query: str
    status: MatchStatus
    candidates: tuple[MatchCandidate, ...]

    @property
    def best(self) -> Optional[MatchCandidate]:
        return self.candidates[0] if self.candidates else None


def _charset(text: str) -> int:
    """Bitmask of the distinct characters of ``text``."""
    return sum(1 << ord(c) for c in set(text))


class _GazetteerIndex:
    """A gazetteer and thresholds prepared for many queries. Each name is
    normalized once and kept with its length and character-set bitmask; each
    entry keeps its normalized department and canonical-name length for the
    ranking.

    Raises:
        ValueError: if a threshold is not in [0, 1].
    """

    def __init__(self, gazetteer: Sequence[GazetteerEntry], threshold: float,
                 auto_threshold: float):
        self.threshold = check_threshold("threshold", threshold)
        self.auto_threshold = check_threshold("auto_threshold", auto_threshold)
        self.entries = [
            (
                entry,
                normalize_name(entry.department),
                len(normalize_name(entry.canonical_name)),
                tuple((norm, len(norm), _charset(norm))
                      for norm in map(normalize_name, entry.all_names())),
            )
            for entry in gazetteer
        ]

    def match(self, name: str, department_hint: Optional[str] = None) -> MatchResult:
        """``match_commune`` over this index."""
        if not self.entries:
            raise EmptyGazetteer("cannot match against an empty gazetteer")
        threshold = self.threshold
        hint = normalize_name(department_hint) if department_hint else None
        query = normalize_name(name)
        size, chars = len(query), _charset(query)
        scored = []
        for entry, department, canonical_length, names in self.entries:
            best = None
            for norm, length, norm_chars in names:
                longest = size if size > length else length
                # The edit distance is at least the length gap, and at least
                # the number of character types either side lacks (one edit
                # removes at most one of them from each side). Each bounds the
                # score from above, so a name either rules out cannot count.
                if longest and (
                    1.0 - abs(size - length) / longest < threshold
                    or 1.0 - (chars & ~norm_chars).bit_count() / longest < threshold
                    or 1.0 - (norm_chars & ~chars).bit_count() / longest < threshold
                ):
                    continue
                score = similarity(query, norm)
                if best is None or score > best:
                    best = score
            if best is not None and best >= threshold:
                rank = (-best, 0 if hint and department == hint else 1, canonical_length,
                        entry.code)
                scored.append((rank, MatchCandidate(entry, best)))
        if not scored:
            return MatchResult(name, MatchStatus.UNMATCHED, ())
        scored.sort(key=lambda ranked: ranked[0])
        candidates = tuple(candidate for _, candidate in scored)
        confident = [c for c in candidates if c.score >= self.auto_threshold]
        status = MatchStatus.AUTO if len(confident) == 1 else MatchStatus.AMBIGUOUS
        return MatchResult(name, status, candidates)


def match_commune(
    name: str,
    gazetteer: Sequence[GazetteerEntry],
    department_hint: Optional[str] = None,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    auto_threshold: float = DEFAULT_AUTO_THRESHOLD,
) -> MatchResult:
    """Rank gazetteer entries by fuzzy similarity to a raw commune name.

    Candidates scoring at least ``threshold`` are returned in descending
    score; ties break on department-hint agreement, shorter canonical name,
    then code. The match is auto-accepted only when exactly one candidate
    reaches ``auto_threshold``; otherwise it is AMBIGUOUS (for the manual
    resolution worklist) or UNMATCHED when nothing clears the threshold.
    Only names that cheap lower bounds on the edit distance leave in reach
    of ``threshold`` are scored; the bounds are exact, so the result is
    that of scoring every name.

    Raises:
        ValueError: if a threshold is not in [0, 1].
        EmptyGazetteer: if the gazetteer has no entries.
    """
    return _GazetteerIndex(gazetteer, threshold, auto_threshold).match(name, department_hint)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SLUG_RE = re.compile(r"[^A-Za-z0-9]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text).strip("-").lower() or "x"


@dataclass(frozen=True)
class RegisterMetadata:
    """Normalized archival identity of one register."""

    census_year: int
    commune: GazetteerEntry
    archival_id: str
    source_rows: tuple[int, ...] = ()

    def __post_init__(self):
        if self.census_year not in VALID_CENSUS_YEARS:
            raise ValueError(f"{self.census_year} is not a census year")

    @functools.cached_property
    def register_id(self) -> str:
        return f"{self.census_year}-{self.commune.code}-{_slug(self.archival_id)}"


@dataclass(frozen=True)
class ImageRef:
    """One image of a register, addressed by its IIIF identifier."""

    register: RegisterMetadata
    iiif_identifier: str
    sequence_index: int

    def __post_init__(self):
        if self.sequence_index < 0:
            raise ValueError("sequence_index must be >= 0")


@dataclass(frozen=True)
class Register:
    metadata: RegisterMetadata
    images: tuple[ImageRef, ...]


@dataclass(frozen=True)
class Registry:
    registers: tuple[Register, ...]

    def iter_images(self) -> Iterable[ImageRef]:
        for register in self.registers:
            yield from register.images

    def image_count(self) -> int:
        return sum(len(r.images) for r in self.registers)


@dataclass(frozen=True)
class ExceptionRecord:
    row_number: int
    reason: str
    detail: str
    year_text: str
    commune: str
    archival_id: str
    image_path: str


@dataclass(frozen=True)
class AmbiguousRecord:
    name: str
    candidates: tuple[MatchCandidate, ...]


@dataclass(frozen=True)
class BuildResult:
    registry: Registry
    exceptions: tuple[ExceptionRecord, ...]
    ambiguous: tuple[AmbiguousRecord, ...]


_NATURAL_SPLIT = re.compile(r"(\d+)")


def natural_key(text: str) -> tuple:
    """Numeric-aware sort key: digit runs compare as integers."""
    parts = _NATURAL_SPLIT.split(text)
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


def build_registry(
    rows: Sequence[RawRow],
    gazetteer: Sequence[GazetteerEntry],
    *,
    resolutions: Optional[Mapping[str, str]] = None,
    threshold: float = DEFAULT_THRESHOLD,
    auto_threshold: float = DEFAULT_AUTO_THRESHOLD,
) -> BuildResult:
    """Group imported rows into registers keyed by (year, commune, archival id).

    Commune names resolve through ``resolutions`` (raw name to gazetteer
    code, the manual worklist output) or, failing that, fuzzy matching.
    Invalid census years, unresolved communes and duplicate image paths are
    routed to the exceptions list, and so is each group whose register id
    (which folds the archival id's case and punctuation) an earlier group in
    sorted order already has; every input row lands in exactly one of
    registry or exceptions. Output ordering is deterministic. The gazetteer
    is indexed once per call.

    Raises:
        ValueError: if a threshold is not in [0, 1].
        EmptyGazetteer: if a name must be matched and the gazetteer is empty.
    """
    index = _GazetteerIndex(gazetteer, threshold, auto_threshold)
    resolutions = dict(resolutions or {})
    by_code = {entry.code: entry for entry in gazetteer}
    match_cache: dict[str, MatchResult] = {}
    ambiguous: dict[str, AmbiguousRecord] = {}
    exceptions: list[ExceptionRecord] = []
    groups: dict[tuple[int, str, str], list[RawRow]] = {}
    commune_for_group: dict[tuple[int, str, str], GazetteerEntry] = {}
    seen_paths: dict[str, int] = {}

    def reject(row: RawRow, reason: str, detail: str) -> None:
        exceptions.append(
            ExceptionRecord(
                row_number=row.row_number,
                reason=reason,
                detail=detail,
                year_text=row.year_text,
                commune=row.commune,
                archival_id=row.archival_id,
                image_path=row.image_path,
            )
        )

    for row in rows:
        if row.year is None:
            reject(row, "UnparseableYear", row.year_text)
            continue
        if row.year not in VALID_CENSUS_YEARS:
            reject(row, "InvalidCensusYear", str(row.year))
            continue

        entry: Optional[GazetteerEntry] = None
        if row.commune in resolutions:
            entry = by_code.get(resolutions[row.commune])
            if entry is None:
                reject(row, "UnknownResolutionCode", resolutions[row.commune])
                continue
        else:
            if row.commune not in match_cache:
                match_cache[row.commune] = index.match(row.commune)
            result = match_cache[row.commune]
            if result.status is MatchStatus.AUTO:
                entry = result.best.entry
            elif result.status is MatchStatus.AMBIGUOUS:
                ambiguous.setdefault(
                    row.commune, AmbiguousRecord(row.commune, result.candidates)
                )
                reject(row, "AmbiguousCommune", row.commune)
                continue
            else:
                reject(row, "UnmatchedCommune", row.commune)
                continue

        if row.image_path in seen_paths:
            reject(row, "DuplicateImagePath", f"first seen at row {seen_paths[row.image_path]}")
            continue
        seen_paths[row.image_path] = row.row_number

        key = (row.year, entry.code, row.archival_id)
        groups.setdefault(key, []).append(row)
        commune_for_group[key] = entry

    registers = []
    archival_id_of: dict[str, str] = {}
    for key in sorted(groups):
        year, code, archival_id = key
        group_rows = groups[key]
        metadata = RegisterMetadata(
            census_year=year,
            commune=commune_for_group[key],
            archival_id=archival_id,
            source_rows=tuple(r.row_number for r in group_rows),
        )
        first = archival_id_of.setdefault(metadata.register_id, archival_id)
        if first != archival_id:
            for row in group_rows:
                reject(row, "DuplicateRegisterId",
                       f"register id {metadata.register_id} already taken by archival id {first}")
            continue
        ordered = sorted(group_rows, key=lambda r: natural_key(r.image_path))
        images = tuple(
            ImageRef(register=metadata, iiif_identifier=r.image_path, sequence_index=i)
            for i, r in enumerate(ordered)
        )
        registers.append(Register(metadata, images))

    return BuildResult(
        registry=Registry(tuple(registers)),
        exceptions=tuple(exceptions),
        ambiguous=tuple(sorted(ambiguous.values(), key=lambda a: a.name)),
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_registry(registry: Registry, path: str | Path) -> None:
    """Write a registry as line-delimited JSON, one register per line.

    Output is byte-identical for identical input.
    """
    Path(path).write_text(registry_ndjson(registry), encoding="utf-8", newline="\n")


def registry_ndjson(registry: Registry) -> str:
    """The text ``save_registry`` writes."""
    lines = []
    for register in registry.registers:
        meta = register.metadata
        record = {
            "census_year": meta.census_year,
            "archival_id": meta.archival_id,
            "commune": {
                "code": meta.commune.code,
                "canonical_name": meta.commune.canonical_name,
                "department": meta.commune.department,
                "valid_names": list(meta.commune.valid_names),
            },
            "source_rows": list(meta.source_rows),
            "images": [
                {"identifier": img.iiif_identifier, "sequence_index": img.sequence_index}
                for img in register.images
            ],
        }
        lines.append(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    return "".join(lines)


def _typed(value, kind: type, what: str):
    """``value``, if its JSON type is ``kind`` (a bool is not an int)."""
    if type(value) is not kind:
        raise TypeError(f"{what} is {type(value).__name__}, not {kind.__name__}")
    return value


def _register(record) -> Register:
    """The register of one registry line's JSON value."""
    record = _typed(record, dict, "the line")
    commune = _typed(record["commune"], dict, "commune")
    metadata = RegisterMetadata(
        census_year=_typed(record["census_year"], int, "census_year"),
        commune=GazetteerEntry(
            code=_typed(commune["code"], str, "commune.code"),
            canonical_name=_typed(commune["canonical_name"], str, "commune.canonical_name"),
            department=_typed(commune["department"], str, "commune.department"),
            valid_names=tuple(_typed(commune.get("valid_names", []), list, "commune.valid_names")),
        ),
        archival_id=_typed(record["archival_id"], str, "archival_id"),
        source_rows=tuple(_typed(record.get("source_rows", []), list, "source_rows")),
    )
    images = []
    for image in _typed(record["images"], list, "images"):
        image = _typed(image, dict, "an image")
        images.append(ImageRef(register=metadata,
                               iiif_identifier=_typed(image["identifier"], str, "identifier"),
                               sequence_index=_typed(image["sequence_index"], int,
                                                     "sequence_index")))
    return Register(metadata, tuple(images))


def load_registry(path: str | Path) -> Registry:
    """Read a registry that ``save_registry`` wrote. Lines end at a line
    feed only: names and identifiers may hold any other line break (U+0085,
    U+2028), which JSON writes raw.

    Raises:
        CorruptLine: naming the file and the byte offset of the first line
            that is not a register (not JSON, a key missing or of the wrong
            type, or a value its register rejects), or whose register id an
            earlier line already had.
    """
    registers = []
    seen: set[str] = set()
    offset = 0
    for line in Path(path).read_bytes().split(b"\n"):
        if line.strip():
            register = parse_register(line, path, offset)
            register_id = register.metadata.register_id
            if register_id in seen:
                raise CorruptLine(path, offset, "repeats an earlier line's register id",
                                  register_id)
            seen.add(register_id)
            registers.append(register)
        offset += len(line) + 1
    return Registry(tuple(registers))


def parse_register(line: bytes, path: str | Path, offset: int) -> Register:
    """The register on a line at byte ``offset`` of ``path``, as ``load_registry`` reads it."""
    try:
        return _register(json.loads(line.decode("utf-8")))
    except KeyError as exc:
        raise CorruptLine(path, offset, f"is not a register: missing key {exc}") from None
    except (ValueError, TypeError) as exc:  # also UnicodeDecodeError
        raise CorruptLine(path, offset, f"is not a register: {exc}") from None


def write_exceptions_csv(exceptions: Sequence[ExceptionRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["row_number", "reason", "detail", "year", "commune", "archival_id", "image_path"]
        )
        for e in exceptions:
            writer.writerow(
                [e.row_number, e.reason, e.detail, e.year_text, e.commune, e.archival_id, e.image_path]
            )


def write_ambiguous_csv(ambiguous: Sequence[AmbiguousRecord], path: str | Path) -> None:
    """Write the manual-resolution worklist. Fill the ``resolved_code``
    column and feed the file back via ``resolutions``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "candidates", "best_code", "best_score", "resolved_code"])
        for record in ambiguous:
            listed = "|".join(f"{c.entry.code}:{c.score:.4f}" for c in record.candidates)
            best = record.candidates[0]
            writer.writerow([record.name, listed, best.entry.code, f"{best.score:.4f}", ""])


def load_resolutions(path: str | Path) -> dict[str, str]:
    """Read a worklist CSV back; rows with a ``name`` and a
    ``resolved_code`` become name-to-code resolutions.

    Raises:
        MissingColumn: if the file has no header, or one without either column.
    """
    resolutions = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("name", "resolved_code"):
            if column not in (reader.fieldnames or ()):
                raise MissingColumn(f"column {column!r} not in worklist header of {path}")
        for record in reader:
            name, code = record["name"], (record["resolved_code"] or "").strip()
            if name and code:
                resolutions[name] = code
    return resolutions
