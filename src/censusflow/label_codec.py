"""Codec between structured page transcripts and single-string page labels.

A page label concatenates every individual's tagged cell values into one
string: each value is preceded by its tag token (``<s-h>Gendre <f>Pierre``),
fields are separated by a single space, records by a newline. Heads of
household carry ``<s-h>`` instead of ``<s>``, which doubles as the household
boundary signal.

The encoder is strict (valid records in, canonical field order out). Two
decoders are provided: ``decode_strict`` is the exact inverse of the encoder
and rejects malformed input, while ``decode_lenient`` accepts arbitrary noisy
recognizer output, repairs what it can and reports warnings instead of
failing. Both run one pass: a single ``re.split`` on
``domain.LABEL_PATTERN`` cuts the label into text and token pieces in C, and
one loop folds the pieces into records, so the Python work is a few steps
per tag rather than per character (about 1,760 characters and 210 tags on a
typical list page). Tags and tokens map through ``domain``'s one fixed
vocabulary (``TOKEN_FOR_TAG``, ``TAG_FOR_TOKEN``).

Also hosts the seeded synthetic record sampler used to build test corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Mapping, NamedTuple, Optional

from .domain import (
    LABEL_PATTERN,
    TAG_FOR_TOKEN,
    TAG_PATTERN,
    TOKEN_FOR_TAG,
    EntityTag,
    PageTranscript,
    PersonRecord,
    validate_record,
)

#: Maximum number of output tokens a recognizer prediction may contain; one
#: tag token or one text character counts as one token.
DEFAULT_TOKEN_BUDGET = 2800

#: Version of the lenient decoder's output. The result store keeps each
#: page's label as the recognizer wrote it and export decodes it, so rows
#: memoised from a label (``runner.ExportMemo``) hold only for the decoder
#: that folded them: raise this whenever ``decode_fields`` can give other
#: records for some label.
DECODER_VERSION = 1

_LEADING_TAGS = (EntityTag.SURNAME_HEAD, EntityTag.SURNAME)


class CodecError(Exception):
    pass


class TokenBudgetExceeded(CodecError):
    def __init__(self, count: int, budget: int):
        super().__init__(f"label needs {count} tokens, budget is {budget}")
        self.count = count
        self.budget = budget


class MalformedLabel(CodecError):
    """Strict-decode failure. ``position`` is a 1-based character offset."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"malformed label at position {position}: {reason}")
        self.position = position
        self.reason = reason


class InvalidProfile(ValueError):
    pass


class WarningKind(Enum):
    UNKNOWN_TOKEN = "UnknownToken"
    EMPTY_FIELD = "EmptyField"
    RECORD_WITHOUT_SURNAME = "RecordWithoutSurname"
    DUPLICATE_FIELD_IN_RECORD = "DuplicateFieldInRecord"


class DecodeWarning(NamedTuple):
    position: int  # 1-based character offset of the offending token or text
    kind: WarningKind


@dataclass(frozen=True)
class DecodeReport:
    """Lenient decode result: best-effort transcript plus ordered warnings."""

    transcript: PageTranscript
    warnings: tuple[DecodeWarning, ...]


def count_tokens(text: str) -> int:
    """Count label tokens: each tag token is 1, every other char is 1."""
    tags = 0
    tag_chars = 0
    for m in TAG_PATTERN.finditer(text):
        tags += 1
        tag_chars += len(m.group(0))
    return tags + (len(text) - tag_chars)


def encode(page: PageTranscript, *, token_budget: int = DEFAULT_TOKEN_BUDGET) -> str:
    """Encode a page transcript into its canonical label string.

    Fields are emitted in the fixed canonical order regardless of the
    in-memory insertion order, absent fields are skipped, and equal inputs
    always produce equal output.

    Raises:
        ValueError: if any record fails its invariants.
        TokenBudgetExceeded: if the encoded page would exceed ``token_budget``.
    """
    lines = []
    for i, record in enumerate(page.records):
        violations = validate_record(record)
        if violations:
            raise ValueError(f"record {i} is invalid: {', '.join(violations)}")
        fields = record.fields
        parts = [f"{token}{fields[tag]}" for tag, token in TOKEN_FOR_TAG.items() if tag in fields]
        if parts:
            lines.append(" ".join(parts))
    text = "\n".join(lines)
    count = count_tokens(text)
    if count > token_budget:
        raise TokenBudgetExceeded(count, token_budget)
    return text


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _decode(text: str, strict: bool) -> tuple[list[dict[EntityTag, str]], list[DecodeWarning]]:
    """Fold a label into records' field dicts and, when lenient, sorted
    warnings.

    One ``re.split`` cuts the label into alternating text and token pieces;
    a token is a newline, a tag, an unknown ``<...>`` chunk or a lone ``<``
    (``domain.LABEL_PATTERN``). Every token ends the field before it,
    so a field's value is exactly the text piece after its tag. That field
    stays open until the next token has been checked, so strict errors fire
    in label order. Positions are 1-based, from a running sum of piece
    lengths. A newline before the label and one after it make the start and
    the end of the label ordinary record boundaries.
    """
    pieces = LABEL_PATTERN.split(text)
    tag_for = TAG_FOR_TOKEN.get  # bound once: the loop looks up every token
    records: list[dict[EntityTag, str]] = []
    warnings: list[DecodeWarning] = []
    fields: dict[EntityTag, str] = {}
    record_start = 0  # position of the open record's first tag; 0 when none
    cur_tag: Optional[EntityTag] = None  # the open field, its position and value
    cur_pos = 0
    value = ""
    dropping = False  # text after an unknown token is dropped up to a tag or newline
    pos = 0
    tokens = chain(("\n",), pieces, ("\n", ""))
    for token, piece in zip(tokens, tokens):
        tag = tag_for(token)
        if tag is not None:
            if tag in _LEADING_TAGS:
                # A surname token always opens a new record.
                new_record = bool(fields) or cur_tag is not None
            elif tag in fields or tag is cur_tag:
                if strict:
                    raise MalformedLabel(pos, f"duplicate field {tag.name}")
                warnings.append(DecodeWarning(pos, WarningKind.DUPLICATE_FIELD_IN_RECORD))
                new_record = True
            else:
                new_record = False
        elif token == "\n":
            new_record = True
        else:
            if strict:
                raise MalformedLabel(pos, f"unknown token {token!r}")
            new_record = False

        if cur_tag is not None:
            if value:
                fields[cur_tag] = value
            elif strict:
                raise MalformedLabel(cur_pos, f"empty value for {cur_tag.name}")
            else:
                warnings.append(DecodeWarning(cur_pos, WarningKind.EMPTY_FIELD))
            cur_tag = None
        if new_record:
            if fields:
                if not strict and not (
                    EntityTag.SURNAME_HEAD in fields or EntityTag.SURNAME in fields
                ):
                    warnings.append(
                        DecodeWarning(record_start, WarningKind.RECORD_WITHOUT_SURNAME)
                    )
                records.append(fields)
                fields = {}
            record_start = 0

        if tag is not None:
            dropping = False
            if not record_start:
                record_start = pos
            cur_tag = tag
            cur_pos = pos
            # The encoder writes no space around values; decoding accepts one
            # leading space after the tag and strips the one-space separator.
            value = piece[1:] if piece[:1] == " " else piece
            if value[-1:] == " ":
                value = value[:-1]
        elif token == "\n":
            dropping = False
            if piece:
                if strict:
                    raise MalformedLabel(pos + 1, "text before the first tag")
                warnings.append(DecodeWarning(pos + 1, WarningKind.UNKNOWN_TOKEN))
        elif not dropping:
            warnings.append(DecodeWarning(pos, WarningKind.UNKNOWN_TOKEN))
            dropping = True
        pos += len(token) + len(piece)

    warnings.sort(key=lambda w: (w.position, w.kind.value))
    return records, warnings


def decode_strict(label: str, *, page_id: str = "", page_index: int = 0) -> PageTranscript:
    """Decode a label produced by :func:`encode` (or an equivalent string).

    Exact inverse of the encoder: ``decode_strict(encode(p)) == p`` when the
    page metadata is passed through.

    Raises:
        MalformedLabel: on unknown tokens, duplicate fields within a record,
            empty field values, or text before a record's first tag.
    """
    records, _ = _decode(label, strict=True)
    return PageTranscript(tuple(map(PersonRecord, records)), page_id=page_id,
                          page_index_in_register=page_index)


def decode_lenient(label: str, *, page_id: str = "", page_index: int = 0) -> DecodeReport:
    """Best-effort decode of arbitrary (noisy) recognizer output.

    Never fails. Record boundaries open at each surname token or at a
    repeated field tag; unknown tokens and their trailing text are dropped
    with a warning; empty fields are dropped. Every record in the returned
    transcript passes ``validate_record``.
    """
    records, warnings = _decode(label, strict=False)
    transcript = PageTranscript(tuple(map(PersonRecord, records)), page_id=page_id,
                                page_index_in_register=page_index)
    return DecodeReport(transcript, tuple(warnings))


def decode_fields(label: str) -> list[dict[EntityTag, str]]:
    """The records of ``decode_lenient(label)`` as plain field dicts, in
    page order, without building a transcript (so no ``PersonRecord`` and
    no ``RowCountWarning``). Every dict passes ``validate_record``'s checks:
    at least one field, no empty value, never both surname tags."""
    return _decode(label, strict=False)[0]


# ---------------------------------------------------------------------------
# Synthetic page generation
# ---------------------------------------------------------------------------

_SURNAMES = (
    "Gendre", "Paraud", "Martin", "Joyoz", "Dupont", "Bernard", "Moreau",
    "Petit", "Durand", "Leroy", "Roux", "Fournier", "Girard", "Bonnet",
    "Lambert", "Fontaine", "Chevalier", "Gauthier", "Perrin", "Clément",
)
_FIRSTNAMES = (
    "Pierre", "Marie", "Suzanne", "Jean", "Jeanne", "Louis", "Louise",
    "François", "Françoise", "Joseph", "Anne", "Claude", "Antoine",
    "Marguerite", "Henri", "Catherine", "Jacques", "Madeleine",
)
_OCCUPATIONS = (
    "cultivateur", "cultivatrice", "métayer", "néant", "journalier",
    "couturière", "forgeron", "instituteur", "berger", "meunier",
    "domestique", "charron", "sabotier", "lingère",
)
_LINKS = ("chef", "épouse", "fils", "fille", "mère", "père", "domestique", "pensionnaire", "neveu")
_EMPLOYERS = ("patron", "néant", "idem", "commune")
_NATIONALITIES = ("française", "idem", "belge", "italienne", "espagnole", "suisse")
_CIVIL_STATUSES = ("marié", "mariée", "célibataire", "veuf", "veuve")
_PLACES = ("Moulins", "Vichy", "Yzeure", "Gannat", "Souvigny", "Avermes", "Paris", "Lyon")
_OBSERVATIONS = ("sourd", "aveugle", "infirme", "absent")

_DEFAULT_PRESENCE: Mapping[EntityTag, float] = {
    EntityTag.SURNAME: 0.92,
    EntityTag.FIRSTNAME: 0.97,
    EntityTag.OCCUPATION: 0.80,
    EntityTag.LINK: 0.85,
    EntityTag.EMPLOYER: 0.30,
    EntityTag.AGE: 0.90,
    EntityTag.NATIONALITY: 0.45,
    EntityTag.BIRTH_DATE: 0.15,
    EntityTag.CIVIL_STATUS: 0.25,
    EntityTag.LOB: 0.20,
    EntityTag.OBSERVATION: 0.02,
}


@dataclass(frozen=True)
class SyntheticProfile:
    """Distribution parameters for synthetic page generation.

    ``household_size_mean`` parameterizes a geometric size distribution
    (each row after a household's first is a new head with probability
    1/mean). The geometric's lack of memory means truncating a household at
    a page or register boundary does not bias the sizes of the households
    that do fit.

    ``field_presence[SURNAME]`` applies to non-head members; heads always
    carry SURNAME_HEAD.
    """

    min_rows: int = 25
    max_rows: int = 36
    household_size_mean: float = 4.0
    field_presence: Mapping[EntityTag, float] = field(
        default_factory=lambda: dict(_DEFAULT_PRESENCE)
    )

    def __post_init__(self):
        if not 1 <= self.min_rows <= self.max_rows:
            raise InvalidProfile(f"bad row range [{self.min_rows}, {self.max_rows}]")
        if self.household_size_mean < 1.0:
            raise InvalidProfile("household size mean must be >= 1")
        for tag, p in self.field_presence.items():
            if not 0.0 <= p <= 1.0:
                raise InvalidProfile(f"presence probability for {tag.name} not in [0, 1]: {p}")


DEFAULT_PROFILE = SyntheticProfile()

_VALUE_SAMPLERS = {
    EntityTag.FIRSTNAME: lambda rng: rng.choice(_FIRSTNAMES),
    EntityTag.OCCUPATION: lambda rng: rng.choice(_OCCUPATIONS),
    EntityTag.LINK: lambda rng: rng.choice(_LINKS),
    EntityTag.EMPLOYER: lambda rng: rng.choice(_EMPLOYERS),
    EntityTag.AGE: lambda rng: str(rng.randint(0, 89)),
    EntityTag.NATIONALITY: lambda rng: rng.choice(_NATIONALITIES),
    EntityTag.BIRTH_DATE: lambda rng: str(rng.randint(1790, 1910)),
    EntityTag.CIVIL_STATUS: lambda rng: rng.choice(_CIVIL_STATUSES),
    EntityTag.LOB: lambda rng: rng.choice(_PLACES),
    EntityTag.OBSERVATION: lambda rng: rng.choice(_OBSERVATIONS),
}


def sample_record(rng: random.Random, profile: SyntheticProfile, head: bool) -> PersonRecord:
    """Draw one synthetic person record; heads always get SURNAME_HEAD."""
    fields: dict[EntityTag, str] = {}
    if head:
        fields[EntityTag.SURNAME_HEAD] = rng.choice(_SURNAMES)
    elif rng.random() < profile.field_presence.get(EntityTag.SURNAME, 1.0):
        fields[EntityTag.SURNAME] = rng.choice(_SURNAMES)
    for tag, sampler in _VALUE_SAMPLERS.items():
        if rng.random() < profile.field_presence.get(tag, 0.0):
            fields[tag] = sampler(rng)
    if not fields:
        fields[EntityTag.FIRSTNAME] = rng.choice(_FIRSTNAMES)
    return PersonRecord(fields)
