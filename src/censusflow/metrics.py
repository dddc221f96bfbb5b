"""Evaluation suite for structured table transcripts and page classification.

Covers character/word error rates between transcripts (tags stripped),
per-entity precision/recall/F1 via an order-preserving alignment, page
classification confusion matrices, and a corpus-level driver that aggregates
per-page figures over fixture directories.

Both quadratic kernels are bit-parallel over Python ints used as bit
vectors: Myers' edit distance for CER/WER (and ingest's name matching) and
Hyyro's LCS for the entity alignment, each O(n * m / w) word operations for
word width w.

Conventions stated in every report:

* CER/WER are computed on tag-stripped text (values joined by single spaces,
  records by newlines), isolating transcription quality from tagging quality.
* Entity matching requires exact (tag, text) equality; no fuzzy credit.
* Confusion matrices are indexed (predicted row, truth column): precision is
  diagonal over row sum, recall is diagonal over column sum.
* Aggregation is micro: counts are summed, rates derived from the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

from .domain import FIELD_ORDER, EntityTag, PageClass, PageTranscript, read_fixture
from .household import group_page, match_count


class NoMatchingPages(ValueError):
    pass


# ---------------------------------------------------------------------------
# Edit distance
# ---------------------------------------------------------------------------


def levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Minimum number of single-element insertions, deletions and
    substitutions turning sequence ``a`` into sequence ``b``.

    Bit-vector algorithm of Myers (JACM 46(3), 1999), global form after
    Hyyro (2001): the shorter sequence is the pattern, its column of score
    deltas two Python ints, and each element of the longer one costs about
    15 big-int operations, O(len(a) * len(b) / w) for word width w. Symbol
    masks live in a dict, so elements compare as dict keys (words for WER).
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict[Hashable, int] = {}
    for k, x in enumerate(b):
        peq[x] = peq.get(x, 0) | (1 << k)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    get = peq.get
    for x in a:
        eq = get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


# ---------------------------------------------------------------------------
# Error rates
# ---------------------------------------------------------------------------


def strip_tags(page: PageTranscript) -> str:
    """Render a transcript as plain text: field values in canonical order
    joined by single spaces, one record per line."""
    lines = []
    for record in page.records:
        lines.append(" ".join(record.fields[t] for t in FIELD_ORDER if t in record.fields))
    return "\n".join(lines)


@dataclass(frozen=True)
class ErrorRates:
    """Character and word error counts; rates derive from the counts.

    Rates may exceed 1.0 when predictions are longer than the truth. An
    empty truth with a non-empty prediction yields an infinite rate.
    """

    char_edits: int
    char_total: int
    word_edits: int
    word_total: int

    @staticmethod
    def _rate(edits: int, total: int) -> float:
        if total == 0:
            return 0.0 if edits == 0 else math.inf
        return edits / total

    @property
    def cer(self) -> float:
        return self._rate(self.char_edits, self.char_total)

    @property
    def wer(self) -> float:
        return self._rate(self.word_edits, self.word_total)

    def __add__(self, other: "ErrorRates") -> "ErrorRates":
        return ErrorRates(
            self.char_edits + other.char_edits,
            self.char_total + other.char_total,
            self.word_edits + other.word_edits,
            self.word_total + other.word_total,
        )


ErrorRates.ZERO = ErrorRates(0, 0, 0, 0)


def error_rates(truth: PageTranscript, pred: PageTranscript) -> ErrorRates:
    """CER/WER between two transcripts over their tag-stripped text."""
    t_text = strip_tags(truth)
    p_text = strip_tags(pred)
    t_words = t_text.split()
    p_words = p_text.split()
    return ErrorRates(
        char_edits=levenshtein(t_text, p_text),
        char_total=len(t_text),
        word_edits=levenshtein(t_words, p_words),
        word_total=len(t_words),
    )


# ---------------------------------------------------------------------------
# Entity scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TagScore:
    """Per-category counts; precision/recall/F1 derive from tp/fp/fn.

    Ratios with a zero denominator evaluate to 0.0 and are flagged by the
    ``*_defined`` properties so reports can render them as undefined.
    """

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def support(self) -> int:
        return self.tp + self.fn

    @property
    def precision_defined(self) -> bool:
        return (self.tp + self.fp) > 0

    @property
    def recall_defined(self) -> bool:
        return (self.tp + self.fn) > 0

    def __add__(self, other: "TagScore") -> "TagScore":
        return TagScore(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


@dataclass(frozen=True)
class EntityScores:
    """Per-tag and micro-averaged entity recognition scores."""

    per_tag: Mapping[EntityTag, TagScore]

    @property
    def micro(self) -> TagScore:
        total = TagScore()
        for score in self.per_tag.values():
            total = total + score
        return total

    def __add__(self, other: "EntityScores") -> "EntityScores":
        merged = {
            tag: self.per_tag.get(tag, TagScore()) + other.per_tag.get(tag, TagScore())
            for tag in FIELD_ORDER
        }
        return EntityScores(merged)


def page_entities(page: PageTranscript) -> list[tuple[EntityTag, str]]:
    """Flatten a transcript into (tag, text) items in page order."""
    items = []
    for record in page.records:
        for tag in FIELD_ORDER:
            if tag in record.fields:
                items.append((tag, record.fields[tag]))
    return items


def _lcs_matches(
    truth: Sequence[tuple[EntityTag, str]], pred: Sequence[tuple[EntityTag, str]]
) -> list[tuple[EntityTag, str]]:
    """Matched items of one longest common subsequence over exact pairs.

    L[i][j], the LCS length of ``truth[i:]`` and ``pred[j:]``, is one bit
    vector per truth row: bit m-1-j of ``rows[i]`` is set where
    L[i][j] > L[i][j+1], so L[i][j] is the popcount of its low m-j bits.
    Rows come from the bit-parallel LCS update of Hyyro (2004),
    ``V' = (V + U) | (V - U)`` with ``U = V & Match[c]``, over the reversed
    prediction. At a mismatch the traceback moves down the truth when
    L[i+1][j] >= L[i][j+1], else along the prediction.
    """
    n, m = len(truth), len(pred)
    if n == 0 or m == 0:
        return []
    match: dict[tuple[EntityTag, str], int] = {}
    for j, item in enumerate(pred):
        match[item] = match.get(item, 0) | (1 << (m - 1 - j))
    mask = (1 << m) - 1
    rows = [0] * (n + 1)
    v = mask
    for i in range(n - 1, -1, -1):
        u = v & match.get(truth[i], 0)
        v = ((v + u) | (v - u)) & mask
        rows[i] = v ^ mask
    matches = []
    i = j = 0
    while i < n and j < m:
        if truth[i] == pred[j]:
            matches.append(truth[i])
            i += 1
            j += 1
        elif (rows[i + 1] & (mask >> j)).bit_count() >= (rows[i] & (mask >> j + 1)).bit_count():
            i += 1
        else:
            j += 1
    return matches


def entity_scores(truth: PageTranscript, pred: PageTranscript) -> EntityScores:
    """Score entity recognition by aligning exact (tag, text) pairs.

    An order-preserving longest-common-subsequence alignment defines the
    true positives; unaligned predicted items are false positives, unaligned
    truth items false negatives.
    """
    t_items = page_entities(truth)
    p_items = page_entities(pred)
    matched = _lcs_matches(t_items, p_items)
    per_tag: dict[EntityTag, TagScore] = {}
    tp: dict[EntityTag, int] = {tag: 0 for tag in FIELD_ORDER}
    for tag, _ in matched:
        tp[tag] += 1
    t_counts = {tag: 0 for tag in FIELD_ORDER}
    p_counts = {tag: 0 for tag in FIELD_ORDER}
    for tag, _ in t_items:
        t_counts[tag] += 1
    for tag, _ in p_items:
        p_counts[tag] += 1
    for tag in FIELD_ORDER:
        per_tag[tag] = TagScore(
            tp=tp[tag], fp=p_counts[tag] - tp[tag], fn=t_counts[tag] - tp[tag]
        )
    return EntityScores(per_tag)


# ---------------------------------------------------------------------------
# Page classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix indexed (predicted, truth) over page classes."""

    counts: Mapping[tuple[PageClass, PageClass], int]

    def count(self, predicted: PageClass, truth: PageClass) -> int:
        return self.counts.get((predicted, truth), 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def scores(self) -> dict[PageClass, TagScore]:
        out = {}
        for cls in PageClass:
            tp = self.count(cls, cls)
            fp = sum(self.count(cls, t) for t in PageClass) - tp
            fn = sum(self.count(p, cls) for p in PageClass) - tp
            out[cls] = TagScore(tp=tp, fp=fp, fn=fn)
        return out

    @classmethod
    def from_counts(
        cls, counts: Mapping[tuple[PageClass, PageClass], int]
    ) -> "ConfusionMatrix":
        for (p, t), n in counts.items():
            if n < 0:
                raise ValueError(f"negative count for ({p.name}, {t.name})")
        return cls(dict(counts))


def classification_report(
    pairs: Iterable[tuple[PageClass, PageClass]],
) -> ConfusionMatrix:
    """Build a confusion matrix from (truth, predicted) pairs."""
    counts: dict[tuple[PageClass, PageClass], int] = {}
    for truth, predicted in pairs:
        key = (predicted, truth)
        counts[key] = counts.get(key, 0) + 1
    return ConfusionMatrix(counts)


# ---------------------------------------------------------------------------
# Corpus evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PageResult:
    name: str
    error_rates: ErrorRates
    entities: EntityScores
    households_matched: int
    households_total: int
    missing_prediction: bool = False


@dataclass(frozen=True)
class CorpusReport:
    """Aggregate figures over a corpus of truth/prediction page pairs."""

    error_rates: ErrorRates
    entities: EntityScores
    households_matched: int
    households_total: int
    pages: tuple[PageResult, ...] = ()

    @property
    def household_accuracy(self) -> float:
        if self.households_total == 0:
            return 1.0
        return self.households_matched / self.households_total


def _empty_page(name: str, index: int) -> PageTranscript:
    return PageTranscript((), page_id=name, page_index_in_register=index)


def evaluate_pages(
    name: str, truth: PageTranscript, pred: PageTranscript, *, missing: bool = False
) -> PageResult:
    truth_households = group_page(truth)
    matched = 0
    if len(truth.records) == len(pred.records):
        matched = match_count(group_page(pred), truth_households)
    return PageResult(
        name=name,
        error_rates=error_rates(truth, pred),
        entities=entity_scores(truth, pred),
        households_matched=matched,
        households_total=len(truth_households),
        missing_prediction=missing,
    )


def evaluate_corpus(truth_dir: str | Path, pred_dir: str | Path) -> CorpusReport:
    """Evaluate all fixture pages in ``pred_dir`` against ``truth_dir``.

    Pages are paired by file name and, within a file, by position. Truth
    pages without a prediction are scored as fully deleted; predicted pages
    without a truth page count as pure insertions. Pages whose record counts
    differ contribute no household matches but keep their truth households
    in the denominator.
    """
    truth_dir = Path(truth_dir)
    pred_dir = Path(pred_dir)
    truth_files = sorted(p.name for p in truth_dir.glob("*.txt"))
    if not truth_files:
        raise NoMatchingPages(f"no fixture files in {truth_dir}")
    if not any((pred_dir / name).exists() for name in truth_files):
        raise NoMatchingPages(f"no prediction in {pred_dir} matches a truth file")

    results = []
    for name in truth_files:
        truth_pages = read_fixture(truth_dir / name)
        pred_path = pred_dir / name
        pred_pages = read_fixture(pred_path) if pred_path.exists() else []
        for i in range(max(len(truth_pages), len(pred_pages))):
            truth = truth_pages[i] if i < len(truth_pages) else _empty_page(name, i)
            missing = i >= len(pred_pages)
            pred = pred_pages[i] if not missing else _empty_page(name, i)
            page_name = name if len(truth_pages) <= 1 else f"{name}#{i}"
            results.append(evaluate_pages(page_name, truth, pred, missing=missing))

    total_rates = ErrorRates.ZERO
    total_entities = EntityScores({tag: TagScore() for tag in FIELD_ORDER})
    matched = total = 0
    for r in results:
        total_rates = total_rates + r.error_rates
        total_entities = total_entities + r.entities
        matched += r.households_matched
        total += r.households_total
    return CorpusReport(
        error_rates=total_rates,
        entities=total_entities,
        households_matched=matched,
        households_total=total,
        pages=tuple(results),
    )


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _fmt(value: float, defined: bool = True) -> str:
    if not defined:
        return "   -"
    if math.isinf(value):
        return " inf"
    return f"{value:.4f}"


def format_entity_report(scores: EntityScores) -> str:
    lines = [f"{'Tag':<14} {'P':>8} {'R':>8} {'F1':>8} {'Support':>8}"]
    for tag in FIELD_ORDER:
        s = scores.per_tag.get(tag, TagScore())
        lines.append(
            f"{tag.name.lower():<14} {_fmt(s.precision, s.precision_defined):>8} "
            f"{_fmt(s.recall, s.recall_defined):>8} {_fmt(s.f1):>8} {s.support:>8}"
        )
    micro = scores.micro
    lines.append(
        f"{'total':<14} {_fmt(micro.precision, micro.precision_defined):>8} "
        f"{_fmt(micro.recall, micro.recall_defined):>8} {_fmt(micro.f1):>8} {micro.support:>8}"
    )
    return "\n".join(lines)


def format_classification_report(cm: ConfusionMatrix) -> str:
    names = [c.name for c in PageClass]
    width = max(len(n) for n in names) + 2
    header = "pred\\truth".ljust(width) + "".join(n.rjust(width) for n in names)
    lines = [header]
    for p in PageClass:
        row = p.name.ljust(width)
        row += "".join(str(cm.count(p, t)).rjust(width) for t in PageClass)
        lines.append(row)
    lines.append("")
    lines.append(f"{'Class':<{width}} {'P':>8} {'R':>8} {'F1':>8} {'Support':>8}")
    for cls, s in cm.scores().items():
        lines.append(
            f"{cls.name:<{width}} {_fmt(s.precision, s.precision_defined):>8} "
            f"{_fmt(s.recall, s.recall_defined):>8} {_fmt(s.f1):>8} {s.support:>8}"
        )
    return "\n".join(lines)


def classification_report_json(cm: ConfusionMatrix) -> dict:
    """Confusion counts and per-class scores as a JSON-ready dict."""
    return {
        "total": cm.total,
        "counts": {
            p.name: {t.name: cm.count(p, t) for t in PageClass if cm.count(p, t)}
            for p in PageClass
        },
        "classes": {
            cls.name: {
                "tp": s.tp,
                "fp": s.fp,
                "fn": s.fn,
                "precision": s.precision if s.precision_defined else None,
                "recall": s.recall if s.recall_defined else None,
                "f1": s.f1,
                "support": s.support,
            }
            for cls, s in cm.scores().items()
        },
    }


def format_corpus_report(report: CorpusReport) -> str:
    er = report.error_rates
    lines = [
        f"pages evaluated:     {len(report.pages)}",
        f"CER: {_fmt(er.cer)}  ({er.char_edits} edits / {er.char_total} chars)",
        f"WER: {_fmt(er.wer)}  ({er.word_edits} edits / {er.word_total} words)",
        f"household accuracy:  {_fmt(report.household_accuracy)} "
        f"({report.households_matched}/{report.households_total})",
        "",
        format_entity_report(report.entities),
    ]
    return "\n".join(lines)


def corpus_report_json(report: CorpusReport) -> dict:
    """All raw counts of a corpus report as a JSON-ready dict."""
    return {
        "pages": len(report.pages),
        "cer": None if math.isinf(report.error_rates.cer) else report.error_rates.cer,
        "wer": None if math.isinf(report.error_rates.wer) else report.error_rates.wer,
        "char_edits": report.error_rates.char_edits,
        "char_total": report.error_rates.char_total,
        "word_edits": report.error_rates.word_edits,
        "word_total": report.error_rates.word_total,
        "household_accuracy": report.household_accuracy,
        "households_matched": report.households_matched,
        "households_total": report.households_total,
        "entities": {
            tag.name.lower(): {
                "tp": s.tp,
                "fp": s.fp,
                "fn": s.fn,
                "precision": s.precision if s.precision_defined else None,
                "recall": s.recall if s.recall_defined else None,
                "f1": s.f1,
                "support": s.support,
            }
            for tag, s in report.entities.per_tag.items()
        },
        "micro": {
            "precision": report.entities.micro.precision,
            "recall": report.entities.micro.recall,
            "f1": report.entities.micro.f1,
            "support": report.entities.micro.support,
        },
    }
