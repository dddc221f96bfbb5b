"""Evaluation suite for structured table transcripts and page classification.

Covers character/word error rates between transcripts (tags stripped),
per-entity precision/recall/F1 via an order-preserving alignment, page
classification confusion matrices, and a corpus-level driver that aggregates
per-page figures over fixture directories.

Both quadratic kernels are bit-parallel over Python ints used as bit
vectors: Myers' edit distance for CER/WER (and ingest's name matching) and
Hyyro's LCS for the entity alignment, each O(n * m / w) word operations for
word width w. On patterns of 386 or more elements the edit distance first
tries Ukkonen's band of diagonals around the main one, O(n * k / w) for a
cutoff k of about m / 8: a page whose distance is a few percent of its
length costs a fraction of the full pass. The band's result is exact
whenever it is within the cutoff, because every value it computes is the
cost of a real alignment; otherwise the full pass runs. ``evaluate_corpus``
packs the bands of up to eight pages into one pair of bit vectors, each
page a lane above a zero guard bit, so one Myers step per column serves
all of them; each lane's result is the one it would have alone.

Conventions stated in every report:

* CER/WER are computed on tag-stripped text (values joined by single spaces,
  records by newlines), isolating transcription quality from tagging quality.
  Both are exact edit distances; the band and its lanes are a speed-up, not
  an approximation.
* Entity matching requires exact (tag, text) equality; no fuzzy credit.
* Confusion matrices are indexed (predicted row, truth column): precision is
  diagonal over row sum, recall is diagonal over column sum.
* Aggregation is micro: counts are summed, rates derived from the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import or_
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

from .domain import FIELD_ORDER, NAME_FOR_TAG, EntityTag, PageClass, PageTranscript, read_fixture
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
    Hyyro (2001): the shorter sequence, of length m, is the pattern, its
    column of score deltas two Python ints, and each element of the longer
    one, of length n, costs about a dozen big-int operations. Symbol masks
    live in a dict, so elements compare as dict keys (words for WER).

    A pattern of 386 or more elements, where the band's window covers at
    most half the rows, first goes through the banded kernel ``_lanes`` as
    its only lane, with the cutoff ``k = max(n - m, m // 8, 64)``. That
    costs O(n * k / w) for word width w instead of O(n * m / w), and its
    result is exact whenever it is at most k. A larger result, and every
    shorter pattern (ingest's names, a page's word list), take the plain
    loop over all m rows. There is one banded try, not a doubling of k:
    per-operation overhead dominates Python's big ints at these widths, so
    each failed retry would cost most of a plain loop again.
    ``levenshtein_many`` gives the same results for many pairs at once.
    """
    if len(a) < len(b):
        a, b = b, a
    k = _cutoff(len(a), len(b))
    if k:
        distance = _lanes([(a, b, k)])[0]
        if distance <= k:
            return distance
    return _plain(a, b)


def levenshtein_many(
    pairs: Iterable[tuple[Sequence[Hashable], Sequence[Hashable]]],
) -> list[int]:
    """``levenshtein`` of each pair, in order.

    Band-eligible pairs are sorted by the length of their longer sequence
    and go ``_LANES`` at a time through ``_lanes``, so pairs of similar
    length share one Myers step per column; a lane over its cutoff, and
    every pair under the band threshold, take the plain loop. The results
    are those of one pair at a time.
    """
    results: list[int] = []
    banded = []
    for a, b in pairs:
        if len(a) < len(b):
            a, b = b, a
        k = _cutoff(len(a), len(b))
        if k:
            banded.append((len(results), a, b, k))
            results.append(-1)
        else:
            results.append(_plain(a, b))
    banded.sort(key=lambda problem: len(problem[1]))
    for first in range(0, len(banded), _LANES):
        group = banded[first:first + _LANES]
        for (i, a, b, k), distance in zip(group, _lanes([p[1:] for p in group])):
            results[i] = distance if distance <= k else _plain(a, b)
    return results


def _cutoff(n: int, m: int) -> int:
    """The band's cutoff k for a text of n and a pattern of m <= n elements,
    or 0 where the window would cover more than half the pattern's rows and
    the plain loop runs instead.

    The cutoff grows with the pattern because page distances do: m // 8
    leaves every page of the evaluate benchmark (~1,200 characters, 2%
    substitutions) within it, where m // 16 left 14 of seed 1's 299 pages
    over it, each paying its lane and then the plain loop.
    """
    k = max(n - m, m // 8, 64)
    return k if 2 * (k + _BLOCK + 1) <= m else 0


# Problems per banded pass. Per-operation overhead, not width, sets the
# price of a big-int operation here: one column of Myers' step took 700 ns
# at 140 bits, 850 ns at 280 and 2,560 ns at 2,240 (eight lanes of 280
# bits; Python 3.11, Xeon). Over the pages of the evaluate benchmark, 8
# lanes took 645 us a page, 4 took 786, 6 656, 10 631 and 16 707: past
# eight, the wider vectors and the columns run after shorter lanes end
# eat the gain.
_LANES = 8

# Columns per block: each lane's window of k + _BLOCK + 1 rows moves down,
# and its masks are rebuilt, once per block. A longer block moves less
# often but widens every lane; 64 took 712-800 us a page, 96 674-683, 128
# 645 and 192 640.
_BLOCK = 128


def _symbol_masks(b: Sequence[Hashable]) -> dict[Hashable, int]:
    """Bit i of ``masks[x]`` is set where ``b[i] == x``."""
    masks: dict[Hashable, int] = {}
    for i, x in enumerate(b):
        masks[x] = masks.get(x, 0) | (1 << i)
    return masks


def _plain(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Myers' step over all ``len(b)`` rows; needs ``len(b) <= len(a)``."""
    n, m = len(a), len(b)
    if m == 0:
        return n
    mask = (1 << m) - 1
    pv, mv = mask, 0
    get = _symbol_masks(b).get
    for x in a:
        eq = get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    # Row 0 of the last column is n; the column's deltas add up to row m.
    return n + pv.bit_count() - mv.bit_count()


class _Lane:
    """One problem of a ``_lanes`` pass: its window of ``rows`` pattern
    rows, from row ``top + 1`` down, sits at bit ``offset`` of the shared
    vectors (``bits`` set there), with a zero guard bit above it. Row
    ``top`` has the value ``base + j`` in column j."""

    __slots__ = ("a", "n", "m", "slack", "rows", "offset", "bits", "top", "base",
                 "symbols", "masks")

    def __init__(self, a: Sequence[Hashable], b: Sequence[Hashable], k: int, offset: int):
        self.a, self.n, self.m = a, len(a), len(b)
        self.slack = (k - (self.n - self.m)) // 2
        self.rows = k + _BLOCK + 1
        self.offset = offset
        self.bits = ((1 << self.rows) - 1) << offset
        self.top = self.base = 0
        self.symbols = {x: v << offset for x, v in _symbol_masks(b).items()}
        self.move(0)

    def move(self, shift: int) -> None:
        """Move the window ``shift`` rows down and rebuild its masks."""
        self.top += shift
        top, bits = self.top, self.bits
        self.masks = {x: v >> top & bits for x, v in self.symbols.items()}


def _lanes(problems: Sequence[tuple[Sequence[Hashable], Sequence[Hashable], int]]) -> list[int]:
    """For each ``(a, b, k)``, the edit distance of ``a`` and ``b`` if it is
    at most ``k``, else a value above ``k``; needs
    ``0 < len(b) <= len(a) <= len(b) + k``.

    Ukkonen's cutoff (Information and Control 64, 1985) over Myers' step: an
    alignment of cost at most k never leaves the diagonals j - i with
    ``|j - i| + |j - i - (n - m)| <= k``, at most k + 1 of them. Each
    problem is a lane computing a window of ``k + _BLOCK + 1`` pattern rows
    that holds those diagonals for ``_BLOCK`` columns at a time, then moves
    down. Rows leave at the top, after which the row above the window gains
    +1 per column (an insertion), and enter at the bottom with delta +1 (a
    deletion), so every value computed is the cost of a real alignment,
    never below the distance. Every alignment inside the band lies in the
    window, so the result is exact whenever the distance is at most k.

    The lanes are packed into one pair of bit vectors, each above a zero
    guard bit, so one Myers step per column advances all of them (Hyyro,
    Fredriksson and Navarro, JEA 10, 2005). The guard stops the carry of
    ``(eq & pv) + pv`` out of a lane's top row; ``| lows`` sets the
    horizontal delta entering every lane's row 0, whatever the lane below
    shifted into it; and ``& window`` clears the guards in ``pv``, while
    ``mv`` stays inside the lanes because ``eq`` does. A lane's ``eq`` for a
    block is its masks mapped over its own text, OR-ed with the others'; a
    lane whose text ends inside a block is read at its own last column.
    """
    lanes = []
    offset = 0
    for a, b, k in problems:
        lanes.append(_Lane(a, b, k, offset))
        offset += lanes[-1].rows + 1
    window = sum(lane.bits for lane in lanes)
    lows = sum(1 << lane.offset for lane in lanes)
    pv, mv = window, 0
    results = [0] * len(lanes)
    width = max(lane.n for lane in lanes)
    for start in range(0, width, _BLOCK):
        eqs = [0] * min(_BLOCK, width - start)
        ends: dict[int, list[int]] = {}
        for j, lane in enumerate(lanes):
            if lane.n <= start:
                continue
            # Column start + 1 needs the rows from start + 1 - (n - m) - slack.
            shift = start - (lane.n - lane.m) - lane.slack - lane.top
            if shift > 0:
                bits = lane.bits
                dropped = ((1 << shift) - 1) << lane.offset
                lane.base += (pv & dropped).bit_count() - (mv & dropped).bit_count()
                kept = bits >> shift & bits
                pv = pv & ~bits | pv >> shift & kept | bits ^ kept
                mv = mv & ~bits | mv >> shift & kept
                lane.move(shift)
            chunk = lane.a[start:start + _BLOCK]
            eqs[:len(chunk)] = map(or_, eqs, map(lane.masks.get, chunk, repeat(0)))
            if lane.n <= start + _BLOCK:
                ends.setdefault(lane.n - start, []).append(j)
        done = 0
        for stop in sorted({*ends, len(eqs)}):
            for eq in eqs[done:stop]:
                xv = eq | mv
                xh = (((eq & pv) + pv) ^ pv) | eq
                ph = (mv | ~(xh | pv)) << 1 | lows
                mh = (pv & xh) << 1
                pv = (mh | ~(xv | ph)) & window
                mv = ph & xv
            done = stop
            for j in ends.get(stop, ()):
                lane = lanes[j]
                last = ((1 << (lane.m - lane.top)) - 1) << lane.offset
                results[j] = (lane.base + lane.n + (pv & last).bit_count()
                              - (mv & last).bit_count())
    return results


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
    return _text_rates(t_text, p_text, levenshtein(t_text, p_text))


def _text_rates(t_text: str, p_text: str, char_edits: int) -> ErrorRates:
    """Error counts of two tag-stripped texts ``char_edits`` apart."""
    t_words = t_text.split()
    return ErrorRates(
        char_edits=char_edits,
        char_total=len(t_text),
        word_edits=levenshtein(t_words, p_text.split()),
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


def _score_pages(
    pages: Sequence[tuple[str, PageTranscript, PageTranscript, bool]],
) -> list[PageResult]:
    """The results of ``(name, truth, pred, missing)`` pages, their
    character distances from one ``levenshtein_many`` call."""
    texts = [(strip_tags(truth), strip_tags(pred)) for _, truth, pred, _ in pages]
    results = []
    for (name, truth, pred, missing), (t_text, p_text), char_edits in zip(
        pages, texts, levenshtein_many(texts)
    ):
        truth_households = group_page(truth)
        matched = 0
        if len(truth.records) == len(pred.records):
            matched = match_count(group_page(pred), truth_households)
        results.append(PageResult(
            name=name,
            error_rates=_text_rates(t_text, p_text, char_edits),
            entities=entity_scores(truth, pred),
            households_matched=matched,
            households_total=len(truth_households),
            missing_prediction=missing,
        ))
    return results


# Pages read before their character distances are computed together: enough
# for levenshtein_many to pair pages of similar length in its lanes, few
# enough that a large corpus never holds all its transcripts (~50 KB a page)
# at once.
_PAGES_PER_BATCH = 64


def evaluate_corpus(truth_dir: str | Path, pred_dir: str | Path) -> CorpusReport:
    """Evaluate the pages of every fixture file in ``truth_dir`` against the
    file of the same name in ``pred_dir``.

    Pages are paired by file name and, within a file, by position; a page
    is named after its file, with ``#i`` appended when either the truth or
    the prediction file holds more than one page. Truth pages without a
    prediction are scored as fully deleted; predicted pages beyond the last
    page of their truth file count as pure insertions. A prediction file
    with no truth file of the same name is never read. Pages whose record
    counts differ contribute no household matches but keep their truth
    households in the denominator. The character distances of each batch
    of about ``_PAGES_PER_BATCH`` pages come from one ``levenshtein_many``
    call.
    """
    truth_dir = Path(truth_dir)
    pred_dir = Path(pred_dir)
    truth_files = sorted(p.name for p in truth_dir.glob("*.txt"))
    if not truth_files:
        raise NoMatchingPages(f"no fixture files in {truth_dir}")
    if not any((pred_dir / name).exists() for name in truth_files):
        raise NoMatchingPages(f"no prediction in {pred_dir} matches a truth file")

    results: list[PageResult] = []
    pages = []
    for name in truth_files:
        truth_pages = read_fixture(truth_dir / name)
        pred_path = pred_dir / name
        pred_pages = read_fixture(pred_path) if pred_path.exists() else []
        count = max(len(truth_pages), len(pred_pages))
        for i in range(count):
            truth = truth_pages[i] if i < len(truth_pages) else _empty_page(name, i)
            missing = i >= len(pred_pages)
            pred = pred_pages[i] if not missing else _empty_page(name, i)
            page_name = name if count <= 1 else f"{name}#{i}"
            pages.append((page_name, truth, pred, missing))
        if len(pages) >= _PAGES_PER_BATCH:
            results += _score_pages(pages)
            pages = []
    results += _score_pages(pages)

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


def _score_row(label: str, width: int, s: TagScore) -> str:
    """One report row: ``label`` padded to ``width``, then P, R, F1 and support."""
    return (f"{label:<{width}} {_fmt(s.precision, s.precision_defined):>8} "
            f"{_fmt(s.recall, s.recall_defined):>8} {_fmt(s.f1):>8} {s.support:>8}")


def _score_json(s: TagScore) -> dict:
    """A score's counts and rates as a JSON-ready dict; an undefined rate is None."""
    return {
        "tp": s.tp,
        "fp": s.fp,
        "fn": s.fn,
        "precision": s.precision if s.precision_defined else None,
        "recall": s.recall if s.recall_defined else None,
        "f1": s.f1,
        "support": s.support,
    }


def format_entity_report(scores: EntityScores) -> str:
    lines = [f"{'Tag':<14} {'P':>8} {'R':>8} {'F1':>8} {'Support':>8}"]
    for tag in FIELD_ORDER:
        lines.append(_score_row(NAME_FOR_TAG[tag], 14, scores.per_tag.get(tag, TagScore())))
    lines.append(_score_row("total", 14, scores.micro))
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
        lines.append(_score_row(cls.name, width, s))
    return "\n".join(lines)


def classification_report_json(cm: ConfusionMatrix) -> dict:
    """Confusion counts and per-class scores as a JSON-ready dict."""
    return {
        "total": cm.total,
        "counts": {
            p.name: {t.name: cm.count(p, t) for t in PageClass if cm.count(p, t)}
            for p in PageClass
        },
        "classes": {cls.name: _score_json(s) for cls, s in cm.scores().items()},
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
            NAME_FOR_TAG[tag]: _score_json(s) for tag, s in report.entities.per_tag.items()
        },
        "micro": {
            "precision": report.entities.micro.precision,
            "recall": report.entities.micro.recall,
            "f1": report.entities.micro.f1,
            "support": report.entities.micro.support,
        },
    }
