import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censusflow import metrics
from censusflow.domain import (
    EntityTag,
    PageClass,
    PageTranscript,
    PersonRecord,
    read_fixture,
    write_fixture,
)
from censusflow.fixtures import DEMO_GAZETTEER
from censusflow.household import group_page, match_count
from censusflow.ingest import similarity
from censusflow.label_codec import decode_lenient, encode
from censusflow.metrics import (
    ConfusionMatrix,
    CorpusReport,
    EntityScores,
    ErrorRates,
    NoMatchingPages,
    PageResult,
    TagScore,
    classification_report,
    corpus_report_json,
    entity_scores,
    error_rates,
    evaluate_corpus,
    format_classification_report,
    format_corpus_report,
    format_entity_report,
    _lcs_matches,
    levenshtein,
    page_entities,
    strip_tags,
)
from censusflow.pipeline import MockRecognizer, NoiseSpec

from conftest import generate_synthetic_page


def oracle_edit_distance(a, b):
    """Exhaustive recursion over all edit scripts; no memoization, so every
    deletion/insertion/substitution sequence is explored."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        oracle_edit_distance(a[1:], b) + 1,
        oracle_edit_distance(a, b[1:]) + 1,
        oracle_edit_distance(a[1:], b[1:]) + (a[0] != b[0]),
    )


def oracle_levenshtein_dp(a, b):
    """Plain-Python Wagner-Fischer row DP, kept as the reference for long
    sequences, where the exhaustive recursion is out of reach."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def oracle_lcs_matches(truth, pred):
    """Suffix-table LCS DP with the traceback ``_lcs_matches`` must
    reproduce item for item: at a mismatch, move down the truth when
    L[i+1][j] >= L[i][j+1], else along the prediction."""
    n, m = len(truth), len(pred)
    if n == 0 or m == 0:
        return []
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below = lengths[i], lengths[i + 1]
        t = truth[i]
        for j in range(m - 1, -1, -1):
            if t == pred[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = max(below[j], row[j + 1])
    matches = []
    i = j = 0
    while i < n and j < m:
        if truth[i] == pred[j]:
            matches.append(truth[i])
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    return matches


def single_field_page(tag: EntityTag, *values: str) -> PageTranscript:
    return PageTranscript(
        tuple(PersonRecord({tag: v}) for v in values), page_id="p"
    )


class TestLevenshtein:
    def test_exhaustive_small_strings(self):
        strings = [
            "".join(t) for n in range(4) for t in itertools.product("abc", repeat=n)
        ]
        for a in strings:
            for b in strings:
                assert levenshtein(a, b) == oracle_edit_distance(a, b)

    def test_sampled_pairs_up_to_length_8(self):
        rng = random.Random(1)
        for _ in range(150):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            assert levenshtein(a, b) == oracle_edit_distance(a, b)

    @given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle_property(self, a, b):
        assert levenshtein(a, b) == oracle_edit_distance(a, b)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_identity_is_zero(self, a):
        assert levenshtein(a, a) == 0

    def test_works_on_word_sequences(self):
        assert levenshtein(["a", "bb"], ["a", "cc", "bb"]) == 1

    def test_long_sequences_match_row_dp(self):
        # Bit vectors wider than one machine word: lengths up to 300,
        # word-boundary lengths on either side, alphabets of 1 to 4 symbols.
        rng = random.Random(7)
        boundary = (63, 64, 65, 128)
        lengths = [(x, y) for x in boundary for y in boundary]
        lengths += [(x, rng.randint(0, 300)) for x in boundary]
        lengths += [(rng.randint(0, 300), x) for x in boundary]
        lengths += [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(40)]
        for k, (la, lb) in enumerate(lengths):
            alphabet = "abcd"[: 1 + k % 4]
            a = "".join(rng.choice(alphabet) for _ in range(la))
            b = "".join(rng.choice(alphabet) for _ in range(lb))
            expected = oracle_levenshtein_dp(a, b)
            assert levenshtein(a, b) == expected, (la, lb, alphabet)
            assert levenshtein(b, a) == expected, (lb, la, alphabet)

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 128, 300])
    def test_one_empty_side(self, length):
        seq = "ab" * (length // 2) + "a" * (length % 2)
        assert levenshtein(seq, "") == length
        assert levenshtein("", seq) == length
        assert levenshtein(seq.split("b"), []) == len(seq.split("b"))

    def test_long_word_lists_match_row_dp(self):
        rng = random.Random(11)
        vocabulary = ["le", "la", "chef", "épouse", "fils", "75", "néant"]
        for la, lb in [(65, 64), (128, 130), (300, 17), (0, 90)]:
            a = [rng.choice(vocabulary) for _ in range(la)]
            b = [rng.choice(vocabulary) for _ in range(lb)]
            assert levenshtein(a, b) == oracle_levenshtein_dp(a, b)

    def test_mixed_elements_compare_as_dict_keys(self):
        # 1, 1.0 and True are one dict key; "1" and None are others.
        rng = random.Random(3)
        pool = [1, 1.0, True, "1", None, 2, 2.0]
        for la, lb in [(5, 7), (64, 65), (130, 70)]:
            a = [rng.choice(pool) for _ in range(la)]
            b = [rng.choice(pool) for _ in range(lb)]
            assert levenshtein(a, b) == oracle_levenshtein_dp(a, b)
        assert levenshtein([1, 2.0], [True, 2]) == 0
        assert levenshtein([1] * 70, [1.0] * 69 + [True]) == 0


PAGE_WORDS = ["Martin", "Bernard", "Dubois", "chef", "épouse", "fils", "fille",
              "cultivateur", "journalier", "néant", "1851", "37", "Vichy", "id."]


def page_text(rng: random.Random, length: int) -> str:
    """Census-page-like text of ``length`` characters: words, spaces and
    one record per line."""
    parts: list[str] = []
    size = 0
    while size < length:
        word = rng.choice(PAGE_WORDS)
        parts.append(word + ("\n" if rng.random() < 0.15 else " "))
        size += len(parts[-1])
    return "".join(parts)[:length]


def noisy(rng: random.Random, seq, rate: float, alphabet):
    """A copy of ``seq`` with each element substituted, deleted or followed
    by an insertion with probability ``rate`` in all."""
    out = []
    for x in seq:
        r = rng.random()
        if r < rate / 3:
            continue
        out.append(rng.choice(alphabet) if r < 2 * rate / 3 else x)
        if 2 * rate / 3 <= r < rate:
            out.append(rng.choice(alphabet))
    return "".join(out) if isinstance(seq, str) else out


def plain_loop(a, b):
    """``levenshtein`` by the plain loop over every pattern row, with no
    banded try."""
    if len(a) < len(b):
        a, b = b, a
    return metrics._plain(a, b)


def small_cutoff(n, m):
    """``_cutoff``'s rule with a floor of 2 in place of 64, so that pairs
    of a few dozen symbols reach the band."""
    k = max(n - m, m // 8, 2)
    return k if 2 * (k + metrics._BLOCK + 1) <= m else 0


@st.composite
def band_cases(draw):
    """A pattern, a text edited from it or drawn freely, and a cutoff from
    ``len(a) - len(b)`` (its least value) up."""
    b = draw(st.text(alphabet="abc", min_size=1, max_size=40))
    if draw(st.booleans()):
        a = list(b)
        for _ in range(draw(st.integers(0, 12))):
            i = draw(st.integers(0, len(a)))
            op = draw(st.sampled_from(("insert", "delete", "substitute")))
            if op == "insert":
                a.insert(i, draw(st.sampled_from("abc")))
            elif i < len(a):
                if op == "delete":
                    del a[i]
                else:
                    a[i] = draw(st.sampled_from("abc"))
        a = "".join(a)
    else:
        a = draw(st.text(alphabet="abc", max_size=45))
    if len(a) < len(b):
        a, b = b, a
    if not b:
        b, a = a[:1], a[1:] + a[:1]
    k = len(a) - len(b) + draw(st.integers(0, 16))
    return a, b, k


@st.composite
def mixed_pairs(draw):
    """A pair for ``levenshtein_many`` under ``small_cutoff`` and a block of
    2: band-eligible with few edits, band-eligible but over the cutoff,
    short, or with an empty side, in either order."""
    kind = draw(st.sampled_from(("near", "far", "short", "empty")))
    if kind == "empty":
        a, b = draw(st.text(alphabet="abc", max_size=30)), ""
    elif kind == "short":
        a = draw(st.text(alphabet="abc", max_size=13))
        b = draw(st.text(alphabet="abc", max_size=13))
    else:
        b = draw(st.text(alphabet="abc", min_size=14, max_size=60))
        if kind == "far":
            a = draw(st.text(alphabet="abc", min_size=len(b), max_size=len(b) + 3))
        else:
            a = list(b)
            for _ in range(draw(st.integers(0, 4))):
                i = draw(st.integers(0, len(a) - 1))
                a[i] = draw(st.sampled_from("abc"))
            a = "".join(a) + draw(st.text(alphabet="abc", max_size=3))
    return (b, a) if draw(st.booleans()) else (a, b)


@pytest.fixture
def banded_calls(monkeypatch):
    """The problem lists of every ``_lanes`` call made by the test."""
    calls = []
    lanes = metrics._lanes
    monkeypatch.setattr(metrics, "_lanes",
                        lambda problems: calls.append(problems) or lanes(problems))
    return calls


class TestBandedPass:
    @given(st.lists(band_cases(), min_size=1, max_size=9), st.sampled_from((1, 2, 3, 5, 128)))
    @settings(max_examples=300, deadline=None)
    def test_exact_within_the_cutoff_and_above_it_otherwise(self, cases, block):
        # A small block slides the windows many times on short inputs.
        with mock.patch.object(metrics, "_BLOCK", block):
            got = metrics._lanes(cases)
        for (a, b, k), distance in zip(cases, got):
            expected = oracle_levenshtein_dp(a, b)
            if expected <= k:
                assert distance == expected, (a, b, k, block)
            else:
                assert distance > k, (a, b, k, block)

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
    def test_lengths_across_block_boundaries(self, block):
        # Each batch holds every text length for one pattern length, so
        # lanes end at every column of a block.
        rng = random.Random(block)
        with mock.patch.object(metrics, "_BLOCK", block):
            for m in range(1, 4 * block + 3):
                cases = []
                for extra in range(0, 2 * block + 2):
                    b = "".join(rng.choice("ab") for _ in range(m))
                    a = noisy(rng, b, 0.3, "ab") + "".join(rng.choice("ab") for _ in range(extra))
                    if len(a) < len(b):
                        a, b = b, a
                    expected = oracle_levenshtein_dp(a, b)
                    for k in (len(a) - len(b), len(a) - len(b) + 1, expected, expected + 3):
                        if k >= len(a) - len(b):
                            cases.append((a, b, k, expected))
                got = metrics._lanes([case[:3] for case in cases])
                for (a, b, k, expected), distance in zip(cases, got):
                    assert distance == expected if expected <= k else distance > k, (a, b, k)

    def test_a_carry_out_of_every_column_stays_in_its_lane(self):
        # An identical one-symbol pair: eq and pv are all ones in its
        # window, so (eq & pv) + pv carries out of its top row at every
        # column, into the guard below the next lane.
        rng = random.Random(31)
        alphabet = "abcdefghijklmnopqrstuvwxyz "
        below = page_text(rng, 640)
        above = page_text(rng, 600)
        problems = [
            (below, noisy(rng, below, 0.04, alphabet)),
            ("a" * 400, "a" * 400),
            (above, noisy(rng, above, 0.04, alphabet)),
        ]
        problems = [(a, b) if len(a) >= len(b) else (b, a) for a, b in problems]
        problems = [(a, b, metrics._cutoff(len(a), len(b))) for a, b in problems]
        assert all(k for _, _, k in problems)
        got = metrics._lanes(problems)
        assert got == [metrics._lanes([problem])[0] for problem in problems]
        assert got == [oracle_levenshtein_dp(a, b) for a, b, _ in problems]
        assert got[1] == 0

    @given(st.lists(mixed_pairs(), min_size=1, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_batches_of_mixed_pairs_match_the_oracle(self, pairs):
        with mock.patch.object(metrics, "_BLOCK", 2), \
                mock.patch.object(metrics, "_cutoff", small_cutoff):
            got = metrics.levenshtein_many(pairs)
        assert got == [oracle_levenshtein_dp(a, b) for a, b in pairs]

    def test_long_page_text_matches_the_plain_loop(self, banded_calls):
        rng = random.Random(19)
        alphabet = "abcdefghijklmnopqrstuvwxyzé0123456789 \n"
        pairs = []
        for length, rate in [(400, 0.04), (1200, 0.04), (2800, 0.04), (2800, 0.08),
                             (1200, 0.3), (2800, 0.0), (1100, 0.02), (1300, 0.02),
                             (1250, 0.06), (900, 0.01)]:
            truth = page_text(rng, length)
            pred = noisy(rng, truth, rate, alphabet)
            pairs.append((truth, pred) if rng.random() < 0.5 else (pred, truth))
        expected = [plain_loop(a, b) for a, b in pairs]
        assert metrics.levenshtein_many(pairs) == expected
        assert len(banded_calls) == 2
        assert sorted(map(len, banded_calls)) == [2, 8]
        assert [levenshtein(a, b) for a, b in pairs] == expected
        assert len(banded_calls) == 2 + 10
        truth = page_text(rng, 600)
        pred = noisy(rng, truth, 0.05, alphabet)
        assert levenshtein(truth, pred) == oracle_levenshtein_dp(truth, pred)

    def test_long_word_lists_match_the_plain_loop(self, banded_calls):
        rng = random.Random(23)
        pairs = []
        for length, rate in [(400, 0.05), (600, 0.1), (900, 0.02)]:
            truth = [rng.choice(PAGE_WORDS) for _ in range(length)]
            pairs.append((truth, noisy(rng, truth, rate, PAGE_WORDS + ["Vichi", "fils."])))
        expected = [oracle_levenshtein_dp(a, b) for a, b in pairs]
        assert [plain_loop(a, b) for a, b in pairs] == expected
        assert [levenshtein(a, b) for a, b in pairs] == expected
        assert metrics.levenshtein_many(pairs) == expected
        assert list(map(len, banded_calls)) == [1, 1, 1, 3]

    def test_names_and_page_word_lists_take_the_plain_loop(self, banded_calls):
        names = [entry.canonical_name for entry in DEMO_GAZETTEER]
        names += [name for entry in DEMO_GAZETTEER for name in entry.valid_names]
        for name in names:
            for other in names:
                similarity(name, other)
            similarity(name, name[::-1] + "-sur-Allier")
        rng = random.Random(29)
        lists = []
        for length in (150, 200, 230, 257, 385):
            truth = [rng.choice(PAGE_WORDS) for _ in range(length)]
            lists += [(truth, noisy(rng, truth, 0.1, PAGE_WORDS)), (truth, truth[: length // 2])]
        for a, b in lists:
            levenshtein(a, b)
        metrics.levenshtein_many(lists)
        assert banded_calls == []
        truth = page_text(rng, 1200)
        levenshtein(truth, noisy(rng, truth, 0.04, "xyz"))
        assert len(banded_calls) == 1


class TestLcsMatches:
    items = st.tuples(
        st.sampled_from([EntityTag.SURNAME, EntityTag.AGE, EntityTag.LINK]),
        st.sampled_from(["a", "b", "c"]),
    )

    @given(st.lists(items, max_size=40), st.lists(items, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_same_matched_items_as_table_dp(self, truth, pred):
        assert _lcs_matches(truth, pred) == oracle_lcs_matches(truth, pred)

    def test_long_pages_same_matched_items(self):
        # Rows wider than one machine word, as on a full register page.
        rng = random.Random(5)
        tags = [EntityTag.SURNAME, EntityTag.FIRSTNAME, EntityTag.AGE]
        for n, m in [(63, 64), (65, 128), (200, 190), (1, 150), (150, 1)]:
            truth = [(rng.choice(tags), rng.choice("xyz")) for _ in range(n)]
            pred = [(rng.choice(tags), rng.choice("xyz")) for _ in range(m)]
            matched = _lcs_matches(truth, pred)
            assert matched == oracle_lcs_matches(truth, pred)
            assert len(matched) > 0


class TestErrorRates:
    def test_identical_transcripts(self, golden):
        rates = error_rates(golden, golden)
        assert rates.cer == 0.0 and rates.wer == 0.0

    def test_single_substituted_char(self):
        truth = single_field_page(EntityTag.LINK, "chef")
        pred = single_field_page(EntityTag.LINK, "chez")
        rates = error_rates(truth, pred)
        assert rates.cer == 0.25
        assert rates.wer == 1.0

    def test_deleted_word(self):
        truth = PageTranscript(
            (PersonRecord.from_names(surname="Gendre", firstname="Pierre"),), page_id="t"
        )
        pred = PageTranscript((PersonRecord.from_names(surname="Gendre"),), page_id="p")
        rates = error_rates(truth, pred)
        assert rates.char_edits == 7 and rates.char_total == 13
        assert rates.cer == pytest.approx(7 / 13)
        assert rates.wer == 0.5

    def test_empty_truth_flagged_infinite(self):
        truth = PageTranscript((), page_id="t")
        pred = single_field_page(EntityTag.AGE, "5")
        rates = error_rates(truth, pred)
        assert math.isinf(rates.cer)

    def test_empty_both_is_zero(self):
        empty = PageTranscript((), page_id="t")
        assert error_rates(empty, empty).cer == 0.0

    def test_strip_tags_layout(self, golden):
        text = strip_tags(golden)
        assert text.splitlines()[0] == "Gendre Pierre cultivateur chef patron 75 française"

    def test_counts_add(self):
        total = ErrorRates(1, 4, 1, 1) + ErrorRates(1, 4, 0, 1)
        assert total.cer == 0.25 and total.wer == 0.5


class TestEntityScores:
    def test_identical_pages(self, golden):
        scores = entity_scores(golden, golden)
        micro = scores.micro
        assert micro.precision == micro.recall == micro.f1 == 1.0
        assert micro.support == len(page_entities(golden))

    def test_exact_match_required(self):
        truth = single_field_page(EntityTag.AGE, "75")
        pred = single_field_page(EntityTag.AGE, "76")
        score = entity_scores(truth, pred).per_tag[EntityTag.AGE]
        assert (score.tp, score.fp, score.fn) == (0, 1, 1)
        assert score.f1 == 0.0

    def test_order_preserving_alignment(self):
        truth = PageTranscript(
            (PersonRecord({EntityTag.FIRSTNAME: "Pierre", EntityTag.AGE: "75"}),), page_id="t"
        )
        pred = PageTranscript(
            (
                PersonRecord({EntityTag.AGE: "75"}),
                PersonRecord({EntityTag.FIRSTNAME: "Pierre"}),
            ),
            page_id="p",
        )
        micro = entity_scores(truth, pred).micro
        # Crossing pairs: the LCS keeps only one of the two.
        assert (micro.tp, micro.fp, micro.fn) == (1, 1, 1)

    def test_micro_f1_one_iff_identical_sequences(self):
        truth = single_field_page(EntityTag.SURNAME, "A", "B")
        same = single_field_page(EntityTag.SURNAME, "A", "B")
        swapped = single_field_page(EntityTag.SURNAME, "B", "A")
        assert entity_scores(truth, same).micro.f1 == 1.0
        assert entity_scores(truth, swapped).micro.f1 < 1.0

    @given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=3000))
    @settings(max_examples=50, deadline=None)
    def test_micro_f1_one_iff_identical_property(self, seed_a, seed_b):
        from censusflow.label_codec import SyntheticProfile

        from conftest import generate_synthetic_page

        profile = SyntheticProfile(min_rows=2, max_rows=5)
        a = generate_synthetic_page(seed_a, profile)
        b = generate_synthetic_page(seed_b, profile)
        micro = entity_scores(a, b).micro
        if page_entities(a) == page_entities(b):
            assert micro.f1 == 1.0
        else:
            assert micro.f1 < 1.0

    def test_support_is_truth_count(self, golden):
        empty = PageTranscript((), page_id="e")
        scores = entity_scores(golden, empty)
        assert scores.micro.support == len(page_entities(golden))
        assert scores.micro.recall == 0.0

    def test_report_renders(self, golden):
        text = format_entity_report(entity_scores(golden, golden))
        assert "surname_head" in text and "total" in text


# Published-style confusion counts used as a cross-check of the matrix
# arithmetic: (predicted class, truth class) -> count.
TEST_MATRIX_COUNTS = {
    (PageClass.FRONT, PageClass.FRONT): 14,
    (PageClass.LIST, PageClass.LIST): 145,
    (PageClass.LIST, PageClass.OTHER): 2,
    (PageClass.RECAP, PageClass.RECAP): 10,
    (PageClass.RECAP, PageClass.OTHER): 2,
    (PageClass.TOTALS, PageClass.TOTALS): 13,
    (PageClass.OTHER, PageClass.OTHER): 5,
    (PageClass.OTHER, PageClass.FRONT): 1,
    (PageClass.OTHER, PageClass.RECAP): 1,
}


class TestClassificationReport:
    def test_all_correct_pairs(self):
        pairs = [(PageClass.LIST, PageClass.LIST)] * 7 + [(PageClass.FRONT, PageClass.FRONT)] * 3
        cm = classification_report(pairs)
        scores = cm.scores()
        assert scores[PageClass.LIST].precision == 1.0
        assert scores[PageClass.LIST].recall == 1.0
        assert cm.count(PageClass.LIST, PageClass.FRONT) == 0

    def test_reference_matrix_arithmetic(self):
        cm = ConfusionMatrix.from_counts(TEST_MATRIX_COUNTS)
        scores = cm.scores()
        assert scores[PageClass.LIST].precision == pytest.approx(145 / 147, abs=1e-9)
        assert scores[PageClass.LIST].recall == 1.0
        assert scores[PageClass.FRONT].recall == pytest.approx(14 / 15)
        assert scores[PageClass.OTHER].precision == pytest.approx(5 / 7)
        assert scores[PageClass.OTHER].recall == pytest.approx(5 / 9)
        assert cm.total == 193

    def test_recall_is_diagonal_over_column_sum(self):
        cm = ConfusionMatrix.from_counts(TEST_MATRIX_COUNTS)
        for cls, score in cm.scores().items():
            column = sum(cm.count(p, cls) for p in PageClass)
            if column:
                assert score.recall == pytest.approx(cm.count(cls, cls) / column)

    def test_empty_pairs_flagged_undefined(self):
        cm = classification_report([])
        assert cm.total == 0
        for score in cm.scores().values():
            assert not score.precision_defined and not score.recall_defined

    def test_truth_pred_orientation(self):
        # One OTHER page misread as LIST: truth=OTHER, predicted=LIST.
        cm = classification_report([(PageClass.OTHER, PageClass.LIST)])
        assert cm.count(PageClass.LIST, PageClass.OTHER) == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_counts({(PageClass.LIST, PageClass.LIST): -1})

    def test_report_renders(self):
        text = format_classification_report(ConfusionMatrix.from_counts(TEST_MATRIX_COUNTS))
        assert "145" in text and "pred\\truth" in text

    def test_json_report_carries_raw_counts(self):
        from censusflow.metrics import classification_report_json

        data = classification_report_json(ConfusionMatrix.from_counts(TEST_MATRIX_COUNTS))
        assert data["counts"]["LIST"]["LIST"] == 145
        assert data["counts"]["LIST"]["OTHER"] == 2
        assert data["classes"]["LIST"]["precision"] == pytest.approx(145 / 147)
        assert data["total"] == 193


class TestEvaluateCorpus:
    def _write(self, directory, name, pages):
        directory.mkdir(parents=True, exist_ok=True)
        write_fixture(pages, directory / name)

    def test_identical_dirs_are_perfect(self, tmp_path, golden):
        self._write(tmp_path / "truth", "a.txt", [golden])
        self._write(tmp_path / "pred", "a.txt", [golden])
        report = evaluate_corpus(tmp_path / "truth", tmp_path / "pred")
        assert report.error_rates.cer == 0.0
        assert report.entities.micro.f1 == 1.0
        assert report.household_accuracy == 1.0

    def test_missing_prediction_counts_as_deleted(self, tmp_path, golden):
        other = PageTranscript((PersonRecord.from_names(surname_head="Solo"),), page_id="b")
        self._write(tmp_path / "truth", "a.txt", [golden])
        self._write(tmp_path / "truth", "b.txt", [other])
        self._write(tmp_path / "pred", "a.txt", [golden])
        report = evaluate_corpus(tmp_path / "truth", tmp_path / "pred")
        truth_chars = len(strip_tags(other))
        assert report.error_rates.char_edits == truth_chars
        missing = [p for p in report.pages if p.missing_prediction]
        assert len(missing) == 1

    def test_no_matching_pages(self, tmp_path, golden):
        self._write(tmp_path / "truth", "a.txt", [golden])
        (tmp_path / "pred").mkdir()
        with pytest.raises(NoMatchingPages):
            evaluate_corpus(tmp_path / "truth", tmp_path / "pred")

    def test_empty_truth_dir(self, tmp_path):
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        with pytest.raises(NoMatchingPages):
            evaluate_corpus(tmp_path / "truth", tmp_path / "pred")

    def test_household_mismatch_counts_zero_matches(self, tmp_path, golden):
        shorter = PageTranscript(golden.records[:3], page_id="golden")
        self._write(tmp_path / "truth", "a.txt", [golden])
        self._write(tmp_path / "pred", "a.txt", [shorter])
        report = evaluate_corpus(tmp_path / "truth", tmp_path / "pred")
        assert report.households_matched == 0
        assert report.households_total == 2

    def test_pages_are_numbered_when_either_file_holds_several(self, tmp_path, golden):
        other = PageTranscript(golden.records[:2], page_id="golden")
        self._write(tmp_path / "truth", "f.txt", [golden])
        self._write(tmp_path / "pred", "f.txt", [golden, other])
        self._write(tmp_path / "truth", "g.txt", [golden, other])
        self._write(tmp_path / "pred", "g.txt", [golden])
        self._write(tmp_path / "truth", "h.txt", [golden])
        self._write(tmp_path / "pred", "h.txt", [other])
        report = evaluate_corpus(tmp_path / "truth", tmp_path / "pred")
        assert [(p.name, p.missing_prediction) for p in report.pages] == [
            ("f.txt#0", False), ("f.txt#1", False),
            ("g.txt#0", False), ("g.txt#1", True),
            ("h.txt", False),
        ]
        inserted = report.pages[1].error_rates
        assert (inserted.char_total, inserted.char_edits) == (0, len(strip_tags(other)))

    def test_corpus_report_renders(self, tmp_path, golden):
        self._write(tmp_path / "truth", "a.txt", [golden])
        self._write(tmp_path / "pred", "a.txt", [golden])
        report = evaluate_corpus(tmp_path / "truth", tmp_path / "pred")
        assert "CER" in format_corpus_report(report)


def per_page_report(truth_dir: Path, pred_dir: Path) -> CorpusReport:
    """``evaluate_corpus`` assembled one page at a time from the single-pair
    functions, as it was before its character distances were batched."""
    results = []
    for name in sorted(p.name for p in truth_dir.glob("*.txt")):
        truth_pages = read_fixture(truth_dir / name)
        pred_pages = read_fixture(pred_dir / name) if (pred_dir / name).exists() else []
        count = max(len(truth_pages), len(pred_pages))
        for i in range(count):
            empty = PageTranscript((), page_id=name, page_index_in_register=i)
            truth = truth_pages[i] if i < len(truth_pages) else empty
            missing = i >= len(pred_pages)
            pred = empty if missing else pred_pages[i]
            truth_households = group_page(truth)
            matched = 0
            if len(truth.records) == len(pred.records):
                matched = match_count(group_page(pred), truth_households)
            results.append(PageResult(
                name=name if count <= 1 else f"{name}#{i}",
                error_rates=error_rates(truth, pred),
                entities=entity_scores(truth, pred),
                households_matched=matched,
                households_total=len(truth_households),
                missing_prediction=missing,
            ))
    rates, entities = ErrorRates.ZERO, EntityScores({})
    for r in results:
        rates, entities = rates + r.error_rates, entities + r.entities
    return CorpusReport(
        error_rates=rates,
        entities=entities,
        households_matched=sum(r.households_matched for r in results),
        households_total=sum(r.households_total for r in results),
        pages=tuple(results),
    )


def noisy_corpus(root: Path, seed: int, noise: float, pages: int = 10) -> tuple[Path, Path]:
    """Truth pages of ~1,000-1,400 tag-stripped chars and the mock
    recognizer's reading of them with ``noise`` character substitutions and
    2% dropped fields; the last page's prediction file is left out and the
    first one holds an extra page."""
    truth_dir, pred_dir = root / "truth", root / "pred"
    truth_dir.mkdir(parents=True)
    pred_dir.mkdir(parents=True)
    recognizer = MockRecognizer(seed, NoiseSpec(char_substitution=noise, entity_drop=0.02))
    predicted = []
    for i in range(pages):
        page = generate_synthetic_page(1000 * seed + i, page_id=f"p{i}")
        write_fixture([page], truth_dir / f"p{i:02d}.txt")
        label = json.dumps({"identifier": f"p{i}", "page_class": "LIST", "label": encode(page)})
        predicted.append(decode_lenient(recognizer.recognize(label.encode())).transcript)
    write_fixture(predicted[:2], pred_dir / "p00.txt")
    for i in range(1, pages - 1):
        write_fixture([predicted[i]], pred_dir / f"p{i:02d}.txt")
    return truth_dir, pred_dir


class TestEvaluateCorpusOracle:
    @pytest.mark.parametrize("seed, noise", [(1, 0.02), (2, 0.08), (3, 0.3)])
    def test_report_equals_the_per_page_report(self, tmp_path, seed, noise, banded_calls):
        truth_dir, pred_dir = noisy_corpus(tmp_path, seed, noise)
        plain = metrics._plain
        texts = []

        def counted(a, b):
            if isinstance(a, str):
                texts.append(a)
            return plain(a, b)

        with mock.patch.object(metrics, "_plain", counted):
            report = evaluate_corpus(truth_dir, pred_dir)
        # The empty sides of the extra and the missing page take the plain
        # loop; at 30% noise so does every page, its distance over the cutoff.
        assert len(texts) == (2 + 9 if noise > 0.2 else 2)
        expected = per_page_report(truth_dir, pred_dir)
        assert corpus_report_json(report) == corpus_report_json(expected)
        assert report.pages == expected.pages
        assert [(p.name, p.missing_prediction) for p in report.pages][:2] == [
            ("p00.txt#0", False), ("p00.txt#1", False)]
        assert report.pages[-1].missing_prediction
        # One batch of eight lanes and one of the rest, then one lane per
        # page for the oracle's single pairs.
        assert list(map(len, banded_calls[:2])) == [8, 1]

    def test_pages_scored_in_batches_give_the_same_report(self, tmp_path, banded_calls):
        # A batch closes after the file that fills it: p00's two pages and
        # p01 (the extra page's empty truth takes the plain loop), then
        # three files of one page twice, then the missing p08.
        truth_dir, pred_dir = noisy_corpus(tmp_path, 5, 0.04, pages=9)
        with mock.patch.object(metrics, "_PAGES_PER_BATCH", 3):
            report = evaluate_corpus(truth_dir, pred_dir)
        assert list(map(len, banded_calls)) == [2, 3, 3]
        expected = per_page_report(truth_dir, pred_dir)
        assert report.pages == expected.pages
        assert corpus_report_json(report) == corpus_report_json(expected)

    def test_a_stray_prediction_file_is_never_read(self, tmp_path):
        # A prediction file with no truth file of its name adds no page,
        # not even as insertions, and is not opened: one that is not a
        # fixture at all raises nothing.
        truth_dir, pred_dir = noisy_corpus(tmp_path, 4, 0.05, pages=3)
        before = corpus_report_json(evaluate_corpus(truth_dir, pred_dir))
        (pred_dir / "stray.txt").write_bytes((pred_dir / "p01.txt").read_bytes())
        (pred_dir / "garbage.txt").write_bytes(b"\xff\xfe not a fixture\n")
        assert corpus_report_json(evaluate_corpus(truth_dir, pred_dir)) == before


class TestTagScore:
    def test_precision_recall_f1(self):
        score = TagScore(tp=6, fp=2, fn=2)
        assert score.precision == 0.75
        assert score.recall == 0.75
        assert score.f1 == 0.75
        assert score.support == 8

    def test_undefined_flags(self):
        score = TagScore()
        assert not score.precision_defined
        assert score.precision == 0.0


def test_package_imports_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import censusflow.cli, censusflow.metrics, censusflow.ingest\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
