import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censusflow.domain import EntityTag, PageClass, PageTranscript, PersonRecord, write_fixture
from censusflow.metrics import (
    ConfusionMatrix,
    ErrorRates,
    NoMatchingPages,
    TagScore,
    classification_report,
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
        from censusflow.label_codec import SyntheticProfile, generate_synthetic_page

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

    def test_corpus_report_renders(self, tmp_path, golden):
        self._write(tmp_path / "truth", "a.txt", [golden])
        self._write(tmp_path / "pred", "a.txt", [golden])
        report = evaluate_corpus(tmp_path / "truth", tmp_path / "pred")
        assert "CER" in format_corpus_report(report)


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
