import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censusflow.domain import (
    DEFAULT_ALPHABET,
    EntityTag,
    PageTranscript,
    PersonRecord,
    TagAlphabet,
    load_alphabet,
    validate_record,
)
from censusflow.label_codec import (
    DEFAULT_TOKEN_BUDGET,
    DecodeWarning,
    InvalidProfile,
    LabelString,
    MalformedLabel,
    SyntheticProfile,
    TokenBudgetExceeded,
    WarningKind,
    count_tokens,
    decode_lenient,
    decode_strict,
    encode,
)

from conftest import GOLDEN_LABEL, generate_synthetic_page


# ---------------------------------------------------------------------------
# Oracle: the per-character scanner and event-driven state machine that the
# one-pass decoder replaced. The decoder must give the same records, warnings
# and strict errors on every input.
# ---------------------------------------------------------------------------

_TAG = "tag"
_TEXT = "text"
_UNKNOWN = "unknown"
_NEWLINE = "newline"
_LEADING_TAGS = (EntityTag.SURNAME_HEAD, EntityTag.SURNAME)
_UNKNOWN_TOKEN_RE = re.compile(r"<[^<>\s]{0,16}>")


def match_at(alphabet, text, pos):
    """The tag whose surface form starts at ``pos``, if any. Surfaces are
    ``<...>`` with no ``>`` inside, so at most one can start there."""
    for tag, surface in alphabet.tokens.items():
        if text.startswith(surface, pos):
            return tag
    return None


def oracle_scan(text, alphabet):
    """Tokenize a label into (kind, 1-based position, payload) events."""
    i = 0
    n = len(text)
    buf_start = 0
    while i < n:
        c = text[i]
        if c == "\n":
            if buf_start < i:
                yield _TEXT, buf_start + 1, text[buf_start:i]
            yield _NEWLINE, i + 1, None
            i += 1
            buf_start = i
        elif c == "<":
            tag = match_at(alphabet, text, i)
            if tag is not None:
                if buf_start < i:
                    yield _TEXT, buf_start + 1, text[buf_start:i]
                yield _TAG, i + 1, tag
                i += len(alphabet.token_for(tag))
            else:
                m = _UNKNOWN_TOKEN_RE.match(text, i)
                token = m.group(0) if m else "<"
                if buf_start < i:
                    yield _TEXT, buf_start + 1, text[buf_start:i]
                yield _UNKNOWN, i + 1, token
                i += len(token)
            buf_start = i
        else:
            i += 1
    if buf_start < n:
        yield _TEXT, buf_start + 1, text[buf_start:n]


class OracleParser:
    def __init__(self, strict):
        self.strict = strict
        self.records = []
        self.warnings = []
        self.fields = {}
        self.record_start = None
        self.cur_tag = None
        self.cur_pos = 0
        self.buf = []
        self.dropping = False

    def warn(self, position, kind):
        self.warnings.append(DecodeWarning(position, kind))

    def close_field(self):
        if self.cur_tag is None:
            return
        value = "".join(self.buf)
        if value.startswith(" "):
            value = value[1:]
        if value.endswith(" "):
            value = value[:-1]
        if value == "":
            if self.strict:
                raise MalformedLabel(self.cur_pos, f"empty value for {self.cur_tag.name}")
            self.warn(self.cur_pos, WarningKind.EMPTY_FIELD)
        else:
            self.fields[self.cur_tag] = value
        self.cur_tag = None
        self.buf = []

    def close_record(self):
        self.close_field()
        if self.fields:
            if not self.strict and not any(t in self.fields for t in _LEADING_TAGS):
                self.warn(self.record_start or 1, WarningKind.RECORD_WITHOUT_SURNAME)
            self.records.append(PersonRecord(self.fields))
        self.fields = {}
        self.record_start = None

    def feed(self, kind, pos, payload):
        if kind == _NEWLINE:
            self.dropping = False
            self.close_record()
        elif kind == _TAG:
            tag = payload
            self.dropping = False
            if tag in _LEADING_TAGS:
                if self.fields or self.cur_tag is not None:
                    self.close_record()
            elif tag in self.fields or tag is self.cur_tag:
                if self.strict:
                    raise MalformedLabel(pos, f"duplicate field {tag.name}")
                self.warn(pos, WarningKind.DUPLICATE_FIELD_IN_RECORD)
                self.close_record()
            else:
                self.close_field()
            if self.record_start is None:
                self.record_start = pos
            self.cur_tag = tag
            self.cur_pos = pos
            self.buf = []
        elif kind == _TEXT:
            if self.dropping:
                return
            if self.cur_tag is None:
                if self.strict:
                    raise MalformedLabel(pos, "text before the first tag")
                self.warn(pos, WarningKind.UNKNOWN_TOKEN)
            else:
                self.buf.append(payload)
        elif kind == _UNKNOWN:
            if self.strict:
                raise MalformedLabel(pos, f"unknown token {payload!r}")
            if self.dropping:
                return
            self.close_field()
            self.warn(pos, WarningKind.UNKNOWN_TOKEN)
            self.dropping = True

    def finish(self):
        self.close_record()
        self.warnings.sort(key=lambda w: (w.position, w.kind.value))


def oracle_decode(text, alphabet, strict):
    """(records, warnings) of the old decoder; raises MalformedLabel when strict."""
    parser = OracleParser(strict)
    for event in oracle_scan(text, alphabet):
        parser.feed(*event)
    parser.finish()
    return tuple(parser.records), tuple(parser.warnings)


class TestEncode:
    def test_golden_page(self, golden):
        assert encode(golden).text == GOLDEN_LABEL

    def test_empty_page(self):
        assert encode(PageTranscript((), page_id="e")).text == ""

    def test_canonical_order_single_record(self):
        page = PageTranscript(
            (PersonRecord.from_names(surname_head="A", age="5"),), page_id="p"
        )
        assert encode(page).text == "<s-h>A <a>5"

    def test_insertion_order_does_not_matter(self):
        forward = PersonRecord(
            {EntityTag.SURNAME_HEAD: "A", EntityTag.AGE: "5", EntityTag.LINK: "chef"}
        )
        backward = PersonRecord(
            {EntityTag.LINK: "chef", EntityTag.AGE: "5", EntityTag.SURNAME_HEAD: "A"}
        )
        one = encode(PageTranscript((forward,), page_id="x")).text
        two = encode(PageTranscript((backward,), page_id="x")).text
        assert one == two == "<s-h>A <l>chef <a>5"

    def test_invalid_record_rejected(self):
        page = PageTranscript((PersonRecord({EntityTag.AGE: ""}),), page_id="p")
        with pytest.raises(ValueError, match="EmptyValue"):
            encode(page)

    def test_token_budget_exceeded(self, golden):
        with pytest.raises(TokenBudgetExceeded):
            encode(golden, token_budget=10)

    def test_default_budget_holds_for_golden(self, golden):
        label = encode(golden)
        assert label.token_budget == DEFAULT_TOKEN_BUDGET
        assert count_tokens(label.text) <= DEFAULT_TOKEN_BUDGET

    def test_token_count_tags_are_single_tokens(self):
        # 2 tags + 1 char + separator + 2 chars
        assert count_tokens("<s-h>A <a>75") == 2 + 1 + 1 + 2


class TestDecodeStrict:
    def test_golden_roundtrip(self, golden):
        decoded = decode_strict(GOLDEN_LABEL, page_id="golden", page_index=0)
        assert decoded == golden
        assert [r.is_head for r in decoded.records] == [True, False, True, False]

    def test_empty_string(self):
        assert decode_strict("").records == ()

    def test_accepts_plain_str_and_labelstring(self):
        assert decode_strict(LabelString("<s>A")) == decode_strict("<s>A")

    def test_second_head_token_starts_new_record(self):
        page = decode_strict("<s-h>Gendre <s-h>Martin")
        assert len(page.records) == 2
        assert [r.fields[EntityTag.SURNAME_HEAD] for r in page.records] == ["Gendre", "Martin"]

    def test_unknown_token_rejected(self):
        with pytest.raises(MalformedLabel) as err:
            decode_strict("<s>Par<z>aud")
        assert err.value.position == 7

    def test_text_before_first_tag_rejected(self):
        with pytest.raises(MalformedLabel) as err:
            decode_strict("Gendre <f>Pierre")
        assert err.value.position == 1

    def test_duplicate_field_rejected(self):
        with pytest.raises(MalformedLabel):
            decode_strict("<s>A <a>5 <a>6")

    def test_empty_field_rejected(self):
        with pytest.raises(MalformedLabel):
            decode_strict("<s>A <a> <l>chef")

    def test_space_between_tag_and_value_accepted(self):
        assert decode_strict("<s-h> Gendre") == decode_strict("<s-h>Gendre")

    def test_decoded_records_are_valid(self, golden):
        for record in decode_strict(GOLDEN_LABEL).records:
            assert validate_record(record) == []


class TestDecodeLenient:
    def test_agrees_with_strict_on_clean_input(self, golden):
        report = decode_lenient(GOLDEN_LABEL, page_id="golden")
        assert report.transcript == decode_strict(GOLDEN_LABEL, page_id="golden")
        assert report.warnings == ()

    def test_record_without_surname_warns(self):
        report = decode_lenient("<f>Pierre <a>75")
        assert len(report.transcript.records) == 1
        assert [w.kind for w in report.warnings] == [WarningKind.RECORD_WITHOUT_SURNAME]

    def test_unknown_token_drops_trailing_text(self):
        report = decode_lenient("<s>Par<z>aud <a>66")
        (record,) = report.transcript.records
        assert record.fields == {EntityTag.SURNAME: "Par", EntityTag.AGE: "66"}
        assert report.warnings == ((7, WarningKind.UNKNOWN_TOKEN),)

    def test_repeated_tag_opens_record_with_warning(self):
        report = decode_lenient("<s>A <a>5 <a>6")
        assert len(report.transcript.records) == 2
        assert WarningKind.DUPLICATE_FIELD_IN_RECORD in {w.kind for w in report.warnings}

    def test_empty_field_dropped_with_warning(self):
        report = decode_lenient("<s>A <a> <l>chef")
        (record,) = report.transcript.records
        assert EntityTag.AGE not in record.fields
        assert WarningKind.EMPTY_FIELD in {w.kind for w in report.warnings}

    def test_leading_text_dropped_with_warning(self):
        report = decode_lenient("noise <s>A")
        (record,) = report.transcript.records
        assert record.fields == {EntityTag.SURNAME: "A"}
        assert WarningKind.UNKNOWN_TOKEN in {w.kind for w in report.warnings}

    def test_stray_bracket_cannot_swallow_a_later_tag(self):
        report = decode_lenient("<s>Par< <a>66")
        (record,) = report.transcript.records
        assert record.fields == {EntityTag.SURNAME: "Par", EntityTag.AGE: "66"}
        assert [w.kind for w in report.warnings] == [WarningKind.UNKNOWN_TOKEN]

    def test_warnings_sorted_by_position(self):
        report = decode_lenient("<f>Pierre <y>junk <a>75")
        positions = [w.position for w in report.warnings]
        assert positions == sorted(positions)

    def test_decoded_records_always_valid(self):
        report = decode_lenient("<s>A <s> <a>5 junk<z><a>6 <f> x")
        for record in report.transcript.records:
            assert validate_record(record) == []

    @given(st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_total_on_arbitrary_text(self, text):
        report = decode_lenient(text)
        for record in report.transcript.records:
            assert validate_record(record) == []

    @given(st.binary(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_total_on_arbitrary_bytes(self, blob):
        decode_lenient(blob.decode("latin-1"))


class TestRoundTripProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_strict_roundtrip_on_synthetic_pages(self, seed):
        page = generate_synthetic_page(seed)
        label = encode(page)
        assert decode_strict(label, page_id=page.page_id) == page

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_lenient_extends_strict(self, seed):
        page = generate_synthetic_page(seed)
        label = encode(page)
        report = decode_lenient(label, page_id=page.page_id)
        assert report.transcript == decode_strict(label, page_id=page.page_id)
        # Strict-decodable input yields no structural warnings; the only kind
        # allowed is the data-quality note on genuinely surname-less records.
        assert all(w.kind is WarningKind.RECORD_WITHOUT_SURNAME for w in report.warnings)
        surnameless = sum(
            1
            for r in page.records
            if EntityTag.SURNAME_HEAD not in r.fields and EntityTag.SURNAME not in r.fields
        )
        assert len(report.warnings) == surnameless


class TestCustomAlphabet:
    def make_alphabet(self):
        from censusflow.domain import EntityTag, TagAlphabet

        return TagAlphabet({tag: f"<{i:02d}>" for i, tag in enumerate(EntityTag)})

    def test_roundtrip_under_alternate_tokens(self, golden):
        alphabet = self.make_alphabet()
        label = encode(golden, alphabet=alphabet)
        assert "<s-h>" not in label.text and "<00>" in label.text
        assert decode_strict(label, page_id="golden", alphabet=alphabet) == golden

    def test_token_counting_follows_alphabet(self):
        alphabet = self.make_alphabet()
        # "<00>" is one token under the custom alphabet, four under default.
        assert count_tokens("<00>A", alphabet) == 2
        assert count_tokens("<00>A") == 5


class TestSyntheticGenerator:
    def test_deterministic(self):
        assert generate_synthetic_page(1) == generate_synthetic_page(1)

    def test_distinct_seeds_differ(self):
        assert generate_synthetic_page(1) != generate_synthetic_page(2)

    def test_exact_row_range(self):
        profile = SyntheticProfile(min_rows=30, max_rows=30)
        assert len(generate_synthetic_page(7, profile)) == 30

    def test_first_record_is_head(self):
        for seed in range(20):
            assert generate_synthetic_page(seed).records[0].is_head

    def test_all_records_valid(self):
        for seed in range(20):
            for record in generate_synthetic_page(seed).records:
                assert validate_record(record) == []

    def test_household_size_mean_matches_profile(self):
        # The geometric head process right-censors the last household of each
        # page, so estimate the mean from the head rate over non-first rows.
        rows = heads = 0
        for seed in range(1000):
            records = generate_synthetic_page(seed + 2000).records
            rows += len(records) - 1
            heads += sum(1 for r in records[1:] if r.is_head)
        assert abs(rows / heads - 4.0) < 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_rows": 0},
            {"min_rows": 10, "max_rows": 5},
            {"household_size_mean": 0.5},
            {"field_presence": {EntityTag.AGE: 1.5}},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(InvalidProfile):
            SyntheticProfile(**kwargs)


# A custom alphabet whose surfaces need regex escaping ("<s.h>" must not
# match "<sxh>") and include one longer than an unknown <...> chunk may be.
_CUSTOM_ALPHABET = TagAlphabet(
    {
        **{tag: f"<{i:02d}>" for i, tag in enumerate(EntityTag)},
        EntityTag.SURNAME_HEAD: "<s.h>",
        EntityTag.SURNAME: "<s>",
        EntityTag.OBSERVATION: "<observation-remarks>",
    }
)

_NOISE_ATOMS = ("<", ">", "\n", " ", "  ", "a", "b", "é", "s", "h", "x", ".", "-", "0", "1",
                "abcdefghijklmnop", "q")


def _labels(alphabet):
    atoms = tuple(alphabet.tokens.values()) + _NOISE_ATOMS
    return st.lists(st.sampled_from(atoms), max_size=60).map("".join)


_ALPHABET_AND_LABEL = st.sampled_from([DEFAULT_ALPHABET, _CUSTOM_ALPHABET]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), _labels(alphabet))
)


def _strict_outcome(decode):
    try:
        return decode()
    except MalformedLabel as err:
        return ("MalformedLabel", err.position, err.reason)


def assert_same_as_oracle(text, alphabet):
    records, warnings = oracle_decode(text, alphabet, strict=False)
    report = decode_lenient(text, alphabet=alphabet)
    assert report.transcript.records == records
    assert report.warnings == warnings

    assert _strict_outcome(
        lambda: decode_strict(text, alphabet=alphabet).records
    ) == _strict_outcome(lambda: oracle_decode(text, alphabet, strict=True)[0])


class TestDecoderAgainstOracle:
    @given(_ALPHABET_AND_LABEL)
    @settings(max_examples=800, deadline=None)
    def test_random_labels(self, case):
        alphabet, text = case
        assert_same_as_oracle(text, alphabet)

    @pytest.mark.parametrize(
        "alphabet", [DEFAULT_ALPHABET, _CUSTOM_ALPHABET], ids=["default", "custom"]
    )
    def test_seeded_random_labels(self, alphabet):
        # Longer strings than hypothesis tends to draw, so that rarer runs
        # (an empty field closed by an unknown token, then a surname) occur.
        rng = random.Random(7)
        atoms = tuple(alphabet.tokens.values()) + _NOISE_ATOMS
        for _ in range(2000):
            text = "".join(rng.choice(atoms) for _ in range(rng.randint(0, 60)))
            assert_same_as_oracle(text, alphabet)

    @pytest.mark.filterwarnings("ignore::censusflow.domain.RowCountWarning")
    @pytest.mark.parametrize(
        "alphabet", [DEFAULT_ALPHABET, _CUSTOM_ALPHABET], ids=["default", "custom"]
    )
    def test_noisy_synthetic_pages(self, alphabet):
        noise = ("<", ">", "\n", " ", "x", "<z>")
        for seed in range(60):
            text = encode(generate_synthetic_page(seed), alphabet=alphabet).text
            rng = random.Random(seed)
            chars = [rng.choice(noise) if rng.random() < 0.02 else c for c in text]
            for label in (text, "".join(chars)):
                assert_same_as_oracle(label, alphabet)


class TestDecoderEdgeCases:
    def test_unknown_token_mid_field_then_text_then_tag(self):
        text = "<s>A <f>Pi<zz>erre x <a>5"
        report = decode_lenient(text)
        (record,) = report.transcript.records
        assert record.fields == {
            EntityTag.SURNAME: "A", EntityTag.FIRSTNAME: "Pi", EntityTag.AGE: "5"
        }
        assert report.warnings == ((11, WarningKind.UNKNOWN_TOKEN),)
        with pytest.raises(MalformedLabel) as err:
            decode_strict(text)
        assert (err.value.position, err.value.reason) == (11, "unknown token '<zz>'")

    def test_lone_bracket_at_end(self):
        report = decode_lenient("<s>A <")
        assert [r.fields for r in report.transcript.records] == [{EntityTag.SURNAME: "A"}]
        assert report.warnings == ((6, WarningKind.UNKNOWN_TOKEN),)
        with pytest.raises(MalformedLabel) as err:
            decode_strict("<s>A <")
        assert (err.value.position, err.value.reason) == (6, "unknown token '<'")

    @pytest.mark.parametrize(
        "inner, token", [("a" * 16, "<" + "a" * 16 + ">"), ("a" * 17, "<")]
    )
    def test_unknown_chunk_length_limit(self, inner, token):
        # 16 characters between the brackets make one unknown token; 17 make
        # a lone "<" whose trailing text is dropped up to the next tag.
        text = f"<s>A<{inner}>B <a>5"
        report = decode_lenient(text)
        (record,) = report.transcript.records
        assert record.fields == {EntityTag.SURNAME: "A", EntityTag.AGE: "5"}
        assert report.warnings == ((5, WarningKind.UNKNOWN_TOKEN),)
        with pytest.raises(MalformedLabel) as err:
            decode_strict(text)
        assert (err.value.position, err.value.reason) == (5, f"unknown token {token!r}")

    @pytest.mark.parametrize("text", ["<s>A <a>", "<s>A <a> ", "<s>A <a>  "])
    def test_empty_last_field(self, text):
        report = decode_lenient(text)
        assert [r.fields for r in report.transcript.records] == [{EntityTag.SURNAME: "A"}]
        assert report.warnings == ((6, WarningKind.EMPTY_FIELD),)
        with pytest.raises(MalformedLabel) as err:
            decode_strict(text)
        assert (err.value.position, err.value.reason) == (6, "empty value for AGE")

    def test_blank_lines(self):
        text = "\n\n<s-h>A <a>5\n\n\n<s>B\n\n"
        report = decode_lenient(text)
        assert [r.fields for r in report.transcript.records] == [
            {EntityTag.SURNAME_HEAD: "A", EntityTag.AGE: "5"},
            {EntityTag.SURNAME: "B"},
        ]
        assert report.warnings == ()
        assert decode_strict(text) == report.transcript
        assert decode_lenient("\n\n").transcript.records == ()

    def test_record_start_survives_a_field_closed_by_an_unknown_token(self):
        # "<f>" opens the record at 1; its empty field is closed by "<z>"
        # without closing the record, so the surname-less record still
        # starts at 1 and "<s>" does not open a new one.
        report = decode_lenient("<f> <z>x <s> <a>5")
        assert [r.fields for r in report.transcript.records] == [{EntityTag.AGE: "5"}]
        assert report.warnings == (
            (1, WarningKind.EMPTY_FIELD),
            (1, WarningKind.RECORD_WITHOUT_SURNAME),
            (5, WarningKind.UNKNOWN_TOKEN),
            (10, WarningKind.EMPTY_FIELD),
        )

    def test_positions_count_characters_not_bytes(self):
        # "<s>Clément " is 11 characters (12 UTF-8 bytes); "<y>" starts at 12.
        report = decode_lenient("<s>Clément <y>x <a>5 <f>Ça <a>6")
        assert report.warnings == (
            (12, WarningKind.UNKNOWN_TOKEN),
            (28, WarningKind.DUPLICATE_FIELD_IN_RECORD),
            (28, WarningKind.RECORD_WITHOUT_SURNAME),
        )

    def test_alphabet_loaded_from_file(self, tmp_path, golden):
        path = tmp_path / "alphabet.txt"
        lines = ["# tag=<token>"] + [
            f"{tag.name.lower()}=<{tag.name.lower()}>" for tag in EntityTag
        ]
        path.write_text("\n".join(lines), encoding="utf-8")
        alphabet = load_alphabet(path)
        label = encode(golden, alphabet=alphabet).text
        assert label.startswith("<surname_head>Gendre <firstname>Pierre")
        assert decode_strict(label, page_id="golden", alphabet=alphabet) == golden
        # The default surface forms are unknown tokens under this alphabet.
        report = decode_lenient("<surname>A <a>5 <age>6", alphabet=alphabet)
        (record,) = report.transcript.records
        assert record.fields == {EntityTag.SURNAME: "A", EntityTag.AGE: "6"}
        assert report.warnings == ((12, WarningKind.UNKNOWN_TOKEN),)
        assert_same_as_oracle("<surname>A <a>5 <age>6\n<s-h>B", alphabet)
