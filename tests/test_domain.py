import copy
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censusflow.domain import (
    FIELD_ORDER,
    TAG_FOR_NAME,
    TAG_FOR_TOKEN,
    TOKEN_FOR_TAG,
    EntityTag,
    Household,
    MalformedFixture,
    PageClass,
    PageTranscript,
    PersonRecord,
    RegisterPage,
    RowCountWarning,
    UnserializablePage,
    dumps_pages,
    loads_pages,
    read_fixture,
    validate_record,
    write_fixture,
)


def tag_from_token(token):
    """Map a token like ``<s-h>`` to its entity tag."""
    return TAG_FOR_TOKEN[token]


class TestEntityTags:
    def test_exactly_twelve_tags(self):
        assert len(EntityTag) == 12

    def test_exactly_five_page_classes(self):
        assert len(PageClass) == 5

    def test_surface_forms_unique_and_bracketed(self):
        surfaces = [TOKEN_FOR_TAG[tag] for tag in EntityTag]
        assert len(set(surfaces)) == 12
        for surface in surfaces:
            assert surface.startswith("<") and surface.endswith(">")

    @pytest.mark.parametrize(
        "token,tag",
        [
            ("<s-h>", EntityTag.SURNAME_HEAD),
            ("<s>", EntityTag.SURNAME),
            ("<n>", EntityTag.NATIONALITY),
            ("<a>", EntityTag.AGE),
        ],
    )
    def test_tag_from_token(self, token, tag):
        assert tag_from_token(token) is tag

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            tag_from_token("<z>")

    def test_token_tag_bijection(self):
        for tag in EntityTag:
            assert tag_from_token(TOKEN_FOR_TAG[tag]) is tag

    def test_field_order_starts_with_surnames(self):
        assert FIELD_ORDER[:3] == (EntityTag.SURNAME_HEAD, EntityTag.SURNAME, EntityTag.FIRSTNAME)

    def test_tags_keep_identity_and_hash_through_pickle_and_deepcopy(self):
        table = {tag: tag.name for tag in EntityTag}
        for tag in EntityTag:
            for copied in (pickle.loads(pickle.dumps(tag)), copy.deepcopy(tag)):
                assert copied is tag
                assert hash(copied) == hash(tag)
                assert table[copied] == tag.name
        assert copy.deepcopy(table) == table


class TestTagAlphabet:
    def test_default_alphabet_roundtrip(self):
        for tag in EntityTag:
            assert TAG_FOR_TOKEN[TOKEN_FOR_TAG[tag]] is tag


class TestPersonRecord:
    def test_head_iff_surname_head(self):
        head = PersonRecord.from_names(surname_head="Gendre")
        other = PersonRecord.from_names(surname="Paraud")
        assert head.is_head and not other.is_head

    def test_validate_valid_head_record(self):
        record = PersonRecord.from_names(surname_head="Gendre", age="75")
        assert validate_record(record) == []

    def test_validate_dual_surname(self):
        record = PersonRecord({EntityTag.SURNAME_HEAD: "A", EntityTag.SURNAME: "B"})
        assert validate_record(record) == ["DualSurname"]

    def test_validate_empty_value(self):
        record = PersonRecord({EntityTag.AGE: ""})
        assert validate_record(record) == ["EmptyValue(AGE)"]

    def test_unknown_field_name_rejected(self):
        with pytest.raises(ValueError):
            PersonRecord.from_names(shoe_size="42")


class TestHousehold:
    def test_requires_members(self):
        with pytest.raises(ValueError):
            Household(())

    def test_head_must_be_first(self):
        member = PersonRecord.from_names(surname="Paraud")
        head = PersonRecord.from_names(surname_head="Gendre")
        with pytest.raises(ValueError):
            Household((member, head))

    def test_at_most_one_head(self):
        head = PersonRecord.from_names(surname_head="Gendre")
        with pytest.raises(ValueError):
            Household((head, head))

    def test_headless_fragment_allowed(self):
        member = PersonRecord.from_names(surname="Paraud")
        household = Household((member,), complete=False)
        assert household.head is None


class TestPageTranscript:
    def test_row_count_soft_bound_warns(self):
        records = tuple(PersonRecord.from_names(surname_head=f"A{i}") for i in range(41))
        with pytest.warns(RowCountWarning):
            PageTranscript(records, page_id="big")

    def test_row_count_warning_names_the_caller(self):
        records = tuple(PersonRecord.from_names(surname_head=f"A{i}") for i in range(41))
        with pytest.warns(RowCountWarning) as caught:
            PageTranscript(records, page_id="big")
        (warning,) = caught.list
        assert warning.filename == __file__

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            PageTranscript((), page_id="x", page_index_in_register=-1)

    def test_non_list_page_cannot_carry_transcript(self):
        transcript = PageTranscript((), page_id="p")
        with pytest.raises(ValueError):
            RegisterPage("p", PageClass.RECAP, transcript)


class TestFixtureSerialization:
    def test_roundtrip(self, golden):
        text = dumps_pages([golden])
        pages = loads_pages(text)
        assert pages == [golden]

    def test_multi_page_roundtrip(self, golden):
        second = PageTranscript(golden.records[:2], page_id="p2", page_index_in_register=3)
        assert loads_pages(dumps_pages([golden, second])) == [golden, second]

    def test_empty_input(self):
        assert loads_pages("") == []
        assert dumps_pages([]) == ""

    def test_empty_page_keeps_identity(self):
        page = PageTranscript((), page_id="empty", page_index_in_register=7)
        assert loads_pages(dumps_pages([page])) == [page]

    def test_tab_in_value_rejected(self):
        page = PageTranscript(
            (PersonRecord({EntityTag.SURNAME: "a\tb"}),), page_id="bad"
        )
        with pytest.raises(ValueError):
            dumps_pages([page])

    @pytest.mark.parametrize("bad, reason", [
        ("surname=Paraud\tage", "malformed fixture line: 'surname=Paraud\\tage'"),
        ("shoe_size=42", "unknown tag name in fixture: 'shoe_size'"),
        ("#page\tp2\t-1", "negative page index -1"),
    ])
    def test_a_bad_line_is_named_by_its_number(self, golden, bad, reason):
        # Lines count from 1 across pages; the separator is a line.
        text = dumps_pages([golden, golden])
        lines = text.splitlines()
        lines.insert(len(lines) - 1, bad)
        with pytest.raises(MalformedFixture) as caught:
            loads_pages("\n".join(lines) + "\n")
        assert str(caught.value) == f"line {len(lines) - 1}: {reason}"

    def test_read_fixture_names_the_file(self, tmp_path, golden):
        path = tmp_path / "a.txt"
        path.write_bytes(dumps_pages([golden]).encode() + b"surname=\xff\n")
        with pytest.raises(MalformedFixture, match=rf"^{re.escape(str(path))}: line 6: not UTF-8"):
            read_fixture(path)
        path.write_text(dumps_pages([golden]) + "surname\n", encoding="utf-8")
        with pytest.raises(MalformedFixture, match=rf"^{re.escape(str(path))}: line 6: malformed"):
            read_fixture(path)

    def test_value_with_equals_sign_roundtrips(self):
        page = PageTranscript(
            (PersonRecord({EntityTag.OBSERVATION: "x=y"}),), page_id="eq"
        )
        assert loads_pages(dumps_pages([page])) == [page]

    # Line breaks of str.splitlines other than "\n" and "\r".
    BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("brk", BREAKS)
    def test_values_with_other_line_breaks_read_back(self, tmp_path, golden, brk):
        page = PageTranscript(
            (PersonRecord({EntityTag.SURNAME: f"a{brk}b", EntityTag.AGE: brk}),),
            page_id=f"p{brk}1", page_index_in_register=2,
        )
        path = tmp_path / "a.txt"
        write_fixture([golden, page, golden], path)
        assert read_fixture(path) == [golden, page, golden]

    def test_carriage_return_is_rejected_naming_the_page(self):
        page = PageTranscript((PersonRecord({EntityTag.SURNAME: "a\rb"}),), page_id="p7")
        with pytest.raises(UnserializablePage, match=r"^page 'p7': value not serializable"):
            dumps_pages([page])
        with pytest.raises(UnserializablePage, match=r"^page_id not serializable: 'p\\r'"):
            dumps_pages([PageTranscript((), page_id="p\r")])

    def test_crlf_files_read(self, golden):
        second = PageTranscript(golden.records[:2], page_id="p2", page_index_in_register=3)
        text = dumps_pages([golden, second])
        assert loads_pages(text.replace("\n", "\r\n")) == loads_pages(text) == [golden, second]


def oracle_loads_pages(text):
    """``loads_pages`` as it was, splitting blocks with ``re.split`` and
    lines with ``str.splitlines``: the oracle for texts that hold none of
    the line breaks it treats differently."""
    if text.strip() == "":
        return []
    pages = []
    first = 1
    for index, block in enumerate(re.split(r"^---$", text, flags=re.MULTILINE)):
        page_id = f"page-{index}"
        page_index = index
        records = []
        lines = block.splitlines()
        for number, line in enumerate(lines, first):
            line = line.rstrip("\r")
            if not line.strip():
                continue
            try:
                if line.startswith("#page\t"):
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
        first += len(lines)
        pages.append(
            PageTranscript(tuple(records), page_id=page_id, page_index_in_register=page_index)
        )
    return pages


# Text without the characters that str.splitlines breaks lines at.
_plain_text = st.text(
    st.characters(blacklist_categories=("Cs",),
                  blacklist_characters="\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    max_size=6,
)
_names = st.sampled_from(sorted(TAG_FOR_NAME) + ["shoe_size", ""])
_fixture_lines = st.one_of(
    st.lists(st.tuples(_names, st.sampled_from(["=", ""]), _plain_text), min_size=1,
             max_size=4).map(lambda items: "\t".join(n + sep + v for n, sep, v in items)),
    st.tuples(_plain_text, st.sampled_from(["0", "3", "-1", "x", " 2"])).map(
        lambda h: f"#page\t{h[0]}\t{h[1]}"),
    st.sampled_from(["---", "--- ", "#page\tp", "", " ", "\u3000"]),
    _plain_text,
)


class TestSinglePassParser:
    """The one-pass ``loads_pages`` against the oracle of old."""

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except MalformedFixture as exc:
            return str(exc)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_fixture_lines, max_size=30), st.booleans())
    def test_same_pages_and_line_numbers(self, lines, newline_at_end):
        text = "\n".join(lines) + ("\n" if newline_at_end else "")
        assert self.outcome(loads_pages, text) == self.outcome(oracle_loads_pages, text)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.dictionaries(st.sampled_from(FIELD_ORDER), _plain_text,
                                             min_size=1, max_size=4), max_size=5),
                    min_size=1, max_size=4))
    def test_written_pages_read_back(self, pages):
        transcripts = [PageTranscript(tuple(map(PersonRecord, records)), page_id=f"p{i}",
                                      page_index_in_register=i)
                       for i, records in enumerate(pages)]
        text = dumps_pages(transcripts)
        assert loads_pages(text) == oracle_loads_pages(text) == transcripts
