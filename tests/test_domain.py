import copy
import pickle

import pytest

from censusflow.domain import (
    DEFAULT_ALPHABET,
    FIELD_ORDER,
    EntityTag,
    Household,
    PageClass,
    PageTranscript,
    PersonRecord,
    RegisterPage,
    RowCountWarning,
    TagAlphabet,
    UnknownToken,
    dumps_pages,
    load_alphabet,
    loads_pages,
    tag_from_token,
    validate_record,
)


class TestEntityTags:
    def test_exactly_twelve_tags(self):
        assert len(EntityTag) == 12

    def test_exactly_five_page_classes(self):
        assert len(PageClass) == 5

    def test_surface_forms_unique_and_bracketed(self):
        surfaces = [tag.token for tag in EntityTag]
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
        with pytest.raises(UnknownToken):
            tag_from_token("<z>")

    def test_token_tag_bijection(self):
        for tag in EntityTag:
            assert tag_from_token(tag.token) is tag

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
            assert DEFAULT_ALPHABET.tag_for(DEFAULT_ALPHABET.token_for(tag)) is tag

    def test_incomplete_alphabet_rejected(self):
        tokens = {tag: tag.value for tag in EntityTag}
        tokens.pop(EntityTag.AGE)
        with pytest.raises(ValueError):
            TagAlphabet(tokens)

    def test_duplicate_surface_rejected(self):
        tokens = {tag: tag.value for tag in EntityTag}
        tokens[EntityTag.AGE] = "<s>"
        with pytest.raises(ValueError):
            TagAlphabet(tokens)

    def test_load_alternate_alphabet(self, tmp_path):
        lines = [f"{tag.name.lower()}=<{i:02d}>" for i, tag in enumerate(EntityTag)]
        path = tmp_path / "alphabet.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        alphabet = load_alphabet(path)
        assert alphabet.token_for(EntityTag.SURNAME_HEAD) == "<00>"
        assert alphabet.tag_for("<11>") is EntityTag.OBSERVATION


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

    def test_value_with_equals_sign_roundtrips(self):
        page = PageTranscript(
            (PersonRecord({EntityTag.OBSERVATION: "x=y"}),), page_id="eq"
        )
        assert loads_pages(dumps_pages([page])) == [page]
