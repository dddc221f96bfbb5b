import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censusflow.domain import (
    Household,
    PageClass,
    PageTranscript,
    PersonRecord,
    RegisterDocument,
    RegisterPage,
)
from censusflow.fixtures import DEMO_GAZETTEER, synthetic_register
from censusflow.household import (
    HouseholdSet,
    MissingTranscript,
    UniverseMismatch,
    group_page,
    household_accuracy,
    household_rows,
    merge_register,
)
from censusflow.label_codec import SyntheticProfile


def head(name: str) -> PersonRecord:
    return PersonRecord.from_names(surname_head=name)


def member(name: str) -> PersonRecord:
    return PersonRecord.from_names(surname=name)


def page(records, page_id="p", index=0) -> PageTranscript:
    return PageTranscript(tuple(records), page_id=page_id, page_index_in_register=index)


def list_page(records, page_id="p") -> RegisterPage:
    return RegisterPage(page_id, PageClass.LIST, page(records, page_id=page_id))


def register(pages) -> RegisterDocument:
    return RegisterDocument(register_id="reg", pages=tuple(pages))


def concat_split_oracle(document: RegisterDocument) -> list[tuple[PersonRecord, ...]]:
    """Brute force: concatenate every list record, split before each head."""
    records = []
    for p in document.pages:
        if p.page_class is PageClass.LIST:
            records.extend(p.transcript.records)
    groups, current = [], []
    for record in records:
        if record.is_head and current:
            groups.append(tuple(current))
            current = []
        current.append(record)
    if current:
        groups.append(tuple(current))
    return groups


class TestGroupPage:
    def test_golden_two_households(self, golden):
        households = group_page(golden)
        assert [len(h) for h in households] == [2, 2]
        assert households[0].complete is True
        assert households[1].complete is False  # may continue onto the next page

    def test_leading_fragment_incomplete(self):
        households = group_page(page([member("X"), head("A"), member("B")]))
        assert [len(h) for h in households] == [1, 2]
        assert households[0].complete is False
        assert households[0].head is None

    def test_empty_page(self):
        assert group_page(page([])) == []

    def test_every_record_in_exactly_one_household(self):
        p = page([head("A"), member("b"), member("c"), head("D"), head("E")])
        households = group_page(p)
        flattened = [m for h in households for m in h.members]
        assert tuple(flattened) == p.records


class TestMergeRegister:
    def test_two_page_spanning_household(self):
        doc = register(
            [
                list_page([head("A"), member("a1"), head("B"), member("b1")], "p1"),
                list_page([member("b2"), member("b3"), head("C")], "p2"),
            ]
        )
        merged = merge_register(doc)
        assert [len(h) for h in merged.households] == [2, 4, 1]
        assert all(h.complete for h in merged.households)
        spanning = merged.households[1]
        assert spanning.head == head("B")
        assert spanning.members[1:] == (member("b1"), member("b2"), member("b3"))
        assert merged.source_pages == ("p1", "p2")

    def test_single_page_register_finalizes_tail(self, golden):
        doc = register([RegisterPage("golden", PageClass.LIST, golden)])
        merged = merge_register(doc)
        grouped = group_page(golden)
        assert [h.members for h in merged.households] == [h.members for h in grouped]
        assert all(h.complete for h in merged.households)

    def test_non_list_page_breaks_continuation(self):
        doc = register(
            [
                list_page([head("A"), member("a1")], "p1"),
                RegisterPage("r", PageClass.RECAP),
                list_page([member("x"), head("B")], "p2"),
            ]
        )
        merged = merge_register(doc)
        # The head-less fragment on p2 must NOT join A's household.
        assert [len(h) for h in merged.households] == [2, 1, 1]

    def test_household_spanning_three_pages(self):
        doc = register(
            [
                list_page([head("A"), member("a1")], "p1"),
                list_page([member("a2"), member("a3")], "p2"),
                list_page([member("a4"), head("B")], "p3"),
            ]
        )
        merged = merge_register(doc)
        assert [len(h) for h in merged.households] == [5, 1]

    def test_missing_transcript_raises(self):
        doc = register([RegisterPage("p1", PageClass.LIST, None)])
        with pytest.raises(MissingTranscript):
            merge_register(doc)

    def test_register_opening_with_fragment(self):
        doc = register([list_page([member("x"), member("y"), head("A")], "p1")])
        merged = merge_register(doc)
        assert [len(h) for h in merged.households] == [2, 1]
        assert merged.households[0].head is None

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=100, deadline=None)
    def test_oracle_equivalence_on_synthetic_registers(self, seed):
        rng = random.Random(seed)
        profile = SyntheticProfile(
            min_rows=rng.randint(1, 5),
            max_rows=rng.randint(5, 10),
            household_size_mean=rng.uniform(1.0, 6.0),
        )
        synth = synthetic_register(
            seed=seed,
            commune=DEMO_GAZETTEER[seed % len(DEMO_GAZETTEER)],
            census_year=1881,
            archival_id=f"R{seed}",
            list_pages=rng.randint(1, 5),
            profile=profile,
            all_list=True,
        )
        merged = merge_register(synth.document)
        assert [h.members for h in merged.households] == concat_split_oracle(synth.document)
        # Partition: every record exactly once, in reading order.
        flattened = [m for h in merged.households for m in h.members]
        records = [
            r
            for p in synth.document.pages
            if p.page_class is PageClass.LIST
            for r in p.transcript.records
        ]
        assert flattened == records


class TestHouseholdAccuracy:
    def hset(self, sizes, heads=True):
        households = []
        for size in sizes:
            members = [head(f"h") if heads else member("m")] + [member("x")] * (size - 1)
            households.append(Household(tuple(members), complete=True))
        return HouseholdSet(tuple(households), ("p",))

    def test_identity_is_one(self, golden):
        hset = HouseholdSet(tuple(group_page(golden)), ("golden",))
        assert household_accuracy(hset, hset) == 1.0

    def test_half_match(self):
        truth = self.hset([2, 2])
        predicted = self.hset([1, 1, 2])
        assert household_accuracy(predicted, truth) == 0.5

    def test_disjoint_partitions(self):
        truth = self.hset([2, 2])
        predicted = self.hset([1, 3])
        assert household_accuracy(predicted, truth) == 0.0

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            household_accuracy(self.hset([2]), self.hset([2, 2]))

    def test_empty_sets(self):
        empty = HouseholdSet((), ())
        assert household_accuracy(empty, empty) == 1.0


class TestExportRows:
    def test_rows_align_with_reading_order(self):
        doc = register(
            [
                list_page([head("A"), member("a1")], "p1"),
                list_page([member("a2"), head("B")], "p2"),
            ]
        )
        merged = merge_register(doc)
        rows = household_rows(doc, merged)
        assert [(r[1], r[2], r[3], r[4]) for r in rows] == [
            ("p1", "0", "0", "1"),
            ("p1", "1", "0", "0"),
            ("p2", "0", "0", "0"),
            ("p2", "1", "1", "1"),
        ]

    def test_mismatched_universe_rejected(self):
        doc = register([list_page([head("A")], "p1")])
        alien = HouseholdSet((Household((head("A"), member("b")), True),), ("p1",))
        with pytest.raises(UniverseMismatch):
            household_rows(doc, alien)
