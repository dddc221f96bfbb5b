"""Household export from the result store, one register at a time.

``documents_from_store`` below is the export as it was before it streamed:
it parses every record, keeps the last one per ``(register_id,
sequence_index)`` and rebuilds every complete register at once. With
``export_households`` it is the oracle the streaming ``export_batch`` must
match byte for byte, with or without an export memo left by a run.
"""

import builtins
import json
import random
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from censusflow.domain import EntityTag, PageClass, RegisterDocument, RegisterPage, RowCountWarning
from censusflow.fixtures import FixtureTransport, generate_corpus
from censusflow.household import EXPORT_COLUMNS, MissingTranscript, export_households, merge_register
from censusflow.iiif import IiifEndpoint
from censusflow.ingest import GazetteerEntry, ImageRef, Register, RegisterMetadata, Registry
from censusflow.label_codec import SyntheticProfile
from censusflow.pipeline import LocalExecutor, ResultStore, RunConfig, export_batch, run_batch
from censusflow.pipeline.manifests import AppendFile, CorruptLine, read_ndjson, task_id_for
from censusflow.pipeline.runner import (
    MEMO_NAME, STORE_NAME, ExportMemo, _complete, _head, register_rows,
)
from censusflow.pipeline.stages import payload_transcript
import censusflow.pipeline.runner as runner_module

from conftest import mock_worker_set

TAG_NAMES = [tag.name.lower() for tag in EntityTag]
OTHER_CLASSES = [c.name for c in PageClass if c is not PageClass.LIST]


def documents_from_store(registry: Registry, store: ResultStore) -> tuple[list[RegisterDocument], int]:
    """Rebuild register documents from integrated payloads.

    Only registers whose every image has an integrated result are rebuilt;
    the second return value counts registers skipped as incomplete.
    """
    by_register: dict[str, dict[int, dict]] = {}
    for record in store.records():
        by_register.setdefault(record["register_id"], {})[record["sequence_index"]] = record

    documents = []
    skipped = 0
    for register in registry.registers:
        register_id = register.metadata.register_id
        payloads = by_register.get(register_id, {})
        expected = {img.sequence_index for img in register.images}
        if set(payloads) != expected:
            skipped += 1
            continue
        pages = []
        for seq in sorted(payloads):
            payload = payloads[seq]
            pages.append(
                RegisterPage(
                    page_id=payload["page_id"],
                    page_class=PageClass[payload["page_class"]],
                    transcript=payload_transcript(payload),
                )
            )
        documents.append(
            RegisterDocument(
                register_id=register_id, pages=tuple(pages), metadata=register.metadata
            )
        )
    return documents, skipped


def oracle_export(registry: Registry, store: ResultStore, out_path: Path) -> tuple[int, int, int]:
    documents, skipped = documents_from_store(registry, store)
    people = export_households([(doc, merge_register(doc)) for doc in documents], out_path)
    return len(documents), skipped, people


# ---------------------------------------------------------------------------
# Synthetic registries and stores, written directly
# ---------------------------------------------------------------------------


def make_registry(pages_per_register: list[int], commune: str = "03190") -> Registry:
    entry = GazetteerEntry(code=commune, canonical_name="Moulins", department="03")
    registers = []
    for k, pages in enumerate(pages_per_register):
        meta = RegisterMetadata(census_year=1881, commune=entry, archival_id=f"6M {k:05d}")
        images = tuple(
            ImageRef(register=meta, iiif_identifier=f"{meta.register_id}/{seq:03d}",
                     sequence_index=seq)
            for seq in range(pages)
        )
        registers.append(Register(metadata=meta, images=images))
    return Registry(tuple(registers))


def random_records(rng: random.Random, rows: int) -> list[dict]:
    words = ["Gendre", "Martin", "Müller", 'Say "x"', "a\\b", "é\tß", "chef", "75"]
    records = []
    for _ in range(rows):
        head = rng.random() < 0.35
        fields = [{"tag": "surname_head" if head else "surname", "text": rng.choice(words)}]
        for name in rng.sample(TAG_NAMES[2:], rng.randint(0, 4)):
            fields.append({"tag": name, "text": rng.choice(words)})
        records.append({"is_head": head, "fields": fields})
    return records


def payload_for(image: ImageRef, page_class: str, records) -> dict:
    """A result payload laid out as the process stage builds it."""
    return {
        "task_id": f"{image.register.register_id}-p{image.sequence_index:04d}",
        "register_id": image.register.register_id,
        "page_id": image.iiif_identifier,
        "sequence_index": image.sequence_index,
        "page_class": page_class,
        "transcript": None if records is None else {"records": records},
        "warnings": [],
        "worker": {"classifier": "mock", "recognizer": "mock"},
    }


def stage_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def random_page(rng: random.Random, image: ImageRef, max_rows: int = 8) -> dict:
    if rng.random() < 0.6:
        return payload_for(image, "LIST", random_records(rng, rng.randint(0, max_rows)))
    return payload_for(image, rng.choice(OTHER_CLASSES), None)


def random_store_lines(rng: random.Random, registry: Registry) -> list[str]:
    """Every register complete or incomplete, some pages stored twice with
    other content, some records of registers not in the registry, in
    shuffled order and some in a layout the head read does not take."""
    lines = []
    for register in registry.registers:
        complete = rng.random() < 0.7
        for image in register.images:
            if not complete and rng.random() < 0.5:
                continue
            for _ in range(1 + (rng.random() < 0.1)):
                lines.append(random_page(rng, image))
    stranger = make_registry([2], commune="99999").registers[0]
    lines.extend(random_page(rng, image) for image in stranger.images)
    rng.shuffle(lines)
    out = []
    for payload in lines:
        roll = rng.random()
        if roll < 0.1:  # keys in reverse order, non-ASCII escaped
            out.append(json.dumps(dict(reversed(payload.items())), ensure_ascii=True))
        elif roll < 0.15:  # whitespace around the colons
            out.append(json.dumps(payload, sort_keys=True, separators=(", ", " : ")))
        else:
            out.append(stage_line(payload))
    return out


def write_store(path: Path, lines: list[str]) -> ResultStore:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return ResultStore(path)


class TestStreamingExportAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_stores(self, tmp_path, seed):
        rng = random.Random(seed)
        registry = make_registry([rng.randint(0, 6) for _ in range(rng.randint(1, 9))])
        store = write_store(tmp_path / "store.ndjson", random_store_lines(rng, registry))
        want = oracle_export(registry, store, tmp_path / "oracle.csv")
        got = export_batch(registry, store, tmp_path / "households.csv")
        assert got == want
        assert (tmp_path / "households.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_register_order_is_registry_order(self, tmp_path):
        rng = random.Random(7)
        registry = make_registry([3, 2, 4])
        lines = [stage_line(random_page(rng, image)) for image in registry.iter_images()]
        backwards = Registry(tuple(reversed(registry.registers)))
        store = write_store(tmp_path / "store.ndjson", lines)
        oracle_export(backwards, store, tmp_path / "oracle.csv")
        export_batch(backwards, store, tmp_path / "households.csv")
        assert (tmp_path / "households.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# ---------------------------------------------------------------------------
# Reading only record heads
# ---------------------------------------------------------------------------

_text = st.text(max_size=12) | st.sampled_from(["", '"', "\\", "\\u0041", "é", "task_id", "\x01"])
_index = (
    st.integers(min_value=0, max_value=10**20)
    | st.integers(min_value=-5, max_value=-1)
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
    | st.booleans()
    | st.none()
)
# Strings the head read takes as they are: no quote, backslash or control
# character, so JSON writes them without escapes.
_plain = st.text(st.characters(blacklist_characters='"\\', blacklist_categories=("Cc", "Cs")),
                 max_size=12)
_VARIANTS = ["stage", "stage", "permuted", "duplicate", "spaced", "ascii", "escaped-key"]


@st.composite
def record_lines(draw) -> bytes:
    """A JSON object text with the head keys: laid out as the process stage
    writes it, or with one variation on that layout."""
    text = draw(st.sampled_from([_plain, _text]))
    record = {
        "page_class": draw(st.sampled_from(["LIST", "TOTALS"]) | text),
        "page_id": draw(text),
        "register_id": draw(text),
        "sequence_index": draw(st.integers(min_value=0) | _index),
        "task_id": draw(text),
        "transcript": draw(st.none() | st.just({"records": []})),
        "worker": draw(st.dictionaries(text, text, max_size=2)),
    }
    variant = draw(st.sampled_from(_VARIANTS))
    items = list(record.items())
    if variant == "permuted":
        items = draw(st.permutations(items))
    if variant == "duplicate":
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            key = draw(st.sampled_from(["register_id", "sequence_index", "task_id"]))
            if draw(st.booleans()):  # the same key, written with an escape
                key = key.replace("_", "\\u005f")
            items.insert(draw(st.integers(min_value=0, max_value=len(items))), (key, draw(_index)))
    colon = draw(st.sampled_from([" : ", ":", ":  "])) if variant == "spaced" else ": "
    ensure_ascii = variant == "ascii"

    def key_text(key):
        if "\\" in key:
            return f'"{key}"'
        text = json.dumps(key)
        return text.replace("_", "\\u005f") if variant == "escaped-key" and key == "task_id" else text

    body = ", ".join(key_text(k) + colon + json.dumps(v, ensure_ascii=ensure_ascii)
                     for k, v in items)
    return ("{" + body + "}").encode("utf-8")


class TestHeadRead:
    @given(record_lines())
    @settings(max_examples=1000, deadline=None)
    def test_matches_json_loads(self, line):
        record = json.loads(line)
        want = (record.get("register_id"), record.get("sequence_index"), record.get("task_id"))
        got = _head(line + b"\n")
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]

    @pytest.mark.parametrize("line, want", [
        (b'{"page_class": "LIST", "page_id": "p", "register_id": "r", "sequence_index": 3, '
         b'"task_id": "t", "x": 1, "register_id": "s"}', ("s", 3, "t")),
        (b'{"page_class": "LIST", "page_id": "p", "register_id": "r", "sequence_index": 3, '
         b'"task_id": "t", "t\\u0061sk_id": "u"}', ("r", 3, "u")),
        (b'{"page_class": "LIST", "page_id": "p", "register_id": "r", "sequence_index": 3, '
         b'"task_id": "t", "task\\u005fid": "u"}', ("r", 3, "u")),
        (b'{"page_class": "LIST", "page_id": "p", "register_id": "r\\"", "sequence_index": 3, '
         b'"task_id": "t"}', ('r"', 3, "t")),
        (b'{"page_class": "LIST", "page_id": "p", "register_id": "r", "sequence_index": 3.0, '
         b'"task_id": "t"}', ("r", 3.0, "t")),
        (b'{"page_class": "LIST", "page_id": "p", "register_id": "r", "sequence_index": -1, '
         b'"task_id": "t"}', ("r", -1, "t")),
        (b'{"page_class": "LIST", "page_id": "p", "register_id": "r", "sequence_index": "3", '
         b'"task_id": "t"}', ("r", "3", "t")),
        ('{"page_class": "LIST", "page_id": "p", "register_id": "ré", "sequence_index": 3, '
         '"task_id": "tß"}'.encode(), ("ré", 3, "tß")),
        (b'{"task_id": "t"}', (None, None, "t")),
    ], ids=["duplicate", "escaped-duplicate", "escaped-underscore-duplicate", "escape", "float", "negative", "string",
            "non-ascii", "missing"])
    def test_edge_cases(self, line, want):
        got = _head(line + b"\n")
        assert got == want and [type(v) for v in got] == [type(v) for v in want]

    def test_stage_layout_is_read_without_parsing(self, monkeypatch):
        # The fast path is what makes store open cheap: a line laid out as
        # the process stage writes it must not reach json.loads.
        import censusflow.pipeline.runner as runner

        image = make_registry([2]).registers[0].images[1]
        records = [{"is_head": True, "fields": [{"tag": "surname_head", "text": "Gendre"},
                                                {"tag": "occupation", "text": "métayer"}]}]
        payload = payload_for(image, "LIST", records)
        line = stage_line(payload).encode("utf-8") + b"\n"

        def no_parse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(runner.json, "loads", no_parse)
        assert _head(line) == (image.register.register_id, 1, payload["task_id"])


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


class TestExportMemory:
    def test_peak_does_not_grow_with_store_size(self, tmp_path):
        """Payload memory is one register's, plus a small index per record:
        at 10x the pages, the tracemalloc peak of export_batch may grow by
        at most 256 bytes per added page."""
        rng = random.Random(3)

        def peak(registers: int) -> int:
            registry = make_registry([10] * registers)
            path = tmp_path / f"store-{registers}.ndjson"
            with open(path, "w", encoding="utf-8") as fh:
                for image in registry.iter_images():
                    fh.write(stage_line(random_page(rng, image, max_rows=4)) + "\n")
            store = ResultStore(path)
            tracemalloc.start()
            try:
                exported, skipped, _ = export_batch(registry, store, tmp_path / "households.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(100)
        large = peak(1_000)
        assert large < small + 256 * 9_000, (small, large)


# ---------------------------------------------------------------------------
# Edge cases on a real workspace
# ---------------------------------------------------------------------------


@pytest.fixture
def finished(tmp_path):
    """A workspace run to the end over three registers, with its registry."""
    corpus = generate_corpus(
        tmp_path / "corpus", registers=3, seed=11, list_pages_min=2, list_pages_max=3,
        profile=SyntheticProfile(min_rows=4, max_rows=8, household_size_mean=3.0),
    )
    config = RunConfig(
        workspace=tmp_path / "ws",
        registry=corpus.registry,
        endpoint=IiifEndpoint("https://fixture.local/iiif"),
        transport=FixtureTransport(corpus.root),
        workers=mock_worker_set(seed=0),
        scheduler=LocalExecutor(2),
        prestage_concurrency=2,
    )
    report = run_batch(config)
    assert report.counts["INTEGRATED"] == corpus.image_count
    return config


class TestExportEdgeCases:
    def test_no_store_exports_header_only(self, tmp_path, finished):
        store = ResultStore(tmp_path / "empty" / "results_store.ndjson")
        out = tmp_path / "households.csv"
        registers = len(finished.registry.registers)
        assert export_batch(finished.registry, store, out) == (0, registers, 0)
        assert not store.path.exists()
        assert out.read_bytes() == (",".join(EXPORT_COLUMNS) + "\r\n").encode()

    def test_later_duplicate_wins(self, tmp_path, finished):
        lines = finished.store_path.read_text(encoding="utf-8").splitlines()
        payloads = [json.loads(line) for line in lines]
        k = next(i for i, p in enumerate(payloads) if p["transcript"] and
                 len(p["transcript"]["records"]) > 1)
        later = dict(payloads[k], transcript={"records": payloads[k]["transcript"]["records"][1:]})
        duplicated = write_store(tmp_path / "dup.ndjson", lines + [stage_line(later)])
        replaced = write_store(
            tmp_path / "replaced.ndjson", lines[:k] + lines[k + 1:] + [stage_line(later)]
        )
        export_batch(finished.registry, duplicated, tmp_path / "dup.csv")
        export_batch(finished.registry, replaced, tmp_path / "replaced.csv")
        oracle_export(finished.registry, duplicated, tmp_path / "oracle.csv")
        dup = (tmp_path / "dup.csv").read_bytes()
        assert dup == (tmp_path / "replaced.csv").read_bytes()
        assert dup == (tmp_path / "oracle.csv").read_bytes()
        assert dup != finished.households_path.read_bytes()

    def test_torn_last_line_is_skipped(self, tmp_path, finished):
        data = finished.store_path.read_bytes()
        first = data[: data.index(b"\n") + 1]
        # The torn copy of a record would complete nothing and change nothing.
        finished.store_path.write_bytes(data + first[: len(first) // 2])
        out = tmp_path / "households.csv"
        assert export_batch(finished.registry, ResultStore(finished.store_path), out)[1] == 0
        assert out.read_bytes() == finished.households_path.read_bytes()

    def test_torn_last_line_leaves_its_register_incomplete(self, tmp_path, finished):
        lines = finished.store_path.read_bytes().splitlines(keepends=True)
        finished.store_path.write_bytes(b"".join(lines[:-1]) + lines[-1][:-1])
        out = tmp_path / "households.csv"
        exported, skipped, _ = export_batch(
            finished.registry, ResultStore(finished.store_path), out
        )
        assert (exported, skipped) == (len(finished.registry.registers) - 1, 1)

    def test_merge_error_leaves_old_csv(self, tmp_path, finished):
        """A LIST payload without a transcript in the last register fails
        the merge after earlier registers' rows are written: the old CSV
        stays as it was and no temporary file is left behind."""
        before = finished.households_path.read_bytes()
        last = finished.registry.registers[-1]
        broken = payload_for(last.images[0], "LIST", None)
        with open(finished.store_path, "a", encoding="utf-8") as fh:
            fh.write(stage_line(broken) + "\n")
        listing = sorted(p.name for p in finished.workspace.iterdir())
        with pytest.raises(MissingTranscript):
            export_batch(
                finished.registry, ResultStore(finished.store_path), finished.households_path
            )
        assert finished.households_path.read_bytes() == before
        assert sorted(p.name for p in finished.workspace.iterdir()) == listing


# ---------------------------------------------------------------------------
# The fold against the object path
# ---------------------------------------------------------------------------

# Texts CSV must quote (separator, quote, line breaks, edge spaces) and
# texts it writes as they are.
_cell = st.sampled_from(["Gendre", "", 'Say "x"', "a,b", "two\nlines", "cr\r", " pad ", "é\tß"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=6
)
# Fields in any order, a tag possibly repeated, possibly none at all;
# surname_head weighted up so that households of several records are common.
_fields = st.lists(
    st.tuples(st.sampled_from(["surname_head"] * 3 + TAG_NAMES), _cell), max_size=5
)
_page = st.one_of(
    st.lists(_fields, max_size=5).map(lambda records: ("LIST", records)),
    st.sampled_from(OTHER_CLASSES).map(lambda page_class: (page_class, None)),
)


def page_payload(image: ImageRef, page_class: str, records) -> dict:
    if records is not None:
        records = [
            {"is_head": any(tag == "surname_head" for tag, _ in fields),
             "fields": [{"tag": tag, "text": text} for tag, text in fields]}
            for fields in records
        ]
    return payload_for(image, page_class, records)


def export_both(registers: list[list[tuple]], lines_order=None) -> tuple:
    """(counts, CSV bytes) of export_batch and of the oracle over a store
    holding ``registers``' pages, in order or in ``lines_order``."""
    registry = make_registry([len(pages) for pages in registers])
    lines = [
        stage_line(page_payload(image, *page))
        for register, pages in zip(registry.registers, registers)
        for image, page in zip(register.images, pages)
    ]
    if lines_order and lines:
        lines = [lines[i % len(lines)] for i in lines_order] + lines
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        store = write_store(tmp / "store.ndjson", lines)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RowCountWarning)
            want = oracle_export(registry, store, tmp / "oracle.csv")
        got = export_batch(registry, store, tmp / "households.csv")
        return (got, (tmp / "households.csv").read_bytes()), (want, (tmp / "oracle.csv").read_bytes())


HEAD = ("surname_head", "Gendre")
EVERY_CASE = [
    [
        ("LIST", [[("firstname", "head-less"), ("age", "3")], [HEAD]]),  # head-less first page
        ("LIST", [[("firstname", "fragment")]]),
        ("LIST", []),  # an empty LIST page between two fragments
        ("LIST", [[("firstname", "fragment"), ("occupation", "a,b")], [], [HEAD, ("link", "x")]]),
        ("TOTALS", None),  # a non-LIST gap
        ("LIST", [[("age", "40"), ("firstname", "Pierre"), ("surname_head", 'Say "x"')],  # out of order
                  [("surname", "Martin"), ("surname", "Müller"), ("age", "two\nlines")]]),  # repeated tag
    ],
    [("LIST", [[("surname_head", "")], [("firstname", "cr\r")]])],  # a head with an empty surname
]


class TestFoldAgainstObjectPath:
    @given(st.lists(st.lists(_page, max_size=7), min_size=1, max_size=3),
           st.none() | st.lists(st.integers(min_value=0, max_value=40), max_size=4))
    @example(EVERY_CASE, None)
    @settings(max_examples=300, deadline=None)
    def test_registers(self, registers, duplicates):
        """``duplicates`` stores some pages a first time before all pages
        are stored: the later record wins on both paths."""
        got, want = export_both(registers, duplicates)
        assert got == want

    def test_every_case_has_rows(self):
        got, _ = export_both(EVERY_CASE)
        (exported, skipped, people), data = got
        assert (exported, skipped, people) == (2, 0, 10)
        assert b'"a,b"' in data and b'"Say ""x"""' in data and b'"two\nlines"' in data

    def test_no_domain_objects_are_built(self, tmp_path, monkeypatch, finished):
        # The fold is what makes export cheap: it must not build records,
        # transcripts or household sets on the way to the rows.
        import censusflow.domain
        import censusflow.household
        import censusflow.pipeline.runner
        import censusflow.pipeline.stages

        store = ResultStore(finished.store_path)
        oracle_export(finished.registry, store, tmp_path / "oracle.csv")

        def built(*args, **kwargs):
            raise AssertionError("domain object path used")

        for module in (censusflow.domain, censusflow.household, censusflow.pipeline.stages,
                       censusflow.pipeline.runner):
            for name in ("PersonRecord", "merge_register", "payload_transcript"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, built)
        export_batch(finished.registry, store, tmp_path / "households.csv")
        assert (tmp_path / "households.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_long_page_does_not_warn_again(self, tmp_path):
        registry = make_registry([1])
        records = [[HEAD]] + [[("firstname", str(i))] for i in range(44)]
        store = write_store(tmp_path / "store.ndjson",
                            [stage_line(page_payload(registry.registers[0].images[0], "LIST", records))])
        with pytest.warns(RowCountWarning):  # the object path warns on rebuilding the page
            oracle_export(registry, store, tmp_path / "oracle.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert export_batch(registry, store, tmp_path / "households.csv") == (1, 0, 45)
        assert not [w for w in caught if issubclass(w.category, RowCountWarning)]
        assert (tmp_path / "households.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# ---------------------------------------------------------------------------
# The store's own index
# ---------------------------------------------------------------------------


class TestStoreIndex:
    def test_run_store_exports_as_a_fresh_one(self, tmp_path, finished):
        # run_batch exported through the store it integrated into.
        out = tmp_path / "households.csv"
        export_batch(finished.registry, ResultStore(finished.store_path), out)
        assert out.read_bytes() == finished.households_path.read_bytes()

    def test_adds_keep_the_index(self, tmp_path):
        """Adds after a torn tail, and a later record for a page already
        stored under another task id, index as a fresh open does."""
        rng = random.Random(5)
        registry = make_registry([3, 2])
        images = list(registry.iter_images())
        path = tmp_path / "store.ndjson"
        first = stage_line(random_page(rng, images[0]))
        path.write_text(first + "\n" + first[:20], encoding="utf-8")
        store = ResultStore(path)
        for image in images[1:] + [images[0]]:
            payload = random_page(rng, image)
            if image is images[0]:
                payload["task_id"] += "-again"
            assert store.add(payload["task_id"], payload, stage_line(payload))
        fresh = ResultStore(path)
        assert store.pages == fresh.pages and len(store) == len(fresh) == len(images)
        export_batch(registry, store, tmp_path / "own.csv")
        oracle_export(registry, fresh, tmp_path / "oracle.csv")
        assert (tmp_path / "own.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# ---------------------------------------------------------------------------
# Corrupt store lines
# ---------------------------------------------------------------------------


class TestCorruptLines:
    def test_corrupt_record_with_readable_head_names_its_register(self, finished):
        data = finished.store_path.read_bytes()
        lines = data.splitlines(keepends=True)
        k = max(range(len(lines)), key=lambda i: len(lines[i]))  # a LIST record
        offset = sum(map(len, lines[:k]))
        middle = offset + len(lines[k]) // 2
        finished.store_path.write_bytes(data[:middle] + b"\x01" * 8 + data[middle + 8:])
        before = finished.households_path.read_bytes()
        listing = sorted(p.name for p in finished.workspace.iterdir())

        store = ResultStore(finished.store_path)
        assert len(store) == len(lines)
        register_id = json.loads(lines[k])["register_id"]
        with pytest.raises(CorruptLine) as info:
            export_batch(finished.registry, store, finished.households_path)
        assert (info.value.path, info.value.offset) == (finished.store_path, offset)
        assert info.value.register_id == register_id and repr(register_id) in str(info.value)
        assert finished.households_path.read_bytes() == before
        assert sorted(p.name for p in finished.workspace.iterdir()) == listing

    @pytest.mark.parametrize("bad", [b"[1, 2]", b"{not json", b'"text"', b"\xff{}"],
                             ids=["array", "invalid", "string", "not-utf8"])
    def test_line_that_is_not_an_object(self, tmp_path, bad):
        image = make_registry([1]).registers[0].images[0]
        first = stage_line(payload_for(image, "TOTALS", None)).encode("utf-8") + b"\n"
        path = tmp_path / "store.ndjson"
        path.write_bytes(first + bad + b"\n")
        for read in (ResultStore, lambda path: list(read_ndjson(path))):
            with pytest.raises(CorruptLine) as info:
                read(path)
            assert (info.value.path, info.value.offset) == (path, len(first))
            assert f"byte {len(first)}" in str(info.value)


# ---------------------------------------------------------------------------
# The export memo
# ---------------------------------------------------------------------------


def leave_memo(registry: Registry, path: Path) -> None:
    """Memoise every complete register of the store at ``path``, as the
    windows of a run do."""
    memo = ExportMemo(ResultStore(path), writable=True)
    for register in registry.registers:
        memo.keep(register)


def no_fold(*args, **kwargs):
    raise AssertionError("register folded")


class TestMemoAgainstOracle:
    @pytest.mark.parametrize("case", ["as-left", "superseded", "torn-tail", "stale-digest",
                                      "corrupt-lines", "deleted"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_stores(self, tmp_path, monkeypatch, seed, case):
        rng = random.Random(seed)
        registry = make_registry([rng.randint(0, 6) for _ in range(rng.randint(3, 9))])
        path = tmp_path / "store.ndjson"
        write_store(path, random_store_lines(rng, registry))
        leave_memo(registry, path)
        memo = path.with_name(MEMO_NAME)
        lines = memo.read_bytes().splitlines(keepends=True)
        assert lines
        if case == "superseded":  # later records for some pages of the store
            with open(path, "a", encoding="utf-8") as fh:
                for image in rng.sample(list(registry.iter_images()), 2):
                    fh.write(stage_line(random_page(rng, image)) + "\n")
        elif case == "torn-tail":
            memo.write_bytes(b"".join(lines) + lines[-1][: len(lines[-1]) // 2])
        elif case == "stale-digest":  # wrong rows under a digest of other lines
            stale = [dict(json.loads(line), digest="0" * 32, csv="wrong\r\n") for line in lines]
            memo.write_text("".join(json.dumps(r) + "\n" for r in stale), encoding="ascii")
        elif case == "corrupt-lines":
            memo.write_bytes(b"{not json\n[1]\n" + b"".join(lines) + b'{"csv": 1}\n')
        elif case == "deleted":
            memo.unlink()
        if case in ("as-left", "torn-tail", "corrupt-lines"):
            monkeypatch.setattr(runner_module, "register_rows", no_fold)
        before = memo.read_bytes() if memo.exists() else None

        got = export_batch(registry, ResultStore(path), tmp_path / "households.csv")
        want = oracle_export(registry, ResultStore(path), tmp_path / "oracle.csv")
        assert got == want
        assert (tmp_path / "households.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert (memo.read_bytes() if memo.exists() else None) == before

    def test_run_memoises_a_register_exported_without_one(self, tmp_path, monkeypatch, finished):
        """A complete register with no usable memo is folded once by the
        run that finds it so, and copied from then on."""
        memo = finished.workspace / MEMO_NAME
        memo.unlink()
        run_batch(finished)
        assert len(memo.read_bytes().splitlines()) == len(finished.registry.registers)
        monkeypatch.setattr(runner_module, "register_rows", no_fold)
        before = finished.households_path.read_bytes()
        run_batch(finished)
        assert finished.households_path.read_bytes() == before


class Killed(Exception):
    pass


class TestMemoAcrossKill:
    def test_resume_folds_only_registers_completed_after_the_kill(self, tmp_path, monkeypatch):
        corpus = generate_corpus(
            tmp_path / "corpus", registers=5, seed=4, list_pages_min=1, list_pages_max=2,
            profile=SyntheticProfile(min_rows=3, max_rows=6, household_size_mean=3.0),
        )

        def config(workspace, **overrides):
            return RunConfig(
                workspace=workspace, registry=corpus.registry,
                endpoint=IiifEndpoint("https://fixture.local/iiif"),
                transport=FixtureTransport(corpus.root), workers=mock_worker_set(seed=0),
                scheduler=LocalExecutor(2), prestage_concurrency=2, window=3, **overrides,
            )

        reference = run_batch(config(tmp_path / "reference"))
        # The kill lands at the first transition of the third window, after
        # the first two windows were integrated and memoised.
        later = {task_id_for(image) for image in list(corpus.registry.iter_images())[6:]}

        def kill(manifest):
            if manifest.task_id in later:
                raise Killed()

        workspace = tmp_path / "ws"
        with pytest.raises(Killed):
            run_batch(config(workspace, on_transition=kill))
        pages = ResultStore(workspace / "results_store.ndjson").pages
        done = {r.metadata.register_id for r in corpus.registry.registers if _complete(r, pages)}
        left = [r.metadata.register_id for r in corpus.registry.registers
                if r.metadata.register_id not in done]
        assert done and left

        folded = []

        def counted(register_id, payloads):
            folded.append(register_id)
            return register_rows(register_id, payloads)

        monkeypatch.setattr(runner_module, "register_rows", counted)
        report = run_batch(config(workspace))
        assert sorted(folded) == sorted(left)
        assert Path(report.households_csv).read_bytes() == Path(reference.households_csv).read_bytes()


class TestExportHandles:
    def test_each_file_is_opened_once_for_the_reads(self, tmp_path, monkeypatch):
        """However many registers, an export opens the store and the memo
        once each for the head pass and once each for its reads."""
        rng = random.Random(5)
        registry = make_registry([3] * 12)
        path = tmp_path / "store.ndjson"
        write_store(path, [stage_line(random_page(rng, image))
                           for image in registry.iter_images()])
        leave_memo(registry, path)
        opened = Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened[Path(file).name] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        exported, _, _ = export_batch(registry, ResultStore(path), tmp_path / "households.csv")
        monkeypatch.undo()
        assert exported == 12
        assert (opened[path.name], opened[MEMO_NAME]) == (2, 2)


class TestExportCommandReadsOnly:
    def test_memo_left_as_it_was(self, tmp_path, finished):
        from click.testing import CliRunner

        from censusflow.cli import main

        memo = finished.workspace / MEMO_NAME
        # A later record for one page: its register misses the memo.
        lines = finished.store_path.read_text(encoding="utf-8").splitlines()
        with open(finished.store_path, "a", encoding="utf-8") as fh:
            fh.write(lines[0] + "\n")
        args = ["export", "--workspace", str(finished.workspace), "--households"]
        before = memo.read_bytes()
        result = CliRunner().invoke(main, args + [str(tmp_path / "with.csv")])
        assert result.exit_code == 0, result.output
        assert memo.read_bytes() == before
        memo.unlink()
        result = CliRunner().invoke(main, args + [str(tmp_path / "without.csv")])
        assert result.exit_code == 0, result.output
        assert not memo.exists()
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()
        assert (tmp_path / "with.csv").read_bytes() == finished.households_path.read_bytes()


def export_command(monkeypatch, workspace: Path, out: Path) -> int:
    """Run ``censusflow export --households out`` on ``workspace``; returns
    how many store lines it read by offset."""
    from click.testing import CliRunner

    from censusflow.cli import main

    reads = Counter()
    real_read = AppendFile.read

    def counting_read(self, offset):
        reads[self.path.name] += 1
        return real_read(self, offset)

    monkeypatch.setattr(AppendFile, "read", counting_read)
    result = CliRunner().invoke(main, ["export", "--workspace", str(workspace),
                                       "--households", str(out)])
    monkeypatch.undo()
    assert result.exit_code == 0, result.output
    return reads[STORE_NAME]


def flip_a_letter(path: Path) -> None:
    """Change the case of a transcript's first letter: the store stays
    valid, and only its digest can tell."""
    data = bytearray(path.read_bytes())
    at = data.index(b'"text": "') + len(b'"text": "')
    data[at] ^= 0x20
    path.write_bytes(bytes(data))


class TestExportFromTheCheckpoint:
    """``censusflow export`` opens the store from the checkpoint's store
    section, whose digests vouch for each register's lines."""

    def test_reads_no_line_of_a_register_the_section_vouches_for(self, tmp_path, monkeypatch,
                                                                 finished):
        assert export_command(monkeypatch, finished.workspace, tmp_path / "a.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == finished.households_path.read_bytes()
        # A later record for one page: only its register's lines are read.
        first = finished.store_path.read_text(encoding="utf-8").splitlines()[0]
        with open(finished.store_path, "a", encoding="utf-8") as fh:
            fh.write(first + "\n")
        register = finished.registry.registers[0]
        assert json.loads(first)["register_id"] == register.metadata.register_id
        reads = export_command(monkeypatch, finished.workspace, tmp_path / "b.csv")
        assert reads == len(register.images)
        assert (tmp_path / "b.csv").read_bytes() == finished.households_path.read_bytes()

    def test_csv_is_the_one_without_a_checkpoint_and_after_a_flipped_byte(
            self, tmp_path, monkeypatch, finished):
        checkpoint = finished.workspace / "checkpoint.json"
        saved = checkpoint.read_bytes()
        assert export_command(monkeypatch, finished.workspace, tmp_path / "with.csv") == 0
        checkpoint.unlink()
        assert export_command(monkeypatch, finished.workspace, tmp_path / "without.csv") > 0
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()
        assert (tmp_path / "with.csv").read_bytes() == finished.households_path.read_bytes()
        # A flipped byte inside the part of the store the section covers:
        # the section goes unused, and each register is read and hashed.
        flip_a_letter(finished.store_path)
        assert export_command(monkeypatch, finished.workspace, tmp_path / "flipped.csv") > 0
        checkpoint.write_bytes(saved)
        reads = export_command(monkeypatch, finished.workspace, tmp_path / "checkpointed.csv")
        assert reads == finished.registry.image_count()
        flipped = (tmp_path / "flipped.csv").read_bytes()
        assert (tmp_path / "checkpointed.csv").read_bytes() == flipped
        assert flipped != finished.households_path.read_bytes()

    def test_leaves_the_checkpoint_and_the_memo_as_they_were(self, tmp_path, monkeypatch,
                                                             finished):
        files = [finished.workspace / name for name in ("checkpoint.json", MEMO_NAME)]
        before = [path.read_bytes() for path in files]
        assert export_command(monkeypatch, finished.workspace, tmp_path / "a.csv") == 0
        assert [path.read_bytes() for path in files] == before
        # A register whose lines changed after the checkpoint gets a new
        # digest and a new fold; export keeps neither.
        flip_a_letter(finished.store_path)
        assert export_command(monkeypatch, finished.workspace, tmp_path / "b.csv") > 0
        assert [path.read_bytes() for path in files] == before
