"""Household export from the result store, one register at a time.

``documents_from_store`` below is the export as it was before it streamed:
it parses every record, keeps the last one per ``(register_id,
sequence_index)``, decodes each label into a page (``decode_lenient``) and
rebuilds every complete register at once. With ``merge_register`` and
``export_households`` it is the oracle the streaming ``export_batch`` must
match byte for byte, with or without an export memo left by a run.

The stores below hold labels as a recognizer writes them: canonical ones
(``encode``) and noisy ones, with unknown tokens, repeated and empty
fields, and cells holding quotes, commas, carriage returns or accents.
"""

import builtins
import csv
import io
import json
import random
import re
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from censusflow.domain import (
    FIELD_ORDER,
    TAG_FOR_NAME,
    TOKEN_FOR_TAG,
    EntityTag,
    PageClass,
    PageTranscript,
    PersonRecord,
    RegisterDocument,
    RegisterPage,
    RowCountWarning,
)
from censusflow.fixtures import FixtureTransport, generate_corpus
from censusflow.household import EXPORT_COLUMNS, export_households, merge_register, write_export
from censusflow.iiif import IiifEndpoint
from censusflow.ingest import GazetteerEntry, ImageRef, Register, RegisterMetadata, Registry
from censusflow.label_codec import DECODER_VERSION, SyntheticProfile, decode_fields, encode
from censusflow.pipeline import LocalExecutor, ResultStore, RunConfig, export_batch, run_batch
from censusflow.pipeline.manifests import AppendFile, CorruptLine, read_ndjson, task_id_for
from censusflow.pipeline.runner import (
    MEMO_NAME, STORE_NAME, ExportMemo, Workspace, _complete, register_rows,
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


WORDS = ["Gendre", "Martin", "Müller", 'Say "x"', "a\\b", "é\tß", "a,b", "cr\r", "chef", "75"]
# What a noisy recognizer splices into a label: an unknown token and the
# text it drops, a lone "<", a repeated field, an empty field, stray
# spaces and record breaks.
NOISE = ["<zz>junk ", "<", "<f>Jean ", "<o> ", "<a>", "  ", "\n", "\n\n", "<s-h>"]


def random_label(rng: random.Random, rows: int) -> str:
    """The label of ``rows`` random records as ``encode`` writes it, or,
    one time in three, that label with noise spliced in (``NOISE``)."""
    records = []
    for _ in range(rows):
        head = rng.random() < 0.35
        fields = {EntityTag.SURNAME_HEAD if head else EntityTag.SURNAME: rng.choice(WORDS)}
        for tag in rng.sample(FIELD_ORDER[2:], rng.randint(0, 4)):
            fields[tag] = rng.choice(WORDS)
        records.append(PersonRecord(fields))
    label = encode(PageTranscript(tuple(records)))
    if rng.random() < 1 / 3:
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(label))
            label = label[:at] + rng.choice(NOISE) + label[at:]
    return label


def payload_for(image: ImageRef, page_class: str, label) -> dict:
    """A result payload laid out as the process stage builds it."""
    return {
        "task_id": f"{image.register.register_id}-p{image.sequence_index:04d}",
        "register_id": image.register.register_id,
        "page_id": image.iiif_identifier,
        "sequence_index": image.sequence_index,
        "page_class": page_class,
        "transcript": label,
        "worker": {"classifier": "mock", "recognizer": "mock"},
    }


def stage_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def random_page(rng: random.Random, image: ImageRef, max_rows: int = 8) -> dict:
    if rng.random() < 0.6:
        return payload_for(image, "LIST", random_label(rng, rng.randint(0, max_rows)))
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
# Opening a store
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
# Strings without a quote, backslash or control character, which JSON
# writes without escapes.
_plain = st.text(st.characters(blacklist_characters='"\\', blacklist_categories=("Cc", "Cs")),
                 max_size=12)
_VARIANTS = ["stage", "stage", "permuted", "duplicate", "spaced", "ascii", "escaped-key"]
# Labels whose JSON holds escapes, and text that looks like an indexed key.
_labels = st.sampled_from(["<s-h>Gendre <f>Pierre\n<s>Martin", 'a "register_id": "z"\\',
                           '<f>x_i\n\t"', ""])


@st.composite
def record_lines(draw) -> bytes:
    """A JSON object text with the keys of a result payload: laid out as the
    process stage writes it, or with one variation on that layout."""
    text = draw(st.sampled_from([_plain, _text]))
    record = {
        "page_class": draw(st.sampled_from(["LIST", "TOTALS"]) | text),
        "page_id": draw(text),
        "register_id": draw(text),
        "sequence_index": draw(st.integers(min_value=0) | _index),
        "task_id": draw(text),
        "transcript": draw(st.none() | text | _labels),
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


def fold_pages(lines: list[bytes]) -> dict:
    """The page index of a store holding ``lines``: the later-wins fold of
    ``json.loads`` over every line, keyed by the values it gives."""
    pages, offset = {}, 0
    for line in lines:
        record = json.loads(line)
        pages.setdefault(record.get("register_id"), {})[record.get("sequence_index")] = offset
        offset += len(line)
    return pages


def typed(pages: dict) -> list:
    """``pages`` with the type of every key, since ``1 == 1.0 == True``."""
    return [(type(r), r, [(type(s), s, offset) for s, offset in offsets.items()])
            for r, offsets in pages.items()]


class TestStoreOpen:
    @given(st.lists(record_lines(), max_size=8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_index_is_the_fold_of_json_loads(self, lines, data):
        """With no checkpoint section, and with one over a whole-line
        prefix of the store and the rest as its tail."""
        lines = [line + b"\n" for line in lines]
        want = typed(fold_pages(lines))
        cut = data.draw(st.integers(min_value=0, max_value=len(lines)), label="cut")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / STORE_NAME
            path.write_bytes(b"".join(lines[:cut]))
            section = ResultStore(path).section()
            path.write_bytes(b"".join(lines))
            assert typed(ResultStore(path).pages) == want
            opened = ResultStore(path, section)
            assert opened.verified == sum(map(len, lines[:cut]))
            assert typed(opened.pages) == want


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
                 "\n" in p["transcript"])
        later = dict(payloads[k], transcript=payloads[k]["transcript"].partition("\n")[2])
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
        its read after earlier registers' rows are written: the old CSV
        stays as it was and no temporary file is left behind."""
        before = finished.households_path.read_bytes()
        last = finished.registry.registers[-1]
        broken = payload_for(last.images[0], "LIST", None)
        with open(finished.store_path, "a", encoding="utf-8") as fh:
            fh.write(stage_line(broken) + "\n")
        listing = sorted(p.name for p in finished.workspace.iterdir())
        with pytest.raises(CorruptLine, match="LIST page without transcript"):
            export_batch(
                finished.registry, ResultStore(finished.store_path), finished.households_path
            )
        assert finished.households_path.read_bytes() == before
        assert sorted(p.name for p in finished.workspace.iterdir()) == listing

    @pytest.mark.parametrize("parent, error", [("missing", FileNotFoundError),
                                               ("file", NotADirectoryError)])
    def test_a_directory_that_is_not_one_names_the_path(self, tmp_path, parent, error):
        """An output path under a missing directory, or under a file: the
        error names the path given, not the temporary file beside it."""
        (tmp_path / "file").write_text("")
        path = tmp_path / parent / "h.csv"
        with pytest.raises(error) as raised:
            write_export([("", 0)], path)
        assert raised.value.filename == str(path) and ".tmp" not in str(raised.value)
        assert [p.name for p in tmp_path.iterdir()] == ["file"]


# ---------------------------------------------------------------------------
# The fold against the object path
# ---------------------------------------------------------------------------

# Texts CSV must quote (separator, quote, carriage return, edge spaces)
# and texts it writes as they are. A newline ends a record in a label, so
# no cell holds one.
_cell = st.sampled_from(["Gendre", "", 'Say "x"', "a,b", "cr\r", " pad ", "é\tß"]) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=6
)
# Fields in any order, a tag possibly repeated, possibly none at all;
# surname_head weighted up so that households of several records are common.
_fields = st.lists(
    st.tuples(st.sampled_from(["surname_head"] * 3 + TAG_NAMES), _cell), max_size=5
)
_page = st.one_of(
    st.lists(_fields, max_size=5).map(lambda records: ("LIST", records)),
    st.lists(st.sampled_from(NOISE + WORDS), max_size=12).map(
        lambda parts: ("LIST", "".join(parts))),
    st.sampled_from(OTHER_CLASSES).map(lambda page_class: (page_class, None)),
)


def label_of(records) -> str:
    """The label a recognizer writes for ``records``, lists of ``(tag name,
    text)``: each field its tag's token then its text, fields joined by a
    space, records by a newline, as ``encode`` joins them, but in the order
    given and with nothing checked."""
    return "\n".join(" ".join(TOKEN_FOR_TAG[TAG_FOR_NAME[tag]] + text for tag, text in fields)
                     for fields in records)


def page_payload(image: ImageRef, page_class: str, records) -> dict:
    """``records`` is a label, a list of records for ``label_of`` or None."""
    if isinstance(records, list):
        records = label_of(records)
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
                  [("surname", "Martin"), ("age", "2"), ("age", "cr\r")]]),  # repeated tag
    ],
    [("LIST", [[("surname_head", "")], [("firstname", "é")]])],  # a head with an empty surname
    [("LIST", "<zz>junk <f>Jean <o> <a>7\n\n<s>Roux <<l>fils  ")],  # unknown tokens, empty field
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
        assert (exported, skipped, people) == (3, 0, 12)
        assert b'"a,b"' in data and b'"Say ""x"""' in data and b'"cr\r"' in data

    def test_no_domain_objects_are_built(self, tmp_path, monkeypatch, finished):
        # The fold is what makes export cheap: it must not build records,
        # transcripts or household sets on the way to the rows.
        import censusflow.domain
        import censusflow.household
        import censusflow.label_codec
        import censusflow.pipeline.runner
        import censusflow.pipeline.stages

        store = ResultStore(finished.store_path)
        oracle_export(finished.registry, store, tmp_path / "oracle.csv")

        def built(*args, **kwargs):
            raise AssertionError("domain object path used")

        for module in (censusflow.domain, censusflow.household, censusflow.label_codec,
                       censusflow.pipeline.stages, censusflow.pipeline.runner):
            for name in ("PersonRecord", "PageTranscript", "merge_register", "payload_transcript",
                         "decode_lenient", "decode_strict"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, built)
        export_batch(finished.registry, store, tmp_path / "households.csv")
        assert (tmp_path / "households.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_long_page_warns_only_where_its_transcript_is_built(self, tmp_path):
        """A page of more than 40 records warns when a PageTranscript is
        built from its label (``payload_transcript``, which ``export
        --pages`` and the oracle call), and not in the fold, which builds
        none."""
        registry = make_registry([1])
        records = [[HEAD]] + [[("firstname", str(i))] for i in range(44)]
        payload = page_payload(registry.registers[0].images[0], "LIST", records)
        store = write_store(tmp_path / "store.ndjson", [stage_line(payload)])
        with pytest.warns(RowCountWarning):
            oracle_export(registry, store, tmp_path / "oracle.csv")
        with pytest.warns(RowCountWarning, match="has 45 records"):
            payload_transcript(payload)
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
        """Adds after a torn tail index as a fresh open does; an add for a
        page already stored is a no-op."""
        rng = random.Random(5)
        registry = make_registry([3, 2])
        images = list(registry.iter_images())
        path = tmp_path / "store.ndjson"
        first = stage_line(random_page(rng, images[0]))
        path.write_text(first + "\n" + first[:20], encoding="utf-8")
        store = ResultStore(path)
        for image in images[1:] + [images[0]]:
            payload = random_page(rng, image)
            line = (stage_line(payload) + "\n").encode("utf-8")
            assert store.add(payload["task_id"], line) is (image is not images[0])
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
        """A record whose head the process stage's layout would still show,
        corrupt after it, stops the store open: the error names its file
        and byte offset, which hold the register's line."""
        data = finished.store_path.read_bytes()
        lines = data.splitlines(keepends=True)
        k = max(range(len(lines)), key=lambda i: len(lines[i]))  # a LIST record
        offset = sum(map(len, lines[:k]))
        middle = offset + len(lines[k]) // 2
        finished.store_path.write_bytes(data[:middle] + b"\x01" * 8 + data[middle + 8:])
        before = finished.households_path.read_bytes()
        listing = sorted(p.name for p in finished.workspace.iterdir())

        with pytest.raises(CorruptLine) as info:
            ResultStore(finished.store_path)
        assert (info.value.path, info.value.offset) == (finished.store_path, offset)
        assert f"byte {offset}" in str(info.value)
        assert lines[k].index(b'"task_id"') < middle - offset  # after the indexed keys
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

    @pytest.mark.parametrize("key, value", [
        ("register_id", ["1836-03013-6m1"]), ("register_id", {"id": "x"}),
        ("sequence_index", [0]), ("sequence_index", {}),
    ], ids=["register-array", "register-object", "sequence-array", "sequence-object"])
    def test_unhashable_index_key(self, tmp_path, key, value):
        """A JSON object whose register_id or sequence_index cannot key the
        page index stops the open with CorruptLine, not TypeError."""
        image = make_registry([1]).registers[0].images[0]
        first = stage_line(payload_for(image, "TOTALS", None)).encode("utf-8") + b"\n"
        bad = dict(payload_for(image, "TOTALS", None), **{key: value})
        path = tmp_path / "store.ndjson"
        path.write_bytes(first + stage_line(bad).encode("utf-8") + b"\n")
        with pytest.raises(CorruptLine) as info:
            ResultStore(path)
        assert (info.value.path, info.value.offset) == (path, len(first))
        assert f"{path}: line at byte {len(first)} cannot be indexed" in str(info.value)


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


def count_folds(monkeypatch) -> list[str]:
    """Have the fold list the id of each register it folds; returns the list."""
    folded = []

    def counted(register_id, payloads):
        folded.append(register_id)
        return register_rows(register_id, payloads)

    monkeypatch.setattr(runner_module, "register_rows", counted)
    return folded


class TestMemoAgainstOracle:
    @pytest.mark.parametrize("case", ["as-left", "superseded", "torn-tail", "stale-digest",
                                      "corrupt-lines", "reordered-keys", "deleted"])
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
        elif case == "reordered-keys":  # the same records in another layout: not used
            memo.write_text("".join(json.dumps(dict(sorted(json.loads(line).items()))) + "\n"
                                    for line in lines), encoding="ascii")
        elif case == "deleted":
            memo.unlink()
        if case in ("as-left", "torn-tail", "corrupt-lines"):
            monkeypatch.setattr(runner_module, "register_rows", no_fold)
        folded = count_folds(monkeypatch) if case == "reordered-keys" else None
        before = memo.read_bytes() if memo.exists() else None

        got = export_batch(registry, ResultStore(path), tmp_path / "households.csv")
        if case == "reordered-keys":
            assert folded == [r.metadata.register_id for r in registry.registers
                              if _complete(r, ResultStore(path).pages)]
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


class TestDecoderVersion:
    """The memo's rows hold for the labels they were folded from and for the
    decoder that folded them (``DECODER_VERSION``)."""

    def test_a_new_version_refolds_every_register(self, monkeypatch, finished):
        def upper(label):  # a decoder that reads every text in upper case
            return [{tag: text.upper() for tag, text in fields.items()}
                    for fields in decode_fields(label)]

        def no_hash(*args, **kwargs):
            raise AssertionError("register digest taken again")

        folded = count_folds(monkeypatch)
        monkeypatch.setattr(runner_module, "decode_fields", upper)
        # The store's digests come from checkpoint.json, never from a hash.
        monkeypatch.setattr(runner_module.hashlib, "blake2b", no_hash)
        before = finished.households_path.read_bytes()

        run_batch(finished)  # the same version: the memo's rows are copied
        assert folded == [] and finished.households_path.read_bytes() == before

        monkeypatch.setattr(runner_module, "DECODER_VERSION", DECODER_VERSION + 1)
        run_batch(finished)
        assert folded == [r.metadata.register_id for r in finished.registry.registers]
        rows = list(csv.reader(io.StringIO(before.decode("utf-8"), newline="")))
        want = [row[:5] + [text.upper() for text in row[5:]] for row in rows[1:]]
        got = list(csv.reader(io.StringIO(finished.households_path.read_text("utf-8"),
                                          newline="")))
        assert got[1:] == want and want != rows[1:]

        folded.clear()  # both versions' rows are memoised now
        with Workspace(finished.workspace) as ws:
            export_batch(finished.registry, ws.store, finished.workspace / "again.csv")
            monkeypatch.setattr(runner_module, "DECODER_VERSION", DECODER_VERSION)
            export_batch(finished.registry, ws.store, finished.workspace / "first.csv")
        assert folded == []
        assert (finished.workspace / "again.csv").read_bytes() == (
            finished.households_path.read_bytes())
        assert (finished.workspace / "first.csv").read_bytes() == before


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

        folded = count_folds(monkeypatch)
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
    """Change the case of the first letter of the first first name in the
    store's labels: the store stays valid, and only its digest can tell."""
    data = bytearray(path.read_bytes())
    at = re.search(rb"<f>[A-Za-z]", data).end() - 1
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
