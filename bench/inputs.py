"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same corpus, failure sets, noise, gazetteer and CSV. censusflow receives
only these generated inputs.
"""

from __future__ import annotations

import csv
import json
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from censusflow.domain import PageClass, RegisterDocument, RegisterPage, write_fixture
from censusflow.fixtures import DEMO_GAZETTEER, CorpusInfo, generate_corpus, synthetic_register
from censusflow.household import export_households, merge_register
from censusflow.ingest import VALID_CENSUS_YEARS, GazetteerEntry, Registry, save_gazetteer
from censusflow.label_codec import decode_lenient
from censusflow.pipeline import MockRecognizer, NoiseSpec

NOISE = NoiseSpec(char_substitution=0.02, entity_drop=0.02, head_flip=0.01)
CENSUS_YEARS = sorted(VALID_CENSUS_YEARS)

BATCH_IMAGES = 600
EVAL_REGISTERS = 100  # ~300 LIST pages
EVAL_CHUNK_PAGES = 30  # pages per evaluate_corpus directory
EVAL_MISSING_SHARE = 0.02  # prediction files left out
INGEST_COMMUNES = 300
INGEST_SPELLINGS = 232  # distinct raw commune spellings
INGEST_ROWS = 20_000
INGEST_EXPORTS = 8  # CSV exports the rows are split over


# ---------------------------------------------------------------------------
# Pipeline corpus (batch, resume)
# ---------------------------------------------------------------------------


@dataclass
class BatchInputs:
    corpus: CorpusInfo
    missing: list[str]  # identifiers served as 404
    flaky: dict[str, int]  # identifier -> transient transport failures
    flaky_pages: frozenset[bytes]  # image bytes on which the recognizer raises once


def batch_inputs(root: Path, seed: int) -> BatchInputs:
    """About 100 registers (~600 images, ~300 LIST pages) with 1% missing
    images, 2% one-shot transport failures and 1% one-shot recognizer
    crashes."""
    corpus = generate_corpus(root, registers=BATCH_IMAGES // 5, seed=seed,
                             limit_images=BATCH_IMAGES)
    rng = random.Random(f"failures:{seed}")
    identifiers = [img.iiif_identifier for img in corpus.registry.iter_images()]
    picked = rng.sample(identifiers, round(0.01 * len(identifiers)) + round(0.02 * len(identifiers)))
    missing = sorted(picked[: round(0.01 * len(identifiers))])
    flaky = {identifier: 1 for identifier in picked[len(missing):]}
    list_ids = sorted(i for s in corpus.registers for i in s.labels if i not in missing)
    crash_ids = rng.sample(list_ids, max(1, round(0.01 * len(list_ids))))
    flaky_pages = frozenset(image_bytes(corpus, i) for i in crash_ids)
    return BatchInputs(corpus, missing, flaky, flaky_pages)


def image_bytes(corpus: CorpusInfo, identifier: str) -> bytes:
    return (corpus.root / "images" / f"{identifier}.json").read_bytes()


def expected_households(inputs: BatchInputs, seed: int, registry: Registry, out: Path) -> bytes:
    """households.csv of ``registry`` rebuilt without the pipeline:
    MockRecognizer -> decode_lenient -> merge_register -> export_households,
    over the registers whose every image is served (export skips the
    others)."""
    recognizer = MockRecognizer(seed, NOISE)
    missing = set(inputs.missing)
    wanted = {r.metadata.register_id for r in registry.registers}
    entries = []
    for synth in inputs.corpus.registers:
        register = synth.register
        if register.metadata.register_id not in wanted or any(
            img.iiif_identifier in missing for img in register.images
        ):
            continue
        pages = []
        for img in register.images:
            identifier = img.iiif_identifier
            page_class = synth.classes[identifier]
            transcript = None
            if page_class is PageClass.LIST:
                label = recognizer.recognize(image_bytes(inputs.corpus, identifier))
                transcript = decode_lenient(
                    label, page_id=identifier, page_index=img.sequence_index
                ).transcript
            pages.append(RegisterPage(identifier, page_class, transcript))
        document = RegisterDocument(
            register_id=register.metadata.register_id,
            pages=tuple(pages),
            metadata=register.metadata,
        )
        entries.append((document, merge_register(document)))
    export_households(entries, out)
    return out.read_bytes()


# ---------------------------------------------------------------------------
# Evaluation corpus
# ---------------------------------------------------------------------------


@dataclass
class EvalChunk:
    truth_dir: Path
    pred_dir: Path
    pages: int
    missing: frozenset[str]  # file names without a prediction
    char_total: int


def evaluate_inputs(root: Path, seed: int) -> list[EvalChunk]:
    """Truth LIST pages of about 100 synthetic registers (~300 pages of
    ~1,000-1,500 tag-stripped chars) and their noisy predictions, split into
    directories of 30 pages; about 2% of prediction files are left out."""
    from censusflow.metrics import strip_tags

    rng = random.Random(f"evaluate:{seed}")
    recognizer = MockRecognizer(seed, NOISE)
    pages = []
    for k in range(EVAL_REGISTERS):
        synth = synthetic_register(
            rng.randrange(2**32),
            commune=DEMO_GAZETTEER[k % len(DEMO_GAZETTEER)],
            census_year=CENSUS_YEARS[k % len(CENSUS_YEARS)],
            archival_id=f"6M{k + 1}",
            list_pages=rng.randint(2, 4),
        )
        for page in synth.document.pages:
            if page.page_class is PageClass.LIST:
                pages.append((page, synth.labels[page.page_id]))

    chunks = []
    for c in range(0, len(pages), EVAL_CHUNK_PAGES):
        truth_dir = root / "truth" / f"c{c // EVAL_CHUNK_PAGES:02d}"
        pred_dir = root / "pred" / f"c{c // EVAL_CHUNK_PAGES:02d}"
        truth_dir.mkdir(parents=True)
        pred_dir.mkdir(parents=True)
        missing = set()
        char_total = 0
        for page, label in pages[c:c + EVAL_CHUNK_PAGES]:
            name = page.page_id.replace("/", "__") + ".txt"
            write_fixture([page.transcript], truth_dir / name)
            char_total += len(strip_tags(page.transcript))
            if rng.random() < EVAL_MISSING_SHARE:
                missing.add(name)
                continue
            fake_image = json.dumps(
                {"identifier": page.page_id, "page_class": "LIST", "label": label}
            ).encode()
            report = decode_lenient(
                recognizer.recognize(fake_image),
                page_id=page.page_id,
                page_index=page.transcript.page_index_in_register,
            )
            write_fixture([report.transcript], pred_dir / name)
        chunks.append(EvalChunk(truth_dir, pred_dir, len(pages[c:c + EVAL_CHUNK_PAGES]),
                                frozenset(missing), char_total))
    return chunks


# ---------------------------------------------------------------------------
# Ingest: gazetteer and archive CSV
# ---------------------------------------------------------------------------

_SYLLABLES = (
    "mou", "lin", "ver", "neuil", "cha", "tel", "bour", "bon", "sou", "vi", "gny", "ga",
    "nat", "mar", "cil", "lat", "beau", "mont", "ro", "che", "fleur", "val", "bel",
    "lieu", "sau", "vage", "ar", "pen", "cos", "nes", "tri", "ton", "bra", "zais",
    "lu", "ris", "cé", "ly", "dom", "pierre", "fon", "taine", "vil", "lard", "ain",
)
_PREFIXES = ("",) * 12 + ("Saint-", "Sainte-", "Le ", "La ", "Les ")
_SUFFIXES = ("",) * 16 + ("-sur-Allier", "-sur-Sioule", "-le-Château", "-les-Bains",
                          "-en-Forêt", "-la-Montagne")
DEPARTMENT = "Synthèse"
MAPPING_TEXT = "annee=YEAR\ncommune=COMMUNE\ncote=ARCHIVAL_ID\nfichier=IMAGE_PATH\nnotes=IGNORE\n"


def _fold(name: str) -> str:
    decomposed = unicodedata.normalize("NFKD", name.lower())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


def _stem(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()


def _place(rng: random.Random) -> str:
    """A commune name of 8 to 16 characters."""
    while True:
        name = rng.choice(_PREFIXES) + _stem(rng) + rng.choice(_SUFFIXES)
        if 8 <= len(name) <= 16:
            return name


def _typo(rng: random.Random, name: str) -> str:
    i = rng.randrange(1, len(name) - 1)
    op = rng.randrange(4)
    if op == 0:
        return name[:i] + rng.choice("aeioulnrst") + name[i + 1:]
    if op == 1:
        return name[:i] + name[i + 1:]
    if op == 2:
        return name[:i] + rng.choice("aeioulnrst") + name[i:]
    return name[:i - 1] + name[i] + name[i - 1] + name[i + 1:]


def _historical(rng: random.Random, name: str) -> str:
    options = [name.replace("i", "y", 1), name.replace("Saint-", "St-"),
               name.split("-sur-")[0], name + "s", name.replace("ou", "o", 1)]
    options = [o for o in options if o != name and len(o) > 3]
    return rng.choice(options) if options else name + "e"


@dataclass
class IngestInputs:
    gazetteer_path: Path
    mapping_path: Path
    exports: list[Path]  # archive CSV exports, one ingest job each
    rows_per_export: int
    resolutions: dict[str, str]


def ingest_inputs(root: Path, seed: int) -> IngestInputs:
    """A synthetic department of 300 communes (every third with a historical
    variant) and 20,000 image rows split over 8 CSV exports. The commune
    column uses 232 distinct raw spellings, an equal share of them in each
    export: exact names, case, diacritic and hyphen changes, variants, typos
    and names from outside the gazetteer.
    About 1% of rows carry an invalid year and 0.5% repeat an earlier image
    path of their export; two spellings, used in every export, are resolved
    by hand, one of them to an unknown code."""
    rng = random.Random(f"ingest:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    entries: list[GazetteerEntry] = []
    seen: set[str] = set()
    while len(entries) < INGEST_COMMUNES:
        name = _place(rng)
        if _fold(name) in seen:
            continue
        variants = (_historical(rng, name),) if len(entries) % 3 == 0 else ()
        seen.add(_fold(name))
        seen.update(_fold(v) for v in variants)
        entries.append(GazetteerEntry(f"99{len(entries):03d}", name, DEPARTMENT, variants))
    gazetteer_path = root / "gazetteer.csv"
    save_gazetteer(entries, gazetteer_path)

    # Spelling kinds in fixed shares, each spelling 10 to 14 characters
    # long: matching cost grows with the query length, so fixing both keeps
    # the work the same from seed to seed.
    kinds = ("exact", "upper", "folded") * 3 + ("exact", "spaced", "spaced", "variant", "variant",
                                                 "typo", "typo", "typo", "typo2", "outside", "outside")
    raw: list[str] = []
    while len(raw) < INGEST_SPELLINGS:
        kind = kinds[len(raw) % len(kinds)]
        entry = rng.choice([e for e in entries if e.valid_names] if kind == "variant" else entries)
        name = entry.canonical_name
        spelling = {
            "exact": lambda: name,
            "upper": lambda: name.upper(),
            "folded": lambda: _fold(name).title(),
            "spaced": lambda: name.replace("-", " ") if "-" in name else f"{name[:4]}-{name[4:]}",
            "variant": lambda: entry.valid_names[0],
            "typo": lambda: _typo(rng, name),
            "typo2": lambda: _typo(rng, _typo(rng, name)),
            "outside": lambda: _place(rng),
        }[kind]()
        if 10 <= len(spelling) <= 14 and spelling not in raw:
            raw.append(spelling)
    resolutions = {raw[0]: entries[0].code, raw[1]: "00000"}

    per_export = INGEST_ROWS // INGEST_EXPORTS
    paths = [root / f"export-{k}.csv" for k in range(INGEST_EXPORTS)]
    share = len(raw) // INGEST_EXPORTS
    for k, csv_path in enumerate(paths):
        names = list(resolutions) + raw[max(2, k * share):(k + 1) * share]
        _write_export(rng, csv_path, names, per_export)
    mapping_path = root / "mapping.txt"
    mapping_path.write_text(MAPPING_TEXT, encoding="utf-8")
    return IngestInputs(gazetteer_path, mapping_path, paths, per_export, resolutions)


def _write_export(rng: random.Random, path: Path, names: list[str], rows: int) -> None:
    """Registers of 30 to 70 images; each name gets a register before any
    name gets a second one."""
    seen: list[str] = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["annee", "commune", "cote", "fichier", "notes"])
        register = 0
        while len(seen) < rows:
            name = names[register] if register < len(names) else rng.choice(names)
            year = rng.choice(CENSUS_YEARS)
            cote = f"6M{register + 1}"
            for i in range(min(rng.randint(30, 70), rows - len(seen))):
                year_text = str(year)
                roll = rng.random()
                if roll < 0.005:
                    year_text = rng.choice(("18?6", "", "1881a", "mil huit cent"))
                elif roll < 0.01:
                    year_text = str(rng.choice((1871, 1916, 1850, 1937)))
                image = f"AD99/{year}/{cote}/{i + 1:04d}.jpg"
                if seen and rng.random() < 0.005:
                    image = rng.choice(seen)
                seen.append(image)
                writer.writerow([year_text, name, cote, image, ""])
            register += 1

