"""Synthetic register corpora for tests, demos and calibration runs.

A synthetic register is generated forward from a stream of households: sizes
are drawn, members sampled, and rows packed onto list pages so households
regularly span page boundaries. The generator records where it put every
household; that bookkeeping is the ground truth the reconstruction code is
judged against, independent of how reconstruction works.

A file corpus materializes registers as fake archive content: "images" are
small JSON documents embedding the ground-truth page class and label (the
mock workers read them), plus a registry, per-page fixture transcripts and
the expected household export. ``FixtureTransport`` serves the corpus over
the IIIF URL layout so the whole pipeline runs hermetically.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import unquote

from .domain import (
    Household,
    PageClass,
    PageTranscript,
    PersonRecord,
    RegisterDocument,
    RegisterPage,
    write_fixture,
)
from .household import HouseholdSet, export_households
from .iiif import TransportFailure, TransportResponse
from .ingest import (
    GazetteerEntry,
    ImageRef,
    Register,
    RegisterMetadata,
    Registry,
    save_gazetteer,
    save_registry,
)
from .label_codec import DEFAULT_PROFILE, SyntheticProfile, encode, sample_record

DEMO_GAZETTEER: tuple[GazetteerEntry, ...] = (
    GazetteerEntry("03013", "Avermes", "Allier"),
    GazetteerEntry("03118", "Gannat", "Allier", ("Ganat",)),
    GazetteerEntry("03190", "Moulins", "Allier", ("Molins", "Moulins sur Allier")),
    GazetteerEntry("03196", "Neuilly-le-Réal", "Allier", ("Neuilly le Real",)),
    GazetteerEntry("03275", "Souvigny", "Allier"),
    GazetteerEntry("03310", "Vichy", "Allier"),
    GazetteerEntry("03321", "Yzeure", "Allier", ("Izeure",)),
)

_YEARS = (1836, 1872, 1881, 1906, 1921, 1936)


@dataclass
class SyntheticRegister:
    """One generated register with its ground truth."""

    register: Register
    document: RegisterDocument
    truth_households: HouseholdSet
    labels: dict[str, str]  # identifier -> encoded truth label (LIST pages)
    classes: dict[str, PageClass]  # identifier -> page class
    dims: dict[str, tuple[int, int]]  # identifier -> (width, height)


def _draw_household_size(rng: random.Random, mean: float) -> int:
    p = 1.0 / mean
    size = 1
    while rng.random() >= p:
        size += 1
    return size


def synthetic_register(
    seed: int,
    *,
    commune: GazetteerEntry,
    census_year: int,
    archival_id: str,
    list_pages: int = 3,
    profile: SyntheticProfile = DEFAULT_PROFILE,
    all_list: bool = False,
) -> SyntheticRegister:
    """Generate one register deterministically from ``seed``.

    Unless ``all_list`` is set, the register is wrapped in the usual front
    matter: a FRONT page first, RECAP and TOTALS pages at the end.
    """
    rng = random.Random(seed)
    metadata = RegisterMetadata(
        census_year=census_year, commune=commune, archival_id=archival_id
    )
    register_id = metadata.register_id

    page_classes: list[PageClass] = (
        [PageClass.LIST] * list_pages
        if all_list
        else [PageClass.FRONT] + [PageClass.LIST] * list_pages + [PageClass.RECAP, PageClass.TOTALS]
    )

    pages: list[RegisterPage] = []
    images: list[ImageRef] = []
    labels: dict[str, str] = {}
    classes: dict[str, PageClass] = {}
    dims: dict[str, tuple[int, int]] = {}

    households: list[Household] = []
    current: list[PersonRecord] = []
    remaining = 0

    def close_household() -> None:
        nonlocal current
        if current:
            households.append(Household(tuple(current), complete=True))
            current = []

    for seq, page_class in enumerate(page_classes):
        identifier = f"{register_id}/p{seq:04d}"
        images.append(ImageRef(register=metadata, iiif_identifier=identifier, sequence_index=seq))
        classes[identifier] = page_class
        dims[identifier] = (rng.randint(1400, 2400), rng.randint(1900, 3100))
        if page_class is not PageClass.LIST:
            pages.append(RegisterPage(identifier, page_class))
            continue
        n_rows = rng.randint(profile.min_rows, profile.max_rows)
        records = []
        for _ in range(n_rows):
            head = remaining == 0
            if head:
                close_household()
                remaining = _draw_household_size(rng, profile.household_size_mean)
            records.append(sample_record(rng, profile, head))
            current.append(records[-1])
            remaining -= 1
        transcript = PageTranscript(tuple(records), page_id=identifier, page_index_in_register=seq)
        pages.append(RegisterPage(identifier, page_class, transcript))
        labels[identifier] = encode(transcript)
    close_household()  # register end truncates the open household

    document = RegisterDocument(register_id=register_id, pages=tuple(pages), metadata=metadata)
    truth = HouseholdSet(tuple(households), tuple(p.page_id for p in pages if p.page_class is PageClass.LIST))
    return SyntheticRegister(
        register=Register(metadata, tuple(images)),
        document=document,
        truth_households=truth,
        labels=labels,
        classes=classes,
        dims=dims,
    )


@dataclass
class CorpusInfo:
    root: Path
    registry: Registry
    registers: list[SyntheticRegister]
    seed: int

    @property
    def image_count(self) -> int:
        return self.registry.image_count()


def generate_corpus(
    out_dir: str | Path,
    *,
    registers: int = 3,
    seed: int = 0,
    list_pages_min: int = 2,
    list_pages_max: int = 4,
    profile: SyntheticProfile = DEFAULT_PROFILE,
    limit_images: Optional[int] = None,
) -> CorpusInfo:
    """Write a complete synthetic archive corpus under ``out_dir``.

    Layout::

        gazetteer.csv                 demo gazetteer
        registry.ndjson               image registry (ingest format)
        images/<identifier>.json      fixture "image" bytes
        truth/pages/<name>.txt        per-list-page transcript fixtures
        truth/households.csv          expected household export
        truth/classes.csv             identifier,page_class pairs
        corpus.json                   generation parameters
    """
    root = Path(out_dir)
    rng = random.Random(seed)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "truth" / "pages").mkdir(parents=True, exist_ok=True)

    synths: list[SyntheticRegister] = []
    total_images = 0
    for k in range(registers):
        commune = DEMO_GAZETTEER[k % len(DEMO_GAZETTEER)]
        year = _YEARS[(k // len(DEMO_GAZETTEER)) % len(_YEARS)]
        list_pages = rng.randint(list_pages_min, list_pages_max)
        if limit_images is not None:
            budget = limit_images - total_images
            overhead = 3  # FRONT + RECAP + TOTALS
            if budget <= overhead:
                break
            list_pages = min(list_pages, budget - overhead)
        synth = synthetic_register(
            seed=rng.randrange(2**32),
            commune=commune,
            census_year=year,
            archival_id=f"6M{k + 1}",
            list_pages=list_pages,
            profile=profile,
        )
        synths.append(synth)
        total_images += len(synth.register.images)

    registry = Registry(tuple(s.register for s in synths))
    save_registry(registry, root / "registry.ndjson")
    save_gazetteer(DEMO_GAZETTEER, root / "gazetteer.csv")

    class_rows = []
    for synth in synths:
        for image in synth.register.images:
            identifier = image.iiif_identifier
            payload = {
                "identifier": identifier,
                "page_class": synth.classes[identifier].name,
                "width": synth.dims[identifier][0],
                "height": synth.dims[identifier][1],
            }
            if identifier in synth.labels:
                payload["label"] = synth.labels[identifier]
            path = root / "images" / f"{identifier}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, ensure_ascii=False, sort_keys=True), "utf-8")
            class_rows.append(f"{identifier},{synth.classes[identifier].name}")

        for page in synth.document.pages:
            if page.page_class is PageClass.LIST and page.transcript is not None:
                name = page.page_id.replace("/", "__") + ".txt"
                write_fixture([page.transcript], root / "truth" / "pages" / name)

    export_households(
        ((s.document, s.truth_households) for s in synths), root / "truth" / "households.csv"
    )
    (root / "truth" / "classes.csv").write_text("\n".join(class_rows) + "\n", "utf-8")
    (root / "corpus.json").write_text(
        json.dumps(
            {
                "seed": seed,
                "registers": len(synths),
                "images": total_images,
                "list_pages": sum(len(s.labels) for s in synths),
            },
            indent=2,
            sort_keys=True,
        ),
        "utf-8",
    )
    return CorpusInfo(root=root, registry=registry, registers=synths, seed=seed)


class FixtureTransport:
    """Serves a generated corpus over the IIIF URL layout.

    Understands ``.../{identifier}/info.json`` and
    ``.../{identifier}/full/{full|max}/0/default.jpg``. Optional failure
    injection: identifiers in ``missing`` return 404; ``flaky`` maps an
    identifier to a number of transient failures raised before success.
    """

    def __init__(
        self,
        corpus_root: str | Path,
        *,
        missing: Sequence[str] = (),
        flaky: Optional[dict[str, int]] = None,
    ):
        self.root = Path(corpus_root)
        self.missing = set(missing)
        self.flaky = dict(flaky or {})
        self.calls = 0

    def _identifier(self, url: str) -> str:
        parts = url.rstrip("/").split("/")
        if url.endswith("/info.json"):
            return unquote(parts[-2])
        if url.endswith("/default.jpg"):
            return unquote(parts[-5])
        raise TransportFailure(f"unsupported fixture URL: {url}")

    def get(self, url: str, timeout_ms: int) -> TransportResponse:
        self.calls += 1
        identifier = self._identifier(url)
        if self.flaky.get(identifier, 0) > 0:
            self.flaky[identifier] -= 1
            raise TransportFailure(f"injected transient failure for {identifier}")
        path = self.root / "images" / f"{identifier}.json"
        if identifier in self.missing or not path.exists():
            return TransportResponse(404, b"not found")
        body = path.read_bytes()
        if url.endswith("/info.json"):
            payload = json.loads(body.decode("utf-8"))
            info = {"width": payload.get("width"), "height": payload.get("height")}
            return TransportResponse(200, json.dumps(info).encode("utf-8"))
        return TransportResponse(200, body)
