"""Acceptance suite: one test per release criterion.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` or
``-rA`` to see them) and enforces its runtime budget where one is stated.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from censusflow.domain import EntityTag, PageClass, PersonRecord
from censusflow.fixtures import (
    DEMO_GAZETTEER,
    FixtureTransport,
    generate_corpus,
    synthetic_register,
)
from censusflow.household import group_page, household_accuracy, merge_register
from censusflow.iiif import IiifEndpoint, IsolationViolation, NullTransport
from censusflow.ingest import (
    ColumnMapping,
    ColumnRole,
    GazetteerEntry,
    build_registry,
    import_csv,
    save_registry,
    similarity,
)
from censusflow.label_codec import (
    SyntheticProfile,
    decode_lenient,
    decode_strict,
    encode,
)
from censusflow.metrics import (
    ConfusionMatrix,
    ErrorRates,
    error_rates,
    levenshtein,
)
from censusflow.pipeline import (
    LocalExecutor,
    MockRecognizer,
    NoiseSpec,
    ResultStore,
    RunConfig,
    TaskState,
    TransitionLog,
    WorkerSet,
    run_batch,
    run_stage_process,
)
from censusflow.pipeline.stages import run_stage_prestage
from censusflow.pipeline.manifests import PipelineContext
from censusflow.pipeline.stages import plan_batch
from censusflow.simulate import (
    StageModel,
    bottleneck_bound,
    min_workers_for_deadline,
    simulate,
)

from conftest import GOLDEN_LABEL, generate_synthetic_page, golden_page, mock_worker_set


@contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {title}")
        raise
    elapsed = time.monotonic() - started
    if budget_s is not None and elapsed > budget_s:
        print(f"[criterion {number}] FAIL  {title} (took {elapsed:.1f}s > {budget_s:.0f}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s:.0f}s budget")
    print(f"[criterion {number}] PASS  {title} ({elapsed:.2f}s)")


def test_criterion_1_golden_label(capsys):
    with criterion(1, "golden label encodes and decodes exactly", budget_s=1.0):
        page = golden_page()
        assert encode(page) == GOLDEN_LABEL

        decoded = decode_strict(GOLDEN_LABEL, page_id="golden")
        households = group_page(decoded)
        assert len(households) == 2
        heads = [h.head.fields[EntityTag.SURNAME_HEAD] for h in households]
        assert heads == ["Gendre", "Martin"]


def test_criterion_2_roundtrip_and_fuzz_totality():
    with criterion(2, "1,000-page round-trip and 10,000-string fuzz totality", budget_s=30.0):
        for seed in range(1000):
            page = generate_synthetic_page(seed)
            label = encode(page)
            assert decode_strict(label, page_id=page.page_id) == page

        rng = random.Random(99)
        for _ in range(10_000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 160)))
            decode_lenient(blob.decode("latin-1"))  # must never raise


def test_criterion_3_levenshtein_oracle():
    def oracle(a, b):
        if not a:
            return len(b)
        if not b:
            return len(a)
        return min(
            oracle(a[1:], b) + 1,
            oracle(a, b[1:]) + 1,
            oracle(a[1:], b[1:]) + (a[0] != b[0]),
        )

    with criterion(3, "edit distance matches the exhaustive edit-script oracle"):
        # All pairs up to length 4 (full enumeration of all 96.8M pairs up to
        # length 8 is computationally out of reach; lengths 5-8 are covered
        # by a seeded sample below).
        strings = ["".join(t) for n in range(5) for t in itertools.product("abc", repeat=n)]
        for a in strings:
            for b in strings:
                assert levenshtein(a, b) == oracle(a, b)
        rng = random.Random(42)
        for _ in range(200):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(5, 8)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            assert levenshtein(a, b) == oracle(a, b)

        truth = PersonRecord({EntityTag.LINK: "chef"})
        pred = PersonRecord({EntityTag.LINK: "chez"})
        rates = error_rates(
            _page([truth]), _page([pred])
        )
        assert rates.cer == 0.25


def _page(records, page_id="p"):
    from censusflow.domain import PageTranscript

    return PageTranscript(tuple(records), page_id=page_id)


def test_criterion_4_noise_calibration():
    with criterion(4, "mock recognizer CER calibrated to the injected rate", budget_s=60.0):
        recognizer = MockRecognizer(seed=7, noise=NoiseSpec(char_substitution=0.10))
        total = ErrorRates.ZERO
        for seed in range(50):
            page = generate_synthetic_page(seed + 500)
            label = encode(page)
            fixture = json.dumps(
                {"identifier": f"page-{seed}", "page_class": "LIST", "label": label}
            ).encode()
            noisy = recognizer.recognize(fixture)
            predicted = decode_lenient(noisy).transcript
            total = total + error_rates(page, predicted)
        assert 0.08 <= total.cer <= 0.12, f"corpus CER {total.cer:.4f} outside [0.08, 0.12]"


def test_criterion_5_confusion_matrix_arithmetic():
    with criterion(5, "confusion-matrix arithmetic on the reference test counts"):
        counts = {
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
        scores = ConfusionMatrix.from_counts(counts).scores()
        assert abs(scores[PageClass.LIST].precision - 145 / 147) <= 1e-9
        assert scores[PageClass.LIST].recall == 1.0
        # Note: published per-class tables sometimes transpose precision and
        # recall relative to these counts; the counts are what we assert.


def test_criterion_6_household_oracle():
    with criterion(6, "register merge equals the concatenate-and-split oracle"):
        rng = random.Random(12)
        for k in range(200):
            profile = SyntheticProfile(
                min_rows=rng.randint(1, 5),
                max_rows=rng.randint(5, 10),
                household_size_mean=rng.uniform(1.5, 6.0),
            )
            synth = synthetic_register(
                seed=k,
                commune=DEMO_GAZETTEER[k % len(DEMO_GAZETTEER)],
                census_year=1901,
                archival_id=f"6M{k}",
                list_pages=rng.randint(2, 5),
                profile=profile,
                all_list=True,
            )
            merged = merge_register(synth.document)

            records = [
                r
                for page in synth.document.pages
                for r in page.transcript.records
            ]
            oracle, current = [], []
            for record in records:
                if record.is_head and current:
                    oracle.append(tuple(current))
                    current = []
                current.append(record)
            if current:
                oracle.append(tuple(current))

            assert [h.members for h in merged.households] == oracle
            assert household_accuracy(merged, merged) == 1.0
            assert household_accuracy(merged, synth.truth_households) == 1.0


def test_criterion_7_end_to_end_pipeline(tmp_path):
    with criterion(7, "200-image pipeline: exactly-once, crash-safe, isolated", budget_s=120.0):
        profile = SyntheticProfile(min_rows=6, max_rows=10, household_size_mean=3.0)
        corpus = generate_corpus(
            tmp_path / "corpus", registers=18, seed=21,
            list_pages_min=6, list_pages_max=12, profile=profile, limit_images=200,
        )
        assert corpus.image_count == 200

        def config_for(workspace, **overrides):
            defaults = dict(
                workspace=workspace,
                registry=corpus.registry,
                endpoint=IiifEndpoint("https://fixture.local/iiif"),
                transport=FixtureTransport(corpus.root),
                workers=mock_worker_set(seed=0),
                scheduler=LocalExecutor(4),
                prestage_concurrency=8,
                clock=lambda: 0.0,
            )
            defaults.update(overrides)
            return RunConfig(**defaults)

        report = run_batch(config_for(tmp_path / "ws"))
        assert report.counts["INTEGRATED"] == 200
        assert report.counts["FAILED"] == 0

        truth = (corpus.root / "truth" / "households.csv").read_text(encoding="utf-8")
        produced = Path(report.households_csv).read_text(encoding="utf-8")
        assert produced == truth

        # Interrupt mid-run, resume, and require the identical terminal state.
        class Crash(BaseException):
            pass

        reference_states = {
            m.task_id: m.state for m in TransitionLog(tmp_path / "ws").load_all()
        }
        seen = 0

        def bomb(manifest):
            nonlocal seen
            seen += 1
            if seen == 150:
                raise Crash()

        interrupted_ws = tmp_path / "ws_interrupted"
        with pytest.raises(Crash):
            run_batch(config_for(interrupted_ws, on_transition=bomb))
        resumed_report = run_batch(config_for(interrupted_ws))
        resumed_states = {
            m.task_id: m.state for m in TransitionLog(interrupted_ws).load_all()
        }
        assert resumed_states == reference_states
        resumed_households = Path(resumed_report.households_csv).read_text(encoding="utf-8")
        assert resumed_households == truth

        # Isolation: the process stage's workers hold a null transport under
        # any executor; a network call from worker code fails the task.
        with pytest.raises(IsolationViolation):
            NullTransport().get("https://a.example/info.json", 1000)

        iso_ws = tmp_path / "ws_isolated"
        ctx = PipelineContext.at(iso_ws, clock=lambda: 0.0)
        manifests = plan_batch(corpus.registry, ctx, limit=4)
        store = ResultStore(iso_ws / "results_store.ndjson")
        with LocalExecutor(2) as downloads:
            run_stage_prestage(
                manifests, ctx,
                endpoint=IiifEndpoint("https://fixture.local/iiif"),
                transport=FixtureTransport(corpus.root), executor=downloads, results_store=store,
            )

        class RogueClassifier:
            version = "rogue/1"

            def __init__(self):
                self.workers = None

            def classify(self, image_bytes):
                self.workers.transport.get("https://a.example/leak", 1000)
                return PageClass.OTHER

        rogue = RogueClassifier()
        workers = WorkerSet(rogue, MockRecognizer())
        rogue.workers = workers
        run_stage_process(
            manifests, ctx, workers=workers,
            scheduler=LocalExecutor(2), results_store=store,
        )
        assert all(m.state is TaskState.FAILED for m in manifests)
        assert all("isolation" in m.failure.reason for m in manifests)
        assert len(store) == 0
        assert all(m.attempts == {"process": 1} for m in manifests)


def test_criterion_8_throughput_reproduction():
    with criterion(8, "throughput model reproduces the production capacity figures"):
        single = simulate(
            1,
            [StageModel("pre", 1.6, 1), StageModel("proc", 12.5, 1), StageModel("post", 7.2, 1)],
        )
        assert single.makespan == pytest.approx(21.3, abs=1e-9)

        stages = [
            StageModel("pre", 1.6, 14),
            StageModel("proc", 12.5, None),
            StageModel("post", 7.2, 14),
        ]
        deadline = 8 * 86_400.0  # 691,200 s
        workers = min_workers_for_deadline(450_000, stages, deadline)
        assert workers == 9

        resolved = [
            StageModel("pre", 1.6, 14),
            StageModel("proc", 12.5, 9),
            StageModel("post", 7.2, 14),
        ]
        result = simulate(450_000, resolved)
        bound = bottleneck_bound(450_000, resolved)
        assert bound == pytest.approx(625_000.0)
        assert abs(result.makespan - bound) / bound < 0.01
        assert result.makespan < deadline


def test_criterion_9_ingest_determinism(tmp_path):
    with criterion(9, "ingest is deterministic and conserves every row"):
        csv_path = tmp_path / "metadata.csv"
        lines = ["annee,commune,cote,chemin"]
        rng = random.Random(3)
        communes = ["Moulins", "Moulin", "Vichy", "Nowhere", "Yzeure"]
        for i in range(60):
            year = rng.choice([1881, 1886, 1916, 1872, 1941])
            commune = rng.choice(communes)
            lines.append(f"{year},{commune},6M{rng.randint(1, 3)},img_{i}.jpg")
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        mapping = ColumnMapping(
            {
                "annee": ColumnRole.YEAR,
                "commune": ColumnRole.COMMUNE,
                "cote": ColumnRole.ARCHIVAL_ID,
                "chemin": ColumnRole.IMAGE_PATH,
            }
        )
        gazetteer = [
            GazetteerEntry("03190", "Moulins", "Allier"),
            GazetteerEntry("03310", "Vichy", "Allier"),
            GazetteerEntry("03321", "Yzeure", "Allier"),
        ]
        rows, _ = import_csv(csv_path, mapping)

        first = build_registry(rows, gazetteer)
        second = build_registry(rows, gazetteer)
        path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save_registry(first.registry, path_a)
        save_registry(second.registry, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

        assert first.registry.image_count() + len(first.exceptions) == len(rows)
        registry_rows = {
            row for register in first.registry.registers for row in register.metadata.source_rows
        }
        exception_rows = {e.row_number for e in first.exceptions}
        assert registry_rows.isdisjoint(exception_rows)
        assert len(registry_rows) + len(exception_rows) == len(rows)

        assert abs(similarity("Moulin", "Moulins") - 6 / 7) <= 1e-9
