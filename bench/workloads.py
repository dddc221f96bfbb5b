"""The five benchmark workloads.

Each workload is a closed loop: one caller submits one job, waits for it,
checks its output, then submits the next. ``setup`` builds the inputs (it is
repeated to measure set-up time), ``job`` runs and checks one timed job,
``finish`` makes the checks that need every job, and ``trace`` is the traced
run that yields the per-layer metrics.

Jobs reuse their directories where they can: every file created and then
deleted is file-system work (and, on a volume mounted with discard, device
work) that can land in a later timed job or a later run.
"""

from __future__ import annotations

import random
import resource
import shutil
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

from censusflow.domain import read_fixture
from censusflow.fixtures import FixtureTransport
from censusflow.iiif import IiifEndpoint, RetryPolicy
from censusflow.ingest import (
    BuildResult,
    MatchStatus,
    Registry,
    build_registry,
    import_csv,
    load_gazetteer,
    load_mapping,
    match_commune,
    save_registry,
)
from censusflow.label_codec import decode_lenient
from censusflow.metrics import entity_scores, evaluate_corpus, levenshtein, strip_tags
from censusflow.pipeline import (
    LocalExecutor,
    ManifestStore,
    MockClassifier,
    MockRecognizer,
    ResultStore,
    RunConfig,
    TaskState,
    TransitionLog,
    WorkerError,
    WorkerSet,
    export_batch,
    run_batch,
    task_id_for,
    validate_payload,
)
from censusflow.simulate import StageModel, min_workers_for_deadline, simulate

from inputs import NOISE, batch_inputs, evaluate_inputs, expected_households, ingest_inputs
from tracing import (
    TracedModel,
    TracedScheduler,
    TracedTransport,
    Tracer,
    TransitionRecorder,
    stage_times,
)


@dataclass
class Job:
    """One timed job: wall time and user CPU time of the process (all its
    threads), work items, and how many operations were attempted and ended
    other than expected."""

    wall_s: float
    cpu_s: float
    items: int
    attempted: int
    failed: int
    ok: bool
    parts: dict[str, float] = field(default_factory=dict)


def user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def timed(fn):
    cpu, start = user_cpu(), time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start, user_cpu() - cpu


def p50_p95(values: list[float]) -> tuple[float, float]:
    return median(values), quantiles(values, n=20)[18]


def traced_call(tracer: Tracer | None, name: str, fn):
    """Call ``fn`` under a span (none when ``tracer`` is None); its result
    and wall and user CPU seconds."""
    with tracer.span(name) if tracer else nullcontext():
        return timed(fn)


def timed_each(tracer: Tracer, name: str, fn, inputs) -> tuple[list[float], list]:
    """Call ``fn`` on each input under a span; per-call seconds and results."""
    times, results = [], []
    for item in inputs:
        out, wall, _ = traced_call(tracer, name, lambda: fn(item))
        times.append(wall)
        results.append(out)
    return times, results


class Steps:
    """Times a sequence of calls that together make one job."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.parts: dict[str, float] = {}
        self.cpu_s = 0.0

    def __call__(self, name: str, fn):
        result, self.parts[name], cpu = traced_call(self.tracer, name.removesuffix("_s"), fn)
        self.cpu_s += cpu
        return result

    @property
    def wall_s(self) -> float:
        return sum(self.parts.values())


def noisy_pairs(rng: random.Random, text: str, length: int, count: int) -> list[tuple[str, str]]:
    """``count`` slices of ``text`` of ``length`` symbols, each with a copy
    in which 5% of the characters are substituted."""
    pairs = []
    for _ in range(count):
        start = rng.randrange(max(1, len(text) - length))
        a = text[start:start + length]
        b = "".join(rng.choice("abcdefghij") if rng.random() < 0.05 else c for c in a)
        pairs.append((a, b))
    return pairs


def edit_distance(a, b) -> int:
    """Plain dynamic-programming Levenshtein distance, the reference the
    package's kernel is checked against."""
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        current = [i]
        for j, y in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (x != y)))
        previous = current
    return previous[-1]


class Workload:
    name = ""
    item = ""  # what ``Job.items`` counts
    setup_reps = 5
    cycle = 1  # a run ends after a multiple of this many jobs
    warmup = 1  # untimed jobs before the timed ones

    def __init__(self, seed: int, work: Path, nproc: int):
        self.seed = seed
        self.work = work
        self.nproc = nproc
        self.notes: dict = {}
        self._dirs = 0

    def fresh(self, label: str) -> Path:
        """A new, not yet existing directory under the work directory."""
        self._dirs += 1
        return self.work / f"{label}-{self._dirs}"

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> Job:
        raise NotImplementedError

    def finish(self, jobs: list[Job]) -> bool:
        """Checks that need every job; True when they pass."""
        return True

    def named(self, jobs: list[Job]) -> dict[str, tuple[float, str]]:
        """The workload's own figures under workload-specific names, printed
        above the result line."""
        return {}

    def trace(self, tracer: Tracer) -> tuple[dict[str, float], list[Job], float]:
        """Per-layer metrics, the jobs run, and the tracing overhead in s."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# batch and resume: the pipeline
# ---------------------------------------------------------------------------


class CrashOnce:
    """Recognizer wrapper that raises once on each listed image, a worker
    crash the process stage retries."""

    def __init__(self, inner, pages: frozenset[bytes]):
        self.inner = inner
        self.version = inner.version
        self._pending = set(pages)
        self._lock = threading.Lock()

    def recognize(self, image_bytes: bytes) -> str:
        if image_bytes in self._pending:
            with self._lock:
                hit = image_bytes in self._pending
                self._pending.discard(image_bytes)
            if hit:
                raise WorkerError("injected recognizer crash")
        return self.inner.recognize(image_bytes)


class Killed(BaseException):
    """Raised from on_transition to stop run_batch between two transitions."""


class KillAfter:
    def __init__(self, transitions: int):
        self.left = transitions

    def __call__(self, manifest) -> None:
        self.left -= 1
        if self.left == 0:
            raise Killed()


def workspace_usage(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Batch(Workload):
    name = "batch"
    item = "images"

    def setup(self) -> None:
        self.inputs = batch_inputs(self.fresh("corpus"), self.seed)
        corpus = self.inputs.corpus
        missing = set(self.inputs.missing)
        self.missing_tasks = {
            task_id_for(img) for img in corpus.registry.iter_images()
            if img.iiif_identifier in missing
        }
        self.integrated_tasks = {
            task_id_for(img) for img in corpus.registry.iter_images()
        } - self.missing_tasks
        registers = corpus.registry.registers
        size = -(-len(registers) // 4)
        self.quarters = [Registry(registers[k:k + size]) for k in range(0, len(registers), size)]
        self._expected: dict[int, bytes] = {}
        self.jobs_run = 0

    def expected(self, registry: Registry) -> bytes:
        """households.csv of an uninterrupted run over ``registry``, rebuilt
        without the pipeline once per registry."""
        key = id(registry)
        if key not in self._expected:
            out = self.fresh("expected")
            out.mkdir(parents=True)
            self._expected[key] = expected_households(
                self.inputs, self.seed, registry, out / "households.csv"
            )
        return self._expected[key]

    def config(self, workspace: Path, *, registry: Registry | None = None,
               threads: int | None = None, tracer: Tracer | None = None,
               on_transition=None) -> RunConfig:
        threads = threads or self.nproc
        corpus = self.inputs.corpus
        transport = FixtureTransport(
            corpus.root, missing=self.inputs.missing, flaky=self.inputs.flaky
        )
        classifier = MockClassifier()
        recognizer = CrashOnce(MockRecognizer(self.seed, NOISE), self.inputs.flaky_pages)
        scheduler = LocalExecutor(threads)
        if tracer is not None:
            transport = TracedTransport(transport, tracer)
            classifier = TracedModel(classifier, tracer, "classify")
            recognizer = TracedModel(recognizer, tracer, "recognize")
            scheduler = TracedScheduler(scheduler, tracer)
        return RunConfig(
            workspace=workspace,
            registry=registry or corpus.registry,
            endpoint=IiifEndpoint(
                "https://fixture.local/iiif", retry=RetryPolicy(base_backoff_ms=0)
            ),
            transport=transport,
            workers=WorkerSet(classifier, recognizer),
            scheduler=scheduler,
            prestage_concurrency=threads,
            on_transition=on_transition,
        )

    def run(self, config: RunConfig):
        """Timed run_batch; the scheduler's pool is shut down afterwards."""
        try:
            return timed(lambda: run_batch(config))
        finally:
            config.scheduler.shutdown()

    def unexpected(self, report, planned: set[str]) -> int:
        """Tasks whose terminal state differs from the expected one: every
        task ends INTEGRATED except the 404 images, FAILED(prestage)."""
        failed = {task_id: stage for task_id, stage, _ in report.failed_tasks}
        missing = self.missing_tasks & planned
        wrong = sum(1 for t, stage in failed.items() if t not in missing or stage != "prestage")
        return wrong + len(missing - failed.keys())

    def checked(self, config: RunConfig, report, wall: float, cpu: float) -> Job:
        """Every planned task has its expected terminal state and
        households.csv matches the rebuild byte for byte."""
        planned = {task_id_for(img) for img in config.registry.iter_images()}
        failed = self.unexpected(report, planned)
        ok = (failed == 0 and report.planned == len(planned)
              and Path(report.households_csv).read_bytes() == self.expected(config.registry))
        return Job(wall, cpu, report.planned, report.planned, failed, ok)

    def batch(self, registry: Registry | None = None, threads: int | None = None) -> Job:
        """One checked run_batch on a fresh workspace (default: all
        registers)."""
        config = self.config(self.fresh("ws"), registry=registry, threads=threads)
        return self.checked(config, *self.run(config))

    def job(self) -> Job:
        """run_batch over a quarter of the registers (~150 images), the
        quarters taken in turn."""
        self.jobs_run += 1
        return self.batch(self.quarters[(self.jobs_run - 1) % len(self.quarters)])

    def named(self, jobs):
        return {
            "batch_images_per_s": (median(j.items / j.wall_s for j in jobs), "images/s"),
            "batch_cpu_ms_per_image": (median(j.cpu_s * 1e3 / j.items for j in jobs), "ms"),
        }

    def trace(self, tracer):
        quarter = self.batch(self.quarters[0])
        base = self.batch()
        workspace = self.fresh("ws")
        recorder = TransitionRecorder()
        config = self.config(workspace, tracer=tracer, on_transition=recorder)
        with tracer.job("runner.run_batch"):
            entry = time.perf_counter()
            report, wall, cpu = self.run(config)
        traced = self.checked(config, report, wall, cpu)

        transport, scheduler = config.transport, config.scheduler
        classifier, recognizer = config.workers.classifier, config.workers.recognizer
        metrics = plan_and_stages(entry, transport, scheduler, recorder, {})
        files, size = workspace_usage(workspace)
        metrics.update({
            "manifests.workspace_files": files,
            "manifests.workspace_bytes": size,
            "iiif.transport_calls": transport.calls,
            "iiif.transport_ms": transport.busy_s * 1e3,
            "iiif.retries": transport.failures,
            "workers.classify_calls": classifier.calls,
            "workers.recognize_calls": recognizer.calls,
            "workers.call_s": classifier.busy_s + recognizer.busy_s,
        })
        times, reports = timed_each(tracer, "label_codec.decode_lenient", decode_lenient,
                                    recognizer.outputs)
        p50, p95 = p50_p95(times)
        metrics["label_codec.decode_lenient_p50_us"] = p50 * 1e6
        metrics["label_codec.decode_lenient_p95_us"] = p95 * 1e6
        metrics["label_codec.decode_warnings"] = sum(len(r.warnings) for r in reports)
        payloads = [p for p in ResultStore(config.store_path).records() if p["transcript"]]
        times, _ = timed_each(tracer, "stages.validate_payload", validate_payload, payloads)
        metrics["stages.validate_payload_us"] = median(times) * 1e6
        metrics["household.export_ms_per_register"] = export_ms_per_register(
            tracer, config, self.fresh("export")
        )

        single = self.batch(threads=1)
        metrics["runner.ms_per_image_scaling"] = (base.wall_s / base.items) / (
            quarter.wall_s / quarter.items
        )
        metrics["schedulers.thread_speedup"] = single.wall_s / base.wall_s
        return metrics, [base, traced, quarter, single], wall - base.wall_s


def plan_and_stages(entry: float, transport: TracedTransport, scheduler: TracedScheduler,
                    recorder: TransitionRecorder, initial: dict[str, str]) -> dict[str, float]:
    """runner.plan_s ends at the first sign of stage work: a transport call,
    a transition or a scheduler run."""
    marks = [t for t in (transport.first_call,) if t is not None]
    marks += [at for at, _, _ in recorder.events[:1]] + [s for s, _ in scheduler.intervals[:1]]
    planned = min(marks)
    metrics = {"runner.plan_s": planned - entry}
    metrics.update(stage_times(recorder, scheduler, planned, initial))
    return metrics


def export_ms_per_register(tracer: Tracer, config: RunConfig, out: Path) -> float:
    out.mkdir(parents=True)
    (exported, _, _), wall, _ = traced_call(
        tracer, "household.export_batch",
        lambda: export_batch(config.registry, ResultStore(config.store_path), out / "households.csv"),
    )
    return wall * 1e3 / max(exported, 1)


class Resume(Batch):
    name = "resume"
    setup_reps = 1

    def setup(self) -> None:
        """A fresh corpus and a run_batch killed between two transitions
        after about 90% of the transitions of an uninterrupted run. A
        snapshot of the interrupted workspace lets every attempt resume the
        same state in place, at the path its manifests name."""
        super().setup()
        transitions = 4 * len(self.integrated_tasks) + len(self.missing_tasks)
        self.workspace = self.fresh("interrupted")
        config = self.config(self.workspace, on_transition=KillAfter(int(0.9 * transitions)))
        try:
            self.run(config)
        except Killed:
            self.snapshot = self.fresh("snapshot")
            shutil.copytree(self.workspace, self.snapshot)
            return
        raise RuntimeError("the kill hook never fired")

    def restore(self) -> Path:
        """Put the interrupted state back at the workspace path, in place:
        what the last attempt added is removed, what it changed is copied
        back from the snapshot, and the rest is left alone."""
        want = {p.relative_to(self.snapshot) for p in self.snapshot.rglob("*")}
        have = {p.relative_to(self.workspace) for p in self.workspace.rglob("*")}
        for rel in sorted(have - want, reverse=True):  # children before parents
            path = self.workspace / rel
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()
        for rel in sorted(want):
            source, target = self.snapshot / rel, self.workspace / rel
            if source.is_dir():
                target.mkdir(exist_ok=True)
            elif not target.exists() or target.read_bytes() != source.read_bytes():
                shutil.copyfile(source, target)
        return self.workspace

    def resumed_ok(self, config: RunConfig, report) -> bool:
        """Terminal states and households.csv as an uninterrupted run gives
        them, and every integrated task stored exactly once."""
        if not self.checked(config, report, 0.0, 0.0).ok:
            return False
        records = ResultStore(self.workspace / "results_store.ndjson").records()
        stored = Counter(r["task_id"] for r in records)
        return set(stored) == self.integrated_tasks and max(stored.values()) == 1

    def torn_tail(self) -> bool:
        """Resume after a kill in the middle of an append: every NDJSON file
        ends in the first half of a record line with no newline (a copy of
        its last record), after every record already committed. Dropping
        that torn tail on open would let the resume finish as usual."""
        for path in sorted(self.restore().rglob("*.ndjson")):
            data = path.read_bytes()
            last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            path.write_bytes(data + last[: len(last) // 2])
        config = self.config(self.workspace)
        try:
            report, _, _ = self.run(config)
        except Exception as exc:  # a resume that raises is a failed attempt
            errors = self.notes.setdefault("torn_tail_errors", Counter())
            errors[f"{type(exc).__name__}: {str(exc).splitlines()[0][:120]}"] += 1
            return False
        return self.resumed_ok(config, report)

    def job(self) -> Job:
        """Two resume attempts over all registers. Timed: the run_batch that
        takes the interrupted workspace to terminal state and exports.
        Untimed: the torn-tail attempt. Every job holds one of each, so the
        share of failed attempts does not depend on how many jobs fit in the
        run."""
        config = self.config(self.restore())
        report, wall, cpu = self.run(config)
        ok = self.resumed_ok(config, report)
        failed = int(not ok) + int(not self.torn_tail())
        return Job(wall, cpu, report.planned, 2, failed, ok)

    def named(self, jobs):
        return {"resume_s": (median(j.wall_s for j in jobs), "s")}

    def trace(self, tracer):
        """The batch layers on fresh runs over all registers (see
        Batch.trace), then the resume layers; ``runner.plan_s`` and
        ``household.export_ms_per_register`` are those of the resume."""
        metrics, batch_jobs, batch_overhead = super().trace(tracer)
        base = self.job()
        self.restore()
        with tracer.job("resume.reads"):
            steps = Steps(tracer)
            manifests = steps("manifests.load_all_s", ManifestStore(self.workspace).load_all)
            steps("manifests.replay_s", lambda: list(TransitionLog(self.workspace).replay()))
            steps("runner.store_open_s",
                  lambda: ResultStore(self.workspace / "results_store.ndjson"))
        metrics.update(steps.parts)
        terminal = {TaskState.INTEGRATED, TaskState.FAILED}
        metrics["resume.tasks_remaining"] = sum(m.state not in terminal for m in manifests)

        recorder = TransitionRecorder()
        config = self.config(self.workspace, tracer=tracer, on_transition=recorder)
        with tracer.job("runner.run_batch"):
            entry = time.perf_counter()
            report, wall, cpu = self.run(config)
        ok = self.resumed_ok(config, report)
        initial = {m.task_id: m.state.value for m in manifests}
        stages = plan_and_stages(entry, config.transport, config.scheduler, recorder, initial)
        metrics["runner.plan_s"] = stages["runner.plan_s"]
        metrics["resume.worker_calls"] = (
            config.workers.classifier.calls + config.workers.recognizer.calls
        )
        metrics["household.export_ms_per_register"] = export_ms_per_register(
            tracer, config, self.fresh("export")
        )
        traced = Job(wall, cpu, report.planned, 1, int(not ok), ok)
        overhead = batch_overhead + wall - base.wall_s
        return metrics, batch_jobs + [base, traced], overhead


# ---------------------------------------------------------------------------
# evaluate: metrics over page fixtures
# ---------------------------------------------------------------------------


class Evaluate(Workload):
    name = "evaluate"
    item = "pages"
    setup_reps = 3

    def setup(self) -> None:
        self.chunks = evaluate_inputs(self.fresh("evaluate"), self.seed)
        self.reports: dict[int, object] = {}
        self.jobs_run = 0

    def evaluate(self, index: int) -> Job:
        chunk = self.chunks[index]
        report, wall, cpu = timed(lambda: evaluate_corpus(chunk.truth_dir, chunk.pred_dir))
        self.reports[index] = report
        by_name = {page.name: page for page in report.pages}
        failed = sum(
            page.missing_prediction != (name in chunk.missing) for name, page in by_name.items()
        ) + abs(chunk.pages - len(by_name))
        ok = failed == 0 and report.error_rates.char_total == chunk.char_total
        return Job(wall, cpu, len(report.pages), chunk.pages, failed, ok)

    def job(self) -> Job:
        """One evaluate_corpus call over the next directory of ~30 pages."""
        self.jobs_run += 1
        return self.evaluate((self.jobs_run - 1) % len(self.chunks))

    def finish(self, jobs):
        """Edit counts of a few pages against the plain-Python DP."""
        index = min(self.reports)
        chunk, report = self.chunks[index], self.reports[index]
        pages = [p for p in report.pages if not p.missing_prediction]
        ok = True
        for k, page in enumerate(pages[:3]):
            truth = strip_tags(read_fixture(chunk.truth_dir / page.name)[0])
            pred = strip_tags(read_fixture(chunk.pred_dir / page.name)[0])
            ok &= edit_distance(truth.split(), pred.split()) == page.error_rates.word_edits
            if k < 2:
                ok &= edit_distance(truth, pred) == page.error_rates.char_edits
        return ok

    def named(self, jobs):
        return {"evaluate_pages_per_s": (median(j.items / j.wall_s for j in jobs), "pages/s")}

    def trace(self, tracer):
        chunks = range(min(4, len(self.chunks)))
        base = [self.evaluate(i) for i in chunks]
        traced = []
        for i in chunks:
            with tracer.job("metrics.evaluate_corpus"):
                traced.append(self.evaluate(i))

        per_page: dict[str, list[float]] = {}
        texts = []
        for i in chunks:
            chunk = self.chunks[i]
            for truth_path in sorted(chunk.truth_dir.glob("*.txt")):
                pred_path = chunk.pred_dir / truth_path.name
                if not pred_path.exists():
                    continue
                with tracer.job("evaluate.page"):
                    steps = Steps(tracer)
                    truth = steps("domain.read_fixture_truth", lambda: read_fixture(truth_path)[0])
                    pred = steps("domain.read_fixture_pred", lambda: read_fixture(pred_path)[0])
                    t_text, p_text = strip_tags(truth), strip_tags(pred)
                    steps("metrics.cer_levenshtein", lambda: levenshtein(t_text, p_text))
                    steps("metrics.wer_levenshtein",
                          lambda: levenshtein(t_text.split(), p_text.split()))
                    steps("metrics.entity_scores", lambda: entity_scores(truth, pred))
                texts.append(t_text)
                for name, seconds in steps.parts.items():
                    per_page.setdefault(name, []).append(seconds * 1e6)
        metrics = {
            "domain.read_fixture_us": median(
                per_page["domain.read_fixture_truth"] + per_page["domain.read_fixture_pred"]
            ),
            "metrics.cer_levenshtein_us": median(per_page["metrics.cer_levenshtein"]),
            "metrics.wer_levenshtein_us": median(per_page["metrics.wer_levenshtein"]),
            "metrics.entity_scores_us": median(per_page["metrics.entity_scores"]),
        }
        rng = random.Random(f"levenshtein:{self.seed}")
        corpus_text = "\n".join(texts)
        for length, count in ((300, 20), (2800, 5)):
            times, _ = timed_each(tracer, f"metrics.levenshtein_{length}",
                                  lambda pair: levenshtein(*pair),
                                  noisy_pairs(rng, corpus_text, length, count))
            metrics[f"metrics.levenshtein_{length}_us"] = median(times) * 1e6
        overhead = sum(j.wall_s for j in traced) - sum(j.wall_s for j in base)
        return metrics, base + traced, overhead


# ---------------------------------------------------------------------------
# ingest: CSV to registry with fuzzy commune matching
# ---------------------------------------------------------------------------

EXCEPTION_REASONS = {"UnparseableYear", "InvalidCensusYear", "UnknownResolutionCode",
                     "AmbiguousCommune", "UnmatchedCommune", "DuplicateImagePath"}


class Ingest(Workload):
    name = "ingest"
    item = "rows"

    def setup(self) -> None:
        self.inputs = ingest_inputs(self.fresh("ingest"), self.seed)
        self.gazetteer = load_gazetteer(self.inputs.gazetteer_path)
        self.mapping = load_mapping(self.inputs.mapping_path)
        self.registries: dict[int, set[bytes]] = {}
        self.outcomes: set[str] = set()
        self.jobs_run = 0

    def ingest(self, index: int, tracer: Tracer | None = None) -> tuple[Job, list, BuildResult]:
        """Timed: import_csv, build_registry and save_registry of one
        export. Untimed: a second save and the checks. Every row lands
        exactly once in the registry or the exceptions, and the registry
        bytes repeat."""
        out = self.fresh("registry")
        out.mkdir(parents=True)
        steps = Steps(tracer)
        rows, _ = steps("ingest.import_csv_s",
                        lambda: import_csv(self.inputs.exports[index], self.mapping))
        result = steps("ingest.build_registry_s", lambda: build_registry(
            rows, self.gazetteer, resolutions=self.inputs.resolutions))
        steps("ingest.save_registry_s", lambda: save_registry(result.registry, out / "a.ndjson"))
        save_registry(result.registry, out / "b.ndjson")
        saved = self.registries.setdefault(index, set())
        saved |= {(out / "a.ndjson").read_bytes(), (out / "b.ndjson").read_bytes()}

        placed = Counter(n for r in result.registry.registers for n in r.metadata.source_rows)
        placed.update(e.row_number for e in result.exceptions)
        expected = range(2, len(rows) + 2)
        failed = sum(placed[n] != 1 for n in expected) + len(placed.keys() - set(expected))
        self.outcomes |= {e.reason for e in result.exceptions}
        if result.registry.registers:
            self.outcomes.add("Auto")
        ok = failed == 0 and len(saved) == 1 and len(rows) == self.inputs.rows_per_export
        job = Job(steps.wall_s, steps.cpu_s, len(rows), len(rows), failed, ok, steps.parts)
        return job, rows, result

    def job(self) -> Job:
        """One export of 2,500 rows, the exports taken in turn."""
        self.jobs_run += 1
        return self.ingest((self.jobs_run - 1) % len(self.inputs.exports))[0]

    def finish(self, jobs):
        """Every match outcome and every exception reason occurred."""
        return self.outcomes >= EXCEPTION_REASONS | {"Auto"}

    def named(self, jobs):
        return {"ingest_rows_per_s": (median(j.items / j.wall_s for j in jobs), "rows/s")}

    def trace(self, tracer):
        exports = range(len(self.inputs.exports))
        base = [self.ingest(i)[0] for i in exports]
        traced, names, exceptions = [], set(), 0
        metrics: dict[str, float] = Counter()
        for i in exports:
            with tracer.job("ingest.export"):
                job, rows, result = self.ingest(i, tracer)
            traced.append(job)
            metrics.update(job.parts)
            exceptions += len(result.exceptions)
            names |= {r.commune for r in rows
                      if r.year is not None and r.commune not in self.inputs.resolutions}
        with tracer.job("ingest.match_each"):
            times, matches = timed_each(tracer, "ingest.match_commune",
                                        lambda n: match_commune(n, self.gazetteer), sorted(names))
        p50, p95 = p50_p95(times)
        statuses = Counter(m.status for m in matches)
        metrics.update({
            "ingest.match_commune_p50_ms": p50 * 1e3,
            "ingest.match_commune_p95_ms": p95 * 1e3,
            "ingest.similarity_pairs": len(names) * sum(len(e.all_names()) for e in self.gazetteer),
            "ingest.auto": statuses[MatchStatus.AUTO],
            "ingest.ambiguous": statuses[MatchStatus.AMBIGUOUS],
            "ingest.unmatched": statuses[MatchStatus.UNMATCHED],
            "ingest.exceptions": exceptions,
        })
        rng = random.Random(f"levenshtein:{self.seed}")
        text = " ".join(e.canonical_name.lower() for e in self.gazetteer)
        times, _ = timed_each(tracer, "metrics.levenshtein_25", lambda pair: levenshtein(*pair),
                              noisy_pairs(rng, text, 25, 200))
        metrics["metrics.levenshtein_25_us"] = median(times) * 1e6
        overhead = sum(j.wall_s for j in traced) - sum(j.wall_s for j in base)
        return dict(metrics), base + traced, overhead


# ---------------------------------------------------------------------------
# capacity: the paper's 450k-image question
# ---------------------------------------------------------------------------

IMAGES = 450_000
DEADLINE_S = 8 * 86_400.0


class Capacity(Workload):
    name = "capacity"
    item = "images"
    cycle = 3  # a run ends only after whole rounds of the three calls
    warmup = 0

    def setup(self) -> None:
        """The paper's model: 1.6 s x 14, 12.5 s x 9 and 7.2 s x 14 workers."""
        def model(**process):
            return [StageModel("prestage", 1.6, 14), StageModel("process", 12.5, **process),
                    StageModel("integrate", 7.2, 14)]

        paper = model(workers=9)
        lognormal = model(workers=9, distribution="lognormal", cv=0.3)
        unknown = model(workers=None)
        bound = IMAGES * 12.5 / 9
        self.stages = len(paper)
        self.calls = [
            ("simulate.simulate_s", lambda: simulate(IMAGES, paper),
             lambda result: abs(result.makespan - bound) <= 0.01 * bound),
            ("simulate.lognormal_s", lambda: simulate(IMAGES, lognormal, seed=self.seed),
             lambda result: True),
            ("simulate.solve_s", lambda: min_workers_for_deadline(IMAGES, unknown, DEADLINE_S),
             lambda workers: workers == 9),
        ]
        self.jobs_run = 0

    def job(self, tracer: Tracer | None = None) -> Job:
        """One of the three capacity calls, taken in turn. The solve must
        give 9 workers and the paper model's makespan must lie within 1% of
        the bottleneck bound."""
        name, call, check = self.calls[self.jobs_run % len(self.calls)]
        self.jobs_run += 1
        steps = Steps(tracer)
        ok = check(steps(name, call))
        return Job(steps.wall_s, steps.cpu_s, IMAGES, 1, int(not ok), ok, steps.parts)

    def named(self, jobs):
        figures = {"simulate.simulate_s": "simulate_s",
                   "simulate.lognormal_s": "simulate_lognormal_s",
                   "simulate.solve_s": "capacity_solve_s"}
        return {
            figure: (median(j.parts[part] for j in jobs if part in j.parts), "s")
            for part, figure in figures.items()
        }

    def trace(self, tracer):
        base = [self.job() for _ in self.calls]
        with tracer.job("capacity"):
            traced = [self.job(tracer) for _ in self.calls]
        metrics = {k: v for j in traced for k, v in j.parts.items()}
        metrics["simulate.us_per_job_stage"] = (
            metrics["simulate.simulate_s"] / (IMAGES * self.stages) * 1e6
        )
        overhead = sum(j.wall_s for j in traced) - sum(j.wall_s for j in base)
        return metrics, base + traced, overhead


WORKLOADS = {w.name: w for w in (Batch, Resume, Evaluate, Ingest, Capacity)}
