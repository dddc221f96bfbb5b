"""The benchmark's traced run, on a small corpus.

``bench/tracing.py`` wraps the scheduler, the workers and the transport that
``RunConfig`` takes, and reads attributes of what it wraps; ``bench/workloads.py``
reads the finished workspace back through the task log and the result store.
A change to those seams that the benchmark no longer fits fails here, in
tier-1, rather than only when the benchmark runs.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from censusflow.fixtures import FixtureTransport, generate_corpus
from censusflow.iiif import IiifEndpoint
from censusflow.label_codec import SyntheticProfile
from censusflow.pipeline import (
    LocalExecutor,
    ManifestStore,
    MockClassifier,
    MockRecognizer,
    ResultStore,
    RunConfig,
    TaskState,
    TransitionLog,
    WorkerSet,
    run_batch,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_traced_run_integrates_every_task(tmp_path, tracing):
    corpus = generate_corpus(
        tmp_path / "corpus", registers=2, seed=11, list_pages_min=2, list_pages_max=2,
        profile=SyntheticProfile(min_rows=4, max_rows=8, household_size_mean=3.0),
    )
    tracer = tracing.Tracer()
    recorder = tracing.TransitionRecorder()
    scheduler = tracing.TracedScheduler(LocalExecutor(2), tracer)
    transport = tracing.TracedTransport(FixtureTransport(corpus.root), tracer)
    workers = WorkerSet(tracing.TracedModel(MockClassifier(), tracer, "classify"),
                        tracing.TracedModel(MockRecognizer(), tracer, "recognize"))
    config = RunConfig(
        workspace=tmp_path / "ws", registry=corpus.registry,
        endpoint=IiifEndpoint("https://fixture.local/iiif"), transport=transport,
        workers=workers, scheduler=scheduler, prestage_concurrency=2,
        on_transition=recorder,
    )
    try:
        with tracer.job("runner.run_batch"):
            report = run_batch(config)
    finally:
        scheduler.shutdown()

    assert report.counts["INTEGRATED"] == corpus.image_count == report.planned
    # The reads of the resume workload's trace and of its check.
    manifests = ManifestStore(config.workspace).load_all()
    task_ids = [m.task_id for m in manifests]
    assert task_ids == sorted(task_ids) and len(task_ids) == corpus.image_count
    assert {m.state for m in manifests} == {TaskState.INTEGRATED}
    records = list(TransitionLog(config.workspace).replay())
    assert len(records) == 5 * corpus.image_count
    assert {record["task_id"] for record in records} == set(task_ids)
    stored = Counter(record["task_id"] for record in ResultStore(config.store_path).records())
    assert stored == Counter(task_ids)
    names = {name for _, name, _, _, _ in tracer.spans}
    assert {"schedulers.run.process", "stages.process.task", "workers.classify"} <= names
    assert workers.classifier.calls == corpus.image_count
    assert transport.calls > 0
    times = tracing.stage_times(recorder, scheduler, 0.0, {})
    assert times["manifests.transitions"] == 4 * corpus.image_count
