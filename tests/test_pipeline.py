import builtins
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import threading
import warnings
from collections import Counter
from dataclasses import replace
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censusflow.domain import PageClass, RowCountWarning
from censusflow.fixtures import FixtureTransport, generate_corpus
from censusflow.ingest import Registry, load_registry
from censusflow.iiif import (
    IiifEndpoint,
    IsolationViolation,
    NullTransport,
    RetryPolicy,
    TransportResponse,
    full_image_url,
)
from censusflow.label_codec import SyntheticProfile, decode_lenient, encode
from censusflow.pipeline import (
    ALLOWED_TRANSITIONS,
    EmptySelection,
    ExternalProcessWorker,
    IllegalTransition,
    LocalExecutor,
    MockClassifier,
    MockRecognizer,
    NoiseSpec,
    ResultStore,
    RunConfig,
    TaskState,
    TransitionLog,
    WorkerError,
    WorkerSet,
    Workspace,
    plan_batch,
    run_batch,
    run_stage_integrate,
    run_stage_prestage,
    run_stage_process,
    task_id_for,
    validate_payload,
)
from censusflow.pipeline.manifests import (
    AppendFile,
    FailureInfo,
    advance,
    atomic_write_bytes,
    parse_task_id,
    read_checkpoint,
)
import censusflow.pipeline.manifests as manifests_module
import censusflow.pipeline.runner as runner_module
import censusflow.pipeline.stages as stages_module

from conftest import SeededExecutor, mock_worker_set

ENDPOINT = IiifEndpoint("https://fixture.local/iiif")

SMALL_PROFILE = SyntheticProfile(min_rows=4, max_rows=8, household_size_mean=3.0)


@pytest.fixture
def corpus(tmp_path):
    return generate_corpus(
        tmp_path / "corpus", registers=2, seed=11, list_pages_min=2, list_pages_max=2,
        profile=SMALL_PROFILE,
    )


@pytest.fixture
def ws(tmp_path):
    """A workspace that is no writer, closed when the test ends."""
    with Workspace(tmp_path / "ws") as ws:
        yield ws


@pytest.fixture
def pool():
    """A four-thread executor, shut down when the test ends."""
    with LocalExecutor(4) as executor:
        yield executor


def transport_for(corpus, **kwargs):
    return FixtureTransport(corpus.root, **kwargs)


def run_config(tmp_path, corpus, **overrides) -> RunConfig:
    defaults = dict(
        workspace=tmp_path / "ws",
        registry=corpus.registry,
        endpoint=ENDPOINT,
        transport=transport_for(corpus),
        workers=mock_worker_set(seed=0),
        scheduler=LocalExecutor(4),
        prestage_concurrency=4,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestStateMachine:
    def test_allowed_graph_shape(self):
        assert ALLOWED_TRANSITIONS[TaskState.PENDING] == {TaskState.STAGED, TaskState.FAILED}
        assert ALLOWED_TRANSITIONS[TaskState.INTEGRATED] == frozenset()
        assert ALLOWED_TRANSITIONS[TaskState.FAILED] == frozenset()

    def test_illegal_transition_rejected(self, corpus, ws):
        manifests = plan_batch(corpus.registry, ws)
        with pytest.raises(IllegalTransition):
            advance(manifests[0], TaskState.PROCESSED, ws)

    def test_failed_reachable_from_active_states(self):
        for state in (TaskState.PENDING, TaskState.STAGED, TaskState.PROCESSING,
                      TaskState.PROCESSED):
            assert TaskState.FAILED in ALLOWED_TRANSITIONS[state]

    def test_manifest_json_roundtrip(self, corpus, ws):
        """A manifest persisted through the log folds back equal, but for its
        image, which the log does not hold."""
        manifest = plan_batch(corpus.registry, ws)[0]
        advance(manifest, TaskState.STAGED, ws)
        advance(manifest, TaskState.PROCESSING, ws)
        advance(manifest, TaskState.FAILED, ws, attempts={"process": 2},
                failure=FailureInfo("process", "worker_error: x"))
        (clone,) = [m for m in ws.log.load_all() if m.task_id == manifest.task_id]
        assert clone == replace(manifest, image=None)


class TestPlanBatch:
    def test_plans_every_image(self, corpus, ws):
        manifests = plan_batch(corpus.registry, ws)
        assert len(manifests) == corpus.image_count
        assert all(m.state is TaskState.PENDING for m in manifests)
        ids = [m.task_id for m in manifests]
        assert ids == sorted(ids)

    def test_replan_is_idempotent(self, corpus, ws):
        first = plan_batch(corpus.registry, ws)
        advance(first[0], TaskState.STAGED, ws)
        second = plan_batch(corpus.registry, ws)
        assert len(second) == len(first)
        assert second[0].state is TaskState.STAGED
        assert sum(1 for m in second if m.state is TaskState.PENDING) == len(first) - 1

    def test_filters(self, corpus, ws):
        register = corpus.registry.registers[0]
        manifests = plan_batch(
            corpus.registry, ws, register_id=register.metadata.register_id
        )
        assert len(manifests) == len(register.images)

    def test_empty_selection(self, corpus, ws):
        with pytest.raises(EmptySelection):
            plan_batch(corpus.registry, ws, year=1916)

    def test_limit(self, corpus, ws):
        assert len(plan_batch(corpus.registry, ws, limit=3)) == 3


class TestPrestage:
    def test_all_fetches_succeed(self, tmp_path, corpus, ws, pool):
        manifests = plan_batch(corpus.registry, ws)
        run_stage_prestage(
            manifests, ws, endpoint=ENDPOINT, transport=transport_for(corpus),
            executor=pool,
        )
        assert all(m.state is TaskState.STAGED for m in manifests)
        for m in manifests:
            assert ws.staged_file(m.task_id) == tmp_path / "ws" / "staging" / f"{m.task_id}.jpg"
            assert ws.staged_file(m.task_id).exists()

    def test_missing_image_fails_task(self, tmp_path, corpus, ws, pool):
        manifests = plan_batch(corpus.registry, ws)
        victim = manifests[0].image.iiif_identifier
        transport = transport_for(corpus, missing=[victim])
        run_stage_prestage(
            manifests, ws, endpoint=ENDPOINT, transport=transport,
            executor=pool,
        )
        states = {m.task_id: m.state for m in manifests}
        failed = [m for m in manifests if m.state is TaskState.FAILED]
        assert len(failed) == 1
        assert failed[0].image.iiif_identifier == victim
        assert failed[0].failure.stage == "prestage"
        assert "missing" in failed[0].failure.reason
        assert sum(1 for s in states.values() if s is TaskState.STAGED) == len(manifests) - 1

    def test_transient_failures_retried(self, tmp_path, corpus, ws):
        manifests = plan_batch(corpus.registry, ws)
        victim = manifests[0].image.iiif_identifier
        transport = transport_for(corpus, flaky={victim: 2})
        with LocalExecutor(1) as serial:
            run_stage_prestage(
                manifests, ws, endpoint=ENDPOINT, transport=transport,
                executor=serial,
            )
        assert manifests[0].state is TaskState.STAGED

    def test_one_503_on_a_download_is_asked_again(self, tmp_path, corpus, ws):
        """A download answered once with 503 is retried like info.json: the
        task is STAGED with its image on disk, not FAILED."""
        manifests = plan_batch(corpus.registry, ws)
        victim = manifests[0]
        transport = ImageGetFails(transport_for(corpus), victim.image.iiif_identifier, times=1)
        endpoint = IiifEndpoint(ENDPOINT.base_url, retry=RetryPolicy(3, 0))
        with LocalExecutor(1) as serial:
            run_stage_prestage(
                manifests, ws, endpoint=endpoint, transport=transport,
                executor=serial,
            )
        assert transport.times == 0
        assert all(m.state is TaskState.STAGED for m in manifests)
        assert ws.staged_file(victim.task_id).read_bytes() == (
            corpus.root / "images" / f"{victim.image.iiif_identifier}.json").read_bytes()

    def test_rerun_touches_only_pending(self, tmp_path, corpus, ws, pool):
        manifests = plan_batch(corpus.registry, ws)
        transport = transport_for(corpus)
        run_stage_prestage(
            manifests, ws, endpoint=ENDPOINT, transport=transport,
            executor=pool,
        )
        calls_before = transport.calls
        run_stage_prestage(
            manifests, ws, endpoint=ENDPOINT, transport=transport,
            executor=pool,
        )
        assert transport.calls == calls_before

    def test_fetches_again_only_images_a_result_still_needs(self, tmp_path, corpus, ws, pool):
        """Of three tasks whose staged image is gone, two PROCESSED with a
        stored result and one STAGED, only the STAGED one is fetched again,
        and no transition is logged."""
        manifests = staged_manifests(tmp_path, corpus, ws)
        run_stage_process(manifests[:2], ws, workers=mock_worker_set(),
                          scheduler=LocalExecutor(1))
        for manifest in manifests[:3]:
            ws.staged_file(manifest.task_id).unlink()
        log_before = ws.log.path.read_bytes()
        transport = transport_for(corpus)
        run_stage_prestage(manifests, ws, endpoint=ENDPOINT, transport=transport,
                           executor=pool)
        assert transport.calls == 2  # the image's info.json and its bytes
        assert [ws.staged_file(m.task_id).exists() for m in manifests[:3]] == [
            False, False, True]
        assert [m.state for m in manifests[:3]] == [
            TaskState.PROCESSED, TaskState.PROCESSED, TaskState.STAGED]
        assert ws.log.path.read_bytes() == log_before

    def test_downloads_run_side_by_side(self, tmp_path, corpus):
        """Under ``run_batch`` with two download threads, the first two
        info.json requests meet at a barrier, which only two requests in
        flight at once can pass; a serial pre-stage would time out there."""
        barrier = threading.Barrier(2, timeout=10)
        calls = count()
        inner = transport_for(corpus)

        class MeetingTransport:
            def get(self, url, timeout_ms):
                if url.endswith("/info.json") and next(calls) < 2:
                    barrier.wait()
                return inner.get(url, timeout_ms)

        report = run_batch(run_config(tmp_path, corpus, transport=MeetingTransport(),
                                      scheduler=SeededExecutor(0), prestage_concurrency=2))
        assert report.counts["INTEGRATED"] == corpus.image_count


def staged_manifests(tmp_path, corpus, ws):
    manifests = plan_batch(corpus.registry, ws)
    with LocalExecutor(4) as downloads:
        run_stage_prestage(
            manifests, ws, endpoint=ENDPOINT, transport=transport_for(corpus),
            executor=downloads,
        )
    return manifests


def stored(ws) -> dict[str, dict]:
    """The stored payloads by task id."""
    return {record["task_id"]: record for record in ws.store.records()}


def image_bytes(corpus) -> dict[str, bytes]:
    """Each task's image bytes, as the process stage reads them, by task id."""
    return {task_id_for(image): (corpus.root / "images" / f"{image.iiif_identifier}.json").read_bytes()
            for image in corpus.registry.iter_images()}


class CountingWorkers(WorkerSet):
    """The mock workers, counting classify and recognize calls by image."""

    def __init__(self):
        super().__init__(MockClassifier(), MockRecognizer())
        self.calls = Counter()

    def classify(self, image_bytes):
        self.calls["classify", image_bytes] += 1
        return super().classify(image_bytes)

    def recognize(self, image_bytes):
        self.calls["recognize", image_bytes] += 1
        return super().recognize(image_bytes)


class TestProcess:
    def test_non_list_pages_skip_recognizer(self, tmp_path, corpus, ws):
        manifests = staged_manifests(tmp_path, corpus, ws)
        run_stage_process(
            manifests, ws, workers=mock_worker_set(), scheduler=LocalExecutor(4),
        )
        assert all(m.state is TaskState.PROCESSED for m in manifests)
        payloads = stored(ws)
        recap = next(m for m in manifests if payloads[m.task_id]["page_class"] == "RECAP")
        assert payloads[recap.task_id]["transcript"] is None

    def test_zero_noise_matches_fixture_truth(self, tmp_path, corpus, ws):
        manifests = staged_manifests(tmp_path, corpus, ws)
        run_stage_process(
            manifests, ws, workers=mock_worker_set(), scheduler=LocalExecutor(4),
        )
        payloads = stored(ws)
        synth = corpus.registers[0]
        for page in synth.document.pages:
            if page.page_class is not PageClass.LIST:
                continue
            manifest = next(
                m for m in manifests if m.image.iiif_identifier == page.page_id
            )
            label = payloads[manifest.task_id]["transcript"]
            assert label == encode(page.transcript)
            assert decode_lenient(label).transcript.records == page.transcript.records

    def test_stores_the_label_as_the_recognizer_returned_it(self, tmp_path, corpus, ws):
        """A noisy label of 45 records is stored byte for byte, undecoded:
        the process stage builds no transcript, so it does not warn
        (``RowCountWarning``) and stores no decoder warnings."""
        manifests = staged_manifests(tmp_path, corpus, ws)
        noisy = ("<zz>junk <s-h>Gendre <f>Jean <f>Paul <o> é,\"x\"\\\r \n\n<"
                 + "".join(f"\n<f>{i}" for i in range(44)))
        workers = mock_worker_set()

        class Noisy:
            version = "noisy/1"

            def recognize(self, image_bytes):
                return noisy

        workers.recognizer = Noisy()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_stage_process(manifests, ws, workers=workers, scheduler=LocalExecutor(2))
        assert not caught
        payloads = [p for p in stored(ws).values() if p["page_class"] == "LIST"]
        assert payloads and all(p["transcript"] == noisy for p in payloads)
        assert {key for p in payloads for key in p} == {
            "task_id", "register_id", "page_id", "sequence_index", "page_class", "transcript",
            "worker"}
        with pytest.warns(RowCountWarning):  # a transcript built from it warns
            assert len(decode_lenient(noisy).transcript.records) == 46

    def test_missing_staged_file_fails(self, tmp_path, corpus, ws):
        manifests = staged_manifests(tmp_path, corpus, ws)
        ws.staged_file(manifests[0].task_id).unlink()
        run_stage_process(
            manifests, ws, workers=mock_worker_set(), scheduler=LocalExecutor(2),
        )
        assert manifests[0].state is TaskState.FAILED
        assert manifests[0].failure.reason == "missing_input"

    def test_worker_crash_retries_then_fails(self, tmp_path, corpus, ws):
        manifests = staged_manifests(tmp_path, corpus, ws)

        class CrashingClassifier:
            version = "crash/1"
            calls = 0

            def classify(self, image_bytes):
                type(self).calls += 1
                raise RuntimeError("cuda out of memory")

        workers = WorkerSet(CrashingClassifier(), MockRecognizer())
        run_stage_process(
            manifests, ws, workers=workers, scheduler=LocalExecutor(1),
            retry_limit=3,
        )
        assert all(m.state is TaskState.FAILED for m in manifests)
        first = manifests[0]
        assert first.failure.stage == "process"
        assert "worker_error" in first.failure.reason
        assert first.attempts["process"] == 3

    def test_calls_run_side_by_side(self, tmp_path, corpus, ws):
        """The first two classify calls meet at a barrier, which only two
        calls in flight at once can pass; a lone call times out and, with
        no retry, fails its task."""
        manifests = staged_manifests(tmp_path, corpus, ws)
        barrier = threading.Barrier(2, timeout=10)
        calls = count()
        mock = MockClassifier()

        class MeetingClassifier:
            version = mock.version

            def classify(self, image_bytes):
                if next(calls) < 2:
                    barrier.wait()
                return mock.classify(image_bytes)

        executor = LocalExecutor(2)
        try:
            run_stage_process(
                manifests, ws, workers=WorkerSet(MeetingClassifier(), MockRecognizer()),
                scheduler=executor, retry_limit=1,
            )
        finally:
            executor.shutdown()
        assert all(m.state is TaskState.PROCESSED for m in manifests)
        assert all(m.attempts == {"process": 1} for m in manifests)


class TestIsolation:
    def test_rogue_worker_fails_under_simulated_scheduler(self, tmp_path, corpus, ws):
        """A worker that reaches for the network fails ``isolation`` on its
        first attempt, under a thread pool like any executor."""
        manifests = staged_manifests(tmp_path, corpus, ws)

        class RogueClassifier:
            """Tries to phone home from the compute stage."""

            version = "rogue/1"

            def __init__(self, workers):
                self.workers = workers

            def classify(self, image_bytes):
                self.workers.transport.get("https://a.example/exfiltrate", 1000)
                return PageClass.OTHER

        workers = WorkerSet(None, MockRecognizer())
        workers.classifier = RogueClassifier(workers)
        run_stage_process(
            manifests, ws, workers=workers, scheduler=LocalExecutor(2),
        )
        assert all(m.state is TaskState.FAILED for m in manifests)
        assert all(m.failure.reason.startswith("isolation: ") for m in manifests)
        assert all(m.attempts == {"process": 1} for m in manifests)

    def test_isolated_run_restores_caller_transport(self, tmp_path, corpus, ws):
        """Every call sees a null transport, the caller's WorkerSet is left
        as it was, and no transport can be given to it."""
        manifests = staged_manifests(tmp_path, corpus, ws)
        seen = []

        class SpyClassifier:
            version = "spy/1"

            def classify(self, image_bytes):
                seen.append(workers.transport)
                return PageClass.OTHER

        workers = WorkerSet(SpyClassifier(), MockRecognizer())
        before = dict(vars(workers))
        run_stage_process(
            manifests, ws, workers=workers, scheduler=LocalExecutor(2),
        )
        assert len(seen) == len(manifests)
        assert all(isinstance(t, NullTransport) for t in seen)
        assert vars(workers) == before
        with pytest.raises(AttributeError):
            workers.transport = transport_for(corpus)
        with pytest.raises(TypeError):
            WorkerSet(SpyClassifier(), MockRecognizer(), transport=transport_for(corpus))

    def test_null_transport_raises(self):
        with pytest.raises(IsolationViolation):
            NullTransport().get("https://anywhere", 1)


def fixture_image(**payload) -> bytes:
    return json.dumps({"identifier": "img/1", **payload}).encode("utf-8")


class TestMockWorkers:
    @pytest.mark.parametrize("image", [b'"a page_class"', b'["page_class"]', b"7", b"null"])
    def test_a_json_value_that_is_not_an_object_is_not_a_fixture_image(self, image):
        for call in (MockClassifier().classify, MockRecognizer().recognize,
                     MockRecognizer(0, NoiseSpec(0.02, 0.02, 0.01)).recognize):
            with pytest.raises(WorkerError, match="^not a fixture image: "):
                call(image)

    @pytest.mark.parametrize("page_class", [["LIST"], {"LIST": 1}, "list", 7, None])
    def test_unknown_page_class(self, page_class):
        with pytest.raises(WorkerError, match="^unknown page class "):
            MockClassifier().classify(fixture_image(page_class=page_class))

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.02), NoiseSpec(0, 0.02, 0.01)])
    @pytest.mark.parametrize("label", [7, ["<s>A"], {"<s>": "A"}, True])
    def test_a_label_that_is_not_a_string_fails_with_and_without_noise(self, noise, label):
        recognizer = MockRecognizer(0, noise)
        with pytest.raises(WorkerError, match="^fixture label is not a string$"):
            recognizer.recognize(fixture_image(page_class="LIST", label=label))
        with pytest.raises(WorkerError, match="^fixture image lacks a label$"):
            recognizer.recognize(fixture_image(page_class="LIST"))


class TestLocalExecutor:
    def test_results_come_back_in_item_order(self):
        """Each item waits until the next one has finished, so they finish
        last to first; the results still come back first to last."""
        done = [threading.Event() for _ in range(4)]
        finished = []

        def square(i):
            if i + 1 < len(done):
                assert done[i + 1].wait(timeout=10)
            finished.append(i)
            done[i].set()
            return i * i

        with LocalExecutor(4) as executor:
            assert executor.run("test", range(4), square) == [0, 1, 4, 9]
        assert finished == [3, 2, 1, 0]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            LocalExecutor(0)

    def test_closed_by_its_with_block(self):
        with LocalExecutor(2) as executor:
            assert executor.run("test", [1, 2], str) == ["1", "2"]
        with pytest.raises(RuntimeError):
            executor.run("test", [1], str)

    @pytest.mark.parametrize("ending", ["returns", "killed", "transport_raises"])
    def test_run_batch_leaves_no_thread_behind(self, tmp_path, corpus, ending):
        """``run_batch`` joins its download threads as it returns, and as it
        raises from a killing ``on_transition`` or from a transport that
        raises inside the pre-stage's work. The process stage runs on the
        calling thread, so every thread counted is the pre-stage's."""

        class Crash(BaseException):
            pass

        def bomb(manifest):
            if manifest.state is TaskState.STAGED and next(staged) == 2:
                raise Crash()

        victim = corpus.registry.registers[0].images[3].iiif_identifier
        inner = transport_for(corpus)

        class RaisingTransport:
            def get(self, url, timeout_ms):
                if url == full_image_url(ENDPOINT, victim):
                    raise Crash()
                return inner.get(url, timeout_ms)

        staged = count()
        overrides = {"returns": {}, "killed": {"on_transition": bomb},
                     "transport_raises": {"transport": RaisingTransport()}}[ending]
        config = run_config(tmp_path, corpus, scheduler=SeededExecutor(0),
                            prestage_concurrency=3, **overrides)
        before = threading.active_count()
        if ending == "returns":
            assert run_batch(config).counts["INTEGRATED"] == corpus.image_count
        else:
            with pytest.raises(Crash):
                run_batch(config)
        assert threading.active_count() == before


def open_under(root: Path) -> list[str]:
    """The paths under ``root`` that a file descriptor of this process
    resolves to."""
    root = str(root.resolve())
    paths = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed since
            continue
        if target == root or target.startswith(root + os.sep):
            paths.append(target)
    return paths


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list")
def test_a_workspace_closes_every_handle_it_opened(tmp_path, corpus):
    """No descriptor of the test process is left on a workspace file after
    a run stopped in the middle of a window (a raise from ``on_transition``
    at the second integrate of the second window, once the store and the
    memo are open), after a run returns, after ``status`` and after
    ``export``."""
    from click.testing import CliRunner

    from censusflow.cli import main

    class Crash(BaseException):
        pass

    integrated = count()

    def bomb(manifest):
        if manifest.state is TaskState.INTEGRATED and next(integrated) == 5:
            raise Crash()

    workspace = tmp_path / "ws"
    config = run_config(tmp_path, corpus, window=4, scheduler=SeededExecutor(0))
    with pytest.raises(Crash) as killed:  # its traceback keeps the run's frames alive
        run_batch(replace(config, on_transition=bomb))
    assert open_under(workspace) == [], killed
    assert run_batch(config).counts["INTEGRATED"] == corpus.image_count
    assert open_under(workspace) == []
    for args in (["status"], ["export", "--households", str(tmp_path / "h.csv")]):
        result = CliRunner().invoke(main, [*args, "--workspace", str(workspace)])
        assert result.exit_code == 0, result.output
        assert open_under(workspace) == []


class TestIntegrate:
    def make_processed(self, tmp_path, corpus, ws):
        manifests = staged_manifests(tmp_path, corpus, ws)
        run_stage_process(
            manifests, ws, workers=mock_worker_set(), scheduler=LocalExecutor(4),
        )
        return manifests

    def test_integrates_all(self, tmp_path, corpus, ws):
        manifests = self.make_processed(tmp_path, corpus, ws)
        store = ws.store
        assert len(store) == len(manifests)
        run_stage_integrate(manifests, ws)
        assert all(m.state is TaskState.INTEGRATED for m in manifests)
        assert len(store) == len(manifests)
        assert list(ws.staging_dir.iterdir()) == []

    def test_task_missing_from_the_store_waits_for_the_process_stage(self, tmp_path, corpus,
                                                                     ws):
        """Integrate leaves a PROCESSED task whose store line was lost, and
        its image; the next process stage stores it, with no transition."""
        manifests = self.make_processed(tmp_path, corpus, ws)
        data = ws.store.path.read_bytes()
        ws.store.path.write_bytes(data[: data.rindex(b"\n", 0, len(data) - 1) + 1])
        # The workspace opened again, as a resumed run opens it, holds the
        # store as the cut left it.
        with Workspace(ws.root) as ws:
            store, last = ws.store, manifests[-1]
            run_stage_integrate(manifests, ws)
            assert [m.state for m in manifests[:-1]] == [TaskState.INTEGRATED] * (
                len(manifests) - 1)
            assert last.state is TaskState.PROCESSED and last.task_id not in store
            assert list(ws.staging_dir.iterdir()) == [ws.staged_file(last.task_id)]

            log_before = ws.log.path.read_bytes()
            run_stage_process(manifests, ws, workers=mock_worker_set(),
                              scheduler=LocalExecutor(1))
            assert last.state is TaskState.PROCESSED and last.task_id in store
            assert ws.log.path.read_bytes() == log_before
            run_stage_integrate(manifests, ws)
            assert all(m.state is TaskState.INTEGRATED for m in manifests)

    def test_duplicate_integration_is_noop(self, tmp_path, corpus, ws):
        manifests = self.make_processed(tmp_path, corpus, ws)
        store = ws.store
        run_stage_integrate(manifests, ws)
        records_before = store.records()
        # Fresh store over the same file simulates a resumed integrator.
        resumed = ResultStore(store.path)
        for manifest in manifests:
            assert not resumed.add(manifest.task_id, b'{"task_id": "again"}\n')
        assert resumed.records() == records_before

    def test_schema_violation_fails_task(self, tmp_path, corpus, ws, monkeypatch):
        """A transcript on a TOTALS page fails its task at process: it is
        never stored, and integrate leaves it alone."""
        build = stages_module.build_payload

        def with_transcript(manifest, page_class, *args):
            payload = build(manifest, page_class, *args)
            if page_class is PageClass.TOTALS:
                payload["transcript"] = {"records": []}
            return payload

        monkeypatch.setattr(stages_module, "build_payload", with_transcript)
        manifests = self.make_processed(tmp_path, corpus, ws)
        store = ws.store
        run_stage_integrate(manifests, ws)
        totals = [m for m in manifests if m.image.sequence_index == 4]
        assert totals and all(m.state is TaskState.FAILED for m in totals)
        assert all(m.failure == FailureInfo("process", "schema: transcript present on TOTALS page")
                   for m in totals)
        assert not any(m.task_id in store for m in totals)
        assert sum(m.state is TaskState.INTEGRATED for m in manifests) == len(store)

    def test_store_keeps_result_text(self, tmp_path, corpus, ws):
        """Each record is the process stage's one encoding of its payload,
        key-sorted with non-ASCII characters as they are, in task order."""
        manifests = self.make_processed(tmp_path, corpus, ws)
        store = ws.store
        lines = store.path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["task_id"] for line in lines] == [m.task_id for m in manifests]
        assert lines == [
            json.dumps(json.loads(line), sort_keys=True, ensure_ascii=False) for line in lines
        ]
        assert any(not line.isascii() for line in lines)

    def test_validate_payload_rules(self):
        """``transcript`` is a label string exactly on LIST pages; any
        string is a label, since any string decodes."""
        base = {
            "task_id": "t", "register_id": "r", "page_id": "p",
            "sequence_index": 0, "page_class": "LIST", "transcript": None,
        }
        assert validate_payload({**base}) == ["LIST page without transcript"]
        for label in ("<s-h>A <a>3", "", "<zz>noise <s-h> <s>\n\n<"):
            assert validate_payload({**base, "transcript": label}) == []
        for transcript in ({"records": []}, ["<s-h>A"], 7, True):
            assert validate_payload({**base, "transcript": transcript}) == [
                "transcript is not a string"]
        assert validate_payload({**base, "page_class": "TOTALS", "transcript": "<s-h>A"}) == [
            "transcript present on TOTALS page"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["records", "fields", "tag", "text", "is_head"]) | st.text(max_size=6),
        children, max_size=4,
    ),
    max_leaves=12,
)
_VALID_BASE = {
    "task_id": "t", "register_id": "r", "page_id": "p", "sequence_index": 0, "page_class": "LIST",
}


class TestValidatePayloadTotal:
    """Any JSON value anywhere in a payload is reported, never raised."""

    @pytest.mark.parametrize("place", [
        lambda v: {**_VALID_BASE, "transcript": v},
        lambda v: {**_VALID_BASE, "transcript": {"records": [v]}},
        lambda v: {**_VALID_BASE, "transcript": {"records": [{"is_head": False, "fields": v}]}},
        lambda v: {**_VALID_BASE, "transcript": {"records": [{"fields": [v]}]}},
        lambda v: {**_VALID_BASE, "transcript": {"records": [
            {"fields": [{"tag": "surname", "text": v}]}]}},
        lambda v: {**_VALID_BASE, "page_class": v, "transcript": None},
        lambda v: {**_VALID_BASE, "sequence_index": v, "transcript": None, "page_class": "OTHER"},
    ], ids=["transcript", "record", "fields", "field", "text", "page_class", "sequence_index"])
    @given(value=_JSON)
    @settings(max_examples=150, deadline=None)
    def test_any_json_value(self, place, value):
        problems = validate_payload(place(value))
        assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)

    @given(payload=st.dictionaries(st.sampled_from(list(_VALID_BASE) + ["transcript"]), _JSON))
    @settings(max_examples=300, deadline=None)
    def test_any_top_level_values(self, payload):
        problems = validate_payload(payload)
        assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)

    @pytest.mark.parametrize("key, value", [
        ("task_id", 1), ("register_id", None), ("page_id", ["p"]),
        ("sequence_index", "0"), ("sequence_index", 1.0), ("sequence_index", True),
        ("sequence_index", -1),
    ])
    def test_wrong_types_reported(self, key, value):
        payload = {**_VALID_BASE, key: value, "page_class": "OTHER", "transcript": None}
        (problem,) = validate_payload(payload)
        assert problem.startswith(key)


class TestRunBatch:
    def test_zero_noise_end_to_end(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus)
        report = run_batch(config)
        assert report.counts["INTEGRATED"] == corpus.image_count
        assert report.counts["FAILED"] == 0
        truth = (corpus.root / "truth" / "households.csv").read_text(encoding="utf-8")
        got = Path(report.households_csv).read_text(encoding="utf-8")
        assert got == truth

    def test_small_window_needs_multiple_rounds(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus, window=3)
        report = run_batch(config)
        assert report.counts["INTEGRATED"] == corpus.image_count
        truth = (corpus.root / "truth" / "households.csv").read_text(encoding="utf-8")
        assert Path(report.households_csv).read_text(encoding="utf-8") == truth

    def test_window_must_be_positive(self, tmp_path, corpus):
        with pytest.raises(ValueError):
            run_config(tmp_path, corpus, window=0)

    def test_rerun_is_noop(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus)
        run_batch(config)
        transport = config.transport
        calls_before = transport.calls
        report = run_batch(run_config(tmp_path, corpus, transport=transport))
        assert report.counts["INTEGRATED"] == corpus.image_count
        assert transport.calls == calls_before

    def test_conservation_with_failures(self, tmp_path, corpus):
        victim = corpus.registry.registers[0].images[1].iiif_identifier
        config = run_config(
            tmp_path, corpus, transport=transport_for(corpus, missing=[victim])
        )
        report = run_batch(config)
        assert report.counts["INTEGRATED"] + report.counts["FAILED"] == report.planned
        assert report.counts["FAILED"] == 1
        assert not report.succeeded
        assert report.registers_skipped == 1

    @pytest.mark.parametrize(
        "transcript, detail",
        [([1], "transcript is not a string"),
         ({"records": [1]}, "transcript is not a string"),
         ({"records": [{"fields": 5}]}, "transcript is not a string"),
         ({"records": [{"fields": [1]}]}, "transcript is not a string"),
         ({"records": [{"fields": [{"tag": ["surname"], "text": "A"}]}]},
          "transcript is not a string"),
         ({"records": [{"fields": [{"tag": "surname", "text": 7}]}]}, "transcript is not a string"),
         (7, "transcript is not a string")],
        ids=["transcript-list", "record-int", "fields-int", "field-int", "tag-list", "text-int",
             "number"],
    )
    def test_malformed_transcript_fails_only_its_task(self, tmp_path, corpus, monkeypatch,
                                                      transcript, detail):
        """A payload of any malformed shape fails its task at process, is
        never stored, and a second run changes nothing."""
        victim = task_id_for(corpus.registry.registers[0].images[1])
        build = stages_module.build_payload

        def malformed(manifest, *args):
            payload = build(manifest, *args)
            if manifest.task_id == victim:
                payload.update(page_class="LIST", transcript=transcript)
            return payload

        monkeypatch.setattr(stages_module, "build_payload", malformed)
        config = run_config(tmp_path, corpus)
        report = run_batch(config)
        assert report.counts["INTEGRATED"] == corpus.image_count - 1
        ((task_id, stage, reason),) = report.failed_tasks
        assert (task_id, stage) == (victim, "process")
        assert reason.startswith("schema: ") and detail in reason
        assert victim not in ResultStore(config.store_path)

        log_before = (config.workspace / "tasks.ndjson").read_bytes()
        store_before = config.store_path.read_bytes()
        again = run_batch(run_config(tmp_path, corpus))
        assert again.counts == report.counts
        assert (config.workspace / "tasks.ndjson").read_bytes() == log_before
        assert config.store_path.read_bytes() == store_before

    def test_label_that_does_not_encode_fails_only_its_task(self, tmp_path, corpus):
        """A label holding a lone surrogate, as ``json.loads`` may return
        one, has no UTF-8 form: its task fails at process on the first
        attempt, and the run stores and exports every other page."""
        image = corpus.registry.registers[0].images[1]
        victim_bytes = (corpus.root / "images" / f"{image.iiif_identifier}.json").read_bytes()
        workers = mock_worker_set(seed=0)
        recognizer = workers.recognizer

        class Recognizer:
            version = recognizer.version

            def recognize(self, image_bytes):
                label = recognizer.recognize(image_bytes)
                return label + "<f>\ud800" if image_bytes == victim_bytes else label

        workers.recognizer = Recognizer()
        config = run_config(tmp_path, corpus, workers=workers)
        report = run_batch(config)
        assert report.failed_tasks == [
            (task_id_for(image), "process", "schema: payload is not valid UTF-8")]
        assert report.counts["INTEGRATED"] == corpus.image_count - 1
        (failed,) = [m for m in TransitionLog(config.workspace).load_all()
                     if m.state is TaskState.FAILED]
        assert failed.attempts == {"process": 1}
        assert task_id_for(image) not in ResultStore(config.store_path)
        assert Path(report.households_csv).is_file()
        assert report.registers_exported == len(corpus.registry.registers) - 1

    def test_kill_while_logging_processed_leaves_the_window_stored(self, tmp_path, corpus):
        """A kill at the second PROCESSED transition of a window: the
        window's results are all stored, so the resume adopts them with no
        classify or recognize call."""

        class Crash(BaseException):
            pass

        def bomb(manifest):
            nonlocal processed
            processed += manifest.state is TaskState.PROCESSED
            if processed == 2:
                raise Crash()

        processed = 0
        config = run_config(tmp_path, corpus, window=6, on_transition=bomb)
        with pytest.raises(Crash):
            run_batch(config)
        window = {r["task_id"] for r in ResultStore(config.store_path).records()}
        states = {m.task_id: m.state for m in TransitionLog(config.workspace).load_all()}
        assert len(window) == 6
        assert window == {task_id for task_id, state in states.items()
                          if state in (TaskState.PROCESSING, TaskState.PROCESSED)}

        workers = CountingWorkers()
        report = run_batch(run_config(tmp_path, corpus, window=6, workers=workers))
        assert report.counts["INTEGRATED"] == corpus.image_count
        by_task = image_bytes(corpus)
        called = {data for _, data in workers.calls}
        assert called == {by_task[task_id] for task_id in by_task.keys() - window}
        truth = (corpus.root / "truth" / "households.csv").read_bytes()
        assert config.households_path.read_bytes() == truth
        counts = Counter(r["task_id"] for r in ResultStore(config.store_path).records())
        assert set(counts.values()) == {1} and len(counts) == corpus.image_count

    @pytest.mark.parametrize(
        "garbage",
        ['{"task_id": "cut', "", b"\xff\xfe", "[1, 2]"],
        ids=["truncated", "empty", "not-utf8", "array"],
    )
    def test_processed_task_cut_from_the_store_is_processed_again(self, tmp_path, corpus,
                                                                  garbage):
        """After the process stage, the store's last line is lost or torn
        (any bytes without a newline): the next run processes that task
        again, logs no transition back and stores it once."""
        config = run_config(tmp_path, corpus, stages={"pre", "proc"})
        run_batch(config)
        data = config.store_path.read_bytes()
        start = data.rindex(b"\n", 0, len(data) - 1) + 1
        victim = json.loads(data[start:])["task_id"]
        if isinstance(garbage, str):
            garbage = garbage.encode()
        config.store_path.write_bytes(data[:start] + garbage)

        workers = CountingWorkers()
        report = run_batch(run_config(tmp_path, corpus, workers=workers))
        assert report.counts["INTEGRATED"] == corpus.image_count
        victim_bytes = image_bytes(corpus)[victim]
        assert {data for _, data in workers.calls} == {victim_bytes}
        assert workers.calls["classify", victim_bytes] == 1
        records = [r for r in TransitionLog(config.workspace).replay() if r["task_id"] == victim]
        assert [r["to"] for r in records] == ["PENDING", "STAGED", "PROCESSING", "PROCESSED",
                                              "INTEGRATED"]
        counts = Counter(r["task_id"] for r in ResultStore(config.store_path).records())
        assert set(counts.values()) == {1} and len(counts) == corpus.image_count
        truth = (corpus.root / "truth" / "households.csv").read_bytes()
        assert config.households_path.read_bytes() == truth

    def test_lost_tails_fetch_a_deleted_image_again(self, tmp_path, corpus):
        """A finished run loses the last INTEGRATED record and the last
        store line, whose task's image integrate had deleted: the pre-stage
        fetches that image again, with no transition, and the task ends as
        before."""
        config = run_config(tmp_path, corpus)
        run_batch(config)
        for path in (config.workspace / "tasks.ndjson", config.store_path):
            data = path.read_bytes()
            path.write_bytes(data[: data.rindex(b"\n", 0, len(data) - 1) + 1])
        (config.workspace / "checkpoint.json").unlink()
        assert list((config.workspace / "staging").iterdir()) == []

        transport = transport_for(corpus)
        report = run_batch(run_config(tmp_path, corpus, transport=transport))
        assert report.counts["INTEGRATED"] == corpus.image_count
        assert transport.calls == 2  # the image's info.json and its bytes
        assert list((config.workspace / "staging").iterdir()) == []
        counts = Counter(r["task_id"] for r in ResultStore(config.store_path).records())
        assert set(counts.values()) == {1} and len(counts) == corpus.image_count
        truth = (corpus.root / "truth" / "households.csv").read_bytes()
        assert config.households_path.read_bytes() == truth

    def test_crash_and_resume_matches_uninterrupted(self, tmp_path, corpus):
        # Reference run, never interrupted.
        reference = run_config(
            tmp_path, corpus, workspace=tmp_path / "ws_reference", clock=lambda: 0.0
        )
        ref_report = run_batch(reference)
        ref_households = Path(ref_report.households_csv).read_text(encoding="utf-8")
        ref_states = {
            m.task_id: m.state for m in TransitionLog(reference.workspace).load_all()
        }

        class Crash(BaseException):
            pass

        for crash_after in (1, 3, 7, 19, 35):
            workspace = tmp_path / f"ws_crash_{crash_after}"
            seen = 0

            def bomb(manifest):
                nonlocal seen
                seen += 1
                if seen == crash_after:
                    raise Crash()

            config = run_config(
                tmp_path, corpus, workspace=workspace, clock=lambda: 0.0,
                on_transition=bomb, scheduler=LocalExecutor(1), prestage_concurrency=1,
            )
            with pytest.raises(Crash):
                run_batch(config)
            resumed = run_config(tmp_path, corpus, workspace=workspace, clock=lambda: 0.0)
            report = run_batch(resumed)
            states = {m.task_id: m.state for m in TransitionLog(workspace).load_all()}
            assert states == ref_states, f"crash after {crash_after} transitions"
            got = Path(report.households_csv).read_text(encoding="utf-8")
            assert got == ref_households

    def test_resume_after_kill_at_any_log_offset(self, tmp_path, corpus):
        """A kill can land between two appends or in the middle of one. At
        every record boundary of a finished run's task log, and inside every
        record, rebuild what the kill leaves (the log cut there, the result
        store holding the records whose INTEGRATED transition survives plus
        half of the next one, or all of it, as a kill between the store's
        append and the INTEGRATED one leaves it) and require resume to
        finish as the uninterrupted run did."""
        workspace = tmp_path / "ws"
        reference = run_config(tmp_path, corpus, workspace=workspace, clock=lambda: 0.0)
        ref_report = run_batch(reference)
        ref_households = Path(ref_report.households_csv).read_bytes()
        ref_states = {m.task_id: m.state for m in TransitionLog(workspace).load_all()}
        integrated = {t for t, state in ref_states.items() if state is TaskState.INTEGRATED}
        assert not (workspace / "manifests").exists()

        finished = tmp_path / "finished"
        shutil.copytree(workspace, finished)
        log_path = TransitionLog(workspace).path.relative_to(workspace)
        store_path = reference.store_path.relative_to(workspace)
        log_lines = (finished / log_path).read_bytes().splitlines(keepends=True)
        store_lines = (finished / store_path).read_bytes().splitlines(keepends=True)
        assert len(store_lines) == len(integrated)

        cuts = [0]
        for line in log_lines:
            cuts += [cuts[-1] + len(line) // 2, cuts[-1] + len(line)]
        log_bytes = b"".join(log_lines)
        kills = []
        for cut in cuts:
            survived = [json.loads(line) for line in log_bytes[:cut].splitlines(keepends=True)
                        if line.endswith(b"\n")]
            stored = sum(1 for record in survived if record["to"] == "INTEGRATED")
            store = b"".join(store_lines[:stored])
            kills.append((cut, store))
            if stored < len(store_lines):
                kills.append((cut, store + store_lines[stored][: len(store_lines[stored]) // 2]))
                kills.append((cut, store + store_lines[stored]))
        executor = LocalExecutor(2)
        for cut, store in kills:
            shutil.rmtree(workspace)
            shutil.copytree(finished, workspace)
            (workspace / log_path).write_bytes(log_bytes[:cut])
            (workspace / store_path).write_bytes(store)
            (workspace / "households.csv").unlink()

            resumed = run_config(
                tmp_path, corpus, workspace=workspace, clock=lambda: 0.0,
                scheduler=executor,
            )
            report = run_batch(resumed)
            states = {m.task_id: m.state for m in TransitionLog(workspace).load_all()}
            assert states == ref_states, f"kill at log byte {cut}, store {len(store)} bytes"
            assert Path(report.households_csv).read_bytes() == ref_households
            counts = Counter(r["task_id"] for r in ResultStore(resumed.store_path).records())
            assert set(counts) == integrated and set(counts.values()) == {1}
        executor.shutdown()

    def test_torn_tail_skipped_on_read_and_cut_on_first_append(self, tmp_path, corpus):
        workspace = tmp_path / "ws"
        config = run_config(tmp_path, corpus, workspace=workspace)
        run_batch(config)
        log_path = TransitionLog(workspace).path
        expected = TransitionLog(workspace).load_all()
        torn_log = log_path.read_bytes() + b'{"task_id": "torn'
        torn_store = config.store_path.read_bytes() + b'{"task_id": "torn'
        log_path.write_bytes(torn_log)
        config.store_path.write_bytes(torn_store)

        store = ResultStore(config.store_path)
        assert len(store.records()) == len(store)
        assert TransitionLog(workspace).load_all() == expected
        assert len(list(TransitionLog(workspace).replay())) == torn_log.count(b"\n")
        assert log_path.read_bytes() == torn_log
        assert config.store_path.read_bytes() == torn_store

        assert store.add("new-p0000", b'{"task_id": "new-p0000"}\n')
        TransitionLog(workspace).append({"task_id": "new"})
        assert config.store_path.read_bytes() == torn_store[: torn_store.rindex(b"\n") + 1] + (
            b'{"task_id": "new-p0000"}\n'
        )
        assert log_path.read_bytes() == torn_log[: torn_log.rindex(b"\n") + 1] + (
            b'{"task_id": "new"}\n'
        )

    def test_transition_log_replay_stays_in_graph(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus)
        run_batch(config)
        log = TransitionLog(config.workspace)
        last_state = {}
        for entry in log.replay():
            src = entry["from"]
            dst = TaskState(entry["to"])
            if src is None:
                assert dst is TaskState.PENDING
            else:
                assert dst in ALLOWED_TRANSITIONS[TaskState(src)]
                assert last_state[entry["task_id"]] is TaskState(src)
            last_state[entry["task_id"]] = dst

    def test_timestamps_monotone(self, tmp_path, corpus):
        """Every record of the log is stamped no earlier than the one before
        it, across tasks, even with a clock that steps back every other
        call."""
        ticks = count()

        def clock() -> float:
            tick = next(ticks)
            return 1e6 + tick - 5 * (tick % 2)

        config = run_config(tmp_path, corpus, clock=clock)
        run_batch(config)
        stamps = [record["at"] for record in TransitionLog(config.workspace).replay()]
        assert len(stamps) == 5 * corpus.image_count
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))

    def test_stale_export_temporaries_removed(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus)
        config.workspace.mkdir()
        stale = config.workspace / ".households.csv.0123456789ab.tmp"
        stale.write_text("half an export")
        unrelated = config.workspace / ".households.csv.keep"
        unrelated.write_text("not ours")
        run_batch(config)
        assert not stale.exists()
        assert unrelated.read_text() == "not ours"
        assert sorted(p.name for p in config.workspace.glob(".*")) == [
            unrelated.name, ".writer.lock"]


class TestAtomicWrite:
    def test_write_after_kill_before_replace_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "image.jpg"
        target.write_bytes(b"old")
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import os, signal, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from pathlib import Path\n"
            "from censusflow.pipeline.manifests import atomic_write_bytes\n"
            "os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
            f"atomic_write_bytes(Path({str(target)!r}), b'killed')\n"
        )
        killed = subprocess.run([sys.executable, "-c", code], timeout=60)
        assert killed.returncode == -signal.SIGKILL
        assert len(list(tmp_path.glob(".*.tmp"))) == 1

        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert list(tmp_path.glob(".*.tmp")) == []


class CountingExecutor(LocalExecutor):
    def __init__(self, workers):
        super().__init__(workers)
        self.batches = []

    def run(self, stage, items, fn):
        self.batches.append(len(items))
        return super().run(stage, items, fn)


class TestStages:
    @pytest.mark.parametrize("stages", [set(), {"bogus"}, {"pre", "bogus"}, "pre"])
    def test_invalid_stages_rejected(self, tmp_path, corpus, stages):
        with pytest.raises(ValueError):
            run_config(tmp_path, corpus, stages=stages)

    @pytest.mark.parametrize("missing", ["endpoint", "transport"])
    def test_only_the_pre_stage_needs_an_endpoint_and_a_transport(self, tmp_path, corpus,
                                                                   missing):
        with pytest.raises(ValueError, match="needs an endpoint and a transport"):
            run_config(tmp_path, corpus, **{missing: None})
        config = run_config(tmp_path, corpus, stages={"proc", "post"}, **{missing: None})
        assert config.stages == {"proc", "post"}

    def test_a_run_with_nothing_planned_creates_nothing(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus, registry=None, stages={"proc", "post"})
        with pytest.raises(EmptySelection, match="nothing is planned"):
            run_batch(config)
        assert not config.workspace.exists()

    def test_pre_only_stages_every_task_and_exports_nothing(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus, stages={"pre"}, window=3)
        report = run_batch(config)
        assert report.counts["STAGED"] == corpus.image_count
        assert report.households_csv is None
        assert not config.households_path.exists()
        assert not config.store_path.exists()
        states = {m.state for m in TransitionLog(config.workspace).load_all()}
        assert states == {TaskState.STAGED}

    def test_stage_without_its_input_state_is_a_noop(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus, stages={"proc", "post"})
        report = run_batch(config)
        assert report.counts["PENDING"] == corpus.image_count
        assert not (config.workspace / "results").exists()
        assert (report.registers_exported, report.households_exported) == (0, 0)

    def test_proc_run_checkpoints_the_store(self, tmp_path, corpus):
        """A run of the process stage alone opens the store, so its
        checkpoint covers every stored line; it opens no memo."""
        for stages in ({"pre"}, {"proc"}):
            config = run_config(tmp_path, corpus, stages=stages)
            run_batch(config)
        sections = read_checkpoint(config.workspace / "checkpoint.json")
        assert sections["store"]["length"] == config.store_path.stat().st_size > 0
        assert sum(map(len, sections["store"]["pages"].values())) == corpus.image_count
        assert "memo" not in sections

    def test_separate_runs_are_windowed_and_match_truth(self, tmp_path, corpus):
        scheduler = CountingExecutor(4)
        for stages in ({"pre"}, {"proc"}, {"post"}):
            report = run_batch(
                run_config(tmp_path, corpus, stages=stages, window=3, scheduler=scheduler)
            )
            assert report.succeeded
        # One process call per window of three tasks.
        n = corpus.image_count
        assert scheduler.batches == [min(3, n - start) for start in range(0, n, 3)]
        assert report.counts["INTEGRATED"] == corpus.image_count
        truth = (corpus.root / "truth" / "households.csv").read_text(encoding="utf-8")
        assert Path(report.households_csv).read_text(encoding="utf-8") == truth


class TestExternalProcessWorker:
    def test_classify_via_subprocess(self, corpus):
        worker = ExternalProcessWorker(
            [sys.executable, "-c", "import sys; print('RECAP')"], None
        )
        assert worker.classify(b"anything") is PageClass.RECAP

    def test_recognize_via_subprocess(self):
        worker = ExternalProcessWorker(
            None, [sys.executable, "-c", "import sys; print('<s-h>Gendre <a>75')"]
        )
        assert worker.recognize(b"anything") == "<s-h>Gendre <a>75"

    def test_nonzero_exit_raises(self):
        worker = ExternalProcessWorker([sys.executable, "-c", "raise SystemExit(3)"], None)
        with pytest.raises(Exception):
            worker.classify(b"x")


class TestWorkspaceRegistry:
    """plan_batch keeps the whole registers of its tasks in the workspace's
    registry.ndjson, sorted by register id, and the log holds no image."""

    def test_plan_saves_whole_registers(self, corpus, ws):
        """In the order of the registry planned, then the kept entries it
        does not name, in their file order."""
        first, second = sorted(corpus.registry.registers, key=lambda r: r.metadata.register_id)
        cut = Registry((replace(first, images=first.images[:2]),))
        plan_batch(cut, ws)
        assert load_registry(ws.registry_file).registers == cut.registers
        # A new task's register replaces the entry with its id.
        plan_batch(corpus.registry, ws, register_id=first.metadata.register_id, limit=3)
        assert load_registry(ws.registry_file).registers == (first,)
        plan_batch(Registry((second,)), ws, limit=1)
        assert load_registry(ws.registry_file).registers == (second, first)
        plan_batch(Registry((first, second)), ws, register_id=first.metadata.register_id,
                   limit=4)
        assert load_registry(ws.registry_file).registers == (first, second)
        assert all(set(record) == {"task_id", "from", "to", "at"} for record in ws.log.replay())

    def test_saved_before_the_first_creation_record(self, tmp_path, corpus):
        saved = []

        def clock():
            saved.append(ws.registry_file.exists())
            return 0.0

        ws = Workspace(tmp_path / "ws", clock=clock)
        plan_batch(corpus.registry, ws)
        assert saved == [True] * corpus.image_count

    def test_a_run_with_nothing_new_reads_it_once_and_writes_nothing(self, tmp_path, corpus,
                                                                      monkeypatch):
        config = run_config(tmp_path, corpus)
        run_batch(config)
        registry_file = config.workspace / "registry.ndjson"
        before = registry_file.read_bytes(), registry_file.stat().st_mtime_ns
        reads = []
        read_lines = manifests_module.read_lines

        def counted(path, *args):
            reads.append(path)
            return read_lines(path, *args)

        for module in (manifests_module, runner_module):  # the log's reader, the registry's
            monkeypatch.setattr(module, "read_lines", counted)
        report = run_batch(config)
        assert report.counts["INTEGRATED"] == corpus.image_count
        assert reads.count(registry_file) == 1
        assert (registry_file.read_bytes(), registry_file.stat().st_mtime_ns) == before

    def test_a_torn_registry_exports_the_same_bytes(self, tmp_path, corpus):
        """Every NDJSON file of a finished workspace torn as a kill in the
        middle of an append leaves it, the registry included: the run reads
        its whole lines and exports what it exported before, and so does
        export."""
        config = run_config(tmp_path, corpus)
        run_batch(config)
        exported = config.households_path.read_bytes()
        for path in sorted(config.workspace.rglob("*.ndjson")):
            data = path.read_bytes()
            last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            path.write_bytes(data + last[: len(last) // 2])
        for registry in (corpus.registry, None):
            report = run_batch(replace(config, registry=registry, stages={"proc", "post"}))
            assert report.counts["INTEGRATED"] == corpus.image_count
            assert config.households_path.read_bytes() == exported
        with Workspace(config.workspace) as ws:
            assert ws.export(tmp_path / "again.csv")[:2] == (2, 0)
        assert (tmp_path / "again.csv").read_bytes() == exported

    def test_a_missing_registry_is_saved_with_nothing_new(self, tmp_path, corpus):
        config = run_config(tmp_path, corpus)
        run_batch(config)
        registry_file = config.workspace / "registry.ndjson"
        saved = registry_file.read_bytes()
        registry_file.unlink()
        run_batch(config)
        assert registry_file.read_bytes() == saved

    def test_task_ids_deterministic(self, corpus):
        image = corpus.registry.registers[0].images[0]
        assert task_id_for(image) == task_id_for(image)
        assert task_id_for(image).endswith("-p0000")

    def test_task_ids_read_back_their_page(self, corpus):
        for image in corpus.registry.iter_images():
            page = (image.register.register_id, image.sequence_index)
            assert parse_task_id(task_id_for(image)) == page
        register_id = corpus.registry.registers[0].metadata.register_id
        assert parse_task_id(f"{register_id}-p12345") == (register_id, 12345)
        for bad in ("new", f"{register_id}-p1", f"{register_id}-p+001",
                    f"{register_id}-p0001-again", f"{register_id}-p0001 "):
            with pytest.raises(ValueError):
                parse_task_id(bad)


class ImageGetFails:
    """A transport whose full-image requests for one identifier answer 503,
    the first ``times`` of them or all."""

    def __init__(self, inner, identifier, times=None):
        self.inner = inner
        self.identifier = identifier
        self.times = times

    def get(self, url, timeout_ms):
        if url == full_image_url(ENDPOINT, self.identifier) and self.times != 0:
            if self.times is not None:
                self.times -= 1
            return TransportResponse(503, b"busy")
        return self.inner.get(url, timeout_ms)


# Every way one task fails: (stage, reason prefix, attempts).
FAILURES = {
    "missing": ("prestage", "missing", {"prestage": 1}),
    "transport_error": ("prestage", "transport_error: injected transient failure",
                        {"prestage": 1}),
    "fetch": ("prestage", "fetch failed: HTTP 503", {"prestage": 1}),
    "missing_input": ("process", "missing_input", {"process": 1}),
    "worker_error": ("process", "worker_error: cuda out of memory", {"process": 3}),
    "isolation": ("process", "isolation: ", {"process": 1}),
    "schema": ("process", "schema: transcript is not a string", {"process": 1}),
}


class TestFailurePaths:
    @pytest.mark.parametrize("kind", sorted(FAILURES))
    def test_one_task_fails_with_one_warning(self, tmp_path, corpus, ws, caplog, monkeypatch,
                                             kind):
        """The task ends FAILED with its stage, reason and attempts, every
        other task integrates, and exactly one warning names the stage and
        the task."""
        image = corpus.registry.registers[0].images[1]
        identifier, victim = image.iiif_identifier, task_id_for(image)
        victim_bytes = (corpus.root / "images" / f"{identifier}.json").read_bytes()
        transport = transport_for(
            corpus,
            missing=[identifier] if kind == "missing" else [],
            flaky={identifier: 9} if kind == "transport_error" else None,
        )
        if kind == "fetch":
            transport = ImageGetFails(transport, identifier)
        workers = mock_worker_set(seed=0)
        mock, recognizer = workers.classifier, workers.recognizer

        class Classifier:
            version = mock.version

            def classify(self, image_bytes):
                if image_bytes == victim_bytes and kind == "worker_error":
                    raise RuntimeError("cuda out of memory")
                if image_bytes == victim_bytes and kind == "isolation":
                    workers.transport.get("https://a.example/exfiltrate", 1000)
                return mock.classify(image_bytes)

        class Recognizer:
            version = recognizer.version

            def recognize(self, image_bytes):
                label = recognizer.recognize(image_bytes)
                if image_bytes == victim_bytes and kind == "schema":
                    return label.encode("utf-8")  # bytes, not a label string
                return label

        workers.classifier, workers.recognizer = Classifier(), Recognizer()

        def damage(manifest):
            if manifest.task_id != victim:
                return
            if manifest.state is TaskState.STAGED and kind == "missing_input":
                ws.staged_file(manifest.task_id).unlink()

        config = run_config(
            tmp_path, corpus, transport=transport, workers=workers,
            endpoint=IiifEndpoint(ENDPOINT.base_url, retry=RetryPolicy(base_backoff_ms=0)),
            scheduler=LocalExecutor(2), on_transition=damage,
        )
        with caplog.at_level(logging.WARNING):
            report = run_batch(config)

        stage, prefix, attempts = FAILURES[kind]
        ((task_id, _, reason),) = report.failed_tasks
        assert report.counts["INTEGRATED"] == corpus.image_count - 1
        (failed,) = [m for m in TransitionLog(config.workspace).load_all()
                     if m.state is TaskState.FAILED]
        assert (failed.task_id, failed.failure, failed.attempts) == (
            victim, FailureInfo(stage, reason), attempts
        )
        assert reason.startswith(prefix)
        warned = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warned == [f"{stage} failed for {victim}: {reason}"]


class TestStaging:
    def test_run_stages_into_one_flat_directory(self, tmp_path, corpus):
        """Every image is staged flat under its task id while the window
        runs, and integrate deletes each one: a finished run leaves
        ``staging/`` empty and writes no ``results/``."""
        listings = []

        def list_staging(manifest):
            if manifest.state is TaskState.PROCESSING and not listings:
                listings.append(sorted((tmp_path / "ws" / "staging").iterdir()))

        config = run_config(tmp_path, corpus, on_transition=list_staging)
        report = run_batch(config)
        assert report.counts["INTEGRATED"] == corpus.image_count
        (staged,) = listings
        assert [p.name for p in staged] == sorted(
            f"{task_id_for(image)}.jpg" for image in corpus.registry.iter_images()
        )
        assert not any(p.is_dir() for p in staged)
        assert list((config.workspace / "staging").iterdir()) == []
        assert not (config.workspace / "results").exists()


def to_parent_format(workspace: Path) -> None:
    """Rewrite a workspace in the format of the version before paths were
    derived: no workspace registry, the creation record holds the whole
    manifest with its image, and the STAGED and PROCESSED records the staged
    and result paths, here stale ones, and STAGED a second copy of the image
    with its dimensions."""
    log = workspace / "tasks.ndjson"
    stale = "/gone/elsewhere/ws"
    registry_file = workspace / "registry.ndjson"
    images = {task_id_for(image): image for image in load_registry(registry_file).iter_images()}
    registry_file.unlink()

    def image_json(task_id: str) -> dict:
        image = images[task_id]
        register, commune = image.register, image.register.commune
        return {"identifier": image.iiif_identifier, "sequence_index": image.sequence_index,
                "register": {"census_year": register.census_year,
                             "archival_id": register.archival_id,
                             "commune": {"code": commune.code,
                                         "canonical_name": commune.canonical_name,
                                         "department": commune.department}}}

    records = []
    for line in log.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        task_id = record["task_id"]
        if record["from"] is None:
            image = {**image_json(task_id), "verified": False, "width": None, "height": None}
            record.update(state="PENDING", timestamps={"PENDING": record["at"]}, attempts={},
                          failure=None, staged_path=None, result_path=None, image=image)
        elif record["to"] == "STAGED":
            image = {**image_json(task_id), "verified": True, "width": 2000, "height": 3000}
            record.update(staged_path=f"{stale}/staging/{task_id}/image.jpg", image=image)
        elif record["to"] == "PROCESSED":
            record.update(result_path=f"{stale}/results/{task_id}.json")
        records.append(record)
    log.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                   encoding="utf-8")


class TestWorkspaceLayout:
    """Staged files are found from the task id, never from a path in the
    log, so a workspace works from any directory and after a move."""

    def test_records_hold_no_paths_and_no_image(self, tmp_path, corpus):
        run_batch(run_config(tmp_path, corpus))
        records = list(TransitionLog(tmp_path / "ws").replay())
        for record in records:
            allowed = {"task_id", "from", "to", "at"}
            allowed |= set() if record["from"] is None else {"attempts", "failure"}
            assert set(record) <= allowed, record
        assert sum(r["from"] is None for r in records) == corpus.image_count

    def test_workspace_moved_between_stages(self, tmp_path, corpus):
        run_batch(run_config(tmp_path, corpus, workspace=tmp_path / "ws", stages={"pre"}))
        (tmp_path / "ws").rename(tmp_path / "moved")
        config = run_config(tmp_path, corpus, workspace=tmp_path / "moved",
                            stages={"proc", "post"})
        report = run_batch(config)
        assert report.counts["INTEGRATED"] == corpus.image_count
        truth = (corpus.root / "truth" / "households.csv").read_bytes()
        assert config.households_path.read_bytes() == truth

    def test_log_of_the_previous_format_resumes_to_the_same_bytes(self, tmp_path, corpus):
        reference = run_config(tmp_path, corpus, workspace=tmp_path / "reference")
        run_batch(reference)
        workspace = tmp_path / "ws"
        for stages in ({"pre"}, {"proc"}, {"post"}):
            if workspace.exists():
                to_parent_format(workspace)
            report = run_batch(run_config(tmp_path, corpus, stages=stages))
            assert report.succeeded
        assert report.counts["INTEGRATED"] == corpus.image_count
        for name in ("households.csv", "results_store.ndjson"):
            assert (workspace / name).read_bytes() == (reference.workspace / name).read_bytes()
        assert (workspace / "households.csv").read_bytes() == (
            corpus.root / "truth" / "households.csv"
        ).read_bytes()


class TestAppendFileReads:
    def test_held_reads_see_a_line_written_over_a_cut_tail(self, tmp_path):
        """A buffered read handle would still hold the torn tail's bytes."""
        path = tmp_path / "log.ndjson"
        path.write_bytes(b'{"a": 1}\n{"torn": ')
        with AppendFile(path) as file:
            assert file.read(0) == b'{"a": 1}\n'
            offset = file.append(b'{"b": 2}\n')
            assert (file.read(offset), file.read(0)) == (b'{"b": 2}\n', b'{"a": 1}\n')

    def test_long_lines_and_a_last_line_without_newline(self, tmp_path):
        path = tmp_path / "log.ndjson"
        long = b"x" * 40_000 + b"\n"
        path.write_bytes(long + b"short\n" + b"torn")
        file = AppendFile(path)
        assert [file.read(offset) for offset in (0, len(long), len(long) + 6)] == [
            long, b"short\n", b"torn"
        ]

    def test_a_nested_hold_keeps_the_handle_until_the_outer_exits(self, tmp_path, monkeypatch):
        """``export_batch`` holds a store that a ``Workspace`` already holds."""
        path = tmp_path / "log.ndjson"
        path.write_bytes(b'{"a": 1}\n')
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        with AppendFile(path) as file:
            with file:
                file.read(0)
            file.read(0)
            assert len(opened) == 1 and file._reader is not None
        assert file._reader is None
