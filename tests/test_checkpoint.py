"""The workspace checkpoint against the full replay it stands in for.

A run opens the task log and the result store, with the digests of its
registers' lines, from ``checkpoint.json`` plus what was appended after it. Every case here runs the
same resume twice, once with a checkpoint and once without, and requires the
same plan, report, task states and bytes on disk.
"""

import itertools
import json
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from censusflow.fixtures import FixtureTransport, generate_corpus
from censusflow.iiif import IiifEndpoint
from censusflow.ingest import GazetteerEntry, ImageRef, Register, RegisterMetadata, Registry
from censusflow.label_codec import SyntheticProfile
from censusflow.pipeline import (
    LocalExecutor,
    PipelineContext,
    ResultStore,
    RunConfig,
    TaskState,
    TransitionLog,
    plan_batch,
    run_batch,
)
from censusflow.pipeline.manifests import (
    TERMINAL_STATES,
    FailureInfo,
    advance,
    read_checkpoint,
    write_checkpoint,
)
import censusflow.pipeline.runner as runner_module

from conftest import mock_worker_set

CHECKPOINT = "checkpoint.json"
LOG = "tasks.ndjson"
STORE = "results_store.ndjson"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return generate_corpus(
        tmp_path_factory.mktemp("corpus") / "corpus", registers=2, seed=11,
        list_pages_min=2, list_pages_max=2,
        profile=SyntheticProfile(min_rows=4, max_rows=8, household_size_mean=3.0),
    )


@pytest.fixture(scope="module")
def executor():
    pool = LocalExecutor(2)
    yield pool
    pool.shutdown()


def config(workspace: Path, corpus, executor, start: float = 1e6, **overrides) -> RunConfig:
    """A run whose clock counts up from ``start``, so both sides of a
    comparison stamp their records alike."""
    clock = itertools.count(start)
    defaults = dict(
        workspace=workspace, registry=corpus.registry,
        endpoint=IiifEndpoint("https://fixture.local/iiif"),
        transport=FixtureTransport(corpus.root), workers=mock_worker_set(seed=0),
        scheduler=executor, prestage_concurrency=2, window=3,
        clock=lambda: float(next(clock)),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def finished(tmp_path_factory, corpus, executor):
    """A run to the end in windows of three, with every checkpoint it wrote
    as ``(log length, bytes)``, in order."""
    workspace = tmp_path_factory.mktemp("finished") / "ws"
    written = []
    original = runner_module.write_checkpoint

    def keep(path, sections):
        size = original(path, sections)
        written.append((sections["log"]["length"], path.read_bytes()))
        return size

    runner_module.write_checkpoint = keep
    try:
        report = run_batch(config(workspace, corpus, executor, start=0.0))
    finally:
        runner_module.write_checkpoint = original
    assert report.counts["INTEGRATED"] == corpus.image_count
    assert len(written) >= 3 and (workspace / CHECKPOINT).read_bytes() == written[-1][1]
    return workspace, written, (workspace / "households.csv").read_bytes()


def plan_summary(manifests) -> list[tuple]:
    """What a plan must agree on: ids, states, images, attempts, failures,
    and the latest timestamp of each task not yet terminal."""
    return [(m.task_id, m.state, m.image, m.attempts, m.failure,
             None if m.state in TERMINAL_STATES else max(m.timestamps.values()))
            for m in manifests]


def resume_both(tmp_path: Path, corpus, executor, source: Path, checkpoint: bytes | None,
                log: bytes | None = None, store: bytes | None = None) -> dict:
    """Resume a copy of ``source`` (its log and store replaced if given)
    with ``checkpoint`` as checkpoint.json, and another copy without one;
    require the same plan, report, states and files. Returns what the
    checkpoint side folded from it: the log and store lengths it verified."""
    outcomes = []
    for side, data in (("checkpoint", checkpoint), ("replay", None)):
        workspace = tmp_path / side
        shutil.rmtree(workspace, ignore_errors=True)
        shutil.copytree(source, workspace)
        if log is not None:
            (workspace / LOG).write_bytes(log)
        if store is not None:
            (workspace / STORE).write_bytes(store)
        (workspace / "households.csv").unlink(missing_ok=True)
        (workspace / CHECKPOINT).unlink(missing_ok=True)
        if data is not None:
            (workspace / CHECKPOINT).write_bytes(data)
        sections = read_checkpoint(workspace / CHECKPOINT)
        verified = {"store": ResultStore(workspace / STORE, sections.get("store")).verified}

        ctx = PipelineContext.at(workspace, clock=itertools.count(2e6).__next__)
        plan = plan_summary(plan_batch(corpus.registry, ctx))
        verified["log"] = ctx.log.prefix.length
        report = run_batch(config(workspace, corpus, executor))
        outcomes.append(dict(
            plan=plan, verified=verified,
            report=replace(report, households_csv=Path(report.households_csv).name),
            manifests=TransitionLog(workspace).load_all(),
            files={name: (workspace / name).read_bytes()
                   for name in (LOG, STORE, "households.csv")},
        ))
    with_checkpoint, replayed = outcomes
    assert replayed["verified"] == {"log": 0, "store": 0}
    for key in ("plan", "report", "manifests", "files"):
        assert with_checkpoint[key] == replayed[key], key
    return with_checkpoint["verified"]


def kills(workspace: Path) -> list[tuple[int, bytes, bytes]]:
    """What a kill leaves at every record boundary of the finished log and
    inside every record: the log cut there, and the store holding the
    records whose INTEGRATED transition survives, plus half or all of the
    next one."""
    log_lines = (workspace / LOG).read_bytes().splitlines(keepends=True)
    store_lines = (workspace / STORE).read_bytes().splitlines(keepends=True)
    cuts = [0]
    for line in log_lines:
        cuts += [cuts[-1] + len(line) // 2, cuts[-1] + len(line)]
    log_bytes = b"".join(log_lines)
    out = []
    for cut in cuts:
        survived = [json.loads(line) for line in log_bytes[:cut].splitlines(keepends=True)
                    if line.endswith(b"\n")]
        stored = sum(1 for record in survived if record["to"] == "INTEGRATED")
        store = b"".join(store_lines[:stored])
        out.append((cut, log_bytes[:cut], store))
        if stored < len(store_lines):
            out.append((cut, log_bytes[:cut], store + store_lines[stored][: len(store_lines[stored]) // 2]))
            out.append((cut, log_bytes[:cut], store + store_lines[stored]))
    return out


class TestCheckpointAgainstReplay:
    def test_kill_at_any_log_offset(self, tmp_path, corpus, executor, finished):
        """Each kill after the first checkpoint resumes from the last
        checkpoint written before it, as the killed run left it; the
        checkpoint side folds only the tail. (Before the first checkpoint
        both sides replay, as ``test_resume_after_kill_at_any_log_offset``
        covers.)"""
        workspace, written, households = finished
        resumed = 0
        for cut, log, store in kills(workspace):
            before = [(length, data) for length, data in written if length <= cut]
            if not before:
                continue
            length, checkpoint = before[-1]
            verified = resume_both(tmp_path, corpus, executor, workspace, checkpoint, log, store)
            assert verified == {"log": length,
                                "store": json.loads(checkpoint)["store"]["length"]}, cut
            assert (tmp_path / "checkpoint" / "households.csv").read_bytes() == households
            resumed += 1
        assert resumed > len(kills(workspace)) // 2

    def test_checkpoint_with_task_id_keys_opens_from_its_sections(self, tmp_path, corpus,
                                                                  executor, finished):
        """Earlier versions also wrote the store's task ids into its section
        as ``keys``. Such a checkpoint still opens from its sections, and
        ``keys`` is not read: wrong keys open the same."""
        workspace, written, households = finished
        length, checkpoint = written[len(written) // 2]
        sections = json.loads(checkpoint)
        assert "keys" not in sections["store"]
        store = (workspace / STORE).read_bytes()[: sections["store"]["length"]]
        task_ids = [json.loads(line)["task_id"] for line in store.splitlines()]
        assert 0 < len(task_ids) < corpus.image_count
        log = (workspace / LOG).read_bytes()[:length]
        for keys in (task_ids, ["not-a-task"]):
            sections["store"]["keys"] = keys
            data = json.dumps(sections, separators=(",", ":")).encode()
            probe = tmp_path / "probe.ndjson"
            probe.write_bytes(store)
            opened = ResultStore(probe, sections["store"])
            assert opened.verified == len(store) and len(opened) == len(task_ids)
            assert all(task_id in opened for task_id in task_ids)
            verified = resume_both(tmp_path, corpus, executor, workspace, data, log, store)
            assert verified == {"log": length, "store": len(store)}
            assert (tmp_path / "checkpoint" / "households.csv").read_bytes() == households

    def test_kill_between_log_flush_and_checkpoint_write(self, tmp_path, corpus, executor):
        """A run killed in its second checkpoint write: the log holds a
        window the checkpoint does not."""

        class Killed(BaseException):
            pass

        calls = itertools.count()
        original = runner_module.write_checkpoint

        def kill_second(path, sections):
            if next(calls) == 1:
                raise Killed()
            return original(path, sections)

        workspace = tmp_path / "killed"
        runner_module.write_checkpoint = kill_second
        try:
            with pytest.raises(Killed):
                run_batch(config(workspace, corpus, executor, start=0.0))
        finally:
            runner_module.write_checkpoint = original
        sections = read_checkpoint(workspace / CHECKPOINT)
        assert 0 < sections["log"]["length"] < (workspace / LOG).stat().st_size
        verified = resume_both(tmp_path, corpus, executor, workspace,
                               (workspace / CHECKPOINT).read_bytes())
        assert verified == {"log": sections["log"]["length"],
                            "store": sections["store"]["length"]}

    def test_resume_after_a_pre_stage_run(self, tmp_path, corpus, executor):
        """A checkpoint of STAGED tasks, each with two timestamps, written by
        a run without the post stage."""
        workspace = tmp_path / "staged"
        run_batch(config(workspace, corpus, executor, start=0.0, stages={"pre"}))
        sections = read_checkpoint(workspace / CHECKPOINT)
        assert {group[0] for group in sections["log"]["tasks"]} == {"STAGED"}
        assert sections["store"]["length"] == 0
        verified = resume_both(tmp_path, corpus, executor, workspace,
                               (workspace / CHECKPOINT).read_bytes())
        assert verified == {"log": sections["log"]["length"], "store": 0}

    def test_log_cut_below_the_checkpoint(self, tmp_path, corpus, executor, finished):
        workspace, written, _ = finished
        length, checkpoint = written[-1]
        log = (workspace / LOG).read_bytes()
        cut = log.rindex(b"\n", 0, length - 1) + 1
        verified = resume_both(tmp_path, corpus, executor, workspace, checkpoint, log=log[:cut])
        assert verified["log"] == 0

    @pytest.mark.parametrize("name", [LOG, STORE])
    def test_one_byte_flipped_in_a_prefix(self, tmp_path, corpus, executor, finished, name):
        """A changed byte that leaves the file valid, so only the digest can
        tell: an attempt count in the log, a letter of a transcript in the
        store (which the memo's digests would otherwise hide)."""
        workspace, written, _ = finished
        data = bytearray((workspace / name).read_bytes())
        if name == LOG:
            at = data.index(b'"attempts": {"process": 1}') + len(b'"attempts": {"process": ')
            data[at] = ord("2")
        else:
            at = data.index(b'"text": "') + len(b'"text": "')
            data[at] ^= 0x20  # the letter's other case
        side = {LOG: "log", STORE: "store"}[name]
        verified = resume_both(tmp_path, corpus, executor, workspace, written[-1][1],
                               **{side: bytes(data)})
        assert verified[side] == 0
        assert verified[{"log": "store", "store": "log"}[side]] > 0

    def test_record_after_the_checkpoint_for_a_terminal_task(self, tmp_path, corpus, executor,
                                                             finished):
        """A tail record for a task the checkpoint holds as INTEGRATED (one
        the state graph forbids) makes the fold replay the whole log."""
        workspace, written, _ = finished
        log = (workspace / LOG).read_bytes()
        record = json.loads(log.splitlines()[-1])
        assert record["to"] == "INTEGRATED"
        record.update({"from": "INTEGRATED", "to": "FAILED", "at": 1e9,
                       "failure": {"stage": "integrate", "reason": "late", "attempt": 1}})
        log += (json.dumps(record) + "\n").encode()
        verified = resume_both(tmp_path, corpus, executor, workspace, written[-1][1], log=log)
        assert verified == {"log": 0, "store": json.loads(written[-1][1])["store"]["length"]}

    def test_store_rewritten_after_the_checkpoint(self, tmp_path, corpus, executor, finished):
        """The same records in another order: every offset in the
        checkpoint's index is stale."""
        workspace, written, households = finished
        lines = (workspace / STORE).read_bytes().splitlines(keepends=True)
        verified = resume_both(tmp_path, corpus, executor, workspace, written[-1][1],
                               store=b"".join(reversed(lines)))
        assert verified == {"log": written[-1][0], "store": 0}
        assert (tmp_path / "checkpoint" / "households.csv").read_bytes() == households

    @pytest.mark.parametrize("garbage", ["bytes", "truncated", "version", "tasks", "pages", "memo"])
    def test_garbage_checkpoint(self, tmp_path, corpus, executor, finished, garbage):
        """Unparsable bytes, a cut file, another version, and sections whose
        digests match but whose content is malformed."""
        workspace, written, _ = finished
        checkpoint = written[-1][1]
        sections = json.loads(checkpoint)
        if garbage == "bytes":
            data = b"\xff\x00garbage"
        elif garbage == "truncated":
            data = checkpoint[: len(checkpoint) // 2]
        else:
            if garbage == "version":
                sections["version"] = 0
            elif garbage == "tasks":
                sections["log"]["tasks"] = [["INTEGRATED", {}, None, ["not", "a", "dict"]]]
            elif garbage == "pages":
                sections["store"]["pages"] = {"r": [[1]]}
            else:  # the digests that key the memo
                digests = sections["store"]["digests"]
                sections["store"]["digests"] = {register: "x" for register in digests}
            data = json.dumps(sections).encode()
        verified = resume_both(tmp_path, corpus, executor, workspace, data)
        expected = {"bytes": (0, 0), "truncated": (0, 0), "version": (0, 0),
                    "tasks": (0, 1), "pages": (1, 0), "memo": (1, 1)}[garbage]
        assert (bool(verified["log"]), bool(verified["store"])) == expected


class TestCheckpointWrites:
    def test_run_without_post_writes_the_store_section(self, tmp_path, corpus, executor,
                                                       finished):
        """A pre-only run opens the store as every run does: on a finished
        workspace it leaves the checkpoint as it was, and without one it
        writes the store's section, whole, with no digests (it exports
        nothing)."""
        workspace, written, _ = finished
        before = json.loads(written[-1][1])
        assert sorted(before) == ["log", "store", "version"]
        source = tmp_path / "ws"
        shutil.copytree(workspace, source)
        report = run_batch(config(source, corpus, executor, stages={"pre"}))
        assert report.counts["INTEGRATED"] == corpus.image_count
        assert json.loads((source / CHECKPOINT).read_bytes()) == before
        (source / CHECKPOINT).unlink()
        run_batch(config(source, corpus, executor, stages={"pre"}))
        store = json.loads((source / CHECKPOINT).read_bytes())["store"]
        assert store["length"] == (source / STORE).stat().st_size
        for section in (store, before["store"]):
            section["pages"] = {register: dict(map(tuple, offsets))
                                for register, offsets in section["pages"].items()}
        assert store["pages"] == before["store"]["pages"]
        assert store["digests"] == {}

    def test_run_with_nothing_to_do_rewrites_nothing(self, tmp_path, corpus, executor, finished):
        workspace = tmp_path / "ws"
        shutil.copytree(finished[0], workspace)
        stamp = (workspace / CHECKPOINT).stat().st_mtime_ns
        data = (workspace / CHECKPOINT).read_bytes()
        run_batch(config(workspace, corpus, executor))
        assert (workspace / CHECKPOINT).read_bytes() == data
        assert (workspace / CHECKPOINT).stat().st_mtime_ns == stamp

    def test_checkpoint_bytes_total_stays_below_the_log(self, tmp_path, corpus, executor):
        """Each checkpoint after a window waits for the log to grow by that
        checkpoint's own size, so the checkpoints of a run together never
        outweigh its log."""
        sizes = []
        original = runner_module.write_checkpoint

        def measure(path, sections):
            sizes.append(original(path, sections))
            return sizes[-1]

        runner_module.write_checkpoint = measure
        try:
            run_batch(config(tmp_path / "ws", corpus, executor, window=1))
        finally:
            runner_module.write_checkpoint = original
        assert len(sizes) < corpus.image_count
        assert sum(sizes) <= (tmp_path / "ws" / LOG).stat().st_size + sizes[-1]


def make_registry(pages_per_register: list[int]) -> Registry:
    entry = GazetteerEntry(code="03190", canonical_name="Moulins", department="03")
    registers = []
    for k, pages in enumerate(pages_per_register):
        meta = RegisterMetadata(census_year=1881, commune=entry, archival_id=f"6M {k:05d}")
        images = tuple(ImageRef(register=meta, iiif_identifier=f"{meta.register_id}/{seq:03d}",
                                sequence_index=seq) for seq in range(pages))
        registers.append(Register(metadata=meta, images=images))
    return Registry(tuple(registers))


class TestPlanMemory:
    def test_peak_with_a_checkpoint_is_at_most_half(self, tmp_path):
        """On a finished log of 10k tasks, plan_batch's tracemalloc peak with
        a valid checkpoint is at most half of the full replay's."""
        registry = make_registry([10] * 1_000)
        workspace = tmp_path / "ws"
        ctx = PipelineContext.at(workspace, clock=itertools.count(1.7e9, 0.25).__next__)
        with ctx.log.file:
            for k, manifest in enumerate(plan_batch(registry, ctx)):
                if k % 97 == 0:
                    advance(manifest, TaskState.FAILED, ctx, attempts={"prestage": 1},
                            failure=FailureInfo("prestage", "missing: 404"))
                    continue
                for state in (TaskState.STAGED, TaskState.PROCESSING, TaskState.PROCESSED,
                              TaskState.INTEGRATED):
                    advance(manifest, state, ctx,
                            attempts={"process": 1} if state is TaskState.PROCESSED else None)
            write_checkpoint(ctx.checkpoint_file, {"log": ctx.log.section()})

        def peak() -> tuple[int, int]:
            ctx = PipelineContext.at(workspace)
            tracemalloc.start()
            try:
                assert len(plan_batch(registry, ctx)) == 10_000
                return tracemalloc.get_traced_memory()[1], ctx.log.prefix.length
            finally:
                tracemalloc.stop()

        with_checkpoint, verified = peak()
        assert verified == (workspace / LOG).stat().st_size
        (workspace / CHECKPOINT).unlink()
        replayed, verified = peak()
        assert verified == 0
        assert with_checkpoint <= replayed / 2, (with_checkpoint, replayed)
