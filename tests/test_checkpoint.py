"""The workspace checkpoint against the full replay it stands in for.

A run opens the task log and the result store, with the digests of its
registers' lines, from ``checkpoint.json`` plus what was appended after it. Every case here runs the
same resume twice, once with a checkpoint and once without, and requires the
same plan, report, task states and bytes on disk.
"""

import itertools
import json
import re
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
    ResultStore,
    RunConfig,
    TaskState,
    TransitionLog,
    plan_batch,
    run_batch,
)
from censusflow.pipeline.manifests import (
    CorruptLine,
    FailureInfo,
    advance,
    read_checkpoint,
    write_checkpoint,
)
from censusflow.pipeline.runner import Workspace
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


def resume_both(tmp_path: Path, corpus, executor, source: Path, checkpoint: bytes | None,
                log: bytes | None = None, store: bytes | None = None) -> dict:
    """Resume a copy of ``source`` (its log and store replaced if given)
    with ``checkpoint`` as checkpoint.json, and another copy without one;
    require the same plan (every manifest, field for field), latest time,
    report, states and files. Returns what the checkpoint side folded from
    it: the log and store lengths it verified."""
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

        ctx = Workspace(workspace, clock=itertools.count(2e6).__next__)
        plan = plan_batch(corpus.registry, ctx)
        verified["log"] = ctx.log.prefix.length
        report = run_batch(config(workspace, corpus, executor))
        outcomes.append(dict(
            plan=plan, latest=ctx.log.latest, verified=verified,
            report=replace(report, households_csv=Path(report.households_csv).name),
            manifests=TransitionLog(workspace).load_all(),
            files={name: (workspace / name).read_bytes()
                   for name in (LOG, STORE, "households.csv")},
        ))
    with_checkpoint, replayed = outcomes
    assert replayed["verified"] == {"log": 0, "store": 0}
    for key in ("plan", "latest", "report", "manifests", "files"):
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
    def test_fold_from_every_checkpoint_equals_the_replay(self, finished):
        """Each checkpoint the run wrote, plus the log after it, folds to
        the full replay's manifests, field for field, and to its latest
        time; each checkpoint's own latest is that of the records it
        covers."""
        workspace, written, _ = finished
        log_bytes = (workspace / LOG).read_bytes()
        replayed = TransitionLog(workspace).load_all()
        latest = max(record["at"] for record in TransitionLog(workspace).replay())
        for length, data in written:
            section = json.loads(data)["log"]
            assert section["latest"] == max(json.loads(line)["at"]
                                            for line in log_bytes[:length].splitlines())
            log = TransitionLog(workspace)
            tasks = log.fold(section)
            assert log.prefix.length == length
            assert sorted(tasks.values(), key=lambda m: m.task_id) == replayed
            assert log.latest == latest

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
        """A checkpoint of STAGED tasks, each with two records, written by
        a run without the post stage."""
        workspace = tmp_path / "staged"
        run_batch(config(workspace, corpus, executor, start=0.0, stages={"pre"}))
        sections = read_checkpoint(workspace / CHECKPOINT)
        assert {group[0] for group in sections["log"]["tasks"]} == {"STAGED"}
        assert sections["store"]["length"] == 0
        verified = resume_both(tmp_path, corpus, executor, workspace,
                               (workspace / CHECKPOINT).read_bytes())
        assert verified == {"log": sections["log"]["length"], "store": 0}

    def test_resume_after_a_plan(self, tmp_path, corpus, executor):
        """A checkpoint of PENDING tasks, written when a plan, a writer like
        any run, closes the workspace. A plan never opens the store, so on a
        new workspace the checkpoint has no store section."""
        workspace = tmp_path / "planned"
        with Workspace(workspace, writer=True, clock=itertools.count(0.0).__next__) as ws:
            plan_batch(corpus.registry, ws)
        sections = read_checkpoint(workspace / CHECKPOINT)
        assert {group[0] for group in sections["log"]["tasks"]} == {"PENDING"}
        assert sections["log"]["length"] == (workspace / LOG).stat().st_size
        assert "store" not in sections
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
        tell: an attempt count in the log, a letter of a label in the store
        (which the memo's digests would otherwise hide)."""
        workspace, written, _ = finished
        data = bytearray((workspace / name).read_bytes())
        if name == LOG:
            at = data.index(b'"attempts": {"process": 1}') + len(b'"attempts": {"process": ')
            data[at] = ord("2")
        else:
            at = re.search(rb"<f>[A-Za-z]", data).end() - 1
            data[at] ^= 0x20  # the first first name's first letter, in its other case
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
                sections["log"]["tasks"] = [["INTEGRATED", {}, None, [1, 2, 3]]]
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


def small_log(workspace: Path) -> tuple[dict, list[str]]:
    """A log of three tasks, one STAGED, one FAILED and one INTEGRATED, and
    its checkpoint section; returns the section and the task ids."""
    ctx = Workspace(workspace, clock=itertools.count(100.0).__next__)
    staged, failed, done = plan_batch(make_registry([3]), ctx)
    advance(staged, TaskState.STAGED, ctx)
    advance(failed, TaskState.FAILED, ctx, attempts={"prestage": 1},
            failure=FailureInfo("prestage", "missing: 404"))
    for state in (TaskState.STAGED, TaskState.PROCESSING, TaskState.PROCESSED,
                  TaskState.INTEGRATED):
        advance(done, state, ctx)
    return ctx.log.section(), [staged.task_id, failed.task_id, done.task_id]


# Records appended after a checkpoint of ``small_log``, as (task, from, to),
# task 3 being one the checkpoint does not hold, and whether the state graph
# lets the tail fold apply them.
TAIL_RECORDS = {
    "next": (0, "STAGED", "PROCESSING", True),
    "fail": (0, "STAGED", "FAILED", True),
    "create": (3, None, "PENDING", True),
    "stale from": (0, "PENDING", "STAGED", False),
    "skip a state": (0, "STAGED", "PROCESSED", False),
    "after INTEGRATED": (2, "INTEGRATED", "FAILED", False),
    "after FAILED": (1, "FAILED", "STAGED", False),
    "create twice": (0, None, "PENDING", False),
    "create STAGED": (3, None, "STAGED", False),
    "unknown task": (3, "PENDING", "STAGED", False),
}


class TestTailRule:
    @pytest.mark.parametrize("kind", list(TAIL_RECORDS))
    def test_graph_decides_tail_or_replay(self, tmp_path, kind):
        """A record after the checkpoint applies in the tail only if its
        ``from`` is the task's folded state and the graph allows its ``to``;
        any other sends the fold to the full replay. Either way the fold
        equals the replay, field for field, with the replay's latest."""
        section, task_ids = small_log(tmp_path / "ws")
        task, src, dst, applies = TAIL_RECORDS[kind]
        task_id = task_ids[task] if task < 3 else "new-p0000"
        record = {"task_id": task_id, "from": src, "to": dst, "at": 1e9}
        if dst == "FAILED":
            record.update(attempts={"process": 2}, failure={"stage": "process", "reason": "x"})
        log = TransitionLog(tmp_path / "ws")
        log.append(record)
        tasks = log.fold(section)
        assert log.prefix.length == (section["length"] if applies else 0)
        assert log.latest == 1e9
        replayed = TransitionLog(tmp_path / "ws").load_all()
        assert sorted(tasks.values(), key=lambda m: m.task_id) == replayed

    def test_older_record_keys_are_ignored(self, tmp_path):
        """Keys the fold does not read, such as the images and paths of
        earlier versions or a failure's ``attempt``, fold as if absent."""
        section, (task_id, _, _) = small_log(tmp_path / "ws")
        log = TransitionLog(tmp_path / "ws")
        log.append({"task_id": task_id, "from": "STAGED", "to": "FAILED", "at": 1e9,
                    "attempts": {"prestage": 2}, "staged_path": "/gone/x.jpg",
                    "failure": {"stage": "prestage", "reason": "late", "attempt": 2}})
        tasks = log.fold(section)
        assert log.prefix.length == section["length"]
        assert tasks[task_id].failure == FailureInfo("prestage", "late")
        assert tasks[task_id].attempts == {"prestage": 2}


_DELETE = object()

# Log records that are JSON objects but not transitions: the key changed in
# a well-formed record, its new value (or _DELETE), and the problem the
# error names.
BAD_RECORDS = {
    "unknown to": ("to", "BOGUS", "to 'BOGUS' is not a state"),
    "array to": ("to", ["PENDING"], "to ['PENDING'] is not a state"),
    "no task_id": ("task_id", _DELETE, "task_id is not a string"),
    "numeric task_id": ("task_id", 7, "task_id is not a string"),
    "unknown from": ("from", "NOPE", "from 'NOPE' is neither null nor a state"),
    "no at": ("at", _DELETE, "at None is not a finite number"),
    "bool at": ("at", True, "at True is not a finite number"),
    "string at": ("at", "soon", "at 'soon' is not a finite number"),
    "NaN at": ("at", float("nan"), "at nan is not a finite number"),
    "string attempts": ("attempts", {"process": "1"}, "attempts is not an object of integers"),
    "array attempts": ("attempts", [1], "attempts is not an object of integers"),
    "failure without reason": ("failure", {"stage": 1},
                               "failure has no string stage and reason"),
    "string failure": ("failure", "late", "failure has no string stage and reason"),
}


class TestRecordSchema:
    @pytest.mark.parametrize("kind", list(BAD_RECORDS))
    def test_record_that_is_not_a_transition(self, tmp_path, kind):
        """The tail after a checkpoint, the full replay and ``load_all``
        each stop at the record with one ``CorruptLine`` naming its
        offset."""
        section, (task_id, _, _) = small_log(tmp_path / "ws")
        key, value, problem = BAD_RECORDS[kind]
        record = {"task_id": task_id, "from": "STAGED", "to": "PROCESSING", "at": 1e9}
        if value is _DELETE:
            del record[key]
        else:
            record[key] = value
        log = TransitionLog(tmp_path / "ws")
        log.append(record)
        message = (f"{log.path}: line at byte {section['length']} "
                   f"is not a task transition: {problem}")
        for read in (lambda: log.fold(section), log.fold, log.load_all):
            with pytest.raises(CorruptLine) as caught:
                read()
            assert str(caught.value) == message


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

    def test_plan_opens_no_store_and_carries_its_section(self, tmp_path, monkeypatch, corpus,
                                                         finished):
        """``plan`` never writes the store, so it does not open it: on a
        finished workspace it rewrites nothing, and with new tasks it
        writes the checkpoint's log section anew and copies its store
        section byte for byte."""
        from click.testing import CliRunner

        from censusflow.cli import main
        from censusflow.ingest import registry_ndjson

        workspace = tmp_path / "ws"
        shutil.copytree(finished[0], workspace)
        before = (workspace / CHECKPOINT).read_bytes()

        def no_store(*args, **kwargs):
            raise AssertionError("result store opened")

        monkeypatch.setattr(runner_module, "ResultStore", no_store)
        same, more = tmp_path / "same.ndjson", tmp_path / "more.ndjson"
        same.write_text(registry_ndjson(corpus.registry), encoding="utf-8")
        extra = make_registry([2]).registers
        more.write_text(registry_ndjson(Registry(corpus.registry.registers + extra)),
                        encoding="utf-8")
        for registry, planned in ((same, corpus.image_count), (more, corpus.image_count + 2)):
            result = CliRunner().invoke(main, ["plan", "--registry", str(registry),
                                               "--workspace", str(workspace)])
            assert result.exit_code == 0, result.output
            assert f"planned {planned} tasks" in result.output
            if registry is same:
                assert (workspace / CHECKPOINT).read_bytes() == before
        after = (workspace / CHECKPOINT).read_bytes()
        assert json.loads(after)["log"] != json.loads(before)["log"]
        assert after[after.index(b'"store":'):] == before[before.index(b'"store":'):]
        assert json.loads(after)["log"]["length"] == (workspace / LOG).stat().st_size

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
        ctx = Workspace(workspace, clock=itertools.count(1.7e9, 0.25).__next__)
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
            ctx = Workspace(workspace)
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
