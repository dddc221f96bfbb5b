"""Seeded interleavings of the process stage's work, killed and resumed.

``SeededExecutor`` runs each window's work items one at a time in a
permutation drawn from its seed, in the style of deterministic simulation
testing (Zhou et al., SIGMOD 2021). Every seed also picks the transition at
which ``on_transition`` kills the run; the resume runs on a real
``LocalExecutor`` and must end as an uninterrupted run does.
"""

from collections import Counter

import pytest

from censusflow.fixtures import FixtureTransport, generate_corpus
from censusflow.iiif import IiifEndpoint, RetryPolicy
from censusflow.pipeline import (
    LocalExecutor,
    ResultStore,
    RunConfig,
    TaskState,
    TransitionLog,
    run_batch,
)
from censusflow.pipeline.manifests import TERMINAL_STATES

from conftest import SeededExecutor, mock_worker_set

SEEDS = range(64)


class Crash(BaseException):
    pass


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The 12-image fixture, with one image answering 404 and one failing
    twice before it answers."""
    corpus = generate_corpus(tmp_path_factory.mktemp("corpus"), registers=2, seed=5,
                             limit_images=12)
    images = [image.iiif_identifier for image in corpus.registry.iter_images()]
    return corpus, {"missing": [images[4]], "flaky": {images[9]: 2}}


def config(corpus, workspace, scheduler, **overrides) -> RunConfig:
    corpus, faults = corpus
    return RunConfig(
        workspace=workspace, registry=corpus.registry,
        endpoint=IiifEndpoint("https://fixture.local/iiif", retry=RetryPolicy(base_backoff_ms=0)),
        transport=FixtureTransport(corpus.root, **faults), workers=mock_worker_set(seed=0),
        scheduler=scheduler, prestage_concurrency=1, window=4, clock=lambda: 0.0, **overrides,
    )


@pytest.fixture(scope="module")
def reference(corpus, tmp_path_factory):
    """An uninterrupted run: its final states, households.csv and the
    number of transitions it logs."""
    transitions = []
    workspace = tmp_path_factory.mktemp("reference")
    with LocalExecutor(2) as executor:
        report = run_batch(config(corpus, workspace, executor, on_transition=transitions.append))
    states = {m.task_id: m.state for m in TransitionLog(workspace).load_all()}
    return states, (workspace / "households.csv").read_bytes(), len(transitions), report


def test_the_reference_fails_one_task_and_exports(reference):
    states, households, transitions, report = reference
    assert Counter(states.values()) == {TaskState.INTEGRATED: 11, TaskState.FAILED: 1}
    assert report.failed_tasks[0][1:] == ("prestage", "missing")
    assert households and transitions == 11 * 4 + 1


def test_the_executor_permutes_calls_and_keeps_item_order():
    executor = SeededExecutor(3)
    items = list(range(8))
    assert executor.run("test", items, lambda i: i * 10) == [i * 10 for i in items]
    assert sorted(executor.calls) == items and executor.calls != items


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_and_resume_under_a_seeded_order(tmp_path, corpus, reference, seed):
    """Kill at transition k (the seeds take every k in turn), then resume:
    every task ends in the reference's state, each integrated task is
    stored once and households.csv has the reference's bytes."""
    states, households, transitions, _ = reference
    kill_at = 1 + seed % transitions
    seen = 0

    def bomb(manifest):
        nonlocal seen
        seen += 1
        if seen == kill_at:
            raise Crash()

    workspace = tmp_path / "ws"
    with pytest.raises(Crash):
        run_batch(config(corpus, workspace, SeededExecutor(seed), on_transition=bomb))
    with LocalExecutor(2) as executor:
        report = run_batch(config(corpus, workspace, executor))

    assert sum(report.counts[state.value] for state in TERMINAL_STATES) == report.planned == 12
    assert {m.task_id: m.state for m in TransitionLog(workspace).load_all()} == states
    store = ResultStore(workspace / "results_store.ndjson")
    counts = Counter(r["task_id"] for r in store.records())
    assert set(counts.values()) == {1}
    assert set(counts) == {task_id for task_id, state in states.items()
                           if state is TaskState.INTEGRATED}
    assert (workspace / "households.csv").read_bytes() == households
