"""Staged batch processing of register images.

Each image travels through three stages, mirroring a cluster whose compute
nodes have no internet access:

* pre-stage (connected): check each image and download its bytes into
  staging, on one thread pool held for the whole run;
* process (isolated): classify the page and, for list pages, run the
  recognizer, on a thread pool whose workers hold no network transport;
  each checked result, with the recognizer's label as it returned it, goes
  to the results store once (export decodes the label);
* integrate (connected): mark stored results integrated and delete their
  staged images.

Coordination state lives entirely in one append-only task log per
workspace, whose fold gives every task's manifest; a torn last line left by
a kill is dropped on open, and a derived checkpoint lets a run fold only
the records appended since it. A task's files follow from its id, so the log
holds no paths and a workspace may move between runs. That makes every step idempotent and crash
recovery a matter of re-running the batch.
One handle, ``Workspace``, opens a workspace for plan, run, status and
export, and is all that planning and each stage take; only a writer locks
it and writes the checkpoint.
Every thread pool is a ``LocalExecutor``, which returns results in item
order, so the calling thread logs each window's outcomes in task order.
"""

from .manifests import (
    ALLOWED_TRANSITIONS,
    CorruptLine,
    FailureInfo,
    IllegalTransition,
    ManifestStore,
    TaskManifest,
    TaskState,
    TransitionLog,
    task_id_for,
)
from .stages import (
    EmptySelection,
    LocalExecutor,
    plan_batch,
    run_stage_integrate,
    run_stage_prestage,
    run_stage_process,
    validate_payload,
)
from .runner import BatchReport, ResultStore, RunConfig, Workspace, export_batch, run_batch
from .workers import (
    ExternalProcessWorker,
    MockClassifier,
    MockRecognizer,
    NoiseSpec,
    WorkerError,
    WorkerSet,
)

__all__ = [
    "ALLOWED_TRANSITIONS",
    "BatchReport",
    "CorruptLine",
    "EmptySelection",
    "ExternalProcessWorker",
    "FailureInfo",
    "IllegalTransition",
    "LocalExecutor",
    "ManifestStore",
    "MockClassifier",
    "MockRecognizer",
    "NoiseSpec",
    "ResultStore",
    "RunConfig",
    "TaskManifest",
    "TaskState",
    "TransitionLog",
    "WorkerError",
    "WorkerSet",
    "Workspace",
    "export_batch",
    "plan_batch",
    "run_batch",
    "run_stage_integrate",
    "run_stage_prestage",
    "run_stage_process",
    "task_id_for",
    "validate_payload",
]
