"""Staged batch processing of register images.

Each image travels through three stages, mirroring a cluster whose compute
nodes have no internet access:

* pre-stage (connected): check each image and download its bytes into
  staging;
* process (isolated): classify the page and, for list pages, run the
  recognizer and decode its output;
* integrate (connected): validate result payloads and append them to the
  results store exactly once.

Coordination state lives entirely in one append-only task log per
workspace, whose fold gives every task's manifest; a torn last line left by
a kill is dropped on open. A task's files follow from its id, so the log
holds no paths and a workspace may move between runs. That makes every step idempotent and crash
recovery a matter of re-running the batch.
"""

from .manifests import (
    ALLOWED_TRANSITIONS,
    CorruptLine,
    FailureInfo,
    IllegalTransition,
    ManifestStore,
    PipelineContext,
    TaskManifest,
    TaskState,
    TransitionLog,
    task_id_for,
)
from .schedulers import (
    LocalExecutor,
    SchedulerAdapter,
    SimulatedBatchScheduler,
)
from .stages import (
    EmptySelection,
    plan_batch,
    run_stage_integrate,
    run_stage_prestage,
    run_stage_process,
    validate_payload,
)
from .runner import BatchReport, ResultStore, RunConfig, export_batch, run_batch
from .workers import (
    ExternalProcessWorker,
    MockClassifier,
    MockRecognizer,
    NoiseSpec,
    WorkerError,
    WorkerSet,
    mock_worker_set,
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
    "PipelineContext",
    "ResultStore",
    "RunConfig",
    "SchedulerAdapter",
    "SimulatedBatchScheduler",
    "TaskManifest",
    "TaskState",
    "TransitionLog",
    "WorkerError",
    "WorkerSet",
    "export_batch",
    "mock_worker_set",
    "plan_batch",
    "run_batch",
    "run_stage_integrate",
    "run_stage_prestage",
    "run_stage_process",
    "task_id_for",
    "validate_payload",
]
