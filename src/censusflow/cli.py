"""Unified command line: ingest -> check-images -> plan/run -> evaluate -> export.

Every setting is a flag, so a command line states all that its job ran
with; a default that the library already has (``RunConfig``'s fields,
``ingest.DEFAULT_*``) is the flag's default.

Exit codes: 0 success, 1 operational failure (failed tasks, unmet deadline,
no matching data, a file that cannot be read or written), 2 usage error.
Every command that writes accepts ``--dry-run`` to print its plan without
writing anything.
"""

from __future__ import annotations

import json
import logging
import math
import shlex
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

import click

from . import __version__, fixtures, iiif, ingest, metrics, simulate as simulate_mod
from .domain import CorruptLine, MalformedFixture, UnserializablePage, write_fixture
from .pipeline import (
    EmptySelection,
    ExternalProcessWorker,
    LocalExecutor,
    RunConfig,
    TaskState,
    WorkerSet,
    plan_batch,
    run_batch,
)
from .pipeline.manifests import WorkspaceBusy
from .pipeline.runner import STAGES, UnknownImage, Workspace, state_counts
from .pipeline.stages import payload_transcript, select_images
from .pipeline.workers import MockClassifier, MockRecognizer, NoiseSpec


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# The operational failures of every command: each prints one error line
# and exits 1 (``_Main``). ``OSError`` covers a file a command cannot read
# or write, such as an output path whose directory is missing.
_OPERATIONAL_ERRORS = (CorruptLine, WorkspaceBusy, EmptySelection, UnknownImage,
                       MalformedFixture, UnserializablePage, metrics.NoMatchingPages,
                       simulate_mod.Infeasible, OSError)


class _Main(click.Group):
    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except _OPERATIONAL_ERRORS as exc:
            _fail(str(exc))


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
@click.option("--seed", type=int, default=0, show_default=True, help="Global seed.")
@click.option("-v", "--verbose", count=True, help="Increase log verbosity (-v, -vv).")
@click.pass_context
def main(ctx: click.Context, seed: int, verbose: int):
    """Batch tools for handwritten census table processing."""
    _setup_logging(verbose)
    ctx.obj = seed


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _echo_counts(counts: dict[str, int]) -> None:
    for state, count in counts.items():
        if count:
            click.echo(f"{state:>11}: {count}")


# ---------------------------------------------------------------------------
# Spec parsing helpers
# ---------------------------------------------------------------------------


def parse_stage_spec(spec: str) -> simulate_mod.StageModel:
    """``name:service_s:workers[:distribution[:cv]]``; workers may be ``?``."""
    parts = spec.split(":")
    if not 3 <= len(parts) <= 5:
        raise click.BadParameter(
            f"stage spec is name:time:workers[:distribution[:cv]], got {spec!r}")
    name, time_s, workers = parts[0], parts[1], parts[2]
    distribution = parts[3] if len(parts) > 3 else "deterministic"
    aliases = {"det": "deterministic", "exp": "exponential", "lognorm": "lognormal"}
    distribution = aliases.get(distribution, distribution)
    try:
        return simulate_mod.StageModel(
            name=name,
            service_time=float(time_s),
            workers=None if workers == "?" else int(workers),
            distribution=distribution,
            cv=float(parts[4]) if len(parts) > 4 else 0.0,
        )
    except (ValueError, simulate_mod.InvalidModel) as exc:
        raise click.BadParameter(str(exc))


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_duration(text: str) -> float:
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text) * unit
    except ValueError:
        raise click.BadParameter(f"bad duration: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"duration must be finite and > 0, got {value}")
    return value


def _parse_kv(spec: str) -> tuple[str, dict[str, str]]:
    kind, _, rest = spec.partition(":")
    options = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise click.BadParameter(f"expected key=value in {spec!r}")
            options[key.strip()] = value.strip()
    return kind.strip(), options


def parse_worker_spec(spec: str, default_seed: int) -> WorkerSet:
    """``mock:seed=7,noise=0.1,drop=0.02,flip=0.05`` or
    ``external:classify=CMD,recognize=CMD``."""
    kind, options = _parse_kv(spec)
    if kind == "mock":
        try:
            noise = NoiseSpec(
                char_substitution=float(options.pop("noise", 0.0)),
                entity_drop=float(options.pop("drop", 0.0)),
                head_flip=float(options.pop("flip", 0.0)),
            )
            seed = int(options.pop("seed", default_seed))
        except ValueError as exc:
            raise click.BadParameter(f"{spec!r}: {exc}")
        if options:
            raise click.BadParameter(f"unknown mock worker options: {sorted(options)}")
        return WorkerSet(MockClassifier(), MockRecognizer(seed, noise))
    if kind == "external":
        classify = options.pop("classify", None)
        recognize = options.pop("recognize", None)
        if options:
            raise click.BadParameter(f"unknown external worker options: {sorted(options)}")
        worker = ExternalProcessWorker(
            shlex.split(classify) if classify else None,
            shlex.split(recognize) if recognize else None,
        )
        return WorkerSet(worker, worker)
    raise click.BadParameter(f"unknown worker kind {kind!r}")


def _threshold_option(ctx: click.Context, param: click.Parameter, value: float):
    """Reject a threshold flag outside [0, 1], NaN included."""
    try:
        return ingest.check_threshold(param.name, value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


# ``run``'s defaults are ``RunConfig``'s own.
_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _source(fixture_root: Optional[str], endpoint_url: Optional[str], api_version: str):
    """``(endpoint, transport)`` of --fixture's images, else of --endpoint, else Nones."""
    if fixture_root:
        url = endpoint_url or "https://fixture.local/iiif"
        return iiif.IiifEndpoint(url, int(api_version)), fixtures.FixtureTransport(fixture_root)
    if endpoint_url:
        return iiif.IiifEndpoint(endpoint_url, int(api_version)), iiif.HttpTransport()
    return None, None


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


@main.command("ingest")
@click.option("--csv", "csv_path", required=True, type=click.Path(exists=True))
@click.option("--mapping", "mapping_path", required=True, type=click.Path(exists=True),
              help="column=ROLE mapping file.")
@click.option("--gazetteer", "gazetteer_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--resolutions", type=click.Path(exists=True), default=None,
              help="Worklist CSV with resolved_code filled in.")
@click.option("--threshold", type=float, default=ingest.DEFAULT_THRESHOLD, show_default=True,
              callback=_threshold_option, help="Fuzzy match threshold.")
@click.option("--auto-threshold", type=float, default=ingest.DEFAULT_AUTO_THRESHOLD,
              show_default=True, callback=_threshold_option, help="Auto-accept threshold.")
@click.option("--dry-run", is_flag=True)
def ingest_cmd(csv_path, mapping_path, gazetteer_path, out_dir, resolutions, threshold,
               auto_threshold, dry_run):
    """Normalize archive CSV metadata into a register registry."""
    try:
        mapping = ingest.load_mapping(mapping_path)
        gazetteer = ingest.load_gazetteer(gazetteer_path)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if not gazetteer:
        _fail(f"gazetteer {gazetteer_path} is empty")
    try:
        rows, diagnostics = ingest.import_csv(csv_path, mapping)
        resolved = ingest.load_resolutions(resolutions) if resolutions else None
    except (ingest.MissingColumn, ingest.EmptyFile) as exc:
        raise click.UsageError(str(exc))
    result = ingest.build_registry(
        rows, gazetteer, resolutions=resolved,
        threshold=threshold, auto_threshold=auto_threshold,
    )
    for line in diagnostics:
        click.echo(f"note: {line}")
    click.echo(
        f"rows: {len(rows)}  registers: {len(result.registry.registers)}  "
        f"images: {result.registry.image_count()}  exceptions: {len(result.exceptions)}  "
        f"ambiguous names: {len(result.ambiguous)}"
    )
    if dry_run:
        click.echo("dry run: nothing written")
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ingest.save_registry(result.registry, out / "registry.ndjson")
    ingest.write_exceptions_csv(result.exceptions, out / "exceptions.csv")
    ingest.write_ambiguous_csv(result.ambiguous, out / "ambiguous.csv")
    click.echo(f"wrote {out / 'registry.ndjson'}")


# ---------------------------------------------------------------------------
# check-images
# ---------------------------------------------------------------------------


@main.command("check-images")
@click.option("--registry", "registry_path", required=True, type=click.Path(exists=True))
@click.option("--endpoint", "endpoint_url", default=None, help="IIIF base URL.")
@click.option("--api-version", type=click.Choice(["2", "3"]), default="2", show_default=True)
@click.option("--concurrency", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--fixture", "fixture_root", type=click.Path(exists=True), default=None,
              help="Serve requests from a synthetic corpus instead of the network.")
@click.option("--fetch-pixels", is_flag=True, help="Also download and sniff the full image.")
@click.option("--dry-run", is_flag=True)
def check_images_cmd(registry_path, endpoint_url, api_version, concurrency, out_path,
                     fixture_root, fetch_pixels, dry_run):
    """Verify presence and integrity of every registry image over IIIF."""
    registry = ingest.load_registry(registry_path)
    images = list(registry.iter_images())
    endpoint, transport = _source(fixture_root, endpoint_url, api_version)
    if endpoint is None:
        raise click.UsageError("--endpoint is required without --fixture")
    click.echo(f"checking {len(images)} images against {endpoint.base_url}")
    if dry_run:
        click.echo("dry run: nothing written")
        return
    with LocalExecutor(concurrency) as pool:
        results = pool.run("check", images, lambda image: iiif.check_integrity(
            endpoint, image, transport, fetch_pixels=fetch_pixels))
    iiif.write_results_csv(results, out_path)
    bad = [r for r in results if r.status is not iiif.IntegrityStatus.OK]
    click.echo(f"ok: {len(results) - len(bad)}  problems: {len(bad)}  ->  {out_path}")
    if bad:
        sys.exit(1)


# ---------------------------------------------------------------------------
# gen-fixtures
# ---------------------------------------------------------------------------


@main.command("gen-fixtures")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--registers", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--list-pages-min", type=click.IntRange(min=0), default=2, show_default=True)
@click.option("--list-pages-max", type=click.IntRange(min=0), default=4, show_default=True)
@click.option("--rows-min", type=int, default=25, show_default=True)
@click.option("--rows-max", type=int, default=36, show_default=True)
@click.option("--household-mean", type=float, default=4.0, show_default=True)
# Each register has three pages besides its lists, so a budget of four
# images is the least that yields a register.
@click.option("--limit-images", type=click.IntRange(min=4), default=None,
              help="Stop after roughly N images.")
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def gen_fixtures_cmd(seed: int, out_dir, registers, list_pages_min, list_pages_max,
                     rows_min, rows_max, household_mean, limit_images, dry_run):
    """Generate a synthetic archive corpus (registry, images, ground truth)."""
    from .label_codec import InvalidProfile, SyntheticProfile

    if list_pages_min > list_pages_max:
        raise click.UsageError(
            f"--list-pages-min {list_pages_min} exceeds --list-pages-max {list_pages_max}")
    try:
        profile = SyntheticProfile(
            min_rows=rows_min, max_rows=rows_max, household_size_mean=household_mean
        )
    except InvalidProfile as exc:
        raise click.UsageError(str(exc))
    click.echo(
        f"generating corpus: registers={registers} list_pages=[{list_pages_min},{list_pages_max}] "
        f"rows=[{rows_min},{rows_max}] seed={seed}"
    )
    if dry_run:
        click.echo("dry run: nothing written")
        return
    info = fixtures.generate_corpus(
        out_dir,
        registers=registers,
        seed=seed,
        list_pages_min=list_pages_min,
        list_pages_max=list_pages_max,
        profile=profile,
        limit_images=limit_images,
    )
    click.echo(f"wrote {info.image_count} images under {info.root}")


# ---------------------------------------------------------------------------
# plan / run / status / export
# ---------------------------------------------------------------------------


@main.command("plan")
@click.option("--registry", "registry_path", required=True, type=click.Path(exists=True))
@click.option("--workspace", required=True, type=click.Path())
@click.option("--year", type=int, default=None)
@click.option("--commune", "commune_code", default=None)
@click.option("--register-id", default=None)
@click.option("--limit", type=click.IntRange(min=1), default=None)
@click.option("--dry-run", is_flag=True)
def plan_cmd(registry_path, workspace, dry_run, **selection):
    """Create PENDING task manifests for selected registry images; a run
    works on every task planned. Plan is a writer, as run is: it exits 1
    while another plan or run writes, and leaves a checkpoint."""
    registry = ingest.load_registry(registry_path)
    # An empty selection exits before the lock creates the workspace.
    count = len(select_images(registry, **selection))
    if dry_run:
        click.echo(f"dry run: would plan {count} tasks under {workspace}")
        return
    with Workspace(workspace, writer=True) as ws:
        manifests = plan_batch(registry, ws, **selection)
    pending = state_counts(manifests)[TaskState.PENDING.value]
    click.echo(f"planned {len(manifests)} tasks ({pending} pending) under {workspace}")


@main.command("run")
@click.option("--workspace", required=True, type=click.Path())
@click.option("--fixture", "fixture_root", type=click.Path(exists=True), default=None,
              help="Serve pre's images from a synthetic corpus instead of the network.")
@click.option("--endpoint", "endpoint_url", default=None, help="IIIF base URL, for pre.")
@click.option("--api-version", type=click.Choice(["2", "3"]), default="2", show_default=True)
@click.option("--stages", default="pre,proc,post", show_default=True,
              help="Comma-separated subset of pre,proc,post to run on each window; "
                   "households.csv is exported only when post runs.")
@click.option("--workers", "worker_spec", default="mock:seed=0", show_default=True)
@click.option("--proc-threads", type=click.IntRange(min=1), default=4, show_default=True,
              help="Pages the process stage works on at once.")
@click.option("--window", type=int, default=_RUN_DEFAULTS["window"], show_default=True,
              help="Max in-flight tasks per round.")
@click.option("--retry-limit", type=int, default=_RUN_DEFAULTS["retry_limit"], show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=_RUN_DEFAULTS["prestage_concurrency"],
              show_default=True, help="Pre-stage download threads.")
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def run_cmd(seed: int, workspace, fixture_root, endpoint_url, api_version, stages,
            worker_spec, proc_threads, window, retry_limit, jobs, dry_run):
    """Drive the tasks that ``censusflow plan`` planned through the
    pre-stage, process and integrate stages.

    Only pre needs --fixture or --endpoint: a compute-node job is ``run
    --workspace ws --stages proc``. Exits 1 if nothing is planned, and at
    once while another plan or run holds the workspace's writer lock.
    """
    stage_set = {s.strip() for s in stages.split(",") if s.strip()}
    if "pre" in stage_set and not (fixture_root or endpoint_url):
        raise click.UsageError("the pre stage downloads: give --fixture or --endpoint")
    endpoint, transport = _source(fixture_root, endpoint_url, api_version)

    workers = parse_worker_spec(worker_spec, seed)
    with LocalExecutor(proc_threads) as scheduler:
        try:
            run_config = RunConfig(
                workspace=workspace, endpoint=endpoint, transport=transport,
                workers=workers, scheduler=scheduler, prestage_concurrency=jobs,
                retry_limit=retry_limit, window=window, stages=stage_set,
            )
        except ValueError as exc:
            raise click.UsageError(str(exc))
        run_config.check_planned()

        click.echo(f"run: workspace={workspace} "
                   f"stages={','.join(s for s in STAGES if s in run_config.stages)} "
                   f"workers={worker_spec} proc-threads={proc_threads} jobs={jobs} "
                   f"window={window} retry-limit={retry_limit} seed={seed}")
        if dry_run:
            click.echo("dry run: nothing executed")
            return
        report = run_batch(run_config)
    _echo_counts(report.counts)
    if report.households_csv:
        click.echo(
            f"households: {report.households_exported} people over "
            f"{report.registers_exported} registers -> {report.households_csv} "
            f"({report.registers_skipped} registers incomplete)"
        )
    if not report.succeeded:
        for task_id, stage, reason in report.failed_tasks:
            click.echo(f"FAILED {task_id} at {stage}: {reason}", err=True)
        sys.exit(1)


@main.command("status")
@click.option("--workspace", required=True, type=click.Path(exists=True))
def status_cmd(workspace):
    """Per-state task counts for a batch workspace.

    Reads the task log from its checkpoint on (``Workspace.tasks``) and
    writes nothing; a log line that is not a transition record exits 1.
    """
    with Workspace(workspace) as ws:
        manifests = [ws.tasks[task_id] for task_id in sorted(ws.tasks)]
    click.echo(f"tasks: {len(manifests)}")
    _echo_counts(state_counts(manifests))
    for m in manifests:
        if m.state is TaskState.FAILED and m.failure:
            click.echo(f"FAILED {m.task_id} at {m.failure.stage}: {m.failure.reason}")


@main.command("export")
@click.option("--workspace", required=True, type=click.Path(exists=True))
@click.option("--households", "households_path", type=click.Path(), default=None)
@click.option("--pages", "pages_dir", type=click.Path(), default=None,
              help="Also dump integrated transcripts as fixture pages.")
@click.option("--dry-run", is_flag=True)
def export_cmd(workspace, households_path, pages_dir, dry_run):
    """Export merged households (and optionally transcripts) from the
    workspace registry and the result store, without reading the task log.

    Opens the store from the checkpoint's store section, as ``status`` folds
    the log, and writes nothing in the workspace. Each page's label is
    decoded leniently. A store line that is not JSON, or whose record does
    not fit the result schema, exits 1 with one error naming its byte
    offset; so does a store written by an earlier version, which holds
    decoded transcripts instead. Pages already written for earlier
    registers stay.
    """
    if not households_path and not pages_dir:
        raise click.UsageError("nothing to export: pass --households and/or --pages")
    with Workspace(workspace) as ws:
        if not ws.registry_file.exists():
            _fail(f"no {ws.registry_file.name} in {workspace}: run `censusflow plan --registry R "
                  f"--workspace {workspace}` with the registry and selection it was planned with")
        store = ws.store
        if dry_run:
            click.echo(f"dry run: {len(store)} stored results over "
                       f"{len(ws.registry.registers)} registers")
            return
        if households_path:
            exported, skipped, people = ws.export(households_path)
            click.echo(f"wrote {people} people / {exported} registers to "
                       f"{households_path} ({skipped} registers incomplete)")
        if pages_dir:
            out = Path(pages_dir)
            out.mkdir(parents=True, exist_ok=True)
            count = 0
            for register_id in store.pages:
                for payload in store.payloads(register_id):
                    transcript = payload_transcript(payload)
                    if transcript is not None:
                        name = transcript.page_id.replace("/", "__") + ".txt"
                        write_fixture([transcript], out / name)
                        count += 1
            click.echo(f"wrote {count} transcript pages to {pages_dir}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@main.command("evaluate")
@click.option("--truth", "truth_dir", required=True, type=click.Path(exists=True))
@click.option("--pred", "pred_dir", required=True, type=click.Path(exists=True))
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--dry-run", is_flag=True)
def evaluate_cmd(truth_dir, pred_dir, json_path, dry_run):
    """Score predicted transcript pages against ground truth."""
    if dry_run:
        names = sorted(p.name for p in Path(truth_dir).glob("*.txt"))
        click.echo(f"dry run: would evaluate {len(names)} truth files against {pred_dir}")
        return
    report = metrics.evaluate_corpus(truth_dir, pred_dir)
    click.echo(metrics.format_corpus_report(report))
    if json_path:
        Path(json_path).write_text(
            json.dumps(metrics.corpus_report_json(report), indent=2, sort_keys=True), "utf-8"
        )
        click.echo(f"wrote {json_path}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command("simulate")
@click.option("--images", "n_images", required=True, type=int)
@click.option("--stage", "stage_specs", multiple=True, required=True,
              help="name:service_s:workers, workers may be ? (repeatable).")
@click.option("--deadline", default=None, help="e.g. 691200, 8d, 192h.")
@click.option("--mode", type=click.Choice(["pipelined", "sequential"]), default="pipelined",
              show_default=True)
@click.option("--cap", type=click.IntRange(min=1), default=4096, show_default=True,
              help="Max workers considered when solving for ?.")
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def simulate_cmd(seed: int, n_images, stage_specs, deadline, mode, cap,
                 json_path, dry_run):
    """Simulate batch throughput; solve for an unknown worker count."""
    stages = [parse_stage_spec(s) for s in stage_specs]
    deadline_s = parse_duration(deadline) if deadline else None
    unknown = [s for s in stages if s.workers is None]
    if dry_run:
        click.echo(
            f"dry run: images={n_images} stages={len(stages)} mode={mode} "
            f"unknown workers={len(unknown)}"
        )
        return
    try:
        if unknown:
            if not deadline:
                raise click.UsageError("a stage has workers '?': --deadline is required")
            count = simulate_mod.min_workers_for_deadline(
                n_images, stages, deadline_s, seed=seed, mode=mode, cap=cap
            )
            stages[stages.index(unknown[0])] = replace(unknown[0], workers=count)
            click.echo(f"minimum workers for {unknown[0].name}: {count}")
        result = simulate_mod.simulate(n_images, stages, seed=seed, mode=mode)
    except simulate_mod.InvalidModel as exc:
        raise click.UsageError(str(exc))
    click.echo(simulate_mod.format_report(result, stages))
    if deadline:
        verdict = "meets" if result.makespan <= deadline_s else "MISSES"
        click.echo(f"deadline {deadline_s:,.0f} s: {verdict} ({result.makespan:,.1f} s)")
        if result.makespan > deadline_s:
            sys.exit(1)
    if json_path:
        Path(json_path).write_text(
            json.dumps(result.to_json_dict(), indent=2, sort_keys=True), "utf-8"
        )
        click.echo(f"wrote {json_path}")


if __name__ == "__main__":
    main()
