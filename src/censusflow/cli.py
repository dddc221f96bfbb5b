"""Unified command line: ingest -> check-images -> plan/run -> evaluate -> export.

Exit codes: 0 success, 1 operational failure (failed tasks, unmet deadline,
no matching data), 2 usage or configuration error. Every subcommand accepts
``--dry-run`` to print its plan without writing anything.
"""

from __future__ import annotations

import json
import logging
import math
import shlex
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import click

from . import __version__, fixtures, iiif, ingest, metrics, simulate as simulate_mod
from .domain import MalformedFixture, write_fixture
from .pipeline import (
    EmptySelection,
    ExternalProcessWorker,
    LocalExecutor,
    RunConfig,
    TaskState,
    WorkerSet,
    export_batch,
    plan_batch,
    run_batch,
)
from .pipeline.manifests import CorruptLine, WorkspaceBusy
from .pipeline.runner import STAGES, Workspace, state_counts
from .pipeline.stages import payload_transcript, select_images
from .pipeline.workers import MockClassifier, MockRecognizer, NoiseSpec


class ConfigInvalid(click.UsageError):
    pass


_CONFIG_KEYS = {
    "seed": None,
    "verbosity": None,
    "ingest": {"threshold", "auto_threshold"},
    "pipeline": {"prestage_concurrency", "retry_limit", "window"},
    "simulate": {"mode"},
}

# The types of a section's values, and how an error names them.
_CONFIG_KINDS = {"ingest": ((int, float), "a number"), "pipeline": (int, "an integer")}


@dataclass
class GlobalConfig:
    seed: int = 0
    verbosity: int = 0
    ingest: dict = field(default_factory=dict)
    pipeline: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)


def load_config(path: Optional[str]) -> GlobalConfig:
    config = GlobalConfig()
    if path is None:
        return config
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigInvalid("config must be a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ConfigInvalid(f"unknown config key {key!r}")
        allowed = _CONFIG_KEYS[key]
        if allowed is not None:
            if not isinstance(value, dict):
                raise ConfigInvalid(f"config section {key!r} must be an object")
            for sub, item in value.items():
                if sub not in allowed:
                    raise ConfigInvalid(f"unknown config key {key}.{sub}")
                kinds = _CONFIG_KINDS.get(key)
                if kinds is not None and (type(item) is bool or not isinstance(item, kinds[0])):
                    raise ConfigInvalid(f"config key {key}.{sub} must be {kinds[1]}, "
                                        f"got {item!r}")
                if key == "ingest":
                    try:
                        ingest.check_threshold(f"config key {key}.{sub}", item)
                    except ValueError as exc:
                        raise ConfigInvalid(str(exc))
            setattr(config, key, dict(value))
        else:
            setattr(config, key, value)
    return config


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
@click.option("--config", "config_path", type=click.Path(), default=None, help="JSON config file.")
@click.option("--seed", type=int, default=None, help="Global seed (overrides the config).")
@click.option("-v", "--verbose", count=True, help="Increase log verbosity (-v, -vv).")
@click.pass_context
def main(ctx: click.Context, config_path: Optional[str], seed: Optional[int], verbose: int):
    """Batch tools for handwritten census table processing."""
    config = load_config(config_path)
    if seed is not None:
        config.seed = seed
    config.verbosity = max(config.verbosity or 0, verbose)
    _setup_logging(config.verbosity)
    ctx.obj = config


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


def parse_scheduler_spec(spec: str) -> LocalExecutor:
    """``local`` or ``local:n=4``: how many pages the process stage works on
    at once."""
    kind, options = _parse_kv(spec)
    if kind != "local":
        raise click.BadParameter(f"unknown scheduler kind {kind!r}")
    n = options.pop("n", "4")
    if options:
        raise click.BadParameter(f"unknown {kind} scheduler options: {sorted(options)}")
    try:
        return LocalExecutor(int(n))
    except ValueError as exc:
        raise click.BadParameter(f"{spec!r}: {exc}")


def _threshold_option(ctx: click.Context, param: click.Parameter, value: Optional[float]):
    """Reject a threshold flag outside [0, 1], NaN included."""
    if value is None:
        return None
    try:
        return ingest.check_threshold(param.name, value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _fixture_setup(fixture_root: str, endpoint_url: Optional[str], api_version: int):
    registry = ingest.load_registry(Path(fixture_root) / "registry.ndjson")
    endpoint = iiif.IiifEndpoint(endpoint_url or "https://fixture.local/iiif", api_version)
    return registry, endpoint, fixtures.FixtureTransport(fixture_root)


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
@click.option("--threshold", type=float, default=None, callback=_threshold_option,
              help=f"Fuzzy match threshold [default: config, else {ingest.DEFAULT_THRESHOLD}]")
@click.option("--auto-threshold", type=float, default=None, callback=_threshold_option,
              help=f"Auto-accept threshold [default: config, else {ingest.DEFAULT_AUTO_THRESHOLD}]")
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def ingest_cmd(config: GlobalConfig, csv_path, mapping_path, gazetteer_path, out_dir,
               resolutions, threshold, auto_threshold, dry_run):
    """Normalize archive CSV metadata into a register registry."""
    if threshold is None:
        threshold = config.ingest.get("threshold", ingest.DEFAULT_THRESHOLD)
    if auto_threshold is None:
        auto_threshold = config.ingest.get("auto_threshold", ingest.DEFAULT_AUTO_THRESHOLD)
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
    if fixture_root:
        _, endpoint, transport = _fixture_setup(fixture_root, endpoint_url, int(api_version))
    else:
        if not endpoint_url:
            raise click.UsageError("--endpoint is required without --fixture")
        endpoint = iiif.IiifEndpoint(endpoint_url, int(api_version))
        transport = iiif.HttpTransport()
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
def gen_fixtures_cmd(config: GlobalConfig, out_dir, registers, list_pages_min, list_pages_max,
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
        f"rows=[{rows_min},{rows_max}] seed={config.seed}"
    )
    if dry_run:
        click.echo("dry run: nothing written")
        return
    info = fixtures.generate_corpus(
        out_dir,
        registers=registers,
        seed=config.seed,
        list_pages_min=list_pages_min,
        list_pages_max=list_pages_max,
        profile=profile,
        limit_images=limit_images,
    )
    click.echo(f"wrote {info.image_count} images under {info.root}")


# ---------------------------------------------------------------------------
# plan / run / status / export
# ---------------------------------------------------------------------------


def _selection_options(command):
    """``plan``'s and ``run``'s image selection, added last first (--help order)."""
    for option in (click.option("--limit", type=click.IntRange(min=1), default=None),
                   click.option("--register-id", default=None),
                   click.option("--commune", "commune_code", default=None),
                   click.option("--year", type=int, default=None)):
        command = option(command)
    return command


@main.command("plan")
@click.option("--registry", "registry_path", required=True, type=click.Path(exists=True))
@click.option("--workspace", required=True, type=click.Path())
@_selection_options
@click.option("--dry-run", is_flag=True)
def plan_cmd(registry_path, workspace, dry_run, **selection):
    """Create PENDING task manifests for selected registry images.

    A later run plans its own selection: give it the same --year, --commune,
    --register-id and --limit, or it plans every image. Plan is a writer, as
    run is: it exits 1 while another plan or run writes, and leaves a checkpoint.
    """
    registry = ingest.load_registry(registry_path)
    try:
        # An empty selection exits before the lock creates the workspace.
        count = len(select_images(registry, **selection))
        if dry_run:
            click.echo(f"dry run: would plan {count} tasks under {workspace}")
            return
        with Workspace.open(workspace, writer=True) as ws:
            manifests = plan_batch(registry, ws, **selection)
    except (EmptySelection, WorkspaceBusy, CorruptLine) as exc:
        _fail(str(exc))
    pending = state_counts(manifests)[TaskState.PENDING.value]
    click.echo(f"planned {len(manifests)} tasks ({pending} pending) under {workspace}")


@main.command("run")
@click.option("--workspace", required=True, type=click.Path())
@click.option("--fixture", "fixture_root", type=click.Path(exists=True), default=None,
              help="Synthetic corpus directory (registry + fixture transport).")
@click.option("--registry", "registry_path", type=click.Path(exists=True), default=None)
@click.option("--endpoint", "endpoint_url", default=None)
@click.option("--api-version", type=click.Choice(["2", "3"]), default="2", show_default=True)
@click.option("--stages", default="pre,proc,post", show_default=True,
              help="Comma-separated subset of pre,proc,post to run on each window; "
                   "households.csv is exported only when post runs.")
@click.option("--workers", "worker_spec", default="mock:seed=0", show_default=True)
@click.option("--scheduler", "scheduler_spec", default="local:n=4", show_default=True)
@click.option("--window", type=int, default=None, help="Max in-flight tasks per round.")
@click.option("--retry-limit", type=int, default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="Cap on pre-stage download concurrency.")
@_selection_options
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def run_cmd(config: GlobalConfig, workspace, fixture_root, registry_path, endpoint_url,
            api_version, stages, worker_spec, scheduler_spec, window, retry_limit,
            jobs, dry_run, **selection):
    """Drive tasks through the pre-stage, process and integrate stages.

    Exits 1 at once while another plan or run holds the workspace's writer
    lock.
    """
    if fixture_root:
        registry, endpoint, transport = _fixture_setup(fixture_root, endpoint_url, int(api_version))
    elif registry_path and endpoint_url:
        registry = ingest.load_registry(registry_path)
        endpoint = iiif.IiifEndpoint(endpoint_url, int(api_version))
        transport = iiif.HttpTransport()
    else:
        raise click.UsageError("need --fixture, or --registry together with --endpoint")

    workers = parse_worker_spec(worker_spec, config.seed)
    pipeline_cfg = config.pipeline
    prestage_concurrency = pipeline_cfg.get("prestage_concurrency", 14)
    if jobs is not None:
        prestage_concurrency = min(prestage_concurrency, jobs)
    with parse_scheduler_spec(scheduler_spec) as scheduler:
        try:
            run_config = RunConfig(
                workspace=Path(workspace),
                registry=registry,
                endpoint=endpoint,
                transport=transport,
                workers=workers,
                scheduler=scheduler,
                prestage_concurrency=prestage_concurrency,
                retry_limit=retry_limit if retry_limit is not None else pipeline_cfg.get("retry_limit", 3),
                window=window if window is not None else pipeline_cfg.get("window", 64),
                stages={s.strip() for s in stages.split(",") if s.strip()},
                **selection,
            )
        except ValueError as exc:
            raise click.UsageError(str(exc))
        try:
            images = len(select_images(registry, **selection))
        except EmptySelection as exc:
            _fail(str(exc))

        click.echo(
            f"run: images={images} "
            f"stages={','.join(s for s in STAGES if s in run_config.stages)} "
            f"workers={worker_spec} scheduler={scheduler_spec} seed={config.seed}"
        )
        if dry_run:
            click.echo("dry run: nothing executed")
            return
        try:
            report = run_batch(run_config)
        except (WorkspaceBusy, CorruptLine) as exc:
            _fail(str(exc))
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
    try:
        with Workspace.open(workspace, writer=False) as ws:
            manifests = [ws.tasks[task_id] for task_id in sorted(ws.tasks)]
    except CorruptLine as exc:
        _fail(str(exc))
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
    with Workspace.open(workspace, writer=False) as ws:
        if not ws.registry_file.exists():
            _fail(f"no {ws.registry_file.name} in {workspace}: run `censusflow plan --registry R "
                  f"--workspace {workspace}` with the registry and selection it was planned with")
        registry = ingest.load_registry(ws.registry_file)
        try:
            store = ws.store
            if dry_run:
                click.echo(f"dry run: {len(store)} stored results over "
                           f"{len(registry.registers)} registers")
                return
            if households_path:
                exported, skipped, people = export_batch(registry, store, households_path)
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
        except CorruptLine as exc:
            _fail(str(exc))


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
    try:
        report = metrics.evaluate_corpus(truth_dir, pred_dir)
    except (metrics.NoMatchingPages, MalformedFixture) as exc:
        _fail(str(exc))
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
@click.option("--mode", type=click.Choice(["pipelined", "sequential"]), default=None)
@click.option("--cap", type=click.IntRange(min=1), default=4096, show_default=True,
              help="Max workers considered when solving for ?.")
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def simulate_cmd(config: GlobalConfig, n_images, stage_specs, deadline, mode, cap,
                 json_path, dry_run):
    """Simulate batch throughput; solve for an unknown worker count."""
    stages = [parse_stage_spec(s) for s in stage_specs]
    deadline_s = parse_duration(deadline) if deadline else None
    mode = mode or config.simulate.get("mode", "pipelined")
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
                n_images, stages, deadline_s, seed=config.seed, mode=mode, cap=cap
            )
            stages[stages.index(unknown[0])] = replace(unknown[0], workers=count)
            click.echo(f"minimum workers for {unknown[0].name}: {count}")
        result = simulate_mod.simulate(n_images, stages, seed=config.seed, mode=mode)
    except simulate_mod.Infeasible as exc:
        _fail(str(exc))
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
