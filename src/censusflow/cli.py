"""Unified command line: ingest -> check-images -> plan/run -> evaluate -> export.

Exit codes: 0 success, 1 operational failure (failed tasks, unmet deadline,
no matching data), 2 usage or configuration error. Every subcommand accepts
``--dry-run`` to print its plan without writing anything.
"""

from __future__ import annotations

import json
import logging
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import click

from . import __version__, fixtures, iiif, ingest, metrics, simulate as simulate_mod
from .pipeline import (
    EmptySelection,
    ExternalProcessWorker,
    LocalExecutor,
    ManifestStore,
    PipelineContext,
    ResultStore,
    RunConfig,
    SimulatedBatchScheduler,
    TaskState,
    WorkerSet,
    export_batch,
    plan_batch,
    run_batch,
    run_stage_integrate,
    run_stage_prestage,
    run_stage_process,
)
from .pipeline.runner import registry_from_manifests
from .pipeline.workers import MockClassifier, MockRecognizer, NoiseSpec


class ConfigInvalid(click.UsageError):
    pass


_CONFIG_KEYS = {
    "workspace": None,
    "seed": None,
    "verbosity": None,
    "ingest": {"threshold", "auto_threshold"},
    "pipeline": {"prestage_concurrency", "retry_limit", "window"},
    "simulate": {"mode"},
}


@dataclass
class GlobalConfig:
    workspace: Optional[str] = None
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
            for sub in value:
                if sub not in allowed:
                    raise ConfigInvalid(f"unknown config key {key}.{sub}")
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


# ---------------------------------------------------------------------------
# Spec parsing helpers
# ---------------------------------------------------------------------------


def parse_stage_spec(spec: str) -> simulate_mod.StageModel:
    """``name:service_s:workers[:distribution[:cv]]``; workers may be ``?``."""
    parts = spec.split(":")
    if len(parts) < 3:
        raise click.BadParameter(f"stage spec needs name:time:workers, got {spec!r}")
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
    if value <= 0:
        raise click.BadParameter("duration must be > 0")
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
        noise = NoiseSpec(
            char_substitution=float(options.pop("noise", 0.0)),
            entity_drop=float(options.pop("drop", 0.0)),
            head_flip=float(options.pop("flip", 0.0)),
        )
        seed = int(options.pop("seed", default_seed))
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


def parse_scheduler_spec(spec: str):
    """``local:n=4`` or ``simulated:nodes=2``."""
    kind, options = _parse_kv(spec)
    if kind == "local":
        return LocalExecutor(workers=int(options.get("n", options.get("workers", 4))))
    if kind == "simulated":
        return SimulatedBatchScheduler(nodes=int(options.get("nodes", options.get("n", 1))))
    raise click.BadParameter(f"unknown scheduler kind {kind!r}")


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
@click.option("--threshold", type=float, default=ingest.DEFAULT_THRESHOLD, show_default=True)
@click.option("--auto-threshold", type=float, default=ingest.DEFAULT_AUTO_THRESHOLD,
              show_default=True)
@click.option("--dry-run", is_flag=True)
def ingest_cmd(csv_path, mapping_path, gazetteer_path, out_dir, resolutions,
               threshold, auto_threshold, dry_run):
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
    except (ingest.MissingColumn, ingest.EmptyFile) as exc:
        raise click.UsageError(str(exc))
    resolved = ingest.load_resolutions(resolutions) if resolutions else None
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
@click.option("--concurrency", type=int, default=8, show_default=True)
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
    results = iiif.check_batch(
        endpoint, images, transport, concurrency=concurrency, fetch_pixels=fetch_pixels
    )
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
@click.option("--registers", type=int, default=3, show_default=True)
@click.option("--list-pages-min", type=int, default=2, show_default=True)
@click.option("--list-pages-max", type=int, default=4, show_default=True)
@click.option("--rows-min", type=int, default=25, show_default=True)
@click.option("--rows-max", type=int, default=36, show_default=True)
@click.option("--household-mean", type=float, default=4.0, show_default=True)
@click.option("--limit-images", type=int, default=None, help="Stop after roughly N images.")
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def gen_fixtures_cmd(config: GlobalConfig, out_dir, registers, list_pages_min, list_pages_max,
                     rows_min, rows_max, household_mean, limit_images, dry_run):
    """Generate a synthetic archive corpus (registry, images, ground truth)."""
    from .label_codec import SyntheticProfile

    profile = SyntheticProfile(
        min_rows=rows_min, max_rows=rows_max, household_size_mean=household_mean
    )
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


@main.command("plan")
@click.option("--registry", "registry_path", required=True, type=click.Path(exists=True))
@click.option("--workspace", required=True, type=click.Path())
@click.option("--year", type=int, default=None)
@click.option("--commune", "commune_code", default=None)
@click.option("--register-id", default=None)
@click.option("--limit", type=int, default=None)
@click.option("--dry-run", is_flag=True)
def plan_cmd(registry_path, workspace, year, commune_code, register_id, limit, dry_run):
    """Create PENDING task manifests for selected registry images."""
    registry = ingest.load_registry(registry_path)
    if dry_run:
        count = 0
        for register in registry.registers:
            meta = register.metadata
            if year is not None and meta.census_year != year:
                continue
            if commune_code is not None and meta.commune.code != commune_code:
                continue
            if register_id is not None and meta.register_id != register_id:
                continue
            count += len(register.images)
        if limit is not None:
            count = min(count, limit)
        if count == 0:
            _fail("no images match the given filter")
        click.echo(f"dry run: would plan {count} tasks under {workspace}")
        return
    ctx = PipelineContext.at(workspace)
    try:
        manifests = plan_batch(
            registry, ctx, year=year, commune_code=commune_code,
            register_id=register_id, limit=limit,
        )
    except EmptySelection as exc:
        _fail(str(exc))
    pending = sum(1 for m in manifests if m.state is TaskState.PENDING)
    click.echo(f"planned {len(manifests)} tasks ({pending} pending) under {workspace}")


@main.command("run")
@click.option("--workspace", required=True, type=click.Path())
@click.option("--fixture", "fixture_root", type=click.Path(exists=True), default=None,
              help="Synthetic corpus directory (registry + fixture transport).")
@click.option("--registry", "registry_path", type=click.Path(exists=True), default=None)
@click.option("--endpoint", "endpoint_url", default=None)
@click.option("--api-version", type=click.Choice(["2", "3"]), default="2", show_default=True)
@click.option("--stages", default="pre,proc,post", show_default=True,
              help="Comma-separated subset of pre,proc,post; the full set loops to completion.")
@click.option("--workers", "worker_spec", default="mock:seed=0", show_default=True)
@click.option("--scheduler", "scheduler_spec", default="local:n=4", show_default=True)
@click.option("--window", type=int, default=None, help="Max in-flight tasks per round.")
@click.option("--retry-limit", type=int, default=None)
@click.option("--jobs", type=int, default=None, help="Cap on total parallelism.")
@click.option("--limit", type=int, default=None)
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def run_cmd(config: GlobalConfig, workspace, fixture_root, registry_path, endpoint_url,
            api_version, stages, worker_spec, scheduler_spec, window, retry_limit,
            jobs, limit, dry_run):
    """Drive tasks through the pre-stage, process and integrate stages."""
    if fixture_root:
        registry, endpoint, transport = _fixture_setup(fixture_root, endpoint_url, int(api_version))
    elif registry_path and endpoint_url:
        registry = ingest.load_registry(registry_path)
        endpoint = iiif.IiifEndpoint(endpoint_url, int(api_version))
        transport = iiif.HttpTransport()
    else:
        raise click.UsageError("need --fixture, or --registry together with --endpoint")

    workers = parse_worker_spec(worker_spec, config.seed)
    scheduler = parse_scheduler_spec(scheduler_spec)
    pipeline_cfg = config.pipeline
    prestage_concurrency = pipeline_cfg.get("prestage_concurrency", 14)
    if jobs is not None:
        prestage_concurrency = min(prestage_concurrency, jobs)

    wanted = [s.strip() for s in stages.split(",") if s.strip()]
    unknown = set(wanted) - {"pre", "proc", "post"}
    if unknown:
        raise click.UsageError(f"unknown stages: {sorted(unknown)}")

    click.echo(
        f"run: images={registry.image_count()} stages={','.join(wanted)} "
        f"workers={worker_spec} scheduler={scheduler_spec} seed={config.seed}"
    )
    if dry_run:
        click.echo("dry run: nothing executed")
        return

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
        limit=limit,
    )

    if set(wanted) == {"pre", "proc", "post"}:
        try:
            report = run_batch(run_config)
        except EmptySelection as exc:
            _fail(str(exc))
        for state, count in sorted(report.counts.items()):
            if count:
                click.echo(f"{state:>11}: {count}")
        for stage, latency in report.stage_latencies.items():
            click.echo(f"mean {stage} latency: {latency:.3f} s")
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
        return

    ctx = PipelineContext.at(workspace)
    try:
        manifests = plan_batch(registry, ctx, limit=limit)
    except EmptySelection as exc:
        _fail(str(exc))
    if "pre" in wanted:
        run_stage_prestage(
            manifests, ctx, endpoint=endpoint, transport=transport,
            staging_dir=run_config.staging_dir, concurrency=prestage_concurrency,
        )
    if "proc" in wanted:
        run_stage_process(
            manifests, ctx, workers=workers, scheduler=scheduler,
            results_dir=run_config.results_dir, retry_limit=run_config.retry_limit,
        )
    if "post" in wanted:
        store = ResultStore(run_config.store_path)
        run_stage_integrate(manifests, ctx, results_store=store)
    failed = [m for m in manifests if m.state is TaskState.FAILED]
    counts: dict[str, int] = {}
    for m in manifests:
        counts[m.state.value] = counts.get(m.state.value, 0) + 1
    click.echo("  ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    if failed:
        for m in failed:
            click.echo(f"FAILED {m.task_id}: {m.failure.reason if m.failure else '?'}", err=True)
        sys.exit(1)


@main.command("status")
@click.option("--workspace", "--batch", "workspace", required=True, type=click.Path(exists=True))
def status_cmd(workspace):
    """Per-state task counts for a batch workspace."""
    store = ManifestStore(workspace)
    manifests = store.load_all()
    counts: dict[str, int] = {}
    for m in manifests:
        counts[m.state.value] = counts.get(m.state.value, 0) + 1
    click.echo(f"tasks: {len(manifests)}")
    for state in TaskState:
        if counts.get(state.value):
            click.echo(f"{state.value:>11}: {counts[state.value]}")
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
    """Export merged households (and optionally transcripts) from results."""
    workspace = Path(workspace)
    store = ResultStore(workspace / "results_store.ndjson")
    manifests = ManifestStore(workspace).load_all()
    if not manifests:
        _fail(f"no manifests under {workspace}")
    registry = registry_from_manifests(manifests)
    if dry_run:
        click.echo(
            f"dry run: {len(store)} integrated results over "
            f"{len(registry.registers)} registers"
        )
        return
    if households_path:
        exported, skipped, people = export_batch(registry, store, households_path)
        click.echo(
            f"wrote {people} people / {exported} registers to {households_path} "
            f"({skipped} registers incomplete)"
        )
    if pages_dir:
        from .domain import write_fixture
        from .pipeline.stages import payload_transcript

        out = Path(pages_dir)
        out.mkdir(parents=True, exist_ok=True)
        count = 0
        for record in store.records():
            transcript = payload_transcript(record)
            if transcript is None:
                continue
            name = record["page_id"].replace("/", "__") + ".txt"
            write_fixture([transcript], out / name)
            count += 1
        click.echo(f"wrote {count} transcript pages to {pages_dir}")
    if not households_path and not pages_dir:
        raise click.UsageError("nothing to export: pass --households and/or --pages")


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
    except metrics.NoMatchingPages as exc:
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
@click.option("--cap", type=int, default=4096, show_default=True,
              help="Max workers considered when solving for ?.")
@click.option("--json", "json_path", type=click.Path(), default=None)
@click.option("--dry-run", is_flag=True)
@click.pass_obj
def simulate_cmd(config: GlobalConfig, n_images, stage_specs, deadline, mode, cap,
                 json_path, dry_run):
    """Simulate batch throughput; solve for an unknown worker count."""
    stages = [parse_stage_spec(s) for s in stage_specs]
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
            deadline_s = parse_duration(deadline)
            count = simulate_mod.min_workers_for_deadline(
                n_images, stages, deadline_s, seed=config.seed, mode=mode, cap=cap
            )
            index = stages.index(unknown[0])
            stages[index] = simulate_mod.StageModel(
                name=unknown[0].name, service_time=unknown[0].service_time, workers=count,
                distribution=unknown[0].distribution, cv=unknown[0].cv,
                queue_capacity=unknown[0].queue_capacity,
            )
            click.echo(f"minimum workers for {unknown[0].name}: {count}")
        result = simulate_mod.simulate(n_images, stages, seed=config.seed, mode=mode)
    except simulate_mod.Infeasible as exc:
        _fail(str(exc))
    except simulate_mod.InvalidModel as exc:
        raise click.UsageError(str(exc))
    click.echo(simulate_mod.format_report(result, stages))
    if deadline:
        deadline_s = parse_duration(deadline)
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
