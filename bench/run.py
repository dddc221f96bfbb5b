"""censusflow benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Generates the workload's inputs from the seed, runs closed-loop
jobs for about S seconds, checks every output, prints a report and, as the
last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones of a
separate traced run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

ROOT = Path(__file__).resolve().parent.parent
IMPORT_REPS = 3

# User CPU seconds of the import of the package and the workload module in
# a fresh interpreter; interpreter start-up itself is not counted.
IMPORT_PROBE = """
import resource
start = resource.getrusage(resource.RUSAGE_SELF).ru_utime
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
print(resource.getrusage(resource.RUSAGE_SELF).ru_utime - start)
"""

END_TO_END = {
    "setup_s": "s",
    "cpu_ref_ms_per_item": "ref_ms/item",
    "peak_rss_mb": "MB",
}

# Set-up time and cost per item are user CPU time, not wall time: on a
# shared host the kernel time of the same file-system calls (and with it
# wall time) varies by up to ~8x from minute to minute, while user time
# varies little. What remains is the host's speed for pure Python, which
# drifts by up to ~1.7x over tens of seconds, so both are given in reference
# seconds: one reference second is the CPU time this host takes, at that
# moment, for REF_LOOPS runs of a fixed loop of REF_ITERATIONS integer steps
# (0.95-1.5 s on the 2-vCPU Xeon the benchmark was written on). ``setup_s``
# keeps the unit "s" that the result format requires for it.
REF_ITERATIONS = 50_000
REF_LOOPS = 300
REF_RUNS = 5
REF_SHARE = 0.1  # the loop runs for this share of the time it calibrates

PER_LAYER = {
    "runner.plan_s": "s",
    "runner.store_open_s": "s",
    "runner.ms_per_image_scaling": "ratio",
    "stages.prestage_s": "s",
    "stages.process_s": "s",
    "stages.integrate_s": "s",
    "stages.validate_payload_us": "us",
    "manifests.transition_us": "us",
    "manifests.transitions": "count",
    "manifests.workspace_files": "count",
    "manifests.workspace_bytes": "bytes",
    "manifests.load_all_s": "s",
    "manifests.replay_s": "s",
    "resume.worker_calls": "count",
    "resume.tasks_remaining": "count",
    "schedulers.thread_speedup": "ratio",
    "workers.classify_calls": "count",
    "workers.recognize_calls": "count",
    "workers.call_s": "s",
    "iiif.transport_calls": "count",
    "iiif.transport_ms": "ms",
    "iiif.retries": "count",
    "label_codec.decode_lenient_p50_us": "us",
    "label_codec.decode_lenient_p95_us": "us",
    "label_codec.decode_warnings": "count",
    "household.export_ms_per_register": "ms",
    "metrics.cer_levenshtein_us": "us",
    "metrics.wer_levenshtein_us": "us",
    "metrics.entity_scores_us": "us",
    "metrics.levenshtein_25_us": "us",
    "metrics.levenshtein_300_us": "us",
    "metrics.levenshtein_2800_us": "us",
    "domain.read_fixture_us": "us",
    "ingest.import_csv_s": "s",
    "ingest.build_registry_s": "s",
    "ingest.save_registry_s": "s",
    "ingest.match_commune_p50_ms": "ms",
    "ingest.match_commune_p95_ms": "ms",
    "ingest.similarity_pairs": "count",
    "ingest.auto": "count",
    "ingest.ambiguous": "count",
    "ingest.unmatched": "count",
    "ingest.exceptions": "count",
    "simulate.simulate_s": "s",
    "simulate.lognormal_s": "s",
    "simulate.solve_s": "s",
    "simulate.us_per_job_stage": "us",
    "trace.overhead_s": "s",
}

WORKLOAD_NAMES = ("batch", "resume", "evaluate", "ingest", "capacity")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "censusflow").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args, nproc: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def reference_loop(seconds: float) -> list[float]:
    """CPU seconds of each run of the reference loop, run at least REF_RUNS
    times and for about ``seconds``. The host flips between a fast and a
    slow state every few tens of milliseconds, and the timed work pays the
    mean of the two, so callers average the runs instead of keeping the
    fastest."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < REF_RUNS or time.perf_counter() < end:
        start = time.process_time()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i * i
        times.append(time.process_time() - start)
    return times


def import_times() -> list[float]:
    """User CPU seconds to import the package and the workloads, once per
    fresh interpreter, IMPORT_REPS times."""
    code = IMPORT_PROBE.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    return [
        float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_REPS)
    ]


def measure(workload, seconds: float):
    """Time IMPORT_REPS imports and ``setup_reps`` set-ups; set-up time is
    the median import plus the median set-up, in user CPU seconds. After
    ``workload.warmup`` untimed jobs, whose outputs are checked too, run
    whole cycles of jobs for about ``seconds``: a cycle starts only while
    the previous cycle's duration still fits. The reference loop runs after
    the imports and each set-up, for set-up time, and after each timed job,
    for cost per item, each time for REF_SHARE of the wall time it follows."""
    from workloads import user_cpu

    setup_refs = reference_loop(0.0)
    imports = import_times()
    setup_refs += reference_loop(REF_SHARE * sum(imports))
    reps = []
    walls = []
    for _ in range(workload.setup_reps):
        cpu, start = user_cpu(), time.perf_counter()
        workload.setup()
        walls.append(time.perf_counter() - start)
        reps.append(user_cpu() - cpu)
        setup_refs += reference_loop(REF_SHARE * walls[-1])
    warm_ok = all(workload.job().ok for _ in range(workload.warmup))
    jobs = []
    refs = []
    start = began = time.perf_counter()
    while True:
        jobs.append(workload.job())
        refs += reference_loop(REF_SHARE * jobs[-1].wall_s)
        if len(jobs) % workload.cycle:
            continue
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
        began = now
    ok = workload.finish(jobs) and warm_ok
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_s = fmean(refs) * REF_LOOPS
    setup_ref_s = fmean(setup_refs) * REF_LOOPS
    setup_cpu = median(imports) + median(reps)
    items = sum(j.items for j in jobs)
    wall = sum(j.wall_s for j in jobs)
    cpu = sum(j.cpu_s for j in jobs)
    metrics = {
        "setup_s": setup_cpu / setup_ref_s,
        "cpu_ref_ms_per_item": cpu / ref_s * 1e3 / items,
        "peak_rss_mb": rss_kb / 1024,
    }
    figures = {"setup_cpu_s": (setup_cpu, "s"),
               "setup_wall_s": (median(walls), "s"),
               "items_per_s": (items / wall, "items/s"),
               "items_per_ref_s": (items / wall * ref_s, "items/ref_s"),
               "cpu_ms_per_item": (cpu * 1e3 / items, "ms/item"),
               "ref_s": (ref_s, "s"),
               **workload.named(jobs)}
    notes = {"import_cpu_s": imports, "setup_reps_cpu_s": reps, "setup_reps_wall_s": walls,
             "setup_reference_loop_s": setup_refs, "reference_loop_s": refs}
    return metrics, jobs, ok, notes, figures


def trace(workload, out_dir: Path, meta: dict):
    """One set-up, then the workload's traced run; layers it does not touch
    read 0. Spans are written to ``out_dir``."""
    from tracing import Tracer

    workload.setup()
    tracer = Tracer()
    layers, jobs, overhead = workload.trace(tracer)
    unknown = set(layers) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update(layers)
    metrics["trace.overhead_s"] = overhead
    spans = out_dir / f"spans-{meta['workload']}-seed{meta['seed']}.json"
    tracer.write(spans, meta)
    return metrics, jobs, True, {"spans": str(spans.relative_to(ROOT))}, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import censusflow
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import censusflow from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(censusflow.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: censusflow was imported from {censusflow.__file__}, not {src}",
              file=sys.stderr)
        return 2
    # Per-task warnings (the injected 404s) are expected; keep stderr quiet.
    logging.getLogger("censusflow").setLevel(logging.ERROR)

    nproc = min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))
    meta = run_metadata(args, nproc)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work, nproc)
    try:
        if args.trace:
            metrics, jobs, ok, extra, named = trace(workload, out_dir, meta)
            units = PER_LAYER
        else:
            metrics, jobs, ok, extra, named = measure(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    correct = ok and all(j.ok for j in jobs)
    named["failed_ratio"] = (failed / attempted, "ratio")
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "workload_figures": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "jobs": [vars(j) for j in jobs],
        "notes": {**workload.notes, **extra},
    }
    result_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"censusflow bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc} cpu={meta['cpu_model']!r} python={meta['python']} "
          f"numpy={meta['numpy']} commit={meta['git_commit'][:12]}")
    print(f"jobs={len(jobs)} {workload.item}/job={jobs[0].items} "
          f"attempted={attempted} failed={failed} correct={correct}")
    for name, (value, unit) in named.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for name, value in workload.notes.items():
        print(f"  note {name}: {dict(value) if isinstance(value, dict) else value}")
    print(f"results: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
