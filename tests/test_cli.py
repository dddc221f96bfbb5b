import csv
import fcntl
import json
import re
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from censusflow.cli import (
    main,
    parse_duration,
    parse_stage_spec,
    parse_worker_spec,
)
from censusflow.domain import NAME_FOR_TAG, dumps_pages
from censusflow.ingest import Registry, load_registry, registry_ndjson
from censusflow.pipeline import TaskState, TransitionLog
from censusflow.pipeline.runner import BatchReport
from censusflow.label_codec import decode_lenient
from censusflow.pipeline.stages import payload_transcript


@pytest.fixture
def runner():
    return CliRunner()


def snapshot(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*")}


def make_corpus(runner, root: Path, registers=2) -> Path:
    corpus = root / "corpus"
    result = runner.invoke(
        main,
        ["--seed", "5", "gen-fixtures", "--out", str(corpus), "--registers", str(registers),
         "--rows-min", "4", "--rows-max", "7", "--list-pages-min", "2", "--list-pages-max", "2"],
    )
    assert result.exit_code == 0, result.output
    return corpus


def plan(runner, corpus: Path, workspace, *selection) -> None:
    """``censusflow plan`` of ``corpus``'s registry into ``workspace``: every
    image, or those the ``selection`` flags select."""
    result = runner.invoke(main, ["plan", "--registry", str(corpus / "registry.ndjson"),
                                  "--workspace", str(workspace), *selection])
    assert result.exit_code == 0, result.output


class TestParsers:
    def test_stage_spec(self):
        stage = parse_stage_spec("proc:12.5:?")
        assert stage.workers is None and stage.service_time == 12.5

    def test_stage_spec_distribution(self):
        stage = parse_stage_spec("a:2.0:3:lognorm:0.5")
        assert stage.distribution == "lognormal" and stage.cv == 0.5

    @pytest.mark.parametrize("spec", ["a:1", "a:1:2:det:0:junk", "a:1:2:det:0:"])
    def test_stage_spec_field_count(self, spec):
        with pytest.raises(click.BadParameter, match="name:time:workers"):
            parse_stage_spec(spec)

    @pytest.mark.parametrize(
        "text,expected",
        [("8d", 8 * 86400.0), ("90", 90.0), ("2h", 7200.0), ("45m", 2700.0)],
    )
    def test_durations(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "infd", "1e308d", "0", "-3h", "x"])
    def test_bad_durations(self, text):
        with pytest.raises(click.BadParameter):
            parse_duration(text)

    @pytest.mark.parametrize("spec", ["mock:noise=abc", "mock:noise=2", "mock:drop=-0.1",
                                      "mock:flip=nan", "mock:seed=x", "mock:seed=1.5"])
    def test_bad_mock_worker_values(self, spec):
        with pytest.raises(click.BadParameter):
            parse_worker_spec(spec, default_seed=0)


class TestSimulateCommand:
    def test_paper_style_single_image(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "--images", "1", "--stage", "a:1.6:1", "--stage", "b:12.5:1",
             "--stage", "c:7.2:1"],
        )
        assert result.exit_code == 0, result.output
        assert "21.3 s" in result.output

    def test_solves_unknown_workers(self, runner, tmp_path):
        out = tmp_path / "sim.json"
        result = runner.invoke(
            main,
            ["simulate", "--images", "450000", "--stage", "pre:1.6:14",
             "--stage", "proc:12.5:?", "--stage", "post:7.2:14",
             "--deadline", "8d", "--json", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "minimum workers for proc: 9" in result.output
        assert "meets" in result.output
        data = json.loads(out.read_text())
        assert data["stages"][1]["workers"] == 9

    def test_unknown_without_deadline_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["simulate", "--images", "10", "--stage", "a:1.0:?"]
        )
        assert result.exit_code == 2

    def test_missed_deadline_exits_one(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "--images", "100", "--stage", "a:10.0:1", "--deadline", "60"],
        )
        assert result.exit_code == 1

    def test_dry_run(self, runner):
        result = runner.invoke(
            main, ["simulate", "--images", "5", "--stage", "a:1.0:1", "--dry-run"]
        )
        assert result.exit_code == 0
        assert "dry run" in result.output

    @pytest.mark.parametrize("deadline", ["nan", "inf", "-inf", "nanh", "0"])
    @pytest.mark.parametrize("stage", ["a:1.0:1", "a:1.0:?"], ids=["known", "solved"])
    def test_non_finite_deadline_is_usage_error(self, runner, deadline, stage):
        result = runner.invoke(
            main, ["simulate", "--images", "10", "--stage", stage, "--deadline", deadline]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value" in result.output

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_is_usage_error(self, runner, cap):
        result = runner.invoke(
            main, ["simulate", "--images", "10", "--stage", "a:1.0:?", "--deadline", "1h",
                   "--cap", cap]
        )
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--cap'" in result.output

    @pytest.mark.parametrize(
        "spec", ["a:1.0:1:lognormal:abc", "a:1.0:1:lognormal:nan", "a:nan:2", "a:inf:2",
                 "a:1:2:det:0:junk", "proc:12.5:9:lognormal:1e200", "proc:12.5:9:exp:0.3",
                 "proc:12.5:9:det:0.3"]
    )
    def test_bad_stage_spec_is_usage_error(self, runner, spec):
        result = runner.invoke(main, ["simulate", "--images", "10", "--stage", spec])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value" in result.output


class TestUsageErrors:
    def test_unknown_subcommand(self, runner):
        result = runner.invoke(main, ["frobnicate"])
        assert result.exit_code == 2

    def test_config_file_is_not_an_option(self, runner, tmp_path):
        """Every setting is a flag: there is no settings file to pass."""
        config = tmp_path / "config.json"
        config.write_text('{"seed": 7}')
        result = runner.invoke(main, ["--config", str(config), "status", "--workspace", "."])
        assert result.exit_code == 2
        assert "--config" in result.output


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["export", "evaluate", "check-images", "simulate"])
    def test_a_missing_directory_is_one_error_line(self, runner, tmp_path, command):
        """An output path whose directory does not exist exits 1 with one
        ``error:`` line naming the path given, not a temporary file beside
        it, and no traceback."""
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        missing = tmp_path / "missing"
        if command == "export":
            plan(runner, corpus, workspace)
            run = ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
            assert runner.invoke(main, run).exit_code == 0
        pages = str(corpus / "truth" / "pages")
        argv, out = {
            "export": (["export", "--workspace", str(workspace), "--households"], "h.csv"),
            "evaluate": (["evaluate", "--truth", pages, "--pred", pages, "--json"], "x.json"),
            "check-images": (["check-images", "--registry", str(corpus / "registry.ndjson"),
                              "--fixture", str(corpus), "--out"], "i.csv"),
            "simulate": (["simulate", "--images", "10", "--stage", "a:1:1", "--json"], "s.json"),
        }[command]
        result = runner.invoke(main, argv + [str(missing / out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].endswith(f"'{missing / out}'"), result.output
        assert ".tmp" not in errors[0]
        assert "Traceback" not in result.output
        assert not missing.exists()


class TestGenFixtures:
    @pytest.mark.parametrize("flags", [
        ["--list-pages-min", "5", "--list-pages-max", "2"],
        ["--rows-min", "9", "--rows-max", "3"],
        ["--household-mean", "0"],
        ["--registers", "0"],
        ["--limit-images", "-1"],
        ["--limit-images", "3"],
    ], ids=["list-pages", "rows", "household-mean", "registers", "limit-negative",
            "limit-no-register"])
    def test_bad_values_are_usage_errors(self, runner, tmp_path, flags):
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["gen-fixtures", "--out", str(out)] + flags)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_dry_run_writes_nothing(self, runner, tmp_path):
        before = snapshot(tmp_path)
        result = runner.invoke(
            main, ["gen-fixtures", "--out", str(tmp_path / "corpus"), "--dry-run"]
        )
        assert result.exit_code == 0, result.output
        assert snapshot(tmp_path) == before

    def test_generates_corpus(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        assert (corpus / "registry.ndjson").exists()
        assert (corpus / "truth" / "households.csv").exists()
        assert list((corpus / "images").rglob("*.json"))


class TestPipelineCommands:
    def test_full_run_and_status_and_export(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)

        result = runner.invoke(
            main,
            ["run", "--workspace", str(workspace), "--fixture", str(corpus),
             "--workers", "mock:seed=0", "--proc-threads", "2"],
        )
        assert result.exit_code == 0, result.output
        assert "INTEGRATED" in result.output

        truth = (corpus / "truth" / "households.csv").read_text(encoding="utf-8")
        produced = (workspace / "households.csv").read_text(encoding="utf-8")
        assert produced == truth

        status = runner.invoke(main, ["status", "--workspace", str(workspace)])
        assert status.exit_code == 0, status.output
        assert "INTEGRATED" in status.output

        export = runner.invoke(
            main,
            ["export", "--workspace", str(workspace),
             "--households", str(tmp_path / "again.csv"),
             "--pages", str(tmp_path / "pred_pages")],
        )
        assert export.exit_code == 0, export.output
        assert (tmp_path / "again.csv").read_text(encoding="utf-8") == truth

        evaluate = runner.invoke(
            main,
            ["evaluate", "--truth", str(corpus / "truth" / "pages"),
             "--pred", str(tmp_path / "pred_pages"),
             "--json", str(tmp_path / "report.json")],
        )
        assert evaluate.exit_code == 0, evaluate.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["cer"] == 0.0
        assert report["micro"]["f1"] == 1.0
        assert report["household_accuracy"] == 1.0

    @pytest.mark.parametrize("spec", ["mock:noise=abc", "mock:noise=2"])
    def test_bad_mock_workers_are_usage_errors(self, runner, tmp_path, spec):
        corpus = make_corpus(runner, tmp_path)
        result = runner.invoke(
            main, ["run", "--workspace", str(tmp_path / "ws"), "--fixture", str(corpus),
                   "--workers", spec]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value" in result.output
        assert not (tmp_path / "ws").exists()

    def test_status_reads_the_checkpoint_and_writes_nothing(self, runner, tmp_path):
        """On a finished workspace, status prints the same with and without
        checkpoint.json, and creates or changes no file."""
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        victim = json.loads((corpus / "registry.ndjson").read_text().splitlines()[0])
        (corpus / "images" / f"{victim['images'][1]['identifier']}.json").unlink()
        plan(runner, corpus, workspace)
        result = runner.invoke(
            main, ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        )
        assert result.exit_code == 1, result.output
        checkpoint = workspace / "checkpoint.json"
        assert checkpoint.exists()

        def files():
            return {p: (p.read_bytes(), p.stat().st_mtime_ns)
                    for p in workspace.rglob("*") if p.is_file()}

        before = files()
        status = runner.invoke(main, ["status", "--workspace", str(workspace)])
        assert status.exit_code == 0, status.output
        assert files() == before
        assert "FAILED: 1\n" in status.output and "\nFAILED " in status.output

        checkpoint.unlink()
        before = files()
        replayed = runner.invoke(main, ["status", "--workspace", str(workspace)])
        assert replayed.exit_code == 0, replayed.output
        assert files() == before
        assert replayed.output == status.output

    def test_a_second_writer_exits_one_and_changes_nothing(self, runner, tmp_path):
        """While another process holds the writer lock, ``run`` and ``plan``
        exit 1 naming it and leave the workspace as it was; ``status`` and
        ``export`` take no lock."""
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        run = ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        result = runner.invoke(main, run + ["--stages", "pre,proc"])
        assert result.exit_code == 0, result.output
        files = {path: path.read_bytes() for path in workspace.iterdir()
                 if path.is_file() and path.name != ".writer.lock"}
        assert {"tasks.ndjson", "results_store.ndjson"} <= {path.name for path in files}
        with open(workspace / ".writer.lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            held.write("pid 4242 on node7\n")
            held.flush()
            replan = ["plan", "--registry", str(corpus / "registry.ndjson"),
                      "--workspace", str(workspace)]
            for argv in (run, replan):
                result = runner.invoke(main, argv)
                assert result.exit_code == 1, (argv, result.output)
                assert "pid 4242 on node7" in result.output
            assert runner.invoke(main, ["status", "--workspace", str(workspace)]).exit_code == 0
            result = runner.invoke(main, ["export", "--workspace", str(workspace),
                                          "--households", str(tmp_path / "h.csv")])
            assert result.exit_code == 0, result.output
        assert {path: path.read_bytes() for path in files} == files
        result = runner.invoke(main, run)
        assert result.exit_code == 0, result.output

    def test_staged_run_in_three_calls(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        for stage in ("pre", "proc", "post"):
            result = runner.invoke(
                main,
                ["run", "--workspace", str(workspace), "--fixture", str(corpus),
                 "--stages", stage, "--proc-threads", "2"],
            )
            assert result.exit_code == 0, result.output
        status = runner.invoke(main, ["status", "--workspace", str(workspace)])
        assert "INTEGRATED" in status.output

    def test_recipe_stores_each_result_once_and_keeps_no_image(self, runner, tmp_path):
        """The compute-node recipe on the 12-image fixture: after ``proc``
        every page is stored, and after ``post`` the workspace holds no
        ``results/`` and an empty ``staging/``."""
        corpus, workspace = tmp_path / "corpus", tmp_path / "ws"
        result = runner.invoke(main, ["--seed", "5", "gen-fixtures", "--out", str(corpus),
                                      "--registers", "2", "--limit-images", "12"])
        assert result.exit_code == 0, result.output
        plan(runner, corpus, workspace)
        for stage in ("pre", "proc", "post"):
            result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                          "--fixture", str(corpus), "--stages", stage])
            assert result.exit_code == 0, result.output
            if stage == "proc":
                dry = runner.invoke(main, ["export", "--workspace", str(workspace),
                                           "--households", str(tmp_path / "h.csv"),
                                           "--dry-run"])
                assert dry.exit_code == 0, dry.output
                assert "dry run: 12 stored results over 2 registers" in dry.output
        assert "INTEGRATED: 12" in result.output
        assert not (workspace / "results").exists()
        assert list((workspace / "staging").iterdir()) == []

    def test_pre_stage_only_stages_every_task(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        result = runner.invoke(
            main,
            ["run", "--workspace", str(workspace), "--fixture", str(corpus),
             "--stages", "pre", "--window", "3"],
        )
        assert result.exit_code == 0, result.output
        states = [m.state for m in TransitionLog(workspace).load_all()]
        assert states and set(states) == {TaskState.STAGED}
        assert not (workspace / "households.csv").exists()
        assert "households:" not in result.output

    def test_split_run_exports_truth(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        for stages in ("pre,proc", "post"):
            result = runner.invoke(
                main,
                ["run", "--workspace", str(workspace), "--fixture", str(corpus),
                 "--stages", stages, "--window", "3"],
            )
            assert result.exit_code == 0, result.output
        truth = (corpus / "truth" / "households.csv").read_bytes()
        assert (workspace / "households.csv").read_bytes() == truth

    @pytest.mark.parametrize("stages", ["pre,bogus", ","])
    def test_bad_stages_are_usage_errors(self, runner, tmp_path, stages):
        corpus = make_corpus(runner, tmp_path)
        result = runner.invoke(
            main,
            ["run", "--workspace", str(tmp_path / "ws"), "--fixture", str(corpus),
             "--stages", stages],
        )
        assert result.exit_code == 2
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("flags", [["--jobs", "0"], ["--jobs", "-3"]],
                             ids=["flags0-None", "flags1-None"])
    def test_zero_download_concurrency_is_a_usage_error(self, runner, tmp_path, flags):
        corpus = make_corpus(runner, tmp_path)
        result = runner.invoke(
            main, ["run", "--workspace", str(tmp_path / "ws"), "--fixture", str(corpus)] + flags,
        )
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("flags, jobs", [([], 14), (["--jobs", "20"], 20)])
    def test_jobs_sets_the_download_threads(self, runner, tmp_path, monkeypatch, flags, jobs):
        """``--jobs N`` is N download threads, not a cap; with no flags the
        run takes ``RunConfig``'s defaults, and its ``run:`` line says so."""
        corpus = make_corpus(runner, tmp_path)
        plan(runner, corpus, tmp_path / "ws")
        configs = []

        def fake_run_batch(config):
            configs.append(config)
            return BatchReport(planned=0, counts={})

        monkeypatch.setattr("censusflow.cli.run_batch", fake_run_batch)
        result = runner.invoke(
            main, ["run", "--workspace", str(tmp_path / "ws"), "--fixture", str(corpus), *flags])
        assert result.exit_code == 0, result.output
        [config] = configs
        assert (config.prestage_concurrency, config.window, config.retry_limit) == (jobs, 64, 3)
        assert config.scheduler.workers == 4
        assert f"proc-threads=4 jobs={jobs} window=64 retry-limit=3 seed=0" in result.output

    def test_failed_task_exits_one_and_is_named(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        # Remove one image from the fixture store: prestage will 404.
        victim = sorted((corpus / "images").rglob("p0001.json"))[0]
        victim.unlink()
        plan(runner, corpus, tmp_path / "ws")
        result = runner.invoke(
            main, ["run", "--workspace", str(tmp_path / "ws"), "--fixture", str(corpus)]
        )
        assert result.exit_code == 1
        assert "FAILED" in result.output
        assert "p0001" in result.output

    def test_run_dry_run_writes_nothing(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        plan(runner, corpus, tmp_path / "ws")
        before = snapshot(tmp_path)
        result = runner.invoke(
            main,
            ["run", "--workspace", str(tmp_path / "ws"), "--fixture", str(corpus),
             "--dry-run"],
        )
        assert result.exit_code == 0, result.output
        assert snapshot(tmp_path) == before

    def test_plan_then_status(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        result = runner.invoke(
            main,
            ["plan", "--registry", str(corpus / "registry.ndjson"),
             "--workspace", str(workspace)],
        )
        assert result.exit_code == 0, result.output
        status = runner.invoke(main, ["status", "--workspace", str(workspace)])
        assert "PENDING" in status.output

    @pytest.mark.parametrize("filters", ["year", "register", "limit", "register+limit"])
    def test_plan_dry_run_counts_what_plan_plans(self, runner, tmp_path, filters):
        corpus = make_corpus(runner, tmp_path, registers=3)
        register = load_registry(corpus / "registry.ndjson").registers[1].metadata
        args = {
            "year": ["--year", str(register.census_year)],
            "register": ["--register-id", register.register_id],
            "limit": ["--limit", "5"],
            "register+limit": ["--register-id", register.register_id, "--limit", "2"],
        }[filters]
        argv = ["plan", "--registry", str(corpus / "registry.ndjson"),
                "--workspace", str(tmp_path / "ws")] + args
        dry = runner.invoke(main, argv + ["--dry-run"])
        assert dry.exit_code == 0, dry.output
        real = runner.invoke(main, argv)
        assert real.exit_code == 0, real.output
        would = int(dry.output.split("would plan ")[1].split()[0])
        planned = int(real.output.split("planned ")[1].split()[0])
        assert would == planned == len(TransitionLog(tmp_path / "ws").load_all())

    def test_unknown_scheduler_option_is_a_usage_error(self, runner, tmp_path):
        """``--proc-threads`` is at least 1, and ``--scheduler`` is gone."""
        corpus = make_corpus(runner, tmp_path)
        run = ["run", "--workspace", str(tmp_path / "ws"), "--fixture", str(corpus)]
        for flags, message in ((["--proc-threads", "0"], "Invalid value for '--proc-threads'"),
                               (["--scheduler", "local:n=2"], "No such option '--scheduler'")):
            result = runner.invoke(main, run + flags)
            assert result.exit_code == 2, (flags, result.output)
            assert message in result.output
        assert not (tmp_path / "ws").exists()

    def test_run_with_the_selection_of_plan(self, runner, tmp_path):
        """After ``plan --register-id R``, ``run --fixture F`` downloads,
        processes and exports R's images alone, and leaves the workspace
        registry as plan wrote it: F only serves images."""
        corpus = make_corpus(runner, tmp_path, registers=3)
        register = load_registry(corpus / "registry.ndjson").registers[0]
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace, "--register-id", register.metadata.register_id)
        planned = (workspace / "registry.ndjson").read_bytes()
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--fixture", str(corpus), "--proc-threads", "2"])
        assert result.exit_code == 0, result.output
        assert f"INTEGRATED: {len(register.images)}\n" in result.output
        assert "over 1 registers" in result.output and "(0 registers incomplete)" in result.output
        status = runner.invoke(main, ["status", "--workspace", str(workspace)])
        assert status.exit_code == 0, status.output
        assert f"tasks: {len(register.images)}\n" in status.output
        assert f"INTEGRATED: {len(register.images)}\n" in status.output
        assert (workspace / "registry.ndjson").read_bytes() == planned

    def test_compute_node_jobs_need_only_the_workspace(self, runner, tmp_path):
        """``pre`` with --fixture, then ``proc`` and ``post`` with neither
        --fixture nor --endpoint: the households and the result store of one
        full run, byte for byte."""
        corpus = make_corpus(runner, tmp_path)
        full, split = tmp_path / "full", tmp_path / "split"
        plan(runner, corpus, full)
        plan(runner, corpus, split)
        result = runner.invoke(main, ["run", "--workspace", str(full), "--fixture", str(corpus)])
        assert result.exit_code == 0, result.output
        for args in (["--fixture", str(corpus), "--stages", "pre"],
                     ["--stages", "proc", "--proc-threads", "2"], ["--stages", "post"]):
            result = runner.invoke(main, ["run", "--workspace", str(split)] + args)
            assert result.exit_code == 0, (args, result.output)
        assert "INTEGRATED: " in result.output
        for name in ("households.csv", "results_store.ndjson"):
            assert (split / name).read_bytes() == (full / name).read_bytes(), name

    @pytest.mark.parametrize("args, message", [
        (["--register-id", "X"], "No such option '--register-id'"),
        (["--fixture", "CORPUS", "--registry", "CORPUS/registry.ndjson"],
         "No such option '--registry'"),
        (["--stages", "pre"], "give --fixture or --endpoint"),
        (["--registry", "CORPUS/registry.ndjson", "--stages", "proc"],
         "No such option '--registry'"),
    ], ids=["selection", "fixture+registry", "pre-without-endpoint", "registry-without-endpoint"])
    def test_run_usage_errors_create_nothing(self, runner, tmp_path, args, message):
        corpus = make_corpus(runner, tmp_path)
        before = snapshot(tmp_path)
        args = [arg.replace("CORPUS", str(corpus)) for arg in args]
        result = runner.invoke(main, ["run", "--workspace", str(tmp_path / "ws")] + args)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert snapshot(tmp_path) == before

    def test_a_task_without_an_image_stops_the_run(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--fixture", str(corpus), "--stages", "pre"])
        assert result.exit_code == 0, result.output
        registry_file = workspace / "registry.ndjson"
        dropped = load_registry(registry_file).registers[1].metadata.register_id
        registry_file.write_bytes(registry_file.read_bytes().splitlines(keepends=True)[0])
        result = runner.invoke(main, ["run", "--workspace", str(workspace), "--stages", "proc"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, result.output
        assert errors[0].startswith(f"error: task {dropped}-p")
        assert errors[0].endswith(f"has no image in {registry_file}")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_plan_limit_below_one_is_a_usage_error(self, runner, tmp_path, limit):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        result = runner.invoke(main, ["plan", "--registry", str(corpus / "registry.ndjson"),
                                      "--workspace", str(workspace), "--limit", limit])
        assert result.exit_code == 2, result.output
        assert not workspace.exists()

    def test_plan_empty_selection(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        result = runner.invoke(
            main,
            ["plan", "--registry", str(corpus / "registry.ndjson"),
             "--workspace", str(tmp_path / "ws"), "--year", "1916"],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("command", ["plan", "run", "run-fixture"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["real", "dry-run"])
    def test_empty_selection_exits_one_and_creates_nothing(self, runner, tmp_path, command,
                                                           dry_run):
        """A plan that selects no image, and a run on a workspace where
        nothing is planned, with or without a corpus to serve images."""
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        unplanned = f"error: nothing is planned in {workspace}: plan it first (censusflow plan)"
        args, error = {
            "plan": (["--registry", str(corpus / "registry.ndjson"), "--register-id", "bogus"],
                     "error: no images match the given filter"),
            "run": (["--stages", "proc,post"], unplanned),
            "run-fixture": (["--fixture", str(corpus)], unplanned),
        }[command]
        before = snapshot(tmp_path)
        result = runner.invoke(main, [command.removesuffix("-fixture"), "--workspace",
                                      str(workspace)] + args + dry_run)
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(error), result.output
        assert snapshot(tmp_path) == before

    def test_split_stages_from_different_directories(self, runner, tmp_path, monkeypatch):
        """``pre`` from one directory, ``proc,post`` from another through a
        different relative path to the same workspace."""
        corpus = make_corpus(runner, tmp_path)
        (tmp_path / "demo").mkdir()
        plan(runner, corpus, tmp_path / "demo" / "ws2")
        for cwd, workspace, stages in ((tmp_path, "demo/ws2", "pre"),
                                       (tmp_path / "demo", "ws2", "proc,post")):
            monkeypatch.chdir(cwd)
            result = runner.invoke(
                main,
                ["run", "--workspace", workspace, "--fixture", str(corpus), "--stages", stages],
            )
            assert result.exit_code == 0, result.output
        status = runner.invoke(main, ["status", "--workspace", "ws2"])
        assert status.exit_code == 0, status.output
        assert "FAILED" not in status.output
        states = {m.state for m in TransitionLog(tmp_path / "demo" / "ws2").load_all()}
        assert states == {TaskState.INTEGRATED}
        truth = (corpus / "truth" / "households.csv").read_bytes()
        assert (tmp_path / "demo" / "ws2" / "households.csv").read_bytes() == truth


class TestCheckImages:
    def test_fixture_backed_check(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        out = tmp_path / "integrity.csv"
        result = runner.invoke(
            main,
            ["check-images", "--registry", str(corpus / "registry.ndjson"),
             "--fixture", str(corpus), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "problems: 0" in result.output
        assert out.exists()

    def test_missing_image_flagged(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        victim = sorted((corpus / "images").rglob("p0000.json"))[0]
        victim.unlink()
        result = runner.invoke(
            main,
            ["check-images", "--registry", str(corpus / "registry.ndjson"),
             "--fixture", str(corpus), "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 1
        assert "problems: 1" in result.output

    def test_rows_follow_the_registry_order(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        out = tmp_path / "integrity.csv"
        result = runner.invoke(
            main,
            ["check-images", "--registry", str(corpus / "registry.ndjson"),
             "--fixture", str(corpus), "--out", str(out), "--concurrency", "3"],
        )
        assert result.exit_code == 0, result.output
        images = [image["identifier"] for line in (corpus / "registry.ndjson").read_text(
            encoding="utf-8").splitlines() for image in json.loads(line)["images"]]
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["identifier", "status", "width", "height", "detail"]
        assert [row[0] for row in rows[1:]] == images
        assert {row[1] for row in rows[1:]} == {"OK"}

    def test_zero_concurrency_is_a_usage_error(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        out = tmp_path / "integrity.csv"
        result = runner.invoke(
            main,
            ["check-images", "--registry", str(corpus / "registry.ndjson"),
             "--fixture", str(corpus), "--out", str(out), "--concurrency", "0"],
        )
        assert result.exit_code == 2, result.output
        assert not out.exists()


class TestIngestCommand:
    def write_inputs(self, tmp_path):
        csv_path = tmp_path / "metadata.csv"
        csv_path.write_text(
            "annee,commune,cote,chemin\n"
            "1881,Moulins,6M1,img_2.jpg\n"
            "1881,Moulins,6M1,img_10.jpg\n"
            "1916,Moulins,6M1,img_3.jpg\n",
            encoding="utf-8",
        )
        mapping = tmp_path / "mapping.txt"
        mapping.write_text("annee=YEAR\ncommune=COMMUNE\ncote=ARCHIVAL_ID\nchemin=IMAGE_PATH\n")
        gazetteer = tmp_path / "gazetteer.csv"
        gazetteer.write_text(
            "code,canonical_name,department,variants\n03190,Moulins,Allier,\n",
            encoding="utf-8",
        )
        return csv_path, mapping, gazetteer

    def test_ingest_writes_registry(self, runner, tmp_path):
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
             "--gazetteer", str(gazetteer), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        registry = (out / "registry.ndjson").read_text(encoding="utf-8")
        record = json.loads(registry.splitlines()[0])
        assert [img["identifier"] for img in record["images"]] == ["img_2.jpg", "img_10.jpg"]
        exceptions = (out / "exceptions.csv").read_text(encoding="utf-8")
        assert "InvalidCensusYear" in exceptions

    @pytest.mark.parametrize("char", ["\x85", "\u2028"])
    def test_a_column_name_with_a_line_break_is_mapped(self, runner, tmp_path, char):
        """A header and a mapping that name ``com<U+0085>mune``: the mapping
        file's lines end at a line feed only, as the CSV's records do."""
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        for path in (csv_path, mapping):
            path.write_text(path.read_text("utf-8").replace("commune", f"com{char}mune"),
                            "utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
                                      "--gazetteer", str(gazetteer), "--out", str(out)])
        assert result.exit_code == 0, result.output
        record = json.loads((out / "registry.ndjson").read_text("utf-8").splitlines()[0])
        assert record["commune"]["code"] == "03190"

    def test_a_registry_with_line_breaks_in_an_image_path_plans(self, runner, tmp_path):
        """An image path holding U+0085, which JSON writes raw, reaches a
        registry that plan reads back whole."""
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        csv_path.write_text(csv_path.read_text("utf-8").replace("img_10", "img\x85_10"), "utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
                                      "--gazetteer", str(gazetteer), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "\x85" in (out / "registry.ndjson").read_text("utf-8")
        result = runner.invoke(main, ["plan", "--registry", str(out / "registry.ndjson"),
                                      "--workspace", str(tmp_path / "ws")])
        assert result.exit_code == 0, result.output
        assert "planned 2 tasks" in result.output

    @pytest.mark.parametrize("text", [
        "code,canonical_name,department,variants\n,Moulins,Allier,\n",
        "name,canonical_name,department,variants\n03190,Moulins,Allier,\n",
    ], ids=["blank-code", "no-code-column"])
    def test_a_gazetteer_without_codes_is_a_usage_error(self, runner, tmp_path, text):
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        gazetteer.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
                                      "--gazetteer", str(gazetteer), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert str(gazetteer) in result.output
        assert not out.exists()

    def test_ingest_dry_run(self, runner, tmp_path):
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
             "--gazetteer", str(gazetteer), "--out", str(out), "--dry-run"],
        )
        assert result.exit_code == 0, result.output
        assert not out.exists()

    def ingest_misspelt(self, runner, tmp_path, out, flags=()):
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        # "Moulin" scores 6/7 against "Moulins": ambiguous under the default
        # auto threshold of 0.95, matched automatically under 0.8.
        csv_path.write_text("annee,commune,cote,chemin\n1881,Moulin,6M1,img_1.jpg\n")
        result = runner.invoke(
            main,
            ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
             "--gazetteer", str(gazetteer), "--out", str(tmp_path / out), *flags],
        )
        assert result.exit_code == 0, result.output
        return (tmp_path / out / "registry.ndjson").read_text(encoding="utf-8")

    def test_flag_overrides_config_threshold(self, runner, tmp_path):
        """The threshold flags override the defaults: a lower auto
        threshold matches "Moulin", and a threshold above its score does
        not, whatever the auto threshold."""
        assert self.ingest_misspelt(runner, tmp_path, "default") == ""
        lowered = self.ingest_misspelt(runner, tmp_path, "lowered",
                                       flags=["--auto-threshold", "0.8"])
        assert '"code": "03190"' in lowered
        raised = self.ingest_misspelt(runner, tmp_path, "raised",
                                      flags=["--threshold", "0.9", "--auto-threshold", "0.8"])
        assert raised == ""

    @pytest.mark.parametrize("flag,value", [
        ("--threshold", "1.5"),
        ("--threshold", "nan"),
        ("--auto-threshold", "-0.1"),
        ("--auto-threshold", "inf"),
    ])
    def test_threshold_flag_outside_unit_interval(self, runner, tmp_path, flag, value):
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
             "--gazetteer", str(gazetteer), "--out", str(out), flag, value],
        )
        assert result.exit_code == 2, result.output
        assert f"got {float(value)!r}" in result.output
        assert not out.exists()

    def test_ingest_rerun_byte_identical(self, runner, tmp_path):
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        args = ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
                "--gazetteer", str(gazetteer)]
        assert runner.invoke(main, args + ["--out", str(tmp_path / "a")]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(tmp_path / "b")]).exit_code == 0
        first = (tmp_path / "a" / "registry.ndjson").read_bytes()
        second = (tmp_path / "b" / "registry.ndjson").read_bytes()
        assert first == second

    def test_byte_order_mark_in_every_input(self, runner, tmp_path):
        """Excel's "CSV UTF-8" starts a file with a byte-order mark. The CSV,
        mapping, gazetteer and a worklist saved back with one give the
        outputs of the same files without one."""
        inputs = {
            "csv": "annee,commune,cote,chemin\n1881,Moulins,6M1,img_2.jpg\n"
                   "1881,Moulin,6M2,img_1.jpg\n1881,Moulinz,6M3,img_1.jpg\n1916,Moulins,6M1,img_3.jpg\n",
            "mapping": "annee=YEAR\ncommune=COMMUNE\ncote=ARCHIVAL_ID\nchemin=IMAGE_PATH\n",
            "gazetteer": "code,canonical_name,department,variants\n03190,Moulins,Allier,\n",
            "resolutions": "name,candidates,best_code,best_score,resolved_code\r\n"
                           "Moulin,03190:0.8571,03190,0.8571,03190\r\n",
        }
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            root = tmp_path / ("bom" if prefix else "plain")
            root.mkdir()
            args = ["ingest", "--out", str(root / "out")]
            for name, text in inputs.items():
                (root / name).write_bytes(prefix + text.encode("utf-8"))
                args += [f"--{name}", str(root / name)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            outputs.append({name: (root / "out" / name).read_bytes()
                            for name in ("registry.ndjson", "exceptions.csv", "ambiguous.csv")})
        assert outputs[1] == outputs[0]
        registers = [json.loads(line) for line in outputs[0]["registry.ndjson"].splitlines()]
        assert [(r["archival_id"], r["commune"]["code"]) for r in registers] == [
            ("6M1", "03190"), ("6M2", "03190")]
        assert outputs[0]["ambiguous.csv"].splitlines()[1:] == [b"Moulinz,03190:0.8571,03190,0.8571,"]

    def test_worklist_without_a_name_column_is_a_usage_error(self, runner, tmp_path):
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        worklist = tmp_path / "worklist.csv"
        worklist.write_text("nom,resolved_code\nMoulins,03190\n", encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
             "--gazetteer", str(gazetteer), "--resolutions", str(worklist), "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "'name' not in worklist header" in result.output
        assert not out.exists()


class TestExportCommand:
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["write", "dry-run"])
    def test_no_output_is_a_usage_error_before_any_read(self, runner, tmp_path, dry_run):
        """Neither --households nor --pages: exit 2 on a directory that is
        no workspace, before looking for its registry."""
        result = runner.invoke(main, ["export", "--workspace", str(tmp_path), *dry_run])
        assert result.exit_code == 2, result.output
        assert "nothing to export" in result.output
        assert snapshot(tmp_path) == set()

    def test_dry_run_without_output_opens_no_store(self, runner, tmp_path, monkeypatch):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        result = runner.invoke(
            main, ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        )
        assert result.exit_code == 0, result.output

        def no_open(*args, **kwargs):
            raise AssertionError("store opened")

        monkeypatch.setattr("censusflow.cli.Workspace", no_open)
        monkeypatch.setattr("censusflow.cli.ingest.load_registry", no_open)
        result = runner.invoke(main, ["export", "--workspace", str(workspace), "--dry-run"])
        assert result.exit_code == 2, result.output
        assert "nothing to export" in result.output

    def test_pages_are_the_stored_transcripts(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path, registers=3)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        result = runner.invoke(
            main, ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        )
        assert result.exit_code == 0, result.output
        pages = tmp_path / "pages"
        result = runner.invoke(
            main, ["export", "--workspace", str(workspace), "--pages", str(pages)]
        )
        assert result.exit_code == 0, result.output

        want = {}
        for line in (workspace / "results_store.ndjson").read_text(encoding="utf-8").splitlines():
            transcript = payload_transcript(json.loads(line))
            if transcript is not None:
                name = transcript.page_id.replace("/", "__") + ".txt"
                want[name] = dumps_pages([transcript])
        assert want and f"wrote {len(want)} transcript pages" in result.output
        got = {p.name: p.read_text(encoding="utf-8") for p in pages.iterdir()}
        assert got == want

    def test_pages_read_one_record_per_page_the_later_winning(self, runner, tmp_path):
        """A page stored twice, its second copy with other text: --pages
        counts and writes it once, with the later text, as --households
        reads the store, and changes no file in the workspace."""
        corpus, workspace, pages = tmp_path / "corpus", tmp_path / "ws", tmp_path / "pages"
        result = runner.invoke(main, ["--seed", "5", "gen-fixtures", "--out", str(corpus),
                                      "--registers", "2", "--limit-images", "12"])
        assert result.exit_code == 0, result.output
        plan(runner, corpus, workspace)
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--fixture", str(corpus)])
        assert result.exit_code == 0, result.output
        store = workspace / "results_store.ndjson"
        payload = next(record for record in map(json.loads, store.read_text("utf-8").splitlines())
                       if record["transcript"])
        # The first field's text, from its tag to the next space or newline.
        payload["transcript"] = re.sub(r"^(<[^>]*>)[^ \n]*", r"\1Later", payload["transcript"])
        assert payload["transcript"].split(" ")[0].endswith(">Later")
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n")
        before = {p: p.read_bytes() for p in workspace.rglob("*") if p.is_file()}

        result = runner.invoke(main, ["export", "--workspace", str(workspace),
                                      "--pages", str(pages)])
        assert result.exit_code == 0, result.output
        assert "wrote 6 transcript pages" in result.output
        assert len(list(pages.iterdir())) == 6
        name = payload["page_id"].replace("/", "__") + ".txt"
        assert (pages / name).read_text("utf-8") == dumps_pages([payload_transcript(payload)])
        assert {p: p.read_bytes() for p in workspace.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("char", ["\r", "\t"], ids=["cr", "tab"])
    def test_a_value_the_pages_cannot_hold_exits_one(self, runner, tmp_path, char):
        """A stored label whose value holds a carriage return or a tab:
        --pages prints one error naming the page and exits 1; the pages
        written before it stay."""
        corpus, workspace, pages = tmp_path / "corpus", tmp_path / "ws", tmp_path / "pages"
        result = runner.invoke(main, ["--seed", "5", "gen-fixtures", "--out", str(corpus),
                                      "--registers", "2", "--limit-images", "12"])
        assert result.exit_code == 0, result.output
        plan(runner, corpus, workspace)
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--fixture", str(corpus)])
        assert result.exit_code == 0, result.output
        store = workspace / "results_store.ndjson"
        payloads = [json.loads(line) for line in store.read_text("utf-8").splitlines()]
        payload = [record for record in payloads if record["transcript"]][-1]
        payload["transcript"] = re.sub(r"^(<[^>]*>)[^ \n]*", rf"\1La{char}ter",
                                       payload["transcript"])
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n")

        result = runner.invoke(main, ["export", "--workspace", str(workspace),
                                      "--pages", str(pages)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == [f"error: page {payload['page_id']!r}: value not serializable: "
                          f"{'La' + char + 'ter'!r}"]
        assert len(list(pages.iterdir())) == 5

    def test_export_of_a_partly_planned_register_is_the_runs(self, runner, tmp_path):
        """A register of which only some pages are planned is incomplete for
        export as for run: both write the header alone, and both count only
        the register with planned tasks as incomplete."""
        corpus, workspace, out = tmp_path / "corpus", tmp_path / "ws", tmp_path / "h.csv"
        result = runner.invoke(main, ["--seed", "5", "gen-fixtures", "--out", str(corpus),
                                      "--registers", "2", "--limit-images", "12"])
        assert result.exit_code == 0, result.output
        plan(runner, corpus, workspace, "--limit", "3")
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--stages", "proc,post"])
        assert result.exit_code == 0, result.output
        assert "0 people over 0 registers" in result.output
        assert "(1 registers incomplete)" in result.output
        result = runner.invoke(main, ["export", "--workspace", str(workspace),
                                      "--households", str(out)])
        assert result.exit_code == 0, result.output
        assert "(1 registers incomplete)" in result.output
        assert out.read_bytes() == (workspace / "households.csv").read_bytes()
        assert len(out.read_bytes().splitlines()) == 1

    def test_export_writes_the_runs_bytes_for_a_registry_out_of_id_order(self, runner,
                                                                        tmp_path):
        """Registers in descending id order: the workspace registry keeps the
        order of the registry planned, so export writes what run wrote."""
        corpus = make_corpus(runner, tmp_path, registers=3)
        registry = load_registry(corpus / "registry.ndjson")
        descending = sorted(registry.registers, key=lambda r: r.metadata.register_id,
                            reverse=True)
        (corpus / "registry.ndjson").write_text(registry_ndjson(Registry(tuple(descending))),
                                                encoding="utf-8")
        workspace, out = tmp_path / "ws", tmp_path / "h.csv"
        plan(runner, corpus, workspace)
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--fixture", str(corpus)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["export", "--workspace", str(workspace),
                                      "--households", str(out)])
        assert result.exit_code == 0, result.output
        assert load_registry(workspace / "registry.ndjson").registers == tuple(descending)
        assert out.read_bytes() == (workspace / "households.csv").read_bytes()

    def test_export_reads_no_task_log(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace, out = tmp_path / "ws", tmp_path / "h.csv"
        plan(runner, corpus, workspace)
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--fixture", str(corpus)])
        assert result.exit_code == 0, result.output
        (workspace / "tasks.ndjson").rename(tmp_path / "tasks.ndjson")
        result = runner.invoke(main, ["export", "--workspace", str(workspace),
                                      "--households", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (workspace / "households.csv").read_bytes()
        assert out.read_bytes() == (corpus / "truth" / "households.csv").read_bytes()

    def test_workspace_without_registry_names_the_plan_that_writes_it(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace, out = tmp_path / "ws", tmp_path / "h.csv"
        plan(runner, corpus, workspace)
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--fixture", str(corpus)])
        assert result.exit_code == 0, result.output
        (workspace / "registry.ndjson").unlink()
        export = ["export", "--workspace", str(workspace), "--households", str(out)]
        result = runner.invoke(main, export)
        assert result.exit_code == 1
        assert f"censusflow plan --registry R --workspace {workspace}" in result.output
        assert not out.exists()
        plan(runner, corpus, workspace)
        assert runner.invoke(main, export).exit_code == 0
        assert out.read_bytes() == (workspace / "households.csv").read_bytes()


def old_format(payload: dict) -> dict:
    """``payload`` as versions before label stores wrote it: the label
    decoded into records, and the decoder's warnings."""
    report = decode_lenient(payload["transcript"])
    records = [{"is_head": record.is_head,
                "fields": [{"tag": NAME_FOR_TAG[tag], "text": text}
                           for tag, text in record.fields.items()]}
               for record in report.transcript.records]
    warnings = [{"position": w.position, "kind": w.kind.value} for w in report.warnings]
    return dict(payload, transcript={"records": records}, warnings=warnings)


class TestOldStoreFormat:
    """A store whose LIST records hold decoded transcripts, as earlier
    versions wrote them, is refused with one error naming the file, the
    byte offset of such a record and its register; nothing reads it."""

    @pytest.fixture
    def old(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        result = runner.invoke(main, ["run", "--workspace", str(workspace),
                                      "--fixture", str(corpus)])
        assert result.exit_code == 0, result.output
        store = workspace / "results_store.ndjson"
        lines = [json.loads(line) for line in store.read_text("utf-8").splitlines()]
        store.write_text("".join(
            json.dumps(old_format(p) if p["transcript"] else p, sort_keys=True,
                       ensure_ascii=False) + "\n" for p in lines), encoding="utf-8")
        return corpus, workspace, store

    @staticmethod
    def assert_refused(result, store: Path):
        assert result.exit_code == 1, result.output
        match = re.search(r"line at byte (\d+) \(register '([^']+)'\) holds a transcript object",
                          result.output)
        assert match and str(store) in result.output, result.output
        assert "Run the registry again into a new workspace" in result.output
        assert "Traceback" not in result.output
        offset, register_id = int(match.group(1)), match.group(2)
        with open(store, "rb") as fh:
            fh.seek(offset)
            record = json.loads(fh.readline())
        assert isinstance(record["transcript"], dict) and record["register_id"] == register_id

    @pytest.mark.parametrize("command", ["run", "households", "pages"])
    def test_refused(self, runner, tmp_path, old, command):
        corpus, workspace, store = old
        csv_before = (workspace / "households.csv").read_bytes()
        if command == "run":
            argv = ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        else:
            argv = ["export", "--workspace", str(workspace), f"--{command}",
                    str(tmp_path / "out")]
        self.assert_refused(runner.invoke(main, argv), store)
        assert (workspace / "households.csv").read_bytes() == csv_before
        assert not (tmp_path / "out").is_file()

    def test_one_old_record_appended_to_a_new_store(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        assert runner.invoke(main, ["run", "--workspace", str(workspace),
                                    "--fixture", str(corpus)]).exit_code == 0
        store = workspace / "results_store.ndjson"
        payload = next(p for p in map(json.loads, store.read_text("utf-8").splitlines())
                       if p["transcript"])
        offset = store.stat().st_size
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(old_format(payload), sort_keys=True, ensure_ascii=False) + "\n")
        result = runner.invoke(main, ["export", "--workspace", str(workspace),
                                      "--households", str(tmp_path / "h.csv")])
        self.assert_refused(result, store)
        assert f"line at byte {offset} (register {payload['register_id']!r})" in result.output


class TestCorruptLine:
    """A whole line of the result store or the task log that is not JSON,
    where no checkpoint vouches for it, makes every command that reads the
    file exit 1 with one error naming the file and the line's byte offset."""

    @pytest.mark.parametrize("name, command", [
        ("results_store.ndjson", "run"),
        ("results_store.ndjson", "export"),
        ("tasks.ndjson", "run"),
        ("tasks.ndjson", "status"),
        ("tasks.ndjson", "plan"),
    ], ids=["store-run", "store-export", "log-run", "log-status", "log-plan"])
    def test_exits_one_naming_the_line(self, runner, tmp_path, name, command):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        run = ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        assert runner.invoke(main, run).exit_code == 0
        (workspace / "checkpoint.json").unlink()
        path = workspace / name
        lines = path.read_bytes().splitlines(keepends=True)
        offset = sum(map(len, lines[:3]))
        path.write_bytes(b"".join(lines[:3]) + b"{not json\n" + b"".join(lines[4:]))
        before = snapshot(workspace), (workspace / "households.csv").read_bytes()
        argv = {
            "run": run,
            "export": ["export", "--workspace", str(workspace),
                       "--households", str(tmp_path / "out.csv")],
            "status": ["status", "--workspace", str(workspace)],
            "plan": ["plan", "--registry", str(corpus / "registry.ndjson"),
                     "--workspace", str(workspace)],
        }[command]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert f"error: {path}: line at byte {offset} is not a JSON object" in result.output
        assert "Traceback" not in result.output
        assert (snapshot(workspace), (workspace / "households.csv").read_bytes()) == before
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["plan", "run", "status"])
    def test_log_record_that_is_not_a_transition(self, runner, tmp_path, command):
        """A JSON object appended to a finished workspace's task log that
        is not a transition (an unknown state, no task id, a failure
        without a reason) exits 1 with one error naming the log and the
        record's offset, and writes nothing."""
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        run = ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        assert runner.invoke(main, run).exit_code == 0
        argv = {
            "plan": ["plan", "--registry", str(corpus / "registry.ndjson"),
                     "--workspace", str(workspace)],
            "run": run,
            "status": ["status", "--workspace", str(workspace)],
        }[command]
        path = workspace / "tasks.ndjson"
        finished = path.read_bytes()
        last = json.loads(finished.splitlines()[-1])
        bad_records = [
            (dict(last, to="BOGUS"), "to 'BOGUS' is not a state"),
            ({k: v for k, v in last.items() if k != "task_id"}, "task_id is not a string"),
            (dict(last, to="FAILED", failure={"stage": 1}),
             "failure has no string stage and reason"),
        ]
        for record, problem in bad_records:
            path.write_bytes(finished + (json.dumps(record) + "\n").encode())
            before = snapshot(workspace), [
                (workspace / name).read_bytes()
                for name in ("tasks.ndjson", "checkpoint.json", "households.csv")]
            result = runner.invoke(main, argv)
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit), \
                result.output
            error = (f"error: {path}: line at byte {len(finished)} "
                     f"is not a task transition: {problem}")
            assert [line for line in result.output.splitlines()
                    if line.startswith("error:")] == [error]
            assert "Traceback" not in result.output
            assert (snapshot(workspace), [
                (workspace / name).read_bytes()
                for name in ("tasks.ndjson", "checkpoint.json", "households.csv")]) == before

    @pytest.mark.parametrize("command", ["run", "export"])
    def test_unhashable_index_key(self, runner, tmp_path, command):
        """A store record whose register_id is an array, appended after the
        checkpoint, exits 1 with one error naming the file and offset."""
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        run = ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        assert runner.invoke(main, run).exit_code == 0
        path = workspace / "results_store.ndjson"
        payload = json.loads(path.read_bytes().splitlines()[0])
        offset = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(payload, register_id=[payload["register_id"]])) + "\n")
        argv = run if command == "run" else [
            "export", "--workspace", str(workspace), "--households", str(tmp_path / "out.csv")]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert f"error: {path}: line at byte {offset} cannot be indexed" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out.csv").exists()


class TestBadRegistry:
    """A registry line that is not a register makes each command that reads
    it exit 1 with one error naming the file and the line's byte offset."""

    @pytest.mark.parametrize("command", ["plan", "check-images", "export"])
    @pytest.mark.parametrize("bad, reason", [
        ("{not json", "Expecting property name"),
        ('{"census_year": 1881}', "missing key 'commune'"),
        ("[]", "the line is list, not dict"),
    ], ids=["not-json", "missing-key", "wrong-type"])
    def test_exits_one_naming_the_line(self, runner, tmp_path, command, bad, reason):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        if command == "export":
            plan(runner, corpus, workspace)
            run = ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
            assert runner.invoke(main, run).exit_code == 0
            path = workspace / "registry.ndjson"
        else:
            path = corpus / "registry.ndjson"
        first = path.read_bytes().splitlines(keepends=True)[0]
        path.write_bytes(first + bad.encode() + b"\n" + path.read_bytes()[len(first):])
        out = tmp_path / "out.csv"
        argv = {
            "plan": ["plan", "--registry", str(path), "--workspace", str(workspace)],
            "check-images": ["check-images", "--registry", str(path), "--fixture", str(corpus),
                             "--out", str(out)],
            "export": ["export", "--workspace", str(workspace), "--households", str(out)],
        }[command]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, result.output
        assert errors[0].startswith(
            f"error: {path}: line at byte {len(first)} is not a register: {reason}")
        assert "Traceback" not in result.output
        assert not out.exists()
        if command == "plan":
            assert not workspace.exists()


class TestBadTranscript:
    """A stored record that does not fit the result schema, its transcript
    not fitting its page class or a key missing or unknown, makes ``run``
    and both exports (``export`` is ``export --households``) exit 1 with one
    error naming the store, the record's byte offset and its register."""

    @pytest.mark.parametrize("case", ["list-without", "list-not-string", "other-with",
                                      "no-page-class", "no-page-id", "bogus-class"])
    @pytest.mark.parametrize("command", ["run", "export", "pages"])
    def test_exits_one_naming_the_page(self, runner, tmp_path, case, command):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        run = ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        assert runner.invoke(main, run).exit_code == 0
        path = workspace / "results_store.ndjson"
        payloads = [json.loads(line) for line in path.read_bytes().splitlines()]
        listed = next(p for p in payloads if p["page_class"] == "LIST")
        other = next(p for p in payloads if p["page_class"] != "LIST")
        if case == "list-without":
            payload, bad = listed, dict(listed, transcript=None)
            reason = "LIST page without transcript"
        elif case == "list-not-string":
            payload, bad, reason = listed, dict(listed, transcript=7), "transcript is not a string"
        elif case == "other-with":
            payload, bad = other, dict(other, transcript="<s>Gendre ")
            reason = f"transcript present on {other['page_class']} page"
        elif case == "bogus-class":
            payload, bad = other, dict(other, page_class="BOGUS")
            reason = "unknown page_class 'BOGUS'"
        else:
            key = case.removeprefix("no-").replace("-", "_")
            payload, bad, reason = other, dict(other), f"missing key {key}"
            del bad[key]
        offset = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        csv_before = (workspace / "households.csv").read_bytes()
        out = tmp_path / "out"
        argv = {"run": run,
                "export": ["export", "--workspace", str(workspace), "--households", str(out)],
                "pages": ["export", "--workspace", str(workspace), "--pages", str(out)]}[command]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        want = (f"error: {path}: line at byte {offset} (register {payload['register_id']!r}) "
                f"does not fit the result schema: {reason}")
        assert [line for line in result.output.splitlines() if line.startswith("error:")] == [want]
        assert "Traceback" not in result.output
        assert (workspace / "households.csv").read_bytes() == csv_before
        assert not out.is_file()
        if command != "pages":  # --pages made the directory before reading
            assert not out.exists()


class TestEvaluateCommand:
    def test_no_matching_pages_exits_one(self, runner, tmp_path):
        truth = tmp_path / "truth"
        pred = tmp_path / "pred"
        truth.mkdir()
        pred.mkdir()
        result = runner.invoke(
            main, ["evaluate", "--truth", str(truth), "--pred", str(pred)]
        )
        assert result.exit_code == 1

    @pytest.fixture
    def pages(self, tmp_path):
        """A truth and a prediction directory, each with the file a.txt of
        one two-record page."""
        text = "#page\tp\t0\nsurname_head=Gendre\tfirstname=Pierre\nsurname=Paraud\n"
        for side in ("truth", "pred"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "a.txt").write_text(text, encoding="utf-8")
        return tmp_path / "truth", tmp_path / "pred"

    def evaluate_error(self, runner, truth, pred):
        result = runner.invoke(main, ["evaluate", "--truth", str(truth), "--pred", str(pred)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, result.output
        return errors[0]

    def test_a_malformed_line_names_the_file_and_the_line(self, runner, pages):
        truth, pred = pages
        (pred / "a.txt").write_text(
            "#page\tp\t0\nsurname=Paraud\nsurname_head=Gendre\tfirstname\n", encoding="utf-8")
        assert self.evaluate_error(runner, truth, pred) == (
            f"error: {pred / 'a.txt'}: line 3: malformed fixture line: "
            "'surname_head=Gendre\\tfirstname'")

    def test_a_file_that_is_not_utf8_names_the_file_and_the_line(self, runner, pages):
        truth, pred = pages
        (pred / "a.txt").write_bytes(
            "#page\tp\t0\nsurname_head=Gendre\nsurname=Parau\xe9\n".encode("latin-1"))
        assert self.evaluate_error(runner, truth, pred).startswith(
            f"error: {pred / 'a.txt'}: line 3: not UTF-8")


class TestDryRunWritesNothing:
    """Every subcommand's --dry-run must leave the filesystem untouched."""

    def test_all_commands(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        plan(runner, corpus, workspace)
        result = runner.invoke(
            main, ["run", "--workspace", str(workspace), "--fixture", str(corpus)]
        )
        assert result.exit_code == 0, result.output
        pages = tmp_path / "pred_pages"
        assert runner.invoke(
            main, ["export", "--workspace", str(workspace), "--pages", str(pages)]
        ).exit_code == 0

        csv_path = tmp_path / "meta.csv"
        csv_path.write_text("annee,commune,chemin\n1881,Moulins,a.jpg\n")
        mapping = tmp_path / "mapping.txt"
        mapping.write_text("annee=YEAR\ncommune=COMMUNE\nchemin=IMAGE_PATH\n")

        commands = [
            ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
             "--gazetteer", str(corpus / "gazetteer.csv"), "--out", str(tmp_path / "reg")],
            ["check-images", "--registry", str(corpus / "registry.ndjson"),
             "--fixture", str(corpus), "--out", str(tmp_path / "integrity.csv")],
            ["gen-fixtures", "--out", str(tmp_path / "corpus2")],
            ["plan", "--registry", str(corpus / "registry.ndjson"),
             "--workspace", str(tmp_path / "ws2")],
            ["run", "--workspace", str(workspace), "--fixture", str(corpus)],
            ["export", "--workspace", str(workspace),
             "--households", str(tmp_path / "hh.csv")],
            ["evaluate", "--truth", str(corpus / "truth" / "pages"), "--pred", str(pages),
             "--json", str(tmp_path / "report.json")],
            ["simulate", "--images", "10", "--stage", "a:1.0:1",
             "--json", str(tmp_path / "sim.json")],
        ]
        before = snapshot(tmp_path)
        for argv in commands:
            result = runner.invoke(main, argv + ["--dry-run"])
            assert result.exit_code == 0, (argv, result.output)
            assert snapshot(tmp_path) == before, f"{argv[0]} --dry-run wrote files"
