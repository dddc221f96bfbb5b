import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from censusflow.cli import main, parse_duration, parse_stage_spec


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


class TestParsers:
    def test_stage_spec(self):
        stage = parse_stage_spec("proc:12.5:?")
        assert stage.workers is None and stage.service_time == 12.5

    def test_stage_spec_distribution(self):
        stage = parse_stage_spec("a:2.0:3:lognorm:0.5")
        assert stage.distribution == "lognormal" and stage.cv == 0.5

    @pytest.mark.parametrize(
        "text,expected",
        [("8d", 8 * 86400.0), ("90", 90.0), ("2h", 7200.0), ("45m", 2700.0)],
    )
    def test_durations(self, text, expected):
        assert parse_duration(text) == expected


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

    @pytest.mark.parametrize(
        "spec", ["a:1.0:1:lognormal:abc", "a:1.0:1:lognormal:nan", "a:nan:2", "a:inf:2"]
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

    def test_unknown_config_key(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"wrokspace": "x"}')
        result = runner.invoke(main, ["--config", str(config), "status", "--workspace", "."])
        assert result.exit_code == 2
        assert "unknown config key" in result.output

    def test_config_sections_validated(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"pipeline": {"warp_speed": 9}}')
        result = runner.invoke(main, ["--config", str(config), "status", "--workspace", "."])
        assert result.exit_code == 2


class TestGenFixtures:
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

        result = runner.invoke(
            main,
            ["run", "--workspace", str(workspace), "--fixture", str(corpus),
             "--workers", "mock:seed=0", "--scheduler", "local:n=2"],
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

    def test_staged_run_in_three_calls(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
        for stage in ("pre", "proc", "post"):
            result = runner.invoke(
                main,
                ["run", "--workspace", str(workspace), "--fixture", str(corpus),
                 "--stages", stage, "--scheduler", "simulated:nodes=2"],
            )
            assert result.exit_code == 0, result.output
        status = runner.invoke(main, ["status", "--workspace", str(workspace)])
        assert "INTEGRATED" in status.output

    def test_failed_task_exits_one_and_is_named(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        # Remove one image from the fixture store: prestage will 404.
        victim = sorted((corpus / "images").rglob("p0001.json"))[0]
        victim.unlink()
        result = runner.invoke(
            main, ["run", "--workspace", str(tmp_path / "ws"), "--fixture", str(corpus)]
        )
        assert result.exit_code == 1
        assert "FAILED" in result.output
        assert "p0001" in result.output

    def test_run_dry_run_writes_nothing(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
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

    def test_plan_empty_selection(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        result = runner.invoke(
            main,
            ["plan", "--registry", str(corpus / "registry.ndjson"),
             "--workspace", str(tmp_path / "ws"), "--year", "1916"],
        )
        assert result.exit_code == 1


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

    def test_ingest_rerun_byte_identical(self, runner, tmp_path):
        csv_path, mapping, gazetteer = self.write_inputs(tmp_path)
        args = ["ingest", "--csv", str(csv_path), "--mapping", str(mapping),
                "--gazetteer", str(gazetteer)]
        assert runner.invoke(main, args + ["--out", str(tmp_path / "a")]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(tmp_path / "b")]).exit_code == 0
        first = (tmp_path / "a" / "registry.ndjson").read_bytes()
        second = (tmp_path / "b" / "registry.ndjson").read_bytes()
        assert first == second


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


class TestDryRunWritesNothing:
    """Every subcommand's --dry-run must leave the filesystem untouched."""

    def test_all_commands(self, runner, tmp_path):
        corpus = make_corpus(runner, tmp_path)
        workspace = tmp_path / "ws"
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
            ["run", "--workspace", str(tmp_path / "ws3"), "--fixture", str(corpus)],
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
