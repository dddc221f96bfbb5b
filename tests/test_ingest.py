import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censusflow.ingest import (
    VALID_CENSUS_YEARS,
    AmbiguousRecord,
    ColumnMapping,
    ColumnRole,
    EmptyFile,
    EmptyGazetteer,
    GazetteerEntry,
    MatchCandidate,
    MatchResult,
    MatchStatus,
    MissingColumn,
    build_registry,
    import_csv,
    load_gazetteer,
    load_mapping,
    load_registry,
    load_resolutions,
    match_commune,
    natural_key,
    normalize_name,
    save_gazetteer,
    save_registry,
    similarity,
    write_ambiguous_csv,
    write_exceptions_csv,
)

GAZETTEER = [
    GazetteerEntry("03190", "Moulins", "Allier", ("Molins",)),
    GazetteerEntry("03196", "Neuilly-le-Réal", "Allier"),
    GazetteerEntry("03310", "Vichy", "Allier"),
    GazetteerEntry("21425", "Moulins", "Côte-d'Or"),
]

MAPPING = ColumnMapping(
    {
        "annee": ColumnRole.YEAR,
        "commune": ColumnRole.COMMUNE,
        "cote": ColumnRole.ARCHIVAL_ID,
        "chemin": ColumnRole.IMAGE_PATH,
        "notes": ColumnRole.IGNORE,
    }
)


def write_csv(path, rows, header="annee,commune,cote,chemin,notes"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestColumnMapping:
    def test_missing_image_path_role(self):
        with pytest.raises(MissingColumn):
            ColumnMapping({"annee": ColumnRole.YEAR, "commune": ColumnRole.COMMUNE})

    def test_duplicate_year_role(self):
        with pytest.raises(ValueError):
            ColumnMapping(
                {
                    "a": ColumnRole.YEAR,
                    "b": ColumnRole.YEAR,
                    "commune": ColumnRole.COMMUNE,
                    "chemin": ColumnRole.IMAGE_PATH,
                }
            )

    def test_load_mapping_file(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text(
            "# roles\nannee=YEAR\ncommune=COMMUNE\nchemin=IMAGE_PATH\nnotes=ignore\n"
        )
        mapping = load_mapping(path)
        assert mapping.column(ColumnRole.YEAR) == "annee"
        assert mapping.roles["notes"] is ColumnRole.IGNORE

    def test_load_mapping_unknown_role(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("annee=DATE\n")
        with pytest.raises(ValueError, match="unknown role"):
            load_mapping(path)


class TestImportCsv:
    def test_three_rows(self, tmp_path):
        path = write_csv(
            tmp_path / "m.csv",
            [
                "1881,Moulins,6M1,img_1.jpg,x",
                "1881,Moulins,6M1,img_2.jpg,",
                "1886,Vichy,6M9,img_1.jpg,",
            ],
        )
        rows, diagnostics = import_csv(path, MAPPING)
        assert len(rows) == 3
        assert diagnostics == []
        assert rows[0].year == 1881 and rows[0].archival_id == "6M1"

    def test_unparseable_year_flagged_not_dropped(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", ["183?,Moulins,6M1,img_1.jpg,"])
        rows, diagnostics = import_csv(path, MAPPING)
        assert len(rows) == 1
        assert rows[0].year is None
        assert rows[0].flags == ("UnparseableYear",)
        assert "UnparseableYear" in diagnostics[0]

    def test_mapped_column_missing_from_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("annee,commune\n1881,Moulins\n")
        with pytest.raises(MissingColumn):
            import_csv(path, MAPPING)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            import_csv(path, MAPPING)


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Neuilly-le-Réal", "neuilly le real"),
            ("  SAINT-Étienne ", "saint etienne"),
            ("Côte-d'Or", "cote d or"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_name(raw) == expected

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, name):
        assert normalize_name(normalize_name(name)) == normalize_name(name)

    @given(st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_similarity_symmetric(self, a, b):
        assert similarity(a, b) == similarity(b, a)

    @given(st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_similarity_one_iff_normalized_equal(self, a, b):
        if normalize_name(a) == normalize_name(b):
            assert similarity(a, b) == 1.0
        else:
            assert similarity(a, b) < 1.0

    def test_case_and_diacritics_do_not_count(self):
        assert similarity("MOULINS", "moulins") == 1.0
        assert similarity("Neuilly le Réal", "neuilly-le-real") == 1.0

    def test_similarity_below_one_when_different(self):
        assert similarity("Moulins", "Vichy") < 1.0


class TestMatchCommune:
    def test_exact_name_auto_accepted(self):
        result = match_commune("Neuilly-le-Réal", GAZETTEER)
        assert result.status is MatchStatus.AUTO
        assert result.best.entry.code == "03196"
        assert result.best.score == 1.0

    def test_one_letter_typo_is_ambiguous(self):
        result = match_commune("Moulin", [GazetteerEntry("03190", "Moulins", "Allier")])
        assert result.status is MatchStatus.AMBIGUOUS
        assert result.best.score == pytest.approx(6 / 7, abs=1e-9)

    def test_far_name_unmatched(self):
        result = match_commune("Xyzabc", [GazetteerEntry("03190", "Moulins", "Allier")])
        assert result.status is MatchStatus.UNMATCHED
        assert result.candidates == ()

    def test_variant_names_count(self):
        result = match_commune("Molins", GAZETTEER)
        assert result.best.entry.code == "03190"
        assert result.best.score == 1.0

    def test_department_hint_breaks_ties(self):
        with_hint = match_commune("Moulins", GAZETTEER, department_hint="Côte-d'Or")
        assert with_hint.best.entry.code == "21425"
        without = match_commune("Moulins", GAZETTEER)
        assert without.best.entry.code == "03190"  # code tiebreak

    def test_two_confident_candidates_are_ambiguous(self):
        result = match_commune("Moulins", GAZETTEER)
        assert result.status is MatchStatus.AMBIGUOUS

    def test_empty_gazetteer(self):
        with pytest.raises(EmptyGazetteer):
            match_commune("Moulins", [])

    def test_deterministic_ranking(self):
        first = match_commune("Moulins", GAZETTEER)
        second = match_commune("Moulins", GAZETTEER)
        assert [c.entry.code for c in first.candidates] == [
            c.entry.code for c in second.candidates
        ]


def brute_force_match(name, gazetteer, department_hint=None, *, threshold, auto_threshold=0.95):
    """Reference ranker: score every name of every entry with similarity()."""
    hint = normalize_name(department_hint) if department_hint else None
    scored = []
    for entry in gazetteer:
        score = max(similarity(name, variant) for variant in entry.all_names())
        if score >= threshold:
            scored.append(MatchCandidate(entry, score))
    scored.sort(
        key=lambda c: (
            -c.score,
            0 if hint and normalize_name(c.entry.department) == hint else 1,
            len(normalize_name(c.entry.canonical_name)),
            c.entry.code,
        )
    )
    if not scored:
        return MatchResult(name, MatchStatus.UNMATCHED, ())
    confident = [c for c in scored if c.score >= auto_threshold]
    status = MatchStatus.AUTO if len(confident) == 1 else MatchStatus.AMBIGUOUS
    return MatchResult(name, status, tuple(scored))


class TestMatchCommunePruning:
    """match_commune skips names whose length gap alone bounds the score
    below threshold; its results must equal scoring every name."""

    def check(self, name, gazetteer, hint=None, threshold=0.85):
        expected = brute_force_match(name, gazetteer, hint, threshold=threshold)
        assert match_commune(name, gazetteer, hint, threshold=threshold) == expected
        return expected

    def test_bound_equal_to_threshold_is_still_scored(self):
        # Normalized lengths 5 and 4: the bound 1 - 1/5 equals 0.8 exactly.
        result = self.check("Lyons", [GazetteerEntry("69123", "Lyon", "Rhône")], threshold=0.8)
        assert [(c.entry.code, c.score) for c in result.candidates] == [("69123", 0.8)]

    def test_department_hint(self):
        result = self.check("Moulin", GAZETTEER, "Côte-d'Or")
        assert [c.entry.code for c in result.candidates] == ["21425", "03190"]

    def test_only_the_historical_variant_passes(self):
        entry = GazetteerEntry("03254", "Saint-Pourçain-sur-Sioule", "Allier", ("Pourçain",))
        result = self.check("Pourcin", [entry, *GAZETTEER])
        assert [(c.entry.code, c.score) for c in result.candidates] == [("03254", 1 - 1 / 8)]

    names = st.text(alphabet="abé -", max_size=8).filter(lambda s: s.strip())
    rows = st.tuples(names, st.sampled_from(["Allier", "Cher"]), st.lists(names, max_size=2))

    @given(
        st.lists(rows, min_size=1, max_size=6),
        names,
        st.sampled_from([None, "allier", "Cher"]),
        st.sampled_from([0.0, 0.5, 0.75, 0.8, 0.85, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_gazetteers_match_brute_force(self, rows, name, hint, threshold):
        gazetteer = [
            GazetteerEntry(f"{k:05d}", canonical, department, tuple(variants))
            for k, (canonical, department, variants) in enumerate(rows)
        ]
        self.check(name, gazetteer, hint, threshold)


class TestCensusYears:
    def test_twenty_census_years(self):
        assert len(VALID_CENSUS_YEARS) == 20

    def test_register_metadata_rejects_invalid_year(self):
        from censusflow.ingest import RegisterMetadata

        with pytest.raises(ValueError):
            RegisterMetadata(1916, GAZETTEER[0], "6M1")

    @pytest.mark.parametrize("year", [1836, 1866, 1872, 1876, 1911, 1921, 1936])
    def test_valid_years(self, year):
        assert year in VALID_CENSUS_YEARS

    @pytest.mark.parametrize("year", [1871, 1916, 1941, 1837, 1835])
    def test_invalid_years(self, year):
        assert year not in VALID_CENSUS_YEARS


class TestNaturalKey:
    def test_numeric_aware_ordering(self):
        paths = ["img_10.jpg", "img_2.jpg", "img_1.jpg"]
        assert sorted(paths, key=natural_key) == ["img_1.jpg", "img_2.jpg", "img_10.jpg"]

    def test_mixed_segments(self):
        assert natural_key("a12b3") == ("a", 12, "b", 3, "")


def import_rows(tmp_path, rows):
    path = write_csv(tmp_path / "in.csv", rows)
    imported, _ = import_csv(path, MAPPING)
    return imported


class TestBuildRegistry:
    def test_natural_sequence_ordering(self, tmp_path):
        rows = import_rows(
            tmp_path,
            ["1881,Vichy,6M1,img_2.jpg,", "1881,Vichy,6M1,img_10.jpg,"],
        )
        result = build_registry(rows, GAZETTEER)
        (register,) = result.registry.registers
        identifiers = [img.iiif_identifier for img in register.images]
        assert identifiers == ["img_2.jpg", "img_10.jpg"]
        assert [img.sequence_index for img in register.images] == [0, 1]

    def test_cancelled_year_routed_to_exceptions(self, tmp_path):
        rows = import_rows(tmp_path, ["1916,Vichy,6M1,img_1.jpg,"])
        result = build_registry(rows, GAZETTEER)
        assert result.registry.registers == ()
        (exc,) = result.exceptions
        assert exc.reason == "InvalidCensusYear"

    def test_conservation(self, tmp_path):
        rows = import_rows(
            tmp_path,
            [
                "1881,Vichy,6M1,img_1.jpg,",
                "1916,Vichy,6M1,img_2.jpg,",
                "183?,Vichy,6M1,img_3.jpg,",
                "1881,Nowhere,6M1,img_4.jpg,",
                "1881,Moulins,6M1,img_5.jpg,",  # ambiguous across departments
                "1881,Vichy,6M1,img_1.jpg,",  # duplicate path
            ],
        )
        result = build_registry(rows, GAZETTEER)
        total = result.registry.image_count() + len(result.exceptions)
        assert total == len(rows)
        reasons = sorted(e.reason for e in result.exceptions)
        assert reasons == [
            "AmbiguousCommune",
            "DuplicateImagePath",
            "InvalidCensusYear",
            "UnmatchedCommune",
            "UnparseableYear",
        ]

    def test_ambiguous_worklist_and_resolutions(self, tmp_path):
        rows = import_rows(tmp_path, ["1881,Moulins,6M1,img_1.jpg,"])
        result = build_registry(rows, GAZETTEER)
        assert result.registry.registers == ()
        (record,) = result.ambiguous
        assert isinstance(record, AmbiguousRecord) and record.name == "Moulins"

        worklist = tmp_path / "ambiguous.csv"
        write_ambiguous_csv(result.ambiguous, worklist)
        text = worklist.read_text(encoding="utf-8").splitlines()
        text[1] = text[1].rstrip() + "03190"  # fill resolved_code
        worklist.write_text("\n".join(text) + "\n", encoding="utf-8")
        resolutions = load_resolutions(worklist)
        assert resolutions == {"Moulins": "03190"}

        retried = build_registry(rows, GAZETTEER, resolutions=resolutions)
        assert retried.registry.image_count() == 1
        assert retried.registry.registers[0].metadata.commune.code == "03190"

    def test_grouping_by_year_commune_archival_id(self, tmp_path):
        rows = import_rows(
            tmp_path,
            [
                "1881,Vichy,6M1,a.jpg,",
                "1881,Vichy,6M2,b.jpg,",
                "1886,Vichy,6M1,c.jpg,",
            ],
        )
        result = build_registry(rows, GAZETTEER)
        keys = [
            (r.metadata.census_year, r.metadata.archival_id)
            for r in result.registry.registers
        ]
        assert keys == [(1881, "6M1"), (1881, "6M2"), (1886, "6M1")]

    def test_register_id_shape(self, tmp_path):
        rows = import_rows(tmp_path, ["1881,Vichy,6M 1,a.jpg,"])
        result = build_registry(rows, GAZETTEER)
        assert result.registry.registers[0].metadata.register_id == "1881-03310-6m-1"


class TestPersistence:
    def test_registry_roundtrip_and_determinism(self, tmp_path):
        rows = import_rows(
            tmp_path,
            ["1881,Vichy,6M1,img_2.jpg,", "1881,Vichy,6M1,img_10.jpg,",
             "1886,Neuilly-le-Réal,6M9,img_1.jpg,"],
        )
        result = build_registry(rows, GAZETTEER)
        first = tmp_path / "registry_1.ndjson"
        second = tmp_path / "registry_2.ndjson"
        save_registry(result.registry, first)
        save_registry(build_registry(rows, GAZETTEER).registry, second)
        assert first.read_bytes() == second.read_bytes()
        loaded = load_registry(first)
        assert loaded == result.registry

    def test_gazetteer_roundtrip(self, tmp_path):
        path = tmp_path / "gazetteer.csv"
        save_gazetteer(GAZETTEER, path)
        assert load_gazetteer(path) == GAZETTEER

    def test_duplicate_gazetteer_code_rejected(self, tmp_path):
        path = tmp_path / "gazetteer.csv"
        path.write_text(
            "code,canonical_name,department,variants\n1,A,D,\n1,B,D,\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_gazetteer(path)

    def test_exceptions_csv(self, tmp_path):
        rows = import_rows(tmp_path, ["1916,Vichy,6M1,img_1.jpg,"])
        result = build_registry(rows, GAZETTEER)
        out = tmp_path / "exceptions.csv"
        write_exceptions_csv(result.exceptions, out)
        assert "InvalidCensusYear" in out.read_text(encoding="utf-8")
