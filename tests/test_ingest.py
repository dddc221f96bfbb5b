import csv
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import censusflow.ingest as ingest_module
from censusflow.domain import CorruptLine
from censusflow.fixtures import DEMO_GAZETTEER
from censusflow.ingest import (
    DEFAULT_THRESHOLD,
    VALID_CENSUS_YEARS,
    AmbiguousRecord,
    ColumnMapping,
    ColumnRole,
    EmptyFile,
    EmptyGazetteer,
    GazetteerEntry,
    ImageRef,
    MatchCandidate,
    MatchResult,
    MatchStatus,
    MissingColumn,
    RawRow,
    Register,
    RegisterMetadata,
    Registry,
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
        assert diagnostics == ["row 2: UnparseableYear '183?'"]

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


def dictreader_import_csv(path, mapping):
    """Reference importer: ``import_csv`` as it was with ``csv.DictReader``,
    one dict per row, and the byte-order mark allowed."""
    diagnostics = []
    rows = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path} has no header row")
        for column in mapping.roles:
            if mapping.roles[column] is not ColumnRole.IGNORE and column not in reader.fieldnames:
                raise MissingColumn(f"column {column!r} not in CSV header")
        year_col = mapping.column(ColumnRole.YEAR)
        commune_col = mapping.column(ColumnRole.COMMUNE)
        id_col = mapping.column(ColumnRole.ARCHIVAL_ID)
        path_col = mapping.column(ColumnRole.IMAGE_PATH)
        for number, record in enumerate(reader, start=2):  # header is line 1
            year_text = (record.get(year_col) or "").strip()
            try:
                year = int(year_text)
            except ValueError:
                year = None
                diagnostics.append(f"row {number}: UnparseableYear {year_text!r}")
            rows.append(
                RawRow(
                    row_number=number,
                    year=year,
                    year_text=year_text,
                    commune=(record.get(commune_col) or "").strip(),
                    archival_id=(record.get(id_col) or "").strip() if id_col else "",
                    image_path=(record.get(path_col) or "").strip(),
                )
            )
    return rows, diagnostics


def outcome(importer, path, mapping):
    """What an importer returns, or the type and message of what it raises."""
    try:
        return importer(path, mapping)
    except ValueError as exc:
        return type(exc), str(exc)


BOM = b"\xef\xbb\xbf"

NO_ID = ColumnMapping(
    {"annee": ColumnRole.YEAR, "commune": ColumnRole.COMMUNE, "chemin": ColumnRole.IMAGE_PATH}
)


class TestImportCsvOracle:
    """import_csv reads cells by column index; on any text it must give what
    the DictReader importer gives, rows, diagnostics and errors alike."""

    def check(self, tmp_path, text, mapping=MAPPING, bom=False):
        path = tmp_path / "in.csv"
        path.write_bytes((BOM if bom else b"") + text.encode("utf-8"))
        expected = outcome(dictreader_import_csv, path, mapping)
        assert outcome(import_csv, path, mapping) == expected
        return expected

    def test_blank_lines_are_skipped_and_not_numbered(self, tmp_path):
        rows, _ = self.check(
            tmp_path,
            "annee,commune,cote,chemin,notes\n\n1881,Vichy,6M1,a.jpg,\r\n\r\n\n"
            "18x1,Vichy,6M1,b.jpg,\n\n",
        )
        assert [(r.row_number, r.image_path) for r in rows] == [(2, "a.jpg"), (3, "b.jpg")]

    def test_short_and_long_rows(self, tmp_path):
        rows, _ = self.check(
            tmp_path,
            "annee,commune,cote,chemin,notes\n1881,Vichy\n1881,Vichy,6M1,a.jpg,n,extra,more\n"
            "1881\n,\n",
        )
        assert [(r.commune, r.archival_id, r.image_path) for r in rows] == [
            ("Vichy", "", ""), ("Vichy", "6M1", "a.jpg"), ("", "", ""), ("", "", ""),
        ]

    def test_duplicated_header_name_means_its_last_column(self, tmp_path):
        rows, _ = self.check(
            tmp_path, "commune,annee,cote,chemin,commune\nVichy,1881,6M1,a.jpg,Moulins\n"
            "Vichy,1881,6M1,b.jpg\n",
        )
        assert [r.commune for r in rows] == ["Moulins", ""]

    def test_quoted_cell_spanning_lines(self, tmp_path):
        rows, _ = self.check(
            tmp_path,
            'annee,commune,cote,chemin,notes\n1881,"Neuilly-\nle-Réal",6M1,a.jpg,"x\r\n\ny"\n'
            '1881,"Vi""chy",6M1,b.jpg,\n',
        )
        assert [(r.row_number, r.commune) for r in rows] == [(2, "Neuilly-\nle-Réal"),
                                                              (3, 'Vi"chy')]

    def test_header_only_and_empty_files(self, tmp_path):
        assert self.check(tmp_path, "annee,commune,cote,chemin,notes\n") == ([], [])
        assert self.check(tmp_path, "")[0] is EmptyFile
        assert self.check(tmp_path, "", bom=True)[0] is EmptyFile
        assert self.check(tmp_path, "\nannee,commune,cote,chemin\n")[0] is MissingColumn

    def test_byte_order_mark(self, tmp_path):
        rows, _ = self.check(tmp_path, "annee,commune,cote,chemin,notes\n1881,Vichy,6M1,a.jpg,\n",
                             bom=True)
        assert rows[0].year == 1881

    def test_mapping_without_archival_id(self, tmp_path):
        rows, _ = self.check(tmp_path, "annee,commune,cote,chemin\n1881,Vichy,6M1,a.jpg\n",
                             mapping=NO_ID)
        assert rows[0].archival_id == ""

    @given(
        st.lists(st.sampled_from(["annee", "commune", "cote", "chemin", "notes", "x", ""]),
                 max_size=7),
        st.text(alphabet='ab1881 ,"\r\n\té٣', max_size=80),
        st.sampled_from([MAPPING, NO_ID]),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_generated_text(self, tmp_path_factory, header, body, mapping, bom):
        """Headers with names missing, repeated or empty, and bodies with
        quotes, separators, line ends and non-ASCII digits."""
        self.check(tmp_path_factory.mktemp("csv"), ",".join(header) + "\n" + body,
                   mapping=mapping, bom=bom)


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
    """match_commune skips names whose length gap or character sets bound
    the score below threshold; its results must equal scoring every name."""

    def check(self, name, gazetteer, hint=None, threshold=0.85):
        expected = brute_force_match(name, gazetteer, hint, threshold=threshold)
        assert match_commune(name, gazetteer, hint, threshold=threshold) == expected
        return expected

    def test_bound_equal_to_threshold_is_still_scored(self):
        # Normalized lengths 5 and 4: the bound 1 - 1/5 equals 0.8 exactly.
        result = self.check("Lyons", [GazetteerEntry("69123", "Lyon", "Rhône")], threshold=0.8)
        assert [(c.entry.code, c.score) for c in result.candidates] == [("69123", 0.8)]

    def test_charset_bound_equal_to_threshold_is_still_scored(self):
        # Each side lacks one character type of the other: the bound 1 - 1/5
        # equals 0.8 exactly, as does the score.
        result = self.check("abcde", [GazetteerEntry("00001", "abcdx", "Ain")], threshold=0.8)
        assert [(c.entry.code, c.score) for c in result.candidates] == [("00001", 0.8)]

    def test_filter_scores_few_of_the_names_in_length_reach(self, monkeypatch):
        """A misspelt name is scored against only the names whose character
        sets are close to its own, not every name the length gap lets
        through."""
        original = ingest_module.levenshtein
        calls = []
        monkeypatch.setattr(ingest_module, "levenshtein",
                            lambda a, b: calls.append((a, b)) or original(a, b))
        result = match_commune("Mouline", DEMO_GAZETTEER)
        scored = len(calls)
        assert result == brute_force_match("Mouline", DEMO_GAZETTEER, threshold=DEFAULT_THRESHOLD)
        assert [c.entry.code for c in result.candidates] == ["03190"]
        query = normalize_name("Mouline")
        in_reach = [
            norm
            for entry in DEMO_GAZETTEER
            for norm in map(normalize_name, entry.all_names())
            if 1.0 - abs(len(query) - len(norm)) / max(len(query), len(norm))
            >= DEFAULT_THRESHOLD
        ]
        assert len(in_reach) >= 6
        assert 3 * scored <= len(in_reach)

    @pytest.mark.parametrize("keyword", ["threshold", "auto_threshold"])
    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan, math.inf])
    def test_threshold_outside_unit_interval(self, tmp_path, keyword, value):
        with pytest.raises(ValueError, match=f"{keyword} must be"):
            match_commune("Moulins", GAZETTEER, **{keyword: value})
        rows = import_rows(tmp_path, ["1916,Vichy,6M1,img_1.jpg,"])
        with pytest.raises(ValueError, match=f"{keyword} must be"):
            build_registry(rows, GAZETTEER, **{keyword: value})

    def test_department_hint(self):
        result = self.check("Moulin", GAZETTEER, "Côte-d'Or")
        assert [c.entry.code for c in result.candidates] == ["21425", "03190"]

    def test_only_the_historical_variant_passes(self):
        entry = GazetteerEntry("03254", "Saint-Pourçain-sur-Sioule", "Allier", ("Pourçain",))
        result = self.check("Pourcin", [entry, *GAZETTEER])
        assert [(c.entry.code, c.score) for c in result.candidates] == [("03254", 1 - 1 / 8)]

    names = st.text(alphabet="abelAÉéè-' 19", max_size=10)
    rows = st.tuples(
        names.filter(bool), st.sampled_from(["Ain", "Côte-d'Or"]), st.lists(names, max_size=2),
    )

    @given(
        st.lists(rows, min_size=1, max_size=8),
        names,
        st.sampled_from([None, "ain", "Cote d'or"]),
        st.sampled_from([0.0, 0.5, 0.75, 0.8, 0.85, 0.95, 1.0]) | st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_gazetteers_match_brute_force(self, rows, name, hint, threshold):
        """Accents, hyphens, apostrophes, digits and case, 0-2 variants per
        entry: the bounds never drop a name that scores at threshold."""
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

    @given(st.text(alphabet=st.sampled_from("a_.-/0123456789٣۹１") | st.characters(),
                   max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_per_part_expression(self, text):
        """Digit runs, Unicode digits such as '٣' included, become the same
        ints the one-part-at-a-time expression makes."""
        parts = re.split(r"(\d+)", text)
        assert natural_key(text) == tuple(int(p) if i % 2 else p for i, p in enumerate(parts))

    def test_unicode_digits(self):
        assert natural_key("p٣.jpg") == ("p", 3, ".jpg")


def import_rows(tmp_path, rows):
    path = write_csv(tmp_path / "in.csv", rows)
    imported, _ = import_csv(path, MAPPING)
    return imported


class TestBuildRegistry:
    def test_empty_gazetteer_when_nothing_is_matched(self, tmp_path):
        rows = import_rows(tmp_path, ["1916,Vichy,6M1,img_1.jpg,", "1881,Vichy,6M1,img_2.jpg,"])
        result = build_registry(rows, [], resolutions={"Vichy": "03310"})
        assert [e.reason for e in result.exceptions] == ["InvalidCensusYear",
                                                         "UnknownResolutionCode"]
        with pytest.raises(EmptyGazetteer):
            build_registry(rows, [])

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

    def test_a_register_id_taken_twice(self, tmp_path):
        """Archival ids that differ only in case or punctuation slug to one
        register id: the first group in sorted order keeps it, and each row
        of a later group is a ``DuplicateRegisterId`` exception naming the
        first group's archival id."""
        rows = import_rows(tmp_path, [
            "1881,Vichy,6m1,a.jpg,", "1881,Vichy,6M1,b.jpg,", "1881,Vichy,6M1,c.jpg,",
            "1881,Vichy,6M 2,d.jpg,", "1881,Vichy,6M-2,e.jpg,",
        ])
        result = build_registry(rows, GAZETTEER)
        ids = [r.metadata.register_id for r in result.registry.registers]
        assert ids == ["1881-03310-6m-2", "1881-03310-6m1"]
        assert [r.metadata.archival_id for r in result.registry.registers] == ["6M 2", "6M1"]
        assert [(e.row_number, e.reason, e.detail) for e in result.exceptions] == [
            (6, "DuplicateRegisterId",
             "register id 1881-03310-6m-2 already taken by archival id 6M 2"),
            (2, "DuplicateRegisterId",
             "register id 1881-03310-6m1 already taken by archival id 6M1"),
        ]
        assert result.registry.image_count() + len(result.exceptions) == len(rows)


class TestLoadResolutions:
    @pytest.mark.parametrize("header", ["nom,resolved_code", "name,candidates,best_code"])
    def test_header_without_its_columns(self, tmp_path, header):
        worklist = tmp_path / "worklist.csv"
        worklist.write_text(f"{header}\nMoulins,03190\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_resolutions(worklist)

    def test_no_header(self, tmp_path):
        worklist = tmp_path / "worklist.csv"
        worklist.write_text("", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_resolutions(worklist)

    def test_a_row_without_a_name_resolves_nothing(self, tmp_path):
        """An empty ``name`` cell, and a short row that has none."""
        worklist = tmp_path / "worklist.csv"
        worklist.write_text("resolved_code,name\n03190,\n03310\n03190,Moulins\n",
                            encoding="utf-8")
        assert load_resolutions(worklist) == {"Moulins": "03190"}


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

    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"])
    def test_line_breaks_inside_values_roundtrip(self, tmp_path, brk):
        """Identifiers and names may hold the line breaks that JSON writes
        raw; each registry line still ends at its "\\n"."""
        commune = GazetteerEntry(f"03{brk}310", f"Vi{brk}chy", f"Al{brk}lier", (f"V{brk}y",))
        meta = RegisterMetadata(1881, commune, f"6M{brk}1", (2, 3))
        registry = Registry((
            Register(meta, (ImageRef(meta, f"img{brk}_1.jpg", 0), ImageRef(meta, "img_2.jpg", 1))),
            Register(RegisterMetadata(1886, GAZETTEER[2], "6M2"),
                     (ImageRef(RegisterMetadata(1886, GAZETTEER[2], "6M2"), "a", 0),)),
        ))
        path = tmp_path / "registry.ndjson"
        save_registry(registry, path)
        assert brk in path.read_text(encoding="utf-8")
        assert load_registry(path) == registry

    @pytest.mark.parametrize("bad, reason", [
        (b"{not json", "Expecting property name"),
        (b"\xff", "'utf-8' codec can't decode"),
        (b"[1881]", "the line is list, not dict"),
        (b"{}", "missing key 'commune'"),
        (lambda r: dict(r, commune="Vichy"), "commune is str, not dict"),
        (lambda r: dict(r, census_year="1886"), "census_year is str, not int"),
        (lambda r: dict(r, census_year=1916), "1916 is not a census year"),
        (lambda r: dict(r, images={}), "images is dict, not list"),
        (lambda r: dict(r, images=[dict(r["images"][0], sequence_index=True)]),
         "sequence_index is bool, not int"),
        (lambda r: dict(r, images=[{"identifier": "a"}]), "missing key 'sequence_index'"),
    ], ids=["not-json", "not-utf8", "list", "no-commune", "commune-str", "year-str",
            "no-census", "images-dict", "index-bool", "no-index"])
    def test_a_line_that_is_not_a_register(self, tmp_path, bad, reason):
        """The first bad line raises one CorruptLine naming the file and
        the line's byte offset."""
        rows = import_rows(tmp_path, ["1881,Vichy,6M1,img_2.jpg,", "1886,Vichy,6M9,img_1.jpg,"])
        path = tmp_path / "registry.ndjson"
        save_registry(build_registry(rows, GAZETTEER).registry, path)
        first, second = path.read_bytes().splitlines(keepends=True)
        line = bad if isinstance(bad, bytes) else json.dumps(bad(json.loads(second))).encode()
        path.write_bytes(first + line + b"\n" + second)
        with pytest.raises(CorruptLine) as caught:
            load_registry(path)
        assert str(caught.value).startswith(
            f"{path}: line at byte {len(first)} is not a register: {reason}")

    def test_a_register_id_on_two_lines(self, tmp_path):
        """A line whose register id an earlier line had raises CorruptLine
        at that line's offset."""
        rows = import_rows(tmp_path, ["1881,Vichy,6M1,img_1.jpg,", "1886,Vichy,6M9,img_2.jpg,"])
        path = tmp_path / "registry.ndjson"
        save_registry(build_registry(rows, GAZETTEER).registry, path)
        first, second = path.read_bytes().splitlines(keepends=True)
        twin = json.dumps(dict(json.loads(first), archival_id="6m1")).encode() + b"\n"
        path.write_bytes(first + second + twin)
        with pytest.raises(CorruptLine) as caught:
            load_registry(path)
        assert caught.value.offset == len(first + second)
        assert caught.value.register_id == "1881-03310-6m1"
        assert "repeats an earlier line's register id" in str(caught.value)

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

    @pytest.mark.parametrize("row,missing", [(",Vichy,Allier,", "code"),
                                             ("03310, ,Allier,", "canonical name")],
                             ids=["blank-code", "blank-canonical-name"])
    def test_a_blank_code_or_name_names_the_file_and_line(self, tmp_path, row, missing):
        path = tmp_path / "gazetteer.csv"
        path.write_text("code,canonical_name,department,variants\n03190,Moulins,Allier,\n\n"
                        f"{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_gazetteer(path)
        assert str(caught.value) == f"{path}:4: gazetteer row without a {missing}"

    def test_a_header_without_code_is_a_missing_column(self, tmp_path):
        path = tmp_path / "gazetteer.csv"
        path.write_text("name,canonical_name,department,variants\n03190,Moulins,Allier,\n"
                        "03310,Vichy,Allier,\n", encoding="utf-8")
        with pytest.raises(MissingColumn) as caught:
            load_gazetteer(path)
        assert str(caught.value) == f"column 'code' not in gazetteer header of {path}"

    def test_exceptions_csv(self, tmp_path):
        rows = import_rows(tmp_path, ["1916,Vichy,6M1,img_1.jpg,"])
        result = build_registry(rows, GAZETTEER)
        out = tmp_path / "exceptions.csv"
        write_exceptions_csv(result.exceptions, out)
        assert "InvalidCensusYear" in out.read_text(encoding="utf-8")


class TestByteOrderMark:
    """Excel's "CSV UTF-8" writes a byte-order mark; the gazetteer, mapping
    and worklist read the same with and without one (``import_csv``: see
    ``TestImportCsvOracle``)."""

    def both(self, tmp_path, name, text, load):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(BOM + text.encode("utf-8"))
        expected = load(plain)
        assert load(marked) == expected
        return expected

    def test_gazetteer(self, tmp_path):
        text = "code,canonical_name,department,variants\n03190,Moulins,Allier,Molins\n" \
               "03310,Vichy,Allier,\n"
        entries = self.both(tmp_path, "gazetteer.csv", text, load_gazetteer)
        assert [e.code for e in entries] == ["03190", "03310"]

    def test_mapping(self, tmp_path):
        text = "annee=YEAR\ncommune=COMMUNE\nchemin=IMAGE_PATH\n"
        mapping = self.both(tmp_path, "mapping.txt", text, load_mapping)
        assert mapping.column(ColumnRole.YEAR) == "annee"

    def test_resolutions(self, tmp_path):
        text = "name,candidates,best_code,best_score,resolved_code\nMoulins,03190:1.0,03190,1.0,03190\n"
        assert self.both(tmp_path, "ambiguous.csv", text, load_resolutions) == {"Moulins": "03190"}
