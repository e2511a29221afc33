import random

import pytest

from synthex.core import (
    Entity,
    Mention,
    Schema,
    Triple,
    atomic_writer,
    SourceDocument,
    Span,
    load_records,
    normalize_surface,
    record_from_dict,
    record_to_dict,
    save_records,
    split_paragraphs,
)


class TestNormalizeSurface:
    def test_strips_and_collapses(self):
        assert normalize_surface("  The  University of Vienna ") == "the university of vienna"

    def test_empty(self):
        assert normalize_surface("") == ""

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Universität Wien", "universität wien"),
            ("Ärger", "ärger"),
            ("ÉCOLE", "école"),
            ("ΩMEGA", "ωmega"),
            ("STRASSE", "strasse"),
        ],
    )
    def test_case_folding_reference_pairs(self, raw, expected):
        assert normalize_surface(raw) == expected

    def test_idempotent(self):
        rng = random.Random(7)
        alphabet = "aA bB\tÖö\n.,'é "
        for _ in range(200):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            once = normalize_surface(s)
            assert normalize_surface(once) == once

    def test_mixed_whitespace(self):
        assert normalize_surface("a\t b\n\nc") == "a b c"


class TestSplitParagraphs:
    def test_single_separator(self):
        assert split_paragraphs("A.\n\nB.") == ["A.", "B."]

    def test_no_blank_line(self):
        assert split_paragraphs("A.\nB.") == ["A.\nB."]

    def test_whitespace_only_line_is_a_separator(self):
        assert split_paragraphs("A.\n \t\nB.") == ["A.", "B."]

    def test_multiple_blank_lines(self):
        assert split_paragraphs("A.\n\n\n\nB.") == ["A.", "B."]

    def test_drops_empty_segments(self):
        assert split_paragraphs("\n\nA.\n\n\n\n") == ["A."]

    def test_fixture_round_trip(self):
        paragraphs = [
            "First paragraph with several words in it.",
            "Second one.\nStill the second paragraph.",
            "Third paragraph closes the document.",
        ]
        text = "\n\n".join(paragraphs)
        result = split_paragraphs(text)
        assert result == paragraphs
        assert "\n\n".join(result) == text


class TestTypes:
    def test_document_requires_id_and_text(self):
        with pytest.raises(ValueError):
            SourceDocument(id="", text="hello")
        with pytest.raises(ValueError):
            SourceDocument(id="d1", text="   \n ")

    @pytest.mark.parametrize("start,end", [(-1, 2), (3, 3), (5, 2)])
    def test_span_validation(self, start, end):
        with pytest.raises(ValueError):
            Span(start, end)

    def test_schema_dedup_after_normalization(self):
        schema = Schema.from_lists(["Person", " person ", "Place"], ["born_in", "BORN_IN"])
        assert schema.entity_types == ("Person", "Place")
        assert schema.relation_types == ("born_in",)

    def test_schema_nonempty_gate(self):
        with pytest.raises(ValueError):
            Schema.from_lists([], ["r"]).require_nonempty()


class TestRecordPersistence:
    def test_sample_record_loads_bare_release_shape(self, uni_vienna_dict):
        record = record_from_dict(uni_vienna_dict, default_doc_id="d0")
        assert record.doc_id == "d0"
        assert len(record.entities) == 6
        assert len(record.triples) == 4
        # Mentions are recovered from the annotated text.
        assert len(record.mentions) == 7
        assert record.entity_types == (
            "Educational institution",
            "Location",
            "Country",
            "Person",
            "Award",
        )
        assert record.relation_types == ("located_in", "founded_by", "home_of")

    def test_mention_text_consistency(self, uni_vienna_record):
        for m in uni_vienna_record.mentions:
            assert uni_vienna_record.text[m.span.start : m.span.end] == m.surface

    def test_type_closure(self, uni_vienna_record):
        assert set(uni_vienna_record.entity_types) == {
            e.type_label for e in uni_vienna_record.entities
        }
        assert set(uni_vienna_record.relation_types) == {
            t.predicate for t in uni_vienna_record.triples
        }

    def test_jsonl_round_trip(self, tmp_path, uni_vienna_record):
        path = tmp_path / "records.jsonl"
        save_records([uni_vienna_record], path)
        loaded = load_records(path)
        assert loaded == [uni_vienna_record]

    def test_round_trip_preserves_field_shapes(self, uni_vienna_record):
        data = record_to_dict(uni_vienna_record)
        assert set(data["entities"][0]) == {"id", "name", "type"}
        assert set(data["relations"][0]) == {
            "description",
            "triple_string",
            "subject",
            "predicate",
            "object",
        }
        assert set(data["mentions"][0]) == {"entity_id", "start", "end", "surface", "type"}

    @pytest.mark.parametrize("inventory", ["", 0, False, {}, None, "Person", [1]])
    def test_wrongly_typed_inventory_is_refused(self, inventory):
        # A falsy value of the wrong type is refused, not replaced by the derived inventory.
        data = {"text": "x", "annotated_text": "x", "entities": [{"id": 0, "name": "x", "type": "T"}]}
        for key in ("entity_types", "relation_types"):
            with pytest.raises(TypeError, match="entity_types and relation_types are lists of strings"):
                record_from_dict({**data, key: inventory})
        with pytest.raises(TypeError):
            record_from_dict({**data, "entity_types": "", "relation_types": 0})

    def test_omitted_or_empty_inventory_is_derived(self):
        data = {"text": "x", "annotated_text": "x", "entities": [{"id": 0, "name": "x", "type": "T"}]}
        assert record_from_dict(data).entity_types == ("T",)
        assert record_from_dict({**data, "entity_types": []}).entity_types == ("T",)

    def test_duplicate_corpus_ids_rejected(self, tmp_path):
        from synthex.core import dump_jsonl, load_corpus

        path = tmp_path / "corpus.jsonl"
        dump_jsonl(
            [{"id": "a", "text": "one"}, {"id": "a", "text": "two"}],
            path,
        )
        with pytest.raises(ValueError, match=r"duplicate document ids \['a'\] in corpus"):
            load_corpus(path)


class TestAtomicWriter:
    def test_replaces_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old", encoding="utf-8")
        with atomic_writer(target) as fh:
            fh.write("new\r\nline")
        assert target.read_bytes() == b"new\r\nline"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_keeps_old_file_and_deletes_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert target.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_concurrent_writers_use_distinct_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_writer(target) as first, atomic_writer(target) as second:
            assert first.name != second.name
            first.write("first")
            second.write("second")
        assert target.read_text(encoding="utf-8") == "first"


class TestElementCodecs:
    @pytest.mark.parametrize("codec, data, field", [
        (Entity.from_dict, {"id": 0, "name": 5, "type": "T"}, "name"),
        (Entity.from_dict, {"id": True, "name": "n", "type": "T"}, "id"),
        (Entity.from_dict, {"id": 0, "name": "n", "type": None}, "type"),
        (Mention.from_dict, {"entity_id": 0, "start": 0, "end": 1.0, "surface": "a", "type": "T"}, "end"),
        (Mention.from_dict, {"entity_id": 0, "start": 0, "end": 1, "surface": "a", "type": 3}, "type"),
        (Triple.from_dict, {"description": 1, "subject": 0, "predicate": "p", "object": 1}, "description"),
        (Triple.from_dict, {"subject": 0, "predicate": ["p"], "object": 1}, "predicate"),
        (Triple.from_dict, {"subject": 0, "predicate": "p", "object": "1"}, "object"),
    ])
    def test_type_error_names_the_failing_field(self, codec, data, field):
        with pytest.raises(TypeError) as err:
            codec(data)
        assert err.value.field == field
        assert f"; its {field} is {data[field]!r}" in str(err.value)

    def test_missing_field_is_a_key_error_naming_it(self):
        with pytest.raises(KeyError, match="'name'"):
            Entity.from_dict({"id": 0, "type": "T"})
