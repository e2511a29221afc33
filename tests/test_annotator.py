import json
import random
from dataclasses import replace

import pytest

from synthex.annotator import (
    ECHO_MISMATCH,
    MENTION_NOT_IN_TEXT,
    MISSING_SPAN_ANNOTATION,
    SYNTAX_ERROR,
    TRIPLE_ID_UNKNOWN,
    TRIPLE_NAME_MISMATCH,
    Annotator,
    FailureRecord,
    MissingKeyError,
    build_zero_shot_prompt,
    collect_length_stats,
    failure_to_dict,
    json_escape,
    parse_annotation_response,
    sentence_spans,
    split_sentences,
    truncate_text,
    verify_annotation,
    word_count,
)
from synthex.core import LAYOUT_ALIASES, AnnotationRecord, SourceDocument, record_from_dict
from synthex.gateway import CacheMissError, ResponseSyntaxError
from synthex.markup import parse_annotated

from conftest import make_passing_record, params_for, raw_from_record, replay_gateway


class TestSplitSentences:
    def test_basic(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_abbreviation_suppresses_break(self):
        assert split_sentences("Dr. Who ran.") == ["Dr. Who ran."]

    def test_no_terminator(self):
        assert split_sentences("One") == ["One"]

    def test_single_capital_initial(self):
        assert split_sentences("J. Smith arrived. He sat down.") == [
            "J. Smith arrived.",
            "He sat down.",
        ]

    def test_lowercase_continuation_not_a_break(self):
        assert split_sentences("It was v. cold that day.") == ["It was v. cold that day."]

    def test_question_and_exclamation(self):
        assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_decimal_number_not_a_break(self):
        assert split_sentences("Pi is 3.14 roughly. True.") == ["Pi is 3.14 roughly.", "True."]

    def test_separators_restore_input(self):
        text = "First one.  Second two.\nThird three."
        spans = sentence_spans(text)
        rebuilt = ""
        cursor = 0
        for a, b in spans:
            rebuilt += text[cursor:a] + text[a:b]
            cursor = b
        rebuilt += text[cursor:]
        assert rebuilt == text
        assert [text[a:b] for a, b in spans] == ["First one.", "Second two.", "Third three."]

    def test_mixed_abbreviations(self):
        text = "Mr. Jones met Mrs. Smith. They left."
        assert split_sentences(text) == ["Mr. Jones met Mrs. Smith.", "They left."]


def _sentence(words: int, index: int) -> str:
    body = " ".join(f"w{index}x{i}" for i in range(words - 1))
    return f"Start {body}.".replace("Start .", "Start.")


class TestTruncateText:
    def test_three_forty_word_sentences_all_kept(self):
        sentences = [_sentence(40, i) for i in range(3)]
        text = " ".join(sentences)
        out = truncate_text(text, 100)
        assert out == text.rstrip()
        assert word_count(out) == 120

    def test_stops_at_first_crossing(self):
        sentences = [_sentence(40, i) for i in range(5)]
        text = " ".join(sentences)
        out = truncate_text(text, 100)
        assert word_count(out) == 120  # 40+40+40 crosses at the third sentence
        assert text.startswith(out)

    def test_short_text_unchanged(self):
        text = " ".join(f"w{i}" for i in range(50))
        assert truncate_text(text, 100) == text

    def test_empty_string(self):
        assert truncate_text("", 100) == ""

    def test_min_words_validation(self):
        with pytest.raises(ValueError):
            truncate_text("abc", 0)

    def test_prefix_property_sample(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 8)
            text = " ".join(_sentence(rng.randint(5, 60), i) for i in range(n))
            out = truncate_text(text, 100)
            assert text.startswith(out)
            assert word_count(out) >= min(100, word_count(text))


class TestZeroShotPrompt:
    def test_quote_escaping(self):
        prompt = build_zero_shot_prompt('a"b')
        assert 'a\\"b' in prompt
        assert '\na"b\n' not in prompt

    def test_newline_escaping(self):
        prompt = build_zero_shot_prompt("line one\nline two")
        assert "line one\\nline two" in prompt

    def test_sample_text_slot(self, uni_vienna_record):
        prompt = build_zero_shot_prompt(uni_vienna_record.text)
        assert json_escape(uni_vienna_record.text) in prompt

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            build_zero_shot_prompt("")

    def test_template_structure_preserved(self):
        prompt = build_zero_shot_prompt("sample")
        assert prompt.count("```json") == 1
        assert "'text_with_spans'" in prompt
        assert "'triples'" in prompt
        assert "{text}" not in prompt


def _response_from(payload: dict) -> str:
    return "Here you go:\n```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```\n"


class TestParseAnnotationResponse:
    def test_sample_shaped_object(self, uni_vienna_dict):
        payload = {
            "text_with_spans": uni_vienna_dict["annotated_text"],
            "entities": uni_vienna_dict["entities"],
            "triples": uni_vienna_dict["relations"],
            "relation_types": ["located_in", "founded_by", "home_of"],
            "entity_types": ["Educational institution", "Location", "Country", "Person", "Award"],
        }
        raw = parse_annotation_response(_response_from(payload))
        assert len(raw.entities) == 6
        assert len(raw.triples) == 4

    def test_release_shape_aliases_accepted(self, uni_vienna_dict):
        payload = {
            "text": uni_vienna_dict["text"],
            "annotated_text": uni_vienna_dict["annotated_text"],
            "entities": uni_vienna_dict["entities"],
            "relations": uni_vienna_dict["relations"],
            "relation_types": [],
            "entity_types": [],
        }
        raw = parse_annotation_response(_response_from(payload))
        assert len(raw.triples) == 4

    def test_empty_object_names_first_missing_key(self):
        with pytest.raises(MissingKeyError) as err:
            parse_annotation_response("{}")
        assert err.value.key == "text_with_spans"

    def test_non_json(self):
        with pytest.raises(ResponseSyntaxError):
            parse_annotation_response("{'text_with_spans': 'nope'}")

    def test_malformed_entity_element(self):
        payload = {
            "text_with_spans": "x",
            "entities": [{"id": 0, "type": "T"}],
            "triples": [],
            "relation_types": [],
            "entity_types": [],
        }
        with pytest.raises(MissingKeyError) as err:
            parse_annotation_response(_response_from(payload))
        assert err.value.key == "entities[0].name"

    def test_string_entity_id_rejected(self):
        payload = {
            "text_with_spans": "x",
            "entities": [{"id": "0", "name": "n", "type": "T"}],
            "triples": [],
            "relation_types": [],
            "entity_types": [],
        }
        with pytest.raises(MissingKeyError):
            parse_annotation_response(_response_from(payload))


    def test_both_spellings_read_as_the_same_key(self, uni_vienna_dict):
        # A layout carrying both spellings of each aliased key is read the
        # same way as a response and as a record: the first spelling wins.
        triples, relations = uni_vienna_dict["relations"][:1], uni_vienna_dict["relations"][1:]
        plain = uni_vienna_dict["text"]
        payload = {
            "text": plain,
            "text_with_spans": uni_vienna_dict["annotated_text"],
            "annotated_text": plain,
            "entities": uni_vienna_dict["entities"],
            "triples": triples,
            "relations": relations,
            "relation_types": [],
            "entity_types": [],
        }
        assert LAYOUT_ALIASES == {
            "text_with_spans": ("text_with_spans", "annotated_text"), "triples": ("triples", "relations"),
        }
        raw = parse_annotation_response(_response_from(payload))
        record = record_from_dict(payload)
        assert raw.text_with_spans == record.annotated_text == uni_vienna_dict["annotated_text"]
        assert [t.to_dict() for t in raw.triples] == [t.to_dict() for t in record.triples] == triples

    @pytest.mark.parametrize("edit, path", [
        (lambda p: p.pop("relation_types"), "relation_types"),
        (lambda p: p.update(entity_types="T"), "entity_types"),
        (lambda p: p.update(triples={}), "triples"),
        (lambda p: p.update(text=5), "text"),
        (lambda p: p.update(text_with_spans=None), "text_with_spans"),
        (lambda p: p["entities"].append([0, "n", "T"]), "entities[1]"),
        (lambda p: p["entities"][0].update(type=""), "entities[0].type"),
        (lambda p: p["entities"][0].update(name=""), "entities[0].name"),
        (lambda p: p["entities"][0].update(id=1.5), "entities[0].id"),
        (lambda p: p["triples"].append(None), "triples[1]"),
        (lambda p: p["triples"][0].pop("description"), "triples[0].description"),
        (lambda p: p["triples"][0].pop("object"), "triples[0].object"),
        (lambda p: p["triples"][0].update(subject=False), "triples[0].subject"),
    ])
    def test_refusal_names_the_failing_path(self, edit, path):
        payload = {
            "text_with_spans": '<ent id="0" type="T">x</ent>',
            "entities": [{"id": 0, "name": "x", "type": "T"}],
            "triples": [{"description": "", "triple_string": "(x, p, x)", "subject": 0, "predicate": "p", "object": 0}],
            "relation_types": ["p"],
            "entity_types": ["T"],
        }
        assert len(parse_annotation_response(_response_from(payload)).triples) == 1
        edit(payload)
        with pytest.raises(MissingKeyError) as err:
            parse_annotation_response(_response_from(payload))
        assert err.value.key == path

    def test_json_value_that_is_no_object_lacks_the_markup(self):
        with pytest.raises(MissingKeyError) as err:
            parse_annotation_response("```json\n[1, 2]\n```")
        assert err.value.key == "text_with_spans"


class TestVerifyAnnotation:
    def test_sample_record_passes(self, uni_vienna_record):
        report = verify_annotation(raw_from_record(uni_vienna_record), uni_vienna_record.text)
        assert report.passed

    def test_generated_fixtures_pass(self):
        rng = random.Random(5)
        for i in range(20):
            record = make_passing_record(rng, f"g{i}")
            report = verify_annotation(raw_from_record(record), record.text)
            assert report.passed, report.errors

    def test_altered_mention_detected(self, uni_vienna_record):
        raw = raw_from_record(uni_vienna_record)
        broken = raw.text_with_spans.replace(">scholars</ent>", ">schalors!</ent>")
        raw = replace(raw, text_with_spans=broken)
        report = verify_annotation(raw, uni_vienna_record.text)
        assert MENTION_NOT_IN_TEXT in report.kinds()

    def test_unknown_triple_id(self, uni_vienna_record):
        raw = raw_from_record(uni_vienna_record)
        bad_triple = raw.triples[0]
        bad = type(bad_triple)(
            description=bad_triple.description,
            triple_string=bad_triple.triple_string,
            subject=bad_triple.subject,
            predicate=bad_triple.predicate,
            object=99,
        )
        raw = replace(raw, triples=(bad,) + raw.triples[1:])
        report = verify_annotation(raw, uni_vienna_record.text)
        assert report.kinds() == {TRIPLE_ID_UNKNOWN}

    def test_triple_string_comma_overflow_is_name_mismatch(self, uni_vienna_record):
        raw = raw_from_record(uni_vienna_record)
        t = raw.triples[0]
        bad = type(t)(t.description, "(a, b, c, d)", t.subject, t.predicate, t.object)
        raw = replace(raw, triples=(bad,) + raw.triples[1:])
        report = verify_annotation(raw, uni_vienna_record.text)
        assert report.kinds() == {TRIPLE_NAME_MISMATCH}

    def test_multiple_findings_reported_together(self, uni_vienna_record):
        raw = raw_from_record(uni_vienna_record)
        extra_entity = type(raw.entities[0])(id=77, name="Ghost", type_label="Thing")
        t = raw.triples[0]
        bad_triple = type(t)(t.description, t.triple_string, t.subject, t.predicate, 99)
        raw = replace(raw, entities=raw.entities + (extra_entity,), triples=(bad_triple,) + raw.triples[1:])
        report = verify_annotation(raw, uni_vienna_record.text)
        assert report.kinds() == {MISSING_SPAN_ANNOTATION, TRIPLE_ID_UNKNOWN}


def _good_response(text: str, with_triple: bool = False) -> str:
    word = text.split()[0]
    annotated = text.replace(word, f'<ent id="0" type="Topic">{word}</ent>', 1)
    entities = [{"id": 0, "name": word, "type": "Topic"}]
    triples = []
    if with_triple:
        second = text.split()[1]
        annotated = annotated.replace(f" {second}", f' <ent id="1" type="Topic2">{second}</ent>', 1)
        entities.append({"id": 1, "name": second, "type": "Topic2"})
        triples.append(
            {
                "description": f"{word} relates to {second}.",
                "triple_string": f"({word}, related_to, {second})",
                "subject": 0,
                "predicate": "related_to",
                "object": 1,
            }
        )
    payload = {
        "text_with_spans": annotated,
        "entities": entities,
        "triples": triples,
        "relation_types": [t["predicate"] for t in triples],
        "entity_types": sorted({e["type"] for e in entities}),
    }
    return _response_from(payload)


MODEL = "test-model"


class TestAnnotateDocument:
    def _doc(self):
        return SourceDocument(id="d1", text="alpha beta gamma delta.")

    def test_happy_path_first_attempt(self, tmp_path):
        doc = self._doc()
        prompt = build_zero_shot_prompt(doc.text)
        gateway = replay_gateway(
            tmp_path, [(prompt, params_for(MODEL, 0.0), _good_response(doc.text))]
        )
        annotator = Annotator(gateway, model_name=MODEL)
        record = annotator.annotate(doc)
        assert isinstance(record, AnnotationRecord)
        assert record.provenance == {"attempt": 1, "temperatures": [0.0], "retried": False}
        assert record.entities[0].name == "alpha"
        assert record.text == doc.text

    def test_accepted_markup_parsed_once(self, tmp_path, monkeypatch):
        import synthex.annotator

        parsed = []

        def counted(text):
            parsed.append(text)
            return parse_annotated(text)

        monkeypatch.setattr(synthex.annotator, "parse_annotated", counted)
        doc = self._doc()
        gateway = replay_gateway(
            tmp_path, [(build_zero_shot_prompt(doc.text), params_for(MODEL, 0.0), _good_response(doc.text))]
        )
        record = Annotator(gateway, model_name=MODEL).annotate(doc)
        assert parsed == [record.annotated_text]
        assert record.mentions == tuple(parse_annotated(record.annotated_text)[1])

    def test_retry_succeeds_at_higher_temperature(self, tmp_path):
        doc = self._doc()
        prompt = build_zero_shot_prompt(doc.text)
        gateway = replay_gateway(
            tmp_path,
            [
                (prompt, params_for(MODEL, 0.0), "sorry, I cannot produce JSON today"),
                (prompt, params_for(MODEL, 0.2), _good_response(doc.text)),
            ],
        )
        record = Annotator(gateway, model_name=MODEL).annotate(doc)
        assert isinstance(record, AnnotationRecord)
        assert record.provenance == {"attempt": 2, "temperatures": [0.0, 0.2], "retried": True}

    def test_two_failures_yield_failure_record(self, tmp_path):
        doc = self._doc()
        prompt = build_zero_shot_prompt(doc.text)
        gateway = replay_gateway(
            tmp_path,
            [
                (prompt, params_for(MODEL, 0.0), "no json"),
                (prompt, params_for(MODEL, 0.2), "still no json"),
            ],
        )
        failure = Annotator(gateway, model_name=MODEL).annotate(doc)
        assert isinstance(failure, FailureRecord)
        assert len(failure.reports) == 2
        assert failure.reports[0].kinds() == {SYNTAX_ERROR}
        attempts = failure_to_dict(failure)["attempts"]
        assert (attempts[0]["temperature"], attempts[1]["temperature"]) == (0.0, 0.2)
        assert failure_to_dict(failure)["word_count"] == 4

    def test_gateway_errors_propagate(self, tmp_path):
        gateway = replay_gateway(tmp_path)  # empty cache
        with pytest.raises(CacheMissError):
            Annotator(gateway, model_name=MODEL).annotate(self._doc())

    def test_truncation_applied_before_prompting(self, tmp_path):
        long_text = " ".join(_sentence(60, i) for i in range(4))
        doc = SourceDocument(id="long", text=long_text)
        truncated = truncate_text(long_text, 100)
        assert truncated != long_text
        prompt = build_zero_shot_prompt(truncated)
        gateway = replay_gateway(
            tmp_path, [(prompt, params_for(MODEL, 0.0), _good_response(truncated))]
        )
        record = Annotator(gateway, model_name=MODEL).annotate(doc)
        assert record.text == truncated

    def test_mention_types_aligned_to_entity(self, tmp_path):
        # The tag says "Thing" but the entities list says "Topic"; the record
        # keeps the entity's label on the mention.
        doc = SourceDocument(id="d1", text="alpha beta.")
        payload = {
            "text_with_spans": '<ent id="0" type="Thing">alpha</ent> beta.',
            "entities": [{"id": 0, "name": "alpha", "type": "Topic"}],
            "triples": [],
            "relation_types": [],
            "entity_types": ["Topic"],
        }
        prompt = build_zero_shot_prompt(doc.text)
        gateway = replay_gateway(
            tmp_path, [(prompt, params_for(MODEL, 0.0), _response_from(payload))]
        )
        record = Annotator(gateway, model_name=MODEL).annotate(doc)
        assert isinstance(record, AnnotationRecord)
        assert record.mentions[0].type_label == "Topic"


class TestLengthStats:
    def test_successes_only(self):
        rng = random.Random(1)
        outcomes = []
        for i in range(10):
            record = make_passing_record(rng, f"s{i}")
            text = " ".join(f"w{j}" for j in range(80))
            outcomes.append(
                AnnotationRecord(
                    doc_id=record.doc_id,
                    text=text,
                    annotated_text=record.annotated_text,
                    entities=record.entities,
                    mentions=record.mentions,
                    triples=record.triples,
                    entity_types=record.entity_types,
                    relation_types=record.relation_types,
                )
            )
        rows = collect_length_stats(outcomes)
        assert len(rows) == 1
        assert rows[0].label == "75-99"
        assert rows[0].attempts == 10
        assert rows[0].failures == {}

    def test_failure_bucketed_by_word_count(self):
        from synthex.annotator import Finding, VerificationReport

        text = " ".join(f"w{i}" for i in range(120))
        failure = FailureRecord(
            doc_id="f1",
            text=text,
            reports=(VerificationReport(errors=(Finding(SYNTAX_ERROR, "x"),)),) * 2,
        )
        rows = collect_length_stats([failure])
        assert rows[0].label == "100-124"
        assert rows[0].failures == {SYNTAX_ERROR: 1}

    def test_conservation(self):
        from synthex.annotator import Finding, VerificationReport

        rng = random.Random(2)
        outcomes = []
        for i in range(20):
            if i % 3 == 0:
                text = " ".join(f"w{j}" for j in range(rng.randint(10, 150)))
                outcomes.append(
                    FailureRecord(
                        doc_id=f"f{i}",
                        text=text,
                        reports=(VerificationReport(errors=(Finding(ECHO_MISMATCH, "x"),)),),
                    )
                )
            else:
                outcomes.append(make_passing_record(rng, f"r{i}"))
        rows = collect_length_stats(outcomes)
        assert sum(r.attempts for r in rows) == 20
        for row in rows:
            for count in row.failures.values():
                assert count <= row.attempts

    def test_bucket_width_configurable(self):
        record = make_passing_record(random.Random(0), "r0")
        rows = collect_length_stats([record], bucket_width=1000)
        assert rows[0].label == "0-999"


class TestWordCount:
    def test_whitespace_runs(self):
        assert word_count("a  b\tc\nd") == 4

    def test_empty(self):
        assert word_count("") == 0
