import json
import re
from dataclasses import replace

import pytest

from synthex import inference
from synthex.annotator import parse_annotation_response, truncate_text, word_count
from synthex.cli import main
from synthex.core import Entity, Schema, SourceDocument, Triple
from synthex.demostore import EmptyIndexError, ExclusionList, build_index
from synthex.inference import (
    InferencePipeline,
    PartialAnnotation,
    Prediction,
    _prediction_from_raw,
    build_inference_prompt,
    enforce_schema,
    first_fragment,
    prediction_from_dict,
    prediction_to_dict,
)

from conftest import ChatStubHandler, good_annotation_response, params_for, replay_gateway, trivial_record

MODEL = "test-model"
SCHEMA = Schema.from_lists(["Person", "Organization"], ["member_of", "founded_by"])


def _json_blocks(prompt: str) -> list[dict]:
    return [json.loads(m) for m in re.findall(r"```json\n(.*?)\n```", prompt, re.DOTALL)]


class TestFirstFragment:
    def test_first_paragraph(self):
        doc = SourceDocument(id="d", text="P1.\n\nP2.")
        assert first_fragment(doc) == "P1."

    def test_single_long_paragraph_falls_back_to_truncation(self):
        sentences = " ".join(
            "Sentence number {} has exactly ten words inside it now.".format(i) for i in range(30)
        )
        doc = SourceDocument(id="d", text=sentences)
        fragment = first_fragment(doc)
        assert fragment == truncate_text(doc.text, 100)
        assert 100 <= word_count(fragment) < word_count(doc.text)

    def test_short_document_returned_whole(self):
        doc = SourceDocument(id="d", text="Just twenty words " * 2)
        assert first_fragment(doc) == doc.text.strip()


class TestBuildInferencePrompt:
    def test_demo_block_first_then_query(self, uni_vienna_record):
        prompt = build_inference_prompt(uni_vienna_record, None, "Query text here.", SCHEMA)
        blocks = _json_blocks(prompt)
        assert len(blocks) == 2
        demo, query = blocks
        assert demo["text"] == uni_vienna_record.text
        assert demo["text_with_spans"] == uni_vienna_record.annotated_text
        assert len(demo["entities"]) == 6
        assert len(demo["relations"]) == 4
        # Demonstration keeps its own inventories; the query carries the task schema.
        assert demo["entity_types"] == list(uni_vienna_record.entity_types)
        assert query["entity_types"] == list(SCHEMA.entity_types)
        assert query["relation_types"] == list(SCHEMA.relation_types)
        assert query["text"] == "Query text here."
        assert query["text_with_spans"] == ""
        assert query["entities"] == []
        assert query["relations"] == []

    def test_partial_prefilled_verbatim(self, uni_vienna_record):
        partial = PartialAnnotation(
            text="Alice founded Acme.",
            text_with_spans='<ent id="0" type="Person">Alice</ent> founded <ent id="1" type="Organization">Acme</ent>.',
            entities=(Entity(0, "Alice", "Person"), Entity(1, "Acme", "Organization")),
            triples=(Triple("Alice founded Acme.", "(Alice, founded_by, Acme)", 1, "founded_by", 0),),
        )
        prompt = build_inference_prompt(uni_vienna_record, partial, "Full document.", SCHEMA)
        query = _json_blocks(prompt)[1]
        assert query["entities"] == [
            {"id": 0, "name": "Alice", "type": "Person"},
            {"id": 1, "name": "Acme", "type": "Organization"},
        ]
        assert query["text_with_spans"] == partial.text_with_spans
        assert query["relations"][0]["predicate"] == "founded_by"

    def test_empty_schema_rejected(self, uni_vienna_record):
        with pytest.raises(ValueError):
            build_inference_prompt(
                uni_vienna_record, None, "q", Schema.from_lists([], [])
            )

    def test_instructions_present(self, uni_vienna_record):
        prompt = build_inference_prompt(uni_vienna_record, None, "q", SCHEMA)
        assert "Do not add any entity or relation types!" in prompt
        assert "reuse the entity ids" in prompt

    def test_slot_literal_in_demonstration_kept_verbatim(self):
        demo = trivial_record("d", "Use {query_block} here.")
        query_text = "Mara Voss founded the Delta Observatory."
        prompt = build_inference_prompt(demo, None, query_text, SCHEMA)
        assert prompt.count(query_text) == 1
        demo_block, query_block = _json_blocks(prompt)
        assert demo_block["text"] == "Use {query_block} here."
        assert demo_block["text_with_spans"] == demo.annotated_text
        # Once in the demonstration's text, once in its annotated text.
        assert prompt.count("{query_block}") == 2
        assert query_block["text"] == query_text


def _valid_prediction() -> Prediction:
    return Prediction(
        doc_id="d",
        entities=(
            Entity(0, "Alice", "Person"),
            Entity(1, "Acme", "Organization"),
            Entity(2, "Smaug", "Dragon"),
            Entity(3, "Bob", "person"),
            Entity(4, "Fake News", "Publication"),
        ),
        mentions=(),
        triples=(
            Triple("", "(Alice, member_of, Acme)", 0, "member_of", 1),
            Triple("", "(Smaug, member_of, Acme)", 2, "member_of", 1),
            Triple("", "(Alice, knows, Bob)", 0, "knows", 3),
            Triple("", "(Bob, member_of, Fake News)", 3, "member_of", 4),
        ),
        valid=True,
        raw_responses=("r1", "r2"),
    )


class TestEnforceSchema:
    def test_off_schema_entities_and_incident_triples_removed(self):
        pred = enforce_schema(_valid_prediction(), SCHEMA)
        assert [e.name for e in pred.entities] == ["Alice", "Acme", "Bob"]
        # Smaug (Dragon) and Fake News (Publication) removed -> their triples too;
        # the knows-triple dies on the off-schema predicate.
        assert [t.triple_string for t in pred.triples] == ["(Alice, member_of, Acme)"]
        assert pred.provenance["schema_drops"] == {"entities": 2, "triples": 3}

    def test_type_match_is_normalized(self):
        pred = enforce_schema(_valid_prediction(), SCHEMA)
        assert any(e.name == "Bob" for e in pred.entities)  # "person" matches "Person"

    def test_identity_when_everything_on_schema(self):
        pred = Prediction(
            doc_id="d",
            entities=(Entity(0, "Alice", "Person"),),
            mentions=(),
            triples=(),
            valid=True,
            raw_responses=("", ""),
        )
        result = enforce_schema(pred, SCHEMA)
        assert result.entities == pred.entities
        assert result.provenance["schema_drops"] == {"entities": 0, "triples": 0}

    def test_invalid_prediction_rejected(self):
        invalid = Prediction("d", (), (), (), False, ("", ""))
        with pytest.raises(ValueError):
            enforce_schema(invalid, SCHEMA)


def _completed_json(text, annotated, entities, relations, schema) -> str:
    payload = {
        "text": text,
        "entity_types": list(schema.entity_types),
        "text_with_spans": annotated,
        "entities": entities,
        "relation_types": list(schema.relation_types),
        "relations": relations,
    }
    return "```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```"


DOC = SourceDocument(
    id="query-1",
    text=(
        "Alice Rivera founded the Harbor Institute in 1990.\n\n"
        "Years later Bob Chen joined the Harbor Institute as a member of its board."
    ),
)


def _demo_index(uni_vienna_record):
    return build_index([uni_vienna_record], mode="fallback", min_words=100)


def _pipeline(tmp_path, uni_vienna_record, exchanges):
    gateway = replay_gateway(tmp_path, exchanges)
    return InferencePipeline(
        gateway=gateway, index=_demo_index(uni_vienna_record), model_name=MODEL
    )


def _call1_response():
    fragment = "Alice Rivera founded the Harbor Institute in 1990."
    annotated = (
        '<ent id="0" type="Person">Alice Rivera</ent> founded the '
        '<ent id="1" type="Organization">Harbor Institute</ent> in 1990.'
    )
    entities = [
        {"id": 0, "name": "Alice Rivera", "type": "Person"},
        {"id": 1, "name": "Harbor Institute", "type": "Organization"},
    ]
    relations = [
        {
            "description": "The Harbor Institute was founded by Alice Rivera.",
            "triple_string": "(Harbor Institute, founded_by, Alice Rivera)",
            "subject": 1,
            "predicate": "founded_by",
            "object": 0,
        }
    ]
    return fragment, _completed_json(fragment, annotated, entities, relations, SCHEMA)


def _call2_response():
    annotated = (
        '<ent id="0" type="Person">Alice Rivera</ent> founded the '
        '<ent id="1" type="Organization">Harbor Institute</ent> in 1990.\n\n'
        'Years later <ent id="2" type="Person">Bob Chen</ent> joined the '
        '<ent id="1" type="Organization">Harbor Institute</ent> as a member of its board.'
    )
    entities = [
        {"id": 0, "name": "Alice Rivera", "type": "Person"},
        {"id": 1, "name": "Harbor Institute", "type": "Organization"},
        {"id": 2, "name": "Bob Chen", "type": "Person"},
    ]
    relations = [
        {
            "description": "The Harbor Institute was founded by Alice Rivera.",
            "triple_string": "(Harbor Institute, founded_by, Alice Rivera)",
            "subject": 1,
            "predicate": "founded_by",
            "object": 0,
        },
        {
            "description": "Bob Chen is a member of the Harbor Institute.",
            "triple_string": "(Bob Chen, member_of, Harbor Institute)",
            "subject": 2,
            "predicate": "member_of",
            "object": 1,
        },
    ]
    return _completed_json(DOC.text, annotated, entities, relations, SCHEMA)


class TestInferDocument:
    def _seed_two_calls(self, tmp_path, uni_vienna_record, response2):
        fragment, response1 = _call1_response()
        prompt1 = build_inference_prompt(uni_vienna_record, None, fragment, SCHEMA)
        raw1 = json.loads(re.search(r"```json\n(.*?)\n```", response1, re.DOTALL).group(1))
        partial = PartialAnnotation(
            text=fragment,
            text_with_spans=raw1["text_with_spans"],
            entities=tuple(Entity(e["id"], e["name"], e["type"]) for e in raw1["entities"]),
            triples=tuple(
                Triple(r["description"], r["triple_string"], r["subject"], r["predicate"], r["object"])
                for r in raw1["relations"]
            ),
        )
        prompt2 = build_inference_prompt(uni_vienna_record, partial, DOC.text, SCHEMA)
        return [
            (prompt1, params_for(MODEL, 0.0), response1),
            (prompt2, params_for(MODEL, 0.0), response2),
        ], prompt2

    def test_two_call_happy_path(self, tmp_path, uni_vienna_record):
        exchanges, prompt2 = self._seed_two_calls(tmp_path, uni_vienna_record, _call2_response())
        pipeline = _pipeline(tmp_path, uni_vienna_record, exchanges)
        prediction = pipeline.infer(DOC, SCHEMA)
        assert prediction.valid
        assert [e.name for e in prediction.entities] == [
            "Alice Rivera",
            "Harbor Institute",
            "Bob Chen",
        ]
        assert len(prediction.triples) == 2
        # Call 2 saw call 1's annotations.
        query_block = _json_blocks(prompt2)[1]
        assert query_block["entities"][0]["name"] == "Alice Rivera"
        assert query_block["text_with_spans"].startswith('<ent id="0"')
        # Mentions were re-anchored into the full document text.
        for m in prediction.mentions:
            assert DOC.text[m.span.start : m.span.end] == m.surface

    def test_unparseable_call2_yields_invalid(self, tmp_path, uni_vienna_record):
        exchanges, _ = self._seed_two_calls(
            tmp_path, uni_vienna_record, "I refuse to answer in JSON."
        )
        prediction = _pipeline(tmp_path, uni_vienna_record, exchanges).infer(DOC, SCHEMA)
        assert not prediction.valid
        assert prediction.entities == ()
        assert prediction.mentions == ()
        assert prediction.triples == ()

    def test_deeply_nested_call2_yields_invalid(self, tmp_path, uni_vienna_record):
        exchanges, _ = self._seed_two_calls(tmp_path, uni_vienna_record, '{"a": ' + "[" * 100_000)
        prediction = _pipeline(tmp_path, uni_vienna_record, exchanges).infer(DOC, SCHEMA)
        assert not prediction.valid
        assert prediction.provenance["invalid_reason"].startswith("parse: candidate is not strict JSON")

    def test_echo_failure_yields_invalid(self, tmp_path, uni_vienna_record):
        bad = _call2_response().replace("Years later", "Decades later")
        exchanges, _ = self._seed_two_calls(tmp_path, uni_vienna_record, bad)
        prediction = _pipeline(tmp_path, uni_vienna_record, exchanges).infer(DOC, SCHEMA)
        assert not prediction.valid
        assert prediction.provenance["invalid_reason"] == "echo check failed"

    @pytest.mark.parametrize("bad_markup", ["Bob Chen", '<ent id="1" type="Organization">Bob Chen</ent></ent>'])
    def test_markup_error_yields_invalid_with_its_reason(self, tmp_path, uni_vienna_record, bad_markup):
        bad = _call2_response().replace("Bob Chen</ent>", bad_markup.replace('"', '\\"'), 1)
        exchanges, _ = self._seed_two_calls(tmp_path, uni_vienna_record, bad)
        prediction = _pipeline(tmp_path, uni_vienna_record, exchanges).infer(DOC, SCHEMA)
        assert not prediction.valid
        assert prediction.provenance["invalid_reason"].startswith("markup: ")

    def test_whitespace_relaxed_echo_accepted(self, tmp_path, uni_vienna_record):
        relaxed = _call2_response().replace("Years later", "Years  later")
        exchanges, _ = self._seed_two_calls(tmp_path, uni_vienna_record, relaxed)
        prediction = _pipeline(tmp_path, uni_vienna_record, exchanges).infer(DOC, SCHEMA)
        assert prediction.valid
        for m in prediction.mentions:
            assert DOC.text[m.span.start : m.span.end] == m.surface

    def test_call1_failure_is_not_a_gate(self, tmp_path, uni_vienna_record):
        fragment, _ = _call1_response()
        prompt1 = build_inference_prompt(uni_vienna_record, None, fragment, SCHEMA)
        prompt2 = build_inference_prompt(uni_vienna_record, None, DOC.text, SCHEMA)
        exchanges = [
            (prompt1, params_for(MODEL, 0.0), "garbage output"),
            (prompt2, params_for(MODEL, 0.0), _call2_response()),
        ]
        prediction = _pipeline(tmp_path, uni_vienna_record, exchanges).infer(DOC, SCHEMA)
        assert prediction.valid
        assert len(prediction.entities) == 3

    def test_deeply_nested_call1_is_not_a_gate(self, tmp_path, uni_vienna_record):
        fragment, _ = _call1_response()
        prompt1 = build_inference_prompt(uni_vienna_record, None, fragment, SCHEMA)
        prompt2 = build_inference_prompt(uni_vienna_record, None, DOC.text, SCHEMA)
        exchanges = [
            (prompt1, params_for(MODEL, 0.0), "```json\n" + "[" * 100_000 + "]" * 100_000 + "\n```"),
            (prompt2, params_for(MODEL, 0.0), _call2_response()),
        ]
        prediction = _pipeline(tmp_path, uni_vienna_record, exchanges).infer(DOC, SCHEMA)
        assert prediction.valid

    def test_off_schema_type_removed(self, tmp_path, uni_vienna_record):
        response = _call2_response().replace(
            '{"id": 2, "name": "Bob Chen", "type": "Person"}',
            '{"id": 2, "name": "Bob Chen", "type": "Dragon"}',
        )
        exchanges, _ = self._seed_two_calls(tmp_path, uni_vienna_record, response)
        prediction = _pipeline(tmp_path, uni_vienna_record, exchanges).infer(DOC, SCHEMA)
        assert prediction.valid
        assert [e.name for e in prediction.entities] == ["Alice Rivera", "Harbor Institute"]
        assert len(prediction.triples) == 1  # Bob's membership triple went with him
        assert prediction.provenance["schema_drops"]["entities"] == 1


DEMOS = [trivial_record("d0", "Alpha beta gamma."), trivial_record("d1", "Delta epsilon zeta.")]
QUERIES = [
    SourceDocument(id="q0", text="Alpha beta.\n\nGamma again."),
    SourceDocument(id="q1", text="Delta zeta.\n\nEpsilon once more."),
    SourceDocument(id="q2", text="Gamma alpha."),
    SourceDocument(id="q3", text="Beta beta gamma.\n\nAlpha."),
]


class AnnotatingGateway:
    """Answers each prompt by annotating the first word of its query block's
    text, and keeps every prompt."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt, params):
        self.prompts.append(prompt)
        return good_annotation_response(_json_blocks(prompt)[1]["text"])


class TestDemonstrationBlocks:
    def test_each_demonstration_block_is_rendered_once(self, monkeypatch):
        rendered = []
        render = inference._demo_block
        monkeypatch.setattr(inference, "_demo_block", lambda demo: rendered.append(demo.doc_id) or render(demo))
        pipeline = InferencePipeline(AnnotatingGateway(), build_index(DEMOS), MODEL)
        predictions = [pipeline.infer(doc, SCHEMA) for doc in QUERIES * 3]
        assert [p.provenance["demo_doc_id"] for p in predictions[:4]] == ["d0", "d1", "d0", "d0"]
        assert rendered == ["d0", "d1"]

    def test_both_prompts_are_those_build_inference_prompt_writes(self):
        gateway = AnnotatingGateway()
        index = build_index(DEMOS)
        pipeline = InferencePipeline(gateway, index, MODEL)
        expected = []
        for doc in QUERIES * 2:
            assert pipeline.infer(doc, SCHEMA).valid
            demo, fragment = index.retrieve(doc.text)[0], first_fragment(doc)
            partial = replace(parse_annotation_response(good_annotation_response(fragment)), text=fragment)
            expected += [
                build_inference_prompt(demo, None, fragment, SCHEMA),
                build_inference_prompt(demo, partial, doc.text, SCHEMA),
            ]
        assert gateway.prompts == expected

    def test_a_pipeline_with_every_entry_excluded_is_refused(self):
        """The first ``infer`` refuses, before any model call."""
        gateway = AnnotatingGateway()
        pipeline = InferencePipeline(gateway, build_index(DEMOS), MODEL, ExclusionList({"d0", "d1", "d9"}))
        with pytest.raises(EmptyIndexError, match="no index entries remain after exclusions"):
            pipeline.infer(QUERIES[0], SCHEMA)
        assert gateway.prompts == []

    @pytest.mark.parametrize("text, calls", [
        ("Alpha.", 1),
        (" ".join(["alpha"] * 161), 1),
        ("Alpha.\n\nBeta.", 2),
    ], ids=["one_sentence", "unbreakable_161_words", "two_paragraphs"])
    def test_call_two_is_made_unless_its_prompt_equals_call_ones(self, tmp_path, text, calls):
        """When call 1 does not parse, a document that is its own first
        fragment would ask call 2 what it asked call 1: call 1's answer then
        stands as call 2's, with one model call and one cache entry."""
        doc = SourceDocument(id="q", text=text)
        prompts = [build_inference_prompt(DEMOS[0], None, first_fragment(doc), SCHEMA)]
        if calls == 2:
            prompts.append(build_inference_prompt(DEMOS[0], None, text, SCHEMA))
        assert (first_fragment(doc) == text) == (calls == 1)
        gateway = replay_gateway(tmp_path, [(prompt, params_for(MODEL, 0.0), "no json here") for prompt in prompts])
        asked = []
        complete = gateway.complete
        gateway.complete = lambda p, params: asked.append(p) or complete(p, params)
        prediction = InferencePipeline(gateway, build_index(DEMOS), MODEL).infer(doc, SCHEMA)
        assert asked == prompts
        assert not prediction.valid and prediction.provenance["invalid_reason"].startswith("parse: ")
        assert prediction.raw_responses == ("no json here", "no json here")
        assert len(list((tmp_path / "cache").iterdir())) == calls

    def test_record_run_on_two_workers_writes_what_one_worker_does(self, tmp_path, stub_server):
        build_index(DEMOS).save(tmp_path / "index.jsonl")
        # A query of one paragraph would send call 2's prompt as call 1.
        queries = [doc for doc in QUERIES if "\n\n" in doc.text]
        task = {
            "schema": {"entity_types": list(SCHEMA.entity_types), "relation_types": list(SCHEMA.relation_types)},
            "documents": [{"id": f"{doc.id}-{n}", "text": doc.text} for n in range(3) for doc in queries],
        }
        (tmp_path / "task.json").write_text(json.dumps(task), encoding="utf-8")
        index = build_index(DEMOS)
        # Call 1 gets an unreadable reply, so call 2 starts from no partial.
        ChatStubHandler.replies = {
            (build_inference_prompt(index.retrieve(doc.text)[0], None, doc.text, SCHEMA), 0.0):
                good_annotation_response(doc.text)
            for doc in queries
        }
        (tmp_path / "config.json").write_text(json.dumps({
            "model_name": MODEL, "gateway_mode": "record", "chat_base_url": stub_server,
        }), encoding="utf-8")
        for workers in ("1", "2"):
            assert main([
                "infer", "--task", str(tmp_path / "task.json"), "--index", str(tmp_path / "index.jsonl"),
                "--output", str(tmp_path / workers / "predictions.jsonl"), "--cache", str(tmp_path / workers / "cache"),
                "--parallelism", workers, "--config", str(tmp_path / "config.json"),
            ]) == 0
        one, two = tmp_path / "1", tmp_path / "2"
        predictions = (one / "predictions.jsonl").read_text(encoding="utf-8")
        assert sum(json.loads(line)["valid"] for line in predictions.splitlines()) == len(task["documents"])
        assert (two / "predictions.jsonl").read_text(encoding="utf-8") == predictions
        entries = sorted(path.name for path in (one / "cache").iterdir())
        assert len(entries) == 2 * len(queries)
        assert sorted(path.name for path in (two / "cache").iterdir()) == entries
        assert all((one / "cache" / name).read_bytes() == (two / "cache" / name).read_bytes() for name in entries)


class TestReanchorMentions:
    def test_mention_without_a_forward_match_is_dropped(self):
        # The echo's first mention swaps the space for a newline, so its only
        # strict match is the second occurrence; the second mention then has
        # no match left at or after the cursor.
        doc = SourceDocument(id="d", text="New York is big. I love New\nYork.")
        echo = (
            '<ent id="0" type="City">New\nYork</ent> is big. '
            'I love <ent id="0" type="City">New\nYork</ent>.'
        )
        raw = PartialAnnotation(doc.text, echo, (Entity(0, "New York", "City"),))
        prediction = _prediction_from_raw(doc, raw, ("", ""))
        assert prediction.valid
        assert [(m.span.start, m.span.end) for m in prediction.mentions] == [(24, 32)]
        assert prediction.provenance["mentions_dropped"] == 1


class TestPredictionPersistence:
    def test_round_trip(self):
        pred = _valid_prediction()
        assert prediction_from_dict(prediction_to_dict(pred)) == pred

    def test_invalid_round_trip(self):
        pred = Prediction("d", (), (), (), False, ("a", "b"))
        assert prediction_from_dict(prediction_to_dict(pred)) == pred
