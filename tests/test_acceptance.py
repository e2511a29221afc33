"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import dataclasses
import json
import random
import time
from contextlib import contextmanager

import pytest

from synthex.annotator import (
    ECHO_MISMATCH,
    MENTION_NOT_IN_TEXT,
    MISSING_SPAN_ANNOTATION,
    TAG_PARSE_ERROR,
    TRIPLE_ID_UNKNOWN,
    TRIPLE_NAME_MISMATCH,
    build_zero_shot_prompt,
    sentence_spans,
    truncate_text,
    verify_annotation,
    word_count,
)
from synthex.cli import main
from synthex.core import Entity, Mention, Schema, SourceDocument, Span, Triple, dump_jsonl
from synthex.demostore import ExclusionList, FallbackEmbedder, build_index, cosine
from synthex.evaluate import MODE_ALL, MODE_VALID_ONLY, evaluate, prf
from synthex.gateway import ChatGateway, NoVerdictError, extract_boxed
from synthex.inference import (
    InferencePipeline,
    PartialAnnotation,
    build_inference_prompt,
)
from synthex.markup import parse_annotated, render_annotated
from synthex.postprocess import PostProcessor, TripleVerdict, adjudicate, apply_discard_policy
from test_evaluate import prediction_from_record

from conftest import (
    UNI_VIENNA_DICT,
    completed_inference_json,
    good_annotation_response,
    make_passing_record,
    params_for,
    raw_from_record,
    replay_gateway,
    trivial_record,
)

MODEL = "test-model"


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL")
        raise
    print(f"criterion {number:02d} ({label}): PASS")


# -- 1. markup round trip ---------------------------------------------------------

def test_criterion_1_markup_round_trip():
    with criterion(1, "markup round-trip, 1000 cases"):
        rng = random.Random(1001)
        words = ["alpha", "beta", "gamma", "delta", "omega", "zeta"]
        types = ["Person", "Place", "Organization", "Educational institution"]
        started = time.monotonic()
        for _ in range(1000):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 40)))
            mentions = []
            cursor = 0
            while cursor < len(text) - 1 and rng.random() < 0.7:
                start = rng.randint(cursor, min(cursor + 6, len(text) - 1))
                end = rng.randint(start + 1, min(start + 9, len(text)))
                mentions.append(
                    Mention(rng.randint(0, 9), Span(start, end), text[start:end], rng.choice(types))
                )
                cursor = end + rng.randint(1, 5)
            assert parse_annotated(render_annotated(text, mentions)) == (text, mentions)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"round-trip suite took {elapsed:.2f}s"


# -- 2. verification seeded faults -------------------------------------------------

def _corrupt_tag_parse(raw, record, rng):
    idx = raw.text_with_spans.rindex("</ent>")
    broken = raw.text_with_spans[:idx] + raw.text_with_spans[idx + 6 :]
    return dataclasses.replace(raw, text_with_spans=broken)


def _corrupt_echo(raw, record, rng):
    return dataclasses.replace(raw, text_with_spans=raw.text_with_spans + " zzz")


def _corrupt_missing_span(raw, record, rng):
    ghost = Entity(id=max(e.id for e in raw.entities) + 1, name="Ghost Entry", type_label="Spirit")
    return dataclasses.replace(raw, entities=raw.entities + (ghost,))


def _corrupt_mention(raw, record, rng):
    _, mentions = parse_annotated(raw.text_with_spans)
    last = mentions[-1]
    needle = f">{last.surface}</ent>"
    idx = raw.text_with_spans.rindex(needle)
    fake = ">" + "#" * len(last.surface) + "</ent>"
    broken = raw.text_with_spans[:idx] + fake + raw.text_with_spans[idx + len(needle) :]
    return dataclasses.replace(raw, text_with_spans=broken)


def _corrupt_triple_id(raw, record, rng):
    t = raw.triples[0]
    bad = Triple(t.description, t.triple_string, t.subject, t.predicate, 9999)
    return dataclasses.replace(raw, triples=(bad,) + raw.triples[1:])


def _corrupt_triple_name(raw, record, rng):
    t = raw.triples[0]
    names = {e.id: e.name for e in raw.entities}
    bad_string = f"(Totally Wrong Name, {t.predicate}, {names[t.object]})"
    bad = Triple(t.description, bad_string, t.subject, t.predicate, t.object)
    return dataclasses.replace(raw, triples=(bad,) + raw.triples[1:])


CORRUPTIONS = [
    (TAG_PARSE_ERROR, _corrupt_tag_parse, set()),
    (ECHO_MISMATCH, _corrupt_echo, set()),
    (MISSING_SPAN_ANNOTATION, _corrupt_missing_span, set()),
    # Altering a tagged surface necessarily breaks the echo too.
    (MENTION_NOT_IN_TEXT, _corrupt_mention, {ECHO_MISMATCH}),
    (TRIPLE_ID_UNKNOWN, _corrupt_triple_id, set()),
    (TRIPLE_NAME_MISMATCH, _corrupt_triple_name, set()),
]


def test_criterion_2_seeded_fault_detection():
    with criterion(2, "seeded-fault detection, 6 kinds x 50 records"):
        rng = random.Random(2002)
        records = [make_passing_record(rng, f"seed{i}", n_entities=3, n_triples=2) for i in range(50)]
        for record in records:
            baseline = verify_annotation(raw_from_record(record), record.text)
            assert baseline.passed, baseline.errors
        detected = 0
        total = 0
        for seeded_kind, corrupt, allowed_extra in CORRUPTIONS:
            for record in records:
                total += 1
                corrupted = corrupt(raw_from_record(record), record, rng)
                report = verify_annotation(corrupted, record.text)
                kinds = report.kinds()
                assert not report.passed
                assert seeded_kind in kinds, (seeded_kind, kinds)
                assert kinds <= {seeded_kind} | allowed_extra, (seeded_kind, kinds)
                detected += 1
        assert detected == total == 300


# -- 3. truncation properties -------------------------------------------------------

def test_criterion_3_truncation_properties():
    with criterion(3, "truncation properties, 500 texts"):
        rng = random.Random(3003)
        vocab = ["stone", "river", "quiet", "amber", "field", "north", "gate"]
        failures = 0
        for _ in range(500):
            sentences = []
            for _ in range(rng.randint(1, 12)):
                n = rng.randint(1, 35)
                body = [rng.choice(vocab) for _ in range(n)]
                body[0] = body[0].capitalize()
                sentences.append(" ".join(body) + rng.choice(". ! ?".split()))
            text = " ".join(sentences)
            out = truncate_text(text, 100)
            if not text.startswith(out):
                failures += 1
                continue
            if word_count(out) < min(100, word_count(text)):
                failures += 1
                continue
            if word_count(out) >= 100:
                spans = sentence_spans(out)
                without_last = out[: spans[-2][1]] if len(spans) > 1 else ""
                if word_count(without_last) >= 100:
                    failures += 1
            else:
                if out != text:
                    failures += 1
        assert failures == 0


# -- 4. discard-policy exactness ------------------------------------------------------

def test_criterion_4_discard_policy_exactness():
    with criterion(4, "discard policy on 20 seeded documents"):
        rng = random.Random(4004)
        letters_pool = ["A", "B", "C", "D"]
        for i in range(20):
            record = make_passing_record(rng, f"disc{i}", n_entities=4, n_triples=rng.randint(3, 6))
            letters = [rng.choice(letters_pool) for _ in record.triples]
            verdicts = [
                TripleVerdict(record.doc_id, j, letter) for j, letter in enumerate(letters)
            ]
            # Independent expectation: enumerate inconsistent predicates by hand.
            inconsistent_predicates = set()
            for j, letter in enumerate(letters):
                if letter in ("B", "D"):
                    inconsistent_predicates.add(record.triples[j].predicate)
            expected = [t for t in record.triples if t.predicate not in inconsistent_predicates]

            result = apply_discard_policy(record, verdicts)
            assert list(result.triples) == expected
            assert set(result.relation_types) == {t.predicate for t in expected}
            for surviving in result.triples:
                for j, original in enumerate(record.triples):
                    if original.predicate == surviving.predicate:
                        assert adjudicate(letters[j]) == "keep"


# -- 5. retrieval oracle ---------------------------------------------------------------

def test_criterion_5_retrieval_oracle():
    with criterion(5, "retrieval oracle, 100 docs / 20 probes"):
        rng = random.Random(5005)
        vocab = ["river", "forest", "bridge", "castle", "meadow", "harbor", "valley", "stone", "tower", "cliff", "marsh", "grove"]
        records = []
        for i in range(100):
            words = [rng.choice(vocab) for _ in range(rng.randint(12, 30))]
            words[0] = words[0].capitalize()
            records.append(trivial_record(f"doc{i:03d}", " ".join(words) + "."))
        index = build_index(records, mode="fallback")
        embedder = FallbackEmbedder(index.vocabulary)

        def oracle(query, excluded=frozenset()):
            vector = embedder.embed(truncate_text(query, index.min_words))
            scored = [
                (cosine(vector, list(e.vector)), e.doc_id)
                for e in index.entries
                if e.doc_id not in excluded
            ]
            return sorted(scored, key=lambda pair: (-pair[0], pair[1]))[0]

        probes = [records[i].text for i in range(0, 24, 2)] + [
            " ".join(rng.choice(vocab) for _ in range(10)) for _ in range(8)
        ]
        assert len(probes) == 20
        for probe in probes:
            expected_score, expected_id = oracle(probe)
            got_record, got_score = index.retrieve_scored(probe, k=1)[0]
            assert got_record.doc_id == expected_id
            assert got_score == pytest.approx(expected_score, abs=1e-12)
            exclusions = ExclusionList(frozenset({expected_id}))
            _, second_id = oracle(probe, {expected_id})
            second = index.retrieve_scored(probe, exclusions=exclusions, k=1)[0]
            assert second[0].doc_id == second_id
            assert second[0].doc_id != expected_id
        for i in range(0, 24, 2):
            _, score = index.retrieve_scored(records[i].text, k=1)[0]
            assert score == pytest.approx(1.0, abs=1e-6)


# -- 6. evaluator identities -------------------------------------------------------------

def test_criterion_6_evaluator_identities():
    with criterion(6, "evaluator identities and mode ordering"):
        rng = random.Random(6006)
        golds = [make_passing_record(rng, f"ev{i}", n_entities=3, n_triples=2) for i in range(10)]

        perfect = [prediction_from_record(g) for g in golds]
        for mode in (MODE_ALL, MODE_VALID_ONLY):
            report = evaluate(perfect, golds, mode=mode)
            assert len(report.tasks) == 5
            for score in report.tasks.values():
                assert (score.precision, score.recall, score.f1) == (100.0, 100.0, 100.0)

        p, r, f1 = prf(3, 1, 2)
        assert (p, r) == (75.0, 60.0)
        assert f1 == pytest.approx(66.667, abs=1e-3)

        # 40% invalid predictions: same precision, higher-or-equal recall.
        mixed = [prediction_from_record(g, valid=i >= 4) for i, g in enumerate(golds)]
        all_docs = evaluate(mixed, golds, mode=MODE_ALL)
        valid_only = evaluate(mixed, golds, mode=MODE_VALID_ONLY)
        assert all_docs.valid_rate == 60.0
        for name in all_docs.tasks:
            assert valid_only.tasks[name].precision == pytest.approx(
                all_docs.tasks[name].precision
            )
            assert valid_only.tasks[name].recall >= all_docs.tasks[name].recall
        assert any(
            valid_only.tasks[n].recall > all_docs.tasks[n].recall for n in all_docs.tasks
        )


# -- 7. end-to-end replay ------------------------------------------------------------------

def _corpus_doc(i: int) -> dict:
    text = (
        f"Record{i} starts with an ordinary sentence about subject number {i}. "
        f"A second sentence pads the document with additional harmless words."
    )
    return {"id": f"doc{i}", "title": f"Doc {i}", "text": text}


def test_criterion_7_end_to_end_replay(tmp_path, capsys):
    with criterion(7, "replayed 8-document generate run, 62.50% yield"):
        docs = [_corpus_doc(i) for i in range(8)]
        corpus = tmp_path / "corpus.jsonl"
        dump_jsonl(docs, corpus)
        gateway = ChatGateway(cache_dir=tmp_path / "cache", mode="replay")
        # Docs 0-3 pass immediately; doc 4 passes only on the retry; 5-7 fail twice.
        for i, doc in enumerate(docs):
            prompt = build_zero_shot_prompt(doc["text"])
            if i < 4:
                gateway.store(prompt, params_for(MODEL, 0.0), good_annotation_response(doc["text"]))
            elif i == 4:
                gateway.store(prompt, params_for(MODEL, 0.0), "not a json response")
                gateway.store(prompt, params_for(MODEL, 0.2), good_annotation_response(doc["text"]))
            else:
                gateway.store(prompt, params_for(MODEL, 0.0), "not a json response")
                gateway.store(prompt, params_for(MODEL, 0.2), "still not json")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {"model_name": MODEL, "cache_dir": str(tmp_path / "cache"), "gateway_mode": "replay"}
            ),
            encoding="utf-8",
        )
        outputs = []
        for run in range(3):
            out_dir = tmp_path / f"run{run}"
            code = main(
                [
                    "generate",
                    "--corpus", str(corpus),
                    "--out-dir", str(out_dir),
                    "--config", str(config_path),
                ]
            )
            assert code == 0
            printed = capsys.readouterr().out
            assert "yield 62.50%" in printed
            outputs.append(
                (
                    (out_dir / "annotations.jsonl").read_bytes(),
                    (out_dir / "failures.jsonl").read_bytes(),
                    (out_dir / "length_stats.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]
        annotations = [json.loads(l) for l in outputs[0][0].decode().splitlines()]
        assert len(annotations) == 5
        retried = [a for a in annotations if a["provenance"]["retried"]]
        assert [a["doc_id"] for a in retried] == ["doc4"]
        assert retried[0]["provenance"]["temperatures"] == [0.0, 0.2]


# -- 8. inference protocol -----------------------------------------------------------------

QUERY = SourceDocument(
    id="q1",
    text=(
        "Alice Rivera founded the Harbor Institute in 1990.\n\n"
        "Years later Bob Chen joined the Harbor Institute as a member of its board."
    ),
)
SCHEMA = Schema.from_lists(["Person", "Organization"], ["member_of", "founded_by"])


def test_criterion_8_inference_protocol(tmp_path, uni_vienna_record):
    with criterion(8, "two-call seeding plus schema enforcement"):
        fragment = "Alice Rivera founded the Harbor Institute in 1990."
        annotated_fragment = (
            '<ent id="0" type="Person">Alice Rivera</ent> founded the '
            '<ent id="1" type="Organization">Harbor Institute</ent> in 1990.'
        )
        call1_entities = [
            {"id": 0, "name": "Alice Rivera", "type": "Person"},
            {"id": 1, "name": "Harbor Institute", "type": "Organization"},
        ]
        response1 = completed_inference_json(fragment, annotated_fragment, call1_entities, [], SCHEMA)

        annotated_full = (
            annotated_fragment
            + "\n\nYears later <ent id=\"2\" type=\"Person\">Bob Chen</ent> joined the "
            '<ent id="1" type="Organization">Harbor Institute</ent> as a member of its board.'
        )
        call2_entities = call1_entities + [
            {"id": 2, "name": "Bob Chen", "type": "Person"},
            {"id": 3, "name": "Smaug", "type": "Dragon"},  # injected off-schema type
        ]
        call2_relations = [
            {
                "description": "Bob Chen is a member of the Harbor Institute.",
                "triple_string": "(Bob Chen, member_of, Harbor Institute)",
                "subject": 2,
                "predicate": "member_of",
                "object": 1,
            },
            {
                "description": "Smaug is a member of the Harbor Institute.",
                "triple_string": "(Smaug, member_of, Harbor Institute)",
                "subject": 3,
                "predicate": "member_of",
                "object": 1,
            },
        ]
        response2 = completed_inference_json(
            QUERY.text, annotated_full, call2_entities, call2_relations, SCHEMA
        )

        prompt1 = build_inference_prompt(uni_vienna_record, None, fragment, SCHEMA)
        partial = PartialAnnotation(
            text=fragment,
            text_with_spans=annotated_fragment,
            entities=tuple(Entity(e["id"], e["name"], e["type"]) for e in call1_entities),
            triples=(),
        )
        prompt2 = build_inference_prompt(uni_vienna_record, partial, QUERY.text, SCHEMA)
        gateway = replay_gateway(
            tmp_path,
            [
                (prompt1, params_for(MODEL, 0.0), response1),
                (prompt2, params_for(MODEL, 0.0), response2),
            ],
        )
        index = build_index([uni_vienna_record], mode="fallback")
        pipeline = InferencePipeline(gateway=gateway, index=index, model_name=MODEL)
        prediction = pipeline.infer(QUERY, SCHEMA)

        # The replay cache only held the exact prompt constructed with the
        # call-1 annotations, so a valid result proves the seeding happened.
        assert prediction.valid
        import re

        blocks = re.findall(r"```json\n(.*?)\n```", prompt2, re.DOTALL)
        query_block = json.loads(blocks[1])
        assert query_block["entities"] == call1_entities
        assert query_block["text_with_spans"] == annotated_fragment

        names = [e.name for e in prediction.entities]
        assert names == ["Alice Rivera", "Harbor Institute", "Bob Chen"]
        assert all(e.type_label != "Dragon" for e in prediction.entities)
        assert [t.subject for t in prediction.triples] == [2]
        assert prediction.provenance["schema_drops"]["entities"] == 1
        assert prediction.provenance["schema_drops"]["triples"] == 1


# -- 9. stats correctness --------------------------------------------------------------------

def test_criterion_9_stats_on_sample_record(tmp_path, capsys):
    with criterion(9, "single-record dataset statistics"):
        dataset = tmp_path / "dataset.jsonl"
        dump_jsonl([UNI_VIENNA_DICT], dataset)
        assert main(["stats", "--dataset", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "documents: 1" in out
        assert "entities: 6 across 5 entity types" in out
        assert "triples: 4 across 3 relation types" in out


# -- 10. triple-verdict parsing ----------------------------------------------------------------

def test_criterion_10_verdict_parsing_and_noverdict_routing(tmp_path):
    with criterion(10, "boxed-verdict parsing and NoVerdict discard routing"):
        assert extract_boxed("after some thought: \\boxed{A}") == "A"
        assert extract_boxed("\\boxed{B} … wait, actually \\boxed{C}") == "C"
        assert extract_boxed("\\boxed{ D }") == "D"
        with pytest.raises(NoVerdictError):
            extract_boxed("\\boxed{maybe}")

        # A response with no parseable verdict routes its predicate to discard.
        record = make_passing_record(random.Random(10010), "nv", n_entities=3, n_triples=2)
        from synthex.postprocess import build_triple_verification_prompt

        gateway = replay_gateway(tmp_path)
        entities = list(record.entities)
        responses = ["\\boxed{A}", "I simply cannot decide."]
        for triple, response in zip(record.triples, responses):
            gateway.store(
                build_triple_verification_prompt(triple, entities),
                params_for(MODEL, 0.0),
                response,
            )
        kept, drop_log = PostProcessor(gateway, model_name=MODEL).process([record])
        unverifiable = record.triples[1].predicate
        survivors = {t.predicate for t in kept[0].triples} if kept else set()
        assert unverifiable not in survivors
        assert any(
            entry.stage == "triple_verify" and unverifiable in entry.reason["predicates"]
            for entry in drop_log
        )
