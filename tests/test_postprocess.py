import random

import pytest

from synthex.core import AnnotationRecord, Entity, Triple
from synthex.gateway import ChatGateway, cache_key
from synthex.postprocess import (
    INCONSISTENT,
    KEEP,
    STAGE_GATEWAY_ERROR,
    STAGE_MONO_TYPED,
    STAGE_SELF_TYPED,
    STAGE_TRIPLE_VERIFY,
    MissingVerdictError,
    PostProcessor,
    TripleVerdict,
    UnresolvableEntityError,
    adjudicate,
    apply_discard_policy,
    build_triple_verification_prompt,
    filter_degenerate,
)

from conftest import ChatStubHandler, make_passing_record, params_for, replay_gateway, request_prompts

MODEL = "test-model"


class TestVerificationPrompt:
    def test_sample_founded_by_triple(self, uni_vienna_record):
        triple = next(t for t in uni_vienna_record.triples if t.predicate == "founded_by")
        prompt = build_triple_verification_prompt(triple, list(uni_vienna_record.entities))
        assert '"The University of Vienna was founded by Duke Rudolph IV."' in prompt
        assert (
            '{"subject": "The University of Vienna", "predicate": "founded_by", '
            '"object": "Duke Rudolph IV"}'
        ) in prompt
        assert (
            '{"subject": "Duke Rudolph IV", "predicate": "founded_by", '
            '"object": "The University of Vienna"}'
        ) in prompt
        assert "\\boxed{<A_or_B_or_C_or_D>}" in prompt

    def test_dangling_id(self):
        triple = Triple("d", "(a, r, b)", subject=0, predicate="r", object=9)
        with pytest.raises(UnresolvableEntityError):
            build_triple_verification_prompt(triple, [Entity(0, "a", "T")])

    def test_symmetric_predicate_no_special_casing(self):
        entities = [Entity(0, "Ana", "Person"), Entity(1, "Bea", "Person")]
        triple = Triple("Ana is married to Bea.", "(Ana, spouse_of, Bea)", 0, "spouse_of", 1)
        prompt = build_triple_verification_prompt(triple, entities)
        assert '{"subject": "Ana", "predicate": "spouse_of", "object": "Bea"}' in prompt
        assert '{"subject": "Bea", "predicate": "spouse_of", "object": "Ana"}' in prompt


class TestAdjudicate:
    @pytest.mark.parametrize("verdict,expected", [("A", KEEP), ("C", KEEP), ("B", INCONSISTENT), ("D", INCONSISTENT), (None, INCONSISTENT)])
    def test_mapping(self, verdict, expected):
        assert adjudicate(verdict) == expected


def _record_with_predicates(doc_id: str, predicates: list[str]) -> AnnotationRecord:
    entities = (Entity(0, "Ada", "Person"), Entity(1, "Rome", "Place"))
    annotated = '<ent id="0" type="Person">Ada</ent> visited <ent id="1" type="Place">Rome</ent>.'
    from synthex.markup import parse_annotated

    text = "Ada visited Rome."
    _, mentions = parse_annotated(annotated)
    triples = tuple(
        Triple(f"Ada {p} Rome.", f"(Ada, {p}, Rome)", 0, p, 1) for p in predicates
    )
    return AnnotationRecord(
        doc_id=doc_id,
        text=text,
        annotated_text=annotated,
        entities=entities,
        mentions=tuple(mentions),
        triples=triples,
        entity_types=("Person", "Place"),
        relation_types=tuple(dict.fromkeys(predicates)),
    )


class TestDiscardPolicy:
    def test_bad_predicate_removes_all_its_triples(self):
        record = _record_with_predicates("d", ["p1", "p1", "p2"])
        verdicts = [
            TripleVerdict("d", 0, "A"),
            TripleVerdict("d", 1, "B"),
            TripleVerdict("d", 2, "A"),
        ]
        result = apply_discard_policy(record, verdicts)
        assert [t.predicate for t in result.triples] == ["p2"]
        assert result.relation_types == ("p2",)
        assert result.entities == record.entities

    def test_all_keep_is_identity(self):
        record = _record_with_predicates("d", ["p1", "p2"])
        verdicts = [TripleVerdict("d", 0, "A"), TripleVerdict("d", 1, "C")]
        assert apply_discard_policy(record, verdicts) == record

    def test_missing_verdict(self):
        record = _record_with_predicates("d", ["p1", "p2"])
        with pytest.raises(MissingVerdictError):
            apply_discard_policy(record, [TripleVerdict("d", 0, "A")])

    def test_no_verdict_counts_as_inconsistent(self):
        record = _record_with_predicates("d", ["p1", "p2"])
        verdicts = [TripleVerdict("d", 0, None), TripleVerdict("d", 1, "A")]
        result = apply_discard_policy(record, verdicts)
        assert [t.predicate for t in result.triples] == ["p2"]

    def test_verdict_b_never_swaps(self):
        record = _record_with_predicates("d", ["p1"])
        result = apply_discard_policy(record, [TripleVerdict("d", 0, "B")])
        assert result.triples == ()  # discarded, not reversed

    def test_invalid_verdict_letter_rejected(self):
        with pytest.raises(ValueError):
            TripleVerdict("d", 0, "E")


class TestDegenerateFilters:
    def _record(self, entities) -> AnnotationRecord:
        return AnnotationRecord(
            doc_id="d",
            text="x",
            annotated_text="x",
            entities=tuple(entities),
            mentions=(),
            triples=(),
            entity_types=tuple(dict.fromkeys(e.type_label for e in entities)),
            relation_types=(),
        )

    def test_self_typed(self):
        record = self._record([Entity(0, "Paris", "Paris"), Entity(1, "France", "France")])
        assert filter_degenerate(record) == STAGE_SELF_TYPED

    def test_self_typed_normalized_comparison(self):
        record = self._record([Entity(0, "Paris", "  paris "), Entity(1, "France", "FRANCE")])
        assert filter_degenerate(record) == STAGE_SELF_TYPED

    def test_mono_typed(self):
        record = self._record([Entity(i, f"n{i}", "Concept") for i in range(3)])
        assert filter_degenerate(record) == STAGE_MONO_TYPED

    def test_sample_record_kept(self, uni_vienna_record):
        assert filter_degenerate(uni_vienna_record) is None

    def test_single_entity_exempt_from_mono(self):
        record = self._record([Entity(0, "Ada", "Person")])
        assert filter_degenerate(record) is None

    def test_single_self_typed_entity_dropped(self):
        record = self._record([Entity(0, "Ada", "Ada")])
        assert filter_degenerate(record) == STAGE_SELF_TYPED

    def test_partial_self_typing_is_kept(self):
        record = self._record([Entity(0, "Paris", "Paris"), Entity(1, "Ada", "Person")])
        assert filter_degenerate(record) is None

    def test_requires_entities(self):
        with pytest.raises(ValueError):
            filter_degenerate(self._record([]))


def _seed_verdicts(gateway, record, letters):
    """Store one verification response per triple; None seeds a no-verdict reply."""
    entities = list(record.entities)
    for triple, letter in zip(record.triples, letters):
        prompt = build_triple_verification_prompt(triple, entities)
        response = f"thinking … \\boxed{{{letter}}}" if letter else "I am not sure at all."
        gateway.store(prompt, params_for(MODEL, 0.0), response)


class TestPostProcessCorpus:
    def test_seeded_corpus(self, tmp_path):
        rng = random.Random(17)
        records = [make_passing_record(rng, f"r{i}", n_entities=3, n_triples=2) for i in range(10)]
        gateway = replay_gateway(tmp_path)
        expected_kept_triples = {}
        for i, record in enumerate(records):
            letters = []
            for j in range(len(record.triples)):
                letters.append(["A", "B", "C", "D"][(i + j) % 4])
            _seed_verdicts(gateway, record, letters)
            bad = {
                record.triples[j].predicate
                for j, letter in enumerate(letters)
                if letter in ("B", "D")
            }
            expected_kept_triples[record.doc_id] = [
                t for t in record.triples if t.predicate not in bad
            ]
        processor = PostProcessor(gateway, model_name=MODEL)
        kept, drop_log = processor.process(records)
        assert len(kept) == 10  # fixture records are never fully degenerate
        originals = {r.doc_id: r for r in records}
        for record in kept:
            assert list(record.triples) == expected_kept_triples[record.doc_id]
            original = originals[record.doc_id]
            # Monotonicity: post-processing never adds anything.
            assert record.entities == original.entities
            assert set(record.triples) <= set(original.triples)
            assert set(record.relation_types) <= set(original.relation_types)
            assert set(record.relation_types) == {t.predicate for t in record.triples}
        verify_entries = [e for e in drop_log if e.stage == STAGE_TRIPLE_VERIFY]
        assert all(e.reason["triples_removed"] >= 1 for e in verify_entries)

    def test_all_keep_verdicts_only_degenerate_filters_drop(self, tmp_path):
        good = _record_with_predicates("ok", ["p1"])
        mono = AnnotationRecord(
            doc_id="mono",
            text="a b.",
            annotated_text='<ent id="0" type="Concept">a</ent> <ent id="1" type="Concept">b</ent>.',
            entities=(Entity(0, "a", "Concept"), Entity(1, "b", "Concept")),
            mentions=(),
            triples=(),
            entity_types=("Concept",),
            relation_types=(),
        )
        gateway = replay_gateway(tmp_path)
        _seed_verdicts(gateway, good, ["A"])
        kept, drop_log = PostProcessor(gateway, model_name=MODEL).process([good, mono])
        assert [r.doc_id for r in kept] == ["ok"]
        assert [(e.doc_id, e.stage) for e in drop_log] == [("mono", STAGE_MONO_TYPED)]

    def test_empty_corpus(self, tmp_path):
        gateway = replay_gateway(tmp_path)
        assert PostProcessor(gateway, model_name=MODEL).process([]) == ([], [])

    def test_parallel_processing_matches_serial(self, tmp_path):
        rng = random.Random(23)
        records = [make_passing_record(rng, f"p{i}", n_entities=3, n_triples=2) for i in range(6)]
        gateway = replay_gateway(tmp_path)
        for i, record in enumerate(records):
            _seed_verdicts(gateway, record, [["A", "B", "C", "D"][(i + j) % 4] for j in range(2)])
        processor = PostProcessor(gateway, model_name=MODEL)
        serial = processor.process(records, parallelism=1)
        parallel = processor.process(records, parallelism=4)
        assert [r.doc_id for r in serial[0]] == [r.doc_id for r in parallel[0]]
        assert [e.to_dict() for e in serial[1]] == [e.to_dict() for e in parallel[1]]
        assert serial[0] == parallel[0]

    def test_gateway_error_contained_to_document(self, tmp_path):
        first = _record_with_predicates("first", ["p1"])
        second = _record_with_predicates("second", ["p2"])
        gateway = replay_gateway(tmp_path)
        _seed_verdicts(gateway, second, ["A"])  # nothing seeded for `first`
        kept, drop_log = PostProcessor(gateway, model_name=MODEL).process([first, second])
        assert [r.doc_id for r in kept] == ["second"]
        assert [(e.doc_id, e.stage) for e in drop_log] == [("first", STAGE_GATEWAY_ERROR)]

    def test_discard_after_verify_can_leave_zero_triples(self, tmp_path):
        record = _record_with_predicates("d", ["p1"])
        gateway = replay_gateway(tmp_path)
        _seed_verdicts(gateway, record, ["D"])
        kept, drop_log = PostProcessor(gateway, model_name=MODEL).process([record])
        assert kept[0].triples == ()  # entity-only records are retained
        assert drop_log[0].stage == STAGE_TRIPLE_VERIFY


def _verdict_prompts(record) -> list[str]:
    return [build_triple_verification_prompt(t, list(record.entities)) for t in record.triples]


class TestVerdictScheduling:
    """Verdict calls are made once per distinct prompt, across documents,
    on the worker pool; a failed call costs its document and nothing else."""

    @pytest.fixture
    def record_processor(self, stub_server, tmp_path):
        ChatStubHandler.content = "\\boxed{A}"
        gateway = ChatGateway(cache_dir=tmp_path / "cache", mode="record", base_url=stub_server)
        return PostProcessor(gateway, model_name=MODEL)

    def test_one_request_per_distinct_prompt(self, record_processor):
        ChatStubHandler.delay = 0.05  # both documents' shared prompt is in flight at once
        first = _record_with_predicates("first", ["shared", "p1"])
        second = _record_with_predicates("second", ["shared", "p2"])
        repeat = _record_with_predicates("repeat", ["p3", "p3"])
        kept, drop_log = record_processor.process([first, second, repeat], parallelism=2)
        assert [r.doc_id for r in kept] == ["first", "second", "repeat"] and drop_log == []
        distinct = set(_verdict_prompts(first) + _verdict_prompts(second) + _verdict_prompts(repeat))
        assert len(distinct) == 4
        assert sorted(request_prompts()) == sorted(distinct)

    def test_one_document_uses_the_whole_pool(self, record_processor):
        ChatStubHandler.delay = 0.05
        record = _record_with_predicates("d", ["p1", "p2", "p3", "p4"])
        kept, _ = record_processor.process([record], parallelism=2)
        assert kept == [record]
        assert len(ChatStubHandler.requests) == 4
        assert ChatStubHandler.peak_in_flight == 2

    def test_failed_verdict_does_not_skip_later_calls(self, record_processor, tmp_path):
        record = _record_with_predicates("d", ["p1", "p2", "p3"])
        other = _record_with_predicates("other", ["q1"])
        failing, *later = _verdict_prompts(record)
        ChatStubHandler.statuses = {failing: 400}
        kept, drop_log = record_processor.process([record, other], parallelism=2)
        assert [r.doc_id for r in kept] == ["other"]
        assert [(e.doc_id, e.stage) for e in drop_log] == [("d", STAGE_GATEWAY_ERROR)]
        assert "endpoint returned 400" in drop_log[0].reason["error"]
        offline = ChatGateway(cache_dir=tmp_path / "cache", mode="replay")
        assert [offline.complete(prompt, params_for(MODEL, 0.0)) for prompt in later] == ["\\boxed{A}"] * 2

    def test_record_mode_fetches_only_unstored_prompts(self, record_processor):
        record = _record_with_predicates("d", ["p1", "p2", "p3"])
        stored, *fetched = _verdict_prompts(record)
        record_processor.gateway.store(stored, params_for(MODEL, 0.0), "\\boxed{B}")
        kept, drop_log = record_processor.process([record], parallelism=2)
        assert sorted(request_prompts()) == sorted(fetched)
        # The stored verdict, not a fetched one, discards the first predicate.
        assert kept[0].triples == record.triples[1:]
        assert [(e.doc_id, e.stage) for e in drop_log] == [("d", STAGE_TRIPLE_VERIFY)]

    @pytest.mark.parametrize("missing", [(1,), (1, 2)])
    def test_replay_miss_drops_only_its_document(self, tmp_path, missing):
        partial = _record_with_predicates("partial", ["p1", "p2", "p3"])
        whole = _record_with_predicates("whole", ["q1"])
        gateway = replay_gateway(tmp_path)
        _seed_verdicts(gateway, whole, ["A"])
        prompts = _verdict_prompts(partial)
        for index, prompt in enumerate(prompts):
            if index not in missing:
                gateway.store(prompt, params_for(MODEL, 0.0), "\\boxed{A}")
        kept, drop_log = PostProcessor(gateway, model_name=MODEL).process([partial, whole], parallelism=2)
        assert [r.doc_id for r in kept] == ["whole"]
        assert [(e.doc_id, e.stage) for e in drop_log] == [("partial", STAGE_GATEWAY_ERROR)]
        # The error of the failed triple with the lowest index names the document's drop.
        lowest = cache_key(prompts[missing[0]], params_for(MODEL, 0.0))
        assert lowest[:12] in drop_log[0].reason["error"]
