"""Property tests: every JSON codec round-trips its type exactly, through the
persisted JSON text; a model response and a record of one layout read the
same; rendering then parsing inline markup is lossless or refused; sentence
splitting, truncation, mention re-anchoring and JSON extraction keep their
invariants on adversarial text; the sentence scanner
agrees with a character-by-character reference, JSON extraction with a
brace-scanner reference, and the fallback index, built or loaded, with a
reference that tokenises each text twice; phase-2 filtering drops exactly what its verdicts
decide; every reader of outside bytes raises only its documented error on
hostile input; ``generate`` through ``cli.main`` accounts for every corpus
document exactly once; eval's two modes agree on precision."""

import io
import json
import math
import operator
import random
import re
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from synthex.annotator import _is_abbreviation, parse_annotation_response, sentence_spans, truncate_text, word_count
from synthex.cli import main
from synthex.core import (
    AnnotationRecord,
    Entity,
    Mention,
    Span,
    Triple,
    derive_entity_types,
    derive_relation_types,
    load_corpus,
    load_jsonl,
    load_records,
    normalize_surface,
    record_from_dict,
    record_to_dict,
)
from synthex.demostore import DemoIndex, EmptyTextError, FallbackEmbedder, ProviderEmbedder, ProviderError, build_index
from synthex.evaluate import MODE_ALL, MODE_VALID_ONLY, evaluate
from synthex.inference import Prediction, _reanchor_mentions, prediction_from_dict, prediction_to_dict
from synthex.gateway import (
    MAX_JSON_DEPTH,
    CacheMissError,
    ChatGateway,
    EndpointError,
    NoJsonFoundError,
    ResponseSyntaxError,
    UnreadableResponseError,
    cache_key,
    extract_json_block,
)
from synthex.markup import MarkupError, parse_annotated, render_annotated
from synthex.postprocess import (
    STAGE_GATEWAY_ERROR,
    STAGE_MONO_TYPED,
    STAGE_SELF_TYPED,
    STAGE_TRIPLE_VERIFY,
    PostProcessor,
    build_triple_verification_prompt,
)

from conftest import make_passing_record, params_for, replay_gateway
from test_cli import _corpus_doc, _write_config, _write_generate_fixture

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)

ids = st.integers(min_value=0, max_value=10**6)
texts = st.text(max_size=30)
# What an ent tag can carry in its double-quoted type attribute.
type_labels = st.text(min_size=1, max_size=12).filter(lambda s: '"' not in s and ">" not in s)
spans = st.builds(
    lambda start, length: Span(start, start + length),
    st.integers(min_value=0, max_value=10**4),
    st.integers(min_value=1, max_value=500),
)
entities = st.builds(Entity, id=ids, name=texts, type_label=texts)
mentions = st.builds(Mention, entity_id=ids, span=spans, surface=texts, type_label=texts)
triples = st.builds(Triple, description=texts, triple_string=texts, subject=ids, predicate=texts, object=ids)
provenances = st.dictionaries(texts, st.one_of(st.integers(), texts, st.booleans()), max_size=3)


def through_json(data: dict) -> dict:
    return json.loads(json.dumps(data, ensure_ascii=False))


@PROPERTY_SETTINGS
@given(entities, mentions, triples)
def test_element_codecs_round_trip(entity, mention, triple):
    assert Entity.from_dict(through_json(entity.to_dict())) == entity
    assert Mention.from_dict(through_json(mention.to_dict())) == mention
    assert Triple.from_dict(through_json(triple.to_dict())) == triple


@st.composite
def records(draw):
    record_entities = tuple(draw(st.lists(entities, max_size=4)))
    record_triples = tuple(draw(st.lists(triples, max_size=4)))
    # An empty inventory is re-derived on load, so it is either non-empty or
    # already the derived one.
    entity_types = draw(
        st.one_of(st.just(derive_entity_types(record_entities)), st.lists(texts, min_size=1, max_size=3))
    )
    relation_types = draw(
        st.one_of(st.just(derive_relation_types(record_triples)), st.lists(texts, min_size=1, max_size=3))
    )
    return AnnotationRecord(
        doc_id=draw(texts),
        text=draw(texts),
        annotated_text=draw(texts),
        entities=record_entities,
        mentions=tuple(draw(st.lists(mentions, max_size=4))),
        triples=record_triples,
        entity_types=tuple(entity_types),
        relation_types=tuple(relation_types),
        provenance=draw(provenances),
    )


@PROPERTY_SETTINGS
@given(records())
def test_record_codec_round_trips(record):
    restored = record_from_dict(through_json(record_to_dict(record)))
    assert restored == record
    assert restored.provenance == record.provenance


predictions = st.builds(
    Prediction,
    doc_id=texts,
    entities=st.lists(entities, max_size=4).map(tuple),
    mentions=st.lists(mentions, max_size=4).map(tuple),
    triples=st.lists(triples, max_size=4).map(tuple),
    valid=st.booleans(),
    raw_responses=st.tuples(texts, texts),
    provenance=provenances,
)


@PROPERTY_SETTINGS
@given(predictions)
def test_prediction_codec_round_trips(prediction):
    restored = prediction_from_dict(through_json(prediction_to_dict(prediction)))
    assert restored == prediction
    assert restored.provenance == prediction.provenance


@st.composite
def annotated(draw, labels=type_labels):
    """Text free of ent-tag lookalikes, with non-overlapping (possibly
    adjacent) mentions whose surfaces are the spanned text."""
    text = draw(st.text(max_size=60).filter(lambda t: "<ent" not in t and "</ent" not in t))
    found = []
    cursor = 0
    while draw(st.booleans()):
        start = cursor + draw(st.integers(min_value=0, max_value=5))
        end = start + draw(st.integers(min_value=1, max_value=8))
        if end > len(text):
            break
        found.append(Mention(draw(ids), Span(start, end), text[start:end], draw(labels)))
        cursor = end
    return text, found


@PROPERTY_SETTINGS
@given(annotated())
def test_markup_render_parse_round_trip(case):
    text, found = case
    assert parse_annotated(render_annotated(text, found)) == (text, found)


@PROPERTY_SETTINGS
@given(annotated(labels=st.one_of(st.text(max_size=12), st.sampled_from(['"', ">", "", 'a"b', "a>b", "'"]))))
def test_markup_render_refuses_or_round_trips(case):
    text, found = case
    try:
        rendered = render_annotated(text, found)
    except MarkupError:
        return
    assert parse_annotated(rendered) == (text, found)


# What a model response must carry: non-empty entity names and types.
response_entities = st.builds(
    Entity, id=ids, name=st.text(min_size=1, max_size=30), type_label=st.text(min_size=1, max_size=30)
)


@st.composite
def layouts(draw):
    """A valid annotated-document layout, under either spelling of each
    aliased key, with the markup of rendered mentions."""
    text, found = draw(annotated())
    return {
        "text": text,
        draw(st.sampled_from(["text_with_spans", "annotated_text"])): render_annotated(text, found),
        "entities": [e.to_dict() for e in draw(st.lists(response_entities, max_size=4))],
        draw(st.sampled_from(["triples", "relations"])): [t.to_dict() for t in draw(st.lists(triples, max_size=4))],
        "relation_types": draw(st.lists(texts, max_size=3)),
        "entity_types": draw(st.lists(texts, max_size=3)),
    }


@PROPERTY_SETTINGS
@given(layouts())
def test_response_and_record_readers_agree(layout):
    raw = parse_annotation_response(json.dumps(layout, ensure_ascii=False))
    record = record_from_dict(through_json(layout))
    assert (raw.text_with_spans, raw.entities, raw.triples) == (record.annotated_text, record.entities, record.triples)


# Words, sentence terminators, abbreviations and assorted whitespace,
# including separators only ``str.isspace()`` knows (\x1c, \x85, \u2028) and
# a non-ASCII capital.
prose = st.lists(
    st.one_of(
        st.sampled_from(
            ["Alpha", "beta", "Mr.", "J.", "No.", "3.5", "end.", "Why?", "Yes!", ".", "?!", "x", "É", "Élan."]
        ),
        st.sampled_from([" ", "  ", "\n", "\n\n", "\t", "\x1c", "\x85", "\u00a0", "\u2003", "\u2028"]),
        st.text(max_size=4),
    ),
    max_size=40,
).map("".join)


def reference_sentence_spans(text: str) -> list[tuple[int, int]]:
    """The character-by-character scanner the regex scanner replaced."""
    n = len(text)
    spans: list[tuple[int, int]] = []
    start = 0
    while start < n and text[start].isspace():
        start += 1
    i = start
    while i < n:
        c = text[i]
        if c in ".!?":
            j = i + 1
            if j >= n:
                spans.append((start, j))
                return spans
            if text[j].isspace():
                k = j
                while k < n and text[k].isspace():
                    k += 1
                if k >= n:
                    spans.append((start, j))
                    return spans
                if text[k].isupper() and not (c == "." and _reference_ends_with_abbreviation(text, i)):
                    spans.append((start, j))
                    start = k
                    i = k
                    continue
        i += 1
    end = n
    while end > start and text[end - 1].isspace():
        end -= 1
    if end > start:
        spans.append((start, end))
    return spans


def _reference_ends_with_abbreviation(text: str, period_index: int) -> bool:
    w = period_index
    while w > 0 and not text[w - 1].isspace():
        w -= 1
    return _is_abbreviation(text[w : period_index + 1])


def reference_truncate_text(text: str, min_words: int) -> str:
    total = 0
    for a, b in reference_sentence_spans(text):
        total += word_count(text[a:b])
        if total >= min_words:
            return text[:b]
    return text


@PROPERTY_SETTINGS
@given(prose)
def test_sentence_spans_match_the_reference(text):
    assert sentence_spans(text) == reference_sentence_spans(text)


@PROPERTY_SETTINGS
@given(prose, prose, st.integers(min_value=1, max_value=30))
def test_truncate_text_matches_the_reference(head, tail, min_words):
    # The tail is text after the kept prefix whenever the head alone is long enough.
    text = head + tail
    assert truncate_text(text, min_words) == reference_truncate_text(text, min_words)


def test_long_text_truncates_like_the_reference():
    rng = random.Random(7)
    words = ["Alpha", "beta", "Mr.", "J.", "No.", "3.5", "end.", "Why?", "Yes!", "É", "Élan.", "gamma", "delta"]
    separators = [" ", " ", " ", "\n", "\u00a0", "\x85"]
    text = "".join(rng.choice(words) + rng.choice(separators) for _ in range(20000))
    assert word_count(text) >= 19000
    assert sentence_spans(text) == reference_sentence_spans(text)
    for min_words in (1, 100, 5000):
        assert truncate_text(text, min_words) == reference_truncate_text(text, min_words)


@PROPERTY_SETTINGS
@given(prose)
def test_sentence_spans_cover_all_but_whitespace(text):
    spans = sentence_spans(text)
    cursor = 0
    for start, end in spans:
        assert cursor <= start < end <= len(text)
        assert text[cursor:start].strip() == ""
        cursor = end
    assert text[cursor:].strip() == ""


@PROPERTY_SETTINGS
@given(prose, st.integers(min_value=1, max_value=30))
def test_truncate_text_is_a_long_enough_prefix(text, min_words):
    truncated = truncate_text(text, min_words)
    assert text.startswith(truncated)
    assert truncated == text or word_count(truncated) >= min_words


@PROPERTY_SETTINGS
@given(
    st.text(alphabet="ab \n", max_size=30),
    st.lists(st.text(alphabet="ab \n", min_size=1, max_size=4), max_size=8),
)
def test_reanchored_mentions_are_ordered_and_disjoint(text, surfaces):
    mentions = [Mention(i, Span(0, len(s)), s, "T") for i, s in enumerate(surfaces)]
    anchored, dropped = _reanchor_mentions(mentions, text)
    assert len(anchored) + dropped == len(mentions)
    assert [m.entity_id for m in anchored] == sorted(m.entity_id for m in anchored)
    cursor = 0
    for m in anchored:
        assert cursor <= m.span.start and text[m.span.start : m.span.end] == m.surface
        cursor = m.span.end


# Braces, quotes, backslashes and fences: the characters JSON extraction scans for.
adversarial = st.lists(
    st.one_of(
        st.sampled_from(["{", "}", '"', "\\", ":", ",", "[", "]", "1", "a", " ", "```json\n", "```", "'"]),
        st.text(max_size=3),
    ),
    max_size=30,
).map("".join)


@PROPERTY_SETTINGS
@given(adversarial)
def test_extract_json_block_refuses_or_returns_json(response):
    try:
        value = extract_json_block(response)
    except (NoJsonFoundError, ResponseSyntaxError):
        return
    # A decoded JSON value re-serializes to text that decodes to itself; repr
    # compares, so that a NaN decoded twice is equal to itself.
    assert repr(json.loads(json.dumps(value))) == repr(value)


def _balanced_candidate(text: str, start: int) -> str | None:
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        c = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def _first_value_depth(text: str) -> int:
    """How deep the first value of ``text`` nests, brackets in strings aside."""
    depth = deepest = 0
    in_string = escaped = False
    for c in text:
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif c in "]}":
            depth -= 1
            if depth == 0:
                break
    return deepest


def scanned_json_block(response: str) -> str:
    """Reference for extract_json_block: a per-character brace scanner finds
    where the object from the first ``{`` ends, a second one refuses nesting
    deeper than MAX_JSON_DEPTH, then ``json.loads`` checks the candidate."""
    fence = re.search(r"```json\s*\n(.*?)```", response, re.DOTALL)
    if fence is not None:
        candidate = fence.group(1).strip()
    else:
        start = response.find("{")
        if start == -1:
            raise NoJsonFoundError("response contains no JSON object")
        candidate = _balanced_candidate(response, start)
        if candidate is None:
            raise ResponseSyntaxError("unbalanced braces in JSON candidate")
    if _first_value_depth(candidate) > MAX_JSON_DEPTH:
        raise ResponseSyntaxError(f"candidate is not strict JSON: nested deeper than {MAX_JSON_DEPTH}")
    try:
        json.loads(candidate)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ResponseSyntaxError(f"candidate is not strict JSON: {exc}") from exc
    return candidate


def outcome(fn, response):
    try:
        return fn(response), None, None
    except (NoJsonFoundError, ResponseSyntaxError) as exc:
        return None, type(exc), str(exc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# Serialized objects cut at a random point and wrapped in adversarial noise.
json_objects = st.dictionaries(st.text(max_size=4), json_values, max_size=3).map(json.dumps)
embedded_json = st.tuples(adversarial, json_objects, st.integers(0, 80), adversarial).map(
    lambda t: t[0] + t[1][: t[2]] + t[3]
)
DEEP = 100_000


@settings(max_examples=300, deadline=None)
@given(st.one_of(adversarial, embedded_json))
@example('{"a": ' + "[" * DEEP + "]" * DEEP + "}")
@example("```json\n" + "[" * DEEP + "]" * DEEP + "\n```")
@example('{"a": ' + "[" * DEEP)
def test_extract_json_block_matches_brace_scanner(response):
    value, error, message = outcome(extract_json_block, response)
    expected_block, expected_error, expected_message = outcome(scanned_json_block, response)
    expected = None if expected_block is None else json.loads(expected_block)
    # repr compares, so that a NaN decoded twice is equal to itself.
    assert (repr(value), error) == (repr(expected), expected_error)
    if expected_message != "unbalanced braces in JSON candidate":
        assert message == expected_message


def _reference_norm(values) -> float:
    return math.sqrt(sum(map(operator.mul, values, values)))


def reference_terms(positions: dict, text: str) -> list[tuple[int, float]]:
    """FallbackEmbedder.terms as the index build used it before counting once."""
    tokens = normalize_surface(text).split()
    if not tokens:
        raise EmptyTextError("cannot embed empty text")
    counts: dict[int, float] = {}
    for token in tokens:
        position = positions.get(token)
        if position is not None:
            counts[position] = counts.get(position, 0.0) + 1.0
    ordered = sorted(counts)
    norm = _reference_norm([counts[p] for p in ordered])
    return [(p, counts[p] / norm) for p in ordered]


def reference_fallback_index(texts: list[str]):
    """Vocabulary, positions and per-entry ``(terms, norm)`` as the index
    build derived them before counting once: the vocabulary from one
    tokenising pass over the texts, the weights from a second."""
    vocabulary = sorted({token for text in texts for token in normalize_surface(text).split()})
    positions = {token: i for i, token in enumerate(vocabulary)}
    entries = []
    for text in texts:
        terms = reference_terms(positions, text)
        entries.append((terms, _reference_norm([weight for _, weight in terms])))
    return vocabulary, positions, entries


def reference_scores(positions, entries, query: str) -> dict[int, float]:
    postings = defaultdict(list)
    for i, (terms, _) in enumerate(entries):
        for position, weight in terms:
            postings[position].append((i, weight))
    terms = reference_terms(positions, query)
    products = defaultdict(list)
    for position, weight in terms:
        for i, entry_weight in postings[position]:
            products[i].append(weight * entry_weight)
    query_norm = _reference_norm([weight for _, weight in terms])
    return {i: sum(p) / (query_norm * entries[i][1]) for i, p in products.items()}


def hexed(terms) -> list[tuple[int, str]]:
    return [(position, weight.hex()) for position, weight in terms]


MIN_WORDS = 8
worded_prose = prose.filter(str.split)


@settings(max_examples=200, deadline=None)
@given(st.lists(worded_prose, min_size=1, max_size=6), st.lists(prose, max_size=4))
@example(["Alpha beta.", " \x85 "], ["beta"])
@example(["Fff eee h j aa eee hh jjj."], ["eee"])  # its norm depends on the order of the weights
def test_fallback_index_matches_the_two_pass_reference(texts, queries):
    records = [
        AnnotationRecord(doc_id=f"d{i}", text=text, annotated_text=text, entities=(), mentions=(), triples=(),
                         entity_types=(), relation_types=())
        for i, text in enumerate(texts)
    ]
    truncated = [truncate_text(text, MIN_WORDS) for text in texts]
    try:
        vocabulary, positions, entries = reference_fallback_index(truncated)
    except EmptyTextError:
        with pytest.raises(EmptyTextError):
            build_index(records, mode="fallback", min_words=MIN_WORDS)
        return
    index = build_index(records, mode="fallback", min_words=MIN_WORDS)
    assert index.vocabulary == vocabulary
    assert [hexed(e.terms) for e in index.entries] == [hexed(terms) for terms, _ in entries]
    assert [e.norm.hex() for e in index.entries] == [norm.hex() for _, norm in entries]
    for query in queries:
        try:
            scores = reference_scores(positions, entries, truncate_text(query, MIN_WORDS))
        except EmptyTextError:
            with pytest.raises(EmptyTextError):
                index.retrieve_scored(query, k=len(texts))
            continue
        assert hexed(FallbackEmbedder(index.vocabulary).terms(query)) == hexed(reference_terms(positions, query))
        expected = sorted(((f"d{i}", scores.get(i, 0.0)) for i in range(len(texts))), key=lambda p: (-p[1], p[0]))
        got = index.retrieve_scored(query, k=len(texts))
        assert [(r.doc_id, score.hex()) for r, score in got] == [(d, score.hex()) for d, score in expected]



@settings(max_examples=100, deadline=None)
@given(st.lists(worded_prose, min_size=1, max_size=6), st.lists(prose, max_size=4))
@example(["Fff eee h j aa eee hh jjj."], ["eee"])
def test_loaded_fallback_index_matches_the_two_pass_reference(texts, queries):
    """The reference check above on an index saved and loaded back, which
    derives its weights while loading rather than on its first retrieval."""
    records = [
        AnnotationRecord(doc_id=f"d{i}", text=text, annotated_text=text, entities=(), mentions=(), triples=(),
                         entity_types=(), relation_types=())
        for i, text in enumerate(texts)
    ]
    try:
        vocabulary, positions, entries = reference_fallback_index([truncate_text(t, MIN_WORDS) for t in texts])
    except EmptyTextError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"
        build_index(records, mode="fallback", min_words=MIN_WORDS).save(path)
        index = DemoIndex.load(path)
    assert index.vocabulary == vocabulary
    assert [hexed(e.terms) for e in index.entries] == [hexed(terms) for terms, _ in entries]
    assert [e.norm.hex() for e in index.entries] == [norm.hex() for _, norm in entries]
    for query in queries:
        try:
            scores = reference_scores(positions, entries, truncate_text(query, MIN_WORDS))
        except EmptyTextError:
            continue
        expected = sorted(((f"d{i}", scores.get(i, 0.0)) for i in range(len(texts))), key=lambda p: (-p[1], p[0]))
        got = index.retrieve_scored(query, k=len(texts))
        assert [(r.doc_id, score.hex()) for r, score in got] == [(d, score.hex()) for d, score in expected]

# A verdict response and the letter it stands for; None is no boxed letter.
VERDICT_RESPONSES = [
    ("\\boxed{A}", "A"),
    ("The swapped reading fits. \\boxed{b}", "B"),
    ("\\boxed{ C }", "C"),
    ("draft \\boxed{A}, final \\boxed{D}", "D"),
    ("no verdict here", None),
    ("\\boxed{E}", None),
]
CACHE_MISS = "miss"
PHASE2_MODEL = "phase2-model"


@st.composite
def phase2_cases(draw):
    """Passing records, some made self- or mono-typed, and per distinct
    verdict prompt a response or a cache miss."""
    records = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        record = make_passing_record(random.Random(draw(st.integers(0, 10**6))), f"d{i}")
        shape = draw(st.sampled_from(["plain", "plain", "self", "mono"]))
        if shape == "self":
            record = replace(record, entities=tuple(replace(e, type_label=e.name) for e in record.entities))
        elif shape == "mono":
            record = replace(record, entities=tuple(replace(e, type_label="Topic") for e in record.entities))
        records.append(record)
    prompts = {build_triple_verification_prompt(t, list(r.entities)) for r in records for t in r.triples}
    outcomes = {p: draw(st.sampled_from([*VERDICT_RESPONSES, CACHE_MISS])) for p in sorted(prompts)}
    return records, outcomes


@PROPERTY_SETTINGS
@given(phase2_cases())
def test_phase2_drops_follow_the_verdicts(case):
    records, outcomes = case
    with tempfile.TemporaryDirectory() as tmp:
        exchanges = [
            (prompt, params_for(PHASE2_MODEL, 0.0), outcome[0])
            for prompt, outcome in outcomes.items()
            if outcome != CACHE_MISS
        ]
        kept, drops = PostProcessor(replay_gateway(Path(tmp), exchanges), model_name=PHASE2_MODEL).process(records)
    kept_by_id = {r.doc_id: r for r in kept}
    doc_level = (STAGE_GATEWAY_ERROR, STAGE_SELF_TYPED, STAGE_MONO_TYPED)
    for record in records:
        entries = [d for d in drops if d.doc_id == record.doc_id]
        stages = [d.stage for d in entries if d.stage in doc_level]
        # Kept, or exactly one document-level drop: never both, never neither.
        assert (record.doc_id in kept_by_id) != bool(stages) and len(stages) <= 1
        answers = [outcomes[build_triple_verification_prompt(t, list(record.entities))] for t in record.triples]
        if CACHE_MISS in answers:
            assert stages == [STAGE_GATEWAY_ERROR] and len(entries) == 1
            continue
        assert STAGE_GATEWAY_ERROR not in stages
        inconsistent = [(i, letter) for i, (_, letter) in enumerate(answers) if letter not in ("A", "C")]
        bad = {record.triples[i].predicate for i, _ in inconsistent}
        removed = sum(t.predicate in bad for t in record.triples)
        verify = [d.reason for d in entries if d.stage == STAGE_TRIPLE_VERIFY]
        if inconsistent:
            assert verify == [{
                "predicates": sorted(bad),
                "triples_removed": removed,
                "verdicts": [{"index": i, "verdict": letter} for i, letter in inconsistent],
            }]
        else:
            assert verify == []
        if record.doc_id in kept_by_id:
            kept_triples = kept_by_id[record.doc_id].triples
            assert not {t.predicate for t in kept_triples} & bad
            assert len(kept_triples) == len(record.triples) - removed


# --- whole-run semantics ----------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_generate_accounts_for_every_document_once(n_good, n_retry, n_fail, n_lost):
    """Annotated, failed and lost documents split the corpus as planned, and
    the printed yield leaves the lost ones out."""
    assume(n_good + n_retry + n_fail + n_lost)
    attempted = n_good + n_retry + n_fail
    ids = [f"doc{i}" for i in range(attempted + n_lost)]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = _write_generate_fixture(Path(tmp), n_good, n_retry, n_fail)
        with corpus.open("a", encoding="utf-8") as fh:  # no cached response, so lost to a gateway error
            fh.writelines(json.dumps(_corpus_doc(i)) + "\n" for i in range(attempted, len(ids)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            config = str(_write_config(Path(tmp)))
            assert main(["generate", "--corpus", str(corpus), "--out-dir", f"{tmp}/gen", "--config", config]) == 0
        annotated = [line["doc_id"] for line in load_jsonl(f"{tmp}/gen/annotations.jsonl")]
        failed = [line["doc_id"] for line in load_jsonl(f"{tmp}/gen/failures.jsonl")]
    lost = [line.split(": ")[1] for line in err.getvalue().splitlines() if line.startswith("gateway error: ")]
    assert sorted(annotated + failed + lost) == sorted(ids)
    good = n_good + n_retry
    assert (annotated, failed, lost) == (ids[:good], ids[good:attempted], ids[attempted:])
    expected_yield = 100.0 * good / (good + n_fail) if good else 0.0
    assert out.getvalue().splitlines()[0] == f"annotated {good}/{attempted} documents, yield {expected_yield:.2f}%"


@st.composite
def scored_runs(draw):
    """Gold records with distinct ids, a prediction for a non-empty subset of
    them, valid or not and some copying their gold's elements so that items
    match, and the matching mode."""
    golds = draw(st.lists(records(), min_size=1, max_size=4, unique_by=lambda r: r.doc_id))
    preds = []
    for gold in draw(st.lists(st.sampled_from(golds), min_size=1, unique_by=lambda r: r.doc_id)):
        pred = replace(draw(predictions), doc_id=gold.doc_id)
        if draw(st.booleans()):
            pred = replace(pred, entities=gold.entities, mentions=gold.mentions, triples=gold.triples)
        preds.append(pred)
    return golds, preds, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(scored_runs())
def test_eval_modes_agree_on_precision(run):
    """An invalid or missing prediction adds gold items only, so tp, fp and
    precision are the same whether its document is scored or dropped."""
    golds, preds, use_spans = run
    all_docs, valid_only = (evaluate(preds, golds, mode, use_spans).tasks for mode in (MODE_ALL, MODE_VALID_ONLY))
    for task in all_docs.keys() & valid_only.keys():
        a, v = all_docs[task], valid_only[task]
        assert (a.tp, a.fp, a.precision) == (v.tp, v.fp, v.precision)


# --- containment of hostile outside bytes ---------------------------------------

HOLE = "\x00hole\x00"


def _paths(value, path=()):
    """The path of every value nested in ``value``, its own included."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, (*path, key))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, (*path, i))


hostile_values = st.one_of(
    json_values.map(json.dumps),  # a value of the wrong type, or of the right one
    st.integers(4301, 6000).map(lambda n: "7" * n),  # over the interpreter's digit limit
    st.sampled_from([MAX_JSON_DEPTH + 1, 100_000]).map(lambda depth: "[" * depth + "]" * depth),
    st.sampled_from(["1e999", "-Infinity", "NaN", "true", "null", '""', "{}"]),
)


@st.composite
def hostile_payloads(draw, valid: dict) -> bytes:
    """``valid``'s JSON bytes with one nested value, or the whole object,
    swapped for a hostile value; then perhaps a byte that is not UTF-8
    inserted, or the bytes cut short."""
    data = json.loads(json.dumps(valid))
    path = draw(st.sampled_from(list(_paths(data))))
    if path:
        *parents, last = path
        owner = data
        for key in parents:
            owner = owner[key]
        owner[last] = HOLE
    else:
        data = HOLE
    payload = json.dumps(data, ensure_ascii=False).replace(json.dumps(HOLE), draw(hostile_values)).encode()
    at = draw(st.integers(0, len(payload)))
    damage = draw(st.sampled_from(["none", "not-utf8", "cut"]))
    if damage == "not-utf8":
        return payload[:at] + b"\xff" + payload[at:]
    return payload[:at] if damage == "cut" else payload


CONTAINED_PROMPT = "ping"
CONTAINED_PARAMS = params_for("contained-model", 0.0)
CONTAINED_RECORD = make_passing_record(random.Random(7), "d7")


def _read_cache_entry(payload: bytes, tmp: Path):
    (tmp / f"{cache_key(CONTAINED_PROMPT, CONTAINED_PARAMS)}.json").write_bytes(payload)
    return ChatGateway(cache_dir=tmp, mode="replay").complete(CONTAINED_PROMPT, CONTAINED_PARAMS)


def _read_embeddings_body(payload: bytes, tmp: Path):
    with mock.patch("synthex.demostore.post_json", lambda *args, **kwargs: payload):
        return ProviderEmbedder("", "embedding-model").embed("hello")


def _read_line(read):
    def reader(payload: bytes, tmp: Path):
        path = tmp / "lines.jsonl"
        path.write_bytes(payload + b"\n")
        return read(path)

    return reader


LEAF_TYPES = {"int": int, "str": str, "bool": bool, "float": float}


def _assert_well_typed(value, annotation: str):
    """``value`` holds the type ``annotation`` names, down through tuples,
    lists and dataclass fields; a bool is not an int. Other annotations are
    not checked."""
    if annotation in LEAF_TYPES:
        assert type(value) is LEAF_TYPES[annotation], (annotation, value)
    elif annotation.startswith(("tuple[", "list[")):
        assert isinstance(value, (tuple, list)), (annotation, value)
        element = annotation[annotation.index("[") + 1 :].split(",")[0].rstrip("]")
        for item in value:
            _assert_well_typed(item, element)
    elif is_dataclass(value):
        assert type(value).__name__ == annotation, (annotation, value)
        for f in fields(value):
            _assert_well_typed(getattr(value, f.name), f.type)


# Reader name: a valid payload, the reader, the type it returns and the one
# error it documents.
CONTAINED_READERS = {
    "cache entry": (
        {"cache_key": cache_key(CONTAINED_PROMPT, CONTAINED_PARAMS), "model_name": "contained-model",
         "temperature": 0.0, "max_tokens": None, "prompt": CONTAINED_PROMPT, "response_text": "pong"},
        _read_cache_entry,
        "str",
        CacheMissError,
    ),
    "completion body": (
        {"choices": [{"message": {"role": "assistant", "content": "pong"}}]},
        lambda payload, tmp: ChatGateway._parse_completion(payload),
        "str",
        EndpointError,
    ),
    "embeddings body": ({"data": [{"embedding": [0.6, 0.8]}]}, _read_embeddings_body, "list[float]", ProviderError),
    "record line": (record_to_dict(CONTAINED_RECORD), _read_line(load_records), "list[AnnotationRecord]", ValueError),
    "corpus line": (
        {"id": "d7", "title": "Title", "text": CONTAINED_RECORD.text},
        _read_line(load_corpus),
        "list[SourceDocument]",
        ValueError,
    ),
    "prediction line": (
        prediction_to_dict(Prediction("d7", CONTAINED_RECORD.entities, CONTAINED_RECORD.mentions,
                                      CONTAINED_RECORD.triples, True, ("a", "b"), {"demo_doc_id": "d1"})),
        _read_line(lambda path: load_jsonl(path, lambda data, _: prediction_from_dict(data))),
        "list[Prediction]",
        ValueError,
    ),
    "model response": (
        {"text_with_spans": CONTAINED_RECORD.annotated_text,
         "entities": [e.to_dict() for e in CONTAINED_RECORD.entities],
         "triples": [t.to_dict() for t in CONTAINED_RECORD.triples],
         "entity_types": list(CONTAINED_RECORD.entity_types),
         "relation_types": list(CONTAINED_RECORD.relation_types)},
        lambda payload, tmp: parse_annotation_response("Here it is: " + payload.decode("utf-8", "replace")),
        "PartialAnnotation",
        UnreadableResponseError,
    ),
}


@pytest.mark.parametrize("reader", sorted(CONTAINED_READERS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_outside_readers_raise_only_their_documented_error(tmp_path_factory, reader, data):
    """A reader returns a value of its type or raises its documented error,
    whatever field of its input is swapped for a hostile value."""
    valid, read, result_type, error = CONTAINED_READERS[reader]
    tmp = tmp_path_factory.mktemp("contained")
    _assert_well_typed(read(json.dumps(valid).encode(), tmp), result_type)
    payload = data.draw(hostile_payloads(valid))
    try:
        result = read(payload, tmp)
    except error:
        return
    _assert_well_typed(result, result_type)
