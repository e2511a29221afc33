"""Property tests: every JSON codec round-trips its type exactly, through the
persisted JSON text; a model response and a record of one layout read the
same; rendering then parsing inline markup is lossless or refused; sentence
splitting, truncation, mention re-anchoring and JSON extraction keep their
invariants on adversarial text; the sentence scanner
agrees with a character-by-character reference, JSON extraction with a
brace-scanner reference and its fence rule with the lazy regex it replaced,
and the fallback index, built or loaded, with an exact-fraction reference
that tokenises each text twice, under any exclusions and k; every exact tie of
fallback cosines goes to the smaller doc id; a provider index embeds each
query as its truncation; phase-2 filtering drops exactly what its verdicts
decide; every reader of outside bytes raises only its documented error on
hostile input; ``generate`` through ``cli.main`` accounts for every corpus
document exactly once; every prediction makes two chat calls, call 2
carrying call 1's partial, unless call 2's prompt would equal call 1's; eval's
two modes agree on precision, and its one-pass reports equal a reference that
scores each mode in a pass of its own; through ``cli.main``, ``infer`` over a
mutated index file and ``eval`` over a mutated predictions file either contain
their failures or refuse on one ``error:`` line, writing nothing."""

import io
import json
import math
import operator
import random
import re
import tempfile
from collections import Counter, namedtuple
from fractions import Fraction
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
    Schema,
    SourceDocument,
    Span,
    Triple,
    derive_entity_types,
    derive_relation_types,
    dump_jsonl,
    load_corpus,
    load_jsonl,
    load_records,
    normalize_surface,
    record_from_dict,
    record_to_dict,
)
from synthex.demostore import (
    DemoIndex,
    EmptyIndexError,
    EmptyTextError,
    ExclusionList,
    FallbackEmbedder,
    ProviderEmbedder,
    ProviderError,
    build_index,
    cosine,
    provider_vector,
)
from synthex.evaluate import MODE_ALL, MODE_VALID_ONLY, TASKS, evaluate
from synthex.inference import (
    InferencePipeline,
    Prediction,
    _reanchor_mentions,
    build_inference_prompt,
    first_fragment,
    prediction_from_dict,
    prediction_to_dict,
)
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

from conftest import good_annotation_response, make_passing_record, params_for, replay_gateway
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


# extract_json_block's fence rule as a regex: the function scans for the
# closing fence instead, since the lazy group steps one character at a time.
REGEX_FENCE = re.compile(r"```json\s*\n(.*?)```", re.DOTALL)


def regex_fenced_json_block(response: str):
    """Reference for extract_json_block: the fenced block REGEX_FENCE finds,
    else the object the stdlib decoder reads from the first ``{``."""
    fence = REGEX_FENCE.search(response)
    start = response.find("{")
    if fence is None and start == -1:
        raise NoJsonFoundError("response contains no JSON object")
    try:
        if fence is not None:
            return json.loads(fence.group(1).strip())
        return json.JSONDecoder().raw_decode(response[start:])[0]
    except ValueError as exc:
        raise ResponseSyntaxError(f"candidate is not strict JSON: {exc}") from exc


fence_heavy = st.lists(
    st.sampled_from(["```", "```json", "`", "\n", "\r", "\t", "\x85", "\xa0", " ", "{", "{", "}", '"a"', ":", "1"]),
    max_size=24,
).map("".join)


@settings(max_examples=1500, deadline=None)
@given(fence_heavy)
@example('```json\n{"a": 1}')  # an unclosed first fence: the first { decides
@example('```json \n\t\n\x85\n {"a": 1}``` ```json\n{}```')  # the block starts after the last newline
def test_extract_json_block_fence_rule_matches_the_regex(response):
    assert outcome(extract_json_block, response) == outcome(regex_fenced_json_block, response)


def reference_counts(vocabulary: set, text: str) -> Counter:
    """A text's counts of the vocabulary's tokens."""
    tokens = normalize_surface(text).split()
    if not tokens:
        raise EmptyTextError("cannot embed empty text")
    return Counter(token for token in tokens if token in vocabulary)


def reference_fallback_index(texts: list[str]):
    """The vocabulary and each entry's integer token counts, from two
    tokenising passes over the texts: the vocabulary from one, the counts
    from a second."""
    vocabulary = sorted({token for text in texts for token in normalize_surface(text).split()})
    return vocabulary, [reference_counts(set(vocabulary), text) for text in texts]


def reference_ranking(doc_ids: list[str], entries: list, query: Counter) -> list[tuple[str, str]]:
    """Every entry's doc id and score, ranked by the exact squared cosine
    ``Fraction(d * d, q * s)`` of its counts with the query's, descending,
    then by doc id. The score is that fraction rounded once, then its square
    root, as ``float.hex()``."""
    q = sum(n * n for n in query.values())
    exact = []
    for doc_id, counts in zip(doc_ids, entries):
        d = sum(n * counts[token] for token, n in query.items())
        exact.append((doc_id, Fraction(d * d, q * sum(n * n for n in counts.values())) if d else Fraction(0)))
    exact.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(doc_id, math.sqrt(float(squared)).hex()) for doc_id, squared in exact]


def assert_retrieval_matches_reference(index: DemoIndex, entries: list, queries: list[str], excluded: set, k: int):
    """Every query ranks its top ``k`` of the entries not ``excluded`` as the
    exact reference does, and each score is within 1e-12 of the dense float
    cosine."""
    vocabulary = set(index.vocabulary)
    vectors = {e.doc_id: e.vector for e in index.entries}
    doc_ids = [e.doc_id for e in index.entries]
    exclusions = ExclusionList(excluded)
    for query in queries:
        if set(doc_ids) <= exclusions:
            with pytest.raises(EmptyIndexError):
                index.retrieve_scored(query, exclusions, k=k)
            continue
        text = truncate_text(query, index.min_words)
        try:
            counts = reference_counts(vocabulary, text)
        except EmptyTextError:
            with pytest.raises(EmptyTextError):
                index.retrieve_scored(query, exclusions, k=k)
            continue
        got = index.retrieve_scored(query, exclusions, k=k)
        ranked = [(r.doc_id, score.hex()) for r, score in got]
        reference = reference_ranking(doc_ids, entries, counts)
        assert ranked == [pair for pair in reference if pair[0] not in exclusions][:k]
        if counts:
            vector = FallbackEmbedder(index.vocabulary).embed(text)
            assert [score for _, score in got] == pytest.approx(
                [cosine(vector, vectors[r.doc_id]) for r, _ in got], abs=1e-12
            )


MIN_WORDS = 8
worded_prose = prose.filter(str.split)


def plain_records(texts: list[str], doc_ids=None) -> list[AnnotationRecord]:
    return [
        AnnotationRecord(doc_id=doc_id, text=text, annotated_text=text, entities=(), mentions=(), triples=(),
                         entity_types=(), relation_types=())
        for doc_id, text in zip(doc_ids or [f"d{i}" for i in range(len(texts))], texts)
    ]


# Doc ids to exclude (d6 names no entry) and a k, for the reference checks.
excluded_ids = st.sets(st.sampled_from([f"d{i}" for i in range(7)]))
ks = st.integers(1, 6)


@settings(max_examples=200, deadline=None)
@given(st.lists(worded_prose, min_size=1, max_size=6), st.lists(prose, max_size=4), excluded_ids, ks)
@example(["Alpha beta.", " \x85 "], ["beta"], set(), 6)
@example(["Fff eee h j aa eee hh jjj."], ["eee"], set(), 1)
@example(["Alpha beta.", "Gamma.", "Beta gamma."], ["delta", "alpha"], {"d0", "d6"}, 2)
@example(["Alpha beta.", "Gamma."], ["alpha"], {"d0", "d1"}, 1)
def test_fallback_index_matches_the_two_pass_reference(texts, queries, excluded, k):
    records = plain_records(texts)
    try:
        vocabulary, entries = reference_fallback_index([truncate_text(text, MIN_WORDS) for text in texts])
    except EmptyTextError:
        with pytest.raises(EmptyTextError):
            build_index(records, mode="fallback", min_words=MIN_WORDS)
        return
    index = build_index(records, mode="fallback", min_words=MIN_WORDS)
    assert index.vocabulary == vocabulary
    assert_retrieval_matches_reference(index, entries, queries, excluded, k)


@settings(max_examples=100, deadline=None)
@given(st.lists(worded_prose, min_size=1, max_size=6), st.lists(prose, max_size=4), excluded_ids, ks)
@example(["Fff eee h j aa eee hh jjj."], ["eee"], set(), 1)
def test_loaded_fallback_index_matches_the_two_pass_reference(texts, queries, excluded, k):
    """The reference check above on an index saved and loaded back, which
    builds its postings while loading rather than on its first retrieval."""
    records = plain_records(texts)
    try:
        vocabulary, entries = reference_fallback_index([truncate_text(t, MIN_WORDS) for t in texts])
    except EmptyTextError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"
        build_index(records, mode="fallback", min_words=MIN_WORDS).save(path)
        index = DemoIndex.load(path)
    assert index.vocabulary == vocabulary
    assert_retrieval_matches_reference(index, entries, queries, excluded, k)


TIED_TOKENS = ["alpha", "beta", "gamma", "delta", "epsilon"]
SHARED_TOKENS = ["eta", "theta", "iota"]


def counted_text(counts: dict, order) -> str:
    """A text holding each token as often as ``counts`` says, in an order drawn by ``order``."""
    return " ".join(order([token for token, n in counts.items() for _ in range(n)]))


@st.composite
def tied_indexes(draw):
    """Demonstrations whose counts of the tied tokens are permutations of one
    another and whose counts of the other tokens are all the same, a few
    other demonstrations, doc ids shuffled against index order, and a query
    that counts every tied token equally: so the permuted demonstrations tie
    exactly. Returns the texts, the doc ids, the query and the doc ids of the
    tied demonstrations."""
    tied = TIED_TOKENS[: draw(st.integers(2, len(TIED_TOKENS)))]
    base = draw(st.lists(st.integers(0, 4), min_size=len(tied), max_size=len(tied)).filter(any))
    shared = draw(st.dictionaries(st.sampled_from(SHARED_TOKENS), st.integers(1, 3)))
    permuted = draw(st.lists(st.permutations(base), min_size=2, max_size=6))
    demos = [{**dict(zip(tied, counts)), **shared} for counts in permuted]
    any_counts = st.dictionaries(st.sampled_from(TIED_TOKENS + SHARED_TOKENS), st.integers(1, 4), min_size=1)
    others = draw(st.lists(any_counts, max_size=3))
    n_query = draw(st.integers(1, 3))
    query = {token: n_query for token in tied}
    query.update(draw(st.dictionaries(st.sampled_from(SHARED_TOKENS), st.integers(1, 3))))
    order = lambda words: draw(st.permutations(words))
    doc_ids = draw(st.permutations([f"p{i:02d}" for i in range(len(demos) + len(others))]))
    texts = [counted_text(counts, order) for counts in demos + others]
    return texts, doc_ids, counted_text(query, order), doc_ids[: len(demos)]


@settings(max_examples=150, deadline=None)
@given(tied_indexes())
@example((["beta delta epsilon epsilon epsilon", "beta delta delta delta epsilon"], ["p01", "p00"],
          "alpha beta gamma delta epsilon", ["p01", "p00"]))
def test_exact_ties_go_to_the_smaller_doc_id(case):
    """Permuted token counts under a query symmetric in those tokens give
    mathematically equal cosines; each such tie, like every other exact tie,
    ranks by ascending doc id, in a built index and in one loaded back."""
    texts, doc_ids, query, tied_ids = case
    records = plain_records(texts, doc_ids)
    built = build_index(records, mode="fallback", min_words=1000)
    _, entries = reference_fallback_index(texts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"
        built.save(path)
        loaded = DemoIndex.load(path)
    for index in (built, loaded):
        got = index.retrieve_scored(query, k=len(texts))
        assert len({score for r, score in got if r.doc_id in tied_ids}) == 1
        expected = reference_ranking(doc_ids, entries, reference_counts(set(index.vocabulary), query))
        assert [(r.doc_id, score.hex()) for r, score in got] == expected


class ScriptedEmbedder:
    """An embeddings provider that logs every text it is sent."""

    def __init__(self):
        self.sent = []

    def embed(self, text: str) -> list[float]:
        self.sent.append(text)
        return provider_vector([1.0, len(text) % 7])


@PROPERTY_SETTINGS
@given(st.lists(worded_prose, min_size=1, max_size=4), prose, st.integers(1, 30), st.booleans())
def test_provider_query_is_embedded_as_its_truncation(texts, query, min_words, reload):
    """A provider index sends the embedder each demonstration's truncation
    and each query's, truncated by the index's ``min_words``, built or
    loaded back."""
    embedder = ScriptedEmbedder()
    index = build_index(plain_records(texts), mode="provider", embedder=embedder, min_words=min_words)
    assert embedder.sent == [truncate_text(text, min_words) for text in texts]
    if reload:
        with tempfile.TemporaryDirectory() as tmp:
            index.save(Path(tmp) / "index.jsonl")
            index = DemoIndex.load(Path(tmp) / "index.jsonl")
    del embedder.sent[:]
    index.retrieve_scored(query, k=len(texts), embedder=embedder)
    assert embedder.sent == [truncate_text(query, min_words)]


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


INFER_MODEL = "test-model"
INFER_SCHEMA = Schema.from_lists(["Topic"], ["relates_to"])
sentences = st.lists(st.sampled_from(["Alpha", "beta", "Gamma", "delta", "epsilon"]), min_size=1, max_size=6).map(
    lambda words: " ".join(words) + "."
)
documents = st.lists(st.lists(sentences, min_size=1, max_size=3).map(" ".join), min_size=1, max_size=3).map(
    lambda paragraphs: SourceDocument(id="q", text="\n\n".join(paragraphs))
)


@settings(max_examples=40, deadline=None)
@given(documents, st.sampled_from(["parsed", "unreadable"]), st.sampled_from(["valid", "unreadable", "echo"]))
def test_each_prediction_makes_two_calls_and_call_two_carries_call_one(doc, call_1, call_2):
    """Through a replayed gateway: every prediction, valid or not, makes two
    chat calls, unless call 2's prompt equals call 1's (a document that is
    its own first fragment, whose call 1 did not parse); then it makes one,
    and call 1's answer stands as call 2's. It is valid exactly when call 2's
    answer parses and echoes the document; call 2's query block holds call
    1's markup and entities when call 1 parsed, and an empty annotation when
    it did not."""
    demo = make_passing_record(random.Random(3), "demo")
    fragment = first_fragment(doc)
    response_1 = good_annotation_response(fragment) if call_1 == "parsed" else "no json here"
    response_2 = {
        "valid": good_annotation_response(doc.text),
        "unreadable": "still no json",
        "echo": good_annotation_response(doc.text + " Zeta."),
    }[call_2]
    partials = [None]
    if call_1 == "parsed":
        partials.append(replace(parse_annotation_response(response_1), text=fragment))
    answers = {build_inference_prompt(demo, None, fragment, INFER_SCHEMA): response_1}
    for partial in partials:
        # Call 2 is answered with or without the partial; the prompt check
        # below decides. A one-paragraph document whose call 1 did not parse
        # would ask call 2 what it asked call 1, so call 1's answer stands.
        answers.setdefault(build_inference_prompt(demo, partial, doc.text, INFER_SCHEMA), response_2)
    params = params_for(INFER_MODEL, 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        gateway = replay_gateway(Path(tmp), [(prompt, params, answer) for prompt, answer in answers.items()])
        prompts = []
        complete = gateway.complete
        gateway.complete = lambda prompt, call_params: prompts.append(prompt) or complete(prompt, call_params)
        index = build_index([demo], mode="fallback", min_words=100)
        prediction = InferencePipeline(gateway, index, INFER_MODEL).infer(doc, INFER_SCHEMA)
    prompt_1 = build_inference_prompt(demo, None, fragment, INFER_SCHEMA)
    prompt_2 = build_inference_prompt(demo, partials[-1], doc.text, INFER_SCHEMA)
    assert prompts == ([prompt_1] if prompt_2 == prompt_1 else [prompt_1, prompt_2])
    assert prediction.raw_responses == (response_1, answers[prompt_2])
    assert prediction.valid == (answers[prompt_2] == good_annotation_response(doc.text))
    query_block = json.loads(re.findall(r"```json\n(.*?)\n```", prompt_2, re.DOTALL)[1])
    carried = (query_block["text_with_spans"], query_block["entities"])
    if call_1 == "parsed":
        call_1_block = json.loads(re.search(r"```json\n(.*?)\n```", response_1, re.DOTALL).group(1))
        assert carried == (call_1_block["text_with_spans"], call_1_block["entities"])
    else:
        assert carried == ("", [])


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


# The evaluator as it was when each mode scored every gold document in a pass
# of its own, each cluster scanning every mention of its document; copied as
# it was, less the score class, so that one-pass reports can be held to it.

def _reference_greedy_match(candidates):
    taken_pred, taken_gold, pairs = set(), set(), []
    for *_, i, j in sorted(candidates):
        if i not in taken_pred and j not in taken_gold:
            taken_pred.add(i)
            taken_gold.add(j)
            pairs.append((i, j))
    return pairs


ReferenceCluster = namedtuple("ReferenceCluster", "surfaces type_label key")


def _reference_cluster(entity, mentions):
    surfaces = frozenset(normalize_surface(m.surface) for m in mentions if m.entity_id == entity.id)
    if not surfaces:
        surfaces = frozenset({normalize_surface(entity.name)})
    type_label = normalize_surface(entity.type_label)
    return ReferenceCluster(surfaces, type_label, (tuple(sorted(surfaces)), type_label))


def _reference_side(doc):
    entities, doc_mentions, doc_triples = (doc.entities, doc.mentions, doc.triples) if doc else ((), (), ())
    clusters = [_reference_cluster(e, doc_mentions) for e in entities]
    by_id = {e.id: c for e, c in zip(entities, clusters)}
    return doc_mentions, clusters, [
        (normalize_surface(t.predicate), by_id.get(t.subject), by_id.get(t.object)) for t in doc_triples
    ]


def _reference_scores(pred_doc, gold_doc, use_spans):
    """tp/fp/fn of one document for each task, in ``TASKS`` order."""
    (p_mentions, p_clusters, p_triples), (g_mentions, g_clusters, g_triples) = map(
        _reference_side, (pred_doc, gold_doc)
    )

    def key(m):
        return (m.span.start, m.span.end) if use_spans else normalize_surface(m.surface)

    def score(matched, predicted, gold):
        return matched, predicted - matched, gold - matched

    overlap = sum((Counter(map(key, p_mentions)) & Counter(map(key, g_mentions))).values())
    pairs = _reference_greedy_match(
        (-len(p.surfaces & g.surfaces), p.key, g.key, i, j)
        for i, p in enumerate(p_clusters)
        for j, g in enumerate(g_clusters)
        if p.surfaces & g.surfaces
    )
    typed = sum(1 for i, j in pairs if p_clusters[i].type_label == g_clusters[j].type_label)
    candidates = []
    for i, (p_pred, p_subj, p_obj) in enumerate(p_triples):
        if p_subj is None or p_obj is None:
            continue
        for j, (g_pred, g_subj, g_obj) in enumerate(g_triples):
            if g_subj is None or g_obj is None or p_pred != g_pred:
                continue
            subj_overlap = len(p_subj.surfaces & g_subj.surfaces)
            obj_overlap = len(p_obj.surfaces & g_obj.surfaces)
            if subj_overlap and obj_overlap:
                candidate = (
                    -(subj_overlap + obj_overlap),
                    (p_pred, p_subj.key, p_obj.key),
                    (g_pred, g_subj.key, g_obj.key),
                    i,
                    j,
                )
                typed_ends = p_subj.type_label == g_subj.type_label and p_obj.type_label == g_obj.type_label
                candidates.append((candidate, typed_ends))
    general = _reference_greedy_match(c for c, _ in candidates)
    strict = _reference_greedy_match(c for c, typed_ends in candidates if typed_ends)
    return (
        score(overlap, len(p_mentions), len(g_mentions)),
        score(len(pairs), len(p_clusters), len(g_clusters)),
        score(typed, len(p_clusters), len(g_clusters)),
        score(len(general), len(p_triples), len(g_triples)),
        score(len(strict), len(p_triples), len(g_triples)),
    )


def reference_evaluate(predictions, golds, mode, use_spans):
    """(task -> (tp, fp, fn), missing predictions, valid rate) of one mode."""
    by_id = {p.doc_id: p for p in predictions}
    tasks = dict.fromkeys(TASKS, (0, 0, 0))
    mentions_annotated = True
    missing = 0
    for gold_doc in golds:
        pred_doc = by_id.get(gold_doc.doc_id)
        missing += pred_doc is None
        if pred_doc is None or not pred_doc.valid:
            if mode == MODE_VALID_ONLY:
                continue
            pred_doc = None
        if gold_doc.entities and not gold_doc.mentions:
            mentions_annotated = False
        for task, counts in zip(TASKS, _reference_scores(pred_doc, gold_doc, use_spans)):
            tasks[task] = tuple(map(operator.add, tasks[task], counts))
    if not mentions_annotated:
        del tasks["mention_det"]
    return tasks, missing, 100.0 * sum(p.valid for p in predictions) / len(predictions)


def assert_matches_the_reference(preds, golds):
    """Both modes, with and without spans, whether reported by their own
    ``evaluate`` call or derived from the ``all_docs`` one."""
    for use_spans in (False, True):
        all_docs = evaluate(preds, golds, MODE_ALL, use_spans)
        for mode in (MODE_ALL, MODE_VALID_ONLY):
            expected = reference_evaluate(preds, golds, mode, use_spans)
            for report in (all_docs.in_mode(mode), evaluate(preds, golds, mode, use_spans)):
                assert report.mode == mode
                tasks = {task: (s.tp, s.fp, s.fn) for task, s in report.tasks.items()}
                assert (tasks, report.missing_predictions, report.valid_rate) == expected


@settings(max_examples=100, deadline=None)
@given(scored_runs())
def test_one_pass_eval_matches_the_two_pass_reference(run):
    golds, preds, _ = run
    assert_matches_the_reference(preds, golds)


def _grouping_case(gold_entities, gold_mentions, pred_entities, pred_mentions, triple=None):
    """One gold document and a valid prediction for it, plus a second gold
    document whose prediction is invalid, over the surfaces "a", "b" and "c"."""
    def mention(entity_id, surface, start):
        return Mention(entity_id, Span(start, start + 1), surface, "T")

    triples = (triple,) if triple else ()
    gold = AnnotationRecord("g", "a b c", "a b c", tuple(gold_entities),
                            tuple(mention(*m) for m in gold_mentions), triples, ("T",), ())
    other = replace(gold, doc_id="h")
    preds = [
        Prediction("g", tuple(pred_entities), tuple(mention(*m) for m in pred_mentions), triples, True, ("", "")),
        Prediction("h", (), (), (), False, ("", "")),
    ]
    return preds, [gold, other]


def test_eval_groups_a_repeated_entity_id_into_each_listing():
    """Both listings of id 0 gather the mentions "a" and "b"; the triple's
    endpoints resolve to the last listing, so its "a" matches the predicted
    endpoints."""
    triple = Triple("d", "s", 0, "p", 0)
    entities = [Entity(0, "a", "T"), Entity(0, "b", "U")]
    preds, golds = _grouping_case(entities, [(0, "a", 0), (0, "b", 2)], entities[:1], [(0, "a", 0)], triple)
    assert_matches_the_reference(preds, golds)
    tasks = evaluate(preds, golds).in_mode(MODE_VALID_ONLY).tasks
    assert (tasks["entity_ident"].tp, tasks["entity_ident"].fn) == (1, 1)
    assert (tasks["entity_class"].tp, tasks["re_general"].tp, tasks["re_strict"].tp) == (1, 1, 0)


def test_eval_leaves_a_mention_of_no_listed_entity_out_of_every_cluster():
    """The mention "c" of id 7 still counts for mention detection, but joins
    no cluster, so entity 0 matches on "a" alone."""
    preds, golds = _grouping_case(
        [Entity(0, "a", "T")], [(0, "a", 0), (7, "c", 4)], [Entity(0, "a", "T")], [(0, "a", 0)]
    )
    assert_matches_the_reference(preds, golds)
    tasks = evaluate(preds, golds).tasks
    assert (tasks["mention_det"].tp, tasks["mention_det"].fn) == (1, 3)
    assert (tasks["entity_ident"].tp, tasks["entity_ident"].fn) == (1, 1)


def test_eval_clusters_an_entity_with_no_mention_by_its_name():
    """Entity 1 has no mention, so its cluster is its normalized name "  B "
    -> "b", which the prediction's mention "B " matches once normalized."""
    preds, golds = _grouping_case(
        [Entity(0, "a", "T"), Entity(1, "  B ", "T")], [(0, "a", 0)],
        [Entity(0, "x", "T")], [(0, "B ", 2)],
    )
    assert_matches_the_reference(preds, golds)
    tasks = evaluate(preds, golds, MODE_VALID_ONLY).tasks
    assert (tasks["entity_ident"].tp, tasks["entity_ident"].fp, tasks["entity_ident"].fn) == (1, 0, 1)


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


# --- containment through cli.main ------------------------------------------------

CONTAINED_DEMOS = [make_passing_record(random.Random(seed), f"d{seed}") for seed in (11, 12, 13)]
CONTAINED_SWAPS = ["null", "true", str(2**70), "1e308", '""', "[]", "{}", "[" * 3000 + "]" * 3000]


def _value_at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def mutated_jsonl(draw, lines: list) -> bytes:
    """The JSONL bytes of ``lines`` with one mutation: a key dropped from an
    object, one value (a whole line included) swapped for one of
    ``CONTAINED_SWAPS``, or the bytes cut short at one byte."""
    data = json.loads(json.dumps(lines))
    kind = draw(st.sampled_from(["drop", "swap", "cut"]))
    if kind == "drop":
        objects = [p for p in _paths(data) if isinstance(_value_at(data, p), dict) and _value_at(data, p)]
        owner = _value_at(data, draw(st.sampled_from(objects)))
        del owner[draw(st.sampled_from(sorted(owner)))]
    elif kind == "swap":
        *parents, last = draw(st.sampled_from([p for p in _paths(data) if p]))
        _value_at(data, parents)[last] = HOLE
    payload = "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in data)
    if kind == "swap":
        payload = payload.replace(json.dumps(HOLE), draw(st.sampled_from(CONTAINED_SWAPS)))
    payload = payload.encode()
    return payload[: draw(st.integers(0, len(payload) - 1))] if kind == "cut" else payload


def _index_lines(tmp: Path) -> list:
    build_index(CONTAINED_DEMOS, mode="fallback", min_words=100).save(tmp / "valid-index.jsonl")
    return [json.loads(line) for line in (tmp / "valid-index.jsonl").read_text(encoding="utf-8").splitlines()]


def _infer_argv(tmp: Path) -> list[str]:
    """``synthex infer --replay`` over an empty cache, of two queries against ``tmp/index.jsonl``."""
    task = {
        "schema": {"entity_types": ["Person", "Place"], "relation_types": ["located_in"]},
        "documents": [{"id": f"q{i}", "text": demo.text} for i, demo in enumerate(CONTAINED_DEMOS[:2])],
    }
    (tmp / "task.json").write_text(json.dumps(task), encoding="utf-8")
    return ["infer", "--replay", "--task", str(tmp / "task.json"), "--index", str(tmp / "index.jsonl"),
            "--output", str(tmp / "out" / "predictions.jsonl"),
            "--config", str(_write_config(tmp))]


CONTAINED_PREDICTIONS = [
    prediction_to_dict(Prediction(g.doc_id, g.entities, g.mentions, g.triples, i != 1, ("a", "b")))
    for i, g in enumerate(CONTAINED_DEMOS)
]


def _eval_argv(tmp: Path) -> list[str]:
    """``synthex eval`` of ``tmp/predictions.jsonl`` against the three demonstrations as gold."""
    dump_jsonl([record_to_dict(g) for g in CONTAINED_DEMOS], tmp / "gold.jsonl")
    return ["eval", "--predictions", str(tmp / "predictions.jsonl"), "--gold", str(tmp / "gold.jsonl"),
            "--output", str(tmp / "out" / "report.json")]


def _run_main(argv: list[str]) -> tuple[int, list[str]]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def assert_contained(code: int, errors: list[str], tmp: Path, contained=lambda line: False):
    """Exit 0 with each stderr line one ``contained`` accepts, or exit 1
    with one ``error: …`` line and no output written."""
    if code == 0:
        assert (tmp / "out").exists() and all(map(contained, errors)), errors
    else:
        assert code == 1 and len(errors) == 1 and errors[0].startswith("error: "), errors
        assert not (tmp / "out").exists()


def _lost_to_the_gateway(line: str) -> bool:
    return line.startswith("gateway error: q") or re.fullmatch(r"\d+ documents failed on gateway errors", line)


def test_unmutated_command_inputs_run():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "index.jsonl").write_text("".join(json.dumps(line) + "\n" for line in _index_lines(tmp)))
        code, errors = _run_main(_infer_argv(tmp))
        assert code == 0 and len(errors) == 3 and all(map(_lost_to_the_gateway, errors)), errors
        dump_jsonl(CONTAINED_PREDICTIONS, tmp / "predictions.jsonl")
        assert _run_main(_eval_argv(tmp)) == (0, [])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_index_file_is_contained_by_infer(data):
    """``synthex infer`` over a 3-entry index file with one mutation either
    loses its documents to the empty cache or refuses the run on one line,
    writing nothing; ``main`` never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "index.jsonl").write_bytes(data.draw(mutated_jsonl(_index_lines(tmp))))
        code, errors = _run_main(_infer_argv(tmp))
        assert_contained(code, errors, tmp, _lost_to_the_gateway)


@settings(max_examples=200, deadline=None)
@given(mutated_jsonl(CONTAINED_PREDICTIONS))
def test_a_mutated_predictions_file_is_contained_by_eval(payload):
    """``synthex eval`` of a predictions file with one mutation either
    scores it or refuses on one line, writing nothing; ``main`` never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "predictions.jsonl").write_bytes(payload)
        code, errors = _run_main(_eval_argv(tmp))
        assert_contained(code, errors, tmp)
