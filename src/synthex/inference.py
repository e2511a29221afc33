"""Two-call in-context inference for schema-constrained extraction.

Call 1 annotates only the first paragraph of the query document; call 2
receives the entire document with call 1's annotations pre-filled in the
"annotation I want you to complete" block. Seeding the long call with a
correctly formatted beginning drastically reduces format failures on long
documents. Call-1 failure is tolerated — the pipeline proceeds with an empty
partial — but a call-2 parse or echo failure makes the whole prediction
invalid: there are no partially trusted outputs. When call 2's prompt would
equal call 1's (a document that is its own first fragment, whose call-1
answer did not parse), no second call is made and call 1's answer stands as
call 2's.

A pipeline renders each demonstration's prompt block once per run and reuses
it for both calls of every query that retrieves that demonstration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .annotator import fill_template, parse_annotation_response, truncate_text, word_count
from .core import (
    AnnotationRecord,
    Entity,
    Mention,
    PartialAnnotation,
    Schema,
    SourceDocument,
    Span,
    Triple,
    checked,
    decode_doc_id,
    normalize_surface,
    read_elements,
    read_layout,
    split_paragraphs,
)
from .demostore import DemoIndex, ExclusionList
from .gateway import ChatGateway, GenerationParams, UnreadableResponseError
from .markup import MarkupError, parse_annotated


@dataclass(frozen=True)
class Prediction:
    """Extraction output for one document; invalid predictions are empty."""

    doc_id: str
    entities: tuple[Entity, ...]
    mentions: tuple[Mention, ...]
    triples: tuple[Triple, ...]
    valid: bool
    raw_responses: tuple[str, str]
    provenance: dict = field(default_factory=dict, compare=False)


INFERENCE_TEMPLATE = """Help me build a knowledge graph. I will provide a text and you annotate it.
Here is what correct annotation looks like:
```json
{demo_block}
```

(Note how the entity ids start from 0 and allow for coreference resolution,
as multiple spans in the annotated text can refer to the same entity.)

Here is the annotation I want you to complete:
```json
{query_block}
```

Do not add any entity or relation types! Use only the ones provided in the JSON.
Where possible, reuse the entity ids from the annotation I've started.
If I've missed any entities (or failed to resolve coreferences) or triples,
please fix accordingly.
Return the completed JSON, not just your changes."""


def _prompt_block(text: str, types, markup: str, entities, triples) -> str:
    """One JSON block of the in-context prompt, keys in the order shown;
    ``types``, a schema or a record, gives the type inventories."""
    return json.dumps({
        "text": text,
        "entity_types": list(types.entity_types),
        "text_with_spans": markup,
        "entities": [e.to_dict() for e in entities],
        "relation_types": list(types.relation_types),
        "relations": [t.to_dict() for t in triples],
    }, indent=4, ensure_ascii=False)


def _demo_block(demo: AnnotationRecord) -> str:
    """The demonstration's block, with its own type inventories."""
    return _prompt_block(demo.text, demo, demo.annotated_text, demo.entities, demo.triples)


def build_inference_prompt(
    demo: AnnotationRecord,
    partial: PartialAnnotation | None,
    query_text: str,
    schema: Schema,
    demo_block: str | None = None,
) -> str:
    """Fill the in-context template with a demonstration and the query block.

    The demonstration keeps its own type inventories; the query block carries
    the task schema. When a partial is given its annotations are pre-filled so
    the model extends rather than restarts. ``demo_block``, when given, is
    ``demo``'s block already rendered.
    """
    schema.require_nonempty()
    partial = partial or PartialAnnotation()
    return fill_template(INFERENCE_TEMPLATE, {
        "demo_block": demo_block or _demo_block(demo),
        "query_block": _prompt_block(query_text, schema, partial.text_with_spans, partial.entities, partial.triples),
    })


# A lone paragraph longer than this many words is too much for call 1.
_SINGLE_PARAGRAPH_LIMIT = 150


def first_fragment(doc: SourceDocument) -> str:
    """The first paragraph; a single over-long paragraph falls back to a
    sentence-aligned ~100-word prefix."""
    paragraphs = split_paragraphs(doc.text)
    if not paragraphs:
        return doc.text
    if len(paragraphs) == 1 and word_count(paragraphs[0]) > _SINGLE_PARAGRAPH_LIMIT:
        return truncate_text(doc.text, 100)
    return paragraphs[0]


def _collapse_whitespace(text: str) -> str:
    return " ".join(text.split())


def _reanchor_mentions(
    mentions: list[Mention], text: str
) -> tuple[list[Mention], int]:
    """Re-locate mention surfaces in the full document by substring search.

    The echo check at inference is whitespace-relaxed, so parsed spans may be
    slightly off; each mention is re-anchored strictly on its surface string,
    at its first occurrence after the previous anchored mention. A mention
    with no such occurrence is dropped, so anchored spans are in order and
    never overlap.
    """
    anchored: list[Mention] = []
    dropped = 0
    cursor = 0
    for m in mentions:
        index = text.find(m.surface, cursor)
        if index == -1:
            dropped += 1
            continue
        cursor = index + len(m.surface)
        anchored.append(Mention(m.entity_id, Span(index, cursor), m.surface, m.type_label))
    return anchored, dropped


def _invalid(doc_id: str, responses: tuple[str, str], reason: str) -> Prediction:
    return Prediction(
        doc_id=doc_id,
        entities=(),
        mentions=(),
        triples=(),
        valid=False,
        raw_responses=responses,
        provenance={"invalid_reason": reason},
    )


def _prediction_from_raw(
    doc: SourceDocument, raw: PartialAnnotation, responses: tuple[str, str]
) -> Prediction:
    """Build a valid prediction, or an invalid one when the markup does not
    parse or the echo check fails."""
    try:
        plain, parsed_mentions = parse_annotated(raw.text_with_spans)
    except MarkupError as exc:
        return _invalid(doc.id, responses, f"markup: {exc}")
    if _collapse_whitespace(plain) != _collapse_whitespace(doc.text):
        return _invalid(doc.id, responses, "echo check failed")
    known_ids = {e.id for e in raw.entities}
    anchored, dropped = _reanchor_mentions(
        [m for m in parsed_mentions if m.entity_id in known_ids], doc.text
    )
    triples = tuple(t for t in raw.triples if t.subject in known_ids and t.object in known_ids)
    return Prediction(
        doc_id=doc.id,
        entities=raw.entities,
        mentions=tuple(anchored),
        triples=triples,
        valid=True,
        raw_responses=responses,
        provenance={"mentions_dropped": dropped},
    )


def enforce_schema(pred: Prediction, schema: Schema) -> Prediction:
    """Drop entities and triples whose types fall outside the task schema.

    Removing an entity removes its mentions and every incident triple. Drop
    counts land in the prediction provenance.
    """
    if not pred.valid:
        raise ValueError("enforce_schema requires a valid prediction")
    allowed_entity_types = {normalize_surface(t) for t in schema.entity_types}
    allowed_predicates = {normalize_surface(t) for t in schema.relation_types}
    kept_entities = tuple(
        e for e in pred.entities if normalize_surface(e.type_label) in allowed_entity_types
    )
    kept_ids = {e.id for e in kept_entities}
    kept_mentions = tuple(m for m in pred.mentions if m.entity_id in kept_ids)
    kept_triples = tuple(
        t
        for t in pred.triples
        if t.subject in kept_ids
        and t.object in kept_ids
        and normalize_surface(t.predicate) in allowed_predicates
    )
    provenance = dict(pred.provenance)
    provenance["schema_drops"] = {
        "entities": len(pred.entities) - len(kept_entities),
        "triples": len(pred.triples) - len(kept_triples),
    }
    return replace(
        pred,
        entities=kept_entities,
        mentions=kept_mentions,
        triples=kept_triples,
        provenance=provenance,
    )


class InferencePipeline:
    """Retrieval, the two model calls, validation, and schema enforcement."""

    def __init__(
        self,
        gateway: ChatGateway,
        index: DemoIndex,
        model_name: str,
        exclusions: ExclusionList | None = None,
        embedder=None,
        max_tokens: int | None = None,
    ):
        self.gateway = gateway
        self.index = index
        self.exclusions = exclusions
        self.embedder = embedder
        self._demo_blocks: dict[str, str] = {}  # by doc id; racing threads write equal strings
        # Both calls run at temperature 0 and there is no retry: validity
        # rates are a headline metric and silent retries would distort them.
        self.params = GenerationParams(temperature=0.0, model_name=model_name, max_tokens=max_tokens)

    def infer(self, doc: SourceDocument, schema: Schema) -> Prediction:
        demo = self.index.retrieve(doc.text, self.exclusions, k=1, embedder=self.embedder)[0]
        demo_block = self._demo_blocks.get(demo.doc_id)
        if demo_block is None:
            demo_block = self._demo_blocks[demo.doc_id] = _demo_block(demo)

        fragment = first_fragment(doc)
        prompt_1 = build_inference_prompt(demo, None, fragment, schema, demo_block)
        response_1 = self.gateway.complete(prompt_1, self.params)
        try:
            partial = replace(parse_annotation_response(response_1), text=fragment)
        except UnreadableResponseError:
            partial = None  # call 1 is an aid, not a gate: call 2 starts from an empty annotation

        prompt_2 = build_inference_prompt(demo, partial, doc.text, schema, demo_block)
        # Equal prompts share one cache key, so call 1's answer is call 2's.
        response_2 = response_1 if prompt_2 == prompt_1 else self.gateway.complete(prompt_2, self.params)
        responses = (response_1, response_2)
        try:
            raw = parse_annotation_response(response_2)
        except UnreadableResponseError as exc:
            return _invalid(doc.id, responses, f"parse: {exc}")
        prediction = _prediction_from_raw(doc, raw, responses)
        if not prediction.valid:
            return prediction
        prediction = replace(prediction, provenance={**prediction.provenance, "demo_doc_id": demo.doc_id})
        return enforce_schema(prediction, schema)


# --- prediction persistence ----------------------------------------------------

def prediction_to_dict(pred: Prediction) -> dict:
    return {
        "doc_id": pred.doc_id,
        "valid": pred.valid,
        "entities": [e.to_dict() for e in pred.entities],
        "mentions": [m.to_dict() for m in pred.mentions],
        "triples": [t.to_dict() for t in pred.triples],
        "raw_responses": list(pred.raw_responses),
        "provenance": pred.provenance,
    }


def prediction_from_dict(data: dict) -> Prediction:
    valid, raw_responses = data["valid"], data.get("raw_responses", ["", ""])
    if not isinstance(valid, bool):
        raise TypeError(f"valid is true or false, not {valid!r}")
    if not isinstance(raw_responses, list) or [type(r) for r in raw_responses] != [str, str]:
        raise TypeError(f"raw_responses is a list of two strings, not {raw_responses!r:.100}")
    annotation = read_layout(data)
    return Prediction(
        doc_id=decode_doc_id(data["doc_id"]),
        entities=annotation.entities,
        mentions=read_elements(data, "mentions", Mention.from_dict),
        triples=annotation.triples,
        valid=valid,
        raw_responses=tuple(raw_responses),
        provenance=checked(data.get("provenance", {}), dict, "provenance"),
    )
