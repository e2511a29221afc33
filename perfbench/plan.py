"""Planted inputs for the benchmark, built only from synthex's public API.

Everything here is a pure function of the workload seed and sizes: the raw
corpus, the scripted model responses (one per attempt, verdict and inference
call), the demonstrations, the task and its gold annotations, and the
outcomes the pipeline must reproduce. The same response table serves the
replay-cache seeding and the scripted endpoint, so both see identical data.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import accumulate

from synthex import (
    AnnotationRecord,
    Entity,
    GenerationParams,
    Mention,
    Schema,
    SourceDocument,
    Span,
    Triple,
    build_inference_prompt,
    build_triple_verification_prompt,
    build_zero_shot_prompt,
    first_fragment,
    render_annotated,
    truncate_text,
)
from synthex.inference import PartialAnnotation

MODEL = "bench-model"
EMBED_MODEL = "bench-embed"
TEMPERATURES = (0.0, 0.2)
MIN_WORDS = 100

ENTITY_TYPES = ("Organization", "Place", "Person", "Event", "Artifact", "Species", "Award", "Vessel")
OUT_OF_SCHEMA_TYPE = "Miscellany"
PREDICATES = (
    "located_in", "member_of", "founded_by", "adjacent_to", "part_of",
    "named_after", "operated_by", "rival_of", "successor_of", "owned_by",
)
ERROR_KINDS = (
    "syntax_error", "missing_key", "tag_parse_error", "echo_mismatch",
    "missing_span_annotation", "triple_id_unknown", "triple_name_mismatch",
)

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- exchange keys shared by the cache seeder and the scripted endpoint -------

_INFERENCE_HEAD = "Help me build a knowledge graph. I will provide a text and you annotate it."
_QUERY_OPEN = "Here is the annotation I want you to complete:\n```json\n"
_QUERY_CLOSE = "\n```\n\nDo not add any entity or relation types!"


def inference_query_text(prompt: str) -> str | None:
    """The query text of an inference prompt, or None for other prompt kinds."""
    if not prompt.startswith(_INFERENCE_HEAD):
        return None
    start = prompt.rfind(_QUERY_OPEN)
    end = prompt.rfind(_QUERY_CLOSE)
    if start == -1 or end < start:
        return None
    return json.loads(prompt[start + len(_QUERY_OPEN) : end])["text"]


def exchange_key(prompt: str, temperature: float) -> str:
    """Zero-shot and verdict prompts are keyed on their full content;
    inference prompts on the query text alone, because their demonstration
    depends on retrieval and their call-2 prefill on the call-1 answer."""
    query = inference_query_text(prompt)
    if query is not None:
        return "inf:" + sha(query)
    return "chat:" + sha(f"{temperature!r}\n{prompt}")


# --- text generation --------------------------------------------------------------

class Lexicon:
    """Lowercase pseudo-words drawn with Zipfian frequencies."""

    def __init__(self, rng: random.Random, size: int, exponent: float = 1.0):
        words: dict[str, None] = {}
        while len(words) < size:
            words.setdefault("".join(rng.choices(_SYLLABLES, k=rng.randint(2, 4))))
        self.words = list(words)
        self.cum_weights = list(accumulate(1.0 / (rank + 1) ** exponent for rank in range(size)))

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=k)


def _name(rng: random.Random, taken: set[str]) -> str:
    while True:
        parts = [
            "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3))).capitalize()
            for _ in range(2)
        ]
        name = " ".join(parts)
        if name not in taken:
            taken.add(name)
            return name


class Passage:
    """Accumulates sentences and tracks mention spans in the plain text."""

    def __init__(self):
        self.parts: list[str] = []
        self.length = 0
        self.words = 0
        self.mentions: list[Mention] = []

    def _append(self, s: str):
        self.parts.append(s)
        self.length += len(s)

    def sentence(self, rng, lexicon, n_words: int, separator: str, entity: Entity | None = None):
        if self.parts:
            self._append(separator)
        filler = lexicon.sample(rng, max(1, n_words))
        filler[0] = filler[0].capitalize()
        cut = rng.randint(1, len(filler)) if entity is not None else len(filler)
        self._append(" ".join(filler[:cut]))
        if entity is not None:
            self._append(" ")
            start = self.length
            self._append(entity.name)
            self.mentions.append(Mention(entity.id, Span(start, self.length), entity.name, entity.type_label))
            if cut < len(filler):
                self._append(" " + " ".join(filler[cut:]))
        self._append(".")
        self.words += len(filler) + (len(entity.name.split()) if entity is not None else 0)

    @property
    def text(self) -> str:
        return "".join(self.parts)


def _entities(rng: random.Random, n: int, kind: str = "normal") -> tuple[Entity, ...]:
    taken: set[str] = set()
    if kind == "self_typed":
        return tuple(Entity(i, t, t) for i, t in enumerate(rng.sample(ENTITY_TYPES, n)))
    names = [_name(rng, taken) for _ in range(n)]
    if kind == "mono_typed":
        types = [rng.choice(ENTITY_TYPES)] * n
    else:
        types = [rng.choice(ENTITY_TYPES) for _ in range(n)]
        if len(set(types)) == 1:
            types[0] = next(t for t in ENTITY_TYPES if t != types[0])
    return tuple(Entity(i, names[i], types[i]) for i in range(n))


def _triples(rng: random.Random, entities: tuple[Entity, ...], n: int) -> tuple[Triple, ...]:
    out = []
    for _ in range(n):
        subject, obj = rng.sample(entities, 2)
        predicate = rng.choice(PREDICATES)
        out.append(
            Triple(
                description=f"{subject.name} is {predicate.replace('_', ' ')} {obj.name}.",
                triple_string=f"({subject.name}, {predicate}, {obj.name})",
                subject=subject.id,
                predicate=predicate,
                object=obj.id,
            )
        )
    return tuple(out)


def _mention_schedule(rng: random.Random, entities, n_sentences: int) -> list[Entity | None]:
    """Which entity (if any) each sentence mentions; every entity at least once."""
    slots: list[Entity | None] = [None] * n_sentences
    order = list(entities) + [rng.choice(entities) for _ in range(len(entities) // 2)]
    positions = rng.sample(range(n_sentences), min(len(order), n_sentences))
    for entity, position in zip(order, positions):
        slots[position] = entity
    return slots


def annotated_record(doc_id: str, text: str, entities, mentions, triples) -> AnnotationRecord:
    return AnnotationRecord(
        doc_id=doc_id,
        text=text,
        annotated_text=render_annotated(text, list(mentions)),
        entities=tuple(entities),
        mentions=tuple(mentions),
        triples=tuple(triples),
        entity_types=tuple(dict.fromkeys(e.type_label for e in entities)),
        relation_types=tuple(dict.fromkeys(t.predicate for t in triples)),
    )


def _head(rng, lexicon, entities, min_words: int) -> Passage:
    """A single paragraph whose sentences first reach ``min_words`` words at
    its last sentence, so truncation keeps exactly this paragraph."""
    passage = Passage()
    # Six mention-bearing sentences stay under the bound (at most 6 x 12
    # filler words plus the names), so the bound is first reached by a later
    # filler sentence and every mention lies inside the truncated prefix.
    for entity in _mention_schedule(rng, entities, 6):
        passage.sentence(rng, lexicon, rng.randint(9, 12), " ", entity)
    while passage.words < min_words:
        passage.sentence(rng, lexicon, rng.randint(9, 14), " ")
    return passage


def _filler_paragraphs(rng, pool: list[str], n_words: int) -> str:
    """Paragraphs of 3-8 sentences cut from a pre-sampled Zipfian word pool;
    only truncation's sentence splitting ever reads this tail."""
    paragraphs = []
    while n_words > 0:
        sentences = []
        for _ in range(rng.randint(3, 8)):
            length = rng.randint(8, 20)
            start = rng.randrange(len(pool) - length)
            sentences.append(pool[start].capitalize() + " " + " ".join(pool[start + 1 : start + length]) + ".")
            n_words -= length
        paragraphs.append(" ".join(sentences))
    return "\n\n".join(paragraphs)


# --- scripted responses ---------------------------------------------------------

def fenced(payload: dict) -> str:
    return "```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```"


def _entity_dicts(entities) -> list[dict]:
    return [{"id": e.id, "name": e.name, "type": e.type_label} for e in entities]


def _triple_dicts(triples) -> list[dict]:
    return [
        {"description": t.description, "triple_string": t.triple_string,
         "subject": t.subject, "predicate": t.predicate, "object": t.object}
        for t in triples
    ]


def zero_shot_response(record: AnnotationRecord, outcome: str) -> str:
    """The model's answer for one attempt: passing, or failing with exactly
    the named verification error kind."""
    payload = {
        "text_with_spans": record.annotated_text,
        "entities": _entity_dicts(record.entities),
        "triples": _triple_dicts(record.triples),
        "relation_types": list(record.relation_types),
        "entity_types": list(record.entity_types),
    }
    if outcome == "ok":
        return fenced(payload)
    if outcome == "syntax_error":
        return "```json\n{'text_with_spans': 'single quotes are not JSON'}\n```"
    if outcome == "missing_key":
        del payload["entities"]
    elif outcome == "tag_parse_error":
        payload["text_with_spans"] = record.annotated_text.replace("</ent>", "", 1)
    elif outcome == "echo_mismatch":
        payload["text_with_spans"] = record.annotated_text[:-1] + ";"
    elif outcome == "missing_span_annotation":
        payload["entities"].append({"id": len(record.entities), "name": "Orphan Entity", "type": "Person"})
    elif outcome == "triple_id_unknown":
        payload["triples"][0]["object"] = 999
    elif outcome == "triple_name_mismatch":
        first = record.triples[0]
        payload["triples"][0]["triple_string"] = f"(Nobody, {first.predicate}, Nobody)"
    else:
        raise ValueError(f"unknown outcome {outcome!r}")
    return fenced(payload)


def verdict_response(letter: str | None) -> str:
    if letter is None:
        return "Neither reading can be decided from the sentence."
    return f"The sentence supports this reading.\n\\boxed{{{letter}}}"


def inference_payload(text, record: AnnotationRecord, schema: Schema, extras: bool, drop_last: bool) -> dict:
    entities = _entity_dicts(record.entities)
    triples = _triple_dicts(record.triples[:-1] if drop_last else record.triples)
    if extras:
        # An out-of-schema entity and a triple using it: schema enforcement drops both.
        extra_id = len(record.entities)
        entities.append({"id": extra_id, "name": "Stray Thing", "type": OUT_OF_SCHEMA_TYPE})
        triples.append({"description": "Stray Thing is near.", "triple_string": "(Stray Thing, part_of, x)",
                        "subject": extra_id, "predicate": PREDICATES[0], "object": 0})
    return {
        "text": text,
        "entity_types": list(schema.entity_types),
        "text_with_spans": record.annotated_text,
        "entities": entities,
        "relation_types": list(schema.relation_types),
        "relations": triples,
    }


# --- plans ------------------------------------------------------------------------

@dataclass
class DocPlan:
    doc_id: str
    raw_text: str
    record: AnnotationRecord  # the correct annotation of the truncated text
    attempts: tuple[str, ...]  # outcome per attempt: "ok" or an error kind
    verdicts: tuple[str | None, ...]  # one per triple
    degenerate: str | None = None

    @property
    def passed(self) -> bool:
        return self.attempts[-1] == "ok"


@dataclass
class QueryPlan:
    doc_id: str
    text: str
    gold: AnnotationRecord  # full-text annotation
    fragment_gold: AnnotationRecord  # first-paragraph annotation
    call1_ok: bool
    call2: str  # "valid", "no_json" or "echo"
    extras: bool
    drop_last: bool
    demo_id: str | None = None  # the demonstration retrieval must return, when known


@dataclass
class Plan:
    docs: list[DocPlan]
    demos: list[AnnotationRecord]  # planted demonstrations (when not taken from postprocess)
    queries: list[QueryPlan]
    eval_docs: list[QueryPlan]  # gold plus planted prediction outcome, scored by the eval stage
    schema: Schema
    responses: dict[str, str] = field(default_factory=dict)  # exchange key -> response text
    replay: list[tuple[str, float, str]] = field(default_factory=list)  # (prompt, temperature, response)
    transient_keys: list[str] = field(default_factory=list)
    stages: dict[str, str] = field(default_factory=dict)  # exchange key -> the stage that asks it

    def add(self, prompt: str, temperature: float, response: str, stage: str):
        key = exchange_key(prompt, temperature)
        if key not in self.responses:
            self.responses[key] = response
            self.stages[key] = stage
            self.replay.append((prompt, temperature, response))


def _plan_doc(rng, lexicon, pool, doc_id, sizes, index) -> DocPlan:
    n_entities = rng.randint(3, 5)
    degenerate = None
    share = sizes.get("degenerate_share", 0.0)
    if rng.random() < share:
        degenerate = rng.choice(("mono_typed", "self_typed"))
    entities = _entities(rng, n_entities, degenerate or "normal")
    heavy = sizes.get("heavy_positions", {})
    if index in heavy:
        n_triples = heavy[index]
    else:
        lo, hi = sizes["triples_per_doc"]
        n_triples = rng.randint(lo, hi)
    triples = _triples(rng, entities, n_triples)
    head = _head(rng, lexicon, entities, MIN_WORDS)
    record = annotated_record(doc_id, head.text, entities, head.mentions, triples)
    target = int(min(sizes["raw_words_max"], max(sizes["raw_words_min"],
                 rng.lognormvariate(math.log(sizes["raw_words_median"]), sizes["raw_words_sigma"]))))
    tail = _filler_paragraphs(rng, pool, target - head.words) if target > head.words else ""
    raw = head.text + ("\n\n" + tail if tail else "")

    u = rng.random()
    kinds = ERROR_KINDS
    if u < sizes["fail_both_share"]:
        attempts = (kinds[index % len(kinds)], kinds[(index + 3) % len(kinds)])
    elif u < sizes["fail_both_share"] + sizes["retry_share"]:
        attempts = (kinds[index % len(kinds)], "ok")
    else:
        attempts = ("ok",)
    verdicts = []
    for _ in triples:
        v = rng.random()
        bad = sizes["bad_verdict_share"]
        if v < bad / 3:
            verdicts.append("B")
        elif v < 2 * bad / 3:
            verdicts.append("D")
        elif v < bad:
            verdicts.append(None)
        elif v < bad + 0.1:
            verdicts.append("C")
        else:
            verdicts.append("A")
    return DocPlan(doc_id, raw, record, attempts, tuple(verdicts), degenerate)


def _plan_query(rng, lexicon, doc_id, sizes, head_record=None, paragraphs=None) -> QueryPlan:
    """A multi-paragraph query. With ``head_record`` the first paragraph is
    that demonstration's text, so retrieval must return it."""
    if head_record is not None:
        entities = head_record.entities
        first = Passage()
        first.parts = [head_record.text]
        first.length = len(head_record.text)
        first.mentions = list(head_record.mentions)
        first_triples = head_record.triples
    else:
        entities = _entities(rng, rng.randint(3, 5))
        first = Passage()
        for entity in _mention_schedule(rng, entities[:2], 4):
            first.sentence(rng, lexicon, rng.randint(9, 14), " ", entity)
        first_triples = _triples(rng, entities[:2], 1)
    text = first.text
    mentions = list(first.mentions)
    for _ in range((paragraphs or sizes["query_paragraphs"]) - 1):
        para = Passage()
        for entity in _mention_schedule(rng, entities, rng.randint(len(entities), len(entities) + 3)):
            para.sentence(rng, lexicon, rng.randint(9, 16), " ", entity)
        offset = len(text) + 2
        text = text + "\n\n" + para.text
        mentions.extend(
            Mention(m.entity_id, Span(m.span.start + offset, m.span.end + offset), m.surface, m.type_label)
            for m in para.mentions
        )
    triples = tuple(first_triples) + _triples(rng, entities, rng.randint(1, 3))
    gold = annotated_record(doc_id, text, entities, mentions, triples)
    fragment = first.text
    fragment_ids = {m.entity_id for m in first.mentions}
    fragment_gold = annotated_record(
        doc_id, fragment, [e for e in entities if e.id in fragment_ids], first.mentions, first_triples
    )
    u = rng.random()
    invalid = sizes["invalid_share"]
    call2 = "no_json" if u < invalid / 2 else "echo" if u < invalid else "valid"
    return QueryPlan(
        doc_id=doc_id,
        text=text,
        gold=gold,
        fragment_gold=fragment_gold,
        call1_ok=rng.random() >= sizes["call1_fail_share"],
        call2=call2,
        extras=rng.random() < 0.2,
        drop_last=rng.random() < 0.1,
        demo_id=head_record.doc_id if head_record is not None else None,
    )


def _call1_response(q: QueryPlan, schema: Schema) -> str:
    if not q.call1_ok:
        return "I could not annotate this paragraph."
    return fenced(inference_payload(q.fragment_gold.text, q.fragment_gold, schema, False, False))


def _call2_response(q: QueryPlan, schema: Schema) -> str:
    if q.call2 == "no_json":
        return "The document is too long for me to annotate."
    payload = inference_payload(q.text, q.gold, schema, q.extras, q.drop_last)
    if q.call2 == "echo":
        payload["text_with_spans"] = q.gold.annotated_text[:-1] + "?"
    return fenced(payload)


def make_plan(seed: int, sizes: dict) -> Plan:
    rng = random.Random(seed)
    lexicon = Lexicon(rng, sizes["lexicon"])
    schema = Schema.from_lists(ENTITY_TYPES, PREDICATES)
    pool = lexicon.sample(rng, 100_000)
    docs = [_plan_doc(rng, lexicon, pool, f"doc-{i:05d}", sizes, i) for i in range(sizes["docs"])]
    demos = []
    for i in range(sizes.get("demos", 0)):
        entities = _entities(rng, rng.randint(3, 5))
        head = _head(rng, lexicon, entities, MIN_WORDS)
        demos.append(annotated_record(f"demo-{i:04d}", head.text, entities, head.mentions,
                                      _triples(rng, entities, rng.randint(1, 3))))
    queries = []
    for i in range(sizes["queries"]):
        head = demos[i % len(demos)] if sizes.get("queries_from_demos") else None
        queries.append(_plan_query(rng, lexicon, f"query-{i:04d}", sizes, head_record=head))
    eval_docs = [_plan_query(rng, lexicon, f"gold-{i:04d}", sizes, paragraphs=2)
                 for i in range(sizes["eval_docs"])]
    plan = Plan(docs, demos, queries, eval_docs, schema)

    # A prompt has one answer: a repeated verdict prompt (a triple stated
    # twice) or call-1 fragment (queries sharing a first paragraph) reuses the
    # first planned outcome, since the cache would serve it again anyway.
    letters: dict[str, str | None] = {}
    for doc in docs:
        prompt = build_zero_shot_prompt(doc.record.text)
        for outcome, temperature in zip(doc.attempts, TEMPERATURES):
            plan.add(prompt, temperature, zero_shot_response(doc.record, outcome), "generate")
        if doc.passed:
            verdicts = []
            for triple, letter in zip(doc.record.triples, doc.verdicts):
                prompt = build_triple_verification_prompt(triple, list(doc.record.entities))
                letter = letters.setdefault(exchange_key(prompt, 0.0), letter)
                verdicts.append(letter)
                plan.add(prompt, 0.0, verdict_response(letter), "postprocess")
            doc.verdicts = tuple(verdicts)
    call1_ok: dict[str, bool] = {}
    for q in queries:
        q.call1_ok = call1_ok.setdefault(q.fragment_gold.text, q.call1_ok)
        plan.responses["inf:" + sha(q.fragment_gold.text)] = _call1_response(q, schema)
        plan.responses["inf:" + sha(q.text)] = _call2_response(q, schema)
        plan.stages["inf:" + sha(q.fragment_gold.text)] = plan.stages["inf:" + sha(q.text)] = "infer"
    # The planned share of zero-shot and of verdict exchanges answers one
    # 503 before succeeding, at evenly spaced documents: each 503 costs the
    # gateway's fixed backoff, so its count and place are kept constant.
    share = sizes.get("transient_share", 0.0)
    first_attempts = [exchange_key(build_zero_shot_prompt(d.record.text), TEMPERATURES[0]) for d in docs]
    first_verdicts = [
        exchange_key(build_triple_verification_prompt(d.record.triples[0], list(d.record.entities)), 0.0)
        for d in docs if d.passed
    ]
    n_verdicts = sum(len(d.record.triples) for d in docs if d.passed)
    for keys, n in ((first_attempts, round(share * len(docs))), (first_verdicts, round(share * n_verdicts))):
        plan.transient_keys += [keys[int((i + 0.5) * len(keys) / n)] for i in range(n)]
    return plan


def inference_exchanges(plan: Plan, demo_by_id: dict[str, AnnotationRecord]) -> list[tuple[str, float, str]]:
    """The two inference exchanges of every query whose demonstration is
    known in advance, built with the public prompt passage."""
    out = []
    for q in plan.queries:
        demo = demo_by_id[q.demo_id]
        doc = SourceDocument(id=q.doc_id, text=q.text)
        fragment = first_fragment(doc)
        if fragment != q.fragment_gold.text:
            raise RuntimeError(f"{q.doc_id}: planted first paragraph is not the call-1 fragment")
        response_1 = _call1_response(q, plan.schema)
        partial = None
        if q.call1_ok:
            g = q.fragment_gold
            partial = PartialAnnotation(fragment, g.annotated_text, g.entities, g.triples)
        out.append((build_inference_prompt(demo, None, fragment, plan.schema), 0.0, response_1))
        out.append((build_inference_prompt(demo, partial, q.text, plan.schema), 0.0, _call2_response(q, plan.schema)))
    return out


def check_truncation(docs: list[DocPlan], sample: int = 3):
    """Guard the planted layout: truncation must keep exactly the head paragraph."""
    for doc in docs[:sample]:
        if truncate_text(doc.raw_text, MIN_WORDS) != doc.record.text:
            raise RuntimeError(f"{doc.doc_id}: truncation does not end at the planted head")


def chat_params(temperature: float) -> GenerationParams:
    return GenerationParams(temperature=temperature, model_name=MODEL)


# --- outcomes the pipeline must reproduce --------------------------------------

def _prf(tp: int, fp: int, fn: int) -> dict:
    # Restated rather than imported from synthex.evaluate, so that a scoring
    # regression there shows up as a check failure here.
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "tp": tp, "fp": fp, "fn": fn}


@dataclass
class Expected:
    passed_ids: list[str]
    failed_ids: list[str]
    failure_kinds: dict[str, set[str]]  # doc id -> planned error kinds
    retried: int
    triples_adjudicated: int
    kept: list[AnnotationRecord]
    drops: dict[str, int]  # drop-log stage -> entries
    generate_calls: int
    verdict_calls: int
    distinct_chat_prompts: int  # what a record run sends to the endpoint
    valid_predictions: int  # of the inference queries
    eval: dict[str, dict[str, dict]]  # mode -> task -> P/R/F1 with counts


def expected_outcomes(plan: Plan) -> Expected:
    """Apply the documented policies to the plan: one retry, failures to the
    sidecar, any B/D/unboxed verdict discards its predicate's triples, and the
    self-typed/mono-typed filters drop whole documents."""
    passed = [d for d in plan.docs if d.passed]
    kept: list[AnnotationRecord] = []
    drops = {"triple_verify": 0, "self_typed": 0, "mono_typed": 0}
    for doc in passed:
        record = doc.record
        bad = {t.predicate for t, v in zip(record.triples, doc.verdicts) if v not in ("A", "C")}
        triples = tuple(t for t in record.triples if t.predicate not in bad)
        if len(triples) < len(record.triples):
            drops["triple_verify"] += 1
        if doc.degenerate:
            drops[doc.degenerate] += 1
            continue
        kept.append(annotated_record(record.doc_id, record.text, record.entities, record.mentions, triples))

    counts = {mode: {task: [0, 0, 0] for task in ("mention_det", "entity_ident", "entity_class",
                                                  "re_general", "re_strict")}
              for mode in ("all_docs", "valid_only")}
    for q in plan.eval_docs:
        g = q.gold
        gold_counts = {"mention_det": len(g.mentions), "entity_ident": len(g.entities),
                       "entity_class": len(g.entities), "re_general": len(g.triples),
                       "re_strict": len(g.triples)}
        is_valid = q.call2 == "valid"
        for mode, table in counts.items():
            if not is_valid and mode == "valid_only":
                continue
            for task, n in gold_counts.items():
                missed = n if not is_valid else int(q.drop_last and task.startswith("re_"))
                table[task][0] += n - missed
                table[task][2] += missed
    return Expected(
        passed_ids=[d.doc_id for d in passed],
        failed_ids=[d.doc_id for d in plan.docs if not d.passed],
        failure_kinds={d.doc_id: set(d.attempts) for d in plan.docs if not d.passed},
        retried=sum(1 for d in passed if len(d.attempts) == 2),
        triples_adjudicated=sum(len(d.record.triples) for d in passed),
        kept=kept,
        drops=drops,
        generate_calls=sum(len(d.attempts) for d in plan.docs),
        verdict_calls=sum(len(d.record.triples) for d in passed),
        distinct_chat_prompts=len(plan.replay),
        valid_predictions=sum(q.call2 == "valid" for q in plan.queries),
        eval={mode: {task: _prf(*c) for task, c in table.items()} for mode, table in counts.items()},
    )


def planted_predictions(plan: Plan) -> list:
    """The eval stage's input: gold itself for valid predictions (less the
    last triple where planned), empty invalid predictions otherwise."""
    from synthex import Prediction

    out = []
    for q in plan.eval_docs:
        g = q.gold
        if q.call2 == "valid":
            triples = g.triples[:-1] if q.drop_last else g.triples
            out.append(Prediction(g.doc_id, g.entities, g.mentions, triples, True, ("", ""), {}))
        else:
            out.append(Prediction(g.doc_id, (), (), (), False, ("", ""), {"invalid_reason": "planted"}))
    return out
