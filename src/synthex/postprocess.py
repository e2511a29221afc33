"""Phase-2 quality filtering of annotated records.

Each triple's natural-language description is shown back to the model next to
the structured triple and its subject/object-swapped variant; the model picks
which reading matches. Any inconsistent verdict discards every triple of that
relation type within the document — quality over quantity. Two degenerate
whole-document filters follow: entities typed as themselves, and documents
where every entity shares a single type.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .annotator import fill_template
from .core import (
    AnnotationRecord,
    Entity,
    SynthexError,
    Triple,
    derive_relation_types,
    normalize_surface,
)
from .gateway import (
    VERDICTS, ChatGateway, GatewayError, GenerationParams, NoVerdictError, extract_boxed, map_contained,
)

KEEP = "keep"
INCONSISTENT = "inconsistent"

STAGE_TRIPLE_VERIFY = "triple_verify"
STAGE_SELF_TYPED = "self_typed"
STAGE_MONO_TYPED = "mono_typed"
STAGE_GATEWAY_ERROR = "gateway_error"


class UnresolvableEntityError(SynthexError):
    pass


class MissingVerdictError(SynthexError):
    pass


@dataclass(frozen=True)
class TripleVerdict:
    doc_id: str
    index: int
    verdict: str | None  # A/B/C/D, or None when no verdict could be parsed

    def __post_init__(self):
        if self.verdict is not None and self.verdict not in VERDICTS:
            raise ValueError(f"invalid verdict {self.verdict!r}")


TRIPLE_VERIFY_TEMPLATE = """Which of the following is a good description of the meaning of the sentence
"{description}"?

A:
```json
{"subject": "{subject}", "predicate": "{predicate}", "object": "{object}"}
```
B:
```json
{"subject": "{object}", "predicate": "{predicate}", "object": "{subject}"}
```
C:
Both. Only use this option if the predicate/property is a symmetric one.

D:
None of the above. Only use this option if the above are nonsensical or vastly
different from the text.

format your answer like so:
\\boxed{<A_or_B_or_C_or_D>}"""


def build_triple_verification_prompt(triple: Triple, entities: list[Entity]) -> str:
    """Fill the verdict prompt; option B presents the swapped orientation."""
    by_id = {e.id: e for e in entities}
    try:
        subject = by_id[triple.subject]
        obj = by_id[triple.object]
    except KeyError as exc:
        raise UnresolvableEntityError(
            f"triple references entity id {exc.args[0]} which does not exist"
        ) from None
    return fill_template(
        TRIPLE_VERIFY_TEMPLATE,
        {
            "description": triple.description,
            "subject": subject.name,
            "predicate": triple.predicate,
            "object": obj.name,
        },
    )


def adjudicate(verdict: str | None) -> str:
    """Map a verdict letter to keep/inconsistent.

    A is the faithful reading and C the symmetric case — both keep. B means
    the orientation was swapped and D that neither reading fits; an absent
    verdict is an unverifiable triple. All three are inconsistent.
    """
    if verdict in ("A", "C"):
        return KEEP
    return INCONSISTENT


def apply_discard_policy(record: AnnotationRecord, verdicts: list[TripleVerdict]) -> AnnotationRecord:
    """Remove every triple whose predicate drew any inconsistent verdict.

    The verdicts must cover each triple index exactly; entities and text are
    never touched, only triples and the relation-type inventory shrink.
    """
    covered = {v.index for v in verdicts}
    expected = set(range(len(record.triples)))
    if covered != expected:
        missing = sorted(expected - covered)
        raise MissingVerdictError(f"doc {record.doc_id}: no verdict for triple indices {missing}")
    bad_predicates = {
        record.triples[v.index].predicate for v in verdicts if adjudicate(v.verdict) == INCONSISTENT
    }
    if not bad_predicates:
        return record
    kept = tuple(t for t in record.triples if t.predicate not in bad_predicates)
    return replace(record, triples=kept, relation_types=derive_relation_types(kept))


def filter_degenerate(record: AnnotationRecord) -> str | None:
    """Return a drop reason for degenerate documents, or None to keep.

    Self-typed: every entity's type equals its own name. Mono-typed: two or
    more entities all sharing one type. Both compare after normalization.
    """
    if not record.entities:
        raise ValueError("filter_degenerate requires at least one entity")
    if all(normalize_surface(e.name) == normalize_surface(e.type_label) for e in record.entities):
        return STAGE_SELF_TYPED
    if len(record.entities) >= 2:
        types = {normalize_surface(e.type_label) for e in record.entities}
        if len(types) == 1:
            return STAGE_MONO_TYPED
    return None


@dataclass
class DropLogEntry:
    doc_id: str
    stage: str
    reason: dict

    def to_dict(self) -> dict:
        return {"doc_id": self.doc_id, "stage": self.stage, "reason": self.reason}


def _boxed_letter(response: str) -> str | None:
    """The boxed verdict letter of a response, or None when it has none."""
    try:
        return extract_boxed(response)
    except NoVerdictError:
        return None


class PostProcessor:
    """Runs triple verification and the document filters over a corpus."""

    def __init__(self, gateway: ChatGateway, model_name: str, max_tokens: int | None = None):
        self.gateway = gateway
        self.params = GenerationParams(
            temperature=0.0, model_name=model_name, max_tokens=max_tokens
        )

    def collect_verdicts(
        self, records: list[AnnotationRecord], parallelism: int = 1
    ) -> list[tuple[list[TripleVerdict] | None, GatewayError | None]]:
        """One :meth:`ChatGateway.complete` per distinct verdict prompt at
        temperature 0, no retry, on :func:`map_contained`'s pool.

        Returns ``(verdicts, None)`` per record in input order, or
        ``(None, error)`` for a record with a failed call, carrying the error
        of its failed triple with the lowest index. A response without a
        parseable boxed verdict yields verdict None, which adjudicates as
        inconsistent — unverifiable is unverified.
        """
        prompts = [[build_triple_verification_prompt(t, list(r.entities)) for t in r.triples] for r in records]
        distinct = list(dict.fromkeys(prompt for doc_prompts in prompts for prompt in doc_prompts))
        calls = map_contained(lambda prompt: self.gateway.complete(prompt, self.params), distinct, parallelism)
        answers = dict(zip(distinct, calls))
        collected = []
        for record, doc_prompts in zip(records, prompts):
            doc_answers = [answers[prompt] for prompt in doc_prompts]
            failures = [error for _, error in doc_answers if error is not None]
            if failures:
                collected.append((None, failures[0]))
                continue
            letters = [_boxed_letter(response) for response, _ in doc_answers]
            collected.append(([TripleVerdict(record.doc_id, i, v) for i, v in enumerate(letters)], None))
        return collected

    def process(
        self, records: list[AnnotationRecord], parallelism: int = 1
    ) -> tuple[list[AnnotationRecord], list[DropLogEntry]]:
        """Verify, discard, and filter; returns kept records and the drop log.

        Verdict calls run under a bounded worker pool; decisions and outputs
        follow input order regardless of completion order. Gateway failures
        are contained to the affected document: it is dropped with a
        gateway_error entry and the run continues.
        """
        collected = self.collect_verdicts(records, parallelism)
        kept_records: list[AnnotationRecord] = []
        drop_log: list[DropLogEntry] = []
        for record, (verdicts, error) in zip(records, collected):
            if error is not None:
                drop_log.append(
                    DropLogEntry(record.doc_id, STAGE_GATEWAY_ERROR, {"error": str(error)})
                )
                continue
            filtered = apply_discard_policy(record, verdicts)
            inconsistent = [v for v in verdicts if adjudicate(v.verdict) == INCONSISTENT]
            if inconsistent:
                discard = {
                    "predicates": sorted({record.triples[v.index].predicate for v in inconsistent}),
                    "triples_removed": len(record.triples) - len(filtered.triples),
                    "verdicts": [{"index": v.index, "verdict": v.verdict} for v in inconsistent],
                }
                drop_log.append(DropLogEntry(record.doc_id, STAGE_TRIPLE_VERIFY, discard))
            if filtered.entities:
                reason = filter_degenerate(filtered)
                if reason is not None:
                    drop_log.append(
                        DropLogEntry(
                            filtered.doc_id,
                            reason,
                            {"entity_types": list(filtered.entity_types)},
                        )
                    )
                    continue
            kept_records.append(filtered)
        return kept_records, drop_log
