"""Phase-1 synthetic annotation: truncate, prompt, parse, verify, retry once.

A document is truncated to a sentence-aligned ~100-word prefix, annotated by
the model at temperature 0 with a zero-shot prompt, and the response is run
through a rule-based verification battery. Any failure triggers exactly one
rerun at temperature 0.2; a second failure yields a
:class:`FailureRecord` kept for yield accounting.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace

from .core import (
    AnnotationRecord,
    Mention,
    PartialAnnotation,
    SourceDocument,
    derive_entity_types,
    derive_relation_types,
    normalize_surface,
    read_layout,
)
from .gateway import (
    ChatGateway,
    GenerationParams,
    UnreadableResponseError,
    extract_json_block,
)
from .markup import MarkupError, parse_annotated

# Verification error taxonomy. The first two arise while parsing the raw
# response, the rest from the six rule-based checks.
SYNTAX_ERROR = "syntax_error"
MISSING_KEY = "missing_key"
TAG_PARSE_ERROR = "tag_parse_error"
ECHO_MISMATCH = "echo_mismatch"
MISSING_SPAN_ANNOTATION = "missing_span_annotation"
MENTION_NOT_IN_TEXT = "mention_not_in_text"
TRIPLE_ID_UNKNOWN = "triple_id_unknown"
TRIPLE_NAME_MISMATCH = "triple_name_mismatch"

ERROR_KINDS = (
    SYNTAX_ERROR,
    MISSING_KEY,
    TAG_PARSE_ERROR,
    ECHO_MISMATCH,
    MISSING_SPAN_ANNOTATION,
    MENTION_NOT_IN_TEXT,
    TRIPLE_ID_UNKNOWN,
    TRIPLE_NAME_MISMATCH,
)

# The generation protocol: one zero-shot attempt, then one rerun at a raised
# temperature.
TEMPERATURES = (0.0, 0.2)


class MissingKeyError(UnreadableResponseError):
    def __init__(self, key: str):
        super().__init__(f"annotation response is missing key {key!r}")
        self.key = key


@dataclass(frozen=True)
class Finding:
    kind: str
    context: str


@dataclass(frozen=True)
class VerificationReport:
    errors: tuple[Finding, ...]
    # The mentions the tag parse found, None when it failed; a passed
    # report hands them to ``raw_to_record``, so markup is parsed once.
    mentions: tuple[Mention, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return not self.errors

    def kinds(self) -> set[str]:
        return {f.kind for f in self.errors}


@dataclass(frozen=True)
class FailureRecord:
    """A document that failed verification on both attempts."""

    doc_id: str
    text: str
    reports: tuple[VerificationReport, ...]


@dataclass
class LengthErrorStats:
    """Attempt/failure tallies for one word-count bucket."""

    bucket_start: int
    bucket_end: int
    attempts: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.bucket_start}-{self.bucket_end}"


# --- sentence segmentation and truncation -----------------------------------

# Tokens that end with a period but do not end a sentence.
ABBREVIATIONS = frozenset(
    {"Mr.", "Mrs.", "Ms.", "Dr.", "Prof.", "St.", "No.", "vs.", "Jr.", "Sr."}
)

# A terminator and the whitespace run after it: the only places a sentence
# can end before the end of the text. ``\s`` matches exactly the characters
# ``str.isspace()`` accepts.
_BREAK_CANDIDATE = re.compile(r"[.!?]\s+")


def _is_abbreviation(token: str) -> bool:
    if token in ABBREVIATIONS:
        return True
    # Single capital + period, e.g. the "J." in "J. Smith".
    return len(token) == 2 and token[0].isupper() and token[1] == "."


def _iter_sentence_spans(text: str):
    """Sentence spans in order, scanning only as far as the caller reads."""
    n = len(text)
    start = n - len(text.lstrip())
    for candidate in _BREAK_CANDIDATE.finditer(text, start):
        i, k = candidate.start(), candidate.end()
        if k < n and text[k].isupper() and not (text[i] == "." and _ends_with_abbreviation(text, i)):
            yield start, i + 1
            start = k
    end = len(text.rstrip())
    if end > start:
        yield start, end


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences, excluding surrounding whitespace.

    A boundary is a terminator (. ! ?) followed by whitespace and an
    uppercase letter, or end of text; abbreviations suppress the break.
    """
    return list(_iter_sentence_spans(text))


def _ends_with_abbreviation(text: str, period_index: int) -> bool:
    w = period_index
    while w > 0 and not text[w - 1].isspace():
        w -= 1
    return _is_abbreviation(text[w : period_index + 1])


def split_sentences(text: str) -> list[str]:
    """Sentences in order; rejoining them with the original separators
    restores the input exactly."""
    return [text[a:b] for a, b in sentence_spans(text)]


def word_count(text: str) -> int:
    """Words are maximal runs of non-whitespace."""
    return len(text.split())


def truncate_text(text: str, min_words: int = 100) -> str:
    """Sentence-aligned prefix reaching ``min_words`` words or more.

    Sentences accumulate in order until the cumulative word count first
    reaches the bound; shorter texts come back unchanged. The result is
    always an exact prefix of the input. Scanning stops at the sentence that
    reaches the bound.
    """
    if min_words < 1:
        raise ValueError("min_words must be >= 1")
    total = 0
    for a, b in _iter_sentence_spans(text):
        total += word_count(text[a:b])
        if total >= min_words:
            return text[:b]
    return text


# --- zero-shot prompt ---------------------------------------------------------

ZERO_SHOT_TEMPLATE = """Help me build a knowledge graph schema. I will provide a text and you tell me
which entity types and which relation types (properties) to add to my knowledge
graph schema to model the data in the text.
This is the text in question:

{text}

Return your answer in the following format:
```json
{
  'text_with_spans': # html annotated text where every mention and coreference
  of an entity is annotated, for example: '<ent id="0" type="Person">Alice</ent>
  (or <ent id="0" type="Person">Ali</ent> as her friends call her) knows
  <ent id="1" type="Person">Bob</ent> because <ent id="0" type="Person">she</ent>
  met <ent id="1" type="Person">him</ent> at
  <ent id="2" type="Educational institution">school</ent>.',
  'entities': [
    {'id': 0, 'name': <name_of_entity>, 'type': <type_of_entity>},
    ..., # add all entities with the types above, even if they are not relevant
    for a triple
  ],
  'triples': [
    {'description': <text_describing_triple>, 'triple_string':
    '(<name_of_subject>, <name_of_relation_type>, <name_of_object>)',
    'subject': <id_of_subject_entity>, 'predicate': <name_of_relation_type>,
    'object': <id_of_object_entity>},
    ...,
  ],
  'relation_types': [<name_of_relation_type>, ...],
  'entity_types': [<name_of_entity_type>, ...],
}
```

Make sure that for every entity type and relation type you annotate *all*
occurrences!"""


def json_escape(text: str) -> str:
    """Escape a string for embedding inside a JSON string literal.

    Getting this right is what keeps quotes and newlines in the source text
    from producing unparseable model output.
    """
    return json.dumps(text, ensure_ascii=False)[1:-1]


def fill_template(template: str, values: dict[str, str]) -> str:
    """Replace ``{name}`` slots in one simultaneous pass; every other brace in
    the template is literal."""
    names = "|".join(re.escape(k) for k in values)
    return re.sub(r"\{(" + names + r")\}", lambda m: values[m.group(1)], template)


def build_zero_shot_prompt(text: str) -> str:
    if not text:
        raise ValueError("cannot build a prompt for empty text")
    return fill_template(ZERO_SHOT_TEMPLATE, {"text": json_escape(text)})


# --- response parsing ---------------------------------------------------------

def parse_annotation_response(response: str) -> PartialAnnotation:
    """Extract the annotation JSON from a model response and read it with
    :func:`core.read_layout`, strictly. Raises an :class:`UnreadableResponseError`:
    :class:`ResponseSyntaxError`/:class:`NoJsonFoundError` when no strict JSON
    can be recovered, and :class:`MissingKeyError` naming the failing path
    when the object lacks a required key or holds a malformed value (a JSON
    value that is no object lacks "text_with_spans")."""
    data = extract_json_block(response)
    try:
        return read_layout(data if isinstance(data, dict) else {}, strict=True)
    except KeyError as exc:
        raise MissingKeyError(exc.args[0]) from exc


# --- verification --------------------------------------------------------------

def parse_triple_string(triple_string: str) -> tuple[str, str, str] | None:
    """Split "(subject, predicate, object)" into its three parts.

    Returns None when the shape is off, including when a name containing a
    comma breaks the two-comma layout — conservatively treated as a mismatch.
    """
    s = triple_string.strip()
    if not (s.startswith("(") and s.endswith(")")):
        return None
    parts = s[1:-1].split(",")
    if len(parts) != 3:
        return None
    a, b, c = (p.strip() for p in parts)
    return a, b, c


def verify_annotation(raw: PartialAnnotation, source_text: str) -> VerificationReport:
    """Run the full rule-based check battery and return every finding.

    In order: tag parse, echo against the source, per-entity span coverage,
    mention/source agreement, triple id resolution, triple name cross-check.
    Checks that depend on an earlier failed stage are skipped rather than
    reported spuriously.
    """
    findings: list[Finding] = []
    mentions = None
    plain = None
    try:
        plain, mentions = parse_annotated(raw.text_with_spans)
    except MarkupError as exc:
        findings.append(Finding(TAG_PARSE_ERROR, str(exc)))

    if mentions is not None and plain is not None:
        if plain != source_text:
            findings.append(Finding(ECHO_MISMATCH, _describe_echo_mismatch(source_text, plain)))
        tagged_ids = {m.entity_id for m in mentions}
        for entity in raw.entities:
            if entity.id not in tagged_ids:
                findings.append(
                    Finding(MISSING_SPAN_ANNOTATION, f"entity {entity.id} ({entity.name!r}) has no tagged mention")
                )
        for m in mentions:
            if source_text[m.span.start : m.span.end] != m.surface:
                findings.append(
                    Finding(
                        MENTION_NOT_IN_TEXT,
                        f"mention {m.surface!r} not at offset {m.span.start} of the source text",
                    )
                )

    known_ids = {e.id for e in raw.entities}
    name_by_id = {e.id: e.name for e in raw.entities}
    for i, triple in enumerate(raw.triples):
        dangling = [x for x in (triple.subject, triple.object) if x not in known_ids]
        if dangling:
            findings.append(Finding(TRIPLE_ID_UNKNOWN, f"triple {i} references unknown entity ids {dangling}"))
            continue
        parsed = parse_triple_string(triple.triple_string)
        if parsed is None:
            findings.append(
                Finding(TRIPLE_NAME_MISMATCH, f"triple {i}: unparseable triple_string {triple.triple_string!r}")
            )
            continue
        for role, name, entity_id in (("subject", parsed[0], triple.subject), ("object", parsed[2], triple.object)):
            expected = name_by_id[entity_id]
            if normalize_surface(name) != normalize_surface(expected):
                context = f"triple {i}: {role} {name!r} does not match entity {entity_id} ({expected!r})"
                findings.append(Finding(TRIPLE_NAME_MISMATCH, context))
    return VerificationReport(errors=tuple(findings), mentions=None if mentions is None else tuple(mentions))


def _describe_echo_mismatch(expected: str, got: str) -> str:
    limit = min(len(expected), len(got))
    i = 0
    while i < limit and expected[i] == got[i]:
        i += 1
    return f"diverges at offset {i}: source {expected[i : i + 20]!r} vs echo {got[i : i + 20]!r}"


def _parse_stage_report(exc: UnreadableResponseError) -> VerificationReport:
    if isinstance(exc, MissingKeyError):
        return VerificationReport(errors=(Finding(MISSING_KEY, exc.key),))
    return VerificationReport(errors=(Finding(SYNTAX_ERROR, str(exc)),))


def raw_to_record(
    doc_id: str, source_text: str, raw: PartialAnnotation, mentions: tuple[Mention, ...], provenance: dict
) -> AnnotationRecord:
    """Convert a verified raw annotation, with the mentions its verification
    parsed, into the persistent record form.

    Type inventories are derived from the entities and triples actually
    present, which guarantees the record-level closure invariant regardless
    of what the model listed. Mention type labels are aligned to their owning
    entity's label, since the inline tags are not authoritative for typing.
    """
    type_by_id = {e.id: e.type_label for e in raw.entities}
    mentions = [
        m if type_by_id.get(m.entity_id) in (None, m.type_label)
        else replace(m, type_label=type_by_id[m.entity_id])
        for m in mentions
    ]
    return AnnotationRecord(
        doc_id=doc_id,
        text=source_text,
        annotated_text=raw.text_with_spans,
        entities=raw.entities,
        mentions=tuple(mentions),
        triples=raw.triples,
        entity_types=derive_entity_types(raw.entities),
        relation_types=derive_relation_types(raw.triples),
        provenance=provenance,
    )


class Annotator:
    """Drives the annotate/verify/retry protocol for single documents."""

    def __init__(
        self,
        gateway: ChatGateway,
        model_name: str,
        min_words: int = 100,
        max_tokens: int | None = None,
    ):
        self.gateway = gateway
        self.model_name = model_name
        self.min_words = min_words
        self.max_tokens = max_tokens

    def annotate(self, doc: SourceDocument) -> AnnotationRecord | FailureRecord:
        """Annotate one document; returns a record on success, a
        :class:`FailureRecord` after the retry also fails verification.

        Gateway transport errors propagate: an unreachable endpoint is a job
        failure, not a data point about model quality.
        """
        truncated = truncate_text(doc.text, self.min_words)
        prompt = build_zero_shot_prompt(truncated)
        reports: list[VerificationReport] = []
        for attempt, temperature in enumerate(TEMPERATURES, start=1):
            params = GenerationParams(
                temperature=temperature, model_name=self.model_name, max_tokens=self.max_tokens
            )
            response = self.gateway.complete(prompt, params)
            try:
                raw = parse_annotation_response(response)
            except UnreadableResponseError as exc:
                reports.append(_parse_stage_report(exc))
                continue
            report = verify_annotation(raw, truncated)
            reports.append(report)
            if report.passed:
                provenance = {
                    "attempt": attempt,
                    "temperatures": list(TEMPERATURES[:attempt]),
                    "retried": attempt > 1,
                }
                return raw_to_record(doc.id, truncated, raw, report.mentions, provenance)
        return FailureRecord(doc_id=doc.id, text=truncated, reports=tuple(reports))


# --- error-rate bookkeeping ---------------------------------------------------

def collect_length_stats(
    outcomes: list[AnnotationRecord | FailureRecord], bucket_width: int = 25
) -> list[LengthErrorStats]:
    """Bucket outcomes by truncated word count, tallying per-kind failures.

    Each failed document counts once per error kind it exhibited (across both
    attempts); successes contribute attempts only. This is the tabular data
    behind error-rate-vs-length tracking.
    """
    if bucket_width < 1:
        raise ValueError("bucket_width must be >= 1")
    buckets: dict[int, LengthErrorStats] = {}
    for outcome in outcomes:
        words = word_count(outcome.text)
        lo = (words // bucket_width) * bucket_width
        stats = buckets.get(lo)
        if stats is None:
            stats = buckets[lo] = LengthErrorStats(bucket_start=lo, bucket_end=lo + bucket_width - 1)
        stats.attempts += 1
        if isinstance(outcome, FailureRecord):
            kinds = set()
            for report in outcome.reports:
                kinds |= report.kinds()
            for kind in kinds:
                stats.failures[kind] = stats.failures.get(kind, 0) + 1
    return [buckets[lo] for lo in sorted(buckets)]


def failure_to_dict(failure: FailureRecord) -> dict:
    """The failure sidecar line; attempt ``i`` ran at ``TEMPERATURES[i]``."""
    return {
        "doc_id": failure.doc_id,
        "text": failure.text,
        "word_count": word_count(failure.text),
        "attempts": [
            {
                "temperature": temperature,
                "errors": [{"kind": f.kind, "context": f.context} for f in report.errors],
            }
            for temperature, report in zip(TEMPERATURES, failure.reports)
        ],
    }
