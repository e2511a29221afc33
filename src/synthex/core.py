"""Shared data model: documents, annotations, schemas, and surface normalization.

Every other module builds on these types. Annotated documents persist as JSONL
with one record per line; the field layout follows the synthetic-data release
format ("text", "annotated_text", "entities", "relations") with "mentions",
"entity_types", "relation_types", "doc_id" and "provenance" as documented
extensions. SourceDocument, Entity, Mention and Triple each carry their one
JSON codec (``to_dict``/``from_dict``); every persisted layout and prompt
block is built from those.
"""

from __future__ import annotations

import json
import re
import uuid
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable, Iterator


class SynthexError(Exception):
    """Base class for all toolkit errors."""


_PARAGRAPH_SPLIT = re.compile(r"\n[^\S\n]*\n\s*")


def normalize_surface(s: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs to one space.

    Total and idempotent; used for all surface/name/type matching so that
    comparisons are insensitive to case and incidental spacing.
    """
    return " ".join(s.lower().split())


def split_paragraphs(text: str) -> list[str]:
    """Split on blank-line boundaries, dropping empty segments.

    A boundary is one or more newlines with only whitespace between them.
    Text without any blank line is a single paragraph.
    """
    parts = _PARAGRAPH_SPLIT.split(text)
    return [p.strip() for p in parts if p.strip()]


@dataclass(frozen=True)
class SourceDocument:
    """A raw input document prior to annotation."""

    id: str
    text: str
    title: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        if not isinstance(self.text, str) or not isinstance(self.title, (str, type(None))):
            raise ValueError(f"document {self.id!r}: text and title must be strings")
        if not self.text.strip():
            raise ValueError(f"document {self.id!r}: text must be non-empty")

    @property
    def paragraphs(self) -> list[str]:
        return split_paragraphs(self.text)

    def to_dict(self) -> dict:
        return {"id": self.id, "title": self.title, "text": self.text}

    @classmethod
    def from_dict(cls, data: dict) -> "SourceDocument":
        return cls(id=decode_doc_id(data["id"]), text=data["text"], title=data.get("title"))


def decode_doc_id(value) -> str:
    """A document id read from JSON: a string, or an integer written as one."""
    if isinstance(value, str):
        return value
    # ``type(x) is int`` refuses a bool as well as a float, here and in the codecs below.
    if type(value) is int:
        return str(value)
    raise TypeError(f"a document id is a string or an integer, not {value!r}")


def checked(value, kind: type, name: str):
    """``value`` when it is a ``kind`` (a JSON list or object read as
    ``list`` or ``dict``); TypeError naming the field ``name`` otherwise."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} is a {kind.__name__}, not {value!r:.100}")
    return value


@dataclass(frozen=True)
class Span:
    """Character offsets into an owning text: start inclusive, end exclusive.

    Offsets count Unicode scalar values, not bytes.
    """

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")


@dataclass(frozen=True)
class Entity:
    """A document-local entity: integer id, canonical name, type label."""

    id: int
    name: str
    type_label: str

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "type": self.type_label}

    @classmethod
    def from_dict(cls, data: dict) -> "Entity":
        entity_id, name, type_label = data["id"], data["name"], data["type"]
        if type(entity_id) is not int or not isinstance(name, str) or not isinstance(type_label, str):
            raise TypeError(f"an entity is an integer id with a string name and type, not {data!r}")
        return cls(id=entity_id, name=name, type_label=type_label)


@dataclass(frozen=True)
class Mention:
    """One tagged occurrence of an entity in the plain text."""

    entity_id: int
    span: Span
    surface: str
    type_label: str

    def to_dict(self) -> dict:
        return {
            "entity_id": self.entity_id,
            "start": self.span.start,
            "end": self.span.end,
            "surface": self.surface,
            "type": self.type_label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Mention":
        entity_id, start, end = data["entity_id"], data["start"], data["end"]
        surface, type_label = data["surface"], data.get("type", "")
        if (
            type(entity_id) is not int or type(start) is not int or type(end) is not int
            or not isinstance(surface, str) or not isinstance(type_label, str)
        ):
            raise TypeError(f"a mention is integer entity_id, start and end, string surface and type, not {data!r}")
        return cls(entity_id=entity_id, span=Span(start, end), surface=surface, type_label=type_label)


@dataclass(frozen=True)
class Triple:
    """A directed relation instance between two entities of a document.

    ``description`` is the natural-language sentence emitted alongside the
    structured triple; ``triple_string`` is the rendered "(subj, pred, obj)"
    form. Both exist to enable automatic post-hoc verification.
    """

    description: str
    triple_string: str
    subject: int
    predicate: str
    object: int

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "triple_string": self.triple_string,
            "subject": self.subject,
            "predicate": self.predicate,
            "object": self.object,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Triple":
        description, triple_string = data.get("description", ""), data.get("triple_string", "")
        subject, predicate, obj = data["subject"], data["predicate"], data["object"]
        if (
            type(subject) is not int or type(obj) is not int or not isinstance(predicate, str)
            or not isinstance(description, str) or not isinstance(triple_string, str)
        ):
            raise TypeError(f"a triple is an integer subject and object with string predicate and texts, not {data!r}")
        return cls(description, triple_string, subject, predicate, obj)


@dataclass(frozen=True)
class Schema:
    """The entity-type and relation-type inventories constraining extraction."""

    entity_types: tuple[str, ...]
    relation_types: tuple[str, ...]

    @classmethod
    def from_lists(cls, entity_types: Iterable[str], relation_types: Iterable[str]) -> "Schema":
        """Build a schema, deduplicating entries that collide after normalization."""
        return cls(
            entity_types=_dedup_normalized(entity_types, "entity_types"),
            relation_types=_dedup_normalized(relation_types, "relation_types"),
        )

    def require_nonempty(self):
        if not self.entity_types or not self.relation_types:
            raise ValueError("schema must list at least one entity type and one relation type")


def _dedup_normalized(items: Iterable[str], name: str) -> tuple[str, ...]:
    seen = set()
    out = []
    for item in items:
        if not isinstance(item, str):
            raise ValueError(f"schema {name} must be strings, got {item!r}")
        key = normalize_surface(item)
        if key and key not in seen:
            seen.add(key)
            out.append(item)
    return tuple(out)


@dataclass(frozen=True)
class AnnotationRecord:
    """A fully annotated document, the unit of the demonstration database."""

    doc_id: str
    text: str
    annotated_text: str
    entities: tuple[Entity, ...]
    mentions: tuple[Mention, ...]
    triples: tuple[Triple, ...]
    entity_types: tuple[str, ...]
    relation_types: tuple[str, ...]
    provenance: dict = field(default_factory=dict, compare=False)


def derive_entity_types(entities: Iterable[Entity]) -> tuple[str, ...]:
    """Distinct entity type labels in first-appearance order."""
    seen: dict[str, None] = {}
    for e in entities:
        seen.setdefault(e.type_label)
    return tuple(seen)


def derive_relation_types(triples: Iterable[Triple]) -> tuple[str, ...]:
    """Distinct predicates in first-appearance order."""
    seen: dict[str, None] = {}
    for t in triples:
        seen.setdefault(t.predicate)
    return tuple(seen)


# --- JSONL persistence -----------------------------------------------------

def record_to_dict(record: AnnotationRecord) -> dict:
    out: dict[str, Any] = {
        "doc_id": record.doc_id,
        "text": record.text,
        "annotated_text": record.annotated_text,
        "entities": [e.to_dict() for e in record.entities],
        "relations": [t.to_dict() for t in record.triples],
        "mentions": [m.to_dict() for m in record.mentions],
        "entity_types": list(record.entity_types),
        "relation_types": list(record.relation_types),
    }
    if record.provenance:
        out["provenance"] = record.provenance
    return out


def record_from_dict(data: dict, default_doc_id: str = "") -> AnnotationRecord:
    """Rebuild a record from its JSON form.

    Accepts bare release-format records: when "mentions" is absent they are
    recovered by parsing the annotated text, and missing type inventories are
    derived from the entities/relations themselves.
    """
    entities = tuple(map(Entity.from_dict, checked(data.get("entities", []), list, "entities")))
    triples = tuple(map(Triple.from_dict, checked(data.get("relations", data.get("triples", [])), list, "relations")))
    annotated_text = data.get("annotated_text", data.get("text_with_spans", ""))
    text = data["text"]
    if not isinstance(text, str) or not isinstance(annotated_text, str):
        raise TypeError("text and annotated_text must be strings")
    if "mentions" in data:
        mentions = tuple(map(Mention.from_dict, checked(data["mentions"], list, "mentions")))
    else:
        from .markup import parse_annotated

        _, parsed = parse_annotated(annotated_text)
        mentions = tuple(parsed)
    entity_types = data.get("entity_types") or derive_entity_types(entities)
    relation_types = data.get("relation_types") or derive_relation_types(triples)
    for types in (entity_types, relation_types):
        if not isinstance(types, (list, tuple)) or not all(isinstance(t, str) for t in types):
            raise TypeError(f"entity_types and relation_types are lists of strings, not {types!r}")
    return AnnotationRecord(
        doc_id=decode_doc_id(data.get("doc_id", default_doc_id)),
        text=text,
        annotated_text=annotated_text,
        entities=entities,
        mentions=mentions,
        triples=triples,
        entity_types=tuple(entity_types),
        relation_types=tuple(relation_types),
        provenance=checked(data.get("provenance", {}), dict, "provenance"),
    )


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[IO[str]]:
    """Write UTF-8 text (no newline translation) to a uniquely named temp
    file beside ``path``, renamed over it on success and deleted on failure:
    readers never see a partial file, and concurrent writers never mix."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            yield fh
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def dump_jsonl(items: Iterable[dict], path: str | Path):
    """Write one JSON object per line, atomically."""
    with atomic_writer(path) as fh:
        for item in items:
            fh.write(json.dumps(item, ensure_ascii=False))
            fh.write("\n")


def decode_object(text: bytes, decode, where: str):
    """``decode(object)`` for the UTF-8 bytes of one JSON object from outside:
    a local file or line, a cache entry, an HTTP body. ValueError names
    ``where`` when ``text`` is not UTF-8, JSON within the decoder's depth and
    digit limits, or an object, or when ``decode`` finds a bad or missing field."""
    try:
        data = json.loads(text.decode("utf-8"))
        if isinstance(data, dict):
            return decode(data)
    except (LookupError, TypeError, AttributeError, ValueError, OverflowError, RecursionError, SynthexError) as exc:
        raise ValueError(f"{where}: {type(exc).__name__}: {exc}") from exc
    raise ValueError(f"{where} is not a JSON object")


def read_text(path: str | Path) -> str:
    """The text of a local UTF-8 file, under :func:`decode_object`'s rule: a
    file that is not UTF-8 is a ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from exc


def load_json(path: str | Path, decode=lambda data: data):
    """``decode(object)`` for a file of one JSON object; errors name the file."""
    return decode_object(Path(path).read_bytes(), decode, str(path))


def load_jsonl(path: str | Path, decode=lambda data, position: data) -> list:
    """``decode(object, position)`` for each object of a JSONL file, counting
    positions from 0, under :func:`decode_object`'s rule: errors name the
    file and line."""
    out = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                out.append(decode_object(line, lambda obj: decode(obj, len(out)), f"{path}: line {number}"))
    return out


def load_records(path: str | Path) -> list[AnnotationRecord]:
    return load_jsonl(path, lambda data, position: record_from_dict(data, default_doc_id=str(position)))


def save_records(records: Iterable[AnnotationRecord], path: str | Path):
    dump_jsonl((record_to_dict(r) for r in records), path)


def repeated_ids(ids: Iterable[str]) -> list[str]:
    """The ids that occur more than once, sorted."""
    return sorted(doc_id for doc_id, n in Counter(ids).items() if n > 1)


def load_corpus(path: str | Path) -> list[SourceDocument]:
    """Load a corpus JSONL (id, title, text); ids must be unique."""
    docs = load_jsonl(path, lambda data, _: SourceDocument.from_dict(data))
    duplicates = repeated_ids(d.id for d in docs)
    if duplicates:
        raise ValueError(f"duplicate document ids {duplicates} in corpus")
    return docs
