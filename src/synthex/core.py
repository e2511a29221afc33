"""Shared data model: documents, annotations, schemas, and surface normalization.

Every other module builds on these types. Annotated documents persist as JSONL
with one record per line; the field layout follows the synthetic-data release
format ("text", "annotated_text", "entities", "relations") with "mentions",
"entity_types", "relation_types", "doc_id" and "provenance" as documented
extensions. SourceDocument, Entity, Mention and Triple each carry their one
JSON codec (``to_dict``/``from_dict``); every layout is built from those and
read by ``read_layout``, whether a record, a prediction or a model response.
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


def _field_type_error(rule: str, data: dict, **kinds: type) -> TypeError:
    """The TypeError of an element codec whose type test failed on ``data``:
    it states ``rule`` and names, as its ``field`` too, the first field
    present that is not of its kind (a bool is no int)."""
    field = next(f for f, k in kinds.items() if f in data and (type(data[f]) is bool or not isinstance(data[f], k)))
    error = TypeError(f"{rule}; its {field} is {data[field]!r:.100}")
    error.field = field
    return error


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
            rule = "an entity is an integer id with a string name and type"
            raise _field_type_error(rule, data, id=int, name=str, type=str)
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
            rule = "a mention is integer entity_id, start and end, string surface and type"
            raise _field_type_error(rule, data, entity_id=int, start=int, end=int, surface=str, type=str)
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
            rule = "a triple is an integer subject and object with string predicate and texts"
            kinds = {"description": str, "triple_string": str, "subject": int, "predicate": str, "object": int}
            raise _field_type_error(rule, data, **kinds)
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
    """Rebuild a record from its JSON form, read by :func:`read_layout`.
    Absent "mentions" are recovered by parsing the annotated text, and an
    omitted or empty type inventory is derived from the entities/triples."""
    annotation = read_layout(data)
    if "mentions" in data:
        mentions = read_elements(data, "mentions", Mention.from_dict)
    else:
        from .markup import parse_annotated

        mentions = tuple(parse_annotated(annotation.text_with_spans)[1])
    return AnnotationRecord(
        doc_id=decode_doc_id(data.get("doc_id", default_doc_id)),
        text=data["text"],
        annotated_text=annotation.text_with_spans,
        entities=annotation.entities,
        mentions=mentions,
        triples=annotation.triples,
        entity_types=_read_types(data, "entity_types") or derive_entity_types(annotation.entities),
        relation_types=_read_types(data, "relation_types") or derive_relation_types(annotation.triples),
        provenance=checked(data.get("provenance", {}), dict, "provenance"),
    )


# --- the annotated-document layout -------------------------------------------

@dataclass(frozen=True)
class PartialAnnotation:
    """The annotation one layout carries, as :func:`read_layout` reads it;
    inference carries call 1's into the call-2 prompt."""

    text: str = ""
    text_with_spans: str = ""
    entities: tuple[Entity, ...] = ()
    triples: tuple[Triple, ...] = ()


# The spellings of the layout's aliased keys, in the order a reader tries
# them: model responses say "text_with_spans" and "triples", records and
# prompt blocks "annotated_text" and "relations".
LAYOUT_ALIASES = {"text_with_spans": ("text_with_spans", "annotated_text"), "triples": ("triples", "relations")}


def _layout_value(data: dict, key: str, strict: bool, default):
    for spelling in LAYOUT_ALIASES.get(key, (key,)):
        if spelling in data:
            return data[spelling]
    if strict:
        raise KeyError(key)
    return default


def read_layout(data: dict, strict: bool = False) -> PartialAnnotation:
    """The annotation of ``data``, a JSON object in the annotated-document
    layout, each key under its ``LAYOUT_ALIASES`` spellings.

    Release (records, predictions): a key may be omitted and reads as empty;
    a value of the wrong type is a TypeError, an element's naming its field.
    Strict (model responses): every key but "text" is required, the type
    inventories too, and every field of each element; entity names and
    types are non-empty. A failure is a KeyError whose argument is its path,
    such as ``entities[0].name``.
    """
    text, markup = data.get("text", ""), _layout_value(data, "text_with_spans", strict, "")
    if not isinstance(text, str) or not isinstance(markup, str):
        path = "text" if isinstance(markup, str) else "text_with_spans"
        raise KeyError(path) if strict else TypeError("text and annotated_text must be strings")
    entities = read_elements(data, "entities", Entity.from_dict, strict)
    annotation = PartialAnnotation(text, markup, entities, read_elements(data, "triples", Triple.from_dict, strict))
    if strict:
        _read_types(data, "relation_types", strict)
        _read_types(data, "entity_types", strict)
    return annotation


def read_elements(data: dict, key: str, decode, strict: bool = False) -> tuple:
    """The list ``key`` of ``data``, each element through its codec
    ``decode``; see :func:`read_layout` for ``strict``."""
    items = _layout_value(data, key, strict, [])
    if not strict:
        return tuple(map(decode, checked(items, list, key)))
    if not isinstance(items, list):
        raise KeyError(key)
    elements = []
    for i, item in enumerate(items):
        try:
            element = decode(item)
        except (KeyError, TypeError, AttributeError) as exc:  # an element that is no object names no field
            field = exc.args[0] if isinstance(exc, KeyError) else getattr(exc, "field", None)
            raise KeyError(f"{key}[{i}].{field}" if field else f"{key}[{i}]") from exc
        for field, value in element.to_dict().items():
            if field not in item or (value == "" and field in ("name", "type")):
                raise KeyError(f"{key}[{i}].{field}")
        elements.append(element)
    return tuple(elements)


def _read_types(data: dict, key: str, strict: bool = False) -> tuple[str, ...]:
    """The type inventory ``key`` of ``data``, a list of strings; see
    :func:`read_layout` for ``strict``."""
    types = _layout_value(data, key, strict, [])
    if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
        message = f"entity_types and relation_types are lists of strings, not {types!r:.100}"
        raise KeyError(key) if strict else TypeError(message)
    return tuple(types)


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[IO[str]]:
    """Write UTF-8 text (no newline translation) to a uniquely named temp file
    in ``path``'s directory, made if missing, then rename it over ``path``; a
    failure deletes it. Readers never see a partial file, writers never mix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
