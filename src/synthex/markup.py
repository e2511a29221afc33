"""Inline ``<ent>`` markup: parsing to character spans and rendering.

The dialect is exactly ``<ent id="<int>" type="<string>">...</ent>``. Tags may
use single or double attribute quotes on input; rendering always emits double
quotes. Nesting and overlap are rejected rather than repaired — a bad tag
structure is a verification finding, not something to paper over. HTML entity
escapes are never decoded: the echo check must be exact against the source.
"""

from __future__ import annotations

import re

from .core import Mention, Span, SynthexError


class MarkupError(SynthexError):
    """Base class for tag-structure problems."""


class UnbalancedTagError(MarkupError):
    pass


class MalformedAttributesError(MarkupError):
    pass


class NestedTagError(MarkupError):
    pass


class EmptyMentionError(MarkupError):
    pass


class OverlappingMentionsError(MarkupError):
    pass


class SpanOutOfBoundsError(MarkupError):
    pass


_TAG = re.compile(r"<(/?)ent\b([^>]*)>")
_ATTR = re.compile(r"""([A-Za-z_][\w:.-]*)\s*=\s*(?:"([^"]*)"|'([^']*)')""")


def _parse_attributes(raw: str, position: int) -> tuple[int, str]:
    attrs = {}
    for m in _ATTR.finditer(raw):
        value = m.group(2) if m.group(2) is not None else m.group(3)
        attrs[m.group(1)] = value
    if "id" not in attrs:
        raise MalformedAttributesError(f"ent tag at offset {position} has no id attribute")
    try:
        entity_id = int(attrs["id"])
    except ValueError:
        raise MalformedAttributesError(
            f"ent tag at offset {position}: id {attrs['id']!r} is not an integer"
        ) from None
    if entity_id < 0:
        raise MalformedAttributesError(f"ent tag at offset {position}: negative id {entity_id}")
    type_label = attrs.get("type", "")
    if not type_label:
        raise MalformedAttributesError(f"ent tag at offset {position} has no type attribute")
    return entity_id, type_label


def parse_annotated(annotated_text: str) -> tuple[str, list[Mention]]:
    """Strip ``<ent>`` tags and recover mentions with spans into the plain text.

    Mentions are returned in document order. Anything that is not a
    well-formed ent tag is treated as literal text.
    """
    chunks: list[str] = []
    plain_len = 0
    open_tag: tuple[int, str, int] | None = None  # (entity_id, type_label, plain start)
    raw_mentions: list[tuple[int, str, int, int]] = []
    pos = 0
    for m in _TAG.finditer(annotated_text):
        chunk = annotated_text[pos : m.start()]
        chunks.append(chunk)
        plain_len += len(chunk)
        pos = m.end()
        if m.group(1):  # closing tag
            if m.group(2).strip():
                raise MalformedAttributesError(
                    f"closing tag at offset {m.start()} carries attributes"
                )
            if open_tag is None:
                raise UnbalancedTagError(f"</ent> at offset {m.start()} without matching open tag")
            entity_id, type_label, start = open_tag
            if plain_len == start:
                raise EmptyMentionError(f"empty mention closed at offset {m.start()}")
            raw_mentions.append((entity_id, type_label, start, plain_len))
            open_tag = None
        else:
            if open_tag is not None:
                raise NestedTagError(f"nested <ent> at offset {m.start()}")
            entity_id, type_label = _parse_attributes(m.group(2), m.start())
            open_tag = (entity_id, type_label, plain_len)
    if open_tag is not None:
        raise UnbalancedTagError("unclosed <ent> tag at end of text")
    chunks.append(annotated_text[pos:])
    plain = "".join(chunks)
    mentions = [
        Mention(entity_id=eid, span=Span(start, end), surface=plain[start:end], type_label=label)
        for eid, label, start, end in raw_mentions
    ]
    return plain, mentions


def render_annotated(text: str, mentions: list[Mention]) -> str:
    """Insert ent tags so that parsing the result recovers (text, mentions).

    Mentions must be non-overlapping with spans valid in ``text``; they are
    emitted in span order. A type label that a tag cannot carry (empty, or
    containing ``"`` or ``>``) is refused, since escapes are never decoded.
    """
    ordered = sorted(mentions, key=lambda m: (m.span.start, m.span.end))
    out = []
    cursor = 0
    for m in ordered:
        if m.span.start < 0 or m.span.end > len(text):
            raise SpanOutOfBoundsError(
                f"span [{m.span.start}, {m.span.end}) outside text of length {len(text)}"
            )
        if m.span.start < cursor:
            raise OverlappingMentionsError(
                f"mention at [{m.span.start}, {m.span.end}) overlaps a previous mention"
            )
        if not m.type_label or '"' in m.type_label or ">" in m.type_label:
            raise MalformedAttributesError(f"type label {m.type_label!r} cannot be written into a tag")
        out.append(text[cursor : m.span.start])
        out.append(f'<ent id="{m.entity_id}" type="{m.type_label}">')
        out.append(text[m.span.start : m.span.end])
        out.append("</ent>")
        cursor = m.span.end
    out.append(text[cursor:])
    return "".join(out)

