import random

import pytest

from synthex.annotator import ECHO_MISMATCH, TAG_PARSE_ERROR, verify_annotation
from synthex.core import Mention, PartialAnnotation, Span
from synthex.markup import (
    EmptyMentionError,
    MalformedAttributesError,
    NestedTagError,
    OverlappingMentionsError,
    SpanOutOfBoundsError,
    UnbalancedTagError,
    parse_annotated,
    render_annotated,
)

PROMPT_EXAMPLE = (
    '<ent id="0" type="Person">Alice</ent> (or <ent id="0" type="Person">Ali</ent> '
    'as her friends call her) knows <ent id="1" type="Person">Bob</ent> because '
    '<ent id="0" type="Person">she</ent> met <ent id="1" type="Person">him</ent> at '
    '<ent id="2" type="Educational institution">school</ent>.'
)


class TestParse:
    def test_prompt_example_sentence(self):
        plain, mentions = parse_annotated(PROMPT_EXAMPLE)
        assert plain == "Alice (or Ali as her friends call her) knows Bob because she met him at school."
        assert [m.entity_id for m in mentions] == [0, 0, 1, 0, 1, 2]
        assert [m.surface for m in mentions] == ["Alice", "Ali", "Bob", "she", "him", "school"]
        for m in mentions:
            assert plain[m.span.start : m.span.end] == m.surface
        assert mentions[-1].type_label == "Educational institution"

    def test_tag_free_text_is_identity(self):
        assert parse_annotated("no tags here") == ("no tags here", [])

    def test_unclosed_tag(self):
        with pytest.raises(UnbalancedTagError):
            parse_annotated('<ent id="0" type="X">a')

    def test_close_without_open(self):
        with pytest.raises(UnbalancedTagError):
            parse_annotated("abc</ent>")

    def test_nested_tags_rejected(self):
        with pytest.raises(NestedTagError):
            parse_annotated('<ent id="0" type="A">x<ent id="1" type="B">y</ent></ent>')

    @pytest.mark.parametrize(
        "bad",
        [
            '<ent type="X">a</ent>',  # no id
            '<ent id="zero" type="X">a</ent>',  # non-integer id
            '<ent id="1">a</ent>',  # no type
            '<ent id="-2" type="X">a</ent>',  # negative id
            '<ent id="1" type="">a</ent>',  # empty type
        ],
    )
    def test_malformed_attributes(self, bad):
        with pytest.raises(MalformedAttributesError):
            parse_annotated(bad)

    def test_empty_mention_rejected(self):
        with pytest.raises(EmptyMentionError):
            parse_annotated('<ent id="0" type="X"></ent>')

    def test_single_quoted_attributes_accepted(self):
        plain, mentions = parse_annotated("<ent id='3' type='Place'>Rome</ent>")
        assert plain == "Rome"
        assert mentions[0].entity_id == 3
        assert mentions[0].type_label == "Place"

    def test_unknown_attributes_ignored(self):
        _, mentions = parse_annotated('<ent id="0" type="T" conf="0.9">x</ent>')
        assert mentions[0].entity_id == 0

    def test_html_entities_not_decoded(self):
        plain, _ = parse_annotated('<ent id="0" type="T">A&amp;B</ent>')
        assert plain == "A&amp;B"

    def test_non_ent_angle_brackets_are_text(self):
        plain, mentions = parse_annotated("3 < 5 and <entity> stays")
        assert plain == "3 < 5 and <entity> stays"
        assert mentions == []


class TestRender:
    def test_single_mention(self):
        mention = Mention(entity_id=0, span=Span(0, 5), surface="Alice", type_label="Person")
        assert render_annotated("Alice", [mention]) == '<ent id="0" type="Person">Alice</ent>'

    def test_no_mentions(self):
        assert render_annotated("x", []) == "x"

    def test_sample_record_round_trip(self, uni_vienna_record):
        rendered = render_annotated(uni_vienna_record.text, list(uni_vienna_record.mentions))
        assert rendered == uni_vienna_record.annotated_text

    def test_overlap_rejected(self):
        mentions = [
            Mention(0, Span(0, 4), "abcd", "T"),
            Mention(1, Span(2, 6), "cdef", "T"),
        ]
        with pytest.raises(OverlappingMentionsError):
            render_annotated("abcdefgh", mentions)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(SpanOutOfBoundsError):
            render_annotated("ab", [Mention(0, Span(1, 5), "b???", "T")])

    @pytest.mark.parametrize("label", ['x"y', "a>b", ""])
    def test_unwritable_type_label_rejected(self, label):
        with pytest.raises(MalformedAttributesError, match="cannot be written"):
            render_annotated("ab", [Mention(0, Span(0, 1), "a", label)])

    def test_adjacent_mentions_allowed(self):
        text = "ab"
        mentions = [Mention(0, Span(0, 1), "a", "T"), Mention(1, Span(1, 2), "b", "U")]
        rendered = render_annotated(text, mentions)
        assert parse_annotated(rendered) == (text, mentions)


class TestRoundTrip:
    def test_random_cases(self):
        rng = random.Random(99)
        words = ["alpha", "beta", "gamma", "delta", "eps"]
        types = ["Person", "Place", "Thing"]
        for _ in range(200):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 30)))
            mentions = []
            cursor = 0
            while cursor < len(text) and rng.random() < 0.6:
                start = rng.randint(cursor, min(cursor + 5, len(text) - 1))
                end = rng.randint(start + 1, min(start + 8, len(text)))
                mentions.append(
                    Mention(rng.randint(0, 5), Span(start, end), text[start:end], rng.choice(types))
                )
                cursor = end + rng.randint(1, 4)
            assert parse_annotated(render_annotated(text, mentions)) == (text, mentions)

    def test_parse_is_strip_idempotent_on_plain_text(self):
        plain, mentions = parse_annotated("just words, no markup")
        assert (plain, mentions) == ("just words, no markup", [])


def _echo_findings(original: str, annotated: str) -> dict:
    """Echo-stage findings of the verification battery, by kind."""
    raw = PartialAnnotation(text_with_spans=annotated)
    return {f.kind: f.context for f in verify_annotation(raw, original).errors}


class TestVerifyEcho:
    def test_sample_record_passes(self, uni_vienna_record):
        assert _echo_findings(uni_vienna_record.text, uni_vienna_record.annotated_text) == {}

    def test_simple_true(self):
        assert _echo_findings("abc", '<ent id="0" type="T">abc</ent>') == {}

    def test_altered_content_false(self):
        findings = _echo_findings("abc", '<ent id="0" type="T">abd</ent>')
        assert "offset 2" in findings[ECHO_MISMATCH]

    def test_parse_error_reported_as_reason(self):
        findings = _echo_findings("abc", '<ent id="0" type="T">abc')
        assert "unclosed" in findings[TAG_PARSE_ERROR]
        assert ECHO_MISMATCH not in findings

    def test_no_whitespace_forgiveness(self):
        assert ECHO_MISMATCH in _echo_findings("a b", "a  b")
