"""Golden bytes for every prompt builder and persisted layout.

Prompts are the replay-cache keys and the JSONL layouts are the pipeline's
artifacts, so a refactor that changes a single byte of either silently
invalidates recorded caches and byte-identical replays. Each value below is
the sha256 of the exact text the public builders produce for the
University-of-Vienna fixture.
"""

import dataclasses
import hashlib
import json

from synthex.annotator import ECHO_MISMATCH, build_zero_shot_prompt, verify_annotation
from synthex.core import Schema, record_to_dict
from synthex.inference import PartialAnnotation, Prediction, build_inference_prompt, prediction_to_dict
from synthex.postprocess import build_triple_verification_prompt

from conftest import raw_from_record

QUERY_TEXT = 'Die Universität "Wien" wurde 1365 gegründet.\n\nSie liegt in Österreich.'
SCHEMA = Schema.from_lists(["Educational institution", "Person", "Location"], ["located_in", "founded_by"])


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def jsonl_line(data: dict) -> str:
    """The exact line ``dump_jsonl`` writes for one object."""
    return json.dumps(data, ensure_ascii=False) + "\n"


def test_zero_shot_prompt(uni_vienna_record):
    assert sha(build_zero_shot_prompt(uni_vienna_record.text)) == (
        "30833e433db2cfddf9e613fc479a4b9b82c56e3ef8c81e29ed9406ff9f0fbc01"
    )


def test_inference_prompt_without_partial(uni_vienna_record):
    prompt = build_inference_prompt(uni_vienna_record, None, QUERY_TEXT, SCHEMA)
    assert sha(prompt) == (
        "2064be15065c728e9c6f5fbd3ba96f4b88c095c915550e7fdab967bb705ebb46"
    )


def test_inference_prompt_with_partial(uni_vienna_record):
    partial = PartialAnnotation(
        text=QUERY_TEXT.split("\n\n")[0],
        text_with_spans='Die <ent id="0" type="Educational institution">Universität "Wien"</ent> '
        "wurde 1365 gegründet.",
        entities=uni_vienna_record.entities[:2],
        triples=uni_vienna_record.triples[:1],
    )
    prompt = build_inference_prompt(uni_vienna_record, partial, QUERY_TEXT, SCHEMA)
    assert sha(prompt) == (
        "22595c40d242dc0069e3e02056b3fa2511c3ec08c6350f84c378bd27c793ae83"
    )


def test_triple_verification_prompts(uni_vienna_record):
    entities = list(uni_vienna_record.entities)
    digests = [sha(build_triple_verification_prompt(t, entities)) for t in uni_vienna_record.triples]
    assert digests == [
        "895f6b31b145f23920d74cb75d4311b97864acd244830dee8090378987617306",
        "5acd911a703099790d59d8fb3f18eb001ff8dda91e4438ae8c7ca3120b060b5a",
        "a97e8f1d088f96f3b96797a0f9e4e3056bd16daebfb1067eec0b5a845992b8f8",
        "f5d97ecee30fe4c619a40322f4fd82ffaa2b868634f59df04388405c5c0af34e",
    ]


def test_record_jsonl_line(uni_vienna_record):
    record = dataclasses.replace(
        uni_vienna_record, provenance={"attempt": 2, "temperatures": [0.0, 0.2], "retried": True}
    )
    assert sha(jsonl_line(record_to_dict(uni_vienna_record))) == (
        "54917733fa76898d1bf8b44dc0891849a53058726f96b9317bc6eed5747107c5"
    )
    assert sha(jsonl_line(record_to_dict(record))) == (
        "74298363678f547f8892a0761e3c4753e8cbbc5ee2238642b3a65268a6266f9c"
    )


def test_prediction_jsonl_lines(uni_vienna_record):
    valid = Prediction(
        doc_id="uni-vienna",
        entities=uni_vienna_record.entities,
        mentions=uni_vienna_record.mentions,
        triples=uni_vienna_record.triples,
        valid=True,
        raw_responses=("first reply", "second reply"),
        provenance={"mentions_dropped": 0, "demo_doc_id": "demo-1", "schema_drops": {"entities": 1, "triples": 0}},
    )
    invalid = Prediction(
        doc_id="uni-vienna",
        entities=(),
        mentions=(),
        triples=(),
        valid=False,
        raw_responses=("first reply", "no json here"),
        provenance={"invalid_reason": "echo check failed"},
    )
    assert sha(jsonl_line(prediction_to_dict(valid))) == (
        "28dc4e03e8c23b534e29f3b9d19402334d3fbaf181f11200d346d4c5861da752"
    )
    assert sha(jsonl_line(prediction_to_dict(invalid))) == (
        "6534ece8683088fef0661a66d615b029bb0ef472e2ddcdd1a7b11447fe2701e3"
    )


def test_echo_mismatch_context(uni_vienna_record):
    raw = raw_from_record(uni_vienna_record)
    raw = dataclasses.replace(raw, text_with_spans=raw.text_with_spans.replace("in 1365", "in 1356"))
    report = verify_annotation(raw, uni_vienna_record.text)
    contexts = [f.context for f in report.errors if f.kind == ECHO_MISMATCH]
    assert len(contexts) == 1
    assert sha(contexts[0]) == (
        "5a78b0ce150ea0b3f465db7def984a69fa93b5bc81795191ea84f0f8a5c8e5ac"
    )
