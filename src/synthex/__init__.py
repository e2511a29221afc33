"""Synthetic demonstration generation and retrieval-based in-context
document-level joint entity and relation extraction."""

__version__ = "0.1.0"

from .core import (
    AnnotationRecord,
    Entity,
    Mention,
    Schema,
    SourceDocument,
    Span,
    SynthexError,
    Triple,
    load_corpus,
    load_records,
    normalize_surface,
    save_records,
    split_paragraphs,
)
from .markup import parse_annotated, render_annotated
from .gateway import ChatGateway, GenerationParams, extract_boxed, extract_json_block
from .annotator import (
    Annotator,
    FailureRecord,
    VerificationReport,
    build_zero_shot_prompt,
    collect_length_stats,
    parse_annotation_response,
    split_sentences,
    truncate_text,
    verify_annotation,
)
from .postprocess import (
    PostProcessor,
    TripleVerdict,
    adjudicate,
    apply_discard_policy,
    build_triple_verification_prompt,
    filter_degenerate,
)
from .demostore import DemoIndex, ExclusionList, build_index, cosine
from .inference import (
    InferencePipeline,
    Prediction,
    build_inference_prompt,
    enforce_schema,
    first_fragment,
)
from .evaluate import EvalReport, evaluate, prf, valid_rate

__all__ = [
    "AnnotationRecord",
    "Annotator",
    "ChatGateway",
    "DemoIndex",
    "Entity",
    "EvalReport",
    "ExclusionList",
    "FailureRecord",
    "GenerationParams",
    "InferencePipeline",
    "Mention",
    "PostProcessor",
    "Prediction",
    "Schema",
    "SourceDocument",
    "Span",
    "SynthexError",
    "Triple",
    "TripleVerdict",
    "VerificationReport",
    "adjudicate",
    "apply_discard_policy",
    "build_index",
    "build_inference_prompt",
    "build_triple_verification_prompt",
    "build_zero_shot_prompt",
    "collect_length_stats",
    "cosine",
    "enforce_schema",
    "evaluate",
    "extract_boxed",
    "extract_json_block",
    "filter_degenerate",
    "first_fragment",
    "load_corpus",
    "load_records",
    "normalize_surface",
    "parse_annotated",
    "parse_annotation_response",
    "prf",
    "render_annotated",
    "save_records",
    "split_paragraphs",
    "split_sentences",
    "truncate_text",
    "valid_rate",
    "verify_annotation",
]
