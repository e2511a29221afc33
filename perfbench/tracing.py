"""Spans recorded around synthex's public functions, from outside the package.

Each wrapped name is patched where its callers look it up (a module global or
a class attribute), so nothing in ``src/`` changes. A span keeps its name,
start, end, parent span and a trace id: the document id of the first
document-like argument, inherited by child spans. Spans stay in memory until
the traced run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import threading
import time
import types

# Metric name -> every "module:attribute" or "module:Class.attribute" where
# callers look the function up.
WRAPPED = {
    "gateway.complete": ["synthex.gateway:ChatGateway.complete"],
    "gateway.extract_json_block": ["synthex.gateway:extract_json_block", "synthex.annotator:extract_json_block"],
    "gateway.extract_boxed": ["synthex.gateway:extract_boxed", "synthex.postprocess:extract_boxed"],
    "annotator.annotate": ["synthex.annotator:Annotator.annotate"],
    "annotator.truncate_text": [
        "synthex.annotator:truncate_text", "synthex.demostore:truncate_text", "synthex.inference:truncate_text",
    ],
    "annotator.build_zero_shot_prompt": ["synthex.annotator:build_zero_shot_prompt"],
    "annotator.parse_annotation_response": [
        "synthex.annotator:parse_annotation_response", "synthex.inference:parse_annotation_response",
    ],
    "annotator.verify_annotation": ["synthex.annotator:verify_annotation"],
    "markup.parse_annotated": [
        "synthex.markup:parse_annotated", "synthex.annotator:parse_annotated", "synthex.inference:parse_annotated",
    ],
    "postprocess.collect_verdicts": ["synthex.postprocess:PostProcessor.collect_verdicts"],
    "postprocess.build_triple_verification_prompt": ["synthex.postprocess:build_triple_verification_prompt"],
    "demostore.build_index": ["synthex.demostore:build_index", "synthex.cli:build_index"],
    "demostore.save": ["synthex.demostore:DemoIndex.save"],
    "demostore.load": ["synthex.demostore:DemoIndex.load"],
    "demostore.embed": ["synthex.demostore:FallbackEmbedder.embed", "synthex.demostore:ProviderEmbedder.embed"],
    "demostore.retrieve_scored": ["synthex.demostore:DemoIndex.retrieve_scored"],
    "demostore.cosine": ["synthex.demostore:cosine"],
    "inference.infer": ["synthex.inference:InferencePipeline.infer"],
    "inference.build_inference_prompt": ["synthex.inference:build_inference_prompt"],
    "inference.first_fragment": ["synthex.inference:first_fragment"],
    "inference.enforce_schema": ["synthex.inference:enforce_schema"],
    "evaluate.evaluate": ["synthex.evaluate:evaluate", "synthex.cli:evaluate"],
    "evaluate.eval_mentions": ["synthex.evaluate:eval_mentions"],
    "evaluate.eval_entity_ident": ["synthex.evaluate:eval_entity_ident"],
    "evaluate.eval_entity_class": ["synthex.evaluate:eval_entity_class"],
    "evaluate.eval_relations": ["synthex.evaluate:eval_relations"],
    "core.load_corpus": ["synthex.core:load_corpus", "synthex.cli:load_corpus"],
    "core.load_records": ["synthex.core:load_records", "synthex.cli:load_records"],
    "core.dump_jsonl": ["synthex.core:dump_jsonl", "synthex.cli:dump_jsonl"],
    "core.record_from_dict": ["synthex.core:record_from_dict", "synthex.demostore:record_from_dict"],
    "core.record_to_dict": ["synthex.core:record_to_dict", "synthex.demostore:record_to_dict"],
    "cli.write_manifest": ["synthex.cli:write_manifest"],
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id")

    def __init__(self, name, parent, trace_id):
        self.name = name
        self.parent = parent
        self.trace_id = trace_id
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _doc_id(args) -> str | None:
    for arg in args[:3]:
        doc_id = getattr(arg, "doc_id", None)
        if isinstance(doc_id, str):
            return doc_id
        if type(arg).__name__ == "SourceDocument":
            return arg.id
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.prompt_chars: list[int] = []  # length of every inference prompt built
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent, _doc_id(args) or (parent.trace_id if parent else None))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, types.GeneratorType):
                    result = list(result)  # the work belongs inside the span
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self):
        """Patch every site in :data:`WRAPPED`; absent sites are recorded in
        :attr:`missing` instead of failing."""
        for name, sites in WRAPPED.items():
            wrappers: dict[int, object] = {}
            for site in sites:
                module_name, _, attr_path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *owners, attr = attr_path.split(".")
                    for part in owners:
                        owner = getattr(owner, part)
                    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(site)
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                wrapped = wrappers.get(id(fn))
                if wrapped is None:
                    wrapped = wrappers[id(fn)] = self.wrap(name, fn)
                setattr(owner, attr, type(raw)(wrapped) if isinstance(raw, (classmethod, staticmethod)) else wrapped)

        # Inference prompt sizes. An absent module or name is already in
        # ``missing``.
        inference = sys.modules.get("synthex.inference")
        build = getattr(inference, "build_inference_prompt", None)
        if build is not None:
            def measured(*args, **kwargs):
                prompt = build(*args, **kwargs)
                self.prompt_chars.append(len(prompt))
                return prompt

            inference.build_inference_prompt = measured

    def dump(self, path: str):
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start, "end": span.end,
                    "parent": ids.get(id(span.parent)), "trace_id": span.trace_id,
                }) + "\n")


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail(ordered: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p90/p50 with at least
    ten samples beyond it; (100, max) when there are fewer than 20 samples."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (1 - pct / 100) >= 10:
            return pct, percentile(ordered, pct)
    return 100.0, percentile(ordered, 100.0)


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cursor = -math.inf
    for start, end in sorted(intervals):
        if end > cursor:
            total += end - max(start, cursor)
            cursor = end
    return total


def summarize(tracer: Tracer) -> dict:
    """Per wrapped name: calls, total, self time, median and tail latency."""
    child_time: dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is not None:
            child_time[id(span.parent)] = child_time.get(id(span.parent), 0.0) + span.duration
    by_name: dict[str, list[Span]] = {name: [] for name in WRAPPED}
    for span in tracer.spans:
        by_name[span.name].append(span)
    out = {}
    for name, spans in by_name.items():
        durations = sorted(s.duration * 1000 for s in spans)
        pct, tail_ms = tail(durations)
        out[name] = {
            "calls": len(spans),
            "total_s": sum(durations) / 1000,
            "self_s": sum(s.duration - child_time.get(id(s), 0.0) for s in spans),
            "p50_ms": percentile(durations, 50.0),
            "tail_ms": tail_ms,
            "tail_pct": pct,
        }
    return out


def coverage(tracer: Tracer, prefixes: tuple[str, ...], window: tuple[float, float]) -> float:
    """Share of ``window`` covered by spans whose name starts with a prefix."""
    start, end = window
    intervals = [
        (max(s.start, start), min(s.end, end))
        for s in tracer.spans
        if s.name.startswith(prefixes) and s.end > start and s.start < end
    ]
    return union_length(intervals) / (end - start) if end > start else 0.0
