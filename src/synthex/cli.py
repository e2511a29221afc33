"""Command-line pipeline orchestration.

One subcommand per stage — ingest, generate, postprocess, stats, index,
infer, eval — so any stage can be rerun in isolation. Each command takes only
the flags it reads and does only its own work. One that writes artifacts
returns every file it read (its inputs), the outputs it wrote and the
``(doc_id, error)`` of each document lost to a failed model call. ``main``
then writes the run manifest (input/output content hashes plus a hash of the
config fields that command reads and that can change its artifacts, so no
endpoint, cache path or parallelism) beside the first output and reports the
lost documents. With a populated replay cache, identical manifests mean
identical artifacts. Credentials travel only through environment variables,
never flags, so they stay out of shell history and manifests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .annotator import (
    ERROR_KINDS,
    Annotator,
    FailureRecord,
    collect_length_stats,
    failure_to_dict,
)
from .core import (
    AnnotationRecord,
    Schema,
    SourceDocument,
    SynthexError,
    atomic_writer,
    dump_jsonl,
    load_corpus,
    load_json,
    load_jsonl,
    load_records,
    read_text,
    repeated_ids,
    save_records,
)
from .demostore import INDEX_MODES, DemoIndex, ExclusionList, ProviderEmbedder, build_index
from .evaluate import MODE_ALL, MODE_VALID_ONLY, evaluate
from .gateway import ChatGateway, map_contained
from .inference import InferencePipeline, prediction_from_dict, prediction_to_dict
from .postprocess import STAGE_GATEWAY_ERROR, PostProcessor

API_KEY_ENV = "SYNTHEX_API_KEY"
CHAT_URL_ENV = "SYNTHEX_CHAT_BASE_URL"
EMBED_URL_ENV = "SYNTHEX_EMBED_BASE_URL"
# The config fields each manifest-writing command reads that can change what
# it writes. Deployment settings (endpoints, cache path, parallelism) change
# where and how fast a run goes, never what it writes, so none is listed.
# infer truncates and embeds queries as its index does, so it reads neither
# min_words nor embedding_mode.
HASHED_FIELDS = {
    "ingest": (),
    "generate": ("model_name", "min_words", "max_tokens", "gateway_mode"),
    "postprocess": ("model_name", "max_tokens", "gateway_mode"),
    "index": ("embedding_mode", "embed_model", "min_words"),
    "infer": ("model_name", "max_tokens", "gateway_mode", "embed_model"),
}
# The JSON values a config file may give each field, by its annotation; a
# bool is never accepted, though Python counts it as an int.
CONFIG_VALUE_TYPES = {"str": str, "int": int, "int | None": (int, type(None))}


@dataclass
class RunConfig:
    model_name: str = "default-model"
    chat_base_url: str = ""
    embed_base_url: str = ""
    embed_model: str = ""
    min_words: int = 100
    parallelism: int = 1
    cache_dir: str = ".synthex-cache"
    gateway_mode: str = "record"
    embedding_mode: str = "fallback"
    max_tokens: int | None = None
    top_k: int = 30

    def validate(self):
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.gateway_mode not in ("record", "replay"):
            raise ValueError(f"unknown gateway_mode {self.gateway_mode!r}")
        if self.embedding_mode not in INDEX_MODES:
            raise ValueError(f"unknown embedding_mode {self.embedding_mode!r}")

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        config = cls()
        if path:
            load_json(path, config._set_fields)
        if os.environ.get(CHAT_URL_ENV):
            config.chat_base_url = os.environ[CHAT_URL_ENV]
        if os.environ.get(EMBED_URL_ENV):
            config.embed_base_url = os.environ[EMBED_URL_ENV]
        return config

    def _set_fields(self, data: dict):
        types = {f.name: f.type for f in fields(self)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, CONFIG_VALUE_TYPES[types[key]]):
                raise ValueError(f"config key {key!r} must be {types[key]}, got {value!r}")
            setattr(self, key, value)

    def apply_flags(self, args: argparse.Namespace):
        """A flag whose argparse dest names a field sets it, unless absent or an empty ``--cache``."""
        for name in (f.name for f in fields(self)):
            if getattr(args, name, None) not in (None, ""):
                setattr(self, name, getattr(args, name))
        self.validate()

    def config_hash(self, command: str) -> str:
        hashed = {name: getattr(self, name) for name in HASHED_FIELDS[command]}
        canonical = json.dumps(hashed, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def workers(self, embedder: ProviderEmbedder | None = None) -> int:
        """Pool size for a stage that calls a model, chat or embeddings: the
        one rule for whether its calls run in the calling thread. A replayed
        stage with no provider embedder never waits on the network, so more
        threads would only contend for the interpreter lock."""
        if self.gateway_mode == "replay" and embedder is None:
            return 1
        return self.parallelism

    def make_gateway(self) -> ChatGateway:
        return ChatGateway(
            cache_dir=self.cache_dir,
            mode=self.gateway_mode,
            base_url=self.chat_base_url,
            api_key=os.environ.get(API_KEY_ENV, ""),
        )

    def make_embedder(self, mode: str) -> ProviderEmbedder | None:
        if mode != "provider":
            return None
        return ProviderEmbedder(
            base_url=self.embed_base_url,
            model_name=self.embed_model,
            api_key=os.environ.get(API_KEY_ENV, ""),
        )


@dataclass
class DatasetStats:
    documents: int = 0
    entities: int = 0
    entity_type_count: int = 0
    triples: int = 0
    relation_type_count: int = 0
    top_entity_types: list = field(default_factory=list)
    top_relation_types: list = field(default_factory=list)
    yield_percent: float | None = None


def percent_yield(annotated: int, failed: int) -> float:
    """Yield in percent: annotated over annotated plus failed documents; transport errors are neither."""
    return 100.0 * annotated / (annotated + failed) if annotated else 0.0


def compute_dataset_stats(
    records: list[AnnotationRecord], top_k: int = 30, failure_count: int | None = None
) -> DatasetStats:
    entity_type_freq: Counter = Counter()
    relation_type_freq: Counter = Counter()
    total_entities = 0
    total_triples = 0
    for record in records:
        total_entities += len(record.entities)
        total_triples += len(record.triples)
        entity_type_freq.update(e.type_label for e in record.entities)
        relation_type_freq.update(t.predicate for t in record.triples)
    top = lambda freq: sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return DatasetStats(
        documents=len(records),
        entities=total_entities,
        entity_type_count=len(entity_type_freq),
        triples=total_triples,
        relation_type_count=len(relation_type_freq),
        top_entity_types=top(entity_type_freq),
        top_relation_types=top(relation_type_freq),
        yield_percent=None if failure_count is None else percent_yield(len(records), failure_count),
    )


# --- manifest ------------------------------------------------------------------

def _file_hash(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(directory: str | Path, command: str, config: RunConfig, inputs: list, outputs: list):
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config_hash": config.config_hash(command),
        "inputs": {str(p): _file_hash(p) for p in inputs},
        "outputs": {str(p): _file_hash(p) for p in outputs},
    }
    path = Path(directory) / f"{command}.manifest.json"
    with atomic_writer(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))


def _write_json(data, path: str | Path):
    """Indented JSON plus a final newline, written atomically."""
    with atomic_writer(path) as fh:
        fh.write(json.dumps(data, indent=2, ensure_ascii=False) + "\n")


# --- commands ------------------------------------------------------------------

def cmd_ingest(args, config: RunConfig):
    source = Path(args.input)
    if source.is_dir():
        inputs = sorted(source.glob("*.txt"))
        texts = [(txt, read_text(txt)) for txt in inputs]
        docs = [SourceDocument(id=txt.stem, text=text, title=txt.stem) for txt, text in texts if text.strip()]
    else:
        inputs, docs = [source], load_corpus(source)
    if not docs:
        raise SynthexError("empty corpus")
    dump_jsonl((d.to_dict() for d in docs), args.output)
    print(f"ingested {len(docs)} documents -> {args.output}")
    return inputs, [args.output], []


def _map_documents(fn, docs: list[SourceDocument], workers: int) -> tuple[list, list[tuple]]:
    """``fn`` over ``docs`` on ``map_contained``'s pool: the results in input
    order, and ``(doc_id, error)`` for each document lost to a failed model call."""
    results = map_contained(fn, docs, workers)
    lost = [(doc.id, error) for doc, (_, error) in zip(docs, results) if error is not None]
    return [result for result, error in results if error is None], lost


def cmd_generate(args, config: RunConfig):
    corpus = load_corpus(args.corpus)
    if not corpus:
        raise SynthexError("empty corpus")
    gateway = config.make_gateway()
    annotator = Annotator(
        gateway,
        model_name=config.model_name,
        min_words=config.min_words,
        max_tokens=config.max_tokens,
    )
    outcomes, lost = _map_documents(annotator.annotate, corpus, config.workers())
    records = [o for o in outcomes if isinstance(o, AnnotationRecord)]
    failures = [o for o in outcomes if isinstance(o, FailureRecord)]

    out_dir = Path(args.out_dir)
    annotations_path = out_dir / "annotations.jsonl"
    failures_path = out_dir / "failures.jsonl"
    stats_path = out_dir / "length_stats.csv"
    save_records(records, annotations_path)
    dump_jsonl((failure_to_dict(f) for f in failures), failures_path)
    _write_length_stats(outcomes, stats_path)
    print(f"annotated {len(records)}/{len(outcomes)} documents, yield {percent_yield(len(records), len(failures)):.2f}%")
    return [args.corpus], [annotations_path, failures_path, stats_path], lost


def _write_length_stats(outcomes, path: Path):
    rows = collect_length_stats(outcomes)
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket", "attempts", *ERROR_KINDS])
        for row in rows:
            writer.writerow(
                [row.label, row.attempts, *[row.failures.get(kind, 0) for kind in ERROR_KINDS]]
            )


def cmd_postprocess(args, config: RunConfig):
    records = load_records(args.annotations)
    gateway = config.make_gateway()
    processor = PostProcessor(gateway, model_name=config.model_name, max_tokens=config.max_tokens)
    kept, drop_log = processor.process(records, parallelism=config.workers())
    out_dir = Path(args.out_dir)
    kept_path = out_dir / "kept.jsonl"
    drops_path = out_dir / "drops.jsonl"
    save_records(kept, kept_path)
    dump_jsonl((entry.to_dict() for entry in drop_log), drops_path)
    dropped_docs = len(records) - len(kept)
    print(f"kept {len(kept)}/{len(records)} documents ({dropped_docs} dropped, {len(drop_log)} log entries)")
    lost = [(e.doc_id, e.reason["error"]) for e in drop_log if e.stage == STAGE_GATEWAY_ERROR]
    return [args.annotations], [kept_path, drops_path], lost


def cmd_stats(args, config: RunConfig):
    records = load_records(args.dataset)
    failure_count = None
    if args.failures:
        failure_count = len(load_jsonl(args.failures))
    stats = compute_dataset_stats(records, top_k=config.top_k, failure_count=failure_count)
    if args.output:
        _write_json(asdict(stats), args.output)
    print(
        f"documents: {stats.documents}\n"
        f"entities: {stats.entities} across {stats.entity_type_count} entity types\n"
        f"triples: {stats.triples} across {stats.relation_type_count} relation types"
    )
    if stats.yield_percent is not None:
        print(f"yield: {stats.yield_percent:.2f}%")
    if stats.top_entity_types:
        print("top entity types:")
        for name, count in stats.top_entity_types:
            print(f"  {count:>6}  {name}")
    if stats.top_relation_types:
        print("top relation types:")
        for name, count in stats.top_relation_types:
            print(f"  {count:>6}  {name}")


def cmd_index(args, config: RunConfig):
    records = load_records(args.dataset)
    embedder = config.make_embedder(config.embedding_mode)
    index = build_index(
        records,
        mode=config.embedding_mode,
        embedder=embedder,
        min_words=config.min_words,
        parallelism=config.workers(embedder),
    )
    index.save(args.output)
    print(f"indexed {len(index)} demonstrations (mode={index.mode}, dim={index.dim}) -> {args.output}")
    return [args.dataset], [args.output], []


def _read_task(data: dict) -> tuple[Schema, list[SourceDocument]]:
    """The schema and documents of a task file's object."""
    spec = data.get("schema") if isinstance(data.get("schema"), dict) else {}
    if not (isinstance(spec.get("entity_types"), list) and isinstance(spec.get("relation_types"), list)):
        raise ValueError("a task file's schema holds entity_types and relation_types lists")
    documents = data.get("documents")
    if not isinstance(documents, list) or not documents or not all(isinstance(d, dict) for d in documents):
        raise ValueError("a task file's documents are a list of objects, at least one")
    schema = Schema.from_lists(spec["entity_types"], spec["relation_types"])
    schema.require_nonempty()
    docs = [SourceDocument.from_dict(d) for d in documents]
    duplicates = repeated_ids(d.id for d in docs)
    if duplicates:
        raise ValueError(f"duplicate document ids {duplicates} in task file")
    return schema, docs


def cmd_infer(args, config: RunConfig):
    schema, docs = load_json(args.task, _read_task)
    index = DemoIndex.load(args.index)
    exclusions = ExclusionList.from_file(args.exclusions) if args.exclusions else None
    embedder = config.make_embedder(index.mode)
    pipeline = InferencePipeline(
        gateway=config.make_gateway(),
        index=index,
        model_name=config.model_name,
        exclusions=exclusions,
        embedder=embedder,
        max_tokens=config.max_tokens,
    )
    predictions, lost = _map_documents(lambda doc: pipeline.infer(doc, schema), docs, config.workers(embedder))
    dump_jsonl((prediction_to_dict(p) for p in predictions), args.output)
    valid = sum(1 for p in predictions if p.valid)
    print(f"inferred {len(predictions)} documents, {valid} valid outputs")
    return [path for path in (args.task, args.index, args.exclusions) if path], [args.output], lost


def cmd_eval(args, config: RunConfig):
    predictions = load_jsonl(args.predictions, lambda data, _: prediction_from_dict(data))
    if not predictions:
        raise SynthexError("no predictions to evaluate")
    golds = load_records(args.gold)
    modes = [args.mode] if args.mode else [MODE_ALL, MODE_VALID_ONLY]
    scored = evaluate(predictions, golds, mode=modes[0], use_spans=args.spans)
    reports = [scored.in_mode(m) for m in modes]
    for report in reports:
        print(report.format_table())
        print()
    if args.output:
        _write_json({report.mode: report.to_dict() for report in reports}, args.output)


# --- argument parsing ---------------------------------------------------------

def _add_model_call_flags(parser: argparse.ArgumentParser):
    """Flags of the commands that call the model: generate, postprocess, infer."""
    parser.add_argument("--cache", dest="cache_dir", help="chat-completion cache directory")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--replay", action="store_const", const="replay", dest="gateway_mode", help="serve model calls from the cache only"
    )
    mode.add_argument(
        "--record", action="store_const", const="record", dest="gateway_mode", help="call the endpoint and cache responses"
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        help="worker pool size (replay with no provider embeddings never waits on the network, so it uses one)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthex",
        description="Synthetic demonstration generation and in-context document-level extraction",
    )
    parser.add_argument("--version", action="version", version=f"synthex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a raw corpus into corpus JSONL")
    p.add_argument("--input", required=True, help="JSONL file or directory of .txt files")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("generate", help="run phase-1 annotation over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--min-words", type=int, dest="min_words", help="truncation word bound")
    _add_model_call_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("postprocess", help="verify triples and filter degenerate documents")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_model_call_flags(p)
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("stats", help="dataset statistics and type frequency tables")
    p.add_argument("--dataset", required=True)
    p.add_argument(
        "--failures",
        help="failure sidecar JSONL; yield = documents in --dataset / (those + failure lines)",
    )
    p.add_argument("--top-k", type=int, dest="top_k", help="frequency table size")
    p.add_argument("--output", help="write stats JSON here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("index", help="build the demonstration similarity index")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--embedding-mode", choices=INDEX_MODES, dest="embedding_mode")
    p.add_argument("--min-words", type=int, dest="min_words", help="truncation word bound")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("infer", help="two-call in-context extraction over a task file")
    p.add_argument("--task", required=True, help="JSON file with documents and schema")
    p.add_argument("--index", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--exclusions", help="newline-delimited doc ids to withhold from retrieval")
    _add_model_call_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against gold annotations")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--mode", choices=[MODE_ALL, MODE_VALID_ONLY], help="restrict to one mode")
    p.add_argument("--spans", action="store_true", help="match mentions on offsets instead of surfaces")
    p.add_argument("--output", help="write the report JSON here")
    p.set_defaults(func=cmd_eval)

    for p in sub.choices.values():
        p.add_argument("--config", help="path to a JSON run-config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        config.apply_flags(args)
        written = args.func(args, config)
        if written is not None:
            inputs, outputs, lost = written
            write_manifest(Path(outputs[0]).parent, args.command, config, inputs, outputs)
            for doc_id, error in lost:
                print(f"gateway error: {doc_id}: {error}", file=sys.stderr)
            if lost:
                print(f"{len(lost)} documents failed on gateway errors", file=sys.stderr)
    except (SynthexError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
