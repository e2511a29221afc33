"""Demonstration database: similarity index over truncated texts.

Retrieval fetches the most similar annotated document for a query, comparing
truncated query text against the truncated demonstration texts — both sides
pass through the identical truncation before embedding. The scan is exhaustive
and exact: at a few thousand entries an approximate structure buys nothing and
risks a wrong neighbor.

Embeddings come either from an HTTP provider (text in, vector out; the actual
model is configuration) or from a hermetic lexical fallback — an L2-normalized
term-frequency vector over a corpus-fixed vocabulary. The fallback exists so
tests and offline runs need no network; it is not a substitute for semantic
similarity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .annotator import truncate_text
from .core import (
    AnnotationRecord,
    SynthexError,
    atomic_writer,
    normalize_surface,
    record_from_dict,
    record_to_dict,
)
from .gateway import GatewayError, post_json

INDEX_FORMAT_VERSION = 1


class ProviderError(GatewayError):
    """A failed embeddings call."""


class EmptyTextError(SynthexError):
    pass


class DimensionMismatchError(SynthexError):
    pass


class ZeroVectorError(SynthexError):
    pass


class EmptyIndexError(SynthexError):
    """Nothing left to retrieve from after applying exclusions."""


def cosine(u: list[float], v: list[float]) -> float:
    """Standard cosine similarity over equal-dimension dense vectors."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"dimensions differ: {len(u)} vs {len(v)}")
    norm_u = math.sqrt(sum(x * x for x in u))
    norm_v = math.sqrt(sum(x * x for x in v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroVectorError("cosine undefined for a zero vector")
    dot = sum(a * b for a, b in zip(u, v))
    return dot / (norm_u * norm_v)


def tokenize(text: str) -> list[str]:
    return normalize_surface(text).split()


class FallbackEmbedder:
    """Term-frequency vectors over a fixed vocabulary, L2-normalized."""

    mode = "fallback"

    def __init__(self, vocabulary: list[str]):
        self.vocabulary = list(vocabulary)
        self._positions = {token: i for i, token in enumerate(self.vocabulary)}

    @classmethod
    def from_texts(cls, texts: list[str]) -> "FallbackEmbedder":
        vocabulary = sorted({token for text in texts for token in tokenize(text)})
        return cls(vocabulary)

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def embed(self, text: str) -> list[float]:
        tokens = tokenize(text)
        if not tokens:
            raise EmptyTextError("cannot embed empty text")
        counts = [0.0] * len(self.vocabulary)
        for token in tokens:
            position = self._positions.get(token)
            if position is not None:
                counts[position] += 1.0
        norm = math.sqrt(sum(c * c for c in counts))
        if norm == 0.0:
            raise ZeroVectorError("no text token occurs in the index vocabulary")
        return [c / norm for c in counts]


class ProviderEmbedder:
    """Client for an HTTP embeddings endpoint, under the chat gateway's retry
    policy."""

    mode = "provider"

    def __init__(self, base_url: str, model_name: str, api_key: str = "", timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key = api_key
        self.timeout = timeout

    def embed(self, text: str) -> list[float]:
        if not text.strip():
            raise EmptyTextError("cannot embed empty text")
        try:
            raw = post_json(
                f"{self.base_url}/embeddings",
                {"model": self.model_name, "input": text},
                api_key=self.api_key,
                timeout=self.timeout,
            )
            vector = json.loads(raw)["data"][0]["embedding"]
        except (GatewayError, json.JSONDecodeError, KeyError, IndexError) as exc:
            raise ProviderError(f"embeddings endpoint failed: {exc}") from exc
        if not isinstance(vector, list) or not vector:
            raise ProviderError("embeddings endpoint returned no vector")
        return [float(x) for x in vector]


@dataclass(frozen=True)
class ExclusionList:
    """Doc ids withheld from retrieval, e.g. to avoid test-set contamination."""

    doc_ids: frozenset[str]

    @classmethod
    def from_file(cls, path: str | Path) -> "ExclusionList":
        ids = set()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                ids.add(line)
        return cls(frozenset(ids))

    @classmethod
    def empty(cls) -> "ExclusionList":
        return cls(frozenset())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.doc_ids


@dataclass(frozen=True)
class DemoIndexEntry:
    doc_id: str
    truncated_text: str
    vector: tuple[float, ...]
    record: AnnotationRecord


class DemoIndex:
    """Immutable similarity index over a demonstration database."""

    def __init__(
        self,
        mode: str,
        dim: int,
        entries: list[DemoIndexEntry],
        min_words: int,
        vocabulary: list[str] | None = None,
    ):
        self.mode = mode
        self.dim = dim
        self.entries = list(entries)
        self.min_words = min_words
        self.vocabulary = vocabulary

    def __len__(self) -> int:
        return len(self.entries)

    def query_embedder(self, embedder=None):
        if self.mode == "fallback":
            return FallbackEmbedder(self.vocabulary or [])
        if embedder is None:
            raise ValueError("a provider-mode index needs an embedder for queries")
        return embedder

    def retrieve_scored(
        self,
        query_text: str,
        exclusions: ExclusionList | None = None,
        k: int = 1,
        embedder=None,
    ) -> list[tuple[AnnotationRecord, float]]:
        """The k most similar demonstrations with their cosine scores.

        The query is truncated exactly like the indexed texts. Ties break by
        ascending doc id so retrieval is fully deterministic.
        """
        exclusions = exclusions or ExclusionList.empty()
        candidates = [e for e in self.entries if e.doc_id not in exclusions]
        if not candidates:
            raise EmptyIndexError("no index entries remain after exclusions")
        query_vector = self.query_embedder(embedder).embed(truncate_text(query_text, self.min_words))
        scored = [(cosine(query_vector, list(e.vector)), e) for e in candidates]
        scored.sort(key=lambda pair: (-pair[0], pair[1].doc_id))
        return [(entry.record, score) for score, entry in scored[:k]]

    def retrieve(
        self,
        query_text: str,
        exclusions: ExclusionList | None = None,
        k: int = 1,
        embedder=None,
    ) -> list[AnnotationRecord]:
        return [record for record, _ in self.retrieve_scored(query_text, exclusions, k, embedder)]

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path):
        payload = {
            "version": INDEX_FORMAT_VERSION,
            "mode": self.mode,
            "dim": self.dim,
            "min_words": self.min_words,
            "vocabulary": self.vocabulary,
            "entries": [
                {
                    "doc_id": e.doc_id,
                    "truncated_text": e.truncated_text,
                    "vector": list(e.vector),
                    "record": record_to_dict(e.record),
                }
                for e in self.entries
            ],
        }
        with atomic_writer(path) as fh:
            fh.write(json.dumps(payload, ensure_ascii=False))

    @classmethod
    def load(cls, path: str | Path) -> "DemoIndex":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("version") != INDEX_FORMAT_VERSION:
            raise ValueError(f"unsupported index format version {data.get('version')!r}")
        entries = [
            DemoIndexEntry(
                doc_id=e["doc_id"],
                truncated_text=e["truncated_text"],
                vector=tuple(e["vector"]),
                record=record_from_dict(e["record"]),
            )
            for e in data["entries"]
        ]
        return cls(
            mode=data["mode"],
            dim=data["dim"],
            entries=entries,
            min_words=data["min_words"],
            vocabulary=data.get("vocabulary"),
        )


def build_index(
    records: list[AnnotationRecord],
    mode: str = "fallback",
    embedder=None,
    min_words: int = 100,
) -> DemoIndex:
    """Truncate, embed, and index every record; any embed failure fails the
    build — a partial index would silently skew retrieval."""
    if not records:
        raise ValueError("cannot build an index over zero records")
    truncated = [truncate_text(r.text, min_words) for r in records]
    if mode == "fallback":
        embedder = FallbackEmbedder.from_texts(truncated)
        vocabulary = embedder.vocabulary
    elif mode == "provider":
        if embedder is None:
            raise ValueError("provider mode requires an embedder")
        vocabulary = None
    else:
        raise ValueError(f"unknown index mode {mode!r}")
    entries = []
    dim: int | None = None
    for record, text in zip(records, truncated):
        vector = embedder.embed(text)
        if dim is None:
            dim = len(vector)
        elif len(vector) != dim:
            raise DimensionMismatchError(
                f"doc {record.doc_id}: vector dimension {len(vector)} != {dim}"
            )
        entries.append(
            DemoIndexEntry(
                doc_id=record.doc_id,
                truncated_text=text,
                vector=tuple(vector),
                record=record,
            )
        )
    assert dim is not None
    return DemoIndex(mode=mode, dim=dim, entries=entries, min_words=min_words, vocabulary=vocabulary)
