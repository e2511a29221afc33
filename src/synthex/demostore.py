"""Demonstration database: similarity index over truncated texts.

Retrieval fetches the most similar annotated document for a query, comparing
truncated query text against the truncated demonstration texts — both sides
pass through the identical truncation before embedding. Scoring is exact
cosine, not approximate: at a few thousand entries an approximate structure
buys nothing and risks a wrong neighbor.

Embeddings come either from an HTTP provider (text in, vector out; the actual
model is configuration) or from a hermetic lexical fallback — an L2-normalized
term-frequency vector over a corpus-fixed vocabulary. The fallback exists so
tests and offline runs need no network; it is not a substitute for semantic
similarity. A build embeds through a provider on ``map_contained``'s pool.

A fallback index weighs demonstrations and queries with one function,
``FallbackEmbedder.weigh``. Its posting lists are the one stored copy of the
demonstration weights: per vocabulary position, parallel lists of entry ids
and weights, so a query only scores the entries sharing a token with it. An
entry derives its ``terms``, ``vector`` and ``norm`` from its truncated text
when asked. The score is the same float ``cosine`` computes over the dense
vectors: the zero terms of the dense dot product and norms add exactly 0.0,
so summing the nonzero terms in position order with ``sum()`` gives the same
sums. Entries sharing no token score 0.0, and so does every entry for a query
with no token in the vocabulary. Building or loading an index counts each
truncated text's tokens once, which gives the vocabulary. The weights,
postings and entry norms are derived from those counts once per index: by
``load``, or by the first retrieval from an index ``build_index`` made, so
``synthex index``, which only saves, never derives them. The file (format v3)
is JSONL: a header line of ``version``, ``mode`` and ``min_words``, then one
entry per line holding a record, its truncated text as the length of its
prefix of the record text and, in provider mode, its vector.
"""

from __future__ import annotations

import heapq
import math
import operator
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .annotator import truncate_text
from .core import (
    AnnotationRecord,
    SynthexError,
    decode_object,
    dump_jsonl,
    load_jsonl,
    read_text,
    record_from_dict,
    record_to_dict,
)
from .gateway import GatewayError, map_contained, post_json

INDEX_FORMAT_VERSION = 3
INDEX_MODES = ("fallback", "provider")


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


def _dot(u, v) -> float:
    return sum(map(operator.mul, u, v))


def _norm(values) -> float:
    return math.sqrt(_dot(values, values))


class Embedding(list):
    """A provider's embedding as floats, with the norm :func:`provider_vector` found."""

    __slots__ = ("norm",)


def _scorable_norm(vector) -> float:
    """The norm of a stored or query vector, which scoring divides by: it
    must be finite and positive. Tiny components can underflow it to 0.0,
    and a NaN or infinite one leaves it undefined. An :class:`Embedding`'s
    norm is computed once."""
    norm = getattr(vector, "norm", None) or _norm(vector)
    if not 0.0 < norm < math.inf:
        raise ZeroVectorError(f"vector norm {norm} is zero or not finite")
    return norm


def provider_vector(value) -> Embedding:
    """A provider's embedding, from an embeddings body or an index file, as
    floats: a JSON list of numbers, booleans excluded, whose norm scoring can
    divide by."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise TypeError(f"an embedding is a list of numbers, not {value!r:.100}")
    vector = Embedding(map(float, value))
    vector.norm = _scorable_norm(vector)
    return vector


def cosine(u: list[float], v: list[float]) -> float:
    """Standard cosine similarity over equal-dimension dense vectors."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"dimensions differ: {len(u)} vs {len(v)}")
    norm_u = _norm(u)
    norm_v = _norm(v)
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroVectorError("cosine undefined for a zero vector")
    return _dot(u, v) / (norm_u * norm_v)


class FallbackEmbedder:
    """Term-frequency vectors over a fixed vocabulary, L2-normalized."""

    def __init__(self, vocabulary: list[str]):
        self.vocabulary = list(vocabulary)
        self._positions = {token: i for i, token in enumerate(self.vocabulary)}

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def weigh(self, counts: Counter) -> list[tuple[int, float]]:
        """The nonzero ``(position, weight)`` pairs, in position order, of a
        text's token counts ``Counter(text.lower().split())``; empty when no
        token is in the vocabulary."""
        if not counts:
            raise EmptyTextError("cannot embed empty text")
        positions = self._positions
        tallies = sorted([(positions[token], n) for token, n in counts.items() if token in positions])
        norm = _norm([n for _, n in tallies])
        return [(position, n / norm) for position, n in tallies]

    def terms(self, text: str) -> list[tuple[int, float]]:
        """The nonzero ``(position, weight)`` pairs of ``embed(text)``."""
        return self.weigh(Counter(text.lower().split()))

    def embed(self, text: str) -> list[float]:
        terms = self.terms(text)
        if not terms:
            raise ZeroVectorError("no text token occurs in the index vocabulary")
        vector = [0.0] * self.dim
        for position, weight in terms:
            vector[position] = weight
        return vector


# Seconds an embeddings request may take.
EMBED_TIMEOUT = 60.0


class ProviderEmbedder:
    """Client for an HTTP embeddings endpoint, under the chat gateway's retry
    policy."""

    def __init__(self, base_url: str, model_name: str, api_key: str = ""):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key = api_key

    def embed(self, text: str) -> list[float]:
        if not text.strip():
            raise EmptyTextError("cannot embed empty text")
        try:
            raw = post_json(
                f"{self.base_url}/embeddings",
                {"model": self.model_name, "input": text},
                api_key=self.api_key,
                timeout=EMBED_TIMEOUT,
            )
            return provider_vector(decode_object(raw, lambda data: data["data"][0]["embedding"], f"{raw[:200]!r}"))
        except (SynthexError, TypeError, ValueError, OverflowError) as exc:
            raise ProviderError(f"embeddings endpoint failed: {exc}") from exc


class ExclusionList(frozenset):
    """Doc ids withheld from retrieval, e.g. to avoid test-set contamination."""

    @classmethod
    def from_file(cls, path: str | Path) -> "ExclusionList":
        """The non-blank lines of a text file, stripped."""
        return cls(filter(None, map(str.strip, read_text(path).splitlines())))


@dataclass(frozen=True)
class DemoIndexEntry:
    """One demonstration. A provider entry keeps the vector it was given, not
    a copy; a fallback entry keeps the index's embedder and derives its
    ``terms`` and ``vector`` from its truncated text."""

    doc_id: str
    truncated_text: str
    record: AnnotationRecord
    stored_vector: list[float] | None = None
    embedder: FallbackEmbedder | None = field(default=None, repr=False, compare=False)

    @property
    def terms(self) -> list[tuple[int, float]]:
        """A fallback entry's nonzero ``(position, weight)`` pairs."""
        return self.embedder.terms(self.truncated_text) if self.embedder is not None else []

    @property
    def vector(self) -> list[float]:
        if self.stored_vector is not None:
            return self.stored_vector
        return self.embedder.embed(self.truncated_text)

    @property
    def norm(self) -> float:
        """The norm ``cosine`` computes for ``vector``, the one scoring uses."""
        return _norm(self.vector)


class DemoIndex:
    """Immutable similarity index over a demonstration database.

    Built from the records, their truncated texts and, in provider mode, their
    stored vectors; ``build_index`` and ``load`` both construct it here.
    """

    def __init__(
        self,
        mode: str,
        records: list[AnnotationRecord],
        truncated_texts: list[str],
        min_words: int,
        vectors: list[list[float]] | None = None,
    ):
        self.mode = mode
        self.min_words = min_words
        self.vocabulary: list[str] | None = None
        self._lock = threading.Lock()
        self._counts: list[Counter] | None = None
        if mode == "fallback":
            # One tokenising pass per text gives the vocabulary; ``_derive`` weighs the counts.
            self._counts = [Counter(text.lower().split()) for text in truncated_texts]
            if not all(self._counts):
                raise EmptyTextError("cannot embed empty text")
            self._embedder = FallbackEmbedder(sorted(set().union(*self._counts)))
            self.vocabulary = self._embedder.vocabulary
            self.dim = self._embedder.dim
            self.entries = [
                DemoIndexEntry(record.doc_id, text, record, embedder=self._embedder)
                for record, text in zip(records, truncated_texts)
            ]
        elif mode == "provider":
            self.dim = len(vectors[0]) if vectors else 0
            self.entries = []
            self._norms = []
            for record, text, vector in zip(records, truncated_texts, vectors):
                if len(vector) != self.dim:
                    raise DimensionMismatchError(
                        f"doc {record.doc_id}: vector dimension {len(vector)} != {self.dim}"
                    )
                self._norms.append(_scorable_norm(vector))
                self.entries.append(DemoIndexEntry(record.doc_id, text, record, stored_vector=vector))
        else:
            raise ValueError(f"unknown index mode {mode!r}")

    def _derive(self):
        """Weigh the counted fallback texts into postings and entry norms,
        then free the counts: once per index, whichever thread asks first."""
        with self._lock:
            if self._counts is None:
                return
            self._posting_ids: list[list[int]] = [[] for _ in self.vocabulary]
            self._posting_weights: list[list[float]] = [[] for _ in self.vocabulary]
            self._norms = []
            for i, tally in enumerate(self._counts):
                weights = []
                for position, weight in self._embedder.weigh(tally):
                    self._posting_ids[position].append(i)
                    self._posting_weights[position].append(weight)
                    weights.append(weight)
                self._norms.append(_norm(weights))
            self._counts = None

    def __len__(self) -> int:
        return len(self.entries)

    def _fallback_scores(self, text: str) -> dict[int, float]:
        """Scores of the entries sharing a token with ``text``."""
        self._derive()
        terms = self._embedder.terms(text)
        products = defaultdict(list)
        for position, weight in terms:
            for i, entry_weight in zip(self._posting_ids[position], self._posting_weights[position]):
                products[i].append(weight * entry_weight)
        query_norm = _norm([weight for _, weight in terms])
        return {i: sum(p) / (query_norm * self._norms[i]) for i, p in products.items()}

    def _provider_scores(self, text: str, embedder) -> dict[int, float]:
        if embedder is None:
            raise ValueError("a provider-mode index needs an embedder for queries")
        query = embedder.embed(text)
        if len(query) != self.dim:
            raise ProviderError(f"query vector dimension {len(query)} != index dimension {self.dim}")
        query_norm = _scorable_norm(query)
        return {
            i: _dot(query, entry.stored_vector) / (query_norm * norm)
            for i, (entry, norm) in enumerate(zip(self.entries, self._norms))
        }

    def retrieve_scored(
        self,
        query_text: str,
        exclusions: ExclusionList | None = None,
        k: int = 1,
        embedder=None,
    ) -> list[tuple[AnnotationRecord, float]]:
        """The k most similar demonstrations with their cosine scores.

        The query is truncated exactly like the indexed texts. Ties break by
        ascending doc id so retrieval is fully deterministic; entries sharing
        no token with a fallback query score 0.0.
        """
        exclusions = exclusions or frozenset()
        candidates = [(i, e) for i, e in enumerate(self.entries) if e.doc_id not in exclusions]
        if not candidates:
            raise EmptyIndexError("no index entries remain after exclusions")
        text = truncate_text(query_text, self.min_words)
        if self.mode == "fallback":
            scores = self._fallback_scores(text)
        else:
            scores = self._provider_scores(text, embedder)
        scored = [(scores.get(i, 0.0), entry) for i, entry in candidates]
        top = heapq.nsmallest(k, scored, key=lambda pair: (-pair[0], pair[1].doc_id))
        return [(entry.record, score) for score, entry in top]

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
        def lines():
            yield {"version": INDEX_FORMAT_VERSION, "mode": self.mode, "min_words": self.min_words}
            for entry in self.entries:
                item = {"truncated_chars": len(entry.truncated_text), "record": record_to_dict(entry.record)}
                if entry.stored_vector is not None:
                    item["vector"] = entry.stored_vector
                yield item

        dump_jsonl(lines(), path)

    @classmethod
    def load(cls, path: str | Path) -> "DemoIndex":
        header = {}

        def decode(data, position):
            if position == 0:
                version, mode, min_words = data.get("version"), data.get("mode"), data.get("min_words")
                if version != INDEX_FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported index format version {version!r}; rebuild the index with `synthex index`"
                    )
                if mode not in INDEX_MODES:
                    raise ValueError(f"an index file's mode is one of {INDEX_MODES}, not {mode!r}")
                if isinstance(min_words, bool) or not isinstance(min_words, int) or min_words < 1:
                    raise ValueError(f"an index file's min_words is a positive integer, not {min_words!r}")
                header.update(mode=mode, min_words=min_words)
                return header
            record = record_from_dict(data["record"])
            chars = data["truncated_chars"]
            if isinstance(chars, bool) or not isinstance(chars, int):
                raise TypeError(f"truncated_chars must be an integer, not {chars!r}")
            if not 1 <= chars <= len(record.text):
                raise ValueError(f"truncated_chars must be in 1..{len(record.text)}, not {chars}")
            vector = provider_vector(data["vector"]) if header["mode"] == "provider" else None
            return record, record.text[:chars], vector

        entries = load_jsonl(path, decode)[1:]
        if not entries:
            raise ValueError(f"{path}: an index file holds a header line and at least one entry")
        records, texts, vectors = (list(column) for column in zip(*entries))
        index = cls(header["mode"], records, texts, header["min_words"], vectors)
        index._derive()
        return index


def _embed_all(embedder, texts: list[str], parallelism: int) -> list[list[float]]:
    """One ``embed`` per text on ``map_contained``'s pool, in input order.

    The first failure stops new requests from starting, so a dead endpoint
    costs one retry cycle per worker, not one per text. The error raised is
    that of the failed text with the lowest index; a text skipped after a
    failure never failed.
    """
    failed = threading.Event()

    def embed(text):
        if failed.is_set():
            return None
        try:
            return embedder.embed(text)
        except SynthexError as exc:
            failed.set()
            return exc

    vectors = [vector for vector, _ in map_contained(embed, texts, parallelism)]
    for vector in vectors:
        if isinstance(vector, SynthexError):
            raise vector
    return vectors


def build_index(
    records: list[AnnotationRecord],
    mode: str = "fallback",
    embedder=None,
    min_words: int = 100,
    parallelism: int = 1,
) -> DemoIndex:
    """Truncate, embed, and index every record; any embed failure fails the
    build — a partial index would silently skew retrieval. Provider
    embeddings run on a pool of ``parallelism`` threads."""
    if not records:
        raise ValueError("cannot build an index over zero records")
    if mode == "provider" and embedder is None:
        raise ValueError("provider mode requires an embedder")
    truncated = [truncate_text(r.text, min_words) for r in records]
    vectors = _embed_all(embedder, truncated, parallelism) if mode == "provider" else None
    return DemoIndex(mode, records, truncated, min_words, vectors)
