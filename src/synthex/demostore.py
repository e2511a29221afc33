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

A fallback index scores from integer token counts. Building or loading an
index counts each truncated text's tokens once, which gives the vocabulary.
From those counts the index derives, once, its postings, per vocabulary
position the ids of the entries holding the token and its count in each, and
each entry's sum of squared counts ``s``. A query sums its integer dot product
``d`` with each entry sharing a token with it, and its own sum of squared
counts ``q`` over the vocabulary's tokens, and scores the entry
``sqrt(d * d / (q * s))``, the cosine of the two term-frequency vectors. The
ratio of exact integers is correctly rounded, so mathematically equal cosines
are equal floats and an exact tie goes to the smaller doc id. Entries sharing
no token score 0.0, and so does every entry for a query with no token in the
vocabulary. ``load`` builds the postings, or else the first retrieval from an
index ``build_index`` made, so ``synthex index``, which only saves, never
builds them. The file (format v3) is JSONL: a header line of ``version``,
``mode`` and ``min_words``, then one entry per line holding a record, unique
by doc id, its truncated text as the length of its prefix of the record text
and, in provider mode, its vector.
"""

from __future__ import annotations

import heapq
import math
import operator
import threading
from collections import Counter
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
    repeated_ids,
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


def _token_counts(text: str) -> Counter:
    """A text's tokens, lowercased and split on whitespace, counted: the one
    tokenising rule for demonstrations and queries alike. A text with no
    token cannot be embedded."""
    counts = Counter(text.lower().split())
    if not counts:
        raise EmptyTextError("cannot embed empty text")
    return counts


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
    vector = Embedding([float(x) for x in value])  # sized, so the list is not over-allocated
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

    def embed(self, text: str) -> list[float]:
        counts = _token_counts(text)
        positions = self._positions
        tallies = sorted([(positions[token], n) for token, n in counts.items() if token in positions])
        if not tallies:
            raise ZeroVectorError("no text token occurs in the index vocabulary")
        norm = _norm([n for _, n in tallies])
        vector = [0.0] * self.dim
        for position, n in tallies:
            vector[position] = n / norm
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
        _token_counts(text)  # refuses a text with no token before any request
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
    ``vector`` from its truncated text."""

    doc_id: str
    truncated_text: str
    record: AnnotationRecord
    stored_vector: list[float] | None = None
    embedder: FallbackEmbedder | None = field(default=None, repr=False, compare=False)

    @property
    def vector(self) -> list[float]:
        if self.stored_vector is not None:
            return self.stored_vector
        return self.embedder.embed(self.truncated_text)


def _build_postings(positions: dict[str, int], counts: list[Counter]) -> tuple[list, list, list[int]]:
    """Per vocabulary position, the ids of the entries holding its token and its
    count in each, in id order; and per entry, its sum of squared counts."""
    ids, ns = [[] for _ in positions], [[] for _ in positions]
    for i, tally in enumerate(counts):
        for token, n in tally.items():
            position = positions[token]
            ids[position].append(i)
            ns[position].append(n)
    return ids, ns, [sum(n * n for n in tally.values()) for tally in counts]


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
        duplicates = repeated_ids(record.doc_id for record in records)
        if duplicates:
            raise ValueError(f"duplicate demonstration ids {duplicates}")
        if mode == "fallback":
            # One tokenising pass per text gives the vocabulary; ``_derive`` indexes the counts.
            self._counts = [_token_counts(text) for text in truncated_texts]
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
        """Build the fallback postings from the counted texts, then free the
        counts: once per index, whichever thread asks first."""
        with self._lock:
            if self._counts is not None:
                self._postings = _build_postings(self._embedder._positions, self._counts)
                self._counts = None

    def __len__(self) -> int:
        return len(self.entries)

    def _fallback_scores(self, text: str) -> dict[int, float]:
        """Scores of the entries sharing a token with ``text``, from integer counts."""
        self._derive()
        counts = _token_counts(text)
        positions, (posting_ids, posting_counts, squares) = self._embedder._positions, self._postings
        dots = [0] * len(squares)
        q = 0
        for token, n in counts.items():
            position = positions.get(token)
            if position is not None:
                q += n * n
                for i, m in zip(posting_ids[position], posting_counts[position]):
                    dots[i] += n * m
        return {i: math.sqrt(d * d / (q * squares[i])) for i, d in enumerate(dots) if d}

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
        ascending doc id among equal scores, so retrieval is fully
        deterministic. A fallback score is the square root of a correctly
        rounded ratio of exact integers, so an exact tie of cosines is a tie
        of scores and goes to the smaller doc id; entries sharing no token
        with a fallback query score 0.0, so only the entries that scored are
        ranked, and the others fill what is left of k in doc-id order.

        When ``exclusions`` name every entry, :class:`EmptyIndexError` is
        raised before the query is truncated, tokenized or embedded.
        """
        exclusions = exclusions or frozenset()
        if all(e.doc_id in exclusions for e in self.entries):
            raise EmptyIndexError("no index entries remain after exclusions")
        text = truncate_text(query_text, self.min_words)
        if self.mode == "fallback":
            scores = self._fallback_scores(text)
        else:
            scores = self._provider_scores(text, embedder)
        entries = self.entries
        top = heapq.nsmallest(k, [
            (-score, doc_id, i) for i, score in scores.items() if (doc_id := entries[i].doc_id) not in exclusions
        ])
        if len(top) < k:  # then entries that scored nothing, by doc id
            top += heapq.nsmallest(k - len(top), [
                (0.0, e.doc_id, i) for i, e in enumerate(entries) if i not in scores and e.doc_id not in exclusions
            ])
        return [(entries[i].record, scores.get(i, 0.0)) for _, _, i in top]

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
        try:
            index = cls(header["mode"], records, texts, header["min_words"], vectors)
        except (ValueError, SynthexError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
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
