import heapq
import json
import math
import random
import re
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from synthex import demostore
from synthex.annotator import truncate_text
from synthex.cli import main
from synthex.core import save_records
from synthex.demostore import (
    DemoIndex,
    DimensionMismatchError,
    Embedding,
    EmptyIndexError,
    EmptyTextError,
    ExclusionList,
    FallbackEmbedder,
    ProviderEmbedder,
    ProviderError,
    ZeroVectorError,
    build_index,
    cosine,
    provider_vector,
)

from conftest import BROKEN_REPLIES, RawReplyHandler, trivial_record


class TestCosine:
    def test_identity(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_hand_computed(self):
        assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine([1.0], [1.0, 2.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_bounds(self):
        rng = random.Random(4)
        for _ in range(100):
            u = [rng.uniform(-3, 3) for _ in range(5)]
            v = [rng.uniform(-3, 3) for _ in range(5)]
            if all(x == 0 for x in u) or all(x == 0 for x in v):
                continue
            assert -1.0 - 1e-9 <= cosine(u, v) <= 1.0 + 1e-9


class TestFallbackEmbedder:
    def test_definition(self):
        embedder = FallbackEmbedder(["a", "b", "c"])
        norm = math.sqrt(5)
        assert embedder.embed("a b a") == pytest.approx([2 / norm, 1 / norm, 0.0])

    def test_deterministic(self):
        embedder = FallbackEmbedder(["alpha", "beta", "gamma"])
        assert embedder.embed("alpha beta") == embedder.embed("alpha beta")

    def test_normalization_applied(self):
        embedder = FallbackEmbedder(["alpha"])
        assert embedder.embed("  ALPHA  ") == pytest.approx([1.0])

    def test_empty_text(self):
        with pytest.raises(EmptyTextError):
            FallbackEmbedder(["a"]).embed("   ")

    def test_all_oov(self):
        with pytest.raises(ZeroVectorError):
            FallbackEmbedder(["a"]).embed("zz yy")

    def test_vocabulary_sorted_from_texts(self):
        index = build_index([trivial_record("d0", "b a"), trivial_record("d1", "c A")], mode="fallback")
        assert index.vocabulary == ["a", "b", "c"]


class _EmbedHandler(BaseHTTPRequestHandler):
    """Answers each embeddings request after sleeping ``delay`` seconds and
    records the peak number of requests in flight."""

    vector = [0.6, 0.8]
    status = 200
    scripted: list = []  # statuses for the next requests, before ``status``
    requests = 0
    queued: list = []  # vectors for the next requests, before ``vector``
    body = None  # a whole response body (a string is sent as is), instead of one built from ``vector``
    vector_of = None  # a function of the input text giving the vector, instead of ``vector``
    refused: dict = {}  # input text -> error status, answered with a body naming the text
    delay = 0.0
    in_flight = 0
    peak_in_flight = 0
    lock = threading.Lock()

    def do_POST(self):
        cls = type(self)
        length = int(self.headers.get("Content-Length", 0))
        text = json.loads(self.rfile.read(length))["input"]
        with cls.lock:
            cls.requests += 1
            cls.in_flight += 1
            cls.peak_in_flight = max(cls.peak_in_flight, cls.in_flight)
            status = cls.scripted.pop(0) if cls.scripted else cls.status
            vector = cls.queued.pop(0) if cls.queued else cls.vector
        try:
            time.sleep(cls.delay)
        finally:
            with cls.lock:
                cls.in_flight -= 1
        if cls.vector_of is not None:
            vector = cls.vector_of(text)
        body = {"data": [{"embedding": vector}]} if cls.body is None else cls.body
        if text in cls.refused:
            status, body = cls.refused[text], {"error": f"refused {text}"}
        payload = (body if isinstance(body, str) else json.dumps(body)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    _EmbedHandler.vector = [0.6, 0.8]
    _EmbedHandler.status = 200
    _EmbedHandler.scripted = []
    _EmbedHandler.requests = 0
    _EmbedHandler.queued = []
    _EmbedHandler.body = None
    _EmbedHandler.vector_of = None
    _EmbedHandler.refused = {}
    _EmbedHandler.delay = 0.0
    _EmbedHandler.in_flight = _EmbedHandler.peak_in_flight = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestProviderEmbedder:
    def test_returns_provider_vector(self, embed_server):
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        assert embedder.embed("hello") == [0.6, 0.8]

    def test_provider_failure(self, monkeypatch):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        embedder = ProviderEmbedder(base_url="http://127.0.0.1:9", model_name="emb-1")
        with pytest.raises(ProviderError):
            embedder.embed("hello")

    def test_empty_text(self, embed_server):
        with pytest.raises(EmptyTextError):
            ProviderEmbedder(base_url=embed_server, model_name="emb-1").embed(" ")

    def test_transient_error_retried(self, embed_server, monkeypatch):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        _EmbedHandler.scripted = [503]
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        assert embedder.embed("hello") == [0.6, 0.8]
        assert _EmbedHandler.requests == 2

    def test_client_error_not_retried(self, embed_server):
        _EmbedHandler.status = 400
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        with pytest.raises(ProviderError, match="400"):
            embedder.embed("hello")
        assert _EmbedHandler.requests == 1

    @pytest.mark.parametrize("body", [
        [1, 2],
        {"data": "vectors"},
        {"data": 5},
        {"data": [{"embedding": ["a", "b"]}]},
        {"data": [{"embedding": [None, 1.0]}]},
        {"data": [{"embedding": [[0.6], [0.8]]}]},
        pytest.param("[" * 100_000, id="nested"),
        pytest.param({"data": [{"embedding": [10**400]}]}, id="overflow"),
        pytest.param({"data": [{"embedding": "12"}]}, id="string"),
        pytest.param({"data": [{"embedding": [True, False]}]}, id="bools"),
        pytest.param({"data": [{"embedding": [1e-200, 1e-200]}]}, id="underflow"),
        pytest.param('{"data": [{"embedding": [NaN, 1.0]}]}', id="nan"),
        pytest.param('{"data": [{"embedding": [Infinity, 1.0]}]}', id="infinity"),
    ])
    def test_malformed_body(self, embed_server, body):
        _EmbedHandler.body = body
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        with pytest.raises(ProviderError):
            embedder.embed("hello")

    @pytest.mark.parametrize("broken", sorted(BROKEN_REPLIES))
    def test_broken_response(self, raw_server, monkeypatch, broken):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        RawReplyHandler.reply = lambda body: BROKEN_REPLIES[broken]
        with pytest.raises(ProviderError):
            ProviderEmbedder(base_url=raw_server, model_name="emb-1").embed("hello")

    def test_zero_vector(self, embed_server):
        _EmbedHandler.vector = [0.0, 0.0]
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        with pytest.raises(ProviderError, match="zero"):
            embedder.embed("hello")

    @pytest.mark.parametrize("dimension", [2, 64, 1536])
    def test_provider_vector_takes_no_more_memory_than_an_exact_list(self, dimension):
        rng = random.Random(dimension)
        value = [rng.choice([rng.uniform(-1.0, 1.0), rng.randint(-3, 3) or 1]) for _ in range(dimension)]
        vector = provider_vector(value)
        assert vector == [float(x) for x in value]
        assert sys.getsizeof(vector) <= sys.getsizeof(Embedding(list(value)))


def _corpus(n: int, rng: random.Random, vocab=None):
    vocab = vocab or ["river", "forest", "bridge", "castle", "meadow", "harbor", "valley", "stone"]
    records = []
    for i in range(n):
        words = [rng.choice(vocab) for _ in range(rng.randint(8, 20))]
        words[0] = words[0].capitalize()
        records.append(trivial_record(f"doc{i:03d}", " ".join(words) + "."))
    return records


def _counting_builds(monkeypatch) -> list:
    """Log every posting build of a fallback index; returns the log."""
    calls = []
    build = demostore._build_postings

    def counted(positions, counts):
        calls.append(len(counts))
        return build(positions, counts)

    monkeypatch.setattr(demostore, "_build_postings", counted)
    return calls


class TestDerivation:
    """A fallback index builds its postings once: while loading, or on the
    first retrieval from a built index, whichever thread asks first."""

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_concurrent_first_retrievals_derive_once(self, tmp_path, monkeypatch, source):
        rng = random.Random(11)
        records = _corpus(40, rng)
        queries = [r.text for r in _corpus(8, rng)]
        serial = build_index(records, mode="fallback")
        expected = [[(r.doc_id, s.hex()) for r, s in serial.retrieve_scored(q, k=5)] for q in queries]
        path = tmp_path / "index.jsonl"
        serial.save(path)

        calls = _counting_builds(monkeypatch)
        index = build_index(records, mode="fallback") if source == "built" else DemoIndex.load(path)
        assert calls == ([len(records)] if source == "loaded" else [])
        barrier = threading.Barrier(len(queries))
        results = [None] * len(queries)

        def retrieve(i):
            barrier.wait(timeout=10)
            results[i] = [(r.doc_id, s.hex()) for r, s in index.retrieve_scored(queries[i], k=5)]

        threads = [threading.Thread(target=retrieve, args=(i,)) for i in range(len(queries))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        assert calls == [len(records)]


class TestBuildIndex:
    def test_three_records(self):
        records = _corpus(3, random.Random(0))
        index = build_index(records, mode="fallback")
        assert len(index) == 3
        assert all(len(e.vector) == index.dim for e in index.entries)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            build_index([], mode="fallback")

    def test_provider_mode_requires_embedder(self):
        with pytest.raises(ValueError):
            build_index(_corpus(2, random.Random(0)), mode="provider")

    def test_provider_mode_with_stub(self, embed_server):
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        index = build_index(_corpus(2, random.Random(0)), mode="provider", embedder=embedder)
        assert index.dim == 2
        assert index.mode == "provider"

    def test_reload_stability(self, tmp_path):
        rng = random.Random(8)
        records = _corpus(12, rng)
        index = build_index(records, mode="fallback")
        path = tmp_path / "index.json"
        index.save(path)
        reloaded = DemoIndex.load(path)
        for probe in [records[0].text, "castle bridge stone", "meadow harbor"]:
            original = [(r.doc_id, round(s, 12)) for r, s in index.retrieve_scored(probe, k=3)]
            again = [(r.doc_id, round(s, 12)) for r, s in reloaded.retrieve_scored(probe, k=3)]
            assert original == again

    @pytest.mark.parametrize("mode", ["fallback", "provider"])
    def test_save_load_save_is_byte_identical(self, tmp_path, mode):
        records = _corpus(5, random.Random(9))
        # A fallback embedder stands in for a provider: its vectors are stored like any provider's.
        embedder = FallbackEmbedder(["castle", "river", "stone", "valley"]) if mode == "provider" else None
        index = build_index(records, mode=mode, embedder=embedder, min_words=5)
        path, again = tmp_path / "index.json", tmp_path / "again.json"
        index.save(path)
        DemoIndex.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"version": 3, "mode": mode, "min_words": 5}
        assert [json.loads(line)["record"]["doc_id"] for line in lines[1:]] == [r.doc_id for r in records]

    def test_provider_norms_are_computed_once_per_entry(self, tmp_path, monkeypatch):
        records = _corpus(5, random.Random(9))
        stored = [[1.0, 0.5], [0.5, 1.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0]]
        bodies = iter(json.dumps({"data": [{"embedding": vector}]}).encode() for vector in stored)
        monkeypatch.setattr("synthex.demostore.post_json", lambda *args, **kwargs: next(bodies))
        passes = []
        norm = demostore._norm
        monkeypatch.setattr("synthex.demostore._norm", lambda values: passes.append(len(values)) or norm(values))
        index = build_index(records, mode="provider", embedder=ProviderEmbedder("", "emb"), min_words=5)
        assert passes == [2] * len(records)
        index.save(tmp_path / "index.json")
        del passes[:]
        loaded = DemoIndex.load(tmp_path / "index.json")
        assert passes == [2] * len(records)
        assert loaded._norms == index._norms == [math.sqrt(sum(x * x for x in vector)) for vector in stored]

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_other_versions_rejected(self, tmp_path, version):
        entry = {"truncated_chars": 5, "record": {"doc_id": "d", "text": "Alpha."}}
        header = {"version": version, "mode": "fallback", "min_words": 100}
        lines = {
            1: [{**header, "dim": 1, "vocabulary": ["alpha"], "entries": [{**entry, "vector": [1.0]}]}],
            2: [{**header, "entries": [entry]}],
            99: [header, entry],
        }[version]
        path = tmp_path / "index.json"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        rebuild = "rebuild the index with `synthex index`"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: .*{rebuild}$"):
            DemoIndex.load(path)


def _provider_config(directory, base_url: str, parallelism: int):
    path = directory / "config.json"
    path.write_text(json.dumps({
        "embedding_mode": "provider", "embed_base_url": base_url, "embed_model": "emb-1", "parallelism": parallelism,
    }), encoding="utf-8")
    return path


def _text_vector(text: str) -> list[float]:
    """A vector that tells texts apart, so an index stored out of order shows."""
    return [float(len(text)), float(sum(map(ord, text)) % 1009 + 1)]


class TestPoolIndex:
    """Provider embeddings run on a pool of the config's ``parallelism``."""

    def test_parallel_index_is_byte_identical_to_serial(self, tmp_path, embed_server):
        records = _corpus(12, random.Random(11))
        dataset = tmp_path / "kept.jsonl"
        save_records(records, dataset)
        _EmbedHandler.vector_of = _text_vector
        _EmbedHandler.delay = 0.05
        peaks = {}
        for parallelism in (1, 4):
            out_dir = tmp_path / f"p{parallelism}"
            out_dir.mkdir()
            config = _provider_config(out_dir, embed_server, parallelism)
            _EmbedHandler.peak_in_flight = 0
            argv = ["index", "--dataset", str(dataset), "--output", str(out_dir / "index.json"), "--config", str(config)]
            assert main(argv) == 0
            peaks[parallelism] = _EmbedHandler.peak_in_flight
        serial, parallel = tmp_path / "p1", tmp_path / "p4"
        assert (parallel / "index.json").read_bytes() == (serial / "index.json").read_bytes()
        hashes = [json.loads((d / "index.manifest.json").read_text(encoding="utf-8"))["config_hash"]
                  for d in (serial, parallel)]
        assert hashes[0] == hashes[1]
        lines = (parallel / "index.json").read_text(encoding="utf-8").splitlines()
        entries = [json.loads(line) for line in lines[1:]]
        assert [e["vector"] for e in entries] == [_text_vector(truncate_text(r.text, 100)) for r in records]
        assert _EmbedHandler.requests == 2 * len(records)
        assert peaks[1] == 1
        assert peaks[4] > 1

    def test_dead_endpoint_stops_new_embeddings(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        started = []
        embed = ProviderEmbedder.embed
        monkeypatch.setattr(ProviderEmbedder, "embed", lambda self, text: started.append(text) or embed(self, text))
        records = _corpus(50, random.Random(12))
        embedder = ProviderEmbedder(base_url="http://127.0.0.1:9", model_name="emb-1")
        with pytest.raises(ProviderError, match="unreachable"):
            build_index(records, mode="provider", embedder=embedder, parallelism=4)
        assert 1 <= len(started) <= 4

        started.clear()
        dataset, output = tmp_path / "kept.jsonl", tmp_path / "index.json"
        save_records(records, dataset)
        config = _provider_config(tmp_path, "http://127.0.0.1:9", 4)
        assert main(["index", "--dataset", str(dataset), "--output", str(output), "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: embeddings endpoint failed: endpoint unreachable")
        assert not output.exists()
        assert not (tmp_path / "index.manifest.json").exists()
        assert 1 <= len(started) <= 4

    def test_error_of_the_lowest_failed_index_is_raised(self, embed_server):
        records = _corpus(8, random.Random(13))
        texts = [truncate_text(r.text, 100) for r in records]
        assert len(set(texts)) == len(texts)
        _EmbedHandler.refused = {texts[5]: 400, texts[2]: 400}
        _EmbedHandler.delay = 0.02
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        with pytest.raises(ProviderError, match="400") as excinfo:
            build_index(records, mode="provider", embedder=embedder, parallelism=4)
        assert f"refused {texts[2]}" in str(excinfo.value)

    def test_lowest_failed_index_under_thread_churn(self):
        class FlakyEmbedder:
            def __init__(self):
                self.failed = []

            def embed(self, text):
                i = int(text.split()[1])
                if i % 37 == 36:
                    self.failed.append(i)
                    raise ProviderError(f"embedding {i} failed")
                return [1.0, float(i)]

        records = [trivial_record(f"d{i}", f"Text {i} here.") for i in range(600)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                embedder = FlakyEmbedder()
                with pytest.raises(ProviderError) as excinfo:
                    build_index(records, mode="provider", embedder=embedder, parallelism=8)
                assert str(excinfo.value) == f"embedding {min(embedder.failed)} failed"
                assert len(embedder.failed) <= 8
        finally:
            sys.setswitchinterval(interval)


class TestRetrieve:
    def test_self_retrieval(self):
        rng = random.Random(5)
        records = _corpus(10, rng)
        index = build_index(records, mode="fallback")
        results = index.retrieve_scored(records[4].text, k=1)
        assert results[0][0].doc_id == "doc004"
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_exclusion_moves_to_second_best(self):
        rng = random.Random(5)
        records = _corpus(10, rng)
        index = build_index(records, mode="fallback")
        top_two = index.retrieve("doc query: " + records[4].text, k=2)
        best, runner_up = top_two[0].doc_id, top_two[1].doc_id
        excluded = index.retrieve(
            "doc query: " + records[4].text, exclusions=ExclusionList(frozenset({best}))
        )
        assert excluded[0].doc_id == runner_up

    def test_brute_force_oracle_small(self):
        records = [
            trivial_record("a", "red red blue."),
            trivial_record("b", "blue green."),
            trivial_record("c", "green green red."),
            trivial_record("d", "yellow blue blue."),
            trivial_record("e", "red yellow green."),
        ]
        index = build_index(records, mode="fallback")
        embedder = FallbackEmbedder(index.vocabulary)
        for probe in ["red blue.", "green yellow.", "blue blue yellow."]:
            scores = {
                e.doc_id: cosine(embedder.embed(truncate_text(probe, 100)), list(e.vector))
                for e in index.entries
            }
            expected = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            assert index.retrieve(probe)[0].doc_id == expected

    def test_empty_after_exclusion(self):
        records = _corpus(2, random.Random(0))
        index = build_index(records, mode="fallback")
        with pytest.raises(EmptyIndexError):
            index.retrieve("river", exclusions=ExclusionList(frozenset({"doc000", "doc001"})))

    def test_tie_break_ascending_doc_id(self):
        text = "Same words here today."
        records = [trivial_record("zz", text), trivial_record("aa", text)]
        index = build_index(records, mode="fallback")
        assert index.retrieve(text, k=2)[0].doc_id == "aa"

    def test_truncation_symmetry(self):
        base = " ".join(
            "Sentence number {} talks about the {} near the {}.".format(i, w1, w2)
            for i, (w1, w2) in enumerate([("river", "bridge")] * 30)
        )
        tail = " Completely different closing words about unrelated matters."
        record = trivial_record("long", base)
        index = build_index([record], mode="fallback")
        # Query that shares the first 100 words but diverges afterwards.
        query = truncate_text(base, 100) + tail
        results = index.retrieve_scored(query)
        assert results[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_exclusion_file_loader(self, tmp_path):
        path = tmp_path / "exclusions.txt"
        path.write_text("doc1\n\n doc2 \n", encoding="utf-8")
        exclusions = ExclusionList.from_file(path)
        assert "doc1" in exclusions
        assert "doc2" in exclusions
        assert "doc3" not in exclusions


def _zipf_text(rng: random.Random, words: list[str], weights: list[float], n_words: int) -> str:
    """Sentences of 4-14 words drawn with probability proportional to 1/rank."""
    drawn = rng.choices(words, weights=weights, k=n_words)
    sentences = []
    while drawn:
        size = rng.randint(4, 14)
        sentence, drawn = drawn[:size], drawn[size:]
        sentences.append(" ".join([sentence[0].capitalize(), *sentence[1:], "."]))
    return " ".join(sentences)


def _dense_cosines(index: DemoIndex, vectors: dict, query: str, doc_ids) -> list[float]:
    """Cosine over the dense vectors of the query and each named entry."""
    query_vector = FallbackEmbedder(index.vocabulary).embed(truncate_text(query, index.min_words))
    return [cosine(query_vector, vectors[doc_id]) for doc_id in doc_ids]


def _exact_oracle(records: list, min_words: int):
    """Ranks the records for a query by the exact squared cosine of their
    integer token counts, ``Fraction(d * d, q * s)``, descending, then by doc
    id; each with the score retrieval must give, that fraction rounded once
    and then its square root."""
    counts = [Counter(truncate_text(r.text, min_words).lower().split()) for r in records]
    squares = [sum(n * n for n in entry.values()) for entry in counts]
    vocabulary = set().union(*counts)

    def rank(query: str, excluded=frozenset(), k: int = 3) -> list[tuple[str, float]]:
        tally = Counter(truncate_text(query, min_words).lower().split())
        q = sum(n * n for token, n in tally.items() if token in vocabulary)
        ranked = []
        for record, entry, s in zip(records, counts, squares):
            if record.doc_id not in excluded:
                d = sum(n * entry[token] for token, n in tally.items() if token in entry)
                ranked.append((Fraction(d * d, q * s) if d else Fraction(0), record.doc_id))
        top = heapq.nsmallest(k, ranked, key=lambda pair: (-pair[0], pair[1]))
        return [(doc_id, math.sqrt(float(exact))) for exact, doc_id in top]

    return rank


class TestSparseEquivalence:
    """The posting-list scores rank as the exact cosines do, are each the
    exact cosine rounded, and agree with the dense float cosine to 1e-12."""

    def test_matches_dense_cosine(self, tmp_path):
        rng = random.Random(606)
        words = sorted({"".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 8))) for _ in range(200)})
        rng.shuffle(words)
        weights = [1.0 / rank for rank in range(1, len(words) + 1)]
        records = [
            trivial_record(f"doc{i:03d}", _zipf_text(rng, words, weights, rng.randint(10, 90)))
            for i in rng.sample(range(300), 300)
        ]
        index = build_index(records, mode="fallback", min_words=40)
        vectors = {e.doc_id: list(e.vector) for e in index.entries}
        exclusions = [frozenset(rng.sample([r.doc_id for r in records], 4)) for _ in range(5)]
        queries = []
        for q in range(500):
            text = _zipf_text(rng, words + ["outside", "lexicon"], weights + [0.5, 0.5], rng.randint(3, 80))
            queries.append((text, exclusions[q % 5] if q % 2 else frozenset()))
        oracle = _exact_oracle(records, 40)
        expected = [oracle(text, excluded) for text, excluded in queries]
        for (text, _), ranked in zip(queries, expected):
            cosines = _dense_cosines(index, vectors, text, [doc_id for doc_id, _ in ranked])
            assert [score for _, score in ranked] == pytest.approx(cosines, abs=1e-12)

        path = tmp_path / "index.json"
        index.save(path)
        reloaded = DemoIndex.load(path)
        again = tmp_path / "again.json"
        reloaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        assert reloaded.vocabulary == index.vocabulary
        for candidate in (index, reloaded):
            got = [
                [(r.doc_id, score) for r, score in candidate.retrieve_scored(text, ExclusionList(excluded), k=3)]
                for text, excluded in queries
            ]
            assert got == expected

    def test_zero_score_fill_in_doc_id_order(self):
        records = [
            trivial_record("e", "Red blue."),
            trivial_record("c", "Green yellow."),
            trivial_record("a", "Purple orange."),
            trivial_record("d", "Yellow green green."),
            trivial_record("b", "Black white."),
        ]
        index = build_index(records, mode="fallback")
        vectors = {e.doc_id: list(e.vector) for e in index.entries}
        got = index.retrieve_scored("Green sky.", ExclusionList(frozenset({"a"})), k=4)
        assert [(r.doc_id, s) for r, s in got] == _exact_oracle(records, index.min_words)("Green sky.", {"a"}, k=4)
        cosines = _dense_cosines(index, vectors, "Green sky.", [r.doc_id for r, _ in got])
        assert [s for _, s in got] == pytest.approx(cosines, abs=1e-12)
        assert [r.doc_id for r, _ in got] == ["c", "d", "b", "e"]
        assert [s for _, s in got][2:] == [0.0, 0.0]

    def test_out_of_vocabulary_query_scores_zero(self):
        records = [trivial_record(i, "Alpha beta gamma delta.") for i in ("d2", "d0", "d1")]
        index = build_index(records, mode="fallback")
        got = index.retrieve_scored("Zeta eta theta.", ExclusionList(frozenset({"d0"})), k=3)
        assert [(r.doc_id, s) for r, s in got] == [("d1", 0.0), ("d2", 0.0)]
        with pytest.raises(EmptyTextError):
            index.retrieve_scored("  ")

    def test_query_vector_of_another_length_is_a_provider_error(self, embed_server):
        _EmbedHandler.queued = [[0.6, 0.8], [0.8, 0.6]]
        _EmbedHandler.vector = [0.6, 0.8, 0.0]
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        index = build_index(_corpus(2, random.Random(3)), mode="provider", embedder=embedder)
        with pytest.raises(ProviderError, match="query vector dimension 3 != index dimension 2"):
            index.retrieve("castle bridge", embedder=embedder)

    def test_provider_scores_equal_cosine(self, embed_server, tmp_path):
        vectors = [[0.6, 0.8, 0.0], [-1.0, 2.0, 0.5], [3.0, 0.1, -0.2], [0.6, 0.8, 0.0], [0.2, 0.2, 0.9]]
        query = [0.3, 1.7, -0.4]
        _EmbedHandler.queued = [list(v) for v in vectors]
        _EmbedHandler.vector = query
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        index = build_index(_corpus(5, random.Random(3)), mode="provider", embedder=embedder)
        expected = sorted(
            ((f"doc{i:03d}", cosine(query, v)) for i, v in enumerate(vectors)), key=lambda p: (-p[1], p[0])
        )
        path = tmp_path / "index.json"
        index.save(path)
        for candidate in (index, DemoIndex.load(path)):
            got = candidate.retrieve_scored("castle bridge", k=5, embedder=embedder)
            assert [(r.doc_id, s) for r, s in got] == expected
            assert [list(e.vector) for e in candidate.entries] == vectors
