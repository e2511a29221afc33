import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from synthex.annotator import truncate_text
from synthex.demostore import (
    DemoIndex,
    DimensionMismatchError,
    EmptyIndexError,
    EmptyTextError,
    ExclusionList,
    FallbackEmbedder,
    ProviderEmbedder,
    ProviderError,
    ZeroVectorError,
    build_index,
    cosine,
)

from conftest import trivial_record


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
        embedder = FallbackEmbedder.from_texts(["alpha beta", "beta gamma"])
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
        embedder = FallbackEmbedder.from_texts(["b a", "c a"])
        assert embedder.vocabulary == ["a", "b", "c"]


class _EmbedHandler(BaseHTTPRequestHandler):
    vector = [0.6, 0.8]
    status = 200
    scripted: list = []  # statuses for the next requests, before ``status``
    requests = 0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        type(self).requests += 1
        status = self.scripted.pop(0) if self.scripted else self.status
        payload = json.dumps({"data": [{"embedding": self.vector}]}).encode("utf-8")
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
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join()


class TestProviderEmbedder:
    def test_returns_provider_vector(self, embed_server):
        embedder = ProviderEmbedder(base_url=embed_server, model_name="emb-1")
        assert embedder.embed("hello") == [0.6, 0.8]

    def test_provider_failure(self):
        embedder = ProviderEmbedder(base_url="http://127.0.0.1:9", model_name="emb-1", timeout=0.5)
        with pytest.raises(ProviderError):
            embedder.embed("hello")

    def test_empty_text(self, embed_server):
        with pytest.raises(EmptyTextError):
            ProviderEmbedder(base_url=embed_server, model_name="emb-1").embed(" ")

    def test_transient_error_retried(self, embed_server):
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


def _corpus(n: int, rng: random.Random, vocab=None):
    vocab = vocab or ["river", "forest", "bridge", "castle", "meadow", "harbor", "valley", "stone"]
    records = []
    for i in range(n):
        words = [rng.choice(vocab) for _ in range(rng.randint(8, 20))]
        words[0] = words[0].capitalize()
        records.append(trivial_record(f"doc{i:03d}", " ".join(words) + "."))
    return records


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

    def test_version_gate(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(json.dumps({"version": 99, "entries": []}), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            DemoIndex.load(path)


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
