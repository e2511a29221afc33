import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import shutil
import threading
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from synthex.annotator import Annotator, build_zero_shot_prompt
from synthex.cli import RunConfig, build_parser, compute_dataset_stats, main, write_manifest
from synthex.core import Entity, Schema, dump_jsonl, load_records, record_from_dict, record_to_dict, save_records
from synthex.demostore import DemoIndex, ProviderEmbedder, ProviderError, build_index
from synthex.gateway import ChatGateway, cache_key
from synthex.inference import InferencePipeline, Prediction, build_inference_prompt, prediction_to_dict
from synthex.postprocess import build_triple_verification_prompt

from conftest import (
    BROKEN_REPLIES,
    UNI_VIENNA_DICT,
    ChatStubHandler,
    RawReplyHandler,
    chat_ok,
    completed_inference_json,
    good_annotation_response,
    make_passing_record,
    params_for,
    request_prompts,
    trivial_record,
)

MODEL = "test-model"


def _write_config(tmp_path, **overrides) -> Path:
    config = {
        "model_name": MODEL,
        "cache_dir": str(tmp_path / "cache"),
        "gateway_mode": "replay",
        **overrides,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _seed(tmp_path, prompt, temperature, response):
    gateway = ChatGateway(cache_dir=tmp_path / "cache", mode="replay")
    gateway.store(prompt, params_for(MODEL, temperature), response)


def _corpus_doc(i: int) -> dict:
    text = (
        f"Document{i} opens with a short sentence about topic number {i}. "
        f"It continues with more words to give the annotator something to read."
    )
    return {"id": f"doc{i}", "title": f"Doc {i}", "text": text}


def _write_generate_fixture(tmp_path, n_good=2, n_retry=0, n_fail=0):
    """Corpus plus a seeded cache: n_good pass on attempt one, n_retry pass on
    the 0.2 rerun, n_fail fail both attempts."""
    docs = [_corpus_doc(i) for i in range(n_good + n_retry + n_fail)]
    corpus = tmp_path / "corpus.jsonl"
    dump_jsonl(docs, corpus)
    for i, doc in enumerate(docs):
        prompt = build_zero_shot_prompt(doc["text"])
        if i < n_good:
            _seed(tmp_path, prompt, 0.0, good_annotation_response(doc["text"]))
        elif i < n_good + n_retry:
            _seed(tmp_path, prompt, 0.0, "I will not produce JSON this time.")
            _seed(tmp_path, prompt, 0.2, good_annotation_response(doc["text"]))
        else:
            _seed(tmp_path, prompt, 0.0, "no json here")
            _seed(tmp_path, prompt, 0.2, "still no json")
    return corpus


class TestIngest:
    def test_from_directory(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "b.txt").write_text("Second document text.", encoding="utf-8")
        (raw / "a.txt").write_text("First document text.", encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["a", "b"]
        assert "ingested 2 documents" in capsys.readouterr().out

    def test_from_jsonl(self, tmp_path):
        source = tmp_path / "in.jsonl"
        dump_jsonl([_corpus_doc(0)], source)
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--input", str(source), "--output", str(out)]) == 0

    def test_empty_corpus_fails(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        out = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--input", str(raw), "--output", str(out)]) == 1
        assert "empty corpus" in capsys.readouterr().err


class TestGenerate:
    def test_end_to_end_with_retry_and_failure(self, tmp_path, capsys):
        corpus = _write_generate_fixture(tmp_path, n_good=2, n_retry=1, n_fail=1)
        config = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            ["generate", "--corpus", str(corpus), "--out-dir", str(out_dir), "--config", str(config)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "yield 75.00%" in printed  # 3 of 4
        records = load_records(out_dir / "annotations.jsonl")
        assert [r.doc_id for r in records] == ["doc0", "doc1", "doc2"]
        assert records[2].provenance["retried"] is True
        failures = [json.loads(l) for l in (out_dir / "failures.jsonl").read_text().splitlines()]
        assert [f["doc_id"] for f in failures] == ["doc3"]
        assert len(failures[0]["attempts"]) == 2
        stats_lines = (out_dir / "length_stats.csv").read_text().splitlines()
        assert stats_lines[0].startswith("bucket,attempts,")
        manifest = json.loads((out_dir / "generate.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert str(corpus) in manifest["inputs"]

    def test_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("", encoding="utf-8")
        config = _write_config(tmp_path)
        code = main(
            ["generate", "--corpus", str(corpus), "--out-dir", str(tmp_path / "o"), "--config", str(config)]
        )
        assert code == 1
        assert "empty corpus" in capsys.readouterr().err

    def test_missing_corpus_file(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        code = main(
            ["generate", "--corpus", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path / "o"), "--config", str(config)]
        )
        assert code == 1

    def test_manifest_stable_across_reruns(self, tmp_path):
        corpus = _write_generate_fixture(tmp_path, n_good=2)
        config = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        args = ["generate", "--corpus", str(corpus), "--out-dir", str(out_dir), "--config", str(config)]
        assert main(args) == 0
        first = (out_dir / "generate.manifest.json").read_bytes()
        assert main(args) == 0
        assert (out_dir / "generate.manifest.json").read_bytes() == first

    def test_parallel_run_preserves_input_order(self, tmp_path):
        corpus = _write_generate_fixture(tmp_path, n_good=6, n_retry=1, n_fail=1)
        config = _write_config(tmp_path)
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        base = ["generate", "--corpus", str(corpus), "--config", str(config)]
        assert main(base + ["--out-dir", str(serial_dir)]) == 0
        assert main(base + ["--out-dir", str(parallel_dir), "--parallelism", "4"]) == 0
        for name in ("annotations.jsonl", "failures.jsonl", "length_stats.csv"):
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()

    def test_truncated_cache_entry_costs_one_document(self, tmp_path, capsys):
        corpus = _write_generate_fixture(tmp_path, n_good=3)
        prompt = build_zero_shot_prompt(_corpus_doc(1)["text"])
        entry = tmp_path / "cache" / f"{cache_key(prompt, params_for(MODEL, 0.0))}.json"
        entry.write_bytes(entry.read_bytes()[:50])
        config = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["generate", "--corpus", str(corpus), "--out-dir", str(out_dir), "--config", str(config)])
        assert code == 0
        captured = capsys.readouterr()
        assert [r.doc_id for r in load_records(out_dir / "annotations.jsonl")] == ["doc0", "doc2"]
        errors = [line for line in captured.err.splitlines() if line.startswith("gateway error:")]
        assert len(errors) == 1 and errors[0].startswith("gateway error: doc1: ")
        assert "1 documents failed on gateway errors" in captured.err
        assert "annotated 2/2 documents, yield 100.00%" in captured.out

    def _assert_doc1_fails_on_syntax(self, tmp_path, capsys, response):
        """Replaying ``response`` for both attempts at doc1 of two documents
        costs doc1 alone, on two syntax errors."""
        corpus = _write_generate_fixture(tmp_path, n_good=2)
        prompt = build_zero_shot_prompt(_corpus_doc(1)["text"])
        for temperature in (0.0, 0.2):
            _seed(tmp_path, prompt, temperature, response)
        out_dir = tmp_path / "out"
        config = _write_config(tmp_path)
        code = main(["generate", "--corpus", str(corpus), "--out-dir", str(out_dir), "--config", str(config)])
        assert code == 0
        assert [r.doc_id for r in load_records(out_dir / "annotations.jsonl")] == ["doc0"]
        failures = [json.loads(line) for line in (out_dir / "failures.jsonl").read_text().splitlines()]
        assert [f["doc_id"] for f in failures] == ["doc1"]
        assert [[e["kind"] for e in a["errors"]] for a in failures[0]["attempts"]] == [["syntax_error"]] * 2
        assert "annotated 1/2 documents, yield 50.00%" in capsys.readouterr().out

    def test_deeply_nested_response_is_a_syntax_error(self, tmp_path, capsys):
        self._assert_doc1_fails_on_syntax(
            tmp_path, capsys, '{"text_with_spans": ' + "[" * 100_000 + "]" * 100_000 + "}"
        )

    def test_integer_over_the_digit_limit_is_a_syntax_error(self, tmp_path, capsys):
        self._assert_doc1_fails_on_syntax(tmp_path, capsys, '{"text_with_spans": ' + "7" * 5000 + "}")

    @pytest.mark.parametrize("broken", sorted(BROKEN_REPLIES))
    def test_broken_response_costs_one_document(self, tmp_path, capsys, monkeypatch, raw_server, broken):
        monkeypatch.setattr("synthex.gateway.BACKOFF", 0.0)
        docs = [_corpus_doc(0), _corpus_doc(1)]
        corpus = tmp_path / "corpus.jsonl"
        dump_jsonl(docs, corpus)

        def reply(body):
            prompt = body["messages"][0]["content"]
            return BROKEN_REPLIES[broken] if "Document1" in prompt else chat_ok(good_annotation_response(docs[0]["text"]))

        RawReplyHandler.reply = reply
        config = _write_config(tmp_path, gateway_mode="record", chat_base_url=raw_server)
        out_dir = tmp_path / "out"
        code = main(["generate", "--corpus", str(corpus), "--out-dir", str(out_dir), "--config", str(config)])
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith("gateway error: doc1: ")
        assert err.endswith("\n1 documents failed on gateway errors\n")
        assert [r.doc_id for r in load_records(out_dir / "annotations.jsonl")] == ["doc0"]

    def test_interrupted_record_run_resumes_from_its_cache(self, tmp_path, monkeypatch, stub_server):
        docs = [_corpus_doc(i) for i in range(4)]
        corpus = tmp_path / "corpus.jsonl"
        dump_jsonl(docs, corpus)
        # doc0 and doc2 pass at once, doc1 on the rerun, doc3 on neither: six fetches.
        for i, doc in enumerate(docs):
            prompt, good = build_zero_shot_prompt(doc["text"]), good_annotation_response(doc["text"])
            ChatStubHandler.replies[(prompt, 0.0)] = "no json here" if i % 2 else good
            ChatStubHandler.replies[(prompt, 0.2)] = good if i == 1 else "still no json"

        def generate(name):
            run = tmp_path / name
            run.mkdir(exist_ok=True)
            config = _write_config(run, gateway_mode="record", chat_base_url=stub_server, cache_dir=str(run / "cache"))
            args = ["generate", "--corpus", str(corpus), "--out-dir", str(run / "out"), "--parallelism", "1"]
            return main([*args, "--config", str(config)])

        assert generate("whole") == 0
        whole = request_prompts()
        assert len(whole) == 6
        fetch, fetched = ChatGateway._call_endpoint, []

        def stop_after_three_fetches(self, prompt, params):
            if len(fetched) == 3:
                raise KeyboardInterrupt
            fetched.append(prompt)
            return fetch(self, prompt, params)

        monkeypatch.setattr(ChatGateway, "_call_endpoint", stop_after_three_fetches)
        with pytest.raises(KeyboardInterrupt):
            generate("resumed")
        assert fetched == whole[:3]
        assert not (tmp_path / "resumed" / "out" / "annotations.jsonl").exists()
        monkeypatch.setattr(ChatGateway, "_call_endpoint", fetch)
        assert generate("resumed") == 0
        assert request_prompts()[9:] == whole[3:]  # the second run fetches only the rest
        for name in ("annotations.jsonl", "failures.jsonl", "length_stats.csv"):
            assert (tmp_path / "resumed/out" / name).read_bytes() == (tmp_path / "whole/out" / name).read_bytes()
        caches = [{p.name: p.read_bytes() for p in (tmp_path / run).iterdir()} for run in ("whole/cache", "resumed/cache")]
        assert caches[0] == caches[1] and len(caches[0]) == 6

    def test_manifest_ignores_deployment_settings(self, tmp_path):
        corpus = _write_generate_fixture(tmp_path, n_good=2)
        shutil.copytree(tmp_path / "cache", tmp_path / "other-cache")
        out_dir = tmp_path / "out"
        args = ["generate", "--corpus", str(corpus), "--out-dir", str(out_dir), "--config"]
        assert main(args + [str(_write_config(tmp_path))]) == 0
        first = (out_dir / "generate.manifest.json").read_bytes()
        other = _write_config(
            tmp_path,
            chat_base_url="http://127.0.0.1:1/v1",
            embed_base_url="http://127.0.0.1:2/v1",
            cache_dir=str(tmp_path / "other-cache"),
            parallelism=3,
        )
        assert main(args + [str(other)]) == 0
        assert (out_dir / "generate.manifest.json").read_bytes() == first


class TestPostprocessCommand:
    def test_kept_and_drop_log(self, tmp_path, capsys, uni_vienna_record):
        annotations = tmp_path / "annotations.jsonl"
        save_records([uni_vienna_record], annotations)
        gateway = ChatGateway(cache_dir=tmp_path / "cache", mode="replay")
        for triple in uni_vienna_record.triples:
            prompt = build_triple_verification_prompt(triple, list(uni_vienna_record.entities))
            letter = "B" if triple.predicate == "home_of" else "A"
            gateway.store(prompt, params_for(MODEL, 0.0), f"\\boxed{{{letter}}}")
        config = _write_config(tmp_path)
        out_dir = tmp_path / "post"
        code = main(
            ["postprocess", "--annotations", str(annotations), "--out-dir", str(out_dir), "--config", str(config)]
        )
        assert code == 0
        assert "kept 1/1" in capsys.readouterr().out
        kept = load_records(out_dir / "kept.jsonl")
        assert [t.predicate for t in kept[0].triples] == ["located_in", "located_in", "founded_by"]
        drops = [json.loads(l) for l in (out_dir / "drops.jsonl").read_text().splitlines()]
        assert drops[0]["stage"] == "triple_verify"
        assert drops[0]["reason"]["predicates"] == ["home_of"]

    def test_gateway_error_reported_on_stderr(self, tmp_path, capsys, uni_vienna_record):
        annotations = tmp_path / "annotations.jsonl"
        # Both documents ask the same verdict prompts; the last one is never cached.
        save_records([uni_vienna_record, replace(uni_vienna_record, doc_id="copy")], annotations)
        gateway = ChatGateway(cache_dir=tmp_path / "cache", mode="replay")
        for triple in uni_vienna_record.triples[:-1]:
            prompt = build_triple_verification_prompt(triple, list(uni_vienna_record.entities))
            gateway.store(prompt, params_for(MODEL, 0.0), "\\boxed{A}")
        out_dir = tmp_path / "post"
        code = main(
            ["postprocess", "--annotations", str(annotations), "--out-dir", str(out_dir),
             "--config", str(_write_config(tmp_path))]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "kept 0/2 documents (2 dropped, 2 log entries)" in captured.out
        errors = captured.err.splitlines()
        assert [line.split(": no cached response")[0] for line in errors[:2]] == [
            "gateway error: uni-vienna", "gateway error: copy",
        ]
        assert errors[2:] == ["2 documents failed on gateway errors"]


class TestStatsCommand:
    def test_sample_single_record_dataset(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        dump_jsonl([UNI_VIENNA_DICT], dataset)
        assert main(["stats", "--dataset", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "documents: 1" in out
        assert "entities: 6 across 5 entity types" in out
        assert "triples: 4 across 3 relation types" in out

    def test_empty_dataset_zeros(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("", encoding="utf-8")
        assert main(["stats", "--dataset", str(dataset)]) == 0
        assert "documents: 0" in capsys.readouterr().out

    def test_frequencies_sum_across_documents(self, tmp_path):
        dataset = tmp_path / "dataset.jsonl"
        dump_jsonl([UNI_VIENNA_DICT, UNI_VIENNA_DICT], dataset)
        records = load_records(dataset)
        stats = compute_dataset_stats(records, top_k=30)
        assert stats.documents == 2
        assert dict(stats.top_entity_types)["Person"] == 4
        assert dict(stats.top_relation_types)["located_in"] == 4

    def test_top_k_limits_table(self):
        records = [record_from_dict(json.loads(json.dumps(UNI_VIENNA_DICT)), "0")]
        stats = compute_dataset_stats(records, top_k=2)
        assert len(stats.top_entity_types) == 2

    def test_yield_from_failure_sidecar(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        dump_jsonl([UNI_VIENNA_DICT], dataset)
        failures = tmp_path / "failures.jsonl"
        dump_jsonl([{"doc_id": "x"}, {"doc_id": "y"}, {"doc_id": "z"}], failures)
        output = tmp_path / "stats.json"
        code = main(
            ["stats", "--dataset", str(dataset), "--failures", str(failures), "--output", str(output)]
        )
        assert code == 0
        assert "yield: 25.00%" in capsys.readouterr().out
        assert json.loads(output.read_text())["yield_percent"] == 25.0


SCHEMA = Schema.from_lists(["Person", "Organization"], ["founded_by"])

QUERY_TEXT = (
    "Mara Voss founded the Delta Observatory long ago.\n\n"
    "The Delta Observatory still operates today under her name."
)

QUERY_ANNOTATED = (
    '<ent id="0" type="Person">Mara Voss</ent> founded the '
    '<ent id="1" type="Organization">Delta Observatory</ent> long ago.\n\n'
    'The <ent id="1" type="Organization">Delta Observatory</ent> still operates today under her name.'
)

QUERY_ENTITIES = [
    {"id": 0, "name": "Mara Voss", "type": "Person"},
    {"id": 1, "name": "Delta Observatory", "type": "Organization"},
]

QUERY_RELATIONS = [
    {
        "description": "The Delta Observatory was founded by Mara Voss.",
        "triple_string": "(Delta Observatory, founded_by, Mara Voss)",
        "subject": 1,
        "predicate": "founded_by",
        "object": 0,
    }
]


# A second query sharing words with the demonstration; no test seeds its calls.
UNSEEDED_QUERY = {"id": "q2", "text": "Mara Voss visited the University of Vienna."}


def _setup_infer_fixture(tmp_path, uni_vienna_record, extra_documents=()):
    from synthex.core import save_records

    kept = tmp_path / "kept.jsonl"
    save_records([uni_vienna_record], kept)
    index_path = tmp_path / "index.json"
    assert main(["index", "--dataset", str(kept), "--output", str(index_path)]) == 0

    task = {
        "schema": {
            "entity_types": list(SCHEMA.entity_types),
            "relation_types": list(SCHEMA.relation_types),
        },
        "documents": [{"id": "q1", "text": QUERY_TEXT}, *extra_documents],
    }
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task), encoding="utf-8")

    # Call 1 replies with garbage so call 2 runs from an empty partial, which
    # keeps the expected prompt easy to compute here.
    fragment = "Mara Voss founded the Delta Observatory long ago."
    prompt1 = build_inference_prompt(uni_vienna_record, None, fragment, SCHEMA)
    _seed(tmp_path, prompt1, 0.0, "cannot help with that")
    prompt2 = build_inference_prompt(uni_vienna_record, None, QUERY_TEXT, SCHEMA)
    _seed(
        tmp_path,
        prompt2,
        0.0,
        completed_inference_json(QUERY_TEXT, QUERY_ANNOTATED, QUERY_ENTITIES, QUERY_RELATIONS, SCHEMA),
    )
    return task_path, index_path


def _write_three_demo_task(tmp_path) -> tuple[list[str], list[str]]:
    """Three demonstrations, a task of two queries and a seeded cache; returns
    the arguments of ``main`` for the ``index`` and then the ``infer`` run.
    q1 shares most words with d2; q2 shares none with any demonstration, so it
    scores 0.0 everywhere and takes the lowest eligible doc id, d1, since d0
    is excluded."""
    demos = [
        trivial_record("d2", "Alpha beta gamma delta."),
        trivial_record("d0", "Gamma delta epsilon."),
        trivial_record("d1", "Beta beta alpha."),
    ]
    kept = tmp_path / "kept.jsonl"
    save_records(demos, kept)
    exclusions = tmp_path / "exclusions.txt"
    exclusions.write_text("d0\n", encoding="utf-8")
    documents = [
        ("q1", "Gamma delta alpha.\n\nOmega.", demos[0]),
        ("q2", "Zeta eta theta.\n\nIota kappa.", demos[2]),
    ]
    for _, text, demo in documents:
        word = text.split()[0]
        _seed(tmp_path, build_inference_prompt(demo, None, text.split("\n")[0], SCHEMA), 0.0, "no reply")
        _seed(tmp_path, build_inference_prompt(demo, None, text, SCHEMA), 0.0, completed_inference_json(
            text, text.replace(word, f'<ent id="0" type="Person">{word}</ent>', 1),
            [{"id": 0, "name": word, "type": "Person"}], [], SCHEMA,
        ))
    task = {
        "schema": {"entity_types": list(SCHEMA.entity_types), "relation_types": list(SCHEMA.relation_types)},
        "documents": [{"id": doc_id, "text": text} for doc_id, text, _ in documents],
    }
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task), encoding="utf-8")
    index_path = tmp_path / "index.json"
    return ["index", "--dataset", str(kept), "--output", str(index_path)], [
        "infer", "--task", str(task_path), "--index", str(index_path),
        "--output", str(tmp_path / "predictions.jsonl"),
        "--exclusions", str(exclusions), "--config", str(_write_config(tmp_path)),
    ]


class TestIndexInferEval:
    def test_pipeline_round(self, tmp_path, capsys, uni_vienna_record):
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record)
        config = _write_config(tmp_path)
        predictions_path = tmp_path / "predictions.jsonl"
        code = main(
            [
                "infer",
                "--task", str(task_path),
                "--index", str(index_path),
                "--output", str(predictions_path),
                "--config", str(config),
            ]
        )
        assert code == 0
        assert "1 valid outputs" in capsys.readouterr().out
        first_bytes = predictions_path.read_bytes()
        prediction = json.loads(first_bytes)
        assert prediction["valid"] is True
        assert [e["name"] for e in prediction["entities"]] == ["Mara Voss", "Delta Observatory"]

        # Replay determinism: rerunning produces byte-identical predictions.
        code = main(
            [
                "infer",
                "--task", str(task_path),
                "--index", str(index_path),
                "--output", str(predictions_path),
                "--config", str(config),
            ]
        )
        assert code == 0
        assert predictions_path.read_bytes() == first_bytes

        gold_path = tmp_path / "gold.jsonl"
        gold = {
            "doc_id": "q1",
            "text": QUERY_TEXT,
            "annotated_text": QUERY_ANNOTATED,
            "entities": QUERY_ENTITIES,
            "relations": QUERY_RELATIONS,
        }
        dump_jsonl([gold], gold_path)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--predictions", str(predictions_path),
                "--gold", str(gold_path),
                "--output", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mode: all_docs" in out
        assert "mode: valid_only" in out
        report = json.loads(report_path.read_text())
        assert report["all_docs"]["tasks"]["entity_ident"]["f1"] == 100.0
        assert report["all_docs"]["tasks"]["re_strict"]["f1"] == 100.0
        assert report["all_docs"]["valid_rate"] == 100.0

    def test_infer_with_everything_excluded(self, tmp_path, capsys, monkeypatch, uni_vienna_record):
        """The first retrieval refuses the run before its query is embedded:
        no model request, no predictions and no manifest."""
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record)
        exclusions = tmp_path / "exclusions.txt"
        exclusions.write_text("uni-vienna\nnot-in-the-index\n", encoding="utf-8")
        requests = []
        monkeypatch.setattr(ChatGateway, "complete", lambda self, *args: requests.append(args))
        output = tmp_path / "out" / "p.jsonl"
        capsys.readouterr()
        code = main(
            [
                "infer",
                "--task", str(task_path),
                "--index", str(index_path),
                "--output", str(output),
                "--exclusions", str(exclusions),
                "--config", str(_write_config(tmp_path, gateway_mode="record")),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: no index entries remain after exclusions\n"
        assert requests == []
        assert not output.parent.exists()

    def test_provider_infer_with_everything_excluded(self, tmp_path, capsys, monkeypatch, uni_vienna_record):
        """Provider mode refuses the same run on a pool of workers, before any
        embeddings request."""
        requests = []
        monkeypatch.setattr(
            "synthex.demostore.post_json",
            lambda url, body, **_: requests.append(body) or json.dumps({"data": [{"embedding": [1.0, 0.5]}]}).encode(),
        )
        task_path, _ = _setup_infer_fixture(tmp_path, uni_vienna_record, [UNSEEDED_QUERY])
        index_path = tmp_path / "provider-index.json"
        build_index([uni_vienna_record], mode="provider", embedder=ProviderEmbedder("", "emb")).save(index_path)
        requests.clear()
        exclusions = tmp_path / "exclusions.txt"
        exclusions.write_text("uni-vienna\n", encoding="utf-8")
        output = tmp_path / "out" / "p.jsonl"
        capsys.readouterr()
        code = main(
            [
                "infer",
                "--task", str(task_path),
                "--index", str(index_path),
                "--output", str(output),
                "--exclusions", str(exclusions),
                "--parallelism", "2",
                "--config", str(_write_config(tmp_path, gateway_mode="record")),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: no index entries remain after exclusions\n"
        assert requests == []
        assert not output.parent.exists()

    def _infer(self, tmp_path, task_path, index_path, config):
        predictions_path = tmp_path / "predictions.jsonl"
        code = main(
            [
                "infer",
                "--task", str(task_path),
                "--index", str(index_path),
                "--output", str(predictions_path),
                "--config", str(config),
            ]
        )
        return code, predictions_path

    def test_infer_contains_cache_miss(self, tmp_path, capsys, uni_vienna_record):
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record, [UNSEEDED_QUERY])
        code, predictions_path = self._infer(tmp_path, task_path, index_path, _write_config(tmp_path))
        assert code == 0
        predictions = [json.loads(line) for line in predictions_path.read_text().splitlines()]
        assert [(p["doc_id"], p["valid"]) for p in predictions] == [("q1", True)]
        captured = capsys.readouterr()
        assert "inferred 1 documents, 1 valid outputs" in captured.out
        errors = captured.err.splitlines()
        assert len(errors) == 2
        assert errors[0].startswith("gateway error: q2: ")
        assert errors[1] == "1 documents failed on gateway errors"

    def test_infer_contains_failed_query_embedding(self, tmp_path, capsys, monkeypatch, uni_vienna_record):
        def embed(self, text):
            if "visited" in text:
                raise ProviderError("embeddings endpoint failed: 503")
            return [1.0, 0.5]

        monkeypatch.setattr(ProviderEmbedder, "embed", embed)
        task_path, _ = _setup_infer_fixture(tmp_path, uni_vienna_record, [UNSEEDED_QUERY])
        index_path = tmp_path / "provider-index.json"
        build_index([uni_vienna_record], mode="provider", embedder=ProviderEmbedder("", "emb")).save(index_path)
        config = _write_config(tmp_path, embedding_mode="provider")
        code, predictions_path = self._infer(tmp_path, task_path, index_path, config)
        assert code == 0
        predictions = [json.loads(line) for line in predictions_path.read_text().splitlines()]
        assert [(p["doc_id"], p["valid"]) for p in predictions] == [("q1", True)]
        errors = capsys.readouterr().err.splitlines()
        assert errors == ["gateway error: q2: embeddings endpoint failed: 503", "1 documents failed on gateway errors"]

    def test_infer_contains_query_vector_that_cannot_be_scored(self, tmp_path, capsys, monkeypatch, uni_vienna_record):
        def post_json(url, body, **_):
            vector = [1e-200, 1e-200] if "visited" in body["input"] else [1.0, 0.5]
            return json.dumps({"data": [{"embedding": vector}]}).encode()

        monkeypatch.setattr("synthex.demostore.post_json", post_json)
        task_path, _ = _setup_infer_fixture(tmp_path, uni_vienna_record, [UNSEEDED_QUERY])
        index_path = tmp_path / "provider-index.json"
        build_index([uni_vienna_record], mode="provider", embedder=ProviderEmbedder("", "emb")).save(index_path)
        code, predictions_path = self._infer(tmp_path, task_path, index_path, _write_config(tmp_path))
        assert code == 0
        predictions = [json.loads(line) for line in predictions_path.read_text().splitlines()]
        assert [(p["doc_id"], p["valid"]) for p in predictions] == [("q1", True)]
        errors = capsys.readouterr().err.splitlines()
        assert errors == [
            "gateway error: q2: embeddings endpoint failed: vector norm 0.0 is zero or not finite",
            "1 documents failed on gateway errors",
        ]

    def test_infer_embeds_queries_in_the_index_mode(self, tmp_path, capsys, monkeypatch, uni_vienna_record):
        queries = []
        monkeypatch.setattr(ProviderEmbedder, "embed", lambda self, text: queries.append(text) or [1.0, 0.5])
        task_path, _ = _setup_infer_fixture(tmp_path, uni_vienna_record)
        index_path = tmp_path / "provider-index.json"
        build_index([uni_vienna_record], mode="provider", embedder=ProviderEmbedder("", "emb")).save(index_path)
        code, predictions_path = self._infer(tmp_path, task_path, index_path, _write_config(tmp_path))
        assert code == 0
        assert len(queries) == 2  # the demonstration, then the query
        predictions = [json.loads(line) for line in predictions_path.read_text().splitlines()]
        assert [(p["doc_id"], p["valid"]) for p in predictions] == [("q1", True)]
        assert capsys.readouterr().err == ""

    def test_infer_contains_query_vector_of_another_length(self, tmp_path, capsys, monkeypatch, uni_vienna_record):
        monkeypatch.setattr(
            ProviderEmbedder, "embed", lambda self, text: [1.0, 0.5, 0.0] if "visited" in text else [1.0, 0.5]
        )
        task_path, _ = _setup_infer_fixture(tmp_path, uni_vienna_record, [UNSEEDED_QUERY])
        index_path = tmp_path / "provider-index.json"
        build_index([uni_vienna_record], mode="provider", embedder=ProviderEmbedder("", "emb")).save(index_path)
        code, predictions_path = self._infer(tmp_path, task_path, index_path, _write_config(tmp_path))
        assert code == 0
        predictions = [json.loads(line) for line in predictions_path.read_text().splitlines()]
        assert [(p["doc_id"], p["valid"]) for p in predictions] == [("q1", True)]
        errors = capsys.readouterr().err.splitlines()
        assert errors == [
            "gateway error: q2: query vector dimension 3 != index dimension 2",
            "1 documents failed on gateway errors",
        ]

    def test_infer_deeply_nested_responses_cost_one_prediction(self, tmp_path, capsys, uni_vienna_record):
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record)
        nested = '{"text_with_spans": ' + "[" * 100_000 + "]" * 100_000 + "}"
        fragment = "Mara Voss founded the Delta Observatory long ago."
        _seed(tmp_path, build_inference_prompt(uni_vienna_record, None, fragment, SCHEMA), 0.0, nested)
        _seed(tmp_path, build_inference_prompt(uni_vienna_record, None, QUERY_TEXT, SCHEMA), 0.0, nested)
        code, predictions_path = self._infer(tmp_path, task_path, index_path, _write_config(tmp_path))
        assert code == 0
        [prediction] = [json.loads(line) for line in predictions_path.read_text().splitlines()]
        assert prediction["doc_id"] == "q1" and not prediction["valid"]
        assert "inferred 1 documents, 0 valid outputs" in capsys.readouterr().out

    def test_infer_rejects_duplicate_document_ids(self, tmp_path, capsys, uni_vienna_record):
        duplicates = [{"id": "q1", "text": "Mara Voss visited."}, {"id": "q2", "text": "x"}, {"id": "q2", "text": "y"}]
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record, duplicates)
        # In record mode with no endpoint, a model call would fail its document, not the run.
        config = _write_config(tmp_path, gateway_mode="record")
        code, predictions_path = self._infer(tmp_path, task_path, index_path, config)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {task_path}: ValueError: duplicate document ids ['q1', 'q2'] in task file\n"
        assert not predictions_path.exists()

    def test_index_rejects_repeated_demonstration_ids(self, tmp_path, capsys):
        kept = tmp_path / "kept.jsonl"
        demos = [trivial_record("a", "Alpha beta."), trivial_record("b", "Beta."), trivial_record("a", "Gamma.")]
        save_records(demos, kept)
        index_path = tmp_path / "index.json"
        assert main(["index", "--dataset", str(kept), "--output", str(index_path)]) == 1
        assert capsys.readouterr() == ("", "error: duplicate demonstration ids ['a']\n")
        assert [p.name for p in tmp_path.iterdir()] == ["kept.jsonl"]

    def test_infer_rejects_an_index_file_with_repeated_demonstration_ids(self, tmp_path, capsys, uni_vienna_record):
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record)
        header, entry = index_path.read_text(encoding="utf-8").splitlines()
        index_path.write_text(f"{header}\n{entry}\n{entry}\n", encoding="utf-8")
        capsys.readouterr()
        code, predictions_path = self._infer(tmp_path, task_path, index_path, _write_config(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {index_path}: duplicate demonstration ids ['uni-vienna']\n"
        assert not predictions_path.exists()
        assert not (predictions_path.parent / "infer.manifest.json").exists()

    def test_infer_out_of_vocabulary_query_takes_lowest_eligible_demo(self, tmp_path, capsys):
        index, infer = _write_three_demo_task(tmp_path)
        assert main(index) == 0
        code = main(infer)
        assert code == 0, capsys.readouterr().err
        predictions = [json.loads(line) for line in (tmp_path / "predictions.jsonl").read_text().splitlines()]
        assert [(p["doc_id"], p["valid"], p["provenance"]["demo_doc_id"]) for p in predictions] == [
            ("q1", True, "d2"), ("q2", True, "d1"),
        ]

    def test_index_weighs_no_demonstration(self, tmp_path, capsys, monkeypatch):
        index, infer = _write_three_demo_task(tmp_path)
        index_path, predictions_path = tmp_path / "index.json", tmp_path / "predictions.jsonl"
        assert main(index) == 0
        assert main(infer) == 0
        expected = (capsys.readouterr().out, index_path.read_bytes(), predictions_path.read_bytes())
        index_path.unlink()
        predictions_path.unlink()

        def refuse(positions, counts):
            raise AssertionError("synthex index built the postings")

        monkeypatch.setattr("synthex.demostore._build_postings", refuse)
        assert main(index) == 0
        index_line = capsys.readouterr().out
        monkeypatch.undo()
        assert main(infer) == 0
        assert (index_line + capsys.readouterr().out, index_path.read_bytes(), predictions_path.read_bytes()) == expected

    def test_index_refuses_a_demonstration_with_no_token(self, tmp_path, capsys):
        kept = tmp_path / "kept.jsonl"
        blank = {"doc_id": "d1", "text": " \x85 ", "annotated_text": " \x85 ", "entities": [], "relations": []}
        dump_jsonl([{**UNI_VIENNA_DICT, "doc_id": "d0"}, blank], kept)
        index_path = tmp_path / "index.json"
        assert main(["index", "--dataset", str(kept), "--output", str(index_path)]) == 1
        assert capsys.readouterr().err == "error: cannot embed empty text\n"
        assert not index_path.exists()

    def test_eval_without_predictions(self, tmp_path, capsys):
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text("", encoding="utf-8")
        gold = tmp_path / "gold.jsonl"
        dump_jsonl([UNI_VIENNA_DICT], gold)
        code = main(["eval", "--predictions", str(predictions), "--gold", str(gold)])
        assert code == 1
        assert "no predictions" in capsys.readouterr().err

    def test_eval_duplicate_prediction_ids(self, tmp_path, capsys):
        pred = {"doc_id": "uni-vienna", "valid": False, "raw_responses": ["", ""]}
        predictions = tmp_path / "preds.jsonl"
        dump_jsonl([pred, {**pred, "doc_id": "other"}, pred], predictions)
        gold = tmp_path / "gold.jsonl"
        dump_jsonl([{**UNI_VIENNA_DICT, "doc_id": "uni-vienna"}], gold)
        code = main(["eval", "--predictions", str(predictions), "--gold", str(gold)])
        assert code == 1
        assert "duplicate prediction doc ids: ['uni-vienna']" in capsys.readouterr().err

    def test_eval_prediction_without_gold(self, tmp_path, capsys):
        pred = {"doc_id": "uni-vienna", "valid": False, "raw_responses": ["", ""]}
        predictions = tmp_path / "preds.jsonl"
        dump_jsonl([pred, {**pred, "doc_id": "other"}], predictions)
        gold = tmp_path / "gold.jsonl"
        dump_jsonl([{**UNI_VIENNA_DICT, "doc_id": "uni-vienna"}], gold)
        code = main(["eval", "--predictions", str(predictions), "--gold", str(gold)])
        assert code == 1
        assert "prediction doc ids with no gold document: ['other']" in capsys.readouterr().err

    def test_index_empty_dataset(self, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        code = main(["index", "--dataset", str(dataset), "--output", str(tmp_path / "i.json")])
        assert code == 1
        assert "cannot build an index over zero records" in capsys.readouterr().err


def _write_eval_fixture(tmp_path) -> tuple[Path, Path]:
    """Six gold documents and predictions for four valid ones: an exact copy,
    one that misses a mention, mistypes an entity and misses a triple, one
    with an extra entity and one that is empty. ``doc2``'s prediction is
    invalid and ``doc3``, whose gold has entities but no mentions, has none."""
    rng = random.Random(24)
    golds = [make_passing_record(rng, f"doc{i}") for i in range(6)]
    golds[3] = replace(golds[3], mentions=())
    predictions = [Prediction(g.doc_id, g.entities, g.mentions, g.triples, True, ("", "")) for g in golds]
    first = golds[1].entities[0]
    predictions[1] = replace(
        predictions[1],
        entities=(replace(first, type_label=first.type_label + "x"), *golds[1].entities[1:]),
        mentions=golds[1].mentions[1:],
        triples=golds[1].triples[1:],
    )
    predictions[2] = replace(predictions[2], entities=(), mentions=(), triples=(), valid=False)
    predictions[4] = replace(predictions[4], entities=(*golds[4].entities, Entity(99, "Nowhere Else", "Place")))
    predictions[5] = replace(predictions[5], entities=(), mentions=(), triples=())
    del predictions[3]
    gold_path, predictions_path = tmp_path / "gold.jsonl", tmp_path / "predictions.jsonl"
    save_records(golds, gold_path)
    dump_jsonl((prediction_to_dict(p) for p in predictions), predictions_path)
    return predictions_path, gold_path


EVAL_EXPECTED = Path(__file__).parent / "data"
SCORERS = ("eval_mentions", "eval_entity_ident", "eval_entity_class", "eval_relations")


class TestEvalScoresEachDocumentOnce:
    """``synthex eval`` scores each gold document once, whatever modes it
    reports, and prints and writes the bytes it did when it scored each mode
    in a pass of its own (the expected files come from that evaluator).
    ``valid_only`` alone scores every gold document too: its report sums the
    rows of valid predictions."""

    @pytest.mark.parametrize("mode, scored", [(None, 6), ("valid_only", 6)], ids=["both_modes", "valid_only"])
    def test_each_scorer_runs_once_per_scored_document(self, tmp_path, capsys, monkeypatch, mode, scored):
        evaluate_module = importlib.import_module("synthex.evaluate")
        calls = Counter()
        for name in SCORERS:
            def counted(*args, _name=name, _scorer=getattr(evaluate_module, name)):
                calls[_name] += 1
                return _scorer(*args)

            monkeypatch.setattr(evaluate_module, name, counted)
        predictions, gold = _write_eval_fixture(tmp_path)
        report = tmp_path / "report.json"
        argv = ["eval", "--predictions", str(predictions), "--gold", str(gold), "--output", str(report)]
        assert main(argv + (["--mode", mode] if mode else [])) == 0
        assert calls == dict.fromkeys(SCORERS, scored)
        name = mode or "both_modes"
        assert capsys.readouterr().out == (EVAL_EXPECTED / f"eval_{name}.stdout").read_text(encoding="utf-8")
        assert report.read_bytes() == (EVAL_EXPECTED / f"eval_{name}.report.json").read_bytes()


MODEL_CALL_FLAGS = {"--cache", "--replay", "--record", "--parallelism"}

EXPECTED_FLAGS = {
    "ingest": {"--input", "--output", "--config"},
    "generate": {"--corpus", "--out-dir", "--min-words", "--config", *MODEL_CALL_FLAGS},
    "postprocess": {"--annotations", "--out-dir", "--config", *MODEL_CALL_FLAGS},
    "stats": {"--dataset", "--failures", "--top-k", "--output", "--config"},
    "index": {"--dataset", "--output", "--embedding-mode", "--min-words", "--config"},
    "infer": {"--task", "--index", "--output", "--exclusions", "--config", *MODEL_CALL_FLAGS},
    "eval": {"--predictions", "--gold", "--mode", "--spans", "--output", "--config"},
}


class TestManifests:
    def test_each_artifact_command_writes_one_beside_its_first_output(self, tmp_path):
        """ingest -> generate -> postprocess -> stats -> index -> infer -> eval
        over a replay cache: the five commands that write artifacts leave one
        manifest each, listing every file the command read, stats and eval
        none, and a lost document is reported after the summary line."""
        corpus = _write_generate_fixture(tmp_path, n_good=2, n_fail=1)
        raw = tmp_path / "raw"
        raw.mkdir()
        # doc9 has no cached response, so it is lost to a gateway error; a
        # blank file is read and skipped, which shapes the corpus all the same.
        for doc in [*map(json.loads, corpus.read_text(encoding="utf-8").splitlines()), _corpus_doc(9)]:
            (raw / f"{doc['id']}.txt").write_text(doc["text"], encoding="utf-8")
        (raw / "blank.txt").write_text(" \n", encoding="utf-8")
        config = ["--config", str(_write_config(tmp_path))]
        ingested = tmp_path / "ingest" / "corpus.jsonl"
        assert main(["ingest", "--input", str(raw), "--output", str(ingested)]) == 0

        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            generate = ["generate", "--corpus", str(ingested), "--out-dir", str(tmp_path / "generate")]
            assert main(generate + config) == 0
        lines = printed.getvalue().splitlines()
        assert lines[0] == "annotated 2/3 documents, yield 66.67%"
        assert lines[1].startswith("gateway error: doc9: no cached response")
        assert lines[2:] == ["1 documents failed on gateway errors"]

        annotations = tmp_path / "generate" / "annotations.jsonl"
        post = ["postprocess", "--annotations", str(annotations), "--out-dir", str(tmp_path / "post")]
        assert main(post + config) == 0
        kept = tmp_path / "post" / "kept.jsonl"
        assert main(["stats", "--dataset", str(kept), "--output", str(tmp_path / "stats" / "stats.json")]) == 0
        index = tmp_path / "index" / "index.json"
        assert main(["index", "--dataset", str(kept), "--output", str(index)]) == 0

        demo = DemoIndex.load(index).retrieve(QUERY_TEXT)[0]
        _seed(tmp_path, build_inference_prompt(demo, None, QUERY_TEXT.split("\n")[0], SCHEMA), 0.0, "no reply")
        _seed(tmp_path, build_inference_prompt(demo, None, QUERY_TEXT, SCHEMA), 0.0,
              completed_inference_json(QUERY_TEXT, QUERY_ANNOTATED, QUERY_ENTITIES, QUERY_RELATIONS, SCHEMA))
        task = tmp_path / "task.json"
        task.write_text(json.dumps({
            "schema": {"entity_types": list(SCHEMA.entity_types), "relation_types": list(SCHEMA.relation_types)},
            "documents": [{"id": "q1", "text": QUERY_TEXT}],
        }), encoding="utf-8")
        exclusions = tmp_path / "exclusions.txt"
        exclusions.write_text("doc9\n", encoding="utf-8")
        predictions = tmp_path / "infer" / "predictions.jsonl"
        infer = ["infer", "--task", str(task), "--index", str(index), "--output", str(predictions)] + config
        assert main(infer + ["--exclusions", str(exclusions)]) == 0
        gold = tmp_path / "gold.jsonl"
        dump_jsonl([{"doc_id": "q1", "text": QUERY_TEXT, "annotated_text": QUERY_ANNOTATED,
                     "entities": QUERY_ENTITIES, "relations": QUERY_RELATIONS}], gold)
        report = tmp_path / "eval" / "report.json"
        assert main(["eval", "--predictions", str(predictions), "--gold", str(gold), "--output", str(report)]) == 0

        first_outputs = {
            "ingest": ingested, "generate": annotations, "postprocess": kept, "index": index, "infer": predictions,
        }
        inputs = {
            "ingest": sorted(raw.glob("*.txt")), "generate": [ingested], "postprocess": [annotations],
            "index": [kept], "infer": [task, index, exclusions],
        }
        assert len(inputs["ingest"]) == 5
        assert sorted(tmp_path.rglob("*.manifest.json")) == sorted(
            path.parent / f"{command}.manifest.json" for command, path in first_outputs.items()
        )
        for command, path in first_outputs.items():
            manifest = json.loads((path.parent / f"{command}.manifest.json").read_text(encoding="utf-8"))
            assert manifest["command"] == command
            assert str(path) in manifest["outputs"]
            assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs[command]}

        # Another exclusions file, same config: the manifest tells the runs apart.
        manifest_path = predictions.parent / "infer.manifest.json"
        first = json.loads(manifest_path.read_text(encoding="utf-8"))
        exclusions.write_text("doc8\n", encoding="utf-8")
        assert main(infer + ["--exclusions", str(exclusions)]) == 0
        second = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert second["config_hash"] == first["config_hash"]
        assert second["inputs"] != first["inputs"]
        assert second["inputs"][str(exclusions)] == hashlib.sha256(b"doc8\n").hexdigest()


class TestOutputDirectories:
    """Every output's directory is made when the output is written."""

    OUTPUTS = {"ingest": "corpus.jsonl", "index": "index.json", "infer": "p.jsonl", "stats": "s.json", "eval": "r.json"}

    def _argv(self, tmp_path, record, command, output: Path) -> list[str]:
        task, index = _setup_infer_fixture(tmp_path, record)
        kept = tmp_path / "kept.jsonl"
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "a.txt").write_text(record.text, encoding="utf-8")
        predictions = tmp_path / "predictions.jsonl"
        prediction = Prediction(record.doc_id, record.entities, record.mentions, record.triples, True, ("", ""))
        dump_jsonl([prediction_to_dict(prediction)], predictions)
        flags = {
            "ingest": ["--input", str(raw)],
            "index": ["--dataset", str(kept)],
            "infer": ["--task", str(task), "--index", str(index), "--config", str(_write_config(tmp_path))],
            "stats": ["--dataset", str(kept)],
            "eval": ["--predictions", str(predictions), "--gold", str(kept)],
        }[command]
        return [command, *flags, "--output", str(output)]

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_written_into_a_missing_nested_directory(self, tmp_path, uni_vienna_record, command):
        deeper = tmp_path / "new" / "deeper"
        assert main(self._argv(tmp_path, uni_vienna_record, command, deeper / self.OUTPUTS[command])) == 0
        manifest = [f"{command}.manifest.json"] if command in ("ingest", "index", "infer") else []
        assert sorted(p.name for p in deeper.iterdir()) == sorted([self.OUTPUTS[command], *manifest])

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_parent_that_is_a_file_is_an_error_naming_it(self, tmp_path, uni_vienna_record, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n", encoding="utf-8")
        assert main(self._argv(tmp_path, uni_vienna_record, command, blocker / self.OUTPUTS[command])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(blocker)) in err and ".tmp" not in err
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"
        assert list(tmp_path.rglob("*.tmp")) == []


class TestWorkerChoice:
    def test_record_run_uses_the_pool_and_matches_replay(self, tmp_path, stub_server):
        corpus = _write_generate_fixture(tmp_path, n_good=6, n_retry=1, n_fail=1)
        replay_dir, record_dir = tmp_path / "replay", tmp_path / "record"
        base = ["generate", "--corpus", str(corpus), "--parallelism", "4", "--config"]
        assert main(base + [str(_write_config(tmp_path)), "--out-dir", str(replay_dir)]) == 0

        entries = [json.loads(p.read_text(encoding="utf-8")) for p in (tmp_path / "cache").glob("*.json")]
        ChatStubHandler.replies = {(e["prompt"], e["temperature"]): e["response_text"] for e in entries}
        ChatStubHandler.delay = 0.05
        record_config = _write_config(
            tmp_path, gateway_mode="record", cache_dir=str(tmp_path / "record-cache"), chat_base_url=stub_server
        )
        assert main(base + [str(record_config), "--out-dir", str(record_dir)]) == 0
        for name in ("annotations.jsonl", "failures.jsonl", "length_stats.csv"):
            assert (record_dir / name).read_bytes() == (replay_dir / name).read_bytes()
        assert len(ChatStubHandler.requests) == len(entries) == 10
        assert ChatStubHandler.peak_in_flight > 1

    def test_replayed_stages_run_in_the_calling_thread(self, tmp_path, monkeypatch, uni_vienna_record):
        threads = []

        def recording_thread(method):
            def wrapper(*args, **kwargs):
                threads.append(threading.current_thread())
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Annotator, "annotate", recording_thread(Annotator.annotate))
        monkeypatch.setattr(InferencePipeline, "infer", recording_thread(InferencePipeline.infer))
        corpus = _write_generate_fixture(tmp_path, n_good=3, n_fail=1)
        # The second query has no cached exchange, so it fails contained.
        task_path, index_path = _setup_infer_fixture(
            tmp_path, uni_vienna_record, [{"id": "q2", "text": "An unseen query."}]
        )
        config = ["--parallelism", "4", "--config", str(_write_config(tmp_path))]
        generate = ["generate", "--corpus", str(corpus), "--out-dir", str(tmp_path / "out")]
        assert main(generate + config) == 0
        infer = ["infer", "--task", str(task_path), "--index", str(index_path), "--output", str(tmp_path / "p.jsonl")]
        assert main(infer + config) == 0
        assert len(threads) == 6
        assert set(threads) == {threading.main_thread()}


class TestFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {s for action in command._actions for s in action.option_strings} - {"-h", "--help"}
            for name, command in sub.choices.items()
        }
        assert flags == EXPECTED_FLAGS
        assert sum(len(names) for names in flags.values()) == 43

    def test_flag_of_another_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--predictions", "p", "--gold", "g", "--parallelism", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallelism 2" in capsys.readouterr().err


class TestDeeplyNestedLocalFiles:
    """A local JSON file nested too deep for the decoder is an error line
    naming the file and exit 1, never a traceback."""

    @pytest.mark.parametrize("kind", ["config", "task", "index", "jsonl"])
    def test_reported_as_an_error(self, tmp_path, capsys, uni_vienna_record, kind):
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        config = _write_config(tmp_path)
        output = tmp_path / "preds.jsonl"
        argv = {
            "config": ["stats", "--dataset", str(tmp_path / "kept.jsonl"), "--config", str(deep)],
            "task": ["infer", "--task", str(deep), "--index", str(index_path), "--output", str(output),
                     "--config", str(config)],
            "index": ["infer", "--task", str(task_path), "--index", str(deep), "--output", str(output),
                      "--config", str(config)],
            "jsonl": ["stats", "--dataset", str(deep), "--config", str(config)],
        }[kind]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep}: ") and "RecursionError: maximum recursion depth exceeded" in err
        assert not output.exists()


RECORD_LINE = json.dumps(UNI_VIENNA_DICT)
TASK_SCHEMA = {"entity_types": ["Person"], "relation_types": ["member_of"]}


class TestMalformedLocalInputs:
    """A local input of the wrong shape is an error line and exit 1, never a traceback."""

    @pytest.mark.parametrize("command, content, message", [
        ("ingest", '{"id": "a", "text": "Alpha."}\n"text"\n', "line 2 is not a JSON object"),
        ("stats", f"{RECORD_LINE}\n[1, 2]\n", "line 2 is not a JSON object"),
        ("stats --top-k -1", RECORD_LINE, "top_k must be >= 1"),
        ("index", f"{RECORD_LINE}\n[1, 2]\n", "line 2 is not a JSON object"),
        ("postprocess", f"{RECORD_LINE}\n[1, 2]\n", "line 2 is not a JSON object"),
        ("eval", "[1, 2]\n", "line 1 is not a JSON object"),
        ("infer", "[]", "bad.jsonl is not a JSON object"),
        ("infer", json.dumps({"schema": {"entity_types": "Person"}, "documents": []}), "schema holds entity_types"),
        ("infer", json.dumps({"schema": TASK_SCHEMA, "documents": ["Alpha."]}), "documents are a list of objects"),
        ("infer", json.dumps({"schema": TASK_SCHEMA, "documents": []}),
         "documents are a list of objects, at least one"),
        ("ingest", '{"id": "a", "text": 5}\n', "line 1: ValueError: document 'a': text and title must be strings"),
        ("infer", json.dumps({"schema": TASK_SCHEMA, "documents": [{"id": "q", "text": 5}]}),
         "document 'q': text and title must be strings"),
        ("infer", json.dumps({"schema": {**TASK_SCHEMA, "entity_types": [1]}, "documents": [{"id": "q", "text": "A."}]}),
         "schema entity_types must be strings, got 1"),
        ("infer", json.dumps({"schema": {**TASK_SCHEMA, "entity_types": []}, "documents": [{"id": "q", "text": "A."}]}),
         "schema must list at least one entity type"),
        ("stats", json.dumps({**UNI_VIENNA_DICT, "entities": 5}), "bad.jsonl: line 1: TypeError"),
        ("eval", f"\n{json.dumps({'doc_id': 'd', 'valid': True, 'entities': 5})}\n", "bad.jsonl: line 2: TypeError"),
        ("stats", json.dumps({"doc_id": "d", "text": "x", "annotated_text": '<ent id="0">x'}),
         "bad.jsonl: line 1: MalformedAttributesError: ent tag at offset 0 has no type attribute"),
        ("index", json.dumps({**UNI_VIENNA_DICT, "text": 5}),
         "bad.jsonl: line 1: TypeError: text and annotated_text must be strings"),
        ("stats", json.dumps({**UNI_VIENNA_DICT, "entities": [{"id": float("inf"), "name": "a", "type": "T"}]}),
         "bad.jsonl: line 1: TypeError: an entity is an integer id"),
        ("stats", json.dumps({**UNI_VIENNA_DICT, "entity_types": "Person"}),
         "bad.jsonl: line 1: TypeError: entity_types and relation_types are lists of strings, not 'Person'"),
        ("ingest", '{"id": null, "text": "Alpha."}\n',
         "line 1: TypeError: a document id is a string or an integer, not None"),
    ], ids=["ingest", "stats", "stats-top-k", "index", "postprocess", "eval", "infer-list", "infer-schema",
            "infer-documents", "infer-no-documents", "ingest-text-type", "infer-text-type", "infer-schema-type",
            "infer-empty-schema", "stats-entities-type", "eval-entities-type", "stats-bad-markup", "index-text-type",
            "stats-id-out-of-range", "stats-types-string", "ingest-id-null"])
    def test_reported_as_an_error(self, tmp_path, capsys, command, content, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content, encoding="utf-8")
        gold = tmp_path / "gold.jsonl"
        gold.write_text(RECORD_LINE, encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "ingest": ["ingest", "--input", str(bad), "--output", str(out)],
            "stats": ["stats", "--dataset", str(bad)],
            "stats --top-k -1": ["stats", "--dataset", str(bad), "--top-k", "-1"],
            "index": ["index", "--dataset", str(bad), "--output", str(out)],
            "postprocess": ["postprocess", "--annotations", str(bad), "--out-dir", str(out)],
            "eval": ["eval", "--predictions", str(bad), "--gold", str(gold)],
            "infer": ["infer", "--task", str(bad), "--index", str(out), "--output", str(out)],
        }[command]
        assert main([*argv, "--config", str(_write_config(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, bad, message", [
        (lambda pred, gold: gold["entities"][0].update(name=5), "gold", "TypeError: an entity is an integer id"),
        (lambda pred, gold: gold["entities"][0].update(id=True), "gold", "TypeError: an entity is an integer id"),
        (lambda pred, gold: gold.update(doc_id=1.5), "gold", "TypeError: a document id is a string or an integer"),
        (lambda pred, gold: pred["entities"][0].update(id=1.7), "predictions", "TypeError: an entity is"),
        (lambda pred, gold: pred["mentions"][0].update(surface=5), "predictions", "TypeError: a mention is"),
        (lambda pred, gold: pred["mentions"][0].update(start=False), "predictions", "TypeError: a mention is"),
        (lambda pred, gold: pred["triples"][0].update(predicate=["x"]), "predictions", "TypeError: a triple is"),
        (lambda pred, gold: pred.update(valid="false"), "predictions", "TypeError: valid is true or false"),
        (lambda pred, gold: pred.update(raw_responses="ab"), "predictions", "TypeError: raw_responses is a list"),
        (lambda pred, gold: pred.update(raw_responses=["a"]), "predictions", "TypeError: raw_responses is a list"),
        (lambda pred, gold: pred.update(doc_id=None), "predictions", "TypeError: a document id is"),
        (lambda pred, gold: pred.update(entities=""), "predictions", "TypeError: entities is a list, not ''"),
        (lambda pred, gold: pred.update(provenance=[1]), "predictions", "TypeError: provenance is a dict, not [1]"),
        (lambda pred, gold: gold.update(mentions={}), "gold", "TypeError: mentions is a list, not {}"),
    ], ids=["gold-name", "gold-id-bool", "gold-doc-id-float", "pred-id-float", "pred-surface", "pred-start-bool",
            "pred-predicate", "pred-valid-string", "pred-responses-string", "pred-one-response", "pred-doc-id-null",
            "pred-entities-string", "pred-provenance-list", "gold-mentions-object"])
    def test_eval_refuses_a_field_of_the_wrong_type(self, tmp_path, capsys, uni_vienna_record, edit, bad, message):
        record = uni_vienna_record
        gold = {**record_to_dict(record), "doc_id": "d"}
        pred = prediction_to_dict(Prediction("d", record.entities, record.mentions, record.triples, True, ("", "")))
        paths = {"predictions": tmp_path / "preds.jsonl", "gold": tmp_path / "gold.jsonl"}
        argv = ["eval", "--predictions", str(paths["predictions"]), "--gold", str(paths["gold"])]
        dump_jsonl([pred], paths["predictions"])
        dump_jsonl([gold], paths["gold"])
        assert main(argv) == 0
        edit(pred, gold)
        dump_jsonl([pred], paths["predictions"])
        dump_jsonl([gold], paths["gold"])
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {paths[bad]}: line 1: {message}")

    @pytest.mark.parametrize("kind, content, message", [
        ("records", b'{"id": "a", "text": "x"', "line 1: JSONDecodeError: Expecting ',' delimiter"),
        ("index", b'{"version": 3, "mode": ', "line 1: JSONDecodeError: Expecting value"),
        ("config", b'{"model_name": ', "JSONDecodeError: Expecting value"),
        ("task", json.dumps({"schema": TASK_SCHEMA, "documents": [{"id": "q"}]}).encode(), "KeyError: 'text'"),
        ("records", RECORD_LINE.encode() + b"\n\xff\n", "line 2: UnicodeDecodeError: 'utf-8' codec can't decode"),
        ("index", lambda index: index.replace(b"Vienna", b"Vi\xffnna", 1),
         "line 2: UnicodeDecodeError: 'utf-8' codec can't decode"),
        ("config", b'{"model_name": "m\xff"}', "UnicodeDecodeError: 'utf-8' codec can't decode"),
        ("task", b'{"schema": "\xff"}', "UnicodeDecodeError: 'utf-8' codec can't decode"),
    ], ids=["records-truncated", "index-truncated", "config-truncated", "task-no-text",
            "records-not-utf8", "index-not-utf8", "config-not-utf8", "task-not-utf8"])
    def test_error_names_the_file(self, tmp_path, capsys, uni_vienna_record, kind, content, message):
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record)
        bad = tmp_path / "bad.json"
        bad.write_bytes(content(index_path.read_bytes()) if callable(content) else content)
        config, output = _write_config(tmp_path), tmp_path / "preds.jsonl"
        argv = {
            "records": ["stats", "--dataset", str(bad), "--config", str(config)],
            "config": ["stats", "--dataset", str(tmp_path / "kept.jsonl"), "--config", str(bad)],
            "task": ["infer", "--task", str(bad), "--index", str(index_path), "--output", str(output),
                     "--config", str(config)],
            "index": ["infer", "--task", str(task_path), "--index", str(bad), "--output", str(output),
                      "--config", str(config)],
        }[kind]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
        assert not output.exists()


    @pytest.mark.parametrize("kind", ["ingest", "exclusions"])
    def test_text_file_not_utf8_names_the_file(self, tmp_path, capsys, uni_vienna_record, kind):
        task_path, index_path = _setup_infer_fixture(tmp_path, uni_vienna_record)
        raw = tmp_path / "raw"
        raw.mkdir()
        bad = raw / "bad.txt"
        bad.write_bytes(b"Alpha \xff beta.\n")
        output = tmp_path / "out.jsonl"
        argv = {
            "ingest": ["ingest", "--input", str(raw), "--output", str(output)],
            "exclusions": ["infer", "--task", str(task_path), "--index", str(index_path), "--output", str(output),
                           "--exclusions", str(bad), "--config", str(_write_config(tmp_path))],
        }[kind]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: UnicodeDecodeError: 'utf-8' codec can't decode")
        assert not output.exists()


HEADER_LINE = json.dumps({"version": 3, "mode": "fallback", "min_words": 100})


CHARS_RANGE = f"truncated_chars must be in 1..{len(UNI_VIENNA_DICT['text'])}"


class TestMalformedIndexFiles:
    """An index file whose header line is not an object, that holds no entry
    line, or that holds an entry or header field of the wrong shape is
    refused, naming the file and line, before any model call; one whose
    entries the index refuses together is refused naming the file."""

    @pytest.mark.parametrize("content, message", [
        ("[]\n", "line 1 is not a JSON object"),
        (f"{HEADER_LINE}\n", "an index file holds a header line and at least one entry"),
        (f"{HEADER_LINE}\n{json.dumps({'entries': {}})}\n", "line 2: KeyError: 'record'"),
        (f"{HEADER_LINE}\n\n\n", "an index file holds a header line and at least one entry"),
    ], ids=["list", "no-entries", "entries-object", "entries-empty"])
    def test_reported_as_an_error(self, tmp_path, capsys, uni_vienna_record, content, message):
        task_path, _ = _setup_infer_fixture(tmp_path, uni_vienna_record)
        index_path = tmp_path / "bad-index.json"
        index_path.write_text(content, encoding="utf-8")
        output = tmp_path / "preds.jsonl"
        argv = ["infer", "--task", str(task_path), "--index", str(index_path), "--output", str(output)]
        capsys.readouterr()
        assert main([*argv, "--config", str(_write_config(tmp_path))]) == 1
        assert capsys.readouterr().err == f"error: {index_path}: {message}\n"
        assert not output.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda header, entry: [header, 5], "line 2 is not a JSON object"),
        (lambda header, entry: entry["record"].update(text=5),
         "line 2: TypeError: text and annotated_text must be strings"),
        (lambda header, entry: entry.update(truncated_chars="40"), "line 2: TypeError: truncated_chars"),
        (lambda header, entry: entry.update(truncated_chars=-3), f"line 2: ValueError: {CHARS_RANGE}, not -3"),
        (lambda header, entry: entry.update(truncated_chars=0), f"line 2: ValueError: {CHARS_RANGE}, not 0"),
        (lambda header, entry: entry.update(truncated_chars=len(entry["record"]["text"]) + 1),
         f"line 2: ValueError: {CHARS_RANGE}, not {len(UNI_VIENNA_DICT['text']) + 1}"),
        (lambda header, entry: [{**header, "mode": "provider"}, {**entry, "vector": ["a"]}],
         "line 2: TypeError: an embedding is a list of numbers, not ['a']"),
        (lambda header, entry: [{**header, "mode": "provider"}, {**entry, "vector": "12"}],
         "line 2: TypeError: an embedding is a list of numbers, not '12'"),
        (lambda header, entry: [{**header, "mode": "provider"}, {**entry, "vector": [True, False]}],
         "line 2: TypeError: an embedding is a list of numbers, not [True, False]"),
        (lambda header, entry: [{**header, "mode": "provider"}, {**entry, "vector": [10**400]}],
         "line 2: OverflowError: int too large to convert to float"),
        (lambda header, entry: [{**header, "mode": "provider"}, {**entry, "vector": [float("nan"), 1.0]}],
         "line 2: ZeroVectorError: vector norm nan is zero or not finite"),
        (lambda header, entry: [{"version": 3, "min_words": 100}, entry],
         "line 1: ValueError: an index file's mode is one of"),
        (lambda header, entry: header.update(min_words="x"),
         "line 1: ValueError: an index file's min_words is a positive integer, not 'x'"),
        # The index refuses these once every line has read: the file, no line.
        (lambda header, entry: [header, {"truncated_chars": 2, "record": {
            **entry["record"], "text": " \n" + entry["record"]["text"]}}],
         "cannot embed empty text"),
        (lambda header, entry: [{**header, "mode": "provider"}, {**entry, "vector": [0.6, 0.8]},
                                {**entry, "record": {**entry["record"], "doc_id": "other"}, "vector": [1.0]}],
         "doc other: vector dimension 1 != 2"),
    ], ids=["entry-not-object", "record-text-type", "truncated-chars-type", "negative", "zero", "past-end",
            "vector-item-type", "vector-string", "vector-bools", "vector-item-range", "vector-nan", "no-mode",
            "min-words-type", "whitespace-prefix", "vector-dimension"])
    def test_bad_entry_or_field_reported(self, tmp_path, capsys, uni_vienna_record, edit, message):
        task_path, _ = _setup_infer_fixture(tmp_path, uni_vienna_record)
        index_path = tmp_path / "index.json"
        header, entry = map(json.loads, index_path.read_text(encoding="utf-8").splitlines())
        lines = edit(header, entry) or [header, entry]
        index_path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        output = tmp_path / "preds.jsonl"
        argv = ["infer", "--task", str(task_path), "--index", str(index_path), "--output", str(output)]
        capsys.readouterr()
        assert main([*argv, "--config", str(_write_config(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {index_path}: {message}")
        assert not output.exists()


class TestConfig:
    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"modell_name": "oops"}), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.load(str(path))

    def test_manifest_hashes_only_the_fields_the_command_reads(self, tmp_path):
        def config_hashes(**overrides):
            hashes = {}
            for command in ("ingest", "generate", "infer"):
                write_manifest(tmp_path, command, RunConfig(**overrides), [], [])
                manifest = json.loads((tmp_path / f"{command}.manifest.json").read_text(encoding="utf-8"))
                hashes[command] = manifest["config_hash"]
            return hashes

        base = config_hashes()
        fewer_words = config_hashes(min_words=50)
        assert fewer_words["ingest"] == base["ingest"]
        assert fewer_words["infer"] == base["infer"]
        assert fewer_words["generate"] != base["generate"]
        assert config_hashes(model_name="other-model")["generate"] != base["generate"]

    @pytest.mark.parametrize("key, value", [
        ("parallelism", "4"),
        ("min_words", True),
        ("max_tokens", 1.5),
        ("model_name", 3),
        ("cache_dir", None),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}), encoding="utf-8")
        assert main(["stats", "--dataset", str(tmp_path / "missing.jsonl"), "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ValueError: config key {key!r} must be ")

    def test_max_tokens_takes_an_integer_or_null(self, tmp_path):
        path = tmp_path / "config.json"
        for value in (256, None):
            path.write_text(json.dumps({"max_tokens": value}), encoding="utf-8")
            assert RunConfig.load(str(path)).max_tokens == value

    def test_flags_override_config(self, tmp_path):
        """Every option whose argparse dest names a RunConfig field sets that
        field through parse_args and apply_flags; the others set none."""
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        names = {f.name for f in fields(RunConfig)}
        other = {"record": "replay", "replay": "record"}
        mapped = set()
        for command, command_parser in sub.choices.items():
            required = [arg for a in command_parser._actions if a.required for arg in (a.option_strings[0], "x")]
            base = parser.parse_args([command, *required])
            config = RunConfig.load(None)
            config.apply_flags(base)
            assert config == RunConfig.load(None), command
            for action in command_parser._actions:
                if action.dest not in names:
                    continue
                if action.const is not None:
                    argv, expected = [action.option_strings[0]], action.const
                else:
                    value = action.choices[-1] if action.choices else "7" if action.type is int else str(tmp_path)
                    argv, expected = [action.option_strings[0], value], action.type(value) if action.type else value
                config = RunConfig.load(None)
                setattr(config, action.dest, other.get(expected, getattr(config, action.dest)))
                assert getattr(config, action.dest) != expected
                config.apply_flags(parser.parse_args([command, *required, *argv]))
                assert getattr(config, action.dest) == expected, (command, argv)
                mapped.add((command, action.option_strings[0]))
        model_call = {"--cache", "--replay", "--record", "--parallelism"}
        assert mapped == {
            *(("generate", flag) for flag in {*model_call, "--min-words"}),
            *(("postprocess", flag) for flag in model_call),
            *(("infer", flag) for flag in model_call),
            ("stats", "--top-k"),
            ("index", "--embedding-mode"),
            ("index", "--min-words"),
        }

    def test_empty_cache_flag_ignored(self):
        args = build_parser().parse_args(["generate", "--corpus", "c", "--out-dir", "o", "--cache", ""])
        config = RunConfig.load(None)
        config.apply_flags(args)
        assert config.cache_dir == RunConfig().cache_dir

    def test_env_provides_base_urls(self, monkeypatch):
        monkeypatch.setenv("SYNTHEX_CHAT_BASE_URL", "http://chat.example")
        monkeypatch.setenv("SYNTHEX_EMBED_BASE_URL", "http://embed.example")
        config = RunConfig.load(None)
        assert config.chat_base_url == "http://chat.example"
        assert config.embed_base_url == "http://embed.example"
