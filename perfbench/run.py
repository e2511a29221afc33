"""Offline end-to-end and per-layer benchmark of the synthex CLI pipeline.

    python3 perfbench/run.py --workload offline-replay --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload plants seeded inputs, seeds a
replay cache and/or starts a scripted endpoint on 127.0.0.1 (set-up, timed
several times), then runs the seven CLI stages (ingest, generate,
postprocess, stats, index, infer, eval) in fresh processes for the given
number of seconds. Every repetition's outputs are checked against the plan.
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` an untraced and a traced repetition give the per-layer
metrics and the tracing overhead. Model latency is simulated, never
measured. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
STAGES = ("ingest", "generate", "postprocess", "stats", "index", "infer", "eval")
PARALLELISM = 2
SETUPS = 5  # set-ups timed for setup_s; a traced or smoke run makes one
TRACE_PAIRS = 3  # untraced/traced repetition pairs in a traced run

# Sizes keep one repetition to a few seconds, so that a run holds several
# fresh processes: single-threaded stage times depend on which vCPU a process
# lands on, and means over processes even that out. "repeat" re-runs a short
# idempotent (replay or fallback) stage within one repetition.
WORKLOADS = {
    # The CPU path of a cached rerun: long raw texts make truncation's
    # sentence splitting matter; no endpoint request is ever made.
    "offline-replay": {
        "sizes": dict(
            lexicon=20000, docs=300, triples_per_doc=(2, 5),
            raw_words_median=600, raw_words_sigma=0.7, raw_words_min=150, raw_words_max=5000,
            fail_both_share=0.05, retry_share=0.10, bad_verdict_share=0.08, degenerate_share=0.03,
            demos=12, queries=120, queries_from_demos=True, query_paragraphs=3,
            invalid_share=0.10, call1_fail_share=0.05, eval_docs=200,
        ),
        "modes": {"generate": "replay", "postprocess": "replay", "infer": "replay"},
        "embedding": "fallback",
        "index_source": "demos",
        "latency_ms": (0.0, 0.0),
        "repeat": {"ingest": 3, "stats": 3, "index": 10, "eval": 2},
    },
    # Fallback retrieval, whose per-query cost grows with demonstrations x
    # vocabulary; inference calls go to the endpoint with no added latency.
    "retrieve-heavy": {
        "sizes": dict(
            lexicon=20000, docs=240, triples_per_doc=(1, 3),
            raw_words_median=250, raw_words_sigma=0.4, raw_words_min=120, raw_words_max=800,
            fail_both_share=0.03, retry_share=0.05, bad_verdict_share=0.05, degenerate_share=0.0,
            queries=4, query_paragraphs=4, invalid_share=0.10, call1_fail_share=0.05, exclusions=5,
            eval_docs=200,
        ),
        "modes": {"generate": "replay", "postprocess": "replay", "infer": "record"},
        "embedding": "fallback",
        "index_source": "kept",
        "latency_ms": (0.0, 0.0),
        "repeat": {"ingest": 5, "generate": 8, "postprocess": 10, "stats": 5, "eval": 8},
    },
    # Every model call goes over loopback with simulated latency, so worker
    # pool utilisation and the gateway's write path dominate.
    "record-latency": {
        "sizes": dict(
            lexicon=5000, docs=60, triples_per_doc=(1, 3), heavy_positions={19: 30, 39: 40, 59: 50},
            raw_words_median=300, raw_words_sigma=0.4, raw_words_min=120, raw_words_max=1000,
            fail_both_share=0.05, retry_share=0.10, bad_verdict_share=0.08, degenerate_share=0.0,
            queries=40, query_paragraphs=3, invalid_share=0.10, call1_fail_share=0.05,
            transient_share=0.01, eval_docs=200,
        ),
        "modes": {"generate": "record", "postprocess": "record", "infer": "record"},
        "embedding": "provider",
        "index_source": "kept",
        "latency_ms": (20.0, 5.0),  # chat median, embeddings constant
        "repeat": {"ingest": 5, "stats": 5, "eval": 10},
    },
}

# Sizes for the smoke test: every check runs, nothing is timed for real.
SMOKE = {
    "offline-replay": dict(docs=24, demos=4, queries=8, eval_docs=10),
    "retrieve-heavy": dict(docs=20, queries=4, exclusions=2, eval_docs=10),
    "record-latency": dict(docs=12, heavy_positions={5: 12}, queries=4, eval_docs=10),
}

# Per-layer shares that show each workload loads the layer it was chosen
# for: metric -> (stage, span-name prefixes whose union covers its wall).
COVERAGE = {
    "annotator.generate_span_coverage": ("generate", ["annotator.", "gateway."]),
    "demostore.retrieve_scored.infer_coverage": ("infer", ["demostore.retrieve_scored"]),
}

RATE_UNITS = {
    "generate": ("generate_docs_per_s", "docs/s"),
    "postprocess": ("postprocess_triples_per_s", "triples/s"),
    "index": ("index_docs_per_s", "docs/s"),
    "infer": ("infer_docs_per_s", "docs/s"),
    "eval": ("eval_docs_per_s", "docs/s"),
}


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _dump_json(payload, path: Path):
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def _load_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Setup:
    """One set-up: plan, planted files, replay cache, endpoint."""

    def __init__(self, workload: dict, sizes: dict, seed: int, base: Path):
        import plan as planner
        from endpoint import Endpoint
        from synthex import ChatGateway, save_records
        from synthex.inference import prediction_to_dict

        self.workload = workload
        self.dir = base / "setup"
        self.dir.mkdir(parents=True)
        self.plan = planner.make_plan(seed, sizes)
        planner.check_truncation(self.plan.docs)
        self.expected = planner.expected_outcomes(self.plan)
        plan, expected = self.plan, self.expected

        with open(self.dir / "raw.jsonl", "w", encoding="utf-8") as fh:
            for doc in plan.docs:
                fh.write(json.dumps({"id": doc.doc_id, "title": doc.doc_id, "text": doc.raw_text}) + "\n")
        if workload["index_source"] == "demos":
            save_records(plan.demos, self.dir / "demos.jsonl")
            self.demo_ids = [d.doc_id for d in plan.demos]
        else:
            self.demo_ids = [r.doc_id for r in expected.kept]
        _dump_json({
            "schema": {"entity_types": list(plan.schema.entity_types),
                       "relation_types": list(plan.schema.relation_types)},
            "documents": [{"id": q.doc_id, "text": q.text} for q in plan.queries],
        }, self.dir / "task.json")
        save_records([q.gold for q in plan.eval_docs], self.dir / "eval_gold.jsonl")
        with open(self.dir / "predictions.jsonl", "w", encoding="utf-8") as fh:
            for prediction in planner.planted_predictions(plan):
                fh.write(json.dumps(prediction_to_dict(prediction), ensure_ascii=False) + "\n")
        n_excluded = sizes.get("exclusions", 0)
        self.exclusions = self.demo_ids[:: max(1, len(self.demo_ids) // max(1, n_excluded))][:n_excluded]
        if self.exclusions:
            (self.dir / "exclusions.txt").write_text("\n".join(self.exclusions) + "\n", encoding="utf-8")

        modes = workload["modes"]
        gateway = ChatGateway(cache_dir=self.dir / "cache", mode="replay")
        if modes["generate"] == "replay":
            for prompt, temperature, response in plan.replay:
                gateway.store(prompt, planner.chat_params(temperature), response)
        if modes["infer"] == "replay":
            demos = {d.doc_id: d for d in plan.demos}
            for prompt, temperature, response in planner.inference_exchanges(plan, demos):
                gateway.store(prompt, planner.chat_params(temperature), response)

        _dump_json({"responses": plan.responses, "stages": plan.stages, "transient": plan.transient_keys},
                   self.dir / "script.json")
        chat_ms, embed_ms = workload["latency_ms"]
        self.endpoint = Endpoint(str(SRC), str(self.dir / "script.json"), seed, chat_ms, embed_ms)
        _dump_json({
            "model_name": planner.MODEL,
            "chat_base_url": self.endpoint.url,
            "embed_base_url": self.endpoint.url,
            "embed_model": planner.EMBED_MODEL,
            "embedding_mode": workload["embedding"],
            "parallelism": PARALLELISM,
            "min_words": planner.MIN_WORDS,
        }, self.dir / "config.json")

    def stop(self):
        self.endpoint.stop()

    # -- what one repetition runs -------------------------------------------------

    def stage_specs(self, rep: Path, repeats: dict) -> list[dict]:
        s, modes = self.dir, self.workload["modes"]
        cfg = ["--config", str(s / "config.json")]

        def gateway(stage):
            cache = s / "cache" if modes[stage] == "replay" else rep / "cache"
            return ["--cache", str(cache), "--" + modes[stage]]

        index_input = s / "demos.jsonl" if self.workload["index_source"] == "demos" else rep / "post" / "kept.jsonl"
        argv = {
            "ingest": ["ingest", "--input", str(s / "raw.jsonl"), "--output", str(rep / "corpus.jsonl")],
            "generate": ["generate", "--corpus", str(rep / "corpus.jsonl"), "--out-dir", str(rep / "gen"),
                         *gateway("generate")],
            "postprocess": ["postprocess", "--annotations", str(rep / "gen" / "annotations.jsonl"),
                            "--out-dir", str(rep / "post"), *gateway("postprocess")],
            "stats": ["stats", "--dataset", str(rep / "post" / "kept.jsonl"),
                      "--failures", str(rep / "gen" / "failures.jsonl"), "--output", str(rep / "stats.json")],
            "index": ["index", "--dataset", str(index_input), "--output", str(rep / "index.json"),
                      "--embedding-mode", self.workload["embedding"]],
            "infer": ["infer", "--task", str(s / "task.json"), "--index", str(rep / "index.json"),
                      "--output", str(rep / "preds.jsonl"), *gateway("infer"),
                      *(["--exclusions", str(s / "exclusions.txt")] if self.exclusions else [])],
            "eval": ["eval", "--predictions", str(s / "predictions.jsonl"), "--gold", str(s / "eval_gold.jsonl"),
                     "--output", str(rep / "report.json")],
        }
        return [
            {"name": stage, "argv": argv[stage] + cfg, "repeat": repeats.get(stage, 1),
             "log": str(rep / f"{stage}.log")}
            for stage in STAGES
        ]

    def planned_calls(self) -> dict:
        """Model calls each repetition makes, and those the endpoint serves."""
        e, modes = self.expected, self.workload["modes"]
        chat = {"generate": e.generate_calls, "postprocess": e.verdict_calls, "infer": 2 * len(self.plan.queries)}
        live = 2 * len(self.plan.queries) if modes["infer"] == "record" else 0
        if modes["generate"] == "record":  # repeated prompts are served from the cache
            live += e.distinct_chat_prompts
        embeds = len(self.demo_ids) + len(self.plan.queries) if self.workload["embedding"] == "provider" else 0
        return {"chat": sum(chat.values()), "live_chat": live, "embeds": embeds}

    # -- output checks --------------------------------------------------------------

    def check(self, rep: Path, result: dict, counters: dict) -> list[str]:
        """Every mismatch between this repetition's outputs and the plan."""
        e, plan = self.expected, self.plan
        problems = []

        def expect(what, got, want):
            if got != want:
                problems.append(f"{what}: got {got!r}, expected {want!r}")

        for stage in result["stages"]:
            for run in stage["runs"]:
                expect(f"{stage['name']} exit code", run["code"], 0)
        if problems:
            return problems

        expect("corpus documents", len(_load_jsonl(rep / "corpus.jsonl")), len(plan.docs))
        annotations = _load_jsonl(rep / "gen" / "annotations.jsonl")
        expect("annotated doc ids", [a["doc_id"] for a in annotations], e.passed_ids)
        expect("retried documents", sum(bool(a.get("provenance", {}).get("retried")) for a in annotations), e.retried)
        expect("annotated triples", sum(len(a["relations"]) for a in annotations), e.triples_adjudicated)
        failures = _load_jsonl(rep / "gen" / "failures.jsonl")
        expect("failure sidecar ids", [f["doc_id"] for f in failures], e.failed_ids)
        for f in failures:
            kinds = {err["kind"] for attempt in f["attempts"] for err in attempt["errors"]}
            missing = e.failure_kinds.get(f["doc_id"], set()) - kinds
            if missing:
                problems.append(f"failure {f['doc_id']}: planned kinds {sorted(missing)} not reported")

        kept = _load_jsonl(rep / "post" / "kept.jsonl")
        expect("kept doc ids", [k["doc_id"] for k in kept], [r.doc_id for r in e.kept])
        expect("kept triples", sum(len(k["relations"]) for k in kept), sum(len(r.triples) for r in e.kept))
        drops = {}
        for entry in _load_jsonl(rep / "post" / "drops.jsonl"):
            drops[entry["stage"]] = drops.get(entry["stage"], 0) + 1
        expect("drop log per stage", drops, {k: v for k, v in e.drops.items() if v})

        stats = json.loads((rep / "stats.json").read_text(encoding="utf-8"))
        expect("stats documents", stats["documents"], len(e.kept))
        expect("stats triples", stats["triples"], sum(len(r.triples) for r in e.kept))
        # The stats command counts yield over the dataset it is given (here
        # the post-processed one) plus the failure sidecar.
        want_yield = 100.0 * len(e.kept) / (len(e.kept) + len(e.failed_ids))
        if abs(stats["yield_percent"] - want_yield) > 1e-9:
            problems.append(f"yield: got {stats['yield_percent']}, expected {want_yield}")

        index_log = (rep / "index.log").read_text(encoding="utf-8")
        if f"indexed {len(self.demo_ids)} demonstrations" not in index_log:
            problems.append(f"index: expected {len(self.demo_ids)} demonstrations, log says {index_log.strip()!r}")

        preds = _load_jsonl(rep / "preds.jsonl")
        expect("prediction ids", [p["doc_id"] for p in preds], [q.doc_id for q in plan.queries])
        expect("valid predictions", sum(p["valid"] for p in preds), e.valid_predictions)
        for p, q in zip(preds, plan.queries):
            demo = p.get("provenance", {}).get("demo_doc_id")
            if p["valid"]:
                got = (len(p["entities"]), len(p["mentions"]), len(p["triples"]), p["provenance"].get("schema_drops"))
                want = (len(q.gold.entities), len(q.gold.mentions), len(q.gold.triples) - q.drop_last,
                        {"entities": int(q.extras), "triples": int(q.extras)})
                expect(f"{q.doc_id} entities/mentions/triples/schema drops", got, want)
            if q.demo_id is not None and p["valid"] and demo != q.demo_id:
                problems.append(f"{q.doc_id}: retrieved {demo!r}, planted {q.demo_id!r}")
            if demo in self.exclusions:
                problems.append(f"{q.doc_id}: retrieved excluded demonstration {demo!r}")

        report = json.loads((rep / "report.json").read_text(encoding="utf-8"))
        for mode, tasks in e.eval.items():
            for task, want in tasks.items():
                got = report[mode]["tasks"].get(task)
                if got is None:
                    problems.append(f"eval {mode}/{task}: missing")
                    continue
                for key, value in want.items():
                    if abs(got[key] - value) > 1e-9:
                        problems.append(f"eval {mode}/{task}/{key}: got {got[key]}, expected {value}")

        calls = self.planned_calls()
        expect("endpoint chat requests", counters["chat_requests"], calls["live_chat"] + len(plan.transient_keys)
               if calls["live_chat"] else 0)
        expect("endpoint 503s", counters["chat_503"], len(plan.transient_keys) if calls["live_chat"] else 0)
        expect("endpoint embedding requests", counters["embed_requests"], calls["embeds"])
        expect("unscripted requests", counters["unknown"], 0)
        return problems


def _artifact_hashes(rep: Path) -> dict[str, str]:
    return {
        str(path.relative_to(rep)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(rep.rglob("*"))
        if path.is_file()
    }


def run_repetition(setup: Setup, base: Path, repeats: dict, trace: bool) -> tuple[dict, dict, Path]:
    rep = _fresh_dir(base / "rep")
    spec_path, result_path = base / "spec.json", base / "result.json"
    _dump_json({
        "src": str(SRC),
        "stages": setup.stage_specs(rep, repeats),
        "trace": trace,
        "spans_path": str(base / "spans.jsonl"),
        "coverage": COVERAGE,
    }, spec_path)
    setup.endpoint.reset()
    done = subprocess.run([sys.executable, str(HERE / "stages.py"), str(spec_path), str(result_path)],
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"stage runner failed:\n{done.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, setup.endpoint.stats(), rep


def _walls(result: dict) -> dict[str, list[float]]:
    return {s["name"]: [r["end"] - r["start"] for r in s["runs"]] for s in result["stages"]}


def _work_counts(setup: Setup) -> dict[str, int]:
    return {
        "generate": len(setup.plan.docs),
        "postprocess": setup.expected.triples_adjudicated,
        "index": len(setup.demo_ids),
        "infer": len(setup.plan.queries),
        "eval": len(setup.plan.eval_docs),
    }


def end_to_end(setup_times, results, setup: Setup, rep_index_mb: float) -> dict:
    walls: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for result in results:
        for stage, values in _walls(result).items():
            walls[stage].extend(values)
    # Stage times are averaged over every execution in the run, not taken as
    # medians: a process's speed depends on the vCPU it lands on, and the mean
    # follows the mix of vCPUs smoothly where a median jumps between them.
    mean_wall = {stage: statistics.fmean(values) for stage, values in walls.items()}
    counts = _work_counts(setup)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(mean_wall.values()), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "index_mb": (rep_index_mb, "MB"),
    }
    for stage, (name, unit) in RATE_UNITS.items():
        metrics[name] = (counts[stage] / mean_wall[stage], unit)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, walls


def per_layer(setup: Setup, results: list[dict], counters: dict, rep: Path) -> tuple[dict, list[str]]:
    """Span metrics of the last (traced) repetition, whose outputs are in
    ``rep``; ``results`` alternate untraced and traced repetitions."""
    trace = results[-1]["trace"]
    f = trace["functions"]
    walls = {stage: values[0] for stage, values in _walls(results[-1]).items()}
    m: dict[str, tuple[float, str]] = {}

    def timing(name, *stats):
        units = {"calls": "count", "total_s": "s", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms", "tail_pct": "%"}
        for stat in stats:
            m[f"{name}.{stat}"] = (f[name][stat], units[stat])

    per_request = ("calls", "p50_ms", "tail_ms", "tail_pct")
    timing("gateway.complete", "total_s", *per_request)
    chat_calls = f["gateway.complete"]["calls"]
    live = counters["chat_requests"] - counters["chat_503"]
    m["gateway.cache_hit_ratio"] = ((chat_calls - live) / chat_calls if chat_calls else 0.0, "ratio")
    m["gateway.endpoint_requests"] = (counters["chat_requests"], "count")
    m["gateway.endpoint_busy_s"] = (counters["chat_busy_s"], "s")
    m["gateway.transient_retries"] = (counters["chat_503"], "count")
    m["gateway.client_overhead_s"] = (f["gateway.complete"]["total_s"] - counters["chat_busy_s"], "s")
    timing("gateway.extract_json_block", "total_s")
    timing("gateway.extract_boxed", "total_s")

    timing("annotator.annotate", *per_request)
    timing("annotator.truncate_text", "calls", "total_s")
    timing("annotator.build_zero_shot_prompt", "total_s")
    timing("annotator.parse_annotation_response", "calls", "total_s")
    timing("annotator.verify_annotation", "calls", "total_s")
    annotations = _load_jsonl(rep / "gen" / "annotations.jsonl")
    failures = _load_jsonl(rep / "gen" / "failures.jsonl")
    attempts = sum(a.get("provenance", {}).get("attempt", 1) for a in annotations) + 2 * len(failures)
    m["annotator.attempts_per_doc"] = (attempts / len(setup.plan.docs), "ratio")
    m["annotator.yield_ratio"] = (len(annotations) / len(setup.plan.docs), "ratio")

    timing("markup.parse_annotated", "calls", "total_s")
    timing("postprocess.collect_verdicts", *per_request)
    timing("postprocess.build_triple_verification_prompt", "total_s")
    kept_triples = sum(len(k["relations"]) for k in _load_jsonl(rep / "post" / "kept.jsonl"))
    m["postprocess.triples_kept_ratio"] = (kept_triples / max(1, setup.expected.triples_adjudicated), "ratio")

    timing("demostore.build_index", "total_s")
    timing("demostore.save", "total_s")
    timing("demostore.load", "total_s")
    timing("demostore.embed", "calls", "total_s")
    timing("demostore.retrieve_scored", "self_s", *per_request)
    timing("demostore.cosine", "calls")

    timing("inference.infer", *per_request)
    timing("inference.build_inference_prompt", "calls", "total_s")
    m["inference.prompt_chars"] = (trace["prompt_chars"], "chars")
    timing("inference.first_fragment", "total_s")
    timing("inference.enforce_schema", "total_s")
    preds = _load_jsonl(rep / "preds.jsonl")
    m["inference.valid_ratio"] = (sum(p["valid"] for p in preds) / len(preds), "ratio")

    for name in ("evaluate.evaluate", "evaluate.eval_mentions", "evaluate.eval_entity_ident",
                 "evaluate.eval_entity_class", "evaluate.eval_relations"):
        timing(name, "total_s")
    m["evaluate.evaluate.calls"] = (f["evaluate.evaluate"]["calls"], "count")

    timing("core.load_corpus", "total_s")
    timing("core.load_records", "total_s")
    timing("core.dump_jsonl", "total_s")
    timing("core.record_from_dict", "calls", "total_s")
    timing("core.record_to_dict", "calls", "total_s")

    # Tracing overhead: mean traced over mean untraced wall. The repetitions
    # alternate, so both means mix the same vCPUs and the same machine load.
    def mean_walls(runs):
        return {stage: statistics.fmean(_walls(r)[stage][0] for r in runs) for stage in STAGES}

    plain, traced = mean_walls(results[0::2]), mean_walls(results[1::2])
    for stage in STAGES:
        m[f"cli.{stage}.wall_s"] = (walls[stage], "s")
        m[f"cli.{stage}.traced_wall_ratio"] = (traced[stage] / plain[stage], "ratio")
    timing("cli.write_manifest", "total_s")

    # Pool utilisation: job spans on the worker threads / (parallelism x stage wall).
    jobs = {"annotator": ("annotator.annotate", "generate"),
            "postprocess": ("postprocess.collect_verdicts", "postprocess"),
            "inference": ("inference.infer", "infer")}
    busy = 0.0
    for layer, (name, stage) in jobs.items():
        busy += f[name]["total_s"]
        m[f"{layer}.pool_busy_share"] = (f[name]["total_s"] / (PARALLELISM * walls[stage]), "ratio")
    # The shares that show each workload loads the layer it was chosen for.
    m["gateway.endpoint_busy_worker_share"] = (counters["chat_busy_s"] / busy if busy else 0.0, "ratio")
    for name, share in trace["coverage"].items():
        m[name] = (share, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}, trace["missing"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; checks only")
    args = parser.parse_args(argv)

    # A terminated run still stops its endpoint and stage processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "synthex" / "__init__.py").is_file():
        print(f"perfbench: no synthex source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    workload = WORKLOADS[args.workload]
    sizes = {**workload["sizes"], **(SMOKE[args.workload] if args.smoke else {})}
    base = WORK / args.workload
    base.mkdir(parents=True, exist_ok=True)

    setup_times, setup = [], None
    try:
        for _ in range(1 if args.trace or args.smoke else SETUPS):
            if setup is not None:
                setup.stop()
                setup = None
            shutil.rmtree(base / "setup", ignore_errors=True)
            start = time.perf_counter()
            setup = Setup(workload, sizes, args.seed, base)
            setup_times.append(time.perf_counter() - start)

        calls = setup.planned_calls()
        ops_per_rep = calls["chat"] + calls["embeds"] + len(STAGES)
        problems: list[str] = []
        attempted = 0
        results, reference, index_mb, stage_walls = [], None, 0.0, {}
        measure_start = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced repetitions.
            trace = bool(args.trace) and len(results) % 2 == 1
            repeats = {} if args.trace else workload["repeat"]
            rep_start = time.perf_counter()
            result, counters, rep = run_repetition(setup, base, repeats, trace)
            last = time.perf_counter() - rep_start
            results.append(result)
            attempted += ops_per_rep
            problems += setup.check(rep, result, counters)
            hashes = _artifact_hashes(rep)
            if reference is None:
                reference = hashes
                index_mb = (rep / "index.json").stat().st_size / 2**20
            elif hashes != reference:
                changed = sorted(k for k in set(hashes) | set(reference) if hashes.get(k) != reference.get(k))
                problems.append(f"artifacts differ between repetitions: {changed[:5]}")
            elapsed = time.perf_counter() - measure_start
            if args.trace and len(results) == 2 * TRACE_PAIRS:
                break
            if not args.trace and len(results) >= 2 and elapsed + last > args.seconds:
                break

        if args.trace:
            metrics, missing = per_layer(setup, results, counters, rep)
            for site in missing:
                print(f"missing wrapped name: {site}")
        else:
            metrics, stage_walls = end_to_end(setup_times, results, setup, index_mb)
    finally:
        if setup is not None:
            setup.stop()

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:14.6f} {metric['unit']}")
    sizes_record = {k: v for k, v in sizes.items() if k != "heavy_positions"}
    sizes_record["heavy_triples"] = sorted(sizes.get("heavy_positions", {}).values())
    print(json.dumps({
        "info": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "repetitions": len(results), "stage_walls_s": stage_walls,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": _git_sha(), "sizes": sizes_record, "parallelism": PARALLELISM,
            "simulated_latency_ms": {"chat_median": workload["latency_ms"][0],
                                     "embed": workload["latency_ms"][1]},
        }
    }))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
