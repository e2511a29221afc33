"""Smoke test: every workload at tiny size, with all output checks and no
timing bound, plus one traced run and one check that must catch a tampered
output."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_passes_its_checks(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--smoke"])
    result = _result(capsys)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {
        "setup_s", "wall_s", "peak_rss_mb", "index_mb", "generate_docs_per_s",
        "postprocess_triples_per_s", "index_docs_per_s", "infer_docs_per_s", "eval_docs_per_s",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_layers(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "record-latency", "--seed", "7", "--seconds", "0", "--smoke", "--trace", "1"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and result["correct"], out
    metrics = result["metrics"]
    assert "missing wrapped name" not in out
    assert metrics["gateway.endpoint_requests"]["value"] > 0
    assert metrics["annotator.annotate.calls"]["value"] == 12
    assert metrics["cli.infer.traced_wall_ratio"]["value"] > 0
    assert (tmp_path / ".bench_work" / "record-latency" / "spans.jsonl").stat().st_size > 0


def test_checks_catch_a_wrong_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sys.path.insert(0, str(run.SRC))
    workload = run.WORKLOADS["offline-replay"]
    sizes = {**workload["sizes"], **run.SMOKE["offline-replay"]}
    setup = run.Setup(workload, sizes, 7, Path(".bench_work"))
    try:
        result, counters, rep = run.run_repetition(setup, Path(".bench_work"), {}, trace=False)
        assert setup.check(rep, result, counters) == []
        kept = rep / "post" / "kept.jsonl"
        lines = kept.read_text(encoding="utf-8").splitlines(keepends=True)
        kept.write_text("".join(lines[1:]), encoding="utf-8")
        report = rep / "report.json"
        data = json.loads(report.read_text(encoding="utf-8"))
        data["all_docs"]["tasks"]["re_strict"]["tp"] += 1
        report.write_text(json.dumps(data), encoding="utf-8")
        problems = setup.check(rep, result, counters)
    finally:
        setup.stop()
    assert any(p.startswith("kept doc ids") for p in problems)
    assert any(p.startswith("eval all_docs/re_strict/tp") for p in problems)
