"""Child process that runs synthex CLI stages in-process and times them.

    python3 stages.py SPEC.json RESULT.json

The spec names the source tree to import, the stages (argv for
``synthex.cli.main``, a repeat count, and where to keep their output), and
whether to trace. A fresh process per measured repetition makes its peak RSS
the memory cost of the stage sequence.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import synthex.cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    stages = []
    for stage in spec["stages"]:
        runs = []
        for _ in range(stage["repeat"]):
            out, err = io.StringIO(), io.StringIO()
            gc.collect()  # garbage left by the previous stage is not this stage's cost
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = synthex.cli.main(stage["argv"])
                end = time.perf_counter()
            runs.append({"start": start, "end": end, "code": code})
        with open(stage["log"], "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
            fh.write(err.getvalue())
        stages.append({"name": stage["name"], "runs": runs})

    result = {
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracing import coverage, summarize

        tracer.dump(spec["spans_path"])
        windows = {s["name"]: (s["runs"][0]["start"], s["runs"][0]["end"]) for s in stages}
        result["trace"] = {
            "functions": summarize(tracer),
            "missing": tracer.missing,
            "prompt_chars": statistics.fmean(tracer.prompt_chars) if tracer.prompt_chars else 0.0,
            # Share of a stage's wall covered by the spans of the named layers.
            "coverage": {
                name: coverage(tracer, tuple(prefixes), windows[stage])
                for name, (stage, prefixes) in spec["coverage"].items()
            },
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
