"""Scripted chat-completions and embeddings endpoint on 127.0.0.1.

It runs in its own process, started by :class:`Endpoint`, and answers from a response table keyed by
:func:`plan.exchange_key`, so every answer is a pure function of the prompt
content and the workload seed. Latency is simulated: each chat request sleeps for a
time fixed by the seed and the exchange key (lognormal around a median), and
each embedding request for a constant time.
Exchanges listed as transient answer 503 once, then succeed. Embeddings are
feature-hashed bags of words of fixed dimension and never fail.

One thread serves each client connection (the clients open one connection
per request), and commands on the process's stdin let the benchmark reset
and read the counters: requests served, 503s served and busy seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from statistics import NormalDist

if __name__ == "__main__":  # started by Endpoint; plan needs the synthex tree in argv[1]
    sys.path.insert(0, sys.argv[1])

from plan import exchange_key, sha  # noqa: E402

EMBED_DIM = 64
_UNIT_NORMAL = NormalDist()


def latencies_s(stages: dict[str, str], seed: int, median_ms: float, sigma: float = 0.5) -> dict[str, float]:
    """Lognormal latency per exchange key, clipped to [median/4, 8 x median].

    The keys of each stage, ordered by a hash of the seed and the key, take
    the lognormal's quantiles in turn: which prompt is slow depends on the
    seed, while the set of latencies a stage waits for depends only on its
    number of keys.
    """
    groups: dict[str, list[str]] = {}
    for key, stage in stages.items():
        groups.setdefault(stage, []).append(key)
    out = {}
    for keys in groups.values():
        ordered = sorted(keys, key=lambda k: sha(f"{seed}:{k}"))
        for rank, key in enumerate(ordered):
            ms = median_ms * math.exp(sigma * _UNIT_NORMAL.inv_cdf((rank + 0.5) / len(ordered)))
            out[key] = min(max(ms, median_ms / 4), median_ms * 8) / 1000.0 if median_ms > 0 else 0.0
    return out


def embed(text: str) -> list[float]:
    counts = [0.0] * EMBED_DIM
    for token in text.lower().split():
        counts[zlib.crc32(token.encode("utf-8")) % EMBED_DIM] += 1.0
    norm = math.sqrt(sum(c * c for c in counts)) or 1.0
    return [c / norm for c in counts]


class _State:
    def __init__(self, responses: dict[str, str], stages: dict[str, str], transient: set[str], seed: int,
                 chat_median_ms: float, embed_ms: float):
        self.responses = responses
        self.transient = transient
        self.latency = latencies_s(stages, seed, chat_median_ms)
        self.embed_s = embed_ms / 1000.0
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        with self.lock:
            self.failed_once: set[str] = set()
            self.counters = {"chat_requests": 0, "chat_503": 0, "chat_busy_s": 0.0,
                             "embed_requests": 0, "embed_busy_s": 0.0, "unknown": 0}

    def count(self, **increments):
        with self.lock:
            for name, value in increments.items():
                self.counters[name] += value


class _Handler(BaseHTTPRequestHandler):
    state: _State

    def log_message(self, format, *args):  # keep the benchmark's output clean
        pass

    def _send(self, status: int, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        start = time.perf_counter()
        state = self.state
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        if self.path.endswith("/embeddings"):
            time.sleep(state.embed_s)
            self._send(200, {"data": [{"embedding": embed(body["input"])}]})
            state.count(embed_requests=1, embed_busy_s=time.perf_counter() - start)
            return
        if not self.path.endswith("/chat/completions"):
            state.count(unknown=1)
            self._send(404, {"error": f"no route {self.path}"})
            return
        key = exchange_key(body["messages"][0]["content"], body["temperature"])
        with state.lock:
            transient = key in state.transient and key not in state.failed_once
            if transient:
                state.failed_once.add(key)
        if transient:
            self._send(503, {"error": "scripted transient overload"})
            state.count(chat_requests=1, chat_503=1, chat_busy_s=time.perf_counter() - start)
            return
        response = state.responses.get(key)
        if response is None:
            state.count(unknown=1)
            self._send(400, {"error": "prompt is not in the script"})
            return
        time.sleep(state.latency[key])
        self._send(200, {"choices": [{"message": {"role": "assistant", "content": response}}]})
        state.count(chat_requests=1, chat_busy_s=time.perf_counter() - start)


def serve(table_path: str, seed: int, chat_median_ms: float, embed_ms: float):
    """Process entry point: bind an ephemeral port and print it, then obey
    commands on stdin ("reset", "stats", "stop"), one JSON reply per line."""
    with open(table_path, encoding="utf-8") as fh:
        table = json.load(fh)
    state = _State(table["responses"], table["stages"], set(table["transient"]), seed, chat_median_ms, embed_ms)
    handler = type("Handler", (_Handler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    serving.start()

    def reply(payload):
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"port": server.server_address[1]})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                state.reset()
                reply({"ok": True})
            elif command == "stats":
                with state.lock:
                    reply(dict(state.counters))
            else:
                break
    finally:
        server.shutdown()
        serving.join()
        server.server_close()


class Endpoint:
    """Parent-side handle on the endpoint process."""

    def __init__(self, src: str, table_path: str, seed: int, chat_median_ms: float, embed_ms: float):
        self._process = subprocess.Popen(
            [sys.executable, __file__, src, table_path, str(seed), str(chat_median_ms), str(embed_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = self._read()["port"]
        except (RuntimeError, KeyError):
            self.stop()
            raise RuntimeError("scripted endpoint did not start") from None
        self.url = f"http://127.0.0.1:{self.port}"

    def _read(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("scripted endpoint exited")
        return json.loads(line)

    def _ask(self, command: str) -> dict:
        self._process.stdin.write(command + "\n")
        self._process.stdin.flush()
        return self._read()

    def reset(self):
        self._ask("reset")

    def stats(self) -> dict:
        return self._ask("stats")

    def stop(self):
        try:
            self._process.stdin.close()  # end of commands: the server shuts down
            self._process.wait(10)
        except (OSError, subprocess.TimeoutExpired):
            self._process.kill()
            self._process.wait(10)
        self._process.stdout.close()


if __name__ == "__main__":
    serve(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), float(sys.argv[5]))
