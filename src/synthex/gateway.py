"""Chat-completion endpoint access with deterministic record/replay.

All model calls go through :class:`ChatGateway`. In ``record`` mode responses
are fetched over HTTP and cached on disk keyed by a content hash of
(model, temperature, prompt); reruns hit the cache and never the network. In
``replay`` mode the cache is the only source, so a corpus plus a populated
cache reproduces every downstream artifact byte-for-byte.

Also hosts :func:`post_json`, the one HTTP POST-with-retry helper (the
embeddings client uses it too), and the response-text utilities shared by the
annotation and post-processing stages: strict JSON extraction and
boxed-verdict parsing.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .core import SynthexError


class GatewayError(SynthexError):
    """Base class for call failures (distinct from bad model content)."""


class TransportError(GatewayError):
    pass


class EndpointError(GatewayError):
    pass


class CacheMissError(GatewayError):
    pass


class NoJsonFoundError(SynthexError):
    pass


class ResponseSyntaxError(SynthexError):
    """A JSON candidate was found but does not parse as strict JSON."""


class NoVerdictError(SynthexError):
    pass


VERDICTS = ("A", "B", "C", "D")

# Retry policy for every HTTP call: attempts, and the first backoff in seconds.
MAX_RETRIES = 3
BACKOFF = 0.5


@dataclass(frozen=True)
class GenerationParams:
    temperature: float
    model_name: str
    max_tokens: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_tokens is not None and self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")


@dataclass(frozen=True)
class ChatExchange:
    prompt: str
    params: GenerationParams
    response_text: str
    cache_key: str


def cache_key(prompt: str, params: GenerationParams) -> str:
    """Content hash identifying an exchange; max_tokens deliberately excluded
    so replay stays stable across output-length config tweaks."""
    canonical = json.dumps(
        {"model": params.model_name, "temperature": params.temperature, "prompt": prompt},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ChatGateway:
    """Single point of contact with the chat-completions endpoint.

    Modes:
      - ``record`` (default): read-through cache; unseen prompts go live and
        the response is stored.
      - ``replay``: cache only; an unseen key raises :class:`CacheMissError`.
      - ``live``: always call the endpoint, never touch the cache.

    Safe to share across worker threads; cache writes are serialized.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        mode: str = "record",
        base_url: str = "",
        api_key: str = "",
        timeout: float = 120.0,
        max_retries: int = MAX_RETRIES,
        backoff: float = BACKOFF,
    ):
        if mode not in ("record", "replay", "live"):
            raise ValueError(f"unknown gateway mode {mode!r}")
        if mode in ("record", "replay") and cache_dir is None:
            raise ValueError(f"{mode} mode requires a cache directory")
        self.mode = mode
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._write_lock = threading.Lock()
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    def complete(self, prompt: str, params: GenerationParams) -> str:
        """Return the assistant message text for a single-turn prompt."""
        key = cache_key(prompt, params)
        if self.mode in ("record", "replay"):
            cached = self._read_cache(key)
            if cached is not None:
                return cached.response_text
            if self.mode == "replay":
                raise CacheMissError(f"no cached response for key {key[:12]}… in replay mode")
        text = self._call_endpoint(prompt, params)
        if self.mode == "record":
            self._write_cache(ChatExchange(prompt, params, text, key))
        return text

    def store(self, prompt: str, params: GenerationParams, response_text: str):
        """Seed the cache with a known exchange (fixtures, imports)."""
        self._write_cache(ChatExchange(prompt, params, response_text, cache_key(prompt, params)))

    # -- cache ---------------------------------------------------------------

    def _cache_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _read_cache(self, key: str) -> ChatExchange | None:
        path = self._cache_path(key)
        if not path.exists():
            return None
        data = json.loads(path.read_text(encoding="utf-8"))
        params = GenerationParams(
            temperature=data["temperature"],
            model_name=data["model_name"],
            max_tokens=data.get("max_tokens"),
        )
        return ChatExchange(data["prompt"], params, data["response_text"], key)

    def _write_cache(self, exchange: ChatExchange):
        if self.cache_dir is None:
            raise ValueError("gateway has no cache directory")
        payload = {
            "cache_key": exchange.cache_key,
            "model_name": exchange.params.model_name,
            "temperature": exchange.params.temperature,
            "max_tokens": exchange.params.max_tokens,
            "prompt": exchange.prompt,
            "response_text": exchange.response_text,
        }
        path = self._cache_path(exchange.cache_key)
        with self._write_lock:
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
            tmp.replace(path)

    # -- transport -----------------------------------------------------------

    def _call_endpoint(self, prompt: str, params: GenerationParams) -> str:
        if not self.base_url:
            raise TransportError("no endpoint configured (base_url is empty)")
        body = {
            "model": params.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
        }
        if params.max_tokens is not None:
            body["max_tokens"] = params.max_tokens
        raw = post_json(
            f"{self.base_url}/chat/completions",
            body,
            api_key=self.api_key,
            timeout=self.timeout,
            max_retries=self.max_retries,
            backoff=self.backoff,
        )
        return self._parse_completion(raw)

    @staticmethod
    def _parse_completion(raw: str) -> str:
        try:
            data = json.loads(raw)
            content = data["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise EndpointError(f"malformed completion response: {raw[:200]!r}") from exc
        if not isinstance(content, str):
            raise EndpointError(f"completion content is not text: {content!r}")
        return content


def post_json(
    url: str,
    body: dict,
    *,
    api_key: str,
    timeout: float,
    max_retries: int = MAX_RETRIES,
    backoff: float = BACKOFF,
) -> str:
    """POST ``body`` as JSON and return the response text.

    429 and 5xx answers and connection errors are retried with exponential
    backoff; any other HTTP error raises :class:`EndpointError` at once, since
    client errors will not improve on retry. Exhausted retries raise the last
    :class:`EndpointError`, or :class:`TransportError` when the endpoint was
    never reached.
    """
    payload = json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error: Exception | None = None
    for attempt in range(max_retries):
        request = urllib.request.Request(url, data=payload, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            error = EndpointError(f"endpoint returned {exc.code}: {detail[:500]}")
            if exc.code != 429 and exc.code < 500:
                raise error from exc
            last_error = error
        except (urllib.error.URLError, OSError) as exc:
            last_error = exc
        if attempt + 1 < max_retries and backoff > 0:
            time.sleep(backoff * (2**attempt))
    if isinstance(last_error, EndpointError):
        raise last_error
    raise TransportError(
        f"endpoint unreachable after {max_retries} attempts: {last_error}"
    ) from last_error


# --- response text utilities -------------------------------------------------

_JSON_FENCE = re.compile(r"```json\s*\n(.*?)```", re.DOTALL)
_BOXED = re.compile(r"\\boxed\{([^{}]*)\}")


def extract_json_block(response: str) -> str:
    """Pull the JSON payload out of a model response.

    Prefers the first fenced block labeled ``json``; otherwise takes the first
    brace-balanced substring starting at the first ``{``. The result must
    parse as strict JSON — single-quoted pseudo-JSON is a syntax error, not
    something to repair.
    """
    fence = _JSON_FENCE.search(response)
    if fence is not None:
        candidate = fence.group(1).strip()
    else:
        start = response.find("{")
        if start == -1:
            raise NoJsonFoundError("response contains no JSON object")
        candidate = _balanced_candidate(response, start)
        if candidate is None:
            raise ResponseSyntaxError("unbalanced braces in JSON candidate")
    try:
        json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise ResponseSyntaxError(f"candidate is not strict JSON: {exc}") from exc
    return candidate


def _balanced_candidate(text: str, start: int) -> str | None:
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        c = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def extract_boxed(response: str) -> str:
    """Return the verdict letter from the LAST ``\\boxed{...}`` occurrence.

    Reasoning models may emit intermediate boxes; the final one is the answer.
    Whitespace inside the braces is tolerated and lowercase letters are
    normalized to uppercase.
    """
    matches = _BOXED.findall(response)
    if not matches:
        raise NoVerdictError("response contains no \\boxed{...} token")
    verdict = matches[-1].strip().upper()
    if verdict not in VERDICTS:
        raise NoVerdictError(f"boxed token {matches[-1].strip()!r} is not one of A/B/C/D")
    return verdict
