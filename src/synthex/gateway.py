"""Chat-completion endpoint access with deterministic record/replay.

Every chat call goes through :meth:`ChatGateway.complete`, the one reader of
the on-disk cache, keyed by a content hash of (model, temperature, prompt); a
stage with many prompts maps it over :func:`map_contained`. In ``record``
mode unseen prompts are fetched over HTTP and cached; reruns never touch the
network. In ``replay`` mode the cache is the only source, so a corpus plus a
populated cache reproduces every downstream artifact byte-for-byte.

Also hosts :func:`map_contained`, the one worker pool; :func:`post_json`, the
one HTTP POST-with-retry helper (the embeddings client uses it too); and the
response-text utilities shared by the annotation and post-processing stages:
strict JSON extraction and boxed-verdict parsing.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import re
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .core import SynthexError, atomic_writer, decode_object, load_json


class GatewayError(SynthexError):
    """Base class for failed model calls (distinct from bad model content)."""


class TransportError(GatewayError):
    pass


class EndpointError(GatewayError):
    pass


class CacheMissError(GatewayError):
    pass


class UnreadableResponseError(SynthexError):
    """A model response yields no usable JSON object: bad model content, not a
    failed call, so it counts against yield and validity."""


class NoJsonFoundError(UnreadableResponseError):
    pass


class ResponseSyntaxError(UnreadableResponseError):
    """A JSON candidate was found but does not parse as strict JSON."""


class NoVerdictError(SynthexError):
    pass


VERDICTS = ("A", "B", "C", "D")

# Retry policy for every HTTP call: attempts, and the first backoff in seconds.
MAX_RETRIES = 3
BACKOFF = 0.5
# Seconds a chat-completion request may take.
CHAT_TIMEOUT = 120.0


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
      - ``record`` (default): read-through cache; a prompt without a usable
        entry goes to the endpoint and the response is stored.
      - ``replay``: cache only; a prompt without a usable entry raises
        :class:`CacheMissError`.

    A usable entry parses and stores this request's prompt, model and
    temperature. Safe to share across threads and processes.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        mode: str = "record",
        base_url: str = "",
        api_key: str = "",
    ):
        if mode not in ("record", "replay"):
            raise ValueError(f"unknown gateway mode {mode!r}")
        if cache_dir is None:
            raise ValueError("the gateway requires a cache directory")
        self.mode = mode
        self.cache_dir = Path(cache_dir)
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key

    def complete(self, prompt: str, params: GenerationParams) -> str:
        """Return the assistant message text for a single-turn prompt."""
        key = cache_key(prompt, params)
        try:
            return self._read_cache(key, prompt, params)
        except CacheMissError:
            if self.mode == "replay":
                raise
        text = self._call_endpoint(prompt, params)
        self.store(prompt, params, text)
        return text

    def store(self, prompt: str, params: GenerationParams, response_text: str):
        """Write one exchange to the cache (also seeds fixtures and imports)."""
        key = cache_key(prompt, params)
        payload = {
            "cache_key": key,
            "model_name": params.model_name,
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
            "prompt": prompt,
            "response_text": response_text,
        }
        with atomic_writer(self.cache_dir / f"{key}.json") as fh:
            fh.write(json.dumps(payload, ensure_ascii=False))

    # -- cache ---------------------------------------------------------------

    def _read_cache(self, key: str, prompt: str, params: GenerationParams) -> str:
        """The cached response, or CacheMissError naming the key and why."""
        try:
            data = load_json(self.cache_dir / f"{key}.json")
        except FileNotFoundError:
            raise CacheMissError(f"no cached response for key {key[:12]}…") from None
        except ValueError as exc:
            raise CacheMissError(f"cache entry {key[:12]}… does not parse: {exc}") from None
        if not isinstance(data.get("response_text"), str):
            raise CacheMissError(f"cache entry {key[:12]}… has no response_text")
        request = {"prompt": prompt, "model_name": params.model_name, "temperature": params.temperature}
        differing = [name for name, value in request.items() if data.get(name) != value]
        if differing:
            raise CacheMissError(f"cache entry {key[:12]}… stores another {' and '.join(differing)}")
        return data["response_text"]

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
        raw = post_json(f"{self.base_url}/chat/completions", body, api_key=self.api_key, timeout=CHAT_TIMEOUT)
        return self._parse_completion(raw)

    @staticmethod
    def _parse_completion(raw: bytes) -> str:
        try:
            content = decode_object(raw, lambda data: data["choices"][0]["message"]["content"], f"{raw[:200]!r}")
        except ValueError as exc:
            raise EndpointError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise EndpointError(f"completion content is not text: {content!r}")
        return content


def post_json(url: str, body: dict, *, api_key: str, timeout: float) -> bytes:
    """POST ``body`` as JSON and return the response body's bytes.

    429 and 5xx answers, connection errors and broken responses (a bad
    status line, a body cut short) are retried, for :data:`MAX_RETRIES`
    attempts in all, with exponential backoff from :data:`BACKOFF`; any
    other HTTP error raises :class:`EndpointError` at once, since client
    errors will not improve on retry. Exhausted retries raise the last
    :class:`EndpointError`, or :class:`TransportError` when no answer
    arrived whole.
    """
    payload = json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error: Exception | None = None
    for attempt in range(MAX_RETRIES):
        request = urllib.request.Request(url, data=payload, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            try:
                detail = exc.read().decode("utf-8", "replace")
            except (http.client.HTTPException, OSError) as read_error:
                detail = f"(body cut short: {read_error!r})"
            error = EndpointError(f"endpoint returned {exc.code}: {detail[:500]}")
            if exc.code != 429 and exc.code < 500:
                raise error from exc
            last_error = error
        except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
            last_error = exc
        if attempt + 1 < MAX_RETRIES:
            time.sleep(BACKOFF * (2**attempt))
    if isinstance(last_error, EndpointError):
        raise last_error
    raise TransportError(
        f"endpoint unreachable after {MAX_RETRIES} attempts: {last_error}"
    ) from last_error


def map_contained(fn, items, parallelism: int) -> list[tuple]:
    """Run ``fn`` over ``items`` on ``parallelism`` threads, in input order;
    one worker runs them in the calling thread. Each item yields
    ``(result, None)``, or ``(None, exc)`` when it raised a
    :class:`GatewayError`; any other exception propagates."""

    def contained(item):
        try:
            return fn(item), None
        except GatewayError as exc:
            return None, exc

    if parallelism == 1:
        return [contained(item) for item in items]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(contained, items))


# --- response text utilities -------------------------------------------------

_JSON_FENCE_OPEN = re.compile(r"```json\s*\n")
_BOXED = re.compile(r"\\boxed\{([^{}]*)\}")
_DECODER = json.JSONDecoder()
# The deepest nesting a response may hold. The decoder's own limit is the
# interpreter's recursion limit less the caller's stack depth, so it would
# make one response readable in one thread and unreadable in another.
MAX_JSON_DEPTH = 500
# A JSON string (an unterminated one runs to the end), or one bracket.
_JSON_NESTING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)|[\[\]{}]', re.DOTALL)


def _check_depth(candidate: str):
    """Raise ResponseSyntaxError when the first value of ``candidate`` nests
    deeper than MAX_JSON_DEPTH; brackets inside strings do not count."""
    if candidate.count("[") + candidate.count("{") <= MAX_JSON_DEPTH:
        return
    depth = 0
    for match in _JSON_NESTING.finditer(candidate):
        token = match.group()
        if token in ("[", "{"):
            depth += 1
            if depth > MAX_JSON_DEPTH:
                raise ResponseSyntaxError(f"candidate is not strict JSON: nested deeper than {MAX_JSON_DEPTH}")
        elif token in ("]", "}"):
            depth -= 1
            if depth == 0:
                return


def extract_json_block(response: str):
    """The decoded JSON payload of a model response; the one place a
    response is decoded.

    Prefers the first fenced block labeled ``json``, which ends at the next
    three backticks; a fence that never closes counts as none. Otherwise
    takes the first object the stdlib decoder reads from the first ``{``.
    The payload must be strict JSON: single-quoted pseudo-JSON is a syntax
    error, not something to repair, and so are nesting deeper than
    :data:`MAX_JSON_DEPTH`, whatever stack the caller runs on, and an integer
    over the interpreter's digit limit.
    """
    fence = _JSON_FENCE_OPEN.search(response)
    close = -1 if fence is None else response.find("```", fence.end())
    try:
        if close != -1:
            candidate = response[fence.end():close].strip()
            _check_depth(candidate)
            return json.loads(candidate)
        start = response.find("{")
        if start == -1:
            raise NoJsonFoundError("response contains no JSON object")
        # Decoding the slice keeps error positions relative to the candidate.
        candidate = response[start:]
        _check_depth(candidate)
        return _DECODER.raw_decode(candidate)[0]
    except (ValueError, RecursionError) as exc:
        raise ResponseSyntaxError(f"candidate is not strict JSON: {exc}") from exc


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
