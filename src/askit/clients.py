"""Model-client backends behind one `complete(messages, *, temperature)` interface.

Four interchangeable clients:

* LiveClient: HTTP to an OpenAI-compatible chat-completions endpoint.
* RecordingClient: wraps another client and appends every exchange to a
  JSON-lines fixture store.
* ReplayClient: serves recorded responses by request digest; fully offline.
* ScriptedClient: hands out a fixed response list in order, for tests.

Fixture records are keyed by a digest of (model id, temperature bucket,
ordered message contents). Identical requests recorded several times (code
generation retries resend the same prompt) replay as an ordered list with a
per-key cursor. A client holds no temperature: each call names its own.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .encoding import stable_digest
from .errors import (
    ClientError,
    FixtureMiss,
    HttpError,
    RequestTimeout,
    ResponseTooLarge,
    ScriptExhausted,
)
from .prompts import Message

MODEL_ENV_VAR = "ASKIT_MODEL"
API_KEY_ENV_VAR = "OPENAI_API_KEY"
DEFAULT_MODEL_ID = "gpt-3.5-turbo-16k"
DEFAULT_BASE_URL = "https://api.openai.com/v1"


@dataclass(frozen=True)
class ClientConfig:
    model_id: str = DEFAULT_MODEL_ID
    api_key: str = ""
    base_url: str = DEFAULT_BASE_URL
    timeout: float = 60.0
    max_response_bytes: int = 4 * 1024 * 1024

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    @classmethod
    def from_env(cls, **overrides) -> "ClientConfig":
        """Config from ASKIT_MODEL / OPENAI_API_KEY, plus explicit overrides."""
        config = cls(
            model_id=os.environ.get(MODEL_ENV_VAR, DEFAULT_MODEL_ID),
            api_key=os.environ.get(API_KEY_ENV_VAR, ""),
        )
        return replace(config, **overrides) if overrides else config


def fixture_key(model_id: str, temperature: float, messages: Sequence[Message]) -> str:
    """Digest identifying one request for the fixture store.

    Temperature enters as a one-decimal bucket so tiny float drift does not
    split keys.
    """
    payload = [model_id, f"{float(temperature):.1f}", [[m.role, m.content] for m in messages]]
    return stable_digest(payload, length=16)


class _TransientTransportFailure(Exception):
    """Connection-level failure worth exactly one retry."""


# (url, body, headers, timeout, max_bytes) -> (status, headers, body). The
# body is read to at most max_bytes + 1 so an oversized response is detected
# without buffering it whole.
Transport = Callable[
    [str, bytes, Mapping[str, str], float, int], tuple[int, Mapping[str, str], bytes]
]


def _urllib_transport(url, data, headers, timeout, max_bytes):
    import http.client  # the HTTP stack (ssl, email) loads at the first live request
    import urllib.error
    import urllib.request
    request = urllib.request.Request(url, data=data, headers=dict(headers), method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read(max_bytes + 1)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), exc.read(max_bytes + 1)
    except TimeoutError as exc:
        raise _TransientTransportFailure(f"timed out after {timeout}s") from exc
    except urllib.error.URLError as exc:
        raise _TransientTransportFailure(str(exc.reason)) from exc
    except (http.client.HTTPException, OSError) as exc:
        raise _TransientTransportFailure(f"{type(exc).__name__}: {exc}") from exc


class LiveClient:
    """Chat-completion client for any OpenAI-compatible server.

    Single-choice completions only (n=1). One transport-level retry on
    transient failure; HTTP 429 honors Retry-After (capped) once.
    """

    RETRY_AFTER_CAP_S = 10.0

    def __init__(self, config: ClientConfig | None = None, transport: Transport | None = None):
        self.config = config or ClientConfig.from_env()
        self._transport = transport or _urllib_transport
        self._lock = threading.Lock()
        self.call_count = 0

    @property
    def model_id(self) -> str:
        return self.config.model_id

    def complete(self, messages: Sequence[Message], *, temperature: float) -> str:
        if not messages:
            raise ValueError("dialogue must be non-empty")
        with self._lock:
            self.call_count += 1
        body = json.dumps(
            {
                "model": self.config.model_id,
                "messages": [m.to_wire() for m in messages],
                "temperature": temperature,
                "n": 1,
            }
        ).encode("utf-8")
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"

        status, resp_headers, payload = self._post_with_retry(url, body, headers)
        if len(payload) > self.config.max_response_bytes:
            raise ResponseTooLarge(f"{len(payload)} bytes > {self.config.max_response_bytes}")
        if status != 200:
            raise HttpError(status, payload[:200].decode("utf-8", errors="replace"))
        try:
            decoded = json.loads(payload)
            return decoded["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ClientError(f"malformed completion response: {exc}") from exc

    def _post_with_retry(self, url, body, headers):
        def send():
            return self._transport(
                url, body, headers, self.config.timeout, self.config.max_response_bytes
            )

        try:
            status, resp_headers, payload = send()
        except _TransientTransportFailure as first:
            try:
                return send()
            except _TransientTransportFailure as exc:
                raise RequestTimeout(str(exc)) from first
        if status == 429:
            delay = _retry_after_seconds(resp_headers, self.RETRY_AFTER_CAP_S)
            time.sleep(delay)
            try:
                return send()
            except _TransientTransportFailure as exc:
                raise RequestTimeout(str(exc)) from exc
        return status, resp_headers, payload


def _retry_after_seconds(headers: Mapping[str, str], cap: float) -> float:
    raw = None
    for name, value in headers.items():
        if name.lower() == "retry-after":
            raw = value
            break
    try:
        return min(max(float(raw), 0.0), cap) if raw is not None else 1.0
    except ValueError:
        return 1.0


class RecordingClient:
    """Wraps another client and persists each exchange as one JSONL record."""

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()
        self.call_count = 0

    @property
    def model_id(self) -> str:
        return self.inner.model_id

    def complete(self, messages: Sequence[Message], *, temperature: float) -> str:
        response = self.inner.complete(messages, temperature=temperature)
        record = {
            "key": fixture_key(self.model_id, temperature, messages),
            "request": {
                "model": self.model_id,
                "temperature": temperature,
                "messages": [m.to_wire() for m in messages],
            },
            "response": response,
        }
        line = json.dumps(record, ensure_ascii=False)
        with self._lock:
            self.call_count += 1
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        return response


class ReplayClient:
    """Serves recorded responses; performs no network activity.

    Responses recorded under the same key replay in file order via a per-key
    cursor. With cycle=True the cursor wraps instead of missing, which the
    bench command uses to repeat one request k times. delay_s sleeps before
    every response to simulate call latency.
    """

    def __init__(
        self,
        path: str | Path,
        model_id: str | None = None,
        cycle: bool = False,
        delay_s: float = 0.0,
    ):
        self.model_id = model_id or os.environ.get(MODEL_ENV_VAR, DEFAULT_MODEL_ID)
        self.cycle = cycle
        self.delay_s = delay_s
        self._store: dict[str, list[str]] = {}
        self._cursors: dict[str, int] = {}
        self._lock = threading.Lock()
        self.call_count = 0
        if os.path.exists(path):
            with open(path, "rb") as handle:  # decoded per line, so a line that is not UTF-8 is named too
                for number, line in enumerate(handle, 1):
                    try:
                        if line.strip():
                            record = json.loads(line.decode("utf-8"))
                            self._store.setdefault(record["key"], []).append(record["response"])
                    except (ValueError, KeyError, TypeError) as exc:
                        raise ClientError(f"malformed fixture store {path}, line {number}: {exc!r}") from None

    def complete(self, messages: Sequence[Message], *, temperature: float) -> str:
        key = fixture_key(self.model_id, temperature, messages)
        with self._lock:
            self.call_count += 1
            responses = self._store.get(key)
            if not responses:
                raise FixtureMiss(key)
            index = self._cursors.get(key, 0)
            if index >= len(responses):
                if not self.cycle:
                    raise FixtureMiss(key)
                index = index % len(responses)
            self._cursors[key] = index + 1
            response = responses[index]
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        return response


class ScriptedClient:
    """Pops canned responses in order, ignoring the request entirely.

    Keeps every request it saw in `.requests` so tests can inspect the
    dialogue the caller sent.
    """

    def __init__(self, responses: Sequence[str], model_id: str = "scripted"):
        self.model_id = model_id
        self._responses = list(responses)
        self._next = 0
        self._lock = threading.Lock()
        self.call_count = 0
        self.requests: list[tuple[tuple[Message, ...], float]] = []

    def complete(self, messages: Sequence[Message], *, temperature: float) -> str:
        with self._lock:
            self.call_count += 1
            self.requests.append((tuple(messages), temperature))
            if self._next >= len(self._responses):
                raise ScriptExhausted(f"script exhausted after {len(self._responses)} responses")
            response = self._responses[self._next]
            self._next += 1
            return response
