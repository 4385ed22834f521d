"""Minimal client for OpenAI-compatible chat-completion endpoints.

Supports three modes: live (HTTP with retry/backoff and a bounded in-flight
semaphore), record (live plus transcript capture), and replay (transcript
only, zero network). Replay keeps the whole test suite deterministic and
offline.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import requests

DEFAULT_API_KEY_ENV = "GENIE_API_KEY"


class TransportError(RuntimeError):
    """Retries exhausted or the endpoint is unreachable."""


class ConfigurationError(RuntimeError):
    """Missing credentials or a request the server rejects outright."""


@dataclass
class EndpointConfig:
    base_url: str = "http://localhost:8000/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 4
    backoff_base: float = 1.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class Transcript:
    """Prompt -> response store for record/replay, persisted as JSONL lines
    of {"prompt", "response"} in first-recorded order."""

    def __init__(self):
        self._responses: dict[str, str] = {}
        self._lock = threading.Lock()

    def get(self, prompt: str) -> str | None:
        return self._responses.get(prompt)

    def put(self, prompt: str, response: str) -> None:
        with self._lock:
            self._responses[prompt] = response

    @classmethod
    def load(cls, path) -> "Transcript":
        t = cls()
        with Path(path).open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                t.put(rec["prompt"], rec["response"])
        return t

    def save(self, path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for prompt, response in self._responses.items():
                fh.write(
                    json.dumps({"prompt": prompt, "response": response}, ensure_ascii=False)
                    + "\n"
                )


class ChatClient:
    """Thread-safe chat-completion client with bounded concurrency."""

    def __init__(
        self,
        cfg: EndpointConfig | None = None,
        mode: str = "live",
        transcript: Transcript | None = None,
        session: requests.Session | None = None,
    ):
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "replay" and transcript is None:
            raise ConfigurationError("replay mode requires a transcript")
        self.cfg = cfg or EndpointConfig()
        self.mode = mode
        self.transcript = transcript if transcript is not None else Transcript()
        self._session = session or requests.Session()
        self._semaphore = threading.Semaphore(self.cfg.max_in_flight)
        self.network_calls = 0
        self._calls_lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        if self.mode == "replay":
            recorded = self.transcript.get(prompt)
            if recorded is None:
                raise ConfigurationError("prompt not found in replay transcript")
            return recorded
        response = self._complete_live(prompt)
        if self.mode == "record":
            self.transcript.put(prompt, response)
        return response

    def _complete_live(self, prompt: str) -> str:
        api_key = os.environ.get(self.cfg.api_key_env)
        if not api_key:
            raise ConfigurationError(
                f"API key missing: set the {self.cfg.api_key_env} environment variable"
            )
        url = self.cfg.base_url.rstrip("/") + "/chat/completions"
        body = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,  # pinned for determinism
        }
        headers = {"Authorization": f"Bearer {api_key}"}
        last_error = None
        with self._semaphore:
            for attempt in range(self.cfg.max_retries + 1):
                if attempt:
                    delay = self.cfg.backoff_base * (2 ** (attempt - 1))
                    time.sleep(delay * (1.0 + random.random() * 0.25))
                try:
                    with self._calls_lock:
                        self.network_calls += 1
                    resp = self._session.post(
                        url, json=body, headers=headers, timeout=self.cfg.timeout
                    )
                except requests.RequestException as exc:
                    last_error = exc
                    continue
                if resp.status_code == 200:
                    try:
                        return resp.json()["choices"][0]["message"]["content"]
                    except (KeyError, IndexError, ValueError) as exc:
                        raise TransportError(f"malformed completion response: {exc}") from exc
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = TransportError(f"HTTP {resp.status_code}")
                    continue
                # other 4xx: never retried
                raise ConfigurationError(f"request rejected: HTTP {resp.status_code}")
        raise TransportError(f"retries exhausted: {last_error}")
