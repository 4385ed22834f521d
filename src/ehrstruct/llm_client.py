"""Minimal client for OpenAI-compatible chat-completion endpoints.

Supports three modes: live (HTTP with retry/backoff and a bounded in-flight
semaphore), record (live plus transcript capture), and replay (transcript
only, zero network). Replay keeps the whole test suite deterministic and
offline.

The client reads its endpoint settings from a `PipelineConfig` and checks
them when it is built (`endpoint_problems`). A live answer that is not a
string UTF-8 can hold (null, a list of parts, a lone surrogate) is malformed.

`complete` sends one prompt. `complete_all` sends a batch at once on a
short-lived pool of up to `max_in_flight` threads and returns the answers in
prompt order; the one semaphore still bounds the calls in flight across every
caller, and the HTTP connection pool holds `max_in_flight` connections. Once a
prompt of the batch fails, the prompts not yet sent are dropped and the first
failure in prompt order is raised. Replay answers a batch serially.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import reprlib
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING

from .terminology import read_jsonl

if TYPE_CHECKING:
    import requests

    from .pipeline import PipelineConfig

# seconds before the first retry of a live call; each later retry waits
# twice as long, plus up to 25% jitter
BACKOFF_BASE = 1.0


class TransportError(RuntimeError):
    """Retries exhausted or the endpoint is unreachable."""


class ConfigurationError(RuntimeError):
    """Missing credentials or a request the server rejects outright."""


class _Cancelled(Exception):
    """Another prompt of the batch failed before this one was sent."""


def endpoint_problems(timeout: float, max_retries: int, max_in_flight: int) -> list[str]:
    """What is wrong with these endpoint settings; empty means valid."""
    problems = []
    if max_retries < 0:
        problems.append("max_retries must be >= 0")
    if max_in_flight < 1:
        problems.append("max_in_flight must be >= 1")
    if not timeout > 0:  # NaN too: a socket rejects it at every call
        problems.append("timeout must be positive")
    elif timeout > threading.TIMEOUT_MAX:  # inf too: a socket's settimeout overflows
        problems.append(f"timeout must be at most {threading.TIMEOUT_MAX:.0f} s")
    return problems


class Transcript:
    """Prompt -> response store for record/replay, persisted as JSONL lines
    of {"prompt", "response"} sorted by prompt, so that a saved transcript
    does not depend on the order the answers came back in."""

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
        """Read a saved transcript (`read_jsonl`) of string prompts and responses, each prompt once."""
        t = cls()
        for prompt, response in read_jsonl(path, _exchange, key=_prompt_name):
            t.put(prompt, response)
        return t

    def save(self, path) -> None:
        """Write the transcript to a new file beside path, then rename it over
        path, so a save that fails (a full disk, say) leaves path as it was."""
        with self._lock:
            records = sorted(self._responses.items())
        path = Path(path).resolve()  # a symbolic link keeps pointing at the file it names
        draft = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        fh = open(draft, "x", encoding="utf-8")  # the mode open(path, "w") gives a new file
        try:
            with fh:
                for prompt, response in records:
                    fh.write(json.dumps({"prompt": prompt, "response": response}, ensure_ascii=False) + "\n")
            if path.exists():
                shutil.copymode(path, draft)  # as writing into the file kept its mode
            os.replace(draft, path)
        except BaseException:
            draft.unlink(missing_ok=True)
            raise


def _prompt_name(exchange: tuple[str, str]) -> str:
    """A prompt, which may be a page long, named by its ends and its SHA-1."""
    prompt = exchange[0]
    digest = hashlib.sha1(prompt.encode("utf-8")).hexdigest()
    return f"prompt {reprlib.repr(prompt)} (SHA-1 {digest})"


def _exchange(record: dict) -> tuple[str, str]:
    prompt, response = record["prompt"], record["response"]
    if not isinstance(prompt, str) or not isinstance(response, str):
        raise ValueError("'prompt' and 'response' must be strings")
    for text in (prompt, response):
        text.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return prompt, response


class ChatClient:
    """Thread-safe chat-completion client with bounded concurrency."""

    def __init__(
        self,
        cfg: PipelineConfig,
        mode: str = "live",
        transcript: Transcript | None = None,
        session: requests.Session | None = None,
    ):
        problems = endpoint_problems(cfg.timeout, cfg.max_retries, cfg.max_in_flight)
        if problems:
            raise ValueError("; ".join(problems))
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "replay" and transcript is None:
            raise ConfigurationError("replay mode requires a transcript")
        self.cfg = cfg
        self.mode = mode
        self.transcript = transcript if transcript is not None else Transcript()
        if session is None and mode != "replay":
            # requests is imported here, not with this module: the import
            # takes about 0.12 s (2 vCPUs), which the rule and replay
            # backends, which never send, would pay on every run
            import requests

            # One pooled connection per call in flight: a smaller pool opens
            # and discards a connection for every call beyond its size.
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(pool_maxsize=self.cfg.max_in_flight)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self._session = session
        self._semaphore = threading.Semaphore(self.cfg.max_in_flight)
        self.network_calls = 0
        self._calls_lock = threading.Lock()

    def complete(self, prompt: str, cancel: threading.Event | None = None) -> str:
        """The answer to one prompt. A live call that finds `cancel` set when
        it gets its in-flight slot, or before a retry, sends nothing more."""
        if self.mode == "replay":
            recorded = self.transcript.get(prompt)
            if recorded is None:
                raise ConfigurationError("prompt not found in replay transcript")
            return recorded
        response = self._complete_live(prompt, cancel)
        if self.mode == "record":
            self.transcript.put(prompt, response)
        return response

    def complete_all(self, prompts: list[str]) -> list[str]:
        """The answers to `prompts`, in prompt order, sent concurrently on a
        pool of min(len(prompts), max_in_flight) threads; replay answers them
        serially. When a prompt fails, the prompts not yet sent are dropped
        and the first failure in prompt order is raised."""
        threads = min(len(prompts), self.cfg.max_in_flight)
        if self.mode == "replay" or threads <= 1:
            return [self.complete(prompt) for prompt in prompts]
        failed = threading.Event()

        def one(prompt):
            try:
                return self.complete(prompt, cancel=failed)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(one, prompt) for prompt in prompts]
        for future in futures:
            exc = future.exception()
            if exc is not None and not isinstance(exc, _Cancelled):
                raise exc
        return [future.result() for future in futures]

    def _complete_live(self, prompt: str, cancel: threading.Event | None) -> str:
        import requests

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
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:  # back off outside the slot, so others can use it
                delay = BACKOFF_BASE * (2 ** (attempt - 1))
                time.sleep(delay * (1.0 + random.random() * 0.25))
            with self._semaphore:
                if cancel is not None and cancel.is_set():
                    raise _Cancelled
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
                        content = resp.json()["choices"][0]["message"]["content"]
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        raise TransportError(f"malformed completion response: {exc}") from exc
                    try:  # AttributeError: null, or a list of parts
                        content.encode("utf-8")  # a lone surrogate, which no transcript can hold
                    except (AttributeError, UnicodeEncodeError):
                        raise TransportError(f"malformed completion response: content is {content!r:.80}") from None
                    return content
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = TransportError(f"HTTP {resp.status_code}")
                    continue
                # other 4xx: never retried
                raise ConfigurationError(f"request rejected: HTTP {resp.status_code}")
        raise TransportError(f"retries exhausted: {last_error}")
