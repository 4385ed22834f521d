"""OpenAI-compatible chat-completions stub for the llm_stub workload.

It understands today's prompt format: one prompt per (chunk, attribute kind),
the kind named in the instruction ('body location' for the location
template), and the terms listed one per line after 'Here are the terms:'.
It answers every listed term with `answer(term, kind)`, a fixed function the
benchmark's checker recomputes, and waits `wait_seconds(prompt, response)`
before replying, so that waiting for the model dominates a note's time.

Run standalone, it prints 'PORT <n>' on stdout and serves until killed or
until its stdin closes (the benchmark holds the other end, so the stub never
outlives it):

    python3 perfbench/stub.py

GET /stats returns its call, character and timing counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Latency model: fixed per-call cost, prompt reading and answer writing.
# The constants are chosen, not measured on a model: large enough that
# waiting is most of a note's time, small enough for whole rounds to fit a
# run. Real decoding is far slower per response character, so gains measured
# against this stub are relative to this model.
BASE_MS = 20.0
PROMPT_MS_PER_KCHAR = 4.0
RESPONSE_MS_PER_KCHAR = 40.0

TERMS_MARK = "Here are the terms:"
_KIND = re.compile(r"output its (\w+) according to the note")


def wait_seconds(prompt_chars: int, response_chars: int) -> float:
    return (
        BASE_MS
        + PROMPT_MS_PER_KCHAR * prompt_chars / 1000.0
        + RESPONSE_MS_PER_KCHAR * response_chars / 1000.0
    ) / 1000.0


def answer(term: str, kind: str) -> str:
    """The stub's value for one term and attribute kind."""
    digest = hashlib.sha1(f"{kind}|{term.lower()}".encode("utf-8")).hexdigest()[:8]
    return f"{kind}-{digest}"


def parse_prompt(prompt: str) -> tuple[str, list[str]]:
    """(kind, terms) of a per-kind attribute prompt; raises ValueError."""
    head, mark, tail = prompt.rpartition(TERMS_MARK)
    if not mark:
        raise ValueError("no term list in prompt")
    if "output its body location" in head:
        kind = "location"
    else:
        m = _KIND.search(head)
        if m is None:
            raise ValueError("no attribute kind in prompt")
        kind = m.group(1)
    terms = [t.strip() for t in tail.split("\n") if t.strip()]
    return kind, terms


def respond(prompt: str) -> str:
    kind, terms = parse_prompt(prompt)
    return "\n".join(f"{t}: {answer(t, kind)}" for t in terms)


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address=("127.0.0.1", 0), latency: bool = True):
        super().__init__(address, _Handler)
        self.latency = latency
        self.lock = threading.Lock()
        self.stats = {
            "calls": 0,
            "errors": 0,
            "prompt_chars": 0,
            "response_chars": 0,
            "wait_ms": 0.0,
            "own_ms": 0.0,  # parsing, answering and writing, without the wait
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive

    def setup(self):
        super().setup()
        # Headers and body leave at once: with Nagle on, a small second
        # write waits for the client's delayed ACK, about 40 ms a call.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path.rstrip("/") != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            stats = dict(self.server.stats)
        self._send(200, stats)

    def do_POST(self):
        server = self.server
        t0 = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length))
            prompt = body["messages"][0]["content"]
            content = respond(prompt)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            with server.lock:
                server.stats["errors"] += 1
            self._send(400, {"error": str(exc)})
            return
        payload = {
            "object": "chat.completion",
            "model": body.get("model", "stub"),
            "choices": [{"index": 0, "message": {"role": "assistant", "content": content}}],
        }
        t1 = time.perf_counter()
        wait = wait_seconds(len(prompt), len(content)) if server.latency else 0.0
        if wait:
            time.sleep(wait)
        t2 = time.perf_counter()
        self._send(200, payload)
        t3 = time.perf_counter()
        with server.lock:
            s = server.stats
            s["calls"] += 1
            s["prompt_chars"] += len(prompt)
            s["response_chars"] += len(content)
            s["wait_ms"] += (t2 - t1) * 1000.0
            s["own_ms"] += ((t1 - t0) + (t3 - t2)) * 1000.0

    def log_message(self, *args):
        pass


def _exit_when_parent_goes() -> None:
    sys.stdin.read()
    os._exit(0)


def main() -> int:
    server = StubServer()
    threading.Thread(target=_exit_when_parent_goes, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
