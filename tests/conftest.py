import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from pathlib import Path

import pytest

from ehrstruct.terminology import AbbreviationTable, load_lexicon

DATA = resources.files("ehrstruct.data")
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def lexicon_path():
    return str(DATA / "sample_lexicon.tsv")


@pytest.fixture(scope="session")
def abbrev_path():
    return str(DATA / "sample_abbreviations.tsv")


@pytest.fixture(scope="session")
def sample_index(lexicon_path):
    index, _ = load_lexicon(lexicon_path)
    return index


@pytest.fixture(scope="session")
def abbrev_table(abbrev_path):
    return AbbreviationTable.load(abbrev_path)


class _StubHandler(BaseHTTPRequestHandler):
    """Scriptable chat-completions endpoint for client tests.

    The server object carries `script` (a list of status codes; the last one
    repeats), `reply` (a callable from prompt text to response text), `delay`
    (seconds before answering, or a callable from prompt text to seconds) and
    `fault` (a callable from prompt text to None, an HTTP status to answer
    with, "non-json" for a 200 whose body is not JSON, "null-content" for
    a 200 whose message content is null, or "surrogate" for a 200 whose
    content holds a lone surrogate escape). It keeps each
    prompt in `prompts`, in arrival order, and counts requests, connections
    and the most requests in flight at once. Connections are kept alive, as a
    real endpoint keeps them.
    """

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        # headers and body leave at once, not a delayed ACK apart
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        prompt = body.get("messages", [{}])[0].get("content", "")
        with server.lock:
            server.request_count += 1
            server.prompts.append(prompt)
            server.in_flight += 1
            server.max_observed_in_flight = max(server.max_observed_in_flight, server.in_flight)
            idx = min(server.request_count - 1, len(server.script) - 1)
            status = server.script[idx]
        try:
            fault = server.fault(prompt)
            delay = server.delay(prompt) if callable(server.delay) else server.delay
            if delay:
                time.sleep(delay)
            if isinstance(fault, int):
                status = fault
            if status != 200:
                payload = b"{}"
            elif fault == "non-json":
                payload = b"<html>bad gateway</html>"
            else:
                content = None if fault == "null-content" else "x\ud800y" if fault == "surrogate" else server.reply(prompt)
                payload = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        finally:
            with server.lock:
                server.in_flight -= 1

    def log_message(self, *args):
        pass


class _StubServer(ThreadingHTTPServer):
    request_queue_size = 64  # many clients may connect at once

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its connection


@pytest.fixture
def stub_server():
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    server.script = [200]
    server.reply = lambda prompt: "ok"
    server.delay = 0.0
    server.fault = lambda prompt: None
    server.prompts = []
    server.request_count = 0
    server.connections = 0
    server.in_flight = 0
    server.max_observed_in_flight = 0
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.base_url = f"http://127.0.0.1:{server.server_address[1]}/v1"
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
