import errno
import io
import json
import logging
import os
import re
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from ehrstruct import llm_client
from ehrstruct.llm_client import (
    ChatClient,
    ConfigurationError,
    Transcript,
    TransportError,
)
from ehrstruct.pipeline import PipelineConfig
from ehrstruct.terminology import InputFormatError


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("GENIE_API_KEY", "test-key")


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    monkeypatch.setattr(llm_client, "BACKOFF_BASE", 0.01)


def make_client(server, mode="live", transcript=None, **cfg_overrides):
    cfg = PipelineConfig(base_url=server.base_url if server else "http://127.0.0.1:1/v1", **cfg_overrides)
    return ChatClient(cfg, mode=mode, transcript=transcript)


class TestLiveMode:
    def test_success(self, stub_server):
        stub_server.reply = lambda prompt: f"echo:{prompt}"
        client = make_client(stub_server)
        assert client.complete("hello") == "echo:hello"

    def test_retries_on_5xx_then_succeeds(self, stub_server):
        stub_server.script = [500, 500, 200]
        client = make_client(stub_server, max_retries=3)
        stub_server.reply = lambda prompt: "ok"
        assert client.complete("x") == "ok"
        assert stub_server.request_count == 3

    def test_retries_on_429(self, stub_server):
        stub_server.script = [429, 200]
        client = make_client(stub_server, max_retries=2)
        assert client.complete("x") == "ok"
        assert stub_server.request_count == 2

    def test_retries_exhausted(self, stub_server):
        stub_server.script = [500]
        client = make_client(stub_server, max_retries=2)
        with pytest.raises(TransportError):
            client.complete("x")
        assert stub_server.request_count == 3  # initial + 2 retries

    def test_401_no_retry(self, stub_server):
        stub_server.script = [401]
        client = make_client(stub_server, max_retries=3)
        with pytest.raises(ConfigurationError):
            client.complete("x")
        assert stub_server.request_count == 1

    @pytest.mark.parametrize(
        "content", [None, [{"type": "text", "text": "ok"}], "x\ud800y"], ids=["null", "parts", "surrogate"]
    )
    def test_content_that_is_not_a_string_is_a_transport_error(self, stub_server, content):
        stub_server.reply = lambda prompt: content
        client = make_client(stub_server, mode="record", max_retries=2)
        with pytest.raises(TransportError, match="malformed completion response"):
            client.complete("x")
        assert stub_server.request_count == 1
        assert client.transcript.get("x") is None

    def test_missing_key_is_configuration_error(self, stub_server, monkeypatch):
        monkeypatch.delenv("GENIE_API_KEY")
        client = make_client(stub_server)
        with pytest.raises(ConfigurationError, match="GENIE_API_KEY"):
            client.complete("x")
        assert stub_server.request_count == 0

    def test_in_flight_bounded(self, stub_server):
        stub_server.delay = 0.05
        client = make_client(stub_server, max_in_flight=2)
        threads = [threading.Thread(target=client.complete, args=(f"p{i}",)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stub_server.request_count == 8
        assert stub_server.max_observed_in_flight <= 2

    def test_backoff_does_not_hold_an_in_flight_slot(self, stub_server, monkeypatch):
        stub_server.script = [500, 200]  # only the first request fails
        client = make_client(stub_server, max_in_flight=1)
        monkeypatch.setattr(llm_client, "BACKOFF_BASE", 1.0)
        backing_off = threading.Thread(target=client.complete, args=("retried",))
        backing_off.start()
        deadline = time.monotonic() + 5
        while stub_server.request_count < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        t0 = time.monotonic()
        assert client.complete("healthy") == "ok"
        waited = time.monotonic() - t0
        backing_off.join(timeout=10)
        assert not backing_off.is_alive()
        assert stub_server.prompts == ["retried", "healthy", "retried"]
        assert waited < 0.5  # the backoff sleeps at least 1 s

    def test_network_calls_counted_across_threads(self, stub_server):
        client = make_client(stub_server, max_in_flight=4)

        def worker():
            for i in range(25):
                client.complete(f"p{i}")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often enough to expose a lost update
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert stub_server.request_count == 100
        assert client.network_calls == 100


class TestCompleteAll:
    def test_answers_in_prompt_order_when_they_arrive_out_of_order(self, stub_server):
        answered = []  # prompts in the order the stub answers them

        def reply(prompt):
            answered.append(prompt)
            return f"echo:{prompt}"

        def hold_even(prompt):
            # an even prompt waits until four calls have been in flight at
            # once and the odd prompt after it has been answered
            i = int(prompt[1:])
            deadline = time.monotonic() + 10
            while i % 2 == 0 and time.monotonic() < deadline:
                if stub_server.max_observed_in_flight == 4 and f"p{i + 1}" in answered:
                    break
                time.sleep(0.001)
            return 0.0

        stub_server.reply = reply
        stub_server.delay = hold_even
        client = make_client(stub_server, max_in_flight=4)
        prompts = [f"p{i}" for i in range(10)]
        assert client.complete_all(prompts) == [f"echo:{p}" for p in prompts]
        assert answered != prompts  # the odd prompts overtook the even ones
        assert stub_server.max_observed_in_flight == 4

    def test_first_failure_in_prompt_order_is_raised(self, stub_server):
        # p1 is rejected at once, p0 only after p1: p0's error is the one raised
        stub_server.fault = lambda prompt: {"p0": 500, "p1": 400}.get(prompt)
        stub_server.delay = lambda prompt: 0.2 if prompt == "p0" else 0.0
        client = make_client(stub_server, max_in_flight=2, max_retries=0)
        with pytest.raises(TransportError, match="HTTP 500"):
            client.complete_all(["p0", "p1", "p2", "p3"])
        assert sorted(stub_server.prompts) == ["p0", "p1"]

    def test_replay_is_serial(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("replay started a thread pool")

        monkeypatch.setattr(llm_client, "ThreadPoolExecutor", no_pool)
        transcript = Transcript()
        for i in range(6):
            transcript.put(f"p{i}", f"r{i}")
        client = make_client(None, mode="replay", transcript=transcript, max_in_flight=4)
        assert client.complete_all([f"p{i}" for i in (5, 0, 3)]) == ["r5", "r0", "r3"]
        assert client.complete_all([]) == []

    def test_connection_pool_holds_max_in_flight_connections(self, stub_server, caplog):
        stub_server.delay = 0.05
        client = make_client(stub_server, max_in_flight=16)
        with caplog.at_level(logging.WARNING, logger="urllib3"):
            answers = client.complete_all([f"p{i}" for i in range(48)])
        assert answers == ["ok"] * 48
        assert stub_server.max_observed_in_flight == 16
        assert stub_server.connections == 16
        assert not [r for r in caplog.records if "pool is full" in r.getMessage()]


class TestReplayMode:
    def test_recorded_response_no_network(self):
        transcript = Transcript()
        transcript.put("prompt one", "recorded answer")
        client = make_client(None, mode="replay", transcript=transcript)
        assert client.complete("prompt one") == "recorded answer"
        assert client.network_calls == 0

    def test_unknown_prompt_errors(self):
        client = make_client(None, mode="replay", transcript=Transcript())
        with pytest.raises(ConfigurationError):
            client.complete("never recorded")

    def test_replay_requires_transcript(self):
        with pytest.raises(ConfigurationError):
            ChatClient(PipelineConfig(), mode="replay")

    def test_replay_deterministic(self):
        transcript = Transcript()
        transcript.put("p", "r")
        client = make_client(None, mode="replay", transcript=transcript)
        assert client.complete("p") == client.complete("p") == "r"


class TestRecordMode:
    def test_record_then_replay_round_trip(self, stub_server, tmp_path):
        stub_server.reply = lambda prompt: f"resp:{prompt}"
        recorder = make_client(stub_server, mode="record")
        first = recorder.complete("alpha")
        path = tmp_path / "transcript.jsonl"
        recorder.transcript.save(path)
        replayer = make_client(None, mode="replay", transcript=Transcript.load(path))
        assert replayer.complete("alpha") == first
        assert replayer.network_calls == 0


class TestTranscript:
    def test_a_repeated_prompt_fails_at_its_line(self, tmp_path):
        # a second answer to one prompt was kept without a word; a saved
        # transcript never repeats a prompt
        path = tmp_path / "t.jsonl"
        path.write_text('{"prompt": "p", "response": "a"}\n{"prompt": "p", "response": "b"}\n', encoding="utf-8")
        with pytest.raises(InputFormatError, match=rf"^{re.escape(str(path))}:2: duplicate prompt 'p' \(SHA-1 [0-9a-f]{{40}}\), first on line 1$"):
            Transcript.load(path)

    def test_a_repeated_long_prompt_is_named_briefly(self, tmp_path):
        prompt = "Here is one part of a medical note:\n\n" + "fever " * 1000 + "\nHere are the terms:fever"
        same_ends = prompt.replace("fever fever", "fever chills", 1)  # differs in the middle only
        path = tmp_path / "t.jsonl"
        lines = [json.dumps({"prompt": p, "response": "fever: null"}) for p in (prompt, same_ends, prompt)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=", first on line 1$") as exc:
            Transcript.load(path)
        assert exc.value.lineno == 3
        assert len(str(exc.value)) < len(str(path)) + 150

    def test_save_load_byte_identical_responses(self, tmp_path):
        t = Transcript()
        t.put("p1", "line one\nline two")
        t.put("p2", "unicode ° ≤")
        path = tmp_path / "t.jsonl"
        t.save(path)
        loaded = Transcript.load(path)
        assert loaded.get("p1") == "line one\nline two"
        assert loaded.get("p2") == "unicode ° ≤"

    def test_saved_lines_carry_prompt_and_response_only(self, tmp_path):
        t = Transcript()
        t.put("p1", "r1")
        t.put("p2", "r2")
        t.put("p1", "r1 again")
        path = tmp_path / "t.jsonl"
        t.save(path)
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            {"prompt": "p1", "response": "r1 again"},
            {"prompt": "p2", "response": "r2"},
        ]

    def test_saved_lines_sorted_by_prompt(self, tmp_path):
        paths = []
        for order in (["b", "c", "a"], ["c", "a", "b"]):
            t = Transcript()
            for prompt in order:
                t.put(prompt, prompt.upper())
            paths.append(tmp_path / f"{''.join(order)}.jsonl")
            t.save(paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        lines = [json.loads(line)["prompt"] for line in paths[0].read_text(encoding="utf-8").splitlines()]
        assert lines == ["a", "b", "c"]

    @pytest.mark.parametrize("cut", ["nothing", "a line end", "mid-line", "all but one byte"])
    def test_disk_that_fills_during_a_save_keeps_the_old_transcript(self, tmp_path, monkeypatch, cut):
        old, new = Transcript(), Transcript()
        for i in range(40):
            old.put(f"p{i}", f"old answer {i}")
            new.put(f"p{i}", f"new answer {i}\nwith a second line")
        path = tmp_path / "t.jsonl"
        new.save(path)
        whole = path.read_bytes()
        old.save(path)
        before = path.read_bytes()
        room = {"nothing": 0, "a line end": whole.index(b"\n") + 1, "mid-line": len(whole) // 2,
                "all but one byte": len(whole) - 1}[cut]
        written = 0

        class Filling(io.FileIO):  # takes room bytes, then fails every write
            def write(self, data):
                nonlocal written
                n = min(len(data), room - written)
                if n <= 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written += n
                return super().write(memoryview(data)[:n])

        def filling_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
            # open for writing, with a raw file that fills
            writer = io.BufferedWriter(Filling(file, mode.strip("bt")))
            return io.TextIOWrapper(writer, encoding=encoding, errors=errors, newline=newline)

        with monkeypatch.context() as m:
            m.setattr("builtins.open", filling_open)
            m.setattr(Path, "open", filling_open)
            with pytest.raises(OSError, match="No space left"):
                new.save(path)
        assert written == room  # the save failed once the disk was full
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_saved_transcript_has_the_mode_of_a_written_file(self, tmp_path):
        t = Transcript()
        t.put("p1", "r1")
        (tmp_path / "written").write_text("", encoding="utf-8")
        t.save(tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").stat().st_mode == (tmp_path / "written").stat().st_mode
        # saving over a file keeps its mode, as writing into it did
        (tmp_path / "t.jsonl").chmod(0o600)
        t.save(tmp_path / "t.jsonl")
        assert stat.S_IMODE((tmp_path / "t.jsonl").stat().st_mode) == 0o600
        # and saving through a symbolic link writes the file it names
        (tmp_path / "link.jsonl").symlink_to("t.jsonl")
        t.put("p2", "r2")
        t.save(tmp_path / "link.jsonl")
        assert (tmp_path / "link.jsonl").is_symlink()
        assert Transcript.load(tmp_path / "t.jsonl").get("p2") == "r2"

    def test_loads_lines_with_old_hash_field(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"hash": "0" * 64, "prompt": "p1", "response": "r1"}) + "\n",
            encoding="utf-8",
        )
        assert Transcript.load(path).get("p1") == "r1"


def test_config_validation():
    # ChatClient checks its endpoint settings when it is built, in any mode
    with pytest.raises(ValueError):
        make_client(None, max_retries=-1)
    with pytest.raises(ValueError):
        make_client(None, mode="replay", transcript=Transcript(), max_in_flight=0)
    with pytest.raises(ValueError, match="^max_retries must be >= 0; max_in_flight must be >= 1; timeout must be positive$"):
        make_client(None, timeout=-1, max_in_flight=0, max_retries=-1)


def test_request_pins_temperature_to_zero():
    posted = []

    class FakeResponse:
        status_code = 200

        def json(self):
            return {"choices": [{"message": {"content": "ok"}}]}

    class FakeSession:
        def post(self, url, json, headers, timeout):
            posted.append(json)
            return FakeResponse()

    client = ChatClient(PipelineConfig(), session=FakeSession())
    assert client.complete("p") == "ok"
    assert [body["temperature"] for body in posted] == [0.0]


def test_timeout_must_be_positive():
    for timeout in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="timeout must be positive"):
            make_client(None, timeout=timeout)


def test_timeout_must_fit_a_socket():
    # a socket's settimeout overflows above threading.TIMEOUT_MAX, an error
    # that requests passes through uncaught
    for timeout in (float("inf"), 1e10, threading.TIMEOUT_MAX * (1 + 1e-15)):
        with pytest.raises(ValueError, match=f"^timeout must be at most {threading.TIMEOUT_MAX:.0f} s$"):
            make_client(None, timeout=timeout)
    assert make_client(None, timeout=threading.TIMEOUT_MAX).cfg.timeout == threading.TIMEOUT_MAX


def test_requests_is_imported_only_for_a_live_call(stub_server):
    # the rule and replay backends never send a request, so importing the
    # CLI or answering from a transcript must not pay for importing requests
    stub_server.reply = lambda prompt: f"echo:{prompt}"
    script = f"""
import sys
import ehrstruct.cli
from ehrstruct.llm_client import ChatClient, Transcript
from ehrstruct.pipeline import PipelineConfig
assert "requests" not in sys.modules, "imported with the CLI"
transcript = Transcript()
transcript.put("p", "recorded")
assert ChatClient(PipelineConfig(), mode="replay", transcript=transcript).complete("p") == "recorded"
assert "requests" not in sys.modules, "imported for a replay"
client = ChatClient(PipelineConfig(base_url={stub_server.base_url!r}))
assert client.complete("hello") == "echo:hello"
assert "requests" in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "NO_PROXY": "127.0.0.1,localhost"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert stub_server.prompts == ["hello"]
