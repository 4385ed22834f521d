import json
import sys
import threading

import pytest

from ehrstruct.llm_client import (
    ChatClient,
    ConfigurationError,
    EndpointConfig,
    Transcript,
    TransportError,
)


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("GENIE_API_KEY", "test-key")


def make_client(server, mode="live", transcript=None, **cfg_overrides):
    cfg = EndpointConfig(
        base_url=server.base_url if server else "http://127.0.0.1:1/v1",
        backoff_base=0.01,
        **cfg_overrides,
    )
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
            ChatClient(EndpointConfig(), mode="replay")

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

    def test_loads_lines_with_old_hash_field(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"hash": "0" * 64, "prompt": "p1", "response": "r1"}) + "\n",
            encoding="utf-8",
        )
        assert Transcript.load(path).get("p1") == "r1"


def test_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig(max_retries=-1)
    with pytest.raises(ValueError):
        EndpointConfig(max_in_flight=0)
    assert EndpointConfig().temperature == 0.0


def test_timeout_must_be_positive():
    for timeout in (0, -1):
        with pytest.raises(ValueError, match="timeout must be positive"):
            EndpointConfig(timeout=timeout)
