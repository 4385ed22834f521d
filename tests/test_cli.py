import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehrstruct.cli import main
from ehrstruct.llm_client import ChatClient, EndpointConfig, Transcript
from ehrstruct.pipeline import PipelineConfig, build_resources, read_notes, run_structure

FIXTURES = Path(__file__).parent / "fixtures"
NOTES = str(FIXTURES / "sample_notes.jsonl")
GOLDEN = FIXTURES / "sample_entities.golden.jsonl"


@pytest.fixture
def lexicon_args(lexicon_path, abbrev_path):
    return ["--lexicon", lexicon_path, "--abbreviations", abbrev_path]


class TestStructure:
    def test_golden_fixture(self, tmp_path, lexicon_args):
        out = tmp_path / "out.jsonl"
        code = main(["structure", *lexicon_args, NOTES, str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")
        for line in out.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert set(record) >= {"note_id", "phrase", "span", "assertion_status"}

    def test_empty_input(self, tmp_path, lexicon_args):
        src = tmp_path / "empty.jsonl"
        src.write_text("", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["structure", *lexicon_args, str(src), str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_llm_backend_without_key_fails(self, tmp_path, lexicon_args, monkeypatch):
        monkeypatch.delenv("GENIE_API_KEY", raising=False)
        out = tmp_path / "out.jsonl"
        code = main(["structure", *lexicon_args, "--backend", "llm", NOTES, str(out)])
        assert code == 1

    def test_unreadable_input(self, tmp_path, lexicon_args):
        code = main(["structure", *lexicon_args, str(tmp_path / "nope.jsonl"), "-"])
        assert code == 1

    def test_worker_count_does_not_change_output(self, tmp_path, lexicon_args):
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"out{workers}.jsonl"
            code = main(["structure", *lexicon_args, "--workers", str(workers), NOTES, str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_group_by_note(self, tmp_path, lexicon_args):
        out = tmp_path / "out.jsonl"
        assert main(["structure", *lexicon_args, "--group-by-note", NOTES, str(out)]) == 0
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 3
        assert all("entities" in r for r in records)

    def test_nul_in_note_text(self, tmp_path, lexicon_args):
        notes = tmp_path / "nul.jsonl"
        notes.write_text(
            json.dumps({"note_id": "n1", "text": "Patient has fever\u0000 today."}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        assert main(["structure", *lexicon_args, str(notes), str(out)]) == 0
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert [(r["note_id"], r["phrase"], r["span"]) for r in records] == [
            ("n1", "fever", {"start": 12, "end": 17})
        ]

    def test_rejection_exit_code(self, tmp_path, lexicon_args):
        # a mismatch threshold of -0 with forced drops is hard to hit with the
        # rule backend, so use a replay transcript that yields garbage lines
        notes = tmp_path / "one.jsonl"
        notes.write_text(
            json.dumps({"note_id": "n", "text": "fever and chest pain"}) + "\n", encoding="utf-8"
        )
        transcript = _make_transcript(notes, reply=lambda prompt: "zzz: 1\nqqq: 2")
        t_path = tmp_path / "t.jsonl"
        transcript.save(t_path)
        out = tmp_path / "out.jsonl"
        rej = tmp_path / "rej.jsonl"
        code = main([
            "structure", "--lexicon", str(_lexicon()), "--backend", "replay",
            "--transcript", str(t_path), "--rejections", str(rej), str(notes), str(out),
        ])
        assert code == 2
        assert out.read_text(encoding="utf-8") == ""
        report = [json.loads(l) for l in rej.read_text(encoding="utf-8").splitlines()]
        assert report and report[0]["note_id"] == "n"


def _lexicon():
    from importlib import resources

    return resources.files("ehrstruct.data") / "sample_lexicon.tsv"


def _make_transcript(notes_path, reply):
    """Run the pipeline against a stub client to learn the prompts it issues."""

    class _Client:
        def __init__(self):
            self.transcript = Transcript()

        def complete(self, prompt):
            response = reply(prompt)
            self.transcript.put(prompt, response)
            return response

        def complete_all(self, prompts):
            return [self.complete(prompt) for prompt in prompts]

    from ehrstruct.attributes import LlmBackend

    cfg = PipelineConfig(lexicon=str(_lexicon()))
    res = build_resources(cfg)
    client = _Client()
    res.backend = LlmBackend(client)
    with open(notes_path, encoding="utf-8") as fh:
        notes = read_notes(fh)
    try:
        run_structure(notes, res)
    except Exception:
        pass
    return client.transcript


def _echo_null_reply(prompt):
    """Respond 'term: null' for every listed term, mimicking a cooperative model."""
    terms = prompt.rsplit("Here are the terms:", 1)[1].strip().splitlines()
    return "\n".join(f"{t}: null" for t in terms if t)


class TestReplayBackend:
    def test_replay_end_to_end_deterministic(self, tmp_path, lexicon_args):
        transcript = _make_transcript(Path(NOTES), reply=_echo_null_reply)
        t_path = tmp_path / "transcript.jsonl"
        transcript.save(t_path)
        outs = []
        for i in (1, 2):
            out = tmp_path / f"replay{i}.jsonl"
            code = main([
                "structure", *lexicon_args, "--backend", "replay",
                "--transcript", str(t_path), NOTES, str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEvaluateCommand:
    def test_pred_equals_gold(self, tmp_path, capsys):
        gold = FIXTURES / "eval_gold.jsonl"
        assert main(["evaluate", str(gold), str(gold)]) == 0
        table = capsys.readouterr().out
        assert "1.000" in table
        # every cell scored, but Purpose: the fixture's gold has no purpose
        assert table.splitlines()[2].split() == ["pipeline", *["1.000"] * 5, "-", "1.000"]

    def test_fixture_table(self, abbrev_path, capsys):
        code = main([
            "evaluate", str(FIXTURES / "eval_gold.jsonl"), str(FIXTURES / "eval_pred.jsonl"),
            "--abbreviations", abbrev_path,
        ])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split()
        # hand-computed: F1=18/23, loc 1.0, mod 1.0, value 8/9, unit 1.0, no purpose, status 8/9
        assert row[1:] == ["0.783", "1.000", "1.000", "0.889", "1.000", "-", "0.889"]

    def test_missing_file(self, tmp_path):
        assert main(["evaluate", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 1

    def test_schema_violation_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["evaluate", str(bad), str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_json_report_output(self, tmp_path):
        gold = FIXTURES / "eval_gold.jsonl"
        out = tmp_path / "report.json"
        assert main(["evaluate", str(gold), str(gold), "--json", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["phrase"]["f1"] == 1.0

    def test_macro_flag(self, capsys):
        gold = FIXTURES / "eval_gold.jsonl"
        assert main(["evaluate", str(gold), str(gold), "--macro"]) == 0
        assert "1.000" in capsys.readouterr().out


class TestValidateConfig:
    def test_missing_lexicon_named(self, tmp_path, capsys):
        code = main(["validate-config", "--lexicon", str(tmp_path / "nope.tsv")])
        assert code == 1
        assert "lexicon" in capsys.readouterr().err

    def test_valid_config_prints_settings(self, lexicon_path, capsys):
        assert main(["validate-config", "--lexicon", lexicon_path]) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "mismatch_threshold" in out

    def test_rejects_max_tokens_structure_rejects(self, lexicon_path, capsys):
        code = main(["validate-config", "--lexicon", lexicon_path, "--max-tokens", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "config error: max_tokens must be positive" in captured.err
        assert "config OK" not in captured.out

    def test_rule_backend_rejects_a_transcript(self, tmp_path, lexicon_path, capsys):
        # the rule backend reads no transcript, so naming one is a mistake
        transcript = str(tmp_path / "t.jsonl")
        cfg = PipelineConfig(lexicon=lexicon_path, backend="rule", transcript=transcript)
        assert cfg.validate() == ["transcript: not used by backend 'rule'"]
        args = ["--lexicon", lexicon_path, "--backend", "rule", "--transcript", transcript]
        assert main(["validate-config", *args]) == 1
        captured = capsys.readouterr()
        assert "config error: transcript: not used by backend 'rule'" in captured.err
        assert "config OK" not in captured.out
        out = tmp_path / "out.jsonl"
        assert main(["structure", *args, NOTES, str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_in_flight = 0", "max_in_flight must be >= 1"),
            ("max_retries = -2", "max_retries must be >= 0"),
            ("timeout = -1", "timeout must be positive"),
        ],
    )
    def test_rejects_bad_endpoint_settings(self, tmp_path, lexicon_path, line, message, capsys):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"lexicon = {lexicon_path}\n{line}\n", encoding="utf-8")
        code = main(["validate-config", "--config", str(cfg_file)])
        assert code == 1
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert "config OK" not in captured.out

    def test_rejects_nan_mismatch_threshold(self, tmp_path, lexicon_path, capsys):
        # a NaN threshold would turn rejection off: no ratio is > nan
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"lexicon = {lexicon_path}\nmismatch_threshold = nan\n", encoding="utf-8")
        for args in (["--config", str(cfg_file)], ["--lexicon", lexicon_path, "--mismatch-threshold", "nan"]):
            assert main(["validate-config", *args]) == 1
            captured = capsys.readouterr()
            assert "config error: mismatch_threshold: must be >= 0" in captured.err
            assert "config OK" not in captured.out

    def test_config_file_round_trip(self, tmp_path, lexicon_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(
            f"lexicon = {lexicon_path}\nmax_tokens = 400\nworkers = 2\n", encoding="utf-8"
        )
        cfg = PipelineConfig.load(cfg_file)
        assert cfg.max_tokens == 400
        assert cfg.workers == 2
        assert cfg.validate() == []


class TestConfigErrors:
    def write_config(self, tmp_path, lexicon_path, line):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"lexicon = {lexicon_path}\n{line}\n", encoding="utf-8")
        return cfg_file

    def test_bad_value_names_path_line_and_key(self, tmp_path, lexicon_path):
        cfg_file = self.write_config(tmp_path, lexicon_path, "workers = four")
        with pytest.raises(ValueError, match=r"pipeline\.cfg:2: workers: expected int, got 'four'"):
            PipelineConfig.load(cfg_file)

    def test_removed_hard_note_limit_is_unknown(self, tmp_path, lexicon_path):
        cfg_file = self.write_config(tmp_path, lexicon_path, "hard_note_limit = 8000")
        with pytest.raises(ValueError, match=r"pipeline\.cfg:2: unknown setting 'hard_note_limit'"):
            PipelineConfig.load(cfg_file)

    @pytest.mark.parametrize("command", ["structure", "preprocess", "recognize"])
    def test_bad_value_exits_cleanly(self, tmp_path, lexicon_path, command, capsys):
        cfg_file = self.write_config(tmp_path, lexicon_path, "max_tokens = many")
        code = main([command, "--config", str(cfg_file), NOTES, str(tmp_path / "out.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_file}:2: max_tokens:")

    @pytest.mark.parametrize("command", ["structure", "preprocess"])
    def test_zero_max_tokens_exits_1_with_one_line(self, tmp_path, lexicon_path, command, capsys):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"lexicon = {lexicon_path}\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code = main([command, "--config", str(cfg_file), "--max-tokens", "0", NOTES, str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: max_tokens must be positive"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["structure", "preprocess", "recognize"])
    def test_missing_config_file_exits_1(self, tmp_path, command, capsys):
        missing = tmp_path / "missing.cfg"
        code = main([command, "--config", str(missing), NOTES, str(tmp_path / "out.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestHostileInputs:
    """Each malformed input file ends the run with exit 1 and one error line
    naming the file and, where known, the line."""

    def error_line(self, capsys):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    @pytest.mark.parametrize(
        "record",
        ['{"prompt": "x"}', '["a","b"]', "not json", '{"prompt": 1, "response": "r"}',
         '{"prompt": "p", "response": null}'],
    )
    def test_malformed_transcript(self, tmp_path, lexicon_args, record, capsys):
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text(f'{{"prompt": "p", "response": "r"}}\n{record}\n', encoding="utf-8")
        code = main([
            "structure", *lexicon_args, "--backend", "replay",
            "--transcript", str(transcript), NOTES, str(tmp_path / "out.jsonl"),
        ])
        assert code == 1
        assert self.error_line(capsys).startswith(f"error: {transcript}:2: ")

    @pytest.mark.parametrize("command", ["structure", "preprocess", "recognize"])
    def test_note_text_not_a_string(self, tmp_path, lexicon_args, command, capsys):
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"note_id": "a", "text": 5}\n', encoding="utf-8")
        args = lexicon_args if command != "preprocess" else []
        assert main([command, *args, str(notes), str(tmp_path / "out.jsonl")]) == 1
        assert self.error_line(capsys).startswith(f"error: {notes}:1: ")

    @pytest.mark.parametrize("name", ["lexicon", "config", "notes"])
    def test_file_not_utf8(self, tmp_path, lexicon_path, name, capsys):
        files = {
            "lexicon": tmp_path / "lexicon.tsv",
            "config": tmp_path / "pipeline.cfg",
            "notes": tmp_path / "notes.jsonl",
        }
        files["lexicon"].write_bytes(Path(lexicon_path).read_bytes())
        files["config"].write_text(f"lexicon = {files['lexicon']}\n", encoding="utf-8")
        files["notes"].write_bytes(Path(NOTES).read_bytes())
        bad = files[name]
        bad.write_bytes(bad.read_bytes() + b"caf\xe9\t\xff\n")
        code = main(["structure", "--config", str(files["config"]), str(files["notes"]), "-"])
        assert code == 1
        line = self.error_line(capsys)
        assert line.startswith(f"error: {bad}") and "UTF-8" in line

    def test_bad_note_on_stdin_names_stdin(self, tmp_path, lexicon_args):
        proc = subprocess.run(
            [sys.executable, "-m", "ehrstruct.cli", "structure", *lexicon_args, "-", "-"],
            input='{"note_id": "a", "text": "x"}\n{"note_id": "b", "text": [1]}\n',
            capture_output=True, text=True, encoding="utf-8", timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: <stdin>:2: ")
        assert "Traceback" not in proc.stderr

    def test_stdin_not_utf8_under_the_c_locale(self, lexicon_args):
        # with no locale set, Python decodes stdin as UTF-8 but lets bad bytes
        # through as surrogates; stdin must be read as strictly as a file
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO", "PYTHONUTF8"))}
        proc = subprocess.run(
            [sys.executable, "-m", "ehrstruct.cli", "structure", *lexicon_args, "-", "-"],
            input=b'{"note_id": "a", "text": "caf\xff fever"}\n',
            capture_output=True, timeout=60,
            env={**env, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        assert proc.returncode == 1
        assert proc.stderr.decode().startswith("error: <stdin>: not UTF-8")
        assert proc.stdout == b""

    def test_repeated_note_id_names_both_lines(self, tmp_path, lexicon_args, capsys):
        notes = tmp_path / "notes.jsonl"
        notes.write_text(
            '{"note_id": "a", "text": "x"}\n\n{"note_id": "b", "text": "y"}\n{"note_id": "a", "text": "z"}\n',
            encoding="utf-8",
        )
        assert main(["structure", *lexicon_args, str(notes), str(tmp_path / "out.jsonl")]) == 1
        assert self.error_line(capsys) == f"error: {notes}:4: duplicate note_id 'a', first on line 1"

    def test_entity_span_not_an_object(self, tmp_path, capsys):
        entities = tmp_path / "entities.jsonl"
        entities.write_text('{"note_id": "n", "phrase": "fever", "span": [0, 5]}\n', encoding="utf-8")
        assert main(["evaluate", str(entities), str(entities)]) == 1
        assert self.error_line(capsys).startswith(f"error: {entities}:1: ")

    @pytest.mark.parametrize(
        "first, second",
        [
            ('"note_id": "a", "phrase": "fever", "span": {"start": 0, "end": 5}',
             '"note_id": "a", "phrase": "cough", "span": {"start": "1", "end": 9}'),
            ('"note_id": "a", "phrase": "fever"', '"note_id": 1, "phrase": "cough"'),
            ('"note_id": "a", "phrase": "fever"', '"note_id": "a", "phrase": 5'),
            ('"note_id": "a", "phrase": "fever"', '"note_id": "a", "phrase": "cough", "semantic_type": 5'),
        ],
        ids=["span-start", "note-id", "phrase", "semantic-type"],
    )
    def test_entity_field_of_the_wrong_type(self, tmp_path, first, second, capsys):
        entities = tmp_path / "entities.jsonl"
        entities.write_text(f"{{{first}}}\n{{{second}}}\n", encoding="utf-8")
        assert main(["evaluate", str(entities), str(entities)]) == 1
        assert self.error_line(capsys).startswith(f"error: {entities}:2: ")

    @pytest.mark.parametrize("command", ["structure", "recognize"])
    def test_abbreviation_hint_not_a_reportable_type(self, tmp_path, command, capsys):
        lexicon, abbreviations = tmp_path / "lexicon.tsv", tmp_path / "abbreviations.tsv"
        lexicon.write_text("ra\tC1\tDisease, Syndrome or Pathologic Function\n", encoding="utf-8")
        abbreviations.write_text("RA\trheumatoid arthritis\tBogus Type\n", encoding="utf-8")
        notes = tmp_path / "notes.jsonl"
        notes.write_text('{"note_id": "a", "text": "History of RA."}\n', encoding="utf-8")
        args = ["--lexicon", str(lexicon), "--abbreviations", str(abbreviations)]
        assert main([command, *args, str(notes), str(tmp_path / "out.jsonl")]) == 1
        assert self.error_line(capsys) == f"error: {abbreviations}:1: unknown semantic type 'Bogus Type'"


class TestStageCommands:
    def test_preprocess_emits_chunks(self, tmp_path, capsys):
        out = tmp_path / "chunks.jsonl"
        assert main(["preprocess", NOTES, str(out)]) == 0
        chunks = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert {c["note_id"] for c in chunks} == {"note-001", "note-002", "note-003"}
        assert all(c["token_count"] <= 800 or c["oversize"] for c in chunks)

    def test_recognize_emits_mentions(self, tmp_path, lexicon_args):
        out = tmp_path / "mentions.jsonl"
        assert main(["recognize", *lexicon_args, NOTES, str(out)]) == 0
        mentions = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert any(m["canonical_phrase"] == "hepatosplenomegaly" for m in mentions)

    def test_recognize_has_no_chunk_budget(self, tmp_path, lexicon_args):
        out = tmp_path / "mentions.jsonl"
        with pytest.raises(SystemExit):
            main(["recognize", *lexicon_args, "--max-tokens", "5", NOTES, str(out)])
        assert main(["recognize", *lexicon_args, NOTES, str(out)]) == 0
        mentions = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert mentions and not any("chunk_index" in m for m in mentions)

    def test_recognize_ignores_backend_settings(self, tmp_path, lexicon_path, abbrev_path):
        # recognize reads no transcript, so a replay backend whose
        # transcript is missing must not stop it
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(
            f"lexicon = {lexicon_path}\nabbreviations = {abbrev_path}\n"
            f"backend = replay\ntranscript = {tmp_path / 'missing.jsonl'}\n",
            encoding="utf-8",
        )
        plain, configured = tmp_path / "plain.jsonl", tmp_path / "configured.jsonl"
        plain_args = ["--lexicon", lexicon_path, "--abbreviations", abbrev_path]
        assert main(["recognize", *plain_args, NOTES, str(plain)]) == 0
        assert main(["recognize", "--config", str(cfg_file), NOTES, str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes() != b""
