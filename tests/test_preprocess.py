import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrstruct.preprocess import (
    RawNote,
    _keep_break,
    chunk_note,
    count_tokens,
    restore_linebreaks,
    segment,
)
from oracles import reference_split_paragraphs, reference_split_sentences


class TestRestoreLinebreaks:
    def test_mid_sentence_break_joined(self):
        raw = RawNote("n", "aspirated to the LLL with\nresultant high fever (105)")
        note = restore_linebreaks(raw)
        assert note.text == "aspirated to the LLL with resultant high fever (105)"

    def test_structural_breaks_kept(self):
        raw = RawNote("n", "He is stable.\nALLERGIES:\n- penicillin")
        note = restore_linebreaks(raw)
        assert note.text == raw.text

    def test_blank_line_kept(self):
        note = restore_linebreaks(RawNote("n", "one\n\ntwo"))
        assert note.text == "one\n\ntwo"

    def test_empty_text(self):
        note = restore_linebreaks(RawNote("n", ""))
        assert note.text == ""
        assert note.offset_map == []

    def test_numbered_list_kept(self):
        note = restore_linebreaks(RawNote("n", "meds\n1. aspirin\n2. colace"))
        assert note.text == "meds\n1. aspirin\n2. colace"

    def test_offset_map_strictly_increasing(self):
        note = restore_linebreaks(RawNote("n", "line one\nline two.\nline three"))
        assert all(a < b for a, b in zip(note.offset_map, note.offset_map[1:]))

    def test_break_collapses_with_adjacent_space(self):
        note = restore_linebreaks(RawNote("n", "word \nnext"))
        assert note.text == "word next"
        assert len(note.text) == len(note.offset_map)

    def test_round_trip_random_texts(self):
        # oracle: replay offset_map; each normalized char is the raw char or a
        # space standing in for a removed line break
        rng = random.Random(42)
        words = ["alpha", "beta.", "GAMMA:", "- delta", "eps", ""]
        for _ in range(500):
            raw_text = "\n".join(
                " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(0, 8))
            )
            note = restore_linebreaks(RawNote("n", raw_text))
            assert len(note.text) == len(note.offset_map)
            for i, ch in enumerate(note.text):
                raw_ch = raw_text[note.offset_map[i]]
                assert ch == raw_ch or (ch == " " and raw_ch == "\n")

    def test_idempotent(self):
        raw = RawNote("n", "broken\nline here.\nNEXT SECTION:\n- item\n\npara two")
        once = restore_linebreaks(raw)
        twice = restore_linebreaks(RawNote("n", once.text))
        assert twice.text == once.text


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_words_and_punctuation(self):
        # hand tokenization: high, fever, '(', 105, ')'
        assert count_tokens("high fever (105)") == 5

    def test_slashed_abbreviation(self):
        # hand tokenization: c, '/', c, '/', e
        assert count_tokens("c/c/e") == 5

    def test_whitespace_only(self):
        assert count_tokens("   \n\t ") == 0


def sentences(text):
    return [text[s.start : s.end] for s in segment(text)]


def paragraphs(text):
    return [text[a:b] for a, b in dict.fromkeys((s.par_start, s.par_end) for s in segment(text))]


class TestSplitters:
    """The sentences and paragraphs of `segment` with no mention spans."""

    def test_sentences_cover_text(self):
        text = "First sentence. Second here! Third? Yes.\nNew line part"
        assert sentences(text) == ["First sentence. ", "Second here! ", "Third? ", "Yes.\n", "New line part"]

    def test_sentence_boundary_requires_capital_or_digit(self):
        text = "level was 3.5 mg and stable"
        assert sentences(text) == [text]

    def test_paragraphs_cover_text(self):
        text = "one\ntwo\n\nthree\n\n\nfour"
        assert paragraphs(text) == ["one\ntwo\n\n", "three\n\n\n", "four"]


def chunk_text(text, max_tokens):
    """The (start, end) chunks of text, segmented with no mention spans."""
    return chunk_note(text, segment(text), max_tokens)


def chunk_texts(text, max_tokens):
    return [text[start:end] for start, end in chunk_text(text, max_tokens)]


def assert_chunks_cover(text, max_tokens):
    """The chunks run end to end over the text, and each is within the budget
    or exactly one sentence of the segmentation."""
    chunks = chunk_text(text, max_tokens)
    ends = [0, *(end for _, end in chunks)]
    assert [start for start, _ in chunks] == ends[:-1] and ends[-1] == len(text)
    sentences = {(s.start, s.end) for s in segment(text)}
    for start, end in chunks:
        assert count_tokens(text[start:end]) <= max_tokens or (start, end) in sentences


class TestChunkNote:
    def test_empty_note(self):
        assert chunk_text("", 800) == []

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_budget_must_be_positive(self, max_tokens):
        with pytest.raises(ValueError, match="max_tokens must be positive"):
            chunk_text("word", max_tokens)

    def test_greedy_paragraph_packing(self):
        para = " ".join(f"w{i}" for i in range(300))
        text = para + "\n\n" + para + "\n\n" + para
        assert count_tokens(para) == 300
        chunks = chunk_texts(text, 800)
        # greedy simulation: P1+P2 fit (just over 600 with the breaks), P3 alone
        assert len(chunks) == 2
        assert chunks[0].endswith(para + "\n\n")
        assert chunks[1] == para

    def test_oversize_paragraph_splits_at_sentences(self):
        sentence = "Word " * 99 + "end. "
        para = ("".join(sentence for _ in range(9))).strip() + "."
        chunks = chunk_texts(para, 800)
        assert len(chunks) == 2
        assert all(count_tokens(c) <= 800 for c in chunks)
        assert "".join(chunks) == para

    def test_single_oversize_sentence_is_its_own_chunk(self):
        text = ("word " * 900).strip()
        assert chunk_text(text, 800) == [(0, len(text))]
        # the sentences on either side of it are chunks of their own
        text = "Short one. " + "Word " * 900 + "end. Short two."
        assert chunk_texts(text, 800) == ["Short one. ", "Word " * 900 + "end. ", "Short two."]

    def test_coverage_and_budget_random_notes(self):
        rng = random.Random(7)
        vocab = ["alpha", "beta", "x-ray.", "CHECK:", "- item", "v1.2", ""]
        for _ in range(200):
            text = "\n".join(
                " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 40)))
                for _ in range(rng.randint(0, 10))
            )
            max_tokens = rng.choice([10, 30, 800])
            assert_chunks_cover(text, max_tokens)


@given(st.text(alphabet=st.characters(blacklist_categories=["Cs"]), max_size=400))
@settings(max_examples=100, deadline=None)
def test_chunk_coverage_property(text):
    assert_chunks_cover(text, 20)


@given(st.text(alphabet="ab .\n-ABC:", max_size=300))
@settings(max_examples=150, deadline=None)
def test_restore_idempotent_property(text):
    once = restore_linebreaks(RawNote("n", text))
    twice = restore_linebreaks(RawNote("n", once.text))
    assert twice.text == once.text


def reference_restore_linebreaks(text):
    """restore_linebreaks as a loop over characters: (text, offset_map)."""
    lines = text.split("\n")
    out = []
    offset_map = []
    pos = 0
    for idx, line in enumerate(lines):
        for j, ch in enumerate(line):
            out.append(ch)
            offset_map.append(pos + j)
        pos += len(line)
        if idx < len(lines) - 1:
            if _keep_break(line, lines[idx + 1]):
                out.append("\n")
                offset_map.append(pos)
            else:
                prev_is_space = bool(out) and out[-1] == " "
                next_is_space = lines[idx + 1][:1] == " "
                if not prev_is_space and not next_is_space:
                    out.append(" ")
                    offset_map.append(pos)
            pos += 1
    return "".join(out), offset_map


_LINES = ("", " ", "  ", "a", "a ", " a", "ab cd", "done.", "- item", "1) first", "HEADER:", "x  ")


@given(
    st.one_of(
        st.text(alphabet="ab .\n-ABC:", max_size=300),
        st.lists(st.sampled_from(_LINES), max_size=12).map("\n".join),
    )
)
@settings(max_examples=300, deadline=None)
def test_restore_linebreaks_matches_character_loop(text):
    note = restore_linebreaks(RawNote("n", text))
    assert (note.text, note.offset_map) == reference_restore_linebreaks(text)


@given(
    st.one_of(
        st.text(alphabet="ab .\n-ABC:", max_size=300),
        st.lists(st.sampled_from(_LINES), max_size=12).map("\n".join),
    )
)
@example("shortness of\nbreath.\n\nALLERGIES:\n- penicillin\n")
@settings(max_examples=200, deadline=None)
def test_crlf_note_normalizes_to_its_lf_twin(text):
    crlf = text.replace("\n", "\r\n")
    lf_note = restore_linebreaks(RawNote("n", text))
    crlf_note = restore_linebreaks(RawNote("n", crlf))
    assert crlf_note.text == lf_note.text
    # each character maps to itself in the CRLF text, a line break to its "\r"
    assert [crlf[i] for i in crlf_note.offset_map] == [
        "\r" if text[i] == "\n" else text[i] for i in lf_note.offset_map
    ]
    assert segment(crlf_note.text) == segment(lf_note.text)


def reference_chunk_note(text, max_tokens):
    """chunk_note as it was before the segmentation was shared: it splits the
    text itself, here with the character-walk splitters."""
    units = []
    for par in reference_split_paragraphs(text):
        if count_tokens(par) <= max_tokens:
            units.append(par)
        else:
            units.extend(reference_split_sentences(par))

    chunks = []
    buf = []
    buf_tokens = 0
    buf_start = 0

    def flush():
        nonlocal buf, buf_tokens, buf_start
        if buf:
            length = len("".join(buf))
            chunks.append((buf_start, buf_start + length))
            buf_start += length
            buf = []
            buf_tokens = 0

    for unit in units:
        tokens = count_tokens(unit)
        if tokens > max_tokens:
            flush()
            buf = [unit]
            buf_tokens = tokens
            flush()
        elif buf and buf_tokens + tokens > max_tokens:
            flush()
            buf = [unit]
            buf_tokens = tokens
        else:
            buf.append(unit)
            buf_tokens += tokens
    flush()
    return chunks


_WORDS = (
    "", "a", "bc", "Word", "ends.", "Why?", "Yes!", "3.5", "(x)", "said.\"", "- item", "HEAD:", "\n", "\n\n",
)

note_texts = st.one_of(
    st.text(alphabet="ab AZ9.!?:'\")\n-\t", max_size=400),
    st.lists(st.sampled_from(_WORDS), max_size=80).map(" ".join),
)


# Line-break-like characters that str.splitlines would cut at but segment
# must not: only "\n" is a hard boundary.
_SPLIT_PIECES = (
    "a", "Bc", "9", ".", "!", "?", "'", '")', " ", "  ", "\t", "\n", "\n\n",
    "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "Ends. ", "x? Y",
)


@pytest.mark.parametrize("max_tokens", [1, 10, 30, 800])
@given(note_texts)
@settings(max_examples=150, deadline=None)
def test_chunk_note_matches_the_splitter_packing(max_tokens, text):
    assert chunk_text(text, max_tokens) == reference_chunk_note(text, max_tokens)


@st.composite
def texts_with_spans(draw):
    text = draw(note_texts)
    if not text:
        return text, []
    starts = draw(st.lists(st.integers(0, len(text) - 1), max_size=8))
    return text, [(s, draw(st.integers(s + 1, len(text)))) for s in starts]


@given(texts_with_spans())
@settings(max_examples=300, deadline=None)
def test_segment_covers_the_text(note):
    text, spans = note
    sentences = segment(text, spans)
    assert [s.start for s in sentences[:1]] == ([0] if text else [])
    for a, b in zip(sentences, sentences[1:]):
        assert a.end == b.start
        assert (a.par_start, a.par_end) == (b.par_start, b.par_end) or a.par_end == b.par_start
    for s in sentences:
        assert s.par_start <= s.start < s.end <= s.par_end
    assert "".join(text[s.start : s.end] for s in sentences) == text


@given(st.text(alphabet="ab \n", max_size=200))
@example("\n")
@example("\n\n\n")
@example("a\n")
@example("a\nb\n\n\nc\n\n")
@example("a\n\na\n\n")
@settings(max_examples=300, deadline=None)
def test_split_paragraphs_matches_character_loop(text):
    assert paragraphs(text) == reference_split_paragraphs(text)


@given(st.lists(st.sampled_from(_SPLIT_PIECES), max_size=60).map("".join))
@example("!  \n\n\rEnds. 9a\u2028'")
@settings(max_examples=400, deadline=None)
def test_split_sentences_matches_the_character_walk(text):
    assert sentences(text) == [sent for par in paragraphs(text) for sent in reference_split_sentences(par)]


@given(note_texts)
@settings(max_examples=300, deadline=None)
def test_segment_without_spans_equals_the_splitters(text):
    got = [(text[s.start : s.end], text[s.par_start : s.par_end]) for s in segment(text)]
    expected = [(sent, par) for par in reference_split_paragraphs(text) for sent in reference_split_sentences(par)]
    assert got == expected


@given(texts_with_spans())
@settings(max_examples=300, deadline=None)
def test_segment_never_cuts_inside_a_span(note):
    text, spans = note
    sentences = segment(text, spans)
    cuts = {s.start for s in sentences} | {s.par_start for s in sentences}
    assert not [c for c in cuts for start, end in spans if start < c < end]
    # Spans without a line break, as every mention is, only remove cuts.
    if not any("\n" in text[start:end] for start, end in spans):
        plain = {s.start for s in segment(text)}
        assert {s.start for s in sentences} == {
            c for c in plain if not any(start < c < end for start, end in spans)
        }
