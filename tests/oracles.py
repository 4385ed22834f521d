"""Reference implementations that tests compare the pipeline against."""

from ehrstruct.preprocess import _SENT_SPLIT
from ehrstruct.terminology import word_start


def brute_force_recognize(text: str, surfaces: list[str]) -> list[tuple[int, int]]:
    """Independent longest-match scanner used as the matching oracle.

    At each word-boundary position tries every surface by string comparison
    and keeps the longest that ends at a word boundary, then resumes after it.
    """
    spans: list[tuple[int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        if not text[i].isalnum() or not word_start(text, i):
            i += 1
            continue
        best = 0
        for s in surfaces:
            if len(s) > best and text[i : i + len(s)].lower() == s and word_start(text, i + len(s)):
                best = len(s)
        if best:
            spans.append((i, i + best))
            i += best
        else:
            while i < n and text[i].isalnum():
                i += 1
    return spans


def reference_split_sentences(text: str) -> list[str]:
    """split_sentences as a character walk: cut after each terminal-punctuation
    match, then after every '\\n' inside each piece."""
    if not text:
        return []
    cuts = [0]
    for m in _SENT_SPLIT.finditer(text):
        cuts.append(m.end())
    pieces: list[str] = []
    for start, end in zip(cuts, cuts[1:] + [len(text)]):
        piece = text[start:end]
        sub_start = 0
        for i, ch in enumerate(piece):
            if ch == "\n":
                pieces.append(piece[sub_start : i + 1])
                sub_start = i + 1
        if sub_start < len(piece):
            pieces.append(piece[sub_start:])
    return [p for p in pieces if p]
