from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from dlq.lang.parser import _LEX
from dlq.lexing import ParseError, TokenStream, tokenize

# Pieces of text that the lexers take as tokens, blanks or comments, and
# pieces that no token starts with.  Joined up, pieces can still fail to
# tokenise: ``?x`` followed by ``a-b`` leaves a lone ``-``.
KB_PIECES = list("abzAZ_:(){}[].# \t\r\n") + [
    "x0", "a-b", "?x", "$y", "<http://x/a>", "<>", "inv", "some", "#é@\"",
]
PROGRAM_PIECES = list("abzAZ_:(){}[],=.# \t\r\n09") + [
    '"SELECT ?x\nWHERE"', "`:A and\n\n:B`", '""', "=>", "<http://x/a>", "def",
]
BAD_PIECES = ["é", "@", "\u00a0", '"', "`", "!", "\x00", "-", "?", "$", "<", ">"]

def tokenize_program(text: str):
    return [t for t in tokenize(text, pattern=_LEX) if t.kind != "NL"]


KB_GAP = re.compile(r"(?:[ \t\r]+|#[^\n]*)*")
PROGRAM_GAP = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")


def texts(pieces: list[str]):
    clean = st.lists(st.sampled_from(pieces), max_size=40)
    mixed = st.lists(st.sampled_from(pieces + BAD_PIECES), max_size=40)
    return st.one_of(clean, mixed).map("".join)


OFFSETS = st.one_of(st.just((1, 1)), st.tuples(st.integers(1, 9), st.integers(1, 9)))


def offset_of(text: str, line: int, column: int, at: tuple[int, int]) -> int:
    """Offset in ``text`` of a (line, column) position, for a text whose first
    character sits at position ``at``."""
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    i = line - at[0]
    return starts[i] + column - (at[1] if i == 0 else 1)


def check_lexing(lex, text: str, at: tuple[int, int], gap: re.Pattern) -> None:
    """Either every token's text sits at its position, only blanks and
    comments lie between tokens and EOF is one past the last character; or
    the error names the character at its position, and the text before that
    character tokenises with EOF at the same position."""
    try:
        tokens = lex(text)
    except ParseError as err:
        offset = offset_of(text, err.line, err.column, at)
        assert err.message == f"unexpected character {text[offset]!r}"
        eof = lex(text[:offset])[-1]
        assert (eof.line, eof.column) == (err.line, err.column)
        return
    end = 0
    for tok in tokens[:-1]:
        start = offset_of(text, tok.line, tok.column, at)
        assert gap.fullmatch(text, end, start), (tok, text[end:start])
        assert text.startswith(tok.text, start), tok
        end = start + len(tok.text)
    eof = tokens[-1]
    assert eof.kind == "EOF" and eof.text == ""
    assert gap.fullmatch(text, end)
    assert offset_of(text, eof.line, eof.column, at) == len(text)


@settings(max_examples=400, deadline=None)
@given(texts(KB_PIECES), OFFSETS)
def test_tokens_and_errors_sit_at_their_positions(text, at):
    check_lexing(lambda t: tokenize(t, *at), text, at, KB_GAP)


@settings(max_examples=300, deadline=None)
@given(texts(PROGRAM_PIECES))
def test_program_tokens_and_errors_sit_at_their_positions(text):
    check_lexing(tokenize_program, text, (1, 1), PROGRAM_GAP)


def test_newlines_are_tokens_in_kb_text_and_end_program_strings():
    kinds = [(t.kind, t.line, t.column) for t in tokenize(":a\n\n.", 2, 5)]
    assert kinds == [("PNAME", 2, 5), ("NL", 2, 7), ("NL", 3, 1),
                     ("PUNCT", 4, 1), ("EOF", 4, 2)]
    with pytest.raises(ParseError) as caught:
        tokenize_program('main = f(\n  "a\nbc" @)')
    assert (caught.value.line, caught.value.column) == (3, 5)
    assert caught.value.message == "unexpected character '@'"


def test_peek_past_the_last_token_is_eof_and_next_stays_at_eof():
    ts = TokenStream(tokenize(":a :b"))
    ts.next()
    assert ts.peek().text == ":b"
    assert ts.peek(1).kind == "EOF"
    assert ts.peek(5).kind == "EOF"
    ts.next()
    eof = ts.next()
    assert eof.kind == "EOF"
    assert ts.next() is eof
    assert ts.peek() is eof and ts.peek(1) is eof
