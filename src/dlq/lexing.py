"""Tokeniser shared by the knowledge-base and query parsers.

Produces a flat token stream with 1-based line/column positions.  The same
token shapes serve both surface languages; each parser simply rejects kinds
it has no use for.
"""

from __future__ import annotations

import re
from ._record import record
from typing import Callable, TypeVar

T = TypeVar("T")


@record(frozen=True, slots=True)
class ParseError(Exception):
    """A syntax error at a 1-based position inside the input text."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


@record(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


# Token kinds:
#   IRIREF   <http://...>          PNAME  :Person / foaf:Person
#   VAR      ?x                    SPLICE $org
#   WORD     bare identifier or keyword
#   PUNCT    one of ( ) { } [ ] .
_TOKEN_RE = re.compile(
    r"""
    (?P<WS>      [ \t\r]+                          )
  | (?P<COMMENT> \#[^\n]*                          )
  | (?P<NL>      \n                                )
  | (?P<IRIREF>  <[^<>\s]*>                        )
  | (?P<PNAME>   [A-Za-z_][A-Za-z0-9_\-]*:[A-Za-z_][A-Za-z0-9_\-]*
               | :[A-Za-z_][A-Za-z0-9_\-]*
               | [A-Za-z_][A-Za-z0-9_\-]*:
               | :                                 )
  | (?P<VAR>     \?[A-Za-z_][A-Za-z0-9_]*          )
  | (?P<SPLICE>  \$[A-Za-z_][A-Za-z0-9_]*          )
  | (?P<WORD>    [A-Za-z_][A-Za-z0-9_\-]*          )
  | (?P<PUNCT>   [(){}\[\].]                       )
    """,
    re.VERBOSE,
)


def tokenize(text: str, line: int = 1, column: int = 1) -> list[Token]:
    """Tokenise ``text``; ``line``/``column`` offset positions for embedded input."""
    tokens: list[Token] = []
    pos = 0
    cur_line, cur_col = line, column
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(cur_line, cur_col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        assert kind is not None
        value = m.group()
        if kind == "NL":
            tokens.append(Token("NL", "\n", cur_line, cur_col))
            cur_line += 1
            cur_col = 1
        else:
            if kind not in ("WS", "COMMENT"):
                tokens.append(Token(kind, value, cur_line, cur_col))
            cur_col += len(value)
        pos = m.end()
    tokens.append(Token("EOF", "", cur_line, cur_col))
    return tokens


class TokenStream:
    """Cursor over a token list with lookahead and error helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[i]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self._index += 1
        return tok

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "WORD" and tok.text in words

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def take_word(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "WORD" or tok.text != word:
            raise self.error(f"expected {word!r}")
        return self.next()

    def take_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def skip_newlines(self) -> None:
        while self.peek().kind == "NL":
            self.next()

    def within_stack(self, parse: Callable[[], T], what: str) -> T:
        """``parse()``; input nested deeper than the Python stack allows is
        a syntax error at the token where the stack ran out."""
        try:
            return parse()
        except RecursionError:
            raise self.error(f"{what} nested too deeply") from None

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return ParseError(tok.line, tok.column, f"{message}, found {found}")
