"""Tokeniser shared by the knowledge-base, query and program parsers.

Produces a flat token stream with 1-based line/column positions.  One
tiling loop serves both grammars: :func:`tokenize` takes the token regex,
which is the only thing the knowledge-base/query lexer and the program
lexer (``dlq.lang.parser``) differ in.  The same token shapes serve the
knowledge-base and query languages; each parser simply rejects kinds it
has no use for.

A token regex ends in a catch-all ``BAD`` group that takes any one
character no other group does, so ``finditer`` tiles the whole text in one
pass and a ``BAD`` match is the unexpected character.  A token's column is
its offset from the start of its line, so no token's length is measured.
A newline is an ``NL`` token, which the statement-per-line knowledge-base
grammar reads; :func:`fragment` drops them for the grammars that treat
newlines as blanks.  A token other than ``NL`` may span lines (a program's
strings and back-quoted expressions do): the position then moves past its
last newline.

:class:`TokenStream` keeps the token under the cursor in an attribute that
``next()`` advances; only ``peek(ahead)`` with a look-ahead indexes the
token list.
"""

from __future__ import annotations

import re
from ._record import record
from typing import Callable, TypeVar

T = TypeVar("T")


class ParseError(Exception):
    """A syntax error at a 1-based position inside the input text."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(line, column, message)
        self.line = line
        self.column = column
        self.message = message

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


@record()
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
  | (?P<BAD>     .                                 )
    """,
    re.VERBOSE,
)


def tokenize(text: str, line: int = 1, column: int = 1,
             pattern: re.Pattern = _TOKEN_RE) -> list[Token]:
    """Tokenise ``text`` with the token regex ``pattern``; ``line``/``column``
    offset positions for embedded input."""
    tokens: list[Token] = []
    append = tokens.append
    origin = -column  # a token's column is its offset minus ``origin``
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind == "WS" or kind == "COMMENT":
            continue
        start = m.start()
        if kind == "NL":
            append(Token("NL", "\n", line, start - origin))
            line += 1
            origin = start
        elif kind == "BAD":
            raise ParseError(line, start - origin, f"unexpected character {m.group()!r}")
        else:
            value = m.group()
            append(Token(kind, value, line, start - origin))
            if "\n" in value:
                line += value.count("\n")
                origin = start + value.rfind("\n")
    append(Token("EOF", "", line, len(text) - origin))
    return tokens


def fragment(text: str, line: int = 1, column: int = 1,
             pattern: re.Pattern = _TOKEN_RE) -> TokenStream:
    """A stream over the tokens of ``text`` without its ``NL`` tokens, for
    the grammars in which a newline is a blank: a concept, role or query,
    a back-quoted expression, a program."""
    return TokenStream([t for t in tokenize(text, line, column, pattern)
                        if t.kind != "NL"])


class TokenStream:
    """Cursor over a token list that ends in EOF, with lookahead and error
    helpers.

    ``position`` is the index of the token under the cursor, so the number
    of tokens a reader consumed is the difference of two positions.
    ``names`` is free for the parser that owns the stream to memoise what
    it resolved a name token to, by the token's text, for the stream's
    life."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self.position = 0
        self._current = tokens[0]
        self.names: dict[str, object] = {}

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:
            return self._current
        tokens = self._tokens
        i = self.position + ahead
        return tokens[i] if i < len(tokens) else tokens[-1]

    def next(self) -> Token:
        tok = self._current
        if tok.kind != "EOF":
            self.position += 1
            self._current = self._tokens[self.position]
        return tok

    def at_word(self, word: str) -> bool:
        tok = self._current
        return tok.kind == "WORD" and tok.text == word

    def at_punct(self, text: str) -> bool:
        tok = self._current
        return tok.kind == "PUNCT" and tok.text == text

    def take_word(self, word: str) -> Token:
        tok = self._current
        if tok.kind != "WORD" or tok.text != word:
            raise self.error(f"expected {word!r}")
        return self.next()

    def take_punct(self, text: str) -> Token:
        tok = self._current
        if tok.kind != "PUNCT" or tok.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def end(self, message: str) -> None:
        """Raise ``message`` as a syntax error unless the cursor is at EOF."""
        if self._current.kind != "EOF":
            raise self.error(message)

    def skip_newlines(self) -> None:
        while self._current.kind == "NL":
            self.next()

    def within_stack(self, parse: Callable[..., T], what: str, *args) -> T:
        """``parse(*args)``; input nested deeper than the Python stack allows
        is a syntax error at the token where the stack ran out."""
        try:
            return parse(*args)
        except RecursionError:
            raise self.error(f"{what} nested too deeply") from None

    def error(self, message: str) -> ParseError:
        tok = self._current
        found = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return ParseError(tok.line, tok.column, f"{message}, found {found}")
