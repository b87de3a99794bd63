"""Surface syntax for program files.

A program is a sequence of prefix declarations, definitions and exactly
one main expression::

    prefix : <http://example.org/uni#>

    def researchGroups(org: `:Organization`): List[`:ResearchGroup`] =
      query "SELECT ?rg WHERE { ?rg a :ResearchGroup . ?rg :subOrganizationOf $org }"

    def supervises(chair: `:Chair`): List[`:ResearchGroup`] =
      let deps = chair.`:headOf` in
      if nonEmpty(deps) then researchGroups(head(deps)) else nil[`:ResearchGroup`]

    main = supervises(iri(:alice))

Types are back-quoted concept expressions, ``List[T]``, tuples
``(T, ...)`` and ``Bool``.  Queries are string literals in the query
surface syntax; ``$name`` splices refer to in-scope variables.  Scope is
checked as the program is read: an unbound variable or a splice with no
matching variable is an error where it is read, and each call is checked
against the definitions once the whole file is read, so a call may come
before the definition it names.  Syntax errors inside embedded queries
and back-quoted concepts are reported with positions in the enclosing
file.

Programs are tokenised by :func:`dlq.lexing.fragment` with this module's
token regex: newlines are blanks, and a string or back-quoted expression
may span lines.
"""

from __future__ import annotations

import re

from ..kbtext import read_concept, read_name, read_role
from ..lexing import ParseError, Token, fragment
from ..model import Concept, Role
from ..query import parse_query
from .syntax import (
    BOOL,
    Call,
    ConceptType,
    Definition,
    Head,
    If,
    IriLit,
    LangType,
    Let,
    ListType,
    Match,
    MatchCase,
    Nil,
    NonEmpty,
    Pos,
    Program,
    QueryTerm,
    Ref,
    RoleProj,
    Term,
    TupleIndex,
    TupleType,
)

__all__ = ["parse_program", "KEYWORDS"]

KEYWORDS = frozenset([
    "prefix", "def", "main", "let", "in", "if", "then", "else",
    "match", "case", "query", "strictquery", "iri",
    "nonEmpty", "head", "nil", "List", "Bool",
])

_LEX = re.compile(
    r"""
    (?P<WS>       [ \t\r]+                )
  | (?P<COMMENT>  \#[^\n]*                )
  | (?P<NL>       \n                      )
  | (?P<STRING>   "[^"]*"                 )
  | (?P<BACKTICK> `[^`]*`                 )
  | (?P<ARROW>    =>                      )
  | (?P<IRIREF>   <[^<>\s]*>              )
  | (?P<PNAME>    [A-Za-z_][A-Za-z0-9_\-]*:[A-Za-z_][A-Za-z0-9_\-]*
                | :[A-Za-z_][A-Za-z0-9_\-]*
                | :                       )
  | (?P<INT>      [0-9]+                  )
  | (?P<WORD>     [A-Za-z_][A-Za-z0-9_]*  )
  | (?P<PUNCT>    [(){}\[\],=.]           )
  | (?P<BAD>      .                       )
    """,
    re.VERBOSE,
)


class _ProgramParser:
    def __init__(self, text: str) -> None:
        self.ts = fragment(text, pattern=_LEX)
        self.prefixes: dict[str, str] = {}
        # The names bound where the parser stands, and every call read so far.
        self.scope: set[str] = set()
        self.calls: list[tuple[str, Pos]] = []

    # -- helpers ----------------------------------------------------------

    def _pos(self) -> Pos:
        tok = self.ts.peek()
        return (tok.line, tok.column)

    def _word(self) -> str | None:
        tok = self.ts.peek()
        return tok.text if tok.kind == "WORD" else None

    def _ident(self, what: str) -> str:
        tok = self.ts.peek()
        if tok.kind != "WORD" or tok.text in KEYWORDS or tok.text == "_":
            raise self.ts.error(f"expected {what}")
        self.ts.next()
        return tok.text

    def _embedded(self, tok: Token, reader) -> object:
        """Parse the contents of a back-quoted token with kb-text rules,
        positions mapped into this file."""
        ts = fragment(tok.text[1:-1], tok.line, tok.column + 1)
        result = reader(ts, self.prefixes)
        ts.end("trailing input in back-quoted expression")
        return result

    def _backtick_concept(self) -> Concept:
        tok = self.ts.peek()
        if tok.kind != "BACKTICK":
            raise self.ts.error("expected a back-quoted concept expression")
        self.ts.next()
        return self._embedded(tok, read_concept)

    # -- program structure --------------------------------------------------

    def parse(self) -> Program:
        ts = self.ts
        definitions: dict[str, Definition] = {}
        main: Term | None = None
        while ts.peek().kind != "EOF":
            word = self._word()
            if word == "prefix":
                self._prefix_decl()
            elif word == "def":
                d = self._definition()
                if d.name in definitions:
                    raise ParseError(*d.pos, f"duplicate definition {d.name!r}")
                definitions[d.name] = d
            elif word == "main":
                if main is not None:
                    raise ParseError(*self._pos(), "duplicate main")
                ts.next()
                ts.take_punct("=")
                self.scope = set()
                main = self.expr()
            else:
                raise ts.error("expected 'prefix', 'def' or 'main'")
        if main is None:
            tok = ts.peek()
            raise ParseError(tok.line, tok.column, "program has no main")
        for name, pos in self.calls:
            if name not in definitions:
                raise ParseError(*pos, f"unknown definition {name!r}")
        return Program(self.prefixes, definitions, main)

    def _prefix_decl(self) -> None:
        ts = self.ts
        ts.take_word("prefix")
        alias_tok = tok = ts.peek()
        alias = ""
        if tok.kind == "WORD":
            alias = tok.text
            ts.next()
            tok = ts.peek()
        if not (tok.kind == "PNAME" and tok.text == ":"):
            raise ts.error("expected ':' in prefix declaration")
        ts.next()
        if alias in self.prefixes:
            raise ParseError(alias_tok.line, alias_tok.column,
                             f"duplicate prefix {alias + ':'!r}")
        iri_tok = ts.peek()
        if iri_tok.kind != "IRIREF":
            raise ts.error("expected <iri> after prefix alias")
        ts.next()
        self.prefixes[alias] = iri_tok.text[1:-1]

    def _definition(self) -> Definition:
        ts = self.ts
        pos = self._pos()
        ts.take_word("def")
        name = self._ident("a definition name")
        ts.take_punct("(")
        params: list[tuple[str, LangType]] = []
        self.scope = set()
        if not ts.at_punct(")"):
            while True:
                ppos = self._pos()
                pname = self._ident("a parameter name")
                if pname in self.scope:
                    raise ParseError(*ppos, f"duplicate parameter {pname!r}")
                self.scope.add(pname)
                # consume ':' which lexes as a bare PNAME token
                self._colon()
                params.append((pname, self._type()))
                if ts.at_punct(","):
                    ts.next()
                    continue
                break
        ts.take_punct(")")
        self._colon()
        return_type = self._type()
        ts.take_punct("=")
        body = self.expr()
        return Definition(name, tuple(params), return_type, body, pos)

    def _colon(self) -> None:
        tok = self.ts.peek()
        if tok.kind == "PNAME" and tok.text == ":":
            self.ts.next()
            return
        raise self.ts.error("expected ':'")

    def _type(self) -> LangType:
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "BACKTICK":
            return ConceptType(self._backtick_concept())
        if ts.at_word("List"):
            ts.next()
            ts.take_punct("[")
            elem = self._type()
            ts.take_punct("]")
            return ListType(elem)
        if ts.at_word("Bool"):
            ts.next()
            return BOOL
        if ts.at_punct("("):
            ts.next()
            items = [self._type()]
            while ts.at_punct(","):
                ts.next()
                items.append(self._type())
            ts.take_punct(")")
            if len(items) < 2:
                raise ParseError(tok.line, tok.column,
                                 "tuple types need at least two components")
            return TupleType(tuple(items))
        raise ts.error("expected a type")

    # -- expressions ---------------------------------------------------------

    def expr(self) -> Term:
        word = self._word()
        pos = self._pos()
        ts = self.ts
        if word == "if":
            ts.next()
            cond = self.expr()
            ts.take_word("then")
            then = self.expr()
            ts.take_word("else")
            orelse = self.expr()
            return If(cond, then, orelse).at(pos)
        if word == "let":
            ts.next()
            name = self._ident("a variable name")
            ts.take_punct("=")
            value = self.expr()
            ts.take_word("in")
            return Let(name, value, self._bound(name)).at(pos)
        if word == "match":
            return self._match()
        return self._postfix()

    def _bound(self, name: str) -> Term:
        """An expression read with ``name`` in scope; the scope after it is
        the one before."""
        outer = self.scope
        self.scope = outer | {name}
        body = self.expr()
        self.scope = outer
        return body

    def _match(self) -> Term:
        ts = self.ts
        pos = self._pos()
        ts.take_word("match")
        subject = self.expr()
        ts.take_punct("{")
        cases: list[MatchCase] = []
        default: Term | None = None
        while default is None:
            ts.take_word("case")
            tok = ts.peek()
            if tok.kind == "WORD" and tok.text == "_":
                ts.next()
                if ts.peek().kind != "ARROW":
                    raise ts.error("expected '=>'")
                ts.next()
                default = self.expr()
                continue
            binder = self._ident("a binder or '_'")
            self._colon()
            concept = self._backtick_concept()
            if ts.peek().kind != "ARROW":
                raise ts.error("expected '=>'")
            ts.next()
            cases.append(MatchCase(binder, concept, self._bound(binder)))
        ts.take_punct("}")
        return Match(subject, tuple(cases), default).at(pos)

    def _postfix(self) -> Term:
        ts = self.ts
        term = self._primary()
        while ts.at_punct("."):
            pos = self._pos()
            ts.next()
            tok = ts.peek()
            if tok.kind == "INT":
                ts.next()
                term = TupleIndex(term, int(tok.text)).at(pos)
            elif tok.kind == "BACKTICK":
                ts.next()
                role = self._embedded(tok, read_role)
                assert isinstance(role, Role)
                term = RoleProj(term, role).at(pos)
            else:
                raise ts.error("expected a tuple index or back-quoted role")
        return term

    def _primary(self) -> Term:
        ts = self.ts
        pos = self._pos()
        word = self._word()
        if word == "iri":
            ts.next()
            ts.take_punct("(")
            iri = read_name(ts, self.prefixes)
            ts.take_punct(")")
            ascription: Concept | None = None
            colon = ts.peek()
            if colon.kind == "PNAME" and colon.text == ":" \
                    and ts.peek(1).kind == "BACKTICK":
                ts.next()
                ascription = self._backtick_concept()
            return IriLit(iri, ascription).at(pos)
        if word in ("query", "strictquery"):
            ts.next()
            tok = ts.peek()
            if tok.kind != "STRING":
                raise ts.error("expected a query string")
            ts.next()
            body = tok.text[1:-1]
            sq = parse_query(body, self.prefixes, tok.line, tok.column + 1)
            for splice in sq.splices:
                if splice not in self.scope:
                    raise ParseError(*pos, f"splice ${splice} names no variable in scope")
            return QueryTerm(sq, strict=(word == "strictquery")).at(pos)
        if word == "nonEmpty" or word == "head":
            ts.next()
            ts.take_punct("(")
            arg = self.expr()
            ts.take_punct(")")
            node = NonEmpty(arg) if word == "nonEmpty" else Head(arg)
            return node.at(pos)
        if word == "nil":
            ts.next()
            ts.take_punct("[")
            elem = self._type()
            ts.take_punct("]")
            return Nil(elem).at(pos)
        if word is not None and word not in KEYWORDS and word != "_":
            name = self._ident("an expression")
            if ts.at_punct("("):
                self.calls.append((name, pos))
                ts.next()
                args: list[Term] = []
                if not ts.at_punct(")"):
                    while True:
                        args.append(self.expr())
                        if ts.at_punct(","):
                            ts.next()
                            continue
                        break
                ts.take_punct(")")
                return Call(name, tuple(args)).at(pos)
            if name not in self.scope:
                raise ParseError(*pos, f"unbound variable {name!r}")
            return Ref(name).at(pos)
        if ts.at_punct("("):
            ts.next()
            inner = self.expr()
            ts.take_punct(")")
            return inner
        raise ts.error("expected an expression")


def parse_program(text: str) -> Program:
    """Parse a program file, checking scope as it is read."""
    parser = _ProgramParser(text)
    return parser.ts.within_stack(parser.parse, "program")
