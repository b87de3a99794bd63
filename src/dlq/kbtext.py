"""Textual format for knowledge bases and concept expressions.

One statement per line, ``#`` comments, prefix declarations up front::

    prefix : <http://example.org/uni#>
    :Person and :Organization SubClassOf Nothing
    :Employee SubClassOf :Person and :worksFor some :Organization
    :alice Type :Chair
    :bob Fact :worksFor :softlang

Concept syntax, tightest binding first: ``not``, then ``some``/``only``
(role on the left, as in ``:worksFor some :Organization``), then ``and``,
then ``or``; parentheses override.  ``Thing``/``Nothing`` are top/bottom,
``{:alice}`` is a nominal, ``inv(:headOf)`` an inverted role.  A chain of
``and`` (or ``or``) is one n-ary node however it is parenthesised, so
``:A and (:B and :C)`` prints as ``:A and :B and :C``.  Printing is
canonical: ``parse_concept(print_concept(c)) == c`` structurally.
"""

from __future__ import annotations

import re
from typing import Mapping

from .lexing import ParseError, Token, TokenStream, fragment, tokenize
from .model import (
    And,
    Atomic,
    BOTTOM,
    Bottom,
    Concept,
    ConceptAssertion,
    Equivalent,
    Exists,
    Forall,
    Iri,
    KnowledgeBase,
    Nominal,
    Not,
    Or,
    Role,
    RoleAssertion,
    SubClass,
    TOP,
    Top,
)

__all__ = [
    "ParseError",
    "parse_kb",
    "parse_concept",
    "parse_name",
    "parse_role",
    "print_concept",
    "print_role",
    "print_kb",
]

# Reasoning over a concept recurses once or twice per level (hashing,
# normal forms, extensions), so deeper input is refused where it is read,
# with its position, instead of exhausting the Python stack later.  A chain
# of ``and`` or ``or`` is one node, so it counts one level however long.
MAX_CONCEPT_DEPTH = 100


def expand_name(tok: Token, prefixes: Mapping[str, str]) -> Iri:
    """Resolve an IRIREF or PNAME token to an absolute IRI."""
    if tok.kind == "IRIREF":
        value = tok.text[1:-1]
        if not value:
            raise ParseError(tok.line, tok.column, "empty IRI")
        return Iri(value)
    alias, _, local = tok.text.partition(":")
    if alias not in prefixes:
        raise ParseError(tok.line, tok.column, f"unknown prefix {alias + ':'!r}")
    return Iri(prefixes[alias] + local)


def read_name(ts: TokenStream, prefixes: Mapping[str, str]) -> Iri:
    """The IRI of the name token under the cursor (see :func:`_read_atomic`)."""
    return _read_atomic(ts, prefixes).iri


def _read_atomic(ts: TokenStream, prefixes: Mapping[str, str]) -> Atomic:
    """The name token under the cursor as an atomic concept, resolved once
    per stream.

    ``ts.names`` keeps each name's ``Atomic`` by token text, so a name used
    twice gives the same concept and the same ``Iri`` object.  That holds
    as long as the stream is read against one prefix table that only grows,
    which both documents with ``prefix`` declarations guarantee: an alias
    cannot be declared twice.  A name that fails to resolve is not kept, so
    each use reports its own position."""
    tok = ts.peek()
    kind = tok.kind
    if kind != "PNAME" and kind != "IRIREF":
        raise ts.error("expected an IRI or prefixed name")
    ts.next()
    names = ts.names
    c = names.get(tok.text)
    if c is None:
        c = names[tok.text] = Atomic(expand_name(tok, prefixes))
    return c


def read_role(ts: TokenStream, prefixes: Mapping[str, str]) -> Role:
    """``inv(:r)`` or a plain role name."""
    if ts.at_word("inv"):
        ts.next()
        ts.take_punct("(")
        iri = read_name(ts, prefixes)
        ts.take_punct(")")
        return Role(iri, inverse=True)
    return Role(read_name(ts, prefixes))


# A name followed by none of these is a whole concept.
_NAME_GOES_ON = frozenset(("and", "or", "some", "only"))


def read_concept(ts: TokenStream, prefixes: Mapping[str, str]) -> Concept:
    """Parse one concept expression from the stream (stops at foreign tokens)."""
    if ts.peek().kind in ("PNAME", "IRIREF") and ts.peek(1).text not in _NAME_GOES_ON:
        return _read_atomic(ts, prefixes)  # a lone name: most concepts of a KB
    return ts.within_stack(_ConceptReader(ts, prefixes).chain, "concept", Or, 1, None)[0]


def _nests(c: Concept, into: type[Concept] | None) -> int:
    """1 when ``c`` is a chain that stays a node of its own inside a chain
    of kind ``into``, its operands a level below it; 0 when it splices in
    or is no chain."""
    return int(isinstance(c, (And, Or)) and c.__class__ is not into)


class _ConceptReader:
    """Recursive descent over one concept that refuses a token opening a
    level past ``MAX_CONCEPT_DEPTH``.  A ``not``, a quantifier or a whole
    ``and``/``or`` chain is one level, a parenthesised chain inside a chain
    of its kind none; ``into`` is the kind of chain a chain read there
    would splice into.  Each method reads at ``level``, the level the text
    read so far gives, and returns the concept with the deepest level it
    opened and the first token there.  A chain shows only at the ``and`` or
    ``or`` after its first operand: that operand then moves down by what
    the chain adds, and its deepest token is refused if it is now past the
    limit."""

    def __init__(self, ts: TokenStream, prefixes: Mapping[str, str]) -> None:
        self.ts, self.prefixes = ts, prefixes

    def opens(self, level: int, tok: Token | None = None) -> None:
        if level > MAX_CONCEPT_DEPTH:
            tok = tok or self.ts.peek()
            raise ParseError(tok.line, tok.column,
                             f"concept nested more than {MAX_CONCEPT_DEPTH} levels deep")

    def chain(self, kind: type[Concept], level: int,
              into: type[Concept] | None) -> tuple[Concept, int, Token]:
        """An ``or`` chain of ``and`` chains (``kind`` Or), or an ``and``
        chain of quantified concepts."""
        ts = self.ts
        word = "or" if kind is Or else "and"
        operand = self.qual if kind is And else lambda level, into: self.chain(And, level, into)
        c, deepest, tok = operand(level, into)
        if not ts.at_word(word):
            return c, deepest, tok
        # ``c`` was read as if it stood alone where the chain stands.
        inner = level + (kind is not into)
        deepest += inner - level + _nests(c, kind) - _nests(c, into)
        self.opens(deepest, tok)
        operands = [c]
        while ts.at_word(word):
            ts.next()
            c, d, t = operand(inner, kind)
            operands.append(c)
            if d > deepest:
                deepest, tok = d, t
        return kind(tuple(operands)), deepest, tok

    def qual(self, level: int, into: type[Concept] | None) -> tuple[Concept, int, Token]:
        # A name followed by a quantifier keyword is a role; otherwise fall
        # through to the unary level, where the same name is an atomic concept.
        ts = self.ts
        tok = ts.peek()
        kind = tok.kind
        if (kind == "WORD" and tok.text == "inv"
                or (kind == "IRIREF" or kind == "PNAME")
                and (after := ts.peek(1)).kind == "WORD"
                and after.text in ("some", "only")):
            self.opens(level)
            role = read_role(ts, self.prefixes)
            quant = ts.next()
            if quant.text not in ("some", "only"):
                raise ParseError(quant.line, quant.column, "expected 'some' or 'only'")
            filler, deepest, tok = self.qual(level + 1, None)
            return (Exists if quant.text == "some" else Forall)(role, filler), deepest, tok
        return self.unary(level, into)

    def unary(self, level: int, into: type[Concept] | None) -> tuple[Concept, int, Token]:
        ts = self.ts
        tok = ts.peek()
        kind, text = tok.kind, tok.text
        if text == "(":
            ts.next()
            read = self.chain(Or, level, into)
            ts.take_punct(")")
            return read
        if kind == "IRIREF" or kind == "PNAME":
            self.opens(level)
            return _read_atomic(ts, self.prefixes), level, tok
        if text in ("{", "not", "Thing", "Nothing"):  # only a PUNCT or WORD reads so
            self.opens(level)
            ts.next()
            if text == "not":
                operand, deepest, at = self.unary(level + 1, None)
                return Not(operand), deepest, at
            if text == "{":
                obj = read_name(ts, self.prefixes)
                ts.take_punct("}")
                return Nominal(obj), level, tok
            return TOP if text == "Thing" else BOTTOM, level, tok
        raise ts.error("expected a concept expression")


def parse_concept(text: str, prefixes: Mapping[str, str]) -> Concept:
    """Parse a standalone concept expression (newlines treated as spaces)."""
    ts = fragment(text)
    c = read_concept(ts, prefixes)
    ts.end("trailing input after concept")
    return c


def parse_name(text: str, prefixes: Mapping[str, str]) -> Iri:
    """Parse a standalone object name (an IRI or a prefixed name)."""
    ts = fragment(text)
    iri = read_name(ts, prefixes)
    ts.end("trailing input after object name")
    return iri


def parse_role(text: str, prefixes: Mapping[str, str]) -> Role:
    """Parse a standalone role expression (a name or ``inv(name)``)."""
    ts = fragment(text)
    role = read_role(ts, prefixes)
    ts.end("trailing input after role")
    return role


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a knowledge-base document into an IRI-expanded KnowledgeBase."""
    ts = TokenStream(tokenize(text))
    prefixes: dict[str, str] = {}
    tbox: list[SubClass | Equivalent] = []
    abox: list[ConceptAssertion | RoleAssertion] = []

    def end_statement() -> None:
        tok = ts.peek()
        if tok.kind not in ("NL", "EOF"):
            raise ts.error("expected end of statement")
        ts.skip_newlines()

    ts.skip_newlines()
    while ts.peek().kind != "EOF":
        if ts.at_word("prefix"):
            ts.next()
            tok = ts.peek()
            if tok.kind != "PNAME" or tok.text.partition(":")[2]:
                raise ts.error("expected a prefix alias ending in ':'")
            ts.next()
            alias = tok.text[:-1]
            if alias in prefixes:
                raise ParseError(tok.line, tok.column, f"duplicate prefix {tok.text!r}")
            iri_tok = ts.peek()
            if iri_tok.kind != "IRIREF":
                raise ts.error("expected <iri> after prefix alias")
            ts.next()
            prefixes[alias] = iri_tok.text[1:-1]
            end_statement()
            continue

        start = ts.peek()
        left = read_concept(ts, prefixes)
        tok = ts.peek()
        word = tok.text if tok.kind == "WORD" else ""
        if word == "SubClassOf":
            ts.next()
            tbox.append(SubClass(left, read_concept(ts, prefixes)))
        elif word == "EquivalentTo":
            ts.next()
            tbox.append(Equivalent(left, read_concept(ts, prefixes)))
        elif word == "Type":
            if not isinstance(left, Atomic):
                raise ParseError(start.line, start.column,
                                 "left side of 'Type' must be an object name")
            ts.next()
            abox.append(ConceptAssertion(left.iri, read_concept(ts, prefixes)))
        elif word == "Fact":
            if not isinstance(left, Atomic):
                raise ParseError(start.line, start.column,
                                 "left side of 'Fact' must be an object name")
            ts.next()
            role = read_role(ts, prefixes)
            obj = read_name(ts, prefixes)
            abox.append(RoleAssertion(left.iri, role, obj))
        else:
            raise ts.error("expected SubClassOf, EquivalentTo, Type or Fact")
        end_statement()

    return KnowledgeBase(tuple(tbox), tuple(abox), prefixes)


_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*$")


def shorten(iri: Iri, prefixes: Mapping[str, str] | None) -> str:
    """Prefixed form of an IRI when some declared prefix covers it, else ``<iri>``."""
    if prefixes:
        best: tuple[int, str] | None = None
        for alias, base in prefixes.items():
            if iri.value.startswith(base) and _LOCAL_RE.match(iri.value[len(base):]):
                key = (-len(base), alias)
                if best is None or key < best:
                    best = key
        if best is not None:
            alias = best[1]
            return f"{alias}:{iri.value[len(prefixes[alias]):]}"
    return f"<{iri.value}>"


def print_role(role: Role, prefixes: Mapping[str, str] | None = None) -> str:
    name = shorten(role.iri, prefixes)
    return f"inv({name})" if role.inverse else name


# Printer precedence by class, loosest first; a child is parenthesised
# when its level is below what its place requires.  A name, nominal,
# ``Thing`` or ``Nothing`` is never parenthesised.
_LEVEL = {Or: 1, And: 2, Exists: 3, Forall: 3, Not: 4}


def _render(c: Concept, require: int, prefixes: Mapping[str, str] | None) -> str:
    text: str
    if isinstance(c, Top):
        text = "Thing"
    elif isinstance(c, Bottom):
        text = "Nothing"
    elif isinstance(c, Atomic):
        text = shorten(c.iri, prefixes)
    elif isinstance(c, Nominal):
        text = "{" + shorten(c.obj, prefixes) + "}"
    elif isinstance(c, Not):
        text = "not " + _render(c.operand, _LEVEL[Not], prefixes)
    elif isinstance(c, (And, Or)):
        # An operand binds tighter than its chain: no chain holds its own kind.
        word = " and " if isinstance(c, And) else " or "
        text = word.join([_render(x, _LEVEL[c.__class__] + 1, prefixes) for x in c.operands])
    elif isinstance(c, (Exists, Forall)):
        text = (print_role(c.role, prefixes) + (" some " if isinstance(c, Exists) else " only ")
                + _render(c.filler, _LEVEL[Exists], prefixes))
    else:
        raise TypeError(f"not a concept: {c!r}")
    if _LEVEL.get(c.__class__, 5) < require:
        return "(" + text + ")"
    return text


def print_concept(c: Concept, prefixes: Mapping[str, str] | None = None) -> str:
    """Canonical text for a concept; reparsing yields a structurally equal tree."""
    return _render(c, _LEVEL[Or], prefixes)


def print_kb(kb: KnowledgeBase) -> str:
    """Serialise a knowledge base; ``parse_kb`` recovers equal axiom sequences."""
    lines: list[str] = []
    for alias in sorted(kb.prefixes):
        lines.append(f"prefix {alias}: <{kb.prefixes[alias]}>")
    if lines:
        lines.append("")
    p = kb.prefixes
    for axiom in kb.tbox:
        if isinstance(axiom, SubClass):
            lines.append(f"{print_concept(axiom.sub, p)} SubClassOf {print_concept(axiom.sup, p)}")
        else:
            lines.append(f"{print_concept(axiom.left, p)} EquivalentTo {print_concept(axiom.right, p)}")
    for assertion in kb.abox:
        if isinstance(assertion, ConceptAssertion):
            lines.append(f"{shorten(assertion.obj, p)} Type {print_concept(assertion.concept, p)}")
        else:
            lines.append(f"{shorten(assertion.subject, p)} Fact "
                         f"{print_role(assertion.role, p)} {shorten(assertion.obj, p)}")
    return "\n".join(lines) + "\n"
