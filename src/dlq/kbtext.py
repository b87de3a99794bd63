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
``{:alice}`` is a nominal, ``inv(:headOf)`` an inverted role.  Printing is
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
    concept_depth,
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
# of ``and`` or ``or`` counts one level per operand.
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


def read_concept(ts: TokenStream, prefixes: Mapping[str, str]) -> Concept:
    """Parse one concept expression from the stream (stops at foreign tokens).

    Every constructor level owns at least one token of its own (a name,
    ``not``, ``and``, ``or``, ``some``/``only``, ``{``, ``Thing`` or
    ``Nothing``), so a concept read from at most ``MAX_CONCEPT_DEPTH``
    tokens is within the depth limit, and only a longer one is walked."""
    start, first = ts.peek(), ts.position
    c = ts.within_stack(_or_expr, "concept", ts, prefixes)
    if (ts.position - first > MAX_CONCEPT_DEPTH
            and concept_depth(c) > MAX_CONCEPT_DEPTH):
        raise ParseError(start.line, start.column,
                         f"concept nested more than {MAX_CONCEPT_DEPTH} levels deep")
    return c


def _or_expr(ts: TokenStream, prefixes: Mapping[str, str]) -> Concept:
    c = _and_expr(ts, prefixes)
    while ts.at_word("or"):
        ts.next()
        c = Or(c, _and_expr(ts, prefixes))
    return c


def _and_expr(ts: TokenStream, prefixes: Mapping[str, str]) -> Concept:
    c = _qual_expr(ts, prefixes)
    while ts.at_word("and"):
        ts.next()
        c = And(c, _qual_expr(ts, prefixes))
    return c


def _qual_expr(ts: TokenStream, prefixes: Mapping[str, str]) -> Concept:
    # A name followed by a quantifier keyword is a role; otherwise fall
    # through to the unary level, where the same name is an atomic concept.
    tok = ts.peek()
    kind = tok.kind
    if (kind == "WORD" and tok.text == "inv"
            or (kind == "IRIREF" or kind == "PNAME")
            and (after := ts.peek(1)).kind == "WORD"
            and after.text in ("some", "only")):
        role = read_role(ts, prefixes)
        quant = ts.next()
        if quant.text not in ("some", "only"):
            raise ParseError(quant.line, quant.column, "expected 'some' or 'only'")
        filler = _qual_expr(ts, prefixes)
        return (Exists if quant.text == "some" else Forall)(role, filler)
    return _unary(ts, prefixes)


def _unary(ts: TokenStream, prefixes: Mapping[str, str]) -> Concept:
    tok = ts.peek()
    kind, text = tok.kind, tok.text
    if kind == "WORD":
        if text == "not":
            ts.next()
            return Not(_unary(ts, prefixes))
        if text == "Thing":
            ts.next()
            return TOP
        if text == "Nothing":
            ts.next()
            return BOTTOM
    elif kind == "PUNCT":
        if text == "{":
            ts.next()
            obj = read_name(ts, prefixes)
            ts.take_punct("}")
            return Nominal(obj)
        if text == "(":
            ts.next()
            c = _or_expr(ts, prefixes)
            ts.take_punct(")")
            return c
    elif kind == "IRIREF" or kind == "PNAME":
        return _read_atomic(ts, prefixes)
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


# Precedence levels used by the printer; a child is parenthesised whenever
# its own level is below what its context requires.
_LEVEL_OR, _LEVEL_AND, _LEVEL_QUAL, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(c: Concept) -> int:
    if isinstance(c, Or):
        return _LEVEL_OR
    if isinstance(c, And):
        return _LEVEL_AND
    if isinstance(c, (Exists, Forall)):
        return _LEVEL_QUAL
    if isinstance(c, Not):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


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
        text = "not " + _render(c.operand, _LEVEL_UNARY, prefixes)
    elif isinstance(c, And):
        text = (_render(c.left, _LEVEL_AND, prefixes) + " and "
                + _render(c.right, _LEVEL_QUAL, prefixes))
    elif isinstance(c, Or):
        text = (_render(c.left, _LEVEL_OR, prefixes) + " or "
                + _render(c.right, _LEVEL_AND, prefixes))
    elif isinstance(c, Exists):
        text = (print_role(c.role, prefixes) + " some "
                + _render(c.filler, _LEVEL_QUAL, prefixes))
    elif isinstance(c, Forall):
        text = (print_role(c.role, prefixes) + " only "
                + _render(c.filler, _LEVEL_QUAL, prefixes))
    else:
        raise TypeError(f"not a concept: {c!r}")
    if _level(c) < require:
        return "(" + text + ")"
    return text


def print_concept(c: Concept, prefixes: Mapping[str, str] | None = None) -> str:
    """Canonical text for a concept; reparsing yields a structurally equal tree."""
    return _render(c, _LEVEL_OR, prefixes)


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
