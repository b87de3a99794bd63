"""Syntax errors of the three surface languages and of a lone concept,
pinned by position and message: each text is read by its parser, and the
error must name the line, column and message in the table."""

from __future__ import annotations

import pytest

from dlq.kbtext import parse_concept, parse_kb
from dlq.lang import IriLit, parse_program
from dlq.lexing import ParseError
from dlq.model import Iri
from dlq.query import parse_query

H = "prefix : <http://x/>\n"
PARSERS = {
    "kb": parse_kb,
    "query": lambda text: parse_query(text, {"": "http://x/"}),
    "program": parse_program,
    "concept": lambda text: parse_concept(text, {"": "http://x/"}),
}

CASES = [
    ("kb", H + ":A and :B Type :C",
     (2, 1, "left side of 'Type' must be an object name")),
    ("kb", H + "not :a Fact :r :b",
     (2, 1, "left side of 'Fact' must be an object name")),
    ("kb", H + ":X SubClassOf inv(:r) :A :B",
     (2, 23, "expected 'some' or 'only'")),
    ("kb", "prefix a: :b",
     (1, 11, "expected <iri> after prefix alias, found ':b'")),
    ("kb", H + ":a Foo :B",
     (2, 4, "expected SubClassOf, EquivalentTo, Type or Fact, found 'Foo'")),
    ("kb", H + ":a Type <>", (2, 9, "empty IRI")),
    ("query", "SELECT ?x WHERE { ?x a :A } extra",
     (1, 29, "trailing input after query, found 'extra'")),
    ("query", "SELECT ?x WHERE { }", (1, 19, "empty group, found '}'")),
    ("query", "SELECT WHERE { ?x a :A }",
     (1, 8, "expected at least one ?variable after SELECT, found 'WHERE'")),
    ("query", "SELECT ?x WHERE { ?x ?y }",
     (1, 22, "expected 'a' or a role IRI, found '?y'")),
    ("program", H + 'main = query "SELECT ?x WHERE {\n  ?x a :A } extra"',
     (3, 13, "trailing input after query, found 'extra'")),
    ("program", H + "main = match iri(:a) { case _ iri(:a) }",
     (2, 31, "expected '=>', found 'iri'")),
    ("program", H + "def f(): `:A` = iri(:a)\ndef f(): `:A` = iri(:a)\nmain = f()",
     (3, 1, "duplicate definition 'f'")),
    ("program", H + "main = iri(:a)\nmain = iri(:a)",
     (3, 1, "duplicate main")),
    ("program", H + "def f(p: `:A`, p: `:A`): `:A` = p\nmain = f(iri(:a))",
     (2, 16, "duplicate parameter 'p'")),
    ("program", H + "def f(p: (`:A`)): `:A` = p\nmain = f(iri(:a))",
     (2, 10, "tuple types need at least two components")),
    ("program", H + "def f(p: `:A\n  :B`): `:A` = p\nmain = f(iri(:a))",
     (3, 3, "trailing input in back-quoted expression, found ':B'")),
    ("program", "prefix ub: <http://a#>\nprefix ub: <http://a#>\nmain = iri(ub:a)",
     (2, 8, "duplicate prefix 'ub:'")),
    ("program", H + H + "main = iri(:a)", (2, 8, "duplicate prefix ':'")),
    ("kb", "prefix ub: <http://a#>\nprefix ub: <http://a#>",
     (2, 8, "duplicate prefix 'ub:'")),
    ("concept", "inv(:r) :A", (1, 9, "expected 'some' or 'only'")),
    ("kb", H + ":X SubClassOf inv(:r) :A\n", (2, 23, "expected 'some' or 'only'")),
]


@pytest.mark.parametrize("language, text, expected", CASES)
def test_syntax_errors_name_their_position(language, text, expected):
    with pytest.raises(ParseError) as caught:
        PARSERS[language](text)
    err = caught.value
    assert (err.line, err.column, err.message) == expected


def test_a_parenthesised_term_is_the_term_inside():
    main = parse_program(H + "main = (iri(:bob))").main
    assert isinstance(main, IriLit)
    assert (main.iri, main.ascription, main.pos) == (Iri("http://x/bob"), None, (2, 9))
