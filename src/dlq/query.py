"""Query algebra over a knowledge base: abstract syntax, the surface
parser, and the per-mapping truth condition.

A query is a tree of concept/role patterns combined with join, UNION,
MINUS and OPTIONAL; the patterns are the tree's leaves, query nodes
themselves.  Answers are partial mappings from variables to named
objects that the knowledge base *entails* to match (certain answers under
the open world, not mere graph matches).

Surface form::

    SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }

Group elements fold left to right: triples and ``{..} UNION {..}`` join
onto the accumulated query; ``MINUS {..}`` and ``OPTIONAL {..}`` attach
the group to it.  ``$name`` marks a splice position to be filled by an
embedding program; ``a [ ... ]`` admits a full concept expression in
knowledge-base concept syntax.
"""

from __future__ import annotations

from ._record import record
from typing import Iterator, Mapping, Union as TUnion

from .kbtext import read_concept, read_name
from .lexing import ParseError, TokenStream, fragment
from .model import Atomic, Concept, Iri, Role
from .reasoner import Reasoner

__all__ = [
    "Var", "Splice", "PatternElem",
    "ConceptPattern", "RolePattern", "Pattern",
    "Join", "Union", "Minus", "Optional", "Query",
    "SelectQuery", "SolutionMapping",
    "query_vars", "substitute_splices", "elem_value",
    "parse_query", "satisfies",
]


@record(frozen=True)
class Var:
    name: str


@record(frozen=True)
class Splice:
    """A ``$name`` position that an embedding program fills with an IRI.
    ``Splice("t")`` and ``Var("t")`` are different terms."""

    name: str


# A pattern's end: a variable, a constant, or a splice.
PatternElem = TUnion[Var, Iri, Splice]


class Query:
    """Base class for query algebra nodes."""

    __slots__ = ()


class Pattern(Query):
    """Base class for the leaves: a concept or a role pattern."""

    __slots__ = ()


@record(frozen=True)
class ConceptPattern(Pattern):
    elem: PatternElem
    concept: Concept


@record(frozen=True)
class RolePattern(Pattern):
    subject: PatternElem
    role: Role
    obj: PatternElem


@record(frozen=True)
class Join(Query):
    left: Query
    right: Query


@record(frozen=True)
class Union(Query):
    left: Query
    right: Query


@record(frozen=True)
class Minus(Query):
    left: Query
    right: Query


@record(frozen=True)
class Optional(Query):
    left: Query
    right: Query


def _pattern_elems(p: Pattern) -> tuple[PatternElem, ...]:
    if isinstance(p, ConceptPattern):
        return (p.elem,)
    return (p.subject, p.obj)


def query_vars(q: Query) -> frozenset[Var]:
    """All variables occurring syntactically in the query."""
    if isinstance(q, Pattern):
        return frozenset(e for e in _pattern_elems(q) if isinstance(e, Var))
    assert isinstance(q, (Join, Union, Minus, Optional))
    return query_vars(q.left) | query_vars(q.right)


def _splices_in(q: Query) -> Iterator[str]:
    if isinstance(q, Pattern):
        for e in _pattern_elems(q):
            if isinstance(e, Splice):
                yield e.name
    else:
        assert isinstance(q, (Join, Union, Minus, Optional))
        yield from _splices_in(q.left)
        yield from _splices_in(q.right)


def substitute_splices(q: Query, values: Mapping[str, Iri]) -> Query:
    """Replace every splice by its IRI in ``values``."""

    def fill(e: PatternElem) -> PatternElem:
        if isinstance(e, Splice):
            if e.name not in values:
                raise KeyError(f"no value for splice ${e.name}")
            return values[e.name]
        return e

    if isinstance(q, ConceptPattern):
        return ConceptPattern(fill(q.elem), q.concept)
    if isinstance(q, RolePattern):
        return RolePattern(fill(q.subject), q.role, fill(q.obj))
    assert isinstance(q, (Join, Union, Minus, Optional))
    return type(q)(substitute_splices(q.left, values),
                   substitute_splices(q.right, values))


@record(frozen=True)
class SelectQuery:
    """A query body plus projection list and the splices it mentions (ids
    in first-occurrence order, one entry per id)."""

    select_vars: tuple[Var, ...]
    body: Query
    splices: tuple[str, ...]

    @classmethod
    def build(cls, select_vars: tuple[Var, ...], body: Query) -> "SelectQuery":
        return cls(select_vars, body, tuple(dict.fromkeys(_splices_in(body))))

    @classmethod
    def projection(cls, role: Role) -> "SelectQuery":
        """``SELECT ?x WHERE { $subject role ?x }``: what a role projection
        from the object spliced in as ``$subject`` asks for."""
        x = Var("x")
        return cls.build((x,), RolePattern(Splice("subject"), role, x))


# --- solution mappings ------------------------------------------------------


@record(frozen=True)
class SolutionMapping:
    """A partial map from variables to objects, canonically ordered."""

    bindings: tuple[tuple[Var, Iri], ...]

    @classmethod
    def of(cls, mapping: Mapping[Var, Iri]) -> "SolutionMapping":
        return cls(tuple(sorted(mapping.items(), key=lambda kv: kv[0].name)))

    def get(self, var: Var) -> Iri | None:
        for v, obj in self.bindings:
            if v == var:
                return obj
        return None

    @property
    def domain(self) -> frozenset[Var]:
        return frozenset(v for v, _ in self.bindings)

    def merge(self, other: "SolutionMapping") -> "SolutionMapping | None":
        """Union of two mappings, or None when they disagree on a variable."""
        combined = dict(self.bindings)
        for v, o in other.bindings:
            if combined.setdefault(v, o) != o:
                return None
        return SolutionMapping.of(combined)


# --- surface parser ---------------------------------------------------------

_QUERY_KEYWORDS = ("SELECT", "WHERE", "UNION", "MINUS", "OPTIONAL")


class _QueryParser:
    def __init__(self, ts: TokenStream, prefixes: Mapping[str, str]) -> None:
        self.ts = ts
        self.prefixes = prefixes

    def parse(self) -> SelectQuery:
        ts = self.ts
        ts.take_word("SELECT")
        select: list[Var] = []
        positions: list[tuple[int, int]] = []
        while ts.peek().kind == "VAR":
            tok = ts.next()
            var = Var(tok.text[1:])
            if var in select:
                raise ParseError(tok.line, tok.column,
                                 f"duplicate SELECT variable ?{var.name}")
            select.append(var)
            positions.append((tok.line, tok.column))
        if not select:
            raise ts.error("expected at least one ?variable after SELECT")
        ts.take_word("WHERE")
        ts.take_punct("{")
        body = self.group()
        ts.take_punct("}")
        ts.end("trailing input after query")
        in_body = query_vars(body)
        for var, (line, column) in zip(select, positions):
            if var not in in_body:
                raise ParseError(line, column,
                                 f"SELECT variable ?{var.name} not used in body")
        return SelectQuery.build(tuple(select), body)

    def group(self) -> Query:
        ts = self.ts
        acc: Query | None = None
        while True:
            if ts.at_punct("."):
                ts.next()
                continue
            if ts.at_punct("}") or ts.peek().kind == "EOF":
                break
            tok = ts.peek()
            if ts.at_word("MINUS") or ts.at_word("OPTIONAL"):
                keyword = ts.next().text
                ts.take_punct("{")
                sub = self.group()
                ts.take_punct("}")
                if acc is None:
                    raise ParseError(tok.line, tok.column,
                                     f"{keyword} cannot start a group")
                acc = Minus(acc, sub) if keyword == "MINUS" else Optional(acc, sub)
                continue
            if ts.at_punct("{"):
                ts.next()
                left = self.group()
                ts.take_punct("}")
                ts.take_word("UNION")
                ts.take_punct("{")
                right = self.group()
                ts.take_punct("}")
                element: Query = Union(left, right)
            else:
                element = self.triple()
            acc = element if acc is None else Join(acc, element)
        if acc is None:
            raise ts.error("empty group")
        return acc

    def triple(self) -> Pattern:
        ts = self.ts
        start = ts.peek()
        subject = self.node()
        pattern: Pattern
        if ts.at_word("a"):
            ts.next()
            pattern = ConceptPattern(subject, self.concept_ref())
        else:
            if not (ts.peek().kind in ("IRIREF", "PNAME")):
                raise ts.error("expected 'a' or a role IRI")
            role = Role(read_name(ts, self.prefixes))
            pattern = RolePattern(subject, role, self.node())
        if all(isinstance(e, Iri) for e in _pattern_elems(pattern)):
            raise ParseError(start.line, start.column,
                             "pattern needs at least one variable or splice")
        return pattern

    def node(self) -> PatternElem:
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "VAR":
            ts.next()
            return Var(tok.text[1:])
        if tok.kind == "SPLICE":
            ts.next()
            return Splice(tok.text[1:])
        if tok.kind in ("IRIREF", "PNAME"):
            return read_name(ts, self.prefixes)
        raise ts.error("expected ?variable, $splice or IRI")

    def concept_ref(self) -> Concept:
        ts = self.ts
        if ts.at_punct("["):
            ts.next()
            concept = read_concept(ts, self.prefixes)
            ts.take_punct("]")
            return concept
        if ts.peek().kind in ("IRIREF", "PNAME"):
            return Atomic(read_name(ts, self.prefixes))
        raise ts.error("expected a concept IRI or [ concept expression ]")


def parse_query(text: str, prefixes: Mapping[str, str],
                line: int = 1, column: int = 1) -> SelectQuery:
    """Parse a SELECT query; ``line``/``column`` offset positions when the
    query text is embedded in a larger source file."""
    ts = fragment(text, line, column)
    return ts.within_stack(_QueryParser(ts, prefixes).parse, "query")


# --- semantics --------------------------------------------------------------


def elem_value(e: PatternElem, mu: SolutionMapping) -> Iri | None:
    """The object a pattern's end stands for under ``mu``: None for an
    unbound variable, and an error for a splice that was never filled."""
    if isinstance(e, Iri):
        return e
    if isinstance(e, Var):
        return mu.get(e)
    raise ValueError(f"unresolved splice ${e.name} during evaluation")


def _pattern_holds(r: Reasoner, p: Pattern, mu: SolutionMapping) -> bool:
    if isinstance(p, ConceptPattern):
        value = elem_value(p.elem, mu)
        return value is not None and r.entails_instance(value, p.concept)
    subject = elem_value(p.subject, mu)
    obj = elem_value(p.obj, mu)
    return subject is not None and obj is not None \
        and r.entails_role(subject, p.role, obj)


def satisfies(r: Reasoner, q: Query, mu: SolutionMapping) -> bool:
    """The per-mapping truth condition; patterns over unbound variables are
    false, so extra bindings elsewhere in ``mu`` are simply ignored."""
    if isinstance(q, Pattern):
        return _pattern_holds(r, q, mu)
    if isinstance(q, Join):
        return satisfies(r, q.left, mu) and satisfies(r, q.right, mu)
    if isinstance(q, Union):
        return satisfies(r, q.left, mu) or satisfies(r, q.right, mu)
    if isinstance(q, Minus):
        return satisfies(r, q.left, mu) and not satisfies(r, q.right, mu)
    if isinstance(q, Optional):
        if (query_vars(q.right) - query_vars(q.left)) & mu.domain:
            return satisfies(r, q.left, mu) and satisfies(r, q.right, mu)
        return satisfies(r, q.left, mu)
    raise TypeError(f"not a query: {q!r}")
