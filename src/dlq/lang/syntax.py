"""Abstract syntax for the ontology-typed expression language.

First-order: named definitions with typed parameters (mutual recursion
allowed), an expression body each, and one ``main`` expression.  Types are
concept expressions, lists, tuples and booleans.  Terms cover IRI
literals, calls, embedded queries (strict or not), role projections,
concept-guarded match, if/let, tuple indexing and the three list
builtins.

Term nodes compare by identity so the type checker can annotate them in a
side table.  Every node carries its source position in ``pos``: the parser
sets it with ``at``, and a term built without one reads the class default
``(0, 0)``.
"""

from __future__ import annotations

from .._record import record
from typing import Mapping, Union as TUnion

from ..model import Concept, Iri, Role
from ..query import SelectQuery

Pos = tuple[int, int]


# --- types ------------------------------------------------------------------


@record(frozen=True)
class ConceptType:
    concept: Concept


@record(frozen=True)
class ListType:
    elem: "LangType"


@record(frozen=True)
class TupleType:
    items: tuple["LangType", ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("tuple types have arity >= 2")


@record(frozen=True)
class BoolType:
    pass


LangType = TUnion[ConceptType, ListType, TupleType, BoolType]
BOOL = BoolType()


# --- terms ------------------------------------------------------------------


class Term:
    pos: Pos = (0, 0)

    def at(self, pos: Pos):
        self.pos = pos
        return self


@record(eq=False)
class Ref(Term):
    name: str


@record(eq=False)
class IriLit(Term):
    iri: Iri
    ascription: Concept | None = None


@record(eq=False)
class Call(Term):
    name: str
    args: tuple[Term, ...]


@record(eq=False)
class QueryTerm(Term):
    query: SelectQuery
    strict: bool


@record(eq=False)
class RoleProj(Term):
    subject: Term
    role: Role


@record(eq=False)
class MatchCase:
    binder: str
    concept: Concept
    body: Term


@record(eq=False)
class Match(Term):
    subject: Term
    cases: tuple[MatchCase, ...]
    default: Term


@record(eq=False)
class If(Term):
    cond: Term
    then: Term
    orelse: Term


@record(eq=False)
class Let(Term):
    name: str
    value: Term
    body: Term


@record(eq=False)
class TupleIndex(Term):
    subject: Term
    index: int  # 1-based


@record(eq=False)
class NonEmpty(Term):
    arg: Term


@record(eq=False)
class Head(Term):
    arg: Term


@record(eq=False)
class Nil(Term):
    elem_type: LangType


# --- programs ---------------------------------------------------------------


@record(eq=False)
class Definition:
    name: str
    params: tuple[tuple[str, LangType], ...]
    return_type: LangType
    body: Term
    pos: Pos


@record(eq=False)
class Program:
    prefixes: Mapping[str, str]
    definitions: Mapping[str, Definition]
    main: Term


# --- values -----------------------------------------------------------------


@record(frozen=True)
class IriVal:
    iri: Iri


@record(frozen=True)
class BoolVal:
    value: bool


@record(frozen=True)
class ListVal:
    items: tuple["Value", ...]


@record(frozen=True)
class TupleVal:
    items: tuple["Value", ...]


Value = TUnion[IriVal, BoolVal, ListVal, TupleVal]
