"""Type checking for programs, with the reasoner supplying every concept
judgement.

Subtyping between concept types is knowledge-base subsumption; lists are
covariant, tuples pointwise, Bool only itself.  Branching constructs take
the least upper bound of their branch types (union of concepts,
recursively through lists and tuples).  Embedded queries are validated
(strictly or not) with the types of their spliced variables; role
projections must be provably available on the subject's type.

Failures carry a category tag matching the failure scenarios the
command-line tool reports: E-SAT (a query part can never match), E-SUB
(a value used where a non-supertype is required), E-ACCESS (a role
projection on a type not known to have the role).
"""

from __future__ import annotations

from typing import Mapping

from ..inference import (
    Valid,
    type_role_projection,
    validate_query,
    validation_failure,
)
from ..kbtext import print_concept, print_role, shorten
from ..model import Concept, Nominal, Or, TOP
from ..reasoner import Reasoner
from .syntax import (
    BOOL,
    BoolType,
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

__all__ = ["LangTypeError", "subtype", "lub", "typecheck", "type_name"]

FULL, TBOX_ONLY = "full", "tbox_only"


class LangTypeError(Exception):
    """A static error, tagged with its failure category and position."""

    def __init__(self, category: str, pos: Pos, message: str) -> None:
        super().__init__(message)
        self.category = category
        self.pos = pos
        self.message = message


def type_name(t: LangType, prefixes: Mapping[str, str] | None = None) -> str:
    if isinstance(t, ConceptType):
        return f"`{print_concept(t.concept, prefixes)}`"
    if isinstance(t, ListType):
        return f"List[{type_name(t.elem, prefixes)}]"
    if isinstance(t, TupleType):
        return "(" + ", ".join(type_name(i, prefixes) for i in t.items) + ")"
    return "Bool"


def subtype(r: Reasoner, t1: LangType, t2: LangType) -> bool:
    """Structural subtyping with reasoner-backed concept subsumption."""
    if isinstance(t1, ConceptType) and isinstance(t2, ConceptType):
        return r.entails_subsumption(t1.concept, t2.concept)
    if isinstance(t1, ListType) and isinstance(t2, ListType):
        return subtype(r, t1.elem, t2.elem)
    if isinstance(t1, TupleType) and isinstance(t2, TupleType):
        return len(t1.items) == len(t2.items) and all(
            subtype(r, a, b) for a, b in zip(t1.items, t2.items)
        )
    return isinstance(t1, BoolType) and isinstance(t2, BoolType)


def lub(t1: LangType, t2: LangType, pos: Pos = (0, 0),
        prefixes: Mapping[str, str] | None = None) -> LangType:
    """Least upper bound: concept types take their (syntactic) union,
    lists and tuples recurse; incompatible shapes are a type error."""
    if isinstance(t1, ConceptType) and isinstance(t2, ConceptType):
        if t1 == t2:
            return t1
        return ConceptType(Or(t1.concept, t2.concept))
    if isinstance(t1, ListType) and isinstance(t2, ListType):
        return ListType(lub(t1.elem, t2.elem, pos, prefixes))
    if isinstance(t1, TupleType) and isinstance(t2, TupleType) \
            and len(t1.items) == len(t2.items):
        return TupleType(tuple(
            lub(a, b, pos, prefixes) for a, b in zip(t1.items, t2.items)
        ))
    if isinstance(t1, BoolType) and isinstance(t2, BoolType):
        return BOOL
    raise LangTypeError(
        "E-SUB", pos,
        f"branches have incompatible shapes: {type_name(t1, prefixes)} vs "
        f"{type_name(t2, prefixes)}")


class _Checker:
    def __init__(self, r: Reasoner, program: Program, mode: str) -> None:
        self.r = r
        self.program = program
        self.mode = mode
        self.types: dict[Term, LangType] = {}
        self.p = program.prefixes

    def run(self) -> dict[Term, LangType]:
        for d in self.program.definitions.values():
            self.check_definition(d)
        self.infer(self.program.main, {})
        return self.types

    def check_definition(self, d: Definition) -> None:
        env = dict(d.params)
        body_type = self.infer(d.body, env)
        if not subtype(self.r, body_type, d.return_type):
            raise LangTypeError(
                "E-SUB", d.pos,
                f"body of {d.name!r} has type {type_name(body_type, self.p)}, "
                f"not a subtype of declared {type_name(d.return_type, self.p)}")

    def _concept_of(self, t: Term, ty: LangType, what: str) -> Concept:
        if not isinstance(ty, ConceptType):
            raise LangTypeError(
                "E-SUB", t.pos,
                f"{what} must have a concept type, got {type_name(ty, self.p)}")
        return ty.concept

    def infer(self, t: Term, env: Mapping[str, LangType]) -> LangType:
        ty = self._infer(t, env)
        self.types[t] = ty
        return ty

    def _infer(self, t: Term, env: Mapping[str, LangType]) -> LangType:
        if isinstance(t, Ref):
            return env[t.name]

        if isinstance(t, IriLit):
            if t.ascription is not None:
                # The ascription is trusted in T-Box-only mode: assertional
                # data is not consulted at check time.
                if self.mode == FULL and not self.r.entails_instance(t.iri, t.ascription):
                    raise LangTypeError(
                        "E-SUB", t.pos,
                        f"{shorten(t.iri, self.p)} is not provably an instance of "
                        f"`{print_concept(t.ascription, self.p)}`")
                return ConceptType(t.ascription)
            if self.mode == TBOX_ONLY:
                return ConceptType(TOP)
            return ConceptType(Nominal(t.iri))

        if isinstance(t, Call):
            d = self.program.definitions[t.name]
            if len(t.args) != len(d.params):
                raise LangTypeError(
                    "E-SUB", t.pos,
                    f"{t.name!r} expects {len(d.params)} argument(s), "
                    f"got {len(t.args)}")
            for arg, (pname, ptype) in zip(t.args, d.params):
                arg_type = self.infer(arg, env)
                if not subtype(self.r, arg_type, ptype):
                    raise LangTypeError(
                        "E-SUB", arg.pos,
                        f"argument {pname!r} of {t.name!r}: "
                        f"{type_name(arg_type, self.p)} is not a subtype of "
                        f"{type_name(ptype, self.p)}")
            return d.return_type

        if isinstance(t, QueryTerm):
            splice_types: dict[str, Concept] = {}
            for splice in t.query.splices:
                splice_types[splice] = self._concept_of(
                    t, env[splice], f"spliced variable ${splice}")
            mode = "strict" if t.strict else "nonstrict"
            outcome = validate_query(self.r, t.query, splice_types, mode)
            if not isinstance(outcome, Valid):
                category, message = validation_failure(
                    outcome, lambda c: type_name(ConceptType(c), self.p))
                raise LangTypeError(category, t.pos, message)
            columns = [ConceptType(outcome.variable_concepts[v])
                       for v in t.query.select_vars]
            if len(columns) == 1:
                return ListType(columns[0])
            return ListType(TupleType(tuple(columns)))

        if isinstance(t, RoleProj):
            subject_type = self.infer(t.subject, env)
            concept = self._concept_of(t.subject, subject_type, "role projection subject")
            result = type_role_projection(self.r, concept, t.role)
            if not isinstance(result, Concept):
                raise LangTypeError(
                    "E-ACCESS", t.pos,
                    f"role {print_role(t.role, self.p)} is not known to exist for "
                    f"`{print_concept(concept, self.p)}`")
            return ListType(ConceptType(result))

        if isinstance(t, Match):
            subject_type = self.infer(t.subject, env)
            self._concept_of(t.subject, subject_type, "match subject")
            result: LangType | None = None
            for case in t.cases:
                branch_env = dict(env)
                branch_env[case.binder] = ConceptType(case.concept)
                branch_type = self.infer(case.body, branch_env)
                result = branch_type if result is None \
                    else lub(result, branch_type, t.pos, self.p)
            default_type = self.infer(t.default, env)
            return default_type if result is None \
                else lub(result, default_type, t.pos, self.p)

        if isinstance(t, If):
            cond = self.infer(t.cond, env)
            if not isinstance(cond, BoolType):
                raise LangTypeError(
                    "E-SUB", t.cond.pos,
                    f"condition must be Bool, got {type_name(cond, self.p)}")
            return lub(self.infer(t.then, env), self.infer(t.orelse, env), t.pos, self.p)

        if isinstance(t, Let):
            value_type = self.infer(t.value, env)
            body_env = dict(env)
            body_env[t.name] = value_type
            return self.infer(t.body, body_env)

        if isinstance(t, TupleIndex):
            subject = self.infer(t.subject, env)
            if not isinstance(subject, TupleType):
                raise LangTypeError(
                    "E-SUB", t.pos,
                    f"tuple index on {type_name(subject, self.p)}")
            if not 1 <= t.index <= len(subject.items):
                raise LangTypeError(
                    "E-SUB", t.pos,
                    f"index .{t.index} out of range for {type_name(subject, self.p)}")
            return subject.items[t.index - 1]

        if isinstance(t, NonEmpty):
            self._list_arg(t.arg, env)
            return BOOL

        if isinstance(t, Head):
            return self._list_arg(t.arg, env).elem

        if isinstance(t, Nil):
            return ListType(t.elem_type)

        raise TypeError(f"not a term: {t!r}")

    def _list_arg(self, arg: Term, env: Mapping[str, LangType]) -> ListType:
        ty = self.infer(arg, env)
        if not isinstance(ty, ListType):
            raise LangTypeError(
                "E-SUB", arg.pos,
                f"expected a list, got {type_name(ty, self.p)}")
        return ty


def typecheck(r: Reasoner, program: Program, mode: str = FULL) -> dict[Term, LangType]:
    """Check every definition and main; returns the per-term type table.

    ``mode`` is "full" (assertional data available, IRI literals get
    nominal types) or "tbox_only" (IRI literals type as the top concept
    unless ascribed, ascriptions are trusted)."""
    if mode not in (FULL, TBOX_ONLY):
        raise ValueError(f"unknown mode {mode!r}")
    return _Checker(r, program, mode).run()
