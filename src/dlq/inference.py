"""Concept inference for queries, and strict/non-strict validation.

Each query variable gets a concept expression over-approximating the
objects it can be bound to.  Patterns contribute the base constraints
(``?x a C`` gives C; a role triple against a constant gives a
quantification over a nominal; a role triple between two variables gives
mutual *references*, placeholders resolved after the walk).  Joins
intersect the constraints of shared variables, unions and optionals
weaken them, MINUS contributes nothing from its right side.

A typing is a plain mapping from variables to concepts
(:class:`VariableTyping`, a ``dict``).

Validation replaces every splice by a fresh variable, infers and resolves
the typing, requires every variable's concept to be satisfiable, and then
checks the declared splice types: non-strict demands a satisfiable
intersection with the inferred constraint, strict demands subsumption and
then narrows the typing by substituting the declared type into every
reference to the splice.
"""

from __future__ import annotations

from ._record import record
from typing import Callable, Mapping, Union as TUnion

from .model import (
    And,
    Concept,
    Exists,
    Nominal,
    Or,
    Role,
    TOP,
)
from .query import (
    ConceptPattern,
    Join,
    Minus,
    Optional,
    Pattern,
    Query,
    SelectQuery,
    SpliceElem,
    Union,
    Var,
    VarElem,
    query_vars,
    substitute_splices,
)
from .reasoner import Reasoner

__all__ = [
    "VarRef", "InfConcept", "VariableTyping",
    "infer_pattern", "combine", "infer_query", "resolve_references",
    "Valid", "Unsatisfiable", "SpliceMismatch", "UntypedSelectVar",
    "ValidationOutcome", "validate_query", "validation_failure",
    "type_role_projection",
]


@record(frozen=True)
class VarRef:
    """A reference concept: "whatever stands in ``role`` to ``var``".

    Appears only during inference; resolution replaces it by an existential
    quantification over the referenced variable's own concept.
    """

    role: Role
    var: Var


InfConcept = TUnion[Concept, VarRef]


class VariableTyping(dict):
    """The inferred map from query variables to concept expressions."""

    @property
    def domain(self) -> frozenset[Var]:
        return frozenset(self)


def infer_pattern(p: Pattern) -> VariableTyping:
    """Base constraints of a single pattern (splices already freshened)."""
    if isinstance(p, ConceptPattern):
        if isinstance(p.elem, SpliceElem):
            raise ValueError("splices must be replaced by variables before typing")
        if isinstance(p.elem, VarElem):
            return VariableTyping({p.elem.var: p.concept})
        return VariableTyping({})

    subject, obj = p.subject, p.obj
    if isinstance(subject, SpliceElem) or isinstance(obj, SpliceElem):
        raise ValueError("splices must be replaced by variables before typing")
    role = p.role
    if isinstance(subject, VarElem) and isinstance(obj, VarElem):
        if subject.var == obj.var:
            # Both endpoints constrain the same variable; conjoin.
            return VariableTyping({subject.var: And(
                VarRef(role, obj.var), VarRef(role.inverted(), subject.var))})
        return VariableTyping({
            subject.var: VarRef(role, obj.var),
            obj.var: VarRef(role.inverted(), subject.var),
        })
    if isinstance(subject, VarElem):
        return VariableTyping({subject.var: Exists(role, Nominal(obj.iri))})
    if isinstance(obj, VarElem):
        return VariableTyping({obj.var: Exists(role.inverted(), Nominal(subject.iri))})
    return VariableTyping({})


def combine(p1: VariableTyping, p2: VariableTyping, connective: str) -> VariableTyping:
    """Pointwise combination: shared variables get the connective, one-sided
    variables carry over unchanged.  ``connective`` is "and" or "or"."""
    ctor = {"and": And, "or": Or}[connective]
    out: dict[Var, InfConcept] = {}
    for var, c in p1.items():
        other = p2.get(var)
        out[var] = c if other is None else ctor(c, other)
    for var, c in p2.items():
        if var not in p1:
            out[var] = c
    return VariableTyping(out)


def infer_query(q: Query) -> VariableTyping:
    """Structural inference over the algebra (references unresolved)."""
    if isinstance(q, Pattern):
        return infer_pattern(q)
    if isinstance(q, Join):
        return combine(infer_query(q.left), infer_query(q.right), "and")
    if isinstance(q, Union):
        return combine(infer_query(q.left), infer_query(q.right), "or")
    if isinstance(q, Optional):
        left = infer_query(q.left)
        return combine(left, combine(left, infer_query(q.right), "and"), "or")
    if isinstance(q, Minus):
        return infer_query(q.left)
    raise TypeError(f"not a query: {q!r}")


def resolve_references(
    phi: VariableTyping,
    substitutions: Mapping[Var, Concept] | None = None,
) -> VariableTyping:
    """Expand every reference, per variable, against the original typing.

    A reference back to a variable already on the current expansion path
    widens to the top concept, so resolution always terminates, including
    on mutual-reference cycles.  ``substitutions`` short-circuits chosen
    variables to a fixed concept (strict-mode narrowing) and replaces
    their own entries.
    """
    subs = dict(substitutions or {})

    def expand(c: InfConcept, path: frozenset[Var]) -> Concept:
        if isinstance(c, VarRef):
            if c.var in subs:
                return Exists(c.role, subs[c.var])
            if c.var in path or c.var not in phi:
                return Exists(c.role, TOP)
            return Exists(c.role, expand(phi[c.var], path | {c.var}))
        # References sit only in the conjunctions and disjunctions that
        # ``infer_pattern`` and ``combine`` build.
        if isinstance(c, (And, Or)):
            return type(c)(expand(c.left, path), expand(c.right, path))
        return c

    resolved = {
        var: subs[var] if var in subs else expand(c, frozenset([var]))
        for var, c in phi.items()
    }
    return VariableTyping(resolved)


# --- validation -------------------------------------------------------------


@record(frozen=True)
class Valid:
    """Validation succeeded; carries the final (resolved, and in strict mode
    narrowed) concepts per variable and per splice."""

    variable_concepts: Mapping[Var, Concept]
    splice_concepts: Mapping[str, Concept]
    splice_vars: Mapping[str, Var]


@record(frozen=True)
class Unsatisfiable:
    """Some variable's inferred concept (or a declared splice type) has no
    possible members: the query can never return anything."""

    var: Var
    concept: Concept


@record(frozen=True)
class SpliceMismatch:
    """A declared splice type failed the mode check against the inferred
    constraint."""

    splice: str
    mode: str
    declared: Concept
    inferred: Concept


@record(frozen=True)
class UntypedSelectVar:
    """A selected variable has no inferred concept (it occurs only under the
    right-hand side of MINUS)."""

    var: Var


ValidationOutcome = TUnion[Valid, Unsatisfiable, SpliceMismatch, UntypedSelectVar]


def fresh_splice_vars(sq: SelectQuery) -> dict[str, Var]:
    """One fresh variable per splice id, avoiding the query's own variables."""
    used = {v.name for v in query_vars(sq.body)}
    fresh: dict[str, Var] = {}
    for splice in sq.splices:
        name = splice
        while name in used:
            name += "_"
        used.add(name)
        fresh[splice] = Var(name)
    return fresh


def validate_query(
    r: Reasoner,
    sq: SelectQuery,
    splice_types: Mapping[str, Concept],
    mode: str,
) -> ValidationOutcome:
    """Type a query and check it, in "strict" or "nonstrict" mode.

    Splices become fresh variables; the resolved concept of every variable
    must be satisfiable; declared splice types must themselves be
    satisfiable, then pass the mode check.  Strict validation additionally
    substitutes the declared types into the final typing.
    """
    if mode not in ("strict", "nonstrict"):
        raise ValueError(f"unknown validation mode {mode!r}")
    missing = [s for s in sq.splices if s not in splice_types]
    if missing:
        raise ValueError(f"no declared type for splice(s): {', '.join(missing)}")

    fresh = fresh_splice_vars(sq)
    body = substitute_splices(sq.body, {s: VarElem(v) for s, v in fresh.items()})
    unresolved = infer_query(body)
    phi = resolve_references(unresolved)

    for var in sq.select_vars:
        if var not in phi:
            return UntypedSelectVar(var)
    for var in sorted(phi.domain, key=lambda v: v.name):
        concept = phi[var]
        if not r.is_satisfiable(concept).satisfiable:
            return Unsatisfiable(var, concept)
    for splice in sq.splices:
        declared = splice_types[splice]
        if not r.is_satisfiable(declared).satisfiable:
            return Unsatisfiable(fresh[splice], declared)

    for splice in sq.splices:
        declared = splice_types[splice]
        inferred = phi.get(fresh[splice], TOP)
        if mode == "nonstrict":
            if not r.is_satisfiable(And(inferred, declared)).satisfiable:
                return SpliceMismatch(splice, mode, declared, inferred)
        else:
            if not r.entails_subsumption(declared, inferred):
                return SpliceMismatch(splice, mode, declared, inferred)

    if mode == "strict" and fresh:
        final = resolve_references(
            unresolved, {fresh[s]: splice_types[s] for s in sq.splices}
        )
    else:
        final = phi
    return Valid(
        variable_concepts=final,
        splice_concepts={s: final.get(fresh[s], splice_types[s]) for s in sq.splices},
        splice_vars=fresh,
    )


def validation_failure(outcome: ValidationOutcome,
                       show: Callable[[Concept], str]) -> tuple[str, str]:
    """The failure category and message of a failed validation; ``show``
    writes each concept the way the caller's surface quotes it."""
    if isinstance(outcome, Unsatisfiable):
        return "E-SAT", (f"variable ?{outcome.var.name} can never match: "
                         f"{show(outcome.concept)} is unsatisfiable")
    if isinstance(outcome, UntypedSelectVar):
        return "E-SAT", (f"SELECT variable ?{outcome.var.name} occurs only under "
                         f"MINUS and has no inferred type")
    assert isinstance(outcome, SpliceMismatch)
    category, verb = (("E-SUB", "is not subsumed by") if outcome.mode == "strict"
                      else ("E-SAT", "cannot overlap"))
    return category, (f"splice ${outcome.splice}: {show(outcome.declared)} {verb} "
                      f"inferred {show(outcome.inferred)}")


def type_role_projection(
    r: Reasoner, subject_type: Concept, role: Role
) -> TUnion[Concept, Unsatisfiable, SpliceMismatch]:
    """The result concept of projecting ``role`` from a subject of the given
    type: strict validation of :meth:`SelectQuery.projection`.

    Succeeds exactly when the subject type provably has the role, and then
    yields an inverse quantification over the subject type."""
    sq = SelectQuery.projection(role)
    outcome = validate_query(r, sq, {"subject": subject_type}, "strict")
    if isinstance(outcome, Valid):
        return outcome.variable_concepts[sq.select_vars[0]]
    assert isinstance(outcome, (Unsatisfiable, SpliceMismatch))
    return outcome
