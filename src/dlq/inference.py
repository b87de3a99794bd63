"""Concept inference for queries, and strict/non-strict validation.

Each query variable and each splice gets a concept expression
over-approximating the objects it can be bound to.  Patterns contribute
the base constraints (``?x a C`` gives C; a role triple against a
constant gives a quantification over a nominal; a role triple between two
variables gives mutual *references*, placeholders resolved after the
walk).  Joins intersect the constraints of shared variables, unions and
optionals weaken them, MINUS contributes nothing from its right side.

A typing is a plain mapping from variables and splices to concepts
(:class:`VariableTyping`, a ``dict``).  A splice is typed exactly as a
variable is, under its own key: ``Splice("t")`` and ``Var("t")`` are
different keys, so a query may use both ``?t`` and ``$t``.

Validation infers and resolves the typing, requires every key's concept
to be satisfiable, and then checks the declared splice types: non-strict
demands a satisfiable intersection with the inferred constraint, strict
demands subsumption and then narrows the typing by substituting the
declared type into every reference to the splice.
"""

from __future__ import annotations

from ._record import record
from typing import Callable, Mapping, Sequence, Union as TUnion

from .model import (
    And,
    Concept,
    Exists,
    Iri,
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
    Splice,
    Union,
    Var,
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
    quantification over the referenced variable's (or splice's) own concept.
    """

    role: Role
    var: Var | Splice


InfConcept = TUnion[Concept, VarRef]


class VariableTyping(dict):
    """The inferred map from query variables and splices to concept
    expressions."""

    @property
    def domain(self) -> frozenset[Var | Splice]:
        return frozenset(self)


def infer_pattern(p: Pattern) -> VariableTyping:
    """Base constraints of a single pattern; a splice is typed like a
    variable."""
    if isinstance(p, ConceptPattern):
        return VariableTyping({} if isinstance(p.elem, Iri) else {p.elem: p.concept})

    subject, role, obj = p.subject, p.role, p.obj
    if isinstance(subject, Iri):
        if isinstance(obj, Iri):
            return VariableTyping({})
        return VariableTyping({obj: Exists(role.inverted(), Nominal(subject))})
    if isinstance(obj, Iri):
        return VariableTyping({subject: Exists(role, Nominal(obj))})
    if subject == obj:
        # Both endpoints constrain the same key; conjoin.
        return VariableTyping({subject: And((
            VarRef(role, obj), VarRef(role.inverted(), subject)))})
    return VariableTyping({
        subject: VarRef(role, obj),
        obj: VarRef(role.inverted(), subject),
    })


def combine(typings: Sequence[VariableTyping],
            connective: type[And] | type[Or]) -> VariableTyping:
    """Pointwise combination: a key of several typings gets ``connective``
    (``And`` or ``Or``) of their concepts in order, a key of one its own."""
    gathered: dict[Var | Splice, list[InfConcept]] = {}
    for phi in typings:
        for var, c in phi.items():
            gathered.setdefault(var, []).append(c)
    return VariableTyping({var: cs[0] if len(cs) == 1 else connective(tuple(cs))
                           for var, cs in gathered.items()})


def infer_query(q: Query) -> VariableTyping:
    """Structural inference over the algebra (references unresolved)."""
    if isinstance(q, Pattern):
        return infer_pattern(q)
    if isinstance(q, (Join, Union)):
        return combine([infer_query(p) for p in q.parts], And if isinstance(q, Join) else Or)
    if isinstance(q, Optional):
        left = infer_query(q.left)
        return combine([left, combine([left, infer_query(q.right)], And)], Or)
    if isinstance(q, Minus):
        return infer_query(q.left)
    raise TypeError(f"not a query: {q!r}")


def resolve_references(
    phi: VariableTyping,
    substitutions: Mapping[Splice, Concept] | None = None,
) -> VariableTyping:
    """Expand every reference, per key, against the original typing.

    A key's expansion walks depth-first, operands in order, and keeps a
    set of the keys it expanded, itself included; a reference to one of them
    widens to ``∃r.⊤``, which only weakens the type.  Each side of a
    disjunction starts from its own copy of the set, so one side's
    expansions do not weaken another's.  Within a conjunction each key is
    expanded at most once: resolution terminates on cycles, and a k-clique
    (no disjunction) gives O(k²) per key, not O(k!).  ``substitutions``
    short-circuits chosen splices to a fixed concept (strict-mode
    narrowing) and replaces their own entries.
    """
    subs = dict(substitutions or {})

    def expand(c: InfConcept, seen: set[Var | Splice]) -> Concept:
        if isinstance(c, VarRef):
            if c.var in subs:
                return Exists(c.role, subs[c.var])
            if c.var in seen or c.var not in phi:
                return Exists(c.role, TOP)
            seen.add(c.var)
            return Exists(c.role, expand(phi[c.var], seen))
        # References sit only in the conjunctions and disjunctions that
        # ``infer_pattern`` and ``combine`` build.
        if isinstance(c, And):
            return And(tuple([expand(x, seen) for x in c.operands]))
        if isinstance(c, Or):
            return Or(tuple([expand(x, set(seen)) for x in c.operands]))
        return c

    resolved = {
        var: subs[var] if var in subs else expand(c, {var})
        for var, c in phi.items()
    }
    return VariableTyping(resolved)


# --- validation -------------------------------------------------------------


@record(frozen=True)
class Valid:
    """Validation succeeded; carries the final (resolved, and in strict mode
    narrowed) typing, whose keys are variables and splices, and the concept
    of every splice by name."""

    variable_concepts: Mapping[Var | Splice, Concept]
    splice_concepts: Mapping[str, Concept]


@record(frozen=True)
class Unsatisfiable:
    """Some variable's or splice's inferred concept (or a declared splice
    type) has no possible members: the query can never return anything."""

    var: Var | Splice
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


def validate_query(
    r: Reasoner,
    sq: SelectQuery,
    splice_types: Mapping[str, Concept],
    mode: str,
) -> ValidationOutcome:
    """Type a query and check it, in "strict" or "nonstrict" mode.

    The resolved concept of every variable and splice must be satisfiable;
    declared splice types must themselves be satisfiable, then pass the
    mode check.  Strict validation additionally substitutes the declared
    types into the final typing.
    """
    if mode not in ("strict", "nonstrict"):
        raise ValueError(f"unknown validation mode {mode!r}")
    missing = [s for s in sq.splices if s not in splice_types]
    if missing:
        raise ValueError(f"no declared type for splice(s): {', '.join(missing)}")

    unresolved = infer_query(sq.body)
    phi = resolve_references(unresolved)

    for var in sq.select_vars:
        if var not in phi:
            return UntypedSelectVar(var)
    for key in sorted(phi.domain, key=lambda k: (k.name, isinstance(k, Splice))):
        concept = phi[key]
        if not r.is_satisfiable(concept).satisfiable:
            return Unsatisfiable(key, concept)
    declared = {Splice(s): splice_types[s] for s in sq.splices}
    for splice, concept in declared.items():
        if not r.is_satisfiable(concept).satisfiable:
            return Unsatisfiable(splice, concept)

    for splice, concept in declared.items():
        inferred = phi.get(splice, TOP)
        if mode == "nonstrict":
            if not r.is_satisfiable(And((inferred, concept))).satisfiable:
                return SpliceMismatch(splice.name, mode, concept, inferred)
        else:
            if not r.entails_subsumption(concept, inferred):
                return SpliceMismatch(splice.name, mode, concept, inferred)

    final = phi if mode == "nonstrict" else resolve_references(unresolved, declared)
    return Valid(
        variable_concepts=final,
        splice_concepts={s.name: final.get(s, c) for s, c in declared.items()},
    )


def validation_failure(outcome: ValidationOutcome,
                       show: Callable[[Concept], str]) -> tuple[str, str]:
    """The failure category and message of a failed validation; ``show``
    writes each concept the way the caller's surface quotes it."""
    if isinstance(outcome, Unsatisfiable):
        key = outcome.var
        what = f"splice ${key.name}" if isinstance(key, Splice) else f"variable ?{key.name}"
        return "E-SAT", (f"{what} can never match: "
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
