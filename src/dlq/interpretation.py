"""Reference semantics: the oracles the production code is tested against.

``verify_model`` checks a knowledge base against one finite interpretation
directly; ``bounded_model_search`` enumerates interpretations up to a size
cap, with three-valued pruning so partial assignments that already violate
an axiom are cut early.  Both are deliberately independent of the tableau
calculus.

``denotational_eval`` is the executable definition of certain answers: it
enumerates every candidate mapping over the query's variables and keeps
those :func:`solves` recognises as solutions, consulting the reasoner for
every atomic entailment.  It is exponential by design and exists as the
oracle for the bottom-up evaluator of :mod:`dlq.algebra`; keep inputs
desk-sized.

No module of the package imports this one, so the ``dlq`` command runs
only the production code.
"""

from __future__ import annotations

from typing import Iterator

from .model import (
    And,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    Interpretation,
    Iri,
    KnowledgeBase,
    Nominal,
    Not,
    Or,
    SubClass,
    Top,
    concept_signature,
    extension,
    signature,
)
from .query import (
    Join,
    Minus,
    Optional,
    Pattern,
    Query,
    SolutionMapping,
    Union,
    Var,
    query_vars,
    satisfies,
)
from .reasoner import Reasoner


def verify_model(interp: Interpretation, kb: KnowledgeBase) -> bool:
    """True iff every axiom of ``kb`` holds in ``interp``.

    Also rejects malformed interpretations (empty domain, extensions or
    object images outside the domain, objects of ``kb`` left unmapped).
    """
    if not interp.domain:
        return False
    for ext in interp.concept_ext.values():
        if not ext <= interp.domain:
            return False
    for pairs in interp.role_ext.values():
        if any(x not in interp.domain or y not in interp.domain for x, y in pairs):
            return False
    if any(e not in interp.domain for e in interp.object_map.values()):
        return False
    if not signature(kb).objects <= set(interp.object_map):
        return False
    for gci in kb.gcis():
        if not extension(gci.sub, interp) <= extension(gci.sup, interp):
            return False
    for assertion in kb.abox:
        if isinstance(assertion, ConceptAssertion):
            if interp.object_map[assertion.obj] not in extension(assertion.concept, interp):
                return False
        else:
            pair = (interp.object_map[assertion.subject], interp.object_map[assertion.obj])
            if pair not in interp.role_pairs(assertion.role):
                return False
    return True


# --- bounded search -------------------------------------------------------
#
# Assignment slots cover object placements, per-element atomic concept
# bits and role bits.  Three-valued axiom evaluation is monotone in the
# information order, so an axiom once true stays true and needs no
# re-checking; an axiom evaluating to false definitely fails and prunes.

_TRUE, _FALSE, _UNKNOWN = True, False, None


def _not3(v):
    return None if v is None else not v


def _and3(a, b):
    if a is _FALSE or b is _FALSE:
        return _FALSE
    if a is _TRUE and b is _TRUE:
        return _TRUE
    return _UNKNOWN


def _or3(a, b):
    if a is _TRUE or b is _TRUE:
        return _TRUE
    if a is _FALSE and b is _FALSE:
        return _FALSE
    return _UNKNOWN


class _Search:
    def __init__(self, kb: KnowledgeBase, goal: Concept, size: int) -> None:
        sig = signature(kb)
        extra = concept_signature(goal)
        self.size = size
        self.elems = range(size)
        self.objects = sorted(sig.objects | extra.objects, key=lambda i: i.value)
        self.concepts = sorted(sig.atomic_concepts | extra.atomic_concepts,
                               key=lambda i: i.value)
        self.roles = sorted(sig.atomic_roles | extra.atomic_roles, key=lambda i: i.value)
        self.goal = goal
        self.axioms: list = list(kb.gcis()) + list(kb.abox)
        self.obj_at: dict[Iri, int] = {}
        self.conc: dict[tuple[Iri, int], bool] = {}
        self.role: dict[tuple[Iri, int, int], bool] = {}
        self.slots: list[tuple] = (
            [("obj", o) for o in self.objects]
            + [("conc", (a, e)) for e in self.elems for a in self.concepts]
            + [("role", (r, i, j)) for r in self.roles for i in self.elems for j in self.elems]
        )
        self.axiom_slots = [self._relevant_slots(*self._axiom_signature(a))
                            for a in self.axioms]
        self.goal_slots = self._relevant_slots(
            extra.atomic_concepts, extra.atomic_roles, extra.objects)

    def _axiom_signature(self, axiom):
        if isinstance(axiom, SubClass):
            sub, sup = concept_signature(axiom.sub), concept_signature(axiom.sup)
            return (sub.atomic_concepts | sup.atomic_concepts,
                    sub.atomic_roles | sup.atomic_roles,
                    sub.objects | sup.objects)
        if isinstance(axiom, ConceptAssertion):
            sig = concept_signature(axiom.concept)
            return (sig.atomic_concepts, sig.atomic_roles,
                    sig.objects | {axiom.obj})
        return (frozenset(), frozenset([axiom.role.iri]),
                frozenset([axiom.subject, axiom.obj]))

    def _relevant_slots(self, concepts, roles, objects) -> list[tuple]:
        """The assignment slots a formula's truth can depend on, in global
        slot order."""
        out = []
        for slot in self.slots:
            kind, key = slot
            if kind == "obj" and key in objects:
                out.append(slot)
            elif kind == "conc" and key[0] in concepts:
                out.append(slot)
            elif kind == "role" and key[0] in roles:
                out.append(slot)
        return out

    def _unassigned(self, slot) -> bool:
        kind, key = slot
        if kind == "obj":
            return key not in self.obj_at
        table = self.conc if kind == "conc" else self.role
        return key not in table

    def member(self, elem: int, c: Concept):
        if isinstance(c, Top):
            return _TRUE
        if isinstance(c, Bottom):
            return _FALSE
        if isinstance(c, Atomic):
            return self.conc.get((c.iri, elem), _UNKNOWN)
        if isinstance(c, Nominal):
            at = self.obj_at.get(c.obj)
            return _UNKNOWN if at is None else at == elem
        if isinstance(c, Not):
            return _not3(self.member(elem, c.operand))
        if isinstance(c, And):
            return _and3(self.member(elem, c.left), self.member(elem, c.right))
        if isinstance(c, Or):
            return _or3(self.member(elem, c.left), self.member(elem, c.right))
        if isinstance(c, (Exists, Forall)):
            name = c.role.iri
            inv = c.role.inverse
            acc = _FALSE if isinstance(c, Exists) else _TRUE
            for other in self.elems:
                key = (name, other, elem) if inv else (name, elem, other)
                edge = self.role.get(key, _UNKNOWN)
                if isinstance(c, Exists):
                    acc = _or3(acc, _and3(edge, self.member(other, c.filler)))
                    if acc is _TRUE:
                        return _TRUE
                else:
                    acc = _and3(acc, _or3(_not3(edge), self.member(other, c.filler)))
                    if acc is _FALSE:
                        return _FALSE
            return acc
        raise TypeError(f"not a concept: {c!r}")

    def axiom_value(self, axiom):
        if isinstance(axiom, SubClass):
            acc = _TRUE
            for e in self.elems:
                acc = _and3(acc, _or3(_not3(self.member(e, axiom.sub)),
                                      self.member(e, axiom.sup)))
                if acc is _FALSE:
                    return _FALSE
            return acc
        if isinstance(axiom, ConceptAssertion):
            at = self.obj_at.get(axiom.obj)
            return _UNKNOWN if at is None else self.member(at, axiom.concept)
        at_s = self.obj_at.get(axiom.subject)
        at_o = self.obj_at.get(axiom.obj)
        if at_s is None or at_o is None:
            return _UNKNOWN
        return self.role.get((axiom.role.iri, at_s, at_o), _UNKNOWN)

    def goal_value(self):
        acc = _FALSE
        for e in self.elems:
            acc = _or3(acc, self.member(e, self.goal))
            if acc is _TRUE:
                return _TRUE
        return acc

    def run(self) -> Interpretation | None:
        return self._extend(list(range(len(self.axioms))), goal_open=True)

    def _choose_slot(self, pending: list[int], goal_open: bool):
        """Fail-first: branch on a slot some undecided axiom (or the goal)
        actually depends on; everything else can be defaulted later."""
        for i in pending:
            for slot in self.axiom_slots[i]:
                if self._unassigned(slot):
                    return slot
        if goal_open:
            for slot in self.goal_slots:
                if self._unassigned(slot):
                    return slot
        for slot in self.slots:
            if self._unassigned(slot):
                return slot
        return None

    def _extend(self, pending: list[int], goal_open: bool):
        # Re-examine only axioms not yet settled true; false prunes.  Truth
        # is monotone under extension, so a decided axiom stays decided.
        still: list[int] = []
        for i in pending:
            v = self.axiom_value(self.axioms[i])
            if v is _FALSE:
                return None
            if v is _UNKNOWN:
                still.append(i)
        if goal_open:
            g = self.goal_value()
            if g is _FALSE:
                return None
            goal_open = g is _UNKNOWN

        if not still and not goal_open:
            # Every constraint already holds; any completion is a model.
            for kind, key in self.slots:
                if kind == "obj":
                    self.obj_at.setdefault(key, 0)
                else:
                    (self.conc if kind == "conc" else self.role).setdefault(key, False)
            return self._build()

        slot = self._choose_slot(still, goal_open)
        if slot is None:
            return None
        kind, key = slot
        if kind == "obj":
            for elem in self.elems:
                self.obj_at[key] = elem
                found = self._extend(still, goal_open)
                if found is not None:
                    return found
            del self.obj_at[key]
            return None
        table = self.conc if kind == "conc" else self.role
        for value in (False, True):
            table[key] = value
            found = self._extend(still, goal_open)
            if found is not None:
                return found
        del table[key]
        return None

    def _build(self) -> Interpretation:
        concept_ext = {
            a: frozenset(e for e in self.elems if self.conc.get((a, e)))
            for a in self.concepts
        }
        role_ext = {
            r: frozenset((i, j) for i in self.elems for j in self.elems
                         if self.role.get((r, i, j)))
            for r in self.roles
        }
        return Interpretation(
            domain=frozenset(self.elems),
            concept_ext=concept_ext,
            role_ext=role_ext,
            object_map=dict(self.obj_at),
        )


def bounded_model_search(
    kb: KnowledgeBase, c: Concept, max_size: int
) -> Interpretation | None:
    """A model of ``kb`` giving ``c`` a non-empty extension, at domain size
    <= ``max_size``, or None if no such interpretation exists.

    Exhaustive (up to pruning that only cuts definite violations), so a
    None answer is a proof of absence within the size bound.
    """
    for size in range(1, max_size + 1):
        found = _Search(kb, c, size).run()
        if found is not None:
            return found
    return None


# --- certain answers by enumeration ------------------------------------------


def solves(r: Reasoner, q: Query, mu: SolutionMapping) -> bool:
    """Whether ``mu`` is a solution of ``q``: bindings arise only from the
    parts of the query that actually matched (patterns bind exactly their
    variables, each UNION branch answers for itself, MINUS binds nothing on
    the right)."""
    if isinstance(q, Pattern):
        return mu.domain == query_vars(q) and satisfies(r, q, mu)
    if isinstance(q, Join):
        items = mu.bindings
        n = len(items)
        subsets = [SolutionMapping(tuple(items[i] for i in range(n) if mask >> i & 1))
                   for mask in range(1 << n)]
        for left in subsets:
            if not solves(r, q.left, left):
                continue
            for right in subsets:
                if left.domain | right.domain == mu.domain \
                        and solves(r, q.right, right):
                    return True
        return False
    if isinstance(q, Union):
        return solves(r, q.left, mu) or solves(r, q.right, mu)
    if isinstance(q, Minus):
        return solves(r, q.left, mu) and not satisfies(r, q.right, mu)
    if isinstance(q, Optional):
        if (query_vars(q.right) - query_vars(q.left)) & mu.domain:
            return solves(r, Join(q.left, q.right), mu)
        return solves(r, q.left, mu)
    raise TypeError(f"not a query: {q!r}")


def all_partial_mappings(variables: frozenset[Var], objects: list[Iri]) -> Iterator[SolutionMapping]:
    """Every partial map from the variables into the given objects."""
    ordered = sorted(variables, key=lambda v: v.name)

    def rec(index: int, acc: dict[Var, Iri]) -> Iterator[SolutionMapping]:
        if index == len(ordered):
            yield SolutionMapping.of(acc)
            return
        yield from rec(index + 1, acc)
        for obj in objects:
            acc[ordered[index]] = obj
            yield from rec(index + 1, acc)
            del acc[ordered[index]]

    return rec(0, {})


def denotational_eval(r: Reasoner, q: Query) -> frozenset[SolutionMapping]:
    """Brute-force certain answers: test every candidate mapping over the
    query's variables against :func:`solves`.  The oracle for the
    algebraic evaluator."""
    return frozenset(
        mu for mu in all_partial_mappings(query_vars(q), r.objects)
        if solves(r, q, mu)
    )
