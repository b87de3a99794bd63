"""Core data model for description-logic knowledge bases.

Concept expressions are built from atomic concepts, single-object nominals,
top/bottom, boolean connectives and qualified existential/universal
quantification over (possibly inverted) roles.  A knowledge base pairs a
T-Box of inclusion/equivalence axioms with an A-Box of concept and role
assertions, plus the prefix table used by the textual format.  A finite
:class:`Interpretation` gives the syntax its meaning: :func:`extension`
is the set of domain elements a concept denotes in one.

All nodes are immutable and hashable so trees can live in sets, serve as
cache keys and be shared freely across threads.
"""

from __future__ import annotations

import re
from ._record import record
from types import MappingProxyType
from typing import Iterator, Mapping, Union

# ``\s`` matches exactly the code points for which ``str.isspace`` holds.
_find_space = re.compile(r"\s").search


@record(frozen=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("IRI must be non-empty")
        if _find_space(self.value):
            raise ValueError(f"IRI may not contain whitespace: {self.value!r}")

    def __str__(self) -> str:
        return f"<{self.value}>"


@record(frozen=True)
class Role:
    """A role expression: an atomic role name or its inverse."""

    iri: Iri
    inverse: bool = False

    def inverted(self) -> Role:
        return Role(self.iri, not self.inverse)


class Concept:
    """Base class for concept expressions.

    The subclasses are frozen records, so a node stores its hash the first
    time it is hashed: concept trees key every label, memo and cache."""

    __slots__ = ()


@record(frozen=True)
class Top(Concept):
    pass


@record(frozen=True)
class Bottom(Concept):
    pass


@record(frozen=True)
class Atomic(Concept):
    iri: Iri


@record(frozen=True)
class Nominal(Concept):
    """The concept containing exactly one named object."""

    obj: Iri


@record(frozen=True)
class Not(Concept):
    operand: Concept


@record(frozen=True)
class And(Concept):
    left: Concept
    right: Concept


@record(frozen=True)
class Or(Concept):
    left: Concept
    right: Concept


@record(frozen=True)
class Exists(Concept):
    role: Role
    filler: Concept


@record(frozen=True)
class Forall(Concept):
    role: Role
    filler: Concept


TOP = Top()
BOTTOM = Bottom()


@record(frozen=True)
class SubClass:
    sub: Concept
    sup: Concept


@record(frozen=True)
class Equivalent:
    left: Concept
    right: Concept


@record(frozen=True)
class ConceptAssertion:
    obj: Iri
    concept: Concept


@record(frozen=True)
class RoleAssertion:
    """A role edge between two named objects.

    The stored role is always atomic; asserting an inverse role swaps the
    operands at construction.
    """

    subject: Iri
    role: Role
    obj: Iri

    def __post_init__(self) -> None:
        if self.role.inverse:
            subject, obj = self.obj, self.subject
            object.__setattr__(self, "subject", subject)
            object.__setattr__(self, "obj", obj)
            object.__setattr__(self, "role", Role(self.role.iri))


TBoxAxiom = Union[SubClass, Equivalent]
ABoxAxiom = Union[ConceptAssertion, RoleAssertion]
Axiom = Union[TBoxAxiom, ABoxAxiom]


@record(frozen=True, eq=False)
class KnowledgeBase:
    """A T-Box, an A-Box and the prefix table they were written with.

    Equality is identity: reasoner sessions key their caches on the KB
    object.  Axiom-sequence equality is available through the ``tbox`` and
    ``abox`` tuples directly.
    """

    tbox: tuple[TBoxAxiom, ...] = ()
    abox: tuple[ABoxAxiom, ...] = ()
    prefixes: Mapping[str, str] = MappingProxyType({})  # shared, read-only

    def gcis(self) -> Iterator[SubClass]:
        """All T-Box content as plain inclusions (equivalences split in two)."""
        for axiom in self.tbox:
            if isinstance(axiom, SubClass):
                yield axiom
            else:
                yield SubClass(axiom.left, axiom.right)
                yield SubClass(axiom.right, axiom.left)

    def extended(self, *axioms: Axiom) -> KnowledgeBase:
        """A new KB with extra axioms appended (prefixes shared)."""
        tbox = self.tbox + tuple(a for a in axioms if isinstance(a, (SubClass, Equivalent)))
        abox = self.abox + tuple(
            a for a in axioms if isinstance(a, (ConceptAssertion, RoleAssertion))
        )
        return KnowledgeBase(tbox, abox, self.prefixes)


@record(frozen=True)
class Signature:
    """The atomic names occurring syntactically in a knowledge base."""

    atomic_concepts: frozenset[Iri]
    atomic_roles: frozenset[Iri]
    objects: frozenset[Iri]


def _collect(c: Concept, concepts: set[Iri], roles: set[Iri], objects: set[Iri]) -> None:
    if isinstance(c, Atomic):
        concepts.add(c.iri)
    elif isinstance(c, Nominal):
        objects.add(c.obj)
    elif isinstance(c, Not):
        _collect(c.operand, concepts, roles, objects)
    elif isinstance(c, (And, Or)):
        _collect(c.left, concepts, roles, objects)
        _collect(c.right, concepts, roles, objects)
    elif isinstance(c, (Exists, Forall)):
        roles.add(c.role.iri)
        _collect(c.filler, concepts, roles, objects)


def concept_signature(c: Concept) -> Signature:
    """The atomic names occurring in a single concept expression."""
    concepts: set[Iri] = set()
    roles: set[Iri] = set()
    objects: set[Iri] = set()
    _collect(c, concepts, roles, objects)
    return Signature(frozenset(concepts), frozenset(roles), frozenset(objects))


def signature(kb: KnowledgeBase) -> Signature:
    """Exactly the atomic concept, role and object names used in ``kb``."""
    concepts: set[Iri] = set()
    roles: set[Iri] = set()
    objects: set[Iri] = set()
    for axiom in kb.tbox:
        if isinstance(axiom, SubClass):
            _collect(axiom.sub, concepts, roles, objects)
            _collect(axiom.sup, concepts, roles, objects)
        else:
            _collect(axiom.left, concepts, roles, objects)
            _collect(axiom.right, concepts, roles, objects)
    for assertion in kb.abox:
        if isinstance(assertion, ConceptAssertion):
            objects.add(assertion.obj)
            _collect(assertion.concept, concepts, roles, objects)
        else:
            objects.add(assertion.subject)
            objects.add(assertion.obj)
            roles.add(assertion.role.iri)
    return Signature(frozenset(concepts), frozenset(roles), frozenset(objects))


def concept_depth(c: Concept) -> int:
    """Constructor nesting depth of ``c`` (an atom has depth 1), computed
    without recursion, so any depth can be measured."""
    depth = 0
    stack = [(c, 1)]
    while stack:
        c, d = stack.pop()
        depth = max(depth, d)
        if isinstance(c, Not):
            stack.append((c.operand, d + 1))
        elif isinstance(c, (And, Or)):
            stack += [(c.left, d + 1), (c.right, d + 1)]
        elif isinstance(c, (Exists, Forall)):
            stack.append((c.filler, d + 1))
    return depth


def nnf(c: Concept) -> Concept:
    """Negation normal form: negation pushed onto atomic concepts and nominals.

    A subtree already in negation normal form is returned as it is, not
    rebuilt, so ``nnf(c) is c`` for any ``c`` in NNF, and a concept
    normalised twice costs no allocation and no fresh hash."""
    if isinstance(c, (Top, Bottom, Atomic, Nominal)):
        return c
    if isinstance(c, (And, Or)):
        left, right = nnf(c.left), nnf(c.right)
        if left is c.left and right is c.right:
            return c
        return c.__class__(left, right)
    if isinstance(c, (Exists, Forall)):
        filler = nnf(c.filler)
        return c if filler is c.filler else c.__class__(c.role, filler)
    if isinstance(c, Not):
        inner = c.operand
        if isinstance(inner, Top):
            return BOTTOM
        if isinstance(inner, Bottom):
            return TOP
        if isinstance(inner, (Atomic, Nominal)):
            return c
        if isinstance(inner, Not):
            return nnf(inner.operand)
        if isinstance(inner, And):
            return Or(nnf(Not(inner.left)), nnf(Not(inner.right)))
        if isinstance(inner, Or):
            return And(nnf(Not(inner.left)), nnf(Not(inner.right)))
        if isinstance(inner, Exists):
            return Forall(inner.role, nnf(Not(inner.filler)))
        if isinstance(inner, Forall):
            return Exists(inner.role, nnf(Not(inner.filler)))
    raise TypeError(f"not a concept: {c!r}")


def negated(c: Concept) -> Concept:
    """nnf(¬c), the form used for clash detection and refutation probes."""
    return nnf(Not(c))


@record(frozen=True, eq=False)
class Interpretation:
    """A finite Tarski-style interpretation over integer domain elements."""

    domain: frozenset[int]
    concept_ext: Mapping[Iri, frozenset[int]]
    role_ext: Mapping[Iri, frozenset[tuple[int, int]]]
    object_map: Mapping[Iri, int]

    def role_pairs(self, role: Role) -> frozenset[tuple[int, int]]:
        pairs = self.role_ext.get(role.iri, frozenset())
        if role.inverse:
            return frozenset((y, x) for x, y in pairs)
        return pairs


def extension(c: Concept, interp: Interpretation) -> frozenset[int]:
    """The set of domain elements in the extension of ``c``."""
    if isinstance(c, Top):
        return interp.domain
    if isinstance(c, Bottom):
        return frozenset()
    if isinstance(c, Atomic):
        return interp.concept_ext.get(c.iri, frozenset())
    if isinstance(c, Nominal):
        elem = interp.object_map.get(c.obj)
        return frozenset() if elem is None else frozenset([elem])
    if isinstance(c, Not):
        return interp.domain - extension(c.operand, interp)
    if isinstance(c, And):
        return extension(c.left, interp) & extension(c.right, interp)
    if isinstance(c, Or):
        return extension(c.left, interp) | extension(c.right, interp)
    if isinstance(c, Exists):
        filler = extension(c.filler, interp)
        return frozenset(x for x, y in interp.role_pairs(c.role) if y in filler)
    if isinstance(c, Forall):
        filler = extension(c.filler, interp)
        pairs = interp.role_pairs(c.role)
        return frozenset(
            x for x in interp.domain
            if all(y in filler for px, y in pairs if px == x)
        )
    raise TypeError(f"not a concept: {c!r}")
