"""Shared test machinery: an exhaustive interpretation-space oracle for
concept equivalence, hypothesis strategies for concepts, and seeded random
generators for small knowledge bases and queries.

The oracle packs one bit per interpretation into Python integers, so that
"evaluate this concept in every interpretation of a fixed signature and
domain size at once" is a handful of bigint bitwise operations instead of
millions of tree walks.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from hypothesis import strategies as st

from dlq.model import (
    And,
    Atomic,
    BOTTOM,
    Bottom,
    Concept,
    ConceptAssertion,
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
    concept_signature,
)
from dlq.query import (
    ConceptPattern,
    Join,
    Minus,
    Optional,
    Pattern,
    Query,
    RolePattern,
    Union,
    Var,
    query_vars,
)

EX = "http://example.org/t#"


def iri(local: str) -> Iri:
    return Iri(EX + local)


# --- exhaustive interpretation space ----------------------------------------


class InterpSpace:
    """Every interpretation of a fixed signature over a fixed domain size,
    evaluated simultaneously via one bit per interpretation.

    Axes: one per atomic concept (2^size subsets) then one per role
    (2^(size*size) edge sets).  A concept evaluates to one bitmask per
    domain element; bit i is set iff the element belongs to the concept in
    interpretation number i.
    """

    def __init__(self, concepts: list[Iri], roles: list[Iri], size: int) -> None:
        self.size = size
        self.concepts = list(concepts)
        self.roles = list(roles)
        axes = [1 << size] * len(concepts) + [1 << (size * size)] * len(roles)
        self.total = 1
        for n in axes:
            self.total *= n
        self.full = (1 << self.total) - 1

        # Masks for "axis k has bit b of its config set".
        self._concept_masks: dict[Iri, list[int]] = {}
        self._role_masks: dict[Iri, list[list[int]]] = {}
        stride = self.total
        axis = 0
        for name in concepts:
            configs = axes[axis]
            stride //= configs
            self._concept_masks[name] = [
                self._axis_mask(axis, axes, stride, bit) for bit in range(size)
            ]
            axis += 1
        for name in roles:
            configs = axes[axis]
            stride //= configs
            self._role_masks[name] = [
                [self._axis_mask(axis, axes, stride, i * size + j)
                 for j in range(size)]
                for i in range(size)
            ]
            axis += 1

    def _axis_mask(self, axis: int, axes: list[int], stride: int, bit: int) -> int:
        configs = axes[axis]
        block = (1 << stride) - 1
        segment = 0
        for cfg in range(configs):
            if cfg >> bit & 1:
                segment |= block << (cfg * stride)
        #

        # Replicate the segment across all combinations of earlier axes.
        segment_len = configs * stride
        earlier = 1
        for n in axes[:axis]:
            earlier *= n
        mask = segment
        length = segment_len
        copies = earlier
        while copies > 1:
            mask = mask | (mask << length)
            length *= 2
            copies = (copies + 1) // 2
        return mask & self.full

    def eval(self, c: Concept) -> list[int]:
        """Per-element membership masks over all interpretations."""
        size, full = self.size, self.full
        if isinstance(c, Top):
            return [full] * size
        if isinstance(c, Bottom):
            return [0] * size
        if isinstance(c, Atomic):
            return list(self._concept_masks[c.iri])
        if isinstance(c, Not):
            return [full ^ m for m in self.eval(c.operand)]
        if isinstance(c, (And, Or)):
            out = self.eval(c.operands[0])
            for x in c.operands[1:]:
                masks = self.eval(x)
                out = [a & b if isinstance(c, And) else a | b for a, b in zip(out, masks)]
            return out
        if isinstance(c, (Exists, Forall)):
            filler = self.eval(c.filler)
            pair = self._role_masks[c.role.iri]
            out = []
            for e in range(size):
                if isinstance(c, Exists):
                    acc = 0
                    for j in range(size):
                        edge = pair[j][e] if c.role.inverse else pair[e][j]
                        acc |= edge & filler[j]
                else:
                    acc = full
                    for j in range(size):
                        edge = pair[j][e] if c.role.inverse else pair[e][j]
                        acc &= (full ^ edge) | filler[j]
                out.append(acc)
            return out
        raise TypeError(f"not a concept: {c!r}")

    def equivalent(self, c1: Concept, c2: Concept) -> bool:
        return self.eval(c1) == self.eval(c2)


@functools.lru_cache(maxsize=32)
def _space(concepts: tuple[Iri, ...], roles: tuple[Iri, ...], size: int) -> InterpSpace:
    return InterpSpace(list(concepts), list(roles), size)


def extensions_equal_everywhere(c1: Concept, c2: Concept, max_size: int = 3) -> bool:
    """Extension equality in every interpretation of the concepts' joint
    signature, for every domain size up to ``max_size``."""
    names = set()
    roles = set()
    for c in (c1, c2):
        sig = concept_signature(c)
        names |= set(sig.atomic_concepts)
        roles |= set(sig.atomic_roles)
        if sig.objects:
            raise ValueError("the exhaustive oracle does not cover nominals")
    concepts = tuple(sorted(names, key=lambda i: i.value))
    role_list = tuple(sorted(roles, key=lambda i: i.value))
    for size in range(1, max_size + 1):
        if not _space(concepts, role_list, size).equivalent(c1, c2):
            return False
    return True


# --- hypothesis strategies ----------------------------------------------------

_ATOMS = [Atomic(iri(n)) for n in ("A", "B")]
_ROLES = [Role(iri("r")), Role(iri("s")), Role(iri("r"), inverse=True)]


def concept_strategy(with_nominals: bool = False) -> st.SearchStrategy[Concept]:
    leaves = [st.sampled_from(_ATOMS), st.just(TOP), st.just(BOTTOM)]
    if with_nominals:
        leaves.append(st.builds(Nominal, st.sampled_from([iri("o1"), iri("o2")])))
    base = st.one_of(*leaves)
    role = st.sampled_from(_ROLES)
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, st.tuples(inner, inner) | st.tuples(inner, inner, inner)),
            st.builds(Or, st.tuples(inner, inner) | st.tuples(inner, inner, inner)),
            st.builds(Exists, role, inner),
            st.builds(Forall, role, inner),
        ),
        max_leaves=12,
    )


def concept_depth(c: Concept) -> int:
    """Constructor nesting depth: an atom has depth 1, and a chain of ``and``
    or ``or`` is one level however many operands it has."""
    if isinstance(c, Not):
        return 1 + concept_depth(c.operand)
    if isinstance(c, (And, Or)):
        return 1 + max(concept_depth(x) for x in c.operands)
    if isinstance(c, (Exists, Forall)):
        return 1 + concept_depth(c.filler)
    return 1


# --- seeded random generators ---------------------------------------------------


@dataclass
class GenLimits:
    objects: int = 4
    concepts: int = 3
    roles: int = 2
    axioms: int = 4
    variables: int = 3
    depth: int = 3


def _random_simple_concept(rng: random.Random, atoms: list[Concept],
                           roles: list[Role], depth: int) -> Concept:
    if depth == 0 or rng.random() < 0.45:
        return rng.choice(atoms)
    kind = rng.randrange(5)
    if kind == 0:
        return Not(_random_simple_concept(rng, atoms, roles, depth - 1))
    if kind == 1:
        return And((_random_simple_concept(rng, atoms, roles, depth - 1),
                   _random_simple_concept(rng, atoms, roles, depth - 1)))
    if kind == 2:
        return Or((_random_simple_concept(rng, atoms, roles, depth - 1),
                  _random_simple_concept(rng, atoms, roles, depth - 1)))
    role = rng.choice(roles)
    if rng.random() < 0.3:
        role = role.inverted()
    filler = _random_simple_concept(rng, atoms, roles, depth - 1)
    return Exists(role, filler) if kind == 3 else Forall(role, filler)


def random_kb(rng: random.Random, limits: GenLimits = GenLimits()) -> KnowledgeBase:
    """A small random knowledge base over a fixed pool of names.

    Assertion-heavy mix with mostly-atomic concept assertions, so queries
    over the same name pool actually have certain answers to return."""
    concepts = [Atomic(iri(n)) for n in ["A", "B", "C"][: limits.concepts]]
    roles = [Role(iri(n)) for n in ["r", "s"][: limits.roles]]
    objects = [iri(f"o{k}") for k in range(1, limits.objects + 1)]
    tbox: list = []
    abox: list = []
    for _ in range(rng.randrange(limits.axioms + 1)):
        kind = rng.random()
        if kind < 0.35:
            tbox.append(SubClass(
                _random_simple_concept(rng, concepts, roles, 1),
                _random_simple_concept(rng, concepts, roles, 2)))
        elif kind < 0.7:
            abox.append(ConceptAssertion(
                rng.choice(objects),
                rng.choice(concepts) if rng.random() < 0.7
                else _random_simple_concept(rng, concepts, roles, 1)))
        else:
            abox.append(RoleAssertion(
                rng.choice(objects), rng.choice(roles), rng.choice(objects)))
    # Anchor the object pool so the signature always has individuals to
    # enumerate over.
    for obj in objects[:2]:
        if not any(getattr(a, "obj", None) == obj or getattr(a, "subject", None) == obj
                   for a in abox):
            abox.append(ConceptAssertion(obj, rng.choice(concepts)))
    return KnowledgeBase(tuple(tbox), tuple(abox), {"": EX})


def certainly_bound(q: Query) -> frozenset[Var]:
    """Variables bound in every solution of the query."""
    if isinstance(q, Pattern):
        return query_vars(q)
    if isinstance(q, Join):
        return frozenset().union(*[certainly_bound(p) for p in q.parts])
    if isinstance(q, Union):
        return frozenset.intersection(*[certainly_bound(p) for p in q.parts])
    assert isinstance(q, (Minus, Optional))
    return certainly_bound(q.left)


def _sharing_is_guarded(q: Query) -> bool:
    """Joins and optionals may share variables only when both operands bind
    them in every solution; otherwise the inferred intersection types are
    not sound over-approximations (a known limit of the inference rules)."""
    if isinstance(q, Pattern):
        return True
    parts = q.parts
    if not all(_sharing_is_guarded(p) for p in parts):
        return False
    if isinstance(q, (Join, Optional)):
        # Each part against the join of the parts before it.
        seen, bound = query_vars(parts[0]), certainly_bound(parts[0])
        for p in parts[1:]:
            if not seen & query_vars(p) <= bound & certainly_bound(p):
                return False
            seen, bound = seen | query_vars(p), bound | certainly_bound(p)
    return True


def random_query(rng: random.Random, limits: GenLimits = GenLimits()) -> Query:
    """A random query over the same name pool as :func:`random_kb`, with
    variable sharing restricted to certainly-bound positions."""
    concepts = [Atomic(iri(n)) for n in ["A", "B", "C"][: limits.concepts]]
    roles = [Role(iri(n)) for n in ["r", "s"][: limits.roles]]
    objects = [iri(f"o{k}") for k in range(1, limits.objects + 1)]
    variables = [Var(v) for v in ["x", "y", "z"][: limits.variables]]

    def pattern() -> Query:
        if rng.random() < 0.5:
            return ConceptPattern(
                rng.choice(variables),
                _random_simple_concept(rng, concepts, roles, 1))
        role = rng.choice(roles)
        subject: object = rng.choice(variables)
        obj: object = rng.choice(variables) \
            if rng.random() < 0.7 else rng.choice(objects)
        if rng.random() < 0.2:
            subject, obj = rng.choice(objects), rng.choice(variables)
        return RolePattern(subject, role, obj)

    def build(depth: int) -> Query:
        if depth == 0 or rng.random() < 0.4:
            return pattern()
        op = rng.choice([Join, Union, Minus, Optional])
        left, right = build(depth - 1), build(depth - 1)
        return op((left, right)) if op in (Join, Union) else op(left, right)

    for _ in range(200):
        q = build(limits.depth)
        if _sharing_is_guarded(q):
            return q
    return pattern()


def generated_instances(count: int) -> list[tuple[KnowledgeBase, Query]]:
    """The seeded (knowledge base, query) pairs of the acceptance criteria."""
    # Assertion-rich bases so a healthy share of queries return bindings.
    rng = random.Random(20240)
    limits = GenLimits(axioms=8)
    return [(random_kb(rng, limits), random_query(rng)) for _ in range(count)]
