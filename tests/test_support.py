"""The shared test machinery earns its own checks: the packed-bitmask
interpretation oracle must agree with a naive one-interpretation-at-a-time
enumeration."""

from __future__ import annotations

import itertools
import random

from dlq.interpretation import Interpretation, extension
from dlq.model import And, Atomic, Exists, Forall, Not, Or, Role
from support import InterpSpace, _random_simple_concept, iri


def naive_interpretations(concepts, roles, size):
    elems = list(range(size))
    concept_subsets = list(itertools.product([False, True], repeat=size))
    pair_list = [(i, j) for i in elems for j in elems]
    role_subsets = list(itertools.product([False, True], repeat=len(pair_list)))
    for concept_choice in itertools.product(concept_subsets, repeat=len(concepts)):
        for role_choice in itertools.product(role_subsets, repeat=len(roles)):
            yield Interpretation(
                domain=frozenset(elems),
                concept_ext={
                    name: frozenset(e for e in elems if bits[e])
                    for name, bits in zip(concepts, concept_choice)
                },
                role_ext={
                    name: frozenset(p for p, bit in zip(pair_list, bits) if bit)
                    for name, bits in zip(roles, role_choice)
                },
                object_map={},
            )


def packed_index(space: InterpSpace, interp: Interpretation) -> int:
    """The bit position the packed space assigns to one interpretation."""
    size = space.size
    configs = []
    for name in space.concepts:
        ext = interp.concept_ext.get(name, frozenset())
        configs.append((sum(1 << e for e in ext), 1 << size))
    for name in space.roles:
        pairs = interp.role_ext.get(name, frozenset())
        configs.append((sum(1 << (i * size + j) for i, j in pairs),
                        1 << (size * size)))
    index = 0
    for cfg, count in configs:
        index = index * count + cfg
    return index


def test_packed_oracle_matches_naive_enumeration():
    concepts = [iri("A")]
    roles = [iri("r")]
    size = 2
    space = InterpSpace(concepts, roles, size)
    atoms = [Atomic(iri("A"))]
    role_pool = [Role(iri("r"))]
    rng = random.Random(5)
    samples = [_random_simple_concept(rng, atoms, role_pool, 3) for _ in range(25)]
    naive = list(naive_interpretations(concepts, roles, size))
    assert len(naive) == space.total
    assert len({packed_index(space, i) for i in naive}) == space.total
    for c in samples:
        masks = space.eval(c)
        for interp in naive:
            index = packed_index(space, interp)
            ext = extension(c, interp)
            for e in range(size):
                assert bool(masks[e] >> index & 1) == (e in ext), (c, index, e)


def test_packed_oracle_separates_inequivalent_concepts():
    a, b = Atomic(iri("A")), Atomic(iri("B"))
    r = Role(iri("r"))
    space = InterpSpace([iri("A"), iri("B")], [iri("r")], 2)
    assert space.equivalent(And((a, b)), And((b, a)))
    assert space.equivalent(Not(Exists(r, a)), Forall(r, Not(a)))
    assert not space.equivalent(Exists(r, And((a, b))), And((Exists(r, a), Exists(r, b))))
    assert not space.equivalent(a, Or((a, b)))
