"""Flattening is invisible: a chain (``And``, ``Or``, ``Join``, ``Union``)
nested any way builds the node its flat form does, with the same hash,
extension, printed text and answers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from dlq.algebra import eval_algebraic
from dlq.interpretation import denotational_eval
from dlq.kbtext import print_concept
from dlq.model import (
    And,
    Atomic,
    Exists,
    Forall,
    Interpretation,
    Not,
    Or,
    extension,
)
from dlq.query import ConceptPattern, Join, Minus, Optional, Union, Var
from dlq.reasoner import Reasoner
from support import EX, concept_strategy, iri, random_kb, random_query

P = {"": EX}
A, B, C = (Atomic(iri(n)) for n in "ABC")


def renest(node, rng: random.Random):
    """``node`` rebuilt with the items of every chain regrouped into nested
    chains of its kind, split at random points."""
    if isinstance(node, (And, Or, Join, Union)):
        items = node.operands if isinstance(node, (And, Or)) else node.parts
        return _group(node.__class__, [renest(x, rng) for x in items], rng)
    if isinstance(node, Not):
        return Not(renest(node.operand, rng))
    if isinstance(node, (Exists, Forall)):
        return node.__class__(node.role, renest(node.filler, rng))
    if isinstance(node, (Minus, Optional)):
        return node.__class__(renest(node.left, rng), renest(node.right, rng))
    if isinstance(node, ConceptPattern):
        return ConceptPattern(node.elem, renest(node.concept, rng))
    return node


def _group(cls, items: list, rng: random.Random):
    if len(items) == 1:
        return items[0]
    k = rng.randrange(1, len(items))
    return cls((_group(cls, items[:k], rng), _group(cls, items[k:], rng)))


def _interpretation(rng: random.Random) -> Interpretation:
    domain = frozenset(range(3))
    return Interpretation(
        domain,
        {iri(n): frozenset(e for e in domain if rng.random() < 0.5) for n in "AB"},
        {iri(n): frozenset((a, b) for a in domain for b in domain if rng.random() < 0.3)
         for n in "rs"},
        {iri("o1"): 0, iri("o2"): rng.randrange(3)},
    )


@pytest.mark.parametrize("cls", [And, Or])
def test_both_nestings_of_three_give_the_flat_node(cls):
    flat = cls((A, B, C))
    for nested in (cls((A, cls((B, C)))), cls((cls((A, B)), C))):
        assert nested == flat and hash(nested) == hash(flat)
        assert nested.operands == (A, B, C)


def test_a_chain_needs_two_items_and_keeps_repeats_and_units():
    with pytest.raises(ValueError):
        And((A,))
    with pytest.raises(ValueError):
        Union((ConceptPattern(Var("x"), A),))
    assert Or((A, Or((A, Not(A))))).operands == (A, A, Not(A))


@settings(max_examples=80, deadline=None)
@given(concept_strategy(with_nominals=True), st.randoms(use_true_random=False))
def test_a_renested_concept_is_the_same_concept(c, rng):
    again = renest(c, rng)
    assert again == c and hash(again) == hash(c)
    assert print_concept(again, P) == print_concept(c, P)
    for _ in range(3):
        interp = _interpretation(rng)
        assert extension(again, interp) == extension(c, interp)
    r = Reasoner(random_kb(rng))
    assert r.is_satisfiable(again).satisfiable == r.is_satisfiable(c).satisfiable
    assert r.named_instances(again) == r.named_instances(c)


def test_a_renested_query_is_the_same_query():
    rng = random.Random(53)
    for i in range(40):
        kb = random_kb(rng)
        # Three or four random queries as one chain, so it nests many ways.
        q = (Join, Union)[i % 2](tuple(random_query(rng) for _ in range(3 + i % 3 // 2)))
        again = renest(q, rng)
        assert again == q and hash(again) == hash(q)
        r = Reasoner(kb)
        answers = eval_algebraic(r, q)
        assert eval_algebraic(r, again) == answers == denotational_eval(r, again)
