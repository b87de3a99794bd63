from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from dlq.model import (
    And,
    Atomic,
    BOTTOM,
    ConceptAssertion,
    Equivalent,
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
    nnf,
    signature,
)
from support import (
    concept_strategy,
    extensions_equal_everywhere,
    iri,
    random_kb,
)

A = Atomic(iri("A"))
B = Atomic(iri("B"))
R = Role(iri("r"))


class TestIri:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Iri("")

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            Iri("http://x/ y")

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u3000", "\t", "\n"])
    def test_rejects_every_unicode_space(self, space):
        with pytest.raises(ValueError):
            Iri(f"http://x/a{space}b")

    def test_accepts_non_ascii_letters(self):
        assert Iri("http://x/é").value == "http://x/é"


class TestRoles:
    def test_double_inversion_cancels(self):
        assert R.inverted().inverted() == R

    def test_inverse_assertion_normalises_by_swapping(self):
        assertion = RoleAssertion(iri("a"), Role(iri("r"), inverse=True), iri("b"))
        assert assertion.subject == iri("b")
        assert assertion.obj == iri("a")
        assert not assertion.role.inverse


class TestNnf:
    def test_negated_top_is_bottom(self):
        assert nnf(Not(TOP)) == BOTTOM

    def test_de_morgan_on_conjunction(self):
        assert nnf(Not(And(A, B))) == Or(Not(A), Not(B))

    def test_negated_existential_becomes_universal(self):
        pushed = nnf(Not(Exists(R, A)))
        assert pushed == Forall(R, Not(A))
        assert extensions_equal_everywhere(Not(Exists(R, A)), pushed)

    def test_negation_only_on_atoms_and_nominals(self):
        c = Not(Or(Exists(R, And(A, Not(B))), Forall(R, Nominal(iri("o")))))

        def check(c):
            if isinstance(c, Not):
                assert isinstance(c.operand, (Atomic, Nominal))
            for attr in ("left", "right", "operand", "filler"):
                child = getattr(c, attr, None)
                if child is not None:
                    check(child)

        check(nnf(c))

    @given(concept_strategy(with_nominals=True))
    def test_idempotent(self, c):
        once = nnf(c)
        assert nnf(once) == once

    @given(concept_strategy(with_nominals=True))
    def test_keeps_a_concept_already_in_normal_form(self, c):
        once = nnf(c)
        assert nnf(once) == once and nnf(once) is once
        if _in_nnf(c):
            assert nnf(c) is c

    def test_rebuilds_only_the_path_to_a_negation(self):
        kept = Exists(R, And(A, Not(B)))
        c = And(kept, Not(Or(A, B)))
        got = nnf(c)
        assert got == And(kept, And(Not(A), Not(B)))
        assert got.left is kept

    @settings(max_examples=40, deadline=None)
    @given(concept_strategy())
    def test_preserves_extensions_in_every_small_interpretation(self, c):
        assert extensions_equal_everywhere(c, nnf(c), max_size=3)


def _in_nnf(c) -> bool:
    if isinstance(c, Not):
        return isinstance(c.operand, (Atomic, Nominal))
    return all(_in_nnf(getattr(c, attr)) for attr in ("left", "right", "filler")
               if hasattr(c, attr))


class TestStructuralEquality:
    def test_identical_trees(self):
        assert And(A, B) == And(A, B)

    def test_no_commutativity(self):
        assert And(A, B) != And(B, A)

    def test_double_negation_eliminated_by_nnf(self):
        assert nnf(Not(Not(A))) == A


class TestSignature:
    def test_empty_kb(self):
        sig = signature(KnowledgeBase())
        assert (sig.atomic_concepts, sig.atomic_roles, sig.objects) == \
            (frozenset(), frozenset(), frozenset())

    def test_university_objects(self, university_kb, uobj):
        assert signature(university_kb).objects == \
            {uobj("alice"), uobj("bob"), uobj("softlang")}

    def test_university_roles(self, university_kb, uobj):
        assert signature(university_kb).atomic_roles == \
            {uobj("worksFor"), uobj("headOf"), uobj("subOrganizationOf")}

    def test_university_concepts(self, university_kb, uobj):
        assert signature(university_kb).atomic_concepts == {
            uobj(n) for n in [
                "Person", "Organization", "Employee", "Professor", "Chair",
                "ResearchAssistant", "Department", "ResearchGroup",
            ]
        }

    def test_nominals_contribute_objects(self):
        kb = KnowledgeBase(tbox=(SubClass(Nominal(iri("o")), A),))
        assert signature(kb).objects == {iri("o")}

    def test_monotone_under_axiom_addition(self):
        rng = random.Random(7)
        for _ in range(50):
            kb = random_kb(rng)
            extended = kb.extended(ConceptAssertion(iri("extra"), Exists(R, B)))
            before, after = signature(kb), signature(extended)
            assert before.atomic_concepts <= after.atomic_concepts
            assert before.atomic_roles <= after.atomic_roles
            assert before.objects <= after.objects


class TestKnowledgeBase:
    def test_equivalence_splits_into_two_inclusions(self):
        kb = KnowledgeBase(tbox=(Equivalent(A, B),))
        assert list(kb.gcis()) == [SubClass(A, B), SubClass(B, A)]

    def test_extended_appends_by_axiom_kind(self):
        kb = KnowledgeBase()
        grown = kb.extended(SubClass(A, B), ConceptAssertion(iri("o"), A))
        assert len(grown.tbox) == 1 and len(grown.abox) == 1
