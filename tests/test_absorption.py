"""T-Box absorption: inclusions the tableau can absorb become lazy
unfolding triggers on atomic concepts, and only the rest is internalised
on every node.  These tests pin the mechanism (what is absorbed and what
stays) and check the answers against the model-theoretic oracles on
knowledge bases built from every shape the absorption rules rewrite.
"""

from __future__ import annotations

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dlq.interpretation import bounded_model_search, extension, verify_model
from dlq.kbtext import parse_concept, parse_kb
from dlq.model import (
    And,
    Atomic,
    BOTTOM,
    ConceptAssertion,
    Equivalent,
    Exists,
    Forall,
    KnowledgeBase,
    Nominal,
    Not,
    Or,
    Role,
    RoleAssertion,
    SubClass,
    TOP,
)
from dlq.reasoner import Reasoner
from dlq.tableau import Tableau, _Graph
from support import EX, iri

PREFIX = f"prefix : <{EX}>\n"


def _kb(text: str) -> KnowledgeBase:
    return parse_kb(PREFIX + text)


def _c(text: str):
    return parse_concept(text, {"": EX})


# --- the mechanism ----------------------------------------------------------


def test_university_tbox_is_absorbed_except_three_deterministic_foralls(
        university_kb, uc):
    tableau = Tableau(university_kb)
    assert not any(isinstance(c, Or) for c in tableau.internalized)
    assert set(tableau.internalized) == {
        uc(":headOf only :Department"),
        uc("inv(:worksFor) only :Person"),
        uc("inv(:subOrganizationOf) only :Organization"),
    }
    assert tableau.unfolding[uc(":Chair")] == (
        uc(":Professor"), uc(":headOf some :Department and :Person"))
    assert tableau.unfolding[uc(":Employee")] == (
        uc(":Person and :worksFor some :Organization"),)


def test_left_hand_sides_are_rewritten_into_triggers():
    tableau = Tableau(_kb(
        ":A and :B SubClassOf Nothing\n"
        ":B or :C SubClassOf :D\n"
        ":r some (:s some :C) SubClassOf :D\n"
        "inv(:r) some Thing SubClassOf :A\n"))
    assert tableau.unfolding[_c(":A")] == (_c("not :B"),)
    assert tableau.unfolding[_c(":B")] == (_c(":D"),)
    # C ⊑ D from the disjunction, then C ⊑ ∀inv(s).∀inv(r).D from the chain.
    assert tableau.unfolding[_c(":C")] == (
        _c(":D"), _c("inv(:s) only inv(:r) only :D"))
    assert tableau.internalized == (_c(":r only :A"),)


def test_negated_atoms_never_trigger():
    # ¬A ⊑ B must hold on nodes that hold neither A nor ¬A, so it stays
    # internalised as A ⊔ B.
    kb = _kb("not :A SubClassOf :B\n")
    tableau = Tableau(kb)
    assert tableau.unfolding == {}
    assert tableau.internalized == (_c(":A or :B"),)
    r = Reasoner(kb)
    assert r.entails_subsumption(_c("not :B"), _c(":A"))
    result = r.is_satisfiable(_c("not :B"))
    assert result.satisfiable and verify_model(result.witness, kb)


def test_a_conjunction_triggers_on_its_atom_with_the_rest_kept():
    kb = _kb(":A and :B SubClassOf Nothing\n")
    r = Reasoner(kb)
    assert r.is_satisfiable(_c(":A")).satisfiable
    assert r.is_satisfiable(_c(":B")).satisfiable
    assert not r.is_satisfiable(_c(":A and :B")).satisfiable
    assert r.entails_subsumption(_c(":A"), _c("not :B"))


def test_a_non_absorbable_inclusion_stays_internalised_and_decides():
    kb = _kb(":r only :A SubClassOf :B\n")
    tableau = Tableau(kb)
    assert tableau.unfolding == {}
    assert tableau.internalized == (_c(":r some not :A or :B"),)
    r = Reasoner(kb)
    assert r.entails_subsumption(_c("not :B"), _c(":r some not :A"))
    assert not r.is_satisfiable(_c(":r only :A and not :B")).satisfiable
    assert not r.entails_subsumption(_c(":B"), _c(":r only :A"))
    result = r.is_satisfiable(_c("not :B"))
    assert result.satisfiable and verify_model(result.witness, kb)


def test_cyclic_atomic_inclusions_unfold_once():
    kb = _kb(":A SubClassOf :B\n:B SubClassOf :A\n:A SubClassOf :r some :A\n")
    r = Reasoner(kb)
    assert r.entails_subsumption(_c(":B"), _c(":r some :B"))
    result = r.is_satisfiable(_c(":B"))
    assert result.satisfiable and verify_model(result.witness, kb)
    assert extension(_c(":B"), result.witness)


def test_a_merge_into_a_nominal_prunes_the_merged_subtree(monkeypatch):
    # Everything has an r-successor, and each is {o1} or A.  Re-parenting
    # the merged node's children to the nominal node unblocked a chain
    # that grew one node more before the next merge, without end.
    created = []
    original = _Graph.new_node

    def counted(self, parent, label):
        created.append(parent)
        assert len(created) < 1000, "the tableau keeps generating nodes"
        return original(self, parent, label)

    monkeypatch.setattr(_Graph, "new_node", counted)
    kb = _kb(":A EquivalentTo not {:o1}\n:r only Nothing SubClassOf Nothing\n")
    result = Reasoner(kb).is_satisfiable(_c(":A"))
    assert result.satisfiable and verify_model(result.witness, kb)
    assert extension(_c(":A"), result.witness)


def test_a_forall_crosses_into_a_node_while_it_is_merged():
    # The r-successor holds {o1}, so it is merged into o1's node.  The ∀
    # copied onto o1 crosses o1's edge to the successor, the very node
    # whose label the merge is copying.
    kb = _kb(":o1 Type :r some ({:o1} and :r only :D)\n")
    r = Reasoner(kb)
    assert r.is_consistent()
    result = r.is_satisfiable(TOP)
    assert result.satisfiable and verify_model(result.witness, kb)
    assert r.entails_instance(iri("o1"), _c(":D"))


# --- the answers, against the oracles ------------------------------------------

_ATOMS = [Atomic(iri(n)) for n in "ABC"]
_OBJECTS = [iri("o1"), iri("o2")]
_ROLES = [Role(iri("r")), Role(iri("s")), Role(iri("r"), inverse=True)]

_atoms = st.sampled_from(_ATOMS)
_roles = st.sampled_from(_ROLES)
_concepts = st.recursive(
    st.one_of(_atoms, st.builds(Nominal, st.sampled_from(_OBJECTS)),
              st.just(TOP), st.just(BOTTOM)),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(lambda x, y: And((x, y)), inner, inner),
        st.builds(lambda x, y: Or((x, y)), inner, inner),
        st.builds(Exists, _roles, inner),
        st.builds(Forall, _roles, inner),
    ),
    max_leaves=4,
)
_axioms = st.one_of(
    st.builds(lambda a, c: (Equivalent(a, c),), _atoms, _concepts),
    st.builds(lambda a, x, d: (SubClass(And((x, a)), d),), _atoms, _concepts, _concepts),
    st.builds(lambda x, y, d: (SubClass(Or((x, y)), d),), _concepts, _concepts, _concepts),
    st.builds(lambda r, f, d: (SubClass(Exists(r, f), d),), _roles, _concepts, _concepts),
    st.builds(lambda r, d: (SubClass(Exists(r.inverted(), TOP), d),), _roles, _concepts),
    st.builds(lambda a, b: (SubClass(a, b), SubClass(b, a)), _atoms, _atoms),
    st.builds(lambda a, d: (SubClass(Not(a), d),), _atoms, _concepts),
    st.builds(lambda c, d: (SubClass(c, d),), _concepts, _concepts),
)
_assertions = st.one_of(
    st.builds(ConceptAssertion, st.sampled_from(_OBJECTS), _concepts),
    st.builds(RoleAssertion, st.sampled_from(_OBJECTS), _roles, st.sampled_from(_OBJECTS)),
)
_kbs = st.builds(
    lambda groups, abox: KnowledgeBase(
        tuple(a for g in groups for a in g), tuple(abox), {"": EX}),
    st.lists(_axioms, min_size=1, max_size=4),
    st.lists(_assertions, max_size=2),
)


# A fixed seed: the same examples on every run, whatever the test's source.
# Some knowledge bases of this shape make the tableau's chronological
# backtracking revisit thousands of choice points (minutes, with or without
# absorption), so a random draw could stall the suite; this draw runs in
# seconds.  The seed is the one ``derandomize=True`` drew from this test's
# source digest before it was pinned, so the examples are the same 200.
@settings(max_examples=200, deadline=None, database=None)
@seed(26327813396743923133071696023013847051168628853735607707931083924655440747463466538140013916278236462025085336174418)
@given(_kbs, _concepts)
def test_absorbed_tableau_agrees_with_the_model_oracles(kb, probe):
    # A witness must be a model of the whole T-Box, absorbed or not; an
    # unsatisfiable answer must have no model at the sizes the exhaustive
    # search can cover (size 3 takes minutes when no model exists).
    reasoner = Reasoner(kb)
    result = reasoner.is_satisfiable(probe)
    if result.satisfiable:
        assert verify_model(result.witness, kb)
        assert extension(probe, result.witness)
    else:
        assert bounded_model_search(kb, probe, 2) is None
    # An entailed instance is a refutation run that found no model of the
    # KB with :o1 outside the probe.
    if reasoner.entails_instance(_OBJECTS[0], probe):
        refuted = kb.extended(ConceptAssertion(_OBJECTS[0], Not(probe)))
        assert bounded_model_search(refuted, TOP, 2) is None
