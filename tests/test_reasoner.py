from __future__ import annotations

import random
import sys

import pytest

from dlq.algebra import eval_algebraic
from dlq.interpretation import (
    bounded_model_search,
    denotational_eval,
    extension,
    verify_model,
)
from dlq.kbtext import parse_concept, parse_kb
from dlq.model import (
    And,
    Atomic,
    BOTTOM,
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
    Role,
    RoleAssertion,
    SubClass,
    TOP,
    concept_signature,
    negated,
)
from dlq.query import RolePattern, SolutionMapping, Var
from dlq.reasoner import Reasoner
from dlq.tableau import Tableau, _Graph
from support import EX, iri, random_kb, _random_simple_concept


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _forbid(monkeypatch, method: str) -> None:
    """Make every call of ``Tableau.<method>`` fail the test."""
    def refuse(self, *args):
        raise AssertionError(f"Tableau.{method} called")
    monkeypatch.setattr(Tableau, method, refuse)


class TestConsistency:
    def test_university_is_consistent(self, university):
        assert university.is_consistent()

    def test_organization_typed_as_person_is_inconsistent(self, university_kb, uobj, uc):
        grown = university_kb.extended(ConceptAssertion(uobj("softlang"), uc(":Person")))
        assert not Reasoner(grown).is_consistent()

    def test_empty_kb_is_consistent(self):
        assert Reasoner(KnowledgeBase()).is_consistent()

    def test_top_subsumed_by_bottom_is_inconsistent(self):
        assert not Reasoner(KnowledgeBase(tbox=(SubClass(TOP, BOTTOM),))).is_consistent()

    def test_nominal_in_tbox_constrains_its_object(self):
        kb = KnowledgeBase(tbox=(SubClass(Nominal(iri("o")), BOTTOM),))
        assert not Reasoner(kb).is_consistent()

    def test_choice_points_take_no_python_stack(self):
        # 300 independent disjunctions nest 300 choice points; the search
        # must not spend a Python frame on each of them.
        kb = KnowledgeBase(abox=tuple(
            ConceptAssertion(iri(f"o{i}"), Or((Atomic(iri(f"A{i}")), Atomic(iri(f"B{i}")))))
            for i in range(300)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            consistent = Reasoner(kb).is_consistent()
        finally:
            sys.setrecursionlimit(limit)
        assert consistent


class TestSatisfiability:
    def test_person_and_organization_unsatisfiable(self, university, uc):
        assert not university.is_satisfiable(uc(":Person and :Organization")).satisfiable

    def test_worksfor_researchgroup_employee_satisfiable(self, university, uc):
        result = university.is_satisfiable(
            uc(":worksFor some :ResearchGroup and :Employee"))
        assert result.satisfiable

    def test_bottom_never_satisfiable(self, university):
        assert not university.is_satisfiable(BOTTOM).satisfiable

    def test_witness_is_a_verified_model_with_nonempty_extension(self, university,
                                                                 university_kb, uc):
        concept = uc(":worksFor some :ResearchGroup and :Employee")
        result = university.is_satisfiable(concept)
        assert result.witness is not None
        assert verify_model(result.witness, university_kb)
        assert extension(concept, result.witness)

    def test_unsatisfiable_has_no_witness(self, university, uc):
        assert university.is_satisfiable(uc(":Person and :Organization")).witness is None

    def test_nominal_outside_the_signature_denotes_an_object(self):
        # Thing SubClassOf {:o1}: every model has one element, so :zed is :o1.
        kb = KnowledgeBase(tbox=(SubClass(TOP, Nominal(iri("o1"))),))
        r = Reasoner(kb)
        assert bounded_model_search(kb, Not(Nominal(iri("zed"))), 3) is None
        assert not r.is_satisfiable(Not(Nominal(iri("zed")))).satisfiable
        assert r.entails_instance(iri("o1"), Nominal(iri("zed")))


    def test_a_choice_point_copies_the_graph_only_for_the_sides_it_tries(self, monkeypatch):
        copies = []
        copy = _Graph.copy
        monkeypatch.setattr(_Graph, "copy", lambda g: copies.append(g) or copy(g))
        atoms = [Atomic(iri(f"A{i}")) for i in range(10)]
        # One ten-way choice point: the sides A0 to A4 clash once tried and
        # A5 holds, so six sides are tried and A6 to A9 never copied.
        # The run itself starts from one copy, of the closed A-Box graph.
        kb = KnowledgeBase(tbox=tuple(SubClass(a, BOTTOM) for a in atoms[:5]))
        tableau = Tableau(kb)
        graph = tableau.run(Or(tuple(atoms)))
        assert graph is not None and atoms[5] in graph.labels[0]
        start = [g for g in copies if g is tableau._abox_graph]
        assert len(start) == 1
        assert len(copies) - len(start) == 6


class TestSubsumption:
    def test_research_assistant_is_employee(self, university, uc):
        assert university.entails_subsumption(uc(":ResearchAssistant"), uc(":Employee"))

    def test_chair_is_person_via_chain(self, university, uc):
        assert university.entails_subsumption(uc(":Chair"), uc(":Person"))

    def test_reflexive(self, university, uc):
        assert university.entails_subsumption(uc(":Department"), uc(":Department"))

    def test_head_of_inverse_range(self, university, uc):
        assert university.entails_subsumption(uc("inv(:headOf) some :Chair"),
                                              uc(":Department"))

    def test_employee_not_subsumed_by_researchgroup_worker(self, university, uc):
        assert not university.entails_subsumption(
            uc(":Employee"), uc(":worksFor some :ResearchGroup"))

    def test_a_model_not_interpreting_a_named_object_refutes_nothing(self):
        # ⊤ ⊑ {o1} makes every element o1, and so ⊤ ⊑ {zed}; the session
        # model does not interpret zed, so it must not refute the probe.
        r = Reasoner(KnowledgeBase(tbox=(SubClass(TOP, Nominal(iri("o1"))),)))
        assert r.is_consistent()
        assert r.entails_subsumption(TOP, Nominal(iri("zed")))

    def test_told_subsumers_follow_atomic_entries_and_conjuncts(self, university_kb, uc):
        # Chair ⊑ Professor ⊑ Employee ⊑ Person and ∃worksFor.Organization;
        # ResearchAssistant ⊑ Employee takes reasoning, so it is not told.
        told = Tableau(university_kb).told_subsumers
        assert told(uc(":Chair")) == {uc(c) for c in
                                      (":Chair", ":Professor", ":Employee", ":Person")}
        assert uc(":Employee") not in told(uc(":ResearchAssistant"))
        assert told(uc(":worksFor some :Organization")) == set()

    def test_a_told_subsumption_makes_no_run(self, university_kb, uc, monkeypatch):
        r = Reasoner(university_kb)
        _forbid(monkeypatch, "run")
        assert r.entails_subsumption(uc(":Chair"), uc(":Person"))


class TestInstances:
    def test_alice_is_a_person(self, university, uobj, uc):
        assert university.entails_instance(uobj("alice"), uc(":Person"))

    def test_bob_is_a_person_via_domain_axiom(self, university, uobj, uc):
        assert university.entails_instance(uobj("bob"), uc(":Person"))

    def test_bob_is_not_provably_a_chair(self, university, university_kb, uobj, uc):
        assert not university.entails_instance(uobj("bob"), uc(":Chair"))
        # A counter-model exists at small size.
        grown = university_kb.extended(
            ConceptAssertion(uobj("bob"), Not(uc(":Chair"))))
        assert bounded_model_search(grown, TOP, 4) is not None

    def test_named_instances_of_person(self, university, uobj, uc):
        assert university.named_instances(uc(":Person")) == \
            {uobj("alice"), uobj("bob")}

    def test_named_instances_of_department_is_empty(self, university, uc):
        # alice heads a department, but it is anonymous in every model.
        assert university.named_instances(uc(":Department")) == frozenset()

    def test_named_instances_of_top_is_every_object(self, university, uobj):
        assert university.named_instances(TOP) == \
            {uobj("alice"), uobj("bob"), uobj("softlang")}


class TestRoles:
    def test_asserted_edge_is_entailed(self, university, uobj, urole):
        assert university.entails_role(uobj("bob"), urole("worksFor"), uobj("softlang"))

    def test_unrelated_edge_is_not_entailed(self, university, uobj, urole):
        assert not university.entails_role(uobj("alice"), urole("worksFor"),
                                           uobj("softlang"))

    def test_empty_kb_entails_no_edges(self):
        kb = KnowledgeBase(abox=(ConceptAssertion(iri("a"), TOP),
                                 ConceptAssertion(iri("b"), TOP)))
        assert not Reasoner(kb).entails_role(iri("a"), Role(iri("r")), iri("b"))

    def test_inverse_direction(self, university, uobj, urole):
        assert university.entails_role(uobj("softlang"),
                                       urole("worksFor", inverse=True), uobj("bob"))

    def test_an_asserted_edge_costs_no_run(self, monkeypatch, university_kb, uc,
                                           uobj, urole):
        r = Reasoner(university_kb)
        _forbid(monkeypatch, "run")
        assert r.entails_role(uobj("bob"), urole("worksFor"), uobj("softlang"))
        assert r.entails_instance(uobj("softlang"), uc("inv(:worksFor) some {:bob}"))


class TestEdgeShapes:
    """Self-loops, inverse roles and edges that reach a named object through
    a nominal or a merge, each asked as whether ``:o1`` is a ``:D``."""

    PREFIX = "prefix : <http://ex.org/#>\n"

    @pytest.mark.parametrize("axioms, expected", [
        (":o1 Fact :r :o1\n:o1 Type :r only :D", True),
        (":o1 Fact :r :o1\n:o1 Type inv(:r) only :D", True),
        (":o1 Fact :r :o2\n:o2 Type inv(:r) only :D", True),
        (":o1 Type :r some {:o2}\n:o2 Type inv(:r) only :D", True),
        (":o1 Type :r some ({:o2} and :r only :D)\n:o2 Fact :r :o1", True),
        (":o1 Type {:o2}\n:o2 Fact :r :o3\n:o3 Type inv(:r) only :D", True),
        (":o2 Type :r only :D\n:o1 Fact :r :o2", False),
        (":o1 Fact :r :o1\n:o1 Type :s only :D", False),
    ])
    def test_instance_answer_and_verified_witness(self, axioms, expected):
        kb = parse_kb(self.PREFIX + axioms + "\n")
        r = Reasoner(kb)
        assert r.entails_instance(Iri("http://ex.org/#o1"),
                                  parse_concept(":D", kb.prefixes)) is expected
        result = r.is_satisfiable(TOP)
        assert result.satisfiable and verify_model(result.witness, kb)


class TestBlocking:
    """``_Graph.blocking`` on hand-built graphs: a root with two anonymous
    children of equal labels, the second with a child of its own."""

    @staticmethod
    def _graph(second_role: Role) -> tuple[_Graph, int, int, int]:
        a, r = Atomic(iri("A")), Role(iri("r"))
        g = _Graph({}, negated)
        root = g.new_node(None, ())
        first = g.new_node(root, (a,))
        g.add_edge(root, first, r)
        second = g.new_node(root, (a,))
        g.add_edge(root, second, second_role)
        grandchild = g.new_node(second, (a,))
        g.add_edge(second, grandchild, r)
        return g, first, second, grandchild

    def test_children_joined_by_different_roles_stay_unblocked(self):
        g, *_ = self._graph(Role(iri("s")))
        assert g.blocking() == ({}, set())

    def test_the_later_of_two_equal_children_is_blocked_with_its_subtree(self):
        g, first, second, grandchild = self._graph(Role(iri("r")))
        assert g.blocking() == ({second: first}, {second, grandchild})


class TestExistsRecheck:
    """An ∃ on a named node whose only witness is an anonymous node that is
    not the named node's child stays on the ∃ agenda: the witness can stop
    counting later, and the run must then add a successor of its own.

    The graph is built by hand: named nodes for :o (holding ∃r.A), :q and
    :w, then two children of :q, the first holding B, and below the second
    (``middle``) the node y holding A, with an r-edge from :o to y (a merge
    leaves such edges)."""

    A, B = Atomic(iri("A")), Atomic(iri("B"))
    r, s, t = Role(iri("r")), Role(iri("s")), Role(iri("t"))
    KB = KnowledgeBase(abox=(ConceptAssertion(iri("o"), Exists(r, A)),))

    def _run(self, grow) -> _Graph:
        """Complete the graph, call ``grow(graph, middle)``, complete it
        again, and check that :o got exactly one successor of its own and
        that the graph yields a model of the KB."""
        tableau = Tableau(self.KB)
        g = _Graph({}, negated)
        o = g.new_node(None, (Nominal(iri("o")), Exists(self.r, self.A)))
        q = g.new_node(None, (Nominal(iri("q")),))
        g.new_node(None, (Nominal(iri("w")),))
        first = g.new_node(q, (self.B,))
        g.add_edge(q, first, self.s)
        middle = g.new_node(q, ())
        g.add_edge(q, middle, self.s)
        y = g.new_node(middle, (self.A,))
        g.add_edge(middle, y, self.t)
        g.add_edge(o, y, self.r)

        def own_successors() -> list[int]:
            return [n for n, par in g.parent.items() if par == o and self.A in g.labels[n]]

        assert tableau._expand(g) is g and own_successors() == []
        grow(g, middle)
        assert tableau._expand(g) is g and len(own_successors()) == 1
        assert verify_model(tableau.model_of(g), self.KB)
        return g

    def test_an_indirectly_blocked_witness_stops_counting(self):
        # The middle node's key becomes the first child's, so it is blocked
        # and y, below it, is blocked indirectly.
        g = self._run(lambda g, middle: g.add(middle, self.B))
        direct, blocked = g.blocking()
        assert len(direct) == 1 and len(blocked) == 2

    def test_a_merge_that_prunes_the_witness_leaves_the_exists_open(self):
        # Naming the middle node merges it into :w and prunes y with it.
        g = self._run(lambda g, middle: g.add(middle, Nominal(iri("w"))))
        assert len(g.labels) == 5   # :o, :q, :w, the first child, :o's successor


class TestSharedAboxGraph:
    """Runs without an object start from a copy of one closed A-Box graph
    per tableau; none of them may change it."""

    ATOMS = [Atomic(iri(n)) for n in "ABC"]
    ROLES = [Role(iri("r")), Role(iri("s"))]

    @staticmethod
    def _snapshot(g: _Graph) -> tuple:
        return ([(n, list(label)) for n, label in g.labels.items()],
                [(n, [(m, list(roles)) for m, roles in adj.items()])
                 for n, adj in g.edges.items()],
                list(g.parent.items()), list(g.agenda), g.clashed, g.next_id)

    @staticmethod
    def _refuting(assertion) -> Concept:
        """A probe that clashes with ``assertion`` once merged into its node."""
        if isinstance(assertion, ConceptAssertion):
            return And((Nominal(assertion.obj), Not(assertion.concept)))
        return And((Nominal(assertion.subject),
                    Not(Exists(assertion.role, Nominal(assertion.obj)))))

    def test_runs_leave_the_shared_graph_as_built(self):
        rng = random.Random(47)
        merged = 0
        for _ in range(60):
            kb = random_kb(rng)
            tableau = Tableau(kb)
            shared = tableau._abox_graph
            before = self._snapshot(shared)
            named = rng.choice(tableau.named)
            probes = [
                None,   # the consistency run
                _random_simple_concept(rng, self.ATOMS, self.ROLES, 2),
                And((Nominal(named),
                     _random_simple_concept(rng, self.ATOMS, self.ROLES, 1))),
                And((Nominal(iri("zed")), rng.choice(self.ATOMS))),
                self._refuting(kb.abox[0]),
            ]
            for probe in probes:
                graph = tableau.run(probe)
                assert graph is not shared
                assert self._snapshot(shared) == before
                if probe is probes[-1]:
                    assert graph is None
                if graph is None:
                    continue
                model = tableau.model_of(graph)
                assert verify_model(model, kb)
                if probe is not None:
                    assert extension(probe, model)
                    # The probe's root merges into the named object's node.
                    merged += probe is probes[2] and len(graph.labels) < graph.next_id
            assert tableau._abox_graph is shared
        assert merged > 20

class TestVerifyModel:
    def test_abox_only_model(self, university_kb, uobj, uc):
        abox_only = KnowledgeBase(abox=university_kb.abox,
                                  prefixes=university_kb.prefixes)
        uni = university_kb.prefixes[""]
        model = Interpretation(
            domain=frozenset([0, 1, 2]),
            concept_ext={Iri(uni + "Chair"): frozenset([0]),
                         Iri(uni + "ResearchGroup"): frozenset([2])},
            role_ext={Iri(uni + "worksFor"): frozenset([(1, 2)])},
            object_map={uobj("alice"): 0, uobj("bob"): 1, uobj("softlang"): 2},
        )
        assert verify_model(model, abox_only)

    def test_disjointness_violation_detected(self, university_kb, uobj):
        uni = university_kb.prefixes[""]
        bad = Interpretation(
            domain=frozenset([0]),
            concept_ext={Iri(uni + "Person"): frozenset([0]),
                         Iri(uni + "Organization"): frozenset([0])},
            role_ext={},
            object_map={uobj("alice"): 0, uobj("bob"): 0, uobj("softlang"): 0},
        )
        assert not verify_model(bad, university_kb)

    # A ⊑ B, {c} ⊑ B, a : A, r(a, b); each row breaks one thing a model
    # needs, and only that thing, so each rejection branch is the one
    # that decides its row.
    A, B, a, b, c = Atomic(iri("A")), Atomic(iri("B")), iri("a"), iri("b"), iri("c")
    TINY = KnowledgeBase(
        tbox=(SubClass(A, B), SubClass(Nominal(c), B)),
        abox=(ConceptAssertion(a, A), RoleAssertion(a, Role(iri("r")), b)))
    MODEL = {"domain": frozenset([0, 1]),
             "concept_ext": {iri("A"): frozenset([0]), iri("B"): frozenset([0])},
             "role_ext": {iri("r"): frozenset([(0, 1)])},
             "object_map": {a: 0, b: 1, c: 0}}
    BROKEN = [
        pytest.param(KnowledgeBase(), {"domain": frozenset(), "concept_ext": {},
                                       "role_ext": {}, "object_map": {}},
                     id="empty-domain"),
        pytest.param(TINY, {"concept_ext": {**MODEL["concept_ext"],
                                            iri("C"): frozenset([5])}},
                     id="concept-extension-outside-domain"),
        pytest.param(TINY, {"role_ext": {**MODEL["role_ext"],
                                         iri("s"): frozenset([(0, 5)])}},
                     id="role-pair-outside-domain"),
        pytest.param(TINY, {"object_map": {a: 0, b: 1, c: 0, iri("d"): 5}},
                     id="object-image-outside-domain"),
        pytest.param(TINY, {"object_map": {a: 0, b: 1}}, id="kb-object-unmapped"),
        pytest.param(TINY, {"concept_ext": {iri("A"): frozenset([0, 1]),
                                            iri("B"): frozenset([0])}},
                     id="violated-gci"),
        pytest.param(TINY, {"concept_ext": {iri("B"): frozenset([0])}},
                     id="violated-concept-assertion"),
        pytest.param(TINY, {"role_ext": {iri("r"): frozenset([(1, 0)])}},
                     id="violated-role-assertion"),
    ]

    def test_the_tiny_model_is_a_model(self):
        assert verify_model(Interpretation(**self.MODEL), self.TINY)

    @pytest.mark.parametrize("kb, changes", BROKEN)
    def test_each_rejection_branch(self, kb, changes):
        assert not verify_model(Interpretation(**{**self.MODEL, **changes}), kb)


class TestBoundedSearch:
    def test_single_element_model_for_free_atom(self):
        model = bounded_model_search(KnowledgeBase(), Atomic(iri("A")), 1)
        assert model is not None and len(model.domain) == 1

    def test_empty_concept_has_no_model(self):
        kb = KnowledgeBase(tbox=(SubClass(Atomic(iri("A")), BOTTOM),))
        assert bounded_model_search(kb, Atomic(iri("A")), 3) is None

    def test_university_chair_model(self, university_kb, uc, uobj):
        model = bounded_model_search(university_kb, uc(":Chair"), 3)
        assert model is not None
        assert verify_model(model, university_kb)
        chairs = extension(uc(":Chair"), model)
        assert chairs
        elem = next(iter(chairs))
        for name in (":Professor", ":Employee", ":Person"):
            assert elem in extension(uc(name), model)
        head_of = model.role_ext.get(uobj("headOf"), frozenset())
        departments = extension(uc(":Department"), model)
        assert any(src == elem and dst in departments for src, dst in head_of)


class TestProperties:
    def test_witnesses_verify_on_random_kbs(self):
        rng = random.Random(11)
        satisfiable_seen = 0
        for _ in range(100):
            kb = random_kb(rng)
            r = Reasoner(kb)
            concept = _random_simple_concept(
                rng, [Atomic(iri(n)) for n in "ABC"], [Role(iri("r")), Role(iri("s"))], 2)
            result = r.is_satisfiable(concept)
            if result.satisfiable:
                satisfiable_seen += 1
                assert verify_model(result.witness, kb)
                assert extension(concept, result.witness)
        assert satisfiable_seen > 50

    def test_witnesses_interpret_nominals_outside_the_signature(self):
        # {:zed} names no object of any generated KB; a witness must still
        # give it an element, wherever the probe mentions it.
        rng = random.Random(29)
        atoms = [Atomic(iri(n)) for n in "ABC"] + [Nominal(iri("zed"))]
        roles = [Role(iri("r")), Role(iri("s"))]
        satisfiable_seen = 0
        for _ in range(100):
            kb = random_kb(rng)
            concept = _random_simple_concept(rng, atoms, roles, 2)
            if iri("zed") not in concept_signature(concept).objects:
                continue
            result = Reasoner(kb).is_satisfiable(concept)
            if result.satisfiable:
                satisfiable_seen += 1
                assert iri("zed") in result.witness.object_map
                assert verify_model(result.witness, kb)
                assert extension(concept, result.witness)
        assert satisfiable_seen > 25

    def test_bounded_model_implies_tableau_satisfiable(self):
        rng = random.Random(13)
        found = 0
        for _ in range(100):
            kb = random_kb(rng)
            concept = Atomic(iri(rng.choice("ABC")))
            if bounded_model_search(kb, concept, 3) is not None:
                found += 1
                assert Reasoner(kb).is_satisfiable(concept).satisfiable
        assert found > 50

    def test_role_entailment_is_sound_against_bounded_models(self):
        # Role entailment goes through instance entailment of r some {b},
        # and so does the denotational oracle; this checks the reduction
        # against models of the knowledge base plus a : r only not {b},
        # on a session that only point-checks and on one that enumerated
        # (and so prunes against its model) first.  Domain size 2, not 3:
        # when the edge is entailed the search must exhaust every
        # interpretation, which takes minutes at size 3.
        rng = random.Random(31)
        roles = [Role(iri("r")), Role(iri("s")), Role(iri("r"), inverse=True)]
        refuted = 0
        for _ in range(100):
            kb = random_kb(rng)
            point, enumerated = Reasoner(kb), Reasoner(kb)
            pairs = {role: enumerated.named_role_pairs(role) for role in roles}
            for a in point.objects:
                for b in point.objects:
                    for role in roles:
                        probe = kb.extended(
                            ConceptAssertion(a, Forall(role, Not(Nominal(b)))))
                        if bounded_model_search(probe, TOP, 2) is None:
                            continue
                        refuted += 1
                        assert not point.entails_role(a, role, b)
                        assert not enumerated.entails_role(a, role, b)
                        assert (a, b) not in pairs[role]
        assert refuted > 2000

    def test_definitional_coherence(self):
        rng = random.Random(17)
        atoms = [Atomic(iri(n)) for n in "ABC"]
        roles = [Role(iri("r")), Role(iri("s"))]
        for _ in range(60):
            kb = random_kb(rng)
            r = Reasoner(kb)
            c = _random_simple_concept(rng, atoms, roles, 2)
            d = _random_simple_concept(rng, atoms, roles, 2)
            assert r.entails_subsumption(c, d) == \
                (not r.is_satisfiable(And((c, Not(d)))).satisfiable)

    def test_subsumption_reflexive_and_transitive(self):
        rng = random.Random(19)
        atoms = [Atomic(iri(n)) for n in "ABC"]
        roles = [Role(iri("r"))]
        for _ in range(40):
            kb = random_kb(rng)
            r = Reasoner(kb)
            c, d, e = (_random_simple_concept(rng, atoms, roles, 2) for _ in range(3))
            assert r.entails_subsumption(c, c)
            if r.entails_subsumption(c, d) and r.entails_subsumption(d, e):
                assert r.entails_subsumption(c, e)

    def test_subsumption_monotone_under_new_axioms(self):
        rng = random.Random(23)
        atoms = [Atomic(iri(n)) for n in "ABC"]
        roles = [Role(iri("r"))]
        for _ in range(40):
            kb = random_kb(rng)
            r = Reasoner(kb)
            c = _random_simple_concept(rng, atoms, roles, 2)
            d = _random_simple_concept(rng, atoms, roles, 2)
            if not r.entails_subsumption(c, d):
                continue
            grown = kb.extended(SubClass(
                _random_simple_concept(rng, atoms, roles, 1),
                _random_simple_concept(rng, atoms, roles, 1)))
            assert Reasoner(grown).entails_subsumption(c, d)

    def test_held_models_refute_only_non_subsumptions(self, monkeypatch):
        # A session that has answered satisfiability probes holds their
        # witnesses, and some of its subsumptions are refuted by a held
        # model with no tableau run; every answer must agree with a
        # satisfiability run on a fresh session.
        rng = random.Random(37)
        atoms = [Atomic(iri(n)) for n in "ABC"] + [Nominal(iri("zed"))]
        roles = [Role(iri("r")), Role(iri("s"))]
        runs = []
        real_run = Tableau.run

        def counted(self, *args):
            runs.append(args)
            return real_run(self, *args)

        monkeypatch.setattr(Tableau, "run", counted)
        held_refuted = 0
        for k in range(60):
            kb = random_kb(rng)
            r = Reasoner(kb)
            if k % 2:
                r.is_consistent()
            asked = [_random_simple_concept(rng, atoms, roles, 2) for _ in range(4)]
            for c in asked:
                r.is_satisfiable(c)
            pairs = dict.fromkeys(
                (_random_simple_concept(rng, atoms, roles, 2),
                 _random_simple_concept(rng, atoms, roles, 2)) for _ in range(8))
            for c, d in pairs:
                before = len(runs)
                answer = r.entails_subsumption(c, d)
                if not answer and len(runs) == before and And((c, Not(d))) not in asked:
                    held_refuted += 1
                assert answer == (not Reasoner(kb).is_satisfiable(And((c, Not(d)))).satisfiable)
        assert held_refuted > 150

    def test_a_subsumption_builds_no_model(self, monkeypatch):
        _forbid(monkeypatch, "model_of")
        rng = random.Random(41)
        atoms = [Atomic(iri(n)) for n in "ABC"]
        roles = [Role(iri("r")), Role(iri("s"))]
        answers = []
        for _ in range(60):
            r = Reasoner(random_kb(rng))
            for _ in range(4):
                c = (Nominal(iri("o1")) if rng.random() < 0.2
                     else _random_simple_concept(rng, atoms, roles, 2))
                answers.append(r.entails_subsumption(
                    c, _random_simple_concept(rng, atoms, roles, 2)))
        assert answers.count(True) > 30 and answers.count(False) > 100

    def test_a_subsumption_answers_its_satisfiability_probe(self, monkeypatch):
        # A true subsumption, told or run, leaves c ⊓ ¬d unsatisfiable in
        # the session's satisfiability memo.
        rng = random.Random(43)
        atoms = [Atomic(iri(n)) for n in "ABC"]
        roles = [Role(iri("r")), Role(iri("s"))]
        subsumptions = []
        for _ in range(60):
            r = Reasoner(random_kb(rng))
            for _ in range(6):
                c, d = (_random_simple_concept(rng, atoms, roles, 2) for _ in range(2))
                if r.entails_subsumption(c, d):
                    subsumptions.append((r, c, d))

        _forbid(monkeypatch, "run")
        for r, c, d in subsumptions:
            assert not r.is_satisfiable(And((c, Not(d)))).satisfiable
        assert len(subsumptions) > 40

    def test_a_nominal_subsumption_is_an_instance_check(self):
        rng = random.Random(47)
        atoms = [Atomic(iri(n)) for n in "ABC"]
        roles = [Role(iri("r")), Role(iri("s"))]
        answers = []
        for k in range(60):
            kb = random_kb(rng)
            r = Reasoner(kb)
            if k % 2:
                r.is_consistent()
            for a in map(iri, ["o1", "o2", "o3", "zed"]):
                for d in atoms + [_random_simple_concept(rng, atoms, roles, 2)]:
                    answer = r.entails_subsumption(Nominal(a), d)
                    assert answer == Reasoner(kb).entails_instance(a, d)
                    assert answer == (not Reasoner(kb).is_satisfiable(
                        And((Nominal(a), Not(d)))).satisfiable)
                    answers.append(answer)
        assert answers.count(True) > 100 and answers.count(False) > 100

    def test_asserted_edges_are_entailed_both_ways(self):
        rng = random.Random(59)
        edges = 0
        for _ in range(100):
            kb = random_kb(rng)
            for a in kb.abox:
                if isinstance(a, RoleAssertion):
                    for s, role, o in ((a.subject, a.role, a.obj),
                                       (a.obj, a.role.inverted(), a.subject)):
                        assert Tableau(kb).run(Not(Exists(role, Nominal(o))), s) is None
                        edges += 1
        assert edges > 50

    def test_role_answers_match_a_run_for_every_pair(self):
        # ``point`` never enumerates, so it holds no model to prune with and
        # every one of its answers comes from the asserted edges or a run.
        rng = random.Random(61)
        roles = [Role(iri("r")), Role(iri("s")), Role(iri("r"), inverse=True)]
        entailed = 0
        for _ in range(60):
            kb = random_kb(rng)
            r, point = Reasoner(kb), Reasoner(kb)
            pairs = [(a, b) for a in r.objects for b in r.objects]
            for role in roles:
                expected = {(a, b) for a, b in pairs
                            if Tableau(kb).run(Not(Exists(role, Nominal(b))), a) is None}
                assert r.named_role_pairs(role) == expected
                assert {(a, b) for a, b in pairs
                        if point.entails_role(a, role, b)} == expected
                entailed += len(expected)
        assert entailed > 40

    def test_every_shape_of_role_pattern_matches_point_checks(self):
        # Candidates come from the session model's edges; ``point`` never
        # enumerates, so its answers come from the asserted edges or a run.
        # ``:zed`` is outside every KB, so the model does not interpret it;
        # the next-to-last KB merges :o1 and :o2 onto one element and makes
        # every element, :zed too, an :s-neighbour of :o3, and the last is
        # inconsistent, so there is no model at all.
        rng = random.Random(67)
        roles = [Role(iri("r")), Role(iri("s")), Role(iri("r"), inverse=True)]
        kbs = [random_kb(rng) for _ in range(150)]
        kbs.append(parse_kb(f"prefix : <{EX}>\n:A SubClassOf {{:o1}}\n:o2 Type :A\n"
                            "Thing SubClassOf :s some {:o3}\n"
                            ":o3 Fact :r :o2\n:o1 Fact :r :o3\n:o2 Fact :s :o2\n"))
        kbs.append(kbs[0].extended(ConceptAssertion(iri("o1"), BOTTOM)))
        x = Var("x")
        entailed = loops = outside = 0
        for kb in kbs:
            r, point = Reasoner(kb), Reasoner(kb)
            assert r.is_consistent() == (kb is not kbs[-1])
            objects = r.objects
            ends = objects + (iri("zed"),)
            for role in roles:
                accepted = {(a, b) for a in ends for b in ends
                            if point.entails_role(a, role, b)}
                for a in ends:
                    assert r.named_role_pairs(role, a, None) == \
                        {(a, b) for b in objects if (a, b) in accepted}
                    assert r.named_role_pairs(role, None, a) == \
                        {(b, a) for b in objects if (b, a) in accepted}
                    for b in ends:
                        assert r.named_role_pairs(role, a, b) == {(a, b)} & accepted
                assert r.named_role_pairs(role) == \
                    {(a, b) for a, b in accepted if a in objects and b in objects}
                loop = RolePattern(x, role, x)
                answers = eval_algebraic(r, loop)
                assert answers == denotational_eval(Reasoner(kb), loop)
                assert answers == {SolutionMapping.of({x: a}) for a in objects
                                   if (a, a) in accepted}
                entailed += len(accepted)
                loops += len(answers)
                if r.is_consistent():
                    outside += sum(iri("zed") in pair for pair in accepted)
        assert entailed > 120 and loops > 30 and outside > 0

    def test_told_subsumers_are_subsumers(self):
        rng = random.Random(53)
        atoms = [Atomic(iri(n)) for n in "ABC"]
        told = 0
        for _ in range(300):
            kb = random_kb(rng)
            tableau = Tableau(kb)
            for c in atoms:
                for d in tableau.told_subsumers(c) - {c}:
                    told += 1
                    assert not Reasoner(kb).is_satisfiable(And((c, Not(d)))).satisfiable
        assert told > 30
