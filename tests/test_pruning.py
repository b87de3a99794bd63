"""Enumeration refutes candidates against one model of the knowledge base
per session.  These tests pin what that may and may not change: answers
(against an oracle session that never enumerates), the models themselves
(verified against the knowledge base), and the number of tableau runs.
"""

from __future__ import annotations

import pathlib

import pytest

from dlq.algebra import eval_algebraic, project
from dlq.interpretation import denotational_eval, verify_model
from dlq.kbtext import parse_kb
from dlq.model import (
    BOTTOM,
    TOP,
    Atomic,
    ConceptAssertion,
    KnowledgeBase,
    Nominal,
    Role,
    RoleAssertion,
    SubClass,
)
from dlq.query import SolutionMapping, Var, parse_query
from dlq.reasoner import Reasoner
from dlq.tableau import Tableau
from support import EX, generated_instances, iri

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
WORKED_EXAMPLE = "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }"
X = Var("x")


@pytest.fixture
def runs(monkeypatch):
    """The arguments of every ``Tableau.run`` call made during the test; a
    run without any is a consistency run."""
    calls: list[tuple] = []
    original = Tableau.run

    def counted(self, *args, **kwargs):
        calls.append(args + tuple(kwargs.items()))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Tableau, "run", counted)
    return calls


def test_pruned_evaluation_matches_an_oracle_session_that_never_enumerates():
    verified = inconsistent = 0
    for kb, q in generated_instances(200):
        session = Reasoner(kb)
        assert eval_algebraic(session, q) == denotational_eval(Reasoner(kb), q)
        model = session._session_model()
        if model is None:
            inconsistent += 1
        else:
            assert verify_model(model, kb)
            verified += 1
    assert verified + inconsistent == 200
    assert verified > 150 and inconsistent > 0


def test_inconsistent_kb_entails_every_candidate():
    a, b = Atomic(iri("A")), Atomic(iri("B"))
    r = Role(iri("r"))
    kb = KnowledgeBase(
        tbox=(SubClass(a, BOTTOM),),
        abox=(ConceptAssertion(iri("o1"), a), ConceptAssertion(iri("o2"), b),
              RoleAssertion(iri("o1"), r, iri("o2"))),
        prefixes={"": EX})
    session = Reasoner(kb)
    assert session.named_instances(b) == {iri("o1"), iri("o2")}
    assert len(session.named_role_pairs(r)) == 4
    assert not session.is_consistent()
    sq = parse_query("SELECT ?x ?y WHERE { ?x :s ?y . ?y a :C }", kb.prefixes)
    expected = denotational_eval(Reasoner(kb), sq.body)
    assert eval_algebraic(session, sq.body) == expected
    assert len(expected) == 4


def test_names_outside_the_signature_are_never_pruned(runs):
    kb = KnowledgeBase(
        abox=(ConceptAssertion(iri("o1"), Atomic(iri("A"))),
              RoleAssertion(iri("o1"), Role(iri("r")), iri("o2"))),
        prefixes={"": EX})
    session = Reasoner(kb)
    for text, expected in [
        ("SELECT ?x WHERE { ?x :r :zed }", set()),
        ("SELECT ?x WHERE { ?x a [ :r some {:zed} ] }", set()),
        ("SELECT ?x WHERE { ?x a [ :r some {:zed} or :r only not {:zed} ] }",
         {SolutionMapping.of({X: iri("o1")}), SolutionMapping.of({X: iri("o2")})}),
    ]:
        sq = parse_query(text, kb.prefixes)
        answers = eval_algebraic(session, sq.body)
        assert answers == expected, text
        assert answers == denotational_eval(Reasoner(kb), sq.body), text
    # The session now holds a model that does not interpret :zed.
    assert session.entails_instance(iri("zed"), TOP)
    assert not session.entails_role(iri("zed"), Role(iri("r")), iri("o2"))
    before = len(runs)
    assert not session.entails_instance(iri("o1"), Nominal(iri("zed")))
    assert len(runs) == before + 1


def test_a_constant_outside_the_signature_may_name_a_known_object():
    # Thing SubClassOf {:o1}: every model has one element, so :zed is :o1.
    o1, r = iri("o1"), Role(iri("r"))
    kb = KnowledgeBase(tbox=(SubClass(TOP, Nominal(o1)),),
                       abox=(RoleAssertion(o1, r, o1),), prefixes={"": EX})
    session = Reasoner(kb)
    sq = parse_query("SELECT ?x WHERE { :zed :r ?x }", kb.prefixes)
    assert eval_algebraic(session, sq.body) == {SolutionMapping.of({X: o1})}
    assert session.entails_role(iri("zed"), r, o1)


def test_enumerating_then_checking_consistency_makes_one_consistency_run(
        runs, university_kb, uc):
    session = Reasoner(university_kb)
    assert runs == []
    session.named_instances(uc(":Person"))
    assert session.is_consistent()
    assert runs.count(()) == 1


def test_point_check_on_a_fresh_session_makes_exactly_one_run(runs, university_kb,
                                                              uc, uobj):
    session = Reasoner(university_kb)
    assert session.entails_instance(uobj("bob"), uc(":Person"))
    assert len(runs) == 1


def test_point_checks_consult_a_model_the_session_holds(runs, university_kb, uc,
                                                         uobj, urole):
    session = Reasoner(university_kb)
    session.named_instances(uc(":Chair"))
    before = len(runs)
    assert not session.entails_instance(uobj("bob"), uc(":Chair"))
    assert not session.entails_role(uobj("alice"), urole("worksFor"), uobj("softlang"))
    assert len(runs) == before


def test_worked_example_runs_grow_with_answers_not_objects(runs, uobj):
    workers = "".join(f":worker{i} Type :ResearchAssistant\n"
                      f":worker{i} Fact :worksFor :softlang\n" for i in range(10))
    kb = parse_kb((FIXTURES / "university.kb").read_text() + workers)
    session = Reasoner(kb)
    assert len(session.objects) == 13
    sq = parse_query(WORKED_EXAMPLE, kb.prefixes)
    table = project(eval_algebraic(session, sq.body), sq.select_vars)
    assert set(table.rows) == {(uobj("softlang"), uobj(name)) for name in
                               ["bob", *(f"worker{i}" for i in range(10))]}
    assert len(runs) <= 2
