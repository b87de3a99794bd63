from __future__ import annotations

import random

import pytest

from dlq.algebra import eval_algebraic
from dlq.interpretation import denotational_eval
from dlq.kbtext import ParseError
from dlq.model import Atomic, ConceptAssertion, Role
from dlq.query import (
    ConceptPattern,
    Join,
    Minus,
    Optional,
    Pattern,
    RolePattern,
    SelectQuery,
    SolutionMapping,
    Splice,
    Union,
    Var,
    parse_query,
    query_vars,
    satisfies,
    substitute_splices,
)
from dlq.reasoner import Reasoner
from support import EX, iri, random_kb, random_query

P = {"": EX}
X, Y = Var("x"), Var("y")


def mapping(**kv) -> SolutionMapping:
    return SolutionMapping.of({Var(k): v for k, v in kv.items()})


class TestParse:
    def test_single_concept_pattern(self):
        sq = parse_query("SELECT ?x WHERE { ?x a :Person }", P)
        assert sq.select_vars == (X,)
        assert sq.body == ConceptPattern(X, Atomic(iri("Person")))

    def test_two_patterns_fold_into_join(self):
        sq = parse_query(
            "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }", P)
        assert sq.body == Join((
            RolePattern(Y, Role(iri("worksFor")), X),
            ConceptPattern(X, Atomic(iri("ResearchGroup"))),
        ))

    def test_unclosed_group_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x WHERE { ?x a :Person", P)

    def test_select_var_must_occur_in_body(self):
        with pytest.raises(ParseError) as err:
            parse_query("SELECT ?z WHERE { ?x a :Person }", P)
        assert "?z" in err.value.message

    def test_duplicate_select_var_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x ?x WHERE { ?x a :Person }", P)

    def test_union_element(self):
        sq = parse_query("SELECT ?x WHERE { { ?x a :A } UNION { ?x a :B } }", P)
        assert isinstance(sq.body, Union)

    def test_minus_and_optional_fold_onto_accumulator(self):
        sq = parse_query(
            "SELECT ?x WHERE { ?x a :A MINUS { ?x a :B } OPTIONAL { ?x :r ?y } }", P)
        assert isinstance(sq.body, Optional)
        assert isinstance(sq.body.left, Minus)

    def test_minus_cannot_start_a_group(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x WHERE { MINUS { ?x a :A } }", P)

    def test_bracketed_concept_expression(self):
        sq = parse_query("SELECT ?x WHERE { ?x a [:A and not :B] }", P)
        pattern = sq.body
        from dlq.model import And, Not
        assert pattern.concept == And((Atomic(iri("A")), Not(Atomic(iri("B")))))

    def test_ground_triple_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x WHERE { :a :r :b . ?x a :A }", P)

    def test_splice_positions_allowed(self):
        sq = parse_query("SELECT ?rg WHERE { ?rg :subOrganizationOf $org }", P)
        assert sq.splices == ("org",)

    def test_dot_separators_are_optional(self):
        with_dots = parse_query("SELECT ?x WHERE { ?x a :A . ?x a :B }", P)
        without = parse_query("SELECT ?x WHERE { ?x a :A ?x a :B }", P)
        assert with_dots.body == without.body


class TestUnionChains:
    CHAIN = "SELECT ?x ?y WHERE { { ?x a :A } UNION { ?x :r ?y } UNION { ?y a :B } }"
    NESTED = ["SELECT ?x ?y WHERE { { { ?x a :A } UNION { ?x :r ?y } } UNION { ?y a :B } }",
              "SELECT ?x ?y WHERE { { ?x a :A } UNION { { ?x :r ?y } UNION { ?y a :B } } }"]

    def test_a_chain_is_one_union(self):
        a, b = Atomic(iri("A")), Atomic(iri("B"))
        body = parse_query(self.CHAIN, P).body
        assert body == Union((ConceptPattern(X, a), RolePattern(X, Role(iri("r")), Y),
                              ConceptPattern(Y, b)))
        assert all(parse_query(text, P).body == body for text in self.NESTED)

    def test_a_chain_joins_the_rest_of_its_group(self):
        sq = parse_query("SELECT ?x WHERE { ?x a :C . { ?x a :A } UNION { ?x a :B } "
                         "UNION { ?x :r :o1 } . ?x a :B }", P)
        assert isinstance(sq.body, Join) and len(sq.body.parts) == 3
        assert len(sq.body.parts[1].parts) == 3

    def test_answers_match_the_nested_form_and_the_oracle(self):
        rng = random.Random(47)
        chain = parse_query(self.CHAIN, P).body
        nested = [Union((Union(chain.parts[:2]), chain.parts[2])),
                  Union((chain.parts[0], Union(chain.parts[1:])))]
        for _ in range(15):
            r = Reasoner(random_kb(rng))
            answers = eval_algebraic(r, chain)
            assert answers == denotational_eval(r, chain)
            for q in nested:
                assert q == chain and eval_algebraic(r, q) == answers

    def test_a_group_needs_union_after_it(self):
        text = "SELECT ?x WHERE { { ?x a :A } ?x a :B }"
        with pytest.raises(ParseError) as err:
            parse_query(text, P)
        assert err.value.column == text.index("?x a :B") + 1
        assert err.value.message == "expected 'UNION', found '?x'"


class TestVars:
    def test_pattern_vars(self):
        q = ConceptPattern(X, Atomic(iri("Person")))
        assert query_vars(q) == {X}

    def test_join_vars(self):
        sq = parse_query(
            "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }", P)
        assert query_vars(sq.body) == {X, Y}

    def test_minus_vars_include_right_side(self):
        q = Minus(ConceptPattern(X, Atomic(iri("A"))),
                  ConceptPattern(Y, Atomic(iri("B"))))
        assert query_vars(q) == {X, Y}


class TestSpliceTerms:
    def test_no_splices(self):
        sq = parse_query("SELECT ?x WHERE { ?x a :A }", P)
        assert sq.splices == ()

    def test_single_splice(self):
        sq = parse_query("SELECT ?rg WHERE { ?rg :subOrganizationOf $org }", P)
        assert sq.splices == ("org",)

    def test_repeated_splice_listed_once(self):
        sq = parse_query("SELECT ?x WHERE { ?x :r $t . ?x :s $t }", P)
        assert sq.splices == ("t",)

    def test_substitution_replaces_all_occurrences(self):
        sq = parse_query("SELECT ?x WHERE { ?x :r $t . ?x :s $t }", P)
        body = substitute_splices(sq.body, {"t": iri("o1")})
        assert not SelectQuery.build(sq.select_vars, body).splices


class TestDenotationalEval:
    def test_person_pattern(self, university, uobj):
        sq = parse_query("SELECT ?x WHERE { ?x a :Person }", university.kb.prefixes)
        assert denotational_eval(university, sq.body) == {
            SolutionMapping.of({X: uobj("alice")}),
            SolutionMapping.of({X: uobj("bob")}),
        }

    def test_join_example(self, university, uobj):
        sq = parse_query(
            "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }",
            university.kb.prefixes)
        assert denotational_eval(university, sq.body) == {
            SolutionMapping.of({Y: uobj("bob"), X: uobj("softlang")}),
        }

    def test_minus_example(self, university, uobj):
        sq = parse_query("SELECT ?x WHERE { ?x a :Person MINUS { ?x a :Chair } }",
                         university.kb.prefixes)
        assert denotational_eval(university, sq.body) == {
            SolutionMapping.of({X: uobj("bob")}),
        }

    def test_solution_domains_inside_query_vars(self):
        rng = random.Random(31)
        for _ in range(20):
            kb = random_kb(rng)
            q = random_query(rng)
            for mu in denotational_eval(Reasoner(kb), q):
                assert mu.domain <= query_vars(q)

    def test_pattern_solutions_are_total_on_pattern_vars(self):
        rng = random.Random(37)
        for _ in range(20):
            kb = random_kb(rng)
            q = random_query(rng)
            r = Reasoner(kb)
            if isinstance(q, Pattern):
                for mu in denotational_eval(r, q):
                    assert mu.domain == query_vars(q)

    def test_union_and_join_commute(self):
        rng = random.Random(41)
        for _ in range(12):
            kb = random_kb(rng)
            r = Reasoner(kb)
            a, b = random_query(rng), random_query(rng)
            assert denotational_eval(r, Union((a, b))) == denotational_eval(r, Union((b, a)))
            assert denotational_eval(r, Join((a, b))) == denotational_eval(r, Join((b, a)))

    def test_monotone_fragment_grows_with_assertions(self):
        rng = random.Random(43)
        grown_axiom = ConceptAssertion(iri("o1"), Atomic(iri("A")))
        for _ in range(15):
            kb = random_kb(rng)
            q = Union((
                Join((ConceptPattern(X, Atomic(iri("A"))),
                     RolePattern(X, Role(iri("r")), Y))),
                ConceptPattern(Y, Atomic(iri("B"))),
            ))
            before = denotational_eval(Reasoner(kb), q)
            after = denotational_eval(Reasoner(kb.extended(grown_axiom)), q)
            assert before <= after

    def test_unresolved_splice_is_an_error(self, university):
        # An unfilled splice is neither a variable nor a constant, in any
        # position and under every evaluator.
        t, r = Splice("t"), Role(iri("r"))
        patterns = [ConceptPattern(t, Atomic(iri("A"))), RolePattern(X, r, t),
                    RolePattern(t, r.inverted(), X), RolePattern(t, r, t)]
        evaluators = [denotational_eval, eval_algebraic,
                      lambda r, q: satisfies(r, q, mapping(x=iri("o1")))]
        for q in patterns:
            for evaluate in evaluators:
                with pytest.raises(ValueError, match=r"splice \$t during evaluation"):
                    evaluate(university, q)
