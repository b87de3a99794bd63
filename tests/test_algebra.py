from __future__ import annotations

import json
import random

import pytest

from dlq.algebra import ResultTable, eval_algebraic, project, run_select, table_to_json
from dlq.interpretation import denotational_eval
from dlq.model import Iri
from dlq.query import (
    SolutionMapping,
    Var,
    parse_query,
    query_vars,
    substitute_splices,
)
from dlq.reasoner import Reasoner
from support import iri, random_kb, random_query

X, Y = Var("x"), Var("y")


class TestEvalAlgebraic:
    def test_person_pattern(self, university, uobj):
        sq = parse_query("SELECT ?x WHERE { ?x a :Person }", university.kb.prefixes)
        assert eval_algebraic(university, sq.body) == {
            SolutionMapping.of({X: uobj("alice")}),
            SolutionMapping.of({X: uobj("bob")}),
        }

    def test_optional_with_no_named_suborganizations(self, university, uobj):
        sq = parse_query(
            "SELECT ?x WHERE { ?x a :Organization OPTIONAL { ?y :subOrganizationOf ?x } }",
            university.kb.prefixes)
        assert eval_algebraic(university, sq.body) == {
            SolutionMapping.of({X: uobj("softlang")}),
        }

    def test_unsatisfiable_concept_yields_nothing(self, university):
        sq = parse_query("SELECT ?x WHERE { ?x a [:Person and :Organization] }",
                         university.kb.prefixes)
        assert eval_algebraic(university, sq.body) == frozenset()

    def test_entailed_roles_count_not_just_asserted(self, university, uobj):
        # The inverse direction is never asserted, only entailed; inverse
        # roles are not triple surface syntax, so build the pattern directly.
        from dlq.model import Role
        from dlq.query import RolePattern
        q = RolePattern(
            uobj("softlang"),
            Role(uobj("worksFor"), inverse=True), X)
        assert eval_algebraic(university, q) == {SolutionMapping.of({X: uobj("bob")})}

    @pytest.mark.parametrize("query", [
        "SELECT ?y WHERE { $x :headOf $d . ?y :subOrganizationOf $d }",
        "SELECT ?y WHERE { $x a :Chair . ?y :subOrganizationOf $d }",
    ])
    @pytest.mark.parametrize("x, answers", [("alice", {"rg1"}), ("bob", set())])
    def test_patterns_left_without_variables_by_splicing(self, extended, uobj,
                                                         query, x, answers):
        # Splice values turn ``$x :headOf $d`` into a role pattern between two
        # IRIs and ``$x a :Chair`` into a concept pattern on an IRI.
        sq = parse_query(query, extended.kb.prefixes)
        body = substitute_splices(
            sq.body, {"x": uobj(x), "d": uobj("csdept")})
        expected = {SolutionMapping.of({Y: uobj(a)}) for a in answers}
        assert eval_algebraic(extended, body) == expected
        assert denotational_eval(extended, body) == expected
        assert run_select(extended, sq, {"x": uobj(x), "d": uobj("csdept")}) == \
            project(frozenset(expected), sq.select_vars)

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(47)
        for _ in range(40):
            kb = random_kb(rng)
            q = random_query(rng)
            r = Reasoner(kb)
            assert eval_algebraic(r, q) == denotational_eval(r, q)

    def test_deterministic_tables(self):
        rng = random.Random(53)
        for _ in range(10):
            kb = random_kb(rng)
            q = random_query(rng)
            variables = tuple(sorted(query_vars(q), key=lambda v: v.name))
            t1 = project(eval_algebraic(Reasoner(kb), q), variables)
            t2 = project(eval_algebraic(Reasoner(kb), q), variables)
            assert t1 == t2


class TestProject:
    def test_single_column(self):
        solutions = frozenset([SolutionMapping.of({X: iri("a"), Y: iri("b")})])
        table = project(solutions, (X,))
        assert table.columns == (X,)
        assert table.rows == ((iri("a"),),)

    def test_duplicates_collapse(self):
        solutions = frozenset([
            SolutionMapping.of({X: iri("a")}),
            SolutionMapping.of({X: iri("a"), Y: iri("b")}),
        ])
        assert project(solutions, (X,)).rows == ((iri("a"),),)

    def test_join_example_row(self, university, uobj):
        sq = parse_query(
            "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }",
            university.kb.prefixes)
        table = project(eval_algebraic(university, sq.body), (Y, X))
        assert table.rows == ((uobj("bob"), uobj("softlang")),)

    def test_absent_cells_sort_first(self):
        solutions = frozenset([
            SolutionMapping.of({X: iri("a"), Y: iri("b")}),
            SolutionMapping.of({X: iri("a")}),
        ])
        table = project(solutions, (Y, X))
        assert table.rows == ((None, iri("a")), (iri("b"), iri("a")))

    def test_rows_sorted_by_cell_text(self):
        solutions = frozenset([
            SolutionMapping.of({X: iri("b")}),
            SolutionMapping.of({X: iri("a")}),
        ])
        assert project(solutions, (X,)).rows == ((iri("a"),), (iri("b"),))


class TestJson:
    def test_shape_and_unbound_omission(self):
        table = ResultTable((X, Y), ((iri("a"), None), (iri("a"), iri("b"))))
        payload = json.loads(table_to_json(table))
        assert payload == {
            "vars": ["x", "y"],
            "solutions": [{"x": iri("a").value},
                          {"x": iri("a").value, "y": iri("b").value}],
        }
