from __future__ import annotations

import pathlib

import pytest

from dlq.kbtext import ParseError
from dlq.lang import (
    BOOL,
    BoolVal,
    ConceptType,
    EvalError,
    IriVal,
    LangTypeError,
    ListType,
    ListVal,
    QueryTerm,
    TupleType,
    evaluate,
    lub,
    parse_program,
    subtype,
    typecheck,
)
from dlq.model import Atomic, Or

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
UNI = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

HEADER = f"prefix : <{UNI}>\n"


def program(source: str):
    return parse_program(HEADER + source)


@pytest.fixture(scope="module")
def ported(request):
    return parse_program((FIXTURES / "university.dlq").read_text())


class TestParseProgram:
    def test_ported_fixture_shape(self, ported):
        assert list(ported.definitions) == ["researchGroups", "supervises"]
        research_groups = ported.definitions["researchGroups"]
        assert isinstance(research_groups.body, QueryTerm)
        assert research_groups.body.query.splices == ("org",)

    def test_unclosed_query_string_reports_inner_position(self):
        with pytest.raises(ParseError) as err:
            program('def f(): List[`:Person`] = query "SELECT ?x WHERE { ?x a :Person"\n'
                    "main = f()")
        assert err.value.line == 2

    @staticmethod
    def scope_fault(source: str) -> tuple[int, int, str]:
        with pytest.raises(ParseError) as err:
            program(source)
        return err.value.line, err.value.column, err.value.message

    def test_unbound_variable_rejected(self):
        assert self.scope_fault("main = nope") == (2, 8, "unbound variable 'nope'")

    def test_unknown_definition_rejected(self):
        assert self.scope_fault("main = missing(iri(:alice))") == (
            2, 8, "unknown definition 'missing'")

    def test_splice_must_name_a_scope_variable(self):
        assert self.scope_fault(
            'def f(): List[`:Person`] = query "SELECT ?x WHERE { ?x :worksFor $org }"\n'
            "main = f()") == (2, 28, "splice $org names no variable in scope")

    def test_main_may_call_definitions_written_after_it(self):
        p = program("main = f(iri(:alice))\n"
                    "def f(p: `:Person`): `:Person` = g(p)\n"
                    "def g(p: `:Person`): `:Person` = f(p)")
        assert list(p.definitions) == ["f", "g"]

    def test_a_let_name_is_not_in_scope_in_its_own_value(self):
        assert self.scope_fault(
            "def f(p: `:Person`): `:Person` = let x = x in p\n"
            "main = f(iri(:alice))") == (2, 42, "unbound variable 'x'")

    def test_a_match_binder_is_not_in_scope_in_the_default(self):
        assert self.scope_fault(
            "def f(p: `:Person`): `:Person` =\n"
            "  match p { case q: `:Chair` => q case _ => q }\n"
            "main = f(iri(:alice))") == (3, 45, "unbound variable 'q'")

    def test_a_let_that_shadows_a_parameter_restores_it_after_its_body(self):
        pair = "def g(a: `:Person`, b: `:Person`): `:Person` = b\n"
        p = program(pair + "def f(p: `:Person`): `:Person` = g(let p = iri(:bob) in p, p)\n"
                    "main = f(iri(:alice))")
        assert [type(a).__name__ for a in p.definitions["f"].body.args] == ["Let", "Ref"]
        assert self.scope_fault(
            pair + "def f(p: `:Person`): `:Person` = g(let q = p in q, q)\n"
            "main = f(iri(:alice))") == (3, 52, "unbound variable 'q'")

    def test_match_binders_are_scoped(self):
        p = program(
            "def f(p: `:Person`): `:Person` =\n"
            "  match p { case q: `:Chair` => q case _ => p }\n"
            "main = f(iri(:alice))")
        assert "f" in p.definitions

    def test_match_with_only_a_default_case(self, university, uobj):
        p = program("def f(p: `:Person`): `:Person` = match p { case _ => p }\n"
                    "main = f(iri(:alice))")
        typecheck(university, p)
        assert evaluate(university, p) == IriVal(uobj("alice"))

    def test_main_required(self):
        with pytest.raises(ParseError) as err:
            parse_program(HEADER + "def f(): Bool = nonEmpty(nil[`:Person`])")
        assert "main" in err.value.message


class TestSubtype:
    def test_concept_subsumption(self, university, uc):
        assert subtype(university, ConceptType(uc(":ResearchAssistant")),
                       ConceptType(uc(":Employee")))

    def test_list_covariance(self, university, uc):
        assert subtype(university, ListType(ConceptType(uc(":Chair"))),
                       ListType(ConceptType(uc(":Person"))))

    def test_tuple_arity_mismatch(self, university, uc):
        a = ConceptType(uc(":Person"))
        assert not subtype(university, TupleType((a, a)), TupleType((a, a, a)))

    def test_bool_only_with_bool(self, university, uc):
        assert subtype(university, BOOL, BOOL)
        assert not subtype(university, BOOL, ConceptType(uc(":Person")))


class TestLub:
    def test_concepts_take_union(self, uc):
        got = lub(ConceptType(uc(":Professor")), ConceptType(uc(":ResearchAssistant")))
        assert got == ConceptType(Or((uc(":Professor"), uc(":ResearchAssistant"))))

    def test_identical_types_unchanged(self, uc):
        t = ListType(ConceptType(uc(":Person")))
        assert lub(t, t) == t

    def test_tuples_take_pointwise_union(self, uc):
        chair, person = ConceptType(uc(":Chair")), ConceptType(uc(":Person"))
        got = lub(TupleType((chair, person)), TupleType((person, person)))
        assert got == TupleType((ConceptType(Or((chair.concept, person.concept))), person))

    def test_tuple_arity_mismatch_names_types_with_prefixes(self, uc, university_kb):
        person = ConceptType(uc(":Person"))
        with pytest.raises(LangTypeError) as err:
            lub(TupleType((person, person)), TupleType((person, person, person)),
                (2, 8), university_kb.prefixes)
        assert (err.value.category, err.value.pos, err.value.message) == (
            "E-SUB", (2, 8), "branches have incompatible shapes: "
            "(`:Person`, `:Person`) vs (`:Person`, `:Person`, `:Person`)")

    def test_shape_mismatch_is_an_error(self, uc):
        with pytest.raises(LangTypeError) as err:
            lub(BOOL, ConceptType(uc(":Person")), (3, 7))
        assert err.value.category == "E-SUB"
        assert err.value.pos == (3, 7)
        assert "incompatible shapes" in err.value.message
        assert "Bool" in err.value.message


class TestTypecheck:
    def test_ported_program_checks(self, university, ported):
        types = typecheck(university, ported)
        research_groups = ported.definitions["researchGroups"]
        assert types[research_groups.body] is not None

    def test_supervises_reuses_research_groups(self, university, uc, ported):
        # The projection type must flow into the nested call.
        types = typecheck(university, ported)
        supervises = ported.definitions["supervises"]
        assert types[supervises.body] == ListType(ConceptType(uc(":ResearchGroup")))

    def test_person_argument_rejected(self, university):
        source = (
            "def researchGroups(org: `:Organization`): List[`:ResearchGroup`] =\n"
            '  query "SELECT ?rg WHERE { ?rg a :ResearchGroup . ?rg :subOrganizationOf $org }"\n'
            "def broken(p: `:Person`): List[`:ResearchGroup`] = researchGroups(p)\n"
            "main = broken(iri(:alice))")
        with pytest.raises(LangTypeError) as err:
            typecheck(university, program(source))
        assert err.value.category == "E-SUB"

    def test_unsatisfiable_query_variable(self, university):
        source = ("def f(): List[`:Person`] =\n"
                  '  query "SELECT ?x WHERE { ?x a [:Person and :Organization] }"\n'
                  "main = f()")
        with pytest.raises(LangTypeError) as err:
            typecheck(university, program(source))
        assert err.value.category == "E-SAT"

    def test_projection_needs_provable_role(self, university):
        source = ("def employers(org: `:Organization`): List[`Thing`] = org.`:worksFor`\n"
                  "main = employers(iri(:softlang))")
        with pytest.raises(LangTypeError) as err:
            typecheck(university, program(source))
        assert err.value.category == "E-ACCESS"

    def test_query_result_arity_two_gives_tuples(self, university, uc):
        # Only the worksFor domain axiom exists, so the second column can
        # only be declared as Thing.
        source = ("def pairs(): List[(`:Person`, `Thing`)] =\n"
                  '  query "SELECT ?p ?c WHERE { ?p :worksFor ?c }"\n'
                  "main = pairs()")
        p = program(source)
        types = typecheck(university, p)
        body_type = types[p.definitions["pairs"].body]
        assert isinstance(body_type, ListType)
        assert isinstance(body_type.elem, TupleType)

    def test_range_cannot_be_conjured(self, university):
        # Nothing in the axioms makes worksFor targets Organizations.
        source = ("def pairs(): List[(`:Person`, `:Organization`)] =\n"
                  '  query "SELECT ?p ?c WHERE { ?p :worksFor ?c }"\n'
                  "main = pairs()")
        with pytest.raises(LangTypeError) as err:
            typecheck(university, program(source))
        assert err.value.category == "E-SUB"

    def test_iri_literal_gets_nominal_type_in_full_mode(self, university, uobj):
        from dlq.model import Nominal
        p = program("main = iri(:alice)")
        types = typecheck(university, p)
        assert types[p.main] == ConceptType(Nominal(uobj("alice")))

    def test_iri_literal_estimated_top_in_tbox_only(self, university):
        from dlq.model import TOP
        p = program("main = iri(:alice)")
        types = typecheck(university, p, mode="tbox_only")
        assert types[p.main] == ConceptType(TOP)

    def test_ascription_checked_in_full_mode(self, university):
        with pytest.raises(LangTypeError) as err:
            typecheck(university, program("main = iri(:softlang) : `:Person`"))
        assert err.value.category == "E-SUB"

    def test_ascription_trusted_in_tbox_only(self, university):
        p = program("main = iri(:softlang) : `:Person`")
        typecheck(university, p, mode="tbox_only")

    def test_strict_query_in_source(self, university):
        source = (
            "def f(ra: `:ResearchAssistant`): List[`:ResearchGroup`] =\n"
            '  strictquery "SELECT ?x WHERE { $ra :worksFor ?x . ?x a :ResearchGroup }"\n'
            "main = f(iri(:alice))")
        with pytest.raises(LangTypeError) as err:
            # alice is a Chair; Chair is not provably a ResearchAssistant
            typecheck(university, program(source))
        assert err.value.category == "E-SUB"

    def test_match_takes_lub_of_branches(self, university, uc):
        source = (
            "def f(p: `:Person`): `:Person or :Organization` =\n"
            "  match p { case x: `:Chair` => x case _ => iri(:softlang) }\n"
            "main = f(iri(:alice))")
        typecheck(university, program(source))

    def test_if_condition_must_be_bool(self, university):
        source = ("def f(p: `:Person`): `:Person` = if p then p else p\n"
                  "main = f(iri(:alice))")
        with pytest.raises(LangTypeError) as err:
            typecheck(university, program(source))
        assert err.value.category == "E-SUB"

    def test_call_arity_checked(self, university):
        source = ("def f(p: `:Person`): `:Person` = p\n"
                  "main = f(iri(:alice), iri(:bob))")
        with pytest.raises(LangTypeError):
            typecheck(university, program(source))


class TestEvaluate:
    def test_supervises_alice_is_empty_on_base_kb(self, university, ported):
        typecheck(university, ported)
        assert evaluate(university, ported) == ListVal(())

    def test_supervises_alice_finds_rg1_on_extended_kb(self, extended, ported, uobj):
        typecheck(extended, ported)
        value = evaluate(extended, ported)
        assert value == ListVal((IriVal(uobj("rg1")),))

    def test_match_tries_cases_in_order(self, university, uobj):
        source = (
            "def f(p: `:Person`): `:Person` =\n"
            "  match p { case x: `:Chair` => iri(:alice) case y: `:Person` => y "
            "case _ => p }\n"
            "main = f(iri(:bob))")
        p = program(source)
        typecheck(university, p)
        # bob is not provably a Chair, but is a Person: second branch.
        assert evaluate(university, p) == IriVal(uobj("bob"))

    def test_head_of_empty_list_is_a_runtime_error(self, university):
        p = program("main = head(nil[`:Person`])")
        typecheck(university, p)
        with pytest.raises(EvalError):
            evaluate(university, p)

    def test_non_empty_on_query_results(self, university):
        source = ('def anyone(): Bool = nonEmpty(query "SELECT ?x WHERE { ?x a :Person }")\n'
                  "main = anyone()")
        p = program(source)
        typecheck(university, p)
        assert evaluate(university, p) == BoolVal(True)

    def test_projection_matches_equivalent_strict_query(self, extended, uobj):
        proj = program("def f(c: `:Chair`): List[`:Department`] = c.`:headOf`\n"
                       "main = f(iri(:alice))")
        spelled = program(
            "def f(c: `:Chair`): List[`:Department`] =\n"
            '  strictquery "SELECT ?x WHERE { $c :headOf ?x }"\n'
            "main = f(iri(:alice))")
        typecheck(extended, proj)
        typecheck(extended, spelled)
        assert evaluate(extended, proj) == evaluate(extended, spelled)

    def test_projection_over_an_inverse_role(self, university, uobj):
        proj = program("main = iri(:softlang).`inv(:worksFor)`")
        spelled = program(
            'main = strictquery "SELECT ?x WHERE { ?x :worksFor :softlang }"')
        typecheck(university, proj)
        typecheck(university, spelled)
        assert evaluate(university, proj) == ListVal((IriVal(uobj("bob")),))
        assert evaluate(university, spelled) == evaluate(university, proj)

    def test_query_lists_are_ordered_deterministically(self, extended):
        source = ('def all(): List[`Thing`] = query "SELECT ?x WHERE { ?x a [Thing] }"\n'
                  "main = all()")
        p = program(source)
        typecheck(extended, p)
        first = evaluate(extended, p)
        second = evaluate(extended, p)
        assert first == second
        values = [v.iri.value for v in first.items]
        assert values == sorted(values)

    def test_tuple_projection_and_index(self, university, uobj):
        source = (
            "def pairs(): List[(`:Person`, `Thing`)] =\n"
            '  query "SELECT ?p ?c WHERE { ?p :worksFor ?c }"\n'
            "main = head(pairs()).1")
        p = program(source)
        typecheck(university, p)
        assert evaluate(university, p) == IriVal(uobj("bob"))

    def test_let_binding(self, university, uobj):
        p = program("main = let a = iri(:alice) in a")
        typecheck(university, p)
        assert evaluate(university, p) == IriVal(uobj("alice"))


def value_conforms(reasoner, value, lang_type) -> bool:
    """Runtime values inhabit their static types (concept membership is
    checked through the reasoner)."""
    from dlq.lang import BoolType, TupleVal
    if isinstance(lang_type, ConceptType):
        return isinstance(value, IriVal) and \
            reasoner.entails_instance(value.iri, lang_type.concept)
    if isinstance(lang_type, ListType):
        return isinstance(value, ListVal) and all(
            value_conforms(reasoner, item, lang_type.elem) for item in value.items)
    if isinstance(lang_type, TupleType):
        return isinstance(value, TupleVal) and \
            len(value.items) == len(lang_type.items) and all(
                value_conforms(reasoner, item, t)
                for item, t in zip(value.items, lang_type.items))
    return isinstance(lang_type, BoolType) and isinstance(value, BoolVal)


class TestCorpusSoundness:
    def test_runnable_corpus_values_inhabit_their_types(self, university, extended):
        sources = [
            (FIXTURES / "university.dlq").read_text(),
            (FIXTURES / "errors" / "e_empty.dlq").read_text(),
        ]
        for source in sources:
            p = parse_program(source)
            for session in (university, extended):
                types = typecheck(session, p)
                value = evaluate(session, p)
                assert value_conforms(session, value, types[p.main])
