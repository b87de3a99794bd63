from __future__ import annotations

import random

from dlq.inference import (
    SpliceMismatch,
    Unsatisfiable,
    UntypedSelectVar,
    Valid,
    VariableTyping,
    VarRef,
    combine,
    infer_pattern,
    infer_query,
    resolve_references,
    type_role_projection,
    validate_query,
)
from dlq.model import And, Atomic, Concept, Exists, Forall, Nominal, Not, Or, Role, TOP
from dlq.query import (
    ConceptPattern,
    Join,
    Minus,
    Optional,
    RolePattern,
    Splice,
    Var,
    parse_query,
)
from dlq.reasoner import Reasoner
from support import iri, random_kb, random_query

X, Y = Var("x"), Var("y")
A, B = Atomic(iri("A")), Atomic(iri("B"))
R = Role(iri("r"))


def has_var_refs(c) -> bool:
    if isinstance(c, VarRef):
        return True
    for attr in ("left", "right", "operand", "filler"):
        child = getattr(c, attr, None)
        if child is not None and has_var_refs(child):
            return True
    return False


class TestInferPattern:
    def test_concept_pattern(self):
        phi = infer_pattern(ConceptPattern(X, A))
        assert phi == {X: A}

    def test_role_pattern_between_variables(self):
        phi = infer_pattern(RolePattern(Y, R, X))
        assert phi == {Y: VarRef(R, X), X: VarRef(R.inverted(), Y)}

    def test_role_pattern_against_constant(self):
        phi = infer_pattern(RolePattern(X, R, iri("o")))
        assert phi == {X: Exists(R, Nominal(iri("o")))}

    def test_role_pattern_from_constant(self):
        phi = infer_pattern(RolePattern(iri("o"), R, X))
        assert phi == {X: Exists(R.inverted(), Nominal(iri("o")))}


class TestCombine:
    def test_conjunction_on_shared_variable(self):
        left = infer_pattern(RolePattern(Y, R, X))
        right = infer_pattern(ConceptPattern(X, A))
        phi = combine(left, right, And)
        assert phi == {
            Y: VarRef(R, X),
            X: And(VarRef(R.inverted(), Y), A),
        }

    def test_disjoint_domains_union_bindings(self):
        phi = combine(VariableTyping({X: A}), VariableTyping({Y: B}), Or)
        assert phi == {X: A, Y: B}

    def test_no_idempotence_normalisation(self):
        phi = combine(VariableTyping({X: A}), VariableTyping({X: A}), And)
        assert phi == {X: And(A, A)}


class TestInferQuery:
    def test_minus_keeps_left_typing_verbatim(self):
        q = Minus(ConceptPattern(X, A),
                  ConceptPattern(X, B))
        assert infer_query(q) == {X: A}

    def test_optional_weakens_with_join(self):
        q = Optional(ConceptPattern(X, A),
                     ConceptPattern(X, B))
        assert infer_query(q) == {X: Or(A, And(A, B))}


class TestResolveReferences:
    def test_worked_example(self, university_kb, uc):
        sq = parse_query(
            "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }",
            university_kb.prefixes)
        phi = resolve_references(infer_query(sq.body))
        assert phi[X] == uc("inv(:worksFor) some (:worksFor some Thing) and :ResearchGroup")
        assert phi[Y] == uc(":worksFor some (inv(:worksFor) some Thing and :ResearchGroup)")

    def test_worked_example_semantically(self, university, uc):
        sq = parse_query(
            "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }",
            university.kb.prefixes)
        phi = resolve_references(infer_query(sq.body))
        for var, expected in (
            (X, uc("inv(:worksFor) some (:worksFor some Thing) and :ResearchGroup")),
            (Y, uc(":worksFor some (inv(:worksFor) some Thing and :ResearchGroup)")),
        ):
            assert university.entails_subsumption(phi[var], expected)
            assert university.entails_subsumption(expected, phi[var])

    def test_self_reference_widens_to_top(self):
        phi = resolve_references(VariableTyping({X: VarRef(R, X)}))
        assert phi[X] == Exists(R, TOP)

    def test_resolution_leaves_no_references(self):
        rng = random.Random(61)
        for _ in range(60):
            q = random_query(rng)
            phi = resolve_references(infer_query(q))
            for _, concept in phi.items():
                assert not has_var_refs(concept)

    def test_concepts_without_references_are_kept_as_they_are(self):
        concept = Forall(R, Not(Exists(R.inverted(), Nominal(iri("o")))))
        q = Join(ConceptPattern(X, concept),
                 RolePattern(X, R, iri("o")))
        phi = resolve_references(infer_query(q))
        assert phi[X].left is concept

    def test_substitution_shortcuts_references(self):
        unresolved = VariableTyping({X: VarRef(R, Y), Y: VarRef(R.inverted(), X)})
        phi = resolve_references(unresolved, {Y: B})
        assert phi == {X: Exists(R, B), Y: B}


class TestValidate:
    QUERY = "SELECT ?x WHERE { $t :worksFor ?x . ?x a :ResearchGroup }"

    def test_nonstrict_accepts_employee(self, university, uc):
        sq = parse_query(self.QUERY, university.kb.prefixes)
        outcome = validate_query(university, sq, {"t": uc(":Employee")}, "nonstrict")
        assert isinstance(outcome, Valid)

    def test_nonstrict_rejects_organization(self, university, uc):
        sq = parse_query(self.QUERY, university.kb.prefixes)
        outcome = validate_query(university, sq, {"t": uc(":Organization")}, "nonstrict")
        assert isinstance(outcome, SpliceMismatch)
        assert outcome.splice == "t"

    def test_strict_rejects_employee(self, university, uc):
        sq = parse_query(self.QUERY, university.kb.prefixes)
        outcome = validate_query(university, sq, {"t": uc(":Employee")}, "strict")
        assert isinstance(outcome, SpliceMismatch)

    def test_strict_accepts_research_assistant_and_narrows(self, university, uc):
        sq = parse_query(self.QUERY, university.kb.prefixes)
        outcome = validate_query(university, sq,
                                 {"t": uc(":ResearchAssistant")}, "strict")
        assert isinstance(outcome, Valid)
        assert outcome.variable_concepts[X] == \
            uc("inv(:worksFor) some :ResearchAssistant and :ResearchGroup")

    def test_unsatisfiable_variable_detected(self, university):
        sq = parse_query("SELECT ?x WHERE { ?x a [:Person and :Organization] }",
                         university.kb.prefixes)
        outcome = validate_query(university, sq, {}, "nonstrict")
        assert isinstance(outcome, Unsatisfiable)
        assert outcome.var == X

    def test_unsatisfiable_splice_type_detected(self, university, uc):
        sq = parse_query(self.QUERY, university.kb.prefixes)
        outcome = validate_query(
            university, sq, {"t": uc(":Person and :Organization")}, "nonstrict")
        assert isinstance(outcome, Unsatisfiable)

    def test_select_var_under_minus_only_is_an_error(self, university):
        sq = parse_query("SELECT ?x ?y WHERE { ?x a :Person MINUS { ?y a :Chair } }",
                         university.kb.prefixes)
        outcome = validate_query(university, sq, {}, "nonstrict")
        assert outcome == UntypedSelectVar(Y)

    def test_strict_success_implies_nonstrict_success(self, university, uc):
        sq = parse_query(self.QUERY, university.kb.prefixes)
        for concept in (":ResearchAssistant", ":Chair and :Person", ":Professor"):
            strict = validate_query(university, sq, {"t": uc(concept)}, "strict")
            if isinstance(strict, Valid):
                nonstrict = validate_query(university, sq, {"t": uc(concept)},
                                           "nonstrict")
                assert isinstance(nonstrict, Valid)

    def test_splice_against_own_variable_name_collision(self, university, uc):
        # A query using both ?t and $t: two keys, each with its own concept.
        sq = parse_query("SELECT ?t WHERE { ?t a :Person . $t :worksFor ?t }",
                         university.kb.prefixes)
        outcome = validate_query(university, sq, {"t": uc(":Employee")}, "nonstrict")
        assert isinstance(outcome, Valid)
        assert outcome.variable_concepts == {
            Var("t"): uc(":Person and inv(:worksFor) some :worksFor some Thing"),
            Splice("t"): uc(":worksFor some (:Person and inv(:worksFor) some Thing)"),
        }


class TestSpliceTyping:
    def test_a_splice_is_typed_like_a_variable(self):
        # Turning some variable ends into splices (so ?x and $x may meet)
        # types each splice as a fresh variable in its place would be.
        rng = random.Random(79)

        def ends(q, f):
            if isinstance(q, ConceptPattern):
                return ConceptPattern(f(q.elem), q.concept)
            if isinstance(q, RolePattern):
                return RolePattern(f(q.subject), q.role, f(q.obj))
            return type(q)(ends(q.left, f), ends(q.right, f))

        def fresh(s: Splice) -> Var:
            return Var(s.name + "'")

        spliced_queries = 0
        for _ in range(80):
            body = ends(random_query(rng), lambda e: Splice(e.name)
                        if isinstance(e, Var) and rng.random() < 0.4 else e)
            renamed = ends(body, lambda e: fresh(e) if isinstance(e, Splice) else e)
            typing = resolve_references(infer_query(body))
            spliced_queries += any(isinstance(k, Splice) for k in typing)
            assert {fresh(k) if isinstance(k, Splice) else k: c
                    for k, c in typing.items()} == resolve_references(infer_query(renamed))
        assert spliced_queries > 40


class TestRoleProjection:
    def test_chair_head_of(self, university, uc, uobj):
        result = type_role_projection(university, uc(":Chair"),
                                      Role(uobj("headOf")))
        assert isinstance(result, Concept)
        assert result == uc("inv(:headOf) some :Chair")
        assert university.entails_subsumption(result, uc(":Department"))

    def test_organization_works_for_rejected(self, university, uc, uobj):
        result = type_role_projection(university, uc(":Organization"),
                                      Role(uobj("worksFor")))
        assert isinstance(result, SpliceMismatch)

    def test_research_assistant_works_for(self, university, uc, uobj):
        result = type_role_projection(university, uc(":ResearchAssistant"),
                                      Role(uobj("worksFor")))
        assert result == uc("inv(:worksFor) some :ResearchAssistant")


class TestMinusOverApproximation:
    def test_phi_of_minus_equals_phi_of_left(self):
        rng = random.Random(67)
        for _ in range(40):
            left, right = random_query(rng), random_query(rng)
            assert infer_query(Minus(left, right)) == infer_query(left)


class TestSoundnessBridge:
    def test_bindings_inhabit_their_inferred_concepts(self):
        from dlq.algebra import eval_algebraic
        rng = random.Random(71)
        checked = 0
        for _ in range(60):
            kb = random_kb(rng)
            q = random_query(rng)
            r = Reasoner(kb)
            phi = resolve_references(infer_query(q))
            for mu in eval_algebraic(r, q):
                for var, obj in mu.bindings:
                    if var in phi:
                        checked += 1
                        assert r.entails_instance(obj, phi[var])
        assert checked > 20

    def test_known_limit_shared_variable_under_union(self):
        """With a join sharing a variable that one side may leave unbound,
        the intersected inferred concept over-constrains: the evaluators
        still agree, but the binding need not inhabit the intersection.
        The acceptance generator avoids this shape; pinned here as a
        documented limit of the inference rules."""
        from dlq.algebra import eval_algebraic
        from dlq.model import ConceptAssertion, KnowledgeBase
        from dlq.interpretation import denotational_eval
        from dlq.query import SolutionMapping, Union
        C, D, E = Atomic(iri("A")), Atomic(iri("B")), Atomic(iri("C"))
        a, c = iri("o1"), iri("o2")
        kb = KnowledgeBase(abox=(ConceptAssertion(a, C), ConceptAssertion(c, D)))
        q = Join(ConceptPattern(X, C),
                 Union(ConceptPattern(Var("z"), D),
                       ConceptPattern(X, E)))
        r = Reasoner(kb)
        answers = eval_algebraic(r, q)
        assert answers == denotational_eval(r, q)
        offending = SolutionMapping.of({X: a, Var("z"): c})
        assert offending in answers
        phi = resolve_references(infer_query(q))
        assert phi[X] == And(C, E)
        assert not r.entails_instance(a, phi[X])
