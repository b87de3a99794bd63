from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from dlq.kbtext import (
    MAX_CONCEPT_DEPTH,
    ParseError,
    parse_concept,
    parse_kb,
    parse_name,
    parse_role,
    print_concept,
    print_kb,
)
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
from support import EX, concept_depth, concept_strategy, iri

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

P = {"": EX}
A, B, C = Atomic(iri("A")), Atomic(iri("B")), Atomic(iri("C"))


class TestParseConcept:
    def test_quantifier_binds_tighter_than_and(self):
        got = parse_concept(":worksFor some :Organization and :Person", P)
        explicit = parse_concept("(:worksFor some :Organization) and (:Person)", P)
        assert got == explicit
        assert got == And((Exists(Role(iri("worksFor")), Atomic(iri("Organization"))),
                          Atomic(iri("Person"))))

    def test_nominal(self):
        assert parse_concept("{:alice}", P) == Nominal(iri("alice"))

    def test_inverse_role_quantification(self):
        got = parse_concept("inv(:headOf) some :Chair", P)
        assert got == Exists(Role(iri("headOf"), inverse=True), Atomic(iri("Chair")))

    def test_not_binds_tighter_than_quantifier_filler(self):
        got = parse_concept(":r some not :A", P)
        assert got == Exists(Role(iri("r")), Not(A))

    def test_or_is_loosest(self):
        got = parse_concept(":A and :B or :C", P)
        assert got == Or((And((A, B)), C))

    def test_right_nested_quantifiers(self):
        got = parse_concept(":r some :s only :A", P)
        assert got == Exists(Role(iri("r")), Forall(Role(iri("s")), A))

    def test_full_iri_form(self):
        assert parse_concept(f"<{EX}A>", P) == A

    def test_unknown_prefix_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_concept(":A and foaf:B", P)
        assert err.value.column == 8
        assert "unknown prefix" in err.value.message

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_concept(":A :B", P)


@st.composite
def deep_concepts(draw):
    """Concepts 95 to 105 levels deep: a spine of unary steps and chain
    steps with a shallow sibling, read from about one token per level (a
    ``not`` chain) up to several (quantifiers, parenthesised siblings).  A
    chain step on a chain of its own kind would splice into it, so it takes
    a ``not`` instead; every step then adds one level."""
    depth = draw(st.integers(95, 105))
    steps = st.sampled_from(["not"]) if draw(st.booleans()) else \
        st.sampled_from(["not", "some", "only", "and", "or", "and-right"])
    siblings = st.sampled_from([B, TOP, Nominal(iri("o")), Or((B, C)),
                                Exists(Role(iri("s"), True), Not(C))])
    c = draw(st.sampled_from([A, TOP, BOTTOM, Nominal(iri("o"))]))
    for i in range(depth - 1):
        # No sibling is deeper than the spine under it.
        step = draw(steps if i >= 2 else st.sampled_from(["not", "some", "only"]))
        chain = Or if step == "or" else And
        if step == "not" or step in ("and", "or", "and-right") and isinstance(c, chain):
            c = Not(c)
        elif step in ("some", "only"):
            c = (Exists if step == "some" else Forall)(Role(iri("r")), c)
        else:
            sibling = draw(siblings)
            c = chain((sibling, c) if step == "and-right" else (c, sibling))
    assert concept_depth(c) == depth
    return c


MARK = Atomic(iri("mark"))


def _marks(c, level: int):
    """Copies of ``c``, whose root is at ``level``, one for each node at
    level ``MAX_CONCEPT_DEPTH + 1`` or deeper, with that node's first token
    replaced by ``:mark``."""
    if level > MAX_CONCEPT_DEPTH:
        yield _mark_first_token(c)
    if isinstance(c, Not):
        for inner in _marks(c.operand, level + 1):
            yield Not(inner)
    elif isinstance(c, (Exists, Forall)):
        for inner in _marks(c.filler, level + 1):
            yield c.__class__(c.role, inner)
    elif isinstance(c, (And, Or)):
        for i, x in enumerate(c.operands):
            for inner in _marks(x, level + 1):
                yield c.__class__(c.operands[:i] + (inner,) + c.operands[i + 1:])


def _mark_first_token(c):
    # Same class where the class decides the parentheses; a name, nominal,
    # ``Thing``, ``Nothing`` or ``not`` is never parenthesised.
    if isinstance(c, (And, Or)):
        return c.__class__((_mark_first_token(c.operands[0]),) + c.operands[1:])
    if isinstance(c, (Exists, Forall)):
        return c.__class__(Role(MARK.iri), c.filler)
    return MARK


class TestDepthLimit:
    @settings(max_examples=150, deadline=None)
    @given(deep_concepts())
    def test_refused_past_the_limit_at_a_token_there(self, c):
        """Refused at the first token of a node at level 101 or deeper.  The
        reader reads a chain's first operand before the ``and``/``or`` that
        moves it a level down, so the token may open a deeper level than
        101; it is never before the first token at level 101."""
        text = print_concept(c, P)
        if concept_depth(c) > MAX_CONCEPT_DEPTH:
            with pytest.raises(ParseError) as err:
                parse_concept(text, P)
            columns = {print_concept(m, P).index(":mark") + 1 for m in _marks(c, 1)}
            assert err.value.line == 1 and err.value.column in columns
            assert err.value.message == "concept nested more than 100 levels deep"
        else:
            assert parse_concept(text, P) == c

    def test_a_parenthesised_chain_in_a_chain_of_its_kind_adds_no_level(self):
        for nots in (98, 99):
            inner = "not " * nots + ":C"
            for text in (f":A and (:B and {inner})", f"(:A or ({inner} or :B)) or :C"):
                if nots == 98:
                    assert concept_depth(parse_concept(text, P)) == 100
                else:
                    with pytest.raises(ParseError) as err:
                        parse_concept(text, P)
                    assert err.value.column == text.index(":C") + 1

    def test_a_chain_moves_its_first_operand_down(self):
        # Read before its ``and``/``or``, a first operand moves one level
        # down when the chain shows, or two when it is a parenthesised
        # chain that no longer splices into the chain around it.
        for nots, shape in ((99, "{} and :B"), (98, "({} or :D) and :B"),
                            (97, ":A and (({} and :B) or :D)")):
            for n in (nots - 1, nots):
                text = shape.format("not " * n + ":C")
                if n < nots:
                    assert concept_depth(parse_concept(text, P)) == 100
                else:
                    with pytest.raises(ParseError) as err:
                        parse_concept(text, P)
                    assert err.value.column == text.index(":C") + 1

    def test_a_long_shallow_concept_is_read(self):
        c = A
        for _ in range(8):
            c = And((Or((c, B)), Or((C, c))))
        text = print_concept(c, P)
        assert concept_depth(c) == 17 and len(text.split()) > 1000
        assert parse_concept(text, P) == c


def _iris(kb: KnowledgeBase) -> list:
    """Every Iri object a knowledge base holds, repeats included."""
    out = []
    stack = [c for g in kb.gcis() for c in (g.sub, g.sup)]
    for assertion in kb.abox:
        if isinstance(assertion, ConceptAssertion):
            out.append(assertion.obj)
            stack.append(assertion.concept)
        else:
            out += [assertion.subject, assertion.role.iri, assertion.obj]
    while stack:
        c = stack.pop()
        if isinstance(c, Atomic):
            out.append(c.iri)
        elif isinstance(c, Nominal):
            out.append(c.obj)
        elif isinstance(c, (Exists, Forall)):
            out.append(c.role.iri)
            stack.append(c.filler)
        elif isinstance(c, Not):
            stack.append(c.operand)
        elif isinstance(c, (And, Or)):
            stack += c.operands
    return out


class TestNamesResolveOnce:
    @pytest.mark.parametrize("name", ["university.kb", "university_extended.kb"])
    def test_one_iri_object_per_distinct_name(self, name):
        iris = _iris(parse_kb((FIXTURES / name).read_text()))
        assert len(iris) > len(set(iris))
        assert len({id(i) for i in iris}) == len(set(iris))

    def test_an_iri_ref_and_a_prefixed_name_give_equal_iris(self):
        kb = parse_kb(f"prefix : <{EX}>\n:a Fact :r <{EX}a>\n<{EX}a> Type :A\n")
        assert kb.abox == (RoleAssertion(iri("a"), Role(iri("r")), iri("a")),
                           ConceptAssertion(iri("a"), A))

    def test_an_unknown_prefix_used_twice_reports_the_first_use(self):
        with pytest.raises(ParseError) as err:
            parse_kb(f"prefix : <{EX}>\n:A SubClassOf :B and foo:C\n"
                     f"foo:C SubClassOf :A\n")
        assert (err.value.line, err.value.column) == (2, 22)
        assert err.value.message == "unknown prefix 'foo:'"

    def test_a_name_before_its_prefix_is_an_error_at_that_name(self):
        with pytest.raises(ParseError) as err:
            parse_kb(f"prefix : <{EX}>\n:A SubClassOf ex:B\nprefix ex: <{EX}>\n")
        assert (err.value.line, err.value.column) == (2, 15)


class TestParseRole:
    def test_plain_and_inverse(self):
        assert parse_role(":r", P) == Role(iri("r"))
        assert parse_role("inv(:r)", P) == Role(iri("r"), inverse=True)


class TestParseName:
    def test_prefixed_name_and_full_iri(self):
        assert parse_name(":alice", P) == iri("alice")
        assert parse_name(f"  <{EX}alice> ", P) == iri("alice")

    @pytest.mark.parametrize("text, column, message", [
        ("", 1, "expected an IRI or prefixed name, found end of input"),
        ("Thing", 1, "expected an IRI or prefixed name, found 'Thing'"),
        ("{:alice}", 1, "expected an IRI or prefixed name, found '{'"),
        ("foo:x", 1, "unknown prefix 'foo:'"),
        (":alice :bob", 8, "trailing input after object name, found ':bob'"),
        (":alice and :bob", 8, "trailing input after object name, found 'and'"),
    ])
    def test_anything_else_is_an_error_at_its_token(self, text, column, message):
        with pytest.raises(ParseError) as err:
            parse_name(text, P)
        assert (err.value.line, err.value.column, err.value.message) == (1, column, message)


class TestParseKb:
    def test_disjointness_line(self):
        kb = parse_kb(f"prefix : <{EX}>\n:Person and :Organization SubClassOf Nothing\n")
        assert kb.tbox == (SubClass(
            And((Atomic(iri("Person")), Atomic(iri("Organization")))), BOTTOM),)

    def test_concept_assertion(self):
        kb = parse_kb(f"prefix : <{EX}>\n:alice Type :Chair\n")
        assert kb.abox == (ConceptAssertion(iri("alice"), Atomic(iri("Chair"))),)

    def test_role_assertion(self):
        kb = parse_kb(f"prefix : <{EX}>\n:bob Fact :worksFor :softlang\n")
        assert kb.abox == (RoleAssertion(iri("bob"), Role(iri("worksFor")),
                                         iri("softlang")),)

    def test_equivalence(self):
        kb = parse_kb(f"prefix : <{EX}>\n:A EquivalentTo :B\n")
        assert kb.tbox == (Equivalent(A, B),)

    def test_truncated_statement_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_kb(f"prefix : <{EX}>\n:x SubClassOf")
        assert err.value.line == 2
        assert err.value.column == 14

    def test_duplicate_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_kb(f"prefix : <{EX}>\nprefix : <{EX}>\n")

    def test_statement_must_end_at_newline(self):
        with pytest.raises(ParseError):
            parse_kb(f"prefix : <{EX}>\n:A SubClassOf :B :C\n")

    def test_university_fixture_counts(self, university_kb):
        assert len(university_kb.tbox) == 11
        assert len(university_kb.abox) == 3


class TestPrintConcept:
    def test_top(self):
        assert print_concept(TOP) == "Thing"

    def test_parens_forced_by_precedence(self):
        assert print_concept(And((A, Or((B, C)))), P) == ":A and (:B or :C)"

    def test_inverse_existential_over_top(self):
        c = Exists(Role(iri("worksFor"), inverse=True), TOP)
        assert print_concept(c, P) == "inv(:worksFor) some Thing"

    def test_without_prefixes_uses_iri_refs(self):
        assert print_concept(A) == f"<{EX}A>"

    @settings(max_examples=150, deadline=None)
    @given(concept_strategy(with_nominals=True))
    def test_round_trip(self, c):
        assert parse_concept(print_concept(c, P), P) == c

    @settings(max_examples=50, deadline=None)
    @given(concept_strategy())
    def test_round_trip_without_prefix_table(self, c):
        assert parse_concept(print_concept(c), {}) == c


class TestPrintKb:
    def test_round_trip_university(self, university_kb):
        reparsed = parse_kb(print_kb(university_kb))
        assert reparsed.tbox == university_kb.tbox
        assert reparsed.abox == university_kb.abox

    def test_round_trip_hand_built(self):
        kb = KnowledgeBase(
            tbox=(SubClass(Exists(Role(iri("r"), True), Nominal(iri("o"))), TOP),
                  Equivalent(A, Or((B, Not(C))))),
            abox=(ConceptAssertion(iri("o"), Forall(Role(iri("r")), A)),
                  RoleAssertion(iri("o"), Role(iri("r")), iri("o"))),
            prefixes=P,
        )
        reparsed = parse_kb(print_kb(kb))
        assert reparsed.tbox == kb.tbox
        assert reparsed.abox == kb.abox

    def test_round_trip_random_kbs(self):
        import random
        from support import random_kb
        rng = random.Random(73)
        for _ in range(60):
            kb = random_kb(rng)
            reparsed = parse_kb(print_kb(kb))
            assert reparsed.tbox == kb.tbox
            assert reparsed.abox == kb.abox


class TestErrorPositions:
    BROKEN = [
        ":A SubClassOf :B :C",
        ":A and",
        "prefix",
        "prefix foo <http://x#>",
        ":x SubClassOf",
        "{:a",
        "inv(:r",
        ":a Fact :r",
        "not",
    ]

    # An operand that more input follows is not a chain: each is the error
    # at the token after the operand.
    @pytest.mark.parametrize("text, column, message", [
        ("not :B :C and :D", 8, "trailing input after concept, found ':C'"),
        ("(:A :B or :C)", 5, "expected ')', found ':B'"),
        (":r some :B :C and :D", 12, "trailing input after concept, found ':C'"),
        ("(not :B :C or :D)", 9, "expected ')', found ':C'"),
    ])
    def test_an_operand_with_trailing_input_is_a_syntax_error(self, text, column, message):
        with pytest.raises(ParseError) as err:
            parse_concept(text, P)
        assert (err.value.line, err.value.column, err.value.message) == (1, column, message)

    def test_a_kb_concept_with_trailing_input_ends_the_statement(self):
        with pytest.raises(ParseError) as err:
            parse_kb(f"prefix : <{EX}>\n:A SubClassOf not :B :C and :D\n")
        assert (err.value.line, err.value.column) == (2, 22)
        assert err.value.message == "expected end of statement, found ':C'"

    @pytest.mark.parametrize("text", BROKEN)
    def test_position_points_inside_the_input(self, text):
        source = f"prefix : <{EX}>\n{text}\n"
        with pytest.raises(ParseError) as err:
            parse_kb(source)
        lines = source.split("\n")
        assert 1 <= err.value.line <= len(lines)
        assert 1 <= err.value.column <= len(lines[err.value.line - 1]) + 1
