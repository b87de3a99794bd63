from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import dlq
from dlq._record import FrozenInstanceError, record
from dlq.inference import Valid
from dlq.lang.syntax import BOOL, ConceptType, IriLit, IriVal, Ref
from dlq.lexing import ParseError, Token
from dlq.model import (
    TOP,
    And,
    Atomic,
    Exists,
    Interpretation,
    Iri,
    KnowledgeBase,
    Nominal,
    Or,
    Role,
    RoleAssertion,
)
from dlq.query import ConceptPattern, Join, SelectQuery, SolutionMapping, Var
from dlq.reasoner import SatResult

A = Atomic(Iri("http://x/A"))
R = Role(Iri("http://x/r"))
OBJ = Iri("http://x/o")


def test_cli_import_loads_every_layer_but_not_dataclasses():
    src = pathlib.Path(dlq.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import json, sys, dlq.cli; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('dlq') or m in ('dataclasses', 'inspect'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert not loaded & {"dataclasses", "inspect"}
    assert "dlq.interpretation" not in loaded
    assert {"dlq.query", "dlq.algebra", "dlq.inference", "dlq.lang.parser",
            "dlq.lang.typecheck", "dlq.lang.interp"} <= loaded


class TestFrozenSlots:
    def test_equality_hash_and_repr(self):
        assert Role(OBJ) == Role(OBJ, False)
        assert Role(OBJ) != Role(OBJ, True)
        assert hash(Role(OBJ, True)) == hash((OBJ, True))
        assert repr(Role(OBJ)) == "Role(iri=Iri(value='http://x/o'), inverse=False)"

    def test_assignment_and_deletion_raise(self):
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'inverse'"):
            R.inverse = True
        with pytest.raises(AttributeError):
            del R.iri
        assert not hasattr(R, "__dict__")
        assert Role.__slots__ == ("iri", "inverse", "_hash")

    def test_post_init_swaps_an_inverse_role_assertion(self):
        a, b = Iri("http://x/a"), Iri("http://x/b")
        assert RoleAssertion(a, Role(OBJ, True), b) == RoleAssertion(b, Role(OBJ), a)
        with pytest.raises(ValueError):
            Iri("")


X = Var("x")
PATTERN = ConceptPattern(X, A)


@pytest.mark.parametrize("make, values", [
    (lambda: Iri("http://x/o"), ("http://x/o",)),
    (lambda: Role(OBJ, True), (OBJ, True)),
    (lambda: Exists(R, Nominal(OBJ)), (R, Nominal(OBJ))),
    (lambda: Join(PATTERN, PATTERN), (PATTERN, PATTERN)),
    (lambda: ConceptPattern(X, A), (X, A)),
    (lambda: SolutionMapping(((X, OBJ),)), (((X, OBJ),),)),
], ids=["Iri", "Role", "Exists", "Join", "ConceptPattern", "SolutionMapping"])
def test_a_value_record_stores_its_field_tuple_hash_on_first_use(make, values):
    x = make()
    assert x._hash is None
    assert hash(x) == hash(values) == x._hash
    assert x == make()
    object.__setattr__(x, "_hash", 7)
    assert hash(x) == 7  # later calls read the stored value


def test_no_record_instance_has_a_dict_except_a_term():
    records = [
        Exists(R, A), TOP, Join(PATTERN, PATTERN), PATTERN,
        SelectQuery.build((X,), PATTERN), KnowledgeBase(),
        Interpretation(frozenset(), {}, {}, {}), SatResult(True),
        Valid({}, {}), ConceptType(A), BOOL, IriVal(OBJ),
        Token("WORD", "and", 1, 4),
    ]
    for value in records:
        assert not hasattr(value, "__dict__"), value
    assert hasattr(Ref("x"), "__dict__")


class TestConceptNode:
    def test_equality_is_not_implemented_across_classes(self):
        assert And(A, A).__eq__(Or(A, A)) is NotImplemented
        assert And(A, A) != Or(A, A)
        assert repr(And(A, A)) == f"And(left={A!r}, right={A!r})"

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            A.iri = OBJ


class TestIdentityRecords:
    def test_frozen_without_eq_keeps_identity_and_a_shared_read_only_default(self):
        one, two = KnowledgeBase(), KnowledgeBase()
        assert one != two and one == one
        assert hash(one) == object.__hash__(one)
        assert one.prefixes == {} and one.prefixes is two.prefixes
        with pytest.raises(TypeError):
            one.prefixes["x"] = "http://x/"
        assert repr(one) == "KnowledgeBase(tbox=(), abox=(), prefixes=mappingproxy({}))"
        with pytest.raises(AttributeError):
            one.tbox = ()

    def test_a_term_reads_its_position_from_the_class_until_at_sets_it(self):
        term = Ref("x")
        assert term.pos == (0, 0) and "pos" not in vars(term)
        assert term != Ref("x")
        assert term.at((2, 5)) is term and term.pos == (2, 5)
        assert Ref("y").pos == (0, 0)
        assert repr(term) == "Ref(name='x')"
        assert IriLit(OBJ).ascription is None
        with pytest.raises(TypeError):
            Ref((1, 1), "x")


class TestSlotDescriptors:
    """Frozen slotted records set their fields through the slots'
    descriptors."""

    @record(frozen=True)
    class Triple:
        x: int
        y: str
        z: tuple = ()

    @record(frozen=True)
    class Span:
        lo: int
        hi: int

        def __post_init__(self) -> None:
            if self.lo > self.hi:
                lo, hi = self.hi, self.lo
                object.__setattr__(self, "lo", lo)
                object.__setattr__(self, "hi", hi)

    def test_post_init_rewrites_fields(self):
        assert (self.Span(5, 2).lo, self.Span(5, 2).hi) == (2, 5)
        assert self.Span(5, 2) == self.Span(2, 5)

    @pytest.mark.parametrize("name", ["x", "y", "z"])
    def test_assignment_and_deletion_raise(self, name):
        s = self.Triple(1, "a")
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
            setattr(s, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
            delattr(s, name)
        assert (s.x, s.y, s.z) == (1, "a", ())
        assert self.Triple.__slots__ == ("x", "y", "z", "_hash")
        with pytest.raises(FrozenInstanceError):
            s.other = 1


def test_a_token_is_a_plain_slotted_record_compared_by_value_and_unhashable():
    token = Token("WORD", "and", 1, 4)
    assert token == Token("WORD", "and", 1, 4) != Token("WORD", "and", 1, 5)
    assert repr(token) == "Token(kind='WORD', text='and', line=1, column=4)"
    assert Token.__slots__ == ("kind", "text", "line", "column")
    token.column = 5
    assert token == Token("WORD", "and", 1, 5)
    with pytest.raises(TypeError):
        hash(token)
    with pytest.raises(AttributeError):
        token.other = 1


def test_a_parse_error_is_a_plain_exception_with_its_position():
    with pytest.raises(ParseError) as exc:
        raise ParseError(3, 7, "m")
    err = exc.value
    assert str(err) == "3:7: m"
    assert (err.line, err.column, err.message) == (3, 7, "m")
    assert err != ParseError(3, 7, "m")
    assert err.__traceback__ is not None


def test_methods_written_in_the_body_are_kept():
    @record(frozen=True)
    class Point:
        x: int
        y: int = 0

        def __repr__(self) -> str:
            return "point"

        def __hash__(self) -> int:
            return self.x

    assert repr(Point(1)) == "point"
    assert hash(Point(1, 2)) == 1
    assert Point.__slots__ == ("x", "y")
    assert not hasattr(Point(1), "_hash")
    assert Point(1, 2) == Point(1, 2) != Point(1, 3)
